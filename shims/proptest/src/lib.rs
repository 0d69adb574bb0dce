//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the property-test
//! surface the workspace uses is re-implemented here: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, range / tuple
//! / `any` / [`Just`](strategy::Just) /
//! `collection::vec` strategies, weighted [`prop_oneof!`], and the
//! [`proptest!`] test macro with `prop_assert*` assertions and
//! `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, deliberate for a vendored shim:
//!
//! * **No shrinking.** A failing case reports its generated inputs
//!   (`Debug`) and the case number, but is not minimized.
//! * **Deterministic seeding.** Cases derive from a fixed seed (override
//!   with `PROPTEST_SEED=<u64>`), so CI failures reproduce exactly.

use rand::{RngCore, SeedableRng, SmallRng};

/// The per-test random source handed to strategies.
pub struct TestRng(SmallRng);

impl TestRng {
    /// Deterministic RNG for case `case` of a run seeded with `seed`.
    pub fn for_case(seed: u64, case: u64) -> TestRng {
        TestRng(SmallRng::seed_from_u64(
            seed ^ case.wrapping_mul(0x9E3779B97F4A7C15),
        ))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

pub mod strategy {
    //! Strategy combinators ([`Strategy`], [`Just`], [`Map`], [`OneOf`]).

    use super::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// A strategy behind a vtable, so heterogeneous arms can share a
    /// container (used by [`prop_oneof!`](crate::prop_oneof)).
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// Box a strategy, erasing its concrete type.
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted choice among boxed strategies; see
    /// [`prop_oneof!`](crate::prop_oneof).
    pub struct OneOf<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> OneOf<T> {
        /// Build from `(weight, strategy)` arms. Weights must not all be
        /// zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof needs at least one positive weight");
            OneOf { arms, total }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.random_range(0..self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights sum covered the sampled value")
        }
    }

    /// Uniform strategy over a primitive type (see [`crate::any`]).
    pub struct AnyStrategy<T>(pub(crate) PhantomData<T>);

    macro_rules! impl_any_via_bits {
        ($($t:ty),*) => {$(
            impl Strategy for AnyStrategy<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::RngCore::next_u64(rng) as $t
                }
            }
        )*};
    }
    impl_any_via_bits!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for AnyStrategy<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rand::RngCore::next_u64(rng) & 1 == 1
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $s:ident),+))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy! {
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
    }
}

/// Uniform strategy over all values of primitive `T`.
pub fn any<T>() -> strategy::AnyStrategy<T>
where
    strategy::AnyStrategy<T>: strategy::Strategy<Value = T>,
{
    strategy::AnyStrategy(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for a generated collection.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector whose elements come from `element` and whose length is
    /// drawn uniformly from `size` (a count, `a..b`, or `a..=b`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test-run configuration and failure plumbing.

    /// How many cases each property runs (the only knob this shim
    /// supports).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// A property failure raised by a `prop_assert*` macro.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Build a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }
}

/// The base seed for a run: fixed for reproducibility, overridable with
/// `PROPTEST_SEED`.
pub fn base_seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse().expect("PROPTEST_SEED must be a u64"),
        Err(_) => 0xC041_7E57_5EEDu64,
    }
}

pub mod prelude {
    //! Everything a property test file needs, mirroring
    //! `proptest::prelude`.
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Weighted (or unweighted) choice among strategies producing one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a), stringify!($b), a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, $($fmt)+);
    }};
}

/// Define property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running `cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(
            $crate::test_runner::ProptestConfig::default(); $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        $cfg:expr;
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let __seed = $crate::base_seed();
            for __case in 0..(__cfg.cases as u64) {
                let mut __rng = $crate::TestRng::for_case(__seed, __case);
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )*
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; ",)*),
                    $(&$arg),*
                );
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest case {}/{} failed (seed {:#x}): {}\n  inputs: {}",
                        __case + 1, __cfg.cases, __seed, e.0, __inputs
                    );
                }
            }
        }
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    ($cfg:expr;) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_map(|v| v * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in 3usize..17, b in -5i32..=5) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-5..=5).contains(&b));
        }

        #[test]
        fn map_applies(v in arb_even()) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn vec_len_in_bounds(v in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
        }

        #[test]
        fn vec_exact_len(v in collection::vec(any::<bool>(), 8)) {
            prop_assert_eq!(v.len(), 8);
        }

        #[test]
        fn oneof_weighted(v in prop_oneof![4 => 0i32..4, 1 => Just(-1)]) {
            prop_assert!(v == -1 || (0..4).contains(&v));
        }

        #[test]
        fn tuples_work(t in (0usize..3, any::<bool>(), 1u8..=9)) {
            prop_assert!(t.0 < 3);
            prop_assert!(t.2 >= 1 && t.2 <= 9);
        }
    }

    #[test]
    fn failing_case_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(8))]
                #[allow(unused)]
                fn always_fails(x in 0u32..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("inputs: x ="), "got: {msg}");
    }
}
