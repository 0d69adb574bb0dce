//! PE-local storage: initializers run outside any lock and at most once
//! per type, and an entry never moves once it exists.

use converse_machine::{run, Message, Pe};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

struct Outer {
    inner: Arc<Inner>,
}
struct Inner(u32);
struct Late(u32);

/// A runtime's initializer installs the runtime it builds on — which
/// self-deadlocked while `init` ran under the registry's one mutex.
#[test]
fn an_initializer_may_ask_for_other_locals() {
    run(1, |pe| {
        let outer = pe.local(|| Outer {
            inner: pe.local(|| Inner(7)),
        });
        assert_eq!(outer.inner.0, 7);
        assert!(Arc::ptr_eq(&outer.inner, &pe.try_local::<Inner>().unwrap()));
        assert_eq!(pe.local(|| Inner(8)).0, 7, "the first value stays");
        assert!(pe.local_ref::<Late>().is_none());
    });
}

/// A handler that holds a borrow of one runtime may install others: the
/// borrow stays where it was.
#[test]
fn a_handler_resolving_one_local_may_install_more() {
    run(1, |pe| {
        pe.local(|| Inner(1));
        let h = pe.register_handler(|pe, _| {
            let held: &Inner = pe.local_ref().expect("installed by the entry");
            let at = held as *const Inner;
            let late = pe.local(|| {
                // … from inside an initializer, too.
                let again: &Inner = pe.local_ref().expect("still there");
                Late(again.0 + 1)
            });
            assert_eq!((held.0, late.0), (1, 2));
            assert!(std::ptr::eq(pe.local_ref::<Inner>().unwrap(), at));
        });
        pe.call_handler(Message::new(h, b""));
        assert_eq!(pe.local_ref::<Late>().unwrap().0, 2);
    });
}

/// One of the test's distinct PE-local types.
struct Kind<const N: usize>(usize);

const KINDS: usize = 6;

/// `local::<Kind<kind>>`, counting the initializer; returns the value's
/// address and what it holds.
fn ask(pe: &Pe, kind: usize, who: usize, inits: &[AtomicUsize; KINDS]) -> (usize, usize) {
    fn of<const N: usize>(pe: &Pe, who: usize, inits: &[AtomicUsize; KINDS]) -> (usize, usize) {
        let v = pe.local(|| {
            inits[N].fetch_add(1, Ordering::SeqCst);
            Kind::<N>(who)
        });
        let borrowed: &Kind<N> = pe.local_ref().expect("just made");
        assert!(std::ptr::eq(borrowed, &*v));
        (borrowed as *const Kind<N> as usize, v.0)
    }
    match kind {
        0 => of::<0>(pe, who, inits),
        1 => of::<1>(pe, who, inits),
        2 => of::<2>(pe, who, inits),
        3 => of::<3>(pe, who, inits),
        4 => of::<4>(pe, who, inits),
        _ => of::<5>(pe, who, inits),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eight threads race `local::<T>` for the same and for different
    /// `T`, released together: every type's initializer runs at most
    /// once, all askers see that one value, and it is where it was when
    /// it was first seen however many entries were appended since.
    #[test]
    fn racing_threads_initialize_once_and_entries_stay_put(
        asks in proptest::collection::vec(proptest::collection::vec(0..KINDS, 1..12), 8..=8),
    ) {
        run(1, move |pe| {
            let inits: [AtomicUsize; KINDS] = std::array::from_fn(|_| AtomicUsize::new(0));
            let start = Barrier::new(asks.len());
            let seen: Vec<Vec<(usize, usize, usize)>> = std::thread::scope(|s| {
                let threads: Vec<_> = asks
                    .iter()
                    .enumerate()
                    .map(|(who, kinds)| {
                        let (inits, start) = (&inits, &start);
                        s.spawn(move || {
                            start.wait();
                            kinds
                                .iter()
                                .map(|&k| {
                                    let (at, made_by) = ask(pe, k, who, inits);
                                    (k, at, made_by)
                                })
                                .collect()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().expect("asker")).collect()
            });
            for kind in 0..KINDS {
                let asked = asks.iter().flatten().any(|&k| k == kind);
                assert_eq!(inits[kind].load(Ordering::SeqCst), asked as usize);
                let mut of_kind = seen.iter().flatten().filter(|(k, ..)| *k == kind);
                if let Some(&(_, at, made_by)) = of_kind.next() {
                    assert!(of_kind.all(|&(_, a, m)| (a, m) == (at, made_by)));
                    // After every append of the race, still there.
                    assert_eq!(ask(pe, kind, usize::MAX, &inits), (at, made_by));
                }
            }
        });
    }
}
