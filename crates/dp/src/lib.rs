//! A loosely-synchronous **data-parallel layer** over the Converse EMI —
//! the stand-in for DP-Charm, the data-parallel language the paper lists
//! among its initial clients (§1: "Our initial implementation includes
//! Charm, Charm++, DP-Charm (a data parallel language), PVM, NXLib, and
//! SM").
//!
//! The layer is SPMD: every PE executes the same program and meets at
//! collectives. It provides
//!
//! * typed reductions and broadcasts ([`Dp::allreduce`],
//!   [`Dp::reduce_to_root`], [`Dp::bcast`]) over the machine's
//!   spanning-tree global operations,
//! * [`DistArray`] — a block-distributed one-dimensional array whose
//!   local section lives in an EMI **global-pointer region**, so any PE
//!   can read or write any element with get/put, and halo exchange is a
//!   pair of neighbour sub-range gets (§3.1.3's "asynchronous get and
//!   put calls, and global pointers"), and [`DistArray2`], the same
//!   storage blocked by rows.
//!
//! All calls marked *collective* must be executed by every PE in the
//! same order, the usual data-parallel contract.

pub mod array2;

pub use array2::DistArray2;

use converse_machine::coll::CombinerId;
use converse_machine::gptr::GlobalPtr;
use converse_machine::Pe;
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar that can live in a [`DistArray`] and be reduced.
pub trait DpScalar: Copy + Send + PartialOrd + 'static {
    /// Fixed encoded size in bytes.
    const BYTES: usize;
    /// Write little-endian into `out` (exactly `BYTES` long).
    fn store(self, out: &mut [u8]);
    /// Read back from `b`.
    fn load(b: &[u8]) -> Self;
    /// Addition for sum/product reductions.
    fn add(self, other: Self) -> Self;
    /// Multiplication for product reductions.
    fn mul(self, other: Self) -> Self;
}

impl DpScalar for f64 {
    const BYTES: usize = 8;
    fn store(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn load(b: &[u8]) -> Self {
        f64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn mul(self, other: Self) -> Self {
        self * other
    }
}

impl DpScalar for i64 {
    const BYTES: usize = 8;
    fn store(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn load(b: &[u8]) -> Self {
        i64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn mul(self, other: Self) -> Self {
        self * other
    }
}

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Elementwise sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Product.
    Prod,
}

impl Op {
    /// `a` combined with `b` — the one fold every reduction of this
    /// layer runs.
    fn fold<T: DpScalar>(self, a: T, b: T) -> T {
        match self {
            Op::Sum => a.add(b),
            Op::Prod => a.mul(b),
            Op::Min => {
                if b < a {
                    b
                } else {
                    a
                }
            }
            Op::Max => {
                if b > a {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// Per-PE data-parallel runtime: the registered combiner table, fixed
/// at install.
pub struct Dp {
    combiners: HashMap<(std::any::TypeId, Op), CombinerId>,
    concat: CombinerId,
}

fn combine_scalar<T: DpScalar>(op: Op) -> impl Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync {
    move |a, b| {
        let mut out = vec![0u8; T::BYTES];
        op.fold(T::load(a), T::load(b)).store(&mut out);
        out
    }
}

impl Dp {
    /// Install the runtime on this PE, registering the standard combiner
    /// set in a fixed order (call at the same registration position on
    /// every PE). Idempotent per PE.
    pub fn install(pe: &Pe) -> Arc<Dp> {
        pe.local(|| Self::register(pe))
    }

    fn register(pe: &Pe) -> Dp {
        let mut map = HashMap::new();
        macro_rules! reg {
            ($t:ty, $op:expr) => {
                map.insert(
                    (std::any::TypeId::of::<$t>(), $op),
                    pe.register_combiner(combine_scalar::<$t>($op)),
                );
            };
        }
        for op in [Op::Sum, Op::Min, Op::Max, Op::Prod] {
            reg!(f64, op);
            reg!(i64, op);
        }
        // Concatenation combiner for allgather-style exchanges.
        let concat = pe.register_combiner(|a, b| {
            let mut out = Vec::with_capacity(a.len() + b.len());
            out.extend_from_slice(a);
            out.extend_from_slice(b);
            out
        });
        Dp {
            combiners: map,
            concat,
        }
    }

    /// The runtime previously installed on this PE, borrowed from its
    /// PE-local storage.
    #[inline]
    pub fn get(pe: &Pe) -> &Dp {
        pe.local_ref()
            .unwrap_or_else(|| panic!("PE {}: Dp::install was not called", pe.my_pe()))
    }

    fn combiner<T: DpScalar>(&self, op: Op) -> CombinerId {
        *self
            .combiners
            .get(&(std::any::TypeId::of::<T>(), op))
            .unwrap_or_else(|| panic!("no combiner for {op:?} over this scalar type"))
    }

    /// Collective: reduce `v` with `op`; `Some(result)` on PE 0 only.
    pub fn reduce_to_root<T: DpScalar>(&self, pe: &Pe, v: T, op: Op) -> Option<T> {
        let mut buf = vec![0u8; T::BYTES];
        v.store(&mut buf);
        pe.reduce_bytes(buf, self.combiner::<T>(op))
            .map(|b| T::load(&b))
    }

    /// Collective: reduce `v` with `op`; every PE gets the result.
    pub fn allreduce<T: DpScalar>(&self, pe: &Pe, v: T, op: Op) -> T {
        let mut buf = vec![0u8; T::BYTES];
        v.store(&mut buf);
        T::load(&pe.allreduce_bytes(buf, self.combiner::<T>(op)))
    }

    /// Collective: every PE contributes `v`; every PE receives the
    /// vector of contributions indexed by PE (an allgather).
    pub fn allgather<T: DpScalar>(&self, pe: &Pe, v: T) -> Vec<T> {
        let mut buf = vec![0u8; 8 + T::BYTES];
        buf[..8].copy_from_slice(&(pe.my_pe() as u64).to_le_bytes());
        v.store(&mut buf[8..]);
        let all = pe.allreduce_bytes(buf, self.concat);
        let stride = 8 + T::BYTES;
        assert_eq!(all.len(), stride * pe.num_pes());
        let mut out = vec![v; pe.num_pes()];
        for chunk in all.chunks(stride) {
            let idx = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")) as usize;
            out[idx] = T::load(&chunk[8..]);
        }
        out
    }

    /// Collective allgather of raw byte blobs (used internally to
    /// exchange global pointers; public for irregular exchanges).
    pub fn allgather_bytes(&self, pe: &Pe, v: Vec<u8>) -> Vec<Vec<u8>> {
        let mut buf = Vec::with_capacity(16 + v.len());
        buf.extend_from_slice(&(pe.my_pe() as u64).to_le_bytes());
        buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        buf.extend_from_slice(&v);
        let all = pe.allreduce_bytes(buf, self.concat);
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); pe.num_pes()];
        let mut off = 0;
        while off < all.len() {
            let idx = u64::from_le_bytes(all[off..off + 8].try_into().expect("idx")) as usize;
            let len = u64::from_le_bytes(all[off + 8..off + 16].try_into().expect("len")) as usize;
            out[idx] = all[off + 16..off + 16 + len].to_vec();
            off += 16 + len;
        }
        out
    }

    /// Collective: broadcast `v` (significant on `root`) to all PEs.
    pub fn bcast<T: DpScalar>(&self, pe: &Pe, root: usize, v: Option<T>) -> T {
        let data = v.map(|x| {
            let mut b = vec![0u8; T::BYTES];
            x.store(&mut b);
            b
        });
        T::load(&pe.bcast_bytes(root, data))
    }

    /// Collective: global barrier.
    pub fn barrier(&self, pe: &Pe) {
        pe.barrier();
    }
}

/// Block layout of `global_len` elements over `num_pes` PEs: PE `p` owns
/// `[lo, hi)`. The first `global_len % num_pes` PEs hold one extra.
fn block_range(global_len: usize, num_pes: usize, pe: usize) -> (usize, usize) {
    let base = global_len / num_pes;
    let extra = global_len % num_pes;
    let lo = pe * base + pe.min(extra);
    let hi = lo + base + usize::from(pe < extra);
    (lo, hi)
}

/// Owning PE of global index `i` under [`block_range`].
fn block_owner(global_len: usize, num_pes: usize, i: usize) -> usize {
    assert!(i < global_len);
    // Invert the block map by search (num_pes is small).
    for p in 0..num_pes {
        let (lo, hi) = block_range(global_len, num_pes, p);
        if i >= lo && i < hi {
            return p;
        }
    }
    unreachable!("index {i} not covered by any block");
}

/// The storage both array types are: `units` units of `width` elements
/// each — a [`DistArray`]'s elements, a [`DistArray2`]'s rows —
/// block-distributed by unit ([`block_range`]), every PE's block in one
/// global-pointer region. Elements are indexed flat: unit `u` holds
/// `u * width .. (u + 1) * width`.
struct Blocks<T: DpScalar> {
    units: usize,
    width: usize,
    /// This PE's unit range `[lo, hi)`.
    lo: usize,
    hi: usize,
    /// Global pointers of every PE's block, indexed by PE.
    sections: Vec<GlobalPtr>,
    _t: std::marker::PhantomData<T>,
}

impl<T: DpScalar> Blocks<T> {
    /// Collective: create the storage, element `i` set to `init(i)` on
    /// its owning PE.
    fn new(pe: &Pe, dp: &Dp, units: usize, width: usize, init: impl Fn(usize) -> T) -> Self {
        let (lo, hi) = block_range(units, pe.num_pes(), pe.my_pe());
        let mut bytes = vec![0u8; (hi - lo) * width * T::BYTES];
        for (k, out) in bytes.chunks_exact_mut(T::BYTES).enumerate() {
            init(lo * width + k).store(out);
        }
        let g = pe.gptr_create(bytes);
        let sections = dp
            .allgather_bytes(pe, g.encode())
            .iter()
            .map(|e| GlobalPtr::decode(e).expect("section gptr decodes"))
            .collect();
        Blocks {
            units,
            width,
            lo,
            hi,
            sections,
            _t: std::marker::PhantomData,
        }
    }

    fn local_bytes(&self, pe: &Pe) -> Vec<u8> {
        pe.gptr_deref(&self.sections[pe.my_pe()])
            .expect("own block is local")
    }

    fn local(&self, pe: &Pe) -> Vec<T> {
        self.local_bytes(pe).chunks(T::BYTES).map(T::load).collect()
    }

    fn update_local<F: FnOnce(&mut [T])>(&self, pe: &Pe, f: F) {
        let mut vals = self.local(pe);
        f(&mut vals);
        let ok = pe.gptr_update_local(&self.sections[pe.my_pe()], |bytes| {
            for (v, out) in vals.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
                v.store(out);
            }
        });
        assert!(ok, "own block is local and alive");
    }

    /// The PE holding element `i` and the element's byte offset there.
    fn locate(&self, i: usize) -> (usize, usize) {
        let owner = block_owner(self.units, self.sections.len(), i / self.width);
        let (olo, _) = block_range(self.units, self.sections.len(), owner);
        (owner, (i - olo * self.width) * T::BYTES)
    }

    /// The `n` elements from `i` on, all in one unit, wherever they live.
    fn get(&self, pe: &Pe, i: usize, n: usize) -> Vec<T> {
        let (owner, off) = self.locate(i);
        pe.get_bytes(&self.sections[owner], off, n * T::BYTES)
            .chunks(T::BYTES)
            .map(T::load)
            .collect()
    }

    fn put(&self, pe: &Pe, i: usize, v: T) {
        let (owner, off) = self.locate(i);
        let mut b = vec![0u8; T::BYTES];
        v.store(&mut b);
        pe.put_bytes(&self.sections[owner], off, &b);
    }

    fn reduce_all(&self, pe: &Pe, dp: &Dp, op: Op) -> T {
        assert!(self.units * self.width > 0, "reduce of empty array");
        let folded = self.local(pe).into_iter().reduce(|a, b| op.fold(a, b));
        // There is no generic identity for an empty block: every PE
        // shares whether it holds data and its fold, and each combines
        // the present ones.
        let flags = dp.allgather(pe, i64::from(folded.is_some()));
        let vals = dp.allgather(pe, folded.unwrap_or_else(|| T::load(&vec![0u8; T::BYTES])));
        flags
            .into_iter()
            .zip(vals)
            .filter_map(|(flag, v)| (flag == 1).then_some(v))
            .reduce(|a, b| op.fold(a, b))
            .expect("a non-empty array has an owner")
    }

    fn gather_all(&self, pe: &Pe, dp: &Dp) -> Vec<T> {
        dp.allgather_bytes(pe, self.local_bytes(pe))
            .iter()
            .flat_map(|part| part.chunks(T::BYTES).map(T::load))
            .collect()
    }
}

/// A block-distributed 1-D array of `T`. Collective to create; element
/// access crosses PEs through global pointers.
pub struct DistArray<T: DpScalar>(Blocks<T>);

impl<T: DpScalar> DistArray<T> {
    /// Collective: create the array, initializing element `i` to
    /// `init(i)` on its owning PE.
    pub fn new<F: Fn(usize) -> T>(pe: &Pe, dp: &Dp, global_len: usize, init: F) -> DistArray<T> {
        DistArray(Blocks::new(pe, dp, global_len, 1, init))
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.0.units
    }

    /// True for a zero-length array.
    pub fn is_empty(&self) -> bool {
        self.0.units == 0
    }

    /// This PE's owned global index range `[lo, hi)`.
    pub fn local_range(&self) -> (usize, usize) {
        (self.0.lo, self.0.hi)
    }

    /// Copy of this PE's local section.
    pub fn local(&self, pe: &Pe) -> Vec<T> {
        self.0.local(pe)
    }

    /// Mutate this PE's local section in place. `f` receives the decoded
    /// elements; they are written back when it returns.
    pub fn update_local<F: FnOnce(&mut [T])>(&self, pe: &Pe, f: F) {
        self.0.update_local(pe, f)
    }

    fn index(&self, i: usize) -> usize {
        assert!(i < self.len(), "index {i} out of bounds {}", self.len());
        i
    }

    /// Read element `i`, wherever it lives (remote get when not local).
    pub fn get(&self, pe: &Pe, i: usize) -> T {
        self.0.get(pe, self.index(i), 1)[0]
    }

    /// Write element `i`, wherever it lives (remote put when not local).
    pub fn put(&self, pe: &Pe, i: usize, v: T) {
        self.0.put(pe, self.index(i), v)
    }

    /// The halo values bracketing this PE's block: the element just
    /// before `lo` and just after `hi-1`, when they exist. One remote
    /// sub-range get each — the data-parallel halo exchange.
    pub fn halo(&self, pe: &Pe) -> (Option<T>, Option<T>) {
        let (lo, hi) = self.local_range();
        let left = (lo > 0).then(|| self.get(pe, lo - 1));
        let right = (hi < self.len()).then(|| self.get(pe, hi));
        (left, right)
    }

    /// Collective: reduce over all elements with `op`; every PE gets the
    /// result (global length must be ≥ 1).
    pub fn reduce_all(&self, pe: &Pe, dp: &Dp, op: Op) -> T {
        self.0.reduce_all(pe, dp, op)
    }

    /// Collective: gather the whole array on every PE (small arrays /
    /// debugging).
    pub fn gather_all(&self, pe: &Pe, dp: &Dp) -> Vec<T> {
        self.0.gather_all(pe, dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for n in [1usize, 2, 3, 7, 16] {
            for len in [0usize, 1, 5, 16, 17, 100] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for p in 0..n {
                    let (lo, hi) = block_range(len, n, p);
                    assert_eq!(lo, prev_hi, "blocks contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, len, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn block_sizes_balanced() {
        let n = 4;
        let len = 10;
        let sizes: Vec<usize> = (0..n)
            .map(|p| {
                let (l, h) = block_range(len, n, p);
                h - l
            })
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn owner_matches_range() {
        let (n, len) = (5, 23);
        for i in 0..len {
            let p = block_owner(len, n, i);
            let (lo, hi) = block_range(len, n, p);
            assert!(i >= lo && i < hi);
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut b = [0u8; 8];
        (-3.5f64).store(&mut b);
        assert_eq!(f64::load(&b), -3.5);
        (i64::MIN).store(&mut b);
        assert_eq!(i64::load(&b), i64::MIN);
    }
}
