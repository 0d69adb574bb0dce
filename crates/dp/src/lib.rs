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
//!   put calls, and global pointers").
//!
//! All calls marked *collective* must be executed by every PE in the
//! same order, the usual data-parallel contract.

pub mod array2;

pub use array2::DistArray2;

use converse_machine::coll::CombinerId;
use converse_machine::gptr::GlobalPtr;
use converse_machine::Pe;
use parking_lot::Mutex;
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

/// Per-PE data-parallel runtime: the registered combiner table.
pub struct Dp {
    combiners: Mutex<HashMap<(std::any::TypeId, Op), CombinerId>>,
    concat: CombinerId,
}

fn combine_scalar<T: DpScalar>(op: Op) -> impl Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync {
    move |a, b| {
        let x = T::load(a);
        let y = T::load(b);
        let r = match op {
            Op::Sum => x.add(y),
            Op::Prod => x.mul(y),
            Op::Min => {
                if y < x {
                    y
                } else {
                    x
                }
            }
            Op::Max => {
                if y > x {
                    y
                } else {
                    x
                }
            }
        };
        let mut out = vec![0u8; T::BYTES];
        r.store(&mut out);
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
            combiners: Mutex::new(map),
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
            .lock()
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
pub(crate) fn block_range(global_len: usize, num_pes: usize, pe: usize) -> (usize, usize) {
    let base = global_len / num_pes;
    let extra = global_len % num_pes;
    let lo = pe * base + pe.min(extra);
    let hi = lo + base + usize::from(pe < extra);
    (lo, hi)
}

/// Owning PE of global index `i` under [`block_range`].
pub(crate) fn block_owner(global_len: usize, num_pes: usize, i: usize) -> usize {
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

/// A block-distributed 1-D array of `T`. Collective to create; element
/// access crosses PEs through global pointers.
pub struct DistArray<T: DpScalar> {
    global_len: usize,
    lo: usize,
    hi: usize,
    /// Global pointers of every PE's local section, indexed by PE.
    sections: Vec<GlobalPtr>,
    _t: std::marker::PhantomData<T>,
}

impl<T: DpScalar> DistArray<T> {
    /// Collective: create the array, initializing element `i` to
    /// `init(i)` on its owning PE.
    pub fn new<F: Fn(usize) -> T>(pe: &Pe, dp: &Dp, global_len: usize, init: F) -> DistArray<T> {
        let (lo, hi) = block_range(global_len, pe.num_pes(), pe.my_pe());
        let mut bytes = vec![0u8; (hi - lo) * T::BYTES];
        for i in lo..hi {
            init(i).store(&mut bytes[(i - lo) * T::BYTES..(i - lo + 1) * T::BYTES]);
        }
        let g = pe.gptr_create(bytes);
        let encoded = dp.allgather_bytes(pe, g.encode().to_vec());
        let sections = encoded
            .iter()
            .map(|e| GlobalPtr::decode(e).expect("section gptr decodes"))
            .collect();
        DistArray {
            global_len,
            lo,
            hi,
            sections,
            _t: std::marker::PhantomData,
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.global_len
    }

    /// True for a zero-length array.
    pub fn is_empty(&self) -> bool {
        self.global_len == 0
    }

    /// This PE's owned global index range `[lo, hi)`.
    pub fn local_range(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Copy of this PE's local section.
    pub fn local(&self, pe: &Pe) -> Vec<T> {
        let bytes = pe
            .gptr_deref(&self.sections[pe.my_pe()])
            .expect("own section is local");
        bytes.chunks(T::BYTES).map(T::load).collect()
    }

    /// Mutate this PE's local section in place. `f` receives the decoded
    /// elements; they are written back when it returns.
    pub fn update_local<F: FnOnce(&mut [T])>(&self, pe: &Pe, f: F) {
        let g = &self.sections[pe.my_pe()];
        let mut vals = self.local(pe);
        f(&mut vals);
        let ok = pe.gptr_update_local(g, |bytes| {
            for (i, v) in vals.iter().enumerate() {
                v.store(&mut bytes[i * T::BYTES..(i + 1) * T::BYTES]);
            }
        });
        assert!(ok, "own section is local and alive");
    }

    /// Read element `i`, wherever it lives (remote get when not local).
    pub fn get(&self, pe: &Pe, i: usize) -> T {
        assert!(
            i < self.global_len,
            "index {i} out of bounds {}",
            self.global_len
        );
        let owner = block_owner(self.global_len, pe.num_pes(), i);
        let (olo, _) = block_range(self.global_len, pe.num_pes(), owner);
        let bytes = pe.get_bytes(&self.sections[owner], (i - olo) * T::BYTES, T::BYTES);
        T::load(&bytes)
    }

    /// Write element `i`, wherever it lives (remote put when not local).
    pub fn put(&self, pe: &Pe, i: usize, v: T) {
        assert!(
            i < self.global_len,
            "index {i} out of bounds {}",
            self.global_len
        );
        let owner = block_owner(self.global_len, pe.num_pes(), i);
        let (olo, _) = block_range(self.global_len, pe.num_pes(), owner);
        let mut b = vec![0u8; T::BYTES];
        v.store(&mut b);
        pe.put_bytes(&self.sections[owner], (i - olo) * T::BYTES, &b);
    }

    /// The halo values bracketing this PE's block: the element just
    /// before `lo` and just after `hi-1`, when they exist. One remote
    /// sub-range get each — the data-parallel halo exchange.
    pub fn halo(&self, pe: &Pe) -> (Option<T>, Option<T>) {
        let left = if self.lo > 0 {
            Some(self.get(pe, self.lo - 1))
        } else {
            None
        };
        let right = if self.hi < self.global_len {
            Some(self.get(pe, self.hi))
        } else {
            None
        };
        (left, right)
    }

    /// Collective: reduce over all elements with `op`; every PE gets the
    /// result. Empty local sections contribute the first local element
    /// of some PE (global length must be ≥ 1).
    pub fn reduce_all(&self, pe: &Pe, dp: &Dp, op: Op) -> T {
        assert!(self.global_len > 0, "reduce of empty array");
        let local = self.local(pe);
        // Fold locally; PEs with empty sections contribute the identity
        // by sending... there is no generic identity, so encode presence:
        // gather (count, value) pairs via two allreduces.
        let folded = local.iter().copied().reduce(|a, b| match op {
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
        });
        // Exchange all folded values; each PE combines the present ones.
        let have = folded.is_some();
        let flags = dp.allgather(pe, if have { 1i64 } else { 0i64 });
        let vals = dp.allgather(pe, folded.unwrap_or_else(|| T::load(&vec![0u8; T::BYTES])));
        let mut acc: Option<T> = None;
        for (p, flag) in flags.iter().enumerate() {
            if *flag == 1 {
                let v = vals[p];
                acc = Some(match acc {
                    None => v,
                    Some(a) => match op {
                        Op::Sum => a.add(v),
                        Op::Prod => a.mul(v),
                        Op::Min => {
                            if v < a {
                                v
                            } else {
                                a
                            }
                        }
                        Op::Max => {
                            if v > a {
                                v
                            } else {
                                a
                            }
                        }
                    },
                });
            }
        }
        acc.expect("global length ≥ 1 means someone holds data")
    }

    /// Collective: gather the whole array on every PE (small arrays /
    /// debugging).
    pub fn gather_all(&self, pe: &Pe, dp: &Dp) -> Vec<T> {
        let local_bytes: Vec<u8> = {
            let vals = self.local(pe);
            let mut b = vec![0u8; vals.len() * T::BYTES];
            for (i, v) in vals.iter().enumerate() {
                v.store(&mut b[i * T::BYTES..(i + 1) * T::BYTES]);
            }
            b
        };
        let parts = dp.allgather_bytes(pe, local_bytes);
        let mut out = Vec::with_capacity(self.global_len);
        for part in parts {
            out.extend(part.chunks(T::BYTES).map(T::load));
        }
        out
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
