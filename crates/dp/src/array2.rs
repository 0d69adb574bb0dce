//! Two-dimensional block-row distributed arrays.
//!
//! The natural layout for stencil codes: rows are block-distributed over
//! PEs (`block_range` on the row index); each PE's block lives
//! in one EMI global-pointer region, so the halo exchange of a 2-D
//! Jacobi/heat solver is two remote sub-range gets (the boundary rows of
//! the neighbouring blocks) per iteration — exactly the communication
//! structure a DP-Charm-style language compiles to.

use crate::{block_owner, block_range, Dp, DpScalar, Op};
use converse_machine::gptr::GlobalPtr;
use converse_machine::Pe;

/// A `rows × cols` array of `T`, block-row distributed.
pub struct DistArray2<T: DpScalar> {
    rows: usize,
    cols: usize,
    row_lo: usize,
    row_hi: usize,
    /// Global pointers of every PE's block, indexed by PE.
    sections: Vec<GlobalPtr>,
    _t: std::marker::PhantomData<T>,
}

impl<T: DpScalar> DistArray2<T> {
    /// Collective: create the array, initializing element `(r, c)` to
    /// `init(r, c)` on its owning PE.
    pub fn new<F: Fn(usize, usize) -> T>(
        pe: &Pe,
        dp: &Dp,
        rows: usize,
        cols: usize,
        init: F,
    ) -> DistArray2<T> {
        assert!(cols > 0 || rows == 0, "a non-empty array needs columns");
        let (row_lo, row_hi) = block_range(rows, pe.num_pes(), pe.my_pe());
        let mut bytes = vec![0u8; (row_hi - row_lo) * cols * T::BYTES];
        for r in row_lo..row_hi {
            for c in 0..cols {
                let off = ((r - row_lo) * cols + c) * T::BYTES;
                init(r, c).store(&mut bytes[off..off + T::BYTES]);
            }
        }
        let g = pe.gptr_create(bytes);
        let encoded = dp.allgather_bytes(pe, g.encode().to_vec());
        let sections = encoded
            .iter()
            .map(|e| GlobalPtr::decode(e).expect("section decodes"))
            .collect();
        DistArray2 {
            rows,
            cols,
            row_lo,
            row_hi,
            sections,
            _t: std::marker::PhantomData,
        }
    }

    /// Array shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// This PE's owned row range `[lo, hi)`.
    pub fn row_range(&self) -> (usize, usize) {
        (self.row_lo, self.row_hi)
    }

    /// Number of locally owned rows.
    pub fn local_rows(&self) -> usize {
        self.row_hi - self.row_lo
    }

    /// Copy of the local block, row-major.
    pub fn local(&self, pe: &Pe) -> Vec<T> {
        let bytes = pe
            .gptr_deref(&self.sections[pe.my_pe()])
            .expect("own block is local");
        bytes.chunks(T::BYTES).map(T::load).collect()
    }

    /// Mutate the local block in place (row-major slice of
    /// `local_rows() * cols` elements).
    pub fn update_local<F: FnOnce(&mut [T])>(&self, pe: &Pe, f: F) {
        let g = &self.sections[pe.my_pe()];
        let mut vals = self.local(pe);
        f(&mut vals);
        let ok = pe.gptr_update_local(g, |bytes| {
            for (i, v) in vals.iter().enumerate() {
                v.store(&mut bytes[i * T::BYTES..(i + 1) * T::BYTES]);
            }
        });
        assert!(ok, "own block is local and alive");
    }

    fn owner_and_offset(&self, r: usize, c: usize) -> (usize, usize) {
        assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of {}×{}",
            self.rows,
            self.cols
        );
        let owner = block_owner(self.rows, self.sections.len(), r);
        let (olo, _) = block_range(self.rows, self.sections.len(), owner);
        (owner, ((r - olo) * self.cols + c) * T::BYTES)
    }

    /// Read element `(r, c)`, wherever it lives.
    pub fn get(&self, pe: &Pe, r: usize, c: usize) -> T {
        let (owner, off) = self.owner_and_offset(r, c);
        T::load(&pe.get_bytes(&self.sections[owner], off, T::BYTES))
    }

    /// Write element `(r, c)`, wherever it lives.
    pub fn put(&self, pe: &Pe, r: usize, c: usize, v: T) {
        let (owner, off) = self.owner_and_offset(r, c);
        let mut b = vec![0u8; T::BYTES];
        v.store(&mut b);
        pe.put_bytes(&self.sections[owner], off, &b);
    }

    /// Fetch a whole remote (or local) row.
    pub fn get_row(&self, pe: &Pe, r: usize) -> Vec<T> {
        let (owner, off) = self.owner_and_offset(r, 0);
        pe.get_bytes(&self.sections[owner], off, self.cols * T::BYTES)
            .chunks(T::BYTES)
            .map(T::load)
            .collect()
    }

    /// The halo rows bracketing this PE's block: the row just above
    /// `row_lo` and the row just below `row_hi - 1`, when they exist —
    /// one remote sub-range get each.
    pub fn halo_rows(&self, pe: &Pe) -> (Option<Vec<T>>, Option<Vec<T>>) {
        let above = if self.row_lo > 0 {
            Some(self.get_row(pe, self.row_lo - 1))
        } else {
            None
        };
        let below = if self.row_hi < self.rows {
            Some(self.get_row(pe, self.row_hi))
        } else {
            None
        };
        (above, below)
    }

    /// Collective: reduce over every element with `op`; every PE gets
    /// the result.
    pub fn reduce_all(&self, pe: &Pe, dp: &Dp, op: Op) -> T {
        assert!(self.rows * self.cols > 0, "reduce of empty array");
        let local = self.local(pe);
        let folded = local.iter().copied().reduce(|a, b| combine(op, a, b));
        let flags = dp.allgather(pe, i64::from(folded.is_some()));
        let vals = dp.allgather(pe, folded.unwrap_or_else(|| T::load(&vec![0u8; T::BYTES])));
        let mut acc: Option<T> = None;
        for (p, flag) in flags.iter().enumerate() {
            if *flag == 1 {
                acc = Some(match acc {
                    None => vals[p],
                    Some(a) => combine(op, a, vals[p]),
                });
            }
        }
        acc.expect("non-empty array has an owner")
    }

    /// Collective: gather the whole array (row-major) on every PE.
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
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for part in parts {
            out.extend(part.chunks(T::BYTES).map(T::load));
        }
        out
    }
}

fn combine<T: DpScalar>(op: Op, a: T, b: T) -> T {
    match op {
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
