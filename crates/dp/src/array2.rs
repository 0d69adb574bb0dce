//! Two-dimensional block-row distributed arrays.
//!
//! The natural layout for stencil codes: a [`DistArray2`] is the storage
//! of a [`crate::DistArray`] whose units are rows, so rows are
//! block-distributed over PEs and each PE's block lives in one EMI
//! global-pointer region. The halo exchange of a 2-D Jacobi/heat solver
//! is two remote sub-range gets (the boundary rows of the neighbouring
//! blocks) per iteration — exactly the communication structure a
//! DP-Charm-style language compiles to.

use crate::{Blocks, Dp, DpScalar, Op};
use converse_machine::Pe;

/// A `rows × cols` array of `T`, block-row distributed.
pub struct DistArray2<T: DpScalar>(Blocks<T>);

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
        DistArray2(Blocks::new(pe, dp, rows, cols, |i| {
            init(i / cols, i % cols)
        }))
    }

    /// Array shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.0.units, self.0.width)
    }

    /// This PE's owned row range `[lo, hi)`.
    pub fn row_range(&self) -> (usize, usize) {
        (self.0.lo, self.0.hi)
    }

    /// Number of locally owned rows.
    pub fn local_rows(&self) -> usize {
        self.0.hi - self.0.lo
    }

    /// Copy of the local block, row-major.
    pub fn local(&self, pe: &Pe) -> Vec<T> {
        self.0.local(pe)
    }

    /// Mutate the local block in place (row-major slice of
    /// `local_rows() * cols` elements).
    pub fn update_local<F: FnOnce(&mut [T])>(&self, pe: &Pe, f: F) {
        self.0.update_local(pe, f)
    }

    /// The flat index of element `(r, c)`.
    fn index(&self, r: usize, c: usize) -> usize {
        let (rows, cols) = self.shape();
        assert!(r < rows && c < cols, "({r},{c}) out of {rows}×{cols}");
        r * cols + c
    }

    /// Read element `(r, c)`, wherever it lives.
    pub fn get(&self, pe: &Pe, r: usize, c: usize) -> T {
        self.0.get(pe, self.index(r, c), 1)[0]
    }

    /// Write element `(r, c)`, wherever it lives.
    pub fn put(&self, pe: &Pe, r: usize, c: usize, v: T) {
        self.0.put(pe, self.index(r, c), v)
    }

    /// Fetch a whole remote (or local) row.
    pub fn get_row(&self, pe: &Pe, r: usize) -> Vec<T> {
        self.0.get(pe, self.index(r, 0), self.0.width)
    }

    /// The halo rows bracketing this PE's block: the row just above
    /// `row_lo` and the row just below `row_hi - 1`, when they exist —
    /// one remote sub-range get each.
    pub fn halo_rows(&self, pe: &Pe) -> (Option<Vec<T>>, Option<Vec<T>>) {
        let (lo, hi) = self.row_range();
        let above = (lo > 0).then(|| self.get_row(pe, lo - 1));
        let below = (hi < self.0.units).then(|| self.get_row(pe, hi));
        (above, below)
    }

    /// Collective: reduce over every element with `op`; every PE gets
    /// the result.
    pub fn reduce_all(&self, pe: &Pe, dp: &Dp, op: Op) -> T {
        self.0.reduce_all(pe, dp, op)
    }

    /// Collective: gather the whole array (row-major) on every PE.
    pub fn gather_all(&self, pe: &Pe, dp: &Dp) -> Vec<T> {
        self.0.gather_all(pe, dp)
    }
}
