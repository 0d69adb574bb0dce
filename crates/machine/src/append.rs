//! An append-only table read without a lock — the shape of the PE's
//! handler table and of its PE-local storage registry.
//!
//! `CmiRegisterHandler` only ever appends, and every message dispatch
//! looks one entry up; a runtime's PE-local state is installed once and
//! resolved on every message after that. So the table is a fixed spine
//! of segments that double in size ([`FIRST`] slots, then `2·FIRST`,
//! `4·FIRST`, …), each allocated the first time an append reaches it and
//! never moved or freed while the PE lives. An entry's address is
//! therefore stable: dispatch borrows `&Handler` straight out of the
//! table for the length of the call — no lock, no `Arc` clone — and a
//! handler may itself register more handlers while it runs.
//!
//! Readers go through two `OnceLock::get`s (segment, then slot), each an
//! acquire load that pairs with the release of the `OnceLock::set` that
//! filled it. Writers are serialized by the `len` mutex; appending is
//! start-up work and stays off the message path.

use parking_lot::Mutex;
use std::sync::OnceLock;

/// Slots in the first segment (a power of two). The machine layer's
/// reserved handlers and a typical program's own fit here, so most PEs
/// never allocate a second one.
const FIRST: usize = 64;

/// Segments in the spine: `FIRST · (2^SEGMENTS − 1)` slots, the fewest
/// that cover every `u32` handler id.
const SEGMENTS: usize = (u32::BITS - FIRST.trailing_zeros() + 1) as usize;

type Segment<T> = Box<[OnceLock<T>]>;

pub(crate) struct AppendTable<T> {
    spine: [OnceLock<Segment<T>>; SEGMENTS],
    /// Entries appended so far; held across an append.
    len: Mutex<usize>,
}

/// Segment number and offset within it of table index `index`.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    // Shifted by FIRST, segment k spans [FIRST·2^k, FIRST·2^(k+1)).
    let shifted = index + FIRST;
    let seg = (shifted.ilog2() - FIRST.ilog2()) as usize;
    (seg, shifted - (FIRST << seg))
}

impl<T> AppendTable<T> {
    pub(crate) fn new() -> Self {
        AppendTable {
            spine: [const { OnceLock::new() }; SEGMENTS],
            len: Mutex::new(0),
        }
    }

    /// Append `v`; returns its index.
    pub(crate) fn push(&self, v: T) -> usize {
        let mut len = self.len.lock();
        let index = *len;
        let (seg, off) = locate(index);
        assert!(seg < SEGMENTS, "append table full ({index} entries)");
        let segment =
            self.spine[seg].get_or_init(|| (0..FIRST << seg).map(|_| OnceLock::new()).collect());
        if segment[off].set(v).is_err() {
            unreachable!("slot {index} is past `len`, so never written");
        }
        *len = index + 1;
        index
    }

    /// The entry at `index`, if appended.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        let (seg, off) = locate(index);
        self.spine.get(seg)?.get()?[off].get()
    }

    /// The first entry satisfying `pred`, in index order. Appends are
    /// serialized, so the filled slots are a prefix; an entry appended
    /// while the scan runs may or may not be seen.
    #[inline]
    pub(crate) fn find(&self, mut pred: impl FnMut(&T) -> bool) -> Option<&T> {
        for segment in &self.spine {
            for slot in segment.get()?.iter() {
                let v = slot.get()?;
                if pred(v) {
                    return Some(v);
                }
            }
        }
        None
    }

    pub(crate) fn len(&self) -> usize {
        *self.len.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_walks_doubling_segments() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST - 1), (0, FIRST - 1));
        assert_eq!(locate(FIRST), (1, 0));
        assert_eq!(locate(3 * FIRST - 1), (1, 2 * FIRST - 1));
        assert_eq!(locate(3 * FIRST), (2, 0));
        let (seg, off) = locate(u32::MAX as usize);
        assert!(seg < SEGMENTS && off < FIRST << seg);
    }

    #[test]
    fn entries_keep_their_address_across_growth() {
        let t = AppendTable::new();
        assert!(t.get(0).is_none());
        assert!(t.find(|_| true).is_none());
        let first = t.push(0usize);
        let addr = t.get(first).unwrap() as *const usize;
        for i in 1..=4 * FIRST {
            t.push(i);
        }
        assert_eq!(t.len(), 4 * FIRST + 1);
        assert_eq!(t.get(first).unwrap() as *const usize, addr);
        assert!(t.get(4 * FIRST).is_some());
        assert!(t.get(4 * FIRST + 1).is_none());
        assert_eq!(t.find(|&v| v == 3 * FIRST), t.get(3 * FIRST));
        assert!(t.find(|&v| v > 4 * FIRST).is_none());
    }
}
