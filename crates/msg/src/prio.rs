//! Scheduling priorities (paper §2.3).
//!
//! Converse supports prioritized queueing "for languages and computations
//! that require them, while not penalizing performance for those that do
//! not". Two priority domains exist:
//!
//! * **Integer priorities** — e.g. branch-and-bound lower bounds, or
//!   virtual time in optimistic discrete-event simulation. Smaller values
//!   are more urgent (run first), matching Converse/Charm convention.
//! * **Bit-vector priorities** — arbitrary-length bit strings used by
//!   state-space search to obtain "consistent and monotonic speedups"
//!   (paper ref [22]). Ordering is lexicographic with `0 < 1`, and when
//!   one vector is a prefix of the other the *shorter* one is more
//!   urgent. This makes the priority of a search node's child strictly
//!   less urgent than its parent while preserving sibling order.

use std::cmp::Ordering;
use std::fmt;

/// A message's scheduling priority.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum Priority {
    /// Unprioritized; scheduled FIFO (or LIFO) among themselves and
    /// treated as integer priority `0` relative to prioritized work.
    #[default]
    None,
    /// Integer priority; **smaller is more urgent**.
    Int(i32),
    /// Bit-vector priority; lexicographic, `0` bit more urgent than `1`.
    BitVec(BitVecPrio),
}

impl Priority {
    /// True for `Priority::None`.
    pub fn is_none(&self) -> bool {
        matches!(self, Priority::None)
    }
}

/// A message's priority borrowed from its priority area: what
/// [`crate::Message::priority_words`] returns. The scheduler queue
/// orders entries by this view, so queueing by priority allocates
/// nothing.
#[derive(Clone, Debug)]
pub enum PrioWords<'a> {
    /// Unprioritized.
    None,
    /// Integer priority; smaller is more urgent.
    Int(i32),
    /// Bit-vector priority of `nbits` bits. `words` yields the
    /// `nbits.div_ceil(32)` bit words, MSB-first and with the unused
    /// tail bits zero, as [`BitVecPrio`] stores them.
    BitVec { nbits: u32, words: BitWords<'a> },
}

/// The bit words of a bit-vector priority, read out of a message.
#[derive(Clone, Debug)]
pub struct BitWords<'a> {
    /// The little-endian words; a whole number of them.
    pub(crate) bytes: &'a [u8],
}

impl Iterator for BitWords<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let (word, rest) = self.bytes.split_first_chunk::<4>()?;
        self.bytes = rest;
        Some(u32::from_le_bytes(*word))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bytes.len() / 4;
        (n, Some(n))
    }
}

/// An arbitrary-length bit-string priority.
///
/// Stored as a length-prefixed little sequence of `u32` words so it can
/// be embedded verbatim in a message's priority area: word 0 is the bit
/// count, the following words carry the bits MSB-first (bit `i` of the
/// vector lives in word `i / 32` at bit position `31 - (i % 32)`), which
/// makes word-wise unsigned comparison equal to lexicographic bit
/// comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVecPrio {
    /// raw[0] = number of valid bits; raw[1..] = bit words, MSB-first.
    raw: Vec<u32>,
}

impl BitVecPrio {
    /// The empty bit vector — the most urgent priority of all.
    pub fn root() -> Self {
        BitVecPrio { raw: vec![0] }
    }

    /// Build from explicit bits, most significant (leftmost) first.
    pub fn from_bits(bits: &[bool]) -> Self {
        let nwords = bits.len().div_ceil(32);
        let mut raw = vec![0u32; 1 + nwords];
        raw[0] = bits.len() as u32;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                raw[1 + i / 32] |= 1 << (31 - (i % 32));
            }
        }
        BitVecPrio { raw }
    }

    /// Rebuild from the wire representation: `nbits` plus bit words.
    pub fn from_raw(nbits: u32, words: Vec<u32>) -> Self {
        let needed = (nbits as usize).div_ceil(32);
        let mut raw = Vec::with_capacity(1 + needed);
        raw.push(nbits);
        raw.extend(words.into_iter().take(needed));
        raw.resize(1 + needed, 0);
        let mut bv = BitVecPrio { raw };
        bv.mask_tail();
        bv
    }

    /// The wire words: `[nbits, bits...]`, embedded in the message header
    /// priority area.
    pub fn words(&self) -> &[u32] {
        &self.raw
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.raw[0] as usize
    }

    /// True for the empty (root, most-urgent) vector.
    pub fn is_empty(&self) -> bool {
        self.raw[0] == 0
    }

    /// Bit `i` (0 = leftmost / most significant).
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len(),
            "bit {i} out of range for {}-bit priority",
            self.len()
        );
        self.raw[1 + i / 32] & (1 << (31 - (i % 32))) != 0
    }

    /// The child priority obtained by appending one bit — the idiom used
    /// by tree-structured searches: `child(false)` stays more urgent than
    /// `child(true)`, and both are less urgent than `self`.
    ///
    /// ```
    /// use converse_msg::BitVecPrio;
    /// let root = BitVecPrio::root();
    /// let left = root.child(false);
    /// let right = root.child(true);
    /// assert!(root < left && left < right);
    /// assert!(left.child(true) < right, "whole left subtree precedes right");
    /// ```
    pub fn child(&self, bit: bool) -> Self {
        let mut out = self.clone();
        let n = out.len();
        if n.is_multiple_of(32) {
            out.raw.push(0);
        }
        out.raw[0] = (n + 1) as u32;
        if bit {
            out.raw[1 + n / 32] |= 1 << (31 - (n % 32));
        }
        out
    }

    /// Append `width` bits encoding `value` (MSB-first), the generalized
    /// form of [`BitVecPrio::child`] for k-ary trees.
    pub fn child_n(&self, value: u32, width: u32) -> Self {
        assert!(width <= 32, "width {width} exceeds 32");
        let mut out = self.clone();
        for i in (0..width).rev() {
            out = out.child(value & (1 << i) != 0);
        }
        out
    }

    fn mask_tail(&mut self) {
        let n = self.len();
        let tail = n % 32;
        if tail != 0 {
            if let Some(last) = self.raw.last_mut() {
                *last &= !0u32 << (32 - tail);
            }
        }
    }
}

impl Ord for BitVecPrio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Word-wise lexicographic compare over the shared prefix; the
        // MSB-first packing makes u32 comparison equal bit-lexicographic
        // comparison. Tail words are zero-masked at construction so a
        // partial final word compares correctly.
        let a = &self.raw[1..];
        let b = &other.raw[1..];
        for i in 0..a.len().min(b.len()) {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        // One is a word-prefix of the other; compare remaining words of
        // the longer against zero, then fall back to bit length: shorter
        // (prefix) is more urgent.
        if a.len() > b.len() && a[b.len()..].iter().any(|&w| w != 0) {
            return Ordering::Greater;
        }
        if b.len() > a.len() && b[a.len()..].iter().any(|&w| w != 0) {
            return Ordering::Less;
        }
        self.len().cmp(&other.len())
    }
}

impl PartialOrd for BitVecPrio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BitVecPrio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVecPrio(")?;
        for i in 0..self.len() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVecPrio {
        BitVecPrio::from_bits(&s.chars().map(|c| c == '1').collect::<Vec<_>>())
    }

    #[test]
    fn zero_before_one() {
        assert!(bv("0") < bv("1"));
        assert!(bv("00") < bv("01"));
        assert!(bv("011") < bv("100"));
    }

    #[test]
    fn prefix_is_more_urgent() {
        assert!(bv("0") < bv("00"));
        assert!(bv("1") < bv("10"));
        assert!(BitVecPrio::root() < bv("0"));
    }

    #[test]
    fn prefix_vs_one_extension() {
        // "0" extended with a 1 bit is still after "0" but before "1".
        assert!(bv("0") < bv("01"));
        assert!(bv("01") < bv("1"));
    }

    #[test]
    fn child_ordering() {
        let p = bv("10");
        let c0 = p.child(false);
        let c1 = p.child(true);
        assert!(p < c0, "parent more urgent than child");
        assert!(c0 < c1, "0-child more urgent than 1-child");
        assert_eq!(c0, bv("100"));
        assert_eq!(c1, bv("101"));
    }

    #[test]
    fn child_n_matches_repeated_child() {
        let p = bv("1");
        assert_eq!(p.child_n(0b101, 3), p.child(true).child(false).child(true));
        assert_eq!(p.child_n(2, 2), bv("110"));
    }

    #[test]
    fn cross_word_compare() {
        // 40-bit vectors exercise the multi-word path.
        let a = bv(&("0".repeat(39) + "0"));
        let b = bv(&("0".repeat(39) + "1"));
        assert!(a < b);
        let c = bv(&"0".repeat(33));
        assert!(bv(&"0".repeat(32)) < c);
    }

    #[test]
    fn bit_accessor() {
        let p = bv("1010011");
        let expect = [true, false, true, false, false, true, true];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(p.bit(i), *e, "bit {i}");
        }
    }

    #[test]
    fn from_raw_masks_garbage_tail() {
        // 3 valid bits but a word with junk in the low positions.
        let a = BitVecPrio::from_raw(3, vec![0b1010_0000_0000_0000_0000_0000_0000_1111u32]);
        let b = bv("101");
        assert_eq!(a, b);
    }

    #[test]
    fn root_is_most_urgent() {
        let r = BitVecPrio::root();
        for s in ["0", "1", "0000", "1111", "01"] {
            assert!(r < bv(s), "root vs {s}");
        }
    }

    #[test]
    fn equal_compare() {
        assert_eq!(bv("0110").cmp(&bv("0110")), Ordering::Equal);
    }
}
