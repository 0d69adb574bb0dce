//! Tables keyed by runtime-assigned ids.
//!
//! Chare slots and group ids are small integers the runtime handed out
//! itself, so a table of them needs neither SipHash's protection against
//! chosen keys nor its cost on a per-message lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hasher for one `u64` id: sequential ids
/// spread over both the bucket index (low bits) and the control byte
/// (high bits) of the standard table.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("ids hash via write_u64")
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` from runtime-assigned `u64` ids.
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_group_style_ids_round_trip() {
        let mut m: IdMap<u64> = IdMap::default();
        let ids = (1..2_000u64).chain((1..2_000).map(|seq| (3 << 40) | seq));
        for id in ids.clone() {
            assert!(m.insert(id, !id).is_none());
        }
        for id in ids {
            assert_eq!(m.remove(&id), Some(!id));
        }
        assert!(m.is_empty());
    }
}
