//! Property tests for the generalized-message codec and bit-vector
//! priority ordering invariants.

use converse_msg::{pool, BitVecPrio, HandlerId, Message, MsgBlock, Priority};
use proptest::prelude::*;

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::None),
        any::<i32>().prop_map(Priority::Int),
        proptest::collection::vec(any::<bool>(), 0..100)
            .prop_map(|bits| Priority::BitVec(BitVecPrio::from_bits(&bits))),
    ]
}

/// `payload` cut at each of `cuts` (taken modulo its length, so cuts
/// repeat and yield empty parts).
fn split_at_cuts<'a>(payload: &'a [u8], cuts: &[u16]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts
        .iter()
        .map(|&c| c as usize % (payload.len() + 1))
        .collect();
    at.sort_unstable();
    at.push(payload.len());
    let mut parts = Vec::with_capacity(at.len());
    let mut from = 0;
    for to in at {
        parts.push(&payload[from..to]);
        from = to;
    }
    parts
}

/// The module docs' layout, assembled by hand.
fn wire_bytes(handler: u32, prio: &Priority, payload: &[u8]) -> Vec<u8> {
    let (kind, words): (u8, Vec<u32>) = match prio {
        Priority::None => (0, vec![]),
        Priority::Int(v) => (1, vec![*v as u32]),
        Priority::BitVec(bv) => (2, bv.words().to_vec()),
    };
    let mut out = handler.to_le_bytes().to_vec();
    out.extend_from_slice(&[kind, words.len() as u8, 0, 0]);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// Past the pool's largest size class (64 KiB) a gathered message is an
/// exact one-off chunk; the bytes are the same.
#[test]
fn gather_past_the_largest_pool_class() {
    let payload: Vec<u8> = (0..70_000u32).map(|i| (i * 31) as u8).collect();
    let bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
    for prio in [
        Priority::None,
        Priority::Int(-5),
        Priority::BitVec(BitVecPrio::from_bits(&bits)),
    ] {
        let parts = split_at_cuts(&payload, &[0, 1, 4_096, 65_535, 65_535]);
        let g = Message::gather(HandlerId(3), &prio, &parts[..]);
        assert_eq!(g.as_bytes(), &wire_bytes(3, &prio, &payload)[..]);
        assert_eq!(g, Message::with_priority(HandlerId(3), &prio, &payload));
    }
}

proptest! {
    /// Encoding then decoding over the "wire" is the identity, for any
    /// handler, priority, and payload.
    #[test]
    fn wire_roundtrip(h in any::<u32>(), prio in arb_priority(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let m = Message::with_priority(HandlerId(h), &prio, &payload);
        prop_assert_eq!(m.handler(), HandlerId(h));
        prop_assert_eq!(m.priority(), prio.clone());
        prop_assert_eq!(m.payload(), &payload[..]);
        let back = Message::from_bytes(m.clone().into_bytes()).unwrap();
        prop_assert_eq!(back.handler(), HandlerId(h));
        prop_assert_eq!(back.priority(), prio);
        prop_assert_eq!(back.payload(), &payload[..]);
    }

    /// Decoding arbitrary bytes never panics — it either produces a
    /// structured error or a message in the one form `with_priority`
    /// writes, so every accessor is safe on it and readers of the
    /// priority area need not normalize.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128),
                           kind in 0u8..4, words in 0u8..4) {
        // Steer a share of the inputs past the first header checks.
        let mut bytes = bytes;
        if bytes.len() >= 8 && kind < 3 {
            bytes[4] = kind;
            bytes[5] = words;
        }
        if let Ok(m) = Message::from_bytes(&bytes) {
            let mut again = Message::with_priority(m.handler(), &m.priority(), m.payload());
            again.set_flags(m.flags());
            prop_assert_eq!(again.as_bytes(), &bytes[..]);
            prop_assert_eq!(m.has_priority(), m.priority() != Priority::None);
        }
    }

    /// `from_block` over any ≤ 256-byte block gives a message or an
    /// error, never a panic, and never allocates: a message keeps the
    /// block it was given, and the bytes of one it accepts are what
    /// `with_priority` writes for its fields.
    #[test]
    fn from_block_is_total_and_keeps_its_block(
        bytes in proptest::collection::vec(any::<u8>(), 0..=256),
        kind in 0u8..4, words in 0u8..12,
    ) {
        // Steer a share of the inputs past the header checks, bit-vector
        // priorities with a whole number of words included.
        let mut bytes = bytes;
        if bytes.len() >= 8 && kind < 3 {
            bytes[4] = kind;
            bytes[5] = words;
            if kind == 2 && words > 0 && bytes.len() >= 12 {
                bytes[8..12].copy_from_slice(&(32 * (words as u32 - 1)).to_le_bytes());
            }
        }
        let block = MsgBlock::copy_from(&bytes);
        let at = block.as_ptr();
        let takes = pool::stats().takes();
        let decoded = Message::from_block(block);
        prop_assert_eq!(pool::stats().takes(), takes);
        if let Ok(m) = decoded {
            let mut again = Message::with_priority(m.handler(), &m.priority(), m.payload());
            again.set_flags(m.flags());
            prop_assert_eq!(again.as_bytes(), &bytes[..]);
            prop_assert_eq!(m.into_block().as_ptr(), at);
        }
    }

    /// `gather` over any split of a payload into parts — empty parts
    /// included — writes the bytes `with_priority` writes for the
    /// concatenation, which are the documented wire layout.
    #[test]
    fn gather_equals_with_priority_of_the_concatenation(
        h in any::<u32>(),
        prio in arb_priority(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let parts = split_at_cuts(&payload, &cuts);
        let g = Message::gather(HandlerId(h), &prio, &parts[..]);
        prop_assert_eq!(&g, &Message::with_priority(HandlerId(h), &prio, &payload));
        prop_assert_eq!(g.as_bytes(), &wire_bytes(h, &prio, &payload)[..]);
        // A chain of parts — how a runtime prepends its own header.
        let chained = Message::gather(
            HandlerId(h),
            &prio,
            std::iter::once(&b""[..]).chain(parts.iter().copied()),
        );
        prop_assert_eq!(chained, g);
    }

    /// Bit-vector ordering equals lexicographic ordering of the bit
    /// strings with the prefix-is-more-urgent rule — i.e. exactly the
    /// ordering of the `Vec<bool>` under Rust's built-in lexicographic
    /// `Ord` (where a prefix also sorts first and false < true).
    #[test]
    fn bitvec_matches_model(a in proptest::collection::vec(any::<bool>(), 0..100),
                            b in proptest::collection::vec(any::<bool>(), 0..100)) {
        let pa = BitVecPrio::from_bits(&a);
        let pb = BitVecPrio::from_bits(&b);
        prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
    }

    /// Ordering is total and antisymmetric on distinct vectors.
    #[test]
    fn bitvec_total_order(a in proptest::collection::vec(any::<bool>(), 0..80),
                          b in proptest::collection::vec(any::<bool>(), 0..80)) {
        let pa = BitVecPrio::from_bits(&a);
        let pb = BitVecPrio::from_bits(&b);
        if a == b {
            prop_assert_eq!(pa.cmp(&pb), std::cmp::Ordering::Equal);
        } else {
            prop_assert_ne!(pa.cmp(&pb), std::cmp::Ordering::Equal);
            prop_assert_eq!(pa.cmp(&pb), pb.cmp(&pa).reverse());
        }
    }

    /// Parent is always strictly more urgent than any descendant, and the
    /// 0-child precedes the 1-child.
    #[test]
    fn bitvec_child_invariants(bits in proptest::collection::vec(any::<bool>(), 0..70)) {
        let p = BitVecPrio::from_bits(&bits);
        let c0 = p.child(false);
        let c1 = p.child(true);
        prop_assert!(p < c0);
        prop_assert!(p < c1);
        prop_assert!(c0 < c1);
    }

    /// `child_n(v, w)` keeps numeric order of siblings: v1 < v2 implies
    /// child(v1) more urgent than child(v2).
    #[test]
    fn bitvec_child_n_order(bits in proptest::collection::vec(any::<bool>(), 0..40),
                            v1 in 0u32..256, v2 in 0u32..256) {
        let p = BitVecPrio::from_bits(&bits);
        let c1 = p.child_n(v1, 8);
        let c2 = p.child_n(v2, 8);
        prop_assert_eq!(c1.cmp(&c2), v1.cmp(&v2));
    }
}
