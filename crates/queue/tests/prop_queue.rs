//! Property tests: `CsdQueue` against a brute-force reference model.

use converse_msg::{BitVecPrio, HandlerId, Message, Priority};
use converse_queue::{CsdQueue, QueueingMode, SchedulingQueue};
use proptest::prelude::*;

/// Reference model entry: (class, key, seq) where class orders the zero
/// lane against the priority lane per the documented rules.
#[derive(Clone, Debug)]
struct ModelEntry {
    /// Unified priority as a bool-vector (lexicographic Ord matches
    /// BitVecPrio by the msg crate's own property tests).
    key: Vec<bool>,
    /// True if it entered the zero lane (Fifo/Lifo mode).
    zero_lane: bool,
    seq: i64,
    tag: u32,
}

fn int_bits(i: i32) -> Vec<bool> {
    let w = (i as u32) ^ 0x8000_0000;
    (0..32).map(|b| w & (1 << (31 - b)) != 0).collect()
}

fn model_pop(model: &mut Vec<ModelEntry>) -> Option<u32> {
    if model.is_empty() {
        return None;
    }
    let zero_key = int_bits(0);
    // Best priority-lane entry.
    let best_prio = model
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.zero_lane)
        .min_by(|(_, a), (_, b)| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)))
        .map(|(i, e)| (i, e.key.clone()));
    // Front of zero lane (smallest seq; Lifo inserts negative seqs).
    let zero_front = model
        .iter()
        .enumerate()
        .filter(|(_, e)| e.zero_lane)
        .min_by_key(|(_, e)| e.seq)
        .map(|(i, _)| i);
    let idx = match (best_prio, zero_front) {
        (Some((pi, pk)), Some(zi)) => {
            if pk < zero_key {
                pi
            } else {
                zi
            }
        }
        (Some((pi, _)), None) => pi,
        (None, Some(zi)) => zi,
        (None, None) => return None,
    };
    Some(model.remove(idx).tag)
}

#[derive(Clone, Debug)]
enum Op {
    EnqFifo,
    EnqLifo,
    EnqPrioInt(i32, bool),
    EnqPrioBits(Vec<bool>, bool),
    Deq,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::EnqFifo),
        Just(Op::EnqLifo),
        (any::<i32>(), any::<bool>()).prop_map(|(i, f)| Op::EnqPrioInt(i, f)),
        (
            proptest::collection::vec(any::<bool>(), 0..40),
            any::<bool>()
        )
            .prop_map(|(b, f)| Op::EnqPrioBits(b, f)),
        Just(Op::Deq),
        Just(Op::Deq),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of enqueues (all modes and priority kinds)
    /// and dequeues produce exactly the order the reference model says.
    #[test]
    fn csd_matches_model(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let mut q = CsdQueue::new();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut tag = 0u32;
        let mut fifo_seq = 0i64;
        let mut lifo_seq = 0i64;
        let mut prio_seq = 0i64;

        for op in ops {
            match op {
                Op::EnqFifo => {
                    let m = Message::new(HandlerId(0), &tag.to_le_bytes());
                    q.enqueue(m, QueueingMode::Fifo);
                    fifo_seq += 1;
                    model.push(ModelEntry { key: int_bits(0), zero_lane: true, seq: fifo_seq, tag });
                    tag += 1;
                }
                Op::EnqLifo => {
                    let m = Message::new(HandlerId(0), &tag.to_le_bytes());
                    q.enqueue(m, QueueingMode::Lifo);
                    lifo_seq -= 1;
                    model.push(ModelEntry { key: int_bits(0), zero_lane: true, seq: lifo_seq, tag });
                    tag += 1;
                }
                Op::EnqPrioInt(i, fifo) => {
                    let m = Message::with_priority(HandlerId(0), &Priority::Int(i), &tag.to_le_bytes());
                    let mode = if fifo { QueueingMode::PrioFifo } else { QueueingMode::PrioLifo };
                    q.enqueue(m, mode);
                    prio_seq += 1;
                    let seq = if fifo { prio_seq } else { -prio_seq };
                    model.push(ModelEntry { key: int_bits(i), zero_lane: false, seq, tag });
                    tag += 1;
                }
                Op::EnqPrioBits(bits, fifo) => {
                    let bv = BitVecPrio::from_bits(&bits);
                    let m = Message::with_priority(HandlerId(0), &Priority::BitVec(bv), &tag.to_le_bytes());
                    let mode = if fifo { QueueingMode::PrioFifo } else { QueueingMode::PrioLifo };
                    q.enqueue(m, mode);
                    prio_seq += 1;
                    let seq = if fifo { prio_seq } else { -prio_seq };
                    model.push(ModelEntry { key: bits, zero_lane: false, seq, tag });
                    tag += 1;
                }
                Op::Deq => {
                    let got = q.dequeue().map(|m| {
                        u32::from_le_bytes(m.payload().try_into().unwrap())
                    });
                    let want = model_pop(&mut model);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        // Drain and compare the tails.
        loop {
            let got = q.dequeue().map(|m| u32::from_le_bytes(m.payload().try_into().unwrap()));
            let want = model_pop(&mut model);
            prop_assert_eq!(got, want);
            if got.is_none() { break; }
        }
    }
}
