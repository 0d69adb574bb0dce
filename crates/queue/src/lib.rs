//! Pluggable scheduler queueing strategies (paper §2.3, §3.1.2).
//!
//! "The scheduler's queue is implemented as a separate module so that the
//! user can plug in different queuing strategies." This crate is that
//! module. It provides:
//!
//! * [`SchedulingQueue`] — the interface the scheduler programs against;
//! * [`CsdQueue`] — its one implementation, with the same structure as
//!   Converse's `Cqs`: an O(1) "zero" lane for unprioritized entries and
//!   a priority lane ordering integer and bit-vector priorities in one
//!   unified total order (integers are embedded as 32-bit offset-binary
//!   vectors, exactly how Converse unifies the two domains). A language
//!   that never prioritizes touches only the zero lane, a `VecDeque`,
//!   which honours the paper's *need-based cost* guideline (§3,
//!   guideline 2).
//!
//! Queueing modes mirror `CQS_QUEUEING_{FIFO,LIFO,IFIFO,ILIFO,BFIFO,BLIFO}`:
//! [`QueueingMode::Fifo`]/[`QueueingMode::Lifo`] ignore the message's
//! priority; the `Prio*` modes order by it, breaking ties FIFO or LIFO.

use converse_msg::{Message, PrioWords};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// How a message enters the scheduler queue (`CsdEnqueueGeneral`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueingMode {
    /// Unprioritized, first-in first-out (`CQS_QUEUEING_FIFO`).
    #[default]
    Fifo,
    /// Unprioritized, last-in first-out (`CQS_QUEUEING_LIFO`).
    Lifo,
    /// By the message's priority, FIFO among equal priorities
    /// (`CQS_QUEUEING_IFIFO` / `BFIFO`).
    PrioFifo,
    /// By the message's priority, LIFO among equal priorities
    /// (`CQS_QUEUEING_ILIFO` / `BLIFO`).
    PrioLifo,
}

/// Interface between the scheduler and its queue module.
pub trait SchedulingQueue: Send {
    /// Insert a message under the given mode.
    fn enqueue(&mut self, msg: Message, mode: QueueingMode);
    /// Remove the next message to run, or `None` when empty.
    fn dequeue(&mut self) -> Option<Message>;
    /// Number of queued messages.
    fn len(&self) -> usize;
    /// True when no messages are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bits of the unified key cached in a [`PrioEntry`]: the first two
/// bit words.
const PREFIX_BITS: u32 = 64;

/// Cached prefix of integer priority `i`'s unified key.
///
/// Every priority becomes a bit vector; smaller compares first. Integer
/// `i` maps to the 32-bit offset-binary word `i ^ i32::MIN`, which makes
/// unsigned lexicographic comparison agree with signed integer order —
/// the same embedding real Converse uses to mix `IFIFO` and `BFIFO`
/// entries in one queue.
const fn int_prefix(i: i32) -> u64 {
    ((i as u32 ^ 0x8000_0000) as u64) << 32
}

/// Prefix of the key unprioritized work competes under: integer 0.
const ZERO_PREFIX: u64 = int_prefix(0);

/// A priority-lane entry. The unified key is the bit string of `nbits`
/// bits whose first [`PREFIX_BITS`] are cached in `prefix`, zero-padded;
/// anything longer stays in the queued message's own priority area and
/// is read from there only when two prefixes tie. Keys order by their
/// zero-padded words, then by length: a prefix is more urgent than its
/// extensions.
struct PrioEntry {
    prefix: u64,
    nbits: u32,
    /// Tie-break: ascending for FIFO; for LIFO the sequence is negated at
    /// insertion so later entries win among equal keys.
    seq: i64,
    msg: Message,
}

impl PrioEntry {
    fn new(msg: Message, seq: i64) -> PrioEntry {
        let (prefix, nbits) = match msg.priority_words() {
            PrioWords::None => (ZERO_PREFIX, 32),
            PrioWords::Int(i) => (int_prefix(i), 32),
            PrioWords::BitVec { nbits, mut words } => {
                let hi = words.next().unwrap_or(0) as u64;
                let lo = words.next().unwrap_or(0) as u64;
                (hi << 32 | lo, nbits)
            }
        };
        PrioEntry {
            prefix,
            nbits,
            seq,
            msg,
        }
    }

    /// The key's bit words past the cached prefix; empty unless the key
    /// is a bit vector longer than [`PREFIX_BITS`].
    fn tail_words(&self) -> impl Iterator<Item = u32> + '_ {
        let words = match self.msg.priority_words() {
            PrioWords::BitVec { words, .. } if self.nbits > PREFIX_BITS => Some(words.skip(2)),
            _ => None,
        };
        words.into_iter().flatten()
    }

    /// Order of the unified keys alone, smaller first.
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.prefix
            .cmp(&other.prefix)
            .then_with(|| {
                if self.nbits.max(other.nbits) <= PREFIX_BITS {
                    return Ordering::Equal;
                }
                // Zero-padded lexicographic compare, written out: an
                // iterator chain or an out-of-line call here cost the
                // integer path (which never reaches this) 3–4 ns per
                // enqueue/dequeue pair in `queue.prio_ns`.
                let (mut a, mut b) = (self.tail_words(), other.tail_words());
                loop {
                    match (a.next(), b.next()) {
                        (None, None) => return Ordering::Equal,
                        (x, y) => match x.unwrap_or(0).cmp(&y.unwrap_or(0)) {
                            Ordering::Equal => {}
                            ord => return ord,
                        },
                    }
                }
            })
            .then_with(|| self.nbits.cmp(&other.nbits))
    }

    /// True when the key is strictly more urgent than integer 0, the
    /// key of the zero lane.
    fn beats_zero_lane(&self) -> bool {
        // On a prefix tie every further word is zero on both sides, so
        // only the length is left to compare.
        self.prefix < ZERO_PREFIX || (self.prefix == ZERO_PREFIX && self.nbits < 32)
    }
}

impl PartialEq for PrioEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PrioEntry {}

impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest (most urgent)
        // key pops first.
        other.cmp_key(self).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Occupancy statistics, mainly for the load balancer and benches.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Total messages ever enqueued.
    pub enqueued: u64,
    /// Total messages ever dequeued.
    pub dequeued: u64,
    /// Peak simultaneous occupancy.
    pub peak_len: usize,
}

/// The full Converse scheduler queue (`Cqs`).
///
/// Two lanes:
/// * **zero lane** — unprioritized entries ([`QueueingMode::Fifo`] /
///   [`QueueingMode::Lifo`]), a deque with O(1) operations;
/// * **priority lane** — a binary heap over the unified key.
///
/// Dequeue order: priority entries more urgent than integer‑0 run first;
/// then the zero lane; then the remaining priority entries. This matches
/// Converse, where unprioritized work is "priority zero" and drains ahead
/// of equal-priority (and all lower-priority) prioritized work.
///
/// ```
/// use converse_msg::{Message, HandlerId, Priority};
/// use converse_queue::{CsdQueue, QueueingMode, SchedulingQueue};
///
/// let mut q = CsdQueue::new();
/// q.enqueue(Message::new(HandlerId(0), b"plain"), QueueingMode::Fifo);
/// let urgent = Message::with_priority(HandlerId(0), &Priority::Int(-1), b"urgent");
/// q.enqueue(urgent, QueueingMode::PrioFifo);
///
/// assert_eq!(q.dequeue().unwrap().payload(), b"urgent");
/// assert_eq!(q.dequeue().unwrap().payload(), b"plain");
/// assert!(q.dequeue().is_none());
/// ```
#[derive(Default)]
pub struct CsdQueue {
    zero: VecDeque<Message>,
    prio: BinaryHeap<PrioEntry>,
    seq: i64,
    stats: QueueStats,
}

impl CsdQueue {
    /// New empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupancy statistics snapshot.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl SchedulingQueue for CsdQueue {
    fn enqueue(&mut self, msg: Message, mode: QueueingMode) {
        self.stats.enqueued += 1;
        match mode {
            QueueingMode::Fifo => self.zero.push_back(msg),
            QueueingMode::Lifo => self.zero.push_front(msg),
            QueueingMode::PrioFifo | QueueingMode::PrioLifo => {
                self.seq += 1;
                let seq = if mode == QueueingMode::PrioFifo {
                    self.seq
                } else {
                    -self.seq
                };
                self.prio.push(PrioEntry::new(msg, seq));
            }
        }
        let len = self.len();
        if len > self.stats.peak_len {
            self.stats.peak_len = len;
        }
    }

    fn dequeue(&mut self) -> Option<Message> {
        let take_prio = match self.prio.peek() {
            None => false,
            Some(top) => {
                // Prioritized work strictly more urgent than "zero" wins;
                // otherwise the zero lane drains first.
                top.beats_zero_lane() || self.zero.is_empty()
            }
        };
        let out = if take_prio {
            self.prio.pop().map(|e| e.msg)
        } else {
            self.zero.pop_front()
        };
        if out.is_some() {
            self.stats.dequeued += 1;
        }
        out
    }

    fn len(&self) -> usize {
        self.zero.len() + self.prio.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converse_msg::{BitVecPrio, HandlerId, Priority};
    use proptest::prelude::*;

    fn msg(tag: u8) -> Message {
        Message::new(HandlerId(0), &[tag])
    }

    fn pmsg(tag: u8, p: Priority) -> Message {
        Message::with_priority(HandlerId(0), &p, &[tag])
    }

    fn drain(q: &mut impl SchedulingQueue) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(m) = q.dequeue() {
            out.push(m.payload()[0]);
        }
        out
    }

    #[test]
    fn csd_zero_lane_fifo() {
        let mut q = CsdQueue::new();
        for t in 0..4 {
            q.enqueue(msg(t), QueueingMode::Fifo);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn csd_int_priorities_smaller_first() {
        let mut q = CsdQueue::new();
        q.enqueue(pmsg(1, Priority::Int(5)), QueueingMode::PrioFifo);
        q.enqueue(pmsg(2, Priority::Int(-3)), QueueingMode::PrioFifo);
        q.enqueue(pmsg(3, Priority::Int(0)), QueueingMode::PrioFifo);
        assert_eq!(drain(&mut q), vec![2, 3, 1]);
    }

    #[test]
    fn csd_negative_prio_beats_zero_lane() {
        let mut q = CsdQueue::new();
        q.enqueue(msg(1), QueueingMode::Fifo);
        q.enqueue(pmsg(2, Priority::Int(-1)), QueueingMode::PrioFifo);
        q.enqueue(pmsg(3, Priority::Int(1)), QueueingMode::PrioFifo);
        assert_eq!(drain(&mut q), vec![2, 1, 3]);
    }

    #[test]
    fn csd_zero_lane_beats_equal_prio_zero() {
        let mut q = CsdQueue::new();
        q.enqueue(pmsg(1, Priority::Int(0)), QueueingMode::PrioFifo);
        q.enqueue(msg(2), QueueingMode::Fifo);
        assert_eq!(drain(&mut q), vec![2, 1]);
    }

    #[test]
    fn csd_fifo_tiebreak_within_priority() {
        let mut q = CsdQueue::new();
        for t in 0..4 {
            q.enqueue(pmsg(t, Priority::Int(7)), QueueingMode::PrioFifo);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn csd_lifo_tiebreak_within_priority() {
        let mut q = CsdQueue::new();
        for t in 0..4 {
            q.enqueue(pmsg(t, Priority::Int(7)), QueueingMode::PrioLifo);
        }
        assert_eq!(drain(&mut q), vec![3, 2, 1, 0]);
    }

    #[test]
    fn csd_bitvec_and_int_unified() {
        // int -1 → key 0x7FFF_FFFF; bitvec "0" = one 0 bit, more urgent
        // than anything starting with a 1 bit and than 0x7FFF… ints;
        // bitvec "1" ties with int 0 on the first bit but is shorter,
        // hence more urgent than int 0.
        let mut q = CsdQueue::new();
        q.enqueue(pmsg(1, Priority::Int(-1)), QueueingMode::PrioFifo);
        q.enqueue(
            pmsg(2, Priority::BitVec(BitVecPrio::from_bits(&[false]))),
            QueueingMode::PrioFifo,
        );
        q.enqueue(pmsg(3, Priority::Int(0)), QueueingMode::PrioFifo);
        q.enqueue(
            pmsg(4, Priority::BitVec(BitVecPrio::from_bits(&[true]))),
            QueueingMode::PrioFifo,
        );
        assert_eq!(drain(&mut q), vec![2, 1, 4, 3]);
    }

    #[test]
    fn csd_lifo_zero_lane() {
        let mut q = CsdQueue::new();
        q.enqueue(msg(1), QueueingMode::Lifo);
        q.enqueue(msg(2), QueueingMode::Lifo);
        q.enqueue(msg(3), QueueingMode::Lifo);
        assert_eq!(drain(&mut q), vec![3, 2, 1]);
    }

    #[test]
    fn csd_stats() {
        let mut q = CsdQueue::new();
        q.enqueue(msg(1), QueueingMode::Fifo);
        q.enqueue(pmsg(2, Priority::Int(1)), QueueingMode::PrioFifo);
        assert_eq!(q.stats().enqueued, 2);
        assert_eq!(q.stats().peak_len, 2);
        q.dequeue();
        assert_eq!(q.stats().dequeued, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_dequeue_is_none() {
        assert!(CsdQueue::new().dequeue().is_none());
    }

    #[test]
    fn csd_unprioritized_message_in_prio_mode_acts_as_zero() {
        // A message with Priority::None enqueued PrioFifo competes as
        // integer 0.
        let mut q = CsdQueue::new();
        q.enqueue(msg(1), QueueingMode::PrioFifo);
        q.enqueue(pmsg(2, Priority::Int(-1)), QueueingMode::PrioFifo);
        q.enqueue(pmsg(3, Priority::Int(1)), QueueingMode::PrioFifo);
        assert_eq!(drain(&mut q), vec![2, 1, 3]);
    }

    // ---- equivalence with the owned-key ordering ---------------------

    /// The key this queue ordered by before keys moved into the message:
    /// every priority as an owned [`BitVecPrio`], integers embedded as
    /// 32-bit offset-binary vectors. Kept as the reference the inline
    /// prefix and the in-message fallback must agree with.
    fn unified_key(p: &Priority) -> BitVecPrio {
        let int_key = |i: i32| BitVecPrio::from_raw(32, vec![(i as u32) ^ 0x8000_0000]);
        match p {
            Priority::None => int_key(0),
            Priority::Int(i) => int_key(*i),
            Priority::BitVec(bv) => bv.clone(),
        }
    }

    /// The old `CsdQueue`, by brute force over owned keys.
    #[derive(Default)]
    struct OwnedKeyQueue {
        zero: VecDeque<u32>,
        prio: Vec<(BitVecPrio, i64, u32)>,
        seq: i64,
    }

    impl OwnedKeyQueue {
        fn enqueue(&mut self, tag: u32, prio: &Priority, mode: QueueingMode) {
            match mode {
                QueueingMode::Fifo => self.zero.push_back(tag),
                QueueingMode::Lifo => self.zero.push_front(tag),
                QueueingMode::PrioFifo | QueueingMode::PrioLifo => {
                    self.seq += 1;
                    let seq = if mode == QueueingMode::PrioFifo {
                        self.seq
                    } else {
                        -self.seq
                    };
                    self.prio.push((unified_key(prio), seq, tag));
                }
            }
        }

        fn dequeue(&mut self) -> Option<u32> {
            let top = (0..self.prio.len())
                .min_by(|&a, &b| {
                    let (ka, sa, _) = &self.prio[a];
                    let (kb, sb, _) = &self.prio[b];
                    ka.cmp(kb).then(sa.cmp(sb))
                })
                .filter(|&i| self.prio[i].0 < unified_key(&Priority::None) || self.zero.is_empty());
            match top {
                Some(i) => Some(self.prio.swap_remove(i).2),
                None => self.zero.pop_front(),
            }
        }
    }

    /// Bit vectors around every boundary of the cached prefix: each of
    /// the named lengths, with a shared stem so that many pairs are
    /// prefixes of one another or differ only past the prefix.
    fn arb_bitvec() -> impl Strategy<Value = BitVecPrio> {
        (
            prop_oneof![
                Just(0usize),
                Just(31),
                Just(32),
                Just(33),
                Just(64),
                Just(65),
                Just(200),
                0usize..70
            ],
            // Where, counted from the end, one bit of the stem flips.
            prop_oneof![Just(None), (0usize..4).prop_map(Some)],
            any::<bool>(),
        )
            .prop_map(|(len, flip, ones)| {
                // The stem: all ones or the start of int 0's key, so
                // vectors also tie with the zero lane's prefix.
                let mut bits: Vec<bool> = (0..len).map(|i| ones || i == 0).collect();
                if let Some(back) = flip {
                    if back < len {
                        bits[len - 1 - back] ^= true;
                    }
                }
                BitVecPrio::from_bits(&bits)
            })
    }

    fn arb_priority() -> impl Strategy<Value = Priority> {
        prop_oneof![
            2 => Just(Priority::None),
            2 => prop_oneof![
                Just(i32::MIN),
                Just(i32::MAX),
                Just(0),
                Just(-1),
                Just(1),
                any::<i32>()
            ]
            .prop_map(Priority::Int),
            5 => arb_bitvec().prop_map(Priority::BitVec),
        ]
    }

    fn arb_mode() -> impl Strategy<Value = QueueingMode> {
        prop_oneof![
            1 => Just(QueueingMode::Fifo),
            1 => Just(QueueingMode::Lifo),
            4 => Just(QueueingMode::PrioFifo),
            4 => Just(QueueingMode::PrioLifo),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 512 }))]

        /// Dequeue order is what the owned-key queue produced, for mixed
        /// None/Int/BitVec entries under every mode, with dequeues
        /// interleaved (`None` in the op list).
        #[test]
        fn order_matches_owned_key_queue(
            ops in proptest::collection::vec(
                prop_oneof![
                    4 => (arb_priority(), arb_mode()).prop_map(Some),
                    1 => Just(None),
                ],
                0..80,
            )
        ) {
            let mut q = CsdQueue::new();
            let mut reference = OwnedKeyQueue::default();
            let tag_of = |m: Message| u32::from_le_bytes(m.payload().try_into().unwrap());
            for (tag, op) in ops.into_iter().enumerate() {
                let tag = tag as u32;
                match op {
                    Some((prio, mode)) => {
                        let m = Message::with_priority(HandlerId(0), &prio, &tag.to_le_bytes());
                        q.enqueue(m, mode);
                        reference.enqueue(tag, &prio, mode);
                    }
                    None => prop_assert_eq!(q.dequeue().map(tag_of), reference.dequeue()),
                }
            }
            loop {
                let (got, want) = (q.dequeue().map(tag_of), reference.dequeue());
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn int_extremes_against_the_zero_lane() {
        let mut q = CsdQueue::new();
        q.enqueue(pmsg(1, Priority::Int(i32::MAX)), QueueingMode::PrioFifo);
        q.enqueue(pmsg(2, Priority::Int(0)), QueueingMode::PrioFifo);
        q.enqueue(msg(3), QueueingMode::Fifo);
        q.enqueue(pmsg(4, Priority::Int(i32::MIN)), QueueingMode::PrioFifo);
        assert_eq!(drain(&mut q), vec![4, 3, 2, 1]);
    }

    #[test]
    fn long_bitvecs_order_past_the_cached_prefix() {
        let stem = vec![true; 64];
        let with = |extra: &[bool]| {
            let mut bits = stem.clone();
            bits.extend_from_slice(extra);
            Priority::BitVec(BitVecPrio::from_bits(&bits))
        };
        let mut q = CsdQueue::new();
        q.enqueue(pmsg(1, with(&[true])), QueueingMode::PrioFifo);
        q.enqueue(pmsg(2, with(&[false, true])), QueueingMode::PrioFifo);
        q.enqueue(pmsg(3, with(&[false])), QueueingMode::PrioFifo);
        q.enqueue(pmsg(4, with(&[])), QueueingMode::PrioFifo);
        // Prefix first, then 0-extensions before 1-extensions.
        assert_eq!(drain(&mut q), vec![4, 3, 2, 1]);
    }
}
