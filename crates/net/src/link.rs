//! The link protocol: the seq / ack / retransmit / dedup / supersede
//! sublayer of one directed link, written once and **sans-IO**.
//!
//! A [`Sender`] and a [`Receiver`] are the two ends of a link
//! `src → dst`. Between them they own every sequence number, every
//! buffer (retransmit slots, fault-delayed copies in limbo, the
//! out-of-order window), every fault-plane draw, the backoff and every
//! counter. They own no thread, clock, lock or socket: each call takes
//! `now` as an argument and *tells the caller* what to do — the same
//! inputs give the same outputs, so a schedule that fails can be
//! replayed as a script (`tests/prop_link.rs`).
//!
//! * **Input** — [`Sender::send`] (a block to carry), [`Receiver::on_data`]
//!   (a copy came off the wire), [`Sender::on_ack`] (the receiver's
//!   answer), [`Sender::tick`] (time passed).
//! * **Output** — copies to put on the wire now ([`Sent::copies`],
//!   [`WireCopy`]), blocks to hand upward in order (the `deliver`
//!   callback), an [`Ack`] to convey back, fault events to trace (the
//!   `trace` callback). Copies the fault plane delays stay inside the
//!   sender until a tick finds them due.
//! * **Side effects** — the caller's [`FaultCounters`] advance; nothing
//!   else outside the half changes.
//! * **Job** — mask a [`FaultPlan`]'s drops, duplicates and delays
//!   according to the channel's [`Delivery`] policy: exactly-once
//!   (buffer until acked, reassemble in order), at-most-once (one
//!   attempt, a monotonic floor, no sender state) or latest-value-wins
//!   (one unacked value, a newer one supersedes it).
//!
//! Two drivers exist. `Interconnect` keeps both halves of a link under
//! one mutex: "the wire" is a call to the receiver half and "an ack" a
//! call back into the sender half under the same lock.
//! `converse_wire::WireEndpoint` keeps the sender halves of its
//! outgoing links and the receiver halves of its incoming ones: the
//! wire is a DATA frame, an ack an ACK frame. Each runs a pump thread
//! that sleeps one [`FaultPlan::tick`] and calls [`Sender::tick`];
//! whether a closing machine keeps ticking is the driver's decision.

use crate::fault::{
    link_draw, unit, FaultPlan, FaultStats, LinkFaults, SALT_DELAY, SALT_DELAY_SLOTS, SALT_DROP,
    SALT_DUP, SALT_REORDER,
};
use crate::qos::{Channel, Delivery};
use converse_msg::MsgBlock;
use converse_trace::FaultKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Live fault-plane and reliability counters of one machine (or one
/// rank's view of it): the halves advance them, [`Self::snapshot`]
/// reads them.
#[derive(Default)]
pub struct FaultCounters {
    pub(crate) transmissions: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) delayed: AtomicU64,
    pub(crate) retransmitted: AtomicU64,
    pub(crate) dedup_dropped: AtomicU64,
    pub(crate) superseded: AtomicU64,
}

impl FaultCounters {
    /// The counters as they stand.
    pub fn snapshot(&self) -> FaultStats {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FaultStats {
            transmissions: read(&self.transmissions),
            dropped: read(&self.dropped),
            duplicated: read(&self.duplicated),
            delayed: read(&self.delayed),
            retransmitted: read(&self.retransmitted),
            dedup_dropped: read(&self.dedup_dropped),
            superseded: read(&self.superseded),
        }
    }
}

#[inline]
fn count(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

/// The reorder-mode position draw for the `arrival`-th mailbox delivery
/// on link `src → dst` (the delivery-mode scramble shares the link's
/// decision stream, not the protocol's state).
#[inline]
pub(crate) fn reorder_draw(seed: u64, src: usize, dst: usize, arrival: u64) -> u64 {
    link_draw(seed, src, dst, arrival, 0, SALT_REORDER)
}

/// What [`Sender::send`] decided: the sequence number stamped on the
/// block and how many copies of it go on the wire now (0 when the
/// fault plane dropped or delayed them all, 2 when it duplicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Per-(link, channel) sequence number; 0 on the unsequenced clean
    /// wire (see `Packet::seq`).
    pub seq: u64,
    /// Copies to put on the wire now.
    pub copies: u32,
}

/// One copy [`Sender::tick`] wants on the wire now: a limbo release or
/// a retransmission.
pub struct WireCopy {
    /// The channel (id + guarantee) the copy travels on.
    pub channel: Channel,
    /// Its sequence number.
    pub seq: u64,
    /// The block (shared with the retransmit slot, never copied).
    pub block: MsgBlock,
}

/// The receiver's answer to one arrival: `selective` is the seq that
/// just arrived (stop retransmitting it even behind a gap), everything
/// below `cumulative` has been handed upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The arrived seq.
    pub selective: u64,
    /// The receiver's next expected seq.
    pub cumulative: u64,
}

/// Per-channel state of a half: channel 0 inline so the default
/// channel never touches the map, the rest created on first use.
struct Chans<T> {
    zero: T,
    extra: BTreeMap<u32, T>,
}

impl<T> Chans<T> {
    fn new(zero: T) -> Chans<T> {
        Chans {
            zero,
            extra: BTreeMap::new(),
        }
    }

    fn entry(&mut self, id: u32, new: impl FnOnce() -> T) -> &mut T {
        if id == 0 {
            &mut self.zero
        } else {
            self.extra.entry(id).or_insert_with(new)
        }
    }

    /// Existing state only: an ack never materializes a channel.
    fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        if id == 0 {
            Some(&mut self.zero)
        } else {
            self.extra.get_mut(&id)
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        std::iter::once(&self.zero).chain(self.extra.values())
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        std::iter::once(&mut self.zero).chain(self.extra.values_mut())
    }
}

/// A transmitted-but-unacknowledged block held for retransmission.
struct InFlight {
    block: MsgBlock,
    attempt: u32,
    due: Instant,
}

/// A fault-delayed copy waiting for its release slot.
struct Limbo {
    seq: u64,
    block: MsgBlock,
    due: Instant,
}

/// Sender state of one channel. Sequenced streams number from 1.
/// Exactly-once buffers every send in `unacked`; at-most-once keeps
/// nothing; latest-value-wins holds at most one entry.
struct TxChan {
    channel: Channel,
    next_seq: u64,
    unacked: BTreeMap<u64, InFlight>,
    limbo: Vec<Limbo>,
}

impl TxChan {
    fn new(channel: Channel) -> TxChan {
        TxChan {
            channel,
            next_seq: 1,
            unacked: BTreeMap::new(),
            limbo: Vec::new(),
        }
    }

    fn stamp(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// The faulty wire of one link and the timers that mask it, resolved
/// from the plan once.
struct Wire {
    seed: u64,
    src: usize,
    dst: usize,
    faults: LinkFaults,
    rto: Duration,
    rto_cap: Duration,
    tick: Duration,
}

impl Wire {
    /// One attempt to push `seq` across: dropped, duplicated, or (per
    /// copy) delayed into `limbo`. Returns the copies that go out now.
    /// Draws are salted by channel id, so every channel sees its own
    /// decision stream and channel 0's is the pre-QoS one.
    #[allow(clippy::too_many_arguments)] // one fault-plane question each
    fn attempt(
        &self,
        chan: u32,
        seq: u64,
        attempt: u32,
        now: Instant,
        flush: bool,
        block: &MsgBlock,
        limbo: &mut Vec<Limbo>,
        stats: &FaultCounters,
        trace: &mut impl FnMut(FaultKind, u64),
    ) -> u32 {
        let f = &self.faults;
        let co = chan as u64 * 4096;
        let draw = |salt: u64| link_draw(self.seed, self.src, self.dst, seq, attempt, salt + co);
        count(&stats.transmissions, 1);
        if f.drop > 0.0 && unit(draw(SALT_DROP)) < f.drop {
            count(&stats.dropped, 1);
            trace(FaultKind::Drop, seq);
            return 0;
        }
        let copies = if f.dup > 0.0 && unit(draw(SALT_DUP)) < f.dup {
            count(&stats.transmissions, 1);
            count(&stats.duplicated, 1);
            trace(FaultKind::Duplicate, seq);
            2
        } else {
            1
        };
        let mut now_copies = 0;
        for copy in 0..copies {
            // Distinct decision streams per copy: shift the salt space.
            let delayed = !flush
                && f.delay > 0.0
                && f.max_delay_slots > 0
                && unit(draw(SALT_DELAY + copy * 16)) < f.delay;
            if delayed {
                let slots = 1 + (draw(SALT_DELAY_SLOTS + copy * 16) as usize % f.max_delay_slots);
                count(&stats.delayed, 1);
                trace(FaultKind::Delay, seq);
                limbo.push(Limbo {
                    seq,
                    block: block.share(),
                    due: now + self.tick * slots as u32,
                });
            } else {
                now_copies += 1;
            }
        }
        now_copies
    }
}

/// The sending half of one directed link.
pub struct Sender {
    /// `None` on a clean wire: nothing to mask, only
    /// latest-value-wins channels are stamped.
    wire: Option<Wire>,
    chans: Chans<TxChan>,
}

impl Sender {
    /// The sender of link `src → dst` under `plan` (`None`: clean wire).
    pub fn new(src: usize, dst: usize, plan: Option<&FaultPlan>) -> Sender {
        Sender {
            wire: plan.map(|p| Wire {
                seed: p.seed,
                src,
                dst,
                faults: p.faults_for(src, dst),
                rto: p.rto,
                rto_cap: p.rto_cap,
                tick: p.tick,
            }),
            chans: Chans::new(TxChan::new(Channel::DEFAULT)),
        }
    }

    /// Take the next sequence number of `channel` and nothing else —
    /// all a clean wire does, and only for latest-value-wins channels,
    /// whose supersede scan keys on the seq.
    #[inline]
    pub fn stamp(&mut self, channel: Channel) -> u64 {
        self.chans
            .entry(channel.id, || TxChan::new(channel))
            .stamp()
    }

    /// Stamp `block`, buffer it as `channel`'s guarantee asks, and make
    /// the first attempt across the faulty wire. `flush` (the machine
    /// is closing) holds no copy back in limbo.
    pub fn send(
        &mut self,
        now: Instant,
        flush: bool,
        channel: Channel,
        block: &MsgBlock,
        stats: &FaultCounters,
        mut trace: impl FnMut(FaultKind, u64),
    ) -> Sent {
        let Some(wire) = &self.wire else {
            let lvw = channel.delivery == Delivery::LatestValueWins;
            return Sent {
                seq: if lvw { self.stamp(channel) } else { 0 },
                copies: 1,
            };
        };
        let chan = self.chans.entry(channel.id, || TxChan::new(channel));
        let seq = chan.stamp();
        if channel.delivery == Delivery::LatestValueWins {
            // Supersede everything older still in the sender's hands:
            // at most one value per channel is ever in flight.
            let purged = (chan.unacked.len() + chan.limbo.len()) as u64;
            chan.unacked.clear();
            chan.limbo.clear();
            if purged > 0 {
                count(&stats.superseded, purged);
                trace(FaultKind::Supersede, seq);
            }
        }
        // At-most-once gets this one attempt and nothing else: no
        // retransmit slot, no acks, no sender state.
        if channel.delivery != Delivery::AtMostOnce {
            chan.unacked.insert(
                seq,
                InFlight {
                    block: block.share(),
                    attempt: 1,
                    due: now + wire.rto,
                },
            );
        }
        let copies = wire.attempt(
            channel.id,
            seq,
            1,
            now,
            flush,
            block,
            &mut chan.limbo,
            stats,
            &mut trace,
        );
        Sent { seq, copies }
    }

    /// The receiver's answer came back: `selective` and everything
    /// below `cumulative` leave the retransmit slots — and limbo, a
    /// delivered seq has no use for its delayed copies. An ack for a
    /// channel with no sender state is a no-op.
    pub fn on_ack(&mut self, channel: u32, ack: Ack) {
        if let Some(chan) = self.chans.get_mut(channel) {
            chan.unacked.remove(&ack.selective);
            while chan
                .unacked
                .first_key_value()
                .is_some_and(|(s, _)| *s < ack.cumulative)
            {
                chan.unacked.pop_first();
            }
            chan.limbo
                .retain(|l| l.seq >= ack.cumulative && l.seq != ack.selective);
        }
    }

    /// Time passed. Per busy channel: release limbo copies that are due
    /// (all of them under `flush`) in sequence order, then retransmit
    /// every unacknowledged block whose timer ran out, with capped
    /// exponential backoff, through the fault plane again. What goes on
    /// the wire now is appended to `out`.
    pub fn tick(
        &mut self,
        now: Instant,
        flush: bool,
        stats: &FaultCounters,
        mut trace: impl FnMut(FaultKind, u64),
        out: &mut Vec<WireCopy>,
    ) {
        let Some(wire) = &self.wire else { return };
        for chan in self.chans.iter_mut() {
            if chan.limbo.is_empty() && chan.unacked.is_empty() {
                continue;
            }
            let channel = chan.channel;
            let released = out.len();
            let mut i = 0;
            while i < chan.limbo.len() {
                if flush || chan.limbo[i].due <= now {
                    let l = chan.limbo.swap_remove(i);
                    out.push(WireCopy {
                        channel,
                        seq: l.seq,
                        block: l.block,
                    });
                } else {
                    i += 1;
                }
            }
            out[released..].sort_by_key(|c| c.seq);
            for (&seq, inf) in chan.unacked.iter_mut() {
                if inf.due > now {
                    continue;
                }
                inf.attempt += 1;
                let backoff = wire.rto * (1u32 << (inf.attempt - 1).min(10));
                inf.due = now + backoff.min(wire.rto_cap);
                count(&stats.retransmitted, 1);
                trace(FaultKind::Retransmit, seq);
                let copies = wire.attempt(
                    channel.id,
                    seq,
                    inf.attempt,
                    now,
                    flush,
                    &inf.block,
                    &mut chan.limbo,
                    stats,
                    &mut trace,
                );
                for _ in 0..copies {
                    out.push(WireCopy {
                        channel,
                        seq,
                        block: inf.block.share(),
                    });
                }
            }
        }
    }

    /// True when nothing is buffered: every send is acknowledged (or
    /// needed no ack) and limbo is empty.
    pub fn is_idle(&self) -> bool {
        self.chans
            .iter()
            .all(|c| c.unacked.is_empty() && c.limbo.is_empty())
    }
}

/// Receiver state of one channel: `expected` is the next seq to hand
/// upward (exactly-once) or the monotonic floor (at-most-once,
/// latest-value-wins); `ooo` holds what arrived ahead of it.
struct RxChan {
    expected: u64,
    ooo: BTreeMap<u64, MsgBlock>,
}

impl RxChan {
    fn new() -> RxChan {
        RxChan {
            expected: 1,
            ooo: BTreeMap::new(),
        }
    }
}

/// The receiving half of one directed link.
pub struct Receiver {
    chans: Chans<RxChan>,
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver {
            chans: Chans::new(RxChan::new()),
        }
    }
}

impl Receiver {
    /// One copy of `seq` came off the wire. Exactly-once: drop what was
    /// seen before, reassemble into sequence, `deliver` every block
    /// that is now in order. At-most-once / latest-value-wins: a
    /// monotonic floor — only a strictly newer seq is delivered, so
    /// nothing surfaces twice and a stale value never overtakes a newer
    /// one. Returns the ack to convey (duplicates are acked too: the
    /// retransmission that produced them still waits for one);
    /// at-most-once has no sender state to retire and acks nothing.
    ///
    /// `seq` is wire input. A sequenced stream numbers from 1 and the
    /// floor above a seq must be representable, so 0 and `u64::MAX`
    /// are malformed: counted as `dedup_dropped`, not acked.
    pub fn on_data(
        &mut self,
        channel: Channel,
        seq: u64,
        block: MsgBlock,
        stats: &FaultCounters,
        mut trace: impl FnMut(FaultKind, u64),
        mut deliver: impl FnMut(u64, MsgBlock),
    ) -> Option<Ack> {
        let above = seq.checked_add(1).filter(|_| seq != 0);
        let chan = self.chans.entry(channel.id, RxChan::new);
        let exactly_once = channel.delivery == Delivery::ExactlyOnce;
        let seen = seq < chan.expected || (exactly_once && chan.ooo.contains_key(&seq));
        match above {
            Some(above) if !seen => {
                if exactly_once && seq != chan.expected {
                    chan.ooo.insert(seq, block);
                } else {
                    chan.expected = above;
                    deliver(seq, block);
                    while let Some(next) = chan.ooo.remove(&chan.expected) {
                        deliver(chan.expected, next);
                        chan.expected += 1;
                    }
                }
            }
            _ => {
                count(&stats.dedup_dropped, 1);
                trace(FaultKind::DedupDrop, seq);
            }
        }
        (above.is_some() && channel.delivery != Delivery::AtMostOnce).then_some(Ack {
            selective: seq,
            cumulative: chan.expected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EO: Channel = Channel::DEFAULT;
    const AMO: Channel = Channel::new(7, Delivery::AtMostOnce);
    const LVW: Channel = Channel::new(9, Delivery::LatestValueWins);

    fn block(tag: u8) -> MsgBlock {
        MsgBlock::copy_from(&[tag])
    }

    /// Feed one arrival, return what was delivered and the ack.
    fn arrive(
        rx: &mut Receiver,
        channel: Channel,
        seq: u64,
        stats: &FaultCounters,
    ) -> (Vec<u64>, Option<Ack>) {
        let mut got = Vec::new();
        let ack = rx.on_data(channel, seq, block(0), stats, |_, _| {}, |s, _| got.push(s));
        (got, ack)
    }

    #[test]
    fn exactly_once_reassembles_and_acks_duplicates() {
        let stats = FaultCounters::default();
        let mut rx = Receiver::default();
        let ack = |s, c| {
            Some(Ack {
                selective: s,
                cumulative: c,
            })
        };
        assert_eq!(arrive(&mut rx, EO, 2, &stats), (vec![], ack(2, 1)));
        assert_eq!(arrive(&mut rx, EO, 3, &stats), (vec![], ack(3, 1)));
        assert_eq!(arrive(&mut rx, EO, 2, &stats), (vec![], ack(2, 1)));
        assert_eq!(arrive(&mut rx, EO, 1, &stats), (vec![1, 2, 3], ack(1, 4)));
        assert_eq!(arrive(&mut rx, EO, 1, &stats), (vec![], ack(1, 4)));
        assert_eq!(stats.snapshot().dedup_dropped, 2);
    }

    #[test]
    fn malformed_seqs_are_rejected_not_wrapped() {
        let stats = FaultCounters::default();
        let mut rx = Receiver::default();
        for channel in [EO, AMO, LVW] {
            assert_eq!(arrive(&mut rx, channel, 1, &stats).0, vec![1]);
            assert_eq!(arrive(&mut rx, channel, u64::MAX, &stats), (vec![], None));
            assert_eq!(arrive(&mut rx, channel, 0, &stats), (vec![], None));
            // The floor did not wrap: seq 1 stays dead, seq 2 lives.
            assert_eq!(arrive(&mut rx, channel, 1, &stats).0, Vec::<u64>::new());
            assert_eq!(arrive(&mut rx, channel, 2, &stats).0, vec![2]);
        }
        assert_eq!(stats.snapshot().dedup_dropped, 9);
    }

    #[test]
    fn a_clean_wire_stamps_latest_value_wins_only() {
        let stats = FaultCounters::default();
        let mut tx = Sender::new(0, 1, None);
        let now = Instant::now();
        let mut send = |ch| tx.send(now, false, ch, &block(1), &stats, |_, _| {});
        assert_eq!(send(EO), Sent { seq: 0, copies: 1 });
        assert_eq!(send(AMO), Sent { seq: 0, copies: 1 });
        assert_eq!(send(LVW), Sent { seq: 1, copies: 1 });
        assert_eq!(send(LVW), Sent { seq: 2, copies: 1 });
        assert!(tx.is_idle());
        assert_eq!(stats.snapshot(), FaultStats::default());
    }

    #[test]
    fn acked_seqs_leave_the_retransmit_slot_and_limbo() {
        // Every copy delayed: the send parks one copy in limbo and one
        // block in the retransmit slot; the ack retires both.
        let plan = FaultPlan::lossy(3, 0.0, 0.0, 1.0, 4);
        let stats = FaultCounters::default();
        let mut tx = Sender::new(0, 1, Some(&plan));
        let now = Instant::now();
        let sent = tx.send(now, false, EO, &block(1), &stats, |_, _| {});
        assert_eq!(sent, Sent { seq: 1, copies: 0 });
        assert!(!tx.is_idle());
        tx.on_ack(
            0,
            Ack {
                selective: 1,
                cumulative: 1,
            },
        );
        assert!(tx.is_idle());
        let mut out = Vec::new();
        tx.tick(now + plan.rto_cap, false, &stats, |_, _| {}, &mut out);
        assert!(out.is_empty(), "nothing left to release or retransmit");
        // An ack for a channel that never sent materializes nothing.
        tx.on_ack(
            99,
            Ack {
                selective: 1,
                cumulative: 2,
            },
        );
        assert!(tx.is_idle());
    }

    #[test]
    fn a_cumulative_ack_covers_for_lost_ones() {
        let plan = FaultPlan::new(1);
        let stats = FaultCounters::default();
        let (mut tx, mut rx) = (Sender::new(0, 1, Some(&plan)), Receiver::default());
        let now = Instant::now();
        let mut last = None;
        for _ in 0..3 {
            let sent = tx.send(now, false, EO, &block(1), &stats, |_, _| {});
            assert_eq!(sent.copies, 1);
            last = arrive(&mut rx, EO, sent.seq, &stats).1;
        }
        // Only the third ack gets through.
        tx.on_ack(0, last.unwrap());
        assert!(tx.is_idle());
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let plan = FaultPlan::new(1).retransmit(Duration::from_millis(1), Duration::from_millis(5));
        let stats = FaultCounters::default();
        let mut tx = Sender::new(0, 1, Some(&plan));
        let t0 = Instant::now();
        tx.send(t0, false, EO, &block(1), &stats, |_, _| {});
        let mut out = Vec::new();
        let mut now = t0;
        let mut gaps = Vec::new();
        for _ in 0..5 {
            // Step in 1 ms slices until the next retransmission.
            let from = now;
            while out.is_empty() {
                now += Duration::from_millis(1);
                tx.tick(now, false, &stats, |_, _| {}, &mut out);
            }
            out.clear();
            gaps.push((now - from).as_millis());
        }
        assert_eq!(gaps, [1, 2, 4, 5, 5]);
        assert_eq!(stats.snapshot().retransmitted, 5);
    }
}
