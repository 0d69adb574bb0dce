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
//! * **Output** — copies to put on the wire now ([`Sent::copies`], the
//!   [`WireCopy`]s of `tick` and `on_ack`), blocks to hand upward in
//!   order (the `deliver` callback), an [`Ack`] to convey back, the
//!   earliest deadline still pending (`tick`'s return value), fault
//!   events to trace (the `trace` callback). Copies the fault plane
//!   delays stay inside the sender until a tick finds them due.
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
//! that calls [`Sender::tick`] and sleeps until the deadline it
//! returned, one [`FaultPlan::tick`] at most ([`pump_sleep`]). When to
//! stop ticking is the driver's: `Interconnect`'s pump makes one last
//! pass once the machine is closed, releasing what limbo still holds;
//! the endpoint's pump reads the endpoint's one lifecycle phase, keeps
//! ticking while the teardown flush runs (`finishing` is set, so limbo
//! releases at once) and stops when the phase is final — FIN, or the
//! run's first failure.

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

/// One copy [`Sender::tick`] or [`Sender::on_ack`] wants on the wire
/// now: a limbo release or a retransmission.
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

/// Acks for later-sent seqs after which an unacknowledged seq is
/// presumed lost and resent without waiting for its timer (the classic
/// fast-retransmit threshold: fewer would resend on mere reordering).
const FAST_RETRANSMIT_ACKS: u32 = 3;

/// A transmitted-but-unacknowledged block held for retransmission.
struct InFlight {
    block: MsgBlock,
    attempt: u32,
    due: Instant,
    /// The channel's `next_seq` when a copy of this seq last went on the
    /// wire (first attempt, retransmission or limbo release): an ack
    /// whose `selective` is at least this answers a seq first sent after
    /// it, acks already in flight at that moment are all below.
    mark: u64,
    /// Acks at or above `mark` seen since that transmission.
    later_acks: u32,
    /// Copies of this seq waiting in the channel's limbo.
    in_limbo: u32,
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

    /// Resend `seq` through the fault plane: the attempt count and the
    /// backed-off timer advance, the ack count re-arms from the
    /// channel's `next_seq`, and the copies that cross now go to `out`.
    #[allow(clippy::too_many_arguments)] // `attempt`'s, plus the slot
    fn retransmit(
        &self,
        channel: Channel,
        seq: u64,
        inf: &mut InFlight,
        next_seq: u64,
        now: Instant,
        flush: bool,
        limbo: &mut Vec<Limbo>,
        stats: &FaultCounters,
        trace: &mut impl FnMut(FaultKind, u64),
        out: &mut Vec<WireCopy>,
    ) {
        inf.attempt += 1;
        let backoff = self.rto * (1u32 << (inf.attempt - 1).min(10));
        inf.due = now + backoff.min(self.rto_cap);
        inf.mark = next_seq;
        inf.later_acks = 0;
        count(&stats.retransmitted, 1);
        trace(FaultKind::Retransmit, seq);
        let held = limbo.len();
        let copies = self.attempt(
            channel.id,
            seq,
            inf.attempt,
            now,
            flush,
            &inf.block,
            limbo,
            stats,
            trace,
        );
        inf.in_limbo += (limbo.len() - held) as u32;
        for _ in 0..copies {
            out.push(WireCopy {
                channel,
                seq,
                block: inf.block.share(),
            });
        }
    }
}

/// How long a pump sleeps after a [`Sender::tick`] that returned `due`:
/// until that deadline, one `tick` at most. Every deadline is created
/// at least one `tick` ahead of its insertion, so a pump that never
/// sleeps longer finds it in time without being signalled.
pub fn pump_sleep(tick: Duration, due: Option<Instant>, now: Instant) -> Duration {
    due.map_or(tick, |d| d.saturating_duration_since(now).min(tick))
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
        let held = chan.limbo.len();
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
        // At-most-once gets this one attempt and nothing else: no
        // retransmit slot, no acks, no sender state.
        if channel.delivery != Delivery::AtMostOnce {
            chan.unacked.insert(
                seq,
                InFlight {
                    block: block.share(),
                    attempt: 1,
                    due: now + wire.rto,
                    mark: chan.next_seq,
                    later_acks: 0,
                    in_limbo: (chan.limbo.len() - held) as u32,
                },
            );
        }
        Sent { seq, copies }
    }

    /// The receiver's answer came back: `selective` and everything
    /// below `cumulative` leave the retransmit slots — and limbo, a
    /// delivered seq has no use for its delayed copies. Then the gap
    /// below `selective` is looked at: the ack answers a seq that
    /// arrived *behind* whatever is still unacknowledged there, and a
    /// seq passed by three (`FAST_RETRANSMIT_ACKS`) such acks — each for a
    /// seq first sent after its own latest transmission — is presumed
    /// lost and resent now, through the fault plane, into `out`. A seq
    /// with a copy still in limbo is only late, not lost, and is left
    /// to its release. An ack for a channel with no sender state is a
    /// no-op.
    #[allow(clippy::too_many_arguments)] // `tick`'s, plus the ack
    pub fn on_ack(
        &mut self,
        now: Instant,
        flush: bool,
        channel: u32,
        ack: Ack,
        stats: &FaultCounters,
        mut trace: impl FnMut(FaultKind, u64),
        out: &mut Vec<WireCopy>,
    ) {
        let Some(chan) = self.chans.get_mut(channel) else {
            return;
        };
        let TxChan {
            channel,
            next_seq,
            unacked,
            limbo,
        } = chan;
        unacked.remove(&ack.selective);
        while unacked
            .first_key_value()
            .is_some_and(|(s, _)| *s < ack.cumulative)
        {
            unacked.pop_first();
        }
        limbo.retain(|l| l.seq >= ack.cumulative && l.seq != ack.selective);
        let Some(wire) = &self.wire else { return };
        for (&seq, inf) in unacked.range_mut(..ack.selective) {
            if ack.selective < inf.mark || inf.in_limbo > 0 {
                continue;
            }
            inf.later_acks += 1;
            if inf.later_acks >= FAST_RETRANSMIT_ACKS {
                wire.retransmit(
                    *channel, seq, inf, *next_seq, now, flush, limbo, stats, &mut trace, out,
                );
            }
        }
    }

    /// Time passed. Per busy channel: release limbo copies that are due
    /// (all of them under `flush`) in sequence order, then retransmit
    /// every unacknowledged block whose timer ran out, with capped
    /// exponential backoff, through the fault plane again. What goes on
    /// the wire now is appended to `out`; the return value is the
    /// earliest deadline still pending — a limbo release or a timer —
    /// and `None` when there is nothing to wait for.
    pub fn tick(
        &mut self,
        now: Instant,
        flush: bool,
        stats: &FaultCounters,
        mut trace: impl FnMut(FaultKind, u64),
        out: &mut Vec<WireCopy>,
    ) -> Option<Instant> {
        let wire = self.wire.as_ref()?;
        let mut next_due: Option<Instant> = None;
        for chan in self.chans.iter_mut() {
            if chan.limbo.is_empty() && chan.unacked.is_empty() {
                continue;
            }
            let TxChan {
                channel,
                next_seq,
                unacked,
                limbo,
            } = chan;
            let released = out.len();
            let mut i = 0;
            while i < limbo.len() {
                if flush || limbo[i].due <= now {
                    let l = limbo.swap_remove(i);
                    // A release is a transmission: acks under way for
                    // seqs sent before it say nothing about this copy.
                    if let Some(inf) = unacked.get_mut(&l.seq) {
                        inf.in_limbo -= 1;
                        inf.mark = *next_seq;
                        inf.later_acks = 0;
                    }
                    out.push(WireCopy {
                        channel: *channel,
                        seq: l.seq,
                        block: l.block,
                    });
                } else {
                    i += 1;
                }
            }
            out[released..].sort_by_key(|c| c.seq);
            for (&seq, inf) in unacked.iter_mut() {
                if inf.due <= now {
                    wire.retransmit(
                        *channel, seq, inf, *next_seq, now, flush, limbo, stats, &mut trace, out,
                    );
                }
            }
            let pending = unacked.values().map(|inf| inf.due);
            let pending = pending.chain(limbo.iter().map(|l| l.due));
            next_due = next_due.into_iter().chain(pending).min();
        }
        next_due
    }

    /// True when nothing is buffered: every send is acknowledged (or
    /// needed no ack) and limbo is empty.
    pub fn is_idle(&self) -> bool {
        self.chans
            .iter()
            .all(|c| c.unacked.is_empty() && c.limbo.is_empty())
    }
}

/// How far ahead of the next expected seq an exactly-once channel parks
/// an arrival: at most this many blocks per channel are ever held out
/// of order, whatever the peer sends.
pub const OOO_WINDOW: u64 = 1 << 16;

/// Receiver state of one channel: `expected` is the next seq to hand
/// upward (exactly-once) or the monotonic floor (at-most-once,
/// latest-value-wins); `ooo` holds what arrived ahead of it, within
/// [`OOO_WINDOW`].
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
    /// are malformed: counted as `dedup_dropped`, not acked. So is an
    /// exactly-once seq [`OOO_WINDOW`] or more ahead of the next
    /// expected one: it is refused — not parked, not acked, so the
    /// sender's timer offers it again once the gap has closed — and a
    /// peer cannot make this half hold unbounded memory.
    pub fn on_data(
        &mut self,
        channel: Channel,
        seq: u64,
        block: MsgBlock,
        stats: &FaultCounters,
        mut trace: impl FnMut(FaultKind, u64),
        mut deliver: impl FnMut(u64, MsgBlock),
    ) -> Option<Ack> {
        let chan = self.chans.entry(channel.id, RxChan::new);
        let exactly_once = channel.delivery == Delivery::ExactlyOnce;
        let too_far = exactly_once && seq.saturating_sub(chan.expected) >= OOO_WINDOW;
        let above = seq.checked_add(1).filter(|_| seq != 0 && !too_far);
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

    /// Blocks held out of order, over all channels.
    pub fn parked(&self) -> usize {
        self.chans.iter().map(|c| c.ooo.len()).sum()
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

    /// Feed one ack on channel id `chan`, return the seqs it resent.
    fn ack(
        tx: &mut Sender,
        now: Instant,
        chan: u32,
        selective: u64,
        cumulative: u64,
        stats: &FaultCounters,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let ack = Ack {
            selective,
            cumulative,
        };
        tx.on_ack(now, false, chan, ack, stats, |_, _| {}, &mut out);
        out.iter().map(|c| c.seq).collect()
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
        assert_eq!(ack(&mut tx, now, 0, 1, 1, &stats), []);
        assert!(tx.is_idle());
        let mut out = Vec::new();
        let due = tx.tick(now + plan.rto_cap, false, &stats, |_, _| {}, &mut out);
        assert!(out.is_empty(), "nothing left to release or retransmit");
        assert_eq!(due, None, "and nothing to wait for");
        // An ack for a channel that never sent materializes nothing.
        assert_eq!(ack(&mut tx, now, 99, 1, 2, &stats), []);
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
        let last = last.unwrap();
        let resent = ack(&mut tx, now, 0, last.selective, last.cumulative, &stats);
        assert_eq!(resent, [], "what a cumulative ack covers is not a gap");
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

    // ---- ack-clocked recovery, on the fake clock ------------------------

    const DROP: f64 = 0.3;

    /// Whether a plan of seed `seed` dropping [`DROP`] of link 0 → 1's
    /// default-channel traffic drops attempt `attempt` of `seq`.
    fn drops(seed: u64, seq: u64, attempt: u32) -> bool {
        unit(link_draw(seed, 0, 1, seq, attempt, SALT_DROP)) < DROP
    }

    /// A drop-only sender whose seed makes the plan drop exactly the
    /// listed `(seq, attempt)`s among attempts 1–3 of seqs 1–8.
    fn sender_dropping(lost: &[(u64, u32)]) -> (Sender, FaultPlan) {
        let fits = |seed: &u64| {
            (1..=8).all(|seq| (1..=3).all(|a| drops(*seed, seq, a) == lost.contains(&(seq, a))))
        };
        let seed = (0..u64::MAX).find(fits).expect("a seed with these draws");
        let plan = FaultPlan::lossy(seed, DROP, 0.0, 0.0, 0);
        (Sender::new(0, 1, Some(&plan)), plan)
    }

    /// Send seqs `from..=to`; every copy that crosses arrives at once
    /// (in order) and its ack is returned, not yet fed to the sender.
    fn send_range(
        tx: &mut Sender,
        rx: &mut Receiver,
        now: Instant,
        seqs: std::ops::RangeInclusive<u64>,
        stats: &FaultCounters,
    ) -> Vec<Ack> {
        let mut acks = Vec::new();
        for seq in seqs {
            let sent = tx.send(now, false, EO, &block(seq as u8), stats, |_, _| {});
            assert_eq!(sent.seq, seq);
            for _ in 0..sent.copies {
                acks.extend(arrive(rx, EO, seq, stats).1);
            }
        }
        acks
    }

    fn feed(tx: &mut Sender, now: Instant, a: Ack, stats: &FaultCounters) -> Vec<u64> {
        ack(tx, now, 0, a.selective, a.cumulative, stats)
    }

    #[test]
    fn a_dropped_seq_is_resent_on_the_third_later_ack_not_the_second() {
        let (mut tx, _) = sender_dropping(&[(1, 1)]);
        let (mut rx, stats) = (Receiver::default(), FaultCounters::default());
        let now = Instant::now();
        let acks = send_range(&mut tx, &mut rx, now, 1..=4, &stats);
        assert_eq!(acks.len(), 3, "seq 1 never crossed");
        assert_eq!(feed(&mut tx, now, acks[0], &stats), []);
        assert_eq!(feed(&mut tx, now, acks[1], &stats), []);
        assert_eq!(stats.snapshot().retransmitted, 0);
        assert_eq!(feed(&mut tx, now, acks[2], &stats), [1]);
        assert_eq!(stats.snapshot().retransmitted, 1);
        // The resent copy closes the gap and its ack retires everything.
        let (got, a) = arrive(&mut rx, EO, 1, &stats);
        assert_eq!(got, [1, 2, 3, 4]);
        assert_eq!(feed(&mut tx, now, a.unwrap(), &stats), []);
        assert!(tx.is_idle());
    }

    #[test]
    fn a_resend_dropped_again_is_re_armed_by_later_sends_only() {
        let (mut tx, _) = sender_dropping(&[(1, 1), (1, 2)]);
        let (mut rx, stats) = (Receiver::default(), FaultCounters::default());
        let now = Instant::now();
        let old = send_range(&mut tx, &mut rx, now, 1..=4, &stats);
        for a in &old {
            // The third resends seq 1; the plan drops that copy too.
            assert_eq!(feed(&mut tx, now, *a, &stats), []);
        }
        assert_eq!(stats.snapshot().retransmitted, 1);
        // Acks for seqs sent before the resend — replayed, or still on
        // their way when it left — do not count against it.
        for a in old.iter().chain(&old) {
            assert_eq!(feed(&mut tx, now, *a, &stats), []);
        }
        assert_eq!(stats.snapshot().retransmitted, 1);
        let new = send_range(&mut tx, &mut rx, now, 5..=7, &stats);
        assert_eq!(feed(&mut tx, now, new[0], &stats), []);
        assert_eq!(feed(&mut tx, now, new[1], &stats), []);
        assert_eq!(feed(&mut tx, now, new[2], &stats), [1]);
        assert_eq!(stats.snapshot().retransmitted, 2);
    }

    #[test]
    fn tail_loss_waits_for_its_timer() {
        let (mut tx, plan) = sender_dropping(&[(1, 1)]);
        let (mut rx, stats) = (Receiver::default(), FaultCounters::default());
        let t0 = Instant::now();
        for a in send_range(&mut tx, &mut rx, t0, 1..=3, &stats) {
            assert_eq!(feed(&mut tx, t0, a, &stats), [], "two later acks only");
        }
        let mut out = Vec::new();
        let early = t0 + plan.rto - Duration::from_micros(1);
        let due = tx.tick(early, false, &stats, |_, _| {}, &mut out);
        assert!(out.is_empty());
        assert_eq!(due, Some(t0 + plan.rto));
        tx.tick(t0 + plan.rto, false, &stats, |_, _| {}, &mut out);
        assert_eq!(out.iter().map(|c| c.seq).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn a_seq_with_a_copy_in_limbo_is_late_not_lost() {
        // Seq 1's only copy is delayed, seqs 2–7 cross at once.
        let delayed = |seed: u64, seq: u64| unit(link_draw(seed, 0, 1, seq, 1, SALT_DELAY)) < DROP;
        let seed = (0..u64::MAX)
            .find(|&s| (1..=7).all(|seq| delayed(s, seq) == (seq == 1)))
            .unwrap();
        let plan = FaultPlan::lossy(seed, 0.0, 0.0, DROP, 1);
        let (mut tx, mut rx) = (Sender::new(0, 1, Some(&plan)), Receiver::default());
        let stats = FaultCounters::default();
        let t0 = Instant::now();
        let acks = send_range(&mut tx, &mut rx, t0, 1..=6, &stats);
        assert_eq!(acks.len(), 5);
        for a in &acks {
            assert_eq!(feed(&mut tx, t0, *a, &stats), []);
        }
        // The release is seq 1's latest transmission: acks for seqs sent
        // before it (all of the above) still do not count, …
        let mut out = Vec::new();
        let due = tx.tick(t0 + plan.tick, false, &stats, |_, _| {}, &mut out);
        assert_eq!(out.iter().map(|c| c.seq).collect::<Vec<_>>(), [1]);
        assert_eq!(
            due,
            Some(t0 + plan.rto),
            "limbo is empty, the timer is left"
        );
        for a in &acks {
            assert_eq!(feed(&mut tx, t0 + plan.tick, *a, &stats), []);
        }
        assert_eq!(stats.snapshot().retransmitted, 0);
        // … and once it arrives nothing is left to recover.
        let a = arrive(&mut rx, EO, 1, &stats).1.unwrap();
        assert_eq!(feed(&mut tx, t0 + plan.tick, a, &stats), []);
        assert!(tx.is_idle());
    }

    #[test]
    fn tick_returns_the_earliest_deadline_and_the_pump_sleeps_until_it() {
        // Every copy is delayed one or two slots.
        let plan = FaultPlan::lossy(5, 0.0, 0.0, 1.0, 2);
        let stats = FaultCounters::default();
        let mut tx = Sender::new(0, 1, Some(&plan));
        let t0 = Instant::now();
        let mut out = Vec::new();
        assert_eq!(tx.tick(t0, false, &stats, |_, _| {}, &mut out), None);
        tx.send(t0, false, EO, &block(1), &stats, |_, _| {});
        let slots = 1 + link_draw(5, 0, 1, 1, 1, SALT_DELAY_SLOTS) % 2;
        let release = t0 + plan.tick * slots as u32;
        assert!(release < t0 + plan.rto, "the limbo copy is due first");
        assert_eq!(
            tx.tick(t0, false, &stats, |_, _| {}, &mut out),
            Some(release)
        );
        assert!(out.is_empty());
        let due = tx.tick(release, false, &stats, |_, _| {}, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(due, Some(t0 + plan.rto));
        assert_eq!(ack(&mut tx, release, 0, 1, 2, &stats), []);
        assert_eq!(tx.tick(release, false, &stats, |_, _| {}, &mut out), None);

        let tick = plan.tick;
        assert_eq!(pump_sleep(tick, None, t0), tick);
        assert_eq!(pump_sleep(tick, Some(t0 + tick * 2), t0), tick);
        assert_eq!(pump_sleep(tick, Some(t0 + tick / 3), t0), tick / 3);
        assert_eq!(pump_sleep(tick, Some(t0), t0 + tick), Duration::ZERO);
    }

    #[test]
    fn a_far_ahead_seq_is_refused_until_the_gap_closes() {
        let stats = FaultCounters::default();
        let mut rx = Receiver::default();
        let ack = |s, c| {
            Some(Ack {
                selective: s,
                cumulative: c,
            })
        };
        let far = OOO_WINDOW + 1;
        assert_eq!(arrive(&mut rx, EO, far, &stats), (vec![], None));
        assert_eq!((rx.parked(), stats.snapshot().dedup_dropped), (0, 1));
        assert_eq!(
            arrive(&mut rx, EO, far - 1, &stats),
            (vec![], ack(far - 1, 1))
        );
        assert_eq!(rx.parked(), 1);
        // One step forward and the refused seq fits.
        assert_eq!(arrive(&mut rx, EO, 1, &stats), (vec![1], ack(1, 2)));
        assert_eq!(arrive(&mut rx, EO, far, &stats), (vec![], ack(far, 2)));
        assert_eq!(rx.parked(), 2);
        // A floor holds no memory: the other guarantees take any jump.
        assert_eq!(arrive(&mut rx, AMO, 1 << 40, &stats).0, vec![1 << 40]);
        assert_eq!(arrive(&mut rx, LVW, 1 << 40, &stats).0, vec![1 << 40]);
        assert_eq!(rx.parked(), 2);
    }
}
