//! Reference-model property tests for the link protocol.
//!
//! No thread, no socket, no real clock: a [`Sender`] and a [`Receiver`]
//! joined by a scripted adversary that owns the wire. Every copy the
//! sender puts on the wire and every ack the receiver answers lands in
//! a pool; the script decides which is delivered, delivered again, lost
//! or left lying while it advances `now` — on top of whatever the
//! sender's own seeded fault plane already dropped, duplicated and
//! delayed. A script that fails replays exactly: the protocol has no
//! other input.

use converse_msg::MsgBlock;
use converse_net::link::{Ack, FaultCounters, Receiver, Sender, WireCopy, OOO_WINDOW};
use converse_net::{Channel, Delivery, FaultPlan, LinkFaults};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

const EO: Channel = Channel::DEFAULT;
const AMO: Channel = Channel::new(7, Delivery::AtMostOnce);
const LVW: Channel = Channel::new(9, Delivery::LatestValueWins);

/// One move of the adversary. `usize` fields pick a channel of the
/// world, then a pool entry (both modulo what exists).
#[derive(Debug, Clone)]
enum Op {
    Send(usize),
    Advance(u64),
    Deliver(usize, usize),
    Redeliver(usize, usize),
    Lose(usize, usize),
    Ack(usize, usize),
    ReAck(usize, usize),
    LoseAck(usize, usize),
}

impl Op {
    /// The channel the move touches; `None` for the passage of time.
    fn channel(&self) -> Option<usize> {
        match *self {
            Op::Advance(_) => None,
            Op::Send(c)
            | Op::Deliver(c, _)
            | Op::Redeliver(c, _)
            | Op::Lose(c, _)
            | Op::Ack(c, _)
            | Op::ReAck(c, _)
            | Op::LoseAck(c, _) => Some(c),
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    let pick = || (0usize..3, 0usize..64);
    prop_oneof![
        3 => (0usize..3).prop_map(Op::Send),
        2 => (0u64..3000).prop_map(Op::Advance),
        4 => pick().prop_map(|(c, i)| Op::Deliver(c, i)),
        1 => pick().prop_map(|(c, i)| Op::Redeliver(c, i)),
        1 => pick().prop_map(|(c, i)| Op::Lose(c, i)),
        3 => pick().prop_map(|(c, i)| Op::Ack(c, i)),
        1 => pick().prop_map(|(c, i)| Op::ReAck(c, i)),
        1 => pick().prop_map(|(c, i)| Op::LoseAck(c, i)),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 0..120)
}

fn plan(seed: u64, faults: LinkFaults) -> FaultPlan {
    FaultPlan::new(seed)
        .faults(faults)
        .retransmit(Duration::from_micros(500), Duration::from_millis(4))
        .tick(Duration::from_micros(200))
}

const LOSSY: LinkFaults = LinkFaults {
    drop: 0.3,
    dup: 0.2,
    delay: 0.3,
    max_delay_slots: 3,
};

/// Both halves of one link, the adversary's pools, and what came out.
struct World {
    channels: Vec<Channel>,
    tx: Sender,
    rx: Receiver,
    stats: FaultCounters,
    now: Instant,
    rto_cap: Duration,
    /// Per channel: copies on the wire, `(seq, block)`.
    wire: Vec<Vec<(u64, MsgBlock)>>,
    /// Per channel: acks on their way back.
    acks: Vec<Vec<Ack>>,
    /// Per channel: payloads sent so far (payload `i` is the `i`-th).
    sent: Vec<u32>,
    /// Per channel: the seq of the latest send.
    stamped: Vec<u64>,
    /// Per channel: `(seq, payload)` in delivery order.
    delivered: Vec<Vec<(u64, u32)>>,
}

impl World {
    fn new(plan: &FaultPlan, channels: &[Channel]) -> World {
        let k = channels.len();
        World {
            channels: channels.to_vec(),
            tx: Sender::new(0, 1, Some(plan)),
            rx: Receiver::default(),
            stats: FaultCounters::default(),
            now: Instant::now(),
            rto_cap: plan.rto_cap,
            wire: vec![Vec::new(); k],
            acks: vec![Vec::new(); k],
            sent: vec![0; k],
            stamped: vec![0; k],
            delivered: vec![Vec::new(); k],
        }
    }

    fn index_of(&self, channel: Channel) -> usize {
        self.channels
            .iter()
            .position(|c| *c == channel)
            .expect("the sender emitted on a channel nobody sent on")
    }

    fn tick(&mut self) {
        let mut out = Vec::new();
        self.tx
            .tick(self.now, false, &self.stats, |_, _| {}, &mut out);
        self.put_on_wire(out);
    }

    /// An ack reaches the sender; what it resends joins the wire pool.
    fn ack(&mut self, c: usize, ack: Ack) {
        let mut out = Vec::new();
        let id = self.channels[c].id;
        self.tx
            .on_ack(self.now, false, id, ack, &self.stats, |_, _| {}, &mut out);
        self.put_on_wire(out);
    }

    fn put_on_wire(&mut self, out: Vec<WireCopy>) {
        for copy in out {
            let c = self.index_of(copy.channel);
            if copy.channel.delivery == Delivery::LatestValueWins {
                assert_eq!(
                    copy.seq, self.stamped[c],
                    "a superseded value was released or retransmitted"
                );
            }
            self.wire[c].push((copy.seq, copy.block));
        }
    }

    fn arrive(&mut self, c: usize, seq: u64, block: MsgBlock) {
        let got = &mut self.delivered[c];
        let ack = self.rx.on_data(
            self.channels[c],
            seq,
            block,
            &self.stats,
            |_, _| {},
            |seq, block| {
                let payload = u32::from_le_bytes(block.as_slice().try_into().unwrap());
                got.push((seq, payload));
            },
        );
        self.acks[c].extend(ack);
    }

    fn step(&mut self, op: &Op) {
        let k = self.channels.len();
        match *op {
            Op::Send(c) => {
                let c = c % k;
                let block = MsgBlock::copy_from(&self.sent[c].to_le_bytes());
                self.sent[c] += 1;
                let sent = self.tx.send(
                    self.now,
                    false,
                    self.channels[c],
                    &block,
                    &self.stats,
                    |_, _| {},
                );
                self.stamped[c] = sent.seq;
                for _ in 0..sent.copies {
                    self.wire[c].push((sent.seq, block.share()));
                }
            }
            Op::Advance(us) => {
                self.now += Duration::from_micros(us);
                self.tick();
            }
            Op::Deliver(c, i) | Op::Redeliver(c, i) | Op::Lose(c, i) => {
                let c = c % k;
                if self.wire[c].is_empty() {
                    return;
                }
                let i = i % self.wire[c].len();
                let (seq, block) = match op {
                    Op::Redeliver(..) => (self.wire[c][i].0, self.wire[c][i].1.share()),
                    _ => self.wire[c].swap_remove(i),
                };
                if !matches!(op, Op::Lose(..)) {
                    self.arrive(c, seq, block);
                }
            }
            Op::Ack(c, i) | Op::ReAck(c, i) | Op::LoseAck(c, i) => {
                let c = c % k;
                if self.acks[c].is_empty() {
                    return;
                }
                let i = i % self.acks[c].len();
                let ack = match op {
                    Op::ReAck(..) => self.acks[c][i],
                    _ => self.acks[c].swap_remove(i),
                };
                if !matches!(op, Op::LoseAck(..)) {
                    self.ack(c, ack);
                }
            }
        }
        // Whatever the guarantee: never twice, never backwards, and a
        // payload is the one that was stamped with that seq.
        for got in &self.delivered {
            if let [.., (a, _), (b, payload)] = got[..] {
                assert!(a < b, "seq {b} delivered after {a}");
                assert_eq!(payload as u64, b - 1);
            }
        }
    }

    /// A FIFO wire that loses nothing, on a clock that stands still:
    /// channel `c`'s copies arrive and its acks return in the order
    /// they were produced, until nothing is in transit.
    fn drain_fifo(&mut self, c: usize) {
        loop {
            if !self.wire[c].is_empty() {
                let (seq, block) = self.wire[c].remove(0);
                self.arrive(c, seq, block);
            } else if !self.acks[c].is_empty() {
                let ack = self.acks[c].remove(0);
                self.ack(c, ack);
            } else {
                return;
            }
        }
    }

    /// The adversary relents: everything on the wire and every ack gets
    /// through, time passes a full backoff cap per round. True once the
    /// sender is idle and nothing is in transit.
    fn settle(&mut self) -> bool {
        for _ in 0..400 {
            for c in 0..self.channels.len() {
                for (seq, block) in std::mem::take(&mut self.wire[c]) {
                    self.arrive(c, seq, block);
                }
                for ack in std::mem::take(&mut self.acks[c]) {
                    self.ack(c, ack);
                }
            }
            if self.tx.is_idle() {
                return true;
            }
            self.now += self.rto_cap;
            self.tick();
        }
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Exactly-once: every send surfaces once, in order, whatever the
    /// adversary did, and the sender goes idle once acks flow.
    #[test]
    fn exactly_once_delivers_each_send_once_in_order(seed in any::<u64>(), script in arb_script()) {
        let mut w = World::new(&plan(seed, LOSSY), &[EO]);
        for op in &script {
            w.step(op);
        }
        prop_assert!(w.settle(), "sender never went idle");
        let want: Vec<(u64, u32)> = (0..w.sent[0]).map(|i| (i as u64 + 1, i)).collect();
        prop_assert_eq!(&w.delivered[0], &want);
    }

    /// At-most-once: never twice, never backwards (checked every step),
    /// and no sender state — with nothing delayed the sender is idle
    /// after every move, acked or not.
    #[test]
    fn at_most_once_keeps_no_sender_state(seed in any::<u64>(), script in arb_script()) {
        let faults = LinkFaults { delay: 0.0, ..LOSSY };
        let mut w = World::new(&plan(seed, faults), &[AMO]);
        for op in &script {
            w.step(op);
            prop_assert!(w.tx.is_idle());
            prop_assert!(w.acks[0].is_empty(), "at-most-once acks nothing");
        }
        prop_assert!(w.delivered[0].len() <= w.sent[0] as usize);
        prop_assert_eq!(w.stats.snapshot().retransmitted, 0);
    }

    /// Latest-value-wins: the stream converges on the last value sent,
    /// and only that value is ever released or retransmitted (checked in
    /// `World::tick`): at most one is unacked.
    #[test]
    fn latest_value_wins_converges_on_the_last_value(seed in any::<u64>(), script in arb_script()) {
        let mut w = World::new(&plan(seed, LOSSY), &[LVW]);
        for op in &script {
            w.step(op);
        }
        prop_assert!(w.settle(), "sender never went idle");
        if w.sent[0] > 0 {
            prop_assert_eq!(w.delivered[0].last(), Some(&(w.stamped[0], w.sent[0] - 1)));
        }
    }

    /// Channels of one link are independent streams: what a channel
    /// delivers and acks under an interleaved script is what it delivers
    /// and acks when the other channels' moves are left out.
    #[test]
    fn channels_of_one_link_are_independent(seed in any::<u64>(), script in arb_script()) {
        let channels = [EO, AMO, LVW];
        let plan = plan(seed, LOSSY);
        let mut all = World::new(&plan, &channels);
        for op in &script {
            all.step(op);
        }
        for c in 0..channels.len() {
            let mut alone = World::new(&plan, &channels);
            let mine = |op: &&Op| op.channel().is_none_or(|x| x % channels.len() == c);
            for op in script.iter().filter(mine) {
                alone.step(op);
            }
            prop_assert_eq!(&alone.delivered[c], &all.delivered[c]);
            prop_assert_eq!(&alone.acks[c], &all.acks[c]);
            let seqs = |w: &World| w.wire[c].iter().map(|(s, _)| *s).collect::<Vec<_>>();
            prop_assert_eq!(seqs(&alone), seqs(&all));
        }
    }

    /// Ack-clocked recovery on an honest wire (FIFO, nothing lost beyond
    /// the plan's own draws) and a clock that never moves: every resend
    /// answers a drop — none is spurious, a copy the plan merely delayed
    /// is left to its release — and while traffic keeps flowing the
    /// acks alone bring the sender to idle, one resend per drop.
    #[test]
    fn acks_repair_the_plans_drops_without_the_clock(
        seed in any::<u64>(),
        sends in 1usize..80,
        delays in any::<bool>(),
    ) {
        let faults = if delays { LOSSY } else { LinkFaults { delay: 0.0, ..LOSSY } };
        let mut w = World::new(&plan(seed, faults), &[EO]);
        let t0 = w.now;
        for _ in 0..sends {
            w.step(&Op::Send(0));
            w.drain_fifo(0);
        }
        let s = w.stats.snapshot();
        prop_assert!(s.retransmitted <= s.dropped, "a spurious resend: {:?}", s);
        if !delays {
            // Only a loss in the tail is still open, and only for want
            // of later acks: a little more traffic closes it.
            let mut extra = 0;
            while !w.tx.is_idle() {
                prop_assert!(extra < 200, "the acks never repaired the stream");
                w.step(&Op::Send(0));
                w.drain_fifo(0);
                extra += 1;
            }
            let s = w.stats.snapshot();
            prop_assert_eq!(s.retransmitted, s.dropped);
        }
        prop_assert_eq!(w.now, t0);
        prop_assert!(w.settle(), "sender never went idle");
        let want: Vec<(u64, u32)> = (0..w.sent[0]).map(|i| (i as u64 + 1, i)).collect();
        prop_assert_eq!(&w.delivered[0], &want);
    }

    /// The receiver half is fed another process's bytes: arbitrary seqs
    /// (the edges of `u64` and of the out-of-order window included)
    /// under arbitrary guarantee bytes
    /// never panic it and never surface one seq of a channel twice; the
    /// sender half takes arbitrary acks without panicking.
    #[test]
    fn wire_input_never_panics_or_delivers_twice(
        frames in proptest::collection::vec((0u32..3, any::<u8>(), any::<u64>(), 0u8..5), 0..200)
    ) {
        let stats = FaultCounters::default();
        let mut rx = Receiver::default();
        let mut tx = Sender::new(0, 1, Some(&plan(1, LOSSY)));
        let now = Instant::now();
        let mut seen: HashMap<u32, HashSet<u64>> = HashMap::new();
        for (id, guarantee, raw, shape) in frames {
            // Small seqs collide and reassemble; the rest probe the edges.
            let seq = match shape {
                0 => raw % 16,
                1 => u64::MAX - raw % 4,
                2 => raw,
                3 => OOO_WINDOW - 2 + raw % 6,
                _ => raw % 4,
            };
            let channel = Channel::new(id, Delivery::from_u8(guarantee));
            let fresh = seen.entry(id).or_default();
            let ack = rx.on_data(channel, seq, MsgBlock::copy_from(&[0]), &stats, |_, _| {}, |s, _| {
                assert!(fresh.insert(s), "channel {id}: seq {s} delivered twice");
            });
            tx.send(now, false, channel, &MsgBlock::copy_from(&[1]), &stats, |_, _| {});
            let ack = ack.unwrap_or(Ack { selective: seq, cumulative: raw });
            tx.on_ack(now, false, id, ack, &stats, |_, _| {}, &mut Vec::new());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The out-of-order window is bounded: whatever order near and
    /// far-ahead seqs arrive in, a seq `OOO_WINDOW` or more ahead of the
    /// next expected one is refused (nothing parked, nothing acked — the
    /// sender keeps it), what is parked is what a reference set holds,
    /// and once the gap has closed and the sender offers everything
    /// again, every seq has surfaced exactly once, in order.
    #[test]
    fn far_ahead_seqs_are_refused_then_delivered_once_the_gap_closes(
        arrivals in proptest::collection::vec((any::<bool>(), 1u64..48), 0..64)
    ) {
        let stats = FaultCounters::default();
        let mut rx = Receiver::default();
        let mut got: Vec<u64> = Vec::new();
        let mut parked: HashSet<u64> = HashSet::new();
        let top = OOO_WINDOW + 48;
        let offers = arrivals
            .into_iter()
            .map(|(far, k)| if far { OOO_WINDOW + k } else { k })
            .chain(1..=top);
        for seq in offers {
            let expected = got.len() as u64 + 1;
            let before = got.len();
            let ack = rx.on_data(EO, seq, MsgBlock::copy_from(&[0]), &stats, |_, _| {}, |s, _| {
                got.push(s)
            });
            if seq >= expected + OOO_WINDOW {
                prop_assert_eq!(ack, None, "seq {} refused at expected {}", seq, expected);
                prop_assert_eq!(got.len(), before);
            } else {
                let cumulative = got.len() as u64 + 1;
                prop_assert_eq!(ack, Some(Ack { selective: seq, cumulative }));
                if seq > expected {
                    parked.insert(seq);
                }
            }
            parked.retain(|s| *s > got.len() as u64);
            prop_assert_eq!(rx.parked(), parked.len());
            prop_assert!(rx.parked() as u64 <= OOO_WINDOW);
        }
        prop_assert_eq!(got, (1..=top).collect::<Vec<_>>());
    }
}

/// The bound is reached and held: with seq 1 missing, exactly the
/// `OOO_WINDOW − 1` seqs inside the window are parked and the ones
/// beyond are refused however many are offered.
#[test]
fn the_out_of_order_window_fills_and_holds() {
    let stats = FaultCounters::default();
    let mut rx = Receiver::default();
    let mut delivered = 0u64;
    for seq in 2..=OOO_WINDOW + 100 {
        rx.on_data(
            EO,
            seq,
            MsgBlock::copy_from(&[0]),
            &stats,
            |_, _| {},
            |_, _| delivered += 1,
        );
    }
    assert_eq!(delivered, 0);
    assert_eq!(rx.parked() as u64, OOO_WINDOW - 1);
    assert_eq!(stats.snapshot().dedup_dropped, 100);
    rx.on_data(
        EO,
        1,
        MsgBlock::copy_from(&[0]),
        &stats,
        |_, _| {},
        |_, _| delivered += 1,
    );
    assert_eq!((delivered, rx.parked()), (OOO_WINDOW, 0));
}
