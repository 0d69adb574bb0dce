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
use converse_net::link::{Ack, FaultCounters, Receiver, Sender};
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
                    self.tx.on_ack(self.channels[c].id, ack);
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
                    self.tx.on_ack(self.channels[c].id, ack);
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

    /// The receiver half is fed another process's bytes: arbitrary seqs
    /// (the edges of `u64` included) under arbitrary guarantee bytes
    /// never panic it and never surface one seq of a channel twice; the
    /// sender half takes arbitrary acks without panicking.
    #[test]
    fn wire_input_never_panics_or_delivers_twice(
        frames in proptest::collection::vec((0u32..3, any::<u8>(), any::<u64>(), 0u8..4), 0..200)
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
                _ => raw % 4,
            };
            let channel = Channel::new(id, Delivery::from_u8(guarantee));
            let fresh = seen.entry(id).or_default();
            let ack = rx.on_data(channel, seq, MsgBlock::copy_from(&[0]), &stats, |_, _| {}, |s, _| {
                assert!(fresh.insert(s), "channel {id}: seq {s} delivered twice");
            });
            tx.send(now, false, channel, &MsgBlock::copy_from(&[1]), &stats, |_, _| {});
            tx.on_ack(id, ack.unwrap_or(Ack { selective: seq, cumulative: raw }));
        }
    }
}
