//! The worker-side transport endpoint.
//!
//! A [`WireEndpoint`] is one rank's view of the socket machine: the hub
//! connection, a private single-rank mailbox, and (when a fault plan is
//! installed) the sender/receiver halves of the reliability sublayer
//! running over the real wire.
//!
//! The local mailbox is an [`Interconnect`] built with **no plan**: a
//! remote arrival that survived the wire's reliability layer is final,
//! so it goes straight into the mailbox machinery (two-list queues,
//! condvar wakeups, stall windows, delivery-mode scrambling) that the
//! in-process transport already proved out. Loopback sends (rank to
//! itself) never touch the socket at all.
//!
//! Reliability over the wire mirrors `Interconnect`'s modeled link
//! state split across processes: the **sender** keeps per-destination
//! `next_seq` + retransmit buffer + delayed-copy limbo, injecting
//! deterministic drop/dup/delay decisions from the same
//! [`converse_net::fault::link_draw`] streams *before* writing to the
//! socket; the **receiver** keeps per-source `expected` + out-of-order
//! stash, dedups, and acknowledges every DATA arrival with a selective
//! seq plus a cumulative watermark. A pump thread drives retransmission
//! with the plan's capped exponential backoff. ACKs and control frames
//! ride the socket un-faulted — the plan models the data channel, the
//! TCP/Unix stream is the (reliable) physical layer under it.

use crate::{connect, kind, PushOutcome, ShmPlane, WireOptions, WireStream};
use converse_msg::{write_frame, FrameHeader, MsgBlock};
use converse_net::fault::{link_draw, unit, SALT_DELAY, SALT_DELAY_SLOTS, SALT_DROP, SALT_DUP};
use converse_net::{
    Channel, CmiTransport, Delivery, DeliveryMode, FaultPlan, FaultStats, Interconnect, Packet,
    PeTraffic,
};
use converse_trace::{Event, FaultKind, StealPhase, TraceSink};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Record one trace event per this many wire frames.
const FRAME_SAMPLE: u64 = 32;

/// A transmitted-but-unacknowledged packet (sender side).
struct InFlight {
    block: MsgBlock,
    attempt: u32,
    due: Instant,
}

/// A fault-delayed copy waiting for its release slot (sender side —
/// the delay happens before the socket, so the wire stays truthful).
struct Limbo {
    seq: u64,
    block: MsgBlock,
    due: Instant,
}

/// Sender half of one *channel* of a directed link (this rank → dst).
/// Sequenced streams number from 1; `seq == 0` is the reserved
/// unsequenced fast path (no fault plan), matching the in-process
/// convention documented on `converse_net::Packet::seq`.
struct SendChan {
    channel: Channel,
    next_seq: u64,
    unacked: BTreeMap<u64, InFlight>,
    limbo: Vec<Limbo>,
}

impl SendChan {
    fn new(channel: Channel) -> SendChan {
        SendChan {
            channel,
            next_seq: 1,
            unacked: BTreeMap::new(),
            limbo: Vec::new(),
        }
    }
}

/// Sender half of one directed link, split per channel (channel 0
/// inline, others lazily created — same shape as the in-process
/// `LinkState`).
struct SendLink {
    chan0: SendChan,
    extra: HashMap<u32, SendChan>,
}

impl Default for SendLink {
    fn default() -> Self {
        SendLink {
            chan0: SendChan::new(Channel::DEFAULT),
            extra: HashMap::new(),
        }
    }
}

impl SendLink {
    fn default_vec(n: usize) -> Vec<Mutex<SendLink>> {
        (0..n).map(|_| Mutex::new(SendLink::default())).collect()
    }

    fn chan(&mut self, channel: Channel) -> &mut SendChan {
        if channel.id == 0 {
            &mut self.chan0
        } else {
            self.extra
                .entry(channel.id)
                .or_insert_with(|| SendChan::new(channel))
        }
    }

    /// Existing channel state by id (acks never materialize state).
    fn chan_by_id(&mut self, id: u32) -> Option<&mut SendChan> {
        if id == 0 {
            Some(&mut self.chan0)
        } else {
            self.extra.get_mut(&id)
        }
    }
}

/// Receiver half of one *channel* of a directed link (src → this rank).
struct RecvChan {
    expected: u64,
    ooo: BTreeMap<u64, MsgBlock>,
}

impl RecvChan {
    fn new() -> RecvChan {
        RecvChan {
            expected: 1,
            ooo: BTreeMap::new(),
        }
    }
}

/// Receiver half of one directed link, split per channel.
struct RecvLink {
    chan0: RecvChan,
    extra: HashMap<u32, RecvChan>,
}

impl Default for RecvLink {
    fn default() -> Self {
        RecvLink {
            chan0: RecvChan::new(),
            extra: HashMap::new(),
        }
    }
}

impl RecvLink {
    fn chan(&mut self, id: u32) -> &mut RecvChan {
        if id == 0 {
            &mut self.chan0
        } else {
            self.extra.entry(id).or_insert_with(RecvChan::new)
        }
    }
}

#[derive(Default)]
struct FaultCells {
    transmissions: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    retransmitted: AtomicU64,
    dedup_dropped: AtomicU64,
    superseded: AtomicU64,
}

/// One rank's end of the socket machine. See the module docs.
/// Callback invoked (once) when the endpoint aborts — the machine
/// layer uses it to flip its shared panicked flag.
pub type AbortHook = Box<dyn Fn(&str) + Send + Sync>;

pub struct WireEndpoint {
    rank: usize,
    n: usize,
    inner: Arc<Interconnect>,
    writer: Mutex<WireStream>,
    /// Shared-memory ring data plane, when this endpoint runs the
    /// `shmring` transport. Peer-addressed frames go through the rings
    /// and the hub socket is demoted to control plane (bootstrap,
    /// teardown, crash detection) plus a fallback path for frames too
    /// large for a ring.
    shm: Option<ShmPlane>,
    plan: Option<FaultPlan>,
    send_links: Vec<Mutex<SendLink>>,
    recv_links: Vec<Mutex<RecvLink>>,
    wire_msgs: AtomicU64,
    wire_bytes: AtomicU64,
    fstats: FaultCells,
    /// Counts every frame written or read — the trace sampling key.
    frames: AtomicU64,
    /// Set while the teardown flush runs: limbo releases immediately.
    finishing: AtomicBool,
    /// Set once no further wire activity is expected (FIN, abort, or
    /// hub loss); reader/pump threads exit and write errors go quiet.
    shutdown: AtomicBool,
    fin: Mutex<bool>,
    fin_cv: Condvar,
    aborted: Mutex<Option<String>>,
    on_abort: Mutex<Option<AbortHook>>,
    /// Uptime-ns when the oldest unanswered STEAL_REQ left this rank
    /// (0 = none); closed out by the first DONATE arrival to time the
    /// request→donate steal leg.
    steal_req_at: AtomicU64,
    /// Uptime-ns when the oldest unmeasured DONATE batch entered the
    /// local mailbox (0 = none); consumed by the scheduler via
    /// `take_steal_mark` to time splice→first-run.
    steal_mark: AtomicU64,
    trace: Arc<dyn TraceSink>,
}

impl WireEndpoint {
    /// Connect rank `rank` of an `n`-PE machine to the hub at `addr`,
    /// speak HELLO, and block until the hub's GO (the startup barrier).
    /// Returns with the reader (and, under a plan, the retransmit pump)
    /// running. With `shm` installed the endpoint runs the `shmring`
    /// transport: a dedicated poller thread consumes this rank's
    /// inbound rings and the hub socket carries control traffic only.
    #[allow(clippy::too_many_arguments)] // one arg per transport concern
    pub fn connect(
        rank: usize,
        n: usize,
        addr: &str,
        delivery: DeliveryMode,
        plan: Option<FaultPlan>,
        opts: &WireOptions,
        trace: Arc<dyn TraceSink>,
        shm: Option<ShmPlane>,
    ) -> io::Result<Arc<WireEndpoint>> {
        assert!(rank < n, "rank {rank} out of range for {n} PEs");
        if let Some(p) = &plan {
            p.validate(n);
        }
        let stream = connect(addr, opts.connect_timeout)?;
        write_frame(
            &mut stream.try_clone()?,
            FrameHeader::new(kind::HELLO, rank as u32, 0, 0),
            b"",
        )?;
        let mut reader = stream.try_clone()?;
        // The GO may lag while slower siblings exec and connect; give
        // it the whole bootstrap window.
        stream.set_read_timeout(Some(opts.accept_timeout + opts.connect_timeout))?;
        match converse_msg::read_frame(&mut reader)? {
            Some((h, _)) if h.kind == kind::GO => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wire: expected GO from hub, got {other:?}"),
                ))
            }
        }
        stream.set_read_timeout(None)?;

        let ep = Arc::new(WireEndpoint {
            rank,
            n,
            inner: Interconnect::with_mode(n, delivery),
            writer: Mutex::new(stream),
            shm,
            send_links: SendLink::default_vec(n),
            recv_links: (0..n).map(|_| Mutex::new(RecvLink::default())).collect(),
            plan,
            wire_msgs: AtomicU64::new(0),
            wire_bytes: AtomicU64::new(0),
            fstats: FaultCells::default(),
            frames: AtomicU64::new(0),
            finishing: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            fin: Mutex::new(false),
            fin_cv: Condvar::new(),
            aborted: Mutex::new(None),
            on_abort: Mutex::new(None),
            steal_req_at: AtomicU64::new(0),
            steal_mark: AtomicU64::new(0),
            trace,
        });

        let rd = ep.clone();
        std::thread::Builder::new()
            .name(format!("wire-ep{rank}"))
            .spawn(move || rd.reader_loop(reader))
            .expect("spawn wire reader");
        if ep.plan.is_some() {
            let pump = ep.clone();
            std::thread::Builder::new()
                .name(format!("wire-pump{rank}"))
                .spawn(move || pump.pump_loop())
                .expect("spawn wire pump");
        }
        if ep.shm.is_some() {
            let po = ep.clone();
            std::thread::Builder::new()
                .name(format!("wire-shm{rank}"))
                .spawn(move || {
                    let plane = po.shm.as_ref().expect("shm plane");
                    plane.poll_sweeps(
                        &po.shutdown,
                        |h, payload| {
                            po.trace_frame(h.kind, h.src as usize, payload.len(), false);
                            po.on_frame(h, payload);
                        },
                        || po.inner.ring_doorbell(po.rank),
                    );
                })
                .expect("spawn shm poller");
        }
        Ok(ep)
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Install the machine layer's abort reaction (e.g. marking the
    /// run panicked so blocked contexts unwind). Called with the abort
    /// message when a peer panics or the hub connection is lost.
    pub fn set_abort_hook(&self, f: AbortHook) {
        *self.on_abort.lock() = Some(f);
    }

    /// The abort message, if a peer failure reached this worker.
    pub fn aborted(&self) -> Option<String> {
        self.aborted.lock().clone()
    }

    // ---- frame output ---------------------------------------------------

    fn trace_frame(&self, kind_byte: u8, peer: usize, bytes: usize, sent: bool) {
        let count = self.frames.fetch_add(1, Ordering::Relaxed);
        if count.is_multiple_of(FRAME_SAMPLE) && self.trace.enabled() {
            self.trace.record(
                self.rank,
                self.inner.uptime().as_nanos() as u64,
                Event::WireFrame {
                    kind: kind::name(kind_byte),
                    peer,
                    bytes,
                    sent,
                },
            );
        }
    }

    fn trace_fault(&self, fk: FaultKind, src: usize, dst: usize, seq: u64) {
        if self.trace.enabled() {
            self.trace.record(
                self.rank,
                self.inner.uptime().as_nanos() as u64,
                Event::Fault {
                    kind: fk,
                    src,
                    dst,
                    seq,
                },
            );
        }
    }

    /// Write one frame to the hub. Errors are quiet once the endpoint
    /// is shutting down; otherwise they mean the hub vanished and the
    /// run is over for this worker.
    fn write(&self, header: FrameHeader, payload: &[u8]) {
        let r = write_frame(&mut *self.writer.lock(), header, payload);
        match r {
            Ok(()) => self.trace_frame(header.kind, header.dst as usize, payload.len(), true),
            Err(_) => {
                if !self.shutdown.load(Ordering::Acquire) {
                    self.abort_local("wire: hub connection lost (write)");
                }
            }
        }
    }

    /// Route one peer-addressed frame onto the data plane: the shared
    /// ring to `header.dst` when this is an shmring endpoint, the hub
    /// socket otherwise.
    ///
    /// `may_block` is the full-ring policy. App, pump and reader
    /// threads wait for the consumer to drain (the remote poller is
    /// always draining, so waiting is forward progress — the mirror of
    /// blocking in a full socket buffer). The shm **poller** thread
    /// must never wait: it is the drain for the opposite direction,
    /// and two pollers parked on each other's full rings would
    /// deadlock — so its frames (ACKs, donations) try the ring and
    /// spill to the hub socket, which still forwards every data kind.
    /// Oversized frames (> one ring) always take the hub path.
    fn emit(&self, header: FrameHeader, payload: &[u8], may_block: bool) {
        if let Some(shm) = &self.shm {
            let dst = header.dst as usize;
            if dst != self.rank && dst < self.n {
                match shm.push(dst, header, payload, may_block, &self.shutdown) {
                    PushOutcome::Sent => {
                        self.trace_frame(header.kind, dst, payload.len(), true);
                        return;
                    }
                    PushOutcome::Shutdown => return,
                    PushOutcome::TooBig | PushOutcome::Full => {}
                }
            }
        }
        self.write(header, payload);
    }

    fn data_header(&self, dst: usize, channel: Channel, seq: u64) -> FrameHeader {
        FrameHeader::new(kind::DATA, self.rank as u32, dst as u32, seq)
            .on_channel(channel.id, channel.delivery.as_u8())
    }

    /// One attempt to push `seq` of `(rank → dst, channel)` across the
    /// wire, applying the fault plane *before* the socket — the mirror
    /// of the in-process `wire_transmit`, with "deliver" replaced by
    /// "write". Fault draws are salted per channel (same offset scheme
    /// as in-process), so channel 0 draws exactly as the pre-QoS wire.
    fn wire_attempt(&self, dst: usize, channel: Channel, seq: u64, attempt: u32, block: MsgBlock) {
        let Some(plan) = &self.plan else {
            self.emit(self.data_header(dst, channel, seq), block.as_slice(), true);
            return;
        };
        let src = self.rank;
        let co = channel.id as u64 * 4096;
        self.fstats.transmissions.fetch_add(1, Ordering::Relaxed);
        let f = plan.faults_for(src, dst);
        if f.drop > 0.0
            && unit(link_draw(plan.seed, src, dst, seq, attempt, SALT_DROP + co)) < f.drop
        {
            self.fstats.dropped.fetch_add(1, Ordering::Relaxed);
            self.trace_fault(FaultKind::Drop, src, dst, seq);
            return;
        }
        let copies: u64 = if f.dup > 0.0
            && unit(link_draw(plan.seed, src, dst, seq, attempt, SALT_DUP + co)) < f.dup
        {
            self.fstats.transmissions.fetch_add(1, Ordering::Relaxed);
            self.fstats.duplicated.fetch_add(1, Ordering::Relaxed);
            self.trace_fault(FaultKind::Duplicate, src, dst, seq);
            2
        } else {
            1
        };
        let finishing = self.finishing.load(Ordering::Acquire);
        for copy in 0..copies {
            let delay_salt = SALT_DELAY + co + copy * 16;
            let slots_salt = SALT_DELAY_SLOTS + co + copy * 16;
            let delayed = !finishing
                && f.delay > 0.0
                && f.max_delay_slots > 0
                && unit(link_draw(plan.seed, src, dst, seq, attempt, delay_salt)) < f.delay;
            if delayed {
                let slots = 1
                    + (link_draw(plan.seed, src, dst, seq, attempt, slots_salt) as usize
                        % f.max_delay_slots);
                self.fstats.delayed.fetch_add(1, Ordering::Relaxed);
                self.trace_fault(FaultKind::Delay, src, dst, seq);
                let due = Instant::now() + plan.tick * slots as u32;
                self.send_links[dst].lock().chan(channel).limbo.push(Limbo {
                    seq,
                    block: block.share(),
                    due,
                });
            } else {
                self.emit(self.data_header(dst, channel, seq), block.as_slice(), true);
            }
        }
    }

    /// Sequence, buffer and attempt one remote send according to the
    /// channel's delivery guarantee (the sender half of the QoS layer;
    /// the receive half is `on_data`):
    ///
    /// * exactly-once — buffer for retransmit until acked;
    /// * at-most-once — one wire attempt, no sender state, no acks;
    /// * latest-value-wins — at most one unacked value per channel; a
    ///   newer value purges older in-flight state (counted
    ///   `superseded`).
    fn wire_send(&self, dst: usize, channel: Channel, block: MsgBlock) {
        self.wire_msgs.fetch_add(1, Ordering::Relaxed);
        self.wire_bytes
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        let Some(plan) = &self.plan else {
            if channel.delivery == Delivery::LatestValueWins {
                // Even on a clean wire a LVW value needs a real seq so
                // the receiving mailbox can supersede queued values.
                let seq = {
                    let mut link = self.send_links[dst].lock();
                    let chan = link.chan(channel);
                    let s = chan.next_seq;
                    chan.next_seq += 1;
                    s
                };
                self.emit(self.data_header(dst, channel, seq), block.as_slice(), true);
            } else {
                self.emit(self.data_header(dst, channel, 0), block.as_slice(), true);
            }
            return;
        };
        let seq;
        {
            let mut link = self.send_links[dst].lock();
            let chan = link.chan(channel);
            seq = chan.next_seq;
            chan.next_seq += 1;
            match channel.delivery {
                Delivery::AtMostOnce => {}
                Delivery::ExactlyOnce => {
                    chan.unacked.insert(
                        seq,
                        InFlight {
                            block: block.share(),
                            attempt: 1,
                            due: Instant::now() + plan.rto,
                        },
                    );
                }
                Delivery::LatestValueWins => {
                    let purged = (chan.unacked.len() + chan.limbo.len()) as u64;
                    chan.unacked.clear();
                    chan.limbo.clear();
                    if purged > 0 {
                        self.fstats.superseded.fetch_add(purged, Ordering::Relaxed);
                        self.trace_fault(FaultKind::Supersede, self.rank, dst, seq);
                    }
                    chan.unacked.insert(
                        seq,
                        InFlight {
                            block: block.share(),
                            attempt: 1,
                            due: Instant::now() + plan.rto,
                        },
                    );
                }
            }
        }
        self.wire_attempt(dst, channel, seq, 1, block);
    }

    // ---- frame input ----------------------------------------------------

    fn reader_loop(self: Arc<Self>, mut stream: WireStream) {
        loop {
            match converse_msg::read_frame(&mut stream) {
                Ok(Some((h, payload))) => {
                    self.trace_frame(h.kind, h.src as usize, payload.len(), false);
                    match h.kind {
                        kind::ABORT => {
                            let msg = String::from_utf8_lossy(payload.as_slice()).into_owned();
                            self.shutdown.store(true, Ordering::Release);
                            self.abort_local(&format!("wire: aborted by peer: {msg}"));
                            return;
                        }
                        kind::FIN => {
                            self.shutdown.store(true, Ordering::Release);
                            let mut f = self.fin.lock();
                            *f = true;
                            self.fin_cv.notify_all();
                            return;
                        }
                        _ => {
                            self.on_frame(h, payload);
                            self.inner.ring_doorbell(self.rank);
                        }
                    }
                }
                Ok(None) | Err(_) => {
                    if !self.shutdown.swap(true, Ordering::AcqRel) {
                        self.abort_local("wire: hub connection lost");
                    }
                    return;
                }
            }
        }
    }

    /// Dispatch one data-plane frame. Shared by the hub reader thread
    /// (socket transport, plus the shmring fallback path) and the shm
    /// poller thread — the sublayers above cannot tell which wire
    /// carried the frame. ABORT/FIN are control plane and stay in
    /// `reader_loop`.
    ///
    /// Messages for the local PE are queued with
    /// [`Interconnect::send_on_quiet`]; the calling thread rings the
    /// PE's doorbell — the hub reader after each frame, the shm poller
    /// once per sweep of its rings.
    fn on_frame(&self, h: FrameHeader, payload: MsgBlock) {
        match h.kind {
            kind::DATA => self.on_data(h, payload),
            kind::ACK => self.on_ack(h, payload.as_slice()),
            kind::INJECT => self.inner.inject(self.rank, payload),
            kind::STALL => {
                let ns = u64_le(payload.as_slice());
                self.inner.stall_for(self.rank, Duration::from_nanos(ns));
            }
            kind::STEAL_REQ => self.on_steal_req(h, payload.as_slice()),
            kind::DONATE => {
                let now = self.inner.uptime().as_nanos() as u64;
                // First donation since our last STEAL_REQ closes the
                // request→donate latency leg (recorded thief-side).
                let t0 = self.steal_req_at.swap(0, Ordering::AcqRel);
                if t0 != 0 && self.trace.enabled() {
                    self.trace.record(
                        self.rank,
                        now,
                        Event::StealLatency {
                            phase: StealPhase::ReqToDonate,
                            ns: now.saturating_sub(t0),
                        },
                    );
                }
                // Mark the splice so the scheduler can time
                // splice→first-run (keep the oldest pending mark).
                let _ = self.steal_mark.compare_exchange(
                    0,
                    now.max(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                // A donated message already cleared the reliability
                // sublayer at the victim and the wire carried it
                // exactly once, so it enters the local mailbox on the
                // unsequenced path. Only default-channel packets are
                // stealable.
                self.inner
                    .send_on_quiet(h.src as usize, self.rank, payload, Channel::DEFAULT);
            }
            _ => {}
        }
    }

    /// Receive side of the QoS layer — the mirror of the in-process
    /// `deliver_link`, plus an explicit ACK frame (shared memory let
    /// the modeled link acknowledge by direct state update). The frame
    /// header is self-describing: channel id + guarantee tag travel
    /// with every DATA frame, so no receiver-side registry is needed.
    ///
    /// Delivery into the local mailbox goes through `send_on` so the
    /// packet carries its channel tag upward — and so a
    /// latest-value-wins arrival supersedes older values still queued
    /// in the inbox, exactly as in-process.
    fn on_data(&self, h: FrameHeader, block: MsgBlock) {
        let src = h.src as usize;
        let seq = h.seq;
        let channel = Channel::new(h.channel, Delivery::from_u8(h.guarantee));
        if self.plan.is_none() {
            self.inner.send_on_quiet(src, self.rank, block, channel);
            return;
        }
        let mut link = self.recv_links[src].lock();
        let chan = link.chan(channel.id);
        match channel.delivery {
            Delivery::ExactlyOnce => {
                if seq < chan.expected || chan.ooo.contains_key(&seq) {
                    self.fstats.dedup_dropped.fetch_add(1, Ordering::Relaxed);
                    self.trace_fault(FaultKind::DedupDrop, src, self.rank, seq);
                } else {
                    chan.ooo.insert(seq, block);
                    loop {
                        let next = chan.expected;
                        let Some(b) = chan.ooo.remove(&next) else {
                            break;
                        };
                        chan.expected += 1;
                        // The local mailbox link carries no plan, so
                        // the packet enters on the unsequenced fast
                        // path — same as an in-order arrival on a
                        // clean in-process link.
                        self.inner.send_on_quiet(src, self.rank, b, channel);
                    }
                }
                // Acknowledge even duplicates: the retransmit that
                // produced them is still waiting for confirmation.
                let cum = chan.expected;
                // Never block on a full ring here: this may run on the
                // shm poller thread (see `emit`).
                self.emit(
                    FrameHeader::new(kind::ACK, self.rank as u32, src as u32, seq)
                        .on_channel(channel.id, channel.delivery.as_u8()),
                    &cum.to_le_bytes(),
                    false,
                );
            }
            Delivery::AtMostOnce => {
                // Monotonic floor, no reassembly, no ACK: the sender
                // keeps no state to retire.
                if seq < chan.expected {
                    self.fstats.dedup_dropped.fetch_add(1, Ordering::Relaxed);
                    self.trace_fault(FaultKind::DedupDrop, src, self.rank, seq);
                } else {
                    chan.expected = seq + 1;
                    self.inner.send_on_quiet(src, self.rank, block, channel);
                }
            }
            Delivery::LatestValueWins => {
                // Monotonic floor plus an ACK so the sender stops
                // retransmitting its (single) in-flight value.
                if seq < chan.expected {
                    self.fstats.dedup_dropped.fetch_add(1, Ordering::Relaxed);
                    self.trace_fault(FaultKind::DedupDrop, src, self.rank, seq);
                } else {
                    chan.expected = seq + 1;
                    self.inner.send_on_quiet(src, self.rank, block, channel);
                }
                let cum = chan.expected;
                // Never block on a full ring here: this may run on the
                // shm poller thread (see `emit`).
                self.emit(
                    FrameHeader::new(kind::ACK, self.rank as u32, src as u32, seq)
                        .on_channel(channel.id, channel.delivery.as_u8()),
                    &cum.to_le_bytes(),
                    false,
                );
            }
        }
    }

    /// Serve an idle peer's steal request (runs on this rank's reader
    /// thread — the victim side of the distributed steal protocol).
    /// Extract up to the requested batch of stealable packets from the
    /// local staged list and donate each as its own DONATE frame, `src`
    /// rewritten to the donated message's original sender so the thief
    /// delivers it with truthful provenance. On this transport the
    /// `Event::Steal` record lands on the victim — the donation is
    /// asynchronous and only the victim knows the batch size.
    fn on_steal_req(&self, h: FrameHeader, payload: &[u8]) {
        let thief = h.src as usize;
        let max = u64_le(payload) as usize;
        if thief == self.rank || max == 0 {
            return;
        }
        let stolen = self.inner.steal_take(self.rank, max);
        if stolen.is_empty() {
            return;
        }
        let batch = stolen.len();
        for p in stolen {
            // Non-blocking for the same reason as ACKs: the victim
            // side runs on reader/poller threads.
            self.emit(
                FrameHeader::new(kind::DONATE, p.src as u32, thief as u32, 0),
                p.block.as_slice(),
                false,
            );
        }
        if self.trace.enabled() {
            self.trace.record(
                self.rank,
                self.inner.uptime().as_nanos() as u64,
                Event::Steal {
                    victim: self.rank,
                    thief,
                    batch,
                },
            );
        }
    }

    /// Sender side of an ACK from the peer: drop the selective seq and
    /// everything below the cumulative watermark from the retransmit
    /// buffer (and limbo — a delivered seq no longer needs its delayed
    /// copies). The ACK frame echoes the channel tag of the DATA frame
    /// it confirms; an ack for a channel with no sender state (e.g.
    /// at-most-once, which never acks, or an already-superseded value)
    /// is a no-op rather than materializing state.
    fn on_ack(&self, h: FrameHeader, payload: &[u8]) {
        let acker = h.src as usize;
        let selective = h.seq;
        let cum = u64_le(payload);
        let mut link = self.send_links[acker].lock();
        if let Some(chan) = link.chan_by_id(h.channel) {
            chan.unacked.remove(&selective);
            chan.unacked.retain(|s, _| *s >= cum);
            chan.limbo.retain(|l| l.seq >= cum && l.seq != selective);
        }
    }

    /// Record an abort, run the machine layer's hook, and wake anything
    /// blocked on the mailbox.
    fn abort_local(&self, msg: &str) {
        {
            let mut a = self.aborted.lock();
            if a.is_some() {
                return;
            }
            *a = Some(msg.to_string());
        }
        if let Some(hook) = &*self.on_abort.lock() {
            hook(msg);
        }
        self.inner.close();
    }

    // ---- retransmit pump ------------------------------------------------

    fn pump_loop(self: Arc<Self>) {
        let plan = self.plan.as_ref().expect("pump requires a plan");
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(plan.tick);
            let now = Instant::now();
            let finishing = self.finishing.load(Ordering::Acquire);
            for dst in 0..self.n {
                if dst == self.rank {
                    continue;
                }
                let mut releases: Vec<(Channel, Limbo)> = Vec::new();
                let mut retx: Vec<(Channel, u64, u32, MsgBlock)> = Vec::new();
                {
                    let mut link = self.send_links[dst].lock();
                    let mut pump_chan = |chan: &mut SendChan| {
                        let channel = chan.channel;
                        let mut i = 0;
                        while i < chan.limbo.len() {
                            if finishing || chan.limbo[i].due <= now {
                                releases.push((channel, chan.limbo.swap_remove(i)));
                            } else {
                                i += 1;
                            }
                        }
                        for (seq, inf) in chan.unacked.iter_mut() {
                            if inf.due <= now {
                                inf.attempt += 1;
                                let backoff = plan.rto * (1u32 << (inf.attempt - 1).min(10));
                                inf.due = now + backoff.min(plan.rto_cap);
                                retx.push((channel, *seq, inf.attempt, inf.block.share()));
                            }
                        }
                    };
                    pump_chan(&mut link.chan0);
                    for chan in link.extra.values_mut() {
                        pump_chan(chan);
                    }
                }
                releases.sort_by_key(|(c, l)| (c.id, l.seq));
                for (channel, l) in releases {
                    self.emit(
                        self.data_header(dst, channel, l.seq),
                        l.block.as_slice(),
                        true,
                    );
                }
                for (channel, seq, attempt, block) in retx {
                    self.fstats.retransmitted.fetch_add(1, Ordering::Relaxed);
                    self.trace_fault(FaultKind::Retransmit, self.rank, dst, seq);
                    self.wire_attempt(dst, channel, seq, attempt, block);
                }
            }
        }
    }

    // ---- teardown protocol ----------------------------------------------

    /// Drive the retransmit buffer empty (every remote send confirmed
    /// delivered) before exiting; limbo copies release immediately.
    /// Returns false if `deadline` passed first.
    pub fn flush(&self, deadline: Instant) -> bool {
        if self.plan.is_none() {
            return true;
        }
        self.finishing.store(true, Ordering::Release);
        loop {
            let clean = self.send_links.iter().all(|l| {
                let l = l.lock();
                let chan_clean = |c: &SendChan| c.unacked.is_empty() && c.limbo.is_empty();
                chan_clean(&l.chan0) && l.extra.values().all(chan_clean)
            });
            if clean {
                return true;
            }
            if Instant::now() >= deadline || self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Send the clean-completion EXIT frame carrying this worker's
    /// report bytes.
    pub fn send_exit(&self, report: &[u8]) {
        self.write(FrameHeader::new(kind::EXIT, self.rank as u32, 0, 0), report);
    }

    /// Send the panic ABORT frame (the hub fans it out to the peers).
    pub fn send_abort(&self, msg: &str) {
        self.write(
            FrameHeader::new(kind::ABORT, self.rank as u32, 0, 0),
            msg.as_bytes(),
        );
    }

    /// Wait for the hub's FIN (all ranks exited). Returns false on
    /// timeout or if the run aborted instead.
    pub fn wait_fin(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut f = self.fin.lock();
        while !*f {
            if self.aborted.lock().is_some() {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.fin_cv.wait_for(&mut f, deadline - now);
        }
        true
    }

    /// This rank's authoritative traffic view: local mailbox counters
    /// merged with the wire send counters.
    pub fn local_traffic(&self) -> PeTraffic {
        let mut t = self.inner.traffic(self.rank);
        t.msgs_sent += self.wire_msgs.load(Ordering::Relaxed);
        t.bytes_sent += self.wire_bytes.load(Ordering::Relaxed);
        t
    }
}

fn u64_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

impl CmiTransport for WireEndpoint {
    fn num_pes(&self) -> usize {
        self.n
    }

    fn uptime(&self) -> Duration {
        self.inner.uptime()
    }

    fn send_block(&self, src: usize, dst: usize, block: MsgBlock) {
        debug_assert_eq!(src, self.rank, "a wire endpoint sends only as its own rank");
        if dst == self.rank {
            self.inner.send(src, dst, block);
        } else {
            self.wire_send(dst, Channel::DEFAULT, block);
        }
    }

    fn send_block_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel) {
        debug_assert_eq!(src, self.rank, "a wire endpoint sends only as its own rank");
        if dst == self.rank {
            self.inner.send_on(src, dst, block, channel);
        } else {
            self.wire_send(dst, channel, block);
        }
    }

    fn inject_block(&self, dst: usize, block: MsgBlock) {
        if dst == self.rank {
            self.inner.inject(dst, block);
        } else {
            self.emit(
                FrameHeader::new(kind::INJECT, self.rank as u32, dst as u32, 0),
                block.as_slice(),
                true,
            );
        }
    }

    fn broadcast_excl_block(&self, src: usize, block: MsgBlock) {
        for dst in 0..self.n {
            if dst != src {
                self.send_block(src, dst, block.share());
            }
        }
    }

    fn broadcast_all_block(&self, src: usize, block: MsgBlock) {
        for dst in 0..self.n {
            self.send_block(src, dst, block.share());
        }
    }

    /// Destinations live in other address spaces: every remote PE
    /// receives its own copy off the wire.
    fn broadcast_zero_copy(&self) -> bool {
        false
    }

    fn try_recv(&self, pe: usize) -> Option<Packet> {
        self.inner.try_recv(pe)
    }

    fn drain_bounded(&self, pe: usize, out: &mut VecDeque<Packet>, max: usize) -> usize {
        self.inner.drain_into_bounded(pe, out, max)
    }

    fn recv_timeout(&self, pe: usize, timeout: Duration) -> Option<Packet> {
        self.inner.recv_timeout(pe, timeout)
    }

    fn wait_nonempty(&self, pe: usize, timeout: Duration) {
        self.inner.wait_nonempty(pe, timeout)
    }

    fn wait_nonempty_spin(&self, pe: usize, timeout: Duration, spin: u32) -> u32 {
        self.inner.wait_nonempty_spin(pe, timeout, spin)
    }

    fn pending(&self, pe: usize) -> usize {
        self.inner.pending(pe)
    }

    fn stalled(&self, pe: usize) -> bool {
        self.inner.stalled(pe)
    }

    fn stall_for(&self, pe: usize, dur: Duration) {
        if pe == self.rank {
            self.inner.stall_for(pe, dur);
        } else {
            self.emit(
                FrameHeader::new(kind::STALL, self.rank as u32, pe as u32, 0),
                &(dur.as_nanos() as u64).to_le_bytes(),
                true,
            );
        }
    }

    fn close(&self) {
        self.inner.close()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn traffic(&self, pe: usize) -> PeTraffic {
        if pe == self.rank {
            self.local_traffic()
        } else {
            PeTraffic::default()
        }
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            transmissions: self.fstats.transmissions.load(Ordering::Relaxed),
            dropped: self.fstats.dropped.load(Ordering::Relaxed),
            duplicated: self.fstats.duplicated.load(Ordering::Relaxed),
            delayed: self.fstats.delayed.load(Ordering::Relaxed),
            retransmitted: self.fstats.retransmitted.load(Ordering::Relaxed),
            dedup_dropped: self.fstats.dedup_dropped.load(Ordering::Relaxed),
            superseded: self.fstats.superseded.load(Ordering::Relaxed),
        }
    }

    fn transport_name(&self) -> &'static str {
        if self.shm.is_some() {
            "shmring"
        } else {
            "socket"
        }
    }

    fn publish_load(&self, pe: usize, run_queue: usize, occupancy_pm: u32) {
        if pe == self.rank {
            self.inner.publish_load(pe, run_queue, occupancy_pm);
        }
    }

    fn staged_pending(&self, pe: usize) -> usize {
        if pe == self.rank {
            self.inner.staged_of(pe)
        } else {
            0
        }
    }

    fn published_load(&self, pe: usize) -> (usize, u32) {
        if pe == self.rank {
            let l = self.inner.load_of(pe);
            (l.run_queue, l.occupancy_pm)
        } else {
            (0, 0)
        }
    }

    /// Remote ranks live in other processes; their load reads degrade
    /// to zeros, so balancers must use gossiped samples and thieves a
    /// rotating victim.
    fn remote_load_visible(&self) -> bool {
        false
    }

    /// Distributed steal: fire an asynchronous STEAL_REQ at the victim
    /// and return 0 — donated packets arrive later as DONATE frames.
    /// A local victim (only possible with `num_pes == 1`) is a no-op.
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        debug_assert_eq!(
            thief, self.rank,
            "a wire endpoint steals only for its own rank"
        );
        if victim == self.rank || max == 0 {
            return 0;
        }
        // Stamp the request so the first DONATE back closes the
        // request→donate latency leg (oldest pending request wins).
        let now = self.inner.uptime().as_nanos() as u64;
        let _ =
            self.steal_req_at
                .compare_exchange(0, now.max(1), Ordering::AcqRel, Ordering::Relaxed);
        self.emit(
            FrameHeader::new(kind::STEAL_REQ, self.rank as u32, victim as u32, 0),
            &(max as u64).to_le_bytes(),
            true,
        );
        0
    }

    fn take_steal_mark(&self, pe: usize) -> u64 {
        if pe != self.rank || self.steal_mark.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        self.steal_mark.swap(0, Ordering::AcqRel)
    }
}
