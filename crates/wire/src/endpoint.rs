//! The worker-side transport endpoint.
//!
//! A [`WireEndpoint`] is one rank's view of the socket machine: the hub
//! connection, a private single-rank mailbox, and (when a fault plan is
//! installed) the sender/receiver halves of the reliability sublayer
//! running over the real wire.
//!
//! The local mailbox is an [`Interconnect`] built with **no plan**: a
//! remote arrival that survived the wire's reliability layer is final,
//! so it goes straight into the mailbox machinery (one list per PE,
//! condvar wakeups, stall windows, delivery-mode scrambling) that the
//! in-process transport already proved out. Loopback sends (rank to
//! itself) never touch the socket at all.
//!
//! Reliability over the wire is the same [`converse_net::link`]
//! protocol `Interconnect` drives, split across processes: this rank
//! keeps the [`Sender`] half of each outgoing link and the [`Receiver`]
//! half of each incoming one. The sender's fault-plane decisions are
//! made *before* the socket (a dropped copy is never written, a delayed
//! one waits in the sender), "the wire" is a DATA frame and an ack an
//! ACK frame carrying the selective seq plus the cumulative watermark.
//! A pump thread sleeps one tick and calls [`Sender::tick`]. ACKs and
//! control frames ride the socket un-faulted — the plan models the data
//! channel, the TCP stream is the (reliable) physical layer under it.
//!
//! The endpoint's lifecycle is one [`Phase`]: Running from GO,
//! Finishing once the teardown flush starts (EXIT follows), then Fin
//! when the hub's FIN arrives or Aborted with the first failure — a
//! peer's ABORT, a bad frame or ring record, or the hub gone. Only
//! [`Phase::to`] moves it; the reader, the pump, a producer waiting on a
//! full ring and the teardown waits read it.
//!
//! On `socket` the hub reader thread dispatches each frame. On `shmring`
//! there is no receive thread: the endpoint is its local half's
//! [`PolledSource`], swept by the PE (and by any thread waiting for room
//! in a full ring), which dispatches the rings' records and what the hub
//! reader queued for it.

use crate::{connect, kind, PushOutcome, ShmPlane, ACCEPT_TIMEOUT, CONNECT_TIMEOUT};
use converse_msg::{write_frame, FrameHeader, MsgBlock};
use converse_net::link::{pump_sleep, Ack, FaultCounters, Receiver, Sender, Sent};
use converse_net::{
    Channel, CmiTransport, Delivery, DeliveryMode, FaultPlan, FaultStats, Interconnect,
    PolledSource,
};
use converse_trace::{Event, FaultKind, StealPhase, TraceSink};
use parking_lot::Mutex;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Record one trace event per this many wire frames.
const FRAME_SAMPLE: u64 = 32;

/// Callback invoked (once) when the endpoint aborts — the machine
/// layer uses it to flip its shared panicked flag.
type AbortHook = Box<dyn Fn(&str) + Send + Sync>;

/// One rank's end of the socket machine. See the module docs.
pub struct WireEndpoint {
    rank: usize,
    n: usize,
    /// The local half: this rank's mailbox, clock, stall windows, load
    /// cell and counters — wire sends and DONATE splices are recorded
    /// here too, so the PE reads one set of each.
    inner: Arc<Interconnect>,
    writer: Mutex<TcpStream>,
    /// Shared-memory ring data plane, when this endpoint runs the
    /// `shmring` transport. Peer-addressed frames go through the rings
    /// and the hub socket is demoted to control plane (bootstrap,
    /// teardown, crash detection) plus a fallback path for frames too
    /// large for a ring.
    shm: Option<ShmPlane>,
    plan: Option<FaultPlan>,
    /// Sender half of link `rank → dst`, indexed by `dst`.
    send_links: Vec<Mutex<Sender>>,
    /// The receive side: the hub reader's on `socket`; on `shmring`
    /// whoever sweeps takes it with `try_lock`, and nobody waits for it.
    consumer: Mutex<Consumer>,
    /// `shmring`: frames off the hub socket, for a sweep to dispatch.
    from_hub: Mutex<Vec<(FrameHeader, MsgBlock)>>,
    fstats: FaultCounters,
    /// Counts every frame written or read — the trace sampling key.
    frames: AtomicU64,
    phase: Mutex<Phase>,
    on_abort: Mutex<Option<AbortHook>>,
    /// Uptime-ns when the oldest unanswered STEAL_REQ left this rank
    /// (0 = none); closed out by the first DONATE arrival to time the
    /// request→donate steal leg.
    steal_req_at: AtomicU64,
    trace: Arc<dyn TraceSink>,
}

/// Where this rank's run stands: the endpoint's whole lifecycle, moved
/// only by [`Phase::to`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Phase {
    /// From GO until the teardown flush.
    Running,
    /// Flushing, then EXIT sent and FIN awaited: limbo releases at once
    /// and the pump keeps retransmitting until everything is confirmed.
    Finishing,
    /// The hub's FIN came: every rank exited.
    Fin,
    /// The run failed: a peer's ABORT, a bad frame, or the hub gone.
    Aborted(String),
}

impl Phase {
    /// Move to `next` where the lifecycle allows it; true when the
    /// phase moved. Fin and Aborted are final, so the first failure
    /// sticks and a FIN after it (or an abort after FIN) changes
    /// nothing. A FIN that finds this rank still running comes from a
    /// broken hub, and fails the run here.
    pub(crate) fn to(&mut self, next: Phase) -> bool {
        *self = match (&*self, next) {
            (Phase::Running, Phase::Fin) => {
                Phase::Aborted("wire: FIN before this rank exited".into())
            }
            (Phase::Running, next @ (Phase::Finishing | Phase::Aborted(_))) => next,
            (Phase::Finishing, next @ (Phase::Fin | Phase::Aborted(_))) => next,
            _ => return false,
        };
        true
    }

    /// No further wire activity is expected: the reader and the pump
    /// stop, and write errors go quiet.
    pub(crate) fn over(&self) -> bool {
        matches!(self, Phase::Fin | Phase::Aborted(_))
    }
}

/// What the consumer of this rank's wire keeps.
struct Consumer {
    /// Receiver half of link `src → rank`, indexed by `src`.
    links: Vec<Receiver>,
    /// Each inbound ring's cached head (`ShmPlane::heads`).
    heads: Vec<Option<u64>>,
}

impl WireEndpoint {
    /// Connect rank `rank` to the hub at `addr`, speak HELLO, and block
    /// until the hub's GO (the startup barrier). The local half orders
    /// arrivals by `delivery` and has no fault plan: what survived `plan`
    /// on the wire is final. Returns with the reader (and, under a plan,
    /// the retransmit pump) running. With `shm` installed the endpoint
    /// runs the `shmring` transport and is its local half's polled
    /// source; the hub socket carries control frames and overflow.
    pub fn connect(
        rank: usize,
        n: usize,
        addr: &str,
        delivery: DeliveryMode,
        plan: Option<FaultPlan>,
        trace: Arc<dyn TraceSink>,
        shm: Option<ShmPlane>,
    ) -> io::Result<Arc<WireEndpoint>> {
        assert!(rank < n, "rank {rank} out of range for {n} PEs");
        if let Some(p) = &plan {
            p.validate(n);
        }
        let stream = connect(addr)?;
        write_frame(
            &mut &stream,
            FrameHeader::new(kind::HELLO, rank as u32, 0, 0),
            b"",
        )?;
        let reader = stream.try_clone()?;
        // The GO may lag while slower siblings exec and connect; give
        // it the whole bootstrap window.
        stream.set_read_timeout(Some(ACCEPT_TIMEOUT + CONNECT_TIMEOUT))?;
        match converse_msg::read_frame(&mut &reader)? {
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
            inner: Interconnect::with_config(n, delivery, None, None),
            writer: Mutex::new(stream),
            consumer: Mutex::new(Consumer {
                links: (0..n).map(|_| Receiver::default()).collect(),
                heads: shm.as_ref().map(ShmPlane::heads).unwrap_or_default(),
            }),
            from_hub: Mutex::new(Vec::new()),
            shm,
            send_links: (0..n)
                .map(|dst| Mutex::new(Sender::new(rank, dst, plan.as_ref())))
                .collect(),
            plan,
            fstats: FaultCounters::default(),
            frames: AtomicU64::new(0),
            phase: Mutex::new(Phase::Running),
            on_abort: Mutex::new(None),
            steal_req_at: AtomicU64::new(0),
            trace,
        });
        if ep.shm.is_some() {
            let weak = Arc::downgrade(&ep);
            ep.inner.set_source(rank, weak);
        }

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
        Ok(ep)
    }

    /// Install the machine layer's abort reaction (e.g. marking the
    /// run panicked so blocked contexts unwind). Called with the abort
    /// message when a peer panics or the hub connection is lost.
    pub fn set_abort_hook(&self, f: AbortHook) {
        *self.on_abort.lock() = Some(f);
    }

    /// The abort message, if a peer failure reached this worker.
    pub fn aborted(&self) -> Option<String> {
        match &*self.phase.lock() {
            Phase::Aborted(msg) => Some(msg.clone()),
            _ => None,
        }
    }

    fn finishing(&self) -> bool {
        *self.phase.lock() != Phase::Running
    }

    fn over(&self) -> bool {
        self.phase.lock().over()
    }

    // ---- frame output ---------------------------------------------------

    /// Record `event` at this rank's uptime, when tracing is on.
    fn record(&self, event: Event) {
        if self.trace.enabled() {
            let now = self.inner.uptime().as_nanos() as u64;
            self.trace.record(self.rank, now, event);
        }
    }

    fn trace_frame(&self, kind_byte: u8, peer: usize, bytes: usize, sent: bool) {
        let count = self.frames.fetch_add(1, Ordering::Relaxed);
        if count.is_multiple_of(FRAME_SAMPLE) {
            let kind = kind::name(kind_byte);
            self.record(Event::WireFrame {
                kind,
                peer,
                bytes,
                sent,
            });
        }
    }

    fn trace_fault(&self, kind: FaultKind, src: usize, dst: usize, seq: u64) {
        self.record(Event::Fault {
            kind,
            src,
            dst,
            seq,
        });
    }

    /// Write one frame to the hub. Errors are quiet once the endpoint
    /// is shutting down; otherwise they mean the hub vanished and the
    /// run is over for this worker.
    fn write(&self, header: FrameHeader, payload: &[u8]) {
        let r = write_frame(&mut *self.writer.lock(), header, payload);
        match r {
            Ok(()) => self.trace_frame(header.kind, header.dst as usize, payload.len(), true),
            Err(_) => self.step(Phase::Aborted("wire: hub connection lost (write)".into())),
        }
    }

    /// Route one peer-addressed frame onto the data plane: the shared
    /// ring to `header.dst` when this is an shmring endpoint, the hub
    /// socket otherwise.
    ///
    /// `may_block` is the full-ring policy. A sender that may block waits
    /// for the consumer to drain, sweeping this rank's own rings
    /// meanwhile: that consumer may be waiting for room in one of them.
    /// What a sweep writes (ACKs, donations, the resends an ACK asks for)
    /// must never wait, or a sweep would wait inside a sweep: it tries
    /// the ring and spills to the hub socket. A frame too big for a ring
    /// takes the hub path, after a `HELD` record if it `holds_place`.
    fn emit(&self, header: FrameHeader, payload: &[u8], may_block: bool) {
        if let Some(shm) = &self.shm {
            let dst = header.dst as usize;
            if dst != self.rank && dst < self.n {
                let held = self.holds_place(header, payload.len());
                let kind = if held { kind::HELD } else { header.kind };
                let p = if held { &[][..] } else { payload };
                let h = FrameHeader { kind, ..header };
                let wait = || _ = self.sweep();
                match shm.push_or_wait(dst, h, p, may_block, || self.over(), wait) {
                    PushOutcome::Sent if !held => {
                        self.trace_frame(header.kind, dst, payload.len(), true);
                        return;
                    }
                    PushOutcome::Shutdown => return,
                    _ => {}
                }
            }
        }
        self.write(header, payload);
    }

    /// True for a frame too big for a ring whose order no seq restores
    /// (DATA or INJECT with no plan): it leaves a `kind::HELD` record in
    /// its place. Both ends apply this test. No sweep writes such a
    /// frame, so the record may wait.
    fn holds_place(&self, h: FrameHeader, len: usize) -> bool {
        self.plan.is_none()
            && matches!(h.kind, kind::DATA | kind::INJECT)
            && self.shm.as_ref().is_some_and(|s| !s.fits(len))
    }

    /// A `kind` frame from this rank to `dst`.
    fn header(&self, kind: u8, dst: usize, seq: u64) -> FrameHeader {
        FrameHeader::new(kind, self.rank as u32, dst as u32, seq)
    }

    fn data_header(&self, dst: usize, channel: Channel, seq: u64) -> FrameHeader {
        let h = self.header(kind::DATA, dst, seq);
        h.on_channel(channel.id, channel.delivery.as_u8())
    }

    /// One remote send: the sender half of link `rank → dst` stamps the
    /// block, buffers it as the channel's guarantee asks and decides how
    /// many copies cross now; each is one DATA frame. On a clean wire
    /// only latest-value-wins channels have anything to stamp, so every
    /// other send skips the half (and its lock) and goes out as seq 0.
    ///
    /// The frames are written after the link lock is dropped: a full
    /// ring blocks here, and the thread that would drain it may be
    /// waiting to deliver an ACK into this same half.
    fn wire_send(&self, dst: usize, channel: Channel, block: MsgBlock) {
        self.inner.count_send(self.rank, block.len());
        let sent = if self.plan.is_none() && channel.delivery != Delivery::LatestValueWins {
            Sent { seq: 0, copies: 1 }
        } else {
            self.send_links[dst].lock().send(
                Instant::now(),
                self.finishing(),
                channel,
                &block,
                &self.fstats,
                |kind, seq| self.trace_fault(kind, self.rank, dst, seq),
            )
        };
        for _ in 0..sent.copies {
            self.emit(
                self.data_header(dst, channel, sent.seq),
                block.as_slice(),
                true,
            );
        }
    }

    // ---- frame input ----------------------------------------------------

    fn reader_loop(self: Arc<Self>, mut stream: TcpStream) {
        loop {
            match converse_msg::read_frame(&mut stream) {
                Ok(Some((h, payload))) => {
                    self.trace_frame(h.kind, h.src as usize, payload.len(), false);
                    match h.kind {
                        kind::ABORT => {
                            let msg = String::from_utf8_lossy(payload.as_slice());
                            return self
                                .step(Phase::Aborted(format!("wire: aborted by peer: {msg}")));
                        }
                        kind::FIN => return self.step(Phase::Fin),
                        // A sweep dispatches the rest, steal requests aside (`steal_from`).
                        _ if self.shm.is_some() && h.kind != kind::STEAL_REQ => {
                            self.from_hub.lock().push((h, payload));
                            self.wake();
                        }
                        _ => self.on_frame(h, payload, &mut self.consumer.lock().links),
                    }
                }
                Ok(None) | Err(_) => {
                    return self.step(Phase::Aborted("wire: hub connection lost".into()))
                }
            }
        }
    }

    /// Dispatch one data-plane frame: on `socket` from the hub reader,
    /// on `shmring` from a sweep, whichever wire carried it — the
    /// sublayers above cannot tell. ABORT/FIN are control plane and stay
    /// in `reader_loop`. Messages for the local PE go in with
    /// [`Interconnect::deliver`], which wakes it if it is parked.
    fn on_frame(&self, h: FrameHeader, payload: MsgBlock, links: &mut [Receiver]) {
        // The header is another process's bytes and `src` indexes the
        // link tables below: a frame that names a rank outside the
        // machine, or is not for this rank, fails the machine.
        if h.src as usize >= self.n || h.dst as usize != self.rank {
            let msg = format!(
                "wire: {} frame from rank {} of {} addressed to rank {}, received by rank {}",
                kind::name(h.kind).to_uppercase(),
                h.src,
                self.n,
                h.dst,
                self.rank
            );
            self.fail(&msg);
            return;
        }
        match h.kind {
            kind::DATA => self.on_data(h, payload, links),
            kind::ACK => self.on_ack(h, payload.as_slice()),
            kind::INJECT => self.inner.inject(self.rank, payload),
            kind::STALL => {
                if let Some(ns) = self.control_u64(&h, payload.as_slice()) {
                    self.inner.stall_for(self.rank, Duration::from_nanos(ns));
                }
            }
            kind::STEAL_REQ => self.on_steal_req(h, payload.as_slice()),
            kind::DONATE => {
                // First donation since our last STEAL_REQ closes the
                // request→donate latency leg (recorded thief-side).
                let t0 = self.steal_req_at.swap(0, Ordering::AcqRel);
                if t0 != 0 {
                    let ns = (self.inner.uptime().as_nanos() as u64).saturating_sub(t0);
                    let phase = StealPhase::ReqToDonate;
                    self.record(Event::StealLatency { phase, ns });
                }
                self.inner.mark_steal_splice(self.rank);
                // A donated message already cleared the reliability
                // sublayer at the victim and the wire carried it
                // exactly once, so it enters the local mailbox on the
                // unsequenced path. Only default-channel packets are
                // stealable.
                self.inner
                    .deliver(h.src as usize, self.rank, payload, Channel::DEFAULT);
            }
            _ => {}
        }
    }

    /// A DATA frame: the receiver half of link `src → rank` dedups and
    /// reassembles, in-order blocks enter the local mailbox (which
    /// carries no plan — what survived the wire's sublayer is final —
    /// but still supersedes queued latest-value-wins values), and the
    /// half's ack goes back as an ACK frame. The frame header is
    /// self-describing: channel id + guarantee tag travel with every
    /// DATA frame, so no receiver-side registry is needed.
    fn on_data(&self, h: FrameHeader, block: MsgBlock, links: &mut [Receiver]) {
        let src = h.src as usize;
        // Another process's byte: a guarantee the frame does not name
        // fails the machine, as a misaddressed header does.
        let Some(delivery) = Delivery::from_u8(h.guarantee) else {
            self.fail(&format!(
                "wire: {} frame from rank {src} carries guarantee byte {}, which names no guarantee",
                kind::name(h.kind).to_uppercase(),
                h.guarantee
            ));
            return;
        };
        let channel = Channel::new(h.channel, delivery);
        if self.plan.is_none() {
            self.inner.deliver(src, self.rank, block, channel);
            return;
        }
        let ack = links[src].on_data(
            channel,
            h.seq,
            block,
            &self.fstats,
            |kind, seq| self.trace_fault(kind, src, self.rank, seq),
            |_, block| self.inner.deliver(src, self.rank, block, channel),
        );
        if let Some(ack) = ack {
            // Never block on a full ring here: this may run in a sweep
            // (see `emit`).
            self.emit(
                self.header(kind::ACK, src, ack.selective)
                    .on_channel(channel.id, channel.delivery.as_u8()),
                &ack.cumulative.to_le_bytes(),
                false,
            );
        }
    }

    /// Serve an idle peer's steal request (runs on this rank's reader
    /// thread — the victim side of the distributed steal protocol).
    /// Extract up to the requested batch of stealable packets from the
    /// local mailbox (what this rank's PE has not drained yet) and
    /// donate each as its own DONATE frame, `src` rewritten to the
    /// donated message's original sender so the thief delivers it with
    /// truthful provenance. On this transport the
    /// `Event::Steal` record lands on the victim — the donation is
    /// asynchronous and only the victim knows the batch size.
    fn on_steal_req(&self, h: FrameHeader, payload: &[u8]) {
        let thief = h.src as usize;
        let Some(max) = self.control_u64(&h, payload) else {
            return;
        };
        let max = max as usize;
        if thief == self.rank || max == 0 {
            return;
        }
        let stolen = self.inner.steal_take(self.rank, max);
        if stolen.is_empty() {
            return;
        }
        let batch = stolen.len();
        for p in stolen {
            // Non-blocking for the same reason as ACKs: this runs on
            // the reader thread or in a sweep.
            self.emit(
                FrameHeader::new(kind::DONATE, p.src as u32, thief as u32, 0),
                p.block.as_slice(),
                false,
            );
        }
        let victim = self.rank;
        self.record(Event::Steal {
            victim,
            thief,
            batch,
        });
    }

    /// An ACK frame from the peer, for the sender half of link
    /// `rank → acker`. It echoes the channel id of the DATA frame it
    /// confirms. What the ack makes the half resend is written after
    /// the link lock is dropped, as in `wire_send`, and without waiting
    /// on a full ring: this may run in a sweep (see `emit`).
    fn on_ack(&self, h: FrameHeader, payload: &[u8]) {
        let dst = h.src as usize;
        let Some(cumulative) = self.control_u64(&h, payload) else {
            return;
        };
        let mut wire = Vec::new();
        self.send_links[dst].lock().on_ack(
            Instant::now(),
            self.finishing(),
            h.channel,
            Ack {
                selective: h.seq,
                cumulative,
            },
            &self.fstats,
            |kind, seq| self.trace_fault(kind, self.rank, dst, seq),
            &mut wire,
        );
        for c in wire {
            self.emit(
                self.data_header(dst, c.channel, c.seq),
                c.block.as_slice(),
                false,
            );
        }
    }

    /// The `u64` a control frame (ACK, STALL, STEAL_REQ) carries. Its
    /// payload is another process's bytes: anything but exactly eight of
    /// them fails the machine, as a misaddressed header does.
    fn control_u64(&self, h: &FrameHeader, payload: &[u8]) -> Option<u64> {
        match payload.try_into() {
            Ok(word) => Some(u64::from_le_bytes(word)),
            Err(_) => {
                self.fail(&format!(
                    "wire: {} frame from rank {} carries {} payload bytes, not 8",
                    kind::name(h.kind).to_uppercase(),
                    h.src,
                    payload.len()
                ));
                None
            }
        }
    }

    /// Fail the machine over bytes another process sent (a bad frame
    /// header or ring record): abort here, and tell the hub so it fans
    /// the failure out.
    fn fail(&self, msg: &str) {
        self.step(Phase::Aborted(msg.into()));
        self.send_abort(msg);
    }

    /// Move the phase. When it has just become `Aborted`, run the
    /// machine layer's hook and wake anything blocked on the mailbox.
    fn step(&self, next: Phase) {
        let msg = {
            let mut phase = self.phase.lock();
            match (phase.to(next), &*phase) {
                (true, Phase::Aborted(msg)) => msg.clone(),
                _ => return,
            }
        };
        if let Some(hook) = &*self.on_abort.lock() {
            hook(&msg);
        }
        self.inner.close();
    }

    // ---- retransmit pump ------------------------------------------------

    /// Sleep until the earliest deadline of the last pass (a tick at
    /// most), let every outgoing link's sender half release and
    /// retransmit, write what it puts on the wire (after the link lock
    /// is dropped, as in `wire_send`). Runs until shutdown, so a
    /// finishing endpoint keeps retransmitting until its peers confirm.
    fn pump_loop(self: Arc<Self>) {
        let plan = self.plan.as_ref().expect("pump requires a plan");
        let mut wire = Vec::new();
        let mut due = None;
        while !self.over() {
            std::thread::sleep(pump_sleep(plan.tick, due, Instant::now()));
            let now = Instant::now();
            let finishing = self.finishing();
            due = None;
            for dst in (0..self.n).filter(|&dst| dst != self.rank) {
                let link_due = self.send_links[dst].lock().tick(
                    now,
                    finishing,
                    &self.fstats,
                    |kind, seq| self.trace_fault(kind, self.rank, dst, seq),
                    &mut wire,
                );
                due = [due, link_due].into_iter().flatten().min();
                for c in wire.drain(..) {
                    self.emit(
                        self.data_header(dst, c.channel, c.seq),
                        c.block.as_slice(),
                        true,
                    );
                }
            }
        }
    }

    // ---- teardown protocol ----------------------------------------------

    /// Drive the retransmit buffer empty (every remote send confirmed
    /// delivered) before exiting; limbo copies release immediately.
    /// Returns false if `deadline` passed first.
    pub fn flush(&self, deadline: Instant) -> bool {
        self.step(Phase::Finishing);
        if self.plan.is_none() {
            return true;
        }
        loop {
            if self.send_links.iter().all(|l| l.lock().is_idle()) {
                return true;
            }
            if Instant::now() >= deadline || self.over() {
                return false;
            }
            self.settle(Duration::from_millis(1));
        }
    }

    /// Teardown's wait of up to `d`: with the PE gone, the rings are
    /// swept here, for peers that still need ACKs or room to finish.
    fn settle(&self, d: Duration) {
        if self.shm.is_none() {
            std::thread::sleep(d);
        } else if let Some(epoch) = self.sweep() {
            self.park(epoch, Instant::now() + d);
        }
    }

    /// Send the clean-completion EXIT frame carrying this worker's
    /// report bytes.
    pub fn send_exit(&self, report: &[u8]) {
        self.step(Phase::Finishing);
        self.write(self.header(kind::EXIT, 0, 0), report);
    }

    /// Send the panic ABORT frame (the hub fans it out to the peers).
    pub fn send_abort(&self, msg: &str) {
        self.write(self.header(kind::ABORT, 0, 0), msg.as_bytes());
    }

    /// Wait for the hub's FIN (all ranks exited). Returns false on
    /// timeout or if the run aborted instead.
    pub fn wait_fin(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match &*self.phase.lock() {
                Phase::Fin => return true,
                Phase::Aborted(_) => return false,
                _ if Instant::now() >= deadline => return false,
                _ => {}
            }
            self.settle(Duration::from_millis(1));
        }
    }
}

impl PolledSource for WireEndpoint {
    /// Dispatch the frames the hub reader queued, then every ring
    /// record. A frame whose place a `HELD` record keeps stays queued
    /// until the sweep reaches that record, and the ring waits there
    /// until the frame is in.
    fn sweep(&self) -> Option<u32> {
        let shm = self.shm.as_ref().expect("only a ring endpoint is polled");
        // Whoever holds the consumer role is sweeping right now.
        let mut c = self.consumer.try_lock()?;
        let Consumer { links, heads } = &mut *c;
        let epoch = shm.epoch();
        let held = |(h, b): &(FrameHeader, MsgBlock)| self.holds_place(*h, b.len());
        let ready: Vec<_> = self.from_hub.lock().extract_if(.., |f| !held(f)).collect();
        let mut got = !ready.is_empty();
        for (h, b) in ready {
            self.on_frame(h, b, links);
        }
        let held_from = |src| {
            self.from_hub
                .lock()
                .iter()
                .position(|f| f.0.src == src && held(f))
        };
        got |= shm.sweep(
            heads,
            |h| h.kind != kind::HELD || held_from(h.src).is_some(),
            |h, b| {
                let (h, b) = if h.kind == kind::HELD {
                    // The queue only grows behind the sweep's back.
                    let at = held_from(h.src).expect("admitted");
                    self.from_hub.lock().remove(at)
                } else {
                    self.trace_frame(h.kind, h.src as usize, b.len(), false);
                    (h, b)
                };
                self.on_frame(h, b, links);
            },
            |msg| self.fail(msg),
        );
        (!got).then_some(epoch)
    }

    fn park(&self, epoch: u32, until: Instant) {
        let shm = self.shm.as_ref().expect("only a ring endpoint parks");
        shm.park(epoch, until);
    }

    fn wake(&self) {
        let shm = self.shm.as_ref().expect("only a ring endpoint is woken");
        shm.ring(self.rank);
    }
}

impl CmiTransport for WireEndpoint {
    fn local(&self) -> &Interconnect {
        &self.inner
    }

    fn send_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel) {
        debug_assert_eq!(src, self.rank, "a wire endpoint sends only as its own rank");
        if dst == self.rank {
            self.inner.send_on(src, dst, block, channel);
        } else {
            self.wire_send(dst, channel, block);
        }
    }

    fn inject(&self, dst: usize, block: MsgBlock) {
        if dst == self.rank {
            self.inner.inject(dst, block);
        } else {
            self.emit(self.header(kind::INJECT, dst, 0), block.as_slice(), true);
        }
    }

    fn stall_for(&self, pe: usize, dur: Duration) {
        if pe == self.rank {
            self.inner.stall_for(pe, dur);
        } else {
            let ns = (dur.as_nanos() as u64).to_le_bytes();
            self.emit(self.header(kind::STALL, pe, 0), &ns, true);
        }
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
        // Over the hub on either wire, for the victim's reader to serve at
        // once: served at its next refill, it would find the mailbox it
        // donates from just drained.
        let max = (max as u64).to_le_bytes();
        self.write(self.header(kind::STEAL_REQ, victim, 0), &max);
        0
    }

    /// Every other rank is another process: it receives its own copy
    /// off the wire, and its row of the local half's load board is
    /// never written.
    fn shared_memory(&self) -> bool {
        false
    }

    fn fault_stats(&self) -> FaultStats {
        self.fstats.snapshot()
    }

    fn name(&self) -> &'static str {
        if self.shm.is_some() {
            "shmring"
        } else {
            "socket"
        }
    }
}
