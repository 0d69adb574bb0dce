//! The simulated parallel machine under Converse.
//!
//! The paper evaluates Converse on five physical machines (networks of
//! ATM-connected HPs, Cray T3D, Myrinet-connected Suns with the FM
//! package, IBM SP-1, Intel Paragon running SUNMOS). None of those exist
//! here. The native layers between processes are `converse-wire`'s hub
//! socket and shared-memory rings, on which the root crate's
//! `tests/paper_figures.rs` times the paper's figures. This crate
//! provides the in-process substrate and what every transport shares:
//!
//! * [`Interconnect`] — an in-process machine with one mailbox per
//!   logical processor (PE). Sends are byte-block deliveries into the
//!   destination mailbox; receivers poll or block. Per-(source,
//!   destination) FIFO order holds by default, but the MMI deliberately
//!   does **not** promise ordering (paper §3.1.3 criticizes MPI for
//!   paying for it), so an optional seeded [`DeliveryMode::Reorder`] mode
//!   scrambles arrival order to let tests verify nothing above depends
//!   on it.
//! * [`FaultPlan`] — a deterministic adversarial wire: seeded per-link
//!   drop/duplication/delay plus scripted PE stall and crash windows.
//!   When a plan is installed, a **reliability sublayer** masks it —
//!   the [`link`] protocol: every copy on the faulty wire carries a
//!   per-link sequence number, the receive side deduplicates and
//!   reorders back into sequence, and a background pump retransmits
//!   unacknowledged packets with capped exponential backoff — so the
//!   machine layer above keeps its exactly-once in-order contract even
//!   over a lossy net. Without a plan no sequence number exists. Every
//!   fault decision is a pure function of `(seed, link, seq, attempt)`,
//!   so one seed replays one adversarial schedule regardless of thread
//!   interleaving. `Interconnect` is that protocol's one driver, on
//!   every transport: it holds the lock, reads the clock and owns the
//!   pump thread. A multi-process transport's local half is an
//!   `Interconnect` too, whose [`Interconnect::deliver`] runs link
//!   `src → dst` for each arrival under a plan.

pub mod fault;
pub mod link;
pub mod qos;
pub mod transport;

pub use fault::{FaultPlan, FaultStats, LinkFaults, StallWindow};
pub use qos::{Channel, Delivery};
pub use transport::{CmiTransport, PolledSource};

use converse_msg::MsgBlock;
use converse_trace::{Event, FaultKind, TraceSink};
use link::{pump_sleep, reorder_draw, FaultCounters, Receiver, Sender, WireCopy};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// How long a stalled PE naps between checks of its stall window, and
/// the wait-slice receivers use while any stall window is armed.
const STALL_SLICE: Duration = Duration::from_millis(2);

/// A message block in flight, tagged with its source PE.
///
/// The block is the *same* refcounted buffer the sender built — a send
/// moves (or shares) it, never copies it. Broadcast packets on
/// different PEs alias one backing allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sending PE.
    pub src: usize,
    /// The delivery channel this packet travelled on, including its
    /// guarantee tag. Legacy sends use [`Channel::DEFAULT`]
    /// (channel 0, exactly-once).
    ///
    /// A packet carries no sequence number: those belong to the
    /// [`link`] protocol, which runs only under a [`FaultPlan`] and
    /// hands each `(src, channel)` stream to the mailbox in send order.
    pub channel: Channel,
    /// The generalized-message block.
    pub block: MsgBlock,
}

impl Packet {
    /// The wire bytes (the block's contents).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.block.as_slice()
    }
}

/// Delivery-order policy of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Per-(src,dst) FIFO, like most real interconnects.
    #[default]
    Fifo,
    /// Adversarial: each arriving packet is inserted at a seeded-random
    /// position among the last `window` queued packets. Every packet
    /// remains immediately receivable (no liveness loss), but FIFO order
    /// is broken. Used by tests of order-independence.
    Reorder {
        /// RNG seed (deterministic scrambling for reproducible tests).
        seed: u64,
        /// How far back an arrival may be inserted.
        window: usize,
    },
}

/// A per-PE mailbox: **one list**, `inbox`, behind one mutex.
///
/// Senders append under a short lock held just long enough for one
/// push. The receiving PE takes mail off the front under the same lock,
/// at most a batch at a time, into its own intake buffer; the rest stays
/// here, where load probes and thieves still see it. Queue depth is
/// published through the length mirror `inbox_len`, written with a plain
/// store while the lock is held — **never** a read-modify-write — so
/// depth reads (`pending`, load snapshots, the idle spin loop) are one
/// plain atomic load.
///
/// **Doorbell.** A send to a receiver that is awake costs the inbox
/// lock, one plain store and one plain load — no kernel entry and no
/// atomic RMW beyond the mutex itself. Only a receiver that is parked
/// on `cv` is woken, and then by exactly one sender per park: the
/// sender that flips `parked` back to false owns the wake (one locked
/// swap plus one futex wake), every other sender of that window sees
/// `false` and returns. A receiver with a [`PolledSource`] parks on the
/// source's doorbell instead, and that wake rings the doorbell.
///
/// Layout is pinned (`repr(C, align(64))`) so what a send to an awake
/// receiver touches — `inbox_len`, the `inbox` mutex word + its inline
/// `VecDeque` header, and `parked` — sits on the mailbox's first cache
/// line (8+40+1 = 49 bytes on 64-bit Linux); `cv` lives further on,
/// touched only to park or wake. The alignment also keeps neighbouring
/// PEs' mailboxes from false-sharing a line.
///
/// **Supersede by arrival.** Each way in hands over a `(src, channel)`
/// stream in send order (a clean send inserts under the inbox lock, the
/// link protocol's latest-value-wins floor passes strictly increasing
/// seqs, a wire's connections and rings are FIFO, steals, injects and
/// broadcasts use channel 0), so a queued latest-value-wins packet with
/// the arriving one's `(src, channel)` is older: no packet needs a seq.
#[repr(C, align(64))]
struct Mailbox {
    /// Length of `inbox`; written only under the `inbox` lock.
    inbox_len: AtomicUsize,
    inbox: Mutex<VecDeque<Packet>>,
    /// True while the receiver is (about to be) blocked on `cv`.
    ///
    /// **Single-receiver contract:** at most one thread at a time waits
    /// on a mailbox — the owning PE's running context. One flag, one
    /// `notify_one`: a second concurrent waiter would stay asleep after
    /// the first claimed wake cleared the flag. (Thread objects on the
    /// hand-off backend are several OS threads per PE, but exactly one
    /// runs at any instant.)
    ///
    /// The receiver sets it under the `inbox` lock, after finding the
    /// inbox empty and immediately before `cv.wait_until` releases that
    /// lock, and clears it when the wait returns. A sender reads it
    /// only after its own push has taken and released the same lock,
    /// so the mutex orders the two: either the push came first and the
    /// receiver's emptiness check sees it, or the receiver's store came
    /// first and the sender's load sees `true`. The Release/Acquire
    /// pair on the flag itself is for the claim: of the senders that
    /// see `true`, the one whose swap returns `true` calls
    /// `notify_one`. A wake that arrives after the receiver already
    /// timed out and re-parked is a spurious wakeup, which both wait
    /// loops tolerate.
    parked: AtomicBool,
    /// Paired with the `inbox` mutex: the receiver parks here.
    cv: Condvar,
    /// The receiver's polled source, if its transport gave it one.
    source: OnceLock<Weak<dyn PolledSource>>,
    /// Reorder mode only: arrivals from each source PE so far, the key of
    /// its next position draw; plain-stored under the `inbox` lock.
    arrivals: Box<[AtomicU64]>,
    /// Wakes made by [`Mailbox::ring`].
    #[cfg(test)]
    wakes: AtomicU64,
}

impl Mailbox {
    /// A mailbox that keeps arrival counts for `sources` source PEs.
    fn new(sources: usize) -> Self {
        Mailbox {
            inbox_len: AtomicUsize::new(0),
            inbox: Mutex::new(VecDeque::new()),
            parked: AtomicBool::new(false),
            cv: Condvar::new(),
            source: OnceLock::new(),
            arrivals: (0..sources).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(test)]
            wakes: AtomicU64::new(0),
        }
    }

    /// Undelivered packets: one plain load.
    #[inline]
    fn depth(&self) -> usize {
        self.inbox_len.load(Ordering::Acquire)
    }

    fn source(&self) -> Option<Arc<dyn PolledSource>> {
        self.source.get().and_then(Weak::upgrade)
    }

    /// Receiver side of the doorbell: block until rung, closed or `until`;
    /// true when the wait timed out. `inbox` is the guard under which the
    /// caller just saw nothing to receive; a receiver with a polled source
    /// drops it and parks on the source's doorbell at its sweep's epoch.
    fn park(
        &self,
        mut inbox: MutexGuard<'_, VecDeque<Packet>>,
        until: Instant,
        source: Option<(&dyn PolledSource, u32)>,
    ) -> bool {
        self.parked.store(true, Ordering::Release);
        let timed_out = match source {
            None => self.cv.wait_until(&mut inbox, until).timed_out(),
            Some((s, epoch)) => {
                drop(inbox);
                s.park(epoch, until);
                Instant::now() >= until
            }
        };
        self.parked.store(false, Ordering::Release);
        timed_out
    }

    /// Sender side of the doorbell, called after the inbox lock is
    /// dropped: wake the receiver only if it is parked and no other
    /// sender has claimed this park's wake yet.
    #[inline]
    fn ring(&self) {
        if self.parked.load(Ordering::Acquire) && self.parked.swap(false, Ordering::AcqRel) {
            self.wake();
        }
    }

    #[cold]
    fn wake(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        match self.source() {
            Some(s) => s.wake(),
            None => self.cv.notify_one(),
        }
    }
}

/// Per-PE traffic counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeTraffic {
    /// Messages sent by this PE.
    pub msgs_sent: u64,
    /// Payload bytes sent by this PE.
    pub bytes_sent: u64,
    /// Messages received (popped) by this PE.
    pub msgs_recv: u64,
    /// External messages injected *into* this PE (CCS and other
    /// front-ends). Accounted separately from `msgs_sent` so external
    /// request volume never skews a PE's send-side load.
    pub msgs_injected: u64,
    /// Bytes injected into this PE from outside the machine.
    pub bytes_injected: u64,
}

/// Point-in-time load view of one PE: cumulative traffic plus the
/// instantaneous mailbox depth and the run-queue depth the PE itself
/// publishes ([`Interconnect::publish_load`]). One row of
/// [`Interconnect::load_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeLoad {
    /// The PE this snapshot describes.
    pub pe: usize,
    /// Cumulative send/receive counters.
    pub traffic: PeTraffic,
    /// Packets delivered but not yet drained by the PE — the mailbox
    /// depth, and what an idle PE may steal from (see
    /// [`Interconnect::steal_from`]).
    pub queued: usize,
    /// Scheduler run-queue depth as last published by the PE itself
    /// ([`Interconnect::publish_load`]); zero until first publish.
    pub run_queue: usize,
    /// True while the PE is inside a [`StallWindow`] (scripted by the
    /// fault plan or armed at runtime): it is not retrieving messages,
    /// so routing new work to it only deepens its queue.
    pub stalled: bool,
}

impl PeLoad {
    /// Undispatched work visible for this PE: mailbox depth plus the
    /// published scheduler run-queue depth. The victim-selection and
    /// routing metric — cumulative traffic says who *was* busy, backlog
    /// says who is behind *now*.
    #[inline]
    pub fn backlog(&self) -> usize {
        self.queued + self.run_queue
    }
}

#[derive(Default)]
struct TrafficCell {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    msgs_injected: AtomicU64,
    bytes_injected: AtomicU64,
}

/// Advance a single-writer stat counter without a lock-prefixed RMW.
///
/// `msgs_sent`/`bytes_sent` are only ever advanced by PE `src`'s own
/// thread (sends originate on the sending PE) and `msgs_recv` only by
/// the receiving PE's thread, so a plain load/store pair suffices on
/// the message hot path; readers are monitoring snapshots that tolerate
/// staleness. `msgs_injected`/`bytes_injected` keep `fetch_add` — they
/// are fed by external front-end threads with no single-writer
/// discipline.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// One directed link under a plan: both halves of the [`link`]
/// protocol. Both endpoints live in the same process, so one mutex
/// covers the sender's retransmit slots and the receiver's reassembly
/// window; a copy "on the wire" is a call to `rx` and its
/// acknowledgment a call back into `tx` under the same lock, not a
/// message.
///
/// Lock order: a link mutex may be held while taking a mailbox mutex,
/// never the reverse.
struct Link {
    tx: Sender,
    rx: Receiver,
    /// Copies `tx` wants resent in answer to an ack, on their way to
    /// `rx` (scratch of [`Interconnect::arrive`], empty between calls).
    resend: Vec<WireCopy>,
}

/// The simulated machine: `n` processors connected all-to-all.
///
/// Cloneable via `Arc`; every PE thread holds the same instance.
pub struct Interconnect {
    boxes: Vec<Mailbox>,
    traffic: Vec<TrafficCell>,
    /// Run-queue depths the PEs publish themselves
    /// ([`Interconnect::publish_load`]), one per PE. Single-writer (the
    /// owning PE), read lock-free by everyone else.
    run_queues: Vec<AtomicUsize>,
    mode: DeliveryMode,
    /// Per-directed-link reliability state, indexed `src * n + dst`;
    /// built only when a fault plan is installed: empty on a clean
    /// wire, which takes the zero-overhead fast path.
    links: Vec<Mutex<Link>>,
    fstats: FaultCounters,
    trace: Option<Arc<dyn TraceSink>>,
    /// Stall windows: scripted ones from the plan plus any armed at
    /// runtime via [`Interconnect::stall_for`].
    stalls: Mutex<Vec<StallWindow>>,
    /// Fast-path guard: true once any stall window exists.
    has_stalls: AtomicBool,
    /// Per-PE steal splice marks (uptime ns of the oldest unmeasured
    /// donated batch, 0 = none) — consumed by the scheduler to time
    /// splice→first-run.
    steal_marks: Vec<AtomicU64>,
    epoch: Instant,
    /// Set once at shutdown so blocked receivers wake and observe it.
    closed: AtomicBool,
    /// Every `Interconnect` lives in the `Arc` its constructor returned;
    /// this is that `Arc`, for [`Interconnect::arc`].
    me: Weak<Interconnect>,
}

impl Interconnect {
    /// Build a machine with `n` PEs and FIFO delivery.
    pub fn new(n: usize) -> Arc<Self> {
        Self::with_config(n, DeliveryMode::Fifo, None, None)
    }

    /// Build a machine with an explicit delivery mode, an optional
    /// fault plan, and an optional trace sink for `Event::Fault`
    /// records. Installing a plan spawns the background pump thread
    /// that releases fault-delayed packets and drives retransmission;
    /// the pump holds only a `Weak` reference and exits once the
    /// machine closes or is dropped.
    pub fn with_config(
        n: usize,
        mode: DeliveryMode,
        plan: Option<FaultPlan>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Arc<Self> {
        assert!(n > 0, "a machine needs at least one PE");
        if let Some(p) = &plan {
            p.validate(n);
        }
        let stalls: Vec<StallWindow> = plan.as_ref().map(|p| p.stalls.clone()).unwrap_or_default();
        let has_stalls = !stalls.is_empty();
        let reorder = matches!(mode, DeliveryMode::Reorder { .. });
        let link = |p, li| Link {
            tx: Sender::new(li / n, li % n, p),
            rx: Receiver::default(),
            resend: Vec::new(),
        };
        let links = (plan.iter())
            .flat_map(|p| (0..n * n).map(move |li| Mutex::new(link(p, li))))
            .collect();
        let net = Arc::new_cyclic(|me| Interconnect {
            me: me.clone(),
            boxes: (0..n)
                .map(|_| Mailbox::new(if reorder { n } else { 0 }))
                .collect(),
            traffic: (0..n).map(|_| TrafficCell::default()).collect(),
            run_queues: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            mode,
            links,
            fstats: FaultCounters::default(),
            trace: trace.filter(|t| t.enabled()),
            stalls: Mutex::new(stalls),
            has_stalls: AtomicBool::new(has_stalls),
            steal_marks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            closed: AtomicBool::new(false),
        });
        if let Some(tick) = plan.map(|p| p.tick) {
            let weak = net.me.clone();
            std::thread::Builder::new()
                .name("net-fault-pump".into())
                .spawn(move || {
                    let mut wire = Vec::new();
                    let mut due = None;
                    loop {
                        std::thread::sleep(pump_sleep(tick, due, Instant::now()));
                        let Some(net) = weak.upgrade() else { return };
                        due = net.pump_tick(&mut wire);
                        if net.is_closed() {
                            // One more sweep with `closed` observed:
                            // flushes every remaining limbo copy so late
                            // receivers can still drain their mailboxes.
                            // After it nothing is retransmitted either.
                            net.pump_tick(&mut wire);
                            return;
                        }
                    }
                })
                .expect("spawn net-fault-pump");
        }
        net
    }

    /// Number of processors (`CmiNumPe`).
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.boxes.len()
    }

    /// Time since the machine booted — the base for `CmiTimer`.
    #[inline]
    pub fn uptime(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// A counted handle to this machine: how a holder of a
    /// `&Interconnect` (a [`CmiTransport`]'s local half) keeps it
    /// without going through the transport again.
    pub fn arc(&self) -> Arc<Interconnect> {
        self.me
            .upgrade()
            .expect("an Interconnect is alive while it is borrowed")
    }

    fn trace_fault(&self, pe: usize, kind: FaultKind, src: usize, dst: usize, seq: u64) {
        if let Some(t) = &self.trace {
            t.record(
                pe,
                self.uptime().as_nanos() as u64,
                Event::Fault {
                    kind,
                    src,
                    dst,
                    seq,
                },
            );
        }
    }

    /// Insert one packet into `dst`'s inbox, applying the delivery
    /// mode and the channel's supersede policy (by arrival: see
    /// [`Mailbox`]). Under reorder mode the position draw is keyed by
    /// the packet's arrival index on link `src → dst`, counted here; a
    /// `stolen` packet is keyed 0 and not counted. The inbox lock is
    /// held only for the push itself. The doorbell is the caller's: one
    /// [`Mailbox::ring`] once its insert — or its batch of inserts — is
    /// in and the lock has dropped.
    #[inline]
    fn mailbox_insert(
        &self,
        src: usize,
        dst: usize,
        channel: Channel,
        block: MsgBlock,
        stolen: bool,
    ) {
        let mbox = &self.boxes[dst];
        let mut q = mbox.inbox.lock();
        if channel.delivery == Delivery::LatestValueWins {
            // A queued value on the same (src, channel) is older and dead
            // the moment this one lands: drop it in place. Every
            // undrained packet is in reach; one the receiver already
            // drained into its intake is past the horizon.
            let before = q.len();
            q.retain(|p| !(p.src == src && p.channel.id == channel.id));
            let purged = (before - q.len()) as u64;
            if purged > 0 {
                self.fstats.superseded.fetch_add(purged, Ordering::Relaxed);
                self.trace_fault(dst, FaultKind::Supersede, src, dst, 0);
            }
        }
        let packet = Packet {
            src,
            channel,
            block,
        };
        match self.mode {
            DeliveryMode::Fifo => q.push_back(packet),
            DeliveryMode::Reorder { seed, window } => {
                let arrival = if stolen {
                    0
                } else {
                    let count = &mbox.arrivals[src];
                    let arrival = count.load(Ordering::Relaxed);
                    count.store(arrival + 1, Ordering::Relaxed);
                    arrival
                };
                // The scramble window covers every undrained packet;
                // one already in the receiver's intake is out of reach.
                let w = window.min(q.len());
                let draw = reorder_draw(seed, src, dst, arrival);
                let pos = q.len() - (draw as usize % (w + 1));
                q.insert(pos, packet);
            }
        }
        mbox.inbox_len.store(q.len(), Ordering::Release);
    }

    /// Pop one packet for `pe` in delivery order, without the stall
    /// check or traffic accounting: one inbox lock.
    #[inline]
    fn mailbox_pop(&self, pe: usize) -> Option<Packet> {
        let mbox = &self.boxes[pe];
        let mut q = mbox.inbox.lock();
        let p = q.pop_front();
        if p.is_some() {
            mbox.inbox_len.store(q.len(), Ordering::Release);
        }
        p
    }

    /// Transmit a block over link `src → dst` on `channel`: with no
    /// plan installed, one insert and one ring — a clean wire keeps no
    /// per-link state; otherwise sequence + policy-dependent buffering
    /// + one wire attempt through the fault plane.
    #[inline]
    fn transmit(&self, src: usize, dst: usize, channel: Channel, block: MsgBlock) {
        if !self.links.is_empty() {
            return self.transmit_faulty(src, dst, channel, block);
        }
        self.mailbox_insert(src, dst, channel, block, false);
        self.boxes[dst].ring();
    }

    /// The driver side of a send under a plan: lock the link, read the
    /// clock, let the sender half stamp, buffer and draw, and carry each
    /// copy it puts on the wire to the receiver half.
    fn transmit_faulty(&self, src: usize, dst: usize, channel: Channel, block: MsgBlock) {
        let mut link = self.links[src * self.num_pes() + dst].lock();
        let (now, closed) = (Instant::now(), self.is_closed());
        let sent = link
            .tx
            .send(now, closed, channel, &block, &self.fstats, |kind, seq| {
                self.trace_fault(src, kind, src, dst, seq)
            });
        for _ in 0..sent.copies {
            let copy = WireCopy {
                channel,
                seq: sent.seq,
                block: block.share(),
            };
            self.arrive(&mut link, src, dst, now, closed, copy);
        }
    }

    /// One copy reaches the far end of link `src → dst`: the receiver
    /// half dedups and reassembles, in-order blocks go into `dst`'s
    /// mailbox (the mailbox lock nests inside the held link lock,
    /// keeping the seq→mailbox order atomic per link), the ack goes
    /// straight back into the sender half, and whatever that ack makes
    /// the sender resend travels the same way in turn — the wire is a
    /// call, so a loss is repaired before the link lock drops. `dst` is
    /// rung once if anything was delivered.
    fn arrive(
        &self,
        link: &mut Link,
        src: usize,
        dst: usize,
        now: Instant,
        closed: bool,
        copy: WireCopy,
    ) {
        let Link { tx, rx, resend } = link;
        let mut delivered = false;
        let mut next = Some(copy);
        while let Some(WireCopy {
            channel,
            seq,
            block,
        }) = next
        {
            let ack = rx.on_data(
                channel,
                seq,
                block,
                &self.fstats,
                |kind, seq| self.trace_fault(dst, kind, src, dst, seq),
                |_, block| {
                    self.mailbox_insert(src, dst, channel, block, false);
                    delivered = true;
                },
            );
            if let Some(ack) = ack {
                tx.on_ack(
                    now,
                    closed,
                    channel.id,
                    ack,
                    &self.fstats,
                    |kind, seq| self.trace_fault(src, kind, src, dst, seq),
                    resend,
                );
            }
            next = resend.pop();
        }
        if delivered {
            self.boxes[dst].ring();
        }
    }

    /// One pump pass over every link: the sender half releases what is
    /// due (everything once closed) and retransmits what is overdue;
    /// each copy it puts on the wire is carried to the receiver half.
    /// `wire` is the pump thread's scratch buffer; the return value is
    /// the earliest deadline any link still waits for.
    fn pump_tick(&self, wire: &mut Vec<WireCopy>) -> Option<Instant> {
        let now = Instant::now();
        let closed = self.is_closed();
        let n = self.boxes.len();
        let mut due: Option<Instant> = None;
        for li in 0..self.links.len() {
            let (src, dst) = (li / n, li % n);
            let mut link = self.links[li].lock();
            let link_due = link.tx.tick(
                now,
                closed,
                &self.fstats,
                |kind, seq| self.trace_fault(src, kind, src, dst, seq),
                wire,
            );
            for c in wire.drain(..) {
                self.arrive(&mut link, src, dst, now, closed, c);
            }
            due = [due, link_due].into_iter().flatten().min();
        }
        due
    }

    /// Deliver a message block from `src` into `dst`'s mailbox on the
    /// default (exactly-once) channel. The block **moves** — no copy is
    /// taken; share it first to keep a handle. Never blocks; the
    /// simulated wire has unbounded buffering, like the
    /// reliable-delivery abstraction the MMI exposes.
    #[inline]
    pub fn send(&self, src: usize, dst: usize, block: impl Into<MsgBlock>) {
        self.send_on(src, dst, block, Channel::DEFAULT);
    }

    /// Like [`Interconnect::send`] but on an explicit delivery
    /// channel: the channel's [`Delivery`] guarantee governs what the
    /// QoS layer does on loss, duplication, and supersession. Channel
    /// ordering is per `(link, channel)` — messages on different
    /// channels of one link may interleave arbitrarily.
    #[inline]
    pub fn send_on(&self, src: usize, dst: usize, block: impl Into<MsgBlock>, channel: Channel) {
        let block = block.into();
        self.count_send(src, block.len());
        self.transmit(src, dst, channel, block);
    }

    /// Count one send of `bytes` payload bytes against `src`. Public for
    /// a transport that carries `src`'s remote sends on a wire of its own
    /// and keeps this `Interconnect` as its local half: one set of send
    /// counters per rank, whichever wire a message left on.
    #[inline]
    pub fn count_send(&self, src: usize, bytes: usize) {
        let t = &self.traffic[src];
        bump(&t.msgs_sent, 1);
        bump(&t.bytes_sent, bytes as u64);
    }

    /// Deliver a block that `src` sent from **another address space**
    /// into `dst`'s mailbox, waking `dst` if it is parked: how a
    /// multi-process transport hands on what came off its wire. Under a
    /// plan the block crosses link `src → dst`, both halves in this
    /// process, so the plan acts where the message enters its PE; the
    /// wire under it must be reliable and FIFO per `src`, since the link
    /// numbers arrivals as they come. Not counted as a send: `src`'s own
    /// process did that when the block left.
    #[inline]
    pub fn deliver(&self, src: usize, dst: usize, block: impl Into<MsgBlock>, channel: Channel) {
        self.transmit(src, dst, channel, block.into());
    }

    /// Deliver a block into `dst`'s mailbox from *outside* the machine —
    /// the entry point used by front-ends such as CCS that inject
    /// external request traffic. The packet's `src` reads as `dst`
    /// itself (there is no external PE id), so injects keep FIFO order
    /// among themselves, but they are **not** ordered against the PE's
    /// own sends to itself, which its running context may put on a local
    /// queue of its own that never enters this mailbox. The traffic is
    /// counted under the separate `msgs_injected`/`bytes_injected`
    /// counters, never as sends — so [`Interconnect::load_snapshot`] is
    /// not skewed by external volume. It is subject to the same
    /// [`DeliveryMode`] scrambling — and the same fault plane — as
    /// native sends.
    pub fn inject(&self, dst: usize, block: impl Into<MsgBlock>) {
        let block = block.into();
        let t = &self.traffic[dst];
        t.msgs_injected.fetch_add(1, Ordering::Relaxed);
        t.bytes_injected
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        self.transmit(dst, dst, Channel::DEFAULT, block);
    }

    /// The in-process broadcast ([`CmiTransport::broadcast`]), to every
    /// PE or every PE but `src` (`CmiSyncBroadcast` semantics: the paper
    /// notes the broadcast is *not* a barrier — only the sender calls
    /// it). One block, P−1 or P refcount bumps: every destination's
    /// packet aliases the same allocation. It **pre-stages** all
    /// per-destination shares before touching any link or mailbox lock,
    /// then runs the append loop. The refcount traffic (P bumps on one allocation, nothing
    /// else) completes up front, so no destination's inbox lock is ever
    /// held while another share is being minted — the append loop holds
    /// exactly one short lock at a time. The original handle is dropped
    /// before the appends, so a broadcast to P PEs is exactly 1
    /// allocation + P live references, which tests assert via
    /// [`MsgBlock::ref_count`] and the pool's take counter.
    fn broadcast_to(&self, src: usize, block: MsgBlock, include_src: bool) {
        let mut shares: Vec<(usize, MsgBlock)> = Vec::with_capacity(self.num_pes());
        for dst in 0..self.num_pes() {
            if include_src || dst != src {
                shares.push((dst, block.share()));
            }
        }
        drop(block);
        for (dst, b) in shares {
            self.send(src, dst, b);
        }
    }

    /// True while `pe` sits inside a stall window — scripted by the
    /// fault plan or armed via [`Interconnect::stall_for`]. A stalled
    /// PE's receive paths yield nothing (its mailbox keeps filling). A
    /// closed machine overrides every stall so teardown can drain.
    #[inline]
    pub fn stalled(&self, pe: usize) -> bool {
        if !self.has_stalls.load(Ordering::Acquire) || self.is_closed() {
            return false;
        }
        let t = self.uptime();
        self.stalls
            .lock()
            .iter()
            .any(|w| w.pe == pe && t >= w.from && w.to.is_none_or(|to| t < to))
    }

    /// Arm a stall window for `pe` covering the next `dur` of uptime.
    /// Packets keep queuing; the PE's receive paths return nothing until
    /// the window passes. Usable with or without a fault plan — this is
    /// how tests stall a PE *after* boot-time barriers have completed.
    pub fn stall_for(&self, pe: usize, dur: Duration) {
        assert!(pe < self.num_pes(), "stall_for: PE {pe} out of range");
        let from = self.uptime();
        self.stalls.lock().push(StallWindow {
            pe,
            from,
            to: Some(from + dur),
        });
        self.has_stalls.store(true, Ordering::Release);
    }

    /// Non-blocking receive: the next packet for `pe`, if any. Yields
    /// nothing while `pe` is stalled. This is the thin single-message
    /// wrapper over the mailbox; bulk consumers (the scheduler) should
    /// use [`Interconnect::drain_into`] or [`Interconnect::refill`]
    /// instead, which amortize the lock traffic over whole batches.
    #[inline]
    pub fn try_recv(&self, pe: usize) -> Option<Packet> {
        if self.stalled(pe) {
            return None;
        }
        let out = self.mailbox_pop(pe);
        if out.is_some() {
            bump(&self.traffic[pe].msgs_recv, 1);
        }
        out
    }

    /// Batched receive: move **every** packet currently queued for `pe`
    /// into `out` (preserving delivery order) and return how many moved,
    /// under one inbox lock acquisition. Yields nothing while `pe` is
    /// stalled.
    #[inline]
    pub fn drain_into(&self, pe: usize, out: &mut Vec<Packet>) -> usize {
        self.drain_into_bounded(pe, out, usize::MAX)
    }

    /// Like [`Interconnect::drain_into`] but moves at most `max`
    /// packets off the front under one inbox lock; the remainder stays
    /// queued, still ahead of anything later in delivery order.
    #[inline]
    pub fn drain_into_bounded(
        &self,
        pe: usize,
        out: &mut impl Extend<Packet>,
        max: usize,
    ) -> usize {
        if max == 0 || self.stalled(pe) {
            return 0;
        }
        let mbox = &self.boxes[pe];
        if mbox.depth() == 0 {
            return 0;
        }
        let mut inbox = mbox.inbox.lock();
        let n = inbox.len().min(max);
        out.extend(inbox.drain(..n));
        mbox.inbox_len.store(inbox.len(), Ordering::Release);
        drop(inbox);
        if n > 0 {
            bump(&self.traffic[pe].msgs_recv, n as u64);
        }
        n
    }

    /// The PE's refill of its intake buffer: up to `max` packets off the
    /// front of `pe`'s inbox, appended to `intake` in delivery order,
    /// and if that leaves the batch short and `pe` has a polled source,
    /// a sweep of it and a second drain. Then all of `local`, the PE's
    /// own queue of sends to itself, goes in *behind* that batch (counted
    /// as received like the rest): a PE that keeps sending to itself
    /// still reads its mailbox first. Nothing moves while `pe` is stalled.
    #[inline]
    pub fn refill(
        &self,
        pe: usize,
        intake: &mut VecDeque<Packet>,
        local: &mut VecDeque<Packet>,
        max: usize,
    ) -> usize {
        let mut n = self.drain_into_bounded(pe, intake, max);
        if n < max && self.boxes[pe].source.get().is_some() {
            n += self.sweep_and_refill(pe, intake, max - n);
        }
        if !local.is_empty() && !self.stalled(pe) {
            let m = local.len();
            if intake.is_empty() {
                std::mem::swap(intake, local);
            } else {
                intake.append(local);
            }
            bump(&self.traffic[pe].msgs_recv, m as u64);
            n += m;
        }
        n
    }

    /// The polled half of [`Interconnect::refill`], out of line: a PE
    /// without a source never reaches it.
    #[inline(never)]
    fn sweep_and_refill(&self, pe: usize, intake: &mut VecDeque<Packet>, max: usize) -> usize {
        match self.boxes[pe].source() {
            Some(s) if s.sweep().is_none() => self.drain_into_bounded(pe, intake, max),
            _ => 0,
        }
    }

    /// Blocking receive with timeout. Returns `None` on timeout or once
    /// the machine has been closed and the mailbox drained. Waits in
    /// [`Interconnect::wait_nonempty`] (no spin), so while `pe` is
    /// stalled the call sleeps in short slices — it never pops a packet
    /// inside a stall window.
    pub fn recv_timeout(&self, pe: usize, timeout: Duration) -> Option<Packet> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.try_recv(pe) {
                return Some(p);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || (self.is_closed() && self.pending(pe) == 0) {
                return None;
            }
            self.wait_nonempty(pe, left, 0);
        }
    }

    /// Wait until `pe`'s mailbox is non-empty, the machine closes, or
    /// `timeout` expires: first spin up to `spin` iterations on the
    /// lock-free mailbox depth (so a message landing within the budget is
    /// noticed without paying a condvar wakeup), then park. Returns the
    /// spin iterations consumed (`spin` when the call parked). Only the
    /// PE's idle turn waits here, and `recv_timeout`. Each spin of a PE
    /// with a polled source is a sweep of it. With stall windows armed
    /// it parks at once — a stalled PE must not burn a core polling mail
    /// it cannot read — and a stalled PE parks for the duration (a
    /// non-empty mailbox it is forbidden to read is not a wake condition).
    pub fn wait_nonempty(&self, pe: usize, timeout: Duration, spin: u32) -> u32 {
        let mbox = &self.boxes[pe];
        let source = mbox.source();
        if spin > 0 && !self.has_stalls.load(Ordering::Acquire) {
            for i in 0..spin {
                if mbox.depth() > 0
                    || self.closed.load(Ordering::Acquire)
                    || source.as_ref().is_some_and(|s| s.sweep().is_none())
                {
                    return i;
                }
                std::hint::spin_loop();
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return spin;
            }
            // A polled source is swept before every look at the mailbox,
            // inside a stall too: a stall holds up handlers, not producers.
            let swept = source.as_deref().map(|s| (s, s.sweep()));
            if self.stalled(pe) {
                std::thread::sleep(STALL_SLICE.min(deadline.saturating_duration_since(now)));
                continue;
            }
            let q = mbox.inbox.lock();
            if !q.is_empty() || self.closed.load(Ordering::Acquire) {
                return spin;
            }
            let bell = match swept {
                // It moved something (seen above) or another thread sweeps.
                Some((_, None)) => continue,
                Some((s, Some(epoch))) => Some((s, epoch)),
                None => None,
            };
            let wake = if self.has_stalls.load(Ordering::Acquire) {
                (now + STALL_SLICE).min(deadline)
            } else {
                deadline
            };
            if mbox.park(q, wake, bell) && wake == deadline {
                return spin;
            }
        }
    }

    /// Queued (undelivered) packet count for `pe` — one atomic read,
    /// safe to poll from monitoring paths at any rate.
    #[inline]
    pub fn pending(&self, pe: usize) -> usize {
        self.boxes[pe].depth()
    }

    /// Mark the machine closed and wake all blocked receivers. Receives
    /// drain remaining packets, then return `None`. Stall windows stop
    /// applying; the fault pump does one final limbo flush and exits.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for b in &self.boxes {
            // Hold the lock so a receiver between its check and its wait
            // cannot miss the notification.
            let _q = b.inbox.lock();
            b.cv.notify_all();
            if let Some(s) = b.source() {
                s.wake();
            }
        }
    }

    /// Give `pe` a polled source (see [`PolledSource`]); once per PE.
    pub fn set_source(&self, pe: usize, source: Weak<dyn PolledSource>) {
        if self.boxes[pe].source.set(source).is_err() {
            panic!("PE {pe} already has a polled source");
        }
    }

    /// True once [`Interconnect::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Traffic counters for `pe`.
    pub fn traffic(&self, pe: usize) -> PeTraffic {
        let t = &self.traffic[pe];
        PeTraffic {
            msgs_sent: t.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: t.bytes_sent.load(Ordering::Relaxed),
            msgs_recv: t.msgs_recv.load(Ordering::Relaxed),
            msgs_injected: t.msgs_injected.load(Ordering::Relaxed),
            bytes_injected: t.bytes_injected.load(Ordering::Relaxed),
        }
    }

    /// Live load snapshot for one PE: cumulative traffic counters plus
    /// the current mailbox depth and stall state.
    fn load_of(&self, pe: usize) -> PeLoad {
        PeLoad {
            pe,
            traffic: self.traffic(pe),
            queued: self.pending(pe),
            run_queue: self.run_queues[pe].load(Ordering::Relaxed),
            stalled: self.stalled(pe),
        }
    }

    /// Publish `pe`'s own scheduler sample, its run-queue depth. Called
    /// (throttled) from the scheduler loop; single-writer per PE, so a
    /// plain store suffices.
    pub fn publish_load(&self, pe: usize, run_queue: usize) {
        self.run_queues[pe].store(run_queue, Ordering::Relaxed);
    }

    /// Extract up to `max` *stealable* packets from `victim`'s mailbox,
    /// preserving relative FIFO order of both the stolen packets and
    /// the survivors.
    ///
    /// Only packets the victim has not drained yet are in reach, and
    /// only those that are (a) flag-tagged relocatable by their sender
    /// ([`converse_msg::FLAG_STEALABLE`]) and (b) on the default channel
    /// qualify. Every packet in the mailbox has already cleared the
    /// reliability sublayer (in order, deduplicated), so moving one
    /// leaves no per-link stream state behind. Non-default channels
    /// carry per-channel delivery guarantees (ordering, LVW supersede)
    /// that a relocation would silently break, so their packets stay
    /// put regardless of the flag.
    ///
    /// Public for the socket transport, which extracts the batch here
    /// and donates it over the wire; in-process callers want
    /// [`Interconnect::steal_from`].
    pub fn steal_take(&self, victim: usize, max: usize) -> Vec<Packet> {
        if max == 0 {
            return Vec::new();
        }
        let mbox = &self.boxes[victim];
        let mut inbox = mbox.inbox.lock();
        let mut stolen = Vec::new();
        // Walk back-to-front so removals don't shift unvisited indices;
        // newest work is taken first, which also leaves the oldest
        // (soonest-executed) packets with their owner.
        let mut i = inbox.len();
        while i > 0 && stolen.len() < max {
            i -= 1;
            let p = &inbox[i];
            if p.channel.id == 0 && converse_msg::peek_stealable(p.block.as_slice()) {
                stolen.push(inbox.remove(i).expect("index in range"));
            }
        }
        mbox.inbox_len.store(inbox.len(), Ordering::Release);
        drop(inbox);
        // Collected newest-first; restore original arrival order.
        stolen.reverse();
        stolen
    }

    /// Move up to `max` stealable packets from `victim`'s mailbox into
    /// `thief`'s; returns how many moved. Donated packets go straight
    /// into the thief's mailbox — they already cleared the reliability
    /// sublayer at the victim, so they carry no per-link stream state.
    /// The two mailbox locks are never held at once.
    pub fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        if victim == thief {
            return 0;
        }
        let stolen = self.steal_take(victim, max);
        let n = stolen.len();
        for p in stolen {
            self.mailbox_insert(p.src, thief, p.channel, p.block, true);
        }
        if n > 0 {
            self.boxes[thief].ring();
            self.mark_steal_splice(thief);
        }
        n
    }

    /// Stamp the instant a donated batch was spliced into `thief`'s
    /// mailbox (keeping the oldest pending mark), so its scheduler can
    /// time splice→first-run. Public for the transports whose donations
    /// arrive over a wire of their own.
    pub fn mark_steal_splice(&self, thief: usize) {
        let now = self.uptime().as_nanos() as u64;
        let _ = self.steal_marks[thief].compare_exchange(
            0,
            now.max(1),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Take-and-clear `pe`'s steal splice mark: the uptime nanosecond
    /// at which the oldest not-yet-measured donated batch entered
    /// `pe`'s mailbox, or 0 when none is pending.
    pub fn take_steal_mark(&self, pe: usize) -> u64 {
        if self.steal_marks[pe].load(Ordering::Relaxed) == 0 {
            return 0;
        }
        self.steal_marks[pe].swap(0, Ordering::AcqRel)
    }

    /// Snapshot of every PE's load, in PE order. The per-PE reads are
    /// not mutually atomic (the machine keeps running underneath), which
    /// is fine for the monitoring/balancing uses this serves.
    pub fn load_snapshot(&self) -> Vec<PeLoad> {
        (0..self.num_pes()).map(|pe| self.load_of(pe)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn send_then_recv() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![1, 2, 3]);
        let p = net.try_recv(1).unwrap();
        assert_eq!(p.src, 0);
        assert_eq!(p.bytes(), vec![1, 2, 3]);
        assert!(net.try_recv(1).is_none());
    }

    #[test]
    fn self_send_works() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![9]);
        assert_eq!(net.try_recv(0).unwrap().bytes(), vec![9]);
    }

    #[test]
    fn fifo_per_pair_order() {
        let net = Interconnect::new(2);
        for i in 0..10u8 {
            net.send(0, 1, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(net.try_recv(1).unwrap().bytes(), vec![i]);
        }
    }

    #[test]
    fn broadcast_excl_skips_sender() {
        let net = Interconnect::new(4);
        net.broadcast_to(1, vec![7u8].into(), false);
        assert!(net.try_recv(1).is_none());
        for pe in [0, 2, 3] {
            assert_eq!(net.try_recv(pe).unwrap().bytes(), vec![7]);
        }
    }

    #[test]
    fn broadcast_all_includes_sender() {
        let net = Interconnect::new(3);
        net.broadcast_to(0, vec![8u8].into(), true);
        for pe in 0..3 {
            assert_eq!(net.try_recv(pe).unwrap().bytes(), vec![8]);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let net = Interconnect::new(2);
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.recv_timeout(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        net.send(0, 1, vec![42]);
        let p = h.join().unwrap().unwrap();
        assert_eq!(p.bytes(), vec![42]);
    }

    #[test]
    fn recv_timeout_expires() {
        let net = Interconnect::new(1);
        let t0 = Instant::now();
        assert!(net.recv_timeout(0, Duration::from_millis(30)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let net = Interconnect::new(1);
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.recv_timeout(0, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        net.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn closed_machine_still_drains_mailbox() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![5]);
        net.close();
        assert_eq!(
            net.recv_timeout(0, Duration::from_millis(10))
                .unwrap()
                .bytes(),
            vec![5]
        );
        assert!(net.recv_timeout(0, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn reorder_mode_delivers_everything() {
        let net =
            Interconnect::with_config(2, DeliveryMode::Reorder { seed: 7, window: 8 }, None, None);
        let n = 100u8;
        for i in 0..n {
            net.send(0, 1, vec![i]);
        }
        let mut got: Vec<u8> = (0..n)
            .map(|_| net.try_recv(1).unwrap().bytes()[0])
            .collect();
        assert!(net.try_recv(1).is_none());
        let in_order = got.windows(2).all(|w| w[0] < w[1]);
        assert!(!in_order, "reorder mode should scramble order");
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn reorder_is_deterministic_per_seed() {
        let run = |seed| {
            let net =
                Interconnect::with_config(2, DeliveryMode::Reorder { seed, window: 4 }, None, None);
            for i in 0..20u8 {
                net.send(0, 1, vec![i]);
            }
            (0..20)
                .map(|_| net.try_recv(1).unwrap().bytes()[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        // Pinned: each draw is keyed by the packet's arrival index on its
        // link, so counting arrivals any other way moves these.
        let one = [
            1, 5, 6, 4, 7, 3, 9, 2, 12, 11, 10, 15, 0, 16, 14, 8, 19, 17, 18, 13,
        ];
        let two = [
            1, 4, 2, 3, 5, 9, 8, 11, 0, 10, 6, 7, 16, 17, 14, 15, 19, 18, 13, 12,
        ];
        assert_eq!((run(1), run(2)), (one.to_vec(), two.to_vec()));
        // Three senders into PE 2 — PE 0, PE 1 and injects, which read as
        // PE 2 itself — through the link protocol under a plan that
        // injects no fault: each link keys its own draws.
        let mixed = {
            let mode = DeliveryMode::Reorder { seed: 5, window: 4 };
            let net = Interconnect::with_config(3, mode, Some(FaultPlan::new(3)), None);
            for i in 0..8u8 {
                net.send(0, 2, vec![i]);
                net.send(1, 2, vec![16 + i]);
                net.inject(2, vec![32 + i]);
            }
            let got: Vec<u8> = (0..24)
                .map(|_| net.try_recv(2).unwrap().bytes()[0])
                .collect();
            net.close();
            got
        };
        let pinned = [
            0, 32, 16, 1, 33, 17, 3, 19, 34, 18, 4, 5, 35, 2, 6, 36, 20, 7, 23, 37, 38, 22, 39, 21,
        ];
        assert_eq!(mixed, pinned);
    }

    #[test]
    fn a_packet_is_src_channel_and_block() {
        // Source, channel (id + guarantee) and block: no sequence number.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<Packet>(), 24);
    }

    #[test]
    fn traffic_counters() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![0; 100]);
        net.send(0, 1, vec![0; 50]);
        net.try_recv(1);
        let t0 = net.traffic(0);
        assert_eq!(t0.msgs_sent, 2);
        assert_eq!(t0.bytes_sent, 150);
        assert_eq!(net.traffic(1).msgs_recv, 1);
        assert_eq!(net.traffic(1).msgs_sent, 0);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = Interconnect::new(0);
    }

    #[test]
    fn pending_counts() {
        let net = Interconnect::new(2);
        assert_eq!(net.pending(1), 0);
        net.send(0, 1, vec![1]);
        net.send(0, 1, vec![2]);
        assert_eq!(net.pending(1), 2);
        net.try_recv(1);
        assert_eq!(net.pending(1), 1);
    }

    #[test]
    fn inject_and_load_snapshot() {
        let net = Interconnect::new(3);
        net.inject(2, vec![1, 2, 3]);
        net.send(0, 2, vec![4]);
        let snap = net.load_snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[2].pe, 2);
        assert_eq!(snap[2].queued, 2);
        assert_eq!(snap[0].traffic.msgs_sent, 1);
        // Injected traffic is accounted separately: it must not inflate
        // the destination's own send counters.
        assert_eq!(snap[2].traffic.msgs_sent, 0);
        assert_eq!(snap[2].traffic.bytes_sent, 0);
        assert_eq!(snap[2].traffic.msgs_injected, 1);
        assert_eq!(snap[2].traffic.bytes_injected, 3);
        let sum = |f: fn(&PeLoad) -> u64| snap.iter().map(f).sum::<u64>();
        assert_eq!(sum(|l| l.traffic.msgs_sent), 1);
        assert_eq!(sum(|l| l.traffic.msgs_injected), 1);
        // The injected packet still reads as coming from the destination
        // itself (there is no external PE id).
        assert_eq!(net.try_recv(2).unwrap().src, 2);
        assert_eq!(net.load_of(2).queued, 1);
    }

    #[test]
    fn broadcast_is_one_allocation_and_all_packets_alias() {
        let net = Interconnect::new(8);
        let block = MsgBlock::copy_from(&[9u8; 777]);
        let src_ptr = block.as_ptr();
        let takes = converse_msg::pool::stats().takes();
        net.broadcast_to(0, block, true);
        assert_eq!(
            converse_msg::pool::stats().takes(),
            takes,
            "broadcast must be refcount bumps only — zero further allocations"
        );
        for pe in 0..8 {
            let p = net.try_recv(pe).unwrap();
            assert_eq!(p.bytes(), &[9u8; 777][..]);
            assert_eq!(
                p.block.as_ptr(),
                src_ptr,
                "PE {pe}'s packet must alias the sender's allocation"
            );
        }
    }

    #[test]
    fn send_moves_block_without_copy() {
        let net = Interconnect::new(2);
        let block = MsgBlock::copy_from(b"zero copy");
        let ptr = block.as_ptr();
        net.send(0, 1, block);
        assert_eq!(net.try_recv(1).unwrap().block.as_ptr(), ptr);
    }

    #[test]
    fn wait_nonempty_returns_when_message_arrives() {
        let net = Interconnect::new(2);
        let net2 = net.clone();
        let h = std::thread::spawn(move || {
            net2.wait_nonempty(1, Duration::from_secs(5), 0);
            net2.pending(1)
        });
        std::thread::sleep(Duration::from_millis(20));
        net.send(0, 1, vec![1]);
        assert_eq!(h.join().unwrap(), 1);
    }

    // ---- doorbell ----------------------------------------------------

    fn wakes(net: &Interconnect, pe: usize) -> u64 {
        net.boxes[pe].wakes.load(Ordering::Relaxed)
    }

    /// Spin until `pe`'s receiver has parked. The flag is set under the
    /// inbox lock that the wait then releases, so a send issued after
    /// this returns finds the receiver parked.
    fn await_parked(net: &Interconnect, pe: usize) {
        while !net.boxes[pe].parked.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn sends_to_an_awake_receiver_never_wake() {
        let net = Interconnect::new(2);
        let mut got = Vec::new();
        for i in 0..10_000u32 {
            net.send(0, 1, i.to_le_bytes().to_vec());
            if i % 64 == 63 {
                net.drain_into(1, &mut got);
            }
        }
        net.drain_into(1, &mut got);
        assert_eq!(got.len(), 10_000);
        assert_eq!(wakes(&net, 1), 0, "nobody was parked");
    }

    #[test]
    fn a_window_of_sends_to_a_parked_receiver_wakes_it_once() {
        let net = Interconnect::new(2);
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.wait_nonempty(1, Duration::from_secs(30), 0));
        await_parked(&net, 1);
        for i in 0..64u8 {
            net.send(0, 1, vec![i]);
        }
        h.join().unwrap();
        assert_eq!(net.pending(1), 64);
        assert_eq!(wakes(&net, 1), 1, "one wake per park, not per send");
        // Awake again (nobody is waiting): further sends are free.
        net.send(0, 1, vec![64]);
        assert_eq!(wakes(&net, 1), 1);
    }

    /// A polled source whose arrivals wait in a list for PE 1; it parks
    /// by yielding until its doorbell moves.
    struct ListSource {
        net: Weak<Interconnect>,
        arrivals: Mutex<Vec<u8>>,
        bell: AtomicU32,
    }

    impl PolledSource for ListSource {
        fn sweep(&self) -> Option<u32> {
            let epoch = self.bell.load(Ordering::SeqCst);
            let got = std::mem::take(&mut *self.arrivals.lock());
            let net = self.net.upgrade().unwrap();
            for &b in &got {
                net.deliver(0, 1, vec![b], Channel::DEFAULT);
            }
            got.is_empty().then_some(epoch)
        }
        fn park(&self, epoch: u32, until: Instant) {
            while self.bell.load(Ordering::SeqCst) == epoch && Instant::now() < until {
                std::thread::yield_now();
            }
        }
        fn wake(&self) {
            self.bell.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn with_source(net: &Arc<Interconnect>) -> Arc<ListSource> {
        let source = Arc::new(ListSource {
            net: Arc::downgrade(net),
            arrivals: Mutex::new(Vec::new()),
            bell: AtomicU32::new(0),
        });
        net.set_source(1, Arc::downgrade(&source) as Weak<dyn PolledSource>);
        source
    }

    #[test]
    fn a_receiver_with_a_source_parks_on_its_doorbell() {
        let net = Interconnect::new(2);
        let source = with_source(&net);
        // An arrival on the source: the producer rings the doorbell.
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.recv_timeout(1, Duration::from_secs(30)));
        await_parked(&net, 1);
        source.arrivals.lock().push(7);
        source.wake();
        assert_eq!(h.join().unwrap().expect("swept").bytes(), vec![7]);
        // A mailbox delivery: the mailbox's wake rings the doorbell.
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.recv_timeout(1, Duration::from_secs(30)));
        await_parked(&net, 1);
        let bell = source.bell.load(Ordering::SeqCst);
        net.send(0, 1, vec![8]);
        assert_eq!(h.join().unwrap().expect("woken").bytes(), vec![8]);
        assert_eq!(wakes(&net, 1), 1);
        assert_eq!(source.bell.load(Ordering::SeqCst), bell + 1);
        // Closing the machine rings it too.
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.recv_timeout(1, Duration::from_secs(30)));
        await_parked(&net, 1);
        net.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn a_stalled_receiver_still_sweeps_its_source() {
        let net = Interconnect::new(2);
        let source = with_source(&net);
        net.stall_for(1, Duration::from_secs(60));
        source.arrivals.lock().extend([1, 2, 3]);
        net.wait_nonempty(1, Duration::from_millis(10), 0);
        assert!(
            source.arrivals.lock().is_empty(),
            "the stall held up the source"
        );
        assert_eq!(net.pending(1), 3);
        assert!(net.try_recv(1).is_none(), "but not the stall");
    }

    /// A source with one more arrival at every sweep.
    struct Endless(Weak<Interconnect>);

    impl PolledSource for Endless {
        fn sweep(&self) -> Option<u32> {
            let net = self.0.upgrade().unwrap();
            net.deliver(0, 1, vec![0], Channel::DEFAULT);
            None
        }
        fn park(&self, _: u32, until: Instant) {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        fn wake(&self) {}
    }

    #[test]
    fn a_source_that_never_runs_dry_does_not_hold_up_its_receiver() {
        let net = Interconnect::new(2);
        let source = Arc::new(Endless(Arc::downgrade(&net)));
        net.set_source(1, Arc::downgrade(&source) as Weak<dyn PolledSource>);
        let t0 = Instant::now();
        net.wait_nonempty(1, Duration::from_secs(5), 0);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "swept for {took:?}");
        assert!(net.pending(1) > 0);
    }

    #[test]
    fn pump_thread_delivery_wakes_a_parked_receiver() {
        // Every copy is delayed into limbo, so the only thread that ever
        // inserts into PE 1's mailbox is the fault pump.
        let plan = fast_plan(11).faults(LinkFaults {
            drop: 0.0,
            dup: 0.0,
            delay: 1.0,
            max_delay_slots: 50,
        });
        let net = chaos_net(plan, 2);
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.recv_timeout(1, Duration::from_secs(30)));
        await_parked(&net, 1);
        net.send(0, 1, vec![7]);
        let p = h
            .join()
            .unwrap()
            .expect("the pump's delivery woke the receiver");
        assert_eq!(p.bytes(), vec![7]);
        assert_eq!(wakes(&net, 1), 1);
        net.close();
    }

    // ---- fault plane + reliability sublayer ---------------------------

    /// A plan with timing tight enough for unit tests.
    fn fast_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .retransmit(Duration::from_micros(500), Duration::from_millis(5))
            .tick(Duration::from_micros(200))
    }

    fn chaos_net(plan: FaultPlan, n: usize) -> Arc<Interconnect> {
        Interconnect::with_config(n, DeliveryMode::Fifo, Some(plan), None)
    }

    /// Drain `count` packets for `pe`, panicking if the net stops
    /// producing them.
    fn drain(net: &Interconnect, pe: usize, count: usize) -> Vec<Packet> {
        (0..count)
            .map(|i| {
                net.recv_timeout(pe, Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("packet {i}/{count} never arrived"))
            })
            .collect()
    }

    #[test]
    fn lossy_link_still_delivers_exactly_once_in_order() {
        let plan = fast_plan(0xBAD5EED).faults(LinkFaults {
            drop: 0.5,
            dup: 0.3,
            delay: 0.5,
            max_delay_slots: 3,
        });
        let net = chaos_net(plan, 2);
        let n = 200u32;
        for i in 0..n {
            net.send(0, 1, i.to_le_bytes().to_vec());
        }
        let got = drain(&net, 1, n as usize);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(
                u32::from_le_bytes(p.bytes().try_into().unwrap()),
                i as u32,
                "payloads must arrive exactly once, in per-link order"
            );
        }
        // Exactly once: nothing further may surface, even after giving
        // straggler duplicates time to be pumped out of limbo.
        std::thread::sleep(Duration::from_millis(20));
        assert!(net.try_recv(1).is_none(), "duplicate escaped dedup");
        let s = net.fault_stats();
        assert!(
            s.dropped > 0 && s.retransmitted > 0,
            "plan was exercised: {s:?}"
        );
        assert!(
            s.duplicated > 0 && s.dedup_dropped > 0,
            "dup path exercised: {s:?}"
        );
        net.close();
    }

    #[test]
    fn clean_plan_is_invisible_but_counts_transmissions() {
        let net = chaos_net(fast_plan(1), 2);
        for i in 0..50u8 {
            net.send(0, 1, vec![i]);
        }
        for i in 0..50u8 {
            assert_eq!(net.try_recv(1).unwrap().bytes(), vec![i]);
        }
        let s = net.fault_stats();
        assert_eq!(s.transmissions, 50);
        assert_eq!(s.dropped + s.duplicated + s.delayed + s.dedup_dropped, 0);
        net.close();
    }

    #[test]
    fn delayed_packets_surface_in_order_after_pump() {
        // Every packet delayed: nothing is immediately receivable, but
        // the pump releases limbo copies and order still holds.
        let plan = fast_plan(3).faults(LinkFaults {
            drop: 0.0,
            dup: 0.0,
            delay: 1.0,
            max_delay_slots: 2,
        });
        let net = chaos_net(plan, 2);
        for i in 0..20u8 {
            net.send(0, 1, vec![i]);
        }
        assert!(net.try_recv(1).is_none(), "all copies should sit in limbo");
        let got = drain(&net, 1, 20);
        let payloads: Vec<u8> = got.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(payloads, (0..20).collect::<Vec<_>>());
        // ≥, not ==: spurious retransmits of limbo-held packets get
        // delayed again by the same plan.
        assert!(net.fault_stats().delayed >= 20);
        net.close();
    }

    #[test]
    fn identical_seeds_produce_identical_fault_traces() {
        // Satellite regression: two identically-seeded runs emit the
        // same trace event sequence. A dup-only plan keeps every fault
        // decision on the sender's thread (no pump involvement), so the
        // full per-PE sequence is deterministic.
        let run = |seed: u64| {
            let sink = converse_trace::MemorySink::new(2, 4096);
            let plan = fast_plan(seed).faults(LinkFaults {
                drop: 0.0,
                dup: 0.5,
                delay: 0.0,
                max_delay_slots: 0,
            });
            let net = Interconnect::with_config(
                2,
                DeliveryMode::Fifo,
                Some(plan),
                Some(sink.clone() as Arc<dyn TraceSink>),
            );
            for i in 0..100u32 {
                net.send(0, 1, i.to_le_bytes().to_vec());
            }
            let _ = drain(&net, 1, 100);
            net.close();
            let events: Vec<Event> = (0..2)
                .flat_map(|pe| sink.records(pe))
                .map(|r| r.event)
                .collect();
            assert!(!events.is_empty(), "dup plan must emit fault events");
            events
        };
        assert_eq!(run(42), run(42), "same seed must replay the same schedule");
        assert_ne!(run(42), run(43), "different seeds must diverge");
    }

    #[test]
    fn decision_streams_are_pinned() {
        // Recorded on the commit before the link protocol was extracted
        // (two copies of the sublayer, this one in `Interconnect`): with
        // timers of an hour nothing is retransmitted or released, so the
        // counters and the delivered seqs are the seed's draws and the
        // per-guarantee buffering rules, nothing else. One number moved
        // with a rule the two copies disagreed on: an acked seq now
        // leaves limbo (the wire's rule), so the 92 delayed twins of
        // already-delivered latest-value-wins values are retired by
        // their ack and no longer count as superseded (2879 before).
        //
        // The exactly-once row was re-pinned once more, with ack-clocked
        // recovery (PR 22): a dropped seq is resent on the third ack for
        // a later one, no timer involved, so `retransmitted` is no
        // longer 0 and every resend is a further draw (10468 / 975 /
        // 468 / 933 / 390 before). What is delivered did not move: the
        // plan delays the only copy of seq 2, a copy in limbo is not
        // presumed lost, and the hour-long tick never releases it. The
        // other two rows are as recorded: at-most-once has no acks,
        // latest-value-wins nothing unacked below the seq an ack answers.
        // (channel, transmissions, dropped, duplicated, delayed,
        //  retransmitted, dedup_dropped, superseded, delivered, fnv-1a
        //  of the seq list)
        let pinned = [
            (
                Channel::DEFAULT,
                11591,
                1074,
                517,
                1038,
                1074,
                431,
                0,
                1,
                0x89cd31291d2aefa4,
            ),
            (
                AMO,
                10460,
                924,
                460,
                943,
                0,
                372,
                0,
                8221,
                0xba549e3a36eadb91,
            ),
            (
                LVW,
                10479,
                927,
                479,
                1025,
                0,
                381,
                2787,
                8146,
                0x81159299533388ae,
            ),
        ];
        let hour = Duration::from_secs(3600);
        for (channel, tx, dropped, duplicated, delayed, resent, dedup, superseded, count, hash) in
            pinned
        {
            let plan = FaultPlan::lossy(1996, 0.10, 0.05, 0.10, 2)
                .retransmit(hour, hour)
                .tick(hour);
            let net = chaos_net(plan, 2);
            let mut seqs: Vec<u64> = Vec::new();
            let mut out = Vec::new();
            for i in 0..10_000u32 {
                let mut b = [0u8; 16];
                b[..4].copy_from_slice(&i.to_le_bytes());
                net.send_on(0, 1, b.to_vec(), channel);
                // Drained per send, so the inbox supersede never hides
                // a latest-value-wins delivery.
                net.drain_into(1, &mut out);
                // A packet carries no seq: a delivered block's is its
                // send index + 1, as each send stamps the next one.
                let sent = |p: &Packet| u32::from_le_bytes(p.bytes()[..4].try_into().unwrap());
                seqs.extend(out.drain(..).map(|p| sent(&p) as u64 + 1));
            }
            let fnv = seqs
                .iter()
                .flat_map(|s| s.to_le_bytes())
                .fold(0xcbf29ce484222325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x100000001b3)
                });
            assert_eq!(
                net.fault_stats(),
                FaultStats {
                    transmissions: tx,
                    dropped,
                    duplicated,
                    delayed,
                    retransmitted: resent,
                    dedup_dropped: dedup,
                    superseded,
                },
                "channel {channel:?}"
            );
            assert_eq!((seqs.len(), fnv), (count, hash), "channel {channel:?}");
            // With no timer every resend was asked for by acks, and each
            // answers a drop; only the last few drops of the stream have
            // too few later sends behind them to be noticed.
            if channel == Channel::DEFAULT {
                assert!(resent <= dropped && dropped - resent <= 3);
            }
            net.close();
        }
    }

    #[test]
    fn stall_window_blocks_recv_until_it_passes() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![7]);
        net.stall_for(1, Duration::from_millis(60));
        assert!(net.stalled(1));
        assert!(net.try_recv(1).is_none(), "stalled PE must not pop");
        assert!(
            net.recv_timeout(1, Duration::from_millis(10)).is_none(),
            "blocking recv must not pop inside the window"
        );
        // Queue keeps filling underneath.
        net.send(0, 1, vec![8]);
        assert_eq!(net.pending(1), 2);
        assert!(net.load_of(1).stalled);
        // After the window, everything drains in order.
        let p = net.recv_timeout(1, Duration::from_secs(5)).unwrap();
        assert_eq!(p.bytes(), vec![7]);
        assert!(!net.stalled(1));
        assert_eq!(net.try_recv(1).unwrap().bytes(), vec![8]);
    }

    #[test]
    fn crash_window_never_recovers_but_close_overrides() {
        let plan = fast_plan(5).crash(0, Duration::ZERO);
        let net = chaos_net(plan, 1);
        net.send(0, 0, vec![1]);
        assert!(net.stalled(0));
        assert!(net.recv_timeout(0, Duration::from_millis(30)).is_none());
        // Teardown must still be able to drain the mailbox.
        net.close();
        assert!(!net.stalled(0));
        assert_eq!(
            net.recv_timeout(0, Duration::from_millis(100))
                .unwrap()
                .bytes(),
            vec![1]
        );
    }

    #[test]
    fn reliability_composes_with_reorder_mode() {
        // Reliability reassembles per-link sequence; reorder mode then
        // scrambles mailbox order on purpose. Exactly-once must still
        // hold: every payload surfaces once.
        let plan = fast_plan(9).faults(LinkFaults {
            drop: 0.3,
            dup: 0.2,
            delay: 0.3,
            max_delay_slots: 2,
        });
        let net = Interconnect::with_config(
            2,
            DeliveryMode::Reorder {
                seed: 11,
                window: 6,
            },
            Some(plan),
            None,
        );
        let n = 100u32;
        for i in 0..n {
            net.send(0, 1, i.to_le_bytes().to_vec());
        }
        let mut got: Vec<u32> = drain(&net, 1, n as usize)
            .iter()
            .map(|p| u32::from_le_bytes(p.bytes().try_into().unwrap()))
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        assert!(net.try_recv(1).is_none(), "duplicate escaped dedup");
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        net.close();
    }

    #[test]
    #[should_panic(expected = "no liveness")]
    fn plan_with_total_loss_rejected_at_boot() {
        let _ = chaos_net(FaultPlan::lossy(1, 1.0, 0.0, 0.0, 0), 2);
    }

    // ---- per-channel delivery guarantees ------------------------------

    const AMO: Channel = Channel::new(7, Delivery::AtMostOnce);
    const LVW: Channel = Channel::new(9, Delivery::LatestValueWins);

    #[test]
    fn at_most_once_never_duplicates_never_retransmits() {
        let plan = fast_plan(0xA0).faults(LinkFaults {
            drop: 0.3,
            dup: 0.5,
            delay: 0.3,
            max_delay_slots: 2,
        });
        let net = chaos_net(plan, 2);
        let n = 200u32;
        for i in 0..n {
            net.send_on(0, 1, i.to_le_bytes().to_vec(), AMO);
        }
        // Let the pump flush every limbo copy, then take what arrived.
        std::thread::sleep(Duration::from_millis(50));
        let mut out = Vec::new();
        net.drain_into(1, &mut out);
        let got: Vec<u32> = out
            .iter()
            .map(|p| u32::from_le_bytes(p.bytes().try_into().unwrap()))
            .collect();
        assert!(!got.is_empty(), "a 30% drop plan must let most through");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "at-most-once delivery must be strictly monotonic (no dups, no stale): {got:?}"
        );
        assert!(
            (got.len() as u32) < n,
            "drops must be real losses on an at-most-once channel"
        );
        let s = net.fault_stats();
        assert_eq!(s.retransmitted, 0, "at-most-once never retransmits: {s:?}");
        assert!(s.dropped > 0 && s.duplicated > 0, "plan exercised: {s:?}");
        assert!(
            s.dedup_dropped > 0,
            "duplicate copies must die at the monotonic floor: {s:?}"
        );
        net.close();
    }

    #[test]
    fn latest_value_wins_converges_to_final_value() {
        let plan = fast_plan(0x1A7E57).faults(LinkFaults {
            drop: 0.4,
            dup: 0.2,
            delay: 0.4,
            max_delay_slots: 3,
        });
        let net = chaos_net(plan, 2);
        let n = 100u32;
        for i in 0..n {
            net.send_on(0, 1, i.to_le_bytes().to_vec(), LVW);
        }
        // The last value is retransmitted until acked, so it must
        // surface; everything before it is best-effort but monotonic.
        let mut got: Vec<u32> = Vec::new();
        loop {
            let p = net
                .recv_timeout(1, Duration::from_secs(10))
                .expect("final value must converge");
            got.push(u32::from_le_bytes(p.bytes().try_into().unwrap()));
            if *got.last().unwrap() == n - 1 {
                break;
            }
        }
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "suffix-consistent: values strictly increase: {got:?}"
        );
        // Nothing may surface after the final value (stale copies die
        // at the floor).
        std::thread::sleep(Duration::from_millis(20));
        assert!(net.try_recv(1).is_none(), "stale value escaped the floor");
        let s = net.fault_stats();
        assert!(
            s.superseded > 0,
            "rapid-fire sends must supersede in-flight values: {s:?}"
        );
        net.close();
    }

    #[test]
    fn lvw_supersedes_queued_values_on_clean_wire() {
        // No fault plan at all: supersede still applies to values
        // queued in the destination inbox, whatever the delivery mode.
        for mode in [
            DeliveryMode::Fifo,
            DeliveryMode::Reorder { seed: 7, window: 4 },
        ] {
            let net = Interconnect::with_config(2, mode, None, None);
            for i in 0..5u8 {
                net.send_on(0, 1, vec![i], LVW);
            }
            assert_eq!(net.pending(1), 1, "older queued values must be dropped");
            let p = net.try_recv(1).unwrap();
            assert_eq!(p.bytes(), vec![4], "{mode:?}");
            assert_eq!(p.channel, LVW);
            assert_eq!(net.fault_stats().superseded, 4);
        }
    }

    #[test]
    fn channels_are_independent_sequenced_streams() {
        // A clean plan sequences every channel independently from 1 and
        // stays invisible; the default channel keeps its exact contract
        // next to AMO traffic on the same link.
        let net = chaos_net(fast_plan(2), 2);
        for i in 0..10u8 {
            net.send(0, 1, vec![i]);
            net.send_on(0, 1, vec![100 + i], AMO);
        }
        let mut def = Vec::new();
        let mut amo = Vec::new();
        for _ in 0..20 {
            let p = net.recv_timeout(1, Duration::from_secs(5)).unwrap();
            if p.channel.id == 0 {
                def.push(p.bytes()[0]);
                assert_eq!(p.channel, Channel::DEFAULT);
            } else {
                amo.push(p.bytes()[0]);
                assert_eq!(p.channel, AMO);
            }
        }
        assert_eq!(def, (0..10).collect::<Vec<_>>());
        assert_eq!(amo, (100..110).collect::<Vec<_>>());
        let s = net.fault_stats();
        assert_eq!(s.transmissions, 20);
        assert_eq!(s.dropped + s.duplicated + s.delayed + s.dedup_dropped, 0);
        net.close();
    }

    // ---- mailbox + batched drain --------------------------------------

    #[test]
    fn drain_into_moves_everything_in_order() {
        let net = Interconnect::new(2);
        for i in 0..50u8 {
            net.send(0, 1, vec![i]);
        }
        let mut out = Vec::new();
        assert_eq!(net.drain_into(1, &mut out), 50);
        let payloads: Vec<u8> = out.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
        assert_eq!(net.pending(1), 0);
        assert_eq!(net.traffic(1).msgs_recv, 50);
        assert_eq!(net.drain_into(1, &mut out), 0);
    }

    #[test]
    fn bounded_drain_leaves_remainder_ahead_of_new_arrivals() {
        let net = Interconnect::new(2);
        for i in 0..10u8 {
            net.send(0, 1, vec![i]);
        }
        let mut out = Vec::new();
        assert_eq!(net.drain_into_bounded(1, &mut out, 4), 4);
        assert_eq!(net.pending(1), 6);
        // New mail lands behind the undrained remainder: delivery order is
        // unchanged by where a bounded drain stopped.
        for i in 10..13u8 {
            net.send(0, 1, vec![i]);
        }
        // Mix single pops and a final drain; the order must read 0..13.
        out.push(net.try_recv(1).unwrap());
        net.drain_into(1, &mut out);
        let payloads: Vec<u8> = out.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(payloads, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn drain_respects_stall_window() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![1]);
        net.stall_for(1, Duration::from_millis(50));
        let mut out = Vec::new();
        assert_eq!(net.drain_into(1, &mut out), 0, "stalled PE must not drain");
        assert!(out.is_empty());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(net.drain_into(1, &mut out), 1);
    }

    #[test]
    fn drain_into_bounded_zero_is_a_noop() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![1]);
        let mut out = Vec::new();
        assert_eq!(net.drain_into_bounded(0, &mut out, 0), 0);
        assert_eq!(net.pending(0), 1);
    }

    /// A message-shaped byte block (8-byte header) tagged `tag`, with
    /// the stealable flag set or cleared.
    fn flagged(tag: u8, stealable: bool) -> Vec<u8> {
        let mut b = vec![0u8; converse_msg::HEADER_BYTES + 1];
        if stealable {
            b[6] = converse_msg::FLAG_STEALABLE as u8;
        }
        b[converse_msg::HEADER_BYTES] = tag;
        b
    }

    fn tag_of(p: &Packet) -> u8 {
        p.bytes()[converse_msg::HEADER_BYTES]
    }

    #[test]
    fn steal_takes_only_flagged_packets_in_order() {
        let net = Interconnect::new(2);
        net.send(0, 1, flagged(0, false)); // dummy, consumed by the drain
        for (tag, s) in [(1, true), (2, false), (3, true), (4, false), (5, true)] {
            net.send(0, 1, flagged(tag, s));
        }
        // A bounded drain of one packet leaves the rest in the mailbox.
        let mut out = Vec::new();
        assert_eq!(net.drain_into_bounded(1, &mut out, 1), 1);
        assert_eq!(net.load_of(1).queued, 5);

        assert_eq!(net.steal_from(1, 0, 8), 3);
        // Thief sees the stolen packets in their original arrival order,
        // with the original source preserved.
        for want in [1, 3, 5] {
            let p = net.try_recv(0).expect("stolen packet");
            assert_eq!(p.src, 0);
            assert_eq!(tag_of(&p), want);
        }
        // Victim keeps the unflagged packets, still in order.
        assert_eq!(net.load_of(1).queued, 2);
        for want in [2, 4] {
            assert_eq!(tag_of(&net.try_recv(1).expect("survivor")), want);
        }
    }

    #[test]
    fn steal_skips_non_default_channels_and_caps_batch() {
        let net = Interconnect::new(2);
        let ch = Channel {
            id: 3,
            delivery: Delivery::ExactlyOnce,
        };
        net.send(0, 1, flagged(0, false));
        net.send_on(0, 1, flagged(9, true), ch); // flagged but channelled
        for tag in [1, 2, 3] {
            net.send(0, 1, flagged(tag, true));
        }
        let mut out = Vec::new();
        net.drain_into_bounded(1, &mut out, 1);
        // Batch cap of 2: the two *newest* stealable default-channel
        // packets move; the channelled one never does.
        assert_eq!(net.steal_from(1, 0, 2), 2);
        assert_eq!(tag_of(&net.try_recv(0).unwrap()), 2);
        assert_eq!(tag_of(&net.try_recv(0).unwrap()), 3);
        assert_eq!(tag_of(&net.try_recv(1).unwrap()), 9);
        assert_eq!(tag_of(&net.try_recv(1).unwrap()), 1);
    }

    #[test]
    fn a_thief_takes_undrained_mail_before_the_victim_drains_any() {
        let net = Interconnect::new(2);
        let ch = Channel {
            id: 3,
            delivery: Delivery::ExactlyOnce,
        };
        for (tag, s) in [(0, true), (1, false), (2, true), (3, true), (4, false)] {
            net.send(0, 1, flagged(tag, s));
        }
        net.send_on(0, 1, flagged(9, true), ch); // flagged but channelled
        net.send(0, 1, flagged(5, true));
        assert_eq!(net.steal_from(1, 1, 8), 0, "self-steal is a no-op");
        // The victim has drained nothing: the thief takes the newest
        // stealable default-channel packets straight out of its mailbox.
        assert_eq!(net.steal_from(1, 0, 3), 3);
        assert_eq!(net.pending(1), 4);
        for want in [2, 3, 5] {
            assert_eq!(tag_of(&net.try_recv(0).expect("stolen")), want);
        }
        // The survivors keep their order, the channelled packet included.
        let mut left = Vec::new();
        net.drain_into(1, &mut left);
        assert_eq!(left.iter().map(tag_of).collect::<Vec<_>>(), [0, 1, 4, 9]);
    }

    #[test]
    fn refill_takes_a_batch_off_the_front() {
        let net = Interconnect::new(2);
        for i in 0..5u8 {
            net.send(0, 1, vec![i]);
        }
        // An inbox that fits the batch moves whole.
        let (mut intake, mut local) = (VecDeque::new(), VecDeque::new());
        assert_eq!(net.refill(1, &mut intake, &mut local, 8), 5);
        assert_eq!(net.pending(1), 0);
        // Behind a non-empty intake, at most a batch moves; the rest waits.
        for i in 5..10u8 {
            net.send(0, 1, vec![i]);
        }
        assert_eq!(net.refill(1, &mut intake, &mut local, 3), 3);
        assert_eq!(net.pending(1), 2);
        assert_eq!(net.refill(1, &mut intake, &mut local, 3), 2);
        let got: Vec<u8> = intake.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(net.traffic(1).msgs_recv, 10);
    }

    fn local_packet(pe: usize, tag: u8) -> Packet {
        Packet {
            src: pe,
            channel: Channel::DEFAULT,
            block: MsgBlock::copy_from(&[tag]),
        }
    }

    #[test]
    fn the_local_queue_goes_in_behind_the_mailbox_batch() {
        let net = Interconnect::new(2);
        let tags = |q: &VecDeque<Packet>| q.iter().map(|p| p.bytes()[0]).collect::<Vec<_>>();
        let (mut intake, mut local) = (VecDeque::new(), VecDeque::new());
        // Into an empty intake the local queue moves whole.
        local.extend([local_packet(1, 1), local_packet(1, 2)]);
        assert_eq!(net.refill(1, &mut intake, &mut local, 8), 2);
        assert_eq!((tags(&intake), local.len()), (vec![1, 2], 0));
        intake.clear();
        // Behind a mailbox batch, never ahead of it, and all of it: the
        // batch bounds the mailbox only.
        for i in 3..6u8 {
            net.send(0, 1, vec![i]);
        }
        local.extend([local_packet(1, 6), local_packet(1, 7)]);
        assert_eq!(net.refill(1, &mut intake, &mut local, 2), 4);
        assert_eq!(tags(&intake), [3, 4, 6, 7]);
        assert_eq!((net.pending(1), local.len()), (1, 0));
        assert_eq!(net.traffic(1).msgs_recv, 6, "every move is a receipt");
        // A stalled PE moves nothing, its own sends included.
        intake.clear();
        local.extend([local_packet(1, 8)]);
        net.stall_for(1, Duration::from_secs(60));
        assert_eq!(net.refill(1, &mut intake, &mut local, 8), 0);
        assert_eq!((intake.len(), local.len()), (0, 1));
    }

    #[test]
    fn a_short_refill_sweeps_the_polled_source() {
        let net = Interconnect::new(2);
        let source = with_source(&net);
        net.send(0, 1, vec![1]);
        source.arrivals.lock().extend([2, 3]);
        let (mut intake, mut local) = (VecDeque::new(), VecDeque::new());
        assert_eq!(net.refill(1, &mut intake, &mut local, 8), 3);
        let got: Vec<u8> = intake.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(got, [1, 2, 3]);
        // A full batch leaves the source for the next refill.
        source.arrivals.lock().push(4);
        net.send(0, 1, vec![5]);
        assert_eq!(net.refill(1, &mut intake, &mut local, 1), 1);
        assert_eq!(source.arrivals.lock().len(), 1);
    }

    #[test]
    fn publish_load_roundtrip_and_backlog() {
        let net = Interconnect::new(2);
        let l0 = net.load_of(0);
        assert_eq!((l0.run_queue, l0.queued), (0, 0));
        net.publish_load(0, 7);
        net.send(1, 0, vec![0u8; 9]);
        let l = net.load_of(0);
        assert_eq!(l.run_queue, 7);
        assert_eq!(l.queued, 1);
        assert_eq!(l.backlog(), 8);
    }

    #[test]
    fn swap_drain_sees_concurrent_enqueues_exactly_once() {
        // Senders push at once while the receiver swap-drains in a
        // tight loop. Every payload must surface exactly once, in
        // per-link FIFO order, regardless of where each swap cuts the
        // streams.
        const SENDERS: usize = 3;
        let net = Interconnect::new(SENDERS + 1);
        let n: u32 = 20_000;
        let senders: Vec<_> = (1..=SENDERS)
            .map(|src| {
                let net = net.clone();
                std::thread::spawn(move || {
                    for i in 0..n {
                        net.send(src, 0, i.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        let mut got: Vec<Vec<u32>> = vec![Vec::new(); SENDERS + 1];
        let mut batch = Vec::new();
        let total = n as usize * SENDERS;
        let mut seen = 0;
        while seen < total {
            if net.drain_into(0, &mut batch) == 0 {
                std::hint::spin_loop();
                continue;
            }
            seen += batch.len();
            for p in batch.drain(..) {
                got[p.src].push(u32::from_le_bytes(p.bytes().try_into().unwrap()));
            }
        }
        for s in senders {
            s.join().unwrap();
        }
        for (src, lane) in got.iter().enumerate().skip(1) {
            assert_eq!(
                *lane,
                (0..n).collect::<Vec<_>>(),
                "link {src}: exactly once, in order"
            );
        }
        assert_eq!(net.pending(0), 0);
        assert_eq!(net.traffic(0).msgs_recv, total as u64);
    }

    #[test]
    fn broadcast_packets_hold_exactly_p_references() {
        // Every share is minted before the first append and the original
        // handle dropped, so P delivered packets are the only owners —
        // refcount is exactly P: 1 allocation + P bumps.
        let p_count = 6;
        let net = Interconnect::new(p_count);
        net.broadcast_to(0, MsgBlock::copy_from(&[3u8; 64]), true);
        let packets: Vec<Packet> = (0..p_count).map(|pe| net.try_recv(pe).unwrap()).collect();
        for p in &packets {
            assert_eq!(p.block.ref_count(), p_count);
        }
        drop(packets);
    }

    #[test]
    fn spin_wait_notices_mail_within_budget() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![1]);
        // Mail already queued: the spin loop returns on its first probe.
        assert_eq!(net.wait_nonempty(0, Duration::from_secs(1), 1000), 0);
        net.try_recv(0);
        // Empty mailbox: the budget burns out, then the park path runs
        // (bounded here by the timeout) and the call reports `spin`.
        let t0 = Instant::now();
        assert_eq!(net.wait_nonempty(0, Duration::from_millis(20), 64), 64);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
