//! The logical processor ([`Pe`]) and its handler table.
//!
//! A `Pe` bundles everything one Converse processor owns: its identity,
//! the interconnect endpoint, the registered handler table, the
//! scheduler's queue, typed PE-local storage, and the internal state of
//! the EMI modules. One `Pe` is created per processor by [`crate::run`]
//! and shared (via `Arc`) by every execution context — the main context
//! and any thread objects — that runs on that processor.
//!
//! Exactly one of those contexts runs at a time: the one holding the
//! PE's run token ([`Pe::owner`]). The state only that context touches —
//! intake buffer, local queue of sends to itself, scheduler queue,
//! `get_specific_msg` buffer, scatter table, the EMI tables, the loop's
//! counters — lives in
//! [`OwnerCell`]s: no lock, and a call from any other thread panics
//! instead of racing. What other threads may legitimately call goes
//! through the interconnect or machine-shared state; [`Pe`]'s own docs
//! list both kinds.

use crate::append::AppendTable;
use crate::coll::{Arrivals, CollState};
use crate::gptr::GptrState;
use crate::io::Console;
use crate::locals::Locals;
use crate::mmi::CommHandles;
use crate::owner::{Owner, OwnerCell};
use crate::scatter::ScatterState;
use converse_msg::{HandlerId, Message, MsgBlock};
use converse_net::{Channel, CmiTransport, Delivery, Interconnect, Packet};
use converse_queue::{CsdQueue, QueueingMode, SchedulingQueue};
use converse_trace::{Event, StealPhase, TraceSink};
use std::any::TypeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A registered message handler: the function named by a generalized
/// message's first word. Handlers must be `Send + Sync` because any
/// execution context of the PE (main context or a thread object, each a
/// distinct OS thread that runs exclusively) may dispatch them.
pub type Handler = Arc<dyn Fn(&Pe, Message) + Send + Sync>;

/// A PE exit finalizer registered with [`Pe::on_exit`].
type ExitHook = Box<dyn FnOnce(&Pe) + Send>;

/// Handler ids reserved for the machine layer's internal protocols
/// (global-pointer requests, the arrival table, the down-wave, group
/// multicast, the external-request gateway). User registration
/// starts after these; since every PE registers them identically in
/// `Pe::new`, indices agree machine-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InternalIds {
    pub gptr_get_req: HandlerId,
    pub gptr_put_req: HandlerId,
    pub arrive: HandlerId,
    pub coll_down: HandlerId,
    pub pgrp_fwd: HandlerId,
    pub exo_req: HandlerId,
    pub exo_dispatch: HandlerId,
    pub exo_reply: HandlerId,
}

/// The fixed table positions of the reserved handlers — needed before
/// any [`Pe`] exists (e.g. by [`crate::exo::MachineHandle`], built at
/// boot). `Pe::new` asserts its sequentially assigned ids match this.
pub(crate) const INTERNAL_LAYOUT: InternalIds = InternalIds {
    gptr_get_req: HandlerId(0),
    gptr_put_req: HandlerId(1),
    arrive: HandlerId(2),
    coll_down: HandlerId(3),
    pgrp_fwd: HandlerId(4),
    exo_req: HandlerId(5),
    exo_dispatch: HandlerId(6),
    exo_reply: HandlerId(7),
};

/// Intake-refill batch size for the retrieval wait
/// (`Pe::retrieval_wait`): big enough to amortize the mailbox lock,
/// small enough that a blocked context never hoards the whole mailbox
/// in its intake while deciding one message.
pub(crate) const INTERNAL_BUDGET: usize = 32;

/// Publish the PE's run-queue depth to the transport every this many
/// `Pe::publish_load` calls (scheduler turns).
const LOAD_PUBLISH_PERIOD: u64 = 16;

/// The longest one idle turn parks (`Pe::idle_turn`): how often an idle
/// PE looks at its watchdog when nothing arrives to wake it.
const IDLE_SLICE: Duration = Duration::from_millis(5);

/// Most messages one steal moves ([`Pe::try_steal`]).
const STEAL_BATCH: usize = 8;

/// Least victim backlog (mailbox depth + published run queue) a steal
/// is worth its interruption for, where remote loads are visible.
const STEAL_MIN_BACKLOG: usize = 2;

/// Which mechanism backs the thread objects (`cth_*`) of a machine.
///
/// The machine layer only carries the choice; `converse-threads`
/// interprets it. `Auto` (the default) lets the thread runtime pick:
/// the fiber backend where supported (x86-64 SysV), the hand-off
/// OS-thread backend elsewhere, with a `CTH_BACKEND` environment
/// override (`"fiber"` / `"handoff"`) honoured only under `Auto` so an
/// explicit per-machine configuration always wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadBackend {
    /// Runtime's choice: fiber where supported, else hand-off;
    /// `CTH_BACKEND` may override.
    #[default]
    Auto,
    /// Stackful user-level fibers (~20 ns switch). Falls back to
    /// hand-off on targets without fiber support.
    Fiber,
    /// Hand-off OS threads (portable fallback, ~10 µs switch).
    Handoff,
}

/// Machine-wide state shared by all PEs of one [`crate::run`] invocation.
pub(crate) struct MachineShared {
    pub console: Console,
    /// Set when any PE's entry function panicked; blocked PEs observe it
    /// and abort instead of hanging.
    pub panicked: AtomicBool,
    /// PEs of this process whose thread has not finished; the last one
    /// out closes the machine's local half and the console input.
    pub live_pes: AtomicUsize,
    /// Watchdog limit for machine-level blocking calls.
    pub block_timeout: Duration,
    /// Idle-policy spin budget: how many lock-free mailbox-depth probes
    /// a PE burns before parking on the condvar
    /// (`MachineConfig::idle_spin`).
    pub idle_spin: u32,
    /// External-request gateway state (reply sink, service count).
    pub exo: crate::exo::ExoState,
    /// Thread-object backend requested for this machine
    /// (`MachineConfig::thread_backend`).
    pub thread_backend: ThreadBackend,
    /// Named delivery channels declared in `MachineConfig::channel`,
    /// ids assigned 1..N in declaration order (0 is the default
    /// exactly-once channel). Resolved by [`Pe::channel`].
    pub channels: Vec<(String, Channel)>,
    /// Idle-PE work stealing (`MachineConfig::steal`).
    pub steal: bool,
    /// A self-send of the run-token holder may take the PE's local queue
    /// (`PeCore::local`): stealing is off, and the local half has FIFO
    /// delivery and no fault plan. Fixed at boot (`MachineShared::new`).
    pub self_lane: bool,
}

/// What only the PE's running context touches on the message path —
/// the scheduler core. One [`OwnerCell`] holds all of it, so a
/// retrieval or a scheduler step opens one cell once.
pub(crate) struct PeCore {
    /// Local intake batch: packets a refill ([`Interconnect::refill`])
    /// took off the mailbox, followed by the local queue it moved in
    /// behind them, not yet retrieved. Every retrieval path pops here
    /// before touching the network, so a batch never lets a later
    /// arrival overtake an earlier one — the per-link FIFO contract
    /// survives recursive retrieval (a handler calling
    /// `get_specific_msg` mid-batch included).
    intake: VecDeque<Packet>,
    /// The PE's sends to itself (`CmiLocalQueue`): what the run-token
    /// holder sends to its own PE when the machine allows it
    /// (`MachineShared::self_lane`, [`Pe::send_block`]), in send order.
    /// Producer and consumer are the same context, so it needs no lock;
    /// a refill moves it into the intake behind the mailbox batch.
    local: VecDeque<Packet>,
    /// Messages taken off the wire by `get_specific_msg` (or a
    /// machine-internal blocking wait) that were meant for other
    /// handlers; consumed before the network on retrieval. Empty unless
    /// an SPM-style receive has buffered something.
    pending: VecDeque<Message>,
    queue: CsdQueue,
    /// Advance receives ([`crate::scatter`]): every received message is
    /// offered to them first.
    pub(crate) scatter: ScatterState,
    /// Spin iterations consumed by the most recent idle wait.
    last_spin: u32,
    /// Intake batches drained so far — the sampling key for
    /// `Event::SchedBatch`.
    sched_batches: u64,
    /// Calls to `Pe::publish_load` so far — its throttle key.
    load_ticks: u64,
    /// Round-robin cursor for victim selection when remote loads are
    /// not observable (distributed transports).
    steal_rr: u64,
    req_counter: u64,
}

/// What a PE unwinds with when it leaves *because* the machine was
/// already marked failed ([`Pe::check_abort`]): a bystander, not the
/// cause. Raised with `resume_unwind`, which does not run the panic
/// hook, so only the root cause prints; the run harness re-raises a
/// marker only when no PE reported anything else.
pub(crate) struct PeerAbort;

/// Remove and return the oldest buffered message satisfying `want`.
fn take_first(q: &mut VecDeque<Message>, want: impl Fn(&Message) -> bool) -> Option<Message> {
    let idx = q.iter().position(want)?;
    q.remove(idx)
}

/// One logical processor of the simulated machine.
///
/// **Owner-only** (panic when the calling thread does not hold the run
/// token, [`Pe::owner`]): the scheduler queue (`queue_*`), the
/// scheduler loop (`schedule`), every retrieval call (`get_msg`,
/// `deliver_*`, `get_specific_msg`, `inbound_pending`, `pending_len`),
/// the scatter / global-pointer / collective / processor-group calls,
/// the `CommHandle` calls and the `async_*` sends that issue one,
/// `on_exit` and `exo_current_token`.
///
/// **Callable from any thread** holding an `Arc<Pe>`: `abort_machine`,
/// `exit_scheduler`, `stall_pe` / `pe_stalled`, `fault_stats`, the
/// synchronous sends and broadcasts (off the run token a send to this
/// PE crosses the mailbox; only the token holder's takes the local
/// queue), ids and timers, the handler table,
/// PE-local storage (`local*`), `channel`, the load snapshot,
/// `trace_event`.
pub struct Pe {
    id: usize,
    /// What crosses to another rank: sends, injects, stalls, steals.
    net: Arc<dyn CmiTransport>,
    /// `net`'s local half, held concretely: receiving, parking, clock,
    /// close and load board are direct calls, the same on every wire.
    mailbox: Arc<Interconnect>,
    handlers: AppendTable<Handler>,
    /// The run token: which OS thread may open this PE's cells.
    owner: Owner,
    core: OwnerCell<PeCore>,
    sched_exit: AtomicBool,
    locals: Locals,
    pub(crate) comm: OwnerCell<CommHandles>,
    pub(crate) gptr: OwnerCell<GptrState>,
    pub(crate) coll: OwnerCell<CollState>,
    /// What the blocked EMI calls wait for ([`crate::coll`]).
    pub(crate) arrivals: OwnerCell<Arrivals>,
    pub(crate) ids: InternalIds,
    pub(crate) shared: Arc<MachineShared>,
    trace: Arc<dyn TraceSink>,
    /// `trace.enabled()`, sampled once at boot: the message path asks
    /// several times per message and both sinks answer a constant.
    trace_on: bool,
    /// The `Arc` this PE lives in, for [`Pe::arc`].
    self_ref: std::sync::Weak<Self>,
    /// Number of reserved machine-internal handlers (table prefix).
    internal_count: usize,
    /// Finalizers run (in reverse registration order) after the entry
    /// function returns, before machine teardown.
    exit_hooks: OwnerCell<Vec<ExitHook>>,
}

impl Pe {
    pub(crate) fn new(
        id: usize,
        net: Arc<dyn CmiTransport>,
        shared: Arc<MachineShared>,
        trace: Arc<dyn TraceSink>,
    ) -> Arc<Pe> {
        let table = AppendTable::new();
        let push = |h: Handler| HandlerId(table.push(h) as u32);
        let ids = InternalIds {
            gptr_get_req: push(Arc::new(crate::gptr::handle_get_req)),
            gptr_put_req: push(Arc::new(crate::gptr::handle_put_req)),
            arrive: push(Arc::new(crate::coll::handle_arrive)),
            coll_down: push(Arc::new(crate::coll::handle_down)),
            pgrp_fwd: push(Arc::new(crate::pgrp::handle_fwd)),
            exo_req: push(Arc::new(crate::exo::handle_req)),
            exo_dispatch: push(Arc::new(crate::exo::handle_dispatch)),
            exo_reply: push(Arc::new(crate::exo::handle_reply)),
        };
        debug_assert_eq!(ids, INTERNAL_LAYOUT, "reserved handler layout drifted");
        let internal_count = table.len();
        // The calling thread — the PE's own, in both run harnesses —
        // holds the run token from here on.
        let owner = Owner::new();
        let core = PeCore {
            intake: VecDeque::new(),
            local: VecDeque::new(),
            pending: VecDeque::new(),
            queue: CsdQueue::new(),
            scatter: ScatterState::default(),
            last_spin: 0,
            sched_batches: 0,
            load_ticks: 0,
            steal_rr: 0,
            req_counter: 1,
        };
        Arc::new_cyclic(|self_ref| Pe {
            id,
            mailbox: net.local().arc(),
            net,
            handlers: table,
            core: OwnerCell::new(&owner, core),
            sched_exit: AtomicBool::new(false),
            locals: Locals::new(),
            comm: OwnerCell::new(&owner, CommHandles::default()),
            gptr: OwnerCell::new(&owner, GptrState::default()),
            coll: OwnerCell::new(&owner, CollState::default()),
            arrivals: OwnerCell::new(&owner, Arrivals::default()),
            ids,
            shared,
            trace_on: trace.enabled(),
            trace,
            self_ref: self_ref.clone(),
            internal_count,
            exit_hooks: OwnerCell::new(&owner, Vec::new()),
            owner,
        })
    }

    /// This PE's run token. Exactly one OS thread holds it at a time —
    /// the one the PE's current execution context runs on — and only
    /// that thread passes the check of an [`OwnerCell`] made with it.
    /// Runtime layers keep their own PE-local, single-context state in
    /// cells of this owner.
    #[inline]
    pub fn owner(&self) -> &Owner {
        &self.owner
    }

    /// Open one of this PE's cells with its run token.
    #[inline(always)]
    pub(crate) fn open<T, R>(&self, cell: &OwnerCell<T>, f: impl FnOnce(&mut T) -> R) -> R {
        cell.with(&self.owner, f)
    }

    /// Open the scheduler core. `f` must not call back into the PE.
    #[inline(always)]
    pub(crate) fn core<R>(&self, f: impl FnOnce(&mut PeCore) -> R) -> R {
        self.core.with(&self.owner, f)
    }

    /// A counted reference to this PE. Execution contexts that outlive
    /// the current stack frame (thread objects) hold one of these.
    pub fn arc(&self) -> Arc<Pe> {
        self.self_ref
            .upgrade()
            .expect("Pe is alive while any context runs on it")
    }

    /// Register a finalizer to run on this PE after its entry function
    /// returns (reverse registration order). Runtime layers use this to
    /// tear down resources — e.g. poisoning still-suspended threads —
    /// before the machine closes.
    pub fn on_exit<F: FnOnce(&Pe) + Send + 'static>(&self, f: F) {
        self.open(&self.exit_hooks, |hooks| hooks.push(Box::new(f)));
    }

    pub(crate) fn run_exit_hooks(&self) {
        // Each hook is popped first and run with the cell closed: it
        // may register another.
        while let Some(hook) = self.open(&self.exit_hooks, Vec::pop) {
            hook(self);
        }
    }

    /// The thread-object backend requested for this machine
    /// (`MachineConfig::thread_backend`; default [`ThreadBackend::Auto`]).
    /// The thread runtime resolves `Auto` on first use.
    pub fn thread_backend(&self) -> ThreadBackend {
        self.shared.thread_backend
    }

    /// Mark the whole machine as failed and wake every blocked context.
    /// Used when a non-main execution context (a thread object)
    /// panics, so the failure propagates instead of deadlocking.
    /// Callable from any thread.
    pub fn abort_machine(&self) {
        self.shared.panicked.store(true, Ordering::Release);
        self.mailbox.close();
    }

    /// Logical processor id, `0..num_pes` (`CmiMyPe`).
    #[inline]
    pub fn my_pe(&self) -> usize {
        self.id
    }

    /// Total processors in this machine (`CmiNumPe`).
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.mailbox.num_pes()
    }

    /// Short name of the transport carrying this PE's messages
    /// (`"inproc"`, `"socket"` or `"shmring"`).
    pub fn transport_name(&self) -> &'static str {
        self.net.name()
    }

    /// Resolve a delivery channel declared with
    /// `MachineConfig::channel(name, delivery)`. Every PE resolves the
    /// same name to the same channel id, so a tag created on one rank
    /// is meaningful on all of them. Panics on an undeclared name —
    /// a misspelled channel is a programming error, not a runtime
    /// condition.
    pub fn channel(&self, name: &str) -> Channel {
        self.shared
            .channels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or_else(|| panic!("no delivery channel named {name:?} declared"))
    }

    /// True when a P-way broadcast on this machine shares one
    /// allocation (refcount bumps only); false when destinations in
    /// other address spaces each receive a copy. Tests assert the
    /// broadcast allocation contract through this, never a hard-coded
    /// count.
    pub fn broadcast_zero_copy(&self) -> bool {
        self.net.shared_memory()
    }

    /// The transport this PE sends through.
    #[inline]
    pub(crate) fn net(&self) -> &Arc<dyn CmiTransport> {
        &self.net
    }

    /// Arm a stall window: PE `target` stops retrieving messages for the
    /// next `dur` of machine uptime (its mailbox keeps filling). The
    /// chaos-testing entry point for runtime-scripted stalls — boot-time
    /// windows would block the registration barriers every program runs
    /// first. See [`converse_net::StallWindow`].
    pub fn stall_pe(&self, target: usize, dur: std::time::Duration) {
        self.net.stall_for(target, dur);
    }

    /// True while `target` sits inside a stall window.
    pub fn pe_stalled(&self, target: usize) -> bool {
        self.mailbox.stalled(target)
    }

    /// Aggregate fault-plane and reliability counters of the machine's
    /// interconnect (all zero when no fault plan is installed).
    pub fn fault_stats(&self) -> converse_net::FaultStats {
        self.net.fault_stats()
    }

    /// Seconds since machine boot with sub-microsecond resolution
    /// (`CmiTimer`).
    pub fn timer(&self) -> f64 {
        self.mailbox.uptime().as_secs_f64()
    }

    /// Nanoseconds since machine boot.
    pub fn now_ns(&self) -> u64 {
        self.mailbox.uptime().as_nanos() as u64
    }

    /// Whole milliseconds since machine boot — the coarse variant of the
    /// paper's "timers with different resolutions".
    pub fn timer_coarse_ms(&self) -> u64 {
        self.mailbox.uptime().as_millis() as u64
    }

    /// Fresh machine-unique-enough request id for internal protocols.
    pub(crate) fn next_req_id(&self) -> u64 {
        self.core(|c| {
            let id = c.req_counter;
            c.req_counter += 1;
            id
        })
    }

    // ---- handler table --------------------------------------------------

    /// Register a message handler and return its index
    /// (`CmiRegisterHandler`). **Must be called in the same order on
    /// every PE** so an id denotes the same function machine-wide.
    /// The table only grows and entries never move, so this is legal
    /// from inside a running handler.
    pub fn register_handler<F>(&self, f: F) -> HandlerId
    where
        F: Fn(&Pe, Message) + Send + Sync + 'static,
    {
        HandlerId(self.handlers.push(Arc::new(f)) as u32)
    }

    /// Look up the handler function for a message
    /// (`CmiGetHandlerFunction`), borrowed from the table: no lock and
    /// no refcount traffic (clone it to keep it). Panics on an
    /// unregistered id — that is a registration-order bug, not a
    /// runtime condition.
    #[inline]
    pub fn handler_fn(&self, id: HandlerId) -> &Handler {
        self.handlers.get(id.index()).unwrap_or_else(|| {
            panic!(
                "PE {}: message for unregistered handler {id} (table has {}); \
                 handlers must be registered in the same order on every PE \
                 before communication begins",
                self.id,
                self.handlers.len()
            )
        })
    }

    /// Number of registered handlers (internal ones included).
    pub fn num_handlers(&self) -> usize {
        self.handlers.len()
    }

    /// Invoke `msg`'s handler immediately on this PE, recording trace
    /// events. `src` is the sending PE for trace purposes (self for
    /// locally generated entries).
    pub(crate) fn call_handler_from(&self, src: usize, msg: Message) {
        let id = msg.handler();
        let f = self.handler_fn(id);
        if self.trace_on {
            // Splice→first-run steal latency: the transport stamps the
            // moment stolen work was spliced into this PE's stream; the
            // next handler dispatch here closes the interval.
            if self.shared.steal {
                let mark = self.mailbox.take_steal_mark(self.id);
                if mark != 0 {
                    let now = self.now_ns();
                    self.trace.record(
                        self.id,
                        now,
                        Event::StealLatency {
                            phase: StealPhase::SpliceToRun,
                            ns: now.saturating_sub(mark),
                        },
                    );
                }
            }
            self.trace.record(
                self.id,
                self.now_ns(),
                Event::BeginProcessing { handler: id.0, src },
            );
            f(self, msg);
            self.trace.record(
                self.id,
                self.now_ns(),
                Event::EndProcessing { handler: id.0 },
            );
        } else {
            f(self, msg);
        }
    }

    /// Invoke `msg`'s handler immediately (local origin).
    pub fn call_handler(&self, msg: Message) {
        self.call_handler_from(self.id, msg);
    }

    // ---- scheduler queue access (used by converse-core's Csd) -----------

    /// Put a message on the scheduler's queue under `mode`
    /// (`CsdEnqueueGeneral`). The scheduler (in `converse-core`) will
    /// deliver it to its handler later.
    pub fn queue_enqueue(&self, msg: Message, mode: QueueingMode) {
        if self.trace_on {
            self.trace.record(
                self.id,
                self.now_ns(),
                Event::Enqueue {
                    handler: msg.handler().0,
                },
            );
        }
        self.core(|c| c.queue.enqueue(msg, mode));
    }

    /// Take the next message off the scheduler's queue.
    pub fn queue_dequeue(&self) -> Option<Message> {
        self.core(|c| c.queue.dequeue())
    }

    /// Scheduler-queue occupancy — also the load metric the load
    /// balancer monitors.
    pub fn queue_len(&self) -> usize {
        self.core(|c| c.queue.len())
    }

    /// Ask the running scheduler loop to stop once control returns to
    /// it (`CsdExitScheduler`). A `Stop::After` or `Stop::Idle` loop
    /// honours the request and clears it; a `Stop::Predicate` loop
    /// leaves it pending for the loop it runs inside ([`crate::mmi::Stop`]).
    pub fn exit_scheduler(&self) {
        self.sched_exit.store(true, Ordering::Release);
    }

    /// Consume a pending exit request. The flag is almost never set and
    /// the loop asks twice a turn, so it is read first and the locked
    /// swap is paid only to clear a request that is there.
    #[inline]
    pub(crate) fn take_exit(&self) -> bool {
        self.sched_exit.load(Ordering::Acquire) && self.sched_exit.swap(false, Ordering::AcqRel)
    }

    // ---- PE-local storage (the Cpv analogue) -----------------------------

    /// Typed PE-local storage: returns this PE's instance of `T`,
    /// creating it with `init` on first access. The Rust analogue of
    /// Converse's `Cpv` per-processor globals; language runtimes keep
    /// their per-PE state here, one value per type.
    ///
    /// `init` runs at most once per PE and outside any lock, so it may
    /// register handlers and ask for PE-local values of other types (a
    /// runtime installing the runtimes it builds on) — but not for `T`
    /// itself.
    pub fn local<T, F>(&self, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.locals
            .get_or_init(TypeId::of::<T>(), || Arc::new(init()))
            .clone()
            .downcast::<T>()
            .expect("TypeId-keyed registry guarantees the type")
    }

    /// The PE-local instance of `T` if already created.
    pub fn try_local<T: Send + Sync + 'static>(&self) -> Option<Arc<T>> {
        self.locals.get(TypeId::of::<T>()).map(|v| {
            v.clone()
                .downcast::<T>()
                .expect("TypeId-keyed registry guarantees the type")
        })
    }

    /// The PE-local instance of `T` if already created, borrowed: a
    /// short scan of the registry with no lock, no hash and no refcount
    /// traffic — how a handler resolves its runtime on every message.
    #[inline]
    pub fn local_ref<T: Send + Sync + 'static>(&self) -> Option<&T> {
        self.locals.get(TypeId::of::<T>())?.downcast_ref::<T>()
    }

    // ---- pending buffer & abort plumbing ---------------------------------

    pub(crate) fn pending_push(&self, m: Message) {
        self.core(|c| c.pending.push_back(m));
    }

    pub(crate) fn pending_take_matching(&self, h: HandlerId) -> Option<Message> {
        self.core(|c| take_first(&mut c.pending, |m| m.handler() == h))
    }

    /// Number of retrieved-but-unprocessed messages buffered by
    /// `get_specific_msg`.
    pub fn pending_len(&self) -> usize {
        self.core(|c| c.pending.len())
    }

    /// Unwind this PE (with the silent `PeerAbort` marker) if the
    /// machine was marked failed, and panic if it has shut down under a
    /// blocked receive. The idle turn calls it, so one failing PE cannot
    /// hang the rest of the test suite.
    pub(crate) fn check_abort(&self) {
        if self.shared.panicked.load(Ordering::Acquire) {
            std::panic::resume_unwind(Box::new(PeerAbort));
        }
        if self.mailbox.is_closed()
            && self.mailbox.pending(self.id) == 0
            && self.core(|c| c.intake.is_empty() && c.local.is_empty() && c.pending.is_empty())
        {
            panic!(
                "PE {}: blocked on a message but the machine has shut down",
                self.id
            );
        }
    }

    /// The watchdog of every blocking wait: panic once the wait has
    /// taken nothing since `since` for the machine's block timeout,
    /// turning a distributed deadlock into a diagnosable failure. It
    /// stands down while an external service is attached: waiting for
    /// outside traffic is not a deadlock.
    pub(crate) fn watchdog(&self, since: Instant) {
        let limit = self.shared.block_timeout;
        if since.elapsed() > limit && !self.services_attached() {
            panic!(
                "PE {}: a blocking wait made no progress for {limit:?} — likely deadlock \
                 (raise MachineConfig::block_timeout if intentional)",
                self.id
            );
        }
    }

    /// The one idle turn of every loop that waits for messages — the
    /// scheduler loop, `deliver_until` and the retrieval wait: unwind if
    /// the machine failed, apply the watchdog, then park for at most one
    /// slice. `idle_since` is when the loop last took a message, `None`
    /// while its last turn took one (the loop resets it then).
    #[inline(never)]
    pub(crate) fn idle_turn(&self, idle_since: &mut Option<Instant>) {
        self.check_abort();
        self.watchdog(*idle_since.get_or_insert_with(Instant::now));
        self.idle_wait(IDLE_SLICE);
    }

    /// Drive message delivery until `done()` holds: repeatedly drains the
    /// network (dispatching each message straight to its handler, like
    /// `CmiDeliverMsgs`), taking the idle turn when nothing came. This is
    /// a user-level blocking helper; it never touches the scheduler queue.
    pub fn deliver_until<F: FnMut() -> bool>(&self, mut done: F) {
        let mut idle_since = None;
        while !done() {
            if self.deliver_msgs(None) > 0 {
                idle_since = None;
            } else if !done() {
                self.idle_turn(&mut idle_since);
            }
        }
    }

    /// True when `h` is one of the machine layer's reserved protocol
    /// handlers (global pointers, collectives, group forwarding).
    pub(crate) fn is_internal_handler(&self, h: HandlerId) -> bool {
        h.index() < self.internal_count
    }

    /// Messages waiting to be retrieved: undelivered network packets,
    /// self-sends in the local queue, batch-drained packets sitting in
    /// the intake buffer, plus anything buffered by `get_specific_msg`.
    pub fn inbound_pending(&self) -> usize {
        self.mailbox.pending(self.id)
            + self.core(|c| c.local.len() + c.intake.len() + c.pending.len())
    }

    /// The next inbound packet in delivery order, refilling the intake
    /// buffer from the network in batches of up to `budget` when it runs
    /// dry. This is the single chokepoint between the wire and every
    /// retrieval path: intake drains strictly before the net, so batched
    /// and single-message retrieval interleave without reordering.
    /// Returns `None` when nothing is queued (or this PE is stalled).
    /// Runs on the open scheduler core; the transport and the trace sink
    /// are the only things called with it open, and neither knows the PE.
    #[inline]
    pub(crate) fn pop_inbound(&self, c: &mut PeCore, budget: usize) -> Option<Packet> {
        if let Some(p) = c.intake.pop_front() {
            return Some(p);
        }
        let n = self.refill(c, budget.max(1));
        if n > 0 {
            // Sampled `Event::SchedBatch`: every 32nd intake batch (the
            // first included) records its size and the spin count of
            // the most recent idle wait, so batch shapes and idle-spin
            // behavior are observable in `trace_profile` without
            // per-batch trace cost.
            let count = c.sched_batches;
            c.sched_batches += 1;
            if self.trace_on && count.is_multiple_of(32) {
                self.trace.record(
                    self.id,
                    self.now_ns(),
                    Event::SchedBatch {
                        drained: n,
                        spin_iters: c.last_spin,
                    },
                );
            }
        }
        c.intake.pop_front()
    }

    /// The once-per-batch half of [`Pe::pop_inbound`], kept out of line:
    /// with the drain's body inlined, `pop_inbound` is too big to inline
    /// into its callers and the once-per-message intake pop pays a call
    /// (`core_1pe` `op_us` +2 %; EXPERIMENTS.md, ISSUE 21). With a polled
    /// source the PE pulls its rings itself, after its mailbox; the local
    /// queue goes in last, behind both.
    #[inline(never)]
    fn refill(&self, c: &mut PeCore, budget: usize) -> usize {
        self.mailbox
            .refill(self.id, &mut c.intake, &mut c.local, budget)
    }

    /// Send `block` to `dst` on `channel`: the one way every `Pe`
    /// point-to-point send leaves the PE. A self-send of the run-token
    /// holder goes onto
    /// the PE's local queue when `self_lane` allows it and the channel
    /// does not supersede (a latest-value-wins scan needs the mailbox);
    /// counted as a send like any other. Everything else — a peer, a
    /// thread without the token, a stealing or faulty or reordering
    /// machine — crosses the transport.
    #[inline]
    pub(crate) fn send_block(&self, dst: usize, channel: Channel, block: MsgBlock) {
        if dst == self.id && self.self_lane_for(channel) {
            self.push_local(channel, block);
        } else {
            self.net.send_on(self.id, dst, block, channel);
        }
    }

    /// True when a self-send on `channel` from the calling thread may
    /// take the local queue.
    #[inline]
    pub(crate) fn self_lane_for(&self, channel: Channel) -> bool {
        self.shared.self_lane
            && channel.delivery != Delivery::LatestValueWins
            && self.owner.held_by_current_thread()
    }

    /// Queue a self-send on the local queue (callers check
    /// [`Pe::self_lane_for`] first).
    #[inline]
    pub(crate) fn push_local(&self, channel: Channel, block: MsgBlock) {
        self.mailbox.count_send(self.id, block.len());
        let src = self.id;
        self.core(|c| {
            c.local.push_back(Packet {
                src,
                channel,
                block,
            })
        });
    }

    /// Turn a wire packet into the message it carries, with its sender.
    #[inline]
    pub(crate) fn open_packet(&self, p: Packet) -> (usize, Message) {
        let src = p.src;
        let msg = Message::from_block(p.block)
            .unwrap_or_else(|e| panic!("PE {}: corrupt message from PE {src}: {e}", self.id));
        (src, msg)
    }

    /// The next message in retrieval order — anything buffered by
    /// `get_specific_msg` first, then the intake buffer / network — with
    /// its sender (self for a buffered one) and whether any advance
    /// receive is armed, all from one visit to the scheduler core.
    #[inline]
    pub(crate) fn next_message(&self, budget: usize) -> Option<(usize, Message, bool)> {
        let (got, armed) = self.core(|c| {
            let got = match c.pending.pop_front() {
                Some(m) => Ok(m),
                None => Err(self.pop_inbound(c, budget)?),
            };
            Some((got, c.scatter.armed()))
        })?;
        let (src, msg) = match got {
            Ok(buffered) => (self.id, buffered),
            Err(packet) => self.open_packet(packet),
        };
        Some((src, msg, armed))
    }

    /// Spin-then-park until a message arrives, the machine closes, or
    /// `timeout` expires — the park of the idle turn. Spins up to the
    /// machine's configured `idle_spin` budget on the lock-free mailbox
    /// depth before parking on the condvar, so short-message latency
    /// does not pay a full condvar wakeup; records the spins for
    /// `Event::SchedBatch`.
    pub(crate) fn idle_wait(&self, timeout: Duration) {
        let spun = self
            .mailbox
            .wait_nonempty(self.id, timeout, self.shared.idle_spin);
        self.core(|c| c.last_spin = spun);
    }

    // ---- load sampling & work stealing -----------------------------------

    /// Live load snapshot of every PE (see
    /// [`Interconnect::load_snapshot`]). On distributed transports
    /// remote entries read zero — check [`Pe::remote_load_visible`]
    /// before trusting them.
    pub fn load_snapshot(&self) -> Vec<converse_net::PeLoad> {
        self.mailbox.load_snapshot()
    }

    /// True when load snapshots of *remote* PEs reflect their real
    /// state (shared-memory transports). False on distributed
    /// transports, where balancers must rely on gossiped samples.
    pub fn remote_load_visible(&self) -> bool {
        self.net.shared_memory()
    }

    /// Every 16th call (`LOAD_PUBLISH_PERIOD`, once a scheduler turn),
    /// publish the scheduler queue's depth to the transport's load board,
    /// where stealing peers and CCS routing read it as part of a backlog.
    pub(crate) fn publish_load(&self) {
        let publish = self.core(|c| {
            let t = c.load_ticks;
            c.load_ticks += 1;
            t.is_multiple_of(LOAD_PUBLISH_PERIOD).then(|| c.queue.len())
        });
        if let Some(run_queue) = publish {
            self.mailbox.publish_load(self.id, run_queue);
        }
    }

    /// Idle-PE steal attempt: pick the most-backlogged peer and ask it
    /// to donate up to `STEAL_BATCH` stealable undrained messages (see the
    /// stealable-message contract on `converse_msg::FLAG_STEALABLE`).
    /// Returns how many arrived synchronously — always 0 on distributed
    /// transports, where the request is asynchronous (donations land
    /// later as ordinary deliveries) and the victim rotates round-robin
    /// because remote loads are not observable. A no-op unless the
    /// machine was configured with `MachineConfig::steal`.
    pub(crate) fn try_steal(&self) -> usize {
        let n_pes = self.num_pes();
        if !self.shared.steal || n_pes < 2 {
            return 0;
        }
        if self.net.shared_memory() {
            let mut best: Option<(usize, usize)> = None; // (backlog, pe)
            for l in self.mailbox.load_snapshot() {
                if l.pe == self.id || l.queued == 0 {
                    continue;
                }
                let b = l.backlog();
                if b >= STEAL_MIN_BACKLOG && best.is_none_or(|(bb, _)| b > bb) {
                    best = Some((b, l.pe));
                }
            }
            let Some((_, victim)) = best else {
                return 0;
            };
            let t0 = self.now_ns();
            let n = self.net.steal_from(victim, self.id, STEAL_BATCH);
            if n > 0 && self.trace_on {
                let now = self.now_ns();
                // Synchronous steal: the request→donate leg is simply
                // the duration of the call itself.
                self.trace.record(
                    self.id,
                    now,
                    Event::StealLatency {
                        phase: StealPhase::ReqToDonate,
                        ns: now.saturating_sub(t0),
                    },
                );
                self.trace.record(
                    self.id,
                    now,
                    Event::Steal {
                        victim,
                        thief: self.id,
                        batch: n,
                    },
                );
            }
            n
        } else {
            // One asynchronous request per idle pass, rotating victims;
            // the idle park between passes bounds the request rate.
            let k = self.core(|c| {
                let k = c.steal_rr;
                c.steal_rr += 1;
                k
            }) as usize;
            let victim = (self.id + 1 + k % (n_pes - 1)) % n_pes;
            self.net.steal_from(victim, self.id, STEAL_BATCH)
        }
    }

    /// Record a trace event from runtime layers above the machine.
    pub fn trace_event(&self, event: Event) {
        if self.trace_on {
            self.trace.record(self.id, self.now_ns(), event);
        }
    }

    /// True when the configured sink records events; callers may skip
    /// building expensive payloads otherwise.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    /// This PE's message-buffer pool counters (the CmiAlloc/CmiFree
    /// free list). The pool is per-OS-thread and each PE is one thread,
    /// so this must be called from the PE's own thread — which is where
    /// all handler and entry code runs anyway.
    pub fn msg_pool_stats(&self) -> converse_msg::PoolStats {
        converse_msg::pool::stats()
    }

    /// Emit a [`Event::MsgPool`] snapshot of this PE's buffer-pool
    /// counters into the trace. Called at PE teardown by the runner.
    pub(crate) fn trace_msg_pool(&self) {
        if self.trace_on {
            let s = self.msg_pool_stats();
            self.trace_event(Event::MsgPool {
                hits: s.hits,
                misses: s.misses,
                recycled: s.recycled,
                discarded: s.discarded,
            });
        }
    }
}

impl std::fmt::Debug for Pe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pe")
            .field("id", &self.id)
            .field("num_pes", &self.num_pes())
            .field("handlers", &self.num_handlers())
            .finish()
    }
}
