//! The Converse **thread object** (paper §3.2.2, appendix §5).
//!
//! "Converse separates the capabilities of thread packages modularly. In
//! particular, it provides a thread object that encapsulates the
//! essential capability of a thread — the ability to suspend and resume a
//! thread of control … The thread object is not meant to be used by the
//! end user directly … runtime systems of individual languages or
//! packages may use the thread object to implement their thread
//! functionalities easily."
//!
//! The primitives are exactly the paper's: create ([`cth_create`] /
//! [`cth_create_of_size`]), resume ([`cth_resume`]), suspend
//! ([`cth_suspend`]), awaken ([`cth_awaken`]), yield ([`cth_yield`]),
//! exit ([`cth_exit`] — implicit when the thread function returns), self
//! ([`cth_self`]), and the per-thread strategy override
//! ([`cth_set_strategy`]) through which "each module can control the
//! order in which its own threads are scheduled".
//!
//! # Backends
//!
//! The 1996 implementation multiplexes user-level stacks with
//! `setjmp`/`longjmp` (~100 ns per switch). Two interchangeable backends
//! implement the same API here ([`CthBackend`]):
//!
//! * **`fiber`** (the default where supported: x86-64 System-V) — each
//!   thread object is a stackful [`converse_fiber::Fiber`]: a context
//!   switch saves/restores the callee-saved register set in ~20 ns, the
//!   same constant class the paper paid. A thread runs on a whole
//!   execution context — stack, saved registers, the fiber's own
//!   bookkeeping — taken from a per-PE size-classed **context pool** and
//!   re-armed (create-run-exit reuses a hot context and allocates
//!   nothing; the pool keeps as many as the PE ever had threads alive at
//!   once; see [`CthRuntime::stack_pool_stats`]),
//!   and [`cth_suspend`] with a ready successor switches **directly** to
//!   it without bouncing through the Csd queue (the direct-handoff fast
//!   path; per-thread strategies are consulted as always).
//! * **`handoff`** (portable fallback) — a thread object owns a real OS
//!   thread gated by a hand-off token: exactly one context per PE runs
//!   at any instant. Every semantic property is identical; only the
//!   constant differs (~10 µs per switch).
//!
//! Selection: [`converse_machine::MachineConfig::thread_backend`] pins a
//! backend per machine; under the default `Auto`, the `CTH_BACKEND`
//! environment variable (`"fiber"` / `"handoff"`) overrides, else the
//! fiber backend is chosen where supported. Requesting `fiber` on an
//! unsupported target silently falls back to `handoff`, so portable code
//! never breaks.
//!
//! One caveat is inherited from the mechanism itself (and pinned by a
//! test in `converse-fiber`): a fiber-backed thread that is **dropped
//! while suspended leaks whatever is live on its stack** — destructors
//! do not run, exactly like discarding a `setjmp` context in 1996. The
//! runtime never does this on its own: machine teardown *poisons*
//! still-suspended threads, which unwinds their stacks and reclaims
//! them into the pool.
//!
//! # Scheduler integration
//!
//! [`CthRuntime::spawn_scheduled`] gives a thread the **Csd strategy**:
//! awakening it enqueues a generalized message whose handler resumes the
//! thread — the unification of threads and messages the paper's design
//! rests on (§3.1.1: a generalized message can be "a scheduler entry for
//! a ready thread"). This holds on both backends: the generalized
//! message format and the Csd queue are backend-independent.
//!
//! # Single ownership, checked
//!
//! Thread objects are PE-local: exactly one context of a PE runs at a
//! time, the one holding the PE's run token ([`Pe::owner`]). Everything
//! the switch path touches — who is running, the ready pool, the live
//! threads, each thread's strategy and entry function, the fiber table
//! and context pool — lives in [`OwnerCell`]s of that token (the fiber state
//! in a [`PinnedCell`]: fibers stay on their OS thread): no lock, and a
//! thread API call from an OS thread that does not hold the token
//! panics instead of racing. On the fiber backend the token never
//! leaves the PE's thread. On the hand-off backend it follows control:
//! the context giving up control releases it before waking its
//! successor, which adopts it once woken (`wake` / `wait_for_token`;
//! the gate mutex and condvar of the woken thread order the two). A
//! thread's state itself is one atomic byte, written by the running
//! context: the fiber backend takes no lock anywhere on a switch.

use converse_core::csd;
use converse_machine::{HandlerId, IdMap, Message, OwnerCell, Pe, PinnedCell, ThreadBackend};
use converse_msg::{pack::Unpacker, Priority};
use converse_queue::QueueingMode;
use converse_trace::Event;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

/// Payload used to unwind a poisoned (machine-teardown) thread without
/// tripping the global panic hook.
struct ThreadPoison;

/// Payload used by [`cth_exit`] to unwind to the thread's landing pad.
struct ExitRequested;

/// A thread's entry function, boxed for storage until first resume.
type Entry = Box<dyn FnOnce(&Pe) + Send>;

/// How a thread is awakened (`CthSetStrategy` awakefn).
pub type AwakenFn = Box<dyn FnMut(&Pe, Thread) + Send>;

/// How a suspending thread picks its successor (`CthSetStrategy`
/// suspfn); `None` = the PE's scheduler/main context.
pub type SuspendFn = Box<dyn FnMut(&Pe) -> Option<Thread> + Send>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum State {
    /// Created, no execution context yet; the entry function waits in
    /// [`Owned::entry`].
    NotStarted,
    /// Suspended: fiber parked in the runtime map, or OS thread blocked
    /// on the hand-off condvar.
    Parked,
    /// This context currently holds the PE's run token.
    Running,
    /// The thread function returned (or the thread was poisoned).
    Exited,
    /// Machine teardown: next wakeup unwinds the stack.
    Poisoned,
}

/// A thread's [`State`]: written by the PE's running context only,
/// readable from anywhere ([`Thread::is_exited`] is not handed a PE).
/// The fiber backend, where every context of a PE runs on one OS
/// thread, needs no more than this; the hand-off backend makes the
/// writes a parked OS thread waits for under [`Inner::gate`].
struct StateCell(AtomicU8);

impl StateCell {
    const ALL: [State; 5] = [
        State::NotStarted,
        State::Parked,
        State::Running,
        State::Exited,
        State::Poisoned,
    ];

    #[inline]
    fn get(&self) -> State {
        Self::ALL[self.0.load(Ordering::Acquire) as usize]
    }

    #[inline]
    fn set(&self, to: State) {
        self.0.store(to as u8, Ordering::Release);
    }
}

/// What only the PE's running context touches of a thread object.
struct Owned {
    /// `None` only while a [`Strategy::Custom`] is out of the cell being
    /// called (it reads as [`Strategy::Default`] then).
    strategy: Option<Strategy>,
    /// The entry function, until the first resume (or teardown) takes
    /// it.
    entry: Option<Entry>,
}

struct Inner {
    id: u64,
    state: StateCell,
    /// Hand-off backend only: the lock and condvar the owning OS thread
    /// parks on, waiting for `state` to leave `Parked`.
    gate: Mutex<()>,
    cv: Condvar,
    owned: OwnerCell<Owned>,
    stack_size: usize,
    /// Fiber backend only: the running fiber's yield handle
    /// (`*const FiberHandle` as usize; 0 while not on a fiber stack).
    /// Only dereferenced from the fiber itself, where it is valid by
    /// construction.
    handle: AtomicU64,
}

/// How a thread is awakened and what runs when it suspends
/// (`CthSetStrategy`). The two strategies the runtime itself provides
/// are plain variants — no closure is boxed or called for them;
/// [`Strategy::Custom`] carries a module's own pair.
#[derive(Default)]
pub enum Strategy {
    /// Awaken appends the thread to the PE's ready pool; suspend
    /// switches to the pool's oldest thread, else to the PE's
    /// scheduler/main context.
    #[default]
    Default,
    /// The Csd strategy: awaken enqueues a generalized message of this
    /// priority whose handler resumes the thread; suspend returns to the
    /// scheduler context.
    Csd(Priority),
    /// A module's own order of selection.
    Custom {
        /// Called by [`cth_awaken`]: store the thread where the suspend
        /// side will find it.
        awaken: AwakenFn,
        /// Called by [`cth_suspend`] on this thread: pick the next
        /// context (`None` = the PE's scheduler/main context).
        suspend: SuspendFn,
    },
}

/// What a strategy asks of [`cth_awaken`], read with the strategy's
/// cell open and carried out with it closed.
enum Awaken {
    Ready,
    Enqueue(Message, QueueingMode),
    Call(Strategy),
}

/// What a strategy says about who runs next, likewise.
enum Successor {
    Ready,
    Scheduler,
    Ask(Strategy),
}

/// A handle to a Converse thread object (`THREAD *`). Clone freely; all
/// clones denote the same thread. Thread objects are PE-local: create,
/// awaken and resume them only from a context of their home PE — any
/// other OS thread that tries panics (the handle itself may be stored
/// and dropped anywhere).
#[derive(Clone)]
pub struct Thread(Arc<Inner>);

impl Thread {
    /// A thread object that will run `entry` (`None`: the PE's main
    /// context, running already).
    fn new(
        pe: &Pe,
        id: u64,
        entry: Option<Entry>,
        stack_size: usize,
        strategy: Strategy,
    ) -> Thread {
        let state = match entry {
            Some(_) => State::NotStarted,
            None => State::Running,
        };
        let owned = Owned {
            strategy: Some(strategy),
            entry,
        };
        Thread(Arc::new(Inner {
            id,
            state: StateCell(AtomicU8::new(state as u8)),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            owned: OwnerCell::new(pe.owner(), owned),
            stack_size,
            handle: AtomicU64::new(0),
        }))
    }

    /// What awakening this thread takes. A custom strategy leaves its
    /// cell, so it is called with the cell closed: it may call back into
    /// the thread API, this thread's included. Pair with
    /// [`Thread::restore_strategy`].
    fn awaken_plan(&self, pe: &Pe, rt: &CthRuntime) -> Awaken {
        self.0.owned.with(pe.owner(), |o| match &mut o.strategy {
            None | Some(Strategy::Default) => Awaken::Ready,
            Some(Strategy::Csd(prio)) => {
                let mode = if *prio == Priority::None {
                    QueueingMode::Fifo
                } else {
                    QueueingMode::PrioFifo
                };
                // Same wire format as `Packer::u64`, no Vec allocation.
                let tid = self.0.id.to_le_bytes();
                Awaken::Enqueue(Message::with_priority(rt.resume_handler, prio, &tid), mode)
            }
            slot @ Some(Strategy::Custom { .. }) => {
                Awaken::Call(slot.take().expect("matched Some"))
            }
        })
    }

    /// Who runs when this thread gives up control; see
    /// [`Thread::awaken_plan`].
    fn successor_plan(&self, pe: &Pe) -> Successor {
        self.0.owned.with(pe.owner(), |o| match &mut o.strategy {
            None | Some(Strategy::Default) => Successor::Ready,
            Some(Strategy::Csd(_)) => Successor::Scheduler,
            slot @ Some(Strategy::Custom { .. }) => {
                Successor::Ask(slot.take().expect("matched Some"))
            }
        })
    }

    /// Put a taken strategy back — unless the call installed another.
    fn restore_strategy(&self, pe: &Pe, taken: Strategy) {
        self.0.owned.with(pe.owner(), |o| {
            o.strategy.get_or_insert(taken);
        });
    }

    /// Take the entry function out: for the first start, or for
    /// teardown to drop.
    fn take_entry(&self, pe: &Pe) -> Option<Entry> {
        self.0.owned.with(pe.owner(), |o| o.entry.take())
    }

    /// Teardown's visit to one thread: a thread that never ran loses its
    /// entry function (it has no stack); a suspended one is marked
    /// `Poisoned` and `true` is returned: its next wakeup unwinds its
    /// stack.
    fn poison_if_suspended(&self, pe: &Pe) -> bool {
        match self.0.state.get() {
            State::NotStarted => {
                drop(self.take_entry(pe));
                self.0.state.set(State::Exited);
                false
            }
            State::Parked => {
                self.0.state.set(State::Poisoned);
                true
            }
            State::Running => unreachable!(
                "PE {}: teardown while thread {} runs — the main context holds the token",
                pe.my_pe(),
                self.id()
            ),
            State::Exited | State::Poisoned => false,
        }
    }

    /// Runtime-unique thread id (0 names the PE's main context).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// True once the thread function has returned.
    pub fn is_exited(&self) -> bool {
        self.0.state.get() == State::Exited
    }

    fn same(&self, other: &Thread) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Thread({})", self.0.id)
    }
}

impl PartialEq for Thread {
    fn eq(&self, other: &Self) -> bool {
        self.same(other)
    }
}

impl Eq for Thread {}

/// Default stack size for thread objects (`STACKSIZE`).
pub const DEFAULT_STACK_SIZE: usize = 256 * 1024;

/// How often a [`Event::ThreadSwitch`] record is emitted: one per this
/// many context switches. A fiber switch is ~20 ns; recording each one
/// would dwarf the thing being measured.
const SWITCH_SAMPLE: u64 = 32;

/// The mechanism backing the thread objects of one PE's runtime — the
/// *resolved* form of [`converse_machine::ThreadBackend`] (no `Auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CthBackend {
    /// Stackful user-level fibers (x86-64 SysV): ~20 ns switch, pooled
    /// stacks, direct-handoff suspend fast path.
    Fiber,
    /// Hand-off OS threads: portable, ~10 µs switch.
    Handoff,
}

impl CthBackend {
    /// Short lowercase label (`"fiber"` / `"handoff"`), as used in
    /// [`Event::ThreadSwitch`] and the `CTH_BACKEND` variable.
    pub fn label(self) -> &'static str {
        match self {
            CthBackend::Fiber => "fiber",
            CthBackend::Handoff => "handoff",
        }
    }

    /// True when this build target supports the fiber backend.
    pub fn fiber_supported() -> bool {
        cfg!(all(target_arch = "x86_64", unix))
    }

    /// The backends usable on this target, fastest first. Test suites
    /// iterate this to prove API equivalence on every backend.
    pub fn available() -> &'static [CthBackend] {
        if Self::fiber_supported() {
            &[CthBackend::Fiber, CthBackend::Handoff]
        } else {
            &[CthBackend::Handoff]
        }
    }

    /// The machine-config request pinning this backend.
    pub fn to_config(self) -> ThreadBackend {
        match self {
            CthBackend::Fiber => ThreadBackend::Fiber,
            CthBackend::Handoff => ThreadBackend::Handoff,
        }
    }

    /// Resolve the machine's requested backend for `pe`: an explicit
    /// config wins; `Auto` honours `CTH_BACKEND` and otherwise picks
    /// fiber where supported; an unsupported fiber request falls back to
    /// hand-off.
    fn resolve(pe: &Pe) -> CthBackend {
        let choice = match pe.thread_backend() {
            ThreadBackend::Fiber => CthBackend::Fiber,
            ThreadBackend::Handoff => CthBackend::Handoff,
            ThreadBackend::Auto => match std::env::var("CTH_BACKEND").ok().as_deref() {
                Some("fiber") => CthBackend::Fiber,
                Some("handoff") => CthBackend::Handoff,
                Some(other) => {
                    panic!("CTH_BACKEND must be \"fiber\" or \"handoff\", got {other:?}")
                }
                None => CthBackend::Fiber,
            },
        };
        if choice == CthBackend::Fiber && !Self::fiber_supported() {
            CthBackend::Handoff
        } else {
            choice
        }
    }
}

/// Stack-pool counters (fiber backend): the thread-stack analogue of the
/// message-buffer pool's `PoolStats`. All zero on the hand-off backend.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StackPoolStats {
    /// Thread starts served from the free list (no allocation).
    pub hits: u64,
    /// Thread starts that went to the system allocator for a stack.
    pub misses: u64,
    /// Finished threads' execution contexts (stack included) retained
    /// for reuse.
    pub recycled: u64,
    /// Finished threads' contexts dropped: stacks of an unpoolable size.
    pub discarded: u64,
}

/// What the switch path reads and writes; one cell, opened briefly and
/// never across a call into user code.
struct Sched {
    /// The thread object holding the run token; `None` in the PE's main
    /// (scheduler) context. The running thread's handle is *moved* in
    /// and out by the fiber drive loop — no refcount traffic per switch.
    current: Option<Thread>,
    /// Default ready pool used by the default suspend/awaken strategy.
    ready: VecDeque<Thread>,
    /// Every thread created on this PE and not yet exited, by id: where
    /// a Csd resume message finds its thread, and what teardown walks.
    live: IdMap<Thread>,
    next_id: u64,
    /// Context switches performed (both backends) — the sampling key for
    /// [`Event::ThreadSwitch`].
    switches: u64,
    /// Switches that took the direct-handoff fast path: suspend went
    /// straight to the next ready thread, no Csd queue bounce.
    direct: u64,
}

/// What the hand-off backend keeps beside its OS threads — off the
/// switch path.
#[derive(Default)]
struct Registry {
    /// The OS thread of every started thread object, joined once the
    /// thread object has exited.
    os_threads: Vec<(Thread, std::thread::JoinHandle<()>)>,
    /// A panic raised inside a hand-off thread, carried to the main
    /// context (fiber panics propagate synchronously instead).
    pending_panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Per-PE thread runtime (`CthInit` creates it implicitly on first use).
pub struct CthRuntime {
    /// Which mechanism backs this PE's thread objects.
    backend: CthBackend,
    /// The PE this runtime lives on. Only the diagnostic readers use it
    /// (`ready_len`, `live_len`, `switches`, `direct_handoffs`,
    /// `stack_pool_stats`): their `&self` signatures predate the cells
    /// and are kept for their callers, so they find the token here.
    /// Everything on a switch's path is handed `pe`.
    home: Weak<Pe>,
    /// The PE's original context: the scheduler/entry stack.
    main: Thread,
    /// Handler resuming a thread from a generalized message (the Csd
    /// integration).
    resume_handler: HandlerId,
    sched: OwnerCell<Sched>,
    registry: OwnerCell<Registry>,
    /// Fiber-backend state (parked fibers, pending directive, stack
    /// pool); inert in hand-off mode. Fibers are not `Send`, so the
    /// cell is pinned to the PE's own OS thread, where the runtime is
    /// always created (the first `cth_*` call comes from the main
    /// context).
    fiber: PinnedCell<fb::FiberState>,
}

impl CthRuntime {
    /// The thread runtime of this PE, borrowed from its PE-local
    /// storage and initialized on first call (`CthInit`). Registers one
    /// handler — call it at the same registration position on every PE
    /// if threads are used anywhere — and installs the teardown hook
    /// that poisons still-suspended threads when the PE's entry returns.
    #[inline]
    pub fn get(pe: &Pe) -> &CthRuntime {
        match pe.local_ref() {
            Some(rt) => rt,
            None => Self::init(pe),
        }
    }

    #[cold]
    fn init(pe: &Pe) -> &CthRuntime {
        pe.local(|| {
            let resume_handler = pe.register_handler(|pe, msg| {
                let mut u = Unpacker::new(msg.payload());
                let tid = u.u64().expect("cth resume: tid");
                let rt = CthRuntime::get(pe);
                let t = rt
                    .sched(pe, |s| s.live.get(&tid).cloned())
                    .unwrap_or_else(|| {
                        panic!("PE {}: resume message for unknown thread {tid}", pe.my_pe())
                    });
                resume(pe, rt, t);
            });
            pe.on_exit(|pe| CthRuntime::get(pe).teardown(pe));
            CthRuntime {
                backend: CthBackend::resolve(pe),
                home: Arc::downgrade(&pe.arc()),
                main: Thread::new(pe, 0, None, 0, Strategy::Default),
                resume_handler,
                sched: OwnerCell::new(
                    pe.owner(),
                    Sched {
                        current: None,
                        ready: VecDeque::new(),
                        live: IdMap::default(),
                        next_id: 1,
                        switches: 0,
                        direct: 0,
                    },
                ),
                registry: OwnerCell::new(pe.owner(), Registry::default()),
                fiber: PinnedCell::new(pe.owner(), fb::FiberState::new()),
            }
        });
        pe.local_ref().expect("just installed")
    }

    /// Open the switch-path state. `f` must not call user code.
    #[inline(always)]
    fn sched<R>(&self, pe: &Pe, f: impl FnOnce(&mut Sched) -> R) -> R {
        self.sched.with(pe.owner(), f)
    }

    /// Borrow the running thread object for a short look (its id, its
    /// strategy cell, its yield handle): no handle is cloned. Panics in
    /// the main context, which `what` names.
    #[inline]
    fn with_current<R>(&self, pe: &Pe, what: &str, f: impl FnOnce(&Thread) -> R) -> R {
        self.sched(pe, |s| match &s.current {
            Some(me) => f(me),
            None => panic!(
                "PE {}: {what} called from the main context — only thread objects suspend",
                pe.my_pe()
            ),
        })
    }

    /// A handle to the running context (the main context's included).
    fn current_thread(&self, pe: &Pe) -> Thread {
        self.sched(pe, |s| s.current.clone())
            .unwrap_or_else(|| self.main.clone())
    }

    /// `t`, or `None` when it is the main context — the form
    /// `Sched::current` keeps.
    fn as_current(&self, t: &Thread) -> Option<Thread> {
        (!t.same(&self.main)).then(|| t.clone())
    }

    /// The PE this runtime belongs to, for the readers that are not
    /// handed one. They are owner-only like the state they read: off the
    /// PE's contexts the cell they open panics.
    fn home(&self) -> Arc<Pe> {
        self.home
            .upgrade()
            .expect("the thread runtime lives in its PE's local storage")
    }

    /// The backend this PE's thread objects run on.
    pub fn backend(&self) -> CthBackend {
        self.backend
    }

    /// Spawn a thread under the **Csd strategy** and awaken it, so it
    /// starts running when the scheduler reaches its ready-entry
    /// (`tSMCreate`-style). Returns its handle.
    pub fn spawn_scheduled<F>(&self, pe: &Pe, f: F) -> Thread
    where
        F: FnOnce(&Pe) + Send + 'static,
    {
        self.spawn_scheduled_prio(pe, Priority::None, f)
    }

    /// Like [`CthRuntime::spawn_scheduled`] with an explicit scheduling
    /// priority for the thread's ready messages.
    pub fn spawn_scheduled_prio<F>(&self, pe: &Pe, prio: Priority, f: F) -> Thread
    where
        F: FnOnce(&Pe) + Send + 'static,
    {
        let t = create(pe, Box::new(f), DEFAULT_STACK_SIZE, Strategy::Csd(prio));
        // Not `cth_awaken`: a thread made this instant has not exited.
        awaken(pe, self, &t);
        t
    }

    /// Number of threads in the default ready pool.
    pub fn ready_len(&self) -> usize {
        self.sched(&self.home(), |s| s.ready.len())
    }

    /// Number of live (created, not yet exited) threads.
    pub fn live_len(&self) -> usize {
        self.sched(&self.home(), |s| s.live.len())
    }

    /// Context switches performed so far on this PE (both backends).
    pub fn switches(&self) -> u64 {
        self.sched(&self.home(), |s| s.switches)
    }

    /// Switches that took the direct-handoff fast path (suspend handed
    /// control straight to the next ready thread).
    pub fn direct_handoffs(&self) -> u64 {
        self.sched(&self.home(), |s| s.direct)
    }

    /// Snapshot of the fiber backend's stack-pool counters (all zero on
    /// the hand-off backend, which uses OS thread stacks).
    pub fn stack_pool_stats(&self) -> StackPoolStats {
        if self.backend == CthBackend::Fiber {
            fb::pool_stats(&self.home(), self)
        } else {
            StackPoolStats::default()
        }
    }

    /// Make `next` (`None` = the main context) the running context,
    /// count the control transfer and emit the sampled
    /// [`Event::ThreadSwitch`] record.
    fn switch_to(&self, pe: &Pe, next: Option<Thread>, direct: bool) {
        let sampled = self.sched(pe, |s| {
            s.current = next;
            s.direct += direct as u64;
            let n = s.switches;
            s.switches += 1;
            n.is_multiple_of(SWITCH_SAMPLE)
        });
        if sampled && pe.trace_enabled() {
            pe.trace_event(Event::ThreadSwitch {
                backend: self.backend.label(),
                direct_handoff: direct,
            });
        }
    }

    /// Poison every still-suspended thread: fibers are driven through a
    /// poison unwind on the spot (stacks reclaimed into the pool);
    /// hand-off OS threads are woken poisoned and joined, one at a time,
    /// each holding the run token while its stack unwinds (destructors
    /// on it may use the PE).
    fn teardown(&self, pe: &Pe) {
        let mut live: Vec<Thread> = self.sched(pe, |s| s.live.drain().map(|(_, t)| t).collect());
        live.sort_unstable_by_key(Thread::id);
        match self.backend {
            CthBackend::Fiber => fb::teardown(pe, self, live),
            CthBackend::Handoff => {
                let mut os_threads = self
                    .registry
                    .with(pe.owner(), |r| std::mem::take(&mut r.os_threads));
                for t in live {
                    {
                        let _gate = t.0.gate.lock();
                        if !t.poison_if_suspended(pe) {
                            continue;
                        }
                        // Under `t`'s gate, which `t` holds to see
                        // `Poisoned`: the release happens-before its adopt.
                        pe.owner().release();
                        t.0.cv.notify_all();
                    }
                    let at = os_threads.iter().position(|(o, _)| o.same(&t));
                    let (_, os_thread) =
                        os_threads.swap_remove(at.expect("a parked thread runs on an OS thread"));
                    let _ = os_thread.join();
                    // SAFETY: the token was released to `t` alone, which
                    // releases it in `finish_thread` before its OS thread
                    // ends; the join above orders that before this call.
                    unsafe { pe.owner().adopt() };
                }
                for (_, os_thread) in os_threads {
                    let _ = os_thread.join();
                }
            }
        }
    }
}

/// Run `entry` once per backend available on this target (see
/// [`CthBackend::available`]), each time on a fresh machine of
/// `num_pes` PEs with that backend pinned. The workhorse of the
/// backend-parity test suites: code that passes here is proven
/// API-equivalent on every backend.
pub fn run_on_each_backend<F>(num_pes: usize, entry: F)
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    let entry = Arc::new(entry);
    for &b in CthBackend::available() {
        let e = entry.clone();
        let cfg = converse_machine::MachineConfig::new(num_pes).thread_backend(b.to_config());
        converse_machine::run_with(cfg, move |pe| e(pe));
    }
}

/// Create a thread object with the default stack size (`CthCreate`).
/// The thread does not run until resumed or awakened.
pub fn cth_create<F>(pe: &Pe, f: F) -> Thread
where
    F: FnOnce(&Pe) + Send + 'static,
{
    cth_create_of_size(pe, f, DEFAULT_STACK_SIZE)
}

/// Create a thread object with an explicit stack size
/// (`CthCreateOfSize`).
pub fn cth_create_of_size<F>(pe: &Pe, f: F, stack_size: usize) -> Thread
where
    F: FnOnce(&Pe) + Send + 'static,
{
    create(pe, Box::new(f), stack_size, Strategy::Default)
}

/// A thread object costs two allocations: its handle and its boxed
/// entry function. Its execution context comes from the pool at its
/// first resume.
fn create(pe: &Pe, entry: Entry, stack_size: usize, strategy: Strategy) -> Thread {
    let t = CthRuntime::get(pe).sched(pe, |s| {
        let id = s.next_id;
        s.next_id += 1;
        let t = Thread::new(pe, id, Some(entry), stack_size, strategy);
        s.live.insert(id, t.clone());
        t
    });
    pe.trace_event(Event::ThreadCreate { tid: t.id() });
    t
}

/// Install a per-thread scheduling strategy (`CthSetStrategy`): how
/// [`cth_awaken`] stores the thread, and which thread [`cth_suspend`]
/// picks when *this* thread gives up control.
pub fn cth_set_strategy(pe: &Pe, t: &Thread, s: Strategy) {
    t.0.owned.with(pe.owner(), |o| o.strategy = Some(s));
}

/// Give `t` the Csd strategy: awakening enqueues a generalized message
/// (optionally prioritized) whose handler resumes the thread; suspension
/// returns control to the scheduler context.
pub fn set_csd_strategy(pe: &Pe, t: &Thread, prio: Priority) {
    cth_set_strategy(pe, t, Strategy::Csd(prio));
}

/// The currently executing thread (`CthSelf`); `None` in the PE's main
/// (scheduler) context.
pub fn cth_self(pe: &Pe) -> Option<Thread> {
    CthRuntime::get(pe).sched(pe, |s| s.current.clone())
}

/// Transfer control to `t` immediately (`CthResume`). The calling
/// context is parked un-awakened: someone must `cth_resume` or
/// `cth_awaken` it later, exactly as in the C API.
pub fn cth_resume(pe: &Pe, t: &Thread) {
    resume(pe, CthRuntime::get(pe), t.clone());
}

/// [`cth_resume`] of a handle the caller gives away (the Csd resume
/// handler's case: no refcount traffic on the fiber backend).
fn resume(pe: &Pe, rt: &CthRuntime, t: Thread) {
    // Thread ids are per PE (0 = the main context), as threads are.
    let me = rt.sched(pe, |s| s.current.as_ref().map_or(0, Thread::id));
    if me == t.id() {
        return;
    }
    match rt.backend {
        CthBackend::Handoff => transfer(pe, rt, &rt.current_thread(pe), &t, false),
        CthBackend::Fiber => fb::resume(pe, rt, me == 0, t),
    }
}

/// Suspend the current thread and transfer control according to its
/// strategy (`CthSuspend`): by default the oldest thread in the ready
/// pool, else the PE's main context. On the fiber backend a `Some`
/// successor is switched to **directly** — one ~20 ns context switch, no
/// Csd queue bounce (the direct-handoff fast path).
pub fn cth_suspend(pe: &Pe) {
    suspend_current(pe, CthRuntime::get(pe), "cth_suspend");
}

/// Who runs next by `plan` (`None` = the PE's main context). A custom
/// strategy is called here, every cell closed, and handed to `restore`.
fn pick_successor(
    pe: &Pe,
    rt: &CthRuntime,
    plan: Successor,
    restore: impl FnOnce(Strategy),
) -> Option<Thread> {
    match plan {
        Successor::Ready => rt.sched(pe, |s| s.ready.pop_front()),
        Successor::Scheduler => None,
        Successor::Ask(mut custom) => {
            let Strategy::Custom { suspend, .. } = &mut custom else {
                unreachable!("only a custom strategy is asked")
            };
            let next = suspend(pe);
            restore(custom);
            next
        }
    }
}

/// Who runs next when `t` gives up control for good (exit).
fn successor_of(pe: &Pe, rt: &CthRuntime, t: &Thread) -> Option<Thread> {
    pick_successor(pe, rt, t.successor_plan(pe), |s| t.restore_strategy(pe, s))
}

fn suspend_current(pe: &Pe, rt: &CthRuntime, what: &str) {
    // The running thread is reached by borrow; its strategy runs with
    // every cell closed.
    let (me, plan) = rt.with_current(pe, what, |me| (me.id(), me.successor_plan(pe)));
    let next = pick_successor(pe, rt, plan, |s| {
        rt.with_current(pe, what, |me| me.restore_strategy(pe, s))
    });
    // A strategy may hand back the suspending thread itself (a solo
    // thread yielding); control simply stays put.
    if next.as_ref().is_some_and(|n| n.id() == me) {
        return;
    }
    pe.trace_event(Event::ThreadSuspend { tid: me });
    match rt.backend {
        CthBackend::Handoff => {
            let direct = next.is_some();
            let target = next.unwrap_or_else(|| rt.main.clone());
            transfer(pe, rt, &rt.current_thread(pe), &target, direct);
        }
        CthBackend::Fiber => fb::suspend(pe, rt, next),
    }
}

/// Add `t` to its scheduler's ready pool (`CthAwaken`): permission for a
/// future suspend to transfer control to it. Must only be called when
/// the thread is genuinely ready to continue.
pub fn cth_awaken(pe: &Pe, t: &Thread) {
    assert!(
        !matches!(t.0.state.get(), State::Exited | State::Poisoned),
        "PE {}: awaken of exited thread {}",
        pe.my_pe(),
        t.id()
    );
    awaken(pe, CthRuntime::get(pe), t);
}

fn awaken(pe: &Pe, rt: &CthRuntime, t: &Thread) {
    match t.awaken_plan(pe, rt) {
        Awaken::Ready => rt.sched(pe, |s| s.ready.push_back(t.clone())),
        Awaken::Enqueue(msg, mode) => csd::csd_enqueue_general(pe, msg, mode),
        Awaken::Call(mut custom) => {
            let Strategy::Custom { awaken, .. } = &mut custom else {
                unreachable!("only a custom strategy is called")
            };
            awaken(pe, t.clone());
            t.restore_strategy(pe, custom);
        }
    }
}

/// Awaken the current thread then suspend (`CthYield`): control will
/// eventually return here.
pub fn cth_yield(pe: &Pe) {
    let rt = CthRuntime::get(pe);
    let me = rt.with_current(pe, "cth_yield", Thread::clone);
    cth_awaken(pe, &me);
    suspend_current(pe, rt, "cth_yield");
}

/// Terminate the current thread (`CthExit`): control transfers per the
/// thread's suspend strategy; the thread object becomes `Exited`.
/// Returning from the thread function calls this implicitly. Unwinds, so
/// destructors on the thread's stack run.
pub fn cth_exit(pe: &Pe) -> ! {
    CthRuntime::get(pe).with_current(pe, "cth_exit", |_| ());
    std::panic::resume_unwind(Box::new(ExitRequested));
}

// ---------------------------------------------------------------------
// Hand-off backend: one OS thread per thread object, gated by a token.
// ---------------------------------------------------------------------

/// The core hand-off: mark `from` parked, start/wake `to` (passing it
/// the run token), wait until someone hands the token back to `from`.
fn transfer(pe: &Pe, rt: &CthRuntime, from: &Thread, to: &Thread, direct: bool) {
    debug_assert!(!from.same(to));
    rt.switch_to(pe, rt.as_current(to), direct && !to.same(&rt.main));
    pe.trace_event(Event::ThreadResume { tid: to.id() });
    // Park self BEFORE waking the target so the target can immediately
    // re-resume us without a lost wakeup.
    debug_assert_eq!(from.0.state.get(), State::Running);
    from.0.state.set(State::Parked);
    wake(pe, rt, to);
    wait_for_token(pe, rt, from);
}

/// Hand the run token to `to` and let it run. The caller holds the
/// token on entry and has given it up on return.
fn wake(pe: &Pe, rt: &CthRuntime, to: &Thread) {
    if to.0.state.get() == State::NotStarted {
        // First start: give the thread its OS thread, parked like any
        // other until the token is passed below.
        let entry = to.take_entry(pe).expect("entry present before first start");
        to.0.state.set(State::Parked);
        spawn_os_thread(pe, rt, to, entry);
    }
    let _gate = to.0.gate.lock();
    match to.0.state.get() {
        State::Parked => {
            // Released under `to`'s gate, which `to` holds to see
            // `Running`: the release happens-before its adopt.
            pe.owner().release();
            to.0.state.set(State::Running);
            to.0.cv.notify_all();
        }
        State::Running => panic!("PE {}: resume of running thread {}", pe.my_pe(), to.id()),
        State::NotStarted => unreachable!("started above"),
        State::Exited | State::Poisoned => {
            panic!("PE {}: resume of exited thread {}", pe.my_pe(), to.id())
        }
    }
}

/// Park the calling context until it is handed the run token (or
/// poisoned by teardown, which hands it the token to unwind with).
fn wait_for_token(pe: &Pe, rt: &CthRuntime, me: &Thread) {
    let poisoned = {
        let mut gate = me.0.gate.lock();
        loop {
            match me.0.state.get() {
                State::Parked => me.0.cv.wait(&mut gate),
                State::Running => break false,
                State::Poisoned => break true,
                _ => unreachable!("parked context can only become Running or Poisoned"),
            }
        }
    };
    // SAFETY: whoever set this context `Running` (`wake`) or `Poisoned`
    // (`teardown`) released the token first, under this thread's gate,
    // and named no other successor; holding the gate above orders this
    // call after the release.
    unsafe { pe.owner().adopt() };
    if poisoned {
        std::panic::resume_unwind(Box::new(ThreadPoison));
    }
    // Back in control. If a thread carried a panic to the main context,
    // re-raise it here so it propagates out of the PE entry.
    if me.same(&rt.main) {
        if let Some(p) = rt.registry.with(pe.owner(), |r| r.pending_panic.take()) {
            std::panic::resume_unwind(p);
        }
    }
}

/// Give `t` an OS thread that waits for the run token, then runs
/// `entry`. Called by the token holder, which records the join handle.
fn spawn_os_thread(pe: &Pe, rt: &CthRuntime, t: &Thread, entry: Entry) {
    let pe_arc = pe.arc();
    let t2 = t.clone();
    let handle = std::thread::Builder::new()
        .name(format!("pe{}-cth{}", pe.my_pe(), t.id()))
        .stack_size(t.0.stack_size.max(16 * 1024))
        .spawn(move || {
            let pe = pe_arc;
            let rt = CthRuntime::get(&pe);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                wait_for_token(&pe, rt, &t2);
                entry(&pe);
            }));
            let user_panic = match result {
                Ok(()) => None,
                Err(p) if p.is::<ExitRequested>() || p.is::<ThreadPoison>() => None,
                Err(p) => Some(p),
            };
            finish_thread(&pe, rt, &t2, user_panic);
        })
        .expect("spawn thread-object OS thread");
    // Record the join handle for teardown.
    rt.registry.with(pe.owner(), |r| {
        // Before the list would grow, join the OS threads of the thread
        // objects that have exited (they are past their last use of the
        // runtime): a PE that creates a thread per task holds as many
        // entries as it ever had threads alive at once.
        if r.os_threads.len() == r.os_threads.capacity() {
            let (exited, alive) = std::mem::take(&mut r.os_threads)
                .into_iter()
                .partition(|(thread, _)| thread.is_exited());
            r.os_threads = alive;
            for (_, os_thread) in exited {
                let _ = os_thread.join();
            }
        }
        r.os_threads.push((t.clone(), handle));
    });
}

/// Common tail of a hand-off thread's life: mark exited and hand the
/// token to the next context (per strategy, else ready pool, else main).
fn finish_thread(
    pe: &Pe,
    rt: &CthRuntime,
    me: &Thread,
    user_panic: Option<Box<dyn std::any::Any + Send>>,
) {
    if me.0.state.get() == State::Poisoned {
        // Teardown owns the machine and is joining this thread: mark
        // exited and give the token back.
        me.0.state.set(State::Exited);
        pe.owner().release();
        return;
    }
    if let Some(p) = user_panic {
        // Carry the panic to the main context and abort the machine so
        // other PEs unblock instead of deadlocking.
        rt.registry.with(pe.owner(), |r| r.pending_panic = Some(p));
        pe.abort_machine();
        me.0.state.set(State::Exited);
        rt.sched(pe, |s| {
            s.live.remove(&me.id());
            s.current = None;
        });
        let _gate = rt.main.0.gate.lock();
        if rt.main.0.state.get() == State::Parked {
            pe.owner().release();
            rt.main.0.state.set(State::Running);
            rt.main.0.cv.notify_all();
        }
        return;
    }
    let target = successor_of(pe, rt, me).unwrap_or_else(|| rt.main.clone());
    me.0.state.set(State::Exited);
    rt.sched(pe, |s| s.live.remove(&me.id()));
    rt.switch_to(pe, rt.as_current(&target), false);
    pe.trace_event(Event::ThreadResume { tid: target.id() });
    wake(pe, rt, &target);
}

// ---------------------------------------------------------------------
// Fiber backend: stackful user-level fibers driven from the main
// context, with pooled stacks and the direct-handoff fast path.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", unix))]
mod fb {
    use super::*;
    use converse_fiber::{Fiber, FiberHandle};

    /// What the fiber that just yielded wants the drive loop to do.
    pub(super) enum Directive {
        /// Return control to the main/scheduler context.
        Suspend,
        /// Switch straight to this thread; `direct` marks the suspend
        /// fast path (no Csd queue bounce) for the switch statistics.
        Transfer { to: Thread, direct: bool },
    }

    /// A pooled execution context: a stack and a fiber that runs
    /// [`thread_main`] on it, once per thread object it hosts.
    type Context = Fiber<(Arc<Pe>, Entry)>;

    /// Smallest pooled stack class.
    const MIN_CLASS: usize = 16 * 1024;
    /// Largest pooled stack class; bigger stacks are allocated exactly
    /// and never retained.
    const MAX_CLASS: usize = 1024 * 1024;
    /// Number of power-of-two classes in `MIN_CLASS..=MAX_CLASS`.
    const NUM_CLASSES: usize = (MAX_CLASS / MIN_CLASS).trailing_zeros() as usize + 1;

    /// Per-PE size-classed free list of execution contexts — the
    /// thread-stack analogue of the message-buffer pool: a thread that
    /// starts takes a finished thread's whole context (stack, saved
    /// registers, bookkeeping) and arms it, paying neither an allocation
    /// nor the zeroing of a fresh stack.
    ///
    /// # Retention
    ///
    /// A context of a pooled class is never dropped, so a class holds as
    /// many contexts as its PE ever had threads of that class **started
    /// and not yet exited at one time** — a context is only made when
    /// every existing one is in use. What is retained is what the
    /// program itself once kept alive: at worst that peak thread count ×
    /// the class size (256 KiB for [`DEFAULT_STACK_SIZE`]) of address
    /// space per PE, of which only the pages the threads touched are
    /// resident. No count picked in advance bounds it: a bound below a
    /// program's concurrency turns every start beyond it into a fresh
    /// zeroed stack (a 33rd blocked thread cost 48 µs against 1.3 µs
    /// when the class kept 32).
    pub(super) struct StackPool {
        free: [Vec<Context>; NUM_CLASSES],
        pub stats: StackPoolStats,
    }

    impl StackPool {
        fn new() -> StackPool {
            StackPool {
                free: Default::default(),
                stats: StackPoolStats::default(),
            }
        }

        /// Class index for a pooled stack of exactly `len` bytes.
        fn class_of(len: usize) -> Option<usize> {
            (len.is_power_of_two() && (MIN_CLASS..=MAX_CLASS).contains(&len))
                .then(|| (len / MIN_CLASS).trailing_zeros() as usize)
        }

        /// A finished context with a stack of at least `want` bytes:
        /// pooled (rounded up to its size class) when `want` fits a
        /// class, else an exact one-off allocation that will not be
        /// retained.
        fn take(&mut self, want: usize) -> Context {
            let rounded = want.max(MIN_CLASS).next_power_of_two();
            let pooled = Self::class_of(rounded).and_then(|class| self.free[class].pop());
            if let Some(context) = pooled {
                self.stats.hits += 1;
                return context;
            }
            self.stats.misses += 1;
            let size = if rounded <= MAX_CLASS { rounded } else { want };
            Fiber::with_entry(size, thread_main)
        }

        /// Keep a finished thread's context for the next one.
        fn give(&mut self, context: Context) {
            debug_assert!(context.is_done());
            match Self::class_of(context.stack_size()) {
                Some(class) => {
                    self.stats.recycled += 1;
                    self.free[class].push(context);
                }
                None => self.stats.discarded += 1,
            }
        }
    }

    pub(super) struct FiberState {
        /// Parked fibers by thread id; the running fiber (at most one)
        /// is owned by the drive loop's stack frame.
        fibers: IdMap<Context>,
        /// Set by the fiber that is about to yield; consumed by the
        /// drive loop to pick the next context.
        directive: Option<Directive>,
        /// Machine teardown in progress: finished fibers stop selecting
        /// successors.
        poisoning: bool,
        pool: StackPool,
    }

    impl FiberState {
        pub fn new() -> FiberState {
            FiberState {
                fibers: IdMap::default(),
                directive: None,
                poisoning: false,
                pool: StackPool::new(),
            }
        }
    }

    /// Open the fiber state: on the PE's own OS thread, with its token.
    #[inline(always)]
    fn fibers<R>(pe: &Pe, rt: &CthRuntime, f: impl FnOnce(&mut FiberState) -> R) -> R {
        rt.fiber.with(pe.owner(), f)
    }

    pub(super) fn pool_stats(pe: &Pe, rt: &CthRuntime) -> StackPoolStats {
        fibers(pe, rt, |fs| fs.pool.stats)
    }

    /// `cth_resume` on the fiber backend: from the main context, enter
    /// the drive loop; from inside a fiber, hand the drive loop a
    /// transfer directive and park.
    pub(super) fn resume(pe: &Pe, rt: &CthRuntime, from_main: bool, t: Thread) {
        if from_main {
            drive(pe, rt, t, false);
        } else {
            fibers(pe, rt, |fs| {
                fs.directive = Some(Directive::Transfer {
                    to: t,
                    direct: false,
                })
            });
            yield_to_main(pe, rt);
        }
    }

    /// `cth_suspend` on the fiber backend: `Some` successor = direct
    /// handoff (the fast path), `None` = back to the scheduler.
    pub(super) fn suspend(pe: &Pe, rt: &CthRuntime, next: Option<Thread>) {
        fibers(pe, rt, |fs| {
            fs.directive = Some(match next {
                Some(to) => Directive::Transfer { to, direct: true },
                None => Directive::Suspend,
            })
        });
        yield_to_main(pe, rt);
    }

    /// Suspend the running fiber, returning control to the drive loop.
    /// On wakeup, re-raise teardown poison so the stack unwinds.
    fn yield_to_main(pe: &Pe, rt: &CthRuntime) {
        let h = rt.with_current(pe, "a fiber switch", |me| {
            me.0.handle.load(Ordering::Relaxed)
        }) as *const FiberHandle;
        debug_assert!(
            !h.is_null(),
            "suspending fiber has a registered yield handle"
        );
        // SAFETY: `h` points at the FiberHandle on this very fiber's
        // stack (we are the fiber suspending; `fiber_entry` stored it),
        // live until completion.
        unsafe { (*h).yield_now() };
        // Resumed: the drive loop made this thread current again. Only
        // teardown poisons, so the thread's state is asked only then.
        let poisoned = fibers(pe, rt, |fs| fs.poisoning)
            && rt.with_current(pe, "a fiber switch", |me| {
                me.0.state.get() == State::Poisoned
            });
        if poisoned {
            std::panic::resume_unwind(Box::new(ThreadPoison));
        }
    }

    /// Materialize or retrieve the execution context for `t`, marking it
    /// running. A `NotStarted` thread's entry function moves into a
    /// pooled context here — creation is lazy, so a never-resumed thread
    /// costs no stack at all.
    fn take_fiber(pe: &Pe, rt: &CthRuntime, t: &Thread) -> Context {
        match t.0.state.get() {
            State::NotStarted => {
                let entry = t.take_entry(pe).expect("entry present before first start");
                t.0.state.set(State::Running);
                let mut context = fibers(pe, rt, |fs| fs.pool.take(t.0.stack_size));
                context.arm((pe.arc(), entry));
                context
            }
            state @ (State::Parked | State::Poisoned) => {
                // Poison is left set: the wakeup check in
                // `yield_to_main` turns it into an unwind.
                if state == State::Parked {
                    t.0.state.set(State::Running);
                }
                fibers(pe, rt, |fs| fs.fibers.remove(&t.0.id)).unwrap_or_else(|| {
                    panic!("PE {}: parked thread {} has no fiber", pe.my_pe(), t.id())
                })
            }
            State::Running => panic!("PE {}: resume of running thread {}", pe.my_pe(), t.id()),
            State::Exited => {
                panic!("PE {}: resume of exited thread {}", pe.my_pe(), t.id())
            }
        }
    }

    /// What every pooled context runs, once per thread object it hosts
    /// (the drive loop has made that thread current): register the yield
    /// handle, run the entry, swallow the control-flow unwinds (exit,
    /// poison) so the fiber finishes cleanly; genuine user panics are
    /// re-raised and surface from `Fiber::resume` in the drive loop.
    fn thread_main(h: &FiberHandle, (pe, entry): (Arc<Pe>, Entry)) {
        let rt = CthRuntime::get(&pe);
        let set_handle = |to: *const FiberHandle| {
            rt.with_current(&pe, "a fiber", |me| {
                me.0.handle.store(to as u64, Ordering::Relaxed)
            })
        };
        set_handle(h);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry(&pe)));
        set_handle(std::ptr::null());
        if let Err(p) = result {
            if !(p.is::<ExitRequested>() || p.is::<ThreadPoison>()) {
                std::panic::resume_unwind(p);
            }
        }
    }

    /// The fiber scheduler: runs on the main context, switching into
    /// `first` and then following the directives fibers leave behind —
    /// `Transfer` chains stay inside this loop (one ~20 ns switch per
    /// hop, never touching the Csd queue), `Suspend` returns to the
    /// caller (the Csd scheduler or the PE entry).
    fn drive(pe: &Pe, rt: &CthRuntime, first: Thread, mut direct: bool) {
        debug_assert!(
            rt.sched(pe, |s| s.current.is_none()),
            "PE {}: fiber drive entered outside the main context",
            pe.my_pe()
        );
        let mut t = first;
        loop {
            let mut fiber = take_fiber(pe, rt, &t);
            let tid = t.id();
            // The handle moves into `current` while the fiber runs and
            // back out when it yields: no refcount traffic per switch.
            rt.switch_to(pe, Some(t), direct);
            pe.trace_event(Event::ThreadResume { tid });
            let resumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fiber.resume()));
            t = rt
                .sched(pe, |s| s.current.take())
                .expect("the fiber that yielded is the running thread");
            let alive = match resumed {
                Ok(alive) => alive,
                Err(p) => {
                    // A user panic inside the fiber: the fiber is done
                    // (its stack already unwound inside the fiber
                    // boundary); restore bookkeeping, then let the
                    // panic propagate out of the PE entry.
                    t.0.state.set(State::Exited);
                    rt.sched(pe, |s| s.live.remove(&tid));
                    fibers(pe, rt, |fs| {
                        fs.directive = None;
                        fs.pool.give(fiber);
                    });
                    pe.abort_machine();
                    std::panic::resume_unwind(p);
                }
            };
            if !alive {
                t.0.state.set(State::Exited);
                rt.sched(pe, |s| s.live.remove(&tid));
            } else if t.0.state.get() == State::Running {
                t.0.state.set(State::Parked);
            }
            // Park the fiber (or keep its context for the next thread)
            // and read what it asked for, in one visit.
            let (directive, poisoning) = fibers(pe, rt, |fs| {
                if alive {
                    fs.fibers.insert(tid, fiber);
                } else {
                    fs.pool.give(fiber);
                }
                (fs.directive.take(), fs.poisoning)
            });
            match directive {
                Some(Directive::Transfer { to, direct: d }) => {
                    t = to;
                    direct = d;
                }
                Some(Directive::Suspend) => return,
                None => {
                    // The fiber finished (exit or return) without
                    // choosing: consult its suspend strategy, exactly
                    // like the hand-off backend's finish path.
                    debug_assert!(!alive);
                    if poisoning {
                        return;
                    }
                    match successor_of(pe, rt, &t) {
                        Some(n) if !n.same(&t) => {
                            t = n;
                            direct = false;
                        }
                        _ => return,
                    }
                }
            }
        }
    }

    /// Machine teardown on the fiber backend: every still-parked fiber
    /// is poisoned and driven through its unwind on the spot, so
    /// destructors run and its stack returns to the pool — no fiber is
    /// ever dropped suspended (which would leak; see `converse-fiber`).
    pub(super) fn teardown(pe: &Pe, rt: &CthRuntime, live: Vec<Thread>) {
        fibers(pe, rt, |fs| fs.poisoning = true);
        for t in live {
            if t.poison_if_suspended(pe) {
                drive(pe, rt, t, false);
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
mod fb {
    //! Stub for targets without fiber support: `CthBackend::resolve`
    //! never selects the fiber backend there, so none of these run.
    use super::*;

    pub(super) struct FiberState;

    impl FiberState {
        pub fn new() -> FiberState {
            FiberState
        }
    }

    pub(super) fn pool_stats(_pe: &Pe, _rt: &CthRuntime) -> StackPoolStats {
        unreachable!("fiber backend on unsupported target")
    }

    pub(super) fn resume(_pe: &Pe, _rt: &CthRuntime, _from_main: bool, _t: Thread) {
        unreachable!("fiber backend on unsupported target")
    }

    pub(super) fn suspend(_pe: &Pe, _rt: &CthRuntime, _next: Option<Thread>) {
        unreachable!("fiber backend on unsupported target")
    }

    pub(super) fn teardown(_pe: &Pe, _rt: &CthRuntime, _live: Vec<Thread>) {
        unreachable!("fiber backend on unsupported target")
    }
}
