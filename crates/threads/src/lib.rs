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
//!   same constant class the paper paid. Thread stacks come from a
//!   per-PE size-classed **stack pool** (create-run-exit reuses a hot
//!   stack instead of allocating; see [`CthRuntime::stack_pool_stats`]),
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
//! the switch path touches — who is running, the ready pool, the
//! Csd-scheduled threads, each thread's strategy, the fiber table and
//! stack pool — lives in [`OwnerCell`]s of that token (the fiber state
//! in a [`PinnedCell`]: fibers stay on their OS thread): no lock, and a
//! thread API call from an OS thread that does not hold the token
//! panics instead of racing. On the fiber backend the token never
//! leaves the PE's thread. On the hand-off backend it follows control:
//! the context giving up control releases it before waking its
//! successor, which adopts it once woken (`wake` / `wait_for_token`;
//! the state mutex and condvar of the woken thread order the two).

use converse_core::csd;
use converse_machine::{HandlerId, IdMap, Message, OwnerCell, Pe, PinnedCell, ThreadBackend};
use converse_msg::{pack::Unpacker, Priority};
use converse_queue::QueueingMode;
use converse_trace::Event;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
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

enum State {
    /// Created, no execution context yet; holds the entry function.
    NotStarted(Option<Entry>),
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

struct Inner {
    id: u64,
    state: Mutex<State>,
    /// Hand-off backend only: the condvar the owning OS thread parks on.
    cv: Condvar,
    /// `None` = the default ready-pool strategy (the common case pays no
    /// boxed-closure indirection on the switch path).
    strategy: OwnerCell<Option<Strategy>>,
    stack_size: usize,
    /// Fiber backend only: the running fiber's yield handle
    /// (`*const FiberHandle` as usize; 0 while not on a fiber stack).
    /// Only dereferenced from the fiber itself, where it is valid by
    /// construction.
    handle: AtomicU64,
}

/// How a thread is awakened and what runs when it suspends
/// (`CthSetStrategy`).
pub struct Strategy {
    /// Called by [`cth_awaken`]: store the thread where the suspend side
    /// will find it.
    pub awaken: AwakenFn,
    /// Called by [`cth_suspend`] on this thread: pick the next context
    /// (`None` = the PE's scheduler/main context).
    pub suspend: SuspendFn,
}

/// A handle to a Converse thread object (`THREAD *`). Clone freely; all
/// clones denote the same thread. Thread objects are PE-local: create,
/// awaken and resume them only from a context of their home PE — any
/// other OS thread that tries panics (the handle itself may be stored
/// and dropped anywhere).
#[derive(Clone)]
pub struct Thread(Arc<Inner>);

impl Thread {
    fn new(pe: &Pe, id: u64, state: State, stack_size: usize) -> Thread {
        Thread(Arc::new(Inner {
            id,
            state: Mutex::new(state),
            cv: Condvar::new(),
            // None = the default ready-pool strategy: awaken appends to
            // the PE's ready pool, suspend pops its oldest entry.
            strategy: OwnerCell::new(pe.owner(), None),
            stack_size,
            handle: AtomicU64::new(0),
        }))
    }

    /// Take this thread's strategy out of its cell, so it is called
    /// with the cell closed: a strategy may call back into the thread
    /// API, this thread's included. Pair with
    /// [`Thread::restore_strategy`].
    fn take_strategy(&self, pe: &Pe) -> Option<Strategy> {
        self.0.strategy.with(pe.owner(), Option::take)
    }

    /// Put a taken strategy back — unless the call installed another.
    fn restore_strategy(&self, pe: &Pe, taken: Strategy) {
        self.0.strategy.with(pe.owner(), |slot| {
            slot.get_or_insert(taken);
        });
    }

    /// Runtime-unique thread id (0 names the PE's main context).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// True once the thread function has returned.
    pub fn is_exited(&self) -> bool {
        matches!(*self.0.state.lock(), State::Exited)
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
    /// Stack requests served from the free list (no allocation).
    pub hits: u64,
    /// Stack requests that went to the system allocator.
    pub misses: u64,
    /// Finished-thread stacks retained for reuse.
    pub recycled: u64,
    /// Finished-thread stacks dropped (class full or unpoolable size).
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
    /// Threads awaiting their Csd resume message, by id.
    scheduled: IdMap<Thread>,
    next_id: u64,
    /// Context switches performed (both backends) — the sampling key for
    /// [`Event::ThreadSwitch`].
    switches: u64,
    /// Switches that took the direct-handoff fast path: suspend went
    /// straight to the next ready thread, no Csd queue bounce.
    direct: u64,
}

/// The thread registry — off the switch path.
#[derive(Default)]
struct Registry {
    /// Every thread created on this PE, with its OS join handle once
    /// started (hand-off backend); consumed at teardown.
    live: Vec<(Thread, Option<std::thread::JoinHandle<()>>)>,
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
                    .sched(pe, |s| s.scheduled.remove(&tid))
                    .unwrap_or_else(|| {
                        panic!("PE {}: resume message for unknown thread {tid}", pe.my_pe())
                    });
                resume(pe, rt, t);
            });
            pe.on_exit(|pe| CthRuntime::get(pe).teardown(pe));
            CthRuntime {
                backend: CthBackend::resolve(pe),
                home: Arc::downgrade(&pe.arc()),
                main: Thread::new(pe, 0, State::Running, 0),
                resume_handler,
                sched: OwnerCell::new(
                    pe.owner(),
                    Sched {
                        current: None,
                        ready: VecDeque::new(),
                        scheduled: IdMap::default(),
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
        let t = cth_create(pe, f);
        set_csd_strategy(pe, &t, prio);
        cth_awaken(pe, &t);
        t
    }

    /// Number of threads in the default ready pool.
    pub fn ready_len(&self) -> usize {
        self.sched(&self.home(), |s| s.ready.len())
    }

    /// Number of live (created, not yet exited) threads.
    pub fn live_len(&self) -> usize {
        self.registry.with(self.home().owner(), |r| {
            r.live.iter().filter(|(t, _)| !t.is_exited()).count()
        })
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
        let entries = self
            .registry
            .with(pe.owner(), |r| std::mem::take(&mut r.live));
        match self.backend {
            CthBackend::Fiber => fb::teardown(pe, self, entries),
            CthBackend::Handoff => {
                for (t, handle) in entries {
                    let poisoned = {
                        let mut s = t.0.state.lock();
                        match &mut *s {
                            State::NotStarted(entry) => {
                                entry.take();
                                *s = State::Exited;
                                false
                            }
                            State::Parked => {
                                pe.owner().release();
                                *s = State::Poisoned;
                                t.0.cv.notify_all();
                                true
                            }
                            State::Running => unreachable!(
                                "PE {}: teardown while thread {} runs — the main context holds the token",
                                pe.my_pe(),
                                t.id()
                            ),
                            State::Exited | State::Poisoned => false,
                        }
                    };
                    if let Some(h) = handle {
                        let _ = h.join();
                    }
                    if poisoned {
                        // SAFETY: the token was released to `t` alone,
                        // which releases it in `finish_thread` before
                        // its OS thread ends; the join above orders that
                        // before this call.
                        unsafe { pe.owner().adopt() };
                    }
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
    let rt = CthRuntime::get(pe);
    let id = rt.sched(pe, |s| {
        let id = s.next_id;
        s.next_id += 1;
        id
    });
    let t = Thread::new(pe, id, State::NotStarted(Some(Box::new(f))), stack_size);
    rt.registry.with(pe.owner(), |r| {
        // Before the list would grow, drop the threads that have exited
        // (joining a hand-off thread's OS thread, which is past its last
        // use of the runtime): a PE that creates a thread per task holds
        // as many entries as it ever had threads alive at once.
        if r.live.len() == r.live.capacity() {
            r.live.retain_mut(|(thread, os_thread)| {
                let exited = thread.is_exited();
                if exited {
                    if let Some(h) = os_thread.take() {
                        let _ = h.join();
                    }
                }
                !exited
            });
        }
        r.live.push((t.clone(), None));
    });
    pe.trace_event(Event::ThreadCreate { tid: id });
    t
}

/// Install a per-thread scheduling strategy (`CthSetStrategy`): how
/// [`cth_awaken`] stores the thread, and which thread [`cth_suspend`]
/// picks when *this* thread gives up control.
pub fn cth_set_strategy(pe: &Pe, t: &Thread, s: Strategy) {
    t.0.strategy.with(pe.owner(), |slot| *slot = Some(s));
}

/// Give `t` the Csd strategy: awakening enqueues a generalized message
/// (optionally prioritized) whose handler resumes the thread; suspension
/// returns control to the scheduler context.
pub fn set_csd_strategy(pe: &Pe, t: &Thread, prio: Priority) {
    let tid = t.id();
    cth_set_strategy(
        pe,
        t,
        Strategy {
            awaken: Box::new(move |pe, t| {
                let rt = CthRuntime::get(pe);
                rt.sched(pe, |s| s.scheduled.insert(tid, t));
                // Same wire format as `Packer::u64`, no Vec allocation.
                let payload = tid.to_le_bytes();
                let msg = Message::with_priority(rt.resume_handler, &prio, &payload);
                let mode = if prio == Priority::None {
                    QueueingMode::Fifo
                } else {
                    QueueingMode::PrioFifo
                };
                csd::csd_enqueue_general(pe, msg, mode);
            }),
            suspend: Box::new(|_pe| None),
        },
    );
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

/// Who runs next by `strategy` (`None` = the PE's main context).
fn pick_successor(pe: &Pe, rt: &CthRuntime, strategy: Option<&mut Strategy>) -> Option<Thread> {
    match strategy {
        Some(s) => (s.suspend)(pe),
        None => rt.sched(pe, |s| s.ready.pop_front()),
    }
}

/// Who runs next when `t` gives up control for good (exit).
fn successor_of(pe: &Pe, rt: &CthRuntime, t: &Thread) -> Option<Thread> {
    let mut strategy = t.take_strategy(pe);
    let next = pick_successor(pe, rt, strategy.as_mut());
    if let Some(s) = strategy {
        t.restore_strategy(pe, s);
    }
    next
}

fn suspend_current(pe: &Pe, rt: &CthRuntime, what: &str) {
    // The running thread is reached by borrow; its strategy runs with
    // every cell closed.
    let (me, mut strategy) = rt.with_current(pe, what, |me| (me.id(), me.take_strategy(pe)));
    let next = pick_successor(pe, rt, strategy.as_mut());
    if let Some(s) = strategy {
        rt.with_current(pe, what, |me| me.restore_strategy(pe, s));
    }
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
        !matches!(*t.0.state.lock(), State::Exited | State::Poisoned),
        "PE {}: awaken of exited thread {}",
        pe.my_pe(),
        t.id()
    );
    let mut strategy = t.take_strategy(pe);
    match &mut strategy {
        Some(s) => (s.awaken)(pe, t.clone()),
        None => CthRuntime::get(pe).sched(pe, |s| s.ready.push_back(t.clone())),
    }
    if let Some(s) = strategy {
        t.restore_strategy(pe, s);
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
    {
        let mut s = from.0.state.lock();
        debug_assert!(matches!(*s, State::Running));
        *s = State::Parked;
    }
    wake(pe, rt, to);
    wait_for_token(pe, rt, from);
}

/// Hand the run token to `to` and let it run. The caller holds the
/// token on entry and has given it up on return.
fn wake(pe: &Pe, rt: &CthRuntime, to: &Thread) {
    let mut s = to.0.state.lock();
    if let State::NotStarted(entry) = &mut *s {
        // First start: give the thread its OS thread, parked like any
        // other until the token is passed below.
        let entry = entry.take().expect("entry present before first start");
        *s = State::Parked;
        drop(s);
        spawn_os_thread(pe, rt, to, entry);
        s = to.0.state.lock();
    }
    match *s {
        State::Parked => {
            // Released under `to`'s state lock, which `to` takes to see
            // `Running`: the release happens-before its adopt.
            pe.owner().release();
            *s = State::Running;
            to.0.cv.notify_all();
        }
        State::Running => panic!("PE {}: resume of running thread {}", pe.my_pe(), to.id()),
        State::NotStarted(_) => unreachable!("started above"),
        State::Exited | State::Poisoned => {
            panic!("PE {}: resume of exited thread {}", pe.my_pe(), to.id())
        }
    }
}

/// Park the calling context until it is handed the run token (or
/// poisoned by teardown, which hands it the token to unwind with).
fn wait_for_token(pe: &Pe, rt: &CthRuntime, me: &Thread) {
    let poisoned = {
        let mut s = me.0.state.lock();
        loop {
            match *s {
                State::Parked => me.0.cv.wait(&mut s),
                State::Running => break false,
                State::Poisoned => break true,
                _ => unreachable!("parked context can only become Running or Poisoned"),
            }
        }
    };
    // SAFETY: whoever set this context `Running` (`wake`) or `Poisoned`
    // (`teardown`) released the token first, under this thread's state
    // lock, and named no other successor; taking that lock above orders
    // this call after the release.
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
        if let Some(slot) = r.live.iter_mut().find(|(lt, _)| lt.same(t)) {
            slot.1 = Some(handle);
        } else {
            r.live.push((t.clone(), Some(handle)));
        }
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
    if matches!(*me.0.state.lock(), State::Poisoned) {
        // Teardown owns the machine and is joining this thread: mark
        // exited and give the token back.
        *me.0.state.lock() = State::Exited;
        pe.owner().release();
        return;
    }
    if let Some(p) = user_panic {
        // Carry the panic to the main context and abort the machine so
        // other PEs unblock instead of deadlocking.
        rt.registry.with(pe.owner(), |r| r.pending_panic = Some(p));
        pe.abort_machine();
        *me.0.state.lock() = State::Exited;
        rt.sched(pe, |s| s.current = None);
        let mut s = rt.main.0.state.lock();
        if matches!(*s, State::Parked) {
            pe.owner().release();
            *s = State::Running;
            rt.main.0.cv.notify_all();
        }
        return;
    }
    let target = successor_of(pe, rt, me).unwrap_or_else(|| rt.main.clone());
    *me.0.state.lock() = State::Exited;
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

    /// Smallest pooled stack class.
    const MIN_CLASS: usize = 16 * 1024;
    /// Largest pooled stack class; bigger stacks are allocated exactly
    /// and never retained.
    const MAX_CLASS: usize = 1024 * 1024;
    /// Free stacks retained per class.
    const PER_CLASS_CAP: usize = 32;
    /// Number of power-of-two classes in `MIN_CLASS..=MAX_CLASS`.
    const NUM_CLASSES: usize = (MAX_CLASS / MIN_CLASS).trailing_zeros() as usize + 1;

    /// Per-PE size-classed free list of fiber stacks — the thread-stack
    /// analogue of the message-buffer pool: create-run-exit cycles reuse
    /// a hot stack instead of paying an allocation (and zeroing) per
    /// thread.
    pub(super) struct StackPool {
        free: [Vec<Box<[u8]>>; NUM_CLASSES],
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
            if len.is_power_of_two() && (MIN_CLASS..=MAX_CLASS).contains(&len) {
                Some((len / MIN_CLASS).trailing_zeros() as usize)
            } else {
                None
            }
        }

        /// A stack of at least `want` bytes: pooled (rounded up to its
        /// size class) when `want` fits a class, else an exact one-off
        /// allocation that will not be retained.
        fn take(&mut self, want: usize) -> Box<[u8]> {
            let rounded = want.max(MIN_CLASS).next_power_of_two();
            if rounded <= MAX_CLASS {
                let class = (rounded / MIN_CLASS).trailing_zeros() as usize;
                if let Some(stack) = self.free[class].pop() {
                    self.stats.hits += 1;
                    return stack;
                }
                self.stats.misses += 1;
                vec![0u8; rounded].into_boxed_slice()
            } else {
                self.stats.misses += 1;
                vec![0u8; want].into_boxed_slice()
            }
        }

        /// Return a finished fiber's stack for reuse.
        fn give(&mut self, stack: Box<[u8]>) {
            match Self::class_of(stack.len()) {
                Some(class) if self.free[class].len() < PER_CLASS_CAP => {
                    self.stats.recycled += 1;
                    self.free[class].push(stack);
                }
                _ => self.stats.discarded += 1,
            }
        }
    }

    pub(super) struct FiberState {
        /// Parked fibers by thread id; the running fiber (at most one)
        /// is owned by the drive loop's stack frame.
        fibers: IdMap<Fiber>,
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

    /// Drop guard clearing the thread's yield-handle pointer
    /// (`Inner::handle`) even when the fiber finishes by unwind (poison,
    /// exit, user panic).
    struct HandleGuard<'a>(&'a Thread);

    impl Drop for HandleGuard<'_> {
        fn drop(&mut self) {
            self.0 .0.handle.store(0, Ordering::Relaxed);
        }
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
                matches!(*me.0.state.lock(), State::Poisoned)
            });
        if poisoned {
            std::panic::resume_unwind(Box::new(ThreadPoison));
        }
    }

    /// Materialize or retrieve the execution context for `t`, marking it
    /// running. A `NotStarted` thread gets a fiber on a pooled stack
    /// here — creation is lazy, so a never-resumed thread costs no
    /// stack at all.
    fn take_fiber(pe: &Pe, rt: &CthRuntime, t: &Thread) -> Fiber {
        let mut s = t.0.state.lock();
        match &mut *s {
            State::NotStarted(entry) => {
                let entry = entry.take().expect("entry present before first start");
                *s = State::Running;
                drop(s);
                let stack = fibers(pe, rt, |fs| fs.pool.take(t.0.stack_size));
                let pe_arc = pe.arc();
                let t2 = t.clone();
                Fiber::with_stack(stack, move |h| fiber_entry(&pe_arc, &t2, entry, h))
            }
            State::Parked | State::Poisoned => {
                // Poison is left set: the wakeup check in
                // `yield_to_main` turns it into an unwind.
                if matches!(*s, State::Parked) {
                    *s = State::Running;
                }
                drop(s);
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

    /// First code on a fresh fiber: register the yield handle, run the
    /// entry, swallow the control-flow unwinds (exit, poison) so the
    /// fiber finishes cleanly; genuine user panics are re-raised and
    /// surface from `Fiber::resume` in the drive loop.
    fn fiber_entry(pe: &Pe, t: &Thread, entry: Entry, h: &FiberHandle) {
        t.0.handle
            .store(h as *const FiberHandle as u64, Ordering::Relaxed);
        let _guard = HandleGuard(t);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry(pe)));
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
                    *t.0.state.lock() = State::Exited;
                    fibers(pe, rt, |fs| {
                        fs.directive = None;
                        if let Some(stack) = fiber.take_stack() {
                            fs.pool.give(stack);
                        }
                    });
                    pe.abort_machine();
                    std::panic::resume_unwind(p);
                }
            };
            if alive {
                let mut s = t.0.state.lock();
                if matches!(*s, State::Running) {
                    *s = State::Parked;
                }
            } else {
                *t.0.state.lock() = State::Exited;
            }
            // Park the fiber (or reclaim its stack) and read what it
            // asked for, in one visit.
            let (directive, poisoning) = fibers(pe, rt, |fs| {
                if alive {
                    fs.fibers.insert(tid, fiber);
                } else if let Some(stack) = fiber.take_stack() {
                    fs.pool.give(stack);
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
    pub(super) fn teardown(
        pe: &Pe,
        rt: &CthRuntime,
        entries: Vec<(Thread, Option<std::thread::JoinHandle<()>>)>,
    ) {
        fibers(pe, rt, |fs| fs.poisoning = true);
        for (t, _) in entries {
            let poisoned = {
                let mut s = t.0.state.lock();
                match &mut *s {
                    State::NotStarted(entry) => {
                        // Never ran: no stack exists; drop the entry.
                        entry.take();
                        *s = State::Exited;
                        false
                    }
                    State::Parked => {
                        *s = State::Poisoned;
                        true
                    }
                    State::Running => unreachable!(
                        "PE {}: teardown while thread {} runs — the main context holds the token",
                        pe.my_pe(),
                        t.id()
                    ),
                    State::Exited | State::Poisoned => false,
                }
            };
            if poisoned {
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

    pub(super) fn teardown(
        _pe: &Pe,
        _rt: &CthRuntime,
        _entries: Vec<(Thread, Option<std::thread::JoinHandle<()>>)>,
    ) {
        unreachable!("fiber backend on unsupported target")
    }
}
