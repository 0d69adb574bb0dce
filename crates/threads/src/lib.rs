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

use converse_core::csd;
use converse_machine::{HandlerId, IdMap, Message, Pe, ThreadBackend};
use converse_msg::{pack::Unpacker, Priority};
use converse_queue::QueueingMode;
use converse_trace::Event;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    strategy: Mutex<Option<Strategy>>,
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
/// awaken and resume them only on their home PE.
#[derive(Clone)]
pub struct Thread(Arc<Inner>);

impl Thread {
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

/// Per-PE thread runtime (`CthInit` creates it implicitly on first use).
pub struct CthRuntime {
    /// Which mechanism backs this PE's thread objects.
    backend: CthBackend,
    /// The context currently holding the run token.
    current: Mutex<Thread>,
    /// The PE's original context: the scheduler/entry stack.
    main: Thread,
    /// Default ready pool used by the default suspend/awaken strategy.
    ready: Mutex<VecDeque<Thread>>,
    /// Every thread created on this PE, with its OS join handle once
    /// started (hand-off backend); consumed at teardown.
    live: Mutex<Vec<(Thread, Option<std::thread::JoinHandle<()>>)>>,
    next_id: AtomicU64,
    /// Handler resuming a thread from a generalized message (the Csd
    /// integration).
    resume_handler: HandlerId,
    /// Threads awaiting their Csd resume message, by id.
    scheduled: Mutex<IdMap<Thread>>,
    /// A panic raised inside a hand-off thread, carried to the main
    /// context (fiber panics propagate synchronously instead).
    pending_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Context switches performed (both backends) — the sampling key for
    /// [`Event::ThreadSwitch`].
    switches: AtomicU64,
    /// Switches that took the direct-handoff fast path: suspend went
    /// straight to the next ready thread, no Csd queue bounce.
    direct: AtomicU64,
    /// Fiber-backend state (parked fibers, pending directive, stack
    /// pool); inert in hand-off mode.
    fiber: fb::FiberCell,
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
                let t = CthRuntime::get(pe)
                    .scheduled
                    .lock()
                    .remove(&tid)
                    .unwrap_or_else(|| {
                        panic!("PE {}: resume message for unknown thread {tid}", pe.my_pe())
                    });
                cth_resume(pe, &t);
            });
            pe.on_exit(|pe| CthRuntime::get(pe).teardown(pe));
            let main = Thread(Arc::new(Inner {
                id: 0,
                state: Mutex::new(State::Running),
                cv: Condvar::new(),
                strategy: Mutex::new(None),
                stack_size: 0,
                handle: AtomicU64::new(0),
            }));
            CthRuntime {
                backend: CthBackend::resolve(pe),
                current: Mutex::new(main.clone()),
                main,
                ready: Mutex::new(VecDeque::new()),
                live: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                resume_handler,
                scheduled: Mutex::new(IdMap::default()),
                pending_panic: Mutex::new(None),
                switches: AtomicU64::new(0),
                direct: AtomicU64::new(0),
                fiber: fb::FiberCell::new(),
            }
        });
        pe.local_ref().expect("just installed")
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
        self.ready.lock().len()
    }

    /// Number of live (created, not yet exited) threads.
    pub fn live_len(&self) -> usize {
        self.live
            .lock()
            .iter()
            .filter(|(t, _)| !t.is_exited())
            .count()
    }

    /// Context switches performed so far on this PE (both backends).
    pub fn switches(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// Switches that took the direct-handoff fast path (suspend handed
    /// control straight to the next ready thread).
    pub fn direct_handoffs(&self) -> u64 {
        self.direct.load(Ordering::Relaxed)
    }

    /// Snapshot of the fiber backend's stack-pool counters (all zero on
    /// the hand-off backend, which uses OS thread stacks).
    pub fn stack_pool_stats(&self) -> StackPoolStats {
        if self.backend == CthBackend::Fiber {
            fb::pool_stats(self)
        } else {
            StackPoolStats::default()
        }
    }

    /// Count a control transfer and emit the sampled
    /// [`Event::ThreadSwitch`] record.
    fn note_switch(&self, pe: &Pe, direct: bool) {
        if direct {
            self.direct.fetch_add(1, Ordering::Relaxed);
        }
        let n = self.switches.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(SWITCH_SAMPLE) && pe.trace_enabled() {
            pe.trace_event(Event::ThreadSwitch {
                backend: self.backend.label(),
                direct_handoff: direct,
            });
        }
    }

    /// Poison every still-suspended thread: fibers are driven through a
    /// poison unwind on the spot (stacks reclaimed into the pool);
    /// hand-off OS threads are woken poisoned and joined.
    fn teardown(&self, pe: &Pe) {
        match self.backend {
            CthBackend::Fiber => fb::teardown(pe, self),
            CthBackend::Handoff => {
                let entries: Vec<(Thread, Option<std::thread::JoinHandle<()>>)> =
                    std::mem::take(&mut *self.live.lock());
                for (t, _) in &entries {
                    let mut s = t.0.state.lock();
                    match &mut *s {
                        State::NotStarted(entry) => {
                            entry.take();
                            *s = State::Exited;
                        }
                        State::Parked => {
                            *s = State::Poisoned;
                            t.0.cv.notify_all();
                        }
                        State::Running => unreachable!(
                            "PE {}: teardown while thread {} runs — the main context holds the token",
                            pe.my_pe(),
                            t.id()
                        ),
                        State::Exited | State::Poisoned => {}
                    }
                }
                for (_, handle) in entries {
                    if let Some(h) = handle {
                        let _ = h.join();
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
    let id = rt.next_id.fetch_add(1, Ordering::Relaxed);
    let t = Thread(Arc::new(Inner {
        id,
        state: Mutex::new(State::NotStarted(Some(Box::new(f)))),
        cv: Condvar::new(),
        // None = the default ready-pool strategy: awaken appends to the
        // PE's ready pool, suspend pops its oldest entry.
        strategy: Mutex::new(None),
        stack_size,
        handle: AtomicU64::new(0),
    }));
    {
        let mut live = rt.live.lock();
        // Before the list would grow, drop the threads that have exited
        // (joining a hand-off thread's OS thread, which is past its last
        // use of the runtime): a PE that creates a thread per task holds
        // as many entries as it ever had threads alive at once.
        if live.len() == live.capacity() {
            live.retain_mut(|(thread, os_thread)| {
                let exited = thread.is_exited();
                if exited {
                    if let Some(h) = os_thread.take() {
                        let _ = h.join();
                    }
                }
                !exited
            });
        }
        live.push((t.clone(), None));
    }
    pe.trace_event(Event::ThreadCreate { tid: id });
    t
}

/// Install a per-thread scheduling strategy (`CthSetStrategy`): how
/// [`cth_awaken`] stores the thread, and which thread [`cth_suspend`]
/// picks when *this* thread gives up control.
pub fn cth_set_strategy(_pe: &Pe, t: &Thread, s: Strategy) {
    *t.0.strategy.lock() = Some(s);
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
                rt.scheduled.lock().insert(tid, t);
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
    let rt = CthRuntime::get(pe);
    let cur = rt.current.lock().clone();
    if cur.same(&rt.main) {
        None
    } else {
        Some(cur)
    }
}

/// Transfer control to `t` immediately (`CthResume`). The calling
/// context is parked un-awakened: someone must `cth_resume` or
/// `cth_awaken` it later, exactly as in the C API.
pub fn cth_resume(pe: &Pe, t: &Thread) {
    let rt = CthRuntime::get(pe);
    let me = rt.current.lock().clone();
    if me.same(t) {
        return;
    }
    match rt.backend {
        CthBackend::Handoff => transfer(pe, rt, &me, t, false),
        CthBackend::Fiber => fb::resume(pe, rt, &me, t),
    }
}

/// Suspend the current thread and transfer control according to its
/// strategy (`CthSuspend`): by default the oldest thread in the ready
/// pool, else the PE's main context. On the fiber backend a `Some`
/// successor is switched to **directly** — one ~20 ns context switch, no
/// Csd queue bounce (the direct-handoff fast path).
pub fn cth_suspend(pe: &Pe) {
    let rt = CthRuntime::get(pe);
    let me = rt.current.lock().clone();
    assert!(
        !me.same(&rt.main),
        "PE {}: cth_suspend called from the main context — only thread objects suspend",
        pe.my_pe()
    );
    suspend_inner(pe, rt, me);
}

fn suspend_inner(pe: &Pe, rt: &CthRuntime, me: Thread) {
    let next = {
        let mut strat = me.0.strategy.lock();
        match strat.as_mut() {
            Some(s) => (s.suspend)(pe),
            None => rt.ready.lock().pop_front(),
        }
    };
    // A strategy may hand back the suspending thread itself (a solo
    // thread yielding); control simply stays put.
    if let Some(n) = &next {
        if n.same(&me) {
            return;
        }
    }
    pe.trace_event(Event::ThreadSuspend { tid: me.id() });
    match rt.backend {
        CthBackend::Handoff => {
            let direct = next.is_some();
            let target = next.unwrap_or_else(|| rt.main.clone());
            transfer(pe, rt, &me, &target, direct);
        }
        CthBackend::Fiber => fb::suspend(pe, rt, &me, next),
    }
}

/// Add `t` to its scheduler's ready pool (`CthAwaken`): permission for a
/// future suspend to transfer control to it. Must only be called when
/// the thread is genuinely ready to continue.
pub fn cth_awaken(pe: &Pe, t: &Thread) {
    let rt = CthRuntime::get(pe);
    {
        let s = t.0.state.lock();
        assert!(
            !matches!(*s, State::Exited | State::Poisoned),
            "PE {}: awaken of exited thread {}",
            pe.my_pe(),
            t.id()
        );
    }
    let mut strat = t.0.strategy.lock();
    match strat.as_mut() {
        Some(s) => (s.awaken)(pe, t.clone()),
        None => rt.ready.lock().push_back(t.clone()),
    }
}

/// Awaken the current thread then suspend (`CthYield`): control will
/// eventually return here.
pub fn cth_yield(pe: &Pe) {
    let rt = CthRuntime::get(pe);
    let me = rt.current.lock().clone();
    assert!(
        !me.same(&rt.main),
        "PE {}: cth_yield from the main context",
        pe.my_pe()
    );
    cth_awaken(pe, &me);
    suspend_inner(pe, rt, me);
}

/// Terminate the current thread (`CthExit`): control transfers per the
/// thread's suspend strategy; the thread object becomes `Exited`.
/// Returning from the thread function calls this implicitly. Unwinds, so
/// destructors on the thread's stack run.
pub fn cth_exit(pe: &Pe) -> ! {
    let rt = CthRuntime::get(pe);
    let me = rt.current.lock().clone();
    assert!(
        !me.same(&rt.main),
        "PE {}: cth_exit from the main context",
        pe.my_pe()
    );
    std::panic::resume_unwind(Box::new(ExitRequested));
}

// ---------------------------------------------------------------------
// Hand-off backend: one OS thread per thread object, gated by a token.
// ---------------------------------------------------------------------

/// The core hand-off: mark `from` parked, start/wake `to`, wait until
/// someone hands the token back to `from`.
fn transfer(pe: &Pe, rt: &CthRuntime, from: &Thread, to: &Thread, direct: bool) {
    debug_assert!(!from.same(to));
    *rt.current.lock() = to.clone();
    rt.note_switch(pe, direct && !to.same(&rt.main));
    pe.trace_event(Event::ThreadResume { tid: to.id() });
    // Park self BEFORE waking the target so the target can immediately
    // re-resume us without a lost wakeup.
    {
        let mut s = from.0.state.lock();
        debug_assert!(matches!(*s, State::Running));
        *s = State::Parked;
    }
    wake(pe, rt, to);
    wait_for_token(rt, from);
}

fn wake(pe: &Pe, rt: &CthRuntime, to: &Thread) {
    let mut s = to.0.state.lock();
    match &mut *s {
        State::NotStarted(entry) => {
            let entry = entry.take().expect("entry present before first start");
            *s = State::Running;
            drop(s);
            spawn_os_thread(pe, rt, to, entry);
        }
        State::Parked => {
            *s = State::Running;
            to.0.cv.notify_all();
        }
        State::Running => panic!("PE {}: resume of running thread {}", pe.my_pe(), to.id()),
        State::Exited | State::Poisoned => {
            panic!("PE {}: resume of exited thread {}", pe.my_pe(), to.id())
        }
    }
}

fn wait_for_token(rt: &CthRuntime, me: &Thread) {
    {
        let mut s = me.0.state.lock();
        loop {
            match *s {
                State::Parked => me.0.cv.wait(&mut s),
                State::Running => break,
                State::Poisoned => {
                    drop(s);
                    std::panic::resume_unwind(Box::new(ThreadPoison));
                }
                _ => unreachable!("parked context can only become Running or Poisoned"),
            }
        }
    }
    // Back in control. If a thread carried a panic to the main context,
    // re-raise it here so it propagates out of the PE entry.
    if me.same(&rt.main) {
        if let Some(p) = rt.pending_panic.lock().take() {
            std::panic::resume_unwind(p);
        }
    }
}

fn spawn_os_thread(pe: &Pe, rt: &CthRuntime, t: &Thread, entry: Entry) {
    let pe_arc = pe.arc();
    let t2 = t.clone();
    let handle = std::thread::Builder::new()
        .name(format!("pe{}-cth{}", pe.my_pe(), t.id()))
        .stack_size(t.0.stack_size.max(16 * 1024))
        .spawn(move || {
            let pe = pe_arc;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                entry(&pe);
            }));
            let user_panic = match result {
                Ok(()) => None,
                Err(p) if p.is::<ExitRequested>() || p.is::<ThreadPoison>() => None,
                Err(p) => Some(p),
            };
            finish_thread(&pe, CthRuntime::get(&pe), &t2, user_panic);
        })
        .expect("spawn thread-object OS thread");
    // Record the join handle for teardown.
    let mut live = rt.live.lock();
    if let Some(slot) = live.iter_mut().find(|(lt, _)| lt.same(t)) {
        slot.1 = Some(handle);
    } else {
        live.push((t.clone(), Some(handle)));
    }
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
        // Teardown owns the machine; just mark exited and leave.
        *me.0.state.lock() = State::Exited;
        return;
    }
    if let Some(p) = user_panic {
        // Carry the panic to the main context and abort the machine so
        // other PEs unblock instead of deadlocking.
        *rt.pending_panic.lock() = Some(p);
        pe.abort_machine();
        *me.0.state.lock() = State::Exited;
        let main = rt.main.clone();
        *rt.current.lock() = main.clone();
        let mut s = main.0.state.lock();
        if matches!(*s, State::Parked) {
            *s = State::Running;
            main.0.cv.notify_all();
        }
        return;
    }
    let next = {
        let mut strat = me.0.strategy.lock();
        match strat.as_mut() {
            Some(s) => (s.suspend)(pe),
            None => rt.ready.lock().pop_front(),
        }
    };
    let target = next.unwrap_or_else(|| rt.main.clone());
    *me.0.state.lock() = State::Exited;
    *rt.current.lock() = target.clone();
    rt.note_switch(pe, false);
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
    use std::cell::RefCell;

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

    /// Thread-affinity wrapper: all fiber state lives on the PE's own OS
    /// thread (fibers share that thread's stack-switching); the runtime
    /// is `Sync` only because every access asserts it happens there.
    pub(super) struct FiberCell {
        home: std::thread::ThreadId,
        state: RefCell<FiberState>,
    }

    // SAFETY: every path reaching `with` runs on the PE's own OS thread
    // (the drive loop and the directives set by fibers it hosts), so the
    // `RefCell` (and the `!Send` fibers inside) are never touched
    // concurrently. Debug builds verify the affinity on each access;
    // release builds rely on the PE-local discipline (thread objects are
    // documented PE-local) to keep the check off the ~20 ns switch path.
    unsafe impl Send for FiberCell {}
    unsafe impl Sync for FiberCell {}

    impl FiberCell {
        pub fn new() -> FiberCell {
            FiberCell {
                home: std::thread::current().id(),
                state: RefCell::new(FiberState {
                    fibers: IdMap::default(),
                    directive: None,
                    poisoning: false,
                    pool: StackPool::new(),
                }),
            }
        }

        fn with<R>(&self, f: impl FnOnce(&mut FiberState) -> R) -> R {
            debug_assert_eq!(
                std::thread::current().id(),
                self.home,
                "fiber-backend state touched off its home PE thread"
            );
            f(&mut self.state.borrow_mut())
        }
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

    pub(super) fn pool_stats(rt: &CthRuntime) -> StackPoolStats {
        rt.fiber.with(|fs| fs.pool.stats)
    }

    /// `cth_resume` on the fiber backend: from the main context, enter
    /// the drive loop; from inside a fiber, hand the drive loop a
    /// transfer directive and park.
    pub(super) fn resume(pe: &Pe, rt: &CthRuntime, me: &Thread, t: &Thread) {
        if me.same(&rt.main) {
            drive(pe, rt, t.clone(), false);
        } else {
            rt.fiber.with(|fs| {
                fs.directive = Some(Directive::Transfer {
                    to: t.clone(),
                    direct: false,
                })
            });
            yield_to_main(me);
        }
    }

    /// `cth_suspend` on the fiber backend: `Some` successor = direct
    /// handoff (the fast path), `None` = back to the scheduler.
    pub(super) fn suspend(pe: &Pe, rt: &CthRuntime, me: &Thread, next: Option<Thread>) {
        let _ = pe;
        rt.fiber.with(|fs| {
            fs.directive = Some(match next {
                Some(to) => Directive::Transfer { to, direct: true },
                None => Directive::Suspend,
            })
        });
        yield_to_main(me);
    }

    /// Suspend the current fiber, returning control to the drive loop.
    /// On wakeup, re-raise teardown poison so the stack unwinds.
    fn yield_to_main(me: &Thread) {
        let h = me.0.handle.load(Ordering::Relaxed) as *const FiberHandle;
        debug_assert!(
            !h.is_null(),
            "suspending fiber has a registered yield handle"
        );
        // SAFETY: `h` points at the FiberHandle on this very fiber's
        // stack (we are the fiber suspending; `fiber_entry` stored it),
        // live until completion.
        unsafe { (*h).yield_now() };
        if matches!(*me.0.state.lock(), State::Poisoned) {
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
                let stack = rt.fiber.with(|fs| fs.pool.take(t.0.stack_size));
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
                rt.fiber
                    .with(|fs| fs.fibers.remove(&t.0.id))
                    .unwrap_or_else(|| {
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
            rt.current.lock().same(&rt.main),
            "PE {}: fiber drive entered outside the main context",
            pe.my_pe()
        );
        let mut t = first;
        loop {
            let mut fiber = take_fiber(pe, rt, &t);
            *rt.current.lock() = t.clone();
            rt.note_switch(pe, direct);
            pe.trace_event(Event::ThreadResume { tid: t.id() });
            let resumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fiber.resume()));
            *rt.current.lock() = rt.main.clone();
            let alive = match resumed {
                Ok(alive) => alive,
                Err(p) => {
                    // A user panic inside the fiber: the fiber is done
                    // (its stack already unwound inside the fiber
                    // boundary); restore bookkeeping, then let the
                    // panic propagate out of the PE entry.
                    *t.0.state.lock() = State::Exited;
                    rt.fiber.with(|fs| {
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
                drop(s);
                rt.fiber.with(|fs| fs.fibers.insert(t.id(), fiber));
            } else {
                *t.0.state.lock() = State::Exited;
                rt.fiber.with(|fs| {
                    if let Some(stack) = fiber.take_stack() {
                        fs.pool.give(stack);
                    }
                });
            }
            match rt.fiber.with(|fs| fs.directive.take()) {
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
                    if rt.fiber.with(|fs| fs.poisoning) {
                        return;
                    }
                    let next = {
                        let mut strat = t.0.strategy.lock();
                        match strat.as_mut() {
                            Some(s) => (s.suspend)(pe),
                            None => rt.ready.lock().pop_front(),
                        }
                    };
                    match next {
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
    pub(super) fn teardown(pe: &Pe, rt: &CthRuntime) {
        rt.fiber.with(|fs| fs.poisoning = true);
        let entries: Vec<(Thread, Option<std::thread::JoinHandle<()>>)> =
            std::mem::take(&mut *rt.live.lock());
        for (t, _) in &entries {
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
                drive(pe, rt, t.clone(), false);
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
mod fb {
    //! Stub for targets without fiber support: `CthBackend::resolve`
    //! never selects the fiber backend there, so none of these run.
    use super::*;

    pub(super) struct FiberCell;

    impl FiberCell {
        pub fn new() -> FiberCell {
            FiberCell
        }
    }

    pub(super) fn pool_stats(_rt: &CthRuntime) -> StackPoolStats {
        unreachable!("fiber backend on unsupported target")
    }

    pub(super) fn resume(_pe: &Pe, _rt: &CthRuntime, _me: &Thread, _t: &Thread) {
        unreachable!("fiber backend on unsupported target")
    }

    pub(super) fn suspend(_pe: &Pe, _rt: &CthRuntime, _me: &Thread, _next: Option<Thread>) {
        unreachable!("fiber backend on unsupported target")
    }

    pub(super) fn teardown(_pe: &Pe, _rt: &CthRuntime) {
        unreachable!("fiber backend on unsupported target")
    }
}
