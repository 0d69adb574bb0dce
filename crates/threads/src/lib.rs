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
//!   constant class the paper paid. A thread runs on a whole execution
//!   context taken from a per-PE size-classed **context pool** and
//!   re-armed ([`CthRuntime::stack_pool_stats`]) — its stack a mapping
//!   of its own below a guard page, resident only where touched — and
//!   [`cth_suspend`] with a ready successor switches **directly** to it
//!   without bouncing through the Csd queue (the direct-handoff fast
//!   path).
//! * **`handoff`** (portable fallback) — a thread object owns a real OS
//!   thread (whose stack std guards) gated by a hand-off token: exactly
//!   one context per PE runs at any instant. Every semantic property is
//!   identical; only the constant differs (~10 µs per switch).
//!
//! Selection: [`converse_machine::MachineConfig::thread_backend`] pins a
//! backend per machine; under the default `Auto`, the `CTH_BACKEND`
//! environment variable (`"fiber"` / `"handoff"`) overrides, else the
//! fiber backend is chosen where supported (an unsupported target falls
//! back to `handoff`, so portable code never breaks).
//!
//! # Scheduler integration
//!
//! [`CthRuntime::spawn_scheduled`] gives a thread the **Csd strategy**:
//! awakening it enqueues a generalized message whose handler resumes the
//! thread — the unification of threads and messages the paper's design
//! rests on (§3.1.1: a generalized message can be "a scheduler entry for
//! a ready thread"), on both backends.
//!
//! # One slot table, single ownership checked
//!
//! Thread objects are PE-local: exactly one context of a PE runs at a
//! time, the one holding the PE's run token ([`Pe::owner`]). Everything
//! the switch path touches lives in **one** [`OwnerCell`] of that token:
//! who runs (a slot index), the ready pool (thread ids), the context
//! pool, and the PE's [`table::SlotTable`] — one slot per live thread
//! object: its strategy, its entry function until the first start, its
//! parked context, its yield handle. A thread id names its slot by index
//! and generation: the Csd resume message finds it without a hash, and an
//! id or handle kept past its thread's exit finds nothing. A wake opens
//! the cell four times (awaken, the resume handler, the thread's side of
//! the suspend, the drive loop after the yield): no lock, no handle
//! cloned, and a call from an OS thread that does not hold the token
//! panics instead of racing. Contexts are [`Pinned`]: fibers stay on
//! their OS thread, which the token never leaves on the fiber backend; on
//! the hand-off backend it follows control (`wake` / `wait_for_token`)
//! and slots hold no context. A thread's state is one atomic byte in its
//! handle. A finished thread's slot is re-used, its handle too unless the
//! user still holds one: creating a thread object allocates its boxed
//! entry function and nothing else.

pub mod table;

use converse_core::csd;
use converse_machine::{HandlerId, Message, OwnerCell, Pe, Pinned, ThreadBackend};
use converse_msg::{pack::Unpacker, Priority};
use converse_queue::QueueingMode;
use converse_trace::Event;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use table::{index_of, SlotTable};

/// Payload that unwinds a poisoned (machine-teardown) thread, silently.
struct ThreadPoison;

/// Payload used by [`cth_exit`] to unwind to the thread's landing pad.
struct ExitRequested;

/// A thread's entry function, boxed for storage until first resume.
type Entry = Box<dyn FnOnce(&Pe) + Send>;

/// How a thread is awakened (`CthSetStrategy` awakefn).
type AwakenFn = Box<dyn FnMut(&Pe, Thread) + Send>;

/// How a suspending thread picks its successor (`CthSetStrategy`
/// suspfn); `None` = the PE's scheduler/main context.
type SuspendFn = Box<dyn FnMut(&Pe) -> Option<Thread> + Send>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum State {
    /// Created, no execution context yet; [`Tcb::entry`] waits.
    NotStarted,
    /// Suspended: fiber parked in its slot, or OS thread blocked on the
    /// hand-off condvar.
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
/// The hand-off backend makes the writes a parked OS thread waits for
/// under [`Inner::gate`]; the fiber backend needs no more than this.
struct StateCell(AtomicU8);

impl StateCell {
    const ALL: [State; 5] = {
        use State::*;
        [NotStarted, Parked, Running, Exited, Poisoned]
    };

    #[inline]
    fn get(&self) -> State {
        Self::ALL[self.0.load(Ordering::Acquire) as usize]
    }

    #[inline]
    fn set(&self, to: State) {
        self.0.store(to as u8, Ordering::Release);
    }
}

/// What of a thread object is read without the PE's token.
struct Inner {
    /// `generation << 32 | slot index` in the home PE's table.
    id: u64,
    state: StateCell,
    /// Hand-off backend only: the lock and condvar the owning OS thread
    /// parks on, waiting for `state` to leave `Parked`.
    gate: Mutex<()>,
    cv: Condvar,
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

/// A handle to a Converse thread object (`THREAD *`); all clones denote
/// the same thread. Thread objects are PE-local: create, awaken and
/// resume them only from a context of their home PE — any other OS
/// thread that tries panics (the handle may be kept and dropped anywhere).
#[derive(Clone)]
pub struct Thread(Arc<Inner>);

impl Thread {
    fn new(id: u64, state: State) -> Thread {
        Thread(Arc::new(Inner {
            id,
            state: StateCell(AtomicU8::new(state as u8)),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }))
    }

    /// Runtime-unique thread id (0 names the PE's main context).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// True once the thread function has returned.
    pub fn is_exited(&self) -> bool {
        self.0.state.get() == State::Exited
    }
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Thread({})", self.0.id)
    }
}

impl PartialEq for Thread {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Thread {}

/// Default stack size for thread objects (`STACKSIZE`).
const DEFAULT_STACK_SIZE: usize = 256 * 1024;

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
        &[CthBackend::Fiber, CthBackend::Handoff][!Self::fiber_supported() as usize..]
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
    /// Thread starts that mapped a fresh context's stack.
    pub misses: u64,
    /// Finished threads' execution contexts (stack included) retained
    /// for reuse.
    pub recycled: u64,
    /// Finished threads' contexts dropped: stacks of an unpoolable size.
    pub discarded: u64,
}

/// One slot of the PE's thread table: everything the switch path reads
/// of one thread object. A vacated slot keeps its handle for the next
/// thread created.
struct Tcb {
    /// Its id and state, and the hand-off gate.
    handle: Thread,
    /// `None` only while a [`Strategy::Custom`] is out of the slot being
    /// called (it reads as [`Strategy::Default`] then), and once vacated.
    strategy: Option<Strategy>,
    /// The entry function, until the first resume (or teardown) takes it.
    entry: Option<Entry>,
    stack_size: usize,
    /// Creation order, which teardown walks in.
    born: u64,
    /// Fiber backend: the execution context while the thread is parked
    /// (while it runs, the drive loop's frame holds it).
    context: Option<Parked>,
    /// Fiber backend: the fiber's yield handle (`*const FiberHandle` as
    /// usize), stored by the fiber at its start and dereferenced only
    /// from the fiber itself, where it is valid by construction.
    yield_handle: usize,
}

impl Default for Tcb {
    fn default() -> Tcb {
        Tcb {
            handle: Thread::new(0, State::Exited),
            strategy: None,
            entry: None,
            stack_size: 0,
            born: 0,
            context: None,
            yield_handle: 0,
        }
    }
}

/// What a finished thread leaves in its slot that may run user code
/// when dropped: dropped by whoever vacated the slot, the cell closed.
type Litter = (Option<Strategy>, Option<Entry>);

/// An execution context in a slot, in the pool or in the drive loop.
type Parked = Pinned<fb::Context>;

/// The slot of the thread object `t`; `None` once it exited, whoever
/// holds the slot now, and for a handle of another PE.
fn slot_of<'a>(threads: &'a mut SlotTable<Tcb>, t: &Thread) -> Option<&'a mut Tcb> {
    threads.get(t.id()).filter(|tcb| tcb.handle == *t)
}

/// Put back a strategy that was out being called — unless the call
/// installed another or the thread is gone: then it is handed back, to
/// be dropped with the cell closed.
fn restore(slot: Option<&mut Tcb>, taken: Strategy) -> Option<Strategy> {
    match slot.map(|tcb| &mut tcb.strategy) {
        Some(empty @ None) => empty.replace(taken),
        _ => Some(taken),
    }
}

/// What a visit that moves control leaves its caller to do, cell closed.
enum Next {
    /// Control stays put: the target is the running context already.
    Done,
    /// Fiber backend, inside a thread: the drive loop has its directive;
    /// yield to it through this handle ([`fb::yield_to_main`]).
    Yield(usize),
    /// Fiber backend, in the main context: this thread is current; run
    /// its context (`true`: trace the switch).
    Run(u64, Parked, bool),
    /// Hand-off backend: the second thread is current; park the first
    /// and pass it the token (`true`: trace the switch; a direct one).
    Handoff(Thread, Thread, bool, bool),
    /// Ask this custom strategy, out of its slot so that it may call back
    /// into the thread API, who runs next.
    Ask(Strategy),
}

/// What the switch path reads and writes; one cell, opened briefly and
/// never across a call into user code.
#[derive(Default)]
struct Sched {
    /// Every thread object created on this PE and not yet exited. Slot
    /// 0 is the PE's main context (id 0), never released.
    threads: SlotTable<Tcb>,
    /// Slot index of the context holding the run token (0: main).
    current: u32,
    /// Default ready pool used by the default suspend/awaken strategy.
    ready: VecDeque<u64>,
    /// Thread objects created so far.
    created: u64,
    /// Context switches performed: [`Event::ThreadSwitch`]'s sampling key.
    switches: u64,
    /// Switches that took the direct-handoff fast path: suspend went
    /// straight to the next ready thread, no Csd queue bounce.
    direct: u64,
    /// Fiber backend: what the fiber about to yield asks of the drive
    /// loop — switch to this thread (0: return to the main context);
    /// `true` marks the suspend fast path.
    directive: Option<(u64, bool)>,
    /// Fiber backend: finished threads' execution contexts.
    pool: fb::StackPool,
    /// Hand-off backend: the OS thread of every started thread object,
    /// joined once the thread object has exited.
    os_threads: Vec<(Thread, std::thread::JoinHandle<()>)>,
    /// Hand-off backend: a panic raised inside a thread, on its way to
    /// the main context (fiber panics propagate synchronously).
    pending_panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Sched {
    /// The running thread object's slot. Panics in the main context,
    /// which `what` names.
    fn running(&mut self, pe: &Pe, what: &str) -> &mut Tcb {
        if self.current == 0 {
            panic!(
                "PE {}: {what} called from the main context — only thread objects suspend",
                pe.my_pe()
            );
        }
        self.threads.at(self.current)
    }

    /// Make slot `index` the running context and count the control
    /// transfer; true when it is one to trace.
    fn switch_to(&mut self, index: u32, direct: bool) -> bool {
        self.current = index;
        self.direct += direct as u64;
        self.switches += 1;
        (self.switches - 1).is_multiple_of(SWITCH_SAMPLE)
    }

    /// Transfer control to thread `to` (0: the main context), whose
    /// handle `handle` must be when the caller has one; `None` if it
    /// names no live thread of this PE — it exited.
    #[inline(always)]
    fn enter(
        &mut self,
        pe: &Pe,
        rt: &CthRuntime,
        to: u64,
        handle: Option<&Thread>,
        direct: bool,
    ) -> Option<Next> {
        let found = self.threads.get(to);
        let tcb = found.filter(|tcb| handle.is_none_or(|h| tcb.handle == *h))?;
        if index_of(to) == self.current {
            return Some(Next::Done);
        }
        if rt.backend == CthBackend::Handoff {
            let to_handle = tcb.handle.clone();
            let from = self.threads.at(self.current).handle.clone();
            let sampled = self.switch_to(index_of(to), direct);
            return Some(Next::Handoff(from, to_handle, sampled, direct));
        }
        if self.current != 0 {
            self.directive = Some((to, direct));
            return Some(Next::Yield(self.threads.at(self.current).yield_handle));
        }
        let (context, sampled) = fb::enter(self, pe, to, direct);
        Some(Next::Run(to, context, sampled))
    }

    /// Who runs when the thread in slot `index` gives up control (`None`
    /// = the main context), or its custom strategy to ask.
    fn successor(&mut self, index: u32) -> Result<Option<u64>, Strategy> {
        match &mut self.threads.at(index).strategy {
            None | Some(Strategy::Default) => Ok(self.ready.pop_front()),
            Some(Strategy::Csd(_)) => Ok(None),
            slot @ Some(Strategy::Custom { .. }) => Err(slot.take().expect("matched Some")),
        }
    }

    /// The one visit of a suspension: who suspends (its id is returned),
    /// who is next — by its strategy, or as its custom strategy `said` —
    /// and the transfer. A strategy may hand back the suspending thread
    /// itself (a solo thread yielding): control stays put.
    #[inline(always)]
    fn suspend(
        &mut self,
        pe: &Pe,
        rt: &CthRuntime,
        what: &str,
        said: Option<Option<u64>>,
    ) -> (u64, Next) {
        let me = self.running(pe, what).handle.id();
        let next = match said.map_or_else(|| self.successor(self.current), Ok) {
            Ok(next) => next,
            Err(custom) => return (me, Next::Ask(custom)),
        };
        let to = next.unwrap_or(0);
        match self.enter(pe, rt, to, None, next.is_some()) {
            Some(next) => (me, next),
            None => panic!("PE {}: resume of exited thread {to}", pe.my_pe()),
        }
    }

    /// The thread in slot `index` is done (or never ran): mark its
    /// handle, retire its id, free the slot.
    fn vacate(&mut self, index: u32) -> Litter {
        let tcb = self.threads.at(index);
        tcb.handle.0.state.set(State::Exited);
        tcb.yield_handle = 0;
        let (id, litter) = (tcb.handle.id(), (tcb.strategy.take(), tcb.entry.take()));
        self.threads.release(id);
        litter
    }
}

/// Per-PE thread runtime (`CthInit` creates it implicitly on first use).
pub struct CthRuntime {
    /// Which mechanism backs this PE's thread objects.
    backend: CthBackend,
    /// Handler resuming a thread from a generalized message (the Csd
    /// integration).
    resume_handler: HandlerId,
    sched: OwnerCell<Sched>,
    /// Machine teardown in progress: a thread that wakes up asks whether
    /// it was poisoned, and finished threads stop selecting successors.
    /// Touched by the PE's running context only.
    poisoning: AtomicBool,
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
                fb::yield_to_main(pe, rt, resume(pe, rt, tid, None));
            });
            pe.on_exit(|pe| CthRuntime::get(pe).teardown(pe));
            // The PE's original context, the scheduler/entry stack.
            let mut sched = Sched::default();
            let (id, main) = sched.threads.claim(Tcb::default);
            assert_eq!(id, 0, "the main context is slot 0 of a new table");
            main.handle = Thread::new(0, State::Running);
            CthRuntime {
                backend: CthBackend::resolve(pe),
                resume_handler,
                sched: OwnerCell::new(pe.owner(), sched),
                poisoning: AtomicBool::new(false),
            }
        });
        pe.local_ref().expect("just installed")
    }

    /// Open the switch-path state. `f` must not call user code.
    #[inline(always)]
    fn sched<R>(&self, pe: &Pe, f: impl FnOnce(&mut Sched) -> R) -> R {
        self.sched.with(pe.owner(), f)
    }

    /// The backend this PE's thread objects run on.
    pub fn backend(&self) -> CthBackend {
        self.backend
    }

    /// Spawn a thread under the **Csd strategy** and awaken it, so it
    /// starts when the scheduler reaches its ready-entry (`tSMCreate`).
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
    pub fn ready_len(&self, pe: &Pe) -> usize {
        self.sched(pe, |s| s.ready.len())
    }

    /// Number of live (created, not yet exited) threads.
    pub fn live_len(&self, pe: &Pe) -> usize {
        self.sched(pe, |s| s.threads.iter().count() - 1)
    }

    /// Context switches performed so far on this PE (both backends).
    pub fn switches(&self, pe: &Pe) -> u64 {
        self.sched(pe, |s| s.switches)
    }

    /// Switches that took the direct-handoff fast path (suspend handed
    /// control straight to the next ready thread).
    pub fn direct_handoffs(&self, pe: &Pe) -> u64 {
        self.sched(pe, |s| s.direct)
    }

    /// Snapshot of the fiber backend's stack-pool counters (all zero on
    /// the hand-off backend, which uses OS thread stacks).
    pub fn stack_pool_stats(&self, pe: &Pe) -> StackPoolStats {
        if self.backend == CthBackend::Fiber {
            self.sched(pe, |s| s.pool.stats)
        } else {
            StackPoolStats::default()
        }
    }

    /// Emit the trace records of a control transfer to thread `to`: the
    /// sampled [`Event::ThreadSwitch`], then the resume.
    fn trace_switch(&self, pe: &Pe, sampled: bool, direct: bool, to: u64) {
        if sampled && pe.trace_enabled() {
            pe.trace_event(Event::ThreadSwitch {
                backend: self.backend.label(),
                direct_handoff: direct,
            });
        }
        pe.trace_event(Event::ThreadResume { tid: to });
    }

    /// Poison every still-suspended thread, in creation order; one that
    /// never ran just loses its entry function and its slot. Fibers are
    /// driven through the poison unwind on the spot — a fiber dropped
    /// suspended would leak what is live on its stack (`converse-fiber`)
    /// — and their stacks return to the pool; hand-off OS threads are
    /// woken poisoned and joined, one at a time, each holding the run
    /// token while its stack unwinds (destructors on it may use the PE).
    fn teardown(&self, pe: &Pe) {
        let mut live: Vec<(u64, Thread)> = self.sched(pe, |s| {
            let threads = s.threads.iter().filter(|(id, _)| *id != 0);
            threads.map(|(_, t)| (t.born, t.handle.clone())).collect()
        });
        live.sort_unstable_by_key(|(born, _)| *born);
        self.poisoning.store(true, Ordering::Relaxed);
        let mut os_threads = self.sched(pe, |s| std::mem::take(&mut s.os_threads));
        for (_, t) in live {
            let gate = (self.backend == CthBackend::Handoff).then(|| t.0.gate.lock());
            match t.0.state.get() {
                State::NotStarted => drop(self.sched(pe, |s| s.vacate(index_of(t.id())))),
                // Its next wakeup unwinds its stack.
                State::Parked => t.0.state.set(State::Poisoned),
                State::Running => unreachable!("PE {}: teardown inside {t:?}", pe.my_pe()),
                State::Exited | State::Poisoned => {}
            }
            if t.0.state.get() != State::Poisoned {
                continue;
            }
            let Some(gate) = gate else {
                resume(pe, self, t.id(), Some(&t));
                continue;
            };
            // Under `t`'s gate, which `t` holds to see `Poisoned`: the
            // release happens-before its adopt.
            pe.owner().release();
            t.0.cv.notify_all();
            drop(gate);
            let at = os_threads.iter().position(|(o, _)| *o == t);
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

/// Run `entry` once per backend available on this target (see
/// [`CthBackend::available`]), each time on a fresh machine of `num_pes`
/// PEs with that backend pinned. The workhorse of the backend-parity
/// test suites: code that passes here is API-equivalent on every backend.
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

/// A thread object costs one allocation, its boxed entry function: it
/// takes a vacant slot and — unless the user kept one — the handle of the
/// slot's last occupant. Its context comes from the pool at first resume.
fn create(pe: &Pe, entry: Entry, stack_size: usize, strategy: Strategy) -> Thread {
    let t = CthRuntime::get(pe).sched(pe, |s| {
        s.created += 1;
        let (id, tcb) = s.threads.claim(Tcb::default);
        match Arc::get_mut(&mut tcb.handle.0) {
            Some(inner) => {
                inner.id = id;
                inner.state.set(State::NotStarted);
            }
            None => tcb.handle = Thread::new(id, State::NotStarted),
        }
        (tcb.strategy, tcb.entry) = (Some(strategy), Some(entry));
        (tcb.stack_size, tcb.born) = (stack_size, s.created);
        tcb.handle.clone()
    });
    pe.trace_event(Event::ThreadCreate { tid: t.id() });
    t
}

/// Install a per-thread scheduling strategy (`CthSetStrategy`): how
/// [`cth_awaken`] stores the thread, and which thread [`cth_suspend`]
/// picks when *this* thread gives up control.
pub fn cth_set_strategy(pe: &Pe, t: &Thread, s: Strategy) {
    // The strategy replaced is dropped with the cell closed.
    let _old = CthRuntime::get(pe).sched(pe, |sc| match slot_of(&mut sc.threads, t) {
        Some(tcb) => tcb.strategy.replace(s),
        None => Some(s),
    });
}

/// Give `t` the Csd strategy: awakening enqueues a generalized message
/// of `prio` whose handler resumes it; suspension returns to the scheduler.
pub fn set_csd_strategy(pe: &Pe, t: &Thread, prio: Priority) {
    cth_set_strategy(pe, t, Strategy::Csd(prio));
}

/// The currently executing thread (`CthSelf`); `None` in the PE's main
/// (scheduler) context.
pub fn cth_self(pe: &Pe) -> Option<Thread> {
    CthRuntime::get(pe).sched(pe, |s| {
        (s.current != 0).then(|| s.threads.at(s.current).handle.clone())
    })
}

/// Transfer control to `t` immediately (`CthResume`). The calling
/// context is parked un-awakened: someone must `cth_resume` or
/// `cth_awaken` it later, exactly as in the C API.
#[inline]
pub fn cth_resume(pe: &Pe, t: &Thread) {
    let rt = CthRuntime::get(pe);
    fb::yield_to_main(pe, rt, resume(pe, rt, t.id(), Some(t)));
}

/// Transfer control to the thread `to` names, from wherever the caller
/// runs. `Some`: the fiber-backend yield of [`Next::Yield`], left for
/// the caller to make in its own frame.
fn resume(pe: &Pe, rt: &CthRuntime, to: u64, handle: Option<&Thread>) -> Option<usize> {
    match rt.sched(pe, |s| s.enter(pe, rt, to, handle, false)) {
        Some(next) => follow(pe, rt, next),
        None if handle.is_some() => panic!("PE {}: resume of exited thread {to}", pe.my_pe()),
        None => panic!("PE {}: resume message for unknown thread {to}", pe.my_pe()),
    }
}

/// Carry out what a visit decided, but for [`Next::Yield`], which is
/// handed on.
#[inline(always)]
fn follow(pe: &Pe, rt: &CthRuntime, next: Next) -> Option<usize> {
    match next {
        Next::Done => {}
        Next::Yield(yield_handle) => return Some(yield_handle),
        Next::Run(tid, context, sampled) => fb::drive(pe, rt, tid, context, sampled),
        Next::Handoff(from, to, sampled, direct) => {
            // The core hand-off: park self BEFORE waking the target, so
            // that it can re-resume us at once without a lost wakeup,
            // then wait until someone hands the token back.
            rt.trace_switch(pe, sampled, direct, to.id());
            debug_assert_eq!(from.0.state.get(), State::Running);
            from.0.state.set(State::Parked);
            wake(pe, rt, &to);
            wait_for_token(pe, rt, &from);
        }
        Next::Ask(_) => unreachable!("asked by the visit's caller"),
    }
    None
}

/// Suspend the current thread and transfer control according to its
/// strategy (`CthSuspend`): by default the oldest thread in the ready
/// pool, else the PE's main context. On the fiber backend a `Some`
/// successor is switched to **directly** — one ~20 ns context switch, no
/// Csd queue bounce (the direct-handoff fast path).
#[inline]
pub fn cth_suspend(pe: &Pe) {
    let rt = CthRuntime::get(pe);
    fb::yield_to_main(pe, rt, suspend_current(pe, rt, "cth_suspend"));
}

/// Ask a custom strategy who runs next, every cell closed.
fn ask(pe: &Pe, custom: &mut Strategy) -> Option<u64> {
    let Strategy::Custom { suspend, .. } = custom else {
        unreachable!("only a custom strategy is asked")
    };
    suspend(pe).map(|t| t.id())
}

/// Everything of a suspension but the fiber backend's switch, which is
/// returned for the caller to make.
fn suspend_current(pe: &Pe, rt: &CthRuntime, what: &str) -> Option<usize> {
    let (me, mut next) = rt.sched(pe, |s| s.suspend(pe, rt, what, None));
    // Only a custom strategy takes a second visit, having been asked
    // with the cell closed.
    if let Next::Ask(mut custom) = next {
        let said = ask(pe, &mut custom);
        let (_unrestored, after) = rt.sched(pe, |s| {
            let unrestored = restore(Some(s.running(pe, what)), custom);
            (unrestored, s.suspend(pe, rt, what, Some(said)).1)
        });
        next = after;
    }
    if !matches!(next, Next::Done) {
        pe.trace_event(Event::ThreadSuspend { tid: me });
    }
    follow(pe, rt, next)
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
    // Read with the cell open, carried out with it closed: a ready-entry
    // for the Csd queue, or a custom strategy to call.
    let plan = rt.sched(pe, |s| {
        let tcb = slot_of(&mut s.threads, t)
            .unwrap_or_else(|| panic!("PE {}: {t:?} is no live thread of this PE", pe.my_pe()));
        match &mut tcb.strategy {
            None | Some(Strategy::Default) => s.ready.push_back(t.id()),
            Some(Strategy::Csd(prio)) => {
                let mode = match prio {
                    Priority::None => QueueingMode::Fifo,
                    _ => QueueingMode::PrioFifo,
                };
                // Same wire format as `Packer::u64`, no Vec allocation.
                let tid = t.id().to_le_bytes();
                let msg = Message::with_priority(rt.resume_handler, prio, &tid);
                return Ok(Some((msg, mode)));
            }
            slot @ Some(Strategy::Custom { .. }) => return Err(slot.take().expect("matched")),
        }
        Ok(None)
    });
    match plan {
        Ok(None) => {}
        Ok(Some((msg, mode))) => csd::csd_enqueue_general(pe, msg, mode),
        // It may call back into the thread API, this thread's included.
        Err(mut custom) => {
            let Strategy::Custom { awaken, .. } = &mut custom else {
                unreachable!("only a custom strategy is called")
            };
            awaken(pe, t.clone());
            let _unrestored = rt.sched(pe, |s| restore(slot_of(&mut s.threads, t), custom));
        }
    }
}

/// Awaken the current thread then suspend (`CthYield`): control will
/// eventually return here.
#[inline]
pub fn cth_yield(pe: &Pe) {
    let rt = CthRuntime::get(pe);
    let me = rt.sched(pe, |s| s.running(pe, "cth_yield").handle.clone());
    cth_awaken(pe, &me);
    fb::yield_to_main(pe, rt, suspend_current(pe, rt, "cth_yield"));
}

/// Terminate the current thread (`CthExit`): control transfers per the
/// thread's suspend strategy; the thread object becomes `Exited`.
/// Returning from the thread function calls this implicitly. Unwinds, so
/// destructors on the thread's stack run.
pub fn cth_exit(pe: &Pe) -> ! {
    let _me = CthRuntime::get(pe).sched(pe, |s| s.running(pe, "cth_exit").born);
    std::panic::resume_unwind(Box::new(ExitRequested));
}

// ---------------------------------------------------------------------
// Hand-off backend: one OS thread per thread object, gated by a token.
// ---------------------------------------------------------------------

/// Hand the run token to `to` and let it run. The caller holds the
/// token on entry and has given it up on return.
fn wake(pe: &Pe, rt: &CthRuntime, to: &Thread) {
    if to.0.state.get() == State::NotStarted {
        // First start: give the thread its OS thread, parked like any
        // other until the token is passed below.
        let (entry, stack_size) = rt.sched(pe, |s| {
            let tcb = slot_of(&mut s.threads, to).expect("a thread that never ran is live");
            (tcb.entry.take(), tcb.stack_size)
        });
        to.0.state.set(State::Parked);
        let entry = entry.expect("entry present before first start");
        spawn_os_thread(pe, rt, to, entry, stack_size);
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
        _ => panic!("PE {}: resume of exited thread {}", pe.my_pe(), to.id()),
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
    if me.id() == 0 {
        if let Some(p) = rt.sched(pe, |s| s.pending_panic.take()) {
            std::panic::resume_unwind(p);
        }
    }
}

/// Give `t` an OS thread that waits for the run token, then runs
/// `entry`. Called by the token holder, which records the join handle.
fn spawn_os_thread(pe: &Pe, rt: &CthRuntime, t: &Thread, entry: Entry, stack_size: usize) {
    let pe_arc = pe.arc();
    let t2 = t.clone();
    let handle = std::thread::Builder::new()
        .name(format!("pe{}-cth{}", pe.my_pe(), t.id()))
        .stack_size(stack_size.max(16 * 1024))
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
    rt.sched(pe, |r| {
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

/// Common tail of a hand-off thread's life: vacate its slot and hand the
/// token to the next context (per strategy, else ready pool, else main).
fn finish_thread(
    pe: &Pe,
    rt: &CthRuntime,
    me: &Thread,
    user_panic: Option<Box<dyn std::any::Any + Send>>,
) {
    let index = index_of(me.id());
    if me.0.state.get() == State::Poisoned {
        // Teardown owns the machine and is joining this thread: mark
        // exited and give the token back.
        drop(rt.sched(pe, |s| s.vacate(index)));
        pe.owner().release();
        return;
    }
    let next = if let Some(p) = user_panic {
        // Carry the panic to the main context and abort the machine so
        // other PEs unblock instead of deadlocking.
        rt.sched(pe, |s| s.pending_panic = Some(p));
        pe.abort_machine();
        None
    } else {
        // Its strategy is asked while it is still the running thread.
        rt.sched(pe, |s| s.successor(index))
            .unwrap_or_else(|mut custom| ask(pe, &mut custom))
    };
    let to = next.unwrap_or(0);
    let (litter, target, sampled) = rt.sched(pe, |s| {
        let litter = s.vacate(index);
        let Some(target) = s.threads.get(to).map(|tcb| tcb.handle.clone()) else {
            panic!("PE {}: resume of exited thread {to}", pe.my_pe());
        };
        (litter, target, s.switch_to(index_of(to), false))
    });
    drop(litter); // the user's code: while this thread still holds the token
    rt.trace_switch(pe, sampled, false, to);
    wake(pe, rt, &target);
}

// ---------------------------------------------------------------------
// Fiber backend: stackful user-level fibers driven from the main
// context, with pooled stacks and the direct-handoff fast path.
// ---------------------------------------------------------------------

mod fb {
    use super::*;
    #[cfg(all(target_arch = "x86_64", unix))]
    use converse_fiber::{Fiber, FiberHandle};
    #[cfg(not(all(target_arch = "x86_64", unix)))]
    use unsupported::{Fiber, FiberHandle};

    /// Stand-ins where `converse-fiber` is empty: `CthBackend::resolve`
    /// never selects the fiber backend there, so no context is made.
    #[cfg(not(all(target_arch = "x86_64", unix)))]
    mod unsupported {
        pub struct FiberHandle;

        impl FiberHandle {
            pub fn yield_now(&self) {}
        }

        pub struct Fiber<A>(std::marker::PhantomData<A>);

        impl<A> Fiber<A> {
            pub fn with_entry(_stack_size: usize, _entry: fn(&FiberHandle, A)) -> Fiber<A> {
                unreachable!("fiber backend on unsupported target")
            }
            pub fn arm(&mut self, _arg: A) {}
            pub fn resume(&mut self) -> bool {
                false
            }
            pub fn stack_size(&self) -> usize {
                0
            }
        }
    }

    /// A pooled execution context: a stack and a fiber that runs
    /// [`thread_main`] on it, once per thread object it hosts.
    pub(super) type Context = Fiber<(Arc<Pe>, Entry)>;

    /// Smallest pooled stack class.
    const MIN_CLASS: usize = 16 * 1024;
    /// Largest pooled stack class; bigger stacks are mapped exactly
    /// (whole pages) and never retained.
    const MAX_CLASS: usize = 1024 * 1024;
    /// Number of power-of-two classes in `MIN_CLASS..=MAX_CLASS`.
    const NUM_CLASSES: usize = (MAX_CLASS / MIN_CLASS).trailing_zeros() as usize + 1;

    /// Per-PE size-classed free list of execution contexts — the
    /// thread-stack analogue of the message-buffer pool: a thread that
    /// starts takes a finished thread's whole context and arms it, paying
    /// neither an allocation nor the mapping of a fresh stack.
    ///
    /// # Retention
    ///
    /// A context of a pooled class is never dropped, so a class holds as
    /// many contexts as its PE ever had threads of that class **started
    /// and not yet exited at one time**: at worst that peak × the class
    /// size (256 KiB for `DEFAULT_STACK_SIZE`) of address space, in two
    /// mappings each (stack and guard page), of which only the pages the
    /// threads touched are resident — a page for a thread that blocks
    /// early. No count picked in advance bounds it: a bound below a
    /// program's concurrency turns every start beyond it into a miss,
    /// which maps a fresh stack: on a 2-vCPU x86-64 host a miss in the
    /// 256 KiB class (create, start and block) took 7.6–11.6 µs and
    /// 4 KiB resident, against 0.3–0.6 µs for a start on a pooled
    /// context.
    #[derive(Default)]
    pub(super) struct StackPool {
        free: [Vec<Parked>; NUM_CLASSES],
        pub(super) stats: StackPoolStats,
    }

    impl StackPool {
        /// Class index for a pooled stack of exactly `len` bytes.
        fn class_of(len: usize) -> Option<usize> {
            (len.is_power_of_two() && (MIN_CLASS..=MAX_CLASS).contains(&len))
                .then(|| (len / MIN_CLASS).trailing_zeros() as usize)
        }

        /// A finished context with a stack of at least `want` bytes:
        /// pooled (rounded up to its size class) when `want` fits a
        /// class, else an exact one-off allocation that will not be
        /// retained.
        fn take(&mut self, want: usize) -> Parked {
            let rounded = want.max(MIN_CLASS).next_power_of_two();
            let pooled = Self::class_of(rounded).and_then(|class| self.free[class].pop());
            if let Some(context) = pooled {
                self.stats.hits += 1;
                return context;
            }
            self.stats.misses += 1;
            let size = if rounded <= MAX_CLASS { rounded } else { want };
            Pinned::new(Fiber::with_entry(size, thread_main))
        }

        /// Keep a finished thread's context for the next one.
        fn give(&mut self, mut context: Parked) {
            match Self::class_of(context.get_mut().stack_size()) {
                Some(class) => {
                    self.stats.recycled += 1;
                    self.free[class].push(context);
                }
                None => self.stats.discarded += 1,
            }
        }
    }

    /// Suspend the running fiber through its yield handle, if handed
    /// one ([`Next::Yield`]), returning control to the drive loop, which
    /// follows the directive left in the table. On wakeup, re-raise
    /// teardown poison so the stack unwinds. Inlined down to the switch,
    /// so that the switch is made in the frame of the `cth_*` caller:
    /// every frame between it and the loop the thread runs in is a return
    /// the processor mispredicts when the thread wakes, and one more when
    /// the main context is back (≈ 5 ns each, ten of them before ISSUE 23).
    #[inline(always)]
    pub(super) fn yield_to_main(pe: &Pe, rt: &CthRuntime, yield_handle: Option<usize>) {
        let Some(yield_handle) = yield_handle else {
            return;
        };
        let h = yield_handle as *const FiberHandle;
        debug_assert!(!h.is_null(), "a started fiber stored its yield handle");
        // SAFETY: `h` points at the FiberHandle on this very fiber's
        // stack (we are the fiber suspending; `thread_main` stored it in
        // the running thread's slot), live until completion.
        unsafe { (*h).yield_now() };
        // Resumed: the drive loop made this thread current again. Only
        // teardown poisons, so the thread's state is asked only then.
        if rt.poisoning.load(Ordering::Relaxed) {
            unwind_if_poisoned(pe, rt);
        }
    }

    #[cold]
    fn unwind_if_poisoned(pe: &Pe, rt: &CthRuntime) {
        let me = rt.sched(pe, |s| s.running(pe, "a fiber switch").handle.0.state.get());
        if me == State::Poisoned {
            std::panic::resume_unwind(Box::new(ThreadPoison));
        }
    }

    /// Retrieve or materialize the execution context of thread `to`, a
    /// live one, and make it the running thread (`true`: trace the
    /// switch). A `NotStarted` thread's entry function moves into a
    /// pooled context here — creation is lazy, so a never-resumed thread
    /// costs no stack at all.
    #[inline(always)]
    pub(super) fn enter(s: &mut Sched, pe: &Pe, to: u64, direct: bool) -> (Parked, bool) {
        let tcb = s.threads.at(index_of(to));
        let state = tcb.handle.0.state.get();
        let context = match state {
            State::NotStarted => {
                let entry = tcb.entry.take().expect("entry present before first start");
                let mut context = s.pool.take(tcb.stack_size);
                context.get_mut().arm((pe.arc(), entry));
                context
            }
            State::Parked | State::Poisoned => tcb
                .context
                .take()
                .unwrap_or_else(|| panic!("PE {}: parked thread {to} has no fiber", pe.my_pe())),
            State::Running => panic!("PE {}: resume of running thread {to}", pe.my_pe()),
            State::Exited => unreachable!("a live slot's thread has not exited"),
        };
        // Poison is left set: the wakeup check in `yield_to_main` turns
        // it into an unwind.
        if state != State::Poisoned {
            tcb.handle.0.state.set(State::Running);
        }
        (context, s.switch_to(index_of(to), direct))
    }

    /// What every pooled context runs, once per thread object it hosts
    /// (current by then): store the yield handle, run the entry, swallow
    /// the control-flow unwinds (exit, poison) so the fiber finishes
    /// cleanly; user panics surface from `Fiber::resume` in the drive loop.
    fn thread_main(h: &FiberHandle, (pe, entry): (Arc<Pe>, Entry)) {
        let at = h as *const FiberHandle as usize;
        CthRuntime::get(&pe).sched(&pe, |s| s.running(&pe, "a fiber").yield_handle = at);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry(&pe)));
        if let Err(p) = result {
            if !(p.is::<ExitRequested>() || p.is::<ThreadPoison>()) {
                std::panic::resume_unwind(p);
            }
        }
    }

    /// The fiber scheduler: runs on the main context, switching into
    /// thread `tid` — current already, `context` its own — and then
    /// following the directives fibers leave behind: a transfer stays
    /// inside this loop (one ~20 ns switch per hop, never touching the
    /// Csd queue), a suspend returns to the caller. Each hop visits the
    /// table twice: [`enter`], and once the fiber is back, to park or
    /// retire it and read what it asked for.
    pub(super) fn drive(
        pe: &Pe,
        rt: &CthRuntime,
        mut tid: u64,
        mut context: Parked,
        mut sampled: bool,
    ) {
        let mut direct = false;
        loop {
            rt.trace_switch(pe, sampled, direct, tid);
            let fiber = context.get_mut();
            let resumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fiber.resume()));
            let alive = *resumed.as_ref().unwrap_or(&false);
            let poisoning = rt.poisoning.load(Ordering::Relaxed);
            let (next, litter) = rt.sched(pe, |s| {
                let index = std::mem::take(&mut s.current);
                if alive {
                    let tcb = s.threads.at(index);
                    if tcb.handle.0.state.get() == State::Running {
                        tcb.handle.0.state.set(State::Parked);
                    }
                    tcb.context = Some(context);
                    return (Ok(s.directive.take()), None);
                }
                // The fiber finished (exit, return or panic) without
                // choosing: consult its suspend strategy, exactly like
                // the hand-off backend's finish path — unless teardown
                // or a panic ends the walk here.
                s.pool.give(context);
                let next = match poisoning || resumed.is_err() {
                    true => Ok(None),
                    false => s.successor(index).map(|next| next.map(|to| (to, false))),
                };
                (next, Some(s.vacate(index)))
            });
            // Asked, and what the thread left dropped, with the cell
            // closed: both are the user's code.
            let next = next.unwrap_or_else(|mut custom| ask(pe, &mut custom).map(|to| (to, false)));
            drop(litter);
            if let Err(p) = resumed {
                // A user panic inside the fiber: the fiber is done (its
                // stack already unwound inside the fiber boundary) and
                // its slot vacated; let the panic propagate out of the
                // PE entry.
                pe.abort_machine();
                std::panic::resume_unwind(p);
            }
            match next {
                // 0: back to the scheduler. A finished thread may find
                // itself in the ready pool: nothing is left to run.
                Some((to, d)) if to != 0 && (alive || to != tid) => (tid, direct) = (to, d),
                _ => return,
            }
            (context, sampled) = rt.sched(pe, |s| match s.threads.get(tid) {
                Some(_) => enter(s, pe, tid, direct),
                None => panic!("PE {}: resume of exited thread {tid}", pe.my_pe()),
            });
        }
    }
}
