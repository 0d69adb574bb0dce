//! Stackful user-level **fibers** — the 1996 thread object's actual
//! mechanism, reproduced.
//!
//! The paper's thread object "is primarily implemented through the C
//! language calls to `setjmp` and `longjmp` which allow state
//! information (program counter, stack pointer and registers) to be
//! *saved* and later *jumped* to" (§3.2.2). This crate is that
//! mechanism: a minimal stackful coroutine whose context switch saves
//! and restores exactly the System-V callee-saved register set — the
//! same work `setjmp`/`longjmp` did — in ~10 ns on a modern x86-64
//! core, i.e. the "native-class" constant the 1996 implementation paid.
//! It is the engine of the **default** (`fiber`) backend of
//! `converse-threads`; the hand-off OS-thread backend remains as the
//! portable fallback on targets this crate does not support.
//!
//! The `benchmark/` crate reports this constant as its
//! `fiber.switch_ns` row, and `converse-bench`'s `threads_e2e` bin sets
//! the two backends side by side, closing the loop on the substitution
//! note in DESIGN.md.
//!
//! # Safety model
//!
//! * x86-64 System-V only (compile error elsewhere); the switch is ~20
//!   instructions of `global_asm!`.
//! * A fiber's entry runs on a stack of its own: an anonymous private
//!   mapping, rounded up to whole pages, whose lowest page is mapped
//!   `PROT_NONE` as a guard and which is unmapped when the context is
//!   dropped. A context costs the pages its runs touch — a shallow one
//!   keeps one page resident — and a run that outgrows its stack faults
//!   at the guard (`SIGSEGV`), as on an OS thread's stack, instead of
//!   writing over whatever lies below it.
//! * Panics inside the fiber are caught at the fiber boundary and
//!   re-thrown from [`Fiber::resume`] on the resumer's stack.
//! * A [`Fiber`] is an execution context that outlives what runs on it:
//!   once its entry has returned (or panicked) [`Fiber::arm`] starts the
//!   next run from the top of the same stack. Only a finished context
//!   can be armed — every frame on its stack is dead then — and `arm`
//!   checks that; a thread runtime pools whole contexts this way and a
//!   thread's creation allocates no stack.
//! * **Dropping a suspended fiber leaks whatever is live on its stack**
//!   (destructors do not run), exactly like discarding a `setjmp`
//!   context in 1996. Run fibers to completion when that matters.

#![cfg(all(target_arch = "x86_64", unix))]

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

std::arch::global_asm!(
    // fn fiber_switch(save: *mut *mut u8, load: *mut u8)
    //
    // Saves the callee-saved state of the current context on the current
    // stack, stores the resulting rsp through `save`, then installs
    // `load` as rsp and restores the state found there. Returning `ret`s
    // into whatever return address that stack holds — either a previous
    // fiber_switch call site or the bootstrap trampoline.
    ".global converse_fiber_switch",
    ".hidden converse_fiber_switch",
    "converse_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // Bootstrap: first entry into a freshly armed fiber. `arm` put the
    // fiber context pointer in the r12 slot and the address of the
    // context's `fiber_main` instance in the r13 slot. At this point rsp
    // is 16-byte aligned (see the stack layout in `arm`), so the call
    // leaves the callee with standard SysV alignment.
    ".global converse_fiber_trampoline",
    ".hidden converse_fiber_trampoline",
    "converse_fiber_trampoline:",
    "mov rdi, r12",
    "call r13",
    "ud2",
);

unsafe extern "C" {
    fn converse_fiber_switch(save: *mut *mut u8, load: *mut u8);
}

unsafe extern "C" {
    #[link_name = "converse_fiber_trampoline"]
    fn fiber_trampoline();
}

// The three memory-mapping calls a stack needs, declared by hand: std
// links libc already, so no bindings crate is pulled in for them.
type CInt = i32;

const PROT_NONE: CInt = 0;
const PROT_READ: CInt = 1;
const PROT_WRITE: CInt = 2;
const MAP_PRIVATE: CInt = 0x02;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_ANONYMOUS: CInt = 0x20;
/// macOS and the BSDs.
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_ANONYMOUS: CInt = 0x1000;
/// Linux keeps transparent huge pages off a stack mapping.
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_STACK: CInt = 0x2_0000;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_STACK: CInt = 0;
const MAP_FAILED: *mut u8 = !0usize as *mut u8;

unsafe extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: CInt, flags: CInt, fd: CInt, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: CInt) -> CInt;
    fn munmap(addr: *mut u8, len: usize) -> CInt;
}

/// The base page of every x86-64 unix: the unit a stack is rounded up
/// to, and the size of its guard.
const PAGE: usize = 4096;

/// A fiber's stack: `[guard page | usable pages]`, one anonymous
/// private mapping owned by its context. Pages are resident only once
/// touched, so a pool miss costs a mapping and a shallow run one page.
struct Stack {
    /// Lowest address of the mapping: the guard page.
    base: *mut u8,
    /// Length of the whole mapping, guard included.
    len: usize,
}

impl Stack {
    /// Map a stack of at least `usable` bytes (whole pages, one at
    /// least) above a guard page. Aborts like a failed allocation if
    /// the mapping cannot be made.
    fn new(usable: usize) -> Stack {
        let layout = usable
            .max(1)
            .checked_next_multiple_of(PAGE)
            .and_then(|pages| pages.checked_add(PAGE))
            .and_then(|len| std::alloc::Layout::from_size_align(len, PAGE).ok())
            .expect("stack size within the address space");
        let len = layout.size();
        let (prot, flags) = (
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK,
        );
        // SAFETY: a fresh mapping at an address the kernel picks
        // aliases nothing.
        let base = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, -1, 0) };
        if base == MAP_FAILED {
            std::alloc::handle_alloc_error(layout);
        }
        let stack = Stack { base, len };
        // SAFETY: the first page of the mapping just made; nothing
        // points into it.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            drop(stack);
            std::alloc::handle_alloc_error(layout);
        }
        stack
    }

    /// One past the highest usable byte: page-aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }

    /// Usable bytes, the guard excluded.
    fn usable(&self) -> usize {
        self.len - PAGE
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this value's alone, and the context
        // that owns it is being dropped: nothing runs on it any more.
        unsafe { munmap(self.base, self.len) };
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Armed or suspended at a yield: resumable.
    Suspended,
    /// Currently on its own stack.
    Running,
    /// Nothing to run: never armed, or the entry returned (or panicked).
    Done,
}

/// What a context switch reads and writes.
struct Switch {
    /// Saved rsp of the fiber while it is suspended.
    fiber_rsp: UnsafeCell<*mut u8>,
    /// Saved rsp of the resumer while the fiber runs.
    caller_rsp: UnsafeCell<*mut u8>,
    state: Cell<State>,
}

/// An entry closure, boxed: the argument of a [`Fiber::new`] fiber.
pub type BoxedEntry = Box<dyn FnOnce(&FiberHandle)>;

struct FiberInner<A> {
    switch: Switch,
    /// The fiber's stack, kept for the context's lifetime.
    stack: Stack,
    /// What every arming of this context runs.
    entry: fn(&FiberHandle, A),
    /// The armed argument, until the first resume takes it.
    arg: UnsafeCell<Option<A>>,
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
}

/// Handed to the fiber's entry; the only way to yield.
pub struct FiberHandle {
    switch: *const Switch,
}

impl FiberHandle {
    /// Suspend this fiber and return control to [`Fiber::resume`]'s
    /// caller. Execution continues here at the next `resume`.
    ///
    /// Inlined into its caller: a frame between the switch and the loop
    /// the fiber runs in is a return the processor mispredicts after
    /// every switch, on this side and on the resumer's.
    #[inline(always)]
    pub fn yield_now(&self) {
        // SAFETY: a handle exists only on its fiber's own stack while
        // the fiber runs (`fiber_main` makes it and lends it to the
        // entry), and the context outlives every frame on that stack.
        let switch = unsafe { &*self.switch };
        switch.state.set(State::Suspended);
        // SAFETY: the fiber is running, so `caller_rsp` is the context
        // `resume` saved when it switched in, parked inside
        // `converse_fiber_switch`.
        unsafe {
            converse_fiber_switch(switch.fiber_rsp.get(), *switch.caller_rsp.get());
        }
        switch.state.set(State::Running);
    }
}

/// A stackful fiber: an execution context — a stack and the saved
/// registers of whatever is suspended on it — that runs one entry
/// function, once per [`arm`](Fiber::arm)ing, driven with
/// [`Fiber::resume`].
///
/// [`Fiber::new`] is the one-shot form: a context armed with a closure.
///
/// ```
/// use converse_fiber::Fiber;
///
/// let mut sum = 0u64;
/// let mut f = Fiber::new(64 * 1024, |h| {
///     for i in 1..=3u64 {
///         // (writes to captured state happen between resumes)
///         h.yield_now();
///         let _ = i;
///     }
/// });
/// let mut switches = 0;
/// while f.resume() {
///     switches += 1;
///     sum += 1;
/// }
/// assert_eq!(switches, 3);
/// assert_eq!(sum, 3);
/// ```
///
/// A finished context can be armed again: the next run starts on the
/// same stack, and nothing is allocated.
///
/// ```
/// use converse_fiber::{Fiber, FiberHandle};
/// use std::{cell::Cell, rc::Rc};
///
/// fn add(h: &FiberHandle, (to, n): (Rc<Cell<u64>>, u64)) {
///     h.yield_now();
///     to.set(to.get() + n);
/// }
/// let total = Rc::new(Cell::new(0));
/// let mut f = Fiber::with_entry(64 * 1024, add);
/// for n in 1..=3 {
///     f.arm((total.clone(), n));
///     assert!(f.resume());
///     assert!(!f.resume());
/// }
/// assert_eq!(total.get(), 6);
/// ```
pub struct Fiber<A = BoxedEntry> {
    inner: Box<FiberInner<A>>,
}

/// First frame of every run of a context (the trampoline's callee).
extern "C" fn fiber_main<A>(ctx: *mut FiberInner<A>) -> ! {
    // SAFETY: `arm` stored the address of the boxed `FiberInner` that
    // owns this stack; it is not moved or freed while a frame is live
    // on its stack, short of the documented drop-while-suspended leak.
    let inner = unsafe { &*ctx };
    inner.switch.state.set(State::Running);
    // SAFETY: only `arm` (fiber not running) and this line (fiber
    // running) touch `arg`, never both at once.
    let arg = unsafe { (*inner.arg.get()).take() }.expect("armed before its first resume");
    let handle = FiberHandle {
        switch: &inner.switch,
    };
    let entry = inner.entry;
    let result = catch_unwind(AssertUnwindSafe(|| entry(&handle, arg)));
    if let Err(p) = result {
        // SAFETY: `resume` reads `panic` only after this fiber has
        // switched out below.
        unsafe {
            *inner.panic.get() = Some(p);
        }
    }
    inner.switch.state.set(State::Done);
    // Hand control back for good: a finished fiber is never switched
    // into at this point again (`resume` checks the state, `arm` starts
    // the next run from the top of the stack), and nothing that needs
    // dropping is live in this frame.
    // SAFETY: as in `yield_now`.
    unsafe {
        converse_fiber_switch(inner.switch.fiber_rsp.get(), *inner.switch.caller_rsp.get());
    }
    unreachable!("finished fiber resumed");
}

fn call_boxed(h: &FiberHandle, f: BoxedEntry) {
    f(h)
}

impl Fiber<BoxedEntry> {
    /// Create a fiber with a dedicated stack of `stack_size` bytes
    /// (rounded up to whole 4 KiB pages; 64 KiB is plenty for most
    /// uses) that runs `f`.
    /// The closure does not run until the first [`Fiber::resume`].
    pub fn new<F>(stack_size: usize, f: F) -> Fiber
    where
        F: FnOnce(&FiberHandle) + 'static,
    {
        let mut fiber = Fiber::with_entry(stack_size, call_boxed);
        fiber.arm(Box::new(f));
        fiber
    }
}

impl<A> Fiber<A> {
    /// Create an execution context with a dedicated stack of
    /// `stack_size` bytes (rounded up to whole 4 KiB pages, above a
    /// guard page) whose every run is `entry(handle, arg)`. It starts
    /// out finished: [`arm`](Fiber::arm) it with an argument, then
    /// [`resume`](Fiber::resume).
    pub fn with_entry(stack_size: usize, entry: fn(&FiberHandle, A)) -> Fiber<A> {
        Fiber {
            inner: Box::new(FiberInner {
                switch: Switch {
                    fiber_rsp: UnsafeCell::new(std::ptr::null_mut()),
                    caller_rsp: UnsafeCell::new(std::ptr::null_mut()),
                    state: Cell::new(State::Done),
                },
                stack: Stack::new(stack_size),
                entry,
                arg: UnsafeCell::new(None),
                panic: UnsafeCell::new(None),
            }),
        }
    }

    /// Arm a finished (or never armed) context for one more run of its
    /// entry with `arg`, on the stack it has: the pooling entry point —
    /// a context that ran a thread to completion runs the next one
    /// without an allocation. Nothing runs until the next
    /// [`Fiber::resume`]. Panics if the previous run has not finished.
    pub fn arm(&mut self, arg: A) {
        assert_eq!(
            self.inner.switch.state.get(),
            State::Done,
            "fiber armed before its last run finished"
        );
        let inner = &mut *self.inner;
        let ctx: *mut FiberInner<A> = inner;
        // The top of the stack is page-aligned, so 16-aligned.
        let top = inner.stack.top();
        // Layout below `top` (downward):
        //   [top-8]         : trampoline return address (ret target)
        //   [top-16..top-56): six callee-saved slots (r15 r14 r13 r12 rbx
        //                     rbp; r15 popped first = lowest address)
        // After the six pops rsp = top-8; `ret` consumes the trampoline
        // address leaving rsp = top ≡ 0 (mod 16) inside the trampoline;
        // its `call` pushes a return address, so fiber_main starts with
        // the standard SysV entry alignment (rsp ≡ 8 mod 16).
        //
        // SAFETY: the 56 bytes written lie in the top page of `stack`,
        // which is mapped readable and writable. The state is `Done`, so
        // no frame on this stack will run again: a context that was
        // never armed has none, and the
        // last run's `fiber_main` sits in its final switch, which is
        // never returned to, holding nothing that needs dropping — the
        // writes clobber dead memory only.
        unsafe {
            let ret_slot = top.sub(8) as *mut usize;
            *ret_slot = fiber_trampoline as *const () as usize;
            let regs_base = top.sub(8 + 48) as *mut usize; // 6 slots below
            for i in 0..6 {
                *regs_base.add(i) = 0;
            }
            // Pop order r15 r14 r13 r12: index 2 is r13, the trampoline's
            // callee; index 3 is r12, its argument.
            *regs_base.add(2) = fiber_main::<A> as extern "C" fn(*mut FiberInner<A>) -> ! as usize;
            *regs_base.add(3) = ctx as usize;
            *inner.switch.fiber_rsp.get() = regs_base as *mut u8;
        }
        *inner.arg.get_mut() = Some(arg);
        inner.switch.state.set(State::Suspended);
    }

    /// Run the fiber until it yields or finishes. Returns true while the
    /// fiber can be resumed again; false once its entry has returned (or
    /// it was never armed). Re-raises a panic that occurred inside the
    /// fiber; the context is finished then, and can be armed again.
    pub fn resume(&mut self) -> bool {
        let switch = &self.inner.switch;
        if switch.state.get() == State::Done {
            return false;
        }
        assert_ne!(
            switch.state.get(),
            State::Running,
            "fiber resumed reentrantly"
        );
        // SAFETY: the state is `Suspended`, so `fiber_rsp` is either the
        // initial frame `arm` built or the context `yield_now` saved,
        // both on the stack this context owns.
        unsafe {
            converse_fiber_switch(switch.caller_rsp.get(), *switch.fiber_rsp.get());
        }
        // Back from the fiber: it either yielded or finished.
        // SAFETY: the fiber is not running; see `fiber_main`.
        if let Some(p) = unsafe { (*self.inner.panic.get()).take() } {
            resume_unwind(p);
        }
        switch.state.get() != State::Done
    }

    /// Size of this context's stack in bytes: what was asked for,
    /// rounded up to whole pages, its guard page not counted.
    pub fn stack_size(&self) -> usize {
        self.inner.stack.usable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn runs_to_completion_without_yield() {
        let hit = Rc::new(Cell::new(0));
        let h2 = hit.clone();
        let mut f = Fiber::new(32 * 1024, move |_h| {
            h2.set(41);
        });
        assert!(!f.resume(), "no yields: finished on first resume");
        assert_eq!(hit.get(), 41);
        assert!(!f.resume(), "finished fiber stays finished");
    }

    #[test]
    fn yields_alternate_with_resumer() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        let mut f = Fiber::new(32 * 1024, move |h| {
            for i in 0..3 {
                l2.borrow_mut().push(format!("fiber {i}"));
                h.yield_now();
            }
        });
        for i in 0..3 {
            assert!(f.resume());
            log.borrow_mut().push(format!("main {i}"));
        }
        assert!(!f.resume());
        assert_eq!(
            *log.borrow(),
            vec!["fiber 0", "main 0", "fiber 1", "main 1", "fiber 2", "main 2"]
        );
    }

    #[test]
    fn state_lives_across_yields_on_the_fiber_stack() {
        let out = Rc::new(Cell::new(0u64));
        let o2 = out.clone();
        let mut f = Fiber::new(64 * 1024, move |h| {
            // A stack array mutated across yields: the saved context must
            // preserve it exactly.
            let mut acc = [0u64; 32];
            for round in 0..4u64 {
                for (i, a) in acc.iter_mut().enumerate() {
                    *a += round * i as u64;
                }
                h.yield_now();
            }
            o2.set(acc.iter().sum());
        });
        while f.resume() {}
        // sum over i of i * (0+1+2+3) = 6 * (31*32/2)
        assert_eq!(out.get(), 6 * (31 * 32 / 2));
    }

    #[test]
    fn many_fibers_interleaved() {
        let n = 64;
        let counter = Rc::new(Cell::new(0u64));
        let mut fibers: Vec<Fiber> = (0..n)
            .map(|_| {
                let c = counter.clone();
                Fiber::new(16 * 1024, move |h| {
                    for _ in 0..10 {
                        c.set(c.get() + 1);
                        h.yield_now();
                    }
                })
            })
            .collect();
        let mut live = n;
        while live > 0 {
            live = 0;
            for f in &mut fibers {
                if f.resume() {
                    live += 1;
                }
            }
        }
        assert_eq!(counter.get(), n as u64 * 10);
    }

    #[test]
    fn panic_inside_fiber_rethrows_on_resume() {
        let mut f = Fiber::new(32 * 1024, |h| {
            h.yield_now();
            panic!("fiber boom");
        });
        assert!(f.resume(), "first resume reaches the yield");
        let err = catch_unwind(AssertUnwindSafe(|| f.resume())).expect_err("panic re-thrown");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("fiber boom"));
        assert!(!f.resume(), "a panicked fiber is finished");
    }

    #[test]
    fn switch_count_is_exact() {
        let mut f = Fiber::new(16 * 1024, |h| {
            for _ in 0..1000 {
                h.yield_now();
            }
        });
        let mut resumes = 0;
        while f.resume() {
            resumes += 1;
        }
        assert_eq!(resumes, 1000);
    }

    /// The entry of the re-arm tests: what one run is asked to do.
    enum Run {
        /// Yield once, fill a stack array, report its sum.
        Sum(Rc<Cell<u64>>),
        /// Yield, then unwind out of the work to a landing pad inside
        /// the entry — how a thread runtime implements exit and poison.
        UnwindInside(Rc<Cell<u64>>),
        /// Yield, then panic out of the entry.
        Panic,
    }

    struct Unwound;

    fn run(h: &FiberHandle, what: Run) {
        match what {
            Run::Sum(out) => {
                let mut acc = [1u64; 16];
                h.yield_now();
                for (i, a) in acc.iter_mut().enumerate() {
                    *a += i as u64;
                }
                out.set(acc.iter().sum());
            }
            Run::UnwindInside(dropped) => {
                struct OnStack(Rc<Cell<u64>>);
                impl Drop for OnStack {
                    fn drop(&mut self) {
                        self.0.set(self.0.get() + 1);
                    }
                }
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let _live = OnStack(dropped);
                    h.yield_now();
                    resume_unwind(Box::new(Unwound));
                }));
                assert!(caught.unwrap_err().is::<Unwound>());
            }
            Run::Panic => {
                h.yield_now();
                resume_unwind(Box::new("fiber boom"));
            }
        }
    }

    /// One `Run::Sum` on `f`, checked: the (dirty, un-zeroed) stack of
    /// whatever ran before must host it correctly.
    fn sum_runs_on(f: &mut Fiber<Run>) {
        let out = Rc::new(Cell::new(0u64));
        f.arm(Run::Sum(out.clone()));
        assert!(f.resume(), "suspended at the yield");
        assert!(!f.resume());
        assert_eq!(out.get(), 16 + (15 * 16 / 2));
    }

    #[test]
    fn a_context_is_idle_until_armed() {
        let mut f = Fiber::with_entry(32 * 1024, run);
        assert!(!f.resume(), "nothing armed, nothing runs");
        assert_eq!(f.stack_size(), 32 * 1024);
        sum_runs_on(&mut f);
        // A stack is whole pages: what was asked for, rounded up.
        assert_eq!(Fiber::with_entry(5000, run).stack_size(), 8192);
        assert_eq!(Fiber::with_entry(0, run).stack_size(), 4096);
    }

    #[test]
    fn rearm_after_return_reuses_the_stack() {
        let mut f = Fiber::with_entry(32 * 1024, run);
        for _ in 0..1000 {
            sum_runs_on(&mut f);
        }
    }

    #[test]
    fn rearm_after_an_unwind_caught_inside_the_entry() {
        // Exit and poison in the thread runtime: the entry's own landing
        // pad catches the unwind, the entry returns normally.
        let mut f = Fiber::with_entry(32 * 1024, run);
        let dropped = Rc::new(Cell::new(0));
        for round in 1..=3 {
            f.arm(Run::UnwindInside(dropped.clone()));
            assert!(f.resume());
            assert!(!f.resume());
            assert_eq!(
                dropped.get(),
                round,
                "the unwind ran the stack's destructors"
            );
            sum_runs_on(&mut f);
        }
    }

    #[test]
    fn a_panicking_entry_never_poisons_the_recycled_context() {
        let mut f = Fiber::with_entry(32 * 1024, run);
        for _ in 0..3 {
            f.arm(Run::Panic);
            assert!(f.resume());
            let err = catch_unwind(AssertUnwindSafe(|| f.resume())).expect_err("re-thrown");
            assert_eq!(err.downcast_ref::<&str>().copied(), Some("fiber boom"));
            assert!(!f.resume(), "the panic was delivered once");
            sum_runs_on(&mut f);
        }
    }

    #[test]
    #[should_panic(expected = "armed before its last run finished")]
    fn a_suspended_fiber_refuses_to_be_rearmed() {
        // Its stack still holds live frames.
        let mut f = Fiber::with_entry(32 * 1024, run);
        f.arm(Run::Sum(Rc::default()));
        assert!(f.resume(), "suspended at the yield");
        f.arm(Run::Sum(Rc::default()));
    }

    #[test]
    fn an_armed_argument_that_never_runs_is_dropped_with_the_context() {
        let held = Rc::new(Cell::new(0u64));
        let mut f = Fiber::with_entry(32 * 1024, run);
        f.arm(Run::Sum(held.clone()));
        assert_eq!(Rc::strong_count(&held), 2);
        drop(f);
        assert_eq!(Rc::strong_count(&held), 1);
    }

    #[test]
    fn dropping_suspended_fiber_leaks_stack_contents() {
        // Pins the documented caveat: destructors on a dropped suspended
        // fiber's stack do NOT run, exactly like discarding a `setjmp`
        // context in 1996. If this test ever fails, the caveat in the
        // crate docs (and docs/API.md) no longer holds.
        let alive = Rc::new(());
        let a2 = alive.clone();
        let mut f = Fiber::new(32 * 1024, move |h| {
            let _hold = a2;
            h.yield_now();
        });
        assert!(f.resume(), "suspended with the Rc live on its stack");
        drop(f);
        assert_eq!(
            Rc::strong_count(&alive),
            2,
            "the clone on the dropped stack was leaked, not dropped"
        );
    }

    #[test]
    fn nested_calls_on_fiber_stack() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let out = Rc::new(Cell::new(0));
        let o2 = out.clone();
        let mut f = Fiber::new(256 * 1024, move |h| {
            let a = fib(20);
            h.yield_now();
            let b = fib(15);
            o2.set(a + b);
        });
        while f.resume() {}
        assert_eq!(out.get(), 6765 + 610);
    }
}
