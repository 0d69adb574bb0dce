//! Single ownership as a type: the PE's **run token** ([`Owner`]) and
//! the cell that only its holder may open ([`OwnerCell`]; [`Pinned`]
//! wraps content that must also stay on one OS thread).
//!
//! A Converse processor is one scheduler loop (paper §3.1.2, Fig. 3).
//! Its intake buffer, its scheduler queue, its thread runtime's ready
//! pool — everything the loop and the handlers it calls touch — is used
//! by exactly one execution context at a time: the one that holds the
//! PE's run token. That used to be a comment above an uncontended
//! `Mutex`; here it is a type, and the check that enforces it is plain
//! loads and stores:
//!
//! * one relaxed load of the PE's **owner word**, compared with the
//!   calling thread's key — a number read from a thread-local (not
//!   `thread::current()`, which clones an `Arc`), unique for the life of
//!   the process, so a key left behind by a dead thread opens nothing;
//! * one compare of the cell's owner id with the token's, so a cell
//!   cannot be opened with another PE's token;
//! * one non-atomic **borrow flag**, so the `&mut T` a closure is
//!   handed is never aliased by a nested access.
//!
//! No lock-prefixed instruction is executed, and each of the three
//! misuses safe code can attempt — a foreign thread, a re-entrant
//! access, another PE's token — panics, in release builds as in debug
//! builds.
//!
//! # The token rule
//!
//! At any instant at most one OS thread's key is in a PE's owner word.
//! The thread that constructs the [`Owner`] holds the token first (the
//! run harness builds each `Pe` on that PE's own thread). On the fiber
//! backend every context of the PE runs on that thread and the token
//! never moves. The hand-off backend runs a PE's contexts on several OS
//! threads, one at a time; there the holder gives the token up with
//! [`Owner::release`] before it wakes its successor, and the successor
//! takes it with the one `unsafe fn` of this module, [`Owner::adopt`],
//! once the wake-up (a mutex and condvar) has ordered it after the
//! release. While the token is in flight the owner word is zero and
//! *no* thread passes the check.
//!
//! Content that is not `Send` (a parked fiber is a stack that must stay
//! on its thread) goes into a cell wrapped in a [`Pinned`]: one more
//! word and one more compare where it is used. It is reached only on
//! the thread that wrapped it, and is leaked — with a line on stderr —
//! rather than dropped anywhere else.
//!
//! In builds with `debug_assertions` every opening of a cell is counted
//! per thread in the `parking_lot` shim's `census`, beside its lock
//! acquisitions (`census::openings`): tests pin the openings an
//! operation costs with it. Release builds contain none of it.

use std::cell::{Cell, UnsafeCell};
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// This thread's key, 0 until first asked for. Const-initialized
    /// and without a destructor, so reading it is one load.
    static THREAD_KEY: Cell<u64> = const { Cell::new(0) };
}

/// Source of thread keys and owner ids; 0 is never handed out, and a
/// `u64` counter does not wrap, so no number names two things.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The calling thread's key: never 0, never reused. (The address of a
/// thread-local would be cheaper still, but is reissued once its thread
/// has died — to a thread that was never handed the token.)
#[inline(always)]
fn thread_key() -> u64 {
    THREAD_KEY.with(|k| match k.get() {
        0 => assign_thread_key(k),
        key => key,
    })
}

#[cold]
fn assign_thread_key(k: &Cell<u64>) -> u64 {
    let key = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    k.set(key);
    key
}

/// A PE's run token: which OS thread may open the PE's [`OwnerCell`]s
/// right now. See the [module docs](self) for the rule.
pub struct Owner {
    id: u64,
    /// Key of the thread holding the token; 0 while it is in flight
    /// between [`Owner::release`] and [`Owner::adopt`]. Written only by
    /// the holder (release) or the designated next holder (adopt), so
    /// relaxed plain stores suffice: a thread that reads its own key
    /// here put it there itself.
    holder: AtomicU64,
}

impl Owner {
    /// A fresh token, held by the calling thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Owner {
        Owner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            holder: AtomicU64::new(thread_key()),
        }
    }

    /// True when the calling thread holds this token.
    #[inline(always)]
    pub fn held_by_current_thread(&self) -> bool {
        self.holder.load(Ordering::Relaxed) == thread_key()
    }

    /// Give the token up: after this no thread opens this owner's cells
    /// until one [`adopt`](Owner::adopt)s it. Panics unless the calling
    /// thread holds the token.
    pub fn release(&self) {
        assert!(
            self.held_by_current_thread(),
            "run token released by a thread that does not hold it"
        );
        self.holder.store(0, Ordering::Relaxed);
    }

    /// Take a released token for the calling thread. Panics if the
    /// token is not in flight.
    ///
    /// # Safety
    /// The previous holder must have designated the calling thread as
    /// the next one, and its [`release`](Owner::release) — with every
    /// cell access before it — must *happen before* this call (the
    /// hand-off backend's state mutex and condvar provide that edge;
    /// `JoinHandle::join` does as well). At most one thread may be so
    /// designated per release.
    pub unsafe fn adopt(&self) {
        assert_eq!(
            self.holder.load(Ordering::Relaxed),
            0,
            "run token adopted while a thread still holds it"
        );
        self.holder.store(thread_key(), Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Owner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Owner").field("id", &self.id).finish()
    }
}

/// State that only the holder of one PE's run token touches. Opening it
/// ([`OwnerCell::with`]) costs a few plain loads and stores; opening it
/// without the token, re-entrantly, or with another PE's token panics.
pub struct OwnerCell<T> {
    /// Id of the [`Owner`] this cell belongs to.
    owner: u64,
    /// Set while a closure holds the `&mut T`. Only read or written
    /// after the token check passed, i.e. by one thread at a time.
    borrowed: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY (the token rule): through a shared reference `with` is the
// only way to the `T`, and it proceeds only on the thread whose key is
// in the owner word of the `Owner` the cell was made for; a thread that
// fails that test has read nothing but the cell's immutable owner id
// and the atomic owner word.
// A key gets into the owner word in two ways: its thread constructed the
// `Owner`, or it called `Owner::adopt`, whose contract is that the
// previous holder's `release` happens-before it. Keys are never reused,
// so the key of a thread that died holding the token matches no later
// thread. The threads that ever reach the `T` (and the `borrowed` flag)
// therefore do so one at a time, each ordered after the one before — the
// access pattern of a value moved between threads, which is what
// `T: Send` allows.
unsafe impl<T: Send> Sync for OwnerCell<T> {}

/// Clears the borrow flag when the closure returns or unwinds.
struct Borrow<'a>(&'a Cell<bool>);

impl Drop for Borrow<'_> {
    #[inline(always)]
    fn drop(&mut self) {
        self.0.set(false);
    }
}

impl<T: Send> OwnerCell<T> {
    /// A cell of `owner`'s PE. Any thread holding the token may open it.
    pub fn new(owner: &Owner, value: T) -> OwnerCell<T> {
        OwnerCell {
            owner: owner.id,
            borrowed: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }
}

impl<T> OwnerCell<T> {
    /// Run `f` on the content. Panics unless `owner` is the token this
    /// cell was made for, the calling thread holds it, and the cell is
    /// not already open further up the stack.
    #[inline(always)]
    pub fn with<R>(&self, owner: &Owner, f: impl FnOnce(&mut T) -> R) -> R {
        let holds = owner.id == self.owner && owner.held_by_current_thread();
        // `borrowed` is read only once `holds` is known: a thread
        // without the token must not touch the non-atomic flag.
        if !holds || self.borrowed.get() {
            self.refuse(owner, holds);
        }
        self.borrowed.set(true);
        let _open = Borrow(&self.borrowed);
        #[cfg(debug_assertions)]
        parking_lot::census::note_opening();
        // SAFETY: the calling thread holds the token of this cell's
        // owner (checked above; see the `Sync` impl for why that makes
        // it the only thread here), and `borrowed` was clear, so no
        // other `&mut T` from this cell is live on this thread either.
        // The flag is set for exactly as long as the reference lives.
        f(unsafe { &mut *self.value.get() })
    }

    #[cold]
    #[inline(never)]
    fn refuse(&self, owner: &Owner, holds: bool) -> ! {
        if owner.id != self.owner {
            panic!("owner-only state opened with another PE's run token");
        }
        if !holds {
            panic!(
                "owner-only state touched by a thread that does not hold its PE's run token \
                 (PE state and thread objects are PE-local: use them from the PE's own contexts)"
            );
        }
        panic!("owner-only state opened re-entrantly (a closure passed to `with` reached the same cell again)");
    }
}

/// A value that never leaves the OS thread it was wrapped on (it need
/// not be `Send`), inside state that may: [`Pinned::get_mut`] is the
/// only way to it and panics on any other thread, and a drop on another
/// thread leaks the value instead of running its destructor there.
pub struct Pinned<T> {
    /// Key of the only thread that may reach or drop the value.
    thread: u64,
    value: ManuallyDrop<T>,
}

// SAFETY: the `T` is reached in two places — `get_mut` and `drop` — and
// in both only after the wrapper found itself on the thread that wrapped
// the value; a shared reference reaches nothing. Sending the wrapper
// moves no access to the `T` across threads.
unsafe impl<T> Send for Pinned<T> {}

impl<T> Pinned<T> {
    /// `value`, pinned to the calling thread.
    pub fn new(value: T) -> Pinned<T> {
        Pinned {
            thread: thread_key(),
            value: ManuallyDrop::new(value),
        }
    }

    /// The value. Panics when called on any thread but the one it is
    /// pinned to.
    #[inline(always)]
    pub fn get_mut(&mut self) -> &mut T {
        assert!(
            self.thread == thread_key(),
            "owner-only state pinned to one OS thread opened on another"
        );
        &mut self.value
    }
}

impl<T> Drop for Pinned<T> {
    fn drop(&mut self) {
        if self.thread == thread_key() {
            // SAFETY: `&mut self` is exclusive, the value is not used
            // after this, and we are on the thread it is pinned to.
            unsafe { ManuallyDrop::drop(&mut self.value) };
        } else {
            // Running a non-`Send` destructor here would be the unsound
            // alternative; say what the leak is so it can be found.
            eprintln!(
                "converse: {} dropped off the thread it is pinned to; its content is leaked \
                 (drop the last handle to a PE on that PE's own thread)",
                std::any::type_name::<T>()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_opens_and_nested_distinct_cells_are_fine() {
        let owner = Owner::new();
        let a = OwnerCell::new(&owner, 1u32);
        let b = OwnerCell::new(&owner, vec![1u8]);
        let sum = a.with(&owner, |x| {
            *x += 1;
            b.with(&owner, |v| {
                v.push(2);
                *x as usize + v.len()
            })
        });
        assert_eq!(sum, 4);
    }

    #[test]
    fn borrow_flag_clears_after_an_unwinding_closure() {
        let owner = Owner::new();
        let c = OwnerCell::new(&owner, 0u32);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.with(&owner, |_| panic!("inside"))
        }));
        assert!(r.is_err());
        assert_eq!(c.with(&owner, |x| *x), 0);
    }

    #[test]
    fn pinned_content_opens_on_its_own_thread_only() {
        let mut pinned = Pinned::new(std::rc::Rc::new(7));
        assert_eq!(**pinned.get_mut(), 7);
        let refused = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| **pinned.get_mut())).is_err()
        });
        assert!(refused.join().expect("the panic was caught"));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn census_counts_this_threads_openings() {
        let owner = Owner::new();
        let (a, b) = (OwnerCell::new(&owner, 0u32), OwnerCell::new(&owner, 0u32));
        let before = parking_lot::census::openings();
        a.with(&owner, |x| b.with(&owner, |y| *x += *y));
        a.with(&owner, |x| *x += 1);
        assert_eq!(parking_lot::census::openings() - before, 3);
    }

    #[test]
    fn pinned_content_is_leaked_not_dropped_on_a_foreign_thread() {
        struct NoteDrop(std::sync::Arc<std::sync::atomic::AtomicBool>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pinned = Pinned::new(NoteDrop(dropped.clone()));
        std::thread::spawn(move || drop(pinned))
            .join()
            .expect("dropping elsewhere does not panic");
        assert!(!dropped.load(Ordering::SeqCst));
        let here = Pinned::new(NoteDrop(dropped.clone()));
        drop(here);
        assert!(dropped.load(Ordering::SeqCst));
    }
}
