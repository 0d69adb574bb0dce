//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment for this repository has no access to
//! crates.io, so the handful of `parking_lot` APIs the workspace uses
//! are re-implemented here over `std::sync`. Semantics match what the
//! callers rely on:
//!
//! * locks are **not poisoned** by panics (a panicking PE must not turn
//!   every later `lock()` into a second panic during teardown);
//! * `lock()` / `read()` / `write()` return guards directly, with no
//!   `Result` to unwrap;
//! * [`Condvar`] waits take the guard by `&mut` and the timed variants
//!   return a [`WaitTimeoutResult`] answering `timed_out()`;
//! * [`Condvar::notify_one`] / [`Condvar::notify_all`] with no thread
//!   inside a `wait*` return without entering the kernel, as
//!   parking_lot's do — `std::sync::Condvar` issues a `FUTEX_WAKE`
//!   unconditionally, and every notify site in the workspace was written
//!   against parking_lot's "free when nobody waits" cost.
//!
//! Only the surface the workspace actually calls is provided; the locks
//! and the parking itself are std's, not parking_lot's futex machinery.
//!
//! One addition parking_lot does not have: in builds with
//! `debug_assertions`, every [`Mutex`] / [`RwLock`] acquisition is
//! counted in a thread-local, read with [`lock_census`]. Tests pin the
//! number of lock pairs a message costs with it, the way a counting
//! allocator pins allocations. Release builds contain none of it.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
thread_local! {
    static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one acquisition by the calling thread (debug builds only).
#[inline(always)]
fn note_acquisition() {
    #[cfg(debug_assertions)]
    ACQUISITIONS.with(|c| c.set(c.get() + 1));
}

/// Lock acquisitions ([`Mutex::lock`], a successful
/// [`Mutex::try_lock`], [`RwLock::read`], [`RwLock::write`]) the calling
/// thread has made so far. Exists in builds with `debug_assertions`
/// only.
#[cfg(debug_assertions)]
pub fn lock_census() -> u64 {
    ACQUISITIONS.with(|c| c.get())
}

/// A mutual-exclusion primitive (non-poisoning `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `t`.
    pub const fn new(t: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Panics in other
    /// threads do not poison the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        note_acquisition();
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        note_acquisition();
        Some(MutexGuard { inner })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// A reader-writer lock (non-poisoning `std::sync::RwLock`).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new rwlock protecting `t`.
    pub const fn new(t: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(t),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        note_acquisition();
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        note_acquisition();
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`].
///
/// Unlike `std::sync::Condvar`, the parking_lot API mutates the guard
/// in place instead of consuming and returning it; this shim does the
/// same by briefly moving the inner std guard.
///
/// `waiters` counts the threads inside a `wait*` call. A waiter bumps it
/// while it still holds the caller's mutex and drops it after the std
/// wait has re-acquired that mutex, so a notifier that changed the
/// waited-for state under the same mutex (the only use a condvar
/// supports) either sees the count, or ran before the waiter's own
/// check of that state. `SeqCst` on both sides keeps a notifier that
/// signals *after* unlocking ordered against the bump as well.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        replace_guard(guard, |g| {
            self.inner.wait(g).unwrap_or_else(|e| e.into_inner())
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let mut timed_out = false;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        replace_guard(guard, |g| {
            let (g, r) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(|e| e.into_inner());
            timed_out = r.timed_out();
            g
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        WaitTimeoutResult(timed_out)
    }

    /// Block until notified or the `deadline` instant passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult(true);
        }
        self.wait_for(guard, deadline - now)
    }

    /// Wake one waiter; no syscall when no thread is waiting.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters; no syscall when no thread is waiting.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }

    /// Threads currently inside a `wait*` call.
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }
}

/// Run `f` on the std guard inside `guard`, replacing it with the guard
/// `f` returns. The guard is moved out and back with raw reads/writes;
/// if `f` unwound mid-swap the shim guard would hold a moved-from value
/// whose drop is a double unlock, so unwinding here aborts the process
/// instead (it cannot happen on the non-poisoning paths we call).
fn replace_guard<'a, T: ?Sized>(
    guard: &mut MutexGuard<'a, T>,
    f: impl FnOnce(std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T>,
) {
    struct AbortOnUnwind;
    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    unsafe {
        let inner = std::ptr::read(&guard.inner);
        let bomb = AbortOnUnwind;
        let new_inner = f(inner);
        std::mem::forget(bomb);
        std::ptr::write(&mut guard.inner, new_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[cfg(debug_assertions)]
    fn census_counts_this_threads_acquisitions() {
        let m = Mutex::new(0);
        let l = RwLock::new(0);
        let before = lock_census();
        *m.lock() += 1;
        let held = m.lock();
        assert!(m.try_lock().is_none(), "contended try_lock is not counted");
        drop(held);
        assert!(m.try_lock().is_some());
        let _ = *l.read();
        *l.write() += 1;
        std::thread::scope(|s| {
            s.spawn(|| *m.lock() += 1);
        });
        assert_eq!(
            lock_census() - before,
            5,
            "another thread's lock is its own"
        );
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_unpoisoned_after_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0); // still lockable
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(20));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_wait_for_wakes() {
        let pair = Arc::new((Mutex::new(0), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while *g == 0 {
                let r = cv.wait_for(&mut g, Duration::from_secs(5));
                assert!(!r.timed_out());
            }
            *g
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = 7;
        pair.1.notify_one();
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn notify_without_waiter_is_a_no_op() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.waiters(), 0);
        // A notification is not stored: a later wait still times out,
        // and the count is back to zero after it.
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert_eq!(cv.waiters(), 0);
    }

    /// The state change is made under the mutex and the notify is sent
    /// after unlocking — the shape every workspace call site has. On odd
    /// rounds the waiter's 50 µs waits keep expiring, so notifies land
    /// while it is between two waits (count 0, skipped) or entering one;
    /// on even rounds the wait is long enough that only a notify ends it
    /// in time, so a skipped wake that was needed fails the test.
    #[test]
    fn notify_racing_a_timed_wait_is_never_lost() {
        const ROUNDS: u64 = 4_000;
        const LONG: Duration = Duration::from_secs(30);
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let p2 = pair.clone();
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            for want in 1..=ROUNDS {
                let slice = if want % 2 == 1 {
                    Duration::from_micros(50)
                } else {
                    LONG
                };
                let mut g = m.lock();
                while *g != want {
                    let r = cv.wait_for(&mut g, slice);
                    assert!(!(slice == LONG && r.timed_out()), "lost wakeup");
                }
                // Hand the turn back: the notifier waits for the ack.
                *g = want + ROUNDS;
                drop(g);
                cv.notify_one();
            }
        });
        let (m, cv) = &*pair;
        for turn in 1..=ROUNDS {
            *m.lock() = turn;
            cv.notify_one();
            let mut g = m.lock();
            while *g != turn + ROUNDS {
                assert!(!cv.wait_for(&mut g, LONG).timed_out(), "lost wakeup");
            }
        }
        waiter.join().unwrap();
        assert_eq!(cv.waiters(), 0);
    }

    #[test]
    fn notify_all_wakes_two_waiters() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let spawn_waiter = || {
            let p = pair.clone();
            std::thread::spawn(move || {
                let (m, cv) = &*p;
                let mut g = m.lock();
                while !*g {
                    cv.wait(&mut g);
                }
            })
        };
        let (a, b) = (spawn_waiter(), spawn_waiter());
        // Both are inside `wait` (count bumped under the mutex) before
        // the one notify_all is sent.
        while pair.1.waiters() < 2 {
            std::thread::yield_now();
        }
        *pair.0.lock() = true;
        pair.1.notify_all();
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(pair.1.waiters(), 0);
    }
}
