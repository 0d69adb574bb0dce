//! Cts synchronization mechanisms for Converse threads (paper §3.2.3,
//! appendix §6): locks, condition variables, and barriers.
//!
//! "Locks are implemented by having queues attached to each lock. …
//! A thread which releases the lock causes the shifting of ownership of
//! the lock to the first thread in this queue and awakens this thread."
//! That queue-of-suspended-threads structure is implemented literally
//! here on top of the thread object's suspend/awaken primitives, so a
//! lock's hand-off respects each waiting thread's scheduling strategy
//! (ready pool or Csd scheduler).
//!
//! These primitives synchronize the cooperative threads of **one PE** —
//! Converse threads never migrate — so there is never true contention:
//! a primitive's queue is owner-only state of the PE it was made on (an
//! `OwnerCell` of that PE's run token), opened by whichever of the PE's
//! contexts runs, never held across a suspend or an awaken. Using a
//! primitive from another PE panics.

use converse_machine::{OwnerCell, Pe};
use converse_threads::{cth_awaken, cth_self, cth_suspend, Thread};
use std::collections::VecDeque;
use std::sync::Arc;

/// Identity of a lock-owning context: a thread id, or 0 for the PE's
/// main context (which may hold uncontended locks but cannot block).
fn ctx_id(me: &Option<Thread>) -> u64 {
    me.as_ref().map_or(0, Thread::id)
}

fn main_context_cannot_block(pe: &Pe) -> ! {
    panic!(
        "PE {}: the main context would block on a Cts primitive — only \
         thread objects may wait (create one with cth_create)",
        pe.my_pe()
    )
}

/// Error returned by [`CtsLock::unlock`] when the caller is not the
/// owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOwner {
    /// Context that attempted the unlock.
    pub caller: u64,
    /// Actual owner, if any.
    pub owner: Option<u64>,
}

struct LockInner {
    owner: Option<u64>,
    waiters: VecDeque<Thread>,
}

/// A queued mutual-exclusion lock (`LOCK`, `CtsNewLock`).
pub struct CtsLock {
    inner: OwnerCell<LockInner>,
}

impl CtsLock {
    /// Allocate a new lock of `pe`'s threads (`CtsNewLock`).
    pub fn new(pe: &Pe) -> Arc<CtsLock> {
        let inner = LockInner {
            owner: None,
            waiters: VecDeque::new(),
        };
        Arc::new(CtsLock {
            inner: OwnerCell::new(pe.owner(), inner),
        })
    }

    /// Non-blocking acquisition attempt (`CtsTryLock`): true on success.
    pub fn try_lock(&self, pe: &Pe) -> bool {
        let me = ctx_id(&cth_self(pe));
        self.inner.with(pe.owner(), |l| {
            let free = l.owner.is_none();
            if free {
                l.owner = Some(me);
            }
            free
        })
    }

    /// Acquire the lock (`CtsLock`), suspending the calling thread if it
    /// is taken. Waiters receive the lock strictly in arrival order.
    pub fn lock(&self, pe: &Pe) {
        let caller = cth_self(pe);
        let me = ctx_id(&caller);
        let queued = self.inner.with(pe.owner(), |l| {
            if l.owner.is_none() {
                l.owner = Some(me);
                return false;
            }
            assert_ne!(l.owner, Some(me), "PE {}: recursive Cts lock", pe.my_pe());
            l.waiters
                .push_back(caller.unwrap_or_else(|| main_context_cannot_block(pe)));
            true
        });
        // Queued once: `unlock` hands ownership over and awakens us. A
        // custom strategy may resume us early; we are still queued then,
        // so we only suspend again.
        while queued && self.inner.with(pe.owner(), |l| l.owner) != Some(me) {
            cth_suspend(pe);
        }
    }

    /// Release the lock (`CtsUnLock`): ownership shifts to the first
    /// queued waiter, which is awakened.
    pub fn unlock(&self, pe: &Pe) -> Result<(), NotOwner> {
        let me = ctx_id(&cth_self(pe));
        let next = self.inner.with(pe.owner(), |l| {
            if l.owner != Some(me) {
                return Err(NotOwner {
                    caller: me,
                    owner: l.owner,
                });
            }
            let next = l.waiters.pop_front();
            l.owner = next.as_ref().map(Thread::id);
            Ok(next)
        })?;
        if let Some(t) = next {
            cth_awaken(pe, &t);
        }
        Ok(())
    }

    /// The owning context id, if locked.
    pub fn owner(&self, pe: &Pe) -> Option<u64> {
        self.inner.with(pe.owner(), |l| l.owner)
    }

    /// Number of threads queued on the lock.
    pub fn waiters(&self, pe: &Pe) -> usize {
        self.inner.with(pe.owner(), |l| l.waiters.len())
    }
}

/// A condition variable (`CONDN`): threads [`CtsCondn::wait`];
/// [`CtsCondn::signal`] releases one, [`CtsCondn::broadcast`] all.
pub struct CtsCondn {
    waiters: OwnerCell<VecDeque<Thread>>,
}

impl CtsCondn {
    /// Allocate a new condition variable of `pe`'s threads
    /// (`CtsNewCondn`).
    pub fn new(pe: &Pe) -> Arc<CtsCondn> {
        Arc::new(CtsCondn {
            waiters: OwnerCell::new(pe.owner(), VecDeque::new()),
        })
    }

    /// Re-initialize, awakening all current waiters (`CtsCondnInit`).
    pub fn reinit(&self, pe: &Pe) {
        self.broadcast(pe);
    }

    /// Suspend the calling thread until signalled (`CtsCondnWait`).
    pub fn wait(&self, pe: &Pe) {
        let me = cth_self(pe).unwrap_or_else(|| main_context_cannot_block(pe));
        self.waiters.with(pe.owner(), |w| w.push_back(me));
        cth_suspend(pe);
    }

    /// Awaken one waiting thread, in arrival order (`CtsCondnSignal`).
    /// Returns true if a thread was released.
    pub fn signal(&self, pe: &Pe) -> bool {
        let t = self.waiters.with(pe.owner(), VecDeque::pop_front);
        if let Some(t) = &t {
            cth_awaken(pe, t);
        }
        t.is_some()
    }

    /// Awaken every waiting thread (`CtsCondnBroadcast`). Returns the
    /// number released.
    pub fn broadcast(&self, pe: &Pe) -> usize {
        let ts = self.waiters.with(pe.owner(), std::mem::take);
        for t in &ts {
            cth_awaken(pe, t);
        }
        ts.len()
    }

    /// Number of threads currently waiting.
    pub fn waiters(&self, pe: &Pe) -> usize {
        self.waiters.with(pe.owner(), |w| w.len())
    }
}

struct BarrierInner {
    needed: usize,
    arrived: usize,
    waiters: VecDeque<Thread>,
}

/// A thread barrier (`BARRIER`): "a condition variable whose k-th wait
/// is a broadcast" — the k-th arrival releases everyone.
pub struct CtsBarrier {
    inner: OwnerCell<BarrierInner>,
}

impl CtsBarrier {
    /// Allocate a barrier of `pe`'s threads awaiting `num` of them
    /// (`CtsNewBarrier` + `CtsBarrierReinit`).
    pub fn new(pe: &Pe, num: usize) -> Arc<CtsBarrier> {
        assert!(num > 0, "a barrier needs at least one participant");
        let inner = BarrierInner {
            needed: num,
            arrived: 0,
            waiters: VecDeque::new(),
        };
        Arc::new(CtsBarrier {
            inner: OwnerCell::new(pe.owner(), inner),
        })
    }

    /// Re-initialize (`CtsBarrierReinit`): free any threads currently
    /// waiting, then await the arrival of `num` threads.
    pub fn reinit(&self, pe: &Pe, num: usize) {
        assert!(num > 0, "a barrier needs at least one participant");
        let ts = self.inner.with(pe.owner(), |b| {
            b.needed = num;
            b.arrived = 0;
            std::mem::take(&mut b.waiters)
        });
        for t in &ts {
            cth_awaken(pe, t);
        }
    }

    /// Arrive at the barrier (`CtsAtBarrier`): blocks all but the last of
    /// the `num` participating threads, whose arrival awakens them all.
    pub fn at_barrier(&self, pe: &Pe) {
        let me = cth_self(pe);
        let release = self.inner.with(pe.owner(), |b| {
            b.arrived += 1;
            if b.arrived >= b.needed {
                b.arrived = 0;
                return Some(std::mem::take(&mut b.waiters));
            }
            b.waiters
                .push_back(me.unwrap_or_else(|| main_context_cannot_block(pe)));
            None
        });
        match release {
            Some(ts) => {
                for t in &ts {
                    cth_awaken(pe, t);
                }
            }
            None => cth_suspend(pe),
        }
    }

    /// Threads currently blocked at the barrier.
    pub fn waiting(&self, pe: &Pe) -> usize {
        self.inner.with(pe.owner(), |b| b.waiters.len())
    }
}
