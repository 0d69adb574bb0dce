//! Lock/condition-variable/barrier semantics among cooperative threads.
//!
//! Every semantic test runs on **each available thread backend** (fiber
//! and hand-off) via [`run_on_each_backend`]: the synchronization layer
//! sits purely on the `cth_*` API and must not notice the mechanism.

use converse_core::{csd_scheduler_until_idle, run};
use converse_sync::{CtsBarrier, CtsCondn, CtsLock};
use converse_threads::{
    cth_awaken, cth_create, cth_resume, cth_suspend, run_on_each_backend, CthRuntime,
};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn trylock_and_unlock_from_main_context() {
    run_on_each_backend(1, |pe| {
        let lock = CtsLock::new(pe);
        assert!(lock.try_lock(pe));
        assert_eq!(lock.owner(pe), Some(0), "main context is owner 0");
        assert!(!lock.try_lock(pe), "already held");
        lock.unlock(pe).unwrap();
        assert_eq!(lock.owner(pe), None);
    });
}

#[test]
fn unlock_by_non_owner_is_error() {
    run_on_each_backend(1, |pe| {
        let lock = CtsLock::new(pe);
        let err = lock.unlock(pe).unwrap_err();
        assert_eq!(err.owner, None);
        lock.try_lock(pe);
        let l2 = lock.clone();
        let t = cth_create(pe, move |pe| {
            let err = l2.unlock(pe).unwrap_err();
            assert_eq!(err.owner, Some(0));
            assert_ne!(err.caller, 0);
        });
        cth_resume(pe, &t);
        lock.unlock(pe).unwrap();
    });
}

#[test]
fn contended_lock_hands_off_in_arrival_order() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let lock = CtsLock::new(pe);
        let log = Arc::new(Mutex::new(Vec::<u32>::new()));
        // A holder thread takes the lock, then three threads queue up.
        let l0 = lock.clone();
        let g0 = log.clone();
        rt.spawn_scheduled(pe, move |pe| {
            l0.lock(pe);
            g0.lock().push(100);
            // Yield so the waiters enqueue while we hold the lock.
            converse_threads::cth_yield(pe);
            g0.lock().push(101);
            l0.unlock(pe).unwrap();
        });
        for i in 0..3u32 {
            let li = lock.clone();
            let gi = log.clone();
            rt.spawn_scheduled(pe, move |pe| {
                li.lock(pe);
                gi.lock().push(i);
                li.unlock(pe).unwrap();
            });
        }
        csd_scheduler_until_idle(pe);
        assert_eq!(*log.lock(), vec![100, 101, 0, 1, 2]);
        assert_eq!(lock.owner(pe), None);
        assert_eq!(lock.waiters(pe), 0);
    });
}

#[test]
fn lock_critical_section_is_exclusive() {
    // Threads increment a naive counter with deliberate yields inside
    // the critical section; the lock must serialize them.
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let lock = CtsLock::new(pe);
        let counter = Arc::new(Mutex::new(0u64));
        for _ in 0..8 {
            let l = lock.clone();
            let c = counter.clone();
            rt.spawn_scheduled(pe, move |pe| {
                for _ in 0..5 {
                    l.lock(pe);
                    let v = *c.lock();
                    converse_threads::cth_yield(pe); // interleave!
                    *c.lock() = v + 1;
                    l.unlock(pe).unwrap();
                }
            });
        }
        csd_scheduler_until_idle(pe);
        assert_eq!(*counter.lock(), 40, "lost updates without mutual exclusion");
    });
}

#[test]
fn condn_signal_releases_in_order() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let cv = CtsCondn::new(pe);
        let log = Arc::new(Mutex::new(Vec::<u32>::new()));
        for i in 0..3u32 {
            let cv2 = cv.clone();
            let g = log.clone();
            rt.spawn_scheduled(pe, move |pe| {
                cv2.wait(pe);
                g.lock().push(i);
            });
        }
        // Run the threads up to their wait.
        csd_scheduler_until_idle(pe);
        assert_eq!(cv.waiters(pe), 3);
        assert!(log.lock().is_empty());
        assert!(cv.signal(pe));
        csd_scheduler_until_idle(pe);
        assert_eq!(*log.lock(), vec![0]);
        assert_eq!(cv.broadcast(pe), 2);
        csd_scheduler_until_idle(pe);
        assert_eq!(*log.lock(), vec![0, 1, 2]);
        assert!(!cv.signal(pe), "no waiters left");
    });
}

#[test]
fn condn_reinit_awakens_everyone() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let cv = CtsCondn::new(pe);
        let released = Arc::new(Mutex::new(0u32));
        for _ in 0..4 {
            let cv2 = cv.clone();
            let r = released.clone();
            rt.spawn_scheduled(pe, move |pe| {
                cv2.wait(pe);
                *r.lock() += 1;
            });
        }
        csd_scheduler_until_idle(pe);
        cv.reinit(pe);
        csd_scheduler_until_idle(pe);
        assert_eq!(*released.lock(), 4);
    });
}

#[test]
fn barrier_kth_wait_broadcasts() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let bar = CtsBarrier::new(pe, 4);
        let log = Arc::new(Mutex::new(Vec::<(u32, &'static str)>::new()));
        for i in 0..4u32 {
            let b = bar.clone();
            let g = log.clone();
            rt.spawn_scheduled(pe, move |pe| {
                g.lock().push((i, "before"));
                b.at_barrier(pe);
                g.lock().push((i, "after"));
            });
        }
        csd_scheduler_until_idle(pe);
        let log = log.lock();
        let first_after = log.iter().position(|(_, s)| *s == "after").unwrap();
        let befores = log
            .iter()
            .take(first_after)
            .filter(|(_, s)| *s == "before")
            .count();
        assert_eq!(befores, 4, "every before precedes every after");
        assert_eq!(log.len(), 8);
        assert_eq!(bar.waiting(pe), 0);
    });
}

#[test]
fn barrier_is_reusable_across_phases() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let bar = CtsBarrier::new(pe, 3);
        let phase_log = Arc::new(Mutex::new(Vec::<(u32, u32)>::new()));
        for i in 0..3u32 {
            let b = bar.clone();
            let g = phase_log.clone();
            rt.spawn_scheduled(pe, move |pe| {
                for phase in 0..3u32 {
                    g.lock().push((phase, i));
                    b.at_barrier(pe);
                }
            });
        }
        csd_scheduler_until_idle(pe);
        let log = phase_log.lock();
        assert_eq!(log.len(), 9);
        // Phases never interleave: all of phase p precede all of p+1.
        for w in 0..log.len() - 1 {
            assert!(
                log[w].0 <= log[w + 1].0,
                "phase regression at {w}: {:?}",
                *log
            );
        }
    });
}

#[test]
fn barrier_reinit_frees_waiters() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let bar = CtsBarrier::new(pe, 10); // more than will ever arrive
        let freed = Arc::new(Mutex::new(0u32));
        for _ in 0..2 {
            let b = bar.clone();
            let f = freed.clone();
            rt.spawn_scheduled(pe, move |pe| {
                b.at_barrier(pe);
                *f.lock() += 1;
            });
        }
        csd_scheduler_until_idle(pe);
        assert_eq!(bar.waiting(pe), 2);
        bar.reinit(pe, 3);
        csd_scheduler_until_idle(pe);
        assert_eq!(*freed.lock(), 2);
        assert_eq!(bar.waiting(pe), 0);
    });
}

#[test]
fn main_context_blocking_panics_with_guidance() {
    let result = std::panic::catch_unwind(|| {
        run(1, |pe| {
            let cv = CtsCondn::new(pe);
            cv.wait(pe); // main context cannot block
        });
    });
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("main context"), "got: {msg}");
}

#[test]
fn producer_consumer_with_lock_and_condn() {
    // The classic pattern: bounded buffer with a lock + two condvars.
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let lock = CtsLock::new(pe);
        let not_empty = CtsCondn::new(pe);
        let not_full = CtsCondn::new(pe);
        let buf: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let consumed: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        const CAP: usize = 4;
        const N: u32 = 20;

        let (l1, ne1, nf1, b1) = (
            lock.clone(),
            not_empty.clone(),
            not_full.clone(),
            buf.clone(),
        );
        rt.spawn_scheduled(pe, move |pe| {
            for i in 0..N {
                l1.lock(pe);
                while b1.lock().len() >= CAP {
                    l1.unlock(pe).unwrap();
                    nf1.wait(pe);
                    l1.lock(pe);
                }
                b1.lock().push(i);
                ne1.signal(pe);
                l1.unlock(pe).unwrap();
                converse_threads::cth_yield(pe);
            }
        });
        let (l2, ne2, nf2, b2, c2) = (
            lock.clone(),
            not_empty.clone(),
            not_full.clone(),
            buf.clone(),
            consumed.clone(),
        );
        rt.spawn_scheduled(pe, move |pe| {
            for _ in 0..N {
                l2.lock(pe);
                while b2.lock().is_empty() {
                    l2.unlock(pe).unwrap();
                    ne2.wait(pe);
                    l2.lock(pe);
                }
                let v = b2.lock().remove(0);
                c2.lock().push(v);
                nf2.signal(pe);
                l2.unlock(pe).unwrap();
            }
        });
        csd_scheduler_until_idle(pe);
        assert_eq!(*consumed.lock(), (0..N).collect::<Vec<_>>());
        assert!(buf.lock().is_empty());
    });
}

#[test]
fn lock_waiter_awakened_through_ready_pool_strategy() {
    // Default-strategy threads (manual resume, ready pool) also work
    // with the lock's hand-off.
    run_on_each_backend(1, |pe| {
        let lock = CtsLock::new(pe);
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        let (la, ga) = (lock.clone(), log.clone());
        let ta = cth_create(pe, move |pe| {
            la.lock(pe);
            ga.lock().push(b'a');
            converse_threads::cth_yield(pe);
            la.unlock(pe).unwrap();
            ga.lock().push(b'A');
        });
        let (lb, gb) = (lock.clone(), log.clone());
        let tb = cth_create(pe, move |pe| {
            lb.lock(pe);
            gb.lock().push(b'b');
            lb.unlock(pe).unwrap();
        });
        cth_awaken(pe, &tb);
        cth_resume(pe, &ta);
        // a takes the lock and yields; b queues on the lock; a unlocks
        // (handing ownership to b), logs 'A' and exits; b then runs.
        assert_eq!(*log.lock(), vec![b'a', b'A', b'b']);
    });
}

#[test]
fn a_waiter_resumed_early_stays_queued_once() {
    // A custom strategy (here: the main context) may resume a lock
    // waiter before its turn. It must wait again without queueing a
    // second time: a stale second entry would hand the lock, on the
    // waiter's own unlock, to a thread about to exit.
    run_on_each_backend(1, |pe| {
        let lock = CtsLock::new(pe);
        let la = lock.clone();
        let a = cth_create(pe, move |pe| {
            la.lock(pe);
            cth_suspend(pe);
            la.unlock(pe).unwrap();
        });
        let lb = lock.clone();
        let b = cth_create(pe, move |pe| {
            lb.lock(pe);
            lb.unlock(pe).unwrap();
        });
        cth_resume(pe, &a); // a takes the lock and suspends
        cth_resume(pe, &b); // b queues
        assert_eq!(lock.waiters(pe), 1);
        cth_resume(pe, &b); // early: b is not the owner yet
        assert_eq!(
            lock.waiters(pe),
            1,
            "an early resume queued the waiter again"
        );
        // a unlocks (handing over to b) and exits; b runs, unlocks, exits.
        cth_resume(pe, &a);
        assert!(a.is_exited() && b.is_exited());
        assert_eq!((lock.owner(pe), lock.waiters(pe)), (None, 0));
        assert!(lock.try_lock(pe), "the lock is free again");
    });
}
