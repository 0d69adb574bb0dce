//! Thread-object semantics: suspend/resume, yield, strategies, scheduler
//! integration, and teardown of never-finished threads.
//!
//! Every semantic test runs on **each available backend** (fiber and
//! hand-off) via [`run_on_each_backend`] — the API contract is
//! backend-independent; only the constants differ.

use converse_core::{
    csd_enqueue, csd_exit_scheduler, csd_scheduler, run, run_with, MachineConfig, Message,
};
use converse_msg::Priority;
use converse_threads::{
    cth_awaken, cth_create, cth_create_of_size, cth_exit, cth_resume, cth_self, cth_set_strategy,
    cth_suspend, cth_yield, run_on_each_backend, CthBackend, CthRuntime, Strategy, Thread,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn resume_runs_thread_to_completion() {
    run_on_each_backend(1, |pe| {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        let t = cth_create(pe, move |_pe| {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(!t.is_exited());
        cth_resume(pe, &t);
        // Thread ran and exited; control returned to the main context.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(t.is_exited());
    });
}

#[test]
fn suspend_returns_to_main_then_resume_continues() {
    run_on_each_backend(1, |pe| {
        let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let l2 = log.clone();
        let t = cth_create(pe, move |pe| {
            l2.lock().push("first half");
            cth_suspend(pe);
            l2.lock().push("second half");
        });
        cth_resume(pe, &t);
        log.lock().push("main between");
        cth_resume(pe, &t);
        assert_eq!(
            *log.lock(),
            vec!["first half", "main between", "second half"]
        );
        assert!(t.is_exited());
    });
}

#[test]
fn self_identifies_contexts() {
    run_on_each_backend(1, |pe| {
        assert!(cth_self(pe).is_none(), "main context has no thread self");
        let observed = Arc::new(Mutex::new(None));
        let o2 = observed.clone();
        let t = cth_create(pe, move |pe| {
            *o2.lock() = cth_self(pe).map(|t| t.id());
        });
        let tid = t.id();
        cth_resume(pe, &t);
        assert_eq!(*observed.lock(), Some(tid));
        assert!(cth_self(pe).is_none());
    });
}

#[test]
fn yield_rotates_between_two_threads() {
    // Two threads alternately yield; the default FIFO ready pool must
    // interleave them strictly.
    run_on_each_backend(1, |pe| {
        let log: Arc<Mutex<Vec<(u8, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let mk = |tag: u8, log: Arc<Mutex<Vec<(u8, u32)>>>| {
            move |pe: &converse_core::Pe| {
                for i in 0..3u32 {
                    log.lock().push((tag, i));
                    cth_yield(pe);
                }
            }
        };
        let ta = cth_create(pe, mk(b'a', log.clone()));
        let tb = cth_create(pe, mk(b'b', log.clone()));
        // Seed: awaken both, then hand control to A; when A first yields,
        // the pool holds [B, A], so they alternate.
        cth_awaken(pe, &tb);
        cth_resume(pe, &ta);
        // After A's first yield B runs, etc. When both exit, control
        // returns here (exit pops the pool; the last exit falls to main).
        assert!(ta.is_exited() && tb.is_exited());
        let expect = vec![
            (b'a', 0),
            (b'b', 0),
            (b'a', 1),
            (b'b', 1),
            (b'a', 2),
            (b'b', 2),
        ];
        assert_eq!(*log.lock(), expect);
    });
}

#[test]
fn exit_transfers_to_next_ready_thread() {
    run_on_each_backend(1, |pe| {
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        let t1 = cth_create(pe, move |_pe| l1.lock().push(1));
        let t2 = cth_create(pe, move |_pe| l2.lock().push(2));
        cth_awaken(pe, &t2); // pool: [t2]
        cth_resume(pe, &t1); // t1 runs, exits → pool pops t2 → t2 runs, exits → main
        assert_eq!(*log.lock(), vec![1, 2]);
        assert!(t1.is_exited() && t2.is_exited());
    });
}

#[test]
fn explicit_exit_unwinds_the_thread_and_transfers_control() {
    // `CthExit` mid-function: the rest of the body never runs, the
    // stack's destructors do, and control moves on as on a return.
    run_on_each_backend(1, |pe| {
        struct Dropped(Arc<AtomicU64>);
        impl Drop for Dropped {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (drops, after) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (d2, a2) = (drops.clone(), after.clone());
        let t1 = cth_create(pe, move |pe| {
            let _guard = Dropped(d2);
            cth_exit(pe);
        });
        let t2 = cth_create(pe, move |_pe| {
            a2.fetch_add(1, Ordering::SeqCst);
        });
        cth_awaken(pe, &t2);
        cth_resume(pe, &t1);
        assert!(t1.is_exited() && t2.is_exited());
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "the exit unwound t1's stack"
        );
        assert_eq!(
            after.load(Ordering::SeqCst),
            1,
            "the ready pool ran t2 next"
        );
    });
}

#[test]
fn custom_strategy_lifo_scheduling() {
    // Override awaken/suspend to use a LIFO stack per the paper: "you may
    // alter the way CthAwaken and CthSuspend work together … only the
    // order of selection should be altered."
    run_on_each_backend(1, |pe| {
        let stack: Arc<Mutex<Vec<converse_threads::Thread>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        let mk = |tag: u8, log: Arc<Mutex<Vec<u8>>>| {
            move |_pe: &converse_core::Pe| {
                log.lock().push(tag);
            }
        };
        let driver_log = log.clone();
        let ts: Vec<_> = (0..3u8)
            .map(|i| cth_create(pe, mk(i, log.clone())))
            .collect();
        for t in &ts {
            let st = stack.clone();
            let st2 = stack.clone();
            cth_set_strategy(
                pe,
                t,
                Strategy::Custom {
                    awaken: Box::new(move |_pe, t| st.lock().push(t)),
                    suspend: Box::new(move |_pe| st2.lock().pop()),
                },
            );
        }
        // A driver thread with the same LIFO strategy: its exit pops the
        // stack, so awakening order 0,1,2 must run 2,1,0.
        let st3 = stack.clone();
        let driver = cth_create(pe, move |_pe| {
            driver_log.lock().push(99);
        });
        cth_set_strategy(
            pe,
            &driver,
            Strategy::Custom {
                awaken: Box::new(|_pe, _t| unreachable!("driver is resumed directly")),
                suspend: Box::new(move |_pe| st3.lock().pop()),
            },
        );
        for t in &ts {
            cth_awaken(pe, t);
        }
        cth_resume(pe, &driver);
        assert_eq!(*log.lock(), vec![99, 2, 1, 0]);
    });
}

#[test]
fn csd_strategy_threads_run_via_scheduler() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let log = Arc::new(Mutex::new(Vec::<u32>::new()));
        for i in 0..4u32 {
            let l = log.clone();
            rt.spawn_scheduled(pe, move |_pe| {
                l.lock().push(i);
            });
        }
        assert!(log.lock().is_empty(), "threads wait for the scheduler");
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        csd_enqueue(pe, Message::new(stop, b""));
        // Ready-thread messages were enqueued before the stop message.
        csd_scheduler(pe, -1);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    });
}

#[test]
fn csd_strategy_respects_priorities() {
    run_on_each_backend(1, |pe| {
        let rt = CthRuntime::get(pe);
        let log = Arc::new(Mutex::new(Vec::<i32>::new()));
        for prio in [5, -2, 0, 9, -7] {
            let l = log.clone();
            rt.spawn_scheduled_prio(pe, Priority::Int(prio), move |_pe| {
                l.lock().push(prio);
            });
        }
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        // The stop goes in FIFO (priority 0 class) — negative-priority
        // threads run before it, positive after... so give it the worst
        // priority to flush everything first.
        let m = Message::with_priority(stop, &Priority::Int(i32::MAX), b"");
        converse_core::csd_enqueue_general(pe, m, converse_core::QueueingMode::PrioFifo);
        csd_scheduler(pe, -1);
        assert_eq!(*log.lock(), vec![-7, -2, 0, 5, 9]);
    });
}

#[test]
fn thread_blocks_on_message_and_is_awakened_by_handler() {
    // The tSM pattern from §3.2.2, hand-rolled: a thread blocks; a
    // message handler awakens it with the payload.
    run_on_each_backend(2, |pe| {
        type WaitSlot = (Option<converse_threads::Thread>, Option<Vec<u8>>);
        let slot: Arc<Mutex<WaitSlot>> = Arc::new(Mutex::new((None, None)));
        let s2 = slot.clone();
        let data_h = pe.register_handler(move |pe, msg| {
            let mut s = s2.lock();
            s.1 = Some(msg.payload().to_vec());
            if let Some(t) = s.0.take() {
                drop(s);
                cth_awaken(pe, &t);
            }
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let rt = CthRuntime::get(pe);
            let slot3 = slot.clone();
            let done = Arc::new(AtomicU64::new(0));
            let d2 = done.clone();
            rt.spawn_scheduled(pe, move |pe| {
                // Block until the payload arrives.
                loop {
                    {
                        let s = slot3.lock();
                        if let Some(data) = &s.1 {
                            assert_eq!(data, b"wake up");
                            break;
                        }
                    }
                    let me = cth_self(pe).expect("inside a thread");
                    slot3.lock().0 = Some(me);
                    cth_suspend(pe);
                }
                d2.store(1, Ordering::SeqCst);
                csd_exit_scheduler(pe);
            });
            csd_scheduler(pe, -1);
            assert_eq!(done.load(Ordering::SeqCst), 1);
        } else {
            std::thread::sleep(std::time::Duration::from_millis(50));
            pe.sync_send_and_free(0, Message::new(data_h, b"wake up"));
        }
        pe.barrier();
    });
}

#[test]
fn many_threads_with_small_stacks() {
    run_on_each_backend(1, |pe| {
        let count = Arc::new(AtomicU64::new(0));
        let n = 200;
        let ts: Vec<_> = (0..n)
            .map(|_| {
                let c = count.clone();
                cth_create_of_size(
                    pe,
                    move |pe| {
                        c.fetch_add(1, Ordering::Relaxed);
                        cth_yield(pe);
                        c.fetch_add(1, Ordering::Relaxed);
                    },
                    64 * 1024,
                )
            })
            .collect();
        for t in &ts[1..] {
            cth_awaken(pe, t);
        }
        cth_resume(pe, &ts[0]);
        assert_eq!(count.load(Ordering::Relaxed), 2 * n);
        assert!(ts.iter().all(|t| t.is_exited()));
    });
}

#[test]
fn unfinished_threads_are_reaped_at_machine_exit() {
    // A thread that suspends forever must not hang machine teardown.
    run_on_each_backend(1, |pe| {
        let t = cth_create(pe, |pe| {
            cth_suspend(pe); // never awakened
            unreachable!("poisoned thread unwinds instead of resuming");
        });
        cth_resume(pe, &t);
        let rt = CthRuntime::get(pe);
        assert_eq!(rt.live_len(pe), 1, "thread still suspended at exit");
        // Entry returns now; the exit hook poisons and joins the thread.
    });
}

#[test]
fn never_started_threads_are_reaped() {
    run_on_each_backend(1, |pe| {
        for _ in 0..10 {
            let _t = cth_create(pe, |_pe| unreachable!("never started"));
        }
    });
}

#[test]
fn panic_inside_thread_propagates_to_run() {
    for &backend in CthBackend::available() {
        let result = std::panic::catch_unwind(|| {
            let cfg = MachineConfig::new(1).thread_backend(backend.to_config());
            run_with(cfg, |pe| {
                let t = cth_create(pe, |_pe| panic!("thread boom"));
                cth_resume(pe, &t);
                unreachable!("main context must re-raise the thread's panic");
            });
        });
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "thread boom", "[{}]", backend.label());
    }
}

#[test]
fn thread_ids_are_unique_and_nonzero() {
    run_on_each_backend(1, |pe| {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let t = cth_create(pe, |_pe| {});
            assert!(t.id() != 0, "0 names the main context");
            assert!(seen.insert(t.id()), "duplicate id {}", t.id());
            cth_resume(pe, &t);
        }
    });
}

#[test]
fn fiber_backend_is_default_where_supported() {
    if std::env::var_os("CTH_BACKEND").is_some() {
        // CI pins a backend explicitly; the default is not in play.
        return;
    }
    run(1, |pe| {
        let rt = CthRuntime::get(pe);
        let expect = if CthBackend::fiber_supported() {
            CthBackend::Fiber
        } else {
            CthBackend::Handoff
        };
        assert_eq!(rt.backend(), expect);
    });
}

#[test]
fn resume_from_inside_thread_chains_directly() {
    // A thread resuming another thread is a context-to-context transfer
    // (on the fiber backend: one direct switch, no main-context bounce).
    run_on_each_backend(1, |pe| {
        let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let slot: Arc<Mutex<Option<Thread>>> = Arc::new(Mutex::new(None));
        let (lb, sb) = (log.clone(), slot.clone());
        let tb = cth_create(pe, move |pe| {
            lb.lock().push("b: run");
            // Let A finish after us: its exit will return to main.
            let ta = sb.lock().take().expect("A registered itself");
            cth_awaken(pe, &ta);
        });
        let (la, sa, tb2) = (log.clone(), slot.clone(), tb.clone());
        let ta = cth_create(pe, move |pe| {
            la.lock().push("a: start");
            *sa.lock() = Some(cth_self(pe).expect("inside a thread"));
            cth_resume(pe, &tb2); // thread-to-thread transfer
            la.lock().push("a: back");
        });
        cth_resume(pe, &ta);
        assert_eq!(*log.lock(), vec!["a: start", "b: run", "a: back"]);
        assert!(ta.is_exited() && tb.is_exited());
    });
}

#[test]
fn yield_cycles_count_direct_handoffs() {
    // Two rotating threads: every intermediate switch takes the
    // suspend-with-ready-successor fast path on both backends.
    run_on_each_backend(1, |pe| {
        let spins = Arc::new(AtomicU64::new(0));
        let mk = |spins: Arc<AtomicU64>| {
            move |pe: &converse_core::Pe| {
                while spins.fetch_add(1, Ordering::Relaxed) < 40 {
                    cth_yield(pe);
                }
            }
        };
        let ta = cth_create(pe, mk(spins.clone()));
        let tb = cth_create(pe, mk(spins.clone()));
        cth_awaken(pe, &tb);
        cth_resume(pe, &ta);
        let rt = CthRuntime::get(pe);
        assert!(
            rt.direct_handoffs(pe) >= 20,
            "[{}] rotating yields must take the fast path (got {})",
            rt.backend().label(),
            rt.direct_handoffs(pe)
        );
        assert!(rt.switches(pe) > rt.direct_handoffs(pe));
    });
}

#[test]
fn stack_pool_reuses_stacks_across_many_threads() {
    // The stack-leak regression test: 10 000 create-run-exit cycles must
    // recycle one hot stack, not allocate 10 000 (fiber backend; the
    // hand-off backend uses OS stacks and reports zeros).
    if !CthBackend::fiber_supported() {
        return;
    }
    let cfg = MachineConfig::new(1).thread_backend(CthBackend::Fiber.to_config());
    run_with(cfg, |pe| {
        const N: u64 = 10_000;
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..N {
            let c = count.clone();
            let t = cth_create(pe, move |_pe| {
                c.fetch_add(1, Ordering::Relaxed);
            });
            cth_resume(pe, &t);
        }
        assert_eq!(count.load(Ordering::Relaxed), N);
        let stats = CthRuntime::get(pe).stack_pool_stats(pe);
        assert_eq!(stats.hits + stats.misses, N, "{stats:?}");
        assert!(
            stats.misses <= 1,
            "first thread allocates, the rest reuse: {stats:?}"
        );
        assert_eq!(stats.recycled, N, "every exited stack returns: {stats:?}");
        assert_eq!(stats.discarded, 0, "{stats:?}");
    });
}

#[test]
fn distinct_stack_sizes_pool_in_separate_classes() {
    if !CthBackend::fiber_supported() {
        return;
    }
    let cfg = MachineConfig::new(1).thread_backend(CthBackend::Fiber.to_config());
    run_with(cfg, |pe| {
        for _ in 0..5 {
            for size in [16 * 1024, 64 * 1024, 256 * 1024] {
                let t = cth_create_of_size(pe, |_pe| {}, size);
                cth_resume(pe, &t);
            }
        }
        let stats = CthRuntime::get(pe).stack_pool_stats(pe);
        // One miss per class on the first round, hits thereafter.
        assert_eq!(stats.misses, 3, "{stats:?}");
        assert_eq!(stats.hits, 12, "{stats:?}");
    });
}
