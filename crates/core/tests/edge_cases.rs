//! Edge cases of the scheduler and quiescence detector.

use converse_core::{
    csd_enqueue, csd_exit_scheduler, csd_scheduler, csd_scheduler_until_idle, run, run_with,
    schedule_until, HandlerId, MachineConfig, Message, Quiescence,
};
use converse_machine::{MachineHandle, MachineService};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn schedule_zero_messages_returns_immediately() {
    run(1, |pe| {
        let h = pe.register_handler(|_, _| panic!("must not run"));
        csd_enqueue(pe, Message::new(h, b""));
        assert_eq!(csd_scheduler(pe, 0), 0);
        assert_eq!(pe.queue_len(), 1, "message still queued");
    });
}

#[test]
fn exit_request_before_scheduler_call_is_honoured() {
    run(1, |pe| {
        let count = pe.local(|| AtomicU64::new(0));
        let c2 = count.clone();
        let h = pe.register_handler(move |_, _| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        csd_enqueue(pe, Message::new(h, b""));
        csd_exit_scheduler(pe);
        // The pre-set flag is consumed at loop entry: nothing runs.
        assert_eq!(csd_scheduler(pe, -1), 0);
        assert_eq!(count.load(Ordering::Relaxed), 0);
        // The flag was consumed, so a second call processes the message.
        assert_eq!(csd_scheduler(pe, 1), 1);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    });
}

#[test]
fn exit_flag_does_not_leak_between_scheduler_calls() {
    run(1, |pe| {
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        csd_enqueue(pe, Message::new(stop, b""));
        csd_scheduler(pe, -1);
        // Fresh call on an idle machine: must return, not hang, and must
        // not see a stale exit flag... until-idle returns immediately.
        assert_eq!(csd_scheduler_until_idle(pe), 0);
    });
}

#[test]
fn handler_registered_during_handler_execution() {
    // Handlers may register more handlers (a runtime bootstrapping a
    // sub-module on demand) — as long as every PE does the same.
    run(1, |pe| {
        let fired = pe.local(|| AtomicU64::new(0));
        let f2 = fired.clone();
        let boot = pe.register_handler(move |pe, _| {
            let f3 = f2.clone();
            let inner = pe.register_handler(move |_, _| {
                f3.fetch_add(1, Ordering::Relaxed);
            });
            csd_enqueue(pe, Message::new(inner, b""));
        });
        csd_enqueue(pe, Message::new(boot, b""));
        csd_scheduler_until_idle(pe);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    });
}

#[test]
#[should_panic(expected = "already active")]
fn double_arm_quiescence_panics() {
    run(1, |pe| {
        let qd = Quiescence::install(pe);
        let done = pe.register_handler(|_, _| {});
        qd.msg_created(pe, 1); // keep it from firing instantly
        qd.start(pe, Message::new(done, b""));
        qd.start(pe, Message::new(done, b""));
    });
}

#[test]
fn quiescence_rearm_after_completion() {
    run(1, |pe| {
        let qd = Quiescence::install(pe);
        let fired = pe.local(|| AtomicU64::new(0));
        let f2 = fired.clone();
        let done = pe.register_handler(move |pe, _| {
            f2.fetch_add(1, Ordering::Relaxed);
            csd_exit_scheduler(pe);
        });
        for _ in 0..3 {
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
        }
        assert_eq!(fired.load(Ordering::Relaxed), 3);
    });
}

#[test]
fn nested_scheduler_donation_from_handler() {
    // csd_scheduler(n) from within a handler (re-entrant scheduling) is
    // the SPM time-donation pattern of §3.1.2 footnote 1; nested budgets
    // are independent of the outer invocation's.
    run(1, |pe| {
        let inner_runs = pe.local(|| AtomicU64::new(0));
        let i2 = inner_runs.clone();
        let inner = pe.register_handler(move |_, _| {
            i2.fetch_add(1, Ordering::Relaxed);
        });
        let i3 = inner_runs.clone();
        let outer = pe.register_handler(move |pe, _| {
            // Deposit work, then donate exactly that much time.
            csd_enqueue(pe, Message::new(inner, b""));
            csd_enqueue(pe, Message::new(inner, b""));
            assert_eq!(csd_scheduler(pe, 2), 2);
            assert_eq!(i3.load(Ordering::Relaxed), 2, "nested run completed inline");
        });
        csd_enqueue(pe, Message::new(outer, b""));
        assert_eq!(
            csd_scheduler(pe, 1),
            1,
            "outer counts as one at the top level"
        );
        assert_eq!(inner_runs.load(Ordering::Relaxed), 2);
        assert_eq!(csd_scheduler_until_idle(pe), 0, "nothing left over");
    });
}

#[test]
fn scheduler_watchdog_measures_idle_time_not_wait_time() {
    // PE 1 sends 20 messages 30 ms apart, 600 ms in all, while PE 0
    // sits in `schedule_until` and then in `csd_scheduler`. No gap
    // between two arrivals comes near the 200 ms limit.
    let cfg = MachineConfig::new(2).block_timeout(Duration::from_millis(200));
    run_with(cfg, |pe| {
        let count = pe.local(|| AtomicU64::new(0));
        let c2 = count.clone();
        let counted = pe.register_handler(move |_, _| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        let trickle = || {
            for _ in 0..20 {
                std::thread::sleep(Duration::from_millis(30));
                pe.sync_send_and_free(0, Message::new(counted, b""));
            }
        };
        pe.barrier();
        match pe.my_pe() {
            0 => drop(schedule_until(pe, || count.load(Ordering::Relaxed) >= 20)),
            _ => trickle(),
        }
        pe.barrier();
        match pe.my_pe() {
            0 => drop(csd_scheduler(pe, -1)),
            _ => {
                trickle();
                pe.sync_send_and_free(0, Message::new(stop, b""));
            }
        }
        pe.barrier();
        if pe.my_pe() == 0 {
            assert_eq!(count.load(Ordering::Relaxed), 40);
        }
    });
}

/// A front-end whose one request arrives `delay` after the machine
/// starts, for the handler PE 0 publishes in `target`.
struct LateRequest {
    delay: Duration,
    target: Arc<AtomicU32>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MachineService for LateRequest {
    fn name(&self) -> &str {
        "late-request"
    }

    fn start(&mut self, machine: &MachineHandle) {
        let (machine, delay, target) = (machine.clone(), self.delay, self.target.clone());
        self.thread = Some(std::thread::spawn(move || {
            std::thread::sleep(delay);
            let h = HandlerId(target.load(Ordering::Acquire));
            assert!(machine.inject_request(0, 1, 1, h, b""), "machine still up");
        }));
    }

    fn stop(&mut self) {
        if let Some(t) = self.thread.take() {
            t.join().expect("request thread");
        }
    }
}

#[test]
fn an_attached_service_stands_the_watchdog_down_in_schedule_until() {
    // Waiting for outside traffic is not a deadlock, in whichever loop
    // the PE waits: the request comes 3 × the block timeout after start.
    let limit = Duration::from_millis(200);
    let target = Arc::new(AtomicU32::new(0));
    let cfg = MachineConfig::new(1)
        .block_timeout(limit)
        .attach(Box::new(LateRequest {
            delay: 3 * limit,
            target: target.clone(),
            thread: None,
        }));
    run_with(cfg, move |pe| {
        let ran = pe.local(|| AtomicBool::new(false));
        let r2 = ran.clone();
        let h = pe.register_handler(move |_, _| r2.store(true, Ordering::Release));
        target.store(h.0, Ordering::Release);
        schedule_until(pe, || ran.load(Ordering::Acquire));
    });
}
