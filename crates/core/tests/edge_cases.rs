//! Edge cases of the scheduler and quiescence detector.

use converse_core::{
    csd_enqueue, csd_exit_scheduler, csd_scheduler, csd_scheduler_until_idle, run, Message,
    Quiescence,
};
use std::sync::atomic::{AtomicU64, Ordering};

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
