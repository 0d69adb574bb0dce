//! Lock pairs the thread layer adds, pinned like the machine layer's
//! `lock_census.rs`, on the fiber backend. Two shapes:
//!
//! * **a wake** — a handler awakens a Csd-strategy thread, the scheduler
//!   resumes it from its ready-entry, the thread consumes and suspends.
//!   The message path underneath takes two pairs (`inbox` on the send
//!   and on the drain);
//! * **a lifecycle** — `spawn_scheduled` of an empty closure, run to
//!   exit by the scheduler; no message crosses the mailbox.
//!
//! The thread layer adds none to either: who runs, the ready pool and
//! the slot table with each thread's strategy, entry and parked context
//! are one owner-only cell, a thread's state is an atomic the running
//! context writes, and the mutex the hand-off backend parks on is not
//! touched. (Before ISSUE 17 a wake took 20 pairs; before ISSUE 18 it
//! took 6 and a lifecycle 5: a thread's `state` mutex on every visit, and
//! once more when the registry was swept.)
//!
//! What it does cost is **openings of that cell**, counted the same way
//! by `converse_machine::cell_census`: four a wake (awaken, the resume
//! handler, the thread's side of the suspend, the drive loop after the
//! yield) and five a lifecycle.
#![cfg(debug_assertions)]

use converse_core::csd::{csd_enqueue, csd_scheduler};
use converse_machine::{cell_census, MachineConfig, Message, Pe};
use converse_msg::Priority;
use converse_threads::{
    cth_awaken, cth_create, cth_suspend, set_csd_strategy, CthBackend, CthRuntime,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What `census` counts per `op` — lock pairs (`parking_lot::lock_census`)
/// or owner-cell openings (`converse_machine::cell_census`) — over 1 000
/// of them, after 100 to warm up.
fn per_op(what: &str, census: fn() -> u64, op: impl Fn(u64)) -> f64 {
    (0..100).for_each(&op);
    const OPS: u64 = 1_000;
    let before = census();
    (100..100 + OPS).for_each(&op);
    let counted = (census() - before) as f64 / OPS as f64;
    println!("{what}: {counted:.3}");
    counted
}

fn on_the_fiber_backend(entry: impl Fn(&Pe) + Send + Sync + 'static) {
    if !CthBackend::fiber_supported() {
        return;
    }
    let cfg = MachineConfig::new(1).thread_backend(CthBackend::Fiber.to_config());
    converse_machine::run_with(cfg, entry);
}

#[test]
fn a_thread_wake_adds_no_lock_pair_on_the_fiber_backend() {
    on_the_fiber_backend(|pe| {
        CthRuntime::get(pe);
        let consumed = Arc::new(AtomicU64::new(0));
        let c = consumed.clone();
        let consumer = cth_create(pe, move |pe| loop {
            c.fetch_add(1, Ordering::Relaxed);
            cth_suspend(pe);
        });
        set_csd_strategy(pe, &consumer, Priority::None);
        let awaken = pe.register_handler(move |pe, _| cth_awaken(pe, &consumer));
        let pairs = per_op(
            "lock pairs per thread-wake op",
            parking_lot::lock_census,
            |i| {
                pe.sync_send_and_free(0, Message::new(awaken, &i.to_le_bytes()));
                // The message to its handler, then the ready-entry it left.
                assert_eq!(csd_scheduler(pe, 2), 2);
            },
        );
        assert_eq!(consumed.load(Ordering::Relaxed), 1_100);
        assert!(pairs <= 2.0, "{pairs} lock pairs per wake: more than 2 + 0");
    });
}

#[test]
fn a_thread_lifecycle_takes_no_lock_pair_on_the_fiber_backend() {
    on_the_fiber_backend(|pe| {
        let rt = CthRuntime::get(pe);
        let pairs = per_op(
            "lock pairs per thread lifecycle",
            parking_lot::lock_census,
            |_| {
                let t = rt.spawn_scheduled(pe, |_pe| {});
                assert_eq!(csd_scheduler(pe, 1), 1);
                assert!(t.is_exited());
            },
        );
        assert!(pairs <= 0.0, "{pairs} lock pairs per thread lifecycle");
    });
}

#[test]
fn a_thread_wake_opens_the_table_four_times() {
    on_the_fiber_backend(|pe| {
        CthRuntime::get(pe);
        let consumer = cth_create(pe, |pe| loop {
            cth_suspend(pe);
        });
        set_csd_strategy(pe, &consumer, Priority::None);
        let awaken = pe.register_handler(move |pe, _| cth_awaken(pe, &consumer));
        // The same op without a thread: the handler leaves a plain
        // ready-entry on the Csd queue instead of a thread's.
        let noop = pe.register_handler(|_, _| {});
        let enqueue = pe.register_handler(move |pe, _| csd_enqueue(pe, Message::new(noop, b"")));
        let two_messages = |first| {
            move |i: u64| {
                pe.sync_send_and_free(0, Message::new(first, &i.to_le_bytes()));
                assert_eq!(csd_scheduler(pe, 2), 2);
            }
        };
        let with = per_op(
            "cell openings per thread-wake op",
            cell_census,
            two_messages(awaken),
        );
        let without = per_op(
            "cell openings per the same op without a thread",
            cell_census,
            two_messages(enqueue),
        );
        assert_eq!(with - without, 4.0, "openings a wake adds");
    });
}

#[test]
fn a_thread_lifecycle_opens_the_table_five_times() {
    on_the_fiber_backend(|pe| {
        let rt = CthRuntime::get(pe);
        let noop = pe.register_handler(|_, _| {});
        let with = per_op("cell openings per thread lifecycle", cell_census, |_| {
            rt.spawn_scheduled(pe, |_pe| {});
            assert_eq!(csd_scheduler(pe, 1), 1);
        });
        let without = per_op("cell openings per scheduled message", cell_census, |_| {
            csd_enqueue(pe, Message::new(noop, b""));
            assert_eq!(csd_scheduler(pe, 1), 1);
        });
        // create, awaken, the resume handler, the fiber storing its yield
        // handle, the drive loop retiring it — and nothing per switch.
        assert_eq!(with - without, 5.0, "openings a lifecycle adds");
    });
}
