//! Lock pairs the thread layer adds, pinned like the machine layer's
//! `lock_census.rs`, on the fiber backend. Two shapes:
//!
//! * **a wake** — a handler awakens a Csd-strategy thread, the scheduler
//!   resumes it from its ready-entry, the thread consumes and suspends.
//!   The message path underneath takes three pairs (`inbox` twice,
//!   `staged` once);
//! * **a lifecycle** — `spawn_scheduled` of an empty closure, run to
//!   exit by the scheduler; no message crosses the mailbox.
//!
//! The thread layer adds none to either: `current`, `ready`, the live
//! threads, a thread's strategy and entry and the fiber table are
//! owner-only cells, a thread's state is an atomic the running context
//! writes, and the mutex the hand-off backend parks on is not touched.
//! (Before ISSUE 17 a wake took 20 pairs; before ISSUE 18 it took 6 and
//! a lifecycle 5: a thread's `state` mutex on every visit, and once more
//! when the registry was swept.)
#![cfg(debug_assertions)]

use converse_core::csd::csd_scheduler;
use converse_machine::{MachineConfig, Message, Pe};
use converse_msg::Priority;
use converse_threads::{
    cth_awaken, cth_create, cth_suspend, set_csd_strategy, CthBackend, CthRuntime,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock pairs per `op` over 1 000 of them, after 100 to warm up.
fn pairs_per_op(what: &str, op: impl Fn(u64)) -> f64 {
    (0..100).for_each(&op);
    const OPS: u64 = 1_000;
    let before = parking_lot::lock_census();
    (100..100 + OPS).for_each(&op);
    let pairs = (parking_lot::lock_census() - before) as f64 / OPS as f64;
    println!("lock pairs per {what}: {pairs:.3}");
    pairs
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
        let pairs = pairs_per_op("thread-wake op", |i| {
            pe.sync_send_and_free(0, Message::new(awaken, &i.to_le_bytes()));
            // The message to its handler, then the ready-entry it left.
            assert_eq!(csd_scheduler(pe, 2), 2);
        });
        assert_eq!(consumed.load(Ordering::Relaxed), 1_100);
        assert!(pairs <= 3.0, "{pairs} lock pairs per wake: more than 3 + 0");
    });
}

#[test]
fn a_thread_lifecycle_takes_no_lock_pair_on_the_fiber_backend() {
    on_the_fiber_backend(|pe| {
        let rt = CthRuntime::get(pe);
        let pairs = pairs_per_op("thread lifecycle", |_| {
            let t = rt.spawn_scheduled(pe, |_pe| {});
            assert_eq!(csd_scheduler(pe, 1), 1);
            assert!(t.is_exited());
        });
        assert!(pairs <= 0.0, "{pairs} lock pairs per thread lifecycle");
    });
}
