//! Lock pairs per thread wake, pinned like the machine layer's
//! `lock_census.rs`: a handler awakens a Csd-strategy thread, the
//! scheduler resumes it from its ready-entry, the thread consumes and
//! suspends. The message path underneath takes three pairs (`inbox`
//! twice, `staged` once); on the fiber backend the thread layer may add
//! at most four — the thread's `state` mutex, which the hand-off
//! backend parks on. `current`, `ready`, `scheduled`, a thread's
//! strategy and the fiber table are owner-only cells (they were twelve
//! more pairs).
#![cfg(debug_assertions)]

use converse_core::csd::csd_scheduler;
use converse_machine::{MachineConfig, Message};
use converse_msg::Priority;
use converse_threads::{
    cth_awaken, cth_create, cth_suspend, set_csd_strategy, CthBackend, CthRuntime,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn a_thread_wake_adds_at_most_four_lock_pairs_on_the_fiber_backend() {
    if !CthBackend::fiber_supported() {
        return;
    }
    let cfg = MachineConfig::new(1).thread_backend(CthBackend::Fiber.to_config());
    converse_machine::run_with(cfg, |pe| {
        CthRuntime::get(pe);
        let consumed = Arc::new(AtomicU64::new(0));
        let c = consumed.clone();
        let consumer = cth_create(pe, move |pe| loop {
            c.fetch_add(1, Ordering::Relaxed);
            cth_suspend(pe);
        });
        set_csd_strategy(pe, &consumer, Priority::None);
        let awaken = pe.register_handler(move |pe, _| cth_awaken(pe, &consumer));
        let op = |i: u64| {
            pe.sync_send_and_free(0, Message::new(awaken, &i.to_le_bytes()));
            // The message to its handler, then the ready-entry it left.
            assert_eq!(csd_scheduler(pe, 2), 2);
        };
        (0..100).for_each(op);
        const OPS: u64 = 1_000;
        let before = parking_lot::lock_census();
        (100..100 + OPS).for_each(op);
        let locks = parking_lot::lock_census() - before;
        assert_eq!(consumed.load(Ordering::Relaxed), 100 + OPS);
        println!(
            "lock pairs per thread-wake op: {:.3}",
            locks as f64 / OPS as f64
        );
        assert!(
            locks <= (3 + 4) * OPS,
            "{locks} lock acquisitions for {OPS} ops: more than 3 + 4 per op"
        );
    });
}
