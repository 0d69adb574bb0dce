//! Lock pairs per message, pinned the way `zero_alloc.rs` pins
//! allocations. The `core_1pe` shape — send to self, the scheduler loop
//! drains it, the handler re-enqueues by priority, the loop dequeues it
//! and runs the second handler — takes three: the mailbox's `inbox` on the send and on the drain,
//! and `staged` once. The intake buffer, the scheduler queue, the
//! pending buffer and the scatter table are owner-only cells and take
//! none (they took four of the seven before).
//!
//! The census lives in the `parking_lot` shim under `debug_assertions`.
#![cfg(debug_assertions)]

use converse_machine::{run, Message, Stop};
use converse_msg::Priority;
use converse_queue::QueueingMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn a_loopback_message_takes_at_most_three_lock_pairs() {
    run(1, |pe| {
        let consumed = Arc::new(AtomicU64::new(0));
        let c = consumed.clone();
        let consume = pe.register_handler(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let first = pe.register_handler(move |pe, mut msg| {
            msg.set_handler(consume);
            pe.queue_enqueue(msg, QueueingMode::PrioFifo);
        });
        let op = |i: u64| {
            let prio = Priority::Int((i % 7) as i32 - 3);
            pe.sync_send_and_free(0, Message::with_priority(first, &prio, &i.to_le_bytes()));
            // `csd_scheduler(pe, 2)`: a drain that comes back for a second
            // look, the load sample, one queue entry.
            assert_eq!(pe.schedule(Stop::After(2), || false), 2);
        };
        (0..100).for_each(op);
        const OPS: u64 = 1_000;
        let before = parking_lot::lock_census();
        (100..100 + OPS).for_each(op);
        let locks = parking_lot::lock_census() - before;
        assert_eq!(consumed.load(Ordering::Relaxed), 100 + OPS);
        println!(
            "lock pairs per loopback op: {:.3}",
            locks as f64 / OPS as f64
        );
        assert!(
            locks <= 3 * OPS,
            "{locks} lock acquisitions for {OPS} ops: more than 3 per op"
        );
    });
}
