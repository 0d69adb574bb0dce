//! Lock pairs per message, pinned the way `zero_alloc.rs` pins
//! allocations. Two shapes:
//!
//! * **a loopback op** (`core_1pe`'s) — send to self, the scheduler loop
//!   drains it, the handler re-enqueues by priority, the loop dequeues it
//!   and runs the second handler — takes none. The send goes onto the
//!   PE's local queue, which only the run-token holder touches, and the
//!   drain moves it into the intake; the intake, the scheduler queue, the
//!   pending buffer and the scatter table are owner-only cells too.
//! * **a peer ping** — PE 0 sends to PE 1 and drains PE 1's answer —
//!   takes two on PE 0's thread: PE 1's `inbox` on the send and its own
//!   on the drain. A message that crosses to another PE still pays the
//!   mailbox; this row keeps that path counted.
//!
//! The census lives in the `parking_lot` shim under `debug_assertions`
//! and counts the calling thread's acquisitions only.
#![cfg(debug_assertions)]

use converse_machine::{run, Message, Stop};
use converse_msg::Priority;
use converse_queue::QueueingMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WARM: u64 = 100;
const OPS: u64 = 1_000;

#[test]
fn a_loopback_message_takes_no_lock_pair() {
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
        (0..WARM).for_each(op);
        let before = parking_lot::lock_census();
        (WARM..WARM + OPS).for_each(op);
        let locks = parking_lot::lock_census() - before;
        assert_eq!(consumed.load(Ordering::Relaxed), WARM + OPS);
        println!(
            "lock pairs per loopback op: {:.3}",
            locks as f64 / OPS as f64
        );
        assert_eq!(locks, 0, "{locks} lock acquisitions for {OPS} loopback ops");
    });
}

#[test]
fn a_peer_ping_takes_two_lock_pairs() {
    run(2, |pe| {
        let (served, answers) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let a = answers.clone();
        let pong = pe.register_handler(move |_, _| {
            a.fetch_add(1, Ordering::Relaxed);
        });
        let s = served.clone();
        let ping = pe.register_handler(move |pe, mut msg| {
            s.fetch_add(1, Ordering::Relaxed);
            msg.set_handler(pong);
            pe.sync_send_and_free(0, msg);
        });
        if pe.my_pe() == 1 {
            pe.deliver_until(|| served.load(Ordering::Relaxed) == WARM + OPS);
            return;
        }
        let op = |i: u64| {
            pe.sync_send_and_free(1, Message::new(ping, &i.to_le_bytes()));
            // Wait without parking (a park locks the inbox), then drain
            // the one answer.
            while pe.inbound_pending() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(pe.deliver_msgs(Some(1)), 1);
        };
        (0..WARM).for_each(op);
        let before = parking_lot::lock_census();
        (WARM..WARM + OPS).for_each(op);
        let locks = parking_lot::lock_census() - before;
        assert_eq!(answers.load(Ordering::Relaxed), WARM + OPS);
        println!(
            "lock pairs per 2-PE ping op: {:.3}",
            locks as f64 / OPS as f64
        );
        assert_eq!(locks, 2 * OPS, "{locks} lock acquisitions for {OPS} pings");
    });
}
