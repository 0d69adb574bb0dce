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
//!   mailbox; this row keeps that path counted. It reads two as well
//!   when the ping travels on a latest-value-wins channel or the
//!   machine reorders deliveries: with no fault plan there is no link
//!   state to lock, and a reordering mailbox counts arrivals under its
//!   own inbox lock.
//!
//! The census lives in the `parking_lot` shim under `debug_assertions`
//! and counts the calling thread's acquisitions only.
#![cfg(debug_assertions)]

use converse_machine::{run, run_with, Delivery, DeliveryMode, MachineConfig, Message, Stop};
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
    peer_ping(MachineConfig::new(2), None, "2-PE ping");
}

#[test]
fn a_latest_value_wins_ping_takes_two_lock_pairs() {
    let cfg = MachineConfig::new(2).channel("latest", Delivery::LatestValueWins);
    peer_ping(cfg, Some("latest"), "latest-value-wins ping");
}

#[test]
fn a_reordering_ping_takes_two_lock_pairs() {
    let cfg = MachineConfig::new(2).delivery(DeliveryMode::Reorder { seed: 7, window: 4 });
    peer_ping(cfg, None, "reordering ping");
}

/// PE 0 pings PE 1 on `cfg`'s 2-PE machine — on the channel declared
/// as `channel`, or the default one — and drains each answer; asserts
/// two lock pairs per op on PE 0's thread.
fn peer_ping(cfg: MachineConfig, channel: Option<&'static str>, what: &'static str) {
    run_with(cfg, move |pe| {
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
        let channel = channel.map_or(converse_machine::Channel::DEFAULT, |c| pe.channel(c));
        let op = |i: u64| {
            pe.sync_send_and_free_on(1, channel, Message::new(ping, &i.to_le_bytes()));
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
        println!("lock pairs per {what} op: {:.3}", locks as f64 / OPS as f64);
        assert_eq!(
            locks,
            2 * OPS,
            "{locks} lock acquisitions for {OPS} {what}s"
        );
    });
}
