//! Discrete-event simulation with **virtual time as the scheduling
//! priority** — the paper's first §2.3 motivation: "discrete event
//! simulation (especially with the optimistic concurrency control
//! protocols where time must be used as a priority)".
//!
//! A closed queueing network: `JOBS` jobs hop among `NODES` service
//! stations; each hop is an event message whose integer priority is its
//! timestamp, so the Csd queue *is* the event list. On one PE this is a
//! textbook sequential DES — the run asserts events globally execute in
//! nondecreasing virtual time. The same program then runs on 4 PEs
//! (stations partitioned, commutative statistics), and the two runs must
//! agree exactly on the event count and the per-node visit totals.
//!
//! ```sh
//! cargo run --example des_virtual_time
//! ```

use converse::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 8;
const JOBS: usize = 16;
const HORIZON: i32 = 2_000;

/// Deterministic "service time" for (node, job, arrival).
fn service(node: usize, job: usize, now: i32) -> i32 {
    let x = (node as i64 * 2654435761 + job as i64 * 40503 + now as i64 * 69069) & 0x7FFF_FFFF;
    1 + (x % 19) as i32
}

/// Next station for (node, job, time).
fn route(node: usize, job: usize, now: i32) -> usize {
    let x = (node as i64 * 31 + job as i64 * 17 + now as i64 * 101) & 0x7FFF_FFFF;
    (x as usize) % NODES
}

struct Stats {
    visits: Vec<AtomicU64>,
    events: AtomicU64,
    last_time: AtomicI64,
    monotone: AtomicU64, // stays 1 while event times never decrease
}

fn run_des(num_pes: usize) -> (u64, Vec<u64>, bool) {
    let stats = Arc::new(Stats {
        visits: (0..NODES).map(|_| AtomicU64::new(0)).collect(),
        events: AtomicU64::new(0),
        last_time: AtomicI64::new(i64::MIN),
        monotone: AtomicU64::new(1),
    });
    let s2 = stats.clone();
    converse::core::run(num_pes, move |pe| {
        let qd = Quiescence::install(pe);
        let stats = s2.clone();
        // (event handler, remote-arrival handler) — filled in below.
        let slot = pe.local(|| parking_lot::Mutex::new(None::<(HandlerId, HandlerId)>));
        let sl2 = slot.clone();
        let qd2 = qd.clone();
        // Event payload: [node u16, job u16, time i32].
        let event = pe.register_handler(move |pe, msg| {
            let p = msg.payload();
            let node = u16::from_le_bytes(p[0..2].try_into().unwrap()) as usize;
            let job = u16::from_le_bytes(p[2..4].try_into().unwrap()) as usize;
            let now = i32::from_le_bytes(p[4..8].try_into().unwrap());
            stats.events.fetch_add(1, Ordering::Relaxed);
            stats.visits[node].fetch_add(1, Ordering::Relaxed);
            // Global monotonicity check (meaningful on the 1-PE run,
            // where one priority queue orders every event).
            let prev = stats.last_time.swap(now as i64, Ordering::SeqCst);
            if (now as i64) < prev {
                stats.monotone.store(0, Ordering::SeqCst);
            }
            let depart = now + service(node, job, now);
            if depart < HORIZON {
                let next = route(node, job, now);
                let dst = next % pe.num_pes(); // station owner
                let mut payload = Vec::with_capacity(8);
                payload.extend_from_slice(&(next as u16).to_le_bytes());
                payload.extend_from_slice(&(job as u16).to_le_bytes());
                payload.extend_from_slice(&depart.to_le_bytes());
                let (event_h, recv_h) = sl2.lock().unwrap();
                qd2.msg_created(pe, 1);
                if dst == pe.my_pe() {
                    // Local event: straight into the event list (queue).
                    let m = Message::with_priority(event_h, &Priority::Int(depart), &payload);
                    csd_enqueue_general(pe, m, QueueingMode::PrioFifo);
                } else {
                    // Remote event: target the arrival handler so it
                    // joins the destination's event list by timestamp.
                    let m = Message::with_priority(recv_h, &Priority::Int(depart), &payload);
                    pe.sync_send_and_free(dst, m);
                }
            }
            qd2.msg_processed(pe, 1);
        });
        // Remote events land here first and join the local event list by
        // timestamp (the §3.3 two-handler idiom).
        let recv = {
            let slot = slot.clone();
            pe.register_handler(move |pe, mut msg| {
                let (event_h, _) = slot.lock().unwrap();
                msg.set_handler(event_h);
                csd_enqueue_general(pe, msg, QueueingMode::PrioFifo);
            })
        };
        *slot.lock() = Some((event, recv));
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();

        if pe.my_pe() == 0 {
            // Inject the initial population at time 0, one event per job.
            for job in 0..JOBS {
                let node = job % NODES;
                let dst = node % pe.num_pes();
                let mut payload = Vec::with_capacity(8);
                payload.extend_from_slice(&(node as u16).to_le_bytes());
                payload.extend_from_slice(&(job as u16).to_le_bytes());
                payload.extend_from_slice(&0i32.to_le_bytes());
                qd.msg_created(pe, 1);
                pe.sync_send_and_free(
                    dst,
                    Message::with_priority(recv, &Priority::Int(0), &payload),
                );
            }
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(done, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
    (
        stats.events.load(Ordering::Relaxed),
        stats
            .visits
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect(),
        stats.monotone.load(Ordering::SeqCst) == 1,
    )
}

fn main() {
    let (seq_events, seq_visits, seq_monotone) = run_des(1);
    println!("sequential DES (1 PE): {seq_events} events, visits {seq_visits:?}");
    assert!(
        seq_monotone,
        "on one PE the priority queue must process events in nondecreasing virtual time"
    );

    let (par_events, par_visits, _) = run_des(4);
    println!("parallel  DES (4 PE): {par_events} events, visits {par_visits:?}");

    assert_eq!(
        seq_events, par_events,
        "event count is delivery-order independent"
    );
    assert_eq!(seq_visits, par_visits, "per-node statistics agree");
    println!("sequential and parallel runs agree — virtual time as priority works");
}
