//! Quasi-dynamic load balancing in action (paper §3.3.1, footnote 2):
//! a skewed population of worker chares is redistributed at a phase
//! boundary by `Charm::rebalance_sync`, and the phase time drops
//! accordingly. Also demonstrates object migration's message forwarding:
//! the driver keeps using the original chare ids throughout.
//!
//! ```sh
//! cargo run --release --example adaptive_rebalance
//! cargo run --release --example adaptive_rebalance -- --ldb measured
//! ```
//!
//! With `--ldb measured` the phase boundary uses
//! `Charm::rebalance_sync_measured`: the plan equalizes live *backlog*
//! (mailbox + run-queue depth) instead of raw object counts — the
//! measurement-based flavour of the same quasi-dynamic strategy.

use converse::charm::{Chare, ChareId, Charm, MigratableChare};
use converse::ldb::LdbPolicy;
use converse::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const WORKERS: usize = 16;
const GRAIN: u64 = 20_000_000;

/// A worker that burns CPU when poked and acks to PE 0.
struct Worker;

impl Chare for Worker {
    fn new(_pe: &Pe, _id: ChareId, _payload: &[u8]) -> Self {
        Worker
    }
    fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
        let mut acc = 0u64;
        for i in 0..GRAIN {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let h = HandlerId(u32::from_le_bytes(payload[..4].try_into().unwrap()));
        pe.sync_send_and_free(0, Message::new(h, b""));
    }
}

impl MigratableChare for Worker {
    fn pack(&self) -> Vec<u8> {
        Vec::new()
    }
    fn unpack(_pe: &Pe, _id: ChareId, _data: &[u8]) -> Self {
        Worker
    }
}

fn main() {
    let measured =
        std::env::args().skip(1).any(|a| a == "--ldb") && std::env::args().any(|a| a == "measured");
    converse::core::run(4, move |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_migratable::<Worker>(pe);
        let done = pe.local(|| AtomicU64::new(0));
        let d2 = done.clone();
        // PE 0 collects acks; the WORKERS-th stops its scheduler.
        let ack = pe.register_handler(move |pe, _| {
            if d2.fetch_add(1, Ordering::SeqCst) + 1 == WORKERS as u64 {
                csd_exit_scheduler(pe);
            }
        });
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();

        // All workers born on PE 0 — maximal skew (Direct placement).
        let ids: Vec<ChareId> = if pe.my_pe() == 0 {
            for _ in 0..WORKERS {
                charm.create(pe, kind, b"", Priority::None);
            }
            csd_scheduler_until_idle(pe);
            (1..=WORKERS as u64)
                .map(|slot| ChareId { pe: 0, slot })
                .collect()
        } else {
            Vec::new()
        };

        // One phase: poke every worker (by ORIGINAL id), wait for all
        // acks on PE 0, then release the other PEs.
        let phase = |label: &str| -> f64 {
            pe.barrier();
            let t0 = pe.timer();
            if pe.my_pe() == 0 {
                done.store(0, Ordering::SeqCst);
                for id in &ids {
                    charm.send(pe, *id, 0, &ack.0.to_le_bytes(), Priority::None);
                }
                csd_scheduler(pe, -1); // until the last ack
                pe.sync_broadcast(&Message::new(stop, b""));
            } else {
                csd_scheduler(pe, -1); // serve forwarded workers until stop
            }
            pe.barrier();
            let dt = pe.timer() - t0;
            if pe.my_pe() == 0 {
                pe.cmi_printf(format!("{label}: {dt:.3}s"));
            }
            dt
        };

        let skewed = phase("phase 1 (all workers on PE 0)");

        // Phase boundary: redistribute. The measured flavour rebalances
        // *under load*: PE 0 queues the next phase's pokes first, so
        // the allgathered backlog picture is [16, 0, 0, 0] and the plan
        // moves workers — whose queued entry messages follow them via
        // migration forwarding — off the hotspot mid-flight.
        let (report, balanced) = if measured {
            pe.barrier();
            let t0 = pe.timer();
            if pe.my_pe() == 0 {
                done.store(0, Ordering::SeqCst);
                for id in &ids {
                    charm.send(pe, *id, 0, &ack.0.to_le_bytes(), Priority::None);
                }
            }
            let report = charm.rebalance_measured(pe);
            csd_scheduler(pe, -1); // PE 0: until the last ack; rest: until stop
            if pe.my_pe() == 0 {
                pe.sync_broadcast(&Message::new(stop, b""));
            }
            pe.barrier();
            let dt = pe.timer() - t0;
            if pe.my_pe() == 0 {
                pe.cmi_printf(format!("phase 2 (measured rebalance mid-flight): {dt:.3}s"));
            }
            (report, dt)
        } else {
            let report = charm.rebalance_sync(pe);
            (report, phase("phase 2 (rebalanced over 4 PEs)"))
        };
        pe.cmi_printf(format!(
            "PE {}: {} before, {} moved out, {} arriving → {} now",
            pe.my_pe(),
            report.before,
            report.moved_out.len(),
            report.expected_in,
            charm.local_migratable(pe)
        ));

        if pe.my_pe() == 0 {
            pe.cmi_printf(format!("speedup: {:.2}×", skewed / balanced));
        }
    });
}
