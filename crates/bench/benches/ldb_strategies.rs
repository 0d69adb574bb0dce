//! Load-balancer ablation (paper §3.3.1: "there are a large number of
//! load balancing modules supported in Converse. Each one is often
//! useful in a different situation"): wall-clock to drain an irregular
//! seed workload (all seeds born on PE 0, uneven grain sizes) under each
//! strategy on a 4-PE machine, plus the resulting placement imbalance.

use converse_core::{csd_exit_scheduler, csd_scheduler, Message, Quiescence};
use converse_ldb::{Ldb, LdbPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: usize = 256;
const PES: usize = 4;

/// Run the workload; returns (elapsed, per-PE execution counts).
fn drain_seeds(policy: LdbPolicy) -> (Duration, Vec<u64>) {
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..PES).map(|_| AtomicU64::new(0)).collect());
    let c2 = counts.clone();
    let elapsed = Arc::new(AtomicU64::new(0));
    let e2 = elapsed.clone();
    converse_core::run(PES, move |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(pe, policy);
        let c = c2.clone();
        let qd2 = qd.clone();
        let work = pe.register_handler(move |pe, msg| {
            // Uneven grains: busy-work proportional to the seed's index.
            let grain = msg.payload()[0] as u64;
            let mut acc = 0u64;
            for i in 0..grain * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            c[pe.my_pe()].fetch_add(1, Ordering::Relaxed);
            qd2.msg_processed(pe, 1);
        });
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            let t0 = Instant::now();
            for i in 0..SEEDS {
                qd.msg_created(pe, 1);
                ldb.deposit(pe, Message::new(work, &[(i % 16) as u8]));
            }
            qd.start(pe, Message::new(stop, b""));
            csd_scheduler(pe, -1);
            e2.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            pe.sync_broadcast(&Message::new(stop, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
    (
        Duration::from_nanos(elapsed.load(Ordering::SeqCst)),
        counts.iter().map(|c| c.load(Ordering::SeqCst)).collect(),
    )
}

fn main() {
    let policies: [(&str, LdbPolicy); 5] = [
        ("direct", LdbPolicy::Direct),
        ("random", LdbPolicy::Random { seed: 42 }),
        (
            "spray",
            LdbPolicy::Spray {
                threshold: 4,
                max_hops: 4,
            },
        ),
        ("central", LdbPolicy::Central),
        ("2choice", LdbPolicy::TwoChoices { seed: 42 }),
    ];

    // Wall-clock drain times, averaged over a few runs.
    println!("\nDrain time ({SEEDS} uneven seeds from PE 0 on {PES} PEs, mean of 5):");
    for (name, policy) in policies {
        let mut total = Duration::ZERO;
        for _ in 0..5 {
            total += drain_seeds(policy).0;
        }
        println!("{:>10} {:>12.2?}", name, total / 5);
    }

    println!("\nPlacement quality ({SEEDS} uneven seeds from PE 0 on {PES} PEs):");
    println!("{:>10} {:>24} {:>10}", "policy", "per-PE counts", "max/avg");
    for (name, policy) in policies {
        let (_, counts) = drain_seeds(policy);
        let max = *counts.iter().max().expect("pes") as f64;
        let avg = counts.iter().sum::<u64>() as f64 / PES as f64;
        println!(
            "{:>10} {:>24} {:>10.2}",
            name,
            format!("{counts:?}"),
            max / avg
        );
    }
}
