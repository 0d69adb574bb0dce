//! Event tracing and post-mortem profiling (paper §3.3.2): run a mixed
//! message-driven + threaded workload with the in-memory trace sink, then
//! print the per-PE summary a Projections-style tool would display —
//! message counts, handler executions, thread/object lifecycle events,
//! and handler-busy utilization.
//!
//! ```sh
//! cargo run --example trace_profile
//! ```

use converse::charm::{Chare, ChareId, Charm};
use converse::ldb::LdbPolicy;
use converse::prelude::*;
use converse::threads::CthRuntime;
use converse::trace::{MemorySink, TextSink, TraceSink};

/// A chare whose construction burns a little time and fans out two
/// children until the depth budget runs out — seed-style divide and
/// conquer, all placement decided by the load balancer.
struct Worker;

impl Chare for Worker {
    fn new(pe: &Pe, _id: ChareId, payload: &[u8]) -> Self {
        let depth = payload[0];
        let mut acc = 0u64;
        for i in 0..20_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        if depth > 0 {
            let charm = Charm::get(pe);
            for _ in 0..2 {
                charm.create(
                    pe,
                    converse::charm::ChareKind(0),
                    &[depth - 1],
                    Priority::None,
                );
            }
        }
        Worker
    }
    fn entry(&mut self, _pe: &Pe, _id: ChareId, _ep: u32, _payload: &[u8]) {}
}

fn main() {
    let sink = MemorySink::new(4, 200_000);
    let text = TextSink::new();
    let cfg = MachineConfig::new(4).trace(sink.clone());
    converse::core::run_with(cfg, move |pe| {
        let charm = Charm::install(
            pe,
            LdbPolicy::Spray {
                threshold: 2,
                max_hops: 3,
            },
        );
        let kind = charm.register::<Worker>();
        let rt = CthRuntime::get(pe);
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();

        // A few threads per PE doing bursts of yields (traced), plus the
        // message-driven cascade seeded from PE 0.
        for _ in 0..3 {
            rt.spawn_scheduled(pe, |pe| {
                for _ in 0..5 {
                    converse::threads::cth_yield(pe);
                }
            });
        }
        if pe.my_pe() == 0 {
            for _ in 0..4 {
                charm.create(pe, kind, &[4u8], Priority::None);
            }
            charm.quiescence().start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });

    let summary = sink.summary();
    println!("per-PE trace summary (standard records, §3.3.2):");
    println!(
        "{:>4} {:>8} {:>10} {:>9} {:>9} {:>9} {:>12}",
        "PE", "sends", "handlers", "enqueues", "threads", "objects", "utilization"
    );
    for (pe, s) in summary.pes.iter().enumerate() {
        println!(
            "{:>4} {:>8} {:>10} {:>9} {:>9} {:>9} {:>11.1}%",
            pe,
            s.sends,
            s.handler_runs,
            s.enqueues,
            s.threads_created,
            s.objects_created,
            s.utilization * 100.0
        );
    }
    // Context-switch shape: ThreadSwitch records are sampled (1 in 32
    // switches). `direct` counts sampled switches that took the
    // suspend-to-ready-successor fast path — on the fiber backend those
    // never touch the Csd queue.
    println!("\nthread switch profile (ThreadSwitch records, sampled 1/32):");
    println!("{:>4} {:>9} {:>8}", "PE", "switches", "direct");
    for (pe, s) in summary.pes.iter().enumerate() {
        println!(
            "{:>4} {:>9} {:>8}",
            pe, s.thread_switches, s.direct_handoffs
        );
    }
    // Scheduler hot-path shape: SchedBatch records are sampled (1 in 32
    // batched intakes), so these are a profile of the drain loop, not an
    // exact count — `drained/rec` is the mean batch size at the sampled
    // points, `spins` the idle probes spent before the last park.
    println!("\nscheduler batch profile (SchedBatch records, sampled 1/32):");
    println!(
        "{:>4} {:>9} {:>12} {:>11}",
        "PE", "records", "drained/rec", "idle spins"
    );
    for (pe, s) in summary.pes.iter().enumerate() {
        let per = if s.sched_batches > 0 {
            s.batch_drained as f64 / s.sched_batches as f64
        } else {
            0.0
        };
        println!(
            "{:>4} {:>9} {:>12.1} {:>11}",
            pe, s.sched_batches, per, s.idle_spins
        );
    }
    println!(
        "\ntotals: {} sends, {} handler runs, {} records dropped",
        summary.total_sends(),
        summary.total_handler_runs(),
        sink.dropped()
    );
    // The cascade creates 4·(2^5 − 1) = 124 chares machine-wide.
    let objects: u64 = summary.pes.iter().map(|p| p.objects_created).sum();
    assert_eq!(objects, 124, "full cascade traced");

    // Demonstrate the self-describing text format on a small slice.
    for r in sink.all_records().into_iter().take(5) {
        text.record(r.pe, r.t_ns, r.event);
    }
    println!(
        "first records in the interchange text format:\n{}",
        text.text()
    );

    // A second, deliberately skewed machine with idle-PE stealing on:
    // 75% of the task graph lands on PE 0, so the other PEs steal to
    // rebalance, and every steal leaves two latency records on the
    // thief — request→donate (how long the victim took to answer) and
    // splice→first-run (how long stolen work waited to execute).
    use converse::taskbench::exec::{run_graph_raw, RunOpts};
    use converse::taskbench::{GraphSpec, Pattern, TaskGraph};
    let steal_sink = MemorySink::new(4, 500_000);
    let g = std::sync::Arc::new(TaskGraph::generate(GraphSpec {
        pattern: Pattern::Random,
        seed: 42,
        width: 64,
        steps: 8,
    }));
    converse::core::run_with(
        MachineConfig::new(4).steal(true).trace(steal_sink.clone()),
        move |pe| {
            let opts = RunOpts {
                payload_bytes: 64,
                steal: true,
                steal_to0_pct: 75,
                grain_ns: 50_000,
                sleep_grain: true,
                ..RunOpts::default()
            };
            run_graph_raw(pe, &g, &opts);
        },
    );
    let ssum = steal_sink.summary();
    println!("steal-latency profile (StealLatency records, thief-side, ns):");
    println!(
        "{:>4} {:>7} {:>12} {:>12} {:>7} {:>12} {:>12}",
        "PE", "steals", "req→don p50", "req→don p99", "runs", "splice p50", "splice p99"
    );
    for (pe, s) in ssum.pes.iter().enumerate() {
        println!(
            "{:>4} {:>7} {:>12} {:>12} {:>7} {:>12} {:>12}",
            pe,
            s.steal_req_donate_samples,
            s.steal_req_donate_p50_ns,
            s.steal_req_donate_p99_ns,
            s.steal_splice_run_samples,
            s.steal_splice_run_p50_ns,
            s.steal_splice_run_p99_ns,
        );
    }
    let total_steals: u64 = ssum.pes.iter().map(|p| p.steals).sum();
    let total_lat: u64 = ssum.pes.iter().map(|p| p.steal_req_donate_samples).sum();
    println!("totals: {total_steals} steals, {total_lat} request→donate intervals timed");
}
