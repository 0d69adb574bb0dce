//! The run protocol of the three engines: one opening barrier, a
//! closing one only on tSM, and a Charm group that outlives its run.
//!
//! **Census.** From a PE's second run of an engine on, a run sends its
//! graph's dependency edges and 2(P − 1) messages per barrier (an up and
//! a down wave over the spanning tree), nothing else. Each PE counts its
//! own sends, which only it advances, between its calls; no collective
//! runs inside the counted window.
//!
//! **Back to back.** Runs of different engines follow one another with
//! no collective between them, on every transport and under an
//! exactly-once fault plan, and every one of them validates afterwards.
//! A Charm run that gave up retires its group: the edges it left in
//! flight are dropped, and the clean runs after it validate.

use converse_machine::{run_with, FaultPlan, LinkFaults, MachineConfig, Pe, Transport};
use converse_taskbench::exec::{
    assert_machine_valid, run_graph_charm, run_graph_raw, run_graph_tsm, PeSummary, RunOpts,
};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Engine = fn(&Pe, &Arc<TaskGraph>, &RunOpts) -> PeSummary;

/// Each engine with the barriers of a run after its first. tSM keeps a
/// closing barrier, which correctness does not need, for its speed.
const ENGINES: [(&str, Engine, u64); 3] = [
    ("raw", run_graph_raw, 1),
    ("charm", run_graph_charm, 1),
    ("tsm", run_graph_tsm, 2),
];

/// Counted runs per engine, after the first.
const RUNS: u64 = 3;

fn graph(pattern: Pattern, seed: u64) -> Arc<TaskGraph> {
    Arc::new(TaskGraph::generate(GraphSpec {
        pattern,
        seed,
        width: 8,
        steps: 5,
    }))
}

/// Dependency edges of `g`: one message each on every engine.
fn edges(g: &TaskGraph) -> u64 {
    let tasks = (0..g.num_tasks() as u32).map(|s| g.task_of_serial(s));
    tasks.map(|id| g.deps(id).len() as u64).sum()
}

/// Messages this PE has sent so far.
fn sent(pe: &Pe) -> u64 {
    pe.load_snapshot()[pe.my_pe()].traffic.msgs_sent
}

/// Machine-wide messages sent by each of `RUNS` runs of `engine` on
/// `g`, after a first run that may set up what later runs reuse.
fn msgs_per_run(num_pes: usize, g: &Arc<TaskGraph>, engine: Engine) -> u64 {
    let total = Arc::new(AtomicU64::new(0));
    let (t, g) = (total.clone(), g.clone());
    run_with(MachineConfig::new(num_pes), move |pe| {
        let opts = RunOpts::default();
        let first = engine(pe, &g, &opts);
        assert_machine_valid(pe, &g, &first, opts.payload_bytes);
        let before = sent(pe);
        for _ in 0..RUNS {
            let summary = engine(pe, &g, &opts);
            summary
                .validate(&g, opts.payload_bytes)
                .unwrap_or_else(|e| panic!("PE {}: {e}", pe.my_pe()));
        }
        t.fetch_add(sent(pe) - before, Ordering::Relaxed);
    });
    let total = total.load(Ordering::Relaxed);
    assert_eq!(total % RUNS, 0, "the runs sent {total} messages in all");
    total / RUNS
}

#[test]
fn a_run_sends_its_edges_and_its_barriers() {
    for num_pes in [2, 4] {
        for pattern in [Pattern::Stencil1D, Pattern::Random] {
            let g = graph(pattern, 1996);
            for (name, engine, barriers) in ENGINES {
                let msgs = msgs_per_run(num_pes, &g, engine);
                let (edges, barrier) = (edges(&g), barriers * 2 * (num_pes as u64 - 1));
                println!(
                    "{name} on {num_pes} PEs, {}: {msgs} messages a run = {edges} edges + {}",
                    pattern.label(),
                    msgs as i64 - edges as i64
                );
                assert_eq!(
                    msgs,
                    edges + barrier,
                    "{name} on {num_pes} PEs, {}: a run sends its {edges} edges and \
                     {barrier} barrier messages",
                    pattern.label()
                );
            }
        }
    }
}

/// The exactly-once fault mix of the chaos suite: drops, duplicates and
/// delays, repaired by the reliability sublayer.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .faults(LinkFaults {
            drop: 0.2,
            dup: 0.1,
            delay: 0.3,
            max_delay_slots: 3,
        })
        .retransmit(Duration::from_micros(600), Duration::from_millis(8))
        .tick(Duration::from_micros(250))
}

/// raw → Charm → tSM → Charm → raw with no collective between the runs,
/// then each summary validated machine-wide.
fn back_to_back(pe: &Pe, g: &Arc<TaskGraph>) {
    let opts = RunOpts {
        payload_bytes: 64,
        ..RunOpts::default()
    };
    let order: [Engine; 5] = [
        run_graph_raw,
        run_graph_charm,
        run_graph_tsm,
        run_graph_charm,
        run_graph_raw,
    ];
    let summaries: Vec<PeSummary> = order.iter().map(|run| run(pe, g, &opts)).collect();
    for summary in &summaries {
        assert_machine_valid(pe, g, summary, opts.payload_bytes);
    }
}

#[test]
fn engines_run_back_to_back_in_process() {
    for pattern in [Pattern::Stencil1D, Pattern::Random, Pattern::Butterfly] {
        let g = graph(pattern, 7);
        run_with(MachineConfig::new(4), move |pe| back_to_back(pe, &g));
    }
}

#[test]
fn engines_run_back_to_back_under_faults() {
    for seed in [1u64, 7, 1996] {
        let g = graph(Pattern::Butterfly, seed);
        let cfg = MachineConfig::new(4).faults(lossy_plan(seed));
        run_with(cfg, move |pe| back_to_back(pe, &g));
    }
}

#[test]
fn engines_run_back_to_back_over_a_socket() {
    let g = graph(Pattern::Stencil1D, 1996);
    let cfg = MachineConfig::new(4).transport(Transport::Socket);
    run_with(cfg, move |pe| back_to_back(pe, &g));
}

#[test]
fn charm_runs_after_one_that_gave_up_validate() {
    for seed in [1u64, 7, 1996] {
        let g = graph(Pattern::Butterfly, seed);
        let gave_up = Arc::new(AtomicBool::new(false));
        let flag = gave_up.clone();
        let cfg = MachineConfig::new(4).faults(lossy_plan(seed));
        run_with(cfg, move |pe| {
            let opts = RunOpts {
                payload_bytes: 64,
                ..RunOpts::default()
            };
            // One pass of the scheduler: dropped and delayed edges of the
            // first levels are still on their way during the runs below.
            let bounded = RunOpts {
                give_up: Some(Duration::ZERO),
                ..opts.clone()
            };
            if run_graph_charm(pe, &g, &bounded).gave_up {
                flag.store(true, Ordering::Relaxed);
            }
            let clean: Vec<PeSummary> = (0..3).map(|_| run_graph_charm(pe, &g, &opts)).collect();
            for summary in &clean {
                assert_machine_valid(pe, &g, summary, opts.payload_bytes);
            }
        });
        assert!(
            gave_up.load(Ordering::Relaxed),
            "seed {seed}: the bounded run finished, so nothing was left in flight"
        );
    }
}
