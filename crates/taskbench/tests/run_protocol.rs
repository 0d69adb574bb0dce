//! The run protocol of the three engines: raw and Charm runs with no
//! barrier, tSM runs with an opening and a closing one, and a Charm
//! group that outlives its run.
//!
//! **Census.** From a PE's second run of an engine on, a raw or Charm run
//! sends its graph's dependency edges and nothing else; a tSM run adds
//! 2(P − 1) messages per barrier (an up and a down wave over the
//! spanning tree). Each PE counts its own sends, which only it advances,
//! between its calls; no collective runs inside the counted window.
//!
//! **Back to back.** Runs of different engines follow one another with
//! no collective between them, on every transport and under an
//! exactly-once fault plan, and every one of them validates afterwards.
//! A Charm run that gave up retires its group: the edges it left in
//! flight are dropped, and the clean runs after it validate.
//!
//! **Early edges.** With one PE slowed down, the others enter the next
//! run while it is still in this one, and their edges reach it early: it
//! holds them until it enters their run.

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
    ("raw", run_graph_raw, 0),
    ("charm", run_graph_charm, 0),
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
fn raw_and_charm_runs_send_their_edges_only_and_tsm_two_barriers_more() {
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

/// Busy-work per task on the slowed PE: long enough that the other PEs
/// finish a run, enter the next and send its edges while it is still in
/// this one.
const SLOW_GRAIN_NS: u64 = 200_000;

/// Charm, then raw, then Charm, three times over with no collective
/// between them, PE 1 slowed by a grain on its own calls; each summary
/// validated afterwards. A first raw and a first Charm run, with `first`,
/// register the handlers and create the group, whose collectives would
/// otherwise keep the PEs together; they validate unless bounded.
/// Returns whether one of them gave up on this PE.
fn early_edges(pe: &Pe, g: &Arc<TaskGraph>, first: &RunOpts) -> bool {
    let opts = RunOpts {
        payload_bytes: 64,
        ..RunOpts::default()
    };
    let set_up = [run_graph_raw(pe, g, first), run_graph_charm(pe, g, first)];
    if first.give_up.is_none() {
        for summary in &set_up {
            assert_machine_valid(pe, g, summary, first.payload_bytes);
        }
    }
    let slowed = RunOpts {
        grain_ns: if pe.my_pe() == 1 { SLOW_GRAIN_NS } else { 0 },
        ..opts.clone()
    };
    let order: [Engine; 3] = [run_graph_charm, run_graph_raw, run_graph_charm];
    let summaries: Vec<PeSummary> = (0..3)
        .flat_map(|_| order.iter().map(|run| run(pe, g, &slowed)))
        .collect();
    for summary in &summaries {
        assert_machine_valid(pe, g, summary, opts.payload_bytes);
    }
    set_up.iter().any(|s| s.gave_up)
}

#[test]
fn a_slowed_pe_holds_the_edges_of_runs_it_has_not_entered() {
    for pattern in [Pattern::Stencil1D, Pattern::Random] {
        for num_pes in [2, 4] {
            let g = graph(pattern, 1996);
            // A dropped early edge leaves its run waiting for ever: the
            // watchdog turns that into a failure.
            let cfg = MachineConfig::new(num_pes).block_timeout(Duration::from_secs(5));
            let clean = RunOpts {
                payload_bytes: 64,
                ..RunOpts::default()
            };
            run_with(cfg, move |pe| {
                early_edges(pe, &g, &clean);
            });
        }
    }
}

#[test]
fn a_slowed_pe_holds_early_edges_after_a_run_that_gave_up() {
    for seed in [1u64, 7, 1996] {
        let g = graph(Pattern::Butterfly, seed);
        let cfg = MachineConfig::new(4)
            .faults(lossy_plan(seed))
            .block_timeout(Duration::from_secs(5));
        // The first raw and Charm runs give up after one pass of the
        // scheduler: their edges are still on their way during the runs
        // after them.
        let bounded = RunOpts {
            payload_bytes: 64,
            give_up: Some(Duration::ZERO),
            ..RunOpts::default()
        };
        let gave_up = Arc::new(AtomicBool::new(false));
        let flag = gave_up.clone();
        run_with(cfg, move |pe| {
            if early_edges(pe, &g, &bounded) {
                flag.store(true, Ordering::Relaxed);
            }
        });
        assert!(
            gave_up.load(Ordering::Relaxed),
            "seed {seed}: the bounded runs finished, so nothing was left in flight"
        );
    }
}
