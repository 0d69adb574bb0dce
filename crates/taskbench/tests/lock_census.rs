//! Lock pairs per task, counted by the `parking_lot` shim's census like
//! `crates/machine/tests/lock_census.rs` counts them per message. On a
//! 1-PE machine every dependency edge is a loopback message: one pair
//! of the mailbox's `inbox` to send it, and its share of the one pair
//! a drain takes — 1.03 a message on this graph, whose levels are
//! drained in batches. The schedule has no timing in it, so the
//! counts repeat exactly.
//!
//! The engines' own state — a run's `Progress`, the PE's fan-out
//! scratch, the run an engine currently serves — is owner-only cells:
//! **taskbench adds no lock to what its carrier takes**. The raw
//! engine's carrier is the machine layer alone, so its count pins that:
//! 2.60 pairs a task at 2.52 edges a task (8.62 with a `Progress` and a
//! `current` lock per arrival and a `Scratch` lock per fan-out — and a
//! re-entrant opening deadlocked where it now panics).
//!
//! Charm, its groups, `ldb` and quiescence keep their PE-local state in
//! owner-only cells too, so every pair the Charm engine takes is the
//! mailbox's: the same 2.52 sends a task as raw, and 0.77 drain pairs
//! where raw takes 0.08 — each invocation is a trip through the
//! scheduler queue (the §3.3 idiom), and the scheduler drains the
//! network before every queue entry, so its drains find a task's few
//! messages where raw's find a level's: 3.29 a task. (It read 9.12
//! while each field had its mutex; the pairs that went were nearly all
//! `branches`, locked twice per group entry.) tSM reads 3.39 for the
//! same reason. Both are bounded just above what they read.
#![cfg(debug_assertions)]

use converse_machine::{MachineConfig, Pe};
use converse_taskbench::exec::{assert_machine_valid, run_graph_raw, Layer, PeSummary, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use converse_threads::CthBackend;
use std::sync::Arc;

/// Lock pairs per task and dependency edges per task of `runs` runs of
/// `run` on `g`, after one to warm up (handler registration, pools).
fn pairs_per_task(
    pe: &Pe,
    g: &Arc<TaskGraph>,
    runs: u64,
    run: impl Fn(&Pe, &Arc<TaskGraph>, &RunOpts) -> PeSummary,
) -> (f64, f64) {
    let opts = RunOpts::default();
    let summary = run(pe, g, &opts);
    assert_machine_valid(pe, g, &summary, opts.payload_bytes);
    let before = parking_lot::lock_census();
    for _ in 0..runs {
        let summary = run(pe, g, &opts);
        assert!(summary.violations.is_empty() && !summary.gave_up);
    }
    let pairs = (parking_lot::lock_census() - before) as f64;
    let tasks = (0..g.num_tasks() as u32).map(|s| g.task_of_serial(s));
    let edges: usize = tasks.map(|id| g.deps(id).len()).sum();
    let per_task = |n: f64| n / g.num_tasks() as f64;
    (per_task(pairs / runs as f64), per_task(edges as f64))
}

#[test]
fn taskbench_adds_no_lock_to_its_carriers() {
    if !CthBackend::fiber_supported() {
        return;
    }
    let g = Arc::new(TaskGraph::generate(GraphSpec {
        pattern: Pattern::Stencil1D,
        seed: 1996,
        width: 16,
        steps: 8,
    }));
    let cfg = MachineConfig::new(1).thread_backend(CthBackend::Fiber.to_config());
    converse_machine::run_with(cfg, move |pe| {
        let (raw, edges) = pairs_per_task(pe, &g, 20, run_graph_raw);
        println!("raw: {raw:.2} lock pairs per task at {edges:.2} edges per task");
        assert!(
            raw <= 1.1 * edges,
            "raw: {raw:.2} lock pairs per task, its {edges:.2} messages take 1.03 each"
        );
        for (layer, bound) in [(Layer::Charm, 3.35), (Layer::Tsm, 3.45)] {
            let (pairs, _) = pairs_per_task(pe, &g, 20, |pe, g, opts| layer.run(pe, g, opts));
            println!("{}: {pairs:.2} lock pairs per task", layer.label());
            assert!(
                pairs <= bound,
                "{}: {pairs:.2} lock pairs per task, more than {bound}",
                layer.label()
            );
        }
    });
}
