//! Lock pairs per task, counted by the `parking_lot` shim's census like
//! `crates/machine/tests/lock_census.rs` counts them per message.
//!
//! On a 1-PE machine every dependency edge is a message the PE sends to
//! itself. Such a send goes onto the PE's local queue and a drain moves
//! it into the intake, neither of which locks, so **the 1-PE rows read
//! 0.00 for raw, Charm and tSM alike**. The schedule has no timing in
//! it, so the counts repeat exactly.
//!
//! The engines' own state — a run's `Progress`, the PE's fan-out
//! scratch, the run an engine currently serves — is owner-only cells,
//! and Charm, its groups, `ldb` and quiescence keep theirs in owner-only
//! cells too: **taskbench adds no lock to what its carrier takes**.
//!
//! On 2 PEs the edges that cross to the other PE still pay the mailbox:
//! a pair to send, a pair per drain that finds mail, and a pair per idle
//! park. Per task and per PE that reads 0.95 raw, 1.00 Charm and 0.96
//! tSM on a quiet 2-vCPU host. How often a PE parks, and how much mail a
//! drain finds, depend on timing (the same run read up to 1.72 under
//! parallel test load), so that row is bounded at 2.5, not pinned.
#![cfg(debug_assertions)]

use converse_machine::{MachineConfig, Pe};
use converse_taskbench::exec::{assert_machine_valid, run_graph_raw, Layer, PeSummary, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use converse_threads::CthBackend;
use parking_lot::census;
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
    let before = census::locks();
    for _ in 0..runs {
        let summary = run(pe, g, &opts);
        assert!(summary.violations.is_empty() && !summary.gave_up);
    }
    let pairs = (census::locks() - before) as f64;
    let tasks = (0..g.num_tasks() as u32).map(|s| g.task_of_serial(s));
    let edges: usize = tasks.map(|id| g.deps(id).len()).sum();
    let per_task = |n: f64| n / g.num_tasks() as f64;
    (per_task(pairs / runs as f64), per_task(edges as f64))
}

/// Lock pairs per task of raw, Charm and tSM on the stencil graph on a
/// machine of `num_pes` PEs (each PE's own), checked by `check`.
fn per_layer(num_pes: usize, check: fn(&str, f64)) {
    if !CthBackend::fiber_supported() {
        return;
    }
    let g = Arc::new(TaskGraph::generate(GraphSpec {
        pattern: Pattern::Stencil1D,
        seed: 1996,
        width: 16,
        steps: 8,
    }));
    let cfg = MachineConfig::new(num_pes).thread_backend(CthBackend::Fiber.to_config());
    converse_machine::run_with(cfg, move |pe| {
        let (raw, edges) = pairs_per_task(pe, &g, 20, run_graph_raw);
        println!(
            "{num_pes} PE(s), PE {}: raw {raw:.2} lock pairs per task at {edges:.2} edges per task",
            pe.my_pe()
        );
        check("raw", raw);
        for layer in [Layer::Charm, Layer::Tsm] {
            let (pairs, _) = pairs_per_task(pe, &g, 20, |pe, g, opts| layer.run(pe, g, opts));
            println!(
                "{num_pes} PE(s), PE {}: {} {pairs:.2} lock pairs per task",
                pe.my_pe(),
                layer.label()
            );
            check(layer.label(), pairs);
        }
    });
}

#[test]
fn on_one_pe_no_layer_takes_a_lock_pair() {
    per_layer(1, |layer, pairs| {
        assert_eq!(pairs, 0.0, "{layer}: {pairs:.2} lock pairs per task");
    });
}

#[test]
fn on_two_pes_only_the_peer_edges_take_lock_pairs() {
    per_layer(2, |layer, pairs| {
        assert!(
            pairs > 0.0 && pairs <= 2.5,
            "{layer}: {pairs:.2} lock pairs per task, outside (0, 2.5]"
        );
    });
}
