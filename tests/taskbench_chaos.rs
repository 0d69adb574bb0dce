//! Chaos matrix for the taskbench harness: the butterfly pattern —
//! every level is an all-to-all-ish exchange, so nothing completes if
//! anything is lost — under a lossy `FaultPlan`, on both sides of the
//! delivery-guarantee fence:
//!
//! * exactly-once channel: the reliability sublayer masks the drops and
//!   every dependency-order hash comes out right;
//! * at-most-once channel: drops are lost forever, and the run is
//!   *asserted to fail* validation — pinning that the guarantee
//!   distinction is real, not a label.

use converse::machine::{Delivery, FaultPlan, MachineConfig};
use converse::prelude::*;
use converse::taskbench::exec::{assert_machine_valid, run_graph_raw, RunOpts};
use converse::taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::Arc;
use std::time::Duration;

const PES: usize = 4;

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::lossy(seed, 0.2, 0.0, 0.3, 3)
}

fn butterfly(seed: u64) -> Arc<TaskGraph> {
    Arc::new(TaskGraph::generate(GraphSpec {
        pattern: Pattern::Butterfly,
        seed,
        width: 8,
        steps: 5,
    }))
}

/// Exactly-once under drop 0.2: completes, and every task's hash chain
/// over its predecessors' payloads matches the serial oracle.
#[test]
fn butterfly_completes_exactly_once_under_drops() {
    for seed in [1u64, 7, 1996] {
        let graph = butterfly(seed);
        let report = run_with(
            MachineConfig::new(PES).faults(lossy_plan(seed)),
            move |pe| {
                let opts = RunOpts {
                    payload_bytes: 128,
                    ..RunOpts::default()
                };
                let summary = run_graph_raw(pe, &graph, &opts);
                assert_machine_valid(pe, &graph, &summary, opts.payload_bytes);
            },
        );
        assert!(
            report.fault_stats.dropped > 0,
            "seed {seed}: the plan never actually dropped anything"
        );
        assert!(
            report.fault_stats.retransmitted > 0,
            "seed {seed}: drops were masked without retransmission?"
        );
    }
}

/// The same butterfly on an at-most-once channel must *fail*
/// validation: dropped dependency edges are gone forever, downstream
/// tasks never fire, and the bounded-progress mode surfaces that as a
/// validation error instead of a watchdog panic. Machine-wide, at least
/// one PE must report missing executions.
#[test]
fn butterfly_fails_validation_on_at_most_once() {
    let seed = 0xC0FFEEu64;
    let graph = butterfly(seed);
    let report = run_with(
        MachineConfig::new(PES)
            .channel("amo", Delivery::AtMostOnce)
            .faults(lossy_plan(seed)),
        move |pe| {
            let opts = RunOpts {
                payload_bytes: 128,
                channel: Some("amo".into()),
                // Bounded progress: with ~160 edges at drop 0.2 the run
                // wedges almost surely; don't block into the watchdog.
                give_up: Some(Duration::from_millis(1500)),
                ..RunOpts::default()
            };
            let summary = run_graph_raw(pe, &graph, &opts);
            let failed = summary.validate(&graph, opts.payload_bytes).is_err() as u64;
            // Collective verdict: every PE must agree the machine lost
            // work somewhere (the failing PE is seed-dependent).
            let op = pe.register_combiner(|a, b| {
                let x = u64::from_le_bytes(a.try_into().unwrap());
                let y = u64::from_le_bytes(b.try_into().unwrap());
                (x + y).to_le_bytes().to_vec()
            });
            let total = u64::from_le_bytes(
                pe.allreduce_bytes(failed.to_le_bytes().to_vec(), op)
                    .try_into()
                    .unwrap(),
            );
            assert!(
                total > 0,
                "at-most-once under drop 0.2 validated clean on every PE — \
                 the guarantee distinction is not real"
            );
        },
    );
    assert!(
        report.fault_stats.dropped > 0,
        "the plan never actually dropped anything"
    );
}
