//! A machine keeps running graphs after one of them gave up: the
//! engines' handlers are registered once per PE and serve whichever run
//! is current, so edges a wedged run left in flight must not be taken
//! for the next run's.

use converse_machine::{run_with, Delivery, FaultPlan, MachineConfig};
use converse_taskbench::exec::{assert_machine_valid, run_graph_charm, run_graph_raw, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::Arc;
use std::time::Duration;

const PES: usize = 4;

#[test]
fn a_run_after_one_that_gave_up_validates() {
    for seed in [1u64, 7, 1996] {
        let graph = Arc::new(TaskGraph::generate(GraphSpec {
            pattern: Pattern::Butterfly,
            seed,
            width: 8,
            steps: 5,
        }));
        let plan = FaultPlan::lossy(seed, 0.2, 0.1, 0.3, 3);
        let cfg = MachineConfig::new(PES)
            .channel("amo", Delivery::AtMostOnce)
            .faults(plan);
        run_with(cfg, move |pe| {
            // Gives up after one pass of the scheduler, with delayed and
            // duplicated edges of the first level still on their way:
            // they arrive during the runs below. (Without the epoch check
            // in the raw engine this test fails on every seed.)
            let lossy = RunOpts {
                payload_bytes: 64,
                channel: Some("amo".into()),
                give_up: Some(Duration::ZERO),
                ..RunOpts::default()
            };
            run_graph_raw(pe, &graph, &lossy);
            // The same handlers, a new run, the exactly-once channel.
            let opts = RunOpts {
                payload_bytes: 64,
                ..RunOpts::default()
            };
            for _ in 0..3 {
                let summary = run_graph_raw(pe, &graph, &opts);
                assert_machine_valid(pe, &graph, &summary, opts.payload_bytes);
            }
            let summary = run_graph_charm(pe, &graph, &opts);
            assert_machine_valid(pe, &graph, &summary, opts.payload_bytes);
        });
    }
}
