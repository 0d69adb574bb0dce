//! The tables a run reads are the graph's own: one graph runs on
//! machines of several sizes back to back, and a graph generated after
//! another was dropped runs on its own tables.

use converse_machine::Pe;
use converse_taskbench::exec::{assert_machine_valid, run_graph_raw, Layer, PeSummary, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::Arc;

type Engine = fn(&Pe, &Arc<TaskGraph>, &RunOpts) -> PeSummary;

const ENGINES: [Engine; 3] = [
    run_graph_raw,
    |pe, g, opts| Layer::Charm.run(pe, g, opts),
    |pe, g, opts| Layer::Tsm.run(pe, g, opts),
];

fn run_all(pe: &Pe, g: &Arc<TaskGraph>) {
    let opts = RunOpts::default();
    for engine in ENGINES {
        let summary = engine(pe, g, &opts);
        assert_machine_valid(pe, g, &summary, opts.payload_bytes);
    }
}

#[test]
fn one_graph_validates_on_one_two_and_four_pes_back_to_back() {
    // Width 11 spreads unevenly over 2 and 4 PEs.
    let g = Arc::new(TaskGraph::generate(GraphSpec {
        pattern: Pattern::Random,
        seed: 51,
        width: 11,
        steps: 5,
    }));
    for num_pes in [1, 2, 4, 2, 1, 4] {
        let g = g.clone();
        converse_machine::run(num_pes, move |pe| {
            run_all(pe, &g);
            run_all(pe, &g);
        });
    }
}

#[test]
fn a_graph_generated_again_never_sees_the_dropped_ones_tables() {
    // Same task count, other edges and owners: a table kept for the
    // old graph would misplace the new one's digests.
    let specs = [
        (Pattern::Stencil1D, 16, 4),
        (Pattern::Random, 16, 4),
        (Pattern::Butterfly, 16, 4),
        (Pattern::Tree, 16, 4),
        (Pattern::Random, 12, 5),
    ];
    converse_machine::run(2, move |pe| {
        for round in 0..20u64 {
            let (pattern, width, steps) = specs[round as usize % specs.len()];
            let g = Arc::new(TaskGraph::generate(GraphSpec {
                pattern,
                seed: round,
                width,
                steps,
            }));
            run_all(pe, &g);
        }
    });
}
