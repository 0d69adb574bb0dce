//! Exactly-once + dependency-order validation for every (pattern ×
//! engine) cell, in-process. The bench driver trusts these engines to
//! fail loudly; this is where that trust is earned.

use converse_machine::MachineConfig;
use converse_msg::pack::Packer;
use converse_msg::{HandlerId, Message};
use converse_taskbench::exec::{
    assert_machine_valid, run_graph_charm, run_graph_raw, run_graph_tsm, RunOpts,
};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::Arc;

const PES: usize = 4;

fn spec(pattern: Pattern, seed: u64) -> GraphSpec {
    GraphSpec {
        pattern,
        seed,
        width: 8,
        steps: 6,
    }
}

fn check_engine(
    name: &str,
    run: impl Fn(&converse_machine::Pe, &Arc<TaskGraph>, &RunOpts) -> converse_taskbench::exec::PeSummary
        + Send
        + Sync
        + 'static,
) {
    let run = Arc::new(run);
    for pattern in Pattern::ALL {
        let graph = Arc::new(TaskGraph::generate(spec(pattern, 7)));
        graph.validate_structure().expect("generator invariant");
        let run = run.clone();
        let g = graph.clone();
        converse_machine::run_with(MachineConfig::new(PES), move |pe| {
            let opts = RunOpts {
                payload_bytes: 48,
                ..RunOpts::default()
            };
            let summary = run(pe, &g, &opts);
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
        });
        println!("{name}/{} ok", pattern.label());
    }
}

#[test]
fn raw_engine_validates_every_pattern() {
    check_engine("raw", run_graph_raw);
}

#[test]
fn charm_engine_validates_every_pattern() {
    check_engine("charm", run_graph_charm);
}

#[test]
fn tsm_engine_validates_every_pattern() {
    check_engine("tsm", run_graph_tsm);
}

/// All three engines agree with the serial oracle on the same graph —
/// so they agree with each other, the apples-to-apples property the
/// bench matrix depends on — at a payload of two words, of two digest
/// blocks, and of the benchmark's large edge.
#[test]
fn engines_agree_on_one_graph() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Butterfly, 1996)));
    for payload_bytes in [16, 64, 16 * 1024] {
        let expected = graph.expected_outputs(payload_bytes);
        for engine in 0..3u8 {
            let (g, expected) = (graph.clone(), expected.clone());
            converse_machine::run_with(MachineConfig::new(PES), move |pe| {
                let opts = RunOpts {
                    payload_bytes,
                    ..RunOpts::default()
                };
                let summary = match engine {
                    0 => run_graph_raw(pe, &g, &opts),
                    1 => run_graph_charm(pe, &g, &opts),
                    _ => run_graph_tsm(pe, &g, &opts),
                };
                assert_machine_valid(pe, &g, &summary, payload_bytes);
                for (serial, out) in summary.local.iter().zip(&summary.outputs) {
                    assert_eq!(*out, Some(expected[*serial as usize]));
                }
            });
        }
        // The oracle itself is deterministic.
        assert_eq!(
            expected,
            TaskGraph::generate(spec(Pattern::Butterfly, 1996)).expected_outputs(payload_bytes)
        );
    }
}

/// A single PE machine must also work (matrix axis pe=1): no peers, all
/// edges are self-edges.
#[test]
fn single_pe_runs_all_engines() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Stencil1D, 1)));
    for engine in 0..3u8 {
        let g = graph.clone();
        converse_machine::run_with(MachineConfig::new(1), move |pe| {
            let opts = RunOpts::default();
            let summary = match engine {
                0 => run_graph_raw(pe, &g, &opts),
                1 => run_graph_charm(pe, &g, &opts),
                _ => run_graph_tsm(pe, &g, &opts),
            };
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
        });
    }
}

/// Payload size is load-bearing: validating with the wrong
/// `payload_bytes` must fail, proving the transmitted bytes (not just
/// task identity) feed the hash chain.
#[test]
fn payload_bytes_feed_the_hash_chain() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Tree, 7)));
    let g = graph.clone();
    converse_machine::run_with(MachineConfig::new(2), move |pe| {
        let opts = RunOpts {
            payload_bytes: 32,
            ..RunOpts::default()
        };
        let summary = run_graph_raw(pe, &g, &opts);
        summary.validate(&g, 32).expect("correct size validates");
        assert!(
            summary.validate(&g, 33).is_err(),
            "wrong payload size must fail hash validation"
        );
    });
}

/// A message no correct run sends — a dependency, READY or CREDIT naming
/// a task the graph does not have, or cut short — is a recorded
/// violation, not a panic of the PE that received it: the run finishes,
/// every task ran once with the right output, and validation says what
/// arrived.
#[test]
fn malformed_raw_messages_are_violations_not_panics() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Stencil1D, 7)));
    let n = graph.num_tasks() as u32;
    converse_machine::run_with(MachineConfig::new(1), move |pe| {
        let opts = RunOpts::default();
        // The first run registers the engine's handlers, in this order
        // behind whatever the machine has, and is epoch 0.
        let base = pe.num_handlers() as u32;
        let (dep, ready, credit) = (base, base + 1, base + 2);
        let summary = run_graph_raw(pe, &graph, &opts);
        assert_machine_valid(pe, &graph, &summary, opts.payload_bytes);
        // Queued now, served by the next run (epoch 1) before its edges.
        let body = || Packer::new().u32(1);
        let bad: [(u32, Packer); 10] = [
            (dep, body().u32(n).u32(0).bytes(&[0; 16])),
            (dep, body().u32(u32::MAX).u32(0).bytes(&[0; 16])),
            (dep, body().u32(8)),
            (dep, body().u32(8).u32(0).u32(100).raw(&[0; 3])),
            (ready, body().u32(n)),
            (ready, body().u32(8).raw(&[0; 3])),
            (ready, body()),
            (credit, body().u32(n).u64(0)),
            (credit, body().u32(0)),
            (credit, Packer::new().raw(&[1, 0])),
        ];
        let sent = bad.len();
        for (handler, body) in bad {
            pe.sync_send_and_free(0, Message::new(HandlerId(handler), &body.finish()));
        }
        let summary = run_graph_raw(pe, &graph, &opts);
        assert_eq!(summary.violations.len(), sent, "{:?}", summary.violations);
        let err = summary.validate(&graph, opts.payload_bytes).unwrap_err();
        assert!(err.starts_with("protocol violation"), "{err}");
        let expected = graph.expected_outputs(opts.payload_bytes);
        assert!(summary.execs.iter().all(|&e| e == 1));
        for (serial, out) in summary.local.iter().zip(&summary.outputs) {
            assert_eq!(*out, Some(expected[*serial as usize]));
        }
    });
}
