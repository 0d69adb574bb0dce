//! Idle-PE work stealing fences: relocating staged work must not
//! weaken any guarantee the scheduler or the reliability sublayer
//! gives.
//!
//! * **Relocation happens and stays exactly-once**: a skewed
//!   relocatable taskbench run on a steal-enabled machine must record
//!   real `Event::Steal` traffic *and* pass full dependency-hash
//!   validation — stolen tasks execute exactly once, with the payload
//!   bytes they were packaged with.
//! * **Chaos**: the same property under a lossy fault plan (drop 0.2,
//!   seeds 1/7/1996) — stealing composes with retransmission because it
//!   only ever touches the staged list, *after* the reliability
//!   sublayer has sequenced and deduplicated.
//! * **Dual transport**: the steal-mode run completes and validates
//!   with PEs as threads and as separate OS processes over the wire
//!   (STEAL_REQ/DONATE frames).

use converse::machine::{run_with, FaultPlan, LinkFaults, MachineConfig, Transport};
use converse::taskbench::exec::{assert_machine_valid, run_graph_raw, RunOpts};
use converse::taskbench::{GraphSpec, Pattern, TaskGraph};
use converse::trace::MemorySink;
use std::sync::Arc;
use std::time::Duration;

const PES: usize = 4;

fn graph(pattern: Pattern, seed: u64, width: usize, steps: usize) -> Arc<TaskGraph> {
    Arc::new(TaskGraph::generate(GraphSpec {
        pattern,
        seed,
        width,
        steps,
    }))
}

/// Relocatable execution, heavily skewed onto PE 0, with a sleepy
/// grain so the hotspot yields the core and the other PEs actually go
/// idle (and steal) even on single-core hosts.
fn steal_opts(grain_ns: u64) -> RunOpts {
    RunOpts {
        payload_bytes: 64,
        steal: true,
        steal_to0_pct: 75,
        grain_ns,
        sleep_grain: true,
        ..RunOpts::default()
    }
}

/// The chaos suite's canonical lossy mix.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .faults(LinkFaults {
            drop: 0.2,
            dup: 0.0,
            delay: 0.3,
            max_delay_slots: 3,
        })
        .retransmit(Duration::from_micros(600), Duration::from_millis(8))
        .tick(Duration::from_micros(250))
}

/// A steal-enabled machine must actually steal under a manufactured
/// hotspot — and every relocated task still executes exactly once with
/// the right dependency-order hash.
#[test]
fn stealing_relocates_work_and_stays_exactly_once() {
    let sink = MemorySink::new(PES, 500_000);
    let g = graph(Pattern::Random, 42, 64, 8);
    let g2 = g.clone();
    run_with(
        MachineConfig::new(PES).steal(true).trace(sink.clone()),
        move |pe| {
            let opts = steal_opts(50_000);
            let summary = run_graph_raw(pe, &g2, &opts);
            assert_machine_valid(pe, &g2, &summary, opts.payload_bytes);
        },
    );
    let summary = sink.summary();
    let steals: u64 = summary.pes.iter().map(|p| p.steals).sum();
    let stolen: u64 = summary.pes.iter().map(|p| p.stolen_msgs).sum();
    assert!(
        steals > 0,
        "75% of {} tasks were routed to PE 0 yet no idle PE ever stole",
        g.num_tasks()
    );
    assert!(stolen >= steals, "each steal donates at least one message");
}

/// The same machine with stealing disabled must record zero steal
/// events — the protocol is strictly opt-in.
#[test]
fn no_stealing_without_the_machine_opting_in() {
    let sink = MemorySink::new(PES, 500_000);
    let g = graph(Pattern::Random, 42, 32, 4);
    run_with(MachineConfig::new(PES).trace(sink.clone()), move |pe| {
        let opts = steal_opts(5_000);
        let summary = run_graph_raw(pe, &g, &opts);
        assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
    });
    let steals: u64 = sink.summary().pes.iter().map(|p| p.steals).sum();
    assert_eq!(steals, 0, "machine never enabled stealing");
}

/// Chaos fence: stealing composes with the reliability sublayer. Under
/// drop 0.2 every dependency edge may retransmit; the stolen READY
/// messages come off the *staged* list — already sequenced and
/// deduplicated — so exactly-once execution and the dependency-order
/// hashes must survive unchanged.
#[test]
fn stealing_preserves_exactly_once_under_drops() {
    for seed in [1u64, 7, 1996] {
        let g = graph(Pattern::Butterfly, seed, 8, 5);
        let report = run_with(
            MachineConfig::new(PES).steal(true).faults(lossy_plan(seed)),
            move |pe| {
                let opts = RunOpts {
                    payload_bytes: 128,
                    steal: true,
                    steal_to0_pct: 75,
                    ..RunOpts::default()
                };
                let summary = run_graph_raw(pe, &g, &opts);
                assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            },
        );
        assert!(
            report.fault_stats.dropped > 0,
            "seed {seed}: the plan never actually dropped anything"
        );
    }
}

/// Transport conformance: the identical steal-mode program validates
/// with PEs as threads of one process and as separate OS processes —
/// where stealing rides STEAL_REQ/DONATE wire frames instead of a
/// shared-memory list splice. On hosts with `Transport::ShmRing`,
/// those same steal frames travel the lock-free rings.
#[test]
fn steal_mode_validates_on_each_transport() {
    for &transport in Transport::each() {
        let g = graph(Pattern::Random, 7, 16, 6);
        run_with(
            MachineConfig::new(PES).transport(transport).steal(true),
            move |pe| {
                let opts = steal_opts(20_000);
                let summary = run_graph_raw(pe, &g, &opts);
                assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            },
        );
    }
}
