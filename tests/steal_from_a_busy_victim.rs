//! A victim answers a steal request while it is busy with the work it
//! would give away, on every transport. On the shm rings the PE is the
//! only reader of its rings, and what it donates (the packets its
//! mailbox holds undrained) is gone once it next refills its intake; a
//! request that waited for that refill was answered with nothing.

use converse::machine::Transport;
use converse::prelude::*;
use converse::taskbench::exec::{assert_machine_valid, run_graph_raw, RunOpts};
use converse::taskbench::{GraphSpec, Pattern, TaskGraph};
use converse::trace::MemorySink;
use std::sync::Arc;

const PES: usize = 4;

/// 75 % of the tasks land on PE 0, whose grain sleeps, so the other
/// PEs go idle and steal from it. A wire records each donation on the
/// victim, which is the one PE whose trace this process holds in a
/// worker; in-process the sink holds every PE's.
#[test]
fn a_busy_victim_donates_on_each_transport() {
    for &transport in Transport::each() {
        let sink = MemorySink::new(PES, 500_000);
        let g = Arc::new(TaskGraph::generate(GraphSpec {
            pattern: Pattern::Random,
            seed: 42,
            width: 64,
            steps: 8,
        }));
        let cfg = MachineConfig::new(PES)
            .transport(transport)
            .steal(true)
            .trace(sink.clone());
        run_with(cfg, move |pe| {
            let opts = RunOpts {
                payload_bytes: 64,
                steal: true,
                steal_to0_pct: 75,
                grain_ns: 50_000,
                sleep_grain: true,
                ..RunOpts::default()
            };
            let summary = run_graph_raw(pe, &g, &opts);
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            pe.barrier();
            if pe.my_pe() == 0 {
                let steals: u64 = sink.summary().pes.iter().map(|p| p.steals).sum();
                assert!(
                    steals > 0,
                    "{}: PE 0 held 75 % of {} tasks and donated none",
                    pe.transport_name(),
                    g.num_tasks()
                );
            }
        });
    }
}
