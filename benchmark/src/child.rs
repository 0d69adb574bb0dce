//! A child process: boots exactly one machine (`run_with` is called once
//! per process, from the main thread, so that worker processes of a
//! multi-process transport re-executing this argv arrive at the same
//! call) and prints what its PEs reported.

use crate::collect::{pin_to_cpu, Usage};
use crate::harness::{ChildArgs, Machine, Workload};
use crate::taskgraph::SpanSink;
use crate::{exchange, probes, taskgraph};
use converse_machine::{run_with, FaultPlan, MachineConfig, Transport};
use std::io::Write as _;

/// The lossy machine's plan: 10 % drop, 5 % duplication, 10 % delayed by
/// up to 2 pump slots, default rto/tick, seeded from `--seed`.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::lossy(seed, 0.10, 0.05, 0.10, 2)
}

/// One hardware thread per process (see [`pin_to_cpu`]): the PE threads
/// of an in-process machine time-slice one — no two of them ever run at
/// the same instant, so what the gated workloads time is each layer's
/// work per message, not contention between PEs; the worker processes of
/// a multi-process machine get one each. Worker `r` re-executes this
/// program with `CONVERSE_WORKER=r` in its environment (the launcher's
/// documented protocol) and pins itself; the launcher, which only routes
/// control frames, stays unpinned so the workers inherit the full mask.
fn pin_process(w: Workload) -> Option<usize> {
    let rank = std::env::var("CONVERSE_WORKER")
        .ok()
        .and_then(|r| r.parse::<usize>().ok());
    match rank {
        Some(r) => pin_to_cpu(r + 1),
        None if w.multi_process() => None,
        None => pin_to_cpu(0),
    }
}

/// Boot the machine `args` names with **default configuration** —
/// `MachineConfig::new(n)`: its default idle spin (which, in a process
/// pinned to one hardware thread, it resolves to 0: an idle PE parks at
/// once), thread backend `Auto`, `QueueKind::Csd`, `NullSink`; no env
/// vars, no knobs — run the workload's entry on it and print the PEs'
/// reports plus the machine-level counters of the `RunReport`.
pub fn run_machine(args: ChildArgs) {
    let w = args.workload;
    // Before `MachineConfig::new`: its idle-spin default asks how many
    // hardware threads the process may use, and gets 1.
    let cpu = pin_process(w);
    let mut cfg = MachineConfig::new(w.pes()).capture_output();
    if w == Workload::ExchangeShmring {
        cfg = cfg.transport(Transport::ShmRing);
    }
    if args.machine == Machine::Lossy {
        cfg = cfg.faults(lossy_plan(args.seed));
    }
    // Task graphs run inside the library, so their traced run observes
    // handlers through the public trace hook instead of own brackets.
    let sink = (args.trace && w == Workload::TaskgraphInproc).then(|| SpanSink::new(w.pes()));
    if let Some(s) = &sink {
        cfg = cfg.trace(s.clone());
    }
    let report = run_with(cfg, move |pe| match args.workload {
        Workload::TaskgraphInproc => taskgraph::entry(pe, &args, sink.as_deref()),
        _ => exchange::entry(pe, &args),
    });
    let mut out = std::io::stdout().lock();
    let mut put = |line: String| writeln!(out, "{line}").expect("write to the driver");
    for line in &report.output {
        put(line.clone());
    }
    let f = &report.fault_stats;
    for (key, v) in [
        ("total_msgs", report.total_msgs()),
        ("transmissions", f.transmissions),
        ("dropped", f.dropped),
        ("retransmitted", f.retransmitted),
        ("dedup_dropped", f.dedup_dropped),
    ] {
        put(format!("M m {key} {v}"));
    }
    put(format!(
        "M m launcher_rss_mb {}",
        Usage::now().max_rss_kb as f64 / 1024.0
    ));
    put(format!("M m pinned_cpu {}", cpu.map_or(-1.0, |c| c as f64)));
}

/// The probes child: no machine, one thread, pinned like the machines.
pub fn run_probes(seconds: f64) {
    pin_to_cpu(0);
    for (name, v) in probes::run_all(seconds) {
        println!("M m {name} {v}");
    }
}
