//! Idle-PE work stealing: makespan on manufactured hotspots.
//!
//! Two workloads, each with stealing off and on, on otherwise identical
//! machines:
//!
//! * **taskbench/random**: a seeded random dependency graph run in
//!   relocatable mode with 87% of READY messages skewed onto PE 0
//!   (`RunOpts::steal_to0_pct`) and a sleepy 250 µs grain, at 2/4/8
//!   PEs. Stealing off = the identical skewed protocol on a machine
//!   that never steals; the delta is pure work relocation. Every cell
//!   validates (exactly-once + dependency-order hashes) before its
//!   time counts.
//! * **bnb/knapsack**: the §2.3 prioritized branch-and-bound, nodes
//!   deposited through the load balancer (which marks them
//!   relocatable), comparing `LdbPolicy::Random` against
//!   `LdbPolicy::Measured` with stealing on — informational rows, no
//!   gate (B&B node counts vary with exploration order).
//!
//! The gate: at 8 PEs the taskbench makespan with stealing on must be
//! **≥ 1.5× better** than with stealing off. `STEAL_GATE=off` to
//! re-baseline, `STEAL_SMOKE=1` for the reduced CI run (the gated 8-PE
//! pair only, 1 rep, no JSON rewrite). Full runs write
//! `BENCH_steal.json`.
//!
//! ```sh
//! cargo run --release -p converse-bench --bin steal_bench
//! ```

use converse_core::{csd_exit_scheduler, csd_scheduler, Quiescence};
use converse_ldb::{Ldb, LdbPolicy};
use converse_machine::{run_with, HandlerId, MachineConfig, Message};
use converse_msg::Priority;
use converse_taskbench::exec::{assert_machine_valid, run_graph_raw, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const WIDTH: usize = 64;
const STEPS: usize = 8;
const SEED: u64 = 1996;
const SKEW_PCT: u8 = 87;
const GRAIN_NS: u64 = 250_000;
const GATE_PES: usize = 8;
const GATE_RATIO: f64 = 1.5;

struct Row {
    kind: &'static str,
    workload: &'static str,
    pes: usize,
    steal: bool,
    ldb: &'static str,
    tasks: usize,
    elapsed_ns: u64,
}

/// One validated taskbench cell: the skewed relocatable random graph,
/// timed on PE 0 between machine-wide barriers, best of `reps`.
fn taskbench_cell(pes: usize, steal: bool, reps: usize) -> Row {
    let graph = Arc::new(TaskGraph::generate(GraphSpec {
        pattern: Pattern::Random,
        seed: SEED,
        width: WIDTH,
        steps: STEPS,
    }));
    let g = graph.clone();
    let mut cfg = MachineConfig::new(pes).capture_output();
    if steal {
        cfg = cfg.steal(true);
    }
    let report = run_with(cfg, move |pe| {
        let opts = RunOpts {
            grain_ns: GRAIN_NS,
            sleep_grain: true,
            steal: true, // relocatable protocol in BOTH cells; the machine knob differs
            steal_to0_pct: SKEW_PCT,
            payload_bytes: 16,
            ..RunOpts::default()
        };
        let mut best = u64::MAX;
        for _ in 0..reps {
            pe.barrier();
            let t0 = Instant::now();
            let summary = run_graph_raw(pe, &g, &opts);
            let dt = t0.elapsed().as_nanos() as u64;
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            best = best.min(dt);
        }
        if pe.my_pe() == 0 {
            pe.cmi_printf(format!("CELL_NS {best}"));
        }
    });
    Row {
        kind: "taskbench",
        workload: "random-skewed",
        pes,
        steal,
        ldb: "-",
        tasks: graph.num_tasks(),
        elapsed_ns: cell_ns(&report.output),
    }
}

/// The bnb_knapsack example's kernel, parameterized by balancer policy
/// and steal knob; returns elapsed plus nodes expanded.
fn bnb_cell(pes: usize, policy: LdbPolicy, ldb: &'static str, steal: bool) -> Row {
    const ITEMS: [(i64, i64); 12] = [
        (30, 10),
        (20, 9),
        (25, 12),
        (40, 20),
        (50, 25),
        (10, 5),
        (12, 6),
        (22, 11),
        (35, 18),
        (15, 8),
        (45, 24),
        (30, 16),
    ];
    const CAPACITY: i64 = 60;
    fn bound(taken_value: i64, weight: i64, next: usize) -> i64 {
        let mut v = taken_value as f64;
        let mut w = weight;
        for (value, wt) in ITEMS.iter().skip(next) {
            if w + wt <= CAPACITY {
                w += wt;
                v += *value as f64;
            } else {
                let slack = (CAPACITY - w) as f64 / *wt as f64;
                v += *value as f64 * slack;
                break;
            }
        }
        v.ceil() as i64
    }

    // Machine-wide incumbent: the bnb cells are inproc-only, so one
    // shared atomic stands in for the example's incumbent chare group —
    // the bench isolates *scheduling*, not incumbent propagation.
    let best = Arc::new(AtomicI64::new(0));
    let b2 = best.clone();
    let mut cfg = MachineConfig::new(pes).capture_output();
    if steal {
        cfg = cfg.steal(true);
    }
    let report = run_with(cfg, move |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(pe, policy);
        let slot = Arc::new(parking_lot::Mutex::new(None::<HandlerId>));
        let (qd2, best2, s2) = (qd.clone(), b2.clone(), slot.clone());
        // A node message: [next_item u8, value i64, weight i64].
        let expand = pe.register_handler(move |pe, msg| {
            let p = msg.payload();
            let next = p[0] as usize;
            let value = i64::from_le_bytes(p[1..9].try_into().unwrap());
            let weight = i64::from_le_bytes(p[9..17].try_into().unwrap());
            // A sleepy per-node grain so PEs overlap even when the host
            // has fewer cores than the machine has PEs.
            std::thread::sleep(std::time::Duration::from_micros(100));
            best2.fetch_max(value, Ordering::SeqCst);
            let incumbent = best2.load(Ordering::SeqCst);
            if next < ITEMS.len() && bound(value, weight, next) > incumbent {
                let h = s2.lock().unwrap();
                let ldb = Ldb::get(pe);
                for take in [true, false] {
                    let (v, w) = if take {
                        (value + ITEMS[next].0, weight + ITEMS[next].1)
                    } else {
                        (value, weight)
                    };
                    if w > CAPACITY {
                        continue;
                    }
                    let mut payload = vec![(next + 1) as u8];
                    payload.extend_from_slice(&v.to_le_bytes());
                    payload.extend_from_slice(&w.to_le_bytes());
                    // Best-first: more promising bound = more urgent.
                    let prio = Priority::Int(-(bound(v, w, next + 1) as i32));
                    qd2.msg_created(1);
                    ldb.deposit(pe, Message::with_priority(h, &prio, &payload));
                }
            }
            qd2.msg_processed(1);
        });
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        *slot.lock() = Some(expand);
        pe.barrier();
        let t0 = Instant::now();
        if pe.my_pe() == 0 {
            let mut payload = vec![0u8];
            payload.extend_from_slice(&0i64.to_le_bytes());
            payload.extend_from_slice(&0i64.to_le_bytes());
            qd.msg_created(1);
            ldb.deposit(pe, Message::new(expand, &payload));
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(done, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
        if pe.my_pe() == 0 {
            let dt = t0.elapsed().as_nanos() as u64;
            pe.cmi_printf(format!("CELL_NS {dt}"));
        }
    });
    assert_eq!(
        best.load(Ordering::SeqCst),
        132,
        "B&B must find the optimum"
    );
    Row {
        kind: "bnb",
        workload: "knapsack",
        pes,
        steal,
        ldb,
        tasks: 0,
        elapsed_ns: cell_ns(&report.output),
    }
}

fn cell_ns(output: &[String]) -> u64 {
    output
        .iter()
        .find_map(|l| l.strip_prefix("CELL_NS "))
        .expect("CELL_NS line in captured output")
        .trim()
        .parse()
        .expect("numeric CELL_NS")
}

fn print_row(quiet: bool, r: &Row) {
    if !quiet {
        println!(
            "{:>10} {:>14} {:>3} {:>5} {:>9} {:>6} {:>12} {:>10.1}",
            r.kind,
            r.workload,
            r.pes,
            if r.steal { "on" } else { "off" },
            r.ldb,
            r.tasks,
            r.elapsed_ns,
            r.elapsed_ns as f64 / 1e6,
        );
    }
}

fn main() {
    let quiet = converse_machine::in_socket_worker();
    let gate_on = std::env::var("STEAL_GATE")
        .map(|v| v != "off")
        .unwrap_or(true);
    let smoke = std::env::var("STEAL_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let reps = if smoke { 1 } else { 3 };

    if !quiet {
        println!(
            "work stealing makespan: random {WIDTH}x{STEPS} seed {SEED}, skew {SKEW_PCT}% → PE 0, \
             grain {GRAIN_NS} ns (sleep){}\n",
            if smoke { " (smoke subset)" } else { "" }
        );
        println!(
            "{:>10} {:>14} {:>3} {:>5} {:>9} {:>6} {:>12} {:>10}",
            "kind", "workload", "pes", "steal", "ldb", "tasks", "elapsed_ns", "ms"
        );
    }

    let mut rows: Vec<Row> = Vec::new();
    let pe_counts: &[usize] = if smoke { &[GATE_PES] } else { &[2, 4, 8] };
    for &pes in pe_counts {
        for steal in [false, true] {
            let r = taskbench_cell(pes, steal, reps);
            print_row(quiet, &r);
            rows.push(r);
        }
    }

    if !smoke {
        for (policy, label, steal) in [
            (LdbPolicy::Random { seed: 17 }, "random", false),
            (LdbPolicy::Random { seed: 17 }, "random", true),
            (LdbPolicy::Measured, "measured", true),
        ] {
            let r = bnb_cell(4, policy, label, steal);
            print_row(quiet, &r);
            rows.push(r);
        }
    }

    // The gate: stealing must be a real makespan win on the hotspot.
    let pick = |pes: usize, steal: bool| {
        rows.iter()
            .find(|r| r.kind == "taskbench" && r.pes == pes && r.steal == steal)
            .map(|r| r.elapsed_ns as f64)
    };
    let mut gate_failed = false;
    if let (Some(off), Some(on)) = (pick(GATE_PES, false), pick(GATE_PES, true)) {
        let ratio = off / on;
        if !quiet {
            println!(
                "\nmakespan at {GATE_PES} PEs: stealing off {:.1} ms, on {:.1} ms → {ratio:.2}x \
                 (gate: ≥ {GATE_RATIO}x)",
                off / 1e6,
                on / 1e6
            );
        }
        if ratio < GATE_RATIO {
            eprintln!(
                "GATE: stealing bought only {ratio:.2}x at {GATE_PES} PEs (need ≥ {GATE_RATIO}x)"
            );
            gate_failed = true;
        }
    }

    if !smoke {
        std::fs::write("BENCH_steal.json", render_json(&rows)).expect("write BENCH_steal.json");
        if !quiet {
            println!("wrote BENCH_steal.json ({} rows)", rows.len());
        }
    }

    if gate_failed {
        if gate_on {
            eprintln!("steal_bench gate FAILED (set STEAL_GATE=off to re-baseline)");
            std::process::exit(1);
        } else if !quiet {
            println!("gate failures ignored: STEAL_GATE=off");
        }
    }
}

/// Hand-rolled JSON — the workspace is offline, so no serde.
fn render_json(rows: &[Row]) -> String {
    let mut s = format!(
        "{{\n  \"bench\": \"steal\",\n  \"shape\": {{\"width\": {WIDTH}, \"steps\": {STEPS}, \"seed\": {SEED}, \"skew_pct\": {SKEW_PCT}, \"grain_ns\": {GRAIN_NS}}},\n  \"results\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kind\": \"{}\", \"workload\": \"{}\", \"pes\": {}, \"steal\": {}, \"ldb\": \"{}\", \"tasks\": {}, \"elapsed_ns\": {}}}{}\n",
            r.kind,
            r.workload,
            r.pes,
            r.steal,
            r.ldb,
            r.tasks,
            r.elapsed_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
