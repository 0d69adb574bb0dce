//! `benchmark` — see `README.md`.
//!
//! ```sh
//! # the driver's shape: one workload, one run, last stdout line is JSON
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload core_1pe --seed 1996 --seconds 30 --trace 0
//! # everything, three runs per workload, table + benchmark/out/report.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1996
//! ```

use converse_benchmark::collect::CountingAlloc;
use converse_benchmark::driver::{self, Outcome, RunRequest};
use converse_benchmark::harness::Workload;
use converse_benchmark::report::{self, Table};
use converse_benchmark::schema::{
    self, END_TO_END, PER_LAYER, REPS, RUN_SECONDS, SETUP_SAMPLES, TABLE_RUNS,
};
use converse_benchmark::{child, stats};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       benchmark --layers | --smoke | --selfcheck | --print-contract

  --workload NAME   one run of core_1pe | exchange_inproc | exchange_shmring |
                    taskgraph_inproc; the last stdout line is the result JSON.
                    Without it: every workload, three runs each, as a table.
  --seed N          input seed (payload bytes, priorities, fault plan, graphs)
  --seconds S       measuring time of one run (default: the contract's)
  --trace 0|1       0: end-to-end metrics; 1: per-layer metrics (traced run)
  --layers          layer probes + traced core_1pe: the per-layer budget table
  --smoke           every workload once, 0.5 s per segment, one repetition,
                    no set-up children
  --selfcheck       two sets of the gated workloads; fail if any end-to-end
                    median moves by more than half its bound
  --print-contract  print BENCHMARK.json
";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Cli {
    /// One run of `workload` at the contract's repetition counts.
    fn request(&self, workload: Workload, trace: bool) -> RunRequest {
        RunRequest {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            trace,
            reps: REPS,
            setup_samples: SETUP_SAMPLES,
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(2);
}

fn parse_cli(argv: &[String]) -> Cli {
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                rest.next();
            }
            "--layers" | "--smoke" | "--selfcheck" => {}
            other => fail(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let value = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .map(|i| match argv.get(i + 1) {
                Some(v) => v.as_str(),
                None => fail(&format!("{name} needs a value")),
            })
    };
    let number = |name: &str, default: f64| -> f64 {
        match value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("{name}: not a number: {v:?}"))),
        }
    };
    let seconds = number("--seconds", RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 600.0) {
        fail("--seconds must be in (0, 600]");
    }
    Cli {
        workload: value("--workload").map(|n| {
            Workload::parse(n).unwrap_or_else(|| fail(&format!("unknown workload {n:?}")))
        }),
        seed: match value("--seed") {
            None => 1996,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("--seed: not a whole number: {v:?}"))),
        },
        seconds,
        trace: match value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => fail(&format!("--trace takes 0 or 1, got {v:?}")),
        },
    }
}

fn run_or_die(req: &RunRequest) -> Outcome {
    driver::run(req).unwrap_or_else(|e| {
        eprintln!("benchmark: {}: {e}", req.workload.name());
        std::process::exit(1);
    })
}

fn print_outcome(w: Workload, o: &Outcome) {
    println!(
        "{} — {} ops validated, {} failed",
        w.name(),
        o.attempted,
        o.failed
    );
    for (m, v) in &o.metrics {
        println!(
            "  {:<30} {:>14.4} {:<6} ({} is better{})",
            m.name,
            v,
            m.unit,
            m.better.label(),
            m.bound
                .map(|b| format!(", bound {:.0} %", b * 100.0))
                .unwrap_or_default()
        );
    }
    print!("{}", o.detail);
}

fn collect(req: &RunRequest, runs: usize) -> (Table, u64, u64) {
    let w = req.workload;
    let mut table: Table = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for run in 0..runs {
        let o = run_or_die(req);
        eprintln!("  {} run {}/{runs} done", w.name(), run + 1);
        attempted += o.attempted;
        failed += o.failed;
        for (i, (m, v)) in o.metrics.into_iter().enumerate() {
            if run == 0 {
                table.push((m, Vec::new()));
            }
            table[i].1.push(v);
        }
    }
    (table, attempted, failed)
}

/// Every workload, `runs` runs each shaped by `shape`; table on stdout,
/// JSON in `out/`.
fn run_everything(cli: &Cli, runs: usize, shape: impl Fn(RunRequest) -> RunRequest) -> bool {
    let mut rows = Vec::new();
    let mut all_ok = true;
    for w in Workload::ALL {
        let (table, attempted, failed) = collect(&shape(cli.request(w, false)), runs);
        print!("{}", report::render(w, &table));
        rows.extend(report::rows_json(w, &table));
        if cli.trace {
            let (layers, a, f) = collect(&shape(cli.request(w, true)), 1);
            print!("{}", report::render(w, &layers));
            rows.extend(report::rows_json(w, &layers));
            all_ok &= f == 0 && a > 0;
        }
        println!("{}: {attempted} ops validated, {failed} failed\n", w.name());
        all_ok &= failed == 0 && attempted > 0;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join("report.json");
    let json = report::report_json(&rows, cli.seed, cli.seconds);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: write {}: {e}", path.display());
            all_ok = false;
        }
    }
    all_ok
}

/// Two full end-to-end sets of the same code; the benchmark's own check
/// that it can resolve its bounds on this host.
fn selfcheck(cli: &Cli) -> bool {
    let mut ok = true;
    for w in Workload::GATED {
        let (a, _, fa) = collect(&cli.request(w, false), TABLE_RUNS);
        let (b, _, fb) = collect(&cli.request(w, false), TABLE_RUNS);
        println!(
            "{:<18} {:<16} {:>14} {:>14} {:>9} {:>9}",
            "workload", "metric", "median set 1", "median set 2", "moved", "allowed"
        );
        for ((m, va), (_, vb)) in a.iter().zip(&b) {
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let moved = (mb - ma).abs() / ma;
            let allowed = m.bound.expect("end-to-end metrics are bounded") / 2.0;
            let verdict = if moved > allowed { "FAIL" } else { "ok" };
            ok &= moved <= allowed;
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}%  {verdict}",
                w.name(),
                m.name,
                ma,
                mb,
                moved * 100.0,
                allowed * 100.0
            );
        }
        ok &= fa == 0 && fb == 0;
    }
    ok
}

/// Layer probes and the traced `core_1pe` run as one budget table.
fn layers(cli: &Cli) {
    let o = run_or_die(&cli.request(Workload::Core1Pe, true));
    print_outcome(Workload::Core1Pe, &o);
    let get = |name: &str| {
        o.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
            .expect("per-layer metric present")
    };
    println!("\nper-layer budget of one core_1pe op (ns):");
    let parts = [
        ("msg.alloc_ns", "Message::new + drop, pool hit"),
        ("net.send_ns", "Interconnect::send (self-send)"),
        ("net.drain_ns", "Interconnect::drain_into"),
        (
            "queue.prio_ns",
            "CsdQueue enqueue + dequeue, integer priority",
        ),
    ];
    let mut sum = 0.0;
    for (name, what) in parts {
        println!("  {:<22} {:>9.1}   {what}", name, get(name));
        sum += get(name);
    }
    println!(
        "  {:<22} {:>9.1}   (isolated layer costs)",
        "sum of probes", sum
    );
    println!(
        "  {:<22} {:>9.1}   csd_scheduler self time, traced (contains the drain and the dequeue)",
        "core.sched_ns",
        get("core.sched_ns")
    );
    println!(
        "  {:<22} {:>9.1}   op time the probes and the handler bodies do not explain",
        "core.unexplained_ns",
        get("core.unexplained_ns")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    if has("--help") || has("-h") {
        print!("{USAGE}");
        return;
    }
    if has("--child") {
        let args = driver::parse_child_args(&argv).unwrap_or_else(|e| fail(&e));
        return child::run_machine(args);
    }
    if has("--child-probes") {
        let seconds = argv
            .iter()
            .position(|a| a == "--seconds")
            .and_then(|i| argv.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fail("--child-probes needs --seconds"));
        return child::run_probes(seconds);
    }
    if has("--print-contract") {
        print!("{}", schema::contract_json());
        return;
    }
    let mut cli = parse_cli(&argv);
    if has("--layers") {
        return layers(&cli);
    }
    if has("--smoke") {
        cli.seconds = 2.0;
        let quick = |req| RunRequest {
            reps: 1,
            setup_samples: 1,
            ..req
        };
        std::process::exit(if run_everything(&cli, 1, quick) { 0 } else { 1 });
    }
    if has("--selfcheck") {
        std::process::exit(if selfcheck(&cli) { 0 } else { 1 });
    }
    match cli.workload {
        Some(w) => {
            let o = run_or_die(&cli.request(w, cli.trace));
            print_outcome(w, &o);
            debug_assert_eq!(
                o.metrics.len(),
                if cli.trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
            println!("{}", o.json());
            if o.attempted == 0 {
                std::process::exit(1);
            }
        }
        None => {
            if !run_everything(&cli, TABLE_RUNS, |req| req) {
                std::process::exit(1);
            }
        }
    }
}
