//! The parent process: spawns one child per machine (a fresh process per
//! `run_with` — mandatory on `Transport::ShmRing`, where a worker replays
//! every earlier socket-family run of its process), collects what the
//! PEs printed, and turns it into the contract's metrics.

use crate::harness::{unix_ns, ChildArgs, Machine, Workload};
use crate::schema::{Metric, END_TO_END, PER_LAYER};
use crate::spans::{self, Name, Overhead, SelfTime, Span};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Shares of `--seconds` given to each timed segment of an end-to-end
/// run: `small`, `large`, `thread` on the clean machine, `lossy` on the
/// lossy one.
const CLEAN_SPLIT: [f64; 3] = [0.25, 0.25, 0.25];
const LOSSY_SPLIT: f64 = 0.25;
/// A segment whose calibration kernel ran this much slower than at
/// reference speed is flagged `NOISY` in the output (and kept).
const NOISY_SLOWDOWN: f64 = 1.15;
/// Fixed work of a set-up child after its set-up, as a multiple of every
/// segment's warm-up count: `peak_rss_mb` is the resident set once it is
/// done.
const SOAK: u32 = 2;

/// What one child process printed.
#[derive(Debug, Default)]
pub struct ChildOutput {
    /// `"<pe>/<key>"` → value; `pe` is `m` for machine-level numbers.
    pub kv: BTreeMap<String, f64>,
    /// `(segment, pe)` → spans.
    pub spans: BTreeMap<(String, usize), Vec<Span>>,
}

impl ChildOutput {
    fn parse(text: &str) -> ChildOutput {
        let mut out = ChildOutput::default();
        let mut current: BTreeMap<usize, String> = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("M ") {
                let mut f = rest.split_ascii_whitespace();
                if let (Some(pe), Some(key), Some(v)) = (f.next(), f.next(), f.next()) {
                    if let Ok(v) = v.parse::<f64>() {
                        out.kv.insert(format!("{pe}/{key}"), v);
                    }
                }
            } else if let Some(rest) = line.strip_prefix("G ") {
                let mut f = rest.split_ascii_whitespace();
                if let (Some(Ok(pe)), Some(seg)) = (f.next().map(str::parse), f.next()) {
                    current.insert(pe, seg.to_string());
                }
            } else if let Some((pe, span)) = spans::decode(line) {
                if let Some(seg) = current.get(&pe) {
                    out.spans.entry((seg.clone(), pe)).or_default().push(span);
                }
            }
        }
        out
    }

    /// A value that must be there.
    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.kv
            .get(key)
            .copied()
            .ok_or_else(|| format!("child output has no {key:?}"))
    }

    /// Σ over PEs `0..pes` of `<pe>/<key>`.
    fn sum(&self, pes: usize, key: &str) -> Result<f64, String> {
        (0..pes).map(|p| self.get(&format!("{p}/{key}"))).sum()
    }

    /// A process-wide counter of segment `seg`: every PE reports its
    /// process, so one process is PE 0's number and several are the sum.
    fn process_total(&self, w: Workload, key: &str) -> Result<f64, String> {
        if w.multi_process() {
            self.sum(w.pes(), key)
        } else {
            self.get(&format!("0/{key}"))
        }
    }
}

/// Spawn `benchmark --child …` and wait for it.
fn spawn(args: &[String]) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} failed: {}", args, out.status));
    }
    Ok(ChildOutput::parse(&String::from_utf8_lossy(&out.stdout)))
}

fn run_child(
    w: Workload,
    machine: Machine,
    seed: u64,
    seconds: &[f64],
    trace: bool,
) -> Result<ChildOutput, String> {
    run_child_soaking(w, machine, seed, seconds, 0, trace)
}

/// A child that, after its timed segments (if any), runs `soak` × the
/// warm-up count of untimed batches per segment.
fn run_child_soaking(
    w: Workload,
    machine: Machine,
    seed: u64,
    seconds: &[f64],
    soak: u32,
    trace: bool,
) -> Result<ChildOutput, String> {
    let secs: Vec<String> = seconds.iter().map(|s| s.to_string()).collect();
    spawn(&[
        "--child".into(),
        w.name().into(),
        "--machine".into(),
        match machine {
            Machine::Clean => "clean".into(),
            Machine::Lossy => "lossy".into(),
        },
        "--seed".into(),
        seed.to_string(),
        "--segments".into(),
        secs.join(","),
        "--soak".into(),
        soak.to_string(),
        "--trace".into(),
        (trace as u8).to_string(),
        "--t0".into(),
        unix_ns().to_string(),
    ])
}

/// Parse the argv [`run_child`] builds (the part after `--child`).
pub fn parse_child_args(argv: &[String]) -> Result<ChildArgs, String> {
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("child: missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        flag(name)?
            .parse()
            .map_err(|_| format!("child: bad {name}"))
    };
    Ok(ChildArgs {
        workload: Workload::parse(flag("--child")?).ok_or("child: unknown workload")?,
        machine: match flag("--machine")? {
            "clean" => Machine::Clean,
            "lossy" => Machine::Lossy,
            other => return Err(format!("child: unknown machine {other:?}")),
        },
        seed: num("--seed")?,
        seconds: flag("--segments")?
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("child: bad segment seconds {s:?}"))
            })
            .collect::<Result<_, _>>()?,
        soak: u32::try_from(num("--soak")?).map_err(|_| "child: bad --soak")?,
        trace: num("--trace")? != 0,
        t0_ns: num("--t0")?,
    })
}

/// One run of one workload in the driver's shape.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, split over the segments.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end run.
    pub trace: bool,
    /// Fresh-process repetitions of each machine in an end-to-end run
    /// ([`crate::schema::REPS`]; 1 in `--smoke`).
    pub reps: usize,
    /// Set-up samples of an end-to-end run: the repetitions plus enough
    /// set-up children to reach this many
    /// ([`crate::schema::SETUP_SAMPLES`]; no extra children in `--smoke`).
    pub setup_samples: usize,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The contract's metrics for this kind of run, in contract order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Ops whose delivery was validated.
    pub attempted: u64,
    /// Ops that failed validation.
    pub failed: u64,
    /// Human-readable detail (per-batch percentiles, span self times).
    pub detail: String,
}

impl Outcome {
    /// The last-line JSON object of the driver contract.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn counts(pes: usize, outs: &[&ChildOutput]) -> Result<(u64, u64), String> {
    let (mut ok, mut failed) = (0.0, 0.0);
    for o in outs {
        ok += o.sum(pes, "ok")?;
        failed += o.sum(pes, "failed")?;
    }
    Ok(((ok + failed) as u64, failed as u64))
}

fn describe_segments(detail: &mut String, label: &str, o: &ChildOutput, segs: &[&str]) {
    for seg in segs {
        let g = |k: &str| o.kv.get(&format!("0/{seg}.{k}")).copied();
        if let (Some(p10), Some(p50), Some(p90), Some(p99), Some(n)) =
            (g("p10"), g("p50"), g("p90"), g("p99"), g("batches"))
        {
            let _ = writeln!(
                detail,
                "  {label:<7} {seg:<7} per-op ns  p10 {p10:>10.1}  p50 {p50:>10.1}  p90 {p90:>10.1}  p99 {p99:>10.1}  batches {n:>6}  raw p10 {:>10.1}  host slowdown {:.3}{}",
                g("raw_p10").unwrap_or(f64::NAN),
                g("slowdown").unwrap_or(f64::NAN),
                if g("slowdown").is_some_and(|r| r > NOISY_SLOWDOWN) { "  NOISY" } else { "" },
            );
        }
    }
}

fn median_over(
    reps: &[ChildOutput],
    f: impl Fn(&ChildOutput) -> Result<f64, String>,
) -> Result<f64, String> {
    let v = reps.iter().map(f).collect::<Result<Vec<_>, _>>()?;
    Ok(stats::median(&v))
}

fn total_over(reps: &[ChildOutput], key: &str) -> Result<f64, String> {
    reps.iter().map(|o| o.get(key)).sum()
}

/// The end-to-end run: every `END_TO_END` metric.
///
/// Each machine is booted `reps` times in fresh processes, each
/// repetition timing its share of `--seconds`; a time metric is the
/// median over the repetitions of their 10th-percentile batch. Set-up
/// children — set-up, a fixed number of untimed batches, exit — bring
/// the set-up samples to `setup_samples` and are where the resident set
/// is read; they are spread between the repetitions so that the samples
/// do not all see the same second of the host.
fn run_end_to_end(req: &RunRequest) -> Result<Outcome, String> {
    let w = req.workload;
    let reps = req.reps.max(1);
    let extra = req.setup_samples.saturating_sub(reps);
    let share = |f: f64| f * req.seconds / reps as f64;
    let clean_secs: Vec<f64> = CLEAN_SPLIT.iter().map(|f| share(*f)).collect();
    let (mut clean, mut lossy, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        clean.push(run_child(w, Machine::Clean, req.seed, &clean_secs, false)?);
        lossy.push(run_child(
            w,
            Machine::Lossy,
            req.seed,
            &[share(LOSSY_SPLIT)],
            false,
        )?);
        // This repetition's part of the `extra` set-up children.
        for _ in extra * rep / reps..extra * (rep + 1) / reps {
            setups.push(run_child_soaking(
                w,
                Machine::Clean,
                req.seed,
                &[0.0],
                SOAK,
                false,
            )?);
        }
    }
    let setup_s: Vec<f64> = clean
        .iter()
        .chain(&setups)
        .map(|o| o.get("0/setup_s"))
        .collect::<Result<_, _>>()?;
    // Without set-up children (`--smoke`) the repetitions stand in; their
    // resident set then depends on how many batches they had time for.
    let fixed_work = if setups.is_empty() { &clean } else { &setups };
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "op_us" => median_over(&clean, |o| o.get("0/small.p10"))? / 1e3,
            "large_op_us" => median_over(&clean, |o| o.get("0/large.p10"))? / 1e3,
            "thread_op_us" => median_over(&clean, |o| o.get("0/thread.p10"))? / 1e3,
            // Set by the retransmit timers, not by CPU speed: plain wall
            // time, not divided by the host slowdown.
            "lossy_op_us" => median_over(&lossy, |o| o.get("0/lossy.raw_p10"))? / 1e3,
            "wire_tx_per_op" => {
                total_over(&lossy, "m/transmissions")? / total_over(&lossy, "m/total_msgs")?
            }
            "peak_rss_mb" => median_over(fixed_work, |o| exit_rss_mb(w, o))?,
            "setup_s" => {
                if setup_s.len() >= 2 {
                    stats::quartiles(&setup_s).0
                } else {
                    setup_s[0]
                }
            }
            other => return Err(format!("no rule for end-to-end metric {other}")),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| value(m.name).map(|v| (m, v)))
        .collect::<Result<Vec<_>, _>>()?;
    let all: Vec<&ChildOutput> = clean.iter().chain(&lossy).chain(&setups).collect();
    let (attempted, failed) = counts(w.pes(), &all)?;
    let mut detail = String::new();
    for (i, o) in clean.iter().enumerate() {
        describe_segments(
            &mut detail,
            &format!("clean{i}"),
            o,
            &["small", "large", "thread"],
        );
    }
    for (i, o) in lossy.iter().enumerate() {
        describe_segments(&mut detail, &format!("lossy{i}"), o, &["lossy"]);
    }
    let list = |outs: &[ChildOutput], f: &dyn Fn(&ChildOutput) -> Result<f64, String>| {
        let v: Vec<String> = outs
            .iter()
            .map(|o| f(o).map_or("?".into(), |v| format!("{v:.4}")))
            .collect();
        v.join(" ")
    };
    let both = |f: &dyn Fn(&ChildOutput) -> Result<f64, String>| {
        format!("{} | {}", list(&clean, f), list(&setups, f))
    };
    let _ = writeln!(
        detail,
        "  repetitions | set-up children:\n  set-up at reference speed [{}] s\n  set-up as wall time       [{}] s\n  resident set at exit      [{}] MB",
        both(&|o| o.get("0/setup_s")),
        both(&|o| o.get("0/setup_wall_s")),
        both(&|o| exit_rss_mb(w, o)),
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        detail,
    })
}

/// The resident-set high-water mark of the machine's processes when the
/// child ended: the one process of an in-process machine, or the workers
/// plus the launcher.
fn exit_rss_mb(w: Workload, o: &ChildOutput) -> Result<f64, String> {
    if w.multi_process() {
        Ok(o.sum(w.pes(), "rss_mb")? + o.get("m/launcher_rss_mb")?)
    } else {
        o.get("0/rss_mb")
    }
}

/// Self time per op of `name` in segment `seg` on PE 0 at reference
/// speed (divided by the segment's median host slowdown), and its count.
fn span_per_op(o: &ChildOutput, seg: &str, name: Name, cost: Overhead) -> Option<(f64, SelfTime)> {
    let spans = o.spans.get(&(seg.to_string(), 0))?;
    let ops = o.kv.get(&format!("0/{seg}.sampled_ops")).copied()?;
    let slowdown = o.kv.get(&format!("0/{seg}.slowdown")).copied()?;
    let st = spans::self_times(spans, cost).get(&name).copied()?;
    (ops > 0.0).then(|| (st.self_ns / ops / slowdown, st))
}

fn overhead_of(o: &ChildOutput) -> Result<Overhead, String> {
    Ok(Overhead {
        inside_ns: o.get("0/trace.inside_ns")?,
        outside_ns: o.get("0/trace.outside_ns")?,
    })
}

fn describe_spans(detail: &mut String, o: &ChildOutput, cost: Overhead) {
    for ((seg, pe), spans) in &o.spans {
        let ops =
            o.kv.get(&format!("{pe}/{seg}.sampled_ops"))
                .copied()
                .unwrap_or(0.0);
        if ops <= 0.0 {
            continue;
        }
        for (name, st) in spans::self_times(spans, cost) {
            let _ = writeln!(
                detail,
                "  span pe{pe} {seg:<7} {:<15} self {:>9.1} ns/op  total {:>9.1} ns/op  {:>7} spans over {} ops",
                name.label(),
                st.self_ns / ops,
                st.total_ns / ops,
                st.count,
                ops
            );
        }
    }
}

/// The per-layer run: every `PER_LAYER` metric.
fn run_per_layer(req: &RunRequest) -> Result<Outcome, String> {
    let w = req.workload;
    let s = req.seconds;
    // Layer section: the same three programs whatever the workload.
    let probes = spawn(&[
        "--child-probes".into(),
        "--seconds".into(),
        (0.008 * s).to_string(),
    ])?;
    let core_secs = if w == Workload::Core1Pe {
        [0.12 * s, 0.0, 0.08 * s]
    } else {
        [0.06 * s, 0.0, 0.06 * s]
    };
    let core_t = run_child(
        Workload::Core1Pe,
        Machine::Clean,
        req.seed,
        &core_secs,
        true,
    )?;
    let core_ref = run_child(
        Workload::Core1Pe,
        Machine::Clean,
        req.seed,
        &[core_secs[0]],
        false,
    )?;
    let graph_secs = if w == Workload::TaskgraphInproc {
        [0.12 * s, 0.0, 0.0, 0.08 * s]
    } else {
        [0.08 * s, 0.0, 0.0, 0.08 * s]
    };
    let graph_ref = run_child(
        Workload::TaskgraphInproc,
        Machine::Clean,
        req.seed,
        &graph_secs,
        false,
    )?;
    // The one machine whose PEs run on separate hardware threads: the
    // exchange over shared-memory rings, a worker process per thread.
    let shm = run_child(
        Workload::ExchangeShmring,
        Machine::Clean,
        req.seed,
        &[
            if w == Workload::ExchangeShmring {
                0.12
            } else {
                0.05
            } * s,
            0.05 * s,
        ],
        false,
    )?;
    // Workload section: an untraced reference, the traced run, the lossy
    // machine. Children already run above are reused.
    let reference_own;
    let reference = match w {
        Workload::TaskgraphInproc => &graph_ref,
        Workload::Core1Pe => &core_ref,
        Workload::ExchangeShmring => &shm,
        Workload::ExchangeInproc => {
            reference_own = run_child(w, Machine::Clean, req.seed, &[0.12 * s], false)?;
            &reference_own
        }
    };
    let traced_own;
    let traced = if w == Workload::Core1Pe {
        &core_t
    } else {
        traced_own = run_child(
            w,
            Machine::Clean,
            req.seed,
            &[0.12 * s, 0.0, 0.08 * s],
            true,
        )?;
        &traced_own
    };
    let lossy = run_child(w, Machine::Lossy, req.seed, &[0.12 * s], false)?;

    let core_cost = overhead_of(&core_t)?;
    let cost = overhead_of(traced)?;
    let core_span = |name| {
        span_per_op(&core_t, "small", name, core_cost)
            .map(|(v, _)| v)
            .ok_or_else(|| format!("traced core_1pe run has no {} spans", name.label()))
    };
    let probe = |name: &str| probes.get(&format!("m/{name}"));
    let pes = w.pes();
    let small_ops = reference.sum(pes, "small.pe_ops")?;
    let (mut attempted, mut failed) = counts(pes, &[reference, traced, &lossy])?;
    if w != Workload::ExchangeShmring {
        let (a, f) = counts(Workload::ExchangeShmring.pes(), &[&shm])?;
        attempted += a;
        failed += f;
    }
    let shm_ops = shm.sum(Workload::ExchangeShmring.pes(), "small.pe_ops")?;
    let wait_name = if w == Workload::TaskgraphInproc {
        Name::GraphRun
    } else {
        Name::Sched
    };
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "core.sched_ns" => core_span(Name::Sched)?,
            "machine.send_ns" => core_span(Name::Send)?,
            "threads.wake_ns" => {
                let spans = core_t
                    .spans
                    .get(&("thread".to_string(), 0))
                    .ok_or("traced core_1pe run has no thread segment")?;
                spans::wake_latency_ns(spans, core_cost)
                    .ok_or("traced core_1pe run has no awaken/body pairs")?
                    / core_t.get("0/thread.slowdown")?
            }
            // What the isolated layer costs do not explain of one
            // `core_1pe` op: scheduler loop, machine-layer glue, and the
            // benchmark's own loop. See README.md.
            "core.unexplained_ns" => {
                core_ref.get("0/small.p10")?
                    - (probe("msg.alloc_ns")?
                        + probe("net.send_ns")?
                        + probe("net.drain_ns")?
                        + probe("queue.prio_ns")?
                        + core_span(Name::Handler)?)
            }
            "taskbench.raw_task_us" => graph_ref.get("0/raw.p10")? / 1e3,
            "charm.layer_us" => (graph_ref.get("0/small.p10")? - graph_ref.get("0/raw.p10")?) / 1e3,
            "machine.wait_ns" => span_per_op(traced, "small", wait_name, cost)
                .map(|(v, _)| v)
                .ok_or_else(|| format!("traced run has no {} spans", wait_name.label()))?,
            "core.handlers_per_op" => {
                if w == Workload::TaskgraphInproc {
                    let (_, st) = span_per_op(traced, "small", Name::LibHandler, cost)
                        .ok_or("traced task-graph run has no handler spans")?;
                    st.count as f64 / traced.get("0/small.sampled_ops")?
                } else {
                    reference.sum(pes, "small.handler_runs")? / small_ops
                }
            }
            "machine.msgs_per_op" => {
                reference.get("m/total_msgs")?
                    / (reference.sum(pes, "ok")? + reference.sum(pes, "failed")?)
            }
            "machine.boot_ms" => reference.get("0/boot_ms")?,
            "machine.barrier_us" => reference.get("0/barrier_us")?,
            "machine.cpu_us_per_op" => reference.process_total(w, "small.cpu_us")? / small_ops,
            "msg.pool_hit_ratio" => {
                let hits = reference.sum(pes, "small.pool_hits")?;
                hits / (hits + reference.sum(pes, "small.pool_misses")?).max(1.0)
            }
            "msg.allocs_per_op" => reference.process_total(w, "small.allocs")? / small_ops,
            "msg.alloc_bytes_per_op" => {
                reference.process_total(w, "small.alloc_bytes")? / small_ops
            }
            "wire.exchange_op_us" => shm.get("0/small.p10")? / 1e3,
            "wire.exchange_large_op_us" => shm.get("0/large.p10")? / 1e3,
            "wire.ctx_switches_per_op" => {
                shm.process_total(Workload::ExchangeShmring, "small.vol_switches")? / shm_ops
            }
            "wire.boot_ms" => shm.get("0/boot_ms")?,
            "net.retransmit_ratio" => lossy.get("m/retransmitted")? / lossy.get("m/total_msgs")?,
            "net.dedup_ratio" => lossy.get("m/dedup_dropped")? / lossy.get("m/total_msgs")?,
            // Must equal the plan's drop probability: a sanity check on
            // the fault plane, not a performance number.
            "net.drop_ratio" => lossy.get("m/dropped")? / lossy.get("m/transmissions")?,
            "bench.calib_ratio" => reference.get("0/small.slowdown")?,
            "bench.slice_floor_ns" => reference.get("0/small.slice_min")?,
            "bench.raw_op_us" => reference.get("0/small.raw_p10")? / 1e3,
            "bench.trace_overhead_pct" => {
                let r = reference.get("0/small.p10")?;
                (traced.get("0/small.p10")? - r) / r * 100.0
            }
            "bench.failed_ratio" => failed as f64 / attempted.max(1) as f64,
            probe_name => probe(probe_name)?,
        })
    };
    let metrics = PER_LAYER
        .iter()
        .map(|m| value(m.name).map(|v| (m, v)))
        .collect::<Result<Vec<_>, _>>()?;

    let mut detail = String::new();
    describe_segments(&mut detail, "ref", reference, &["small", "raw"]);
    describe_segments(&mut detail, "shmring", &shm, &["small", "large"]);
    describe_segments(&mut detail, "traced", traced, &["small", "thread"]);
    describe_segments(&mut detail, "lossy", &lossy, &["lossy"]);
    let _ = writeln!(
        detail,
        "  span recording cost: {:.1} ns inside a span, {:.1} ns in its parent",
        cost.inside_ns, cost.outside_ns
    );
    describe_spans(&mut detail, traced, cost);
    let by_pe: BTreeMap<usize, Vec<Span>> =
        traced
            .spans
            .iter()
            .fold(BTreeMap::new(), |mut acc, ((_, pe), spans)| {
                acc.entry(*pe).or_default().extend(spans.iter().copied());
                acc
            });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{}.json", w.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(&by_pe)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let _ = writeln!(detail, "  wrote {}", path.display());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        detail,
    })
}

/// Run one workload once, end to end or per layer.
pub fn run(req: &RunRequest) -> Result<Outcome, String> {
    if req.trace {
        run_per_layer(req)
    } else {
        run_end_to_end(req)
    }
}
