//! `taskgraph_inproc`: Task Bench graphs (1-D stencil and seeded random,
//! alternating) on a 2-PE in-process machine. A batch is one
//! `Layer::run` of each of the segment's graphs, an op is one task, and
//! time per op is `elapsed × PEs ÷ tasks` — Task Bench's per-task
//! overhead at zero grain, as `crates/bench/src/bin/taskbench.rs`
//! computes it. The graph's own oracle (`assert_machine_valid`) checks
//! every batch, outside the timed span.

use crate::harness::{
    barrier_us, in_turns, timed_batches, unix_ns, untimed_batches, BatchTime, ChildArgs, Machine,
    Report, Warmup, STRETCHES,
};
use crate::spans::{Name, Tracer};
use crate::stats::mix;
use crate::validate::Tally;
use converse_machine::coll::CombinerId;
use converse_machine::Pe;
use converse_taskbench::exec::{assert_machine_valid, run_graph_raw, Layer, PeSummary, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use converse_trace::{Event, TraceSink};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Span buffer per PE; drained after every segment.
const SPAN_CAPACITY: usize = 48_000;
/// Calibration slices before each graph run.
const SLICES_PER_RUN: u32 = 32;

/// What carries a graph's dependency edges.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// `Layer::Charm` / `Layer::Tsm`.
    Layer(Layer),
    /// `run_graph_raw`: one machine handler, every edge one generalized
    /// message — the floor the layers are compared against (`Layer` has
    /// no raw variant).
    Raw,
}

/// The issue's graphs: a 1-D stencil and a seeded random graph,
/// alternating.
const BOTH: &[Pattern] = &[Pattern::Stencil1D, Pattern::Random];
/// The stencil alone, for the segments whose graphs are small: a random
/// graph of 24 or 64 tasks has 1–3 seed-drawn edges per task, so its
/// cost per task is a property of the seed (`large` read 71–80 µs on nine
/// seeds and 105 µs on the tenth), and the driver draws a new seed for
/// every run. The stencil's shape is fixed; the seed salts its hashes.
const STENCIL: &[Pattern] = &[Pattern::Stencil1D];

/// One segment: which engine carries the edges, how big they are, and
/// the graph shapes (fixed, so a batch is identical work on every commit).
#[derive(Debug, Clone, Copy)]
struct Segment {
    name: &'static str,
    engine: Engine,
    payload: usize,
    patterns: &'static [Pattern],
    width: usize,
    steps: usize,
    /// Runs of every graph per batch — fixed, so a batch is ≈ 2 ms at
    /// reference speed (the lossy one 15 ms: a level cannot finish
    /// before its dropped edges' retransmit timers).
    repeats: u32,
    /// Untimed batches run during set-up.
    warmup: u32,
    /// `BURST` consecutive graph runs in every `sample_every × BURST`
    /// are traced (see `Tracer::new`).
    sample_every: u64,
    /// The share of the segment's op time that slows down like the
    /// calibration kernel's arithmetic half; the rest slows like its
    /// path half. Fitted — see `BatchTime::new`.
    alu_share: f64,
}

fn segments(machine: Machine) -> Vec<Segment> {
    let seg =
        |name, engine, payload, patterns, width, steps, repeats, warmup, sample_every| Segment {
            name,
            engine,
            payload,
            patterns,
            width,
            steps,
            repeats,
            warmup,
            sample_every,
            // Hashing 16 KiB per edge is arithmetic over streamed data;
            // everything else is handlers, queues and the allocator.
            alu_share: if payload > 1024 { 0.5 } else { 0.25 },
        };
    let charm = Engine::Layer(Layer::Charm);
    match machine {
        Machine::Clean => vec![
            seg("small", charm, 16, BOTH, 64, 8, 1, 12, 16),
            // Every edge byte is hashed by the consumer, so a 16 KiB
            // edge costs ~100× a 16 B one: fewer tasks, same batch time.
            seg("large", charm, 16 * 1024, STENCIL, 8, 3, 2, 12, 16),
            // One thread object per task (tSM). 32 tasks per PE and
            // graph: what the per-PE stack pool retains, so after set-up
            // every thread starts on a recycled stack and the segment
            // times the thread path, not the allocator.
            seg(
                "thread",
                Engine::Layer(Layer::Tsm),
                16,
                STENCIL,
                8,
                8,
                8,
                12,
                64,
            ),
            // The `small` graphs on the raw engine; timed only by the
            // per-layer run (`charm.layer_us` = small − raw).
            seg("raw", Engine::Raw, 16, BOTH, 64, 8, 1, 4, 16),
        ],
        // Every level waits for its slowest edge, and a dropped edge
        // waits out a retransmit timer: few levels, wide.
        Machine::Lossy => vec![seg("lossy", charm, 16, BOTH, 64, 4, 1, 6, 4)],
    }
}

/// Forwards the machine's public `BeginProcessing`/`EndProcessing` trace
/// events into each PE's span buffer, so handler time inside
/// `Layer::run` — which the benchmark cannot bracket itself — shows as
/// children of the `taskbench.run` span. Installed only on traced runs.
pub struct SpanSink {
    tracers: Vec<OnceLock<Arc<Tracer>>>,
}

impl SpanSink {
    /// A sink for a machine of `num_pes`; each PE's entry attaches its
    /// tracer.
    pub fn new(num_pes: usize) -> Arc<SpanSink> {
        Arc::new(SpanSink {
            tracers: (0..num_pes).map(|_| OnceLock::new()).collect(),
        })
    }
}

impl TraceSink for SpanSink {
    fn record(&self, pe: usize, _t_ns: u64, event: Event) {
        let Some(t) = self.tracers.get(pe).and_then(|t| t.get()) else {
            return;
        };
        match event {
            Event::BeginProcessing { handler, .. } => t.open(Name::LibHandler, handler),
            Event::EndProcessing { .. } => t.close(),
            _ => {}
        }
    }
}

/// One generated graph with its oracle's per-task outputs, computed once
/// at set-up so the per-batch local check is a comparison, not a re-hash.
struct Graph {
    graph: Arc<TaskGraph>,
    expected: Vec<u64>,
}

/// A segment's graphs, one per pattern.
struct Graphs(Vec<Graph>);

impl Graphs {
    fn generate(seed: u64, seg: &Segment) -> Graphs {
        Graphs(
            seg.patterns
                .iter()
                .map(|&pattern| {
                    let graph = Arc::new(TaskGraph::generate(GraphSpec {
                        pattern,
                        seed,
                        width: seg.width,
                        steps: seg.steps,
                    }));
                    let expected = graph.expected_outputs(seg.payload);
                    Graph { graph, expected }
                })
                .collect(),
        )
    }

    fn tasks(&self) -> usize {
        self.0.iter().map(|g| g.graph.num_tasks()).sum()
    }
}

/// This PE's share of a run checked against the precomputed oracle:
/// every local task ran exactly once with the expected output hash.
fn locally_valid(summary: &PeSummary, expected: &[u64]) -> bool {
    summary.violations.is_empty()
        && !summary.gave_up
        && summary.execs.iter().all(|&e| e == 1)
        && summary
            .local
            .iter()
            .zip(&summary.outputs)
            .all(|(&serial, out)| *out == Some(expected[serial as usize]))
}

struct Ctx<'a> {
    pe: &'a Pe,
    and_op: CombinerId,
    tracer: Option<Arc<Tracer>>,
    ok: Tally,
    failed: Tally,
    runs: Tally,
}

/// Run one graph, timed; validate it, untimed. Returns the timed ns.
fn run_graph(cx: &Ctx<'_>, seg: &Segment, g: &Graph) -> u64 {
    let graph = &g.graph;
    let opts = RunOpts {
        payload_bytes: seg.payload,
        ..RunOpts::default()
    };
    let op = cx.runs.get() as u32;
    cx.runs.add(1);
    if let Some(t) = &cx.tracer {
        t.begin_round(graph.num_tasks() as u64 / cx.pe.num_pes() as u64);
        t.open(Name::GraphRun, op);
    }
    let t0 = Instant::now();
    let summary = match seg.engine {
        Engine::Layer(l) => l.run(cx.pe, graph, &opts),
        Engine::Raw => run_graph_raw(cx.pe, graph, &opts),
    };
    let ns = t0.elapsed().as_nanos() as u64;
    if let Some(t) = &cx.tracer {
        t.close();
        t.end_round();
    }
    // A failure is counted, not a crash. The local check comes first
    // and the PEs agree on it, because `assert_machine_valid` panics
    // before its collective when the local check fails — the other PE
    // would wait in that collective for the watchdog.
    let local_ok = locally_valid(&summary, &g.expected);
    let all_ok = cx.pe.allreduce_bytes(vec![local_ok as u8], cx.and_op)[0] == 1;
    let valid = all_ok
        && std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_machine_valid(cx.pe, graph, &summary, seg.payload)
        }))
        .is_ok();
    let mine = summary.local.len() as u64;
    if valid {
        cx.ok.add(mine);
    } else {
        cx.failed.add(mine);
    }
    ns
}

/// One batch: `seg.repeats` runs of every graph. A graph run cannot be
/// interrupted from outside, so the calibration slices go in bursts
/// before every run — coarser than in the message workloads.
fn batch(cx: &Ctx<'_>, seg: &Segment, graphs: &Graphs, t: &mut BatchTime) {
    for _ in 0..seg.repeats {
        for g in &graphs.0 {
            t.calibrate(SLICES_PER_RUN);
            t.ops_ns += run_graph(cx, seg, g);
        }
    }
}

/// The PE entry of `taskgraph_inproc`.
pub fn entry(pe: &Pe, args: &ChildArgs, sink: Option<&SpanSink>) {
    let boot_ns = unix_ns().saturating_sub(args.t0_ns);
    let me = pe.my_pe();
    let segs = segments(args.machine);
    let mut report = Report::new(me, pe.num_pes());
    report.put("boot_ms", boot_ns as f64 / 1e6);

    let tracer = sink.map(|sink| {
        let t = Arc::new(Tracer::new(
            SPAN_CAPACITY,
            segs[0].sample_every,
            unix_ns().saturating_sub(args.t0_ns),
        ));
        assert!(sink.tracers[me].set(t.clone()).is_ok(), "tracer set twice");
        t
    });
    let cx = Ctx {
        pe,
        and_op: pe.register_combiner(|a, b| vec![a[0] & b[0]]),
        tracer,
        ok: Tally::default(),
        failed: Tally::default(),
        runs: Tally::default(),
    };
    // Inputs: the graphs, from the seed (it shapes the random pattern
    // and salts every task's output hash).
    let graph_seed = mix(args.seed ^ 0x7A5C);
    let graphs: Vec<Graphs> = segs
        .iter()
        .map(|s| Graphs::generate(graph_seed, s))
        .collect();
    report.put("barrier_us", barrier_us(pe));

    let mut warmup = Warmup::default();
    for (seg, g) in segs.iter().zip(&graphs) {
        untimed_batches(seg.warmup, &mut warmup, seg.alu_share, |t| {
            batch(&cx, seg, g, t)
        });
    }
    pe.barrier();
    report.put_setup(args.t0_ns, &warmup);

    assert!(args.seconds.len() <= segs.len(), "more times than segments");
    // A traced run keeps each segment in one piece (see `exchange::entry`).
    let stretches = if args.trace { 1 } else { STRETCHES };
    let samples = in_turns(&args.seconds, stretches, |i, seconds| {
        let (seg, g) = (&segs[i], &graphs[i]);
        pe.barrier();
        if let Some(t) = &cx.tracer {
            t.take();
            t.set_every(seg.sample_every);
        }
        let pe_ops = (seg.repeats as usize * g.tasks()) as f64 / pe.num_pes() as f64;
        let samples = timed_batches(pe, seconds, pe_ops, seg.alu_share, |t| {
            batch(&cx, seg, g, t)
        });
        if let Some(t) = &cx.tracer {
            report.put_spans(seg.name, &t.take());
        }
        samples
    });
    for (seg, samples) in segs.iter().zip(&samples) {
        if !samples.per_op_ns.is_empty() {
            report.put_samples(seg.name, samples);
        }
    }
    // The fixed work behind `peak_rss_mb` (see `exchange::entry`).
    for (seg, g) in segs.iter().zip(&graphs) {
        untimed_batches(
            args.soak * seg.warmup,
            &mut Warmup::default(),
            seg.alu_share,
            |t| batch(&cx, seg, g, t),
        );
    }
    pe.barrier();
    report.finish(pe, cx.ok.get(), cx.failed.get(), args.trace);
}
