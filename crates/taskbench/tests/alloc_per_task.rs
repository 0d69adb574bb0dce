//! What a task costs the allocator above the message layer, and that a
//! finished run leaves nothing behind.
//!
//! This binary installs a counting `#[global_allocator]` and holds one
//! test, so nothing else in the process allocates while it counts.

use converse_machine::Pe;
use converse_msg::{pool, MsgBlock};
use converse_taskbench::exec::{assert_machine_valid, run_graph_raw, Layer, PeSummary, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use converse_threads::{cth_create, cth_resume, cth_suspend, CthBackend, CthRuntime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`; the counters
// touch no memory the allocator hands out. `realloc` and `alloc_zeroed`
// keep their defaults, which go through `alloc` and `dealloc` here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated and not yet freed.
fn live_bytes() -> i64 {
    ALLOCATED.load(Ordering::Relaxed) as i64 - FREED.load(Ordering::Relaxed) as i64
}

/// Fill this PE's message pool to its cap and its thread-context pool
/// to `threads` contexts. A free chunk joins the list of whichever PE
/// freed it, and the context pool holds as many contexts as its PE ever
/// had threads alive at once: both are bounded (the second by the
/// program: no run here has more than `threads` alive), but where they
/// stand after a run depends on the schedule, and between them that is
/// megabytes. Holding as much as a pool can retain and letting it all
/// go leaves the pool exactly full, so two samples of `live_bytes`
/// taken after this differ by what the runs in between left behind —
/// growth *inside* a pool, past its documented bound, included.
fn fill_pools(pe: &Pe, threads: usize) {
    // A class retains 64 KiB of messages, or 64 chunks if that is more
    // (`converse_msg::pool`).
    let mut size = pool::MIN_CLASS;
    while size <= pool::MAX_CLASS {
        let chunks = (64 * 1024 / size).max(64);
        let held: Vec<_> = (0..chunks).map(|_| MsgBlock::alloc(size)).collect();
        drop(held);
        size *= 2;
    }
    // Every thread takes its context at its first resume and gives it
    // back when it returns at its second.
    let parked: Vec<_> = (0..threads).map(|_| cth_create(pe, cth_suspend)).collect();
    for _ in 0..2 {
        for t in &parked {
            cth_resume(pe, t);
        }
    }
}

const PES: usize = 2;

/// Allocator calls (allocations and frees) per task a layer may make,
/// per-run set-up amortized in. The raw engine and Charm make none per
/// task; what is left is a run's flat arrays and its collectives (0.3
/// and 0.35 calls per task on these graphs).
const RAW_AND_CHARM_CALLS_PER_TASK: f64 = 4.0;
/// tSM pays per task for a thread object — its boxed entry function,
/// one allocation and its free; the handle is the one the slot's last
/// thread left — and per edge nothing: the mailbox holds the arriving
/// message and the receiver waiting for it. 3.1 calls per task measured
/// on these small graphs, 1.1 of them the run's own set-up (it was 5.3
/// with a handle allocated per thread, 18 before ISSUE 18).
const TSM_FIBER_CALLS_PER_TASK: f64 = 4.0;
/// On the hand-off backend every task is an OS thread as well, and a
/// chunk freed on one OS thread is not in the pool of another: 21.9
/// measured (it was 30), bounded 20 % above.
const TSM_HANDOFF_CALLS_PER_TASK: f64 = 27.0;

#[derive(Clone, Copy, Debug)]
enum Engine {
    Raw,
    Layer(Layer),
}

impl Engine {
    fn run(self, pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
        match self {
            Engine::Raw => run_graph_raw(pe, graph, opts),
            Engine::Layer(l) => l.run(pe, graph, opts),
        }
    }
}

fn graph(pattern: Pattern, width: usize, steps: usize) -> Arc<TaskGraph> {
    Arc::new(TaskGraph::generate(GraphSpec {
        pattern,
        seed: 1996,
        width,
        steps,
    }))
}

/// Allocator calls per task over `runs` runs of each of `graphs`, all
/// PEs' together, after one warm-up run of each. Collective.
fn calls_per_task(pe: &Pe, engine: Engine, graphs: &[Arc<TaskGraph>], runs: u64) -> f64 {
    let opts = RunOpts::default();
    for g in graphs {
        let summary = engine.run(pe, g, &opts);
        assert_machine_valid(pe, g, &summary, opts.payload_bytes);
    }
    pe.barrier();
    let before = CALLS.load(Ordering::Relaxed);
    pe.barrier();
    for _ in 0..runs {
        for g in graphs {
            let summary = engine.run(pe, g, &opts);
            assert!(summary.violations.is_empty() && !summary.gave_up);
        }
    }
    pe.barrier();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    pe.barrier();
    let tasks: usize = graphs.iter().map(|g| g.num_tasks()).sum();
    calls as f64 / (runs * tasks as u64) as f64
}

/// Bytes one run of `g` asks the allocator for on a 1-PE machine whose
/// message pool is full — every edge a pool hit — after a run at each
/// payload size, the large one first, has sized the PE's fan-out
/// scratch: the run's own state and its collectives.
fn bytes_per_run(pe: &Pe, engine: Engine, g: &Arc<TaskGraph>, payload_bytes: usize) -> u64 {
    let opts = RunOpts {
        payload_bytes,
        ..RunOpts::default()
    };
    fill_pools(pe, 0);
    let before = ALLOCATED.load(Ordering::Relaxed);
    let summary = engine.run(pe, g, &opts);
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_machine_valid(pe, g, &summary, payload_bytes);
    bytes
}

#[test]
fn a_task_makes_few_allocator_calls_and_a_run_leaves_nothing() {
    // What a run allocates does not depend on its payload size: an edge
    // is digested where it arrives, 8 bytes a dependency kept. (With a
    // payload arena the benchmark's large stencil asked for 704 KiB more
    // at 16 KiB than at 16 B.)
    let stencil = graph(Pattern::Stencil1D, 8, 3);
    converse_machine::run(1, move |pe| {
        for engine in [Engine::Raw, Engine::Layer(Layer::Charm)] {
            for warm_up in [16 * 1024, 16] {
                bytes_per_run(pe, engine, &stencil, warm_up);
            }
            let small = bytes_per_run(pe, engine, &stencil, 16);
            let large = bytes_per_run(pe, engine, &stencil, 16 * 1024);
            println!("{engine:?}: a run allocates {small} B at 16 B, {large} B at 16 KiB");
            assert_eq!(
                large, small,
                "{engine:?}: bytes per run depend on the payload"
            );
        }
    });

    let graphs = [
        graph(Pattern::Stencil1D, 64, 8),
        graph(Pattern::Random, 64, 8),
    ];
    let small = [
        graph(Pattern::Stencil1D, 16, 4),
        graph(Pattern::Random, 16, 4),
    ];
    converse_machine::run(PES, move |pe| {
        let show = |what: &str, calls: f64, bound: f64| {
            if pe.my_pe() == 0 {
                println!("{what}: {calls:.2} allocator calls per task (bound {bound})");
            }
            assert!(
                calls <= bound,
                "{what}: {calls:.2} allocator calls per task, more than {bound}"
            );
        };
        let raw = calls_per_task(pe, Engine::Raw, &graphs, 10);
        show("raw", raw, RAW_AND_CHARM_CALLS_PER_TASK);
        let charm = calls_per_task(pe, Engine::Layer(Layer::Charm), &graphs, 10);
        show("charm", charm, RAW_AND_CHARM_CALLS_PER_TASK);
        let tsm_bound = match CthRuntime::get(pe).backend() {
            CthBackend::Fiber => TSM_FIBER_CALLS_PER_TASK,
            CthBackend::Handoff => TSM_HANDOFF_CALLS_PER_TASK,
        };
        let tsm = calls_per_task(pe, Engine::Layer(Layer::Tsm), &small, 4);
        show("tsm", tsm, tsm_bound);

        // A thousand runs on every engine: the handler table stops
        // growing after the first, and what is live after run 1 000 is
        // what was live after run 100 — no handler, group branch,
        // combiner, run state or exited thread is left behind.
        let opts = RunOpts::default();
        // tSM runs a thread per task: no run has more alive at once.
        let most_threads = small.iter().map(|g| g.num_tasks()).max().unwrap();
        let mut at_100 = (0, 0);
        for run in 1..=1000 {
            for g in &small {
                for engine in [
                    Engine::Raw,
                    Engine::Layer(Layer::Charm),
                    Engine::Layer(Layer::Tsm),
                ] {
                    let summary = engine.run(pe, g, &opts);
                    assert_machine_valid(pe, g, &summary, opts.payload_bytes);
                }
            }
            if run == 100 || run == 1000 {
                fill_pools(pe, most_threads);
                pe.barrier();
                let now = (pe.num_handlers(), live_bytes());
                pe.barrier();
                if run == 100 {
                    at_100 = now;
                } else {
                    assert_eq!(now.0, at_100.0, "the handler table grew");
                    let grown = now.1 - at_100.1;
                    if pe.my_pe() == 0 {
                        println!("live bytes after run 1000 − after run 100: {grown}");
                    }
                    assert!(
                        grown.abs() <= 64 * 1024,
                        "{grown} more bytes live after run 1000 than after run 100"
                    );
                }
            }
        }
    });
}
