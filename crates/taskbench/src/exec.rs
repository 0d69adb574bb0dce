//! Execution engines: run a [`TaskGraph`] over a live machine and prove
//! the schedule correct.
//!
//! Three adapters share one bookkeeping core (`RunState`: flat
//! arrays sized from the graph, an arriving payload digested straight
//! out of its message), differing only in which Converse layer carries
//! the dependency edges:
//!
//! * [`run_graph_raw`] — one machine handler; every edge is one
//!   generalized message (self-edges included), optionally on a named
//!   delivery channel. The floor the layered adapters are compared
//!   against, and the engine the chaos matrix uses to pin guarantee
//!   semantics (an at-most-once channel must *fail* validation under
//!   drops).
//! * [`run_graph_charm`] — a [`GroupChare`] branch per PE; every edge
//!   is an asynchronous group-entry invocation through the scheduler
//!   queue, the §3.3 message-driven idiom.
//! * [`run_graph_tsm`] — one tSM thread per local task, blocking in
//!   `tSMReceive` per dependency; edges are tagged tSM messages and the
//!   §3.2.2 thread/scheduler composition does the sequencing.
//!
//! Every adapter returns a [`PeSummary`] whose
//! [`validate`](PeSummary::validate) checks, per local task,
//! exactly-once execution and the dependency-order output hash against
//! the generator's serial oracle; [`assert_machine_valid`] adds a
//! machine-wide collective check (task count + XOR hash fold). A cell
//! of the workload matrix only reports a number after this passes.
//!
//! **Run protocol.** Raw and Charm runs open and close with no
//! collective. Every raw message and every Charm edge carries the number
//! of its run, which each PE counts per engine (runs are collective, so
//! every PE counts the same), and one rule decides what a PE does with
//! it: an edge of the run it is in is served, an edge of a run it has not
//! entered yet is *held* — its bytes copied into a list the engine owns,
//! replayed when the PE enters that run, after its sources — and an edge
//! of a run it has left is dropped. Only a bounded run
//! ([`RunOpts::give_up`]) leaves edges behind: a PE whose tasks all
//! executed consumed every edge addressed to it, each delivered once. A
//! held edge counted as processed for quiescence when its handler held
//! it; its replay sends only what serving it sends. Two collectives stay:
//! a PE's first raw run opens with a barrier, so that no edge reaches a
//! PE before it registered the raw handlers, and a Charm run with no
//! live group creates one collectively. The Charm group lives across
//! runs; after a bounded run every PE retires it. tSM runs, whose
//! messages carry no run number, open and close with a barrier.
//!
//! **Lockstep requirement.** Like every Converse registration API, the
//! adapters register handlers/combiners/group kinds — once per PE, the
//! first time each is used — and must therefore be called in the same
//! order on every PE of the machine.

use crate::{chain_output, fill_payload, payload_digest, TaskGraph, TaskId};
use converse_charm::{Charm, GroupChare, GroupId, GroupKind};
use converse_core::{csd_scheduler_until_idle, schedule_until};
use converse_ldb::LdbPolicy;
use converse_machine::coll::CombinerId;
use converse_machine::{Channel, Message, OwnerCell, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use converse_msg::{HandlerId, Priority};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How to run a graph: the non-structural axes of the matrix cell.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Busy-work per task, in nanoseconds (the grain axis). `0` = pure
    /// overhead measurement.
    pub grain_ns: u64,
    /// Transmitted payload bytes per dependency edge (the message-size
    /// axis). Every byte is digested by the consumer, so the size is
    /// semantically load-bearing, not padding.
    pub payload_bytes: usize,
    /// Named delivery channel for dependency messages (raw engine
    /// only). `None` = the default exactly-once channel.
    pub channel: Option<String>,
    /// Bounded-progress mode: instead of blocking until completion
    /// (and tripping the machine watchdog on a wedged run), pump the
    /// scheduler and give up after this long, letting
    /// [`PeSummary::validate`] report the incompleteness. The chaos
    /// matrix runs lossy at-most-once cells this way.
    pub give_up: Option<Duration>,
    /// Relocatable-execution mode (raw engine only): a ready task is
    /// not executed inline by its owner but packaged — serial id plus
    /// the digests of the received dependency payloads, 8 bytes an edge
    /// whatever the payload size — into a *stealable* self-addressed
    /// READY message, so an idle PE's work stealing
    /// (`MachineConfig::steal`) can relocate the execution. The thief
    /// fans the successor edges out itself and returns a non-stealable
    /// CREDIT to the owner, which keeps all exactly-once accounting.
    /// Termination switches to a DONE/ALL_DONE convergecast on PE 0,
    /// since a PE whose own tasks finished may still owe execution of
    /// stolen work.
    pub steal: bool,
    /// In steal mode, the percentage of READY messages routed to PE 0
    /// instead of the owner (deterministic per serial id) — the skew
    /// knob that manufactures the hotspot `tests/steal.rs` relocates.
    /// `0` = every READY stays on its owner.
    pub steal_to0_pct: u8,
    /// Spend the grain in `thread::sleep` instead of a busy spin. On
    /// hosts with fewer cores than PEs a spinning hotspot monopolizes
    /// the core and stealing cannot be observed; sleeping yields it.
    pub sleep_grain: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            grain_ns: 0,
            payload_bytes: 16,
            channel: None,
            give_up: None,
            steal: false,
            steal_to0_pct: 0,
            sleep_grain: false,
        }
    }
}

/// Spin for `ns` nanoseconds of busy-work — the task "computation".
/// Deliberately clock-bounded rather than iteration-bounded so the
/// grain axis means the same thing on every host.
fn busy_spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// What one PE observed executing its share of a graph.
#[derive(Debug, Clone)]
pub struct PeSummary {
    /// Serial ids of the tasks this PE owns.
    pub local: Vec<u32>,
    /// Execution count per local task (parallel to `local`); anything
    /// but 1 fails validation.
    pub execs: Vec<u32>,
    /// Output hash per local task (parallel to `local`); `None` = the
    /// task never ran.
    pub outputs: Vec<Option<u64>>,
    /// Protocol violations observed at runtime (dependency arriving
    /// for an already-executed task, over-complete dependency sets…).
    pub violations: Vec<String>,
    /// True when the run hit [`RunOpts::give_up`] before completing.
    pub gave_up: bool,
}

impl PeSummary {
    /// Check exactly-once execution and every output hash against the
    /// generator's serial oracle; `payload_bytes` must match the
    /// [`RunOpts`] of the run. Returns the first violation.
    pub fn validate(&self, graph: &TaskGraph, payload_bytes: usize) -> Result<(), String> {
        self.validate_against(graph, &graph.expected_outputs(payload_bytes))
    }

    /// [`PeSummary::validate`] against outputs the caller already has
    /// from the oracle.
    fn validate_against(&self, graph: &TaskGraph, expected: &[u64]) -> Result<(), String> {
        if let Some(v) = self.violations.first() {
            return Err(format!("protocol violation: {v}"));
        }
        for (i, &serial) in self.local.iter().enumerate() {
            let id = graph.task_of_serial(serial);
            if self.execs[i] != 1 {
                return Err(format!(
                    "task ({},{}) executed {} times (want exactly once){}",
                    id.step,
                    id.index,
                    self.execs[i],
                    if self.gave_up { " — run gave up" } else { "" }
                ));
            }
            match self.outputs[i] {
                Some(h) if h == expected[serial as usize] => {}
                Some(h) => {
                    return Err(format!(
                        "task ({},{}) hash {h:#x} != expected {:#x} — dependency order or \
                         payload integrity broken",
                        id.step, id.index, expected[serial as usize]
                    ))
                }
                None => {
                    return Err(format!(
                        "task ({},{}) executed but recorded no output",
                        id.step, id.index
                    ))
                }
            }
        }
        Ok(())
    }

    /// XOR-fold of this PE's recorded outputs plus its executed-task
    /// count — the per-PE contribution to the machine-wide check.
    pub fn fold(&self) -> (u64, u64) {
        let count = self.execs.iter().map(|&e| e as u64).sum();
        let fold = self.outputs.iter().flatten().fold(0u64, |a, &b| a ^ b);
        (count, fold)
    }
}

/// The combiner of [`assert_machine_valid`]'s (count, fold) allreduce,
/// registered the first time a PE validates.
struct FoldOp(CombinerId);

/// Machine-wide validation: local per-task validation on every PE plus
/// an allreduce of (executed count, XOR hash fold) checked against the
/// generator's oracle — so a task double-executed on the wrong PE (a
/// placement bug the local check cannot see) still fails. Collective:
/// every PE of the machine must call it.
pub fn assert_machine_valid(pe: &Pe, graph: &TaskGraph, summary: &PeSummary, payload_bytes: usize) {
    let expected = graph.expected_outputs(payload_bytes);
    if let Err(e) = summary.validate_against(graph, &expected) {
        panic!("PE {}: taskbench validation failed: {e}", pe.my_pe());
    }
    let op = pe
        .local(|| {
            FoldOp(pe.register_combiner(|a, b| {
                let (ca, fa) = split_fold(a);
                let (cb, fb) = split_fold(b);
                join_fold(ca + cb, fa ^ fb)
            }))
        })
        .0;
    let (count, fold) = summary.fold();
    let all = pe.allreduce_bytes(join_fold(count, fold), op);
    let (total, folded) = split_fold(&all);
    assert_eq!(
        total,
        graph.num_tasks() as u64,
        "machine-wide executed-task count is wrong"
    );
    assert_eq!(
        folded,
        expected.iter().fold(0u64, |a, b| a ^ b),
        "machine-wide output-hash fold diverged from the generator's oracle"
    );
}

fn join_fold(count: u64, fold: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&fold.to_le_bytes());
    out
}

fn split_fold(bytes: &[u8]) -> (u64, u64) {
    let c = u64::from_le_bytes(bytes[..8].try_into().expect("16-byte fold"));
    let f = u64::from_le_bytes(bytes[8..16].try_into().expect("16-byte fold"));
    (c, f)
}

/// The raw engine's handlers, registered once per PE.
#[derive(Clone, Copy)]
struct RawHandlers {
    dep: HandlerId,
    ready: HandlerId,
    credit: HandlerId,
    done: HandlerId,
    all_done: HandlerId,
}

/// What carries a run's dependency edges.
enum Carrier {
    /// One generalized message per edge, stamped with the number of its
    /// `run`, on `channel` (`None` = the default exactly-once channel).
    Raw {
        handlers: RawHandlers,
        run: u32,
        channel: Option<Channel>,
    },
    /// An entry invocation on group `gid` of `charm`, stamped with the
    /// number of its `run`.
    Charm {
        charm: Arc<Charm>,
        gid: GroupId,
        run: u32,
    },
    /// A tSM message tagged with the consumer's serial.
    Tsm,
}

/// Most dependencies a task may have: arrivals are one bit each.
const MAX_DEPS: usize = u32::BITS as usize;

/// Bytes of one dependency slot: a little-endian payload digest.
const SLOT: usize = std::mem::size_of::<u64>();

/// Where a graph's tasks run on a machine of one PE count, and where
/// each keeps its digests: built by the first run on that many PEs and
/// read by every later one ([`Layouts`]).
#[derive(Debug)]
pub(crate) struct Layout {
    num_pes: usize,
    /// Owner of each task, by serial ([`TaskGraph::owner`]).
    owner: Vec<u32>,
    /// Index of each task's first digest slot among its owner's, by
    /// serial; a task's slots are adjacent, one per dependency.
    slot_base: Vec<u32>,
    /// Per PE, its tasks' digest slots and its tasks by serial.
    pes: Vec<PeLayout>,
}

/// One PE's share of a [`Layout`].
#[derive(Debug)]
struct PeLayout {
    /// Digest slots of all its tasks.
    slots: usize,
    /// Serials of its tasks, level-major ([`TaskGraph::local_serials`]).
    local: Vec<u32>,
    /// Serials of its tasks with no dependency: where a run starts.
    sources: Vec<u32>,
}

impl Layout {
    fn new(graph: &TaskGraph, num_pes: usize) -> Layout {
        let n = graph.num_tasks();
        let mut owner = Vec::with_capacity(n);
        let mut slot_base = Vec::with_capacity(n);
        let mut pes: Vec<PeLayout> = (0..num_pes)
            .map(|_| PeLayout {
                slots: 0,
                local: Vec::new(),
                sources: Vec::new(),
            })
            .collect();
        for serial in 0..n as u32 {
            let id = graph.task_of_serial(serial);
            let pe = graph.owner(id, num_pes);
            let deps = graph.deps(id).len();
            assert!(
                deps <= MAX_DEPS,
                "taskbench: a task has {deps} dependencies"
            );
            let mine = &mut pes[pe];
            owner.push(pe as u32);
            slot_base.push(mine.slots as u32);
            mine.slots += deps;
            mine.local.push(serial);
            if deps == 0 {
                mine.sources.push(serial);
            }
        }
        Layout {
            num_pes,
            owner,
            slot_base,
            pes,
        }
    }
}

/// The run layouts of one graph, one per PE count it ran on: a list that
/// only grows, built node by node as runs ask and read without a lock.
#[derive(Debug, Default)]
pub(crate) struct Layouts(OnceLock<Box<(Arc<Layout>, Layouts)>>);

impl Layouts {
    /// The layout of `graph` on `num_pes` PEs, built if no run on that
    /// many PEs asked before.
    fn get(&self, graph: &TaskGraph, num_pes: usize) -> &Arc<Layout> {
        let mut at = self;
        loop {
            let (layout, next) = &**at.0.get_or_init(|| {
                Box::new((Arc::new(Layout::new(graph, num_pes)), Layouts::default()))
            });
            if layout.num_pes == num_pes {
                return layout;
            }
            at = next;
        }
    }
}

/// What a PE keeps from run to run, so that a run allocates nothing
/// sized by its payload or its graph: the buffers of the last run's
/// [`Progress`].
struct Spare(OwnerCell<Progress>);

/// What a run has seen so far. Indexed by task serial; only this PE's
/// tasks' entries are used.
#[derive(Default)]
struct Progress {
    /// Bit `k` is set once the task's `k`-th dependency (in the graph's
    /// order, which is serial order) arrived.
    arrived: Vec<u32>,
    /// Execution count per task.
    execs: Vec<u32>,
    /// Output hash per executed task.
    outputs: Vec<Option<u64>>,
    /// One [`SLOT`] per dependency of every local task, a task's slots
    /// adjacent and in dependency order (`Layout::slot_base`): the
    /// digest of the payload that arrived on that edge, as a READY
    /// message carries it. A complete task's output is chained out of
    /// its slots.
    digests: Vec<u8>,
    /// The payload of the task being fanned out, expanded once for all
    /// its successors.
    payload: Vec<u8>,
    /// Runtime protocol violations (validated later, not panicked on —
    /// the chaos matrix *wants* to observe failures).
    violations: Vec<String>,
    /// Local tasks still to execute.
    remaining: usize,
    /// This PE reported its local completion to PE 0 already.
    done_sent: bool,
    /// DONE reports seen (meaningful on PE 0 only).
    dones: usize,
    /// PE 0 declared the whole machine finished.
    all_done: bool,
}

/// Shared bookkeeping for one graph run on one PE.
struct RunState {
    graph: Arc<TaskGraph>,
    /// The graph's layout on this machine.
    layout: Arc<Layout>,
    carrier: Carrier,
    grain_ns: u64,
    payload_bytes: usize,
    /// Where this PE keeps the buffers between runs.
    spare: Arc<Spare>,
    /// Touched only by this PE's execution contexts, one at a time: an
    /// arrival opens it once, for `on_dep` → `make_ready` → `fan_out`.
    progress: OwnerCell<Progress>,
    /// Relocatable-execution mode (see [`RunOpts::steal`]).
    steal: bool,
    /// READY-to-PE0 skew percentage ([`RunOpts::steal_to0_pct`]).
    steal_to0_pct: u8,
    /// Sleep the grain instead of spinning ([`RunOpts::sleep_grain`]).
    sleep_grain: bool,
}

impl RunState {
    fn new(graph: Arc<TaskGraph>, opts: &RunOpts, pe: &Pe, carrier: Carrier) -> Arc<RunState> {
        let layout = graph.layouts.get(&graph, pe.num_pes()).clone();
        let spare = pe.local(|| Spare(OwnerCell::new(pe.owner(), Progress::default())));
        let mut p = spare.0.with(pe.owner(), std::mem::take);
        let n = graph.num_tasks();
        let mine = &layout.pes[pe.my_pe()];
        for a in [&mut p.arrived, &mut p.execs] {
            a.clear();
            a.resize(n, 0);
        }
        p.outputs.clear();
        p.outputs.resize(n, None);
        p.digests.clear();
        p.digests.resize(mine.slots * SLOT, 0);
        p.remaining = mine.local.len();
        Arc::new(RunState {
            progress: OwnerCell::new(pe.owner(), p),
            graph,
            layout,
            carrier,
            grain_ns: opts.grain_ns,
            payload_bytes: opts.payload_bytes,
            spare,
            steal: opts.steal,
            steal_to0_pct: opts.steal_to0_pct,
            sleep_grain: opts.sleep_grain,
        })
    }

    /// Spend one task's grain: a clock-bounded busy spin, or a sleep
    /// when the run opted into yielding the core.
    fn grain_wait(&self) {
        if self.sleep_grain && self.grain_ns > 0 {
            std::thread::sleep(Duration::from_nanos(self.grain_ns));
        } else {
            busy_spin(self.grain_ns);
        }
    }

    /// The byte range of the digest slots of `serial`, a task of this PE
    /// with `deps` dependencies.
    fn slots_of(&self, serial: u32, deps: usize) -> Range<usize> {
        let base = self.layout.slot_base[serial as usize] as usize * SLOT;
        base..base + deps * SLOT
    }

    /// Whether this PE owns `serial`, a task of the graph.
    fn is_mine(&self, pe: &Pe, serial: u32) -> bool {
        self.layout.owner[serial as usize] as usize == pe.my_pe()
    }

    /// A task's output hash over its dependencies' payload digests, read
    /// from `slots` — the task's own, or a READY message's copy.
    fn output_of(&self, deps: &[TaskId], serial: u32, slots: &[u8]) -> u64 {
        let digests = slots
            .chunks_exact(SLOT)
            .map(|d| u64::from_le_bytes(d.try_into().expect("a whole slot")));
        let preds = deps.iter().map(|d| self.graph.serial(*d));
        chain_output(self.graph.head(serial), preds.zip(digests))
    }

    /// Record a message no correct run sends: validated later, not
    /// panicked on.
    fn violation(&self, pe: &Pe, what: String) {
        self.progress(pe, |p| p.violations.push(what));
    }

    /// Open the run's bookkeeping. `f` may send, but must not come back
    /// here: a re-entrant opening panics.
    fn progress<R>(&self, pe: &Pe, f: impl FnOnce(&mut Progress) -> R) -> R {
        self.progress.with(pe.owner(), f)
    }

    /// A dependency edge as the carriers frame it: the consumer's
    /// serial unless the carrier's tag gave it (`tagged`), the
    /// producer's, then the length-prefixed payload.
    fn on_edge(&self, pe: &Pe, tagged: Option<u32>, mut body: Unpacker<'_>) {
        let dst = tagged.map_or_else(|| body.u32(), Ok);
        match (dst, body.u32(), body.bytes()) {
            (Ok(dst), Ok(src), Ok(payload)) => self.on_dep(pe, dst, src, payload),
            _ => self.violation(pe, "a dependency message is cut short".into()),
        }
    }

    /// Record one dependency arrival for local task `dst`: digest the
    /// payload, where it lies in the message, into the dependency's
    /// slot and, when the set completes, execute and fan out.
    fn on_dep(&self, pe: &Pe, dst: u32, src: u32, payload: &[u8]) {
        let Some(id) = self.graph.try_task_of_serial(dst) else {
            return self.violation(
                pe,
                format!("dependency {src}→{dst} names a task the graph does not have"),
            );
        };
        let deps = self.graph.deps(id);
        self.progress(pe, |p| {
            let mut violation = |what: &str| {
                p.violations.push(format!(
                    "dependency {src}→{dst} of task ({},{}) {what}",
                    id.step, id.index
                ))
            };
            let slot = deps.iter().position(|d| self.graph.serial(*d) == src);
            let Some(k) = slot.filter(|_| self.is_mine(pe, dst)) else {
                return violation("is not an edge into a task of this PE");
            };
            if payload.len() != self.payload_bytes {
                return violation(&format!("carries {} bytes", payload.len()));
            }
            // One bit per edge catches both ways an edge arrives twice.
            if p.arrived[dst as usize] & (1 << k) != 0 {
                return violation(if p.execs[dst as usize] > 0 {
                    "arrived after the task already executed"
                } else {
                    "arrived twice — duplicates on the wire"
                });
            }
            p.arrived[dst as usize] |= 1 << k;
            let at = self.slots_of(dst, deps.len()).start + k * SLOT;
            p.digests[at..at + SLOT].copy_from_slice(&payload_digest(payload).to_le_bytes());
            if p.arrived[dst as usize].count_ones() as usize == deps.len() {
                self.make_ready(pe, p, id, dst);
            }
        })
    }

    /// `serial`'s dependencies are all here: run it, or in steal mode
    /// package it for whoever gets to it first.
    fn make_ready(&self, pe: &Pe, p: &mut Progress, id: TaskId, serial: u32) {
        if self.steal {
            let slots = self.slots_of(serial, self.graph.deps(id).len());
            self.emit_ready(pe, serial, &p.digests[slots]);
        } else {
            self.execute(pe, p, id, serial);
        }
    }

    /// Run one ready task: grain busy-work, chained output hash,
    /// exactly-once accounting, successor fan-out.
    fn execute(&self, pe: &Pe, p: &mut Progress, id: TaskId, serial: u32) {
        self.grain_wait();
        let deps = self.graph.deps(id);
        let out = self.output_of(deps, serial, &p.digests[self.slots_of(serial, deps.len())]);
        p.execs[serial as usize] += 1;
        p.outputs[serial as usize] = Some(out);
        p.remaining -= 1;
        self.fan_out(pe, &mut p.payload, id, serial, out);
    }

    /// Send `serial`'s output to every successor, expanded once into
    /// `payload`.
    fn fan_out(&self, pe: &Pe, payload: &mut Vec<u8>, id: TaskId, serial: u32, out: u64) {
        let succs = self.graph.successors(id);
        if succs.is_empty() {
            return;
        }
        payload.resize(self.payload_bytes, 0);
        fill_payload(out, payload);
        for s in succs {
            let dst = self.graph.serial(*s);
            let dst_pe = self.layout.owner[dst as usize] as usize;
            self.emit(pe, dst_pe, dst, serial, payload);
        }
    }

    /// Carry one dependency edge `src → dst` to `dst`'s owner. Header
    /// and payload are gathered straight into the message on every
    /// carrier.
    fn emit(&self, pe: &Pe, dst_pe: usize, dst: u32, src: u32, payload: &[u8]) {
        match &self.carrier {
            Carrier::Raw {
                handlers,
                run,
                channel,
            } => {
                let head = StackPacker::<16>::new()
                    .u32(*run)
                    .u32(dst)
                    .u32(src)
                    .len_prefix(payload.len());
                let parts = [head.as_slice(), payload];
                let msg = Message::gather(handlers.dep, &Priority::None, parts);
                match *channel {
                    Some(c) => pe.sync_send_and_free_on(dst_pe, c, msg),
                    None => pe.sync_send_and_free(dst_pe, msg),
                }
            }
            Carrier::Charm { charm, gid, run } => {
                let head = StackPacker::<16>::new()
                    .u32(*run)
                    .u32(dst)
                    .u32(src)
                    .len_prefix(payload.len());
                let parts = [head.as_slice(), payload];
                charm.send_group_parts(pe, *gid, dst_pe, EP_DEP, &parts, Priority::None);
            }
            Carrier::Tsm => {
                let head = StackPacker::<8>::new().u32(src).len_prefix(payload.len());
                converse_sm::tsm::send_parts(pe, dst_pe, dst as i32, &[head.as_slice(), payload]);
            }
        }
    }

    /// Start this PE's dependency-free tasks (the level-0 sources — and
    /// under `Pattern::Trivial`, everything).
    fn run_sources(&self, pe: &Pe) {
        self.progress(pe, |p| {
            for &serial in &self.layout.pes[pe.my_pe()].sources {
                self.make_ready(pe, p, self.graph.task_of_serial(serial), serial);
            }
        })
    }

    /// Pump the scheduler until `done` holds of the run's progress, or (in
    /// bounded mode) until the give-up deadline. Returns whether it gave up.
    fn pump_until(&self, pe: &Pe, give_up: Option<Duration>, done: fn(&Progress) -> bool) -> bool {
        let done = || self.progress(pe, |p| done(p));
        match give_up {
            None => {
                schedule_until(pe, done);
                false
            }
            Some(d) => {
                let deadline = Instant::now() + d;
                while !done() {
                    csd_scheduler_until_idle(pe);
                    if Instant::now() >= deadline {
                        return true;
                    }
                    std::thread::yield_now();
                }
                false
            }
        }
    }

    /// Pump until all local tasks ran.
    fn await_completion(&self, pe: &Pe, give_up: Option<Duration>) -> bool {
        self.pump_until(pe, give_up, |p| p.remaining == 0)
    }

    /// This PE's summary of the run. The run's arrays go back to the
    /// PE's spares unless it gave up, when a task of it may still wake.
    fn summarize(&self, pe: &Pe, gave_up: bool) -> PeSummary {
        let local = &self.layout.pes[pe.my_pe()].local;
        self.progress(pe, |p| {
            let summary = PeSummary {
                execs: local.iter().map(|&s| p.execs[s as usize]).collect(),
                outputs: local.iter().map(|&s| p.outputs[s as usize]).collect(),
                local: local.clone(),
                violations: std::mem::take(&mut p.violations),
                gave_up,
            };
            if !gave_up {
                let arrays = Progress {
                    arrived: std::mem::take(&mut p.arrived),
                    execs: std::mem::take(&mut p.execs),
                    outputs: std::mem::take(&mut p.outputs),
                    digests: std::mem::take(&mut p.digests),
                    payload: std::mem::take(&mut p.payload),
                    ..Progress::default()
                };
                self.spare.0.with(pe.owner(), |spare| *spare = arrays);
            }
            summary
        })
    }

    // ---- relocatable-execution (steal) protocol, raw engine only ----

    /// A raw-engine control message: the run's number, then `body`.
    fn raw_msg(&self, pick: impl Fn(&RawHandlers) -> HandlerId, body: &[&[u8]]) -> Message {
        let Carrier::Raw { handlers, run, .. } = &self.carrier else {
            unreachable!("the steal protocol runs on the raw engine only")
        };
        let run = run.to_le_bytes();
        let parts = std::iter::once(&run[..]).chain(body.iter().copied());
        Message::gather(pick(handlers), &Priority::None, parts)
    }

    /// Package a ready task as a stealable READY message: serial id
    /// plus its digest slots — with the graph, everything an arbitrary
    /// PE needs to execute it. Routed to PE 0 for `steal_to0_pct`% of
    /// serials (a deterministic draw), otherwise back to this PE.
    fn emit_ready(&self, pe: &Pe, serial: u32, slots: &[u8]) {
        let mut msg = self.raw_msg(|h| h.ready, &[&serial.to_le_bytes(), slots]);
        msg.mark_stealable();
        let skewed = crate::fnv1a(&serial.to_le_bytes()) % 100 < self.steal_to0_pct as u64;
        let dst = if skewed { 0 } else { pe.my_pe() };
        pe.sync_send_and_free(dst, msg);
    }

    /// Execute a READY message wherever it landed — owner, skew target,
    /// or thief. Computes the chained hash, fans successor edges out
    /// directly, and returns the result to the owner as a non-stealable
    /// CREDIT; no local accounting happens here.
    fn on_ready(&self, pe: &Pe, mut body: Unpacker<'_>) {
        let task = body.u32().ok().and_then(|serial| {
            let id = self.graph.try_task_of_serial(serial)?;
            (body.remaining() == self.graph.deps(id).len() * SLOT).then_some((serial, id))
        });
        let Some((serial, id)) = task else {
            return self.violation(
                pe,
                "a READY names no task with its dependency digests".into(),
            );
        };
        self.grain_wait();
        let out = self.output_of(self.graph.deps(id), serial, body.rest());
        self.progress(pe, |p| self.fan_out(pe, &mut p.payload, id, serial, out));
        let owner = self.layout.owner[serial as usize] as usize;
        let credit = self.raw_msg(|h| h.credit, &[&serial.to_le_bytes(), &out.to_le_bytes()]);
        pe.sync_send_and_free(owner, credit);
    }

    /// Owner-side accounting for one executed task. The last credit
    /// reports this PE's completion to PE 0.
    fn on_credit(&self, pe: &Pe, mut body: Unpacker<'_>) {
        let (Ok(serial), Ok(out)) = (body.u32(), body.u64()) else {
            return self.violation(pe, "a CREDIT is cut short".into());
        };
        let owned = self.graph.try_task_of_serial(serial);
        if owned.is_none_or(|_| !self.is_mine(pe, serial)) {
            return self.violation(pe, format!("a CREDIT names {serial}, no task of this PE"));
        }
        self.progress(pe, |p| {
            p.execs[serial as usize] += 1;
            p.outputs[serial as usize] = Some(out);
            p.remaining -= 1;
            self.send_done(pe, p);
        })
    }

    /// Tell PE 0 this PE's local tasks all completed, once they have
    /// (at most once).
    fn send_done(&self, pe: &Pe, p: &mut Progress) {
        if p.remaining == 0 && !std::mem::replace(&mut p.done_sent, true) {
            pe.sync_send_and_free(0, self.raw_msg(|h| h.done, &[]));
        }
    }

    /// PE 0: count completions; the machine-wide last one releases
    /// every PE from the termination pump.
    fn on_done(&self, pe: &Pe) {
        self.progress(pe, |p| {
            p.dones += 1;
            if p.dones == pe.num_pes() {
                for dst in 0..pe.num_pes() {
                    pe.sync_send_and_free(dst, self.raw_msg(|h| h.all_done, &[]));
                }
            }
        })
    }
}

// ---- runs of the raw and Charm engines ---------------------------------

/// What serves one raw message or Charm edge of a run: its body behind
/// the run number.
type Serve = for<'a> fn(&RunState, &Pe, Unpacker<'a>);

/// The runs of one engine on one PE: how many it has entered, the one it
/// is in, and the edges of runs it has not entered yet.
#[derive(Default)]
struct Runs {
    /// Runs entered so far: the number of the next one.
    entered: u32,
    /// The run this PE is in (`None` between runs), numbered
    /// `entered - 1`.
    current: Option<Arc<RunState>>,
    /// Held edges in arrival order: run number, what serves the edge,
    /// and where its body lies in `held_bytes`. Both lists keep their
    /// capacity from run to run.
    held: Vec<(u32, Serve, Range<usize>)>,
    held_bytes: Vec<u8>,
}

impl Runs {
    /// Enter the next run, built by `start` from its number.
    fn enter(&mut self, start: impl FnOnce(u32) -> Arc<RunState>) -> Arc<RunState> {
        let state = start(self.entered);
        self.entered += 1;
        self.current = Some(state.clone());
        state
    }

    /// A raw message or Charm edge, its run's number and then what
    /// `serve` reads: serve it if this PE is in that run, hold it if the
    /// PE has not entered it yet, drop it if the PE left it.
    fn admit(&mut self, pe: &Pe, msg: &[u8], serve: Serve) {
        let mut body = Unpacker::new(msg);
        let Ok(run) = body.u32() else {
            if let Some(current) = &self.current {
                current.violation(pe, "a message carries no run number".into())
            }
            return;
        };
        let body = body.rest();
        if run >= self.entered {
            let at = self.held_bytes.len();
            self.held_bytes.extend_from_slice(body);
            self.held.push((run, serve, at..self.held_bytes.len()));
        } else if run + 1 == self.entered {
            if let Some(current) = &self.current {
                serve(current, pe, Unpacker::new(body));
            }
        }
        // Otherwise left over from a run that gave up.
    }

    /// Serve the held edges of the run this PE just entered, drop those
    /// of runs it left, and keep those of later runs.
    fn replay(&mut self, pe: &Pe) {
        let Runs {
            entered,
            current: Some(current),
            held,
            held_bytes,
        } = self
        else {
            return;
        };
        let now = *entered - 1;
        let (mut kept, mut end) = (0, 0);
        for i in 0..held.len() {
            let (run, serve, at) = held[i].clone();
            if run == now {
                serve(current, pe, Unpacker::new(&held_bytes[at]));
            } else if run > now {
                let len = at.len();
                held_bytes.copy_within(at, end);
                held[kept] = (run, serve, end..end + len);
                (kept, end) = (kept + 1, end + len);
            }
        }
        held.truncate(kept);
        held_bytes.truncate(end);
    }
}

// ---- raw machine-layer engine -------------------------------------------

/// The raw engine of one PE: its handlers, registered once, and its runs.
/// Every raw message starts with its run's number (its epoch), the count
/// of earlier [`run_graph_raw`] calls.
struct RawEngine {
    handlers: RawHandlers,
    runs: OwnerCell<Runs>,
}

impl RawEngine {
    fn on_pe(pe: &Pe) -> RawEngine {
        /// A handler that gives `serve` the message's body behind its run
        /// number, by the rule of [`Runs::admit`].
        fn handler(pe: &Pe, serve: Serve) -> HandlerId {
            pe.register_handler(move |pe, msg| {
                let engine = pe.local_ref::<RawEngine>().expect("registered by it");
                // Open across the call: sends never dispatch, so nothing
                // below asks for it again.
                engine
                    .runs
                    .with(pe.owner(), |runs| runs.admit(pe, msg.payload(), serve))
            })
        }
        RawEngine {
            handlers: RawHandlers {
                dep: handler(pe, |run, pe, body| run.on_edge(pe, None, body)),
                ready: handler(pe, RunState::on_ready),
                credit: handler(pe, RunState::on_credit),
                done: handler(pe, |run, pe, _| run.on_done(pe)),
                all_done: handler(pe, |run, pe, _| run.progress(pe, |p| p.all_done = true)),
            },
            runs: OwnerCell::new(pe.owner(), Runs::default()),
        }
    }
}

/// Execute `graph` with dependency edges as plain machine-layer
/// messages. Collective: every PE calls it (in lockstep with any other
/// registration activity) and gets back its own [`PeSummary`].
///
/// A run opens with no collective, except a PE's first, whose barrier
/// keeps edges from PEs that have not registered the engine's handlers
/// yet. A message of a run this PE has not entered is held and served
/// when the PE enters that run, after its sources; one of a run it left
/// (one that gave up) is dropped.
///
/// With [`RunOpts::steal`] set, execution rides relocatable READY
/// messages (see the option's docs); the steal-protocol handlers are
/// registered with the others, on a PE's first call, so the
/// registration order is identical whether or not a given run opts in.
/// A steal-mode run ends only at ALL_DONE, when every READY of it has
/// executed, so a thief may hold a READY of a later run but never meets
/// a live one of an earlier run.
pub fn run_graph_raw(pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
    let engine = pe.local(|| RawEngine::on_pe(pe));
    let state = engine.runs.with(pe.owner(), |runs| {
        runs.enter(|run| {
            let carrier = Carrier::Raw {
                handlers: engine.handlers,
                run,
                channel: opts.channel.as_deref().map(|n| pe.channel(n)),
            };
            RunState::new(graph.clone(), opts, pe, carrier)
        })
    });
    if matches!(state.carrier, Carrier::Raw { run: 0, .. }) {
        pe.barrier();
    }
    state.run_sources(pe);
    engine.runs.with(pe.owner(), |runs| runs.replay(pe));
    let gave_up = if opts.steal {
        // Every PE reports in, even one that owns nothing, and leaves when
        // PE 0 declares the machine done: other PEs' READYs may land here.
        state.progress(pe, |p| state.send_done(pe, p));
        state.pump_until(pe, opts.give_up, |p| p.all_done)
    } else {
        state.await_completion(pe, opts.give_up)
    };
    engine.runs.with(pe.owner(), |runs| runs.current = None);
    state.summarize(pe, gave_up)
}

// ---- Charm-layer adapter ------------------------------------------------

/// Group entry points of the Charm adapter's per-PE branch.
const EP_DEP: u32 = 0;

/// The Charm adapter of one PE: its group kind, registered once, its live
/// group (`None` before the first run and once retired), and its runs.
struct CharmEngine {
    kind: GroupKind,
    group: OwnerCell<Option<GroupId>>,
    runs: OwnerCell<Runs>,
}

/// The per-PE branch: receives dependency invocations and runs ready
/// tasks; fan-out goes back through [`Charm::send_group_parts`], so
/// every edge — self-edges included — is a scheduler-queued asynchronous
/// method invocation, exactly the Charm discipline. It holds only its
/// PE's engine: each invocation is admitted by the engine's runs.
struct TaskBranch(Arc<CharmEngine>);

impl GroupChare for TaskBranch {
    fn new(pe: &Pe, _gid: GroupId, _payload: &[u8]) -> Self {
        // The engine registered the group kind, so it exists on this PE
        // before any group of the kind does.
        TaskBranch(
            pe.local::<CharmEngine, _>(|| unreachable!("a taskbench group before its engine")),
        )
    }

    fn entry(&mut self, pe: &Pe, _gid: GroupId, ep: u32, payload: &[u8]) {
        assert_eq!(ep, EP_DEP, "unknown taskbench group entry {ep}");
        // Open across the call, as the raw handlers open theirs. An edge
        // of a retired group is of a run this PE left.
        self.0.runs.with(pe.owner(), |runs| {
            runs.admit(pe, payload, |run, pe, body| run.on_edge(pe, None, body))
        })
    }
}

/// Execute `graph` on the Charm layer: one group branch per PE, one
/// asynchronous entry invocation per dependency edge. Collective.
///
/// A run opens with no collective while the group lives; with none
/// live, the PEs create one collectively. An edge of a run this PE has
/// not entered is held and served when the PE enters that run, after
/// its sources; one of a run it left (one that gave up) is dropped.
pub fn run_graph_charm(pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
    assert!(
        opts.channel.is_none(),
        "named delivery channels are a raw-engine option; Charm sends ride the default channel"
    );
    assert!(
        !opts.steal,
        "relocatable READY execution is a raw-engine option"
    );
    let charm = Charm::install(pe, LdbPolicy::Direct);
    let engine = pe.local(|| CharmEngine {
        kind: charm.register_group::<TaskBranch>(pe),
        group: OwnerCell::new(pe.owner(), None),
        runs: OwnerCell::new(pe.owner(), Runs::default()),
    });
    let live = engine.group.with(pe.owner(), |g| *g);
    let gid = live.unwrap_or_else(|| {
        // Every PE registered the kind before PE 0 creates the group; the
        // broadcast only processes machine-internal messages, so the
        // asynchronous create cannot race past it.
        pe.barrier();
        let created = (pe.my_pe() == 0).then(|| charm.create_group(pe, engine.kind, &[]));
        let bytes = pe.bcast_bytes(0, created.map(|g| g.0.to_le_bytes().to_vec()));
        GroupId(u64::from_le_bytes(
            bytes.try_into().expect("8-byte group id"),
        ))
    });
    let state = engine.runs.with(pe.owner(), |runs| {
        runs.enter(|run| {
            let carrier = Carrier::Charm {
                charm: charm.clone(),
                gid,
                run,
            };
            RunState::new(graph.clone(), opts, pe, carrier)
        })
    });
    state.run_sources(pe);
    engine.runs.with(pe.owner(), |runs| runs.replay(pe));
    let gave_up = state.await_completion(pe, opts.give_up);
    engine.runs.with(pe.owner(), |runs| runs.current = None);
    // The group serves the next run, unless this one was bounded: it may
    // have given up on some PE with edges still in flight, so every PE
    // retires the group and they are dropped.
    let keep = opts.give_up.is_none().then_some(gid);
    engine.group.with(pe.owner(), |g| *g = keep);
    state.summarize(pe, gave_up)
}

// ---- tSM-layer adapter --------------------------------------------------

/// Execute `graph` on the tSM layer: one thread object per local task,
/// each blocking in `tSMReceive` once per dependency (tag = consumer's
/// serial id), computing, then `tSMSend`-ing to every successor's
/// owner. The §3.2.2 message-manager + thread + scheduler composition
/// does all sequencing: a thread feeds what it receives to the shared
/// bookkeeping, and its last dependency runs the task. Collective.
pub fn run_graph_tsm(pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
    assert!(
        opts.channel.is_none(),
        "named delivery channels are a raw-engine option; tSM sends ride the default channel"
    );
    assert!(
        !opts.steal,
        "relocatable READY execution is a raw-engine option"
    );
    assert!(
        graph.num_tasks() < i32::MAX as usize,
        "tSM tags are i32 task serials"
    );
    converse_sm::Sm::install(pe);
    let state = RunState::new(graph.clone(), opts, pe, Carrier::Tsm);
    pe.barrier();
    for &serial in &state.layout.pes[pe.my_pe()].local {
        let st = state.clone();
        converse_sm::tsm::create(pe, move |pe| {
            let id = st.graph.task_of_serial(serial);
            let need = st.graph.deps(id).len();
            if need == 0 {
                st.progress(pe, |p| st.execute(pe, p, id, serial));
            }
            for _ in 0..need {
                let m = converse_sm::tsm::receive(pe, serial as i32);
                st.on_edge(pe, Some(serial), Unpacker::new(&m.data));
            }
        });
    }
    let gave_up = state.await_completion(pe, opts.give_up);
    // Not needed for correctness: `thread_op_us` measured slower without
    // it (EXPERIMENTS.md, "A Task Bench run synchronises once").
    pe.barrier();
    state.summarize(pe, gave_up)
}

/// The execution layers of the matrix, for drivers that walk them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// [`run_graph_charm`].
    Charm,
    /// [`run_graph_tsm`].
    Tsm,
}

impl Layer {
    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Charm => "charm",
            Layer::Tsm => "tsm",
        }
    }

    /// Run `graph` on this layer (see the layer's function docs).
    pub fn run(self, pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
        match self {
            Layer::Charm => run_graph_charm(pe, graph, opts),
            Layer::Tsm => run_graph_tsm(pe, graph, opts),
        }
    }
}
