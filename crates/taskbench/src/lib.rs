//! **converse-taskbench** — a Task Bench-style parameterized workload
//! matrix for the Converse layers.
//!
//! The paper's evaluation (Figs 4–8) compares paradigms on a handful of
//! hand-picked kernels. Following "Quantifying Overheads in Charm++ and
//! HPX using Task Bench" (PAPERS.md), this crate replaces the kernels
//! with one **deterministic, seeded dependency-graph generator** whose
//! patterns ([`Pattern`]) cross with message size, task grain, PE
//! count, execution layer (Charm-style chares vs tSM threads) and
//! transport (in-process vs socket) to yield dozens of comparable
//! scenarios from one harness.
//!
//! Two properties make the matrix trustworthy rather than merely broad:
//!
//! * **Determinism.** Every structural decision is a stateless hash of
//!   `(seed, step, index, k)` — the same idiom `FaultPlan` uses — so
//!   the same [`GraphSpec`] always yields a byte-identical graph
//!   ([`TaskGraph::encode`]), on every PE of every transport, including
//!   inside re-executed socket worker processes.
//! * **Self-validation.** Every task's output is a hash chained over
//!   the digests of its predecessors' *transmitted payload bytes*
//!   ([`finish_output`], [`payload_digest`]). A wrong schedule — a task
//!   run before a dependency, a lost or duplicated dependency message,
//!   a payload truncated in flight — produces the wrong hash and fails
//!   loudly at validation, not just slowly. The generator computes the
//!   expected outputs serially ([`TaskGraph::expected_outputs`]); the
//!   execution engine ([`exec`]) must reproduce them from real message
//!   traffic.

pub mod exec;

/// The dependency patterns of the matrix. Mirrors Task Bench's core
/// set: each pattern fixes, for every non-source task, which tasks of
/// the *previous* timestep it consumes — so every graph is acyclic and
/// leveled by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// No dependencies at all: `width` independent tasks per step. The
    /// per-task floor of a layer — pure spawn/schedule cost.
    Trivial,
    /// 1-D nearest-neighbour stencil: task `i` at step `t` depends on
    /// tasks `{i-1, i, i+1} ∩ [0, width)` at step `t-1`.
    Stencil1D,
    /// Binary reduction tree: level widths halve (`width`, `⌈w/2⌉`, …,
    /// `1`); task `i` depends on tasks `{2i, 2i+1}` of the wider level
    /// above. `steps` is ignored — the depth is `⌈log2 width⌉ + 1`.
    Tree,
    /// FFT-style butterfly: `width` must be a power of two; task `i` at
    /// step `t` depends on `i` and `i XOR 2^((t-1) mod log2 width)`.
    Butterfly,
    /// Seeded random leveled graph: task `i` at step `t` depends on
    /// 1–3 distinct, seed-drawn tasks of step `t-1` (≥ 1 dependency, so
    /// every task is reachable from step 0).
    Random,
}

impl Pattern {
    /// All patterns, in the canonical matrix order.
    pub const ALL: [Pattern; 5] = [
        Pattern::Trivial,
        Pattern::Stencil1D,
        Pattern::Tree,
        Pattern::Butterfly,
        Pattern::Random,
    ];

    /// Stable label used in bench tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Trivial => "trivial",
            Pattern::Stencil1D => "stencil1d",
            Pattern::Tree => "tree",
            Pattern::Butterfly => "butterfly",
            Pattern::Random => "random",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Pattern::Trivial => 0,
            Pattern::Stencil1D => 1,
            Pattern::Tree => 2,
            Pattern::Butterfly => 3,
            Pattern::Random => 4,
        }
    }
}

/// The four numbers that fully determine a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphSpec {
    /// Dependency pattern.
    pub pattern: Pattern,
    /// Seed for the stateless draws (only [`Pattern::Random`] consumes
    /// it structurally, but it salts every task's output hash, so two
    /// seeds are two distinct workloads under every pattern).
    pub seed: u64,
    /// Tasks per timestep (level width; [`Pattern::Tree`] shrinks from
    /// here, [`Pattern::Butterfly`] requires a power of two).
    pub width: usize,
    /// Number of timesteps (levels), including the source level.
    pub steps: usize,
}

/// Identity of one task: `(step, index within the step's level)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// Timestep (level), 0-based.
    pub step: u32,
    /// Index within the level, 0-based.
    pub index: u32,
}

/// One generated dependency graph: leveled tasks, each with its
/// dependency list (always into the previous level) and the derived
/// successor lists the execution engine fans completions out over.
///
/// What a run reads per edge is in tables built here once: the level of
/// every serial, where every task's output chain starts, and — built by
/// the first run on each PE count — which PE owns every task.
#[derive(Debug)]
pub struct TaskGraph {
    /// The spec this graph was generated from.
    pub spec: GraphSpec,
    /// `levels[t]` = dependency lists of the tasks at step `t`.
    levels: Vec<Vec<Vec<TaskId>>>,
    /// Serial-id offset of each level (`offsets[t]` = serial of task
    /// `(t, 0)`); one past the end holds the total task count.
    offsets: Vec<u32>,
    /// Level of each serial id: the inverse of `offsets`, one read.
    level_of: Vec<u32>,
    /// Head of each serial's output chain, `FNV(seed, serial)`
    /// ([`chain_head`]).
    heads: Vec<u64>,
    /// Successors by serial id (derived from the dependency lists).
    succs: Vec<Vec<TaskId>>,
    /// The run layouts on the PE counts this graph ran on.
    layouts: exec::Layouts,
}

/// 64-bit FNV-1a, the hash of the stateless structural draws and of the
/// output chain's header: a multiply per byte, for a few bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

/// An FNV-1a hash in progress.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Stateless structural draw: a pure function of the inputs, so graph
/// generation has no RNG state to keep in sync across PEs/processes.
fn draw(seed: u64, step: u32, index: u32, k: u32) -> u64 {
    let mut buf = [0u8; 20];
    buf[..8].copy_from_slice(&seed.to_le_bytes());
    buf[8..12].copy_from_slice(&step.to_le_bytes());
    buf[12..16].copy_from_slice(&index.to_le_bytes());
    buf[16..20].copy_from_slice(&k.to_le_bytes());
    fnv1a(&buf)
}

/// Expand a task's 64-bit output into the `n` payload bytes its
/// dependents receive. Deterministic and position-dependent, so a
/// truncated, padded, or byte-swapped payload changes every consumer's
/// hash. This is what makes the message-size axis load-bearing: the
/// full payload is hashed by every consumer, not just a header.
pub fn expand_payload(output: u64, n: usize) -> Vec<u8> {
    let mut out = vec![0; n];
    fill_payload(output, &mut out);
    out
}

/// Byte `i` of word `j` is `((8j + i) as u8).wrapping_mul(0x9d)`: the
/// position term of [`fill_payload`], which repeats every 256 bytes.
const POSITION: [u64; 32] = {
    let mut words = [0u64; 32];
    let mut k = 0;
    while k < 256 {
        words[k / 8] |= ((k as u8).wrapping_mul(0x9d) as u64) << (8 * (k % 8));
        k += 1;
    }
    words
};

/// [`expand_payload`] into a buffer the caller already has: byte `k` is
/// `output.to_le_bytes()[k % 8] ^ (k as u8).wrapping_mul(0x9d) ^ (k >> 8) as u8`,
/// written a word at a time.
pub(crate) fn fill_payload(output: u64, out: &mut [u8]) {
    for (hi, block) in out.chunks_mut(256).enumerate() {
        let base = output ^ (hi as u8 as u64).wrapping_mul(0x0101_0101_0101_0101);
        let mut words = block.chunks_exact_mut(8);
        let mut position = POSITION.iter();
        for (word, p) in (&mut words).zip(&mut position) {
            word.copy_from_slice(&(base ^ p).to_le_bytes());
        }
        let tail = words.into_remainder();
        if let Some(p) = position.next() {
            tail.copy_from_slice(&(base ^ p).to_le_bytes()[..tail.len()]);
        }
    }
}

/// One step of the word hash. For a fixed `h` it is a bijection of `w`
/// (and the other way round): a change confined to one step's input
/// always changes the result, whatever follows. The rotation brings a
/// word's high bits under the multiplier's carries at the next step.
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).rotate_left(29).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The digest of one transmitted payload: every byte, its position and
/// the length feed it, so a payload that lost, gained, moved or changed
/// a byte in flight has another digest. It reads the payload once as
/// little-endian words, in four independent multiply chains — a 16 KiB
/// edge costs its bytes, not a dependent multiply per byte — that are
/// folded in lane order; a payload under one 32-byte block, and what is
/// left after the last whole block, is a single chain, with the last
/// partial word zero-padded.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
    let mut h = mix(Fnv::new().0, bytes.len() as u64);
    let mut blocks = bytes.chunks_exact(32);
    if bytes.len() >= 32 {
        let mut lanes = [1u64, 2, 3, 4].map(|lane| mix(h, lane));
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = mix(*lane, word(w));
            }
        }
        h = lanes.into_iter().fold(h, mix);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    h = (&mut words).fold(h, |h, w| mix(h, word(w)));
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(last))
}

/// A task's output hash, chained over its predecessors' transmitted
/// payloads: `H(seed, serial, [(pred_serial, digest(pred_payload))…])`
/// with the predecessor list sorted by serial id (arrival order must not
/// matter — dependencies are unordered, schedules are not) and `digest`
/// = [`payload_digest`].
///
/// The generator calls this with payloads it expands itself
/// ([`TaskGraph::expected_outputs`]); the execution engine digests the
/// bytes that actually came off the wire, as they arrive. Equality of
/// the two is the exactly-once, dependency-order, payload-integrity
/// check in one number.
pub fn finish_output(seed: u64, serial: u32, preds: &mut [(u32, Vec<u8>)]) -> u64 {
    preds.sort_by_key(|(s, _)| *s);
    chain_output(
        chain_head(seed, serial),
        preds.iter().map(|(s, p)| (*s, payload_digest(p))),
    )
}

/// Where task `serial`'s output chain starts: `FNV(seed, serial)`. A
/// graph keeps it for every serial ([`TaskGraph::head`]).
fn chain_head(seed: u64, serial: u32) -> u64 {
    let mut h = Fnv::new();
    h.write(&seed.to_le_bytes());
    h.write(&serial.to_le_bytes());
    h.0
}

/// [`finish_output`] over payload digests already in serial order, from
/// the task's [`chain_head`].
pub(crate) fn chain_output(head: u64, preds: impl Iterator<Item = (u32, u64)>) -> u64 {
    preds.fold(head, |h, (s, digest)| mix(mix(h, s as u64), digest))
}

impl TaskGraph {
    /// Generate the graph for `spec`. Pure and deterministic: the same
    /// spec yields a byte-identical graph ([`TaskGraph::encode`])
    /// everywhere.
    pub fn generate(spec: GraphSpec) -> TaskGraph {
        assert!(spec.width > 0, "taskbench: width must be positive");
        assert!(spec.steps > 0, "taskbench: steps must be positive");
        if spec.pattern == Pattern::Butterfly {
            assert!(
                spec.width.is_power_of_two(),
                "taskbench: butterfly needs a power-of-two width, got {}",
                spec.width
            );
        }
        let level_widths = level_widths(spec);
        let mut levels: Vec<Vec<Vec<TaskId>>> = Vec::with_capacity(level_widths.len());
        for (t, &w) in level_widths.iter().enumerate() {
            let prev_w = if t == 0 { 0 } else { level_widths[t - 1] };
            let mut level = Vec::with_capacity(w);
            for i in 0..w {
                let deps = deps_of(spec, t as u32, i as u32, prev_w);
                // The output chain hashes predecessors in serial order;
                // the oracle and the engines walk the list as it stands.
                assert!(
                    deps.windows(2).all(|w| w[0] < w[1]),
                    "taskbench: dependency list of ({t},{i}) is not in serial order"
                );
                level.push(deps);
            }
            levels.push(level);
        }
        let mut offsets = Vec::with_capacity(levels.len() + 1);
        let mut level_of = Vec::new();
        let mut acc = 0u32;
        for (t, l) in levels.iter().enumerate() {
            offsets.push(acc);
            acc += l.len() as u32;
            level_of.resize(acc as usize, t as u32);
        }
        offsets.push(acc);
        let heads = (0..acc).map(|s| chain_head(spec.seed, s)).collect();
        let mut succs = vec![Vec::new(); acc as usize];
        for (t, level) in levels.iter().enumerate() {
            for (i, deps) in level.iter().enumerate() {
                let me = TaskId {
                    step: t as u32,
                    index: i as u32,
                };
                for d in deps {
                    let serial = offsets[d.step as usize] + d.index;
                    succs[serial as usize].push(me);
                }
            }
        }
        TaskGraph {
            spec,
            levels,
            offsets,
            level_of,
            heads,
            succs,
            layouts: exec::Layouts::default(),
        }
    }

    /// Total number of tasks.
    pub fn num_tasks(&self) -> usize {
        *self.offsets.last().expect("offsets never empty") as usize
    }

    /// Number of levels (timesteps actually generated — differs from
    /// `spec.steps` only for [`Pattern::Tree`]).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Width of level `t`.
    pub fn level_width(&self, t: usize) -> usize {
        self.levels[t].len()
    }

    /// Serial id of a task: a dense 0-based numbering in (step, index)
    /// order — the index every runtime table uses.
    pub fn serial(&self, id: TaskId) -> u32 {
        debug_assert!((id.step as usize) < self.levels.len());
        debug_assert!((id.index as usize) < self.levels[id.step as usize].len());
        self.offsets[id.step as usize] + id.index
    }

    /// Inverse of [`TaskGraph::serial`]. Panics on a serial the graph
    /// does not have.
    pub fn task_of_serial(&self, serial: u32) -> TaskId {
        self.try_task_of_serial(serial)
            .expect("taskbench: serial out of range")
    }

    /// [`TaskGraph::task_of_serial`] for a serial read from a message:
    /// `None` when the graph has no such task.
    #[inline]
    pub(crate) fn try_task_of_serial(&self, serial: u32) -> Option<TaskId> {
        let step = *self.level_of.get(serial as usize)?;
        Some(TaskId {
            step,
            index: serial - self.offsets[step as usize],
        })
    }

    /// Head of `serial`'s output chain, `FNV(seed, serial)`, hashed at
    /// generation.
    pub(crate) fn head(&self, serial: u32) -> u64 {
        self.heads[serial as usize]
    }

    /// The dependency list of a task (tasks of the previous level).
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        &self.levels[id.step as usize][id.index as usize]
    }

    /// The successor list of a task (tasks of the next level that
    /// consume its output).
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[self.serial(id) as usize]
    }

    /// Which PE owns (executes) a task on an `num_pes`-PE machine:
    /// round-robin by index within the level, so every level spreads
    /// across the whole machine.
    pub fn owner(&self, id: TaskId, num_pes: usize) -> usize {
        id.index as usize % num_pes
    }

    /// Serial ids of the tasks `pe` owns, in execution-friendly
    /// (level-major) order.
    pub fn local_serials(&self, pe: usize, num_pes: usize) -> Vec<u32> {
        (0..self.num_tasks() as u32)
            .filter(|&s| self.owner(self.task_of_serial(s), num_pes) == pe)
            .collect()
    }

    /// Canonical byte encoding of the whole structure. Two graphs are
    /// identical iff their encodings are byte-identical — the
    /// determinism contract the golden tests pin.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.spec.pattern.tag());
        out.extend_from_slice(&self.spec.seed.to_le_bytes());
        out.extend_from_slice(&(self.spec.width as u32).to_le_bytes());
        out.extend_from_slice(&(self.spec.steps as u32).to_le_bytes());
        out.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for level in &self.levels {
            out.extend_from_slice(&(level.len() as u32).to_le_bytes());
            for deps in level {
                out.extend_from_slice(&(deps.len() as u32).to_le_bytes());
                for d in deps {
                    out.extend_from_slice(&d.step.to_le_bytes());
                    out.extend_from_slice(&d.index.to_le_bytes());
                }
            }
        }
        out
    }

    /// Serially compute every task's expected output hash (indexed by
    /// serial id) for a given transmitted-payload size — the oracle the
    /// execution engine is validated against.
    pub fn expected_outputs(&self, payload_bytes: usize) -> Vec<u64> {
        let mut out = vec![0u64; self.num_tasks()];
        // Dependency lists are in serial order, so a task's chain is
        // hashed as it is walked, one expanded payload at a time.
        let mut payload = vec![0u8; payload_bytes];
        for (t, level) in self.levels.iter().enumerate() {
            for (i, deps) in level.iter().enumerate() {
                let serial = self.offsets[t] + i as u32;
                let preds = deps.iter().map(|d| {
                    let s = self.serial(*d);
                    fill_payload(out[s as usize], &mut payload);
                    (s, payload_digest(&payload))
                });
                out[serial as usize] = chain_output(self.head(serial), preds);
            }
        }
        out
    }

    /// XOR-fold of all expected outputs: one machine-wide number a
    /// collective can check against, cheap to compare across
    /// transports and layers.
    pub fn expected_fold(&self, payload_bytes: usize) -> u64 {
        self.expected_outputs(payload_bytes)
            .iter()
            .fold(0u64, |a, b| a ^ b)
    }

    /// Structural invariants every generated graph must satisfy;
    /// returns the first violation. Cheap enough to run in `--dry-run`
    /// and property tests:
    ///
    /// * dependencies point exactly one level up (acyclic, leveled);
    /// * dependency indices are in range and duplicate-free;
    /// * per-pattern degree bounds and level widths hold;
    /// * every task is reachable from level 0 (no orphan subgraphs).
    pub fn validate_structure(&self) -> Result<(), String> {
        let spec = self.spec;
        let widths: Vec<usize> = self.levels.iter().map(|l| l.len()).collect();
        if widths != level_widths(spec) {
            return Err(format!(
                "{}: level widths {widths:?} do not match the pattern's shape",
                spec.pattern.label()
            ));
        }
        for (t, level) in self.levels.iter().enumerate() {
            for (i, deps) in level.iter().enumerate() {
                let what = format!("{} task ({t},{i})", spec.pattern.label());
                if t == 0 && !deps.is_empty() {
                    return Err(format!("{what}: source level has dependencies"));
                }
                let mut seen = std::collections::HashSet::new();
                for d in deps {
                    if d.step as usize + 1 != t {
                        return Err(format!(
                            "{what}: dep on step {} is not the previous level",
                            d.step
                        ));
                    }
                    if d.index as usize >= self.levels[t - 1].len() {
                        return Err(format!("{what}: dep index {} out of range", d.index));
                    }
                    if !seen.insert(*d) {
                        return Err(format!("{what}: duplicate dep ({},{})", d.step, d.index));
                    }
                }
                let degree_ok = match spec.pattern {
                    Pattern::Trivial => deps.is_empty(),
                    Pattern::Stencil1D => {
                        // Neighbourhoods clamp at the lattice edge (and
                        // at tiny widths: width 1 → self only).
                        let w = if t == 0 { 0 } else { self.levels[t - 1].len() };
                        t == 0 || (2.min(w)..=3.min(w)).contains(&deps.len())
                    }
                    Pattern::Tree => t == 0 || (1..=2).contains(&deps.len()),
                    Pattern::Butterfly => {
                        t == 0 || deps.len() == 2 || (spec.width == 1 && deps.len() == 1)
                    }
                    Pattern::Random => t == 0 || (1..=3).contains(&deps.len()),
                };
                if !degree_ok {
                    return Err(format!("{what}: degree {} out of bounds", deps.len()));
                }
            }
        }
        // Reachability: walk successor lists from the source level.
        let n = self.num_tasks();
        let mut reached = vec![false; n];
        let mut stack: Vec<TaskId> = (0..self.levels[0].len())
            .map(|i| TaskId {
                step: 0,
                index: i as u32,
            })
            .collect();
        for id in &stack {
            reached[self.serial(*id) as usize] = true;
        }
        while let Some(id) = stack.pop() {
            for s in self.successors(id) {
                let serial = self.serial(*s) as usize;
                if !reached[serial] {
                    reached[serial] = true;
                    stack.push(*s);
                }
            }
        }
        // Trivial's later levels are all sources by design; every other
        // pattern must be one connected cascade from level 0.
        if spec.pattern != Pattern::Trivial {
            if let Some(serial) = reached.iter().position(|r| !r) {
                let id = self.task_of_serial(serial as u32);
                return Err(format!(
                    "{}: task ({},{}) unreachable from level 0",
                    spec.pattern.label(),
                    id.step,
                    id.index
                ));
            }
        }
        Ok(())
    }
}

/// Level widths a spec's pattern produces.
fn level_widths(spec: GraphSpec) -> Vec<usize> {
    match spec.pattern {
        Pattern::Tree => {
            let mut widths = vec![spec.width];
            let mut w = spec.width;
            while w > 1 {
                w = w.div_ceil(2);
                widths.push(w);
            }
            widths
        }
        _ => vec![spec.width; spec.steps],
    }
}

/// Dependency list of task `(t, i)` given the previous level's width.
fn deps_of(spec: GraphSpec, t: u32, i: u32, prev_w: usize) -> Vec<TaskId> {
    if t == 0 {
        return Vec::new();
    }
    let prev = t - 1;
    match spec.pattern {
        Pattern::Trivial => Vec::new(),
        Pattern::Stencil1D => {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(prev_w as u32 - 1);
            (lo..=hi)
                .map(|x| TaskId {
                    step: prev,
                    index: x,
                })
                .collect()
        }
        Pattern::Tree => {
            // Children 2i and 2i+1 of the wider level above.
            let mut deps = vec![TaskId {
                step: prev,
                index: 2 * i,
            }];
            if (2 * i + 1) < prev_w as u32 {
                deps.push(TaskId {
                    step: prev,
                    index: 2 * i + 1,
                });
            }
            deps
        }
        Pattern::Butterfly => {
            let log = spec.width.trailing_zeros();
            if log == 0 {
                return vec![TaskId {
                    step: prev,
                    index: i,
                }];
            }
            let partner = i ^ (1 << ((t - 1) % log));
            let mut deps = vec![
                TaskId {
                    step: prev,
                    index: i,
                },
                TaskId {
                    step: prev,
                    index: partner,
                },
            ];
            deps.sort();
            deps
        }
        Pattern::Random => {
            let max_deps = prev_w.min(3) as u32;
            let want = 1 + (draw(spec.seed, t, i, 0) % max_deps as u64) as u32;
            let mut deps: Vec<TaskId> = Vec::with_capacity(want as usize);
            let mut k = 1;
            while (deps.len() as u32) < want {
                let idx = (draw(spec.seed, t, i, k) % prev_w as u64) as u32;
                k += 1;
                let cand = TaskId {
                    step: prev,
                    index: idx,
                };
                if !deps.contains(&cand) {
                    deps.push(cand);
                }
            }
            deps.sort();
            deps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Graphs of every pattern at several shapes: Tree's levels shrink,
    /// the other patterns' are all one width.
    fn shapes() -> impl Iterator<Item = TaskGraph> {
        Pattern::ALL.into_iter().flat_map(|pattern| {
            [(1, 1), (2, 5), (5, 3), (8, 4), (13, 2), (16, 6)]
                .into_iter()
                .filter(move |(w, _)| pattern != Pattern::Butterfly || usize::is_power_of_two(*w))
                .map(move |(width, steps)| {
                    TaskGraph::generate(GraphSpec {
                        pattern,
                        seed: 0x5EED ^ width as u64,
                        width,
                        steps,
                    })
                })
        })
    }

    #[test]
    fn the_level_table_agrees_with_a_scan_of_the_levels() {
        for g in shapes() {
            let mut serial = 0u32;
            for t in 0..g.num_levels() {
                for i in 0..g.level_width(t) {
                    let id = TaskId {
                        step: t as u32,
                        index: i as u32,
                    };
                    assert_eq!(g.try_task_of_serial(serial), Some(id), "{:?}", g.spec);
                    serial += 1;
                }
            }
            assert_eq!(serial as usize, g.num_tasks());
            for past in [serial, serial + 1, u32::MAX] {
                assert_eq!(g.try_task_of_serial(past), None, "{:?}", g.spec);
            }
        }
    }

    #[test]
    fn a_chain_head_is_the_seed_and_serial_hashed_in_place() {
        for g in shapes() {
            for serial in 0..g.num_tasks() as u32 {
                let mut bytes = g.spec.seed.to_le_bytes().to_vec();
                bytes.extend_from_slice(&serial.to_le_bytes());
                assert_eq!(
                    g.head(serial),
                    fnv1a(&bytes),
                    "{:?} serial {serial}",
                    g.spec
                );
            }
        }
    }
}
