//! What every workload's PE entry shares: the child-process arguments,
//! the batch loop with its host-noise guard, and the line protocol the
//! numbers travel on (captured `cmi_printf` output, as `net_wire` does,
//! so a worker process reports exactly like a PE thread).

use crate::collect::Usage;
use crate::spans::{self, Taken};
use crate::stats::Summary;
use converse_machine::Pe;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 PE, one OS thread: the constant per-message cost.
    Core1Pe,
    /// 2 PE threads, symmetric windowed exchange.
    ExchangeInproc,
    /// The same exchange with PEs as worker processes over shm rings.
    ExchangeShmring,
    /// 2 PE threads running Task Bench graphs on the Charm layer.
    TaskgraphInproc,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 4] = [
        Workload::Core1Pe,
        Workload::ExchangeInproc,
        Workload::ExchangeShmring,
        Workload::TaskgraphInproc,
    ];

    /// The workloads of `BENCHMARK.json`, in its order: the ones the
    /// driver runs and gates. `exchange_shmring` is measured and
    /// printed like the others, and a short run of it is a per-layer row
    /// of every traced run, but it is not among them: it is four busy
    /// threads (two PEs, two ring pollers) on this host's two vCPUs, so
    /// its speed is the guest scheduler's choice — one run's repetitions
    /// read 573–650 ns per small message and, 25 minutes later, 657–757;
    /// two ten-run sets 40 minutes apart had medians 18–22 % apart. The
    /// in-process workloads, pinned to one hardware thread, moved ≤ 2 %.
    pub const GATED: [Workload; 3] = [
        Workload::Core1Pe,
        Workload::ExchangeInproc,
        Workload::TaskgraphInproc,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Core1Pe => "core_1pe",
            Workload::ExchangeInproc => "exchange_inproc",
            Workload::ExchangeShmring => "exchange_shmring",
            Workload::TaskgraphInproc => "taskgraph_inproc",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// PEs of the machine.
    pub fn pes(self) -> usize {
        match self {
            Workload::Core1Pe => 1,
            _ => 2,
        }
    }

    /// True when every PE is its own OS process (process-wide counters
    /// are then per PE and must be summed).
    pub fn multi_process(self) -> bool {
        self == Workload::ExchangeShmring
    }
}

/// Which of a workload's two machines a child process boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Default configuration; segments `small`, `large`, `thread`.
    Clean,
    /// The same plus `FaultPlan::lossy(seed, 0.10, 0.05, 0.10, 2)`;
    /// segment `lossy`.
    Lossy,
}

/// Arguments of one child process (one `run_with`). Workers of a
/// multi-process machine re-execute the child with the same argv, so
/// everything a PE needs to know is here.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Which machine of it.
    pub machine: Machine,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds per segment, in segment order.
    pub seconds: Vec<f64>,
    /// Untimed batches run after the timed segments, as a multiple of
    /// every segment's warm-up count: the fixed work behind
    /// `peak_rss_mb`. 0 in a child that times segments.
    pub soak: u32,
    /// Record spans (per-layer run) instead of measuring end to end.
    pub trace: bool,
    /// When the driver spawned this child, ns since the Unix epoch — the
    /// origin of `setup_s`, `machine.boot_ms` and span timestamps.
    pub t0_ns: u64,
}

/// Wall clock, ns since the Unix epoch: the one clock two processes
/// share. Used for set-up/boot times (≥ 0.1 s quantities) and to align
/// span buffers; batches are timed with `Instant`.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_nanos() as u64
}

/// One PE's report: `M <pe> <key> <value>` lines plus encoded spans,
/// printed through the machine's captured console when the entry ends.
pub struct Report {
    pe: usize,
    /// PE threads in this PE's process: the process-wide counters hold
    /// the calibration slices of all of them.
    pe_threads: u64,
    lines: Vec<String>,
}

impl Report {
    /// An empty report for `pe`, one of `pe_threads` PEs in its process.
    pub fn new(pe: usize, pe_threads: usize) -> Report {
        Report {
            pe,
            pe_threads: pe_threads as u64,
            lines: Vec::new(),
        }
    }

    /// Add one number. Printed with Rust's shortest round-trip float
    /// format, so every measured digit survives.
    pub fn put(&mut self, key: &str, value: f64) {
        self.lines.push(format!("M {} {key} {value}", self.pe));
    }

    /// Add a segment's samples under `<seg>.*`.
    pub fn put_samples(&mut self, seg: &str, s: &Samples) {
        let sum = Summary::of(&s.per_op_ns);
        self.put(&format!("{seg}.p10"), sum.p10);
        self.put(&format!("{seg}.p50"), sum.p50);
        self.put(&format!("{seg}.p90"), sum.p90);
        self.put(&format!("{seg}.p99"), sum.p99);
        self.put(&format!("{seg}.batches"), sum.n as f64);
        let raw = Summary::of(&s.raw_per_op_ns);
        self.put(&format!("{seg}.raw_p10"), raw.p10);
        self.put(
            &format!("{seg}.slowdown"),
            crate::stats::median(&s.slowdown),
        );
        self.put(&format!("{seg}.slice_min"), s.slice_min_ns as f64);
        self.put(&format!("{seg}.pe_ops"), s.pe_ops);
        // The process's counters over the segment, cleared of what the
        // calibration slices added: the PEs of a process run batches in
        // lockstep, so all of them ran as many slices as this one. Their
        // time is all CPU time; their allocations are exact counts.
        let slices = s.slices * self.pe_threads;
        self.put(
            &format!("{seg}.cpu_us"),
            s.usage.cpu_us as f64 - (s.calib_ns * self.pe_threads) as f64 / 1e3,
        );
        self.put(
            &format!("{seg}.allocs"),
            s.usage.allocs.saturating_sub(slices * SLICE_ALLOCS) as f64,
        );
        self.put(
            &format!("{seg}.alloc_bytes"),
            s.usage
                .alloc_bytes
                .saturating_sub(slices * SLICE_ALLOC_BYTES) as f64,
        );
        self.put(&format!("{seg}.vol_switches"), s.usage.vol_switches as f64);
        self.put(&format!("{seg}.pool_hits"), s.pool_hits as f64);
        self.put(&format!("{seg}.pool_misses"), s.pool_misses as f64);
    }

    /// Record the end of set-up. `setup_s` is the time from the driver
    /// spawning this child to now **at reference speed**: the warm-up
    /// batches, which are most of it and as CPU-bound as the timed ones,
    /// count as their reference-speed time (`warmup.reference_ns`)
    /// instead of their wall time (`warmup.wall_ns`), and their
    /// calibration slices not at all; process start, boot and input
    /// generation stay plain wall time. `setup_wall_s` is the whole of it as plain wall time.
    pub fn put_setup(&mut self, t0_ns: u64, warmup: &Warmup) {
        let wall_ns = unix_ns().saturating_sub(t0_ns) as f64;
        self.put("setup_wall_s", wall_ns / 1e9);
        self.put(
            "setup_s",
            (wall_ns - warmup.wall_ns + warmup.reference_ns) / 1e9,
        );
    }

    /// Add a segment's span recording: the encoded spans for the trace
    /// file and `<seg>.sampled_ops` / `<seg>.dropped_spans`.
    pub fn put_spans(&mut self, seg: &str, taken: &Taken) {
        self.put(&format!("{seg}.sampled_ops"), taken.sampled_ops as f64);
        self.put(&format!("{seg}.dropped_spans"), taken.dropped as f64);
        // One segment tag line, then its spans: the driver keeps
        // segments apart without a field per span.
        self.lines.push(format!("G {} {seg}", self.pe));
        for s in &taken.spans {
            self.lines.push(spans::encode(self.pe, s));
        }
    }

    /// Close the report — validation counts, the process's resident-set
    /// high-water mark at exit and, on PE 0 of a traced run, what
    /// recording a span costs — and print everything through `pe`'s
    /// console.
    pub fn finish(mut self, pe: &Pe, ok: u64, failed: u64, traced: bool) {
        self.put("ok", ok as f64);
        self.put("failed", failed as f64);
        self.put("rss_mb", Usage::now().max_rss_kb as f64 / 1024.0);
        if traced && self.pe == 0 {
            let cost = spans::calibrate();
            self.put("trace.inside_ns", cost.inside_ns);
            self.put("trace.outside_ns", cost.outside_ns);
        }
        for l in self.lines {
            pe.cmi_printf(l);
        }
    }
}

/// One slice of the calibration kernel: ~1.3 µs of work the host can only
/// slow down, in two halves timed apart. Neither touches the code under
/// test, so both cost the same on every commit.
///
/// The **arithmetic half** is multiply–xor over 4 KiB of L1-resident
/// state with a locked read-modify-write every eighth word. The **path
/// half** is a frozen miniature of a message path ([`MiniPath`]): small
/// boxes through the allocator, a binary heap keyed by drawn priorities,
/// a handler table called through function pointers.
///
/// Two halves because this host disturbs a program in two ways. A
/// neighbour computing on the sibling hardware thread slows everything by
/// the same 1.28×, and the arithmetic half reads exactly that. A neighbour
/// thrashing the caches the two threads share slows code that walks the
/// allocator, chases pointers and jumps through tables — the message
/// paths — by 10–20 % for minutes on end, while the arithmetic half,
/// which lives in L1 and in one loop, reads 1.00–1.03× and the path half
/// 1.25–1.45×. How a segment's ops divide between the two is the
/// segment's [`alu share`](BatchTime::new).
///
/// Slices are interleaved *inside* every batch. The disturbances come
/// and go faster than a batch lasts; timing the kernel every few dozen
/// microseconds samples the same mixture of quiet and disturbed time as
/// the ops around it.
pub fn calib_slice() -> Slice {
    use std::sync::atomic::{AtomicU64, Ordering};
    // One word per process is enough: the point is the locked
    // instruction, not sharing (each PE thread mostly keeps the line).
    static CELL: AtomicU64 = AtomicU64::new(0);
    let mut a = [0x9E37_79B9_7F4A_7C15u64; 512];
    let t0 = Instant::now();
    let mut carry = 1u64;
    for (i, x) in a.iter_mut().enumerate() {
        *x = (*x ^ carry)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(17);
        carry = *x;
        if i % 8 == 0 {
            carry ^= CELL.fetch_add(carry | 1, Ordering::AcqRel);
        }
    }
    std::hint::black_box(&a);
    let t1 = Instant::now();
    MINI_PATH.with(|m| m.borrow_mut().run(carry));
    Slice {
        alu_ns: (t1 - t0).as_nanos() as u64,
        path_ns: t1.elapsed().as_nanos() as u64,
    }
}

/// What one [`calib_slice`] took, per half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The arithmetic half, ns.
    pub alu_ns: u64,
    /// The path half, ns.
    pub path_ns: u64,
}

/// Heap allocations one [`calib_slice`] makes, and their bytes: exact, so
/// the counting allocator's totals over a segment can be cleared of them.
pub const SLICE_ALLOCS: u64 = MiniPath::ROUNDS as u64;
/// See [`SLICE_ALLOCS`].
pub const SLICE_ALLOC_BYTES: u64 = SLICE_ALLOCS * MiniPath::BODY as u64;

thread_local! {
    static MINI_PATH: std::cell::RefCell<MiniPath> = std::cell::RefCell::new(MiniPath::new());
}

/// The path half of a [`calib_slice`]: per thread, a priority queue of
/// boxed 48-byte bodies. A slice allocates [`MiniPath::ROUNDS`] bodies,
/// queues each under a drawn priority and, with [`MiniPath::RESIDENT`]
/// waiting, takes the first out, runs the handler its priority selects on
/// it and frees it.
struct MiniPath {
    queue: std::collections::BinaryHeap<(u32, Box<[u8; MiniPath::BODY]>)>,
    x: u64,
}

impl MiniPath {
    const ROUNDS: usize = 12;
    const RESIDENT: usize = 6;
    const BODY: usize = 48;
    const HANDLERS: [fn(u64, &[u8; MiniPath::BODY]) -> u64; 4] = [
        |x, b| x.wrapping_mul(31).wrapping_add(b[3] as u64),
        |x, b| x.rotate_left(7) ^ b[17] as u64,
        |x, b| x.wrapping_add(b.iter().map(|&c| c as u64).sum::<u64>()),
        |x, b| (x ^ 0xABCD).wrapping_mul(b[40] as u64 | 1),
    ];

    fn new() -> MiniPath {
        MiniPath {
            // Room for the resident bodies and the one on top, so the
            // queue itself allocates here and never in a slice.
            queue: std::collections::BinaryHeap::with_capacity(Self::RESIDENT + 2),
            x: 0x2545_F491_4F6C_DD1D,
        }
    }

    fn run(&mut self, salt: u64) {
        self.x ^= salt | 1;
        for i in 0..Self::ROUNDS {
            // xorshift64: the priorities and the handler choice.
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let mut body = Box::new([0u8; Self::BODY]);
            body[i * 5 % Self::BODY] = self.x as u8;
            self.queue.push(((self.x >> 40) as u32, body));
            if self.queue.len() > Self::RESIDENT {
                let (prio, body) = self.queue.pop().expect("queue is not empty");
                self.x = Self::HANDLERS[prio as usize & 3](self.x, &body);
            }
        }
        std::hint::black_box(self.x);
    }
}

/// The unit of reference speed: what each half of a [`calib_slice`] costs
/// on the host the benchmark was written on (2.1 GHz Sapphire Rapids
/// vCPU) with its sibling hardware thread idle and its caches
/// undisturbed. They only convert "op time ÷ slice time", the quantity a
/// batch measures, into nanoseconds; on another host every time scales by
/// that host's slice cost (printed as `bench.slice_floor_ns`) and no
/// comparison between two commits changes.
///
/// They are constants and not floors measured when a process starts,
/// because this host has two speeds and stays at one for longer than a
/// start-up lasts: in 30 s of back-to-back slices, 10 ms windows whose
/// *fastest* slice read the quiet cost (1 104 windows) alternated with
/// windows whose fastest read 1.28× that (1 710 windows), the longest
/// slow stretch lasting 7.3 s. A floor taken in a slow stretch would read
/// that stretch as the reference, and the child's values would come out
/// 28 % high.
pub const REFERENCE_ALU_NS: f64 = 690.0;
/// See [`REFERENCE_ALU_NS`].
pub const REFERENCE_PATH_NS: f64 = 580.0;

/// A half-slice slower than this many times the batch's median was
/// interrupted (a timer tick, a stolen vCPU), not slowed: contention from
/// a sibling hardware thread costs at most ~1.45× here. It counts as this
/// much, so one interruption among a batch's 64 slices moves the batch's
/// value by at most 1.5 % instead of halving it — and the 10th
/// percentile, which looks for exactly the batches whose calibration read
/// slow, stays honest. Relative to the batch's own median, so the cap
/// means the same on a host of any speed.
pub const SLICE_CAP: f64 = 2.0;

/// Mean of `ns`, each value capped at [`SLICE_CAP`] × their median.
fn capped_mean(ns: &[u64]) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let cap = (SLICE_CAP * sorted[sorted.len() / 2] as f64) as u64;
    ns.iter().map(|&v| v.min(cap)).sum::<u64>() as f64 / ns.len() as f64
}

/// The clock of one batch: time in the ops, and the calibration slices
/// interleaved with them.
#[derive(Debug, Clone)]
pub struct BatchTime {
    /// ns spent in the measured ops (calibration excluded).
    pub ops_ns: u64,
    /// Wall ns spent running calibration slices (what a batch that
    /// times ops and slices together subtracts).
    pub calib_wall_ns: u64,
    alu_share: f64,
    /// Every slice's halves, ns.
    alu: Vec<u64>,
    path: Vec<u64>,
}

impl BatchTime {
    /// A clock with room for `slices` slices, so that running them
    /// allocates nothing inside a batch, for ops of which `alu_share`
    /// slows down like the kernel's arithmetic half and the rest like
    /// its path half.
    ///
    /// The share is a fitted constant of each kind of segment: per-batch
    /// dumps of 80–100 fresh processes per workload over 15–20 minutes
    /// that held quiet and cache-thrashed stretches, every share on a
    /// grid of 0.1 tried, the one kept under which the processes' floors
    /// lay closest together. The message segments came out at an even
    /// split (the floors of 80 `core_1pe` processes 3.5 % apart for
    /// `small`, 3.4 % for `thread`; 9.7 % and 8.9 % against the
    /// arithmetic half alone), the Charm and tSM task graphs at a quarter
    /// (100 processes 9.3 % and 12 % apart; 13 % and 16 % at an even
    /// split, 26 % and 27 % against the arithmetic half alone): their
    /// calibration slices run in bursts between graph runs, warm after
    /// the first, so the path half shows less of a disturbance than the
    /// handlers suffer and needs the greater weight. The table is in
    /// README.md.
    pub fn new(slices: usize, alu_share: f64) -> BatchTime {
        assert!((0.0..=1.0).contains(&alu_share), "alu share {alu_share}");
        BatchTime {
            ops_ns: 0,
            calib_wall_ns: 0,
            alu_share,
            alu: Vec::with_capacity(slices),
            path: Vec::with_capacity(slices),
        }
    }

    /// Back to zero for the next batch; keeps the slice buffers.
    pub fn reset(&mut self) {
        self.ops_ns = 0;
        self.calib_wall_ns = 0;
        self.alu.clear();
        self.path.clear();
    }

    /// Run `n` calibration slices and account for them.
    pub fn calibrate(&mut self, n: u32) {
        for _ in 0..n {
            let t0 = Instant::now();
            let s = calib_slice();
            self.alu.push(s.alu_ns);
            self.path.push(s.path_ns);
            self.calib_wall_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Slices run since the last reset.
    pub fn slices(&self) -> usize {
        self.alu.len()
    }

    /// The fastest slice of the batch, both halves, ns.
    pub fn slice_min_ns(&self) -> u64 {
        self.alu
            .iter()
            .zip(&self.path)
            .map(|(a, p)| a + p)
            .min()
            .unwrap_or(0)
    }

    /// How much slower than at reference speed ops of this clock's alu
    /// share ran during the batch: each half's mean slice (values capped
    /// at [`SLICE_CAP`] × the batch's median) over its reference cost,
    /// weighted by the share.
    pub fn slowdown(&self) -> f64 {
        assert!(!self.alu.is_empty(), "a batch without calibration");
        self.alu_share * capped_mean(&self.alu) / REFERENCE_ALU_NS
            + (1.0 - self.alu_share) * capped_mean(&self.path) / REFERENCE_PATH_NS
    }

    /// ns in the ops **at reference speed**: their wall time divided by
    /// the slowdown the interleaved kernel saw. Under a noisy neighbour
    /// it is what the wall time would have been without them, to the
    /// extent the kernel and the ops slow down alike (measured here on
    /// the in-process workloads: one run's repetitions 588–747 ns as
    /// wall time, 584–592 ns at reference speed).
    pub fn reference_ns(&self) -> f64 {
        self.ops_ns as f64 / self.slowdown()
    }
}

/// What the fixed-count warm-up of set-up took, summed over its batches:
/// everything a batch does — the ops and whatever the workload checks
/// after them — since all of it is CPU-bound work of this process.
#[derive(Debug, Default, Clone, Copy)]
pub struct Warmup {
    /// Wall ns, calibration slices included.
    pub wall_ns: f64,
    /// The same without the slices and at reference speed, ns.
    pub reference_ns: f64,
}

/// What one timed segment produced on one PE.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Per-batch mean PE-time per op at reference speed, ns
    /// (`elapsed × PEs ÷ machine-wide ops ÷ slowdown`).
    pub per_op_ns: Vec<f64>,
    /// The same batches as plain wall time (diagnostic).
    pub raw_per_op_ns: Vec<f64>,
    /// Per-batch calibration slowdown.
    pub slowdown: Vec<f64>,
    /// The fastest calibration slice of the segment, ns.
    pub slice_min_ns: u64,
    /// Calibration slices this PE ran, and the wall ns it spent in them.
    pub slices: u64,
    /// See `slices`.
    pub calib_ns: u64,
    /// Σ per-PE ops over all batches.
    pub pe_ops: f64,
    /// Process counters accumulated over the segment.
    pub usage: Usage,
    /// This PE's message-pool hits over the segment.
    pub pool_hits: u64,
    /// This PE's message-pool misses over the segment.
    pub pool_misses: u64,
}

impl Samples {
    /// Add another stretch of the same segment.
    fn absorb(&mut self, more: Samples) {
        self.slice_min_ns = if self.per_op_ns.is_empty() {
            more.slice_min_ns
        } else {
            self.slice_min_ns.min(more.slice_min_ns)
        };
        self.slices += more.slices;
        self.calib_ns += more.calib_ns;
        self.per_op_ns.extend(more.per_op_ns);
        self.raw_per_op_ns.extend(more.raw_per_op_ns);
        self.slowdown.extend(more.slowdown);
        self.pe_ops += more.pe_ops;
        self.usage = self.usage.plus(&more.usage);
        self.pool_hits += more.pool_hits;
        self.pool_misses += more.pool_misses;
    }
}

/// Stretches a repetition cuts each segment's time into.
///
/// The segments take turns — `small`, `large`, `thread`, `small`, … — so
/// that every segment's batches are spread over the whole repetition
/// instead of filling one window of it. The host's disturbances last
/// seconds to minutes, and what the calibration kernel does not take out
/// of one moves the floor of the batches it covers: one that covers a
/// segment's only window moves its 10th percentile, one that covers a
/// third of every segment's batches does not.
pub const STRETCHES: u32 = 10;

/// Time segment `i` for `seconds[i]` in all, in `stretches` turns;
/// `time(i, s)` times it for `s` seconds. A segment with no time is
/// skipped and its samples stay empty.
pub fn in_turns(
    seconds: &[f64],
    stretches: u32,
    mut time: impl FnMut(usize, f64) -> Samples,
) -> Vec<Samples> {
    let mut all: Vec<Samples> = seconds.iter().map(|_| Samples::default()).collect();
    for _ in 0..stretches {
        for (i, &s) in seconds.iter().enumerate() {
            if s > 0.0 {
                all[i].absorb(time(i, s / stretches as f64));
            }
        }
    }
    all
}

/// Run batches for `seconds`, in lockstep on every PE of the machine.
///
/// A batch is a fixed op count (`pe_ops` per PE) — never time-adaptive,
/// so two commits do identical work per batch; only the *number* of
/// batches follows the clock. `batch` runs one on the clock it is handed
/// (validation stays outside the timed spans). PE 0 reads the wall clock
/// and broadcasts continue/stop, which also keeps the PEs within one
/// batch of each other.
pub fn timed_batches(
    pe: &Pe,
    seconds: f64,
    pe_ops: f64,
    alu_share: f64,
    mut batch: impl FnMut(&mut BatchTime),
) -> Samples {
    let cap = (seconds * 2000.0) as usize + 16;
    let mut s = Samples {
        per_op_ns: Vec::with_capacity(cap),
        raw_per_op_ns: Vec::with_capacity(cap),
        slowdown: Vec::with_capacity(cap),
        slice_min_ns: u64::MAX,
        ..Samples::default()
    };
    let mut t = BatchTime::new(SLICES_PER_BATCH_MAX, alu_share);
    let pool0 = pe.msg_pool_stats();
    let usage0 = Usage::now();
    let start = Instant::now();
    loop {
        let decision =
            (pe.my_pe() == 0).then(|| vec![(start.elapsed().as_secs_f64() < seconds) as u8]);
        if pe.bcast_bytes(0, decision)[0] == 0 {
            break;
        }
        t.reset();
        batch(&mut t);
        s.per_op_ns.push(t.reference_ns() / pe_ops);
        s.raw_per_op_ns.push(t.ops_ns as f64 / pe_ops);
        s.slowdown.push(t.slowdown());
        s.slice_min_ns = s.slice_min_ns.min(t.slice_min_ns());
        s.slices += t.slices() as u64;
        s.calib_ns += t.calib_wall_ns;
        s.pe_ops += pe_ops;
    }
    s.usage = Usage::now().since(&usage0);
    let pool1 = pe.msg_pool_stats();
    s.pool_hits = pool1.hits - pool0.hits;
    s.pool_misses = pool1.misses - pool0.misses;
    assert!(
        !s.per_op_ns.is_empty(),
        "segment of {seconds}s finished without a single batch"
    );
    s
}

/// Run `n` untimed batches (warm-up, soak) and add what they took to
/// `total`.
pub fn untimed_batches(
    n: u32,
    total: &mut Warmup,
    alu_share: f64,
    mut batch: impl FnMut(&mut BatchTime),
) {
    let mut t = BatchTime::new(SLICES_PER_BATCH_MAX, alu_share);
    for _ in 0..n {
        t.reset();
        let t0 = Instant::now();
        batch(&mut t);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        total.wall_ns += wall_ns;
        total.reference_ns += (wall_ns - t.calib_wall_ns as f64) / t.slowdown();
    }
}

/// Most calibration slices any workload runs in one batch (the tSM task
/// graphs: 8 runs × 32); sizes the slice buffer once.
const SLICES_PER_BATCH_MAX: usize = 256;

/// Median time of one `Pe::barrier`, µs, over a few calls.
pub fn barrier_us(pe: &Pe) -> f64 {
    let v: Vec<f64> = (0..32)
        .map(|_| {
            let t0 = Instant::now();
            pe.barrier();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    crate::stats::median(&v)
}
