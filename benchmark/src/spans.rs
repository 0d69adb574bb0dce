//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Everything here is measured from outside the crates: a span brackets
//! one public call (`sync_send_and_free`, `csd_scheduler`, …) or one of
//! the benchmark's own handler bodies. Records are fixed-size, go into a
//! per-PE buffer allocated before the run, and are written out when the
//! run ends. One *round* (a send phase plus the scheduler call that
//! consumes it) in every `every` is sampled, and inside a sampled round
//! every span is kept, so a parent's self time — its duration minus the
//! part its children cover — is exact for that round.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span brackets. The label's prefix is the layer charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    /// `Message::new` / `Message::with_priority`.
    MsgNew = 0,
    /// `Pe::sync_send_and_free`.
    Send = 1,
    /// `csd_scheduler` / `schedule_until`: self time is scheduler
    /// overhead plus, on a 2-PE machine, waiting for the peer.
    Sched = 2,
    /// A benchmark handler body (validator included).
    Handler = 3,
    /// `Pe::queue_enqueue` from a handler.
    Enqueue = 4,
    /// `cth_awaken` from a handler.
    Awaken = 5,
    /// A consumer thread's body between resume and `cth_suspend`.
    ThreadBody = 6,
    /// `Layer::run` of one task graph.
    GraphRun = 7,
    /// A library handler seen through the public `TraceSink` hook
    /// (`BeginProcessing`..`EndProcessing`), task graphs only.
    LibHandler = 8,
}

impl Name {
    const ALL: [Name; 9] = [
        Name::MsgNew,
        Name::Send,
        Name::Sched,
        Name::Handler,
        Name::Enqueue,
        Name::Awaken,
        Name::ThreadBody,
        Name::GraphRun,
        Name::LibHandler,
    ];

    /// `<layer>.<call>` label used in tables and the Chrome trace.
    pub fn label(self) -> &'static str {
        match self {
            Name::MsgNew => "msg.new",
            Name::Send => "machine.send",
            Name::Sched => "core.sched",
            Name::Handler => "bench.handler",
            Name::Enqueue => "queue.enqueue",
            Name::Awaken => "threads.awaken",
            Name::ThreadBody => "threads.body",
            Name::GraphRun => "taskbench.run",
            Name::LibHandler => "core.handler",
        }
    }

    fn from_u8(v: u8) -> Option<Name> {
        Name::ALL.get(v as usize).copied()
    }
}

/// Consecutive rounds sampled at a time; see [`Tracer::new`].
pub const BURST: u64 = 16;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One fixed-size span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was bracketed.
    pub name: Name,
    /// Start, nanoseconds since the run's common origin.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index (within the same PE's buffer) of the enclosing span.
    pub parent: u32,
    /// The op (message / task-graph batch) this span belongs to; spans
    /// of one op share it.
    pub op: u32,
}

struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    dropped: u64,
}

/// One PE's span recorder. Shared with handler closures, hence `Sync`;
/// only the owning PE writes. The round bookkeeping is relaxed atomics
/// (single writer), so an unsampled round costs a few loads and stores;
/// the mutex is taken only inside sampled rounds and is never contended —
/// its cost is part of the tracing overhead the benchmark reports.
pub struct Tracer {
    inner: Mutex<Inner>,
    capacity: usize,
    active: AtomicBool,
    full: AtomicBool,
    rounds: AtomicU64,
    sampled_ops: AtomicU64,
    every: AtomicU64,
    epoch: Instant,
    /// `epoch` on the run's common clock (ns since the driver's t0).
    epoch_ns: u64,
}

impl Tracer {
    /// A recorder holding at most `capacity` spans. Out of every `every`
    /// rounds the first [`BURST`] are sampled — consecutive ones, so the
    /// recorder's own code and buffer are warm after the first and a
    /// span costs what [`calibrate`] measures. `epoch_ns` places this
    /// process on the run's clock.
    pub fn new(capacity: usize, every: u64, epoch_ns: u64) -> Tracer {
        Tracer {
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(16),
                dropped: 0,
            }),
            capacity,
            active: AtomicBool::new(false),
            full: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
            sampled_ops: AtomicU64::new(0),
            every: AtomicU64::new(every.max(1)),
            epoch: Instant::now(),
            epoch_ns,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a PE panicked while tracing")
    }

    fn now_ns(&self) -> u64 {
        self.epoch_ns + self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a round of `ops` ops; spans are kept until [`end_round`]
    /// when this round is a sampled one.
    ///
    /// [`end_round`]: Tracer::end_round
    #[inline]
    pub fn begin_round(&self, ops: u64) {
        let round = self.rounds.load(Ordering::Relaxed);
        self.rounds.store(round + 1, Ordering::Relaxed);
        let window = self.every.load(Ordering::Relaxed) * BURST;
        let sampled = round % window < BURST && !self.full.load(Ordering::Relaxed);
        if sampled {
            let n = self.sampled_ops.load(Ordering::Relaxed);
            self.sampled_ops.store(n + ops, Ordering::Relaxed);
        }
        self.active.store(sampled, Ordering::Relaxed);
    }

    /// Sample [`BURST`] rounds in every `every × BURST` from now on.
    pub fn set_every(&self, every: u64) {
        self.every.store(every.max(1), Ordering::Relaxed);
    }

    /// End the current round.
    #[inline]
    pub fn end_round(&self) {
        self.active.store(false, Ordering::Relaxed);
    }

    /// Open a span; it closes when the guard drops. A no-op outside a
    /// sampled round.
    #[inline]
    pub fn span(&self, name: Name, op: u32) -> Guard<'_> {
        if !self.active.load(Ordering::Relaxed) {
            return Guard(None);
        }
        self.open(name, op);
        Guard(Some(self))
    }

    /// Open a span without a guard (for begin/end callbacks).
    pub fn open(&self, name: Name, op: u32) {
        if !self.active.load(Ordering::Relaxed) {
            return;
        }
        let mut g = self.lock();
        if g.spans.len() == self.capacity {
            g.dropped += 1;
            g.open.push(ROOT);
            self.full.store(true, Ordering::Relaxed);
            return;
        }
        let parent = g.open.last().copied().unwrap_or(ROOT);
        let idx = g.spans.len() as u32;
        g.open.push(idx);
        let start_ns = self.now_ns();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    /// Close the innermost open span. Like [`Tracer::open`], a no-op
    /// outside a sampled round — spans never straddle a round's end.
    pub fn close(&self) {
        if !self.active.load(Ordering::Relaxed) {
            return;
        }
        let end_ns = self.now_ns();
        let mut g = self.lock();
        if let Some(idx) = g.open.pop() {
            if idx != ROOT {
                g.spans[idx as usize].end_ns = end_ns;
            }
        }
    }

    /// Drain what one segment recorded — its spans, the ops its sampled
    /// rounds covered, and how many spans the full buffer refused — and
    /// reset for the next segment (the buffer keeps its capacity).
    pub fn take(&self) -> Taken {
        let mut g = self.lock();
        self.rounds.store(0, Ordering::Relaxed);
        self.full.store(false, Ordering::Relaxed);
        g.open.clear();
        let spans = g.spans.clone();
        g.spans.clear();
        Taken {
            spans,
            sampled_ops: self.sampled_ops.swap(0, Ordering::Relaxed),
            dropped: std::mem::take(&mut g.dropped),
        }
    }
}

/// One segment's recording; see [`Tracer::take`].
#[derive(Debug, Default, Clone)]
pub struct Taken {
    /// Every span of every sampled round.
    pub spans: Vec<Span>,
    /// Ops covered by the sampled rounds.
    pub sampled_ops: u64,
    /// Spans refused because the buffer was full.
    pub dropped: u64,
}

/// Closes its span on drop.
pub struct Guard<'a>(Option<&'a Tracer>);

impl Drop for Guard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(t) = self.0 {
            t.close();
        }
    }
}

/// `span` on an optional tracer: the untraced path costs one branch.
#[inline]
pub fn span(t: &Option<std::sync::Arc<Tracer>>, name: Name, op: u32) -> Guard<'_> {
    match t {
        Some(t) => t.span(name, op),
        None => Guard(None),
    }
}

/// One span as a line for the captured-output channel.
pub fn encode(pe: usize, s: &Span) -> String {
    format!(
        "S {pe} {} {} {} {} {}",
        s.name as u8, s.start_ns, s.end_ns, s.parent, s.op
    )
}

/// Inverse of [`encode`]; `None` for any other line.
pub fn decode(line: &str) -> Option<(usize, Span)> {
    let mut f = line.strip_prefix("S ")?.split_ascii_whitespace();
    let pe = f.next()?.parse().ok()?;
    let name = Name::from_u8(f.next()?.parse().ok()?)?;
    let span = Span {
        name,
        start_ns: f.next()?.parse().ok()?,
        end_ns: f.next()?.parse().ok()?,
        parent: f.next()?.parse().ok()?,
        op: f.next()?.parse().ok()?,
    };
    Some((pe, span))
}

/// Aggregate self time of one span name on one PE.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Σ (duration − children − clock correction), ns.
    pub self_ns: f64,
    /// Σ duration, ns.
    pub total_ns: f64,
}

/// What recording a span costs, split by where the cost lands: `inside`
/// the span's own duration, and `outside` it — in the enclosing span's
/// self time. Measured, not assumed: see [`calibrate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// ns of recording cost inside each span's own duration.
    pub inside_ns: f64,
    /// ns each child span adds to its parent's self time.
    pub outside_ns: f64,
}

/// Measure [`Overhead`] on this host: empty spans inside one parent.
pub fn calibrate() -> Overhead {
    const N: usize = 4096;
    let t = Tracer::new(N + 1, 1, 0);
    t.begin_round(0);
    {
        let _parent = t.span(Name::Sched, 0);
        for _ in 0..N {
            let _child = t.span(Name::Handler, 0);
        }
    }
    t.end_round();
    let spans = t.take().spans;
    let parent = (spans[0].end_ns - spans[0].start_ns) as f64;
    let inside: f64 = spans[1..]
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    Overhead {
        inside_ns: inside / N as f64,
        outside_ns: ((parent - inside) / N as f64).max(0.0),
    }
}

/// Self time per span name for one PE's buffer: a span's duration minus
/// the part its children cover, minus the recording cost that landed in
/// it (its own `inside_ns`, and `outside_ns` per child). Never below 0.
pub fn self_times(spans: &[Span], cost: Overhead) -> BTreeMap<Name, SelfTime> {
    let mut child_ns = vec![0.0f64; spans.len()];
    let mut children = vec![0u32; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += (s.end_ns - s.start_ns) as f64;
            children[s.parent as usize] += 1;
        }
    }
    let mut out: BTreeMap<Name, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end_ns - s.start_ns) as f64;
        let own = dur - child_ns[i] - cost.inside_ns - cost.outside_ns * children[i] as f64;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += own.max(0.0);
        e.total_ns += dur;
    }
    out
}

/// Mean gap between the end of the `Awaken` span of an op and the start
/// of that op's `ThreadBody` span: enqueue of the ready-entry, the
/// scheduler reaching it, and the context switch. `None` without pairs.
pub fn wake_latency_ns(spans: &[Span], cost: Overhead) -> Option<f64> {
    let awakened: BTreeMap<u32, u64> = spans
        .iter()
        .filter(|s| s.name == Name::Awaken)
        .map(|s| (s.op, s.end_ns))
        .collect();
    let gaps: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == Name::ThreadBody)
        .filter_map(|s| {
            let a = *awakened.get(&s.op)?;
            Some((s.start_ns.saturating_sub(a) as f64 - cost.outside_ns).max(0.0))
        })
        .collect();
    (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Chrome-trace ("Trace Event Format") JSON for `chrome://tracing` /
/// Perfetto: one complete event per span, `pid` = PE.
pub fn chrome_trace(per_pe: &BTreeMap<usize, Vec<Span>>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for (pe, spans) in per_pe {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pe},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.parent == ROOT { -1 } else { s.parent as i64 },
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}
