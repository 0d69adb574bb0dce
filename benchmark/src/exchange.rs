//! The message program behind `core_1pe`, `exchange_inproc` and
//! `exchange_shmring`: every PE sends a window of validated messages to
//! its peer, then runs the scheduler until the peer's window has been
//! consumed. One program, so the three workloads differ only in where
//! the peer is: the PE itself (one thread, nothing to wait for), another
//! thread behind the in-process `Interconnect`, or another process
//! behind the shared-memory rings.
//!
//! Closed loop: a PE sends its next window only after the peer's
//! arrived, so a slower system is offered less load and no queue grows.

use crate::harness::{
    barrier_us, in_turns, timed_batches, unix_ns, untimed_batches, BatchTime, ChildArgs, Machine,
    Report, Warmup, Workload, STRETCHES,
};
use crate::spans::{span, Name, Tracer};
use crate::stats::{mix, SplitMix};
use crate::validate::{peek_seq, stamp, template, Tally, Validator};
use converse_core::{csd_scheduler, schedule_until};
use converse_machine::{HandlerId, Message, Pe};
use converse_msg::Priority;
use converse_queue::QueueingMode;
use converse_threads::{
    cth_awaken, cth_create_of_size, cth_suspend, set_csd_strategy, CthRuntime, Thread,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Small payload: the header alone.
const SMALL: usize = 16;
/// Large payload, header included.
const LARGE: usize = 16 * 1024;
/// Stack of a consumer thread object; its body is a few frames deep.
const CONSUMER_STACK: usize = 64 * 1024;
/// Seed-drawn priorities cycle through a table of this many entries.
const PRIO_TABLE: usize = 4096;
/// Span buffer per PE; drained after every segment.
const SPAN_CAPACITY: usize = 24_000;
/// Calibration slices interleaved in one batch (one every ~50 µs).
const SLICES_PER_BATCH: u32 = 64;

/// One segment: what is sent, how many per window, how a window is
/// consumed, and the fixed work of a batch.
#[derive(Debug, Clone, Copy)]
struct Segment {
    name: &'static str,
    len: usize,
    window: u32,
    /// Consumed by a thread object per message instead of a handler.
    threaded: bool,
    /// Windows per batch — fixed so a batch is ≈ 2 ms at reference
    /// speed (≥ 1 000 batches in a repetition's 2.5 s) and identical work
    /// on every commit.
    rounds: u32,
    /// Untimed batches run during set-up (pools filled, rings touched,
    /// lazy state built); sized so set-up totals ≈ 0.2 s.
    warmup: u32,
    /// `BURST` consecutive rounds in every `sample_every × BURST` are
    /// traced (see `Tracer::new`).
    sample_every: u64,
}

/// The share of a message segment's op time that slows down like the
/// calibration kernel's arithmetic half; the rest slows like its path
/// half. Fitted — see `BatchTime::new`.
const ALU_SHARE: f64 = 0.5;

/// The segments of `workload` on `machine`, in execution order.
fn segments(workload: Workload, machine: Machine) -> Vec<Segment> {
    let seg = |name, len, window, threaded, rounds, warmup, sample_every| Segment {
        name,
        len,
        window,
        threaded,
        rounds,
        warmup,
        sample_every,
    };
    match (workload, machine) {
        // One message at a time: send → scheduler(2) → next. The window
        // is 1 because with one thread there is no peer to overlap with.
        (Workload::Core1Pe, Machine::Clean) => vec![
            seg("small", SMALL, 1, false, 4000, 32, 64),
            seg("large", LARGE, 1, false, 3500, 32, 64),
            seg("thread", SMALL, 1, true, 2400, 32, 64),
        ],
        // Under loss a window-1 loop would measure the retransmit timer
        // once per drop; a 64-message window over the PE's own (faulty)
        // link keeps the sublayer busy like the 2-PE exchanges do.
        (Workload::Core1Pe, Machine::Lossy) => vec![seg("lossy", SMALL, 64, false, 1, 48, 4)],
        (Workload::ExchangeShmring, Machine::Clean) => vec![
            seg("small", SMALL, 64, false, 32, 20, 8),
            seg("large", LARGE, 16, false, 12, 20, 8),
            seg("thread", SMALL, 64, true, 16, 20, 8),
        ],
        (_, Machine::Clean) => vec![
            seg("small", SMALL, 64, false, 52, 26, 8),
            seg("large", LARGE, 16, false, 96, 26, 8),
            seg("thread", SMALL, 64, true, 18, 26, 8),
        ],
        (_, Machine::Lossy) => vec![seg("lossy", SMALL, 64, false, 1, 36, 4)],
    }
}

/// The thread objects of a `thread` segment: message `seq` is consumed
/// by thread `seq mod slots`. With a window of `w` at most two windows
/// are in flight (the peer cannot send window k+2 before it consumed our
/// window k+1, which we send only after consuming its window k), so `2w`
/// slots never hold two messages at once and every thread is suspended
/// when its next message arrives.
struct Consumers {
    slots: Arc<Vec<Mutex<Option<Message>>>>,
    threads: Vec<Thread>,
}

/// Per-PE state shared between the entry's loop and its handlers. One
/// thread writes it (the PE), so the counters are [`Tally`]s and the
/// mode switches are relaxed atomics — no lock on the handler path.
struct State {
    requeue: bool,
    validator: Validator,
    /// Messages fully consumed (by a handler or a consumer thread).
    consumed: Tally,
    /// Invocations of the benchmark's handlers.
    handler_runs: Tally,
    /// Index into `expect` of the running segment's payload length.
    cur_len: AtomicUsize,
    /// Compare every payload byte (the untimed final round).
    full: AtomicBool,
    /// The peer's payload templates: `[SMALL, LARGE]`.
    expect: [Vec<u8>; 2],
    tracer: Option<Arc<Tracer>>,
    /// Created by the first thread segment's set-up.
    consumers: OnceLock<Consumers>,
}

impl State {
    fn check(&self, payload: &[u8]) {
        let expect = &self.expect[self.cur_len.load(Ordering::Relaxed)];
        // A failure is counted by the validator; the run goes on.
        let _ = self
            .validator
            .check(payload, expect, self.full.load(Ordering::Relaxed));
    }
}

fn create_consumers(pe: &Pe, st: &Arc<State>, n: usize) -> Consumers {
    let slots: Arc<Vec<Mutex<Option<Message>>>> =
        Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let threads = (0..n)
        .map(|i| {
            let (st, slots) = (st.clone(), slots.clone());
            let t = cth_create_of_size(
                pe,
                move |pe: &Pe| loop {
                    let msg = slots[i].lock().expect("slot lock").take();
                    if let Some(m) = msg {
                        let op = peek_seq(m.payload()).unwrap_or(0);
                        let _g = span(&st.tracer, Name::ThreadBody, op);
                        st.check(m.payload());
                        st.consumed.add(1);
                    }
                    cth_suspend(pe);
                },
                CONSUMER_STACK,
            );
            // Awakening enqueues a ready-entry on the Csd queue; the
            // scheduler resumes the thread when it reaches it.
            set_csd_strategy(pe, &t, Priority::None);
            t
        })
        .collect();
    Consumers { slots, threads }
}

/// The handlers, registered in the same order on every PE.
struct Handlers {
    data: HandlerId,
    thread: HandlerId,
}

fn register(pe: &Pe, st: &Arc<State>) -> Handlers {
    // h2 of `core_1pe`: consumes what h1 re-enqueued.
    let s = st.clone();
    let consume = pe.register_handler(move |_pe, msg| {
        s.handler_runs.add(1);
        let op = peek_seq(msg.payload()).unwrap_or(0);
        let _g = span(&s.tracer, Name::Handler, op);
        s.consumed.add(1);
    });
    // h1: validate; then consume, or re-enqueue under the message's own
    // (seed-drawn) integer priority.
    let s = st.clone();
    let data = pe.register_handler(move |pe, mut msg| {
        s.handler_runs.add(1);
        let op = peek_seq(msg.payload()).unwrap_or(0);
        let _g = span(&s.tracer, Name::Handler, op);
        s.check(msg.payload());
        if s.requeue {
            msg.set_handler(consume);
            let _q = span(&s.tracer, Name::Enqueue, op);
            pe.queue_enqueue(msg, QueueingMode::PrioFifo);
        } else {
            s.consumed.add(1);
        }
    });
    // Thread segments: park the message in its slot, awaken its thread.
    let s = st.clone();
    let thread = pe.register_handler(move |pe, msg| {
        s.handler_runs.add(1);
        let op = peek_seq(msg.payload()).unwrap_or(0);
        let _g = span(&s.tracer, Name::Handler, op);
        let c = s
            .consumers
            .get()
            .expect("thread handler ran before a thread segment was set up");
        let i = op as usize % c.slots.len();
        let mut slot = c.slots[i].lock().expect("slot lock");
        if slot.is_some() {
            // Two messages for one suspended thread: a duplicate or a
            // reordered delivery. Count it; awakening twice would break
            // the thread runtime's one-ready-entry-per-thread rule.
            s.validator.failed.add(1);
            s.consumed.add(1);
            return;
        }
        *slot = Some(msg);
        drop(slot);
        let _a = span(&s.tracer, Name::Awaken, op);
        cth_awaken(pe, &c.threads[i]);
    });
    Handlers { data, thread }
}

/// The sender side of one PE: scratch payloads, the priority table and
/// the running sequence number.
struct Sender {
    seed: u64,
    me: usize,
    peer: usize,
    sent: u32,
    prios: Vec<i32>,
    /// This PE's own templates `[SMALL, LARGE]`, stamped per message.
    scratch: [Vec<u8>; 2],
}

fn len_index(len: usize) -> usize {
    (len == LARGE) as usize
}

/// One round: send a window, run the scheduler until the peer's window
/// is consumed.
fn round(pe: &Pe, st: &State, h: &Handlers, tx: &mut Sender, seg: &Segment) {
    if let Some(t) = &st.tracer {
        t.begin_round(seg.window as u64);
    }
    let handler = if seg.threaded { h.thread } else { h.data };
    let buf = &mut tx.scratch[len_index(seg.len)];
    for _ in 0..seg.window {
        let seq = tx.sent;
        tx.sent += 1;
        stamp(buf, tx.seed, tx.me, seq);
        let msg = {
            let _g = span(&st.tracer, Name::MsgNew, seq);
            if st.requeue {
                let prio = Priority::Int(tx.prios[seq as usize % PRIO_TABLE]);
                Message::with_priority(handler, &prio, buf)
            } else {
                Message::new(handler, buf)
            }
        };
        let _g = span(&st.tracer, Name::Send, seq);
        pe.sync_send_and_free(tx.peer, msg);
    }
    {
        let _g = span(&st.tracer, Name::Sched, tx.sent - 1);
        if st.requeue && seg.window == 1 {
            // `core_1pe`: deliver the message to its first handler, then
            // run the ready-entry that handler left on the Csd queue.
            csd_scheduler(pe, 2);
        } else {
            let target = tx.sent as u64;
            schedule_until(pe, || st.consumed.get() >= target);
        }
    }
    if let Some(t) = &st.tracer {
        t.end_round();
    }
}

/// One batch: `seg.rounds` rounds with a calibration slice every
/// `seg.rounds / SLICES_PER_BATCH` of them.
fn batch(pe: &Pe, st: &State, h: &Handlers, tx: &mut Sender, seg: &Segment, t: &mut BatchTime) {
    let every = (seg.rounds / SLICES_PER_BATCH).max(1);
    let t0 = Instant::now();
    for r in 0..seg.rounds {
        if r % every == 0 {
            t.calibrate(1);
        }
        round(pe, st, h, tx, seg);
    }
    t.ops_ns = t0.elapsed().as_nanos() as u64 - t.calib_wall_ns;
}

/// Point receiver state at `seg` on every PE, between barriers so no
/// message of the previous segment is still in flight.
fn enter_segment(pe: &Pe, st: &Arc<State>, seg: &Segment) {
    pe.barrier();
    st.cur_len.store(len_index(seg.len), Ordering::Relaxed);
    if seg.threaded && st.consumers.get().is_none() {
        let c = create_consumers(pe, st, 2 * seg.window as usize);
        assert!(st.consumers.set(c).is_ok(), "consumers created twice");
    }
    pe.barrier();
}

/// The PE entry of the three message workloads.
pub fn entry(pe: &Pe, args: &ChildArgs) {
    let boot_ns = unix_ns().saturating_sub(args.t0_ns);
    let me = pe.my_pe();
    let n = pe.num_pes();
    let peer = (me + 1) % n;
    let segs = segments(args.workload, args.machine);
    let pe_threads = if args.workload.multi_process() { 1 } else { n };
    let mut report = Report::new(me, pe_threads);
    report.put("boot_ms", boot_ns as f64 / 1e6);

    // Inputs, all drawn from the seed: payload bodies, priorities.
    let requeue = args.workload == Workload::Core1Pe;
    let mut rng = SplitMix(mix(args.seed ^ 0xC0DE));
    let prios: Vec<i32> = (0..PRIO_TABLE)
        .map(|_| (rng.next_u64() % 2001) as i32 - 1000)
        .collect();
    let tracer = args.trace.then(|| {
        Arc::new(Tracer::new(
            SPAN_CAPACITY,
            segs[0].sample_every,
            unix_ns().saturating_sub(args.t0_ns),
        ))
    });
    let st = Arc::new(State {
        requeue,
        validator: Validator::new(args.seed, n),
        consumed: Tally::default(),
        handler_runs: Tally::default(),
        cur_len: AtomicUsize::new(0),
        full: AtomicBool::new(false),
        expect: [
            template(args.seed, peer, SMALL),
            template(args.seed, peer, LARGE),
        ],
        tracer,
        consumers: OnceLock::new(),
    });
    let mut tx = Sender {
        seed: args.seed,
        me,
        peer,
        sent: 0,
        prios,
        scratch: [
            template(args.seed, me, SMALL),
            template(args.seed, me, LARGE),
        ],
    };
    // The thread runtime registers a handler: same position everywhere.
    CthRuntime::get(pe);
    let h = register(pe, &st);
    report.put("barrier_us", barrier_us(pe));

    // Fixed-count warm-up of every segment: part of set-up, so work a
    // later change moves out of the timed region shows in `setup_s`.
    let mut warmup = Warmup::default();
    for seg in &segs {
        enter_segment(pe, &st, seg);
        untimed_batches(seg.warmup, &mut warmup, ALU_SHARE, |t| {
            batch(pe, &st, &h, &mut tx, seg, t)
        });
    }
    pe.barrier();
    report.put_setup(args.t0_ns, &warmup);

    assert!(args.seconds.len() <= segs.len(), "more times than segments");
    // A traced run keeps each segment in one piece: its span buffer is
    // drained per segment.
    let stretches = if args.trace { 1 } else { STRETCHES };
    let mut handler_runs = vec![0u64; segs.len()];
    let samples = in_turns(&args.seconds, stretches, |i, seconds| {
        let seg = &segs[i];
        enter_segment(pe, &st, seg);
        if let Some(t) = &st.tracer {
            // Drop what warm-up recorded; sample at this segment's rate.
            t.take();
            t.set_every(seg.sample_every);
        }
        let runs0 = st.handler_runs.get();
        let pe_ops = (seg.window * seg.rounds) as f64;
        let samples = timed_batches(pe, seconds, pe_ops, ALU_SHARE, |t| {
            batch(pe, &st, &h, &mut tx, seg, t)
        });
        handler_runs[i] += st.handler_runs.get() - runs0;
        if let Some(t) = &st.tracer {
            report.put_spans(seg.name, &t.take());
        }
        samples
    });
    for ((seg, samples), runs) in segs.iter().zip(&samples).zip(handler_runs) {
        if !samples.per_op_ns.is_empty() {
            report.put_samples(seg.name, samples);
            report.put(&format!("{}.handler_runs", seg.name), runs as f64);
        }
    }
    // The fixed work behind `peak_rss_mb`: the process's resident set at
    // exit depends on how many batches ran, so it is read from children
    // that run a fixed number of them instead of timing any.
    for seg in &segs {
        enter_segment(pe, &st, seg);
        untimed_batches(
            args.soak * seg.warmup,
            &mut Warmup::default(),
            ALU_SHARE,
            |t| batch(pe, &st, &h, &mut tx, seg, t),
        );
    }
    // Untimed final round per segment with every payload byte
    // compared — what the O(1) timed check leaves out.
    st.full.store(true, Ordering::Relaxed);
    for seg in &segs {
        enter_segment(pe, &st, seg);
        round(pe, &st, &h, &mut tx, seg);
    }
    pe.barrier();

    // Close the books: the peer ran the same program, so it sent exactly
    // as many messages as this PE did.
    let mut sent = vec![0u32; n];
    sent[peer] = tx.sent;
    st.validator.finish(&sent);
    report.finish(
        pe,
        st.validator.ok.get(),
        st.validator.failed.get(),
        args.trace,
    );
}
