//! Per-message software-overhead scorecard (paper §5's overhead tables).
//!
//! The paper's central performance claim is that the generalized-message
//! core adds only a small **constant** per-message overhead on the native
//! layer — the FM port's "25 µs for messages up to 128 bytes" figure.
//! This bench measures our two-list-mailbox delivery spine against a
//! faithful replica of the pre-batching design (one `Mutex<VecDeque>`
//! per mailbox, one lock op per message on both sides, the same stall
//! check and traffic accounting the seed paid) and emits
//! `BENCH_sched.json` with before/after deltas:
//!
//! * `pingpong_loopback` — single-PE send→recv latency per payload size:
//!   the uncontended constant-overhead floor. Acceptance: the batched
//!   mailbox must not regress p50 at any size.
//! * `pingpong_2pe` — cross-thread round-trip latency: legacy mailbox
//!   with park-only idling (before) vs two-list mailbox with the
//!   spin-then-park policy (after). On a single-hardware-thread host the
//!   spin budget resolves to 0 — matching the idle-spin default of
//!   `MachineConfig::new` — because spinning there only steals the echo
//!   thread's timeslice; the rows then compare the two mailboxes under
//!   identical park-only idling.
//! * `fanin` — 1→N small-message delivery throughput: P−1 sender
//!   threads pre-fill PE 0's mailbox concurrently (untimed), then the
//!   timed section moves every message into receiver-local storage —
//!   per-message `try_recv` before vs bounded `drain_into` after. This
//!   isolates the per-message delivery overhead, which is exactly the
//!   cost batching amortizes; timing producers and consumer together on
//!   a one-core host would measure the kernel's timeslicing instead.
//!   Acceptance: ≥ 2× at 4 PEs.
//!
//! The run also regression-gates itself against the checked-in
//! `BENCH_sched.json`: if small-message (≤128 B) loopback p50 exceeds
//! the baseline by >25% the process exits non-zero (CI fails). Set
//! `SCHED_GATE=off` to skip the gate (e.g. when re-baselining on new
//! hardware).
//!
//! ```sh
//! cargo run --release -p converse-bench --bin sched_overhead
//! ```

use converse_msg::MsgBlock;
use converse_net::{Interconnect, Packet};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAYLOADS: [usize; 5] = [16, 128, 1024, 16384, 65536];
const FANIN_PES: [usize; 3] = [2, 4, 8];
const FANIN_PAYLOAD: usize = 16;
/// Messages per sender thread in the fan-in runs.
const FANIN_MSGS: u64 = 60_000;
/// Batch bound for the "after" fan-in drain — mirrors the scheduler's
/// bounded intake rather than an unbounded swallow-everything drain.
const DRAIN_BOUND: usize = 1024;
/// Latency sampling: median over `SAMPLES` means of `BATCH` iterations.
const SAMPLES: usize = 300;
const BATCH: u64 = 64;

/// Spin budget for the "after" idle policy: 0 on a single-hardware-
/// thread host, like `MachineConfig::new`'s idle-spin default (160, or
/// 0 there), since spinning would starve the peer thread of the core it
/// needs to produce the awaited message; generous otherwise.
fn auto_spin() -> u32 {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 20_000,
        _ => 0,
    }
}

// ---------------------------------------------------------------------
// The "before" substrate: a faithful replica of the pre-batching
// mailbox — one mutex-guarded deque per PE, a condvar for blocking
// waits, one lock acquisition per message on the send side AND per
// message on the receive side, plus the stall check and traffic
// accounting the seed's real paths performed. Kept here (not in
// converse-net) so the shipped crate carries no dead legacy path.
// Its `notify_one` per send goes through the same `parking_lot` shim as
// everything else, so it makes no system call while nobody waits: the
// loopback rows compare lock ops per message, not kernel entries.
// ---------------------------------------------------------------------

struct LegacyMailbox {
    q: Mutex<VecDeque<Packet>>,
    cv: Condvar,
}

struct LegacyCounters {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
}

/// Wait-slice the seed used while stall windows were armed.
const LEGACY_STALL_SLICE: Duration = Duration::from_millis(2);

struct LegacyNet {
    boxes: Vec<LegacyMailbox>,
    traffic: Vec<LegacyCounters>,
    /// Always false; probed on every receive so the replica pays the
    /// seed's per-message stall check, like the real interconnect.
    has_stalls: AtomicBool,
    /// Always false; probed where the seed's paths probed it.
    closed: AtomicBool,
}

impl LegacyNet {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(LegacyNet {
            boxes: (0..n)
                .map(|_| LegacyMailbox {
                    q: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            traffic: (0..n)
                .map(|_| LegacyCounters {
                    msgs_sent: AtomicU64::new(0),
                    bytes_sent: AtomicU64::new(0),
                    msgs_recv: AtomicU64::new(0),
                })
                .collect(),
            has_stalls: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        })
    }

    /// The seed's `stalled` fast path: one atomic load when no stall
    /// windows are armed (always the case here).
    fn stalled(&self, _pe: usize) -> bool {
        self.has_stalls.load(Ordering::Acquire) && !self.closed.load(Ordering::Acquire)
    }

    fn send(&self, src: usize, dst: usize, block: MsgBlock) {
        self.traffic[src].msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.traffic[src]
            .bytes_sent
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        let mbox = &self.boxes[dst];
        mbox.q.lock().push_back(Packet {
            src,
            channel: converse_net::Channel::DEFAULT,
            seq: 0,
            block,
        });
        mbox.cv.notify_one();
    }

    fn try_recv(&self, pe: usize) -> Option<Packet> {
        if self.stalled(pe) {
            return None; // never taken; the load replicates the seed's cost
        }
        let p = self.boxes[pe].q.lock().pop_front();
        if p.is_some() {
            self.traffic[pe].msgs_recv.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    /// The seed's `wait_nonempty`, verbatim in shape: per-iteration
    /// clock reads, stall probe, closed probe, and the stall-aware wake
    /// computation — the costs the wake path actually paid.
    fn wait_nonempty(&self, pe: usize, timeout: Duration) {
        let mbox = &self.boxes[pe];
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            if self.stalled(pe) {
                std::thread::sleep(LEGACY_STALL_SLICE.min(deadline.saturating_duration_since(now)));
                continue;
            }
            let mut q = mbox.q.lock();
            if !q.is_empty() || self.closed.load(Ordering::Acquire) {
                return;
            }
            let wake = if self.has_stalls.load(Ordering::Acquire) {
                (now + LEGACY_STALL_SLICE).min(deadline)
            } else {
                deadline
            };
            if mbox.cv.wait_until(&mut q, wake).timed_out() && wake == deadline {
                return;
            }
        }
    }

    fn pending(&self, pe: usize) -> usize {
        self.boxes[pe].q.lock().len()
    }
}

// ---------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Single-PE loopback pingpong, legacy mailbox vs two-list mailbox,
/// returned as `(before_p50, after_p50)`. The two variants are sampled
/// in **alternating** batches so slow machine-state drift (frequency
/// scaling, noisy neighbors) biases both the same way instead of
/// whichever happened to run second.
fn loopback_pair(payload: usize) -> (u64, u64) {
    let legacy = LegacyNet::new(1);
    let net = Interconnect::new(1);
    // One shared payload buffer: per-iteration allocation + memset would
    // dominate (and add allocator noise to) the large-payload rows, on
    // both sides equally, hiding the spine delta under memory traffic.
    let buf = vec![7u8; payload];
    let iter_before = || {
        legacy.send(0, 0, MsgBlock::copy_from(&buf));
        let p = legacy.try_recv(0).expect("loopback packet");
        std::hint::black_box(p.bytes().len());
    };
    let iter_after = || {
        net.send(0, 0, MsgBlock::copy_from(&buf));
        let p = net.try_recv(0).expect("loopback packet");
        std::hint::black_box(p.bytes().len());
    };
    for _ in 0..BATCH * 4 {
        iter_before();
        iter_after();
    }
    let mut before: Vec<u64> = Vec::with_capacity(SAMPLES);
    let mut after: Vec<u64> = Vec::with_capacity(SAMPLES);
    // Alternate which side runs first within the pair so any warm-cache
    // advantage of going second is split evenly between the two.
    for s in 0..SAMPLES {
        let mut time_before = || {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                iter_before();
            }
            before.push(t0.elapsed().as_nanos() as u64 / BATCH);
        };
        let mut time_after = || {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                iter_after();
            }
            after.push(t0.elapsed().as_nanos() as u64 / BATCH);
        };
        if s.is_multiple_of(2) {
            time_before();
            time_after();
        } else {
            time_after();
            time_before();
        }
    }
    (median(before), median(after))
}

/// Cross-thread one-way latency, `(before_p50, after_p50)`: legacy
/// mailbox with park-only idling vs two-list mailbox with the
/// spin-then-park policy (budget from [`auto_spin`]). PE 0 sends, PE 1's
/// thread wakes under the policy under test and echoes, PE 0 waits the
/// same way. Both substrates stay alive for the whole measurement and
/// are sampled in alternating batches (see [`loopback_pair`]).
fn pingpong_2pe_pair(payload: usize) -> (u64, u64) {
    let legacy = LegacyNet::new(2);
    let net = Interconnect::new(2);
    let spin = auto_spin();
    let stop = Arc::new(AtomicBool::new(false));
    let echo_before = {
        let net = legacy.clone();
        let stop = stop.clone();
        std::thread::spawn(move || loop {
            net.wait_nonempty(1, Duration::from_millis(5));
            if stop.load(Ordering::Relaxed) {
                return;
            }
            if let Some(p) = net.try_recv(1) {
                net.send(1, 0, p.block);
            }
        })
    };
    let echo_after = {
        let net = net.clone();
        let stop = stop.clone();
        std::thread::spawn(move || loop {
            net.wait_nonempty(1, Duration::from_millis(5), spin);
            if stop.load(Ordering::Relaxed) {
                return;
            }
            if let Some(p) = net.try_recv(1) {
                net.send(1, 0, p.block);
            }
        })
    };
    let block = MsgBlock::copy_from(&vec![9u8; payload]);
    let iter_before = || {
        legacy.send(0, 1, block.share());
        loop {
            if let Some(p) = legacy.try_recv(0) {
                std::hint::black_box(p.bytes().len());
                break;
            }
            legacy.wait_nonempty(0, Duration::from_millis(5));
        }
    };
    let iter_after = || {
        net.send(0, 1, block.share());
        loop {
            if let Some(p) = net.try_recv(0) {
                std::hint::black_box(p.bytes().len());
                break;
            }
            net.wait_nonempty(0, Duration::from_millis(5), spin);
        }
    };
    for _ in 0..BATCH * 4 {
        iter_before();
        iter_after();
    }
    let mut before: Vec<u64> = Vec::with_capacity(SAMPLES);
    let mut after: Vec<u64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            iter_before();
        }
        before.push(t0.elapsed().as_nanos() as u64 / BATCH);
        let t0 = Instant::now();
        for _ in 0..BATCH {
            iter_after();
        }
        after.push(t0.elapsed().as_nanos() as u64 / BATCH);
    }
    stop.store(true, Ordering::Relaxed);
    legacy.send(0, 1, block.share()); // wake the echo threads so they observe stop
    net.send(0, 1, block);
    echo_before.join().expect("legacy echo thread");
    echo_after.join().expect("echo thread");
    // Round trip → one-way.
    (median(before) / 2, median(after) / 2)
}

/// 1→N fan-in, legacy: `pes - 1` sender threads each push `FANIN_MSGS`
/// small messages at PE 0 (concurrently, untimed — each sends shares of
/// one pre-built block so the allocator stays out of the measurement),
/// then the timed section moves every queued packet into receiver-local
/// storage one `try_recv` — one lock acquisition — at a time. Packet
/// drops and handler dispatch cost the same in both designs and are
/// excluded from both. Returns messages/second of delivery.
fn fanin_before(pes: usize) -> f64 {
    let net = LegacyNet::new(pes);
    let total = FANIN_MSGS * (pes as u64 - 1);
    let senders: Vec<_> = (1..pes)
        .map(|src| {
            let net = net.clone();
            std::thread::spawn(move || {
                let block = MsgBlock::copy_from(&[3u8; FANIN_PAYLOAD]);
                for _ in 0..FANIN_MSGS {
                    net.send(src, 0, block.share());
                }
            })
        })
        .collect();
    for s in senders {
        s.join().expect("sender");
    }
    assert_eq!(net.pending(0) as u64, total);
    let mut sink: Vec<Packet> = Vec::with_capacity(total as usize);
    let t0 = Instant::now();
    while sink.len() < total as usize {
        if let Some(p) = net.try_recv(0) {
            sink.push(p);
        }
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(sink.len());
    total as f64 / elapsed.as_secs_f64()
}

/// 1→N fan-in, batched: same pre-fill, but the timed section delivers
/// through `drain_into_bounded` — the whole inbox is swapped behind one
/// lock and handed out `DRAIN_BOUND` packets at a time, the scheduler's
/// intake shape.
fn fanin_after(pes: usize) -> f64 {
    let net = Interconnect::new(pes);
    let total = FANIN_MSGS * (pes as u64 - 1);
    let senders: Vec<_> = (1..pes)
        .map(|src| {
            let net = net.clone();
            std::thread::spawn(move || {
                let block = MsgBlock::copy_from(&[3u8; FANIN_PAYLOAD]);
                for _ in 0..FANIN_MSGS {
                    net.send(src, 0, block.share());
                }
            })
        })
        .collect();
    for s in senders {
        s.join().expect("sender");
    }
    assert_eq!(net.pending(0) as u64, total);
    let mut sink: Vec<Packet> = Vec::with_capacity(total as usize);
    let t0 = Instant::now();
    while sink.len() < total as usize {
        net.drain_into_bounded(0, &mut sink, DRAIN_BOUND);
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(sink.len());
    total as f64 / elapsed.as_secs_f64()
}

// ---------------------------------------------------------------------
// Reporting + regression gate
// ---------------------------------------------------------------------

struct Row {
    kind: &'static str,
    pes: usize,
    payload: usize,
    unit: &'static str,
    before: f64,
    after: f64,
}

impl Row {
    /// Higher-is-better for throughput, lower-is-better for latency;
    /// either way speedup > 1 means "after" won.
    fn speedup(&self) -> f64 {
        if self.unit == "msgs_per_sec" {
            self.after / self.before
        } else {
            self.before / self.after
        }
    }
}

/// One result object per line so the gate (and CI diffing) can parse
/// the checked-in file with line-based matching, no JSON parser needed.
fn render_json(rows: &[Row]) -> String {
    let mut s = String::from("{\n  \"bench\": \"sched_overhead\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kind\": \"{}\", \"pes\": {}, \"payload_bytes\": {}, \"unit\": \"{}\", \"before\": {:.1}, \"after\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.kind,
            r.pes,
            r.payload,
            r.unit,
            r.before,
            r.after,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pull `"after"` values for small-payload loopback rows out of the
/// checked-in baseline, by line matching.
fn baseline_small_loopback(text: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.contains("\"kind\": \"pingpong_loopback\"") {
            continue;
        }
        let field = |key: &str| -> Option<f64> {
            let pat = format!("\"{key}\": ");
            let at = line.find(&pat)? + pat.len();
            let rest = &line[at..];
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        if let (Some(payload), Some(after)) = (field("payload_bytes"), field("after")) {
            if payload <= 128.0 {
                out.push((payload as usize, after));
            }
        }
    }
    out
}

fn main() {
    let gate_on = std::env::var("SCHED_GATE")
        .map(|v| v != "off")
        .unwrap_or(true);
    let baseline = std::fs::read_to_string("BENCH_sched.json").ok();

    let mut rows: Vec<Row> = Vec::new();

    println!("pingpong loopback (1 PE): legacy mailbox vs two-list mailbox");
    println!(
        "{:>9} {:>12} {:>12} {:>8}",
        "bytes", "before p50", "after p50", "speedup"
    );
    for payload in PAYLOADS {
        let (b, a) = loopback_pair(payload);
        let (before, after) = (b as f64, a as f64);
        let r = Row {
            kind: "pingpong_loopback",
            pes: 1,
            payload,
            unit: "ns_p50",
            before,
            after,
        };
        println!(
            "{:>9} {:>10.0}ns {:>10.0}ns {:>7.2}x",
            payload,
            before,
            after,
            r.speedup()
        );
        rows.push(r);
    }

    println!(
        "\npingpong one-way (2 PEs): legacy park-only vs spin-then-park (spin budget {})",
        auto_spin()
    );
    println!(
        "{:>9} {:>12} {:>12} {:>8}",
        "bytes", "before p50", "after p50", "speedup"
    );
    for payload in [16, 128] {
        let (b, a) = pingpong_2pe_pair(payload);
        let (before, after) = (b as f64, a as f64);
        let r = Row {
            kind: "pingpong_2pe",
            pes: 2,
            payload,
            unit: "ns_p50",
            before,
            after,
        };
        println!(
            "{:>9} {:>10.0}ns {:>10.0}ns {:>7.2}x",
            payload,
            before,
            after,
            r.speedup()
        );
        rows.push(r);
    }

    println!("\n1->N fan-in ({FANIN_PAYLOAD} B): per-message recv vs batched drain");
    println!(
        "{:>9} {:>14} {:>14} {:>8}",
        "pes", "before msg/s", "after msg/s", "speedup"
    );
    for pes in FANIN_PES {
        let before = fanin_before(pes);
        let after = fanin_after(pes);
        let r = Row {
            kind: "fanin",
            pes,
            payload: FANIN_PAYLOAD,
            unit: "msgs_per_sec",
            before,
            after,
        };
        println!(
            "{:>9} {:>14.0} {:>14.0} {:>7.2}x",
            pes,
            before,
            after,
            r.speedup()
        );
        rows.push(r);
    }

    // Acceptance: the contended 4-PE small-message case must be >= 2x.
    let fanin4 = rows
        .iter()
        .find(|r| r.kind == "fanin" && r.pes == 4)
        .expect("4-PE fan-in row");
    assert!(
        fanin4.speedup() >= 2.0,
        "4-PE fan-in speedup {:.2}x below the 2x acceptance floor",
        fanin4.speedup()
    );

    // Regression gate against the checked-in baseline (fresh "after" vs
    // baseline "after" for <=128 B loopback, 25% tolerance).
    let mut gate_failed = false;
    if let Some(text) = &baseline {
        for (payload, base_after) in baseline_small_loopback(text) {
            let fresh = rows
                .iter()
                .find(|r| r.kind == "pingpong_loopback" && r.payload == payload)
                .map(|r| r.after)
                .unwrap_or(f64::INFINITY);
            let limit = base_after * 1.25;
            if fresh > limit {
                eprintln!(
                    "GATE: {payload} B loopback p50 {fresh:.0} ns exceeds baseline {base_after:.0} ns by >25%"
                );
                gate_failed = true;
            } else {
                println!(
                    "gate ok: {payload} B loopback p50 {fresh:.0} ns <= {limit:.0} ns (baseline {base_after:.0} ns + 25%)"
                );
            }
        }
    } else {
        println!("no checked-in BENCH_sched.json baseline; gate skipped (first run)");
    }

    std::fs::write("BENCH_sched.json", render_json(&rows)).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json ({} rows)", rows.len());

    if gate_failed {
        if gate_on {
            eprintln!(
                "small-message latency regression gate FAILED (set SCHED_GATE=off to re-baseline)"
            );
            std::process::exit(1);
        } else {
            println!("gate failures ignored: SCHED_GATE=off");
        }
    }
}
