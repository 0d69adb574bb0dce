//! The paper's Figures 4–8 on the two wires this runtime has between
//! processes: the hub socket and the shared-memory rings.
//!
//! §5 of the paper plots one-way message time against message size and
//! makes two claims. C1: Converse adds a small, constant cost over a
//! machine's native layer. C2: scheduling is paid only by the code that
//! uses it. Each wire here is timed in three series, as in Fig. 6, all
//! between two OS processes:
//!
//! * **raw**: frames (`socket`) or ring records (`shmring`) straight
//!   through `converse-wire`, between two children this test starts by
//!   re-executing its own binary. On the socket the children say HELLO
//!   and then exchange DATA frames through a real `WireHub`: the same
//!   star and hub hop Converse uses. On the rings they adopt a region
//!   the test creates and use `ShmPlane::push` / `poll_loop`.
//! * **Converse**: a 2-PE `run_with` on the wire, whose PE 1 handler
//!   echoes the message.
//! * **Converse with scheduling**: in the same run, the echo goes
//!   through PE 1's Csd queue (FIFO) and a second handler.
//!
//! A series' value is half a ping-pong: the median round trip, halved.
//! Both sides make the same copies, since each sends the block it last
//! received and neither builds a fresh message per trip. The sizes take
//! turns in blocks of [`BLOCK`] trips, and within a block the plain and
//! the scheduled Converse trips alternate, so the rows of one process
//! pair are timed under the same conditions.
//!
//! The test makes [`ROUNDS`] rounds. Each round times raw and Converse
//! on each wire, and the order of the two alternates from round to
//! round. It prints every row's median and IQR over the rounds, and
//! `c1_delta_ns` (Converse − raw) and `c2_sched_share`
//! ((sched − plain) / sched) per wire and size. The verdicts are a pure
//! function of that table ([`verdicts`]): a claim's margin is taken in
//! each round, and a margin whose median lies within its IQR reads
//! "unresolved" and is not asserted. Timing verdicts need an optimized
//! build, and the Converse socket runs re-execute this test by its
//! thread's name, so they need libtest's threaded harness:
//!
//! ```sh
//! cargo test --release --test paper_figures -- --nocapture
//! ```

use converse::machine::{in_socket_worker, Transport};
use converse::prelude::*;
use converse_msg::{read_frame, write_frame, FrameHeader, MsgBlock};
use converse_wire::{kind, HubFailure, PushOutcome, ShmPlane, ShmRegion, WireHub, RING_BYTES};
use std::cell::Cell;
use std::io::Write;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Payload bytes of each row, 16 B to 64 KiB.
const SIZES: [usize; 5] = [16, 1024, 4096, 16384, 65536];

/// Rounds per wire; each claim's margin is taken once per round.
const ROUNDS: usize = 15;

/// Turns per process pair; each turn times [`BLOCK`] trips of every row.
const PASSES: usize = 40;

/// Round trips a row takes in a row before the next row's turn.
const BLOCK: usize = 10;

/// C2's factor: the relative overhead with scheduling at the largest
/// size may be at most this multiple of its value at the smallest.
const C2_FACTOR: f64 = 1.10;

/// The `seq` of the frame or record that ends a raw child's echo loop.
const STOP: u64 = u64::MAX;

/// Marks a raw child: `socket <rank> <hub address>` or
/// `shmring <rank> <memfd>`.
const RAW_ROLE: &str = "PAPER_FIGURES_RAW";

/// (wire, claim, what was measured): pairs measured false, with the
/// numbers. The test asserts that each still does not read true, so a
/// fix has to take its pair off this list.
const KNOWN_FALSE: &[(&str, Claim, &str)] = &[];

#[derive(Clone, Copy)]
enum Wire {
    Socket,
    ShmRing,
}

impl Wire {
    fn name(self) -> &'static str {
        match self {
            Wire::Socket => "socket",
            Wire::ShmRing => "shmring",
        }
    }

    fn transport(self) -> Transport {
        match self {
            Wire::Socket => Transport::Socket,
            Wire::ShmRing => Transport::ShmRing,
        }
    }
}

/// What the figures must show. Each is a comparison within one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Claim {
    /// C1: Converse does not beat the native layer.
    A,
    /// C2: the scheduled series costs more than the plain one.
    B,
    /// C2: the relative overhead with scheduling over raw at the
    /// largest size is at most [`C2_FACTOR`] times that at the smallest.
    C,
    /// The Converse series is monotone in size.
    D,
}

const CLAIMS: [Claim; 4] = [Claim::A, Claim::B, Claim::C, Claim::D];

impl Claim {
    fn name(self) -> &'static str {
        match self {
            Claim::A => "(a) Converse does not beat raw",
            Claim::B => "(b) scheduling is not free",
            Claim::C => "(c) relative overhead with scheduling does not grow with size",
            Claim::D => "(d) the Converse series is monotone in size",
        }
    }
}

/// One wire's table: for each of [`SIZES`], each series' one-way ns
/// per round.
#[derive(Debug)]
struct WireRows {
    wire: &'static str,
    raw: Vec<Vec<f64>>,
    plain: Vec<Vec<f64>>,
    sched: Vec<Vec<f64>>,
}

impl WireRows {
    fn new(wire: &'static str) -> WireRows {
        let empty = vec![Vec::new(); SIZES.len()];
        WireRows {
            wire,
            raw: empty.clone(),
            plain: empty.clone(),
            sched: empty,
        }
    }

    fn rounds(&self) -> usize {
        self.raw[0].len()
    }

    /// `f(round)` for every round.
    fn per_round(&self, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..self.rounds()).map(f).collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reading {
    True,
    False,
    Unresolved,
}

/// A claim's margin at one point, over the rounds: positive where the
/// claim holds.
#[derive(Debug)]
struct Margin {
    at: String,
    median: f64,
    iqr: f64,
}

impl Margin {
    fn new(at: String, per_round: Vec<f64>) -> Margin {
        let (median, iqr) = median_iqr(&per_round);
        Margin { at, median, iqr }
    }

    /// True or false when the median margin lies outside its spread.
    fn reading(&self) -> Reading {
        if self.median > self.iqr {
            Reading::True
        } else if self.median < -self.iqr {
            Reading::False
        } else {
            Reading::Unresolved
        }
    }
}

#[derive(Debug)]
struct Verdict {
    wire: &'static str,
    claim: Claim,
    margins: Vec<Margin>,
}

impl Verdict {
    /// False if any margin reads false; else true if any reads true.
    fn reading(&self) -> Reading {
        let readings = || self.margins.iter().map(Margin::reading);
        if readings().any(|r| r == Reading::False) {
            Reading::False
        } else if readings().any(|r| r == Reading::True) {
            Reading::True
        } else {
            Reading::Unresolved
        }
    }
}

/// Each claim's margins on each wire, from the table alone.
fn verdicts(table: &[WireRows]) -> Vec<Verdict> {
    let n = SIZES.len();
    let bytes = |i: usize| format!("{} B", SIZES[i]);
    let mut out = Vec::new();
    for w in table {
        for claim in CLAIMS {
            let margins = match claim {
                Claim::A => (0..n)
                    .map(|i| Margin::new(bytes(i), w.per_round(|r| w.plain[i][r] - w.raw[i][r])))
                    .collect(),
                Claim::B => (0..n)
                    .map(|i| Margin::new(bytes(i), w.per_round(|r| w.sched[i][r] - w.plain[i][r])))
                    .collect(),
                Claim::C => {
                    let rel = |i: usize, r: usize| (w.sched[i][r] - w.raw[i][r]) / w.raw[i][r];
                    let at = format!("{} → {}", bytes(0), bytes(n - 1));
                    let m = w.per_round(|r| C2_FACTOR * rel(0, r) - rel(n - 1, r));
                    vec![Margin::new(at, m)]
                }
                Claim::D => (1..n)
                    .map(|i| {
                        let at = format!("{} → {}", SIZES[i - 1], bytes(i));
                        Margin::new(at, w.per_round(|r| w.plain[i][r] - w.plain[i - 1][r]))
                    })
                    .collect(),
            };
            out.push(Verdict {
                wire: w.wire,
                claim,
                margins,
            });
        }
    }
    out
}

/// What the verdicts break: a claim read false on a wire that
/// `known_false` does not list, a listed pair that reads true, or a
/// claim that reads true on no wire.
fn check(verdicts: &[Verdict], known_false: &[(&str, Claim, &str)]) -> Vec<String> {
    let mut bad = Vec::new();
    for v in verdicts {
        let listed = known_false
            .iter()
            .any(|&(wire, claim, _)| wire == v.wire && claim == v.claim);
        match (v.reading(), listed) {
            (Reading::False, false) => {
                bad.push(format!("{}: {} reads false", v.wire, v.claim.name()))
            }
            (Reading::True, true) => bad.push(format!(
                "{}: {} is in KNOWN_FALSE but reads true; take it off the list",
                v.wire,
                v.claim.name()
            )),
            _ => {}
        }
    }
    for claim in CLAIMS {
        let on_some_wire = verdicts
            .iter()
            .any(|v| v.claim == claim && v.reading() == Reading::True);
        if !on_some_wire {
            bad.push(format!("{} reads true on no wire", claim.name()));
        }
    }
    bad
}

/// The value at quantile `q` of `v`, interpolated linearly.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (i, f) = (x.floor() as usize, x.fract());
    match s.get(i + 1) {
        Some(next) => s[i] + f * (next - s[i]),
        None => s[i],
    }
}

fn median_iqr(v: &[f64]) -> (f64, f64) {
    (quantile(v, 0.5), quantile(v, 0.75) - quantile(v, 0.25))
}

fn print_table(table: &[WireRows]) {
    println!(
        "\none-way ns over {} rounds: median [IQR]",
        table[0].rounds()
    );
    println!(
        "{:<8} {:>6} {:>20} {:>20} {:>20}",
        "wire", "bytes", "raw", "Converse", "+ scheduling"
    );
    let cell = |v: &[f64]| {
        let (m, iqr) = median_iqr(v);
        format!("{m:.0} [{iqr:.0}]")
    };
    for w in table {
        for (i, size) in SIZES.iter().enumerate() {
            println!(
                "{:<8} {:>6} {:>20} {:>20} {:>20}",
                w.wire,
                size,
                cell(&w.raw[i]),
                cell(&w.plain[i]),
                cell(&w.sched[i])
            );
        }
    }
    println!(
        "\n{:<8} {:>6} {:>22} {:>22} {:>22}",
        "wire", "bytes", "c1_delta_ns", "c2_sched_share", "raw ns/KiB from prev"
    );
    for w in table {
        for (i, size) in SIZES.iter().enumerate() {
            let delta = median_iqr(&w.per_round(|r| w.plain[i][r] - w.raw[i][r]));
            let share =
                median_iqr(&w.per_round(|r| (w.sched[i][r] - w.plain[i][r]) / w.sched[i][r]));
            let step = match i {
                0 => "-".to_string(),
                _ => {
                    let kib = (size - SIZES[i - 1]) as f64 / 1024.0;
                    let per = w.per_round(|r| (w.raw[i][r] - w.raw[i - 1][r]) / kib);
                    format!("{:.1}", quantile(&per, 0.5))
                }
            };
            println!(
                "{:<8} {:>6} {:>22} {:>22} {:>22}",
                w.wire,
                size,
                format!("{:.0} [{:.0}]", delta.0, delta.1),
                format!("{:.3} [{:.3}]", share.0, share.1),
                step
            );
        }
    }
}

fn print_verdicts(verdicts: &[Verdict]) {
    println!();
    for v in verdicts {
        let reading = |r: Reading| match r {
            Reading::True => "true",
            Reading::False => "FALSE",
            Reading::Unresolved => "unresolved",
        };
        println!("{:<8} {}: {}", v.wire, v.claim.name(), reading(v.reading()));
        for m in &v.margins {
            println!(
                "{:>10} {:<18} margin {:>10.3} [IQR {:.3}]: {}",
                "",
                m.at,
                m.median,
                m.iqr,
                reading(m.reading())
            );
        }
    }
}

// ---- measuring --------------------------------------------------------

/// Time `series` rows per size, `trip(size, series)` making one round
/// trip. The sizes take turns in blocks of [`BLOCK`] trips per series;
/// within a block the series alternate trip by trip, after one untimed
/// trip of each. Returns row `size * series + s`'s one-way ns.
fn time_rows(series: usize, mut trip: impl FnMut(usize, usize)) -> Vec<f64> {
    let mut trips = vec![Vec::with_capacity(PASSES * BLOCK); SIZES.len() * series];
    for _ in 0..PASSES {
        for size in 0..SIZES.len() {
            (0..series).for_each(|s| trip(size, s));
            for _ in 0..BLOCK {
                for s in 0..series {
                    let t0 = Instant::now();
                    trip(size, s);
                    trips[size * series + s].push(t0.elapsed().as_nanos() as f64);
                }
            }
        }
    }
    trips.iter().map(|t| quantile(t, 0.5) / 2.0).collect()
}

/// One payload block per size, as a raw rank 0 first sends them.
fn blocks() -> Vec<Option<MsgBlock>> {
    SIZES
        .iter()
        .map(|&n| Some(MsgBlock::copy_from(&vec![7u8; n])))
        .collect()
}

/// A raw child: exchange frames on the socket at `at`, rank 1 echoing
/// what rank 0 times. Returns rank 0's rows (none for rank 1).
fn raw_socket(rank: u32, at: &str) -> Vec<f64> {
    let mut s = TcpStream::connect(at).expect("connect to the hub");
    s.set_nodelay(true).expect("TCP_NODELAY");
    write_frame(&mut s, FrameHeader::new(kind::HELLO, rank, 0, 0), b"").expect("HELLO");
    let go = read_frame(&mut s).expect("read GO");
    assert_eq!(go.map(|(h, _)| h.kind), Some(kind::GO));
    if rank == 1 {
        // Until the stop frame, or the hub's ABORT once rank 0 is gone.
        while let Ok(Some((h, b))) = read_frame(&mut s) {
            if h.kind != kind::DATA || h.seq == STOP {
                break;
            }
            let back = FrameHeader::new(kind::DATA, 1, 0, h.seq);
            write_frame(&mut s, back, b.as_slice()).expect("echo");
        }
        return Vec::new();
    }
    let mut blocks = blocks();
    let rows = time_rows(1, |row, _| {
        let b = blocks[row].take().expect("the last trip put it back");
        let h = FrameHeader::new(kind::DATA, 0, 1, row as u64);
        write_frame(&mut s, h, b.as_slice()).expect("send");
        let (_, back) = read_frame(&mut s).expect("read").expect("an echo");
        blocks[row] = Some(back);
    });
    let stop = FrameHeader::new(kind::DATA, 0, 1, STOP);
    write_frame(&mut s, stop, b"").expect("stop");
    rows
}

/// A raw child: exchange records on the rings of the inherited region
/// `fd`, rank 1 echoing what rank 0 times.
fn raw_shmring(rank: usize, fd: i32) -> Vec<f64> {
    let region = ShmRegion::adopt(fd, 2).expect("adopt the ring region");
    // The native layer at its fastest: poll, never park. How a PE
    // waits is part of what Converse adds.
    let plane = ShmPlane::new(Arc::new(region), rank, u32::MAX);
    let never = AtomicBool::new(false);
    let push = |seq: u64, payload: &[u8]| {
        let h = FrameHeader::new(kind::DATA, rank as u32, 1 - rank as u32, seq);
        let sent = plane.push(1 - rank, h, payload, true, &never);
        assert_eq!(sent, PushOutcome::Sent);
    };
    if rank == 1 {
        let stop = AtomicBool::new(false);
        plane.poll_loop(&stop, |h, b| match h.seq {
            STOP => stop.store(true, Ordering::Release),
            seq => push(seq, b.as_slice()),
        });
        return Vec::new();
    }
    let mut blocks = blocks();
    let rows = time_rows(1, |row, _| {
        let b = blocks[row].take().expect("the last trip put it back");
        push(row as u64, b.as_slice());
        let back = AtomicBool::new(false);
        plane.poll_loop(&back, |_, b| {
            blocks[row] = Some(b);
            back.store(true, Ordering::Release);
        });
    });
    push(STOP, b"");
    rows
}

/// Run as the raw child `role` names, print rank 0's rows, and exit.
fn raw_child(role: &str) -> ! {
    let parts: Vec<&str> = role.split(' ').collect();
    let rank: u32 = parts[1].parse().expect("a rank");
    let rows = match parts[0] {
        "socket" => raw_socket(rank, parts[2]),
        _ => raw_shmring(rank as usize, parts[2].parse().expect("a descriptor")),
    };
    for (row, ns) in rows.iter().enumerate() {
        println!("row {row} {ns}");
    }
    std::io::stdout().flush().expect("flush rows");
    std::process::exit(0)
}

/// The rows a raw rank 0 or a Converse PE 0 printed, in row order.
fn parse_rows<'a>(lines: impl Iterator<Item = &'a str>, rows: usize) -> Vec<f64> {
    let mut out = vec![f64::NAN; rows];
    for line in lines {
        if let Some(rest) = line.strip_prefix("row ") {
            let (row, ns) = rest.split_once(' ').expect("row <i> <ns>");
            out[row.parse::<usize>().expect("a row")] = ns.parse().expect("ns");
        }
    }
    assert!(out.iter().all(|v| v.is_finite()), "missing rows: {out:?}");
    out
}

/// Start both raw children of `wire`, the argument after the rank
/// being `at`.
fn spawn_raw(wire: Wire, at: &str) -> Vec<Child> {
    let test = std::thread::current()
        .name()
        .expect("a test thread carries the test's name")
        .to_string();
    let exe = std::env::current_exe().expect("this test's binary");
    (0..2)
        .map(|rank| {
            Command::new(&exe)
                .args([test.as_str(), "--exact", "--nocapture"])
                .env(RAW_ROLE, format!("{} {rank} {at}", wire.name()))
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a raw child")
        })
        .collect()
}

/// Wait for both raw children; returns rank 0's rows.
fn raw_rows(kids: Vec<Child>) -> Vec<f64> {
    let outs: Vec<_> = kids
        .into_iter()
        .map(|k| k.wait_with_output().expect("wait for a raw child"))
        .collect();
    for out in &outs {
        assert!(out.status.success(), "a raw child failed: {}", out.status);
    }
    let stdout = String::from_utf8_lossy(&outs[0].stdout);
    parse_rows(stdout.lines(), SIZES.len())
}

/// One raw process pair on `wire`: each size's one-way ns.
fn raw_round(wire: Wire) -> Vec<f64> {
    match wire {
        Wire::Socket => {
            let hub = WireHub::bind(2).expect("bind a hub");
            let mut kids = spawn_raw(wire, hub.addr());
            let died = |kids: &mut Vec<Child>| {
                let exited = kids.iter_mut().find_map(|k| k.try_wait().ok().flatten());
                exited.map(|st| (None, format!("a raw child exited early: {st}")))
            };
            // The children speak only the data plane (HELLO, GO, DATA):
            // the hub reads the first one to finish as a crash.
            let end = hub.run(|| died(&mut kids));
            assert!(
                matches!(end, Err(HubFailure::Crashed { .. })),
                "raw socket run ended {end:?}"
            );
            raw_rows(kids)
        }
        Wire::ShmRing => {
            let region = ShmRegion::create(2, RING_BYTES).expect("create a ring region");
            let fd = region.fd().expect("the creator holds the descriptor");
            // The descriptor is inherited across exec, as a worker's is.
            let rows = raw_rows(spawn_raw(wire, &fd.to_string()));
            drop(region);
            rows
        }
    }
}

thread_local! {
    /// The message PE 0's last echo brought back.
    static RETURNED: Cell<Option<Message>> = const { Cell::new(None) };
}

/// One Converse run on `wire`: per size, the plain and the scheduled
/// series' one-way ns. `None` in a socket worker, which replays this
/// test's earlier runs in-process and times nothing in them.
fn converse_round(wire: Wire) -> Option<Vec<(f64, f64)>> {
    let cfg = MachineConfig::new(2)
        .transport(wire.transport())
        .capture_output();
    let report = run_with(cfg, move |pe| {
        let pong = pe.register_handler(|_, msg| RETURNED.set(Some(msg)));
        let echo = pe.register_handler(move |pe, mut msg| {
            msg.set_handler(pong);
            pe.sync_send_and_free(0, msg);
        });
        let queued = pe.register_handler(move |pe, mut msg| {
            msg.set_handler(echo);
            pe.queue_enqueue(msg, QueueingMode::Fifo);
        });
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        if pe.transport_name() != wire.name() {
            return;
        }
        if pe.my_pe() == 1 {
            csd_scheduler(pe, -1);
            return;
        }
        // Row 2i is size i plain, row 2i + 1 size i with scheduling.
        let first = [echo, queued];
        let mut msgs: Vec<Option<Message>> = SIZES
            .iter()
            .flat_map(|&n| first.map(|h| Some(Message::new(h, &vec![7u8; n]))))
            .collect();
        let rows = time_rows(2, |size, series| {
            let row = 2 * size + series;
            let mut msg = msgs[row].take().expect("the last trip put it back");
            msg.set_handler(first[series]);
            pe.sync_send_and_free(1, msg);
            csd_scheduler(pe, 1);
            msgs[row] = RETURNED.take();
        });
        pe.sync_send_and_free(1, Message::new(stop, b""));
        for (row, ns) in rows.iter().enumerate() {
            pe.cmi_printf(format!("row {row} {ns}"));
        }
    });
    if in_socket_worker() {
        return None;
    }
    let rows = parse_rows(report.output.iter().map(String::as_str), 2 * SIZES.len());
    Some(rows.chunks(2).map(|p| (p[0], p[1])).collect())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing verdicts need an optimized build")]
fn c1_and_c2_hold_on_the_socket_and_the_shm_rings() {
    if let Ok(role) = std::env::var(RAW_ROLE) {
        raw_child(&role);
    }
    let mut wires = vec![Wire::Socket];
    if converse_wire::SHM_SUPPORTED {
        wires.push(Wire::ShmRing);
    }
    let mut table: Vec<WireRows> = wires.iter().map(|w| WireRows::new(w.name())).collect();
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        for (&wire, rows) in wires.iter().zip(&mut table) {
            let raw_first = round % 2 == 0;
            let raw = |rows: &mut WireRows| {
                if !in_socket_worker() {
                    let raw = raw_round(wire);
                    rows.raw.iter_mut().zip(raw).for_each(|(r, v)| r.push(v));
                }
            };
            if raw_first {
                raw(rows);
            }
            if let Some(conv) = converse_round(wire) {
                for (i, (plain, sched)) in conv.into_iter().enumerate() {
                    rows.plain[i].push(plain);
                    rows.sched[i].push(sched);
                }
            }
            if !raw_first {
                raw(rows);
            }
        }
    }
    print_table(&table);
    let verdicts = verdicts(&table);
    print_verdicts(&verdicts);
    println!("\n{ROUNDS} rounds in {:.1} s", t0.elapsed().as_secs_f64());
    let bad = check(&verdicts, KNOWN_FALSE);
    assert!(bad.is_empty(), "{bad:#?}");
}

// ---- the verdicts on synthetic tables ---------------------------------

/// A table on `wires` whose raw series is 1 µs plus 10 ns per KiB,
/// Converse 500 ns more and scheduling 100 ns more, with a few ns of
/// jitter per round. `edit(wire, rows)` bends it.
fn synthetic(wires: &[&'static str], edit: impl Fn(&str, &mut WireRows)) -> Vec<WireRows> {
    const JITTER: [f64; 5] = [0.0, 3.0, -2.0, 5.0, -4.0];
    wires
        .iter()
        .map(|&wire| {
            let mut w = WireRows::new(wire);
            for (i, &size) in SIZES.iter().enumerate() {
                for j in JITTER {
                    let raw = 1000.0 + size as f64 / 100.0 + j;
                    w.raw[i].push(raw);
                    w.plain[i].push(raw + 500.0 - j);
                    w.sched[i].push(raw + 600.0 + j);
                }
            }
            edit(wire, &mut w);
            w
        })
        .collect()
}

/// Add `by(size index, round)` to every value of `series`.
fn shift(series: &mut [Vec<f64>], by: impl Fn(usize, usize) -> f64) {
    for (i, row) in series.iter_mut().enumerate() {
        for (r, v) in row.iter_mut().enumerate() {
            *v += by(i, r);
        }
    }
}

fn reading_of(v: &[Verdict], wire: &str, claim: Claim) -> Reading {
    let v = v.iter().find(|v| v.wire == wire && v.claim == claim);
    v.expect("a verdict per wire and claim").reading()
}

#[test]
fn a_table_that_keeps_every_claim_passes() {
    let table = synthetic(&["socket", "shmring"], |_, _| {});
    let v = verdicts(&table);
    for wire in ["socket", "shmring"] {
        for claim in CLAIMS {
            assert_eq!(
                reading_of(&v, wire, claim),
                Reading::True,
                "{wire} {claim:?}"
            );
        }
    }
    assert_eq!(check(&v, &[]), Vec::<String>::new());
}

/// Bend a synthetic wire so that `claim`, and only it, reads false.
fn break_claim(claim: Claim, w: &mut WireRows) {
    match claim {
        // Converse 50 ns faster than raw, scheduling 650 ns on top.
        Claim::A => {
            shift(&mut w.plain, |_, _| -550.0);
            shift(&mut w.sched, |_, _| 50.0);
        }
        // The scheduled echo 100 ns cheaper than the plain one.
        Claim::B => shift(&mut w.sched, |_, _| -200.0),
        // Scheduling costs about 200 ns per KiB more.
        Claim::C => shift(&mut w.sched, |i, _| SIZES[i] as f64 / 5.0),
        // Converse at 4 KiB 100 ns below Converse at 1 KiB.
        Claim::D => shift(&mut w.plain, |i, _| if i == 2 { -130.72 } else { 0.0 }),
    }
}

#[test]
fn each_broken_claim_is_flagged_by_name() {
    for claim in CLAIMS {
        let table = synthetic(&["socket", "shmring"], |wire, w| {
            if wire == "shmring" {
                break_claim(claim, w)
            }
        });
        let v = verdicts(&table);
        for other in CLAIMS {
            let want = if other == claim {
                Reading::False
            } else {
                Reading::True
            };
            assert_eq!(
                reading_of(&v, "shmring", other),
                want,
                "{claim:?} broken: {other:?}"
            );
        }
        let bad = check(&v, &[]);
        assert_eq!(bad, [format!("shmring: {} reads false", claim.name())]);
        // Listed as known, the pair passes.
        assert_eq!(
            check(&v, &[("shmring", claim, "measured")]),
            Vec::<String>::new()
        );
    }
}

#[test]
fn a_margin_inside_its_spread_is_unresolved() {
    // Scheduling ±40 ns around plain, a different way each round.
    const NOISE: [f64; 5] = [40.0, -40.0, 30.0, -30.0, 0.0];
    let table = synthetic(&["socket", "shmring"], |wire, w| {
        if wire == "socket" {
            shift(&mut w.sched, |_, r| NOISE[r] - 100.0);
        }
    });
    let v = verdicts(&table);
    let b = v
        .iter()
        .find(|v| v.wire == "socket" && v.claim == Claim::B)
        .unwrap();
    assert!(
        b.margins.iter().all(|m| m.reading() == Reading::Unresolved),
        "{b:?}"
    );
    assert_eq!(b.reading(), Reading::Unresolved);
    // Resolved true on the other wire, so nothing is asserted false.
    assert_eq!(check(&v, &[]), Vec::<String>::new());
    // Unresolved on every wire, the claim is not shown anywhere.
    let both = synthetic(&["socket", "shmring"], |_, w| {
        shift(&mut w.sched, |_, r| NOISE[r] - 100.0)
    });
    assert_eq!(
        check(&verdicts(&both), &[]),
        [format!("{} reads true on no wire", Claim::B.name())]
    );
}

#[test]
fn a_known_false_pair_that_reads_true_fails() {
    let v = verdicts(&synthetic(&["socket", "shmring"], |_, _| {}));
    let bad = check(&v, &[("socket", Claim::C, "measured false before")]);
    assert_eq!(
        bad,
        [format!(
            "socket: {} is in KNOWN_FALSE but reads true; take it off the list",
            Claim::C.name()
        )]
    );
}
