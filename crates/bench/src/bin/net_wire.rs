//! Wire-transport overhead scorecard: the real wire (socket and
//! shared-memory rings) vs the in-process interconnect, same programs,
//! same machine shapes.
//!
//! Two shapes per transport:
//!
//! * `rtt_p50` / `rtt_p99` — 2-PE 16 B ping-pong round-trip latency.
//!   Measured *inside* the entry function (on the socket transport that
//!   is a real worker process) and reported through captured
//!   `cmi_printf` output, so the measurement path is identical on both
//!   transports.
//! * `fanin` — (P−1)→1 16 B delivery throughput at 2/4/8 PEs: every
//!   other PE streams at PE 0, which times draining the full count.
//!
//! Rows land in `BENCH_wire.json` as before/after pairs. For the
//! `rtt_*`/`fanin` kinds `before` = in-process and `after` = socket, so
//! `speedup` < 1 *is the honest price of crossing a process boundary*
//! (syscalls, frame encode/decode, kernel loopback) rather than a
//! regression. The `shm_*` kinds compare `before` = socket against
//! `after` = shared-memory rings (`Transport::ShmRing`) — there the
//! rings must *win*, and two absolute acceptance gates enforce it:
//! ring RTT p50 at most 1/3 of socket, and 8-PE ring fan-in at least
//! 4x socket.
//!
//! The run also regression-gates fresh numbers against the checked-in
//! `BENCH_wire.json`: RTT p50 more than 25% above baseline, or fan-in
//! throughput more than 25% below, fails the process (CI). Set
//! `WIRE_GATE=off` to skip all gates (re-baselining, noisy hosts).
//!
//! ```sh
//! cargo run --release -p converse-bench --bin net_wire
//! ```

use converse_core::{csd_exit_scheduler, csd_scheduler};
use converse_machine::{run_with, MachineConfig, Message, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PAYLOAD: usize = 16;
const RTT_WARMUP: u64 = 200;
const RTT_SAMPLES: usize = 2_000;
const FANIN_PES: [usize; 3] = [2, 4, 8];
/// Messages per sender in the fan-in runs. Modest on purpose: each
/// socket-transport run re-executes this binary per rank, and each
/// worker replays every *earlier* run in-process to reach its call
/// site, so total work grows with the square of the run count.
const FANIN_MSGS: u64 = 20_000;

struct Row {
    kind: &'static str,
    pes: usize,
    unit: &'static str,
    before: f64,
    after: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.after > 0.0 {
            self.before / self.after
        } else {
            0.0
        }
    }
}

fn pctl(sorted: &[u64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] as f64
}

/// 2-PE ping-pong; PE 0 reports `RTT_NS <p50> <p99>` through the
/// captured console.
fn rtt_entry(pe: &converse_machine::Pe) {
    let pong = pe.register_handler(|_, _| {});
    let ping = pe.register_handler(|_, _| {});
    pe.barrier();
    let payload = [0x5A_u8; PAYLOAD];
    if pe.my_pe() == 0 {
        for _ in 0..RTT_WARMUP {
            pe.sync_send_and_free(1, Message::new(ping, &payload));
            pe.get_specific_msg(pong);
        }
        let mut samples = Vec::with_capacity(RTT_SAMPLES);
        for _ in 0..RTT_SAMPLES {
            let t0 = Instant::now();
            pe.sync_send_and_free(1, Message::new(ping, &payload));
            pe.get_specific_msg(pong);
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        pe.cmi_printf(format!(
            "RTT_NS {} {}",
            pctl(&samples, 0.50),
            pctl(&samples, 0.99)
        ));
    } else {
        for _ in 0..RTT_WARMUP as usize + RTT_SAMPLES {
            pe.get_specific_msg(ping);
            pe.sync_send_and_free(0, Message::new(pong, &payload));
        }
    }
    pe.barrier();
}

/// (P−1)→1 fan-in; PE 0 reports "FANIN <msgs_per_sec>".
fn fanin_entry(pe: &converse_machine::Pe) {
    let n = pe.num_pes();
    let got = Arc::new(AtomicU64::new(0));
    let g2 = got.clone();
    let total = FANIN_MSGS * (n as u64 - 1);
    let sink = pe.register_handler(move |pe, _msg| {
        if g2.fetch_add(1, Ordering::Relaxed) + 1 == total {
            csd_exit_scheduler(pe);
        }
    });
    pe.barrier();
    if pe.my_pe() == 0 {
        let t0 = Instant::now();
        csd_scheduler(pe, -1);
        let dt = t0.elapsed();
        assert_eq!(got.load(Ordering::Relaxed), total);
        pe.cmi_printf(format!(
            "FANIN {:.1}",
            total as f64 / dt.as_secs_f64().max(1e-9)
        ));
    } else {
        let payload = [0x5A_u8; PAYLOAD];
        for _ in 0..FANIN_MSGS {
            pe.sync_send_and_free(0, Message::new(sink, &payload));
        }
    }
    pe.barrier();
}

/// Run `entry` on `pes` PEs over `transport` and return the first
/// captured line starting with `tag`, split into f64 fields.
fn run_and_parse(
    pes: usize,
    transport: Transport,
    tag: &str,
    entry: fn(&converse_machine::Pe),
) -> Vec<f64> {
    let report = run_with(
        MachineConfig::new(pes)
            .transport(transport)
            .capture_output(),
        entry,
    );
    let line = report
        .output
        .iter()
        .find(|l| l.starts_with(tag))
        .unwrap_or_else(|| panic!("no {tag} line in captured output: {:?}", report.output))
        .clone();
    line.split_whitespace()
        .skip(1)
        .map(|f| f.parse().expect("numeric bench field"))
        .collect()
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"net_wire\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"pes\": {}, \"payload_bytes\": {}, \"unit\": \"{}\", \"before\": {:.1}, \"after\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.kind,
            r.pes,
            PAYLOAD,
            r.unit,
            r.before,
            r.after,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull `(kind, pes, after)` triples out of the checked-in baseline —
/// same line-oriented scrape the sched bench uses, no JSON dependency.
fn baseline_rows(text: &str) -> Vec<(String, usize, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let grab = |key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\":"))?;
            let rest = line[at + key.len() + 3..].trim_start();
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim().trim_matches('"').to_string())
        };
        if let (Some(kind), Some(pes), Some(after)) = (grab("kind"), grab("pes"), grab("after")) {
            if let (Ok(pes), Ok(after)) = (pes.parse(), after.parse()) {
                rows.push((kind, pes, after));
            }
        }
    }
    rows
}

macro_rules! say {
    ($quiet:expr, $($arg:tt)*) => {
        if !$quiet {
            println!($($arg)*);
        }
    };
}

fn main() {
    // Socket-transport workers re-execute this whole main() up to the
    // run they were spawned for; their replayed measurements are
    // side-effects, not results, so they stay silent.
    let quiet = converse_machine::in_socket_worker();
    let gate_on = std::env::var("WIRE_GATE")
        .map(|v| v != "off")
        .unwrap_or(true);
    let baseline = std::fs::read_to_string("BENCH_wire.json").ok();

    let mut rows = Vec::new();

    say!(
        quiet,
        "2-PE 16 B round-trip: in-process vs socket vs shmring"
    );
    let inproc = run_and_parse(2, Transport::InProcess, "RTT_NS", rtt_entry);
    let socket = run_and_parse(2, Transport::Socket, "RTT_NS", rtt_entry);
    let shm_rtt = run_and_parse(2, Transport::ShmRing, "RTT_NS", rtt_entry);
    for (i, kind) in ["rtt_p50", "rtt_p99"].into_iter().enumerate() {
        let r = Row {
            kind,
            pes: 2,
            unit: if i == 0 { "ns_p50" } else { "ns_p99" },
            before: inproc[i],
            after: socket[i],
        };
        say!(
            quiet,
            "  {:>8}: {:>10.0}ns inproc {:>10.0}ns socket  ({:.3}x)",
            kind,
            r.before,
            r.after,
            r.speedup()
        );
        rows.push(r);
    }
    for (i, kind) in ["shm_rtt_p50", "shm_rtt_p99"].into_iter().enumerate() {
        let r = Row {
            kind,
            pes: 2,
            unit: if i == 0 { "ns_p50" } else { "ns_p99" },
            before: socket[i],
            after: shm_rtt[i],
        };
        say!(
            quiet,
            "  {:>11}: {:>10.0}ns socket {:>10.0}ns shmring  ({:.3}x)",
            kind,
            r.before,
            r.after,
            r.speedup()
        );
        rows.push(r);
    }

    say!(
        quiet,
        "\n(P-1)->1 16 B fan-in throughput: in-process vs socket vs shmring"
    );
    for pes in FANIN_PES {
        let before = run_and_parse(pes, Transport::InProcess, "FANIN", fanin_entry)[0];
        let after = run_and_parse(pes, Transport::Socket, "FANIN", fanin_entry)[0];
        let shm = run_and_parse(pes, Transport::ShmRing, "FANIN", fanin_entry)[0];
        let r = Row {
            kind: "fanin",
            pes,
            unit: "msgs_per_sec",
            before,
            after,
        };
        say!(
            quiet,
            "  {:>2} PEs: {:>12.0} msg/s inproc {:>12.0} msg/s socket {:>12.0} msg/s shmring",
            pes,
            before,
            after,
            shm,
        );
        rows.push(r);
        rows.push(Row {
            kind: "shm_fanin",
            pes,
            unit: "msgs_per_sec",
            before: after,
            after: shm,
        });
    }

    // Absolute acceptance gates for the shared-memory data plane: the
    // rings exist to beat the hub socket, so hold them to it — RTT p50
    // at most 1/3 of socket, 8-PE fan-in at least 4x socket.
    let mut accept_failed = false;
    {
        let (sock_p50, shm_p50) = (socket[0], shm_rtt[0]);
        if shm_p50 > sock_p50 / 3.0 {
            eprintln!("ACCEPT: shmring rtt_p50 {shm_p50:.0}ns > 1/3 of socket {sock_p50:.0}ns");
            accept_failed = true;
        } else {
            say!(
                quiet,
                "accept ok: shmring rtt_p50 {shm_p50:.0}ns <= 1/3 socket {sock_p50:.0}ns"
            );
        }
        let sock8 = rows
            .iter()
            .find(|r| r.kind == "fanin" && r.pes == 8)
            .map(|r| r.after)
            .unwrap_or(0.0);
        let shm8 = rows
            .iter()
            .find(|r| r.kind == "shm_fanin" && r.pes == 8)
            .map(|r| r.after)
            .unwrap_or(0.0);
        if shm8 < sock8 * 4.0 {
            eprintln!("ACCEPT: shmring 8-PE fan-in {shm8:.0} msg/s < 4x socket {sock8:.0} msg/s");
            accept_failed = true;
        } else {
            say!(
                quiet,
                "accept ok: shmring 8-PE fan-in {shm8:.0} msg/s >= 4x socket {sock8:.0} msg/s"
            );
        }
    }

    // Regression gate: fresh socket numbers vs the checked-in baseline,
    // 25% tolerance, direction-aware per unit.
    let mut gate_failed = false;
    if let Some(text) = &baseline {
        for (kind, pes, base_after) in baseline_rows(text) {
            let Some(fresh) = rows
                .iter()
                .find(|r| r.kind == kind && r.pes == pes)
                .map(|r| r.after)
            else {
                continue;
            };
            let (bad, cmp) = if kind.contains("rtt") {
                (fresh > base_after * 1.25, ">")
            } else {
                (fresh < base_after / 1.25, "<")
            };
            if bad {
                eprintln!(
                    "GATE: {kind}@{pes}pe socket {fresh:.0} {cmp} baseline {base_after:.0} by >25%"
                );
                gate_failed = true;
            } else {
                say!(
                    quiet,
                    "gate ok: {kind}@{pes}pe socket {fresh:.0} (baseline {base_after:.0})"
                );
            }
        }
    } else {
        say!(
            quiet,
            "no checked-in BENCH_wire.json baseline; gate skipped (first run)"
        );
    }

    std::fs::write("BENCH_wire.json", render_json(&rows)).expect("write BENCH_wire.json");
    say!(quiet, "\nwrote BENCH_wire.json ({} rows)", rows.len());

    if gate_failed || accept_failed {
        if gate_on {
            eprintln!("wire-transport gate FAILED (set WIRE_GATE=off to re-baseline)");
            std::process::exit(1);
        } else {
            say!(quiet, "gate failures ignored: WIRE_GATE=off");
        }
    }
}
