//! Benchmark harness regenerating the paper's evaluation (§5).
//!
//! Figures 4–8 plot **one-way message time against message size** on
//! five 1995 machines, comparing Converse against each machine's native
//! layer; Figure 6 adds a third series routing every message through the
//! scheduler's queue. The absolute wire times belong to hardware we do
//! not have, so each series is composed as
//!
//! ```text
//! t(size) = wire_model(size)      — NetModel calibrated to the paper
//!         + measured software ns  — the REAL Rust code path, measured
//! ```
//!
//! so the quantities the paper actually argues about — the *delta*
//! Converse adds over the native layer, the *delta* scheduling adds, and
//! where each becomes negligible — are live measurements of this
//! implementation. See EXPERIMENTS.md for paper-vs-measured tables.
//!
//! Measurement methodology: loopback on one PE (send → retrieve →
//! dispatch on the same OS thread), which exercises the full header
//! encode/decode, local-queue, handler-table and (optionally) scheduler
//! queue code without cross-thread wakeup noise; a two-PE ping-pong variant
//! with real hand-offs is also provided for the overhead bench.

pub mod ccs_load;

use converse_core::{csd_scheduler, run, run_with, MachineConfig, Message, Pe};
use converse_msg::HEADER_BYTES;
pub use converse_net::NetModel;
use converse_net::{Channel, Packet};
use converse_queue::QueueingMode;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message sizes (payload bytes) used across all figures, log-spaced
/// like the paper's x-axes.
pub fn standard_sizes() -> Vec<usize> {
    vec![
        4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
    ]
}

/// Run `f` on a machine built from `cfg` and return the duration it
/// reports.
pub fn run_timed_with<F>(cfg: MachineConfig, f: F) -> Duration
where
    F: Fn(&Pe) -> Option<Duration> + Send + Sync + 'static,
{
    let out = Arc::new(parking_lot::Mutex::new(Duration::ZERO));
    let o2 = out.clone();
    run_with(cfg, move |pe| {
        if let Some(d) = f(pe) {
            *o2.lock() = d;
        }
    });
    let d = *out.lock();
    d
}

/// Raw transport baseline: a self-send on the path a Converse PE's own
/// self-sends take — a packet pushed onto a FIFO of packets, as the PE's
/// local queue is, and popped off again — with no Converse header,
/// handler, scheduler or owner cell: the "native layer" software floor
/// of this substrate.
pub fn raw_loopback_ns(size: usize, iters: u64) -> f64 {
    let mut fifo = VecDeque::new();
    // One block for the whole run, moved each time, as the Converse
    // loopback below moves its message: nothing else holds it.
    let mut block = Some(converse_msg::MsgBlock::copy_from(&vec![7u8; size]));
    let mut round = || {
        let fifo = std::hint::black_box(&mut fifo);
        fifo.push_back(Packet {
            src: 0,
            channel: Channel::DEFAULT,
            block: block.take().expect("the last round put the block back"),
        });
        block = Some(std::hint::black_box(fifo.pop_front().expect("loopback")).block);
    };
    // Warm up.
    (0..100).for_each(|_| round());
    let t0 = Instant::now();
    (0..iters).for_each(|_| round());
    t0.elapsed().as_nanos() as f64 / iters as f64
}

thread_local! {
    /// The message the last handler of a Converse loopback hands back
    /// for the next iteration to send.
    static RETURNED: Cell<Option<Message>> = const { Cell::new(None) };
}

/// Full Converse path: `CmiSyncSendAndFree` → retrieve → decode →
/// handler dispatch. With `scheduled`, the first handler re-enqueues on
/// the Csd queue (FIFO) and a second handler runs from the queue — the
/// Figure-6 "with scheduling" series.
///
/// The send takes the PE's local queue, the path [`raw_loopback_ns`]
/// times, so the difference of the two is what Converse adds. Each
/// iteration sends a message nobody else holds (the last handler hands
/// it back), so the re-enqueue's `set_handler` never copies the payload.
pub fn converse_loopback_ns(size: usize, iters: u64, scheduled: bool) -> f64 {
    let per_iter = run_timed_with(MachineConfig::new(1), move |pe| {
        let sink = pe.register_handler(|_pe, msg| {
            std::hint::black_box(msg.payload().len());
            RETURNED.set(Some(msg));
        });
        let requeue = pe.register_handler(move |pe, mut msg| {
            msg.set_handler(sink);
            pe.queue_enqueue(msg, QueueingMode::Fifo);
        });
        let handler = if scheduled { requeue } else { sink };
        RETURNED.set(Some(Message::new(handler, &vec![7u8; size])));
        let per_msg_work = if scheduled { 2 } else { 1 };
        let round = || {
            let mut msg = RETURNED
                .take()
                .expect("the last handler hands the message back");
            msg.set_handler(handler);
            pe.sync_send_and_free(0, msg);
            csd_scheduler(pe, per_msg_work);
        };
        // Warm up.
        (0..100).for_each(|_| round());
        let t0 = Instant::now();
        (0..iters).for_each(|_| round());
        Some(t0.elapsed())
    });
    per_iter.as_nanos() as f64 / iters as f64
}

/// Cross-PE round trip with real thread hand-offs: PE 0 sends, PE 1's
/// handler echoes; returns ns per one-way message (half the round
/// trip). With `scheduled`, the echo goes through PE 1's queue.
pub fn round_trip_2pe_ns(size: usize, iters: u64, scheduled: bool) -> f64 {
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    run(2, move |pe| {
        let done = pe.local(|| AtomicU64::new(0));
        let d2 = done.clone();
        let pong = pe.register_handler(move |_pe, msg| {
            d2.store(
                u64::from_le_bytes(msg.payload()[..8].try_into().unwrap()),
                Ordering::Release,
            );
        });
        let echo_exec = pe.register_handler(move |pe, msg| {
            pe.sync_send(0, &{
                let mut m = msg;
                m.set_handler(pong);
                m
            });
        });
        let echo = pe.register_handler(move |pe, mut msg| {
            if scheduled {
                msg.set_handler(echo_exec);
                pe.queue_enqueue(msg, QueueingMode::Fifo);
            } else {
                msg.set_handler(pong);
                pe.sync_send(0, &msg);
            }
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let mut payload = vec![7u8; size.max(8)];
            let t0 = Instant::now();
            for i in 1..=iters {
                payload[..8].copy_from_slice(&i.to_le_bytes());
                pe.sync_send(1, &Message::new(echo, &payload));
                pe.deliver_until(|| done.load(Ordering::Acquire) == i);
            }
            t2.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            // Unblock PE 1.
            pe.sync_send_and_free(1, Message::new(pong, &u64::MAX.to_le_bytes()));
        } else {
            loop {
                if done.load(Ordering::Acquire) == u64::MAX {
                    break;
                }
                csd_scheduler(pe, 1);
            }
        }
        pe.barrier();
    });
    total.load(Ordering::SeqCst) as f64 / iters as f64 / 2.0
}

/// Per-size measured software costs of this implementation.
#[derive(Debug, Clone, Copy)]
pub struct SwCost {
    /// Payload size.
    pub size: usize,
    /// Raw transport ns (native floor).
    pub raw_ns: f64,
    /// Full Converse path ns.
    pub converse_ns: f64,
    /// Converse path with the scheduler queue ns.
    pub sched_ns: f64,
}

/// Measure the software path for each size. `iters` is scaled down for
/// large messages so the total bytes copied stays bounded.
pub fn measure_sw(sizes: &[usize], iters: u64) -> Vec<SwCost> {
    sizes
        .iter()
        .map(|&size| {
            let it = ((iters as u128 * 1024 / (size as u128 + 1024)) as u64)
                .max(iters / 20)
                .max(500);
            SwCost {
                size,
                raw_ns: raw_loopback_ns(size, it),
                converse_ns: converse_loopback_ns(size, it, false),
                sched_ns: converse_loopback_ns(size, it, true),
            }
        })
        .collect()
}

/// One row of a reproduced figure.
#[derive(Debug, Clone, Copy)]
pub struct FigureRow {
    /// Payload size in bytes (x-axis).
    pub size: usize,
    /// Native layer: modeled wire time only.
    pub native_us: f64,
    /// Converse: wire time (header included) + measured software path.
    pub converse_us: f64,
    /// Converse with scheduler queueing (the Figure-6 third series).
    pub converse_sched_us: f64,
}

/// Compose a figure's series from the wire model and measured software
/// costs.
pub fn figure_series(model: &NetModel, sw: &[SwCost]) -> Vec<FigureRow> {
    sw.iter()
        .map(|c| {
            let sw_converse_us = (c.converse_ns - c.raw_ns).max(0.0) / 1000.0;
            let sw_sched_us = (c.sched_ns - c.raw_ns).max(0.0) / 1000.0;
            FigureRow {
                size: c.size,
                native_us: model.one_way_us(c.size),
                converse_us: model.one_way_us(c.size + HEADER_BYTES) + sw_converse_us,
                converse_sched_us: model.one_way_us(c.size + HEADER_BYTES) + sw_sched_us,
            }
        })
        .collect()
}

/// Print a figure as the paper's underlying table: size vs series.
pub fn print_figure(title: &str, rows: &[FigureRow], with_sched: bool) {
    println!("\n{title}");
    if with_sched {
        println!(
            "{:>8} {:>14} {:>14} {:>18}",
            "bytes", "native (µs)", "Converse (µs)", "+scheduling (µs)"
        );
    } else {
        println!(
            "{:>8} {:>14} {:>14}",
            "bytes", "native (µs)", "Converse (µs)"
        );
    }
    for r in rows {
        if with_sched {
            println!(
                "{:>8} {:>14.2} {:>14.2} {:>18.2}",
                r.size, r.native_us, r.converse_us, r.converse_sched_us
            );
        } else {
            println!(
                "{:>8} {:>14.2} {:>14.2}",
                r.size, r.native_us, r.converse_us
            );
        }
    }
}

/// Timing-noise tolerance for shape checks, µs. Software deltas at large
/// sizes are dominated by memcpy jitter; the claims concern deltas well
/// above this.
const SHAPE_TOL_US: f64 = 0.25;

/// Shape checks the reproduced series must satisfy (the paper's claims);
/// returns human-readable violations, empty when all hold. Differences
/// within `SHAPE_TOL_US` (0.25 µs) of measurement noise are accepted.
pub fn shape_check(model: &NetModel, rows: &[FigureRow]) -> Vec<String> {
    let mut bad = Vec::new();
    for w in rows.windows(2) {
        if w[1].converse_us < w[0].converse_us - SHAPE_TOL_US {
            bad.push(format!(
                "{}: Converse series not monotone at {} bytes",
                model.name, w[1].size
            ));
        }
    }
    for r in rows {
        if r.converse_us < r.native_us - SHAPE_TOL_US {
            bad.push(format!(
                "{}: Converse beat native at {} bytes",
                model.name, r.size
            ));
        }
        if r.converse_sched_us < r.converse_us - SHAPE_TOL_US {
            bad.push(format!(
                "{}: scheduling was free at {} bytes",
                model.name, r.size
            ));
        }
    }
    // Relative overhead must shrink with size (claim C2).
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let rel_small = (first.converse_sched_us - first.native_us) / first.native_us;
        let rel_large = (last.converse_sched_us - last.native_us) / last.native_us;
        if rel_large > rel_small * 1.10 + 1e-4 {
            bad.push(format!(
                "{}: relative overhead grew with size ({rel_small:.4} → {rel_large:.4})",
                model.name
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_loopback_is_fast_and_positive() {
        let ns = raw_loopback_ns(64, 2_000);
        assert!(ns > 0.0 && ns < 100_000.0, "{ns} ns");
    }

    #[test]
    fn converse_costs_more_than_raw_and_sched_more_than_plain() {
        let sw = measure_sw(&[64], 2_000);
        let c = sw[0];
        assert!(c.converse_ns > 0.0);
        assert!(
            c.sched_ns > c.converse_ns * 0.8,
            "queueing path unexpectedly cheap: {c:?}"
        );
    }

    /// Deterministic composition check with synthetic software costs;
    /// the live (release-mode) shape assertions run in the figure
    /// benches and the `figures` binary, where timing is stable.
    #[test]
    fn figure_series_shapes_hold_on_reference_costs() {
        let sw: Vec<SwCost> = [16usize, 1024, 65536]
            .iter()
            .map(|&size| SwCost {
                size,
                raw_ns: 100.0,
                converse_ns: 250.0,
                sched_ns: 400.0,
            })
            .collect();
        for model in NetModel::all_figures() {
            let rows = figure_series(&model, &sw);
            let bad = shape_check(&model, &rows);
            assert!(bad.is_empty(), "{bad:?}");
        }
    }

    /// A series where scheduling looks cheaper than plain dispatch by
    /// more than the tolerance must be flagged.
    #[test]
    fn shape_check_catches_inverted_sched_cost() {
        let model = NetModel::myrinet_fm();
        let rows = vec![
            FigureRow {
                size: 16,
                native_us: 25.0,
                converse_us: 27.0,
                converse_sched_us: 26.0,
            },
            FigureRow {
                size: 64,
                native_us: 25.0,
                converse_us: 27.1,
                converse_sched_us: 27.3,
            },
        ];
        let bad = shape_check(&model, &rows);
        assert!(
            bad.iter().any(|b| b.contains("scheduling was free")),
            "{bad:?}"
        );
    }

    #[test]
    fn two_pe_round_trip_measures() {
        let ns = round_trip_2pe_ns(16, 200, false);
        assert!(ns > 0.0, "one-way ns {ns}");
    }
}
