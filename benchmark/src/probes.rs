//! Layer probes: single-thread isolation timing of each crate's public
//! hot functions. No machine is booted; a probe calls the function in a
//! loop and reports the same floor estimate as the workloads (10th
//! percentile of per-batch mean time). Their sum, next to `core_1pe`'s
//! `op_us`, is the per-layer budget; what it does not explain is
//! `core.unexplained_ns`.

use crate::harness::BatchTime;
use crate::stats::p10;
use converse_fiber::Fiber;
use converse_machine::{HandlerId, Message};
use converse_msg::{encode_frame, read_frame, FrameHeader, MsgBlock, Priority};
use converse_net::{Interconnect, Packet};
use converse_queue::{CsdQueue, QueueingMode, SchedulingQueue};
use converse_taskbench::{expand_payload, finish_output};
use converse_threads::CthBackend;
use converse_wire::{kind, PushOutcome, ShmPlane, ShmRegion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SMALL: [u8; 16] = [0x5A; 16];
const LARGE_LEN: usize = 16 * 1024;

/// Calibration slices interleaved in one probe batch.
const SLICES: u32 = 8;
/// The probes are pieces of the message paths: their split (see
/// `BatchTime::new`).
const ALU_SHARE: f64 = 0.5;

/// Time `f` in batches of `iters` calls for `seconds`; ns per call at
/// reference speed (calibration slices interleaved, as in the workloads).
fn per_call(seconds: f64, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut v = Vec::with_capacity(4096);
    while start.elapsed() < budget || v.len() < 16 {
        let mut t = BatchTime::new(SLICES as usize, ALU_SHARE);
        let t0 = Instant::now();
        for _ in 0..SLICES {
            t.calibrate(1);
            for _ in 0..iters / SLICES {
                f();
            }
        }
        t.ops_ns = t0.elapsed().as_nanos() as u64 - t.calib_wall_ns;
        v.push(t.reference_ns() / (iters / SLICES * SLICES) as f64);
    }
    p10(&v)
}

/// A two-phase probe's batch: `a` and `b` timed apart, each bracketed
/// by calibration slices. Returns per-item ns at reference speed.
fn two_phase(k: usize, a: impl FnOnce(), b: impl FnOnce()) -> (f64, f64) {
    let mut t = BatchTime::new(SLICES as usize, ALU_SHARE);
    t.calibrate(SLICES / 2);
    let t0 = Instant::now();
    a();
    let t1 = Instant::now();
    b();
    let t2 = Instant::now();
    t.calibrate(SLICES / 2);
    let slow = t.slowdown();
    (
        (t1 - t0).as_nanos() as f64 / k as f64 / slow,
        (t2 - t1).as_nanos() as f64 / k as f64 / slow,
    )
}

/// `Message::new` + drop on the pool-hit path.
fn msg_alloc(seconds: f64, payload: &[u8], iters: u32) -> f64 {
    per_call(seconds, iters, || {
        black_box(Message::new(HandlerId(1), black_box(payload)));
    })
}

/// `encode_frame` + `read_frame` of a 16 B payload.
fn frame_codec(seconds: f64) -> f64 {
    let header = FrameHeader::new(kind::DATA, 0, 1, 7);
    per_call(seconds, 4096, || {
        let bytes = encode_frame(header, black_box(&SMALL));
        let got = read_frame(&mut bytes.as_slice()).expect("well-formed frame");
        black_box(got);
    })
}

/// One `CsdQueue` enqueue + dequeue pair of a reused message.
fn queue_pair(seconds: f64, prio: &Priority, mode: QueueingMode) -> f64 {
    let mut q = CsdQueue::new();
    let mut slot = Some(Message::with_priority(HandlerId(1), prio, &SMALL));
    per_call(seconds, 8192, || {
        q.enqueue(slot.take().expect("message in hand"), mode);
        slot = q.dequeue();
    })
}

/// One `Fiber::resume` + `yield_now` round trip (two context switches);
/// 0 where the fiber backend is not supported.
fn fiber_switch(seconds: f64) -> f64 {
    if !CthBackend::fiber_supported() {
        return 0.0;
    }
    let mut f = Fiber::new(64 * 1024, |h| loop {
        h.yield_now();
    });
    let ns = per_call(seconds, 8192, || {
        black_box(f.resume());
    });
    // Dropped while suspended: its (empty) stack frame is leaked by
    // design, see `converse-fiber`.
    ns
}

/// `Interconnect::send` and `drain_into`, one thread, 16 B blocks:
/// `(send ns, drain ns)` per message.
fn net_send_drain(seconds: f64) -> (f64, f64) {
    const K: usize = 4096;
    let net = Interconnect::new(2);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut send, mut drain) = (Vec::new(), Vec::new());
    let mut out: Vec<Packet> = Vec::with_capacity(K);
    let mut rounds = 0;
    while start.elapsed() < budget || send.len() < 16 {
        let blocks: Vec<MsgBlock> = (0..K)
            .map(|_| Message::new(HandlerId(1), &SMALL).into_block())
            .collect();
        let (s_ns, d_ns) = two_phase(
            K,
            || {
                for b in blocks {
                    net.send(0, 1, b);
                }
            },
            || {
                let mut got = 0;
                while got < K {
                    got += net.drain_into(1, &mut out);
                }
            },
        );
        out.clear();
        // The first round fills pools and mailbox capacity.
        if rounds > 0 {
            send.push(s_ns);
            drain.push(d_ns);
        }
        rounds += 1;
    }
    (p10(&send), p10(&drain))
}

/// `ShmPlane::push` and the pop side of `poll_loop` over one region with
/// two planes in this process: `(push ns, pop ns)` per record of
/// `payload_len` bytes, `k` records per refill.
///
/// `poll_loop` is the only public consumer and keeps per-ring cursors
/// for its whole lifetime, so it is entered once: its frame callback
/// refills the ring (timed as the push phase) each time it has drained
/// it, and the time between refills is the pop phase.
fn ring_push_pop(seconds: f64, payload_len: usize, k: usize) -> (f64, f64) {
    let region = match ShmRegion::create(2, 1 << 20) {
        Ok(r) => Arc::new(r),
        // No shared-memory transport on this host.
        Err(_) => return (0.0, 0.0),
    };
    let tx = ShmPlane::new(region.clone(), 0, 0);
    let rx = ShmPlane::new(region, 1, 0);
    let payload = vec![0xA5u8; payload_len];
    let stop = AtomicBool::new(false);
    let never = AtomicBool::new(false);
    let fill = |seq0: u64| -> f64 {
        let mut t = BatchTime::new(SLICES as usize, ALU_SHARE);
        t.calibrate(SLICES / 2);
        let t0 = Instant::now();
        for i in 0..k as u64 {
            let h = FrameHeader::new(kind::DATA, 0, 1, seq0 + i);
            let r = tx.push(1, h, &payload, false, &never);
            assert_eq!(r, PushOutcome::Sent, "probe ring sized for k records");
        }
        t.ops_ns = t0.elapsed().as_nanos() as u64;
        t.calibrate(SLICES / 2);
        t.reference_ns() / k as f64
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut push, mut pop) = (Vec::new(), Vec::new());
    let mut seen = 0usize;
    let mut first_push = fill(0);
    let mut pop_t0 = Instant::now();
    rx.poll_loop(&stop, |h, block| {
        black_box((h, block));
        seen += 1;
        if !seen.is_multiple_of(k) {
            return;
        }
        // The slices that closed the last fill open this pop phase.
        let mut t = BatchTime::new(SLICES as usize, ALU_SHARE);
        t.ops_ns = pop_t0.elapsed().as_nanos() as u64;
        t.calibrate(SLICES);
        let pop_ns = t.reference_ns() / k as f64;
        // Skip the first refill: cold ring pages and an empty pool.
        if seen > k {
            push.push(first_push);
            pop.push(pop_ns);
        }
        if start.elapsed() >= budget && push.len() >= 16 {
            stop.store(true, Ordering::Release);
            return;
        }
        first_push = fill(seen as u64);
        pop_t0 = Instant::now();
    });
    (p10(&push), p10(&pop))
}

/// `expand_payload` + `finish_output` for a task with three 16 B
/// predecessors: the validator's share of a task's timed region.
fn oracle(seconds: f64) -> f64 {
    let mut serial = 0u32;
    per_call(seconds, 2048, || {
        serial = serial.wrapping_add(1);
        let mut preds: Vec<(u32, Vec<u8>)> = (0..3)
            .map(|i| (i, expand_payload(serial as u64 ^ i as u64, 16)))
            .collect();
        black_box(finish_output(1996, serial, &mut preds));
    })
}

/// Run every probe for `seconds` each; `(metric name, value)` in
/// `BENCHMARK.json` order. All in ns.
pub fn run_all(seconds: f64) -> Vec<(&'static str, f64)> {
    let large = vec![0x5Au8; LARGE_LEN];
    let (net_send, net_drain) = net_send_drain(seconds);
    let (ring_push, ring_pop) = ring_push_pop(seconds, SMALL.len(), 4096);
    let (large_push, large_pop) = ring_push_pop(seconds, LARGE_LEN, 32);
    vec![
        ("msg.alloc_ns", msg_alloc(seconds, &SMALL, 8192)),
        ("msg.alloc_large_ns", msg_alloc(seconds, &large, 1024)),
        ("msg.frame_codec_ns", frame_codec(seconds)),
        (
            "queue.fifo_ns",
            queue_pair(seconds, &Priority::None, QueueingMode::Fifo),
        ),
        (
            "queue.prio_ns",
            queue_pair(seconds, &Priority::Int(-7), QueueingMode::PrioFifo),
        ),
        ("fiber.switch_ns", fiber_switch(seconds)),
        ("net.send_ns", net_send),
        ("net.drain_ns", net_drain),
        ("wire.ring_push_ns", ring_push),
        ("wire.ring_pop_ns", ring_pop),
        ("wire.ring_large_ns", large_push + large_pop),
        ("taskbench.oracle_ns_per_task", oracle(seconds)),
    ]
}
