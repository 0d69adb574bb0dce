//! The lock-free SPSC ring data plane over a [`ShmRegion`].
//!
//! One directed byte ring per ordered PE pair. Records are the exact
//! socket frame encoding — `[u32 body][kind·src·dst·seq·channel·
//! guarantee][payload]` — copied in with wrap-around, so the
//! seq/ack/retransmit sublayer, the QoS guarantees and the
//! STEAL_REQ/DONATE protocol run bit-identically over rings and
//! sockets.
//!
//! **Ordering contract.** `head` is written only by the producer
//! process, `tail` only by the consumer; both are monotonic byte
//! counts. A record is published by storing `head` with `Release`
//! *after* the byte copies; the consumer observes it with one
//! `Acquire` load. Records publish whole (head never advances into a
//! half-written record), so a consumer that sees ≥ 4 available bytes
//! always sees the complete record they prefix. Each side caches the
//! peer's index and re-reads it only when the cached value says the
//! ring is full (producer) or empty (consumer) — the one atomic load
//! amortizes over a whole batch of records.
//!
//! **Idle policy.** The consumer spins `idle_spin` sweeps (the same
//! knob the scheduler's idle loop uses — zero on single-core hosts),
//! then re-checks under the doorbell protocol and parks in
//! `futex_wait`. Producers bump the doorbell counter after every
//! publish and issue the wake syscall only when the waiter flag is up,
//! so a draining consumer costs the producer one shared-memory
//! increment per record and no syscalls. The flag/counter pair closes
//! the sleep race: the consumer re-checks the counter after raising
//! the flag, and the kernel re-checks it once more inside `futex_wait`.
//!
//! **Handing records on.** The poller is rarely the records' final
//! consumer: the endpoint queues them for its PE thread. Waking that
//! thread is left to a separate `wake` callback, called once per sweep
//! over the rings rather than once per record
//! ([`ShmPlane::poll_sweeps`]) — a PE woken for the first 16-byte
//! record of a sweep runs, finds one message and parks again while the
//! poller is still copying out the rest.

use crate::region::ShmRegion;
use converse_msg::{FrameHeader, MsgBlock, FRAME_HEADER_BYTES};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-ring length-prefix bytes (mirrors the socket framing).
const LEN_PREFIX: usize = 4;

/// Payload bytes [`ShmPlane::poll_sweeps`] hands to `on_frame` before it
/// calls `wake` without waiting for the sweep to end. Small records are
/// cheap to copy out and the consumer of a sweep of them is better
/// woken once, for all of them; a 16 KiB record takes about as long to
/// copy out as to consume, so its consumer should start on it while
/// the next one is being copied.
const WAKE_EVERY_BYTES: usize = 4096;

/// How a ring push ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Record published (doorbell rung).
    Sent,
    /// Record can never fit this ring; caller must fall back to the
    /// control-plane socket.
    TooBig,
    /// Non-blocking push found insufficient free space right now.
    Full,
    /// The endpoint shut down while waiting for space.
    Shutdown,
}

/// Producer-side cache for one outbound ring.
struct SendSide {
    /// Last observed consumer index; refreshed only when the cached
    /// value implies the ring is full.
    cached_tail: u64,
}

/// One rank's handle on the shared ring plane: producer role on every
/// `rank → dst` ring, consumer role on every `src → rank` ring.
pub struct ShmPlane {
    region: Arc<ShmRegion>,
    rank: usize,
    n: usize,
    idle_spin: u32,
    /// The cross-process structure is SPSC, but several local threads
    /// produce (app sends, retransmit pump, ACKs off the poller) — a
    /// short per-destination mutex serializes them onto the single
    /// producer role. Finer than the socket's one global writer lock.
    send: Vec<Mutex<SendSide>>,
}

impl ShmPlane {
    pub fn new(region: Arc<ShmRegion>, rank: usize, idle_spin: u32) -> ShmPlane {
        let n = region.num_pes();
        assert!(rank < n);
        ShmPlane {
            region,
            rank,
            n,
            idle_spin,
            send: (0..n)
                .map(|_| Mutex::new(SendSide { cached_tail: 0 }))
                .collect(),
        }
    }

    /// Largest record (length prefix + header + payload) one ring can
    /// ever hold.
    pub fn max_record(&self) -> usize {
        self.region.ring_cap()
    }

    /// Publish one frame into the `rank → dst` ring.
    ///
    /// `block` selects the producer's full-ring policy: app/pump
    /// threads wait for the consumer to drain (spin → yield → short
    /// sleep, bailing on shutdown); the poller thread must never wait —
    /// it *is* the drain for the opposite direction, and two pollers
    /// blocked on each other's full rings would deadlock — so it uses
    /// `block = false` and lets the caller fall back to the hub socket.
    pub fn push(
        &self,
        dst: usize,
        header: FrameHeader,
        payload: &[u8],
        block: bool,
        shutdown: &AtomicBool,
    ) -> PushOutcome {
        debug_assert_ne!(dst, self.rank, "loopback never touches the rings");
        let total = LEN_PREFIX + FRAME_HEADER_BYTES + payload.len();
        let ring = self.region.ring(self.rank, dst);
        if total > ring.cap {
            return PushOutcome::TooBig;
        }
        let mut side = if block {
            self.send[dst].lock()
        } else {
            match self.send[dst].try_lock() {
                Some(g) => g,
                // A blocked producer holds the lock; don't pile up
                // behind it from the poller thread.
                None => return PushOutcome::Full,
            }
        };
        // Producer owns head: a relaxed load reads our own last store.
        let head = ring.head.load(Ordering::Relaxed);
        if head + total as u64 - side.cached_tail > ring.cap as u64 {
            let mut spins = 0u32;
            loop {
                side.cached_tail = ring.tail.load(Ordering::Acquire);
                if head + total as u64 - side.cached_tail <= ring.cap as u64 {
                    break;
                }
                if !block {
                    return PushOutcome::Full;
                }
                if shutdown.load(Ordering::Acquire) {
                    return PushOutcome::Shutdown;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 256 {
                    std::thread::yield_now();
                } else {
                    // The consumer is a live poller unless its process
                    // died — in which case shutdown arrives via the
                    // control plane and the check above fires.
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        let mut prefix = [0u8; LEN_PREFIX + FRAME_HEADER_BYTES];
        let body = (FRAME_HEADER_BYTES + payload.len()) as u32;
        prefix[..4].copy_from_slice(&body.to_le_bytes());
        prefix[4] = header.kind;
        prefix[5..9].copy_from_slice(&header.src.to_le_bytes());
        prefix[9..13].copy_from_slice(&header.dst.to_le_bytes());
        prefix[13..21].copy_from_slice(&header.seq.to_le_bytes());
        prefix[21..25].copy_from_slice(&header.channel.to_le_bytes());
        prefix[25] = header.guarantee;
        unsafe {
            ring.write_at(head, &prefix);
            ring.write_at(head + prefix.len() as u64, payload);
        }
        ring.head.store(head + total as u64, Ordering::Release);
        drop(side);
        let db = self.region.doorbell(dst);
        db.counter.fetch_add(1, Ordering::SeqCst);
        if db.waiters.load(Ordering::SeqCst) != 0 {
            crate::futex::futex_wake_all(db.counter);
        }
        PushOutcome::Sent
    }

    /// Consume one record off the `src → rank` ring, if any.
    /// `cached_head` is the consumer's amortization state for this
    /// ring (starts at 0).
    fn pop(&self, src: usize, cached_head: &mut u64) -> Option<(FrameHeader, MsgBlock)> {
        let ring = self.region.ring(src, self.rank);
        // Consumer owns tail: relaxed reads our own last store.
        let tail = ring.tail.load(Ordering::Relaxed);
        if *cached_head == tail {
            *cached_head = ring.head.load(Ordering::Acquire);
            if *cached_head == tail {
                return None;
            }
        }
        // Whole-record publication: ≥ 4 available bytes ⇒ the full
        // record is published.
        let mut prefix = [0u8; LEN_PREFIX + FRAME_HEADER_BYTES];
        unsafe { ring.read_at(tail, &mut prefix) };
        let body = u32::from_le_bytes(prefix[..4].try_into().unwrap()) as usize;
        debug_assert!(
            (FRAME_HEADER_BYTES..=ring.cap).contains(&body),
            "shm ring corrupt: body {body}"
        );
        let header = FrameHeader {
            kind: prefix[4],
            src: u32::from_le_bytes(prefix[5..9].try_into().unwrap()),
            dst: u32::from_le_bytes(prefix[9..13].try_into().unwrap()),
            seq: u64::from_le_bytes(prefix[13..21].try_into().unwrap()),
            channel: u32::from_le_bytes(prefix[21..25].try_into().unwrap()),
            guarantee: prefix[25],
        };
        let payload_len = body - FRAME_HEADER_BYTES;
        let mut block = MsgBlock::alloc(payload_len);
        if payload_len > 0 {
            unsafe { ring.read_at(tail + prefix.len() as u64, block.make_mut()) };
        }
        ring.tail
            .store(tail + (LEN_PREFIX + body) as u64, Ordering::Release);
        Some((header, block))
    }

    /// Drain inbound rings until `shutdown`, handing each record to
    /// `on_frame`: [`ShmPlane::poll_sweeps`] for a consumer that needs
    /// no separate wake-up.
    pub fn poll_loop(&self, shutdown: &AtomicBool, on_frame: impl FnMut(FrameHeader, MsgBlock)) {
        self.poll_sweeps(shutdown, on_frame, || {});
    }

    /// Drain inbound rings until `shutdown`, handing each record to
    /// `on_frame` and calling `wake` after every batch of them: at the
    /// end of each sweep over the rings that found records, and inside
    /// a long sweep every [`WAKE_EVERY_BYTES`] of payload. `on_frame`
    /// can therefore queue records for another thread without waking
    /// it and leave the one wake per batch to `wake`. Runs on the
    /// endpoint's dedicated poller thread (the single consumer of
    /// every `* → rank` ring).
    pub fn poll_sweeps(
        &self,
        shutdown: &AtomicBool,
        mut on_frame: impl FnMut(FrameHeader, MsgBlock),
        mut wake: impl FnMut(),
    ) {
        // After the pure spins run out, cede the core between sweeps
        // for a while before parking: during an active exchange the
        // next record arrives within a few scheduling quanta, and
        // catching it on a yield-return sweep skips the whole
        // futex-wake round trip (producer syscall + consumer wakeup).
        // An idle machine pays ~256 cheap yields per 50 ms park.
        const YIELD_SWEEPS: u32 = 256;
        let mut cached = vec![0u64; self.n];
        let db = self.region.doorbell(self.rank);
        let mut spins = 0u32;
        let mut yields = 0u32;
        while !shutdown.load(Ordering::Acquire) {
            let mut got = false;
            // Payload bytes handed over since the last `wake`, and
            // whether any record was (payloads may be empty).
            let mut unwoken = 0usize;
            let mut owed = false;
            for (src, head) in cached.iter_mut().enumerate() {
                if src == self.rank {
                    continue;
                }
                while let Some((h, b)) = self.pop(src, head) {
                    unwoken += b.len();
                    on_frame(h, b);
                    got = true;
                    owed = true;
                    if unwoken >= WAKE_EVERY_BYTES {
                        wake();
                        unwoken = 0;
                        owed = false;
                    }
                }
            }
            if owed {
                wake();
            }
            if got {
                spins = 0;
                yields = 0;
                continue;
            }
            if spins < self.idle_spin {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if yields < YIELD_SWEEPS {
                yields += 1;
                std::thread::yield_now();
                continue;
            }
            spins = 0;
            yields = 0;
            // Doorbell protocol: snapshot, re-sweep, raise the waiter
            // flag, re-check, park. See the module docs for why this
            // has no lost-wakeup window.
            let v = db.counter.load(Ordering::SeqCst);
            let mut again = false;
            for (src, head) in cached.iter_mut().enumerate() {
                if src == self.rank {
                    continue;
                }
                if let Some((h, b)) = self.pop(src, head) {
                    on_frame(h, b);
                    again = true;
                }
            }
            if again {
                wake();
                continue;
            }
            db.waiters.store(1, Ordering::SeqCst);
            if db.counter.load(Ordering::SeqCst) == v && !shutdown.load(Ordering::Acquire) {
                // Bounded park: shutdown is a process-local flag no
                // doorbell rings for.
                crate::futex::futex_wait(db.counter, v, Duration::from_millis(50));
            }
            db.waiters.store(0, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind;

    /// Push `count` records of `len` bytes from rank 0, then poll them
    /// at rank 1; returns the order of frame (`F`) and wake (`W`) calls.
    fn poll_trace(count: usize, len: usize) -> String {
        let region = Arc::new(ShmRegion::create(2, 1 << 20).expect("shm region"));
        let tx = ShmPlane::new(region.clone(), 0, 0);
        let rx = ShmPlane::new(region, 1, 0);
        let never = AtomicBool::new(false);
        for i in 0..count as u64 {
            let h = FrameHeader::new(kind::DATA, 0, 1, i);
            assert_eq!(
                tx.push(1, h, &vec![7u8; len], false, &never),
                PushOutcome::Sent
            );
        }
        let stop = AtomicBool::new(false);
        let trace = std::cell::RefCell::new(String::new());
        rx.poll_sweeps(
            &stop,
            |_, b| {
                assert_eq!(b.len(), len);
                trace.borrow_mut().push('F');
                if trace.borrow().matches('F').count() == count {
                    stop.store(true, Ordering::Release);
                }
            },
            || trace.borrow_mut().push('W'),
        );
        trace.into_inner()
    }

    #[test]
    fn a_sweep_of_small_records_is_one_wake() {
        assert_eq!(poll_trace(64, 16), "F".repeat(64) + "W");
        // Empty payloads still owe their wake.
        assert_eq!(poll_trace(3, 0), "FFFW");
    }

    #[test]
    fn large_records_wake_as_they_land() {
        assert_eq!(poll_trace(4, 16 * 1024), "FWFWFWFW");
        // 1 KiB records: every fourth crosses the byte budget.
        assert_eq!(poll_trace(6, 1024), "FFFFWFFW");
    }
}
