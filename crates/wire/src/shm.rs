//! The lock-free SPSC ring data plane over a [`ShmRegion`].
//!
//! One directed byte ring per ordered PE pair. Records are the exact
//! socket frame encoding — `[u32 body][kind·src·dst·seq·channel·
//! guarantee][payload]`, the header through `FrameHeader::to_bytes` /
//! `from_bytes` as on the socket — copied in with wrap-around, so the
//! QoS guarantees and the STEAL_REQ/DONATE protocol run bit-identically
//! over rings and sockets.
//!
//! **Ordering contract.** `head` is written only by the producer
//! process, `tail` only by the consumer; both are monotonic byte
//! counts. A record is published by storing `head` with `Release`
//! *after* the byte copies; the consumer observes it with one
//! `Acquire` load. Records publish whole (head never advances into a
//! half-written record), so a consumer that sees ≥ 4 available bytes
//! always sees the complete record they prefix. Both indices and the
//! length prefix are another process's bytes, so the consumer checks
//! that contract before it copies: a record that cannot hold a frame
//! header or runs past the published bytes fails the machine, like a
//! bad frame header, and the ring is not read again. Each side caches the
//! peer's index and re-reads it only when the cached value says the
//! ring is full (producer) or empty (consumer) — the one atomic load
//! amortizes over a whole batch of records.
//!
//! **Consumer and idle policy.** The rings have no thread of their own:
//! the PE they are addressed to sweeps them after draining its mailbox
//! and before it parks in `futex_wait` on its doorbell, and a producer
//! waiting for room sweeps its own (`ShmPlane::push_or_wait`). Producers
//! bump the doorbell counter after every publish and issue the wake
//! syscall only when the waiter flag is up, so a draining consumer costs
//! the producer one shared-memory increment per record and no syscalls.
//! The flag/counter pair closes the sleep race: the consumer reads the
//! counter before its last sweep, re-checks it after raising the flag,
//! and the kernel re-checks it once more inside `futex_wait`.

use crate::region::ShmRegion;
use converse_msg::{FrameHeader, MsgBlock, FRAME_HEADER_BYTES};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-ring length-prefix bytes (mirrors the socket framing).
const LEN_PREFIX: usize = 4;

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

/// One rank's handle on the shared ring plane: producer role on every
/// `rank → dst` ring, consumer role on every `src → rank` ring.
pub struct ShmPlane {
    region: Arc<ShmRegion>,
    rank: usize,
    n: usize,
    /// Empty sweeps `ShmPlane::poll_loop` spins before it parks.
    idle_spin: u32,
    /// The cross-process structure is SPSC, but several local threads
    /// produce (app sends, donations off the hub reader or a sweep) — a
    /// short per-destination mutex serializes them onto the single
    /// producer role. Finer than the socket's one global writer lock.
    /// It holds the producer's cache of the ring's `tail`, refreshed
    /// only when the cached value says the ring is full.
    send: Vec<Mutex<u64>>,
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
            send: (0..n).map(|_| Mutex::new(0)).collect(),
        }
    }

    /// Publish one frame into the `rank → dst` ring.
    ///
    /// `block` selects the full-ring policy: wait for the consumer to
    /// drain (spin → yield → short sleep, bailing on shutdown), or report
    /// `Full` and let the caller fall back to the hub socket.
    pub fn push(
        &self,
        dst: usize,
        header: FrameHeader,
        payload: &[u8],
        block: bool,
        shutdown: &AtomicBool,
    ) -> PushOutcome {
        let stop = || shutdown.load(Ordering::Acquire);
        self.push_or_wait(dst, header, payload, block, stop, || {})
    }

    /// [`ShmPlane::push`] with the shutdown test a closure, calling
    /// `wait` each time a blocking push finds the ring still full.
    pub(crate) fn push_or_wait(
        &self,
        dst: usize,
        header: FrameHeader,
        payload: &[u8],
        block: bool,
        shutdown: impl Fn() -> bool,
        mut wait: impl FnMut(),
    ) -> PushOutcome {
        debug_assert_ne!(dst, self.rank, "loopback never touches the rings");
        let total = LEN_PREFIX + FRAME_HEADER_BYTES + payload.len();
        let ring = self.region.ring(self.rank, dst);
        if !self.fits(payload.len()) {
            return PushOutcome::TooBig;
        }
        let mut cached_tail = if block {
            self.send[dst].lock()
        } else {
            match self.send[dst].try_lock() {
                Some(g) => g,
                // A blocked producer holds the lock; don't pile up
                // behind it from a sweep.
                None => return PushOutcome::Full,
            }
        };
        // Producer owns head: a relaxed load reads our own last store.
        let head = ring.head.load(Ordering::Relaxed);
        if head + total as u64 - *cached_tail > ring.cap as u64 {
            let mut spins = 0u32;
            loop {
                *cached_tail = ring.tail.load(Ordering::Acquire);
                if head + total as u64 - *cached_tail <= ring.cap as u64 {
                    break;
                }
                if !block {
                    return PushOutcome::Full;
                }
                if shutdown() {
                    return PushOutcome::Shutdown;
                }
                wait();
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 256 {
                    std::thread::yield_now();
                } else {
                    // The consumer drains unless its process died — in
                    // which case shutdown arrives via the control plane
                    // and the check above fires.
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        let mut prefix = [0u8; LEN_PREFIX + FRAME_HEADER_BYTES];
        let body = (FRAME_HEADER_BYTES + payload.len()) as u32;
        prefix[..LEN_PREFIX].copy_from_slice(&body.to_le_bytes());
        prefix[LEN_PREFIX..].copy_from_slice(&header.to_bytes());
        unsafe {
            ring.write_at(head, &prefix);
            ring.write_at(head + prefix.len() as u64, payload);
        }
        ring.head.store(head + total as u64, Ordering::Release);
        drop(cached_tail);
        self.ring(dst);
        PushOutcome::Sent
    }

    /// True when a record of `len` payload bytes fits a ring (every ring
    /// has the same capacity).
    pub(crate) fn fits(&self, len: usize) -> bool {
        LEN_PREFIX + FRAME_HEADER_BYTES + len <= self.region.ring(0, 0).cap
    }

    /// Bump `pe`'s doorbell, and wake it if it is parked there.
    pub(crate) fn ring(&self, pe: usize) {
        let db = self.region.doorbell(pe);
        db.counter.fetch_add(1, Ordering::SeqCst);
        if db.waiters.load(Ordering::SeqCst) != 0 {
            crate::futex::futex_wake_all(db.counter);
        }
    }

    /// This rank's doorbell counter, read before a sweep that may be
    /// followed by a [`ShmPlane::park`].
    pub(crate) fn epoch(&self) -> u32 {
        let db = self.region.doorbell(self.rank);
        db.counter.load(Ordering::SeqCst)
    }

    /// Sleep on this rank's doorbell while it reads `epoch`, until
    /// `until` at the latest. One waiter at a time: this rank's PE, or
    /// its endpoint's teardown once the PE has exited.
    pub(crate) fn park(&self, epoch: u32, until: Instant) {
        let db = self.region.doorbell(self.rank);
        db.waiters.store(1, Ordering::SeqCst);
        let left = until.saturating_duration_since(Instant::now());
        if db.counter.load(Ordering::SeqCst) == epoch && !left.is_zero() {
            crate::futex::futex_wait(db.counter, epoch, left);
        }
        db.waiters.store(0, Ordering::SeqCst);
    }

    /// Consume one record off the `src → rank` ring, if any and if
    /// `admit` takes its header (a refused record stays where it is).
    /// `cached_head` is the consumer's amortization state for this
    /// ring (starts at the ring's tail). A record that breaks the publication
    /// contract (see the module docs) is an error naming the ring, and
    /// nothing is copied.
    fn pop(
        &self,
        src: usize,
        cached_head: &mut u64,
        admit: impl FnOnce(&FrameHeader) -> bool,
    ) -> Result<Option<(FrameHeader, MsgBlock)>, String> {
        let ring = self.region.ring(src, self.rank);
        // Consumer owns tail: relaxed reads our own last store.
        let tail = ring.tail.load(Ordering::Relaxed);
        if *cached_head == tail {
            *cached_head = ring.head.load(Ordering::Acquire);
            if *cached_head == tail {
                return Ok(None);
            }
        }
        let corrupt = |what: String| Err(format!("wire: shm ring {src} → {}: {what}", self.rank));
        // Whole-record publication: what lies between tail and head is
        // whole records, each at least a prefix long.
        let published = cached_head.wrapping_sub(tail);
        let mut prefix = [0u8; LEN_PREFIX + FRAME_HEADER_BYTES];
        if published < prefix.len() as u64 || published > ring.cap as u64 {
            return corrupt(format!("{published} bytes published at offset {tail}"));
        }
        // SAFETY: this plane is the ring's only consumer, and at least
        // `prefix.len()` bytes are published at `tail` (checked above).
        unsafe { ring.read_at(tail, &mut prefix) };
        let (len, header) = prefix.split_at(LEN_PREFIX);
        let body = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        if body < FRAME_HEADER_BYTES || (LEN_PREFIX + body) as u64 > published {
            return corrupt(format!(
                "record body of {body} bytes at offset {tail}, {published} bytes published"
            ));
        }
        let header = FrameHeader::from_bytes(header.try_into().unwrap());
        if !admit(&header) {
            return Ok(None);
        }
        let payload_len = body - FRAME_HEADER_BYTES;
        let mut block = MsgBlock::alloc(payload_len);
        if payload_len > 0 {
            // SAFETY: the only consumer, reading the record's payload:
            // `LEN_PREFIX + body` bytes are published at `tail`.
            unsafe { ring.read_at(tail + prefix.len() as u64, block.make_mut()) };
        }
        ring.tail
            .store(tail + (LEN_PREFIX + body) as u64, Ordering::Release);
        Ok(Some((header, block)))
    }

    /// Each inbound ring's cursor for [`ShmPlane::sweep`]: for every
    /// peer's ring a cached head at the ring's tail, `None` for this
    /// rank's own slot. This plane is the only writer of those tails, so
    /// a relaxed load reads its own last store, and a cursor taken after
    /// records were consumed starts where they ended.
    pub(crate) fn heads(&self) -> Vec<Option<u64>> {
        (0..self.n)
            .map(|src| {
                let ring = self.region.ring(src, self.rank);
                (src != self.rank).then(|| ring.tail.load(Ordering::Relaxed))
            })
            .collect()
    }

    /// One pass over the inbound rings: hand every record to
    /// `on_frame`, ring by ring, and leave a ring at a record `admit`
    /// refuses (the next sweep reads it again). True if any record was
    /// handed on. A ring whose record breaks the publication contract is
    /// reported to `on_corrupt` once and not read again: its head in
    /// `heads` becomes `None`.
    pub(crate) fn sweep(
        &self,
        heads: &mut [Option<u64>],
        mut admit: impl FnMut(&FrameHeader) -> bool,
        mut on_frame: impl FnMut(FrameHeader, MsgBlock),
        mut on_corrupt: impl FnMut(&str),
    ) -> bool {
        let mut got = false;
        for (src, head) in heads.iter_mut().enumerate() {
            while let Some(cached) = head.as_mut() {
                match self.pop(src, cached, &mut admit) {
                    Ok(Some((h, b))) => {
                        on_frame(h, b);
                        got = true;
                    }
                    Ok(None) => break,
                    Err(msg) => {
                        *head = None;
                        on_corrupt(&msg);
                    }
                }
            }
        }
        got
    }

    /// Drain inbound rings until `shutdown`, handing each record to
    /// `on_frame`: the PE's sweep in a loop, with `idle_spin` empty
    /// sweeps before each park. A corrupt ring panics: there is no
    /// machine to fail.
    pub fn poll_loop(
        &self,
        shutdown: &AtomicBool,
        mut on_frame: impl FnMut(FrameHeader, MsgBlock),
    ) {
        let mut heads = self.heads();
        let mut idle = 0u32;
        while !shutdown.load(Ordering::Acquire) {
            let epoch = self.epoch();
            if self.sweep(&mut heads, |_| true, &mut on_frame, |msg| panic!("{msg}")) {
                idle = 0;
            } else if idle < self.idle_spin {
                idle += 1;
                std::hint::spin_loop();
            } else {
                // Bounded: shutdown is a process-local flag no doorbell
                // rings for.
                self.park(epoch, Instant::now() + Duration::from_millis(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind;
    use proptest::prelude::*;

    /// Publish `bytes` raw on ring 0 → 1 of `region`, as a rogue
    /// producer could, without a second copy of the ring layout: they
    /// ride as the payload of a whole record, and the consumer is made
    /// to stand past the carrier's prefix. Returns the ring's head.
    fn publish_raw(region: &Arc<ShmRegion>, bytes: &[u8]) -> u64 {
        let prefix = (LEN_PREFIX + FRAME_HEADER_BYTES) as u64;
        let carrier = FrameHeader::new(kind::DATA, 0, 1, 0);
        let never = AtomicBool::new(false);
        let tx = ShmPlane::new(region.clone(), 0, 0);
        assert_eq!(tx.push(1, carrier, bytes, false, &never), PushOutcome::Sent);
        let ring = region.ring(0, 1);
        ring.tail.store(prefix, Ordering::Release);
        ring.head.load(Ordering::Acquire)
    }

    proptest! {
        /// Whatever bytes a producer publishes, a ring decodes them as
        /// the socket does: `pop` and `read_frame` over the same bytes
        /// both refuse them, or both return the same header and payload.
        #[test]
        fn a_ring_record_decodes_like_a_socket_frame(
            bytes in proptest::collection::vec(any::<u8>(), 0..=256),
            // The length prefix's claim against the bytes that follow it:
            // short of them, all of them, or past them.
            past_end in prop_oneof![Just(None), (-40i64..=8).prop_map(Some)],
        ) {
            let mut bytes = bytes;
            if let (Some(d), true) = (past_end, bytes.len() >= LEN_PREFIX) {
                let claim = (bytes.len() - LEN_PREFIX) as i64 + d;
                bytes[..LEN_PREFIX].copy_from_slice(&(claim.max(0) as u32).to_le_bytes());
            }
            let region = Arc::new(ShmRegion::create(2, 1 << 16).expect("shm region"));
            let mut head = publish_raw(&region, &bytes);
            let rx = ShmPlane::new(region, 1, 0);
            let ring = rx.pop(0, &mut head, |_| true).ok().flatten();
            let socket = converse_msg::read_frame(&mut &bytes[..]).ok().flatten();
            let read = |f: Option<(FrameHeader, MsgBlock)>| f.map(|(h, b)| (h, b.as_slice().to_vec()));
            prop_assert_eq!(read(ring), read(socket));
        }
    }

    #[test]
    fn a_sweep_leaves_a_ring_at_a_record_it_refuses() {
        let region = Arc::new(ShmRegion::create(2, 1 << 16).expect("shm region"));
        let tx = ShmPlane::new(region.clone(), 0, 0);
        let rx = ShmPlane::new(region, 1, 0);
        let never = AtomicBool::new(false);
        for k in [kind::DATA, kind::HELD, kind::DATA] {
            let h = FrameHeader::new(k, 0, 1, 0);
            assert_eq!(tx.push(1, h, b"x", false, &never), PushOutcome::Sent);
        }
        let mut heads = rx.heads();
        let mut got = Vec::new();
        let mut sweep = |open: bool| {
            rx.sweep(
                &mut heads,
                |h| open || h.kind != kind::HELD,
                |h, _| got.push(h.kind),
                |msg| panic!("{msg}"),
            )
        };
        assert!(sweep(false));
        assert!(!sweep(false), "the refused record is still there");
        assert!(sweep(true));
        assert_eq!(got, [kind::DATA, kind::HELD, kind::DATA]);
    }

    #[test]
    fn poll_loop_can_be_entered_again_after_it_consumed_records() {
        let region = Arc::new(ShmRegion::create(2, 1 << 16).expect("shm region"));
        let tx = ShmPlane::new(region.clone(), 0, 0);
        let rx = ShmPlane::new(region, 1, 0);
        let never = AtomicBool::new(false);
        for seq in 0..2 {
            let h = FrameHeader::new(kind::DATA, 0, 1, seq);
            assert_eq!(tx.push(1, h, b"x", false, &never), PushOutcome::Sent);
            let done = AtomicBool::new(false);
            let mut got = Vec::new();
            rx.poll_loop(&done, |h, b| {
                got.push((h.seq, b.as_slice().to_vec()));
                done.store(true, Ordering::Release);
            });
            assert_eq!(got, [(seq, b"x".to_vec())]);
        }
    }

    #[test]
    fn a_corrupt_ring_is_reported_once_and_the_others_still_drain() {
        let region = Arc::new(ShmRegion::create(3, 1 << 16).expect("shm region"));
        let never = AtomicBool::new(false);
        let data = |src| FrameHeader::new(kind::DATA, src, 2, 0);
        // One whole record on ring 0 → 2, then a head that ends inside
        // the next one, as a rogue producer could publish.
        let rogue = ShmPlane::new(region.clone(), 0, 0);
        assert_eq!(
            rogue.push(2, data(0), b"", false, &never),
            PushOutcome::Sent
        );
        region.ring(0, 2).head.fetch_add(10, Ordering::Release);
        let healthy = ShmPlane::new(region.clone(), 1, 0);
        let rx = ShmPlane::new(region, 2, 0);
        let (mut frames, mut reports) = (Vec::new(), Vec::new());
        let mut heads = rx.heads();
        std::thread::scope(|s| {
            // Arrives after the consumer has swept the bad ring many times.
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(
                    healthy.push(2, data(1), b"", true, &never),
                    PushOutcome::Sent
                );
            });
            while !frames.contains(&1) {
                rx.sweep(
                    &mut heads,
                    |_| true,
                    |h, _| frames.push(h.src),
                    |msg| reports.push(msg.to_string()),
                );
            }
        });
        assert_eq!(frames, [0, 1]);
        assert_eq!(reports.len(), 1, "reported {} times", reports.len());
        assert_eq!(
            reports[0],
            "wire: shm ring 0 → 2: 10 bytes published at offset 26"
        );
    }

    #[test]
    fn a_record_whose_length_lies_is_refused_before_any_copy() {
        const CAP: usize = 1 << 16;
        let prefix = LEN_PREFIX + FRAME_HEADER_BYTES;
        // The prefix counts the frame header and the payload; each lying
        // record has a prefix and a header, nothing more.
        for (body, lie) in [
            (0, "no header"),
            (21, "a short header"),
            (CAP as u32 + 1, "more than the ring holds"),
            (prefix as u32 + 100, "more than was published"),
        ] {
            let region = Arc::new(ShmRegion::create(2, CAP).expect("shm region"));
            let mut record = body.to_le_bytes().to_vec();
            record.resize(prefix, 0);
            let mut head = publish_raw(&region, &record);
            let ring = region.ring(0, 1);
            let rx = ShmPlane::new(region.clone(), 1, 0);
            assert_eq!(
                rx.pop(0, &mut head, |_| true).map(|r| r.is_some()),
                Err(format!(
                    "wire: shm ring 0 → 1: record body of {body} bytes at offset {prefix}, \
                     {prefix} bytes published"
                )),
                "{lie}"
            );
            assert_eq!(ring.tail.load(Ordering::Acquire), prefix as u64, "{lie}");
        }
    }

    #[test]
    fn a_corrupt_ring_fails_the_machine_end_to_end() {
        use crate::{HubFailure, WireEndpoint, WireHub};
        use converse_msg::{read_frame, write_frame};
        use converse_net::CmiTransport;
        let hub = WireHub::bind(2).expect("bind hub");
        let addr = hub.addr().to_string();
        let region = Arc::new(ShmRegion::create(2, 1 << 16).expect("shm region"));
        // Rank 1 is a bare socket: HELLO, then hold on until torn down.
        let raw_addr = addr.clone();
        let raw = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(raw_addr).expect("raw connect");
            write_frame(&mut s, FrameHeader::new(kind::HELLO, 1, 0, 0), b"").expect("hello");
            while let Ok(Some(_)) = read_frame(&mut s) {}
        });
        let plane = ShmPlane::new(region.clone(), 0, 0);
        let real = std::thread::spawn(move || {
            let ep = WireEndpoint::connect(
                0,
                2,
                &addr,
                converse_net::DeliveryMode::Fifo,
                None,
                Arc::new(converse_trace::NullSink),
                Some(plane),
            )
            .expect("connect");
            // Rank 1 → 0 publishes less than a record's prefix.
            region.ring(1, 0).head.store(10, Ordering::Release);
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while ep.aborted().is_none() {
                if std::time::Instant::now() >= deadline {
                    // End the hub's run, which would otherwise wait on.
                    ep.send_abort("no abort within 2 s");
                    return None;
                }
                // Waiting on the mailbox sweeps the rings, as a PE does.
                ep.local().recv_timeout(0, Duration::from_millis(5));
            }
            assert!(
                ep.local().is_closed(),
                "a failed machine closes the mailbox"
            );
            ep.aborted()
        });
        let want = "wire: shm ring 1 → 0: 10 bytes published at offset 0";
        match hub.run(|| None) {
            Err(HubFailure::Panicked { rank: 0, msg }) => assert_eq!(msg, want),
            other => panic!("the launcher must hear what failed, got {other:?}"),
        }
        assert_eq!(real.join().expect("endpoint thread").as_deref(), Some(want));
        raw.join().expect("raw peer");
    }
}
