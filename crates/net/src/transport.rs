//! The CMI transport abstraction.
//!
//! The paper's portability claim rests on the machine interface being a
//! narrow waist: everything above it (scheduler, threads, languages)
//! talks to the wire through one small surface, so swapping the wire
//! never touches the layers above. [`CmiTransport`] is that surface in
//! this runtime. Two implementations exist:
//!
//! * [`crate::Interconnect`] — the in-process machine (threads sharing
//!   one address space, mailboxes in memory, the fast/test path).
//! * `converse_wire::WireEndpoint` — one PE per OS process, frames over
//!   real sockets (TCP loopback or Unix-domain), the production-shape
//!   path.
//!
//! The trait is object-safe on purpose: a `Pe` holds an
//! `Arc<dyn CmiTransport>` and never knows which wire it is on. Methods
//! that are inherently *shared-memory observations* — another PE's load
//! snapshot, a remote stall probe — are allowed to degrade on
//! distributed transports (documented per method): callers get a
//! conservative answer, never a wrong protocol.

use crate::{Channel, FaultStats, Packet, PeLoad, PeTraffic};
use converse_msg::MsgBlock;
use std::collections::VecDeque;
use std::time::Duration;

/// The machine-interface transport contract: what one PE needs from the
/// wire. Implemented by the in-process [`crate::Interconnect`] and by
/// the multi-process socket endpoint in `converse-wire`.
///
/// All methods take explicit PE indices because the in-process transport
/// serves every PE from one object; a distributed endpoint serves
/// exactly one local PE and either degrades (read-only probes of remote
/// PEs) or routes through the wire (remote `stall_for`).
pub trait CmiTransport: Send + Sync {
    /// Number of processors in the machine (`CmiNumPe`).
    fn num_pes(&self) -> usize;

    /// Time since the machine booted — the base for `CmiTimer`. On a
    /// distributed transport each process measures from its own boot;
    /// the startup barrier keeps the skew to connection-setup time.
    fn uptime(&self) -> Duration;

    /// Deliver `block` from `src` into `dst`'s mailbox on the default
    /// (exactly-once) channel. Never blocks.
    fn send_block(&self, src: usize, dst: usize, block: MsgBlock);

    /// Deliver `block` from `src` into `dst`'s mailbox on an explicit
    /// delivery channel; the channel's [`Channel::delivery`] guarantee
    /// governs loss, duplication, and supersession. Both transports
    /// honor the same per-channel semantics (the conformance suite
    /// keeps them from drifting). Never blocks.
    fn send_block_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel);

    /// Deliver a block into `dst`'s mailbox from *outside* the machine
    /// (external front-ends such as CCS). Counted as injected traffic,
    /// not as a send.
    fn inject_block(&self, dst: usize, block: MsgBlock);

    /// Broadcast to every PE except `src` (`CmiSyncBroadcast` shape).
    /// The **allocation contract is per-transport**: in-process this is
    /// one allocation plus P−1 refcount bumps (all packets alias one
    /// buffer); across processes each remote destination necessarily
    /// receives its own copy off the wire. Assert against
    /// [`CmiTransport::broadcast_zero_copy`], never a hard-coded count.
    fn broadcast_excl_block(&self, src: usize, block: MsgBlock);

    /// Broadcast to every PE including `src`; same contract note as
    /// [`CmiTransport::broadcast_excl_block`].
    fn broadcast_all_block(&self, src: usize, block: MsgBlock);

    /// True when a P-way broadcast on this transport shares one
    /// allocation (refcount bumps only). False when destinations in
    /// other address spaces receive copies.
    fn broadcast_zero_copy(&self) -> bool;

    /// Batched receive: move up to `max` queued packets for `pe` into
    /// `out` (preserving delivery order), returning how many moved.
    fn drain_bounded(&self, pe: usize, out: &mut VecDeque<Packet>, max: usize) -> usize;

    /// Blocking receive with timeout; `None` on timeout or once the
    /// machine has closed and the mailbox drained.
    fn recv_timeout(&self, pe: usize, timeout: Duration) -> Option<Packet>;

    /// Spin-then-park idle wait; returns spin iterations consumed
    /// (== `spin` when the call parked).
    fn wait_nonempty_spin(&self, pe: usize, timeout: Duration, spin: u32) -> u32;

    /// Queued (undelivered) packet count for `pe`. Distributed
    /// transports answer only for their local PE (0 for remote ranks).
    fn pending(&self, pe: usize) -> usize;

    /// True while `pe` sits inside a stall window. Distributed
    /// transports can only observe their local PE; remote ranks read as
    /// not stalled.
    fn stalled(&self, pe: usize) -> bool;

    /// Arm a stall window for `pe` covering the next `dur`. On a
    /// distributed transport a remote target is routed over the wire
    /// (best-effort, asynchronous arming).
    fn stall_for(&self, pe: usize, dur: Duration);

    /// Mark the machine closed and wake all blocked receivers.
    fn close(&self);

    /// True once [`CmiTransport::close`] has run.
    fn is_closed(&self) -> bool;

    /// Traffic counters for `pe`. Distributed transports answer only
    /// for their local PE (zeros for remote ranks); the run harness
    /// aggregates authoritative per-rank counters at teardown.
    fn traffic(&self, pe: usize) -> PeTraffic;

    /// Aggregate fault-plane and reliability counters (local process's
    /// view on a distributed transport).
    fn fault_stats(&self) -> FaultStats;

    /// Short name for diagnostics and traces: `"inproc"`, `"socket"`
    /// or `"shmring"`.
    fn transport_name(&self) -> &'static str;

    /// Publish `pe`'s own scheduler load sample (run-queue depth, EMA
    /// busy fraction in per-mille) for other PEs — and the CCS monitor —
    /// to read back through [`CmiTransport::load_of`]. No-op on
    /// transports without a shared load board.
    fn publish_load(&self, pe: usize, run_queue: usize, occupancy_pm: u32) {
        let _ = (pe, run_queue, occupancy_pm);
    }

    /// True when [`CmiTransport::load_of`] of a *remote* PE reflects its
    /// real state. Shared-memory transports see everything; distributed
    /// transports degrade remote reads to zeros, so balancers there must
    /// fall back to gossiped samples.
    fn remote_load_visible(&self) -> bool {
        false
    }

    /// Move up to `max` stealable packets from `victim`'s staged list
    /// into `thief`'s mailbox, returning how many moved *synchronously*.
    /// Shared-memory transports steal in place; distributed transports
    /// send an asynchronous steal request over the wire and return 0 —
    /// donated packets arrive later as ordinary deliveries.
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        let _ = (victim, thief, max);
        0
    }

    /// Take-and-clear `pe`'s steal splice mark: the uptime nanosecond
    /// at which the oldest not-yet-measured donated batch entered
    /// `pe`'s mailbox, or 0 when none is pending. The scheduler reads
    /// this to time splice→first-run steal latency; transports that
    /// never splice keep the default 0.
    fn take_steal_mark(&self, pe: usize) -> u64 {
        let _ = pe;
        0
    }

    /// Live load view of one PE: traffic counters, mailbox depth, the
    /// staged (stealable) share of it, the sample `pe` last published
    /// via [`CmiTransport::publish_load`], and its stall state.
    /// Distributed transports degrade for remote ranks: counters and
    /// depth read zero, stalled reads false.
    fn load_of(&self, pe: usize) -> PeLoad;

    /// Snapshot of every PE's load, in PE order (same degrade note as
    /// [`CmiTransport::load_of`]).
    fn load_snapshot(&self) -> Vec<PeLoad> {
        (0..self.num_pes()).map(|pe| self.load_of(pe)).collect()
    }
}

impl CmiTransport for crate::Interconnect {
    #[inline]
    fn num_pes(&self) -> usize {
        Self::num_pes(self)
    }

    #[inline]
    fn uptime(&self) -> Duration {
        Self::uptime(self)
    }

    #[inline]
    fn send_block(&self, src: usize, dst: usize, block: MsgBlock) {
        self.send(src, dst, block);
    }

    #[inline]
    fn send_block_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel) {
        self.send_on(src, dst, block, channel);
    }

    #[inline]
    fn inject_block(&self, dst: usize, block: MsgBlock) {
        self.inject(dst, block);
    }

    #[inline]
    fn broadcast_excl_block(&self, src: usize, block: MsgBlock) {
        self.broadcast_excl(src, block);
    }

    #[inline]
    fn broadcast_all_block(&self, src: usize, block: MsgBlock) {
        self.broadcast_all(src, block);
    }

    fn broadcast_zero_copy(&self) -> bool {
        true
    }

    #[inline]
    fn drain_bounded(&self, pe: usize, out: &mut VecDeque<Packet>, max: usize) -> usize {
        self.drain_into_bounded(pe, out, max)
    }

    #[inline]
    fn recv_timeout(&self, pe: usize, timeout: Duration) -> Option<Packet> {
        Self::recv_timeout(self, pe, timeout)
    }

    #[inline]
    fn wait_nonempty_spin(&self, pe: usize, timeout: Duration, spin: u32) -> u32 {
        Self::wait_nonempty_spin(self, pe, timeout, spin)
    }

    #[inline]
    fn pending(&self, pe: usize) -> usize {
        Self::pending(self, pe)
    }

    #[inline]
    fn stalled(&self, pe: usize) -> bool {
        Self::stalled(self, pe)
    }

    #[inline]
    fn stall_for(&self, pe: usize, dur: Duration) {
        Self::stall_for(self, pe, dur)
    }

    #[inline]
    fn close(&self) {
        Self::close(self)
    }

    #[inline]
    fn is_closed(&self) -> bool {
        Self::is_closed(self)
    }

    #[inline]
    fn traffic(&self, pe: usize) -> PeTraffic {
        Self::traffic(self, pe)
    }

    #[inline]
    fn fault_stats(&self) -> FaultStats {
        Self::fault_stats(self)
    }

    fn transport_name(&self) -> &'static str {
        "inproc"
    }

    #[inline]
    fn publish_load(&self, pe: usize, run_queue: usize, occupancy_pm: u32) {
        Self::publish_load(self, pe, run_queue, occupancy_pm)
    }

    fn remote_load_visible(&self) -> bool {
        true
    }

    #[inline]
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        Self::steal_from(self, victim, thief, max)
    }

    #[inline]
    fn take_steal_mark(&self, pe: usize) -> u64 {
        Self::take_steal_mark(self, pe)
    }

    fn load_of(&self, pe: usize) -> PeLoad {
        Self::load_of(self, pe)
    }

    fn load_snapshot(&self) -> Vec<PeLoad> {
        Self::load_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interconnect;
    use std::sync::Arc;

    #[test]
    fn interconnect_serves_the_trait_surface() {
        let net = Interconnect::new(2);
        let t: Arc<dyn CmiTransport> = net;
        assert_eq!(t.num_pes(), 2);
        assert_eq!(t.transport_name(), "inproc");
        assert!(t.broadcast_zero_copy());
        t.send_block(0, 1, MsgBlock::copy_from(b"via trait"));
        let p = t.recv_timeout(1, Duration::ZERO).expect("delivered");
        assert_eq!(p.src, 0);
        assert_eq!(p.bytes(), b"via trait");
        assert_eq!(p.channel, Channel::DEFAULT);
        let qos = Channel::new(3, crate::Delivery::AtMostOnce);
        t.send_block_on(0, 1, MsgBlock::copy_from(b"qos"), qos);
        let p = t
            .recv_timeout(1, Duration::ZERO)
            .expect("qos channel delivered");
        assert_eq!(p.channel, qos);
        t.broadcast_all_block(0, MsgBlock::copy_from(b"b"));
        let mut out = VecDeque::new();
        assert_eq!(t.drain_bounded(0, &mut out, 8), 1);
        assert_eq!(t.drain_bounded(1, &mut out, 8), 1);
        assert_eq!(t.load_snapshot().len(), 2);
        assert_eq!(t.traffic(0).msgs_sent, 4);
        t.close();
        assert!(t.is_closed());
    }
}
