//! The CMI transport abstraction.
//!
//! The paper's portability claim rests on the machine interface being a
//! narrow waist: everything above it (scheduler, threads, languages)
//! talks to the wire through one small surface, so swapping the wire
//! never touches the layers above. [`CmiTransport`] is that surface in
//! this runtime, and it holds only **what differs between wires** — how
//! a block, an injected request, a stall or a steal request reaches
//! another rank. Everything a PE does on its own side of the wire
//! (drain, park, depth, clock, close, stall windows, the load board,
//! traffic counters) is the same code on every transport: the
//! transport's **local half**, a concrete [`Interconnect`] it hands out
//! once through [`CmiTransport::local`]. Three implementations exist:
//!
//! * [`Interconnect`] itself — the in-process machine (threads sharing
//!   one address space); it is its own local half.
//! * `converse_wire::WireEndpoint`, twice — one PE per OS process,
//!   frames over a real socket (`"socket"`) or through shared-memory
//!   rings (`"shmring"`); its local half is a private `Interconnect`
//!   whose only live mailbox is the endpoint's own rank.
//!
//! The trait is object-safe on purpose: a `Pe` holds an
//! `Arc<dyn CmiTransport>` for its sends and never knows which wire it
//! is on. In another process's address space a local half can only
//! observe its own rank: a remote PE reads as empty, idle and not
//! stalled ([`CmiTransport::shared_memory`] says which case holds), so
//! callers get a conservative answer, never a wrong protocol.

use crate::{Channel, FaultStats, Interconnect};
use converse_msg::MsgBlock;
use std::time::{Duration, Instant};

/// Arrivals the local PE pulls off a wire with no receive thread, as the
/// paper's scheduler pulls from the network (`CmiDeliverMsgs`). Installed
/// with [`Interconnect::set_source`]; the PE sweeps it when a drain leaves
/// its batch short ([`Interconnect::refill`]) and before each look
/// while it waits, and parks on the source's doorbell, not the condvar.
pub trait PolledSource: Send + Sync {
    /// Move everything that has arrived into the local mailbox. `None`
    /// if anything moved (or another thread is sweeping right now);
    /// otherwise the doorbell's value read before the sweep, to park on:
    /// whatever lands after that read moves the doorbell on.
    fn sweep(&self) -> Option<u32>;
    /// Sleep while the doorbell reads `epoch`, until `until` at the latest.
    fn park(&self, epoch: u32, until: Instant);
    /// Move the doorbell on and wake a parked PE.
    fn wake(&self);
}

/// The machine-interface transport contract: what a new wire implements.
///
/// All methods take explicit PE indices because the in-process transport
/// serves every PE from one object; a distributed endpoint serves
/// exactly one local PE (`src` / `thief` is always its own rank).
pub trait CmiTransport: Send + Sync {
    /// The local half: mailboxes, clock, close flag, stall windows, load
    /// board and traffic counters of the PEs in this address space. A
    /// `Pe` keeps it ([`Interconnect::arc`]) and calls it directly for
    /// everything that does not cross to another rank.
    fn local(&self) -> &Interconnect;

    /// Deliver `block` from `src` into `dst`'s mailbox on `channel`; the
    /// channel's [`Channel::delivery`] guarantee governs loss,
    /// duplication, and supersession, identically on every transport
    /// (the conformance suite keeps them from drifting). Counted against
    /// `src` in the local half's send counters. Never blocks.
    fn send_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel);

    /// Broadcast on the default channel to every PE, `src` itself only
    /// if `include_src` (`CmiSyncBroadcast` / `CmiSyncBroadcastAll`).
    /// The **allocation contract is per-transport**: with
    /// [`CmiTransport::shared_memory`] all packets alias one buffer (one
    /// allocation plus refcount bumps); across processes each remote
    /// destination necessarily receives its own copy off the wire.
    fn broadcast(&self, src: usize, block: MsgBlock, include_src: bool) {
        for dst in 0..self.local().num_pes() {
            if include_src || dst != src {
                self.send_on(src, dst, block.share(), Channel::DEFAULT);
            }
        }
    }

    /// Deliver a block into `dst`'s mailbox from *outside* the machine
    /// (external front-ends such as CCS). Counted as injected traffic at
    /// `dst`, not as a send.
    fn inject(&self, dst: usize, block: MsgBlock);

    /// Arm a stall window for `pe` covering the next `dur`. A remote
    /// target is routed over the wire (best-effort, asynchronous
    /// arming).
    fn stall_for(&self, pe: usize, dur: Duration);

    /// Move up to `max` stealable packets `victim` has not drained yet
    /// into `thief`'s mailbox, returning how many moved *synchronously*.
    /// Shared-memory transports steal in place; distributed transports
    /// send an asynchronous steal request over the wire and return 0 —
    /// donated packets arrive later as ordinary deliveries. Either way
    /// the arrival stamps [`Interconnect::mark_steal_splice`].
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize;

    /// True when every PE of the machine lives in the local half's
    /// address space: a broadcast shares one allocation, and a remote
    /// PE's row of [`Interconnect::load_snapshot`] reflects its real
    /// state. False when other ranks are other processes: they receive
    /// copies, their rows read zero, and balancers fall back to gossiped
    /// samples and thieves to a rotating victim.
    fn shared_memory(&self) -> bool;

    /// Aggregate fault-plane and reliability counters (the local
    /// process's view on a distributed transport; the run harness sums
    /// the per-rank reports at teardown).
    fn fault_stats(&self) -> FaultStats;

    /// Short name for diagnostics and traces: `"inproc"`, `"socket"`
    /// or `"shmring"`.
    fn name(&self) -> &'static str;
}

impl CmiTransport for Interconnect {
    #[inline]
    fn local(&self) -> &Interconnect {
        self
    }

    #[inline]
    fn send_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel) {
        Self::send_on(self, src, dst, block, channel);
    }

    /// Pre-stages every share before the first append (see
    /// `Interconnect::broadcast_to`).
    fn broadcast(&self, src: usize, block: MsgBlock, include_src: bool) {
        self.broadcast_to(src, block, include_src);
    }

    fn inject(&self, dst: usize, block: MsgBlock) {
        Self::inject(self, dst, block);
    }

    fn stall_for(&self, pe: usize, dur: Duration) {
        Self::stall_for(self, pe, dur)
    }

    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        Self::steal_from(self, victim, thief, max)
    }

    fn shared_memory(&self) -> bool {
        true
    }

    fn fault_stats(&self) -> FaultStats {
        self.fstats.snapshot()
    }

    fn name(&self) -> &'static str {
        "inproc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delivery, FaultPlan, LinkFaults};
    use std::sync::Arc;

    #[test]
    fn interconnect_serves_the_trait_surface() {
        let plan = FaultPlan::new(3).faults(LinkFaults {
            dup: 1.0,
            ..LinkFaults::default()
        });
        let net = Interconnect::with_config(3, crate::DeliveryMode::Fifo, Some(plan), None);
        let t: Arc<dyn CmiTransport> = net.clone();
        assert_eq!(t.name(), "inproc");
        assert!(t.shared_memory(), "every PE shares the local half");
        assert!(
            Arc::ptr_eq(&t.local().arc(), &net),
            "it is its own local half"
        );
        let recv = |pe| t.local().recv_timeout(pe, Duration::from_secs(10));

        let qos = Channel::new(3, Delivery::AtMostOnce);
        t.send_on(0, 1, MsgBlock::copy_from(b"via trait"), Channel::DEFAULT);
        t.send_on(0, 1, MsgBlock::copy_from(b"qos"), qos);
        let p = recv(1).expect("delivered");
        assert_eq!(
            (p.src, p.bytes(), p.channel),
            (0, &b"via trait"[..], Channel::DEFAULT)
        );
        assert_eq!(recv(1).expect("qos channel delivered").channel, qos);

        // One allocation, every destination aliases it.
        let block = MsgBlock::copy_from(b"b");
        let ptr = block.as_ptr();
        t.broadcast(0, block.share(), false);
        t.broadcast(0, block, true);
        for (pe, copies) in [(0, 1), (1, 2), (2, 2)] {
            for _ in 0..copies {
                assert_eq!(recv(pe).expect("broadcast").block.as_ptr(), ptr);
            }
        }

        t.inject(2, MsgBlock::copy_from(b"outside"));
        assert_eq!(recv(2).expect("injected").src, 2);
        let traffic = |pe| t.local().traffic(pe);
        assert_eq!(traffic(0).msgs_sent, 7, "2 sends + 2 + 3 broadcast copies");
        assert_eq!((traffic(2).msgs_sent, traffic(2).msgs_injected), (0, 1));
        assert!(t.fault_stats().duplicated > 0, "the plan's counters show");

        // A steal moves flagged undrained packets and stamps the splice.
        let mut work = converse_msg::Message::new(converse_msg::HandlerId(1), b"w");
        work.mark_stealable();
        t.send_on(0, 1, MsgBlock::copy_from(b"drained"), Channel::DEFAULT);
        t.send_on(0, 1, work.into_block(), Channel::DEFAULT);
        let mut out = std::collections::VecDeque::new();
        assert_eq!(t.local().drain_into_bounded(1, &mut out, 1), 1);
        assert_eq!(t.local().take_steal_mark(2), 0);
        assert_eq!(t.steal_from(1, 2, 8), 1);
        assert_ne!(t.local().take_steal_mark(2), 0);
        assert_eq!(t.local().take_steal_mark(2), 0, "taken and cleared");

        t.stall_for(2, Duration::from_secs(60));
        assert!(t.local().stalled(2));
        assert!(t.local().load_snapshot()[2].stalled);
        t.local().close();
        assert!(t.local().is_closed() && !t.local().stalled(2));
    }
}
