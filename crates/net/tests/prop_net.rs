//! Property tests for the simulated interconnect and its link protocol.

use converse_net::{CmiTransport, DeliveryMode, FaultPlan, Interconnect};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    Send { src: usize, dst: usize, len: usize },
    Recv { pe: usize },
    BroadcastExcl { src: usize },
    BroadcastAll { src: usize },
}

fn arb_op(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..n, 0..n, 0usize..64).prop_map(|(src, dst, len)| Op::Send { src, dst, len }),
        4 => (0..n).prop_map(|pe| Op::Recv { pe }),
        1 => (0..n).prop_map(|src| Op::BroadcastExcl { src }),
        1 => (0..n).prop_map(|src| Op::BroadcastAll { src }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation: every byte sent is received exactly once, no matter
    /// the interleaving; per-(src,dst) FIFO order holds in Fifo mode.
    #[test]
    fn conservation_and_pair_fifo(ops in proptest::collection::vec(arb_op(4), 0..200)) {
        let n = 4;
        let net = Interconnect::new(n);
        // Model: per (src,dst) queue of payload stamps.
        let mut model: HashMap<(usize, usize), Vec<Vec<u8>>> = HashMap::new();
        let mut stamp = 0u64;
        for op in ops {
            match op {
                Op::Send { src, dst, len } => {
                    stamp += 1;
                    let mut bytes = stamp.to_le_bytes().to_vec();
                    bytes.extend(std::iter::repeat_n(0u8, len));
                    net.send(src, dst, bytes.clone());
                    model.entry((src, dst)).or_default().push(bytes);
                }
                Op::BroadcastExcl { src } => {
                    stamp += 1;
                    let bytes = stamp.to_le_bytes().to_vec();
                    net.broadcast(src, bytes.clone().into(), false);
                    for dst in 0..n {
                        if dst != src {
                            model.entry((src, dst)).or_default().push(bytes.clone());
                        }
                    }
                }
                Op::BroadcastAll { src } => {
                    stamp += 1;
                    let bytes = stamp.to_le_bytes().to_vec();
                    net.broadcast(src, bytes.clone().into(), true);
                    for dst in 0..n {
                        model.entry((src, dst)).or_default().push(bytes.clone());
                    }
                }
                Op::Recv { pe } => {
                    match net.try_recv(pe) {
                        Some(p) => {
                            // Must be the FIFO head of its (src, pe) lane.
                            let lane = model.get_mut(&(p.src, pe)).expect("lane exists");
                            prop_assert!(!lane.is_empty());
                            let expect = lane.remove(0);
                            prop_assert_eq!(p.bytes(), &expect[..]);
                        }
                        None => {
                            // Model must agree nothing is pending for pe.
                            let pending: usize =
                                model.iter().filter(|((_, d), _)| *d == pe).map(|(_, v)| v.len()).sum();
                            prop_assert_eq!(pending, 0);
                        }
                    }
                }
            }
        }
        // Drain everything left and check totals per PE.
        for pe in 0..n {
            let mut remaining: usize =
                model.iter().filter(|((_, d), _)| *d == pe).map(|(_, v)| v.len()).sum();
            prop_assert_eq!(net.pending(pe), remaining);
            while let Some(p) = net.try_recv(pe) {
                let lane = model.get_mut(&(p.src, pe)).expect("lane");
                let expect = lane.remove(0);
                prop_assert_eq!(p.bytes(), &expect[..]);
                remaining -= 1;
            }
            prop_assert_eq!(remaining, 0);
        }
    }

    /// Reorder mode delivers the same multiset, whatever the seed.
    #[test]
    fn reorder_preserves_multiset(seed in any::<u64>(), window in 1usize..16, count in 0usize..120) {
        let net = Interconnect::with_config(2, DeliveryMode::Reorder { seed, window }, None, None);
        for i in 0..count {
            net.send(0, 1, (i as u64).to_le_bytes().to_vec());
        }
        let mut got: Vec<u64> = Vec::new();
        while let Some(p) = net.try_recv(1) {
            got.push(u64::from_le_bytes(p.bytes().try_into().unwrap()));
        }
        got.sort_unstable();
        prop_assert_eq!(got, (0..count as u64).collect::<Vec<_>>());
    }

    /// Traffic counters agree with actual activity.
    #[test]
    fn traffic_counters_accurate(sends in proptest::collection::vec((0usize..3, 0usize..3, 0usize..32), 0..60)) {
        let net = Interconnect::new(3);
        let mut sent_msgs = [0u64; 3];
        let mut sent_bytes = [0u64; 3];
        for (src, dst, len) in &sends {
            net.send(*src, *dst, vec![0u8; *len]);
            sent_msgs[*src] += 1;
            sent_bytes[*src] += *len as u64;
        }
        for pe in 0..3 {
            let t = net.traffic(pe);
            prop_assert_eq!(t.msgs_sent, sent_msgs[pe]);
            prop_assert_eq!(t.bytes_sent, sent_bytes[pe]);
        }
    }

    /// Aliasing safety of shared blocks: broadcasts under adversarial
    /// reordering still deliver bit-identical payloads to every PE, even
    /// with unicast noise interleaved and with the sender's own handle
    /// kept alive — sharing one allocation must never let one receiver's
    /// traffic corrupt another's view.
    #[test]
    fn reorder_broadcast_delivers_identical_shared_payloads(
        seed in any::<u64>(),
        window in 1usize..16,
        rounds in 1usize..12,
        noise in 0usize..8,
    ) {
        let n = 5;
        let net = Interconnect::with_config(n, DeliveryMode::Reorder { seed, window }, None, None);
        let mut kept: Vec<converse_msg::MsgBlock> = Vec::new();
        for r in 0..rounds {
            // Distinctive payload per round; tail encodes the round.
            let mut payload = vec![r as u8; 64];
            payload[..8].copy_from_slice(&(r as u64).to_le_bytes());
            let block = converse_msg::MsgBlock::copy_from(&payload);
            for k in 0..noise {
                net.send(r % n, (r + k) % n, vec![0xEE; 16]);
            }
            net.broadcast(r % n, block.share(), true);
            kept.push(block);
        }
        // Every PE sees every round's broadcast, bit-identical, aliasing
        // the sender's retained block.
        for pe in 0..n {
            let mut seen = vec![false; rounds];
            while let Some(p) = net.try_recv(pe) {
                if p.bytes().len() == 16 {
                    prop_assert!(p.bytes().iter().all(|&b| b == 0xEE));
                    continue;
                }
                let r = u64::from_le_bytes(p.bytes()[..8].try_into().unwrap()) as usize;
                prop_assert_eq!(p.bytes(), kept[r].as_slice());
                prop_assert_eq!(p.block.as_ptr(), kept[r].as_ptr());
                prop_assert!(!seen[r], "duplicate broadcast delivery");
                seen[r] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "PE {} missed a broadcast", pe);
        }
    }
}

proptest! {
    // Fewer cases than the in-memory tests above: every case exercises
    // real retransmission timing, so each runs for wall-clock time.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee, as a property: for **any** seed, any
    /// drop rate < 1, any dup/delay mix and any message set, the
    /// reliability sublayer delivers every payload **exactly once and
    /// in per-link order**. On failure proptest prints the shrunk
    /// inputs — including `seed`, which replays the exact adversarial
    /// schedule (see docs/API.md).
    #[test]
    fn reliability_masks_any_fault_plan(
        seed in any::<u64>(),
        drop_pct in 0u32..85,
        dup_pct in 0u32..50,
        delay_pct in 0u32..50,
        slots in 0usize..4,
        fwd in 0usize..40,
        rev in 0usize..40,
    ) {
        let plan = FaultPlan::lossy(seed, drop_pct as f64 / 100.0, dup_pct as f64 / 100.0, delay_pct as f64 / 100.0, slots);
        let net = Interconnect::with_config(2, DeliveryMode::Fifo, Some(plan), None);
        for i in 0..fwd {
            net.send(0, 1, (i as u64).to_le_bytes().to_vec());
        }
        for i in 0..rev {
            net.send(1, 0, (i as u64).to_le_bytes().to_vec());
        }
        for (pe, count) in [(1usize, fwd), (0usize, rev)] {
            for want in 0..count as u64 {
                let p = net
                    .recv_timeout(pe, Duration::from_secs(10))
                    .expect("reliability layer lost a message");
                prop_assert_eq!(p.src, 1 - pe);
                prop_assert_eq!(
                    u64::from_le_bytes(p.bytes().try_into().unwrap()),
                    want,
                    "out-of-order or duplicated delivery on link {} → {}",
                    1 - pe, pe
                );
            }
            // Exactly once is structural: the receive watermark admits
            // each sequence number into the mailbox at most once, so
            // with the full set drained nothing more may ever surface.
            prop_assert!(net.try_recv(pe).is_none(), "extra delivery on PE {}", pe);
        }
        net.close();
    }

    /// Batched drain under the adversarial wire: for the CI seed set
    /// {1, 7, 1996} (the same matrix the chaos job runs) and any
    /// drop/dup/delay mix, pulling mail through `drain_into_bounded`
    /// with an arbitrary batch bound yields every payload **exactly
    /// once, in per-link FIFO order** — taking a batch off the front of
    /// the mailbox's one list must not let the reliability sublayer's
    /// guarantees slip, whatever boundary a batch happens to cut.
    #[test]
    fn batched_drain_exactly_once_fifo_under_faults(
        seed in prop_oneof![Just(1u64), Just(7u64), Just(1996u64)],
        drop_pct in 0u32..70,
        dup_pct in 0u32..40,
        delay_pct in 0u32..40,
        slots in 0usize..4,
        count in 1usize..50,
        bound in 1usize..17,
    ) {
        let plan = FaultPlan::lossy(seed, drop_pct as f64 / 100.0, dup_pct as f64 / 100.0, delay_pct as f64 / 100.0, slots);
        // Two senders fan into PE 2, so batches interleave two links.
        let net = Interconnect::with_config(3, DeliveryMode::Fifo, Some(plan), None);
        for i in 0..count {
            net.send(0, 2, (i as u64).to_le_bytes().to_vec());
            net.send(1, 2, (i as u64).to_le_bytes().to_vec());
        }
        let total = 2 * count;
        let mut got: Vec<converse_net::Packet> = Vec::with_capacity(total);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got.len() < total {
            prop_assert!(
                std::time::Instant::now() < deadline,
                "batched drain lost a message: {}/{}", got.len(), total
            );
            if net.drain_into_bounded(2, &mut got, bound) == 0 {
                net.wait_nonempty(2, Duration::from_millis(2), 0);
            }
        }
        for src in [0usize, 1] {
            let lane: Vec<u64> = got
                .iter()
                .filter(|p| p.src == src)
                .map(|p| u64::from_le_bytes(p.bytes().try_into().unwrap()))
                .collect();
            prop_assert_eq!(
                lane,
                (0..count as u64).collect::<Vec<_>>(),
                "link {} → 2 not exactly-once FIFO through batched drain",
                src
            );
        }
        // Exactly once: give straggler duplicates a pump cycle, then
        // nothing further may surface.
        std::thread::sleep(Duration::from_millis(10));
        prop_assert_eq!(net.drain_into(2, &mut got), 0, "extra delivery after full drain");
        net.close();
    }
}
