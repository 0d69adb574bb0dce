//! Cross-transport conformance: the same programs, PEs as threads of
//! one process (`Transport::InProcess`), as separate OS processes over
//! a real socket (`Transport::Socket`), and as processes exchanging
//! data through shared-memory rings (`Transport::ShmRing`, where the
//! host supports it), must produce the same answers. The
//! multi-process iterations re-execute this test binary once per rank
//! (`CONVERSE_WORKER` role), so every assertion here runs in real
//! worker processes too.
//!
//! Harness caveat (see docs/API.md): the worker re-invocation is
//! `<exe> <test-name> --exact`, recovered from the test thread's name —
//! these tests need libtest's default threaded harness, not
//! `--test-threads=1`.

use converse::machine::{run_on_each_transport, Transport};
use converse::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Like [`run_on_each_transport`] but with a caller-built config and
/// the per-transport [`RunReport`]s returned for launcher-side
/// assertions. (State mutated inside `entry` is only observable after
/// the run on the in-process transport — socket workers are separate
/// processes — so cross-transport checks go through the report.)
fn reports_on_each_transport<F>(
    mk: impl Fn() -> MachineConfig,
    entry: F,
) -> Vec<(Transport, RunReport)>
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    let entry = Arc::new(entry);
    Transport::each()
        .iter()
        .map(|&t| {
            let e = entry.clone();
            (t, run_with(mk().transport(t), move |pe| e(pe)))
        })
        .collect()
}

/// The canonical lossy mix from the chaos suite, with retransmit
/// timing tight enough for tests.
fn lossy_plan(seed: u64) -> converse::machine::FaultPlan {
    converse::machine::FaultPlan::lossy(seed, 0.2, 0.1, 0.3, 3)
}

/// A message-driven token ring: each PE sends one exact value to its
/// successor and asserts the exact value from its predecessor.
#[test]
fn ring_token_carries_exact_values_on_each_transport() {
    const PES: usize = 4;
    run_on_each_transport(PES, |pe| {
        let me = pe.my_pe();
        let prev = (me + PES - 1) % PES;
        let h = pe.register_handler(move |pe, msg| {
            let v = u64::from_le_bytes(msg.payload().try_into().unwrap());
            assert_eq!(
                v,
                (prev as u64 + 1) * 1000 + 7,
                "wrong token on PE {}",
                pe.my_pe()
            );
            csd_exit_scheduler(pe);
        });
        pe.barrier();
        let token = (me as u64 + 1) * 1000 + 7;
        pe.sync_send_and_free((me + 1) % PES, Message::new(h, &token.to_le_bytes()));
        csd_scheduler(pe, -1);
        pe.barrier();
    });
}

/// Collectives: tree allreduce, root broadcast, and barriers agree on
/// both transports, several rounds deep — and so do a processor
/// group's multicast and reduction along its own tree.
#[test]
fn collectives_agree_on_each_transport() {
    const PES: usize = 4;
    const ROUNDS: u64 = 4;
    run_on_each_transport(PES, |pe| {
        let sum = pe.register_combiner(|a, b| {
            let x = u64::from_le_bytes(a.try_into().unwrap());
            let y = u64::from_le_bytes(b.try_into().unwrap());
            (x + y).to_le_bytes().to_vec()
        });
        // The last multicast round this PE received, plus one.
        let seen = pe.local(|| AtomicU64::new(0));
        let s2 = seen.clone();
        let multicast = pe.register_handler(move |_pe, msg| {
            let round = u64::from_le_bytes(msg.payload().try_into().unwrap());
            s2.store(round + 1, Ordering::SeqCst);
        });
        // Root 2, children 0 and 3; 3 has child 1: neither the machine
        // tree's root nor its shape.
        let mut group = converse::machine::pgrp::Pgrp::create(2);
        group.add_children(2, &[0, 3]);
        group.add_children(3, &[1]);
        pe.barrier();
        for round in 0..ROUNDS {
            let mine = (pe.my_pe() as u64 + 1) * (round + 1);
            let all = pe.allreduce_bytes(mine.to_le_bytes().to_vec(), sum);
            let expect: u64 = (1..=PES as u64).map(|p| p * (round + 1)).sum();
            assert_eq!(u64::from_le_bytes(all.try_into().unwrap()), expect);
            let payload = (pe.my_pe() == 0).then(|| round.to_le_bytes().to_vec());
            let got = pe.bcast_bytes(0, payload);
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), round);
            // Every member but the caller gets the multicast.
            let caller = round as usize % PES;
            if pe.my_pe() == caller {
                let msg = Message::new(multicast, &round.to_le_bytes());
                let h = pe.async_multicast(&group, &msg);
                pe.release_comm_handle(h);
            } else {
                pe.deliver_until(|| seen.load(Ordering::SeqCst) == round + 1);
            }
            let reduced = pe.pgrp_reduce(&group, round, mine.to_le_bytes().to_vec(), sum);
            if pe.my_pe() == group.root() {
                assert_eq!(
                    u64::from_le_bytes(reduced.unwrap().try_into().unwrap()),
                    expect
                );
            } else {
                assert!(reduced.is_none());
            }
            pe.barrier();
        }
    });
}

/// Global pointers: every PE owns a region; every PE reads every
/// remote region and writes one byte into its successor's. The
/// request/reply protocol rides ordinary messages, so it must behave
/// identically whether "remote" means another thread or another
/// process.
#[test]
fn global_pointers_transfer_on_each_transport() {
    const PES: usize = 3;
    run_on_each_transport(PES, |pe| {
        use converse::machine::gptr::GlobalPtr;
        let me = pe.my_pe();
        let g = pe.gptr_create(vec![me as u8; 64]);
        // Handle exchange: each owner broadcasts its encoded pointer.
        let handles: Vec<GlobalPtr> = (0..PES)
            .map(|root| {
                let data = (me == root).then(|| g.encode());
                GlobalPtr::decode(&pe.bcast_bytes(root, data)).expect("decodable handle")
            })
            .collect();
        pe.barrier();
        for (owner, h) in handles.iter().enumerate() {
            assert_eq!(
                pe.get_bytes(h, 8, 16),
                vec![owner as u8; 16],
                "PE {me} misread PE {owner}'s region"
            );
        }
        // Each PE stamps byte `me` of its successor's region.
        pe.put_bytes(&handles[(me + 1) % PES], me, &[100 + me as u8]);
        pe.barrier();
        let mine = pe.gptr_deref(&g).expect("own region");
        let writer = (me + PES - 1) % PES;
        assert_eq!(
            mine[writer],
            100 + writer as u8,
            "put from PE {writer} lost"
        );
    });
}

/// The transport-shape contract: zero-copy broadcast is an in-process
/// property; a real wire degrades to per-destination copies. Either
/// way every PE receives the broadcast exactly once.
#[test]
fn broadcast_contract_matches_the_transport() {
    const PES: usize = 3;
    run_on_each_transport(PES, |pe| {
        match pe.transport_name() {
            "inproc" => assert!(
                pe.broadcast_zero_copy(),
                "in-process broadcast must share one allocation"
            ),
            "socket" | "shmring" => assert!(
                !pe.broadcast_zero_copy(),
                "a real wire cannot share an allocation across processes"
            ),
            other => panic!("unknown transport {other:?}"),
        }
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = seen.clone();
        let h = pe.register_handler(move |pe, msg| {
            assert_eq!(msg.payload(), b"fanout");
            s2.fetch_add(1, Ordering::SeqCst);
            csd_exit_scheduler(pe);
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            pe.sync_broadcast(&Message::new(h, b"fanout"));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
        let expect = if pe.my_pe() == 0 { 0 } else { 1 };
        assert_eq!(seen.load(Ordering::SeqCst), expect);
    });
}

/// Exactly-once, in-order delivery under the adversarial fault plan on
/// BOTH transports: in-process the plan drives the modeled link; over
/// the socket the same draws drop/duplicate/delay real frames, and the
/// seq/ack/retransmit sublayer must mask it all the same.
#[test]
fn chaos_ring_is_exactly_once_on_each_transport() {
    const PES: usize = 3;
    const MSGS: u64 = 40;
    let reports = reports_on_each_transport(
        || MachineConfig::new(PES).faults(lossy_plan(1996)),
        |pe| {
            let me = pe.my_pe();
            let prev = (me + PES - 1) % PES;
            let next_expected = Arc::new(AtomicU64::new(0));
            let ne = next_expected.clone();
            let h = pe.register_handler(move |pe, msg| {
                let v = u64::from_le_bytes(msg.payload().try_into().unwrap());
                let want = ne.fetch_add(1, Ordering::SeqCst);
                assert_eq!(
                    v,
                    prev as u64 * 10_000 + want,
                    "PE {} saw a lost, duplicated, or reordered message",
                    pe.my_pe()
                );
                if want + 1 == MSGS {
                    csd_exit_scheduler(pe);
                }
            });
            pe.barrier();
            for i in 0..MSGS {
                let v = me as u64 * 10_000 + i;
                pe.sync_send_and_free((me + 1) % PES, Message::new(h, &v.to_le_bytes()));
            }
            csd_scheduler(pe, -1);
            pe.barrier();
            assert_eq!(next_expected.load(Ordering::SeqCst), MSGS);
        },
    );
    for (t, r) in &reports {
        let s = &r.fault_stats;
        assert!(
            s.dropped + s.duplicated + s.delayed > 0,
            "{t:?}: the plan was supposed to bite: {s:?}"
        );
        assert!(
            s.retransmitted > 0,
            "{t:?}: drops were masked without retransmission? {s:?}"
        );
    }
}

/// Fan-in: every other PE sends a burst at PE 0 at once, and PE 0 gets
/// every message once, each link's in the order it was sent.
#[test]
fn fan_in_delivers_every_message_on_each_transport() {
    const PES: usize = 4;
    const MSGS: u64 = 500;
    run_on_each_transport(PES, |pe| {
        let next = Arc::new((0..PES).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let got = Arc::new(AtomicU64::new(0));
        let (n2, g2) = (next.clone(), got.clone());
        let total = MSGS * (PES as u64 - 1);
        let sink = pe.register_handler(move |pe, msg| {
            let v = u64::from_le_bytes(msg.payload().try_into().unwrap());
            let (src, i) = ((v / 10_000) as usize, v % 10_000);
            assert_eq!(
                n2[src].fetch_add(1, Ordering::SeqCst),
                i,
                "link {src} → 0 lost, duplicated or reordered a message"
            );
            if g2.fetch_add(1, Ordering::SeqCst) + 1 == total {
                csd_exit_scheduler(pe);
            }
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            csd_scheduler(pe, -1);
            assert_eq!(got.load(Ordering::SeqCst), total);
        } else {
            for i in 0..MSGS {
                let v = pe.my_pe() as u64 * 10_000 + i;
                pe.sync_send_and_free(0, Message::new(sink, &v.to_le_bytes()));
            }
        }
        pe.barrier();
    });
}

/// A fault plan's scripted stall window holds on every transport: PE 1
/// takes nothing before its window ends, though PE 0's message is sent
/// at boot. The window is a plan's, so on a wire it is applied where the
/// message enters PE 1's process.
#[test]
fn a_scripted_stall_window_holds_on_each_transport() {
    for &t in Transport::each() {
        let mut plan = converse::machine::FaultPlan::new(1);
        plan.stalls.push(converse::machine::StallWindow {
            pe: 1,
            from: Duration::ZERO,
            to: Some(Duration::from_millis(300)),
        });
        run_with(MachineConfig::new(2).transport(t).faults(plan), |pe| {
            let h = pe.register_handler(|_, _| {});
            if pe.my_pe() == 0 {
                pe.sync_send_and_free(1, Message::new(h, b"at boot"));
                return;
            }
            let msg = pe.get_specific_msg(h);
            assert_eq!(msg.payload(), b"at boot");
            let took = pe.timer();
            assert!(
                took >= 0.3,
                "PE 1 took a message {took:.3} s after boot on {}",
                pe.transport_name()
            );
        });
    }
}

/// The per-guarantee delivery matrix under the adversarial plan, on
/// BOTH transports and across several seeds:
///
/// * the default (exactly-once) channel stays exact and in-order;
/// * an at-most-once channel never duplicates or reorders — arrivals
///   are a strictly increasing subset of what was sent;
/// * a latest-value-wins channel converges on the final value, with
///   every observed value newer than the one before.
#[test]
fn delivery_guarantee_matrix_on_each_transport() {
    use converse::machine::Delivery;
    const PES: usize = 3;
    const MSGS: u64 = 30;
    for seed in [1u64, 7, 1996] {
        let reports = reports_on_each_transport(
            move || {
                MachineConfig::new(PES)
                    .faults(lossy_plan(seed))
                    .channel("amo", Delivery::AtMostOnce)
                    .channel("lvw", Delivery::LatestValueWins)
            },
            |pe| {
                let me = pe.my_pe();
                let next = (me + 1) % PES;
                // Per-channel receive state; completion = the EO stream
                // finished exactly AND the LVW channel converged.
                let eo_count = Arc::new(AtomicU64::new(0));
                let amo_last = Arc::new(AtomicU64::new(0)); // stores value+1
                let amo_seen = Arc::new(AtomicU64::new(0));
                let lvw_last = Arc::new(AtomicU64::new(0)); // stores value+1
                let done = |pe: &Pe, eo: &AtomicU64, lvw: &AtomicU64| {
                    if eo.load(Ordering::SeqCst) == MSGS && lvw.load(Ordering::SeqCst) == MSGS {
                        csd_exit_scheduler(pe);
                    }
                };
                let (eo, lvw) = (eo_count.clone(), lvw_last.clone());
                let h_eo = pe.register_handler(move |pe, msg| {
                    let v = u64::from_le_bytes(msg.payload().try_into().unwrap());
                    let want = eo.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(
                        v,
                        want,
                        "exactly-once channel lost order on PE {}",
                        pe.my_pe()
                    );
                    done(pe, &eo, &lvw);
                });
                let (last, seen) = (amo_last.clone(), amo_seen.clone());
                let h_amo = pe.register_handler(move |pe, msg| {
                    let v = u64::from_le_bytes(msg.payload().try_into().unwrap());
                    let prev = last.swap(v + 1, Ordering::SeqCst);
                    assert!(
                        v + 1 > prev,
                        "at-most-once channel duplicated or reordered on PE {}: {v} after {}",
                        pe.my_pe(),
                        prev - 1
                    );
                    seen.fetch_add(1, Ordering::SeqCst);
                });
                let (eo, lvw) = (eo_count.clone(), lvw_last.clone());
                let h_lvw = pe.register_handler(move |pe, msg| {
                    let v = u64::from_le_bytes(msg.payload().try_into().unwrap());
                    let prev = lvw.swap(v + 1, Ordering::SeqCst);
                    assert!(
                        v + 1 > prev,
                        "latest-value-wins went backwards on PE {}: {v} after {}",
                        pe.my_pe(),
                        prev - 1
                    );
                    done(pe, &eo, &lvw);
                });
                let amo = pe.channel("amo");
                let lvw_ch = pe.channel("lvw");
                pe.barrier();
                for i in 0..MSGS {
                    let b = i.to_le_bytes();
                    pe.sync_send_and_free(next, Message::new(h_eo, &b));
                    pe.sync_send_on(next, amo, &Message::new(h_amo, &b));
                    pe.sync_send_on(next, lvw_ch, &Message::new(h_lvw, &b));
                }
                csd_scheduler(pe, -1);
                pe.barrier();
                assert_eq!(
                    eo_count.load(Ordering::SeqCst),
                    MSGS,
                    "exactly-once lost messages"
                );
                assert_eq!(
                    lvw_last.load(Ordering::SeqCst),
                    MSGS,
                    "latest-value-wins did not converge on the final value"
                );
                let delivered = amo_seen.load(Ordering::SeqCst);
                assert!(
                    (1..=MSGS).contains(&delivered),
                    "at-most-once delivered {delivered} of {MSGS}"
                );
            },
        );
        for (t, r) in &reports {
            let s = &r.fault_stats;
            assert!(
                s.dropped > 0,
                "{t:?} seed {seed}: plan never dropped: {s:?}"
            );
            assert!(
                s.superseded > 0,
                "{t:?} seed {seed}: back-to-back LVW publishes never superseded: {s:?}"
            );
            assert!(
                s.retransmitted > 0,
                "{t:?} seed {seed}: exactly-once masked drops without retransmitting: {s:?}"
            );
        }
    }
}

/// Taskbench smoke: a small stencil dependency graph executes
/// exact-value over both transports. Every task's output hashes its
/// predecessors' transmitted payload bytes, and the machine-wide
/// allreduce inside `assert_machine_valid` compares against the
/// generator's serial oracle — a pure function of (seed, payload size)
/// — so passing on both transports proves the task-output hashes are
/// identical inproc vs socket, with the socket iteration asserting
/// inside real worker processes.
#[test]
fn taskbench_stencil_hashes_identical_on_each_transport() {
    use converse::taskbench::exec::{assert_machine_valid, run_graph_raw, RunOpts};
    use converse::taskbench::{GraphSpec, Pattern, TaskGraph};

    const PES: usize = 4;
    for seed in [1u64, 7, 1996] {
        let graph = Arc::new(TaskGraph::generate(GraphSpec {
            pattern: Pattern::Stencil1D,
            seed,
            width: 6,
            steps: 4,
        }));
        run_on_each_transport(PES, move |pe| {
            let opts = RunOpts {
                payload_bytes: 64,
                ..RunOpts::default()
            };
            let summary = run_graph_raw(pe, &graph, &opts);
            assert_machine_valid(pe, &graph, &summary, opts.payload_bytes);
        });
    }
}
