//! Idle-PE work stealing fences: relocating undrained work must not
//! weaken any guarantee the scheduler or the reliability sublayer
//! gives.
//!
//! * **Relocation happens and stays exactly-once**: a skewed
//!   relocatable taskbench run on a steal-enabled machine must record
//!   real `Event::Steal` traffic *and* pass full dependency-hash
//!   validation — stolen tasks execute exactly once, with the payload
//!   bytes they were packaged with.
//! * **Chaos**: the same property under a lossy fault plan (drop 0.2,
//!   seeds 1/7/1996) — stealing composes with retransmission because it
//!   only ever touches the victim's mailbox, *after* the reliability
//!   sublayer has sequenced and deduplicated.
//! * **Dual transport**: the steal-mode run completes and validates
//!   with PEs as threads and as separate OS processes over the wire
//!   (STEAL_REQ/DONATE frames).
//! * **Branch and bound**: a prioritized search whose nodes the load
//!   balancer deposits finds its optimum with stealing off and on.

use converse::core::{csd_exit_scheduler, csd_scheduler, Quiescence};
use converse::ldb::{Ldb, LdbPolicy};
use converse::machine::{run_with, FaultPlan, HandlerId, MachineConfig, Message, Transport};
use converse::msg::Priority;
use converse::taskbench::exec::{assert_machine_valid, run_graph_raw, RunOpts};
use converse::taskbench::{GraphSpec, Pattern, TaskGraph};
use converse::trace::MemorySink;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PES: usize = 4;

fn graph(pattern: Pattern, seed: u64, width: usize, steps: usize) -> Arc<TaskGraph> {
    Arc::new(TaskGraph::generate(GraphSpec {
        pattern,
        seed,
        width,
        steps,
    }))
}

/// Relocatable execution, heavily skewed onto PE 0, with a sleepy
/// grain so the hotspot yields the core and the other PEs actually go
/// idle (and steal) even on single-core hosts.
fn steal_opts(grain_ns: u64) -> RunOpts {
    RunOpts {
        payload_bytes: 64,
        steal: true,
        steal_to0_pct: 75,
        grain_ns,
        sleep_grain: true,
        ..RunOpts::default()
    }
}

/// The chaos suite's canonical lossy mix.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::lossy(seed, 0.2, 0.0, 0.3, 3)
}

/// A steal-enabled machine must actually steal under a manufactured
/// hotspot — and every relocated task still executes exactly once with
/// the right dependency-order hash.
#[test]
fn stealing_relocates_work_and_stays_exactly_once() {
    let sink = MemorySink::new(PES, 500_000);
    let g = graph(Pattern::Random, 42, 64, 8);
    let g2 = g.clone();
    run_with(
        MachineConfig::new(PES).steal(true).trace(sink.clone()),
        move |pe| {
            let opts = steal_opts(50_000);
            let summary = run_graph_raw(pe, &g2, &opts);
            assert_machine_valid(pe, &g2, &summary, opts.payload_bytes);
        },
    );
    let summary = sink.summary();
    let steals: u64 = summary.pes.iter().map(|p| p.steals).sum();
    let stolen: u64 = summary.pes.iter().map(|p| p.stolen_msgs).sum();
    assert!(
        steals > 0,
        "75% of {} tasks were routed to PE 0 yet no idle PE ever stole",
        g.num_tasks()
    );
    assert!(stolen >= steals, "each steal donates at least one message");
}

/// The same machine with stealing disabled must record zero steal
/// events — the protocol is strictly opt-in.
#[test]
fn no_stealing_without_the_machine_opting_in() {
    let sink = MemorySink::new(PES, 500_000);
    let g = graph(Pattern::Random, 42, 32, 4);
    run_with(MachineConfig::new(PES).trace(sink.clone()), move |pe| {
        let opts = steal_opts(5_000);
        let summary = run_graph_raw(pe, &g, &opts);
        assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
    });
    let steals: u64 = sink.summary().pes.iter().map(|p| p.steals).sum();
    assert_eq!(steals, 0, "machine never enabled stealing");
}

/// Chaos fence: stealing composes with the reliability sublayer. Under
/// drop 0.2 every dependency edge may retransmit; the stolen READY
/// messages come off the victim's mailbox — already sequenced and
/// deduplicated — so exactly-once execution and the dependency-order
/// hashes must survive unchanged.
#[test]
fn stealing_preserves_exactly_once_under_drops() {
    for seed in [1u64, 7, 1996] {
        let g = graph(Pattern::Butterfly, seed, 8, 5);
        let report = run_with(
            MachineConfig::new(PES).steal(true).faults(lossy_plan(seed)),
            move |pe| {
                let opts = RunOpts {
                    payload_bytes: 128,
                    steal: true,
                    steal_to0_pct: 75,
                    ..RunOpts::default()
                };
                let summary = run_graph_raw(pe, &g, &opts);
                assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            },
        );
        assert!(
            report.fault_stats.dropped > 0,
            "seed {seed}: the plan never actually dropped anything"
        );
    }
}

/// Transport conformance: the identical steal-mode program validates
/// with PEs as threads of one process and as separate OS processes —
/// where stealing rides STEAL_REQ/DONATE wire frames instead of a
/// shared-memory list splice. On hosts with `Transport::ShmRing`,
/// those same steal frames travel the lock-free rings.
#[test]
fn steal_mode_validates_on_each_transport() {
    for &transport in Transport::each() {
        let g = graph(Pattern::Random, 7, 16, 6);
        run_with(
            MachineConfig::new(PES).transport(transport).steal(true),
            move |pe| {
                let opts = steal_opts(20_000);
                let summary = run_graph_raw(pe, &g, &opts);
                assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            },
        );
    }
}

/// A prioritized branch-and-bound (a 12-item knapsack) whose nodes are
/// deposited through the load balancer, which marks them relocatable,
/// finds the optimum whichever PE expands a node: with stealing off, and
/// with it on under the random and the measured policy.
#[test]
fn branch_and_bound_finds_the_optimum_with_stealing() {
    for (policy, steal) in [
        (LdbPolicy::Random { seed: 17 }, false),
        (LdbPolicy::Random { seed: 17 }, true),
        (LdbPolicy::Measured, true),
    ] {
        assert_eq!(
            knapsack(policy, steal),
            132,
            "{policy:?} steal={steal}: B&B must find the optimum"
        );
    }
}

/// The knapsack's items, as values and weights.
const VALUE: [i64; 12] = [30, 20, 25, 40, 50, 10, 12, 22, 35, 15, 45, 30];
const WEIGHT: [i64; 12] = [10, 9, 12, 20, 25, 5, 6, 11, 18, 8, 24, 16];
const CAPACITY: i64 = 60;

/// The fractional-relaxation bound of a node that has decided the items
/// before `next`.
fn bound(taken_value: i64, weight: i64, next: usize) -> i64 {
    let mut v = taken_value as f64;
    let mut w = weight;
    for (value, wt) in VALUE.iter().zip(&WEIGHT).skip(next) {
        if w + wt <= CAPACITY {
            w += wt;
            v += *value as f64;
        } else {
            v += *value as f64 * (CAPACITY - w) as f64 / *wt as f64;
            break;
        }
    }
    v.ceil() as i64
}

/// Best-first B&B on a 4-PE machine; returns the best value found. One
/// shared atomic is the incumbent: the test is about where nodes run,
/// not about how the incumbent travels.
fn knapsack(policy: LdbPolicy, steal: bool) -> i64 {
    let best = Arc::new(AtomicI64::new(0));
    let b2 = best.clone();
    run_with(MachineConfig::new(PES).steal(steal), move |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(pe, policy);
        let slot = Arc::new(parking_lot::Mutex::new(None::<HandlerId>));
        let (qd2, best2, s2) = (qd.clone(), b2.clone(), slot.clone());
        // A node: [next item u8, value i64, weight i64].
        let expand = pe.register_handler(move |pe, msg| {
            let p = msg.payload();
            let next = p[0] as usize;
            let value = i64::from_le_bytes(p[1..9].try_into().unwrap());
            let weight = i64::from_le_bytes(p[9..17].try_into().unwrap());
            // A sleepy grain, so PEs overlap on a host with fewer cores
            // than PEs.
            std::thread::sleep(Duration::from_micros(100));
            best2.fetch_max(value, Ordering::SeqCst);
            let incumbent = best2.load(Ordering::SeqCst);
            if next < VALUE.len() && bound(value, weight, next) > incumbent {
                let h = s2.lock().unwrap();
                for (v, w) in [
                    (value + VALUE[next], weight + WEIGHT[next]),
                    (value, weight),
                ] {
                    if w > CAPACITY {
                        continue;
                    }
                    let mut payload = vec![(next + 1) as u8];
                    payload.extend_from_slice(&v.to_le_bytes());
                    payload.extend_from_slice(&w.to_le_bytes());
                    let prio = Priority::Int(-(bound(v, w, next + 1) as i32));
                    qd2.msg_created(pe, 1);
                    Ldb::get(pe).deposit(pe, Message::with_priority(h, &prio, &payload));
                }
            }
            qd2.msg_processed(pe, 1);
        });
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        *slot.lock() = Some(expand);
        pe.barrier();
        if pe.my_pe() == 0 {
            let mut root = vec![0u8];
            root.extend_from_slice(&0i64.to_le_bytes());
            root.extend_from_slice(&0i64.to_le_bytes());
            qd.msg_created(pe, 1);
            ldb.deposit(pe, Message::new(expand, &root));
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(done, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
    best.load(Ordering::SeqCst)
}
