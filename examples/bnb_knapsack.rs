//! Branch-and-bound with **integer priorities** — the other half of the
//! paper's §2.3 motivation: "branch-and-bound problems, where the
//! lower-bound of a node must be used as a priority to get good
//! speedups".
//!
//! 0/1 knapsack: each node message carries a partial selection; its
//! scheduling priority is the negated optimistic bound (fractional
//! relaxation), so the scheduler is a distributed best-first queue.
//! A chare *group* (one branch per PE) maintains the machine-wide
//! incumbent: new incumbents broadcast through it, letting every PE
//! prune against the best known value. Quiescence ends the search.
//!
//! ```sh
//! cargo run --example bnb_knapsack
//! cargo run --example bnb_knapsack -- --pes 8 --ldb measured --steal
//! ```
//!
//! Flags: `--pes N` (default 4), `--ldb random|spray|central|measured`
//! (seed placement policy, default random), `--steal` (enable idle-PE
//! work stealing — node messages are deposited through the balancer,
//! which marks them relocatable, so a PE that prunes its whole subtree
//! refills from the most-loaded peer instead of idling).

use converse::charm::{Charm, GroupChare, GroupId};
use converse::ldb::{Ldb, LdbPolicy};
use converse::machine::MachineConfig;
use converse::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const ITEMS: [(i64, i64); 12] = [
    // (value, weight), sorted by value density (descending) — the
    // fractional relaxation in `bound` is only an upper bound when the
    // remaining items are taken greedily in density order, and the
    // search branches in index order, so suffixes must stay sorted.
    (30, 10), // 3.00
    (20, 9),  // 2.22
    (25, 12), // 2.08
    (40, 20), // 2.00
    (50, 25), // 2.00
    (10, 5),  // 2.00
    (12, 6),  // 2.00
    (22, 11), // 2.00
    (35, 18), // 1.94
    (15, 8),  // 1.88
    (45, 24), // 1.88
    (30, 16), // 1.88
];
const CAPACITY: i64 = 60;

/// Optimistic bound: take remaining items greedily by density, allowing
/// one fractional item (classic LP relaxation, items pre-sorted).
fn bound(taken_value: i64, weight: i64, next: usize) -> i64 {
    let mut v = taken_value as f64;
    let mut w = weight;
    for (value, wt) in ITEMS.iter().skip(next) {
        if w + wt <= CAPACITY {
            w += wt;
            v += *value as f64;
        } else {
            let slack = (CAPACITY - w) as f64 / *wt as f64;
            v += *value as f64 * slack;
            break;
        }
    }
    // Round UP: the relaxation must stay a true upper bound or pruning
    // becomes unsound.
    v.ceil() as i64
}

/// Per-PE incumbent holder: a chare-group branch.
struct Incumbent;

struct Best(AtomicI64);

impl GroupChare for Incumbent {
    fn new(pe: &Pe, _gid: GroupId, _payload: &[u8]) -> Self {
        pe.local(|| Best(AtomicI64::new(0)));
        Incumbent
    }
    fn entry(&mut self, pe: &Pe, _gid: GroupId, _ep: u32, payload: &[u8]) {
        let v = i64::from_le_bytes(payload.try_into().unwrap());
        let best = pe.local(|| Best(AtomicI64::new(0)));
        best.0.fetch_max(v, Ordering::SeqCst);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let pes: usize = flag_val("--pes")
        .map(|v| v.parse().expect("--pes takes a number"))
        .unwrap_or(4);
    let policy = match flag_val("--ldb").as_deref() {
        None | Some("random") => LdbPolicy::Random { seed: 17 },
        Some("spray") => LdbPolicy::Spray {
            threshold: 4,
            max_hops: 4,
        },
        Some("central") => LdbPolicy::Central,
        Some("measured") => LdbPolicy::Measured,
        Some(other) => panic!("unknown --ldb policy {other:?}"),
    };
    let steal = args.iter().any(|a| a == "--steal");

    let best_final = Arc::new(AtomicI64::new(0));
    let expanded = Arc::new(AtomicU64::new(0));
    let (b2, e2) = (best_final.clone(), expanded.clone());

    let mut cfg = MachineConfig::new(pes);
    if steal {
        cfg = cfg.steal(true);
    }
    converse::core::run_with(cfg, move |pe| {
        let charm = Charm::install(pe, policy);
        let gkind = charm.register_group::<Incumbent>(pe);
        let qd = charm.quiescence();
        let best = pe.local(|| Best(AtomicI64::new(0)));
        let expd = e2.clone();
        let slot = pe.local(|| parking_lot::Mutex::new(None::<(HandlerId, GroupId)>));
        let s2 = slot.clone();
        let best2 = best.clone();

        // A node message: [next_item u8, value i64, weight i64].
        let expand = pe.register_handler(move |pe, msg| {
            let p = msg.payload();
            let next = p[0] as usize;
            let value = i64::from_le_bytes(p[1..9].try_into().unwrap());
            let weight = i64::from_le_bytes(p[9..17].try_into().unwrap());
            expd.fetch_add(1, Ordering::Relaxed);
            let incumbent = best2.0.load(Ordering::SeqCst);
            let (h, gid) = s2.lock().unwrap();
            let charm = Charm::get(pe);
            let qd = charm.quiescence();
            // New incumbent?
            if value > incumbent {
                best2.0.store(value, Ordering::SeqCst);
                charm.broadcast_group(pe, gid, 0, &value.to_le_bytes(), Priority::None);
            }
            if next < ITEMS.len() && bound(value, weight, next) > incumbent {
                let ldb = Ldb::get(pe);
                for take in [true, false] {
                    let (v, w) = if take {
                        (value + ITEMS[next].0, weight + ITEMS[next].1)
                    } else {
                        (value, weight)
                    };
                    if w > CAPACITY {
                        continue;
                    }
                    let mut payload = vec![(next + 1) as u8];
                    payload.extend_from_slice(&v.to_le_bytes());
                    payload.extend_from_slice(&w.to_le_bytes());
                    // Best-first: the more promising the optimistic
                    // bound, the more urgent (negated for min-order).
                    let prio = Priority::Int(-(bound(v, w, next + 1) as i32));
                    qd.msg_created(pe, 1);
                    ldb.deposit(pe, Message::with_priority(h, &prio, &payload));
                }
            }
            qd.msg_processed(pe, 1);
        });
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();

        let gid = if pe.my_pe() == 0 {
            let gid = charm.create_group(pe, gkind, b"");
            *slot.lock() = Some((expand, gid));
            // Share the group id via a readonly global.
            charm.publish_readonly(pe, 1, &gid.0.to_le_bytes());
            gid
        } else {
            let raw = charm.readonly_wait(pe, 1);
            let gid = GroupId(u64::from_le_bytes(raw.try_into().unwrap()));
            *slot.lock() = Some((expand, gid));
            gid
        };
        let _ = gid;
        pe.barrier();

        if pe.my_pe() == 0 {
            // Seed the root node.
            let mut payload = vec![0u8];
            payload.extend_from_slice(&0i64.to_le_bytes());
            payload.extend_from_slice(&0i64.to_le_bytes());
            qd.msg_created(pe, 1);
            Ldb::get(pe).deposit(pe, Message::new(expand, &payload));
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(done, b""));
            b2.store(best.0.load(Ordering::SeqCst), Ordering::SeqCst);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });

    // Reference solution by exhaustive search.
    let mut exact = 0i64;
    for mask in 0u32..(1 << ITEMS.len()) {
        let (mut v, mut w) = (0i64, 0i64);
        for (i, (val, wt)) in ITEMS.iter().enumerate() {
            if mask & (1 << i) != 0 {
                v += val;
                w += wt;
            }
        }
        if w <= CAPACITY {
            exact = exact.max(v);
        }
    }
    let found = best_final.load(Ordering::SeqCst);
    println!(
        "branch & bound: best value {found} (exact {exact}), {} nodes expanded \
         (of {} in the full tree)",
        expanded.load(Ordering::Relaxed),
        (1u64 << (ITEMS.len() + 1)) - 1,
    );
    assert_eq!(found, exact, "B&B must find the optimum");
}
