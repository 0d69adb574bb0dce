//! Load-balancer behaviour on live machines: placement, conservation,
//! and balance quality per policy.

use converse_core::{csd_exit_scheduler, csd_scheduler, Message, Quiescence};
use converse_ldb::{Ldb, LdbPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Run `num_seeds` trivial seeds from PE 0 under `policy`; return how
/// many executed on each PE.
fn placement(num_pes: usize, policy: LdbPolicy, num_seeds: usize) -> Vec<u64> {
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..num_pes).map(|_| AtomicU64::new(0)).collect());
    let c2 = counts.clone();
    converse_core::run(num_pes, move |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(pe, policy);
        let c = c2.clone();
        let qd2 = qd.clone();
        let work = pe.register_handler(move |pe, _msg| {
            c[pe.my_pe()].fetch_add(1, Ordering::SeqCst);
            qd2.msg_processed(pe, 1);
        });
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            for _ in 0..num_seeds {
                qd.msg_created(pe, 1);
                ldb.deposit(pe, Message::new(work, b"seed"));
            }
            qd.start(pe, Message::new(stop, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(stop, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
    counts.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

#[test]
fn direct_roots_where_deposited() {
    let got = placement(4, LdbPolicy::Direct, 20);
    assert_eq!(got, vec![20, 0, 0, 0]);
}

#[test]
fn random_spreads_and_conserves() {
    let got = placement(4, LdbPolicy::Random { seed: 7 }, 64);
    assert_eq!(got.iter().sum::<u64>(), 64, "no seed lost or duplicated");
    let nonzero = got.iter().filter(|c| **c > 0).count();
    assert!(nonzero >= 3, "random placement should spread: {got:?}");
}

#[test]
fn central_balances_evenly() {
    let got = placement(4, LdbPolicy::Central, 40);
    assert_eq!(got.iter().sum::<u64>(), 40);
    // The manager assigns by least-known-load with immediate accounting,
    // so the split is near-perfect.
    for (pe, c) in got.iter().enumerate() {
        assert!((8..=12).contains(c), "PE {pe} got {c} of 40: {got:?}");
    }
}

#[test]
fn spray_offloads_an_overloaded_pe() {
    let got = placement(
        4,
        LdbPolicy::Spray {
            threshold: 3,
            max_hops: 4,
        },
        60,
    );
    assert_eq!(got.iter().sum::<u64>(), 60);
    // PE0 deposits everything; beyond the threshold, seeds must spill to
    // neighbours.
    assert!(got[0] < 60, "spray never offloaded: {got:?}");
    assert!(
        got[1] + got[3] > 0,
        "ring neighbours of PE0 received nothing: {got:?}"
    );
}

#[test]
fn spray_single_pe_machine_roots_locally() {
    let got = placement(
        1,
        LdbPolicy::Spray {
            threshold: 0,
            max_hops: 3,
        },
        10,
    );
    assert_eq!(got, vec![10]);
}

#[test]
fn central_single_pe_machine() {
    let got = placement(1, LdbPolicy::Central, 10);
    assert_eq!(got, vec![10]);
}

#[test]
fn two_choices_spreads_and_conserves() {
    let got = placement(4, LdbPolicy::TwoChoices { seed: 3 }, 64);
    assert_eq!(got.iter().sum::<u64>(), 64);
    let nonzero = got.iter().filter(|c| **c > 0).count();
    assert!(nonzero >= 2, "two-choices should spread: {got:?}");
}

#[test]
fn random_is_deterministic_per_seed() {
    let a = placement(4, LdbPolicy::Random { seed: 123 }, 32);
    let b = placement(4, LdbPolicy::Random { seed: 123 }, 32);
    assert_eq!(a, b);
}

#[test]
fn seeds_preserve_priority_at_destination() {
    // A prioritized seed must still be scheduled by priority after
    // rooting: deposit three seeds with priorities on a Direct balancer
    // and observe execution order.
    converse_core::run(1, |pe| {
        let ldb = Ldb::install(pe, LdbPolicy::Direct);
        let order = pe.local(|| parking_lot::Mutex::new(Vec::<i32>::new()));
        let o2 = order.clone();
        let work = pe.register_handler(move |_pe, msg| {
            o2.lock()
                .push(i32::from_le_bytes(msg.payload().try_into().unwrap()));
        });
        for p in [5, -3, 1] {
            let m = Message::with_priority(work, &converse_msg::Priority::Int(p), &p.to_le_bytes());
            ldb.deposit(pe, m);
        }
        csd_scheduler(pe, 3);
        assert_eq!(*order.lock(), vec![-3, 1, 5]);
    });
}

#[test]
fn stats_account_for_every_seed() {
    converse_core::run(2, |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(pe, LdbPolicy::Random { seed: 9 });
        let qd2 = qd.clone();
        let work = pe.register_handler(move |pe, _| qd2.msg_processed(pe, 1));
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            for _ in 0..20 {
                qd.msg_created(pe, 1);
                ldb.deposit(pe, Message::new(work, b""));
            }
            qd.start(pe, Message::new(stop, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(stop, b""));
            let stats = ldb.stats(pe);
            assert_eq!(stats.deposited, 20);
            assert_eq!(
                stats.rooted + stats.forwarded,
                20,
                "every deposited seed rooted here or left"
            );
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}

#[test]
fn measured_spreads_and_conserves() {
    let got = placement(4, LdbPolicy::Measured, 64);
    assert_eq!(got.iter().sum::<u64>(), 64, "no seed lost or duplicated");
    let max = *got.iter().max().unwrap();
    assert!(max < 64, "measured never offloaded the hot PE: {got:?}");
    let nonzero = got.iter().filter(|c| **c > 0).count();
    assert!(nonzero >= 2, "measured placement should spread: {got:?}");
}

#[test]
fn measured_single_pe_machine() {
    let got = placement(1, LdbPolicy::Measured, 10);
    assert_eq!(got, vec![10]);
}

/// The skewed-stream shoot-out: every seed deposited on PE 0, three
/// balancing policies side by side. All must conserve the stream, and
/// Measured — placing by live backlog rather than by hop-local
/// threshold (Spray) or manager bookkeeping (Central) — must keep the
/// hottest PE strictly below the whole stream, i.e. behave like a
/// balancer, not like Direct.
#[test]
fn measured_compares_with_spray_and_central_on_a_skewed_stream() {
    let spray = placement(
        4,
        LdbPolicy::Spray {
            threshold: 3,
            max_hops: 4,
        },
        60,
    );
    let central = placement(4, LdbPolicy::Central, 60);
    let measured = placement(4, LdbPolicy::Measured, 60);
    for (name, got) in [
        ("spray", &spray),
        ("central", &central),
        ("measured", &measured),
    ] {
        assert_eq!(
            got.iter().sum::<u64>(),
            60,
            "{name} lost or duplicated seeds: {got:?}"
        );
    }
    let hottest = |g: &Vec<u64>| *g.iter().max().unwrap();
    assert!(
        hottest(&measured) < 60,
        "measured behaved like Direct: {measured:?} (spray {spray:?}, central {central:?})"
    );
}
