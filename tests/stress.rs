//! Stress tests: larger machines, heavy message volumes, many threads,
//! adversarial delivery — the load the unit tests don't reach.

use converse::charm::{Chare, ChareId, Charm};
use converse::dp::{Dp, Op};
use converse::ldb::LdbPolicy;
use converse::prelude::*;
use converse::sm::{Sm, ANY};
use converse::sync::CtsLock;
use converse::threads::CthRuntime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn sixteen_pe_all_to_all_storm() {
    // Every PE sends K messages to every other PE; totals must balance.
    const K: u64 = 200;
    let received: Arc<Vec<AtomicU64>> = Arc::new((0..16).map(|_| AtomicU64::new(0)).collect());
    let r2 = received.clone();
    converse::core::run(16, move |pe| {
        let r = r2.clone();
        let h = pe.register_handler(move |pe, msg| {
            assert_eq!(msg.payload().len(), 64);
            r[pe.my_pe()].fetch_add(1, Ordering::Relaxed);
        });
        pe.barrier();
        for k in 0..K {
            for dst in 0..pe.num_pes() {
                if dst != pe.my_pe() {
                    pe.sync_send_and_free(dst, Message::new(h, &[k as u8; 64]));
                }
            }
            if k % 16 == 0 {
                pe.deliver_msgs(None); // keep mailboxes bounded-ish
            }
        }
        // Drain until everyone got everything.
        let expect = K * 15;
        pe.deliver_until(|| r2[pe.my_pe()].load(Ordering::Relaxed) == expect);
        pe.barrier();
    });
    for (pe, r) in received.iter().enumerate() {
        assert_eq!(r.load(Ordering::Relaxed), K * 15, "PE {pe}");
    }
}

#[test]
fn deep_chare_tree_under_reorder() {
    // fib(14) over 8 PEs with adversarial delivery reordering.
    let result = Arc::new(AtomicU64::new(0));
    let r2 = result.clone();
    struct F {
        pending: u8,
        acc: u64,
        parent: Option<ChareId>,
        report: Option<u32>,
    }
    impl Chare for F {
        fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self {
            let mut u = Unpacker::new(payload);
            let n = u.u64().unwrap();
            let kind = u.u32().unwrap();
            let has_parent = u.u8().unwrap() == 1;
            let (parent, report) = if has_parent {
                (ChareId::decode(u.raw(16).unwrap()), None)
            } else {
                (None, Some(u.u32().unwrap()))
            };
            let mut me = F {
                pending: 0,
                acc: 0,
                parent,
                report,
            };
            if n < 2 {
                me.done(pe, n);
            } else {
                let charm = Charm::get(pe);
                for k in [n - 1, n - 2] {
                    let p = Packer::new()
                        .u64(k)
                        .u32(kind)
                        .u8(1)
                        .raw(&self_id.encode())
                        .finish();
                    charm.create(pe, converse::charm::ChareKind(kind), &p, Priority::None);
                    me.pending += 1;
                }
            }
            me
        }
        fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
            self.acc += u64::from_le_bytes(payload.try_into().unwrap());
            self.pending -= 1;
            if self.pending == 0 {
                let v = self.acc;
                self.done(pe, v);
            }
        }
    }
    impl F {
        fn done(&mut self, pe: &Pe, v: u64) {
            let charm = Charm::get(pe);
            match (self.parent, self.report) {
                (Some(p), _) => charm.send(pe, p, 0, &v.to_le_bytes(), Priority::None),
                (None, Some(h)) => {
                    pe.sync_send_and_free(0, Message::new(HandlerId(h), &v.to_le_bytes()))
                }
                _ => unreachable!(),
            }
        }
    }
    let cfg = MachineConfig::new(8).delivery(converse::machine::DeliveryMode::Reorder {
        seed: 1234,
        window: 10,
    });
    converse::core::run_with(cfg, move |pe| {
        let charm = Charm::install(pe, LdbPolicy::Random { seed: 8 });
        let kind = charm.register::<F>(pe);
        let r3 = r2.clone();
        let report = pe.register_handler(move |pe, msg| {
            r3.store(
                u64::from_le_bytes(msg.payload().try_into().unwrap()),
                Ordering::SeqCst,
            );
            Charm::get(pe).exit_all(pe);
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let p = Packer::new()
                .u64(14)
                .u32(kind.0)
                .u8(0)
                .u32(report.0)
                .finish();
            charm.create(pe, kind, &p, Priority::None);
        }
        csd_scheduler(pe, -1);
        pe.barrier();
    });
    assert_eq!(result.load(Ordering::SeqCst), 377, "fib(14)");
}

#[test]
fn five_hundred_threads_on_one_pe() {
    converse::core::run(1, |pe| {
        let rt = CthRuntime::get(pe);
        let lock = CtsLock::new(pe);
        let counter = Arc::new(parking_lot::Mutex::new(0u64));
        for _ in 0..500 {
            let l = lock.clone();
            let c = counter.clone();
            rt.spawn_scheduled(pe, move |pe| {
                l.lock(pe);
                let v = *c.lock();
                converse::threads::cth_yield(pe);
                *c.lock() = v + 1;
                l.unlock(pe).unwrap();
            });
        }
        csd_scheduler_until_idle(pe);
        assert_eq!(*counter.lock(), 500);
    });
}

#[test]
fn sm_bulk_tagged_traffic_with_reorder() {
    let cfg = MachineConfig::new(4).delivery(converse::machine::DeliveryMode::Reorder {
        seed: 77,
        window: 12,
    });
    converse::core::run_with(cfg, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        // Everyone sends 50 messages per tag to PE 0 on 3 tags.
        if pe.my_pe() != 0 {
            for i in 0..50u32 {
                for tag in 1..=3 {
                    sm.send(pe, 0, tag, &(i * tag as u32).to_le_bytes());
                }
            }
        } else {
            // Receive per (tag, src): per-pair payload order must hold
            // per tag even under global reordering? No — reorder breaks
            // it; just verify counts and payload sets.
            let mut got = 0;
            let mut sum: u64 = 0;
            while got < 3 * 3 * 50 {
                let m = sm.recv(pe, ANY, ANY);
                sum += u32::from_le_bytes(m.data.try_into().unwrap()) as u64;
                got += 1;
            }
            let expect: u64 = 3 * (0..50u64).map(|i| i + 2 * i + 3 * i).sum::<u64>();
            assert_eq!(sum, expect);
        }
        pe.barrier();
    });
}

#[test]
fn large_messages_through_collectives() {
    converse::core::run(4, |pe| {
        let dp = Dp::install(pe);
        // 1 MiB blobs through allgather_bytes.
        let mine = vec![pe.my_pe() as u8; 1 << 20];
        let all = dp.allgather_bytes(pe, mine);
        for (p, blob) in all.iter().enumerate() {
            assert_eq!(blob.len(), 1 << 20);
            assert!(blob.iter().all(|b| *b == p as u8));
        }
        // And a big reduction workload.
        let total = dp.allreduce(pe, (pe.my_pe() as i64 + 1) * 1_000_000, Op::Sum);
        assert_eq!(total, 10_000_000);
    });
}

#[test]
fn rapid_fire_quiescence_cycles() {
    // Arm and fire quiescence repeatedly in one run: the detector must
    // be reusable.
    converse::core::run(3, |pe| {
        let qd = Quiescence::install(pe);
        let work = {
            let qd = qd.clone();
            pe.register_handler(move |pe, _| qd.msg_processed(pe, 1))
        };
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        for round in 0..10 {
            if pe.my_pe() == 0 {
                for dst in 0..pe.num_pes() {
                    qd.msg_created(pe, 1);
                    pe.sync_send_and_free(dst, Message::new(work, &[round]));
                }
                qd.start(pe, Message::new(done, b""));
                csd_scheduler(pe, -1);
                assert!(!qd.is_active(pe), "round {round}");
                pe.sync_broadcast(&Message::new(done, b""));
            } else {
                csd_scheduler(pe, -1);
            }
            pe.barrier();
        }
    });
}

/// Lost-wakeup stress for the mailbox doorbell, at the layer where a
/// lost wake cannot hide behind a short park slice: every receive is a
/// 30 s `recv_timeout`, so one sender that skipped a needed wake stalls
/// its peer for 30 s and the receive comes back `None`. Both sides park
/// on (nearly) every trip — the ping-pong leaves each nothing else to
/// do — so the "receiver is just parking" / "receiver just timed out"
/// windows of the claim-the-wake flag are crossed 400 000 times.
#[test]
fn mailbox_ping_pong_never_loses_a_wake() {
    use converse::net::Interconnect;
    use std::time::Duration;
    const TRIPS: u64 = 200_000;
    const PATIENCE: Duration = Duration::from_secs(30);
    let net = Interconnect::new(2);
    let echo = {
        let net = net.clone();
        std::thread::spawn(move || {
            for _ in 0..TRIPS {
                let p = net.recv_timeout(1, PATIENCE).expect("PE 1 lost a wake");
                net.send(1, 0, p.block);
            }
        })
    };
    for i in 0..TRIPS {
        net.send(0, 1, i.to_le_bytes().to_vec());
        let p = net.recv_timeout(0, PATIENCE).expect("PE 0 lost a wake");
        assert_eq!(p.bytes(), i.to_le_bytes());
    }
    echo.join().unwrap();
}

/// `close()` racing a receiver that is entering, inside, or leaving its
/// park: whichever way the race falls, the receiver must come back
/// (`None`) long before its own 30 s timeout.
#[test]
fn close_racing_a_parking_receiver_always_wakes_it() {
    use converse::net::Interconnect;
    use std::time::{Duration, Instant};
    for round in 0..2_000u32 {
        let net = Interconnect::new(1);
        let rx = {
            let net = net.clone();
            std::thread::spawn(move || net.recv_timeout(0, Duration::from_secs(30)))
        };
        // Vary where in the receiver's start-up the close lands.
        for _ in 0..round % 64 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        net.close();
        assert!(rx.join().unwrap().is_none());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "round {round}: close() did not wake the receiver"
        );
    }
}

/// One PE's side of a 2-PE scheduler-driven ping-pong of `trips` round
/// trips: every message is handled by the Csd loop, and with
/// `idle_spin(0)` the PE parks in `idle_wait` between any two of them.
/// Every trip must arrive, in order, with the block watchdog armed.
fn scheduler_ping_pong(pe: &Pe, trips: u64) {
    let seen = Arc::new(AtomicU64::new(0));
    let s = seen.clone();
    let h = pe.register_handler(move |pe, msg| {
        let i = u64::from_le_bytes(msg.payload().try_into().unwrap());
        assert_eq!(i, s.fetch_add(1, Ordering::Relaxed), "trip out of order");
        if pe.my_pe() == 1 {
            pe.sync_send_and_free(0, msg);
        } else if i + 1 < trips {
            pe.sync_send_and_free(1, Message::new(msg.handler(), &(i + 1).to_le_bytes()));
        }
        if i + 1 == trips {
            csd_exit_scheduler(pe);
        }
    });
    pe.barrier();
    if pe.my_pe() == 0 {
        pe.sync_send_and_free(1, Message::new(h, &0u64.to_le_bytes()));
    }
    csd_scheduler(pe, -1);
    assert_eq!(seen.load(Ordering::Relaxed), trips);
    pe.barrier();
}

/// The ping-pong through the whole stack — handlers, Csd scheduler,
/// `idle_wait` — parking at once when idle.
#[test]
fn scheduler_ping_pong_parks_every_trip() {
    converse::core::run_with(MachineConfig::new(2).idle_spin(0), |pe| {
        scheduler_ping_pong(pe, 200_000)
    });
}

/// And on every transport. On `socket` a reader thread delivers into
/// the same mailbox, so the doorbell is rung from outside the PE
/// threads; on `shmring` no reader thread exists: the PE parks on its
/// rings' doorbell and its own sweep moves what arrived into the
/// mailbox. A tenth of the trips: each rank of a wire run is a
/// re-execution of this binary that first replays the earlier
/// iterations in-process.
#[test]
fn scheduler_ping_pong_parks_every_trip_on_each_transport() {
    for &t in converse::machine::Transport::each() {
        let cfg = MachineConfig::new(2).transport(t).idle_spin(0);
        converse::core::run_with(cfg, |pe| scheduler_ping_pong(pe, 20_000));
    }
}
