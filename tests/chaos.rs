//! Chaos harness: the whole stack running over a deterministic
//! adversarial interconnect.
//!
//! Every test builds its [`FaultPlan`] from one seed, so one run is one
//! reproducible adversarial schedule. The seed comes from the
//! `CHAOS_SEED` environment variable when set (CI runs a fixed seed
//! matrix); replay any failure with
//! `CHAOS_SEED=<seed> cargo test --release --test chaos`.

use converse::ccs::{self, CcsClient, CcsError, CcsRegistry, CcsServer, CcsServerConfig};
use converse::charm::{Chare, ChareId, Charm, MigratableChare};
use converse::ldb::LdbPolicy;
use converse::machine::{DeliveryMode, FaultPlan, LinkFaults};
use converse::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of this run's adversarial schedule.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The canonical lossy mix: 20% drop, 10% duplication, 30% of copies
/// delayed up to 3 slots — the acceptance-criteria plan, with timing
/// tight enough for tests.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .faults(LinkFaults {
            drop: 0.2,
            dup: 0.1,
            delay: 0.3,
            max_delay_slots: 3,
        })
        .retransmit(Duration::from_micros(600), Duration::from_millis(8))
        .tick(Duration::from_micros(250))
}

/// Collectives — reduce up-wave, broadcast down-wave, barriers — must
/// complete with correct values over a lossy **and** reordering wire:
/// the reliability sublayer restores per-link exactly-once, and the
/// collective protocol itself tolerates the scrambled arrival order.
#[test]
fn collectives_complete_under_lossy_reorder_plan() {
    const PES: usize = 4;
    const ROUNDS: u64 = 12;
    let seed = chaos_seed();
    let report = converse::core::run_with(
        MachineConfig::new(PES)
            .delivery(DeliveryMode::Reorder {
                seed: seed ^ 0xD15C0,
                window: 4,
            })
            .faults(lossy_plan(seed)),
        move |pe| {
            let sum = pe.register_combiner(|a, b| {
                let x = u64::from_le_bytes(a.try_into().unwrap());
                let y = u64::from_le_bytes(b.try_into().unwrap());
                (x + y).to_le_bytes().to_vec()
            });
            pe.barrier();
            for round in 0..ROUNDS {
                // Up-wave: tree reduction of a round-stamped value.
                let mine = (pe.my_pe() as u64 + 1) * (round + 1);
                let all = pe.allreduce_bytes(mine.to_le_bytes().to_vec(), sum);
                let expect: u64 = (1..=PES as u64).map(|p| p * (round + 1)).sum();
                assert_eq!(
                    u64::from_le_bytes(all.try_into().unwrap()),
                    expect,
                    "allreduce corrupted in round {round}"
                );
                // Down-wave: root broadcast, every PE must see it intact.
                let payload = if pe.my_pe() == 0 {
                    Some(round.to_le_bytes().to_vec())
                } else {
                    None
                };
                let got = pe.bcast_bytes(0, payload);
                assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), round);
                pe.barrier();
            }
        },
    );
    let s = report.fault_stats;
    assert!(
        s.dropped > 0 && s.retransmitted > 0 && s.dedup_dropped > 0,
        "the plan was supposed to bite: {s:?}"
    );
}

/// The migration-stress workload on a lossy wire: objects bounce
/// between PEs while senders fire at the original id, and still no
/// message may be lost or duplicated.
struct Sponge {
    sum: u64,
    count: u64,
}

impl Chare for Sponge {
    fn new(_pe: &Pe, _id: ChareId, _payload: &[u8]) -> Self {
        Sponge { sum: 0, count: 0 }
    }
    fn entry(&mut self, pe: &Pe, _id: ChareId, ep: u32, payload: &[u8]) {
        match ep {
            0 => {
                self.sum += u64::from_le_bytes(payload.try_into().unwrap());
                self.count += 1;
            }
            1 => {
                let h = HandlerId(u32::from_le_bytes(payload[..4].try_into().unwrap()));
                let mut out = self.sum.to_le_bytes().to_vec();
                out.extend_from_slice(&self.count.to_le_bytes());
                pe.sync_send_and_free(0, Message::new(h, &out));
            }
            _ => unreachable!(),
        }
    }
}

impl MigratableChare for Sponge {
    fn pack(&self) -> Vec<u8> {
        let mut out = self.sum.to_le_bytes().to_vec();
        out.extend_from_slice(&self.count.to_le_bytes());
        out
    }
    fn unpack(_pe: &Pe, _id: ChareId, data: &[u8]) -> Self {
        Sponge {
            sum: u64::from_le_bytes(data[..8].try_into().unwrap()),
            count: u64::from_le_bytes(data[8..16].try_into().unwrap()),
        }
    }
}

#[test]
fn migration_under_lossy_plan_loses_nothing() {
    const SENDS_PER_ROUND: u64 = 20;
    const ROUNDS: usize = 5;
    let finals = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let f2 = finals.clone();
    converse::core::run_with(
        MachineConfig::new(4).faults(lossy_plan(chaos_seed())),
        move |pe| {
            let charm = Charm::install(pe, LdbPolicy::Direct);
            let kind = charm.register_migratable::<Sponge>(pe);
            let f3 = f2.clone();
            let report = pe.register_handler(move |pe, msg| {
                f3.0.store(
                    u64::from_le_bytes(msg.payload()[..8].try_into().unwrap()),
                    Ordering::SeqCst,
                );
                f3.1.store(
                    u64::from_le_bytes(msg.payload()[8..16].try_into().unwrap()),
                    Ordering::SeqCst,
                );
                Charm::get(pe).exit_all(pe);
            });
            pe.barrier();
            if pe.my_pe() == 0 {
                charm.create(pe, kind, b"", Priority::None);
                converse_core::schedule_until(pe, || charm.local_chares(pe) == 1);
                let id = ChareId { pe: 0, slot: 1 };
                let mut value = 1u64;
                for round in 0..ROUNDS {
                    for _ in 0..SENDS_PER_ROUND {
                        charm.send(pe, id, 0, &value.to_le_bytes(), Priority::None);
                        value += 1;
                    }
                    if round == 0 {
                        assert!(charm.migrate(pe, id, 1));
                    }
                    csd_scheduler(pe, 10);
                }
                let qd = charm.quiescence();
                let probe = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
                qd.start(pe, Message::new(probe, b""));
                csd_scheduler(pe, -1);
                charm.send(pe, id, 1, &report.0.to_le_bytes(), Priority::None);
                csd_scheduler(pe, -1);
            } else {
                csd_scheduler(pe, -1);
            }
            pe.barrier();
        },
    );
    let total_sends = SENDS_PER_ROUND * ROUNDS as u64;
    assert_eq!(
        finals.1.load(Ordering::SeqCst),
        total_sends,
        "every send executed exactly once over the lossy wire"
    );
    assert_eq!(
        finals.0.load(Ordering::SeqCst),
        (1..=total_sends).sum::<u64>(),
        "payloads intact"
    );
}

/// A scripted stall window must pause a PE, not deadlock the machine:
/// the stalled PE's scheduler wakes when the window passes and drains
/// everything, within a hard wall-clock bound.
#[test]
fn scripted_stall_window_does_not_deadlock_scheduler() {
    const MSGS: u64 = 50;
    let t0 = Instant::now();
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    converse::core::run_with(
        MachineConfig::new(2).faults(lossy_plan(chaos_seed())),
        move |pe| {
            let s3 = s2.clone();
            let h = pe.register_handler(move |pe, _msg| {
                if s3.fetch_add(1, Ordering::SeqCst) + 1 == MSGS {
                    csd_exit_scheduler(pe);
                }
            });
            pe.barrier();
            if pe.my_pe() == 0 {
                // Stall PE 1 *after* the boot barrier, then fire at it:
                // everything queues inside the window and drains after.
                pe.stall_pe(1, Duration::from_millis(200));
                assert!(pe.pe_stalled(1));
                for _ in 0..MSGS {
                    pe.sync_send_and_free(1, Message::new(h, b""));
                }
            } else {
                csd_scheduler(pe, -1);
            }
            pe.barrier();
        },
    );
    assert_eq!(seen.load(Ordering::SeqCst), MSGS);
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "stall window wedged the scheduler for {:?}",
        t0.elapsed()
    );
}

/// The tSM thread fabric on the **fiber backend** over the lossy wire:
/// eight token-ring lanes of blocking-receive threads per PE. Every hop
/// asserts the exact expected token value, so any lost, duplicated, or
/// misordered wakeup of a suspended fiber fails loudly — exactly-once
/// delivery must survive both the adversarial net and the ~20 ns
/// user-level context switches underneath `trecv`.
#[test]
fn fiber_threads_token_rings_survive_lossy_plan() {
    use converse::sm::{Sm, ANY};
    const PES: usize = 4;
    const LANES: i32 = 8;
    const ROUNDS: u64 = 6;
    let report = converse::core::run_with(
        MachineConfig::new(PES)
            .thread_backend(converse::machine::ThreadBackend::Fiber)
            .faults(lossy_plan(chaos_seed())),
        move |pe| {
            let sm = Sm::install(pe);
            let me = pe.my_pe();
            let next = (me + 1) % PES;
            let lanes_done = Arc::new(AtomicU64::new(0));
            pe.barrier();
            for lane in 0..LANES {
                let sm2 = sm.clone();
                let done = lanes_done.clone();
                let v0 = lane as u64 * 1000;
                sm.tspawn(pe, move |pe| {
                    if me == 0 {
                        sm2.send(pe, next, lane, &v0.to_le_bytes());
                    }
                    for round in 0..ROUNDS {
                        let m = sm2.trecv(pe, lane, ANY);
                        let v = u64::from_le_bytes(m.data.try_into().unwrap());
                        let expect = if me == 0 {
                            v0 + (round + 1) * PES as u64 - 1
                        } else {
                            v0 + round * PES as u64 + me as u64 - 1
                        };
                        assert_eq!(
                            v, expect,
                            "lane {lane} hop corrupted on PE {me}, round {round}"
                        );
                        let last = me == 0 && round == ROUNDS - 1;
                        if !last {
                            sm2.send(pe, next, lane, &(v + 1).to_le_bytes());
                        }
                    }
                    if done.fetch_add(1, Ordering::SeqCst) + 1 == LANES as u64 {
                        csd_exit_scheduler(pe);
                    }
                });
            }
            csd_scheduler(pe, -1);
            assert_eq!(lanes_done.load(Ordering::SeqCst), LANES as u64);
            pe.barrier();
        },
    );
    let s = report.fault_stats;
    assert!(
        s.dropped > 0 && s.retransmitted > 0,
        "the plan was supposed to bite: {s:?}"
    );
}

// ---- CCS under chaos --------------------------------------------------

/// Call with retry: early requests race PE-side registration.
fn call_retry(c: &mut CcsClient, name: &str, pe: usize, payload: &[u8]) -> Vec<u8> {
    for _ in 0..400 {
        match c.call(name, pe, payload) {
            Ok(bytes) => return bytes,
            Err(CcsError::Status { code, .. }) if code == ccs::status::UNKNOWN_HANDLER => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("ccs call {name:?} failed: {e}"),
        }
    }
    panic!("ccs call {name:?} still unresolved after retries");
}

/// Registration set shared by the CCS chaos tests (same order on every
/// PE, as the handler-table discipline requires).
fn serve_chaos(pe: &Pe, registry: &CcsRegistry) {
    let _charm = Charm::install(pe, LdbPolicy::Direct);
    registry.register(pe, "whoami", |pe, _msg| {
        let token = ccs::current_token(pe).expect("gateway dispatch");
        ccs::send_reply(pe, token, &[pe.my_pe() as u8]);
    });
    // Arm a stall window on another PE: payload = target PE byte +
    // window millis u16. Runtime arming (not a boot-time plan window)
    // because the registration barriers above must complete first.
    registry.register(pe, "stall-pe", |pe, msg| {
        let token = ccs::current_token(pe).expect("gateway dispatch");
        let target = msg.payload()[0] as usize;
        let ms = u16::from_le_bytes(msg.payload()[1..3].try_into().unwrap()) as u64;
        pe.stall_pe(target, Duration::from_millis(ms));
        ccs::send_reply(pe, token, b"stalled");
    });
    registry.register(pe, "exit", |pe, _msg| {
        Charm::get(pe).exit_all(pe);
    });
    pe.barrier();
    csd_scheduler(pe, -1);
}

/// External round-trips survive the lossy+reorder wire: every pipelined
/// request gets its own intact reply.
#[test]
fn ccs_round_trips_survive_lossy_reorder_plan() {
    let seed = chaos_seed();
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    let driver = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(20))).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            call_retry(&mut c, "whoami", 0, b"");
            // Pipeline a burst across all PEs; collect in reverse so
            // matching is by sequence number, not arrival order.
            let tickets: Vec<_> = (0..48usize)
                .map(|i| (i, c.submit("whoami", i % 4, b"").expect("submit")))
                .collect();
            for (i, t) in tickets.into_iter().rev() {
                let r = c.wait_ok(t).expect("reply survived the chaos");
                assert_eq!(r[0] as usize, i % 4, "reply from the addressed PE");
            }
        }));
        let _ = c.submit("exit", 0, b"");
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    });

    let reg2 = registry.clone();
    converse::core::run_with(
        MachineConfig::new(4)
            .delivery(DeliveryMode::Reorder {
                seed: seed ^ 0xCC5,
                window: 6,
            })
            .faults(lossy_plan(seed))
            .attach(Box::new(server)),
        move |pe| serve_chaos(pe, &reg2),
    );
    driver.join().expect("driver thread");
}

/// A request aimed at a stalled PE degrades to a deadline error instead
/// of hanging, and destination-less routing steers around the stalled
/// PE for the duration of its window.
#[test]
fn stalled_pe_yields_deadline_error_and_any_pe_routes_around() {
    const STALLED: usize = 2;
    const WINDOW_MS: u16 = 1200;
    let registry = CcsRegistry::new();
    let server = CcsServer::new(
        registry.clone(),
        CcsServerConfig {
            request_timeout: Duration::from_millis(120),
            ..CcsServerConfig::default()
        },
    );
    let handle = server.handle();

    let driver = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(20))).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            call_retry(&mut c, "whoami", 0, b"");
            // Arm the stall from PE 1 (the arming PE keeps running).
            let mut arm = vec![STALLED as u8];
            arm.extend_from_slice(&WINDOW_MS.to_le_bytes());
            assert_eq!(call_retry(&mut c, "stall-pe", 1, &arm), b"stalled");

            // Addressed call into the window: the server times out each
            // attempt, the client retries, and the overall deadline
            // surfaces as an error — never a hang.
            let t0 = Instant::now();
            match c.call_with_deadline("whoami", STALLED, b"", Duration::from_millis(400)) {
                Err(CcsError::DeadlineExceeded { attempts, .. }) => {
                    assert!(attempts >= 2, "deadline window should fit retries");
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "deadline call must return promptly"
            );

            // Destination-less calls while the window is open must
            // route around the stalled PE.
            for _ in 0..6 {
                let r = c
                    .call_any_with_deadline("whoami", b"", Duration::from_secs(5))
                    .expect("routed call");
                assert_ne!(r[0] as usize, STALLED, "ANY_PE landed on the stalled PE");
            }

            // After the window the PE drains its queue and serves again.
            let r = c
                .call_with_deadline(
                    "whoami",
                    STALLED,
                    b"",
                    Duration::from_millis(WINDOW_MS as u64 * 3),
                )
                .expect("stalled PE recovers after its window");
            assert_eq!(r[0] as usize, STALLED);
        }));
        let _ = c.submit("exit", 0, b"");
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    });

    let reg2 = registry.clone();
    converse::core::run_with(MachineConfig::new(4).attach(Box::new(server)), move |pe| {
        serve_chaos(pe, &reg2)
    });
    driver.join().expect("driver thread");
}
