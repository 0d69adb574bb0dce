//! Cross-paradigm integration tests — the paper's *raison d'être*:
//! SPM modules, message-driven objects, and threads interleaved in one
//! program under one scheduler (§2.2, §4).

use converse::charm::{Chare, ChareId, Charm};
use converse::dp::{Dp, Op};
use converse::ldb::LdbPolicy;
use converse::prelude::*;
use converse::sm::{pvm, Sm, ANY};
use converse::sync::CtsBarrier;
use converse::threads::CthRuntime;
use converse::trace::MemorySink;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// §3.1.2 footnote 1, executed literally: "The SPM module may carry out
/// a possibly parallel computation with sends and receives, and then
/// invoke a function f in a concurrent module … this module may change
/// its state and deposit some messages for other entities. When this
/// function f returns, the SPM module explicitly invokes the scheduler,
/// which executes the concurrent computations triggered by the
/// previously deposited messages."
#[test]
fn spm_module_donates_time_to_message_driven_module() {
    converse::core::run(2, |pe| {
        let sm = Sm::install(pe);
        // The "concurrent module": handlers that bounce a counter
        // between PEs K times, entirely message-driven.
        let hops = pe.local(|| AtomicU64::new(0));
        let h2 = hops.clone();
        let slot = pe.local(|| Mutex::new(None::<HandlerId>));
        let s2 = slot.clone();
        let bounce = pe.register_handler(move |pe, msg| {
            let k = u64::from_le_bytes(msg.payload().try_into().unwrap());
            h2.fetch_add(1, Ordering::SeqCst);
            if k > 0 {
                let h = s2.lock().unwrap();
                let dst = 1 - pe.my_pe();
                pe.sync_send_and_free(dst, Message::new(h, &(k - 1).to_le_bytes()));
            }
        });
        *slot.lock() = Some(bounce);
        pe.barrier();

        // Phase 1 (explicit control): a classic SPM exchange.
        if pe.my_pe() == 0 {
            sm.send(pe, 1, 1, b"phase-1");
            // Deposit work for the concurrent module…
            pe.sync_send_and_free(1, Message::new(bounce, &10u64.to_le_bytes()));
        } else {
            let m = sm.recv(pe, 1, ANY);
            assert_eq!(m.data, b"phase-1");
        }
        // Phase 2 (implicit control): explicitly relinquish the PE to the
        // scheduler for a bounded number of messages — ScheduleFor(n).
        // The k=10 bounce alternates PEs: PE1 handles k=10,8,…,0 (six
        // messages), PE0 handles k=9,7,…,1 (five).
        let expected_local = if pe.my_pe() == 1 { 6 } else { 5 };
        while hops.load(Ordering::SeqCst) < expected_local {
            csd_scheduler(pe, 1);
        }
        // Phase 3: back in SPM style, verify with a reduction.
        let dp = Dp::install(pe);
        let total = dp.allreduce(pe, hops.load(Ordering::SeqCst) as i64, Op::Sum);
        assert_eq!(total, 11, "10 bounces + initial message all ran");
        pe.barrier();
    });
}

/// The paper's FMA sketch (§4), miniaturized: an SPM tree-build phase, a
/// message-driven cell phase (chares), and a threaded phase where cells'
/// logic talks along tree edges with tagged messages — all three
/// paradigms in one run.
#[test]
fn fma_style_three_paradigm_pipeline() {
    converse::core::run(4, |pe| {
        // --- shared registrations (same order everywhere) ---
        let charm = Charm::install(pe, LdbPolicy::Random { seed: 21 });
        let sm = Sm::install(pe);
        let dp = Dp::install(pe);

        struct Cell;
        impl Chare for Cell {
            fn new(_pe: &Pe, _id: ChareId, _payload: &[u8]) -> Self {
                Cell
            }
            fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
                // Forward the particle count to PE0's collector via SM.
                let sm = Sm::get(pe);
                sm.send(pe, 0, 77, payload);
            }
        }
        let kind = charm.register::<Cell>(pe);
        let ids = pe.local(|| Mutex::new(Vec::<ChareId>::new()));
        let i2 = ids.clone();
        let announce = pe.register_handler(move |_pe, msg| {
            i2.lock().extend(ChareId::decode(msg.payload()));
        });
        pe.barrier();

        // --- phase 1 (SPM): "tree build" = a deterministic partition,
        // agreed via a reduction. ---
        let my_particles = (pe.my_pe() + 1) as i64 * 3;
        let total_particles = dp.allreduce(pe, my_particles, Op::Sum);
        assert_eq!(total_particles, 3 + 6 + 9 + 12);

        // --- phase 2 (message-driven): one cell chare per PE's data,
        // created as seeds that may root anywhere. ---
        struct Announcer;
        impl Chare for Announcer {
            fn new(pe: &Pe, id: ChareId, payload: &[u8]) -> Self {
                let h = HandlerId(u32::from_le_bytes(payload[..4].try_into().unwrap()));
                pe.sync_send_and_free(0, Message::new(h, &id.encode()));
                let _ = id;
                Announcer
            }
            fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
                Sm::get(pe).send(pe, 0, 77, payload);
            }
        }
        let akind = charm.register::<Announcer>(pe);
        let _ = kind;
        if pe.my_pe() == 0 {
            for _ in 0..4 {
                charm.create(pe, akind, &announce.0.to_le_bytes(), Priority::None);
            }
            // Pump until all four cells announced themselves.
            schedule_until(pe, || ids.lock().len() == 4);
            let cells = ids.lock().clone();
            for (k, id) in cells.iter().enumerate() {
                charm.send(
                    pe,
                    *id,
                    0,
                    &((k as i64 + 1) * 3).to_le_bytes(),
                    Priority::None,
                );
            }
        }
        // Everyone serves the scheduler until PE0 has collected all
        // counts through the SM layer (phase 3, threaded on PE0).
        if pe.my_pe() == 0 {
            let collected = Arc::new(AtomicU64::new(0));
            let c2 = collected.clone();
            let sm2 = sm.clone();
            sm.tspawn(pe, move |pe| {
                let mut sum = 0i64;
                for _ in 0..4 {
                    let m = sm2.trecv(pe, 77, ANY);
                    sum += i64::from_le_bytes(m.data.try_into().unwrap());
                }
                c2.store(sum as u64, Ordering::SeqCst);
                csd_exit_scheduler(pe);
            });
            csd_scheduler(pe, -1);
            assert_eq!(collected.load(Ordering::SeqCst) as i64, total_particles);
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}

/// Threads of two different "modules" with different scheduling
/// strategies coexist: csd-scheduled tSM threads and a manually-driven
/// thread barrier group.
#[test]
fn mixed_thread_strategies_one_scheduler() {
    converse::core::run(1, |pe| {
        let rt = CthRuntime::get(pe);
        let bar = CtsBarrier::new(pe, 3);
        let log = pe.local(|| Mutex::new(Vec::<String>::new()));
        for i in 0..3 {
            let b = bar.clone();
            let l = log.clone();
            rt.spawn_scheduled(pe, move |pe| {
                l.lock().push(format!("t{i} before"));
                b.at_barrier(pe);
                l.lock().push(format!("t{i} after"));
            });
        }
        csd_scheduler_until_idle(pe);
        let log = log.lock();
        assert_eq!(log.len(), 6);
        let first_after = log.iter().position(|s| s.ends_with("after")).unwrap();
        assert_eq!(first_after, 3, "barrier separates the phases");
    });
}

/// Priorities from two modules interleave correctly in the one queue:
/// Charm entry invocations and prioritized thread wakeups.
#[test]
fn unified_queue_orders_across_modules() {
    converse::core::run(1, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let rt = CthRuntime::get(pe);
        let order = pe.local(|| Mutex::new(Vec::<String>::new()));

        struct P(Arc<Mutex<Vec<String>>>);
        static LOG: std::sync::OnceLock<Arc<Mutex<Vec<String>>>> = std::sync::OnceLock::new();
        impl Chare for P {
            fn new(_pe: &Pe, _id: ChareId, _p: &[u8]) -> Self {
                P(LOG.get().unwrap().clone())
            }
            fn entry(&mut self, _pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
                self.0.lock().push(format!("chare p{}", payload[0]));
            }
        }
        let shared = LOG.get_or_init(|| Arc::new(Mutex::new(Vec::new()))).clone();
        shared.lock().clear();
        let kind = charm.register::<P>(pe);
        charm.create(pe, kind, b"", Priority::None);
        csd_scheduler(pe, 1);
        let id = ChareId { pe: 0, slot: 1 };

        // Thread at priority -5, chare messages at -10 and +10.
        let o2 = shared.clone();
        rt.spawn_scheduled_prio(pe, Priority::Int(-5), move |_pe| {
            o2.lock().push("thread".into());
        });
        charm.send(pe, id, 0, &[10], Priority::Int(10));
        charm.send(pe, id, 0, &[1], Priority::Int(-10));
        csd_scheduler_until_idle(pe);
        assert_eq!(
            *shared.lock(),
            vec![
                "chare p1".to_string(),
                "thread".to_string(),
                "chare p10".to_string()
            ]
        );
        let _ = order;
    });
}

/// Tracing spans the paradigms: one MemorySink records sends, handler
/// executions, thread lifecycle and object creation from a mixed run.
#[test]
fn trace_captures_mixed_paradigm_run() {
    let sink = MemorySink::new(2, 100_000);
    let cfg = MachineConfig::new(2).trace(sink.clone());
    converse::core::run_with(cfg, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        struct Noop;
        impl Chare for Noop {
            fn new(_pe: &Pe, _id: ChareId, _p: &[u8]) -> Self {
                Noop
            }
            fn entry(&mut self, _pe: &Pe, _id: ChareId, _ep: u32, _p: &[u8]) {}
        }
        let kind = charm.register::<Noop>(pe);
        let rt = CthRuntime::get(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            charm.create(pe, kind, b"", Priority::None);
            rt.spawn_scheduled(pe, |_pe| {});
            csd_scheduler_until_idle(pe);
        }
        pe.barrier();
    });
    let summary = sink.summary();
    assert!(
        summary.total_sends() > 0,
        "collective + charm traffic traced"
    );
    assert!(summary.total_handler_runs() > 0);
    let p0 = &summary.pes[0];
    assert_eq!(p0.objects_created, 1, "the chare construction was traced");
    assert_eq!(p0.threads_created, 1);
    assert!(p0.enqueues >= 1, "seed rooting went through the queue");
}

/// PVM-facade module and a Charm module exchange data through a shared
/// handler — "pre-existing libraries written in different languages can
/// be reused in a single application" (§4).
#[test]
fn pvm_module_feeds_charm_module() {
    converse::core::run(2, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        Sm::install(pe);

        struct Doubler;
        static OUT: std::sync::OnceLock<Arc<AtomicU64>> = std::sync::OnceLock::new();
        impl Chare for Doubler {
            fn new(_pe: &Pe, _id: ChareId, _p: &[u8]) -> Self {
                Doubler
            }
            fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
                let v = u64::from_le_bytes(payload.try_into().unwrap());
                OUT.get().unwrap().store(v * 2, Ordering::SeqCst);
                csd_exit_scheduler(pe);
            }
        }
        let out = OUT.get_or_init(|| Arc::new(AtomicU64::new(0))).clone();
        let kind = charm.register::<Doubler>(pe);
        pe.barrier();
        if pe.my_pe() == 1 {
            // The "PVM program" sends a value to PE 0.
            pvm::send(pe, 0, 5, &21u64.to_le_bytes());
        } else {
            // The "Charm program" receives it SPM-style, then hands it to
            // a chare for message-driven processing.
            let m = pvm::recv(pe, 5, -1);
            charm.create(pe, kind, b"", Priority::None);
            schedule_until(pe, || Charm::get(pe).local_chares(pe) == 1); // construct
            let id = ChareId { pe: 0, slot: 1 };
            charm.send(pe, id, 0, &m.data, Priority::None);
            csd_scheduler(pe, -1);
            assert_eq!(out.load(Ordering::SeqCst), 42);
        }
        pe.barrier();
    });
}

/// The "coordination language in about 100 lines" claim (§4): a
/// message-driven-threads language built from Cmm + Cth + Csd. Here we
/// verify the example crate's language works end-to-end; the line count
/// is reported in EXPERIMENTS.md.
#[test]
fn coordination_language_smoke() {
    // The language lives in examples/coordination_lang.rs; this test
    // re-implements its tiny core inline to pin the semantics: threads
    // with single-tag sends and blocking receives.
    converse::core::run(2, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            let sm1 = sm.clone();
            let done = Arc::new(AtomicU64::new(0));
            let d2 = done.clone();
            sm.tspawn(pe, move |pe| {
                sm1.send(pe, 1, 1, b"ping");
                let m = sm1.trecv(pe, 2, ANY);
                assert_eq!(m.data, b"pong");
                d2.store(1, Ordering::SeqCst);
                csd_exit_scheduler(pe);
            });
            csd_scheduler(pe, -1);
            assert_eq!(done.load(Ordering::SeqCst), 1);
        } else {
            let sm1 = sm.clone();
            sm.tspawn(pe, move |pe| {
                let m = sm1.trecv(pe, 1, ANY);
                assert_eq!(m.data, b"ping");
                sm1.send(pe, m.src, 2, b"pong");
                csd_exit_scheduler(pe);
            });
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}
