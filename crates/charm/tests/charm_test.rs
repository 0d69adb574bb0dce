//! Message-driven object runtime: chare creation via seeds, async entry
//! methods, prioritized invocation, and quiescence-driven termination.

use converse_charm::{Chare, ChareId, Charm};
use converse_core::{csd_scheduler, Message, Pe};
use converse_ldb::LdbPolicy;
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::Priority;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A chare that accumulates values and reports its total when asked.
struct Accumulator {
    total: i64,
    report_to: usize,
    report_h: u32,
}

const EP_ADD: u32 = 0;
const EP_REPORT: u32 = 1;

impl Chare for Accumulator {
    fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self {
        let mut u = Unpacker::new(payload);
        let report_to = u.usize().unwrap();
        let report_h = u.u32().unwrap();
        let announce_h = u.u32().unwrap();
        // Mail our identity to the creator so it can invoke us.
        pe.sync_send_and_free(
            report_to,
            Message::new(converse_core::HandlerId(announce_h), &self_id.encode()),
        );
        Accumulator {
            total: 0,
            report_to,
            report_h,
        }
    }

    fn entry(&mut self, pe: &Pe, _self_id: ChareId, ep: u32, payload: &[u8]) {
        match ep {
            EP_ADD => {
                let v = i64::from_le_bytes(payload.try_into().unwrap());
                self.total += v;
            }
            EP_REPORT => {
                pe.sync_send_and_free(
                    self.report_to,
                    Message::new(
                        converse_core::HandlerId(self.report_h),
                        &self.total.to_le_bytes(),
                    ),
                );
            }
            _ => panic!("unknown entry {ep}"),
        }
    }
}

#[test]
fn create_invoke_and_report_roundtrip() {
    converse_core::run(4, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Random { seed: 11 });
        let kind = charm.register::<Accumulator>(pe);
        let id_slot = pe.local(|| parking_lot::Mutex::new(None::<ChareId>));
        let result = pe.local(|| parking_lot::Mutex::new(None::<i64>));
        let id2 = id_slot.clone();
        let announce = pe.register_handler(move |_pe, msg| {
            *id2.lock() = ChareId::decode(msg.payload());
        });
        let r2 = result.clone();
        let report = pe.register_handler(move |pe, msg| {
            *r2.lock() = Some(i64::from_le_bytes(msg.payload().try_into().unwrap()));
            converse_core::csd_exit_scheduler(pe);
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let payload = Packer::new()
                .usize(0)
                .u32(report.0)
                .u32(announce.0)
                .finish();
            charm.create(pe, kind, &payload, Priority::None);
            // Pump until the chare announces itself.
            converse_core::schedule_until(pe, || id_slot.lock().is_some());
            let id = id_slot.lock().unwrap();
            for v in [3i64, 4, 5] {
                charm.send(pe, id, EP_ADD, &v.to_le_bytes(), Priority::None);
            }
            charm.send(pe, id, EP_REPORT, b"", Priority::None);
            converse_core::schedule_until(pe, || result.lock().is_some());
            assert_eq!(result.lock().unwrap(), 12);
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}

/// Fibonacci with chares: the classic Charm demo. fib(n) spawns fib(n-1)
/// and fib(n-2) as new chares and sums their responses.
struct Fib {
    #[allow(dead_code)]
    n: u64,
    pending: u8,
    acc: u64,
    parent: Option<ChareId>,
    root_report: Option<u32>,
    #[allow(dead_code)]
    kind: u32,
}

const EP_RESULT: u32 = 0;

impl Chare for Fib {
    fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self {
        let mut u = Unpacker::new(payload);
        let n = u.u64().unwrap();
        let kind = u.u32().unwrap();
        let has_parent = u.u8().unwrap() == 1;
        let (parent, root_report) = if has_parent {
            (ChareId::decode(u.raw(16).unwrap()), None)
        } else {
            (None, Some(u.u32().unwrap()))
        };
        let mut me = Fib {
            n,
            pending: 0,
            acc: 0,
            parent,
            root_report,
            kind,
        };
        if n < 2 {
            me.finish(pe, n, self_id);
        } else {
            let charm = Charm::get(pe);
            for k in [n - 1, n - 2] {
                let child_payload = Packer::new()
                    .u64(k)
                    .u32(kind)
                    .u8(1)
                    .raw(&self_id.encode())
                    .finish();
                charm.create(
                    pe,
                    converse_charm::ChareKind(kind),
                    &child_payload,
                    Priority::None,
                );
                me.pending += 1;
            }
        }
        me
    }

    fn entry(&mut self, pe: &Pe, self_id: ChareId, ep: u32, payload: &[u8]) {
        assert_eq!(ep, EP_RESULT);
        self.acc += u64::from_le_bytes(payload.try_into().unwrap());
        self.pending -= 1;
        if self.pending == 0 {
            let total = self.acc;
            self.finish(pe, total, self_id);
        }
    }
}

impl Fib {
    fn finish(&mut self, pe: &Pe, value: u64, _self_id: ChareId) {
        let charm = Charm::get(pe);
        match (self.parent, self.root_report) {
            (Some(p), _) => charm.send(pe, p, EP_RESULT, &value.to_le_bytes(), Priority::None),
            (None, Some(h)) => pe.sync_send_and_free(
                0,
                Message::new(converse_core::HandlerId(h), &value.to_le_bytes()),
            ),
            _ => unreachable!(),
        }
    }
}

#[test]
fn fibonacci_tree_of_chares_across_pes() {
    converse_core::run(4, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Random { seed: 5 });
        let kind = charm.register::<Fib>(pe);
        let result = pe.local(|| parking_lot::Mutex::new(None::<u64>));
        let r2 = result.clone();
        let report = pe.register_handler(move |pe, msg| {
            *r2.lock() = Some(u64::from_le_bytes(msg.payload().try_into().unwrap()));
            Charm::get(pe).exit_all(pe);
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let payload = Packer::new()
                .u64(10)
                .u32(kind.0)
                .u8(0)
                .u32(report.0)
                .finish();
            charm.create(pe, kind, &payload, Priority::None);
        }
        csd_scheduler(pe, -1);
        pe.barrier();
        if pe.my_pe() == 0 {
            assert_eq!(result.lock().unwrap(), 55, "fib(10)");
        }
        // The tree was spread over the machine, not just PE 0.
        let created = charm.chares_created(pe);
        pe.cmi_printf(format!("PE {} created {} chares", pe.my_pe(), created));
    });
}

#[test]
fn priorities_order_entry_execution() {
    // One chare, three invocations with priorities: execution follows
    // priority order because invocations pass through the Csd queue.
    converse_core::run(1, |pe| {
        struct Recorder {
            log: Arc<parking_lot::Mutex<Vec<i32>>>,
        }
        static LOG: std::sync::OnceLock<Arc<parking_lot::Mutex<Vec<i32>>>> =
            std::sync::OnceLock::new();
        impl Chare for Recorder {
            fn new(_pe: &Pe, _id: ChareId, _payload: &[u8]) -> Self {
                Recorder {
                    log: LOG.get().unwrap().clone(),
                }
            }
            fn entry(&mut self, _pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
                self.log
                    .lock()
                    .push(i32::from_le_bytes(payload.try_into().unwrap()));
            }
        }
        let log = LOG
            .get_or_init(|| Arc::new(parking_lot::Mutex::new(Vec::new())))
            .clone();
        log.lock().clear();
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register::<Recorder>(pe);
        charm.create(pe, kind, b"", Priority::None);
        csd_scheduler(pe, 1); // construct it (slot 1 on this PE)
        let id = ChareId { pe: 0, slot: 1 };
        for v in [4i32, -9, 0] {
            charm.send(pe, id, 0, &v.to_le_bytes(), Priority::Int(v));
        }
        // Each send needs two scheduler steps: first-handler (retarget +
        // enqueue) then execution; deliver everything.
        converse_core::csd_scheduler_until_idle(pe);
        assert_eq!(*log.lock(), vec![-9, 0, 4]);
    });
}

#[test]
fn destroy_frees_slot() {
    converse_core::run(1, |pe| {
        struct Noop;
        impl Chare for Noop {
            fn new(_pe: &Pe, _id: ChareId, _p: &[u8]) -> Self {
                Noop
            }
            fn entry(&mut self, _pe: &Pe, _id: ChareId, _ep: u32, _p: &[u8]) {}
        }
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register::<Noop>(pe);
        charm.create(pe, kind, b"", Priority::None);
        csd_scheduler(pe, 1);
        assert_eq!(charm.local_chares(pe), 1);
        let id = ChareId { pe: 0, slot: 1 };
        assert!(charm.destroy(pe, id));
        assert!(!charm.destroy(pe, id));
        assert_eq!(charm.local_chares(pe), 0);
    });
}

#[test]
fn quiescence_fires_after_fib_completes() {
    let fired = Arc::new(AtomicU64::new(0));
    let f2 = fired.clone();
    converse_core::run(2, move |pe| {
        let charm = Charm::install(pe, LdbPolicy::Random { seed: 3 });
        let kind = charm.register::<Fib>(pe);
        let result = pe.local(|| parking_lot::Mutex::new(None::<u64>));
        let r2 = result.clone();
        let report = pe.register_handler(move |_pe, msg| {
            *r2.lock() = Some(u64::from_le_bytes(msg.payload().try_into().unwrap()));
        });
        let f3 = f2.clone();
        let quiet = pe.register_handler(move |pe, _| {
            f3.fetch_add(1, Ordering::SeqCst);
            Charm::get(pe).exit_all(pe);
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let payload = Packer::new()
                .u64(8)
                .u32(kind.0)
                .u8(0)
                .u32(report.0)
                .finish();
            charm.create(pe, kind, &payload, Priority::None);
            charm.quiescence().start(pe, Message::new(quiet, b""));
        }
        csd_scheduler(pe, -1);
        pe.barrier();
        if pe.my_pe() == 0 {
            // Quiescence implies the result had already been reported.
            assert_eq!(result.lock().unwrap(), 21, "fib(8)");
        }
    });
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}
