//! Quasi-dynamic load balancing: phase-boundary redistribution of live
//! migratable chares, with message forwarding keeping traffic correct.

use converse_charm::{Chare, ChareId, Charm, MigratableChare};
use converse_core::{csd_scheduler, csd_scheduler_until_idle, run, Message, Pe};
use converse_ldb::LdbPolicy;
use converse_msg::Priority;

/// A trivially migratable stateful chare.
struct Cell {
    value: i64,
}

impl Chare for Cell {
    fn new(_pe: &Pe, _id: ChareId, payload: &[u8]) -> Self {
        Cell {
            value: i64::from_le_bytes(payload.try_into().unwrap()),
        }
    }
    fn entry(&mut self, pe: &Pe, _id: ChareId, ep: u32, payload: &[u8]) {
        match ep {
            0 => self.value += i64::from_le_bytes(payload.try_into().unwrap()),
            1 => {
                let h =
                    converse_core::HandlerId(u32::from_le_bytes(payload[..4].try_into().unwrap()));
                pe.sync_send_and_free(0, Message::new(h, &self.value.to_le_bytes()));
            }
            _ => unreachable!(),
        }
    }
}

impl MigratableChare for Cell {
    fn pack(&self) -> Vec<u8> {
        self.value.to_le_bytes().to_vec()
    }
    fn unpack(_pe: &Pe, _id: ChareId, data: &[u8]) -> Self {
        Cell {
            value: i64::from_le_bytes(data.try_into().unwrap()),
        }
    }
}

#[test]
fn rebalance_evens_out_a_skewed_population() {
    run(4, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_migratable::<Cell>(pe);
        pe.barrier();
        // All 12 cells are born on PE 0 (Direct policy).
        if pe.my_pe() == 0 {
            for v in 0..12i64 {
                charm.create(pe, kind, &v.to_le_bytes(), Priority::None);
            }
        }
        csd_scheduler_until_idle(pe);
        pe.barrier();
        let before = charm.local_migratable(pe);
        if pe.my_pe() == 0 {
            assert_eq!(before, 12);
        } else {
            assert_eq!(before, 0);
        }
        // Phase boundary: everyone rebalances.
        let report = charm.rebalance_sync(pe);
        assert_eq!(charm.local_migratable(pe), 3, "PE {} balanced", pe.my_pe());
        if pe.my_pe() == 0 {
            assert_eq!(report.moved_out.len(), 9);
            assert_eq!(report.expected_in, 0);
        } else {
            assert_eq!(report.expected_in, 3);
            assert!(report.moved_out.is_empty());
        }
        pe.barrier();
    });
}

#[test]
fn state_and_reachability_survive_rebalancing() {
    run(3, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_migratable::<Cell>(pe);
        let result = pe.local(|| parking_lot::Mutex::new(Vec::<i64>::new()));
        let r2 = result.clone();
        let report = pe.register_handler(move |_pe, msg| {
            r2.lock()
                .push(i64::from_le_bytes(msg.payload().try_into().unwrap()));
        });
        pe.barrier();
        // 6 cells on PE 0, values 100..105; bump each by 1 pre-balance.
        let ids: Vec<ChareId> = if pe.my_pe() == 0 {
            for v in 100..106i64 {
                charm.create(pe, kind, &v.to_le_bytes(), Priority::None);
            }
            csd_scheduler_until_idle(pe);
            (1..=6).map(|slot| ChareId { pe: 0, slot }).collect()
        } else {
            Vec::new()
        };
        if pe.my_pe() == 0 {
            for id in &ids {
                charm.send(pe, *id, 0, &1i64.to_le_bytes(), Priority::None);
            }
            csd_scheduler_until_idle(pe);
        }
        pe.barrier();
        charm.rebalance_sync(pe);
        // Post-balance: message the ORIGINAL ids; stubs must forward.
        if pe.my_pe() == 0 {
            for id in &ids {
                charm.send(pe, *id, 1, &report.0.to_le_bytes(), Priority::None);
            }
            converse_core::schedule_until(pe, || result.lock().len() == 6);
            let mut got = result.lock().clone();
            got.sort_unstable();
            assert_eq!(got, vec![101, 102, 103, 104, 105, 106]);
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}

#[test]
fn rebalance_on_balanced_machine_is_noop() {
    run(2, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_migratable::<Cell>(pe);
        pe.barrier();
        // Each PE creates two of its own.
        for v in 0..2i64 {
            charm.create(pe, kind, &v.to_le_bytes(), Priority::None);
        }
        csd_scheduler_until_idle(pe);
        pe.barrier();
        let report = charm.rebalance_sync(pe);
        assert!(report.moved_out.is_empty());
        assert_eq!(report.expected_in, 0);
        assert_eq!(charm.local_migratable(pe), 2);
        pe.barrier();
    });
}
