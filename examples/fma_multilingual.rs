//! The paper's §4 motivating example, miniaturized: a Fast-Multipole-
//! style pipeline where each phase uses the paradigm that fits it.
//!
//! * **Phase 1 — SPM (explicit control):** recursively partition a set
//!   of particles over the PEs; loosely synchronous, implemented with
//!   data-parallel collectives.
//! * **Phase 2 — message-driven objects:** one `Cell` chare per spatial
//!   bin, created as load-balanced seeds; particles are mailed to their
//!   cells, and each cell starts computing "as soon as all of its
//!   particles have arrived" — no barrier.
//! * **Phase 3 — threads:** per-cell summaries travel up a combining
//!   tree of tSM threads communicating with tagged messages, PVM-style.
//!
//! ```sh
//! cargo run --example fma_multilingual
//! ```

use converse::charm::{Chare, ChareId, Charm};
use converse::dp::{Dp, Op};
use converse::ldb::LdbPolicy;
use converse::prelude::*;
use converse::sm::{Sm, ANY};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

const CELLS: usize = 8;
const PARTICLES_PER_PE: usize = 64;
/// SM tag for phase-3 summaries.
const TAG_SUMMARY: i32 = 7;

/// A spatial bin: collects its particles' masses, then emits a summary.
struct Cell {
    index: u64,
    expected: u64,
    received: u64,
    mass: f64,
}

impl Chare for Cell {
    fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self {
        let mut u = Unpacker::new(payload);
        let index = u.u64().expect("cell index");
        let expected = u.u64().expect("expected particles");
        let announce = HandlerId(u.u32().expect("announce handler"));
        // Tell PE 0 where this cell lives so particles can be routed.
        let body = Packer::new().u64(index).raw(&self_id.encode()).finish();
        pe.sync_send_and_free(0, Message::new(announce, &body));
        Cell {
            index,
            expected,
            received: 0,
            mass: 0.0,
        }
    }

    fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
        // One particle: accumulate. When the last arrives, the cell
        // "continues execution as soon as all of its particles have
        // arrived" — it reports without waiting for other cells.
        self.mass += f64::from_le_bytes(payload.try_into().unwrap());
        self.received += 1;
        if self.received == self.expected {
            let body = Packer::new().u64(self.index).f64(self.mass).finish();
            Sm::get(pe).send(pe, 0, TAG_SUMMARY, &body);
        }
    }
}

fn main() {
    converse::core::run(4, |pe| {
        let charm = Charm::install(
            pe,
            LdbPolicy::Spray {
                threshold: 2,
                max_hops: 3,
            },
        );
        let sm = Sm::install(pe);
        let dp = Dp::install(pe);
        let kind = charm.register::<Cell>(pe);

        let cells = pe.local(|| Mutex::new(vec![None::<ChareId>; CELLS]));
        let c2 = cells.clone();
        let announce = pe.register_handler(move |_pe, msg| {
            let mut u = Unpacker::new(msg.payload());
            let idx = u.u64().unwrap() as usize;
            let id = ChareId::decode(u.raw(16).unwrap()).unwrap();
            c2.lock()[idx] = Some(id);
        });
        // Directory broadcast: an ordinary message (not a collective), so
        // PEs can keep serving their scheduler while they wait for it.
        let c3 = cells.clone();
        let directory_h = pe.register_handler(move |_pe, msg| {
            let mut cs = c3.lock();
            for (c, chunk) in msg.payload().chunks(16).enumerate() {
                cs[c] = ChareId::decode(chunk);
            }
        });
        pe.barrier();

        // ---- Phase 1: SPM partitioning. Deterministic "particles":
        // each PE owns PARTICLES_PER_PE of them; a particle's cell is a
        // hash of its global index; its mass is index-derived.
        let my_lo = pe.my_pe() * PARTICLES_PER_PE;
        let particles: Vec<(usize, f64)> = (0..PARTICLES_PER_PE)
            .map(|k| {
                let g = my_lo + k;
                ((g * 2654435761) % CELLS, (g % 10) as f64 + 0.5)
            })
            .collect();
        // Agree on per-cell particle counts with an SPM reduction per cell.
        let mut cell_counts = [0i64; CELLS];
        for (c, _) in &particles {
            cell_counts[*c] += 1;
        }
        let mut cell_totals = [0i64; CELLS];
        for (total, count) in cell_totals.iter_mut().zip(cell_counts) {
            *total = dp.allreduce(pe, count, Op::Sum);
        }
        let grand_total: i64 = cell_totals.iter().sum();
        if pe.my_pe() == 0 {
            pe.cmi_printf(format!(
                "phase 1 (SPM): {} particles over {} cells: {:?}",
                grand_total, CELLS, cell_totals
            ));
        }

        // ---- Phase 2: message-driven cells. PE 0 seeds one chare per
        // cell; the load balancer scatters them.
        if pe.my_pe() == 0 {
            for (c, total) in cell_totals.iter().enumerate() {
                let payload = Packer::new()
                    .u64(c as u64)
                    .u64(*total as u64)
                    .u32(announce.0)
                    .finish();
                charm.create(pe, kind, &payload, Priority::None);
            }
            // Learn every cell's address, then broadcast the directory.
            schedule_until(pe, || cells.lock().iter().all(|c| c.is_some()));
            let dir: Vec<u8> = {
                let cs = cells.lock();
                cs.iter().flat_map(|c| c.unwrap().encode()).collect()
            };
            pe.sync_broadcast(&Message::new(directory_h, &dir));
        } else {
            // Serve seeds and announcements (a cell may root HERE) while
            // waiting for the directory message.
            schedule_until(pe, || cells.lock().iter().all(|c| c.is_some()));
        }
        let directory: Vec<ChareId> = cells
            .lock()
            .iter()
            .map(|c| c.expect("directory complete"))
            .collect();

        // Mail every particle to its cell, from every PE, no barrier.
        for (c, mass) in &particles {
            charm.send(pe, directory[*c], 0, &mass.to_le_bytes(), Priority::None);
        }

        // ---- Phase 3: a tSM thread on PE 0 combines cell summaries as
        // they stream in; other PEs keep serving their cells.
        if pe.my_pe() == 0 {
            let sm2 = sm.clone();
            let done = pe.local(|| AtomicU64::new(0));
            let d2 = done.clone();
            sm.tspawn(pe, move |pe| {
                let mut total_mass = 0.0;
                for _ in 0..CELLS {
                    let m = sm2.trecv(pe, TAG_SUMMARY, ANY);
                    let mut u = Unpacker::new(&m.data);
                    let idx = u.u64().unwrap();
                    let mass = u.f64().unwrap();
                    pe.cmi_printf(format!("phase 3 (threads): cell {idx} mass {mass:.1}"));
                    total_mass += mass;
                }
                pe.cmi_printf(format!("total mass: {total_mass:.1}"));
                d2.store(1, Ordering::SeqCst);
                Charm::get(pe).exit_all(pe);
            });
            csd_scheduler(pe, -1);
            assert_eq!(done.load(Ordering::SeqCst), 1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
        if pe.my_pe() == 0 {
            pe.cmi_printf("three paradigms, one scheduler, one run");
        }
    });
}
