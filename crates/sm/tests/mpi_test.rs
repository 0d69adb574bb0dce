//! The MPI-style layer (§3.1.3's "possible to provide an efficient
//! MPI-style retrieval on top of this interface"): pairwise FIFO even
//! under adversarial delivery, with the cost paid only by its users.

use converse_core::{run, run_with, MachineConfig};
use converse_machine::DeliveryMode;
use converse_sm::mpi::{Mpi, ANY};

#[test]
fn pairwise_fifo_under_reordered_delivery() {
    // The raw net scrambles order (window 16); MPI resequencing must
    // restore exact per-pair send order.
    let cfg = MachineConfig::new(2).delivery(DeliveryMode::Reorder {
        seed: 31,
        window: 16,
    });
    run_with(cfg, |pe| {
        let mpi = Mpi::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            for i in 0..200u32 {
                mpi.send(pe, 1, 5, &i.to_le_bytes());
            }
        } else {
            for i in 0..200u32 {
                let m = mpi.recv(pe, 5, ANY);
                assert_eq!(
                    u32::from_le_bytes(m.data.try_into().unwrap()),
                    i,
                    "MPI ordering violated"
                );
            }
            assert_eq!(mpi.held(pe), 0, "resequencer drained");
            assert_eq!(mpi.pending(pe), 0);
        }
        pe.barrier();
    });
}

#[test]
fn tag_and_source_matching_with_wildcards() {
    run(3, |pe| {
        let mpi = Mpi::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            // Both peers send on two tags.
            let m = mpi.recv(pe, 7, 2);
            assert_eq!((m.tag, m.src), (7, 2));
            let m = mpi.recv(pe, ANY, 1);
            assert_eq!(m.src, 1);
            let m = mpi.recv(pe, 8, ANY);
            assert_eq!(m.tag, 8);
            let m = mpi.recv(pe, ANY, ANY);
            std::hint::black_box(m);
        } else {
            mpi.send(pe, 0, 7, b"seven");
            mpi.send(pe, 0, 8, b"eight");
        }
        pe.barrier();
    });
}

#[test]
fn sendrecv_exchanges_between_neighbours() {
    run(4, |pe| {
        let mpi = Mpi::install(pe);
        pe.barrier();
        let right = (pe.my_pe() + 1) % pe.num_pes();
        let left = (pe.my_pe() + pe.num_pes() - 1) % pe.num_pes();
        let m = mpi.sendrecv(
            pe,
            right,
            1,
            &(pe.my_pe() as u64).to_le_bytes(),
            1,
            left as i32,
        );
        assert_eq!(u64::from_le_bytes(m.data.try_into().unwrap()), left as u64);
        pe.barrier();
    });
}

#[test]
fn interleaved_tags_keep_per_pair_order() {
    let cfg = MachineConfig::new(2).delivery(DeliveryMode::Reorder { seed: 9, window: 8 });
    run_with(cfg, |pe| {
        let mpi = Mpi::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            for i in 0..50u32 {
                mpi.send(pe, 1, (i % 2) as i32 + 10, &i.to_le_bytes());
            }
        } else {
            // Receiving per tag: each tag's stream preserves send order.
            for tag in [10i32, 11] {
                let mut prev = None;
                for _ in 0..25 {
                    let m = mpi.recv(pe, tag, ANY);
                    let v = u32::from_le_bytes(m.data.try_into().unwrap());
                    if let Some(p) = prev {
                        assert!(v > p, "tag {tag}: {v} after {p}");
                    }
                    prev = Some(v);
                }
            }
        }
        pe.barrier();
    });
}

#[test]
fn probe_sees_admitted_only() {
    run(2, |pe| {
        let mpi = Mpi::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            assert!(mpi.probe(pe, 3, ANY).is_none());
            let m = mpi.recv(pe, 3, ANY);
            assert_eq!(m.data, b"x");
        } else {
            mpi.send(pe, 0, 3, b"x");
        }
        pe.barrier();
    });
}
