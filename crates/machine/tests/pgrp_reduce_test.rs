//! Processor-group reductions (EMI §3.1.3): group-scoped global
//! operations along the group's own spanning tree.

use converse_machine::pgrp::Pgrp;
use converse_machine::{run, Message};

fn sum_combiner(pe: &converse_machine::Pe) -> converse_machine::coll::CombinerId {
    pe.register_combiner(|a, b| {
        let x = i64::from_le_bytes(a.try_into().unwrap());
        let y = i64::from_le_bytes(b.try_into().unwrap());
        (x + y).to_le_bytes().to_vec()
    })
}

fn sample_group() -> Pgrp {
    // Root 1, children 3 and 4; 4 has child 0. PEs 2 and 5 excluded.
    let mut g = Pgrp::create(1);
    g.add_children(1, &[3, 4]);
    g.add_children(4, &[0]);
    g
}

#[test]
fn group_reduce_sums_members_only() {
    run(6, |pe| {
        let sum = sum_combiner(pe);
        let g = sample_group();
        pe.barrier();
        if g.is_member(pe.my_pe()) {
            let contrib = (pe.my_pe() as i64 + 1).to_le_bytes().to_vec();
            let out = pe.pgrp_reduce(&g, 7, contrib, sum);
            if pe.my_pe() == 1 {
                // Members 1, 3, 4, 0 → contributions 2 + 4 + 5 + 1 = 12.
                let total = i64::from_le_bytes(out.unwrap().try_into().unwrap());
                assert_eq!(total, 12);
            } else {
                assert!(out.is_none());
            }
        }
        pe.barrier();
    });
}

#[test]
fn concurrent_group_reductions_by_tag() {
    run(6, |pe| {
        let sum = sum_combiner(pe);
        let g = sample_group();
        pe.barrier();
        if g.is_member(pe.my_pe()) {
            // Two back-to-back reductions distinguished by tag; the
            // second's contributions may overtake the first's under
            // load, so tags must keep them apart.
            let a = pe.pgrp_reduce(&g, 100, 1i64.to_le_bytes().to_vec(), sum);
            let b = pe.pgrp_reduce(&g, 101, 10i64.to_le_bytes().to_vec(), sum);
            if pe.my_pe() == 1 {
                assert_eq!(i64::from_le_bytes(a.unwrap().try_into().unwrap()), 4);
                assert_eq!(i64::from_le_bytes(b.unwrap().try_into().unwrap()), 40);
            }
        }
        pe.barrier();
    });
}

#[test]
fn group_tag_equal_to_a_machine_sequence_number_stays_apart() {
    run(6, |pe| {
        let sum = sum_combiner(pe);
        let g = sample_group();
        // The barrier takes machine sequence numbers 0 and 1, so the
        // allreduce below runs its up-wave as number 2 — the group's tag.
        pe.barrier();
        let me = pe.my_pe() as i64;
        // Members reduce first, then everyone joins the allreduce: PE 1
        // waits for children 3 and 4 in both trees, and their machine
        // contributions can arrive while it still waits for their group
        // ones.
        if g.is_member(pe.my_pe()) {
            let out = pe.pgrp_reduce(&g, 2, (1000 * (me + 1)).to_le_bytes().to_vec(), sum);
            if pe.my_pe() == 1 {
                // Members 1, 3, 4, 0.
                assert_eq!(i64::from_le_bytes(out.unwrap().try_into().unwrap()), 12_000);
            }
        }
        let all = pe.allreduce_bytes((me + 1).to_le_bytes().to_vec(), sum);
        assert_eq!(i64::from_le_bytes(all.try_into().unwrap()), 21);
        pe.barrier();
    });
}

#[test]
fn singleton_group_reduce() {
    run(2, |pe| {
        let sum = sum_combiner(pe);
        pe.barrier();
        if pe.my_pe() == 1 {
            let g = Pgrp::create(1);
            let out = pe.pgrp_reduce(&g, 1, 99i64.to_le_bytes().to_vec(), sum);
            assert_eq!(i64::from_le_bytes(out.unwrap().try_into().unwrap()), 99);
        }
        pe.barrier();
    });
}

#[test]
fn group_reduce_with_multicast_roundtrip() {
    // Root multicasts a question; members reduce their answers back.
    // Multicast payloads are delivered by *handler* (point-of-arrival
    // dispatch), so members observe it through a flag, not a blocking
    // receive.
    run(4, |pe| {
        let sum = sum_combiner(pe);
        let asked = pe.local(|| std::sync::atomic::AtomicU64::new(0));
        let a2 = asked.clone();
        let question = pe.register_handler(move |_pe, msg| {
            assert_eq!(msg.payload(), b"contribute!");
            a2.store(1, std::sync::atomic::Ordering::SeqCst);
        });
        let mut g = Pgrp::create(0);
        g.add_children(0, &[1, 2, 3]);
        pe.barrier();
        if pe.my_pe() == 0 {
            let h = pe.async_multicast(&g, &Message::new(question, b"contribute!"));
            pe.release_comm_handle(h);
            let out = pe.pgrp_reduce(&g, 5, 0i64.to_le_bytes().to_vec(), sum);
            assert_eq!(
                i64::from_le_bytes(out.unwrap().try_into().unwrap()),
                1 + 2 + 3
            );
        } else {
            // Wait for the question, then contribute my PE id.
            pe.deliver_until(|| asked.load(std::sync::atomic::Ordering::SeqCst) == 1);
            let out = pe.pgrp_reduce(&g, 5, (pe.my_pe() as i64).to_le_bytes().to_vec(), sum);
            assert!(out.is_none());
        }
        pe.barrier();
    });
}

#[test]
#[should_panic(expected = "non-member")]
fn non_member_reduce_panics() {
    // catch_unwind-free: the panic propagates out of run().
    run(3, |pe| {
        let sum = sum_combiner(pe);
        let g = Pgrp::create(0); // only PE 0 belongs
        if pe.my_pe() == 1 {
            let _ = pe.pgrp_reduce(&g, 1, vec![], sum);
        }
    });
}
