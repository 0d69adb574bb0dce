//! SM/tSM behaviour: SPM blocking receive, tag matching, threaded
//! receive overlap, and the PVM/NX facades.
//!
//! The tSM tests (thread-blocking receives) run on **each available
//! thread backend** via [`run_on_each_backend`]: tSM is written purely
//! against the `cth_*` API and must behave identically on fibers and on
//! hand-off OS threads.

use converse_core::{csd_scheduler, csd_scheduler_until_idle, run};
use converse_sm::{nx, pvm, Sm, ANY};
use converse_threads::run_on_each_backend;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn spm_send_recv_roundtrip() {
    run(2, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            sm.send(pe, 1, 17, b"hello sm");
            let reply = sm.recv(pe, 18, ANY);
            assert_eq!(reply.data, b"HELLO SM");
            assert_eq!(reply.src, 1);
        } else {
            let m = sm.recv(pe, 17, ANY);
            assert_eq!(m.data, b"hello sm");
            assert_eq!(m.src, 0);
            let upper: Vec<u8> = m.data.iter().map(|b| b.to_ascii_uppercase()).collect();
            sm.send(pe, 0, 18, &upper);
        }
        pe.barrier();
    });
}

#[test]
fn recv_by_specific_tag_buffers_others() {
    run(2, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            for tag in [1, 2, 3] {
                sm.send(pe, 1, tag, &[tag as u8]);
            }
        } else {
            // Ask for tag 3 first: 1 and 2 must be buffered, not lost.
            let m3 = sm.recv(pe, 3, ANY);
            assert_eq!(m3.data, vec![3]);
            assert_eq!(sm.buffered(pe), 2);
            assert_eq!(sm.probe(pe, 1, ANY), Some(1));
            let m1 = sm.recv(pe, 1, ANY);
            let m2 = sm.recv(pe, 2, ANY);
            assert_eq!((m1.data[0], m2.data[0]), (1, 2));
            assert_eq!(sm.buffered(pe), 0);
        }
        pe.barrier();
    });
}

#[test]
fn recv_by_source_wildcarded_tag() {
    run(3, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            // Both peers send tag 5; receive specifically from PE 2 first.
            let m = sm.recv(pe, 5, 2);
            assert_eq!(m.src, 2);
            let m = sm.recv(pe, 5, 1);
            assert_eq!(m.src, 1);
        } else {
            sm.send(pe, 0, 5, &[pe.my_pe() as u8]);
        }
        pe.barrier();
    });
}

#[test]
fn fifo_order_per_tag() {
    run(2, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            for i in 0..20u8 {
                sm.send(pe, 1, 9, &[i]);
            }
        } else {
            for i in 0..20u8 {
                assert_eq!(sm.recv(pe, 9, ANY).data, vec![i]);
            }
        }
        pe.barrier();
    });
}

#[test]
fn threaded_recv_overlaps_with_other_threads() {
    // Two tSM threads on PE0 block on different tags; messages arrive in
    // the opposite order; both complete — the scheduler interleaves them
    // (the paper's "maximal overlap" motivation for implicit control).
    run_on_each_backend(2, |pe| {
        let sm = Sm::install(pe);
        let log = pe.local(|| Mutex::new(Vec::<i32>::new()));
        pe.barrier();
        if pe.my_pe() == 0 {
            for tag in [100, 200] {
                let sm2 = sm.clone();
                let l2 = log.clone();
                sm.tspawn(pe, move |pe| {
                    let m = sm2.trecv(pe, tag, ANY);
                    l2.lock().push(tag);
                    assert_eq!(m.data, tag.to_le_bytes());
                    if l2.lock().len() == 2 {
                        converse_core::csd_exit_scheduler(pe);
                    }
                });
            }
            csd_scheduler(pe, -1);
            // 200 arrived first, so it completed first.
            assert_eq!(*log.lock(), vec![200, 100]);
        } else {
            std::thread::sleep(std::time::Duration::from_millis(30));
            sm.send(pe, 0, 200, &200i32.to_le_bytes());
            std::thread::sleep(std::time::Duration::from_millis(30));
            sm.send(pe, 0, 100, &100i32.to_le_bytes());
        }
        pe.barrier();
    });
}

#[test]
fn trecv_finds_already_buffered_message() {
    run_on_each_backend(1, |pe| {
        let sm = Sm::install(pe);
        sm.send(pe, 0, 7, b"early");
        // Deliver it into the mailbox via the scheduler.
        csd_scheduler_until_idle(pe);
        assert_eq!(sm.buffered(pe), 1);
        let sm2 = sm.clone();
        let got = Arc::new(AtomicU64::new(0));
        let g2 = got.clone();
        sm.tspawn(pe, move |pe| {
            let m = sm2.trecv(pe, 7, ANY);
            assert_eq!(m.data, b"early");
            g2.store(1, Ordering::SeqCst);
        });
        csd_scheduler_until_idle(pe);
        assert_eq!(got.load(Ordering::SeqCst), 1);
    });
}

#[test]
fn many_threads_tagged_pipeline() {
    // A ring of tSM threads on one PE: thread i waits for tag i, then
    // sends tag i+1. Exercises waiter bookkeeping under load.
    run_on_each_backend(1, |pe| {
        let sm = Sm::install(pe);
        let n = 30i32;
        let done = Arc::new(AtomicU64::new(0));
        for i in 1..n {
            let sm2 = sm.clone();
            let d = done.clone();
            sm.tspawn(pe, move |pe| {
                let m = sm2.trecv(pe, i, ANY);
                assert_eq!(m.data, i.to_le_bytes());
                sm2.send(pe, 0, i + 1, &(i + 1).to_le_bytes());
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        sm.send(pe, 0, 1, &1i32.to_le_bytes());
        csd_scheduler_until_idle(pe);
        assert_eq!(done.load(Ordering::SeqCst), (n - 1) as u64);
        // The final send (tag n) remains buffered, unclaimed.
        assert_eq!(sm.buffered(pe), 1);
    });
}

#[test]
fn pvm_facade_wildcards() {
    run(2, |pe| {
        Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            pvm::send(pe, 1, 42, b"pvm payload");
        } else {
            assert!(pvm::probe(pe, -1, -1).is_none(), "nothing buffered yet");
            let m = pvm::recv(pe, -1, -1);
            assert_eq!(m.tag, 42);
            assert_eq!(m.src, 0);
            assert_eq!(m.data, b"pvm payload");
        }
        pe.barrier();
    });
}

#[test]
fn nx_facade_type_matching() {
    run(2, |pe| {
        Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            nx::csend(pe, 3, b"typed", 1);
            nx::csend(pe, 4, b"other", 1);
        } else {
            let m = nx::crecv(pe, 4);
            assert_eq!(m.data, b"other");
            assert!(nx::cprobe(pe, 3));
            let m = nx::crecv(pe, -1);
            assert_eq!(m.data, b"typed");
        }
        pe.barrier();
    });
}

#[test]
fn pvm_recv_inside_thread_uses_threaded_path() {
    run_on_each_backend(2, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            let ok = Arc::new(AtomicU64::new(0));
            let ok2 = ok.clone();
            sm.tspawn(pe, move |pe| {
                let m = pvm::recv(pe, 77, -1); // threaded blocking
                assert_eq!(m.data, b"via thread");
                ok2.store(1, Ordering::SeqCst);
                converse_core::csd_exit_scheduler(pe);
            });
            csd_scheduler(pe, -1);
            assert_eq!(ok.load(Ordering::SeqCst), 1);
        } else {
            std::thread::sleep(std::time::Duration::from_millis(40));
            pvm::send(pe, 0, 77, b"via thread");
        }
        pe.barrier();
    });
}

/// `send_parts` delivers the concatenation of its parts, whether the
/// receive takes the message off the wire or out of the message manager.
#[test]
fn parts_arrive_joined() {
    run(2, |pe| {
        let sm = Sm::install(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            sm.send_parts(pe, 1, 5, &[b"he", b"", b"llo"]);
            sm.send_parts(pe, 1, 6, &[]);
            converse_sm::tsm::send_parts(pe, 1, 7, &[b"a", b"b"]);
        } else {
            // Tag 7 first: 5 and 6 pass through the message manager.
            assert_eq!(sm.recv(pe, 7, ANY).data, b"ab");
            assert_eq!(sm.recv(pe, 5, 0).data, b"hello");
            assert_eq!(sm.recv(pe, 6, ANY).data, b"");
        }
        pe.barrier();
    });
}

/// A tSM receiver stays posted once however it is woken: something else
/// awakening it must not leave a second, stale registration behind for a
/// later message to trip over after the thread has gone.
#[test]
fn spurious_wakeup_leaves_no_stale_receiver() {
    run_on_each_backend(1, |pe| {
        let sm = Sm::install(pe);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let t = sm.tspawn(pe, move |pe| {
            let m = converse_sm::tsm::receive(pe, 5);
            g.lock().push(m.data.to_vec());
        });
        csd_scheduler_until_idle(pe); // blocks in its receive
        converse_threads::cth_awaken(pe, &t); // not by its message
        csd_scheduler_until_idle(pe); // looks, finds nothing, blocks again
        assert!(got.lock().is_empty() && !t.is_exited());
        sm.send(pe, 0, 5, b"first");
        csd_scheduler_until_idle(pe);
        assert_eq!(*got.lock(), vec![b"first".to_vec()]);
        assert!(t.is_exited());
        // Nobody waits for tag 5 any more: the next one is buffered.
        sm.send(pe, 0, 5, b"second");
        csd_scheduler_until_idle(pe);
        assert_eq!(sm.buffered(pe), 1);
        assert_eq!(sm.probe(pe, 5, ANY), Some(6));
    });
}

/// Receivers and messages under one tag: a receiver is served by the
/// earliest arrival its pattern matches, wildcards on either side, and
/// what nobody waits for is buffered in arrival order.
#[test]
fn receivers_are_served_in_posting_order_by_what_they_match() {
    run_on_each_backend(1, |pe| {
        let sm = Sm::install(pe);
        let log = Arc::new(Mutex::new(Vec::<(&str, i32, Vec<u8>)>::new()));
        for (who, tag, src) in [("any", ANY, ANY), ("nine-from-0", 9, 0), ("nine", 9, ANY)] {
            let (sm2, l) = (sm.clone(), log.clone());
            sm.tspawn(pe, move |pe| {
                let m = sm2.trecv(pe, tag, src);
                l.lock().push((who, m.tag, m.data.to_vec()));
            });
        }
        csd_scheduler_until_idle(pe); // all three posted, in that order
        assert_eq!(sm.buffered(pe), 0);
        for (tag, data) in [(9, b"a"), (9, b"b"), (4, b"c"), (9, b"d")] {
            sm.send(pe, 0, tag, data);
        }
        csd_scheduler_until_idle(pe);
        assert_eq!(
            *log.lock(),
            vec![
                ("any", 9, b"a".to_vec()),
                ("nine-from-0", 9, b"b".to_vec()),
                ("nine", 9, b"d".to_vec())
            ]
        );
        assert_eq!(sm.buffered(pe), 1);
        assert_eq!(sm.recv(pe, ANY, ANY).data, b"c");
    });
}
