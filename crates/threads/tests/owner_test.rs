//! The run token follows control. On the hand-off backend a PE's
//! contexts are distinct OS threads, one running at a time; each must be
//! able to use the PE's owner-only state while it runs, and see what the
//! context before it left there. And the thread API itself is
//! owner-only: a foreign OS thread that calls it panics, in release
//! builds too (the fiber state's old affinity check was a
//! `debug_assert!`).

use converse_machine::{Message, Pe};
use converse_queue::QueueingMode;
use converse_threads::{
    cth_awaken, cth_create, cth_resume, cth_self, cth_suspend, run_on_each_backend, CthBackend,
    CthRuntime,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;

/// Take the message the previous context left on the scheduler queue,
/// leave one of our own, and note which OS thread did it.
fn relay(pe: &Pe, h: converse_machine::HandlerId, expect: &[u8], leave: &[u8]) -> ThreadId {
    assert!(pe.owner().held_by_current_thread());
    assert_eq!(pe.queue_len(), 1);
    let m = pe.queue_dequeue().expect("the previous context's message");
    assert_eq!(m.payload(), expect);
    pe.queue_enqueue(Message::new(h, leave), QueueingMode::Fifo);
    std::thread::current().id()
}

#[test]
fn the_token_follows_main_to_a_to_b_and_back() {
    run_on_each_backend(1, |pe| {
        let h = pe.register_handler(|_, _| {});
        let seen: Arc<Mutex<Vec<(&'static str, ThreadId)>>> = Arc::default();
        let (sa, sb) = (seen.clone(), seen.clone());
        let b = cth_create(pe, move |pe| {
            let os = relay(pe, h, b"from a", b"from b");
            sb.lock().unwrap().push(("b", os));
            // Returns: no strategy, empty ready pool — control goes to
            // the main context.
        });
        let b2 = b.clone();
        let a = cth_create(pe, move |pe| {
            let os = relay(pe, h, b"from main", b"from a");
            sa.lock().unwrap().push(("a", os));
            cth_resume(pe, &b2);
            // Resumed by main for the second leg.
            let os = relay(pe, h, b"from main again", b"from a again");
            assert_eq!(cth_self(pe).map(|t| t.id()), Some(2), "a is thread 2");
            sa.lock().unwrap().push(("a", os));
        });
        pe.queue_enqueue(Message::new(h, b"from main"), QueueingMode::Fifo);
        cth_resume(pe, &a);
        // Back in main, by way of b.
        let os = relay(pe, h, b"from b", b"from main again");
        seen.lock().unwrap().push(("main", os));
        assert!(b.is_exited() && !a.is_exited());
        cth_resume(pe, &a);
        assert!(a.is_exited());
        assert_eq!(pe.queue_dequeue().unwrap().payload(), b"from a again");

        let seen = seen.lock().unwrap();
        let order: Vec<_> = seen.iter().map(|(who, _)| *who).collect();
        assert_eq!(order, ["a", "b", "main", "a"]);
        let main_os = std::thread::current().id();
        let (a_os, b_os) = (seen[0].1, seen[1].1);
        assert_eq!(seen[2].1, main_os);
        assert_eq!(seen[3].1, a_os, "a thread object keeps its OS thread");
        match CthRuntime::get(pe).backend() {
            CthBackend::Handoff => {
                assert!(a_os != main_os && b_os != main_os && a_os != b_os);
            }
            CthBackend::Fiber => assert!(a_os == main_os && b_os == main_os),
        }
    });
}

#[test]
fn the_thread_api_panics_on_a_foreign_os_thread() {
    run_on_each_backend(1, |pe| {
        let t = cth_create(pe, |pe| loop {
            cth_suspend(pe)
        });
        cth_resume(pe, &t);
        let pe_arc = pe.arc();
        let side_by_side = Barrier::new(2);
        std::thread::scope(|s| {
            let foreign = s.spawn(|| {
                side_by_side.wait();
                let tries: [Box<dyn FnOnce() + Send>; 4] = [
                    Box::new(|| cth_awaken(&pe_arc, &t)),
                    Box::new(|| cth_resume(&pe_arc, &t)),
                    Box::new(|| drop(cth_self(&pe_arc))),
                    Box::new(|| {
                        let _ = CthRuntime::get(&pe_arc).stack_pool_stats(pe);
                    }),
                ];
                tries.map(|f| catch_unwind(AssertUnwindSafe(f)).is_err())
            });
            side_by_side.wait();
            // The owner uses the same state meanwhile.
            for _ in 0..1_000 {
                cth_resume(pe, &t);
            }
            let panicked = foreign.join().expect("panics were caught");
            let stats_are_owner_only = CthRuntime::get(pe).backend() == CthBackend::Fiber;
            assert_eq!(panicked, [true, true, true, stats_are_owner_only]);
        });
        assert_eq!(CthRuntime::get(pe).ready_len(pe), 0);
    });
}

/// A thread object holds the run token while it runs — on the hand-off
/// backend on an OS thread of its own — so its sends to its own PE take
/// the PE's local queue like the main context's, in one order with them.
#[test]
fn a_thread_objects_self_sends_take_the_local_queue_in_order() {
    run_on_each_backend(1, |pe| {
        let got: Arc<Mutex<Vec<u8>>> = Arc::default();
        let g = got.clone();
        let h = pe.register_handler(move |_, m| g.lock().unwrap().push(m.payload()[0]));
        let t = cth_create(pe, move |pe| {
            pe.sync_send_and_free(0, Message::new(h, &[1]));
            pe.sync_send_and_free(0, Message::new(h, &[2]));
        });
        pe.sync_send_and_free(0, Message::new(h, &[0]));
        cth_resume(pe, &t);
        assert!(t.is_exited());
        pe.sync_send_and_free(0, Message::new(h, &[3]));
        assert_eq!(
            pe.load_snapshot()[0].queued,
            0,
            "a self-send crossed the mailbox"
        );
        assert_eq!(pe.inbound_pending(), 4);
        pe.deliver_until(|| got.lock().unwrap().len() == 4);
        assert_eq!(*got.lock().unwrap(), [0, 1, 2, 3]);
    });
}
