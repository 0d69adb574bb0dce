//! The run token, checked: each misuse of a PE's owner-only state that
//! safe code can attempt — a foreign thread, a re-entrant access,
//! another PE's token — panics (in release builds too) instead of
//! racing, and leaves the state usable by its owner.

use converse_machine::{run, Message, OwnerCell, Pe};
use converse_queue::QueueingMode;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// The message of the panic `f` raises (`None` if it returns).
fn panic_of<R>(f: impl FnOnce() -> R) -> Option<String> {
    let p = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| (*s).into()),
    })
}

/// A foreign `std::thread` holding `pe.arc()` calls into the scheduler
/// queue while the PE's own thread is using it. The barrier puts the two
/// side by side; with the old uncontended `Mutex` the calls simply
/// succeeded, and with an unchecked cell they would race.
#[test]
fn a_foreign_thread_panics_instead_of_racing() {
    run(1, |pe| {
        let h = pe.register_handler(|_, _| {});
        let pe_arc = pe.arc();
        let side_by_side = Barrier::new(2);
        let foreign_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let foreign = s.spawn(|| {
                side_by_side.wait();
                let len = panic_of(|| pe_arc.queue_len());
                let enq = panic_of(|| {
                    pe_arc.queue_enqueue(Message::new(h, b"foreign"), QueueingMode::Fifo)
                });
                let pending = panic_of(|| pe_arc.inbound_pending());
                foreign_done.store(true, Ordering::Release);
                (len, enq, pending)
            });
            side_by_side.wait();
            // The owner keeps working its queue for as long as the
            // foreign thread is trying.
            let mut moved = 0u64;
            while !foreign_done.load(Ordering::Acquire) || moved < 1_000 {
                pe.queue_enqueue(Message::new(h, b"own"), QueueingMode::Fifo);
                let m = pe.queue_dequeue().expect("what the owner enqueued");
                assert_eq!(m.payload(), b"own", "a foreign message got in");
                moved += 1;
            }
            for got in <[_; 3]>::from(foreign.join().expect("panics were caught")) {
                let msg = got.expect("a call off the run token must panic");
                assert!(msg.contains("does not hold its PE's run token"), "{msg}");
            }
        });
        assert_eq!(pe.queue_len(), 0);
        // What any thread may call still works from one.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(pe_arc.my_pe(), 0);
                assert_eq!(pe_arc.fault_stats(), Default::default());
                assert!(!pe_arc.pe_stalled(0));
                pe_arc.sync_send_and_free(0, Message::new(h, b"sent from outside"));
            });
        });
        assert_eq!(pe.deliver_msgs(None), 1);
    });
}

#[test]
fn reentrant_access_panics_and_the_cell_recovers() {
    run(1, |pe| {
        let cell = OwnerCell::new(pe.owner(), vec![1u32]);
        let msg = panic_of(|| {
            cell.with(pe.owner(), |v| {
                // A nested open of the same cell would alias `v`.
                cell.with(pe.owner(), |again| again.push(2));
                v.push(3);
            })
        })
        .expect("nested open must panic");
        assert!(msg.contains("re-entrantly"), "{msg}");
        assert_eq!(cell.with(pe.owner(), |v| v.clone()), vec![1]);

        // The same through the PE's own API: a closure run inside the
        // global-pointer table reaches for the table again.
        let g = pe.gptr_create(vec![0u8; 4]);
        let msg = panic_of(|| pe.gptr_update_local(&g, |_| drop(pe.gptr_deref(&g))))
            .expect("re-entering the table must panic");
        assert!(msg.contains("re-entrantly"), "{msg}");
        assert_eq!(pe.gptr_deref(&g), Some(vec![0u8; 4]));
    });
}

#[test]
fn a_cell_opens_only_with_its_own_pes_token() {
    /// PE 0 and a cell of its token, handed to PE 1.
    type Published = Mutex<Option<(Arc<Pe>, Arc<OwnerCell<u32>>)>>;
    let shared: Arc<Published> = Arc::default();
    run(2, move |pe| {
        if pe.my_pe() == 0 {
            let cell = Arc::new(OwnerCell::new(pe.owner(), 7u32));
            *shared.lock().unwrap() = Some((pe.arc(), cell));
        }
        pe.barrier();
        if pe.my_pe() == 1 {
            let (pe0, cell) = shared.lock().unwrap().take().expect("PE 0 published");
            // PE 1's thread holds PE 1's token — not the cell's.
            let msg = panic_of(|| cell.with(pe.owner(), |v| *v)).expect("wrong token");
            assert!(msg.contains("another PE's run token"), "{msg}");
            // The right token, which this thread does not hold.
            let msg = panic_of(|| cell.with(pe0.owner(), |v| *v)).expect("token not held");
            assert!(msg.contains("does not hold its PE's run token"), "{msg}");
            // Nor can it give away a token it does not hold.
            let msg = panic_of(|| pe0.owner().release()).expect("release off-token");
            assert!(msg.contains("does not hold it"), "{msg}");
        }
        // PE 0 stays alive (and keeps its token) until PE 1 is done.
        pe.barrier();
    });
}
