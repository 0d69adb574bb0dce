//! Scheduler-loop and quiescence tests on live multi-PE machines.

use converse_core::{
    csd_enqueue, csd_enqueue_general, csd_exit_scheduler, csd_scheduler, csd_scheduler_until_idle,
    run, schedule_until, Message, QueueingMode, Quiescence,
};
use converse_msg::Priority;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn scheduler_runs_queued_messages_in_fifo_order() {
    run(1, |pe| {
        let order = pe.local(|| Mutex::new(Vec::<u8>::new()));
        let o2 = order.clone();
        let h = pe.register_handler(move |pe, msg| {
            o2.lock().push(msg.payload()[0]);
            if msg.payload()[0] == 4 {
                csd_exit_scheduler(pe);
            }
        });
        for i in 0..5u8 {
            csd_enqueue(pe, Message::new(h, &[i]));
        }
        let n = csd_scheduler(pe, -1);
        assert_eq!(n, 5);
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    });
}

#[test]
fn scheduler_priorities_reorder_execution() {
    run(1, |pe| {
        let order = pe.local(|| Mutex::new(Vec::<i32>::new()));
        let o2 = order.clone();
        let h = pe.register_handler(move |_pe, msg| {
            let v = i32::from_le_bytes(msg.payload().try_into().unwrap());
            o2.lock().push(v);
        });
        for v in [3, -5, 0, 7, -1] {
            let m = Message::with_priority(h, &Priority::Int(v), &v.to_le_bytes());
            csd_enqueue_general(pe, m, QueueingMode::PrioFifo);
        }
        csd_scheduler(pe, 5);
        assert_eq!(*order.lock(), vec![-5, -1, 0, 3, 7]);
    });
}

#[test]
fn schedule_for_n_counts_messages() {
    run(1, |pe| {
        let count = pe.local(|| AtomicU64::new(0));
        let c2 = count.clone();
        let h = pe.register_handler(move |_pe, _| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..10 {
            csd_enqueue(pe, Message::new(h, b""));
        }
        assert_eq!(csd_scheduler(pe, 4), 4);
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(csd_scheduler(pe, 6), 6);
        assert_eq!(count.load(Ordering::Relaxed), 10);
    });
}

#[test]
fn until_idle_drains_everything_and_returns() {
    run(1, |pe| {
        let count = pe.local(|| AtomicU64::new(0));
        let c2 = count.clone();
        // Handler that fans out: each message spawns two more until depth
        // exhausted; until-idle must keep going through the cascade.
        let h = pe.local(|| Mutex::new(None));
        let h2 = h.clone();
        let id = pe.register_handler(move |pe, msg| {
            c2.fetch_add(1, Ordering::Relaxed);
            let depth = msg.payload()[0];
            if depth > 0 {
                let id = h2.lock().unwrap();
                csd_enqueue(pe, Message::new(id, &[depth - 1]));
                csd_enqueue(pe, Message::new(id, &[depth - 1]));
            }
        });
        *h.lock() = Some(id);
        csd_enqueue(pe, Message::new(id, &[3]));
        let n = csd_scheduler_until_idle(pe);
        // Full binary cascade of depth 3: 1+2+4+8 = 15 messages.
        assert_eq!(n, 15);
        assert_eq!(count.load(Ordering::Relaxed), 15);
        assert_eq!(csd_scheduler_until_idle(pe), 0, "idle machine stays idle");
    });
}

#[test]
fn network_messages_processed_before_queue() {
    // The Fig. 3 loop drains the network before each queue pop. Local
    // self-sends land in the mailbox, so they count as "network" work.
    run(1, |pe| {
        let order = pe.local(|| Mutex::new(Vec::<&'static str>::new()));
        let o_net = order.clone();
        let net_h = pe.register_handler(move |_pe, _| o_net.lock().push("net"));
        let o_q = order.clone();
        let q_h = pe.register_handler(move |pe, _| {
            o_q.lock().push("queue");
            csd_exit_scheduler(pe);
        });
        csd_enqueue(pe, Message::new(q_h, b""));
        pe.sync_send_and_free(0, Message::new(net_h, b""));
        csd_scheduler(pe, -1);
        assert_eq!(*order.lock(), vec!["net", "queue"]);
    });
}

#[test]
fn handler_enqueue_then_second_handler_pattern() {
    // The paper's §3.3 idiom: a first handler enqueues the message after
    // swapping in a second handler, so the dequeued copy is not
    // re-enqueued ("to avoid infinite regress").
    run(2, |pe| {
        let processed = pe.local(|| AtomicU64::new(0));
        let ids = pe.local(|| {
            Mutex::new((
                None::<converse_core::HandlerId>,
                None::<converse_core::HandlerId>,
            ))
        });
        let p2 = processed.clone();
        let ids2 = ids.clone();
        let first = pe.register_handler(move |pe, mut msg| {
            let second = ids2.lock().1.unwrap();
            msg.set_handler(second);
            csd_enqueue(pe, msg);
        });
        let p3 = p2.clone();
        let second = pe.register_handler(move |pe, msg| {
            p3.fetch_add(1, Ordering::Relaxed);
            assert_eq!(msg.payload(), b"pattern");
            csd_exit_scheduler(pe);
        });
        *ids.lock() = (Some(first), Some(second));
        pe.barrier();
        if pe.my_pe() == 0 {
            pe.sync_send_and_free(1, Message::new(first, b"pattern"));
        } else {
            csd_scheduler(pe, -1);
            assert_eq!(processed.load(Ordering::Relaxed), 1);
        }
        pe.barrier();
    });
}

#[test]
fn schedule_until_pumps_remote_reply() {
    run(2, |pe| {
        let got = pe.local(|| AtomicU64::new(0));
        let g2 = got.clone();
        let reply_h = pe.register_handler(move |_pe, msg| {
            g2.store(
                u64::from_le_bytes(msg.payload().try_into().unwrap()),
                Ordering::SeqCst,
            );
        });
        let req_h = pe.register_handler(move |pe, msg| {
            // Service: double the value and reply to PE 0.
            let v = u64::from_le_bytes(msg.payload()[8..].try_into().unwrap());
            let reply_to = converse_core::HandlerId(u32::from_le_bytes(
                msg.payload()[0..4].try_into().unwrap(),
            ));
            pe.sync_send_and_free(0, Message::new(reply_to, &(v * 2).to_le_bytes()));
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let mut payload = Vec::new();
            payload.extend_from_slice(&reply_h.0.to_le_bytes());
            payload.extend_from_slice(&[0u8; 4]);
            payload.extend_from_slice(&21u64.to_le_bytes());
            pe.sync_send_and_free(1, Message::new(req_h, &payload));
            schedule_until(pe, || got.load(Ordering::SeqCst) != 0);
            assert_eq!(got.load(Ordering::SeqCst), 42);
        } else {
            // Serve exactly one request.
            csd_scheduler(pe, 1);
        }
        pe.barrier();
    });
}

#[test]
fn exit_scheduler_from_network_handler() {
    run(2, |pe| {
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            pe.sync_send_and_free(1, Message::new(stop, b""));
        } else {
            csd_scheduler(pe, -1); // returns because of the remote stop
        }
        pe.barrier();
    });
}

// ---- quiescence ---------------------------------------------------------

/// Irregular fan-out workload: each message spawns 0..=2 children on
/// random-ish PEs until a depth budget runs out; quiescence fires when
/// the whole tree has been consumed everywhere.
#[test]
fn quiescence_detects_end_of_cascade() {
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    run(4, move |pe| {
        let qd = Quiescence::install(pe);
        let work_total = t2.clone();
        let slot = pe.local(|| Mutex::new(None::<converse_core::HandlerId>));
        let slot2 = slot.clone();
        let qd2 = qd.clone();
        let work = pe.register_handler(move |pe, msg| {
            work_total.fetch_add(1, Ordering::SeqCst);
            let depth = msg.payload()[0];
            if depth > 0 {
                let id = slot2.lock().unwrap();
                // Deterministic pseudo-fanout: spawn to two neighbours.
                for k in 1..=2usize {
                    qd2.msg_created(pe, 1);
                    let dst = (pe.my_pe() + k * usize::from(depth)) % pe.num_pes();
                    pe.sync_send_and_free(dst, Message::new(id, &[depth - 1]));
                }
            }
            qd2.msg_processed(pe, 1);
        });
        *slot.lock() = Some(work);
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            qd.msg_created(pe, 1);
            pe.sync_send_and_free(1, Message::new(work, &[5]));
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            // Quiescence fired; tell everyone else to stop.
            let stop = done;
            pe.sync_broadcast(&Message::new(stop, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
    // Depth-5 binary cascade: 1 + 2 + 4 + ... + 2^5 = 63 handler runs.
    assert_eq!(total.load(Ordering::SeqCst), 63);
}

#[test]
fn quiescence_on_empty_machine_fires_immediately() {
    run(3, |pe| {
        let qd = Quiescence::install(pe);
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            assert!(!qd.is_active(pe));
            pe.sync_broadcast(&Message::new(done, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}

#[test]
fn quiescence_not_fooled_by_in_flight_messages() {
    // A PE that creates work *after* replying to the first wave must
    // delay detection: the two-wave compare catches it.
    run(2, |pe| {
        let qd = Quiescence::install(pe);
        let seen = pe.local(|| AtomicU64::new(0));
        let s2 = seen.clone();
        let qd2 = qd.clone();
        let sink = pe.register_handler(move |pe, _| {
            s2.fetch_add(1, Ordering::SeqCst);
            qd2.msg_processed(pe, 1);
        });
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            // Create one counted message but send it late — after arming.
            qd.msg_created(pe, 1);
            qd.start(pe, Message::new(done, b""));
            std::thread::sleep(std::time::Duration::from_millis(30));
            pe.sync_send_and_free(1, Message::new(sink, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(done, b""));
        } else {
            csd_scheduler(pe, -1);
            // The counted message MUST have been processed before
            // quiescence was declared.
            assert_eq!(seen.load(Ordering::SeqCst), 1);
        }
        pe.barrier();
    });
}
