//! What a PE's sends to itself promise, now that the run-token holder's
//! self-sends skip the mailbox for the PE's local queue: the same order,
//! the same counters, and no way around the mailbox's own rules.
//!
//! Each test runs on the in-process transport and on the socket wire.
//! A machine with stealing on is the mailbox path for comparison: there
//! every self-send crosses the mailbox, and with nothing marked
//! stealable nothing else changes. The local-queue runs must leave the
//! same `PeTraffic` counters as those.

use converse_machine::{run_with, MachineConfig, Message, Pe, Stop, Transport};
use converse_net::{DeliveryMode, FaultPlan, PeTraffic};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// In-process, and one wire.
const TRANSPORTS: [Transport; 2] = [Transport::InProcess, Transport::Socket];

/// Run `entry` on `n` PEs of `transport`, first with self-sends on the
/// local queue, then on the mailbox (stealing on); `entry` is told which.
/// Both runs must leave the same counters, which are returned.
fn on_both_paths<F>(n: usize, transport: Transport, entry: F) -> Vec<PeTraffic>
where
    F: Fn(&Pe, bool) + Send + Sync + Clone + 'static,
{
    let run = |mailbox: bool| {
        let entry = entry.clone();
        let cfg = MachineConfig::new(n).transport(transport).steal(mailbox);
        run_with(cfg, move |pe| entry(pe, mailbox)).traffic
    };
    let local = run(false);
    let mailbox = run(true);
    assert_eq!(
        local, mailbox,
        "{transport:?}: the local queue's counters differ from the mailbox's"
    );
    local
}

/// `(sender, seq)` in a payload, and back.
fn tagged(from: usize, seq: u32) -> Vec<u8> {
    [(from as u32).to_le_bytes(), seq.to_le_bytes()].concat()
}

fn untag(p: &[u8]) -> (usize, u32) {
    let word = |i: usize| u32::from_le_bytes(p[i..i + 4].try_into().expect("8-byte tag"));
    (word(0) as usize, word(4))
}

const ROUNDS: u32 = 50;

/// (a) One PE's self-sends keep their order whichever call made them:
/// `sync_send`, `sync_send_and_free`, `vector_send` and the self copy of
/// `sync_broadcast_all`, interleaved. The peer's broadcast copies keep
/// theirs too.
#[test]
fn self_sends_keep_their_order_across_every_way_in() {
    for transport in TRANSPORTS {
        let traffic = on_both_paths(2, transport, |pe, mailbox| {
            let got = Arc::new(Mutex::new(Vec::new()));
            let g = got.clone();
            let record = pe.register_handler(move |_, msg| {
                g.lock().unwrap().push(untag(msg.payload()));
            });
            let me = pe.my_pe();
            for r in 0..ROUNDS {
                let s = 4 * r;
                pe.sync_send(me, &Message::new(record, &tagged(me, s)));
                pe.sync_send_and_free(me, Message::new(record, &tagged(me, s + 1)));
                let parts = tagged(me, s + 2);
                let h = pe.vector_send(me, record, &[&parts[..4], &parts[4..]]);
                assert!(pe.release_comm_handle(h));
                pe.sync_broadcast_all(&Message::new(record, &tagged(me, s + 3)));
            }
            // Nothing has drained yet: the mailbox holds this PE's own
            // sends only on the mailbox path (and at most the peer's
            // broadcast copies on either).
            let queued = pe.load_snapshot()[me].queued;
            if mailbox {
                assert!(queued >= 4 * ROUNDS as usize, "{queued} in the mailbox");
            } else {
                assert!(queued <= ROUNDS as usize, "{queued} in the mailbox");
            }
            let expected = 4 * ROUNDS as usize + ROUNDS as usize * (pe.num_pes() - 1);
            pe.deliver_until(|| got.lock().unwrap().len() == expected);
            let got = got.lock().unwrap();
            for from in 0..pe.num_pes() {
                let seqs: Vec<u32> = got.iter().filter(|m| m.0 == from).map(|m| m.1).collect();
                let want: Vec<u32> = if from == me {
                    (0..4 * ROUNDS).collect()
                } else {
                    (0..ROUNDS).map(|r| 4 * r + 3).collect()
                };
                assert_eq!(seqs, want, "PE {me}: messages from PE {from} out of order");
            }
        });
        for t in &traffic {
            assert_eq!(t.msgs_sent, 4 * ROUNDS as u64 + ROUNDS as u64);
            assert_eq!(t.msgs_recv, 4 * ROUNDS as u64 + ROUNDS as u64);
        }
    }
}

/// (b) A PE whose handler re-sends to itself forever still reads its
/// mailbox: a refill puts the local queue *behind* the mailbox batch,
/// never instead of it.
#[test]
fn a_pe_that_keeps_sending_to_itself_still_hears_its_peer() {
    const GIVE_UP: Duration = Duration::from_secs(10);
    for transport in TRANSPORTS {
        run_with(MachineConfig::new(2).transport(transport), |pe| {
            let stopped = Arc::new(AtomicBool::new(false));
            let s = stopped.clone();
            let stop = pe.register_handler(move |_, _| s.store(true, Ordering::Relaxed));
            let started = pe.register_handler(|_, _| {});
            let (s, first) = (stopped.clone(), Arc::new(Mutex::new(None::<Instant>)));
            let spin = pe.register_handler(move |pe, msg| {
                let t0 = *first.lock().unwrap().get_or_insert_with(|| {
                    pe.sync_send_and_free(1, Message::new(started, b""));
                    Instant::now()
                });
                assert!(
                    t0.elapsed() < GIVE_UP,
                    "PE 0 kept sending to itself for {GIVE_UP:?} and never read its mailbox"
                );
                if !s.load(Ordering::Relaxed) {
                    pe.sync_send_and_free(pe.my_pe(), msg);
                }
            });
            if pe.my_pe() == 1 {
                pe.get_specific_msg(started);
                pe.sync_send_and_free(0, Message::new(stop, b""));
                return;
            }
            pe.sync_send_and_free(0, Message::new(spin, b""));
            pe.schedule(Stop::Predicate, || stopped.load(Ordering::Relaxed));
            // The one spin still queued when the stop ran, which ends it.
            pe.deliver_msgs(None);
            assert_eq!(pe.inbound_pending(), 0);
        });
    }
}

/// (c) A self-send made inside a stall window is not delivered before
/// the window ends: the local queue stalls with the mailbox.
#[test]
fn a_self_send_inside_a_stall_waits_for_the_window() {
    const WINDOW: Duration = Duration::from_millis(50);
    for transport in TRANSPORTS {
        on_both_paths(2, transport, |pe, _| {
            let ran = Arc::new(Mutex::new(None));
            let r = ran.clone();
            let h = pe.register_handler(move |pe, _| {
                assert!(
                    !pe.pe_stalled(pe.my_pe()),
                    "delivered inside the stall window"
                );
                *r.lock().unwrap() = Some(Instant::now());
            });
            let me = pe.my_pe();
            let armed = Instant::now();
            pe.stall_pe(me, WINDOW);
            pe.sync_send_and_free(me, Message::new(h, b"stalled"));
            assert!(pe.get_msg().is_none(), "retrieved inside the stall window");
            assert_eq!(pe.deliver_msgs(None), 0);
            assert_eq!(pe.inbound_pending(), 1);
            pe.deliver_until(|| ran.lock().unwrap().is_some());
            let at = ran.lock().unwrap().expect("ran");
            assert!(at >= armed + WINDOW, "ran {:?} after arming", at - armed);
        });
    }
}

/// (d) With stealing on, a stealable self-send stays in the mailbox,
/// where an idle peer steals it.
#[test]
fn with_stealing_on_a_stealable_self_send_waits_in_the_mailbox_for_a_thief() {
    const WORK: u32 = 8;
    for transport in TRANSPORTS {
        let cfg = MachineConfig::new(2).transport(transport).steal(true);
        run_with(cfg, |pe| {
            let ran_here = Arc::new(AtomicU32::new(0));
            let r = ran_here.clone();
            let work = pe.register_handler(move |_, _| {
                r.fetch_add(1, Ordering::Relaxed);
            });
            let tally = pe.register_handler(|_, _| {});
            let r = ran_here.clone();
            let ask = pe.register_handler(move |pe, _| {
                let n = r.load(Ordering::Relaxed);
                pe.sync_send_and_free(0, Message::new(tally, &n.to_le_bytes()));
            });
            let go = pe.register_handler(|_, _| {});
            let finished = Arc::new(AtomicBool::new(false));
            let f = finished.clone();
            let finish = pe.register_handler(move |_, _| f.store(true, Ordering::Relaxed));
            if pe.my_pe() == 1 {
                // No stealing while PE 0 fills its mailbox.
                pe.get_specific_msg(go);
                pe.schedule(Stop::Predicate, || finished.load(Ordering::Relaxed));
                return;
            }
            for _ in 0..WORK {
                let mut m = Message::new(work, b"");
                m.mark_stealable();
                pe.sync_send_and_free(0, m);
            }
            assert_eq!(pe.load_snapshot()[0].queued, WORK as usize);
            pe.sync_send_and_free(1, Message::new(go, b""));
            // Nothing else is sent to PE 0 until it asks, so only a
            // thief shortens its mailbox.
            let t0 = Instant::now();
            while pe.load_snapshot()[0].queued == WORK as usize {
                assert!(
                    t0.elapsed() < Duration::from_secs(20),
                    "{}: nothing was stolen",
                    pe.transport_name()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Run what is left here; ask PE 1 how much it ran (on a wire
            // a donation may still be on its way) until all of it ran.
            let on_peer = loop {
                pe.deliver_msgs(None);
                pe.sync_send_and_free(1, Message::new(ask, b""));
                let reply = pe.get_specific_msg(tally);
                let on_peer = u32::from_le_bytes(reply.payload().try_into().expect("a u32"));
                if ran_here.load(Ordering::Relaxed) + on_peer == WORK {
                    break on_peer;
                }
                assert!(t0.elapsed() < Duration::from_secs(20), "work went missing");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert!(on_peer > 0, "no stolen work ran on PE 1");
            pe.sync_send_and_free(1, Message::new(finish, b""));
        });
    }
}

/// A self-send from a thread that does not hold the PE's run token
/// crosses the mailbox; the token holder's own takes the local queue.
/// Both arrive once.
#[test]
fn a_self_send_without_the_run_token_takes_the_mailbox() {
    for transport in TRANSPORTS {
        run_with(MachineConfig::new(2).transport(transport), |pe| {
            let got = Arc::new(Mutex::new(Vec::new()));
            let g = got.clone();
            let h = pe.register_handler(move |_, msg| g.lock().unwrap().push(msg.payload()[0]));
            let (me, arc) = (pe.my_pe(), pe.arc());
            std::thread::spawn(move || {
                assert!(!arc.owner().held_by_current_thread());
                arc.sync_send_and_free(me, Message::new(h, b"f"));
            })
            .join()
            .expect("the foreign sender");
            assert_eq!(pe.load_snapshot()[me].queued, 1, "the foreign self-send");
            pe.sync_send_and_free(me, Message::new(h, b"o"));
            assert_eq!(pe.load_snapshot()[me].queued, 1, "the owner's self-send");
            assert_eq!(pe.inbound_pending(), 2);
            pe.deliver_until(|| got.lock().unwrap().len() == 2);
            let mut got = got.lock().unwrap().clone();
            got.sort_unstable();
            assert_eq!(got, b"fo");
        });
    }
}

const SENDS: u8 = 64;

/// Send `SENDS` tagged messages to self, check they wait in the mailbox,
/// and return them in the order they were delivered.
fn self_sends_through_the_mailbox(pe: &Pe) -> Vec<u8> {
    let got = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    let h = pe.register_handler(move |_, msg| g.lock().unwrap().push(msg.payload()[0]));
    let me = pe.my_pe();
    for i in 0..SENDS {
        pe.sync_send_and_free(me, Message::new(h, &[i]));
    }
    assert_eq!(pe.load_snapshot()[me].queued, SENDS as usize);
    pe.deliver_until(|| got.lock().unwrap().len() == SENDS as usize);
    let got = got.lock().unwrap().clone();
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..SENDS).collect::<Vec<_>>(), "exactly once");
    got
}

/// (e) Under a fault plan a self-send still crosses the link, and the
/// plan's counters see it. (The fault plane is the in-process link's: on
/// a wire it acts between ranks, so there the self-sends only keep to
/// the mailbox.)
#[test]
fn under_a_fault_plan_a_self_send_crosses_the_link() {
    for transport in TRANSPORTS {
        let cfg = MachineConfig::new(2)
            .transport(transport)
            .faults(FaultPlan::new(7));
        run_with(cfg, |pe| {
            let before = pe.fault_stats().transmissions;
            let got = self_sends_through_the_mailbox(pe);
            assert_eq!(got, (0..SENDS).collect::<Vec<_>>());
            if pe.transport_name() == "inproc" {
                // Both PEs' sends, counted machine-wide, at least.
                let sent = pe.fault_stats().transmissions - before;
                assert!(sent >= SENDS as u64, "{sent} transmissions counted");
            }
        });
    }
}

/// (e) Under `DeliveryMode::Reorder` self-sends are scrambled like any
/// other arrivals.
#[test]
fn under_reorder_delivery_self_sends_are_scrambled() {
    for transport in TRANSPORTS {
        let cfg = MachineConfig::new(2)
            .transport(transport)
            .delivery(DeliveryMode::Reorder {
                seed: 1996,
                window: 8,
            });
        run_with(cfg, |pe| {
            let got = self_sends_through_the_mailbox(pe);
            assert_ne!(
                got,
                (0..SENDS).collect::<Vec<_>>(),
                "delivered in send order"
            );
        });
    }
}
