//! Chare-group (branch-office) tests: per-PE branches, broadcast and
//! targeted invocation, early-send buffering, quiescence integration.

use converse_charm::{Charm, GroupChare, GroupId};
use converse_core::{csd_scheduler, csd_scheduler_until_idle, run, Message, Pe};
use converse_ldb::LdbPolicy;
use converse_msg::Priority;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// PE-local invocation counter (type-keyed local storage), so parallel
/// tests never share state.
struct GroupHits(AtomicU64);

/// A branch that counts invocations and can report its PE id.
struct Counter;

fn local_hits(pe: &Pe) -> Arc<GroupHits> {
    pe.local(|| GroupHits(AtomicU64::new(0)))
}

impl GroupChare for Counter {
    fn new(_pe: &Pe, _gid: GroupId, _payload: &[u8]) -> Self {
        Counter
    }
    fn entry(&mut self, pe: &Pe, _gid: GroupId, ep: u32, payload: &[u8]) {
        match ep {
            0 => {
                local_hits(pe).0.fetch_add(1, Ordering::SeqCst);
            }
            1 => {
                // Reply with my PE id to the handler in the payload.
                let h =
                    converse_core::HandlerId(u32::from_le_bytes(payload[..4].try_into().unwrap()));
                pe.sync_send_and_free(0, Message::new(h, &(pe.my_pe() as u64).to_le_bytes()));
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn create_constructs_branch_on_every_pe() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    run(4, move |pe| {
        let hits = h2.clone();
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_group::<Counter>(pe);
        pe.barrier();
        if pe.my_pe() == 0 {
            let gid = charm.create_group(pe, kind, b"");
            charm.broadcast_group(pe, gid, 0, b"", Priority::None);
        }
        pe.barrier();
        csd_scheduler_until_idle(pe);
        pe.barrier();
        assert_eq!(charm.local_group_branches(pe), 1, "one branch per PE");
        hits.fetch_add(local_hits(pe).0.load(Ordering::SeqCst), Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4, "broadcast hit every branch");
}

#[test]
fn send_group_targets_one_pe() {
    run(3, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_group::<Counter>(pe);
        let got = pe.local(|| parking_lot::Mutex::new(Vec::<u64>::new()));
        let g2 = got.clone();
        let reply = pe.register_handler(move |_pe, msg| {
            g2.lock()
                .push(u64::from_le_bytes(msg.payload().try_into().unwrap()));
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            let gid = charm.create_group(pe, kind, b"");
            for target in [2usize, 1, 2] {
                charm.send_group(pe, gid, target, 1, &reply.0.to_le_bytes(), Priority::None);
            }
            converse_core::schedule_until(pe, || got.lock().len() == 3);
            let mut replies = got.lock().clone();
            replies.sort_unstable();
            assert_eq!(replies, vec![1, 2, 2]);
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
}

#[test]
fn third_party_send_before_create_is_buffered() {
    // PE 1 learns a group id out-of-band and sends to PE 2's branch
    // possibly before PE 0's create broadcast reaches PE 2. The early
    // invocation must be buffered and replayed, not lost.
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    run(3, move |pe| {
        let hits = h2.clone();
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_group::<Counter>(pe);
        let gid_slot = pe.local(|| parking_lot::Mutex::new(None::<GroupId>));
        let s2 = gid_slot.clone();
        let announce = pe.register_handler(move |pe, msg| {
            *s2.lock() = Some(GroupId(u64::from_le_bytes(
                msg.payload().try_into().unwrap(),
            )));
            Charm::get(pe).quiescence().msg_processed(pe, 1);
        });
        let done = pe.register_handler(|pe, _| Charm::get(pe).exit_all(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            let gid = charm.create_group(pe, kind, b"");
            // Tell PE 1 the id through a separate channel (QD-counted so
            // detection waits for the whole causal chain).
            charm.quiescence().msg_created(pe, 1);
            pe.sync_send_and_free(1, Message::new(announce, &gid.0.to_le_bytes()));
            charm.quiescence().start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
        } else if pe.my_pe() == 1 {
            converse_core::schedule_until(pe, || gid_slot.lock().is_some());
            let gid = gid_slot.lock().unwrap();
            // This send can race PE 0's create broadcast to PE 2.
            charm.send_group(pe, gid, 2, 0, b"", Priority::None);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
        hits.fetch_add(local_hits(pe).0.load(Ordering::SeqCst), Ordering::SeqCst);
    });
    assert_eq!(
        hits.load(Ordering::SeqCst),
        1,
        "early send executed exactly once"
    );
}

#[test]
fn quiescence_covers_group_traffic() {
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    run(2, move |pe| {
        let hits = h2.clone();
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_group::<Counter>(pe);
        let done = pe.register_handler(|pe, _| converse_core::csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            let gid = charm.create_group(pe, kind, b"");
            for _ in 0..5 {
                charm.broadcast_group(pe, gid, 0, b"", Priority::None);
            }
            charm.quiescence().start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            charm.exit_all(pe);
            csd_scheduler(pe, -1);
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
        hits.fetch_add(local_hits(pe).0.load(Ordering::SeqCst), Ordering::SeqCst);
    });
    assert_eq!(
        hits.load(Ordering::SeqCst),
        10,
        "quiescence waited for all 5×2 invocations"
    );
}

// NOTE: the quiescence exit on PE0 returns once, then exit_all unblocks
// the peers; the trailing scheduler call drains the exit message PE0
// broadcast to itself.

/// A branch that records the payloads it is invoked with.
struct Recorder;

struct Recorded(parking_lot::Mutex<Vec<Vec<u8>>>);

impl GroupChare for Recorder {
    fn new(_pe: &Pe, _gid: GroupId, _payload: &[u8]) -> Self {
        Recorder
    }
    fn entry(&mut self, pe: &Pe, _gid: GroupId, _ep: u32, payload: &[u8]) {
        let seen = pe.local(|| Recorded(Default::default()));
        seen.0.lock().push(payload.to_vec());
    }
}

/// `send_group_parts` delivers the concatenation of its parts — what
/// `send_group` delivers for the joined bytes — and `destroy_group`
/// drops the branch on the PE that calls it.
#[test]
fn parts_are_gathered_and_a_destroyed_group_leaves_no_branch() {
    run(2, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let kind = charm.register_group::<Recorder>(pe);
        pe.barrier();
        let gid_bytes = pe.bcast_bytes(
            0,
            (pe.my_pe() == 0).then(|| charm.create_group(pe, kind, b"").0.to_le_bytes().to_vec()),
        );
        let gid = GroupId(u64::from_le_bytes(gid_bytes.try_into().unwrap()));
        if pe.my_pe() == 0 {
            let prio = Priority::Int(3);
            charm.send_group_parts(pe, gid, 1, 0, &[b"head", b"", b"-body"], prio.clone());
            charm.send_group(pe, gid, 1, 0, b"head-body", prio.clone());
            charm.send_group_parts(pe, gid, 1, 0, &[], prio);
        }
        pe.barrier();
        csd_scheduler_until_idle(pe);
        pe.barrier();
        if pe.my_pe() == 1 {
            let seen = pe
                .local_ref::<Recorded>()
                .expect("invoked")
                .0
                .lock()
                .clone();
            assert_eq!(seen, [&b"head-body"[..], b"head-body", b""]);
        }
        assert_eq!(charm.local_group_branches(pe), 1);
        assert!(charm.destroy_group(pe, gid));
        assert_eq!(charm.local_group_branches(pe), 0);
        assert!(!charm.destroy_group(pe, gid), "already gone");
        pe.barrier();
    });
}
