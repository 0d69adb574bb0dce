//! The runtimes' PE-local state is owner-only cells, and none is held
//! while user code runs. This file calls every Charm, group, Ldb,
//! quiescence and Cts operation — and every reader of a runtime, each
//! handed the caller's `pe` — from inside each kind of user code — a
//! chare constructor, a chare entry, a group entry, a Cth thread — on
//! both thread backends: a cell left open across the call would panic
//! ("opened re-entrantly"), a lost message would hang the quiescence
//! wait that ends each round.

use converse_charm::{
    Chare, ChareId, ChareKind, Charm, GroupChare, GroupId, GroupKind, MigratableChare,
};
use converse_core::{csd_scheduler, schedule_until, HandlerId, Message, Pe, Quiescence};
use converse_ldb::{Ldb, LdbPolicy};
use converse_msg::Priority;
use converse_sm::{mpi::Mpi, Sm};
use converse_sync::{CtsBarrier, CtsCondn, CtsLock};
use converse_threads::{cth_create, cth_resume, run_on_each_backend, CthRuntime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

const EP_NOOP: u32 = 0;
const EP_EXERCISE: u32 = 1;

/// What the rounds share on a PE: the registered kinds, the live
/// victims `exercise` migrates and destroys, the groups built here and
/// the one it tears down.
struct Rig {
    probe: ChareKind,
    victim: ChareKind,
    branch: GroupKind,
    noop_h: HandlerId,
    done_h: HandlerId,
    victims: Mutex<Vec<ChareId>>,
    built: Mutex<Vec<GroupId>>,
    idle_probe: Mutex<Option<ChareId>>,
    doomed: Mutex<Option<GroupId>>,
    rounds_done: AtomicU32,
}

fn rig(pe: &Pe) -> &Rig {
    pe.local_ref().expect("rig installed")
}

/// Every operation of the list, from whatever context calls it (PE 0).
fn exercise(pe: &Pe, round: u32) {
    let charm = Charm::get(pe);
    let rig = rig(pe);
    // Chares: create, send, migrate another, destroy another, count.
    charm.create(pe, rig.victim, &[], Priority::None);
    let (moved, doomed) = {
        let mut v = rig.victims.lock();
        (
            v.pop().expect("a victim"),
            v.pop().expect("a second victim"),
        )
    };
    charm.send(pe, moved, EP_NOOP, b"", Priority::None);
    assert!(charm.migrate(pe, moved, 1), "a live migratable chare moves");
    assert!(charm.destroy(pe, doomed), "a live chare is destroyed");
    let _live = charm.local_chares(pe);
    charm.publish_readonly(pe, round, &round.to_le_bytes());
    let _maybe_not_yet = charm.readonly(pe, round);
    // Groups: create one and invoke it; tear down a finished one.
    let gid = charm.create_group(pe, rig.branch, &[]);
    charm.send_group(pe, gid, 1, EP_NOOP, b"", Priority::None);
    charm.broadcast_group(pe, gid, EP_NOOP, b"", Priority::None);
    let finished = rig.doomed.lock().take().expect("a finished group");
    assert!(charm.destroy_group(pe, finished));
    // A bare seed, the detector that ends the round, a Cts lock.
    Ldb::get(pe).deposit(pe, Message::new(rig.noop_h, b""));
    Quiescence::get(pe).start(pe, Message::new(rig.done_h, b""));
    let lock = CtsLock::new(pe);
    lock.lock(pe);
    assert!(lock.owner(pe).is_some());
    lock.unlock(pe).expect("the locker unlocks");
    read_everything(pe);
}

/// Every reader a runtime has, each handed the caller's `pe`.
fn read_everything(pe: &Pe) {
    let charm = Charm::get(pe);
    let qd = Quiescence::get(pe);
    assert!(qd.is_active(pe), "armed by this round, not yet quiet");
    assert!(qd.created(pe) > 0 && qd.processed(pe) > 0);
    assert!(Ldb::get(pe).stats(pe).deposited > 0);
    assert!(charm.chares_created(pe) >= 2, "the victims were built here");
    let _ = (charm.local_chares(pe), charm.readonly(pe, 0));
    let _ = (charm.local_group_branches(pe), charm.local_migratable(pe));
    let lock = CtsLock::new(pe);
    assert_eq!((lock.owner(pe), lock.waiters(pe)), (None, 0));
    assert_eq!(CtsCondn::new(pe).waiters(pe), 0);
    assert_eq!(CtsBarrier::new(pe, 2).waiting(pe), 0);
    assert_eq!(Sm::get(pe).buffered(pe), 0);
    assert_eq!(Sm::get(pe).probe(pe, 0, 0), None);
    let mpi = Mpi::get(pe);
    assert_eq!(
        (mpi.pending(pe), mpi.held(pe), mpi.probe(pe, 0, 0)),
        (0, 0, None)
    );
    let rt = CthRuntime::get(pe);
    let _ = (rt.live_len(pe), rt.ready_len(pe), rt.stack_pool_stats(pe));
    assert!(rt.switches(pe) >= rt.direct_handoffs(pe));
}

/// Runs `exercise` in its constructor (payload `[1]`) or in its
/// `EP_EXERCISE` entry (payload `[0]`).
struct Probe;

impl Chare for Probe {
    fn new(pe: &Pe, id: ChareId, payload: &[u8]) -> Self {
        if payload == [1] {
            exercise(pe, 0);
        } else {
            *rig(pe).idle_probe.lock() = Some(id);
        }
        Probe
    }
    fn entry(&mut self, pe: &Pe, _id: ChareId, ep: u32, _payload: &[u8]) {
        assert_eq!(ep, EP_EXERCISE);
        exercise(pe, 1);
    }
}

/// A migratable chare that only registers itself where it is built.
struct Victim;

impl Chare for Victim {
    fn new(pe: &Pe, id: ChareId, _payload: &[u8]) -> Self {
        rig(pe).victims.lock().push(id);
        Victim
    }
    fn entry(&mut self, _pe: &Pe, _id: ChareId, ep: u32, _payload: &[u8]) {
        assert_eq!(ep, EP_NOOP);
    }
}

impl MigratableChare for Victim {
    fn pack(&self) -> Vec<u8> {
        Vec::new()
    }
    fn unpack(_pe: &Pe, _new_id: ChareId, _data: &[u8]) -> Self {
        Victim
    }
}

/// A group branch: `EP_EXERCISE` runs `exercise`, `EP_NOOP` nothing.
struct Branch;

impl GroupChare for Branch {
    fn new(pe: &Pe, gid: GroupId, _payload: &[u8]) -> Self {
        rig(pe).built.lock().push(gid);
        Branch
    }
    fn entry(&mut self, pe: &Pe, _gid: GroupId, ep: u32, _payload: &[u8]) {
        if ep == EP_EXERCISE {
            exercise(pe, 2);
        }
    }
}

/// What a round needs before it starts on PE 0: two live victims and a
/// group whose branch here has been built and receives nothing more.
fn prepare_round(pe: &Pe, charm: &Charm, rig: &Rig) {
    for _ in 0..2 {
        charm.create(pe, rig.victim, &[], Priority::None);
    }
    let gid = charm.create_group(pe, rig.branch, &[]);
    schedule_until(pe, || {
        rig.victims.lock().len() >= 2 && rig.built.lock().contains(&gid)
    });
    *rig.doomed.lock() = Some(gid);
}

#[test]
fn no_cell_is_held_across_user_code() {
    run_on_each_backend(2, |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        Sm::install(pe);
        Mpi::install(pe);
        pe.local(|| Rig {
            probe: charm.register::<Probe>(pe),
            victim: charm.register_migratable::<Victim>(pe),
            branch: charm.register_group::<Branch>(pe),
            noop_h: pe.register_handler(|_, _| {}),
            done_h: pe.register_handler(|pe, _| {
                rig(pe).rounds_done.fetch_add(1, Ordering::SeqCst);
            }),
            victims: Mutex::new(Vec::new()),
            built: Mutex::new(Vec::new()),
            idle_probe: Mutex::new(None),
            doomed: Mutex::new(None),
            rounds_done: AtomicU32::new(0),
        });
        pe.barrier();
        if pe.my_pe() != 0 {
            csd_scheduler(pe, -1);
            pe.barrier();
            return;
        }
        let rig = rig(pe);
        let round_over =
            |n: u32| schedule_until(pe, || rig.rounds_done.load(Ordering::SeqCst) == n);
        // Round 0: inside a chare constructor.
        prepare_round(pe, &charm, rig);
        charm.create(pe, rig.probe, &[1], Priority::None);
        round_over(1);
        // Round 1: inside a chare entry method.
        charm.create(pe, rig.probe, &[0], Priority::None);
        schedule_until(pe, || rig.idle_probe.lock().is_some());
        prepare_round(pe, &charm, rig);
        let probe = rig.idle_probe.lock().expect("probe built");
        charm.send(pe, probe, EP_EXERCISE, b"", Priority::None);
        round_over(2);
        // Round 2: inside a group entry method.
        let gid = charm.create_group(pe, rig.branch, &[]);
        prepare_round(pe, &charm, rig);
        charm.send_group(pe, gid, 0, EP_EXERCISE, b"", Priority::None);
        round_over(3);
        // Round 3: inside a Cth thread.
        prepare_round(pe, &charm, rig);
        let thread = cth_create(pe, |pe| exercise(pe, 3));
        cth_resume(pe, &thread);
        round_over(4);
        for key in 0..4u32 {
            assert_eq!(charm.readonly_wait(pe, key), key.to_le_bytes());
        }
        charm.exit_all(pe);
        csd_scheduler(pe, -1);
        pe.barrier();
    });
}

#[test]
fn a_cts_lock_used_on_another_pe_panics() {
    let shared: Arc<OnceLock<Arc<CtsLock>>> = Arc::new(OnceLock::new());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        converse_core::run(2, move |pe| {
            if pe.my_pe() == 0 {
                assert!(shared.set(CtsLock::new(pe)).is_ok());
            }
            pe.barrier();
            if pe.my_pe() == 1 {
                shared.get().expect("made on PE 0").try_lock(pe);
            }
            pe.barrier();
        });
    }));
    let err = result.expect_err("PE 1 may not open PE 0's lock");
    let msg = (err.downcast_ref::<&str>().copied().map(str::to_owned))
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("owner-only state"), "got: {msg}");
}

#[test]
fn a_quiescence_read_with_another_pes_token_panics() {
    let shared: Arc<OnceLock<Arc<Quiescence>>> = Arc::new(OnceLock::new());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        converse_core::run(2, move |pe| {
            let qd = Quiescence::install(pe);
            if pe.my_pe() == 0 {
                assert!(shared.set(qd).is_ok());
            }
            pe.barrier();
            if pe.my_pe() == 1 {
                shared.get().expect("made on PE 0").created(pe);
            }
            pe.barrier();
        });
    }));
    let err = result.expect_err("PE 1 may not open PE 0's detector");
    let msg = (err.downcast_ref::<&str>().copied().map(str::to_owned))
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("owner-only state opened with another PE's run token"),
        "got: {msg}"
    );
}
