//! One PE lifecycle on every transport: what a *failed* run hands its
//! caller. The run harnesses share one PE-thread body (boot → entry →
//! exit hooks → pool trace), so which PE fails, where in its life, and
//! on which wire must not change what the caller sees: the root cause.
//!
//! Every run here fails on purpose, so the launcher side catches the
//! unwind. Each test makes **one** run: a socket-transport worker
//! re-runs its test up to the call it was spawned for, and an earlier
//! run in the same test would be replayed (and fail, and print) once
//! per worker.

use converse::machine::Transport;
use converse::prelude::*;
use converse::threads::{cth_create, cth_resume, CthBackend};
use std::time::Duration;

/// Run a machine that must fail; the message its caller is left with.
fn failure_of(cfg: MachineConfig, entry: impl Fn(&Pe) + Send + Sync + 'static) -> String {
    let cfg = cfg.block_timeout(Duration::from_secs(20));
    let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_with(cfg, entry)))
        .expect_err("the run must fail");
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "a payload that is not a message".into()),
    }
}

/// Block on a message nobody sends: only a failed machine ends the wait.
fn block_forever(pe: &Pe) {
    let never = pe.register_handler(|_, _| {});
    let _ = pe.get_specific_msg(never);
}

/// `Some(cfg)` when this host has transport `t`.
fn machine(pes: usize, t: Transport) -> Option<MachineConfig> {
    Transport::each()
        .contains(&t)
        .then(|| MachineConfig::new(pes).transport(t))
}

/// PE 2 fails last in rank order while PEs 0–1 are blocked; they unwind
/// *because* of it. The caller gets PE 2's message, not a bystander's
/// "aborting — another PE panicked" (what the join order used to pick).
fn the_root_cause_reaches_the_caller(t: Transport) {
    let Some(cfg) = machine(3, t) else { return };
    let msg = failure_of(cfg, |pe| {
        if pe.my_pe() == 2 {
            std::thread::sleep(Duration::from_millis(50));
            panic!("deliberate root cause");
        }
        block_forever(pe);
    });
    assert!(msg.contains("deliberate root cause"), "[{t:?}] got: {msg}");
}

/// A panicking exit hook fails the run like a panicking entry does: the
/// machine is marked failed and closed (PE 0 is still blocked when PE 1
/// leaves), and the hook's message is what the caller gets.
fn a_panicking_exit_hook_fails_the_run(t: Transport) {
    let Some(cfg) = machine(2, t) else { return };
    let msg = failure_of(cfg, |pe| {
        if pe.my_pe() == 1 {
            pe.on_exit(|_| panic!("exit hook boom"));
            return;
        }
        block_forever(pe);
    });
    assert!(msg.contains("exit hook boom"), "[{t:?}] got: {msg}");
}

#[test]
fn root_cause_reaches_the_caller_in_process() {
    the_root_cause_reaches_the_caller(Transport::InProcess);
}

#[test]
fn root_cause_reaches_the_caller_over_sockets() {
    the_root_cause_reaches_the_caller(Transport::Socket);
}

#[test]
fn root_cause_reaches_the_caller_over_shm_rings() {
    the_root_cause_reaches_the_caller(Transport::ShmRing);
}

#[test]
fn panicking_exit_hook_fails_the_run_in_process() {
    a_panicking_exit_hook_fails_the_run(Transport::InProcess);
}

#[test]
fn panicking_exit_hook_fails_the_run_over_sockets() {
    a_panicking_exit_hook_fails_the_run(Transport::Socket);
}

#[test]
fn panicking_exit_hook_fails_the_run_over_shm_rings() {
    a_panicking_exit_hook_fails_the_run(Transport::ShmRing);
}

/// A thread object is what sits in `check_abort` when the machine
/// fails. Its unwind is a bystander's too — but the thread runtime must
/// treat it as a failure of its PE (abort, carry it to the main
/// context), not as a clean thread exit: a swallowed marker would let
/// the main context run on into `unreachable!`.
#[test]
fn a_thread_object_unwinds_as_a_bystander_on_each_backend() {
    for &backend in CthBackend::available() {
        let cfg = MachineConfig::new(2).thread_backend(backend.to_config());
        let msg = failure_of(cfg, |pe| {
            if pe.my_pe() == 1 {
                std::thread::sleep(Duration::from_millis(50));
                panic!("deliberate root cause");
            }
            let t = cth_create(pe, block_forever);
            cth_resume(pe, &t);
            unreachable!("the blocked thread's unwind ends its PE's entry");
        });
        assert!(
            msg.contains("deliberate root cause"),
            "[{}] got: {msg}",
            backend.label()
        );
    }
}
