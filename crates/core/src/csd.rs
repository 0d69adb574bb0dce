//! The Csd scheduler loop (paper §3.1.2, Figure 3; appendix §2).
//!
//! ```text
//! void Scheduler() {
//!     while (not done) {
//!         DeliverMsgs();                       // drain the network
//!         message = Dequeue(SchedulerQueue);   // one local entry
//!         (HandlerOf(message))(message);
//!     }
//! }
//! ```
//!
//! Network messages are delivered eagerly ("performance issues demand
//! timely processing of messages from the network interface"); their
//! handlers may call [`csd_enqueue`] to defer work with a priority. The
//! queue module is pluggable (chosen per machine via
//! `MachineConfig::queue`), so "the user can plug in different queuing
//! strategies".
//!
//! **Hot-path shape.** `DeliverMsgs` is batched underneath: the machine
//! layer swaps the PE's whole mailbox into a local intake buffer in one
//! lock acquisition and dispatches from there, so the per-message cost
//! of the drain phase no longer includes a contended lock op (see
//! `Interconnect::drain_into`). Per-link FIFO order is preserved —
//! intake drains strictly before the wire. Dispatch borrows the handler
//! from the PE's append-only table (no lock, no refcount). The intake
//! buffer, the `get_specific_msg` buffer, the scatter table, the
//! scheduler queue and the load sample are owner-only state of the PE's
//! running context (`converse_machine::OwnerCell`): each step of the
//! loop opens it once, with a few plain loads and stores and no lock.
//! What is left per message is the mailbox — three uncontended lock
//! pairs (`inbox` on the send and on the drain, `staged` once), the one
//! structure another thread really shares — and the exit flag, which is
//! loaded and swapped only when set. The
//! scheduler-queue phase stays per-entry on purpose: a handler that
//! enqueues urgent prioritized work mid-batch still sees it preempt at
//! the very next dequeue. When both phases come up empty the loop idles
//! with a spin-then-park policy (`MachineConfig::idle_spin` probes of
//! the lock-free mailbox depth, then a condvar park). Only a parked PE
//! is ever woken through the kernel, once per park: a send to a PE that
//! is awake makes no system call.

use converse_machine::{Message, Pe};
use converse_queue::QueueingMode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Enqueue a message on this PE's scheduler queue, FIFO among
/// unprioritized work (`CsdEnqueue`). Usually called from a message
/// handler that decides the message should not be processed immediately.
pub fn csd_enqueue(pe: &Pe, msg: Message) {
    pe.queue_enqueue(msg, QueueingMode::Fifo);
}

/// Enqueue under an explicit queueing mode (`CsdEnqueueGeneral`); the
/// `Prio*` modes order by the priority embedded in the message.
pub fn csd_enqueue_general(pe: &Pe, msg: Message, mode: QueueingMode) {
    pe.queue_enqueue(msg, mode);
}

/// Enqueue a message by priority (FIFO tie-break) — the common
/// prioritized case. A convenience over [`csd_enqueue_general`].
pub fn csd_enqueue_prio(pe: &Pe, msg: Message) {
    let mode = if msg.has_priority() {
        QueueingMode::PrioFifo
    } else {
        QueueingMode::Fifo
    };
    pe.queue_enqueue(msg, mode);
}

/// Ask the running scheduler to stop once control returns to it
/// (`CsdExitScheduler`). Callable from any handler on this PE.
pub fn csd_exit_scheduler(pe: &Pe) {
    pe.sched_exit_flag().store(true, Ordering::Release);
}

fn exit_requested(pe: &Pe) -> bool {
    pe.sched_exit_flag().load(Ordering::Acquire)
}

/// Consume a pending exit request. The flag is almost never set and the
/// loop asks twice per iteration, so it is read first and the locked
/// swap is paid only to clear a request that is there.
fn take_exit(pe: &Pe) -> bool {
    exit_requested(pe) && pe.sched_exit_flag().swap(false, Ordering::AcqRel)
}

/// The Converse scheduler (`CsdScheduler`).
///
/// Processes messages — delivering each to its handler — until:
/// * `n` messages have been processed, when `n >= 0`
///   (the paper's `ScheduleFor(n)`), or
/// * [`csd_exit_scheduler`] is called from a handler, when `n == -1`.
///
/// Returns the number of messages actually processed (always `n` unless
/// an exit was requested or, for finite `n`, counted work ran out and
/// more arrived-work was awaited).
pub fn csd_scheduler(pe: &Pe, n: i64) -> u64 {
    let infinite = n < 0;
    let mut remaining = if infinite { u64::MAX } else { n as u64 };
    let mut processed = 0u64;
    let mut idle_since: Option<Instant> = None;

    while remaining > 0 {
        if take_exit(pe) {
            break;
        }
        // Phase 1: drain the network, delivering straight to handlers.
        let cap = if infinite {
            None
        } else {
            Some(remaining as usize)
        };
        let delivered = pe.deliver_msgs(cap) as u64;
        processed += delivered;
        remaining -= delivered.min(remaining);
        if remaining == 0 || take_exit(pe) {
            break;
        }
        pe.publish_load(delivered > 0);
        // Phase 2: one entry from the scheduler's queue.
        if let Some(m) = pe.queue_dequeue() {
            idle_since = None;
            pe.call_handler(m);
            processed += 1;
            remaining -= 1;
            continue;
        }
        if delivered > 0 {
            idle_since = None;
            continue;
        }
        // Nothing anywhere: before parking, try to steal a batch of
        // relocatable staged work from the most-loaded peer (a no-op
        // unless the machine enables stealing). A hit re-enters the
        // drain phase immediately.
        if pe.try_steal() > 0 {
            idle_since = None;
            continue;
        }
        // Idle-park until a message arrives. A PE that stays idle past
        // the machine's block watchdog panics — in this runtime that
        // means a lost exit condition, i.e. a bug. With an external
        // service attached the watchdog stands down: a server PE
        // legitimately idles waiting for outside traffic.
        pe.check_abort();
        let started = *idle_since.get_or_insert_with(Instant::now);
        if !pe.services_attached() && started.elapsed() > pe.block_timeout() {
            panic!(
                "PE {}: scheduler idle for {:?} with no exit requested — likely deadlock",
                pe.my_pe(),
                pe.block_timeout()
            );
        }
        pe.idle_wait(Duration::from_millis(5));
    }
    processed
}

/// Run the scheduler until both the network and the scheduler queue are
/// empty (`CsdScheduleUntilIdle` / `ScheduleUntilIdle()`), then return
/// the number of messages processed. An exit request also terminates it.
pub fn csd_scheduler_until_idle(pe: &Pe) -> u64 {
    let mut processed = 0u64;
    loop {
        if take_exit(pe) {
            break;
        }
        processed += pe.deliver_msgs(None) as u64;
        if exit_requested(pe) {
            continue;
        }
        match pe.queue_dequeue() {
            Some(m) => {
                pe.call_handler(m);
                processed += 1;
            }
            None => {
                if pe.inbound_pending() == 0 {
                    break;
                }
            }
        }
    }
    processed
}

/// Run the scheduler until `pred()` holds (checked between messages).
/// Not part of the 1996 API, but the natural Rust helper for tests and
/// blocking adapters: "pump the scheduler until my reply arrived".
// `#[inline]`: the predicate is a closure of the caller's, checked twice
// per turn; left to codegen-unit partitioning, whether this loop ends up
// inside its caller changes with unrelated code (see EXPERIMENTS.md,
// "tSM for the price of its parts", on `exchange_inproc`).
#[inline]
pub fn schedule_until<F: FnMut() -> bool>(pe: &Pe, mut pred: F) -> u64 {
    let mut processed = 0u64;
    let mut idle_since: Option<Instant> = None;
    loop {
        if pred() {
            return processed;
        }
        let delivered = pe.deliver_msgs(None) as u64;
        processed += delivered;
        if pred() {
            return processed;
        }
        pe.publish_load(delivered > 0);
        if let Some(m) = pe.queue_dequeue() {
            idle_since = None;
            pe.call_handler(m);
            processed += 1;
            continue;
        }
        if delivered > 0 {
            idle_since = None;
            continue;
        }
        // Same pre-park steal attempt as `csd_scheduler`'s idle branch.
        if pe.try_steal() > 0 {
            idle_since = None;
            continue;
        }
        pe.check_abort();
        let started = *idle_since.get_or_insert_with(Instant::now);
        if started.elapsed() > pe.block_timeout() {
            panic!(
                "PE {}: schedule_until made no progress for {:?} — likely deadlock",
                pe.my_pe(),
                pe.block_timeout()
            );
        }
        pe.idle_wait(Duration::from_millis(5));
    }
}
