//! The Csd scheduler calls (paper §3.1.2, Figure 3; appendix §2).
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
//! The loop itself is the machine's ([`Pe::schedule`]), beside the
//! drain it starts with and the state it touches; each call here is a
//! stop rule over it ([`Stop`]). Network messages are delivered eagerly
//! ("performance issues demand timely processing of messages from the
//! network interface"); their handlers may call [`csd_enqueue`] to
//! defer work with a priority. The queue is the two-lane `CsdQueue`:
//! unprioritized FIFO / LIFO work and one priority heap.
//!
//! **Hot-path shape.** `DeliverMsgs` is batched underneath: the machine
//! layer moves up to a batch of the PE's mailbox into a local intake
//! buffer in one lock acquisition and dispatches from there (see
//! `Interconnect::refill`). Per-link FIFO order is preserved —
//! intake drains strictly before the wire. Dispatch borrows the handler
//! from the PE's append-only table (no lock, no refcount). The intake
//! buffer, the `get_specific_msg` buffer, the scatter table, the
//! scheduler queue and the load-publish tick are owner-only state of the
//! PE's running context (`converse_machine::OwnerCell`): each step of
//! the loop opens it once, with a few plain loads and stores and no
//! lock. What is left per message is the mailbox — two uncontended
//! lock pairs (`inbox` on the send and on the drain), the one structure
//! another thread really shares — and the exit flag,
//! which is loaded and swapped only when set. When a turn finds nothing
//! the PE takes its one idle turn: abort check, the block watchdog
//! (counted from the last message taken, and off while an external
//! service is attached), then a spin-then-park (`MachineConfig::idle_spin`
//! probes of the lock-free mailbox depth, then a condvar park). Only a
//! parked PE is ever woken through the kernel, once per park: a send to
//! a PE that is awake makes no system call.

use converse_machine::{Message, Pe, Stop};
use converse_queue::QueueingMode;

/// Enqueue a message on this PE's scheduler queue, FIFO among
/// unprioritized work (`CsdEnqueue`). Usually called from a message
/// handler that decides the message should not be processed immediately.
pub fn csd_enqueue(pe: &Pe, msg: Message) {
    pe.queue_enqueue(msg, QueueingMode::Fifo);
}

/// Enqueue under an explicit queueing mode (`CsdEnqueueGeneral`); the
/// `Prio*` modes order by the priority embedded in the message.
#[inline]
pub fn csd_enqueue_general(pe: &Pe, msg: Message, mode: QueueingMode) {
    pe.queue_enqueue(msg, mode);
}

/// Enqueue a message by priority (FIFO tie-break) — the common
/// prioritized case. A convenience over [`csd_enqueue_general`].
#[inline]
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
    pe.exit_scheduler();
}

/// The Converse scheduler (`CsdScheduler`).
///
/// Processes messages — delivering each to its handler — until:
/// * `n` messages have been processed, when `n >= 0`
///   (the paper's `ScheduleFor(n)`), or
/// * [`csd_exit_scheduler`] is called from a handler, when `n == -1`.
///
/// Returns the number of messages actually processed (always `n` unless
/// an exit was requested).
pub fn csd_scheduler(pe: &Pe, n: i64) -> u64 {
    let count = u64::try_from(n).unwrap_or(u64::MAX);
    pe.schedule(Stop::After(count), || false)
}

/// Run the scheduler until both the network and the scheduler queue are
/// empty (`CsdScheduleUntilIdle` / `ScheduleUntilIdle()`), then return
/// the number of messages processed. An exit request also terminates it.
pub fn csd_scheduler_until_idle(pe: &Pe) -> u64 {
    pe.schedule(Stop::Idle, || false)
}

/// Run the scheduler until `pred()` holds (checked between messages).
/// Not part of the 1996 API, but the natural Rust helper for tests and
/// blocking adapters: "pump the scheduler until my reply arrived". An
/// exit request stays pending for the enclosing [`csd_scheduler`].
// `#[inline]`: with the machine's loop, this monomorphizes into the
// caller as one frame (see `Pe::schedule`).
#[inline]
pub fn schedule_until<F: FnMut() -> bool>(pe: &Pe, pred: F) -> u64 {
    pe.schedule(Stop::Predicate, pred)
}
