//! MMI point-to-point communication and message retrieval (paper §3.1.3
//! and appendix §3.3/§3.5).
//!
//! Send calls mirror the C API: `CmiSyncSend` (buffer reusable on
//! return), `CmiAsyncSend` (returns a [`CommHandle`] to poll with
//! `CmiAsyncMsgSent`), `*AndFree` variants that consume the message, the
//! broadcast family, and `CmiVectorSend` which gathers scattered pieces
//! into one message. Retrieval: `get_msg` (`CmiGetMsg`), `deliver_msgs`
//! (`CmiDeliverMsgs`), and `get_specific_msg` (`CmiGetSpecificMsg`) which
//! blocks for one handler while buffering messages destined for others —
//! the call that lets *no-concurrency* (SPM) languages block without any
//! scheduler at all. Beside them, the scheduler loop itself
//! ([`Pe::schedule`]), which `converse-core`'s Csd calls stop in
//! different places.
//!
//! Every loop here that waits — the scheduler loop, `deliver_until` and
//! the retrieval wait under `get_specific_msg` and the EMI — idles
//! through one `Pe::idle_turn`: abort check, watchdog, one park.

use crate::pe::Pe;
use converse_msg::{HandlerId, Message};
use converse_net::Channel;
use converse_trace::Event;
use std::collections::HashMap;

/// Handle identifying an asynchronous communication in progress
/// (`CommHandle` in the appendix). Query with [`Pe::async_msg_sent`],
/// recycle with [`Pe::release_comm_handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommHandle(u64);

/// Registry of outstanding async operations. The simulated wire
/// completes sends synchronously, but the handle lifecycle (create,
/// poll, release) is kept faithful so code written against it ports.
#[derive(Default)]
pub(crate) struct CommHandles {
    slots: HashMap<u64, bool>,
    next: u64,
}

impl Pe {
    /// Issue a handle for an operation that is `done` or not.
    pub(crate) fn comm_create(&self, done: bool) -> CommHandle {
        self.open(&self.comm, |c| {
            let id = c.next;
            c.next += 1;
            c.slots.insert(id, done);
            CommHandle(id)
        })
    }

    #[inline]
    fn trace_send(&self, dst: usize, msg: &Message) {
        if self.trace_enabled() {
            self.trace_event(Event::MsgSent {
                dst,
                bytes: msg.len(),
                handler: msg.handler().0,
            });
        }
    }

    // ---- sends -----------------------------------------------------------

    /// Send `msg` to `dst`; the caller keeps the message and may reuse it
    /// immediately (`CmiSyncSend`). Zero-copy: the wire carries a share
    /// of the caller's block, so this costs a refcount bump, not a
    /// payload copy (later in-place edits by the caller copy-on-write).
    pub fn sync_send(&self, dst: usize, msg: &Message) {
        self.sync_send_on(dst, Channel::DEFAULT, msg);
    }

    /// Send `msg` to `dst`, consuming it (`CmiSyncSendAndFree`). The
    /// block moves to the wire outright — no copy, no refcount traffic.
    #[inline]
    pub fn sync_send_and_free(&self, dst: usize, msg: Message) {
        self.sync_send_and_free_on(dst, Channel::DEFAULT, msg);
    }

    /// [`Pe::sync_send`] on an explicit delivery channel: the channel's
    /// guarantee (exactly-once, at-most-once, latest-value-wins)
    /// governs how the wire treats loss, duplication and supersession.
    /// Resolve named channels with [`Pe::channel`].
    pub fn sync_send_on(&self, dst: usize, channel: Channel, msg: &Message) {
        self.trace_send(dst, msg);
        self.send_block(dst, channel, msg.block().share());
    }

    /// [`Pe::sync_send_and_free`] on an explicit delivery channel.
    pub fn sync_send_and_free_on(&self, dst: usize, channel: Channel, msg: Message) {
        self.trace_send(dst, &msg);
        self.send_block(dst, channel, msg.into_block());
    }

    /// Begin an asynchronous send (`CmiAsyncSend`). On this machine the
    /// data is captured immediately, so the returned handle is already
    /// complete; poll it with [`Pe::async_msg_sent`].
    pub fn async_send(&self, dst: usize, msg: &Message) -> CommHandle {
        self.sync_send(dst, msg);
        self.comm_create(true)
    }

    /// Status of an asynchronous operation (`CmiAsyncMsgSent`). Panics on
    /// a released or never-issued handle.
    pub fn async_msg_sent(&self, h: CommHandle) -> bool {
        self.open(&self.comm, |c| c.slots.get(&h.0).copied())
            .unwrap_or_else(|| panic!("PE {}: unknown CommHandle {h:?}", self.my_pe()))
    }

    /// Recycle an asynchronous handle (`CmiReleaseCommHandle`). Returns
    /// false if the handle was already released.
    pub fn release_comm_handle(&self, h: CommHandle) -> bool {
        self.open(&self.comm, |c| c.slots.remove(&h.0).is_some())
    }

    /// Handles issued but not yet released — a leak check for tests.
    pub fn outstanding_comm_handles(&self) -> usize {
        self.open(&self.comm, |c| c.slots.len())
    }

    /// Gather `pieces` from scattered memory into one message for
    /// `handler` and send it to `dst` (`CmiVectorSend`). The receiver
    /// sees a single contiguous payload: vector-send and ordinary sends
    /// are interchangeable on the receive side, as the paper specifies
    /// for gather/scatter ("it is not necessary that a message sent via a
    /// gather is received via a scatter call").
    pub fn vector_send(&self, dst: usize, handler: HandlerId, pieces: &[&[u8]]) -> CommHandle {
        let msg = Message::gather(handler, &converse_msg::Priority::None, pieces);
        self.sync_send_and_free(dst, msg);
        self.comm_create(true)
    }

    // ---- broadcasts --------------------------------------------------------

    /// Send to every other PE (`CmiSyncBroadcast`). Not a barrier: only
    /// the sender participates. One block, P−1 refcount bumps — every
    /// destination aliases the same allocation.
    pub fn sync_broadcast(&self, msg: &Message) {
        for dst in 0..self.num_pes() {
            if dst != self.my_pe() {
                self.trace_send(dst, msg);
            }
        }
        self.net()
            .broadcast(self.my_pe(), msg.block().share(), false);
    }

    /// Send to every PE including self (`CmiSyncBroadcastAll`). One
    /// block, P refcount bumps. The self copy takes the local queue when
    /// a self-send would ([`Pe::sync_send`]).
    pub fn sync_broadcast_all(&self, msg: &Message) {
        for dst in 0..self.num_pes() {
            self.trace_send(dst, msg);
        }
        let local = self.self_lane_for(Channel::DEFAULT);
        self.net()
            .broadcast(self.my_pe(), msg.block().share(), !local);
        if local {
            self.push_local(Channel::DEFAULT, msg.block().share());
        }
    }

    /// Broadcast to all and consume the message
    /// (`CmiSyncBroadcastAllAndFree`).
    pub fn sync_broadcast_all_and_free(&self, msg: Message) {
        self.sync_broadcast_all(&msg);
    }

    /// Asynchronous broadcast excluding self (`CmiAsyncBroadcast`).
    pub fn async_broadcast(&self, msg: &Message) -> CommHandle {
        self.sync_broadcast(msg);
        self.comm_create(true)
    }

    /// Asynchronous broadcast including self (`CmiAsyncBroadcastAll`).
    pub fn async_broadcast_all(&self, msg: &Message) -> CommHandle {
        self.sync_broadcast_all(msg);
        self.comm_create(true)
    }

    // ---- retrieval ---------------------------------------------------------

    /// The next received message, if any (`CmiGetMsg`): first anything
    /// buffered by [`Pe::get_specific_msg`], then the intake buffer /
    /// network.
    pub fn get_msg(&self) -> Option<Message> {
        self.next_message(1).map(|(_src, m, _armed)| m)
    }

    /// Like [`Pe::get_msg`] but bypassing the pending buffer and
    /// reporting the source PE; internal use by the delivery loops. The
    /// packet comes from the PE's intake buffer, refilled from the net
    /// in batches of up to `budget` — single-message callers pass 1,
    /// bulk callers a large budget, and both observe one delivery order.
    pub(crate) fn get_packet(&self, budget: usize) -> Option<(usize, Message)> {
        self.core(|c| self.pop_inbound(c, budget))
            .map(|p| self.open_packet(p))
    }

    /// Deliver received messages straight to their handlers
    /// (`CmiDeliverMsgs`): up to `max` of them (all if `None`). Returns
    /// how many were delivered. Buffered (pending) messages go first.
    /// Network intake is batched: up to a batch of the mailbox moves
    /// into the PE's intake buffer in one lock acquisition and is
    /// dispatched from there, so the per-message cost no longer includes
    /// a contended lock op.
    pub fn deliver_msgs(&self, max: Option<usize>) -> usize {
        let mut n = 0;
        let limit = max.unwrap_or(usize::MAX);
        while n < limit {
            // Refill in bounded batches rather than taking the whole
            // mailbox at once: packets in the PE-private intake are
            // invisible to load probes and to work stealing, so a
            // bounded refill keeps any real backlog observable (and
            // stealable) in the mailbox while still amortizing its lock.
            // The local queue is never visible to either: it holds only
            // self-sends, and only on a machine without stealing.
            let budget = (limit - n).min(crate::pe::INTERNAL_BUDGET);
            let Some((src, m, scatter_armed)) = self.next_message(budget) else {
                break;
            };
            if !(scatter_armed && self.scatter_try(&m)) {
                self.call_handler_from(src, m);
            }
            n += 1;
        }
        n
    }

    /// The scheduler loop (paper §3.1.2, Figure 3) — the one loop under
    /// `CsdScheduler`, `CsdScheduleUntilIdle` and `schedule_until`. A
    /// turn drains the network (handlers run at once and may enqueue),
    /// publishes the load sample, then runs one scheduler-queue entry.
    /// A turn that found nothing steals a batch from a loaded peer (a
    /// no-op unless the machine enables stealing) and, failing that,
    /// takes the idle turn. `until` is asked before each drain and again
    /// after it; `stop` says what else ends the loop. Returns how many
    /// messages ran.
    ///
    /// The queue phase stays one entry a turn on purpose: a handler that
    /// enqueues urgent prioritized work mid-batch still sees it preempt
    /// at the next dequeue.
    // `#[inline]`: each Csd wrapper monomorphizes this into its caller,
    // and the predicate, a closure of the caller's, is asked twice a
    // turn. Left to codegen-unit partitioning, whether the loop ends up
    // inside its caller changes with unrelated code (EXPERIMENTS.md,
    // "tSM for the price of its parts", on `exchange_inproc`).
    #[inline]
    pub fn schedule(&self, stop: Stop, mut until: impl FnMut() -> bool) -> u64 {
        let limit = match stop {
            Stop::After(n) => n,
            Stop::Idle | Stop::Predicate => u64::MAX,
        };
        let exits = stop != Stop::Predicate;
        let mut done = |ran: u64| ran >= limit || until() || (exits && self.take_exit());
        let mut ran = 0u64;
        let mut idle_since = None;
        while !done(ran) {
            let cap = usize::try_from(limit - ran).unwrap_or(usize::MAX);
            let delivered = self.deliver_msgs(Some(cap)) as u64;
            ran += delivered;
            if done(ran) {
                break;
            }
            self.publish_load();
            if let Some(m) = self.queue_dequeue() {
                self.call_handler(m);
                ran += 1;
            } else if delivered == 0 {
                if stop == Stop::Idle {
                    break;
                }
                if self.try_steal() == 0 {
                    self.idle_turn(&mut idle_since);
                    continue;
                }
            }
            idle_since = None;
        }
        ran
    }

    /// Block until a message for `handler` arrives, buffering any
    /// messages meant for other handlers (`CmiGetSpecificMsg`). This is
    /// the SPM blocking receive: "no other activity takes place in user
    /// space while the program is blocked waiting for a specific
    /// message" — buffered messages are *not* delivered, just retained
    /// for later retrieval.
    pub fn get_specific_msg(&self, handler: HandlerId) -> Message {
        self.retrieval_wait(Some(handler), || false)
            .expect("a wait with no done rule ends only on its message")
    }

    /// The machine's retrieval wait, under [`Pe::get_specific_msg`] and
    /// every blocking EMI call: dispatch the machine's internal protocol
    /// messages (collective waves, global-pointer replies — below the
    /// "no user-space activity" line, they progress while the user layer
    /// blocks), buffer user messages for later retrieval, and return the
    /// first message for `want`, or `None` once `done()` holds. Blocking
    /// in a collective so never consumes a user message an SPM receive
    /// waits for — the paper's no-concurrency promise.
    pub(crate) fn retrieval_wait(
        &self,
        want: Option<HandlerId>,
        mut done: impl FnMut() -> bool,
    ) -> Option<Message> {
        // Only messages for other handlers are buffered below, so the
        // buffer can hold a match only on entry.
        if let Some(m) = want.and_then(|h| self.pending_take_matching(h)) {
            return Some(m);
        }
        let mut idle_since = None;
        while !done() {
            let Some((src, m)) = self.get_packet(crate::pe::INTERNAL_BUDGET) else {
                self.idle_turn(&mut idle_since);
                continue;
            };
            idle_since = None;
            if Some(m.handler()) == want {
                return Some(m);
            }
            if self.is_internal_handler(m.handler()) {
                self.call_handler_from(src, m);
            } else {
                self.pending_push(m);
            }
        }
        None
    }
}

/// What ends a scheduler loop ([`Pe::schedule`]) besides its predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After this many messages (`CsdScheduler(n)`; `u64::MAX` for no
    /// count), or at an exit request ([`Pe::exit_scheduler`]).
    After(u64),
    /// At the first turn that finds nothing to do, before it steals or
    /// parks (`CsdScheduleUntilIdle`), or at an exit request.
    Idle,
    /// Only when the predicate holds. An exit request stays pending for
    /// the `After` or `Idle` loop this one runs inside.
    Predicate,
}
