//! Counting-based global quiescence detection.
//!
//! A message-driven computation (paper §2.1) is *quiescent* when no
//! handler is running anywhere and no counted message is in flight or
//! queued. The classic two-wave counting detector: PE 0 repeatedly polls
//! every PE for its (created, processed) counters; when the machine-wide
//! totals are equal **and** identical across two consecutive waves, no
//! message can be hiding in the network, so the computation has
//! quiesced. Charm (the paper's flagship client runtime) relies on this
//! facility; our mini-Charm wires its message counts in automatically.
//!
//! Usage: every PE calls [`Quiescence::install`] (same registration
//! order!), work producers call [`Quiescence::msg_created`] per counted
//! message and consumers [`Quiescence::msg_processed`]; PE 0 arms the
//! detector with [`Quiescence::start`], providing a callback message
//! that is enqueued on PE 0's scheduler queue at quiescence.

use crate::csd;
use converse_machine::{HandlerId, Message, OwnerCell, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use std::sync::Arc;

/// PE 0's side of a detection (idle elsewhere).
#[derive(Default)]
struct RootWave {
    active: bool,
    wave: u64,
    replies: usize,
    sum_created: u64,
    sum_processed: u64,
    prev: Option<(u64, u64)>,
    callback: Option<Message>,
}

/// What the detector keeps per PE: this PE's counters and PE 0's wave.
#[derive(Default)]
struct State {
    created: u64,
    processed: u64,
    root: RootWave,
}

/// Per-PE quiescence runtime, kept in PE-local storage. Install with
/// [`Quiescence::install`]; handlers resolve it with [`Quiescence::get`].
pub struct Quiescence {
    wave_h: HandlerId,
    reply_h: HandlerId,
    next_wave_h: HandlerId,
    /// Owner-only: touched by the PE's running context alone.
    state: OwnerCell<State>,
}

impl Quiescence {
    /// Register the detector's handlers on this PE and return its
    /// runtime. Must be called on **every** PE, in the same registration
    /// position, before any counted messages flow. Idempotent per PE.
    pub fn install(pe: &Pe) -> Arc<Quiescence> {
        pe.local(|| Self::register(pe))
    }

    fn register(pe: &Pe) -> Quiescence {
        let wave_h = pe.register_handler(|pe, msg| {
            let qd = Quiescence::get(pe);
            let mut u = Unpacker::new(msg.payload());
            let wave = u.u64().expect("qd wave: wave");
            let (created, processed) = qd.state(pe, |s| (s.created, s.processed));
            let reply = StackPacker::<24>::new()
                .u64(wave)
                .u64(created)
                .u64(processed);
            pe.sync_send_and_free(0, Message::new(qd.reply_h, reply.as_slice()));
        });
        let reply_h = pe.register_handler(|pe, msg| {
            let mut u = Unpacker::new(msg.payload());
            let wave = u.u64().expect("qd reply: wave");
            let created = u.u64().expect("qd reply: created");
            let processed = u.u64().expect("qd reply: processed");
            Quiescence::get(pe).on_reply(pe, wave, created, processed);
        });
        // Waves are paced through the scheduler queue at the *least
        // urgent* priority: a completed non-quiet wave enqueues this
        // message instead of immediately broadcasting the next wave, so
        // wave traffic can never starve real work out of the network
        // drain — the same use of priorities §2.3 motivates.
        let next_wave_h = pe.register_handler(|pe, _msg| {
            let qd = Quiescence::get(pe);
            if qd.is_active(pe) {
                qd.send_wave(pe);
            }
        });
        Quiescence {
            wave_h,
            reply_h,
            next_wave_h,
            state: OwnerCell::new(pe.owner(), State::default()),
        }
    }

    /// Open the detector's state. `f` must not call out of this module.
    fn state<R>(&self, pe: &Pe, f: impl FnOnce(&mut State) -> R) -> R {
        self.state.with(pe.owner(), f)
    }

    /// The runtime previously installed on this PE, borrowed from its
    /// PE-local storage; panics otherwise.
    #[inline]
    pub fn get(pe: &Pe) -> &Quiescence {
        pe.local_ref()
            .unwrap_or_else(|| panic!("PE {}: Quiescence::install was not called", pe.my_pe()))
    }

    /// Count `n` messages as created (sent). Call at every counted send.
    pub fn msg_created(&self, pe: &Pe, n: u64) {
        self.state(pe, |s| s.created += n);
    }

    /// Count `n` messages as processed. Call when a counted message's
    /// handler completes.
    pub fn msg_processed(&self, pe: &Pe, n: u64) {
        self.state(pe, |s| s.processed += n);
    }

    /// Local created-counter value.
    pub fn created(&self, pe: &Pe) -> u64 {
        self.state(pe, |s| s.created)
    }

    /// Local processed-counter value.
    pub fn processed(&self, pe: &Pe) -> u64 {
        self.state(pe, |s| s.processed)
    }

    /// Arm the detector (PE 0 only): when the machine quiesces,
    /// `callback` is enqueued on PE 0's scheduler queue. Panics if armed
    /// twice concurrently or called off PE 0.
    pub fn start(&self, pe: &Pe, callback: Message) {
        assert_eq!(pe.my_pe(), 0, "quiescence detection starts on PE 0");
        self.state(pe, |s| {
            let r = &mut s.root;
            assert!(!r.active, "quiescence detection already active");
            *r = RootWave {
                active: true,
                wave: r.wave + 1,
                callback: Some(callback),
                ..RootWave::default()
            };
        });
        self.send_wave(pe);
    }

    /// True while a detection is armed and waves are circulating.
    pub fn is_active(&self, pe: &Pe) -> bool {
        self.state(pe, |s| s.root.active)
    }

    fn send_wave(&self, pe: &Pe) {
        let wave = self.state(pe, |s| s.root.wave);
        pe.sync_broadcast_all(&Message::new(self.wave_h, &wave.to_le_bytes()));
    }

    fn on_reply(&self, pe: &Pe, wave: u64, created: u64, processed: u64) {
        // `None` until every PE of the current wave has replied; then
        // `Some(callback)` if the machine is quiet, `Some(None)` if
        // another wave is due.
        let done = self.state(pe, |s| {
            let r = &mut s.root;
            if !r.active || wave != r.wave {
                return None; // stale reply from a previous wave
            }
            r.replies += 1;
            r.sum_created += created;
            r.sum_processed += processed;
            if r.replies < pe.num_pes() {
                return None;
            }
            let totals = (r.sum_created, r.sum_processed);
            let quiet = totals.0 == totals.1 && r.prev == Some(totals);
            r.active = !quiet;
            r.prev = Some(totals);
            r.wave += 1;
            (r.replies, r.sum_created, r.sum_processed) = (0, 0, 0);
            Some(quiet.then(|| r.callback.take().expect("armed detector has a callback")))
        });
        match done {
            None => {}
            Some(Some(callback)) => csd::csd_enqueue(pe, callback),
            // Defer the next wave behind all queued work (see install).
            Some(None) => pe.queue_enqueue(
                Message::with_priority(
                    self.next_wave_h,
                    &converse_msg::Priority::Int(i32::MAX),
                    b"",
                ),
                converse_queue::QueueingMode::PrioFifo,
            ),
        }
    }
}
