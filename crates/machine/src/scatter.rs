//! EMI scatter "advance receive" calls (paper §3.1.3).
//!
//! "The scattering related calls are more complex because they must also
//! specify how to identify a message for which scattering needs to be
//! done in a particular manner. The scatter-related calls are 'advance
//! receive' calls, in that it is expected (although not required) that
//! these calls are made before the actual message arrives. The calls
//! specify how to identify their target with offsets and values. They
//! also specify which parts of matching messages must be copied to which
//! of the user data areas. Two variants of this call are provided, one
//! of which simply scatters the data on receipt of the message, while
//! the other queues a short empty message in addition."
//!
//! A [`ScatterSpec`] names the match predicate (payload word at `offset`
//! equals `value`), the pieces to copy out (payload ranges → scatter
//! areas), and optionally a notify handler that receives a short empty
//! message after the data lands. Registered specs are checked on every
//! received message *before* normal dispatch; a matching message is
//! consumed by the scatter. Areas are read back with
//! [`Pe::scatter_take`]. The gather counterpart is `CmiVectorSend`
//! (`Pe::vector_send`) — and per the paper, gathered sends and scatter
//! receives are freely mixable with ordinary ones.

use crate::pe::Pe;
use converse_msg::{HandlerId, Message};
use std::collections::HashMap;

/// One piece of a scatter: copy `len` payload bytes starting at
/// `src_offset` into the scatter area named by `area`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterPiece {
    /// Byte offset within the matching message's payload.
    pub src_offset: usize,
    /// Bytes to copy.
    pub len: usize,
    /// Destination area key (created implicitly, read with
    /// [`Pe::scatter_take`]).
    pub area: u64,
}

/// An advance-receive registration.
#[derive(Debug, Clone)]
pub struct ScatterSpec {
    /// Handler the matching message targets (scatters are per-handler,
    /// like everything else in Converse).
    pub handler: HandlerId,
    /// Payload byte offset of the 4-byte little-endian match word.
    pub match_offset: usize,
    /// Value the match word must equal.
    pub match_value: u32,
    /// The copies to perform.
    pub pieces: Vec<ScatterPiece>,
    /// When set, a short empty message for this handler is enqueued on
    /// the scheduler queue after the data lands — the paper's second
    /// variant, "sometimes necessary to notify the recipient that the
    /// data has arrived".
    pub notify: Option<HandlerId>,
}

impl ScatterSpec {
    fn matches(&self, msg: &Message) -> bool {
        self.handler == msg.handler() && {
            let p = msg.payload();
            p.len() >= self.match_offset + 4
                && u32::from_le_bytes(
                    p[self.match_offset..self.match_offset + 4]
                        .try_into()
                        .expect("4 bytes"),
                ) == self.match_value
        }
    }
}

/// Handle identifying a registered scatter (to cancel or re-arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScatterHandle(u64);

/// The advance receives of one PE; part of its owner-only scheduler
/// core, because every received message is offered to them first.
#[derive(Default)]
pub(crate) struct ScatterState {
    specs: HashMap<u64, ScatterSpec>,
    areas: HashMap<u64, Vec<u8>>,
    next: u64,
}

impl ScatterState {
    /// True when any advance receive is registered — with none (the
    /// usual case) a retrieval skips the matching altogether.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        !self.specs.is_empty()
    }
}

impl Pe {
    /// Register an advance receive. Returns a handle; the scatter stays
    /// armed (matching any number of messages) until cancelled.
    pub fn scatter_register(&self, spec: ScatterSpec) -> ScatterHandle {
        self.core(|c| {
            let id = c.scatter.next;
            c.scatter.next += 1;
            c.scatter.specs.insert(id, spec);
            ScatterHandle(id)
        })
    }

    /// Cancel an advance receive. Returns false if already cancelled.
    pub fn scatter_cancel(&self, h: ScatterHandle) -> bool {
        self.core(|c| c.scatter.specs.remove(&h.0).is_some())
    }

    /// Take the accumulated contents of a scatter area (clearing it).
    /// Empty if nothing matched yet.
    pub fn scatter_take(&self, area: u64) -> Vec<u8> {
        self.core(|c| c.scatter.areas.remove(&area))
            .unwrap_or_default()
    }

    /// Peek at a scatter area without clearing.
    pub fn scatter_peek(&self, area: u64) -> Vec<u8> {
        self.core(|c| c.scatter.areas.get(&area).cloned())
            .unwrap_or_default()
    }

    /// Try to consume `msg` by a registered scatter. Returns true when a
    /// spec matched (the message is then fully handled here). Called by
    /// the retrieval paths before normal dispatch, and only while a
    /// scatter is armed.
    pub(crate) fn scatter_try(&self, msg: &Message) -> bool {
        let matched: Option<Option<HandlerId>> = self.core(|c| {
            let ScatterState { specs, areas, .. } = &mut c.scatter;
            let spec = specs.values().find(|s| s.matches(msg))?;
            let p = msg.payload();
            for piece in &spec.pieces {
                let end = (piece.src_offset + piece.len).min(p.len());
                if piece.src_offset < end {
                    areas
                        .entry(piece.area)
                        .or_default()
                        .extend_from_slice(&p[piece.src_offset..end]);
                }
            }
            Some(spec.notify)
        });
        if let Some(Some(h)) = matched {
            self.queue_enqueue(Message::new(h, b""), converse_queue::QueueingMode::Fifo);
        }
        matched.is_some()
    }
}
