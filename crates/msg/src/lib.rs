//! Generalized messages for the Converse runtime.
//!
//! The paper (§3.1.1) generalizes a *message* to "an arbitrary block of
//! memory, with the first word specifying a function that will handle the
//! message". The function is named by an **index into a table of
//! functions** rather than a raw pointer, so the same bytes mean the same
//! thing on every processor. A generalized message can represent:
//!
//! 1. a message sent from a remote processor,
//! 2. a scheduler entry for a ready thread,
//! 3. a delayed function with its argument.
//!
//! This crate defines the on-the-wire layout ([`Message`]), the handler
//! index type ([`HandlerId`]), the refcounted pool-backed storage every
//! message lives in ([`MsgBlock`], [`pool`]), scheduling priorities
//! ([`Priority`], [`BitVecPrio`]) and small packing helpers
//! ([`pack::Packer`], [`pack::Unpacker`]) used by the language runtimes
//! to build payloads without a serialization framework in the hot path.
//!
//! # Layout
//!
//! A message is **one contiguous block**; header, priority area and
//! payload are offsets into it, never separate allocations:
//!
//! ```text
//! offset 0..4   handler index   (u32, little endian)   — CmiSetHandler
//! offset 4      priority kind   (0 = none, 1 = int, 2 = bitvector)
//! offset 5      priority words  (count of u32 words that follow header)
//! offset 6..8   flags           (u16, reserved for runtimes)
//! offset 8..    priority data   (priority-words * 4 bytes)
//! then          payload
//! ```
//!
//! `CmiMsgHeaderSizeBytes` in the paper's appendix corresponds to
//! [`HEADER_BYTES`] (the fixed part; the priority area is variable, as in
//! real Converse where bit-vector priorities have arbitrary length).
//!
//! # Ownership & zero-copy
//!
//! The block behind a [`Message`] is a refcounted [`MsgBlock`]: one
//! chunk from the per-PE free-list [`pool`] (the `CmiAlloc`/`CmiFree`
//! analogue) with its refcount and length in an inline header, so a
//! message costs no allocator call once the pool is warm.
//! [`Message::share`] (and `clone`,
//! which is the same operation) is a refcount bump; the interconnect
//! moves and shares blocks, so a send transfers ownership without
//! copying and a broadcast to P destinations is one buffer plus P
//! bumps. Mutators ([`Message::set_handler`], [`Message::set_flags`],
//! [`Message::payload_mut`]) are copy-on-write: in place on a uniquely
//! held message — the common case for a freshly received one, which is
//! what keeps the §3.3 retarget idiom free — and a single pooled copy
//! when the block is shared. `docs/API.md` ("Message ownership &
//! zero-copy rules") spells out the rules handlers rely on.

pub mod block;
pub mod frame;
pub mod pack;
pub mod pool;
pub mod prio;

use block::BlockWriter;
pub use block::MsgBlock;
pub use frame::{encode_frame, read_frame, write_frame, FrameHeader, FRAME_HEADER_BYTES};
pub use pool::PoolStats;
pub use prio::{BitVecPrio, BitWords, PrioWords, Priority};

use std::fmt;

/// Size of the fixed message header in bytes (`CmiMsgHeaderSizeBytes`).
pub const HEADER_BYTES: usize = 8;

/// Flag bit (in the runtime-private flag word at offset 6..8) marking a
/// message as **relocatable**: its handler's semantics do not depend on
/// which PE executes it, so an idle PE may steal it out of a loaded
/// PE's mailbox before that PE drains it. Only the runtime layer that
/// builds a message can know this, which is why the bit lives in the
/// message header and travels byte-identically across every transport.
pub const FLAG_STEALABLE: u16 = 0x0001;

const KIND_NONE: u8 = 0;
const KIND_INT: u8 = 1;
const KIND_BITVEC: u8 = 2;

/// Index into a per-processor handler table (`CmiRegisterHandler` result).
///
/// Handler ids are small dense integers; registration must occur in the
/// same order on every processor so that an id names the same function
/// everywhere — exactly the discipline real Converse imposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(pub u32);

impl HandlerId {
    /// Handler id stored in a freshly allocated message before
    /// `set_handler` is called. Dispatching it is an error.
    const INVALID: HandlerId = HandlerId(u32::MAX);

    /// Raw table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HandlerId({})", self.0)
    }
}

impl fmt::Display for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors from decoding raw bytes into a [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the fixed header.
    TooShort { len: usize },
    /// Priority kind byte not one of the known kinds.
    BadPriorityKind(u8),
    /// Header claims more priority words than the buffer holds.
    TruncatedPriority { words: usize, len: usize },
    /// The priority area does not have its kind's shape: no word for
    /// none, one for an integer, and for a bit vector the bit count
    /// followed by exactly the words it needs, unused tail bits zero.
    MalformedPriority { kind: u8, words: usize },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooShort { len } => {
                write!(
                    f,
                    "message of {len} bytes is shorter than the {HEADER_BYTES}-byte header"
                )
            }
            DecodeError::BadPriorityKind(k) => write!(f, "unknown priority kind {k}"),
            DecodeError::TruncatedPriority { words, len } => {
                write!(
                    f,
                    "header claims {words} priority words but message is {len} bytes"
                )
            }
            DecodeError::MalformedPriority { kind, words } => {
                write!(
                    f,
                    "priority area of {words} words is malformed for kind {kind}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A generalized Converse message: one contiguous block of bytes.
///
/// The first word names the handler; an optional priority area follows;
/// the rest is an opaque payload interpreted by the handler. Messages
/// are `Send` and contain no pointers, so they can cross processor
/// (thread) boundaries and — as in the paper — also represent local
/// scheduler entries such as "resume this thread".
///
/// The bytes live in a refcounted, pool-backed [`MsgBlock`];
/// [`Message::share`] / `clone` alias the block (a refcount bump, not a
/// copy) and the mutators are copy-on-write. See the module docs.
///
/// ```
/// use converse_msg::{Message, HandlerId, Priority};
///
/// let mut m = Message::with_priority(HandlerId(4), &Priority::Int(-2), b"payload");
/// assert_eq!(m.handler(), HandlerId(4));
/// assert_eq!(m.priority(), Priority::Int(-2));
/// assert_eq!(m.payload(), b"payload");
///
/// // Retarget at a second handler (the paper's §3.3 idiom) and ship it.
/// m.set_handler(HandlerId(9));
/// let wire = m.clone().into_bytes();
/// assert_eq!(Message::from_bytes(wire).unwrap(), m);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Message {
    block: MsgBlock,
}

impl Message {
    /// Build a message for `handler` carrying `payload`, no priority.
    #[inline]
    pub fn new(handler: HandlerId, payload: &[u8]) -> Self {
        Self::gather(handler, &Priority::None, [payload])
    }

    /// Build a message with an explicit scheduling priority.
    #[inline]
    pub fn with_priority(handler: HandlerId, prio: &Priority, payload: &[u8]) -> Self {
        Self::gather(handler, prio, [payload])
    }

    /// Build a message whose payload is the concatenation of `parts`
    /// (`CmiVectorSend`'s gather, at construction). Header, priority
    /// area and every part are written once, straight into one pooled
    /// chunk — how a runtime puts its own header (built on the stack,
    /// see [`pack::StackPacker`]) in front of a caller's bytes without
    /// an intermediate buffer. `parts` is walked twice, for the length
    /// and for the bytes: pass an array or slice of byte slices, or a
    /// chain of them.
    ///
    /// ```
    /// use converse_msg::{Message, HandlerId, Priority};
    ///
    /// let head = 7u32.to_le_bytes();
    /// let m = Message::gather(HandlerId(1), &Priority::Int(3), [&head[..], b"body"]);
    /// assert_eq!(m.payload(), b"\x07\0\0\0body");
    /// ```
    pub fn gather<I>(handler: HandlerId, prio: &Priority, parts: I) -> Self
    where
        I: IntoIterator + Clone,
        I::Item: AsRef<[u8]>,
    {
        let len = parts.clone().into_iter().map(|p| p.as_ref().len()).sum();
        let mut w = match prio {
            Priority::None => Self::begin(handler, KIND_NONE, &[], len),
            Priority::Int(v) => Self::begin(handler, KIND_INT, &[*v as u32], len),
            // Bit-vector priorities record their exact bit length in the
            // first priority word; see `prio::BitVecPrio::words`.
            Priority::BitVec(bv) => Self::begin(handler, KIND_BITVEC, bv.words(), len),
        };
        // A `parts` that yields other bytes the second time trips the
        // writer's overrun or fill check; no byte is exposed unwritten.
        for part in parts {
            w.put(part.as_ref());
        }
        Message { block: w.finish() }
    }

    /// A writer for a message of `payload_len` payload bytes, with the
    /// fixed header and the priority area written.
    fn begin(handler: HandlerId, kind: u8, prio: &[u32], payload_len: usize) -> BlockWriter {
        assert!(
            prio.len() <= u8::MAX as usize,
            "priority too long: {} words",
            prio.len()
        );
        let mut w = BlockWriter::new(HEADER_BYTES + prio.len() * 4 + payload_len);
        w.put(&handler.0.to_le_bytes());
        w.put(&[kind, prio.len() as u8, 0, 0]);
        for word in prio {
            w.put(&word.to_le_bytes());
        }
        w
    }

    /// Allocate a message with an uninitialized (`INVALID`) handler and a
    /// zero-filled payload of `payload_len` bytes. Mirrors the C pattern
    /// of `CmiAlloc` followed by `CmiSetHandler`.
    pub fn alloc(payload_len: usize) -> Self {
        let mut w = Self::begin(HandlerId::INVALID, KIND_NONE, &[], payload_len);
        w.put_zeros(payload_len);
        Message { block: w.finish() }
    }

    /// Decode raw bytes received from the interconnect, validating the
    /// header; the bytes are copied once into a pooled chunk. The
    /// inverse of [`Message::into_bytes`].
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        Self::from_block(MsgBlock::copy_from(bytes.as_ref()))
    }

    /// Validate a received block as a message without copying it. The
    /// inverse of [`Message::into_block`]; this is how the machine layer
    /// turns a delivered [`MsgBlock`] back into a `Message`.
    pub fn from_block(block: MsgBlock) -> Result<Self, DecodeError> {
        let bytes = block.as_slice();
        if bytes.len() < HEADER_BYTES {
            return Err(DecodeError::TooShort { len: bytes.len() });
        }
        let kind = bytes[4];
        if kind > KIND_BITVEC {
            return Err(DecodeError::BadPriorityKind(kind));
        }
        let words = bytes[5] as usize;
        if bytes.len() < HEADER_BYTES + words * 4 {
            return Err(DecodeError::TruncatedPriority {
                words,
                len: bytes.len(),
            });
        }
        let m = Message { block };
        // The priority area must have the one shape `with_priority`
        // writes for its kind, so that readers — the scheduler queue
        // compares these words in place — need not normalize it.
        let well_formed = match kind {
            KIND_NONE => words == 0,
            KIND_INT => words == 1,
            _ => {
                words >= 1 && {
                    let nbits = m.prio_word(0) as usize;
                    let tail = nbits % 32;
                    words - 1 == nbits.div_ceil(32)
                        && (tail == 0 || m.prio_word(words - 1) << tail == 0)
                }
            }
        };
        if !well_formed {
            return Err(DecodeError::MalformedPriority { kind, words });
        }
        Ok(m)
    }

    /// The wire representation as a plain `Vec` (one copy); prefer
    /// [`Message::into_block`] on hot paths.
    pub fn into_bytes(self) -> Vec<u8> {
        self.block.into_vec()
    }

    /// Surrender the underlying block (no copy) — what the send paths
    /// hand to the interconnect.
    #[inline]
    pub fn into_block(self) -> MsgBlock {
        self.block
    }

    /// The underlying block.
    #[inline]
    pub fn block(&self) -> &MsgBlock {
        &self.block
    }

    /// Another handle to the same message: a refcount bump, no copy.
    /// `clone` is the same operation; `share` states the intent.
    #[inline]
    pub fn share(&self) -> Message {
        Message {
            block: self.block.share(),
        }
    }

    /// Borrow the full wire representation.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.block.as_slice()
    }

    /// Handler index stored in the first word (`CmiGetHandler`).
    #[inline]
    pub fn handler(&self) -> HandlerId {
        let b = self.as_bytes();
        HandlerId(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Overwrite the handler index (`CmiSetHandler`). Language runtimes
    /// use this to retarget a queued message at a second handler so it is
    /// not re-enqueued (paper §3.3). Copy-on-write: in place on a
    /// uniquely held message, one pooled copy on a shared one.
    #[inline]
    pub fn set_handler(&mut self, h: HandlerId) {
        self.block.make_mut()[0..4].copy_from_slice(&h.0.to_le_bytes());
    }

    /// Runtime-private flag word.
    #[inline]
    pub fn flags(&self) -> u16 {
        let b = self.as_bytes();
        u16::from_le_bytes([b[6], b[7]])
    }

    /// Set the runtime-private flag word (copy-on-write when shared).
    #[inline]
    pub fn set_flags(&mut self, f: u16) {
        self.block.make_mut()[6..8].copy_from_slice(&f.to_le_bytes());
    }

    /// Tag this message as relocatable (see [`FLAG_STEALABLE`]): an
    /// idle PE may execute it in place of the addressed PE. Only mark
    /// messages whose handler is location-independent.
    #[inline]
    pub fn mark_stealable(&mut self) {
        let f = self.flags() | FLAG_STEALABLE;
        self.set_flags(f);
    }

    #[inline]
    fn kind(&self) -> u8 {
        self.as_bytes()[4]
    }

    #[inline]
    fn prio_word_count(&self) -> usize {
        self.as_bytes()[5] as usize
    }

    #[inline]
    fn payload_offset(&self) -> usize {
        HEADER_BYTES + self.prio_word_count() * 4
    }

    /// True unless the message is unprioritized ([`Priority::None`]); a
    /// header peek, no decode.
    #[inline]
    pub fn has_priority(&self) -> bool {
        self.kind() != KIND_NONE
    }

    /// The priority, borrowed from the message's own priority area —
    /// the non-allocating counterpart of [`Message::priority`].
    #[inline]
    pub fn priority_words(&self) -> PrioWords<'_> {
        match self.kind() {
            KIND_NONE => PrioWords::None,
            KIND_INT => PrioWords::Int(self.prio_word(0) as i32),
            _ => PrioWords::BitVec {
                nbits: self.prio_word(0),
                words: BitWords {
                    bytes: &self.as_bytes()[HEADER_BYTES + 4..self.payload_offset()],
                },
            },
        }
    }

    /// Decode the scheduling priority into an owned [`Priority`].
    pub fn priority(&self) -> Priority {
        match self.priority_words() {
            PrioWords::None => Priority::None,
            PrioWords::Int(v) => Priority::Int(v),
            PrioWords::BitVec { nbits, words } => {
                Priority::BitVec(BitVecPrio::from_raw(nbits, words.collect()))
            }
        }
    }

    #[inline]
    fn prio_word(&self, i: usize) -> u32 {
        let o = HEADER_BYTES + i * 4;
        let b = self.as_bytes();
        u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
    }

    /// The opaque payload following header and priority area.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.as_bytes()[self.payload_offset()..]
    }

    /// Mutable access to the payload, e.g. to fill a message allocated
    /// with [`Message::alloc`] (copy-on-write when shared).
    #[inline]
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let o = self.payload_offset();
        &mut self.block.make_mut()[o..]
    }

    /// Total size in bytes, header included — what `CmiSyncSend` sends.
    #[inline]
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// True when there is no payload (headers are always present).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload().is_empty()
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("handler", &self.handler())
            .field("priority", &self.priority())
            .field("payload_len", &self.payload().len())
            .finish()
    }
}

impl From<Message> for MsgBlock {
    fn from(m: Message) -> MsgBlock {
        m.into_block()
    }
}

/// Read the [`FLAG_STEALABLE`] bit straight out of raw message bytes
/// without constructing a [`Message`]. The transport's steal path
/// filters whole mailboxes with this — a header peek, no decode, no
/// refcount traffic. Malformed (short) buffers read as not stealable.
#[inline]
pub fn peek_stealable(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_BYTES && u16::from_le_bytes([bytes[6], bytes[7]]) & FLAG_STEALABLE != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_no_priority() {
        let m = Message::new(HandlerId(7), b"hello");
        assert_eq!(m.handler(), HandlerId(7));
        assert_eq!(m.priority(), Priority::None);
        assert_eq!(m.payload(), b"hello");
        assert_eq!(m.len(), HEADER_BYTES + 5);
    }

    #[test]
    fn roundtrip_int_priority() {
        for v in [i32::MIN, -1, 0, 1, 42, i32::MAX] {
            let m = Message::with_priority(HandlerId(1), &Priority::Int(v), b"x");
            assert_eq!(m.priority(), Priority::Int(v));
            assert_eq!(m.payload(), b"x");
        }
    }

    #[test]
    fn roundtrip_bitvec_priority() {
        let bv = BitVecPrio::from_bits(&[true, false, true, true, false]);
        let m = Message::with_priority(HandlerId(2), &Priority::BitVec(bv.clone()), b"payload");
        assert_eq!(m.priority(), Priority::BitVec(bv));
        assert_eq!(m.payload(), b"payload");
    }

    #[test]
    fn set_handler_preserves_rest() {
        let mut m = Message::with_priority(HandlerId(1), &Priority::Int(-3), b"abc");
        m.set_handler(HandlerId(99));
        assert_eq!(m.handler(), HandlerId(99));
        assert_eq!(m.priority(), Priority::Int(-3));
        assert_eq!(m.payload(), b"abc");
    }

    #[test]
    fn wire_roundtrip() {
        let m = Message::with_priority(HandlerId(3), &Priority::Int(5), b"wire");
        let bytes = m.clone().into_bytes();
        let back = Message::from_bytes(bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn decode_rejects_short() {
        assert!(matches!(
            Message::from_bytes(vec![0; 3]),
            Err(DecodeError::TooShort { len: 3 })
        ));
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut bytes = Message::new(HandlerId(0), b"").into_bytes();
        bytes[4] = 17;
        assert_eq!(
            Message::from_bytes(bytes),
            Err(DecodeError::BadPriorityKind(17))
        );
    }

    #[test]
    fn decode_rejects_truncated_priority() {
        let mut bytes = Message::new(HandlerId(0), b"").into_bytes();
        bytes[5] = 4; // claims 4 words, none present
        assert!(matches!(
            Message::from_bytes(bytes),
            Err(DecodeError::TruncatedPriority { words: 4, .. })
        ));
    }

    #[test]
    fn decode_rejects_malformed_priority() {
        let with_area = |kind: u8, area: &[u32]| {
            let mut bytes = vec![0, 0, 0, 0, kind, area.len() as u8, 0, 0];
            for w in area {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            Message::from_bytes(bytes)
        };
        let malformed = |kind, words| Err(DecodeError::MalformedPriority { kind, words });
        assert_eq!(with_area(KIND_NONE, &[0]), malformed(KIND_NONE, 1));
        assert_eq!(with_area(KIND_INT, &[]), malformed(KIND_INT, 0));
        assert_eq!(with_area(KIND_INT, &[1, 2]), malformed(KIND_INT, 2));
        // A bit vector needs its bit count, exactly the words that many
        // bits take, and zeros in the unused tail.
        assert_eq!(with_area(KIND_BITVEC, &[]), malformed(KIND_BITVEC, 0));
        assert_eq!(with_area(KIND_BITVEC, &[33, 0]), malformed(KIND_BITVEC, 2));
        assert_eq!(
            with_area(KIND_BITVEC, &[3, 0, 0]),
            malformed(KIND_BITVEC, 3)
        );
        assert_eq!(
            with_area(KIND_BITVEC, &[3, 0xA000_0001]),
            malformed(KIND_BITVEC, 2)
        );
        let ok = with_area(KIND_BITVEC, &[3, 0xA000_0000]).unwrap();
        assert_eq!(
            ok.priority(),
            Priority::BitVec(BitVecPrio::from_bits(&[true, false, true]))
        );
        assert!(with_area(KIND_BITVEC, &[0]).is_ok());
    }

    #[test]
    fn priority_words_borrow_the_area() {
        let none = Message::new(HandlerId(1), b"x");
        assert!(!none.has_priority());
        assert!(matches!(none.priority_words(), PrioWords::None));
        let int = Message::with_priority(HandlerId(1), &Priority::Int(-9), b"x");
        assert!(int.has_priority());
        assert!(matches!(int.priority_words(), PrioWords::Int(-9)));
        let bits: Vec<bool> = (0..70).map(|i| i % 5 == 0).collect();
        let bv = BitVecPrio::from_bits(&bits);
        let m = Message::with_priority(HandlerId(1), &Priority::BitVec(bv.clone()), b"x");
        match m.priority_words() {
            PrioWords::BitVec { nbits, words } => {
                assert_eq!(nbits, 70);
                assert_eq!(words.collect::<Vec<u32>>(), bv.words()[1..]);
            }
            other => panic!("expected a bit vector, got {other:?}"),
        }
    }

    #[test]
    fn alloc_then_fill() {
        let mut m = Message::alloc(4);
        assert_eq!(m.handler(), HandlerId::INVALID);
        m.set_handler(HandlerId(5));
        m.payload_mut().copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(m.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn flags_roundtrip() {
        let mut m = Message::new(HandlerId(0), b"p");
        assert_eq!(m.flags(), 0);
        m.set_flags(0xBEEF);
        assert_eq!(m.flags(), 0xBEEF);
        assert_eq!(m.payload(), b"p");
    }

    #[test]
    fn stealable_flag_and_peek() {
        let mut m = Message::new(HandlerId(3), b"seed");
        assert!(!peek_stealable(m.as_bytes()));
        m.mark_stealable();
        assert!(peek_stealable(m.as_bytes()));
        // Other flag bits survive the mark, and the tag rides the wire
        // bytes (the transport peeks without decoding).
        m.set_flags(m.flags() | 0x0100);
        assert!(peek_stealable(m.as_bytes()));
        let wire = m.clone().into_bytes();
        assert!(peek_stealable(&wire));
        assert_eq!(Message::from_bytes(wire).unwrap().flags(), m.flags());
        // Short buffers are never stealable.
        assert!(!peek_stealable(&[0xFF; 4]));
    }

    #[test]
    fn empty_payload() {
        let m = Message::new(HandlerId(1), b"");
        assert!(m.is_empty());
        assert_eq!(m.len(), HEADER_BYTES);
    }

    #[test]
    fn share_aliases_clone_is_share() {
        let m = Message::new(HandlerId(3), b"alias");
        let s = m.share();
        let c = m.clone();
        assert_eq!(m.block().as_ptr(), s.block().as_ptr());
        assert_eq!(m.block().as_ptr(), c.block().as_ptr());
        assert_eq!(m.block().ref_count(), 3);
    }

    #[test]
    fn retarget_on_shared_message_is_copy_on_write() {
        let m = Message::with_priority(HandlerId(1), &Priority::Int(5), b"body");
        let mut other = m.share();
        other.set_handler(HandlerId(2));
        // The retargeted copy diverged; the original is untouched.
        assert_eq!(m.handler(), HandlerId(1));
        assert_eq!(other.handler(), HandlerId(2));
        assert_eq!(other.priority(), Priority::Int(5));
        assert_eq!(other.payload(), b"body");
        assert_ne!(m.block().as_ptr(), other.block().as_ptr());
    }

    #[test]
    fn retarget_on_unique_message_is_in_place() {
        let mut m = Message::new(HandlerId(1), b"x");
        let ptr = m.block().as_ptr();
        m.set_handler(HandlerId(9));
        assert_eq!(m.block().as_ptr(), ptr, "unique retarget must not copy");
    }

    #[test]
    fn message_storage_cycles_through_pool() {
        // alloc → free → alloc of the same size class reuses the block.
        let m = Message::new(HandlerId(1), &[7u8; 100]);
        let ptr = m.block().as_ptr();
        drop(m);
        let m2 = Message::new(HandlerId(2), &[8u8; 90]);
        assert_eq!(
            m2.block().as_ptr(),
            ptr,
            "same backing allocation must be observed across alloc/free/alloc"
        );
    }

    #[test]
    fn construction_is_one_pool_take() {
        let before = pool::stats().takes();
        let m = Message::new(HandlerId(1), &[0u8; 64]);
        assert_eq!(pool::stats().takes() - before, 1);
        let _shared: Vec<Message> = (0..8).map(|_| m.share()).collect();
        assert_eq!(pool::stats().takes() - before, 1, "shares are free");
    }
}
