//! Wire framing for the socket transport.
//!
//! When PEs live in separate OS processes the generalized message has to
//! cross a byte stream. A frame is the smallest self-delimiting unit on
//! that stream:
//!
//! ```text
//! [ u32 le: body length ][ u8 kind ][ u32 le src ][ u32 le dst ][ u64 le seq ][ u32 le channel ][ u8 guarantee ][ payload ... ]
//!                        `--------------------------- body (length bytes) ---------------------------'
//! ```
//!
//! The payload is the [`MsgBlock`] bytes verbatim — the same encoding
//! the in-process machine delivers (handler id at offset 0), so nothing
//! above the transport can tell which wire carried it. `src`/`dst` are
//! PE ranks; `seq` is reserved for a link protocol's sequence number.
//! The runtime writes 0 on every frame: its wires are reliable, and a
//! fault plan's link protocol runs inside the receiving process, where
//! a message enters its PE. `channel` and `guarantee`
//! carry the delivery channel id and its policy tag (`converse-net`'s
//! `Delivery::as_u8`: 0 exactly-once, 1 at-most-once, 2
//! latest-value-wins) so the receiving endpoint can apply per-channel
//! semantics without any out-of-band registry. `kind` distinguishes
//! data from the small control vocabulary the hub and endpoints speak
//! (hello/go bootstrap, stall routing, steal requests, teardown). The
//! shared-memory rings carry the same length prefix and header
//! ([`FrameHeader::to_bytes`] / [`FrameHeader::from_bytes`]), so a ring
//! record and a socket frame decode alike.
//!
//! Reads hand back a pool-backed [`MsgBlock`] so a frame's payload joins
//! the normal message circulation with no extra copy.

use crate::MsgBlock;
use std::io::{self, Read, Write};

/// Fixed bytes after the length prefix:
/// kind(1) + src(4) + dst(4) + seq(8) + channel(4) + guarantee(1).
pub const FRAME_HEADER_BYTES: usize = 22;

/// Upper bound on one frame's body. A length prefix above this is
/// treated as stream corruption rather than honored with a giant
/// allocation.
pub(crate) const MAX_FRAME_BODY: usize = 64 << 20;

/// The largest block a read allocates before any payload byte has
/// arrived.
const FIRST_READ: usize = 256;

/// How much a payload's block grows at a time once all of its bytes have
/// arrived and more are claimed (see [`read_claimed`]).
const GROWTH: usize = 8;

/// The fixed part of a frame (everything but the payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame discriminator; the transport defines the vocabulary.
    pub kind: u8,
    /// Source PE rank (or sender-defined for control frames).
    pub src: u32,
    /// Destination PE rank (or receiver-defined for control frames).
    pub dst: u32,
    /// Reserved for a link protocol's sequence number; the runtime
    /// writes 0 on every frame.
    pub seq: u64,
    /// Delivery channel id (0 = the default exactly-once channel).
    pub channel: u32,
    /// Delivery-guarantee tag (`Delivery::as_u8` in `converse-net`):
    /// 0 exactly-once, 1 at-most-once, 2 latest-value-wins.
    pub guarantee: u8,
}

impl FrameHeader {
    /// New header for a frame on the default channel (0, exactly-once).
    pub fn new(kind: u8, src: u32, dst: u32, seq: u64) -> FrameHeader {
        FrameHeader {
            kind,
            src,
            dst,
            seq,
            channel: 0,
            guarantee: 0,
        }
    }

    /// Tag this header with an explicit delivery channel + guarantee.
    pub fn on_channel(mut self, channel: u32, guarantee: u8) -> FrameHeader {
        self.channel = channel;
        self.guarantee = guarantee;
        self
    }

    /// The header's bytes as a frame (or a ring record) carries them
    /// after its length prefix.
    pub fn to_bytes(&self) -> [u8; FRAME_HEADER_BYTES] {
        let mut b = [0u8; FRAME_HEADER_BYTES];
        b[0] = self.kind;
        b[1..5].copy_from_slice(&self.src.to_le_bytes());
        b[5..9].copy_from_slice(&self.dst.to_le_bytes());
        b[9..17].copy_from_slice(&self.seq.to_le_bytes());
        b[17..21].copy_from_slice(&self.channel.to_le_bytes());
        b[21] = self.guarantee;
        b
    }

    /// Decode what [`FrameHeader::to_bytes`] wrote. Any bytes decode:
    /// what the fields name is for the receiver to check.
    pub fn from_bytes(bytes: &[u8; FRAME_HEADER_BYTES]) -> FrameHeader {
        FrameHeader {
            kind: bytes[0],
            src: u32::from_le_bytes(bytes[1..5].try_into().unwrap()),
            dst: u32::from_le_bytes(bytes[5..9].try_into().unwrap()),
            seq: u64::from_le_bytes(bytes[9..17].try_into().unwrap()),
            channel: u32::from_le_bytes(bytes[17..21].try_into().unwrap()),
            guarantee: bytes[21],
        }
    }
}

/// Encode one frame (length prefix included) into a fresh buffer.
pub fn encode_frame(header: FrameHeader, payload: &[u8]) -> Vec<u8> {
    let body = FRAME_HEADER_BYTES + payload.len();
    assert!(
        body <= MAX_FRAME_BODY,
        "frame body {body} exceeds MAX_FRAME_BODY"
    );
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    out.extend_from_slice(&header.to_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w` as a single `write_all` (one syscall in the
/// common case, so concurrent writers interleave at frame granularity
/// when the caller serializes on a lock).
pub fn write_frame(w: &mut impl Write, header: FrameHeader, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(header, payload))
}

/// Read one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
/// boundary; mid-frame EOF and oversized length prefixes are errors.
///
/// The length prefix is a claim, not a reservation: the payload's block
/// grows only with bytes received (see [`read_claimed`]), so a peer that
/// announces 64 MiB and then stops costs nothing near 64 MiB.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameHeader, MsgBlock)>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let body = u32::from_le_bytes(len_buf) as usize;
    if !(FRAME_HEADER_BYTES..=MAX_FRAME_BODY).contains(&body) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body length {body} out of range"),
        ));
    }
    let mut header_buf = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header_buf)?;
    let header = FrameHeader::from_bytes(&header_buf);
    let block = read_claimed(r, body - FRAME_HEADER_BYTES)?;
    Ok(Some((header, block)))
}

/// Read `len` bytes that a length prefix claims, into a block that grows
/// only with what arrives: the one bounded reader of socket frames and
/// of CCS frames. The first block is at most `FIRST_READ` (256) bytes,
/// so a body that fits takes one allocation of exactly its size. Each
/// further block comes only once every byte of the last has arrived,
/// and holds the whole claim if that is at most `GROWTH + 1` (9) times
/// the bytes received, else `GROWTH` (8) times them. So a body a few
/// bytes past a step — a 16 KiB message with its 8-byte header — takes
/// no extra block.
///
/// **Bound.** A block is at most 256 bytes or 9 × the bytes received
/// before it, and the blocks before it add up to less than 8/7 × those
/// bytes. So wherever the stream ends, the blocks of one read total at
/// most `max(256, 11 × received)` bytes, whatever the claim.
pub fn read_claimed(r: &mut (impl Read + ?Sized), len: usize) -> io::Result<MsgBlock> {
    let mut block = MsgBlock::alloc(len.min(FIRST_READ));
    r.read_exact(block.make_mut())?;
    while block.len() < len {
        let filled = block.len();
        let next = if len <= filled * (GROWTH + 1) {
            len
        } else {
            filled * GROWTH
        };
        let mut grown = MsgBlock::alloc(next);
        let buf = grown.make_mut();
        buf[..filled].copy_from_slice(block.as_slice());
        r.read_exact(&mut buf[filled..])?;
        block = grown;
    }
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use proptest::prelude::*;

    #[test]
    fn round_trips_header_and_payload() {
        let h = FrameHeader::new(3, 1, 2, 0x0102_0304_0506_0708);
        let buf = encode_frame(h, b"payload bytes");
        let mut r = &buf[..];
        let (got, block) = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(got, h);
        assert_eq!((got.channel, got.guarantee), (0, 0), "default channel");
        assert_eq!(block.as_slice(), b"payload bytes");
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF after frame"
        );
    }

    #[test]
    fn round_trips_channel_and_guarantee_tags() {
        let h = FrameHeader::new(3, 1, 2, 42).on_channel(0x8000_0007, 2);
        let buf = encode_frame(h, b"topic value");
        let (got, block) = read_frame(&mut &buf[..]).unwrap().expect("one frame");
        assert_eq!(got, h);
        assert_eq!(got.channel, 0x8000_0007);
        assert_eq!(got.guarantee, 2);
        assert_eq!(block.as_slice(), b"topic value");
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let buf = encode_frame(FrameHeader::new(9, 0, 0, 0), b"");
        let (h, block) = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(h.kind, 9);
        assert!(block.is_empty());
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf = encode_frame(FrameHeader::new(1, 0, 1, 1), b"a");
        buf.extend(encode_frame(FrameHeader::new(1, 0, 1, 2), b"bb"));
        let mut r = &buf[..];
        let (h1, p1) = read_frame(&mut r).unwrap().unwrap();
        let (h2, p2) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((h1.seq, p1.as_slice()), (1, &b"a"[..]));
        assert_eq!((h2.seq, p2.as_slice()), (2, &b"bb"[..]));
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let buf = encode_frame(FrameHeader::new(1, 0, 1, 1), b"full payload");
        let cut = &buf[..buf.len() - 3];
        let err = read_frame(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn undersized_body_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A stream of `left` bytes that records the blocks a reader fills
    /// from it: a read that follows a filled buffer starts a new block,
    /// of the bytes received so far plus the buffer it is handed.
    struct Recorder {
        left: usize,
        received: usize,
        filled: bool,
        blocks: Vec<usize>,
    }

    impl Recorder {
        fn new(left: usize) -> Recorder {
            Recorder {
                left,
                received: 0,
                filled: true,
                blocks: Vec::new(),
            }
        }
    }

    impl Read for Recorder {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.filled {
                self.blocks.push(self.received + buf.len());
            }
            let n = buf.len().min(self.left);
            buf[..n].fill(0xab);
            (self.left, self.received) = (self.left - n, self.received + n);
            self.filled = n == buf.len();
            Ok(n)
        }
    }

    #[test]
    fn a_payload_a_few_bytes_past_a_step_takes_no_extra_block() {
        // A 16 KiB Converse message is a 16,392-byte frame payload: the
        // message and its 8-byte header.
        let blocks_of = |len: usize| {
            let before = pool::stats().takes();
            let mut r = Recorder::new(len);
            let block = read_claimed(&mut r, len).unwrap();
            assert_eq!(block.len(), len);
            assert_eq!(pool::stats().takes() - before, r.blocks.len() as u64);
            r.blocks
        };
        assert_eq!(blocks_of(16_384), [256, 2048, 16_384]);
        assert_eq!(blocks_of(16_392), [256, 2048, 16_392]);
        assert_eq!(blocks_of(2056), [256, 2056]);
        assert_eq!(blocks_of(FIRST_READ), [FIRST_READ]);
    }

    #[test]
    fn a_truncated_claim_allocates_within_the_bound() {
        for received in [0, 1, 255, 256, 257, 2304, 2305, 16_392, 150_001, 1 << 20] {
            let mut r = Recorder::new(received);
            let err = read_claimed(&mut r, MAX_FRAME_BODY).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert_eq!(r.received, received);
            let total: usize = r.blocks.iter().sum();
            assert!(
                total <= FIRST_READ.max(11 * received),
                "{received} bytes of a {MAX_FRAME_BODY}-byte claim: blocks {:?}",
                r.blocks
            );
        }
    }

    #[test]
    fn a_payload_past_the_first_read_grows_with_what_arrived() {
        for len in [FIRST_READ + 1, 5000, 70_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let h = FrameHeader::new(1, 0, 1, 7);
            let buf = encode_frame(h, &payload);
            let (got, block) = read_frame(&mut &buf[..]).unwrap().unwrap();
            assert_eq!((got, block.as_slice()), (h, &payload[..]));
            // Cut anywhere inside the payload: an error, never a panic.
            let cut = &buf[..4 + FRAME_HEADER_BYTES + len / 2];
            let err = read_frame(&mut &cut[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    /// A frame header with every field drawn.
    fn arb_header() -> impl Strategy<Value = FrameHeader> {
        (
            (any::<u8>(), any::<u32>(), any::<u32>()),
            (any::<u64>(), any::<u32>(), any::<u8>()),
        )
            .prop_map(|((kind, src, dst), (seq, channel, g))| {
                FrameHeader::new(kind, src, dst, seq).on_channel(channel, g)
            })
    }

    proptest! {
        /// Any ≤ 256-byte stream reads as a frame, a clean EOF or an
        /// error without panicking, and whatever length its prefix
        /// claims, the only allocation is the payload's block: a frame
        /// that fails took at most one block, small enough for the pool
        /// to keep when it is dropped (a 64 MiB claim would be handed
        /// back to the allocator), and one that reads re-encodes to the
        /// bytes it came from.
        #[test]
        fn reading_any_bytes_allocates_only_what_arrived(
            bytes in proptest::collection::vec(any::<u8>(), 0..=256),
            claim in prop_oneof![
                Just(None),
                (0u32..=FIRST_READ as u32).prop_map(Some),
                (0u32..=MAX_FRAME_BODY as u32 + 1).prop_map(Some),
            ],
        ) {
            let mut bytes = bytes;
            if let (Some(c), true) = (claim, bytes.len() >= 4) {
                bytes[..4].copy_from_slice(&c.to_le_bytes());
            }
            let before = pool::stats();
            let mut r = &bytes[..];
            match read_frame(&mut r) {
                Ok(Some((h, block))) => {
                    prop_assert_eq!(pool::stats().takes() - before.takes(), 1);
                    let used = bytes.len() - r.len();
                    prop_assert_eq!(used, 4 + FRAME_HEADER_BYTES + block.len());
                    prop_assert_eq!(encode_frame(h, block.as_slice()), &bytes[..used]);
                }
                Ok(None) => prop_assert!(bytes.len() < 4),
                Err(_) => {
                    let after = pool::stats();
                    prop_assert!(after.takes() - before.takes() <= 1);
                    prop_assert_eq!(after.discarded, before.discarded);
                }
            }
        }

        /// Every `encode_frame` output reads back as the same header and
        /// payload, also back to back with a second frame.
        #[test]
        fn encoded_frames_round_trip(
            h in arb_header(),
            payload in proptest::collection::vec(any::<u8>(), 0..=230),
            next in arb_header(),
        ) {
            let mut buf = encode_frame(h, &payload);
            buf.extend(encode_frame(next, b"next"));
            let mut r = &buf[..];
            let (got, block) = read_frame(&mut r).unwrap().unwrap();
            prop_assert_eq!((got, block.as_slice()), (h, &payload[..]));
            let (got, block) = read_frame(&mut r).unwrap().unwrap();
            prop_assert_eq!((got, block.as_slice()), (next, &b"next"[..]));
            prop_assert!(read_frame(&mut r).unwrap().is_none());
        }
    }
}
