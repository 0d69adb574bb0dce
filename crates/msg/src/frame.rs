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
//! One [`Decoder`] reads every length-prefixed frame: these, and the
//! headerless frames of CCS. It is fed by its caller's reads, keeps its
//! place across a non-blocking read that stops mid-frame, and hands back
//! a pool-backed [`MsgBlock`] filled in place, so a frame's payload joins
//! the normal message circulation with no extra copy. [`read_frame`] is
//! the blocking loop over it.

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
/// arrived and more are claimed (see [`Decoder`]).
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
/// grows only with bytes received (see [`Decoder`]), so a peer that
/// announces 64 MiB and then stops costs nothing near 64 MiB.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameHeader, MsgBlock)>> {
    Decoder::default().read(r)
}

/// The one decoder of length-prefixed frames: wire frames (a
/// [`FrameHeader`] after the prefix, [`Decoder::default`]) and the
/// headerless frames of CCS ([`Decoder::headerless`]).
///
/// It does no I/O of its own. It hands out the unfilled part of what it
/// reads next — the prefix and header, then the tail of the payload's
/// block — and a caller's read fills it in place, so a payload byte is
/// copied only when its block grows. It keeps its place between reads:
/// a non-blocking reader that stops mid-frame (`WouldBlock`) resumes
/// where it stopped, and it never reads past the frame it is in.
///
/// **Bound.** The payload's block grows only with what arrives. The
/// first is at most `FIRST_READ` (256) bytes, so a body that fits takes
/// one allocation of exactly its size. Each further block comes only
/// once every byte of the last has arrived, and holds the whole claim
/// if that is at most `GROWTH + 1` (9) times the bytes received, else
/// `GROWTH` (8) times them. So a body a few bytes past a step — a
/// 16 KiB message with its 8-byte header — takes no extra block, a
/// block is at most max(256, 9 × the bytes received before it), and the
/// blocks of one frame total at most `max(256, 11 × received)` bytes
/// wherever the stream ends, whatever the claim.
pub struct Decoder {
    /// Bytes of header after the prefix: `FRAME_HEADER_BYTES`, or 0.
    header: usize,
    /// The largest body a prefix may claim.
    max_body: usize,
    /// The prefix and header, and how many of their bytes arrived.
    head: [u8; 4 + FRAME_HEADER_BYTES],
    got: usize,
    /// The payload's block, once one is allocated, and how many of its
    /// bytes arrived.
    block: Option<MsgBlock>,
    filled: usize,
}

impl Default for Decoder {
    /// A decoder of wire frames: a body of 22 bytes to 64 MiB.
    fn default() -> Decoder {
        Decoder {
            header: FRAME_HEADER_BYTES,
            ..Decoder::headerless(MAX_FRAME_BODY)
        }
    }
}

impl Decoder {
    /// A decoder of frames with no header: a body of at most `max_body`
    /// bytes, handed back with a zeroed header.
    pub fn headerless(max_body: usize) -> Decoder {
        Decoder {
            header: 0,
            max_body,
            head: [0; 4 + FRAME_HEADER_BYTES],
            got: 0,
            block: None,
            filled: 0,
        }
    }

    /// Read from `r` until a frame is whole: `Ok(None)` at a clean EOF
    /// (between frames), an `UnexpectedEof` error inside one. An error
    /// of `r` (`WouldBlock` from a non-blocking one) returns as it is,
    /// and the next call goes on where this one stopped.
    pub fn read(
        &mut self,
        r: &mut (impl Read + ?Sized),
    ) -> io::Result<Option<(FrameHeader, MsgBlock)>> {
        loop {
            let between = self.got == 0;
            match r.read(self.unfilled()) {
                Ok(0) if between => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    if let Some(frame) = self.filled(n)? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The prefix and header bytes a frame begins with.
    fn head_len(&self) -> usize {
        4 + self.header
    }

    /// The payload bytes the prefix claims (once it arrived).
    fn claim(&self) -> usize {
        u32::from_le_bytes(self.head[..4].try_into().unwrap()) as usize - self.header
    }

    /// Where the next bytes go. A wire frame's prefix and header are
    /// read as one: every valid body holds the header.
    fn unfilled(&mut self) -> &mut [u8] {
        let head = self.head_len();
        if self.got < head {
            return &mut self.head[self.got..head];
        }
        let (claim, filled) = (self.claim(), self.filled);
        let block = match self.block.take() {
            None => MsgBlock::alloc(claim.min(FIRST_READ)),
            Some(full) if full.len() == filled => {
                let next = if claim <= filled * (GROWTH + 1) {
                    claim
                } else {
                    filled * GROWTH
                };
                let mut grown = MsgBlock::alloc(next);
                grown.make_mut()[..filled].copy_from_slice(full.as_slice());
                grown
            }
            Some(block) => block,
        };
        &mut self.block.insert(block).make_mut()[filled..]
    }

    /// Take `n` bytes just read into [`Decoder::unfilled`]; the frame,
    /// once it is whole.
    fn filled(&mut self, n: usize) -> io::Result<Option<(FrameHeader, MsgBlock)>> {
        let head = self.head_len();
        if self.got < head {
            self.got += n;
            if self.got >= 4 {
                let body = u32::from_le_bytes(self.head[..4].try_into().unwrap()) as usize;
                if !(self.header..=self.max_body).contains(&body) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame body length {body} out of range"),
                    ));
                }
            }
            if self.got < head || self.claim() > 0 {
                return Ok(None);
            }
        } else {
            self.filled += n;
            if self.filled < self.claim() {
                return Ok(None);
            }
        }
        let header = FrameHeader::from_bytes(self.head[4..].try_into().unwrap());
        let block = self.block.take().unwrap_or_else(|| MsgBlock::alloc(0));
        (self.got, self.filled) = (0, 0);
        Ok(Some((header, block)))
    }
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

    /// A decoder whose prefix claimed `len` payload bytes: the payload's
    /// reads are the only ones left.
    fn claimed(len: usize) -> Decoder {
        let mut d = Decoder::headerless(MAX_FRAME_BODY);
        d.head[..4].copy_from_slice(&(len as u32).to_le_bytes());
        d.got = 4;
        d
    }

    #[test]
    fn a_payload_a_few_bytes_past_a_step_takes_no_extra_block() {
        // A 16 KiB Converse message is a 16,392-byte frame payload: the
        // message and its 8-byte header.
        let blocks_of = |len: usize| {
            let before = pool::stats().takes();
            let mut r = Recorder::new(len);
            let (_, block) = claimed(len).read(&mut r).unwrap().unwrap();
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
            let err = claimed(MAX_FRAME_BODY).read(&mut r).unwrap_err();
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

    /// A stream of `pieces` with a `WouldBlock` between two of them, as
    /// a non-blocking socket reads when bytes arrive in bursts.
    struct Pieces<'a>(std::collections::VecDeque<&'a [u8]>);

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(piece) = self.0.front_mut() else {
                return Ok(0);
            };
            if piece.is_empty() {
                self.0.pop_front();
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(piece.len());
            buf[..n].copy_from_slice(&piece[..n]);
            *piece = &piece[n..];
            Ok(n)
        }
    }

    /// What `d` decodes from `bytes` cut at `cuts`: the frames, and the
    /// error that ended the stream, if one did.
    type Decoded = (Vec<(FrameHeader, Vec<u8>)>, Option<io::ErrorKind>);

    fn decode(mut d: Decoder, bytes: &[u8], cuts: &[usize]) -> Decoded {
        let mut pieces = Vec::new();
        let mut at = 0;
        for &cut in cuts.iter().chain([&bytes.len()]) {
            let cut = cut.clamp(at, bytes.len());
            pieces.push(&bytes[at..cut]);
            at = cut;
        }
        let mut r = Pieces(pieces.into());
        let mut frames = Vec::new();
        loop {
            match d.read(&mut r) {
                Ok(Some((h, block))) => frames.push((h, block.as_slice().to_vec())),
                Ok(None) => return (frames, None),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return (frames, Some(e.kind())),
            }
        }
    }

    /// The largest body of the headerless framing the properties use.
    const SMALL_MAX: usize = 600;

    /// A decoder of one framing, the bytes of `frames` in it, and the
    /// frames they decode to (a headerless frame's header is zeroed).
    fn framed(
        wire: bool,
        frames: &[(FrameHeader, Vec<u8>)],
    ) -> (fn() -> Decoder, Vec<u8>, Decoded) {
        let mut bytes = Vec::new();
        let mut decoded = Vec::new();
        for (h, payload) in frames {
            if wire {
                bytes.extend(encode_frame(*h, payload));
                decoded.push((*h, payload.clone()));
            } else {
                bytes.extend((payload.len() as u32).to_le_bytes());
                bytes.extend(payload);
                let zero = FrameHeader::from_bytes(&[0; FRAME_HEADER_BYTES]);
                decoded.push((zero, payload.clone()));
            }
        }
        let d: fn() -> Decoder = if wire {
            Decoder::default
        } else {
            || Decoder::headerless(SMALL_MAX)
        };
        (d, bytes, (decoded, None))
    }

    #[test]
    fn a_split_at_every_byte_boundary_decodes_like_the_whole_buffer() {
        let payloads: [&[u8]; 3] = [b"", b"x", &[7; 600]];
        for wire in [true, false] {
            let frames: Vec<_> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| (FrameHeader::new(3, i as u32, 1, 0), p.to_vec()))
                .collect();
            let (d, mut bytes, expected) = framed(wire, &frames);
            assert_eq!(decode(d(), &bytes, &[]), expected);
            // Cut short inside the last frame: the same frames, then the
            // same error.
            bytes.truncate(bytes.len() - 100);
            let want = decode(d(), &bytes, &[]);
            assert_eq!(want.1, Some(io::ErrorKind::UnexpectedEof));
            for cut in 0..=bytes.len() {
                assert_eq!(decode(d(), &bytes, &[cut]), want, "cut at {cut}");
            }
            let every: Vec<usize> = (1..bytes.len()).collect();
            assert_eq!(decode(d(), &bytes, &every), want);
        }
    }

    #[test]
    fn bytes_fed_one_at_a_time_keep_the_allocation_bound() {
        // Each payload byte arrives alone; every block the decoder holds
        // is counted once, and the claim is never allocated.
        let mut d = claimed(MAX_FRAME_BODY);
        let (mut blocks, mut last) = (Vec::new(), None);
        for received in 0..40_000usize {
            let buf = d.unfilled();
            buf[0] = 0xab;
            let ptr = buf.as_ptr() as usize - received;
            if last != Some(ptr) {
                blocks.push(d.block.as_ref().unwrap().len());
                last = Some(ptr);
                let total: usize = blocks.iter().sum();
                assert!(
                    total <= FIRST_READ.max(11 * received),
                    "{received} bytes of a {MAX_FRAME_BODY}-byte claim: blocks {blocks:?}"
                );
            }
            assert!(d.filled(1).unwrap().is_none());
        }
        assert_eq!(blocks, [256, 2048, 16_384, 131_072]);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of frames in either framing, with garbage or
        /// nothing behind it, cut at random points or one byte at a
        /// time, decodes to the frames and the error the whole buffer
        /// decodes to.
        #[test]
        fn frames_cut_anywhere_decode_like_the_whole_buffer(
            wire in any::<bool>(),
            frames in collection::vec((arb_header(), collection::vec(any::<u8>(), 0..=SMALL_MAX)), 0..=4),
            garbage in prop_oneof![Just(vec![]), collection::vec(any::<u8>(), 1..=64)],
            cuts in collection::vec(0usize..3000, 0..=8),
        ) {
            let (d, mut bytes, sent) = framed(wire, &frames);
            bytes.extend(&garbage);
            let want = decode(d(), &bytes, &[]);
            let mut cuts = cuts;
            cuts.sort_unstable();
            prop_assert_eq!(&decode(d(), &bytes, &cuts), &want);
            let every: Vec<usize> = (1..bytes.len()).collect();
            prop_assert_eq!(&decode(d(), &bytes, &every), &want);
            prop_assert_eq!(&want.0[..frames.len()], &sent.0[..]);
            if garbage.is_empty() {
                prop_assert_eq!(want, sent);
            }
        }
    }
}
