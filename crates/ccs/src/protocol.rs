//! The CCS wire protocol.
//!
//! Everything on the socket is a **length-prefixed frame**: a `u32`
//! little-endian byte count followed by that many body bytes. Frame
//! bodies are packed with the same [`Packer`]/[`Unpacker`] helpers the
//! runtimes use for message payloads:
//!
//! ```text
//! request  body: u64 seq · u32 dest-PE · str handler-name · bytes payload
//! reply    body: u64 seq · u8 status   · bytes payload
//! ```
//!
//! `seq` is chosen by the client and echoed verbatim in the reply, so a
//! pipelined client can match replies that return out of order (they
//! will, whenever requests target different PEs). Status codes are the
//! machine gateway's [`converse_machine::exo::status`] set.

use converse_msg::pack::{Packer, Unpacker};
use std::io::{self, Read, Write};

/// Upper bound on a frame body; a length prefix beyond this is treated
/// as a corrupt stream rather than an allocation request. The largest
/// frame the repo's own load generator sends carries a 64 KiB payload.
pub(crate) const MAX_FRAME: usize = 1024 * 1024;

/// Sentinel destination meaning "any PE": the server picks the least
/// loaded processor at admission time. Encodes on the wire as
/// `u32::MAX`, which no real machine reaches, so existing clients and
/// servers are unaffected.
pub(crate) const ANY_PE: usize = u32::MAX as usize;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Client-chosen sequence number, echoed in the reply.
    pub seq: u64,
    /// Destination PE, or [`ANY_PE`] to let the server route by load.
    pub dest_pe: usize,
    /// Registered handler name.
    pub name: String,
    /// Opaque payload handed to the handler.
    pub payload: Vec<u8>,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// A [`converse_machine::exo::status`] code.
    pub status: u8,
    /// Reply payload (for non-OK statuses: a diagnostic string).
    pub payload: Vec<u8>,
}

impl Reply {
    /// True when the handler ran and replied.
    pub fn is_ok(&self) -> bool {
        self.status == converse_machine::exo::status::OK
    }
}

/// Encode a request frame body.
pub(crate) fn encode_request(r: &Request) -> Vec<u8> {
    Packer::with_capacity(16 + r.name.len() + r.payload.len())
        .u64(r.seq)
        .u32(r.dest_pe as u32)
        .str(&r.name)
        .bytes(&r.payload)
        .finish()
}

/// Decode a request frame body. A body is exactly one request: a name
/// that is not UTF-8 or bytes past the payload make it malformed.
pub(crate) fn decode_request(body: &[u8]) -> Option<Request> {
    let mut u = Unpacker::new(body);
    let r = Request {
        seq: u.u64().ok()?,
        dest_pe: u.u32().ok()? as usize,
        name: String::from_utf8(u.bytes().ok()?.to_vec()).ok()?,
        payload: u.bytes().ok()?.to_vec(),
    };
    (u.remaining() == 0).then_some(r)
}

/// Best-effort extraction of just the sequence number from a request
/// body, so a malformed request can still be answered.
pub(crate) fn peek_seq(body: &[u8]) -> Option<u64> {
    Unpacker::new(body).u64().ok()
}

/// Encode a reply frame body.
pub(crate) fn encode_reply(r: &Reply) -> Vec<u8> {
    Packer::with_capacity(13 + r.payload.len())
        .u64(r.seq)
        .u8(r.status)
        .bytes(&r.payload)
        .finish()
}

/// Decode a reply frame body; bytes past the payload make it malformed.
pub(crate) fn decode_reply(body: &[u8]) -> Option<Reply> {
    let mut u = Unpacker::new(body);
    let r = Reply {
        seq: u.u64().ok()?,
        status: u.u8().ok()?,
        payload: u.bytes().ok()?.to_vec(),
    };
    (u.remaining() == 0).then_some(r)
}

/// Write one frame (length prefix + body).
pub(crate) fn write_frame(w: &mut dyn Write, body: &[u8]) -> io::Result<()> {
    assert!(body.len() <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    // One write for prefix + body: a split write puts a tiny segment on
    // the wire first, and Nagle + delayed ACK then stall the rest for
    // tens of milliseconds on small frames.
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(body);
    w.write_all(&framed)?;
    w.flush()
}

/// Read one frame body. `Ok(None)` on a clean EOF at a frame boundary
/// (peer closed); errors on mid-frame EOF or an oversized prefix.
///
/// The prefix is a claim, not a reservation: the body buffer grows only
/// with bytes actually received, so a peer that sends a prefix and then
/// nothing pins no memory on its connection's reader.
pub(crate) fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = Vec::new();
    r.take(n as u64).read_to_end(&mut body)?;
    if body.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ended after {} of {n} bytes", body.len()),
        ));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Cut the tail of `body`, change one byte or append one.
    fn edit(mut body: Vec<u8>, (how, at, x): (u8, usize, u8)) -> Vec<u8> {
        match how {
            0 => body.truncate(at % body.len()),
            1 => {
                let i = at % body.len();
                body[i] ^= x;
            }
            _ => body.push(x),
        }
        body
    }

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        collection::vec(any::<u8>(), 0..=max)
    }

    proptest! {
        /// A request round-trips, `ANY_PE` included. Its encoding
        /// edited, or any 256 bytes, decode to a request or to nothing
        /// without panicking; a request they yield re-encodes to the
        /// same bytes, and `peek_seq` sees its sequence number.
        #[test]
        fn request_decoding_is_total_and_exact(
            fields in (any::<u64>(), prop_oneof![Just(ANY_PE as u32), any::<u32>()], bytes(16), bytes(64)),
            how in (0u8..3, any::<usize>(), any::<u8>()),
            noise in bytes(256),
        ) {
            let (seq, dest_pe, name, payload) = fields;
            let name = String::from_utf8_lossy(&name).into_owned();
            let dest_pe = dest_pe as usize;
            let r = Request { seq, dest_pe, name, payload };
            let body = encode_request(&r);
            prop_assert_eq!(decode_request(&body), Some(r));
            for bytes in [edit(body, how), noise] {
                let seq = peek_seq(&bytes);
                prop_assert_eq!(seq.is_some(), bytes.len() >= 8);
                if let Some(d) = decode_request(&bytes) {
                    prop_assert_eq!(seq, Some(d.seq));
                    prop_assert_eq!(encode_request(&d), bytes);
                }
            }
        }

        /// A reply round-trips. Its encoding edited, or any 256 bytes,
        /// decode to a reply or to nothing without panicking; a reply
        /// they yield re-encodes to the same bytes.
        #[test]
        fn reply_decoding_is_total_and_exact(
            fields in (any::<u64>(), any::<u8>(), bytes(64)),
            how in (0u8..3, any::<usize>(), any::<u8>()),
            noise in bytes(256),
        ) {
            let (seq, status, payload) = fields;
            let r = Reply { seq, status, payload };
            let body = encode_reply(&r);
            prop_assert_eq!(decode_reply(&body), Some(r));
            for bytes in [edit(body, how), noise] {
                if let Some(d) = decode_reply(&bytes) {
                    prop_assert_eq!(encode_reply(&d), bytes);
                }
            }
        }
    }

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut r = io::Cursor::new(((MAX_FRAME + 1) as u32).to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn midframe_eof_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(6);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }
}
