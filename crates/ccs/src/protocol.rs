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
/// as a corrupt stream rather than an allocation request.
pub(crate) const MAX_FRAME: usize = 16 * 1024 * 1024;

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

/// Decode a request frame body.
pub(crate) fn decode_request(body: &[u8]) -> Option<Request> {
    let mut u = Unpacker::new(body);
    Some(Request {
        seq: u.u64().ok()?,
        dest_pe: u.u32().ok()? as usize,
        name: u.str().ok()?,
        payload: u.bytes().ok()?.to_vec(),
    })
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

/// Decode a reply frame body.
pub(crate) fn decode_reply(body: &[u8]) -> Option<Reply> {
    let mut u = Unpacker::new(body);
    Some(Reply {
        seq: u.u64().ok()?,
        status: u.u8().ok()?,
        payload: u.bytes().ok()?.to_vec(),
    })
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
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request {
            seq: 7,
            dest_pe: 3,
            name: "echo".into(),
            payload: vec![1, 2],
        };
        assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        assert_eq!(peek_seq(&encode_request(&r)), Some(7));
    }

    #[test]
    fn any_pe_roundtrips_on_the_wire() {
        let r = Request {
            seq: 1,
            dest_pe: ANY_PE,
            name: "whoami".into(),
            payload: Vec::new(),
        };
        let back = decode_request(&encode_request(&r)).unwrap();
        assert_eq!(back.dest_pe, ANY_PE);
    }

    #[test]
    fn reply_roundtrip() {
        let r = Reply {
            seq: 9,
            status: 0,
            payload: b"hi".to_vec(),
        };
        assert_eq!(decode_reply(&encode_reply(&r)).unwrap(), r);
        assert!(r.is_ok());
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
