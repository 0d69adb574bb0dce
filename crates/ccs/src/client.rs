//! The bundled CCS client.
//!
//! [`CcsClient`] speaks the frame protocol over one TCP connection.
//! Two calling styles:
//!
//! * **Synchronous** — [`CcsClient::call`] sends one request and blocks
//!   for its reply.
//! * **Pipelined** — [`CcsClient::submit`] returns a [`CcsTicket`]
//!   immediately; any number may be outstanding (up to the server's
//!   per-connection window), and [`CcsClient::wait`] collects each
//!   reply whenever it lands. Replies arrive out of order whenever
//!   requests target different PEs; the client matches them to tickets
//!   by sequence number and stashes early arrivals.

use crate::protocol::{self, Reply, Request};
use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Receipt for a submitted request; redeem with [`CcsClient::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a submitted request should be waited on"]
pub struct CcsTicket(u64);

/// Client-side failure modes.
#[derive(Debug)]
pub enum CcsError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The server closed the connection with the request outstanding.
    Disconnected,
    /// A frame arrived that the protocol module could not decode.
    Protocol(String),
    /// The server answered with a non-OK status.
    Status {
        /// The gateway status code.
        code: u8,
        /// The server's diagnostic payload.
        detail: String,
    },
    /// A deadline call ran out of time: every attempt inside the window
    /// timed out (server-side or on the socket). If the last attempt
    /// timed out on the socket itself, the connection may hold a
    /// half-read frame — drop it and reconnect before reuse.
    DeadlineExceeded {
        /// The client-imposed overall deadline.
        deadline: Duration,
        /// How many requests were attempted inside the window.
        attempts: u32,
    },
}

impl std::fmt::Display for CcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcsError::Io(e) => write!(f, "ccs i/o error: {e}"),
            CcsError::Disconnected => write!(f, "ccs server closed the connection"),
            CcsError::Protocol(m) => write!(f, "ccs protocol error: {m}"),
            CcsError::Status { code, detail } => {
                write!(f, "ccs request failed (status {code}): {detail}")
            }
            CcsError::DeadlineExceeded { deadline, attempts } => {
                write!(
                    f,
                    "ccs deadline of {deadline:?} exceeded after {attempts} attempt(s)"
                )
            }
        }
    }
}

impl std::error::Error for CcsError {}

impl From<io::Error> for CcsError {
    fn from(e: io::Error) -> Self {
        CcsError::Io(e)
    }
}

/// Map a final reply to the stream result: OK payload or `Status`.
fn finalize(r: Reply) -> Result<Vec<u8>, CcsError> {
    if r.is_ok() {
        Ok(r.payload)
    } else {
        Err(CcsError::Status {
            code: r.status,
            detail: String::from_utf8_lossy(&r.payload).into_owned(),
        })
    }
}

/// One connection to a CCS server.
pub struct CcsClient {
    stream: TcpStream,
    next_seq: u64,
    /// Replies that arrived while waiting for a different ticket.
    stash: HashMap<u64, Reply>,
}

impl CcsClient {
    /// Connect to a server (as published by `CcsServerHandle::wait_addr`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<CcsClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(CcsClient {
            stream,
            next_seq: 1,
            stash: HashMap::new(),
        })
    }

    /// Bound how long [`CcsClient::wait`] (and therefore `call`) blocks
    /// on the socket; `None` restores indefinite waits.
    pub fn set_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Pipelined submit: send the request frame and return its ticket
    /// without waiting. A request whose frame would exceed the protocol's
    /// 1 MiB bound is an `InvalidInput` [`CcsError::Io`], and nothing is
    /// sent.
    pub fn submit(
        &mut self,
        name: &str,
        dest_pe: usize,
        payload: &[u8],
    ) -> Result<CcsTicket, CcsError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let body = protocol::encode_request(&Request {
            seq,
            dest_pe,
            name: name.to_string(),
            payload: payload.to_vec(),
        });
        protocol::write_frame(&mut self.stream, &body)?;
        Ok(CcsTicket(seq))
    }

    /// Block until the reply for `ticket` arrives and return it whole
    /// (status + payload). Replies for other outstanding tickets that
    /// arrive first are stashed for their own `wait`.
    pub fn wait(&mut self, ticket: CcsTicket) -> Result<Reply, CcsError> {
        if let Some(r) = self.stash.remove(&ticket.0) {
            return Ok(r);
        }
        loop {
            let body = match protocol::decoder().read(&mut self.stream)? {
                Some((_, b)) => b,
                None => return Err(CcsError::Disconnected),
            };
            let reply = protocol::decode_reply(body.as_slice())
                .ok_or_else(|| CcsError::Protocol("unparseable reply frame".to_string()))?;
            if reply.seq == ticket.0 {
                return Ok(reply);
            }
            self.stash.insert(reply.seq, reply);
        }
    }

    /// Like [`CcsClient::wait`] but mapping any non-OK status to
    /// [`CcsError::Status`] and yielding just the payload.
    pub fn wait_ok(&mut self, ticket: CcsTicket) -> Result<Vec<u8>, CcsError> {
        let r = self.wait(ticket)?;
        if r.is_ok() {
            Ok(r.payload)
        } else {
            Err(CcsError::Status {
                code: r.status,
                detail: String::from_utf8_lossy(&r.payload).into_owned(),
            })
        }
    }

    /// Synchronous call: submit and wait for the OK payload.
    pub fn call(
        &mut self,
        name: &str,
        dest_pe: usize,
        payload: &[u8],
    ) -> Result<Vec<u8>, CcsError> {
        let t = self.submit(name, dest_pe, payload)?;
        self.wait_ok(t)
    }

    /// Destination-less synchronous call: the server routes to whichever
    /// PE is least loaded when the request is admitted.
    pub fn call_any(&mut self, name: &str, payload: &[u8]) -> Result<Vec<u8>, CcsError> {
        self.call(name, crate::protocol::ANY_PE, payload)
    }

    /// Consume a reply *stream* for `ticket`: invoke `on_frame` with
    /// the payload of every [`crate::status::STREAM`] frame as it
    /// arrives, and return once a final (non-`STREAM`) reply lands —
    /// `Ok` with its payload for an OK status, [`CcsError::Status`]
    /// otherwise. `on_frame` returning `false` stops consuming early
    /// (frames already in flight stay in the socket; drop the
    /// connection afterwards unless the server is known to have
    /// finished the stream). Replies for *other* tickets that
    /// interleave with the stream are stashed for their own `wait`;
    /// the dedicated loop exists because `wait` retires a ticket at
    /// its first frame, which would drop the rest of the stream.
    pub fn stream_each(
        &mut self,
        ticket: CcsTicket,
        mut on_frame: impl FnMut(&[u8]) -> bool,
    ) -> Result<Vec<u8>, CcsError> {
        // A stashed frame for this ticket is necessarily final: `wait`
        // stashes at most one reply per foreign seq, and a stream's
        // earlier frames would have been eaten there.
        if let Some(r) = self.stash.remove(&ticket.0) {
            if r.status != crate::status::STREAM {
                return finalize(r);
            }
            if !on_frame(&r.payload) {
                return Ok(Vec::new());
            }
        }
        loop {
            let body = match protocol::decoder().read(&mut self.stream)? {
                Some((_, b)) => b,
                None => return Err(CcsError::Disconnected),
            };
            let reply = protocol::decode_reply(body.as_slice())
                .ok_or_else(|| CcsError::Protocol("unparseable reply frame".to_string()))?;
            if reply.seq != ticket.0 {
                self.stash.insert(reply.seq, reply);
                continue;
            }
            if reply.status == crate::status::STREAM {
                if !on_frame(&reply.payload) {
                    return Ok(Vec::new());
                }
            } else {
                return finalize(reply);
            }
        }
    }

    /// Synchronous call with an overall deadline: retries server-side
    /// timeouts (e.g. the destination PE sits inside a stall window)
    /// with capped backoff until the reply lands or `deadline` elapses,
    /// then returns [`CcsError::DeadlineExceeded`] instead of hanging.
    /// The socket read timeout is clamped to the remaining window for
    /// the duration of the call and restored afterwards.
    pub fn call_with_deadline(
        &mut self,
        name: &str,
        dest_pe: usize,
        payload: &[u8],
        deadline: Duration,
    ) -> Result<Vec<u8>, CcsError> {
        self.call_retrying(name, dest_pe, payload, deadline)
    }

    /// Destination-less [`CcsClient::call_with_deadline`]: each retry
    /// re-runs the server's least-loaded routing, so a request that
    /// first landed on a since-stalled PE migrates to a live one.
    pub fn call_any_with_deadline(
        &mut self,
        name: &str,
        payload: &[u8],
        deadline: Duration,
    ) -> Result<Vec<u8>, CcsError> {
        self.call_retrying(name, crate::protocol::ANY_PE, payload, deadline)
    }

    fn call_retrying(
        &mut self,
        name: &str,
        dest_pe: usize,
        payload: &[u8],
        deadline: Duration,
    ) -> Result<Vec<u8>, CcsError> {
        let t0 = Instant::now();
        let saved = self.stream.read_timeout().unwrap_or(None);
        let mut attempts = 0u32;
        let out = loop {
            let remaining = deadline.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                break Err(CcsError::DeadlineExceeded { deadline, attempts });
            }
            attempts += 1;
            if self.stream.set_read_timeout(Some(remaining)).is_err() {
                break Err(CcsError::DeadlineExceeded { deadline, attempts });
            }
            match self.call(name, dest_pe, payload) {
                Ok(p) => break Ok(p),
                Err(CcsError::Status { code, .. }) if code == crate::status::TIMEOUT => {
                    // The server gave up on this attempt (in-flight
                    // window slot reclaimed) — safe to re-ask. Back off
                    // so a stalled PE's window has a chance to pass.
                    let backoff = Duration::from_millis(1u64 << attempts.min(5))
                        .min(Duration::from_millis(40))
                        .min(deadline.saturating_sub(t0.elapsed()));
                    std::thread::sleep(backoff);
                }
                Err(CcsError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // The socket wait itself ran out: the client-side
                    // deadline is spent.
                    break Err(CcsError::DeadlineExceeded { deadline, attempts });
                }
                Err(e) => break Err(e),
            }
        };
        self.stream.set_read_timeout(saved).ok();
        out
    }
}
