//! The external-request gateway and the machine-service harness.
//!
//! Converse machines are closed worlds: every message originates on
//! some PE. Front-ends that serve *external* traffic (the CCS server in
//! `converse-ccs`) need three things from the machine layer, provided
//! here:
//!
//! 1. **Reserved protocol handlers.** Three handler-table slots,
//!    registered identically on every PE by `Pe::new`, carry external
//!    requests and their replies:
//!    * `exo_req` — runs when an injected request comes off the wire.
//!      It retargets the message at `exo_dispatch` and puts it on the
//!      scheduler queue (`CsdEnqueue`), so external work is scheduled
//!      *exactly* like native Converse messages — the paper §3.3
//!      retarget idiom.
//!    * `exo_dispatch` — runs from the scheduler queue; decodes the
//!      envelope, exposes the [`ExoToken`] to the target handler, and
//!      calls it.
//!    * `exo_reply` — receives reply envelopes (from any PE, any time)
//!      and forwards them to the sink the front-end installed.
//! 2. **An injection path.** [`MachineHandle::inject_request`] wraps a
//!    request in the envelope and delivers it into the destination
//!    PE's mailbox from outside the machine.
//! 3. **A lifecycle contract.** [`MachineService`] instances attached
//!    via `MachineConfig::attach` are started before the PEs boot and
//!    stopped after every PE has joined — **including when a PE
//!    panicked** — so listener threads and ports never outlive the
//!    machine.
//!
//! A handler that wants to answer later (e.g. from a suspended thread,
//! or after forwarding work to another PE) captures
//! [`Pe::exo_current_token`] while it runs and calls [`Pe::exo_reply`]
//! with it whenever the answer is ready, from whatever PE it happens to
//! be on.

use crate::pe::{MachineShared, Pe};
use crate::OwnerCell;
use converse_msg::pack::{PackError, Packer, Unpacker};
use converse_msg::{HandlerId, Message};
use converse_net::{Interconnect, PeLoad};
use converse_queue::QueueingMode;
use converse_trace::Event;
use parking_lot::RwLock;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Reply statuses carried in the envelope. The gateway only transports
/// the byte; the meaning is fixed here so server and client agree.
pub mod status {
    /// The handler ran and produced this payload.
    pub const OK: u8 = 0;
    /// No handler registered under the requested name.
    pub const UNKNOWN_HANDLER: u8 = 1;
    /// Destination PE outside `0..num_pes`.
    pub const BAD_PE: u8 = 2;
    /// The request exceeded its server-side deadline before a reply.
    pub const TIMEOUT: u8 = 3;
    /// The request frame could not be decoded, or the reply was too big
    /// for a frame.
    pub const MALFORMED: u8 = 4;
    /// The server shut down with the request still in flight.
    pub const SHUTDOWN: u8 = 5;
    /// A non-final streamed reply: more frames follow for the same
    /// request (pub-sub subscription updates). The request stays open
    /// server-side; a later non-`STREAM` status ends the stream.
    pub const STREAM: u8 = 6;
}

/// Identity of one in-flight external request: enough to route a reply
/// back to the issuing connection from any PE at any later time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExoToken {
    /// Server-assigned connection id.
    pub conn: u64,
    /// Per-connection request sequence number.
    pub seq: u64,
    /// PE the request was dispatched on; replies are routed through its
    /// `exo_reply` handler to keep the reply path a normal Converse
    /// message no matter where the answer is produced.
    pub home: usize,
}

/// A reply envelope as handed to the front-end's sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExoReply {
    /// Connection the originating request arrived on.
    pub conn: u64,
    /// Sequence number of the originating request.
    pub seq: u64,
    /// One of the [`status`] codes.
    pub status: u8,
    /// Reply payload.
    pub payload: Vec<u8>,
}

/// Where `exo_reply` forwards envelopes; installed by the front-end.
pub(crate) type ReplySink = Arc<dyn Fn(ExoReply) + Send + Sync>;

/// Gateway state shared machine-wide (lives in `MachineShared`).
#[derive(Default)]
pub(crate) struct ExoState {
    pub(crate) sink: RwLock<Option<ReplySink>>,
    /// Number of attached external services. Non-zero suspends the
    /// watchdog of every blocking wait (`Pe::watchdog`): a server PE
    /// legitimately idles while waiting for outside traffic.
    pub(crate) services: std::sync::atomic::AtomicUsize,
}

/// PE-local cell holding the token of the request currently dispatching.
struct TokenCell(OwnerCell<Option<ExoToken>>);

/// A background service whose lifetime is bounded by one machine run.
///
/// Attached with `MachineConfig::attach`; `start` runs on the booting
/// thread before any PE exists, `stop` runs after every PE has joined —
/// on the panic path too, before the panic is re-raised — so services
/// must release their OS resources (threads, sockets) in `stop`.
pub trait MachineService: Send {
    /// Short name for diagnostics.
    fn name(&self) -> &str;
    /// Bring the service up against a booting machine.
    fn start(&mut self, machine: &MachineHandle);
    /// Tear the service down. Must be idempotent and must not assume
    /// the machine shut down cleanly.
    fn stop(&mut self);
}

/// Capability handle a [`MachineService`] uses to talk to the machine
/// without being a PE: inject requests, install the reply sink, read
/// live load. Cloneable; safe to hold in service threads. Only the
/// in-process machine has one (the multi-process launcher refuses
/// services), so it holds the machine's `Interconnect` itself.
#[derive(Clone)]
pub struct MachineHandle {
    pub(crate) net: Arc<Interconnect>,
    pub(crate) shared: Arc<MachineShared>,
    pub(crate) exo_req: HandlerId,
}

impl MachineHandle {
    /// Number of PEs in the running machine.
    pub fn num_pes(&self) -> usize {
        self.net.num_pes()
    }

    /// True once any PE has panicked.
    pub fn panicked(&self) -> bool {
        self.shared.panicked.load(Ordering::Acquire)
    }

    /// True once the interconnect has been closed (machine over).
    pub fn closed(&self) -> bool {
        self.net.is_closed()
    }

    /// Live per-PE load (traffic counters + mailbox depth), PE order.
    pub fn load_snapshot(&self) -> Vec<PeLoad> {
        self.net.load_snapshot()
    }

    /// Wrap an external request in the gateway envelope and deliver it
    /// into `dst`'s mailbox. From there it is retrieved, enqueued and
    /// scheduled exactly like a native message. Returns `false` (and
    /// drops the request) once the machine is closed.
    pub fn inject_request(
        &self,
        dst: usize,
        token_conn: u64,
        seq: u64,
        target: HandlerId,
        payload: &[u8],
    ) -> bool {
        assert!(
            dst < self.num_pes(),
            "inject_request: PE {dst} out of range"
        );
        if self.closed() {
            return false;
        }
        let body = encode_request(token_conn, seq, target, payload);
        self.net
            .inject(dst, Message::new(self.exo_req, &body).into_block());
        true
    }

    /// Install the sink that `exo_reply` handlers forward envelopes to.
    /// One front-end at a time; installing replaces the previous sink.
    pub fn install_reply_sink(&self, sink: Arc<dyn Fn(ExoReply) + Send + Sync>) {
        *self.shared.exo.sink.write() = Some(sink);
    }

    /// Remove the reply sink (late replies are dropped from then on).
    pub fn clear_reply_sink(&self) {
        *self.shared.exo.sink.write() = None;
    }
}

fn encode_reply(exo_reply: HandlerId, r: &ExoReply) -> Message {
    let body = Packer::with_capacity(21 + r.payload.len())
        .u64(r.conn)
        .u64(r.seq)
        .u8(r.status)
        .bytes(&r.payload)
        .finish();
    Message::new(exo_reply, &body)
}

fn encode_request(conn: u64, seq: u64, target: HandlerId, payload: &[u8]) -> Vec<u8> {
    Packer::with_capacity(24 + payload.len())
        .u64(conn)
        .u64(seq)
        .u32(target.0)
        .bytes(payload)
        .finish()
}

/// `Ok(v)` when `u` consumed the whole envelope: an envelope is exactly
/// what its encoder wrote, so bytes past the payload make it malformed.
fn whole<T>(u: &Unpacker, v: T) -> Result<T, PackError> {
    match u.remaining() {
        0 => Ok(v),
        remaining => Err(PackError {
            needed: 0,
            remaining,
        }),
    }
}

fn decode_request(payload: &[u8]) -> Result<(u64, u64, HandlerId, &[u8]), PackError> {
    let mut u = Unpacker::new(payload);
    let parts = (u.u64()?, u.u64()?, HandlerId(u.u32()?), u.bytes()?);
    whole(&u, parts)
}

fn decode_reply(payload: &[u8]) -> Result<ExoReply, PackError> {
    let mut u = Unpacker::new(payload);
    let r = ExoReply {
        conn: u.u64()?,
        seq: u.u64()?,
        status: u.u8()?,
        payload: u.bytes()?.to_vec(),
    };
    whole(&u, r)
}

/// `exo_req`: an injected request just came off the wire. Retarget it
/// at `exo_dispatch` and enqueue, so the request pays the same
/// scheduler path as native work instead of running inside delivery.
pub(crate) fn handle_req(pe: &Pe, mut msg: Message) {
    if pe.trace_enabled() {
        if let Ok((conn, seq, _target, payload)) = decode_request(msg.payload()) {
            pe.trace_event(Event::CcsRequestArrive {
                conn,
                seq,
                bytes: payload.len(),
            });
        }
    }
    msg.set_handler(pe.ids.exo_dispatch);
    pe.queue_enqueue(msg, QueueingMode::Fifo);
}

/// `exo_dispatch`: scheduled entry of an external request. Decode the
/// envelope, publish the token, run the target handler.
pub(crate) fn handle_dispatch(pe: &Pe, msg: Message) {
    let (conn, seq, target, payload) = match decode_request(msg.payload()) {
        Ok(parts) => parts,
        Err(e) => {
            // The server encoded this envelope; corruption is a bug, but
            // answer the client rather than killing the PE.
            pe.exo_reply(
                ExoToken {
                    conn: 0,
                    seq: 0,
                    home: pe.my_pe(),
                },
                status::MALFORMED,
                format!("bad gateway envelope: {e}").as_bytes(),
            );
            return;
        }
    };
    let token = ExoToken {
        conn,
        seq,
        home: pe.my_pe(),
    };
    if pe.trace_enabled() {
        pe.trace_event(Event::CcsDispatch {
            conn,
            seq,
            handler: target.0,
        });
    }
    if target.index() >= pe.num_handlers() {
        pe.exo_reply(
            token,
            status::UNKNOWN_HANDLER,
            b"handler index out of range",
        );
        return;
    }
    let inner = Message::new(target, payload);
    let cell = pe.local(|| TokenCell(OwnerCell::new(pe.owner(), None)));
    pe.open(&cell.0, |t| *t = Some(token));
    pe.call_handler(inner);
    pe.open(&cell.0, |t| *t = None);
}

/// `exo_reply`: a reply envelope arrived at the gateway PE; hand it to
/// the front-end's sink (dropped if no front-end is attached).
pub(crate) fn handle_reply(pe: &Pe, msg: Message) {
    let rep = match decode_reply(msg.payload()) {
        Ok(r) => r,
        Err(_) => return, // nothing to route a complaint to
    };
    if pe.trace_enabled() {
        pe.trace_event(Event::CcsReply {
            conn: rep.conn,
            seq: rep.seq,
            bytes: rep.payload.len(),
        });
    }
    let sink = pe.shared.exo.sink.read().clone();
    if let Some(sink) = sink {
        sink(rep);
    }
}

impl Pe {
    /// Token of the external request currently being dispatched on this
    /// PE, if any. A handler that will answer later captures this while
    /// it runs; the token stays valid after the handler returns.
    pub fn exo_current_token(&self) -> Option<ExoToken> {
        self.try_local::<TokenCell>()
            .and_then(|c| self.open(&c.0, |t| *t))
    }

    /// Send a reply for `token`. Callable from any PE, any context, any
    /// time after the request was dispatched: the envelope travels as a
    /// normal Converse message to the token's home PE, whose `exo_reply`
    /// handler forwards it to the attached front-end.
    pub fn exo_reply(&self, token: ExoToken, status_code: u8, payload: &[u8]) {
        let rep = ExoReply {
            conn: token.conn,
            seq: token.seq,
            status: status_code,
            payload: payload.to_vec(),
        };
        self.sync_send_and_free(token.home, encode_reply(self.ids.exo_reply, &rep));
    }

    /// Send one non-final streamed reply frame for `token`
    /// ([`status::STREAM`]). The request stays open on the server —
    /// call [`Pe::exo_reply`] later with a final status to end the
    /// stream, or let the server's request timeout reclaim an idle
    /// subscription.
    pub fn exo_reply_stream(&self, token: ExoToken, payload: &[u8]) {
        self.exo_reply(token, status::STREAM, payload);
    }

    /// True while external services are attached to this machine; the
    /// watchdog of every blocking wait stands down because waiting for
    /// outside traffic is not a deadlock.
    pub(crate) fn services_attached(&self) -> bool {
        self.shared.exo.services.load(Ordering::Acquire) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn truncated_envelope_is_error() {
        assert!(decode_request(&[1, 2, 3]).is_err());
        assert!(decode_reply(&[]).is_err());
    }

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
        /// A request envelope round-trips. Its encoding edited, or any
        /// 256 bytes, decode to a request or an error without panicking;
        /// a request they yield re-encodes to the same bytes.
        #[test]
        fn request_decoding_is_total_and_exact(
            fields in (any::<u64>(), any::<u64>(), any::<u32>(), bytes(64)),
            how in (0u8..3, any::<usize>(), any::<u8>()),
            noise in bytes(256),
        ) {
            let (conn, seq, h, payload) = fields;
            let body = encode_request(conn, seq, HandlerId(h), &payload);
            prop_assert_eq!(decode_request(&body), Ok((conn, seq, HandlerId(h), &payload[..])));
            for bytes in [edit(body, how), noise] {
                if let Ok((conn, seq, target, payload)) = decode_request(&bytes) {
                    prop_assert_eq!(encode_request(conn, seq, target, payload), bytes);
                }
            }
        }

        /// A reply envelope round-trips. Its encoding edited, or any 256
        /// bytes, decode to a reply or an error without panicking; a
        /// reply they yield re-encodes to the same bytes.
        #[test]
        fn reply_decoding_is_total_and_exact(
            fields in (any::<u64>(), any::<u64>(), any::<u8>(), bytes(64)),
            how in (0u8..3, any::<usize>(), any::<u8>()),
            noise in bytes(256),
        ) {
            let (conn, seq, status, payload) = fields;
            let r = ExoReply { conn, seq, status, payload };
            let msg = encode_reply(crate::pe::INTERNAL_LAYOUT.exo_reply, &r);
            prop_assert_eq!(msg.handler(), crate::pe::INTERNAL_LAYOUT.exo_reply);
            prop_assert_eq!(decode_reply(msg.payload()), Ok(r));
            for bytes in [edit(msg.payload().to_vec(), how), noise] {
                if let Ok(d) = decode_reply(&bytes) {
                    let again = encode_reply(HandlerId(0), &d);
                    prop_assert_eq!(again.payload(), &bytes[..]);
                }
            }
        }
    }
}
