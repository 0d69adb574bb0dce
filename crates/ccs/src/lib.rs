//! CCS — the Converse Client-Server interface.
//!
//! The paper's machine is a closed world: messages originate on PEs.
//! Real Converse grew CCS so processes *outside* the parallel machine
//! can invoke registered handlers inside it; this crate reproduces that
//! subsystem for the Rust runtime, aimed at the ROADMAP goal of serving
//! external request traffic.
//!
//! ## Shape
//!
//! ```text
//! CcsClient ──tcp frame──▶ CcsServer (reader thread)
//!     ▲                        │ resolve name → handler index (CcsRegistry)
//!     │                        ▼
//!     │             Interconnect::inject(dest PE)
//!     │                        │ exo_req: retarget + CsdEnqueue   ─┐ scheduled like
//!     │                        ▼                                   │ native work
//!     │             exo_dispatch → target handler                 ─┘
//!     │                        │ pe.exo_reply(token, …)   — any PE, any time
//!     │                        ▼
//!     └──tcp frame── reply sink (gateway exo_reply handler)
//! ```
//!
//! Requests pay the *same* software path as native Converse messages:
//! mailbox delivery, handler dispatch, scheduler queue. The reply token
//! ([`CcsReplyToken`]) outlives the handler invocation, so a handler
//! may capture it, suspend (e.g. in a thread object), and answer later
//! from any PE.
//!
//! See `docs/API.md` for the wire format, registry rules, and
//! reply-token lifetime, and `examples/ccs_server.rs` for a complete
//! server + client round trip.

pub mod charm_bridge;
pub mod client;
mod protocol;
pub mod pubsub;
pub mod registry;
pub mod server;

pub use charm_bridge::{entry_request, export_chare_entry};
pub use client::{CcsClient, CcsError, CcsTicket};
pub use converse_machine::exo::status;
pub use protocol::Reply;
pub use registry::CcsRegistry;
pub use server::{CcsServer, CcsServerConfig, CcsServerHandle};

use converse_machine::Pe;

/// Identity of an in-flight external request; see
/// [`converse_machine::ExoToken`]. Valid from dispatch until a reply is
/// sent (or the server times the request out); routable from any PE.
pub type CcsReplyToken = converse_machine::ExoToken;

/// Token of the CCS request currently dispatching on this PE. Handlers
/// that reply after returning (from a thread object, another PE, a
/// chare entry) capture this while they run.
pub fn current_token(pe: &Pe) -> Option<CcsReplyToken> {
    pe.exo_current_token()
}

/// Send the successful reply for `token`. Callable from any PE, any
/// execution context, any time after dispatch; exactly one reply per
/// request reaches the client (later ones are dropped at the server).
pub fn send_reply(pe: &Pe, token: CcsReplyToken, payload: &[u8]) {
    pe.exo_reply(token, status::OK, payload);
}

/// Send an application-level error reply for `token` with an explicit
/// gateway status code.
pub fn send_error(pe: &Pe, token: CcsReplyToken, code: u8, detail: &str) {
    pe.exo_reply(token, code, detail.as_bytes());
}
