//! Exporting Charm chare entry methods as CCS handlers.
//!
//! A chare is addressed by a runtime-assigned [`ChareId`], which an
//! external client cannot know. The bridge uses Charm's readonly table
//! as the directory: the application publishes a chare's id under a
//! small integer key (`charm.publish_readonly(pe, key, &id.encode())`),
//! and [`export_chare_entry`] registers a CCS handler that looks the id
//! up per request, prepends the reply token to the client payload, and
//! invokes the entry method through the normal `Charm::send` path — so
//! an external invocation is scheduled, prioritized, and traced exactly
//! like a native one.
//!
//! Inside the entry method, [`entry_request`] splits the bridged
//! payload back into the token and the client's bytes; the method
//! answers with [`crate::send_reply`] whenever it is ready — including
//! after forwarding work to other chares or PEs, since the token stays
//! valid and routable from anywhere in the machine.

use crate::registry::CcsRegistry;
use converse_charm::{ChareId, Charm};
use converse_machine::exo::status;
use converse_machine::{ExoToken, Pe};
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::Priority;

/// Register a CCS handler `name` that forwards requests to entry point
/// `ep` of the chare whose id is published in Charm's readonly table
/// under `readonly_key`. Call on every PE, in registration order, after
/// `Charm::install`.
pub fn export_chare_entry(pe: &Pe, registry: &CcsRegistry, name: &str, readonly_key: u32, ep: u32) {
    registry.register(pe, name, move |pe, msg| {
        let token = pe
            .exo_current_token()
            .expect("CCS bridge handler invoked outside a gateway dispatch");
        let charm = Charm::get(pe);
        let id = charm
            .readonly(pe, readonly_key)
            .and_then(|b| ChareId::decode(&b));
        let Some(id) = id else {
            pe.exo_reply(
                token,
                status::UNKNOWN_HANDLER,
                b"target chare not published yet",
            );
            return;
        };
        let bridged = pack_entry(token, msg.payload());
        charm.send(pe, id, ep, &bridged, Priority::None);
    });
}

/// Build the bridged payload an exported entry method receives.
fn pack_entry(token: ExoToken, payload: &[u8]) -> Vec<u8> {
    Packer::with_capacity(28 + payload.len())
        .u64(token.conn)
        .u64(token.seq)
        .u64(token.home as u64)
        .bytes(payload)
        .finish()
}

/// Inverse of the bridge packing: inside an exported entry method,
/// recover the reply token and the client's payload. Returns `None` if
/// the payload did not come through the bridge.
pub fn entry_request(payload: &[u8]) -> Option<(ExoToken, Vec<u8>)> {
    let mut u = Unpacker::new(payload);
    let conn = u.u64().ok()?;
    let seq = u.u64().ok()?;
    let home = u.u64().ok()? as usize;
    let body = u.bytes().ok()?.to_vec();
    Some((ExoToken { conn, seq, home }, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_payload_roundtrip() {
        let tok = ExoToken {
            conn: 4,
            seq: 11,
            home: 2,
        };
        let (t2, body) = entry_request(&pack_entry(tok, b"xyz")).unwrap();
        assert_eq!(t2, tok);
        assert_eq!(body, b"xyz");
    }

    #[test]
    fn non_bridge_payload_rejected() {
        assert!(entry_request(b"short").is_none());
    }
}
