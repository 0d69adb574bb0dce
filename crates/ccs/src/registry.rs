//! The CCS handler registry: external names for handler indices.
//!
//! Converse names handlers by **index into a table of functions**
//! (paper §3.1.1) — meaningless to an external client. The registry
//! maps stable strings to those indices. Registration rules:
//!
//! * Handler registration order must be identical on every PE (the
//!   machine-wide table invariant), so [`CcsRegistry::register`] is
//!   called once per PE with the same names in the same order; every PE
//!   then derives the same index and the binding is asserted
//!   consistent.
//! * A name binds exactly one index; re-binding a name to a different
//!   index panics (it would mean registration order diverged — the same
//!   bug the handler-table discipline exists to prevent).
//! * Resolution happens on the server's reader threads, off the PE hot
//!   path, via a read lock.

use converse_machine::{HandlerId, Message, Pe};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Machine-wide name → handler-index table shared by the PEs (which
/// register) and the CCS server (which resolves).
#[derive(Default)]
pub struct CcsRegistry {
    map: RwLock<HashMap<String, HandlerId>>,
}

impl CcsRegistry {
    /// New empty registry. Typically created before machine boot and
    /// shared with both the entry function and the [`crate::CcsServer`].
    pub fn new() -> Arc<CcsRegistry> {
        Arc::new(CcsRegistry::default())
    }

    /// Register `f` as a Converse handler on `pe` and bind it to
    /// `name`. Must be called on **every** PE in the same order (like
    /// all handler registration); panics if the derived index disagrees
    /// with an existing binding for `name`.
    pub fn register<F>(&self, pe: &Pe, name: &str, f: F) -> HandlerId
    where
        F: Fn(&Pe, Message) + Send + Sync + 'static,
    {
        let id = pe.register_handler(f);
        self.bind(pe, name, id);
        id
    }

    /// Bind an already-registered handler index to `name` — for
    /// exporting a handler that also serves native traffic.
    pub fn bind(&self, pe: &Pe, name: &str, id: HandlerId) {
        let mut m = self.map.write();
        match m.get(name) {
            Some(prev) if *prev != id => panic!(
                "PE {}: CCS name {name:?} bound to handler {prev} but this PE derived {id}; \
                 registration order diverged between PEs",
                pe.my_pe()
            ),
            Some(_) => {}
            None => {
                m.insert(name.to_string(), id);
            }
        }
    }

    /// Look a name up (server side).
    pub fn resolve(&self, name: &str) -> Option<HandlerId> {
        self.map.read().get(name).copied()
    }
}
