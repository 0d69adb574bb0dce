//! EMI global pointers (paper §3.1.3 "EMI", appendix §3.4).
//!
//! "For transferring data between local and remote processors
//! transparently, Converse provides asynchronous get and put calls, and
//! global pointers. A global pointer is an opaque handle, which specifies
//! a particular address on a particular processor."
//!
//! [`GlobalPtr`] names a registered memory region (`CmiGptrCreate`);
//! [`Pe::get_bytes`]/[`Pe::put_bytes`] are the synchronous transfers
//! (`CmiSyncGet` and the blocking form of `CmiPut`);
//! [`Pe::get_async`]/[`Pe::put_async`] return handles whose completion is
//! polled or awaited. Remote transfers ride an internal request/reply
//! protocol over ordinary generalized messages; local transfers
//! short-circuit to a memcpy. Offset/length sub-range access is
//! supported — it is what the data-parallel layer's halo exchange uses.

use crate::pe::Pe;
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::Message;
use std::collections::HashMap;

/// An opaque machine-wide name for a byte region on some PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalPtr {
    /// Owning processor.
    pub pe: usize,
    /// Region key on the owner.
    pub key: u64,
    /// Region size in bytes.
    pub size: usize,
}

impl GlobalPtr {
    /// Serialize for embedding in message payloads.
    pub fn encode(&self) -> Vec<u8> {
        Packer::new()
            .usize(self.pe)
            .u64(self.key)
            .usize(self.size)
            .finish()
    }

    /// Deserialize from [`GlobalPtr::encode`] output.
    pub fn decode(bytes: &[u8]) -> Option<GlobalPtr> {
        let mut u = Unpacker::new(bytes);
        Some(GlobalPtr {
            pe: u.usize().ok()?,
            key: u.u64().ok()?,
            size: u.usize().ok()?,
        })
    }
}

/// Completion handle for an asynchronous get.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GetHandle(u64);

/// Completion handle for an asynchronous put.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PutHandle(u64);

/// Per-PE global-pointer state: owned regions plus in-flight requests.
#[derive(Default)]
pub(crate) struct GptrState {
    regions: HashMap<u64, Vec<u8>>,
    get_replies: HashMap<u64, Option<Vec<u8>>>,
    put_acks: HashMap<u64, bool>,
    next_key: u64,
}

impl Pe {
    // ---- region lifecycle -------------------------------------------------

    /// Register `data` as a remotely accessible region and return its
    /// global pointer (`CmiGptrCreate`).
    pub fn gptr_create(&self, data: Vec<u8>) -> GlobalPtr {
        let size = data.len();
        let key = self.open(&self.gptr, |g| {
            let key = g.next_key;
            g.next_key += 1;
            g.regions.insert(key, data);
            key
        });
        GlobalPtr {
            pe: self.my_pe(),
            key,
            size,
        }
    }

    /// Read a copy of a **local** region (`CmiGptrDref`). `None` if the
    /// pointer belongs to another PE or was destroyed.
    pub fn gptr_deref(&self, g: &GlobalPtr) -> Option<Vec<u8>> {
        if g.pe != self.my_pe() {
            return None;
        }
        self.open(&self.gptr, |s| s.regions.get(&g.key).cloned())
    }

    /// Mutate a **local** region in place via the provided closure.
    /// Returns false if the pointer is remote or destroyed.
    pub fn gptr_update_local<F: FnOnce(&mut [u8])>(&self, g: &GlobalPtr, f: F) -> bool {
        if g.pe != self.my_pe() {
            return false;
        }
        self.open(&self.gptr, |s| s.regions.get_mut(&g.key).map(|r| f(r)))
            .is_some()
    }

    /// Unregister a local region, freeing its storage. Returns false if
    /// it was not local or already destroyed.
    pub fn gptr_destroy(&self, g: &GlobalPtr) -> bool {
        g.pe == self.my_pe() && self.open(&self.gptr, |s| s.regions.remove(&g.key).is_some())
    }

    // ---- get ---------------------------------------------------------------

    /// Synchronously copy `len` bytes starting at `offset` from the
    /// region into a fresh buffer (`CmiSyncGet`). Blocks — servicing
    /// other machine-level messages meanwhile — until the data arrives.
    pub fn get_bytes(&self, g: &GlobalPtr, offset: usize, len: usize) -> Vec<u8> {
        let h = self.get_async(g, offset, len);
        self.get_wait(h)
    }

    /// Convenience: fetch the entire region.
    pub fn get_all(&self, g: &GlobalPtr) -> Vec<u8> {
        self.get_bytes(g, 0, g.size)
    }

    /// Begin an asynchronous get (`CmiGet`); complete with
    /// [`Pe::get_wait`] or poll with [`Pe::get_done`].
    pub fn get_async(&self, g: &GlobalPtr, offset: usize, len: usize) -> GetHandle {
        assert!(
            offset + len <= g.size,
            "get of {len}@{offset} exceeds region of {} bytes",
            g.size
        );
        let req_id = self.next_req_id();
        if g.pe == self.my_pe() {
            // Local fast path: resolve immediately.
            self.open(&self.gptr, |s| {
                let data = s
                    .regions
                    .get(&g.key)
                    .map(|r| r[offset..offset + len].to_vec())
                    .unwrap_or_else(|| {
                        panic!("PE {}: get on destroyed region {}", self.my_pe(), g.key)
                    });
                s.get_replies.insert(req_id, Some(data));
            });
            return GetHandle(req_id);
        }
        self.open(&self.gptr, |s| s.get_replies.insert(req_id, None));
        let payload = Packer::new()
            .u64(g.key)
            .usize(offset)
            .usize(len)
            .u64(req_id)
            .usize(self.my_pe())
            .finish();
        let msg = Message::new(self.ids.gptr_get_req, &payload);
        self.sync_send_and_free(g.pe, msg);
        GetHandle(req_id)
    }

    /// True once the asynchronous get completed (data arrived).
    pub fn get_done(&self, h: GetHandle) -> bool {
        self.open(&self.gptr, |s| {
            matches!(s.get_replies.get(&h.0), Some(Some(_)))
        })
    }

    /// Block until the get completes and take its data.
    pub fn get_wait(&self, h: GetHandle) -> Vec<u8> {
        self.deliver_internal_until(|| self.get_done(h));
        self.open(&self.gptr, |s| s.get_replies.remove(&h.0))
            .flatten()
            .expect("get_wait: reply present by deliver_until postcondition")
    }

    // ---- put ---------------------------------------------------------------

    /// Synchronously write `data` into the region at `offset`, blocking
    /// until the owner acknowledges.
    pub fn put_bytes(&self, g: &GlobalPtr, offset: usize, data: &[u8]) {
        let h = self.put_async(g, offset, data);
        self.put_wait(h);
    }

    /// Begin an asynchronous put (`CmiPut`); complete with
    /// [`Pe::put_wait`] or poll with [`Pe::put_done`].
    pub fn put_async(&self, g: &GlobalPtr, offset: usize, data: &[u8]) -> PutHandle {
        assert!(
            offset + data.len() <= g.size,
            "put of {}@{offset} exceeds region of {} bytes",
            data.len(),
            g.size
        );
        let req_id = self.next_req_id();
        if g.pe == self.my_pe() {
            self.open(&self.gptr, |s| {
                let r = s.regions.get_mut(&g.key).unwrap_or_else(|| {
                    panic!("PE {}: put on destroyed region {}", self.my_pe(), g.key)
                });
                r[offset..offset + data.len()].copy_from_slice(data);
                s.put_acks.insert(req_id, true);
            });
            return PutHandle(req_id);
        }
        self.open(&self.gptr, |s| s.put_acks.insert(req_id, false));
        let payload = Packer::new()
            .u64(g.key)
            .usize(offset)
            .u64(req_id)
            .usize(self.my_pe())
            .bytes(data)
            .finish();
        let msg = Message::new(self.ids.gptr_put_req, &payload);
        self.sync_send_and_free(g.pe, msg);
        PutHandle(req_id)
    }

    /// True once the put was acknowledged by the owner.
    pub fn put_done(&self, h: PutHandle) -> bool {
        self.open(&self.gptr, |s| s.put_acks.get(&h.0).copied())
            .unwrap_or(false)
    }

    /// Block until the put is acknowledged.
    pub fn put_wait(&self, h: PutHandle) {
        self.deliver_internal_until(|| self.put_done(h));
        self.open(&self.gptr, |s| s.put_acks.remove(&h.0));
    }
}

// ---- internal protocol handlers ---------------------------------------------

pub(crate) fn handle_get_req(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let key = u.u64().expect("gptr get_req: key");
    let offset = u.usize().expect("gptr get_req: offset");
    let len = u.usize().expect("gptr get_req: len");
    let req_id = u.u64().expect("gptr get_req: req_id");
    let reply_pe = u.usize().expect("gptr get_req: reply_pe");
    let data = pe
        .open(&pe.gptr, |s| {
            s.regions
                .get(&key)
                .map(|r| r[offset..offset + len].to_vec())
        })
        .unwrap_or_else(|| panic!("PE {}: remote get on destroyed region {key}", pe.my_pe()));
    let payload = Packer::new().u64(req_id).bytes(&data).finish();
    pe.sync_send_and_free(reply_pe, Message::new(pe.ids.gptr_get_reply, &payload));
}

pub(crate) fn handle_get_reply(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let req_id = u.u64().expect("gptr get_reply: req_id");
    let data = u.bytes().expect("gptr get_reply: data").to_vec();
    pe.open(&pe.gptr, |s| s.get_replies.insert(req_id, Some(data)));
}

pub(crate) fn handle_put_req(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let key = u.u64().expect("gptr put_req: key");
    let offset = u.usize().expect("gptr put_req: offset");
    let req_id = u.u64().expect("gptr put_req: req_id");
    let reply_pe = u.usize().expect("gptr put_req: reply_pe");
    let data = u.bytes().expect("gptr put_req: data");
    pe.open(&pe.gptr, |s| {
        let r = s
            .regions
            .get_mut(&key)
            .unwrap_or_else(|| panic!("PE {}: remote put on destroyed region {key}", pe.my_pe()));
        r[offset..offset + data.len()].copy_from_slice(data);
    });
    let payload = Packer::new().u64(req_id).finish();
    pe.sync_send_and_free(reply_pe, Message::new(pe.ids.gptr_put_ack, &payload));
}

pub(crate) fn handle_put_ack(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let req_id = u.u64().expect("gptr put_ack: req_id");
    pe.open(&pe.gptr, |s| s.put_acks.insert(req_id, true));
}
