//! **SM**, the simple messaging layer, with its threaded variant **tSM**
//! and PVM/NX-style facades (paper §1, §3.3, §4).
//!
//! SM is the paper's example of a *no-concurrency* (single-process
//! module) language: tagged sends and a blocking receive built directly
//! on `CmiGetSpecificMsg` plus the Cmm message manager — no scheduler
//! involvement whatsoever, so an SM-only program pays nothing for the
//! scheduler it does not use (§3, "need-based cost").
//!
//! tSM is the paper's §3.2.2 example of composing the **message
//! manager + thread object + scheduler** into a threaded messaging
//! layer: "tSMCreate(): Create a new thread, and schedule it for
//! execution via the converse scheduler. tSMReceive(): block the thread
//! waiting for a particular (tagged) message." A tSM receive that finds
//! no matching message registers the calling thread as a waiter and
//! suspends it; the SM data handler awakens it when a match arrives.
//!
//! The [`pvm`] and [`nx`] modules are thin veneers with the flavour of
//! the original libraries' calls (`pvm_send`/`pvm_recv`, `csend`/
//! `crecv`), choosing the SPM or threaded blocking path automatically
//! depending on whether they are called from a thread object — the
//! "both in SPMD as well as multithreaded mode" support the paper
//! promises for its PVM and NXLib ports.

pub mod mpi;

use converse_machine::{HandlerId, Message, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use converse_msg::Priority;
use converse_msgmgr::{IndexedMsgManager, TagMailbox, WILDCARD};
use converse_threads::{cth_awaken, cth_self, cth_suspend, CthRuntime, Thread};
use parking_lot::Mutex;
use std::sync::Arc;

/// Wildcard for tag or source patterns in receives (PVM's `-1`).
pub const ANY: i32 = WILDCARD;

/// A received SM message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmMsg {
    /// The sender's tag.
    pub tag: i32,
    /// Sending PE.
    pub src: usize,
    /// Payload bytes.
    pub data: Vec<u8>,
}

struct Waiter {
    tag: i32,
    src: i32,
    thread: Thread,
}

/// Per-PE SM runtime: one data handler, a two-tag message manager
/// indexed by (tag, source), and the tSM waiter list.
pub struct Sm {
    data_h: HandlerId,
    mailbox: Mutex<IndexedMsgManager>,
    waiters: Mutex<Vec<Waiter>>,
}

impl Sm {
    /// Install SM on this PE (same registration order machine-wide).
    /// Idempotent per PE.
    pub fn install(pe: &Pe) -> Arc<Sm> {
        pe.local(|| Sm {
            data_h: pe.register_handler(|pe, msg| Sm::get(pe).ingest(pe, &msg)),
            mailbox: Mutex::new(IndexedMsgManager::new()),
            waiters: Mutex::new(Vec::new()),
        })
    }

    /// The SM runtime previously installed on this PE, borrowed from
    /// its PE-local storage.
    #[inline]
    pub fn get(pe: &Pe) -> &Sm {
        pe.local_ref()
            .unwrap_or_else(|| panic!("PE {}: Sm::install was not called", pe.my_pe()))
    }

    /// Send `data` with `tag` to `dst` (`SMSend`). Asynchronous: never
    /// blocks the sender.
    pub fn send(&self, pe: &Pe, dst: usize, tag: i32, data: &[u8]) {
        self.send_parts(pe, dst, tag, &[data]);
    }

    /// [`Sm::send`] of the concatenation of `parts`, gathered straight
    /// into the message: a caller with its own header in front of its
    /// data needs no buffer to join them.
    pub fn send_parts(&self, pe: &Pe, dst: usize, tag: i32, parts: &[&[u8]]) {
        assert_ne!(tag, ANY, "cannot send with the wildcard tag");
        let len = parts.iter().map(|p| p.len()).sum();
        let head = StackPacker::<16>::new()
            .i32(tag)
            .usize(pe.my_pe())
            .len_prefix(len);
        let all = std::iter::once(head.as_slice()).chain(parts.iter().copied());
        pe.sync_send_and_free(dst, Message::gather(self.data_h, &Priority::None, all));
    }

    /// Store an arriving data message and wake the first matching tSM
    /// waiter, if any.
    fn ingest(&self, pe: &Pe, msg: &Message) {
        let (tag, src, data) = decode(msg);
        self.mailbox.lock().put(&[tag, src as i32], data.to_vec());
        let woken = {
            let mut ws = self.waiters.lock();
            ws.iter()
                .position(|w| {
                    (w.tag == ANY || w.tag == tag) && (w.src == ANY || w.src == src as i32)
                })
                .map(|i| ws.remove(i).thread)
        };
        if let Some(t) = woken {
            cth_awaken(pe, &t);
        }
    }

    fn take_match(&self, tag: i32, src: i32) -> Option<SmMsg> {
        let stored = self.mailbox.lock().get(&[tag, src])?;
        Some(SmMsg {
            tag: stored.tags[0],
            src: stored.tags[1] as usize,
            data: stored.data,
        })
    }

    /// Blocking SPM receive (`SMRecv`): waits for a message matching
    /// `tag`/`src` (either may be [`ANY`]). **No other user activity
    /// happens on this PE while blocked** — the §2.1 no-concurrency
    /// discipline; messages for other handlers are buffered, and SM
    /// messages that do not match are retained in the message manager.
    pub fn recv(&self, pe: &Pe, tag: i32, src: i32) -> SmMsg {
        loop {
            if let Some(m) = self.take_match(tag, src) {
                return m;
            }
            let msg = pe.get_specific_msg(self.data_h);
            let (got_tag, got_src, data) = decode(&msg);
            if (tag == ANY || tag == got_tag) && (src == ANY || src == got_src as i32) {
                return SmMsg {
                    tag: got_tag,
                    src: got_src,
                    data: data.to_vec(),
                };
            }
            self.ingest(pe, &msg);
        }
    }

    /// Threaded receive (`tSMReceive`): must run inside a thread object;
    /// suspends the thread until a matching message arrives, letting the
    /// scheduler run other work meanwhile (§2.2's implicit control
    /// regime: "when a thread in one module blocks, code from another
    /// module can be executed during that otherwise idle time").
    pub fn trecv(&self, pe: &Pe, tag: i32, src: i32) -> SmMsg {
        loop {
            if let Some(m) = self.take_match(tag, src) {
                return m;
            }
            let me = cth_self(pe).unwrap_or_else(|| {
                panic!(
                    "PE {}: tSM receive outside a thread — use Sm::recv in SPM code",
                    pe.my_pe()
                )
            });
            self.waiters.lock().push(Waiter {
                tag,
                src,
                thread: me,
            });
            cth_suspend(pe);
        }
    }

    /// Receive choosing the right blocking style for the calling
    /// context: threaded inside a thread object, SPM otherwise.
    pub fn recv_auto(&self, pe: &Pe, tag: i32, src: i32) -> SmMsg {
        if cth_self(pe).is_some() {
            self.trecv(pe, tag, src)
        } else {
            self.recv(pe, tag, src)
        }
    }

    /// Size of the earliest matching buffered message (`SMProbe`),
    /// without consuming it. Does not wait.
    pub fn probe(&self, tag: i32, src: i32) -> Option<usize> {
        self.mailbox.lock().probe(&[tag, src]).map(|(len, _)| len)
    }

    /// Buffered (received but unconsumed) SM messages.
    pub fn buffered(&self) -> usize {
        self.mailbox.lock().len()
    }

    /// Spawn a tSM thread scheduled through the Converse scheduler
    /// (`tSMCreate`).
    pub fn tspawn<F>(&self, pe: &Pe, f: F) -> Thread
    where
        F: FnOnce(&Pe) + Send + 'static,
    {
        CthRuntime::get(pe).spawn_scheduled(pe, f)
    }
}

/// Tag, source PE and data of an SM data message, the data borrowed:
/// whoever keeps it makes the one owned copy an [`SmMsg`] hands out.
fn decode(msg: &Message) -> (i32, usize, &[u8]) {
    let mut u = Unpacker::new(msg.payload());
    let tag = u.i32().expect("sm: tag");
    let src = u.usize().expect("sm: src");
    (tag, src, u.bytes().expect("sm: data"))
}

/// PVM-flavoured facade: tag-matched sends and receives with `-1`
/// wildcards, as in `pvm_send`/`pvm_recv`/`pvm_probe`.
pub mod pvm {
    use super::{Sm, SmMsg, ANY};
    use converse_machine::Pe;

    fn tr(sel: i32) -> i32 {
        if sel < 0 {
            ANY
        } else {
            sel
        }
    }

    /// `pvm_send`: send `data` with `tag` to `dst`.
    pub fn send(pe: &Pe, dst: usize, tag: i32, data: &[u8]) {
        Sm::get(pe).send(pe, dst, tag, data);
    }

    /// `pvm_recv`: blocking receive; `tag < 0` or `src < 0` wildcard.
    /// Chooses SPM or threaded blocking by calling context.
    pub fn recv(pe: &Pe, tag: i32, src: i32) -> SmMsg {
        Sm::get(pe).recv_auto(pe, tr(tag), tr(src))
    }

    /// `pvm_probe`: size of a buffered matching message, if any.
    pub fn probe(pe: &Pe, tag: i32, src: i32) -> Option<usize> {
        Sm::get(pe).probe(tr(tag), tr(src))
    }
}

/// The paper's threaded-SM calls under their own names (§3.2.2): "tSM,
/// the threaded simple-messaging package, provides to its users the
/// following calls that make use of the thread object internally" — the
/// low-level thread calls stay hidden, exactly as the paper prescribes.
pub mod tsm {
    use super::{Sm, SmMsg, ANY};
    use converse_machine::Pe;
    use converse_threads::Thread;

    /// `tSMCreate()`: "Create a new thread, and schedule it for
    /// execution via the converse scheduler."
    pub fn create<F>(pe: &Pe, f: F) -> Thread
    where
        F: FnOnce(&Pe) + Send + 'static,
    {
        Sm::get(pe).tspawn(pe, f)
    }

    /// `tSMReceive()`: "block the thread waiting for a particular
    /// (tagged) message."
    pub fn receive(pe: &Pe, tag: i32) -> SmMsg {
        Sm::get(pe).trecv(pe, tag, ANY)
    }

    /// Send a tagged message to `dst` (the send half of the language).
    pub fn send(pe: &Pe, dst: usize, tag: i32, data: &[u8]) {
        Sm::get(pe).send(pe, dst, tag, data);
    }

    /// [`send`] of the concatenation of `parts` (see
    /// [`Sm::send_parts`](super::Sm::send_parts)).
    pub fn send_parts(pe: &Pe, dst: usize, tag: i32, parts: &[&[u8]]) {
        Sm::get(pe).send_parts(pe, dst, tag, parts);
    }
}

/// NX-flavoured facade (Intel Paragon): `csend`/`crecv` match on the
/// message *type*; `typesel < 0` receives any type.
pub mod nx {
    use super::{Sm, SmMsg, ANY};
    use converse_machine::Pe;

    /// `csend`: send `buf` of message type `msg_type` to `node`.
    pub fn csend(pe: &Pe, msg_type: i32, buf: &[u8], node: usize) {
        Sm::get(pe).send(pe, node, msg_type, buf);
    }

    /// `crecv`: blocking receive by type selector (negative = any).
    pub fn crecv(pe: &Pe, typesel: i32) -> SmMsg {
        let t = if typesel < 0 { ANY } else { typesel };
        Sm::get(pe).recv_auto(pe, t, ANY)
    }

    /// `cprobe`: non-consuming test for a buffered message of the type.
    pub fn cprobe(pe: &Pe, typesel: i32) -> bool {
        let t = if typesel < 0 { ANY } else { typesel };
        Sm::get(pe).probe(t, ANY).is_some()
    }
}
