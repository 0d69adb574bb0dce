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
//! no matching message posts the calling thread in the message manager,
//! under the pattern it waits for, and suspends it; the SM data handler
//! hands a matching arrival to it there and awakens it — the message is
//! never stored and looked up again.
//!
//! The [`pvm`] and [`nx`] modules are thin veneers with the flavour of
//! the original libraries' calls (`pvm_send`/`pvm_recv`, `csend`/
//! `crecv`), choosing the SPM or threaded blocking path automatically
//! depending on whether they are called from a thread object — the
//! "both in SPMD as well as multithreaded mode" support the paper
//! promises for its PVM and NXLib ports.

pub mod mpi;

use converse_machine::{HandlerId, Message, OwnerCell, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use converse_msg::Priority;
use converse_msgmgr::{MsgManager, WILDCARD};
use converse_threads::{cth_awaken, cth_self, cth_suspend, CthRuntime, Thread};
use std::sync::Arc;

/// Wildcard for tag or source patterns in receives (PVM's `-1`).
pub const ANY: i32 = WILDCARD;

/// The data of a received message: a view of the bytes inside the
/// message that carried them, which it keeps alive. Reads as a `[u8]`
/// slice; `to_vec()` makes an owned copy.
#[derive(Clone)]
pub struct MsgData {
    msg: Message,
    /// Where the data lies in the message's payload.
    at: std::ops::Range<usize>,
}

impl MsgData {
    /// Take `msg` apart: the header `head` reads off the front of its
    /// payload, then one length-prefixed byte string — the data, left
    /// where it is.
    fn unpack<H>(msg: Message, head: impl FnOnce(&mut Unpacker<'_>) -> H) -> (H, MsgData) {
        let payload = msg.payload();
        let mut u = Unpacker::new(payload);
        let head = head(&mut u);
        let len = u.bytes().expect("data after the header").len();
        let end = payload.len() - u.remaining();
        let at = end - len..end;
        (head, MsgData { msg, at })
    }
}

impl std::ops::Deref for MsgData {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.msg.payload()[self.at.clone()]
    }
}

impl AsRef<[u8]> for MsgData {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for MsgData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl Eq for MsgData {}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for MsgData {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl<const N: usize> TryFrom<MsgData> for [u8; N] {
    type Error = std::array::TryFromSliceError;
    fn try_from(data: MsgData) -> Result<[u8; N], Self::Error> {
        <[u8; N]>::try_from(&*data)
    }
}

/// A received SM message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmMsg {
    /// The sender's tag.
    pub tag: i32,
    /// Sending PE.
    pub src: usize,
    /// Payload bytes, inside the message that brought them.
    pub data: MsgData,
}

impl SmMsg {
    /// An arrived SM data message, kept as it came.
    fn decode(msg: Message) -> SmMsg {
        let ((tag, src), data) = MsgData::unpack(msg, |u| {
            (u.i32().expect("sm: tag"), u.usize().expect("sm: src"))
        });
        SmMsg { tag, src, data }
    }

    fn matches(&self, tag: i32, src: i32) -> bool {
        (tag == ANY || tag == self.tag) && (src == ANY || src == self.src as i32)
    }
}

/// What the mailbox holds under a tag.
enum Held {
    /// A message nobody has asked for yet.
    Msg(SmMsg),
    /// A tSM thread that asked first, posted under its pattern; `got`
    /// is the message an arrival handed it, until it runs and leaves.
    Receiver { thread: Thread, got: Option<SmMsg> },
}

/// The message manager and how many of its entries are receivers.
#[derive(Default)]
struct Mailbox {
    held: MsgManager<Held>,
    receivers: usize,
}

impl Mailbox {
    fn take_msg(&mut self, tag: i32, src: i32) -> Option<SmMsg> {
        let is_msg = |h: &Held| matches!(h, Held::Msg(_));
        match self.held.get_where(&[tag, src], is_msg)?.item {
            Held::Msg(m) => Some(m),
            Held::Receiver { .. } => unreachable!("asked for a message"),
        }
    }
}

/// Per-PE SM runtime: one data handler and a two-tag message manager
/// indexed by (tag, source) that holds the arrived messages themselves
/// and, beside them under the same tag, the tSM threads waiting for one.
pub struct Sm {
    data_h: HandlerId,
    /// Only this PE's contexts send it messages or receive: owner-only.
    mailbox: OwnerCell<Mailbox>,
}

impl Sm {
    /// Install SM on this PE (same registration order machine-wide).
    /// Idempotent per PE.
    pub fn install(pe: &Pe) -> Arc<Sm> {
        pe.local(|| Sm {
            data_h: pe.register_handler(|pe, msg| Sm::get(pe).ingest(pe, SmMsg::decode(msg))),
            mailbox: OwnerCell::new(pe.owner(), Mailbox::default()),
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

    /// Open the mailbox. `f` must not call out of this module.
    fn mailbox<R>(&self, pe: &Pe, f: impl FnOnce(&mut Mailbox) -> R) -> R {
        self.mailbox.with(pe.owner(), f)
    }

    /// An arrival meets its receiver here, once: the earliest-posted
    /// tSM thread whose pattern matches is handed the message and
    /// awakened; with none waiting the message is stored.
    fn ingest(&self, pe: &Pe, m: SmMsg) {
        let tags = [m.tag, m.src as i32];
        let waiting = |h: &Held| matches!(h, Held::Receiver { got: None, .. });
        let receiver = self.mailbox(pe, |mb| {
            if mb.receivers > 0 {
                if let Some(entry) = mb.held.probe_mut_where(&tags, waiting) {
                    let Held::Receiver { thread, got } = &mut entry.item else {
                        unreachable!("asked for a receiver")
                    };
                    *got = Some(m);
                    return Some(thread.clone());
                }
            }
            mb.held.put(&tags, Held::Msg(m));
            None
        });
        if let Some(thread) = receiver {
            cth_awaken(pe, &thread);
        }
    }

    /// Blocking SPM receive (`SMRecv`): waits for a message matching
    /// `tag`/`src` (either may be [`ANY`]). **No other user activity
    /// happens on this PE while blocked** — the §2.1 no-concurrency
    /// discipline; messages for other handlers are buffered, and SM
    /// messages that do not match are retained in the message manager.
    pub fn recv(&self, pe: &Pe, tag: i32, src: i32) -> SmMsg {
        loop {
            if let Some(m) = self.mailbox(pe, |mb| mb.take_msg(tag, src)) {
                return m;
            }
            let m = SmMsg::decode(pe.get_specific_msg(self.data_h));
            if m.matches(tag, src) {
                return m;
            }
            self.ingest(pe, m);
        }
    }

    /// Threaded receive (`tSMReceive`): must run inside a thread object;
    /// suspends the thread until a matching message arrives, letting the
    /// scheduler run other work meanwhile (§2.2's implicit control
    /// regime: "when a thread in one module blocks, code from another
    /// module can be executed during that otherwise idle time").
    pub fn trecv(&self, pe: &Pe, tag: i32, src: i32) -> SmMsg {
        if let Some(m) = self.mailbox(pe, |mb| mb.take_msg(tag, src)) {
            return m;
        }
        let thread = cth_self(pe).unwrap_or_else(|| {
            panic!(
                "PE {}: tSM receive outside a thread — use Sm::recv in SPM code",
                pe.my_pe()
            )
        });
        let me = thread.id();
        self.mailbox(pe, |mb| {
            mb.held
                .post(&[tag, src], Held::Receiver { thread, got: None });
            mb.receivers += 1;
        });
        // Posted once, and it stays posted until an arrival has served
        // it: whoever else awakens this thread finds it waiting still.
        let served =
            |h: &Held| matches!(h, Held::Receiver { thread, got: Some(_) } if thread.id() == me);
        loop {
            cth_suspend(pe);
            let got = self.mailbox(pe, |mb| {
                let entry = mb.held.get_where(&[tag, src], served)?;
                mb.receivers -= 1;
                Some(entry.item)
            });
            match got {
                Some(Held::Receiver { got: Some(m), .. }) => return m,
                Some(_) => unreachable!("asked for this thread's served receiver"),
                None => {}
            }
        }
    }

    /// Receive choosing the right blocking style for the calling
    /// context: threaded inside a thread object, SPM otherwise.
    pub(crate) fn recv_auto(&self, pe: &Pe, tag: i32, src: i32) -> SmMsg {
        if cth_self(pe).is_some() {
            self.trecv(pe, tag, src)
        } else {
            self.recv(pe, tag, src)
        }
    }

    /// Size of the earliest matching buffered message (`SMProbe`),
    /// without consuming it. Does not wait.
    pub fn probe(&self, pe: &Pe, tag: i32, src: i32) -> Option<usize> {
        self.mailbox(pe, |mb| {
            let is_msg = |h: &Held| matches!(h, Held::Msg(_));
            match &mb.held.probe_where(&[tag, src], is_msg)?.item {
                Held::Msg(m) => Some(m.data.len()),
                Held::Receiver { .. } => unreachable!("asked for a message"),
            }
        })
    }

    /// Buffered (received but unconsumed) SM messages.
    pub fn buffered(&self, pe: &Pe) -> usize {
        self.mailbox(pe, |mb| mb.held.len() - mb.receivers)
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
        Sm::get(pe).probe(pe, tr(tag), tr(src))
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
        Sm::get(pe).probe(pe, t, ANY).is_some()
    }
}
