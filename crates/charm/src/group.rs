//! **Chare groups** (branch-office chares): one representative object on
//! every PE, addressed collectively or per-PE.
//!
//! Charm's group construct is the natural expression of per-processor
//! services (load monitors, caches, reduction clients) in the
//! message-driven world. A group is created by broadcasting its
//! constructor; because every PE derives the same [`GroupId`] from the
//! creator's (PE, sequence) pair, the id is valid machine-wide
//! immediately — creation is asynchronous and fire-and-forget like chare
//! creation, but the handle is known to the creator up front.
//!
//! Invocations go through the scheduler queue with their priority, the
//! same two-handler idiom the point-to-point chare path uses.

use crate::idmap::IdMap;
use crate::Charm;
use converse_core::csd;
use converse_machine::{HandlerId, Message, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use converse_msg::Priority;
use std::sync::Arc;

/// Index of a registered group-chare type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKind(pub u32);

/// Machine-wide identity of a group: derived from (creator PE, creator
/// sequence), so the creator knows it synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub u64);

impl GroupId {
    fn new(creator: usize, seq: u64) -> GroupId {
        GroupId(((creator as u64) << 40) | seq)
    }
}

/// A per-PE group representative ("branch").
pub trait GroupChare: Send + 'static {
    /// Construct this PE's branch. Runs once on every PE.
    fn new(pe: &Pe, gid: GroupId, payload: &[u8]) -> Self
    where
        Self: Sized;

    /// An asynchronous invocation delivered to this branch.
    fn entry(&mut self, pe: &Pe, gid: GroupId, ep: u32, payload: &[u8]);
}

type GroupCtor = Arc<dyn Fn(&Pe, GroupId, &[u8]) -> Box<dyn GroupChare> + Send + Sync>;

/// Per-PE group tables, part of the [`Charm`] runtime's owner-only state.
#[derive(Default)]
pub(crate) struct Groups {
    ctors: Vec<GroupCtor>,
    /// This PE's branch of every live group (taken out while one of its
    /// entry methods runs).
    branches: IdMap<Option<Box<dyn GroupChare>>>,
    /// Invocations that raced ahead of their group's create broadcast
    /// (possible for third-party senders); replayed at construction.
    early: IdMap<Vec<Message>>,
    /// Last creation sequence number this PE handed out.
    last_seq: u64,
}

/// The group handlers (registered from `Charm::install`, fixed order).
pub(crate) struct Handlers {
    create_h: HandlerId,
    invoke_h: HandlerId,
    exec_h: HandlerId,
}

impl Handlers {
    pub(crate) fn install(pe: &Pe) -> Handlers {
        let create_h = pe.register_handler(|pe, msg| {
            let mut u = Unpacker::new(msg.payload());
            let gid = GroupId(u.u64().expect("group create: gid"));
            let kind = u.u32().expect("group create: kind");
            let payload = u.bytes().expect("group create: payload");
            Charm::get(pe).construct_group(pe, gid, GroupKind(kind), payload);
        });
        let exec_h = pe.register_handler(|pe, msg| Charm::get(pe).execute_group(pe, msg));
        let invoke_h = pe.register_handler(|pe, mut msg| {
            msg.set_handler(Charm::get(pe).group_h.exec_h);
            csd::csd_enqueue_prio(pe, msg);
        });
        Handlers {
            create_h,
            invoke_h,
            exec_h,
        }
    }
}

impl Charm {
    fn construct_group(&self, pe: &Pe, gid: GroupId, kind: GroupKind, payload: &[u8]) {
        let ctor = self.state(pe, |s| s.groups.ctors.get(kind.0 as usize).cloned());
        let ctor =
            ctor.unwrap_or_else(|| panic!("PE {}: unregistered group kind {kind:?}", pe.my_pe()));
        pe.trace_event(converse_trace::Event::ObjectCreate {
            kind: kind.0 | 0x8000_0000,
        });
        let branch = Some(ctor(pe, gid, payload));
        let (prev, early) = self.state(pe, |s| {
            let g = &mut s.groups;
            (g.branches.insert(gid.0, branch), g.early.remove(&gid.0))
        });
        assert!(
            prev.is_none(),
            "PE {}: group {gid:?} created twice",
            pe.my_pe()
        );
        self.qd.msg_processed(pe, 1);
        // Replay any invocations that arrived before the create.
        for m in early.into_iter().flatten() {
            csd::csd_enqueue_prio(pe, m);
        }
    }

    fn execute_group(&self, pe: &Pe, msg: Message) {
        let mut u = Unpacker::new(msg.payload());
        let gid = u.u64().expect("group exec: gid");
        let ep = u.u32().expect("group exec: ep");
        let payload = u.bytes().expect("group exec: payload");
        // Take the branch out for the duration of the entry method, as
        // for a chare: the method may send (even to this group) with the
        // state closed.
        let taken = self.state(pe, |s| s.groups.branches.get_mut(&gid).map(Option::take));
        let mut branch = match taken {
            Some(Some(branch)) => branch,
            Some(None) => panic!("PE {}: reentrant group entry on {gid}", pe.my_pe()),
            // A third-party send raced ahead of the create broadcast:
            // hold it until the branch exists.
            None => return self.state(pe, |s| s.groups.early.entry(gid).or_default().push(msg)),
        };
        branch.entry(pe, GroupId(gid), ep, payload);
        // Put it back unless the entry destroyed the group; then it is
        // dropped here, with the state closed.
        let _destroyed = self.state(pe, |s| match s.groups.branches.get_mut(&gid) {
            Some(b) => b.replace(branch),
            None => Some(branch),
        });
        self.qd.msg_processed(pe, 1);
    }

    /// Register group-chare type `T` (same order on every PE!).
    pub fn register_group<T: GroupChare>(&self, pe: &Pe) -> GroupKind {
        let ctor: GroupCtor =
            Arc::new(|pe, gid, payload| Box::new(T::new(pe, gid, payload)) as Box<dyn GroupChare>);
        self.state(pe, |s| {
            s.groups.ctors.push(ctor);
            GroupKind((s.groups.ctors.len() - 1) as u32)
        })
    }

    /// Create a group: every PE (including this one) constructs a branch
    /// asynchronously. The returned id is usable immediately for sends —
    /// per-(src,dst) FIFO delivery guarantees the create precedes them
    /// at every PE.
    pub fn create_group(&self, pe: &Pe, kind: GroupKind, payload: &[u8]) -> GroupId {
        let seq = self.state(pe, |s| {
            s.groups.last_seq += 1;
            s.groups.last_seq
        });
        let gid = GroupId::new(pe.my_pe(), seq);
        self.quiescence().msg_created(pe, pe.num_pes() as u64);
        let head = StackPacker::<16>::new()
            .u64(gid.0)
            .u32(kind.0)
            .len_prefix(payload.len());
        let parts = [head.as_slice(), payload];
        pe.sync_broadcast_all(&Message::gather(
            self.group_h.create_h,
            &Priority::None,
            parts,
        ));
        gid
    }

    /// Drop this PE's branch of `gid`, with anything still held for it:
    /// the group's teardown, called on every PE once no invocation of
    /// the group is in flight (a finished phase, a barrier). Returns
    /// whether a branch lived here. An invocation arriving later is held
    /// like one that raced ahead of a create.
    pub fn destroy_group(&self, pe: &Pe, gid: GroupId) -> bool {
        // What is removed is dropped here, with the state closed.
        let (_early, branch) = self.state(pe, |s| {
            let g = &mut s.groups;
            (g.early.remove(&gid.0), g.branches.remove(&gid.0))
        });
        branch.is_some()
    }

    /// The invoke message for entry `ep` of group `gid`: the group
    /// header, then `parts`, gathered straight into the message.
    fn group_invoke(&self, gid: GroupId, ep: u32, parts: &[&[u8]], prio: &Priority) -> Message {
        let len = parts.iter().map(|p| p.len()).sum();
        let head = StackPacker::<16>::new().u64(gid.0).u32(ep).len_prefix(len);
        let all = std::iter::once(head.as_slice()).chain(parts.iter().copied());
        Message::gather(self.group_h.invoke_h, prio, all)
    }

    /// Invoke entry `ep` on the branch of `gid` living on `target_pe`.
    pub fn send_group(
        &self,
        pe: &Pe,
        gid: GroupId,
        target_pe: usize,
        ep: u32,
        payload: &[u8],
        prio: Priority,
    ) {
        self.send_group_parts(pe, gid, target_pe, ep, &[payload], prio);
    }

    /// [`Charm::send_group`] with the concatenation of `parts` as the
    /// payload: a caller with its own header in front of its data hands
    /// both over and neither is copied before the message is built.
    pub fn send_group_parts(
        &self,
        pe: &Pe,
        gid: GroupId,
        target_pe: usize,
        ep: u32,
        parts: &[&[u8]],
        prio: Priority,
    ) {
        self.quiescence().msg_created(pe, 1);
        pe.sync_send_and_free(target_pe, self.group_invoke(gid, ep, parts, &prio));
    }

    /// Invoke entry `ep` on **every** branch of `gid` (self included).
    pub fn broadcast_group(&self, pe: &Pe, gid: GroupId, ep: u32, payload: &[u8], prio: Priority) {
        self.quiescence().msg_created(pe, pe.num_pes() as u64);
        pe.sync_broadcast_all(&self.group_invoke(gid, ep, &[payload], &prio));
    }

    /// Number of live group branches on this PE.
    pub fn local_group_branches(&self, pe: &Pe) -> usize {
        self.state(pe, |s| s.groups.branches.len())
    }
}
