//! MPI-style retrieval built **on top of** the minimal interface —
//! the paper's §3.1.3 argument made executable:
//!
//! > "MPI provides a 'receive' call based on context, tag and source
//! > processor. It also guarantees that messages are delivered in the
//! > sequence in which they are sent between a pair of processors. The
//! > overhead of maintaining messages indexed for such retrieval or for
//! > maintaining delivery sequence is unnecessary for many applications.
//! > The interface we propose … is minimal, yet it is possible to
//! > provide an efficient MPI-style retrieval on top of this interface."
//!
//! This module is that layer: tagged sends carry a per-(sender,receiver)
//! sequence number; the receive side re-sequences, so **pairwise FIFO
//! order holds even when the underlying machine reorders deliveries** —
//! and only programs that link this module pay for the counters and the
//! resequencing buffer (need-based cost, §3).

use crate::MsgData;
use converse_machine::{HandlerId, Message, OwnerCell, Pe};
use converse_msg::pack::StackPacker;
use converse_msg::Priority;
use converse_msgmgr::{MsgManager, WILDCARD};
use std::collections::HashMap;
use std::sync::Arc;

/// Wildcard for `recv`'s tag or source (MPI's `MPI_ANY_TAG` /
/// `MPI_ANY_SOURCE`).
pub const ANY: i32 = WILDCARD;

/// A received MPI-style message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiMsg {
    /// Sender's tag.
    pub tag: i32,
    /// Source rank (PE).
    pub src: usize,
    /// Payload bytes, inside the message that brought them.
    pub data: MsgData,
}

/// What the layer keeps per PE. Only the PE's running context touches
/// it, so it is one owner-only cell like [`crate::Sm`]'s mailbox.
#[derive(Default)]
struct State {
    /// Next sequence number to assign, per destination.
    send_seq: HashMap<usize, u64>,
    /// Next sequence number to admit, per source.
    recv_seq: HashMap<usize, u64>,
    /// Out-of-order arrivals held until their predecessors admit them:
    /// (src, seq) → (tag, data).
    held: HashMap<(usize, u64), (i32, MsgData)>,
    /// Admitted (in-order) messages awaiting a matching `recv`.
    mailbox: MsgManager<MsgData>,
}

/// Per-PE MPI-layer state.
pub struct Mpi {
    data_h: HandlerId,
    state: OwnerCell<State>,
}

impl Mpi {
    /// Install the MPI layer on this PE (same registration order
    /// machine-wide). Idempotent per PE.
    pub fn install(pe: &Pe) -> Arc<Mpi> {
        pe.local(|| Mpi {
            data_h: pe.register_handler(|pe, msg| Mpi::get(pe).ingest(pe, msg)),
            state: OwnerCell::new(pe.owner(), State::default()),
        })
    }

    /// Open the state. `f` must not call out of this module.
    fn state<R>(&self, pe: &Pe, f: impl FnOnce(&mut State) -> R) -> R {
        self.state.with(pe.owner(), f)
    }

    /// The layer previously installed on this PE, borrowed from its
    /// PE-local storage.
    #[inline]
    pub fn get(pe: &Pe) -> &Mpi {
        pe.local_ref()
            .unwrap_or_else(|| panic!("PE {}: Mpi::install was not called", pe.my_pe()))
    }

    /// Send `data` with `tag` to rank `dst` (`MPI_Send`-flavoured:
    /// buffered, never blocks here).
    pub fn send(&self, pe: &Pe, dst: usize, tag: i32, data: &[u8]) {
        assert_ne!(tag, ANY, "cannot send with the wildcard tag");
        let seq = self.state(pe, |s| {
            let e = s.send_seq.entry(dst).or_insert(0);
            *e += 1;
            *e - 1
        });
        let head = StackPacker::<24>::new()
            .usize(pe.my_pe())
            .u64(seq)
            .i32(tag)
            .len_prefix(data.len());
        let parts = [head.as_slice(), data];
        pe.sync_send_and_free(dst, Message::gather(self.data_h, &Priority::None, parts));
    }

    /// Admit an arrival: in-order messages (and any held successors they
    /// release) go to the mailbox; early ones are parked.
    fn ingest(&self, pe: &Pe, msg: Message) {
        let ((src, seq, tag), data) = MsgData::unpack(msg, |u| {
            (
                u.usize().expect("mpi: src"),
                u.u64().expect("mpi: seq"),
                u.i32().expect("mpi: tag"),
            )
        });
        self.state(pe, |s| {
            let want = s.recv_seq.entry(src).or_insert(0);
            if seq != *want {
                debug_assert!(
                    seq > *want,
                    "duplicate or replayed sequence {seq} from {src}"
                );
                s.held.insert((src, seq), (tag, data));
                return;
            }
            s.mailbox.put(&[tag, src as i32], data);
            *want += 1;
            // Release any consecutive held successors.
            while let Some((tag, data)) = s.held.remove(&(src, *want)) {
                s.mailbox.put(&[tag, src as i32], data);
                *want += 1;
            }
        });
    }

    fn take(&self, pe: &Pe, tag: i32, src: i32) -> Option<MpiMsg> {
        let stored = self.state(pe, |s| s.mailbox.get(&[tag, src]))?;
        Some(MpiMsg {
            tag: stored.tags[0],
            src: stored.tags[1] as usize,
            data: stored.item,
        })
    }

    /// Blocking receive (`MPI_Recv`): waits for a message matching
    /// `tag`/`src` (either may be [`ANY`]). Pairwise FIFO: messages from
    /// one source with one tag are received in the order they were sent,
    /// regardless of network delivery order.
    pub fn recv(&self, pe: &Pe, tag: i32, src: i32) -> MpiMsg {
        loop {
            if let Some(m) = self.take(pe, tag, src) {
                return m;
            }
            let msg = pe.get_specific_msg(self.data_h);
            self.ingest(pe, msg);
        }
    }

    /// Non-consuming test (`MPI_Probe` with immediate return): size of
    /// the earliest matching admitted message.
    pub fn probe(&self, pe: &Pe, tag: i32, src: i32) -> Option<usize> {
        self.state(pe, |s| s.mailbox.probe(&[tag, src]).map(|m| m.item.len()))
    }

    /// Combined send-then-receive (`MPI_Sendrecv`): ships `data` to
    /// `dst`, then blocks for a message matching `recv_tag` from
    /// `recv_src`.
    pub fn sendrecv(
        &self,
        pe: &Pe,
        dst: usize,
        send_tag: i32,
        data: &[u8],
        recv_tag: i32,
        recv_src: i32,
    ) -> MpiMsg {
        self.send(pe, dst, send_tag, data);
        self.recv(pe, recv_tag, recv_src)
    }

    /// Messages admitted but not yet received.
    pub fn pending(&self, pe: &Pe) -> usize {
        self.state(pe, |s| s.mailbox.len())
    }

    /// Out-of-order arrivals currently parked in the resequencer.
    pub fn held(&self, pe: &Pe) -> usize {
        self.state(pe, |s| s.held.len())
    }
}
