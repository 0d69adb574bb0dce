//! EMI global operations: spanning-tree reductions, broadcasts and
//! barriers over all PEs (paper §3.1.3: "the EMI provides calls for …
//! carrying out reductions and other global operations, as well as
//! spanning-tree based operations").
//!
//! All PEs must invoke collectives in the same order — the loosely
//! synchronous discipline of the SPM world these calls serve. Each call
//! consumes one slot of a per-PE sequence counter; the sequence number
//! keys all protocol messages, so contributions arriving "early" (a
//! child racing ahead of its parent) are buffered until the parent
//! reaches that collective.
//!
//! The spanning tree is the complete binary tree over PE ids rooted at
//! PE 0: parent `(p-1)/2`, children `2p+1, 2p+2`.

use crate::pe::Pe;
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::Message;
use std::collections::HashMap;
use std::sync::Arc;

/// A registered reduction combiner: `f(acc, contribution) -> acc`.
/// Must be associative; contributions combine in tree order (own value,
/// then children ascending by PE id).
pub(crate) type Combiner = Arc<dyn Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync>;

/// Index of a registered combiner. Registration must occur in the same
/// order on every PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombinerId(pub u32);

const UP_KIND_REDUCE: u8 = 0;
const UP_KIND_RELAY: u8 = 1;

/// Contributions received from children, per sequence number:
/// (child_pe, bytes).
type UpInbox = HashMap<u64, Vec<(usize, Vec<u8>)>>;

/// Per-PE collective-protocol state.
pub(crate) struct CollState {
    next_seq: u64,
    inbox_up: UpInbox,
    /// (seq) → broadcast payload received from the parent.
    inbox_down: HashMap<u64, Vec<u8>>,
    combiners: Vec<Combiner>,
}

impl Default for CollState {
    fn default() -> Self {
        // Combiner 0 is reserved: "keep accumulator" — used by barriers,
        // whose payloads are empty and meaningless.
        let keep: Combiner = Arc::new(|acc, _| acc.to_vec());
        CollState {
            next_seq: 0,
            inbox_up: HashMap::new(),
            inbox_down: HashMap::new(),
            combiners: vec![keep],
        }
    }
}

/// Children of `pe` in the machine-wide spanning tree.
fn tree_children(pe: usize, num_pes: usize) -> Vec<usize> {
    [2 * pe + 1, 2 * pe + 2]
        .into_iter()
        .filter(|&c| c < num_pes)
        .collect()
}

/// Parent of `pe` in the machine-wide spanning tree (`None` for PE 0).
fn tree_parent(pe: usize) -> Option<usize> {
    if pe == 0 {
        None
    } else {
        Some((pe - 1) / 2)
    }
}

impl Pe {
    /// Register a reduction combiner (same order on every PE!).
    pub fn register_combiner<F>(&self, f: F) -> CombinerId
    where
        F: Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        self.open(&self.coll, |c| {
            c.combiners.push(Arc::new(f));
            CombinerId((c.combiners.len() - 1) as u32)
        })
    }

    /// The combiner registered as `id`, cloned out so it runs with the
    /// cell closed.
    pub(crate) fn combiner_fn(&self, id: CombinerId) -> Combiner {
        self.open(&self.coll, |c| c.combiners.get(id.0 as usize).cloned())
            .unwrap_or_else(|| panic!("PE {}: unregistered combiner {id:?}", self.my_pe()))
    }

    fn next_coll_seq(&self) -> u64 {
        self.open(&self.coll, |c| {
            let seq = c.next_seq;
            c.next_seq += 1;
            seq
        })
    }

    /// Tree-reduce `contribution` with `op` toward PE 0. Returns
    /// `Some(result)` on PE 0, `None` elsewhere. A collective: every PE
    /// must call it, in the same relative order as its other collectives.
    pub fn reduce_bytes(&self, contribution: Vec<u8>, op: CombinerId) -> Option<Vec<u8>> {
        let seq = self.next_coll_seq();
        let acc = self.reduce_up(seq, contribution, op);
        if self.my_pe() == 0 {
            Some(acc)
        } else {
            let payload = Packer::new()
                .u8(UP_KIND_REDUCE)
                .u64(seq)
                .usize(self.my_pe())
                .bytes(&acc)
                .finish();
            let parent = tree_parent(self.my_pe()).expect("non-root has a parent");
            self.sync_send_and_free(parent, Message::new(self.ids.coll_up, &payload));
            None
        }
    }

    /// Tree-reduce then broadcast the result to every PE; all PEs return
    /// the reduced value.
    pub fn allreduce_bytes(&self, contribution: Vec<u8>, op: CombinerId) -> Vec<u8> {
        match self.reduce_bytes(contribution, op) {
            Some(result) => {
                // Root: one more collective slot for the down wave.
                let seq = self.next_coll_seq();
                self.initiate_down(seq, result.clone());
                result
            }
            None => {
                let seq = self.next_coll_seq();
                self.wait_down(seq)
            }
        }
    }

    /// Global barrier: returns only after every PE has entered it.
    pub fn barrier(&self) {
        self.allreduce_bytes(Vec::new(), CombinerId(0));
    }

    /// Broadcast `data` (given by the `root` PE; `None` elsewhere) to all
    /// PEs; every PE returns the payload. A collective.
    pub fn bcast_bytes(&self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        let seq = self.next_coll_seq();
        if self.my_pe() == root {
            let data = data.unwrap_or_else(|| {
                panic!("PE {}: bcast root must supply the payload", self.my_pe())
            });
            if root == 0 {
                self.initiate_down(seq, data.clone());
                data
            } else {
                // Relay through PE 0, the root of the spanning tree.
                let payload = Packer::new()
                    .u8(UP_KIND_RELAY)
                    .u64(seq)
                    .usize(self.my_pe())
                    .bytes(&data)
                    .finish();
                self.sync_send_and_free(0, Message::new(self.ids.coll_up, &payload));
                self.wait_down(seq)
            }
        } else {
            self.wait_down(seq)
        }
    }

    // ---- internals ----------------------------------------------------------

    /// Wait for all children's contributions for `seq` and fold them into
    /// `contribution` in tree order.
    fn reduce_up(&self, seq: u64, contribution: Vec<u8>, op: CombinerId) -> Vec<u8> {
        let kids = tree_children(self.my_pe(), self.num_pes());
        if kids.is_empty() {
            return contribution;
        }
        self.deliver_internal_until(|| {
            self.open(&self.coll, |c| c.inbox_up.get(&seq).map_or(0, Vec::len)) == kids.len()
        });
        let mut got = self
            .open(&self.coll, |c| c.inbox_up.remove(&seq))
            .expect("children arrived");
        got.sort_by_key(|(pe, _)| *pe);
        let f = self.combiner_fn(op);
        let mut acc = contribution;
        for (_, bytes) in got {
            acc = f(&acc, &bytes);
        }
        acc
    }

    fn initiate_down(&self, seq: u64, data: Vec<u8>) {
        // One down-wave message; every child gets a share of its block.
        let payload = Packer::new().u64(seq).bytes(&data).finish();
        let msg = Message::new(self.ids.coll_down, &payload);
        for c in tree_children(self.my_pe(), self.num_pes()) {
            self.sync_send(c, &msg);
        }
    }

    fn wait_down(&self, seq: u64) -> Vec<u8> {
        self.deliver_internal_until(|| self.open(&self.coll, |c| c.inbox_down.contains_key(&seq)));
        self.open(&self.coll, |c| c.inbox_down.remove(&seq))
            .expect("down arrived")
    }
}

pub(crate) fn handle_up(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let kind = u.u8().expect("coll up: kind");
    let seq = u.u64().expect("coll up: seq");
    let child = u.usize().expect("coll up: child");
    let bytes = u.bytes().expect("coll up: bytes").to_vec();
    match kind {
        UP_KIND_REDUCE => {
            pe.open(&pe.coll, |c| {
                c.inbox_up.entry(seq).or_default().push((child, bytes))
            });
        }
        UP_KIND_RELAY => {
            debug_assert_eq!(pe.my_pe(), 0, "relay targets the tree root");
            // Root participates in this broadcast too: store its own copy
            // (its wait_down will find it) and fan out one shared block.
            let payload = Packer::new().u64(seq).bytes(&bytes).finish();
            let down = Message::new(pe.ids.coll_down, &payload);
            pe.open(&pe.coll, |c| c.inbox_down.insert(seq, bytes));
            for c in tree_children(pe.my_pe(), pe.num_pes()) {
                pe.sync_send(c, &down);
            }
        }
        k => panic!("PE {}: unknown collective up-kind {k}", pe.my_pe()),
    }
}

pub(crate) fn handle_down(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let seq = u.u64().expect("coll down: seq");
    let bytes = u.bytes().expect("coll down: bytes").to_vec();
    // Forward the *same* message down the tree: the children receive
    // shares of the block this PE was handed — the down wave repacks and
    // copies nothing at any hop.
    for c in tree_children(pe.my_pe(), pe.num_pes()) {
        pe.sync_send(c, &msg);
    }
    pe.open(&pe.coll, |c| c.inbox_down.insert(seq, bytes));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape() {
        assert_eq!(tree_children(0, 7), vec![1, 2]);
        assert_eq!(tree_children(1, 7), vec![3, 4]);
        assert_eq!(tree_children(2, 7), vec![5, 6]);
        assert_eq!(tree_children(3, 7), Vec::<usize>::new());
        assert_eq!(tree_children(0, 2), vec![1]);
        assert_eq!(tree_parent(0), None);
        assert_eq!(tree_parent(1), Some(0));
        assert_eq!(tree_parent(6), Some(2));
    }

    #[test]
    fn every_pe_reaches_root() {
        for n in 1..40 {
            for mut p in 0..n {
                let mut hops = 0;
                while let Some(q) = tree_parent(p) {
                    p = q;
                    hops += 1;
                    assert!(hops <= n, "cycle in tree of {n}");
                }
                assert_eq!(p, 0);
            }
        }
    }

    #[test]
    fn children_and_parent_agree() {
        let n = 33;
        for p in 0..n {
            for c in tree_children(p, n) {
                assert_eq!(tree_parent(c), Some(p));
            }
        }
    }
}
