//! EMI global operations: spanning-tree reductions, broadcasts and
//! barriers over all PEs (paper §3.1.3: "the EMI provides calls for …
//! carrying out reductions and other global operations, as well as
//! spanning-tree based operations"), and the one arrival table every
//! blocking EMI call waits on.
//!
//! All PEs must invoke collectives in the same order — the loosely
//! synchronous discipline of the SPM world these calls serve. Each call
//! consumes one slot of a per-PE sequence counter; the sequence number
//! keys all protocol messages, so contributions arriving "early" (a
//! child racing ahead of its parent) wait in the table until the parent
//! reaches that collective.
//!
//! The machine-wide spanning tree is the complete binary tree over PE
//! ids rooted at PE 0: parent `(p-1)/2`, children `2p+1, 2p+2`. A
//! reduction over it and a processor-group reduction ([`crate::pgrp`])
//! run the same up-wave; only the tree differs. A broadcast from a root
//! other than PE 0 hands PE 0 an ordinary down-wave message, which PE 0
//! forwards like any other and keeps its copy of.
//!
//! **The arrival table.** A blocked EMI call — an up-wave waiting for
//! its children, a down-wave, a group reduction, a global-pointer get or
//! put — waits for entries under one `Await` key in the PE's
//! `Arrivals`. One internal handler deposits there (the down-wave's
//! handler forwards first, then deposits the same way); each kind of key
//! is its own namespace, so a group tag equal to a machine sequence
//! number or a request id never mixes with it.

use crate::pe::Pe;
use converse_msg::pack::{PackError, Packer, Unpacker};
use converse_msg::{HandlerId, Message};
use std::sync::Arc;

/// A registered reduction combiner: `f(acc, contribution) -> acc`.
/// Must be associative; contributions combine in tree order (own value,
/// then children ascending by PE id).
pub(crate) type Combiner = Arc<dyn Fn(&[u8], &[u8]) -> Vec<u8> + Send + Sync>;

/// Index of a registered combiner. Registration must occur in the same
/// order on every PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombinerId(pub u32);

/// What a blocked EMI call waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Await {
    /// A machine-wide collective, by sequence number.
    Wave(u64),
    /// A processor-group reduction, by the members' tag.
    Group(u64),
    /// A global-pointer get or put, by request id.
    Reply(u64),
}

/// Per-PE arrival table: what came in, in arrival order, with the key it
/// was sent under and the PE that sent it. It holds one entry per child
/// of a wave in flight and per unclaimed reply, so a scan costs less than
/// hashing.
pub(crate) type Arrivals = Vec<(Await, usize, Vec<u8>)>;

/// Per-PE collective-protocol state.
pub(crate) struct CollState {
    next_seq: u64,
    combiners: Vec<Combiner>,
}

impl Default for CollState {
    fn default() -> Self {
        // Combiner 0 is reserved: "keep accumulator" — used by barriers,
        // whose payloads are empty and meaningless.
        let keep: Combiner = Arc::new(|acc, _| acc.to_vec());
        CollState {
            next_seq: 0,
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

/// An arrival message for handler `h`: `bytes` under `key`, from `from`.
fn arrival(h: HandlerId, key: Await, from: usize, bytes: &[u8]) -> Message {
    let (kind, id) = match key {
        Await::Wave(id) => (0, id),
        Await::Group(id) => (1, id),
        Await::Reply(id) => (2, id),
    };
    let payload = Packer::new()
        .u8(kind)
        .u64(id)
        .usize(from)
        .bytes(bytes)
        .finish();
    Message::new(h, &payload)
}

/// Inverse of [`arrival`].
fn decode_arrival(msg: &Message) -> Result<(Await, usize, Vec<u8>), PackError> {
    let mut u = Unpacker::new(msg.payload());
    let kind = u.u8()?;
    let id = u.u64()?;
    let key = match kind {
        0 => Await::Wave(id),
        1 => Await::Group(id),
        2 => Await::Reply(id),
        k => panic!("unknown arrival kind {k}"),
    };
    Ok((key, u.usize()?, u.bytes()?.to_vec()))
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
    fn combiner_fn(&self, id: CombinerId) -> Combiner {
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
        let me = self.my_pe();
        let kids = tree_children(me, self.num_pes()).len();
        self.reduce_along(Await::Wave(seq), tree_parent(me), kids, contribution, op)
    }

    /// Tree-reduce then broadcast the result to every PE; all PEs return
    /// the reduced value.
    pub fn allreduce_bytes(&self, contribution: Vec<u8>, op: CombinerId) -> Vec<u8> {
        let reduced = self.reduce_bytes(contribution, op);
        // One more collective slot for the down wave.
        let seq = self.next_coll_seq();
        match reduced {
            Some(result) => {
                self.initiate_down(seq, &result);
                result
            }
            None => self.await_one(Await::Wave(seq)),
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
                self.initiate_down(seq, &data);
                return data;
            }
            // PE 0 starts the down wave from the spanning tree's root.
            let down = arrival(self.ids.coll_down, Await::Wave(seq), root, &data);
            self.sync_send_and_free(0, down);
        }
        self.await_one(Await::Wave(seq))
    }

    // ---- internals ----------------------------------------------------------

    /// The up-wave of every reduction: wait for the partial results of
    /// this PE's `kids` children under `key`, fold them into
    /// `contribution` in tree order (own value, then children ascending
    /// by PE id), and pass the result to `parent` — or, at the root,
    /// return it.
    pub(crate) fn reduce_along(
        &self,
        key: Await,
        parent: Option<usize>,
        kids: usize,
        contribution: Vec<u8>,
        op: CombinerId,
    ) -> Option<Vec<u8>> {
        let f = self.combiner_fn(op);
        let acc = self
            .await_arrivals(key, kids)
            .into_iter()
            .fold(contribution, |acc, (_, bytes)| f(&acc, &bytes));
        match parent {
            None => Some(acc),
            Some(p) => {
                self.send_arrival(p, key, &acc);
                None
            }
        }
    }

    fn initiate_down(&self, seq: u64, data: &[u8]) {
        // One down-wave message; every child gets a share of its block.
        let msg = arrival(self.ids.coll_down, Await::Wave(seq), self.my_pe(), data);
        for c in tree_children(self.my_pe(), self.num_pes()) {
            self.sync_send(c, &msg);
        }
    }

    /// Send `bytes` to PE `to`'s arrival table under `key`.
    pub(crate) fn send_arrival(&self, to: usize, key: Await, bytes: &[u8]) {
        self.sync_send_and_free(to, arrival(self.ids.arrive, key, self.my_pe(), bytes));
    }

    /// Record `bytes` from PE `from` under `key` in this PE's table.
    pub(crate) fn deposit(&self, key: Await, from: usize, bytes: Vec<u8>) {
        self.open(&self.arrivals, |a| a.push((key, from, bytes)));
    }

    /// How many arrivals `key` has on this PE.
    pub(crate) fn arrived(&self, key: Await) -> usize {
        self.open(&self.arrivals, |a| a.iter().filter(|e| e.0 == key).count())
    }

    /// Block — dispatching only machine-internal messages — until `count`
    /// arrivals under `key` are in, then take them, ordered by sender.
    fn await_arrivals(&self, key: Await, count: usize) -> Vec<(usize, Vec<u8>)> {
        self.retrieval_wait(None, || self.arrived(key) >= count);
        let mut got: Vec<_> = self.open(&self.arrivals, |a| {
            a.extract_if(.., |e| e.0 == key)
                .map(|(_, from, bytes)| (from, bytes))
                .collect()
        });
        got.sort_by_key(|(pe, _)| *pe);
        got
    }

    /// Block until the one arrival under `key` is in and take its bytes.
    pub(crate) fn await_one(&self, key: Await) -> Vec<u8> {
        let (_, bytes) = self
            .await_arrivals(key, 1)
            .pop()
            .expect("the wait returns once an arrival is in");
        bytes
    }
}

/// The arrival handler: deposit the message's bytes under its key.
pub(crate) fn handle_arrive(pe: &Pe, msg: Message) {
    let (key, from, bytes) = decode_arrival(&msg).expect("arrival decodes");
    pe.deposit(key, from, bytes);
}

/// The down-wave handler: forward, then deposit like [`handle_arrive`].
pub(crate) fn handle_down(pe: &Pe, msg: Message) {
    let (key, from, bytes) = decode_arrival(&msg).expect("down wave decodes");
    // Forward the *same* message down the tree: the children receive
    // shares of the block this PE was handed — the down wave repacks and
    // copies nothing at any hop.
    for c in tree_children(pe.my_pe(), pe.num_pes()) {
        pe.sync_send(c, &msg);
    }
    pe.deposit(key, from, bytes);
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
