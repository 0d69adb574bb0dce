//! EMI processor groups (paper §3.1.3, appendix §3.8).
//!
//! "Often entities in a subgroup of processors need to engage in group
//! communication. The machine layer … is best able to optimize such
//! group operations." A [`Pgrp`] is an explicit spanning tree over a
//! subset of PEs, built by its root with [`Pgrp::add_children`]
//! (`CmiAddChildren`) and queried with the root/parent/children calls.
//! [`Pe::async_multicast`] (`CmiAsyncMulticast`) delivers a message to
//! every member except the caller by forwarding along the tree — each
//! hop sends only to its own children, so no PE sends more than its
//! fan-out. [`Pe::pgrp_reduce`] runs the machine-wide reduction's
//! up-wave ([`crate::coll`]) over the group's tree, its partial results
//! waiting in the PE's arrival table under the members' tag.
//!
//! A group travels inside every multicast, so [`Pgrp::decode`] reads
//! bytes from another process: it reserves no more than the bytes can
//! hold and rejects anything that is not a tree rooted at its root.

use crate::coll::{Await, CombinerId};
use crate::mmi::CommHandle;
use crate::pe::Pe;
use converse_msg::pack::{PackError, Packer, Unpacker};
use converse_msg::Message;
use std::collections::{HashMap, HashSet};

/// A processor group: a spanning tree over member PEs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pgrp {
    root: usize,
    /// member → parent (root maps to itself).
    parent: HashMap<usize, usize>,
    /// member → children, in insertion order.
    children: HashMap<usize, Vec<usize>>,
}

impl Pgrp {
    /// Create a group rooted at `root` (`CmiPgrpCreate` — the caller
    /// passes its own PE id as the root).
    pub fn create(root: usize) -> Pgrp {
        let mut parent = HashMap::new();
        parent.insert(root, root);
        let mut children = HashMap::new();
        children.insert(root, Vec::new());
        Pgrp {
            root,
            parent,
            children,
        }
    }

    /// Attach `procs` as children of member `penum` (`CmiAddChildren`).
    /// Panics if `penum` is not a member or a proc already belongs to the
    /// group — group trees are built once, top-down, by the root.
    pub fn add_children(&mut self, penum: usize, procs: &[usize]) {
        assert!(self.is_member(penum), "PE {penum} is not in the group");
        for &p in procs {
            assert!(!self.is_member(p), "PE {p} is already in the group");
            self.parent.insert(p, penum);
            self.children.insert(p, Vec::new());
            self.children
                .get_mut(&penum)
                .expect("member has a child list")
                .push(p);
        }
    }

    /// The root PE (`CmiPgrpRoot`).
    pub fn root(&self) -> usize {
        self.root
    }

    /// Member test.
    pub fn is_member(&self, pe: usize) -> bool {
        self.parent.contains_key(&pe)
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when only the root belongs.
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Number of children of `penum` (`CmiNumChildren`).
    pub fn num_children(&self, penum: usize) -> usize {
        self.children.get(&penum).map(|v| v.len()).unwrap_or(0)
    }

    /// Parent of `penum` (`CmiParent`); the root's parent is itself.
    pub fn parent(&self, penum: usize) -> Option<usize> {
        self.parent.get(&penum).copied()
    }

    /// Children of `penum` (`CmiChildren`).
    pub fn children(&self, penum: usize) -> &[usize] {
        self.children
            .get(&penum)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// All members, root first, in breadth-first tree order.
    fn members(&self) -> Vec<usize> {
        self.tree_order()
            .expect("a group built with add_children is a tree")
    }

    /// The members in breadth-first order from the root, or `None` when
    /// the parent and child links are not one tree rooted at `root`: a
    /// child whose parent is another member, a member reached twice
    /// (a cycle) or never.
    fn tree_order(&self) -> Option<Vec<usize>> {
        if self.parent.get(&self.root) != Some(&self.root) {
            return None;
        }
        let mut out = vec![self.root];
        let mut seen = HashSet::from([self.root]);
        let mut i = 0;
        while i < out.len() {
            let m = out[i];
            for &k in self.children(m) {
                if self.parent.get(&k) != Some(&m) || !seen.insert(k) {
                    return None;
                }
                out.push(k);
            }
            i += 1;
        }
        (out.len() == self.parent.len()).then_some(out)
    }

    /// Serialize for embedding in forwarding messages.
    pub fn encode(&self) -> Vec<u8> {
        let members = self.members();
        let mut p = Packer::new().usize(self.root).usize(members.len());
        for m in &members {
            p = p.usize(*m).usize(self.parent[m]);
            let kids = self.children(*m);
            p = p.usize(kids.len());
            for k in kids {
                p = p.usize(*k);
            }
        }
        p.finish()
    }

    /// Inverse of [`Pgrp::encode`]. Bytes that run short, list a member
    /// twice or do not describe a tree rooted at the encoded root are an
    /// error.
    pub fn decode(bytes: &[u8]) -> Result<Pgrp, PackError> {
        let mut u = Unpacker::new(bytes);
        let root = u.usize()?;
        let n = u.usize()?;
        // The counts are the sender's word: reserve only what the bytes
        // that arrived can hold (a member is at least three words, a
        // child one).
        let mut parent = HashMap::with_capacity(n.min(u.remaining() / 24));
        let mut children = HashMap::with_capacity(n.min(u.remaining() / 24));
        let malformed = PackError {
            needed: 0,
            remaining: bytes.len(),
        };
        for _ in 0..n {
            let m = u.usize()?;
            let par = u.usize()?;
            let nk = u.usize()?;
            let mut kids = Vec::with_capacity(nk.min(u.remaining() / 8));
            for _ in 0..nk {
                kids.push(u.usize()?);
            }
            if parent.insert(m, par).is_some() {
                return Err(malformed);
            }
            children.insert(m, kids);
        }
        let g = Pgrp {
            root,
            parent,
            children,
        };
        g.tree_order().ok_or(malformed)?;
        Ok(g)
    }
}

impl Pe {
    /// Reduce `contribution` with `op` over the members of `group`,
    /// along the group's own spanning tree (the EMI's "reductions and
    /// other global operations … within a processor group"). Every
    /// member must call it with the same `tag` — the identifier that
    /// keeps concurrent group operations apart; the group's **root**
    /// returns `Some(result)`, other members `None`. Combiners are the
    /// machine-wide registry ([`Pe::register_combiner`]); contributions
    /// fold in tree order (own value, then children ascending by PE id).
    pub fn pgrp_reduce(
        &self,
        group: &Pgrp,
        tag: u64,
        contribution: Vec<u8>,
        op: CombinerId,
    ) -> Option<Vec<u8>> {
        let me = self.my_pe();
        let parent = group
            .parent(me)
            .unwrap_or_else(|| panic!("PE {me}: pgrp_reduce by a non-member"));
        let parent = (me != group.root()).then_some(parent);
        self.reduce_along(
            Await::Group(tag),
            parent,
            group.num_children(me),
            contribution,
            op,
        )
    }

    /// Multicast `msg` to every member of `group` except this PE
    /// (`CmiAsyncMulticast`). The caller need not belong to the group.
    /// Delivery forwards along the group's spanning tree.
    pub fn async_multicast(&self, group: &Pgrp, msg: &Message) -> CommHandle {
        let payload = Packer::new()
            .usize(self.my_pe()) // excluded caller
            .bytes(&group.encode())
            .bytes(msg.as_bytes())
            .finish();
        let fwd = Message::new(self.ids.pgrp_fwd, &payload);
        self.sync_send_and_free(group.root(), fwd);
        self.comm_create(true)
    }
}

pub(crate) fn handle_fwd(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let caller = u.usize().expect("pgrp fwd: caller");
    let group_bytes = u.bytes().expect("pgrp fwd: group");
    let inner_bytes = u.bytes().expect("pgrp fwd: inner");
    let group = Pgrp::decode(group_bytes).expect("pgrp fwd: group decodes");
    // Forward to this node's children in the group tree first, then
    // deliver locally (unless we are the excluded caller).
    for &c in group.children(pe.my_pe()) {
        pe.sync_send(c, &msg);
    }
    if pe.my_pe() != caller {
        let inner = Message::from_bytes(inner_bytes).expect("pgrp fwd: inner decodes");
        pe.call_handler_from(caller, inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pgrp {
        let mut g = Pgrp::create(3);
        g.add_children(3, &[1, 5]);
        g.add_children(1, &[0]);
        g
    }

    #[test]
    fn build_and_query() {
        let g = sample();
        assert_eq!(g.root(), 3);
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_children(3), 2);
        assert_eq!(g.num_children(1), 1);
        assert_eq!(g.num_children(0), 0);
        assert_eq!(g.parent(3), Some(3));
        assert_eq!(g.parent(5), Some(3));
        assert_eq!(g.parent(0), Some(1));
        assert_eq!(g.children(3), &[1, 5]);
        assert!(g.is_member(5));
        assert!(!g.is_member(2));
    }

    #[test]
    fn members_bfs_order() {
        assert_eq!(sample().members(), vec![3, 1, 5, 0]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = sample();
        let back = Pgrp::decode(&g.encode()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    #[should_panic(expected = "is not in the group")]
    fn add_children_rejects_nonmember_parent() {
        let mut g = Pgrp::create(0);
        g.add_children(9, &[1]);
    }

    #[test]
    #[should_panic(expected = "already in the group")]
    fn add_children_rejects_duplicates() {
        let mut g = Pgrp::create(0);
        g.add_children(0, &[1]);
        g.add_children(1, &[1]);
    }

    #[test]
    fn forged_member_count_is_an_error() {
        let bytes = Packer::new().usize(0).usize(1 << 40).finish();
        assert!(Pgrp::decode(&bytes).is_err());
    }

    #[test]
    fn forged_child_count_is_an_error() {
        // Root 0, one member, claiming 2^40 children.
        let bytes = Packer::new()
            .usize(0)
            .usize(1)
            .usize(0)
            .usize(0)
            .usize(1 << 40)
            .finish();
        assert_eq!(bytes.len(), 40);
        assert!(Pgrp::decode(&bytes).is_err());
    }

    #[test]
    fn links_that_are_not_a_tree_are_an_error() {
        let encode = |members: &[(usize, usize, &[usize])]| {
            let mut p = Packer::new().usize(0).usize(members.len());
            for &(m, par, kids) in members {
                p = p.usize(m).usize(par).usize(kids.len());
                for &k in kids {
                    p = p.usize(k);
                }
            }
            p.finish()
        };
        // A cycle 1 → 2 → 1 beside the root: consistent links, unreachable.
        let cycle = encode(&[(0, 0, &[]), (1, 2, &[2]), (2, 1, &[1])]);
        // The root as its own child.
        let self_loop = encode(&[(0, 0, &[0])]);
        // A child whose parent link names another member.
        let disagree = encode(&[(0, 0, &[1]), (1, 2, &[]), (2, 0, &[])]);
        // A member listed twice.
        let twice = encode(&[(0, 0, &[1]), (1, 0, &[]), (1, 0, &[])]);
        // A child listed twice under its parent.
        let repeated = encode(&[(0, 0, &[1, 1]), (1, 0, &[])]);
        // A root whose parent is not itself.
        let rootless = encode(&[(0, 1, &[1]), (1, 0, &[])]);
        for bytes in [cycle, self_loop, disagree, twice, repeated, rootless] {
            assert!(Pgrp::decode(&bytes).is_err());
        }
    }

    proptest::proptest! {
        /// Any byte string decodes to a group or an error without
        /// panicking, and a group it yields round-trips.
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=256)) {
            if let Ok(g) = Pgrp::decode(&bytes) {
                proptest::prop_assert_eq!(Pgrp::decode(&g.encode()), Ok(g));
            }
        }
    }

    #[test]
    fn singleton_group() {
        let g = Pgrp::create(2);
        assert!(g.is_empty());
        assert_eq!(g.members(), vec![2]);
        assert_eq!(Pgrp::decode(&g.encode()).unwrap(), g);
    }
}
