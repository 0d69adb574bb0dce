//! The Cmm **message manager** (paper §3.2.1, appendix §4).
//!
//! "A message manager is simply a container for storing messages. It
//! stores a subset of messages that are yet to be processed, serving as
//! an indexed mailbox. … Messages may be retrieved based on one or more
//! 'identification marks' on the message. A tag and a source processor
//! number are examples … Instances of message managers provided in
//! Converse can be customized to either one or two tags … Retrieval or
//! probes are allowed to 'wildcard' the tag field."
//!
//! [`MsgManager<T>`] is that container, generic over what it holds:
//! `CmmPut` stores the caller's *pointer*, so a runtime keeps the
//! arriving message itself (`MsgManager<Message>`) and nothing is copied
//! on the way in or out.
//!
//! # Index
//!
//! Entries are indexed by their **first** tag, one FIFO per tag: a
//! retrieval that names its first tag — `(tag, src)` as much as
//! `(tag, WILDCARD)`, the pattern every tagged-receive library has — is
//! one multiplicative-hash lookup plus a walk of that tag's queue. A
//! retrieval that wildcards the first tag walks every queue and takes
//! the match with the smallest insertion stamp. Either way the result is
//! the **earliest inserted** match, so a tag used by several senders
//! behaves like a FIFO channel. An emptied queue leaves the index and is
//! kept for the next new tag: a program that uses a fresh tag per task
//! holds as many queues as it ever had tags live at once.
//!
//! # Receivers in the mailbox
//!
//! A message and the receiver waiting for it meet in the same place, so
//! a layer with blocking receives keeps both here (tSM does; paper
//! §3.2.2). [`MsgManager::post`] stores an item under a *pattern*, and a
//! wildcard matches from either side: a posted `(7, WILDCARD)` is found
//! by a lookup of `(7, 3)`. The `_where` forms take a predicate over the
//! stored item, which is how such a layer tells a receiver from a
//! message. [`MsgManager::put`] still refuses the wildcard — a message
//! has marks, not a pattern.

use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The wildcard tag value (`CmmWildcard`): matches any tag in that
/// position.
pub const WILDCARD: i32 = i32::MIN;

/// The one or two identification marks of a stored message or of a
/// retrieval pattern, held inline; reads as a `[i32]` slice.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tags {
    len: u8,
    /// The unused second mark of a one-tag tuple stays zero, so the
    /// derived comparisons see only the marks.
    marks: [i32; 2],
}

impl Tags {
    fn new(tags: &[i32]) -> Tags {
        assert!(
            tags.len() == 1 || tags.len() == 2,
            "Cmm supports one or two tags, got {}",
            tags.len()
        );
        let mut marks = [0; 2];
        marks[..tags.len()].copy_from_slice(tags);
        Tags {
            len: tags.len() as u8,
            marks,
        }
    }
}

impl std::ops::Deref for Tags {
    type Target = [i32];
    fn deref(&self) -> &[i32] {
        &self.marks[..self.len as usize]
    }
}

impl std::fmt::Debug for Tags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq<Vec<i32>> for Tags {
    fn eq(&self, other: &Vec<i32>) -> bool {
        **self == other[..]
    }
}

/// One stored entry: its tags (1 or 2 of them) and the item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stored<T> {
    /// The identification marks (length 1 or 2); a pattern for an entry
    /// that was [`post`](MsgManager::post)ed.
    pub tags: Tags,
    /// What was stored.
    pub item: T,
}

/// Same arity, and every position equal or wildcarded on either side.
fn matches(a: &[i32], b: &[i32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(a, b)| a == b || *a == WILDCARD || *b == WILDCARD)
}

/// Multiplicative hasher for a first tag: tags are small integers a
/// program chose (task serials, message types), and a table of them is
/// read on every receive.
#[derive(Debug, Default)]
struct TagHasher(u64);

impl Hasher for TagHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("tags hash via write_i32")
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.0 = (v as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[derive(Debug)]
struct Entry<T> {
    /// Global insertion order: what "earliest" means across queues.
    stamp: u64,
    stored: Stored<T>,
}

impl<T> Entry<T> {
    /// Matches `pattern` and satisfies `want`.
    fn is(&self, pattern: &[i32], want: &mut impl FnMut(&T) -> bool) -> bool {
        matches(&self.stored.tags, pattern) && want(&self.stored.item)
    }
}

type Queue<T> = VecDeque<Entry<T>>;

/// The message manager (`CmmNew`): see the [crate docs](self).
///
/// ```
/// use converse_msgmgr::{MsgManager, WILDCARD};
///
/// let mut mm = MsgManager::new();
/// mm.put(&[17, 3], b"from pe 3".to_vec());
/// assert_eq!(mm.probe(&[17, WILDCARD]).unwrap().item.len(), 9);
/// let got = mm.get(&[WILDCARD, 3]).unwrap();
/// assert_eq!(got.tags, vec![17, 3]);
/// assert_eq!(got.item, b"from pe 3");
/// assert!(mm.is_empty());
/// ```
#[derive(Debug)]
pub struct MsgManager<T> {
    /// First tag → that tag's entries, oldest first; never an empty
    /// queue. Patterns posted with a wildcard first tag queue under
    /// [`WILDCARD`] itself.
    queues: HashMap<i32, Queue<T>, BuildHasherDefault<TagHasher>>,
    /// Emptied queues, kept (with their capacity) for the next new tag.
    spare: Vec<Queue<T>>,
    len: usize,
    /// Entries queued under [`WILDCARD`]: while there are none, a lookup
    /// that names its first tag has one queue to look at.
    any_first: usize,
    next_stamp: u64,
}

impl<T> Default for MsgManager<T> {
    fn default() -> Self {
        MsgManager {
            queues: HashMap::default(),
            spare: Vec::new(),
            len: 0,
            any_first: 0,
            next_stamp: 0,
        }
    }
}

impl<T> MsgManager<T> {
    /// New empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a message under its tags (`CmmPut` / `CmmPut2`): one or
    /// two, none the wildcard.
    pub fn put(&mut self, tags: &[i32], item: T) {
        assert!(
            !tags.contains(&WILDCARD),
            "stored tags cannot be the wildcard value"
        );
        self.post(tags, item);
    }

    /// Store `item` under a *pattern* — a receiver waiting for whatever
    /// the pattern matches. Lookups find it from the other side: by any
    /// tags the pattern matches.
    pub fn post(&mut self, pattern: &[i32], item: T) {
        let tags = Tags::new(pattern);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.len += 1;
        self.any_first += (tags[0] == WILDCARD) as usize;
        let entry = Entry {
            stamp,
            stored: Stored { tags, item },
        };
        match self.queues.entry(tags[0]) {
            Slot::Occupied(q) => q.into_mut().push_back(entry),
            Slot::Vacant(v) => v
                .insert(self.spare.pop().unwrap_or_default())
                .push_back(entry),
        }
    }

    /// The first tag whose queue holds the earliest entry that matches
    /// `pattern` and satisfies `want`. Only walks queues when it has to:
    /// a concrete first tag, with no wildcard-first pattern posted,
    /// names its queue itself.
    fn queue_of(&self, pattern: &[i32], want: &mut impl FnMut(&T) -> bool) -> Option<i32> {
        let first = *pattern.first()?;
        if first != WILDCARD && self.any_first == 0 {
            return Some(first);
        }
        let mut earliest = |key: i32, q: &Queue<T>| {
            q.iter()
                .find(|e| e.is(pattern, want))
                .map(|e| (e.stamp, key))
        };
        let found = if first == WILDCARD {
            self.queues
                .iter()
                .filter_map(|(k, q)| earliest(*k, q))
                .min()
        } else {
            [first, WILDCARD]
                .into_iter()
                .filter_map(|k| earliest(k, self.queues.get(&k)?))
                .min()
        };
        found.map(|(_, key)| key)
    }

    /// The earliest entry that matches `pattern` and satisfies `want`,
    /// left in place.
    pub fn probe_where(
        &self,
        pattern: &[i32],
        mut want: impl FnMut(&T) -> bool,
    ) -> Option<&Stored<T>> {
        let key = self.queue_of(pattern, &mut want)?;
        let q = self.queues.get(&key)?;
        q.iter()
            .find(|e| e.is(pattern, &mut want))
            .map(|e| &e.stored)
    }

    /// [`MsgManager::probe_where`], the entry borrowed mutably: a layer
    /// that keeps receivers here hands a message to one in place.
    pub fn probe_mut_where(
        &mut self,
        pattern: &[i32],
        mut want: impl FnMut(&T) -> bool,
    ) -> Option<&mut Stored<T>> {
        let key = self.queue_of(pattern, &mut want)?;
        let q = self.queues.get_mut(&key)?;
        q.iter_mut()
            .find(|e| e.is(pattern, &mut want))
            .map(|e| &mut e.stored)
    }

    /// Remove and return the earliest entry that matches `pattern` and
    /// satisfies `want`.
    pub fn get_where(
        &mut self,
        pattern: &[i32],
        mut want: impl FnMut(&T) -> bool,
    ) -> Option<Stored<T>> {
        let key = self.queue_of(pattern, &mut want)?;
        let Slot::Occupied(mut slot) = self.queues.entry(key) else {
            return None;
        };
        let q = slot.get_mut();
        let at = q.iter().position(|e| e.is(pattern, &mut want))?;
        let entry = q.remove(at).expect("position is in range");
        if q.is_empty() {
            self.spare.push(slot.remove());
        }
        self.len -= 1;
        self.any_first -= (key == WILDCARD) as usize;
        Some(entry.stored)
    }

    /// The earliest matching entry, without removing it (`CmmProbe`).
    /// `None` if nothing matches.
    pub fn probe(&self, pattern: &[i32]) -> Option<&Stored<T>> {
        self.probe_where(pattern, |_| true)
    }

    /// Remove and return the earliest matching entry (`CmmGetPtr`).
    pub fn get(&mut self, pattern: &[i32]) -> Option<Stored<T>> {
        self.get_where(pattern, |_| true)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct first tags that have an entry stored.
    pub fn tags_in_use(&self) -> usize {
        self.queues.len()
    }
}

impl<T: AsRef<[u8]>> MsgManager<T> {
    /// Copy at most `buf.len()` bytes of the earliest matching message
    /// into `buf` (`CmmGet`), removing it. Returns the message's full
    /// length and its tags.
    pub fn get_into(&mut self, pattern: &[i32], buf: &mut [u8]) -> Option<(usize, Tags)> {
        let s = self.get(pattern)?;
        let data = s.item.as_ref();
        let n = data.len().min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        Some((data.len(), s.tags))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MsgManager<Vec<u8>> {
        MsgManager::new()
    }

    #[test]
    fn put_get_single_tag() {
        let mut mm = mm();
        mm.put(&[7], b"seven".to_vec());
        assert_eq!(mm.len(), 1);
        let s = mm.get(&[7]).unwrap();
        assert_eq!(s.tags, vec![7]);
        assert_eq!(s.item, b"seven");
        assert!(mm.is_empty());
        assert!(mm.get(&[7]).is_none());
    }

    #[test]
    fn two_tags_must_match_both() {
        let mut mm = mm();
        mm.put(&[1, 2], b"a".to_vec());
        assert!(mm.get(&[1, 3]).is_none());
        assert!(mm.get(&[2, 2]).is_none());
        assert!(mm.get(&[1, 2]).is_some());
    }

    #[test]
    fn wildcard_matches_any_tag() {
        let mut mm = mm();
        mm.put(&[5, 10], b"x".to_vec());
        let s = mm.probe(&[WILDCARD, 10]).unwrap();
        assert_eq!((s.item.len(), &s.tags[..]), (1, &[5, 10][..]));
        let s = mm.get(&[5, WILDCARD]).unwrap();
        assert_eq!(s.tags, vec![5, 10]);
    }

    #[test]
    fn full_wildcard_returns_earliest() {
        let mut mm = mm();
        mm.put(&[1], b"first".to_vec());
        mm.put(&[2], b"second".to_vec());
        assert_eq!(mm.get(&[WILDCARD]).unwrap().item, b"first");
        assert_eq!(mm.get(&[WILDCARD]).unwrap().item, b"second");
    }

    #[test]
    fn fifo_within_same_tag() {
        let mut mm = mm();
        for i in 0..5u8 {
            mm.put(&[9], vec![i]);
        }
        for i in 0..5u8 {
            assert_eq!(mm.get(&[9]).unwrap().item, vec![i]);
        }
    }

    #[test]
    fn a_tag_shared_by_several_sources_is_fifo_under_a_source_wildcard() {
        let mut mm = mm();
        for (i, src) in [3, 1, 2, 1].into_iter().enumerate() {
            mm.put(&[9, src], vec![i as u8]);
        }
        assert_eq!(mm.get(&[9, 1]).unwrap().item, vec![1]);
        let order: Vec<u8> = std::iter::from_fn(|| mm.get(&[9, WILDCARD]))
            .map(|s| s.item[0])
            .collect();
        assert_eq!(order, vec![0, 2, 3]);
    }

    #[test]
    fn probe_does_not_remove() {
        let mut mm = mm();
        mm.put(&[3], b"abc".to_vec());
        assert_eq!(mm.probe(&[3]).unwrap().item.len(), 3);
        assert_eq!(mm.probe(&[3]).unwrap().item.len(), 3);
        assert_eq!(mm.len(), 1);
    }

    #[test]
    fn probe_returns_none_on_miss() {
        assert!(mm().probe(&[1]).is_none());
        assert!(mm().probe(&[]).is_none());
        assert!(mm().probe(&[1, 2, 3]).is_none());
    }

    #[test]
    fn get_into_truncates_and_reports_full_len() {
        let mut mm = mm();
        mm.put(&[4], b"0123456789".to_vec());
        mm.put(&[1], b"hello".to_vec());
        let mut buf = [0u8; 4];
        let (full, tags) = mm.get_into(&[4], &mut buf).unwrap();
        assert_eq!((full, tags), (10, Tags::new(&[4])));
        assert_eq!(&buf, b"0123");
        let mut buf = [0u8; 16];
        let (full, tags) = mm.get_into(&[WILDCARD], &mut buf).unwrap();
        assert_eq!((full, tags), (5, Tags::new(&[1])));
        assert_eq!(&buf[..5], b"hello");
        assert!(mm.is_empty());
    }

    #[test]
    fn tag_arity_must_match_pattern() {
        let mut mm = mm();
        mm.put(&[1], b"one-tag".to_vec());
        mm.put(&[1, 2], b"two-tag".to_vec());
        assert_eq!(mm.get(&[1, 2]).unwrap().item, b"two-tag");
        assert_eq!(mm.get(&[1]).unwrap().item, b"one-tag");
    }

    #[test]
    #[should_panic(expected = "one or two tags")]
    fn put_rejects_zero_tags() {
        mm().put(&[], b"".to_vec());
    }

    #[test]
    #[should_panic(expected = "wildcard")]
    fn put_rejects_wildcard_tag() {
        mm().put(&[WILDCARD], b"".to_vec());
    }

    #[test]
    fn interleaved_wildcard_and_exact_gets() {
        let mut mm = mm();
        mm.put(&[1], vec![1]);
        mm.put(&[2], vec![2]);
        mm.put(&[1], vec![11]);
        assert_eq!(mm.get(&[2]).unwrap().item, vec![2]);
        assert_eq!(mm.get(&[WILDCARD]).unwrap().item, vec![1]);
        assert_eq!(mm.get(&[1]).unwrap().item, vec![11]);
        assert!(mm.is_empty());
        assert_eq!(mm.tags_in_use(), 0);
    }

    #[test]
    fn it_stores_the_pointer_not_a_copy() {
        let mut mm = MsgManager::new();
        let msg: std::rc::Rc<[u8]> = std::rc::Rc::from(&b"held"[..]);
        mm.put(&[1], msg.clone());
        assert!(std::rc::Rc::ptr_eq(&mm.get(&[1]).unwrap().item, &msg));
    }

    /// A posted pattern is found by the tags it matches, in insertion
    /// order with everything else, and a predicate picks among kinds.
    #[test]
    fn posted_patterns_match_from_the_other_side() {
        let mut mm = MsgManager::new();
        mm.post(&[7, WILDCARD], "waits for 7 from anyone");
        mm.post(&[WILDCARD, 3], "waits for anything from 3");
        mm.put(&[7, 3], "a message");
        assert_eq!(mm.probe(&[7, 3]).unwrap().item, "waits for 7 from anyone");
        assert_eq!(mm.probe(&[8, 3]).unwrap().item, "waits for anything from 3");
        assert!(mm.probe(&[8, 4]).is_none());
        let is_message = |s: &&str| s.starts_with("a ");
        assert_eq!(
            mm.get_where(&[7, WILDCARD], is_message).unwrap().item,
            "a message"
        );
        mm.probe_mut_where(&[7, 5], |_| true).unwrap().item = "served";
        assert_eq!(mm.get(&[7, 5]).unwrap().item, "served");
        assert_eq!(mm.get(&[1, 3]).unwrap().tags, vec![WILDCARD, 3]);
        assert!(mm.is_empty());
    }
}
