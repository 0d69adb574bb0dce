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
//! Two implementations share one behaviour:
//! * [`MsgManager`] — the straightforward list with linear matching,
//!   matching the 1996 code's simplicity; fine for the handful of
//!   outstanding messages an SPM module typically has.
//! * [`IndexedMsgManager`] — hash-indexed by exact tag tuple for O(1)
//!   exact retrieval, falling back to an in-order scan for wildcard
//!   patterns. The `msgmgr_retrieval` bench quantifies the difference
//!   (an ablation of the "need-based cost" principle: pay for indexing
//!   only if your retrieval pattern needs it).
//!
//! Matching always returns the **earliest inserted** matching message,
//! so a tag used by several senders behaves like a FIFO channel.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// The wildcard tag value (`CmmWildcard`): matches any stored tag in
/// that position.
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

/// One stored message: its tags (1 or 2 of them) and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stored {
    /// The identification marks (length 1 or 2).
    pub tags: Tags,
    /// The message bytes.
    pub data: Vec<u8>,
}

/// The tags a message is stored under: one or two, none the wildcard.
fn stored_tags(tags: &[i32]) -> Tags {
    let tags = Tags::new(tags);
    assert!(
        !tags.contains(&WILDCARD),
        "stored tags cannot be the wildcard value"
    );
    tags
}

fn matches(stored: &[i32], pattern: &[i32]) -> bool {
    stored.len() == pattern.len()
        && stored
            .iter()
            .zip(pattern)
            .all(|(s, p)| *p == WILDCARD || s == p)
}

/// Common interface of the two message-manager implementations.
pub trait TagMailbox {
    /// Store a message under its tags (`CmmPut` / `CmmPut2`).
    fn put(&mut self, tags: &[i32], data: Vec<u8>);

    /// Size and actual tags of the earliest matching message, without
    /// removing it (`CmmProbe`). `None` if nothing matches.
    fn probe(&self, pattern: &[i32]) -> Option<(usize, Tags)>;

    /// Remove and return the earliest matching message (`CmmGetPtr`).
    fn get(&mut self, pattern: &[i32]) -> Option<Stored>;

    /// Number of stored messages.
    fn len(&self) -> usize;

    /// True when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy at most `buf.len()` bytes of the earliest matching message
    /// into `buf` (`CmmGet`), removing it. Returns the message's full
    /// length and its tags.
    fn get_into(&mut self, pattern: &[i32], buf: &mut [u8]) -> Option<(usize, Tags)>
    where
        Self: Sized,
    {
        let s = self.get(pattern)?;
        let n = s.data.len().min(buf.len());
        buf[..n].copy_from_slice(&s.data[..n]);
        Some((s.data.len(), s.tags))
    }
}

/// Linear-scan message manager (`CmmNew`).
///
/// ```
/// use converse_msgmgr::{MsgManager, TagMailbox, WILDCARD};
///
/// let mut mm = MsgManager::new();
/// mm.put(&[17, 3], b"from pe 3".to_vec());
/// assert_eq!(mm.probe(&[17, WILDCARD]).unwrap().0, 9);
/// let got = mm.get(&[WILDCARD, 3]).unwrap();
/// assert_eq!(got.tags, vec![17, 3]);
/// assert_eq!(got.data, b"from pe 3");
/// assert!(mm.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct MsgManager {
    entries: VecDeque<Stored>,
}

impl MsgManager {
    /// New empty manager.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TagMailbox for MsgManager {
    fn put(&mut self, tags: &[i32], data: Vec<u8>) {
        let tags = stored_tags(tags);
        self.entries.push_back(Stored { tags, data });
    }

    fn probe(&self, pattern: &[i32]) -> Option<(usize, Tags)> {
        self.entries
            .iter()
            .find(|e| matches(&e.tags, pattern))
            .map(|e| (e.data.len(), e.tags))
    }

    fn get(&mut self, pattern: &[i32]) -> Option<Stored> {
        let idx = self
            .entries
            .iter()
            .position(|e| matches(&e.tags, pattern))?;
        self.entries.remove(idx)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Hash-indexed message manager: O(1) exact-tag retrieval, ordered scan
/// for wildcards.
#[derive(Debug, Default)]
pub struct IndexedMsgManager {
    /// seq → entry, ordered by insertion.
    store: BTreeMap<u64, Stored>,
    /// exact tag tuple → queue of seqs (may contain stale entries).
    index: HashMap<Tags, VecDeque<u64>>,
    next_seq: u64,
}

impl IndexedMsgManager {
    /// New empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    fn find_seq(&self, pattern: &[i32]) -> Option<u64> {
        if pattern.contains(&WILDCARD) {
            self.store
                .iter()
                .find(|(_, e)| matches(&e.tags, pattern))
                .map(|(seq, _)| *seq)
        } else if !(1..=2).contains(&pattern.len()) {
            None // no message is stored under such a tuple
        } else {
            let q = self.index.get(&Tags::new(pattern))?;
            q.iter().find(|seq| self.store.contains_key(seq)).copied()
        }
    }
}

impl TagMailbox for IndexedMsgManager {
    fn put(&mut self, tags: &[i32], data: Vec<u8>) {
        let tags = stored_tags(tags);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.index.entry(tags).or_default().push_back(seq);
        self.store.insert(seq, Stored { tags, data });
    }

    fn probe(&self, pattern: &[i32]) -> Option<(usize, Tags)> {
        let seq = self.find_seq(pattern)?;
        let e = &self.store[&seq];
        Some((e.data.len(), e.tags))
    }

    fn get(&mut self, pattern: &[i32]) -> Option<Stored> {
        let seq = self.find_seq(pattern)?;
        let e = self.store.remove(&seq).expect("found seq is present");
        if let Some(q) = self.index.get_mut(&e.tags) {
            if let Some(pos) = q.iter().position(|s| *s == seq) {
                q.remove(pos);
            }
            if q.is_empty() {
                self.index.remove(&e.tags);
            }
        }
        Some(e)
    }

    fn len(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> Vec<Box<dyn TagMailbox>> {
        vec![
            Box::new(MsgManager::new()),
            Box::new(IndexedMsgManager::new()),
        ]
    }

    #[test]
    fn put_get_single_tag() {
        for mut mm in both() {
            mm.put(&[7], b"seven".to_vec());
            assert_eq!(mm.len(), 1);
            let s = mm.get(&[7]).unwrap();
            assert_eq!(s.tags, vec![7]);
            assert_eq!(s.data, b"seven");
            assert!(mm.is_empty());
            assert!(mm.get(&[7]).is_none());
        }
    }

    #[test]
    fn two_tags_must_match_both() {
        for mut mm in both() {
            mm.put(&[1, 2], b"a".to_vec());
            assert!(mm.get(&[1, 3]).is_none());
            assert!(mm.get(&[2, 2]).is_none());
            assert!(mm.get(&[1, 2]).is_some());
        }
    }

    #[test]
    fn wildcard_matches_any_tag() {
        for mut mm in both() {
            mm.put(&[5, 10], b"x".to_vec());
            let (len, tags) = mm.probe(&[WILDCARD, 10]).unwrap();
            assert_eq!((len, &tags[..]), (1, &[5, 10][..]));
            let s = mm.get(&[5, WILDCARD]).unwrap();
            assert_eq!(s.tags, vec![5, 10]);
        }
    }

    #[test]
    fn full_wildcard_returns_earliest() {
        for mut mm in both() {
            mm.put(&[1], b"first".to_vec());
            mm.put(&[2], b"second".to_vec());
            let s = mm.get(&[WILDCARD]).unwrap();
            assert_eq!(s.data, b"first");
            let s = mm.get(&[WILDCARD]).unwrap();
            assert_eq!(s.data, b"second");
        }
    }

    #[test]
    fn fifo_within_same_tag() {
        for mut mm in both() {
            for i in 0..5u8 {
                mm.put(&[9], vec![i]);
            }
            for i in 0..5u8 {
                assert_eq!(mm.get(&[9]).unwrap().data, vec![i]);
            }
        }
    }

    #[test]
    fn probe_does_not_remove() {
        for mut mm in both() {
            mm.put(&[3], b"abc".to_vec());
            assert_eq!(mm.probe(&[3]).unwrap().0, 3);
            assert_eq!(mm.probe(&[3]).unwrap().0, 3);
            assert_eq!(mm.len(), 1);
        }
    }

    #[test]
    fn probe_returns_none_on_miss() {
        for mm in both() {
            assert!(mm.probe(&[1]).is_none());
        }
    }

    #[test]
    fn get_into_truncates_and_reports_full_len() {
        for mut mm in both() {
            mm.put(&[4], b"0123456789".to_vec());
            let mut buf = [0u8; 4];
            // Call through the concrete types to exercise the default impl.
            let (full, tags) = match mm.get(&[4]) {
                Some(s) => {
                    let n = s.data.len().min(buf.len());
                    buf[..n].copy_from_slice(&s.data[..n]);
                    (s.data.len(), s.tags)
                }
                None => unreachable!(),
            };
            assert_eq!(full, 10);
            assert_eq!(tags, vec![4]);
            assert_eq!(&buf, b"0123");
        }
    }

    #[test]
    fn get_into_on_concrete_type() {
        let mut mm = MsgManager::new();
        mm.put(&[1], b"hello".to_vec());
        let mut buf = [0u8; 16];
        let (full, tags) = mm.get_into(&[WILDCARD], &mut buf).unwrap();
        assert_eq!(full, 5);
        assert_eq!(tags, vec![1]);
        assert_eq!(&buf[..5], b"hello");
        assert!(mm.is_empty());
    }

    #[test]
    fn tag_arity_must_match_pattern() {
        for mut mm in both() {
            mm.put(&[1], b"one-tag".to_vec());
            mm.put(&[1, 2], b"two-tag".to_vec());
            assert_eq!(mm.get(&[1, 2]).unwrap().data, b"two-tag");
            assert_eq!(mm.get(&[1]).unwrap().data, b"one-tag");
        }
    }

    #[test]
    #[should_panic(expected = "one or two tags")]
    fn put_rejects_zero_tags() {
        MsgManager::new().put(&[], b"".to_vec());
    }

    #[test]
    #[should_panic(expected = "wildcard")]
    fn put_rejects_wildcard_tag() {
        IndexedMsgManager::new().put(&[WILDCARD], b"".to_vec());
    }

    #[test]
    fn interleaved_wildcard_and_exact_gets() {
        for mut mm in both() {
            mm.put(&[1], vec![1]);
            mm.put(&[2], vec![2]);
            mm.put(&[1], vec![11]);
            assert_eq!(mm.get(&[2]).unwrap().data, vec![2]);
            assert_eq!(mm.get(&[WILDCARD]).unwrap().data, vec![1]);
            assert_eq!(mm.get(&[1]).unwrap().data, vec![11]);
            assert!(mm.is_empty());
        }
    }
}
