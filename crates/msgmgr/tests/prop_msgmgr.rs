//! Property test: the message manager against a reference model — a
//! list of `(tags, id)` in insertion order, scanned front to back — under
//! arbitrary operation sequences.

use converse_msgmgr::{MsgManager, WILDCARD};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// `put` under concrete tags.
    Put(Vec<i32>),
    /// `post` under a pattern (a waiting receiver).
    Post(Vec<i32>),
    Get(Vec<i32>),
    Probe(Vec<i32>),
    /// `get_where` / `probe_where` with "the id is even".
    GetEven(Vec<i32>),
    ProbeEven(Vec<i32>),
}

/// The oracle: entries in insertion order.
#[derive(Default)]
struct Model(Vec<(Vec<i32>, u32)>);

impl Model {
    fn find(&self, pattern: &[i32], want: impl Fn(u32) -> bool) -> Option<usize> {
        self.0.iter().position(|(tags, id)| {
            tags.len() == pattern.len()
                && tags
                    .iter()
                    .zip(pattern)
                    .all(|(t, p)| t == p || *t == WILDCARD || *p == WILDCARD)
                && want(*id)
        })
    }
}

/// A small tag space to force collisions and wildcard hits, a wide one
/// for many queues at once.
fn arb_tag() -> impl Strategy<Value = i32> {
    prop_oneof![3 => 0i32..4, 2 => 0i32..3000]
}

fn arb_mark() -> impl Strategy<Value = i32> {
    prop_oneof![4 => arb_tag(), 1 => Just(WILDCARD)]
}

fn arb_store_tags() -> impl Strategy<Value = Vec<i32>> {
    prop_oneof![
        proptest::collection::vec(arb_tag(), 1..=1),
        // The second tag is a source: few of them.
        (arb_tag(), 0i32..4).prop_map(|(t, s)| vec![t, s]),
    ]
}

fn arb_pattern() -> impl Strategy<Value = Vec<i32>> {
    prop_oneof![
        proptest::collection::vec(arb_mark(), 1..=1),
        (arb_mark(), prop_oneof![3 => 0i32..4, 1 => Just(WILDCARD)]).prop_map(|(t, s)| vec![t, s]),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_store_tags().prop_map(Op::Put),
        1 => arb_pattern().prop_map(Op::Post),
        3 => arb_pattern().prop_map(Op::Get),
        2 => arb_pattern().prop_map(Op::Probe),
        1 => arb_pattern().prop_map(Op::GetEven),
        1 => arb_pattern().prop_map(Op::ProbeEven),
    ]
}

fn even(id: &u32) -> bool {
    id.is_multiple_of(2)
}

/// Apply `ops` to a manager and the model, comparing every result.
/// `preload` distinct tags are stored first, so that many queues are
/// live throughout.
fn check(preload: i32, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut mm = MsgManager::new();
    let mut model = Model::default();
    let mut next_id = 0u32;
    let mut store = |mm: &mut MsgManager<u32>, model: &mut Model, tags: Vec<i32>, post: bool| {
        if post {
            mm.post(&tags, next_id);
        } else {
            mm.put(&tags, next_id);
        }
        model.0.push((tags, next_id));
        next_id += 1;
    };
    for tag in 0..preload {
        let tags = if tag % 2 == 0 {
            vec![5000 + tag]
        } else {
            vec![5000 + tag, tag % 3]
        };
        store(&mut mm, &mut model, tags, false);
    }
    prop_assert_eq!(mm.tags_in_use(), preload as usize);
    for op in ops {
        match op {
            Op::Put(tags) => store(&mut mm, &mut model, tags, false),
            Op::Post(pattern) => store(&mut mm, &mut model, pattern, true),
            Op::Get(ref p) | Op::GetEven(ref p) => {
                let only_even = matches!(op, Op::GetEven(_));
                let expect = model
                    .find(p, |id| !only_even || even(&id))
                    .map(|at| model.0.remove(at));
                let got = if only_even {
                    mm.get_where(p, even)
                } else {
                    mm.get(p)
                };
                let got = got.map(|s| (s.tags.to_vec(), s.item));
                prop_assert_eq!(got, expect, "get {:?}", p);
            }
            Op::Probe(ref p) | Op::ProbeEven(ref p) => {
                let only_even = matches!(op, Op::ProbeEven(_));
                let expect = model
                    .find(p, |id| !only_even || even(&id))
                    .map(|at| model.0[at].clone());
                let got = if only_even {
                    mm.probe_where(p, even)
                } else {
                    mm.probe(p)
                };
                let got = got.map(|s| (s.tags.to_vec(), s.item));
                prop_assert_eq!(got, expect, "probe {:?}", p);
            }
        }
        prop_assert_eq!(mm.len(), model.0.len());
    }
    // Drain by full wildcards: insertion order, and an emptied tag
    // leaves no index entry behind.
    for arity in [1, 2] {
        let all = vec![WILDCARD; arity];
        while let Some(at) = model.find(&all, |_| true) {
            let expect = model.0.remove(at);
            let got = mm.get(&all).map(|s| (s.tags.to_vec(), s.item));
            prop_assert_eq!(got, Some(expect));
        }
        prop_assert!(mm.get(&all).is_none());
    }
    prop_assert!(mm.is_empty() && model.0.is_empty());
    prop_assert_eq!(mm.tags_in_use(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_reference_model(ops in proptest::collection::vec(arb_op(), 0..200)) {
        check(0, ops)?;
    }

    /// Per-tag FIFO: getting a fixed tag always yields the items in
    /// insertion order, regardless of interleaved other-tag traffic and
    /// of which source sent them.
    #[test]
    fn per_tag_fifo(seq in proptest::collection::vec((0i32..3, 0i32..3, any::<u8>()), 0..60)) {
        let mut mm = MsgManager::new();
        for (tag, src, v) in &seq {
            mm.put(&[*tag, *src], *v);
        }
        for tag in 0..3 {
            let expect: Vec<u8> =
                seq.iter().filter(|(t, ..)| *t == tag).map(|(.., v)| *v).collect();
            let got: Vec<u8> =
                std::iter::from_fn(|| mm.get(&[tag, WILDCARD])).map(|s| s.item).collect();
            prop_assert_eq!(got, expect, "tag {}", tag);
        }
        prop_assert!(mm.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same with 1 500 distinct tags live throughout.
    #[test]
    fn matches_the_reference_model_with_many_tags_live(
        ops in proptest::collection::vec(arb_op(), 0..400)
    ) {
        check(1500, ops)?;
    }
}
