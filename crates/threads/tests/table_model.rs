//! Property test: the slot table against a reference model — a
//! `HashMap` of the live ids, the list of every id ever retired and a
//! release count per slot — under arbitrary sequences of what the
//! thread runtime does with it: create, start, park, wake, exit (then
//! re-use of the slot) and lookups through stale ids. Tables start at
//! generation 0, just below the wrap, and anywhere.

use converse_threads::table::{index_of, SlotTable};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Vacant,
    NotStarted,
    Running,
    Parked,
}

/// What a slot holds: the occupant's state, and a stamp that outlives
/// the occupant (the id it was last claimed under) — how the test sees
/// that a claim re-uses the value in place.
#[derive(Debug, PartialEq, Eq)]
struct Tcb {
    state: St,
    claimed_as: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Create,
    /// `NotStarted`/`Parked` → `Running`, `Running` → `Parked`, on the
    /// n-th live thread.
    Switch(usize),
    Exit(usize),
    /// Look the n-th retired id up, and try to release it again.
    Stale(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Create),
        4 => any::<usize>().prop_map(Op::Switch),
        3 => any::<usize>().prop_map(Op::Exit),
        3 => any::<usize>().prop_map(Op::Stale),
    ]
}

#[derive(Default)]
struct Model {
    live: HashMap<u64, St>,
    /// Creation order of `live`'s keys, to pick the n-th from.
    order: Vec<u64>,
    retired: Vec<u64>,
    /// Releases so far, by slot index.
    releases: Vec<u32>,
    /// Vacant slot indices, last released last.
    vacant: Vec<u32>,
}

fn check(first_generation: u32, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut table: SlotTable<Tcb> = SlotTable::new(first_generation);
    let mut m = Model::default();
    for op in ops {
        match op {
            Op::Create => {
                let (id, tcb) = table.claim(|| Tcb {
                    state: St::Vacant,
                    claimed_as: None,
                });
                let index = index_of(id);
                // The slot released last, else a new one at the end.
                let expect = m.vacant.pop().unwrap_or(m.releases.len() as u32);
                prop_assert_eq!(index, expect);
                if index as usize == m.releases.len() {
                    m.releases.push(0);
                    prop_assert_eq!(tcb.claimed_as, None, "a new slot holds a fresh value");
                } else {
                    let last = m.retired.iter().rev().find(|r| index_of(**r) == index);
                    prop_assert_eq!(tcb.claimed_as, last.copied(), "re-used in place");
                }
                let generation = first_generation.wrapping_add(m.releases[index as usize]);
                prop_assert_eq!(id, (generation as u64) << 32 | index as u64);
                prop_assert_eq!(tcb.state, St::Vacant);
                prop_assert!(!m.live.contains_key(&id) && !m.retired.contains(&id));
                *tcb = Tcb {
                    state: St::NotStarted,
                    claimed_as: Some(id),
                };
                m.live.insert(id, St::NotStarted);
                m.order.push(id);
            }
            Op::Switch(n) if !m.order.is_empty() => {
                let id = m.order[n % m.order.len()];
                let state = m.live.get_mut(&id).expect("in order, so live");
                let tcb = table.get(id).expect("a live id finds its slot");
                prop_assert_eq!((tcb.state, tcb.claimed_as), (*state, Some(id)));
                *state = match *state {
                    St::Running => St::Parked,
                    _ => St::Running,
                };
                tcb.state = *state;
                prop_assert_eq!(table.at(index_of(id)).state, *state);
            }
            Op::Exit(n) if !m.order.is_empty() => {
                let id = m.order.remove(n % m.order.len());
                table.get(id).expect("live until released").state = St::Vacant;
                prop_assert!(table.release(id));
                prop_assert!(!table.release(id), "an id is released once");
                m.live.remove(&id);
                m.retired.push(id);
                m.releases[index_of(id) as usize] += 1;
                m.vacant.push(index_of(id));
            }
            Op::Stale(n) if !m.retired.is_empty() => {
                let id = m.retired[n % m.retired.len()];
                prop_assert!(table.get(id).is_none(), "stale id {:#x} found a slot", id);
                prop_assert!(!table.release(id));
            }
            // Nothing to pick from yet.
            Op::Switch(_) | Op::Exit(_) | Op::Stale(_) => {}
        }
        // Whatever the op did, the occupants are the model's — a stale
        // lookup or release touched none of them.
        let mut got: Vec<(u64, St)> = table.iter().map(|(id, t)| (id, t.state)).collect();
        let mut expect: Vec<(u64, St)> = m.live.iter().map(|(id, s)| (*id, *s)).collect();
        got.sort_unstable_by_key(|(id, _)| *id);
        expect.sort_unstable_by_key(|(id, _)| *id);
        prop_assert_eq!(got, expect);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_reference_model(
        first_generation in prop_oneof![2 => Just(0u32), 3 => Just(u32::MAX - 2), 1 => any::<u32>()],
        ops in proptest::collection::vec(arb_op(), 0..300),
    ) {
        check(first_generation, ops)?;
    }
}

/// One slot through the wrap: the generation goes MAX → 0 → 1, every id
/// differs, and each stale one stays stale.
#[test]
fn a_slot_re_used_across_the_generation_wrap() {
    let mut table: SlotTable<u32> = SlotTable::new(u32::MAX);
    let mut seen = Vec::new();
    for occupant in 0..3u32 {
        let (id, value) = table.claim(|| 0);
        *value = occupant;
        assert_eq!(index_of(id), 0);
        assert_eq!((id >> 32) as u32, u32::MAX.wrapping_add(occupant));
        assert!(!seen.contains(&id));
        for stale in &seen {
            assert_eq!(table.get(*stale), None);
        }
        assert_eq!(table.get(id).copied(), Some(occupant));
        assert!(table.release(id));
        seen.push(id);
    }
    assert_eq!(table.iter().count(), 0);
}
