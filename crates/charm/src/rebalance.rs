//! **Quasi-dynamic load balancing** (paper §3.3.1, footnote 2): "after
//! a phase or period of computation has completed, the load and
//! communication patterns in that phase are analyzed, and a new global
//! distribution of entities to processors is derived. After moving the
//! entities to their new destinations …, the computation proceeds to
//! the next stage." The paper scopes this out ("can be implemented on
//! top of Converse as Converse libraries"); this module is that library.
//!
//! [`Charm::rebalance`] is a loosely synchronous phase-boundary call:
//! every PE reports its migratable-object count, every PE derives the
//! same greedy redistribution plan from the identical global view, and
//! each overloaded PE migrates its excess objects to the planned
//! underloaded targets. Message forwarding (the migration machinery)
//! keeps in-flight traffic correct throughout.

use crate::{ChareId, Charm, Slot};
use converse_machine::Pe;

/// What a rebalance pass did on this PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Migratable objects here before the pass.
    pub before: usize,
    /// Objects this PE sent away, with destinations.
    pub moved_out: Vec<(ChareId, usize)>,
    /// Objects the plan routes to this PE (they arrive asynchronously).
    pub expected_in: usize,
}

/// The deterministic greedy plan: source PEs above the ceiling hand
/// excess to destination PEs below the floor, in PE order. Pure so it
/// can be property-tested; every PE computes it identically.
fn plan_moves(counts: &[usize]) -> Vec<(usize, usize, usize)> {
    // (from, to, how_many)
    let n = counts.len();
    let total: usize = counts.iter().sum();
    let base = total / n;
    let extra = total % n;
    // Target for PE i: base (+1 for the first `extra` PEs) — matches the
    // block convention used elsewhere.
    let target = |i: usize| base + usize::from(i < extra);
    let mut surplus: Vec<(usize, usize)> = Vec::new();
    let mut deficit: Vec<(usize, usize)> = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        let t = target(i);
        match c.cmp(&t) {
            std::cmp::Ordering::Greater => surplus.push((i, c - t)),
            std::cmp::Ordering::Less => deficit.push((i, t - c)),
            std::cmp::Ordering::Equal => {}
        }
    }
    let mut moves = Vec::new();
    let mut di = 0;
    for (from, mut s) in surplus {
        while s > 0 && di < deficit.len() {
            let (to, d) = deficit[di];
            let k = s.min(d);
            moves.push((from, to, k));
            s -= k;
            if d == k {
                di += 1;
            } else {
                deficit[di] = (to, d - k);
            }
        }
    }
    moves
}

/// The measurement-driven plan: donors are PEs whose live *backlog*
/// (mailbox depth + run-queue depth) sits above the machine mean; each
/// sheds migratable objects in proportion to its overload share, and
/// receivers below the mean absorb them in proportion to their
/// headroom. Pure and deterministic — every PE derives the same moves
/// from the same `(counts, backlogs)` view. Unlike [`plan_moves`],
/// which equalizes object *counts*, this equalizes observed *load*:
/// a PE whose few objects are expensive still donates.
fn plan_moves_measured(counts: &[usize], backlogs: &[u64]) -> Vec<(usize, usize, usize)> {
    let n = counts.len().min(backlogs.len());
    if n < 2 {
        return Vec::new();
    }
    let total: u64 = backlogs[..n].iter().sum();
    let mean = total / n as u64;
    let mut surplus: Vec<(usize, usize)> = Vec::new(); // (pe, objects to shed)
    let mut under: Vec<(usize, u64)> = Vec::new(); // (pe, load headroom)
    for i in 0..n {
        let b = backlogs[i];
        if b > mean && counts[i] > 0 {
            let give = ((counts[i] as u64).saturating_mul(b - mean) / b) as usize;
            if give > 0 {
                surplus.push((i, give));
            }
        } else if b < mean {
            under.push((i, mean - b));
        }
    }
    let total_give: usize = surplus.iter().map(|(_, g)| *g).sum();
    let total_under: u64 = under.iter().map(|(_, u)| *u).sum();
    if total_give == 0 || total_under == 0 {
        return Vec::new();
    }
    // Receiver quotas proportional to headroom; the rounding leftover
    // lands one object at a time in PE order.
    let mut deficit: Vec<(usize, usize)> = under
        .iter()
        .map(|(p, u)| (*p, (total_give as u64 * u / total_under) as usize))
        .collect();
    let mut leftover = total_give - deficit.iter().map(|(_, d)| *d).sum::<usize>();
    for d in deficit.iter_mut() {
        if leftover == 0 {
            break;
        }
        d.1 += 1;
        leftover -= 1;
    }
    // Same greedy matching as `plan_moves`, in PE order.
    let mut moves = Vec::new();
    let mut di = 0;
    for (from, mut s) in surplus {
        while s > 0 && di < deficit.len() {
            let (to, d) = deficit[di];
            if d == 0 {
                di += 1;
                continue;
            }
            let k = s.min(d);
            moves.push((from, to, k));
            s -= k;
            if d == k {
                di += 1;
            } else {
                deficit[di] = (to, d - k);
            }
        }
    }
    moves
}

impl Charm {
    /// Count the live migratable objects on this PE.
    pub fn local_migratable(&self) -> usize {
        let migrators = self.migrators.lock();
        self.objects
            .lock()
            .values()
            .filter(|s| matches!(s, Slot::Live { kind, .. } if migrators.contains_key(kind)))
            .count()
    }

    /// Loosely synchronous rebalancing pass: **every PE must call this
    /// at the same phase boundary.** Exchanges load counts, derives the
    /// shared greedy plan, and issues the migrations this PE owes.
    /// Returns what happened locally; incoming objects land
    /// asynchronously (pump the scheduler or use the follow-up barrier
    /// of your phase structure before relying on the new distribution).
    pub fn rebalance(&self, pe: &Pe) -> RebalanceReport {
        // 1. Global load picture via a concat allgather.
        let mut contrib = Vec::with_capacity(16);
        contrib.extend_from_slice(&(pe.my_pe() as u64).to_le_bytes());
        contrib.extend_from_slice(&(self.local_migratable() as u64).to_le_bytes());
        let all = pe.allreduce_bytes(contrib, self.concat_combiner);
        let mut counts = vec![0usize; pe.num_pes()];
        for chunk in all.chunks(16) {
            let idx = u64::from_le_bytes(chunk[..8].try_into().expect("idx")) as usize;
            counts[idx] = u64::from_le_bytes(chunk[8..16].try_into().expect("count")) as usize;
        }
        let before = counts[pe.my_pe()];

        // 2. The shared plan.
        let moves = plan_moves(&counts);
        let expected_in = moves
            .iter()
            .filter(|(_, to, _)| *to == pe.my_pe())
            .map(|(_, _, k)| k)
            .sum();

        // 3. Execute this PE's outgoing moves: pick the highest-slot
        //    migratable objects (deterministic, stable under concurrent
        //    arrivals which get fresh higher slots).
        let mut moved_out = Vec::new();
        for (from, to, k) in moves {
            if from != pe.my_pe() {
                continue;
            }
            let victims: Vec<u64> = {
                let migrators = self.migrators.lock();
                let t = self.objects.lock();
                let mut slots: Vec<u64> = t
                    .iter()
                    .filter(|(_, s)| {
                        matches!(s, Slot::Live { kind, .. } if migrators.contains_key(kind))
                    })
                    .map(|(slot, _)| *slot)
                    .collect();
                slots.sort_unstable_by(|a, b| b.cmp(a));
                slots.truncate(k);
                slots
            };
            assert_eq!(victims.len(), k, "plan derived from our own reported count");
            for slot in victims {
                let id = ChareId {
                    pe: pe.my_pe(),
                    slot,
                };
                let ok = self.migrate(pe, id, to);
                assert!(ok, "victim was live and migratable");
                moved_out.push((id, to));
            }
        }
        RebalanceReport {
            before,
            moved_out,
            expected_in,
        }
    }

    /// [`Charm::rebalance`] followed by a wait until this PE's live
    /// migratable population matches the plan — the full quasi-dynamic
    /// phase boundary. Collective.
    pub fn rebalance_sync(&self, pe: &Pe) -> RebalanceReport {
        let report = self.rebalance(pe);
        let want = report.before - report.moved_out.len() + report.expected_in;
        converse_core::schedule_until(pe, || self.local_migratable() == want);
        pe.barrier();
        report
    }

    /// Measurement-based rebalancing pass (`LdbPolicy::Measured`'s
    /// phase-boundary sibling): like [`Charm::rebalance`] but the plan
    /// is driven by each PE's live backlog — mailbox depth plus
    /// run-queue depth — rather than by object counts alone, via
    /// `plan_moves_measured`. Loosely synchronous; every PE must call
    /// it at the same phase boundary.
    pub fn rebalance_measured(&self, pe: &Pe) -> RebalanceReport {
        // 1. Global (count, backlog) picture via a concat allgather.
        let backlog = (pe.queue_len() + pe.inbound_pending()) as u64;
        let mut contrib = Vec::with_capacity(24);
        contrib.extend_from_slice(&(pe.my_pe() as u64).to_le_bytes());
        contrib.extend_from_slice(&(self.local_migratable() as u64).to_le_bytes());
        contrib.extend_from_slice(&backlog.to_le_bytes());
        let all = pe.allreduce_bytes(contrib, self.concat_combiner);
        let mut counts = vec![0usize; pe.num_pes()];
        let mut backlogs = vec![0u64; pe.num_pes()];
        for chunk in all.chunks(24) {
            let idx = u64::from_le_bytes(chunk[..8].try_into().expect("idx")) as usize;
            counts[idx] = u64::from_le_bytes(chunk[8..16].try_into().expect("count")) as usize;
            backlogs[idx] = u64::from_le_bytes(chunk[16..24].try_into().expect("backlog"));
        }
        let before = counts[pe.my_pe()];

        // 2. The shared measurement-driven plan.
        let moves = plan_moves_measured(&counts, &backlogs);
        let expected_in = moves
            .iter()
            .filter(|(_, to, _)| *to == pe.my_pe())
            .map(|(_, _, k)| k)
            .sum();

        // 3. Execute this PE's outgoing moves exactly as `rebalance`
        //    does: highest-slot migratable victims first.
        let mut moved_out = Vec::new();
        for (from, to, k) in moves {
            if from != pe.my_pe() {
                continue;
            }
            let victims: Vec<u64> = {
                let migrators = self.migrators.lock();
                let t = self.objects.lock();
                let mut slots: Vec<u64> = t
                    .iter()
                    .filter(|(_, s)| {
                        matches!(s, Slot::Live { kind, .. } if migrators.contains_key(kind))
                    })
                    .map(|(slot, _)| *slot)
                    .collect();
                slots.sort_unstable_by(|a, b| b.cmp(a));
                slots.truncate(k);
                slots
            };
            assert_eq!(victims.len(), k, "plan sheds at most our reported count");
            for slot in victims {
                let id = ChareId {
                    pe: pe.my_pe(),
                    slot,
                };
                let ok = self.migrate(pe, id, to);
                assert!(ok, "victim was live and migratable");
                moved_out.push((id, to));
            }
        }
        RebalanceReport {
            before,
            moved_out,
            expected_in,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{plan_moves, plan_moves_measured};

    fn apply(counts: &[usize], moves: &[(usize, usize, usize)]) -> Vec<usize> {
        let mut out = counts.to_vec();
        for (from, to, k) in moves {
            assert!(out[*from] >= *k, "move exceeds supply");
            out[*from] -= k;
            out[*to] += k;
        }
        out
    }

    #[test]
    fn balances_simple_imbalance() {
        let counts = [10, 0, 0, 2];
        let after = apply(&counts, &plan_moves(&counts));
        assert_eq!(after, vec![3, 3, 3, 3]);
    }

    #[test]
    fn uneven_totals_use_block_targets() {
        let counts = [7, 0, 0];
        let after = apply(&counts, &plan_moves(&counts));
        assert_eq!(after, vec![3, 2, 2]);
    }

    #[test]
    fn balanced_input_is_a_noop() {
        assert!(plan_moves(&[2, 2, 2]).is_empty());
        assert!(plan_moves(&[0, 0]).is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let counts = [5, 1, 9, 0, 3];
        assert_eq!(plan_moves(&counts), plan_moves(&counts));
    }

    #[test]
    fn measured_plan_moves_off_the_hot_pe() {
        // PE0 holds 8 objects and nearly all the backlog; the others are
        // idle. The plan sheds from PE0 only, proportional to overload.
        let counts = [8, 2, 2, 2];
        let backlogs = [80, 0, 0, 0];
        let moves = plan_moves_measured(&counts, &backlogs);
        assert!(!moves.is_empty());
        let shed: usize = moves
            .iter()
            .filter(|(from, _, _)| *from == 0)
            .map(|(_, _, k)| k)
            .sum();
        assert_eq!(shed, moves.iter().map(|(_, _, k)| k).sum::<usize>());
        // mean = 20, give = 8 * 60 / 80 = 6.
        assert_eq!(shed, 6);
        // Conservation + supply: applying the plan never overdraws.
        let after = apply(&counts, &moves);
        assert_eq!(after.iter().sum::<usize>(), counts.iter().sum::<usize>());
        assert_eq!(after[0], 2);
    }

    #[test]
    fn measured_plan_is_a_noop_when_load_is_flat() {
        assert!(plan_moves_measured(&[3, 3, 3], &[10, 10, 10]).is_empty());
        // Overloaded PE with nothing migratable cannot donate.
        assert!(plan_moves_measured(&[0, 4], &[100, 0]).is_empty());
        // Degenerate sizes.
        assert!(plan_moves_measured(&[5], &[9]).is_empty());
        assert!(plan_moves_measured(&[], &[]).is_empty());
    }

    #[test]
    fn measured_plan_splits_among_receivers_by_headroom() {
        // PE0 overloaded; PE1 has more headroom than PE2, so it should
        // receive at least as much.
        let counts = [10, 0, 0];
        let backlogs = [90, 0, 30];
        let moves = plan_moves_measured(&counts, &backlogs);
        let to1: usize = moves.iter().filter(|(_, t, _)| *t == 1).map(|m| m.2).sum();
        let to2: usize = moves.iter().filter(|(_, t, _)| *t == 2).map(|m| m.2).sum();
        assert!(to1 >= to2, "{moves:?}");
        assert!(to1 + to2 > 0);
        let after = apply(&counts, &moves);
        assert_eq!(after.iter().sum::<usize>(), 10);
    }

    #[test]
    fn measured_plan_is_deterministic() {
        let counts = [5, 1, 9, 0, 3];
        let backlogs = [40, 2, 77, 0, 11];
        assert_eq!(
            plan_moves_measured(&counts, &backlogs),
            plan_moves_measured(&counts, &backlogs)
        );
    }

    #[test]
    fn any_distribution_ends_balanced() {
        for counts in [vec![1, 2, 3, 4], vec![100, 0], vec![0, 0, 50], vec![9]] {
            let n = counts.len();
            let total: usize = counts.iter().sum();
            let after = apply(&counts, &plan_moves(&counts));
            for (i, c) in after.iter().enumerate() {
                let base = total / n + usize::from(i < total % n);
                assert_eq!(*c, base, "{counts:?} → {after:?}");
            }
        }
    }
}
