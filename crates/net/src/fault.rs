//! Deterministic fault injection for the simulated interconnect.
//!
//! A [`FaultPlan`] turns the reliable in-process wire into an
//! adversarial one: per-link drop/duplication probabilities, bounded
//! delivery delay, and scripted PE stall/crash windows. Every decision
//! is a pure function of `(plan seed, src, dst, seq, attempt)` — the
//! per-link stream is derived from `seed ⊕ src ⊕ dst`, then keyed by the
//! packet's link sequence number and transmission attempt through the
//! interconnect's LCG step and a splitmix finalizer. No shared RNG
//! state exists, so the fault schedule of a link is identical across
//! runs **regardless of thread interleaving**: one seed = one
//! replayable adversarial schedule.
//!
//! The plan also configures the reliability sublayer that masks the
//! faults ([`crate::link`], the only caller of the draws below): base
//! retransmit timeout, backoff cap, and the pump tick that drives
//! delayed release and retransmission.

use std::time::Duration;

/// Fault probabilities of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a transmission vanishes on the wire (per attempt,
    /// retransmissions included). Must be `< 1.0` or the link loses
    /// liveness.
    pub drop: f64,
    /// Probability a surviving transmission is duplicated.
    pub dup: f64,
    /// Probability a surviving copy is delayed instead of delivered
    /// immediately.
    pub delay: f64,
    /// Upper bound, in pump ticks ("slots"), on how long a delayed copy
    /// is held. `0` disables delay regardless of `delay`.
    pub max_delay_slots: usize,
}

impl LinkFaults {
    /// A perfectly reliable link (the default).
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        dup: 0.0,
        delay: 0.0,
        max_delay_slots: 0,
    };

    /// True when every probability is zero.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && (self.delay == 0.0 || self.max_delay_slots == 0)
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A scripted window during which one PE stops retrieving messages.
/// Packets still arrive and queue (visible as mailbox depth); the PE
/// simply does not run. `to: None` is a crash: the PE never recovers
/// until the machine closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// The stalled PE.
    pub pe: usize,
    /// Window start, as uptime since machine boot.
    pub from: Duration,
    /// Window end (exclusive), or `None` for a crash.
    pub to: Option<Duration>,
}

/// A complete seeded adversarial schedule plus the reliability tuning
/// that masks it. One plan + one seed = one reproducible run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; every per-link decision stream derives from it.
    pub seed: u64,
    /// Default faults applied to every link.
    pub faults: LinkFaults,
    /// Per-link overrides `(src, dst, faults)`; the last matching entry
    /// wins.
    pub links: Vec<(usize, usize, LinkFaults)>,
    /// Scripted stall/crash windows.
    pub stalls: Vec<StallWindow>,
    /// Base retransmit timeout for the first retry.
    pub rto: Duration,
    /// Cap on the exponential retransmit backoff.
    pub rto_cap: Duration,
    /// Pump interval: one "slot" of delivery delay, and the cadence at
    /// which retransmissions and delayed releases are driven.
    pub tick: Duration,
}

impl FaultPlan {
    /// A clean plan (no faults, no stalls) with default reliability
    /// tuning; compose with the builder methods.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: LinkFaults::NONE,
            links: Vec::new(),
            stalls: Vec::new(),
            rto: Duration::from_micros(800),
            rto_cap: Duration::from_millis(20),
            tick: Duration::from_micros(300),
        }
    }

    /// A uniformly lossy plan: every link drops, duplicates and delays
    /// with the given probabilities (delay bounded by `max_delay_slots`).
    pub fn lossy(seed: u64, drop: f64, dup: f64, delay: f64, max_delay_slots: usize) -> FaultPlan {
        FaultPlan::new(seed).faults(LinkFaults {
            drop,
            dup,
            delay,
            max_delay_slots,
        })
    }

    /// Set the default faults for every link.
    pub fn faults(mut self, f: LinkFaults) -> FaultPlan {
        self.faults = f;
        self
    }

    /// Override the faults of one directed link.
    pub fn link(mut self, src: usize, dst: usize, f: LinkFaults) -> FaultPlan {
        self.links.push((src, dst, f));
        self
    }

    /// Script a stall window for `pe` over `[from, to)` of uptime.
    pub fn stall(mut self, pe: usize, from: Duration, to: Duration) -> FaultPlan {
        self.stalls.push(StallWindow {
            pe,
            from,
            to: Some(to),
        });
        self
    }

    /// Script a crash: `pe` stops retrieving at `from` and never
    /// recovers (until the machine closes).
    pub fn crash(mut self, pe: usize, from: Duration) -> FaultPlan {
        self.stalls.push(StallWindow { pe, from, to: None });
        self
    }

    /// Set the retransmit timing (base timeout and backoff cap).
    pub fn retransmit(mut self, rto: Duration, rto_cap: Duration) -> FaultPlan {
        self.rto = rto;
        self.rto_cap = rto_cap;
        self
    }

    /// Set the pump tick (delay-slot width and retry cadence).
    pub fn tick(mut self, tick: Duration) -> FaultPlan {
        self.tick = tick;
        self
    }

    /// The effective faults of link `src → dst`.
    pub fn faults_for(&self, src: usize, dst: usize) -> LinkFaults {
        self.links
            .iter()
            .rev()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, f)| *f)
            .unwrap_or(self.faults)
    }

    /// Panic on a plan that cannot preserve liveness or is out of range.
    pub fn validate(&self, num_pes: usize) {
        let check = |f: &LinkFaults, what: &str| {
            assert!(
                (0.0..1.0).contains(&f.drop),
                "FaultPlan: {what} drop probability {} must be in [0, 1) — \
                 a link dropping everything has no liveness",
                f.drop
            );
            assert!(
                (0.0..=1.0).contains(&f.dup) && (0.0..=1.0).contains(&f.delay),
                "FaultPlan: {what} dup/delay probabilities must be in [0, 1]"
            );
        };
        check(&self.faults, "default");
        for (s, d, f) in &self.links {
            assert!(
                *s < num_pes && *d < num_pes,
                "FaultPlan: link ({s},{d}) out of range for {num_pes} PEs"
            );
            check(f, "per-link");
        }
        for w in &self.stalls {
            assert!(
                w.pe < num_pes,
                "FaultPlan: stall window for PE {} out of range for {num_pes} PEs",
                w.pe
            );
        }
        assert!(!self.tick.is_zero(), "FaultPlan: tick must be non-zero");
        assert!(!self.rto.is_zero(), "FaultPlan: rto must be non-zero");
    }
}

/// Aggregate counters of the fault plane and the reliability sublayer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Wire transmissions attempted (originals + duplicates issued by
    /// the fault plane + retransmissions). With no plan installed this
    /// stays zero.
    pub transmissions: u64,
    /// Transmissions the fault plane dropped.
    pub dropped: u64,
    /// Transmissions the fault plane duplicated.
    pub duplicated: u64,
    /// Copies the fault plane delayed.
    pub delayed: u64,
    /// Retransmissions issued by the reliability send side.
    pub retransmitted: u64,
    /// Duplicate deliveries discarded by the receive side.
    pub dedup_dropped: u64,
    /// Values discarded because a newer value on the same
    /// latest-value-wins channel superseded them (in the sender's
    /// retransmit slot, in fault-plane limbo, or queued in the
    /// destination inbox).
    pub superseded: u64,
}

impl FaultStats {
    /// Wire transmissions per logical message: the cost of surviving
    /// the fault plane. `1.0` on a clean link; `0.0` when no messages
    /// were sent at all (never NaN/inf — reports divide by this).
    pub fn overhead_ratio(&self, logical_msgs: u64) -> f64 {
        if logical_msgs == 0 {
            return 0.0;
        }
        self.transmissions as f64 / logical_msgs as f64
    }
}

/// Counters of separate processes add up to the machine's: how a
/// launcher folds its workers' reports.
impl std::ops::AddAssign for FaultStats {
    fn add_assign(&mut self, o: FaultStats) {
        // Destructured so a new counter cannot be left out of the sum.
        let FaultStats {
            transmissions,
            dropped,
            duplicated,
            delayed,
            retransmitted,
            dedup_dropped,
            superseded,
        } = o;
        self.transmissions += transmissions;
        self.dropped += dropped;
        self.duplicated += duplicated;
        self.delayed += delayed;
        self.retransmitted += retransmitted;
        self.dedup_dropped += dedup_dropped;
        self.superseded += superseded;
    }
}

impl std::iter::Sum for FaultStats {
    fn sum<I: Iterator<Item = FaultStats>>(iter: I) -> FaultStats {
        iter.fold(FaultStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

// ---- deterministic per-link decision streams ---------------------------

/// The interconnect's LCG step (Numerical Recipes constants) — the same
/// generator the reorder mode has always used, here applied statelessly.
const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

/// splitmix64 finalizer: decorrelates the structured key material.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    x
}

/// One deterministic draw for a packet event. The stream is derived
/// per link from `seed ⊕ src ⊕ dst` (each id spread over 64 bits first,
/// so links (0,1) and (1,0) get distinct streams), then keyed by the
/// packet's sequence number, transmission attempt, and a salt naming
/// the decision being made.
pub(crate) fn link_draw(
    seed: u64,
    src: usize,
    dst: usize,
    seq: u64,
    attempt: u32,
    salt: u64,
) -> u64 {
    let link = (src as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (dst as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
    let x = (seed ^ link).wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
    mix64(
        x ^ seq.wrapping_mul(0xD6E8FEB86659FD93)
            ^ ((attempt as u64) << 40)
            ^ salt.wrapping_mul(0xFF51AFD7ED558CCD),
    )
}

/// Map a draw onto the unit interval.
pub(crate) fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Decision salts (one per kind of question asked about a packet).
pub(crate) const SALT_DROP: u64 = 1;
pub(crate) const SALT_DUP: u64 = 2;
pub(crate) const SALT_DELAY: u64 = 3;
pub(crate) const SALT_DELAY_SLOTS: u64 = 4;
pub(crate) const SALT_REORDER: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_link_directional() {
        let a = link_draw(7, 0, 1, 5, 1, SALT_DROP);
        assert_eq!(a, link_draw(7, 0, 1, 5, 1, SALT_DROP));
        assert_ne!(a, link_draw(7, 1, 0, 5, 1, SALT_DROP), "direction matters");
        assert_ne!(a, link_draw(8, 0, 1, 5, 1, SALT_DROP), "seed matters");
        assert_ne!(a, link_draw(7, 0, 1, 6, 1, SALT_DROP), "seq matters");
        assert_ne!(a, link_draw(7, 0, 1, 5, 2, SALT_DROP), "attempt matters");
        assert_ne!(a, link_draw(7, 0, 1, 5, 1, SALT_DUP), "salt matters");
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut acc = 0.0;
        for i in 0..1000u64 {
            let u = unit(link_draw(42, 0, 1, i, 1, SALT_DROP));
            assert!((0.0..1.0).contains(&u));
            acc += u;
        }
        let mean = acc / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn faults_for_prefers_last_matching_override() {
        let plan = FaultPlan::new(1)
            .faults(LinkFaults {
                drop: 0.1,
                ..LinkFaults::NONE
            })
            .link(
                0,
                1,
                LinkFaults {
                    drop: 0.5,
                    ..LinkFaults::NONE
                },
            )
            .link(
                0,
                1,
                LinkFaults {
                    drop: 0.9,
                    ..LinkFaults::NONE
                },
            );
        assert_eq!(plan.faults_for(0, 1).drop, 0.9);
        assert_eq!(plan.faults_for(1, 0).drop, 0.1);
    }

    #[test]
    #[should_panic(expected = "no liveness")]
    fn total_loss_rejected() {
        FaultPlan::lossy(1, 1.0, 0.0, 0.0, 0).validate(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stall_rejected() {
        FaultPlan::new(1)
            .stall(9, Duration::ZERO, Duration::from_secs(1))
            .validate(2);
    }

    #[test]
    fn overhead_ratio_is_finite_for_zero_messages() {
        // Satellite regression: a report over an idle machine must not
        // divide by zero — no NaN, no inf, just 0.0.
        let s = FaultStats {
            transmissions: 17,
            ..FaultStats::default()
        };
        assert_eq!(s.overhead_ratio(0), 0.0);
        assert!(s.overhead_ratio(0).is_finite());
        assert_eq!(FaultStats::default().overhead_ratio(0), 0.0);
        // And the normal path still reads transmissions per message.
        assert_eq!(s.overhead_ratio(17), 1.0);
    }
}
