//! Seed-based **dynamic load balancing** (paper §3.3.1).
//!
//! "A language runtime may hand over a seed, in the form of a
//! generalized message, on any processor. Monitoring the load on
//! processors, the load balancing module moves such seeds from processor
//! to processor until it eventually hands over the seed to its handler
//! on some destination processor. … Depending on the application, the
//! user is able to link in a different load balancing strategy."
//!
//! A *seed* is any [`Message`]: when it finally "takes root" the module
//! enqueues it on that PE's scheduler queue (honouring its priority), so
//! its handler runs there. Six strategies are provided behind one
//! interface ([`LdbPolicy`]):
//!
//! * [`LdbPolicy::Direct`] — root where deposited; the zero-overhead
//!   baseline.
//! * [`LdbPolicy::Random`] — one hop to a uniformly random PE (the
//!   classic Charm "random placement" strategy).
//! * [`LdbPolicy::Spray`] — adaptive: root locally while the local
//!   scheduler queue is short, otherwise forward toward the less-loaded
//!   ring neighbour, with a hop limit; neighbours exchange load reports
//!   piggybacked on the seed traffic.
//! * [`LdbPolicy::Central`] — a manager on PE 0 assigns every seed to
//!   the least-loaded PE it knows of (load reports flow to the manager).
//! * [`LdbPolicy::TwoChoices`] — power-of-two-choices over gossiped
//!   loads.
//! * [`LdbPolicy::Measured`] — measurement-based: every seed goes to
//!   the PE with the smallest live backlog (mailbox + run queue).
//!
//! The load metric is the scheduler-queue length ([`Pe::queue_len`]) —
//! exactly the "interact with a local scheduler" coupling the paper
//! describes — except for `Measured`, which reads the transport's full
//! backlog view.

use converse_core::csd;
use converse_machine::{HandlerId, Message, OwnerCell, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use converse_msg::Priority;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Which strategy an [`Ldb`] instance uses. Every PE of a machine must
/// install the same policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LdbPolicy {
    /// Root every seed where it was deposited.
    Direct,
    /// Send every seed to a uniformly random PE (including possibly the
    /// depositor) and root it there.
    Random {
        /// Per-machine RNG seed; each PE derives its own stream.
        seed: u64,
    },
    /// Root locally when the local queue is at most `threshold` long;
    /// otherwise forward to the apparently least-loaded ring neighbour,
    /// up to `max_hops` hops (after which the seed roots wherever it is).
    Spray {
        /// Queue length at or below which a seed roots locally.
        threshold: usize,
        /// Maximum forwarding hops before a seed must root.
        max_hops: u32,
    },
    /// All seeds go to the PE-0 manager, which assigns each to the
    /// least-loaded PE it knows of.
    Central,
    /// Power-of-two-choices: probe two random PEs' last-known loads and
    /// send the seed to the apparently lighter one. Loads are learned
    /// from piggybacked reports, so the view is stale but cheap — the
    /// classic randomized balancing trade-off.
    TwoChoices {
        /// Per-machine RNG seed.
        seed: u64,
    },
    /// Measurement-based placement: every seed goes to the PE with the
    /// smallest live *backlog* (mailbox depth + published run-queue
    /// depth, [`converse_machine::PeLoad::backlog`]). On shared-memory
    /// transports the snapshot is read directly; on distributed
    /// transports, where remote loads are not observable, the balancer
    /// falls back to gossiped load reports (broadcast every 4th
    /// balancer event, `LOAD_REPORT_PERIOD`, like
    /// [`LdbPolicy::TwoChoices`]). Seeds are marked stealable, so
    /// placement mistakes remain correctable by idle-PE work stealing
    /// mid-run.
    Measured,
}

/// What the balancer did on this PE, read with [`Ldb::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LdbStats {
    /// Seeds handed to [`Ldb::deposit`] on this PE.
    pub deposited: u64,
    /// Seeds that took root (were enqueued) on this PE.
    pub rooted: u64,
    /// Seeds this PE forwarded onward.
    pub forwarded: u64,
}

/// What the balancer keeps per PE; only the PE's running context
/// touches it.
struct State {
    /// Latest gossiped load reports (Spray, TwoChoices, Measured).
    neighbor_loads: HashMap<usize, usize>,
    /// Manager's view of per-PE load (Central; meaningful on PE 0).
    central_loads: Vec<usize>,
    rng: SmallRng,
    /// Balancer events so far: paces load reports, rotates ties.
    events: u64,
    stats: LdbStats,
}

/// Per-PE load balancer runtime. Install once per PE (same registration
/// order machine-wide), then [`Ldb::deposit`] seeds from anywhere on
/// that PE.
pub struct Ldb {
    policy: LdbPolicy,
    seed_h: HandlerId,
    load_h: HandlerId,
    assign_h: HandlerId,
    state: OwnerCell<State>,
}

/// How often (in balancer events) a PE publishes its load.
const LOAD_REPORT_PERIOD: u64 = 4;

impl Ldb {
    /// Register the balancer's handlers on this PE and return the
    /// runtime. Must be called on every PE in the same registration
    /// position, with the same policy. Idempotent per PE.
    pub fn install(pe: &Pe, policy: LdbPolicy) -> Arc<Ldb> {
        let ldb = pe.local(|| Self::register(pe, policy));
        assert_eq!(
            ldb.policy,
            policy,
            "PE {}: conflicting Ldb policies",
            pe.my_pe()
        );
        ldb
    }

    fn register(pe: &Pe, policy: LdbPolicy) -> Ldb {
        let seed_h = pe.register_handler(|pe, msg| {
            let ldb = Ldb::get(pe);
            let mut u = Unpacker::new(msg.payload());
            let hops = u.u32().expect("ldb seed: hops");
            let inner = u.bytes().expect("ldb seed: inner");
            let inner = Message::from_bytes(inner).expect("ldb seed: inner decodes");
            ldb.arrive(pe, inner, hops);
        });
        let load_h = pe.register_handler(|pe, msg| {
            let ldb = Ldb::get(pe);
            let mut u = Unpacker::new(msg.payload());
            let from = u.usize().expect("ldb load: from");
            let load = u.usize().expect("ldb load: load");
            ldb.state(pe, |s| match ldb.policy {
                LdbPolicy::Central => {
                    if let Some(l) = s.central_loads.get_mut(from) {
                        *l = load;
                    }
                }
                _ => {
                    s.neighbor_loads.insert(from, load);
                }
            });
        });
        let assign_h = pe.register_handler(|pe, msg| {
            // Manager (PE 0): choose the least-loaded PE and forward.
            let ldb = Ldb::get(pe);
            debug_assert_eq!(pe.my_pe(), 0, "assign handler runs on the manager");
            let mut u = Unpacker::new(msg.payload());
            let inner = u.bytes().expect("ldb assign: inner");
            let dst = ldb.state(pe, |s| {
                let cl = &mut s.central_loads;
                let (dst, _) = cl
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| **l)
                    .expect("machine has PEs");
                cl[dst] += 1; // account for the assignment immediately
                dst
            });
            let inner = Message::from_bytes(inner).expect("ldb assign: inner decodes");
            ldb.place(pe, dst, inner);
        });
        let rng = SmallRng::seed_from_u64(
            0x51ED_BA5E
                ^ ((pe.my_pe() as u64) << 17)
                ^ match policy {
                    LdbPolicy::Random { seed } | LdbPolicy::TwoChoices { seed } => seed,
                    _ => 0,
                },
        );
        let state = State {
            neighbor_loads: HashMap::new(),
            central_loads: vec![0; pe.num_pes()],
            rng,
            events: 0,
            stats: LdbStats::default(),
        };
        Ldb {
            policy,
            seed_h,
            load_h,
            assign_h,
            state: OwnerCell::new(pe.owner(), state),
        }
    }

    /// Open the balancer's state. `f` must not call out of this module.
    fn state<R>(&self, pe: &Pe, f: impl FnOnce(&mut State) -> R) -> R {
        self.state.with(pe.owner(), f)
    }

    /// What the balancer did on this PE so far.
    pub fn stats(&self, pe: &Pe) -> LdbStats {
        self.state(pe, |s| s.stats)
    }

    /// The balancer previously installed on this PE, borrowed from its
    /// PE-local storage.
    #[inline]
    pub fn get(pe: &Pe) -> &Ldb {
        pe.local_ref()
            .unwrap_or_else(|| panic!("PE {}: Ldb::install was not called", pe.my_pe()))
    }

    /// Hand a seed to the balancer (the language runtime's entry point).
    /// The seed's handler will eventually run on *some* PE, chosen by
    /// the policy; its priority is honoured by the destination queue.
    pub fn deposit(&self, pe: &Pe, seed: Message) {
        self.tick(pe);
        self.state(pe, |s| s.stats.deposited += 1);
        let n = pe.num_pes();
        let dst = match self.policy {
            LdbPolicy::Direct => pe.my_pe(),
            LdbPolicy::Random { .. } => self.state(pe, |s| s.rng.random_range(0..n)),
            LdbPolicy::Spray { .. } => return self.arrive(pe, seed, 0),
            LdbPolicy::TwoChoices { .. } => self.state(pe, |s| {
                let (a, b) = (s.rng.random_range(0..n), s.rng.random_range(0..n));
                let load = |p| s.neighbor_loads.get(&p).copied().unwrap_or(0);
                if load(a) <= load(b) {
                    a
                } else {
                    b
                }
            }),
            LdbPolicy::Central if n == 1 => pe.my_pe(),
            LdbPolicy::Central => {
                let head = StackPacker::<4>::new().len_prefix(seed.len());
                self.state(pe, |s| s.stats.forwarded += 1);
                let parts = [head.as_slice(), seed.as_bytes()];
                pe.sync_send_and_free(0, Message::gather(self.assign_h, &Priority::None, parts));
                return;
            }
            LdbPolicy::Measured => self.pick_measured(pe),
        };
        self.place(pe, dst, seed);
    }

    /// Root `seed` here when `dst` is this PE, else send it there.
    fn place(&self, pe: &Pe, dst: usize, seed: Message) {
        if dst == pe.my_pe() {
            self.root(pe, seed);
        } else {
            self.state(pe, |s| s.stats.forwarded += 1);
            self.send_seed(pe, dst, &seed, 1);
        }
    }

    /// Measured placement: the PE with the smallest observed backlog.
    /// Live snapshot where remote loads are visible (shared memory),
    /// gossiped reports otherwise; the depositor's own entry is always
    /// its live queue length. Ties rotate by deposit count so a burst
    /// deposited into an all-idle machine spreads instead of piling
    /// onto the lowest-numbered PE.
    fn pick_measured(&self, pe: &Pe) -> usize {
        let n = pe.num_pes();
        let me = pe.my_pe();
        let rot = self.state(pe, |s| s.events) as usize;
        let key = |p: usize, backlog: usize| (backlog, (p + n - rot % n) % n);
        if pe.remote_load_visible() {
            pe.load_snapshot()
                .into_iter()
                .map(|l| {
                    let b = if l.pe == me {
                        pe.queue_len() + l.queued
                    } else {
                        l.backlog()
                    };
                    (key(l.pe, b), l.pe)
                })
                .min()
                .map(|(_, p)| p)
                .unwrap_or(me)
        } else {
            let mine = pe.queue_len();
            self.state(pe, |s| {
                (0..n)
                    .map(|p| {
                        let b = if p == me {
                            mine
                        } else {
                            s.neighbor_loads.get(&p).copied().unwrap_or(0)
                        };
                        (key(p, b), p)
                    })
                    .min()
                    .map(|(_, p)| p)
                    .expect("machine has PEs")
            })
        }
    }

    /// A seed arrived here after `hops` forwards: root or keep moving.
    fn arrive(&self, pe: &Pe, seed: Message, hops: u32) {
        self.tick(pe);
        match self.policy {
            LdbPolicy::Spray {
                threshold,
                max_hops,
            } => {
                let local = pe.queue_len();
                if local <= threshold || hops >= max_hops {
                    self.root(pe, seed);
                    return;
                }
                // Prefer the apparently less-loaded ring neighbour; if
                // both look worse than here, root anyway.
                let n = pe.num_pes();
                let left = (pe.my_pe() + n - 1) % n;
                let right = (pe.my_pe() + 1) % n;
                let (ll, rl) = self.state(pe, |s| {
                    let load = |p| s.neighbor_loads.get(&p).copied().unwrap_or(0);
                    (load(left), load(right))
                });
                let (dst, dload) = if ll <= rl { (left, ll) } else { (right, rl) };
                if dst == pe.my_pe() || dload >= local {
                    self.root(pe, seed);
                } else {
                    self.state(pe, |s| s.stats.forwarded += 1);
                    self.send_seed(pe, dst, &seed, hops + 1);
                }
            }
            // Random and Central seeds root on arrival.
            _ => self.root(pe, seed),
        }
    }

    fn send_seed(&self, pe: &Pe, dst: usize, seed: &Message, hops: u32) {
        let head = StackPacker::<8>::new().u32(hops).len_prefix(seed.len());
        let parts = [head.as_slice(), seed.as_bytes()];
        let mut m = Message::gather(self.seed_h, &Priority::None, parts);
        // A seed is location-independent by definition (the module's
        // whole job is moving them), so its wrapper is fair game for
        // idle-PE work stealing on machines that enable it.
        m.mark_stealable();
        pe.sync_send_and_free(dst, m);
    }

    fn root(&self, pe: &Pe, seed: Message) {
        self.state(pe, |s| s.stats.rooted += 1);
        csd::csd_enqueue_prio(pe, seed);
    }

    /// Periodic load publication, driven by balancer activity.
    fn tick(&self, pe: &Pe) {
        let ev = self.state(pe, |s| {
            s.events += 1;
            s.events - 1
        });
        if !ev.is_multiple_of(LOAD_REPORT_PERIOD) {
            return;
        }
        let load = pe.queue_len();
        let report = StackPacker::<16>::new().usize(pe.my_pe()).usize(load);
        let payload = report.as_slice();
        match self.policy {
            LdbPolicy::Spray { .. } => {
                let n = pe.num_pes();
                if n > 1 {
                    let left = (pe.my_pe() + n - 1) % n;
                    let right = (pe.my_pe() + 1) % n;
                    pe.sync_send_and_free(left, Message::new(self.load_h, payload));
                    if right != left {
                        pe.sync_send_and_free(right, Message::new(self.load_h, payload));
                    }
                }
            }
            LdbPolicy::Central if pe.my_pe() != 0 => {
                pe.sync_send_and_free(0, Message::new(self.load_h, payload));
            }
            LdbPolicy::TwoChoices { .. } => {
                // Cheap gossip: everyone learns everyone's load now and
                // then; staleness is part of the strategy's bargain.
                pe.sync_broadcast(&Message::new(self.load_h, payload));
            }
            // Measured needs gossip only where live snapshots of remote
            // PEs are unavailable (distributed transports).
            LdbPolicy::Measured if !pe.remote_load_visible() => {
                pe.sync_broadcast(&Message::new(self.load_h, payload));
            }
            _ => {}
        }
    }
}
