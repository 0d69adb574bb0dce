//! A miniature **Charm-style message-driven object runtime** on Converse.
//!
//! The paper's second concurrency category (§2.1): "Concurrent
//! object-oriented languages such as Charm allow concurrency within a
//! process. Such languages permit asynchronous method invocations — the
//! caller is not made to wait … There may be many objects active on a
//! processor, any of which can be scheduled depending on the arrival of
//! a message corresponding to a method invocation."
//!
//! This crate is the "language runtime" layer the paper sketches in
//! §3.3, exercising the Converse facilities exactly as Charm does:
//!
//! * **Chare creation is a seed** (§3.3.1): [`Charm::create`] wraps the
//!   constructor message in a generalized message and deposits it with
//!   the pluggable load balancer; the chare is instantiated wherever the
//!   seed takes root.
//! * **Method invocation messages go through the scheduler** with their
//!   priority: the receive handler re-targets the message at a second
//!   handler and enqueues it — the paper's own idiom for avoiding
//!   infinite regress (§3.3: "the handler stored in the message may be
//!   changed to point to a second handler defined by the language
//!   runtime").
//! * **Quiescence** is counted automatically for creations and
//!   invocations, so applications can use
//!   [`converse_core::Quiescence::start`] to learn when the object
//!   computation has drained.

pub mod group;
mod idmap;
pub mod rebalance;

use crate::idmap::IdMap;
use converse_core::{csd, Quiescence};
use converse_ldb::{Ldb, LdbPolicy};
use converse_machine::{HandlerId, Message, Pe};
use converse_msg::pack::{StackPacker, Unpacker};
use converse_msg::Priority;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use group::{GroupChare, GroupId, GroupKind};
pub use rebalance::RebalanceReport;

/// Index of a registered chare type (constructor) — identical on every
/// PE when registration order is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChareKind(pub u32);

/// Machine-wide identity of a chare instance. Obtained inside the
/// chare's constructor; typically mailed to interested parties, since
/// creation itself is fire-and-forget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChareId {
    /// Home PE (chares do not migrate in this runtime).
    pub pe: usize,
    /// Slot in the home PE's object table.
    pub slot: u64,
}

impl ChareId {
    /// Serialize for embedding in payloads.
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&(self.pe as u64).to_le_bytes());
        out[8..].copy_from_slice(&self.slot.to_le_bytes());
        out
    }

    /// Inverse of [`ChareId::encode`].
    pub fn decode(bytes: &[u8]) -> Option<ChareId> {
        if bytes.len() < 16 {
            return None;
        }
        Some(ChareId {
            pe: u64::from_le_bytes(bytes[..8].try_into().ok()?) as usize,
            slot: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
        })
    }
}

/// A message-driven object. Implementations are registered per type
/// with [`Charm::register`]; instances are created with
/// [`Charm::create`] and receive asynchronous invocations through
/// [`Chare::entry`].
pub trait Chare: Send + std::any::Any + 'static {
    /// Construct the object where its seed took root. `self_id` is the
    /// fresh identity; constructors commonly mail it to a parent encoded
    /// in `payload`.
    fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self
    where
        Self: Sized;

    /// An asynchronous method invocation: `ep` selects the method,
    /// `payload` carries its marshalled arguments.
    fn entry(&mut self, pe: &Pe, self_id: ChareId, ep: u32, payload: &[u8]);
}

type Ctor = Arc<dyn Fn(&Pe, ChareId, &[u8]) -> Box<dyn Chare> + Send + Sync>;
type MigCtor = Arc<dyn Fn(&Pe, ChareId, &[u8]) -> Box<dyn Chare> + Send + Sync>;
type Packer2 = Arc<dyn Fn(&dyn Chare) -> Vec<u8> + Send + Sync>;

/// A chare whose state can be serialized and reconstructed on another
/// PE — the contract for [`Charm::migrate`]. The paper leaves migration
/// as future work ("dynamic object migration … can be implemented on
/// top of Converse as Converse libraries", §3.3.1 footnote); this
/// runtime implements it with the forwarding queues that footnote
/// describes.
pub trait MigratableChare: Chare {
    /// Serialize the object's state.
    fn pack(&self) -> Vec<u8>;
    /// Reconstruct from [`MigratableChare::pack`] output on the new PE.
    /// `new_id` is the object's identity at its new home.
    fn unpack(pe: &Pe, new_id: ChareId, data: &[u8]) -> Self
    where
        Self: Sized;
}

/// Lifecycle state of an object-table slot.
pub(crate) enum Slot {
    /// A live object (taken out while an entry method runs).
    Live {
        kind: u32,
        obj: Option<Box<dyn Chare>>,
    },
    /// Mid-migration: invocations are held until the new address is
    /// known — the "queues for forwarding messages to migrated objects".
    Migrating { held: Vec<Message> },
    /// Migrated away: invocations are forwarded to the new identity.
    Forwarded { to: ChareId },
}

/// Per-PE Charm runtime.
pub struct Charm {
    create_h: HandlerId,
    exec_h: HandlerId,
    invoke_h: HandlerId,
    exit_h: HandlerId,
    ctors: Mutex<Vec<Ctor>>,
    /// Per-kind (unpacker, packer) for migratable kinds.
    pub(crate) migrators: Mutex<HashMap<u32, (MigCtor, Packer2)>>,
    pub(crate) objects: Mutex<IdMap<Slot>>,
    /// Byte-concatenation combiner for allgather-style exchanges
    /// (rebalancing load reports).
    pub(crate) concat_combiner: converse_machine::coll::CombinerId,
    migrate_install_h: HandlerId,
    migrate_ack_h: HandlerId,
    next_slot: AtomicU64,
    qd: Arc<Quiescence>,
    pub(crate) groups: group::GroupState,
    readonly_h: HandlerId,
    readonlies: Mutex<HashMap<u32, Vec<u8>>>,
    /// Chares constructed on this PE.
    pub chares_created: AtomicU64,
    /// Entry-method invocations executed on this PE.
    pub entries_run: AtomicU64,
}

impl Charm {
    /// Install the Charm runtime on this PE with the given seed
    /// load-balancing policy. Installs [`Quiescence`] and [`Ldb`] first
    /// (in that order), so calling this as the first registration on
    /// every PE yields identical handler tables. Idempotent per PE.
    pub fn install(pe: &Pe, policy: LdbPolicy) -> Arc<Charm> {
        pe.local(|| Self::on_pe(pe, policy))
    }

    /// The runtime for `pe`, with its handlers registered there.
    fn on_pe(pe: &Pe, policy: LdbPolicy) -> Charm {
        let qd = Quiescence::install(pe);
        Ldb::install(pe, policy);

        // First handler for a creation seed: runs where the seed took
        // root (the load balancer enqueued it on the scheduler there).
        let create_h = pe.register_handler(|pe, msg| {
            let mut u = Unpacker::new(msg.payload());
            let kind = u.u32().expect("charm create: kind");
            let payload = u.bytes().expect("charm create: payload");
            Charm::get(pe).construct(pe, ChareKind(kind), payload);
        });
        // Second handler for an invocation (already through the queue).
        let exec_h = pe.register_handler(|pe, msg| Charm::get(pe).execute(pe, msg));
        // First handler for an invocation arriving from the wire: swap
        // in the second handler and enqueue by priority — the §3.3 idiom.
        let invoke_h = pe.register_handler(|pe, mut msg| {
            msg.set_handler(Charm::get(pe).exec_h);
            csd::csd_enqueue_prio(pe, msg);
        });
        let exit_h = pe.register_handler(|pe, _| csd::csd_exit_scheduler(pe));
        let groups = group::GroupState::install_handlers(pe);
        // Readonly globals: published once (broadcast), read anywhere —
        // Charm's "readonly" variables.
        let readonly_h = pe.register_handler(|pe, msg| {
            let charm = Charm::get(pe);
            let mut u = Unpacker::new(msg.payload());
            let key = u.u32().expect("readonly: key");
            let data = u.bytes().expect("readonly: data").to_vec();
            let prev = charm.readonlies.lock().insert(key, data);
            assert!(
                prev.is_none(),
                "PE {}: readonly {key} published twice",
                pe.my_pe()
            );
            charm.qd.msg_processed(1);
        });

        // Migration protocol: install on the new home, ack to the old.
        let migrate_install_h =
            pe.register_handler(|pe, msg| Charm::get(pe).migrate_install(pe, &msg));
        let migrate_ack_h = pe.register_handler(|pe, msg| Charm::get(pe).migrate_ack(pe, &msg));
        let concat_combiner = pe.register_combiner(|a, b| {
            let mut out = Vec::with_capacity(a.len() + b.len());
            out.extend_from_slice(a);
            out.extend_from_slice(b);
            out
        });

        Charm {
            create_h,
            exec_h,
            invoke_h,
            exit_h,
            ctors: Mutex::new(Vec::new()),
            migrators: Mutex::new(HashMap::new()),
            objects: Mutex::new(IdMap::default()),
            concat_combiner,
            migrate_install_h,
            migrate_ack_h,
            next_slot: AtomicU64::new(1),
            qd,
            groups,
            readonly_h,
            readonlies: Mutex::new(HashMap::new()),
            chares_created: AtomicU64::new(0),
            entries_run: AtomicU64::new(0),
        }
    }

    /// The runtime previously installed on this PE, borrowed from its
    /// PE-local storage — what a handler resolves once per dispatch.
    #[inline]
    pub fn get(pe: &Pe) -> &Charm {
        pe.local_ref()
            .unwrap_or_else(|| panic!("PE {}: Charm::install was not called", pe.my_pe()))
    }

    /// The quiescence detector this runtime feeds.
    #[inline]
    pub fn quiescence(&self) -> &Quiescence {
        &self.qd
    }

    /// Register chare type `T` (same order on every PE!).
    pub fn register<T: Chare>(&self) -> ChareKind {
        let mut c = self.ctors.lock();
        c.push(Arc::new(|pe, id, payload| {
            Box::new(T::new(pe, id, payload)) as Box<dyn Chare>
        }));
        ChareKind((c.len() - 1) as u32)
    }

    /// Register a *migratable* chare type: like [`Charm::register`] but
    /// the kind can later move between PEs with [`Charm::migrate`].
    pub fn register_migratable<T: MigratableChare>(&self) -> ChareKind {
        let kind = self.register::<T>();
        let unpack: MigCtor =
            Arc::new(|pe, id, data| Box::new(T::unpack(pe, id, data)) as Box<dyn Chare>);
        let pack: Packer2 = Arc::new(|obj| {
            // The packer is only invoked on objects stored under this
            // kind's table entries, so the downcast always succeeds.
            (obj as &dyn std::any::Any)
                .downcast_ref::<T>()
                .expect("kind table guarantees the concrete type")
                .pack()
        });
        self.migrators.lock().insert(kind.0, (unpack, pack));
        kind
    }

    /// Asynchronously create a chare of `kind` somewhere in the machine
    /// (fire-and-forget; §3.3.1 seed). The constructor payload is
    /// `payload`; `prio` orders the creation against other scheduler
    /// work.
    pub fn create(&self, pe: &Pe, kind: ChareKind, payload: &[u8], prio: Priority) {
        self.qd.msg_created(1);
        let head = StackPacker::<8>::new()
            .u32(kind.0)
            .len_prefix(payload.len());
        let seed = Message::gather(self.create_h, &prio, [head.as_slice(), payload]);
        Ldb::get(pe).deposit(pe, seed);
    }

    /// Asynchronously invoke entry method `ep` of chare `id` with
    /// `payload` — the caller does not wait (§2.1).
    pub fn send(&self, pe: &Pe, id: ChareId, ep: u32, payload: &[u8], prio: Priority) {
        self.qd.msg_created(1);
        let head = StackPacker::<16>::new()
            .u64(id.slot)
            .u32(ep)
            .len_prefix(payload.len());
        let msg = Message::gather(self.invoke_h, &prio, [head.as_slice(), payload]);
        pe.sync_send_and_free(id.pe, msg);
    }

    /// Publish a readonly global: broadcast `data` under `key` to every
    /// PE (self included). Readonlies are write-once; publishing the
    /// same key twice is an error. The idiomatic place is program
    /// start-up, before the computation proper — exactly how Charm uses
    /// readonly variables.
    pub fn publish_readonly(&self, pe: &Pe, key: u32, data: &[u8]) {
        self.qd.msg_created(pe.num_pes() as u64);
        let head = StackPacker::<8>::new().u32(key).len_prefix(data.len());
        let parts = [head.as_slice(), data];
        pe.sync_broadcast_all(&Message::gather(self.readonly_h, &Priority::None, parts));
    }

    /// Read this PE's copy of a readonly global, if it has arrived.
    pub fn readonly(&self, key: u32) -> Option<Vec<u8>> {
        self.readonlies.lock().get(&key).cloned()
    }

    /// Read a readonly global, pumping the scheduler until it arrives.
    pub fn readonly_wait(&self, pe: &Pe, key: u32) -> Vec<u8> {
        converse_core::schedule_until(pe, || self.readonlies.lock().contains_key(&key));
        self.readonlies
            .lock()
            .get(&key)
            .cloned()
            .expect("present by schedule_until")
    }

    /// Stop the scheduler on every PE (the `CkExit` analogue): broadcast
    /// an exit message, including to the caller's own scheduler.
    pub fn exit_all(&self, pe: &Pe) {
        pe.sync_broadcast_all(&Message::new(self.exit_h, b""));
    }

    /// Number of live chares on this PE (forwarding stubs excluded).
    pub fn local_chares(&self) -> usize {
        self.objects
            .lock()
            .values()
            .filter(|s| matches!(s, Slot::Live { .. }))
            .count()
    }

    /// Destroy a local chare, freeing its slot. Returns false if `id` is
    /// remote, already gone, or a forwarding stub.
    pub fn destroy(&self, pe: &Pe, id: ChareId) -> bool {
        if id.pe != pe.my_pe() {
            return false;
        }
        let mut t = self.objects.lock();
        match t.get(&id.slot) {
            Some(Slot::Live { .. }) => {
                t.remove(&id.slot);
                true
            }
            _ => false,
        }
    }

    /// Move a **local, migratable** chare to `dst`. Asynchronous: the
    /// object is packed and shipped immediately; invocations that arrive
    /// while it is in flight are held and forwarded once the new home
    /// acknowledges, and the old slot forwards forever after. Returns
    /// false if `id` is not a local live migratable object.
    pub fn migrate(&self, pe: &Pe, id: ChareId, dst: usize) -> bool {
        if id.pe != pe.my_pe() {
            return false; // only the home PE may initiate a migration
        }
        if dst == pe.my_pe() {
            return true; // self-migration is a no-op
        }
        let (kind, obj) = {
            let mut t = self.objects.lock();
            match t.get_mut(&id.slot) {
                Some(Slot::Live { kind, obj }) => {
                    let kind = *kind;
                    match obj.take() {
                        Some(o) => {
                            let k = kind;
                            t.insert(id.slot, Slot::Migrating { held: Vec::new() });
                            (k, o)
                        }
                        None => panic!(
                            "PE {}: migrate from within the chare's own entry method",
                            pe.my_pe()
                        ),
                    }
                }
                _ => return false,
            }
        };
        let packer = match self.migrators.lock().get(&kind) {
            Some((_, p)) => p.clone(),
            None => {
                // Not migratable: put it back untouched.
                self.objects.lock().insert(
                    id.slot,
                    Slot::Live {
                        kind,
                        obj: Some(obj),
                    },
                );
                return false;
            }
        };
        let data = packer(obj.as_ref());
        drop(obj);
        self.qd.msg_created(1);
        let head = StackPacker::<24>::new()
            .u32(kind)
            .usize(id.pe)
            .u64(id.slot)
            .len_prefix(data.len());
        let parts = [head.as_slice(), &data[..]];
        pe.sync_send_and_free(
            dst,
            Message::gather(self.migrate_install_h, &Priority::None, parts),
        );
        pe.trace_event(converse_trace::Event::Migrate {
            obj: id.slot,
            from: id.pe,
            to: dst,
        });
        true
    }

    /// Where invocations of `id` currently land from this PE's point of
    /// view: follows a local forwarding entry one hop.
    pub fn current_home(&self, pe: &Pe, id: ChareId) -> ChareId {
        if id.pe == pe.my_pe() {
            if let Some(Slot::Forwarded { to }) = self.objects.lock().get(&id.slot) {
                return *to;
            }
        }
        id
    }

    fn migrate_install(&self, pe: &Pe, msg: &Message) {
        let mut u = Unpacker::new(msg.payload());
        let kind = u.u32().expect("migrate install: kind");
        let origin_pe = u.usize().expect("migrate install: origin pe");
        let origin_slot = u.u64().expect("migrate install: origin slot");
        let data = u.bytes().expect("migrate install: data");
        let unpack = self
            .migrators
            .lock()
            .get(&kind)
            .map(|(u, _)| u.clone())
            .unwrap_or_else(|| panic!("PE {}: kind {kind} not migratable here", pe.my_pe()));
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let new_id = ChareId {
            pe: pe.my_pe(),
            slot,
        };
        pe.trace_event(converse_trace::Event::ObjectCreate { kind });
        let obj = unpack(pe, new_id, data);
        self.objects.lock().insert(
            slot,
            Slot::Live {
                kind,
                obj: Some(obj),
            },
        );
        self.qd.msg_processed(1);
        // Tell the origin where the object lives now.
        self.qd.msg_created(1);
        let ack = StackPacker::<24>::new()
            .u64(origin_slot)
            .raw(&new_id.encode());
        pe.sync_send_and_free(origin_pe, Message::new(self.migrate_ack_h, ack.as_slice()));
    }

    fn migrate_ack(&self, pe: &Pe, msg: &Message) {
        let mut u = Unpacker::new(msg.payload());
        let origin_slot = u.u64().expect("migrate ack: slot");
        let new_id = ChareId::decode(u.raw(16).expect("migrate ack: id")).expect("id decodes");
        let held = {
            let mut t = self.objects.lock();
            match t.insert(origin_slot, Slot::Forwarded { to: new_id }) {
                Some(Slot::Migrating { held }) => held,
                other => panic!(
                    "PE {}: migrate ack for slot {origin_slot} in unexpected state {}",
                    pe.my_pe(),
                    match other {
                        None => "absent",
                        Some(Slot::Live { .. }) => "live",
                        Some(Slot::Forwarded { .. }) => "already forwarded",
                        Some(Slot::Migrating { .. }) => unreachable!(),
                    }
                ),
            }
        };
        self.qd.msg_processed(1);
        for m in held {
            self.forward(pe, new_id, m);
        }
    }

    /// Re-aim a held or arriving exec message at the migrated object:
    /// the message itself goes back on the wire with the first handler
    /// and the new slot written over the old ones — priority, entry
    /// point, payload and quiescence debt travel with it untouched (in
    /// place when the message is uniquely held, as a received one is).
    fn forward(&self, pe: &Pe, to: ChareId, mut msg: Message) {
        msg.set_handler(self.invoke_h);
        msg.payload_mut()[..8].copy_from_slice(&to.slot.to_le_bytes());
        pe.sync_send_and_free(to.pe, msg);
    }

    fn construct(&self, pe: &Pe, kind: ChareKind, payload: &[u8]) {
        let ctor = self
            .ctors
            .lock()
            .get(kind.0 as usize)
            .cloned()
            .unwrap_or_else(|| panic!("PE {}: unregistered chare kind {kind:?}", pe.my_pe()));
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let id = ChareId {
            pe: pe.my_pe(),
            slot,
        };
        pe.trace_event(converse_trace::Event::ObjectCreate { kind: kind.0 });
        let obj = ctor(pe, id, payload);
        self.objects.lock().insert(
            slot,
            Slot::Live {
                kind: kind.0,
                obj: Some(obj),
            },
        );
        self.chares_created.fetch_add(1, Ordering::Relaxed);
        self.qd.msg_processed(1);
    }

    fn execute(&self, pe: &Pe, msg: Message) {
        let mut u = Unpacker::new(msg.payload());
        let slot = u.u64().expect("charm exec: slot");
        let ep = u.u32().expect("charm exec: ep");
        let payload = u.bytes().expect("charm exec: payload");
        // Take the object out for the duration of the entry method: the
        // method may create chares or send messages (even to itself)
        // without holding the table lock.
        let mut obj = {
            let mut t = self.objects.lock();
            match t.get_mut(&slot) {
                Some(Slot::Live { obj, .. }) => obj.take().unwrap_or_else(|| {
                    panic!("PE {}: reentrant entry on chare {slot}", pe.my_pe())
                }),
                Some(Slot::Migrating { held }) => {
                    // In flight: hold until the new address is known.
                    held.push(msg);
                    return;
                }
                Some(Slot::Forwarded { to }) => {
                    let to = *to;
                    drop(t);
                    self.forward(pe, to, msg);
                    return;
                }
                None => panic!(
                    "PE {}: invocation for dead or foreign chare slot {slot}",
                    pe.my_pe()
                ),
            }
        };
        let id = ChareId {
            pe: pe.my_pe(),
            slot,
        };
        obj.entry(pe, id, ep, payload);
        self.entries_run.fetch_add(1, Ordering::Relaxed);
        // Put it back unless the entry destroyed it.
        if let Some(Slot::Live { obj: o, .. }) = self.objects.lock().get_mut(&slot) {
            *o = Some(obj);
        }
        self.qd.msg_processed(1);
    }
}
