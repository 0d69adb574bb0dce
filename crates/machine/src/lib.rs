//! The Converse Machine Interface (paper §3.1.3) and PE run harness.
//!
//! The machine interface is "divided into two parts: the MMI (Minimal
//! Machine Interface) and the EMI (Extended Machine Interface)". This
//! crate implements both over the simulated interconnect from
//! `converse-net`:
//!
//! * **MMI** ([`mmi`], methods on [`Pe`]): process creation/coordination
//!   ([`run`]), synchronous and asynchronous sends, broadcast variants,
//!   message retrieval (`get_msg`, `deliver_msgs`, `get_specific_msg`),
//!   timers, processor ids, and atomic console I/O.
//! * **EMI** ([`gptr`], [`coll`], [`pgrp`], vector send): gather-style
//!   vector sends, global pointers with synchronous and asynchronous
//!   get/put, processor groups with spanning-tree multicast, and global
//!   reductions/barriers.
//!
//! The unit of execution is the **PE** (logical processor): one OS thread
//! created by [`run`] per configured processor, all connected by one
//! [`converse_net::Interconnect`]. A [`Pe`] handle is the Rust stand-in
//! for Converse's per-processor global state (`Cpv`): explicit rather
//! than ambient, so tests can run many machines concurrently.
//!
//! One execution context of a PE runs at a time — the holder of its run
//! token ([`Owner`]). What only that context touches lives in
//! [`OwnerCell`]s ([`owner`]): lock-free for the owner, a panic for
//! anyone else. [`Pe`]'s docs say which calls are owner-only.
//!
//! What the paper calls `CmiGrabBuffer` — the explicit ownership-transfer
//! protocol for received buffers — is subsumed by Rust move semantics:
//! retrieval APIs hand the caller an owned [`converse_msg::Message`], so
//! "grabbing" is the default and cannot be forgotten.

mod append;
pub mod coll;
pub mod exo;
pub mod gptr;
pub mod io;
mod locals;
pub mod mmi;
pub mod owner;
pub mod pe;
pub mod pgrp;
mod run;
pub mod scatter;
mod wire_run;

pub use converse_msg::{HandlerId, Message};
pub use converse_net::{
    Channel, CmiTransport, Delivery, DeliveryMode, FaultPlan, FaultStats, LinkFaults, NetModel,
    PeLoad, StallWindow,
};
pub use exo::{ExoReply, ExoToken, MachineHandle, MachineService};
#[cfg(debug_assertions)]
pub use owner::cell_census;
pub use owner::{Owner, OwnerCell, Pinned};
pub use pe::{Handler, Pe};
pub use run::{
    run, run_on_each_transport, run_with, try_run_with, MachineConfig, RunError, RunReport,
    ThreadBackend, Transport,
};
pub use wire_run::in_socket_worker;
