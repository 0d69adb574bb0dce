//! # Converse (Rust reproduction)
//!
//! An implementation in Rust of **"Converse: An Interoperable Framework
//! for Parallel Programming"** (Kale, Bhandarkar, Jagathesan, Krishnan —
//! IPPS 1996): a component-based runtime in which modules written in
//! different parallel paradigms — SPMD message passing, message-driven
//! objects, and cooperative threads — coexist in one application, each
//! paying only for the runtime features it uses.
//!
//! The workspace mirrors the paper's architecture (Figure 2); this crate
//! re-exports every component:
//!
//! | Module | Paper component | Crate |
//! |---|---|---|
//! | [`msg`] | generalized messages, priorities (§3.1.1) | `converse-msg` |
//! | [`queue`] | pluggable queueing strategies (§2.3) | `converse-queue` |
//! | [`net`] | the in-process machine, fault plans, the link protocol (§5) | `converse-net` |
//! | [`machine`] | MMI + EMI machine interface (§3.1.3) | `converse-machine` |
//! | [`core`] | the unified Csd scheduler, quiescence (§3.1.2) | `converse-core` |
//! | [`msgmgr`] | Cmm message manager (§3.2.1) | `converse-msgmgr` |
//! | [`threads`] | Cth thread objects (§3.2.2) | `converse-threads` |
//! | [`sync`] | Cts locks/condvars/barriers (§3.2.3) | `converse-sync` |
//! | [`ldb`] | seed load balancers (§3.3.1) | `converse-ldb` |
//! | [`trace`] | event tracing (§3.3.2) | `converse-trace` |
//! | [`charm`] | mini message-driven object runtime (§2.1) | `converse-charm` |
//! | [`sm`] | SM / tSM / PVM / NX layers (§4) | `converse-sm` |
//! | [`dp`] | data-parallel layer (DP-Charm stand-in) | `converse-dp` |
//! | [`ccs`] | client-server interface (external requests) | `converse-ccs` |
//! | [`taskbench`] | Task Bench-style workload matrix (Figs 4–8 analogue) | `converse-taskbench` |
//!
//! # Quickstart
//!
//! ```
//! use converse::prelude::*;
//!
//! // Boot a 2-PE machine; the closure is each PE's "main".
//! converse::core::run(2, |pe| {
//!     let hello = pe.register_handler(|pe, msg| {
//!         assert_eq!(msg.payload(), b"hi");
//!         csd_exit_scheduler(pe);
//!     });
//!     pe.barrier();
//!     if pe.my_pe() == 0 {
//!         pe.sync_send_and_free(1, Message::new(hello, b"hi"));
//!     } else {
//!         csd_scheduler(pe, -1); // message-driven until the handler stops us
//!     }
//!     pe.barrier();
//! });
//! ```

pub use converse_ccs as ccs;
pub use converse_charm as charm;
pub use converse_core as core;
pub use converse_dp as dp;
pub use converse_fiber as fiber;
pub use converse_ldb as ldb;
pub use converse_machine as machine;
pub use converse_msg as msg;
pub use converse_msgmgr as msgmgr;
pub use converse_net as net;
pub use converse_queue as queue;
pub use converse_sm as sm;
pub use converse_sync as sync;
pub use converse_taskbench as taskbench;
pub use converse_threads as threads;
pub use converse_trace as trace;

/// The names almost every Converse program needs.
pub mod prelude {
    pub use converse_core::{
        csd_enqueue, csd_enqueue_general, csd_exit_scheduler, csd_scheduler,
        csd_scheduler_until_idle, run, run_with, schedule_until, HandlerId, MachineConfig, Message,
        Pe, Quiescence, RunReport,
    };
    pub use converse_msg::{pack::Packer, pack::Unpacker, BitVecPrio, Priority};
    pub use converse_queue::QueueingMode;
}
