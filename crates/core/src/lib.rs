//! The Converse core: the **unified scheduler** (paper §3.1.2) and
//! quiescence detection.
//!
//! "There are two kinds of messages in the system waiting to be
//! scheduled — messages that have come from the network, and those that
//! are locally generated. The scheduler's job is to repeatedly deliver
//! these messages to their respective handlers." The loop behind
//! [`csd::csd_scheduler`] — the machine's `Pe::schedule`, beside the
//! state it touches — is the pseudo-code of the paper's Figure 3: drain
//! the network first (handlers run immediately; they may re-enqueue
//! with a priority), then deliver one entry from the scheduler's queue,
//! and repeat until [`csd::csd_exit_scheduler`] is called.
//!
//! The scheduler is deliberately **exposed to the user program**: SPM
//! modules call it explicitly to donate idle time to concurrent modules
//! (`ScheduleFor(n)`, `ScheduleUntilIdle()` — here
//! [`csd::csd_scheduler`] with a count and
//! [`csd::csd_scheduler_until_idle`]), which is what makes the explicit
//! and implicit control regimes composable (paper §3.1.2 and footnote 1).
//!
//! [`quiescence`] adds the counting-based global quiescence detector that
//! message-driven runtimes (our mini-Charm) use to learn that no work
//! remains anywhere — a facility Converse's successors expose as
//! `CkStartQD`.

pub mod csd;
pub mod quiescence;

pub use converse_machine::{
    run, run_with, try_run_with, HandlerId, MachineConfig, Message, Pe, RunError, RunReport,
    ThreadBackend, Transport,
};
pub use converse_queue::QueueingMode;
pub use csd::{
    csd_enqueue, csd_enqueue_general, csd_exit_scheduler, csd_scheduler, csd_scheduler_until_idle,
    schedule_until,
};
pub use quiescence::Quiescence;
