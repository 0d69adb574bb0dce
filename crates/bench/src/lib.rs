//! Benchmark bins of the paper's evaluation (§5) that have not moved to
//! `benchmark/` yet, and what they share.
//!
//! The paper's Figures 4–8 (one-way time against message size, Converse
//! against each machine's native layer, with and without scheduling)
//! are timed on the two wires between processes by the root crate's
//! `tests/paper_figures.rs`.

pub mod ccs_load;

use converse_core::{run_with, MachineConfig, Pe};
use std::sync::Arc;
use std::time::Duration;

/// Run `f` on a machine built from `cfg` and return the duration it
/// reports.
pub fn run_timed_with<F>(cfg: MachineConfig, f: F) -> Duration
where
    F: Fn(&Pe) -> Option<Duration> + Send + Sync + 'static,
{
    let out = Arc::new(parking_lot::Mutex::new(Duration::ZERO));
    let o2 = out.clone();
    run_with(cfg, move |pe| {
        if let Some(d) = f(pe) {
            *o2.lock() = d;
        }
    });
    let d = *out.lock();
    d
}
