//! The repo's one benchmark: four closed-loop workloads, a floor
//! estimator for per-message cost, and a per-layer budget traced from
//! outside the crates. See `README.md` for definitions and
//! `../BENCHMARK.json` for the contract this crate implements.

pub mod child;
pub mod collect;
pub mod driver;
pub mod exchange;
pub mod harness;
pub mod probes;
pub mod report;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod taskgraph;
pub mod validate;
