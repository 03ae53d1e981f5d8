//! The zkVC repository benchmark: six workloads, six end-to-end metrics
//! and a traced per-layer budget, measured from outside the crates by
//! timing calls into their public functions. `README.md` has the
//! catalogue; `../BENCHMARK.json` the contract the driver reads.

pub mod agree;
pub mod check;
pub mod cli;
pub mod cold;
pub mod common;
pub mod json;
pub mod library;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;
