//! End-to-end benchmark of chase-rs: time to the `nev` lowest eigenpairs on
//! four workloads, with a separate wall-clock traced run for the per-layer
//! split. See `README.md` in this directory.

pub mod hook;
pub mod host;
pub mod layers;
pub mod replay;
pub mod report;
pub mod run;
pub mod solve;
pub mod stats;
pub mod workload;
