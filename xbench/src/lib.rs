//! End-to-end and per-layer benchmark of the xborder pipelines. The binary
//! (`src/main.rs`) is the command; this library holds the workloads, the
//! traced rebuilds and the measurement code so the tests can drive them.

pub mod child;
pub mod probe;
pub mod rebuild;
pub mod report;
pub mod trace;
pub mod workloads;
