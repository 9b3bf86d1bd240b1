//! # textmr-perfbench — the textmr benchmark
//!
//! One command runs a named workload with a seed, checks every job's
//! output against a reference computed at set-up, and prints the
//! end-to-end metrics (tracing off) or the per-layer metrics (a separate
//! traced run). See `README.md` beside this crate for the workloads, the
//! layer → metric → end-to-end map, and the comparison tool.
//!
//! The benchmark never instruments the engine: its spans wrap the
//! benchmark's own calls into each layer's public functions, and the
//! per-layer numbers come from those spans plus the counters and `OpTimes`
//! the engine already returns.

#![forbid(unsafe_code)]

pub mod drive;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
