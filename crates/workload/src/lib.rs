//! # plwg-workload — workloads, fault schedules and experiment runners
//!
//! Everything needed to regenerate the paper's evaluation: the three
//! service configurations compared in Figure 2 (*no LWG service*, *static
//! LWG service*, *dynamic LWG service*), the two-disjoint-sets workload of
//! §3.3, partition/heal schedules, and measurement probes (latency,
//! throughput, recovery time, reconvergence time, message counts).
//!
//! The experiment binaries in `plwg-bench` are thin wrappers over the
//! runners in this crate; integration tests reuse them as well.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heal;
/// Interference experiment (ablation B).
pub mod interference;
mod mode;
/// Overlapping-subscription mapping-quality experiment.
pub mod overlap;
mod report;
mod twosets;

pub use heal::{run_heal, run_heal_sweep, HealParams, HealResult};
pub use mode::{BenchNode, Delivery, ServiceMode, Stamped, ViewRecord};
pub use report::{fmt_us, write_json_rows, Table};
pub use twosets::{run_two_sets, Traffic, TwoSetsParams, TwoSetsResult};
