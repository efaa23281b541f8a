//! Workload generation, throughput measurement, and correctness checking
//! for the Valois reproduction's benches and tests (DESIGN.md §4).
//!
//! * [`workload`] — operation mixes, key distributions, prefilling.
//! * [`runner`] — multi-threaded duration-based throughput runs with
//!   optional stall injection (the E2 preemption model).
//! * [`linearize`] — a Wing–Gong-style exhaustive linearizability checker
//!   for small recorded histories (validates the §2.1 requirement).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod latency;
pub mod linearize;
pub mod retry;
pub mod runner;
pub mod workload;

pub use latency::{LatencyHistogram, LatencySummary};
pub use linearize::{check_linearizable, History, Op, Recorded};
pub use retry::{run_hot_window, HotWindowConfig, HotWindowResult};
pub use runner::{run_fill, run_throughput, FillResult, RunConfig, RunResult};
pub use workload::{KeyDist, OpKind, OpMix, WorkloadSpec};
