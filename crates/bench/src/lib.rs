//! Benchmarks for the paper's performance claims (DESIGN.md §4,
//! EXPERIMENTS.md). The `benches/` targets run on [`criterion`], a
//! dependency-free stand-in for the criterion API; the `stress` binary is
//! the invariant soak.

#![warn(missing_docs)]

pub mod criterion;
