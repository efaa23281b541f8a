//! Benchmarks for the paper's performance claims (DESIGN.md §4,
//! EXPERIMENTS.md). Every `benches/` target times through [`report`] and
//! the five that commit numbers write `BENCH_*.json` through it; the
//! `stress` binary is the invariant soak.

#![warn(missing_docs)]

pub mod report;
