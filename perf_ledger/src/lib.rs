//! Helpers of the `perf_ledger` benchmark (see the binary's module docs
//! for the workloads, the metrics and how to run it): order statistics,
//! seeded input generators, the benchmark's own spans with their
//! Chrome-trace export, and the metric catalogue with the result line.

pub mod gen;
pub mod report;
pub mod spans;
pub mod stats;
