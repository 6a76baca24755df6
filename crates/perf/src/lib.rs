//! # qca-perf
//!
//! Benchmark telemetry and regression gating for the whole stack. Every
//! performance claim in this repository flows through this crate: the
//! suite measures every layer from the SAT core to the HTTP service, the
//! result lands in a schema-versioned `BENCH_<pr>.json` at the repo
//! root with a machine fingerprint, and `ci.sh` gates every build by
//! comparing a fresh quick-mode run against the committed baseline with
//! noise-aware thresholds.
//!
//! | Module | Purpose |
//! |--------|---------|
//! | [`harness`] | Calibrated measurement: warmup, steady-state detection, outlier trimming, robust statistics |
//! | [`fingerprint`] | Machine identity (cores, arch, rustc, git SHA, profile) recorded in every report |
//! | [`report`] | The `BENCH_<pr>.json` schema: model, rendering, parsing, validation |
//! | [`mod@compare`] | Noise-aware old-vs-new gating (flat bound **and** measured dispersion) |
//! | [`suite`] | The benchmark suite: one or more cases per layer of [`report::LAYERS`] |
//! | [`json`] | Re-export of `qca_trace::json`, the workspace's one JSON reader/writer |
//!
//! The `qca-perf` binary exposes three subcommands: `run` (measure and
//! emit a report), `compare OLD NEW` (gate), and `check FILE` (schema
//! validation). See the README "Benchmarking" section for the workflow
//! and DESIGN.md for how the gate decides pass/fail.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod fingerprint;
pub mod harness;
pub mod report;
pub mod suite;

pub use compare::{compare, CompareConfig, CompareOutcome, Verdict};
pub use fingerprint::Fingerprint;
pub use harness::{measure, HarnessConfig, Measurement, SampleStats};
pub use qca_trace::json;
pub use report::{merge_runs, BenchReport, BenchResult, Direction, SCHEMA_VERSION};
pub use suite::{run_suite, SuiteConfig};
