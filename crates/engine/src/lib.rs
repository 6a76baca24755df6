//! # qca-engine
//!
//! Parallel batch-adaptation engine for SAT-based circuit adaptation:
//!
//! * a worker pool ([`Engine::adapt_batch`]) fanning a batch of
//!   [`AdaptJob`]s over crossbeam channels to N threads and collecting
//!   [`AdaptReport`]s in deterministic job order,
//! * a sharded LRU cache ([`cache::AdaptCache`]) keyed by the canonical
//!   structural hash of (circuit, hardware, options, limits) — see
//!   [`cache::AdaptCache::key`] — so resubmitted or structurally identical
//!   circuits are answered without re-solving,
//! * graceful degradation: per-job conflict budgets and wall-clock deadlines
//!   demote results down the [`AdaptStatus`] ladder
//!   (`Optimal → Feasible → Fallback`) instead of failing the batch,
//! * trust-but-verify mode ([`EngineConfig::verify`]): every solve runs
//!   with certification on and every report — cache hits and fallbacks
//!   included — is audited by the independent `qca-verify` checker, with
//!   verdicts on [`AdaptReport::audit`] and `verify.*` counters in the
//!   metrics,
//! * a metrics registry ([`metrics::MetricsRegistry`]) rebuilt as a
//!   [`qca_trace::TraceSink`] over the engine's `engine.*` counter events:
//!   atomic counters and log-scale histograms (cache hit rate, solve wall
//!   time, SAT conflicts/restarts, fallback count), dumped as JSON by the
//!   `qca-engine` CLI. Install your own tracer via
//!   [`EngineConfig::tracer`] to watch the same event stream
//!   (plus per-job `engine.job` spans and the full solve-pipeline spans)
//!   live.
//!
//! # Examples
//!
//! ```
//! use qca_engine::{AdaptJob, Engine, EngineConfig};
//! use qca_circuit::{Circuit, Gate};
//! use qca_hw::{spin_qubit_model, GateTimes};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[1, 0]);
//! c.push(Gate::Cx, &[0, 1]);
//! let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
//! let hw = spin_qubit_model(GateTimes::D0);
//! let reports = engine.adapt_batch(&hw, &[AdaptJob::new(c)]);
//! assert!(hw.supports_circuit(&reports[0].circuit));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod engine;
pub mod metrics;
pub mod pool;

pub use engine::{
    AdaptJob, AdaptReport, AdaptStatus, AuditOutcome, Engine, EngineConfig, JobPolicy,
    RecalibrationReport,
};
pub use pool::{EnginePool, SubmitError};
