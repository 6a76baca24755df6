//! The batch-adaptation engine: worker pool, degradation ladder, watchdog.

use crate::cache::AdaptCache;
use crate::metrics::MetricsRegistry;
use qca_adapt::deadline::Watchdog;
use qca_adapt::{
    adapt, recalibrate_adaptation, AdaptContext, AdaptError, AdaptLimits, AdaptOptions, Adaptation,
    Objective,
};
use qca_baselines::{direct_translation, template_optimization, TemplateObjective};
use qca_circuit::Circuit;
use qca_hw::HardwareModel;
use qca_trace::Tracer;
use qca_verify::{audit_adaptation_with_coupling, audit_baseline_with_coupling};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One adaptation request: a circuit plus its solve options and per-job
/// run controls.
#[derive(Debug, Clone, Default)]
pub struct AdaptJob {
    /// The circuit to adapt.
    pub circuit: Circuit,
    /// Objective, rules, exactness, topology.
    pub options: AdaptOptions,
    /// Caller-owned conflict budget; jobs without one inherit
    /// [`EngineConfig::job_conflict_budget`].
    pub limits: AdaptLimits,
    /// Caller-owned cancellation flag; jobs without one may get a
    /// watchdog-driven flag when [`EngineConfig::job_timeout`] is set.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl AdaptJob {
    /// A job with the given circuit and default options.
    pub fn new(circuit: Circuit) -> AdaptJob {
        AdaptJob {
            circuit,
            ..AdaptJob::default()
        }
    }

    /// A job with the given circuit and objective.
    pub fn with_objective(circuit: Circuit, objective: Objective) -> AdaptJob {
        AdaptJob {
            circuit,
            options: AdaptOptions {
                objective,
                ..AdaptOptions::default()
            },
            ..AdaptJob::default()
        }
    }
}

/// How a job's result was obtained — the engine's degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptStatus {
    /// The OMT search proved the selection optimal.
    Optimal,
    /// A feasible adaptation was found but a budget expired before the
    /// optimality proof; the result is the best incumbent.
    Feasible,
    /// The solve failed or was cancelled before any incumbent existed; the
    /// result is a baseline adaptation (greedy template optimization, or
    /// direct translation when even that fails).
    Fallback,
}

impl AdaptStatus {
    /// Status of a solved adaptation: optimal when its search proved so.
    fn of(adaptation: &Adaptation) -> AdaptStatus {
        if adaptation.solver.optimal {
            AdaptStatus::Optimal
        } else {
            AdaptStatus::Feasible
        }
    }
}

impl std::fmt::Display for AdaptStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdaptStatus::Optimal => "optimal",
            AdaptStatus::Feasible => "feasible",
            AdaptStatus::Fallback => "fallback",
        };
        f.write_str(s)
    }
}

/// Verdict of the independent audit a verifying engine ran on one report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The independent auditor confirmed the report.
    Passed,
    /// The audit found a discrepancy; the message describes it.
    Failed(String),
}

impl std::fmt::Display for AuditOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditOutcome::Passed => f.write_str("passed"),
            AuditOutcome::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// Result of one batch job.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// Index of the job in the submitted batch (reports are returned sorted
    /// by this index, independent of worker scheduling).
    pub job: usize,
    /// Where on the degradation ladder the result came from.
    pub status: AdaptStatus,
    /// The adapted (or fallback) circuit.
    pub circuit: Circuit,
    /// Solver objective value in fixed-point units (`None` for fallbacks).
    pub objective_value: Option<i64>,
    /// `true` when the result came from the cache.
    pub cache_hit: bool,
    /// Wall time this job took inside its worker (cache hits ≈ 0).
    pub wall: Duration,
    /// SAT statistics of the solve that produced the result (also set on
    /// cache hits — they describe the original solve; `None` for fallbacks).
    pub solver_stats: Option<qca_sat::SolverStats>,
    /// The solve error that triggered the fallback, if any.
    pub error: Option<AdaptError>,
    /// The full adaptation record behind this report (shared with the
    /// cache; also set on cache hits). `None` for fallbacks, which never
    /// went through the solver.
    pub adaptation: Option<Arc<Adaptation>>,
    /// Independent audit verdict; `Some` exactly when
    /// [`EngineConfig::verify`] is on.
    pub audit: Option<AuditOutcome>,
    /// Findings from the preflight lint stage (empty when linting is off
    /// or the job was clean). A rejected job additionally carries
    /// [`AdaptError::Rejected`] in [`AdaptReport::error`].
    pub diagnostics: Vec<qca_lint::Diagnostic>,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for [`Engine::adapt_batch`]; `0` means one per
    /// available CPU.
    pub workers: usize,
    /// Total adaptations the result cache retains (0 disables caching).
    pub cache_capacity: usize,
    /// Default per-job cap on total SAT conflicts (`None`: unlimited).
    /// Jobs that carry their own `limits.total_conflicts` keep it.
    /// Deterministic — the same budget yields the same result on every run
    /// and worker count.
    pub job_conflict_budget: Option<u64>,
    /// Per-job wall-clock deadline enforced by a watchdog thread
    /// (`None`: no deadline). Unlike conflict budgets this is
    /// *nondeterministic*: results depend on machine speed. Jobs that carry
    /// their own cancellation flag are left alone.
    pub job_timeout: Option<Duration>,
    /// Tracer for engine events. The engine tees this with its metrics
    /// registry, so `engine.*` counters feed both; the default disabled
    /// tracer still populates metrics.
    pub tracer: Tracer,
    /// Trust-but-verify mode: force certification on every solve and run
    /// the independent `qca-verify` audit on every report — cache hits and
    /// fallbacks included. Verdicts land in [`AdaptReport::audit`] and the
    /// `verify.*` counters; a failed audit never fails the batch.
    pub verify: bool,
    /// Run the static preflight lint stage (`engine.preflight` span) on
    /// every job before the cache lookup. Findings land in
    /// [`AdaptReport::diagnostics`] and the `lint.*` counters;
    /// error-severity findings reject the job to a baseline fallback
    /// without any solve.
    pub lint: bool,
    /// Escalate warning-severity preflight findings to errors (implies
    /// [`EngineConfig::lint`]): a job with any warning is rejected.
    pub deny_warnings: bool,
    /// No effect: nothing reads it and [`EngineConfig::validate`] does not
    /// check it. It remains only because the `e2ebench` workspace names it
    /// in a struct literal, and goes with the next change that may edit
    /// that benchmark.
    pub portfolio_members: usize,
    /// No effect, like [`EngineConfig::portfolio_members`], and kept for
    /// the same reason.
    pub preprocess: bool,
    /// Persistent cache tier (`qca-store`). When attached, the engine warm
    /// restarts by replaying every stored record into the in-memory LRU at
    /// construction, consults the store after an LRU miss (a disk hit is
    /// served as a cache hit and promoted back into the LRU), and appends
    /// every successful solve — fallbacks are never persisted, matching the
    /// in-memory cache policy. `store.*` counters land in the metrics
    /// registry.
    pub store: Option<Arc<qca_store::Store>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            cache_capacity: 256,
            job_conflict_budget: None,
            job_timeout: None,
            tracer: Tracer::disabled(),
            verify: false,
            lint: false,
            deny_warnings: false,
            portfolio_members: 0,
            preprocess: true,
            store: None,
        }
    }
}

impl EngineConfig {
    /// Hard ceiling on configured worker threads: beyond this the pool is
    /// certainly a mistake (each worker runs a full solver).
    pub const MAX_WORKERS: usize = 1024;

    /// Rejects worker counts beyond [`EngineConfig::MAX_WORKERS`], a zero
    /// deadline, and a zero conflict budget.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    ///
    /// # Examples
    ///
    /// ```
    /// use qca_engine::EngineConfig;
    /// use std::time::Duration;
    ///
    /// let config = EngineConfig {
    ///     workers: 2,
    ///     job_timeout: Some(Duration::from_secs(5)),
    ///     ..EngineConfig::default()
    /// };
    /// assert!(config.validate().is_ok());
    /// let zero_budget = EngineConfig {
    ///     job_conflict_budget: Some(0),
    ///     ..EngineConfig::default()
    /// };
    /// assert!(zero_budget.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        if self.workers > EngineConfig::MAX_WORKERS {
            return Err(format!(
                "workers = {} exceeds the {} ceiling",
                self.workers,
                EngineConfig::MAX_WORKERS
            ));
        }
        if self.job_timeout == Some(Duration::ZERO) {
            return Err("job_timeout = 0 would cancel every job before it starts".to_string());
        }
        if self.job_conflict_budget == Some(0) {
            return Err(
                "job_conflict_budget = Some(0) can never make progress; leave it unset for \
                 unlimited"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Per-job policy toggles: which optional engine stages run for one job.
///
/// The batch path derives this from [`EngineConfig`]; callers submitting
/// in-memory jobs one at a time (e.g. `qca-serve` mapping per-request query
/// parameters) can override it per job via [`Engine::adapt_one_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JobPolicy {
    /// Force certification and run the independent audit on the report.
    pub verify: bool,
    /// Run the static preflight lint stage before the cache lookup.
    pub lint: bool,
    /// Escalate preflight warnings to rejections (implies `lint`).
    pub deny_warnings: bool,
}

impl JobPolicy {
    /// The policy [`EngineConfig`] implies for every batch job.
    pub fn from_config(config: &EngineConfig) -> JobPolicy {
        JobPolicy {
            verify: config.verify,
            lint: config.lint,
            deny_warnings: config.deny_warnings,
        }
    }
}

/// The parallel batch-adaptation engine.
///
/// Owns a result cache and a metrics registry that persist across batches;
/// worker threads are scoped per [`Engine::adapt_batch`] call.
///
/// # Examples
///
/// ```
/// use qca_engine::{AdaptJob, Engine, EngineConfig};
/// use qca_circuit::{Circuit, Gate};
/// use qca_hw::{spin_qubit_model, GateTimes};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cx, &[0, 1]);
/// c.push(Gate::Cx, &[1, 0]);
/// c.push(Gate::Cx, &[0, 1]);
/// let hw = spin_qubit_model(GateTimes::D0);
/// let engine = Engine::new(EngineConfig::default());
/// let reports = engine.adapt_batch(&hw, &[AdaptJob::new(c.clone()), AdaptJob::new(c)]);
/// assert_eq!(reports.len(), 2);
/// // Identical circuits share one cache entry: the second job is a hit.
/// assert!(reports.iter().any(|r| r.cache_hit));
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: AdaptCache,
    metrics: Arc<MetricsRegistry>,
    /// The configured tracer teed with the metrics registry: every
    /// `engine.*` counter lands in the registry even when the caller's
    /// tracer is disabled.
    tracer: Tracer,
    /// Stampede protection: concurrent identical jobs (same cache key)
    /// coalesce onto one in-flight solve; followers reuse the leader's
    /// result as a cache hit.
    singleflight: Arc<qca_store::SingleFlight<Arc<Adaptation>>>,
    /// Every successfully solved job, remembered for
    /// [`Engine::recalibrate`]. Bounded by the cache capacity; deduplicated
    /// by cache key.
    corpus: Mutex<Vec<CorpusEntry>>,
}

/// One recalibratable solve: the job inputs and the adaptation they
/// produced, as cached.
#[derive(Debug, Clone)]
struct CorpusEntry {
    key: u64,
    circuit: Circuit,
    options: AdaptOptions,
    limits: AdaptLimits,
    adaptation: Arc<Adaptation>,
}

/// What [`Engine::recalibrate`] did, entry by entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecalibrationReport {
    /// Corpus entries visited.
    pub entries: usize,
    /// Entries whose cached optimum still held under the new hardware data
    /// (certificate-backed re-check; no OMT search).
    pub reused: usize,
    /// Entries re-solved (warm-started from the previous selection).
    pub resolved: usize,
    /// Entries whose re-check or re-solve errored; their cache entries are
    /// left untouched.
    pub failed: usize,
}

impl Engine {
    /// An engine with the given configuration.
    ///
    /// # Panics
    ///
    /// When `config` fails [`EngineConfig::validate`].
    pub fn new(config: EngineConfig) -> Engine {
        if let Err(e) = config.validate() {
            panic!("invalid engine config: {e}");
        }
        let cache = AdaptCache::new(config.cache_capacity);
        let metrics = Arc::new(MetricsRegistry::new());
        let tracer = config.tracer.with_extra_sink(metrics.clone());
        // Warm restart: replay every persisted record into the LRU so a
        // freshly started engine serves its previous working set as cache
        // hits instead of re-solving it.
        if let Some(store) = &config.store {
            let mut span = tracer.span("store.warm_restart");
            let mut replayed = 0u64;
            store.replay(|key, adaptation| {
                cache.insert(key, adaptation);
                replayed += 1;
            });
            if replayed > 0 {
                tracer.counter("store.replays", replayed);
            }
            span.set_note(format!("replayed={replayed}"));
        }
        Engine {
            config,
            cache,
            metrics,
            tracer,
            singleflight: Arc::new(qca_store::SingleFlight::new()),
            corpus: Mutex::new(Vec::new()),
        }
    }

    /// The attached persistent store, when the engine has one.
    pub fn store(&self) -> Option<&Arc<qca_store::Store>> {
        self.config.store.as_ref()
    }

    /// The engine's metrics registry (shared across batches).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The engine's tracer: the configured tracer teed with the metrics
    /// registry. Hosts embedding the engine (e.g. `qca-serve`) emit their
    /// own spans through this so they join the engine's spans in the same
    /// sinks and feed the same metrics.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The engine's result cache (shared across batches).
    pub fn cache(&self) -> &AdaptCache {
        &self.cache
    }

    /// Number of worker threads a batch will use.
    pub fn effective_workers(&self) -> usize {
        if self.config.workers > 0 {
            self.config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Adapts every job against `hw` on the worker pool.
    ///
    /// Reports come back sorted by job index, and — absent wall-clock
    /// deadlines — their contents are identical for every worker count:
    /// each job is solved by a deterministic single-threaded solver, and
    /// cache entries are keyed so that a hit returns exactly what the solve
    /// would have produced.
    pub fn adapt_batch(&self, hw: &HardwareModel, jobs: &[AdaptJob]) -> Vec<AdaptReport> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let workers = self.effective_workers().min(jobs.len()).max(1);
        self.tracer
            .counter("engine.jobs_submitted", jobs.len() as u64);

        // Workers claim jobs by bumping a shared cursor; reports come back
        // over a channel and are slotted by index below.
        let next = AtomicUsize::new(0);
        let (res_tx, res_rx) = mpsc::channel::<AdaptReport>();

        // The shared watchdog (crates/core `deadline` module) owns its own
        // poll thread and joins it on drop at the end of this call.
        let watchdog = self.config.job_timeout.map(|_| Watchdog::new());
        let policy = JobPolicy::from_config(&self.config);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let res_tx = res_tx.clone();
                let wd = watchdog.as_ref();
                let next = &next;
                scope.spawn(move || {
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        // A panicking job must not take its worker (and the
                        // rest of the batch) down with it: catch the unwind
                        // and demote the job to a per-job error report.
                        let report = catch_unwind(AssertUnwindSafe(|| {
                            self.run_job(hw, index, job, wd, policy)
                        }))
                        .unwrap_or_else(|payload| {
                            self.panicked_report(hw, index, job, payload.as_ref(), policy)
                        });
                        if res_tx.send(report).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            // Collect inside the scope so the iterator terminates when the
            // last worker drops its sender.
            let mut out: Vec<Option<AdaptReport>> = jobs.iter().map(|_| None).collect();
            for report in res_rx.iter() {
                let slot = report.job;
                out[slot] = Some(report);
            }
            // The panic shield reports every claimed job; a worker that died
            // outside it makes the scope itself panic once joined.
            out.into_iter()
                .map(|r| r.expect("every job reports through the panic shield"))
                .collect()
        })
    }

    /// Adapts a single in-memory job through the same ladder as
    /// [`Engine::adapt_batch`] (preflight → cache → solve → baseline
    /// fallback, with the panic shield), on the *calling* thread.
    ///
    /// This is the submission API for callers that schedule jobs themselves
    /// — [`EnginePool`](crate::EnginePool) workers and `qca-serve` request
    /// handlers — rather than handing the engine a whole batch.
    /// [`EngineConfig::job_timeout`] is *not* applied here: single-job
    /// callers own their deadlines and install a pre-armed cancellation
    /// flag on [`AdaptJob::cancel`] (see `qca_adapt::deadline::Watchdog`).
    /// The report's [`AdaptReport::job`] index is always 0.
    pub fn adapt_one(&self, hw: &HardwareModel, job: &AdaptJob) -> AdaptReport {
        self.adapt_one_with(hw, job, JobPolicy::from_config(&self.config))
    }

    /// [`Engine::adapt_one`] with an explicit per-job [`JobPolicy`],
    /// overriding what [`EngineConfig`] implies (e.g. per-request
    /// `?verify=`/`?lint=` toggles in `qca-serve`).
    pub fn adapt_one_with(
        &self,
        hw: &HardwareModel,
        job: &AdaptJob,
        policy: JobPolicy,
    ) -> AdaptReport {
        self.tracer.counter("engine.jobs_submitted", 1);
        catch_unwind(AssertUnwindSafe(|| self.run_job(hw, 0, job, None, policy)))
            .unwrap_or_else(|payload| self.panicked_report(hw, 0, job, payload.as_ref(), policy))
    }

    /// Runs one job through the ladder: cache → solve → baseline fallback.
    fn run_job(
        &self,
        hw: &HardwareModel,
        index: usize,
        job: &AdaptJob,
        watchdog: Option<&Watchdog>,
        policy: JobPolicy,
    ) -> AdaptReport {
        let t0 = Instant::now();
        let mut job_span = self.tracer.span_with("engine.job", || {
            format!("job={index} qubits={}", job.circuit.num_qubits())
        });
        // Per-job budget: the job's own limit wins over the engine default.
        let mut limits = job.limits.clone();
        if limits.total_conflicts.is_none() {
            limits.total_conflicts = self.config.job_conflict_budget;
        }
        // A verifying engine solves with certification on, whatever the job
        // asked for: every optimal claim must come back with a certificate.
        let mut options = job.options.clone();
        if policy.verify {
            options.certify = true;
        }
        // Static preflight: prove infeasibility (and surface shape/model
        // problems) before the cache lookup or any solve. A rejection
        // degrades straight to the baseline ladder with no `smt.encode`
        // phase ever running.
        let mut diagnostics = Vec::new();
        if policy.lint || policy.deny_warnings {
            let mut span = self
                .tracer
                .span_with("engine.preflight", || format!("job={index}"));
            let outcome =
                qca_adapt::preflight_with_coupling(&job.circuit, hw, options.coupling.as_ref());
            let mut diags = match outcome {
                Ok(diags) => diags,
                Err(AdaptError::Rejected(diags)) => diags,
                Err(other) => {
                    // preflight only rejects today; route anything new
                    // through the same fallback path as a solve error.
                    span.set_note("error");
                    drop(span);
                    job_span.set_note("preflight_error");
                    return self.fallback_report(hw, index, job, other, Vec::new(), t0, policy);
                }
            };
            if policy.deny_warnings {
                qca_lint::escalate_warnings(&mut diags);
            }
            let counts = qca_lint::count_severities(&diags);
            if counts.errors > 0 {
                self.tracer.counter("lint.errors", counts.errors as u64);
            }
            if counts.warnings > 0 {
                self.tracer.counter("lint.warnings", counts.warnings as u64);
            }
            if counts.errors > 0 {
                self.tracer.counter("lint.rejections", 1);
                span.set_note(format!("rejected errors={}", counts.errors));
                drop(span);
                job_span.set_note("rejected");
                return self.fallback_report(
                    hw,
                    index,
                    job,
                    AdaptError::Rejected(diags.clone()),
                    diags,
                    t0,
                    policy,
                );
            }
            span.set_note(format!("findings={}", diags.len()));
            diagnostics = diags;
        }

        let key = AdaptCache::key(&job.circuit, hw, &options, &limits);

        if let Some(hit) = self.cache.get(key) {
            self.tracer.counter("engine.cache_hit", 1);
            job_span.set_note("cache_hit");
            return self.served_report(hw, index, job, hit, t0, diagnostics, policy);
        }
        self.tracer.counter("engine.cache_miss", 1);

        // Second cache tier: the persistent store. A disk hit is promoted
        // back into the LRU and served exactly like a memory hit.
        if let Some(store) = &self.config.store {
            if let Some(hit) = store.get(key) {
                self.tracer.counter("store.hits", 1);
                self.cache.insert(key, hit.clone());
                job_span.set_note("store_hit");
                return self.served_report(hw, index, job, hit, t0, diagnostics, policy);
            }
            self.tracer.counter("store.misses", 1);
        }

        // Wall-clock deadline (only when the caller didn't install their own
        // cancellation flag — one flag per solve).
        let mut cancel = job.cancel.clone();
        if let (Some(wd), Some(timeout), None) =
            (watchdog, self.config.job_timeout, cancel.as_ref())
        {
            let flag = Arc::new(AtomicBool::new(false));
            wd.register(Instant::now() + timeout, flag.clone());
            cancel = Some(flag);
        }

        // Single-flight: concurrent identical jobs coalesce onto one solve.
        // The leader carries a guard that publishes its result (or `None`
        // on failure/panic, via `Drop`); followers block — re-checking
        // their own cancellation flag — and reuse the leader's adaptation
        // as a cache hit. A follower woken with `None` solves on its own.
        let flight_cancel = cancel.clone();
        let leader_guard = match self.singleflight.join(key, move || {
            flight_cancel
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
        }) {
            qca_store::Flight::Leader(guard) => Some(guard),
            qca_store::Flight::Follower(Some(hit)) => {
                self.tracer.counter("singleflight.coalesced", 1);
                job_span.set_note("coalesced");
                return self.served_report(hw, index, job, hit, t0, diagnostics, policy);
            }
            // The leader failed (or panicked): solve independently rather
            // than propagating its failure to an unrelated request.
            qca_store::Flight::Follower(None) => None,
            qca_store::Flight::Cancelled => {
                job_span.set_note("cancelled_waiting");
                return self.fallback_report(
                    hw,
                    index,
                    job,
                    AdaptError::Cancelled,
                    diagnostics,
                    t0,
                    policy,
                );
            }
        };

        let ctx = AdaptContext {
            options,
            limits,
            tracer: self.tracer.clone(),
            cancel,
            warm_hint: None,
        };
        let mut report = match adapt(&job.circuit, hw, &ctx) {
            Ok(adaptation) => {
                let wall = t0.elapsed();
                self.record_solve(&wall, &adaptation.solver.solver_stats);
                self.tracer.counter("engine.job_completed", 1);
                let status = AdaptStatus::of(&adaptation);
                self.count_status(status);
                job_span.set_note(status.to_string());
                let adaptation = Arc::new(adaptation);
                // Cache Optimal and Feasible results alike: the key includes
                // the conflict budget, so a budget-degraded incumbent is only
                // reused for jobs that would re-run the identical search.
                self.cache.insert(key, adaptation.clone());
                self.persist(key, &adaptation);
                if let Some(guard) = leader_guard {
                    guard.complete(Some(adaptation.clone()));
                }
                self.remember(
                    key,
                    &job.circuit,
                    &ctx.options,
                    &ctx.limits,
                    adaptation.clone(),
                );
                AdaptReport {
                    job: index,
                    status,
                    circuit: adaptation.circuit.clone(),
                    objective_value: Some(adaptation.solver.objective_value),
                    cache_hit: false,
                    wall,
                    solver_stats: Some(adaptation.solver.solver_stats.clone()),
                    error: None,
                    adaptation: Some(adaptation),
                    audit: None,
                    diagnostics,
                }
            }
            Err(error) => {
                if let Some(guard) = leader_guard {
                    guard.complete(None);
                }
                job_span.set_note("fallback");
                return self.fallback_report(hw, index, job, error, diagnostics, t0, policy);
            }
        };
        self.audit_report(hw, &job.circuit, &job.options, &mut report, policy);
        report
    }

    /// Completes a job answered without its own solve — an LRU hit, a
    /// persistent-store hit, or a coalesced single-flight follower. All
    /// three present as `cache_hit: true`: the caller got a previously
    /// solved (or concurrently solved) result at cache-lookup cost. They are
    /// audited like fresh solves, so a corrupted cache entry cannot dodge
    /// verification.
    #[allow(clippy::too_many_arguments)]
    fn served_report(
        &self,
        hw: &HardwareModel,
        index: usize,
        job: &AdaptJob,
        hit: Arc<Adaptation>,
        t0: Instant,
        diagnostics: Vec<qca_lint::Diagnostic>,
        policy: JobPolicy,
    ) -> AdaptReport {
        self.tracer.counter("engine.job_completed", 1);
        let status = AdaptStatus::of(&hit);
        self.count_status(status);
        let mut report = AdaptReport {
            job: index,
            status,
            circuit: hit.circuit.clone(),
            objective_value: Some(hit.solver.objective_value),
            cache_hit: true,
            wall: t0.elapsed(),
            solver_stats: Some(hit.solver.solver_stats.clone()),
            error: None,
            adaptation: Some(hit),
            audit: None,
            diagnostics,
        };
        self.audit_report(hw, &job.circuit, &job.options, &mut report, policy);
        report
    }

    /// Appends one solved adaptation to the persistent store (when one is
    /// attached), surfacing any compaction it triggered as a counter. A
    /// persistence failure is deliberately non-fatal: the solve already
    /// succeeded and the in-memory cache holds the result.
    fn persist(&self, key: u64, adaptation: &Arc<Adaptation>) {
        let Some(store) = &self.config.store else {
            return;
        };
        if let Ok(true) = store.append(key, adaptation) {
            self.tracer.counter("store.compactions", 1);
        }
    }

    /// Records a solved job for later recalibration, deduplicating by
    /// cache key and honoring the cache-capacity bound (oldest entry out).
    fn remember(
        &self,
        key: u64,
        circuit: &Circuit,
        options: &AdaptOptions,
        limits: &AdaptLimits,
        adaptation: Arc<Adaptation>,
    ) {
        if self.config.cache_capacity == 0 {
            return;
        }
        let mut corpus = self.corpus.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = corpus.iter_mut().find(|e| e.key == key) {
            entry.adaptation = adaptation;
            return;
        }
        if corpus.len() >= self.config.cache_capacity {
            corpus.remove(0);
        }
        corpus.push(CorpusEntry {
            key,
            circuit: circuit.clone(),
            options: options.clone(),
            limits: limits.clone(),
            adaptation,
        });
    }

    /// Re-validates every remembered solve against `hw` — typically a
    /// drifted calibration snapshot of the hardware the corpus was solved
    /// on. Each entry's cached optimum is re-checked under the new fidelity
    /// table (at most two SAT queries when it still holds, via
    /// [`qca_adapt::recheck_optimum`]); only entries whose optimality no
    /// longer holds pay for a fresh OMT search, warm-started from the
    /// previous selection. Refreshed adaptations land in the result cache
    /// under the new hardware's keys, so a subsequent batch against `hw`
    /// hits the cache instead of solving.
    ///
    /// Emits `recalib.entries` / `recalib.reused` / `recalib.resolved` /
    /// `recalib.failed` counters under an `engine.recalibrate` span; a
    /// verifying engine additionally audits every refreshed adaptation.
    pub fn recalibrate(&self, hw: &HardwareModel) -> RecalibrationReport {
        let entries: Vec<CorpusEntry> = self
            .corpus
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut report = RecalibrationReport {
            entries: entries.len(),
            ..RecalibrationReport::default()
        };
        let mut span = self.tracer.span_with("engine.recalibrate", || {
            format!("entries={}", entries.len())
        });
        self.tracer.counter("recalib.entries", entries.len() as u64);
        for entry in entries {
            let mut options = entry.options.clone();
            if self.config.verify {
                options.certify = true;
            }
            let ctx = AdaptContext {
                options,
                limits: entry.limits.clone(),
                tracer: self.tracer.clone(),
                cancel: None,
                warm_hint: None,
            };
            match recalibrate_adaptation(&entry.circuit, hw, &entry.adaptation, &ctx) {
                Ok(recal) => {
                    if recal.reused() {
                        report.reused += 1;
                        self.tracer.counter("recalib.reused", 1);
                    } else {
                        report.resolved += 1;
                        self.tracer.counter("recalib.resolved", 1);
                    }
                    let adaptation = Arc::new(recal.into_adaptation());
                    if self.config.verify {
                        self.audit(hw, &entry.circuit, &ctx.options, Ok(&adaptation));
                    }
                    let new_key = AdaptCache::key(&entry.circuit, hw, &ctx.options, &ctx.limits);
                    self.cache.insert(new_key, adaptation.clone());
                    // Re-key the corpus entry in place so repeated
                    // recalibrations track the latest hardware snapshot
                    // instead of accumulating duplicates.
                    let mut corpus = self.corpus.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(e) = corpus.iter_mut().find(|e| e.key == entry.key) {
                        e.key = new_key;
                        e.adaptation = adaptation;
                    }
                }
                Err(_) => {
                    report.failed += 1;
                    self.tracer.counter("recalib.failed", 1);
                }
            }
        }
        span.set_note(format!(
            "reused={} resolved={} failed={}",
            report.reused, report.resolved, report.failed
        ));
        report
    }

    /// Bottom of the ladder: greedy template optimization toward the same
    /// objective; direct basis translation if even the greedy pass fails.
    /// Used for solve errors and preflight rejections alike.
    #[allow(clippy::too_many_arguments)]
    fn fallback_report(
        &self,
        hw: &HardwareModel,
        index: usize,
        job: &AdaptJob,
        error: AdaptError,
        diagnostics: Vec<qca_lint::Diagnostic>,
        t0: Instant,
        policy: JobPolicy,
    ) -> AdaptReport {
        let objective = match job.options.objective {
            Objective::IdleTime => TemplateObjective::IdleTime,
            Objective::Fidelity | Objective::Combined => TemplateObjective::Fidelity,
        };
        let circuit = template_optimization(&job.circuit, hw, objective)
            .unwrap_or_else(|_| direct_translation(&job.circuit));
        self.tracer.counter("engine.job_completed", 1);
        self.count_status(AdaptStatus::Fallback);
        let mut report = AdaptReport {
            job: index,
            status: AdaptStatus::Fallback,
            circuit,
            objective_value: None,
            cache_hit: false,
            wall: t0.elapsed(),
            solver_stats: None,
            error: Some(error),
            adaptation: None,
            audit: None,
            diagnostics,
        };
        self.audit_report(hw, &job.circuit, &job.options, &mut report, policy);
        report
    }

    /// Report for a job whose `run_job` call panicked: the panic shield in
    /// the worker loop turns the unwind into a baseline result carrying
    /// [`AdaptError::Internal`], so the rest of the batch is unaffected.
    fn panicked_report(
        &self,
        hw: &HardwareModel,
        index: usize,
        job: &AdaptJob,
        payload: &(dyn std::any::Any + Send),
        policy: JobPolicy,
    ) -> AdaptReport {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        self.tracer.counter("engine.job_panicked", 1);
        self.baseline_error_report(hw, index, job, format!("worker panicked: {msg}"), policy)
    }

    fn baseline_error_report(
        &self,
        hw: &HardwareModel,
        index: usize,
        job: &AdaptJob,
        detail: String,
        policy: JobPolicy,
    ) -> AdaptReport {
        self.tracer.counter("engine.job_completed", 1);
        self.count_status(AdaptStatus::Fallback);
        let mut report = AdaptReport {
            job: index,
            status: AdaptStatus::Fallback,
            circuit: direct_translation(&job.circuit),
            objective_value: None,
            cache_hit: false,
            // The unwind took the job's timer with it; report zero rather
            // than a made-up duration.
            wall: Duration::ZERO,
            solver_stats: None,
            error: Some(AdaptError::Internal(detail)),
            adaptation: None,
            audit: None,
            diagnostics: Vec::new(),
        };
        self.audit_report(hw, &job.circuit, &job.options, &mut report, policy);
        report
    }

    /// Runs the independent `qca-verify` audit on one finished report when
    /// the job's [`JobPolicy::verify`] is on, and records the verdict on the
    /// report.
    fn audit_report(
        &self,
        hw: &HardwareModel,
        source: &Circuit,
        options: &AdaptOptions,
        report: &mut AdaptReport,
        policy: JobPolicy,
    ) {
        if !policy.verify {
            return;
        }
        let target = report.adaptation.as_deref().ok_or(&report.circuit);
        report.audit = Some(self.audit(hw, source, options, target));
    }

    /// Audits an adaptation of `source` — or, for a baseline answer, the
    /// bare circuit — with `qca-verify` under a `verify.audit` span, and
    /// counts the verdict in the `verify.*` counters.
    fn audit(
        &self,
        hw: &HardwareModel,
        source: &Circuit,
        options: &AdaptOptions,
        target: Result<&Adaptation, &Circuit>,
    ) -> AuditOutcome {
        let mut span = self.tracer.span("verify.audit");
        self.tracer.counter("verify.audits", 1);
        let coupling = options.coupling.as_ref();
        let outcome = match target {
            Ok(adaptation) => {
                audit_adaptation_with_coupling(source, adaptation, hw, options.objective, coupling)
                    .map(|_| ())
            }
            Err(baseline) => {
                audit_baseline_with_coupling(source, baseline, hw, coupling).map(|_| ())
            }
        };
        match outcome {
            Ok(()) => {
                self.tracer.counter("verify.passed", 1);
                span.set_note("passed");
                AuditOutcome::Passed
            }
            Err(e) => {
                self.tracer.counter("verify.failures", 1);
                span.set_note("failed");
                AuditOutcome::Failed(e.to_string())
            }
        }
    }

    /// Emits one solved (non-cached) job's cost as `engine.*` counters; the
    /// teed metrics registry turns them into histogram samples and totals.
    fn record_solve(&self, wall: &Duration, stats: &qca_sat::SolverStats) {
        self.tracer
            .counter("engine.solve_wall_us", wall.as_micros() as u64);
        self.tracer.counter("engine.sat_conflicts", stats.conflicts);
        self.tracer.counter("engine.sat_restarts", stats.restarts);
        self.tracer
            .counter("engine.sat_learnt_clauses", stats.learnt_clauses);
        self.tracer.counter("engine.sat_decisions", stats.decisions);
        self.tracer
            .counter("engine.sat_propagations", stats.propagations);
    }

    fn count_status(&self, status: AdaptStatus) {
        let name = match status {
            AdaptStatus::Optimal => "engine.status.optimal",
            AdaptStatus::Feasible => "engine.status.feasible",
            AdaptStatus::Fallback => "engine.status.fallback",
        };
        self.tracer.counter(name, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_circuit::Gate;
    use qca_hw::{spin_qubit_model, GateTimes};
    use qca_workloads::{random_template_circuit, TemplateGate};

    fn workload(n: usize) -> Vec<AdaptJob> {
        (0..n)
            .map(|i| {
                let c = random_template_circuit(
                    3,
                    10,
                    200 + i as u64,
                    &[TemplateGate::Cx, TemplateGate::Swap],
                    true,
                );
                AdaptJob::with_objective(c, Objective::Fidelity)
            })
            .collect()
    }

    fn config(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn recalibrate_reuses_certified_optima_after_drift() {
        let d0 = spin_qubit_model(GateTimes::D0);
        let jobs = workload(4);
        let (tracer, sink) = qca_trace::Tracer::to_memory();
        let engine = Engine::new(EngineConfig {
            tracer,
            ..config(2)
        });
        let reports = engine.adapt_batch(&d0, &jobs);
        assert!(reports.iter().all(|r| r.error.is_none()));

        let drifted = d0.with_scaled_infidelity(2.0);
        let recal = engine.recalibrate(&drifted);
        assert!(recal.entries > 0, "solved jobs must populate the corpus");
        assert_eq!(recal.failed, 0);
        assert_eq!(recal.reused + recal.resolved, recal.entries);
        assert!(recal.reused >= 1, "no certificate-backed reuse: {recal:?}");

        // Recalibration pre-warmed the cache for the drifted hardware: a
        // batch against it is pure cache hits, no fresh solves.
        let again = engine.adapt_batch(&drifted, &jobs);
        assert!(again.iter().all(|r| r.cache_hit && r.error.is_none()));
        // Cached answers match what a cold engine would compute.
        let cold = Engine::new(config(2));
        let fresh = cold.adapt_batch(&drifted, &jobs);
        for (a, b) in again.iter().zip(&fresh) {
            assert_eq!(a.objective_value, b.objective_value);
        }

        // Counters flowed through the teed tracer into the registry.
        assert_eq!(
            engine.metrics().get("recalib_entries"),
            recal.entries as u64
        );
        assert_eq!(engine.metrics().get("recalib_reused"), recal.reused as u64);
        assert_eq!(
            engine.metrics().get("recalib_resolved"),
            recal.resolved as u64
        );
        let totals = qca_trace::report::counter_totals(&sink.take());
        assert_eq!(totals.get("recalib.entries"), Some(&(recal.entries as u64)));

        // Recalibrating onto unchanged hardware reuses every entry that
        // carries an optimality claim (budget-degraded solves re-resolve).
        let steady = engine.recalibrate(&drifted);
        assert_eq!(steady.failed, 0);
        assert!(
            steady.reused >= recal.reused,
            "steady-state lost reuse: {steady:?} vs {recal:?}"
        );
    }

    #[test]
    fn recalibrate_audits_under_verify_mode() {
        let d0 = spin_qubit_model(GateTimes::D0);
        let engine = Engine::new(EngineConfig {
            verify: true,
            ..config(1)
        });
        let reports = engine.adapt_batch(&d0, &workload(2));
        assert!(reports.iter().all(|r| r.error.is_none()));
        let audits_before = engine.metrics().get("verify_audits");
        let recal = engine.recalibrate(&d0.with_scaled_infidelity(3.0));
        assert_eq!(recal.failed, 0);
        let audits_after = engine.metrics().get("verify_audits");
        assert_eq!(
            audits_after - audits_before,
            recal.entries as u64,
            "every refreshed adaptation must be audited"
        );
        assert_eq!(engine.metrics().get("verify_failures"), 0);
    }

    #[test]
    fn batch_reports_sorted_and_complete() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(6);
        let engine = Engine::new(config(3));
        let reports = engine.adapt_batch(&hw, &jobs);
        assert_eq!(reports.len(), jobs.len());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(hw.supports_circuit(&r.circuit), "job {i} not native");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(6);
        let seq = Engine::new(config(1)).adapt_batch(&hw, &jobs);
        let par = Engine::new(config(4)).adapt_batch(&hw, &jobs);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.circuit, b.circuit, "job {} diverged", a.job);
            assert_eq!(a.objective_value, b.objective_value);
            assert_eq!(a.status, b.status);
        }
    }

    #[test]
    fn resubmission_hits_cache() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(3);
        let engine = Engine::new(config(2));
        let first = engine.adapt_batch(&hw, &jobs);
        assert!(first.iter().all(|r| !r.cache_hit));
        let second = engine.adapt_batch(&hw, &jobs);
        assert!(second.iter().all(|r| r.cache_hit));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.circuit, b.circuit);
            assert_eq!(a.objective_value, b.objective_value);
        }
        assert!(engine.metrics().cache_hit_rate() > 0.49);
    }

    #[test]
    fn duplicate_jobs_in_one_batch_share_work() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        // One worker guarantees sequential execution, so the second
        // identical job must hit the entry the first one inserted.
        let engine = Engine::new(config(1));
        let reports = engine.adapt_batch(&hw, &[AdaptJob::new(c.clone()), AdaptJob::new(c)]);
        assert!(!reports[0].cache_hit);
        assert!(reports[1].cache_hit);
        assert_eq!(reports[0].circuit, reports[1].circuit);
    }

    #[test]
    fn cancelled_job_degrades_to_fallback() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut jobs = workload(2);
        jobs[1].cancel = Some(Arc::new(AtomicBool::new(true)));
        let engine = Engine::new(config(2));
        let reports = engine.adapt_batch(&hw, &jobs);
        assert_ne!(reports[0].status, AdaptStatus::Fallback);
        assert_eq!(reports[1].status, AdaptStatus::Fallback);
        assert_eq!(reports[1].error, Some(AdaptError::Cancelled));
        // The fallback circuit is still a valid native adaptation.
        assert!(hw.supports_circuit(&reports[1].circuit));
        assert_eq!(engine.metrics().get("fallbacks"), 1);
    }

    #[test]
    fn fallback_results_are_not_cached() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut jobs = workload(1);
        jobs[0].cancel = Some(Arc::new(AtomicBool::new(true)));
        let engine = Engine::new(config(1));
        let _ = engine.adapt_batch(&hw, &jobs);
        assert!(engine.cache().is_empty());
    }

    #[test]
    fn different_budgets_use_distinct_cache_entries() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(1);
        let engine = Engine::new(config(1));
        let _ = engine.adapt_batch(&hw, &jobs);
        let mut budgeted = jobs.clone();
        budgeted[0].limits.total_conflicts = Some(1_000_000);
        let reports = engine.adapt_batch(&hw, &budgeted);
        // Same circuit, different budget: a fresh solve, not a (stale) hit.
        assert!(!reports[0].cache_hit);
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn empty_batch_is_empty() {
        let hw = spin_qubit_model(GateTimes::D0);
        let engine = Engine::new(EngineConfig::default());
        assert!(engine.adapt_batch(&hw, &[]).is_empty());
    }

    #[test]
    fn tracer_emits_job_spans_and_feeds_metrics() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(2);
        let (tracer, sink) = qca_trace::Tracer::to_memory();
        let engine = Engine::new(EngineConfig {
            tracer,
            ..config(1)
        });
        let _ = engine.adapt_batch(&hw, &jobs);
        let events = sink.take();
        qca_trace::report::validate_forest(&events).unwrap();
        let totals = qca_trace::report::counter_totals(&events);
        assert_eq!(totals.get("engine.jobs_submitted"), Some(&2));
        assert_eq!(totals.get("engine.job_completed"), Some(&2));
        let rpt = qca_trace::report::Report::from_events(&events);
        // Per-job engine spans wrap the full solve pipeline (these fidelity
        // answers are decided in `warm_start`, with no solver).
        assert!(rpt.phase_total_ns("engine.job").is_some());
        assert!(rpt.phase_total_ns("adapt").is_some());
        assert!(rpt.phase_total_ns("warm_start").is_some());
        assert!(rpt.phase_total_ns("extract").is_some());
        // The same event stream populated the metrics registry.
        assert_eq!(engine.metrics().get("jobs_completed"), 2);
        assert_eq!(engine.metrics().solve_wall_us.count(), 2);
    }

    #[test]
    fn metrics_populated_without_a_tracer() {
        let hw = spin_qubit_model(GateTimes::D0);
        // Combined, so each job runs the solver whose statistics feed the
        // registry (a fidelity answer is decided without one).
        let jobs: Vec<AdaptJob> = workload(2)
            .into_iter()
            .map(|job| AdaptJob::with_objective(job.circuit, Objective::Combined))
            .collect();
        let engine = Engine::new(config(1));
        let _ = engine.adapt_batch(&hw, &jobs);
        assert_eq!(engine.metrics().get("jobs_submitted"), 2);
        assert_eq!(engine.metrics().get("jobs_completed"), 2);
        assert_eq!(engine.metrics().solve_wall_us.count(), 2);
        assert!(engine.metrics().get("sat_propagations") > 0);
    }

    #[test]
    fn validate_rejects_every_bad_knob() {
        let ok = [
            EngineConfig::default(),
            EngineConfig {
                cache_capacity: 64,
                job_conflict_budget: Some(10_000),
                job_timeout: Some(Duration::from_secs(1)),
                ..config(EngineConfig::MAX_WORKERS)
            },
        ];
        for c in ok {
            assert!(c.validate().is_ok(), "rejected {c:?}");
        }
        let rejected = [
            config(EngineConfig::MAX_WORKERS + 1),
            EngineConfig {
                job_timeout: Some(Duration::ZERO),
                ..EngineConfig::default()
            },
            EngineConfig {
                job_conflict_budget: Some(0),
                ..EngineConfig::default()
            },
        ];
        for c in rejected {
            assert!(c.validate().is_err(), "accepted {c:?}");
        }
    }

    #[test]
    #[should_panic(expected = "job_conflict_budget = Some(0)")]
    fn engine_new_panics_on_invalid_config() {
        let _ = Engine::new(EngineConfig {
            job_conflict_budget: Some(0),
            ..EngineConfig::default()
        });
    }

    /// A sink that panics on the first `engine.cache_miss` counter it sees —
    /// i.e. inside exactly one worker, mid-job. Subsequent events pass.
    struct PanicOnce {
        armed: AtomicBool,
    }

    impl qca_trace::TraceSink for PanicOnce {
        fn record(&self, event: &qca_trace::TraceEvent) {
            if let qca_trace::TraceEvent::Counter { name, .. } = event {
                if name.as_ref() == "engine.cache_miss" && self.armed.swap(false, Ordering::Relaxed)
                {
                    panic!("injected worker failure");
                }
            }
        }
    }

    #[test]
    fn worker_panic_becomes_per_job_error_report() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(3);
        let tracer = qca_trace::Tracer::new(Arc::new(PanicOnce {
            armed: AtomicBool::new(true),
        }));
        let engine = Engine::new(EngineConfig {
            tracer,
            ..config(2)
        });
        let reports = engine.adapt_batch(&hw, &jobs);
        assert_eq!(reports.len(), jobs.len(), "batch completes despite panic");
        let killed: Vec<_> = reports
            .iter()
            .filter(|r| matches!(r.error, Some(AdaptError::Internal(_))))
            .collect();
        assert_eq!(killed.len(), 1, "exactly one job was killed");
        assert_eq!(killed[0].status, AdaptStatus::Fallback);
        assert!(hw.supports_circuit(&killed[0].circuit));
        // The other jobs on the same worker pool completed normally.
        assert_eq!(reports.iter().filter(|r| r.error.is_none()).count(), 2);
        assert_eq!(engine.metrics().get("jobs_panicked"), 1);
        assert_eq!(engine.metrics().get("jobs_completed"), 3);
    }

    #[test]
    fn verify_mode_audits_every_report_including_cache_hits() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(2);
        let engine = Engine::new(EngineConfig {
            verify: true,
            ..config(1)
        });
        let first = engine.adapt_batch(&hw, &jobs);
        let second = engine.adapt_batch(&hw, &jobs);
        assert!(second.iter().all(|r| r.cache_hit));
        for r in first.iter().chain(&second) {
            assert_eq!(
                r.audit,
                Some(AuditOutcome::Passed),
                "job {} failed its audit",
                r.job
            );
            let a = r.adaptation.as_ref().expect("solved reports carry data");
            let v = a
                .solver
                .verification
                .as_ref()
                .expect("verify mode forces certification");
            if r.status == AdaptStatus::Optimal {
                assert!(v.certificate.is_some(), "optimal claim must be certified");
            }
        }
        assert_eq!(engine.metrics().get("verify_audits"), 4);
        assert_eq!(engine.metrics().get("verify_passed"), 4);
        assert_eq!(engine.metrics().get("verify_failures"), 0);
    }

    #[test]
    fn verify_mode_audits_fallback_reports() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut jobs = workload(1);
        jobs[0].cancel = Some(Arc::new(AtomicBool::new(true)));
        let engine = Engine::new(EngineConfig {
            verify: true,
            ..config(1)
        });
        let reports = engine.adapt_batch(&hw, &jobs);
        assert_eq!(reports[0].status, AdaptStatus::Fallback);
        assert!(reports[0].adaptation.is_none());
        assert_eq!(reports[0].audit, Some(AuditOutcome::Passed));
    }

    #[test]
    fn verify_mode_flags_corrupted_cache_entries() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(1);
        let engine = Engine::new(EngineConfig {
            verify: true,
            ..config(1)
        });
        let first = engine.adapt_batch(&hw, &jobs);
        assert_eq!(first[0].audit, Some(AuditOutcome::Passed));
        // Corrupt the cached entry behind the engine's back: the next hit
        // must be flagged by the audit, not served silently.
        let mut options = jobs[0].options.clone();
        options.certify = true;
        let key = AdaptCache::key(&jobs[0].circuit, &hw, &options, &jobs[0].limits);
        let mut tampered = (**first[0].adaptation.as_ref().unwrap()).clone();
        tampered.circuit.push(Gate::X, &[0]);
        engine.cache().insert(key, Arc::new(tampered));
        let second = engine.adapt_batch(&hw, &jobs);
        assert!(second[0].cache_hit);
        assert!(matches!(second[0].audit, Some(AuditOutcome::Failed(_))));
        assert_eq!(engine.metrics().get("verify_failures"), 1);
    }

    #[test]
    fn preflight_rejects_unadaptable_job_without_encoding() {
        // ibm_source prices Cx but not Cz: the reference translation of
        // any two-qubit block is unpriced, so preflight proves
        // infeasibility and the solve (hence `smt.encode`) never runs.
        let hw = qca_hw::ibm_source_model();
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let (tracer, sink) = qca_trace::Tracer::to_memory();
        let engine = Engine::new(EngineConfig {
            lint: true,
            tracer,
            ..config(1)
        });
        let reports = engine.adapt_batch(&hw, &[AdaptJob::new(c)]);
        assert_eq!(reports[0].status, AdaptStatus::Fallback);
        assert!(matches!(reports[0].error, Some(AdaptError::Rejected(_))));
        assert!(reports[0]
            .diagnostics
            .iter()
            .any(|d| d.code == qca_lint::LintCode::BlockUnadaptable));
        let rpt = qca_trace::report::Report::from_events(&sink.take());
        assert_eq!(rpt.phase_count("engine.preflight"), 1);
        assert_eq!(
            rpt.phase_count("smt.encode"),
            0,
            "rejection must precede encoding"
        );
        assert_eq!(rpt.phase_count("adapt"), 0, "no solve at all");
        assert_eq!(engine.metrics().get("lint_rejections"), 1);
        assert!(engine.metrics().get("lint_errors") > 0);
    }

    #[test]
    fn lint_mode_attaches_diagnostics_and_counts_warnings() {
        // Swap gates are outside the IBM source basis: QCA0105 warnings,
        // which do not reject the job.
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Swap, &[0, 1]);
        let engine = Engine::new(EngineConfig {
            lint: true,
            ..config(1)
        });
        let reports = engine.adapt_batch(&hw, &[AdaptJob::new(c)]);
        assert_ne!(reports[0].status, AdaptStatus::Fallback);
        assert!(reports[0]
            .diagnostics
            .iter()
            .any(|d| d.code == qca_lint::LintCode::NonSourceBasis));
        assert_eq!(engine.metrics().get("lint_warnings"), 1);
        assert_eq!(engine.metrics().get("lint_errors"), 0);
        let json = engine.metrics().to_json().to_string_compact();
        assert!(json.contains("\"lint_warnings\":1"), "{json}");
        assert!(json.contains("\"lint_errors\":0"), "{json}");
    }

    #[test]
    fn deny_warnings_escalates_findings_to_rejection() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[0]); // QCA0104 self-inverse pair: a warning.
        c.push(Gate::Cx, &[0, 1]);
        // Plain lint: warned but solved.
        let lenient = Engine::new(EngineConfig {
            lint: true,
            ..config(1)
        });
        let reports = lenient.adapt_batch(&hw, &[AdaptJob::new(c.clone())]);
        assert_ne!(reports[0].status, AdaptStatus::Fallback);
        assert_eq!(reports[0].diagnostics.len(), 1);
        // deny-warnings: the same job is rejected.
        let strict = Engine::new(EngineConfig {
            lint: true,
            deny_warnings: true,
            ..config(1)
        });
        let reports = strict.adapt_batch(&hw, &[AdaptJob::new(c)]);
        assert_eq!(reports[0].status, AdaptStatus::Fallback);
        assert!(matches!(reports[0].error, Some(AdaptError::Rejected(_))));
        assert_eq!(strict.metrics().get("lint_rejections"), 1);
    }

    #[test]
    fn lint_off_leaves_reports_clean() {
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(1);
        let engine = Engine::new(config(1));
        let reports = engine.adapt_batch(&hw, &jobs);
        assert!(reports[0].diagnostics.is_empty());
        assert_eq!(engine.metrics().get("lint_warnings"), 0);
    }

    #[test]
    fn wall_clock_timeout_terminates_batch() {
        // A 10-job batch under an aggressive deadline must terminate and
        // return one report per job; statuses may be anything on the ladder.
        let hw = spin_qubit_model(GateTimes::D0);
        let jobs = workload(4);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            job_timeout: Some(Duration::from_millis(1)),
            ..EngineConfig::default()
        });
        let reports = engine.adapt_batch(&hw, &jobs);
        assert_eq!(reports.len(), jobs.len());
        for r in &reports {
            assert!(hw.supports_circuit(&r.circuit));
        }
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qca-engine-store-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn store_attached_engine_persists_and_warm_restarts() {
        let hw = spin_qubit_model(GateTimes::D0);
        let dir = store_dir("warm");
        let jobs = workload(2);
        let first = {
            let store = Arc::new(qca_store::Store::open(&dir).unwrap());
            let engine = Engine::new(EngineConfig {
                workers: 1,
                store: Some(store),
                ..EngineConfig::default()
            });
            let reports = engine.adapt_batch(&hw, &jobs);
            assert!(reports.iter().all(|r| !r.cache_hit));
            assert_eq!(engine.metrics().get("store_replays"), 0);
            reports
        };
        // Cold restart: a fresh engine over the same directory replays the
        // records into its LRU and serves the batch as cache hits with
        // bit-identical adaptations.
        let store = Arc::new(qca_store::Store::open(&dir).unwrap());
        let engine = Engine::new(EngineConfig {
            workers: 1,
            store: Some(store),
            ..EngineConfig::default()
        });
        assert_eq!(engine.metrics().get("store_replays"), 2);
        let second = engine.adapt_batch(&hw, &jobs);
        for (a, b) in first.iter().zip(&second) {
            assert!(b.cache_hit, "warm-restarted entry must serve as a hit");
            assert_eq!(a.circuit, b.circuit);
            assert_eq!(a.objective_value, b.objective_value);
            let (fa, fb) = (
                a.adaptation.as_ref().unwrap(),
                b.adaptation.as_ref().unwrap(),
            );
            assert_eq!(
                qca_store::encode_adaptation(fa),
                qca_store::encode_adaptation(fb),
                "replayed adaptation must be bit-identical to the original"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_miss_falls_through_to_the_store_tier() {
        let hw = spin_qubit_model(GateTimes::D0);
        let dir = store_dir("tier");
        let jobs = workload(1);
        {
            let store = Arc::new(qca_store::Store::open(&dir).unwrap());
            let engine = Engine::new(EngineConfig {
                workers: 1,
                store: Some(store),
                ..EngineConfig::default()
            });
            let _ = engine.adapt_batch(&hw, &jobs);
        }
        // Zero LRU capacity: the replay is a no-op and every request misses
        // memory, so answers must come from disk.
        let store = Arc::new(qca_store::Store::open(&dir).unwrap());
        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache_capacity: 0,
            store: Some(store),
            ..EngineConfig::default()
        });
        let reports = engine.adapt_batch(&hw, &jobs);
        assert!(reports[0].cache_hit, "disk hit presents as a cache hit");
        assert!(engine.metrics().get("store_hits") >= 1);
        assert_eq!(engine.metrics().get("cache_hits"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Holds the single-flight leader inside `warm_start` until every job
    /// in the batch has passed the cache-miss point, guaranteeing all of
    /// them join the leader's flight instead of racing past it.
    struct SolveGate {
        expected_jobs: usize,
        misses: AtomicUsize,
        warm_starts: AtomicUsize,
    }

    impl qca_trace::TraceSink for SolveGate {
        fn record(&self, event: &qca_trace::TraceEvent) {
            match event {
                qca_trace::TraceEvent::Counter { name, .. }
                    if name.as_ref() == "engine.cache_miss" =>
                {
                    self.misses.fetch_add(1, Ordering::SeqCst);
                }
                qca_trace::TraceEvent::SpanEnter { name, .. } if name.as_ref() == "warm_start" => {
                    self.warm_starts.fetch_add(1, Ordering::SeqCst);
                    while self.misses.load(Ordering::SeqCst) < self.expected_jobs {
                        std::thread::yield_now();
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn concurrent_identical_jobs_coalesce_onto_one_solve() {
        const N: usize = 4;
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let gate = Arc::new(SolveGate {
            expected_jobs: N,
            misses: AtomicUsize::new(0),
            warm_starts: AtomicUsize::new(0),
        });
        let engine = Engine::new(EngineConfig {
            tracer: qca_trace::Tracer::new(gate.clone()),
            ..config(N)
        });
        let jobs: Vec<AdaptJob> = (0..N).map(|_| AdaptJob::new(c.clone())).collect();
        let reports = engine.adapt_batch(&hw, &jobs);
        assert_eq!(
            gate.warm_starts.load(Ordering::SeqCst),
            1,
            "exactly one warm_start span across {N} identical concurrent jobs"
        );
        assert_eq!(
            engine.metrics().get("singleflight_coalesced"),
            (N - 1) as u64
        );
        let solved: Vec<_> = reports.iter().filter(|r| !r.cache_hit).collect();
        assert_eq!(solved.len(), 1, "one leader solved; followers coalesced");
        for r in &reports {
            assert_eq!(r.status, solved[0].status);
            assert_eq!(r.objective_value, solved[0].objective_value);
            assert_eq!(r.circuit, solved[0].circuit);
        }
    }
}
