//! The benchmark suite: one set of measurements per stack layer.
//!
//! | id | layer | measures |
//! |----|-------|----------|
//! | `sat.pigeonhole/N` | sat | CDCL refutation wall time on the pigeonhole suite, plus conflicts/sec and propagations/sec |
//! | `sat.random3sat/N` | sat | solve time at clause ratio 4 (full mode only) |
//! | `sat.preprocess/N` | sat | preprocess-then-solve wall time on a selector-guarded pigeonhole instance, plus the conflict count on the simplified formula versus the raw solve |
//! | `engine.batch/w1` | engine | batch adaptation wall time at one worker, plus jobs/sec |
//! | `engine.batch/wN` | engine | the same at N workers — marked unobservable when the machine has fewer than N cores |
//! | `engine.adapt_routed` | engine | batch adaptation of topology-stress circuits under a line coupling map, where the solver must choose SWAP-insertion routing substitutions |
//! | `engine.recalibrate` | engine | walking the cached corpus against a drifted fidelity table, re-certifying each cached optimum |
//! | `smt.schedule/N` | smt | bit-blasting the scheduling part of the adaptation model on a seeded N-block ASAP DAG: the `SmtSolver` calls `encode_model` makes for durations, start and end times, the makespan, the idle objective read off the durations, and one probe comparison |
//! | `core.rules` | core | rule evaluation (`evaluate_substitutions`) over two preprocessed circuits of each Fig. 5 family: KAK per two-qubit block, every range's match test and every candidate's pricing |
//! | `core.exact_idle` | core | exact idle-time `solve_model` on three rand-3q-d6 circuits: encoding, the linear search and its final refutation of the next-better level |
//! | `num.simultaneous_diagonalize` | num | the eigen step inside KAK: simultaneous diagonalization of the commuting real and imaginary parts of `UᵀU` for 32 Haar-random 4×4 unitaries |
//! | `synth.kak` | synth | KAK decomposition plus CZ-circuit emission of 32 Haar-random two-qubit unitaries |
//! | `sim.noisy_qv/N` | sim | noisy density-matrix simulation of an N-qubit depth-2 quantum-volume circuit under the spin-qubit noise model |
//! | `serve.event_loop` | serve | hot-request latency while ≥ 5k idle keep-alive connections stay parked on the readiness loop — the many-idle-sockets shape the epoll rewrite exists for |
//! | `store.warm_restart` | store | wall time of `Store::open` plus a full replay of every persisted record (the cache warm-restart path) |
//!
//! Quick mode (the CI gate) shrinks instance sizes and request counts so
//! the whole suite finishes in well under a minute; full mode is for
//! recorded baselines.

use crate::fingerprint::Fingerprint;
use crate::harness::{measure, HarnessConfig, Measurement};
use crate::report::{BenchResult, Direction};
use qca_adapt::model::solve_model;
use qca_adapt::rules::{evaluate_substitutions, RuleOptions};
use qca_adapt::{AdaptContext, Objective};
use qca_baselines::direct_translation;
use qca_engine::{AdaptJob, Engine, EngineConfig};
use qca_hw::{spin_qubit_model, CouplingMap, GateTimes};
use qca_num::eig::simultaneous_diagonalize;
use qca_num::random::haar_unitary;
use qca_num::CMat;
use qca_sat::analyze::{preprocess, PreprocessOptions};
use qca_sat::dimacs::Cnf;
use qca_sat::{Lit, Solver, Var};
use qca_serve::client::{raise_nofile_limit, Connection};
use qca_serve::{ServeConfig, Server};
use qca_sim::simulate_noisy;
use qca_smt::{IntExpr, SmtSolver};
use qca_synth::kak::kak_decompose;
use qca_workloads::{
    quantum_volume, random_template_circuit, topology_stress, DEFAULT_TEMPLATE_GATES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker count of the scaling benchmark (`engine.batch/w4`).
pub const SCALE_WORKERS: usize = 4;

/// Suite-wide settings.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// `true` for the CI-sized suite, `false` for baseline recording.
    pub quick: bool,
    /// Only run benchmarks whose id contains this substring.
    pub filter: Option<String>,
    /// Fingerprint of the machine running the suite (drives the
    /// `observable` honesty flag on scaling results).
    pub fingerprint: Fingerprint,
    /// Harness knobs (defaults follow `quick`).
    pub harness: HarnessConfig,
}

impl SuiteConfig {
    /// Standard configuration for the given mode on this machine.
    pub fn new(quick: bool) -> SuiteConfig {
        SuiteConfig {
            quick,
            filter: None,
            fingerprint: Fingerprint::detect(),
            harness: if quick {
                HarnessConfig::quick()
            } else {
                HarnessConfig::full()
            },
        }
    }

    fn wants(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }
}

/// Runs every (non-filtered) benchmark and returns the results in suite
/// order. Progress goes to stderr, one line per benchmark.
pub fn run_suite(config: &SuiteConfig) -> Vec<BenchResult> {
    let mut results = Vec::new();
    let mut push = |result: Option<BenchResult>| {
        if let Some(result) = result {
            eprintln!(
                "  {:<24} {:>14.1} {} ±{:.1}% ({} samples{})",
                result.id,
                result.value,
                result.unit,
                result.dispersion * 100.0,
                result.samples,
                if result.observable {
                    ""
                } else {
                    ", UNOBSERVABLE on this machine"
                },
            );
            results.push(result);
        }
    };

    let pigeons = if config.quick { 7 } else { 8 };
    push(bench_pigeonhole(config, pigeons));
    if !config.quick {
        push(bench_random3sat(config, 100));
    }
    push(bench_preprocess(config, pigeons));
    push(bench_engine_batch(config, 1));
    push(bench_engine_batch(config, SCALE_WORKERS));
    push(bench_adapt_routed(config));
    push(bench_recalibrate(config));
    push(bench_smt_schedule(config, 40));
    push(bench_rules(config));
    push(bench_exact_idle(config));
    push(bench_simultaneous_diagonalize(config));
    push(bench_kak(config));
    push(bench_noisy_sim(config, 4));
    push(bench_event_loop(config));
    push(bench_store_warm_restart(config));
    results
}

/// Builds a timing [`BenchResult`] (unit `ns`, lower is better) from a
/// measurement.
fn timing_result(
    config: &SuiteConfig,
    id: &str,
    layer: &str,
    measurement: &Measurement,
    observable: bool,
    metrics: BTreeMap<String, f64>,
) -> BenchResult {
    let stats = measurement.stats(config.harness.trim);
    BenchResult {
        id: id.to_string(),
        layer: layer.to_string(),
        unit: "ns".to_string(),
        better: Direction::LowerIsBetter,
        value: stats.median_ns,
        dispersion: stats.rel_mad,
        samples: stats.count,
        iters_per_sample: measurement.iters,
        observable,
        metrics,
    }
}

/// The pigeonhole principle for `n` pigeons and `n - 1` holes (UNSAT).
fn pigeonhole_clauses(n: usize) -> (usize, Vec<Vec<i32>>) {
    let holes = n - 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
    let mut clauses = Vec::new();
    for p in 0..n {
        clauses.push((0..holes).map(|h| var(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..n {
            for p2 in (p1 + 1)..n {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    (n * holes, clauses)
}

/// Solves a clause set with a fresh solver; returns its lifetime stats.
fn solve_fresh(num_vars: usize, clauses: &[Vec<i32>]) -> qca_sat::SolverStats {
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&d| vars[(d.unsigned_abs() - 1) as usize].lit(d > 0))
            .collect();
        if !solver.add_clause(&lits) {
            break;
        }
    }
    solver.solve();
    solver.stats().clone()
}

fn bench_pigeonhole(config: &SuiteConfig, n: usize) -> Option<BenchResult> {
    let id = format!("sat.pigeonhole/{n}");
    if !config.wants(&id) {
        return None;
    }
    let (num_vars, clauses) = pigeonhole_clauses(n);
    // The solver is deterministic, so one probe run yields the exact
    // per-solve conflict and propagation counts behind the rates.
    let stats = solve_fresh(num_vars, &clauses);
    let measurement = measure(&config.harness, || solve_fresh(num_vars, &clauses));
    let median_s = measurement.stats(config.harness.trim).median_ns / 1e9;
    let mut metrics = BTreeMap::new();
    if median_s > 0.0 {
        metrics.insert(
            "conflicts_per_sec".to_string(),
            stats.conflicts as f64 / median_s,
        );
        metrics.insert(
            "propagations_per_sec".to_string(),
            stats.propagations as f64 / median_s,
        );
    }
    metrics.insert("conflicts".to_string(), stats.conflicts as f64);
    metrics.insert("propagations".to_string(), stats.propagations as f64);
    Some(timing_result(
        config,
        &id,
        "sat",
        &measurement,
        true,
        metrics,
    ))
}

/// Solves an already-built [`Cnf`] with a fresh solver; returns its
/// lifetime stats.
fn solve_cnf(cnf: &Cnf) -> qca_sat::SolverStats {
    let mut solver = Solver::new();
    while solver.num_vars() < cnf.num_vars {
        solver.new_var();
    }
    for clause in &cnf.clauses {
        if !solver.add_clause(clause) {
            break;
        }
    }
    solver.solve();
    solver.stats().clone()
}

/// The pigeonhole principle plus a *guarded* copy of itself: the copy's
/// clauses all carry one fresh selector literal `z`, so `z` is pure and the
/// preprocessor deletes the entire dead block before search. A raw CDCL
/// run (default phase `false`) instead refutes both copies. This mirrors
/// selector-guarded constraint groups whose selector is never asserted —
/// the structure the preprocessor exists to strip.
fn guarded_pigeonhole(n: usize) -> Cnf {
    let (core_vars, core) = pigeonhole_clauses(n);
    let z = (2 * core_vars + 1) as i32;
    let mut clauses = core.clone();
    for clause in &core {
        let mut guarded: Vec<i32> = clause
            .iter()
            .map(|&d| d.signum() * (d.abs() + core_vars as i32))
            .collect();
        guarded.push(z);
        clauses.push(guarded);
    }
    Cnf {
        num_vars: 2 * core_vars + 1,
        clauses: clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&d| Var::from_index((d.unsigned_abs() - 1) as usize).lit(d > 0))
                    .collect()
            })
            .collect(),
    }
}

/// Preprocess-then-solve on the guarded pigeonhole instance: measures the
/// combined wall time and reports how many search conflicts the simplified
/// formula costs compared with the raw solve.
fn bench_preprocess(config: &SuiteConfig, n: usize) -> Option<BenchResult> {
    let id = format!("sat.preprocess/{n}");
    if !config.wants(&id) {
        return None;
    }
    let cnf = guarded_pigeonhole(n);
    let opts = PreprocessOptions::default();
    // Deterministic probe for the conflict comparison behind the gate: the
    // preprocessor must pay for itself in search effort, not just shuffle
    // work around.
    let raw = solve_cnf(&cnf);
    let probe = preprocess(&cnf, &opts, None);
    let pre = if probe.unsat {
        // Refuted during preprocessing: zero search conflicts by definition.
        qca_sat::SolverStats::default()
    } else {
        solve_cnf(&probe.cnf)
    };
    assert!(
        (pre.conflicts as f64) <= 0.8 * (raw.conflicts as f64).max(1.0),
        "preprocessing failed to cut conflicts: raw {} vs preprocessed {}",
        raw.conflicts,
        pre.conflicts
    );
    let measurement = measure(&config.harness, || {
        let result = preprocess(&cnf, &opts, None);
        if !result.unsat {
            solve_cnf(&result.cnf);
        }
    });
    let mut metrics = BTreeMap::new();
    metrics.insert("conflicts_raw".to_string(), raw.conflicts as f64);
    metrics.insert("conflicts_preprocessed".to_string(), pre.conflicts as f64);
    metrics.insert("eliminated".to_string(), probe.stats.eliminated as f64);
    metrics.insert("subsumed".to_string(), probe.stats.subsumed as f64);
    Some(timing_result(
        config,
        &id,
        "sat",
        &measurement,
        true,
        metrics,
    ))
}

fn bench_random3sat(config: &SuiteConfig, n: usize) -> Option<BenchResult> {
    let id = format!("sat.random3sat/{n}");
    if !config.wants(&id) {
        return None;
    }
    // A fixed xorshift stream keeps the instance identical across runs
    // without depending on a RNG crate.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let m = n * 4;
    let clauses: Vec<Vec<i32>> = (0..m)
        .map(|_| {
            let mut clause: Vec<i32> = Vec::new();
            while clause.len() < 3 {
                let v = (next() % n as u64) as i32 + 1;
                let lit = if next() % 2 == 0 { v } else { -v };
                if !clause.iter().any(|l| l.abs() == v) {
                    clause.push(lit);
                }
            }
            clause
        })
        .collect();
    let stats = solve_fresh(n, &clauses);
    let measurement = measure(&config.harness, || solve_fresh(n, &clauses));
    let median_s = measurement.stats(config.harness.trim).median_ns / 1e9;
    let mut metrics = BTreeMap::new();
    if median_s > 0.0 {
        metrics.insert(
            "propagations_per_sec".to_string(),
            stats.propagations as f64 / median_s,
        );
    }
    Some(timing_result(
        config,
        &id,
        "sat",
        &measurement,
        true,
        metrics,
    ))
}

/// The fixed job batch the engine benchmarks adapt.
fn engine_jobs(config: &SuiteConfig) -> Vec<AdaptJob> {
    let (jobs, depth) = if config.quick { (4, 8) } else { (8, 12) };
    (0..jobs)
        .map(|i| {
            let circuit =
                random_template_circuit(3, depth, 70 + i as u64, &DEFAULT_TEMPLATE_GATES, true);
            AdaptJob::with_objective(circuit, Objective::Fidelity)
        })
        .collect()
}

fn bench_engine_batch(config: &SuiteConfig, workers: usize) -> Option<BenchResult> {
    let id = format!("engine.batch/w{workers}");
    if !config.wants(&id) {
        return None;
    }
    let hw = spin_qubit_model(GateTimes::D0);
    let jobs = engine_jobs(config);
    // Caching off: every iteration pays the full solve cost, so the number
    // measured is the pool's, not the cache's.
    let engine = Engine::new(EngineConfig {
        workers,
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    let measurement = measure(&config.harness, || engine.adapt_batch(&hw, &jobs));
    let stats = measurement.stats(config.harness.trim);
    let mut metrics = BTreeMap::new();
    if stats.median_ns > 0.0 {
        metrics.insert(
            "jobs_per_sec".to_string(),
            jobs.len() as f64 / (stats.median_ns / 1e9),
        );
    }
    metrics.insert("jobs".to_string(), jobs.len() as f64);
    metrics.insert("workers".to_string(), workers as f64);
    // Honesty: a scaling configuration on fewer cores than workers
    // measures scheduling overhead, not parallel speedup.
    let observable = config.fingerprint.cores >= workers;
    Some(timing_result(
        config,
        &id,
        "engine",
        &measurement,
        observable,
        metrics,
    ))
}

/// Topology-constrained adaptation: every job carries a line coupling map
/// and the workload deliberately spans non-adjacent pairs, so the measured
/// solves include the SWAP-insertion routing substitutions.
fn bench_adapt_routed(config: &SuiteConfig) -> Option<BenchResult> {
    let id = "engine.adapt_routed";
    if !config.wants(id) {
        return None;
    }
    let hw = spin_qubit_model(GateTimes::D0);
    let (jobs_n, depth) = if config.quick { (3, 5) } else { (6, 8) };
    let jobs: Vec<AdaptJob> = (0..jobs_n)
        .map(|i| {
            let circuit = topology_stress(4, depth, 170 + i as u64);
            let mut job = AdaptJob::with_objective(circuit, Objective::Fidelity);
            job.options.coupling = Some(CouplingMap::line(4));
            job
        })
        .collect();
    // Caching off for the same reason as `engine.batch`: each iteration
    // must pay the full routed solve.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        cache_capacity: 0,
        ..EngineConfig::default()
    });
    // Probe once: the workload must actually exercise the routing model.
    let routed: usize = engine
        .adapt_batch(&hw, &jobs)
        .iter()
        .filter_map(|r| r.adaptation.as_deref())
        .map(|a| a.chosen.iter().filter(|s| s.route.is_some()).count())
        .sum();
    assert!(
        routed > 0,
        "routed benchmark chose no routing substitutions"
    );
    let measurement = measure(&config.harness, || engine.adapt_batch(&hw, &jobs));
    let stats = measurement.stats(config.harness.trim);
    let mut metrics = BTreeMap::new();
    metrics.insert("jobs".to_string(), jobs.len() as f64);
    metrics.insert("routed_substitutions".to_string(), routed as f64);
    if stats.median_ns > 0.0 {
        metrics.insert(
            "jobs_per_sec".to_string(),
            jobs.len() as f64 / (stats.median_ns / 1e9),
        );
    }
    Some(timing_result(
        config,
        id,
        "engine",
        &measurement,
        true,
        metrics,
    ))
}

fn bench_recalibrate(config: &SuiteConfig) -> Option<BenchResult> {
    let id = "engine.recalibrate";
    if !config.wants(id) {
        return None;
    }
    let hw = spin_qubit_model(GateTimes::D0);
    let jobs = engine_jobs(config);
    let engine = Engine::new(EngineConfig {
        workers: 1,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    // Populate the corpus, then measure the steady-state walk: every
    // iteration re-certifies each cached optimum against the drifted table.
    engine.adapt_batch(&hw, &jobs);
    let drifted = hw.with_scaled_infidelity(1.02);
    let probe = engine.recalibrate(&drifted);
    assert_eq!(probe.entries, jobs.len(), "corpus missed cached jobs");
    assert_eq!(probe.failed, 0, "recalibration benchmark hit failures");
    let measurement = measure(&config.harness, || engine.recalibrate(&drifted));
    let mut metrics = BTreeMap::new();
    metrics.insert("entries".to_string(), probe.entries as f64);
    metrics.insert("reused".to_string(), probe.reused as f64);
    metrics.insert("resolved".to_string(), probe.resolved as f64);
    Some(timing_result(
        config,
        id,
        "engine",
        &measurement,
        true,
        metrics,
    ))
}

/// Rule evaluation, the largest phase of a cold request that builds no
/// solver, on fixed Fig. 5 circuits preprocessed outside the timed loop.
fn bench_rules(config: &SuiteConfig) -> Option<BenchResult> {
    let id = "core.rules";
    if !config.wants(id) {
        return None;
    }
    let hw = spin_qubit_model(GateTimes::D0);
    let mut circuits = Vec::new();
    for seed in [3, 4] {
        circuits.push(random_template_circuit(
            3,
            20,
            seed,
            &DEFAULT_TEMPLATE_GATES,
            true,
        ));
        circuits.push(random_template_circuit(
            4,
            20,
            seed,
            &DEFAULT_TEMPLATE_GATES,
            true,
        ));
        circuits.push(random_template_circuit(
            3,
            40,
            seed,
            &DEFAULT_TEMPLATE_GATES,
            true,
        ));
        circuits.push(quantum_volume(4, 2, seed));
    }
    let pres: Vec<_> = circuits
        .iter()
        .map(|c| qca_adapt::preprocess::preprocess(c, &hw).expect("Fig. 5 circuits preprocess"))
        .collect();
    let options = RuleOptions::default();
    let evaluate = || {
        pres.iter()
            .map(|pre| {
                evaluate_substitutions(pre, &hw, &options)
                    .expect("rules evaluate")
                    .len()
            })
            .sum::<usize>()
    };
    let entries = evaluate();
    let measurement = measure(&config.harness, evaluate);
    let metrics = BTreeMap::from([
        ("circuits".to_string(), pres.len() as f64),
        ("entries".to_string(), entries as f64),
    ]);
    Some(timing_result(
        config,
        id,
        "core",
        &measurement,
        true,
        metrics,
    ))
}

/// The scheduling part of the adaptation model, bit-blasted the way
/// `encode_model` does it, on a seeded `n`-block ASAP DAG of two-qubit
/// blocks: per block a non-negative duration sum over three choice literals
/// (`pb_sum_nonneg`), a start time as the `max_of` its predecessors' end
/// times, and an end time (`add`); then the makespan, the idle objective
/// `k*(Σ 2*d_b + q*(horizon - D))` (`mul_const`, `sum`,
/// `sub_from_const`), and one probe's comparison of it against a constant
/// (`ge_reified`).
fn bench_smt_schedule(config: &SuiteConfig, n: usize) -> Option<BenchResult> {
    let id = format!("smt.schedule/{n}");
    if !config.wants(&id) {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(13);
    // Per block: the reference duration, three duration deltas (never
    // enough to make the block's duration negative), and its predecessors.
    let blocks: Vec<(i64, [i64; 3], Vec<usize>)> = (0..n)
        .map(|b| {
            let base = rng.gen_range(100..400);
            let deltas = [(); 3].map(|()| rng.gen_range(-30..30));
            let mut preds: Vec<usize> = (0..b.min(2)).map(|_| rng.gen_range(0..b)).collect();
            preds.sort_unstable();
            preds.dedup();
            (base, deltas, preds)
        })
        .collect();
    // The model's idle weight per nanosecond and a 4-qubit register.
    let (k, q) = (10, 4);
    let encode = || {
        let mut smt = SmtSolver::new();
        let mut durations: Vec<IntExpr> = Vec::with_capacity(n);
        let mut ends: Vec<IntExpr> = Vec::with_capacity(n);
        for (base, deltas, preds) in &blocks {
            let terms: Vec<(i64, Lit)> = deltas.iter().map(|&w| (w, smt.new_bool())).collect();
            let duration = smt.pb_sum_nonneg(*base, &terms);
            let start = if preds.is_empty() {
                smt.int_const(0)
            } else {
                let pred_ends: Vec<IntExpr> = preds.iter().map(|&p| ends[p].clone()).collect();
                smt.max_of(&pred_ends)
            };
            ends.push(smt.add(&start, &duration));
            durations.push(duration);
        }
        let makespan = smt.max_of(&ends);
        let weighted: Vec<IntExpr> = durations.iter().map(|d| smt.mul_const(d, 2)).collect();
        let busy = smt.sum(&weighted);
        let slack = smt.sub_from_const(makespan.hi, &makespan);
        let scaled_slack = smt.mul_const(&slack, q);
        let unscaled = smt.add(&busy, &scaled_slack);
        let idle = smt.mul_const(&unscaled, k);
        let level = smt.int_const((idle.lo + idle.hi) / 2);
        smt.ge_reified(&idle, &level);
        smt.num_clauses()
    };
    let clauses = encode();
    let measurement = measure(&config.harness, encode);
    let metrics = BTreeMap::from([
        ("blocks".to_string(), n as f64),
        ("clauses".to_string(), clauses as f64),
    ]);
    Some(timing_result(
        config,
        &id,
        "smt",
        &measurement,
        true,
        metrics,
    ))
}

/// Exact idle-time solves of rand-3q-d6 circuits, the scheduling proofs of
/// e2ebench's exact-proof workload: each encodes the model, searches up
/// from the warm start with no probe budget, and refutes the next-better
/// level. Preprocessing and rule evaluation run outside the timed loop.
fn bench_exact_idle(config: &SuiteConfig) -> Option<BenchResult> {
    let id = "core.exact_idle";
    if !config.wants(id) {
        return None;
    }
    let hw = spin_qubit_model(GateTimes::D0);
    let options = RuleOptions::default();
    let instances: Vec<_> = (0..3)
        .map(|i| {
            let circuit = random_template_circuit(
                3,
                6,
                0x5eed_2023 + 2000 + i,
                &DEFAULT_TEMPLATE_GATES,
                true,
            );
            let pre =
                qca_adapt::preprocess::preprocess(&circuit, &hw).expect("rand-3q-d6 preprocesses");
            let catalog = evaluate_substitutions(&pre, &hw, &options).expect("rules evaluate");
            (pre, catalog)
        })
        .collect();
    let mut ctx = AdaptContext::with_objective(Objective::IdleTime);
    ctx.options.exact = true;
    let solve = || {
        instances
            .iter()
            .map(|(pre, catalog)| {
                let r = solve_model(pre, &hw, catalog, &ctx).expect("exact idle solves");
                assert!(r.optimal, "an exact solve is proven");
                r.solver_stats.conflicts
            })
            .sum::<u64>()
    };
    let conflicts = solve();
    let measurement = measure(&config.harness, solve);
    let metrics = BTreeMap::from([
        ("circuits".to_string(), instances.len() as f64),
        ("conflicts".to_string(), conflicts as f64),
    ]);
    Some(timing_result(
        config,
        id,
        "core",
        &measurement,
        true,
        metrics,
    ))
}

/// The eigen step inside KAK: `UᵀU` of a unitary `U` is symmetric and
/// unitary, so its real and imaginary parts are commuting real symmetric
/// matrices, diagonalized together.
fn bench_simultaneous_diagonalize(config: &SuiteConfig) -> Option<BenchResult> {
    let id = "num.simultaneous_diagonalize";
    if !config.wants(id) {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(5);
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..32)
        .map(|_| {
            let u = haar_unitary(&mut rng, 4);
            let s = &u.transpose() * &u;
            let re = s.as_slice().iter().map(|z| z.re).collect();
            let im = s.as_slice().iter().map(|z| z.im).collect();
            (re, im)
        })
        .collect();
    let measurement = measure(&config.harness, || {
        pairs
            .iter()
            .map(|(re, im)| simultaneous_diagonalize(re, im, 4, 1e-6).1[0])
            .sum::<f64>()
    });
    let metrics = BTreeMap::from([("pairs".to_string(), pairs.len() as f64)]);
    Some(timing_result(
        config,
        id,
        "num",
        &measurement,
        true,
        metrics,
    ))
}

/// Two-qubit synthesis: KAK-decompose each of a fixed set of Haar-random
/// unitaries and emit its CZ circuit.
fn bench_kak(config: &SuiteConfig) -> Option<BenchResult> {
    let id = "synth.kak";
    if !config.wants(id) {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(7);
    let unitaries: Vec<CMat> = (0..32).map(|_| haar_unitary(&mut rng, 4)).collect();
    let measurement = measure(&config.harness, || {
        unitaries
            .iter()
            .map(|u| kak_decompose(u).to_circuit_cz().len())
            .sum::<usize>()
    });
    let metrics = BTreeMap::from([("unitaries".to_string(), unitaries.len() as f64)]);
    Some(timing_result(
        config,
        id,
        "synth",
        &measurement,
        true,
        metrics,
    ))
}

/// Noisy density-matrix simulation of a directly translated `q`-qubit
/// quantum-volume circuit — the fidelity estimate behind the paper's
/// Fig. 5/6 comparisons.
fn bench_noisy_sim(config: &SuiteConfig, q: usize) -> Option<BenchResult> {
    let id = format!("sim.noisy_qv/{q}");
    if !config.wants(&id) {
        return None;
    }
    let hw = spin_qubit_model(GateTimes::D0);
    let circuit = direct_translation(&quantum_volume(q, 2, 5));
    let measurement = measure(&config.harness, || {
        simulate_noisy(&circuit, &hw).expect("hardware-native circuit simulates")
    });
    let metrics = BTreeMap::from([("gates".to_string(), circuit.len() as f64)]);
    Some(timing_result(
        config,
        &id,
        "sim",
        &measurement,
        true,
        metrics,
    ))
}

/// Exact nearest-rank percentile over an ascending-sorted slice.
fn percentile_ns(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Relative dispersion of a percentile statistic: the latency stream is
/// split into sequential chunks, the percentile computed per chunk, and the
/// spread of those estimates reported (MAD / median). Tail percentiles on
/// small chunks wobble — that widens the compare gate's noise bound, which
/// is exactly the honest outcome.
fn percentile_dispersion(latencies: &[f64], q: f64, chunks: usize) -> f64 {
    let chunk = latencies.len() / chunks.max(1);
    if chunk == 0 {
        return 0.0;
    }
    let mut estimates: Vec<f64> = latencies
        .chunks(chunk)
        .filter(|c| c.len() == chunk)
        .map(|c| {
            let mut sorted = c.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
            percentile_ns(&sorted, q)
        })
        .collect();
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimate"));
    let n = estimates.len();
    if n == 0 {
        return 0.0;
    }
    let median = if n % 2 == 1 {
        estimates[n / 2]
    } else {
        (estimates[n / 2 - 1] + estimates[n / 2]) / 2.0
    };
    if median <= 0.0 {
        return 0.0;
    }
    let mut deviations: Vec<f64> = estimates.iter().map(|e| (e - median).abs()).collect();
    deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite deviation"));
    let mad = if n % 2 == 1 {
        deviations[n / 2]
    } else {
        (deviations[n / 2 - 1] + deviations[n / 2]) / 2.0
    };
    mad / median
}

/// QASM body the event-loop benchmark posts (same as `qca-load`'s
/// well-formed body).
const SERVE_QASM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[1];\n";

/// Idle connections the event-loop benchmark parks — the sustain floor the
/// roadmap pins for one node, in quick mode too.
const EVENT_LOOP_IDLE: usize = 5000;

fn bench_event_loop(config: &SuiteConfig) -> Option<BenchResult> {
    let requests = if config.quick { (20, 160) } else { (50, 400) };
    bench_event_loop_sized(config, EVENT_LOOP_IDLE, requests)
}

/// Hot-request latency with `idle` keep-alive connections parked on the
/// readiness loop. A thread-per-connection server would need `idle`
/// blocked threads to even hold the sockets; the event loop holds them as
/// epoll registrations, and the measured number is what that costs a hot
/// request. Afterwards a sample of the parked connections must still
/// answer `/healthz` — parked means served, not leaked.
fn bench_event_loop_sized(
    config: &SuiteConfig,
    idle: usize,
    (warmup_requests, requests): (usize, usize),
) -> Option<BenchResult> {
    let id = "serve.event_loop";
    if !config.wants(id) {
        return None;
    }
    // Both socket ends live in this process: ~2 fds per parked connection.
    raise_nofile_limit(2 * idle as u64 + 512);

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 256,
        ..ServeConfig::default()
    })
    .expect("bind in-process qca-serve");
    let addr = server.local_addr().expect("server local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let server_shutdown = shutdown.clone();
    let server_thread = std::thread::spawn(move || server.run(&server_shutdown));

    let mut parked: Vec<Connection> = (0..idle)
        .map(|i| {
            Connection::connect(addr, Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();

    // A small hot set, round-robined, does the real work.
    let mut hot: Vec<Connection> = (0..4)
        .map(|_| Connection::connect(addr, Duration::from_secs(30)).expect("hot connection"))
        .collect();
    let target = "/v1/adapt?circuit=0";
    let mut latencies_ns: Vec<f64> = Vec::with_capacity(requests);
    let run_start = Instant::now();
    for i in 0..warmup_requests + requests {
        let connection = &mut hot[i % 4];
        let t0 = Instant::now();
        let response = connection
            .request("POST", target, SERVE_QASM.as_bytes())
            .expect("hot request failed");
        assert_eq!(response.status, 200, "event-loop benchmark got a non-200");
        if i >= warmup_requests {
            latencies_ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let wall = run_start.elapsed();

    // Prove the parked connections survived: a spread sample (and always
    // the last one) must still be served.
    let step = (idle / 50).max(1);
    let mut checked = 0usize;
    for i in (0..idle).step_by(step).chain([idle - 1]) {
        let response = parked[i]
            .request("GET", "/healthz", b"")
            .unwrap_or_else(|e| panic!("parked connection {i} died: {e}"));
        assert_eq!(response.status, 200, "parked connection {i} unhealthy");
        checked += 1;
    }

    drop(hot);
    drop(parked);
    shutdown.store(true, Ordering::SeqCst);
    server_thread
        .join()
        .expect("server thread panicked")
        .expect("server drain failed");

    let mut sorted = latencies_ns.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let mut metrics = BTreeMap::new();
    metrics.insert("idle_connections".to_string(), idle as f64);
    metrics.insert("checked_alive".to_string(), checked as f64);
    metrics.insert("p95_ns".to_string(), percentile_ns(&sorted, 0.95));
    metrics.insert(
        "throughput_rps".to_string(),
        (warmup_requests + requests) as f64 / wall.as_secs_f64().max(1e-9),
    );
    metrics.insert("requests".to_string(), requests as f64);
    Some(BenchResult {
        id: id.to_string(),
        layer: "serve".to_string(),
        unit: "ns".to_string(),
        better: Direction::LowerIsBetter,
        value: percentile_ns(&sorted, 0.50),
        dispersion: percentile_dispersion(&latencies_ns, 0.50, 5),
        samples: requests,
        iters_per_sample: 1,
        observable: true,
        metrics,
    })
}

fn bench_store_warm_restart(config: &SuiteConfig) -> Option<BenchResult> {
    bench_store_warm_restart_sized(config, if config.quick { 64 } else { 512 })
}

/// A structurally distinct record per key, so the persisted corpus is not
/// one value repeated `records` times.
fn store_record(k: usize) -> qca_adapt::Adaptation {
    let mut circuit = qca_circuit::Circuit::new(2);
    for _ in 0..(k % 7) + 1 {
        circuit.push(qca_circuit::Gate::Cx, &[0, 1]);
    }
    qca_adapt::Adaptation {
        circuit: circuit.clone(),
        reference: circuit,
        chosen: Vec::new(),
        catalog_size: 3,
        solver: qca_adapt::SmtAdaptation {
            chosen: vec![0],
            objective_value: k as i64,
            queries: 1,
            sat_vars: 4,
            optimal: true,
            solver_stats: qca_sat::SolverStats::default(),
            verification: None,
        },
    }
}

/// Warm-restart cost: `Store::open` (scan + torn-tail recovery + index
/// build) plus a full replay of every record — exactly what a restarting
/// `qca-serve --store DIR` pays before its cache is warm again.
fn bench_store_warm_restart_sized(config: &SuiteConfig, records: usize) -> Option<BenchResult> {
    let id = "store.warm_restart";
    if !config.wants(id) {
        return None;
    }
    let dir = std::env::temp_dir().join(format!("qca-perf-store-{}-{records}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = qca_store::Store::open(&dir).expect("open store");
        for k in 0..records {
            store.append(k as u64, &store_record(k)).expect("append");
        }
        store.flush().expect("flush store");
    }
    // Probe: one restart must replay everything that was appended.
    let probe = qca_store::Store::open(&dir).expect("reopen store");
    let mut replayed = 0usize;
    probe.replay(|_, _| replayed += 1);
    assert_eq!(replayed, records, "warm restart lost records");
    let wal_bytes = probe.stats().wal_bytes;
    drop(probe);

    let measurement = measure(&config.harness, || {
        let store = qca_store::Store::open(&dir).expect("reopen store");
        let mut n = 0usize;
        store.replay(|_, _| n += 1);
        assert_eq!(n, records, "replay dropped records");
    });
    let _ = std::fs::remove_dir_all(&dir);
    let mut metrics = BTreeMap::new();
    metrics.insert("records".to_string(), records as f64);
    metrics.insert("wal_bytes".to_string(), wal_bytes as f64);
    Some(timing_result(
        config,
        id,
        "store",
        &measurement,
        true,
        metrics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tiny harness configuration so suite tests stay fast.
    fn tiny() -> SuiteConfig {
        let mut config = SuiteConfig::new(true);
        config.harness = HarnessConfig {
            samples: 3,
            target_sample: Duration::from_millis(2),
            min_warmup: Duration::from_millis(1),
            max_warmup: Duration::from_millis(10),
            steady_tolerance: 0.5,
            trim: 0.0,
        };
        config
    }

    #[test]
    fn pigeonhole_bench_reports_rates() {
        let result = bench_pigeonhole(&tiny(), 5).unwrap();
        assert_eq!(result.layer, "sat");
        assert!(result.value > 0.0);
        assert!(result.metrics["conflicts"] > 0.0);
        assert!(result.metrics["conflicts_per_sec"] > 0.0);
        assert!(result.metrics["propagations_per_sec"] > 0.0);
    }

    #[test]
    fn preprocess_bench_cuts_conflicts() {
        let result = bench_preprocess(&tiny(), 5).unwrap();
        assert_eq!(result.layer, "sat");
        assert!(result.value > 0.0);
        // The bench's own probe asserts the 0.8x cut; re-check the
        // reported metrics here so a silent metric rename can't hide it.
        assert!(
            result.metrics["conflicts_preprocessed"]
                <= 0.8 * result.metrics["conflicts_raw"].max(1.0)
        );
    }

    #[test]
    fn scaling_bench_is_honest_about_cores() {
        let mut config = tiny();
        config.fingerprint.cores = 1;
        let result = bench_engine_batch(&config, SCALE_WORKERS).unwrap();
        assert!(
            !result.observable,
            "4-worker result claimed observable on 1 core"
        );
        config.fingerprint.cores = 64;
        let result = bench_engine_batch(&config, SCALE_WORKERS).unwrap();
        assert!(result.observable);
        let single = bench_engine_batch(&config, 1).unwrap();
        assert!(single.observable);
        assert!(single.metrics["jobs_per_sec"].is_finite());
    }

    #[test]
    fn filter_skips_benchmarks() {
        let mut config = tiny();
        config.filter = Some("nothing-matches-this".to_string());
        assert!(bench_pigeonhole(&config, 5).is_none());
        assert!(bench_preprocess(&config, 5).is_none());
        assert!(bench_engine_batch(&config, 1).is_none());
        assert!(bench_adapt_routed(&config).is_none());
        assert!(bench_recalibrate(&config).is_none());
        assert!(bench_smt_schedule(&config, 20).is_none());
        assert!(bench_exact_idle(&config).is_none());
        assert!(bench_simultaneous_diagonalize(&config).is_none());
        assert!(bench_kak(&config).is_none());
        assert!(bench_noisy_sim(&config, 2).is_none());
        assert!(bench_event_loop(&config).is_none());
        assert!(bench_store_warm_restart(&config).is_none());
    }

    #[test]
    fn event_loop_bench_parks_and_proves_idle_connections() {
        // Downsized: the 5k sustain run belongs to the recorded suite, not
        // the unit tests. Shape and invariants are identical.
        let result = bench_event_loop_sized(&tiny(), 32, (2, 20)).unwrap();
        assert_eq!(result.layer, "serve");
        assert!(result.value > 0.0);
        assert_eq!(result.metrics["idle_connections"], 32.0);
        assert!(result.metrics["checked_alive"] >= 32.0);
        assert!(result.metrics["throughput_rps"] > 0.0);
    }

    #[test]
    fn warm_restart_bench_replays_every_record() {
        let result = bench_store_warm_restart_sized(&tiny(), 8).unwrap();
        assert_eq!(result.layer, "store");
        assert!(result.value > 0.0);
        assert_eq!(result.metrics["records"], 8.0);
        assert!(result.metrics["wal_bytes"] > 0.0);
    }

    #[test]
    fn simultaneous_diagonalize_bench_reports_pairs() {
        let result = bench_simultaneous_diagonalize(&tiny()).unwrap();
        assert_eq!(result.layer, "num");
        assert!(result.value > 0.0);
        assert_eq!(result.metrics["pairs"], 32.0);
    }

    #[test]
    fn adapt_routed_bench_exercises_routing() {
        let result = bench_adapt_routed(&tiny()).unwrap();
        assert_eq!(result.layer, "engine");
        assert!(result.value > 0.0);
        assert!(result.metrics["routed_substitutions"] >= 1.0);
        assert!(result.metrics["jobs"] >= 1.0);
    }

    #[test]
    fn recalibrate_bench_covers_the_whole_corpus() {
        let result = bench_recalibrate(&tiny()).unwrap();
        assert_eq!(result.layer, "engine");
        assert!(result.value > 0.0);
        assert!(result.metrics["entries"] >= 1.0);
        assert_eq!(
            result.metrics["reused"] + result.metrics["resolved"],
            result.metrics["entries"],
        );
    }

    #[test]
    fn exact_idle_bench_proves_every_circuit() {
        let result = bench_exact_idle(&tiny()).unwrap();
        assert_eq!(
            (result.id.as_str(), result.layer.as_str()),
            ("core.exact_idle", "core")
        );
        assert!(result.value > 0.0);
        assert_eq!(result.metrics["circuits"], 3.0);
        assert!(
            result.metrics["conflicts"] > 0.0,
            "the proofs refute a level"
        );
    }

    #[test]
    fn layer_benches_report_their_workload() {
        let results = [
            bench_smt_schedule(&tiny(), 20).unwrap(),
            bench_kak(&tiny()).unwrap(),
            bench_noisy_sim(&tiny(), 2).unwrap(),
        ];
        let ids: Vec<_> = results
            .iter()
            .map(|r| (r.id.as_str(), r.layer.as_str()))
            .collect();
        assert_eq!(
            ids,
            [
                ("smt.schedule/20", "smt"),
                ("synth.kak", "synth"),
                ("sim.noisy_qv/2", "sim")
            ]
        );
        assert_eq!(results[0].metrics["blocks"], 20.0);
        assert!(results[0].metrics["clauses"] > 0.0);
        assert_eq!(results[1].metrics["unitaries"], 32.0);
        assert!(results[2].metrics["gates"] > 0.0);
        assert!(results.iter().all(|r| r.value > 0.0));
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_ns(&sorted, 0.50), 50.0);
        assert_eq!(percentile_ns(&sorted, 0.95), 95.0);
        assert_eq!(percentile_ns(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ns(&sorted, 1.0), 100.0);
        assert_eq!(percentile_ns(&[], 0.5), 0.0);
        assert_eq!(percentile_ns(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_ns(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_dispersion_is_zero_for_constant_stream() {
        let constant = vec![5.0; 50];
        assert_eq!(percentile_dispersion(&constant, 0.5, 5), 0.0);
        // And positive when the stream drifts across chunks.
        let drifting: Vec<f64> = (0..50).map(|i| i as f64 + 1.0).collect();
        assert!(percentile_dispersion(&drifting, 0.5, 5) > 0.0);
        // Degenerate: fewer samples than chunks.
        assert_eq!(percentile_dispersion(&[1.0], 0.5, 5), 0.0);
    }
}
