//! The traced run: per-layer metrics.
//!
//! After one untraced reference round, the round's requests are replayed
//! against a freshly started server. Each request is sent (the
//! `serve.request` span is its round trip), and the benchmark then makes
//! the layer calls the server made for it directly, on the same inputs,
//! with a span around each call. What the round trip spent outside those
//! calls is `serve.unattributed_us`. Layers a workload's requests do not
//! reach are then called on that workload's inputs as well ("off-path"
//! spans), so every per-layer metric is measured on every workload; the
//! README table says which end-to-end metric each should move where.
//! Spans stay in memory and are summarised at the end.

use crate::corpus::{Item, Plan, Request, Workload, HOT_LRU};
use crate::drive::{self, Counters};
use crate::{stats, untraced_round, Bench, Metric};
use qca_adapt::model::solve_model;
use qca_adapt::preprocess::preprocess;
use qca_adapt::rules::{append_routing_substitutions, evaluate_substitutions};
use qca_adapt::{extract_circuit, AdaptContext, AdaptOptions, Adaptation, SmtAdaptation};
use qca_circuit::{qasm::parse_qasm, Circuit};
use qca_engine::cache::AdaptCache;
use qca_engine::{AdaptJob, AdaptReport, AdaptStatus, AuditOutcome, Engine, EngineConfig};
use qca_hw::{spin_qubit_model, CouplingMap, GateTimes, HardwareModel};
use qca_serve::json::report_to_json;
use qca_serve::RequestParser;
use qca_store::Store;
use qca_synth::kak::kak_decompose;
use qca_trace::report::Report;
use qca_trace::Tracer;
use qca_verify::{audit_adaptation_with_coupling, check_certificate};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot-tiered working-set circuits solved directly, so the solver layers
/// are measured on that workload's inputs too.
const HOT_SOLVE_SAMPLE: usize = 16;
/// Circuits solved with `exact` + certification so `verify.drat_ms` is
/// measured on workloads whose requests carry no certificate.
const DRAT_SAMPLE: usize = 2;
/// Store open + replay repetitions.
const REPLAYS: usize = 3;

/// One span the benchmark recorded around a call into a layer.
struct SpanRec {
    name: &'static str,
    /// The enclosing span; layer calls of a replayed request sit under its
    /// `replay` span.
    parent: Option<usize>,
    /// The replayed request, or `None` for off-path calls.
    request: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, at.parent, at.request);
        let out = f();
        self.close(id);
        out
    }

    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Where a layer call sits in the span tree.
#[derive(Clone, Copy)]
struct At {
    parent: Option<usize>,
    request: Option<usize>,
}

const OFF_PATH: At = At {
    parent: None,
    request: None,
};

/// Counts and program-span times gathered from direct solves.
#[derive(Default)]
struct Tally {
    probes: u64,
    conflicts: u64,
    propagations: u64,
    catalog: u64,
    sat_vars: Vec<f64>,
    encode_ns: Vec<f64>,
    probe_ns: Vec<f64>,
    certify_ns: Vec<f64>,
    sat_solve_ns: Vec<f64>,
    drat_steps: u64,
}

/// The options the server solves `item` under (`qca-engine` turns
/// `verify=1` into certification).
fn options_of(item: &Item) -> AdaptOptions {
    AdaptOptions {
        objective: item.objective,
        exact: item.exact,
        certify: item.verify,
        coupling: item
            .line
            .then(|| CouplingMap::line(item.circuit.num_qubits())),
        ..AdaptOptions::default()
    }
}

/// The cache key the server files `item` under.
fn key_of(item: &Item, hw: &HardwareModel) -> u64 {
    let job = job_of(item, item.circuit.clone());
    AdaptCache::key(&job.circuit, hw, &job.options, &job.limits)
}

/// The job the server runs for `item`, with certification already in its
/// options so an engine without a verify policy files it under the same key.
fn job_of(item: &Item, circuit: Circuit) -> AdaptJob {
    let mut job = AdaptJob::new(circuit);
    job.options = options_of(item);
    job
}

/// The server's solve, one public call per layer: preprocess, rule
/// evaluation (with routing), the OMT model solve (its own `smt.encode`,
/// `omt.probe`, `omt.certify` and `sat.solve` spans read back from a
/// memory tracer), and extraction.
fn solve(
    rec: &mut Recorder,
    at: At,
    tally: &mut Tally,
    hw: &HardwareModel,
    circuit: &Circuit,
    options: AdaptOptions,
) -> Result<Adaptation, String> {
    let (tracer, sink) = Tracer::to_memory();
    let ctx = AdaptContext {
        options,
        tracer,
        ..AdaptContext::default()
    };
    let pre = rec
        .time("core.preprocess", at, || preprocess(circuit, hw))
        .map_err(|e| format!("preprocess: {e}"))?;
    let catalog = rec
        .time("core.rules", at, || {
            let mut catalog = evaluate_substitutions(&pre, hw, &ctx.options.rules)?;
            if let Some(cm) = &ctx.options.coupling {
                append_routing_substitutions(&mut catalog, &pre, hw, cm)?;
            }
            Ok::<_, qca_adapt::AdaptError>(catalog)
        })
        .map_err(|e| format!("rules: {e}"))?;
    let solver: SmtAdaptation = rec
        .time("smt.solve", at, || solve_model(&pre, hw, &catalog, &ctx))
        .map_err(|e| format!("solve: {e}"))?;
    let circuit_out = rec.time("core.extract", at, || {
        extract_circuit(&pre, &catalog, &solver.chosen)
    });
    // KAK on the block unitaries is inside rule evaluation; time it on its
    // own, off the request path.
    for block in pre.block_circuits.iter().filter(|b| b.num_qubits() == 2) {
        let u = block.unitary();
        rec.time("synth.kak", OFF_PATH, || {
            std::hint::black_box(kak_decompose(&u))
        });
    }
    let report = Report::from_events(&sink.take());
    let phase = |name| report.phase_total_ns(name).unwrap_or(0) as f64;
    tally.encode_ns.push(phase("smt.encode"));
    tally.sat_solve_ns.push(phase("sat.solve"));
    if report.phase_count("omt.probe") > 0 {
        tally.probe_ns.push(phase("omt.probe"));
    }
    if report.phase_count("omt.certify") > 0 {
        tally.certify_ns.push(phase("omt.certify"));
    }
    tally.probes += solver.queries;
    tally.conflicts += solver.solver_stats.conflicts;
    tally.propagations += solver.solver_stats.propagations;
    tally.catalog += catalog.len() as u64;
    tally.sat_vars.push(solver.sat_vars as f64);
    Ok(Adaptation {
        circuit: circuit_out,
        reference: pre.reference_circuit(),
        chosen: solver.chosen.iter().map(|&i| catalog[i].clone()).collect(),
        catalog_size: catalog.len(),
        solver,
    })
}

fn report_of(adaptation: Adaptation, audit: Option<AuditOutcome>) -> AdaptReport {
    AdaptReport {
        job: 0,
        status: if adaptation.solver.optimal {
            AdaptStatus::Optimal
        } else {
            AdaptStatus::Feasible
        },
        circuit: adaptation.circuit.clone(),
        objective_value: Some(adaptation.solver.objective_value),
        cache_hit: false,
        wall: Duration::ZERO,
        solver_stats: Some(adaptation.solver.solver_stats.clone()),
        error: None,
        adaptation: Some(Arc::new(adaptation)),
        audit,
        diagnostics: Vec::new(),
    }
}

/// A second engine over the same store and LRU size as the hot-tiered
/// server. Fed the same circuits in the same order, its cache takes the
/// same hits and misses, so timing its `adapt_one` times the server's
/// lookups.
struct Mirror {
    engine: Engine,
    store: Arc<Store>,
    /// Keys it served from the store tier.
    tier2: Vec<u64>,
    /// Lookups it served from the LRU.
    hits: u64,
}

impl Mirror {
    fn open(dir: &Path, capacity: usize) -> Result<Mirror, String> {
        let store = Arc::new(Store::open(dir).map_err(|e| format!("store: {e}"))?);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            cache_capacity: capacity,
            job_conflict_budget: None,
            job_timeout: None,
            tracer: Tracer::disabled(),
            verify: false,
            lint: false,
            deny_warnings: false,
            portfolio_members: 0,
            preprocess: true,
            store: Some(store.clone()),
        });
        Ok(Mirror {
            engine,
            store,
            tier2: Vec::new(),
            hits: 0,
        })
    }

    fn adapt(
        &mut self,
        rec: &mut Recorder,
        at: At,
        hw: &HardwareModel,
        job: &AdaptJob,
    ) -> AdaptReport {
        let before = self.store.stats().hits;
        let id = rec.open("engine.hit", at.parent, at.request);
        let report = self.engine.adapt_one(hw, job);
        rec.close(id);
        if self.store.stats().hits > before {
            rec.spans[id].name = "engine.store_hit";
            self.tier2
                .push(AdaptCache::key(&job.circuit, hw, &job.options, &job.limits));
        } else if report.cache_hit {
            self.hits += 1;
        }
        report
    }
}

/// The bytes `qca_serve::Connection` puts on the wire for `r`.
fn raw_request(r: &Request) -> Vec<u8> {
    let mut raw = format!(
        "POST {} HTTP/1.1\r\nHost: qca-serve\r\nContent-Length: {}\r\n\r\n",
        r.target,
        r.body.len()
    )
    .into_bytes();
    raw.extend_from_slice(r.body.as_bytes());
    raw
}

/// Replays the server's work for one request with a span per layer call.
/// Returns the directly computed circuits (QASM) for the cross-check.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    rec: &mut Recorder,
    index: usize,
    r: &Request,
    plan: &Plan,
    hw: &HardwareModel,
    mirror: Option<&mut Mirror>,
    tally: &mut Tally,
    solved: &mut Vec<(usize, Adaptation)>,
) -> Result<Vec<String>, String> {
    let replay = rec.open("replay", None, Some(index));
    let at = At {
        parent: Some(replay),
        request: Some(index),
    };
    let raw = raw_request(r);
    let parsed = rec.time("serve.http_parse", at, || RequestParser::new().feed(&raw));
    if !matches!(parsed, Ok(Some(_))) {
        return Err(format!("request {index} did not parse: {parsed:?}"));
    }
    let mut mirror = mirror;
    let mut out = Vec::with_capacity(r.items.len());
    for &id in &r.items {
        let item = &plan.items[id];
        let circuit = rec
            .time("circuit.qasm_parse", at, || parse_qasm(&item.qasm))
            .map_err(|e| format!("qasm: {e}"))?;
        let report = match mirror.as_deref_mut() {
            Some(m) => m.adapt(rec, at, hw, &job_of(item, circuit)),
            None => {
                let adaptation = solve(rec, at, tally, hw, &circuit, options_of(item))?;
                let audit = if item.verify {
                    let coupling = options_of(item).coupling;
                    rec.time("verify.audit", at, || {
                        audit_adaptation_with_coupling(
                            &circuit,
                            &adaptation,
                            hw,
                            item.objective,
                            coupling.as_ref(),
                        )
                    })
                    .map_err(|e| format!("audit: {e}"))?;
                    Some(AuditOutcome::Passed)
                } else {
                    None
                };
                solved.push((id, adaptation.clone()));
                report_of(adaptation, audit)
            }
        };
        out.push(qca_circuit::qasm::to_qasm(&report.circuit));
        rec.time("serve.render", at, || {
            std::hint::black_box(report_to_json(&format!("req-{index}.{id}"), &report, true))
        });
    }
    rec.close(replay);
    Ok(out)
}

/// Store layer calls on the workload's adaptations: appends (fsync on) to a
/// scratch store, then open + replay, then point reads.
fn probe_store(
    rec: &mut Recorder,
    dir: &Path,
    records: &[(u64, Adaptation)],
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| format!("store: {e}"))?;
    for (key, a) in records {
        rec.time("store.append", OFF_PATH, || store.append(*key, a))
            .map_err(|e| format!("append: {e}"))?;
    }
    drop(store);
    probe_replay(rec, dir)?;
    let store = Store::open(dir).map_err(|e| format!("store: {e}"))?;
    for (key, _) in records {
        if rec
            .time("store.get", OFF_PATH, || store.get(*key))
            .is_none()
        {
            return Err("appended record not found".into());
        }
    }
    Ok(())
}

fn probe_replay(rec: &mut Recorder, dir: &Path) -> Result<(), String> {
    for _ in 0..REPLAYS {
        rec.time("store.replay", OFF_PATH, || {
            let store = Store::open(dir)?;
            let mut n = 0usize;
            store.replay(|_, _| n += 1);
            Ok::<_, std::io::Error>(n)
        })
        .map_err(|e| format!("replay: {e}"))?;
    }
    Ok(())
}

/// Certified exact fidelity solves of a few of the workload's circuits and
/// a timed DRAT check of each certificate, for workloads whose requests
/// carry none. The solves themselves are not tallied.
fn probe_drat(
    rec: &mut Recorder,
    tally: &mut Tally,
    hw: &HardwareModel,
    circuits: &[&Circuit],
) -> Result<(), String> {
    for circuit in circuits.iter().take(DRAT_SAMPLE) {
        let mut scratch = Recorder::new();
        let mut side = Tally::default();
        let options = AdaptOptions {
            exact: true,
            certify: true,
            ..AdaptOptions::default()
        };
        let a = solve(&mut scratch, OFF_PATH, &mut side, hw, circuit, options)?;
        tally.certify_ns.extend(side.certify_ns);
        check_drat(rec, tally, &a)?;
    }
    Ok(())
}

fn check_drat(rec: &mut Recorder, tally: &mut Tally, a: &Adaptation) -> Result<(), String> {
    let cert = a
        .solver
        .verification
        .as_ref()
        .and_then(|v| v.certificate.as_ref())
        .ok_or("proven solve carries no certificate")?;
    let stats = rec
        .time("verify.drat", OFF_PATH, || check_certificate(cert))
        .map_err(|e| format!("drat: {e}"))?;
    tally.drat_steps += stats.additions_checked as u64;
    Ok(())
}

/// Runs the traced replay and returns the result line with every per-layer
/// metric.
pub fn run(bench: &mut Bench) -> Result<String, String> {
    let workload = bench.workload;
    let hw = spin_qubit_model(GateTimes::D0);
    let reference = untraced_round(bench)?;

    let mut s = bench.setup()?;
    let mut mirror = match (workload, &bench.store) {
        (Workload::HotTiered, Some(dir)) => Some(Mirror::open(dir, HOT_LRU)?),
        _ => None,
    };
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut solved: Vec<(usize, Adaptation)> = Vec::new();
    let mut answers = Vec::new();
    let mut direct = Vec::new();
    let mut round_trips = Vec::new();
    for (i, r) in s.plan.requests.iter().enumerate() {
        let id = rec.open("serve.request", None, Some(i));
        let answer = drive::send(&mut s.conn, r).0?;
        rec.close(id);
        round_trips.push(id);
        answers.push(answer);
        direct.push(replay_request(
            &mut rec,
            i,
            r,
            &s.plan,
            &hw,
            mirror.as_mut(),
            &mut tally,
            &mut solved,
        )?);
    }
    let counters = Counters::from_metrics(&drive::fetch_metrics(&mut s.conn)?);
    drop(s.conn);
    s.running.stop()?;

    // The traced round must do the reference round's work, and the direct
    // calls must reproduce the server's answers.
    let check = bench.checker.check(&bench.plan, &s.plan.requests, &answers);
    if counters != reference.counters || check.digest != reference.check.digest {
        println!("# WORK-IDENTITY: traced round differs from the untraced round");
        bench.correct = false;
    }
    if !direct_matches(&answers, &direct) {
        println!("# TRACE: direct layer calls did not reproduce the server's circuits");
        bench.correct = false;
    }
    if let Some(m) = &mirror {
        if m.hits != counters.cache_hits {
            println!(
                "# TRACE: mirror engine took {} LRU hits, the server {}",
                m.hits, counters.cache_hits
            );
            bench.correct = false;
        }
    }
    for f in reference.check.failures.iter().chain(&check.failures) {
        println!("# FAILED: {f}");
    }

    // Off-path layer calls on this workload's inputs.
    let probe_dir = bench.work.join("probe");
    if let Some(m) = &mut mirror {
        for key in m.tier2.clone() {
            rec.time("store.get", OFF_PATH, || m.store.get(key));
        }
        for id in 0..HOT_SOLVE_SAMPLE.min(bench.plan.items.len()) {
            let item = &bench.plan.items[id];
            let a = solve(
                &mut rec,
                OFF_PATH,
                &mut tally,
                &hw,
                &item.circuit,
                options_of(item),
            )?;
            solved.push((id, a));
        }
    }
    let records: Vec<(u64, Adaptation)> = solved
        .iter()
        .map(|(id, a)| (key_of(&bench.plan.items[*id], &hw), a.clone()))
        .collect();
    probe_store(&mut rec, &probe_dir, &records)?;
    if let Some(dir) = &bench.store {
        probe_replay(&mut rec, dir)?;
    }
    if mirror.is_none() {
        // Lookups that hit: an engine warm-started from the probe store.
        let m = Mirror::open(&probe_dir, records.len() * 2)?;
        for (id, _) in &solved {
            let item = &bench.plan.items[*id];
            let job = job_of(item, item.circuit.clone());
            let report = rec.time("engine.hit", OFF_PATH, || m.engine.adapt_one(&hw, &job));
            if !report.cache_hit {
                return Err("warm-started engine missed".into());
            }
        }
    }
    // Audits are on the path of verify requests; elsewhere they are probed.
    let audits_on_path = bench.plan.items.iter().any(|i| i.verify);
    for (id, a) in &solved {
        let item = &bench.plan.items[*id];
        if item.verify {
            check_drat(&mut rec, &mut tally, a)?;
        } else if !audits_on_path {
            let coupling = options_of(item).coupling;
            rec.time("verify.audit", OFF_PATH, || {
                audit_adaptation_with_coupling(
                    &item.circuit,
                    a,
                    &hw,
                    item.objective,
                    coupling.as_ref(),
                )
            })
            .map_err(|e| format!("audit: {e}"))?;
        }
    }
    if !audits_on_path {
        let fidelity: Vec<&Circuit> = bench
            .plan
            .items
            .iter()
            .filter(|i| i.objective == qca_adapt::Objective::Fidelity && !i.line)
            .map(|i| &i.circuit)
            .collect();
        probe_drat(&mut rec, &mut tally, &hw, &fidelity)?;
    }
    let _ = std::fs::remove_dir_all(&probe_dir);

    // Attribution: each round trip against the layer calls made for it.
    let mut rt_us = Vec::new();
    let mut unattributed_us = Vec::new();
    for (i, &id) in round_trips.iter().enumerate() {
        let rt = (rec.spans[id].end_ns - rec.spans[id].start_ns) as f64 / 1e3;
        let layers: u64 = rec
            .spans
            .iter()
            .filter(|sp| sp.request == Some(i) && sp.parent.is_some())
            .map(|sp| sp.end_ns - sp.start_ns)
            .sum();
        rt_us.push(rt);
        unattributed_us.push(rt - layers as f64 / 1e3);
    }
    let p50 = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 50.0)
    };
    let traced_p50_ms = p50(&rt_us) / 1e3;
    let traced_cps = s.plan.circuits() as f64 / (rt_us.iter().sum::<f64>() / 1e6);
    let untraced_p50_ms = p50(&reference.latencies_ms);
    println!(
        "# tracing overhead: p50_ms {untraced_p50_ms:.4} untraced -> {traced_p50_ms:.4} traced \
         ({:+.1}%), circuits_per_s {:.2} -> {traced_cps:.2} ({:+.1}%)",
        100.0 * (traced_p50_ms / untraced_p50_ms - 1.0),
        reference.circuits_per_s,
        100.0 * (traced_cps / reference.circuits_per_s - 1.0),
    );
    let unattributed = stats::median(&unattributed_us);
    println!(
        "# attribution: layer calls cover all but {:.1}% of the traced request median \
         ({unattributed:.1} of {:.1} us); {} spans recorded",
        100.0 * unattributed / stats::median(&rt_us),
        stats::median(&rt_us),
        rec.spans.len()
    );

    let med = |name: &str, scale: f64| -> f64 {
        let d = rec.durations_ns(name);
        if d.is_empty() {
            f64::NAN
        } else {
            stats::median(&d) / scale
        }
    };
    let med_of = |v: &[f64], scale: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(v) / scale
        }
    };
    let (us, ms) = (1e3, 1e6);
    let sat_solve_s: f64 = tally.sat_solve_ns.iter().sum::<f64>() / 1e9;
    let hit_ratio =
        counters.cache_hits as f64 / (counters.cache_hits + counters.cache_misses).max(1) as f64;
    let metrics = vec![
        Metric::new("serve.http_parse_us", med("serve.http_parse", us), "us"),
        Metric::new("serve.render_us", med("serve.render", us), "us"),
        Metric::new("serve.unattributed_us", unattributed, "us"),
        Metric::new("circuit.qasm_parse_us", med("circuit.qasm_parse", us), "us"),
        Metric::new("engine.hit_us", med("engine.hit", us), "us"),
        Metric::new("engine.cache_hits", counters.cache_hits as f64, "count"),
        Metric::new("engine.cache_misses", counters.cache_misses as f64, "count"),
        Metric::new("engine.hit_ratio", hit_ratio, "ratio"),
        Metric::new("store.get_us", med("store.get", us), "us"),
        Metric::new("store.hits", counters.store_hits as f64, "count"),
        Metric::new("store.replay_ms", med("store.replay", ms), "ms"),
        Metric::new("store.append_us", med("store.append", us), "us"),
        Metric::new("core.preprocess_ms", med("core.preprocess", ms), "ms"),
        Metric::new("core.rules_ms", med("core.rules", ms), "ms"),
        Metric::new("core.extract_ms", med("core.extract", ms), "ms"),
        Metric::new("core.catalog_size", tally.catalog as f64, "count"),
        Metric::new("synth.kak_us", med("synth.kak", us), "us"),
        Metric::new("smt.solve_ms", med("smt.solve", ms), "ms"),
        Metric::new("smt.probes", tally.probes as f64, "count"),
        Metric::new("smt.sat_vars", med_of(&tally.sat_vars, 1.0), "count"),
        Metric::new("smt.encode_ms", med_of(&tally.encode_ns, ms), "ms"),
        Metric::new("smt.probe_ms", med_of(&tally.probe_ns, ms), "ms"),
        Metric::new("smt.certify_ms", med_of(&tally.certify_ns, ms), "ms"),
        Metric::new("sat.solve_ms", med_of(&tally.sat_solve_ns, ms), "ms"),
        Metric::new("sat.conflicts", tally.conflicts as f64, "count"),
        Metric::new("sat.propagations", tally.propagations as f64, "count"),
        Metric::new(
            "sat.props_per_s",
            tally.propagations as f64 / sat_solve_s,
            "1/s",
        ),
        Metric::new("verify.audit_ms", med("verify.audit", ms), "ms"),
        Metric::new("verify.drat_ms", med("verify.drat", ms), "ms"),
        Metric::new("verify.drat_steps", tally.drat_steps as f64, "count"),
    ];
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        println!("# MISSING: {} was not measured", m.name);
    }
    let attempted = reference.check.attempted + check.attempted;
    let failed = reference.check.failed + check.failed;
    let correct = bench.correct && failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(crate::result_line(correct, attempted, failed, &metrics))
}

/// `true` when every directly computed circuit equals the server's.
fn direct_matches(answers: &[qca_serve::HttpResponse], direct: &[Vec<String>]) -> bool {
    answers.iter().zip(direct).all(|(answer, circuits)| {
        let Ok(doc) = qca_perf::json::parse(answer.body_text().trim()) else {
            return false;
        };
        let results = match doc.get("results").and_then(|r| r.as_arr()) {
            Some(list) => list.to_vec(),
            None => vec![doc],
        };
        results.len() == circuits.len()
            && results
                .iter()
                .zip(circuits)
                .all(|(r, c)| r.get("circuit_qasm").and_then(|q| q.as_str()) == Some(c.as_str()))
    })
}
