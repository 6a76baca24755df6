//! `qca-engine` — batch-adapt a directory of OpenQASM circuits in parallel.
//!
//! ```text
//! qca-engine [OPTIONS] <QASM_DIR>
//!
//! Options:
//!   --workers N          worker threads (default: one per CPU)
//!   --objective NAME     fidelity | idle | combined   (default: fidelity)
//!   --times COL          d0 | d1                       (default: d0)
//!   --coupling TOPO      line | ring | star | starmon5 | all  (default:
//!                        none — the paper's all-to-all assumption); sized
//!                        per job from the circuit's qubit count (starmon5
//!                        is fixed at 5 qubits)
//!   --budget N           per-job total SAT conflict cap
//!   --timeout-ms N       per-job wall-clock deadline (nondeterministic)
//!   --cache-capacity N   cached adaptations (default: 256)
//!   --repeat N           submit the batch N times (shows cache hits)
//!   --out-dir DIR        write adapted circuits as QASM into DIR
//!   --metrics-out FILE   write the metrics JSON to FILE (default: stdout)
//!   --trace FILE         stream the span/event trace as JSONL into FILE
//!   --trace-report       print a per-phase time breakdown and span tree
//!   --verify             certify every solve and audit every report with
//!                        the independent qca-verify checker
//!   --lint               run the qca-lint preflight before each solve and
//!                        reject statically infeasible jobs
//!   --deny-warnings      like --lint, but escalate warnings to errors
//!   --recalibrate        after the batch, re-check every cached optimum
//!                        against the (optionally perturbed) fidelity table
//!   --perturb F          scale all gate infidelities by F for the
//!                        recalibration pass (default: 1.0, i.e. unchanged)
//! ```
//!
//! With `--coupling`, each adapted job line gains a `routed=N` marker
//! counting the SWAP-insertion substitutions the solver chose.
//!
//! Prints one line per job (`file status cache objective wall`) and the
//! engine metrics as JSON. With `--trace-report` alone the trace is kept in
//! memory; combined with `--trace FILE` the report is rebuilt by re-parsing
//! the JSONL file, so the written trace is validated in the same run.
//! With `--verify`, each job line gains an audit verdict and the process
//! exits 1 when any audit failed. With `--lint`/`--deny-warnings`, each job
//! line gains a lint summary (`lint=ok`, `lint=N warn`, or `lint=rejected`)
//! and the process exits 1 when any job was rejected by preflight.
//!
//! A file that cannot be read (missing, unreadable, non-UTF-8) or fails to
//! parse does **not** abort the batch: it is listed as a per-job `error`
//! line, the remaining circuits are adapted normally, and the process exits
//! 1 at the end.

use qca_adapt::{AdaptOptions, Objective};
use qca_circuit::qasm;
use qca_engine::{AdaptJob, Engine, EngineConfig};
use qca_hw::{spin_qubit_model, CouplingMap, GateTimes};
use qca_trace::{jsonl, report, JsonlSink, MemorySink, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    dir: PathBuf,
    workers: usize,
    objective: Objective,
    times: GateTimes,
    coupling: Option<fn(usize) -> CouplingMap>,
    budget: Option<u64>,
    timeout_ms: Option<u64>,
    cache_capacity: usize,
    repeat: usize,
    out_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_report: bool,
    verify: bool,
    lint: bool,
    deny_warnings: bool,
    recalibrate: bool,
    perturb: f64,
}

fn usage() -> &'static str {
    "usage: qca-engine [--workers N] [--objective fidelity|idle|combined] \
     [--times d0|d1] [--coupling line|ring|star|starmon5|all] [--budget N] [--timeout-ms N] [--cache-capacity N] \
     [--repeat N] [--out-dir DIR] [--metrics-out FILE] [--trace FILE] \
     [--trace-report] [--verify] [--lint] [--deny-warnings] \
     [--recalibrate] [--perturb F] <QASM_DIR>"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::new(),
        workers: 0,
        objective: Objective::Fidelity,
        times: GateTimes::D0,
        coupling: None,
        budget: None,
        timeout_ms: None,
        cache_capacity: 256,
        repeat: 1,
        out_dir: None,
        metrics_out: None,
        trace: None,
        trace_report: false,
        verify: false,
        lint: false,
        deny_warnings: false,
        recalibrate: false,
        perturb: 1.0,
    };
    let mut dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--objective" => args.objective = value("--objective")?.parse()?,
            "--times" => args.times = value("--times")?.parse()?,
            "--coupling" => args.coupling = Some(CouplingMap::topology(&value("--coupling")?)?),
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                )
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--timeout-ms: {e}"))?,
                )
            }
            "--cache-capacity" => {
                args.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("--cache-capacity: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out-dir" => args.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--trace-report" => args.trace_report = true,
            "--verify" => args.verify = true,
            "--lint" => args.lint = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--recalibrate" => args.recalibrate = true,
            "--perturb" => {
                let f: f64 = value("--perturb")?
                    .parse()
                    .map_err(|e| format!("--perturb: {e}"))?;
                if !f.is_finite() || f < 0.0 {
                    return Err(format!("--perturb must be a finite factor >= 0, got {f}"));
                }
                args.perturb = f;
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            other => {
                if dir.replace(PathBuf::from(other)).is_some() {
                    return Err("only one input directory allowed".into());
                }
            }
        }
    }
    args.dir = dir.ok_or("missing input directory")?;
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// One input file: its display name and either a loaded job or the
/// per-file load/parse error.
type NamedJob = (String, Result<AdaptJob, String>);

/// Loads every `.qasm` file in the input directory. A file that cannot be
/// read (missing, unreadable, not UTF-8) or fails to parse becomes a
/// per-file `Err` entry — one bad file must not abort the rest of the batch.
fn load_jobs(args: &Args) -> Result<Vec<NamedJob>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(&args.dir)
        .map_err(|e| format!("cannot read {}: {e}", args.dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    // Sort by file name so job indices (and thus the output order) are
    // reproducible regardless of directory enumeration order.
    files.sort();
    if files.is_empty() {
        return Err(format!("no .qasm files in {}", args.dir.display()));
    }
    let mut jobs = Vec::with_capacity(files.len());
    for path in files {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let job = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|src| qasm::parse_qasm(&src).map_err(|e| e.to_string()))
            .map(|circuit| {
                let coupling = args.coupling.map(|build| build(circuit.num_qubits()));
                let mut job = AdaptJob::with_objective(circuit, args.objective);
                job.options = AdaptOptions {
                    coupling,
                    ..job.options
                };
                job
            });
        jobs.push((name, job));
    }
    Ok(jobs)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let named_jobs = load_jobs(&args)?;
    let hw = spin_qubit_model(args.times);

    // Trace destination: JSONL file when requested, in-memory only when the
    // report alone is wanted, disabled otherwise.
    let mut memory: Option<Arc<MemorySink>> = None;
    let tracer = match (&args.trace, args.trace_report) {
        (Some(path), _) => {
            Tracer::new(Arc::new(JsonlSink::create(path).map_err(|e| {
                format!("cannot create trace file {}: {e}", path.display())
            })?))
        }
        (None, true) => {
            let (tracer, sink) = Tracer::to_memory();
            memory = Some(sink);
            tracer
        }
        (None, false) => Tracer::disabled(),
    };

    let config = EngineConfig {
        workers: args.workers,
        cache_capacity: args.cache_capacity,
        job_conflict_budget: args.budget,
        job_timeout: args.timeout_ms.map(Duration::from_millis),
        tracer,
        verify: args.verify,
        lint: args.lint || args.deny_warnings,
        deny_warnings: args.deny_warnings,
        ..EngineConfig::default()
    };
    config.validate()?;
    let engine = Engine::new(config);
    let jobs: Vec<AdaptJob> = named_jobs
        .iter()
        .filter_map(|(_, j)| j.as_ref().ok().cloned())
        .collect();
    let load_errors = named_jobs.iter().filter(|(_, j)| j.is_err()).count();

    println!(
        "# adapting {} circuits on {} workers ({} pass(es))",
        jobs.len(),
        engine.effective_workers().min(jobs.len()).max(1),
        args.repeat,
    );
    let mut audit_failures = 0u64;
    let mut lint_rejections = 0u64;
    for pass in 0..args.repeat {
        let reports = engine.adapt_batch(&hw, &jobs);
        if args.repeat > 1 {
            println!("# pass {}", pass + 1);
        }
        // Good jobs pair with batch reports in order; load failures keep
        // their slot in the listing as a per-job error line.
        let mut report_iter = reports.iter();
        for (name, loaded) in named_jobs.iter() {
            let report = match loaded {
                Ok(_) => report_iter.next().expect("one report per job"),
                Err(msg) => {
                    println!("{name:30} {:8} {:5} error={msg}", "error", "-");
                    continue;
                }
            };
            let audit = match &report.audit {
                None => String::new(),
                Some(qca_engine::AuditOutcome::Passed) => " audit=ok".to_string(),
                Some(qca_engine::AuditOutcome::Failed(msg)) => {
                    audit_failures += 1;
                    format!(" audit=FAIL({msg})")
                }
            };
            let lint = if args.lint || args.deny_warnings {
                if matches!(report.error, Some(qca_adapt::AdaptError::Rejected(_))) {
                    lint_rejections += 1;
                    " lint=rejected".to_string()
                } else if report.diagnostics.is_empty() {
                    " lint=ok".to_string()
                } else {
                    format!(" lint={} warn", report.diagnostics.len())
                }
            } else {
                String::new()
            };
            let routed = if args.coupling.is_some() {
                let n = report
                    .adaptation
                    .as_deref()
                    .map_or(0, |a| a.chosen.iter().filter(|s| s.route.is_some()).count());
                format!(" routed={n}")
            } else {
                String::new()
            };
            println!(
                "{name:30} {status:8} {cache:5} obj={obj:>12} wall={wall:.1}ms{audit}{lint}{routed}",
                status = report.status.to_string(),
                cache = if report.cache_hit { "hit" } else { "miss" },
                obj = report
                    .objective_value
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
                wall = report.wall.as_secs_f64() * 1e3,
            );
            // Diagnostics explain a `lint=rejected`/`lint=N warn` verdict;
            // only print them once even when the batch is repeated.
            if pass == 0 {
                for diag in &report.diagnostics {
                    eprintln!("{}", qca_lint::render_human(Some(name), diag));
                }
            }
        }
        if pass + 1 == args.repeat {
            if let Some(out_dir) = &args.out_dir {
                std::fs::create_dir_all(out_dir)
                    .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
                let good = named_jobs.iter().filter(|(_, j)| j.is_ok());
                for ((name, _), report) in good.zip(&reports) {
                    let path = out_dir.join(name);
                    std::fs::write(&path, qasm::to_qasm(&report.circuit))
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                }
            }
        }
    }

    let mut recalib_failures = 0usize;
    if args.recalibrate {
        let drifted = hw.with_scaled_infidelity(args.perturb);
        let report = engine.recalibrate(&drifted);
        recalib_failures = report.failed;
        println!(
            "recalib: entries={} reused={} resolved={} failed={}",
            report.entries, report.reused, report.resolved, report.failed
        );
    }

    let json = engine.metrics().to_json().to_string_compact();
    match &args.metrics_out {
        Some(path) => std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        None => println!("{json}"),
    }

    if args.trace_report {
        // Prefer re-parsing the JSONL file over the in-memory events: that
        // validates the written trace end to end in the same run.
        let events = match (&args.trace, &memory) {
            (Some(path), _) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read trace file {}: {e}", path.display()))?;
                jsonl::parse_jsonl(&text).map_err(|e| format!("trace file corrupt: {e}"))?
            }
            (None, Some(sink)) => sink.take(),
            (None, None) => unreachable!("--trace-report without a sink"),
        };
        if let Err(e) = report::validate_forest(&events) {
            eprintln!("qca-engine: warning: trace is not a well-formed forest: {e}");
        }
        println!("{}", report::Report::from_events(&events).render());
    }
    if audit_failures > 0 {
        eprintln!("qca-engine: {audit_failures} audit failure(s)");
        return Ok(ExitCode::FAILURE);
    }
    if lint_rejections > 0 {
        eprintln!("qca-engine: {lint_rejections} job(s) rejected by lint preflight");
        return Ok(ExitCode::FAILURE);
    }
    if recalib_failures > 0 {
        eprintln!("qca-engine: {recalib_failures} recalibration failure(s)");
        return Ok(ExitCode::FAILURE);
    }
    if load_errors > 0 {
        eprintln!("qca-engine: {load_errors} file(s) could not be loaded");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("qca-engine: {msg}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
