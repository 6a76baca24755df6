//! End-to-end benchmark of the adaptation service.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-adapt --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Starts an in-process `qca-serve` on loopback and drives one workload
//! through it in a closed loop. Diagnostics go to stdout as `#` lines; the
//! last line is one JSON object with the metrics. See `README.md`.

mod check;
mod corpus;
mod drive;
mod heap;
mod host;
mod stats;
mod trace;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

use check::Checker;
use corpus::{Plan, Workload};
use drive::{Counters, Running};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Nominal seconds of one round on the reference host (2 vCPUs); the
/// number of rounds is `--seconds` divided by this, so the work of a run is
/// fixed by its arguments and never by how fast the host happens to be.
fn round_seconds(workload: Workload) -> f64 {
    match workload {
        Workload::ColdAdapt => 9.0,
        Workload::ExactProof => 7.0,
        Workload::HotTiered => 2.0,
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(45),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload cold-adapt|exact-proof|hot-tiered \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the working directory (the checkout).
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("work dir: {e}"))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A metric as printed in the result line.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A named metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Everything a run accumulates before its metrics are computed.
struct Bench {
    workload: Workload,
    seed: u64,
    /// Scratch directory of this run.
    work: PathBuf,
    store: Option<PathBuf>,
    plan: Plan,
    checker: Checker,
    setups_s: Vec<f64>,
    correct: bool,
}

impl Bench {
    fn new(args: &Args, work: &Path) -> Bench {
        let store = (args.workload == Workload::HotTiered).then(|| work.join("store"));
        Bench {
            workload: args.workload,
            seed: args.seed,
            work: work.to_path_buf(),
            store,
            plan: Plan::new(args.workload, args.seed),
            checker: Checker::default(),
            setups_s: Vec::new(),
            correct: true,
        }
    }

    /// Sets up a server for one round, checking the regenerated plan is the
    /// one the bench started with.
    fn setup(&mut self) -> Result<drive::Setup, String> {
        let s = drive::setup(self.workload, self.seed, self.store.as_deref())?;
        if s.plan.requests != self.plan.requests {
            println!("# WORK-IDENTITY: regenerated plan differs from the first");
            self.correct = false;
        }
        self.setups_s.push(s.seconds);
        Ok(s)
    }

    /// Fills the store for hot-tiered by adapting every working-set circuit
    /// once; not part of any timed window or of `setup_s`.
    fn populate(&mut self) -> Result<(), String> {
        let Some(dir) = &self.store else {
            return Ok(());
        };
        let t0 = std::time::Instant::now();
        let running = Running::start(drive::serve_config(self.workload, Some(dir)))?;
        let mut conn = running.connect()?;
        let requests = self.plan.populate_requests();
        let round = drive::run_round(&mut conn, &requests)?;
        let check = self.checker.check(&self.plan, &requests, &round.answers);
        drop(conn);
        running.stop()?;
        if check.failed > 0 {
            return Err(format!("populating the store failed: {:?}", check.failures));
        }
        println!(
            "# populate: {} circuits solved into the store in {:.2} s",
            check.attempted,
            t0.elapsed().as_secs_f64()
        );
        Ok(())
    }

    /// Times extra set-ups (server started, answered, stopped) until
    /// `SETUPS` have been measured.
    fn extra_setups(&mut self) -> Result<(), String> {
        while self.setups_s.len() < SETUPS {
            let s = self.setup()?;
            drop(s.conn);
            s.running.stop()?;
        }
        Ok(())
    }
}

/// One untraced round: its observations and checks.
struct Round {
    latencies_ms: Vec<f64>,
    request_heap_mb: f64,
    circuits_per_s: f64,
    counters: Counters,
    check: check::RoundCheck,
    kernel_ms: f64,
    steal: Option<u64>,
}

fn untraced_round(bench: &mut Bench) -> Result<Round, String> {
    let mut s = bench.setup()?;
    let kernel_ms = host::cpu_kernel_ms();
    let steal0 = host::steal_ticks();
    let result = drive::run_round(&mut s.conn, &s.plan.requests)?;
    let steal = host::steal_ticks()
        .zip(steal0)
        .map(|(b, a)| b.saturating_sub(a));
    let counters = Counters::from_metrics(&drive::fetch_metrics(&mut s.conn)?);
    drop(s.conn);
    s.running.stop()?;
    let check = bench
        .checker
        .check(&bench.plan, &s.plan.requests, &result.answers);
    Ok(Round {
        circuits_per_s: s.plan.circuits() as f64 / result.wall_s,
        latencies_ms: result.latencies_ms,
        request_heap_mb: result.request_heap_mb,
        counters,
        check,
        kernel_ms,
        steal,
    })
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let mut bench = Bench::new(args, work);
    bench.populate()?;
    if args.trace {
        return trace::run(&mut bench);
    }
    let rounds = ((args.seconds as f64 / round_seconds(args.workload)).round() as usize).max(2);
    let mut results = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        results.push(untraced_round(&mut bench)?);
    }
    bench.extra_setups()?;

    // Work identity: every round must repeat the first one exactly.
    for (i, r) in results.iter().enumerate() {
        let first = &results[0];
        println!(
            "# round {i}: {:.2} circuits/s, conflicts={} props={} hits={} misses={} \
             store_hits={} replays={} digest={:016x} | host: kernel {:.1} ms, steal {}",
            r.circuits_per_s,
            r.counters.sat_conflicts,
            r.counters.sat_propagations,
            r.counters.cache_hits,
            r.counters.cache_misses,
            r.counters.store_hits,
            r.counters.store_replays,
            r.check.digest,
            r.kernel_ms,
            r.steal.map_or("n/a".into(), |s| s.to_string()),
        );
        if r.counters != first.counters || r.check.digest != first.check.digest {
            println!("# WORK-IDENTITY: round {i} differs from round 0");
            bench.correct = false;
        }
        for f in &r.check.failures {
            println!("# FAILED: {f}");
        }
    }
    let attempted: usize = results.iter().map(|r| r.check.attempted).sum();
    let failed: usize = results.iter().map(|r| r.check.failed).sum();
    // Rounds repeat the same requests, so per-round figures are compared
    // like for like and their median drops a round the host disturbed.
    let round_median =
        |f: &dyn Fn(&Round) -> f64| stats::median(&results.iter().map(f).collect::<Vec<_>>());
    let round_percentile = |p: f64| {
        round_median(&|r| {
            let mut v = r.latencies_ms.clone();
            v.sort_by(f64::total_cmp);
            stats::percentile(&v, p)
        })
    };
    // The tail of each round where a round supports one, else of the run's
    // pooled latencies.
    let per_round = bench.plan.requests.len();
    let (tail_ms, tail_basis) = match stats::tail_percentile(per_round, 10) {
        Some(p) => (
            round_percentile(p),
            format!("p{p} of each round's {per_round} requests, median over rounds"),
        ),
        None => {
            let mut pooled: Vec<f64> = results
                .iter()
                .flat_map(|r| r.latencies_ms.clone())
                .collect();
            pooled.sort_by(f64::total_cmp);
            let p = stats::tail_percentile(pooled.len(), 10)
                .ok_or_else(|| format!("{} latencies cannot support a tail", pooled.len()))?;
            (
                stats::percentile(&pooled, p),
                format!("p{p} of the run's {} pooled latencies", pooled.len()),
            )
        }
    };
    let (gain, cut, proven) = bench.checker.quality(&bench.plan);
    println!(
        "# {} rounds x {per_round} requests ({} circuits); tail_ms is {tail_basis}; \
         failed_pct {:.3}; peak heap {:.1} MB; VmHWM {:.1} MB",
        results.len(),
        bench.plan.circuits(),
        100.0 * failed as f64 / attempted.max(1) as f64,
        heap::peak_mb(),
        host::peak_rss_mb().unwrap_or(f64::NAN),
    );
    let metrics = vec![
        Metric::new("circuits_per_s", round_median(&|r| r.circuits_per_s), "1/s"),
        Metric::new("p50_ms", round_percentile(50.0), "ms"),
        Metric::new("tail_ms", tail_ms, "ms"),
        Metric::new("fidelity_gain_pct", gain.unwrap_or(f64::NAN), "%"),
        Metric::new("idle_cut_pct", cut.unwrap_or(f64::NAN), "%"),
        Metric::new("proven_pct", proven.unwrap_or(f64::NAN), "%"),
        Metric::new(
            "request_heap_mb",
            round_median(&|r| r.request_heap_mb),
            "MB",
        ),
        Metric::new("setup_s", stats::median(&bench.setups_s), "s"),
    ];
    let correct = bench.correct && failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(result_line(correct, attempted, failed, &metrics))
}
