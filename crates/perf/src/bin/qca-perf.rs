//! `qca-perf` — benchmark telemetry CLI.
//!
//! ```text
//! qca-perf run [--quick|--full] [--pr N] --out FILE [--filter SUBSTR] [--repeats K]
//! qca-perf compare OLD.json NEW.json [--threshold PCT] [--noise-mult X] [--allow-missing]
//! qca-perf check FILE... [--require-layers]
//! ```
//!
//! * `run` measures the suite and writes a schema-versioned report to the
//!   required `--out FILE`, checked before anything runs, so no run leaves
//!   a report the perf gate would take for a baseline (`--pr` defaults to
//!   0 for scratch runs). `--repeats K` runs the whole suite K times
//!   and merges the runs, folding *cross-run* drift into each result's
//!   recorded dispersion — intra-run samples alone understate the noise
//!   a busy machine adds between runs, and the compare gate's noise bound
//!   is only as honest as this number.
//! * `compare` gates NEW against the OLD baseline: exit 0 when every
//!   benchmark is within both the flat threshold and the noise bound
//!   derived from the measured dispersion, 1 on regression (or a
//!   benchmark vanishing), 2 on usage/IO/schema errors. Reports from
//!   incomparable machines (different cores/arch/profile) are refused:
//!   re-record the baseline on the machine that runs the gate.
//! * `check` validates report files against the schema; with
//!   `--require-layers` it additionally demands at least one result from
//!   each of the num, sat, smt, synth, sim, engine, serve, and store
//!   layers.

use qca_perf::compare::{self, CompareConfig};
use qca_perf::report::BenchReport;
use qca_perf::suite::{run_suite, SuiteConfig};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

fn usage() -> ExitCode {
    eprintln!(
        "usage: qca-perf run [--quick|--full] [--pr N] --out FILE [--filter SUBSTR] [--repeats K]\n\
         \x20      qca-perf compare OLD.json NEW.json [--threshold PCT] [--noise-mult X]\n\
         \x20                       [--allow-missing]\n\
         \x20      qca-perf check FILE... [--require-layers]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut quick = true;
    let mut pr: u64 = 0;
    let mut out: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut repeats: usize = 1;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--repeats" => {
                let Some(k) = it.next().and_then(|v| v.parse().ok()).filter(|k| *k >= 1) else {
                    return usage();
                };
                repeats = k;
            }
            "--pr" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                pr = n;
            }
            "--out" => {
                let Some(path) = it.next() else {
                    return usage();
                };
                out = Some(path.clone());
            }
            "--filter" => {
                let Some(f) = it.next() else {
                    return usage();
                };
                filter = Some(f.clone());
            }
            _ => return usage(),
        }
    }
    let Some(path) = out else {
        eprintln!("qca-perf: run needs --out FILE");
        return usage();
    };
    let mut config = SuiteConfig::new(quick);
    config.filter = filter;
    let mode = if quick { "quick" } else { "full" };
    eprintln!(
        "qca-perf: running {mode} suite on {} core(s), {} {}, {} run(s)",
        config.fingerprint.cores, config.fingerprint.arch, config.fingerprint.profile, repeats
    );
    let runs: Vec<_> = (0..repeats)
        .map(|i| {
            if repeats > 1 {
                eprintln!("run {}/{repeats}:", i + 1);
            }
            run_suite(&config)
        })
        .collect();
    let results = qca_perf::report::merge_runs(&runs);
    if results.is_empty() {
        eprintln!("qca-perf: filter matched no benchmarks");
        return ExitCode::from(2);
    }
    let report = BenchReport {
        pr,
        mode: mode.to_string(),
        created_unix: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        fingerprint: config.fingerprint.clone(),
        results,
    };
    if let Err(e) = std::fs::write(&path, report.to_json_string() + "\n") {
        eprintln!("qca-perf: cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("qca-perf: wrote {path} ({} results)", report.results.len());
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut config = CompareConfig::default();
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(pct) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                config.rel_threshold = pct / 100.0;
            }
            "--noise-mult" => {
                let Some(x) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                config.noise_mult = x;
            }
            "--allow-missing" => config.allow_missing = true,
            _ if !arg.starts_with("--") => files.push(arg),
            _ => return usage(),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return usage();
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("qca-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match compare::compare(&old, &new, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("qca-perf: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", compare::render(&outcome));
    if outcome.passed(&config) {
        println!("compare: PASS");
        ExitCode::SUCCESS
    } else {
        println!("compare: FAIL");
        ExitCode::from(1)
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut require_layers = false;
    let mut files: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--require-layers" => require_layers = true,
            _ if !arg.starts_with("--") => files.push(arg),
            _ => return usage(),
        }
    }
    if files.is_empty() {
        return usage();
    }
    let mut failed = false;
    for path in files {
        match load(path) {
            Ok(report) => {
                let missing = report.missing_layers();
                if require_layers && !missing.is_empty() {
                    println!("{path}: INVALID (no results for layers: {missing:?})");
                    failed = true;
                } else {
                    println!(
                        "{path}: ok ({} results, pr {}, {} mode, {} core(s))",
                        report.results.len(),
                        report.pr,
                        report.mode,
                        report.fingerprint.cores
                    );
                }
            }
            Err(e) => {
                println!("{path}: INVALID ({e})");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    // The CLI's logic lives in the library (`report`, `compare`, `suite`)
    // and is unit-tested there; this module exists so `cargo test`
    // compiles the binary.
    #[test]
    fn smoke() {}
}
