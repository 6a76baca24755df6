//! `qsat` — a minimal DIMACS CNF solver front end.
//!
//! Usage:
//!
//! ```text
//! qsat [--stats] [--conflicts N] [--proof FILE] [--config SPEC] [--preprocess] <file.cnf>
//! qsat [--stats] [--conflicts N] [--proof FILE] [--config SPEC] [--preprocess] -   # stdin
//! ```
//!
//! `--preprocess` runs the proof-logging static preprocessor
//! (`qca_sat::analyze`) before search: the solver then searches the
//! simplified formula, SAT models are extended back to the original
//! variables before the `v` lines are printed, and with `--proof` the
//! preprocessor's derivations prefix the solver's DRAT stream so the
//! combined proof still checks against the ORIGINAL formula.
//!
//! `--config` takes a `key=value,...` spec mapping 1:1 onto
//! [`SolverConfig`] — e.g. `--config decay=0.95,restart=luby` or
//! `--config restart=geometric:128:1.3,phase=random,seed=7` — so any
//! search configuration is reproducible from the CLI.
//!
//! Prints `s SATISFIABLE` with a `v ...` model line, `s UNSATISFIABLE`, or —
//! when the `--conflicts` cap aborts the solve — `s UNKNOWN`, following the
//! SAT-competition output conventions. With `--stats`, solver statistics
//! (`c`-prefixed comment lines: decisions, propagations, conflicts, restarts,
//! learnt clauses, ...) are printed on *every* verdict, including aborted
//! runs: the numbers are read from the solver's trace event stream (the
//! end-of-solve `sat.*` gauges), the same path the adaptation pipeline uses,
//! rather than by poking at solver internals. With `--proof FILE`, a DRAT
//! proof is streamed to FILE during the solve; on an UNSAT verdict it is a
//! complete refutation checkable with `qca-drat-check` (or drat-trim). Exit
//! code 10 for SAT, 20 for UNSAT, 0 for UNKNOWN, 1 on input errors.

use qca_sat::analyze::{preprocess, PreprocessOptions, PreprocessStats, Reconstruction};
use qca_sat::dimacs::parse_dimacs;
use qca_sat::proof::ProofSink;
use qca_sat::{FileProof, SolveControl, SolveOutcome, Solver, SolverConfig, Var};
use qca_trace::{report, MemorySink, Tracer};
use std::process::ExitCode;
use std::sync::Arc;

/// Print the `sat.*` statistics gauges recorded in `events` as
/// SAT-competition comment lines.
fn print_stats(events: &[qca_trace::TraceEvent]) {
    let gauges = report::last_gauges(events);
    let get = |name: &str| gauges.get(name).copied().unwrap_or(0);
    println!("c decisions        {}", get("sat.decisions"));
    println!("c propagations     {}", get("sat.propagations"));
    println!("c conflicts        {}", get("sat.conflicts"));
    println!("c restarts         {}", get("sat.restarts"));
    println!("c learnt clauses   {}", get("sat.learnt_clauses"));
    println!("c deleted clauses  {}", get("sat.deleted_clauses"));
    println!("c minimized lits   {}", get("sat.minimized_literals"));
}

/// Print the preprocessor's counters as comment lines.
fn print_pre_stats(stats: &PreprocessStats) {
    println!("c pre units        {}", stats.units);
    println!("c pre pures        {}", stats.pures);
    println!("c pre subsumed     {}", stats.subsumed);
    println!("c pre strengthened {}", stats.strengthened);
    println!("c pre eliminated   {}", stats.eliminated);
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qsat [--stats] [--conflicts N] [--proof FILE] [--config SPEC] [--preprocess] \
         <file.cnf | ->"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut stats = false;
    let mut conflict_cap: Option<u64> = None;
    let mut proof_path: Option<String> = None;
    let mut run_preprocess = false;
    let mut config = SolverConfig::default();
    let mut input: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stats" => stats = true,
            "--preprocess" => run_preprocess = true,
            "--conflicts" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                conflict_cap = Some(n);
            }
            "--proof" => {
                let Some(path) = args.next() else {
                    return usage();
                };
                proof_path = Some(path);
            }
            "--config" => {
                let Some(spec) = args.next() else {
                    return usage();
                };
                config = match SolverConfig::parse(&spec) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("c bad --config: {e}");
                        return ExitCode::from(1);
                    }
                };
            }
            other => {
                if input.replace(other.to_string()).is_some() {
                    return usage();
                }
            }
        }
    }
    let Some(input) = input else {
        return usage();
    };
    let cnf = if input == "-" {
        let stdin = std::io::stdin();
        parse_dimacs(stdin.lock())
    } else {
        match std::fs::File::open(&input) {
            Ok(f) => parse_dimacs(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("c cannot open {input}: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let cnf = match cnf {
        Ok(c) => c,
        Err(e) => {
            eprintln!("c parse error: {e}");
            return ExitCode::from(1);
        }
    };
    let num_vars = cnf.num_vars;
    // The proof sink is created *before* anything consumes clauses so that
    // both the preprocessor's derivations and the solver's input
    // simplification are logged into one stream.
    let mut proof_sink: Option<FileProof> = None;
    if let Some(path) = &proof_path {
        match FileProof::create(std::path::Path::new(path)) {
            Ok(p) => proof_sink = Some(p),
            Err(e) => {
                eprintln!("c cannot create proof file {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut reconstruction: Option<Reconstruction> = None;
    let mut pre_stats: Option<PreprocessStats> = None;
    let cnf = if run_preprocess {
        let result = preprocess(
            &cnf,
            &PreprocessOptions::default(),
            proof_sink.as_mut().map(|s| s as &mut dyn ProofSink),
        );
        reconstruction = Some(result.reconstruction);
        pre_stats = Some(result.stats);
        result.cnf
    } else {
        cnf
    };
    let mut solver = Solver::with_config(config);
    if let Some(sink) = proof_sink {
        solver.set_proof(Box::new(sink));
    }
    while solver.num_vars() < num_vars {
        solver.new_var();
    }
    for clause in &cnf.clauses {
        if !solver.add_clause(clause) {
            break;
        }
    }
    let sink = Arc::new(MemorySink::new());
    solver.set_control(SolveControl {
        conflict_cap,
        stop: None,
        tracer: Tracer::new(sink.clone()),
    });
    let outcome = solver.solve_limited(&[]);
    if proof_path.is_some() {
        if let Err(e) = solver.flush_proof() {
            eprintln!("c proof write failed: {e}");
            return ExitCode::from(1);
        }
    }
    match outcome {
        SolveOutcome::Sat => {
            println!("s SATISFIABLE");
            // With preprocessing on, eliminated variables are extended
            // back to a model of the ORIGINAL formula before printing.
            let mut model: Vec<Option<bool>> = (0..num_vars)
                .map(|i| solver.value(Var::from_index(i)))
                .collect();
            if let Some(recon) = &reconstruction {
                recon.extend(&mut model);
            }
            let mut line = String::from("v");
            for (i, val) in model.iter().enumerate() {
                let val = val.unwrap_or(false);
                line.push_str(&format!(
                    " {}",
                    if val {
                        (i + 1) as i64
                    } else {
                        -((i + 1) as i64)
                    }
                ));
                if line.len() > 70 {
                    println!("{line}");
                    line = String::from("v");
                }
            }
            println!("{line} 0");
            if stats {
                print_stats(&sink.events());
                if let Some(pre) = &pre_stats {
                    print_pre_stats(pre);
                }
            }
            ExitCode::from(10)
        }
        SolveOutcome::Unsat => {
            println!("s UNSATISFIABLE");
            if stats {
                print_stats(&sink.events());
                if let Some(pre) = &pre_stats {
                    print_pre_stats(pre);
                }
            }
            ExitCode::from(20)
        }
        SolveOutcome::Unknown => {
            println!("s UNKNOWN");
            if stats {
                print_stats(&sink.events());
                if let Some(pre) = &pre_stats {
                    print_pre_stats(pre);
                }
            }
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    // The binary logic is covered by `qca_sat::dimacs` unit tests; this
    // module exists so `cargo test` compiles the binary.
    #[test]
    fn smoke() {}
}
