//! `qca-lint` — standalone static diagnostics for OpenQASM circuits.
//!
//! ```text
//! qca-lint [OPTIONS] <FILE|DIR>...
//!
//! Options:
//!   --json            emit one JSON object per diagnostic (stable key order)
//!   --deny-warnings   escalate warnings to errors before deciding the exit code
//!   --times COL       hardware times column: d0 | d1   (default: d0)
//!   --list            print the registry of known lints and exit
//! ```
//!
//! Every `.qasm` file (directories are scanned non-recursively) is run
//! through the circuit lints, and — when it parses — the rule-coverage
//! analysis against the spin-qubit hardware model. The hardware model
//! itself is linted once per run. Parse failures are reported as QCA0001
//! diagnostics, not process errors.
//!
//! Every `.cnf` file is parsed as DIMACS and run through the per-clause
//! encoding lints (`QCA04xx`) and the whole-formula analysis pass
//! (`QCA05xx`, backed by `qca_sat::analyze`); DIMACS parse-level warnings
//! (duplicate literals, contradictory units) surface through the same
//! passes.
//!
//! Exit status: 0 when no error-severity diagnostics were produced, 1 when
//! at least one was (after `--deny-warnings` escalation), 2 on usage errors.

use qca_circuit::qasm::parse_qasm_program;
use qca_hw::{spin_qubit_model, GateTimes};
use qca_lint::{
    count_severities, escalate_warnings, lint_cnf, lint_formula, lint_hardware, lint_qasm_source,
    lint_rule_coverage, render_human, render_json, Diagnostic, LintCode, LintRegistry, RuleToggles,
};
use qca_sat::dimacs::parse_dimacs;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    deny_warnings: bool,
    list: bool,
    times: GateTimes,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: qca-lint [--json] [--deny-warnings] [--times d0|d1] [--list] <FILE|DIR>..."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        deny_warnings: false,
        list: false,
        times: GateTimes::D0,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--deny-warnings" => args.deny_warnings = true,
            "--list" => args.list = true,
            "--times" => {
                let v = it.next().ok_or("--times needs a value")?;
                args.times = match v.as_str() {
                    "d0" | "D0" => GateTimes::D0,
                    "d1" | "D1" => GateTimes::D1,
                    other => return Err(format!("unknown times column '{other}'")),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            other => args.paths.push(PathBuf::from(other)),
        }
    }
    if !args.list && args.paths.is_empty() {
        return Err("missing input file or directory".into());
    }
    Ok(args)
}

fn list_lints() {
    println!("{:9} {:8} {:24} summary", "code", "severity", "name");
    for info in LintRegistry::builtin().entries() {
        println!(
            "{:9} {:8} {:24} {}",
            info.code.as_str(),
            info.severity.to_string(),
            info.name,
            info.summary
        );
    }
}

fn collect_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "qasm" || x == "cnf"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("no .qasm or .cnf files in {}", path.display()));
            }
            files.extend(entries);
        } else if path.is_file() {
            files.push(path.clone());
        } else {
            return Err(format!("no such file or directory: {}", path.display()));
        }
    }
    Ok(files)
}

fn emit(args: &Args, file: Option<&str>, diags: &[Diagnostic]) {
    for diag in diags {
        if args.json {
            println!("{}", render_json(file, diag).to_string_compact());
        } else {
            println!("{}", render_human(file, diag));
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list {
        list_lints();
        return Ok(ExitCode::SUCCESS);
    }
    let files = collect_files(&args.paths)?;
    let hw = spin_qubit_model(args.times);

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut tally = |diags: &mut Vec<Diagnostic>| {
        if args.deny_warnings {
            escalate_warnings(diags);
        }
        let counts = count_severities(diags);
        errors += counts.errors;
        warnings += counts.warnings;
    };

    // The target hardware model is part of the preflight contract: lint it
    // once per run so a bad model is reported even with clean circuits.
    let mut hw_diags = lint_hardware(&hw);
    tally(&mut hw_diags);
    emit(&args, None, &hw_diags);

    for path in &files {
        let name = path.display().to_string();
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {name}: {e}"))?;
        let mut diags = if path.extension().is_some_and(|x| x == "cnf") {
            match parse_dimacs(src.as_bytes()) {
                Ok(cnf) => {
                    let mut d = lint_cnf(&cnf);
                    d.extend(lint_formula(&cnf));
                    d
                }
                Err(e) => vec![Diagnostic::new(
                    LintCode::ParseError,
                    format!("dimacs parse failed: {e}"),
                )],
            }
        } else {
            let mut d = lint_qasm_source(&src);
            if let Ok(program) = parse_qasm_program(&src) {
                d.extend(lint_rule_coverage(
                    &program.circuit,
                    &hw,
                    &RuleToggles::default(),
                ));
            }
            d
        };
        tally(&mut diags);
        emit(&args, Some(&name), &diags);
    }

    if !args.json {
        eprintln!(
            "qca-lint: {} file(s), {errors} error(s), {warnings} warning(s)",
            files.len()
        );
    }
    Ok(if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("qca-lint: {msg}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
