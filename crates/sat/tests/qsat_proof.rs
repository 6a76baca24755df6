//! End-to-end tests for the `qsat` binary's `--proof` flag: write a DIMACS
//! file, solve it through the CLI, and validate the emitted DRAT proof with
//! the independent checker from `qca-verify`. Also checks that `qsat`
//! names a bad argument (an unknown option, a missing or malformed flag
//! value, a second input path) instead of printing only its usage line.

use std::io::Write;
use std::process::Command;

use qca_sat::dimacs::{parse_dimacs, write_dimacs, Cnf};
use qca_sat::proof::parse_drat;
use qca_sat::Lit;
use qca_verify::check_drat;

fn dimacs_lit(d: i64) -> Lit {
    Lit::from_dimacs(d)
}

/// PHP(4, 3): four pigeons into three holes, UNSAT with real search.
fn pigeonhole() -> Cnf {
    let holes = 3usize;
    let pigeons = holes + 1;
    let var = |i: usize, j: usize| (i * holes + j + 1) as i64;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for i in 0..pigeons {
        clauses.push((0..holes).map(|j| dimacs_lit(var(i, j))).collect());
    }
    for j in 0..holes {
        for i in 0..pigeons {
            for k in i + 1..pigeons {
                clauses.push(vec![dimacs_lit(-var(i, j)), dimacs_lit(-var(k, j))]);
            }
        }
    }
    Cnf {
        num_vars: pigeons * holes,
        clauses,
    }
}

fn write_cnf_file(cnf: &Cnf, path: &std::path::Path) {
    let mut buf = Vec::new();
    write_dimacs(&mut buf, cnf).unwrap();
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(&buf).unwrap();
}

#[test]
fn qsat_proof_roundtrip_unsat() {
    let dir = std::env::temp_dir().join(format!("qsat-proof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cnf_path = dir.join("php.cnf");
    let proof_path = dir.join("php.drat");
    let cnf = pigeonhole();
    write_cnf_file(&cnf, &cnf_path);

    let out = Command::new(env!("CARGO_BIN_EXE_qsat"))
        .arg("--proof")
        .arg(&proof_path)
        .arg(&cnf_path)
        .output()
        .expect("qsat runs");
    assert_eq!(out.status.code(), Some(20), "PHP must be UNSAT");

    // The DIMACS file round-trips through the same parser the CLI uses.
    let reread = parse_dimacs(std::io::BufReader::new(
        std::fs::File::open(&cnf_path).unwrap(),
    ))
    .unwrap();
    assert_eq!(reread, cnf);

    // The streamed proof parses and refutes the formula.
    let proof = parse_drat(std::io::BufReader::new(
        std::fs::File::open(&proof_path).unwrap(),
    ))
    .unwrap();
    assert!(!proof.is_empty(), "UNSAT run must emit proof steps");
    check_drat(&cnf, &proof).expect("independent checker accepts the CLI proof");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn qsat_proof_on_sat_instance_is_benign() {
    // SAT runs may emit (sound) learnt-clause additions but no refutation;
    // the file must still parse as DRAT.
    let dir = std::env::temp_dir().join(format!("qsat-proof-sat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cnf_path = dir.join("sat.cnf");
    let proof_path = dir.join("sat.drat");
    let cnf = Cnf {
        num_vars: 3,
        clauses: vec![
            vec![dimacs_lit(1), dimacs_lit(2)],
            vec![dimacs_lit(-1), dimacs_lit(3)],
            vec![dimacs_lit(-2), dimacs_lit(-3)],
        ],
    };
    write_cnf_file(&cnf, &cnf_path);

    let out = Command::new(env!("CARGO_BIN_EXE_qsat"))
        .arg("--proof")
        .arg(&proof_path)
        .arg(&cnf_path)
        .output()
        .expect("qsat runs");
    assert_eq!(out.status.code(), Some(10), "instance is SAT");
    let proof = parse_drat(std::io::BufReader::new(
        std::fs::File::open(&proof_path).unwrap(),
    ))
    .unwrap();
    assert!(
        proof.iter().all(|s| !s.lits().is_empty() || s.is_delete()),
        "a SAT run must not emit the empty clause"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn qsat_names_an_unknown_option() {
    let dir = std::env::temp_dir().join(format!("qsat-unknown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cnf_path = dir.join("php.cnf");
    write_cnf_file(&pigeonhole(), &cnf_path);

    // An unknown option is named, not read as the input path.
    let out = Command::new(env!("CARGO_BIN_EXE_qsat"))
        .arg("--bogus")
        .arg(&cnf_path)
        .output()
        .expect("qsat runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("c unknown option --bogus"), "{stderr}");
    assert!(stderr.contains("usage: qsat"), "{stderr}");

    // `-` still reads the formula from stdin.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsat"))
        .arg("-")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("qsat runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"p cnf 1 2\n1 0\n-1 0\n")
        .unwrap();
    assert_eq!(child.wait_with_output().unwrap().status.code(), Some(20));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn qsat_names_a_bad_argument() {
    let dir = std::env::temp_dir().join(format!("qsat-badarg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cnf_path = dir.join("php.cnf");
    write_cnf_file(&pigeonhole(), &cnf_path);
    let cnf = cnf_path.to_str().unwrap();

    let cases: [(&[&str], &str); 4] = [
        (
            &["--conflicts", "abc", cnf],
            "c --conflicts needs a non-negative integer, got \"abc\"",
        ),
        (&[cnf, "--conflicts"], "c --conflicts needs a value"),
        (&[cnf, "--proof"], "c --proof needs a file path"),
        (
            &[cnf, "extra.cnf"],
            "c second input extra.cnf (already reading",
        ),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_qsat"))
            .args(args)
            .output()
            .expect("qsat runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: qsat"), "{args:?}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
