//! `qca-drat-check` on a formula whose header declares 2^31 − 1 variables
//! and whose formula and proof name that variable: the checker's memory
//! follows the variables used, so the check completes at once with the
//! verdict of the same formula on small variable numbers.

use std::process::Command;

fn run(name: &str, formula: &str, proof: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("qca-drat-check-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (cnf_path, proof_path) = (dir.join("f.cnf"), dir.join("p.drat"));
    std::fs::write(&cnf_path, formula).unwrap();
    std::fs::write(&proof_path, proof).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_qca-drat-check"))
        .arg(&cnf_path)
        .arg(&proof_path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn the_largest_variable_number_is_checked_in_bounded_memory() {
    let formula = "p cnf 2147483647 4\n\
                   2147483647 1 0\n-2147483647 1 0\n2147483647 -1 0\n-2147483647 -1 0\n";
    let (code, stdout) = run("verified", formula, "1 0\n0\n");
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("s VERIFIED (1 additions checked, 0 deletions applied, 1 skipped)"),
        "{stdout}"
    );

    // A proof literal naming the largest variable, absent from the formula.
    let (code, stdout) = run("rejected", "p cnf 1 1\n1 0\n", "-2147483647 0\n");
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[-2147483647] is not RUP"), "{stdout}");
}
