//! `qca-perf run` without `--out` is a usage error caught before any
//! benchmark runs, so it writes no report into the working directory,
//! where the perf gate would take a stray `BENCH_0.json` for a baseline.

use std::process::Command;

#[test]
fn run_without_out_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("qca-perf-no-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_qca-perf"))
        .args(["run", "--quick", "--filter", "no-benchmark-has-this-name"])
        .current_dir(&dir)
        .output()
        .expect("qca-perf starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("run needs --out FILE"), "{stderr}");
    assert!(!stderr.contains("running"), "a benchmark ran: {stderr}");
    assert!(left.is_empty(), "left behind: {left:?}");
}
