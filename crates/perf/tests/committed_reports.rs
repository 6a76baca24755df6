//! Every committed `BENCH_<pr>.json` at the repository root still parses
//! through [`BenchReport`], and re-renders to a report that parses back
//! identically.

use qca_perf::BenchReport;
use std::path::Path;

#[test]
fn committed_bench_reports_parse_and_round_trip() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut prs = Vec::new();
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let report = BenchReport::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(name, format!("BENCH_{}.json", report.pr));
        let back = BenchReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(back, report, "{name} does not round-trip");
        prs.push(report.pr);
    }
    prs.sort_unstable();
    for pr in [6, 7, 9, 10] {
        assert!(prs.contains(&pr), "BENCH_{pr}.json not found in {prs:?}");
    }
}
