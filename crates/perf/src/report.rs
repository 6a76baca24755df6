//! The `BENCH_<pr>.json` report model: schema, rendering, parsing, and
//! validation.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "kind": "qca-bench-report",
//!   "schema_version": 1,
//!   "pr": 6,
//!   "mode": "quick",
//!   "created_unix": 1754600000,
//!   "fingerprint": { "cores": 1, "arch": "x86_64", "os": "linux",
//!                    "rustc": "rustc 1.95.0 (...)", "git_sha": "...",
//!                    "profile": "release" },
//!   "results": [
//!     { "id": "sat.pigeonhole/7", "layer": "sat", "unit": "ns",
//!       "better": "lower", "value": 5012345.0, "dispersion": 0.021,
//!       "samples": 7, "iters_per_sample": 2, "observable": true,
//!       "metrics": { "conflicts_per_sec": 1.1e6 } }
//!   ]
//! }
//! ```
//!
//! `value` is the single gated number (trimmed median for timings, exact
//! percentile for latency benchmarks); `dispersion` is its relative
//! cross-sample spread (see [`SampleStats::rel_mad`]); `metrics` carries
//! informational secondary numbers that are reported but never gated.
//! `observable: false` marks results the producing machine could not
//! honestly measure (e.g. a 4-worker scaling benchmark on 1 core) —
//! `compare` reports them but never fails on them.
//!
//! [`SampleStats::rel_mad`]: crate::harness::SampleStats::rel_mad

use crate::fingerprint::Fingerprint;
use crate::json::{self, Json};
use std::collections::BTreeMap;

/// The schema version this crate writes.
pub const SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator every report carries.
pub const REPORT_KIND: &str = "qca-bench-report";

/// The measured layers of the stack.
pub const LAYERS: [&str; 5] = ["sat", "engine", "portfolio", "serve", "store"];

/// Whether a larger or smaller [`BenchResult::value`] is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, wall times).
    LowerIsBetter,
    /// Larger is better (throughputs, rates).
    HigherIsBetter,
}

impl Direction {
    fn as_str(&self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
        }
    }

    fn parse(s: &str) -> Result<Direction, String> {
        match s {
            "lower" => Ok(Direction::LowerIsBetter),
            "higher" => Ok(Direction::HigherIsBetter),
            other => Err(format!("bad direction {other:?}")),
        }
    }
}

/// One benchmark's recorded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable identifier, e.g. `engine.batch/w1`. Unique within a report;
    /// `compare` joins old and new reports on it.
    pub id: String,
    /// Which layer the benchmark exercises: `sat`, `engine`, `portfolio`,
    /// or `serve`.
    pub layer: String,
    /// Unit of [`BenchResult::value`] (`ns`, `jobs_per_sec`, ...).
    pub unit: String,
    /// Gating direction.
    pub better: Direction,
    /// The gated number.
    pub value: f64,
    /// Relative cross-sample dispersion of `value` (0 = perfectly stable).
    pub dispersion: f64,
    /// Number of samples behind the statistics.
    pub samples: usize,
    /// Iterations folded into each sample.
    pub iters_per_sample: u64,
    /// `false` when the producing machine could not honestly measure this
    /// (e.g. scaling benchmarks with more workers than cores). Reported,
    /// never gated.
    pub observable: bool,
    /// Informational secondary metrics (never gated).
    pub metrics: BTreeMap<String, f64>,
}

impl BenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.as_str().into()),
            ("layer", self.layer.as_str().into()),
            ("unit", self.unit.as_str().into()),
            ("better", self.better.as_str().into()),
            ("value", self.value.into()),
            ("dispersion", self.dispersion.into()),
            ("samples", self.samples.into()),
            ("iters_per_sample", self.iters_per_sample.into()),
            ("observable", self.observable.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json, index: usize) -> Result<BenchResult, String> {
        let at = |field: &str| format!("results[{index}].{field}");
        let str_field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: missing or not a string", at(name)))
        };
        let num_field = |name: &str| -> Result<f64, String> {
            value
                .get(name)
                .and_then(Json::as_f64)
                .filter(|n| n.is_finite())
                .ok_or_else(|| format!("{}: missing or not a finite number", at(name)))
        };
        let id = str_field("id")?;
        if id.is_empty() {
            return Err(format!("{}: empty", at("id")));
        }
        let layer = str_field("layer")?;
        if !LAYERS.contains(&layer.as_str()) {
            return Err(format!("{}: {layer:?} not one of {LAYERS:?}", at("layer")));
        }
        let unit = str_field("unit")?;
        if unit.is_empty() {
            return Err(format!("{}: empty", at("unit")));
        }
        let value_num = num_field("value")?;
        if value_num < 0.0 {
            return Err(format!("{}: negative", at("value")));
        }
        let dispersion = num_field("dispersion")?;
        if dispersion < 0.0 {
            return Err(format!("{}: negative", at("dispersion")));
        }
        let positive_int = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(Json::as_u64)
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("{}: not a positive integer", at(name)))
        };
        let samples = positive_int("samples")?;
        let iters = positive_int("iters_per_sample")?;
        let mut metrics = BTreeMap::new();
        if let Some(raw) = value.get("metrics") {
            let obj = raw
                .as_obj()
                .ok_or_else(|| format!("{}: not an object", at("metrics")))?;
            for (k, v) in obj {
                let n = v
                    .as_f64()
                    .filter(|n| n.is_finite())
                    .ok_or_else(|| format!("{}.{k}: not a finite number", at("metrics")))?;
                metrics.insert(k.clone(), n);
            }
        }
        Ok(BenchResult {
            id,
            layer,
            unit,
            better: Direction::parse(
                value
                    .get("better")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{}: missing", at("better")))?,
            )
            .map_err(|e| format!("{}: {e}", at("better")))?,
            value: value_num,
            dispersion,
            samples: samples as usize,
            iters_per_sample: iters,
            observable: value
                .get("observable")
                .and_then(Json::as_bool)
                .unwrap_or(true),
            metrics,
        })
    }
}

/// Merges several runs of the same suite into one result set.
///
/// Intra-run sample dispersion systematically *understates* the variance
/// that matters for gating: consecutive runs on a busy machine drift far
/// more than samples within a run (frequency scaling, page cache, noisy
/// neighbours). Recording a baseline from `K` runs folds that cross-run
/// spread into [`BenchResult::dispersion`], which is what `compare`'s
/// noise bound is built from — so the gate's tolerance is *measured*, not
/// guessed.
///
/// Per id (first-run order): `value` becomes the median across runs,
/// `dispersion` the maximum of the median intra-run dispersion and the
/// relative MAD of the run values, `samples`/`iters_per_sample` are
/// summed/maxed, secondary metrics are merged key-wise by median, and the
/// result is observable only if every run found it observable. Ids absent
/// from some runs keep whatever runs saw them.
pub fn merge_runs(runs: &[Vec<BenchResult>]) -> Vec<BenchResult> {
    let median = |values: &mut Vec<f64>| -> f64 {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite value"));
        let n = values.len();
        if n == 0 {
            0.0
        } else if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        }
    };
    let mut order: Vec<String> = Vec::new();
    for run in runs {
        for result in run {
            if !order.contains(&result.id) {
                order.push(result.id.clone());
            }
        }
    }
    order
        .into_iter()
        .map(|id| {
            let group: Vec<&BenchResult> = runs
                .iter()
                .flat_map(|run| run.iter().filter(|r| r.id == id))
                .collect();
            let first = group[0];
            let mut values: Vec<f64> = group.iter().map(|r| r.value).collect();
            let value = median(&mut values);
            let mut cross_devs: Vec<f64> = values.iter().map(|v| (v - value).abs()).collect();
            let cross_mad = median(&mut cross_devs);
            let cross_disp = if value > 0.0 { cross_mad / value } else { 0.0 };
            let mut intra: Vec<f64> = group.iter().map(|r| r.dispersion).collect();
            let intra_disp = median(&mut intra);
            let mut metric_keys: Vec<String> = first.metrics.keys().cloned().collect();
            metric_keys.sort();
            let metrics = metric_keys
                .into_iter()
                .map(|key| {
                    let mut vals: Vec<f64> = group
                        .iter()
                        .filter_map(|r| r.metrics.get(&key))
                        .copied()
                        .collect();
                    let merged = median(&mut vals);
                    (key, merged)
                })
                .collect();
            BenchResult {
                id,
                layer: first.layer.clone(),
                unit: first.unit.clone(),
                better: first.better,
                value,
                dispersion: intra_disp.max(cross_disp),
                samples: group.iter().map(|r| r.samples).sum(),
                iters_per_sample: group.iter().map(|r| r.iters_per_sample).max().unwrap_or(1),
                observable: group.iter().all(|r| r.observable),
                metrics,
            }
        })
        .collect()
}

/// A full benchmark report: fingerprint plus one [`BenchResult`] per
/// suite entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// PR number the report was recorded for (names the file:
    /// `BENCH_<pr>.json`).
    pub pr: u64,
    /// `quick` or `full` harness configuration.
    pub mode: String,
    /// Unix seconds at emission time (informational).
    pub created_unix: u64,
    /// Producing machine.
    pub fingerprint: Fingerprint,
    /// Benchmark outcomes, suite order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Renders the report as pretty-stable JSON (one result per line is not
    /// guaranteed; the output is compact but deterministic).
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("kind", REPORT_KIND.into()),
            ("schema_version", SCHEMA_VERSION.into()),
            ("pr", self.pr.into()),
            ("mode", self.mode.as_str().into()),
            ("created_unix", self.created_unix.into()),
            ("fingerprint", self.fingerprint.to_json()),
            (
                "results",
                Json::Arr(self.results.iter().map(BenchResult::to_json).collect()),
            ),
        ])
        .to_string_compact()
    }

    /// Parses and validates a report. Every error names the offending
    /// field.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let kind = root
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("kind: missing")?;
        if kind != REPORT_KIND {
            return Err(format!("kind: {kind:?}, expected {REPORT_KIND:?}"));
        }
        let version = root
            .get("schema_version")
            .ok_or("schema_version: missing")?;
        if version.as_u64() != Some(SCHEMA_VERSION) {
            return Err(format!(
                "schema_version: {} unsupported (this build reads {SCHEMA_VERSION})",
                version.to_string_compact()
            ));
        }
        let pr = root
            .get("pr")
            .and_then(Json::as_u64)
            .ok_or("pr: missing or not a non-negative integer")?;
        let mode = root
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("mode: missing")?
            .to_string();
        let created_unix = root
            .get("created_unix")
            .and_then(Json::as_u64)
            .ok_or("created_unix: missing or not a non-negative integer")?;
        let fingerprint =
            Fingerprint::from_json(root.get("fingerprint").ok_or("fingerprint: missing")?)?;
        let raw_results = root
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("results: missing or not an array")?;
        if raw_results.is_empty() {
            return Err("results: empty".to_string());
        }
        let mut results = Vec::with_capacity(raw_results.len());
        let mut seen = std::collections::BTreeSet::new();
        for (i, raw) in raw_results.iter().enumerate() {
            let result = BenchResult::from_json(raw, i)?;
            if !seen.insert(result.id.clone()) {
                return Err(format!("results[{i}].id: duplicate {:?}", result.id));
            }
            results.push(result);
        }
        Ok(BenchReport {
            pr,
            mode,
            created_unix,
            fingerprint,
            results,
        })
    }

    /// The layers (of [`LAYERS`]) with no result in this report.
    pub fn missing_layers(&self) -> Vec<&'static str> {
        LAYERS
            .iter()
            .filter(|layer| !self.results.iter().any(|r| r.layer == **layer))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        let result = |id: &str, layer: &str, value: f64| BenchResult {
            id: id.to_string(),
            layer: layer.to_string(),
            unit: "ns".to_string(),
            better: Direction::LowerIsBetter,
            value,
            dispersion: 0.02,
            samples: 7,
            iters_per_sample: 3,
            observable: true,
            metrics: BTreeMap::from([("conflicts_per_sec".to_string(), 1.5e6)]),
        };
        BenchReport {
            pr: 6,
            mode: "quick".to_string(),
            created_unix: 1_754_600_000,
            fingerprint: Fingerprint {
                cores: 1,
                arch: "x86_64".to_string(),
                os: "linux".to_string(),
                rustc: "rustc 1.95.0".to_string(),
                git_sha: "deadbeef".to_string(),
                profile: "release".to_string(),
            },
            results: vec![
                result("sat.pigeonhole/7", "sat", 5.0e6),
                result("engine.batch/w1", "engine", 2.0e8),
                result("portfolio.race/6", "portfolio", 6.0e5),
                result("serve.adapt.p50", "serve", 1.1e6),
                result("store.warm_restart", "store", 3.0e5),
            ],
        }
    }

    #[test]
    fn report_round_trips() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert!(back.missing_layers().is_empty());
    }

    #[test]
    fn missing_layers_are_reported() {
        let mut report = sample_report();
        report.results.retain(|r| r.layer != "serve");
        assert_eq!(report.missing_layers(), vec!["serve"]);
    }

    #[test]
    fn parse_rejects_bad_reports() {
        let good = sample_report().to_json_string();
        // Wrong kind.
        assert!(BenchReport::parse(&good.replace(REPORT_KIND, "nonsense")).is_err());
        // Unsupported schema version.
        assert!(
            BenchReport::parse(&good.replace("\"schema_version\":1", "\"schema_version\":99"))
                .is_err()
        );
        // Duplicate result id.
        let mut dup = sample_report();
        dup.results[1].id = dup.results[0].id.clone();
        assert!(BenchReport::parse(&dup.to_json_string())
            .unwrap_err()
            .contains("duplicate"));
        // Bad layer.
        let mut bad_layer = sample_report();
        bad_layer.results[0].layer = "gpu".to_string();
        assert!(BenchReport::parse(&bad_layer.to_json_string()).is_err());
        // Negative dispersion.
        let mut neg = sample_report();
        neg.results[0].dispersion = -0.5;
        assert!(BenchReport::parse(&neg.to_json_string()).is_err());
        // Not JSON at all.
        assert!(BenchReport::parse("not json").is_err());
    }

    #[test]
    fn merge_runs_is_identity_for_one_run() {
        let run = sample_report().results;
        let merged = merge_runs(std::slice::from_ref(&run));
        assert_eq!(merged, run);
    }

    #[test]
    fn merge_runs_folds_cross_run_spread_into_dispersion() {
        let mut fast = sample_report().results;
        let mut slow = sample_report().results;
        let mut slower = sample_report().results;
        // Quiet within each run (dispersion 0.02) but drifting 30% across
        // runs: the merged dispersion must reflect the drift.
        slow[0].value = fast[0].value * 1.3;
        slower[0].value = fast[0].value * 1.6;
        // An unobservable run poisons the merged observability.
        fast[1].observable = false;
        let merged = merge_runs(&[fast.clone(), slow, slower]);
        assert_eq!(merged.len(), fast.len());
        assert_eq!(merged[0].value, fast[0].value * 1.3, "median of 3 runs");
        assert!(
            merged[0].dispersion > 0.15,
            "cross-run drift not captured: {}",
            merged[0].dispersion
        );
        assert!(!merged[1].observable);
        // Stable entries keep their intra-run dispersion.
        assert_eq!(merged[2].dispersion, 0.02);
        assert_eq!(merged[2].samples, 3 * fast[2].samples);
        // Metrics merge key-wise.
        assert_eq!(merged[0].metrics["conflicts_per_sec"], 1.5e6);
    }

    #[test]
    fn observable_defaults_to_true_when_absent() {
        let text = sample_report()
            .to_json_string()
            .replace("\"observable\":true,", "");
        let report = BenchReport::parse(&text).unwrap();
        assert!(report.results.iter().all(|r| r.observable));
    }
}
