//! Noise-aware regression comparison between two benchmark reports.
//!
//! A benchmark regresses only when the relative change exceeds **both**
//! bounds:
//!
//! 1. a flat relative threshold ([`CompareConfig::rel_threshold`], default
//!    10%) — sub-threshold drift is never actionable, and
//! 2. a noise bound derived from the *measured* dispersion of the two runs
//!    being compared: `noise_mult * sqrt(old.dispersion² +
//!    new.dispersion²)` — a 12% change in a benchmark that wobbles ±8%
//!    run-to-run is not a finding.
//!
//! Comparing reports from incomparable machines (different core count,
//! architecture, or build profile) is refused outright: a 1-core CI box
//! against an 8-core baseline produces *numbers*, not *evidence*. Results
//! marked unobservable on either side are reported but never gated, and a
//! benchmark that disappears from the new report is itself a failure
//! (deleting the benchmark must not be a way to pass the gate).

use crate::report::{BenchReport, Direction};

/// Comparison thresholds.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Flat relative regression bound (0.10 = 10%).
    pub rel_threshold: f64,
    /// Multiplier on the combined cross-run dispersion.
    pub noise_mult: f64,
    /// When `true`, benchmarks present in the old report but missing from
    /// the new one are tolerated.
    pub allow_missing: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            rel_threshold: 0.10,
            noise_mult: 3.0,
            allow_missing: false,
        }
    }
}

/// Verdict for one benchmark id.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within thresholds (includes improvements).
    Ok {
        /// Relative change in the regression direction (negative =
        /// improvement).
        regression: f64,
    },
    /// Regression beyond both the flat and the noise bound.
    Regressed {
        /// Relative change in the regression direction.
        regression: f64,
        /// The bound that had to be exceeded (max of flat and noise).
        bound: f64,
    },
    /// Unobservable on at least one side; never gated.
    Unobservable,
    /// In the old report but not the new one.
    Missing,
    /// New benchmark with no baseline.
    New,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark id the row joins on.
    pub id: String,
    /// Old value (when present).
    pub old: Option<f64>,
    /// New value (when present).
    pub new: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The full comparison outcome.
#[derive(Debug, Clone)]
pub struct CompareOutcome {
    /// Per-benchmark rows, old-report order then new-only rows.
    pub rows: Vec<Comparison>,
}

impl CompareOutcome {
    /// Ids that regressed (the gate fails when non-empty).
    pub fn regressions(&self) -> Vec<&Comparison> {
        self.rows
            .iter()
            .filter(|row| matches!(row.verdict, Verdict::Regressed { .. }))
            .collect()
    }

    /// Ids that vanished from the new report.
    pub fn missing(&self) -> Vec<&Comparison> {
        self.rows
            .iter()
            .filter(|row| row.verdict == Verdict::Missing)
            .collect()
    }

    /// `true` when the gate passes under `config`.
    pub fn passed(&self, config: &CompareConfig) -> bool {
        self.regressions().is_empty() && (config.allow_missing || self.missing().is_empty())
    }
}

/// Compares `new` against the `old` baseline.
///
/// Returns `Err` when the fingerprints are incomparable.
pub fn compare(
    old: &BenchReport,
    new: &BenchReport,
    config: &CompareConfig,
) -> Result<CompareOutcome, String> {
    if !old.fingerprint.comparable_to(&new.fingerprint) {
        return Err(format!(
            "fingerprints are not comparable (old: {} cores {} {}, new: {} cores {} {}); \
             re-record the baseline on this machine",
            old.fingerprint.cores,
            old.fingerprint.arch,
            old.fingerprint.profile,
            new.fingerprint.cores,
            new.fingerprint.arch,
            new.fingerprint.profile,
        ));
    }
    let mut rows = Vec::new();
    for old_result in &old.results {
        let Some(new_result) = new.results.iter().find(|r| r.id == old_result.id) else {
            rows.push(Comparison {
                id: old_result.id.clone(),
                old: Some(old_result.value),
                new: None,
                verdict: Verdict::Missing,
            });
            continue;
        };
        let verdict = if !old_result.observable || !new_result.observable {
            Verdict::Unobservable
        } else if old_result.value <= 0.0 || new_result.value <= 0.0 {
            // Degenerate values cannot express a ratio; treat as stable.
            Verdict::Ok { regression: 0.0 }
        } else {
            // Relative change oriented so positive = worse.
            let regression = match old_result.better {
                Direction::LowerIsBetter => new_result.value / old_result.value - 1.0,
                Direction::HigherIsBetter => old_result.value / new_result.value - 1.0,
            };
            let noise = config.noise_mult
                * (old_result.dispersion.powi(2) + new_result.dispersion.powi(2)).sqrt();
            let bound = config.rel_threshold.max(noise);
            if regression > bound {
                Verdict::Regressed { regression, bound }
            } else {
                Verdict::Ok { regression }
            }
        };
        rows.push(Comparison {
            id: old_result.id.clone(),
            old: Some(old_result.value),
            new: Some(new_result.value),
            verdict,
        });
    }
    for new_result in &new.results {
        if !old.results.iter().any(|r| r.id == new_result.id) {
            rows.push(Comparison {
                id: new_result.id.clone(),
                old: None,
                new: Some(new_result.value),
                verdict: Verdict::New,
            });
        }
    }
    Ok(CompareOutcome { rows })
}

/// Renders the comparison as an aligned human-readable table.
pub fn render(outcome: &CompareOutcome) -> String {
    let mut out = String::new();
    let id_width = outcome
        .rows
        .iter()
        .map(|r| r.id.len())
        .max()
        .unwrap_or(2)
        .max(2);
    out.push_str(&format!(
        "{:<id_width$}  {:>14}  {:>14}  {:>9}  verdict\n",
        "id", "old", "new", "change"
    ));
    for row in &outcome.rows {
        let fmt_value = |v: Option<f64>| match v {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        let (change, verdict) = match &row.verdict {
            Verdict::Ok { regression } => {
                (format!("{:+.1}%", regression * 100.0), "ok".to_string())
            }
            Verdict::Regressed { regression, bound } => (
                format!("{:+.1}%", regression * 100.0),
                format!("REGRESSED (bound {:.1}%)", bound * 100.0),
            ),
            Verdict::Unobservable => ("-".to_string(), "unobservable (not gated)".to_string()),
            Verdict::Missing => ("-".to_string(), "MISSING from new report".to_string()),
            Verdict::New => ("-".to_string(), "new (no baseline)".to_string()),
        };
        out.push_str(&format!(
            "{:<id_width$}  {:>14}  {:>14}  {:>9}  {}\n",
            row.id,
            fmt_value(row.old),
            fmt_value(row.new),
            change,
            verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use crate::report::{BenchResult, Direction};
    use std::collections::BTreeMap;

    fn fingerprint(cores: usize) -> Fingerprint {
        Fingerprint {
            cores,
            arch: "x86_64".to_string(),
            os: "linux".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            git_sha: "cafe".to_string(),
            profile: "release".to_string(),
        }
    }

    fn result(id: &str, value: f64, dispersion: f64, better: Direction) -> BenchResult {
        BenchResult {
            id: id.to_string(),
            layer: "sat".to_string(),
            unit: "ns".to_string(),
            better,
            value,
            dispersion,
            samples: 7,
            iters_per_sample: 1,
            observable: true,
            metrics: BTreeMap::new(),
        }
    }

    fn report(results: Vec<BenchResult>) -> BenchReport {
        BenchReport {
            pr: 6,
            mode: "quick".to_string(),
            created_unix: 0,
            fingerprint: fingerprint(1),
            results,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let old = report(vec![result("a", 100.0, 0.02, Direction::LowerIsBetter)]);
        let outcome = compare(&old, &old.clone(), &CompareConfig::default()).unwrap();
        assert!(outcome.passed(&CompareConfig::default()));
        assert_eq!(
            outcome.rows[0].verdict,
            Verdict::Ok { regression: 0.0 },
            "{outcome:?}"
        );
    }

    #[test]
    fn two_x_regression_fails() {
        // The synthetic fixture from the acceptance criteria: identical
        // inputs pass, a 2× slowdown fails.
        let old = report(vec![result("a", 100.0, 0.02, Direction::LowerIsBetter)]);
        let new = report(vec![result("a", 200.0, 0.02, Direction::LowerIsBetter)]);
        let config = CompareConfig::default();
        let outcome = compare(&old, &new, &config).unwrap();
        assert!(!outcome.passed(&config));
        match &outcome.rows[0].verdict {
            Verdict::Regressed { regression, .. } => assert!((regression - 1.0).abs() < 1e-9),
            other => panic!("expected regression, got {other:?}"),
        }
        // And for throughput (higher is better), halving fails too.
        let old = report(vec![result("t", 100.0, 0.02, Direction::HigherIsBetter)]);
        let new = report(vec![result("t", 50.0, 0.02, Direction::HigherIsBetter)]);
        assert!(!compare(&old, &new, &config).unwrap().passed(&config));
        // While doubling throughput is an improvement.
        let new = report(vec![result("t", 200.0, 0.02, Direction::HigherIsBetter)]);
        assert!(compare(&old, &new, &config).unwrap().passed(&config));
    }

    #[test]
    fn noisy_benchmarks_get_wider_bounds() {
        // +20% on a ±10%-dispersion benchmark: the noise bound
        // 3*sqrt(0.1²+0.1²) ≈ 42% swallows it.
        let old = report(vec![result("n", 100.0, 0.10, Direction::LowerIsBetter)]);
        let new = report(vec![result("n", 120.0, 0.10, Direction::LowerIsBetter)]);
        let config = CompareConfig::default();
        assert!(compare(&old, &new, &config).unwrap().passed(&config));
        // The same +20% on a quiet benchmark is a finding.
        let old = report(vec![result("q", 100.0, 0.005, Direction::LowerIsBetter)]);
        let new = report(vec![result("q", 120.0, 0.005, Direction::LowerIsBetter)]);
        assert!(!compare(&old, &new, &config).unwrap().passed(&config));
    }

    #[test]
    fn sub_threshold_drift_never_fails() {
        // +8% with near-zero dispersion: under the 10% flat bound.
        let old = report(vec![result("d", 100.0, 0.0, Direction::LowerIsBetter)]);
        let new = report(vec![result("d", 108.0, 0.0, Direction::LowerIsBetter)]);
        let config = CompareConfig::default();
        assert!(compare(&old, &new, &config).unwrap().passed(&config));
    }

    #[test]
    fn unobservable_results_are_never_gated() {
        let mut old_result = result("s", 100.0, 0.0, Direction::LowerIsBetter);
        old_result.observable = false;
        let old = report(vec![old_result.clone()]);
        let mut new_result = old_result;
        new_result.value = 1000.0;
        let new = report(vec![new_result]);
        let config = CompareConfig::default();
        let outcome = compare(&old, &new, &config).unwrap();
        assert_eq!(outcome.rows[0].verdict, Verdict::Unobservable);
        assert!(outcome.passed(&config));
    }

    #[test]
    fn vanished_benchmark_fails_unless_allowed() {
        let old = report(vec![
            result("a", 100.0, 0.0, Direction::LowerIsBetter),
            result("b", 100.0, 0.0, Direction::LowerIsBetter),
        ]);
        let new = report(vec![result("a", 100.0, 0.0, Direction::LowerIsBetter)]);
        let config = CompareConfig::default();
        let outcome = compare(&old, &new, &config).unwrap();
        assert!(!outcome.passed(&config));
        let lenient = CompareConfig {
            allow_missing: true,
            ..CompareConfig::default()
        };
        assert!(outcome.passed(&lenient));
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let old = report(vec![result("a", 100.0, 0.0, Direction::LowerIsBetter)]);
        let mut new = report(vec![result("a", 500.0, 0.0, Direction::LowerIsBetter)]);
        new.fingerprint = fingerprint(8);
        let err = compare(&old, &new, &CompareConfig::default()).unwrap_err();
        assert!(
            err.contains("re-record the baseline on this machine"),
            "{err}"
        );
    }

    #[test]
    fn render_lists_every_row() {
        let old = report(vec![result("kept", 100.0, 0.0, Direction::LowerIsBetter)]);
        let new = report(vec![
            result("kept", 300.0, 0.0, Direction::LowerIsBetter),
            result("added", 1.0, 0.0, Direction::LowerIsBetter),
        ]);
        let outcome = compare(&old, &new, &CompareConfig::default()).unwrap();
        let rendered = render(&outcome);
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(rendered.contains("new (no baseline)"), "{rendered}");
    }
}
