//! The measurement harness: calibration, warmup with steady-state
//! detection, repeated sampling, and outlier-trimmed robust statistics.
//!
//! Every microbenchmark in the repository runs through this harness; its
//! results are the ones *recorded and gated on*:
//!
//! 1. **Calibration** — one timed probe picks an iteration count whose
//!    sample lasts roughly [`HarnessConfig::target_sample`], so nanosecond
//!    and multi-millisecond routines get comparable sample counts.
//! 2. **Warmup + steady-state detection** — warmup windows run until the
//!    median per-iteration time of consecutive windows agrees within
//!    [`HarnessConfig::steady_tolerance`] (caches hot, frequency governor
//!    settled) or [`HarnessConfig::max_warmup`] is exhausted.
//! 3. **Sampling** — [`HarnessConfig::samples`] wall-clock samples, each of
//!    the calibrated iteration count.
//! 4. **Robust statistics** — quartile trimming drops stragglers (GC-less
//!    Rust still suffers scheduler preemption, especially on the 1-core CI
//!    box), and dispersion is reported as a *relative* median absolute
//!    deviation so `compare` can tell real regressions from noise.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Harness tuning knobs. Use [`HarnessConfig::quick`] for CI gates and
/// [`HarnessConfig::full`] for recorded baselines.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Number of measured samples.
    pub samples: usize,
    /// Target wall-clock duration of one sample (picks the per-sample
    /// iteration count during calibration).
    pub target_sample: Duration,
    /// Minimum total warmup time before steady-state detection may stop.
    pub min_warmup: Duration,
    /// Hard cap on total warmup time.
    pub max_warmup: Duration,
    /// Relative drift between consecutive warmup windows below which the
    /// routine is considered steady.
    pub steady_tolerance: f64,
    /// Fraction of samples trimmed from *each* tail before computing
    /// statistics (0.25 = interquartile).
    pub trim: f64,
}

impl HarnessConfig {
    /// CI-gate settings: a handful of samples, short warmup. A full suite
    /// run stays in the tens of seconds.
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            samples: 7,
            target_sample: Duration::from_millis(10),
            min_warmup: Duration::from_millis(30),
            max_warmup: Duration::from_millis(250),
            steady_tolerance: 0.10,
            trim: 0.15,
        }
    }

    /// Baseline-recording settings: more samples, longer warmup, tighter
    /// steady-state requirement.
    pub fn full() -> HarnessConfig {
        HarnessConfig {
            samples: 21,
            target_sample: Duration::from_millis(40),
            min_warmup: Duration::from_millis(150),
            max_warmup: Duration::from_secs(2),
            steady_tolerance: 0.05,
            trim: 0.15,
        }
    }
}

/// One benchmark's timing result: raw per-iteration sample times plus the
/// calibrated iteration count.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-iteration time of each sample, nanoseconds, measurement order.
    pub samples_ns: Vec<f64>,
    /// Iterations per sample chosen by calibration.
    pub iters: u64,
}

impl Measurement {
    /// Robust summary statistics over the samples, with the fraction `trim`
    /// dropped from each tail (at least one sample always survives).
    pub fn stats(&self, trim: f64) -> SampleStats {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let drop = ((sorted.len() as f64) * trim.clamp(0.0, 0.45)).floor() as usize;
        SampleStats::from_sorted(&sorted[drop..sorted.len() - drop])
    }
}

/// Robust summary statistics of a sample set (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleStats {
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest surviving (post-trim) sample.
    pub max_ns: f64,
    /// Relative dispersion: median absolute deviation from the median,
    /// scaled by the median (0 for constant samples, 0.05 = ±5% typical
    /// spread). This is what `compare` folds into its noise threshold.
    pub rel_mad: f64,
    /// Number of samples the statistics were computed over.
    pub count: usize,
}

impl SampleStats {
    /// Computes statistics over `sorted` (ascending, non-empty unless the
    /// whole measurement was empty).
    fn from_sorted(sorted: &[f64]) -> SampleStats {
        if sorted.is_empty() {
            return SampleStats::default();
        }
        let median = median_of_sorted(sorted);
        let mut deviations: Vec<f64> = sorted.iter().map(|s| (s - median).abs()).collect();
        deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite deviation"));
        let mad = median_of_sorted(&deviations);
        SampleStats {
            median_ns: median,
            min_ns: sorted[0],
            max_ns: *sorted.last().expect("non-empty"),
            rel_mad: if median > 0.0 { mad / median } else { 0.0 },
            count: sorted.len(),
        }
    }
}

/// Median of an ascending-sorted slice (mean of the middle pair for even
/// lengths).
fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Times `routine` under `config` and returns the raw measurement.
///
/// The routine's return value is passed through [`black_box`] so the
/// optimizer cannot delete the work.
pub fn measure<O, F: FnMut() -> O>(config: &HarnessConfig, mut routine: F) -> Measurement {
    // Calibration: one probe iteration picks the per-sample count.
    let probe_start = Instant::now();
    black_box(routine());
    let probe = probe_start.elapsed().max(Duration::from_nanos(1));
    let iters = (config.target_sample.as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as u64;

    // Warmup in windows of the calibrated sample size until two consecutive
    // windows agree within the steady tolerance (or the budget runs out).
    let warmup_start = Instant::now();
    let mut previous_window: Option<f64> = None;
    loop {
        let window_start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let window_ns = window_start.elapsed().as_nanos() as f64 / iters as f64;
        let warmed = warmup_start.elapsed();
        if let Some(prev) = previous_window {
            let base = prev.max(1.0);
            if (window_ns - prev).abs() / base <= config.steady_tolerance
                && warmed >= config.min_warmup
            {
                break;
            }
        }
        previous_window = Some(window_ns);
        if warmed >= config.max_warmup {
            break;
        }
    }

    // Measured samples.
    let mut samples_ns = Vec::with_capacity(config.samples);
    for _ in 0..config.samples.max(1) {
        let sample_start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        samples_ns.push(sample_start.elapsed().as_nanos() as f64 / iters as f64);
    }

    Measurement { samples_ns, iters }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> HarnessConfig {
        HarnessConfig {
            samples: 5,
            target_sample: Duration::from_micros(200),
            min_warmup: Duration::from_micros(100),
            max_warmup: Duration::from_millis(20),
            steady_tolerance: 0.5,
            trim: 0.2,
        }
    }

    #[test]
    fn measures_a_trivial_routine() {
        let m = measure(&fast_config(), || std::hint::black_box(3u64).pow(7));
        assert_eq!(m.samples_ns.len(), 5);
        assert!(m.iters >= 1);
        let stats = m.stats(0.2);
        assert!(stats.median_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert!(stats.rel_mad >= 0.0);
    }

    #[test]
    fn calibration_scales_iteration_count() {
        // A ~1ms routine must get very few iterations per sample.
        let config = fast_config();
        let m = measure(&config, || std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(m.iters, 1, "slow routine over-calibrated: {}", m.iters);
    }

    #[test]
    fn stats_of_constant_samples_have_zero_dispersion() {
        let m = Measurement {
            samples_ns: vec![100.0; 9],
            iters: 1,
        };
        let stats = m.stats(0.25);
        assert_eq!(stats.median_ns, 100.0);
        assert_eq!(stats.rel_mad, 0.0);
        assert_eq!(stats.min_ns, 100.0);
        assert_eq!(stats.max_ns, 100.0);
    }

    #[test]
    fn trimming_drops_outliers_from_both_tails() {
        let m = Measurement {
            samples_ns: vec![1.0, 100.0, 101.0, 102.0, 103.0, 104.0, 10_000.0],
            iters: 1,
        };
        // 1/7 trimmed from each tail removes exactly the two outliers.
        let stats = m.stats(0.15);
        assert_eq!(stats.count, 5);
        assert_eq!(stats.min_ns, 100.0);
        assert_eq!(stats.max_ns, 104.0);
        assert_eq!(stats.median_ns, 102.0);
        // Untrimmed, the outliers dominate max and inflate dispersion.
        let raw = m.stats(0.0);
        assert_eq!(raw.max_ns, 10_000.0);
        assert!(raw.rel_mad >= stats.rel_mad);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median_of_sorted(&[1.0, 3.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 3.0, 5.0]), 3.0);
        assert_eq!(median_of_sorted(&[]), 0.0);
    }

    #[test]
    fn empty_measurement_stats_are_all_zero() {
        let m = Measurement {
            samples_ns: Vec::new(),
            iters: 1,
        };
        let stats = m.stats(0.25);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.median_ns, 0.0);
        assert_eq!(stats.rel_mad, 0.0);
    }
}
