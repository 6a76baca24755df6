//! Engine and service metrics: lock-free counters and log-scale histograms.
//!
//! The registry is a [`TraceSink`]: the engine tees its tracer into it, and
//! every counter event named in [`COUNTERS`] lands in its atomic (other
//! events — spans, SAT gauges, OMT counters — pass through untouched, so
//! the same stream can feed a JSONL file and the registry at once).
//! Workers record into shared atomics while solving; nothing blocks on a
//! metrics write. [`MetricsRegistry::to_json`] renders the engine counters
//! as one JSON object for `--metrics-out` and `/metrics`; the `serve.*`
//! rows, which `qca-serve` emits through the same tracer, render apart as
//! [`MetricsRegistry::server_json`].

use qca_trace::json::Json;
use qca_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets in a [`Histogram`].
const NUM_BUCKETS: usize = 40;

/// A fixed-bucket log₂ histogram over `u64` samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 also takes 0).
/// Forty buckets cover more than 12 orders of magnitude — enough for
/// nanosecond wall times and conflict counts alike.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket.min(NUM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower edge of the bucket
    /// containing the q-th sample (log₂ resolution).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max()
    }

    /// `{"count":..,"sum":..,"mean":..,"max":..,"p50":..,"p90":..,"p95":..,
    /// "p99":..}`. The percentiles are bucket lower edges — see
    /// [`Histogram::quantile`].
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count().into()),
            ("sum", self.sum().into()),
            ("mean", self.mean().into()),
            ("max", self.max().into()),
            ("p50", self.quantile(0.5).into()),
            ("p90", self.quantile(0.9).into()),
            ("p95", self.quantile(0.95).into()),
            ("p99", self.quantile(0.99).into()),
        ])
    }
}

/// `(counter event name, JSON key)` for every counter the registry keeps,
/// in rendering order. Each event's value is added to its counter. The
/// `serve.*` rows are the HTTP layer's and render in their own object.
pub const COUNTERS: [(&str, &str); 36] = [
    ("engine.jobs_submitted", "jobs_submitted"),
    ("engine.job_completed", "jobs_completed"),
    ("engine.cache_hit", "cache_hits"),
    ("engine.cache_miss", "cache_misses"),
    ("engine.status.optimal", "optimal"),
    ("engine.status.feasible", "feasible"),
    ("engine.status.fallback", "fallbacks"),
    ("engine.job_panicked", "jobs_panicked"),
    ("verify.audits", "verify_audits"),
    ("verify.passed", "verify_passed"),
    ("verify.failures", "verify_failures"),
    ("lint.errors", "lint_errors"),
    ("lint.warnings", "lint_warnings"),
    ("lint.rejections", "lint_rejections"),
    ("recalib.entries", "recalib_entries"),
    ("recalib.reused", "recalib_reused"),
    ("recalib.resolved", "recalib_resolved"),
    ("recalib.failed", "recalib_failed"),
    ("store.hits", "store_hits"),
    ("store.misses", "store_misses"),
    ("store.replays", "store_replays"),
    ("store.compactions", "store_compactions"),
    ("singleflight.coalesced", "singleflight_coalesced"),
    ("engine.sat_conflicts", "sat_conflicts"),
    ("engine.sat_restarts", "sat_restarts"),
    ("engine.sat_learnt_clauses", "sat_learnt_clauses"),
    ("engine.sat_decisions", "sat_decisions"),
    ("engine.sat_propagations", "sat_propagations"),
    ("serve.requests", "requests"),
    ("serve.ok", "ok"),
    ("serve.client_errors", "client_errors"),
    ("serve.rejected_429", "rejected_429"),
    ("serve.unavailable_503", "unavailable_503"),
    ("serve.timeouts_504", "timeouts_504"),
    ("serve.server_errors", "server_errors"),
    ("serve.forwarded", "forwarded"),
];

/// Shared counters and histograms for one [`Engine`](crate::Engine).
///
/// All values are updated with relaxed atomics; totals are exact once the
/// batch has been collected (the engine joins its workers before reporting).
#[derive(Debug)]
pub struct MetricsRegistry {
    /// One counter per [`COUNTERS`] entry, same index.
    counters: [AtomicU64; COUNTERS.len()],
    /// Per-job solve wall time in microseconds (cache hits excluded), fed
    /// by `engine.solve_wall_us`.
    pub solve_wall_us: Histogram,
    /// Per-job SAT conflicts (cache hits excluded), fed by
    /// `engine.sat_conflicts`.
    pub conflicts_per_job: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            solve_wall_us: Histogram::new(),
            conflicts_per_job: Histogram::new(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter rendered under JSON key `key`.
    ///
    /// # Panics
    ///
    /// Panics when `key` is not a [`COUNTERS`] key.
    pub fn get(&self, key: &str) -> u64 {
        let index = COUNTERS
            .iter()
            .position(|&(_, k)| k == key)
            .unwrap_or_else(|| panic!("unknown metrics key {key:?}"));
        self.counters[index].load(Ordering::Relaxed)
    }

    /// Cache hit rate over completed lookups (0.0 when nothing ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.get("cache_hits");
        let total = hits + self.get("cache_misses");
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The counters whose events are (`serve`) or are not `serve.*`, under
    /// their keys in table order.
    fn counters_json(&self, serve: bool) -> Vec<(&'static str, Json)> {
        COUNTERS
            .iter()
            .zip(&self.counters)
            .filter(|((event, _), _)| event.starts_with("serve.") == serve)
            .map(|(&(_, key), c)| (key, c.load(Ordering::Relaxed).into()))
            .collect()
    }

    /// The engine counters as one JSON object: every non-`serve.*` counter
    /// under its key, the derived `cache_hit_rate` after `cache_misses`,
    /// then the histograms.
    pub fn to_json(&self) -> Json {
        let mut members = self.counters_json(false);
        let after_misses = 1 + members
            .iter()
            .position(|(k, _)| *k == "cache_misses")
            .expect("cache_misses is a counter");
        members.insert(
            after_misses,
            ("cache_hit_rate", self.cache_hit_rate().into()),
        );
        members.push(("solve_wall_us", self.solve_wall_us.to_json()));
        members.push(("conflicts_per_job", self.conflicts_per_job.to_json()));
        Json::obj(members)
    }

    /// The `serve.*` counters (requests dispatched, responses by status
    /// class, peer forwards) as one JSON object: the `/metrics` `server`
    /// object.
    pub fn server_json(&self) -> Json {
        Json::obj(self.counters_json(true))
    }
}

/// Counter events named in [`COUNTERS`] accumulate; `engine.sat_conflicts`
/// and `engine.solve_wall_us` also feed the histograms. Every other event
/// (spans, gauges, foreign counters) is ignored, so the registry can sit
/// on the same fanout as a JSONL sink.
impl TraceSink for MetricsRegistry {
    fn record(&self, event: &TraceEvent) {
        let TraceEvent::Counter { name, value, .. } = event else {
            return;
        };
        match name.as_ref() {
            "engine.solve_wall_us" => return self.solve_wall_us.record(*value),
            "engine.sat_conflicts" => self.conflicts_per_job.record(*value),
            _ => {}
        }
        if let Some(index) = COUNTERS.iter().position(|&(event, _)| event == name) {
            self.counters[index].fetch_add(*value, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_030);
        assert_eq!(h.max(), 1_000_000);
        assert!(h.mean() > 0.0);
        // p50 falls in the small buckets, p90+ near the top sample.
        assert!(h.quantile(0.5) <= 4);
        assert!(h.quantile(1.0) >= 1 << 19);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::new();
        // Every percentile of an empty histogram is 0, as are the moments.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let json = h.to_json();
        assert_eq!(json.get("p50"), Some(&Json::Int(0)));
        assert_eq!(json.get("p99"), Some(&Json::Int(0)));
    }

    #[test]
    fn quantiles_of_single_sample_all_answer_its_bucket() {
        let h = Histogram::new();
        h.record(1000);
        // With one sample every percentile has rank 1: the lower edge of
        // the sample's bucket ([512, 1024) for 1000).
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 512, "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1000);
        // A single zero sample lands in bucket 0, whose lower edge is 0.
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.quantile(0.99), 0);
        assert_eq!(z.count(), 1);
    }

    #[test]
    fn quantiles_of_constant_samples_are_that_bucket_everywhere() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(300);
        }
        // All mass in one bucket ([256, 512)): p50, p95, and p99 must
        // agree exactly, and the moments are exact.
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 256, "q={q}");
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 300_000);
        assert_eq!(h.mean(), 300.0);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let h = Histogram::new();
        h.record(5);
        // q outside [0, 1] is clamped, not a panic or an out-of-range
        // rank.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn percentiles_pinned_on_known_distribution() {
        // Samples 1..=100 land in log₂ buckets with cumulative counts
        // 1, 3, 7, 15, 31, 63, 100; quantile() answers the containing
        // bucket's lower edge. Pin the exact values so a regression in the
        // rank math or bucket indexing shows up as a concrete number.
        let h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 32); // rank 50 → bucket [32, 64)
        assert_eq!(h.quantile(0.9), 64); // rank 90 → bucket [64, 128)
        assert_eq!(h.quantile(0.95), 64);
        assert_eq!(h.quantile(0.99), 64);
        assert_eq!(h.quantile(1.0), 64);
        let json = h.to_json();
        assert_eq!(json.get("p50"), Some(&Json::Int(32)));
        assert_eq!(json.get("p95"), Some(&Json::Int(64)));
        assert_eq!(json.get("p99"), Some(&Json::Int(64)));
    }

    #[test]
    fn hit_rate_and_json_shape() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let tracer = qca_trace::Tracer::new(m.clone());
        tracer.counter("engine.cache_hit", 3);
        tracer.counter("engine.cache_miss", 1);
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
        let json = m.to_json();
        assert_eq!(json.get("cache_hits"), Some(&Json::Int(3)));
        assert_eq!(json.get("cache_hit_rate"), Some(&Json::Num(0.75)));
        assert_eq!(
            json.get("solve_wall_us").and_then(|h| h.get("count")),
            Some(&Json::Int(0))
        );
        // Every key of the wire format, in order.
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "jobs_submitted",
                "jobs_completed",
                "cache_hits",
                "cache_misses",
                "cache_hit_rate",
                "optimal",
                "feasible",
                "fallbacks",
                "jobs_panicked",
                "verify_audits",
                "verify_passed",
                "verify_failures",
                "lint_errors",
                "lint_warnings",
                "lint_rejections",
                "recalib_entries",
                "recalib_reused",
                "recalib_resolved",
                "recalib_failed",
                "store_hits",
                "store_misses",
                "store_replays",
                "store_compactions",
                "singleflight_coalesced",
                "sat_conflicts",
                "sat_restarts",
                "sat_learnt_clauses",
                "sat_decisions",
                "sat_propagations",
                "solve_wall_us",
                "conflicts_per_job",
            ]
        );
    }

    #[test]
    fn every_counter_event_lands_under_its_key() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let tracer = qca_trace::Tracer::new(m.clone());
        for (i, &(event, _)) in COUNTERS.iter().enumerate() {
            tracer.counter(event, i as u64 + 1);
        }
        let (engine, server) = (m.to_json(), m.server_json());
        for (i, &(event, key)) in COUNTERS.iter().enumerate() {
            assert_eq!(m.get(key), i as u64 + 1, "{key}");
            // Each counter renders in exactly one of the two objects.
            let (json, other) = if event.starts_with("serve.") {
                (&server, &engine)
            } else {
                (&engine, &server)
            };
            assert_eq!(json.get(key), Some(&Json::Int(i as i128 + 1)), "{key}");
            assert_eq!(other.get(key), None, "{key}");
            let text = json.to_string_compact();
            assert!(text.contains(&format!("\"{key}\":{}", i + 1)), "{text}");
        }
        assert_eq!(
            server.as_obj().unwrap().len() + engine.as_obj().unwrap().len(),
            COUNTERS.len() + 3,
            "every counter, plus cache_hit_rate and the two histograms"
        );
    }

    #[test]
    fn counter_events_accumulate_totals() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let tracer = qca_trace::Tracer::new(m.clone());
        for wall in [500u64, 700] {
            tracer.counter("engine.solve_wall_us", wall);
            tracer.counter("engine.sat_conflicts", 10);
            tracer.counter("engine.sat_restarts", 2);
            tracer.counter("engine.job_completed", 1);
        }
        assert_eq!(m.get("sat_conflicts"), 20);
        assert_eq!(m.get("sat_restarts"), 4);
        assert_eq!(m.get("jobs_completed"), 2);
        assert_eq!(m.solve_wall_us.count(), 2);
        assert_eq!(m.conflicts_per_job.count(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown metrics key")]
    fn unknown_key_panics() {
        MetricsRegistry::new().get("no_such_counter");
    }

    #[test]
    fn foreign_events_are_ignored() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        let tracer = qca_trace::Tracer::new(m.clone());
        tracer.counter("sat.restart", 1);
        tracer.gauge("engine.sat_conflicts", 5);
        let _span = tracer.span("engine.job");
        drop(_span);
        assert_eq!(m.get("sat_conflicts"), 0);
        assert_eq!(m.get("sat_restarts"), 0);
        assert_eq!(m.conflicts_per_job.count(), 0);
    }
}
