//! Solver configuration: one validating builder for every tunable knob.
//!
//! [`SolverConfig`] is a single value describing how a [`Solver`]
//! searches: VSIDS decay, restart schedule, phase
//! policy, random seed, per-call conflict budget, and the caller-side run
//! controls ([`SolveControl`]). A config is `Clone`, so a *portfolio* of
//! diverse solvers is just a `Vec<SolverConfig>`; parsing the same knobs
//! from a `decay=0.95,restart=luby` string keeps CLI presets reproducible.

use crate::proof::ProofSink;
use crate::solver::{SolveControl, Solver};
use qca_trace::Tracer;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Restart schedule for the CDCL search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RestartSchedule {
    /// Luby sequence scaled by `base` conflicts (the classic MiniSat
    /// schedule: 1, 1, 2, 1, 1, 2, 4, ... × base).
    Luby {
        /// Conflicts per Luby unit; must be ≥ 1.
        base: u64,
    },
    /// Geometric schedule: restart `i` (0-based) allows
    /// `initial * factor^i` conflicts.
    Geometric {
        /// Conflict limit of the first restart interval; must be ≥ 1.
        initial: u64,
        /// Growth factor between intervals; must be finite and > 1.
        factor: f64,
    },
}

impl Default for RestartSchedule {
    fn default() -> Self {
        RestartSchedule::Luby { base: 100 }
    }
}

impl RestartSchedule {
    /// Conflict limit of restart interval `idx` (0-based).
    pub fn limit(&self, idx: u64) -> u64 {
        match *self {
            RestartSchedule::Luby { base } => luby(idx).saturating_mul(base),
            RestartSchedule::Geometric { initial, factor } => {
                let exp = idx.min(4096) as i32;
                (initial as f64 * factor.powi(exp)) as u64
            }
        }
    }
}

/// Decision polarity policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhasePolicy {
    /// Classic phase saving: branch on the polarity the variable last held
    /// (seedable via [`Solver::set_phase`] for warm starts). The default.
    #[default]
    Saved,
    /// Always branch positive first.
    Positive,
    /// Always branch negative first.
    Negative,
    /// Random polarity from the config's seed — the diversification member
    /// of a portfolio.
    Random,
}

/// The Luby restart sequence value for index `x` (0-based):
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
pub(crate) fn luby(mut x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Minimal xorshift64* PRNG for decision-polarity jitter. Deterministic per
/// seed, `no_std`-grade simple, and good enough for diversification (this is
/// not a statistical-quality requirement).
#[derive(Debug, Clone)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        // Splitmix-style scrambling so seeds 0, 1, 2... give unrelated
        // streams (and seed 0 is not a fixed point).
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift64 {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub(crate) fn next_bool(&mut self) -> bool {
        self.next_u64() & (1 << 60) != 0
    }
}

/// A validated, cloneable description of how a [`Solver`] searches.
///
/// Built with [`SolverConfig::builder`] (which validates every field) or
/// parsed from a `key=value,...` string with [`SolverConfig::parse`];
/// consumed by [`Solver::with_config`]. Because the config is `Clone`, a
/// racing portfolio is simply a `Vec<SolverConfig>` of presets.
///
/// The run controls ([`SolveControl`]: lifetime conflict cap, stop flag,
/// tracer) and the per-call conflict budget live here too, so *all* budget
/// accounting has one source of truth.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// VSIDS variable-activity decay, in (0, 1). `None` keeps 0.95.
    pub decay: Option<f64>,
    /// Learnt-clause activity decay, in (0, 1). `None` keeps 0.999.
    pub clause_decay: Option<f64>,
    /// Restart schedule.
    pub restart: RestartSchedule,
    /// Decision polarity policy.
    pub phase: PhasePolicy,
    /// Seed for the decision-polarity PRNG ([`PhasePolicy::Random`]).
    pub seed: u64,
    /// Per-call conflict budget: each `solve*` call gives up with
    /// `Unknown` after roughly this many conflicts *of its own*.
    pub conflict_budget: Option<u64>,
    /// Ask front ends that hold a whole formula (`qsat`, the portfolio
    /// race, the engine's OMT probes) to run the proof-logging
    /// preprocessor ([`crate::analyze::preprocess`]) before search. The
    /// solver itself ignores the flag — preprocessing needs the full CNF,
    /// which the incremental `add_clause` API never sees at once.
    pub preprocess: bool,
    /// Caller-side run controls: lifetime conflict cap, cooperative stop
    /// flag, tracer.
    pub control: SolveControl,
}

impl SolverConfig {
    /// Starts a validating builder over the default configuration.
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder::default()
    }

    /// Effective VSIDS decay (default 0.95).
    pub(crate) fn var_decay(&self) -> f64 {
        self.decay.unwrap_or(0.95)
    }

    /// Effective clause-activity decay (default 0.999).
    pub(crate) fn cla_decay(&self) -> f64 {
        self.clause_decay.unwrap_or(0.999)
    }

    /// Parses a `key=value,key=value` configuration string (the `qsat
    /// --config` syntax). Recognised keys:
    ///
    /// * `decay=F` — VSIDS decay in (0, 1)
    /// * `clause_decay=F` — clause-activity decay in (0, 1)
    /// * `restart=luby` | `restart=luby:BASE` |
    ///   `restart=geometric` | `restart=geometric:INITIAL:FACTOR`
    /// * `phase=saved|positive|negative|random`
    /// * `seed=N`
    /// * `budget=N` — per-call conflict budget
    /// * `preprocess=true|false` — run the proof-logging preprocessor
    ///   before search (honored by whole-formula front ends)
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unknown keys, malformed values, or values
    /// that fail the builder's validation.
    pub fn parse(spec: &str) -> Result<SolverConfig, ConfigError> {
        let mut b = SolverConfig::builder();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| ConfigError::Parse(format!("expected key=value, got `{item}`")))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| ConfigError::Parse(format!("invalid {what}: `{value}`"));
            match key {
                "decay" => b = b.decay(value.parse().map_err(|_| bad("decay"))?),
                "clause_decay" => {
                    b = b.clause_decay(value.parse().map_err(|_| bad("clause_decay"))?)
                }
                "restart" => {
                    let mut parts = value.split(':');
                    let kind = parts.next().unwrap_or("");
                    b = match kind {
                        "luby" => {
                            let base = match parts.next() {
                                Some(s) => s.parse().map_err(|_| bad("luby base"))?,
                                None => 100,
                            };
                            b.restart(RestartSchedule::Luby { base })
                        }
                        "geometric" => {
                            let initial = match parts.next() {
                                Some(s) => s.parse().map_err(|_| bad("geometric initial"))?,
                                None => 128,
                            };
                            let factor = match parts.next() {
                                Some(s) => s.parse().map_err(|_| bad("geometric factor"))?,
                                None => 1.3,
                            };
                            b.restart(RestartSchedule::Geometric { initial, factor })
                        }
                        other => {
                            return Err(ConfigError::Parse(format!(
                                "unknown restart schedule `{other}`"
                            )))
                        }
                    };
                    if parts.next().is_some() {
                        return Err(bad("restart (trailing fields)"));
                    }
                }
                "phase" => {
                    b = b.phase(match value {
                        "saved" => PhasePolicy::Saved,
                        "positive" => PhasePolicy::Positive,
                        "negative" => PhasePolicy::Negative,
                        "random" => PhasePolicy::Random,
                        other => {
                            return Err(ConfigError::Parse(format!(
                                "unknown phase policy `{other}`"
                            )))
                        }
                    })
                }
                "seed" => b = b.seed(value.parse().map_err(|_| bad("seed"))?),
                "budget" => b = b.conflict_budget(Some(value.parse().map_err(|_| bad("budget"))?)),
                "preprocess" => {
                    b = b.preprocess(match value {
                        "true" | "on" | "1" => true,
                        "false" | "off" | "0" => false,
                        _ => return Err(bad("preprocess")),
                    })
                }
                other => return Err(ConfigError::Parse(format!("unknown config key `{other}`"))),
            }
        }
        b.build()
    }

    /// A short human-readable summary (`decay=0.95 restart=luby:100
    /// phase=saved seed=0`), stable enough for logs and benchmark labels.
    pub fn describe(&self) -> String {
        let restart = match self.restart {
            RestartSchedule::Luby { base } => format!("luby:{base}"),
            RestartSchedule::Geometric { initial, factor } => {
                format!("geometric:{initial}:{factor}")
            }
        };
        let phase = match self.phase {
            PhasePolicy::Saved => "saved",
            PhasePolicy::Positive => "positive",
            PhasePolicy::Negative => "negative",
            PhasePolicy::Random => "random",
        };
        let pre = if self.preprocess {
            " preprocess=on"
        } else {
            ""
        };
        format!(
            "decay={} restart={restart} phase={phase} seed={}{pre}",
            self.var_decay(),
            self.seed
        )
    }
}

/// Validation or parse failure from [`SolverConfigBuilder::build`] /
/// [`SolverConfig::parse`].
#[derive(Debug)]
pub enum ConfigError {
    /// VSIDS decay outside (0, 1).
    InvalidDecay(f64),
    /// Clause-activity decay outside (0, 1).
    InvalidClauseDecay(f64),
    /// Luby base of 0.
    InvalidLubyBase,
    /// Geometric schedule with `initial` 0 or `factor` ≤ 1 / non-finite.
    InvalidGeometric {
        /// Rejected initial interval.
        initial: u64,
        /// Rejected growth factor.
        factor: f64,
    },
    /// `key=value` string did not parse.
    Parse(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidDecay(d) => write!(f, "decay must be in (0, 1), got {d}"),
            ConfigError::InvalidClauseDecay(d) => {
                write!(f, "clause_decay must be in (0, 1), got {d}")
            }
            ConfigError::InvalidLubyBase => write!(f, "luby restart base must be >= 1"),
            ConfigError::InvalidGeometric { initial, factor } => write!(
                f,
                "geometric restart needs initial >= 1 and finite factor > 1, \
                 got initial={initial} factor={factor}"
            ),
            ConfigError::Parse(msg) => write!(f, "config parse error: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`SolverConfig`]; see [`SolverConfig::builder`].
///
/// Every knob of the solver is set here — including the run controls that
/// used to need separate `set_*` calls — and checked once in
/// [`SolverConfigBuilder::build`]. A DRAT proof sink (not cloneable, hence
/// not part of the config value) can be attached too, in which case
/// [`SolverConfigBuilder::build_solver`] installs it on the constructed
/// solver.
#[derive(Debug, Default)]
pub struct SolverConfigBuilder {
    config: SolverConfig,
    proof: Option<Box<dyn ProofSink>>,
}

impl SolverConfigBuilder {
    /// Sets the VSIDS variable-activity decay (validated to (0, 1)).
    #[must_use]
    pub fn decay(mut self, decay: f64) -> Self {
        self.config.decay = Some(decay);
        self
    }

    /// Sets the learnt-clause activity decay (validated to (0, 1)).
    #[must_use]
    pub fn clause_decay(mut self, decay: f64) -> Self {
        self.config.clause_decay = Some(decay);
        self
    }

    /// Sets the restart schedule.
    #[must_use]
    pub fn restart(mut self, restart: RestartSchedule) -> Self {
        self.config.restart = restart;
        self
    }

    /// Sets the decision polarity policy.
    #[must_use]
    pub fn phase(mut self, phase: PhasePolicy) -> Self {
        self.config.phase = phase;
        self
    }

    /// Sets the polarity-PRNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the per-call conflict budget.
    #[must_use]
    pub fn conflict_budget(mut self, budget: Option<u64>) -> Self {
        self.config.conflict_budget = budget;
        self
    }

    /// Asks whole-formula front ends to run the proof-logging
    /// preprocessor before search (see [`SolverConfig::preprocess`]).
    #[must_use]
    pub fn preprocess(mut self, preprocess: bool) -> Self {
        self.config.preprocess = preprocess;
        self
    }

    /// Sets the lifetime conflict cap (see [`SolveControl::conflict_cap`]).
    #[must_use]
    pub fn conflict_cap(mut self, cap: Option<u64>) -> Self {
        self.config.control.conflict_cap = cap;
        self
    }

    /// Attaches a cooperative stop flag (see [`SolveControl::stop`]).
    #[must_use]
    pub fn stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.config.control.stop = Some(stop);
        self
    }

    /// Installs a tracer (see [`SolveControl::tracer`]).
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.control.tracer = tracer;
        self
    }

    /// Attaches a DRAT proof sink, installed by
    /// [`SolverConfigBuilder::build_solver`]. Proof sinks are not `Clone`,
    /// so they are carried by the builder rather than the config value.
    #[must_use]
    pub fn proof(mut self, sink: Box<dyn ProofSink>) -> Self {
        self.proof = Some(sink);
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if let Some(d) = self.config.decay {
            if !(d > 0.0 && d < 1.0) {
                return Err(ConfigError::InvalidDecay(d));
            }
        }
        if let Some(d) = self.config.clause_decay {
            if !(d > 0.0 && d < 1.0) {
                return Err(ConfigError::InvalidClauseDecay(d));
            }
        }
        match self.config.restart {
            RestartSchedule::Luby { base: 0 } => Err(ConfigError::InvalidLubyBase),
            RestartSchedule::Geometric { initial, factor }
                if initial == 0 || !factor.is_finite() || factor <= 1.0 =>
            {
                Err(ConfigError::InvalidGeometric { initial, factor })
            }
            _ => Ok(()),
        }
    }

    /// Validates and returns the configuration value.
    ///
    /// # Errors
    ///
    /// Any variant of [`ConfigError`] for out-of-range knobs; also an error
    /// if a proof sink was attached (a sink cannot live in the cloneable
    /// config — use [`SolverConfigBuilder::build_solver`] instead).
    pub fn build(self) -> Result<SolverConfig, ConfigError> {
        self.validate()?;
        if self.proof.is_some() {
            return Err(ConfigError::Parse(
                "a proof sink cannot be stored in a SolverConfig; \
                 use build_solver() to construct the solver directly"
                    .into(),
            ));
        }
        Ok(self.config)
    }

    /// Validates the configuration and constructs a [`Solver`] from it,
    /// installing the proof sink if one was attached.
    ///
    /// # Errors
    ///
    /// Same validation failures as [`SolverConfigBuilder::build`].
    pub fn build_solver(mut self) -> Result<Solver, ConfigError> {
        self.validate()?;
        let mut solver = Solver::with_config(self.config);
        if let Some(sink) = self.proof.take() {
            solver.set_proof(sink);
        }
        Ok(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_legacy_constants() {
        let c = SolverConfig::default();
        assert_eq!(c.var_decay(), 0.95);
        assert_eq!(c.cla_decay(), 0.999);
        assert_eq!(c.restart, RestartSchedule::Luby { base: 100 });
        assert_eq!(c.phase, PhasePolicy::Saved);
        assert_eq!(c.conflict_budget, None);
    }

    #[test]
    fn builder_validates_every_knob() {
        assert!(SolverConfig::builder().decay(0.9).build().is_ok());
        assert!(matches!(
            SolverConfig::builder().decay(1.0).build(),
            Err(ConfigError::InvalidDecay(_))
        ));
        assert!(matches!(
            SolverConfig::builder().decay(0.0).build(),
            Err(ConfigError::InvalidDecay(_))
        ));
        assert!(matches!(
            SolverConfig::builder().clause_decay(-0.5).build(),
            Err(ConfigError::InvalidClauseDecay(_))
        ));
        assert!(matches!(
            SolverConfig::builder()
                .restart(RestartSchedule::Luby { base: 0 })
                .build(),
            Err(ConfigError::InvalidLubyBase)
        ));
        assert!(matches!(
            SolverConfig::builder()
                .restart(RestartSchedule::Geometric {
                    initial: 0,
                    factor: 1.5
                })
                .build(),
            Err(ConfigError::InvalidGeometric { .. })
        ));
        assert!(matches!(
            SolverConfig::builder()
                .restart(RestartSchedule::Geometric {
                    initial: 100,
                    factor: 1.0
                })
                .build(),
            Err(ConfigError::InvalidGeometric { .. })
        ));
        assert!(SolverConfig::builder()
            .restart(RestartSchedule::Geometric {
                initial: 128,
                factor: 1.3
            })
            .build()
            .is_ok());
    }

    #[test]
    fn parse_round_trips_common_specs() {
        let c = SolverConfig::parse("decay=0.9,restart=luby:50,phase=random,seed=7").unwrap();
        assert_eq!(c.var_decay(), 0.9);
        assert_eq!(c.restart, RestartSchedule::Luby { base: 50 });
        assert_eq!(c.phase, PhasePolicy::Random);
        assert_eq!(c.seed, 7);

        let c = SolverConfig::parse("restart=geometric:200:1.5,budget=1000").unwrap();
        assert_eq!(
            c.restart,
            RestartSchedule::Geometric {
                initial: 200,
                factor: 1.5
            }
        );
        assert_eq!(c.conflict_budget, Some(1000));

        let c = SolverConfig::parse("preprocess=true,seed=3").unwrap();
        assert!(c.preprocess);
        assert!(c.describe().contains("preprocess=on"), "{}", c.describe());
        let c = SolverConfig::parse("preprocess=off").unwrap();
        assert!(!c.preprocess);
        assert!(!c.describe().contains("preprocess"), "{}", c.describe());

        // Bare schedule names pick their documented defaults.
        let c = SolverConfig::parse("restart=geometric").unwrap();
        assert!(matches!(c.restart, RestartSchedule::Geometric { .. }));
        let c = SolverConfig::parse("restart=luby").unwrap();
        assert_eq!(c.restart, RestartSchedule::Luby { base: 100 });
        // Empty spec is the default config.
        assert_eq!(SolverConfig::parse("").unwrap().var_decay(), 0.95);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "decay",
            "decay=x",
            "decay=1.5",
            "restart=fib",
            "restart=luby:0",
            "restart=luby:100:9",
            "phase=sticky",
            "seed=-1",
            "budget=abc",
            "preprocess=maybe",
            "unknown=1",
        ] {
            assert!(SolverConfig::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn restart_limits_follow_their_schedules() {
        let luby = RestartSchedule::Luby { base: 100 };
        assert_eq!(luby.limit(0), 100);
        assert_eq!(luby.limit(2), 200);
        assert_eq!(luby.limit(6), 400);
        let geo = RestartSchedule::Geometric {
            initial: 100,
            factor: 2.0,
        };
        assert_eq!(geo.limit(0), 100);
        assert_eq!(geo.limit(1), 200);
        assert_eq!(geo.limit(3), 800);
        // Huge indices saturate instead of wrapping.
        assert_eq!(geo.limit(10_000), u64::MAX);
    }

    #[test]
    fn describe_is_stable_and_parseable_by_eye() {
        let c = SolverConfig::parse("decay=0.9,restart=geometric:128:1.3,phase=random").unwrap();
        let d = c.describe();
        assert!(d.contains("decay=0.9"), "{d}");
        assert!(d.contains("geometric:128:1.3"), "{d}");
        assert!(d.contains("phase=random"), "{d}");
    }

    #[test]
    fn xorshift_streams_differ_by_seed_and_are_deterministic() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let mut a2 = XorShift64::new(1);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sa2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(sa, sa2);
        assert_ne!(sa, sb);
        // Polarity stream is not constant.
        let mut r = XorShift64::new(42);
        let bools: Vec<bool> = (0..64).map(|_| r.next_bool()).collect();
        assert!(bools.iter().any(|&x| x) && bools.iter().any(|&x| !x));
    }
}
