//! Solver configuration: one plain struct for every tunable knob.
//!
//! [`SolverConfig`] is a single value describing how a [`Solver`]
//! searches: VSIDS decay, restart schedule, phase
//! policy, random seed, per-call conflict budget, and the caller-side run
//! controls ([`SolveControl`]). A config is `Clone`, so a *portfolio* of
//! diverse solvers is just a `Vec<SolverConfig>`; parsing the same knobs
//! from a `decay=0.95,restart=luby` string keeps CLI presets reproducible.

use crate::solver::SolveControl;
#[cfg(doc)]
use crate::solver::Solver;

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

/// A cloneable description of how a [`Solver`] searches.
///
/// Built as a struct literal over `..SolverConfig::default()` or parsed
/// from a `key=value,...` string with [`SolverConfig::parse`]; consumed by
/// [`Solver::with_config`], which checks it with
/// [`SolverConfig::validate`]. Because the config is `Clone`, a racing
/// portfolio is simply a `Vec<SolverConfig>` of presets.
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
    /// Caller-side run controls: lifetime conflict cap, cooperative stop
    /// flag, tracer.
    pub control: SolveControl,
}

impl SolverConfig {
    /// Checks every knob: both decays in (0, 1), a Luby base ≥ 1, and a
    /// geometric schedule with `initial` ≥ 1 and a finite `factor` > 1.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] variant naming the first out-of-range knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(d) = self.decay {
            if !(d > 0.0 && d < 1.0) {
                return Err(ConfigError::InvalidDecay(d));
            }
        }
        if let Some(d) = self.clause_decay {
            if !(d > 0.0 && d < 1.0) {
                return Err(ConfigError::InvalidClauseDecay(d));
            }
        }
        match self.restart {
            RestartSchedule::Luby { base: 0 } => Err(ConfigError::InvalidLubyBase),
            RestartSchedule::Geometric { initial, factor }
                if initial == 0 || !factor.is_finite() || factor <= 1.0 =>
            {
                Err(ConfigError::InvalidGeometric { initial, factor })
            }
            _ => Ok(()),
        }
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
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unknown keys, malformed values, or values
    /// that fail [`SolverConfig::validate`].
    pub fn parse(spec: &str) -> Result<SolverConfig, ConfigError> {
        let mut c = SolverConfig::default();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| ConfigError::Parse(format!("expected key=value, got `{item}`")))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| ConfigError::Parse(format!("invalid {what}: `{value}`"));
            match key {
                "decay" => c.decay = Some(value.parse().map_err(|_| bad("decay"))?),
                "clause_decay" => {
                    c.clause_decay = Some(value.parse().map_err(|_| bad("clause_decay"))?)
                }
                "restart" => {
                    let mut parts = value.split(':');
                    let kind = parts.next().unwrap_or("");
                    c.restart = match kind {
                        "luby" => {
                            let base = match parts.next() {
                                Some(s) => s.parse().map_err(|_| bad("luby base"))?,
                                None => 100,
                            };
                            RestartSchedule::Luby { base }
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
                            RestartSchedule::Geometric { initial, factor }
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
                    c.phase = match value {
                        "saved" => PhasePolicy::Saved,
                        "positive" => PhasePolicy::Positive,
                        "negative" => PhasePolicy::Negative,
                        "random" => PhasePolicy::Random,
                        other => {
                            return Err(ConfigError::Parse(format!(
                                "unknown phase policy `{other}`"
                            )))
                        }
                    }
                }
                "seed" => c.seed = value.parse().map_err(|_| bad("seed"))?,
                "budget" => c.conflict_budget = Some(value.parse().map_err(|_| bad("budget"))?),
                other => return Err(ConfigError::Parse(format!("unknown config key `{other}`"))),
            }
        }
        c.validate()?;
        Ok(c)
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
        format!(
            "decay={} restart={restart} phase={phase} seed={}",
            self.var_decay(),
            self.seed
        )
    }
}

/// Validation or parse failure from [`SolverConfig::validate`] /
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
    fn validate_checks_every_knob() {
        let geometric = |initial, factor| RestartSchedule::Geometric { initial, factor };
        let ok = [
            SolverConfig::default(),
            SolverConfig {
                decay: Some(0.9),
                ..SolverConfig::default()
            },
            SolverConfig {
                restart: geometric(128, 1.3),
                ..SolverConfig::default()
            },
        ];
        for c in ok {
            assert!(c.validate().is_ok(), "rejected {c:?}");
        }
        let rejected = [
            SolverConfig {
                decay: Some(1.0),
                ..SolverConfig::default()
            },
            SolverConfig {
                decay: Some(0.0),
                ..SolverConfig::default()
            },
            SolverConfig {
                clause_decay: Some(-0.5),
                ..SolverConfig::default()
            },
            SolverConfig {
                restart: RestartSchedule::Luby { base: 0 },
                ..SolverConfig::default()
            },
            SolverConfig {
                restart: geometric(0, 1.5),
                ..SolverConfig::default()
            },
            SolverConfig {
                restart: geometric(100, 1.0),
                ..SolverConfig::default()
            },
        ];
        let errors: Vec<ConfigError> = rejected
            .iter()
            .map(|c| c.validate().expect_err("accepted an out-of-range knob"))
            .collect();
        assert!(matches!(
            errors[..],
            [
                ConfigError::InvalidDecay(_),
                ConfigError::InvalidDecay(_),
                ConfigError::InvalidClauseDecay(_),
                ConfigError::InvalidLubyBase,
                ConfigError::InvalidGeometric { .. },
                ConfigError::InvalidGeometric { .. },
            ]
        ));
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
