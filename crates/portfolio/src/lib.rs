//! # qca-portfolio
//!
//! ManySAT-style racing solver portfolios for the adaptation pipeline: when
//! a job blows through its conflict threshold on one configuration, 2–4
//! *diverse* [`SolverConfig`] presets (VSIDS decay, restart schedule, phase
//! policy, seed jitter) race on the exported formula. The first member to
//! reach a definitive SAT/UNSAT answer wins and cancels the rest through
//! the solver's cooperative stop flags; while racing, members exchange
//! short learnt clauses through a bounded lock-light
//! [`ClauseExchange`] with per-member LBD/length
//! import caps.
//!
//! Soundness: every member solves a clause-for-clause identical CNF (same
//! variable numbering, exported with
//! [`Solver::export_formula`](qca_sat::Solver::export_formula)), and every
//! shared clause is a learnt consequence of that CNF, so the race can only
//! change *how fast* an answer arrives — never which answer, and a winning
//! model maps back to the exporting solver verbatim.
//!
//! # Examples
//!
//! ```
//! use qca_portfolio::{presets, race, RaceOptions};
//! use qca_sat::{dimacs::Cnf, SolveOutcome, Solver, Var};
//!
//! // (x | y) & !x  =>  y: every member agrees.
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause(&[x.positive(), y.positive()]);
//! s.add_clause(&[x.negative()]);
//! let cnf = s.export_formula();
//! let result = race(&cnf, &[], &presets(3, 0), &RaceOptions::default());
//! assert_eq!(result.outcome, SolveOutcome::Sat);
//! assert_eq!(result.model.unwrap()[y.index()], Some(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use qca_sat::analyze::{preprocess, PreprocessOptions, Reconstruction};
use qca_sat::dimacs::Cnf;
use qca_sat::{
    ClauseExchange, ExchangeHandle, ImportFilter, Lit, PhasePolicy, RestartSchedule, SolveOutcome,
    Solver, SolverConfig, SolverStats,
};
use qca_trace::Tracer;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning for one [`race`].
#[derive(Debug, Clone, Default)]
pub struct RaceOptions {
    /// Maximum member threads actually raced (0 = race every config). A
    /// caller with limited spare workers truncates the portfolio here.
    pub max_threads: usize,
    /// Clause-exchange ring capacity (0 = default 256).
    pub exchange_capacity: usize,
    /// Per-member import/export caps for shared clauses.
    pub import: ImportFilter,
    /// Caller-side cancellation: when this flag trips, the whole race is
    /// cancelled and reports [`SolveOutcome::Unknown`].
    pub stop: Option<Arc<AtomicBool>>,
    /// Receives `portfolio.*` counters and the `portfolio.race` span.
    pub tracer: Tracer,
    /// Run the proof-logging preprocessor (`qca_sat::analyze`) once up
    /// front and race every member on the simplified formula. Assumption
    /// variables are frozen so incremental semantics survive, the winning
    /// model is extended back to the original variables, and
    /// `sat.pre.*` counters land on [`RaceOptions::tracer`]. Soundness is
    /// unchanged: the simplified formula is equisatisfiable under the
    /// frozen assumptions.
    pub preprocess: bool,
}

/// Per-member outcome of a race.
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// The member's config, summarised with [`SolverConfig::describe`].
    pub label: String,
    /// The member's own verdict (losers cancelled mid-flight report
    /// [`SolveOutcome::Unknown`]).
    pub outcome: SolveOutcome,
    /// The member's solver statistics.
    pub stats: SolverStats,
    /// Clauses this member published to the exchange.
    pub exported: u64,
    /// Clauses this member imported from the exchange.
    pub imported: u64,
}

/// Result of a [`race`].
#[derive(Debug, Clone)]
pub struct RaceResult {
    /// The first definitive answer, or [`SolveOutcome::Unknown`] if no
    /// member finished (all cancelled or budget-exhausted).
    pub outcome: SolveOutcome,
    /// Index (into the config slice) of the winning member.
    pub winner: Option<usize>,
    /// The winning model on SAT, indexed by variable: `model[v]` is the
    /// value of variable `v` in the exported numbering.
    pub model: Option<Vec<Option<bool>>>,
    /// Per-member reports, in config order.
    pub members: Vec<MemberReport>,
}

/// Builds `n` diverse solver configurations (clamped to 2..=4 presets plus
/// repetition with seed jitter beyond that). Member 0 is always the default
/// configuration, so a portfolio is never worse-diversified than the
/// single-config solver it escalated from; the rest vary VSIDS decay,
/// restart schedule (luby vs geometric), and phase policy, with per-member
/// seed jitter derived from `seed`.
pub fn presets(n: usize, seed: u64) -> Vec<SolverConfig> {
    let blueprints = [
        // The incumbent: default decay, luby restarts, saved phases.
        SolverConfig::default(),
        // Aggressive: fast decay, short geometric restarts, random phases.
        SolverConfig {
            decay: Some(0.85),
            restart: RestartSchedule::Geometric {
                initial: 128,
                factor: 1.3,
            },
            phase: PhasePolicy::Random,
            ..SolverConfig::default()
        },
        // Conservative: slow decay, long luby base, positive phases.
        SolverConfig {
            decay: Some(0.99),
            restart: RestartSchedule::Luby { base: 256 },
            phase: PhasePolicy::Positive,
            ..SolverConfig::default()
        },
        // Contrarian: default decay, geometric restarts, negative phases.
        SolverConfig {
            restart: RestartSchedule::Geometric {
                initial: 100,
                factor: 1.5,
            },
            phase: PhasePolicy::Negative,
            ..SolverConfig::default()
        },
    ];
    (0..n.max(1))
        .map(|i| SolverConfig {
            seed: seed ^ (0x9e37_79b9 * (i as u64 + 1)),
            ..blueprints[i % blueprints.len()].clone()
        })
        .collect()
}

/// Races the given configurations on one CNF under shared `assumptions`.
///
/// Each member gets its own solver over the same variable numbering, wired
/// to a shared [`ClauseExchange`]; the first SAT/UNSAT verdict wins, trips
/// every member's stop flag, and is returned with the winner's model (on
/// SAT). If every member returns `Unknown` (cancelled from outside or
/// budget-exhausted), the race reports `Unknown`.
///
/// Emits `portfolio.races`, `portfolio.wins`, `portfolio.exported`, and
/// `portfolio.imported` counters plus a `portfolio.race` span on
/// [`RaceOptions::tracer`].
///
/// # Panics
///
/// Panics when `configs` is empty: a zero-member race can only ever
/// report [`SolveOutcome::Unknown`], which silently masks a caller bug.
pub fn race(
    cnf: &Cnf,
    assumptions: &[Lit],
    configs: &[SolverConfig],
    opts: &RaceOptions,
) -> RaceResult {
    assert!(
        !configs.is_empty(),
        "race() needs at least one SolverConfig (use presets(n, seed) to build a field)"
    );
    let n = match opts.max_threads {
        0 => configs.len(),
        t => configs.len().min(t),
    };
    let tracer = opts.tracer.clone();
    tracer.counter("portfolio.races", 1);
    let mut reconstruction: Option<Reconstruction> = None;
    let simplified: Cnf;
    let cnf = if opts.preprocess {
        let pre_opts = PreprocessOptions {
            frozen: assumptions.iter().map(|l| l.var()).collect(),
            ..PreprocessOptions::default()
        };
        let result = preprocess(cnf, &pre_opts, None);
        result.stats.emit(&tracer);
        reconstruction = Some(result.reconstruction);
        simplified = result.cnf;
        &simplified
    } else {
        cnf
    };
    let mut span = tracer.clone().span_with("portfolio.race", || {
        format!("members={n} clauses={}", cnf.clauses.len())
    });

    let exchange = ClauseExchange::new(if opts.exchange_capacity == 0 {
        256
    } else {
        opts.exchange_capacity
    });
    /// The winning verdict and (on SAT) its model, claimed exactly once.
    type WinnerSlot = Mutex<Option<(SolveOutcome, Option<Vec<Option<bool>>>)>>;
    let race_stop = Arc::new(AtomicBool::new(false));
    // usize::MAX = no winner yet; first CAS claims the race.
    let winner = Arc::new(AtomicUsize::new(usize::MAX));
    let outcome_slot: WinnerSlot = Mutex::new(None);
    let reports: Mutex<Vec<(usize, MemberReport)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, config) in configs.iter().take(n).enumerate() {
            let mut member_config = config.clone();
            member_config.control.stop = Some(race_stop.clone());
            member_config.control.tracer = Tracer::disabled();
            let exchange = exchange.clone();
            let race_stop = race_stop.clone();
            let winner = winner.clone();
            let outcome_slot = &outcome_slot;
            let reports = &reports;
            let import = opts.import;
            handles.push(scope.spawn(move || {
                let label = member_config.describe();
                let mut solver = Solver::with_config(member_config);
                while solver.num_vars() < cnf.num_vars {
                    solver.new_var();
                }
                let mut loaded = true;
                for clause in &cnf.clauses {
                    if !solver.add_clause(clause) {
                        loaded = false;
                        break;
                    }
                }
                solver.set_exchange(ExchangeHandle::new(exchange, i, import));
                let outcome = if loaded {
                    solver.solve_limited(assumptions)
                } else {
                    SolveOutcome::Unsat
                };
                if outcome != SolveOutcome::Unknown
                    && winner
                        .compare_exchange(usize::MAX, i, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    let model = (outcome == SolveOutcome::Sat).then(|| {
                        (0..cnf.num_vars)
                            .map(|v| solver.value(qca_sat::Var::from_index(v)))
                            .collect()
                    });
                    *outcome_slot.lock().unwrap() = Some((outcome, model));
                    race_stop.store(true, Ordering::Relaxed);
                }
                let handle = solver.take_exchange().expect("exchange installed above");
                reports.lock().unwrap().push((
                    i,
                    MemberReport {
                        label,
                        outcome,
                        stats: solver.stats().clone(),
                        exported: handle.exported(),
                        imported: handle.imported(),
                    },
                ));
            }));
        }
        // Relay caller-side cancellation into the race while members run.
        if let Some(caller_stop) = &opts.stop {
            while handles.iter().any(|h| !h.is_finished()) {
                if caller_stop.load(Ordering::Relaxed) {
                    race_stop.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
    });

    let mut members: Vec<(usize, MemberReport)> = reports.into_inner().unwrap();
    members.sort_by_key(|(i, _)| *i);
    let members: Vec<MemberReport> = members.into_iter().map(|(_, r)| r).collect();
    let (outcome, mut model) = outcome_slot
        .into_inner()
        .unwrap()
        .unwrap_or((SolveOutcome::Unknown, None));
    if let (Some(recon), Some(m)) = (&reconstruction, model.as_mut()) {
        recon.extend(m);
    }
    let winner = match winner.load(Ordering::Acquire) {
        usize::MAX => None,
        w => Some(w),
    };
    for m in &members {
        tracer.counter("portfolio.exported", m.exported);
        tracer.counter("portfolio.imported", m.imported);
    }
    if let Some(w) = winner {
        tracer.counter("portfolio.wins", 1);
        span.set_note(format!(
            "winner={w} ({}) outcome={:?}",
            members[w].label, outcome
        ));
    } else {
        span.set_note("no definitive member");
    }
    RaceResult {
        outcome,
        winner,
        model,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_sat::Var;

    fn pigeonhole(n: usize, m: usize) -> Cnf {
        let mut s = Solver::new();
        let vs: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &vs {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                for (a, b) in vs[i1].iter().zip(&vs[i2]) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        s.export_formula()
    }

    #[test]
    fn presets_are_diverse_and_member_zero_is_default() {
        let ps = presets(4, 42);
        assert_eq!(ps.len(), 4);
        // Member 0 keeps the default knobs (only the seed is jittered).
        assert_eq!(ps[0].decay, None);
        assert_eq!(ps[0].phase, PhasePolicy::Saved);
        let labels: std::collections::HashSet<String> = ps.iter().map(|p| p.describe()).collect();
        assert_eq!(labels.len(), 4, "presets not diverse: {labels:?}");
        // Beyond 4 members, presets repeat with different seeds.
        let ps = presets(6, 1);
        assert_eq!(ps.len(), 6);
        assert_ne!(ps[0].seed, ps[4].seed);
    }

    #[test]
    fn race_refutes_pigeonhole_like_single_config() {
        let cnf = pigeonhole(7, 6);
        let result = race(&cnf, &[], &presets(3, 0), &RaceOptions::default());
        assert_eq!(result.outcome, SolveOutcome::Unsat);
        assert!(result.winner.is_some());
        assert_eq!(result.members.len(), 3);
    }

    #[test]
    fn race_finds_models_that_satisfy_the_cnf() {
        // Chain implications: any model must satisfy every clause.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..50).map(|_| s.new_var()).collect();
        for i in 0..49 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        s.add_clause(&[v[0].positive(), v[25].positive()]);
        let cnf = s.export_formula();
        let result = race(&cnf, &[], &presets(4, 9), &RaceOptions::default());
        assert_eq!(result.outcome, SolveOutcome::Sat);
        let model = result.model.unwrap();
        for clause in &cnf.clauses {
            assert!(
                clause.iter().any(|&l| {
                    model[l.var().index()]
                        .map(|b| b == l.is_positive())
                        .unwrap_or(false)
                }),
                "winning model violates {clause:?}"
            );
        }
    }

    #[test]
    fn race_respects_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]); // a -> b
        let cnf = s.export_formula();
        let sat = race(
            &cnf,
            &[a.positive()],
            &presets(2, 0),
            &RaceOptions::default(),
        );
        assert_eq!(sat.outcome, SolveOutcome::Sat);
        assert_eq!(sat.model.unwrap()[b.index()], Some(true));
        let unsat = race(
            &cnf,
            &[a.positive(), b.negative()],
            &presets(2, 0),
            &RaceOptions::default(),
        );
        assert_eq!(unsat.outcome, SolveOutcome::Unsat);
    }

    #[test]
    fn pre_tripped_caller_stop_reports_unknown() {
        let cnf = pigeonhole(9, 8);
        let stop = Arc::new(AtomicBool::new(true));
        // Members poll the caller flag through the relay; give them a tiny
        // budget so even the relay latency cannot let one finish first.
        let mut configs = presets(2, 0);
        for c in &mut configs {
            c.conflict_budget = Some(1);
        }
        let result = race(
            &cnf,
            &[],
            &configs,
            &RaceOptions {
                stop: Some(stop),
                ..RaceOptions::default()
            },
        );
        assert_eq!(result.outcome, SolveOutcome::Unknown);
        assert!(result.winner.is_none());
    }

    #[test]
    fn max_threads_truncates_the_field() {
        let cnf = pigeonhole(6, 5);
        let result = race(
            &cnf,
            &[],
            &presets(4, 0),
            &RaceOptions {
                max_threads: 2,
                ..RaceOptions::default()
            },
        );
        assert_eq!(result.outcome, SolveOutcome::Unsat);
        assert_eq!(result.members.len(), 2);
    }

    #[test]
    #[should_panic(expected = "race() needs at least one SolverConfig")]
    fn zero_member_race_is_rejected() {
        let cnf = pigeonhole(3, 2);
        race(&cnf, &[], &[], &RaceOptions::default());
    }

    #[test]
    fn preprocessed_race_agrees_and_extends_the_model() {
        // UNSAT: pigeonhole refutes identically with preprocessing on.
        let cnf = pigeonhole(6, 5);
        let opts = RaceOptions {
            preprocess: true,
            ..RaceOptions::default()
        };
        let result = race(&cnf, &[], &presets(3, 0), &opts);
        assert_eq!(result.outcome, SolveOutcome::Unsat);

        // SAT: a chain with pure literals and a definition BVE can
        // eliminate; the winning model must still satisfy the ORIGINAL.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        for i in 0..19 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        s.add_clause(&[v[0].positive()]);
        let cnf = s.export_formula();
        let result = race(&cnf, &[], &presets(2, 7), &opts);
        assert_eq!(result.outcome, SolveOutcome::Sat);
        let model = result.model.unwrap();
        for clause in &cnf.clauses {
            assert!(
                clause.iter().any(|&l| {
                    model[l.var().index()]
                        .map(|b| b == l.is_positive())
                        .unwrap_or(false)
                }),
                "extended model violates {clause:?}"
            );
        }
    }

    #[test]
    fn preprocessed_race_respects_frozen_assumptions() {
        // b is pure (only positive) but assumed negative: freezing must
        // keep the assumption meaningful.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]); // a -> b
        let cnf = s.export_formula();
        let opts = RaceOptions {
            preprocess: true,
            ..RaceOptions::default()
        };
        let unsat = race(&cnf, &[a.positive(), b.negative()], &presets(2, 0), &opts);
        assert_eq!(unsat.outcome, SolveOutcome::Unsat);
        let sat = race(&cnf, &[a.positive()], &presets(2, 0), &opts);
        assert_eq!(sat.outcome, SolveOutcome::Sat);
        assert_eq!(sat.model.unwrap()[b.index()], Some(true));
    }

    #[test]
    fn preprocessed_race_emits_pre_counters() {
        use qca_trace::{TraceEvent, Tracer};
        let (tracer, sink) = Tracer::to_memory();
        // A unit clause guarantees sat.pre.units > 0.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive()]);
        s.add_clause(&[a.negative(), b.positive()]);
        let cnf = s.export_formula();
        let result = race(
            &cnf,
            &[],
            &presets(2, 0),
            &RaceOptions {
                preprocess: true,
                tracer,
                ..RaceOptions::default()
            },
        );
        assert_eq!(result.outcome, SolveOutcome::Sat);
        let events = sink.take();
        let units: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Counter { name, value, .. } if name.as_ref() == "sat.pre.units" => {
                    Some(*value)
                }
                _ => None,
            })
            .sum();
        assert!(units >= 1, "expected sat.pre.units >= 1");
    }

    #[test]
    fn race_emits_portfolio_counters() {
        use qca_trace::{TraceEvent, Tracer};
        let (tracer, sink) = Tracer::to_memory();
        let cnf = pigeonhole(7, 6);
        let result = race(
            &cnf,
            &[],
            &presets(3, 0),
            &RaceOptions {
                tracer,
                ..RaceOptions::default()
            },
        );
        assert_eq!(result.outcome, SolveOutcome::Unsat);
        let events = sink.take();
        let count = |name: &str| {
            events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Counter { name: n, value, .. } if n.as_ref() == name => {
                        Some(*value)
                    }
                    _ => None,
                })
                .sum::<u64>()
        };
        assert_eq!(count("portfolio.races"), 1);
        assert_eq!(count("portfolio.wins"), 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::SpanEnter { name, .. } if name == "portfolio.race")));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_cnf(
            max_vars: usize,
            max_clauses: usize,
        ) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
            (2..=max_vars).prop_flat_map(move |n| {
                let clause = proptest::collection::vec(
                    (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
                    1..=3,
                );
                (Just(n), proptest::collection::vec(clause, 1..=max_clauses))
            })
        }

        fn to_cnf(n: usize, clauses: &[Vec<i32>]) -> Cnf {
            Cnf {
                num_vars: n,
                clauses: clauses
                    .iter()
                    .map(|c| {
                        c.iter()
                            .map(|&d| Var::from_index((d.unsigned_abs() - 1) as usize).lit(d > 0))
                            .collect()
                    })
                    .collect(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Racing N members returns exactly the single-config answer.
            #[test]
            fn race_agrees_with_single_config((n, clauses) in arb_cnf(10, 40)) {
                let cnf = to_cnf(n, &clauses);
                let mut single = Solver::new();
                for _ in 0..n {
                    single.new_var();
                }
                let mut ok = true;
                for c in &cnf.clauses {
                    ok = single.add_clause(c);
                    if !ok {
                        break;
                    }
                }
                let expect = if ok {
                    single.solve_limited(&[])
                } else {
                    SolveOutcome::Unsat
                };
                let result = race(&cnf, &[], &presets(3, n as u64), &RaceOptions::default());
                prop_assert_eq!(result.outcome, expect);
                if let Some(model) = &result.model {
                    for clause in &cnf.clauses {
                        prop_assert!(clause.iter().any(|&l| {
                            model[l.var().index()].map(|b| b == l.is_positive()).unwrap_or(false)
                        }));
                    }
                }
            }
        }
    }
}
