//! Optimization modulo theories: maximizing a linear objective.
//!
//! One solution-improving loop probes `objective >= bound` under an
//! assumption literal until the next better level is refuted; the
//! [`Strategy`] only picks the next bound (the `ablation` binary's first
//! table compares the two):
//!
//! * [`Strategy::BinarySearch`] — bisect the open bracket `(best, hi]`,
//! * [`Strategy::LinearSearch`] — probe `best + 1`.
//!
//! Both are complete on the bounded integer objectives produced by
//! [`crate::SmtSolver`].

use crate::solver::{IntExpr, SmtModel, SmtSolver};
use qca_sat::dimacs::Cnf;
use qca_sat::{MemoryProof, ProofStep, SolveOutcome, Solver};

/// Search strategy for [`maximize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Bisection on the objective value range (default).
    #[default]
    BinarySearch,
    /// One-step-at-a-time improvement.
    LinearSearch,
}

/// Result of a successful maximization.
#[derive(Debug, Clone)]
pub struct Optimum {
    /// The maximal objective value (best found; maximal when `optimal`).
    pub value: i64,
    /// A model attaining it.
    pub model: SmtModel,
    /// Number of SAT queries issued during the search.
    pub queries: u64,
    /// `true` when optimality was proven; `false` when a probe exhausted the
    /// conflict budget — or the early-termination gap fired — and the search
    /// settled for the best value found.
    pub optimal: bool,
    /// Independently checkable proof of optimality; present only when
    /// [`OmtOptions::certify`] is set, the solver has recording enabled, and
    /// `optimal` is `true`. Absence with `optimal == true` means
    /// certification was not requested (or the objective already sat at its
    /// structural upper bound beyond `i64` range).
    pub certificate: Option<OptimalityCertificate>,
}

/// An UNSAT certificate for the claim `objective <= refuted_bound - 1`:
/// the solver's shadow formula plus the unit clause `objective >=
/// refuted_bound`, together with a DRAT proof of its unsatisfiability built
/// by a *fresh* solver instance. `qca-verify`'s independent RUP checker
/// validates `steps` against `cnf` without trusting either solver.
#[derive(Debug, Clone)]
pub struct OptimalityCertificate {
    /// The formula refuted: shadow CNF + `objective >= refuted_bound` unit.
    pub cnf: Cnf,
    /// DRAT proof steps ending in the empty clause.
    pub steps: Vec<ProofStep>,
    /// The bound proven unreachable (`Optimum::value + 1`).
    pub refuted_bound: i64,
}

/// Portfolio escalation for budget-exhausted probes; see
/// [`OmtOptions::portfolio`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortfolioProbe {
    /// Number of diverse members raced (from [`qca_portfolio::presets`]).
    pub members: usize,
    /// Thread cap for the race (0 = one thread per member).
    pub threads: usize,
    /// Base seed for per-member jitter.
    pub seed: u64,
    /// Preprocess the exported formula once before racing
    /// ([`qca_portfolio::RaceOptions::preprocess`]). The probe literal is
    /// frozen, so the assumption stays meaningful; the winning model is
    /// extended back to the exported numbering. Certificates are
    /// unaffected: `certify` re-refutes the *recorded* shadow CNF with a
    /// fresh solver, never the simplified race input.
    pub preprocess: bool,
}

impl Default for PortfolioProbe {
    fn default() -> Self {
        PortfolioProbe {
            members: 3,
            threads: 0,
            seed: 0,
            preprocess: false,
        }
    }
}

/// Tuning knobs for [`maximize_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OmtOptions {
    /// Maximum SAT conflicts per bound probe; `None` for unlimited (exact).
    /// When a probe exhausts its budget it is treated as a failed probe, so
    /// the result may be suboptimal (`Optimum::optimal` reports this).
    pub probe_conflict_budget: Option<u64>,
    /// Escalate budget-exhausted probes to a racing solver portfolio
    /// ([`qca_portfolio::race`]) over the exported formula before giving up
    /// on that part of the bracket. `None` (the default) keeps the
    /// single-config behavior. Escalation is skipped when the caller's stop
    /// flag has tripped or the lifetime conflict cap is exhausted; otherwise
    /// each member may spend what is left of that cap.
    pub portfolio: Option<PortfolioProbe>,
    /// Early-termination gap: the binary search stops once the remaining
    /// bracket is below `relative_gap * max(1, |best|)`. Zero (the default)
    /// searches to exact optimality. A gap-stop reports
    /// `Optimum::optimal == false` — the bracket may still contain a better
    /// value.
    pub relative_gap: f64,
    /// Build an [`OptimalityCertificate`] for proven-optimal results.
    /// Requires [`SmtSolver::enable_recording`]; silently skipped otherwise.
    /// If the certification re-solve *fails* to refute the bound (a
    /// soundness bug somewhere in the stack), the result is conservatively
    /// downgraded to `optimal == false`.
    pub certify: bool,
}

/// Maximizes `objective` subject to the solver's constraints.
///
/// Returns `None` when the constraints are unsatisfiable. The solver is left
/// with additional (sound) bound clauses; further clauses may still be added
/// afterwards.
///
/// # Examples
///
/// ```
/// use qca_smt::{SmtSolver, omt};
///
/// let mut smt = SmtSolver::new();
/// let a = smt.new_bool();
/// let b = smt.new_bool();
/// smt.add_clause(&[!a, !b]); // can't have both
/// let obj = smt.pb_sum(0, &[(5, a), (3, b)]);
/// let best = omt::maximize(&mut smt, &obj, omt::Strategy::BinarySearch)
///     .expect("satisfiable");
/// assert_eq!(best.value, 5);
/// ```
pub fn maximize(smt: &mut SmtSolver, objective: &IntExpr, strategy: Strategy) -> Option<Optimum> {
    maximize_with(smt, objective, strategy, OmtOptions::default(), &[])
}

/// [`maximize`] with explicit tuning options and an optional warm-start
/// `hint`: assumption literals describing a known-feasible assignment of the
/// decision variables. The first model is found under the hint (usually by
/// pure propagation), then the hint is dropped for the improving search.
pub fn maximize_with(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    strategy: Strategy,
    options: OmtOptions,
    hint: &[qca_sat::Lit],
) -> Option<Optimum> {
    let tracer = smt.tracer().clone();
    let mut span = tracer.span_with("omt.search", || format!("{strategy:?}"));
    let mut result = improve(smt, objective, strategy, options, hint);
    if let Some(opt) = result.as_mut() {
        if opt.optimal && options.certify && smt.recording_enabled() {
            if let Some(bound) = opt.value.checked_add(1) {
                opt.certificate = certify_bound(smt, objective, bound);
                if opt.certificate.is_none() {
                    // The re-solve failed to refute `objective >= best + 1`:
                    // something in the stack is unsound. Don't claim a proof
                    // we don't have.
                    opt.optimal = false;
                }
            }
        }
    }
    match &result {
        Some(opt) => {
            tracer.counter("omt.queries", opt.queries);
            tracer.gauge("omt.best", opt.value);
            span.set_note(if opt.optimal { "optimal" } else { "bounded" });
        }
        None => span.set_note("infeasible"),
    }
    result
}

/// Re-proves `objective >= refuted_bound` unsatisfiable on a fresh solver
/// with DRAT logging enabled, over the shadow formula recorded so far.
///
/// The reified comparator is created on the *main* solver first so that its
/// definitional clauses (and any fresh variables) land in the shadow
/// formula; the fresh solver then receives the shadow CNF plus the unit
/// clause asserting the comparator. Returns `None` when recording is off or
/// the fresh solve does not come back UNSAT.
fn certify_bound(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    refuted_bound: i64,
) -> Option<OptimalityCertificate> {
    let tracer = smt.tracer().clone();
    let mut span = tracer.span_with("omt.certify", || format!("bound={refuted_bound}"));
    let bound = smt.int_const(refuted_bound);
    let ge = smt.ge_reified(objective, &bound);
    let mut cnf = smt.recorded_cnf()?;
    cnf.clauses.push(vec![ge]);
    let proof = MemoryProof::new();
    let mut solver = Solver::new();
    solver.set_proof(Box::new(proof.clone()));
    while solver.num_vars() < cnf.num_vars {
        solver.new_var();
    }
    for clause in &cnf.clauses {
        if !solver.add_clause(clause) {
            break;
        }
    }
    let outcome = solver.solve_limited(&[]);
    if outcome != SolveOutcome::Unsat {
        span.set_note("not_refuted");
        return None;
    }
    span.set_note("refuted");
    Some(OptimalityCertificate {
        cnf,
        steps: proof.steps(),
        refuted_bound,
    })
}

/// Verdict of one bound probe `objective >= bound`.
enum Probe {
    /// A model attaining the bound.
    Sat(SmtModel),
    /// The bound is unreachable.
    Unsat,
    /// The probe budget (or the search's cap or stop flag) ran out first.
    Unknown,
}

/// Probes `objective >= bound` under an assumption literal with the
/// per-probe conflict budget, escalating an unknown verdict to a racing
/// portfolio. A refuted bound is kept as the derived clause `!ge`, so later
/// probes prune with it; derived, not an axiom, it stays out of the shadow
/// formula certificates are stated over.
fn probe(smt: &mut SmtSolver, objective: &IntExpr, bound: i64, options: OmtOptions) -> Probe {
    let bound_expr = smt.int_const(bound);
    let ge = smt.ge_reified(objective, &bound_expr);
    smt.sat_mut()
        .set_conflict_budget(options.probe_conflict_budget);
    let mut span = smt
        .tracer()
        .clone()
        .span_with("omt.probe", || format!("bound={bound}"));
    let (verdict, note) = match smt.sat.solve_limited(&[ge]) {
        SolveOutcome::Sat => (Probe::Sat(smt.snapshot()), "sat"),
        SolveOutcome::Unsat => (Probe::Unsat, "unsat"),
        _ => (Probe::Unknown, "unknown"),
    };
    smt.sat_mut().set_conflict_budget(None);
    span.set_note(note);
    drop(span);
    let verdict = match verdict {
        Probe::Unknown => escalate_probe(smt, ge, options),
        settled => settled,
    };
    if let Probe::Unsat = verdict {
        smt.add_clause_derived(&[!ge]);
    }
    verdict
}

/// Escalates a budget-exhausted bound probe to a racing solver portfolio:
/// the current formula (with every clause learnt so far) is exported and
/// 2–4 diverse members race it under the probe assumption `ge`, sharing
/// short learnt clauses. A definitive SAT/UNSAT verdict from the race
/// settles the probe exactly as a direct solver answer would. Each member
/// may spend what is left of the search's lifetime conflict cap, and is
/// unlimited only when the search has no cap.
fn escalate_probe(smt: &mut SmtSolver, ge: qca_sat::Lit, options: OmtOptions) -> Probe {
    let Some(probe) = options.portfolio.filter(|p| p.members >= 2) else {
        return Probe::Unknown;
    };
    let stopped = smt
        .control()
        .stop
        .as_ref()
        .is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed));
    let remaining = smt
        .control()
        .conflict_cap
        .map(|cap| cap.saturating_sub(smt.stats().conflicts));
    if stopped || remaining == Some(0) {
        return Probe::Unknown;
    }
    let tracer = smt.tracer().clone();
    tracer.counter("portfolio.escalations", 1);
    let cnf = smt.sat.export_formula();
    let mut configs = qca_portfolio::presets(probe.members, probe.seed);
    for c in &mut configs {
        c.conflict_budget = remaining;
    }
    let race_opts = qca_portfolio::RaceOptions {
        max_threads: probe.threads,
        stop: smt.control().stop.clone(),
        tracer,
        preprocess: probe.preprocess,
        ..qca_portfolio::RaceOptions::default()
    };
    let result = qca_portfolio::race(&cnf, &[ge], &configs, &race_opts);
    match (result.outcome, result.model) {
        (SolveOutcome::Sat, Some(values)) => Probe::Sat(SmtModel::from_values(values)),
        (SolveOutcome::Unsat, _) => Probe::Unsat,
        _ => Probe::Unknown,
    }
}

/// First model: try the warm-start hint (cheap propagation-only solve),
/// fall back to an unconstrained search.
fn first_model(smt: &mut SmtSolver, hint: &[qca_sat::Lit]) -> Option<SmtModel> {
    let tracer = smt.tracer().clone();
    let mut span = tracer.span("omt.first_model");
    if !hint.is_empty() {
        if let Some(m) = smt.check_with_assumptions(hint) {
            span.set_note("warm_start");
            return Some(m);
        }
    }
    let m = smt.check();
    span.set_note(if m.is_some() { "cold" } else { "infeasible" });
    m
}

/// The improving search: from the first model, probe ever better bounds
/// until the bracket `(best, hi]` closes (or, for binary search, falls
/// under the relative gap). A refuted probe lowers `hi` to `bound - 1`; so
/// does an unknown one, which also gives up the optimality claim.
fn improve(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    strategy: Strategy,
    options: OmtOptions,
    hint: &[qca_sat::Lit],
) -> Option<Optimum> {
    let mut queries = 1u64;
    let first = first_model(smt, hint)?;
    let mut best_val = first.int_value(objective);
    let mut best_model = first;
    let mut hi = objective.hi;
    let mut optimal = true;
    loop {
        let gap_limit = match strategy {
            Strategy::BinarySearch => {
                (options.relative_gap * (best_val.abs().max(1)) as f64) as i64
            }
            Strategy::LinearSearch => 0,
        };
        if best_val + gap_limit >= hi {
            if best_val < hi {
                optimal = false;
            }
            break;
        }
        let bound = match strategy {
            Strategy::BinarySearch => best_val + (hi - best_val + 1) / 2,
            Strategy::LinearSearch => best_val + 1,
        };
        queries += 1;
        match probe(smt, objective, bound, options) {
            Probe::Sat(m) => {
                best_val = m.int_value(objective);
                best_model = m;
                smt.tracer().gauge("omt.best", best_val);
            }
            Probe::Unsat => {
                hi = bound - 1;
                smt.tracer().gauge("omt.bound_hi", hi);
            }
            Probe::Unknown => {
                optimal = false;
                hi = bound - 1;
            }
        }
    }
    Some(Optimum {
        value: best_val,
        model: best_model,
        queries,
        optimal,
        certificate: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knapsack(strategy: Strategy) {
        // items: weights 3,4,5 values 4,5,6; capacity 7 -> best value 9 (3+4).
        let mut smt = SmtSolver::new();
        let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
        let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
        let cap = smt.int_const(7);
        smt.assert_ge(&cap, &weight);
        let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
        let best = maximize(&mut smt, &value, strategy).expect("sat");
        assert_eq!(best.value, 9);
        assert!(best.model.lit_is_true(x[0]));
        assert!(best.model.lit_is_true(x[1]));
        assert!(!best.model.lit_is_true(x[2]));
    }

    #[test]
    fn knapsack_binary() {
        knapsack(Strategy::BinarySearch);
    }

    #[test]
    fn knapsack_linear() {
        knapsack(Strategy::LinearSearch);
    }

    #[test]
    fn unsat_returns_none() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        smt.add_clause(&[a]);
        smt.add_clause(&[!a]);
        let obj = smt.pb_sum(0, &[(1, a)]);
        assert!(maximize(&mut smt, &obj, Strategy::BinarySearch).is_none());
    }

    #[test]
    fn constant_objective() {
        let mut smt = SmtSolver::new();
        let _ = smt.new_bool();
        let obj = smt.int_const(42);
        let best = maximize(&mut smt, &obj, Strategy::BinarySearch).expect("sat");
        assert_eq!(best.value, 42);
        assert_eq!(best.queries, 1);
    }

    #[test]
    fn negative_objective_range() {
        // All weights negative: optimum is picking nothing.
        let mut smt = SmtSolver::new();
        let terms: Vec<_> = (0..4).map(|_| smt.new_bool()).collect();
        let obj = smt.pb_sum(
            -2,
            &[
                (-5, terms[0]),
                (-1, terms[1]),
                (-7, terms[2]),
                (-3, terms[3]),
            ],
        );
        let best = maximize(&mut smt, &obj, Strategy::BinarySearch).expect("sat");
        assert_eq!(best.value, -2);
    }

    #[test]
    fn objective_with_int_vars_scheduling() {
        // Minimize a makespan: maximize(-D) where D >= e + d, d in {2, 8}.
        let mut smt = SmtSolver::new();
        let fast = smt.new_bool();
        let d = smt.pb_sum(8, &[(-6, fast)]); // 8, or 2 when `fast`
        let e = smt.new_int(0, 50);
        let dvar = smt.new_int(0, 100);
        let end = smt.add(&e, &d);
        smt.assert_ge(&dvar, &end);
        // objective = -D  ==> represent as 100 - D via pb? Use mul_const trick:
        // maximize (100 - dvar) is equivalent; encode via fresh int m with
        // m + dvar == 100 ... simpler: maximize over negated expression is not
        // directly supported, so maximize slack = cap - dvar >= 0.
        let cap = smt.int_const(100);
        let slack = smt.new_int(0, 100);
        let tot = smt.add(&slack, &dvar);
        smt.assert_eq(&tot, &cap);
        let best = maximize(&mut smt, &slack, Strategy::BinarySearch).expect("sat");
        // Best: fast chosen, e = 0, D = 2, slack = 98.
        assert_eq!(best.value, 98);
        assert!(best.model.lit_is_true(fast));
    }

    #[test]
    fn probes_are_traced_with_bounds() {
        use qca_trace::{report, TraceEvent, Tracer};
        let (tracer, sink) = Tracer::to_memory();
        let mut smt = SmtSolver::new();
        smt.set_control(qca_sat::SolveControl {
            tracer,
            ..qca_sat::SolveControl::default()
        });
        let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
        let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
        let cap = smt.int_const(7);
        smt.assert_ge(&cap, &weight);
        let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
        let best = maximize(&mut smt, &value, Strategy::BinarySearch).expect("sat");
        assert_eq!(best.value, 9);
        let events = sink.take();
        report::validate_forest(&events).unwrap();
        let probe_details: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanEnter { name, detail, .. } if name == "omt.probe" => detail.clone(),
                _ => None,
            })
            .collect();
        assert!(!probe_details.is_empty(), "no probe spans: {events:?}");
        assert!(probe_details.iter().all(|d| d.starts_with("bound=")));
        // The search span records whether the result is proven optimal.
        let search_note = events.iter().find_map(|e| match e {
            TraceEvent::SpanExit { note: Some(n), .. } if n == "optimal" || n == "bounded" => {
                Some(n.clone())
            }
            _ => None,
        });
        assert_eq!(search_note.as_deref(), Some("optimal"));
    }

    fn certified_knapsack(strategy: Strategy) -> Optimum {
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
        let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
        let cap = smt.int_const(7);
        smt.assert_ge(&cap, &weight);
        let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
        let opts = OmtOptions {
            certify: true,
            ..OmtOptions::default()
        };
        maximize_with(&mut smt, &value, strategy, opts, &[]).expect("sat")
    }

    #[test]
    fn proven_optimality_carries_certificate() {
        for strategy in [Strategy::BinarySearch, Strategy::LinearSearch] {
            let best = certified_knapsack(strategy);
            assert_eq!(best.value, 9);
            assert!(best.optimal);
            let cert = best.certificate.expect("certificate requested");
            assert_eq!(cert.refuted_bound, 10);
            // A DRAT refutation must end in the empty clause (or reach a
            // top-level conflict, in which case the final step may be any
            // addition; the emitted proof always closes with the empty one).
            assert!(matches!(
                cert.steps.last(),
                Some(ProofStep::Add(c)) if c.is_empty()
            ));
            // The asserted bound is the last clause of the certified formula.
            assert_eq!(cert.cnf.clauses.last().map(Vec::len), Some(1));
        }
    }

    #[test]
    fn trivial_optimum_at_structural_bound_is_certifiable() {
        // The first model already attains `hi`; no probe ever ran, but the
        // certificate path still refutes `objective >= hi + 1`.
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let _ = smt.new_bool();
        let obj = smt.int_const(42);
        let opts = OmtOptions {
            certify: true,
            ..OmtOptions::default()
        };
        let best = maximize_with(&mut smt, &obj, Strategy::BinarySearch, opts, &[]).expect("sat");
        assert_eq!(best.value, 42);
        assert!(best.optimal);
        let cert = best.certificate.expect("certificate");
        assert_eq!(cert.refuted_bound, 43);
    }

    #[test]
    fn certify_without_recording_is_skipped() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        let obj = smt.pb_sum(0, &[(5, a)]);
        let opts = OmtOptions {
            certify: true,
            ..OmtOptions::default()
        };
        let best = maximize_with(&mut smt, &obj, Strategy::BinarySearch, opts, &[]).expect("sat");
        assert_eq!(best.value, 5);
        assert!(best.optimal, "missing recording must not downgrade results");
        assert!(best.certificate.is_none());
    }

    #[test]
    fn gap_stop_reports_suboptimal_and_uncertified() {
        // Objective fixed at 50 but with structural range up to 59: the
        // search must tighten the bracket down. With a nonzero relative gap
        // it stops early, and that stop must be distinguishable from proven
        // optimality: `optimal == false` and no certificate, even though
        // certification was requested and recording is on.
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let b = smt.new_bool();
        smt.add_clause(&[!b]);
        let obj = smt.pb_sum(50, &[(9, b)]);
        assert_eq!(obj.hi, 59);
        let opts = OmtOptions {
            relative_gap: 0.05,
            certify: true,
            ..OmtOptions::default()
        };
        let best = maximize_with(&mut smt, &obj, Strategy::BinarySearch, opts, &[]).expect("sat");
        assert_eq!(best.value, 50);
        assert!(!best.optimal, "gap-stop must not claim proven optimality");
        assert!(best.certificate.is_none());

        // Same instance searched to exactness is proven optimal and
        // certified — the certificate is what separates the two outcomes.
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let b = smt.new_bool();
        smt.add_clause(&[!b]);
        let obj = smt.pb_sum(50, &[(9, b)]);
        let opts = OmtOptions {
            certify: true,
            ..OmtOptions::default()
        };
        let best = maximize_with(&mut smt, &obj, Strategy::BinarySearch, opts, &[]).expect("sat");
        assert_eq!(best.value, 50);
        assert!(best.optimal);
        assert!(best.certificate.is_some());
    }

    /// `(detail, note)` of every `omt.probe` span, in order.
    fn probe_trail(events: &[qca_trace::TraceEvent]) -> Vec<(String, String)> {
        use qca_trace::TraceEvent;
        let mut open = Vec::new();
        let mut trail = Vec::new();
        for e in events {
            match e {
                TraceEvent::SpanEnter {
                    id, name, detail, ..
                } if name == "omt.probe" => {
                    open.push((*id, detail.clone().unwrap_or_default()));
                }
                TraceEvent::SpanExit { id, note, .. } => {
                    if let Some(i) = open.iter().position(|(o, _)| o == id) {
                        let (_, detail) = open.remove(i);
                        trail.push((detail, note.clone().unwrap_or_default()));
                    }
                }
                _ => {}
            }
        }
        trail
    }

    #[test]
    fn unknown_probes_settle_for_the_incumbent() {
        // A zero probe budget makes every bound probe come back unknown, so
        // the search keeps the warm-start incumbent (value 4) and cannot
        // claim optimality. Binary search gives up on each upper half in
        // turn; linear search stops at its first unknown step.
        use qca_trace::Tracer;
        let expected: [(Strategy, &[&str], u64); 2] = [
            (
                Strategy::BinarySearch,
                &["bound=10", "bound=7", "bound=5"],
                4,
            ),
            (Strategy::LinearSearch, &["bound=5"], 2),
        ];
        for (strategy, bounds, queries) in expected {
            let (tracer, sink) = Tracer::to_memory();
            let mut smt = SmtSolver::new();
            smt.set_control(qca_sat::SolveControl {
                tracer,
                ..qca_sat::SolveControl::default()
            });
            let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
            let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
            let cap = smt.int_const(7);
            smt.assert_ge(&cap, &weight);
            let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
            let opts = OmtOptions {
                probe_conflict_budget: Some(0),
                ..OmtOptions::default()
            };
            let hint = [x[0], !x[1], !x[2]];
            let best = maximize_with(&mut smt, &value, strategy, opts, &hint).expect("sat");
            let trail: Vec<(String, String)> = bounds
                .iter()
                .map(|b| (b.to_string(), "unknown".to_string()))
                .collect();
            assert_eq!(probe_trail(&sink.take()), trail, "{strategy:?}");
            assert_eq!(best.queries, queries, "{strategy:?}");
            assert_eq!(best.value, 4, "{strategy:?}");
            assert!(best.model.lit_is_true(x[0]), "{strategy:?}");
            assert!(!best.optimal, "{strategy:?}");
        }
    }

    #[test]
    fn exhausted_probes_escalate_to_portfolio_and_stay_exact() {
        use qca_trace::{TraceEvent, Tracer};
        for strategy in [Strategy::BinarySearch, Strategy::LinearSearch] {
            let (tracer, sink) = Tracer::to_memory();
            let mut smt = SmtSolver::new();
            smt.set_control(qca_sat::SolveControl {
                tracer,
                ..qca_sat::SolveControl::default()
            });
            let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
            let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
            let cap = smt.int_const(7);
            smt.assert_ge(&cap, &weight);
            let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
            // A zero probe budget exhausts every probe immediately, so each
            // bound is decided by the racing portfolio alone — and the
            // search must still land on the exact optimum.
            let opts = OmtOptions {
                probe_conflict_budget: Some(0),
                portfolio: Some(PortfolioProbe::default()),
                ..OmtOptions::default()
            };
            let best = maximize_with(&mut smt, &value, strategy, opts, &[]).expect("sat");
            assert_eq!(best.value, 9, "{strategy:?}");
            assert!(best.optimal, "portfolio verdicts are definitive");
            let events = sink.take();
            let escalations: u64 = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Counter { name, value, .. }
                        if name.as_ref() == "portfolio.escalations" =>
                    {
                        Some(*value)
                    }
                    _ => None,
                })
                .sum();
            assert!(escalations > 0, "{strategy:?}: no escalation happened");
            let races: u64 = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Counter { name, value, .. }
                        if name.as_ref() == "portfolio.races" =>
                    {
                        Some(*value)
                    }
                    _ => None,
                })
                .sum();
            assert_eq!(races, escalations);
        }
    }

    #[test]
    fn escalated_races_respect_the_search_conflict_cap() {
        // Eight pigeons, seven holes: `objective >= 8` is the pigeonhole
        // refutation, thousands of conflicts away. Under a 50-conflict cap
        // on the whole search, no escalated race may spend more than what
        // is left of it, so that bound stays unknown and the search must
        // not claim optimality.
        use qca_trace::{TraceEvent, Tracer};
        for strategy in [Strategy::BinarySearch, Strategy::LinearSearch] {
            let (tracer, sink) = Tracer::to_memory();
            let mut smt = SmtSolver::new();
            smt.set_control(qca_sat::SolveControl {
                tracer,
                conflict_cap: Some(50),
                ..qca_sat::SolveControl::default()
            });
            let p: Vec<Vec<_>> = (0..8)
                .map(|_| (0..7).map(|_| smt.new_bool()).collect())
                .collect();
            for i in 0..8 {
                for j in 0..7 {
                    for k in i + 1..8 {
                        smt.add_clause(&[!p[i][j], !p[k][j]]);
                    }
                    for l in j + 1..7 {
                        smt.add_clause(&[!p[i][j], !p[i][l]]);
                    }
                }
            }
            let terms: Vec<_> = p.iter().flatten().map(|&l| (1, l)).collect();
            let placed = smt.pb_sum(0, &terms);
            let opts = OmtOptions {
                probe_conflict_budget: Some(0),
                portfolio: Some(PortfolioProbe::default()),
                ..OmtOptions::default()
            };
            let best = maximize_with(&mut smt, &placed, strategy, opts, &[]).expect("sat");
            let events = sink.take();
            // Pair each race with the bound it escalated: the race span
            // closes right after the unknown probe's span.
            let mut bound = String::new();
            let mut races = Vec::new();
            for e in &events {
                match e {
                    TraceEvent::SpanEnter { name, detail, .. } if name == "omt.probe" => {
                        bound = detail.clone().unwrap_or_default();
                    }
                    TraceEvent::SpanExit { note: Some(n), .. }
                        if n.starts_with("winner=") || n == "no definitive member" =>
                    {
                        races.push((bound.clone(), n.clone()));
                    }
                    _ => {}
                }
            }
            assert!(!races.is_empty(), "{strategy:?}: no escalation happened");
            // No race can refute `placed >= 8` (or any higher bound) on
            // what is left of 50 conflicts: a winner there would be a
            // member running past the cap.
            for (bound, note) in &races {
                let b: i64 = bound["bound=".len()..].parse().expect("bound");
                if b >= 8 {
                    assert_eq!(note, "no definitive member", "{strategy:?} {bound}");
                }
            }
            assert!(
                !best.optimal,
                "{strategy:?}: the cap left the bound unproven"
            );
        }
    }

    #[test]
    fn preprocessed_portfolio_probes_stay_exact_and_certified() {
        // Every probe is decided by a preprocessed race, yet the
        // certificate must still refute the bound against the RECORDED
        // shadow CNF — preprocessing the race input must not leak into
        // certification.
        for strategy in [Strategy::BinarySearch, Strategy::LinearSearch] {
            let mut smt = SmtSolver::new();
            smt.enable_recording();
            let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
            let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
            let cap = smt.int_const(7);
            smt.assert_ge(&cap, &weight);
            let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
            let opts = OmtOptions {
                probe_conflict_budget: Some(0),
                portfolio: Some(PortfolioProbe {
                    preprocess: true,
                    ..PortfolioProbe::default()
                }),
                certify: true,
                ..OmtOptions::default()
            };
            let best = maximize_with(&mut smt, &value, strategy, opts, &[]).expect("sat");
            assert_eq!(best.value, 9, "{strategy:?}");
            assert!(best.optimal, "{strategy:?}");
            let cert = best.certificate.expect("certificate requested");
            assert_eq!(cert.refuted_bound, 10);
            assert!(matches!(
                cert.steps.last(),
                Some(ProofStep::Add(c)) if c.is_empty()
            ));
        }
    }

    #[test]
    fn portfolio_matches_single_config_on_random_instances() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for round in 0u64..8 {
            let n = 6;
            let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(-10..10)).collect();
            let conflicts: Vec<(usize, usize)> = (0..4)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let build = |weights: &[i64], conflicts: &[(usize, usize)]| {
                let mut smt = SmtSolver::new();
                let xs: Vec<_> = (0..n).map(|_| smt.new_bool()).collect();
                for &(i, j) in conflicts {
                    smt.add_clause(&[!xs[i], !xs[j]]);
                }
                let terms: Vec<_> = weights.iter().zip(&xs).map(|(&w, &x)| (w, x)).collect();
                let obj = smt.pb_sum(0, &terms);
                (smt, obj)
            };
            let (mut s1, o1) = build(&weights, &conflicts);
            let (mut s2, o2) = build(&weights, &conflicts);
            let exact = maximize(&mut s1, &o1, Strategy::BinarySearch).unwrap();
            let opts = OmtOptions {
                probe_conflict_budget: Some(0),
                portfolio: Some(PortfolioProbe {
                    members: 3,
                    seed: round,
                    ..PortfolioProbe::default()
                }),
                ..OmtOptions::default()
            };
            let raced = maximize_with(&mut s2, &o2, Strategy::BinarySearch, opts, &[]).unwrap();
            assert_eq!(raced.value, exact.value, "round {round}");
            assert!(raced.optimal, "round {round}");
        }
    }

    #[test]
    fn strategies_agree_on_random_instances() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n = 6;
            let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(-10..10)).collect();
            let conflicts: Vec<(usize, usize)> = (0..4)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let build = |weights: &[i64], conflicts: &[(usize, usize)]| {
                let mut smt = SmtSolver::new();
                let xs: Vec<_> = (0..n).map(|_| smt.new_bool()).collect();
                for &(i, j) in conflicts {
                    smt.add_clause(&[!xs[i], !xs[j]]);
                }
                let terms: Vec<_> = weights.iter().zip(&xs).map(|(&w, &x)| (w, x)).collect();
                let obj = smt.pb_sum(0, &terms);
                (smt, obj)
            };
            let (mut s1, o1) = build(&weights, &conflicts);
            let (mut s2, o2) = build(&weights, &conflicts);
            let b1 = maximize(&mut s1, &o1, Strategy::BinarySearch).unwrap();
            let b2 = maximize(&mut s2, &o2, Strategy::LinearSearch).unwrap();
            assert_eq!(b1.value, b2.value);
        }
    }
}
