//! Optimization modulo theories: maximizing a linear objective.
//!
//! One solution-improving loop: from the first model, probe
//! `objective >= best + 1` under an assumption literal. A model raises the
//! incumbent; a refutation proves it optimal; a probe that runs out of
//! budget ends the search with the incumbent unproven. The search also
//! stops, proven and without a probe, once the incumbent reaches the
//! objective's [`IntExpr::hi`]. That bound is the sum of the expression's
//! terms unless the caller lowers it to a sound bound it computed (the
//! adaptation model puts its per-block optimum there). The search is
//! complete on the bounded integer objectives produced by
//! [`crate::SmtSolver`], and never probes above the level it must refute.
//!
//! [`certify`] turns a proven optimum into an [`OptimalityCertificate`] on
//! the same solver, whose DRAT log [`SmtSolver::enable_recording`] started
//! with the first clause: the search's refutation of `best + 1` is the
//! proof, and an optimum proven by `hi` gets one more probe, of `hi + 1`.

use crate::solver::{IntExpr, SmtModel, SmtSolver};
use qca_sat::dimacs::Cnf;
use qca_sat::{Lit, ProofStep, SolveOutcome};
use std::sync::Arc;

/// Result of a successful maximization.
#[derive(Debug, Clone)]
pub struct Optimum {
    /// The maximal objective value (best found; maximal when `optimal`).
    pub value: i64,
    /// A model attaining it.
    pub model: SmtModel,
    /// Number of SAT queries issued during the search.
    pub queries: u64,
    /// `true` when the search refuted `objective >= value + 1`, or `value`
    /// reached the objective's [`IntExpr::hi`], a bound the caller may
    /// have computed rather than read off the expression's terms; `false`
    /// when that probe exhausted its conflict budget and the search settled
    /// for the best value found.
    pub optimal: bool,
    /// The comparator literal `objective >= value + 1` of the probe that
    /// refuted it, when the search ended on a refutation; [`certify`]
    /// reuses it instead of solving again.
    pub refuted: Option<Lit>,
}

/// An UNSAT certificate for the claim `objective <= refuted_bound - 1`:
/// the solver's shadow formula plus the unit clause `refuted`, together
/// with the DRAT proof the searching solver logged, closed by the empty
/// clause. `qca-verify`'s independent RUP checker validates `steps` against
/// them without trusting the solver.
#[derive(Debug, Clone)]
pub struct OptimalityCertificate {
    /// The shadow formula, without the unit: the same `Arc` as the solve's
    /// [`AuditBundle::cnf`](crate::AuditBundle::cnf).
    pub cnf: Arc<Cnf>,
    /// The comparator literal `objective >= refuted_bound` the proof
    /// refutes, taken as a unit clause after `cnf`.
    pub refuted: Lit,
    /// DRAT proof steps ending in the empty clause.
    pub steps: Vec<ProofStep>,
    /// The bound proven unreachable (`Optimum::value + 1`).
    pub refuted_bound: i64,
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
/// let best = omt::maximize(&mut smt, &obj).expect("satisfiable");
/// assert_eq!(best.value, 5);
/// ```
pub fn maximize(smt: &mut SmtSolver, objective: &IntExpr) -> Option<Optimum> {
    maximize_with(smt, objective, None, &[])
}

/// [`maximize`] with a per-probe conflict budget and an optional
/// warm-start `hint`. A probe that exhausts `probe_conflict_budget`
/// (`None`: unlimited, exact) ends the search with the incumbent, which
/// may be suboptimal (`Optimum::optimal` reports this). The hint holds
/// assumption literals describing a known-feasible assignment of the
/// decision variables: the first model is found under it (usually by pure
/// propagation), then it is dropped for the improving search.
pub fn maximize_with(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    probe_conflict_budget: Option<u64>,
    hint: &[Lit],
) -> Option<Optimum> {
    let tracer = smt.tracer().clone();
    let mut span = tracer.span("omt.search");
    let result = improve(smt, objective, probe_conflict_budget, hint);
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

/// Certifies a proven `opt` of `objective` on the solver that found it,
/// returning the certificate.
///
/// The refuted literal is the search's own refutation of `value + 1`, or,
/// for an optimum proven by `hi`, the verdict of one more unbudgeted probe
/// of `hi + 1`, run under the solver's conflict cap and stop flag. The
/// certificate shares the solver's shadow formula, which holds the probe's
/// comparator clauses, takes that literal as its unit, and moves the
/// solver's DRAT log out as its proof, plus the empty clause. A probe that
/// does not come back UNSAT leaves `opt` unproven (`optimal == false`) and
/// uncertified. Returns `None` without solving when `opt` is not proven,
/// `value + 1` overflows, or the solver does not record.
pub fn certify(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    opt: &mut Optimum,
) -> Option<OptimalityCertificate> {
    let (true, Some(bound), Some(proof)) =
        (opt.optimal, opt.value.checked_add(1), smt.proof.clone())
    else {
        return None;
    };
    let tracer = smt.tracer().clone();
    let mut span = tracer.span_with("omt.certify", || format!("bound={bound}"));
    let refuted = opt
        .refuted
        .or_else(|| match probe(smt, objective, bound, None) {
            Probe::Unsat(ge) => Some(ge),
            _ => None,
        });
    let Some(refuted) = refuted else {
        span.set_note("not_refuted");
        opt.optimal = false;
        return None;
    };
    let cnf = smt
        .sat
        .shadow_formula()
        .expect("a proof-logging solver records");
    let mut steps = proof.take_steps();
    steps.push(ProofStep::Add(Vec::new()));
    steps.shrink_to_fit();
    span.set_note("refuted");
    Some(OptimalityCertificate {
        cnf,
        refuted,
        steps,
        refuted_bound: bound,
    })
}

/// Verdict of one bound probe `objective >= bound`.
enum Probe {
    /// A model attaining the bound.
    Sat(SmtModel),
    /// The bound is unreachable; carries its comparator literal.
    Unsat(Lit),
    /// The probe budget (or the search's cap or stop flag) ran out first.
    Unknown,
}

/// Probes `objective >= bound` under an assumption literal with the
/// conflict budget `budget`. A refuted bound is kept as the derived clause
/// `!ge`, so later probes prune with it; derived, not an axiom, it stays out
/// of the shadow formula certificates are stated over.
fn probe(smt: &mut SmtSolver, objective: &IntExpr, bound: i64, budget: Option<u64>) -> Probe {
    let bound_expr = smt.int_const(bound);
    let ge = smt.ge_reified(objective, &bound_expr);
    smt.sat_mut().set_conflict_budget(budget);
    let mut span = smt
        .tracer()
        .clone()
        .span_with("omt.probe", || format!("bound={bound}"));
    let (verdict, note) = match smt.sat.solve_limited(&[ge]) {
        SolveOutcome::Sat => (Probe::Sat(smt.snapshot()), "sat"),
        SolveOutcome::Unsat => (Probe::Unsat(ge), "unsat"),
        _ => (Probe::Unknown, "unknown"),
    };
    smt.sat_mut().set_conflict_budget(None);
    span.set_note(note);
    drop(span);
    if let Probe::Unsat(_) = verdict {
        smt.add_clause_derived(&[!ge]);
    }
    verdict
}

/// First model: try the warm-start hint (cheap propagation-only solve),
/// fall back to an unconstrained search.
fn first_model(smt: &mut SmtSolver, hint: &[Lit]) -> Option<SmtModel> {
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

/// The improving search: from the first model, probe `best + 1` until a
/// probe is refuted (the incumbent is optimal) or comes back unknown (it
/// stays unproven), or the incumbent reaches the objective's upper bound.
fn improve(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    probe_conflict_budget: Option<u64>,
    hint: &[Lit],
) -> Option<Optimum> {
    let mut queries = 1u64;
    let first = first_model(smt, hint)?;
    let mut best_val = first.int_value(objective);
    let mut best_model = first;
    let mut optimal = true;
    let mut refuted = None;
    while best_val < objective.hi {
        queries += 1;
        match probe(smt, objective, best_val + 1, probe_conflict_budget) {
            Probe::Sat(m) => {
                best_val = m.int_value(objective);
                best_model = m;
                smt.tracer().gauge("omt.best", best_val);
            }
            Probe::Unsat(ge) => {
                refuted = Some(ge);
                break;
            }
            Probe::Unknown => {
                optimal = false;
                break;
            }
        }
    }
    Some(Optimum {
        value: best_val,
        model: best_model,
        queries,
        optimal,
        refuted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack() {
        // items: weights 3,4,5 values 4,5,6; capacity 7 -> best value 9 (3+4).
        let mut smt = SmtSolver::new();
        let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
        let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
        let cap = smt.int_const(7);
        smt.assert_ge(&cap, &weight);
        let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
        let best = maximize(&mut smt, &value).expect("sat");
        assert_eq!(best.value, 9);
        assert!(best.model.lit_is_true(x[0]));
        assert!(best.model.lit_is_true(x[1]));
        assert!(!best.model.lit_is_true(x[2]));
    }

    #[test]
    fn unsat_returns_none() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        smt.add_clause(&[a]);
        smt.add_clause(&[!a]);
        let obj = smt.pb_sum(0, &[(1, a)]);
        assert!(maximize(&mut smt, &obj).is_none());
    }

    #[test]
    fn constant_objective() {
        let mut smt = SmtSolver::new();
        let _ = smt.new_bool();
        let obj = smt.int_const(42);
        let best = maximize(&mut smt, &obj).expect("sat");
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
        let best = maximize(&mut smt, &obj).expect("sat");
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
        let best = maximize(&mut smt, &slack).expect("sat");
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
        let best = maximize(&mut smt, &value).expect("sat");
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

    /// [`maximize_with`] followed by [`certify`].
    fn certified(
        smt: &mut SmtSolver,
        objective: &IntExpr,
        budget: Option<u64>,
        hint: &[Lit],
    ) -> (Optimum, Option<OptimalityCertificate>) {
        let mut best = maximize_with(smt, objective, budget, hint).expect("sat");
        let cert = certify(smt, objective, &mut best);
        (best, cert)
    }

    #[test]
    fn proven_optimality_carries_certificate() {
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
        let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
        let cap = smt.int_const(7);
        smt.assert_ge(&cap, &weight);
        let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
        let mut best = maximize(&mut smt, &value).expect("sat");
        let refuted = best.refuted.expect("the search refuted 10");
        // The search's own refutation is the proof: certifying solves
        // nothing more.
        let conflicts = smt.stats().conflicts;
        let cert = certify(&mut smt, &value, &mut best).expect("certificate requested");
        assert_eq!(smt.stats().conflicts, conflicts);
        assert_eq!(best.value, 9);
        assert!(best.optimal);
        assert_eq!(cert.refuted_bound, 10);
        // The proof is the solver's log, closed by the empty clause, and
        // moved out of its buffer.
        assert!(matches!(
            cert.steps.last(),
            Some(ProofStep::Add(c)) if c.is_empty()
        ));
        assert!(smt
            .proof
            .as_ref()
            .is_some_and(|p| p.take_steps().is_empty()));
        // The formula is the solver's own shadow formula, shared, not
        // copied, and the unit is the refuted probe's comparator.
        let formula = smt.sat.shadow_formula().expect("recording on");
        assert!(Arc::ptr_eq(&cert.cnf, &formula));
        assert_eq!(cert.refuted, refuted);
    }

    #[test]
    fn trivial_optimum_at_structural_bound_is_certifiable() {
        // The first model already attains `hi`; no probe ever ran, but the
        // certificate path still refutes `objective >= hi + 1`.
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let _ = smt.new_bool();
        let obj = smt.int_const(42);
        let (best, cert) = certified(&mut smt, &obj, None, &[]);
        assert_eq!(best.value, 42);
        assert!(best.optimal);
        let cert = cert.expect("certificate");
        assert_eq!(cert.refuted_bound, 43);
    }

    #[test]
    fn computed_upper_bound_stops_the_search_and_stays_certifiable() {
        // Two exclusive items: the terms' sum (9) overstates the optimum
        // (5). With `hi` lowered to the optimum, the first model ends the
        // search proven, and certifying probes `hi + 1` once more, with no
        // probe budget, on the same solver.
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let a = smt.new_bool();
        let b = smt.new_bool();
        smt.add_clause(&[!a, !b]);
        let mut obj = smt.pb_sum(0, &[(5, a), (4, b)]);
        assert_eq!(obj.hi, 9);
        obj.hi = 5;
        let (best, cert) = certified(&mut smt, &obj, Some(0), &[a, !b]);
        assert_eq!((best.value, best.queries, best.optimal), (5, 1, true));
        assert!(best.refuted.is_none(), "no search probe ran");
        let cert = cert.expect("certificate");
        assert_eq!(cert.refuted_bound, 6);
    }

    #[test]
    fn certification_probe_obeys_the_stop_flag() {
        // The `hi + 1` probe runs under the solver's run controls: a
        // raised stop flag leaves the answer unproven and uncertified.
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let a = smt.new_bool();
        let b = smt.new_bool();
        smt.add_clause(&[!a, !b]);
        let mut obj = smt.pb_sum(0, &[(5, a), (4, b)]);
        obj.hi = 5;
        let mut best = maximize_with(&mut smt, &obj, None, &[a, !b]).expect("sat");
        assert!(best.optimal);
        smt.set_control(qca_sat::SolveControl {
            stop: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
                true,
            ))),
            ..qca_sat::SolveControl::default()
        });
        assert!(certify(&mut smt, &obj, &mut best).is_none());
        assert_eq!(best.value, 5);
        assert!(!best.optimal);
    }

    #[test]
    fn certify_without_recording_is_skipped() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        let obj = smt.pb_sum(0, &[(5, a)]);
        let (best, cert) = certified(&mut smt, &obj, None, &[]);
        assert_eq!(best.value, 5);
        assert!(best.optimal, "missing recording must not downgrade results");
        assert!(cert.is_none());
    }

    #[test]
    fn unknown_probe_reports_suboptimal_and_uncertified() {
        // Objective fixed at 50 but with structural range up to 59: the
        // search must refute `objective >= 51`. With a zero probe budget
        // that probe comes back unknown, and the stop must be
        // distinguishable from proven optimality: `optimal == false` and no
        // certificate, even though certification was requested and
        // recording is on.
        let build = || {
            let mut smt = SmtSolver::new();
            smt.enable_recording();
            let b = smt.new_bool();
            smt.add_clause(&[!b]);
            let obj = smt.pb_sum(50, &[(9, b)]);
            assert_eq!(obj.hi, 59);
            (smt, obj)
        };
        let (mut smt, obj) = build();
        let (best, cert) = certified(&mut smt, &obj, Some(0), &[]);
        assert_eq!(best.value, 50);
        assert!(!best.optimal, "an unknown probe must not claim optimality");
        assert!(cert.is_none());

        // Same instance searched to exactness is proven optimal and
        // certified — the certificate is what separates the two outcomes.
        let (mut smt, obj) = build();
        let (best, cert) = certified(&mut smt, &obj, None, &[]);
        assert_eq!(best.value, 50);
        assert!(best.optimal);
        assert!(cert.is_some());
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
        // claim optimality: it stops at its first unknown step.
        use qca_trace::Tracer;
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
        let hint = [x[0], !x[1], !x[2]];
        let best = maximize_with(&mut smt, &value, Some(0), &hint).expect("sat");
        let trail = vec![("bound=5".to_string(), "unknown".to_string())];
        assert_eq!(probe_trail(&sink.take()), trail);
        assert_eq!(best.queries, 2);
        assert_eq!(best.value, 4);
        assert!(best.model.lit_is_true(x[0]));
        assert!(!best.optimal);
    }
}
