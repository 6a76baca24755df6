//! Optimization modulo theories: maximizing a linear objective.
//!
//! One solution-improving loop: from the first model, probe
//! `objective >= best + 1` under an assumption literal. A model raises the
//! incumbent; a refutation proves it optimal, the same refutation of the
//! next-better level an [`OptimalityCertificate`] re-derives; a probe that
//! runs out of budget ends the search with the incumbent unproven. The
//! search is complete on the bounded integer objectives produced by
//! [`crate::SmtSolver`], and never probes above the level it must refute.

use crate::solver::{IntExpr, SmtModel, SmtSolver};
use qca_sat::dimacs::Cnf;
use qca_sat::{MemoryProof, ProofStep, SolveOutcome, Solver};

/// Result of a successful maximization.
#[derive(Debug, Clone)]
pub struct Optimum {
    /// The maximal objective value (best found; maximal when `optimal`).
    pub value: i64,
    /// A model attaining it.
    pub model: SmtModel,
    /// Number of SAT queries issued during the search.
    pub queries: u64,
    /// `true` when the search refuted `objective >= value + 1` (or `value`
    /// already sits at the objective's structural upper bound); `false` when
    /// that probe exhausted its conflict budget and the search settled for
    /// the best value found.
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

/// Tuning knobs for [`maximize_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OmtOptions {
    /// Maximum SAT conflicts per bound probe; `None` for unlimited (exact).
    /// A probe that exhausts its budget ends the search with the incumbent,
    /// which may be suboptimal (`Optimum::optimal` reports this).
    pub probe_conflict_budget: Option<u64>,
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
/// let best = omt::maximize(&mut smt, &obj).expect("satisfiable");
/// assert_eq!(best.value, 5);
/// ```
pub fn maximize(smt: &mut SmtSolver, objective: &IntExpr) -> Option<Optimum> {
    maximize_with(smt, objective, OmtOptions::default(), &[])
}

/// [`maximize`] with explicit tuning options and an optional warm-start
/// `hint`: assumption literals describing a known-feasible assignment of the
/// decision variables. The first model is found under the hint (usually by
/// pure propagation), then the hint is dropped for the improving search.
pub fn maximize_with(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    options: OmtOptions,
    hint: &[qca_sat::Lit],
) -> Option<Optimum> {
    let tracer = smt.tracer().clone();
    let mut span = tracer.span("omt.search");
    let mut result = improve(smt, objective, options, hint);
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
/// per-probe conflict budget. A refuted bound is kept as the derived clause
/// `!ge`, so later probes prune with it; derived, not an axiom, it stays out
/// of the shadow formula certificates are stated over.
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
    if let Probe::Unsat = verdict {
        smt.add_clause_derived(&[!ge]);
    }
    verdict
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

/// The improving search: from the first model, probe `best + 1` until a
/// probe is refuted (the incumbent is optimal) or comes back unknown (it
/// stays unproven), or the incumbent reaches the objective's upper bound.
fn improve(
    smt: &mut SmtSolver,
    objective: &IntExpr,
    options: OmtOptions,
    hint: &[qca_sat::Lit],
) -> Option<Optimum> {
    let mut queries = 1u64;
    let first = first_model(smt, hint)?;
    let mut best_val = first.int_value(objective);
    let mut best_model = first;
    let mut optimal = true;
    while best_val < objective.hi {
        queries += 1;
        match probe(smt, objective, best_val + 1, options) {
            Probe::Sat(m) => {
                best_val = m.int_value(objective);
                best_model = m;
                smt.tracer().gauge("omt.best", best_val);
            }
            Probe::Unsat => break,
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
        certificate: None,
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

    #[test]
    fn proven_optimality_carries_certificate() {
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
        let best = maximize_with(&mut smt, &value, opts, &[]).expect("sat");
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
        let best = maximize_with(&mut smt, &obj, opts, &[]).expect("sat");
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
        let best = maximize_with(&mut smt, &obj, opts, &[]).expect("sat");
        assert_eq!(best.value, 5);
        assert!(best.optimal, "missing recording must not downgrade results");
        assert!(best.certificate.is_none());
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
        let opts = OmtOptions {
            probe_conflict_budget: Some(0),
            certify: true,
        };
        let best = maximize_with(&mut smt, &obj, opts, &[]).expect("sat");
        assert_eq!(best.value, 50);
        assert!(!best.optimal, "an unknown probe must not claim optimality");
        assert!(best.certificate.is_none());

        // Same instance searched to exactness is proven optimal and
        // certified — the certificate is what separates the two outcomes.
        let (mut smt, obj) = build();
        let opts = OmtOptions {
            certify: true,
            ..OmtOptions::default()
        };
        let best = maximize_with(&mut smt, &obj, opts, &[]).expect("sat");
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
        let opts = OmtOptions {
            probe_conflict_budget: Some(0),
            ..OmtOptions::default()
        };
        let hint = [x[0], !x[1], !x[2]];
        let best = maximize_with(&mut smt, &value, opts, &hint).expect("sat");
        let trail = vec![("bound=5".to_string(), "unknown".to_string())];
        assert_eq!(probe_trail(&sink.take()), trail);
        assert_eq!(best.queries, 2);
        assert_eq!(best.value, 4);
        assert!(best.model.lit_is_true(x[0]));
        assert!(!best.optimal);
    }
}
