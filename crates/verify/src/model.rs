//! Semantic model auditing and OMT certificate checking.
//!
//! [`audit_model`] replays an [`AuditBundle`] — the semantic constraint
//! trail, the clause-level shadow formula, and a model — and confirms the
//! model satisfies every determinate constraint. Evaluation uses only the
//! public tri-state accessors ([`SmtModel::lit_value`],
//! [`SmtModel::int_value_checked`]); constraints mentioning variables
//! allocated after the model snapshot (e.g. comparator auxiliaries from
//! later OMT probes) are counted as indeterminate, never as failures.
//!
//! [`check_certificate`] validates an [`OptimalityCertificate`] with the
//! independent RUP checker from [`crate::drat`].
//!
//! [`check_reconstruction`] closes the loop on the `qca_sat::analyze`
//! preprocessor: it replays a [`Reconstruction`] over a solver model of
//! the *simplified* formula and confirms the extended total assignment
//! satisfies the *original* formula, by direct evaluation.

use qca_sat::analyze::Reconstruction;
use qca_sat::dimacs::Cnf;
use qca_sat::Lit;
use qca_smt::omt::OptimalityCertificate;
use qca_smt::{AuditBundle, IntExpr, RecordedConstraint, SmtModel};

use crate::drat::{check_clauses, DratError, DratStats};

/// A model audit failure: the model definitively violates a recorded
/// constraint or a shadow-formula clause.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelAuditError {
    /// Recorded semantic constraint number `index` does not hold.
    ConstraintViolated {
        /// Position in [`AuditBundle::constraints`].
        index: usize,
        /// Human-readable statement of the violation, with values.
        detail: String,
    },
    /// Shadow-formula clause number `index` has every literal false.
    ClauseFalsified {
        /// Position in the bundle's CNF.
        index: usize,
    },
}

impl std::fmt::Display for ModelAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelAuditError::ConstraintViolated { index, detail } => {
                write!(f, "constraint #{index} violated: {detail}")
            }
            ModelAuditError::ClauseFalsified { index } => {
                write!(f, "shadow clause #{index} falsified by the model")
            }
        }
    }
}

impl std::error::Error for ModelAuditError {}

/// Counters from a successful [`audit_model`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelAuditStats {
    /// Semantic constraints fully evaluated and confirmed.
    pub constraints_checked: u64,
    /// Semantic constraints skipped because some variable is not covered by
    /// the model (allocated after the snapshot).
    pub constraints_indeterminate: u64,
    /// Shadow clauses confirmed satisfied.
    pub clauses_checked: u64,
    /// Shadow clauses with no true literal but at least one uncovered one.
    pub clauses_indeterminate: u64,
}

/// Outcome of evaluating one constraint against the model.
enum Verdict {
    Holds,
    Indeterminate,
    Violated(String),
}

fn int_pair(m: &SmtModel, a: &IntExpr, b: &IntExpr) -> Option<(i64, i64)> {
    Some((m.int_value_checked(a)?, m.int_value_checked(b)?))
}

fn eval_constraint(m: &SmtModel, c: &RecordedConstraint) -> Verdict {
    use RecordedConstraint::*;
    let det = |cond: bool, msg: &dyn Fn() -> String| {
        if cond {
            Verdict::Holds
        } else {
            Verdict::Violated(msg())
        }
    };
    match c {
        Clause(lits) => eval_clause(m, lits),
        IntVar { out } => match m.int_value_checked(out) {
            None => Verdict::Indeterminate,
            Some(v) => det(out.lo <= v && v <= out.hi, &|| {
                format!("int var = {v} outside [{}, {}]", out.lo, out.hi)
            }),
        },
        Add { out, a, b } => match (m.int_value_checked(out), int_pair(m, a, b)) {
            (Some(vo), Some((va, vb))) => {
                det(vo == va + vb, &|| format!("add: {vo} != {va} + {vb}"))
            }
            _ => Verdict::Indeterminate,
        },
        PbSum { out, base, terms } => {
            let Some(vo) = m.int_value_checked(out) else {
                return Verdict::Indeterminate;
            };
            let mut sum = *base;
            for &(w, l) in terms {
                match m.lit_value(l) {
                    Some(true) => sum += w,
                    Some(false) => {}
                    None => return Verdict::Indeterminate,
                }
            }
            det(vo == sum, &|| format!("pb_sum: {vo} != {sum}"))
        }
        MulConst { out, a, k } => match (m.int_value_checked(out), m.int_value_checked(a)) {
            (Some(vo), Some(va)) => det(vo == k * va, &|| format!("mul_const: {vo} != {k} * {va}")),
            _ => Verdict::Indeterminate,
        },
        SubFromConst { out, c, e } => match (m.int_value_checked(out), m.int_value_checked(e)) {
            (Some(vo), Some(ve)) => det(vo == c - ve, &|| {
                format!("sub_from_const: {vo} != {c} - {ve}")
            }),
            _ => Verdict::Indeterminate,
        },
        Ge { a, b } => match int_pair(m, a, b) {
            Some((va, vb)) => det(va >= vb, &|| format!("ge: {va} < {vb}")),
            None => Verdict::Indeterminate,
        },
        GeReified { lit, a, b } => match (m.lit_value(*lit), int_pair(m, a, b)) {
            (Some(t), Some((va, vb))) => det(t == (va >= vb), &|| {
                format!("ge_reified: lit = {t} but {va} >= {vb} is {}", va >= vb)
            }),
            _ => Verdict::Indeterminate,
        },
        Ite { out, cond, a, b } => match (m.lit_value(*cond), m.int_value_checked(out)) {
            (Some(t), Some(vo)) => {
                let branch = if t { a } else { b };
                match m.int_value_checked(branch) {
                    Some(vb) => det(vo == vb, &|| format!("ite: {vo} != {vb} (cond = {t})")),
                    None => Verdict::Indeterminate,
                }
            }
            _ => Verdict::Indeterminate,
        },
        MaxOf { out, exprs } => {
            let Some(vo) = m.int_value_checked(out) else {
                return Verdict::Indeterminate;
            };
            let mut mx = i64::MIN;
            for e in exprs {
                match m.int_value_checked(e) {
                    Some(v) => mx = mx.max(v),
                    None => return Verdict::Indeterminate,
                }
            }
            det(vo == mx, &|| format!("max_of: {vo} != {mx}"))
        }
    }
}

fn eval_clause(m: &SmtModel, lits: &[Lit]) -> Verdict {
    let mut indeterminate = false;
    for &l in lits {
        match m.lit_value(l) {
            Some(true) => return Verdict::Holds,
            Some(false) => {}
            None => indeterminate = true,
        }
    }
    if indeterminate {
        Verdict::Indeterminate
    } else {
        Verdict::Violated("no literal true".to_string())
    }
}

/// Replays every recorded constraint and shadow clause against the bundled
/// model. Returns counters on success; the first definite violation aborts
/// the audit with a [`ModelAuditError`].
pub fn audit_model(bundle: &AuditBundle) -> Result<ModelAuditStats, ModelAuditError> {
    let mut stats = ModelAuditStats::default();
    for (index, c) in bundle.constraints.iter().enumerate() {
        match eval_constraint(&bundle.model, c) {
            Verdict::Holds => stats.constraints_checked += 1,
            Verdict::Indeterminate => stats.constraints_indeterminate += 1,
            Verdict::Violated(detail) => {
                return Err(ModelAuditError::ConstraintViolated { index, detail })
            }
        }
    }
    for (index, clause) in bundle.cnf.clauses.iter().enumerate() {
        match eval_clause(&bundle.model, clause) {
            Verdict::Holds => stats.clauses_checked += 1,
            Verdict::Indeterminate => stats.clauses_indeterminate += 1,
            Verdict::Violated(_) => return Err(ModelAuditError::ClauseFalsified { index }),
        }
    }
    Ok(stats)
}

/// Validates an OMT optimality certificate with the independent DRAT/RUP
/// checker: the certificate's proof must refute its shadow formula plus the
/// unit clause `refuted` (`objective >= refuted_bound`). The checker reads
/// the formula's clauses and then the unit in place, the clause sequence
/// the solver's log is stated over. That the formula is the solve's own is
/// checked by [`audit_adaptation`](crate::audit_adaptation).
pub fn check_certificate(cert: &OptimalityCertificate) -> Result<DratStats, DratError> {
    let clauses = cert.cnf.clauses.iter().map(Vec::as_slice);
    let unit = std::slice::from_ref(&cert.refuted);
    check_clauses(clauses.chain([unit]), &cert.steps)
}

/// A [`check_reconstruction`] failure: the extended assignment leaves a
/// clause of the original formula with no true literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconstructionError {
    /// Position of the falsified clause in the original formula.
    pub clause: usize,
}

impl std::fmt::Display for ReconstructionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "original clause #{} falsified by the extended model",
            self.clause
        )
    }
}

impl std::error::Error for ReconstructionError {}

/// Replays `reconstruction` over a model of the simplified formula and
/// checks the extended assignment satisfies every clause of `original`.
///
/// `model` is indexed by variable (the preprocessor preserves the
/// numbering); entries the solver left unassigned default to `false`, the
/// same total-assignment semantics [`Reconstruction::extend`] uses
/// internally. On success the extended **total** assignment is returned,
/// so callers can reuse it instead of re-deriving the defaulting rules.
///
/// # Errors
///
/// The first falsified original clause aborts with its index — which
/// means either the solver's model was wrong or the preprocessor's
/// reconstruction stack is unsound; both are bugs worth failing loudly
/// on.
pub fn check_reconstruction(
    original: &Cnf,
    reconstruction: &Reconstruction,
    model: &[Option<bool>],
) -> Result<Vec<bool>, ReconstructionError> {
    let mut extended: Vec<Option<bool>> = model.to_vec();
    extended.resize(original.num_vars.max(model.len()), None);
    reconstruction.extend(&mut extended);
    let total: Vec<bool> = extended.iter().map(|v| v.unwrap_or(false)).collect();
    for (clause, lits) in original.clauses.iter().enumerate() {
        let satisfied = lits
            .iter()
            .any(|l| total[l.var().index()] == l.is_positive());
        if !satisfied {
            return Err(ReconstructionError { clause });
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_smt::omt;
    use qca_smt::SmtSolver;

    fn knapsack_solver() -> (SmtSolver, Vec<Lit>, IntExpr) {
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let x: Vec<_> = (0..3).map(|_| smt.new_bool()).collect();
        let weight = smt.pb_sum(0, &[(3, x[0]), (4, x[1]), (5, x[2])]);
        let cap = smt.int_const(7);
        smt.assert_ge(&cap, &weight);
        let value = smt.pb_sum(0, &[(4, x[0]), (5, x[1]), (6, x[2])]);
        (smt, x, value)
    }

    #[test]
    fn reconstruction_check_accepts_extended_models_and_rejects_fakes() {
        use qca_sat::analyze::{preprocess, PreprocessOptions};
        use qca_sat::Var;
        // (x1 ∨ x2) ∧ (¬x2 ∨ x3): x1 is pure and x3 only positive, so the
        // preprocessor eliminates work the reconstruction must undo.
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![
                vec![Var::from_index(0).lit(true), Var::from_index(1).lit(true)],
                vec![Var::from_index(1).lit(false), Var::from_index(2).lit(true)],
            ],
        };
        let pre = preprocess(&cnf, &PreprocessOptions::default(), None);
        assert!(!pre.unsat);
        // The simplified formula is trivially satisfiable — an all-None
        // partial model is enough once reconstruction replays.
        let model = vec![None; pre.cnf.num_vars];
        let total = check_reconstruction(&cnf, &pre.reconstruction, &model)
            .expect("reconstructed model satisfies the original");
        assert_eq!(total.len(), 3);

        // A fabricated falsifying assignment must be caught: an empty
        // reconstruction leaves all-false, which falsifies clause 0.
        let empty = preprocess(
            &Cnf {
                num_vars: 3,
                clauses: vec![],
            },
            &PreprocessOptions::default(),
            None,
        )
        .reconstruction;
        let err = check_reconstruction(&cnf, &empty, &[None, None, None])
            .expect_err("all-false assignment falsifies the original");
        assert_eq!(err.clause, 0);
        assert!(err.to_string().contains("clause #0"));
    }

    #[test]
    fn audits_a_sound_solve() {
        let (mut smt, _x, value) = knapsack_solver();
        let best = omt::maximize(&mut smt, &value).expect("sat");
        let bundle = smt.take_audit_bundle(best.model).expect("recording on");
        let stats = audit_model(&bundle).expect("audit passes");
        assert!(stats.constraints_checked > 0);
        assert!(stats.clauses_checked > 0);
    }

    #[test]
    fn audits_exercise_every_constraint_kind() {
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let b = smt.new_bool();
        let x = smt.new_int(1, 9);
        let y = smt.new_int(0, 4);
        let s = smt.add(&x, &y);
        let p = smt.pb_sum(2, &[(3, b)]);
        let m2 = smt.mul_const(&y, 2);
        let d = smt.sub_from_const(20, &x);
        smt.assert_ge(&x, &y);
        let g = smt.ge_reified(&s, &d);
        smt.add_clause(&[g, b]);
        let t = smt.ite(b, &x, &y);
        let mx = smt.max_of(&[s.clone(), p.clone(), m2.clone(), t.clone()]);
        let cap = smt.int_const(30);
        smt.assert_ge(&cap, &mx);
        let model = smt.check().expect("sat");
        let bundle = smt.take_audit_bundle(model).expect("recording on");
        let stats = audit_model(&bundle).expect("audit passes");
        // Every recorded constraint is over pre-solve variables, so nothing
        // is indeterminate.
        assert_eq!(stats.constraints_indeterminate, 0);
        assert_eq!(stats.clauses_indeterminate, 0);
    }

    #[test]
    fn detects_fabricated_violation() {
        // Hand-build a bundle whose constraint trail contains a false
        // statement: out == x + y with out = x (and y >= 1 in every model).
        let mut smt = SmtSolver::new();
        smt.enable_recording();
        let x = smt.new_int(1, 5);
        let y = smt.new_int(1, 5);
        let model = smt.check().expect("sat");
        let mut bundle = smt.take_audit_bundle(model).expect("recording on");
        bundle.constraints.push(RecordedConstraint::Add {
            out: x.clone(),
            a: x,
            b: y,
        });
        let err = audit_model(&bundle).expect_err("false statement must fail");
        assert!(matches!(err, ModelAuditError::ConstraintViolated { .. }));
    }

    #[test]
    fn post_snapshot_constraints_are_indeterminate_not_failures() {
        let (mut smt, _x, value) = knapsack_solver();
        let best = omt::maximize(&mut smt, &value).expect("sat");
        // Allocate fresh structure after the model snapshot; its records
        // mention variables the model cannot evaluate.
        let z = smt.new_int(0, 3);
        let bound = smt.int_const(2);
        let _ = smt.ge_reified(&z, &bound);
        let bundle = smt.take_audit_bundle(best.model).expect("recording on");
        let stats = audit_model(&bundle).expect("audit passes");
        assert!(stats.constraints_indeterminate > 0);
    }

    #[test]
    fn certificate_checks_and_corruption_is_rejected() {
        let (mut smt, _x, value) = knapsack_solver();
        let mut best = omt::maximize(&mut smt, &value).expect("sat");
        let cert = omt::certify(&mut smt, &value, &mut best).expect("certified");
        check_certificate(&cert).expect("valid certificate");

        // The cheapest robust corruption is to swap the refuted claim out
        // from under the proof: the negated unit asserts the bound holds,
        // which the proof does not refute.
        let mut bad = cert.clone();
        bad.refuted = !bad.refuted;
        assert!(check_certificate(&bad).is_err());
    }
}
