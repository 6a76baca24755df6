//! Constraint recording for post-hoc model auditing.
//!
//! When recording is enabled ([`crate::SmtSolver::enable_recording`]), every
//! constraint issued through the solver's *public* API is stored as a
//! [`RecordedConstraint`] — a semantic statement over [`IntExpr`]s and
//! literals that an independent auditor (the `qca-verify` crate) can replay
//! against a returned model without trusting the bit-blasted encoding.
//! In parallel, the underlying SAT solver records its *shadow formula* (the
//! axiom clauses exactly as submitted, before simplification), so the same
//! bundle supports clause-level replay and UNSAT certificate construction.
//!
//! Internal encodings (`max_of` is a fold of `ge_reified` + `ite`) surface
//! as their constituent records plus a summary record; every entry is a true
//! statement about the constraint system, so redundancy only strengthens the
//! audit.

use crate::solver::{IntExpr, SmtModel};
use qca_sat::dimacs::Cnf;
use qca_sat::Lit;
use std::sync::Arc;

/// One semantic constraint as issued through the [`crate::SmtSolver`] API.
///
/// Each variant states an exact relation that must hold in every model; the
/// auditor evaluates both sides with [`SmtModel::int_value`] /
/// [`SmtModel::lit_value`] and flags any violation.
#[derive(Debug, Clone)]
pub enum RecordedConstraint {
    /// At least one literal is true ([`crate::SmtSolver::add_clause`]).
    Clause(Vec<Lit>),
    /// `out` is a fresh integer constrained to `out.lo ..= out.hi`.
    IntVar {
        /// The variable expression (bounds carried on the expression).
        out: IntExpr,
    },
    /// `out == a + b`.
    Add {
        /// Sum expression.
        out: IntExpr,
        /// Left addend.
        a: IntExpr,
        /// Right addend.
        b: IntExpr,
    },
    /// `out == base + Σ wᵢ·bᵢ` over the given weighted literals.
    PbSum {
        /// Sum expression.
        out: IntExpr,
        /// Constant base term.
        base: i64,
        /// `(weight, literal)` terms.
        terms: Vec<(i64, Lit)>,
    },
    /// `out == k · a`.
    MulConst {
        /// Product expression.
        out: IntExpr,
        /// Multiplicand.
        a: IntExpr,
        /// Constant factor.
        k: i64,
    },
    /// `out == c - e`.
    SubFromConst {
        /// Difference expression.
        out: IntExpr,
        /// Constant minuend.
        c: i64,
        /// Subtrahend.
        e: IntExpr,
    },
    /// `a >= b` ([`crate::SmtSolver::assert_ge`]).
    Ge {
        /// Greater side.
        a: IntExpr,
        /// Smaller side.
        b: IntExpr,
    },
    /// `lit ⇔ (a >= b)` ([`crate::SmtSolver::ge_reified`]).
    GeReified {
        /// The reifying literal.
        lit: Lit,
        /// Greater side.
        a: IntExpr,
        /// Smaller side.
        b: IntExpr,
    },
    /// `out == (cond ? a : b)`.
    Ite {
        /// Result expression.
        out: IntExpr,
        /// Selector literal.
        cond: Lit,
        /// Then-branch expression.
        a: IntExpr,
        /// Else-branch expression.
        b: IntExpr,
    },
    /// `out == max(exprs)`.
    MaxOf {
        /// Result expression.
        out: IntExpr,
        /// The expressions maximized over.
        exprs: Vec<IntExpr>,
    },
}

/// Everything an independent auditor needs to replay a solve: the semantic
/// constraint trail, the clause-level shadow formula, and the model under
/// audit.
#[derive(Debug, Clone)]
pub struct AuditBundle {
    /// Semantic constraints in issue order.
    pub constraints: Vec<RecordedConstraint>,
    /// The axiom clauses exactly as submitted to the SAT solver
    /// (pre-simplification), covering both user clauses and the bit-blasted
    /// definitional clauses of every arithmetic expression. A certified
    /// solve's [`OptimalityCertificate`](crate::omt::OptimalityCertificate)
    /// holds the same `Arc`.
    pub cnf: Arc<Cnf>,
    /// The model to audit.
    pub model: SmtModel,
}
