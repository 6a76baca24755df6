//! The SMT solver: integer expressions over Booleans, bit-blasted to CNF.
//!
//! [`SmtSolver`] offers a small quantifier-free fragment tailored to the
//! quantum-circuit-adaptation model of the paper:
//!
//! * Boolean variables and clauses (substitution choices, Eq. 1),
//! * linear pseudo-Boolean sums (block durations/fidelities, Eqs. 3–6),
//! * bounded integer variables with `>=` constraints (block start times and
//!   makespan, Eq. 2),
//! * linear objective maximization (Eqs. 8–10) via [`crate::omt`].
//!
//! Integers are represented as unsigned little-endian bit vectors plus a
//! signed offset, so negative quantities (log-fidelities) cost nothing extra.

use crate::bitvec;
use crate::record::{AuditBundle, RecordedConstraint};
use qca_sat::{Lit, SolveOutcome, Solver};

/// A bounded integer expression: `value = offset + unsigned(bits)`.
///
/// Carries conservative bounds `lo..=hi` used for width sizing and for the
/// optimization loop's initial bracket.
#[derive(Debug, Clone)]
pub struct IntExpr {
    pub(crate) bits: Vec<Lit>,
    pub(crate) offset: i64,
    /// Smallest value the expression can take.
    pub lo: i64,
    /// Largest value the expression can take.
    pub hi: i64,
}

impl IntExpr {
    /// Reassembles an expression from its raw parts — the inverse of
    /// [`IntExpr::bits`]/[`IntExpr::offset`]. Exists for serializers
    /// (e.g. `qca-store`'s on-disk audit-bundle codec) that must round-trip
    /// expressions exactly; the parts are not validated, so only feed back
    /// values previously read from a real expression.
    pub fn from_parts(bits: Vec<Lit>, offset: i64, lo: i64, hi: i64) -> IntExpr {
        IntExpr {
            bits,
            offset,
            lo,
            hi,
        }
    }

    /// The expression's bit literals, least-significant first.
    pub fn bits(&self) -> &[Lit] {
        &self.bits
    }

    /// The constant offset added to the unsigned value of the bits.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Returns the same expression shifted by a constant (free: only the
    /// offset changes, no new clauses).
    pub fn shifted(&self, delta: i64) -> IntExpr {
        IntExpr {
            bits: self.bits.clone(),
            offset: self.offset + delta,
            lo: self.lo + delta,
            hi: self.hi + delta,
        }
    }
}

/// A satisfying assignment snapshot.
#[derive(Debug, Clone)]
pub struct SmtModel {
    values: Vec<Option<bool>>,
}

impl SmtModel {
    /// Wraps raw per-variable values (e.g. a winning portfolio member's
    /// model over the exported formula, which shares this solver's variable
    /// numbering) as a model snapshot.
    pub(crate) fn from_values(values: Vec<Option<bool>>) -> SmtModel {
        SmtModel { values }
    }

    /// Reassembles a model from raw per-variable values — the inverse of
    /// [`SmtModel::values`], for serializers that round-trip audit bundles.
    pub fn from_raw_values(values: Vec<Option<bool>>) -> SmtModel {
        SmtModel { values }
    }

    /// The raw per-variable assignment, indexed by variable index.
    pub fn values(&self) -> &[Option<bool>] {
        &self.values
    }

    /// Truth value of a literal in the model (`false` for unassigned).
    pub fn lit_is_true(&self, l: Lit) -> bool {
        self.lit_value(l).unwrap_or(false)
    }

    /// Tri-state truth value of a literal: `None` when the variable is not
    /// covered by this model (e.g. it was allocated after the snapshot).
    pub fn lit_value(&self, l: Lit) -> Option<bool> {
        self.values
            .get(l.var().index())
            .copied()
            .flatten()
            .map(|b| b == l.is_positive())
    }

    /// Integer value of an expression in the model.
    pub fn int_value(&self, e: &IntExpr) -> i64 {
        let u = bitvec::eval_bits(&e.bits, |l| self.lit_is_true(l));
        e.offset + u as i64
    }

    /// Integer value of an expression, or `None` when any bit of the
    /// expression is not covered by this model (e.g. the expression was
    /// built after the snapshot). Auditors use this to distinguish a real
    /// violation from an indeterminate constraint.
    pub fn int_value_checked(&self, e: &IntExpr) -> Option<i64> {
        let mut u = 0u64;
        for (i, &b) in e.bits.iter().enumerate() {
            if self.lit_value(b)? {
                u |= 1 << i;
            }
        }
        Some(e.offset + u as i64)
    }
}

/// SMT solver over Booleans and bounded integers.
///
/// # Examples
///
/// ```
/// use qca_smt::SmtSolver;
///
/// let mut smt = SmtSolver::new();
/// let picked = smt.new_bool();
/// // cost = 10 + 5*picked
/// let cost = smt.pb_sum(10, &[(5, picked)]);
/// let limit = smt.int_const(12);
/// smt.assert_ge(&limit, &cost); // cost <= 12
/// smt.add_clause(&[picked]);    // but we want to pick it
/// assert!(smt.check().is_none()); // 15 > 12: unsat
/// ```
#[derive(Debug)]
pub struct SmtSolver {
    pub(crate) sat: Solver,
    pub(crate) fal: Option<Lit>,
    pub(crate) tru: Option<Lit>,
    pub(crate) records: Option<Vec<RecordedConstraint>>,
}

impl Default for SmtSolver {
    fn default() -> Self {
        SmtSolver::new()
    }
}

impl SmtSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SmtSolver {
            sat: Solver::new(),
            fal: None,
            tru: None,
            records: None,
        }
    }

    /// Enables constraint recording for post-hoc auditing: every constraint
    /// issued through the public API from now on is stored as a
    /// [`RecordedConstraint`], and the underlying SAT solver records its
    /// shadow formula (axiom clauses pre-simplification). Call immediately
    /// after construction so the record covers the whole encoding.
    pub fn enable_recording(&mut self) {
        if self.records.is_none() {
            self.records = Some(Vec::new());
        }
        self.sat.enable_clause_recording();
    }

    /// `true` while constraint recording is enabled.
    pub fn recording_enabled(&self) -> bool {
        self.records.is_some()
    }

    /// The constraints recorded so far (`None` if recording is disabled).
    pub fn records(&self) -> Option<&[RecordedConstraint]> {
        self.records.as_deref()
    }

    /// The clause-level shadow formula recorded by the underlying SAT solver
    /// (`None` if recording is disabled).
    pub fn recorded_cnf(&self) -> Option<qca_sat::dimacs::Cnf> {
        self.sat.recorded_cnf()
    }

    /// Packages the recorded constraints, the shadow formula, and `model`
    /// into an [`AuditBundle`] for `qca-verify`. `None` if recording is
    /// disabled.
    pub fn audit_bundle(&self, model: SmtModel) -> Option<AuditBundle> {
        Some(AuditBundle {
            constraints: self.records.as_ref()?.clone(),
            cnf: self.recorded_cnf()?,
            model,
        })
    }

    #[inline]
    fn record(&mut self, make: impl FnOnce() -> RecordedConstraint) {
        if let Some(r) = self.records.as_mut() {
            r.push(make());
        }
    }

    /// Allocates a fresh Boolean variable, returned as its positive literal.
    pub fn new_bool(&mut self) -> Lit {
        self.sat.new_var().positive()
    }

    /// Adds a clause over Boolean literals.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.record(|| RecordedConstraint::Clause(lits.to_vec()));
        self.sat.add_clause(lits);
    }

    /// Adds a clause the caller asserts to be a *consequence* of the
    /// existing constraints (e.g. an optimizer's refuted-bound clause). The
    /// clause is excluded from both the semantic record and the SAT shadow
    /// formula, so exported certificates are stated over the axioms alone.
    pub fn add_clause_derived(&mut self, lits: &[Lit]) {
        self.sat.add_clause_derived(lits);
    }

    /// Direct access to the underlying SAT solver (for encodings that need
    /// raw clauses, e.g. cardinality helpers from [`qca_sat::encode`]).
    pub fn sat_mut(&mut self) -> &mut Solver {
        &mut self.sat
    }

    /// Cumulative statistics of the underlying SAT solver (conflicts,
    /// restarts, learnt clauses, ...), spanning every check/probe made
    /// through this solver.
    pub fn stats(&self) -> &qca_sat::SolverStats {
        self.sat.stats()
    }

    /// Installs caller-side run controls (lifetime conflict cap,
    /// cancellation flag, tracer) on the underlying SAT solver; see
    /// [`qca_sat::SolveControl`].
    pub fn set_control(&mut self, control: qca_sat::SolveControl) {
        self.sat.set_control(control);
    }

    /// The currently installed run controls.
    pub fn control(&self) -> &qca_sat::SolveControl {
        self.sat.control()
    }

    /// The tracer receiving span/counter events for this solver's work.
    pub fn tracer(&self) -> &qca_trace::Tracer {
        &self.sat.control().tracer
    }

    /// Number of SAT variables allocated (Booleans plus bit-blasting
    /// auxiliaries).
    pub fn num_sat_vars(&self) -> usize {
        self.sat.num_vars()
    }

    /// A constant integer expression.
    pub fn int_const(&mut self, v: i64) -> IntExpr {
        let f = bitvec::false_lit(&mut self.sat, &mut self.fal);
        IntExpr {
            bits: vec![f],
            offset: v,
            lo: v,
            hi: v,
        }
    }

    /// A fresh integer variable constrained to `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new_int(&mut self, lo: i64, hi: i64) -> IntExpr {
        assert!(lo <= hi, "empty integer domain");
        let span = (hi - lo) as u64;
        let width = (64 - span.leading_zeros()).max(1) as usize;
        let bits: Vec<Lit> = (0..width).map(|_| self.new_bool()).collect();
        // Enforce bits <= span so bounds stay exact.
        let span_bits = bitvec::const_bits(&mut self.sat, span, &mut self.fal, &mut self.tru);
        bitvec::assert_ge(
            &mut self.sat,
            &span_bits,
            &bits,
            &mut self.fal,
            &mut self.tru,
        );
        let out = IntExpr {
            bits,
            offset: lo,
            lo,
            hi,
        };
        self.record(|| RecordedConstraint::IntVar { out: out.clone() });
        out
    }

    /// Sum of two expressions.
    pub fn add(&mut self, a: &IntExpr, b: &IntExpr) -> IntExpr {
        let bits = bitvec::add_bits(&mut self.sat, &a.bits, &b.bits, &mut self.fal);
        let out = IntExpr {
            bits,
            offset: a.offset + b.offset,
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
        };
        self.record(|| RecordedConstraint::Add {
            out: out.clone(),
            a: a.clone(),
            b: b.clone(),
        });
        out
    }

    /// A linear pseudo-Boolean sum `base + Σ w_i · b_i`.
    ///
    /// Negative weights are folded into the offset (`w·b = w - w·(1-b)`), so
    /// the bit-level sum only ever adds non-negative quantities.
    pub fn pb_sum(&mut self, base: i64, terms: &[(i64, Lit)]) -> IntExpr {
        let mut offset = base;
        let mut lo = base;
        let mut hi = base;
        let mut addends: Vec<Vec<Lit>> = Vec::new();
        for &(w, l) in terms {
            if w == 0 {
                continue;
            }
            if w > 0 {
                addends.push(bitvec::gated_const_bits(
                    &mut self.sat,
                    l,
                    w as u64,
                    &mut self.fal,
                ));
                hi += w;
            } else {
                // w < 0: w·b = w + (-w)·(1-b)
                offset += w;
                lo += w;
                addends.push(bitvec::gated_const_bits(
                    &mut self.sat,
                    !l,
                    (-w) as u64,
                    &mut self.fal,
                ));
            }
        }
        // Balanced-tree summation keeps adder widths small.
        let bits = self.sum_tree(addends);
        let out = IntExpr {
            bits,
            offset,
            lo,
            hi,
        };
        self.record(|| RecordedConstraint::PbSum {
            out: out.clone(),
            base,
            terms: terms.to_vec(),
        });
        out
    }

    fn sum_tree(&mut self, mut addends: Vec<Vec<Lit>>) -> Vec<Lit> {
        if addends.is_empty() {
            return vec![bitvec::false_lit(&mut self.sat, &mut self.fal)];
        }
        while addends.len() > 1 {
            let mut next = Vec::with_capacity(addends.len() / 2 + 1);
            let mut it = addends.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(bitvec::add_bits(&mut self.sat, &a, &b, &mut self.fal)),
                    None => next.push(a),
                }
            }
            addends = next;
        }
        addends.pop().expect("nonempty by construction")
    }

    /// Multiplies an expression by a non-negative constant.
    ///
    /// # Panics
    ///
    /// Panics if `k < 0`.
    pub fn mul_const(&mut self, a: &IntExpr, k: i64) -> IntExpr {
        assert!(k >= 0, "mul_const requires a non-negative factor");
        if k == 0 {
            return self.int_const(0);
        }
        let bits = bitvec::mul_const_bits(
            &mut self.sat,
            &a.bits,
            k as u64,
            &mut self.fal,
            &mut self.tru,
        );
        let out = IntExpr {
            bits,
            offset: a.offset * k,
            lo: a.lo * k,
            hi: a.hi * k,
        };
        self.record(|| RecordedConstraint::MulConst {
            out: out.clone(),
            a: a.clone(),
            k,
        });
        out
    }

    /// Computes `c - e` for a constant `c >= e.hi`.
    ///
    /// Uses two's-complement subtraction with a statically known carry-out,
    /// so the result is functionally determined by `e`'s bits (no fresh
    /// unconstrained variables).
    ///
    /// # Panics
    ///
    /// Panics if `c < e.hi` (the result could be negative in raw bits).
    pub fn sub_from_const(&mut self, c: i64, e: &IntExpr) -> IntExpr {
        assert!(c >= e.hi, "sub_from_const requires c >= e.hi");
        // value(e) = e.offset + u where u in [0, e.hi - e.offset].
        // c - value(e) = (c - e.offset) - u, with cu := c - e.offset >= u.
        let cu = (c - e.offset) as u64;
        let width = e.bits.len().max((64 - cu.leading_zeros()).max(1) as usize);
        // t = cu + (2^w - 1 - u) + 1 = cu - u + 2^w: low w bits are cu - u.
        let not_bits: Vec<qca_sat::Lit> = (0..width)
            .map(|i| match e.bits.get(i) {
                Some(&b) => !b,
                None => bitvec::true_lit(&mut self.sat, &mut self.tru),
            })
            .collect();
        let c_bits = bitvec::const_bits(&mut self.sat, cu, &mut self.fal, &mut self.tru);
        let one = bitvec::const_bits(&mut self.sat, 1, &mut self.fal, &mut self.tru);
        let s1 = bitvec::add_bits(&mut self.sat, &not_bits, &one, &mut self.fal);
        let mut s2 = bitvec::add_bits(&mut self.sat, &s1, &c_bits, &mut self.fal);
        s2.truncate(width);
        let out = IntExpr {
            bits: s2,
            offset: 0,
            lo: c - e.hi,
            hi: c - e.lo,
        };
        self.record(|| RecordedConstraint::SubFromConst {
            out: out.clone(),
            c,
            e: e.clone(),
        });
        out
    }

    /// Rebases two expressions to a common offset so raw bit comparison is
    /// valid, returning `(a_bits, b_bits)`.
    fn normalize_pair(&mut self, a: &IntExpr, b: &IntExpr) -> (Vec<Lit>, Vec<Lit>) {
        let diff = a.offset - b.offset;
        if diff == 0 {
            (a.bits.clone(), b.bits.clone())
        } else if diff > 0 {
            let c = bitvec::const_bits(&mut self.sat, diff as u64, &mut self.fal, &mut self.tru);
            let abits = bitvec::add_bits(&mut self.sat, &a.bits, &c, &mut self.fal);
            (abits, b.bits.clone())
        } else {
            let c = bitvec::const_bits(&mut self.sat, (-diff) as u64, &mut self.fal, &mut self.tru);
            let bbits = bitvec::add_bits(&mut self.sat, &b.bits, &c, &mut self.fal);
            (a.bits.clone(), bbits)
        }
    }

    /// Asserts `a >= b`.
    pub fn assert_ge(&mut self, a: &IntExpr, b: &IntExpr) {
        self.record(|| RecordedConstraint::Ge {
            a: a.clone(),
            b: b.clone(),
        });
        let (ab, bb) = self.normalize_pair(a, b);
        bitvec::assert_ge(&mut self.sat, &ab, &bb, &mut self.fal, &mut self.tru);
    }

    /// Returns a literal equivalent to `a >= b`.
    pub fn ge_reified(&mut self, a: &IntExpr, b: &IntExpr) -> Lit {
        let (ab, bb) = self.normalize_pair(a, b);
        let lit = bitvec::ge_reified(&mut self.sat, &ab, &bb, &mut self.fal, &mut self.tru);
        self.record(|| RecordedConstraint::GeReified {
            lit,
            a: a.clone(),
            b: b.clone(),
        });
        lit
    }

    /// Asserts `a == b`.
    pub fn assert_eq(&mut self, a: &IntExpr, b: &IntExpr) {
        self.assert_ge(a, b);
        self.assert_ge(b, a);
    }

    /// Returns `cond ? a : b`.
    pub fn ite(&mut self, cond: Lit, a: &IntExpr, b: &IntExpr) -> IntExpr {
        let base = a.offset.min(b.offset);
        let rebase = |this: &mut Self, e: &IntExpr| -> Vec<Lit> {
            let d = e.offset - base;
            if d == 0 {
                e.bits.clone()
            } else {
                let c = bitvec::const_bits(&mut this.sat, d as u64, &mut this.fal, &mut this.tru);
                bitvec::add_bits(&mut this.sat, &e.bits, &c, &mut this.fal)
            }
        };
        let ab = rebase(self, a);
        let bb = rebase(self, b);
        let bits = bitvec::mux_bits(&mut self.sat, cond, &ab, &bb, &mut self.fal);
        let out = IntExpr {
            bits,
            offset: base,
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
        };
        self.record(|| RecordedConstraint::Ite {
            out: out.clone(),
            cond,
            a: a.clone(),
            b: b.clone(),
        });
        out
    }

    /// Elementwise maximum of expressions: returns `m` with constraints
    /// `m >= e_i` for all `i` and `m == e_j` for some `j`.
    ///
    /// # Panics
    ///
    /// Panics if `exprs` is empty.
    pub fn max_of(&mut self, exprs: &[IntExpr]) -> IntExpr {
        assert!(!exprs.is_empty(), "max over empty set");
        let mut acc = exprs[0].clone();
        for e in &exprs[1..] {
            let c = self.ge_reified(&acc, e);
            // `ite` bounds are branch-generic (lo = min); the max is
            // additionally >= both operands, so its lower bound tightens
            // to the larger operand lo.
            let lo = acc.lo.max(e.lo);
            acc = self.ite(c, &acc, e);
            acc.lo = lo;
        }
        self.record(|| RecordedConstraint::MaxOf {
            out: acc.clone(),
            exprs: exprs.to_vec(),
        });
        acc
    }

    /// Checks satisfiability of the current constraints, returning a model
    /// when satisfiable.
    pub fn check(&mut self) -> Option<SmtModel> {
        self.check_with_assumptions(&[])
    }

    /// Checks satisfiability under the given assumption literals.
    pub fn check_with_assumptions(&mut self, assumptions: &[Lit]) -> Option<SmtModel> {
        match self.sat.solve_limited(assumptions) {
            SolveOutcome::Sat => Some(self.snapshot()),
            _ => None,
        }
    }

    /// Like [`SmtSolver::check_with_assumptions`] but distinguishes
    /// budget exhaustion ([`SolveOutcome::Unknown`]) from unsatisfiability.
    pub fn probe_with_assumptions(
        &mut self,
        assumptions: &[Lit],
    ) -> (SolveOutcome, Option<SmtModel>) {
        match self.sat.solve_limited(assumptions) {
            SolveOutcome::Sat => (SolveOutcome::Sat, Some(self.snapshot())),
            other => (other, None),
        }
    }

    pub(crate) fn snapshot(&self) -> SmtModel {
        let values = (0..self.sat.num_vars())
            .map(|i| self.sat.value(qca_sat::Var::from_index(i)))
            .collect();
        SmtModel { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pb_sum_with_negative_weights() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        let b = smt.new_bool();
        let e = smt.pb_sum(100, &[(-30, a), (7, b)]);
        assert_eq!(e.lo, 70);
        assert_eq!(e.hi, 107);
        smt.add_clause(&[a]);
        smt.add_clause(&[!b]);
        let m = smt.check().expect("sat");
        assert_eq!(m.int_value(&e), 70);
    }

    #[test]
    fn int_var_respects_bounds() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int(5, 12);
        let lo = smt.int_const(5);
        let hi = smt.int_const(12);
        // x >= 5 and x <= 12 must hold in every model.
        let m = smt.check().expect("sat");
        let v = m.int_value(&x);
        assert!((5..=12).contains(&v), "v={v}");
        // force x > hi: unsat
        smt.assert_ge(&x, &hi);
        smt.assert_ge(&lo, &x);
        assert!(smt.check().is_none());
    }

    #[test]
    fn add_and_mul_const() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int(0, 10);
        let y = smt.new_int(0, 10);
        let s = smt.add(&x, &y);
        let p = smt.mul_const(&x, 3);
        let c7 = smt.int_const(7);
        let c4 = smt.int_const(4);
        smt.assert_eq(&x, &c4);
        smt.assert_eq(&y, &c7);
        let m = smt.check().expect("sat");
        assert_eq!(m.int_value(&s), 11);
        assert_eq!(m.int_value(&p), 12);
    }

    #[test]
    fn scheduling_chain() {
        // e1 >= e0 + d0, with d0 = 5 + 10*c; forcing e1 < 5 makes c and
        // anything else irrelevant: unsat only if e1 < minimum.
        let mut smt = SmtSolver::new();
        let c = smt.new_bool();
        let d0 = smt.pb_sum(5, &[(10, c)]);
        let e0 = smt.new_int(0, 100);
        let e1 = smt.new_int(0, 100);
        let sum = smt.add(&e0, &d0);
        smt.assert_ge(&e1, &sum);
        let c4 = smt.int_const(4);
        smt.assert_ge(&c4, &e1); // e1 <= 4 < 5: unsat regardless of c
        assert!(smt.check().is_none());
    }

    #[test]
    fn ite_and_max() {
        let mut smt = SmtSolver::new();
        let cond = smt.new_bool();
        let a = smt.int_const(3);
        let b = smt.int_const(9);
        let x = smt.ite(cond, &a, &b);
        let m = smt.max_of(&[a.clone(), b.clone()]);
        smt.add_clause(&[cond]);
        let model = smt.check().expect("sat");
        assert_eq!(model.int_value(&x), 3);
        assert_eq!(model.int_value(&m), 9);
    }

    #[test]
    fn max_of_variables() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int(0, 20);
        let y = smt.new_int(0, 20);
        let cx = smt.int_const(13);
        let cy = smt.int_const(8);
        smt.assert_eq(&x, &cx);
        smt.assert_eq(&y, &cy);
        let m = smt.max_of(&[x, y]);
        let model = smt.check().expect("sat");
        assert_eq!(model.int_value(&m), 13);
    }

    #[test]
    fn assumptions_respected() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        let e = smt.pb_sum(0, &[(1, a)]);
        let one = smt.int_const(1);
        smt.assert_ge(&e, &one); // force a
        assert!(smt.check_with_assumptions(&[!a]).is_none());
        let m = smt.check_with_assumptions(&[a]).expect("sat");
        assert!(m.lit_is_true(a));
    }

    #[test]
    fn sub_from_const_exact() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int(0, 25);
        let c13 = smt.int_const(13);
        smt.assert_eq(&x, &c13);
        let d = smt.sub_from_const(40, &x);
        assert_eq!(d.lo, 15);
        assert_eq!(d.hi, 40);
        let m = smt.check().expect("sat");
        assert_eq!(m.int_value(&d), 27);
    }

    #[test]
    fn sub_from_const_with_negative_offset() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        let e = smt.pb_sum(-5, &[(8, a)]); // in {-5, 3}
        let d = smt.sub_from_const(10, &e);
        smt.add_clause(&[a]);
        let m = smt.check().expect("sat");
        assert_eq!(m.int_value(&d), 7);
    }

    #[test]
    #[should_panic(expected = "sub_from_const")]
    fn sub_from_const_rejects_small_constant() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int(0, 100);
        let _ = smt.sub_from_const(50, &x);
    }

    #[test]
    fn shifted_preserves_bits_and_moves_bounds() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int(3, 9);
        let y = x.shifted(-3);
        assert_eq!((y.lo, y.hi), (0, 6));
        let c5 = smt.int_const(5);
        smt.assert_eq(&x, &c5);
        let m = smt.check().expect("sat");
        assert_eq!(m.int_value(&x), 5);
        assert_eq!(m.int_value(&y), 2);
    }

    #[test]
    fn max_of_bounds_are_conservative() {
        let mut smt = SmtSolver::new();
        let a = smt.new_int(0, 10);
        let b = smt.new_int(5, 7);
        let m = smt.max_of(&[a, b]);
        assert!(m.lo <= 5 && m.hi >= 10);
    }

    #[test]
    fn smt_solver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SmtSolver>();
        assert_send::<SmtModel>();
        assert_send::<IntExpr>();
    }

    #[test]
    fn negative_offsets_compare_correctly() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool();
        // e in {-10, -3}
        let e = smt.pb_sum(-10, &[(7, a)]);
        let c = smt.int_const(-5);
        smt.assert_ge(&e, &c); // needs e = -3, so a must hold
        let m = smt.check().expect("sat");
        assert!(m.lit_is_true(a));
        assert_eq!(m.int_value(&e), -3);
    }
}
