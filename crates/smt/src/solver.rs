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
use qca_sat::{Lit, MemoryProof, SolveOutcome, Solver};

/// A bounded integer expression: `value = offset + unsigned(bits)`.
///
/// Carries bounds `lo..=hi` that hold in every model: [`SmtSolver::add`]
/// sizes its result from them, and the optimization loop starts its
/// bracket from them.
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
    /// The constant-false literal, allocated on first use; `!fal` is true.
    pub(crate) fal: Option<Lit>,
    pub(crate) records: Option<Vec<RecordedConstraint>>,
    /// The SAT solver's DRAT log, on while recording is.
    pub(crate) proof: Option<MemoryProof>,
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
            records: None,
            proof: None,
        }
    }

    /// Enables constraint recording for post-hoc auditing: every constraint
    /// issued through the public API from now on is stored as a
    /// [`RecordedConstraint`], the underlying SAT solver records its
    /// shadow formula (axiom clauses pre-simplification), and it logs a
    /// DRAT proof of every clause it derives, which
    /// [`crate::omt::certify`] turns into an optimality certificate. Call
    /// immediately after construction so the record and the proof cover
    /// the whole encoding.
    pub fn enable_recording(&mut self) {
        if self.records.is_none() {
            self.records = Some(Vec::new());
            let proof = MemoryProof::new();
            self.sat.set_proof(Box::new(proof.clone()));
            self.proof = Some(proof);
        }
        self.sat.enable_clause_recording();
    }

    /// Moves the recorded constraints out into an [`AuditBundle`] for
    /// `qca-verify`, with `model` and the SAT solver's shared
    /// [`shadow_formula`](qca_sat::Solver::shadow_formula). Constraint
    /// recording ends here. `None` if recording is disabled.
    pub fn take_audit_bundle(&mut self, model: SmtModel) -> Option<AuditBundle> {
        let mut constraints = self.records.take()?;
        constraints.shrink_to_fit();
        Some(AuditBundle {
            constraints,
            cnf: self.sat.shadow_formula()?,
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
    /// raw clauses).
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

    /// Number of problem clauses in the SAT solver's database (after its
    /// level-0 simplification; learnt clauses excluded).
    pub fn num_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// The constant-false literal.
    fn fal(&mut self) -> Lit {
        bitvec::false_lit(&mut self.sat, &mut self.fal)
    }

    /// The value of `e` when every bit is a constant literal.
    fn const_value(&self, e: &IntExpr) -> Option<i64> {
        let f = self.fal?;
        let mut u = 0u64;
        for (i, &b) in e.bits.iter().enumerate() {
            if bitvec::constant(b, f)? {
                u |= 1 << i;
            }
        }
        Some(e.offset + u as i64)
    }

    /// Re-expresses `e` at a lower `offset` (same value, wider bits).
    fn rebased(&mut self, e: &IntExpr, offset: i64) -> IntExpr {
        debug_assert!(offset <= e.offset);
        let bits = if e.offset == offset {
            e.bits.clone()
        } else {
            let f = self.fal();
            let shift = bitvec::const_bits(f, (e.offset - offset) as u64);
            let width = e.bits.len().max(shift.len()) + 1;
            bitvec::add_bits(&mut self.sat, f, &e.bits, &shift, width)
        };
        IntExpr {
            bits,
            offset,
            lo: e.lo,
            hi: e.hi,
        }
    }

    /// A constant integer expression.
    pub fn int_const(&mut self, v: i64) -> IntExpr {
        let f = self.fal();
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
        let bits: Vec<Lit> = (0..bitvec::width_of(span))
            .map(|_| self.new_bool())
            .collect();
        // Enforce bits <= span so bounds stay exact.
        let f = self.fal();
        let span_bits = bitvec::const_bits(f, span);
        let le = bitvec::ge_reified(&mut self.sat, f, &span_bits, &bits);
        self.sat.add_clause(&[le]);
        let out = IntExpr {
            bits,
            offset: lo,
            lo,
            hi,
        };
        self.record(|| RecordedConstraint::IntVar { out: out.clone() });
        out
    }

    /// Sum of two expressions. The result is as wide as its bounds need:
    /// a carry out that no model can set is not encoded.
    pub fn add(&mut self, a: &IntExpr, b: &IntExpr) -> IntExpr {
        let f = self.fal();
        let span = (a.hi - a.offset) + (b.hi - b.offset);
        let width = bitvec::width_of(span.max(0) as u64).min(a.bits.len().max(b.bits.len()) + 1);
        let bits = bitvec::add_bits(&mut self.sat, f, &a.bits, &b.bits, width);
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

    /// Sum of expressions as a balanced tree of [`SmtSolver::add`]s, so
    /// each adder is only as wide as its subtree's bounds need; `0` for an
    /// empty list.
    pub fn sum(&mut self, exprs: &[IntExpr]) -> IntExpr {
        let mut level = exprs.to_vec();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => self.add(a, b),
                    _ => pair[0].clone(),
                })
                .collect();
        }
        level.pop().unwrap_or_else(|| self.int_const(0))
    }

    /// A linear pseudo-Boolean sum `base + Σ w_i · b_i`.
    ///
    /// Negative weights are folded into the offset (`w·b = w - w·(1-b)`), so
    /// the bit-level sum only ever adds non-negative quantities.
    pub fn pb_sum(&mut self, base: i64, terms: &[(i64, Lit)]) -> IntExpr {
        let (addends, offset, lo, hi) = self.pb_addends(base, terms);
        let bits = self.sum_tree(addends, None);
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

    /// [`SmtSolver::pb_sum`] for a sum the caller knows is non-negative in
    /// every model, e.g. a block duration whose negative terms exclude each
    /// other. The result has offset 0, so such sums, and the `add`/`max_of`
    /// expressions built from them, share one offset and never need
    /// rebasing.
    ///
    /// The bits hold the sum modulo `2^w`, with `w` the width of the
    /// largest value: exact in every model, but not in assignments the
    /// other constraints exclude. A negative offset costs nothing: it is
    /// added, modulo `2^w`, as a constant to the first term, where it folds
    /// into wires.
    pub fn pb_sum_nonneg(&mut self, base: i64, terms: &[(i64, Lit)]) -> IntExpr {
        let (mut addends, offset, lo, hi) = self.pb_addends(base, terms);
        let (lo, hi) = (lo.max(0), hi.max(0));
        let width = bitvec::width_of(hi as u64);
        let shift = offset.rem_euclid(1 << width) as u64;
        if shift != 0 {
            let f = self.fal();
            addends.insert(0, bitvec::const_bits(f, shift));
        }
        let bits = self.sum_tree(addends, Some(width));
        let out = IntExpr {
            bits,
            offset: 0,
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

    /// The non-negative addends of `base + Σ w_i · b_i` with its offset and
    /// bounds: `(addends, offset, lo, hi)`.
    fn pb_addends(&mut self, base: i64, terms: &[(i64, Lit)]) -> (Vec<Vec<Lit>>, i64, i64, i64) {
        let f = self.fal();
        let mut offset = base;
        let mut hi = base;
        let mut addends: Vec<Vec<Lit>> = Vec::new();
        for &(w, l) in terms {
            if w > 0 {
                addends.push(bitvec::gated_const_bits(f, l, w as u64));
                hi += w;
            } else if w < 0 {
                // w·b = w + (-w)·(1-b)
                offset += w;
                addends.push(bitvec::gated_const_bits(f, !l, (-w) as u64));
            }
        }
        (addends, offset, offset, hi)
    }

    /// Balanced-tree summation (keeps adder widths small), modulo
    /// `2^width` when a width is given.
    fn sum_tree(&mut self, mut addends: Vec<Vec<Lit>>, width: Option<usize>) -> Vec<Lit> {
        let f = self.fal();
        if addends.is_empty() {
            return vec![f];
        }
        while addends.len() > 1 {
            let mut next = Vec::with_capacity(addends.len() / 2 + 1);
            let mut it = addends.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        let exact = a.len().max(b.len()) + 1;
                        let w = width.map_or(exact, |w| w.min(exact));
                        next.push(bitvec::add_bits(&mut self.sat, f, &a, &b, w));
                    }
                    None => next.push(a),
                }
            }
            addends = next;
        }
        let mut bits = addends.pop().expect("nonempty by construction");
        if let Some(w) = width {
            bits.truncate(w);
        }
        bits
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
        let f = self.fal();
        let bits = bitvec::mul_const_bits(&mut self.sat, f, &a.bits, k as u64);
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
        let width = e.bits.len().max(bitvec::width_of(cu));
        // cu - u = cu + (2^w - 1 - u) + 1 (mod 2^w): one constant addition
        // to the complemented bits.
        let f = self.fal();
        let not_bits: Vec<Lit> = (0..width)
            .map(|i| e.bits.get(i).map_or(!f, |&b| !b))
            .collect();
        let c_bits = bitvec::const_bits(f, cu + 1);
        let bits = bitvec::add_bits(&mut self.sat, f, &not_bits, &c_bits, width);
        let out = IntExpr {
            bits,
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

    /// The bits of `a` and `b` at one common offset, so raw bit comparison
    /// is valid. A constant side absorbs the other side's offset (no
    /// adder); otherwise the side with the larger offset is rebased.
    fn aligned_bits(&mut self, a: &IntExpr, b: &IntExpr) -> (Vec<Lit>, Vec<Lit>) {
        let f = self.fal();
        if a.offset == b.offset {
            return (a.bits.clone(), b.bits.clone());
        }
        if let Some(v) = self.const_value(b) {
            // a >= v  <=>  a.bits >= v - a.offset (always, when that is <= 0).
            let rhs = (v - a.offset).max(0) as u64;
            return (a.bits.clone(), bitvec::const_bits(f, rhs));
        }
        if let Some(v) = self.const_value(a) {
            // v >= b  <=>  v - b.offset >= b.bits (never, when that is < 0).
            let lhs = v - b.offset;
            if lhs < 0 {
                return (vec![f], vec![!f]);
            }
            return (bitvec::const_bits(f, lhs as u64), b.bits.clone());
        }
        let base = a.offset.min(b.offset);
        (self.rebased(a, base).bits, self.rebased(b, base).bits)
    }

    /// Asserts `a >= b`.
    pub fn assert_ge(&mut self, a: &IntExpr, b: &IntExpr) {
        self.record(|| RecordedConstraint::Ge {
            a: a.clone(),
            b: b.clone(),
        });
        let (ab, bb) = self.aligned_bits(a, b);
        let f = self.fal();
        let r = bitvec::ge_reified(&mut self.sat, f, &ab, &bb);
        self.sat.add_clause(&[r]);
    }

    /// Returns a literal equivalent to `a >= b`.
    pub fn ge_reified(&mut self, a: &IntExpr, b: &IntExpr) -> Lit {
        let (ab, bb) = self.aligned_bits(a, b);
        let f = self.fal();
        let lit = bitvec::ge_reified(&mut self.sat, f, &ab, &bb);
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
        let ab = self.rebased(a, base).bits;
        let bb = self.rebased(b, base).bits;
        let f = self.fal();
        let bits = bitvec::mux_bits(&mut self.sat, f, cond, &ab, &bb);
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
    /// Operands are first brought to their smallest offset, each at most
    /// once, so the comparator/mux fold below needs no rebasing; operands
    /// that already share an offset cost no adder at all.
    ///
    /// # Panics
    ///
    /// Panics if `exprs` is empty.
    pub fn max_of(&mut self, exprs: &[IntExpr]) -> IntExpr {
        assert!(!exprs.is_empty(), "max over empty set");
        let base = exprs.iter().map(|e| e.offset).min().expect("nonempty");
        let mut acc = self.rebased(&exprs[0], base);
        for e in &exprs[1..] {
            let e = self.rebased(e, base);
            let c = self.ge_reified(&acc, &e);
            // `ite` bounds are branch-generic (lo = min); the max is
            // additionally >= both operands, so its lower bound tightens
            // to the larger operand lo.
            let lo = acc.lo.max(e.lo);
            acc = self.ite(c, &acc, &e);
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
