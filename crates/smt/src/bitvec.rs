//! Bit-vector circuit encodings over a CDCL SAT solver.
//!
//! The SMT engine bit-blasts integer arithmetic into CNF: ripple-carry
//! adders, constant multipliers (shift-add), unsigned comparators and
//! multiplexers, all Tseitin-encoded through [`qca_sat::Solver`].
//!
//! Bit order is least-significant first throughout.
//!
//! # Constant folding
//!
//! A solver has one constant literal `f`, fixed false by a unit clause;
//! constant true is `!f`. Every gate first folds its inputs, like a term
//! rewriter ahead of bit-blasting, and allocates a variable only for a
//! gate whose inputs are free, distinct and not complementary:
//!
//! * a repeated input (`x, x`) or a complementary pair (`x, !x`) decides
//!   the gate without the third input: `x + x + z` is `(z, x)`,
//!   `x + !x + z` is `(!z, z)`, `maj(x, x, z)` is `x`, `maj(x, !x, z)` is
//!   `z`;
//! * one constant input turns a full adder into a half adder
//!   (`x + y + 1` is the negated half adder of `!x, !y`) and a majority
//!   (comparator cell) into an AND or OR gate;
//! * a multiplexer with equal branches is the branch, with a constant
//!   selector the selected branch, and with a constant branch, or a
//!   branch equal to the selector or its negation, an AND or OR gate.
//!
//! Since there is one constant literal, two constant inputs are always
//! repeated or complementary, so the rules above cover every mix.
//! Constant-only arithmetic (and the low zero bits of a shifted addend)
//! therefore costs no variables and no clauses.

use qca_sat::{Lit, Solver};

/// Returns the solver's constant-false literal, allocating it (with its
/// unit clause) on first use. Its negation is the constant-true literal.
pub fn false_lit(s: &mut Solver, cache: &mut Option<Lit>) -> Lit {
    if let Some(l) = *cache {
        return l;
    }
    let l = s.new_var().positive();
    s.add_clause(&[!l]);
    *cache = Some(l);
    l
}

/// The constant value of `l` given the constant-false literal `f`.
pub(crate) fn constant(l: Lit, f: Lit) -> Option<bool> {
    if l == f {
        Some(false)
    } else if l == !f {
        Some(true)
    } else {
        None
    }
}

/// The three ways to split a gate's inputs into a pair and the rest.
fn splits(a: Lit, b: Lit, c: Lit) -> [(Lit, Lit, Lit); 3] {
    [(a, b, c), (a, c, b), (b, c, a)]
}

/// `a & b`.
fn and(s: &mut Solver, f: Lit, a: Lit, b: Lit) -> Lit {
    if a == b || b == !f {
        return a;
    }
    if a == !f {
        return b;
    }
    if a == !b || a == f || b == f {
        return f;
    }
    let o = s.new_var().positive();
    s.add_clause(&[!o, a]);
    s.add_clause(&[!o, b]);
    s.add_clause(&[o, !a, !b]);
    o
}

/// `a | b`.
fn or(s: &mut Solver, f: Lit, a: Lit, b: Lit) -> Lit {
    !and(s, f, !a, !b)
}

/// `a ^ b`.
fn xor(s: &mut Solver, f: Lit, a: Lit, b: Lit) -> Lit {
    if a == b {
        return f;
    }
    if a == !b {
        return !f;
    }
    match (constant(a, f), constant(b, f)) {
        (Some(va), _) => return if va { !b } else { b },
        (_, Some(vb)) => return if vb { !a } else { a },
        _ => {}
    }
    let o = s.new_var().positive();
    s.add_clause(&[!a, !b, !o]);
    s.add_clause(&[a, b, !o]);
    s.add_clause(&[!a, b, o]);
    s.add_clause(&[a, !b, o]);
    o
}

/// `a ^ b ^ c`: the sum bit of a full adder, for a top bit whose carry is
/// not needed.
fn xor3(s: &mut Solver, f: Lit, a: Lit, b: Lit, c: Lit) -> Lit {
    for (x, y, z) in splits(a, b, c) {
        if x == y {
            return z;
        }
        if x == !y {
            return !z;
        }
    }
    for (x, y, z) in splits(a, b, c) {
        if let Some(vz) = constant(z, f) {
            let o = xor(s, f, x, y);
            return if vz { !o } else { o };
        }
    }
    let o = s.new_var().positive();
    s.add_clause(&[!a, !b, !c, o]);
    s.add_clause(&[!a, !b, c, !o]);
    s.add_clause(&[!a, b, !c, !o]);
    s.add_clause(&[!a, b, c, o]);
    s.add_clause(&[a, !b, !c, !o]);
    s.add_clause(&[a, !b, c, o]);
    s.add_clause(&[a, b, !c, o]);
    s.add_clause(&[a, b, c, !o]);
    o
}

/// `majority(a, b, c)`: the carry of a full adder, and the comparator
/// cell (`a_i >= b_i` chained over lower bits is `maj(a_i, !b_i, ge)`).
fn majority(s: &mut Solver, f: Lit, a: Lit, b: Lit, c: Lit) -> Lit {
    for (x, y, z) in splits(a, b, c) {
        if x == y {
            return x;
        }
        if x == !y {
            return z;
        }
    }
    for (x, y, z) in splits(a, b, c) {
        match constant(z, f) {
            Some(false) => return and(s, f, x, y),
            Some(true) => return or(s, f, x, y),
            None => {}
        }
    }
    let o = s.new_var().positive();
    s.add_clause(&[!a, !b, o]);
    s.add_clause(&[!a, !c, o]);
    s.add_clause(&[!b, !c, o]);
    s.add_clause(&[a, b, !o]);
    s.add_clause(&[a, c, !o]);
    s.add_clause(&[b, c, !o]);
    o
}

/// Encodes a full adder: `(sum, carry_out) = a + b + carry_in`, folded
/// to wires or a half adder where the inputs allow.
pub fn full_adder(s: &mut Solver, f: Lit, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
    for (x, y, z) in splits(a, b, cin) {
        if x == y {
            // 2x + z
            return (z, x);
        }
        if x == !y {
            // 1 + z
            return (!z, z);
        }
    }
    for (x, y, z) in splits(a, b, cin) {
        match constant(z, f) {
            Some(false) => return (xor(s, f, x, y), and(s, f, x, y)),
            Some(true) => return (!xor(s, f, x, y), or(s, f, x, y)),
            None => {}
        }
    }
    let sum = s.new_var().positive();
    let cout = s.new_var().positive();
    // sum = a xor b xor cin
    s.add_clause(&[!a, !b, !cin, sum]);
    s.add_clause(&[!a, !b, cin, !sum]);
    s.add_clause(&[!a, b, !cin, !sum]);
    s.add_clause(&[!a, b, cin, sum]);
    s.add_clause(&[a, !b, !cin, !sum]);
    s.add_clause(&[a, !b, cin, sum]);
    s.add_clause(&[a, b, !cin, sum]);
    s.add_clause(&[a, b, cin, !sum]);
    // cout = majority(a, b, cin)
    s.add_clause(&[!a, !b, cout]);
    s.add_clause(&[!a, !cin, cout]);
    s.add_clause(&[!b, !cin, cout]);
    s.add_clause(&[a, b, !cout]);
    s.add_clause(&[a, cin, !cout]);
    s.add_clause(&[b, cin, !cout]);
    (sum, cout)
}

/// Adds two little-endian bit vectors modulo `2^width`, returning exactly
/// `width` bits. `width = max(a.len(), b.len()) + 1` is the exact sum.
pub fn add_bits(s: &mut Solver, f: Lit, a: &[Lit], b: &[Lit], width: usize) -> Vec<Lit> {
    let mut out = Vec::with_capacity(width);
    let mut carry = f;
    for i in 0..width {
        let ai = a.get(i).copied().unwrap_or(f);
        let bi = b.get(i).copied().unwrap_or(f);
        if i + 1 == width {
            out.push(xor3(s, f, ai, bi, carry));
        } else {
            let (sum, cout) = full_adder(s, f, ai, bi, carry);
            out.push(sum);
            carry = cout;
        }
    }
    out
}

/// Number of bits of `value` (at least one).
pub(crate) fn width_of(value: u64) -> usize {
    (64 - value.leading_zeros()).max(1) as usize
}

/// The bit vector of a non-negative constant, with minimal width (at least
/// one bit).
pub fn const_bits(f: Lit, value: u64) -> Vec<Lit> {
    gated_const_bits(f, !f, value)
}

/// Conditional bit vector: `cond ? value : 0` for a constant `value`.
///
/// Each set bit of the constant becomes the condition literal itself; clear
/// bits become constant false.
pub fn gated_const_bits(f: Lit, cond: Lit, value: u64) -> Vec<Lit> {
    (0..width_of(value))
        .map(|i| if (value >> i) & 1 == 1 { cond } else { f })
        .collect()
}

/// Multiplies a bit vector by a non-negative constant via shift-add.
pub fn mul_const_bits(s: &mut Solver, f: Lit, a: &[Lit], k: u64) -> Vec<Lit> {
    let mut acc: Option<Vec<Lit>> = None;
    for bit in 0..64 {
        if (k >> bit) & 1 == 1 {
            let mut shifted = vec![f; bit];
            shifted.extend_from_slice(a);
            acc = Some(match acc {
                None => shifted,
                Some(prev) => {
                    let width = prev.len().max(shifted.len()) + 1;
                    add_bits(s, f, &prev, &shifted, width)
                }
            });
        }
    }
    acc.unwrap_or_else(|| vec![f])
}

/// Returns a literal `r` with `r <-> (a >= b)` for unsigned little-endian
/// bit vectors: the carry chain `maj(a_i, !b_i, ge)` from the least
/// significant bit up. A constant `b` folds every cell into a wire, an AND
/// or an OR gate.
pub fn ge_reified(s: &mut Solver, f: Lit, a: &[Lit], b: &[Lit]) -> Lit {
    // Empty suffix: equal, so a >= b.
    let mut ge = !f;
    for i in 0..a.len().max(b.len()) {
        let ai = a.get(i).copied().unwrap_or(f);
        let bi = b.get(i).copied().unwrap_or(f);
        ge = majority(s, f, ai, !bi, ge);
    }
    ge
}

/// Returns bits of `cond ? a : b`.
pub fn mux_bits(s: &mut Solver, f: Lit, cond: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    (0..a.len().max(b.len()))
        .map(|i| {
            let ai = a.get(i).copied().unwrap_or(f);
            let bi = b.get(i).copied().unwrap_or(f);
            mux(s, f, cond, ai, bi)
        })
        .collect()
}

/// `cond ? a : b` for single bits.
fn mux(s: &mut Solver, f: Lit, cond: Lit, a: Lit, b: Lit) -> Lit {
    if a == b {
        return a;
    }
    match constant(cond, f) {
        Some(true) => return a,
        Some(false) => return b,
        None => {}
    }
    if a == !b {
        // cond ? a : !a
        return !xor(s, f, cond, a);
    }
    if a == cond || a == !f {
        return or(s, f, cond, b);
    }
    if a == !cond || a == f {
        return and(s, f, !cond, b);
    }
    if b == cond || b == f {
        return and(s, f, cond, a);
    }
    if b == !cond || b == !f {
        return or(s, f, !cond, a);
    }
    let o = s.new_var().positive();
    s.add_clause(&[!cond, !a, o]);
    s.add_clause(&[!cond, a, !o]);
    s.add_clause(&[cond, !b, o]);
    s.add_clause(&[cond, b, !o]);
    o
}

/// Evaluates a bit vector under a model lookup function.
pub fn eval_bits<F: Fn(Lit) -> bool>(bits: &[Lit], value_of: F) -> u64 {
    let mut out = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        if value_of(b) {
            out |= 1 << i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ctx {
        s: Solver,
        f: Lit,
    }

    impl Ctx {
        fn new() -> Self {
            let mut s = Solver::new();
            let f = false_lit(&mut s, &mut None);
            Ctx { s, f }
        }

        fn input(&mut self, width: usize) -> Vec<Lit> {
            (0..width).map(|_| self.s.new_var().positive()).collect()
        }

        fn fix(&mut self, bits: &[Lit], value: u64) {
            for (i, &b) in bits.iter().enumerate() {
                if (value >> i) & 1 == 1 {
                    self.s.add_clause(&[b]);
                } else {
                    self.s.add_clause(&[!b]);
                }
            }
        }

        fn model_value(&self, bits: &[Lit]) -> u64 {
            eval_bits(bits, |l| self.s.lit_value_in_model(l).unwrap_or(false))
        }
    }

    /// A gate under test: builds its outputs from three input literals.
    type Gate = fn(&mut Solver, Lit, [Lit; 3]) -> Vec<Lit>;

    /// Every input literal a gate can see: three free variables, their
    /// negations and both constants. Each input triple drawn from this pool
    /// covers one mix of free, repeated, complemented and constant inputs.
    fn pool(c: &Ctx, free: &[Lit]) -> Vec<Lit> {
        let mut p: Vec<Lit> = free.iter().flat_map(|&x| [x, !x]).collect();
        p.extend([c.f, !c.f]);
        p
    }

    /// Checks `gate` against `truth` on every input triple from the pool:
    /// the models projected onto the free variables and the outputs must
    /// be exactly the truth table, i.e. every assignment of the free
    /// variables extends to a model, and each output is forced to the
    /// truth-table value.
    fn check_gate(gate: Gate, truth: fn([bool; 3]) -> Vec<bool>) {
        const POOL: usize = 8;
        let mut folded = 0;
        for i in 0..POOL {
            for j in 0..POOL {
                for k in 0..POOL {
                    let mut c = Ctx::new();
                    let free = c.input(3);
                    let p = pool(&c, &free);
                    let inputs = [p[i], p[j], p[k]];
                    let vars_before = c.s.num_vars();
                    let outs = gate(&mut c.s, c.f, inputs);
                    if c.s.num_vars() == vars_before {
                        folded += 1;
                    }
                    for sigma in 0u32..8 {
                        let assume: Vec<Lit> = (0..3)
                            .map(|v| {
                                if (sigma >> v) & 1 == 1 {
                                    free[v]
                                } else {
                                    !free[v]
                                }
                            })
                            .collect();
                        let value = |l: Lit| {
                            if l == c.f {
                                false
                            } else if l == !c.f {
                                true
                            } else {
                                let v = free.iter().position(|&x| x.var() == l.var()).unwrap();
                                ((sigma >> v) & 1 == 1) == l.is_positive()
                            }
                        };
                        let want = truth(inputs.map(value));
                        assert!(c.s.solve_with_assumptions(&assume), "{inputs:?} {sigma}");
                        for (o, &w) in outs.iter().zip(&want) {
                            let mut wrong = assume.clone();
                            wrong.push(if w { !*o } else { *o });
                            assert!(
                                !c.s.solve_with_assumptions(&wrong),
                                "inputs {inputs:?} sigma {sigma}: output {o:?} can differ from {w}"
                            );
                        }
                    }
                }
            }
        }
        // Only triples of three distinct free variables need a fresh gate.
        assert!(folded > 0, "no input mix folded");
    }

    #[test]
    fn full_adder_matches_truth_table_on_every_input_mix() {
        check_gate(
            |s, f, [a, b, c]| {
                let (sum, carry) = full_adder(s, f, a, b, c);
                vec![sum, carry]
            },
            |[a, b, c]| {
                let n = a as u8 + b as u8 + c as u8;
                vec![n & 1 == 1, n >= 2]
            },
        );
    }

    #[test]
    fn xor3_matches_truth_table_on_every_input_mix() {
        check_gate(
            |s, f, [a, b, c]| vec![xor3(s, f, a, b, c)],
            |[a, b, c]| vec![a ^ b ^ c],
        );
    }

    #[test]
    fn comparator_cell_matches_truth_table_on_every_input_mix() {
        // Cell inputs: a_i, b_i and the comparison of the lower bits.
        check_gate(
            |s, f, [a, b, ge]| vec![majority(s, f, a, !b, ge)],
            |[a, b, ge]| vec![(a && !b) || (a == b && ge)],
        );
    }

    #[test]
    fn mux_matches_truth_table_on_every_input_mix() {
        check_gate(
            |s, f, [cond, a, b]| vec![mux(s, f, cond, a, b)],
            |[cond, a, b]| vec![if cond { a } else { b }],
        );
    }

    #[test]
    fn two_input_gates_match_truth_tables_on_every_input_mix() {
        check_gate(
            |s, f, [a, b, _]| vec![and(s, f, a, b), or(s, f, a, b), xor(s, f, a, b)],
            |[a, b, _]| vec![a && b, a || b, a ^ b],
        );
    }

    #[test]
    fn folded_gates_allocate_nothing() {
        let mut c = Ctx::new();
        let x = c.input(1)[0];
        let f = c.f;
        let before = c.s.num_vars();
        assert_eq!(full_adder(&mut c.s, f, x, x, f), (f, x));
        assert_eq!(full_adder(&mut c.s, f, x, !x, !f), (f, !f));
        assert_eq!(majority(&mut c.s, f, x, !f, f), x);
        assert_eq!(mux(&mut c.s, f, x, !f, !f), !f);
        // Constant-only arithmetic folds completely.
        let sum = add_bits(&mut c.s, f, &const_bits(f, 11), &const_bits(f, 6), 5);
        assert_eq!(sum, const_bits(f, 17));
        assert_eq!(c.s.num_vars(), before);
    }

    #[test]
    fn adder_exhaustive_4bit() {
        for a in 0u64..16 {
            for b in 0u64..16 {
                let mut c = Ctx::new();
                let av = c.input(4);
                let bv = c.input(4);
                let sum = add_bits(&mut c.s, c.f, &av, &bv, 5);
                c.fix(&av, a);
                c.fix(&bv, b);
                assert!(c.s.solve());
                assert_eq!(c.model_value(&sum), a + b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn truncated_adder_wraps() {
        for a in 0u64..16 {
            for b in 0u64..16 {
                let mut c = Ctx::new();
                let av = c.input(4);
                let bv = c.input(4);
                let sum = add_bits(&mut c.s, c.f, &av, &bv, 4);
                assert_eq!(sum.len(), 4);
                c.fix(&av, a);
                c.fix(&bv, b);
                assert!(c.s.solve());
                assert_eq!(c.model_value(&sum), (a + b) % 16, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_const_matches() {
        for k in [0u64, 1, 3, 5, 12] {
            for a in [0u64, 1, 7, 13, 15] {
                let mut c = Ctx::new();
                let av = c.input(4);
                let prod = mul_const_bits(&mut c.s, c.f, &av, k);
                c.fix(&av, a);
                assert!(c.s.solve());
                assert_eq!(c.model_value(&prod), a * k, "a={a} k={k}");
            }
        }
    }

    #[test]
    fn comparator_exhaustive_3bit() {
        for a in 0u64..8 {
            for b in 0u64..8 {
                let mut c = Ctx::new();
                let av = c.input(3);
                let bv = c.input(3);
                let ge = ge_reified(&mut c.s, c.f, &av, &bv);
                c.fix(&av, a);
                c.fix(&bv, b);
                assert!(c.s.solve());
                assert_eq!(c.s.lit_value_in_model(ge), Some(a >= b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn comparator_against_constant_exhaustive() {
        for k in 0u64..10 {
            for a in 0u64..8 {
                let mut c = Ctx::new();
                let av = c.input(3);
                let ge = ge_reified(&mut c.s, c.f, &av, &const_bits(c.f, k));
                c.fix(&av, a);
                assert!(c.s.solve());
                assert_eq!(c.s.lit_value_in_model(ge), Some(a >= k), "a={a} k={k}");
            }
        }
    }

    #[test]
    fn mux_selects() {
        for cond in [false, true] {
            let mut c = Ctx::new();
            let av = c.input(3);
            let bv = c.input(3);
            let cv = c.s.new_var().positive();
            let out = mux_bits(&mut c.s, c.f, cv, &av, &bv);
            c.fix(&av, 6);
            c.fix(&bv, 1);
            c.s.add_clause(&[if cond { cv } else { !cv }]);
            assert!(c.s.solve());
            assert_eq!(c.model_value(&out), if cond { 6 } else { 1 });
        }
    }

    #[test]
    fn gated_const_is_zero_or_value() {
        for cond in [false, true] {
            let mut c = Ctx::new();
            let cv = c.s.new_var().positive();
            let out = gated_const_bits(c.f, cv, 11);
            c.s.add_clause(&[if cond { cv } else { !cv }]);
            assert!(c.s.solve());
            assert_eq!(c.model_value(&out), if cond { 11 } else { 0 });
        }
    }

    #[test]
    fn const_bits_round_trip() {
        let mut c = Ctx::new();
        let bits = const_bits(c.f, 37);
        assert!(c.s.solve());
        assert_eq!(c.model_value(&bits), 37);
    }

    #[test]
    fn mixed_width_addition() {
        let mut c = Ctx::new();
        let av = c.input(2);
        let bv = c.input(5);
        let sum = add_bits(&mut c.s, c.f, &av, &bv, 6);
        c.fix(&av, 3);
        c.fix(&bv, 29);
        assert!(c.s.solve());
        assert_eq!(c.model_value(&sum), 32);
    }
}
