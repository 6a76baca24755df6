//! CNF encoding helpers.
//!
//! Gate-level Tseitin encodings (AND/OR/IFF/implication) and cardinality
//! constraints (pairwise and sequential-counter at-most-one, sequential
//! at-most-k). The SMT layer uses these to encode substitution-conflict and
//! selection structure.

use crate::lit::Lit;
use crate::solver::Solver;

/// Adds clauses asserting `out <-> (a AND b)`.
pub fn encode_and(s: &mut Solver, out: Lit, a: Lit, b: Lit) {
    s.add_clause(&[!out, a]);
    s.add_clause(&[!out, b]);
    s.add_clause(&[out, !a, !b]);
}

/// Adds clauses asserting `out <-> (a OR b)`.
pub fn encode_or(s: &mut Solver, out: Lit, a: Lit, b: Lit) {
    s.add_clause(&[out, !a]);
    s.add_clause(&[out, !b]);
    s.add_clause(&[!out, a, b]);
}

/// Adds clauses asserting `out <-> (a XOR b)`.
pub fn encode_xor(s: &mut Solver, out: Lit, a: Lit, b: Lit) {
    s.add_clause(&[!out, a, b]);
    s.add_clause(&[!out, !a, !b]);
    s.add_clause(&[out, !a, b]);
    s.add_clause(&[out, a, !b]);
}

/// Adds clauses asserting `out <-> conjunction of lits`.
///
/// # Panics
///
/// Panics if `lits` is empty.
pub fn encode_and_many(s: &mut Solver, out: Lit, lits: &[Lit]) {
    assert!(!lits.is_empty(), "conjunction of zero literals");
    let mut long = Vec::with_capacity(lits.len() + 1);
    long.push(out);
    for &l in lits {
        s.add_clause(&[!out, l]);
        long.push(!l);
    }
    s.add_clause(&long);
}

/// Adds clauses asserting `out <-> disjunction of lits`.
///
/// # Panics
///
/// Panics if `lits` is empty.
pub fn encode_or_many(s: &mut Solver, out: Lit, lits: &[Lit]) {
    assert!(!lits.is_empty(), "disjunction of zero literals");
    let mut long = Vec::with_capacity(lits.len() + 1);
    long.push(!out);
    for &l in lits {
        s.add_clause(&[out, !l]);
        long.push(l);
    }
    s.add_clause(&long);
}

/// At-most-one over `lits` using the quadratic pairwise encoding.
///
/// Best for small sets (the substitution-conflict constraints of the paper
/// are pairwise by construction, Eq. 1).
pub fn at_most_one_pairwise(s: &mut Solver, lits: &[Lit]) {
    for i in 0..lits.len() {
        for j in (i + 1)..lits.len() {
            s.add_clause(&[!lits[i], !lits[j]]);
        }
    }
}

/// At-most-one over `lits` using the sequential (ladder) encoding with
/// auxiliary variables; linear in clause count.
pub fn at_most_one_sequential(s: &mut Solver, lits: &[Lit]) {
    if lits.len() <= 4 {
        at_most_one_pairwise(s, lits);
        return;
    }
    // s_i = "some literal among lits[0..=i] is true"
    let mut prev = lits[0];
    for &l in &lits[1..] {
        let si = s.new_var().positive();
        // prev true -> si true; l true -> si true; l true -> prev false
        s.add_clause(&[!prev, si]);
        s.add_clause(&[!l, si]);
        s.add_clause(&[!l, !prev]);
        prev = si;
    }
}

/// Exactly-one over `lits`: at-most-one plus the covering clause.
///
/// # Panics
///
/// Panics if `lits` is empty.
pub fn exactly_one(s: &mut Solver, lits: &[Lit]) {
    assert!(!lits.is_empty(), "exactly-one over zero literals");
    s.add_clause(lits);
    at_most_one_sequential(s, lits);
}

/// At-most-`k` over `lits` with the sequential-counter encoding
/// (Sinz 2005). Creates `O(n*k)` auxiliary variables and clauses.
pub fn at_most_k(s: &mut Solver, lits: &[Lit], k: usize) {
    let n = lits.len();
    if n <= k {
        return;
    }
    if k == 0 {
        for &l in lits {
            s.add_clause(&[!l]);
        }
        return;
    }
    // r[i][j] = "at least j+1 of lits[0..=i] are true"
    let mut r: Vec<Vec<Lit>> = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<Lit> = (0..k).map(|_| s.new_var().positive()).collect();
        r.push(row);
        // lits[i] -> r[i][0]
        s.add_clause(&[!lits[i], r[i][0]]);
        if i > 0 {
            for (rj, prev) in r[i].clone().iter().zip(&r[i - 1].clone()) {
                // r[i-1][j] -> r[i][j]
                s.add_clause(&[!*prev, *rj]);
            }
            for j in 1..k {
                // lits[i] & r[i-1][j-1] -> r[i][j]
                s.add_clause(&[!lits[i], !r[i - 1][j - 1], r[i][j]]);
            }
            // overflow: lits[i] & r[i-1][k-1] -> false
            s.add_clause(&[!lits[i], !r[i - 1][k - 1]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn fresh(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    fn count_true(s: &Solver, lits: &[Lit]) -> usize {
        lits.iter()
            .filter(|&&l| s.lit_value_in_model(l) == Some(true))
            .count()
    }

    #[test]
    fn and_gate_truth_table() {
        for (av, bv, expect) in [
            (true, true, true),
            (true, false, false),
            (false, true, false),
        ] {
            let mut s = Solver::new();
            let out = s.new_var().positive();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            encode_and(&mut s, out, a, b);
            s.add_clause(&[if av { a } else { !a }]);
            s.add_clause(&[if bv { b } else { !b }]);
            assert!(s.solve());
            assert_eq!(s.lit_value_in_model(out), Some(expect));
        }
    }

    #[test]
    fn or_gate_truth_table() {
        for (av, bv, expect) in [
            (false, false, false),
            (true, false, true),
            (false, true, true),
        ] {
            let mut s = Solver::new();
            let out = s.new_var().positive();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            encode_or(&mut s, out, a, b);
            s.add_clause(&[if av { a } else { !a }]);
            s.add_clause(&[if bv { b } else { !b }]);
            assert!(s.solve());
            assert_eq!(s.lit_value_in_model(out), Some(expect));
        }
    }

    #[test]
    fn xor_gate_truth_table() {
        for (av, bv) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut s = Solver::new();
            let out = s.new_var().positive();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            encode_xor(&mut s, out, a, b);
            s.add_clause(&[if av { a } else { !a }]);
            s.add_clause(&[if bv { b } else { !b }]);
            assert!(s.solve());
            assert_eq!(s.lit_value_in_model(out), Some(av ^ bv));
        }
    }

    #[test]
    fn and_many_requires_all() {
        let mut s = Solver::new();
        let out = s.new_var().positive();
        let lits = fresh(&mut s, 4);
        encode_and_many(&mut s, out, &lits);
        s.add_clause(&[out]);
        assert!(s.solve());
        assert_eq!(count_true(&s, &lits), 4);
    }

    #[test]
    fn or_many_blocks_all_false() {
        let mut s = Solver::new();
        let out = s.new_var().positive();
        let lits = fresh(&mut s, 3);
        encode_or_many(&mut s, out, &lits);
        s.add_clause(&[out]);
        for &l in &lits[..2] {
            s.add_clause(&[!l]);
        }
        assert!(s.solve());
        assert_eq!(s.lit_value_in_model(lits[2]), Some(true));
    }

    #[test]
    fn pairwise_amo_blocks_two() {
        let mut s = Solver::new();
        let lits = fresh(&mut s, 4);
        at_most_one_pairwise(&mut s, &lits);
        s.add_clause(&[lits[0]]);
        s.add_clause(&[lits[2]]);
        assert!(!s.solve());
    }

    #[test]
    fn sequential_amo_allows_one() {
        let mut s = Solver::new();
        let lits = fresh(&mut s, 10);
        at_most_one_sequential(&mut s, &lits);
        s.add_clause(&[lits[7]]);
        assert!(s.solve());
        assert_eq!(count_true(&s, &lits), 1);
    }

    #[test]
    fn sequential_amo_blocks_two() {
        let mut s = Solver::new();
        let lits = fresh(&mut s, 10);
        at_most_one_sequential(&mut s, &lits);
        s.add_clause(&[lits[3]]);
        s.add_clause(&[lits[8]]);
        assert!(!s.solve());
    }

    #[test]
    fn exactly_one_forces_a_choice() {
        let mut s = Solver::new();
        let lits = fresh(&mut s, 6);
        exactly_one(&mut s, &lits);
        for &l in &lits[..5] {
            s.add_clause(&[!l]);
        }
        assert!(s.solve());
        assert_eq!(s.lit_value_in_model(lits[5]), Some(true));
    }

    #[test]
    fn at_most_k_boundary() {
        for k in 1..4usize {
            // forcing k literals is fine; forcing k+1 is unsat
            let mut s = Solver::new();
            let lits = fresh(&mut s, 6);
            at_most_k(&mut s, &lits, k);
            for &l in lits.iter().take(k) {
                s.add_clause(&[l]);
            }
            assert!(s.solve(), "k={k} exact bound should be sat");

            let mut s2 = Solver::new();
            let lits2 = fresh(&mut s2, 6);
            at_most_k(&mut s2, &lits2, k);
            for &l in lits2.iter().take(k + 1) {
                s2.add_clause(&[l]);
            }
            assert!(!s2.solve(), "k={k} bound+1 should be unsat");
        }
    }

    #[test]
    fn at_most_zero_forces_all_false() {
        let mut s = Solver::new();
        let lits = fresh(&mut s, 3);
        at_most_k(&mut s, &lits, 0);
        assert!(s.solve());
        assert_eq!(count_true(&s, &lits), 0);
        let v: Var = lits[0].var();
        assert_eq!(s.value(v), Some(false));
    }
}
