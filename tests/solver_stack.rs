//! Integration tests of the solver stack: SAT → SMT → OMT consistency on
//! problems resembling the adaptation models.

use qca::sat::Solver;
use qca::smt::{omt, SmtSolver};

#[test]
fn sat_and_smt_agree_on_selection_problems() {
    // Substitution-selection shape: weighted choices with conflicts; compare
    // OMT result against exhaustive enumeration.
    let weights: [i64; 6] = [5, -3, 7, 2, -1, 4];
    let conflicts = [(0usize, 2usize), (2, 5), (1, 3)];

    let mut smt = SmtSolver::new();
    let xs: Vec<_> = (0..6).map(|_| smt.new_bool()).collect();
    for &(a, b) in &conflicts {
        smt.add_clause(&[!xs[a], !xs[b]]);
    }
    let terms: Vec<_> = weights.iter().zip(&xs).map(|(&w, &x)| (w, x)).collect();
    let obj = smt.pb_sum(0, &terms);
    let best = omt::maximize(&mut smt, &obj).unwrap();

    let mut expect = i64::MIN;
    'outer: for bits in 0u32..64 {
        for &(a, b) in &conflicts {
            if (bits >> a) & 1 == 1 && (bits >> b) & 1 == 1 {
                continue 'outer;
            }
        }
        let v: i64 = (0..6)
            .map(|k| if (bits >> k) & 1 == 1 { weights[k] } else { 0 })
            .sum();
        expect = expect.max(v);
    }
    assert_eq!(best.value, expect);
}

#[test]
fn cardinality_encodings_compose_with_assumptions() {
    let mut s = Solver::new();
    let xs: Vec<_> = (0..8).map(|_| s.new_var().positive()).collect();
    // At most 3 of 8: every set of four literals has one false.
    for a in 0..8 {
        for b in a + 1..8 {
            for c in b + 1..8 {
                for d in c + 1..8 {
                    s.add_clause(&[!xs[a], !xs[b], !xs[c], !xs[d]]);
                }
            }
        }
    }
    s.add_clause(&xs); // at least one
    assert!(s.solve());
    // Force 3 specific ones: fine.
    assert!(s.solve_with_assumptions(&[xs[0], xs[3], xs[7]]));
    // Force 4: unsat, and the core only mentions assumed literals.
    assert!(!s.solve_with_assumptions(&[xs[0], xs[511 % 8], xs[3], xs[5], xs[7]]));
    for l in s.unsat_core() {
        assert!(xs.contains(l));
    }
}

#[test]
fn unsat_core_shrinks_to_conflicting_subset() {
    let mut s = Solver::new();
    let a = s.new_var().positive();
    let b = s.new_var().positive();
    let c = s.new_var().positive();
    let d = s.new_var().positive();
    s.add_clause(&[!a, !b]);
    assert!(!s.solve_with_assumptions(&[c, d, a, b]));
    let core = s.unsat_core().to_vec();
    // The core must be unsat on its own and should not require c or d.
    assert!(!s.solve_with_assumptions(&core));
    assert!(core.contains(&a) && core.contains(&b));
}

#[test]
fn incremental_smt_reuse_across_objectives() {
    // One solver, several maximizations with added constraints in between —
    // mirrors how OMT probes accumulate bound clauses.
    let mut smt = SmtSolver::new();
    let x = smt.new_bool();
    let y = smt.new_bool();
    let obj = smt.pb_sum(0, &[(10, x), (6, y)]);
    let b1 = omt::maximize(&mut smt, &obj).unwrap();
    assert_eq!(b1.value, 16);
    smt.add_clause(&[!x, !y]);
    let b2 = omt::maximize(&mut smt, &obj).unwrap();
    assert_eq!(b2.value, 10);
    smt.add_clause(&[!x]);
    let b3 = omt::maximize(&mut smt, &obj).unwrap();
    assert_eq!(b3.value, 6);
}
