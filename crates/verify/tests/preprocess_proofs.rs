//! Property tests closing the loop between the `qca_sat::analyze`
//! preprocessor and the independent verifiers:
//!
//! * preprocessing preserves satisfiability (against a brute-force oracle),
//! * reconstructed models of the simplified formula satisfy the original
//!   ([`qca_verify::check_reconstruction`]),
//! * combined preprocessor + solver DRAT proofs of UNSAT instances are
//!   accepted by the RUP checker against the ORIGINAL formula — and
//!   corrupted proofs are rejected.

use proptest::prelude::*;
use qca_sat::analyze::{preprocess, PreprocessOptions};
use qca_sat::dimacs::Cnf;
use qca_sat::{Lit, MemoryProof, ProofStep, Solver, Var};
use qca_verify::{check_drat, check_reconstruction};

/// A random CNF instance: clause list over `n` variables.
fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (2..=max_vars).prop_flat_map(move |n| {
        let clause = proptest::collection::vec(
            (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
            1..=3,
        );
        (Just(n), proptest::collection::vec(clause, 1..=max_clauses))
    })
}

fn to_cnf(n: usize, clauses: &[Vec<i32>]) -> Cnf {
    Cnf {
        num_vars: n,
        clauses: clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&d| Var::from_index((d.unsigned_abs() - 1) as usize).lit(d > 0))
                    .collect()
            })
            .collect(),
    }
}

fn brute_force_sat(cnf: &Cnf) -> bool {
    for bits in 0..(1u32 << cnf.num_vars) {
        let truthy = |l: Lit| ((bits >> l.var().index()) & 1 == 1) == l.is_positive();
        if cnf.clauses.iter().all(|c| c.iter().copied().any(truthy)) {
            return true;
        }
    }
    false
}

/// Solves `cnf` on a fresh solver, returning the verdict and (on SAT) the
/// raw model of the formula's numbering.
fn solve(cnf: &Cnf, proof: Option<MemoryProof>) -> (bool, Option<Vec<Option<bool>>>) {
    let mut solver = Solver::new();
    if let Some(p) = proof {
        solver.set_proof(Box::new(p));
    }
    while solver.num_vars() < cnf.num_vars {
        solver.new_var();
    }
    let mut loaded = true;
    for clause in &cnf.clauses {
        if !solver.add_clause(clause) {
            loaded = false;
            break;
        }
    }
    if !loaded || !solver.solve() {
        return (false, None);
    }
    let model = (0..cnf.num_vars)
        .map(|i| solver.value(Var::from_index(i)))
        .collect();
    (true, Some(model))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The simplified formula is satisfiable iff the original is.
    #[test]
    fn preprocessing_preserves_satisfiability((n, clauses) in arb_cnf(8, 28)) {
        let cnf = to_cnf(n, &clauses);
        let expect = brute_force_sat(&cnf);
        let pre = preprocess(&cnf, &PreprocessOptions::default(), None);
        let got = if pre.unsat { false } else { solve(&pre.cnf, None).0 };
        prop_assert_eq!(got, expect);
    }

    /// A model of the simplified formula extends to a model of the
    /// original, and the verifier's replay confirms it.
    #[test]
    fn reconstructed_models_satisfy_the_original((n, clauses) in arb_cnf(8, 28)) {
        let cnf = to_cnf(n, &clauses);
        let pre = preprocess(&cnf, &PreprocessOptions::default(), None);
        if pre.unsat {
            return;
        }
        let (sat, model) = solve(&pre.cnf, None);
        if !sat {
            return;
        }
        let total = check_reconstruction(&cnf, &pre.reconstruction, &model.unwrap());
        prop_assert!(total.is_ok(), "extended model falsifies: {:?}", total);
        prop_assert_eq!(total.unwrap().len(), cnf.num_vars);
    }

    /// On UNSAT instances the preprocessor's derivations concatenated with
    /// the solver's learnt-clause stream form a DRAT refutation of the
    /// ORIGINAL formula; corrupting it (dropping every empty-clause
    /// addition) breaks verification.
    #[test]
    fn combined_proofs_verify_and_corruption_is_rejected((n, clauses) in arb_cnf(8, 28)) {
        let cnf = to_cnf(n, &clauses);
        if brute_force_sat(&cnf) {
            return;
        }
        let proof = MemoryProof::new();
        let mut sink = proof.clone();
        let pre = preprocess(&cnf, &PreprocessOptions::default(), Some(&mut sink));
        if !pre.unsat {
            let (sat, _) = solve(&pre.cnf, Some(proof.clone()));
            prop_assert!(!sat, "preprocess+solve disagreed with brute force");
        }
        let steps = proof.take_steps();
        prop_assert!(
            check_drat(&cnf, &steps).is_ok(),
            "combined proof rejected against the original formula"
        );

        // Corruption: without any empty-clause addition the refutation can
        // only close if the ORIGINAL formula already refutes at load time
        // (e.g. contradictory input units) — skip those.
        if check_drat(&cnf, &[]).is_ok() {
            return;
        }
        let corrupted: Vec<ProofStep> = steps
            .iter()
            .filter(|s| !(matches!(s, ProofStep::Add(c) if c.is_empty())))
            .cloned()
            .collect();
        prop_assert!(
            check_drat(&cnf, &corrupted).is_err(),
            "corrupted proof (no empty clause) still verified"
        );
    }
}
