//! End-to-end proof pipeline tests: random CNFs solved with DRAT logging,
//! checked by the independent RUP checker, and shown to reject corrupted
//! proofs.

use proptest::prelude::*;
use qca_sat::dimacs::Cnf;
use qca_sat::{Lit, MemoryProof, ProofStep, SolveOutcome, Solver};
use qca_verify::{check_drat, DratError};

fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (2..=max_vars).prop_flat_map(move |n| {
        let clause = proptest::collection::vec(
            (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
            1..=3,
        );
        (Just(n), proptest::collection::vec(clause, 1..=max_clauses))
    })
}

fn brute_force_sat(n: usize, clauses: &[Vec<i32>]) -> bool {
    for bits in 0..(1u32 << n) {
        let assign = |v: i32| -> bool {
            let idx = v.unsigned_abs() - 1;
            let val = (bits >> idx) & 1 == 1;
            if v > 0 {
                val
            } else {
                !val
            }
        };
        if clauses.iter().all(|c| c.iter().any(|&l| assign(l))) {
            return true;
        }
    }
    false
}

fn to_cnf(n: usize, clauses: &[Vec<i32>]) -> Cnf {
    Cnf {
        num_vars: n,
        clauses: clauses
            .iter()
            .map(|c| c.iter().map(|&d| Lit::from_dimacs(d as i64)).collect())
            .collect(),
    }
}

/// Solves with proof logging; returns the proof steps when UNSAT.
fn solve_logged(cnf: &Cnf) -> Option<Vec<ProofStep>> {
    let proof = MemoryProof::new();
    let mut s = Solver::new();
    s.set_proof(Box::new(proof.clone()));
    while s.num_vars() < cnf.num_vars {
        s.new_var();
    }
    for c in &cnf.clauses {
        if !s.add_clause(c) {
            break;
        }
    }
    match s.solve_limited(&[]) {
        SolveOutcome::Unsat => Some(proof.take_steps()),
        _ => None,
    }
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
/// Variable p_{i,j} (pigeon i in hole j) is 1-based DIMACS `i*n + j + 1`.
fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let var = |i: usize, j: usize| (i * holes + j + 1) as i64;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for i in 0..pigeons {
        clauses.push((0..holes).map(|j| Lit::from_dimacs(var(i, j))).collect());
    }
    for j in 0..holes {
        for i in 0..pigeons {
            for k in i + 1..pigeons {
                clauses.push(vec![
                    Lit::from_dimacs(-var(i, j)),
                    Lit::from_dimacs(-var(k, j)),
                ]);
            }
        }
    }
    Cnf {
        num_vars: pigeons * holes,
        clauses,
    }
}

#[test]
fn pigeonhole_proofs_verify() {
    for holes in 2..=4 {
        let cnf = pigeonhole(holes);
        let steps = solve_logged(&cnf).expect("PHP is UNSAT");
        let stats = check_drat(&cnf, &steps).expect("proof verifies");
        assert!(
            stats.additions_checked + stats.steps_skipped > 0,
            "PHP({holes}) proof was vacuous"
        );
    }
}

#[test]
fn corrupted_pigeonhole_proof_is_rejected() {
    let cnf = pigeonhole(3);
    let mut steps = solve_logged(&cnf).expect("PHP is UNSAT");
    // Replace the first addition with a unit over a fresh variable: fresh
    // variables are unconstrained, so the clause cannot be RUP at the first
    // checked position.
    let fresh = Lit::from_dimacs(cnf.num_vars as i64 + 1);
    let first_add = steps
        .iter()
        .position(|s| !s.is_delete())
        .expect("refutation has additions");
    steps[first_add] = ProofStep::Add(vec![fresh]);
    assert!(matches!(
        check_drat(&cnf, &steps),
        Err(DratError::NotRup { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Every UNSAT answer carries a proof the independent checker accepts,
    /// and the checker's verdict agrees with brute force.
    #[test]
    fn unsat_answers_carry_checkable_proofs((n, clauses) in arb_cnf(6, 18)) {
        let cnf = to_cnf(n, &clauses);
        match solve_logged(&cnf) {
            Some(steps) => {
                prop_assert!(!brute_force_sat(n, &clauses), "solver claimed UNSAT on a SAT formula");
                let stats = check_drat(&cnf, &steps);
                prop_assert!(stats.is_ok(), "proof rejected: {stats:?}");
            }
            None => prop_assert!(brute_force_sat(n, &clauses), "solver claimed SAT on an UNSAT formula"),
        }
    }

    /// Corrupting the proof is detected: replacing the first checked
    /// addition with an underivable clause, or discarding the proof
    /// entirely, must flip the verdict to rejection.
    #[test]
    fn corrupted_proofs_are_rejected((n, clauses) in arb_cnf(6, 18)) {
        let cnf = to_cnf(n, &clauses);
        if let Some(mut steps) = solve_logged(&cnf) {
            let stats = check_drat(&cnf, &steps).expect("original proof verifies");
            // Formulas already refuted by input propagation need no proof
            // steps; only proofs that did real work can be meaningfully
            // corrupted.
            if stats.additions_checked > 0 {
                prop_assert!(matches!(
                    check_drat(&cnf, &[]),
                    Err(DratError::NoRefutation)
                ));
                let fresh = Lit::from_dimacs(n as i64 + 1);
                let first_add = steps.iter().position(|s| !s.is_delete()).unwrap();
                steps[first_add] = ProofStep::Add(vec![fresh]);
                prop_assert!(matches!(
                    check_drat(&cnf, &steps),
                    Err(DratError::NotRup { .. })
                ));
            }
        }
    }
}
