//! Golden search trajectories: the solver's full statistics and a hash of
//! its DRAT proof on fixed instances.
//!
//! Each instance pins every [`SolverStats`] counter, the number of proof
//! steps and an FNV-1a hash over them. Any change to the solver's
//! decisions, propagation order, learnt clauses or deletions moves at least
//! one of these numbers, so a change that claims to keep the search
//! identical (a faster clause store, cheaper inner loops) must leave this
//! test passing unchanged. A change that alters the search on purpose
//! updates the expected values and says why.

use qca_sat::dimacs::{parse_dimacs, Cnf};
use qca_sat::proof::{MemoryProof, ProofStep};
use qca_sat::{Lit, SolveOutcome, Solver, SolverStats, Var};

/// What one solve did, in the order the expectations list it.
#[derive(Debug, PartialEq, Eq)]
struct Trajectory {
    outcome: SolveOutcome,
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    restarts: u64,
    deleted_clauses: u64,
    minimized_literals: u64,
    proof_steps: usize,
    proof_fnv: u64,
}

/// FNV-1a over the proof: per step a tag byte, each literal's code as four
/// little-endian bytes, and a terminating zero word.
fn fnv_steps(steps: &[ProofStep]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for step in steps {
        eat(&[if step.is_delete() { b'd' } else { b'a' }]);
        for l in step.lits() {
            eat(&(l.code() as u32).to_le_bytes());
        }
        eat(&[0, 0, 0, 0]);
    }
    h
}

fn solve(cnf: &Cnf) -> Trajectory {
    let proof = MemoryProof::new();
    let mut s = Solver::new();
    s.set_proof(Box::new(proof.clone()));
    for _ in 0..cnf.num_vars {
        s.new_var();
    }
    for c in &cnf.clauses {
        s.add_clause(c);
    }
    let outcome = s.solve_limited(&[]);
    let SolverStats {
        decisions,
        propagations,
        conflicts,
        restarts,
        deleted_clauses,
        minimized_literals,
        ..
    } = s.stats().clone();
    let steps = proof.take_steps();
    Trajectory {
        outcome,
        decisions,
        propagations,
        conflicts,
        restarts,
        deleted_clauses,
        minimized_literals,
        proof_steps: steps.len(),
        proof_fnv: fnv_steps(&steps),
    }
}

/// A uniform random 3-SAT formula near the satisfiability threshold, drawn
/// from a local xorshift64 stream so the instance never depends on another
/// crate's generator.
fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> Cnf {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let clauses = (0..num_clauses)
        .map(|_| {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            while c.len() < 3 {
                let r = next();
                let lit = Var::from_index((r >> 1) as usize % num_vars).lit(r & 1 == 0);
                if c.iter().all(|l| l.var() != lit.var()) {
                    c.push(lit);
                }
            }
            c
        })
        .collect();
    Cnf { num_vars, clauses }
}

#[test]
fn pigeonhole_5_4_trajectory_is_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/cnf/php_5_4.cnf"
    );
    let text = std::fs::read_to_string(path).expect("examples/cnf/php_5_4.cnf");
    let cnf = parse_dimacs(text.as_bytes()).expect("valid DIMACS");
    assert_eq!(
        solve(&cnf),
        Trajectory {
            outcome: SolveOutcome::Unsat,
            decisions: 31,
            propagations: 277,
            conflicts: 28,
            restarts: 0,
            deleted_clauses: 0,
            minimized_literals: 9,
            proof_steps: 28,
            proof_fnv: 1_624_668_108_640_609_636,
        }
    );
}

#[test]
fn random_3sat_trajectory_is_pinned() {
    let cnf = random_3sat(200, 860, 0x9e37_79b9_7f4a_7c15);
    assert_eq!(
        solve(&cnf),
        Trajectory {
            outcome: SolveOutcome::Sat,
            decisions: 31_601,
            propagations: 995_836,
            conflicts: 26_094,
            restarts: 93,
            deleted_clauses: 16_088,
            minimized_literals: 73_365,
            proof_steps: 42_182,
            proof_fnv: 8_097_034_614_577_159_318,
        }
    );
}
