//! # qca-sat
//!
//! A from-scratch conflict-driven clause-learning (CDCL) SAT solver, built as
//! the decision core for the SMT engine that powers SAT-based quantum circuit
//! adaptation (Brandhofer et al., DATE 2023).
//!
//! Features:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP clause learning with basic minimization,
//! * VSIDS branching with phase saving,
//! * Luby restarts and learnt-clause database reduction,
//! * incremental solving under assumptions with unsat-core extraction,
//! * DIMACS CNF I/O ([`dimacs`]) and CNF encoding helpers ([`encode`]),
//! * DRAT proof logging ([`proof`]) for independent UNSAT certification,
//! * static formula analysis and a proof-logging, model-reconstructing
//!   preprocessor ([`mod@analyze`]) whose derivations verify against the
//!   original formula.
//!
//! # Examples
//!
//! ```
//! use qca_sat::Solver;
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! // (x | y) & (!x | y)  =>  y
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[x.negative(), y.positive()]);
//! assert!(solver.solve());
//! assert_eq!(solver.value(y), Some(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
mod arena;
pub mod config;
pub mod dimacs;
pub mod encode;
mod heap;
mod lit;
pub mod proof;
mod solver;

pub use analyze::{
    analyze, preprocess, FormulaReport, PreprocessOptions, PreprocessResult, PreprocessStats,
    Reconstruction,
};
pub use config::{ConfigError, PhasePolicy, RestartSchedule, SolverConfig};
pub use lit::{LBool, Lit, Var};
pub use proof::{FileProof, MemoryProof, ProofSink, ProofStep};
pub use solver::{SolveControl, SolveOutcome, Solver, SolverStats};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random CNF instance: clause list over `n` variables.
    fn arb_cnf(
        max_vars: usize,
        max_clauses: usize,
    ) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
        (2..=max_vars).prop_flat_map(move |n| {
            let clause = proptest::collection::vec(
                (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
                1..=3,
            );
            (Just(n), proptest::collection::vec(clause, 1..=max_clauses))
        })
    }

    fn build(n: usize, clauses: &[Vec<i32>]) -> Solver {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&d| vars[(d.unsigned_abs() - 1) as usize].lit(d > 0))
                .collect();
            if !s.add_clause(&lits) {
                break;
            }
        }
        s
    }

    /// Reference brute-force check for small instances.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn agrees_with_brute_force((n, clauses) in arb_cnf(8, 30)) {
            let mut s = build(n, &clauses);
            let got = s.solve();
            let expect = brute_force_sat(n, &clauses);
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn sat_model_satisfies_clauses((n, clauses) in arb_cnf(10, 40)) {
            let mut s = build(n, &clauses);
            if s.solve() {
                let vars: Vec<Var> = (0..n).map(Var::from_index).collect();
                for c in &clauses {
                    let ok = c.iter().any(|&d| {
                        let l = vars[(d.unsigned_abs() - 1) as usize].lit(d > 0);
                        s.lit_value_in_model(l).unwrap_or(false)
                    });
                    prop_assert!(ok, "clause {:?} violated", c);
                }
            }
        }

        #[test]
        fn unsat_core_is_sound((n, clauses) in arb_cnf(6, 20), picks in proptest::collection::vec(any::<bool>(), 6)) {
            let mut s = build(n, &clauses);
            let assumptions: Vec<Lit> = (0..n)
                .map(|i| Var::from_index(i).lit(picks[i % picks.len()]))
                .collect();
            if !s.solve_with_assumptions(&assumptions) && s.is_ok() {
                let core = s.unsat_core().to_vec();
                // Core is a subset of the assumptions...
                for l in &core {
                    prop_assert!(assumptions.contains(l));
                }
                // ...and assuming only the core is still unsat.
                prop_assert!(!s.solve_with_assumptions(&core));
            }
        }
    }
}
