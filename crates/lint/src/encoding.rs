//! Encoding lints (`QCA04xx`) over the shadow CNF/PB bundle recorded by
//! `qca-smt`.
//!
//! These run on the clause-level shadow formula (the axioms exactly as
//! submitted to the SAT solver) and the semantic constraint trail, catching
//! encoder bugs — out-of-range literals, degenerate clauses, zero-weight
//! pseudo-Boolean terms — that would otherwise surface as solver
//! misbehaviour.

use crate::diag::{Diagnostic, LintCode};
use qca_sat::dimacs::Cnf;
use qca_smt::{AuditBundle, RecordedConstraint};
use std::collections::HashSet;

/// Lints a CNF formula: literal ranges, degenerate clauses, duplicate
/// clauses, and unconstrained variables.
pub fn lint_cnf(cnf: &Cnf) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut var_seen = vec![false; cnf.num_vars];
    let mut clause_keys: HashSet<Vec<usize>> = HashSet::with_capacity(cnf.clauses.len());

    for (idx, clause) in cnf.clauses.iter().enumerate() {
        // QCA0402: an encoder never intends an empty clause.
        if clause.is_empty() {
            diags.push(Diagnostic::new(
                LintCode::EmptyClause,
                format!("clause {idx} is empty (formula is trivially UNSAT)"),
            ));
            continue;
        }

        let mut out_of_range = false;
        let mut lit_codes: Vec<usize> = Vec::with_capacity(clause.len());
        for lit in clause {
            let var = lit.var().index();
            if var >= cnf.num_vars {
                // QCA0401: solvers index per-variable state by literal;
                // this is memory corruption waiting to happen.
                diags.push(Diagnostic::new(
                    LintCode::LitOutOfRange,
                    format!(
                        "clause {idx} references variable {} but the formula declares \
                         only {} variables",
                        var + 1,
                        cnf.num_vars
                    ),
                ));
                out_of_range = true;
            } else {
                var_seen[var] = true;
            }
            lit_codes.push(lit.code());
        }
        if out_of_range {
            continue;
        }

        // QCA0403 / QCA0405: tautologies and repeated literals. Literal
        // codes are 2*var + sign, so x and !x differ only in the low bit.
        let mut sorted = lit_codes.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            diags.push(Diagnostic::new(
                LintCode::DuplicateLiteral,
                format!("clause {idx} lists the same literal more than once"),
            ));
        }
        if sorted.windows(2).any(|w| w[1] == w[0] + 1 && w[0] % 2 == 0) {
            diags.push(Diagnostic::new(
                LintCode::TautologicalClause,
                format!("clause {idx} contains a literal and its negation"),
            ));
        }

        // QCA0404: exact duplicate of an earlier clause (order-insensitive).
        sorted.dedup();
        if !clause_keys.insert(sorted) {
            diags.push(Diagnostic::new(
                LintCode::DuplicateClause,
                format!("clause {idx} duplicates an earlier clause"),
            ));
        }
    }

    // QCA0406: declared variables on no clause, aggregated into one
    // informational diagnostic to avoid per-variable spam.
    let unused = var_seen.iter().filter(|&&seen| !seen).count();
    if unused > 0 {
        diags.push(Diagnostic::new(
            LintCode::UnusedVariable,
            format!(
                "{unused} of {} declared variables appear in no clause",
                cnf.num_vars
            ),
        ));
    }

    diags
}

/// Lints the semantic constraint trail: currently zero-weight
/// pseudo-Boolean terms.
pub fn lint_records(records: &[RecordedConstraint]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (idx, record) in records.iter().enumerate() {
        if let RecordedConstraint::PbSum { terms, .. } = record {
            let zero = terms.iter().filter(|(w, _)| *w == 0).count();
            if zero > 0 {
                diags.push(
                    Diagnostic::new(
                        LintCode::ZeroWeightTerm,
                        format!(
                            "PB-sum constraint {idx} carries {zero} zero-weight term{}",
                            if zero == 1 { "" } else { "s" }
                        ),
                    )
                    .with_help("drop the term; it adds a literal with no objective effect"),
                );
            }
        }
    }
    diags
}

/// Lints a full audit bundle: the shadow CNF plus the constraint trail.
pub fn lint_encoding(bundle: &AuditBundle) -> Vec<Diagnostic> {
    let mut diags = lint_cnf(&bundle.cnf);
    diags.extend(lint_records(&bundle.constraints));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use qca_sat::Var;

    fn codes(diags: &[Diagnostic]) -> Vec<LintCode> {
        diags.iter().map(|d| d.code).collect()
    }

    fn lit(var: usize, positive: bool) -> qca_sat::Lit {
        if positive {
            Var::from_index(var).positive()
        } else {
            Var::from_index(var).negative()
        }
    }

    #[test]
    fn well_formed_cnf_is_clean() {
        let cnf = Cnf {
            num_vars: 2,
            clauses: vec![vec![lit(0, true), lit(1, false)], vec![lit(1, true)]],
        };
        assert!(lint_cnf(&cnf).is_empty());
    }

    #[test]
    fn out_of_range_literal_is_an_error() {
        let cnf = Cnf {
            num_vars: 1,
            clauses: vec![vec![lit(0, true), lit(5, true)]],
        };
        let diags = lint_cnf(&cnf);
        assert_eq!(codes(&diags), vec![LintCode::LitOutOfRange]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("variable 6"));
    }

    #[test]
    fn empty_clause_is_an_error() {
        let cnf = Cnf {
            num_vars: 1,
            clauses: vec![vec![lit(0, true)], vec![]],
        };
        let diags = lint_cnf(&cnf);
        assert_eq!(codes(&diags), vec![LintCode::EmptyClause]);
    }

    #[test]
    fn tautology_and_duplicate_literal_are_distinguished() {
        let cnf = Cnf {
            num_vars: 2,
            clauses: vec![
                vec![lit(0, true), lit(0, false)],
                vec![lit(1, true), lit(1, true)],
            ],
        };
        let diags = lint_cnf(&cnf);
        assert_eq!(
            codes(&diags),
            vec![LintCode::TautologicalClause, LintCode::DuplicateLiteral]
        );
    }

    #[test]
    fn duplicate_clause_is_order_insensitive() {
        let cnf = Cnf {
            num_vars: 2,
            clauses: vec![
                vec![lit(0, true), lit(1, false)],
                vec![lit(1, false), lit(0, true)],
            ],
        };
        let diags = lint_cnf(&cnf);
        assert_eq!(codes(&diags), vec![LintCode::DuplicateClause]);
    }

    #[test]
    fn unconstrained_variables_are_aggregated() {
        let cnf = Cnf {
            num_vars: 5,
            clauses: vec![vec![lit(0, true), lit(1, true)]],
        };
        let diags = lint_cnf(&cnf);
        assert_eq!(codes(&diags), vec![LintCode::UnusedVariable]);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("3 of 5"));
    }

    #[test]
    fn zero_weight_pb_terms_are_flagged() {
        let mut solver = qca_smt::SmtSolver::new();
        solver.enable_recording();
        let a = solver.new_bool();
        let b = solver.new_bool();
        let _sum = solver.pb_sum(7, &[(0, a), (3, b)]);
        let model = qca_smt::SmtModel::from_raw_values(Vec::new());
        let bundle = solver.take_audit_bundle(model).expect("recording enabled");
        let diags = lint_records(&bundle.constraints);
        assert_eq!(codes(&diags), vec![LintCode::ZeroWeightTerm]);
        assert!(diags[0].message.contains("1 zero-weight term"));
    }
}
