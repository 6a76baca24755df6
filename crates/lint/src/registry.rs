//! The registry of built-in lint rules.
//!
//! One [`LintInfo`] per [`LintCode`], carrying the rule's name, default
//! severity, a one-line summary, and the rationale for why the rule exists.
//! `qca-lint --list` and the DESIGN.md code table are generated views of
//! this data.

use crate::diag::{LintCode, Severity};

/// Metadata for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintInfo {
    /// The stable code.
    pub code: LintCode,
    /// Default severity before escalation.
    pub severity: Severity,
    /// Kebab-case rule name.
    pub name: &'static str,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// Why the finding matters to the adaptation pipeline.
    pub rationale: &'static str,
}

/// An ordered collection of [`LintInfo`] entries.
#[derive(Debug, Clone)]
pub struct LintRegistry {
    entries: Vec<LintInfo>,
}

impl LintRegistry {
    /// The registry of every built-in rule, in code order.
    pub fn builtin() -> LintRegistry {
        let entries = LintCode::ALL
            .iter()
            .map(|&code| LintInfo {
                code,
                severity: code.default_severity(),
                name: code.name(),
                summary: summary(code),
                rationale: rationale(code),
            })
            .collect();
        LintRegistry { entries }
    }

    /// All entries, in code order.
    pub fn entries(&self) -> &[LintInfo] {
        &self.entries
    }

    /// Looks up a rule by its `QCAxxxx` code string or kebab-case name.
    pub fn find(&self, key: &str) -> Option<&LintInfo> {
        self.entries
            .iter()
            .find(|e| e.code.as_str() == key || e.name == key)
    }
}

fn summary(code: LintCode) -> &'static str {
    match code {
        LintCode::ParseError => "QASM source failed to parse",
        LintCode::UnusedQubit => "declared qubit is never operated on or measured",
        LintCode::OpAfterMeasure => "gate acts on a qubit after it was measured",
        LintCode::ZeroAngle => "parameterized rotation with angle zero",
        LintCode::SelfInversePair => "adjacent identical self-inverse gates cancel",
        LintCode::NonSourceBasis => "two-qubit gate outside the IBM source basis",
        LintCode::FidelityRange => "gate fidelity outside (0, 1]",
        LintCode::NegativeDuration => "negative gate duration",
        LintCode::CoherenceOrder => "T2 exceeds the physical bound 2*T1",
        LintCode::GateSlowerThanT2 => "a single gate outlasts the dephasing time T2",
        LintCode::NoOneQubitClass => "model prices no single-qubit gate class",
        LintCode::NoTwoQubitClass => "model prices no two-qubit gate class",
        LintCode::PerfectFidelity => "gate priced at exactly fidelity 1.0",
        LintCode::UnschedulableGate => "circuit gate has no cost entry, blocking ASAP scheduling",
        LintCode::CouplingDisconnected => "coupling graph is disconnected",
        LintCode::UncoupledGate => "two-qubit gate on a pair the coupling map does not connect",
        LintCode::CouplingQubitMismatch => "coupling map declares fewer qubits than the circuit",
        LintCode::BlockUnadaptable => "block's reference translation needs unpriced gate classes",
        LintCode::BlockNoRules => "no substitution rule can target the block",
        LintCode::RuleNeverApplies => "a rule targets classes the hardware never prices",
        LintCode::LitOutOfRange => "clause literal outside the declared variable range",
        LintCode::EmptyClause => "empty clause makes the formula trivially UNSAT",
        LintCode::TautologicalClause => "clause contains a literal and its negation",
        LintCode::DuplicateClause => "clause duplicates an earlier clause",
        LintCode::DuplicateLiteral => "clause lists the same literal twice",
        LintCode::UnusedVariable => "declared variables appear in no clause",
        LintCode::ZeroWeightTerm => "pseudo-Boolean term with weight zero",
        LintCode::DisconnectedFormula => "formula splits into independent components",
        LintCode::BackboneLiteral => "literal is forced in every model",
        LintCode::SubsumedClause => "clause is subsumed by another clause at load time",
        LintCode::SinglePolarity => "variable occurs in only one polarity",
        LintCode::ContradictoryUnits => "unit clauses assert both polarities of a variable",
    }
}

fn rationale(code: LintCode) -> &'static str {
    match code {
        LintCode::ParseError => "nothing downstream can run on unparseable input",
        LintCode::UnusedQubit => "idle qubits inflate the search space and usually indicate a typo",
        LintCode::OpAfterMeasure => {
            "the pipeline drops measurements, silently reordering semantics"
        }
        LintCode::ZeroAngle => "no-op gates waste solver variables and schedule slots",
        LintCode::SelfInversePair => "the pair is dead weight the solver must still price",
        LintCode::NonSourceBasis => {
            "the paper's source circuits are IBM-basis; other gates skip the intended rule set"
        }
        LintCode::FidelityRange => "log-fidelity objectives are undefined outside (0, 1]",
        LintCode::NegativeDuration => "schedules with negative durations are meaningless",
        LintCode::CoherenceOrder => "T2 <= 2*T1 is a physical identity; violations mean bad data",
        LintCode::GateSlowerThanT2 => "such a gate decoheres mid-operation on average",
        LintCode::NoOneQubitClass => "every substitution rule emits single-qubit corrections",
        LintCode::NoTwoQubitClass => "entangling circuits cannot be priced at all",
        LintCode::PerfectFidelity => "fidelity 1.0 removes the gate from the objective entirely",
        LintCode::UnschedulableGate => {
            "the idle-time objective and verification audits need a full ASAP schedule"
        }
        LintCode::CouplingDisconnected => {
            "blocks spanning components are unroutable; adaptation fails at rule evaluation"
        }
        LintCode::UncoupledGate => {
            "the gate needs SWAP routing, which costs fidelity and duration — or fails if \
             no swap realization is priced"
        }
        LintCode::CouplingQubitMismatch => "routing cannot place qubits the device lacks",
        LintCode::BlockUnadaptable => {
            "preprocessing requires a native reference translation; failure is provable statically"
        }
        LintCode::BlockNoRules => "the solver can only keep the reference translation verbatim",
        LintCode::RuleNeverApplies => "the rule adds encoding size but can never fire",
        LintCode::LitOutOfRange => "solvers index variable state by literal; this corrupts memory",
        LintCode::EmptyClause => "an encoder emitting an empty clause is a bug, not a constraint",
        LintCode::TautologicalClause => "always-true clauses hide encoder mistakes",
        LintCode::DuplicateClause => "duplicates bloat the formula and slow propagation",
        LintCode::DuplicateLiteral => "repeated literals signal an encoder indexing slip",
        LintCode::UnusedVariable => "unconstrained variables inflate the search space",
        LintCode::ZeroWeightTerm => "zero-weight terms add a literal with no objective effect",
        LintCode::DisconnectedFormula => {
            "components are independent subproblems; one encoder emitting several usually \
             means a coupling constraint was dropped"
        }
        LintCode::BackboneLiteral => {
            "forced literals are free simplifications — and an encoder forcing many of them \
             is encoding decisions, not constraints"
        }
        LintCode::SubsumedClause => "subsumed clauses bloat the formula without constraining it",
        LintCode::SinglePolarity => {
            "pure literals are satisfiable for free; encoders rarely mean to emit them"
        }
        LintCode::ContradictoryUnits => {
            "the formula is refutable without search — a generator bug, not a hard instance"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_code() {
        let reg = LintRegistry::builtin();
        assert_eq!(reg.entries().len(), LintCode::ALL.len());
        for code in LintCode::ALL {
            let by_code = reg.find(code.as_str()).expect("find by code");
            assert_eq!(by_code.code, code);
            let by_name = reg.find(code.name()).expect("find by name");
            assert_eq!(by_name.code, code);
        }
        assert!(reg.find("QCA9999").is_none());
    }
}
