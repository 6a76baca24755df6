//! The diagnostic data model: stable codes, severities, and the
//! [`Diagnostic`] record emitted by every lint pass.
//!
//! Codes are grouped by hundreds: `QCA00xx` parsing, `QCA01xx` circuit
//! shape, `QCA02xx` hardware models, `QCA03xx` rule coverage, `QCA04xx`
//! encodings, `QCA05xx` whole-formula analysis. Codes are append-only and
//! never renumbered — CI gates and downstream tooling key on them.

use qca_circuit::qasm::SrcSpan;
use std::fmt;

/// How serious a diagnostic is.
///
/// Ordering is by severity (`Error < Warn < Info`), so sorting a diagnostic
/// list by severity puts errors first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The input is unusable: adaptation would fail or produce garbage.
    Error,
    /// Suspicious but workable; escalated to [`Severity::Error`] under
    /// `--deny-warnings`.
    Warn,
    /// Informational observation; never escalated.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warn => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// Stable identifier for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// QCA0001: the QASM source failed to parse.
    ParseError,
    /// QCA0101: a declared qubit is never operated on or measured.
    UnusedQubit,
    /// QCA0102: a gate acts on a qubit after that qubit was measured.
    OpAfterMeasure,
    /// QCA0103: a parameterized rotation with angle 0 (a no-op).
    ZeroAngle,
    /// QCA0104: two adjacent identical self-inverse gates cancel out.
    SelfInversePair,
    /// QCA0105: a two-qubit gate outside the IBM source basis (CX + SU(2)).
    NonSourceBasis,
    /// QCA0201: a gate fidelity outside the interval (0, 1].
    FidelityRange,
    /// QCA0202: a negative gate duration.
    NegativeDuration,
    /// QCA0203: T2 exceeds the physical bound 2·T1.
    CoherenceOrder,
    /// QCA0204: a single gate takes longer than the dephasing time T2.
    GateSlowerThanT2,
    /// QCA0205: the model prices no single-qubit gate class.
    NoOneQubitClass,
    /// QCA0206: the model prices no two-qubit gate class.
    NoTwoQubitClass,
    /// QCA0207: a gate priced at exactly fidelity 1.0.
    PerfectFidelity,
    /// QCA0208: a circuit gate with no cost entry, so ASAP scheduling (and
    /// the idle-time objective) cannot run on this model.
    UnschedulableGate,
    /// QCA0209: the coupling graph is disconnected — some qubit pairs can
    /// never interact, even through SWAP routing.
    CouplingDisconnected,
    /// QCA0210: a two-qubit gate acts on a pair the coupling map does not
    /// connect directly.
    UncoupledGate,
    /// QCA0211: the coupling map declares fewer qubits than the circuit
    /// uses.
    CouplingQubitMismatch,
    /// QCA0301: a block's reference translation needs unpriced gate
    /// classes, so adaptation is statically infeasible.
    BlockUnadaptable,
    /// QCA0302: a two-qubit block no substitution rule can target.
    BlockNoRules,
    /// QCA0303: a rule targets gate classes the hardware never prices, so
    /// it can never fire.
    RuleNeverApplies,
    /// QCA0401: a clause literal references a variable outside the
    /// formula's declared range.
    LitOutOfRange,
    /// QCA0402: an empty clause (the formula is trivially UNSAT).
    EmptyClause,
    /// QCA0403: a clause containing both a literal and its negation.
    TautologicalClause,
    /// QCA0404: a clause that duplicates an earlier clause.
    DuplicateClause,
    /// QCA0405: a clause listing the same literal twice.
    DuplicateLiteral,
    /// QCA0406: declared variables that appear in no clause.
    UnusedVariable,
    /// QCA0407: a pseudo-Boolean term with weight zero.
    ZeroWeightTerm,
    /// QCA0501: the formula splits into independent connected components.
    DisconnectedFormula,
    /// QCA0502: a literal forced in every model (unit clause or failed
    /// negation under probing).
    BackboneLiteral,
    /// QCA0503: a clause subsumed by another clause at load time.
    SubsumedClause,
    /// QCA0504: a variable occurring in only one polarity (pure literal).
    SinglePolarity,
    /// QCA0505: unit clauses asserting both polarities of one variable.
    ContradictoryUnits,
}

impl LintCode {
    /// Every code, in numeric order. The registry and `--list` output are
    /// built from this table.
    pub const ALL: [LintCode; 32] = [
        LintCode::ParseError,
        LintCode::UnusedQubit,
        LintCode::OpAfterMeasure,
        LintCode::ZeroAngle,
        LintCode::SelfInversePair,
        LintCode::NonSourceBasis,
        LintCode::FidelityRange,
        LintCode::NegativeDuration,
        LintCode::CoherenceOrder,
        LintCode::GateSlowerThanT2,
        LintCode::NoOneQubitClass,
        LintCode::NoTwoQubitClass,
        LintCode::PerfectFidelity,
        LintCode::UnschedulableGate,
        LintCode::CouplingDisconnected,
        LintCode::UncoupledGate,
        LintCode::CouplingQubitMismatch,
        LintCode::BlockUnadaptable,
        LintCode::BlockNoRules,
        LintCode::RuleNeverApplies,
        LintCode::LitOutOfRange,
        LintCode::EmptyClause,
        LintCode::TautologicalClause,
        LintCode::DuplicateClause,
        LintCode::DuplicateLiteral,
        LintCode::UnusedVariable,
        LintCode::ZeroWeightTerm,
        LintCode::DisconnectedFormula,
        LintCode::BackboneLiteral,
        LintCode::SubsumedClause,
        LintCode::SinglePolarity,
        LintCode::ContradictoryUnits,
    ];

    /// The stable `QCAxxxx` code string.
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::ParseError => "QCA0001",
            LintCode::UnusedQubit => "QCA0101",
            LintCode::OpAfterMeasure => "QCA0102",
            LintCode::ZeroAngle => "QCA0103",
            LintCode::SelfInversePair => "QCA0104",
            LintCode::NonSourceBasis => "QCA0105",
            LintCode::FidelityRange => "QCA0201",
            LintCode::NegativeDuration => "QCA0202",
            LintCode::CoherenceOrder => "QCA0203",
            LintCode::GateSlowerThanT2 => "QCA0204",
            LintCode::NoOneQubitClass => "QCA0205",
            LintCode::NoTwoQubitClass => "QCA0206",
            LintCode::PerfectFidelity => "QCA0207",
            LintCode::UnschedulableGate => "QCA0208",
            LintCode::CouplingDisconnected => "QCA0209",
            LintCode::UncoupledGate => "QCA0210",
            LintCode::CouplingQubitMismatch => "QCA0211",
            LintCode::BlockUnadaptable => "QCA0301",
            LintCode::BlockNoRules => "QCA0302",
            LintCode::RuleNeverApplies => "QCA0303",
            LintCode::LitOutOfRange => "QCA0401",
            LintCode::EmptyClause => "QCA0402",
            LintCode::TautologicalClause => "QCA0403",
            LintCode::DuplicateClause => "QCA0404",
            LintCode::DuplicateLiteral => "QCA0405",
            LintCode::UnusedVariable => "QCA0406",
            LintCode::ZeroWeightTerm => "QCA0407",
            LintCode::DisconnectedFormula => "QCA0501",
            LintCode::BackboneLiteral => "QCA0502",
            LintCode::SubsumedClause => "QCA0503",
            LintCode::SinglePolarity => "QCA0504",
            LintCode::ContradictoryUnits => "QCA0505",
        }
    }

    /// Short kebab-case rule name, as shown by `qca-lint --list`.
    pub fn name(&self) -> &'static str {
        match self {
            LintCode::ParseError => "parse-error",
            LintCode::UnusedQubit => "unused-qubit",
            LintCode::OpAfterMeasure => "op-after-measure",
            LintCode::ZeroAngle => "zero-angle-rotation",
            LintCode::SelfInversePair => "self-inverse-pair",
            LintCode::NonSourceBasis => "non-source-basis",
            LintCode::FidelityRange => "fidelity-out-of-range",
            LintCode::NegativeDuration => "negative-duration",
            LintCode::CoherenceOrder => "t2-exceeds-2t1",
            LintCode::GateSlowerThanT2 => "gate-slower-than-t2",
            LintCode::NoOneQubitClass => "no-one-qubit-class",
            LintCode::NoTwoQubitClass => "no-two-qubit-class",
            LintCode::PerfectFidelity => "perfect-fidelity",
            LintCode::UnschedulableGate => "unschedulable-gate",
            LintCode::CouplingDisconnected => "coupling-disconnected",
            LintCode::UncoupledGate => "uncoupled-gate",
            LintCode::CouplingQubitMismatch => "coupling-qubit-mismatch",
            LintCode::BlockUnadaptable => "block-unadaptable",
            LintCode::BlockNoRules => "block-without-rules",
            LintCode::RuleNeverApplies => "rule-never-applies",
            LintCode::LitOutOfRange => "literal-out-of-range",
            LintCode::EmptyClause => "empty-clause",
            LintCode::TautologicalClause => "tautological-clause",
            LintCode::DuplicateClause => "duplicate-clause",
            LintCode::DuplicateLiteral => "duplicate-literal",
            LintCode::UnusedVariable => "unconstrained-variable",
            LintCode::ZeroWeightTerm => "zero-weight-term",
            LintCode::DisconnectedFormula => "disconnected-formula",
            LintCode::BackboneLiteral => "backbone-literal",
            LintCode::SubsumedClause => "subsumed-clause",
            LintCode::SinglePolarity => "single-polarity",
            LintCode::ContradictoryUnits => "contradictory-units",
        }
    }

    /// The severity this code carries before any `--deny-warnings`
    /// escalation.
    pub fn default_severity(&self) -> Severity {
        match self {
            LintCode::ParseError
            | LintCode::OpAfterMeasure
            | LintCode::FidelityRange
            | LintCode::NegativeDuration
            | LintCode::CouplingQubitMismatch
            | LintCode::BlockUnadaptable
            | LintCode::LitOutOfRange
            | LintCode::EmptyClause
            | LintCode::ContradictoryUnits => Severity::Error,
            LintCode::PerfectFidelity | LintCode::UnusedVariable | LintCode::BackboneLiteral => {
                Severity::Info
            }
            _ => Severity::Warn,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from a lint pass.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Which rule fired.
    pub code: LintCode,
    /// Severity after any escalation.
    pub severity: Severity,
    /// Human-readable description of the specific finding.
    pub message: String,
    /// Source position, when the finding maps to QASM text.
    pub span: Option<SrcSpan>,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            span: None,
            help: None,
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: SrcSpan) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.span {
            write!(f, "{span}: ")?;
        }
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Escalates every [`Severity::Warn`] diagnostic to [`Severity::Error`],
/// implementing `--deny-warnings`. [`Severity::Info`] findings are left
/// alone.
pub fn escalate_warnings(diags: &mut [Diagnostic]) {
    for d in diags {
        if d.severity == Severity::Warn {
            d.severity = Severity::Error;
        }
    }
}

/// `true` when any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Per-severity totals over a diagnostic list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiagnosticCounts {
    /// Number of error-severity findings.
    pub errors: usize,
    /// Number of warning-severity findings.
    pub warnings: usize,
    /// Number of info-severity findings.
    pub infos: usize,
}

/// Tallies a diagnostic list by severity.
pub fn count_severities(diags: &[Diagnostic]) -> DiagnosticCounts {
    let mut counts = DiagnosticCounts::default();
    for d in diags {
        match d.severity {
            Severity::Error => counts.errors += 1,
            Severity::Warn => counts.warnings += 1,
            Severity::Info => counts.infos += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_ordered() {
        let strs: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), LintCode::ALL.len(), "duplicate code strings");
        assert_eq!(strs, sorted, "ALL must list codes in numeric order");
    }

    #[test]
    fn escalation_promotes_warnings_only() {
        let mut diags = vec![
            Diagnostic::new(LintCode::ZeroAngle, "w"),
            Diagnostic::new(LintCode::PerfectFidelity, "i"),
            Diagnostic::new(LintCode::EmptyClause, "e"),
        ];
        escalate_warnings(&mut diags);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[1].severity, Severity::Info);
        assert_eq!(diags[2].severity, Severity::Error);
        let counts = count_severities(&diags);
        assert_eq!((counts.errors, counts.warnings, counts.infos), (2, 0, 1));
    }

    #[test]
    fn display_includes_span_code_and_severity() {
        let d = Diagnostic::new(LintCode::ZeroAngle, "rz angle is zero")
            .with_span(SrcSpan { line: 3, col: 7 });
        assert_eq!(d.to_string(), "3:7: warning[QCA0103]: rz angle is zero");
    }
}
