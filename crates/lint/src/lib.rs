//! Static diagnostics and preflight analysis for the QCA stack.
//!
//! The adaptation pipeline discovers many failure modes *dynamically*: a
//! circuit whose gate blocks no substitution rule can target burns a full
//! OMT search before failing, and malformed hardware tables or degenerate
//! encodings surface as solver misbehaviour. Most of those failures are
//! statically decidable from the paper's model — this crate proves them
//! up front and reports them as stable, coded [`Diagnostic`]s.
//!
//! Five analysis passes share one diagnostics framework:
//!
//! | pass | entry point | codes |
//! |------|-------------|-------|
//! | circuit/QASM shape | [`circuit::lint_program`], [`circuit::lint_circuit`] | `QCA0001`, `QCA01xx` |
//! | hardware models | [`hw::lint_hardware`] | `QCA02xx` |
//! | rule coverage | [`rules::lint_rule_coverage`] | `QCA03xx` |
//! | encodings | [`encoding::lint_encoding`] | `QCA04xx` |
//! | whole-formula analysis | [`formula::lint_formula`] | `QCA05xx` |
//!
//! Severities follow the compiler convention: `Error` findings make the
//! input unusable (preflight rejects it), `Warn` findings are suspicious
//! but workable (escalated by [`escalate_warnings`] under
//! `--deny-warnings`), `Info` findings are observations.
//!
//! The rule-coverage pass is the static half of the paper's preprocessing
//! contract: every block's CZ-basis reference translation must be priced
//! by the hardware, so `QCA0301` proves infeasibility *before*
//! `smt.encode` runs. The `qca-adapt` crate exposes this as
//! `preflight`/`AdaptError::Rejected`, and `qca-engine` runs it as the
//! traced `engine.preflight` stage.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod circuit;
pub mod diag;
pub mod encoding;
pub mod formula;
pub mod hw;
pub mod registry;
pub mod render;
pub mod rules;

pub use circuit::{lint_circuit, lint_program, lint_qasm_source};
pub use diag::{
    count_severities, escalate_warnings, has_errors, Diagnostic, DiagnosticCounts, LintCode,
    Severity,
};
pub use encoding::{lint_cnf, lint_encoding, lint_records};
pub use formula::{lint_formula, lint_formula_report};
pub use hw::{lint_circuit_coupling, lint_coupling, lint_hardware, lint_schedulability};
pub use registry::{LintInfo, LintRegistry};
pub use render::{render_human, render_json};
pub use rules::lint_rule_coverage;

/// The source span type diagnostics attach to (re-exported from
/// `qca-circuit`'s QASM parser).
pub use qca_circuit::qasm::SrcSpan;
