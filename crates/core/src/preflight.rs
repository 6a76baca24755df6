//! Static preflight analysis: run the `qca-lint` passes relevant to an
//! adaptation request and reject statically infeasible inputs before any
//! encoding or solving happens.
//!
//! [`preflight`] is the gatekeeper the batch engine runs as its
//! `engine.preflight` stage: it combines the circuit-shape, hardware-model,
//! and rule-coverage lints for the exact (circuit, hardware, coupling)
//! request that [`adapt`](crate::adapt) would solve. Error-severity findings
//! — notably `QCA0301` (a block whose reference translation needs unpriced
//! gate classes) — are returned as
//! [`AdaptError::Rejected`], proving
//! infeasibility without an `smt.encode` phase ever running.

use crate::error::AdaptError;
use qca_circuit::Circuit;
use qca_hw::{CouplingMap, HardwareModel};
pub use qca_lint::Diagnostic;
use qca_lint::{
    has_errors, lint_circuit, lint_circuit_coupling, lint_hardware, lint_rule_coverage,
};

/// Statically analyses an adaptation request.
///
/// Runs the circuit-shape, hardware-model, and rule-coverage lint passes
/// and returns every finding. When any finding has error severity the
/// input is statically unusable and `Err(AdaptError::Rejected)` carries
/// the full diagnostic list instead.
///
/// # Examples
///
/// A circuit whose blocks cannot be referenced natively is rejected
/// without solving:
///
/// ```
/// use qca_adapt::{preflight, AdaptError};
/// use qca_circuit::{Circuit, Gate};
/// use qca_hw::ibm_source_model;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cx, &[0, 1]);
/// // ibm_source prices Cx but not Cz, so the CZ-basis reference
/// // translation of the block is unpriced: statically unadaptable.
/// let err = preflight(&c, &ibm_source_model());
/// assert!(matches!(err, Err(AdaptError::Rejected(_))));
/// ```
pub fn preflight(circuit: &Circuit, hw: &HardwareModel) -> Result<Vec<Diagnostic>, AdaptError> {
    preflight_with_coupling(circuit, hw, None)
}

/// [`preflight`] for a topology-constrained request: additionally runs the
/// coupling lints (`QCA0209`–`QCA0211`). An uncoupled pair the map can
/// still route is a warning; an unroutable pair (no path, or no priced swap
/// realization) is an error and rejects the request, matching where
/// [`adapt`](crate::adapt) would fail during rule evaluation.
pub fn preflight_with_coupling(
    circuit: &Circuit,
    hw: &HardwareModel,
    coupling: Option<&CouplingMap>,
) -> Result<Vec<Diagnostic>, AdaptError> {
    let mut diags = lint_circuit(circuit);
    diags.extend(lint_hardware(hw));
    diags.extend(lint_rule_coverage(circuit, hw));
    if let Some(cm) = coupling {
        diags.extend(lint_circuit_coupling(circuit, cm, hw));
    }
    if has_errors(&diags) {
        Err(AdaptError::Rejected(diags))
    } else {
        Ok(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AdaptContext;
    use qca_circuit::Gate;
    use qca_hw::{ibm_source_model, spin_qubit_model, GateTimes};
    use qca_lint::{LintCode, Severity};

    fn swap_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        c
    }

    #[test]
    fn clean_request_passes_with_no_findings() {
        let hw = spin_qubit_model(GateTimes::D0);
        let diags = preflight(&swap_circuit(), &hw).unwrap();
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn warnings_do_not_reject() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        let diags = preflight(&c, &hw).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::SelfInversePair);
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn unadaptable_block_is_rejected_with_qca0301() {
        let err = preflight(&swap_circuit(), &ibm_source_model());
        let Err(AdaptError::Rejected(diags)) = err else {
            panic!("expected rejection, got {err:?}");
        };
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::BlockUnadaptable && d.severity == Severity::Error));
    }

    #[test]
    fn rejection_agrees_with_adapt_failure() {
        // The static proof must match the dynamic behaviour: adapt() on
        // the same input fails in preprocessing.
        let hw = ibm_source_model();
        let err = crate::adapt(&swap_circuit(), &hw, &AdaptContext::default());
        assert!(matches!(err, Err(AdaptError::UnsupportedGate(_))));
    }

    #[test]
    fn coupling_preflight_warns_on_routable_pairs() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 2]);
        let line = CouplingMap::line(3);
        let diags = preflight_with_coupling(&c, &hw, Some(&line)).unwrap();
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::UncoupledGate && d.severity == Severity::Warn));
    }

    #[test]
    fn coupling_preflight_rejects_unroutable_pairs() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 2]);
        let cm = CouplingMap::new(3, [(0, 1)]).unwrap(); // qubit 2 isolated
        let err = preflight_with_coupling(&c, &hw, Some(&cm));
        let Err(AdaptError::Rejected(diags)) = err else {
            panic!("expected rejection, got {err:?}");
        };
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::UncoupledGate && d.severity == Severity::Error));
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::CouplingDisconnected));
    }

    #[test]
    fn coupling_preflight_rejects_undersized_map() {
        let hw = spin_qubit_model(GateTimes::D0);
        let line = CouplingMap::line(2);
        let err = preflight_with_coupling(&swap_circuit_3q(), &hw, Some(&line));
        let Err(AdaptError::Rejected(diags)) = err else {
            panic!("expected rejection, got {err:?}");
        };
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::CouplingQubitMismatch));
    }

    fn swap_circuit_3q() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 2]);
        c
    }

    #[test]
    fn rejected_error_display_names_the_first_error() {
        let err = preflight(&swap_circuit(), &ibm_source_model()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rejected by preflight"), "{msg}");
        assert!(msg.contains("QCA0301"), "{msg}");
    }
}
