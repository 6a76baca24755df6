//! Rule-coverage analysis (`QCA03xx`): static infeasibility proofs for a
//! (circuit, hardware) pair.
//!
//! The adaptation pipeline partitions the circuit into gate blocks and
//! requires every block's *reference translation* (its CZ-basis form from
//! `qca-synth`) to be priced by the hardware; substitution rules then
//! compete against that reference. Both requirements are statically
//! decidable: a block whose reference translation contains an unpriced
//! cost class makes the whole adaptation infeasible before any SAT call
//! (`QCA0301`), and a rule whose replacement gates are never priced can
//! never fire (`QCA0303`). The adaptation evaluates every Table I rule
//! family, so the analysis covers all of them.

use crate::diag::{Diagnostic, LintCode};
use qca_circuit::blocks::partition_blocks;
use qca_circuit::{Circuit, Gate};
use qca_hw::{CostClass, HardwareModel};
use qca_synth::translate::translate_to_cz;
use std::collections::BTreeSet;

/// Statically analyses rule coverage for adapting `circuit` to `hw`.
pub fn lint_rule_coverage(circuit: &Circuit, hw: &HardwareModel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let name = hw.name();

    // QCA0303: rules whose replacement gates the hardware never prices.
    // Such a rule contributes no catalog entry and can never fire.
    let one_qubit = hw.supports(&Gate::H);
    let families = [
        (
            "kak-cz",
            "Cz (plus OneQubit)",
            hw.supports(&Gate::Cz) && one_qubit,
        ),
        (
            "kak-cz-diabatic",
            "CzDiabatic (plus OneQubit)",
            hw.supports(&Gate::CzDiabatic) && one_qubit,
        ),
        (
            "conditional-rotation",
            "CRot (plus OneQubit)",
            hw.supports(&Gate::CRot(0.5)) && one_qubit,
        ),
        (
            "swaps",
            "SwapDiabatic or SwapComposite",
            hw.supports(&Gate::SwapDiabatic) || hw.supports(&Gate::SwapComposite),
        ),
    ];
    for &(rule, needed, ok) in &families {
        if !ok {
            diags.push(
                Diagnostic::new(
                    LintCode::RuleNeverApplies,
                    format!("rule '{rule}' can never apply: {name} does not price {needed}"),
                )
                .with_help("price the class for the rule to compete"),
            );
        }
    }

    // Whether some rule family targets classes `hw` prices. Pattern rules
    // also need the block unitary to match, which is not statically
    // decidable: this over-approximates to avoid false warnings.
    let any_rule_possible = families.iter().any(|&(_, _, ok)| ok);

    // Per-block analysis against the reference translation.
    let partition = partition_blocks(circuit);
    for block in &partition.blocks {
        let local = partition.block_circuit(circuit, block.id);
        let reference = translate_to_cz(&local);
        let missing: BTreeSet<CostClass> = reference
            .iter()
            .filter(|i| !hw.supports(&i.gate))
            .map(|i| CostClass::of(&i.gate))
            .collect();
        if !missing.is_empty() {
            // QCA0301: preprocessing will reject this block outright —
            // provable without encoding anything.
            diags.push(
                Diagnostic::new(
                    LintCode::BlockUnadaptable,
                    format!(
                        "block {} ({}) is statically unadaptable: its reference translation \
                         needs unpriced gate class{} {:?}",
                        block.id,
                        block_gates(&local),
                        if missing.len() == 1 { "" } else { "es" },
                        missing,
                    ),
                )
                .with_help(format!(
                    "{name} must price these classes: the pipeline requires a native \
                     reference translation for every block"
                )),
            );
            continue; // QCA0302 would only restate the error.
        }
        // QCA0302: the reference works, but no rule can compete with it,
        // so the solver's choice for this block is forced.
        if block.is_two_qubit() && !any_rule_possible {
            diags.push(
                Diagnostic::new(
                    LintCode::BlockNoRules,
                    format!(
                        "block {} ({}) has no applicable substitution rules; only its \
                         reference translation can be used",
                        block.id,
                        block_gates(&local),
                    ),
                )
                .with_help("price a gate class some rule family targets"),
            );
        }
    }

    diags
}

/// Short gate summary for block messages, e.g. `cx q[0],q[1]`.
fn block_gates(local: &Circuit) -> String {
    let mut names: Vec<String> = local.iter().map(|i| i.to_string()).collect();
    if names.len() > 3 {
        let extra = names.len() - 3;
        names.truncate(3);
        names.push(format!("+{extra} more"));
    }
    names.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use qca_hw::{ibm_source_model, spin_qubit_model, GateTimes};

    fn cx_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c
    }

    #[test]
    fn spin_target_with_default_rules_is_clean() {
        let hw = spin_qubit_model(GateTimes::D0);
        let diags = lint_rule_coverage(&cx_circuit(), &hw);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn cx_block_is_unadaptable_on_ibm_source_model() {
        // ibm_source prices Cx but not Cz, so the CZ-basis reference
        // translation of any two-qubit block is unpriced.
        let hw = ibm_source_model();
        let diags = lint_rule_coverage(&cx_circuit(), &hw);
        let unadaptable: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::BlockUnadaptable)
            .collect();
        assert_eq!(unadaptable.len(), 1);
        assert_eq!(unadaptable[0].severity, Severity::Error);
        assert!(unadaptable[0].message.contains("Cz"));
    }

    #[test]
    fn dead_rule_on_ibm_source_model_is_flagged() {
        // ibm_source prices neither Cz nor CzDiabatic nor CRot nor swaps:
        // every rule family is dead.
        let hw = ibm_source_model();
        let diags = lint_rule_coverage(&Circuit::new(1), &hw);
        let dead = diags
            .iter()
            .filter(|d| d.code == LintCode::RuleNeverApplies)
            .count();
        assert_eq!(dead, 4);
    }

    #[test]
    fn one_qubit_circuit_on_spin_is_clean() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(1);
        c.push(Gate::H, &[0]);
        c.push(Gate::T, &[0]);
        let diags = lint_rule_coverage(&c, &hw);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }
}
