//! Direct basis translation via an equivalence library.
//!
//! Implements the paper's baseline adaptation: every two-qubit gate not
//! native to the spin target is replaced by an equivalent subcircuit over
//! `{CZ, SU(2)}` using a fixed equivalence library (Fig. 3(a)); gates with
//! no library entry fall back to a KAK decomposition.

use crate::consolidate::consolidate_1q;
use crate::kak::kak_decompose;
use qca_circuit::{Circuit, Gate};

/// The `{CZ, SU(2)}` equivalent of a single two-qubit gate, on local qubits
/// `0` (first operand) and `1` (second operand).
///
/// Native spin gates (`Cz`, `CzDiabatic`, `SwapDiabatic`, `SwapComposite`,
/// `CRot`) are returned verbatim.
///
/// # Panics
///
/// Panics if `gate` is a single-qubit gate.
pub fn gate_to_cz(gate: &Gate) -> Circuit {
    assert!(gate.is_two_qubit(), "expected a two-qubit gate");
    let mut c = Circuit::new(2);
    match *gate {
        Gate::Cz | Gate::CzDiabatic | Gate::SwapDiabatic | Gate::SwapComposite => {
            c.push(*gate, &[0, 1]);
        }
        Gate::Cx => {
            c.push(Gate::H, &[1]);
            c.push(Gate::Cz, &[0, 1]);
            c.push(Gate::H, &[1]);
        }
        Gate::Swap => {
            // Three alternating CNOTs, each expanded to H·CZ·H.
            for (ctrl, tgt) in [(0, 1), (1, 0), (0, 1)] {
                c.push(Gate::H, &[tgt]);
                c.push(Gate::Cz, &[ctrl, tgt]);
                c.push(Gate::H, &[tgt]);
            }
        }
        Gate::CPhase(t) => {
            // CP(t) = (P(t/2)⊗I) CX (I⊗P(-t/2)) CX (I⊗P(t/2))
            c.push(Gate::Phase(t / 2.0), &[0]);
            c.push(Gate::Phase(t / 2.0), &[1]);
            c.push(Gate::H, &[1]);
            c.push(Gate::Cz, &[0, 1]);
            c.push(Gate::H, &[1]);
            c.push(Gate::Phase(-t / 2.0), &[1]);
            c.push(Gate::H, &[1]);
            c.push(Gate::Cz, &[0, 1]);
            c.push(Gate::H, &[1]);
        }
        Gate::CRot(t) => c.push(Gate::CRot(t), &[0, 1]),
        _ => {
            // ISwap and anything else: KAK to the CZ basis.
            let circ = kak_decompose(&gate.matrix()).to_circuit_cz();
            c.extend_from(&circ);
        }
    }
    c
}

/// Direct basis translation of a whole circuit to the `{CZ, SU(2),
/// CRot, swap realizations}` gate set, with single-qubit runs consolidated.
///
/// Every non-native two-qubit gate is replaced by its equivalence-library
/// expansion; single-qubit gates pass through (the spin target executes any
/// SU(2) natively).
///
/// # Examples
///
/// ```
/// use qca_circuit::{Circuit, Gate};
/// use qca_synth::translate::translate_to_cz;
/// use qca_num::phase::approx_eq_up_to_phase;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cx, &[0, 1]);
/// let t = translate_to_cz(&c);
/// assert!(t.iter().all(|i| i.gate != Gate::Cx));
/// assert!(approx_eq_up_to_phase(&t.unitary(), &c.unitary(), 1e-8));
/// ```
pub fn translate_to_cz(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for instr in circuit.iter() {
        if instr.gate.num_qubits() == 1 {
            out.push(instr.gate, &instr.qubits);
            continue;
        }
        let local = gate_to_cz(&instr.gate);
        for li in local.iter() {
            let mapped: Vec<usize> = li.qubits.iter().map(|&q| instr.qubits[q]).collect();
            out.push(li.gate, &mapped);
        }
    }
    consolidate_1q(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_num::phase::approx_eq_up_to_phase;

    fn check_gate(g: Gate) {
        let c = gate_to_cz(&g);
        assert!(
            approx_eq_up_to_phase(&c.unitary(), &g.matrix(), 1e-8),
            "{g} translation wrong"
        );
        for i in c.iter() {
            assert!(
                i.gate.num_qubits() == 1
                    || matches!(
                        i.gate,
                        Gate::Cz
                            | Gate::CzDiabatic
                            | Gate::SwapDiabatic
                            | Gate::SwapComposite
                            | Gate::CRot(_)
                    ),
                "{g} translation contains non-basis gate {}",
                i.gate
            );
        }
    }

    #[test]
    fn library_entries_are_exact() {
        for g in [
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::ISwap,
            Gate::ISwapDg,
            Gate::CPhase(0.9),
            Gate::CPhase(-2.5),
        ] {
            check_gate(g);
        }
    }

    #[test]
    fn cx_costs_one_cz() {
        let c = gate_to_cz(&Gate::Cx);
        assert_eq!(c.two_qubit_gate_count(), 1);
    }

    #[test]
    fn swap_costs_three_cz() {
        let c = gate_to_cz(&Gate::Swap);
        assert_eq!(c.two_qubit_gate_count(), 3);
    }

    #[test]
    fn translated_circuit_preserves_unitary_and_is_native() {
        use qca_hw::{spin_qubit_model, GateTimes};
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.4), &[1]);
        c.push(Gate::Swap, &[1, 2]);
        c.push(Gate::Cx, &[2, 0]);
        let t = translate_to_cz(&c);
        assert!(approx_eq_up_to_phase(&t.unitary(), &c.unitary(), 1e-8));
        assert!(hw.supports_circuit(&t), "translated circuit not native");
    }

    #[test]
    fn operand_order_respected() {
        // CX with control q1, target q0.
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[1, 0]);
        let t = translate_to_cz(&c);
        assert!(approx_eq_up_to_phase(&t.unitary(), &c.unitary(), 1e-8));
    }

    #[test]
    #[should_panic(expected = "two-qubit")]
    fn single_qubit_gate_rejected() {
        let _ = gate_to_cz(&Gate::H);
    }
}
