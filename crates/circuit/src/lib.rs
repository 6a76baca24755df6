//! # qca-circuit
//!
//! Quantum circuit intermediate representation for the SAT-based circuit
//! adaptation workspace:
//!
//! * the gate library ([`Gate`]) including the spin-qubit hardware
//!   realizations of the paper (diabatic CZ, SWAP_d, SWAP_c, CROT),
//! * the circuit IR ([`Circuit`], [`Instr`]),
//! * two-qubit block partitioning with the block dependency graph
//!   ([`blocks`], the paper's preprocessing step §IV-A),
//! * OpenQASM 2.0 parsing/printing ([`qasm`]),
//! * canonical structural hashing for adaptation caching ([`hash`]).
//!
//! # Examples
//!
//! ```
//! use qca_circuit::{Circuit, Gate, blocks::partition_blocks};
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::H, &[0]);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[1, 2]);
//! let partition = partition_blocks(&c);
//! assert_eq!(partition.blocks.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blocks;
mod circuit;
mod gate;
pub mod hash;
pub mod qasm;

pub use circuit::{Circuit, Instr};
pub use gate::Gate;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qca_num::phase::approx_eq_up_to_phase;

    /// Strategy producing a random circuit over `nq` qubits.
    fn arb_circuit(nq: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
        let gate = prop_oneof![
            Just(GateSpec::H),
            Just(GateSpec::X),
            Just(GateSpec::S),
            (-3.0..3.0f64).prop_map(GateSpec::Rz),
            (-3.0..3.0f64).prop_map(GateSpec::Ry),
            Just(GateSpec::Cx),
            Just(GateSpec::Cz),
            Just(GateSpec::Swap),
            (-3.0..3.0f64).prop_map(GateSpec::CPhase),
        ];
        proptest::collection::vec((gate, 0..nq, 0..nq), 0..max_len).prop_map(move |specs| {
            let mut c = Circuit::new(nq);
            for (g, a, b) in specs {
                match g {
                    GateSpec::H => c.push(Gate::H, &[a]),
                    GateSpec::X => c.push(Gate::X, &[a]),
                    GateSpec::S => c.push(Gate::S, &[a]),
                    GateSpec::Rz(t) => c.push(Gate::Rz(t), &[a]),
                    GateSpec::Ry(t) => c.push(Gate::Ry(t), &[a]),
                    GateSpec::Cx | GateSpec::Cz | GateSpec::Swap | GateSpec::CPhase(_)
                        if a == b => {}
                    GateSpec::Cx => c.push(Gate::Cx, &[a, b]),
                    GateSpec::Cz => c.push(Gate::Cz, &[a, b]),
                    GateSpec::Swap => c.push(Gate::Swap, &[a, b]),
                    GateSpec::CPhase(t) => c.push(Gate::CPhase(t), &[a, b]),
                }
            }
            c
        })
    }

    #[derive(Debug, Clone, Copy)]
    enum GateSpec {
        H,
        X,
        S,
        Rz(f64),
        Ry(f64),
        Cx,
        Cz,
        Swap,
        CPhase(f64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        #[test]
        fn circuit_unitary_is_unitary(c in arb_circuit(3, 12)) {
            prop_assert!(c.unitary().is_unitary(1e-9));
        }

        #[test]
        fn inverse_composes_to_identity(c in arb_circuit(3, 10)) {
            let mut full = c.clone();
            full.extend_from(&c.inverse());
            let id = qca_num::CMat::identity(8);
            prop_assert!(approx_eq_up_to_phase(&full.unitary(), &id, 1e-8));
        }

        #[test]
        fn qasm_round_trip(c in arb_circuit(3, 12)) {
            let text = qasm::to_qasm(&c);
            let c2 = qasm::parse_qasm(&text).unwrap();
            prop_assert_eq!(c.len(), c2.len());
            prop_assert!(approx_eq_up_to_phase(&c.unitary(), &c2.unitary(), 1e-8));
        }

        #[test]
        fn partition_covers_all_ops(c in arb_circuit(4, 20)) {
            let p = blocks::partition_blocks(&c);
            let mut count = 0;
            for b in &p.blocks {
                count += b.ops.len();
                // ops sorted ascending within block
                for w in b.ops.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
            prop_assert_eq!(count, c.len());
        }

        #[test]
        fn partition_reconstruction_equivalent(c in arb_circuit(3, 14)) {
            let p = blocks::partition_blocks(&c);
            let mut rebuilt = Circuit::new(c.num_qubits());
            for id in p.topological_order() {
                for &op in &p.blocks[id].ops {
                    let instr = &c.instrs()[op];
                    rebuilt.push(instr.gate, &instr.qubits);
                }
            }
            prop_assert!(approx_eq_up_to_phase(&c.unitary(), &rebuilt.unitary(), 1e-8));
        }
    }
}
