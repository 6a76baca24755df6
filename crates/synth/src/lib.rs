//! # qca-synth
//!
//! Quantum circuit synthesis and rewriting:
//!
//! * [`euler`] — single-qubit U3/ZYZ synthesis,
//! * [`kak`] — Cartan (KAK) decomposition of two-qubit unitaries with
//!   optimal three-CNOT / three-CZ circuit emission (Fig. 3(c) of the
//!   paper),
//! * [`consolidate`] — single-qubit gate consolidation into `U3`s,
//! * [`translate`] — direct basis translation via the equivalence library
//!   (Fig. 3(a), the paper's baseline adaptation).
//!
//! # Examples
//!
//! ```
//! use qca_num::random::haar_unitary;
//! use qca_num::phase::approx_eq_up_to_phase;
//! use qca_synth::kak::kak_decompose;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let u = haar_unitary(&mut rng, 4);
//! let circuit = kak_decompose(&u).to_circuit_cz();
//! assert_eq!(circuit.two_qubit_gate_count(), 3);
//! assert!(approx_eq_up_to_phase(&circuit.unitary(), &u, 1e-7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod consolidate;
pub mod euler;
pub mod kak;
pub mod translate;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use qca_circuit::{Circuit, Gate};
    use qca_num::phase::approx_eq_up_to_phase;
    use qca_num::random::haar_unitary;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn kak_reconstructs_haar_unitaries(seed in 0u64..10_000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let u = haar_unitary(&mut rng, 4);
            let kak = crate::kak::kak_decompose(&u);
            prop_assert!(kak.to_matrix().approx_eq(&u, 1e-6));
            let circ = kak.to_circuit_cz();
            prop_assert!(approx_eq_up_to_phase(&circ.unitary(), &u, 1e-6));
            prop_assert_eq!(circ.two_qubit_gate_count(), 3);
        }

        #[test]
        fn euler_reconstructs_haar_unitaries(seed in 0u64..10_000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let u = haar_unitary(&mut rng, 2);
            let a = crate::euler::euler_angles(&u);
            prop_assert!(a.to_matrix().approx_eq(&u, 1e-8));
        }

        #[test]
        fn translation_preserves_random_two_qubit_circuits(
            ops in proptest::collection::vec((0usize..5, any::<bool>(), -3.0..3.0f64), 1..10)
        ) {
            let mut c = Circuit::new(2);
            for (kind, flip, angle) in ops {
                let (a, b) = if flip { (1, 0) } else { (0, 1) };
                match kind {
                    0 => c.push(Gate::Cx, &[a, b]),
                    1 => c.push(Gate::Swap, &[a, b]),
                    2 => c.push(Gate::CPhase(angle), &[a, b]),
                    3 => c.push(Gate::H, &[a]),
                    _ => c.push(Gate::Rz(angle), &[b]),
                }
            }
            let t = crate::translate::translate_to_cz(&c);
            prop_assert!(approx_eq_up_to_phase(&t.unitary(), &c.unitary(), 1e-7));
        }

        #[test]
        fn consolidation_preserves_unitary(
            ops in proptest::collection::vec((0usize..6, 0usize..2, -3.0..3.0f64), 0..15)
        ) {
            let mut c = Circuit::new(2);
            for (kind, q, angle) in ops {
                match kind {
                    0 => c.push(Gate::H, &[q]),
                    1 => c.push(Gate::Rz(angle), &[q]),
                    2 => c.push(Gate::Ry(angle), &[q]),
                    3 => c.push(Gate::T, &[q]),
                    4 => c.push(Gate::Cz, &[0, 1]),
                    _ => c.push(Gate::Cx, &[q, 1 - q]),
                }
            }
            let out = crate::consolidate::consolidate_1q(&c);
            prop_assert!(approx_eq_up_to_phase(&out.unitary(), &c.unitary(), 1e-7));
        }
    }
}
