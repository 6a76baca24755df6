//! # qca-sim
//!
//! Noisy density-matrix simulator for evaluating adapted circuits, matching
//! the error model of the paper's §V-B:
//!
//! * exact density-matrix evolution ([`DensityMatrix`]),
//! * depolarizing gate noise scaled to each gate's fidelity and thermal
//!   relaxation (`T1`, `T2`) during qubit idle time ([`noise`]),
//! * ASAP-schedule-driven noisy execution ([`simulate_noisy`]),
//! * the Hellinger fidelity metric of Fig. 7 ([`hellinger`]).
//!
//! # Examples
//!
//! ```
//! use qca_circuit::{Circuit, Gate};
//! use qca_hw::{spin_qubit_model, GateTimes};
//! use qca_sim::simulate_noisy;
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::H, &[0]);
//! c.push(Gate::Cz, &[0, 1]);
//! let hw = spin_qubit_model(GateTimes::D0);
//! let out = simulate_noisy(&c, &hw).expect("native circuit");
//! assert!(out.hellinger_fidelity > 0.98);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod density;
pub mod hellinger;
pub mod noise;
mod run;

pub use density::DensityMatrix;
pub use run::{ideal_distribution, simulate_noisy, SimOutcome};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qca_circuit::{Circuit, Gate};
    use qca_hw::{spin_qubit_model, GateTimes};

    fn arb_native_circuit(nq: usize) -> impl Strategy<Value = Circuit> {
        proptest::collection::vec((0usize..5, 0..nq, 0..nq, -3.0..3.0f64), 0..12).prop_map(
            move |ops| {
                let mut c = Circuit::new(nq);
                for (kind, a, b, angle) in ops {
                    match kind {
                        0 => c.push(Gate::H, &[a]),
                        1 => c.push(Gate::Rz(angle), &[a]),
                        2 if a != b => c.push(Gate::Cz, &[a, b]),
                        3 if a != b => c.push(Gate::SwapComposite, &[a, b]),
                        4 if a != b => c.push(Gate::CRot(angle), &[a, b]),
                        _ => {}
                    }
                }
                c
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(25))]

        /// Noisy evolution is trace preserving and yields a distribution.
        #[test]
        fn noisy_distribution_is_normalized(c in arb_native_circuit(3)) {
            let hw = spin_qubit_model(GateTimes::D0);
            let out = simulate_noisy(&c, &hw).unwrap();
            let total: f64 = out.noisy.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-8);
            prop_assert!(out.noisy.iter().all(|&p| p >= -1e-10));
            prop_assert!(out.hellinger_fidelity <= 1.0 + 1e-9);
        }

        /// The noisy distribution never beats the ideal one in Hellinger
        /// fidelity against itself (sanity: fidelity of ideal vs ideal = 1).
        #[test]
        fn ideal_self_fidelity_is_one(c in arb_native_circuit(2)) {
            let ideal = ideal_distribution(&c);
            let f = hellinger::hellinger_fidelity(&ideal, &ideal);
            prop_assert!((f - 1.0).abs() < 1e-9);
        }
    }
}
