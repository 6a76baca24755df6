//! # qca-adapt
//!
//! SAT-based quantum circuit adaptation — the core contribution of
//! *"SAT-Based Quantum Circuit Adaptation"* (Brandhofer, Kim, Niu, Bronn;
//! DATE 2023), reproduced end to end:
//!
//! 1. [`preprocess`](preprocess::preprocess) — partition the circuit into
//!    two-qubit blocks, derive the block dependency graph, compute the
//!    reference (direct-basis-translation) adaptation and its costs,
//! 2. [`evaluate_substitutions`](rules::evaluate_substitutions) — evaluate
//!    every substitution rule (KAK with CZ / diabatic CZ, conditional
//!    rotation, SWAP_d / SWAP_c realizations) on the circuit,
//! 3. `solve_model` ([`model`]) — build the SMT model (Eqs. 1–10)
//!    and maximize the chosen objective with the OMT engine,
//! 4. [`extract_circuit`] — apply the selected
//!    substitutions to obtain the adapted circuit.
//!
//! The one-call entry point is [`adapt`], which takes an [`AdaptContext`]
//! bundling the options with run-time concerns (conflict budgets,
//! cancellation, span tracing — see the [`context`] module).
//!
//! # Examples
//!
//! ```
//! use qca_adapt::{adapt, AdaptContext, Objective};
//! use qca_circuit::{Circuit, Gate};
//! use qca_hw::{spin_qubit_model, GateTimes};
//!
//! // Three alternating CNOTs form a SWAP: the solver swaps in a native
//! // swap realization instead of translating each CNOT to CZ.
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[1, 0]);
//! c.push(Gate::Cx, &[0, 1]);
//! let hw = spin_qubit_model(GateTimes::D0);
//! let result = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity))?;
//! let f_new = hw.circuit_fidelity(&result.circuit).unwrap();
//! let f_ref = hw.circuit_fidelity(&result.reference).unwrap();
//! assert!(f_new >= f_ref);
//! # Ok::<(), qca_adapt::AdaptError>(())
//! ```
//!
//! To watch where the time goes, install a tracer:
//!
//! ```
//! use qca_adapt::{adapt, AdaptContext, Objective};
//! use qca_circuit::{Circuit, Gate};
//! use qca_hw::{spin_qubit_model, GateTimes};
//! use qca_trace::{report::Report, Tracer};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::Cx, &[0, 1]);
//! c.push(Gate::Cx, &[1, 0]);
//! c.push(Gate::Cx, &[0, 1]);
//! let hw = spin_qubit_model(GateTimes::D0);
//! let (tracer, sink) = Tracer::to_memory();
//! let ctx = AdaptContext {
//!     tracer,
//!     ..AdaptContext::with_objective(Objective::Combined)
//! };
//! adapt(&c, &hw, &ctx)?;
//! let report = Report::from_events(&sink.take());
//! assert!(report.phase_total_ns("omt.search").is_some());
//! # Ok::<(), qca_adapt::AdaptError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adapt;
pub mod context;
pub mod deadline;
mod error;
pub mod model;
pub mod preflight;
pub mod preprocess;
pub mod rules;

pub use adapt::{
    adapt, extract_circuit, recalibrate_adaptation, AdaptOptions, Adaptation, Recalibration,
};
pub use context::AdaptContext;
pub use error::AdaptError;
pub use model::{
    evaluate_selection, recheck_optimum, AdaptLimits, Objective, RecheckOutcome, SmtAdaptation,
    VerificationData, LOG_SCALE,
};
pub use preflight::{preflight, preflight_with_coupling, Diagnostic, RuleToggles};
pub use rules::{append_routing_substitutions, Route, RuleOptions, Substitution, SubstitutionKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qca_circuit::{Circuit, Gate};
    use qca_hw::{spin_qubit_model, GateTimes};
    use qca_num::phase::approx_eq_up_to_phase;

    fn arb_ibm_circuit(nq: usize) -> impl Strategy<Value = Circuit> {
        proptest::collection::vec((0usize..4, 0..nq, 0..nq, -3.0..3.0f64), 1..10).prop_map(
            move |ops| {
                let mut c = Circuit::new(nq);
                for (kind, a, b, angle) in ops {
                    match kind {
                        0 if a != b => c.push(Gate::Cx, &[a, b]),
                        1 => c.push(Gate::Sx, &[a]),
                        2 => c.push(Gate::Rz(angle), &[a]),
                        _ => c.push(Gate::X, &[b]),
                    }
                }
                c
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// End-to-end adaptation preserves the circuit unitary and produces
        /// hardware-native output, for every objective.
        #[test]
        fn adaptation_sound_on_random_ibm_circuits(c in arb_ibm_circuit(3)) {
            let hw = spin_qubit_model(GateTimes::D0);
            for obj in [Objective::Fidelity, Objective::Combined] {
                let r = adapt(&c, &hw, &AdaptContext::with_objective(obj)).unwrap();
                prop_assert!(hw.supports_circuit(&r.circuit));
                prop_assert!(
                    approx_eq_up_to_phase(&r.circuit.unitary(), &c.unitary(), 1e-6),
                    "{obj} broke equivalence"
                );
            }
        }

        /// The SAT F objective never yields worse fidelity than the
        /// reference adaptation.
        #[test]
        fn fidelity_never_below_reference(c in arb_ibm_circuit(3)) {
            let hw = spin_qubit_model(GateTimes::D0);
            let r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
            let fa = hw.circuit_fidelity(&r.circuit).unwrap();
            let fr = hw.circuit_fidelity(&r.reference).unwrap();
            prop_assert!(fa >= fr - 1e-9, "adapted {fa} < reference {fr}");
        }

        /// An explicit all-to-all coupling map is bit-identical to the
        /// default (no map): same encoding size, same selection, same
        /// objective value, same output circuit.
        #[test]
        fn all_to_all_coupling_is_bit_identical(c in arb_ibm_circuit(3)) {
            use qca_hw::CouplingMap;
            let hw = spin_qubit_model(GateTimes::D0);
            for obj in [Objective::Fidelity, Objective::Combined] {
                let plain = adapt(&c, &hw, &AdaptContext::with_objective(obj)).unwrap();
                let ctx = AdaptContext {
                    options: AdaptOptions {
                        objective: obj,
                        coupling: Some(CouplingMap::all_to_all(3)),
                        ..AdaptOptions::default()
                    },
                    ..AdaptContext::default()
                };
                let full = adapt(&c, &hw, &ctx).unwrap();
                prop_assert_eq!(plain.solver.chosen, full.solver.chosen);
                prop_assert_eq!(plain.solver.objective_value, full.solver.objective_value);
                prop_assert_eq!(plain.solver.sat_vars, full.solver.sat_vars);
                prop_assert_eq!(plain.catalog_size, full.catalog_size);
                prop_assert_eq!(plain.circuit, full.circuit);
            }
        }

        /// Topology-constrained adaptation on a star stays sound: every
        /// two-qubit gate in the output lands on a coupled pair and the
        /// unitary is preserved.
        #[test]
        fn star_routed_adaptation_is_sound(c in arb_ibm_circuit(3)) {
            use qca_hw::CouplingMap;
            let hw = spin_qubit_model(GateTimes::D0);
            let star = CouplingMap::star(3);
            let ctx = AdaptContext {
                options: AdaptOptions {
                    coupling: Some(star.clone()),
                    ..AdaptOptions::default()
                },
                ..AdaptContext::default()
            };
            let r = adapt(&c, &hw, &ctx).unwrap();
            prop_assert!(hw.supports_circuit(&r.circuit));
            for i in r.circuit.iter().filter(|i| i.qubits.len() == 2) {
                prop_assert!(star.is_coupled(i.qubits[0], i.qubits[1]),
                    "2q gate on uncoupled pair {:?}", i.qubits);
            }
            prop_assert!(
                approx_eq_up_to_phase(&r.circuit.unitary(), &c.unitary(), 1e-6),
                "routing broke equivalence"
            );
        }
    }
}
