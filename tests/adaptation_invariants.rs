//! Integration-level invariants of the adaptation pipeline, checked on a
//! randomized family of circuits: soundness (unitary preservation,
//! nativeness), dominance over baselines, selection consistency, and
//! behaviour of the optimized-KAK extension.

use qca::adapt::{adapt, AdaptContext, AdaptOptions, Objective, RuleOptions};
use qca::baselines::{direct_translation, template_optimization, TemplateObjective};
use qca::circuit::Circuit;
use qca::hw::{spin_qubit_model, GateTimes};
use qca::num::phase::approx_eq_up_to_phase;
use qca::workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};

fn circuits() -> Vec<Circuit> {
    (0..4)
        .map(|seed| random_template_circuit(3, 14, 100 + seed, &DEFAULT_TEMPLATE_GATES, true))
        .collect()
}

#[test]
fn chosen_substitutions_never_conflict() {
    let hw = spin_qubit_model(GateTimes::D0);
    for c in circuits() {
        for obj in [
            Objective::Fidelity,
            Objective::IdleTime,
            Objective::Combined,
        ] {
            let r = adapt(&c, &hw, &AdaptContext::with_objective(obj)).unwrap();
            for (i, a) in r.chosen.iter().enumerate() {
                for b in &r.chosen[i + 1..] {
                    assert!(!a.conflicts_with(b), "{obj}: conflicting selection");
                }
            }
        }
    }
}

#[test]
fn optimized_kak_variant_is_sound_and_never_worse_on_fidelity() {
    let hw = spin_qubit_model(GateTimes::D0);
    for c in circuits() {
        let generic = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let ctx = AdaptContext {
            options: AdaptOptions {
                objective: Objective::Fidelity,
                rules: RuleOptions {
                    optimized_kak: true,
                },
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        };
        let optimized = adapt(&c, &hw, &ctx).unwrap();
        assert!(approx_eq_up_to_phase(
            &optimized.circuit.unitary(),
            &c.unitary(),
            1e-6
        ));
        assert!(hw.supports_circuit(&optimized.circuit));
        let fg = hw.circuit_fidelity(&generic.circuit).unwrap();
        let fo = hw.circuit_fidelity(&optimized.circuit).unwrap();
        assert!(
            fo >= fg - 1e-9,
            "optimized KAK made fidelity worse: {fo} < {fg}"
        );
    }
}

#[test]
fn exact_search_agrees_with_budgeted_on_fidelity_objective() {
    // SAT F has no scheduling component: budgeted and exact searches must
    // find the same optimum (the fidelity model is identical).
    let hw = spin_qubit_model(GateTimes::D0);
    for c in circuits() {
        let budgeted = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let exact = adapt(
            &c,
            &hw,
            &AdaptContext {
                options: AdaptOptions {
                    objective: Objective::Fidelity,
                    exact: true,
                    ..AdaptOptions::default()
                },
                ..AdaptContext::default()
            },
        )
        .unwrap();
        assert!(exact.solver.optimal);
        let fb = hw.circuit_fidelity(&budgeted.circuit).unwrap();
        let fe = hw.circuit_fidelity(&exact.circuit).unwrap();
        assert!(
            (fb - fe).abs() < 1e-9,
            "budgeted {fb} vs exact {fe} fidelity mismatch"
        );
    }
}

#[test]
fn sat_never_below_template_on_matching_objective() {
    let hw = spin_qubit_model(GateTimes::D1);
    for c in circuits() {
        let sat = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let tmpl = template_optimization(&c, &hw, TemplateObjective::Fidelity).unwrap();
        let fs = hw.circuit_fidelity(&sat.circuit).unwrap();
        let ft = hw.circuit_fidelity(&tmpl).unwrap();
        assert!(fs >= ft - 1e-9, "SAT F {fs} below template {ft}");
        let fb = hw.circuit_fidelity(&direct_translation(&c)).unwrap();
        assert!(fs >= fb - 1e-9, "SAT F {fs} below baseline {fb}");
    }
}

#[test]
fn reference_close_to_direct_translation_cost() {
    // The pipeline's internal reference adaptation is per-block; the public
    // baseline additionally consolidates single-qubit gates across block
    // boundaries. The baseline can therefore only be equal or slightly
    // better, never worse, and the gap is a handful of SU(2) gates.
    let hw = spin_qubit_model(GateTimes::D0);
    for c in circuits() {
        let r = adapt(&c, &hw, &AdaptContext::default()).unwrap();
        let f_ref = hw.circuit_fidelity(&r.reference).unwrap();
        let f_dir = hw.circuit_fidelity(&direct_translation(&c)).unwrap();
        assert!(
            f_ref <= f_dir + 1e-9,
            "reference {f_ref} beat direct {f_dir}?"
        );
        assert!(
            f_ref >= f_dir * 0.999f64.powi(16),
            "reference {f_ref} too far below direct {f_dir}"
        );
    }
}
