//! Golden search trajectories: the size of the bit-blasted model and the
//! SAT statistics the OMT search accumulates on fixed paper-family circuits,
//! for each path through the search — budgeted binary and linear search,
//! an exact certified solve, and the anchored re-check of recalibration.
//!
//! The model is bit-blasted into CNF and solved by `qca-sat` under the
//! default probe budgets, so the counters below depend on every gate the
//! encoder emits and on every decision, propagation, learnt clause and
//! database reduction of the CDCL core. A change that keeps the encoding
//! and the search identical leaves them exactly as they are.
//! (The solver crate pins its own trajectories on plain CNF; this test lives
//! here because `qca-sat` cannot depend on `qca-adapt`.)

use qca::adapt::{adapt, recalibrate_adaptation, AdaptContext, Adaptation, Objective};
use qca::hw::{spin_qubit_model, GateTimes};
use qca::smt::omt::Strategy;
use qca::trace::{TraceEvent, Tracer};
use qca::workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};

#[test]
fn budgeted_rand_3q_d20_adaptation_trajectory_is_pinned() {
    let circuit = random_template_circuit(3, 20, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let (tracer, sink) = Tracer::to_memory();
    let ctx = AdaptContext {
        tracer,
        ..AdaptContext::with_objective(Objective::Combined)
    };
    let result = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    // The encoded model's size, as `smt.encode` reports it.
    let events = sink.events();
    let gauge = |wanted: &str| {
        events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Gauge { name, value, .. } if name == wanted => Some(*value),
                _ => None,
            })
            .expect("gauge emitted")
    };
    let s = &result.solver.solver_stats;
    assert_eq!(
        (gauge("smt.sat_vars"), gauge("smt.sat_clauses")),
        (2_448, 13_040)
    );
    assert_eq!(
        (
            s.decisions,
            s.propagations,
            s.conflicts,
            s.restarts,
            s.deleted_clauses,
            s.minimized_literals,
        ),
        (42_572, 2_839_947, 18_000, 108, 14_065, 48_705)
    );
}

#[test]
fn budgeted_rand_3q_d20_linear_search_trajectory_is_pinned() {
    let circuit = random_template_circuit(3, 20, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let mut ctx = AdaptContext::with_objective(Objective::Combined);
    ctx.options.strategy = Strategy::LinearSearch;
    let r = adapt(&circuit, &hw, &ctx)
        .expect("adaptation succeeds")
        .solver;
    let s = &r.solver_stats;
    let got = (
        r.objective_value,
        r.queries,
        r.optimal,
        (s.decisions, s.propagations, s.conflicts, s.restarts),
        (s.deleted_clauses, s.minimized_literals),
    );
    assert_eq!(
        got,
        (-27_107, 2, false, (6_907, 238_116, 2_000, 12), (0, 1_886))
    );
}

/// An exact, certified fidelity adaptation of a small paper-family circuit.
fn exact_certified_rand_3q_d6() -> (qca::circuit::Circuit, AdaptContext, Adaptation) {
    let circuit = random_template_circuit(3, 6, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
    ctx.options.exact = true;
    ctx.options.certify = true;
    let adaptation = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    (circuit, ctx, adaptation)
}

#[test]
fn exact_certified_rand_3q_d6_trajectory_is_pinned() {
    let (_, _, adaptation) = exact_certified_rand_3q_d6();
    let r = &adaptation.solver;
    let s = &r.solver_stats;
    let steps = r
        .verification
        .as_ref()
        .and_then(|v| v.certificate.as_ref())
        .map(|c| c.steps.len());
    let got = (
        r.objective_value,
        r.queries,
        r.optimal,
        (s.decisions, s.propagations, s.conflicts, s.restarts),
        steps,
    );
    assert_eq!(got, (-493, 8, true, (67, 1_563, 33, 0), Some(22)));
}

#[test]
fn recalibrated_rand_3q_d6_trajectory_is_pinned() {
    let (circuit, ctx, prev) = exact_certified_rand_3q_d6();
    let drifted = spin_qubit_model(GateTimes::D0).with_scaled_infidelity(2.0);
    let recal = recalibrate_adaptation(&circuit, &drifted, &prev, &ctx).expect("recalibrates");
    let reused = recal.reused();
    let r = recal.into_adaptation().solver;
    let s = &r.solver_stats;
    let got = (
        reused,
        r.objective_value,
        r.queries,
        r.optimal,
        (s.decisions, s.propagations, s.conflicts, s.restarts),
    );
    assert_eq!(got, (true, -987, 2, true, (79, 1_878, 41, 0)));
}
