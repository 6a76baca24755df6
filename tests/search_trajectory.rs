//! Golden search trajectory of one budgeted adaptation: the size of the
//! bit-blasted model and the SAT statistics the OMT search accumulates on a
//! fixed paper-family circuit.
//!
//! The model is bit-blasted into CNF and solved by `qca-sat` under the
//! default probe budgets, so the counters below depend on every gate the
//! encoder emits and on every decision, propagation, learnt clause and
//! database reduction of the CDCL core. A change that keeps the encoding
//! and the search identical leaves them exactly as they are.
//! (The solver crate pins its own trajectories on plain CNF; this test lives
//! here because `qca-sat` cannot depend on `qca-adapt`.)

use qca::adapt::{adapt, AdaptContext, Objective};
use qca::hw::{spin_qubit_model, GateTimes};
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
