//! Golden search trajectory of one budgeted adaptation: the SAT statistics
//! the OMT search accumulates on a fixed paper-family circuit.
//!
//! The model is bit-blasted into CNF and solved by `qca-sat` under the
//! default probe budgets, so the counters below depend on every decision,
//! propagation, learnt clause and database reduction of the CDCL core. A
//! change that keeps the search identical leaves them exactly as they are.
//! (The solver crate pins its own trajectories on plain CNF; this test lives
//! here because `qca-sat` cannot depend on `qca-adapt`.)

use qca::adapt::{adapt, AdaptContext, Objective};
use qca::hw::{spin_qubit_model, GateTimes};
use qca::workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};

#[test]
fn budgeted_rand_3q_d20_adaptation_trajectory_is_pinned() {
    let circuit = random_template_circuit(3, 20, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let result = adapt(
        &circuit,
        &hw,
        &AdaptContext::with_objective(Objective::Combined),
    )
    .expect("adaptation succeeds");
    let s = &result.solver.solver_stats;
    assert_eq!(
        (
            s.decisions,
            s.propagations,
            s.conflicts,
            s.restarts,
            s.deleted_clauses,
            s.minimized_literals,
        ),
        (49_378, 4_391_930, 18_000, 108, 12_877, 40_389)
    );
}
