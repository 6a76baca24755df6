//! Golden search trajectories: the size of the bit-blasted model and the
//! SAT statistics the OMT search accumulates on fixed paper-family circuits,
//! for each path through the search — a budgeted solve, an exact certified
//! solve, and the anchored re-check of recalibration — and what the
//! independent DRAT checker counts in two long certificates.
//!
//! The model is bit-blasted into CNF and solved by `qca-sat` under the
//! default probe budgets, so the counters below depend on every gate the
//! encoder emits and on every decision, propagation, learnt clause and
//! database reduction of the CDCL core. A change that keeps the encoding
//! and the search identical leaves them exactly as they are.
//! (The solver crate pins its own trajectories on plain CNF; this test lives
//! here because `qca-sat` cannot depend on `qca-adapt`.)

use qca::adapt::{
    adapt, recalibrate_adaptation, AdaptContext, Adaptation, Objective, SmtAdaptation,
};
use qca::circuit::Circuit;
use qca::hw::{spin_qubit_model, CouplingMap, GateTimes};
use qca::trace::{TraceEvent, Tracer};
use qca::workloads::{quantum_volume, random_template_circuit, DEFAULT_TEMPLATE_GATES};
use qca_verify::{audit_adaptation, check_certificate};

/// A budgeted solve of `circuit` under `objective`, with the encoded
/// model's size as `smt.encode` reports it: `((sat_vars, sat_clauses),
/// adaptation)`.
fn budgeted(
    circuit: &Circuit,
    objective: Objective,
    coupling: Option<CouplingMap>,
) -> ((i64, i64), Adaptation) {
    let hw = spin_qubit_model(GateTimes::D0);
    let (tracer, sink) = Tracer::to_memory();
    let mut ctx = AdaptContext {
        tracer,
        ..AdaptContext::with_objective(objective)
    };
    ctx.options.coupling = coupling;
    let adaptation = adapt(circuit, &hw, &ctx).expect("adaptation succeeds");
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
    (
        (gauge("smt.sat_vars"), gauge("smt.sat_clauses")),
        adaptation,
    )
}

/// The search's outcome and SAT counters:
/// `(value, queries, optimal, (decisions, props, conflicts, restarts))`.
fn trajectory(r: &SmtAdaptation) -> (i64, u64, bool, (u64, u64, u64, u64)) {
    let s = &r.solver_stats;
    (
        r.objective_value,
        r.queries,
        r.optimal,
        (s.decisions, s.propagations, s.conflicts, s.restarts),
    )
}

#[test]
fn budgeted_rand_3q_d20_linear_search_trajectory_is_pinned() {
    let circuit = random_template_circuit(3, 20, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let (size, adaptation) = budgeted(&circuit, Objective::Combined, None);
    assert_eq!(size, (2_448, 13_040));
    let r = &adaptation.solver;
    let s = &r.solver_stats;
    assert_eq!(
        (trajectory(r), (s.deleted_clauses, s.minimized_literals)),
        ((-27_107, 2, false, (6_907, 238_116, 2_000, 12)), (0, 1_886))
    );
}

/// A star-coupled model: every block on a pair that does not touch the hub
/// gains routing substitutions, so these pins cover the routing clauses
/// and the route-seeded warm start. (A line map routes nothing here: the
/// template places gates only on adjacent line pairs.)
#[test]
fn budgeted_star_coupled_rand_4q_d20_trajectories_are_pinned() {
    let circuit = random_template_circuit(4, 20, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let star = || Some(CouplingMap::star(4));

    let (size, combined) = budgeted(&circuit, Objective::Combined, star());
    assert_eq!(size, (3_212, 17_042));
    assert_eq!(
        trajectory(&combined.solver),
        (-52_126, 2, false, (9_862, 246_204, 2_000, 12))
    );
    let routes = combined.chosen.iter().filter(|s| s.route.is_some()).count();
    assert_eq!(routes, 10);

    let (size, idle) = budgeted(&circuit, Objective::IdleTime, star());
    assert_eq!(size, (2_175, 11_331));
    assert_eq!(
        trajectory(&idle.solver),
        (-39_600, 2, false, (8_496, 132_925, 2_000, 12))
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
    assert_eq!(got, (-493, 1, true, (0, 144, 0, 0), Some(21)));
}

/// The certification probe runs under the solve's total conflict cap. The
/// search needs no conflict (the first model reaches the per-block bound),
/// but refuting the next level needs more than the cap leaves, so the
/// answer stays unproven and uncertified, and the audit accepts it.
#[test]
fn certification_probe_obeys_the_conflict_cap() {
    let circuit = random_template_circuit(3, 6, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
    ctx.options.exact = true;
    ctx.options.certify = true;
    ctx.limits.total_conflicts = Some(5);
    let adaptation = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    let r = &adaptation.solver;
    let got = (
        r.objective_value,
        r.queries,
        r.optimal,
        r.solver_stats.conflicts,
    );
    assert_eq!(got, (-493, 1, false, 0));
    let verification = r.verification.as_ref().expect("certify attaches data");
    assert!(verification.certificate.is_none());
    audit_adaptation(&circuit, &adaptation, &hw, Objective::Fidelity)
        .expect("an unproven answer needs no certificate");
}

/// A long fidelity certificate: the search stops at the per-block bound,
/// so the proof is one probe of the next level, and the independent
/// checker's counts of every kind of step are pinned.
#[test]
fn exact_certified_rand_3q_d40_certificate_is_pinned() {
    let circuit = random_template_circuit(3, 40, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
    ctx.options.exact = true;
    ctx.options.certify = true;
    let adaptation = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    let cert = adaptation
        .solver
        .verification
        .as_ref()
        .and_then(|v| v.certificate.as_ref())
        .expect("exact solve carries a certificate");
    let stats = check_certificate(cert).expect("certificate verifies");
    // The refuted formula: the shadow formula plus the refuted unit.
    let clauses = cert.cnf.clauses.len() + 1;
    let got = (
        (clauses, cert.steps.len()),
        (
            stats.additions_checked,
            stats.deletions_applied,
            stats.deletions_ignored,
            stats.steps_skipped,
        ),
    );
    assert_eq!(got, ((7_794, 2_215), (2_213, 0, 0, 2)));
}

/// An exact idle search that ends by refuting `best + 1`: the certificate
/// reuses that refutation, with no further solve, and its proof is the
/// whole search's DRAT log, long enough for the solver to reduce its
/// clause database, so the checker applies lemma deletions.
#[test]
fn exact_certified_idle_rand_3q_d8_certificate_is_pinned() {
    let circuit = random_template_circuit(3, 8, 0x5eed_2023, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);
    let (tracer, sink) = Tracer::to_memory();
    let mut ctx = AdaptContext {
        tracer,
        ..AdaptContext::with_objective(Objective::IdleTime)
    };
    ctx.options.exact = true;
    ctx.options.certify = true;
    let adaptation = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    let r = &adaptation.solver;
    let solves = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::SpanEnter { name, .. } if name == "sat.solve"))
        .count();
    assert_eq!(solves as u64, r.queries, "certifying solved nothing more");
    let cert = r
        .verification
        .as_ref()
        .and_then(|v| v.certificate.as_ref())
        .expect("exact solve carries a certificate");
    let stats = check_certificate(cert).expect("certificate verifies");
    // The refuted formula: the shadow formula plus the refuted unit.
    let clauses = cert.cnf.clauses.len() + 1;
    let got = (
        trajectory(r),
        (clauses, cert.steps.len()),
        (
            stats.additions_checked,
            stats.deletions_applied,
            stats.deletions_ignored,
            stats.steps_skipped,
        ),
    );
    assert_eq!(
        got,
        (
            (-8_130, 2, true, (6_656, 254_473, 4_320, 21)),
            (3_474, 6_795),
            (4_319, 2_474, 0, 2)
        )
    );
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
    assert_eq!(got, (true, -987, 1, true, (0, 157, 0, 0)));
}

/// The combined objective's `hi` is the fidelity bound, attained by the
/// fidelity block argmax. On this quantum-volume circuit that argmax also
/// idles no qubit, so it reaches `hi` and the answer is decided with no
/// solver; the greedy warm start stops below it.
#[test]
fn combined_qv_4x2_is_decided_at_the_fidelity_block_argmax() {
    let circuit = quantum_volume(4, 2, 0x5eed_2023 + 300);
    let hw = spin_qubit_model(GateTimes::D0);
    let (tracer, sink) = Tracer::to_memory();
    let ctx = AdaptContext {
        tracer,
        ..AdaptContext::with_objective(Objective::Combined)
    };
    let adaptation = adapt(&circuit, &hw, &ctx).expect("adaptation succeeds");
    assert_eq!(
        trajectory(&adaptation.solver),
        (-639, 0, true, (0, 0, 0, 0))
    );
    let decided = sink.events().iter().any(|e| {
        matches!(e, TraceEvent::SpanExit { note: Some(note), .. }
            if note == "value=-639 source=blocks hi=-639 decided=true")
    });
    assert!(decided, "the warm start is the block argmax, at hi");
}
