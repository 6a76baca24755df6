//! Integration tests for the qca-lint static diagnostics and the engine
//! preflight: acceptance soundness (a preflight-accepted circuit never dies
//! on a static-shape error inside `adapt`), rejection before encoding (no
//! `smt.encode` span for a statically infeasible job), and the `lint.*`
//! metrics surface.

use proptest::prelude::*;
use qca::adapt::{adapt, preflight, AdaptContext, AdaptError, Objective, RuleOptions};
use qca::circuit::{Circuit, Gate};
use qca::engine::{AdaptJob, AdaptStatus, Engine, EngineConfig};
use qca::hw::{ibm_source_model, spin_qubit_model, GateTimes};
use qca::trace::{report::Report, Tracer};
use qca::workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Preflight acceptance is sound: any circuit the static analysis lets
    /// through must never fail adaptation with a static-shape error
    /// (`UnsupportedGate` is exactly the condition QCA0301 proves).
    #[test]
    fn preflight_accepted_circuits_never_hit_static_shape_errors(
        qubits in 2usize..4,
        depth in 4usize..16,
        seed in 0u64..1000,
    ) {
        let hw = spin_qubit_model(GateTimes::D0);
        let circuit = random_template_circuit(
            qubits, depth, seed, &DEFAULT_TEMPLATE_GATES, true,
        );
        let rules = RuleOptions::default();
        if preflight(&circuit, &hw, &rules).is_ok() {
            let outcome = adapt(
                &circuit,
                &hw,
                &AdaptContext::with_objective(Objective::Fidelity),
            );
            prop_assert!(
                !matches!(outcome, Err(AdaptError::UnsupportedGate(_))),
                "preflight accepted a circuit that adapt rejected statically",
            );
        }
    }
}

#[test]
fn infeasible_job_is_rejected_before_any_encoding() {
    // The IBM source model prices CX but no CZ-family gate, so the
    // reference translation of any two-qubit block is unpriced: QCA0301
    // proves infeasibility statically and the solver must never start.
    let hw = ibm_source_model();
    let mut c = Circuit::new(2);
    c.push(Gate::H, &[0]);
    c.push(Gate::Cx, &[0, 1]);

    let (tracer, sink) = Tracer::to_memory();
    let engine = Engine::new(EngineConfig {
        workers: 1,
        lint: true,
        tracer,
        ..EngineConfig::default()
    });
    let reports = engine.adapt_batch(&hw, &[AdaptJob::new(c)]);
    assert_eq!(reports[0].status, AdaptStatus::Fallback);
    assert!(matches!(reports[0].error, Some(AdaptError::Rejected(_))));

    let report = Report::from_events(&sink.take());
    assert_eq!(report.phase_count("engine.preflight"), 1);
    assert_eq!(
        report.phase_count("smt.encode"),
        0,
        "a preflight-rejected job must not reach the encoder"
    );
}

#[test]
fn metrics_json_exposes_lint_counters() {
    let hw = spin_qubit_model(GateTimes::D0);
    let jobs: Vec<AdaptJob> = (0..3)
        .map(|seed| {
            AdaptJob::new(random_template_circuit(
                3,
                10,
                400 + seed,
                &DEFAULT_TEMPLATE_GATES,
                true,
            ))
        })
        .collect();
    let engine = Engine::new(EngineConfig {
        workers: 2,
        lint: true,
        ..EngineConfig::default()
    });
    let reports = engine.adapt_batch(&hw, &jobs);
    assert_eq!(reports.len(), 3);

    // Parsed back from the rendered text, as a `--metrics-out` reader sees it.
    let text = engine.metrics().to_json().to_string_compact();
    let json = qca::trace::json::parse(&text).unwrap();
    let counter = |key: &str| json.get(key).and_then(|v| v.as_u64());
    assert_eq!(counter("lint_errors"), Some(0), "{text}");
    assert!(counter("lint_warnings").is_some(), "{text}");
    assert_eq!(counter("lint_rejections"), Some(0), "{text}");
    // Diagnostics ride on the reports themselves; none may carry an error
    // because every job completed.
    for report in &reports {
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.severity != qca::lint::Severity::Error));
    }
}
