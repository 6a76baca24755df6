//! Integration tests for the tracing pipeline: every adaptation emits a
//! well-formed span forest, the JSONL sink round-trips it, and the span
//! tree accounts for essentially all of the adaptation's wall time.

use proptest::prelude::*;
use qca::adapt::{adapt, AdaptContext, Objective};
use qca::hw::{spin_qubit_model, GateTimes};
use qca::trace::{jsonl, report, JsonlSink, Tracer};
use qca::workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};
use std::sync::Arc;

/// The phases every successful adaptation must pass through, in pipeline
/// order. `omt.search` owns the probe timeline; `warm_start` seeds it.
const PHASES: [&str; 7] = [
    "adapt",
    "preprocess",
    "rules",
    "smt.encode",
    "warm_start",
    "omt.search",
    "extract",
];

#[test]
fn jsonl_trace_has_one_span_per_pipeline_phase() {
    let path =
        std::env::temp_dir().join(format!("qca-trace-pipeline-{}.jsonl", std::process::id()));
    let circuit = random_template_circuit(3, 14, 42, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);

    let tracer = Tracer::new(Arc::new(JsonlSink::create(&path).unwrap()));
    let ctx = AdaptContext {
        tracer,
        ..AdaptContext::with_objective(Objective::Combined)
    };
    adapt(&circuit, &hw, &ctx).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let events = jsonl::parse_jsonl(&text).expect("written trace parses back");
    report::validate_forest(&events).expect("well-formed forest");

    let rpt = report::Report::from_events(&events);
    for phase in PHASES {
        let count = count_spans(&rpt.roots, phase);
        assert_eq!(count, 1, "expected exactly one `{phase}` span, got {count}");
    }
    // The root is the adapt span itself and it reports success.
    assert_eq!(rpt.roots.len(), 1);
    assert_eq!(rpt.roots[0].name, "adapt");
    assert_eq!(rpt.roots[0].note.as_deref(), Some("ok"));
}

#[test]
fn trace_covers_nearly_all_adaptation_wall_time() {
    let circuit = random_template_circuit(4, 16, 7, &DEFAULT_TEMPLATE_GATES, true);
    let hw = spin_qubit_model(GateTimes::D0);

    let (tracer, sink) = Tracer::to_memory();
    let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
    ctx.tracer = tracer;
    adapt(&circuit, &hw, &ctx).unwrap();

    let events = sink.take();
    report::validate_forest(&events).expect("well-formed forest");
    let rpt = report::Report::from_events(&events);
    let root = &rpt.roots[0];
    assert_eq!(root.name, "adapt");
    let covered: u64 = root.children.iter().map(|c| c.total_ns()).sum();
    let total = root.total_ns().max(1);
    let coverage = covered as f64 / total as f64;
    assert!(
        coverage >= 0.95,
        "phase spans cover only {:.1}% of the adapt span ({covered} of {total} ns)",
        coverage * 100.0
    );
}

fn count_spans(nodes: &[report::SpanNode], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| usize::from(n.name == name) + count_spans(&n.children, name))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Whatever the circuit and objective, the emitted trace is a
    /// well-formed forest (balanced enter/exit, correct parenting) and its
    /// root records the adaptation outcome.
    #[test]
    fn every_trace_is_a_well_formed_forest(
        qubits in 2usize..4,
        depth in 4usize..18,
        seed in 0u64..1000,
        objective in prop_oneof![
            Just(Objective::Fidelity),
            Just(Objective::IdleTime),
            Just(Objective::Combined),
        ],
    ) {
        let circuit = random_template_circuit(
            qubits, depth, seed, &DEFAULT_TEMPLATE_GATES, true,
        );
        let hw = spin_qubit_model(GateTimes::D0);
        let (tracer, sink) = Tracer::to_memory();
        let mut ctx = AdaptContext::with_objective(objective);
        ctx.tracer = tracer;
        let result = adapt(&circuit, &hw, &ctx);
        prop_assert!(result.is_ok());

        let events = sink.take();
        prop_assert!(report::validate_forest(&events).is_ok());
        let rpt = report::Report::from_events(&events);
        prop_assert_eq!(rpt.roots.len(), 1);
        prop_assert_eq!(&rpt.roots[0].name, "adapt");
        prop_assert_eq!(rpt.roots[0].note.as_deref(), Some("ok"));
        // Exit stamps never precede enter stamps anywhere in the tree.
        fn monotone(n: &report::SpanNode) -> bool {
            n.t_exit >= n.t_enter && n.children.iter().all(monotone)
        }
        prop_assert!(monotone(&rpt.roots[0]));
    }
}
