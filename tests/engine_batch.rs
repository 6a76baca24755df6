//! Workspace-level integration test of the batch-adaptation engine:
//! parallel batches are bit-identical to sequential ones on workload
//! circuits, resubmission is answered from the cache, and every report is a
//! valid native adaptation of its input.

use qca::adapt::Objective;
use qca::engine::{AdaptJob, AdaptStatus, Engine, EngineConfig};
use qca::hw::{spin_qubit_model, GateTimes};
use qca::num::phase::approx_eq_up_to_phase;
use qca::workloads::{quantum_volume, random_template_circuit, TemplateGate};

fn workload() -> Vec<AdaptJob> {
    let mut jobs: Vec<AdaptJob> = (0..4)
        .map(|i| {
            let c = random_template_circuit(
                3,
                12,
                40 + i,
                &[TemplateGate::Cx, TemplateGate::Swap],
                true,
            );
            AdaptJob::with_objective(c, Objective::Fidelity)
        })
        .collect();
    jobs.push(AdaptJob::with_objective(
        quantum_volume(3, 2, 7),
        Objective::Combined,
    ));
    jobs
}

#[test]
fn parallel_batch_matches_sequential_and_preserves_unitaries() {
    let hw = spin_qubit_model(GateTimes::D0);
    let jobs = workload();
    let seq = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
    .adapt_batch(&hw, &jobs);
    let par = Engine::new(EngineConfig {
        workers: 8,
        ..EngineConfig::default()
    })
    .adapt_batch(&hw, &jobs);

    assert_eq!(seq.len(), jobs.len());
    for ((job, a), b) in jobs.iter().zip(&seq).zip(&par) {
        assert_eq!(a.circuit, b.circuit, "worker count changed job {}", a.job);
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.status, b.status);
        assert_ne!(a.status, AdaptStatus::Fallback);
        assert!(hw.supports_circuit(&a.circuit));
        assert!(
            approx_eq_up_to_phase(&a.circuit.unitary(), &job.circuit.unitary(), 1e-6),
            "job {} changed the unitary",
            a.job
        );
    }
}

#[test]
fn resubmission_is_served_from_cache_with_identical_results() {
    let hw = spin_qubit_model(GateTimes::D0);
    let jobs = workload();
    let engine = Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let first = engine.adapt_batch(&hw, &jobs);
    let second = engine.adapt_batch(&hw, &jobs);
    assert!(first.iter().all(|r| !r.cache_hit));
    assert!(second.iter().all(|r| r.cache_hit));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.objective_value, b.objective_value);
        assert_eq!(a.status, b.status);
    }
    let metrics = engine.metrics();
    assert!((metrics.cache_hit_rate() - 0.5).abs() < 1e-9);
    assert_eq!(
        metrics.to_json().get("cache_hits").and_then(|v| v.as_u64()),
        Some(metrics.get("cache_hits"))
    );
}
