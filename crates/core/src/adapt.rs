//! The end-to-end adaptation pipeline (Fig. 2 of the paper).
//!
//! `preprocess → evaluate substitution rules → build & solve SMT model →
//! apply chosen substitutions`.

use crate::context::AdaptContext;
use crate::error::AdaptError;
use crate::model::{Objective, SmtAdaptation};
use crate::preprocess::{preprocess, Preprocessed};
use crate::rules::{
    append_routing_substitutions, apply_to_block, evaluate_substitutions, RuleOptions, Substitution,
};
use qca_circuit::Circuit;
use qca_hw::{CouplingMap, HardwareModel};
use qca_smt::omt::Strategy;
use qca_synth::consolidate::consolidate_1q;

/// What [`adapt`] solves: objective, rule set, search strategy, exactness.
///
/// Run-time concerns (conflict budgets, cancellation, tracing) live on
/// [`AdaptContext`], which wraps these options; `AdaptOptions` itself stays
/// a plain value describing the problem.
///
/// # Examples
///
/// ```
/// use qca_adapt::{AdaptContext, AdaptOptions, Objective};
///
/// let options = AdaptOptions {
///     objective: Objective::IdleTime,
///     certify: true,
///     ..AdaptOptions::default()
/// };
/// let ctx = AdaptContext {
///     options,
///     ..AdaptContext::default()
/// };
/// assert!(ctx.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptOptions {
    /// Objective function handed to the SMT solver.
    pub objective: Objective,
    /// Which substitution rules to evaluate.
    pub rules: RuleOptions,
    /// OMT search strategy.
    pub strategy: Strategy,
    /// Run the OMT search to proven optimality (no probe budgets or gap).
    /// Slower on scheduling objectives; the default budgeted search reports
    /// whether it happened to prove optimality via
    /// [`SmtAdaptation::optimal`](crate::SmtAdaptation).
    pub exact: bool,
    /// Record the constraint system during the solve and attach
    /// [`VerificationData`](crate::VerificationData) to the result: an audit
    /// bundle for independent model replay, plus (for proven-optimal
    /// searches) a DRAT optimality certificate. Costs extra memory and, for
    /// the certificate, one proof-logged re-solve.
    pub certify: bool,
    /// Target qubit connectivity. `None` (the default) keeps the paper's
    /// all-to-all assumption. With a map, every two-qubit block on an
    /// uncoupled pair gains routing substitutions (SWAP insertion along the
    /// BFS-shortest path, priced from Table I's swap realizations) and the
    /// OMT objective trades routing overhead against fidelity. An
    /// all-to-all map generates no routing substitutions and is
    /// bit-identical to `None`.
    pub coupling: Option<CouplingMap>,
}

/// Result of a SAT-based circuit adaptation.
#[derive(Debug, Clone)]
pub struct Adaptation {
    /// The adapted circuit (native to the target hardware).
    pub circuit: Circuit,
    /// The reference adaptation (direct basis translation), for comparison.
    pub reference: Circuit,
    /// The substitutions the solver selected.
    pub chosen: Vec<Substitution>,
    /// The full evaluated catalog size.
    pub catalog_size: usize,
    /// Raw solver outcome (objective value, query/variable counts).
    pub solver: SmtAdaptation,
}

/// Adapts `circuit` to the `hw` gate set, choosing a globally optimal
/// combination of substitutions with an SMT model.
///
/// The [`AdaptContext`] bundles the options with run-time concerns: conflict
/// budgets, cooperative cancellation, and span tracing.
/// [`AdaptContext::with_objective`] or [`AdaptContext::default`] suffices
/// for simple calls.
///
/// # Errors
///
/// [`AdaptError::InvalidOptions`] when the context fails
/// [`AdaptContext::validate`] (checked before any work); otherwise
/// propagates [`AdaptError`] from preprocessing, rule evaluation, or
/// solving.
///
/// # Examples
///
/// ```
/// use qca_adapt::{adapt, AdaptContext, Objective};
/// use qca_circuit::{Circuit, Gate};
/// use qca_hw::{spin_qubit_model, GateTimes};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cx, &[0, 1]);
/// c.push(Gate::Cx, &[1, 0]);
/// c.push(Gate::Cx, &[0, 1]);
/// let hw = spin_qubit_model(GateTimes::D0);
/// let result = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity))?;
/// assert!(hw.supports_circuit(&result.circuit));
/// # Ok::<(), qca_adapt::AdaptError>(())
/// ```
pub fn adapt(
    circuit: &Circuit,
    hw: &HardwareModel,
    ctx: &AdaptContext,
) -> Result<Adaptation, AdaptError> {
    let mut root = ctx.tracer.span_with("adapt", || {
        format!(
            "objective={} qubits={} gates={}",
            ctx.options.objective,
            circuit.num_qubits(),
            circuit.len()
        )
    });
    let result = ctx.validate().and_then(|()| adapt_inner(circuit, hw, ctx));
    root.set_note(match &result {
        Ok(_) => "ok",
        Err(AdaptError::Cancelled) => "cancelled",
        Err(AdaptError::Infeasible) => "infeasible",
        Err(AdaptError::TooLarge(_)) => "too_large",
        Err(AdaptError::UnsupportedGate(_)) => "unsupported_gate",
        Err(AdaptError::InvalidOptions(_)) => "invalid_options",
        Err(AdaptError::Internal(_)) => "internal",
        Err(AdaptError::Rejected(_)) => "rejected",
    });
    result
}

fn adapt_inner(
    circuit: &Circuit,
    hw: &HardwareModel,
    ctx: &AdaptContext,
) -> Result<Adaptation, AdaptError> {
    let pre = {
        let _span = ctx.tracer.span("preprocess");
        preprocess(circuit, hw)?
    };
    let catalog = {
        let mut span = ctx.tracer.span("rules");
        let catalog = build_catalog(&pre, hw, ctx)?;
        ctx.tracer
            .counter("rules.catalog_size", catalog.len() as u64);
        span.set_note(format!("catalog={}", catalog.len()));
        catalog
    };
    let solver = crate::model::solve_model(&pre, hw, &catalog, ctx)?;
    let circuit = {
        let _span = ctx.tracer.span("extract");
        extract_circuit(&pre, &catalog, &solver.chosen)
    };
    let chosen = solver.chosen.iter().map(|&i| catalog[i].clone()).collect();
    Ok(Adaptation {
        circuit,
        reference: pre.reference_circuit(),
        chosen,
        catalog_size: catalog.len(),
        solver,
    })
}

/// Outcome of [`recalibrate_adaptation`].
#[derive(Debug, Clone)]
pub enum Recalibration {
    /// The previous selection is still optimal under the new hardware data:
    /// the adaptation was refreshed (re-scored objective, fresh
    /// verification data) without a full OMT search.
    Reused(Adaptation),
    /// The previous optimum no longer held; a warm-started solve produced
    /// a new adaptation.
    Resolved(Adaptation),
}

impl Recalibration {
    /// The refreshed adaptation, however it was obtained.
    pub fn into_adaptation(self) -> Adaptation {
        match self {
            Recalibration::Reused(a) | Recalibration::Resolved(a) => a,
        }
    }

    /// `true` when the previous optimum was reused without a re-solve.
    pub fn reused(&self) -> bool {
        matches!(self, Recalibration::Reused(_))
    }
}

/// Re-validates a previously computed adaptation against (possibly drifted)
/// hardware data. The cached selection's optimality is re-checked with
/// [`recheck_optimum`](crate::model::recheck_optimum) — two SAT queries
/// when it still holds — and only entries whose certificate no longer
/// holds pay for a fresh OMT search, warm-started from the previous
/// selection.
///
/// # Errors
///
/// [`AdaptError::InvalidOptions`] when the context fails
/// [`AdaptContext::validate`]; otherwise propagates [`AdaptError`] from
/// preprocessing, rule evaluation, the re-check, or the fallback solve.
pub fn recalibrate_adaptation(
    circuit: &Circuit,
    hw: &HardwareModel,
    prev: &Adaptation,
    ctx: &AdaptContext,
) -> Result<Recalibration, AdaptError> {
    ctx.validate()?;
    let mut root = ctx.tracer.span_with("recalibrate", || {
        format!(
            "objective={} qubits={} gates={}",
            ctx.options.objective,
            circuit.num_qubits(),
            circuit.len()
        )
    });
    let pre = {
        let _span = ctx.tracer.span("preprocess");
        preprocess(circuit, hw)?
    };
    let catalog = {
        let _span = ctx.tracer.span("rules");
        build_catalog(&pre, hw, ctx)?
    };
    // Note the previous solve need not carry an optimality claim: the
    // exact re-check also confirms (and upgrades) a gap-degraded result
    // whose value happens to be the true optimum.
    let outcome = crate::model::recheck_optimum(&pre, hw, &catalog, ctx, &prev.solver.chosen)?;
    match outcome {
        crate::model::RecheckOutcome::StillOptimal(solver) => {
            root.set_note("reused");
            let solver = *solver;
            let circuit = extract_circuit(&pre, &catalog, &solver.chosen);
            let chosen = solver.chosen.iter().map(|&i| catalog[i].clone()).collect();
            Ok(Recalibration::Reused(Adaptation {
                circuit,
                reference: pre.reference_circuit(),
                chosen,
                catalog_size: catalog.len(),
                solver,
            }))
        }
        crate::model::RecheckOutcome::Changed => {
            root.set_note("resolved");
            let mut warm_ctx = ctx.clone();
            warm_ctx.warm_hint = Some(prev.solver.chosen.clone());
            adapt(circuit, hw, &warm_ctx).map(Recalibration::Resolved)
        }
    }
}

/// Evaluates the full substitution catalog for one solve: the gate
/// substitution rules, then — when the context carries a coupling map —
/// the routing substitutions, appended with continuing dense ids so the
/// catalog is identical across [`adapt`] and [`recalibrate_adaptation`].
fn build_catalog(
    pre: &Preprocessed,
    hw: &HardwareModel,
    ctx: &AdaptContext,
) -> Result<Vec<Substitution>, AdaptError> {
    let mut catalog = evaluate_substitutions(pre, hw, &ctx.options.rules)?;
    if let Some(coupling) = &ctx.options.coupling {
        append_routing_substitutions(&mut catalog, pre, hw, coupling)?;
    }
    Ok(catalog)
}

/// Assembles the global adapted circuit from the chosen substitutions.
///
/// A chosen routing substitution wraps its block in a SWAP ladder: the
/// block's first operand walks the route's path to the qubit adjacent to
/// the second operand, the (substituted) block body executes there, and the
/// swaps walk back — net identity on every intermediate qubit.
pub fn extract_circuit(pre: &Preprocessed, catalog: &[Substitution], chosen: &[usize]) -> Circuit {
    let mut out = Circuit::new(pre.source.num_qubits());
    for id in pre.partition.topological_order() {
        let block = &pre.partition.blocks[id];
        let all: Vec<&Substitution> = chosen
            .iter()
            .map(|&i| &catalog[i])
            .filter(|s| s.block == id)
            .collect();
        let route = all.iter().find_map(|s| s.route.as_ref());
        let subs: Vec<&Substitution> = all.iter().filter(|s| s.route.is_none()).copied().collect();
        let local = apply_to_block(pre, id, &subs);
        match route {
            None => {
                for instr in local.iter() {
                    let mapped: Vec<usize> =
                        instr.qubits.iter().map(|&q| block.qubits[q]).collect();
                    out.push(instr.gate, &mapped);
                }
            }
            Some(route) => {
                // path[0] is block.qubits[0]; the body runs on the
                // penultimate path node (adjacent to block.qubits[1]).
                let path = &route.path;
                debug_assert_eq!(path[0], block.qubits[0]);
                debug_assert_eq!(*path.last().unwrap(), block.qubits[1]);
                let host = path[path.len() - 2];
                for w in path[..path.len() - 1].windows(2) {
                    out.push(route.gate, &[w[0], w[1]]);
                }
                for instr in local.iter() {
                    let mapped: Vec<usize> = instr
                        .qubits
                        .iter()
                        .map(|&q| if q == 0 { host } else { block.qubits[q] })
                        .collect();
                    out.push(instr.gate, &mapped);
                }
                for w in path[..path.len() - 1].windows(2).rev() {
                    out.push(route.gate, &[w[0], w[1]]);
                }
            }
        }
    }
    consolidate_1q(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptLimits, Objective};
    use qca_circuit::Gate;
    use qca_hw::{spin_qubit_model, CircuitSchedule, GateTimes};
    use qca_num::phase::approx_eq_up_to_phase;

    fn swap_chain() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::Rz(0.3), &[2]);
        c
    }

    #[test]
    fn recalibrate_reuses_on_unchanged_hardware() {
        let c = swap_chain();
        let hw = spin_qubit_model(GateTimes::D0);
        let ctx = AdaptContext::with_objective(Objective::Fidelity);
        let first = adapt(&c, &hw, &ctx).unwrap();
        let r = recalibrate_adaptation(&c, &hw, &first, &ctx).unwrap();
        assert!(r.reused(), "unchanged hardware must reuse the optimum");
        let again = r.into_adaptation();
        assert_eq!(again.solver.chosen, first.solver.chosen);
        assert_eq!(again.solver.objective_value, first.solver.objective_value);
        assert!(again.solver.optimal);
        assert!(again.solver.queries <= 2, "took {}", again.solver.queries);
        assert!(approx_eq_up_to_phase(
            &again.circuit.unitary(),
            &c.unitary(),
            1e-6
        ));
    }

    #[test]
    fn recalibrate_matches_fresh_solve_after_drift() {
        let c = swap_chain();
        let d0 = spin_qubit_model(GateTimes::D0);
        let ctx = AdaptContext {
            options: AdaptOptions {
                objective: Objective::Combined,
                exact: true,
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        };
        let first = adapt(&c, &d0, &ctx).unwrap();
        let drifted = d0.with_scaled_infidelity(4.0);
        let r = recalibrate_adaptation(&c, &drifted, &first, &ctx).unwrap();
        let recal = r.into_adaptation();
        let fresh = adapt(&c, &drifted, &ctx).unwrap();
        assert_eq!(recal.solver.objective_value, fresh.solver.objective_value);
        assert!(recal.solver.optimal);
        assert!(drifted.supports_circuit(&recal.circuit));
        assert!(approx_eq_up_to_phase(
            &recal.circuit.unitary(),
            &c.unitary(),
            1e-6
        ));
    }

    #[test]
    fn recalibrate_with_stale_ids_resolves() {
        let c = swap_chain();
        let hw = spin_qubit_model(GateTimes::D0);
        let ctx = AdaptContext::with_objective(Objective::Fidelity);
        let mut prev = adapt(&c, &hw, &ctx).unwrap();
        let expected = prev.solver.objective_value;
        prev.solver.chosen = vec![usize::MAX];
        let r = recalibrate_adaptation(&c, &hw, &prev, &ctx).unwrap();
        assert!(!r.reused(), "stale ids cannot be reused");
        let a = r.into_adaptation();
        assert_eq!(a.solver.objective_value, expected);
        assert!(a.solver.optimal);
    }

    #[test]
    fn adaptation_preserves_unitary_all_objectives() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        for obj in [
            Objective::Fidelity,
            Objective::IdleTime,
            Objective::Combined,
        ] {
            let r = adapt(&c, &hw, &AdaptContext::with_objective(obj)).unwrap();
            assert!(
                approx_eq_up_to_phase(&r.circuit.unitary(), &c.unitary(), 1e-6),
                "{obj} broke the unitary"
            );
            assert!(hw.supports_circuit(&r.circuit), "{obj} non-native output");
        }
    }

    #[test]
    fn fidelity_objective_beats_reference() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let f_adapted = hw.circuit_fidelity(&r.circuit).unwrap();
        let f_reference = hw.circuit_fidelity(&r.reference).unwrap();
        assert!(
            f_adapted >= f_reference - 1e-12,
            "adapted {f_adapted} < reference {f_reference}"
        );
    }

    #[test]
    fn idle_objective_not_worse_than_reference() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::IdleTime)).unwrap();
        let s_adapted = CircuitSchedule::asap(&r.circuit, &hw).unwrap();
        let s_reference = CircuitSchedule::asap(&r.reference, &hw).unwrap();
        assert!(
            s_adapted.total_idle_time() <= s_reference.total_idle_time() + 1.0,
            "idle {} vs reference {}",
            s_adapted.total_idle_time(),
            s_reference.total_idle_time()
        );
    }

    #[test]
    fn d1_times_change_choices_or_costs() {
        // With D1 timings, swap_c is only 13 ns; adaptation should exploit
        // fast realizations and beat the reference duration.
        let hw = spin_qubit_model(GateTimes::D1);
        let c = swap_chain();
        let r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::IdleTime)).unwrap();
        let s_adapted = CircuitSchedule::asap(&r.circuit, &hw).unwrap();
        let s_reference = CircuitSchedule::asap(&r.reference, &hw).unwrap();
        assert!(s_adapted.total_duration <= s_reference.total_duration);
    }

    #[test]
    fn chosen_substitutions_reported() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        assert!(r.catalog_size > 0);
        for s in &r.chosen {
            assert!(s.block < r.reference.len().max(100));
        }
    }

    #[test]
    fn pre_cancelled_adaptation_reports_cancelled() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let ctx = AdaptContext {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..AdaptContext::with_objective(Objective::Fidelity)
        };
        assert_eq!(adapt(&c, &hw, &ctx).unwrap_err(), AdaptError::Cancelled);
    }

    #[test]
    fn tiny_conflict_cap_degrades_not_crashes() {
        // A one-conflict lifetime cap either still finds the warm-start
        // incumbent (degraded, non-optimal result) or reports Cancelled —
        // never Infeasible, never a panic.
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let ctx = AdaptContext {
            limits: AdaptLimits {
                total_conflicts: Some(1),
            },
            ..AdaptContext::with_objective(Objective::Combined)
        };
        match adapt(&c, &hw, &ctx) {
            Ok(r) => {
                assert!(hw.supports_circuit(&r.circuit));
            }
            Err(e) => assert_eq!(e, AdaptError::Cancelled),
        }
    }

    #[test]
    fn generous_limits_change_nothing() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let plain = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let ctx = AdaptContext {
            limits: AdaptLimits {
                total_conflicts: Some(u64::MAX),
            },
            cancel: Some(Arc::new(AtomicBool::new(false))),
            ..AdaptContext::with_objective(Objective::Fidelity)
        };
        let limited = adapt(&c, &hw, &ctx).unwrap();
        assert_eq!(plain.solver.objective_value, limited.solver.objective_value);
        assert_eq!(plain.circuit.len(), limited.circuit.len());
        // Statistics are populated (the warm-start hint enters as
        // assumptions, so decisions can legitimately be zero; propagation
        // cannot be).
        assert!(limited.solver.solver_stats.propagations > 0);
    }

    #[test]
    fn single_qubit_only_circuit() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(1.0), &[1]);
        let r = adapt(&c, &hw, &AdaptContext::default()).unwrap();
        assert!(approx_eq_up_to_phase(
            &r.circuit.unitary(),
            &c.unitary(),
            1e-8
        ));
    }

    #[test]
    fn quantum_volume_style_block() {
        // A Haar-random two-qubit unitary block expressed via its KAK CX
        // circuit in the source basis.
        use qca_num::random::haar_unitary;
        use qca_synth::kak::kak_decompose;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let u = haar_unitary(&mut rng, 4);
        let src = kak_decompose(&u).to_circuit_cx();
        let hw = spin_qubit_model(GateTimes::D0);
        let r = adapt(
            &src,
            &hw,
            &AdaptContext::with_objective(Objective::Fidelity),
        )
        .unwrap();
        assert!(approx_eq_up_to_phase(
            &r.circuit.unitary(),
            &src.unitary(),
            1e-6
        ));
    }

    #[test]
    fn struct_literal_with_short_rule_window_is_rejected() {
        let ctx = AdaptContext {
            options: AdaptOptions {
                rules: RuleOptions {
                    max_match_len: 1,
                    ..RuleOptions::default()
                },
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        };
        assert!(matches!(
            adapt(&swap_chain(), &spin_qubit_model(GateTimes::D0), &ctx),
            Err(AdaptError::InvalidOptions(_))
        ));
    }

    #[test]
    fn struct_literal_with_zero_conflict_budget_is_rejected() {
        let ctx = AdaptContext {
            limits: AdaptLimits {
                total_conflicts: Some(0),
            },
            ..AdaptContext::default()
        };
        let c = swap_chain();
        let hw = spin_qubit_model(GateTimes::D0);
        assert!(matches!(
            adapt(&c, &hw, &ctx),
            Err(AdaptError::InvalidOptions(_))
        ));
        let prev = adapt(&c, &hw, &AdaptContext::default()).unwrap();
        assert!(matches!(
            recalibrate_adaptation(&c, &hw, &prev, &ctx),
            Err(AdaptError::InvalidOptions(_))
        ));
    }

    #[test]
    fn adapt_emits_phase_spans() {
        use qca_trace::{report, Tracer};
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let (tracer, sink) = Tracer::to_memory();
        let ctx = AdaptContext {
            tracer,
            ..AdaptContext::with_objective(Objective::Combined)
        };
        adapt(&c, &hw, &ctx).unwrap();
        let events = sink.take();
        report::validate_forest(&events).unwrap();
        let rpt = report::Report::from_events(&events);
        for phase in [
            "adapt",
            "preprocess",
            "rules",
            "smt.encode",
            "warm_start",
            "omt.search",
            "extract",
        ] {
            assert!(
                rpt.phase_total_ns(phase).is_some(),
                "missing phase span {phase:?}"
            );
        }
        // The root span carries the outcome note.
        assert_eq!(rpt.roots.len(), 1);
        assert_eq!(rpt.roots[0].name, "adapt");
        assert_eq!(rpt.roots[0].note.as_deref(), Some("ok"));
    }

    fn routed(objective: Objective, coupling: CouplingMap) -> AdaptContext {
        AdaptContext {
            options: AdaptOptions {
                objective,
                coupling: Some(coupling),
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        }
    }

    fn coupled_2q_gates_ok(c: &Circuit, cm: &CouplingMap) -> bool {
        c.iter()
            .filter(|i| i.qubits.len() == 2)
            .all(|i| cm.is_coupled(i.qubits[0], i.qubits[1]))
    }

    #[test]
    fn star_coupling_forces_swap_insertion() {
        // Star centered on qubit 0: the (1,2) block of swap_chain sits on an
        // uncoupled pair and must be routed through the hub.
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let star = CouplingMap::star(3);
        let ctx = routed(Objective::Fidelity, star.clone());
        let r = adapt(&c, &hw, &ctx).unwrap();
        assert!(
            r.chosen.iter().any(|s| s.route.is_some()),
            "uncoupled block must select a routing substitution"
        );
        assert!(
            coupled_2q_gates_ok(&r.circuit, &star),
            "adapted circuit has a 2q gate on an uncoupled pair"
        );
        assert!(hw.supports_circuit(&r.circuit));
        assert!(
            approx_eq_up_to_phase(&r.circuit.unitary(), &c.unitary(), 1e-6),
            "routing broke circuit equivalence"
        );
    }

    #[test]
    fn all_to_all_coupling_bit_identical_to_none() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        for obj in [
            Objective::Fidelity,
            Objective::IdleTime,
            Objective::Combined,
        ] {
            let plain = adapt(&c, &hw, &AdaptContext::with_objective(obj)).unwrap();
            let ctx = routed(obj, CouplingMap::all_to_all(3));
            let full = adapt(&c, &hw, &ctx).unwrap();
            assert_eq!(plain.solver.chosen, full.solver.chosen, "{obj}");
            assert_eq!(
                plain.solver.objective_value, full.solver.objective_value,
                "{obj}"
            );
            assert_eq!(plain.solver.sat_vars, full.solver.sat_vars, "{obj}");
            assert_eq!(plain.catalog_size, full.catalog_size, "{obj}");
            assert_eq!(plain.circuit, full.circuit, "{obj}");
        }
    }

    #[test]
    fn line_coupling_routes_and_preserves_unitary() {
        // On a line 0-1-2 the (1,2) block is native but a circuit touching
        // (0,2) must route. Build one explicitly.
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::Rz(0.7), &[2]);
        let line = CouplingMap::line(3);
        let ctx = routed(Objective::Combined, line.clone());
        let r = adapt(&c, &hw, &ctx).unwrap();
        assert!(r.chosen.iter().any(|s| s.route.is_some()));
        assert!(coupled_2q_gates_ok(&r.circuit, &line));
        assert!(approx_eq_up_to_phase(
            &r.circuit.unitary(),
            &c.unitary(),
            1e-6
        ));
    }

    #[test]
    fn coupling_smaller_than_circuit_rejected() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain(); // 3 qubits
        let ctx = routed(Objective::Fidelity, CouplingMap::line(2));
        assert!(matches!(
            adapt(&c, &hw, &ctx),
            Err(AdaptError::InvalidOptions(_))
        ));
    }

    #[test]
    fn disconnected_coupling_rejected_when_block_needs_path() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain(); // has a block on (1, 2)
        let cm = CouplingMap::new(3, [(0, 1)]).unwrap(); // qubit 2 isolated
        let ctx = routed(Objective::Fidelity, cm);
        match adapt(&c, &hw, &ctx) {
            Err(AdaptError::InvalidOptions(msg)) => {
                assert!(msg.contains("no path"), "{msg}");
            }
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }

    #[test]
    fn recalibrate_with_coupling_survives_drift() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let star = CouplingMap::star(3);
        let ctx = routed(Objective::Fidelity, star.clone());
        let first = adapt(&c, &hw, &ctx).unwrap();
        // Unchanged hardware: reuse.
        let r = recalibrate_adaptation(&c, &hw, &first, &ctx).unwrap();
        assert!(r.reused());
        // Drifted hardware: warm re-solve stays routed and equivalent.
        let drifted = hw.with_scaled_infidelity(3.0);
        let r = recalibrate_adaptation(&c, &drifted, &first, &ctx).unwrap();
        let a = r.into_adaptation();
        assert!(a.chosen.iter().any(|s| s.route.is_some()));
        assert!(coupled_2q_gates_ok(&a.circuit, &star));
        assert!(approx_eq_up_to_phase(
            &a.circuit.unitary(),
            &c.unitary(),
            1e-6
        ));
    }

    #[test]
    fn stale_uncoupled_hint_falls_back_to_fresh_solve() {
        // A cached selection computed without a coupling map (no routing
        // subs) must not be "reused" once a map is in force: the re-check
        // sees an incomplete routed selection and re-solves.
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let flat = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let star = CouplingMap::star(3);
        let ctx = routed(Objective::Fidelity, star.clone());
        let r = recalibrate_adaptation(&c, &hw, &flat, &ctx).unwrap();
        assert!(!r.reused(), "route-incomplete selection must not be reused");
        let a = r.into_adaptation();
        assert!(a.chosen.iter().any(|s| s.route.is_some()));
        assert!(coupled_2q_gates_ok(&a.circuit, &star));
    }
}
