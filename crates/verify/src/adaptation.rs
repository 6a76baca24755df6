//! End-to-end adaptation auditing.
//!
//! [`audit_adaptation`] re-derives everything an [`Adaptation`] claims from
//! primary sources — the source circuit, the hardware gate tables, and the
//! chosen substitutions — without trusting the solver stack:
//!
//! * the adapted circuit implements the *same unitary* as the source (up to
//!   global phase), checked by dense simulation for small circuits;
//! * the adapted and reference circuits use only hardware-native gates and
//!   admit an ASAP schedule under the gate tables;
//! * no two chosen substitutions conflict;
//! * for the fidelity objective, the reported fixed-point objective value
//!   matches `log(reference fidelity) + Σ Δlog-fidelity` recomputed from the
//!   gate tables and the chosen substitutions;
//! * any attached [`VerificationData`] passes the semantic model audit, and
//!   proven-optimal results carry a checker-accepted DRAT certificate that
//!   refutes the reported value plus one over the audited formula itself.

use qca_adapt::{Adaptation, Objective, VerificationData, LOG_SCALE};
use qca_circuit::Circuit;
use qca_hw::{CircuitSchedule, CouplingMap, HardwareModel};
use qca_num::phase::approx_eq_up_to_phase;
use qca_smt::omt::OptimalityCertificate;
use qca_smt::{AuditBundle, RecordedConstraint};
use std::sync::Arc;

use crate::drat::DratError;
use crate::model::{audit_model, check_certificate, ModelAuditError};

/// Dense unitary comparison is skipped above this qubit count (the matrices
/// grow as `4^n`).
pub const UNITARY_AUDIT_MAX_QUBITS: usize = 10;

/// A failed adaptation audit.
#[derive(Debug)]
pub enum AdaptationAuditError {
    /// A circuit contains gates outside the hardware's native set.
    NonNative {
        /// Which circuit: `"adapted"` or `"reference"`.
        which: &'static str,
    },
    /// A circuit admits no ASAP schedule under the hardware gate tables.
    Unschedulable {
        /// Which circuit: `"adapted"` or `"reference"`.
        which: &'static str,
        /// The offending instruction, from
        /// [`ScheduleError`](qca_hw::ScheduleError).
        detail: String,
    },
    /// A two-qubit gate in the adapted circuit acts on a pair the coupling
    /// map does not connect.
    UncoupledGate {
        /// Which circuit: `"adapted"` or `"reference"`.
        which: &'static str,
        /// The offending instruction, rendered.
        instr: String,
        /// The uncoupled operand pair.
        qubits: (usize, usize),
    },
    /// The adapted or reference circuit does not implement the source
    /// unitary (up to global phase).
    UnitaryMismatch {
        /// Which circuit: `"adapted"` or `"reference"`.
        which: &'static str,
    },
    /// Two chosen substitutions conflict with each other.
    ConflictingChoices {
        /// Catalog ids of the conflicting pair.
        ids: (usize, usize),
    },
    /// The reported objective value disagrees with the value recomputed
    /// from the hardware gate tables.
    ObjectiveMismatch {
        /// Fixed-point value the solver reported.
        reported: i64,
        /// Fixed-point value recomputed from the gate tables.
        recomputed: f64,
        /// Tolerance that was allowed (fixed-point units).
        tolerance: f64,
    },
    /// The attached audit bundle failed the semantic model audit.
    Model(ModelAuditError),
    /// The recorded encoding is structurally corrupt: the shadow CNF/PB
    /// bundle has an error-severity lint finding (out-of-range literal,
    /// empty clause).
    DegenerateEncoding {
        /// The first error-severity finding, rendered.
        finding: String,
    },
    /// The attached optimality certificate was rejected by the DRAT checker.
    Certificate(DratError),
    /// The attached optimality certificate refutes something other than
    /// the reported value plus one over the audited formula.
    UnboundCertificate {
        /// Which part of the binding failed.
        detail: &'static str,
    },
    /// The solve claims proven optimality with verification data attached,
    /// but carries no certificate to back the claim.
    MissingCertificate,
}

impl std::fmt::Display for AdaptationAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptationAuditError::NonNative { which } => {
                write!(f, "{which} circuit uses non-native gates")
            }
            AdaptationAuditError::Unschedulable { which, detail } => {
                write!(
                    f,
                    "{which} circuit is unschedulable under the gate tables: {detail}"
                )
            }
            AdaptationAuditError::UncoupledGate {
                which,
                instr,
                qubits,
            } => write!(
                f,
                "{which} circuit places {instr} on uncoupled qubits {} and {}",
                qubits.0, qubits.1
            ),
            AdaptationAuditError::UnitaryMismatch { which } => {
                write!(f, "{which} circuit does not implement the source unitary")
            }
            AdaptationAuditError::ConflictingChoices { ids } => {
                write!(f, "chosen substitutions {} and {} conflict", ids.0, ids.1)
            }
            AdaptationAuditError::ObjectiveMismatch {
                reported,
                recomputed,
                tolerance,
            } => write!(
                f,
                "objective value {reported} differs from recomputed {recomputed:.1} \
                 by more than {tolerance:.1}"
            ),
            AdaptationAuditError::Model(e) => write!(f, "model audit failed: {e}"),
            AdaptationAuditError::DegenerateEncoding { finding } => {
                write!(f, "recorded encoding is degenerate: {finding}")
            }
            AdaptationAuditError::Certificate(e) => {
                write!(f, "optimality certificate rejected: {e}")
            }
            AdaptationAuditError::UnboundCertificate { detail } => {
                write!(
                    f,
                    "optimality certificate is not about this answer: {detail}"
                )
            }
            AdaptationAuditError::MissingCertificate => {
                write!(f, "proven-optimal result carries no certificate")
            }
        }
    }
}

impl std::error::Error for AdaptationAuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdaptationAuditError::Model(e) => Some(e),
            AdaptationAuditError::Certificate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelAuditError> for AdaptationAuditError {
    fn from(e: ModelAuditError) -> Self {
        AdaptationAuditError::Model(e)
    }
}

impl From<DratError> for AdaptationAuditError {
    fn from(e: DratError) -> Self {
        AdaptationAuditError::Certificate(e)
    }
}

/// What a successful [`audit_adaptation`] actually established.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptationAuditStats {
    /// Dense unitary equivalence was checked (skipped above
    /// [`UNITARY_AUDIT_MAX_QUBITS`]).
    pub unitary_checked: bool,
    /// The fixed-point objective value was cross-checked against the gate
    /// tables (fidelity objective only).
    pub objective_cross_checked: bool,
    /// Gate-table fidelity of the adapted circuit.
    pub adapted_fidelity: f64,
    /// Gate-table fidelity of the reference circuit.
    pub reference_fidelity: f64,
    /// ASAP duration of the adapted circuit (ns).
    pub adapted_duration: f64,
    /// Semantic constraints replayed against the model (when verification
    /// data was attached).
    pub model_constraints_checked: u64,
    /// DRAT proof additions validated (when a certificate was attached).
    pub certificate_steps_checked: u64,
    /// Warning-severity encoding-lint findings on the audit bundle
    /// (error-severity findings fail the audit outright).
    pub encoding_warnings: u64,
}

/// Audits a baseline (fallback) circuit that carries no solver-level
/// [`Adaptation`] record: the circuit must be hardware-native, admit an ASAP
/// schedule, and — for small circuits — implement the source unitary.
///
/// The batch engine uses this for reports that degraded past the solver
/// (template optimization, direct translation, worker failure), so that
/// *every* report in a verified batch is audited, not just solved ones.
pub fn audit_baseline(
    source: &Circuit,
    adapted: &Circuit,
    hw: &HardwareModel,
) -> Result<AdaptationAuditStats, AdaptationAuditError> {
    audit_baseline_with_coupling(source, adapted, hw, None)
}

/// [`audit_baseline`] for a topology-constrained adaptation: additionally
/// checks every two-qubit gate of the adapted circuit lands on a coupled
/// pair.
pub fn audit_baseline_with_coupling(
    source: &Circuit,
    adapted: &Circuit,
    hw: &HardwareModel,
    coupling: Option<&CouplingMap>,
) -> Result<AdaptationAuditStats, AdaptationAuditError> {
    let mut stats = AdaptationAuditStats::default();
    if !hw.supports_circuit(adapted) {
        return Err(AdaptationAuditError::NonNative { which: "adapted" });
    }
    let schedule = match CircuitSchedule::asap_checked(adapted, hw) {
        Ok(s) => s,
        Err(e) => {
            return Err(AdaptationAuditError::Unschedulable {
                which: "adapted",
                detail: e.to_string(),
            })
        }
    };
    if let Some(cm) = coupling {
        check_coupling("adapted", adapted, cm)?;
    }
    stats.adapted_duration = schedule.total_duration;
    stats.adapted_fidelity = hw
        .circuit_fidelity(adapted)
        .expect("native circuit has table fidelity");
    if source.num_qubits() <= UNITARY_AUDIT_MAX_QUBITS {
        if !approx_eq_up_to_phase(&adapted.unitary(), &source.unitary(), 1e-6) {
            return Err(AdaptationAuditError::UnitaryMismatch { which: "adapted" });
        }
        stats.unitary_checked = true;
    }
    Ok(stats)
}

/// Audits `result` — produced by adapting `source` for `hw` under
/// `objective` — against primary sources. Returns what was established, or
/// the first discrepancy found.
pub fn audit_adaptation(
    source: &Circuit,
    result: &Adaptation,
    hw: &HardwareModel,
    objective: Objective,
) -> Result<AdaptationAuditStats, AdaptationAuditError> {
    audit_adaptation_with_coupling(source, result, hw, objective, None)
}

/// [`audit_adaptation`] for a topology-constrained adaptation: additionally
/// checks every two-qubit gate of the *adapted* circuit lands on a coupled
/// pair of the given map. The reference circuit is exempt — it is the
/// paper's all-to-all basis translation, kept for fidelity comparison, not
/// an executable artifact for the constrained device.
pub fn audit_adaptation_with_coupling(
    source: &Circuit,
    result: &Adaptation,
    hw: &HardwareModel,
    objective: Objective,
    coupling: Option<&CouplingMap>,
) -> Result<AdaptationAuditStats, AdaptationAuditError> {
    let mut stats = AdaptationAuditStats::default();

    // Native gate sets and schedulability, from the gate tables alone.
    for (which, circuit) in [
        ("adapted", &result.circuit),
        ("reference", &result.reference),
    ] {
        if !hw.supports_circuit(circuit) {
            return Err(AdaptationAuditError::NonNative { which });
        }
        if let Err(e) = CircuitSchedule::asap_checked(circuit, hw) {
            return Err(AdaptationAuditError::Unschedulable {
                which,
                detail: e.to_string(),
            });
        }
    }
    if let Some(cm) = coupling {
        check_coupling("adapted", &result.circuit, cm)?;
    }
    stats.adapted_fidelity = hw
        .circuit_fidelity(&result.circuit)
        .expect("native circuit has table fidelity");
    stats.reference_fidelity = hw
        .circuit_fidelity(&result.reference)
        .expect("native circuit has table fidelity");
    stats.adapted_duration = CircuitSchedule::asap(&result.circuit, hw)
        .expect("checked above")
        .total_duration;

    // Unitary equivalence by dense simulation, independent of every
    // substitution-rule correctness argument.
    if source.num_qubits() <= UNITARY_AUDIT_MAX_QUBITS {
        let u_src = source.unitary();
        if !approx_eq_up_to_phase(&result.circuit.unitary(), &u_src, 1e-6) {
            return Err(AdaptationAuditError::UnitaryMismatch { which: "adapted" });
        }
        if !approx_eq_up_to_phase(&result.reference.unitary(), &u_src, 1e-6) {
            return Err(AdaptationAuditError::UnitaryMismatch { which: "reference" });
        }
        stats.unitary_checked = true;
    }

    // The chosen set must be conflict-free (Eq. 1 at the result level).
    for (i, a) in result.chosen.iter().enumerate() {
        for b in &result.chosen[i + 1..] {
            if a.conflicts_with(b) {
                return Err(AdaptationAuditError::ConflictingChoices { ids: (a.id, b.id) });
            }
        }
    }

    // Fidelity objective: the reported fixed-point value must equal
    // log(reference fidelity) + Σ Δlog-fidelity of the chosen
    // substitutions, recomputed here from the gate tables. Each fixed-point
    // term rounds independently, so the tolerance grows with the term count.
    if objective == Objective::Fidelity {
        let recomputed = (stats.reference_fidelity.ln()
            + result
                .chosen
                .iter()
                .map(|s| s.delta_log_fidelity)
                .sum::<f64>())
            * LOG_SCALE;
        let tolerance = 2.0 + result.chosen.len() as f64;
        let reported = result.solver.objective_value;
        if (reported as f64 - recomputed).abs() > tolerance {
            return Err(AdaptationAuditError::ObjectiveMismatch {
                reported,
                recomputed,
                tolerance,
            });
        }
        stats.objective_cross_checked = true;
    }

    // Solver-level verification data, when attached: semantic model audit
    // plus certificate checking for proven-optimal claims.
    if let Some(VerificationData {
        bundle,
        certificate,
    }) = &result.solver.verification
    {
        let model_stats = audit_model(bundle)?;
        stats.model_constraints_checked = model_stats.constraints_checked;
        // Structural encoding lints over the same bundle: error-severity
        // findings mean the shadow formula itself is corrupt (the semantic
        // replay above cannot see clause-level damage).
        let encoding_diags = qca_lint::lint_encoding(bundle);
        if let Some(err) = encoding_diags
            .iter()
            .find(|d| d.severity == qca_lint::Severity::Error)
        {
            return Err(AdaptationAuditError::DegenerateEncoding {
                finding: err.to_string(),
            });
        }
        stats.encoding_warnings = encoding_diags
            .iter()
            .filter(|d| d.severity == qca_lint::Severity::Warn)
            .count() as u64;
        match certificate {
            Some(cert) => {
                check_binding(bundle, cert, result.solver.objective_value)
                    .map_err(|detail| AdaptationAuditError::UnboundCertificate { detail })?;
                let drat_stats = check_certificate(cert)?;
                stats.certificate_steps_checked = drat_stats.additions_checked as u64;
            }
            None if result.solver.optimal => {
                return Err(AdaptationAuditError::MissingCertificate);
            }
            None => {}
        }
    }

    Ok(stats)
}

/// Checks that `cert` states the refutation of `objective_value + 1` over
/// the bundle's own formula (the same `Arc`, or failing that an equal one),
/// and that the bundle records its unit literal as `lit ⇔ a >= b`, with `a`
/// at the reported value and `b` at the refuted bound under the bundle's
/// model. Without this, any refutable CNF with a valid proof would pass.
fn check_binding(
    bundle: &AuditBundle,
    cert: &OptimalityCertificate,
    objective_value: i64,
) -> Result<(), &'static str> {
    if objective_value.checked_add(1) != Some(cert.refuted_bound) {
        return Err("the refuted bound is not the reported value plus one");
    }
    if !Arc::ptr_eq(&bundle.cnf, &cert.cnf) && bundle.cnf != cert.cnf {
        return Err("the formula is not the audited one");
    }
    let model = &bundle.model;
    let bound = bundle.constraints.iter().any(|c| {
        matches!(c, RecordedConstraint::GeReified { lit, a, b }
            if *lit == cert.refuted
                && model.int_value_checked(a) == Some(objective_value)
                && model.int_value_checked(b) == Some(cert.refuted_bound))
    });
    if !bound {
        return Err("the unit clause is not a recorded `objective >= value + 1` comparator");
    }
    Ok(())
}

/// Every two-qubit gate of `circuit` must land on a coupled pair.
fn check_coupling(
    which: &'static str,
    circuit: &Circuit,
    coupling: &CouplingMap,
) -> Result<(), AdaptationAuditError> {
    for instr in circuit.iter().filter(|i| i.qubits.len() == 2) {
        let (a, b) = (instr.qubits[0], instr.qubits[1]);
        if a >= coupling.num_qubits() || b >= coupling.num_qubits() || !coupling.is_coupled(a, b) {
            return Err(AdaptationAuditError::UncoupledGate {
                which,
                instr: instr.to_string(),
                qubits: (a.min(b), a.max(b)),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_adapt::{adapt, AdaptContext, AdaptOptions};
    use qca_circuit::Gate;
    use qca_hw::{spin_qubit_model, GateTimes};

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
    fn audits_all_objectives_without_certification() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        for obj in [
            Objective::Fidelity,
            Objective::IdleTime,
            Objective::Combined,
        ] {
            let r = adapt(&c, &hw, &AdaptContext::with_objective(obj)).unwrap();
            let stats = audit_adaptation(&c, &r, &hw, obj).unwrap();
            assert!(stats.unitary_checked);
            assert!(stats.adapted_fidelity > 0.0);
        }
    }

    /// An exact, certified adaptation of `swap_chain` under `objective`.
    fn certified_adaptation(objective: Objective) -> Adaptation {
        let hw = spin_qubit_model(GateTimes::D0);
        let ctx = AdaptContext {
            options: AdaptOptions {
                objective,
                exact: true,
                certify: true,
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        };
        adapt(&swap_chain(), &hw, &ctx).unwrap()
    }

    /// Adapts `swap_chain` with an exact, certified search under
    /// `objective` and audits the result, certificate included.
    fn certified_swap_chain(objective: Objective) -> AdaptationAuditStats {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let r = certified_adaptation(objective);
        assert!(r.solver.verification.is_some(), "certify attaches data");
        assert!(r.solver.optimal, "exact search proves optimality");
        let stats = audit_adaptation(&c, &r, &hw, objective).unwrap();
        assert!(stats.model_constraints_checked > 0);
        assert!(
            stats.certificate_steps_checked > 0,
            "optimal result was certificate-checked"
        );
        stats
    }

    #[test]
    fn audits_certified_adaptation_end_to_end() {
        let stats = certified_swap_chain(Objective::Fidelity);
        assert!(stats.objective_cross_checked);
    }

    #[test]
    fn audits_certified_idle_adaptation_end_to_end() {
        // The idle model is all schedule arithmetic: durations, the
        // start/end max chains, the makespan and the slack product.
        certified_swap_chain(Objective::IdleTime);
    }

    #[test]
    fn audits_certified_combined_adaptation_end_to_end() {
        certified_swap_chain(Objective::Combined);
    }

    #[test]
    fn rejects_certificates_not_bound_to_the_answer() {
        use qca_sat::dimacs::Cnf;
        use qca_sat::{ProofStep, Var};
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let r = certified_adaptation(Objective::Fidelity);
        let audit = |tamper: &dyn Fn(&mut OptimalityCertificate)| {
            let mut r = r.clone();
            let cert = r
                .solver
                .verification
                .as_mut()
                .and_then(|v| v.certificate.as_mut())
                .expect("certified");
            tamper(cert);
            audit_adaptation(&c, &r, &hw, Objective::Fidelity)
        };
        audit(&|_| {}).expect("the untouched certificate passes");

        // An equal formula that is not the shared one passes too.
        audit(&|cert| cert.cnf = Arc::new(Cnf::clone(&cert.cnf)))
            .expect("an equal copy of the formula passes");

        // A trivially UNSAT formula with a valid proof of its own.
        let x = Var::from_index(0);
        let trivial = OptimalityCertificate {
            cnf: Arc::new(Cnf {
                num_vars: 1,
                clauses: vec![vec![x.negative()]],
            }),
            refuted: x.positive(),
            steps: vec![ProofStep::Add(Vec::new())],
            refuted_bound: r.solver.objective_value + 1,
        };
        check_certificate(&trivial).expect("the swapped-in proof is valid");
        let swap = |cert: &mut OptimalityCertificate| *cert = trivial.clone();
        let off_by_one = |cert: &mut OptimalityCertificate| cert.refuted_bound += 1;
        let negated_unit = |cert: &mut OptimalityCertificate| cert.refuted = !cert.refuted;
        // The first choice literal: a variable of the model, no comparator.
        let other_unit = |cert: &mut OptimalityCertificate| cert.refuted = x.positive();
        for tamper in [
            &swap as &dyn Fn(&mut OptimalityCertificate),
            &off_by_one,
            &negated_unit,
            &other_unit,
        ] {
            let err = audit(tamper).expect_err("an unbound certificate must fail");
            assert!(
                matches!(err, AdaptationAuditError::UnboundCertificate { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn detects_tampered_objective_value() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let mut r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        r.solver.objective_value += 10_000;
        let err = audit_adaptation(&c, &r, &hw, Objective::Fidelity).unwrap_err();
        assert!(matches!(
            err,
            AdaptationAuditError::ObjectiveMismatch { .. }
        ));
    }

    #[test]
    fn swap_realizations_share_the_swap_unitary() {
        // Routing correctness leans on SwapDiabatic and SwapComposite
        // implementing exactly the SWAP unitary; the dense-simulation audit
        // would silently weaken if that ever changed.
        let swap = Gate::Swap.matrix();
        for g in [Gate::SwapDiabatic, Gate::SwapComposite] {
            assert!(
                approx_eq_up_to_phase(&g.matrix(), &swap, 1e-12),
                "{g:?} is not a SWAP"
            );
        }
    }

    #[test]
    fn audits_star_routed_adaptation_end_to_end() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let star = CouplingMap::star(3);
        let ctx = AdaptContext {
            options: AdaptOptions {
                coupling: Some(star.clone()),
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        };
        let r = adapt(&c, &hw, &ctx).unwrap();
        assert!(
            r.chosen.iter().any(|s| s.route.is_some()),
            "star topology must force routing"
        );
        let stats =
            audit_adaptation_with_coupling(&c, &r, &hw, Objective::Fidelity, Some(&star)).unwrap();
        assert!(stats.unitary_checked);
        assert!(stats.objective_cross_checked);
    }

    #[test]
    fn detects_uncoupled_gate_in_adapted_circuit() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        // Adapt without a map, then audit against a star: the flat result
        // keeps the (1,2) gate, which the star does not couple.
        let r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        let star = CouplingMap::star(3);
        let err = audit_adaptation_with_coupling(&c, &r, &hw, Objective::Fidelity, Some(&star))
            .unwrap_err();
        assert!(matches!(
            err,
            AdaptationAuditError::UncoupledGate {
                which: "adapted",
                qubits: (1, 2),
                ..
            }
        ));
    }

    #[test]
    fn unschedulable_audit_names_the_gate() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut bad = Circuit::new(2);
        bad.push(Gate::Cx, &[0, 1]); // unpriced on spins
        let err = audit_baseline(&bad, &bad, &hw).unwrap_err();
        // Cx is not even in the native set, so NonNative fires first; an
        // unschedulable-but-native case needs a model that supports a gate
        // it cannot price, which the audit reports with the instruction.
        assert!(matches!(err, AdaptationAuditError::NonNative { .. }));
    }

    #[test]
    fn detects_tampered_circuit() {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = swap_chain();
        let mut r = adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).unwrap();
        // Append a native gate that changes the unitary.
        r.circuit.push(Gate::X, &[0]);
        let err = audit_adaptation(&c, &r, &hw, Objective::Fidelity).unwrap_err();
        assert!(matches!(
            err,
            AdaptationAuditError::UnitaryMismatch { which: "adapted" }
                | AdaptationAuditError::NonNative { which: "adapted" }
                | AdaptationAuditError::ObjectiveMismatch { .. }
        ));
    }
}
