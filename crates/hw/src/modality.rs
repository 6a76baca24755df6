//! Hardware modality models: gate sets, fidelities, durations, coherence.
//!
//! The central data is Table I of the paper — measured fidelities and
//! durations for the gate realizations of the semiconducting spin-qubit
//! platform of Petit et al. (2022), in two variants: `D0` (as measured) and
//! `D1` (projected scaled-up device timings).

use qca_circuit::Gate;
use std::collections::BTreeMap;
use std::fmt;

/// Cost of executing one gate: fidelity and duration in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateCost {
    /// Average gate fidelity in `(0, 1]`.
    pub fidelity: f64,
    /// Gate duration in nanoseconds.
    pub duration: f64,
}

impl GateCost {
    /// Creates a cost entry.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fidelity <= 1` and `duration >= 0`.
    pub fn new(fidelity: f64, duration: f64) -> Self {
        assert!(
            fidelity > 0.0 && fidelity <= 1.0,
            "fidelity must be in (0, 1]"
        );
        assert!(duration >= 0.0, "duration must be non-negative");
        GateCost { fidelity, duration }
    }

    /// Creates a cost entry, returning a description of the violation
    /// instead of panicking when the values are out of range. Useful when
    /// tables come from external calibration data rather than literals.
    pub fn try_new(fidelity: f64, duration: f64) -> Result<Self, String> {
        if !(fidelity > 0.0 && fidelity <= 1.0) {
            return Err(format!("fidelity {fidelity} must be in (0, 1]"));
        }
        if duration < 0.0 || duration.is_nan() {
            return Err(format!("duration {duration} must be non-negative"));
        }
        Ok(GateCost { fidelity, duration })
    }

    /// Natural log of the fidelity (negative or zero).
    pub fn log_fidelity(&self) -> f64 {
        self.fidelity.ln()
    }
}

/// Cost classes a hardware model prices individually.
///
/// Parameterized single-qubit gates all fall into [`CostClass::OneQubit`]
/// (the spin platform drives arbitrary SU(2) rotations at one cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostClass {
    /// Any single-qubit gate.
    OneQubit,
    /// Controlled-NOT.
    Cx,
    /// Adiabatic controlled-Z.
    Cz,
    /// Diabatic controlled-Z.
    CzDiabatic,
    /// Controlled phase (arbitrary angle).
    CPhase,
    /// Conditional rotation (CROT).
    CRot,
    /// Abstract swap.
    Swap,
    /// Diabatic swap realization.
    SwapDiabatic,
    /// Composite-pulse swap realization.
    SwapComposite,
    /// iSWAP.
    ISwap,
}

impl CostClass {
    /// The cost class of a gate.
    pub fn of(gate: &Gate) -> CostClass {
        if gate.num_qubits() == 1 {
            return CostClass::OneQubit;
        }
        match gate {
            Gate::Cx => CostClass::Cx,
            Gate::Cz => CostClass::Cz,
            Gate::CzDiabatic => CostClass::CzDiabatic,
            Gate::CPhase(_) => CostClass::CPhase,
            Gate::CRot(_) => CostClass::CRot,
            Gate::Swap => CostClass::Swap,
            Gate::SwapDiabatic => CostClass::SwapDiabatic,
            Gate::SwapComposite => CostClass::SwapComposite,
            Gate::ISwap | Gate::ISwapDg => CostClass::ISwap,
            _ => unreachable!("all two-qubit gates are classified"),
        }
    }
}

/// Which of the two gate-time columns of Table I to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateTimes {
    /// As-measured device timings (column `D0`).
    #[default]
    D0,
    /// Projected scaled-up timings (column `D1`).
    D1,
}

impl fmt::Display for GateTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateTimes::D0 => write!(f, "D0"),
            GateTimes::D1 => write!(f, "D1"),
        }
    }
}

/// Parses a column name: `d0`/`D0` or `d1`/`D1`.
impl std::str::FromStr for GateTimes {
    type Err = String;

    fn from_str(s: &str) -> Result<GateTimes, String> {
        match s {
            "d0" | "D0" => Ok(GateTimes::D0),
            "d1" | "D1" => Ok(GateTimes::D1),
            other => Err(format!("unknown times column {other:?}")),
        }
    }
}

/// A hardware modality: its priced gate classes and coherence times.
#[derive(Debug, Clone)]
pub struct HardwareModel {
    name: String,
    table: BTreeMap<CostClass, GateCost>,
    t1: f64,
    t2: f64,
}

impl HardwareModel {
    /// Creates a model from a cost table and coherence times (ns).
    ///
    /// # Panics
    ///
    /// Panics if a coherence time is non-positive.
    pub fn new(
        name: impl Into<String>,
        table: BTreeMap<CostClass, GateCost>,
        t1: f64,
        t2: f64,
    ) -> Self {
        assert!(t1 > 0.0 && t2 > 0.0, "coherence times must be positive");
        HardwareModel {
            name: name.into(),
            table,
            t1,
            t2,
        }
    }

    /// Creates a model, returning a description of the first violation —
    /// non-positive coherence times or an out-of-range table entry —
    /// instead of panicking. The non-panicking counterpart of
    /// [`HardwareModel::new`] for externally sourced tables.
    pub fn try_new(
        name: impl Into<String>,
        table: BTreeMap<CostClass, GateCost>,
        t1: f64,
        t2: f64,
    ) -> Result<Self, String> {
        if t1 <= 0.0 || t2 <= 0.0 || t1.is_nan() || t2.is_nan() {
            return Err(format!("coherence times T1={t1}, T2={t2} must be positive"));
        }
        for (class, cost) in &table {
            GateCost::try_new(cost.fidelity, cost.duration)
                .map_err(|e| format!("{class:?}: {e}"))?;
        }
        Ok(HardwareModel {
            name: name.into(),
            table,
            t1,
            t2,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relaxation time T1 in nanoseconds.
    pub fn t1(&self) -> f64 {
        self.t1
    }

    /// Dephasing time T2 in nanoseconds.
    pub fn t2(&self) -> f64 {
        self.t2
    }

    /// Cost of a gate, or `None` when the modality does not implement it.
    pub fn cost(&self, gate: &Gate) -> Option<GateCost> {
        self.table.get(&CostClass::of(gate)).copied()
    }

    /// `true` when the modality implements the gate natively.
    pub fn supports(&self, gate: &Gate) -> bool {
        self.cost(gate).is_some()
    }

    /// `true` when every gate of `circuit` is native.
    pub fn supports_circuit(&self, circuit: &qca_circuit::Circuit) -> bool {
        circuit.iter().all(|i| self.supports(&i.gate))
    }

    /// Product of gate fidelities over a circuit.
    ///
    /// Returns `None` if the circuit contains unsupported gates.
    pub fn circuit_fidelity(&self, circuit: &qca_circuit::Circuit) -> Option<f64> {
        let mut f = 1.0;
        for i in circuit.iter() {
            f *= self.cost(&i.gate)?.fidelity;
        }
        Some(f)
    }

    /// The priced cost classes.
    pub fn cost_classes(&self) -> impl Iterator<Item = (&CostClass, &GateCost)> {
        self.table.iter()
    }

    /// A copy of this model with every gate infidelity scaled by `factor`
    /// (`f ← 1 − factor·(1 − f)`, clamped into `(0, 1]`); durations and
    /// coherence times are unchanged. This simulates a drifted calibration
    /// snapshot: `factor > 1` degrades every gate, `factor < 1` improves
    /// them, and `factor == 1` is an exact copy (same
    /// [`fingerprint`](Self::fingerprint)). Recalibration smoke tests use
    /// it to perturb a fidelity table without hand-editing cost entries.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is negative, NaN, or infinite.
    pub fn with_scaled_infidelity(&self, factor: f64) -> HardwareModel {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "infidelity scale factor must be finite and non-negative"
        );
        let table = self
            .table
            .iter()
            .map(|(class, cost)| {
                let fid = (1.0 - factor * (1.0 - cost.fidelity)).clamp(f64::MIN_POSITIVE, 1.0);
                (*class, GateCost::new(fid, cost.duration))
            })
            .collect();
        HardwareModel {
            name: self.name.clone(),
            table,
            t1: self.t1,
            t2: self.t2,
        }
    }

    /// Semantic fingerprint of the model: a stable 64-bit hash of the cost
    /// table and coherence times.
    ///
    /// The model *name* is deliberately excluded — two models priced
    /// identically fingerprint identically, so adaptation caches keyed on
    /// the fingerprint share entries across renames. Costs participate by
    /// IEEE-754 bit pattern: any change to a fidelity, duration, or
    /// coherence time changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = qca_circuit::hash::Fnv64::new();
        h.write_f64(self.t1);
        h.write_f64(self.t2);
        h.write_usize(self.table.len());
        // BTreeMap iteration order is the CostClass Ord order: stable.
        for (class, cost) in &self.table {
            h.write_u64(class_tag(class));
            h.write_f64(cost.fidelity);
            h.write_f64(cost.duration);
        }
        h.finish()
    }
}

/// Stable fingerprint tag per cost class (independent of declaration order,
/// so enum reordering does not silently invalidate cache keys).
fn class_tag(class: &CostClass) -> u64 {
    match class {
        CostClass::OneQubit => 1,
        CostClass::Cx => 2,
        CostClass::Cz => 3,
        CostClass::CzDiabatic => 4,
        CostClass::CPhase => 5,
        CostClass::CRot => 6,
        CostClass::Swap => 7,
        CostClass::SwapDiabatic => 8,
        CostClass::SwapComposite => 9,
        CostClass::ISwap => 10,
    }
}

/// Table I of the paper, shared fidelity column.
const SPIN_FIDELITY: [(CostClass, f64); 6] = [
    (CostClass::OneQubit, 0.999),
    (CostClass::Cz, 0.999),
    (CostClass::CzDiabatic, 0.99),
    (CostClass::CRot, 0.994),
    (CostClass::SwapDiabatic, 0.99),
    (CostClass::SwapComposite, 0.999),
];

/// Table I durations, column `D0` (ns).
const SPIN_D0: [(CostClass, f64); 6] = [
    (CostClass::OneQubit, 30.0),
    (CostClass::Cz, 152.0),
    (CostClass::CzDiabatic, 67.0),
    (CostClass::CRot, 660.0),
    (CostClass::SwapDiabatic, 19.0),
    (CostClass::SwapComposite, 89.0),
];

/// Table I durations, column `D1` (ns).
const SPIN_D1: [(CostClass, f64); 6] = [
    (CostClass::OneQubit, 30.0),
    (CostClass::Cz, 151.0),
    (CostClass::CzDiabatic, 7.0),
    (CostClass::CRot, 660.0),
    (CostClass::SwapDiabatic, 9.0),
    (CostClass::SwapComposite, 13.0),
];

/// T2 coherence time for the spin platform (ns), per Petit et al. \[6\].
pub const SPIN_T2_NS: f64 = 2900.0;

/// T1 is three orders of magnitude larger than T2 (paper §V-B).
pub const SPIN_T1_NS: f64 = SPIN_T2_NS * 1000.0;

/// The semiconducting spin-qubit target modality with Table I costs
/// (Petit et al. 2022, ref. \[6\] of the paper).
///
/// # Examples
///
/// ```
/// use qca_hw::{spin_qubit_model, GateTimes};
/// use qca_circuit::Gate;
///
/// let hw = spin_qubit_model(GateTimes::D0);
/// assert!(hw.supports(&Gate::Cz));
/// assert!(!hw.supports(&Gate::Cx)); // CNOT is not native to spins
/// assert_eq!(hw.cost(&Gate::CzDiabatic).unwrap().duration, 67.0);
/// ```
pub fn spin_qubit_model(times: GateTimes) -> HardwareModel {
    let durations = match times {
        GateTimes::D0 => &SPIN_D0,
        GateTimes::D1 => &SPIN_D1,
    };
    let mut table = BTreeMap::new();
    for ((class, fid), (class2, dur)) in SPIN_FIDELITY.iter().zip(durations.iter()) {
        debug_assert_eq!(class, class2);
        table.insert(*class, GateCost::new(*fid, *dur));
    }
    HardwareModel::new(format!("spin-qubit/{times}"), table, SPIN_T1_NS, SPIN_T2_NS)
}

/// An IBM-superconducting-like source modality (CX + single-qubit basis).
///
/// Used as the *source* basis of circuits to adapt; costs are representative
/// transmon values and only matter when computing relative comparisons on
/// the source hardware.
pub fn ibm_source_model() -> HardwareModel {
    let mut table = BTreeMap::new();
    table.insert(CostClass::OneQubit, GateCost::new(0.9995, 35.0));
    table.insert(CostClass::Cx, GateCost::new(0.99, 300.0));
    HardwareModel::new("ibm-source", table, 100_000.0, 100_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_circuit::Circuit;

    #[test]
    fn times_columns_parse_in_either_case() {
        for (name, times) in [
            ("d0", GateTimes::D0),
            ("D0", GateTimes::D0),
            ("d1", GateTimes::D1),
            ("D1", GateTimes::D1),
        ] {
            assert_eq!(name.parse::<GateTimes>(), Ok(times));
        }
        let err = "d2".parse::<GateTimes>().unwrap_err();
        assert!(err.contains("\"d2\""), "{err}");
    }

    #[test]
    fn table_one_d0_values() {
        let hw = spin_qubit_model(GateTimes::D0);
        let cases = [
            (Gate::H, 0.999, 30.0),
            (Gate::Cz, 0.999, 152.0),
            (Gate::CzDiabatic, 0.99, 67.0),
            (Gate::CRot(1.0), 0.994, 660.0),
            (Gate::SwapDiabatic, 0.99, 19.0),
            (Gate::SwapComposite, 0.999, 89.0),
        ];
        for (g, f, d) in cases {
            let c = hw.cost(&g).unwrap_or_else(|| panic!("{g} unsupported"));
            assert_eq!(c.fidelity, f, "{g} fidelity");
            assert_eq!(c.duration, d, "{g} duration");
        }
    }

    #[test]
    fn table_one_d1_values() {
        let hw = spin_qubit_model(GateTimes::D1);
        assert_eq!(hw.cost(&Gate::CzDiabatic).unwrap().duration, 7.0);
        assert_eq!(hw.cost(&Gate::SwapDiabatic).unwrap().duration, 9.0);
        assert_eq!(hw.cost(&Gate::SwapComposite).unwrap().duration, 13.0);
        assert_eq!(hw.cost(&Gate::Cz).unwrap().duration, 151.0);
        // Fidelities identical across columns.
        assert_eq!(hw.cost(&Gate::Cz).unwrap().fidelity, 0.999);
    }

    #[test]
    fn unsupported_gates() {
        let hw = spin_qubit_model(GateTimes::D0);
        for g in [Gate::Cx, Gate::Swap, Gate::ISwap, Gate::CPhase(0.5)] {
            assert!(!hw.supports(&g), "{g} should be unsupported");
        }
    }

    #[test]
    fn circuit_fidelity_product() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cz, &[0, 1]);
        let f = hw.circuit_fidelity(&c).unwrap();
        assert!((f - 0.999 * 0.999).abs() < 1e-12);
        // Unsupported gate -> None
        c.push(Gate::Cx, &[0, 1]);
        assert!(hw.circuit_fidelity(&c).is_none());
    }

    #[test]
    fn ibm_source_supports_cx_basis() {
        let hw = ibm_source_model();
        assert!(hw.supports(&Gate::Cx));
        assert!(hw.supports(&Gate::Rz(0.3)));
        assert!(!hw.supports(&Gate::Cz));
    }

    #[test]
    fn one_qubit_gates_share_cost_class() {
        for g in [
            Gate::X,
            Gate::H,
            Gate::Rz(0.1),
            Gate::U3(0.1, 0.2, 0.3),
            Gate::Sx,
        ] {
            assert_eq!(CostClass::of(&g), CostClass::OneQubit);
        }
    }

    #[test]
    #[should_panic(expected = "fidelity")]
    fn cost_validation() {
        let _ = GateCost::new(1.5, 10.0);
    }

    #[test]
    fn fingerprint_reflects_costs_not_name() {
        let d0 = spin_qubit_model(GateTimes::D0);
        let d1 = spin_qubit_model(GateTimes::D1);
        assert_eq!(
            d0.fingerprint(),
            spin_qubit_model(GateTimes::D0).fingerprint()
        );
        assert_ne!(d0.fingerprint(), d1.fingerprint());
        assert_ne!(d0.fingerprint(), ibm_source_model().fingerprint());
        // Renamed but identically priced model: same fingerprint.
        let mut table = BTreeMap::new();
        for (class, cost) in d0.cost_classes() {
            table.insert(*class, *cost);
        }
        let renamed = HardwareModel::new("other-name", table, d0.t1(), d0.t2());
        assert_eq!(renamed.fingerprint(), d0.fingerprint());
    }

    #[test]
    fn scaled_infidelity_perturbs_and_round_trips() {
        let d0 = spin_qubit_model(GateTimes::D0);
        // factor 1 is an exact copy — same fingerprint, same costs.
        assert_eq!(
            d0.with_scaled_infidelity(1.0).fingerprint(),
            d0.fingerprint()
        );
        let worse = d0.with_scaled_infidelity(2.0);
        assert_ne!(worse.fingerprint(), d0.fingerprint());
        for (class, cost) in worse.cost_classes() {
            let orig = d0.cost_classes().find(|(c, _)| *c == class).unwrap().1;
            assert!(cost.fidelity > 0.0 && cost.fidelity <= 1.0);
            assert!(cost.fidelity <= orig.fidelity, "{class:?} got better");
            assert_eq!(cost.duration, orig.duration);
        }
        // Extreme factors stay in-range instead of panicking.
        let floor = d0.with_scaled_infidelity(1e20);
        for (_, cost) in floor.cost_classes() {
            assert!(cost.fidelity > 0.0 && cost.fidelity <= 1.0);
        }
    }

    #[test]
    fn coherence_constants() {
        let hw = spin_qubit_model(GateTimes::D0);
        assert_eq!(hw.t2(), 2900.0);
        assert_eq!(hw.t1(), 2_900_000.0);
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        assert!(GateCost::try_new(0.99, 10.0).is_ok());
        assert!(GateCost::try_new(0.0, 10.0).is_err());
        assert!(GateCost::try_new(1.5, 10.0).is_err());
        assert!(GateCost::try_new(f64::NAN, 10.0).is_err());
        assert!(GateCost::try_new(0.99, -1.0).is_err());

        let mut table = BTreeMap::new();
        table.insert(CostClass::OneQubit, GateCost::new(0.999, 10.0));
        assert!(HardwareModel::try_new("m", table.clone(), 1e6, 1e3).is_ok());
        assert!(HardwareModel::try_new("m", table.clone(), 0.0, 1e3).is_err());
        // A struct-literal entry bypassing GateCost::new is caught.
        table.insert(
            CostClass::Cz,
            GateCost {
                fidelity: 2.0,
                duration: 10.0,
            },
        );
        let err = HardwareModel::try_new("m", table, 1e6, 1e3).unwrap_err();
        assert!(err.contains("Cz"), "{err}");
    }
}
