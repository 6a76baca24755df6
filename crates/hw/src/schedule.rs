//! ASAP circuit scheduling and qubit idle-time accounting.
//!
//! The idle-time metric of the paper (Eq. 9 and Fig. 6): with total circuit
//! duration `D` over `Q` qubits, the aggregate idle time is
//! `Q*D - Σ_g duration(g)·arity-weighted busy time`.

use crate::modality::HardwareModel;
use qca_circuit::Circuit;

/// Why a circuit admits no schedule: the first instruction whose gate has
/// no cost entry in the hardware table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Display name of the unpriced gate.
    pub gate: String,
    /// Operand qubits of the offending instruction.
    pub qubits: Vec<usize>,
    /// Index of the offending instruction in the circuit.
    pub index: usize,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gate {} on qubit(s) {:?} (instruction {}) has no cost entry in the gate table",
            self.gate, self.qubits, self.index
        )
    }
}

impl std::error::Error for ScheduleError {}

/// An as-soon-as-possible schedule of a circuit on a hardware model.
#[derive(Debug, Clone)]
pub struct CircuitSchedule {
    /// Start time (ns) of each instruction, in circuit order.
    pub start: Vec<f64>,
    /// Duration (ns) of each instruction.
    pub duration: Vec<f64>,
    /// Total circuit duration (makespan, ns).
    pub total_duration: f64,
    /// Per-qubit busy time (ns).
    pub busy: Vec<f64>,
    /// Number of qubits.
    pub num_qubits: usize,
}

impl CircuitSchedule {
    /// Schedules `circuit` on `model`, starting each gate as soon as all of
    /// its operands are free.
    ///
    /// Returns `None` if the circuit contains gates the model does not
    /// support. Callers that need to *report* which gate blocked the
    /// schedule should use [`asap_checked`](Self::asap_checked) instead.
    pub fn asap(circuit: &Circuit, model: &HardwareModel) -> Option<CircuitSchedule> {
        Self::asap_checked(circuit, model).ok()
    }

    /// [`asap`](Self::asap), but a failure names the offending gate, its
    /// qubits, and its instruction index instead of collapsing to `None`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] for the first instruction whose gate the model
    /// does not price.
    pub fn asap_checked(
        circuit: &Circuit,
        model: &HardwareModel,
    ) -> Result<CircuitSchedule, ScheduleError> {
        let nq = circuit.num_qubits();
        let mut qubit_free = vec![0.0f64; nq];
        let mut busy = vec![0.0f64; nq];
        let mut start = Vec::with_capacity(circuit.len());
        let mut duration = Vec::with_capacity(circuit.len());
        for (index, instr) in circuit.iter().enumerate() {
            let cost = model.cost(&instr.gate).ok_or_else(|| ScheduleError {
                gate: instr.gate.to_string(),
                qubits: instr.qubits.clone(),
                index,
            })?;
            let s = instr
                .qubits
                .iter()
                .map(|&q| qubit_free[q])
                .fold(0.0f64, f64::max);
            for &q in &instr.qubits {
                qubit_free[q] = s + cost.duration;
                busy[q] += cost.duration;
            }
            start.push(s);
            duration.push(cost.duration);
        }
        let total_duration = qubit_free.iter().copied().fold(0.0f64, f64::max);
        Ok(CircuitSchedule {
            start,
            duration,
            total_duration,
            busy,
            num_qubits: nq,
        })
    }

    /// Aggregate qubit idle time: `Q*D - Σ_q busy_q` (ns).
    pub fn total_idle_time(&self) -> f64 {
        self.num_qubits as f64 * self.total_duration - self.busy.iter().sum::<f64>()
    }

    /// Per-instruction idle gaps preceding each instruction on each of its
    /// qubits: `(instr_index, qubit, gap_ns)` for every positive gap.
    ///
    /// Useful for simulating thermal relaxation during idling.
    pub fn idle_gaps(&self, circuit: &Circuit) -> Vec<(usize, usize, f64)> {
        let mut qubit_free = vec![0.0f64; self.num_qubits];
        let mut gaps = Vec::new();
        for (i, instr) in circuit.iter().enumerate() {
            let s = self.start[i];
            for &q in &instr.qubits {
                let gap = s - qubit_free[q];
                if gap > 1e-9 {
                    gaps.push((i, q, gap));
                }
                qubit_free[q] = s + self.duration[i];
            }
        }
        // Trailing idles until circuit end.
        for (q, &free) in qubit_free.iter().enumerate() {
            let gap = self.total_duration - free;
            if gap > 1e-9 {
                gaps.push((circuit.len(), q, gap));
            }
        }
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modality::{spin_qubit_model, GateTimes};
    use qca_circuit::Gate;

    fn hw() -> HardwareModel {
        spin_qubit_model(GateTimes::D0)
    }

    #[test]
    fn single_gate_schedule() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cz, &[0, 1]);
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        assert_eq!(s.start, vec![0.0]);
        assert_eq!(s.total_duration, 152.0);
        assert_eq!(s.total_idle_time(), 0.0);
    }

    #[test]
    fn parallel_gates_do_not_serialize() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[1]);
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        assert_eq!(s.start, vec![0.0, 0.0]);
        assert_eq!(s.total_duration, 30.0);
        assert_eq!(s.total_idle_time(), 0.0);
    }

    #[test]
    fn dependent_gates_serialize() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cz, &[0, 1]);
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        assert_eq!(s.start, vec![0.0, 30.0]);
        assert_eq!(s.total_duration, 182.0);
        // Qubit 1 idles while H runs on qubit 0.
        assert_eq!(s.total_idle_time(), 30.0);
    }

    #[test]
    fn idle_time_matches_eq9_form() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cz, &[0, 1]); // 152
        c.push(Gate::H, &[2]); // 30, then q2 idles
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        assert_eq!(s.total_duration, 152.0);
        let manual = 3.0 * 152.0 - (152.0 + 152.0 + 30.0);
        assert_eq!(s.total_idle_time(), manual);
    }

    #[test]
    fn idle_gaps_enumerated() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]); // q1 idle for 30
        c.push(Gate::Cz, &[0, 1]);
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        let gaps = s.idle_gaps(&c);
        assert_eq!(gaps, vec![(1, 1, 30.0)]);
    }

    #[test]
    fn trailing_idle_reported() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cz, &[0, 1]);
        c.push(Gate::H, &[0]); // q1 idles for final 30ns
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        let gaps = s.idle_gaps(&c);
        assert_eq!(gaps, vec![(2, 1, 30.0)]);
    }

    #[test]
    fn unsupported_gate_returns_none() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        assert!(CircuitSchedule::asap(&c, &hw()).is_none());
    }

    #[test]
    fn asap_checked_names_the_offending_gate() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cz, &[0, 1]);
        c.push(Gate::Cx, &[1, 2]); // not native to spins
        let err = CircuitSchedule::asap_checked(&c, &hw()).unwrap_err();
        assert_eq!(err.qubits, vec![1, 2]);
        assert_eq!(err.index, 2);
        let msg = err.to_string();
        assert!(
            msg.contains("cx") || msg.contains("Cx") || msg.contains("CX"),
            "{msg}"
        );
        assert!(msg.contains("[1, 2]"), "{msg}");
    }

    #[test]
    fn sum_of_gaps_equals_total_idle() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cz, &[0, 1]);
        c.push(Gate::SwapComposite, &[1, 2]);
        c.push(Gate::H, &[0]);
        let s = CircuitSchedule::asap(&c, &hw()).unwrap();
        let gap_sum: f64 = s.idle_gaps(&c).iter().map(|&(_, _, g)| g).sum();
        assert!((gap_sum - s.total_idle_time()).abs() < 1e-9);
    }
}
