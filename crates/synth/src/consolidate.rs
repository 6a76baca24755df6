//! Single-qubit gate consolidation.
//!
//! Merges every maximal run of single-qubit gates on a qubit into one `U3`
//! gate (dropping runs that multiply to the identity up to phase). This both
//! cleans up synthesized circuits and implements the paper's cost convention
//! that the spin platform executes an arbitrary SU(2) as a single operation.
//!
//! [`Consolidator`] does the merging as a stream (feed gates, then finish)
//! into a [`ConsolidatedSink`]; [`consolidate_1q`] streams a circuit into a
//! new [`Circuit`]. Rule evaluation streams into a cost sink instead, so it
//! prices a consolidated circuit without building it.

use crate::euler::u3_gate;
use qca_circuit::{Circuit, Gate};
use qca_num::phase::approx_eq_up_to_phase;
use qca_num::CMat;

/// Receives the consolidated stream of a [`Consolidator`], in order.
pub trait ConsolidatedSink {
    /// A merged single-qubit run on qubit `q` whose product `u` is not the
    /// identity up to phase.
    fn run(&mut self, q: usize, u: &CMat);
    /// A multi-qubit gate, passed through verbatim.
    fn gate(&mut self, gate: Gate, qubits: &[usize]);
}

/// Builds the consolidated circuit: each run becomes one `U3`.
impl ConsolidatedSink for Circuit {
    fn run(&mut self, q: usize, u: &CMat) {
        self.push(u3_gate(u), &[q]);
    }

    fn gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.push(gate, qubits);
    }
}

/// Streaming single-qubit consolidation: the pending run product of each
/// qubit. Cloning it snapshots a prefix of the stream.
#[derive(Debug, Clone)]
pub struct Consolidator {
    pending: Vec<Option<CMat>>,
}

impl Consolidator {
    /// A consolidator over `num_qubits` qubits with no pending runs.
    pub fn new(num_qubits: usize) -> Consolidator {
        Consolidator {
            pending: vec![None; num_qubits],
        }
    }

    /// Multiplies the single-qubit matrix `m` onto qubit `q`'s pending run.
    pub fn feed_1q(&mut self, q: usize, m: &CMat) {
        self.pending[q] = Some(match self.pending[q].take() {
            None => m.clone(),
            Some(acc) => m * &acc,
        });
    }

    /// Flushes the pending runs on `qubits`, then emits the multi-qubit
    /// `gate`.
    pub fn feed_gate(&mut self, gate: Gate, qubits: &[usize], sink: &mut impl ConsolidatedSink) {
        for &q in qubits {
            self.flush(q, sink);
        }
        sink.gate(gate, qubits);
    }

    /// Feeds one instruction of either arity.
    pub fn feed(&mut self, gate: Gate, qubits: &[usize], sink: &mut impl ConsolidatedSink) {
        if gate.num_qubits() == 1 {
            self.feed_1q(qubits[0], &gate.matrix());
        } else {
            self.feed_gate(gate, qubits, sink);
        }
    }

    /// Flushes every pending run, in qubit order.
    pub fn finish(&mut self, sink: &mut impl ConsolidatedSink) {
        for q in 0..self.pending.len() {
            self.flush(q, sink);
        }
    }

    fn flush(&mut self, q: usize, sink: &mut impl ConsolidatedSink) {
        if let Some(u) = self.pending[q].take() {
            if !approx_eq_up_to_phase(&u, &CMat::identity(2), 1e-10) {
                sink.run(q, &u);
            }
        }
    }
}

/// Rewrites `circuit` so that no two single-qubit gates are adjacent on the
/// same qubit: each run becomes a single [`qca_circuit::Gate::U3`] (or vanishes when the
/// run is an identity).
///
/// Two-qubit gates are preserved verbatim, in order. The result is equal to
/// the input up to global phase.
///
/// # Examples
///
/// ```
/// use qca_circuit::{Circuit, Gate};
/// use qca_synth::consolidate::consolidate_1q;
///
/// let mut c = Circuit::new(1);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::H, &[0]); // H·H = I
/// let out = consolidate_1q(&c);
/// assert!(out.is_empty());
/// ```
pub fn consolidate_1q(circuit: &Circuit) -> Circuit {
    let mut merge = Consolidator::new(circuit.num_qubits());
    let mut out = Circuit::new(circuit.num_qubits());
    for instr in circuit.iter() {
        merge.feed(instr.gate, &instr.qubits, &mut out);
    }
    merge.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_circuit::Gate;

    #[test]
    fn merges_runs_into_single_u3() {
        let mut c = Circuit::new(1);
        c.push(Gate::H, &[0]);
        c.push(Gate::T, &[0]);
        c.push(Gate::Rz(0.3), &[0]);
        let out = consolidate_1q(&c);
        assert_eq!(out.len(), 1);
        assert!(matches!(out.instrs()[0].gate, Gate::U3(..)));
        assert!(approx_eq_up_to_phase(&out.unitary(), &c.unitary(), 1e-9));
    }

    #[test]
    fn identity_runs_vanish() {
        let mut c = Circuit::new(2);
        c.push(Gate::X, &[0]);
        c.push(Gate::X, &[0]);
        c.push(Gate::S, &[1]);
        c.push(Gate::Sdg, &[1]);
        assert!(consolidate_1q(&c).is_empty());
    }

    #[test]
    fn two_qubit_gates_flush_and_split_runs() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cz, &[0, 1]);
        c.push(Gate::H, &[0]);
        let out = consolidate_1q(&c);
        assert_eq!(out.len(), 3);
        assert_eq!(out.instrs()[1].gate, Gate::Cz);
        assert!(approx_eq_up_to_phase(&out.unitary(), &c.unitary(), 1e-9));
    }

    #[test]
    fn preserves_unitary_on_mixed_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(0.2), &[0]);
        c.push(Gate::Ry(1.0), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::T, &[1]);
        c.push(Gate::Tdg, &[2]);
        c.push(Gate::Cz, &[1, 2]);
        c.push(Gate::X, &[2]);
        let out = consolidate_1q(&c);
        assert!(approx_eq_up_to_phase(&out.unitary(), &c.unitary(), 1e-9));
        // No adjacent single-qubit gates on the same qubit remain.
        let mut last: Vec<Option<usize>> = vec![None; 3];
        for (i, instr) in out.iter().enumerate() {
            if instr.gate.num_qubits() == 1 {
                let q = instr.qubits[0];
                if let Some(prev) = last[q] {
                    assert!(
                        i > prev + 1 || {
                            // an intervening 2q gate on q must exist
                            out.instrs()[prev + 1..i]
                                .iter()
                                .any(|x| x.qubits.contains(&q))
                        }
                    );
                }
                last[q] = Some(i);
            }
        }
    }

    #[test]
    fn empty_circuit_passthrough() {
        let c = Circuit::new(2);
        assert!(consolidate_1q(&c).is_empty());
    }

    #[test]
    fn realization_variants_pass_through() {
        let mut c = Circuit::new(2);
        c.push(Gate::SwapDiabatic, &[0, 1]);
        c.push(Gate::CzDiabatic, &[0, 1]);
        let out = consolidate_1q(&c);
        assert_eq!(out.instrs(), c.instrs());
    }
}
