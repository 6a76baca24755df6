//! The circuit intermediate representation.
//!
//! A [`Circuit`] is an ordered list of [`Instr`]s on a fixed number of
//! qubits. Structural queries (depth, gate counts) and the full circuit
//! unitary (for small qubit counts) live here; scheduling and cost analysis
//! live in `qca-hw`/`qca-adapt`.

use crate::gate::Gate;
use qca_num::CMat;
use std::fmt;

/// One gate application: a gate and its qubit operands (control first for
/// controlled gates).
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// The gate.
    pub gate: Gate,
    /// Operand qubit indices; length matches `gate.num_qubits()`.
    pub qubits: Vec<usize>,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, "{} {}", self.gate, qs.join(","))
    }
}

/// A quantum circuit: a gate sequence over `num_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qca_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.depth(), 2);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instrs: Vec<Instr>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instrs: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gate applications.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends a gate application.
    ///
    /// # Panics
    ///
    /// Panics if the operand count mismatches the gate arity, an operand is
    /// out of range, or a two-qubit gate addresses the same qubit twice.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            gate.num_qubits(),
            "gate {gate} expects {} operand(s)",
            gate.num_qubits()
        );
        for &q in qubits {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate on identical qubits");
        }
        self.instrs.push(Instr {
            gate,
            qubits: qubits.to_vec(),
        });
    }

    /// Appends all instructions of `other` (qubit indices taken verbatim).
    ///
    /// # Panics
    ///
    /// Panics if `other` addresses qubits outside this circuit.
    pub fn extend_from(&mut self, other: &Circuit) {
        for instr in &other.instrs {
            self.push(instr.gate, &instr.qubits);
        }
    }

    /// The instruction list.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Iterator over instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.gate.is_two_qubit()).count()
    }

    /// Circuit depth: length of the longest qubit-wise dependency chain,
    /// counting every gate as one layer.
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.num_qubits];
        for instr in &self.instrs {
            let layer = instr.qubits.iter().map(|&q| frontier[q]).max().unwrap_or(0) + 1;
            for &q in &instr.qubits {
                frontier[q] = layer;
            }
        }
        frontier.into_iter().max().unwrap_or(0)
    }

    /// The circuit's unitary matrix (dimension `2^n`), applying gates left to
    /// right (first instruction acts first).
    ///
    /// # Panics
    ///
    /// Panics for circuits with more than 12 qubits (matrix would exceed
    /// sensible memory bounds).
    pub fn unitary(&self) -> CMat {
        assert!(
            self.num_qubits <= 12,
            "unitary() limited to 12 qubits ({} requested)",
            self.num_qubits
        );
        let dim = 1usize << self.num_qubits;
        let mut u = CMat::identity(dim);
        for instr in &self.instrs {
            let g = instr
                .gate
                .matrix()
                .embed_qubits(&instr.qubits, self.num_qubits);
            u = &g * &u;
        }
        u
    }

    /// Returns the circuit with gate order reversed and every gate inverted.
    pub fn inverse(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for instr in self.instrs.iter().rev() {
            out.push(instr.gate.dagger(), &instr.qubits);
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.num_qubits)?;
        for i in &self.instrs {
            writeln!(f, "  {i}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_num::phase::approx_eq_up_to_phase;
    use std::f64::consts::PI;

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        let u = c.unitary();
        // |00> -> (|00> + |11>)/sqrt(2)
        let s = 1.0 / 2.0_f64.sqrt();
        assert!((u[(0, 0)].re - s).abs() < 1e-12);
        assert!((u[(3, 0)].re - s).abs() < 1e-12);
        assert!(u[(1, 0)].norm() < 1e-12);
        assert!(u[(2, 0)].norm() < 1e-12);
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[1]);
        c.push(Gate::H, &[2]);
        assert_eq!(c.depth(), 1);
        c.push(Gate::Cx, &[0, 1]);
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cx, &[1, 2]);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn inverse_gives_identity() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(0.3), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Ry(1.1), &[0]);
        let mut full = c.clone();
        full.extend_from(&c.inverse());
        assert!(approx_eq_up_to_phase(
            &full.unitary(),
            &CMat::identity(4),
            1e-10
        ));
    }

    #[test]
    fn swap_via_three_cnots() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        assert!(approx_eq_up_to_phase(
            &c.unitary(),
            &Gate::Swap.matrix(),
            1e-12
        ));
    }

    #[test]
    fn cz_symmetric_under_operand_swap() {
        let mut a = Circuit::new(2);
        a.push(Gate::Cz, &[0, 1]);
        let mut b = Circuit::new(2);
        b.push(Gate::Cz, &[1, 0]);
        assert!(a.unitary().approx_eq(&b.unitary(), 1e-12));
    }

    #[test]
    fn cx_conjugated_by_h_is_cz() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::H, &[1]);
        assert!(approx_eq_up_to_phase(
            &c.unitary(),
            &Gate::Cz.matrix(),
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_range() {
        let mut c = Circuit::new(1);
        c.push(Gate::H, &[1]);
    }

    #[test]
    #[should_panic(expected = "identical qubits")]
    fn push_validates_distinct_operands() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[1, 1]);
    }

    #[test]
    fn rz_phase_relationship() {
        // Rz(t) equals Phase(t) up to global phase.
        let mut a = Circuit::new(1);
        a.push(Gate::Rz(0.7), &[0]);
        let mut b = Circuit::new(1);
        b.push(Gate::Phase(0.7), &[0]);
        assert!(approx_eq_up_to_phase(&a.unitary(), &b.unitary(), 1e-12));
    }

    #[test]
    fn big_endian_embedding() {
        // X on qubit 0 of 2: flips the most significant bit.
        let mut c = Circuit::new(2);
        c.push(Gate::X, &[0]);
        let u = c.unitary();
        assert!(u[(2, 0)].approx_eq(qca_num::C64::ONE, 1e-12)); // |00> -> |10>
    }

    #[test]
    fn crot_pi_vs_cx_differ_by_s_on_control() {
        // CX = (S on control) . CROT(pi) up to global phase:
        // diag(1,1,i,i) * CROT(pi) has lower block i*(-i)X = X.
        let mut c = Circuit::new(2);
        c.push(Gate::CRot(PI), &[0, 1]);
        c.push(Gate::S, &[0]);
        assert!(approx_eq_up_to_phase(
            &c.unitary(),
            &Gate::Cx.matrix(),
            1e-12
        ));
    }
}
