//! Density-matrix state representation.

use qca_num::{CMat, C64};

/// A mixed quantum state over `n` qubits as a `2^n x 2^n` density matrix.
///
/// Qubit 0 is the most significant bit of the basis index, matching the rest
/// of the workspace.
#[derive(Debug, Clone)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: CMat,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 10 (the dense representation would be
    /// unreasonably large).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits <= 10, "density matrix limited to 10 qubits");
        let dim = 1usize << num_qubits;
        let mut rho = CMat::zeros(dim, dim);
        rho[(0, 0)] = C64::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Borrow of the underlying matrix.
    pub fn as_matrix(&self) -> &CMat {
        &self.rho
    }

    /// Trace (should stay ~1 under trace-preserving evolution).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `tr(rho^2)` (1 for pure states).
    pub fn purity(&self) -> f64 {
        (&self.rho * &self.rho).trace().re
    }

    /// Applies a unitary acting on `targets` (most-significant first).
    ///
    /// # Panics
    ///
    /// Panics on dimension/operand mismatch.
    pub fn apply_unitary(&mut self, u: &CMat, targets: &[usize]) {
        let big = u.embed_qubits(targets, self.num_qubits);
        self.rho = &(&big * &self.rho) * &big.adjoint();
    }

    /// Applies a channel given by Kraus operators acting on `targets`.
    ///
    /// # Panics
    ///
    /// Panics if the operators are not square or mismatch the target count.
    pub fn apply_kraus(&mut self, kraus: &[CMat], targets: &[usize]) {
        let dim = 1usize << self.num_qubits;
        let mut out = CMat::zeros(dim, dim);
        for k in kraus {
            let big = k.embed_qubits(targets, self.num_qubits);
            let term = &(&big * &self.rho) * &big.adjoint();
            out = out + term;
        }
        self.rho = out;
    }

    /// The outcome distribution of a full computational-basis measurement.
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = 1usize << self.num_qubits;
        (0..dim).map(|i| self.rho[(i, i)].re.max(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_circuit::Gate;

    #[test]
    fn zero_state_properties() {
        let rho = DensityMatrix::zero_state(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        let p = rho.probabilities();
        assert_eq!(p[0], 1.0);
        assert!(p[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn hadamard_splits_probability() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_unitary(&Gate::H.matrix(), &[0]);
        let p = rho.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_distribution() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_unitary(&Gate::H.matrix(), &[0]);
        rho.apply_unitary(&Gate::Cx.matrix(), &[0, 1]);
        let p = rho.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
    }

    #[test]
    fn depolarizing_kraus_reduces_purity() {
        // Fully mixing single-qubit channel via the four Pauli Kraus ops.
        let p = 0.5f64;
        let paulis = [Gate::I, Gate::X, Gate::Y, Gate::Z];
        let mut kraus: Vec<CMat> = Vec::new();
        kraus.push(
            Gate::I
                .matrix()
                .scale(C64::real((1.0 - 3.0 * p / 4.0).sqrt())),
        );
        for g in &paulis[1..] {
            kraus.push(g.matrix().scale(C64::real((p / 4.0).sqrt())));
        }
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_unitary(&Gate::H.matrix(), &[0]);
        let before = rho.purity();
        rho.apply_kraus(&kraus, &[0]);
        assert!((rho.trace() - 1.0).abs() < 1e-10, "trace preserved");
        assert!(rho.purity() < before);
    }

    #[test]
    fn unitary_on_second_qubit() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_unitary(&Gate::X.matrix(), &[1]);
        let p = rho.probabilities();
        assert!((p[1] - 1.0).abs() < 1e-12); // |01>
    }
}
