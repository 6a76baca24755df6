//! Dense complex matrices.
//!
//! [`CMat`] is a row-major dense complex matrix sized for quantum-gate work
//! (2x2 single-qubit unitaries up to 32x32 density matrices). It provides the
//! operations the rest of the workspace needs: multiplication, adjoints,
//! Kronecker products, traces, norms and unitarity checks.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qca_num::CMat;
/// let id = CMat::identity(2);
/// assert!(id.is_unitary(1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major slice of elements.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(data.len(), rows * cols, "element count mismatch");
        CMat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix from a row-major slice of real values.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "element count mismatch");
        CMat {
            rows,
            cols,
            data: data.iter().map(|&x| C64::real(x)).collect(),
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = CMat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the row-major element storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Conjugate transpose (dagger).
    pub fn adjoint(&self) -> CMat {
        let mut m = CMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m[(c, r)] = self[(r, c)].conj();
            }
        }
        m
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMat {
        let mut m = CMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m[(c, r)] = self[(r, c)];
            }
        }
        m
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every element by a complex factor.
    pub fn scale(&self, k: C64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qca_num::CMat;
    /// let a = CMat::identity(2);
    /// let b = CMat::identity(3);
    /// assert_eq!(a.kron(&b), CMat::identity(6));
    /// ```
    pub fn kron(&self, other: &CMat) -> CMat {
        let mut m = CMat::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                let a = self[(r1, c1)];
                for r2 in 0..other.rows {
                    for c2 in 0..other.cols {
                        m[(r1 * other.rows + r2, c1 * other.cols + c2)] = a * other[(r2, c2)];
                    }
                }
            }
        }
        m
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &CMat) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max)
    }

    /// Approximate elementwise equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &CMat, tol: f64) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_abs_diff(other) <= tol
    }

    /// Returns `true` when `self† self ≈ I` within tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.adjoint() * self.clone();
        prod.approx_eq(&CMat::identity(self.rows), tol)
    }

    /// Returns `true` when the matrix equals its conjugate transpose within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.adjoint(), tol)
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        let mut out = vec![C64::ZERO; self.rows];
        for r in 0..self.rows {
            let mut acc = C64::ZERO;
            for c in 0..self.cols {
                acc += self[(r, c)] * v[c];
            }
            out[r] = acc;
        }
        out
    }

    /// Extracts the `2^k`-dimensional unitary acting on all qubits from a
    /// gate matrix on fewer qubits by tensoring with identities.
    ///
    /// `target_positions` lists, most-significant first, which tensor slots
    /// (0-based from the most significant qubit) the gate acts on. The result
    /// acts on `n_slots` qubits.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension is not `2^len(target_positions)`, if a
    /// position repeats, or exceeds `n_slots`.
    pub fn embed_qubits(&self, target_positions: &[usize], n_slots: usize) -> CMat {
        let k = target_positions.len();
        assert_eq!(self.rows, 1 << k, "gate dimension mismatch");
        assert!(self.is_square(), "gate must be square");
        for (i, &p) in target_positions.iter().enumerate() {
            assert!(p < n_slots, "target position out of range");
            assert!(
                !target_positions[..i].contains(&p),
                "duplicate target position"
            );
        }
        let dim = 1usize << n_slots;
        let mut m = CMat::zeros(dim, dim);
        // For each pair of basis states differing only on the target slots,
        // copy the corresponding gate element.
        for row in 0..dim {
            // bits of the non-target slots
            for col in 0..dim {
                let mut same_elsewhere = true;
                for slot in 0..n_slots {
                    if target_positions.contains(&slot) {
                        continue;
                    }
                    let shift = n_slots - 1 - slot;
                    if (row >> shift) & 1 != (col >> shift) & 1 {
                        same_elsewhere = false;
                        break;
                    }
                }
                if !same_elsewhere {
                    continue;
                }
                let mut gr = 0usize;
                let mut gc = 0usize;
                for (i, &p) in target_positions.iter().enumerate() {
                    let shift = n_slots - 1 - p;
                    gr |= ((row >> shift) & 1) << (k - 1 - i);
                    gc |= ((col >> shift) & 1) << (k - 1 - i);
                }
                m[(row, col)] = self[(gr, gc)];
            }
        }
        m
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for CMat {
    type Output = CMat;
    fn add(self, rhs: CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for CMat {
    type Output = CMat;
    fn sub(self, rhs: CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        self.scale(C64::real(-1.0))
    }
}

impl Mul for CMat {
    type Output = CMat;
    fn mul(self, rhs: CMat) -> CMat {
        &self * &rhs
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut m = CMat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    m[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        m
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:.4}  ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMat {
        CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMat {
        CMat::from_rows(2, 2, &[C64::ZERO, -C64::I, C64::I, C64::ZERO])
    }

    fn pauli_z() -> CMat {
        CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn identity_is_unitary_and_hermitian() {
        let id = CMat::identity(4);
        assert!(id.is_unitary(1e-12));
        assert!(id.is_hermitian(1e-12));
        assert!(id.trace().approx_eq(C64::real(4.0), 1e-12));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        let xy = &x * &y;
        assert!(xy.approx_eq(&z.scale(C64::I), 1e-12));
        // X^2 = I
        assert!((&x * &x).approx_eq(&CMat::identity(2), 1e-12));
        assert!(x.is_unitary(1e-12) && y.is_unitary(1e-12) && z.is_unitary(1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let xz = x.kron(&pauli_z());
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz[(0, 2)], C64::ONE);
        assert_eq!(xz[(1, 3)], C64::real(-1.0));
        assert!(xz.is_unitary(1e-12));
    }

    #[test]
    fn adjoint_reverses_product() {
        let x = pauli_x();
        let y = pauli_y();
        let lhs = (&x * &y).adjoint();
        let rhs = &y.adjoint() * &x.adjoint();
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let y = pauli_y();
        let v = [C64::ONE, C64::I];
        let out = y.mul_vec(&v);
        assert!(out[0].approx_eq(C64::ONE, 1e-12)); // -i * i = 1
        assert!(out[1].approx_eq(C64::I, 1e-12));
    }

    #[test]
    fn embed_single_qubit_gate() {
        let x = pauli_x();
        // X on qubit 0 of 2 (most significant slot)
        let xi = x.embed_qubits(&[0], 2);
        assert!(xi.approx_eq(&x.kron(&CMat::identity(2)), 1e-12));
        // X on qubit 1 of 2
        let ix = x.embed_qubits(&[1], 2);
        assert!(ix.approx_eq(&CMat::identity(2).kron(&x), 1e-12));
    }

    #[test]
    fn embed_two_qubit_gate_reversed_order() {
        // CX with control=slot1, target=slot0 equals SWAP * CX * SWAP
        let cx = CMat::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 1.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
        );
        let swap = CMat::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 1.0,
            ],
        );
        let embedded = cx.embed_qubits(&[1, 0], 2);
        let expect = &(&swap * &cx) * &swap;
        assert!(embedded.approx_eq(&expect, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mul_shape_mismatch_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((CMat::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }
}
