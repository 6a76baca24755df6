//! Eigensolvers for small real symmetric matrices.
//!
//! The KAK decomposition in `qca-synth` needs to simultaneously diagonalize
//! the commuting real and imaginary parts of a complex symmetric unitary.
//! This module provides a cyclic Jacobi eigensolver ([`jacobi_eigen`]) and a
//! two-matrix simultaneous diagonalization ([`simultaneous_diagonalize`])
//! built on top of it.

/// Result of a real symmetric eigendecomposition `A = Q diag(w) Qᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, in the order matching the columns of `vectors`.
    pub values: Vec<f64>,
    /// Orthogonal matrix whose columns are eigenvectors (row-major, n x n).
    pub vectors: Vec<f64>,
    /// Dimension `n`.
    pub n: usize,
}

/// Diagonalizes a real symmetric matrix with the cyclic Jacobi method.
///
/// `a` is a row-major `n x n` matrix; only its symmetric part is used.
/// Returns eigenvalues and an orthogonal eigenvector matrix such that
/// `A ≈ Q diag(w) Qᵀ`.
///
/// # Panics
///
/// Panics if `a.len() != n * n` or `n == 0`.
///
/// # Examples
///
/// ```
/// use qca_num::eig::jacobi_eigen;
/// let a = [2.0, 1.0, 1.0, 2.0];
/// let e = jacobi_eigen(&a, 2);
/// let mut w = e.values.clone();
/// w.sort_by(|x, y| x.partial_cmp(y).unwrap());
/// assert!((w[0] - 1.0).abs() < 1e-10 && (w[1] - 3.0).abs() < 1e-10);
/// ```
pub fn jacobi_eigen(a: &[f64], n: usize) -> SymEigen {
    assert!(n > 0, "dimension must be nonzero");
    assert_eq!(a.len(), n * n, "matrix size mismatch");
    let mut m = a.to_vec();
    // Symmetrize defensively.
    for r in 0..n {
        for c in (r + 1)..n {
            let avg = 0.5 * (m[r * n + c] + m[c * n + r]);
            m[r * n + c] = avg;
            m[c * n + r] = avg;
        }
    }
    let mut q = vec![0.0; n * n];
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += m[r * n + c] * m[r * n + c];
            }
        }
        if off.sqrt() < 1e-14 {
            break;
        }
        for p in 0..n {
            for r in (p + 1)..n {
                let apq = m[p * n + r];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[r * n + r];
                let theta = 0.5 * (aqq - app) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation to m on both sides.
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + r];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + r] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[r * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[r * n + k] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let qkp = q[k * n + p];
                    let qkq = q[k * n + r];
                    q[k * n + p] = c * qkp - s * qkq;
                    q[k * n + r] = s * qkp + c * qkq;
                }
            }
        }
    }
    let values = (0..n).map(|i| m[i * n + i]).collect();
    SymEigen {
        values,
        vectors: q,
        n,
    }
}

/// Simultaneously diagonalizes two commuting real symmetric matrices.
///
/// Returns an orthogonal `Q` (row-major) and the two diagonals `(wa, wb)`
/// such that `Qᵀ A Q ≈ diag(wa)` and `Qᵀ B Q ≈ diag(wb)`.
///
/// The algorithm diagonalizes `A`, then re-diagonalizes `B` restricted to each
/// eigenspace of `A` (detected by eigenvalue clustering with tolerance `tol`).
///
/// # Panics
///
/// Panics on size mismatch.
pub fn simultaneous_diagonalize(
    a: &[f64],
    b: &[f64],
    n: usize,
    tol: f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let ea = jacobi_eigen(a, n);
    // Sort eigenpairs of A by eigenvalue to make clusters contiguous.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| ea.values[i].partial_cmp(&ea.values[j]).unwrap());
    let mut q = vec![0.0; n * n]; // columns = sorted eigenvectors of A
    let mut wa = vec![0.0; n];
    for (new_col, &old_col) in order.iter().enumerate() {
        wa[new_col] = ea.values[old_col];
        for r in 0..n {
            q[r * n + new_col] = ea.vectors[r * n + old_col];
        }
    }
    // B in the A-eigenbasis: Bq = Qᵀ B Q.
    let mut bq = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                for l in 0..n {
                    acc += q[k * n + r] * b[k * n + l] * q[l * n + c];
                }
            }
            bq[r * n + c] = acc;
        }
    }
    // Within each cluster of equal wa, diagonalize the corresponding block of bq.
    let mut start = 0;
    while start < n {
        let mut end = start + 1;
        while end < n && (wa[end] - wa[start]).abs() <= tol {
            end += 1;
        }
        let k = end - start;
        if k > 1 {
            let mut block = vec![0.0; k * k];
            for r in 0..k {
                for c in 0..k {
                    block[r * k + c] = bq[(start + r) * n + (start + c)];
                }
            }
            let eb = jacobi_eigen(&block, k);
            // Rotate the corresponding columns of Q by the block eigenvectors.
            let mut newq = vec![0.0; n * k];
            for r in 0..n {
                for c in 0..k {
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += q[r * n + (start + l)] * eb.vectors[l * k + c];
                    }
                    newq[r * k + c] = acc;
                }
            }
            for r in 0..n {
                for c in 0..k {
                    q[r * n + (start + c)] = newq[r * k + c];
                }
            }
        }
        start = end;
    }
    // Recompute both diagonals from the final Q.
    let diag_of = |m: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut acc = 0.0;
                for k in 0..n {
                    for l in 0..n {
                        acc += q[k * n + i] * m[k * n + l] * q[l * n + i];
                    }
                }
                acc
            })
            .collect()
    };
    let wa = diag_of(a);
    let wb = diag_of(b);
    (q, wa, wb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec(m: &[f64], n: usize, v: &[f64]) -> Vec<f64> {
        (0..n)
            .map(|r| (0..n).map(|c| m[r * n + c] * v[c]).sum())
            .collect()
    }

    #[test]
    fn jacobi_2x2() {
        let a = [4.0, 1.0, 1.0, 4.0];
        let e = jacobi_eigen(&a, 2);
        let mut w = e.values.clone();
        w.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((w[0] - 3.0).abs() < 1e-10);
        assert!((w[1] - 5.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_eigenvectors_satisfy_av_eq_wv() {
        let a = [
            3.0, 1.0, 0.5, //
            1.0, 2.0, -0.3, //
            0.5, -0.3, 1.0,
        ];
        let e = jacobi_eigen(&a, 3);
        for k in 0..3 {
            let v: Vec<f64> = (0..3).map(|r| e.vectors[r * 3 + k]).collect();
            let av = mat_vec(&a, 3, &v);
            for r in 0..3 {
                assert!(
                    (av[r] - e.values[k] * v[r]).abs() < 1e-9,
                    "eigenpair {k} fails"
                );
            }
        }
    }

    #[test]
    fn jacobi_orthogonality() {
        let a = [
            2.0, -1.0, 0.0, 0.3, //
            -1.0, 2.0, -1.0, 0.0, //
            0.0, -1.0, 2.0, -1.0, //
            0.3, 0.0, -1.0, 2.0,
        ];
        let e = jacobi_eigen(&a, 4);
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = (0..4)
                    .map(|r| e.vectors[r * 4 + i] * e.vectors[r * 4 + j])
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn simultaneous_diag_of_commuting_pair() {
        // A and B diagonal in the same (rotated) basis.
        // Build Q0 = rotation, A = Q0 D1 Q0^T, B = Q0 D2 Q0^T with A degenerate.
        let th: f64 = 0.7;
        let (c, s) = (th.cos(), th.sin());
        let q0 = [c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0];
        let d1 = [2.0, 2.0, 5.0]; // degenerate pair forces B to disambiguate
        let d2 = [1.0, -1.0, 3.0];
        let build = |d: &[f64; 3]| -> Vec<f64> {
            let mut m = vec![0.0; 9];
            for r in 0..3 {
                for cc in 0..3 {
                    let mut acc = 0.0;
                    for k in 0..3 {
                        acc += q0[r * 3 + k] * d[k] * q0[cc * 3 + k];
                    }
                    m[r * 3 + cc] = acc;
                }
            }
            m
        };
        let a = build(&d1);
        let b = build(&d2);
        let (q, wa, wb) = simultaneous_diagonalize(&a, &b, 3, 1e-9);
        // Verify off-diagonals of Q^T A Q and Q^T B Q vanish.
        for (m, w) in [(&a, &wa), (&b, &wb)] {
            for r in 0..3 {
                for cc in 0..3 {
                    let mut acc = 0.0;
                    for k in 0..3 {
                        for l in 0..3 {
                            acc += q[k * 3 + r] * m[k * 3 + l] * q[l * 3 + cc];
                        }
                    }
                    let expect = if r == cc { w[r] } else { 0.0 };
                    assert!((acc - expect).abs() < 1e-8, "entry ({r},{cc})");
                }
            }
        }
    }
}
