//! Global-phase-insensitive comparison of unitaries.
//!
//! Quantum gates are physically defined up to a global phase; circuit
//! equivalence checks throughout the workspace must therefore compare
//! unitaries modulo `U(1)`.

use crate::complex::C64;
use crate::mat::CMat;

/// Returns the phase `e^{i t}` that best aligns `a` to `b`, if one exists.
///
/// Uses the phase of `tr(a† b)`; for matrices equal up to global phase this
/// recovers that phase exactly.
pub fn alignment_phase(a: &CMat, b: &CMat) -> C64 {
    let t = trace_adjoint_product(a, b);
    if t.norm() < 1e-300 {
        C64::ONE
    } else {
        t / t.norm()
    }
}

/// `tr(a† b)` without forming the product: each diagonal entry is summed
/// over the same terms in the same order as `(&a.adjoint() * b).trace()`
/// (a zero entry of `a†` skipped, as the product skips it), so the result
/// is bit-identical to it.
///
/// # Panics
///
/// Panics unless `a` and `b` have one shape.
fn trace_adjoint_product(a: &CMat, b: &CMat) -> C64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let mut trace = C64::ZERO;
    for i in 0..a.cols() {
        let mut d = C64::ZERO;
        for k in 0..a.rows() {
            let x = a[(k, i)].conj();
            if x == C64::ZERO {
                continue;
            }
            d += x * b[(k, i)];
        }
        trace += d;
    }
    trace
}

/// Tests whether two matrices are equal up to a global phase, within
/// elementwise tolerance `tol`.
///
/// # Examples
///
/// ```
/// use qca_num::{CMat, C64, phase::approx_eq_up_to_phase};
/// let id = CMat::identity(2);
/// let rotated = id.scale(C64::cis(1.2));
/// assert!(approx_eq_up_to_phase(&id, &rotated, 1e-12));
/// ```
pub fn approx_eq_up_to_phase(a: &CMat, b: &CMat, tol: f64) -> bool {
    if (a.rows(), a.cols()) != (b.rows(), b.cols()) {
        return false;
    }
    let phase = alignment_phase(a, b);
    a.scale(phase).approx_eq(b, tol)
}

/// Process-fidelity-like distance `1 - |tr(a† b)| / n` between two unitaries.
///
/// Zero iff the unitaries agree up to a global phase.
///
/// # Panics
///
/// Panics on shape mismatch or non-square inputs.
pub fn phase_insensitive_distance(a: &CMat, b: &CMat) -> f64 {
    assert!(a.is_square() && b.is_square(), "inputs must be square");
    assert_eq!(a.rows(), b.rows(), "shape mismatch");
    let n = a.rows() as f64;
    let t = trace_adjoint_product(a, b);
    (1.0 - t.norm() / n).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_matrix_distance_zero() {
        let id = CMat::identity(4);
        assert!(phase_insensitive_distance(&id, &id) < 1e-14);
    }

    #[test]
    fn phase_rotation_ignored() {
        let m = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let rotated = m.scale(C64::cis(-2.1));
        assert!(approx_eq_up_to_phase(&m, &rotated, 1e-12));
        assert!(phase_insensitive_distance(&m, &rotated) < 1e-12);
    }

    #[test]
    fn different_matrices_detected() {
        let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let z = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!(!approx_eq_up_to_phase(&x, &z, 1e-6));
        assert!(phase_insensitive_distance(&x, &z) > 0.5);
    }

    #[test]
    fn alignment_phase_recovers_rotation() {
        let m = CMat::identity(3);
        let rotated = m.scale(C64::cis(0.7));
        let p = alignment_phase(&m, &rotated);
        assert!(p.approx_eq(C64::cis(0.7), 1e-12));
    }

    #[test]
    fn trace_matches_the_full_product_bit_for_bit() {
        let a = CMat::from_rows(
            2,
            2,
            &[
                C64::new(0.3, -0.1),
                C64::ZERO,
                C64::new(-0.7, 0.2),
                C64::new(0.0, 1.5),
            ],
        );
        let b = CMat::from_rows(
            2,
            2,
            &[
                C64::new(1.1, 0.4),
                C64::new(-0.2, 0.9),
                C64::new(0.5, -0.6),
                C64::new(0.8, 0.0),
            ],
        );
        let full = (&a.adjoint() * &b).trace();
        let t = trace_adjoint_product(&a, &b);
        assert_eq!(
            (t.re.to_bits(), t.im.to_bits()),
            (full.re.to_bits(), full.im.to_bits())
        );
    }

    #[test]
    fn shape_mismatch_is_not_equal() {
        let a = CMat::identity(2);
        let b = CMat::identity(4);
        assert!(!approx_eq_up_to_phase(&a, &b, 1e-6));
    }
}
