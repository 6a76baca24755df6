//! # qca-num
//!
//! Complex linear-algebra kernel for the SAT-based quantum-circuit-adaptation
//! workspace: a dependency-light complex type ([`C64`]), dense complex
//! matrices ([`CMat`]), QR factorization ([`qr`]), real symmetric
//! eigensolvers ([`eig`]), Haar-random unitary sampling ([`random`]), and
//! global-phase-insensitive comparison ([`phase`]).
//!
//! The matrices here are deliberately small (quantum gates on up to a handful
//! of qubits) so a straightforward `O(n^3)` dense implementation is both
//! simpler and faster than pulling in a BLAS.
//!
//! # Examples
//!
//! ```
//! use qca_num::{C64, CMat, phase::approx_eq_up_to_phase};
//!
//! // Hadamard gate
//! let s = 1.0 / 2.0_f64.sqrt();
//! let h = CMat::from_real(2, 2, &[s, s, s, -s]);
//! assert!(h.is_unitary(1e-12));
//! // H^2 = I (up to global phase, here exactly)
//! assert!(approx_eq_up_to_phase(&(&h * &h), &CMat::identity(2), 1e-12));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod complex;
mod mat;

pub mod eig;
pub mod phase;
pub mod qr;
pub mod random;

pub use complex::C64;
pub use mat::CMat;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_c64() -> impl Strategy<Value = C64> {
        (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| C64::new(re, im))
    }

    fn arb_mat(n: usize) -> impl Strategy<Value = CMat> {
        proptest::collection::vec(arb_c64(), n * n).prop_map(move |v| CMat::from_rows(n, n, &v))
    }

    proptest! {
        #[test]
        fn complex_mul_commutes(a in arb_c64(), b in arb_c64()) {
            prop_assert!((a * b).approx_eq(b * a, 1e-9));
        }

        #[test]
        fn complex_add_associates(a in arb_c64(), b in arb_c64(), c in arb_c64()) {
            prop_assert!(((a + b) + c).approx_eq(a + (b + c), 1e-9));
        }

        #[test]
        fn conj_is_involution(a in arb_c64()) {
            prop_assert_eq!(a.conj().conj(), a);
        }

        #[test]
        fn norm_is_multiplicative(a in arb_c64(), b in arb_c64()) {
            prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() < 1e-8);
        }

        #[test]
        fn matrix_mul_associates(a in arb_mat(3), b in arb_mat(3), c in arb_mat(3)) {
            let lhs = &(&a * &b) * &c;
            let rhs = &a * &(&b * &c);
            prop_assert!(lhs.approx_eq(&rhs, 1e-6));
        }

        #[test]
        fn adjoint_is_involution(a in arb_mat(4)) {
            prop_assert!(a.adjoint().adjoint().approx_eq(&a, 1e-12));
        }

        #[test]
        fn trace_cyclic(a in arb_mat(3), b in arb_mat(3)) {
            let t1 = (&a * &b).trace();
            let t2 = (&b * &a).trace();
            prop_assert!(t1.approx_eq(t2, 1e-6));
        }

        #[test]
        fn kron_mixed_product(a in arb_mat(2), b in arb_mat(2), c in arb_mat(2), d in arb_mat(2)) {
            // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
            let lhs = &a.kron(&b) * &c.kron(&d);
            let rhs = (&a * &c).kron(&(&b * &d));
            prop_assert!(lhs.approx_eq(&rhs, 1e-6));
        }

        #[test]
        fn qr_always_reconstructs(a in arb_mat(4)) {
            let f = qr::qr_decompose(&a);
            prop_assert!(f.q.is_unitary(1e-8));
            prop_assert!((&f.q * &f.r).approx_eq(&a, 1e-7));
        }

        #[test]
        fn haar_unitary_det_modulus_one(seed in 0u64..1000) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let u = random::haar_unitary(&mut rng, 4);
            let d = qr::determinant(&u);
            prop_assert!((d.norm() - 1.0).abs() < 1e-7);
        }
    }
}
