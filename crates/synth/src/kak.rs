//! KAK (Cartan) decomposition of two-qubit unitaries.
//!
//! Any `U ∈ U(4)` factors as
//! `U = e^{i g} (L0 ⊗ L1) · N(kx, ky, kz) · (R0 ⊗ R1)` with
//! `N(a,b,c) = exp(i (a XX + b YY + c ZZ))` and single-qubit locals
//! `L*, R* ∈ SU(2)`. The decomposition is computed via the magic basis:
//! conjugated into the magic basis, local gates become real orthogonal
//! matrices and the canonical part becomes diagonal, so the problem reduces
//! to simultaneous diagonalization of the commuting real and imaginary parts
//! of `Mᵀ M` ([`qca_num::eig::simultaneous_diagonalize`]).
//!
//! [`KakDecomposition::to_circuit_cx`] emits the optimal three-CNOT circuit
//! (Vatan–Williams); [`KakDecomposition::to_circuit_cz`] re-expresses it over
//! `{CZ, SU(2)}` — the substitution rule of Fig. 3(c) in the paper.

use crate::consolidate::consolidate_1q;
use crate::euler::u3_gate;
use qca_circuit::{Circuit, Gate};
use qca_num::eig::simultaneous_diagonalize;
use qca_num::qr::determinant;
use qca_num::{CMat, C64};
use std::f64::consts::FRAC_PI_2;

/// The magic basis change `E` (columns are the magic Bell states).
fn magic_basis() -> CMat {
    let s = 1.0 / 2.0_f64.sqrt();
    let z = C64::ZERO;
    let r = C64::real(s);
    let i = C64::new(0.0, s);
    CMat::from_rows(
        4,
        4,
        &[
            r, z, z, i, //
            z, i, r, z, //
            z, i, -r, z, //
            r, z, z, -i,
        ],
    )
}

/// Result of a KAK decomposition.
///
/// Satisfies `U = phase · (left0 ⊗ left1) · N(kx,ky,kz) · (right0 ⊗ right1)`.
#[derive(Debug, Clone)]
pub struct KakDecomposition {
    /// Global phase factor.
    pub phase: C64,
    /// Local gate applied to qubit 0 after the canonical part.
    pub left0: CMat,
    /// Local gate applied to qubit 1 after the canonical part.
    pub left1: CMat,
    /// Local gate applied to qubit 0 before the canonical part.
    pub right0: CMat,
    /// Local gate applied to qubit 1 before the canonical part.
    pub right1: CMat,
    /// XX interaction coefficient.
    pub kx: f64,
    /// YY interaction coefficient.
    pub ky: f64,
    /// ZZ interaction coefficient.
    pub kz: f64,
}

/// Splits a 4x4 Kronecker product into `phase · (a ⊗ b)` with
/// `a, b ∈ SU(2)`.
///
/// # Panics
///
/// Panics when `g` is not within `tol` of an exact Kronecker product of
/// unitaries.
pub fn kron_factor(g: &CMat, tol: f64) -> (C64, CMat, CMat) {
    try_kron_factor(g, tol).expect("input is not a Kronecker product of unitaries")
}

/// Non-panicking variant of [`kron_factor`]: returns `None` when `g` is not
/// a Kronecker product within `tol`.
pub fn try_kron_factor(g: &CMat, tol: f64) -> Option<(C64, CMat, CMat)> {
    assert_eq!((g.rows(), g.cols()), (4, 4), "expected a 4x4 matrix");
    // Locate the largest element.
    let (mut bi, mut bj, mut best) = (0, 0, 0.0);
    for r in 0..4 {
        for c in 0..4 {
            if g[(r, c)].norm() > best {
                best = g[(r, c)].norm();
                bi = r;
                bj = c;
            }
        }
    }
    if best <= tol {
        return None;
    }
    let (ia, ib, ja, jb) = (bi >> 1, bi & 1, bj >> 1, bj & 1);
    // b = the 2x2 block containing the max element (scaled).
    let mut b = CMat::zeros(2, 2);
    for r in 0..2 {
        for c in 0..2 {
            b[(r, c)] = g[(ia * 2 + r, ja * 2 + c)];
        }
    }
    // a from cross-blocks relative to b's pivot entry.
    let pivot = b[(ib, jb)];
    let mut a = CMat::zeros(2, 2);
    for r in 0..2 {
        for c in 0..2 {
            a[(r, c)] = g[(r * 2 + ib, c * 2 + jb)] / pivot;
        }
    }
    // Normalize both to SU(2).
    let da = determinant(&a);
    let db = determinant(&b);
    if da.norm() <= tol || db.norm() <= tol {
        return None;
    }
    let sa = da.sqrt();
    let sb = db.sqrt();
    let a = a.scale(sa.inv());
    let b = b.scale(sb.inv());
    // Global phase from the pivot element.
    let recon = a.kron(&b);
    let phase = g[(bi, bj)] / recon[(bi, bj)];
    let check = recon.scale(phase);
    if !check.approx_eq(g, tol.max(1e-6)) {
        return None;
    }
    Some((phase, a, b))
}

/// Computes the KAK decomposition of a two-qubit unitary.
///
/// # Panics
///
/// Panics if `u` is not a 4x4 unitary (tolerance `1e-7`).
///
/// # Examples
///
/// ```
/// use qca_circuit::Gate;
/// use qca_synth::kak::kak_decompose;
/// use qca_num::phase::approx_eq_up_to_phase;
///
/// let kak = kak_decompose(&Gate::Cx.matrix());
/// let circ = kak.to_circuit_cx();
/// assert!(approx_eq_up_to_phase(&circ.unitary(), &Gate::Cx.matrix(), 1e-8));
/// ```
pub fn kak_decompose(u: &CMat) -> KakDecomposition {
    assert_eq!((u.rows(), u.cols()), (4, 4), "expected a 4x4 matrix");
    assert!(u.is_unitary(1e-7), "input must be unitary");
    let e = magic_basis();
    let edag = e.adjoint();
    // M in the magic basis.
    let m = &(&edag * u) * &e;
    // S = Mᵀ M is symmetric unitary; its real and imaginary parts commute.
    let s = &m.transpose() * &m;
    let n = 4;
    let mut a_re = vec![0.0; 16];
    let mut a_im = vec![0.0; 16];
    for r in 0..n {
        for c in 0..n {
            a_re[r * n + c] = s[(r, c)].re;
            a_im[r * n + c] = s[(r, c)].im;
        }
    }
    let (pvec, wa, wb) = simultaneous_diagonalize(&a_re, &a_im, n, 1e-6);
    let mut p = CMat::zeros(4, 4);
    for r in 0..4 {
        for c in 0..4 {
            p[(r, c)] = C64::real(pvec[r * n + c]);
        }
    }
    // Force det(P) = +1 (flip one column; diagonal entries are unaffected).
    if determinant(&p).re < 0.0 {
        for r in 0..4 {
            p[(r, 0)] = -p[(r, 0)];
        }
    }
    // Eigenvalues of S and their square roots.
    let mut theta: Vec<f64> = (0..4)
        .map(|j| {
            let d = C64::new(wa[j], wb[j]);
            d.arg() / 2.0
        })
        .collect();
    // K = M P Λ^{-1} is real orthogonal; fix det(K) = +1 by shifting one
    // branch angle by pi (flips the sign of that Λ entry and K column).
    let lambda_inv = CMat::diag(&theta.iter().map(|&t| C64::cis(-t)).collect::<Vec<_>>());
    let mut k = &(&m * &p) * &lambda_inv;
    if determinant(&k).re < 0.0 {
        theta[0] += std::f64::consts::PI;
        for r in 0..4 {
            k[(r, 0)] = -k[(r, 0)];
        }
    }
    debug_assert!(k.conj().approx_eq(&k, 1e-5), "K should be real");
    // U = (E K E†) (E Λ E†) (E Pᵀ E†).
    let l4 = &(&e * &k) * &edag;
    let r4 = &(&e * &p.transpose()) * &edag;
    let (lphase, left0, left1) = kron_factor(&l4, 1e-6);
    let (rphase, right0, right1) = kron_factor(&r4, 1e-6);
    // Canonical coefficients: θ_j = g + kx·xx_j + ky·yy_j + kz·zz_j where
    // xx, yy, zz are the (diagonal) magic-basis representations of the
    // interaction terms. For the basis above: xx = (1,1,-1,-1),
    // yy = (-1,1,-1,1)·? — computed symbolically once and asserted in tests.
    let xx = magic_diag(&Gate::X);
    let yy = magic_diag(&Gate::Y);
    let zz = magic_diag(&Gate::Z);
    // Solve the 4x4 linear system [1 xx yy zz] (g,kx,ky,kz)ᵀ = θ via the
    // orthogonality of the sign patterns (each column has entries ±1, and
    // the four columns are orthogonal): coef = <pattern, θ> / 4.
    let g = theta.iter().sum::<f64>() / 4.0;
    let kx = (0..4).map(|j| xx[j] * theta[j]).sum::<f64>() / 4.0;
    let ky = (0..4).map(|j| yy[j] * theta[j]).sum::<f64>() / 4.0;
    let kz = (0..4).map(|j| zz[j] * theta[j]).sum::<f64>() / 4.0;
    KakDecomposition {
        phase: lphase * rphase * C64::cis(g),
        left0,
        left1,
        right0,
        right1,
        kx,
        ky,
        kz,
    }
}

/// Diagonal of `E† (P⊗P) E` for a Pauli `P` (all entries ±1).
fn magic_diag(p: &Gate) -> [f64; 4] {
    let e = magic_basis();
    let pp = p.matrix().kron(&p.matrix());
    let d = &(&e.adjoint() * &pp) * &e;
    let mut out = [0.0; 4];
    for j in 0..4 {
        out[j] = d[(j, j)].re;
        debug_assert!(
            (d[(j, j)].re.abs() - 1.0).abs() < 1e-9 && d[(j, j)].im.abs() < 1e-9,
            "magic-basis Pauli product must be diagonal ±1"
        );
    }
    // Off-diagonals vanish by construction; spot-check in debug builds.
    debug_assert!(d[(0, 1)].norm() < 1e-9 && d[(2, 3)].norm() < 1e-9);
    out
}

impl KakDecomposition {
    /// The canonical interaction `N(kx, ky, kz)` as a matrix.
    pub fn canonical_matrix(&self) -> CMat {
        let paulis = [Gate::X, Gate::Y, Gate::Z];
        let ks = [self.kx, self.ky, self.kz];
        let mut m = CMat::identity(4);
        for (p, &k) in paulis.iter().zip(&ks) {
            let pp = p.matrix().kron(&p.matrix());
            // exp(i k PP) = cos(k) I + i sin(k) PP
            let term =
                CMat::identity(4).scale(C64::real(k.cos())) + pp.scale(C64::new(0.0, k.sin()));
            m = &term * &m;
        }
        m
    }

    /// Reconstructs the original unitary (for verification).
    pub fn to_matrix(&self) -> CMat {
        let l = self.left0.kron(&self.left1);
        let r = self.right0.kron(&self.right1);
        (&(&l * &self.canonical_matrix()) * &r).scale(self.phase)
    }

    /// Emits the three-CNOT realization (Vatan–Williams):
    /// locals, then the canonical circuit, then locals.
    ///
    /// Adjacent single-qubit gates are consolidated into single `U3`s.
    pub fn to_circuit_cx(&self) -> Circuit {
        // Fast path: a local-class unitary needs no two-qubit gate at all.
        if let Some((_, a, b)) = try_kron_factor(&self.to_matrix(), 1e-7) {
            let mut c = Circuit::new(2);
            c.push(u3_gate(&a), &[0]);
            c.push(u3_gate(&b), &[1]);
            return consolidate_1q(&c);
        }
        let mut c = Circuit::new(2);
        c.push(u3_gate(&self.right0), &[0]);
        c.push(u3_gate(&self.right1), &[1]);
        self.push_canonical_cx(&mut c);
        c.push(u3_gate(&self.left0), &[0]);
        c.push(u3_gate(&self.left1), &[1]);
        consolidate_1q(&c)
    }

    /// Emits the canonical circuit over `{CZ, SU(2)}` (3 CZ gates) — the
    /// paper's Fig. 3(c) substitution target for spin qubits.
    pub fn to_circuit_cz(&self) -> Circuit {
        Self::rewrite_cx_as_cz(&self.to_circuit_cx())
    }

    /// Like [`KakDecomposition::to_circuit_cx`] but specializes canonical
    /// classes with a trivial interaction coefficient (a multiple of `pi/2`)
    /// to a **two**-CNOT circuit; CNOT-, CZ- and iSWAP-equivalent blocks
    /// then cost 2 instead of 3 entangling gates.
    ///
    /// The paper's KAK substitution rule uses the generic three-CZ circuit,
    /// so the default [`KakDecomposition::to_circuit_cx`] stays generic;
    /// this optimized variant is offered as an extension (enable it in the
    /// adaptation via `RuleOptions::optimized_kak`).
    pub fn to_circuit_cx_optimized(&self) -> Circuit {
        if let Some((_, a, b)) = try_kron_factor(&self.to_matrix(), 1e-7) {
            let mut c = Circuit::new(2);
            c.push(u3_gate(&a), &[0]);
            c.push(u3_gate(&b), &[1]);
            return consolidate_1q(&c);
        }
        // Distance of each coefficient to the nearest multiple of pi/2.
        let tol = 1e-9;
        let ks = [self.kx, self.ky, self.kz];
        let dist = |k: f64| {
            let m = (k / FRAC_PI_2).round();
            (k - m * FRAC_PI_2).abs()
        };
        let trivial = (0..3).find(|&i| dist(ks[i]) < tol);
        let Some(i) = trivial else {
            return self.to_circuit_cx();
        };
        // Conjugate so the trivial coefficient sits in the ZZ slot:
        // H⊗H swaps XX<->ZZ; Rx(pi/2)⊗Rx(pi/2) swaps YY<->ZZ.
        let (a, b, kz_like, pre, post): (f64, f64, f64, Vec<Gate>, Vec<Gate>) = match i {
            2 => (self.kx, self.ky, self.kz, vec![], vec![]),
            0 => (self.kz, self.ky, self.kx, vec![Gate::H], vec![Gate::H]),
            _ => (
                self.kx,
                self.kz,
                self.ky,
                vec![Gate::Rx(FRAC_PI_2)],
                vec![Gate::Rx(-FRAC_PI_2)],
            ),
        };
        let m = (kz_like / FRAC_PI_2).round() as i64;
        let mut c = Circuit::new(2);
        c.push(u3_gate(&self.right0), &[0]);
        c.push(u3_gate(&self.right1), &[1]);
        for g in &pre {
            c.push(*g, &[0]);
            c.push(*g, &[1]);
        }
        // Verified two-CNOT circuit for N(a, b, 0):
        // Rx(-pi/2) q0; CX; Rx(-2a) q0, Ry(2b) q1; CX; Rx(pi/2) q0.
        c.push(Gate::Rx(-FRAC_PI_2), &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rx(-2.0 * a), &[0]);
        c.push(Gate::Ry(2.0 * b), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rx(FRAC_PI_2), &[0]);
        if m.rem_euclid(2) == 1 {
            // exp(i (pi/2) ZZ) = i Z⊗Z: absorb as local Z gates.
            c.push(Gate::Z, &[0]);
            c.push(Gate::Z, &[1]);
        }
        for g in &post {
            c.push(*g, &[0]);
            c.push(*g, &[1]);
        }
        c.push(u3_gate(&self.left0), &[0]);
        c.push(u3_gate(&self.left1), &[1]);
        consolidate_1q(&c)
    }

    /// [`KakDecomposition::to_circuit_cx_optimized`] re-expressed over
    /// `{CZ, SU(2)}`.
    pub fn to_circuit_cz_optimized(&self) -> Circuit {
        Self::rewrite_cx_as_cz(&self.to_circuit_cx_optimized())
    }

    fn rewrite_cx_as_cz(cx: &Circuit) -> Circuit {
        let mut out = Circuit::new(2);
        for instr in cx.iter() {
            if instr.gate == Gate::Cx {
                let (ctrl, tgt) = (instr.qubits[0], instr.qubits[1]);
                out.push(Gate::H, &[tgt]);
                out.push(Gate::Cz, &[ctrl, tgt]);
                out.push(Gate::H, &[tgt]);
            } else {
                out.push(instr.gate, &instr.qubits);
            }
        }
        consolidate_1q(&out)
    }

    /// Appends the verified three-CNOT canonical circuit for
    /// `N(kx, ky, kz)` (up to global phase).
    fn push_canonical_cx(&self, c: &mut Circuit) {
        let (a, b, k) = (self.kx, self.ky, self.kz);
        c.push(Gate::Rz(-FRAC_PI_2), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Ry(FRAC_PI_2 - 2.0 * b), &[0]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Ry(2.0 * a - FRAC_PI_2), &[0]);
        c.push(Gate::Rz(FRAC_PI_2 - 2.0 * k), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(FRAC_PI_2), &[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_num::phase::approx_eq_up_to_phase;
    use qca_num::random::haar_unitary;
    use rand::SeedableRng;

    fn check(u: &CMat) {
        let kak = kak_decompose(u);
        assert!(
            kak.to_matrix().approx_eq(u, 1e-6),
            "exact reconstruction failed (residual {})",
            kak.to_matrix().max_abs_diff(u)
        );
        let circ = kak.to_circuit_cx();
        assert!(
            approx_eq_up_to_phase(&circ.unitary(), u, 1e-6),
            "cx circuit mismatch"
        );
        assert!(circ.two_qubit_gate_count() <= 3);
        let cz = kak.to_circuit_cz();
        assert!(
            approx_eq_up_to_phase(&cz.unitary(), u, 1e-6),
            "cz circuit mismatch"
        );
        assert_eq!(cz.two_qubit_gate_count(), circ.two_qubit_gate_count());
        assert!(cz
            .iter()
            .all(|i| i.gate == Gate::Cz || i.gate.num_qubits() == 1));
    }

    #[test]
    fn kak_of_standard_gates() {
        // All of these are entangling: the generic path must emit 3 CZ.
        for g in [
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::ISwap,
            Gate::CPhase(0.7),
            Gate::CRot(1.3),
        ] {
            check(&g.matrix());
            assert_eq!(
                kak_decompose(&g.matrix())
                    .to_circuit_cz()
                    .two_qubit_gate_count(),
                3,
                "{g}"
            );
        }
    }

    #[test]
    fn kak_of_identity() {
        check(&CMat::identity(4));
        // Local-class fast path: no two-qubit gates at all.
        let kak = kak_decompose(&CMat::identity(4));
        assert_eq!(kak.to_circuit_cx().two_qubit_gate_count(), 0);
    }

    #[test]
    fn kak_of_local_products() {
        let a = Gate::H.matrix().kron(&Gate::Rz(0.7).matrix());
        check(&a);
        assert_eq!(kak_decompose(&a).to_circuit_cz().two_qubit_gate_count(), 0);
    }

    #[test]
    fn kak_of_random_unitaries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let u = haar_unitary(&mut rng, 4);
            check(&u);
        }
    }

    #[test]
    fn kron_factor_exact() {
        let a = Gate::Rx(0.3).matrix();
        let b = Gate::Ry(-1.1).matrix();
        let g = a.kron(&b).scale(C64::cis(0.9));
        let (phase, fa, fb) = kron_factor(&g, 1e-9);
        let recon = fa.kron(&fb).scale(phase);
        assert!(recon.approx_eq(&g, 1e-9));
        // Factors are SU(2).
        assert!((determinant(&fa) - C64::ONE).norm() < 1e-8);
        assert!((determinant(&fb) - C64::ONE).norm() < 1e-8);
    }

    #[test]
    #[should_panic]
    fn kron_factor_rejects_entangling() {
        let _ = kron_factor(&Gate::Cx.matrix(), 1e-9);
    }

    #[test]
    fn canonical_matrix_of_swap_class() {
        // SWAP has Weyl coordinates (pi/4, pi/4, pi/4).
        let kak = kak_decompose(&Gate::Swap.matrix());
        let m = kak.canonical_matrix();
        // Canonical part is locally equivalent to SWAP: |tr(M† SWAP-can)|...
        // Direct check: reconstruction already verified; here confirm the
        // interaction strengths are all pi/4-equivalent (mod pi/2 symmetry).
        for k in [kak.kx, kak.ky, kak.kz] {
            let reduced = (k / (std::f64::consts::PI / 4.0)).rem_euclid(2.0);
            assert!(
                (reduced - 1.0).abs() < 1e-6,
                "swap coefficient {k} not odd multiple of pi/4"
            );
        }
        assert!(m.is_unitary(1e-8));
    }

    #[test]
    fn optimized_synthesis_uses_two_cnots_for_trivial_z_classes() {
        // CNOT-, CZ-, CPhase-, CRot- and iSWAP-equivalent unitaries all have
        // a trivial canonical coefficient; SWAP does not.
        for (g, expect) in [
            (Gate::Cx, 2),
            (Gate::Cz, 2),
            (Gate::CPhase(0.7), 2),
            (Gate::CRot(1.3), 2),
            (Gate::ISwap, 2),
            (Gate::Swap, 3),
        ] {
            let kak = kak_decompose(&g.matrix());
            let circ = kak.to_circuit_cx_optimized();
            assert!(
                approx_eq_up_to_phase(&circ.unitary(), &g.matrix(), 1e-7),
                "{g} optimized circuit wrong"
            );
            assert_eq!(circ.two_qubit_gate_count(), expect, "{g}");
            let cz = kak.to_circuit_cz_optimized();
            assert!(approx_eq_up_to_phase(&cz.unitary(), &g.matrix(), 1e-7));
            assert_eq!(cz.two_qubit_gate_count(), expect, "{g} cz");
        }
    }

    #[test]
    fn optimized_synthesis_correct_on_random_xx_yy_classes() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..25 {
            // Random local dressings of N(a, b, 0)-class unitaries with the
            // trivial coefficient in a random slot.
            let a: f64 = rng.gen_range(-3.0..3.0);
            let b: f64 = rng.gen_range(-3.0..3.0);
            let mut c = Circuit::new(2);
            c.push(crate::euler::u3_gate(&haar_unitary(&mut rng, 2)), &[0]);
            c.push(crate::euler::u3_gate(&haar_unitary(&mut rng, 2)), &[1]);
            // interaction exp(i a XX) exp(i b YY) built from its own kak
            let slot = rng.gen_range(0..3);
            let kak0 = KakDecomposition {
                phase: C64::ONE,
                left0: CMat::identity(2),
                left1: CMat::identity(2),
                right0: CMat::identity(2),
                right1: CMat::identity(2),
                kx: if slot == 0 { 0.0 } else { a },
                ky: if slot == 1 { 0.0 } else { b },
                kz: if slot == 2 {
                    0.0
                } else if slot == 0 {
                    b
                } else {
                    a
                },
            };
            let m = kak0.canonical_matrix();
            let interaction = kak_decompose(&m).to_circuit_cx();
            c.extend_from(&interaction);
            c.push(crate::euler::u3_gate(&haar_unitary(&mut rng, 2)), &[0]);
            c.push(crate::euler::u3_gate(&haar_unitary(&mut rng, 2)), &[1]);
            let u = c.unitary();
            let opt = kak_decompose(&u).to_circuit_cx_optimized();
            assert!(
                approx_eq_up_to_phase(&opt.unitary(), &u, 1e-6),
                "slot {slot} wrong"
            );
            assert!(
                opt.two_qubit_gate_count() <= 2,
                "slot {slot} not specialized"
            );
        }
    }

    #[test]
    fn optimized_matches_generic_on_generic_unitaries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..10 {
            let u = haar_unitary(&mut rng, 4);
            let kak = kak_decompose(&u);
            let opt = kak.to_circuit_cx_optimized();
            assert!(approx_eq_up_to_phase(&opt.unitary(), &u, 1e-6));
            assert_eq!(opt.two_qubit_gate_count(), 3, "Haar unitaries are generic");
        }
    }

    #[test]
    fn cz_circuit_single_qubit_gates_are_consolidated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let u = haar_unitary(&mut rng, 4);
        let cz = kak_decompose(&u).to_circuit_cz();
        // After consolidation, no two adjacent 1q gates on the same qubit.
        let mut last_1q: Vec<Option<usize>> = vec![None; 2];
        for (i, instr) in cz.iter().enumerate() {
            if instr.gate.num_qubits() == 1 {
                let q = instr.qubits[0];
                assert_ne!(
                    last_1q[q],
                    Some(i.wrapping_sub(1)),
                    "adjacent 1q gates on qubit {q}"
                );
                last_1q[q] = Some(i);
            }
        }
        // At most 4 single-qubit "layers" around 3 CZs: <= 8 1q gates.
        let two_q = cz.two_qubit_gate_count();
        let one_q = cz.len() - two_q;
        assert_eq!(two_q, 3);
        assert!(one_q <= 8, "too many 1q gates: {one_q}");
    }
}
