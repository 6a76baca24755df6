//! Haar-random unitary sampling.
//!
//! Quantum-volume circuits [Cross et al., PRA 100, 032328 (2019)] are built
//! from Haar-random two-qubit unitaries. A Haar sample is obtained by QR
//! decomposition of a complex Ginibre matrix with the phase-of-diagonal
//! correction of Mezzadri (2007).

use crate::complex::C64;
use crate::mat::CMat;
use crate::qr::qr_decompose;
use rand::Rng;

/// Samples a standard normal variate via the Box–Muller transform.
fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Samples an `n x n` complex Ginibre matrix (i.i.d. standard complex
/// normal entries).
pub fn ginibre<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CMat {
    let mut m = CMat::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            m[(r, c)] = C64::new(std_normal(rng), std_normal(rng));
        }
    }
    m
}

/// Samples a Haar-random unitary from `U(n)`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let u = qca_num::random::haar_unitary(&mut rng, 4);
/// assert!(u.is_unitary(1e-9));
/// ```
pub fn haar_unitary<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CMat {
    let g = ginibre(rng, n);
    let f = qr_decompose(&g);
    // Fix the phase ambiguity: Q -> Q * diag(r_ii / |r_ii|) gives Haar measure.
    let mut q = f.q;
    for j in 0..n {
        let d = f.r[(j, j)];
        let phase = if d.norm() > 1e-300 {
            d / d.norm()
        } else {
            C64::ONE
        };
        for r in 0..n {
            q[(r, j)] *= phase;
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn haar_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [2, 4, 8] {
            let u = haar_unitary(&mut rng, n);
            assert!(u.is_unitary(1e-9), "n={n}");
        }
    }

    #[test]
    fn samples_are_seed_deterministic() {
        let a = haar_unitary(&mut StdRng::seed_from_u64(99), 4);
        let b = haar_unitary(&mut StdRng::seed_from_u64(99), 4);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn distinct_seeds_give_distinct_unitaries() {
        let a = haar_unitary(&mut StdRng::seed_from_u64(1), 2);
        let b = haar_unitary(&mut StdRng::seed_from_u64(2), 2);
        assert!(a.max_abs_diff(&b) > 1e-3);
    }

    #[test]
    fn first_moment_roughly_uniform() {
        // E[|u_00|^2] = 1/n for Haar measure; sample average should approach it.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4;
        let trials = 200;
        let mut acc = 0.0;
        for _ in 0..trials {
            let u = haar_unitary(&mut rng, n);
            acc += u[(0, 0)].norm_sqr();
        }
        let mean = acc / trials as f64;
        assert!((mean - 1.0 / n as f64).abs() < 0.05, "mean={mean}");
    }
}
