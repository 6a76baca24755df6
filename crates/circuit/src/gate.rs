//! The gate library.
//!
//! [`Gate`] covers the abstract gates used by IBM-basis circuits (CX, RZ, SX,
//! X, U3, ...) and the hardware-native realizations of the semiconducting
//! spin-qubit modality of the paper: CZ, diabatic CZ, conditional rotation
//! (CROT, modeled as a controlled X-rotation), and the two swap realizations
//! SWAP_d (diabatic) and SWAP_c (composite pulse). Realization variants share
//! a unitary with their abstract counterpart but are distinct gates so cost
//! models can price them differently.
//!
//! Qubit-ordering convention: the first operand is the most significant bit
//! of the basis index (big-endian), matching
//! [`CMat::embed_qubits`](qca_num::CMat::embed_qubits).

use qca_num::{CMat, C64};
use std::fmt;

/// A quantum gate, possibly parameterized by rotation angles (radians).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = sqrt(Z).
    S,
    /// Inverse phase gate.
    Sdg,
    /// T = sqrt(S).
    T,
    /// Inverse T.
    Tdg,
    /// Square root of X.
    Sx,
    /// Rotation about X by the angle.
    Rx(f64),
    /// Rotation about Y by the angle.
    Ry(f64),
    /// Rotation about Z by the angle.
    Rz(f64),
    /// Diagonal phase gate `diag(1, e^{i a})` (a.k.a. u1 / p).
    Phase(f64),
    /// General single-qubit gate `U3(theta, phi, lambda)`.
    U3(f64, f64, f64),
    /// Controlled-NOT (control first).
    Cx,
    /// Controlled-Z.
    Cz,
    /// Diabatic controlled-Z realization (same unitary as [`Gate::Cz`]).
    CzDiabatic,
    /// Controlled phase `diag(1,1,1,e^{i a})`.
    CPhase(f64),
    /// Conditional rotation: controlled X-rotation of the target
    /// (the spin-qubit CROT; `CRot(pi)` equals CNOT up to single-qubit
    /// phases).
    CRot(f64),
    /// Swap.
    Swap,
    /// Diabatic swap realization (same unitary as [`Gate::Swap`]).
    SwapDiabatic,
    /// Composite-pulse swap realization (same unitary as [`Gate::Swap`]).
    SwapComposite,
    /// iSWAP.
    ISwap,
    /// Inverse of iSWAP.
    ISwapDg,
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U3(..) => 1,
            _ => 2,
        }
    }

    /// `true` for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        self.num_qubits() == 2
    }

    /// `true` when the gate's unitary is invariant under swapping its two
    /// operands (always `false` for single-qubit gates).
    pub fn is_symmetric(&self) -> bool {
        matches!(
            self,
            Gate::Cz
                | Gate::CzDiabatic
                | Gate::CPhase(_)
                | Gate::Swap
                | Gate::SwapDiabatic
                | Gate::SwapComposite
                | Gate::ISwap
                | Gate::ISwapDg
        )
    }

    /// The canonical lowercase mnemonic (OpenQASM-style).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::U3(..) => "u3",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::CzDiabatic => "cz_db",
            Gate::CPhase(_) => "cp",
            Gate::CRot(_) => "crot",
            Gate::Swap => "swap",
            Gate::SwapDiabatic => "swap_d",
            Gate::SwapComposite => "swap_c",
            Gate::ISwap => "iswap",
            Gate::ISwapDg => "iswapdg",
        }
    }

    /// Rotation parameters, if any.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::Rx(a)
            | Gate::Ry(a)
            | Gate::Rz(a)
            | Gate::Phase(a)
            | Gate::CPhase(a)
            | Gate::CRot(a) => vec![a],
            Gate::U3(a, b, c) => vec![a, b, c],
            _ => Vec::new(),
        }
    }

    /// The gate's unitary matrix (2x2 or 4x4, big-endian operand order).
    pub fn matrix(&self) -> CMat {
        let z = C64::ZERO;
        let o = C64::ONE;
        let i = C64::I;
        match *self {
            Gate::I => CMat::identity(2),
            Gate::X => CMat::from_rows(2, 2, &[z, o, o, z]),
            Gate::Y => CMat::from_rows(2, 2, &[z, -i, i, z]),
            Gate::Z => CMat::from_rows(2, 2, &[o, z, z, -o]),
            Gate::H => {
                let s = C64::real(1.0 / 2.0_f64.sqrt());
                CMat::from_rows(2, 2, &[s, s, s, -s])
            }
            Gate::S => CMat::from_rows(2, 2, &[o, z, z, i]),
            Gate::Sdg => CMat::from_rows(2, 2, &[o, z, z, -i]),
            Gate::T => CMat::from_rows(2, 2, &[o, z, z, C64::cis(std::f64::consts::FRAC_PI_4)]),
            Gate::Tdg => CMat::from_rows(2, 2, &[o, z, z, C64::cis(-std::f64::consts::FRAC_PI_4)]),
            Gate::Sx => {
                let a = C64::new(0.5, 0.5);
                let b = C64::new(0.5, -0.5);
                CMat::from_rows(2, 2, &[a, b, b, a])
            }
            Gate::Rx(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                CMat::from_rows(2, 2, &[c, s, s, c])
            }
            Gate::Ry(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::real((t / 2.0).sin());
                CMat::from_rows(2, 2, &[c, -s, s, c])
            }
            Gate::Rz(t) => CMat::from_rows(2, 2, &[C64::cis(-t / 2.0), z, z, C64::cis(t / 2.0)]),
            Gate::Phase(t) => CMat::from_rows(2, 2, &[o, z, z, C64::cis(t)]),
            Gate::U3(t, p, l) => {
                let ct = C64::real((t / 2.0).cos());
                let st = C64::real((t / 2.0).sin());
                CMat::from_rows(
                    2,
                    2,
                    &[
                        ct,
                        -(C64::cis(l) * st),
                        C64::cis(p) * st,
                        C64::cis(p + l) * ct,
                    ],
                )
            }
            Gate::Cx => CMat::from_real(
                4,
                4,
                &[
                    1.0, 0.0, 0.0, 0.0, //
                    0.0, 1.0, 0.0, 0.0, //
                    0.0, 0.0, 0.0, 1.0, //
                    0.0, 0.0, 1.0, 0.0,
                ],
            ),
            Gate::Cz | Gate::CzDiabatic => CMat::diag(&[o, o, o, -o]),
            Gate::CPhase(t) => CMat::diag(&[o, o, o, C64::cis(t)]),
            Gate::CRot(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                CMat::from_rows(
                    4,
                    4,
                    &[
                        o, z, z, z, //
                        z, o, z, z, //
                        z, z, c, s, //
                        z, z, s, c,
                    ],
                )
            }
            Gate::Swap | Gate::SwapDiabatic | Gate::SwapComposite => CMat::from_real(
                4,
                4,
                &[
                    1.0, 0.0, 0.0, 0.0, //
                    0.0, 0.0, 1.0, 0.0, //
                    0.0, 1.0, 0.0, 0.0, //
                    0.0, 0.0, 0.0, 1.0,
                ],
            ),
            Gate::ISwap => CMat::from_rows(
                4,
                4,
                &[
                    o, z, z, z, //
                    z, z, i, z, //
                    z, i, z, z, //
                    z, z, z, o,
                ],
            ),
            Gate::ISwapDg => CMat::from_rows(
                4,
                4,
                &[
                    o, z, z, z, //
                    z, z, -i, z, //
                    z, -i, z, z, //
                    z, z, z, o,
                ],
            ),
        }
    }

    /// The inverse gate.
    pub fn dagger(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Rx(-std::f64::consts::FRAC_PI_2), // up to phase
            Gate::Rx(a) => Gate::Rx(-a),
            Gate::Ry(a) => Gate::Ry(-a),
            Gate::Rz(a) => Gate::Rz(-a),
            Gate::Phase(a) => Gate::Phase(-a),
            Gate::U3(t, p, l) => Gate::U3(-t, -l, -p),
            Gate::CPhase(a) => Gate::CPhase(-a),
            Gate::CRot(a) => Gate::CRot(-a),
            Gate::ISwap => Gate::ISwapDg,
            Gate::ISwapDg => Gate::ISwap,
            g => g, // self-inverse or realization variants
        }
    }

    /// The abstract gate underlying a realization variant (identity for
    /// everything else).
    pub fn canonical(&self) -> Gate {
        match self {
            Gate::CzDiabatic => Gate::Cz,
            Gate::SwapDiabatic | Gate::SwapComposite => Gate::Swap,
            g => *g,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.params();
        if ps.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined: Vec<String> = ps.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), joined.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_num::phase::approx_eq_up_to_phase;
    use std::f64::consts::PI;

    #[test]
    fn all_gates_are_unitary() {
        let gates = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Rx(0.3),
            Gate::Ry(1.2),
            Gate::Rz(-0.7),
            Gate::Phase(0.9),
            Gate::U3(0.5, 1.0, -0.4),
            Gate::Cx,
            Gate::Cz,
            Gate::CzDiabatic,
            Gate::CPhase(0.6),
            Gate::CRot(1.1),
            Gate::Swap,
            Gate::SwapDiabatic,
            Gate::SwapComposite,
            Gate::ISwap,
        ];
        for g in gates {
            assert!(g.matrix().is_unitary(1e-12), "{g} not unitary");
            assert_eq!(g.matrix().rows(), 1 << g.num_qubits());
        }
    }

    #[test]
    fn dagger_inverts() {
        let gates = [
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rx(0.3),
            Gate::Ry(1.2),
            Gate::Rz(-0.7),
            Gate::U3(0.5, 1.0, -0.4),
            Gate::CPhase(0.6),
            Gate::CRot(1.1),
            Gate::Cx,
            Gate::Swap,
            Gate::ISwap,
        ];
        for g in gates {
            let prod = &g.matrix() * &g.dagger().matrix();
            assert!(
                approx_eq_up_to_phase(&prod, &CMat::identity(prod.rows()), 1e-10),
                "{g} dagger fails"
            );
        }
    }

    #[test]
    fn crot_pi_is_cnot_up_to_phase_on_target_block() {
        // CROT(pi): lower 2x2 block is -iX; CX differs only by that phase on
        // the control=1 subspace, so they agree up to *local* corrections but
        // not a single global phase. Verify block structure instead.
        let m = Gate::CRot(PI).matrix();
        assert!(m[(0, 0)].approx_eq(C64::ONE, 1e-12));
        assert!(m[(2, 3)].approx_eq(-C64::I, 1e-12));
        assert!(m[(3, 2)].approx_eq(-C64::I, 1e-12));
        assert!(m[(2, 2)].norm() < 1e-12);
    }

    #[test]
    fn cphase_pi_is_cz() {
        assert!(approx_eq_up_to_phase(
            &Gate::CPhase(PI).matrix(),
            &Gate::Cz.matrix(),
            1e-12
        ));
    }

    #[test]
    fn realization_variants_share_unitary() {
        assert!(Gate::CzDiabatic.matrix().approx_eq(&Gate::Cz.matrix(), 0.0));
        assert!(Gate::SwapDiabatic
            .matrix()
            .approx_eq(&Gate::Swap.matrix(), 0.0));
        assert!(Gate::SwapComposite
            .matrix()
            .approx_eq(&Gate::Swap.matrix(), 0.0));
        assert_eq!(Gate::SwapDiabatic.canonical(), Gate::Swap);
    }

    #[test]
    fn u3_specializations() {
        // U3(0,0,l) = Phase(l) up to global phase
        assert!(approx_eq_up_to_phase(
            &Gate::U3(0.0, 0.0, 0.8).matrix(),
            &Gate::Phase(0.8).matrix(),
            1e-12
        ));
        // U3(pi/2, 0, pi) = H
        assert!(approx_eq_up_to_phase(
            &Gate::U3(PI / 2.0, 0.0, PI).matrix(),
            &Gate::H.matrix(),
            1e-12
        ));
        // U3(t, -pi/2, pi/2) = Rx(t)
        assert!(approx_eq_up_to_phase(
            &Gate::U3(0.7, -PI / 2.0, PI / 2.0).matrix(),
            &Gate::Rx(0.7).matrix(),
            1e-12
        ));
    }

    #[test]
    fn hzh_is_x() {
        let h = Gate::H.matrix();
        let z = Gate::Z.matrix();
        let hzh = &(&h * &z) * &h;
        assert!(approx_eq_up_to_phase(&hzh, &Gate::X.matrix(), 1e-12));
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::Sx.matrix();
        assert!(approx_eq_up_to_phase(
            &(&sx * &sx),
            &Gate::X.matrix(),
            1e-12
        ));
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::Cx.to_string(), "cx");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
    }
}
