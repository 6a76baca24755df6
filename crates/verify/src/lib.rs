//! # qca-verify
//!
//! Independent, trust-but-verify certification for the adaptation stack:
//!
//! * [`drat`] — a reverse-unit-propagation (RUP) checker for the DRAT proofs
//!   emitted by `qca_sat::Solver`, sharing no propagation code with the
//!   solver;
//! * [`model`] — replays every recorded `qca_smt` constraint against a
//!   returned model and validates OMT optimality certificates;
//! * [`adaptation`] — audits end-to-end adaptation results: unitary
//!   equivalence with the source circuit, hardware-native gate usage, and
//!   objective-value consistency with the hardware gate tables.
//!
//! The crate exists so a soundness bug anywhere in the hand-rolled
//! CDCL/OMT/encoding pipeline surfaces as a loud audit failure instead of a
//! quietly wrong number.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptation;
pub mod drat;
pub mod model;

pub use adaptation::{
    audit_adaptation, audit_adaptation_with_coupling, audit_baseline, audit_baseline_with_coupling,
    AdaptationAuditError, AdaptationAuditStats,
};
pub use drat::{check_drat, DratError, DratStats};
pub use model::{
    audit_model, check_certificate, check_reconstruction, ModelAuditError, ReconstructionError,
};
