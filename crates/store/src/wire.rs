//! Binary codec for the on-disk record payloads.
//!
//! Encodes the full [`Adaptation`] tree — circuits, chosen substitutions
//! (including SWAP-insertion routes), solver statistics, and the optional
//! verification data (audit bundle + optimality certificate) — into a
//! self-contained little-endian byte string, and decodes it back
//! **bit-identically**: floating-point fields travel as their IEEE-754 bit
//! patterns, so a decoded adaptation compares equal to the original down to
//! the sign of zero.
//!
//! The format is deliberately dumb: fixed-width little-endian integers,
//! length-prefixed sequences, one tag byte per enum variant. No
//! self-description, no varints, no alignment games — corruption detection
//! is the *frame* checksum's job (see [`crate::wal`]), and schema evolution
//! is the frame version's job. Decoders never panic on malformed input;
//! every failure surfaces as a [`WireError`].

use qca_adapt::{
    Adaptation, Route, SmtAdaptation, Substitution, SubstitutionKind, VerificationData,
};
use qca_circuit::{Circuit, Gate};
use qca_sat::dimacs::Cnf;
use qca_sat::proof::ProofStep;
use qca_sat::{Lit, SolverStats};
use qca_smt::omt::OptimalityCertificate;
use qca_smt::record::{AuditBundle, RecordedConstraint};
use qca_smt::{IntExpr, SmtModel};
use std::sync::Arc;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset the decoder had reached.
    pub offset: usize,
    /// What went wrong there.
    pub reason: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte buffer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc {
            buf: Vec::with_capacity(256),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern: exact round-trip, `NaN` payloads included.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Sequence length prefix (`u32`: two billion elements is corruption,
    /// not data).
    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Cursor-based decoder over a byte slice.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DResult<T> = Result<T, WireError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn fail<T>(&self, reason: &'static str) -> DResult<T> {
        Err(WireError {
            offset: self.pos,
            reason,
        })
    }

    fn take(&mut self, n: usize) -> DResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self.fail("truncated payload");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> DResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> DResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> DResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| self.fail("usize overflow"))
    }

    /// Sequence length, sanity-bounded by the bytes actually remaining so a
    /// corrupt length cannot trigger a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> DResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() - self.pos {
            return self.fail("length prefix exceeds payload");
        }
        Ok(n)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------- gates

/// One tag byte per variant; parameterized gates append their angles.
fn enc_gate(e: &mut Enc, g: &Gate) {
    match g {
        Gate::I => e.u8(0),
        Gate::X => e.u8(1),
        Gate::Y => e.u8(2),
        Gate::Z => e.u8(3),
        Gate::H => e.u8(4),
        Gate::S => e.u8(5),
        Gate::Sdg => e.u8(6),
        Gate::T => e.u8(7),
        Gate::Tdg => e.u8(8),
        Gate::Sx => e.u8(9),
        Gate::Rx(a) => {
            e.u8(10);
            e.f64(*a);
        }
        Gate::Ry(a) => {
            e.u8(11);
            e.f64(*a);
        }
        Gate::Rz(a) => {
            e.u8(12);
            e.f64(*a);
        }
        Gate::Phase(a) => {
            e.u8(13);
            e.f64(*a);
        }
        Gate::U3(t, p, l) => {
            e.u8(14);
            e.f64(*t);
            e.f64(*p);
            e.f64(*l);
        }
        Gate::Cx => e.u8(15),
        Gate::Cz => e.u8(16),
        Gate::CzDiabatic => e.u8(17),
        Gate::CPhase(a) => {
            e.u8(18);
            e.f64(*a);
        }
        Gate::CRot(a) => {
            e.u8(19);
            e.f64(*a);
        }
        Gate::Swap => e.u8(20),
        Gate::SwapDiabatic => e.u8(21),
        Gate::SwapComposite => e.u8(22),
        Gate::ISwap => e.u8(23),
        Gate::ISwapDg => e.u8(24),
    }
}

fn dec_gate(d: &mut Dec) -> DResult<Gate> {
    Ok(match d.u8()? {
        0 => Gate::I,
        1 => Gate::X,
        2 => Gate::Y,
        3 => Gate::Z,
        4 => Gate::H,
        5 => Gate::S,
        6 => Gate::Sdg,
        7 => Gate::T,
        8 => Gate::Tdg,
        9 => Gate::Sx,
        10 => Gate::Rx(d.f64()?),
        11 => Gate::Ry(d.f64()?),
        12 => Gate::Rz(d.f64()?),
        13 => Gate::Phase(d.f64()?),
        14 => Gate::U3(d.f64()?, d.f64()?, d.f64()?),
        15 => Gate::Cx,
        16 => Gate::Cz,
        17 => Gate::CzDiabatic,
        18 => Gate::CPhase(d.f64()?),
        19 => Gate::CRot(d.f64()?),
        20 => Gate::Swap,
        21 => Gate::SwapDiabatic,
        22 => Gate::SwapComposite,
        23 => Gate::ISwap,
        24 => Gate::ISwapDg,
        _ => return d.fail("unknown gate tag"),
    })
}

// ------------------------------------------------------------- circuits

fn enc_circuit(e: &mut Enc, c: &Circuit) {
    e.usize(c.num_qubits());
    e.len(c.len());
    for instr in c.instrs() {
        enc_gate(e, &instr.gate);
        e.len(instr.qubits.len());
        for &q in &instr.qubits {
            e.usize(q);
        }
    }
}

fn dec_circuit(d: &mut Dec) -> DResult<Circuit> {
    let num_qubits = d.usize()?;
    let n = d.len(1)?;
    let mut c = Circuit::new(num_qubits);
    for _ in 0..n {
        let gate = dec_gate(d)?;
        let nq = d.len(8)?;
        let mut qubits = Vec::with_capacity(nq);
        for _ in 0..nq {
            let q = d.usize()?;
            if q >= num_qubits {
                return d.fail("qubit index out of range");
            }
            qubits.push(q);
        }
        if qubits.len() != gate.num_qubits() {
            return d.fail("operand count does not match gate arity");
        }
        if qubits.len() == 2 && qubits[0] == qubits[1] {
            return d.fail("two-qubit gate on identical qubits");
        }
        c.push(gate, &qubits);
    }
    Ok(c)
}

// ------------------------------------------------------- SAT-level types

fn enc_lit(e: &mut Enc, l: Lit) {
    e.u32(l.code() as u32);
}

fn dec_lit(d: &mut Dec) -> DResult<Lit> {
    Ok(Lit::from_code(d.u32()? as usize))
}

fn enc_lits(e: &mut Enc, lits: &[Lit]) {
    e.len(lits.len());
    for &l in lits {
        enc_lit(e, l);
    }
}

fn dec_lits(d: &mut Dec) -> DResult<Vec<Lit>> {
    let n = d.len(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_lit(d)?);
    }
    Ok(out)
}

fn enc_cnf(e: &mut Enc, cnf: &Cnf) {
    e.usize(cnf.num_vars);
    e.len(cnf.clauses.len());
    for clause in &cnf.clauses {
        enc_lits(e, clause);
    }
}

fn dec_cnf(d: &mut Dec) -> DResult<Cnf> {
    let num_vars = d.usize()?;
    let n = d.len(4)?;
    let mut clauses = Vec::with_capacity(n);
    for _ in 0..n {
        clauses.push(dec_lits(d)?);
    }
    Ok(Cnf { num_vars, clauses })
}

fn enc_solver_stats(e: &mut Enc, s: &SolverStats) {
    e.u64(s.decisions);
    e.u64(s.propagations);
    e.u64(s.conflicts);
    e.u64(s.restarts);
    e.u64(s.learnt_clauses);
    e.u64(s.deleted_clauses);
    e.u64(s.minimized_literals);
}

fn dec_solver_stats(d: &mut Dec) -> DResult<SolverStats> {
    Ok(SolverStats {
        decisions: d.u64()?,
        propagations: d.u64()?,
        conflicts: d.u64()?,
        restarts: d.u64()?,
        learnt_clauses: d.u64()?,
        deleted_clauses: d.u64()?,
        minimized_literals: d.u64()?,
    })
}

fn enc_proof_step(e: &mut Enc, step: &ProofStep) {
    match step {
        ProofStep::Add(lits) => {
            e.u8(0);
            enc_lits(e, lits);
        }
        ProofStep::Delete(lits) => {
            e.u8(1);
            enc_lits(e, lits);
        }
    }
}

fn dec_proof_step(d: &mut Dec) -> DResult<ProofStep> {
    Ok(match d.u8()? {
        0 => ProofStep::Add(dec_lits(d)?),
        1 => ProofStep::Delete(dec_lits(d)?),
        _ => return d.fail("unknown proof step tag"),
    })
}

// ------------------------------------------------------- SMT-level types

fn enc_int_expr(e: &mut Enc, x: &IntExpr) {
    enc_lits(e, x.bits());
    e.i64(x.offset());
    e.i64(x.lo);
    e.i64(x.hi);
}

fn dec_int_expr(d: &mut Dec) -> DResult<IntExpr> {
    let bits = dec_lits(d)?;
    let offset = d.i64()?;
    let lo = d.i64()?;
    let hi = d.i64()?;
    Ok(IntExpr::from_parts(bits, offset, lo, hi))
}

fn enc_model(e: &mut Enc, m: &SmtModel) {
    let values = m.values();
    e.len(values.len());
    for v in values {
        e.u8(match v {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
}

fn dec_model(d: &mut Dec) -> DResult<SmtModel> {
    let n = d.len(1)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(match d.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return d.fail("unknown model value tag"),
        });
    }
    Ok(SmtModel::from_raw_values(values))
}

fn enc_constraint(e: &mut Enc, c: &RecordedConstraint) {
    match c {
        RecordedConstraint::Clause(lits) => {
            e.u8(0);
            enc_lits(e, lits);
        }
        RecordedConstraint::IntVar { out } => {
            e.u8(1);
            enc_int_expr(e, out);
        }
        RecordedConstraint::Add { out, a, b } => {
            e.u8(2);
            enc_int_expr(e, out);
            enc_int_expr(e, a);
            enc_int_expr(e, b);
        }
        RecordedConstraint::PbSum { out, base, terms } => {
            e.u8(3);
            enc_int_expr(e, out);
            e.i64(*base);
            e.len(terms.len());
            for (w, l) in terms {
                e.i64(*w);
                enc_lit(e, *l);
            }
        }
        RecordedConstraint::MulConst { out, a, k } => {
            e.u8(4);
            enc_int_expr(e, out);
            enc_int_expr(e, a);
            e.i64(*k);
        }
        RecordedConstraint::SubFromConst { out, c, e: expr } => {
            e.u8(5);
            enc_int_expr(e, out);
            e.i64(*c);
            enc_int_expr(e, expr);
        }
        RecordedConstraint::Ge { a, b } => {
            e.u8(6);
            enc_int_expr(e, a);
            enc_int_expr(e, b);
        }
        RecordedConstraint::GeReified { lit, a, b } => {
            e.u8(7);
            enc_lit(e, *lit);
            enc_int_expr(e, a);
            enc_int_expr(e, b);
        }
        RecordedConstraint::Ite { out, cond, a, b } => {
            e.u8(8);
            enc_int_expr(e, out);
            enc_lit(e, *cond);
            enc_int_expr(e, a);
            enc_int_expr(e, b);
        }
        RecordedConstraint::MaxOf { out, exprs } => {
            e.u8(9);
            enc_int_expr(e, out);
            e.len(exprs.len());
            for x in exprs {
                enc_int_expr(e, x);
            }
        }
    }
}

fn dec_constraint(d: &mut Dec) -> DResult<RecordedConstraint> {
    Ok(match d.u8()? {
        0 => RecordedConstraint::Clause(dec_lits(d)?),
        1 => RecordedConstraint::IntVar {
            out: dec_int_expr(d)?,
        },
        2 => RecordedConstraint::Add {
            out: dec_int_expr(d)?,
            a: dec_int_expr(d)?,
            b: dec_int_expr(d)?,
        },
        3 => {
            let out = dec_int_expr(d)?;
            let base = d.i64()?;
            let n = d.len(12)?;
            let mut terms = Vec::with_capacity(n);
            for _ in 0..n {
                let w = d.i64()?;
                terms.push((w, dec_lit(d)?));
            }
            RecordedConstraint::PbSum { out, base, terms }
        }
        4 => RecordedConstraint::MulConst {
            out: dec_int_expr(d)?,
            a: dec_int_expr(d)?,
            k: d.i64()?,
        },
        5 => RecordedConstraint::SubFromConst {
            out: dec_int_expr(d)?,
            c: d.i64()?,
            e: dec_int_expr(d)?,
        },
        6 => RecordedConstraint::Ge {
            a: dec_int_expr(d)?,
            b: dec_int_expr(d)?,
        },
        7 => RecordedConstraint::GeReified {
            lit: dec_lit(d)?,
            a: dec_int_expr(d)?,
            b: dec_int_expr(d)?,
        },
        8 => RecordedConstraint::Ite {
            out: dec_int_expr(d)?,
            cond: dec_lit(d)?,
            a: dec_int_expr(d)?,
            b: dec_int_expr(d)?,
        },
        9 => {
            let out = dec_int_expr(d)?;
            let n = d.len(28)?;
            let mut exprs = Vec::with_capacity(n);
            for _ in 0..n {
                exprs.push(dec_int_expr(d)?);
            }
            RecordedConstraint::MaxOf { out, exprs }
        }
        _ => return d.fail("unknown constraint tag"),
    })
}

/// The formula a certificate shares with its bundle is written once.
fn enc_verification(e: &mut Enc, v: &VerificationData) {
    e.len(v.bundle.constraints.len());
    for c in &v.bundle.constraints {
        enc_constraint(e, c);
    }
    enc_cnf(e, &v.bundle.cnf);
    enc_model(e, &v.bundle.model);
    match &v.certificate {
        None => e.u8(0),
        Some(cert) => {
            e.u8(1);
            enc_lit(e, cert.refuted);
            e.len(cert.steps.len());
            for s in &cert.steps {
                enc_proof_step(e, s);
            }
            e.i64(cert.refuted_bound);
        }
    }
}

fn dec_verification(d: &mut Dec) -> DResult<VerificationData> {
    let n = d.len(1)?;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        constraints.push(dec_constraint(d)?);
    }
    let cnf = Arc::new(dec_cnf(d)?);
    let model = dec_model(d)?;
    let certificate = match d.u8()? {
        0 => None,
        1 => {
            let refuted = dec_lit(d)?;
            let n = d.len(5)?;
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(dec_proof_step(d)?);
            }
            let refuted_bound = d.i64()?;
            Some(OptimalityCertificate {
                cnf: Arc::clone(&cnf),
                refuted,
                steps,
                refuted_bound,
            })
        }
        _ => return d.fail("unknown certificate tag"),
    };
    Ok(VerificationData {
        bundle: AuditBundle {
            constraints,
            cnf,
            model,
        },
        certificate,
    })
}

// ------------------------------------------------------------ adaptation

fn enc_substitution_kind(e: &mut Enc, k: SubstitutionKind) {
    e.u8(match k {
        SubstitutionKind::KakCz => 0,
        SubstitutionKind::KakCzDiabatic => 1,
        SubstitutionKind::ConditionalRotation => 2,
        SubstitutionKind::SwapDiabatic => 3,
        SubstitutionKind::SwapComposite => 4,
        SubstitutionKind::RouteSwapDiabatic => 5,
        SubstitutionKind::RouteSwapComposite => 6,
    });
}

fn dec_substitution_kind(d: &mut Dec) -> DResult<SubstitutionKind> {
    Ok(match d.u8()? {
        0 => SubstitutionKind::KakCz,
        1 => SubstitutionKind::KakCzDiabatic,
        2 => SubstitutionKind::ConditionalRotation,
        3 => SubstitutionKind::SwapDiabatic,
        4 => SubstitutionKind::SwapComposite,
        5 => SubstitutionKind::RouteSwapDiabatic,
        6 => SubstitutionKind::RouteSwapComposite,
        _ => return d.fail("unknown substitution kind tag"),
    })
}

fn enc_substitution(e: &mut Enc, s: &Substitution) {
    e.usize(s.id);
    enc_substitution_kind(e, s.kind);
    e.usize(s.block);
    e.len(s.ops.len());
    for &op in &s.ops {
        e.usize(op);
    }
    enc_circuit(e, &s.replacement);
    match &s.route {
        None => e.u8(0),
        Some(route) => {
            e.u8(1);
            e.len(route.path.len());
            for &q in &route.path {
                e.usize(q);
            }
            enc_gate(e, &route.gate);
        }
    }
    e.f64(s.delta_duration);
    e.f64(s.delta_log_fidelity);
}

fn dec_substitution(d: &mut Dec) -> DResult<Substitution> {
    let id = d.usize()?;
    let kind = dec_substitution_kind(d)?;
    let block = d.usize()?;
    let n = d.len(8)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(d.usize()?);
    }
    let replacement = dec_circuit(d)?;
    let route = match d.u8()? {
        0 => None,
        1 => {
            let n = d.len(8)?;
            let mut path = Vec::with_capacity(n);
            for _ in 0..n {
                path.push(d.usize()?);
            }
            let gate = dec_gate(d)?;
            Some(Route { path, gate })
        }
        _ => return d.fail("unknown route tag"),
    };
    let delta_duration = d.f64()?;
    let delta_log_fidelity = d.f64()?;
    Ok(Substitution {
        id,
        kind,
        block,
        ops,
        replacement,
        route,
        delta_duration,
        delta_log_fidelity,
    })
}

fn enc_smt_adaptation(e: &mut Enc, s: &SmtAdaptation) {
    e.len(s.chosen.len());
    for &c in &s.chosen {
        e.usize(c);
    }
    e.i64(s.objective_value);
    e.u64(s.queries);
    e.usize(s.sat_vars);
    e.u8(s.optimal as u8);
    enc_solver_stats(e, &s.solver_stats);
    match &s.verification {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            enc_verification(e, v);
        }
    }
}

fn dec_smt_adaptation(d: &mut Dec) -> DResult<SmtAdaptation> {
    let n = d.len(8)?;
    let mut chosen = Vec::with_capacity(n);
    for _ in 0..n {
        chosen.push(d.usize()?);
    }
    let objective_value = d.i64()?;
    let queries = d.u64()?;
    let sat_vars = d.usize()?;
    let optimal = match d.u8()? {
        0 => false,
        1 => true,
        _ => return d.fail("unknown optimal flag"),
    };
    let solver_stats = dec_solver_stats(d)?;
    let verification = match d.u8()? {
        0 => None,
        1 => Some(dec_verification(d)?),
        _ => return d.fail("unknown verification tag"),
    };
    Ok(SmtAdaptation {
        chosen,
        objective_value,
        queries,
        sat_vars,
        optimal,
        solver_stats,
        verification,
    })
}

/// Encodes one adaptation as a self-contained payload.
pub fn encode_adaptation(a: &Adaptation) -> Vec<u8> {
    let mut e = Enc::new();
    enc_circuit(&mut e, &a.circuit);
    enc_circuit(&mut e, &a.reference);
    e.len(a.chosen.len());
    for s in &a.chosen {
        enc_substitution(&mut e, s);
    }
    e.usize(a.catalog_size);
    enc_smt_adaptation(&mut e, &a.solver);
    e.buf
}

/// Decodes a payload produced by [`encode_adaptation`].
///
/// # Errors
///
/// Returns a [`WireError`] on any truncation, unknown tag, out-of-range
/// index, or trailing garbage; the decoder never panics on bad input.
pub fn decode_adaptation(buf: &[u8]) -> Result<Adaptation, WireError> {
    let mut d = Dec::new(buf);
    let circuit = dec_circuit(&mut d)?;
    let reference = dec_circuit(&mut d)?;
    let n = d.len(1)?;
    let mut chosen = Vec::with_capacity(n);
    for _ in 0..n {
        chosen.push(dec_substitution(&mut d)?);
    }
    let catalog_size = d.usize()?;
    let solver = dec_smt_adaptation(&mut d)?;
    if !d.done() {
        return d.fail("trailing bytes after adaptation");
    }
    Ok(Adaptation {
        circuit,
        reference,
        chosen,
        catalog_size,
        solver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_tags_round_trip() {
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
            Gate::Rx(0.25),
            Gate::Ry(-0.5),
            Gate::Rz(std::f64::consts::PI),
            Gate::Phase(1e-300),
            Gate::U3(0.1, -0.2, 0.3),
            Gate::Cx,
            Gate::Cz,
            Gate::CzDiabatic,
            Gate::CPhase(-0.0),
            Gate::CRot(std::f64::consts::PI),
            Gate::Swap,
            Gate::SwapDiabatic,
            Gate::SwapComposite,
            Gate::ISwap,
            Gate::ISwapDg,
        ];
        for g in gates {
            let mut e = Enc::new();
            enc_gate(&mut e, &g);
            let mut d = Dec::new(&e.buf);
            let back = dec_gate(&mut d).unwrap();
            assert!(d.done());
            // Bit-level comparison: -0.0 must stay -0.0.
            let mut ea = Enc::new();
            enc_gate(&mut ea, &g);
            let mut eb = Enc::new();
            enc_gate(&mut eb, &back);
            assert_eq!(ea.buf, eb.buf, "gate {g:?} did not round-trip exactly");
        }
    }

    #[test]
    fn unknown_tags_are_errors_not_panics() {
        assert!(dec_gate(&mut Dec::new(&[200])).is_err());
        assert!(dec_proof_step(&mut Dec::new(&[9])).is_err());
        assert!(dec_substitution_kind(&mut Dec::new(&[7])).is_err());
        assert!(dec_constraint(&mut Dec::new(&[77])).is_err());
        assert!(decode_adaptation(&[1, 2, 3]).is_err());
        assert!(decode_adaptation(&[]).is_err());
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocation() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // absurd clause count
        let mut d = Dec::new(&e.buf);
        assert_eq!(
            d.len(4).unwrap_err().reason,
            "length prefix exceeds payload"
        );
    }

    #[test]
    fn two_qubit_gate_on_one_qubit_is_an_error_not_a_panic() {
        // A `cx` naming qubit 0 twice passes the arity and range checks,
        // and `Circuit::push` would panic on it.
        let mut e = Enc::new();
        e.usize(2);
        e.len(1);
        enc_gate(&mut e, &Gate::Cx);
        e.len(2);
        e.usize(0);
        e.usize(0);
        let mut d = Dec::new(&e.buf);
        assert_eq!(
            dec_circuit(&mut d).unwrap_err().reason,
            "two-qubit gate on identical qubits"
        );
    }

    fn sample() -> Adaptation {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.5), &[2]);
        Adaptation {
            circuit: c.clone(),
            reference: c,
            chosen: Vec::new(),
            catalog_size: 0,
            solver: SmtAdaptation {
                chosen: vec![1, 2],
                objective_value: -7,
                queries: 3,
                sat_vars: 11,
                optimal: true,
                solver_stats: SolverStats::default(),
                verification: None,
            },
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error() {
        let bytes = encode_adaptation(&sample());
        assert!(decode_adaptation(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(
                decode_adaptation(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Arbitrary bytes, and a valid payload with a few bytes overwritten
        /// (small values, such as qubit indices, are favoured), decode to
        /// `Ok` or `Err`, never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
            edits in proptest::collection::vec(
                (0usize..4096, proptest::prop_oneof![0u8..=3, 0u8..=255]),
                1..4,
            ),
        ) {
            let _ = decode_adaptation(&bytes);
            let mut edited = encode_adaptation(&sample());
            for (at, byte) in edits {
                let len = edited.len();
                edited[at % len] = byte;
            }
            let _ = decode_adaptation(&edited);
        }
    }
}
