//! Substitution-rule evaluation (paper §IV-B).
//!
//! Every rule is evaluated against the preprocessed circuit, yielding for
//! each applicable substitution `s` the substituted gates `p_s`, the
//! replacement gates `g_s`, the affected block `b_s` and the cost deltas
//! (`𝔻(s)`, `𝔽(s)` of Eqs. 4 and 6) relative to the reference adaptation.
//!
//! Implemented rules (Fig. 3 of the paper):
//!
//! * **KAK(CZ)** — re-synthesize a whole two-qubit block as three CZ gates
//!   plus SU(2) locals,
//! * **KAK(CZ_db)** — the same with the diabatic CZ realization,
//! * **Conditional rotation** — replace a CNOT-equivalent gate run with
//!   `CROT(pi)` plus a phase correction,
//! * **SWAP_d / SWAP_c** — replace a swap-equivalent gate run with one of
//!   the two native swap realizations.

use crate::error::AdaptError;
use crate::preprocess::{BlockCost, Preprocessed};
use qca_circuit::blocks::Block;
use qca_circuit::{Circuit, Gate};
use qca_hw::{CouplingMap, GateCost, HardwareModel};
use qca_num::phase::phase_insensitive_distance;
use qca_num::CMat;
use qca_synth::consolidate::{ConsolidatedSink, Consolidator};
use qca_synth::kak::kak_decompose;
use qca_synth::translate::gate_to_cz;
use std::f64::consts::PI;

/// The rule family a substitution belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubstitutionKind {
    /// Whole-block KAK decomposition targeting the adiabatic CZ.
    KakCz,
    /// Whole-block KAK decomposition targeting the diabatic CZ.
    KakCzDiabatic,
    /// Conditional-rotation (CROT) replacement of a CNOT-equivalent run.
    ConditionalRotation,
    /// Diabatic swap realization of a swap-equivalent run.
    SwapDiabatic,
    /// Composite-pulse swap realization of a swap-equivalent run.
    SwapComposite,
    /// SWAP-insertion routing of an uncoupled block via the diabatic swap.
    RouteSwapDiabatic,
    /// SWAP-insertion routing of an uncoupled block via the composite swap.
    RouteSwapComposite,
}

impl std::fmt::Display for SubstitutionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SubstitutionKind::KakCz => "kak(cz)",
            SubstitutionKind::KakCzDiabatic => "kak(cz_db)",
            SubstitutionKind::ConditionalRotation => "crot",
            SubstitutionKind::SwapDiabatic => "swap_d",
            SubstitutionKind::SwapComposite => "swap_c",
            SubstitutionKind::RouteSwapDiabatic => "route(swap_d)",
            SubstitutionKind::RouteSwapComposite => "route(swap_c)",
        };
        write!(f, "{s}")
    }
}

/// A SWAP-insertion routing plan for a two-qubit block whose operand pair
/// is not directly coupled on the target topology.
///
/// The plan moves the block's first operand along `path` to the qubit
/// adjacent to the second operand, executes the block there, and walks the
/// swaps back — net identity on every intermediate qubit, so the global
/// unitary is preserved. Both directions use the same swap realization.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Global qubit path from the block's first operand to its second
    /// (BFS-shortest, smallest-index tie-breaking); at least three nodes.
    pub path: Vec<usize>,
    /// The native swap realization inserted along the path
    /// ([`Gate::SwapDiabatic`] or [`Gate::SwapComposite`]).
    pub gate: Gate,
}

/// One applicable substitution: which gates it replaces, what it replaces
/// them with, and its cost deltas against the reference adaptation.
#[derive(Debug, Clone)]
pub struct Substitution {
    /// Dense id (index into the catalog).
    pub id: usize,
    /// Rule family.
    pub kind: SubstitutionKind,
    /// Affected block (`b_s`).
    pub block: usize,
    /// Global instruction indices replaced (`p_s`), ascending. Empty for
    /// routing substitutions: they wrap the block rather than replacing
    /// gates inside it.
    pub ops: Vec<usize>,
    /// Replacement circuit over the block's local qubits (`g_s`). Empty for
    /// routing substitutions.
    pub replacement: Circuit,
    /// SWAP-insertion plan, present only on routing substitutions
    /// ([`SubstitutionKind::RouteSwapDiabatic`] /
    /// [`SubstitutionKind::RouteSwapComposite`]). Routing composes
    /// additively with the block's gate substitutions; two routing plans
    /// for the same block conflict.
    pub route: Option<Route>,
    /// Change in block duration when applied alone (ns): `𝔻(s)`.
    pub delta_duration: f64,
    /// Change in block log-fidelity when applied alone: `𝔽(s)`.
    pub delta_log_fidelity: f64,
}

impl Substitution {
    /// `true` when `self` and `other` substitute at least one common gate
    /// (and hence conflict per Eq. 1), or when both are routing plans for
    /// the same block (a block travels one path, with one realization).
    pub fn conflicts_with(&self, other: &Substitution) -> bool {
        if self.block != other.block {
            return false;
        }
        if self.route.is_some() && other.route.is_some() {
            return true;
        }
        self.ops
            .iter()
            .any(|op| other.ops.binary_search(op).is_ok())
    }
}

/// Longest contiguous gate run considered for pattern matches.
const MAX_MATCH_LEN: usize = 8;

/// How the rules are evaluated. Every Table I rule family is always
/// evaluated; a family the hardware does not price yields no entries.
#[derive(Debug, Clone, Default)]
pub struct RuleOptions {
    /// Use the two-CNOT KAK specialization for canonical classes with a
    /// trivial interaction coefficient (extension; the paper's rule is the
    /// generic three-CZ circuit).
    pub optimized_kak: bool,
}

/// Applies a set of mutually non-conflicting substitutions to one block,
/// producing the adapted local circuit (target basis, consolidated).
///
/// Gates not covered by any substitution receive the reference basis
/// translation.
///
/// # Panics
///
/// Panics if two substitutions overlap or belong to a different block.
pub fn apply_to_block(pre: &Preprocessed, block_id: usize, subs: &[&Substitution]) -> Circuit {
    let block = &pre.partition.blocks[block_id];
    for s in subs {
        assert_eq!(s.block, block_id, "substitution targets another block");
    }
    for (i, a) in subs.iter().enumerate() {
        for b in &subs[i + 1..] {
            assert!(!a.conflicts_with(b), "overlapping substitutions");
        }
    }
    let nq = block.qubits.len();
    let mut merge = Consolidator::new(nq);
    let mut out = Circuit::new(nq);
    // Map: global op -> substitution covering it (by catalog position).
    let covered = |op: usize| subs.iter().find(|s| s.ops.binary_search(&op).is_ok());
    for &op in &block.ops {
        if let Some(s) = covered(op) {
            if s.ops[0] == op {
                for instr in s.replacement.iter() {
                    merge.feed(instr.gate, &instr.qubits, &mut out);
                }
            }
            continue;
        }
        let instr = &pre.source.instrs()[op];
        let local = block_local_qubits(block, &instr.qubits);
        feed_local(&mut merge, &translate_local(&instr.gate, &local), &mut out);
    }
    merge.finish(&mut out);
    out
}

/// Evaluates every rule on the preprocessed circuit, returning the
/// substitution catalog with per-substitution cost deltas.
///
/// Per two-qubit block the catalog lists KAK(CZ) and KAK(CZ_db) over the
/// whole block, then, for every contiguous op range of at most
/// `MAX_MATCH_LEN` ops holding a two-qubit gate (by start, then end), the
/// swap realizations when the range is a SWAP and CROT when it is a CNOT
/// in either operand order, each up to global phase.
///
/// Each block is walked once. Its ops are translated once into the local
/// stream [`apply_to_block`] emits for uncovered ops, and a replay of that
/// stream (the streaming [`Consolidator`] into a cost sink that keeps the
/// ASAP qubit-free times and the fidelity product) advances one op per
/// range start. A candidate covering ops `[s, e)` clones the replay at `s`,
/// feeds its replacement and ops `e..` and flushes. That is the same
/// sequence of 2×2 products, identity tests and priced gates as
/// `consolidate_1q` of the rebuilt block followed by
/// [`circuit_cost`](crate::preprocess::circuit_cost), so every delta is
/// bit-identical to pricing the rebuilt block; the consolidated circuit
/// itself (and its Euler angles) is never built, since every single-qubit
/// gate costs the same. Each range start's unitaries are a running product
/// of the ops' embedded matrices, the multiplications `Circuit::unitary`
/// performs on the range circuit.
///
/// # Errors
///
/// Returns [`AdaptError`] when a replacement circuit cannot be priced on
/// `hw` (would indicate an internal inconsistency).
pub fn evaluate_substitutions(
    pre: &Preprocessed,
    hw: &HardwareModel,
    options: &RuleOptions,
) -> Result<Vec<Substitution>, AdaptError> {
    let mut catalog: Vec<Substitution> = Vec::new();
    let swap = Gate::Swap.matrix();
    let cx = Gate::Cx.matrix();
    let reversed_cx = cx.embed_qubits(&[1, 0], 2);
    let swap_reps = [
        (SubstitutionKind::SwapDiabatic, Gate::SwapDiabatic),
        (SubstitutionKind::SwapComposite, Gate::SwapComposite),
    ]
    .map(|(kind, gate)| {
        let mut rep = Circuit::new(2);
        rep.push(gate, &[0, 1]);
        (kind, rep)
    });
    let crot_reps = [(0, 1), (1, 0)].map(|(ctrl, tgt)| {
        let mut rep = Circuit::new(2);
        rep.push(Gate::CRot(PI), &[ctrl, tgt]);
        rep.push(Gate::S, &[ctrl]);
        rep
    });

    for block in &pre.partition.blocks {
        if block.qubits.len() != 2 {
            continue;
        }
        let instrs = pre.source.instrs();
        let mut stream = Vec::with_capacity(block.ops.len());
        let mut embedded = Vec::with_capacity(block.ops.len());
        for &op in &block.ops {
            let local = block_local_qubits(block, &instrs[op].qubits);
            stream.push(translate_local(&instrs[op].gate, &local));
            embedded.push(instrs[op].gate.matrix().embed_qubits(&local, 2));
        }
        let base = pre.cost[block.id];
        let first = catalog.len();
        // Prices a candidate from the replay of the ops before it and
        // appends it, unless the block already lists the same kind and ops.
        let mut push = |kind: SubstitutionKind,
                        ops: &[usize],
                        replacement: &Circuit,
                        prefix: &Replay,
                        tail: &[Vec<LocalGate>]|
         -> Result<(), AdaptError> {
            if catalog[first..]
                .iter()
                .any(|s| s.kind == kind && s.ops == ops)
            {
                return Ok(());
            }
            let cost = prefix.price(replacement, tail).ok_or_else(|| {
                AdaptError::UnsupportedGate(format!(
                    "replacement for block {} not native",
                    block.id
                ))
            })?;
            catalog.push(Substitution {
                id: catalog.len(),
                kind,
                block: block.id,
                ops: ops.to_vec(),
                replacement: replacement.clone(),
                route: None,
                delta_duration: cost.duration - base.duration,
                delta_log_fidelity: cost.log_fidelity - base.log_fidelity,
            });
            Ok(())
        };

        let mut prefix = Replay::new(hw);

        // Whole-block KAK decompositions.
        let kak = kak_decompose(&pre.block_circuits[block.id].unitary());
        let kak_circ = if options.optimized_kak {
            kak.to_circuit_cz_optimized()
        } else {
            kak.to_circuit_cz()
        };
        let mut db = Circuit::new(2);
        for i in kak_circ.iter() {
            let g = if i.gate == Gate::Cz {
                Gate::CzDiabatic
            } else {
                i.gate
            };
            db.push(g, &i.qubits);
        }
        push(SubstitutionKind::KakCz, &block.ops, &kak_circ, &prefix, &[])?;
        push(
            SubstitutionKind::KakCzDiabatic,
            &block.ops,
            &db,
            &prefix,
            &[],
        )?;

        // Pattern matches over contiguous gate runs. Whole-block ranges are
        // kept: a swap or CROT match can beat KAK's three CZs.
        let k = block.ops.len();
        for start in 0..k {
            let mut u = CMat::identity(4);
            let mut two_qubit = false;
            for end in (start + 1)..=k.min(start + MAX_MATCH_LEN) {
                u = &embedded[end - 1] * &u;
                two_qubit |= instrs[block.ops[end - 1]].gate.is_two_qubit();
                if !two_qubit {
                    continue;
                }
                let range = &block.ops[start..end];
                let tail = &stream[end..];
                if phase_insensitive_distance(&u, &swap) < 1e-9 {
                    for (kind, rep) in &swap_reps {
                        push(*kind, range, rep, &prefix, tail)?;
                    }
                }
                // CNOT-equivalent in either operand order.
                for (target, rep) in [&cx, &reversed_cx].into_iter().zip(&crot_reps) {
                    if phase_insensitive_distance(&u, target) < 1e-9 {
                        let kind = SubstitutionKind::ConditionalRotation;
                        push(kind, range, rep, &prefix, tail)?;
                        break;
                    }
                }
            }
            prefix.feed(&stream[start]);
        }
    }
    Ok(catalog)
}

/// One gate of a block's translated local stream: a single-qubit gate as
/// its matrix, or a two-qubit gate on both local qubits.
#[derive(Debug, Clone)]
enum LocalGate {
    OneQubit(usize, CMat),
    TwoQubit(Gate, [usize; 2]),
}

/// Positions of `qubits` within `block.qubits`.
fn block_local_qubits(block: &Block, qubits: &[usize]) -> Vec<usize> {
    qubits
        .iter()
        .map(|q| {
            block
                .qubits
                .iter()
                .position(|bq| bq == q)
                .expect("block qubit")
        })
        .collect()
}

/// The reference translation of one op on local qubits `local`, as
/// [`apply_to_block`] emits it for an uncovered op.
fn translate_local(gate: &Gate, local: &[usize]) -> Vec<LocalGate> {
    if gate.num_qubits() == 1 {
        return vec![LocalGate::OneQubit(local[0], gate.matrix())];
    }
    gate_to_cz(gate)
        .iter()
        .map(|ti| match ti.qubits[..] {
            [q] => LocalGate::OneQubit(local[q], ti.gate.matrix()),
            [a, b] => LocalGate::TwoQubit(ti.gate, [local[a], local[b]]),
            _ => unreachable!("gates act on one or two qubits"),
        })
        .collect()
}

/// Feeds one op's translated local stream.
fn feed_local(merge: &mut Consolidator, op: &[LocalGate], sink: &mut impl ConsolidatedSink) {
    for g in op {
        match g {
            LocalGate::OneQubit(q, m) => merge.feed_1q(*q, m),
            LocalGate::TwoQubit(gate, qubits) => merge.feed_gate(*gate, qubits, sink),
        }
    }
}

/// A cost-only replay of a two-qubit block's consolidated stream: the
/// pending single-qubit runs, and the ASAP schedule and fidelity product of
/// everything emitted so far. Cloning it snapshots a stream prefix.
#[derive(Debug, Clone)]
struct Replay<'a> {
    merge: Consolidator,
    cost: CostSink<'a>,
}

impl<'a> Replay<'a> {
    fn new(hw: &'a HardwareModel) -> Replay<'a> {
        Replay {
            merge: Consolidator::new(2),
            cost: CostSink {
                hw,
                // Every single-qubit gate, the `U3` a run becomes included,
                // has one cost class.
                one_qubit: hw.cost(&Gate::U3(0.0, 0.0, 0.0)),
                free: [0.0; 2],
                fidelity: 1.0,
                priced: true,
            },
        }
    }

    fn feed(&mut self, op: &[LocalGate]) {
        feed_local(&mut self.merge, op, &mut self.cost);
    }

    /// The cost of the block that continues this prefix with
    /// `replacement` and then the ops of `tail`, or `None` when a gate has
    /// no price.
    fn price(&self, replacement: &Circuit, tail: &[Vec<LocalGate>]) -> Option<BlockCost> {
        let mut replay = self.clone();
        for instr in replacement.iter() {
            replay
                .merge
                .feed(instr.gate, &instr.qubits, &mut replay.cost);
        }
        for op in tail {
            replay.feed(op);
        }
        replay.merge.finish(&mut replay.cost);
        let c = replay.cost;
        c.priced.then(|| BlockCost {
            duration: c.free.iter().copied().fold(0.0f64, f64::max),
            log_fidelity: c.fidelity.ln(),
        })
    }
}

/// Prices a consolidated stream the way `CircuitSchedule::asap` and
/// `HardwareModel::circuit_fidelity` price the circuit it would build.
#[derive(Debug, Clone)]
struct CostSink<'a> {
    hw: &'a HardwareModel,
    one_qubit: Option<GateCost>,
    free: [f64; 2],
    fidelity: f64,
    priced: bool,
}

impl CostSink<'_> {
    fn price(&mut self, cost: Option<GateCost>, qubits: &[usize]) {
        let Some(cost) = cost else {
            self.priced = false;
            return;
        };
        let s = qubits.iter().map(|&q| self.free[q]).fold(0.0f64, f64::max);
        for &q in qubits {
            self.free[q] = s + cost.duration;
        }
        self.fidelity *= cost.fidelity;
    }
}

impl ConsolidatedSink for CostSink<'_> {
    fn run(&mut self, q: usize, _u: &CMat) {
        self.price(self.one_qubit, &[q]);
    }

    fn gate(&mut self, gate: Gate, qubits: &[usize]) {
        self.price(self.hw.cost(&gate), qubits);
    }
}

/// Appends one routing substitution per priced swap realization for every
/// two-qubit block whose operand pair is not directly coupled on
/// `coupling`. Ids continue the catalog's dense numbering.
///
/// Paths are BFS-shortest with smallest-index tie-breaking, restricted to
/// the circuit's own qubits (a device larger than the circuit never routes
/// through out-of-range wires), so the generated catalog is deterministic.
/// An all-to-all map (or one coupling every pair the circuit uses) appends
/// nothing, keeping the encoding bit-identical to the topology-free model.
///
/// # Errors
///
/// [`AdaptError::InvalidOptions`] when the map has fewer qubits than the
/// circuit or provides no path between a block's operands;
/// [`AdaptError::UnsupportedGate`] when an uncoupled block must be routed
/// but the hardware prices neither swap realization.
pub fn append_routing_substitutions(
    catalog: &mut Vec<Substitution>,
    pre: &Preprocessed,
    hw: &HardwareModel,
    coupling: &CouplingMap,
) -> Result<(), AdaptError> {
    let nq = pre.source.num_qubits();
    if coupling.num_qubits() < nq {
        return Err(AdaptError::InvalidOptions(format!(
            "coupling map covers {} qubits but the circuit uses {nq}",
            coupling.num_qubits()
        )));
    }
    let cm = coupling.restrict(nq);
    for block in &pre.partition.blocks {
        if block.qubits.len() != 2 {
            continue;
        }
        let (a, b) = (block.qubits[0], block.qubits[1]);
        if cm.is_coupled(a, b) {
            continue;
        }
        let path = cm.path(a, b).ok_or_else(|| {
            AdaptError::InvalidOptions(format!(
                "coupling map provides no path between qubits {a} and {b}"
            ))
        })?;
        let swaps = 2.0 * (path.len() - 2) as f64;
        let mut routable = false;
        for (kind, gate) in [
            (SubstitutionKind::RouteSwapDiabatic, Gate::SwapDiabatic),
            (SubstitutionKind::RouteSwapComposite, Gate::SwapComposite),
        ] {
            let Some(cost) = hw.cost(&gate) else {
                continue;
            };
            routable = true;
            catalog.push(Substitution {
                id: catalog.len(),
                kind,
                block: block.id,
                ops: Vec::new(),
                replacement: Circuit::new(2),
                route: Some(Route {
                    path: path.clone(),
                    gate,
                }),
                delta_duration: swaps * cost.duration,
                delta_log_fidelity: swaps * cost.fidelity.ln(),
            });
        }
        if !routable {
            return Err(AdaptError::UnsupportedGate(format!(
                "qubits {a} and {b} are uncoupled and no native swap \
                 realization is priced to route between them"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use qca_hw::{spin_qubit_model, GateTimes};
    use qca_num::phase::approx_eq_up_to_phase;

    fn pre_of(c: &Circuit) -> (Preprocessed, HardwareModel) {
        let hw = spin_qubit_model(GateTimes::D0);
        (preprocess(c, &hw).unwrap(), hw)
    }

    #[test]
    fn kak_substitution_for_simple_block() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        assert!(subs.iter().any(|s| s.kind == SubstitutionKind::KakCz));
        // CX·CX = I, so KAK yields a nearly empty circuit with a big
        // duration decrease.
        let kak = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::KakCz)
            .unwrap();
        assert!(kak.delta_duration < 0.0);
        assert!(kak.delta_log_fidelity > 0.0);
    }

    #[test]
    fn swap_pattern_detected() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let swap_d = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::SwapDiabatic && s.ops.len() == 3)
            .expect("swap_d match");
        let swap_c = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::SwapComposite && s.ops.len() == 3)
            .expect("swap_c match");
        // Reference: 3x (H CZ H) ~ 3*152 + 4*30 = 576 ns; swap_d = 19 ns.
        assert!(swap_d.delta_duration < -400.0);
        // swap_c has better fidelity than swap_d.
        assert!(swap_c.delta_log_fidelity > swap_d.delta_log_fidelity);
    }

    #[test]
    fn crot_matches_single_cx() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let crot = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::ConditionalRotation)
            .expect("crot match");
        // CROT is slower than the CZ translation (660+ vs 212).
        assert!(crot.delta_duration > 0.0);
        // Replacement implements CX up to phase.
        assert!(approx_eq_up_to_phase(
            &crot.replacement.unitary(),
            &Gate::Cx.matrix(),
            1e-8
        ));
    }

    #[test]
    fn crot_matches_reversed_cx() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[1, 0]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let crot = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::ConditionalRotation)
            .expect("crot match");
        assert!(approx_eq_up_to_phase(
            &crot.replacement.unitary(),
            &Gate::Cx.matrix().embed_qubits(&[1, 0], 2),
            1e-8
        ));
    }

    #[test]
    fn conflicts_detected_on_overlap() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let kak = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::KakCz)
            .unwrap();
        let swap = subs
            .iter()
            .find(|s| s.kind == SubstitutionKind::SwapDiabatic)
            .unwrap();
        assert!(kak.conflicts_with(swap));
        assert!(swap.conflicts_with(kak));
    }

    #[test]
    fn apply_preserves_unitary() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.4), &[0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        for s in &subs {
            let adapted = apply_to_block(&pre, s.block, &[s]);
            let original = pre.block_circuits[s.block].unitary();
            assert!(
                approx_eq_up_to_phase(&adapted.unitary(), &original, 1e-7),
                "substitution {} ({}) breaks the block unitary",
                s.id,
                s.kind
            );
        }
    }

    #[test]
    fn optimized_kak_flag_shrinks_cx_blocks() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let generic = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let opts = RuleOptions {
            optimized_kak: true,
        };
        let optimized = evaluate_substitutions(&pre, &hw, &opts).unwrap();
        let g = generic
            .iter()
            .find(|s| s.kind == SubstitutionKind::KakCz)
            .unwrap();
        let o = optimized
            .iter()
            .find(|s| s.kind == SubstitutionKind::KakCz)
            .unwrap();
        assert_eq!(g.replacement.two_qubit_gate_count(), 3);
        assert_eq!(o.replacement.two_qubit_gate_count(), 2);
        assert!(o.delta_duration < g.delta_duration);
    }

    #[test]
    fn literal_swap_gate_matched() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        assert!(subs
            .iter()
            .any(|s| s.kind == SubstitutionKind::SwapDiabatic && s.ops.len() == 1));
    }

    #[test]
    fn routing_subs_priced_from_swap_realizations() {
        use qca_hw::CouplingMap;
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 2]); // distance 2 on a line
        let (pre, hw) = pre_of(&c);
        let mut subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let before = subs.len();
        append_routing_substitutions(&mut subs, &pre, &hw, &CouplingMap::line(3)).unwrap();
        let routed: Vec<&Substitution> = subs[before..].iter().collect();
        assert_eq!(routed.len(), 2, "one per priced swap realization");
        for (i, s) in routed.iter().enumerate() {
            assert_eq!(s.id, before + i, "ids stay dense");
            assert!(s.ops.is_empty() && s.replacement.is_empty());
            let route = s.route.as_ref().unwrap();
            assert_eq!(route.path, vec![0, 1, 2]);
            let cost = hw.cost(&route.gate).unwrap();
            assert!((s.delta_duration - 2.0 * cost.duration).abs() < 1e-9);
            assert!((s.delta_log_fidelity - 2.0 * cost.fidelity.ln()).abs() < 1e-12);
        }
        let kinds: Vec<SubstitutionKind> = routed.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SubstitutionKind::RouteSwapDiabatic));
        assert!(kinds.contains(&SubstitutionKind::RouteSwapComposite));
    }

    #[test]
    fn coupled_blocks_gain_no_routing_subs() {
        use qca_hw::CouplingMap;
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let mut subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let before = subs.len();
        append_routing_substitutions(&mut subs, &pre, &hw, &CouplingMap::line(2)).unwrap();
        assert_eq!(subs.len(), before);
    }

    #[test]
    fn routing_subs_conflict_only_with_each_other() {
        use qca_hw::CouplingMap;
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::Cx, &[2, 0]);
        c.push(Gate::Cx, &[0, 2]);
        let (pre, hw) = pre_of(&c);
        let mut subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        append_routing_substitutions(&mut subs, &pre, &hw, &CouplingMap::line(3)).unwrap();
        let routed: Vec<&Substitution> = subs.iter().filter(|s| s.route.is_some()).collect();
        assert_eq!(routed.len(), 2);
        // The two routing variants of one block are mutually exclusive...
        assert!(routed[0].conflicts_with(routed[1]));
        // ...but compose freely with the block's gate substitutions.
        for s in subs.iter().filter(|s| s.route.is_none()) {
            if s.block == routed[0].block {
                assert!(!routed[0].conflicts_with(s), "route vs {:?}", s.kind);
            }
        }
    }

    #[test]
    fn oversized_circuit_for_coupling_rejected() {
        use qca_hw::CouplingMap;
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 2]);
        let (pre, hw) = pre_of(&c);
        let mut subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let err = append_routing_substitutions(&mut subs, &pre, &hw, &CouplingMap::line(2));
        assert!(matches!(
            err,
            Err(crate::error::AdaptError::InvalidOptions(_))
        ));
    }

    #[test]
    fn device_larger_than_circuit_routes_in_range() {
        // A 5-qubit device hosting a 3-qubit circuit: routing must stay on
        // the first three qubits (the induced subgraph), never through the
        // device's extra qubits.
        use qca_hw::CouplingMap;
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 2]);
        let (pre, hw) = pre_of(&c);
        let mut subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        append_routing_substitutions(&mut subs, &pre, &hw, &CouplingMap::ring(5)).unwrap();
        let route = subs
            .iter()
            .find_map(|s| s.route.as_ref())
            .expect("0-2 uncoupled on the induced line");
        assert!(route.path.iter().all(|&q| q < 3), "{:?}", route.path);
        assert_eq!(route.path, vec![0, 1, 2]);
    }
}
