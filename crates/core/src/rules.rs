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
use crate::preprocess::{circuit_cost, Preprocessed};
use qca_circuit::{Circuit, Gate};
use qca_hw::{CouplingMap, HardwareModel};
use qca_num::phase::phase_insensitive_distance;
use qca_synth::consolidate::consolidate_1q;
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

impl Route {
    /// Number of swap gates the plan inserts: `2 * (path edges - 1)`.
    pub fn swap_count(&self) -> usize {
        2 * (self.path.len() - 2)
    }
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

/// Knobs controlling which rules are evaluated.
#[derive(Debug, Clone)]
pub struct RuleOptions {
    /// Evaluate whole-block KAK with adiabatic CZ.
    pub kak_cz: bool,
    /// Evaluate whole-block KAK with diabatic CZ.
    pub kak_cz_diabatic: bool,
    /// Evaluate conditional-rotation replacements.
    pub conditional_rotation: bool,
    /// Evaluate swap-realization replacements.
    pub swaps: bool,
    /// Longest contiguous gate run considered for pattern matches.
    pub max_match_len: usize,
    /// Use the two-CNOT KAK specialization for canonical classes with a
    /// trivial interaction coefficient (extension; the paper's rule is the
    /// generic three-CZ circuit).
    pub optimized_kak: bool,
}

impl Default for RuleOptions {
    fn default() -> Self {
        RuleOptions {
            kak_cz: true,
            kak_cz_diabatic: true,
            conditional_rotation: true,
            swaps: true,
            max_match_len: 8,
            optimized_kak: false,
        }
    }
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
    let mut out = Circuit::new(nq);
    // Map: global op -> substitution covering it (by catalog position).
    let covered = |op: usize| subs.iter().find(|s| s.ops.binary_search(&op).is_ok());
    for &op in &block.ops {
        if let Some(s) = covered(op) {
            if s.ops[0] == op {
                out.extend_from(&s.replacement);
            }
            continue;
        }
        let instr = &pre.source.instrs()[op];
        let local: Vec<usize> = instr
            .qubits
            .iter()
            .map(|q| {
                block
                    .qubits
                    .iter()
                    .position(|bq| bq == q)
                    .expect("block qubit")
            })
            .collect();
        if instr.gate.num_qubits() == 1 {
            out.push(instr.gate, &local);
        } else {
            let translated = gate_to_cz(&instr.gate);
            for ti in translated.iter() {
                let mapped: Vec<usize> = ti.qubits.iter().map(|&q| local[q]).collect();
                out.push(ti.gate, &mapped);
            }
        }
    }
    consolidate_1q(&out)
}

/// Evaluates every enabled rule on the preprocessed circuit, returning the
/// substitution catalog with per-substitution cost deltas.
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
    let swap_target = Gate::Swap.matrix();
    let cx_target = Gate::Cx.matrix();

    for block in &pre.partition.blocks {
        if block.qubits.len() != 2 {
            continue;
        }
        let local = &pre.block_circuits[block.id];

        // Whole-block KAK decompositions.
        if options.kak_cz || options.kak_cz_diabatic {
            let u = local.unitary();
            let kak = kak_decompose(&u);
            let kak_circ = if options.optimized_kak {
                kak.to_circuit_cz_optimized()
            } else {
                kak.to_circuit_cz()
            };
            if options.kak_cz {
                push_candidate(
                    &mut catalog,
                    pre,
                    hw,
                    SubstitutionKind::KakCz,
                    block.id,
                    block.ops.clone(),
                    kak_circ.clone(),
                )?;
            }
            if options.kak_cz_diabatic {
                let mut db = Circuit::new(2);
                for i in kak_circ.iter() {
                    let g = if i.gate == Gate::Cz {
                        Gate::CzDiabatic
                    } else {
                        i.gate
                    };
                    db.push(g, &i.qubits);
                }
                push_candidate(
                    &mut catalog,
                    pre,
                    hw,
                    SubstitutionKind::KakCzDiabatic,
                    block.id,
                    block.ops.clone(),
                    db,
                )?;
            }
        }

        // Pattern matches over contiguous gate runs.
        if options.conditional_rotation || options.swaps {
            let k = block.ops.len();
            for start in 0..k {
                for end in (start + 1)..=k.min(start + options.max_match_len) {
                    let range = &block.ops[start..end];
                    // Must contain at least one two-qubit gate; ignore
                    // the trivial whole-block range only when it would
                    // duplicate KAK (keep it: swaps of whole blocks are
                    // cheaper than KAK's 3 CZ).
                    if !range
                        .iter()
                        .any(|&op| pre.source.instrs()[op].gate.is_two_qubit())
                    {
                        continue;
                    }
                    let sub = subrange_circuit(pre, block.id, range);
                    let u = sub.unitary();
                    if options.swaps && phase_insensitive_distance(&u, &swap_target) < 1e-9 {
                        for (kind, gate) in [
                            (SubstitutionKind::SwapDiabatic, Gate::SwapDiabatic),
                            (SubstitutionKind::SwapComposite, Gate::SwapComposite),
                        ] {
                            let mut rep = Circuit::new(2);
                            rep.push(gate, &[0, 1]);
                            push_candidate(
                                &mut catalog,
                                pre,
                                hw,
                                kind,
                                block.id,
                                range.to_vec(),
                                rep,
                            )?;
                        }
                    }
                    if options.conditional_rotation {
                        // CNOT-equivalent in either operand order.
                        for (ctrl, tgt) in [(0usize, 1usize), (1, 0)] {
                            let target = if (ctrl, tgt) == (0, 1) {
                                cx_target.clone()
                            } else {
                                cx_target.embed_qubits(&[1, 0], 2)
                            };
                            if phase_insensitive_distance(&u, &target) < 1e-9 {
                                let mut rep = Circuit::new(2);
                                rep.push(Gate::CRot(PI), &[ctrl, tgt]);
                                rep.push(Gate::S, &[ctrl]);
                                push_candidate(
                                    &mut catalog,
                                    pre,
                                    hw,
                                    SubstitutionKind::ConditionalRotation,
                                    block.id,
                                    range.to_vec(),
                                    rep,
                                )?;
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(catalog)
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

/// Extracts the local circuit of a contiguous op range within a block.
fn subrange_circuit(pre: &Preprocessed, block_id: usize, range: &[usize]) -> Circuit {
    let block = &pre.partition.blocks[block_id];
    let mut c = Circuit::new(block.qubits.len());
    for &op in range {
        let instr = &pre.source.instrs()[op];
        let local: Vec<usize> = instr
            .qubits
            .iter()
            .map(|q| {
                block
                    .qubits
                    .iter()
                    .position(|bq| bq == q)
                    .expect("block qubit")
            })
            .collect();
        c.push(instr.gate, &local);
    }
    c
}

/// Prices a candidate substitution (applied alone) and appends it to the
/// catalog, dropping exact duplicates (same kind and op range).
fn push_candidate(
    catalog: &mut Vec<Substitution>,
    pre: &Preprocessed,
    hw: &HardwareModel,
    kind: SubstitutionKind,
    block: usize,
    ops: Vec<usize>,
    replacement: Circuit,
) -> Result<(), AdaptError> {
    if catalog
        .iter()
        .any(|s| s.kind == kind && s.block == block && s.ops == ops)
    {
        return Ok(());
    }
    let id = catalog.len();
    let candidate = Substitution {
        id,
        kind,
        block,
        ops,
        replacement,
        route: None,
        delta_duration: 0.0,
        delta_log_fidelity: 0.0,
    };
    let applied = apply_to_block(pre, block, &[&candidate]);
    let cost = circuit_cost(&applied, hw).ok_or_else(|| {
        AdaptError::UnsupportedGate(format!("replacement for block {block} not native"))
    })?;
    let base = pre.cost[block];
    let mut candidate = candidate;
    candidate.delta_duration = cost.duration - base.duration;
    candidate.delta_log_fidelity = cost.log_fidelity - base.log_fidelity;
    catalog.push(candidate);
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
    fn disabled_rules_are_skipped() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let opts = RuleOptions {
            kak_cz: false,
            kak_cz_diabatic: false,
            conditional_rotation: false,
            swaps: false,
            ..RuleOptions::default()
        };
        let subs = evaluate_substitutions(&pre, &hw, &opts).unwrap();
        assert!(subs.is_empty());
    }

    #[test]
    fn optimized_kak_flag_shrinks_cx_blocks() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, hw) = pre_of(&c);
        let generic = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let opts = RuleOptions {
            optimized_kak: true,
            ..RuleOptions::default()
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
            assert_eq!(route.swap_count(), 2);
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
