//! The substitution catalog that rule evaluation builds, checked two ways
//! on the Fig. 5/6 circuit families and on routed topology-stress circuits:
//!
//! * against an oracle: every entry's deltas equal, bit for bit, the cost
//!   of the block rebuilt with the entry applied alone minus the block's
//!   reference cost, and the set of `(kind, ops)` pairs equals a
//!   brute-force enumeration of every op range's unitary;
//! * against a pinned digest of every catalog field (ids, kinds, blocks,
//!   ops, replacement circuits, routes and the bits of both deltas), so a
//!   change to how the rules are evaluated cannot move a single bit of the
//!   catalog the model is built from.

use qca::adapt::preprocess::{circuit_cost, preprocess, Preprocessed};
use qca::adapt::rules::{
    append_routing_substitutions, apply_to_block, evaluate_substitutions, RuleOptions,
    Substitution, SubstitutionKind,
};
use qca::circuit::hash::Fnv64;
use qca::circuit::{Circuit, Gate};
use qca::hw::{spin_qubit_model, CouplingMap, GateTimes, HardwareModel};
use qca::num::phase::phase_insensitive_distance;
use qca::workloads::{
    quantum_volume, random_template_circuit, topology_stress, DEFAULT_TEMPLATE_GATES,
};
use std::collections::BTreeSet;

const SEED: u64 = 0x5eed_2023;

fn family(name: &str, seed: u64) -> Circuit {
    match name {
        "rand-3q-d20" => random_template_circuit(3, 20, seed, &DEFAULT_TEMPLATE_GATES, true),
        "rand-4q-d20" => random_template_circuit(4, 20, seed, &DEFAULT_TEMPLATE_GATES, true),
        "rand-3q-d40" => random_template_circuit(3, 40, seed, &DEFAULT_TEMPLATE_GATES, true),
        "rand-4q-d40" => random_template_circuit(4, 40, seed, &DEFAULT_TEMPLATE_GATES, true),
        "qv-4x2" => quantum_volume(4, 2, seed),
        other => unreachable!("unknown family {other}"),
    }
}

/// The circuits every check runs on: two of each Fig. 5/6 family, and
/// topology-stress circuits that `routed` puts on a line.
fn corpus() -> Vec<(String, Circuit, bool)> {
    let mut out = Vec::new();
    let families = [
        "rand-3q-d20",
        "rand-4q-d20",
        "rand-3q-d40",
        "rand-4q-d40",
        "qv-4x2",
    ];
    for (f, name) in families.iter().enumerate() {
        for i in 0..2 {
            let seed = SEED + 100 * f as u64 + i;
            out.push((format!("{name}/{seed}"), family(name, seed), false));
        }
    }
    for i in 0..3 {
        let seed = SEED + 900 + i;
        out.push((
            format!("stress-4q-d8/{seed}"),
            topology_stress(4, 8, seed),
            true,
        ));
    }
    out
}

/// The catalog the adaptation model is built from, with routing
/// substitutions appended on a line for a routed circuit.
fn catalog(
    pre: &Preprocessed,
    hw: &HardwareModel,
    optimized_kak: bool,
    routed: bool,
) -> Vec<Substitution> {
    let options = RuleOptions { optimized_kak };
    let mut subs = evaluate_substitutions(pre, hw, &options).expect("rules evaluate");
    if routed {
        let line = CouplingMap::line(pre.source.num_qubits());
        append_routing_substitutions(&mut subs, pre, hw, &line).expect("routable");
    }
    subs
}

fn hardware() -> [HardwareModel; 2] {
    [
        spin_qubit_model(GateTimes::D0),
        spin_qubit_model(GateTimes::D1),
    ]
}

/// Every `(kind, ops)` pair the rules should produce, found by building
/// each op range's circuit and multiplying out its unitary.
fn brute_force(pre: &Preprocessed) -> BTreeSet<(String, Vec<usize>)> {
    let swap = Gate::Swap.matrix();
    let cx = Gate::Cx.matrix();
    let reversed_cx = cx.embed_qubits(&[1, 0], 2);
    let instrs = pre.source.instrs();
    let mut expected = BTreeSet::new();
    for block in pre.partition.blocks.iter().filter(|b| b.qubits.len() == 2) {
        for kind in [SubstitutionKind::KakCz, SubstitutionKind::KakCzDiabatic] {
            expected.insert((kind.to_string(), block.ops.clone()));
        }
        let k = block.ops.len();
        for start in 0..k {
            for end in start + 1..=k.min(start + 8) {
                let range = &block.ops[start..end];
                if !range.iter().any(|&op| instrs[op].gate.is_two_qubit()) {
                    continue;
                }
                let mut sub = Circuit::new(2);
                for &op in range {
                    let local: Vec<usize> = instrs[op]
                        .qubits
                        .iter()
                        .map(|q| block.qubits.iter().position(|b| b == q).unwrap())
                        .collect();
                    sub.push(instrs[op].gate, &local);
                }
                let u = sub.unitary();
                if phase_insensitive_distance(&u, &swap) < 1e-9 {
                    for kind in [
                        SubstitutionKind::SwapDiabatic,
                        SubstitutionKind::SwapComposite,
                    ] {
                        expected.insert((kind.to_string(), range.to_vec()));
                    }
                }
                if phase_insensitive_distance(&u, &cx) < 1e-9
                    || phase_insensitive_distance(&u, &reversed_cx) < 1e-9
                {
                    let kind = SubstitutionKind::ConditionalRotation;
                    expected.insert((kind.to_string(), range.to_vec()));
                }
            }
        }
    }
    expected
}

#[test]
fn catalog_matches_the_rebuild_oracle_and_brute_force_matches() {
    for hw in hardware() {
        for (name, circuit, _) in corpus() {
            let pre = preprocess(&circuit, &hw).expect("preprocess");
            for optimized_kak in [false, true] {
                let subs = catalog(&pre, &hw, optimized_kak, false);
                let mut seen = BTreeSet::new();
                for (i, s) in subs.iter().enumerate() {
                    assert_eq!(s.id, i, "{name}: ids are dense");
                    assert!(
                        seen.insert((s.kind.to_string(), s.ops.clone())),
                        "{name}: duplicate entry {} ({})",
                        s.id,
                        s.kind
                    );
                    let applied = apply_to_block(&pre, s.block, &[s]);
                    let cost = circuit_cost(&applied, &hw).expect("native");
                    let base = pre.cost[s.block];
                    assert_eq!(
                        s.delta_duration.to_bits(),
                        (cost.duration - base.duration).to_bits(),
                        "{name}: duration delta of entry {} ({})",
                        s.id,
                        s.kind
                    );
                    assert_eq!(
                        s.delta_log_fidelity.to_bits(),
                        (cost.log_fidelity - base.log_fidelity).to_bits(),
                        "{name}: log-fidelity delta of entry {} ({})",
                        s.id,
                        s.kind
                    );
                }
                assert_eq!(seen, brute_force(&pre), "{name}: matched ranges");
            }
        }
    }
}

fn hash_gate(h: &mut Fnv64, gate: &Gate, qubits: &[usize]) {
    h.write_bytes(gate.name().as_bytes());
    for p in gate.params() {
        h.write_u64(p.to_bits());
    }
    for &q in qubits {
        h.write_usize(q);
    }
}

/// FNV-1a over every field of every catalog, in corpus order.
fn catalog_digest() -> (u64, usize) {
    let mut h = Fnv64::new();
    let mut entries = 0;
    for hw in hardware() {
        for (_, circuit, routed) in corpus() {
            let pre = preprocess(&circuit, &hw).expect("preprocess");
            for optimized_kak in [false, true] {
                let subs = catalog(&pre, &hw, optimized_kak, routed);
                entries += subs.len();
                h.write_usize(subs.len());
                for s in &subs {
                    h.write_usize(s.id);
                    h.write_bytes(s.kind.to_string().as_bytes());
                    h.write_usize(s.block);
                    h.write_usize(s.ops.len());
                    for &op in &s.ops {
                        h.write_usize(op);
                    }
                    h.write_usize(s.replacement.len());
                    for instr in s.replacement.iter() {
                        hash_gate(&mut h, &instr.gate, &instr.qubits);
                    }
                    if let Some(route) = &s.route {
                        h.write_usize(route.path.len());
                        for &q in &route.path {
                            h.write_usize(q);
                        }
                        hash_gate(&mut h, &route.gate, &[]);
                    }
                    h.write_u64(s.delta_duration.to_bits());
                    h.write_u64(s.delta_log_fidelity.to_bits());
                }
            }
        }
    }
    (h.finish(), entries)
}

#[test]
fn catalog_digest_is_pinned() {
    let (digest, entries) = catalog_digest();
    assert_eq!(
        (format!("{digest:016x}"), entries),
        ("26f662c686fde02c".to_string(), 2840),
        "catalog digest moved"
    );
}
