//! Two-qubit block partitioning and the block dependency graph.
//!
//! The preprocessing step of the paper (§IV-A): the circuit is partitioned
//! into *blocks* of gates interacting on the same qubit pair; block order is
//! captured by a dependency graph with an edge `(b', b)` when block `b'` must
//! complete before block `b` starts.

use crate::circuit::{Circuit, Instr};

/// A block: a maximal run of gates on one qubit pair (or a trailing run of
/// single-qubit gates on one qubit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Dense block id (index into [`BlockPartition::blocks`]).
    pub id: usize,
    /// The qubits the block acts on, sorted ascending (length 1 or 2).
    pub qubits: Vec<usize>,
    /// Indices into the source circuit's instruction list, ascending.
    pub ops: Vec<usize>,
}

impl Block {
    /// `true` for a two-qubit block.
    pub fn is_two_qubit(&self) -> bool {
        self.qubits.len() == 2
    }
}

/// The result of partitioning a circuit into blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockPartition {
    /// Blocks in creation (topological) order.
    pub blocks: Vec<Block>,
    /// Dependency edges `(before, after)` between block ids.
    pub edges: Vec<(usize, usize)>,
}

impl BlockPartition {
    /// Predecessor lists per block.
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.blocks.len()];
        for &(a, b) in &self.edges {
            p[b].push(a);
        }
        p
    }

    /// A topological order of block ids (blocks are created in a
    /// topologically consistent order, so this is ascending id order).
    pub fn topological_order(&self) -> Vec<usize> {
        (0..self.blocks.len()).collect()
    }

    /// Extracts a block as a standalone circuit over its local qubits
    /// (operands remapped to positions in the sorted `qubits` list).
    pub fn block_circuit(&self, source: &Circuit, id: usize) -> Circuit {
        let block = &self.blocks[id];
        let mut c = Circuit::new(block.qubits.len());
        for &op in &block.ops {
            let instr: &Instr = &source.instrs()[op];
            let local: Vec<usize> = instr
                .qubits
                .iter()
                .map(|q| {
                    block
                        .qubits
                        .iter()
                        .position(|bq| bq == q)
                        .expect("block op uses only block qubits")
                })
                .collect();
            c.push(instr.gate, &local);
        }
        c
    }
}

/// Partitions `circuit` into two-qubit blocks plus trailing single-qubit
/// blocks, and derives the block dependency graph.
///
/// Single-qubit gates are absorbed into the two-qubit block that next uses
/// (or currently uses) their qubit; single-qubit gates never followed by a
/// two-qubit gate on the same qubit form their own single-qubit block.
///
/// # Examples
///
/// ```
/// use qca_circuit::{Circuit, Gate, blocks::partition_blocks};
///
/// let mut c = Circuit::new(3);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cx, &[0, 1]);
/// c.push(Gate::Cx, &[1, 2]);
/// let p = partition_blocks(&c);
/// assert_eq!(p.blocks.len(), 2);
/// assert_eq!(p.edges, vec![(0, 1)]);
/// ```
pub fn partition_blocks(circuit: &Circuit) -> BlockPartition {
    let nq = circuit.num_qubits();
    // Open block per qubit (id into `blocks`).
    let mut open: Vec<Option<usize>> = vec![None; nq];
    // Single-qubit instructions waiting for a block, per qubit.
    let mut pending: Vec<Vec<usize>> = vec![Vec::new(); nq];
    let mut blocks: Vec<Block> = Vec::new();

    let close_qubit = |open: &mut Vec<Option<usize>>, q: usize| {
        if let Some(id) = open[q] {
            // Close the whole block: clear every qubit pointing at it.
            for o in open.iter_mut() {
                if *o == Some(id) {
                    *o = None;
                }
            }
        }
    };

    for (i, instr) in circuit.iter().enumerate() {
        match instr.qubits.len() {
            1 => {
                let q = instr.qubits[0];
                if let Some(id) = open[q] {
                    blocks[id].ops.push(i);
                } else {
                    pending[q].push(i);
                }
            }
            2 => {
                let (a, b) = (instr.qubits[0], instr.qubits[1]);
                let mut pair = vec![a, b];
                pair.sort_unstable();
                let same = match (open[a], open[b]) {
                    (Some(x), Some(y)) if x == y && blocks[x].qubits == pair => Some(x),
                    _ => None,
                };
                match same {
                    Some(id) => blocks[id].ops.push(i),
                    None => {
                        close_qubit(&mut open, a);
                        close_qubit(&mut open, b);
                        let id = blocks.len();
                        let mut ops: Vec<usize> = Vec::new();
                        // Absorb pending 1q gates on both qubits, in
                        // original order.
                        let mut merged: Vec<usize> = pending[a].drain(..).collect();
                        merged.append(&mut pending[b]);
                        merged.sort_unstable();
                        ops.extend(merged);
                        ops.push(i);
                        blocks.push(Block {
                            id,
                            qubits: pair,
                            ops,
                        });
                        open[a] = Some(id);
                        open[b] = Some(id);
                    }
                }
            }
            n => unreachable!("{n}-qubit instructions are not supported"),
        }
    }
    // Leftover pending single-qubit gates become single-qubit blocks.
    for (q, ops) in pending.into_iter().enumerate() {
        if !ops.is_empty() {
            let id = blocks.len();
            blocks.push(Block {
                id,
                qubits: vec![q],
                ops,
            });
        }
    }
    // Block ids follow creation order, which is topological: along any qubit
    // chain, block segments are contiguous and open in scan order (absorbed
    // pending gates are always a qubit's earliest unclaimed gates, so they
    // can only join the *next* block to claim that qubit).

    // Dependency edges: chain blocks along each qubit in order of the
    // earliest op that the block applies on that qubit.
    let mut edges = Vec::new();
    let mut op_block = vec![usize::MAX; circuit.len()];
    for b in &blocks {
        for &op in &b.ops {
            op_block[op] = b.id;
        }
    }
    let mut last_block_on_qubit: Vec<Option<usize>> = vec![None; nq];
    for (i, instr) in circuit.iter().enumerate() {
        let bid = op_block[i];
        for &q in &instr.qubits {
            if let Some(prev) = last_block_on_qubit[q] {
                if prev != bid && !edges.contains(&(prev, bid)) {
                    edges.push((prev, bid));
                }
            }
            last_block_on_qubit[q] = Some(bid);
        }
    }
    BlockPartition { blocks, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use qca_num::phase::approx_eq_up_to_phase;

    fn example_circuit() -> Circuit {
        // The flavor of Fig. 4: 3 qubits, blocks on (0,1), (1,2), (0,1).
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.3), &[1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::H, &[2]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::Cx, &[0, 1]);
        c
    }

    #[test]
    fn blocks_cover_all_ops_exactly_once() {
        let c = example_circuit();
        let p = partition_blocks(&c);
        let mut seen = vec![false; c.len()];
        for b in &p.blocks {
            for &op in &b.ops {
                assert!(!seen[op], "op {op} in two blocks");
                seen[op] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some op missing from blocks");
    }

    #[test]
    fn block_ops_use_only_block_qubits() {
        let c = example_circuit();
        let p = partition_blocks(&c);
        for b in &p.blocks {
            for &op in &b.ops {
                for q in &c.instrs()[op].qubits {
                    assert!(b.qubits.contains(q));
                }
            }
        }
    }

    #[test]
    fn example_block_structure() {
        let c = example_circuit();
        let p = partition_blocks(&c);
        assert_eq!(p.blocks.len(), 3);
        assert_eq!(p.blocks[0].qubits, vec![0, 1]);
        assert_eq!(p.blocks[1].qubits, vec![1, 2]);
        assert_eq!(p.blocks[2].qubits, vec![0, 1]);
        // ops: h(0), cx01, rz(1), cx01 in block 0
        assert_eq!(p.blocks[0].ops, vec![0, 1, 2, 3]);
        assert_eq!(p.blocks[1].ops, vec![4, 5, 6]);
        assert_eq!(p.blocks[2].ops, vec![7]);
        assert!(p.edges.contains(&(0, 1)));
        assert!(p.edges.contains(&(1, 2)));
    }

    #[test]
    fn trailing_single_qubit_gates_form_blocks() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::H, &[0]); // joins open block (0,1)
        let p = partition_blocks(&c);
        assert_eq!(p.blocks.len(), 1);

        let mut c2 = Circuit::new(2);
        c2.push(Gate::H, &[0]);
        c2.push(Gate::H, &[1]);
        let p2 = partition_blocks(&c2);
        assert_eq!(p2.blocks.len(), 2);
        assert!(p2.blocks.iter().all(|b| !b.is_two_qubit()));
        assert!(p2.edges.is_empty());
    }

    #[test]
    fn reconstruction_preserves_unitary() {
        let c = example_circuit();
        let p = partition_blocks(&c);
        // Re-emit the circuit block by block in topological (id) order.
        let mut rebuilt = Circuit::new(c.num_qubits());
        for id in p.topological_order() {
            for &op in &p.blocks[id].ops {
                let instr = &c.instrs()[op];
                rebuilt.push(instr.gate, &instr.qubits);
            }
        }
        assert!(approx_eq_up_to_phase(
            &c.unitary(),
            &rebuilt.unitary(),
            1e-10
        ));
    }

    #[test]
    fn block_circuit_extraction() {
        let c = example_circuit();
        let p = partition_blocks(&c);
        let b0 = p.block_circuit(&c, 0);
        assert_eq!(b0.num_qubits(), 2);
        assert_eq!(b0.len(), 4);
        // First op: H on local qubit 0 (global 0 -> position 0).
        assert_eq!(b0.instrs()[0].gate, Gate::H);
        assert_eq!(b0.instrs()[0].qubits, vec![0]);
    }

    #[test]
    fn interleaved_pairs_split_blocks() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::Cx, &[0, 1]);
        let p = partition_blocks(&c);
        assert_eq!(p.blocks.len(), 3, "alternating pairs cannot merge");
        assert!(p.edges.contains(&(0, 1)));
        assert!(p.edges.contains(&(1, 2)));
    }

    #[test]
    fn operand_order_within_pair_is_irrelevant() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        let p = partition_blocks(&c);
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(p.blocks[0].ops.len(), 2);
    }

    #[test]
    fn edges_are_acyclic() {
        let c = example_circuit();
        let p = partition_blocks(&c);
        for &(a, b) in &p.edges {
            assert!(a < b, "edge ({a},{b}) violates topological id order");
        }
    }
}
