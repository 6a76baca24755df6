//! Difference-logic constraint graphs and ASAP scheduling.
//!
//! Constraints of the form `x_j >= x_i + w` form a graph whose longest paths
//! from a virtual source give the earliest (ASAP) schedule — exactly the
//! block-start-time semantics of Eq. 2 in the paper. The tests check the
//! bit-blasted SMT schedule against these longest paths.

use std::collections::VecDeque;

/// A system of difference constraints `x_to >= x_from + weight` over
/// variables `0..n`, each additionally bounded below by zero.
#[derive(Debug, Clone, Default)]
pub struct DiffGraph {
    n: usize,
    edges: Vec<(usize, usize, i64)>,
}

/// Error returned when the constraint system admits no solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleError {
    /// A cycle of variable indices with positive total weight witnessing
    /// infeasibility.
    pub cycle: Vec<usize>,
}

impl std::fmt::Display for InfeasibleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "positive cycle through variables {:?}", self.cycle)
    }
}

impl std::error::Error for InfeasibleError {}

impl DiffGraph {
    /// Creates a system over `n` variables with no constraints.
    pub fn new(n: usize) -> Self {
        DiffGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the constraint `x_to >= x_from + weight`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_constraint(&mut self, from: usize, to: usize, weight: i64) {
        assert!(from < self.n && to < self.n, "variable index out of range");
        self.edges.push((from, to, weight));
    }

    /// Computes the earliest (ASAP) solution: the pointwise-minimal
    /// non-negative assignment satisfying every constraint.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleError`] when a positive-weight cycle makes the
    /// system unsatisfiable.
    pub fn asap_schedule(&self) -> Result<Vec<i64>, InfeasibleError> {
        // Longest-path Bellman-Ford (SPFA variant) from the implicit source
        // (all variables start at 0).
        let mut dist = vec![0i64; self.n];
        let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); self.n];
        for &(from, to, w) in &self.edges {
            adj[from].push((to, w));
        }
        let mut in_queue = vec![true; self.n];
        // Count *enqueues* per vertex (not relaxations: parallel edges can
        // legitimately relax a vertex several times from one neighbour).
        let mut enqueue_count = vec![1usize; self.n];
        let mut queue: VecDeque<usize> = (0..self.n).collect();
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &(v, w) in &adj[u] {
                if dist[u] + w > dist[v] {
                    dist[v] = dist[u] + w;
                    if !in_queue[v] {
                        enqueue_count[v] += 1;
                        if enqueue_count[v] > self.n + 1 {
                            return Err(InfeasibleError {
                                cycle: self.find_positive_cycle(),
                            });
                        }
                        in_queue[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        Ok(dist)
    }

    /// Locates some positive cycle (called only after Bellman-Ford detects
    /// non-termination).
    fn find_positive_cycle(&self) -> Vec<usize> {
        // Run n rounds of relaxation recording predecessors, then walk back.
        let mut dist = vec![0i64; self.n];
        let mut pred = vec![usize::MAX; self.n];
        let mut last_updated = usize::MAX;
        for _ in 0..=self.n {
            last_updated = usize::MAX;
            for &(from, to, w) in &self.edges {
                if dist[from] + w > dist[to] {
                    dist[to] = dist[from] + w;
                    pred[to] = from;
                    last_updated = to;
                }
            }
            if last_updated == usize::MAX {
                break;
            }
        }
        if last_updated == usize::MAX {
            return Vec::new();
        }
        // Walk predecessors n times to land inside the cycle, then collect.
        let mut v = last_updated;
        for _ in 0..self.n {
            v = pred[v];
        }
        let mut cycle = vec![v];
        let mut u = pred[v];
        while u != v {
            cycle.push(u);
            u = pred[u];
        }
        cycle.reverse();
        cycle
    }

    /// Verifies that `assignment` satisfies every constraint.
    pub fn is_satisfied_by(&self, assignment: &[i64]) -> bool {
        assignment.len() >= self.n
            && self
                .edges
                .iter()
                .all(|&(from, to, w)| assignment[to] >= assignment[from] + w)
            && assignment[..self.n].iter().all(|&x| x >= 0)
    }

    /// The makespan of an assignment: `max_i assignment[i]` (0 for empty).
    pub fn makespan(assignment: &[i64]) -> i64 {
        assignment.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_system_all_zero() {
        let g = DiffGraph::new(4);
        assert_eq!(g.asap_schedule().unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn chain_schedule() {
        let mut g = DiffGraph::new(3);
        g.add_constraint(0, 1, 5);
        g.add_constraint(1, 2, 7);
        let s = g.asap_schedule().unwrap();
        assert_eq!(s, vec![0, 5, 12]);
        assert!(g.is_satisfied_by(&s));
        assert_eq!(DiffGraph::makespan(&s), 12);
    }

    #[test]
    fn diamond_takes_longest_path() {
        let mut g = DiffGraph::new(4);
        g.add_constraint(0, 1, 3);
        g.add_constraint(0, 2, 10);
        g.add_constraint(1, 3, 4);
        g.add_constraint(2, 3, 1);
        let s = g.asap_schedule().unwrap();
        assert_eq!(s[3], 11); // via 0->2->3
    }

    #[test]
    fn positive_cycle_detected() {
        let mut g = DiffGraph::new(2);
        g.add_constraint(0, 1, 1);
        g.add_constraint(1, 0, 0);
        let err = g.asap_schedule().unwrap_err();
        assert!(!err.cycle.is_empty());
        // The returned cycle must have positive total weight.
        let mut total = 0;
        for i in 0..err.cycle.len() {
            let from = err.cycle[i];
            let to = err.cycle[(i + 1) % err.cycle.len()];
            let w = g
                .edges
                .iter()
                .filter(|&&(f, t, _)| f == from && t == to)
                .map(|&(_, _, w)| w)
                .max()
                .expect("cycle edge exists");
            total += w;
        }
        assert!(total > 0, "cycle weight {total}");
    }

    #[test]
    fn zero_cycle_is_feasible() {
        let mut g = DiffGraph::new(2);
        g.add_constraint(0, 1, 0);
        g.add_constraint(1, 0, 0);
        let s = g.asap_schedule().unwrap();
        assert_eq!(s, vec![0, 0]);
    }

    #[test]
    fn negative_weights_allowed() {
        // x1 >= x0 - 5 is trivially satisfied at zero.
        let mut g = DiffGraph::new(2);
        g.add_constraint(0, 1, -5);
        assert_eq!(g.asap_schedule().unwrap(), vec![0, 0]);
    }

    #[test]
    fn asap_is_pointwise_minimal() {
        let mut g = DiffGraph::new(3);
        g.add_constraint(0, 1, 2);
        g.add_constraint(0, 2, 9);
        g.add_constraint(1, 2, 3);
        let s = g.asap_schedule().unwrap();
        // any feasible t must have t[i] >= s[i]
        let feasible = vec![0, 4, 10];
        assert!(g.is_satisfied_by(&feasible));
        for i in 0..3 {
            assert!(s[i] <= feasible[i]);
        }
    }

    #[test]
    fn parallel_edges_are_not_a_cycle() {
        // Regression: multiple parallel edges between the same vertices must
        // not trip the positive-cycle detector.
        let mut g = DiffGraph::new(2);
        for w in [1, 2, 3, 1, 2] {
            g.add_constraint(0, 1, w);
        }
        assert_eq!(g.asap_schedule().unwrap(), vec![0, 3]);
    }
}
