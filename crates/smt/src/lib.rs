//! # qca-smt
//!
//! A small SMT/OMT engine built on the [`qca_sat`] CDCL solver, providing
//! exactly the fragment needed by the DATE 2023 quantum-circuit-adaptation
//! model:
//!
//! * Boolean structure (substitution choices and their conflicts),
//! * linear pseudo-Boolean sums (Boolean-conditioned durations/fidelities),
//! * bounded integers with ordering constraints (block start times),
//! * linear objective maximization ([`omt`]).
//!
//! Integer arithmetic is bit-blasted to CNF ([`bitvec`]). The crate's tests
//! check the bit-blasted schedules against a closed-form difference-logic
//! scheduler (the test-only `diff` module).
//!
//! # Examples
//!
//! Choosing substitutions to minimize a schedule makespan:
//!
//! ```
//! use qca_smt::{SmtSolver, omt};
//!
//! let mut smt = SmtSolver::new();
//! let use_fast = smt.new_bool();
//! // duration = 100, or 40 when the fast variant is chosen
//! let duration = smt.pb_sum(100, &[(-60, use_fast)]);
//! // score = 200 - duration (higher is better)
//! let cap = smt.int_const(200);
//! let score = smt.new_int(0, 200);
//! let total = smt.add(&score, &duration);
//! smt.assert_eq(&total, &cap);
//! let best = omt::maximize(&mut smt, &score).expect("satisfiable");
//! assert_eq!(best.value, 160);
//! assert!(best.model.lit_is_true(use_fast));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitvec;
#[cfg(test)]
mod diff;
pub mod omt;
pub mod record;
mod solver;

pub use record::{AuditBundle, RecordedConstraint};
pub use solver::{IntExpr, SmtModel, SmtSolver};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qca_sat::Lit;

    /// A node of a random expression DAG over three Boolean inputs; node
    /// operands index earlier nodes.
    #[derive(Debug, Clone)]
    enum Node {
        Pb(i64, Vec<i64>),
        Add(usize, usize),
        SubFromConst(i64, usize),
        MulConst(usize, i64),
        Ite(usize, usize, usize),
        Max(Vec<usize>),
        Sum(Vec<usize>),
    }

    /// The node's value by integer arithmetic under the input assignment.
    fn eval(nodes: &[Node], i: usize, x: [bool; 3]) -> i64 {
        match &nodes[i] {
            Node::Pb(base, w) => base + (0..3).filter(|&j| x[j]).map(|j| w[j]).sum::<i64>(),
            Node::Add(a, b) => eval(nodes, *a, x) + eval(nodes, *b, x),
            Node::SubFromConst(c, a) => c - eval(nodes, *a, x),
            Node::MulConst(a, k) => k * eval(nodes, *a, x),
            Node::Ite(c, a, b) => eval(nodes, if x[*c] { *a } else { *b }, x),
            Node::Max(es) => es.iter().map(|&e| eval(nodes, e, x)).max().unwrap(),
            Node::Sum(es) => es.iter().map(|&e| eval(nodes, e, x)).sum(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random expression DAGs: the solver's models, enumerated with
        /// blocking clauses over every variable, are exactly one per input
        /// assignment the constraints admit, and every expression and
        /// comparison literal in each model agrees with integer arithmetic.
        /// Leaves are PB sums with negative weights (some through
        /// `pb_sum_nonneg`, whose negative assignments are excluded by
        /// clauses); operands may repeat, so folded gates are exercised.
        #[test]
        fn expression_dags_agree_with_integer_arithmetic(
            leaves in proptest::collection::vec(
                (-6i64..12, proptest::collection::vec(-7i64..8, 3), any::<bool>()), 1..4),
            ops in proptest::collection::vec((0u8..7, 0usize..16, 0usize..16, 0i64..4), 0..8),
            bounds in proptest::collection::vec((0usize..16, -8i64..40), 1..4),
        ) {
            let mut smt = SmtSolver::new();
            let xs: Vec<Lit> = (0..3).map(|_| smt.new_bool()).collect();
            let assignment = |sigma: u32| [0, 1, 2].map(|j| (sigma >> j) & 1 == 1);
            let mut nodes: Vec<Node> = Vec::new();
            let mut exprs: Vec<IntExpr> = Vec::new();
            let mut excluded = [false; 8];
            for (base, w, nonneg) in &leaves {
                let terms: Vec<(i64, Lit)> = w.iter().copied().zip(xs.iter().copied()).collect();
                let node = Node::Pb(*base, w.clone());
                nodes.push(node);
                if *nonneg {
                    // Exclude the assignments on which the sum is negative.
                    for sigma in 0..8u32 {
                        let x = assignment(sigma);
                        if eval(&nodes, nodes.len() - 1, x) < 0 {
                            excluded[sigma as usize] = true;
                            let block: Vec<Lit> =
                                (0..3).map(|j| if x[j] { !xs[j] } else { xs[j] }).collect();
                            smt.add_clause(&block);
                        }
                    }
                    exprs.push(smt.pb_sum_nonneg(*base, &terms));
                } else {
                    exprs.push(smt.pb_sum(*base, &terms));
                }
            }
            for &(kind, a, b, k) in &ops {
                let n = nodes.len();
                let (a, b) = (a % n, b % n);
                let (node, expr) = match kind {
                    0 => (Node::Add(a, b), smt.add(&exprs[a], &exprs[b])),
                    1 => {
                        let c = exprs[a].hi + k;
                        (Node::SubFromConst(c, a), smt.sub_from_const(c, &exprs[a]))
                    }
                    2 => (Node::MulConst(a, k), smt.mul_const(&exprs[a], k)),
                    3 => {
                        let c = k as usize % 3;
                        (Node::Ite(c, a, b), smt.ite(xs[c], &exprs[a], &exprs[b]))
                    }
                    4 => {
                        let es = vec![a, b, (a + b) % n];
                        let picked: Vec<IntExpr> = es.iter().map(|&e| exprs[e].clone()).collect();
                        (Node::Max(es), smt.max_of(&picked))
                    }
                    5 => {
                        let es = vec![a, b, (a + b) % n];
                        let picked: Vec<IntExpr> = es.iter().map(|&e| exprs[e].clone()).collect();
                        (Node::Sum(es), smt.sum(&picked))
                    }
                    _ => (Node::Add(a, a), smt.add(&exprs[a], &exprs[a])),
                };
                nodes.push(node);
                exprs.push(expr);
            }
            let mut comparisons: Vec<(usize, i64, Lit)> = Vec::new();
            for &(e, c) in &bounds {
                let e = e % nodes.len();
                let bound = smt.int_const(c);
                comparisons.push((e, c, smt.ge_reified(&exprs[e], &bound)));
            }
            let admissible = excluded.iter().filter(|&&x| !x).count();
            let mut seen = [false; 8];
            let mut models = 0;
            while let Some(m) = smt.check() {
                models += 1;
                prop_assert!(models <= admissible, "more models than input assignments");
                let x = [0, 1, 2].map(|j| m.lit_is_true(xs[j]));
                let sigma = (0..3).filter(|&j| x[j]).map(|j| 1 << j).sum::<usize>();
                prop_assert!(!excluded[sigma] && !seen[sigma]);
                seen[sigma] = true;
                for (i, e) in exprs.iter().enumerate() {
                    let want = eval(&nodes, i, x);
                    prop_assert!(e.lo <= want && want <= e.hi, "node {i} bounds");
                    prop_assert_eq!(m.int_value(e), want, "node {} = {:?}", i, &nodes[i]);
                }
                for &(e, c, lit) in &comparisons {
                    prop_assert_eq!(m.lit_is_true(lit), eval(&nodes, e, x) >= c);
                }
                let block: Vec<Lit> = m
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(v, val)| {
                        let l = qca_sat::Var::from_index(v).positive();
                        if val.expect("complete model") { !l } else { l }
                    })
                    .collect();
                smt.add_clause(&block);
            }
            prop_assert_eq!(models, admissible);
        }
    }

    #[test]
    fn smt_schedule_matches_difference_logic() {
        // A diamond dependency graph with fixed durations: the SMT encoding's
        // minimal makespan must equal the closed-form longest path.
        let edges = [(0usize, 1usize, 10i64), (0, 2, 25), (1, 3, 12), (2, 3, 5)];
        let mut g = diff::DiffGraph::new(4);
        for &(a, b, w) in &edges {
            g.add_constraint(a, b, w);
        }
        let sched = g.asap_schedule().unwrap();
        let expect = diff::DiffGraph::makespan(&sched);

        let cap = 200i64;
        let mut smt = SmtSolver::new();
        let xs: Vec<_> = (0..4).map(|_| smt.new_int(0, cap)).collect();
        for &(a, b, w) in &edges {
            let wexpr = smt.int_const(w);
            let lhs = smt.add(&xs[a], &wexpr);
            smt.assert_ge(&xs[b], &lhs);
        }
        let mk = smt.new_int(0, cap);
        for x in &xs {
            smt.assert_ge(&mk, x);
        }
        let capx = smt.int_const(cap);
        let slack = smt.new_int(0, cap);
        let tot = smt.add(&slack, &mk);
        smt.assert_eq(&tot, &capx);
        let best = omt::maximize(&mut smt, &slack).unwrap();
        assert_eq!(cap - best.value, expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// OMT over a pure PB objective must match brute force.
        #[test]
        fn omt_matches_brute_force(
            weights in proptest::collection::vec(-15i64..15, 1..7),
            conflicts in proptest::collection::vec((0usize..7, 0usize..7), 0..5),
        ) {
            let n = weights.len();
            let mut smt = SmtSolver::new();
            let xs: Vec<_> = (0..n).map(|_| smt.new_bool()).collect();
            let mut cl: Vec<(usize, usize)> = Vec::new();
            for &(i, j) in &conflicts {
                let (i, j) = (i % n, j % n);
                cl.push((i, j));
                smt.add_clause(&[!xs[i], !xs[j]]);
            }
            let terms: Vec<_> = weights.iter().zip(&xs).map(|(&w, &x)| (w, x)).collect();
            let obj = smt.pb_sum(0, &terms);
            let best = omt::maximize(&mut smt, &obj).unwrap();

            // brute force
            let mut expect = i64::MIN;
            'outer: for bits in 0u32..(1 << n) {
                for &(i, j) in &cl {
                    if (bits >> i) & 1 == 1 && (bits >> j) & 1 == 1 {
                        continue 'outer;
                    }
                }
                let v: i64 = (0..n).map(|k| if (bits >> k) & 1 == 1 { weights[k] } else { 0 }).sum();
                expect = expect.max(v);
            }
            prop_assert_eq!(best.value, expect);
        }

        /// ASAP schedules from the closed-form scheduler always satisfy the
        /// constraint system.
        #[test]
        fn asap_is_feasible(
            n in 2usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0i64..20), 0..15),
        ) {
            let mut g = diff::DiffGraph::new(n);
            // Keep it acyclic: only forward edges.
            for &(a, b, w) in &edges {
                let (a, b) = (a % n, b % n);
                if a < b {
                    g.add_constraint(a, b, w);
                }
            }
            let s = g.asap_schedule().unwrap();
            prop_assert!(g.is_satisfied_by(&s));
        }

        /// The bit-blasted scheduler and the closed-form scheduler agree on
        /// minimal makespan for small chains.
        #[test]
        fn smt_and_diff_agree_on_makespan(
            durations in proptest::collection::vec(1i64..20, 1..5),
        ) {
            let n = durations.len();
            // Closed form: chain makespan = sum of durations.
            let mut g = diff::DiffGraph::new(n + 1);
            for (i, &d) in durations.iter().enumerate() {
                g.add_constraint(i, i + 1, d);
            }
            let sched = g.asap_schedule().unwrap();
            let expect = diff::DiffGraph::makespan(&sched);

            // SMT: maximize slack = CAP - makespan.
            let cap_v = 200i64;
            let mut smt = SmtSolver::new();
            let es: Vec<_> = (0..=n).map(|_| smt.new_int(0, cap_v)).collect();
            for (i, &dur) in durations.iter().enumerate() {
                let d = smt.int_const(dur);
                let lhs = smt.add(&es[i], &d);
                smt.assert_ge(&es[i + 1], &lhs);
            }
            let cap = smt.int_const(cap_v);
            let slack = smt.new_int(0, cap_v);
            let tot = smt.add(&slack, &es[n]);
            smt.assert_eq(&tot, &cap);
            let best = omt::maximize(&mut smt, &slack).unwrap();
            prop_assert_eq!(cap_v - best.value, expect);
        }
    }
}
