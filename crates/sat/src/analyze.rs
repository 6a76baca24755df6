//! Static CNF analysis and a proof-logging, inprocessing-free preprocessor.
//!
//! Two entry points share this module:
//!
//! * [`analyze`] inspects a formula without changing it and returns a
//!   [`FormulaReport`] — occurrence/polarity tables, unit and pure literals,
//!   duplicate/tautological/subsumed clauses, connected components of the
//!   variable-interaction graph, and a bounded failed-literal probe. The
//!   report feeds the `QCA05xx` lint family in `qca-lint`.
//! * [`preprocess`] simplifies a formula before search: unit propagation,
//!   pure-literal elimination, subsumption, self-subsuming resolution, and
//!   bounded variable elimination. Every derived clause is streamed to the
//!   caller's [`ProofSink`] *before* the solver loads anything, and every
//!   removed clause is logged as a deletion, so a DRAT trace spanning
//!   preprocessing **and** search still checks end-to-end with the
//!   independent RUP checker in `qca-verify`.
//!
//! # Proof discipline
//!
//! The checker is RUP-only, which constrains what each technique may emit:
//!
//! * **Unit propagation** — a derived unit or strengthened clause is added
//!   first (it is RUP while its antecedent is still in the database), then
//!   the antecedent is deleted. Fixed variables *stay in the simplified
//!   formula as unit clauses*: deleting them could strip later proof steps
//!   of their justification, and keeping them makes solver verdicts and
//!   models bit-identical to the raw path.
//! * **Pure-literal elimination** — deletion-only. The unit `[l]` for a pure
//!   literal is RAT but not RUP, so it is never added; deleting the clauses
//!   containing `l` is always sound for a refutation, and the model side is
//!   repaired by the reconstruction stack.
//! * **Subsumption** — deletion-only.
//! * **Self-subsuming resolution / variable elimination** — each resolvent
//!   is RUP against the two parents (asserting its negation unit-propagates
//!   both to conflict), so resolvents are added before their parents are
//!   deleted.
//!
//! # Model reconstruction
//!
//! Pure-literal elimination and variable elimination remove variables from
//! the formula; the solver assigns those variables arbitrarily. The
//! [`Reconstruction`] stack records enough to overwrite them: replayed in
//! reverse, each step either re-asserts the pure literal or picks the
//! eliminated variable's polarity so every clause it was resolved out of is
//! satisfied. `qca-verify::model` replays the same stack independently.

use crate::dimacs::Cnf;
use crate::lit::{Lit, Var};
use crate::proof::ProofSink;
use std::collections::{HashMap, VecDeque};

/// Upper bound on failed-literal probes per [`analyze`] call.
const MAX_PROBES: usize = 64;

/// Static analysis of a CNF formula; see [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct FormulaReport {
    /// Declared variable count.
    pub num_vars: usize,
    /// Clause count as given (before any normalization).
    pub num_clauses: usize,
    /// Per-variable `[positive, negative]` occurrence counts over
    /// normalized, non-tautological clauses.
    pub occurrences: Vec<[usize; 2]>,
    /// Literals asserted by unit clauses.
    pub units: Vec<Lit>,
    /// Variables asserted both positively and negatively by unit clauses.
    pub contradictory_units: Vec<Var>,
    /// Literals whose variable occurs in one polarity only (unit-fixed
    /// variables excluded).
    pub pure_literals: Vec<Lit>,
    /// Indices of tautological clauses (`x ∨ ¬x`).
    pub tautologies: Vec<usize>,
    /// Indices of clauses duplicating an earlier clause.
    pub duplicates: Vec<usize>,
    /// Indices of clauses subsumed by a distinct, smaller-or-equal clause
    /// (duplicates and tautologies excluded).
    pub subsumed: Vec<usize>,
    /// Connected components of the variable-interaction graph (variables
    /// co-occurring in a clause are connected); isolated unused variables
    /// are not listed.
    pub components: Vec<Vec<Var>>,
    /// Literals a bounded probe proved *failed*: asserting the literal unit-
    /// propagates to conflict, so its negation is a backbone literal.
    pub failed_literals: Vec<Lit>,
}

/// Sorted-by-code, deduplicated copy; `None` for tautologies.
fn normalize(lits: &[Lit]) -> Option<Vec<Lit>> {
    let mut c = lits.to_vec();
    c.sort_unstable_by_key(|l| l.code());
    c.dedup();
    for w in c.windows(2) {
        if w[1].code() == w[0].code() + 1 && w[0].code() % 2 == 0 {
            return None;
        }
    }
    Some(c)
}

/// `true` when sorted clause `a` is a subset of sorted clause `b`.
fn is_subset(a: &[Lit], b: &[Lit]) -> bool {
    let mut j = 0;
    for &l in a {
        loop {
            if j == b.len() {
                return false;
            }
            if b[j] == l {
                j += 1;
                break;
            }
            if b[j].code() > l.code() {
                return false;
            }
            j += 1;
        }
    }
    true
}

/// `true` when sorted `a` minus `skip` is a subset of sorted `b`.
fn is_subset_except(a: &[Lit], skip: Lit, b: &[Lit]) -> bool {
    let mut j = 0;
    for &l in a {
        if l == skip {
            continue;
        }
        loop {
            if j == b.len() {
                return false;
            }
            if b[j] == l {
                j += 1;
                break;
            }
            if b[j].code() > l.code() {
                return false;
            }
            j += 1;
        }
    }
    true
}

/// Union-find over variable indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Counter/scan unit propagation over normalized clauses, used by the
/// failed-literal probe (deliberately simple; probing is bounded).
struct Probe<'a> {
    clauses: &'a [Vec<Lit>],
    occ: Vec<Vec<usize>>,
    assign: Vec<i8>,
    trail: Vec<Lit>,
}

impl<'a> Probe<'a> {
    fn new(num_vars: usize, clauses: &'a [Vec<Lit>]) -> Probe<'a> {
        let mut occ = vec![Vec::new(); 2 * num_vars];
        for (ci, c) in clauses.iter().enumerate() {
            for l in c {
                occ[l.code()].push(ci);
            }
        }
        Probe {
            clauses,
            occ,
            assign: vec![0; num_vars],
            trail: Vec::new(),
        }
    }

    fn value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    fn assume(&mut self, l: Lit) {
        self.assign[l.var().index()] = if l.is_positive() { 1 } else { -1 };
        self.trail.push(l);
    }

    /// Propagates from trail position `head`; `true` on conflict.
    fn propagate(&mut self, mut head: usize) -> bool {
        while head < self.trail.len() {
            let falsified = !self.trail[head];
            head += 1;
            let mut k = 0;
            while k < self.occ[falsified.code()].len() {
                let ci = self.occ[falsified.code()][k];
                k += 1;
                let mut unassigned = None;
                let mut n_unassigned = 0;
                let mut satisfied = false;
                for &l in &self.clauses[ci] {
                    match self.value(l) {
                        1 => {
                            satisfied = true;
                            break;
                        }
                        0 => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return true,
                    1 => self.assume(unassigned.expect("unit literal")),
                    _ => {}
                }
            }
        }
        false
    }

    fn rollback(&mut self, mark: usize) {
        for i in mark..self.trail.len() {
            let l = self.trail[i];
            self.assign[l.var().index()] = 0;
        }
        self.trail.truncate(mark);
    }
}

/// Statically analyzes a formula without modifying it.
///
/// # Examples
///
/// ```
/// use qca_sat::analyze::analyze;
/// use qca_sat::dimacs::parse_dimacs;
///
/// // Var 2 is pure (negative only); clause 2 is subsumed by clause 0.
/// let cnf = parse_dimacs("p cnf 3 3\n1 -2 0\n3 0\n1 -2 3 0\n".as_bytes()).unwrap();
/// let report = analyze(&cnf);
/// assert_eq!(report.units.len(), 1);
/// assert_eq!(report.pure_literals.len(), 2);
/// assert_eq!(report.subsumed, vec![2]);
/// ```
pub fn analyze(cnf: &Cnf) -> FormulaReport {
    let mut report = FormulaReport {
        num_vars: cnf.num_vars,
        num_clauses: cnf.clauses.len(),
        occurrences: vec![[0, 0]; cnf.num_vars],
        ..FormulaReport::default()
    };
    // Normalized, non-tautological clause bodies (with their original index).
    let mut bodies: Vec<Vec<Lit>> = Vec::new();
    let mut body_index: Vec<usize> = Vec::new();
    let mut seen: HashMap<Vec<Lit>, ()> = HashMap::new();
    let mut uf = UnionFind::new(cnf.num_vars);
    let mut used = vec![false; cnf.num_vars];
    for (ci, clause) in cnf.clauses.iter().enumerate() {
        let Some(body) = normalize(clause) else {
            report.tautologies.push(ci);
            continue;
        };
        for &l in &body {
            report.occurrences[l.var().index()][usize::from(!l.is_positive())] += 1;
            used[l.var().index()] = true;
        }
        for w in body.windows(2) {
            uf.union(w[0].var().index(), w[1].var().index());
        }
        if seen.insert(body.clone(), ()).is_some() {
            report.duplicates.push(ci);
            continue;
        }
        if body.len() == 1 {
            report.units.push(body[0]);
        }
        bodies.push(body);
        body_index.push(ci);
    }
    // Contradictory units.
    {
        let mut unit_sign = vec![0i8; cnf.num_vars];
        for &l in &report.units {
            let s = if l.is_positive() { 1 } else { -1 };
            let slot = &mut unit_sign[l.var().index()];
            if *slot == -s {
                report.contradictory_units.push(l.var());
            }
            *slot = s;
        }
        report.contradictory_units.sort_unstable();
        report.contradictory_units.dedup();
    }
    // Pure literals (unit-fixed variables excluded).
    let unit_vars: Vec<bool> = {
        let mut uv = vec![false; cnf.num_vars];
        for &l in &report.units {
            uv[l.var().index()] = true;
        }
        uv
    };
    for (v, &unit_fixed) in unit_vars.iter().enumerate() {
        let [p, n] = report.occurrences[v];
        if unit_fixed || p + n == 0 {
            continue;
        }
        if p == 0 {
            report.pure_literals.push(Var::from_index(v).negative());
        } else if n == 0 {
            report.pure_literals.push(Var::from_index(v).positive());
        }
    }
    // Subsumption: for each clause, scan the occurrence list of its rarest
    // literal for distinct supersets.
    {
        let mut occ = vec![Vec::new(); 2 * cnf.num_vars];
        for (bi, body) in bodies.iter().enumerate() {
            for l in body {
                occ[l.code()].push(bi);
            }
        }
        let mut subsumed = vec![false; bodies.len()];
        for (bi, body) in bodies.iter().enumerate() {
            let Some(&rarest) = body.iter().min_by_key(|l| occ[l.code()].len()) else {
                continue;
            };
            for &di in &occ[rarest.code()] {
                if di == bi || subsumed[di] {
                    continue;
                }
                let d = &bodies[di];
                if d.len() > body.len() && is_subset(body, d) {
                    subsumed[di] = true;
                }
            }
        }
        for (bi, &flag) in subsumed.iter().enumerate() {
            if flag {
                report.subsumed.push(body_index[bi]);
            }
        }
        report.subsumed.sort_unstable();
    }
    // Connected components.
    {
        let mut groups: HashMap<usize, Vec<Var>> = HashMap::new();
        for (v, &in_use) in used.iter().enumerate() {
            if in_use {
                let root = uf.find(v);
                groups.entry(root).or_default().push(Var::from_index(v));
            }
        }
        let mut components: Vec<Vec<Var>> = groups.into_values().collect();
        components.sort_by_key(|c| c[0]);
        report.components = components;
    }
    // Failed-literal probe over binary-clause literals, bounded.
    if report.contradictory_units.is_empty() {
        let mut probe = Probe::new(cnf.num_vars, &bodies);
        let mut base_conflict = false;
        for &l in &report.units {
            match probe.value(l) {
                1 => {}
                -1 => base_conflict = true,
                _ => probe.assume(l),
            }
        }
        if !base_conflict && !probe.propagate(0) {
            let base = probe.trail.len();
            let mut candidates: Vec<Lit> = bodies
                .iter()
                .filter(|b| b.len() == 2)
                .flat_map(|b| [!b[0], !b[1]])
                .collect();
            candidates.sort_unstable_by_key(|l| l.code());
            candidates.dedup();
            for cand in candidates.into_iter().take(MAX_PROBES) {
                if probe.value(cand) != 0 {
                    continue;
                }
                probe.assume(cand);
                let conflict = probe.propagate(base);
                probe.rollback(base);
                if conflict {
                    report.failed_literals.push(cand);
                }
            }
        }
    }
    report
}

/// Options for [`preprocess`].
#[derive(Debug, Clone)]
pub struct PreprocessOptions {
    /// Variables that must survive preprocessing untouched by pure-literal
    /// elimination and variable elimination — required for any variable the
    /// caller will later pass as an assumption. (Unit-fixed variables always
    /// stay in the formula, so they need no freezing.)
    pub frozen: Vec<Var>,
    /// Maximum simplification rounds (each round runs every technique to a
    /// local fixpoint).
    pub max_rounds: usize,
    /// Variable elimination is skipped for variables with more total
    /// occurrences than this.
    pub bve_max_occurrences: usize,
    /// Variable elimination may grow the clause count by at most this many
    /// clauses per eliminated variable.
    pub bve_growth: usize,
}

impl Default for PreprocessOptions {
    fn default() -> Self {
        PreprocessOptions {
            frozen: Vec::new(),
            max_rounds: 5,
            bve_max_occurrences: 16,
            bve_growth: 0,
        }
    }
}

/// Counters from one [`preprocess`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Variables fixed at the root (input units plus derived units).
    pub units: usize,
    /// Pure literals eliminated.
    pub pures: usize,
    /// Clauses removed by subsumption or duplicate detection.
    pub subsumed: usize,
    /// Clauses strengthened (a falsified or self-subsumed literal removed).
    pub strengthened: usize,
    /// Variables removed by bounded variable elimination.
    pub eliminated: usize,
    /// Tautological input clauses dropped.
    pub tautologies: usize,
    /// Simplification rounds executed.
    pub rounds: usize,
}

/// One entry of the model-reconstruction stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructStep {
    /// `lit` was pure: every clause containing it was deleted, and the
    /// extended model must make it true.
    Pure(Lit),
    /// `var` was eliminated by resolution; `clauses` are the clauses it
    /// occurred in at elimination time. The extended model picks the
    /// polarity satisfying all of them.
    Eliminated {
        /// The eliminated variable.
        var: Var,
        /// Its occurrence list at elimination time (both polarities).
        clauses: Vec<Vec<Lit>>,
    },
}

/// Records how to extend a simplified-formula model back to the original
/// variables; see the module docs for why replay order matters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reconstruction {
    steps: Vec<ReconstructStep>,
}

impl Reconstruction {
    /// The recorded steps, oldest first.
    pub fn steps(&self) -> &[ReconstructStep] {
        &self.steps
    }

    /// `true` when no variable needs reconstruction.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Extends (and where necessary overwrites) `model` so it satisfies the
    /// original formula, replaying the stack newest-first. Entries for
    /// variables the simplified formula no longer constrains are
    /// overwritten even when assigned: the solver's value for an absent
    /// variable is arbitrary. Unassigned entries are read as `false`, so a
    /// caller defaulting leftover `None`s must default them to `false` too.
    pub fn extend(&self, model: &mut [Option<bool>]) {
        let truthy = |model: &[Option<bool>], l: Lit| {
            model[l.var().index()].unwrap_or(false) == l.is_positive()
        };
        for step in self.steps.iter().rev() {
            match step {
                ReconstructStep::Pure(l) => {
                    model[l.var().index()] = Some(l.is_positive());
                }
                ReconstructStep::Eliminated { var, clauses } => {
                    let mut value = false;
                    for c in clauses {
                        let positive = c.iter().any(|&m| m == var.positive());
                        if positive && !c.iter().any(|&m| m.var() != *var && truthy(model, m)) {
                            value = true;
                            break;
                        }
                    }
                    model[var.index()] = Some(value);
                }
            }
        }
    }
}

/// Result of [`preprocess`].
#[derive(Debug, Clone)]
pub struct PreprocessResult {
    /// The simplified formula. Variable numbering and `num_vars` are
    /// unchanged; fixed variables remain as unit clauses. When
    /// preprocessing refutes the formula this is the single empty clause.
    pub cnf: Cnf,
    /// `true` when preprocessing derived the empty clause.
    pub unsat: bool,
    /// Technique counters.
    pub stats: PreprocessStats,
    /// Stack extending simplified models back to original variables.
    pub reconstruction: Reconstruction,
}

/// Simplifies `cnf` with proof logging; see the module docs for the
/// technique list and proof discipline.
///
/// `proof`, when present, receives every derived clause (additions before
/// the deletions they justify) so the stream prefixes a later solver proof
/// over the simplified formula.
///
/// # Examples
///
/// ```
/// use qca_sat::analyze::{preprocess, PreprocessOptions};
/// use qca_sat::dimacs::parse_dimacs;
///
/// let cnf = parse_dimacs("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n".as_bytes()).unwrap();
/// let result = preprocess(&cnf, &PreprocessOptions::default(), None);
/// assert!(!result.unsat);
/// assert_eq!(result.stats.units, 3); // the whole chain is backbone
/// ```
pub fn preprocess(
    cnf: &Cnf,
    options: &PreprocessOptions,
    proof: Option<&mut dyn ProofSink>,
) -> PreprocessResult {
    let mut pre = Pre::new(cnf, options, proof);
    pre.run(options);
    pre.finish(cnf.num_vars)
}

/// Working state of one preprocessing run.
struct Pre<'a> {
    num_vars: usize,
    /// Clause bodies (sorted by literal code, deduplicated); `None` once
    /// removed.
    clauses: Vec<Option<Vec<Lit>>>,
    /// Literal code → ids of active clauses containing it (kept accurate).
    occ: Vec<Vec<usize>>,
    /// Root-level assignment of fixed variables.
    assign: Vec<Option<bool>>,
    /// Per variable: the id of the unit clause kept in the formula for it.
    kept_unit: Vec<Option<usize>>,
    frozen: Vec<bool>,
    queue: VecDeque<Lit>,
    proof: Option<&'a mut dyn ProofSink>,
    stats: PreprocessStats,
    recon: Vec<ReconstructStep>,
    unsat: bool,
}

impl<'a> Pre<'a> {
    fn new(cnf: &Cnf, options: &PreprocessOptions, proof: Option<&'a mut dyn ProofSink>) -> Self {
        let mut frozen = vec![false; cnf.num_vars];
        for v in &options.frozen {
            if v.index() < cnf.num_vars {
                frozen[v.index()] = true;
            }
        }
        let mut pre = Pre {
            num_vars: cnf.num_vars,
            clauses: Vec::new(),
            occ: vec![Vec::new(); 2 * cnf.num_vars],
            assign: vec![None; cnf.num_vars],
            kept_unit: vec![None; cnf.num_vars],
            frozen,
            queue: VecDeque::new(),
            proof,
            stats: PreprocessStats::default(),
            recon: Vec::new(),
            unsat: false,
        };
        let mut seen: HashMap<Vec<Lit>, ()> = HashMap::new();
        for clause in &cnf.clauses {
            if clause.is_empty() {
                pre.emit_add(&[]);
                pre.unsat = true;
                break;
            }
            let Some(body) = normalize(clause) else {
                pre.stats.tautologies += 1;
                continue;
            };
            if seen.insert(body.clone(), ()).is_some() {
                // Exact duplicate: delete the extra copy.
                pre.emit_delete(&body);
                pre.stats.subsumed += 1;
                continue;
            }
            pre.insert_clause(body);
        }
        pre
    }

    fn emit_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_deref_mut() {
            p.add_clause(lits);
        }
    }

    fn emit_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_deref_mut() {
            p.delete_clause(lits);
        }
    }

    fn insert_clause(&mut self, body: Vec<Lit>) -> usize {
        let ci = self.clauses.len();
        for l in &body {
            self.occ[l.code()].push(ci);
        }
        self.clauses.push(Some(body));
        ci
    }

    /// Detaches clause `ci` from the database, returning its body.
    fn detach(&mut self, ci: usize) -> Vec<Lit> {
        let body = self.clauses[ci].take().expect("detach of removed clause");
        for l in &body {
            self.occ[l.code()].retain(|&id| id != ci);
        }
        body
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|b| b == l.is_positive())
    }

    /// Fixes `l` at the root, recording `unit_clause` as the copy kept in
    /// the simplified formula. `false` on conflict.
    fn fix(&mut self, l: Lit, unit_clause: usize) -> bool {
        match self.value(l) {
            Some(true) => true,
            Some(false) => {
                // Both [l] and [!l] are in the database, so the empty
                // clause is RUP.
                self.emit_add(&[]);
                self.unsat = true;
                false
            }
            None => {
                self.assign[l.var().index()] = Some(l.is_positive());
                self.kept_unit[l.var().index()] = Some(unit_clause);
                self.stats.units += 1;
                self.queue.push_back(l);
                true
            }
        }
    }

    /// Unit propagation to fixpoint: satisfied clauses are deleted (except
    /// each fixed variable's kept unit), falsified literals are removed by
    /// add-then-delete strengthening. Returns `true` when anything changed.
    fn propagate_units(&mut self) -> bool {
        let mut changed = false;
        // Pick up unit clauses created since the last call (input units,
        // SSR/BVE resolvents of length 1).
        for ci in 0..self.clauses.len() {
            if self.unsat {
                return changed;
            }
            let Some(body) = &self.clauses[ci] else {
                continue;
            };
            if body.len() == 1 {
                let l = body[0];
                if self.value(l).is_none() && !self.fix(l, ci) {
                    return true;
                }
            }
        }
        while let Some(l) = self.queue.pop_front() {
            changed = true;
            let kept = self.kept_unit[l.var().index()];
            // Clauses satisfied by l: delete all but the kept unit.
            for ci in self.occ[l.code()].clone() {
                if Some(ci) == kept || self.clauses[ci].is_none() {
                    continue;
                }
                let body = self.detach(ci);
                self.emit_delete(&body);
            }
            // Clauses containing !l: strengthen (or delete if satisfied by
            // some other fixed literal).
            for ci in self.occ[(!l).code()].clone() {
                let Some(body) = self.clauses[ci].clone() else {
                    continue;
                };
                if body.iter().any(|&m| self.value(m) == Some(true)) {
                    let body = self.detach(ci);
                    self.emit_delete(&body);
                    continue;
                }
                let stripped: Vec<Lit> = body
                    .iter()
                    .copied()
                    .filter(|&m| self.value(m).is_none())
                    .collect();
                if stripped.is_empty() {
                    // body was falsified outright: its negation unit-
                    // propagates from the kept units, so [] is RUP.
                    self.emit_add(&[]);
                    self.unsat = true;
                    return true;
                }
                self.emit_add(&stripped);
                self.emit_delete(&body);
                self.stats.strengthened += 1;
                let old = self.detach(ci);
                debug_assert_eq!(old, body);
                let ni = self.insert_clause(stripped.clone());
                if stripped.len() == 1 && !self.fix(stripped[0], ni) {
                    return true;
                }
            }
        }
        changed
    }

    /// Subsumption and self-subsuming resolution. Returns `true` when
    /// anything changed (units created here are only queued; the caller
    /// runs propagation next).
    fn subsume_pass(&mut self) -> bool {
        let mut changed = false;
        for ci in 0..self.clauses.len() {
            if self.unsat {
                return changed;
            }
            let Some(body) = self.clauses[ci].clone() else {
                continue;
            };
            // Backward subsumption via the rarest literal's occurrences.
            if let Some(&rarest) = body.iter().min_by_key(|l| self.occ[l.code()].len()) {
                for di in self.occ[rarest.code()].clone() {
                    if di == ci {
                        continue;
                    }
                    let Some(d) = &self.clauses[di] else {
                        continue;
                    };
                    if d.len() >= body.len() && is_subset(&body, d) {
                        let d = self.detach(di);
                        self.emit_delete(&d);
                        self.stats.subsumed += 1;
                        changed = true;
                    }
                }
            }
            // Self-subsuming resolution: D ∋ !l with body\{l} ⊆ D lets D
            // drop !l (the resolvent of body and D on l subsumes D).
            for &l in &body {
                for di in self.occ[(!l).code()].clone() {
                    let Some(d) = self.clauses[di].clone() else {
                        continue;
                    };
                    if d.len() < body.len() || !is_subset_except(&body, l, &d) {
                        continue;
                    }
                    let stripped: Vec<Lit> = d.iter().copied().filter(|&m| m != !l).collect();
                    if stripped.is_empty() {
                        self.emit_add(&[]);
                        self.unsat = true;
                        return true;
                    }
                    self.emit_add(&stripped);
                    self.emit_delete(&d);
                    self.stats.strengthened += 1;
                    changed = true;
                    self.detach(di);
                    let ni = self.insert_clause(stripped.clone());
                    if stripped.len() == 1 && !self.fix(stripped[0], ni) {
                        return true;
                    }
                }
            }
        }
        changed
    }

    /// Pure-literal elimination (deletion-only; model repaired by the
    /// reconstruction stack). Frozen and fixed variables are skipped.
    fn pure_pass(&mut self) -> bool {
        let mut changed = false;
        let mut progress = true;
        while progress && !self.unsat {
            progress = false;
            for v in 0..self.num_vars {
                if self.frozen[v] || self.assign[v].is_some() {
                    continue;
                }
                let var = Var::from_index(v);
                let p = self.occ[var.positive().code()].len();
                let n = self.occ[var.negative().code()].len();
                if p + n == 0 || (p > 0 && n > 0) {
                    continue;
                }
                let pure = if p > 0 {
                    var.positive()
                } else {
                    var.negative()
                };
                for ci in self.occ[pure.code()].clone() {
                    let body = self.detach(ci);
                    self.emit_delete(&body);
                }
                self.recon.push(ReconstructStep::Pure(pure));
                self.stats.pures += 1;
                changed = true;
                progress = true;
            }
        }
        changed
    }

    /// Bounded variable elimination: a variable within the occurrence cap
    /// is resolved away when its non-tautological resolvents do not grow
    /// the clause count beyond the allowance.
    fn bve_pass(&mut self, max_occ: usize, growth: usize) -> bool {
        let mut changed = false;
        let mut order: Vec<usize> = (0..self.num_vars)
            .filter(|&v| !self.frozen[v] && self.assign[v].is_none())
            .collect();
        order.sort_by_key(|&v| {
            let var = Var::from_index(v);
            self.occ[var.positive().code()].len() + self.occ[var.negative().code()].len()
        });
        for v in order {
            if self.unsat {
                return changed;
            }
            if self.assign[v].is_some() {
                continue; // fixed by a unit resolvent earlier in this pass
            }
            let var = Var::from_index(v);
            let pos_ids = self.occ[var.positive().code()].clone();
            let neg_ids = self.occ[var.negative().code()].clone();
            if pos_ids.is_empty() || neg_ids.is_empty() {
                continue; // pure or absent; not BVE's job
            }
            if pos_ids.len() + neg_ids.len() > max_occ {
                continue;
            }
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            for &pi in &pos_ids {
                let p = self.clauses[pi].clone().expect("active clause");
                for &ni in &neg_ids {
                    let n = self.clauses[ni].clone().expect("active clause");
                    let r: Vec<Lit> = p
                        .iter()
                        .chain(n.iter())
                        .copied()
                        .filter(|&m| m.var() != var)
                        .collect();
                    if let Some(body) = normalize(&r) {
                        resolvents.push(body);
                    }
                }
            }
            resolvents.sort();
            resolvents.dedup();
            if resolvents.len() > pos_ids.len() + neg_ids.len() + growth {
                continue;
            }
            // Commit: record the occurrence list, add every resolvent
            // (RUP against its still-present parents), then delete the
            // originals.
            let originals: Vec<Vec<Lit>> = pos_ids
                .iter()
                .chain(neg_ids.iter())
                .map(|&ci| self.clauses[ci].clone().expect("active clause"))
                .collect();
            self.recon.push(ReconstructStep::Eliminated {
                var,
                clauses: originals,
            });
            let mut new_units: Vec<usize> = Vec::new();
            for r in resolvents {
                self.emit_add(&r);
                if r.is_empty() {
                    self.unsat = true;
                    return true;
                }
                let ni = self.insert_clause(r.clone());
                if r.len() == 1 {
                    new_units.push(ni);
                }
            }
            for ci in pos_ids.into_iter().chain(neg_ids) {
                let body = self.detach(ci);
                self.emit_delete(&body);
            }
            for ni in new_units {
                if let Some(body) = self.clauses[ni].clone() {
                    if body.len() == 1 && !self.fix(body[0], ni) {
                        return true;
                    }
                }
            }
            self.stats.eliminated += 1;
            changed = true;
        }
        changed
    }

    fn run(&mut self, options: &PreprocessOptions) {
        for _ in 0..options.max_rounds.max(1) {
            if self.unsat {
                break;
            }
            let mut changed = self.propagate_units();
            if self.unsat {
                break;
            }
            changed |= self.subsume_pass();
            if self.unsat {
                break;
            }
            changed |= self.propagate_units();
            if self.unsat {
                break;
            }
            changed |= self.pure_pass();
            changed |= self.bve_pass(options.bve_max_occurrences, options.bve_growth);
            if self.unsat {
                break;
            }
            changed |= self.propagate_units();
            self.stats.rounds += 1;
            if !changed {
                break;
            }
        }
    }

    fn finish(self, num_vars: usize) -> PreprocessResult {
        let clauses = if self.unsat {
            vec![Vec::new()]
        } else {
            self.clauses.into_iter().flatten().collect()
        };
        PreprocessResult {
            cnf: Cnf { num_vars, clauses },
            unsat: self.unsat,
            stats: self.stats,
            reconstruction: Reconstruction { steps: self.recon },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimacs::parse_dimacs;

    fn cnf(text: &str) -> Cnf {
        parse_dimacs(text.as_bytes()).unwrap()
    }

    fn dimacs_clauses(c: &Cnf) -> Vec<Vec<i64>> {
        c.clauses
            .iter()
            .map(|cl| cl.iter().map(|l| l.to_dimacs()).collect())
            .collect()
    }

    #[test]
    fn analyze_reports_units_pures_and_tautologies() {
        let c = cnf("p cnf 4 4\n1 0\n-1 2 0\n3 -3 0\n-4 2 0\n");
        let r = analyze(&c);
        assert_eq!(r.units, vec![Lit::from_dimacs(1)]);
        assert_eq!(r.tautologies, vec![2]);
        // Var 2 occurs only positively, var 4 only negatively; var 1 is a
        // unit so it is excluded from the pure list.
        assert_eq!(
            r.pure_literals,
            vec![Lit::from_dimacs(2), Lit::from_dimacs(-4)]
        );
        assert_eq!(r.occurrences[0], [1, 1]);
    }

    #[test]
    fn analyze_finds_duplicates_and_subsumed() {
        let c = cnf("p cnf 3 4\n1 2 0\n2 1 0\n1 2 3 0\n3 0\n");
        let r = analyze(&c);
        assert_eq!(r.duplicates, vec![1]); // same clause, reordered
        assert_eq!(r.subsumed, vec![2]);
    }

    #[test]
    fn analyze_decomposes_components() {
        let c = cnf("p cnf 4 2\n1 2 0\n3 4 0\n");
        let r = analyze(&c);
        assert_eq!(r.components.len(), 2);
        assert_eq!(
            r.components[0],
            vec![Var::from_index(0), Var::from_index(1)]
        );
    }

    #[test]
    fn analyze_flags_contradictory_units() {
        let c = cnf("p cnf 2 3\n1 0\n-1 0\n2 0\n");
        let r = analyze(&c);
        assert_eq!(r.contradictory_units, vec![Var::from_index(0)]);
    }

    #[test]
    fn analyze_probe_finds_failed_literal() {
        // Asserting 1 propagates 2 (via -1 2 ... wait: probing candidates
        // are negations of binary-clause literals. (-1 2) and (-1 -2) make
        // the probe of 1 conflict, so 1 is failed and -1 is backbone.
        let c = cnf("p cnf 2 2\n-1 2 0\n-1 -2 0\n");
        let r = analyze(&c);
        assert!(r.failed_literals.contains(&Lit::from_dimacs(1)));
    }

    #[test]
    fn preprocess_fixes_backbone_chain() {
        let c = cnf("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n");
        let r = preprocess(&c, &PreprocessOptions::default(), None);
        assert!(!r.unsat);
        assert_eq!(r.stats.units, 3);
        // All three variables stay as unit clauses.
        let mut units = dimacs_clauses(&r.cnf);
        units.sort();
        assert_eq!(units, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn preprocess_detects_root_conflict() {
        let c = cnf("p cnf 2 3\n1 0\n-1 2 0\n-2 -1 0\n");
        let r = preprocess(&c, &PreprocessOptions::default(), None);
        assert!(r.unsat);
        assert_eq!(r.cnf.clauses, vec![Vec::<Lit>::new()]);
    }

    #[test]
    fn preprocess_removes_subsumed_and_duplicate_clauses() {
        let c = cnf("p cnf 3 4\n1 2 0\n2 1 0\n1 2 3 0\n-1 -2 -3 0\n");
        let r = preprocess(&c, &PreprocessOptions::default(), None);
        assert!(!r.unsat);
        assert!(r.stats.subsumed >= 2);
    }

    #[test]
    fn preprocess_eliminates_pure_literals_with_reconstruction() {
        // Var 3 is pure negative; deleting its clauses empties the formula
        // for vars 1 and 2, which then become pure as well.
        let c = cnf("p cnf 3 2\n1 -3 0\n2 -3 0\n");
        let r = preprocess(&c, &PreprocessOptions::default(), None);
        assert!(!r.unsat);
        assert!(r.cnf.clauses.is_empty());
        let mut model: Vec<Option<bool>> = vec![None; 3];
        r.reconstruction.extend(&mut model);
        // The reconstructed model must satisfy the ORIGINAL clauses
        // (unassigned entries default to false).
        for clause in &c.clauses {
            assert!(clause
                .iter()
                .any(|&l| model[l.var().index()].unwrap_or(false) == l.is_positive()));
        }
    }

    #[test]
    fn preprocess_respects_frozen_variables() {
        let c = cnf("p cnf 3 2\n1 -3 0\n2 -3 0\n");
        let opts = PreprocessOptions {
            frozen: vec![Var::from_index(2)],
            ..PreprocessOptions::default()
        };
        let r = preprocess(&c, &opts, None);
        // A frozen variable's value must come from the solver, never from
        // reconstruction: no step may target var 3.
        for step in r.reconstruction.steps() {
            let v = match step {
                ReconstructStep::Pure(l) => l.var(),
                ReconstructStep::Eliminated { var, .. } => *var,
            };
            assert_ne!(v, Var::from_index(2), "frozen variable reconstructed");
        }
    }

    #[test]
    fn preprocess_bve_eliminates_a_definition() {
        // Vars 1 and 3 resolve away with only tautological resolvents;
        // var 2 then ends up unconstrained.
        let c = cnf("p cnf 3 4\n-1 2 0\n1 -2 0\n-2 3 0\n2 -3 0\n");
        let opts = PreprocessOptions {
            bve_growth: 2,
            ..PreprocessOptions::default()
        };
        let r = preprocess(&c, &opts, None);
        assert!(!r.unsat);
        assert!(r.stats.eliminated >= 1);
        let mut model: Vec<Option<bool>> = vec![None; 3];
        r.reconstruction.extend(&mut model);
        for clause in &c.clauses {
            assert!(
                clause
                    .iter()
                    .any(|&l| model[l.var().index()].unwrap_or(false) == l.is_positive()),
                "clause {clause:?} unsatisfied by {model:?}"
            );
        }
    }

    #[test]
    fn preprocess_proof_steps_are_added_before_deleted() {
        use crate::proof::{MemoryProof, ProofSink};
        let c = cnf("p cnf 3 3\n1 0\n-1 2 3 0\n-1 2 -3 0\n");
        let mut sink = MemoryProof::new();
        let r = preprocess(
            &c,
            &PreprocessOptions::default(),
            Some(&mut sink as &mut dyn ProofSink),
        );
        assert!(!r.unsat);
        assert!(!sink.is_empty());
        // Every strengthened clause appears as an Add before the original's
        // Delete — spot-check that at least one Add precedes some Delete.
        let steps = sink.steps();
        let first_add = steps.iter().position(|s| !s.is_delete());
        let first_del = steps.iter().position(|s| s.is_delete());
        if let (Some(a), Some(d)) = (first_add, first_del) {
            assert!(a < d || steps[d].lits().len() > steps[a].lits().len());
        }
    }

    #[test]
    fn preprocess_verdicts_match_raw_solver() {
        // Deterministic sweep over a few structured instances.
        for text in [
            "p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n",
            "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n",
            "p cnf 4 5\n1 0\n-1 2 0\n-2 3 4 0\n-3 0\n-4 2 0\n",
            "p cnf 1 2\n1 0\n-1 0\n",
        ] {
            let c = cnf(text);
            let raw = c.clone().into_solver().solve();
            let r = preprocess(&c, &PreprocessOptions::default(), None);
            let pre = r.cnf.clone().into_solver().solve();
            assert_eq!(raw, pre, "verdict drift on {text:?}");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_cnf(
            max_vars: usize,
            max_clauses: usize,
        ) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
            (2..=max_vars).prop_flat_map(move |n| {
                let clause = proptest::collection::vec(
                    (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
                    1..=3,
                );
                (Just(n), proptest::collection::vec(clause, 1..=max_clauses))
            })
        }

        fn to_cnf(n: usize, clauses: &[Vec<i32>]) -> Cnf {
            Cnf {
                num_vars: n,
                clauses: clauses
                    .iter()
                    .map(|c| c.iter().map(|&d| Lit::from_dimacs(d as i64)).collect())
                    .collect(),
            }
        }

        fn brute_force_sat(n: usize, clauses: &[Vec<Lit>]) -> bool {
            for bits in 0..(1u32 << n) {
                if clauses.iter().all(|c| {
                    c.iter()
                        .any(|l| ((bits >> l.var().index()) & 1 == 1) == l.is_positive())
                }) {
                    return true;
                }
            }
            false
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn simplified_is_equisatisfiable((n, clauses) in arb_cnf(8, 24)) {
                let c = to_cnf(n, &clauses);
                let original = brute_force_sat(n, &c.clauses);
                let r = preprocess(&c, &PreprocessOptions::default(), None);
                let simplified = !r.unsat && brute_force_sat(n, &r.cnf.clauses);
                prop_assert_eq!(original, simplified);
            }

            #[test]
            fn reconstructed_models_satisfy_original((n, clauses) in arb_cnf(8, 24)) {
                let c = to_cnf(n, &clauses);
                let r = preprocess(&c, &PreprocessOptions::default(), None);
                if r.unsat {
                    return;
                }
                let mut solver = r.cnf.clone().into_solver();
                if solver.solve() {
                    let mut model: Vec<Option<bool>> = (0..n)
                        .map(|i| solver.value(Var::from_index(i)))
                        .collect();
                    r.reconstruction.extend(&mut model);
                    for clause in &c.clauses {
                        prop_assert!(
                            clause.iter().any(|&l| {
                                model[l.var().index()].unwrap_or(false) == l.is_positive()
                            }),
                            "clause {:?} unsatisfied by {:?}", clause, model
                        );
                    }
                }
            }

            #[test]
            fn frozen_vars_survive((n, clauses) in arb_cnf(6, 16)) {
                let opts = PreprocessOptions {
                    frozen: (0..n).map(Var::from_index).collect(),
                    ..PreprocessOptions::default()
                };
                let c = to_cnf(n, &clauses);
                let r = preprocess(&c, &opts, None);
                // With everything frozen, the reconstruction stack must be
                // empty: only units (kept in-formula) may fire.
                prop_assert!(r.reconstruction.is_empty());
            }
        }
    }
}
