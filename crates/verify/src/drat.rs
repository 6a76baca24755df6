//! Independent DRAT proof checking by reverse unit propagation (RUP).
//!
//! The checker is a forward two-watched-literal RUP checker written apart
//! from the `qca-sat` solver: it shares no code with the solver's
//! propagation and works on plain DIMACS `i32` literals in its own flat
//! clause arena, where the solver works on typed [`Lit`]s.
//! A soundness bug in the solver is therefore very unlikely to be masked
//! by an identical bug here. The unit tests hold a second, independent
//! reference checker (counter/scan propagation over full occurrence
//! lists) and require both to return the same verdict and the same
//! [`DratStats`] on random solver proofs and mutations of them.
//!
//! # Semantics
//!
//! The checker verifies a *refutation*: starting from the formula's clauses,
//! each proof addition must be RUP — assuming the negation of every literal
//! in the clause, unit propagation over the active database must derive a
//! conflict. Accepted clauses join the database; the proof succeeds when the
//! empty clause is accepted (or the database itself becomes conflicting at
//! the top level).
//!
//! Deletions follow drat-trim tolerance: deleting a clause that is not in
//! the database is a no-op, and literals already on the persistent trail are
//! never retracted — they are consequences of the formula regardless of
//! which clause first forced them, so keeping them is sound.
//!
//! The checker renames DIMACS variables to dense indices in the order they
//! first appear, so its memory follows the variables the formula and proof
//! use. A header's variable count, or one literal naming variable
//! 2^31 − 1, sizes nothing. Renaming variables preserves every verdict and
//! every [`DratStats`] count.

use qca_sat::dimacs::Cnf;
use qca_sat::proof::ProofStep;
use qca_sat::Lit;
use std::collections::HashMap;

/// Why a proof was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DratError {
    /// The clause added at `step` (0-based index into the proof) is not a
    /// reverse-unit-propagation consequence of the database at that point.
    NotRup {
        /// 0-based index of the offending step in the proof.
        step: usize,
        /// The offending clause, in DIMACS literals.
        clause: Vec<i32>,
    },
    /// The proof ended without deriving the empty clause or a top-level
    /// conflict, so unsatisfiability was not established.
    NoRefutation,
}

impl std::fmt::Display for DratError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DratError::NotRup { step, clause } => {
                write!(f, "proof step {step}: clause {clause:?} is not RUP")
            }
            DratError::NoRefutation => {
                write!(f, "proof ends without refuting the formula")
            }
        }
    }
}

impl std::error::Error for DratError {}

/// Statistics from a successful check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DratStats {
    /// Clause additions verified RUP (the refuting step included).
    pub additions_checked: usize,
    /// Deletions applied to the database.
    pub deletions_applied: usize,
    /// Deletions ignored because no matching active clause existed.
    pub deletions_ignored: usize,
    /// Proof steps not examined because the formula was already refuted.
    pub steps_skipped: usize,
}

/// Verifies that `proof` is a valid DRAT refutation of `cnf`.
///
/// # Errors
///
/// [`DratError::NotRup`] at the first unjustified addition, or
/// [`DratError::NoRefutation`] when the proof ends without an accepted empty
/// clause (and the database never becomes conflicting).
///
/// # Panics
///
/// On a literal beyond `±i32::MAX`, which neither `qca-sat` parser accepts
/// and no solver has the variables to write.
///
/// # Examples
///
/// ```
/// use qca_sat::dimacs::parse_dimacs;
/// use qca_sat::proof::ProofStep;
/// use qca_verify::drat::check_drat;
///
/// // x & !x, refuted by the empty clause directly.
/// let cnf = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n".as_bytes()).unwrap();
/// let proof = vec![ProofStep::Add(vec![])];
/// assert!(check_drat(&cnf, &proof).is_ok());
/// ```
pub fn check_drat(cnf: &Cnf, proof: &[ProofStep]) -> Result<DratStats, DratError> {
    check_clauses(cnf.clauses.iter().map(Vec::as_slice), proof)
}

/// [`check_drat`] over a formula given as a clause sequence, so a caller
/// can append clauses without copying the formula.
pub(crate) fn check_clauses<'a>(
    clauses: impl Iterator<Item = &'a [Lit]>,
    proof: &[ProofStep],
) -> Result<DratStats, DratError> {
    let dimacs = |l: &Lit| i32::try_from(l.to_dimacs()).expect("DIMACS literal fits in i32");
    check(
        clauses.map(|c| c.iter().map(dimacs)),
        proof
            .iter()
            .map(|s| (s.is_delete(), s.lits().iter().map(dimacs))),
    )
}

/// The check itself: streams each clause and step, renamed to dense
/// variables, through one reused literal buffer into the checker's arena.
fn check<C, S>(
    clauses: impl Iterator<Item = C>,
    steps: impl ExactSizeIterator<Item = (bool, S)>,
) -> Result<DratStats, DratError>
where
    C: IntoIterator<Item = i32>,
    S: IntoIterator<Item = i32>,
{
    let mut chk = Checker::new();
    let mut stats = DratStats::default();
    let total = steps.len();
    let mut lits: Vec<i32> = Vec::new();
    for c in clauses {
        lits.clear();
        lits.extend(c.into_iter().map(|l| chk.dense(l)));
        chk.add_active_clause(&mut lits);
        if chk.refuted {
            // Formula conflicts at the top level on its own: any proof
            // (even an empty one) certifies it.
            stats.steps_skipped = total;
            return Ok(stats);
        }
    }
    for (i, (is_delete, step)) in steps.enumerate() {
        if chk.refuted {
            stats.steps_skipped = total - i;
            return Ok(stats);
        }
        lits.clear();
        lits.extend(step.into_iter().map(|l| chk.dense(l)));
        if is_delete {
            if chk.delete_clause(&mut lits) {
                stats.deletions_applied += 1;
            } else {
                stats.deletions_ignored += 1;
            }
        } else {
            if !chk.is_rup(&lits) {
                return Err(DratError::NotRup {
                    step: i,
                    clause: lits.iter().map(|&l| chk.dimacs(l)).collect(),
                });
            }
            stats.additions_checked += 1;
            if lits.is_empty() {
                stats.steps_skipped = total - i - 1;
                return Ok(stats);
            }
            chk.add_active_clause(&mut lits);
        }
    }
    if chk.refuted {
        return Ok(stats);
    }
    Err(DratError::NoRefutation)
}

/// Arena words before each clause body: its length (0 once deleted) and the
/// arena offset of the next older clause with the same body hash.
const HEADER: usize = 2;
/// End of a same-hash chain.
const NONE: u32 = u32::MAX;

/// A watch on one of a clause's first two literals.
#[derive(Clone, Copy)]
struct Watch {
    /// Arena offset of the clause header.
    cref: u32,
    /// Another literal of the clause; when it is true the clause is
    /// satisfied and need not be read.
    blocker: i32,
}

/// Two-watched-literal database with a persistent top-level trail, over
/// dense variables (see [`Checker::dense`]).
///
/// Every active clause of two or more literals keeps its watches in its
/// first two body positions; a unit clause is not watched, since loading
/// it puts its literal on the trail for good. At the top level, either
/// both watches are non-false or one is true. `is_rup`'s temporary
/// assumptions only ever move a watch onto a literal that was non-false,
/// so rolling them back leaves that invariant intact without touching a
/// watch list.
struct Checker {
    /// DIMACS variable → dense variable, numbered `1..` in order of first
    /// appearance.
    dense: HashMap<u32, i32>,
    /// Dense variable → DIMACS variable; index 0 is no variable.
    dimacs: Vec<u32>,
    /// Assignment per dense variable (1-based): 0 undef, 1 true, -1 false.
    assign: Vec<i8>,
    /// Assigned literals, in assignment order. Never rolled back except by
    /// [`Checker::is_rup`] restoring its own assumptions.
    trail: Vec<i32>,
    /// Every clause ever added, back to back: [`HEADER`] words, then the
    /// sorted, deduplicated body (watches reorder it in place).
    arena: Vec<i32>,
    /// Literal code → watches on that literal. A deleted clause's watches
    /// are dropped when propagation next reads the clause.
    watches: Vec<Vec<Watch>>,
    /// Body hash → newest active clause with that hash (older ones follow
    /// the chain in their headers).
    by_hash: HashMap<u64, u32>,
    /// A clause became falsified at the top level: the formula (plus checked
    /// additions) is refuted.
    refuted: bool,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            dense: HashMap::new(),
            dimacs: vec![0],
            assign: vec![0],
            trail: Vec::new(),
            arena: Vec::new(),
            watches: vec![Vec::new(); 2],
            by_hash: HashMap::new(),
            refuted: false,
        }
    }

    /// The dense literal of DIMACS literal `lit`: same sign, its variable
    /// renamed, and a variable seen for the first time numbered next, with
    /// its assignment and watch lists allocated. Renaming is a bijection on
    /// the variables seen, so RUP, tautologies and clause identity are
    /// unchanged.
    #[inline]
    fn dense(&mut self, lit: i32) -> i32 {
        let next = self.dimacs.len() as i32;
        let var = *self.dense.entry(lit.unsigned_abs()).or_insert(next);
        if var == next {
            self.dimacs.push(lit.unsigned_abs());
            self.assign.push(0);
            self.watches.resize(self.watches.len() + 2, Vec::new());
        }
        if lit < 0 {
            -var
        } else {
            var
        }
    }

    /// The DIMACS literal of dense literal `lit`.
    fn dimacs(&self, lit: i32) -> i32 {
        let var = self.dimacs[lit.unsigned_abs() as usize] as i32;
        if lit < 0 {
            -var
        } else {
            var
        }
    }

    #[inline]
    fn code(lit: i32) -> usize {
        2 * lit.unsigned_abs() as usize + usize::from(lit < 0)
    }

    #[inline]
    fn value(&self, lit: i32) -> i8 {
        let v = self.assign[lit.unsigned_abs() as usize];
        if lit > 0 {
            v
        } else {
            -v
        }
    }

    #[inline]
    fn assign_true(&mut self, lit: i32) {
        self.assign[lit.unsigned_abs() as usize] = if lit > 0 { 1 } else { -1 };
        self.trail.push(lit);
    }

    /// Sorts and deduplicates `lits` in place; `false` for tautologies
    /// (never falsifiable, so they contribute nothing to unit propagation).
    fn normalize(lits: &mut Vec<i32>) -> bool {
        lits.sort_unstable();
        lits.dedup();
        lits.windows(2).all(|w| w[0] != -w[1])
    }

    /// FxHash-style hash of a normalized body.
    fn body_hash(lits: &[i32]) -> u64 {
        lits.iter().fold(lits.len() as u64, |h, &l| {
            (h.rotate_left(5) ^ u64::from(l as u32)).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }

    /// Unit propagation from `head` (a trail index). Returns `true` on
    /// conflict.
    fn propagate(&mut self, mut head: usize) -> bool {
        while head < self.trail.len() {
            let falsified = -self.trail[head];
            head += 1;
            let code = Self::code(falsified);
            let mut ws = std::mem::take(&mut self.watches[code]);
            let (mut i, mut kept) = (0, 0);
            let mut conflict = false;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == 1 {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let c = w.cref as usize;
                let len = self.arena[c] as usize;
                if len == 0 {
                    continue; // deleted: drop the watch
                }
                let body = c + HEADER;
                if self.arena[body] == falsified {
                    self.arena.swap(body, body + 1);
                }
                let other = self.arena[body];
                let kept_watch = Watch {
                    cref: w.cref,
                    blocker: other,
                };
                if other != w.blocker && self.value(other) == 1 {
                    ws[kept] = kept_watch;
                    kept += 1;
                    continue;
                }
                if let Some(k) = (2..len).find(|&k| self.value(self.arena[body + k]) != -1) {
                    self.arena.swap(body + 1, body + k);
                    self.watches[Self::code(self.arena[body + 1])].push(kept_watch);
                    continue;
                }
                ws[kept] = kept_watch;
                kept += 1;
                if self.value(other) == 0 {
                    self.assign_true(other);
                } else {
                    conflict = true;
                    break;
                }
            }
            // Keep the watches a conflict left unvisited.
            ws.copy_within(i.., kept);
            ws.truncate(kept + ws.len() - i);
            self.watches[code] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Installs a clause into the active database, keeping the persistent
    /// trail at its propagation fixpoint; sets `refuted` on a top-level
    /// conflict. Normalizes `lits` in place.
    fn add_active_clause(&mut self, lits: &mut Vec<i32>) {
        if !Self::normalize(lits) {
            return; // tautology
        }
        let cref = u32::try_from(self.arena.len()).expect("clause arena fits u32 offsets");
        let older = self
            .by_hash
            .insert(Self::body_hash(lits), cref)
            .unwrap_or(NONE);
        self.arena.push(lits.len() as i32);
        self.arena.push(older as i32);
        let body = self.arena.len();
        self.arena.extend_from_slice(lits);
        // Move up to two non-false literals to the front.
        let mut non_false = 0;
        for k in 0..lits.len() {
            if non_false < 2 && self.value(self.arena[body + k]) != -1 {
                self.arena.swap(body + non_false, body + k);
                non_false += 1;
            }
        }
        if non_false == 0 {
            self.refuted = true;
            return;
        }
        if lits.len() > 1 {
            let (a, b) = (self.arena[body], self.arena[body + 1]);
            self.watches[Self::code(a)].push(Watch { cref, blocker: b });
            self.watches[Self::code(b)].push(Watch { cref, blocker: a });
        }
        let first = self.arena[body];
        if non_false == 1 && self.value(first) == 0 {
            let head = self.trail.len();
            self.assign_true(first);
            if self.propagate(head) {
                self.refuted = true;
            }
        }
    }

    /// Deactivates one copy of the clause; `false` when absent (tolerated).
    /// Normalizes `lits` in place.
    fn delete_clause(&mut self, lits: &mut Vec<i32>) -> bool {
        if !Self::normalize(lits) {
            return false;
        }
        let key = Self::body_hash(lits);
        let Some(&newest) = self.by_hash.get(&key) else {
            return false;
        };
        let (mut prev, mut cref) = (NONE, newest);
        while cref != NONE {
            let c = cref as usize;
            let next = self.arena[c + 1] as u32;
            let body = &self.arena[c + HEADER..c + HEADER + self.arena[c] as usize];
            // Both sides are duplicate-free, and watches reorder the body.
            if body.len() == lits.len() && body.iter().all(|l| lits.binary_search(l).is_ok()) {
                if prev != NONE {
                    self.arena[prev as usize + 1] = next as i32;
                } else if next != NONE {
                    self.by_hash.insert(key, next);
                } else {
                    self.by_hash.remove(&key);
                }
                self.arena[c] = 0;
                return true;
            }
            (prev, cref) = (cref, next);
        }
        false
    }

    /// The RUP test: assuming the negation of every literal in `lits`, does
    /// unit propagation derive a conflict? Temporary assumptions are rolled
    /// back before returning.
    fn is_rup(&mut self, lits: &[i32]) -> bool {
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in lits {
            match self.value(l) {
                1 => {
                    // The trail already satisfies the clause; assuming its
                    // negation is an immediate contradiction.
                    conflict = true;
                    break;
                }
                -1 => {}
                _ => self.assign_true(-l),
            }
        }
        if !conflict {
            conflict = self.propagate(mark);
        }
        for i in mark..self.trail.len() {
            let l = self.trail[i];
            self.assign[l.unsigned_abs() as usize] = 0;
        }
        self.trail.truncate(mark);
        conflict
    }
}

/// The counter/scan checker the two-watched-literal one replaced: each
/// falsified literal's full occurrence list is scanned and every clause in
/// it read literal by literal. Kept as an independent reference for the
/// differential tests.
#[cfg(test)]
mod reference {
    use super::{DratError, DratStats};
    use std::collections::HashMap;

    /// The reference twin of the tests' `check_drat_dimacs`.
    pub(super) fn check_drat_dimacs(
        num_vars: usize,
        clauses: &[Vec<i32>],
        steps: &[(bool, Vec<i32>)],
    ) -> Result<DratStats, DratError> {
        let mut chk = Checker::new(num_vars);
        let mut stats = DratStats::default();
        for c in clauses {
            chk.add_active_clause(c);
            if chk.refuted {
                // Formula conflicts at the top level on its own: any proof
                // (even an empty one) certifies it.
                stats.steps_skipped = steps.len();
                return Ok(stats);
            }
        }
        for (i, (is_delete, lits)) in steps.iter().enumerate() {
            if chk.refuted {
                stats.steps_skipped = steps.len() - i;
                return Ok(stats);
            }
            if *is_delete {
                if chk.delete_clause(lits) {
                    stats.deletions_applied += 1;
                } else {
                    stats.deletions_ignored += 1;
                }
            } else {
                if !chk.is_rup(lits) {
                    return Err(DratError::NotRup {
                        step: i,
                        clause: lits.clone(),
                    });
                }
                stats.additions_checked += 1;
                if lits.is_empty() {
                    stats.steps_skipped = steps.len() - i - 1;
                    return Ok(stats);
                }
                chk.add_active_clause(lits);
            }
        }
        if chk.refuted {
            return Ok(stats);
        }
        Err(DratError::NoRefutation)
    }

    /// Occurrence-list database with a persistent top-level trail.
    struct Checker {
        /// Assignment per variable index (1-based): 0 undef, 1 true, -1 false.
        assign: Vec<i8>,
        /// Assigned literals, in assignment order. Never rolled back except by
        /// [`Checker::is_rup`] restoring its own assumptions.
        trail: Vec<i32>,
        /// Normalized clause bodies; indexed by clause id.
        clauses: Vec<Vec<i32>>,
        active: Vec<bool>,
        /// Literal → ids of clauses containing it (stale ids are filtered by
        /// `active` at scan time).
        occur: Vec<Vec<usize>>,
        /// Normalized clause → active ids, multiset-style (one id per copy).
        by_body: HashMap<Vec<i32>, Vec<usize>>,
        /// A clause became falsified at the top level: the formula (plus checked
        /// additions) is refuted.
        refuted: bool,
    }

    impl Checker {
        fn new(num_vars: usize) -> Checker {
            Checker {
                assign: vec![0; num_vars + 1],
                trail: Vec::new(),
                clauses: Vec::new(),
                active: Vec::new(),
                occur: vec![Vec::new(); 2 * (num_vars + 1)],
                by_body: HashMap::new(),
                refuted: false,
            }
        }

        fn ensure_var(&mut self, var: usize) {
            if var >= self.assign.len() {
                self.assign.resize(var + 1, 0);
                self.occur.resize(2 * (var + 1), Vec::new());
            }
        }

        #[inline]
        fn code(lit: i32) -> usize {
            2 * lit.unsigned_abs() as usize + usize::from(lit < 0)
        }

        #[inline]
        fn value(&self, lit: i32) -> i8 {
            let v = self.assign[lit.unsigned_abs() as usize];
            if lit > 0 {
                v
            } else {
                -v
            }
        }

        #[inline]
        fn assign_true(&mut self, lit: i32) {
            self.assign[lit.unsigned_abs() as usize] = if lit > 0 { 1 } else { -1 };
            self.trail.push(lit);
        }

        /// Sorted, deduplicated copy; `None` for tautologies (never falsifiable,
        /// so they contribute nothing to unit propagation).
        fn normalize(lits: &[i32]) -> Option<Vec<i32>> {
            let mut c = lits.to_vec();
            c.sort_unstable();
            c.dedup();
            for w in c.windows(2) {
                if w[0] == -w[1] {
                    return None;
                }
            }
            Some(c)
        }

        /// Unit propagation from `head` (a trail index). Returns `true` on
        /// conflict. Counter/scan scheme: each newly falsified literal's
        /// occurrence list is scanned, and each still-active clause is examined
        /// literal by literal.
        fn propagate(&mut self, mut head: usize) -> bool {
            while head < self.trail.len() {
                let falsified = -self.trail[head];
                head += 1;
                let code = Self::code(falsified);
                let mut k = 0;
                while k < self.occur[code].len() {
                    let ci = self.occur[code][k];
                    k += 1;
                    if !self.active[ci] {
                        continue;
                    }
                    let mut unassigned: Option<i32> = None;
                    let mut satisfied = false;
                    let mut n_unassigned = 0;
                    for idx in 0..self.clauses[ci].len() {
                        let l = self.clauses[ci][idx];
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
                        1 => self.assign_true(unassigned.expect("unit literal")),
                        _ => {}
                    }
                }
            }
            false
        }

        /// Installs a clause into the active database, keeping the persistent
        /// trail at its propagation fixpoint; sets `refuted` on a top-level
        /// conflict.
        fn add_active_clause(&mut self, lits: &[i32]) {
            let Some(body) = Self::normalize(lits) else {
                return; // tautology
            };
            for &l in &body {
                self.ensure_var(l.unsigned_abs() as usize);
            }
            let mut unassigned: Option<i32> = None;
            let mut n_unassigned = 0;
            let mut satisfied = false;
            for &l in &body {
                match self.value(l) {
                    1 => satisfied = true,
                    0 => {
                        n_unassigned += 1;
                        unassigned = Some(l);
                    }
                    _ => {}
                }
            }
            let ci = self.clauses.len();
            for &l in &body {
                self.occur[Self::code(l)].push(ci);
            }
            self.by_body.entry(body.clone()).or_default().push(ci);
            self.clauses.push(body);
            self.active.push(true);
            if satisfied {
                return;
            }
            match n_unassigned {
                0 => self.refuted = true,
                1 => {
                    let head = self.trail.len();
                    self.assign_true(unassigned.expect("unit literal"));
                    if self.propagate(head) {
                        self.refuted = true;
                    }
                }
                _ => {}
            }
        }

        /// Deactivates one copy of the clause; `false` when absent (tolerated).
        fn delete_clause(&mut self, lits: &[i32]) -> bool {
            let Some(body) = Self::normalize(lits) else {
                return false;
            };
            if let Some(ids) = self.by_body.get_mut(&body) {
                if let Some(ci) = ids.pop() {
                    self.active[ci] = false;
                    return true;
                }
            }
            false
        }

        /// The RUP test: assuming the negation of every literal in `lits`, does
        /// unit propagation derive a conflict? Temporary assumptions are rolled
        /// back before returning.
        fn is_rup(&mut self, lits: &[i32]) -> bool {
            let mark = self.trail.len();
            let mut conflict = false;
            for &l in lits {
                self.ensure_var(l.unsigned_abs() as usize);
                match self.value(l) {
                    1 => {
                        // The trail already satisfies the clause; assuming its
                        // negation is an immediate contradiction.
                        conflict = true;
                        break;
                    }
                    -1 => {}
                    _ => self.assign_true(-l),
                }
            }
            if !conflict {
                conflict = self.propagate(mark);
            }
            for i in mark..self.trail.len() {
                let l = self.trail[i];
                self.assign[l.unsigned_abs() as usize] = 0;
            }
            self.trail.truncate(mark);
            conflict
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qca_sat::{MemoryProof, Solver};

    fn add(lits: &[i32]) -> (bool, Vec<i32>) {
        (false, lits.to_vec())
    }

    /// [`check_drat`] over raw DIMACS literals: `steps` items are
    /// `(is_deletion, clause)`.
    fn check_drat_dimacs(
        clauses: &[Vec<i32>],
        steps: &[(bool, Vec<i32>)],
    ) -> Result<DratStats, DratError> {
        check(
            clauses.iter().map(|c| c.iter().copied()),
            steps.iter().map(|(d, c)| (*d, c.iter().copied())),
        )
    }

    fn del(lits: &[i32]) -> (bool, Vec<i32>) {
        (true, lits.to_vec())
    }

    #[test]
    fn accepts_trivial_conflict_proof() {
        // (x) & (!x): empty clause is RUP immediately.
        let clauses = vec![vec![1], vec![-1]];
        // Conflicting units refute the formula during loading; the proof is
        // not even consulted.
        let stats = check_drat_dimacs(&clauses, &[]).unwrap();
        assert_eq!(stats.additions_checked, 0);
    }

    #[test]
    fn accepts_resolution_chain() {
        // (a|b) & (!a|b) & (a|!b) & (!a|!b) — classic 2-var UNSAT.
        let clauses = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        let proof = vec![add(&[2]), add(&[])];
        let stats = check_drat_dimacs(&clauses, &proof).unwrap();
        // Installing the derived unit (2) already refutes the database by
        // persistent propagation, so the final empty clause is skipped.
        assert_eq!(stats.additions_checked, 1);
        assert_eq!(stats.steps_skipped, 1);
    }

    #[test]
    fn rejects_non_rup_addition() {
        let clauses = vec![vec![1, 2]];
        let proof = vec![add(&[1])]; // not implied
        let err = check_drat_dimacs(&clauses, &proof).unwrap_err();
        assert_eq!(
            err,
            DratError::NotRup {
                step: 0,
                clause: vec![1]
            }
        );
    }

    #[test]
    fn rejects_proof_without_refutation() {
        let clauses = vec![vec![1, 2], vec![-1, 2]];
        let proof = vec![add(&[2])];
        assert_eq!(
            check_drat_dimacs(&clauses, &proof).unwrap_err(),
            DratError::NoRefutation
        );
    }

    #[test]
    fn rejects_empty_clause_on_satisfiable_formula() {
        let clauses = vec![vec![1, 2]];
        let proof = vec![add(&[])];
        assert!(matches!(
            check_drat_dimacs(&clauses, &proof),
            Err(DratError::NotRup { step: 0, .. })
        ));
    }

    #[test]
    fn deletion_of_absent_clause_is_tolerated() {
        let clauses = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        let proof = vec![del(&[3, 4]), add(&[2]), add(&[])];
        let stats = check_drat_dimacs(&clauses, &proof).unwrap();
        assert_eq!(stats.deletions_ignored, 1);
        assert_eq!(stats.deletions_applied, 0);
    }

    #[test]
    fn deletion_removes_only_one_copy() {
        // Two copies of (1 2); deleting one must keep the other usable.
        let clauses = vec![
            vec![1, 2],
            vec![1, 2],
            vec![-1, 2],
            vec![1, -2],
            vec![-1, -2],
        ];
        let proof = vec![del(&[2, 1]), add(&[2]), add(&[])];
        let stats = check_drat_dimacs(&clauses, &proof).unwrap();
        assert_eq!(stats.deletions_applied, 1);
    }

    #[test]
    fn deletion_can_break_a_later_rup_step() {
        // After deleting both copies of (1 2), deriving (2) is unjustified.
        let clauses = vec![vec![1, 2], vec![-1, 2]];
        let proof = vec![del(&[1, 2]), add(&[2])];
        assert!(matches!(
            check_drat_dimacs(&clauses, &proof),
            Err(DratError::NotRup { step: 1, .. })
        ));
    }

    #[test]
    fn tautologies_are_inert() {
        let clauses = vec![vec![1, -1], vec![2], vec![-2]];
        assert!(check_drat_dimacs(&clauses, &[]).is_ok());
    }

    #[test]
    fn literals_beyond_declared_vars_are_tolerated() {
        // The proof may mention auxiliary variables the header undercounts.
        let clauses = vec![vec![5], vec![-5]];
        let stats = check_drat_dimacs(&clauses, &[]).unwrap();
        assert_eq!(stats.additions_checked, 0);
    }

    #[test]
    fn variables_are_numbered_densely_in_order_of_first_appearance() {
        let mut chk = Checker::new();
        let lits: Vec<i32> = [i32::MAX, -1, -i32::MAX, 7, 1]
            .into_iter()
            .map(|l| chk.dense(l))
            .collect();
        assert_eq!(lits, [1, -2, -1, 3, 2]);
        // Index 0 is no variable; three variables are allocated, not 2^31.
        assert_eq!((chk.assign.len(), chk.watches.len()), (4, 8));
        let back: Vec<i32> = lits.iter().map(|&l| chk.dimacs(l)).collect();
        assert_eq!(back, [i32::MAX, -1, -i32::MAX, 7, 1]);
    }

    /// The largest DIMACS variable, named by the header and by formula and
    /// proof literals, checks like any other: the same verdicts and
    /// counts as the same formula on variables 1 and 2, and a rejected
    /// step reports its literals in the input's numbering.
    #[test]
    fn the_largest_variable_number_checks_like_a_small_one() {
        let big = i32::MAX;
        let small = |c: &[i32]| -> Vec<i32> {
            c.iter()
                .map(|&l| if l.abs() == big { 2 * l.signum() } else { l })
                .collect()
        };
        let clauses = vec![vec![big, 1], vec![-big, 1], vec![big, -1], vec![-big, -1]];
        let proof = vec![del(&[3, big]), add(&[1]), add(&[])];
        let renamed = |cs: &[Vec<i32>]| cs.iter().map(|c| small(c)).collect::<Vec<_>>();
        let small_proof: Steps = proof.iter().map(|(d, c)| (*d, small(c))).collect();
        let stats = check_drat(&to_cnf(big as usize, &clauses), &to_proof(&proof)).unwrap();
        assert_eq!(
            stats,
            check_drat_dimacs(&renamed(&clauses), &small_proof).unwrap()
        );
        assert_eq!((stats.additions_checked, stats.deletions_ignored), (1, 1));

        let unjustified = vec![add(&[-big])];
        assert_eq!(
            check_drat(
                &to_cnf(big as usize, &clauses[..1]),
                &to_proof(&unjustified)
            ),
            Err(DratError::NotRup {
                step: 0,
                clause: vec![-big]
            })
        );
    }
    type Steps = Vec<(bool, Vec<i32>)>;

    fn to_cnf(num_vars: usize, clauses: &[Vec<i32>]) -> Cnf {
        let lits = |c: &Vec<i32>| c.iter().map(|&d| Lit::from_dimacs(d.into())).collect();
        Cnf {
            num_vars,
            clauses: clauses.iter().map(lits).collect(),
        }
    }

    fn to_proof(steps: &Steps) -> Vec<ProofStep> {
        let lits = |c: &Vec<i32>| c.iter().map(|&d| Lit::from_dimacs(d.into())).collect();
        steps
            .iter()
            .map(|(del, c)| match del {
                true => ProofStep::Delete(lits(c)),
                false => ProofStep::Add(lits(c)),
            })
            .collect()
    }

    /// The solver's proof log for `clauses`, in DIMACS literals: a
    /// refutation when the formula is unsatisfiable, the learnt prefix of
    /// a search otherwise.
    fn solver_proof(num_vars: usize, clauses: &[Vec<i32>]) -> Steps {
        let proof = MemoryProof::new();
        let mut s = Solver::new();
        s.set_proof(Box::new(proof.clone()));
        while s.num_vars() < num_vars {
            s.new_var();
        }
        for c in &to_cnf(num_vars, clauses).clauses {
            if !s.add_clause(c) {
                break;
            }
        }
        let _ = s.solve_limited(&[]);
        let dimacs = |l: &Lit| l.to_dimacs() as i32;
        proof
            .take_steps()
            .iter()
            .map(|st| (st.is_delete(), st.lits().iter().map(dimacs).collect()))
            .collect()
    }

    /// Requires the checker and the reference to agree on the DIMACS path
    /// and the streamed `Cnf`/`ProofStep` path alike.
    fn assert_agrees(num_vars: usize, clauses: &[Vec<i32>], steps: &Steps) {
        let expected = reference::check_drat_dimacs(num_vars, clauses, steps);
        assert_eq!(check_drat_dimacs(clauses, steps), expected);
        let streamed = check_drat(&to_cnf(num_vars, clauses), &to_proof(steps));
        assert_eq!(streamed, expected);
    }

    /// A corruption of a proof; positions are reduced modulo the proof's
    /// length when applied.
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Remove one lemma.
        DropLemma(usize),
        /// Negate one literal of one lemma.
        FlipLiteral(usize, usize),
        /// Delete a formula clause or lemma at an arbitrary point.
        DeleteEarly(usize, usize),
        /// Append an unjustified unit, a deletion and the empty clause.
        AppendAfterEnd(usize),
        /// Delete an arbitrary clause, usually absent from the database.
        DeleteArbitrary(usize, Vec<i32>),
    }

    fn arb_mutation(num_vars: usize) -> impl Strategy<Value = Mutation> {
        let v = num_vars as i32 + 1;
        let lit = (1..=v).prop_flat_map(|x| prop_oneof![Just(x), Just(-x)]);
        prop_oneof![
            (0..1000usize).prop_map(Mutation::DropLemma),
            (0..1000usize, 0..8usize).prop_map(|(p, q)| Mutation::FlipLiteral(p, q)),
            (0..1000usize, 0..1000usize).prop_map(|(p, j)| Mutation::DeleteEarly(p, j)),
            (0..1000usize).prop_map(Mutation::AppendAfterEnd),
            (0..1000usize, collection::vec(lit, 0..4))
                .prop_map(|(p, c)| Mutation::DeleteArbitrary(p, c)),
        ]
    }

    fn mutate(m: &Mutation, num_vars: usize, clauses: &[Vec<i32>], steps: &mut Steps) {
        let lemmas: Vec<usize> = (0..steps.len()).filter(|&i| !steps[i].0).collect();
        let mut pool: Vec<Vec<i32>> = clauses.to_vec();
        pool.extend(lemmas.iter().map(|&i| steps[i].1.clone()));
        match m {
            Mutation::DropLemma(p) => {
                if !lemmas.is_empty() {
                    steps.remove(lemmas[p % lemmas.len()]);
                }
            }
            Mutation::FlipLiteral(p, q) => {
                let nonempty: Vec<usize> = lemmas
                    .into_iter()
                    .filter(|&i| !steps[i].1.is_empty())
                    .collect();
                if !nonempty.is_empty() {
                    let c = &mut steps[nonempty[p % nonempty.len()]].1;
                    let k = q % c.len();
                    c[k] = -c[k];
                }
            }
            Mutation::DeleteEarly(p, j) => {
                let at = p % (steps.len() + 1);
                steps.insert(at, (true, pool[j % pool.len()].clone()));
            }
            Mutation::AppendAfterEnd(j) => {
                steps.push((false, vec![num_vars as i32 + 1]));
                steps.push((true, pool[j % pool.len()].clone()));
                steps.push((false, vec![]));
            }
            Mutation::DeleteArbitrary(p, c) => {
                steps.insert(p % (steps.len() + 1), (true, c.clone()));
            }
        }
    }

    /// Random 2/3-CNF with two to six clauses per variable: no unit
    /// clauses, so loading rarely refutes a formula before its proof is
    /// read, and dense enough that many need a search to refute.
    fn arb_formula() -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
        (3..=10usize).prop_flat_map(|n| {
            let lit = (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
            (
                Just(n),
                collection::vec(collection::vec(lit, 2..=3), 2 * n..=6 * n),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Solver proofs of random formulas, intact and corrupted: the
        /// two-watched-literal checker returns exactly the reference's
        /// `Ok(DratStats)` or `Err`.
        #[test]
        fn agrees_with_the_reference_checker(
            (n, clauses) in arb_formula(),
            mutations in (2..=9usize).prop_flat_map(|n| collection::vec(arb_mutation(n), 0..=3)),
        ) {
            let mut steps = solver_proof(n, &clauses);
            assert_agrees(n, &clauses, &steps);
            for m in &mutations {
                mutate(m, n, &clauses, &mut steps);
                assert_agrees(n, &clauses, &steps);
            }
        }
    }

    /// A random 3-SAT refutation long enough for the solver to reduce its
    /// clause database, so the proof deletes lemmas the later steps no
    /// longer need; intact and with lemmas dropped or deleted early, both
    /// checkers agree.
    #[test]
    fn agrees_with_the_reference_checker_on_a_proof_with_deletions() {
        use rand::{Rng, SeedableRng};
        let n = 150;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let clauses: Vec<Vec<i32>> = (0..n * 43 / 10)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = rng.gen_range(1..=n as i32);
                        if rng.gen() {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect()
            })
            .collect();
        let steps = solver_proof(n, &clauses);
        let deletions = steps.iter().filter(|s| s.0).count();
        assert!(deletions > 0, "proof has no deletions");
        assert!(check_drat_dimacs(&clauses, &steps).is_ok());
        assert_agrees(n, &clauses, &steps);
        for p in [0, 1, 7, 100, 997] {
            for m in [Mutation::DropLemma(p), Mutation::DeleteEarly(p, 3 * p)] {
                let mut mutated = steps.clone();
                mutate(&m, n, &clauses, &mut mutated);
                assert_agrees(n, &clauses, &mutated);
            }
        }
    }
}
