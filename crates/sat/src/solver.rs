//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! A from-scratch solver in the MiniSat lineage:
//!
//! * two-watched-literal propagation with blocker literals,
//! * first-UIP conflict analysis with basic clause minimization,
//! * exponential VSIDS variable activities (decay 0.95) with an indexed
//!   max-heap,
//! * phase saving: a decision takes the variable's saved polarity,
//!   which [`Solver::set_phase`] can seed,
//! * Luby-sequence restarts, 100 conflicts per unit,
//! * activity-based learnt-clause database reduction,
//! * incremental solving under assumptions with failed-assumption
//!   (unsat-core) extraction.
//!
//! Clauses live in one flat [`ClauseArena`] (header, literals, and a learnt
//! clause's activity, addressed by offset) that database reduction compacts
//! once half of it is garbage. Assignments are kept per literal, indexed by
//! [`Lit::code`], so reading a literal's value is one load. Conflict
//! analysis and its minimisation reuse solver-owned buffers. Storage does
//! not steer the search: decisions, propagation order, learnt clauses,
//! deletions and DRAT steps follow from the CDCL rules alone, and
//! `tests/search_trajectory.rs` pins them on fixed instances.
//!
//! The search has no tuning knobs. A caller sets only a per-call conflict
//! budget ([`Solver::set_conflict_budget`]) and the run controls
//! ([`SolveControl`]).

use crate::arena::{ClauseArena, ClauseRef};
use crate::heap::ActivityHeap;
use crate::lit::{LBool, Lit, Var};
use crate::proof::ProofSink;
use qca_trace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Statistics accumulated over the lifetime of a [`Solver`].
#[derive(Debug, Default, Clone)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Literals in learnt clauses removed by minimization.
    pub minimized_literals: u64,
}

/// External run controls for a [`Solver`], applied as one unit.
///
/// Groups everything a *caller* (as opposed to the encoding) may want to
/// impose on a solve: a lifetime conflict cap, a cooperative cancellation
/// flag, and a [`Tracer`] receiving CDCL milestones (restarts,
/// conflict-count checkpoints) and per-solve statistics. Install with
/// [`Solver::set_control`].
#[derive(Debug, Clone, Default)]
pub struct SolveControl {
    /// Lifetime conflict cap: any `solve*` call returns
    /// [`SolveOutcome::Unknown`] once [`SolverStats::conflicts`] reaches the
    /// cap, regardless of per-call budgets. Unlike
    /// [`Solver::set_conflict_budget`], the cap spans calls — it bounds the
    /// total work of an incremental session (e.g. every probe of an
    /// optimization loop sharing one solver).
    pub conflict_cap: Option<u64>,
    /// Cooperative cancellation flag: while it reads `true`, any in-flight
    /// or future `solve*` call returns [`SolveOutcome::Unknown`] at its next
    /// check point (every decision and every conflict). The flag is shared —
    /// a controller thread sets it to interrupt a solve in progress on
    /// another thread (the solver itself is `Send` but not `Sync`; the flag
    /// is the intended cross-thread channel).
    pub stop: Option<Arc<AtomicBool>>,
    /// Receives `sat.solve` spans, restart/conflict milestones and
    /// end-of-solve statistics gauges. Disabled by default.
    pub tracer: Tracer,
}

/// Outcome of a [`Solver::solve_limited`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; the failed
    /// assumptions are available from [`Solver::unsat_core`].
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use qca_sat::Solver;
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[!a.positive()]);
/// assert!(s.solve());
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    arena: ClauseArena,
    watches: Vec<Vec<Watcher>>,
    /// Value of every literal, indexed by [`Lit::code`].
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: ActivityHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// The clause [`Solver::analyze`] learns, asserting literal first.
    learnt: Vec<Lit>,
    cla_inc: f64,
    ok: bool,
    model: Vec<LBool>,
    conflict_core: Vec<Lit>,
    stats: SolverStats,
    max_learnts: f64,
    /// Per-call conflict budget: each `solve*` call gives up with
    /// `Unknown` after roughly this many conflicts of its own.
    conflict_budget: Option<u64>,
    control: SolveControl,
    n_original_clauses: usize,
    proof: Option<Box<dyn ProofSink>>,
    /// The shadow formula, shared with [`Solver::shadow_formula`] handles.
    recorded: Option<Arc<crate::dimacs::Cnf>>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::default(),
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: ActivityHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            model: Vec::new(),
            conflict_core: Vec::new(),
            stats: SolverStats::default(),
            max_learnts: 0.0,
            conflict_budget: None,
            control: SolveControl::default(),
            n_original_clauses: 0,
            proof: None,
            recorded: None,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.level.len());
        self.values.extend([LBool::Undef; 2]);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v.index(), &self.activity);
        v
    }

    /// Sets the saved phase of a variable: the polarity the solver will try
    /// first when branching on it. Useful for seeding the search with a
    /// known-good (warm-start) assignment.
    pub fn set_phase(&mut self, v: Var, phase: bool) {
        self.phase[v.index()] = phase;
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of original (problem) clauses currently in the database.
    pub fn num_clauses(&self) -> usize {
        self.n_original_clauses
    }

    /// Solver statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Limits the next `solve*` call to roughly `budget` conflicts; `None`
    /// removes the limit. The budget is consumed per call.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs the caller-side run controls (lifetime conflict cap,
    /// cancellation flag, tracer) in one call. See [`SolveControl`].
    pub fn set_control(&mut self, control: SolveControl) {
        self.control = control;
    }

    /// The currently installed run controls.
    pub fn control(&self) -> &SolveControl {
        &self.control
    }

    /// `true` when the attached stop flag (if any) requests cancellation.
    #[inline]
    fn stop_requested(&self) -> bool {
        self.control
            .stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// `true` once the lifetime conflict count has reached `halt_at` (the
    /// single unified limit computed per solve from the per-call budget and
    /// the lifetime cap — see [`Solver::solve_limited`]).
    #[inline]
    fn halted(&self, halt_at: Option<u64>) -> bool {
        halt_at.is_some_and(|h| self.stats.conflicts >= h) || self.stop_requested()
    }

    /// Installs a DRAT proof sink; every clause the solver derives from now
    /// on (learnt clauses, level-0 simplifications, the final empty clause)
    /// and every learnt-clause deletion is streamed to it. Install the sink
    /// *before* adding clauses so level-0 simplifications during loading are
    /// captured.
    pub fn set_proof(&mut self, sink: Box<dyn ProofSink>) {
        self.proof = Some(sink);
    }

    /// Flushes the installed proof sink (no-op without one).
    ///
    /// # Errors
    ///
    /// Returns the sink's first deferred I/O error, if any.
    pub fn flush_proof(&mut self) -> std::io::Result<()> {
        match self.proof.as_mut() {
            Some(p) => p.flush(),
            None => Ok(()),
        }
    }

    /// Starts recording a *shadow formula*: every clause subsequently given
    /// to [`Solver::add_clause`] is stored verbatim (pre-simplification), so
    /// the axiom set can later be handed out by [`Solver::shadow_formula`]
    /// and re-checked by an independent tool. Clauses added through
    /// [`Solver::add_clause_derived`] are deliberately *not* recorded — they
    /// are consequences, not axioms.
    pub fn enable_clause_recording(&mut self) {
        if self.recorded.is_none() {
            self.recorded = Some(Arc::default());
        }
    }

    /// The shadow formula recorded since [`Solver::enable_clause_recording`],
    /// over this solver's current variable range, shared with the solver
    /// rather than copied: recording a clause while a handle is alive copies
    /// the record first. `None` if recording was never enabled.
    pub fn shadow_formula(&mut self) -> Option<Arc<crate::dimacs::Cnf>> {
        let num_vars = self.num_vars();
        let recorded = self.recorded.as_mut()?;
        if let Some(cnf) = Arc::get_mut(recorded) {
            cnf.clauses.shrink_to_fit();
        }
        if recorded.num_vars != num_vars {
            Arc::make_mut(recorded).num_vars = num_vars;
        }
        Some(Arc::clone(recorded))
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add_clause(lits);
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.values[l.code()]
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause; returns `false` if the solver became trivially
    /// unsatisfiable (empty clause or conflicting units at level 0).
    ///
    /// Duplicate literals are removed and tautological clauses are silently
    /// accepted (and dropped). Must be called when no solve is in progress;
    /// assignments from previous solves are rolled back automatically.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_inner(lits, true)
    }

    /// Adds a clause the caller asserts to be a *consequence* of the formula
    /// (e.g. an optimizer's refuted-bound clause) rather than an axiom.
    ///
    /// Identical to [`Solver::add_clause`] except the clause is excluded from
    /// the shadow formula ([`Solver::enable_clause_recording`]), so exported
    /// certificates are stated over the axioms alone. The clause *is* still
    /// reported to an installed [`ProofSink`] as an addition; the resulting
    /// proof remains checkable only if the clause is RUP at that point.
    pub fn add_clause_derived(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_inner(lits, false)
    }

    fn add_clause_inner(&mut self, lits: &[Lit], record: bool) -> bool {
        if !self.ok {
            return false;
        }
        if record {
            if let Some(rec) = self.recorded.as_mut() {
                Arc::make_mut(rec).clauses.push(lits.to_vec());
            }
        }
        self.cancel_until(0);
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(ls.len());
        let mut dropped_lits = false;
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: contains l and !l (adjacent after sort)
            }
            match self.lit_value(l) {
                LBool::True => return true,          // already satisfied at level 0
                LBool::False => dropped_lits = true, // falsified at level 0: drop
                LBool::Undef => simplified.push(l),
            }
        }
        // A simplified clause that lost literals (or a derived clause, which
        // the checker has never seen) is a derivation step of its own; a
        // clause passed through verbatim is already in the input formula.
        if (dropped_lits || !record) && !simplified.is_empty() {
            self.proof_add(&simplified);
        }
        match simplified.len() {
            0 => {
                self.proof_add(&[]);
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.proof_add(&[]);
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&simplified, false);
                self.n_original_clauses += 1;
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    fn detach_clause(&mut self, cref: ClauseRef) {
        let lits = self.arena.lits(cref);
        for l in [lits[0], lits[1]] {
            let ws = &mut self.watches[(!l).code()];
            if let Some(pos) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(pos);
            }
        }
        // Only learnt clauses are ever detached (database reduction); their
        // removal must reach the proof so the checker's database matches.
        if self.arena.is_learnt(cref) {
            self.stats.learnt_clauses -= 1;
            self.stats.deleted_clauses += 1;
            if let Some(p) = self.proof.as_mut() {
                p.delete_clause(self.arena.lits(cref));
            }
        }
        self.arena.free(cref);
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        self.values[l.code()] = LBool::True;
        self.values[(!l).code()] = LBool::False;
        let v = l.var().index();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut confl = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let n = ws.len();
            let mut i = 0;
            let mut j = 0;
            while i < n {
                let w = ws[i];
                i += 1;
                if self.values[w.blocker.code()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let lits = self.arena.lits_mut(w.cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let kept = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.values[first.code()] == LBool::True {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                // Search a replacement watch.
                let values = &self.values;
                if let Some(k) = lits[2..]
                    .iter()
                    .position(|l| values[l.code()] != LBool::False)
                {
                    lits.swap(1, k + 2);
                    self.watches[(!lits[1]).code()].push(kept);
                    continue;
                }
                // Unit or conflicting.
                ws[j] = kept;
                j += 1;
                if self.values[first.code()] == LBool::False {
                    confl = Some(w.cref);
                    self.qhead = self.trail.len();
                    ws.copy_within(i..n, j);
                    j += n - i;
                    i = n;
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
        }
        confl
    }

    fn bump_var(&mut self, v: Var) {
        let idx = v.index();
        self.activity[idx] += self.var_inc;
        if self.activity[idx] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(idx, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let activity = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            self.arena.scale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// Decays every variable activity by 0.95 and every learnt-clause
    /// activity by 0.999, by growing the increments instead.
    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` (asserting literal first) and returns the backtrack
    /// level.
    fn analyze(&mut self, mut confl: ClauseRef) -> usize {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let cur_level = self.decision_level() as u32;

        loop {
            if self.arena.is_learnt(confl) {
                self.bump_clause(confl);
            }
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(confl) {
                let q = self.arena.lits(confl)[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal on the trail that participates in the conflict.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
        }
        learnt[0] = !p.expect("analysis must find a UIP");

        // Mark literals for minimization membership tests.
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = true;
        }
        // Basic clause minimization: drop literals implied by the rest. Kept
        // literals are swapped to the front in their order; dropped ones
        // collect behind them so their marks can still be cleared.
        let mut kept = 1;
        for k in 1..learnt.len() {
            let l = learnt[k];
            let redundant = self.reason[l.var().index()].is_some_and(|r| {
                self.arena.lits(r).iter().all(|&q| {
                    q.var() == l.var()
                        || self.seen[q.var().index()]
                        || self.level[q.var().index()] == 0
                })
            });
            if redundant {
                self.stats.minimized_literals += 1;
            } else {
                learnt.swap(kept, k);
                kept += 1;
            }
        }
        // Clear seen flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        learnt.truncate(kept);

        // Find backtrack level: max level among learnt[1..].
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        self.learnt = learnt;
        bt_level
    }

    /// Computes the set of assumption literals responsible for forcing `!p`.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            // p itself is falsified at the root level: the failed assumption
            // !p is the entire core.
            self.conflict_core[0] = !p;
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if !self.seen[x.index()] {
                continue;
            }
            match self.reason[x.index()] {
                None => {
                    debug_assert!(self.level[x.index()] > 0);
                    self.conflict_core.push(!self.trail[i]);
                }
                Some(r) => {
                    for &q in &self.arena.lits(r)[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[x.index()] = false;
        }
        self.seen[p.var().index()] = false;
        // conflict_core currently holds literals l whose conjunction of !l is
        // implied; keep the assumption literals themselves (the failed set).
        for l in &mut self.conflict_core {
            *l = !*l;
        }
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = l.is_positive();
            self.values[l.code()] = LBool::Undef;
            self.values[(!l).code()] = LBool::Undef;
            self.reason[v] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            let v = Var::from_index(v);
            if self.lit_value(v.positive()) == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Reduces the learnt-clause database, removing the low-activity half,
    /// and compacts the arena once half of it is garbage.
    fn reduce_db(&mut self) {
        let mut learnts: Vec<(ClauseRef, f64, usize)> = self
            .arena
            .iter()
            .filter(|&c| self.arena.is_learnt(c) && !self.arena.is_deleted(c))
            .map(|c| (c, self.arena.activity(c), self.arena.len(c)))
            .collect();
        // Sort ascending by activity (ties: longer first for removal).
        learnts.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)));
        let n_remove = learnts.len() / 2;
        let mut removed = 0;
        for &(cref, _, len) in &learnts {
            if removed >= n_remove {
                break;
            }
            if len <= 2 || self.is_locked(cref) {
                continue;
            }
            self.detach_clause(cref);
            removed += 1;
        }
        if self.arena.needs_compaction() {
            self.compact_arena();
        }
    }

    /// Compacts the arena and renumbers every watcher and reason. Watch
    /// lists keep their order, so the search is unaffected.
    fn compact_arena(&mut self) {
        let reloc = self.arena.compact();
        for ws in &mut self.watches {
            for w in ws {
                w.cref = reloc.apply(w.cref);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            *r = reloc.apply(*r);
        }
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lits(cref)[0];
        self.lit_value(first) == LBool::True && self.reason[first.var().index()] == Some(cref)
    }

    /// Solves the formula with no assumptions. Returns `true` when
    /// satisfiable.
    pub fn solve(&mut self) -> bool {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. Returns `true` when
    /// satisfiable; on `false`, [`Solver::unsat_core`] lists the subset of
    /// assumptions that caused the conflict.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        matches!(self.solve_limited(assumptions), SolveOutcome::Sat)
    }

    /// Solves under assumptions with the configured conflict budget.
    ///
    /// When a tracer is installed via [`Solver::set_control`], the call is
    /// wrapped in a `sat.solve` span (outcome in the exit note) and the
    /// lifetime [`SolverStats`] are emitted as `sat.*` gauges when the call
    /// returns, so aborted solves still report their work.
    pub fn solve_limited(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        if !self.control.tracer.enabled() {
            return self.solve_limited_inner(assumptions);
        }
        let tracer = self.control.tracer.clone();
        let mut span = tracer.span("sat.solve");
        let outcome = self.solve_limited_inner(assumptions);
        span.set_note(match outcome {
            SolveOutcome::Sat => "sat",
            SolveOutcome::Unsat => "unsat",
            SolveOutcome::Unknown => "unknown",
        });
        self.emit_stats_gauges(&tracer);
        outcome
    }

    /// Emits the lifetime [`SolverStats`] as `sat.*` gauges on `tracer`.
    fn emit_stats_gauges(&self, tracer: &Tracer) {
        tracer.gauge("sat.decisions", self.stats.decisions as i64);
        tracer.gauge("sat.propagations", self.stats.propagations as i64);
        tracer.gauge("sat.conflicts", self.stats.conflicts as i64);
        tracer.gauge("sat.restarts", self.stats.restarts as i64);
        tracer.gauge("sat.learnt_clauses", self.stats.learnt_clauses as i64);
        tracer.gauge("sat.deleted_clauses", self.stats.deleted_clauses as i64);
        tracer.gauge(
            "sat.minimized_literals",
            self.stats.minimized_literals as i64,
        );
    }

    fn solve_limited_inner(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.model.clear();
        self.conflict_core.clear();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.proof_add(&[]);
            self.ok = false;
            return SolveOutcome::Unsat;
        }
        self.max_learnts = (self.n_original_clauses as f64 * 0.3).max(1000.0);
        // One source of truth for budget accounting: the per-call budget
        // (counted from this call's starting conflicts) and the lifetime cap
        // fold into a single lifetime conflict count to halt at.
        let halt_at = {
            let from_budget = self
                .conflict_budget
                .map(|b| self.stats.conflicts.saturating_add(b));
            let cap = self.control.conflict_cap;
            match (from_budget, cap) {
                (Some(b), Some(c)) => Some(b.min(c)),
                (b, c) => b.or(c),
            }
        };
        let mut restart_num: u64 = 0;
        loop {
            restart_num += 1;
            // Luby restarts, 100 conflicts per unit.
            let limit = luby(restart_num - 1).saturating_mul(100);
            match self.search(limit, assumptions, halt_at) {
                SearchResult::Sat => {
                    self.model = self.values.iter().step_by(2).copied().collect();
                    self.cancel_until(0);
                    return SolveOutcome::Sat;
                }
                SearchResult::Unsat => {
                    self.cancel_until(0);
                    return SolveOutcome::Unsat;
                }
                SearchResult::AssumptionsFailed => {
                    self.cancel_until(0);
                    return SolveOutcome::Unsat;
                }
                SearchResult::Restart => {
                    self.stats.restarts += 1;
                    self.control.tracer.counter("sat.restart", 1);
                    self.cancel_until(0);
                }
                SearchResult::BudgetExhausted => {
                    self.cancel_until(0);
                    return SolveOutcome::Unknown;
                }
            }
        }
    }

    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        halt_at: Option<u64>,
    ) -> SearchResult {
        let mut conflicts_here: u64 = 0;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                // Milestone checkpoint for long solves; the `enabled` check
                // keeps the disabled-tracer hot path to a single branch.
                if self.control.tracer.enabled() && self.stats.conflicts.is_multiple_of(4096) {
                    self.control
                        .tracer
                        .gauge("sat.conflicts.checkpoint", self.stats.conflicts as i64);
                }
                if self.decision_level() == 0 {
                    self.proof_add(&[]);
                    self.ok = false;
                    return SearchResult::Unsat;
                }
                let bt = self.analyze(confl);
                let learnt = std::mem::take(&mut self.learnt);
                self.proof_add(&learnt);
                // Never backtrack past the assumptions unnecessarily; standard
                // CDCL backjumps to bt and re-propagates.
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.attach_clause(&learnt, true);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.learnt = learnt;
                self.decay_activities();
                if self.halted(halt_at) {
                    return SearchResult::BudgetExhausted;
                }
            } else {
                if conflicts_here >= conflict_limit {
                    return SearchResult::Restart;
                }
                // Also poll cancellation on the decision path so
                // propagation-heavy instances with few conflicts still
                // stop promptly (and a pre-tripped flag or exhausted cap
                // aborts before any search work).
                if self.halted(halt_at) {
                    return SearchResult::BudgetExhausted;
                }
                if self.stats.learnt_clauses as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.5;
                }
                // Select the next decision: assumptions first.
                let next = loop {
                    if self.decision_level() < assumptions.len() {
                        let a = assumptions[self.decision_level()];
                        match self.lit_value(a) {
                            LBool::True => {
                                // Already satisfied: open a dummy level.
                                self.trail_lim.push(self.trail.len());
                                continue;
                            }
                            LBool::False => {
                                self.analyze_final(!a);
                                return SearchResult::AssumptionsFailed;
                            }
                            LBool::Undef => break Some(a),
                        }
                    } else {
                        match self.pick_branch_var() {
                            None => return SearchResult::Sat,
                            Some(v) => {
                                self.stats.decisions += 1;
                                break Some(v.lit(self.phase[v.index()]));
                            }
                        }
                    }
                };
                let next = next.expect("decision literal");
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// Model value of `v` after a satisfiable solve; `None` if the variable
    /// was unconstrained or no model is available.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// Model value of a literal after a satisfiable solve.
    pub fn lit_value_in_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }

    /// The failed assumptions from the last unsatisfiable
    /// [`Solver::solve_with_assumptions`] call.
    ///
    /// The conjunction of these assumption literals is sufficient for
    /// unsatisfiability.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// `false` once the clause set has become unconditionally unsatisfiable.
    pub fn is_ok(&self) -> bool {
        self.ok
    }
}

/// The Luby restart sequence value for restart index `x` (0-based):
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
fn luby(mut x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

enum SearchResult {
    Sat,
    Unsat,
    AssumptionsFailed,
    Restart,
    BudgetExhausted,
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve());
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        assert!(s.solve());
        assert_eq!(s.value(v), Some(true));
    }

    #[test]
    fn conflicting_units_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert!(!s.add_clause(&[v.negative()]));
        assert!(!s.solve());
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 5);
        for i in 0..4 {
            // v[i] -> v[i+1]
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        s.add_clause(&[v[0].positive()]);
        assert!(s.solve());
        for vi in &v {
            assert_eq!(s.value(*vi), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[None; 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Some(s.new_var());
            }
        }
        let p = |i: usize, j: usize| p[i][j].unwrap();
        for i in 0..3 {
            s.add_clause(&[p(i, 0).positive(), p(i, 1).positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p(i1, j).negative(), p(i2, j).negative()]);
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let vs: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, m)).collect();
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|j| vs[i][j].positive()).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[vs[i1][j].negative(), vs[i2][j].negative()]);
                }
            }
        }
        assert!(!s.solve());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, ... forces alternation; satisfiable.
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        for i in 0..5 {
            // xor = 1: (a | b) & (!a | !b)
            s.add_clause(&[v[i].positive(), v[i + 1].positive()]);
            s.add_clause(&[v[i].negative(), v[i + 1].negative()]);
        }
        s.add_clause(&[v[0].positive()]);
        assert!(s.solve());
        for i in 0..6 {
            assert_eq!(s.value(v[i]), Some(i % 2 == 0));
        }
    }

    #[test]
    fn assumptions_flip_results() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]); // a -> b
        assert!(!s.solve_with_assumptions(&[a.positive(), b.negative()]));
        assert!(s.solve_with_assumptions(&[a.positive(), b.positive()]));
        assert!(s.solve_with_assumptions(&[a.negative(), b.negative()]));
        // Solver remains usable after assumption failures.
        assert!(s.solve());
    }

    #[test]
    fn unsat_core_contains_failing_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.negative(), b.negative()]); // !(a & b)
        assert!(!s.solve_with_assumptions(&[c.positive(), a.positive(), b.positive()]));
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a.positive()) || core.contains(&b.positive()));
        // c is irrelevant and need not (though may) appear; the core must be
        // a subset of the assumptions.
        for l in &core {
            assert!([a.positive(), b.positive(), c.positive()].contains(l));
        }
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive(), a.negative()]));
        assert_eq!(s.num_clauses(), 0);
        assert!(s.solve());
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[a.positive(), a.positive(), b.positive()]));
        s.add_clause(&[a.negative()]);
        s.add_clause(&[b.negative(), a.positive()]);
        assert!(!s.solve());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
        // Restart intervals are 100 conflicts per Luby unit.
        for (idx, limit) in [(0, 100), (2, 200), (6, 400)] {
            assert_eq!(luby(idx) * 100, limit, "restart {idx}");
        }
    }

    #[test]
    fn random_3sat_under_threshold_is_sat() {
        // At clause/var ratio 3.0 (< 4.26 threshold), random 3-SAT is
        // almost surely satisfiable for n=60.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
        for trial in 0..5 {
            let n = 60;
            let m = 180;
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            for _ in 0..m {
                let mut lits = Vec::new();
                while lits.len() < 3 {
                    let vi = rng.gen_range(0..n);
                    let lit = v[vi].lit(rng.gen());
                    if !lits.iter().any(|&l: &Lit| l.var() == lit.var()) {
                        lits.push(lit);
                    }
                }
                s.add_clause(&lits);
            }
            assert!(s.solve(), "trial {trial} unexpectedly unsat");
            // Model completeness: SAT is only reported once every variable
            // is assigned, so the saved model must cover all of them.
            for vi in &v {
                assert!(s.value(*vi).is_some(), "trial {trial}: incomplete model");
            }
        }
    }

    #[test]
    fn model_satisfies_all_clauses() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 40;
        let mut s = Solver::new();
        let v = vars(&mut s, n);
        let mut clauses = Vec::new();
        for _ in 0..120 {
            let mut lits = Vec::new();
            for _ in 0..3 {
                let vi = rng.gen_range(0..n);
                lits.push(v[vi].lit(rng.gen()));
            }
            clauses.push(lits.clone());
            s.add_clause(&lits);
        }
        if s.solve() {
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| s.lit_value_in_model(l).unwrap_or(false)),
                    "model violates clause {c:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_reuse_after_unsat_assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 10);
        for i in 0..9 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        assert!(!s.solve_with_assumptions(&[v[0].positive(), v[9].negative()]));
        assert!(s.solve_with_assumptions(&[v[0].positive()]));
        assert_eq!(s.value(v[9]), Some(true));
        // Add a clause afterwards and re-solve.
        s.add_clause(&[v[9].negative()]);
        assert!(s.solve_with_assumptions(&[v[1].negative()]));
        assert!(!s.solve_with_assumptions(&[v[0].positive()]));
    }

    #[test]
    fn set_phase_steers_first_model() {
        // An unconstrained variable takes the seeded phase.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.set_phase(a, true);
        s.set_phase(b, false);
        assert!(s.solve());
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
    }

    #[test]
    fn solver_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Solver>();
        assert_send::<SolverStats>();
        assert_send::<super::SolveOutcome>();
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard pigeonhole instance with a tiny budget should time out.
        let n = 9;
        let m = 8;
        let mut s = Solver::new();
        let vs: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, m)).collect();
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|j| vs[i][j].positive()).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[vs[i1][j].negative(), vs[i2][j].negative()]);
                }
            }
        }
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
    }

    fn pigeonhole(n: usize, m: usize) -> Solver {
        let mut s = Solver::new();
        let vs: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, m)).collect();
        for i in 0..n {
            let c: Vec<Lit> = (0..m).map(|j| vs[i][j].positive()).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[vs[i1][j].negative(), vs[i2][j].negative()]);
                }
            }
        }
        s
    }

    #[test]
    fn pre_set_stop_flag_reports_unknown() {
        let mut s = pigeonhole(9, 8);
        let stop = Arc::new(AtomicBool::new(true));
        s.set_control(SolveControl {
            stop: Some(stop.clone()),
            ..SolveControl::default()
        });
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unknown);
        // Clearing the flag lets the same solver finish the proof.
        stop.store(false, Ordering::Relaxed);
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
        // Detaching works too.
        s.set_control(SolveControl::default());
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
    }

    #[test]
    fn tracer_records_solve_span_and_stats() {
        use qca_trace::{report, TraceEvent, Tracer};
        let (tracer, sink) = Tracer::to_memory();
        let mut s = pigeonhole(6, 5);
        s.set_control(SolveControl {
            tracer,
            ..SolveControl::default()
        });
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
        let events = sink.take();
        report::validate_forest(&events).unwrap();
        let enter = events
            .iter()
            .find(|e| matches!(e, TraceEvent::SpanEnter { name, .. } if name == "sat.solve"));
        assert!(enter.is_some(), "missing sat.solve span: {events:?}");
        let note = events.iter().find_map(|e| match e {
            TraceEvent::SpanExit { note: Some(n), .. } => Some(n.clone()),
            _ => None,
        });
        assert_eq!(note.as_deref(), Some("unsat"));
        let gauges = report::last_gauges(&events);
        assert_eq!(
            gauges.get("sat.conflicts"),
            Some(&(s.stats().conflicts as i64))
        );
        assert!(gauges.contains_key("sat.decisions"));
    }

    #[test]
    fn stop_flag_interrupts_from_another_thread() {
        let mut s = pigeonhole(11, 10);
        let stop = Arc::new(AtomicBool::new(false));
        s.set_control(SolveControl {
            stop: Some(stop.clone()),
            ..SolveControl::default()
        });
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            stop.store(true, Ordering::Relaxed);
        });
        // Hard enough that 20ms is (almost certainly) not enough to finish;
        // either way the call must terminate, and Unsat is also acceptable
        // if the host is unexpectedly fast.
        let outcome = s.solve_limited(&[]);
        assert!(matches!(
            outcome,
            SolveOutcome::Unknown | SolveOutcome::Unsat
        ));
        killer.join().unwrap();
    }

    #[test]
    fn budget_and_cap_share_one_accounting() {
        let mut s = pigeonhole(9, 8);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unknown);
        // The tighter of (budget, cap) wins: a huge budget with a small cap
        // still halts at the cap.
        s.set_conflict_budget(Some(1_000_000));
        s.set_control(SolveControl {
            conflict_cap: Some(s.stats().conflicts + 5),
            ..SolveControl::default()
        });
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unknown);
        // And clearing both lets the refutation finish.
        s.set_conflict_budget(None);
        s.set_control(SolveControl::default());
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
    }

    #[test]
    fn conflict_cap_spans_calls() {
        let mut s = pigeonhole(9, 8);
        s.set_control(SolveControl {
            conflict_cap: Some(10),
            ..SolveControl::default()
        });
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unknown);
        // The cap is lifetime-scoped: a second call is still capped even
        // though no per-call budget is set.
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unknown);
        s.set_control(SolveControl::default());
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
    }
}
