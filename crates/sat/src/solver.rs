//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! A from-scratch solver in the MiniSat lineage:
//!
//! * two-watched-literal propagation with blocker literals,
//! * first-UIP conflict analysis with basic clause minimization,
//! * exponential VSIDS variable activities with an indexed max-heap,
//! * phase saving,
//! * Luby-sequence restarts,
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

use crate::arena::{ClauseArena, ClauseRef};
use crate::config::{PhasePolicy, SolverConfig, XorShift64};
use crate::exchange::ExchangeHandle;
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

impl SolverStats {
    /// Counter-wise difference `self - earlier`, for per-call rates on a
    /// reused solver: snapshot [`Solver::stats`] before a `solve*` call,
    /// diff afterwards, and divide by the call's wall time to get
    /// conflicts/sec and propagations/sec for *that call* rather than the
    /// solver's lifetime (which spans every incremental query). Monotonic
    /// counters use saturating subtraction; `learnt_clauses` is a level,
    /// not a counter, so the current value is carried through unchanged.
    #[must_use]
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses,
            deleted_clauses: self.deleted_clauses.saturating_sub(earlier.deleted_clauses),
            minimized_literals: self
                .minimized_literals
                .saturating_sub(earlier.minimized_literals),
        }
    }
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
    priority_heap: ActivityHeap,
    is_priority: Vec<bool>,
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
    config: SolverConfig,
    rng: XorShift64,
    exchange: Option<ExchangeHandle>,
    n_original_clauses: usize,
    proof: Option<Box<dyn ProofSink>>,
    recorded: Option<Vec<Vec<Lit>>>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default [`SolverConfig`].
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver searching as described by `config`.
    ///
    /// # Panics
    ///
    /// When `config` fails [`SolverConfig::validate`].
    pub fn with_config(config: SolverConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid solver config: {e}");
        }
        let rng = XorShift64::new(config.seed);
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
            priority_heap: ActivityHeap::new(),
            is_priority: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            model: Vec::new(),
            conflict_core: Vec::new(),
            stats: SolverStats::default(),
            max_learnts: 0.0,
            config,
            rng,
            exchange: None,
            n_original_clauses: 0,
            proof: None,
            recorded: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.level.len());
        self.values.extend([LBool::Undef; 2]);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.is_priority.push(false);
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

    /// Marks a variable as a *priority decision variable*: the solver always
    /// branches on unassigned priority variables before any other variable.
    ///
    /// Intended for models where a small set of semantic choices functionally
    /// determines a large auxiliary encoding (bit-blasted arithmetic): with
    /// the choices decided first, the rest follows by unit propagation.
    pub fn mark_priority_var(&mut self, v: Var) {
        let idx = v.index();
        if !self.is_priority[idx] {
            self.is_priority[idx] = true;
            self.priority_heap.insert(idx, &self.activity);
        }
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
    /// removes the limit. The budget is consumed per call. Equivalent to
    /// setting [`SolverConfig::conflict_budget`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.config.conflict_budget = budget;
    }

    /// Installs the caller-side run controls (lifetime conflict cap,
    /// cancellation flag, tracer) in one call. See [`SolveControl`].
    /// Equivalent to setting [`SolverConfig::control`].
    pub fn set_control(&mut self, control: SolveControl) {
        self.config.control = control;
    }

    /// The currently installed run controls.
    pub fn control(&self) -> &SolveControl {
        &self.config.control
    }

    /// `true` when the attached stop flag (if any) requests cancellation.
    #[inline]
    fn stop_requested(&self) -> bool {
        self.config
            .control
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
    /// captured. `None`-equivalent: see [`Solver::take_proof`].
    pub fn set_proof(&mut self, sink: Box<dyn ProofSink>) {
        self.proof = Some(sink);
    }

    /// Removes and returns the installed proof sink, if any. Emission stops.
    pub fn take_proof(&mut self) -> Option<Box<dyn ProofSink>> {
        self.proof.take()
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
    /// the axiom set can later be exported with [`Solver::recorded_cnf`] and
    /// re-checked by an independent tool. Clauses added through
    /// [`Solver::add_clause_derived`] are deliberately *not* recorded — they
    /// are consequences, not axioms.
    pub fn enable_clause_recording(&mut self) {
        if self.recorded.is_none() {
            self.recorded = Some(Vec::new());
        }
    }

    /// `true` while shadow-formula recording is enabled.
    pub fn recording_enabled(&self) -> bool {
        self.recorded.is_some()
    }

    /// The shadow formula recorded since [`Solver::enable_clause_recording`],
    /// as a [`Cnf`](crate::dimacs::Cnf) over this solver's current variable
    /// range. `None` if recording was never enabled.
    pub fn recorded_cnf(&self) -> Option<crate::dimacs::Cnf> {
        self.recorded.as_ref().map(|clauses| crate::dimacs::Cnf {
            num_vars: self.num_vars(),
            clauses: clauses.clone(),
        })
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add_clause(lits);
        }
    }

    /// Connects this solver to a shared [`ClauseExchange`] as one portfolio
    /// member: short learnt clauses passing the handle's caps are published,
    /// and foreign clauses are imported at every restart. Import is
    /// suppressed while a proof sink is installed (an imported clause is a
    /// consequence of the *shared* formula, but not necessarily RUP at this
    /// point of *this* solver's derivation, which would break DRAT
    /// checking).
    ///
    /// [`ClauseExchange`]: crate::ClauseExchange
    pub fn set_exchange(&mut self, handle: ExchangeHandle) {
        self.exchange = Some(handle);
    }

    /// The installed exchange handle, if any (accounting and import log).
    pub fn exchange(&self) -> Option<&ExchangeHandle> {
        self.exchange.as_ref()
    }

    /// Removes and returns the installed exchange handle, if any.
    pub fn take_exchange(&mut self) -> Option<ExchangeHandle> {
        self.exchange.take()
    }

    /// Exports the solver's current formula as a CNF over the same variable
    /// numbering: the level-0 trail as unit clauses (units are enqueued
    /// directly and never stored in the clause database) plus every live
    /// stored clause — original, derived, and learnt alike, in arena order
    /// (the order they were stored in; compaction keeps it) with each
    /// clause's literals in their current watch order. Learnt and derived
    /// clauses are consequences of the rest, so the export is
    /// equisatisfiable with the solver's formula and every model of it maps
    /// back verbatim; this is what portfolio members race on.
    pub fn export_formula(&self) -> crate::dimacs::Cnf {
        let mut clauses = Vec::new();
        if !self.ok {
            clauses.push(Vec::new());
        }
        let root = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..root] {
            clauses.push(vec![l]);
        }
        for cref in self.arena.iter() {
            if !self.arena.is_deleted(cref) {
                clauses.push(self.arena.lits(cref).to_vec());
            }
        }
        crate::dimacs::Cnf {
            num_vars: self.num_vars(),
            clauses,
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
                rec.push(lits.to_vec());
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
        self.priority_heap.update(idx, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let activity = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            self.arena.scale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay();
        self.cla_inc /= self.config.cla_decay();
    }

    /// Literal Block Distance of a clause under the current assignment: the
    /// number of distinct non-zero decision levels among its literals. Low
    /// LBD ("glue") clauses are the ones worth sharing.
    fn clause_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut lbd = 0u32;
        for &l in lits {
            let level = self.level[l.var().index()];
            if level > 0 && !self.seen[l.var().index()] {
                self.seen[l.var().index()] = true;
                lbd += 1;
            }
        }
        for &l in lits {
            self.seen[l.var().index()] = false;
        }
        lbd
    }

    /// Imports one foreign clause at decision level 0, attaching it as a
    /// learnt clause (so database reduction may drop it again). The clause
    /// must be a consequence of the formula; see [`Solver::set_exchange`].
    fn import_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut simplified = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return; // tautology
            }
            match self.lit_value(l) {
                LBool::True => return, // already satisfied at level 0
                LBool::False => {}     // falsified at level 0: drop literal
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => self.ok = false,
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.attach_clause(&simplified, true);
            }
        }
    }

    /// Pulls every admissible foreign clause from the exchange (restart-time
    /// hook; no-op without an exchange or while a proof sink is installed).
    fn import_shared(&mut self) {
        if self.proof.is_some() {
            return;
        }
        let Some(mut ex) = self.exchange.take() else {
            return;
        };
        let mut batch = Vec::new();
        ex.pull(&mut batch);
        self.exchange = Some(ex);
        for lits in &batch {
            if !self.ok {
                break;
            }
            self.import_clause(lits);
        }
    }

    /// Offers a freshly learnt clause to the exchange (no-op without one).
    #[inline]
    fn export_learnt(&mut self, learnt: &[Lit]) {
        if self.exchange.is_none() {
            return;
        }
        let lbd = self.clause_lbd(learnt);
        if let Some(mut ex) = self.exchange.take() {
            ex.offer(learnt, lbd);
            self.exchange = Some(ex);
        }
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
            if self.is_priority[v] {
                self.priority_heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.priority_heap.pop_max(&self.activity) {
            let v = Var::from_index(v);
            if self.lit_value(v.positive()) == LBool::Undef {
                return Some(v);
            }
        }
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

    /// The Luby restart sequence value for restart index `x` (0-based):
    /// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    /// (Lives in [`crate::config`] now; kept here for the unit tests.)
    #[cfg(test)]
    fn luby(x: u64) -> u64 {
        crate::config::luby(x)
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
        if !self.config.control.tracer.enabled() {
            return self.solve_limited_inner(assumptions);
        }
        let tracer = self.config.control.tracer.clone();
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
                .config
                .conflict_budget
                .map(|b| self.stats.conflicts.saturating_add(b));
            let cap = self.config.control.conflict_cap;
            match (from_budget, cap) {
                (Some(b), Some(c)) => Some(b.min(c)),
                (b, c) => b.or(c),
            }
        };
        self.import_shared();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        let mut restart_num: u64 = 0;
        loop {
            restart_num += 1;
            let limit = self.config.restart.limit(restart_num - 1);
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
                    self.config.control.tracer.counter("sat.restart", 1);
                    self.cancel_until(0);
                    self.import_shared();
                    if !self.ok {
                        return SolveOutcome::Unsat;
                    }
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
                if self.config.control.tracer.enabled() && self.stats.conflicts.is_multiple_of(4096)
                {
                    self.config
                        .control
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
                // Share the fresh clause before backjumping clears the
                // levels its LBD is computed from.
                self.export_learnt(&learnt);
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
                                let polarity = match self.config.phase {
                                    PhasePolicy::Saved => self.phase[v.index()],
                                    PhasePolicy::Positive => true,
                                    PhasePolicy::Negative => false,
                                    PhasePolicy::Random => self.rng.next_bool(),
                                };
                                break Some(v.lit(polarity));
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
    fn stats_delta_isolates_one_call() {
        // Refute pigeonhole 4-into-3, then check that deltas taken against
        // different baselines isolate exactly the work between them.
        let mut s = Solver::new();
        let holes = 3;
        let vs = vars(&mut s, 4 * holes);
        let var = |p: usize, h: usize| vs[p * holes + h];
        for p in 0..4 {
            let clause: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause(&[var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
        let after_first = s.stats().clone();
        assert!(after_first.propagations > 0);
        assert!(after_first.conflicts > 0);
        // Whole-call delta against the fresh-solver baseline is the
        // lifetime count itself.
        let from_zero = after_first.delta_since(&SolverStats::default());
        assert_eq!(from_zero.conflicts, after_first.conflicts);
        assert_eq!(from_zero.propagations, after_first.propagations);
        // A no-work window has an all-zero delta (levels carried through).
        let idle = after_first.delta_since(&after_first);
        assert_eq!(idle.conflicts, 0);
        assert_eq!(idle.propagations, 0);
        assert_eq!(idle.decisions, 0);
        assert_eq!(idle.learnt_clauses, after_first.learnt_clauses);
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
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
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
    fn priority_vars_decided_first() {
        // With x marked priority and an implication x -> y, deciding x first
        // (phase true) propagates y without ever deciding it.
        let mut s = Solver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[x.negative(), y.positive()]);
        s.mark_priority_var(x);
        s.set_phase(x, true);
        assert!(s.solve());
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.value(y), Some(true));
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
    fn with_config_steers_search_knobs() {
        use crate::config::{PhasePolicy, RestartSchedule, SolverConfig};
        // Geometric restarts + positive phase still refute pigeonhole...
        let cfg = SolverConfig {
            decay: Some(0.9),
            restart: RestartSchedule::Geometric {
                initial: 50,
                factor: 1.5,
            },
            phase: PhasePolicy::Positive,
            ..SolverConfig::default()
        };
        let mut s = Solver::with_config(cfg.clone());
        let vs: Vec<Var> = (0..72).map(|_| s.new_var()).collect();
        let var = |p: usize, h: usize| vs[p * 8 + h];
        for p in 0..9 {
            let clause: Vec<Lit> = (0..8).map(|h| var(p, h).positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..8 {
            for p1 in 0..9 {
                for p2 in (p1 + 1)..9 {
                    s.add_clause(&[var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
        assert_eq!(s.config().var_decay(), 0.9);
        // ...and so does a random-phase member with a seed.
        let mut s = Solver::with_config(SolverConfig {
            phase: PhasePolicy::Random,
            seed: 7,
            ..SolverConfig::default()
        });
        let vs: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
        let var = |p: usize, h: usize| vs[p * 5 + h];
        for p in 0..6 {
            let clause: Vec<Lit> = (0..5).map(|h| var(p, h).positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..5 {
            for p1 in 0..6 {
                for p2 in (p1 + 1)..6 {
                    s.add_clause(&[var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1), got 1.5")]
    fn with_config_panics_on_invalid_config() {
        use crate::config::SolverConfig;
        let _ = Solver::with_config(SolverConfig {
            decay: Some(1.5),
            ..SolverConfig::default()
        });
    }

    #[test]
    fn phase_policies_fix_unconstrained_polarity() {
        use crate::config::{PhasePolicy, SolverConfig};
        for (policy, expect) in [
            (PhasePolicy::Positive, true),
            (PhasePolicy::Negative, false),
        ] {
            let mut s = Solver::with_config(SolverConfig {
                phase: policy,
                ..SolverConfig::default()
            });
            let a = s.new_var();
            let b = s.new_var();
            s.add_clause(&[a.positive(), b.positive()]);
            assert!(s.solve());
            assert_eq!(s.value(a), Some(expect), "{policy:?}");
        }
    }

    #[test]
    fn config_budget_and_cap_share_one_accounting() {
        use crate::config::SolverConfig;
        // Budget via the config behaves exactly like set_conflict_budget.
        let cfg = SolverConfig {
            conflict_budget: Some(10),
            ..SolverConfig::default()
        };
        let mut s = pigeonhole(9, 8);
        s.set_conflict_budget(cfg.conflict_budget);
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
    fn export_formula_preserves_answers_and_units() {
        // UNSAT instance round-trips through export.
        let s = {
            let mut s = pigeonhole(5, 4);
            assert_eq!(s.solve_limited(&[]), SolveOutcome::Unsat);
            s
        };
        let cnf = s.export_formula();
        let mut racer = Solver::new();
        for _ in 0..cnf.num_vars {
            racer.new_var();
        }
        let mut ok = true;
        for c in &cnf.clauses {
            ok = racer.add_clause(c);
            if !ok {
                break;
            }
        }
        assert!(!ok || !racer.solve());

        // SAT instance with level-0 units: the units must appear in the
        // export (they are never stored in the clause database).
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive()]);
        s.add_clause(&[a.negative(), b.positive()]);
        let cnf = s.export_formula();
        assert!(cnf.clauses.contains(&vec![a.positive()]));
        let mut racer = Solver::new();
        for _ in 0..cnf.num_vars {
            racer.new_var();
        }
        for c in &cnf.clauses {
            racer.add_clause(c);
        }
        assert!(racer.solve());
        assert_eq!(racer.value(a), Some(true));
        assert_eq!(racer.value(b), Some(true));
    }

    #[test]
    fn exchange_import_keeps_answers_and_logs_clauses() {
        use crate::exchange::{ClauseExchange, ExchangeHandle, ImportFilter};
        // Pre-seed the exchange with consequences of the pigeonhole CNF
        // learnt by "member 0", then let member 1 import them mid-solve.
        let exchange = ClauseExchange::new(64);
        let mut exporter = pigeonhole(7, 6);
        exporter.set_exchange(ExchangeHandle::new(
            exchange.clone(),
            0,
            ImportFilter::default(),
        ));
        assert_eq!(exporter.solve_limited(&[]), SolveOutcome::Unsat);
        assert!(exporter.exchange().unwrap().exported() > 0);

        let mut importer = pigeonhole(7, 6);
        importer.set_exchange(ExchangeHandle::new(
            exchange.clone(),
            1,
            ImportFilter::default(),
        ));
        assert_eq!(importer.solve_limited(&[]), SolveOutcome::Unsat);
        let handle = importer.take_exchange().unwrap();
        assert!(handle.imported() > 0);
        assert_eq!(handle.imported() as usize, handle.imported_clauses().len());

        // A SAT instance stays SAT (and the model satisfies every imported
        // clause — they are consequences, so this must hold by soundness).
        let exchange = ClauseExchange::new(64);
        let build_sat = || {
            let mut s = Solver::new();
            let v: Vec<Var> = (0..40).map(|_| s.new_var()).collect();
            for i in 0..39 {
                s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
            }
            s.add_clause(&[v[0].positive(), v[20].positive()]);
            (s, v)
        };
        let (mut m0, _) = build_sat();
        m0.set_exchange(ExchangeHandle::new(
            exchange.clone(),
            0,
            ImportFilter::default(),
        ));
        assert!(m0.solve());
        let (mut m1, _) = build_sat();
        m1.set_exchange(ExchangeHandle::new(exchange, 1, ImportFilter::default()));
        assert!(m1.solve());
        let handle = m1.take_exchange().unwrap();
        for clause in handle.imported_clauses() {
            assert!(
                clause
                    .iter()
                    .any(|&l| m1.lit_value_in_model(l).unwrap_or(false)),
                "model violates imported clause {clause:?}"
            );
        }
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
