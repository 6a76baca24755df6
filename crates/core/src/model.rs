//! SMT model construction and solving (paper §IV-C).
//!
//! Variables: choice Booleans `c_s` per substitution, block start times
//! `e_b`, block durations `d_b` (linear pseudo-Boolean sums, Eq. 3), block
//! log-fidelities folded into one linear sum (Eq. 5), and the total duration
//! `D`. Constraints: substitution conflicts (Eq. 1) and block dependencies
//! (Eq. 2). Objectives: fidelity (Eq. 8), qubit idle time (Eq. 9), or the
//! combined success exponent (Eq. 10), maximized by the OMT engine.
//!
//! All quantities are fixed-point integers: durations in nanoseconds,
//! log-fidelities in units of `1e-6` (the paper's log-domain trick keeps
//! everything linear).

use crate::context::AdaptContext;
use crate::error::AdaptError;
use crate::preprocess::Preprocessed;
use crate::rules::Substitution;
use qca_hw::HardwareModel;
use qca_smt::omt::OptimalityCertificate;
use qca_smt::{omt, AuditBundle, IntExpr, SmtSolver};
use std::time::Duration;

/// Default per-probe conflict budget for the OMT search. The scheduling
/// objectives produce arithmetic-heavy UNSAT probes that plain clause
/// learning handles poorly (resolution cannot count); capping each probe
/// keeps adaptation fast while `SmtAdaptation::optimal` reports whether the
/// search was exact.
pub const DEFAULT_PROBE_BUDGET: u64 = 2_000;

/// Fixed-point scale for log-fidelities. Chosen as `10 * T2` so the
/// idle-time exponent weight per nanosecond is exactly `K = 10`: small
/// integer weights keep the bit-blasted adders narrow (the dominant factor
/// in OMT solve time) while the log-fidelity resolution (3.4e-5) stays well
/// below any per-gate delta.
///
/// Public because it defines the unit of [`SmtAdaptation::objective_value`]:
/// auditors (`qca-verify`) recompute objective values from the hardware gate
/// tables and must convert into the same fixed-point frame.
pub const LOG_SCALE: f64 = 29_000.0;

/// Optimization objective (paper Eqs. 8–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// `SAT F`: maximize the summed block log-fidelity (Eq. 8).
    #[default]
    Fidelity,
    /// `SAT R`: minimize aggregate qubit idle time (Eq. 9).
    IdleTime,
    /// `SAT P`: maximize log-fidelity minus the idle-time decay exponent
    /// (Eq. 10).
    Combined,
}

/// Parses the request spelling of an objective: `fidelity`, `idle` or
/// `combined`.
impl std::str::FromStr for Objective {
    type Err = String;

    fn from_str(s: &str) -> Result<Objective, String> {
        match s {
            "fidelity" => Ok(Objective::Fidelity),
            "idle" => Ok(Objective::IdleTime),
            "combined" => Ok(Objective::Combined),
            other => Err(format!("unknown objective {other:?}")),
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Fidelity => write!(f, "SAT F"),
            Objective::IdleTime => write!(f, "SAT R"),
            Objective::Combined => write!(f, "SAT P"),
        }
    }
}

/// Result of solving the adaptation model.
#[derive(Debug, Clone)]
pub struct SmtAdaptation {
    /// Ids of the chosen substitutions (`c_s = true`).
    pub chosen: Vec<usize>,
    /// Optimal objective value in fixed-point units.
    pub objective_value: i64,
    /// Number of SAT queries issued by the OMT search.
    pub queries: u64,
    /// Number of SAT variables in the bit-blasted model.
    pub sat_vars: usize,
    /// `true` when the OMT search proved optimality (no probe hit its
    /// conflict budget).
    pub optimal: bool,
    /// SAT solver statistics accumulated over the whole OMT search (the
    /// solver is fresh per call, so these are exact per-adaptation counts).
    pub solver_stats: qca_sat::SolverStats,
    /// Audit bundle and optimality certificate, present when the context
    /// requested certification ([`crate::AdaptOptions::certify`]).
    pub verification: Option<VerificationData>,
}

/// Everything an independent checker (`qca-verify`) needs to re-validate a
/// solve without trusting the solver stack.
#[derive(Debug, Clone)]
pub struct VerificationData {
    /// Recorded constraints, shadow formula, and the returned model.
    pub bundle: AuditBundle,
    /// DRAT refutation of `objective >= value + 1`; only present when the
    /// search proved optimality.
    pub certificate: Option<OptimalityCertificate>,
}

/// Resource limits for a model solve, driven by the batch engine's per-job
/// budgets. Cooperative cancellation lives on
/// [`AdaptContext::cancel`](crate::AdaptContext) alongside these limits.
#[derive(Debug, Clone, Default)]
pub struct AdaptLimits {
    /// Cap on the *total* SAT conflicts across the whole OMT search
    /// (all probes combined); `None` for unlimited. Tripping the cap
    /// degrades to the best incumbent, or [`AdaptError::Cancelled`] if
    /// none exists yet.
    pub total_conflicts: Option<u64>,
}

impl AdaptLimits {
    /// Conservative default conflict rate used by
    /// [`AdaptLimits::for_deadline`]: well below what the CDCL solver
    /// sustains on this workload's arithmetic-heavy models, so a
    /// deadline-derived budget trips *before* the wall clock on any
    /// reasonable machine and the result stays deterministic.
    pub const CONFLICTS_PER_MS: u64 = 500;

    /// Maps a wall-clock budget onto a deterministic total-conflict cap at
    /// `conflicts_per_ms` (see [`AdaptLimits::CONFLICTS_PER_MS`]).
    ///
    /// The conversion is intentionally a *limit*, not a promise: conflict
    /// counts are machine-independent, so the same deadline always degrades
    /// at the same point in the search, while an actual wall-clock
    /// guarantee additionally needs a [`crate::deadline::Watchdog`] flag
    /// armed on the
    /// [`AdaptContext`]. Sub-millisecond deadlines
    /// round up to a one-conflict budget rather than an unsatisfiable zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use qca_adapt::AdaptLimits;
    /// use std::time::Duration;
    ///
    /// let limits = AdaptLimits::for_deadline(Duration::from_millis(20), None);
    /// assert_eq!(limits.total_conflicts, Some(20 * AdaptLimits::CONFLICTS_PER_MS));
    /// ```
    pub fn for_deadline(deadline: Duration, conflicts_per_ms: Option<u64>) -> AdaptLimits {
        let rate = conflicts_per_ms.unwrap_or(Self::CONFLICTS_PER_MS).max(1);
        let budget = (deadline.as_millis() as u64).saturating_mul(rate).max(1);
        AdaptLimits {
            total_conflicts: Some(budget),
        }
    }
}

/// Integer cost data shared between the SMT encoding and the greedy warm
/// start, so both compute bit-identical objective values.
struct CostData {
    /// Per-substitution scaled log-fidelity delta.
    fid_w: Vec<i64>,
    /// Per-substitution duration delta (ns).
    dur_w: Vec<i64>,
    /// Per-substitution busy-time delta (scaled).
    busy_w: Vec<i64>,
    /// Scaled reference log-fidelity sum.
    fid_base: i64,
    /// Per-block reference durations (ns).
    dur_base: Vec<i64>,
    /// Scaled reference busy time.
    busy_base: i64,
    /// Idle weight per nanosecond (scaled).
    k: i64,
    /// Number of qubits.
    q: i64,
}

impl CostData {
    fn new(pre: &Preprocessed, hw: &HardwareModel, catalog: &[Substitution]) -> CostData {
        let scaled = |x: f64| (x * LOG_SCALE).round() as i64;
        let k = (LOG_SCALE / hw.t2()).round() as i64;
        let nblocks = pre.partition.blocks.len();
        let fid_w = catalog
            .iter()
            .map(|s| scaled(s.delta_log_fidelity))
            .collect();
        let dur_w: Vec<i64> = catalog
            .iter()
            .map(|s| s.delta_duration.round() as i64)
            .collect();
        let busy_w = catalog
            .iter()
            .zip(&dur_w)
            .map(|(s, &d)| k * pre.partition.blocks[s.block].qubits.len() as i64 * d)
            .collect();
        let dur_base: Vec<i64> = (0..nblocks)
            .map(|b| pre.cost[b].duration.round() as i64)
            .collect();
        let busy_base = (0..nblocks)
            .map(|b| k * pre.partition.blocks[b].qubits.len() as i64 * dur_base[b])
            .sum();
        CostData {
            fid_w,
            dur_w,
            busy_w,
            fid_base: scaled(pre.reference_log_fidelity()),
            dur_base,
            busy_base,
            k,
            q: pre.source.num_qubits() as i64,
        }
    }

    /// Objective weight of substitution `i` in the linear part of
    /// `objective` (the makespan term aside).
    fn weight(&self, i: usize, objective: Objective) -> i64 {
        match objective {
            Objective::IdleTime => self.busy_w[i],
            Objective::Combined => self.busy_w[i] + self.fid_w[i],
            Objective::Fidelity => self.fid_w[i],
        }
    }

    /// Evaluates the exact model objective of a concrete selection.
    fn evaluate(
        &self,
        pre: &Preprocessed,
        catalog: &[Substitution],
        selection: &[bool],
        objective: Objective,
    ) -> i64 {
        let fid: i64 = self.fid_base
            + selection
                .iter()
                .zip(&self.fid_w)
                .filter(|&(&s, _)| s)
                .map(|(_, &w)| w)
                .sum::<i64>();
        if objective == Objective::Fidelity {
            return fid;
        }
        let nblocks = pre.partition.blocks.len();
        let mut dur = self.dur_base.clone();
        let mut busy = self.busy_base;
        for (i, s) in catalog.iter().enumerate() {
            if selection[i] {
                dur[s.block] += self.dur_w[i];
                busy += self.busy_w[i];
            }
        }
        // ASAP longest path over the (topologically ordered) block DAG.
        let mut lp = vec![0i64; nblocks];
        for &(before, after) in &pre.partition.edges {
            lp[after] = lp[after].max(lp[before] + dur[before]);
        }
        let total = (0..nblocks).map(|b| lp[b] + dur[b]).max().unwrap_or(0);
        let idle = busy - self.k * self.q * total;
        match objective {
            Objective::IdleTime => idle,
            Objective::Combined => fid + idle,
            Objective::Fidelity => unreachable!(),
        }
    }
}

/// Sound upper bound on the positive objective part: for each block, the
/// best conflict-free subset of its substitutions (exhaustive for small
/// blocks, sum-of-positives otherwise), summed over blocks.
fn block_subset_upper_bound(
    pre: &Preprocessed,
    catalog: &[Substitution],
    cost: &CostData,
    objective: Objective,
) -> i64 {
    let weight = |i: usize| cost.weight(i, objective);
    let base = match objective {
        Objective::IdleTime => cost.busy_base,
        Objective::Combined => cost.busy_base + cost.fid_base,
        Objective::Fidelity => cost.fid_base,
    };
    let mut ub = base;
    for block in &pre.partition.blocks {
        let members: Vec<usize> = (0..catalog.len())
            .filter(|&i| catalog[i].block == block.id)
            .collect();
        if members.is_empty() {
            continue;
        }
        if members.len() <= 16 {
            let mut best = 0i64;
            'subset: for mask in 0u32..(1 << members.len()) {
                let mut total = 0i64;
                for (ai, &a) in members.iter().enumerate() {
                    if (mask >> ai) & 1 == 0 {
                        continue;
                    }
                    for (bi, &b) in members.iter().enumerate().skip(ai + 1) {
                        if (mask >> bi) & 1 == 1 && catalog[a].conflicts_with(&catalog[b]) {
                            continue 'subset;
                        }
                    }
                    total += weight(a);
                }
                best = best.max(total);
            }
            ub += best;
        } else {
            ub += members.iter().map(|&i| weight(i).max(0)).sum::<i64>();
        }
    }
    ub
}

/// Per-block routing-choice literals: for every block that carries routing
/// substitutions, the literals of those choices (ascending block id).
fn routing_choices(
    catalog: &[Substitution],
    choice: &[qca_sat::Lit],
) -> Vec<(usize, Vec<qca_sat::Lit>)> {
    let mut groups: std::collections::BTreeMap<usize, Vec<qca_sat::Lit>> =
        std::collections::BTreeMap::new();
    for (i, s) in catalog.iter().enumerate() {
        if s.route.is_some() {
            groups.entry(s.block).or_default().push(choice[i]);
        }
    }
    groups.into_iter().collect()
}

/// The start of the greedy warm start: every routed block's best routing
/// variant and nothing else. The all-false selection is infeasible when
/// routing clauses demand a choice per routed block, and the asserted
/// warm-start lower bound must come from a feasible selection.
fn route_seed(catalog: &[Substitution], cost: &CostData, objective: Objective) -> Vec<bool> {
    let mut route_best: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    for (i, s) in catalog.iter().enumerate() {
        if s.route.is_some() {
            route_best
                .entry(s.block)
                .and_modify(|best| {
                    if cost.weight(i, objective) > cost.weight(*best, objective) {
                        *best = i;
                    }
                })
                .or_insert(i);
        }
    }
    let mut selection = vec![false; catalog.len()];
    for &i in route_best.values() {
        selection[i] = true;
    }
    selection
}

/// Greedy warm start: from the [`route_seed`], apply the best improving
/// add-or-swap move until none improves. A move adds one unselected
/// substitution and ejects the selected ones it conflicts with; a plain add
/// ejects nothing. Conflicts never cross blocks, so the ejection set comes
/// from the candidate's own block, and a non-routing candidate that would
/// eject its block's route is skipped: every routed block keeps a route,
/// which the asserted lower bound needs. (Routing entries carry no ops
/// today, so only another route can eject one.) Returns the selection and
/// its exact model objective value.
fn greedy_selection(
    pre: &Preprocessed,
    catalog: &[Substitution],
    cost: &CostData,
    objective: Objective,
) -> (Vec<bool>, i64) {
    let mut selection = route_seed(catalog, cost, objective);
    let mut members = vec![Vec::new(); pre.partition.blocks.len()];
    for (i, s) in catalog.iter().enumerate() {
        members[s.block].push(i);
    }
    let mut best = cost.evaluate(pre, catalog, &selection, objective);
    loop {
        let mut improved: Option<(Vec<bool>, i64)> = None;
        for i in 0..catalog.len() {
            if selection[i] {
                continue;
            }
            let out: Vec<usize> = members[catalog[i].block]
                .iter()
                .copied()
                .filter(|&j| selection[j] && catalog[i].conflicts_with(&catalog[j]))
                .collect();
            if catalog[i].route.is_none() && out.iter().any(|&j| catalog[j].route.is_some()) {
                continue;
            }
            let mut moved = selection.clone();
            moved[i] = true;
            for j in out {
                moved[j] = false;
            }
            let v = cost.evaluate(pre, catalog, &moved, objective);
            if v > improved.as_ref().map_or(best, |&(_, bv)| bv) {
                improved = Some((moved, v));
            }
        }
        let Some((moved, v)) = improved else {
            break;
        };
        selection = moved;
        best = v;
    }
    (selection, best)
}

/// Builds and solves the SMT model, returning the optimal substitution
/// selection. The context supplies the objective, the probe budget
/// (unbudgeted when `ctx.options.exact`), engine-driven limits and
/// cancellation, and the tracer.
///
/// # Errors
///
/// Returns [`AdaptError::Infeasible`] if the model is unsatisfiable (cannot
/// happen for a well-formed catalog: the empty selection reproduces the
/// reference adaptation), or [`AdaptError::Cancelled`] when a limit or the
/// cancellation flag trips before any incumbent exists. A limit tripping
/// *after* the warm start produced an incumbent degrades to the best value
/// found (`SmtAdaptation::optimal == false`) instead.
pub fn solve_model(
    pre: &Preprocessed,
    hw: &HardwareModel,
    catalog: &[Substitution],
    ctx: &AdaptContext,
) -> Result<SmtAdaptation, AdaptError> {
    let objective = ctx.options.objective;
    let model = encode_model(pre, hw, catalog, ctx);

    // Warm start: the context's hint (a known-good selection, when still
    // valid for this catalog) or the greedy selection — whichever scores
    // better — anchors the search below.
    let mut warm_span = ctx.tracer.span("warm_start");
    let hinted = ctx
        .warm_hint
        .as_deref()
        .and_then(|ids| selection_from_ids(catalog, ids))
        .map(|sel| {
            let v = model.cost.evaluate(pre, catalog, &sel, objective);
            (sel, v)
        });
    let (greedy, greedy_value) = greedy_selection(pre, catalog, &model.cost, objective);
    let (warm, warm_value, warm_source) = match hinted {
        Some((sel, v)) if v >= greedy_value => (sel, v, "hint"),
        _ => (greedy, greedy_value, "greedy"),
    };
    warm_span.set_note(format!("value={warm_value} source={warm_source}"));
    drop(warm_span);

    // Size-adaptive search effort: bigger bit-blasted models get smaller
    // probe budgets — the warm start already pins the incumbent, so each
    // probe only chases the next level above it.
    let probe_conflict_budget = if ctx.options.exact {
        None
    } else if pre.partition.blocks.len() > 16 {
        Some(DEFAULT_PROBE_BUDGET / 4)
    } else {
        Some(DEFAULT_PROBE_BUDGET)
    };
    let options = omt::OmtOptions {
        probe_conflict_budget,
        certify: ctx.options.certify,
    };
    anchored_search(model, &warm, warm_value, options, ctx)
}

/// The bit-blasted adaptation model, ready to search: the solver with every
/// constraint asserted, the per-substitution choice literals, the objective
/// expression, and the integer cost tables behind them.
struct EncodedModel {
    smt: SmtSolver,
    choice: Vec<qca_sat::Lit>,
    objective_expr: IntExpr,
    cost: CostData,
}

/// Encodes the adaptation model (Eqs. 1–9) into a fresh SMT solver wired
/// with the context's run controls, certificate recording, and tracer.
fn encode_model(
    pre: &Preprocessed,
    hw: &HardwareModel,
    catalog: &[Substitution],
    ctx: &AdaptContext,
) -> EncodedModel {
    let objective = ctx.options.objective;
    let mut smt = SmtSolver::new();
    smt.set_control(ctx.solve_control());
    if ctx.options.certify {
        smt.enable_recording();
    }
    let mut encode_span = ctx.tracer.span_with("smt.encode", || {
        format!("objective={objective} catalog={}", catalog.len())
    });
    let choice: Vec<_> = catalog.iter().map(|_| smt.new_bool()).collect();

    // Eq. 1: conflicting substitutions are mutually exclusive.
    for (i, a) in catalog.iter().enumerate() {
        for (jj, b) in catalog.iter().enumerate().skip(i + 1) {
            if a.conflicts_with(b) {
                smt.add_clause(&[!choice[i], !choice[jj]]);
            }
        }
    }

    // Topology routing: a block whose operand pair is uncoupled carries
    // routing substitutions, and must select at least one of them (the
    // pairwise conflicts above already forbid picking two). Catalogs built
    // without a coupling map have no routing entries, so this adds nothing
    // and the encoding stays bit-identical to the topology-free model.
    for (block, lits) in routing_choices(catalog, &choice) {
        debug_assert!(!lits.is_empty(), "routed block {block} has no choices");
        smt.add_clause(&lits);
    }

    let nblocks = pre.partition.blocks.len();
    let cost = CostData::new(pre, hw, catalog);

    // Fidelity terms (Eqs. 5–6, aggregated): base + Σ 𝔽(s)·c_s. Only the
    // fidelity objective reads the sum on its own; the combined objective
    // folds the terms into its one PB sum below.
    let fid_terms: Vec<(i64, qca_sat::Lit)> = cost
        .fid_w
        .iter()
        .zip(&choice)
        .map(|(&w, &l)| (w, l))
        .collect();
    let fid_base = cost.fid_base;

    let objective_expr: IntExpr = match objective {
        Objective::Fidelity => smt.pb_sum(fid_base, &fid_terms),
        Objective::IdleTime | Objective::Combined => {
            // Per-block duration expressions (Eq. 3), plus per-block
            // min/max durations for bound tightening.
            let mut dur_exprs: Vec<IntExpr> = Vec::with_capacity(nblocks);
            let mut d_min = vec![0i64; nblocks];
            let mut d_max = vec![0i64; nblocks];
            for b in 0..nblocks {
                let base = cost.dur_base[b];
                let terms: Vec<(i64, qca_sat::Lit)> = catalog
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.block == b)
                    .map(|(i, _)| (cost.dur_w[i], choice[i]))
                    .collect();
                d_min[b] = (base + terms.iter().map(|&(w, _)| w.min(0)).sum::<i64>()).max(0);
                d_max[b] = base + terms.iter().map(|&(w, _)| w.max(0)).sum::<i64>();
                // A block's duration is non-negative under every
                // conflict-free selection (the bound `d_min` and the
                // makespan bound `total_lo` below rely on it too), so it
                // is encoded at offset 0: every start and end time then
                // shares offset 0, and no `max_of` needs a rebasing adder.
                dur_exprs.push(smt.pb_sum_nonneg(base, &terms));
            }
            // Tight per-block start-time windows from longest-path analysis:
            // the optimum is always attained by an ASAP schedule, so start
            // times never need to exceed the max-duration longest path.
            let longest_paths = |durs: &[i64]| -> Vec<i64> {
                let mut lp = vec![0i64; nblocks];
                // Block ids are topologically ordered by construction.
                for &(before, after) in &pre.partition.edges {
                    lp[after] = lp[after].max(lp[before] + durs[before]);
                }
                lp
            };
            let e_lo = longest_paths(&d_min);
            let e_hi = longest_paths(&d_max);
            let total_lo = (0..nblocks).map(|b| e_lo[b] + d_min[b]).max().unwrap_or(0);
            let total_hi = (0..nblocks)
                .map(|b| e_hi[b] + d_max[b])
                .max()
                .unwrap_or(0)
                .max(total_lo)
                .max(1);
            // Functionally-determined ASAP schedule: every start time is
            // the max over predecessor end times (Eq. 2 with equality, which
            // preserves the optimum because the objective improves when D
            // shrinks). This keeps the whole model a deterministic circuit
            // of the choice Booleans — the SAT solver only ever decides
            // `c_s`, and unit propagation derives all arithmetic.
            let preds = pre.partition.predecessors();
            let mut starts: Vec<IntExpr> = Vec::with_capacity(nblocks);
            let mut ends: Vec<IntExpr> = Vec::with_capacity(nblocks);
            for b in 0..nblocks {
                let pred_ends: Vec<IntExpr> = preds[b].iter().map(|&p| ends[p].clone()).collect();
                let start = if pred_ends.is_empty() {
                    smt.int_const(0)
                } else {
                    smt.max_of(&pred_ends)
                };
                let end = smt.add(&start, &dur_exprs[b]);
                starts.push(start);
                ends.push(end);
            }
            let total = smt.max_of(&ends);
            // The interval upper bound of the ASAP circuit coincides with
            // the max-duration longest path. (No analogous claim holds for
            // `total.lo`: duration-delta sums ignore substitution conflicts,
            // so a block's interval lower bound may dip below zero even
            // though no admissible selection realizes it.)
            debug_assert!(total.hi <= total_hi, "{} > {}", total.hi, total_hi);
            let horizon = total_hi;
            // Busy time with per-block qubit weights (see DESIGN.md): the
            // paper's Eq. 9 uses Σ d_b; we weight by the block's qubit count
            // so the modeled idle time matches the measured metric.
            let k = cost.k;
            let q = cost.q;
            let busy_terms: Vec<(i64, qca_sat::Lit)> = cost
                .busy_w
                .iter()
                .zip(&choice)
                .map(|(&w, &l)| (w, l))
                .collect();
            let busy_base: i64 = cost.busy_base;
            let pos = match objective {
                Objective::IdleTime => smt.pb_sum(busy_base, &busy_terms),
                Objective::Combined => {
                    let mut terms = busy_terms.clone();
                    for (t, f) in terms.iter_mut().zip(&fid_terms) {
                        t.0 += f.0;
                    }
                    smt.pb_sum(busy_base + fid_base, &terms)
                }
                Objective::Fidelity => unreachable!(),
            };
            // objective = pos - k*q*D. Subtraction is computed directly
            // (pos + k*q*(horizon - D), a constant shift) so the objective
            // stays a deterministic function of the choice Booleans.
            let kq = k * q;
            let slack = smt.sub_from_const(horizon, &total);
            let scaled_slack = smt.mul_const(&slack, kq);
            let j = smt.add(&pos, &scaled_slack);
            // Report values in the natural `pos - kq*D` frame.
            let mut j = j.shifted(-kq * horizon);
            // Tighten the objective's upper bound with a sound combinatorial
            // one: per-block best conflict-free subset of the positive
            // objective part, minus the minimum possible makespan term.
            let ub = block_subset_upper_bound(pre, catalog, &cost, objective) - kq * total_lo;
            j.hi = j.hi.min(ub);
            j
        }
    };

    let (vars, clauses) = (smt.num_sat_vars(), smt.num_clauses());
    encode_span.set_note(format!("vars={vars} clauses={clauses}"));
    drop(encode_span);
    ctx.tracer.gauge("smt.sat_vars", vars as i64);
    ctx.tracer.gauge("smt.sat_clauses", clauses as i64);
    EncodedModel {
        smt,
        choice,
        objective_expr,
        cost,
    }
}

/// The OMT search both solve paths share: phase-hints `selection` (also
/// the first model's assumptions), asserts `objective >= value` — sound
/// because `selection` realizes `value` — so the search only explores the
/// region above it, runs [`omt::maximize_with`], and reads back the chosen
/// ids and the verification data. Errors as [`solve_model`].
fn anchored_search(
    model: EncodedModel,
    selection: &[bool],
    value: i64,
    options: omt::OmtOptions,
    ctx: &AdaptContext,
) -> Result<SmtAdaptation, AdaptError> {
    let EncodedModel {
        mut smt,
        choice,
        objective_expr,
        ..
    } = model;
    let mut hint: Vec<qca_sat::Lit> = Vec::with_capacity(choice.len());
    for (&lit, &sel) in choice.iter().zip(selection) {
        smt.sat_mut().set_phase(lit.var(), sel);
        hint.push(if sel { lit } else { !lit });
    }
    let anchor = smt.int_const(value);
    smt.assert_ge(&objective_expr, &anchor);
    let Some(best) = omt::maximize_with(&mut smt, &objective_expr, options, &hint) else {
        // `None` from the OMT search means the very first check failed.
        // Under an interrupt that is a cancellation, not a proof of
        // infeasibility (the anchored model with its hint is feasible by
        // construction).
        let interrupted = ctx.cancelled()
            || ctx
                .limits
                .total_conflicts
                .is_some_and(|cap| smt.stats().conflicts >= cap);
        return Err(if interrupted {
            AdaptError::Cancelled
        } else {
            AdaptError::Infeasible
        });
    };
    let chosen = choice
        .iter()
        .enumerate()
        .filter(|&(_, &lit)| best.model.lit_is_true(lit))
        .map(|(i, _)| i)
        .collect();
    let verification = if ctx.options.certify {
        smt.audit_bundle(best.model.clone())
            .map(|bundle| VerificationData {
                bundle,
                // Cloned, not moved: the clone's vectors are sized exactly,
                // and cached adaptations keep the certificate for good.
                certificate: best.certificate.clone(),
            })
    } else {
        None
    };
    Ok(SmtAdaptation {
        chosen,
        objective_value: best.value,
        queries: best.queries,
        sat_vars: smt.num_sat_vars(),
        optimal: best.optimal,
        solver_stats: smt.stats().clone(),
        verification,
    })
}

/// Converts catalog ids into a selection mask, rejecting stale hints: ids
/// out of range, a selection violating a conflict constraint, or a routed
/// block left without a routing choice (e.g. a hint computed before a
/// coupling map was configured) yield `None`.
fn selection_from_ids(catalog: &[Substitution], ids: &[usize]) -> Option<Vec<bool>> {
    let mut selection = vec![false; catalog.len()];
    for &i in ids {
        if i >= catalog.len() {
            return None;
        }
        selection[i] = true;
    }
    for (i, a) in catalog.iter().enumerate() {
        if !selection[i] {
            continue;
        }
        for (j, b) in catalog.iter().enumerate().skip(i + 1) {
            if selection[j] && a.conflicts_with(b) {
                return None;
            }
        }
    }
    let mut routed_blocks: Vec<usize> = catalog
        .iter()
        .filter(|s| s.route.is_some())
        .map(|s| s.block)
        .collect();
    routed_blocks.sort_unstable();
    routed_blocks.dedup();
    for block in routed_blocks {
        let chosen_route = catalog
            .iter()
            .enumerate()
            .any(|(i, s)| selection[i] && s.block == block && s.route.is_some());
        if !chosen_route {
            return None;
        }
    }
    Some(selection)
}

/// Evaluates the exact fixed-point objective of a concrete substitution
/// selection (catalog ids) under `hw` — the same integer arithmetic the SMT
/// encoding bit-blasts. Recalibration uses this to re-score a cached
/// optimum under a drifted fidelity table without re-solving; ids out of
/// range are ignored.
pub fn evaluate_selection(
    pre: &Preprocessed,
    hw: &HardwareModel,
    catalog: &[Substitution],
    chosen: &[usize],
    objective: Objective,
) -> i64 {
    let cost = CostData::new(pre, hw, catalog);
    let mut selection = vec![false; catalog.len()];
    for &i in chosen {
        if i < selection.len() {
            selection[i] = true;
        }
    }
    cost.evaluate(pre, catalog, &selection, objective)
}

/// Outcome of [`recheck_optimum`].
#[derive(Debug)]
pub enum RecheckOutcome {
    /// The probe for a strictly better value was refuted: the cached
    /// selection is still optimal under this hardware model. Carries the
    /// refreshed solve result (re-scored objective value, fresh
    /// verification data when certifying).
    StillOptimal(Box<SmtAdaptation>),
    /// The cached selection is stale (invalid for the re-evaluated
    /// catalog), a strictly better selection exists, or a limit tripped
    /// before a verdict: a full warm-started re-solve is needed.
    Changed,
}

/// Re-checks a cached optimum under (possibly drifted) hardware data
/// without a full OMT search: re-encodes the model, re-scores `chosen`,
/// anchors the search at that value, and runs the OMT search from it. When
/// the cached selection is still optimal this costs exactly two SAT queries
/// — the hinted model, then the refuted `objective >= value + 1` probe,
/// which doubles as the optimality certificate when certifying.
///
/// # Errors
///
/// [`AdaptError::Cancelled`] when a limit or the cancellation flag trips
/// before a verdict.
pub fn recheck_optimum(
    pre: &Preprocessed,
    hw: &HardwareModel,
    catalog: &[Substitution],
    ctx: &AdaptContext,
    chosen: &[usize],
) -> Result<RecheckOutcome, AdaptError> {
    let Some(selection) = selection_from_ids(catalog, chosen) else {
        return Ok(RecheckOutcome::Changed);
    };
    let model = encode_model(pre, hw, catalog, ctx);
    let expected = model
        .cost
        .evaluate(pre, catalog, &selection, ctx.options.objective);
    let options = omt::OmtOptions {
        certify: ctx.options.certify,
        ..omt::OmtOptions::default()
    };
    let r = anchored_search(model, &selection, expected, options, ctx)?;
    Ok(if r.optimal && r.objective_value == expected {
        RecheckOutcome::StillOptimal(Box::new(r))
    } else {
        RecheckOutcome::Changed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use crate::rules::{append_routing_substitutions, evaluate_substitutions, RuleOptions};
    use qca_circuit::{Circuit, Gate};
    use qca_hw::{spin_qubit_model, GateTimes};

    fn setup(c: &Circuit) -> (Preprocessed, Vec<Substitution>, HardwareModel) {
        let hw = spin_qubit_model(GateTimes::D0);
        let pre = preprocess(c, &hw).unwrap();
        let subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        (pre, subs, hw)
    }

    #[test]
    fn objectives_parse_from_their_request_names() {
        for (name, objective) in [
            ("fidelity", Objective::Fidelity),
            ("idle", Objective::IdleTime),
            ("combined", Objective::Combined),
        ] {
            assert_eq!(name.parse::<Objective>(), Ok(objective));
        }
        let err = "bogus".parse::<Objective>().unwrap_err();
        assert!(err.contains("\"bogus\""), "{err}");
    }

    #[test]
    fn fidelity_objective_picks_beneficial_subs() {
        // Swap pattern: swap_c improves fidelity (0.999 vs 0.999^3 · H's).
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, subs, hw) = setup(&c);
        let r = solve_model(
            &pre,
            &hw,
            &subs,
            &AdaptContext::with_objective(Objective::Fidelity),
        )
        .unwrap();
        assert!(!r.chosen.is_empty());
        // The chosen set must contain a fidelity-improving substitution.
        let gain: f64 = r.chosen.iter().map(|&i| subs[i].delta_log_fidelity).sum();
        assert!(gain > 0.0, "gain {gain}");
    }

    #[test]
    fn objective_value_matches_selection_fidelity() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, subs, hw) = setup(&c);
        let r = solve_model(
            &pre,
            &hw,
            &subs,
            &AdaptContext::with_objective(Objective::Fidelity),
        )
        .unwrap();
        let expect = pre.reference_log_fidelity()
            + r.chosen
                .iter()
                .map(|&i| subs[i].delta_log_fidelity)
                .sum::<f64>();
        let got = r.objective_value as f64 / 29_000.0;
        assert!((got - expect).abs() < 1e-3, "got {got} expect {expect}");
    }

    #[test]
    fn warm_hint_preserves_answer_and_survives_stale_ids() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, subs, hw) = setup(&c);
        let base = solve_model(
            &pre,
            &hw,
            &subs,
            &AdaptContext::with_objective(Objective::Fidelity),
        )
        .unwrap();
        let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
        ctx.warm_hint = Some(base.chosen.clone());
        let hinted = solve_model(&pre, &hw, &subs, &ctx).unwrap();
        assert_eq!(hinted.objective_value, base.objective_value);
        // An out-of-range hint falls back to the greedy warm start.
        ctx.warm_hint = Some(vec![subs.len() + 7]);
        let fallback = solve_model(&pre, &hw, &subs, &ctx).unwrap();
        assert_eq!(fallback.objective_value, base.objective_value);
    }

    #[test]
    fn evaluate_selection_matches_solver_objective() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, subs, hw) = setup(&c);
        for obj in [
            Objective::Fidelity,
            Objective::IdleTime,
            Objective::Combined,
        ] {
            let r = solve_model(&pre, &hw, &subs, &AdaptContext::with_objective(obj)).unwrap();
            assert_eq!(
                evaluate_selection(&pre, &hw, &subs, &r.chosen, obj),
                r.objective_value,
                "{obj}"
            );
        }
    }

    #[test]
    fn recheck_confirms_optimum_in_two_queries_and_flags_suboptimal() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        let (pre, subs, hw) = setup(&c);
        let ctx = AdaptContext::with_objective(Objective::Fidelity);
        let best = solve_model(&pre, &hw, &subs, &ctx).unwrap();
        match recheck_optimum(&pre, &hw, &subs, &ctx, &best.chosen).unwrap() {
            RecheckOutcome::StillOptimal(r) => {
                assert_eq!(r.objective_value, best.objective_value);
                assert!(r.optimal);
                assert_eq!(r.chosen, best.chosen);
                // One query when the interval upper bound already pins the
                // optimum, two when an explicit refutation probe is needed.
                assert!(r.queries <= 2, "recheck took {} queries", r.queries);
            }
            RecheckOutcome::Changed => panic!("optimal selection reported as changed"),
        }
        // The (suboptimal) empty selection is detected as changed, as is a
        // selection with out-of-range ids.
        assert!(matches!(
            recheck_optimum(&pre, &hw, &subs, &ctx, &[]).unwrap(),
            RecheckOutcome::Changed
        ));
        assert!(matches!(
            recheck_optimum(&pre, &hw, &subs, &ctx, &[usize::MAX]).unwrap(),
            RecheckOutcome::Changed
        ));
    }

    #[test]
    fn no_conflicting_substitutions_chosen() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 2]);
        let (pre, subs, hw) = setup(&c);
        for obj in [
            Objective::Fidelity,
            Objective::IdleTime,
            Objective::Combined,
        ] {
            let r = solve_model(&pre, &hw, &subs, &AdaptContext::with_objective(obj)).unwrap();
            for (i, &a) in r.chosen.iter().enumerate() {
                for &b in &r.chosen[i + 1..] {
                    assert!(
                        !subs[a].conflicts_with(&subs[b]),
                        "{obj}: chose conflicting substitutions {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn idle_objective_prefers_short_swaps() {
        // Two qubits idle while a swap executes on the other two: the idle
        // objective should choose the fastest realization (swap_d, 19 ns).
        let mut c = Circuit::new(4);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[1, 0]);
        c.push(Gate::Cx, &[0, 1]);
        // Parallel long gates on 2,3 so the swap is off the critical path?
        // No: keep 2,3 idle so idling dominates.
        let (pre, subs, hw) = setup(&c);
        let r = solve_model(
            &pre,
            &hw,
            &subs,
            &AdaptContext::with_objective(Objective::IdleTime),
        )
        .unwrap();
        let kinds: Vec<_> = r.chosen.iter().map(|&i| subs[i].kind).collect();
        assert!(
            kinds.contains(&crate::rules::SubstitutionKind::SwapDiabatic),
            "idle objective should pick swap_d, got {kinds:?}"
        );
    }

    /// A `topology_stress` circuit with its catalog routed onto a line.
    fn routed_setup(
        num_qubits: usize,
        depth: usize,
        seed: u64,
    ) -> (Preprocessed, Vec<Substitution>, HardwareModel) {
        let hw = spin_qubit_model(GateTimes::D0);
        let c = qca_workloads::topology_stress(num_qubits, depth, seed);
        let pre = preprocess(&c, &hw).unwrap();
        let mut subs = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).unwrap();
        let line = qca_hw::CouplingMap::line(num_qubits);
        append_routing_substitutions(&mut subs, &pre, &hw, &line).unwrap();
        (pre, subs, hw)
    }

    #[test]
    fn swap_moves_lift_the_routed_warm_start() {
        // The routed idle circuit of e2ebench's cold-adapt corpus. Adding
        // substitutions alone stops at -33,360: it cannot swap a block's
        // route for a better one.
        let (pre, subs, hw) = routed_setup(4, 8, 0x5eed_2023 + 901);
        let cost = CostData::new(&pre, &hw, &subs);
        let (_, value) = greedy_selection(&pre, &subs, &cost, Objective::IdleTime);
        assert_eq!(value, -23_920);
    }

    proptest::proptest! {
        #[test]
        fn routed_warm_start_is_feasible_and_never_below_its_seed(
            num_qubits in 3usize..6,
            depth in 2usize..10,
            seed in 0u64..u64::MAX,
            objective in 0usize..3,
        ) {
            let objective = [
                Objective::Fidelity,
                Objective::IdleTime,
                Objective::Combined,
            ][objective];
            let (pre, subs, hw) = routed_setup(num_qubits, depth, seed);
            let cost = CostData::new(&pre, &hw, &subs);
            let (warm, value) = greedy_selection(&pre, &subs, &cost, objective);
            let ids: Vec<usize> = (0..subs.len()).filter(|&i| warm[i]).collect();
            for (k, &a) in ids.iter().enumerate() {
                for &b in &ids[k + 1..] {
                    proptest::prop_assert!(!subs[a].conflicts_with(&subs[b]), "{a} and {b}");
                }
            }
            for s in subs.iter().filter(|s| s.route.is_some()) {
                proptest::prop_assert!(
                    ids.iter().any(|&i| subs[i].block == s.block && subs[i].route.is_some()),
                    "routed block {} lost its route",
                    s.block
                );
            }
            proptest::prop_assert_eq!(selection_from_ids(&subs, &ids), Some(warm.clone()));
            proptest::prop_assert_eq!(cost.evaluate(&pre, &subs, &warm, objective), value);
            let seeded = route_seed(&subs, &cost, objective);
            let seed_value = cost.evaluate(&pre, &subs, &seeded, objective);
            proptest::prop_assert!(value >= seed_value, "{value} < {seed_value}");
        }
    }

    #[test]
    fn empty_catalog_still_solves() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cz, &[0, 1]);
        let hw = spin_qubit_model(GateTimes::D0);
        let pre = preprocess(&c, &hw).unwrap();
        let r = solve_model(
            &pre,
            &hw,
            &[],
            &AdaptContext::with_objective(Objective::Combined),
        )
        .unwrap();
        assert!(r.chosen.is_empty());
    }
}
