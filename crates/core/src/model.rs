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
use qca_trace::Span;
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
    /// Number of SAT queries issued by the OMT search; 0 for an answer
    /// decided without a solver (its warm start reached the objective's
    /// upper bound, see [`solve_model`]).
    pub queries: u64,
    /// Number of SAT variables in the bit-blasted model; 0 for a decided
    /// answer, which bit-blasts nothing.
    pub sat_vars: usize,
    /// `true` when the answer is proven optimal: it reached the objective's
    /// upper bound, or no probe hit its conflict budget.
    pub optimal: bool,
    /// SAT solver statistics accumulated over the whole OMT search (the
    /// solver is fresh per call, so these are exact per-adaptation counts);
    /// all 0 for a decided answer.
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
    /// Conservative conflict rate used by [`AdaptLimits::for_deadline`]:
    /// well below what the CDCL solver sustains on this workload's
    /// arithmetic-heavy models, so a deadline-derived budget trips *before*
    /// the wall clock on any reasonable machine and the result stays
    /// deterministic.
    pub const CONFLICTS_PER_MS: u64 = 500;

    /// Maps a wall-clock budget onto a deterministic total-conflict cap at
    /// [`AdaptLimits::CONFLICTS_PER_MS`].
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
    /// let limits = AdaptLimits::for_deadline(Duration::from_millis(20));
    /// assert_eq!(limits.total_conflicts, Some(20 * AdaptLimits::CONFLICTS_PER_MS));
    /// ```
    pub fn for_deadline(deadline: Duration) -> AdaptLimits {
        let budget = (deadline.as_millis() as u64)
            .saturating_mul(Self::CONFLICTS_PER_MS)
            .max(1);
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
        let mut dur = self.dur_base.clone();
        let mut busy = self.busy_base;
        for (i, s) in catalog.iter().enumerate() {
            if selection[i] {
                dur[s.block] += self.dur_w[i];
                busy += self.busy_w[i];
            }
        }
        let idle = busy - self.k * self.q * makespan(pre, &dur);
        match objective {
            Objective::IdleTime => idle,
            Objective::Combined => fid + idle,
            Objective::Fidelity => unreachable!(),
        }
    }
}

/// The ASAP makespan of the block DAG under per-block durations `dur`: the
/// longest path over the partition's edges (block ids are topologically
/// ordered by construction).
fn makespan(pre: &Preprocessed, dur: &[i64]) -> i64 {
    let mut lp = vec![0i64; dur.len()];
    for &(before, after) in &pre.partition.edges {
        lp[after] = lp[after].max(lp[before] + dur[before]);
    }
    lp.iter().zip(dur).map(|(l, d)| l + d).max().unwrap_or(0)
}

/// Most branch-and-bound nodes [`block_optimum`] visits in one block. A
/// block that needs more falls back to the sum of its positive weights. On
/// the paper's circuit families a block needs a few hundred nodes at most;
/// the cap only bounds the time a pathological block can take.
const BLOCK_NODE_CAP: u64 = 1 << 16;

/// The best conflict-free subset of one block's substitutions, under one
/// objective's per-substitution weights.
struct BlockOptimum {
    /// Upper bound on the block's summed weight over every admissible
    /// subset: the exact optimum, or the sum of positive weights when the
    /// search hit [`BLOCK_NODE_CAP`].
    bound: i64,
    /// The best admissible subset found (catalog ids); the argmax when
    /// `bound` is exact.
    best: Vec<usize>,
}

/// Branch-and-bound over one block's `members` (catalog ids): the heaviest
/// subset that is conflict-free and, in a routed block, holds exactly one
/// route. Members are tried heaviest first, each included (when it
/// conflicts with nothing chosen) before it is excluded, and a node is cut
/// when its weight plus the suffix sum of positive weights cannot beat the
/// incumbent.
fn block_optimum(
    catalog: &[Substitution],
    members: &[usize],
    weight: impl Fn(usize) -> i64,
) -> BlockOptimum {
    struct Search<'a> {
        catalog: &'a [Substitution],
        order: Vec<(usize, i64)>,
        suffix: Vec<i64>,
        routed: bool,
        chosen: Vec<usize>,
        best: Option<(Vec<usize>, i64)>,
        nodes: u64,
    }
    impl Search<'_> {
        fn visit(&mut self, k: usize, total: i64, has_route: bool) -> bool {
            self.nodes += 1;
            if self.nodes > BLOCK_NODE_CAP {
                return false;
            }
            let incumbent = self.best.as_ref().map(|&(_, v)| v);
            if k == self.order.len() {
                if (!self.routed || has_route) && incumbent.is_none_or(|v| total > v) {
                    self.best = Some((self.chosen.clone(), total));
                }
                return true;
            }
            if incumbent.is_some_and(|v| total + self.suffix[k] <= v) {
                return true;
            }
            let (i, w) = self.order[k];
            let s = &self.catalog[i];
            if !self
                .chosen
                .iter()
                .any(|&j| s.conflicts_with(&self.catalog[j]))
            {
                self.chosen.push(i);
                let done = self.visit(k + 1, total + w, has_route || s.route.is_some());
                self.chosen.pop();
                if !done {
                    return false;
                }
            }
            self.visit(k + 1, total, has_route)
        }
    }
    let mut order: Vec<(usize, i64)> = members.iter().map(|&i| (i, weight(i))).collect();
    order.sort_by_key(|&(i, w)| (std::cmp::Reverse(w), i));
    let mut suffix = vec![0i64; order.len() + 1];
    for k in (0..order.len()).rev() {
        suffix[k] = suffix[k + 1] + order[k].1.max(0);
    }
    let mut search = Search {
        catalog,
        routed: members.iter().any(|&i| catalog[i].route.is_some()),
        order,
        suffix,
        chosen: Vec::new(),
        best: None,
        nodes: 0,
    };
    let exact = search.visit(0, 0, false);
    // Even a capped search has an incumbent: its first leaf, reached after
    // one node per member, includes every member it can, which takes one
    // route in a routed block (routes conflict with routes only).
    let (best, value) = search.best.expect("a block's first leaf is admissible");
    BlockOptimum {
        bound: if exact { value } else { search.suffix[0] },
        best,
    }
}

/// Per-block optima of `objective`'s linear part (the makespan term aside).
/// Conflicts never cross blocks, so `bound` (the base plus every block's
/// bound) bounds the linear part of every admissible selection, and
/// `selection` (every block's best subset) is an admissible selection
/// attaining `bound` when no block hit the node cap.
struct BlockBound {
    bound: i64,
    selection: Vec<bool>,
}

fn block_bound(
    blocks: &Blocks,
    catalog: &[Substitution],
    cost: &CostData,
    objective: Objective,
) -> BlockBound {
    let mut bound = match objective {
        Objective::IdleTime => cost.busy_base,
        Objective::Combined => cost.busy_base + cost.fid_base,
        Objective::Fidelity => cost.fid_base,
    };
    let mut selection = vec![false; catalog.len()];
    for members in &blocks.members {
        let opt = block_optimum(catalog, members, |i| cost.weight(i, objective));
        bound += opt.bound;
        for i in opt.best {
            selection[i] = true;
        }
    }
    BlockBound { bound, selection }
}

/// The objective's combinatorial upper bound: the `hi` at which the OMT
/// search stops, proven, and at which [`solve_model`] answers without
/// building a solver. Eq. 8's fidelity is a sum of per-substitution weights
/// and Eq. 1 conflicts never cross blocks, so the per-block optima sum to
/// the fidelity optimum. A scheduling objective is at most its linear
/// part's per-block optima minus the smallest makespan term (every block at
/// its shortest duration). Idle is also at most 0: the partition chains
/// every qubit's blocks and durations are non-negative, so each qubit's
/// busy time is at most `D` and busy <= k*q*D. Combined = fidelity + idle
/// is then at most the fidelity bound. Returns the bound and, for
/// fidelity and combined, the fidelity block argmax (every block's best
/// subset under the fidelity weights): an admissible selection, attaining
/// the fidelity bound unless a block hit the node cap.
fn objective_bound(
    pre: &Preprocessed,
    catalog: &[Substitution],
    blocks: &Blocks,
    cost: &CostData,
    objective: Objective,
) -> (i64, Option<Vec<bool>>) {
    let (cap, argmax) = match objective {
        Objective::Fidelity => {
            let fid = block_bound(blocks, catalog, cost, objective);
            return (fid.bound, Some(fid.selection));
        }
        Objective::IdleTime => (0, None),
        Objective::Combined => {
            let fid = block_bound(blocks, catalog, cost, Objective::Fidelity);
            (fid.bound, Some(fid.selection))
        }
    };
    let d_min: Vec<i64> = blocks
        .members
        .iter()
        .zip(&cost.dur_base)
        .map(|(members, &base)| {
            (base + members.iter().map(|&i| cost.dur_w[i].min(0)).sum::<i64>()).max(0)
        })
        .collect();
    let linear = block_bound(blocks, catalog, cost, objective).bound
        - cost.k * cost.q * makespan(pre, &d_min);
    (linear.min(cap), argmax)
}

/// The catalog indexed by block, built once per solve: every per-block
/// question of the model (conflicts, routing, durations, the bounds and the
/// warm start) reads these lists. Conflicts never cross blocks, so a
/// block's members are all an entry can conflict with.
struct Blocks {
    /// Catalog ids per block (ascending), indexed by block id.
    members: Vec<Vec<usize>>,
    /// Routing-substitution ids per block (ascending), indexed by block id;
    /// empty for a block that needs no routing.
    routes: Vec<Vec<usize>>,
}

impl Blocks {
    fn new(pre: &Preprocessed, catalog: &[Substitution]) -> Blocks {
        let nblocks = pre.partition.blocks.len();
        let mut blocks = Blocks {
            members: vec![Vec::new(); nblocks],
            routes: vec![Vec::new(); nblocks],
        };
        for (i, s) in catalog.iter().enumerate() {
            blocks.members[s.block].push(i);
            if s.route.is_some() {
                blocks.routes[s.block].push(i);
            }
        }
        blocks
    }

    /// The members of `i`'s block after `i`: each same-block pair once.
    fn later_members(&self, catalog: &[Substitution], i: usize) -> &[usize] {
        let members = &self.members[catalog[i].block];
        &members[members.partition_point(|&j| j <= i)..]
    }
}

/// What the decide step computes once per solve, without a solver: the
/// catalog indexed by block, the integer cost tables, and the objective's
/// `hi` ([`objective_bound`]). The warm start, the decision and the
/// encoder all read it.
struct Tables {
    blocks: Blocks,
    cost: CostData,
    hi: i64,
}

impl Tables {
    /// The tables of one solve, with the fidelity block argmax of
    /// [`objective_bound`] (fidelity and combined only).
    fn new(
        pre: &Preprocessed,
        hw: &HardwareModel,
        catalog: &[Substitution],
        objective: Objective,
    ) -> (Tables, Option<Vec<bool>>) {
        let blocks = Blocks::new(pre, catalog);
        let cost = CostData::new(pre, hw, catalog);
        let (hi, argmax) = objective_bound(pre, catalog, &blocks, &cost, objective);
        (Tables { blocks, cost, hi }, argmax)
    }

    /// Whether an anchor of objective `value` is the answer, with no solver
    /// built. It is when it reaches `hi`: the prove step's search would stop,
    /// proven, at its first model, which its hint makes the anchor itself.
    /// A certifying context still needs the solver's refutation, and a
    /// cancelled one the cancellation the solver reports. Notes the anchor
    /// (`source` names it), `hi` and the verdict on the `warm_start` span.
    fn decides(&self, span: &mut Span, value: i64, source: &str, ctx: &AdaptContext) -> bool {
        let decided = value >= self.hi && !ctx.options.certify && !ctx.cancelled();
        span.set_note(format!(
            "value={value} source={source} hi={} decided={decided}",
            self.hi
        ));
        decided
    }
}

/// The start of the greedy warm start: every routed block's best routing
/// variant (the first in catalog order on a tie) and nothing else. The
/// all-false selection is infeasible when routing clauses demand a choice
/// per routed block, and the asserted warm-start lower bound must come from
/// a feasible selection.
fn route_seed(
    catalog: &[Substitution],
    blocks: &Blocks,
    cost: &CostData,
    objective: Objective,
) -> Vec<bool> {
    let mut selection = vec![false; catalog.len()];
    for routes in &blocks.routes {
        let best = routes.iter().copied().reduce(|best, i| {
            if cost.weight(i, objective) > cost.weight(best, objective) {
                i
            } else {
                best
            }
        });
        if let Some(i) = best {
            selection[i] = true;
        }
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
    blocks: &Blocks,
    cost: &CostData,
    objective: Objective,
) -> (Vec<bool>, i64) {
    let mut selection = route_seed(catalog, blocks, cost, objective);
    let mut best = cost.evaluate(pre, catalog, &selection, objective);
    loop {
        let mut improved: Option<(Vec<bool>, i64)> = None;
        for i in 0..catalog.len() {
            if selection[i] {
                continue;
            }
            let out: Vec<usize> = blocks.members[catalog[i].block]
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
/// The solve has two steps. *Decide* builds the per-block tables, the
/// objective's upper bound `hi` and the warm start, with no solver, inside
/// the `warm_start` span. When the warm start reaches `hi` (every fidelity
/// answer does unless a block hit the branch-and-bound node cap), it is the
/// answer: proven optimal with no SAT query, variable or solver statistic.
/// *Prove* runs otherwise, and always when certifying: it bit-blasts the
/// model from the same tables and runs the OMT search anchored at the warm
/// start.
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
    let (tables, warm, value, decided) = {
        let mut span = ctx.tracer.span("warm_start");
        let (tables, argmax) = Tables::new(pre, hw, catalog, ctx.options.objective);
        let (warm, value, source) = warm_start(pre, catalog, &tables, argmax, ctx);
        let decided = tables.decides(&mut span, value, source, ctx);
        (tables, warm, value, decided)
    };
    if decided {
        return Ok(SmtAdaptation::decided(&warm, value));
    }

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
    let model = encode_model(pre, catalog, &tables, ctx);
    anchored_search(model, &warm, value, probe_conflict_budget, ctx)
}

impl SmtAdaptation {
    /// The answer of a decide step whose anchor `selection` reached `hi`:
    /// proven, and with no solver built, no query, variable or statistic.
    fn decided(selection: &[bool], value: i64) -> SmtAdaptation {
        SmtAdaptation {
            chosen: (0..selection.len()).filter(|&i| selection[i]).collect(),
            objective_value: value,
            queries: 0,
            sat_vars: 0,
            optimal: true,
            solver_stats: qca_sat::SolverStats::default(),
            verification: None,
        }
    }
}

/// The selection [`solve_model`] anchors its search at: the context's hint
/// (a known-good selection, when still valid for this catalog) or the
/// greedy selection, whichever scores better. For fidelity and combined,
/// the fidelity block argmax of [`objective_bound`] replaces it when it
/// scores strictly better under the objective; on a tie, the greedy or
/// hinted selection is kept. (Under combined the argmax can reach `hi`,
/// the fidelity bound, only when its idle time is 0.) Returns the
/// selection, its objective value and its source (`hint`, `greedy` or
/// `blocks`).
fn warm_start(
    pre: &Preprocessed,
    catalog: &[Substitution],
    tables: &Tables,
    fidelity_argmax: Option<Vec<bool>>,
    ctx: &AdaptContext,
) -> (Vec<bool>, i64, &'static str) {
    let objective = ctx.options.objective;
    let Tables { blocks, cost, .. } = tables;
    let hinted = ctx
        .warm_hint
        .as_deref()
        .and_then(|ids| selection_from_ids(catalog, blocks, ids))
        .map(|sel| {
            let v = cost.evaluate(pre, catalog, &sel, objective);
            (sel, v)
        });
    let (greedy, greedy_value) = greedy_selection(pre, catalog, blocks, cost, objective);
    let mut warm = match hinted {
        Some((sel, v)) if v >= greedy_value => (sel, v, "hint"),
        _ => (greedy, greedy_value, "greedy"),
    };
    if let Some(argmax) = fidelity_argmax {
        let v = cost.evaluate(pre, catalog, &argmax, objective);
        if v > warm.1 {
            warm = (argmax, v, "blocks");
        }
    }
    warm
}

/// The bit-blasted adaptation model, ready to search: the solver with every
/// constraint asserted, the per-substitution choice literals, and the
/// objective expression.
struct EncodedModel {
    smt: SmtSolver,
    choice: Vec<qca_sat::Lit>,
    objective_expr: IntExpr,
}

/// Encodes the adaptation model (Eqs. 1–9) from the decide step's tables
/// into a fresh SMT solver wired with the context's run controls,
/// certificate recording, and tracer.
fn encode_model(
    pre: &Preprocessed,
    catalog: &[Substitution],
    tables: &Tables,
    ctx: &AdaptContext,
) -> EncodedModel {
    let objective = ctx.options.objective;
    let Tables { blocks, cost, hi } = tables;
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
        for &j in blocks.later_members(catalog, i) {
            if a.conflicts_with(&catalog[j]) {
                smt.add_clause(&[!choice[i], !choice[j]]);
            }
        }
    }

    // Topology routing: a block whose operand pair is uncoupled carries
    // routing substitutions, and must select at least one of them (the
    // pairwise conflicts above already forbid picking two). Catalogs built
    // without a coupling map have no routing entries, so this adds nothing
    // and the encoding stays bit-identical to the topology-free model.
    for routes in blocks.routes.iter().filter(|r| !r.is_empty()) {
        let lits: Vec<qca_sat::Lit> = routes.iter().map(|&i| choice[i]).collect();
        smt.add_clause(&lits);
    }

    let nblocks = pre.partition.blocks.len();

    let mut objective_expr: IntExpr = match objective {
        // Fidelity terms (Eqs. 5–6, aggregated): base + Σ 𝔽(s)·c_s. The
        // combined objective folds the terms into its one PB sum below.
        Objective::Fidelity => {
            let terms: Vec<(i64, qca_sat::Lit)> = cost
                .fid_w
                .iter()
                .copied()
                .zip(choice.iter().copied())
                .collect();
            smt.pb_sum(cost.fid_base, &terms)
        }
        Objective::IdleTime | Objective::Combined => {
            // Per-block duration expressions (Eq. 3), plus per-block
            // max durations for the makespan horizon.
            let mut dur_exprs: Vec<IntExpr> = Vec::with_capacity(nblocks);
            let mut d_max: Vec<i64> = Vec::with_capacity(nblocks);
            for (members, &base) in blocks.members.iter().zip(&cost.dur_base) {
                let terms: Vec<(i64, qca_sat::Lit)> = members
                    .iter()
                    .map(|&i| (cost.dur_w[i], choice[i]))
                    .collect();
                d_max.push(base + terms.iter().map(|&(w, _)| w.max(0)).sum::<i64>());
                // A block's duration is non-negative under every
                // conflict-free selection (the makespan bound of
                // `objective_bound` relies on it too), so it is encoded at
                // offset 0: every start and end time then shares offset 0,
                // and no `max_of` needs a rebasing adder.
                dur_exprs.push(smt.pb_sum_nonneg(base, &terms));
            }
            // The optimum is always attained by an ASAP schedule, so the
            // makespan never exceeds the max-duration longest path.
            let total_hi = makespan(pre, &d_max).max(1);
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
            let kq = k * q;
            // The makespan term enters as q*(horizon - D), a constant shift
            // of -q*D that keeps every addend non-negative and the objective
            // a deterministic function of the choice Booleans.
            let slack = smt.sub_from_const(horizon, &total);
            let j = match objective {
                // idle = k*(Σ_b |q_b|*d_b - q*D): the busy time is read off
                // the durations the schedule already encodes, at offset 0.
                Objective::IdleTime => {
                    let weighted: Vec<IntExpr> = dur_exprs
                        .iter()
                        .zip(&pre.partition.blocks)
                        .map(|(d, block)| match block.qubits.len() {
                            1 => d.clone(),
                            n => smt.mul_const(d, n as i64),
                        })
                        .collect();
                    let busy = smt.sum(&weighted);
                    let scaled_slack = smt.mul_const(&slack, q);
                    let unscaled = smt.add(&busy, &scaled_slack);
                    smt.mul_const(&unscaled, k)
                }
                // combined = fidelity + idle: the per-substitution fidelity
                // and busy weights merge into one PB sum.
                Objective::Combined => {
                    let terms: Vec<(i64, qca_sat::Lit)> = (0..catalog.len())
                        .map(|i| (cost.weight(i, objective), choice[i]))
                        .collect();
                    let pos = smt.pb_sum(cost.busy_base + cost.fid_base, &terms);
                    let scaled_slack = smt.mul_const(&slack, kq);
                    smt.add(&pos, &scaled_slack)
                }
                Objective::Fidelity => unreachable!(),
            };
            // Report values in the natural frame: undo the horizon shift.
            j.shifted(-kq * horizon)
        }
    };
    // The search stops, proven, at the objective's combinatorial bound.
    objective_expr.hi = objective_expr.hi.min(*hi);

    let (vars, clauses) = (smt.num_sat_vars(), smt.num_clauses());
    encode_span.set_note(format!("vars={vars} clauses={clauses}"));
    drop(encode_span);
    ctx.tracer.gauge("smt.sat_vars", vars as i64);
    ctx.tracer.gauge("smt.sat_clauses", clauses as i64);
    EncodedModel {
        smt,
        choice,
        objective_expr,
    }
}

/// The OMT search both solve paths share: phase-hints `selection` (also
/// the first model's assumptions), asserts `objective >= value` — sound
/// because `selection` realizes `value` — so the search only explores the
/// region above it, runs [`omt::maximize_with`], reads back the chosen ids
/// and the search's statistics, and only then, when certifying, runs
/// [`omt::certify`] on the same solver. Errors as [`solve_model`].
fn anchored_search(
    model: EncodedModel,
    selection: &[bool],
    value: i64,
    budget: Option<u64>,
    ctx: &AdaptContext,
) -> Result<SmtAdaptation, AdaptError> {
    let EncodedModel {
        mut smt,
        choice,
        objective_expr,
    } = model;
    let hint = {
        let _span = ctx.tracer.span("smt.anchor");
        let mut hint: Vec<qca_sat::Lit> = Vec::with_capacity(choice.len());
        for (&lit, &sel) in choice.iter().zip(selection) {
            smt.sat_mut().set_phase(lit.var(), sel);
            hint.push(if sel { lit } else { !lit });
        }
        let anchor = smt.int_const(value);
        smt.assert_ge(&objective_expr, &anchor);
        hint
    };
    let Some(mut best) = omt::maximize_with(&mut smt, &objective_expr, budget, &hint) else {
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
    let solver_stats = smt.stats().clone();
    let verification = if ctx.options.certify {
        let certificate = omt::certify(&mut smt, &objective_expr, &mut best);
        smt.take_audit_bundle(best.model)
            .map(|bundle| VerificationData {
                bundle,
                certificate,
            })
    } else {
        None
    };
    let result = SmtAdaptation {
        chosen,
        objective_value: best.value,
        queries: best.queries,
        sat_vars: smt.num_sat_vars(),
        optimal: best.optimal,
        solver_stats,
        verification,
    };
    // Freeing the clause database costs about as much as a probe-free
    // search; the span keeps it attributed in a trace.
    let _span = ctx.tracer.span("smt.drop");
    drop(smt);
    Ok(result)
}

/// Converts catalog ids into a selection mask, rejecting stale hints: ids
/// out of range, a selection violating a conflict constraint, or a routed
/// block left without a routing choice (e.g. a hint computed before a
/// coupling map was configured) yield `None`.
fn selection_from_ids(
    catalog: &[Substitution],
    blocks: &Blocks,
    ids: &[usize],
) -> Option<Vec<bool>> {
    let mut selection = vec![false; catalog.len()];
    for &i in ids {
        if i >= catalog.len() {
            return None;
        }
        selection[i] = true;
    }
    for i in (0..catalog.len()).filter(|&i| selection[i]) {
        let clash = blocks
            .later_members(catalog, i)
            .iter()
            .any(|&j| selection[j] && catalog[i].conflicts_with(&catalog[j]));
        if clash {
            return None;
        }
    }
    let unrouted = blocks
        .routes
        .iter()
        .any(|routes| !routes.is_empty() && !routes.iter().any(|&i| selection[i]));
    (!unrouted).then_some(selection)
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
    /// The cached selection is still optimal under this hardware model: it
    /// reaches the objective's upper bound, or the probe for a strictly
    /// better value was refuted. Carries the refreshed solve result
    /// (re-scored objective value, fresh verification data when
    /// certifying).
    StillOptimal(Box<SmtAdaptation>),
    /// The cached selection is stale (invalid for the re-evaluated
    /// catalog), a strictly better selection exists, or a limit tripped
    /// before a verdict: a full warm-started re-solve is needed.
    Changed,
}

/// Re-checks a cached optimum under (possibly drifted) hardware data
/// without a full OMT search, through the same decide and prove steps as
/// [`solve_model`], anchored at the re-scored `chosen`. A cached selection
/// whose value reaches the objective's upper bound (every fidelity optimum
/// does: the bound is the per-block optimum) is decided with no solver and
/// no SAT query, unless the context certifies. Otherwise the model is
/// encoded and searched from that value unbudgeted: a selection still
/// optimal costs two queries, the hinted model and the refuted
/// `objective >= value + 1` probe. A certifying context turns that
/// refutation into the certificate, or, for a value at the upper bound,
/// refutes `value + 1` in one more probe on the same solver.
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
    let (tables, selection, expected, decided) = {
        let mut span = ctx.tracer.span("warm_start");
        let (tables, _) = Tables::new(pre, hw, catalog, ctx.options.objective);
        let Some(selection) = selection_from_ids(catalog, &tables.blocks, chosen) else {
            span.set_note("source=cached stale");
            return Ok(RecheckOutcome::Changed);
        };
        let expected = tables
            .cost
            .evaluate(pre, catalog, &selection, ctx.options.objective);
        let decided = tables.decides(&mut span, expected, "cached", ctx);
        (tables, selection, expected, decided)
    };
    if decided {
        let r = SmtAdaptation::decided(&selection, expected);
        return Ok(RecheckOutcome::StillOptimal(Box::new(r)));
    }
    let model = encode_model(pre, catalog, &tables, ctx);
    let r = anchored_search(model, &selection, expected, None, ctx)?;
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
    fn recheck_confirms_optimum_without_a_query_and_flags_suboptimal() {
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
                // A fidelity optimum sits at the objective's upper bound,
                // so the decide step confirms it without a solver.
                assert_eq!(r.queries, 0);
                assert_eq!(r.sat_vars, 0);
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
        let blocks = Blocks::new(&pre, &subs);
        let (_, value) = greedy_selection(&pre, &subs, &blocks, &cost, Objective::IdleTime);
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
            let blocks = Blocks::new(&pre, &subs);
            let (warm, value) = greedy_selection(&pre, &subs, &blocks, &cost, objective);
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
            proptest::prop_assert_eq!(selection_from_ids(&subs, &blocks, &ids), Some(warm.clone()));
            proptest::prop_assert_eq!(cost.evaluate(&pre, &subs, &warm, objective), value);
            let seeded = route_seed(&subs, &blocks, &cost, objective);
            let seed_value = cost.evaluate(&pre, &subs, &seeded, objective);
            proptest::prop_assert!(value >= seed_value, "{value} < {seed_value}");
        }
    }

    /// The optimum of every objective over every admissible selection of a
    /// catalog of at most 16 entries: conflict-free, with a route in every
    /// routed block. Independent of the model: conflicts come from
    /// `conflicts_with` alone, values from the exact evaluator.
    fn brute_force_optima(pre: &Preprocessed, subs: &[Substitution], cost: &CostData) -> [i64; 3] {
        let n = subs.len();
        assert!(n <= 16, "catalog of {n} is too large to enumerate");
        let conflicts: Vec<u32> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i && subs[i].conflicts_with(&subs[j]))
                    .fold(0, |m, j| m | 1 << j)
            })
            .collect();
        let mut routes = std::collections::BTreeMap::<usize, u32>::new();
        for (i, s) in subs.iter().enumerate().filter(|(_, s)| s.route.is_some()) {
            *routes.entry(s.block).or_default() |= 1 << i;
        }
        let mut best = [i64::MIN; 3];
        for mask in 0u32..1 << n {
            let admissible = (0..n).all(|i| mask >> i & 1 == 0 || conflicts[i] & mask == 0)
                && routes.values().all(|&r| r & mask != 0);
            if !admissible {
                continue;
            }
            let selection: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            for (k, objective) in ALL_OBJECTIVES.into_iter().enumerate() {
                best[k] = best[k].max(cost.evaluate(pre, subs, &selection, objective));
            }
        }
        best
    }

    const ALL_OBJECTIVES: [Objective; 3] = [
        Objective::Fidelity,
        Objective::IdleTime,
        Objective::Combined,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Against enumeration of every admissible selection: the
        /// objective's `hi` never undercuts the optimum, the fidelity `hi`
        /// and warm start reach it, and a budgeted answer that claims
        /// optimality has it.
        #[test]
        fn bounds_and_proven_answers_match_brute_force(
            num_qubits in 3usize..5,
            depth in 2usize..6,
            seed in 0u64..u64::MAX,
            routed in 0usize..2,
        ) {
            let (pre, subs, hw) = if routed == 1 {
                routed_setup(num_qubits, depth, seed)
            } else {
                setup(&qca_workloads::random_template_circuit(
                    num_qubits, depth, seed, &qca_workloads::DEFAULT_TEMPLATE_GATES, true,
                ))
            };
            if subs.len() <= 16 {
                let optima = brute_force_optima(&pre, &subs, &CostData::new(&pre, &hw, &subs));
                for (objective, optimum) in ALL_OBJECTIVES.into_iter().zip(optima) {
                    let ctx = AdaptContext::with_objective(objective);
                    let (tables, argmax) = Tables::new(&pre, &hw, &subs, objective);
                    let hi = tables.hi;
                    proptest::prop_assert!(hi >= optimum, "{objective}: hi {hi} < {optimum}");
                    let encoded = encode_model(&pre, &subs, &tables, &ctx).objective_expr.hi;
                    proptest::prop_assert!(
                        (optimum..=hi).contains(&encoded),
                        "{objective}: encoded hi {encoded} outside [{optimum}, {hi}]"
                    );
                    if objective == Objective::Fidelity {
                        proptest::prop_assert_eq!(hi, optimum);
                        let (_, warm, _) = warm_start(&pre, &subs, &tables, argmax, &ctx);
                        proptest::prop_assert_eq!(warm, optimum);
                    }
                    let r = solve_model(&pre, &hw, &subs, &ctx).unwrap();
                    proptest::prop_assert!(r.objective_value <= optimum, "{objective}");
                    if r.optimal {
                        proptest::prop_assert_eq!(r.objective_value, optimum, "{}", objective);
                    }
                    if r.queries == 0 {
                        // Decided: no solver was built.
                        proptest::prop_assert!(r.optimal, "{objective}");
                        proptest::prop_assert_eq!(r.sat_vars, 0, "{}", objective);
                        proptest::prop_assert_eq!(
                            format!("{:?}", r.solver_stats),
                            format!("{:?}", qca_sat::SolverStats::default())
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// An answer decided without a solver is the answer the solver
        /// proves: whenever an uncertified exact solve issues no query, a
        /// certified exact solve of the same catalog, which always builds
        /// the solver and refutes `value + 1`, returns the same selection
        /// and value, proven.
        #[test]
        fn decided_answers_match_certified_solves(
            num_qubits in 3usize..5,
            depth in 2usize..8,
            seed in 0u64..u64::MAX,
            routed in 0usize..2,
        ) {
            let (pre, subs, hw) = if routed == 1 {
                routed_setup(num_qubits, depth, seed)
            } else {
                setup(&qca_workloads::random_template_circuit(
                    num_qubits, depth, seed, &qca_workloads::DEFAULT_TEMPLATE_GATES, true,
                ))
            };
            for objective in ALL_OBJECTIVES {
                let mut ctx = AdaptContext::with_objective(objective);
                ctx.options.exact = true;
                let decided = solve_model(&pre, &hw, &subs, &ctx).unwrap();
                if decided.queries != 0 {
                    continue;
                }
                let (tables, _) = Tables::new(&pre, &hw, &subs, objective);
                proptest::prop_assert!(decided.objective_value >= tables.hi, "{objective}");
                ctx.options.certify = true;
                let proven = solve_model(&pre, &hw, &subs, &ctx).unwrap();
                proptest::prop_assert!(proven.queries > 0, "{objective}");
                proptest::prop_assert!(proven.optimal, "{objective}");
                proptest::prop_assert!(
                    proven.verification.as_ref().is_some_and(|v| v.certificate.is_some()),
                    "{objective}: no certificate"
                );
                proptest::prop_assert_eq!(&proven.chosen, &decided.chosen, "{}", objective);
                proptest::prop_assert_eq!(
                    proven.objective_value, decided.objective_value, "{}", objective
                );
            }
        }
    }

    /// A random admissible selection: one random route per routed block,
    /// then each other entry with probability 1/2 when it conflicts with
    /// nothing chosen.
    fn random_admissible(
        catalog: &[Substitution],
        blocks: &Blocks,
        rng: &mut impl rand::Rng,
    ) -> Vec<bool> {
        let mut selection = vec![false; catalog.len()];
        for routes in blocks.routes.iter().filter(|r| !r.is_empty()) {
            selection[routes[rng.gen_range(0..routes.len())]] = true;
        }
        for i in 0..catalog.len() {
            let clash = blocks.members[catalog[i].block]
                .iter()
                .any(|&j| selection[j] && catalog[i].conflicts_with(&catalog[j]));
            if !selection[i] && !clash && rng.gen_bool(0.5) {
                selection[i] = true;
            }
        }
        selection
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The encoded objective is the evaluator's, selection by selection:
        /// idle is encoded from the schedule's block durations and combined
        /// from per-substitution weights, and under any admissible
        /// selection, assumed on its choice literals, both take exactly
        /// `CostData::evaluate`'s value, as does fidelity.
        #[test]
        fn encoded_objectives_match_the_evaluator_under_any_selection(
            num_qubits in 3usize..5,
            depth in 2usize..8,
            seed in 0u64..u64::MAX,
            routed in 0usize..2,
            pick in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let (pre, subs, hw) = if routed == 1 {
                routed_setup(num_qubits, depth, seed)
            } else {
                setup(&qca_workloads::random_template_circuit(
                    num_qubits, depth, seed, &qca_workloads::DEFAULT_TEMPLATE_GATES, true,
                ))
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(pick);
            for objective in ALL_OBJECTIVES {
                let ctx = AdaptContext::with_objective(objective);
                let (tables, _) = Tables::new(&pre, &hw, &subs, objective);
                let EncodedModel {
                    mut smt,
                    choice,
                    objective_expr,
                } = encode_model(&pre, &subs, &tables, &ctx);
                for _ in 0..4 {
                    let selection = random_admissible(&subs, &tables.blocks, &mut rng);
                    let ids: Vec<usize> = (0..subs.len()).filter(|&i| selection[i]).collect();
                    proptest::prop_assert_eq!(
                        selection_from_ids(&subs, &tables.blocks, &ids),
                        Some(selection.clone())
                    );
                    let assumptions: Vec<qca_sat::Lit> = choice
                        .iter()
                        .zip(&selection)
                        .map(|(&lit, &on)| if on { lit } else { !lit })
                        .collect();
                    let model = smt
                        .check_with_assumptions(&assumptions)
                        .expect("an admissible selection satisfies the model");
                    proptest::prop_assert_eq!(
                        model.int_value(&objective_expr),
                        tables.cost.evaluate(&pre, &subs, &selection, objective),
                        "{}",
                        objective
                    );
                }
            }
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
