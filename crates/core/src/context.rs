//! The adaptation call context: options, limits, tracing, cancellation.
//!
//! [`AdaptContext`] bundles everything a caller threads through the solve
//! pipeline — what to optimize ([`AdaptOptions`]), how hard to try
//! ([`AdaptLimits`]), where to report progress ([`Tracer`]), and how to
//! interrupt (a shared cancellation flag) — into a single value that
//! [`adapt`](crate::adapt), `solve_model`, and the underlying SMT/SAT
//! layers all accept.

use crate::adapt::AdaptOptions;
use crate::error::AdaptError;
use crate::model::{AdaptLimits, Objective};
use qca_trace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Everything [`adapt`](crate::adapt) needs beyond the circuit and the
/// hardware model.
///
/// Construct one with [`AdaptContext::default`] (all defaults, tracing
/// off), [`AdaptContext::with_objective`], or a struct literal over
/// `..AdaptContext::default()` when limits, tracing, or cancellation are
/// involved. [`adapt`](crate::adapt) checks it with
/// [`AdaptContext::validate`] before any work.
///
/// # Examples
///
/// ```
/// use qca_adapt::{AdaptContext, AdaptLimits, AdaptOptions, Objective};
///
/// let idle = AdaptContext::with_objective(Objective::IdleTime);
/// assert_eq!(idle.options.objective, Objective::IdleTime);
///
/// let ctx = AdaptContext {
///     options: AdaptOptions {
///         objective: Objective::Combined,
///         exact: true,
///         ..AdaptOptions::default()
///     },
///     limits: AdaptLimits {
///         total_conflicts: Some(500_000),
///     },
///     ..AdaptContext::default()
/// };
/// assert!(ctx.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptContext {
    /// What to solve: objective, rule set, exactness, topology.
    pub options: AdaptOptions,
    /// How much work the solve may spend (total-conflict cap).
    pub limits: AdaptLimits,
    /// Where span/counter/gauge events go; `Tracer::disabled()` (the
    /// default) makes every instrumentation site a single branch.
    pub tracer: Tracer,
    /// Cooperative cancellation flag, polled by the SAT solver at every
    /// decision and conflict. Tripping it degrades the search to the best
    /// incumbent, or [`AdaptError::Cancelled`] if none exists yet.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Warm-start hint: catalog ids of a known-good substitution selection
    /// (e.g. a previously cached optimum during recalibration). When
    /// present and still valid for the evaluated catalog it replaces the
    /// greedy warm start; stale hints fall back to greedy.
    pub warm_hint: Option<Vec<usize>>,
}

impl AdaptContext {
    /// A context with a specific objective and defaults elsewhere.
    pub fn with_objective(objective: Objective) -> Self {
        AdaptContext {
            options: AdaptOptions {
                objective,
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        }
    }

    /// Rejects a nonsensical configuration: a zero conflict budget.
    ///
    /// # Errors
    ///
    /// [`AdaptError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), AdaptError> {
        if self.limits.total_conflicts == Some(0) {
            return Err(AdaptError::InvalidOptions(
                "total_conflicts = Some(0) can never make progress; use None for unlimited"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// `true` when the cancellation flag (if any) is currently set.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// The SAT-level run controls this context implies: the total-conflict
    /// cap, the cancellation flag, and the tracer, ready to install on a
    /// solver via `set_control`.
    pub fn solve_control(&self) -> qca_sat::SolveControl {
        qca_sat::SolveControl {
            conflict_cap: self.limits.total_conflicts,
            stop: self.cancel.clone(),
            tracer: self.tracer.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_matches_default_options() {
        let ctx = AdaptContext::default();
        assert_eq!(ctx.options.objective, Objective::Fidelity);
        assert!(!ctx.options.exact);
        assert!(ctx.limits.total_conflicts.is_none());
        assert!(!ctx.tracer.enabled());
        assert!(ctx.cancel.is_none());
        assert!(!ctx.cancelled());
        assert!(ctx.warm_hint.is_none());
        assert!(ctx.validate().is_ok());
    }

    #[test]
    fn cancelled_follows_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = AdaptContext {
            cancel: Some(flag.clone()),
            ..AdaptContext::default()
        };
        assert!(!ctx.cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(ctx.cancelled());
    }

    #[test]
    fn validate_rejects_every_nonsensical_field() {
        let ok = [
            AdaptContext::with_objective(Objective::Combined),
            AdaptContext {
                limits: AdaptLimits {
                    total_conflicts: Some(1),
                },
                ..AdaptContext::default()
            },
        ];
        for ctx in ok {
            assert!(ctx.validate().is_ok(), "rejected {ctx:?}");
        }
        let zero_budget = AdaptContext {
            limits: AdaptLimits {
                total_conflicts: Some(0),
            },
            ..AdaptContext::default()
        };
        assert!(matches!(
            zero_budget.validate(),
            Err(AdaptError::InvalidOptions(_))
        ));
    }

    #[test]
    fn solve_control_mirrors_context() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = AdaptContext {
            limits: AdaptLimits {
                total_conflicts: Some(77),
            },
            cancel: Some(flag.clone()),
            ..AdaptContext::default()
        };
        let control = ctx.solve_control();
        assert_eq!(control.conflict_cap, Some(77));
        assert!(Arc::ptr_eq(control.stop.as_ref().unwrap(), &flag));
        assert!(!control.tracer.enabled());
    }

    #[test]
    fn with_objective_sets_only_the_objective() {
        let ctx = AdaptContext::with_objective(Objective::IdleTime);
        assert_eq!(ctx.options.objective, Objective::IdleTime);
        assert!(!ctx.options.exact);
        assert!(ctx.limits.total_conflicts.is_none());
    }
}
