//! The with-prediction / without-prediction fallback shared by all
//! resource managers (paper Sec 4.1, last paragraph): if no feasible plan
//! honours the predicted task, a plan without it is attempted before the
//! arriving task is rejected — plus the confidence gate ([`HorizonPolicy`])
//! that decides *which* predicted phantoms are worth planning around.

use rtrm_platform::{Energy, Time};
use rtrm_sched::JobKey;
use serde::{Deserialize, Serialize};

use crate::activation::{Activation, Assignment, Decision};
use crate::cost::Candidate;

/// Uncertainty-weighted admission policy for multi-step horizons: plan only
/// around phantoms whose confidence *strictly* exceeds `theta`, keep at
/// most `depth` of them, highest confidence first.
///
/// The strict comparison fixes the endpoints: `theta = 1.0` gates
/// everything (even a deterministic chain's confidence-1.0 phantom) and is
/// decision-identical to prediction-off, while `theta = 0.0` admits every
/// prediction with positive confidence. Both pins are enforced by
/// `crates/core/tests/horizon_gate.rs`.
///
/// **Why the gated prefix is verdict-safe.** The fallback ladder
/// ([`decide_with_fallback_tracked`]) tries rung `k = |predicted|` down to
/// `k = 0`; with a gated horizon, rung `k`'s prefix is the `k`
/// highest-confidence phantoms instead of "the one phantom, `k` times".
/// The rung-0 floor and the anytime-budget degradation semantics never see
/// the phantoms at all, so gating can only change *which* optional
/// constraints the upper rungs try — never the guaranteed-admission path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HorizonPolicy {
    /// Maximum number of phantoms to plan around (horizon depth `k`).
    pub depth: usize,
    /// Confidence threshold θ: a phantom is kept iff `confidence > theta`.
    pub theta: f64,
}

impl HorizonPolicy {
    /// Creates a policy with horizon depth `depth` and threshold `theta`.
    #[must_use]
    pub fn new(depth: usize, theta: f64) -> Self {
        HorizonPolicy { depth, theta }
    }

    /// Whether a phantom with this confidence clears the gate. `NaN` never
    /// clears.
    #[must_use]
    pub fn clears(&self, confidence: f64) -> bool {
        confidence > self.theta
    }
}

/// Applies a [`HorizonPolicy`] to `(confidence, payload)` pairs in place:
/// retains pairs whose confidence clears the gate, stable-sorts them by
/// descending confidence (stability preserves nearest-first order among
/// equal confidences), and truncates to the policy's depth.
///
/// The payload is generic so the gate can run on predictions before any
/// phantom `JobView` is materialized — `rtrm-core` never needs to know
/// what a prediction is.
pub fn gate_horizon<T>(policy: HorizonPolicy, candidates: &mut Vec<(f64, T)>) {
    candidates.retain(|(confidence, _)| policy.clears(*confidence));
    // NaNs were dropped by the gate above, so the comparison is total.
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    candidates.truncate(policy.depth);
}

/// A complete plan produced by one solver attempt: a placement for every
/// *real* job (active + arriving, in activation order), the objective value
/// (including the phantom task's energy when it was planned), and the search
/// effort.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Chosen candidate per real job, in activation order.
    pub placements: Vec<(JobKey, Candidate)>,
    /// Objective value of the plan.
    pub objective: Energy,
    /// Search effort (nodes / iterations) of the attempt that produced this
    /// plan. A [`Decision`] carries the winning rung's count only, so failed
    /// rungs above it go unreported.
    pub nodes: u64,
    /// Planned start times on the phantom's non-preemptable resource (see
    /// [`Decision::start_gates`]).
    pub start_gates: Vec<(JobKey, Time)>,
}

impl Plan {
    /// Converts the plan into the external decision form.
    #[must_use]
    pub fn into_decision(self, used_prediction: bool) -> Decision {
        Decision {
            admitted: true,
            assignments: self
                .placements
                .into_iter()
                .map(|(key, c)| Assignment {
                    key,
                    resource: c.resource,
                    restart: c.restart,
                    speed: c.speed,
                })
                .collect(),
            objective: self.objective,
            used_prediction,
            nodes: self.nodes,
            start_gates: if used_prediction {
                self.start_gates
            } else {
                Vec::new()
            },
            solver_timeouts: 0,
            degraded: false,
        }
    }
}

/// Outcome of one solver rung on the fallback ladder: the plan (if any) and
/// whether the rung's solver hit its wall-clock budget. A rung can time out
/// *and* still produce a plan — the anytime incumbent.
#[derive(Debug, Clone, Default)]
pub struct Attempt {
    /// The plan, when the rung found one.
    pub plan: Option<Plan>,
    /// `true` when the rung's solver hit its wall-clock budget.
    pub timed_out: bool,
}

impl From<Option<Plan>> for Attempt {
    /// A solver without a wall-clock budget never times out.
    fn from(plan: Option<Plan>) -> Self {
        Attempt {
            plan,
            timed_out: false,
        }
    }
}

/// Runs `solve` with all phantoms first, then with progressively fewer
/// (dropping the furthest-future ones), and finally without any, turning
/// the first success into a [`Decision`]; rejects the arriving task if
/// every attempt fails. With a single phantom this is exactly the paper's
/// Sec 4.1 fallback rule; with more it generalizes it to multi-step
/// lookahead.
///
/// `solve(activation, k)` must plan for the active tasks, the arriving
/// task, and the first `k` phantoms.
pub fn decide_with_fallback<F>(activation: &Activation<'_>, mut solve: F) -> Decision
where
    F: FnMut(&Activation<'_>, usize) -> Option<Plan>,
{
    decide_with_fallback_tracked(activation, |act, k| Attempt::from(solve(act, k)), |_| None)
}

/// The fault-tolerant form of [`decide_with_fallback`]: rungs report
/// wall-clock expiry through [`Attempt`], the returned [`Decision`] carries
/// the timeout/degradation accounting, and when *every* rung fails with at
/// least one timeout among them, the `floor` solver (typically the paper's
/// heuristic, planning without phantoms) gets a last chance before the
/// arriving task is rejected — so an activation is never dropped just
/// because the solver ran long.
///
/// Degradation bookkeeping: a decision is `degraded` when its plan came
/// from a rung below one that timed out (a failed higher rung that was
/// *infeasible* is the paper's normal fallback, not degradation), when the
/// *winning* rung itself timed out and handed back its anytime incumbent
/// (the plan is feasible but possibly suboptimal), or from the `floor`.
pub fn decide_with_fallback_tracked<F, G>(
    activation: &Activation<'_>,
    mut solve: F,
    mut floor: G,
) -> Decision
where
    F: FnMut(&Activation<'_>, usize) -> Attempt,
    G: FnMut(&Activation<'_>) -> Option<Plan>,
{
    let mut timeouts: u32 = 0;
    let mut timed_out_above = false;
    let finish = |plan: Plan, used_prediction: bool, degraded: bool, timeouts: u32| {
        let mut decision = plan.into_decision(used_prediction);
        decision.solver_timeouts = timeouts;
        decision.degraded = degraded;
        decision
    };
    for k in (1..=activation.predicted.len()).rev() {
        let attempt = solve(activation, k);
        if attempt.timed_out {
            timeouts += 1;
        }
        if let Some(plan) = attempt.plan {
            return finish(plan, true, timed_out_above || attempt.timed_out, timeouts);
        }
        timed_out_above |= attempt.timed_out;
    }
    let attempt = solve(activation, 0);
    if attempt.timed_out {
        timeouts += 1;
    }
    if let Some(plan) = attempt.plan {
        return finish(plan, false, timed_out_above || attempt.timed_out, timeouts);
    }
    timed_out_above |= attempt.timed_out;
    if timed_out_above {
        if let Some(plan) = floor(activation) {
            return finish(plan, false, true, timeouts);
        }
    }
    let mut decision = Decision::reject();
    decision.solver_timeouts = timeouts;
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtrm_platform::{Platform, TaskCatalog, TaskTypeId};

    use crate::view::JobView;

    fn plan() -> Plan {
        Plan {
            placements: Vec::new(),
            objective: Energy::new(1.0),
            nodes: 1,
            start_gates: Vec::new(),
        }
    }

    /// Drives `decide_with_fallback_tracked` over a fabricated one-phantom
    /// activation with a scripted rung outcome per `k`.
    fn run_ladder(rungs: impl Fn(usize) -> Attempt, floor: impl Fn() -> Option<Plan>) -> Decision {
        let platform = Platform::paper_default();
        let catalog = TaskCatalog::new(Vec::new());
        let arriving = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(1.0));
        let phantom = [JobView::fresh(
            JobKey(u64::MAX),
            TaskTypeId::new(0),
            Time::new(1.0),
            Time::new(2.0),
        )];
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &[],
            arriving,
            predicted: &phantom,
        };
        decide_with_fallback_tracked(&activation, |_, k| rungs(k), |_| floor())
    }

    #[test]
    fn winning_rung_incumbent_on_timeout_is_degraded() {
        // The top rung times out but hands back its anytime incumbent: the
        // plan is feasible yet possibly suboptimal, so the decision must be
        // counted as degraded (and the timeout recorded).
        let decision = run_ladder(
            |_| Attempt {
                plan: Some(plan()),
                timed_out: true,
            },
            || None,
        );
        assert!(decision.admitted);
        assert!(decision.used_prediction);
        assert!(decision.degraded, "incumbent-on-timeout must degrade");
        assert_eq!(decision.solver_timeouts, 1);
    }

    #[test]
    fn phantom_free_rung_incumbent_on_timeout_is_degraded() {
        // Top rung infeasible (clean failure), k=0 rung times out with an
        // incumbent: degraded, two distinct accounting paths.
        let decision = run_ladder(
            |k| {
                if k > 0 {
                    Attempt::default()
                } else {
                    Attempt {
                        plan: Some(plan()),
                        timed_out: true,
                    }
                }
            },
            || None,
        );
        assert!(decision.admitted);
        assert!(!decision.used_prediction);
        assert!(decision.degraded);
        assert_eq!(decision.solver_timeouts, 1);
    }

    #[test]
    fn clean_win_below_infeasible_rung_is_not_degraded() {
        // A failed higher rung that was *infeasible* (no timeout) is the
        // paper's normal fallback, not degradation.
        let decision = run_ladder(
            |k| {
                if k > 0 {
                    Attempt::default()
                } else {
                    Attempt::from(Some(plan()))
                }
            },
            || None,
        );
        assert!(decision.admitted);
        assert!(!decision.degraded);
        assert_eq!(decision.solver_timeouts, 0);
    }

    #[test]
    fn win_below_timed_out_rung_is_degraded() {
        let decision = run_ladder(
            |k| {
                if k > 0 {
                    Attempt {
                        plan: None,
                        timed_out: true,
                    }
                } else {
                    Attempt::from(Some(plan()))
                }
            },
            || None,
        );
        assert!(decision.admitted);
        assert!(decision.degraded);
        assert_eq!(decision.solver_timeouts, 1);
    }

    #[test]
    fn gate_keeps_highest_confidence_prefix() {
        let mut candidates = vec![(0.3, "c"), (0.9, "a"), (0.5, "b"), (0.9, "a2"), (0.1, "d")];
        gate_horizon(HorizonPolicy::new(3, 0.2), &mut candidates);
        // 0.1 gated out; top three by confidence, ties in original order.
        assert_eq!(candidates, vec![(0.9, "a"), (0.9, "a2"), (0.5, "b")]);
    }

    #[test]
    fn gate_theta_one_drops_everything() {
        let mut candidates = vec![(1.0, 0), (0.99, 1)];
        gate_horizon(HorizonPolicy::new(8, 1.0), &mut candidates);
        assert!(candidates.is_empty(), "theta=1.0 must gate even certainty");
    }

    #[test]
    fn gate_theta_zero_keeps_positive_confidence_only() {
        let mut candidates = vec![(0.0, 0), (f64::NAN, 1), (0.01, 2)];
        gate_horizon(HorizonPolicy::new(8, 0.0), &mut candidates);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].1, 2);
    }

    #[test]
    fn floor_after_all_timeouts_is_degraded() {
        let decision = run_ladder(
            |_| Attempt {
                plan: None,
                timed_out: true,
            },
            || Some(plan()),
        );
        assert!(decision.admitted);
        assert!(decision.degraded);
        assert_eq!(decision.solver_timeouts, 2);
    }
}
