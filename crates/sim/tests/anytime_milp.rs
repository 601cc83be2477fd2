//! Simulation-level contract of the anytime MILP manager: under ANY
//! wall-clock budget — including zero — the fallback ladder never emits an
//! infeasible plan and never rejects an activation the pure heuristic
//! (planning without prediction) would admit; a zero budget degrades the
//! whole run to exactly the pure heuristic's (for the exact branch & bound
//! manager too, whose floor plans in the same pool), and an unbounded
//! budget is bit-identical to no budget at all.

use proptest::prelude::*;
use rand::SeedableRng;
use rtrm_core::{
    Activation, Decision, ExactRm, HeuristicRm, MilpRm, ResourceManager, TimelinePool,
};
use rtrm_platform::{Platform, TaskCatalog, Trace};
use rtrm_predict::OraclePredictor;
use rtrm_sim::{SimConfig, SimReport, Simulator};
use rtrm_trace::{generate_catalog, generate_traces, CatalogConfig, TraceConfig};

/// The budget lattice the ladder must survive: hard zero, sub-measurable,
/// realistically tight, generous, and "off".
const BUDGETS: [f64; 5] = [0.0, 1e-12, 1e-7, 1e-3, f64::INFINITY];

/// Full (unbudgeted) MILP solves are expensive in debug builds, so `length`
/// stays small where the tests exercise them.
fn world(seed: u64, length: usize) -> (Platform, TaskCatalog, Vec<Trace>) {
    let platform = Platform::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let cfg = TraceConfig {
        length,
        ..TraceConfig::calibrated_vt()
    };
    let traces = generate_traces(&catalog, &cfg, 1, seed);
    (platform, catalog, traces)
}

/// Wraps the anytime manager and asserts two machine-independent
/// per-activation guarantees, however the wall-clock expiries land:
///
/// 1. **Floor guarantee** — whenever it rejects, the pure heuristic
///    planning *without prediction* rejects the same activation too. (A
///    rejection means either every rung was genuinely infeasible — so the
///    exact k=0 problem, a superset of the heuristic's, has no solution —
///    or a rung timed out and the heuristic floor itself failed.)
/// 2. **Degradation accounting** — an admitted decision that counted any
///    rung timeout must be marked `degraded`: the ladder descends, so every
///    timeout lands at or above the winning rung, meaning the plan is
///    either the expired winner's own anytime incumbent or comes from below
///    an expired rung. This pins the incumbent-accounting fix in
///    `decide_with_fallback_tracked` (a timed-out *winning* rung used to
///    report `degraded: false`).
///
/// Both decide paths are forwarded, so the simulator drives the inner
/// manager through its pool-taking one.
struct NeverWorse<M> {
    inner: M,
}

impl<M> NeverWorse<M> {
    fn check(activation: &Activation<'_>, decision: Decision) -> Decision {
        if decision.admitted && decision.solver_timeouts > 0 {
            assert!(
                decision.degraded,
                "admitted with {} rung timeout(s) but not marked degraded",
                decision.solver_timeouts
            );
        }
        if !decision.admitted {
            let unpredicted = Activation {
                predicted: &[],
                ..*activation
            };
            let floor = HeuristicRm::new().decide(&unpredicted);
            assert!(
                !floor.admitted,
                "anytime MILP rejected an activation the pure heuristic admits"
            );
        }
        decision
    }
}

impl<M: ResourceManager> ResourceManager for NeverWorse<M> {
    fn name(&self) -> &str {
        "never-worse"
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        Self::check(activation, self.inner.decide(activation))
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        Self::check(activation, self.inner.decide_with_pool(activation, pool))
    }
}

fn run_anytime<M: ResourceManager>(
    sim: &Simulator,
    catalog: &TaskCatalog,
    trace: &Trace,
    inner: M,
) -> SimReport {
    let mut manager = NeverWorse { inner };
    let mut oracle = OraclePredictor::perfect(trace, catalog.len());
    sim.run(trace, &mut manager, Some(&mut oracle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random workloads and every budget on the lattice: all plans the
    /// ladder emits are feasible (zero deadline misses, everything admitted
    /// completes), no rejection is ever worse than the pure heuristic's
    /// (asserted per activation by [`NeverWorse`]), and an infinite budget
    /// never reads the clock — no timeout or degradation is ever counted.
    #[test]
    fn any_budget_is_feasible_and_never_worse(seed in any::<u64>(), budget_idx in 0usize..BUDGETS.len()) {
        let budget = BUDGETS[budget_idx];
        let (platform, catalog, traces) = world(seed, 15);
        let sim = Simulator::new(&platform, &catalog, SimConfig::default());
        for trace in &traces {
            let report = run_anytime(&sim, &catalog, trace, MilpRm::with_wall_clock(budget));
            prop_assert_eq!(report.deadline_misses, 0, "budget {}", budget);
            prop_assert_eq!(report.completed, report.accepted);
            prop_assert_eq!(report.accepted + report.rejected, report.requests);
            if budget == f64::INFINITY {
                prop_assert_eq!(report.solver_timeouts, 0);
                prop_assert_eq!(report.degraded_activations, 0);
            }
        }
    }
}

/// A zero budget starves every rung of both anytime managers (the MILP
/// encoding and the exact branch & bound), so the whole run degrades to
/// exactly the pure heuristic without prediction — same admissions, same
/// energy, bit for bit (modulo the fault accounting, which must show the
/// expiries).
#[test]
fn zero_budget_run_equals_the_pure_heuristic() {
    for seed in [1, 7, 23] {
        let (platform, catalog, traces) = world(seed, 20);
        let sim = Simulator::new(&platform, &catalog, SimConfig::default());
        for trace in &traces {
            let baseline = sim.run(trace, &mut HeuristicRm::new(), None);
            for (name, report) in [
                (
                    "milp-encoded",
                    run_anytime(&sim, &catalog, trace, MilpRm::with_wall_clock(0.0)),
                ),
                (
                    "exact",
                    run_anytime(&sim, &catalog, trace, ExactRm::with_wall_clock(0.0)),
                ),
            ] {
                assert!(
                    report.solver_timeouts > 0,
                    "{name}: zero budget must expire rungs"
                );
                assert_eq!(report.degraded_activations, report.accepted, "{name}");
                let mut normalized = report;
                normalized.solver_timeouts = 0;
                normalized.degraded_activations = 0;
                assert_eq!(normalized, baseline, "{name}, seed {seed}");
            }
        }
    }
}

/// An unbounded budget must not perturb the solve at all: the run is
/// bit-identical to the default manager's (which never constructs a
/// deadline), pinning that today's results are reproduced exactly.
#[test]
fn unbounded_budget_is_bit_identical_to_no_budget() {
    for seed in [2, 11] {
        let (platform, catalog, traces) = world(seed, 10);
        let sim = Simulator::new(&platform, &catalog, SimConfig::default());
        for trace in &traces {
            let budgeted = run_anytime(
                &sim,
                &catalog,
                trace,
                MilpRm::with_wall_clock(f64::INFINITY),
            );
            let mut manager = MilpRm::new();
            let mut oracle = OraclePredictor::perfect(trace, catalog.len());
            let plain = sim.run(trace, &mut manager, Some(&mut oracle));
            assert_eq!(budgeted, plain, "seed {seed}");
        }
    }
}
