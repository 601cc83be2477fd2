//! Differential proof that warm-started exact decisions are bit-identical
//! to cold ones.
//!
//! `ExactRm` defaults to seeding every fallback rung's search with the
//! heuristic's plan as a starting incumbent. The injected incumbent only
//! ever *prunes* — with the exact bound, no tolerance slack — and the first
//! equally good search-discovered leaf replaces it, so the returned plan is
//! always one the search itself reached. This suite pins
//! that contract: warm and cold runs must agree on the admission verdict,
//! every assignment, the objective, prediction use, and start gates, on
//! random platforms up to 512 mixed-DVFS resources and lookahead horizons
//! of up to 4 phantoms. Only [`Decision::nodes`] may differ (that is the
//! point of the warm start), so it is normalized out before comparing.
//!
//! Under a *binding* node budget bit-identity weakens to a one-sided
//! guarantee: a rung whose injected seed survives the cut reruns cold (and
//! is then exactly the cold anytime result), and a rung whose seed was
//! replaced holds an incumbent at least as good as cold's — so warm
//! admission never falls below cold admission, pinned by the budget-sweep
//! tests below.
//!
//! [`Decision::nodes`]: rtrm_core::Decision

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rtrm_core::{Activation, Decision, ExactRm, JobView, Placement, ResourceManager};
use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, TaskTypeId, Time};
use rtrm_sched::JobKey;
use rtrm_trace::{generate_catalog, CatalogConfig};

/// A compact recipe for one random activation on a sized platform.
#[derive(Debug, Clone)]
struct Scenario {
    resources: usize,
    with_gpu: bool,
    seed: u64,
    /// (type index, placement resource index or none, remaining fraction,
    /// deadline slack multiplier)
    active: Vec<(usize, Option<usize>, f64, f64)>,
    arriving_type: usize,
    arriving_slack: f64,
    /// Up to four phantoms: (type index, release offset, slack multiplier).
    predicted: Vec<(usize, f64, f64)>,
}

fn scenario(max_resources: usize, max_active: usize) -> impl Strategy<Value = Scenario> {
    let sizes = if max_resources > 16 {
        // Weight towards small platforms but visit the scaling axis the
        // `milp_scale` bench sweeps (32 / 128 / 512) every run.
        prop_oneof![
            2usize..12,
            2usize..12,
            2usize..12,
            Just(32usize),
            Just(128usize),
            Just(512usize),
        ]
        .boxed()
    } else {
        (2usize..=max_resources).boxed()
    };
    (
        sizes,
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec(
            (
                0usize..6,
                prop::option::of(0usize..8),
                0.05f64..1.0,
                1.2f64..4.0,
            ),
            0..max_active,
        ),
        0usize..6,
        1.2f64..4.0,
        prop::collection::vec((0usize..6, 0.1f64..30.0, 1.2f64..4.0), 0..=4),
    )
        .prop_map(
            |(resources, with_gpu, seed, active, arriving_type, arriving_slack, predicted)| {
                Scenario {
                    resources,
                    with_gpu,
                    seed,
                    active,
                    arriving_type,
                    arriving_slack,
                    predicted,
                }
            },
        )
}

/// Materializes a scenario: a platform whose CPUs cycle through plain and
/// two different DVFS ladders, a random catalog, and the activation's jobs.
/// The phantoms are sorted by release so the horizon is well-formed.
fn build(s: &Scenario) -> (Platform, TaskCatalog, Vec<JobView>, JobView, Vec<JobView>) {
    let mut builder = Platform::builder();
    for i in 0..s.resources {
        match i % 3 {
            0 => builder.cpu(format!("c{i}")),
            1 => builder.cpu_with_dvfs(format!("c{i}"), &[0.5, 1.0]),
            _ => builder.cpu_with_dvfs(format!("c{i}"), &[0.25, 0.5, 1.0, 2.0]),
        };
    }
    if s.with_gpu {
        builder.gpu("gpu0");
    }
    let platform = builder.build();

    let mut rng = StdRng::seed_from_u64(s.seed);
    let cfg = CatalogConfig {
        num_types: 6,
        cpu_wcet_mean: 10.0,
        cpu_wcet_std: 3.0,
        cpu_energy_mean: 5.0,
        cpu_energy_std: 1.5,
        ..CatalogConfig::paper()
    };
    let catalog = generate_catalog(&platform, &cfg, &mut rng);

    let now = Time::new(100.0);
    let mut gpu_started_taken = vec![false; platform.len()];
    let mut active = Vec::new();
    for (i, &(ty, place, frac, slack)) in s.active.iter().enumerate() {
        let ty = TaskTypeId::new(ty % catalog.len());
        let deadline = now + catalog.task_type(ty).mean_wcet() * slack;
        let mut job = JobView::fresh(JobKey(i as u64), ty, now, deadline);
        if let Some(r) = place {
            let r = rtrm_platform::ResourceId::new(r % platform.len());
            if catalog.task_type(ty).is_executable_on(r) {
                let non_preemptable = !platform.resource(r).kind().is_preemptable();
                let mut started = true;
                if non_preemptable {
                    if gpu_started_taken[r.index()] {
                        started = false;
                    } else {
                        gpu_started_taken[r.index()] = true;
                    }
                }
                job.placement = Some(Placement {
                    resource: r,
                    remaining_fraction: if started { frac } else { 1.0 },
                    started,
                    speed: 1.0,
                });
            }
        }
        active.push(job);
    }

    let arr_ty = TaskTypeId::new(s.arriving_type % catalog.len());
    let arriving = JobView::fresh(
        JobKey(1000),
        arr_ty,
        now,
        now + catalog.task_type(arr_ty).mean_wcet() * s.arriving_slack,
    );
    let mut offsets: Vec<(usize, f64, f64)> = s.predicted.clone();
    offsets.sort_by(|a, b| a.1.total_cmp(&b.1));
    let predicted: Vec<JobView> = offsets
        .iter()
        .enumerate()
        .map(|(i, &(ty, offset, slack))| {
            let ty = TaskTypeId::new(ty % catalog.len());
            let arrival = now + Time::new(offset);
            JobView::fresh(
                JobKey(2000 + i as u64),
                ty,
                arrival,
                arrival + catalog.task_type(ty).mean_wcet() * slack,
            )
        })
        .collect();
    (platform, catalog, active, arriving, predicted)
}

/// Node counts are the one field warm starts are *allowed* to change.
fn strip_nodes(mut d: Decision) -> Decision {
    d.nodes = 0;
    d
}

/// The `milp_scale` contended-pair world (see
/// `crates/bench/src/bin/milp_scale.rs`): `k` task pairs (A, B) contend for
/// one shared cheap slot each. The branch order tries A before B, so a cold
/// DFS parks every A on the shared slot and walks a long improvement
/// cascade; the regret heuristic maps the optimum directly. This is the
/// regime where a truncated warm search's injected seed survives un-replaced
/// while a truncated cold search holds a (suboptimal) anytime incumbent.
fn contended_world(k: usize) -> (Platform, TaskCatalog, Vec<JobView>, JobView) {
    const EXEC: f64 = 4.0;
    let mut builder = Platform::builder();
    for i in 0..(5 * k + 1) {
        builder.cpu(format!("c{i}"));
    }
    let platform = builder.build();
    let ids: Vec<_> = platform.ids().collect();
    let mut types = Vec::new();
    for p in 0..k {
        let e = 60.0 - p as f64 * 0.02;
        let base = 5 * p;
        let mut a = TaskType::builder(2 * p, &platform);
        a.profile(ids[base], Time::new(EXEC), Energy::new(1.0));
        a.profile(ids[base + 1], Time::new(EXEC), Energy::new(1.2));
        a.profile(ids[base + 2], Time::new(EXEC), Energy::new(e));
        types.push(a.build());
        let mut b = TaskType::builder(2 * p + 1, &platform);
        b.profile(ids[base], Time::new(EXEC), Energy::new(1.01));
        b.profile(ids[base + 3], Time::new(EXEC), Energy::new(e - 0.012));
        b.profile(ids[base + 4], Time::new(EXEC), Energy::new(e - 0.008));
        types.push(b.build());
    }
    let mut arr = TaskType::builder(2 * k, &platform);
    arr.profile(ids[5 * k], Time::new(EXEC), Energy::new(1.0));
    types.push(arr.build());
    let catalog = TaskCatalog::new(types);

    let deadline = Time::new(EXEC);
    let active: Vec<JobView> = (0..2 * k)
        .map(|i| JobView::fresh(JobKey(i as u64), TaskTypeId::new(i), Time::ZERO, deadline))
        .collect();
    let arriving = JobView::fresh(JobKey(10_000), TaskTypeId::new(2 * k), Time::ZERO, deadline);
    (platform, catalog, active, arriving)
}

/// Regression for the budget-cut discard: with a binding node budget the
/// cold search keeps its anytime incumbent and admits, while the warm
/// search's injected seed — strictly better than anything the truncated
/// walk reaches — used to be thrown away with no plan and no timeout flag,
/// so the ladder rejected. The warm rung must instead rerun cold and admit
/// whatever the cold search admits; once the seed is replaced it may only
/// improve on cold, never fall below it.
#[test]
fn binding_node_budget_never_turns_admission_into_rejection() {
    let (platform, catalog, active, arriving) = contended_world(3);
    let mut cold_admitted_somewhere_below_full = false;
    for budget in 0..=80u64 {
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &[],
        };
        let mut warm = ExactRm::with_node_budget(budget);
        let mut cold = ExactRm::with_node_budget(budget);
        cold.warm_start = false;
        let warm_d = warm.decide(&activation);
        let cold_d = cold.decide(&activation);
        if cold_d.admitted {
            cold_admitted_somewhere_below_full |= budget < 80;
            assert!(
                warm_d.admitted,
                "budget={budget}: cold admits (objective {:?}) but warm rejects",
                cold_d.objective
            );
            assert!(
                warm_d.objective <= cold_d.objective,
                "budget={budget}: warm plan ({:?}) worse than cold ({:?})",
                warm_d.objective,
                cold_d.objective
            );
        }
    }
    assert!(
        cold_admitted_somewhere_below_full,
        "fixture error: no budget in the sweep exercised a binding-budget admission"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Admission monotonicity under a binding node budget on random worlds:
    /// wherever the truncated cold search admits, the warm search must
    /// admit too (it reruns cold whenever its injected seed survives the
    /// cut, and otherwise holds an incumbent at least as good).
    #[test]
    fn exact_warm_admission_never_below_cold_under_budget(
        s in scenario(10, 3),
        budget in 0u64..150,
    ) {
        let (platform, catalog, active, arriving, predicted) = build(&s);
        let activation = Activation {
            now: Time::new(100.0),
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        };
        let mut warm = ExactRm::with_node_budget(budget);
        let mut cold = ExactRm::with_node_budget(budget);
        cold.warm_start = false;
        let warm_d = warm.decide(&activation);
        let cold_d = cold.decide(&activation);
        if cold_d.admitted {
            prop_assert!(
                warm_d.admitted,
                "budget {}: cold admits but warm rejects",
                budget
            );
        }
    }

    /// `ExactRm` warm vs cold, up to 512 resources and 4 phantoms.
    #[test]
    fn exact_warm_matches_cold(s in scenario(512, 4)) {
        let (platform, catalog, active, arriving, predicted) = build(&s);
        let activation = Activation {
            now: Time::new(100.0),
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        };
        let mut warm = ExactRm::new();
        let mut cold = ExactRm::new();
        cold.warm_start = false;
        let warm_d = warm.decide(&activation);
        let cold_d = cold.decide(&activation);
        prop_assert_eq!(
            strip_nodes(warm_d),
            strip_nodes(cold_d),
            "warm-started ExactRm diverged from cold"
        );
    }
}
