//! Differential proof that the pruned candidate path is decision-identical.
//!
//! `HeuristicRm` and `ExactRm` default to the shared [`CandidateTable`]
//! (built once per decide, index-backed when the pool carries a
//! [`PlatformIndex`], scanned through shortlist-then-widen cursors). Setting
//! `unpruned_candidates` routes the same manager through the legacy
//! rebuild-per-rung path. The two must produce *identical* [`Decision`]s —
//! admission verdict, every assignment, objective, prediction use, node
//! counts, start gates — on random platforms up to 512 resources with mixed
//! DVFS ladders, with and without an installed index. This mirrors PR 2's
//! `oracle_feasibility` differential: the fast path is only allowed to be
//! fast, never different.
//!
//! [`CandidateTable`]: rtrm_core::CandidateTable
//! [`PlatformIndex`]: rtrm_platform::PlatformIndex
//! [`Decision`]: rtrm_core::Decision

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rtrm_core::{
    Activation, Decision, ExactRm, HeuristicRm, JobView, Placement, ResourceManager, TimelinePool,
};
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
    predicted: Option<(usize, f64, f64)>,
}

fn scenario(max_resources: usize, max_active: usize) -> impl Strategy<Value = Scenario> {
    let sizes = if max_resources > 16 {
        // Weight towards small platforms (the oneof choice is uniform, so
        // the small range is listed thrice), but visit the scaling axis the
        // `platform_scale` bench sweeps (32 / 128 / 512) every run.
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
        prop::option::of((0usize..6, 0.1f64..30.0, 1.2f64..4.0)),
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
/// two different DVFS ladders (so index rows mix speed levels), a random
/// catalog, and the activation's jobs.
fn build(
    s: &Scenario,
) -> (
    Platform,
    TaskCatalog,
    Vec<JobView>,
    JobView,
    Option<JobView>,
) {
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
    let predicted = s.predicted.map(|(ty, offset, slack)| {
        let ty = TaskTypeId::new(ty % catalog.len());
        let arrival = now + Time::new(offset);
        JobView::fresh(
            JobKey(2000),
            ty,
            arrival,
            arrival + catalog.task_type(ty).mean_wcet() * slack,
        )
    });
    (platform, catalog, active, arriving, predicted)
}

/// Decides `activation` three ways with `pruned`/`unpruned` (the same
/// manager type, flag flipped): legacy path, pruned path on a plain pool,
/// and pruned path on an `ensure_index`'d pool. Returns the three decisions
/// plus whether the indexed pool actually borrowed index rows.
fn decide_three_ways<M: ResourceManager>(
    activation: &Activation<'_>,
    pruned: &mut M,
    unpruned: &mut M,
) -> (Decision, Decision, Decision, bool) {
    let legacy = unpruned.decide(activation);
    let mut plain_pool = TimelinePool::new();
    let plain = pruned.decide_with_pool(activation, &mut plain_pool);
    let mut indexed_pool = TimelinePool::new();
    indexed_pool.ensure_index(activation.platform, activation.catalog);
    let indexed = pruned.decide_with_pool(activation, &mut indexed_pool);
    let borrowed = indexed_pool.prune_stats().indexed_rows > 0;
    (legacy, plain, indexed, borrowed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The heuristic's pruned path (with and without an installed index)
    /// matches the legacy rebuild-per-rung path decision-for-decision, up
    /// to 512 resources.
    #[test]
    fn heuristic_pruned_matches_unpruned(s in scenario(512, 6)) {
        let (platform, catalog, active, arriving, predicted) = build(&s);
        let phantoms: Vec<_> = predicted.into_iter().collect();
        let activation = Activation {
            now: Time::new(100.0),
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &phantoms,
        };
        let mut pruned = HeuristicRm::new();
        let mut unpruned = HeuristicRm::new();
        unpruned.unpruned_candidates = true;
        let (legacy, plain, indexed, borrowed) =
            decide_three_ways(&activation, &mut pruned, &mut unpruned);
        prop_assert_eq!(&plain, &legacy, "pruned (no index) diverged");
        prop_assert_eq!(&indexed, &legacy, "pruned (indexed) diverged");
        // The arriving job is always fresh, so the indexed pool must have
        // actually exercised the borrowed-row path.
        prop_assert!(borrowed, "indexed pool never borrowed an index row");
    }

    /// The exact manager's pruned path matches its legacy path on platforms
    /// small enough for branch & bound, both unbudgeted and under a binding
    /// node budget — where a warm run cut before it replaced its seed
    /// reruns cold, so the pruned path's seed is compared there too.
    #[test]
    fn exact_pruned_matches_unpruned(s in scenario(6, 4), budget in 1u64..=64) {
        let (platform, catalog, active, arriving, predicted) = build(&s);
        let phantoms: Vec<_> = predicted.into_iter().collect();
        let activation = Activation {
            now: Time::new(100.0),
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &phantoms,
        };
        for mut pruned in [ExactRm::new(), ExactRm::with_node_budget(budget)] {
            let mut unpruned = ExactRm {
                unpruned_candidates: true,
                ..pruned.clone()
            };
            let (legacy, plain, indexed, _) =
                decide_three_ways(&activation, &mut pruned, &mut unpruned);
            prop_assert_eq!(&plain, &legacy, "pruned (no index) diverged, budget {}", pruned.node_budget);
            prop_assert_eq!(&indexed, &legacy, "pruned (indexed) diverged, budget {}", pruned.node_budget);
        }
    }
}

/// Widen-on-infeasibility actually fires — and changes nothing. Ten CPUs
/// whose eight cheapest profiles (the whole default shortlist) are too slow
/// for the deadline: the ranked scan must continue past the shortlist
/// prefix, count one widening, and still admit on the only feasible CPU,
/// identically to the unpruned manager.
#[test]
fn widening_fires_and_preserves_the_decision() {
    let mut builder = Platform::builder();
    for i in 0..10 {
        builder.cpu(format!("c{i}"));
    }
    let platform = builder.build();
    let ids: Vec<_> = platform.ids().collect();
    let mut ty = TaskType::builder(0, &platform);
    for (i, &r) in ids.iter().enumerate().take(9) {
        // Energy-ascending, all far too slow for the deadline below.
        ty.profile(r, Time::new(100.0), Energy::new(1.0 + i as f64));
    }
    // The most expensive placement is the only deadline-feasible one.
    ty.profile(ids[9], Time::new(1.0), Energy::new(50.0));
    let catalog = TaskCatalog::new(vec![ty.build()]);

    let arriving = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(5.0));
    let activation = Activation {
        now: Time::ZERO,
        platform: &platform,
        catalog: &catalog,
        active: &[],
        arriving,
        predicted: &[],
    };

    let mut unpruned = HeuristicRm::new();
    unpruned.unpruned_candidates = true;
    let legacy = unpruned.decide(&activation);

    let mut pool = TimelinePool::new();
    pool.ensure_index(&platform, &catalog);
    assert!(
        pool.index().is_some_and(|ix| ix.shortlist_len() == 8),
        "test world must overflow the default shortlist"
    );
    let decision = HeuristicRm::new().decide_with_pool(&activation, &mut pool);

    assert!(pool.prune_stats().widened > 0, "widening never fired");
    assert_eq!(decision, legacy, "widening changed the decision");
    assert!(decision.admitted);
    assert_eq!(decision.assignments[0].resource, ids[9]);
}
