//! The future-release fast path from the managers' point of view.
//!
//! * A release within `TIME_EPSILON` of the activation instant must classify
//!   as *dense* everywhere — the engine's ready split, the timeline's
//!   dense/future classification, and `try_place_or_defer`'s defer predicate —
//!   so the three can never disagree on a knife-edge release (the seed bug:
//!   the defer path used a strict `release > now`, deferring a verdict the
//!   engine considered immediately answerable, and dropping the job itself
//!   from the sub-queue check).
//! * With-phantom decisions on preemptable resources must be answered
//!   entirely by the incremental timelines: zero engine-fallback verdicts
//!   across every rung of the fallback ladder.

use rtrm_core::{
    Activation, Candidate, ExactRm, HeuristicRm, JobView, PlanBuilder, ResourceManager,
    TimelinePool,
};
use rtrm_platform::{
    Energy, Platform, ResourceId, ResourceKind, TaskCatalog, TaskType, TaskTypeId, Time,
    TIME_EPSILON,
};
use rtrm_sched::{is_schedulable, EdfTimeline, JobKey, PlannedJob};

fn world() -> (Platform, TaskCatalog) {
    let platform = Platform::builder().cpus(2).gpu("g").build();
    let ids: Vec<_> = platform.ids().collect();
    let ty = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(4.0), Energy::new(4.0))
        .profile(ids[1], Time::new(4.0), Energy::new(4.0))
        .profile(ids[2], Time::new(5.0), Energy::new(1.0))
        .build();
    (platform, TaskCatalog::new(vec![ty]))
}

/// A release at exactly `now + TIME_EPSILON/2` is dense to the engine, dense
/// to the timeline, and dense to the defer path — all three return the same
/// (real, not deferred) verdict.
#[test]
fn epsilon_release_agrees_across_engine_timeline_and_defer_path() {
    let (platform, catalog) = world();
    let now = Time::new(10.0);
    let release = Time::new(10.0 + TIME_EPSILON / 2.0);
    let gpu = ResourceId::new(2);

    // The job cannot fit: 5 units of GPU work in a 3-unit window.
    let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), release, Time::new(13.0));
    let activation = Activation {
        now,
        platform: &platform,
        catalog: &catalog,
        active: &[],
        arriving,
        predicted: &[],
    };

    // Engine: released within epsilon counts as ready, so the verdict is an
    // immediate "does not fit".
    let planned = PlannedJob {
        key: arriving.key,
        release: release.max(now),
        exec: Time::new(5.0),
        deadline: arriving.deadline,
        pinned: false,
    };
    assert!(release.released_by(now));
    assert!(!is_schedulable(ResourceKind::Gpu, now, &[planned]));

    // Timeline: same classification (dense, no future stack), same verdict.
    let mut tl = EdfTimeline::new(ResourceKind::Gpu, now);
    assert!(!tl.fits(planned));
    let _ = tl.push(planned);
    assert!(!tl.has_future(), "epsilon release classifies as dense");
    let _ = tl.undo();

    // Defer path: with the strict `release > now` predicate this placement
    // deferred (returned true on an empty sub-queue); the epsilon-unified
    // predicate answers the real verdict instead.
    let mut pool = TimelinePool::new();
    let mut plan = PlanBuilder::new(&activation, &mut pool);
    let candidate = Candidate {
        resource: gpu,
        exec: Time::new(5.0),
        energy: Energy::new(1.0),
        pinned: false,
        restart: false,
        speed: 1.0,
    };
    assert!(
        !plan.try_place_or_defer(&arriving, &candidate),
        "epsilon release must not defer: the engine's verdict is immediate"
    );
    assert!(!plan.try_place(&arriving, &candidate));
    assert_eq!(plan.load(gpu), 0, "failed attempts leave nothing placed");
}

fn phantom_activation<'a>(
    platform: &'a Platform,
    catalog: &'a TaskCatalog,
    active: &'a [JobView],
    arriving: JobView,
    predicted: &'a [JobView],
    now: Time,
) -> Activation<'a> {
    Activation {
        now,
        platform,
        catalog,
        active,
        arriving,
        predicted,
    }
}

/// With-phantom decisions keep every probe on a preemptable resource inside
/// the incremental timelines: the pool records zero engine verdicts for CPU
/// timelines across the whole fallback ladder, for both the heuristic and
/// the branch & bound manager.
#[test]
fn phantom_decides_stay_off_engine_on_preemptable_resources() {
    let (platform, catalog) = world();
    let now = Time::new(100.0);

    let active = [JobView::fresh(
        JobKey(0),
        TaskTypeId::new(0),
        now,
        Time::new(120.0),
    )];
    let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), now, Time::new(109.0));
    // Two genuinely future phantoms exercise the multi-rung ladder.
    let predicted = [
        JobView::fresh(
            JobKey(2),
            TaskTypeId::new(0),
            Time::new(103.0),
            Time::new(111.0),
        ),
        JobView::fresh(
            JobKey(3),
            TaskTypeId::new(0),
            Time::new(106.0),
            Time::new(117.0),
        ),
    ];
    let activation = phantom_activation(&platform, &catalog, &active, arriving, &predicted, now);

    let mut heuristic = HeuristicRm::new();
    let mut pool = TimelinePool::new();
    let decision = heuristic.decide_with_pool(&activation, &mut pool);
    assert!(decision.admitted);
    for tl in pool.timelines() {
        if tl.kind().is_preemptable() {
            assert_eq!(
                tl.engine_verdicts(),
                0,
                "heuristic probed a preemptable timeline through the engine"
            );
        }
    }

    let mut exact = ExactRm::new();
    let mut pool = TimelinePool::new();
    let decision = exact.decide_with_pool(&activation, &mut pool);
    assert!(decision.admitted);
    for tl in pool.timelines() {
        if tl.kind().is_preemptable() {
            assert_eq!(
                tl.engine_verdicts(),
                0,
                "branch & bound probed a preemptable timeline through the engine"
            );
        }
    }

    // Sanity: the same decisions under the oracle pool (pre-incremental
    // baseline) are bit-identical, and *do* route through the engine.
    let mut oracle_pool = TimelinePool::oracle();
    let mut heuristic_oracle = HeuristicRm::new();
    heuristic_oracle.oracle_feasibility = true;
    let oracle_decision = heuristic_oracle.decide_with_pool(&activation, &mut oracle_pool);
    let mut pool = TimelinePool::new();
    let incremental_decision = HeuristicRm::new().decide_with_pool(&activation, &mut pool);
    assert_eq!(oracle_decision, incremental_decision);
    assert!(
        oracle_pool.engine_verdicts() > 0,
        "the oracle baseline answers through the engine by construction"
    );
}

/// CPU-only platform: the pool-wide engine-verdict count is zero for a
/// with-phantom exact decision — nothing anywhere routed through the engine.
#[test]
fn cpu_only_phantom_decide_uses_zero_engine_verdicts() {
    let platform = Platform::builder().cpus(3).build();
    let ids: Vec<_> = platform.ids().collect();
    let mut builder = TaskType::builder(0, &platform);
    for &r in &ids {
        builder.profile(r, Time::new(4.0), Energy::new(2.0));
    }
    let catalog = TaskCatalog::new(vec![builder.build()]);

    let now = Time::new(50.0);
    let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), now, Time::new(58.0));
    let predicted = [JobView::fresh(
        JobKey(2),
        TaskTypeId::new(0),
        Time::new(53.0),
        Time::new(62.0),
    )];
    let activation = phantom_activation(&platform, &catalog, &[], arriving, &predicted, now);

    let mut pool = TimelinePool::new();
    let decision = ExactRm::new().decide_with_pool(&activation, &mut pool);
    assert!(decision.admitted);
    assert!(decision.used_prediction);
    assert_eq!(pool.engine_verdicts(), 0);
}
