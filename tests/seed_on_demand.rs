//! `ExactRm` plans its heuristic seed only where the search needs it.
//!
//! A rung's search starts cold. The first time it has spent more nodes than
//! the rung has jobs, it asks for the regret heuristic's plan and injects
//! it as an incumbent that only prunes. Decisions are those of a cold
//! search; only the node count and the number of seeds planned
//! ([`TimelinePool::seeds_planned`]) move.

use rtrm::core::TimelinePool;
use rtrm::prelude::*;

/// Decides `activation` in a fresh pool; returns the decision and the
/// seeds the decide planned.
fn decide(rm: &mut ExactRm, activation: &Activation<'_>) -> (Decision, u64) {
    let mut pool = TimelinePool::new();
    let decision = rm.decide_with_pool(activation, &mut pool);
    (decision, pool.seeds_planned())
}

/// The decision with its node count cleared.
fn without_nodes(decision: &Decision) -> Decision {
    Decision {
        nodes: 0,
        ..decision.clone()
    }
}

/// `k` task pairs (A, B) contending for one shared cheap slot each, on
/// `5k + 1` CPUs, every job due one execution from now (the `milp_scale`
/// contended-pair world). The branch order puts every A before every B, so
/// a cold search parks each A on its shared slot and walks a long
/// improvement cascade; the regret heuristic maps the optimum directly.
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
    let mut arriving = TaskType::builder(2 * k, &platform);
    arriving.profile(ids[5 * k], Time::new(EXEC), Energy::new(1.0));
    types.push(arriving.build());
    let catalog = TaskCatalog::new(types);

    let deadline = Time::new(EXEC);
    let active = (0..2 * k)
        .map(|i| JobView::fresh(JobKey(i as u64), TaskTypeId::new(i), Time::ZERO, deadline))
        .collect();
    let arriving = JobView::fresh(JobKey(10_000), TaskTypeId::new(2 * k), Time::ZERO, deadline);
    (platform, catalog, active, arriving)
}

/// On the contended world at 8 pairs the cold search needs hundreds of
/// nodes. Its first descent fails on the shared slots, so the search asks
/// for the seed partway down, plans exactly one, and confirms the optimum
/// in at most an eighth of the cold nodes; the decision is the cold one.
#[test]
fn the_contended_rung_plans_one_seed_and_decides_as_cold() {
    let (platform, catalog, active, arriving) = contended_world(8);
    let activation = Activation {
        now: Time::ZERO,
        platform: &platform,
        catalog: &catalog,
        active: &active,
        arriving,
        predicted: &[],
    };
    let (cold, cold_seeds) = decide(
        &mut ExactRm {
            warm_start: false,
            ..ExactRm::new()
        },
        &activation,
    );
    let (warm, warm_seeds) = decide(&mut ExactRm::new(), &activation);
    assert!(cold.admitted);
    assert_eq!(without_nodes(&warm), without_nodes(&cold));
    assert_eq!(cold_seeds, 0, "a cold search plans no seed");
    assert_eq!(warm_seeds, 1, "the one rung plans its seed once");
    assert!(
        warm.nodes * 8 <= cold.nodes,
        "the seeded search took {} nodes, the cold one {}",
        warm.nodes,
        cold.nodes
    );
}

/// On the paper platform, an activation whose every job fits on its
/// cheapest candidate: each rung's first descent reaches the optimum and
/// the energy bound cuts everything else, so no search outlives its first
/// descent. No seed is planned, and the warm-start manager decides as the
/// cold one, node count included. A job running on the GPU puts restarts
/// in place in the rows.
#[test]
fn a_first_descent_that_settles_every_rung_plans_no_seed() {
    let platform = Platform::paper_default();
    let gpu = platform.ids_of_kind(ResourceKind::Gpu).next().unwrap();
    let cpus: Vec<ResourceId> = platform.ids_of_kind(ResourceKind::Cpu).collect();
    // Job `i` is cheapest on CPU `i`, then the GPU, then the other CPUs.
    let catalog = TaskCatalog::new(
        (0..4)
            .map(|i| {
                let mut ty = TaskType::builder(i, &platform);
                ty.profile(gpu, Time::new(2.0), Energy::new(3.0))
                    .uniform_migration(Time::new(0.5), Energy::new(0.5));
                for (c, &cpu) in cpus.iter().enumerate() {
                    let energy = if c == i { 1.0 } else { 4.0 + c as f64 };
                    ty.profile(cpu, Time::new(3.0), Energy::new(energy));
                }
                ty.build()
            })
            .collect(),
    );
    let now = Time::new(10.0);
    let due = now + Time::new(20.0);
    let mut running = JobView::fresh(JobKey(0), TaskTypeId::new(0), now, due);
    running.placement = Some(Placement::new(gpu, 0.5, true));
    let active = [
        running,
        JobView::fresh(JobKey(1), TaskTypeId::new(1), now, due),
    ];
    let arriving = JobView::fresh(JobKey(2), TaskTypeId::new(2), now, due);
    let release = now + Time::new(1.0);
    let predicted = [JobView::fresh(
        JobKey(3),
        TaskTypeId::new(3),
        release,
        release + Time::new(20.0),
    )];
    let activation = Activation {
        now,
        platform: &platform,
        catalog: &catalog,
        active: &active,
        arriving,
        predicted: &predicted,
    };
    let (cold, _) = decide(
        &mut ExactRm {
            warm_start: false,
            ..ExactRm::new()
        },
        &activation,
    );
    let (warm, seeds) = decide(&mut ExactRm::new(), &activation);
    assert!(cold.admitted && cold.used_prediction);
    assert_eq!(seeds, 0, "no rung outlived its first descent");
    assert_eq!(warm, cold);
}
