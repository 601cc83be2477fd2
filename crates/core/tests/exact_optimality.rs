//! Brute-force optimality check for the exact optimizer: on tiny random
//! instances, enumerate *every* assignment of jobs to candidates and verify
//! `ExactRm` returns the minimum-energy feasible plan. Instances include a
//! job running on the GPU (whose "stay" candidate is pinned) and a phantom
//! released anywhere from a quarter of a unit to four units ahead, so the
//! search's demand-bound and blocking cuts on GPU queues with a future
//! release are checked against exhaustive enumeration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rtrm_core::{
    candidates, Activation, Candidate, ExactRm, JobView, Placement, PlanBuilder, ResourceManager,
    TimelinePool,
};
use rtrm_platform::{Platform, ResourceKind, TaskCatalog, TaskTypeId, Time};
use rtrm_sched::JobKey;
use rtrm_trace::{generate_catalog, CatalogConfig};

fn world(seed: u64, cpus: usize, gpu: bool) -> (Platform, TaskCatalog) {
    let mut b = Platform::builder();
    b.cpus(cpus);
    if gpu {
        b.gpu("g");
    }
    let platform = b.build();
    let cfg = CatalogConfig {
        num_types: 4,
        cpu_wcet_mean: 8.0,
        cpu_wcet_std: 2.0,
        cpu_energy_mean: 5.0,
        cpu_energy_std: 1.5,
        ..CatalogConfig::paper()
    };
    let catalog = generate_catalog(&platform, &cfg, &mut StdRng::seed_from_u64(seed));
    (platform, catalog)
}

/// Exhaustive minimum over all complete candidate assignments whose final
/// plan passes the full schedulability check.
fn brute_force_best(activation: &Activation<'_>) -> Option<f64> {
    let jobs: Vec<JobView> = activation.jobs_with_prediction().copied().collect();
    let cands: Vec<Vec<Candidate>> = jobs
        .iter()
        .map(|j| {
            candidates(j, activation.platform, activation.catalog, true)
                .into_iter()
                .filter(|c| c.exec <= j.time_left(activation.now))
                .collect()
        })
        .collect();
    if cands.iter().any(Vec::is_empty) {
        return None;
    }
    let mut best: Option<f64> = None;
    let mut index = vec![0usize; jobs.len()];
    loop {
        // Evaluate the current combination with a *full-plan* check only —
        // no partial pruning — so anomalies cannot hide solutions.
        let mut pool = TimelinePool::new();
        let mut plan = PlanBuilder::new(activation, &mut pool);
        let mut cost = 0.0;
        for (j, job) in jobs.iter().enumerate() {
            let c = &cands[j][index[j]];
            plan.place(job, c);
            cost += c.energy.value();
        }
        if plan.all_schedulable() && best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
        // Next combination (odometer).
        let mut pos = 0;
        loop {
            if pos == jobs.len() {
                return best;
            }
            index[pos] += 1;
            if index[pos] < cands[pos].len() {
                break;
            }
            index[pos] = 0;
            pos += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn exact_matches_brute_force(
        seed in any::<u64>(),
        cpus in 1usize..3,
        gpu in any::<bool>(),
        slacks in prop::collection::vec(1.1f64..4.0, 1..6),
        types in prop::collection::vec(0usize..4, 1..6),
        with_phantom in any::<bool>(),
        running in prop::option::of(0.05f64..1.0),
        release_eighths in 2u32..33,
        factor in prop_oneof![Just(1.2), Just(1.5), Just(1.6), Just(2.0)],
    ) {
        let (platform, catalog) = world(seed, cpus, gpu);
        let n = slacks.len().min(types.len());
        let now = Time::ZERO;
        // Jobs: the last is "arriving", the rest are unplaced actives (the
        // RM treats unplaced active tasks like fresh ones, keeping the
        // brute-force comparable).
        let mut jobs: Vec<JobView> = (0..n)
            .map(|i| {
                let ty = TaskTypeId::new(types[i] % catalog.len());
                JobView::fresh(
                    JobKey(i as u64),
                    ty,
                    now,
                    now + catalog.task_type(ty).mean_wcet() * slacks[i],
                )
            })
            .collect();
        // With `running`, the first active job has done part of its work on
        // the GPU: it stays pinned there, restarts, or migrates.
        let gpu_id = platform.ids_of_kind(ResourceKind::Gpu).next();
        if let (Some(fraction), Some(gpu_id), true) = (running, gpu_id, n >= 2) {
            if catalog.task_type(jobs[0].task_type).profile(gpu_id).is_some() {
                jobs[0].placement = Some(Placement::new(gpu_id, fraction, true));
            }
        }
        // The phantom's release is drawn on the 1/8 lattice, so dense GPU
        // work straddles it in varied ways, and its deadline is a multiple
        // of the type's fastest execution.
        let phantom = if with_phantom {
            let ty = TaskTypeId::new(types[0] % catalog.len());
            let release = Time::new(f64::from(release_eighths) * 0.125);
            vec![JobView::fresh(
                JobKey(99),
                ty,
                release,
                release + catalog.task_type(ty).min_wcet() * factor,
            )]
        } else {
            Vec::new()
        };
        let activation = Activation {
            now,
            platform: &platform,
            catalog: &catalog,
            active: &jobs[..n - 1],
            arriving: jobs[n - 1],
            predicted: &phantom,
        };

        let decision = ExactRm::new().decide(&activation);
        let brute = brute_force_best(&activation);
        match (decision.admitted && decision.used_prediction == with_phantom, brute) {
            (true, Some(b)) => {
                prop_assert!(
                    (decision.objective.value() - b).abs() < 1e-6,
                    "exact {} vs brute {b}",
                    decision.objective
                );
            }
            // If the full phantom set is infeasible, the manager falls back;
            // the brute force (which always includes the phantom) disagrees
            // by construction — skip those.
            (false, None) => {}
            // An unbounded search that cuts only subtrees without a feasible
            // leaf finds every plan the enumeration finds.
            (false, Some(b)) => prop_assert!(
                false,
                "brute force found a plan of cost {b} that the exact search missed"
            ),
            (true, None) => prop_assert!(
                false,
                "exact admitted (with phantom honoured) but brute force found nothing"
            ),
        }
    }
}
