//! The unbudgeted exact manager against brute force where its capacity
//! bound is tight.
//!
//! Every instance holds more jobs that prefer the GPU than the GPU fits by
//! their deadlines, so the optimum leaves some of them on a CPU, and the
//! bound's price on GPU time (the savings ratio of the job that overflows
//! it) lifts the root bound to the optimum or close to it. A bound that
//! overshoots there cuts the optimum's subtree while the search still holds
//! a worse incumbent, and the returned energy moves off the brute force's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtrm::core::{candidates, PlanBuilder, TimelinePool};
use rtrm::platform::TIME_EPSILON;
use rtrm::prelude::*;

/// One job: CPU `(exec, energy)`, GPU `(exec, energy)`, deadline.
type Spec = ((f64, f64), (f64, f64), f64);

/// The cheapest feasible complete assignment, by enumeration.
fn brute_force(activation: &Activation<'_>) -> Option<f64> {
    let jobs: Vec<JobView> = activation.jobs_with_prediction().copied().collect();
    let rows: Vec<Vec<Candidate>> = jobs
        .iter()
        .map(|job| {
            candidates(job, activation.platform, activation.catalog, true)
                .into_iter()
                .filter(|c| c.exec <= job.time_left(activation.now))
                .collect()
        })
        .collect();
    if rows.iter().any(Vec::is_empty) {
        return None;
    }
    let mut pool = TimelinePool::new();
    let mut best: Option<f64> = None;
    let mut pick = vec![0usize; jobs.len()];
    loop {
        let mut plan = PlanBuilder::new(activation, &mut pool);
        let mut cost = 0.0;
        for (j, job) in jobs.iter().enumerate() {
            plan.place(job, &rows[j][pick[j]]);
            cost += rows[j][pick[j]].energy.value();
        }
        if plan.all_schedulable() && best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
        let mut pos = 0;
        loop {
            if pos == jobs.len() {
                return best;
            }
            pick[pos] += 1;
            if pick[pos] < rows[pos].len() {
                break;
            }
            pick[pos] = 0;
            pos += 1;
        }
    }
}

/// Runs `ExactRm::new()`, warm and cold, on the jobs (the last one
/// arriving, all released at 0) over `cpus` CPUs and one GPU, and checks
/// both against brute force. The cold search's first incumbent is its
/// cheapest-first dive, usually worse than the optimum, so an overshooting
/// bound has a worse incumbent to cut against.
fn check(cpus: usize, specs: &[Spec]) {
    let platform = Platform::builder().cpus(cpus).gpu("g").build();
    let gpu = platform.ids_of_kind(ResourceKind::Gpu).next().unwrap();
    let catalog = TaskCatalog::new(
        specs
            .iter()
            .enumerate()
            .map(
                |(i, &((cpu_exec, cpu_energy), (gpu_exec, gpu_energy), _))| {
                    let mut ty = TaskType::builder(i, &platform);
                    for id in platform.ids_of_kind(ResourceKind::Cpu) {
                        ty.profile(id, Time::new(cpu_exec), Energy::new(cpu_energy));
                    }
                    ty.profile(gpu, Time::new(gpu_exec), Energy::new(gpu_energy))
                        .build()
                },
            )
            .collect(),
    );
    let jobs: Vec<JobView> = specs
        .iter()
        .enumerate()
        .map(|(i, &(_, _, deadline))| {
            JobView::fresh(
                JobKey(i as u64),
                TaskTypeId::new(i),
                Time::ZERO,
                Time::new(deadline),
            )
        })
        .collect();
    let n = jobs.len();
    let activation = Activation {
        now: Time::ZERO,
        platform: &platform,
        catalog: &catalog,
        active: &jobs[..n - 1],
        arriving: jobs[n - 1],
        predicted: &[],
    };
    let brute = brute_force(&activation);
    for warm_start in [true, false] {
        let decision = ExactRm {
            warm_start,
            ..ExactRm::new()
        }
        .decide(&activation);
        match brute {
            Some(best) => {
                assert!(decision.admitted, "{specs:?}: brute force admits at {best}");
                assert!(
                    (decision.objective.value() - best).abs() < 1e-9,
                    "{specs:?} (warm start {warm_start}): exact {} against brute force {best}",
                    decision.objective
                );
            }
            None => assert!(!decision.admitted, "{specs:?}: no feasible plan exists"),
        }
    }
}

#[test]
fn exact_matches_brute_force_where_the_gpu_price_is_tight() {
    // Three jobs due by 2 − 0.75ε, each saving 2 on the GPU, which fits two
    // of them (the second finishes at 2, within epsilon): the bound prices
    // at 2 per unit of GPU time and reaches the optimum, 5, to within 2ε.
    let tight = ((1.875, 3.0), (1.0, 1.0), 2.0 - 0.75 * TIME_EPSILON);
    check(1, &[tight; 3]);

    // Seeded GPU-contended instances on the 1/8 lattice: seven or eight
    // jobs on two CPUs, GPU lines cheaper and twice as fast as the CPU ones,
    // deadlines a few GPU execs out, some a full epsilon before their
    // lattice point. Their searches run past the bound's lazy build.
    let eighths = |rng: &mut StdRng, lo: u32, hi: u32| f64::from(rng.gen_range(lo..hi)) * 0.125;
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(7usize..9);
        let specs: Vec<Spec> = (0..n)
            .map(|_| {
                let gpu_exec = eighths(&mut rng, 4, 13);
                let gpu_energy = eighths(&mut rng, 4, 25);
                let saving = eighths(&mut rng, 1, 25);
                let slack = eighths(&mut rng, 0, 25);
                let eps = [0.0, -0.75, -1.0][rng.gen_range(0usize..3)] * TIME_EPSILON;
                (
                    (2.0 * gpu_exec, gpu_energy + saving),
                    (gpu_exec, gpu_energy),
                    2.0 * gpu_exec + slack + eps,
                )
            })
            .collect();
        check(2, &specs);
    }
}
