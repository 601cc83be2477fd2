//! The budgeted exact manager decides like the unbudgeted one where the
//! phantom rung hides a plan behind a large infeasible subtree.
//!
//! Each shape puts a perfectly predicted task `F` (GPU only, released after
//! `now`) on the paper's 5 CPU + 1 GPU platform next to a job running on
//! the GPU. The rung that plans around `F` has a plan, but the search's
//! cheapest-first order first walks a subtree where the GPU's first
//! dispatch after `now` (or after the running job) is a dense job long
//! enough to start `F` too late. No extension repairs that, yet without a
//! cut that knows it, only the leaves show it, and a small node budget runs
//! out inside the subtree: the rung then ends with no plan and the ladder
//! falls back to the plan without `F`. The first-dispatch test
//! ([`rtrm::sched::EdfTimeline::first_dispatch_blocked`]) cuts the subtree
//! at its root, so the budgeted search finds the rung's optimum as the
//! unbudgeted one does.

use rtrm::prelude::*;

/// The node budget: far below what the infeasible subtrees hold.
const BUDGET: u64 = 2_000;

/// The paper platform's CPU count.
const CPUS: usize = 5;

/// One job: GPU `(exec, energy)`, `(exec, energy)` on each CPU (empty: GPU
/// only), release and deadline relative to `now`, and the fraction of its
/// GPU work left when it is running there.
struct Job {
    gpu: (f64, f64),
    cpu: Vec<(f64, f64)>,
    release: f64,
    deadline: f64,
    running: Option<f64>,
}

fn job(gpu: (f64, f64), cpu: Vec<(f64, f64)>, deadline: f64) -> Job {
    Job {
        gpu,
        cpu,
        release: 0.0,
        deadline,
        running: None,
    }
}

/// The same `(exec, energy)` on every CPU.
fn every_cpu(exec: f64, energy: f64) -> Vec<(f64, f64)> {
    vec![(exec, energy); CPUS]
}

/// Decides the activation whose jobs are `shape` (the second-to-last
/// arriving, the last the predicted `F`) at `now` with the budgeted and the
/// unbudgeted manager, and checks that both plan around `F` alike.
fn check(now: f64, shape: &[Job]) {
    let platform = Platform::paper_default();
    let gpu = platform.ids_of_kind(ResourceKind::Gpu).next().unwrap();
    let catalog = TaskCatalog::new(
        shape
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let mut ty = TaskType::builder(i, &platform);
                ty.profile(gpu, Time::new(job.gpu.0), Energy::new(job.gpu.1));
                for (cpu, &(exec, energy)) in platform.ids_of_kind(ResourceKind::Cpu).zip(&job.cpu)
                {
                    ty.profile(cpu, Time::new(exec), Energy::new(energy));
                }
                ty.build()
            })
            .collect(),
    );
    let jobs: Vec<JobView> = shape
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut view = JobView::fresh(
                JobKey(i as u64),
                TaskTypeId::new(i),
                Time::new(now + spec.release),
                Time::new(now + spec.deadline),
            );
            view.placement = spec.running.map(|left| Placement::new(gpu, left, true));
            view
        })
        .collect();
    let n = jobs.len();
    let activation = Activation {
        now: Time::new(now),
        platform: &platform,
        catalog: &catalog,
        active: &jobs[..n - 2],
        arriving: jobs[n - 2],
        predicted: &jobs[n - 1..],
    };
    let unbudgeted = ExactRm::new().decide(&activation);
    assert!(
        unbudgeted.admitted && unbudgeted.used_prediction,
        "the rung with the phantom has a plan: {unbudgeted:?}"
    );
    let budgeted = ExactRm::with_node_budget(BUDGET).decide(&activation);
    assert!(
        budgeted.nodes < BUDGET,
        "the budgeted search reached its budget: {budgeted:?}"
    );
    assert_eq!(budgeted, unbudgeted);
}

/// `F` is released at +1.48 with deadline +8.67 and 4.79 of GPU-only
/// work; the running GPU job has 2.80 left, and a queued GPU-only job of
/// 15.02 is due at +22.41. With the running job staying, `F` and the
/// queued job no longer fit behind it; restarted, the queued job takes the
/// GPU's first dispatch and `F` starts at +15.02. Only a 2.0-unit job due
/// by +10 dispatched first rescues the rung, and it is cheaper on a CPU,
/// so the search tries every CPU for it first, each with the five
/// remaining jobs and the running one below.
#[test]
fn a_long_first_dispatch_is_cut_before_the_running_job_is_placed() {
    let mut running = job((5.6, 2.0), every_cpu(8.0, 6.0), 30.0);
    running.running = Some(0.5);
    let queued = job((15.02, 3.0), Vec::new(), 22.41);
    let rescue = job((2.0, 3.0), every_cpu(4.0, 1.0), 10.0);
    let mut shape = vec![running, queued, rescue];
    shape.extend((0..5).map(|_| job((3.0, 1.0), every_cpu(6.0, 1.5), 40.0)));
    shape.push(Job {
        gpu: (4.79, 2.0),
        cpu: Vec::new(),
        release: 1.48,
        deadline: 8.67,
        running: None,
    });
    check(37.5, &shape);
}

/// The running GPU job has 2.03 left and cannot restart in time, so it
/// stays; `F` is released at +3.38 with latest start +5.47, and every
/// other job's GPU exec is at least 3.91. Any of them on the GPU takes the
/// first dispatch after the running job, at +2.03, and starts `F` at +5.94
/// at the earliest: `F` fits only with every other job on a CPU, although
/// the two branched first are much cheaper on the GPU. Five jobs due
/// before those two are still to be placed and could go to the GPU ahead
/// of them, so the blocking cut's headroom reaches past `F`'s release and
/// only the first-dispatch test sees the miss.
#[test]
fn a_first_dispatch_behind_a_staying_job_is_cut_at_once() {
    let mut running = job((4.06, 2.0), every_cpu(9.0, 6.0), 2.5);
    running.running = Some(0.5);
    let mut shape = vec![running];
    shape.extend(
        [12.0, 14.0]
            .into_iter()
            .map(|deadline| job((3.91, 1.0), every_cpu(6.0, 5.0), deadline)),
    );
    shape.extend((0..CPUS).map(|i| {
        let cpu = (0..CPUS)
            .map(|c| (2.0, 1.0 + 0.25 * ((i + c) % CPUS) as f64))
            .collect();
        job((4.5, 3.0), cpu, 11.0)
    }));
    shape.push(Job {
        gpu: (2.5, 2.0),
        cpu: Vec::new(),
        release: 3.38,
        deadline: 7.97,
        running: None,
    });
    check(12.25, &shape);
}
