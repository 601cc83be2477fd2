//! Differential property suite: incremental [`EdfTimeline`] push/undo against
//! the from-scratch event-driven engine ([`is_schedulable_with`] /
//! [`simulate_into`]) over the very same job list.
//!
//! Two float regimes are exercised:
//!
//! * **lattice** — every time is a multiple of 1/8, so prefix sums are exact
//!   in `f64` no matter the association order; the incremental tree verdict
//!   must then agree with the sequential engine *bit for bit*;
//! * **continuous** — uniform floats, checking verdict-level agreement on
//!   arbitrary magnitudes (sums may associate differently, but verdicts only
//!   diverge on knife-edge queues that uniform sampling never hits).

use proptest::prelude::*;
use rtrm_platform::{ResourceKind, Time, TIME_EPSILON};
use rtrm_sched::{
    is_schedulable_with, reference, simulate_into, EdfScratch, EdfTimeline, JobKey, PlannedJob,
};

/// One step of a randomized admission episode.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a job with these offsets from the episode's `now`.
    Push {
        release: f64,
        exec: f64,
        deadline: f64,
        pinned: bool,
    },
    /// Retract the most recent job (no-op on an empty timeline).
    Undo,
}

/// Times that are exact multiples of 1/8: all sums are exact dyadics.
fn lattice(steps: std::ops::Range<u32>) -> impl Strategy<Value = f64> {
    steps.prop_map(|i| f64::from(i) * 0.125)
}

fn lattice_op() -> impl Strategy<Value = Op> {
    (lattice(0..32), lattice(0..48), lattice(1..320), 0u8..10).prop_map(
        |(release, exec, deadline, sel)| match sel {
            // ~1 in 5 ops retracts; the rest push (~1 in 5 pushes pinned).
            0..=1 => Op::Undo,
            2..=3 => Op::Push {
                release,
                exec,
                deadline,
                pinned: true,
            },
            _ => Op::Push {
                release,
                exec,
                deadline,
                pinned: false,
            },
        },
    )
}

/// Release offsets straddling the epsilon boundary around `now`, mixed with
/// genuinely dense and genuinely future releases. Offsets within
/// [`TIME_EPSILON`] of zero must classify as dense everywhere (engine,
/// timeline, defer logic); anything beyond takes the future path.
fn eps_release() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-TIME_EPSILON / 2.0),
        Just(TIME_EPSILON / 2.0),
        Just(TIME_EPSILON),
        Just(2.0 * TIME_EPSILON),
        lattice(1..24),
    ]
}

fn eps_op() -> impl Strategy<Value = Op> {
    (eps_release(), lattice(0..48), lattice(1..320), 0u8..10).prop_map(
        |(release, exec, deadline, sel)| match sel {
            0..=1 => Op::Undo,
            _ => Op::Push {
                release,
                exec,
                deadline,
                pinned: false,
            },
        },
    )
}

fn continuous_op() -> impl Strategy<Value = Op> {
    (0.01f64..30.0, 0.0f64..50.0, 0.1f64..250.0, 0u8..10).prop_map(
        |(release, exec, deadline, sel)| match sel {
            0..=1 => Op::Undo,
            2..=3 => Op::Push {
                // Dense queues are the common case: most pushes release at
                // `now` (and are eligible for pinning on a GPU).
                release: 0.0,
                exec,
                deadline,
                pinned: true,
            },
            4..=6 => Op::Push {
                release: 0.0,
                exec,
                deadline,
                pinned: false,
            },
            _ => Op::Push {
                release,
                exec,
                deadline,
                pinned: false,
            },
        },
    )
}

/// Replays `ops` on an [`EdfTimeline`] while maintaining the plain job list,
/// asserting after every step that the retained queue and the incremental
/// verdict agree with a from-scratch engine run.
fn run_differential(kind: ResourceKind, now: f64, ops: &[Op]) -> Result<(), TestCaseError> {
    let now = Time::new(now);
    let mut timeline = EdfTimeline::new(kind, now);
    let mut model: Vec<PlannedJob> = Vec::new();
    let mut scratch = EdfScratch::new();
    let mut outcomes = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Push {
                release,
                exec,
                deadline,
                pinned,
            } => {
                let mut job = PlannedJob::new(
                    JobKey(step as u64),
                    now + Time::new(release),
                    Time::new(exec),
                    now + Time::new(deadline),
                );
                // Respect the engine's invariants: pinning is GPU-only and
                // at most one job per resource.
                job.pinned = pinned
                    && kind == ResourceKind::Gpu
                    && release == 0.0
                    && !model.iter().any(|j| j.pinned);
                let verdict = timeline.push(job).is_feasible();
                model.push(job);
                let expected = is_schedulable_with(kind, now, &model, &mut scratch);
                prop_assert_eq!(
                    verdict,
                    expected,
                    "push verdict diverged at step {} on {:?}",
                    step,
                    &model
                );
            }
            Op::Undo => {
                if model.is_empty() {
                    continue;
                }
                let popped = timeline.undo();
                let expected = model.pop().expect("model mirrors timeline");
                prop_assert_eq!(popped, expected, "undo returned the wrong job");
            }
        }
        // The retained queue is the model, element for element.
        prop_assert_eq!(timeline.jobs(), &model[..]);
        // Verdict parity with `is_schedulable_with`...
        let expected = is_schedulable_with(kind, now, &model, &mut scratch);
        prop_assert_eq!(
            timeline.feasible(),
            expected,
            "feasible() diverged at step {} on {:?}",
            step,
            &model
        );
        // ... and with a full `simulate_into` run of the same queue.
        simulate_into(kind, now, &model, None, &mut scratch, &mut outcomes);
        let simulated = outcomes
            .iter()
            .zip(&model)
            .all(|(o, j)| o.meets(j.deadline));
        // `is_schedulable_with` also applies the per-job necessary condition
        // `release.max(now) + exec <= deadline`, which simulation implies:
        // no job can finish earlier than that.
        prop_assert_eq!(
            timeline.feasible(),
            simulated,
            "simulate_into disagreed at step {}",
            step
        );
        // ... and with the scan-based reference oracle, bit for bit.
        prop_assert_eq!(
            timeline.feasible(),
            reference::is_schedulable(kind, now, &model),
            "reference oracle disagreed at step {} on {:?}",
            step,
            &model
        );
    }
    Ok(())
}

proptest! {
    /// CPU, exact dyadic times: bit-for-bit verdict agreement.
    #[test]
    fn cpu_lattice_matches_engine(
        now in lattice(0..64),
        ops in prop::collection::vec(lattice_op(), 1..40),
    ) {
        run_differential(ResourceKind::Cpu, now, &ops)?;
    }

    /// GPU (non-preemptive, pinned jobs), exact dyadic times.
    #[test]
    fn gpu_lattice_matches_engine(
        now in lattice(0..64),
        ops in prop::collection::vec(lattice_op(), 1..40),
    ) {
        run_differential(ResourceKind::Gpu, now, &ops)?;
    }

    /// CPU, continuous times: verdict-level agreement.
    #[test]
    fn cpu_continuous_matches_engine(
        now in 0.0f64..100.0,
        ops in prop::collection::vec(continuous_op(), 1..30),
    ) {
        run_differential(ResourceKind::Cpu, now, &ops)?;
    }

    /// GPU, continuous times: verdict-level agreement.
    #[test]
    fn gpu_continuous_matches_engine(
        now in 0.0f64..100.0,
        ops in prop::collection::vec(continuous_op(), 1..30),
    ) {
        run_differential(ResourceKind::Gpu, now, &ops)?;
    }

    /// Mixed dense / epsilon-boundary / future releases: the segment sweep,
    /// `undo()` restoration of both trees, and the dense classification must
    /// keep every verdict in lockstep with the engine and the reference
    /// oracle on both resource kinds.
    #[test]
    fn epsilon_boundary_releases_match_reference(
        now in lattice(0..64),
        ops in prop::collection::vec(eps_op(), 1..32),
        kind in prop_oneof![Just(ResourceKind::Cpu), Just(ResourceKind::Gpu)],
    ) {
        run_differential(kind, now, &ops)?;
    }

    /// The oracle mode (memoized from-scratch engine) and the incremental
    /// mode agree on every verdict of every episode.
    #[test]
    fn oracle_and_incremental_agree(
        now in lattice(0..64),
        ops in prop::collection::vec(lattice_op(), 1..40),
        kind in prop_oneof![Just(ResourceKind::Cpu), Just(ResourceKind::Gpu)],
    ) {
        let now = Time::new(now);
        let mut incremental = EdfTimeline::new(kind, now);
        let mut oracle = EdfTimeline::new(kind, now);
        oracle.set_oracle(true);
        let mut pinned_present = false;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Push { release, exec, deadline, pinned } => {
                    let mut job = PlannedJob::new(
                        JobKey(step as u64),
                        now + Time::new(release),
                        Time::new(exec),
                        now + Time::new(deadline),
                    );
                    job.pinned = pinned && kind == ResourceKind::Gpu && !pinned_present;
                    pinned_present |= job.pinned;
                    prop_assert_eq!(
                        incremental.push(job).is_feasible(),
                        oracle.push(job).is_feasible(),
                    );
                }
                Op::Undo => {
                    if incremental.is_empty() {
                        continue;
                    }
                    let popped = incremental.undo();
                    pinned_present &= !popped.pinned;
                    prop_assert_eq!(popped, oracle.undo());
                }
            }
            prop_assert_eq!(incremental.feasible(), oracle.feasible());
        }
    }
}

/// Offsets that straddle the epsilon boundary around an anchor instant.
const EPS_OFFSETS: [f64; 6] = [
    -TIME_EPSILON,
    -TIME_EPSILON / 2.0,
    0.0,
    TIME_EPSILON / 2.0,
    TIME_EPSILON,
    2.0 * TIME_EPSILON,
];

/// Deadline offsets off the lattice by a fraction of epsilon, so a queue
/// can sit inside the tolerance windows of the engine and the bound without
/// landing on a float knife edge between them.
const DEADLINE_EPS: [f64; 3] = [0.0, -0.75 * TIME_EPSILON, 0.25 * TIME_EPSILON];

/// A job's `(exec, deadline offset, deadline epsilon index)`.
type JobSpec = (f64, f64, usize);

/// One future release of a [`gpu_demand_case`]: `(anchor, epsilon index,
/// lattice offset, job)`. Anchor 0 releases within epsilon of `now`, anchor
/// 1 within epsilon of the pinned job's completion `now + B`, anchor 2 at a
/// lattice offset after `now`.
type FutureSpec = (u8, usize, f64, JobSpec);

/// A random GPU queue: `(now, pinned job, dense jobs, future releases,
/// push-order sort keys)`.
type GpuDemandCase = (
    f64,
    Option<JobSpec>,
    Vec<JobSpec>,
    Vec<FutureSpec>,
    Vec<u32>,
);

fn job_spec() -> impl Strategy<Value = JobSpec> {
    (lattice(0..48), lattice(1..320), 0usize..DEADLINE_EPS.len())
}

fn gpu_demand_case() -> impl Strategy<Value = GpuDemandCase> {
    (
        lattice(0..64),
        prop::option::of(job_spec()),
        prop::collection::vec(job_spec(), 0..5),
        prop::collection::vec(
            (
                0u8..3,
                0usize..EPS_OFFSETS.len(),
                lattice(1..40),
                job_spec(),
            ),
            1..4,
        ),
        prop::collection::vec(0u32..1000, 8),
    )
}

/// Builds the queue of a [`gpu_demand_case`] in its drawn push order, so the
/// pinned job may land after the future releases it blocks.
fn gpu_demand_queue(case: &GpuDemandCase) -> (Time, Vec<PlannedJob>) {
    let (now, pinned, dense, future, keys) = case;
    let blocking = pinned.map_or(0.0, |(exec, _, _)| exec);
    let job = |key: usize, release: f64, (exec, deadline, eps): JobSpec| {
        PlannedJob::new(
            JobKey(key as u64),
            Time::new(release),
            Time::new(exec),
            Time::new(now + deadline + DEADLINE_EPS[eps]),
        )
    };
    let mut jobs = Vec::new();
    if let Some(spec) = *pinned {
        let mut pinned = job(0, *now, spec);
        pinned.pinned = true;
        jobs.push(pinned);
    }
    for &spec in dense {
        jobs.push(job(jobs.len(), *now, spec));
    }
    for &(anchor, eps, offset, spec) in future {
        let release = match anchor {
            0 => now + EPS_OFFSETS[eps],
            1 => now + blocking + EPS_OFFSETS[eps],
            _ => now + offset,
        };
        jobs.push(job(jobs.len(), release, spec));
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    (
        Time::new(*now),
        order.into_iter().map(|i| jobs[i]).collect(),
    )
}

proptest! {
    /// The demand bound the exact search prunes GPU subtrees with is sound:
    /// on every push-order prefix of a random GPU queue (optional pinned
    /// job, dense jobs, 1–3 future releases straddling `now` and `now + B`
    /// by ±epsilon),
    ///
    /// * whenever the engine accepts a prefix, `demand_feasible()` held on
    ///   it and on every shorter prefix — so cutting at the first failing
    ///   placement never loses a feasible leaf;
    /// * whenever the engine rejects the prefix's released sub-queue (the
    ///   check the bound replaced), `demand_feasible()` rejects the prefix;
    /// * once the bound fails it keeps failing as jobs are added;
    /// * the bound reads the same trees in oracle mode, without the engine.
    #[test]
    fn gpu_demand_bound_is_sound(case in gpu_demand_case()) {
        let (now, queue) = gpu_demand_queue(&case);
        let kind = ResourceKind::Gpu;
        let mut timeline = EdfTimeline::new(kind, now);
        let mut oracle = EdfTimeline::new(kind, now);
        oracle.set_oracle(true);
        let mut scratch = EdfScratch::new();
        let mut bounds = Vec::new();
        for k in 0..queue.len() {
            timeline.insert(queue[k]);
            oracle.insert(queue[k]);
            let prefix = &queue[..=k];
            let bound = timeline.demand_feasible();
            prop_assert_eq!(bound, oracle.demand_feasible(), "oracle mode diverged on {:?}", prefix);
            prop_assert_eq!(oracle.engine_verdicts(), 0);
            bounds.push(bound);
            if k > 0 && !bounds[k - 1] {
                prop_assert!(!bound, "the bound loosened when a job was added: {:?}", prefix);
            }
            let engine = is_schedulable_with(kind, now, prefix, &mut scratch);
            if engine {
                prop_assert!(
                    bounds.iter().all(|&b| b),
                    "engine accepts {:?} but the bound rejected a prefix: {:?}",
                    prefix,
                    bounds
                );
            }
            let released: Vec<PlannedJob> = prefix
                .iter()
                .filter(|j| j.release.released_by(now))
                .copied()
                .collect();
            if !is_schedulable_with(kind, now, &released, &mut scratch) {
                prop_assert!(!bound, "released sub-queue infeasible but the bound holds: {:?}", prefix);
            }
            prop_assert_eq!(timeline.feasible(), engine, "feasible() diverged on {:?}", prefix);
        }
    }
}

/// The fallback ladder's probe pattern from the managers' point of view: a
/// dense working set plus `k` future-released phantoms, re-probed at rung
/// `k`, then `k-1`, …, then `0`. On a preemptable resource every one of those
/// verdicts must come from the incremental trees — zero engine fallbacks —
/// while agreeing with the engine and the reference oracle throughout.
#[test]
fn phantom_ladder_stays_incremental_on_cpu() {
    let now = Time::new(4.0);
    let kind = ResourceKind::Cpu;
    let mut tl = EdfTimeline::new(kind, now);
    let mut model: Vec<PlannedJob> = Vec::new();
    let mut scratch = EdfScratch::new();

    // Dense working set, deliberately near saturation so phantom probes flip
    // between feasible and infeasible across rungs.
    for i in 0..6u64 {
        let job = PlannedJob::new(
            JobKey(i),
            now,
            Time::new(1.0 + 0.25 * i as f64),
            now + Time::new(3.0 + 2.5 * i as f64),
        );
        let verdict = tl.push(job).is_feasible();
        model.push(job);
        assert_eq!(
            verdict,
            is_schedulable_with(kind, now, &model, &mut scratch)
        );
    }

    for k in (0..=4usize).rev() {
        for p in 0..k {
            let phantom = PlannedJob::new(
                JobKey(100 + p as u64),
                now + Time::new(2.0 + p as f64), // strictly future
                Time::new(1.5),
                now + Time::new(4.0 + 2.0 * p as f64),
            );
            let verdict = tl.push(phantom).is_feasible();
            model.push(phantom);
            assert_eq!(
                verdict,
                is_schedulable_with(kind, now, &model, &mut scratch),
                "rung {k}, phantom {p}"
            );
            assert_eq!(
                verdict,
                reference::is_schedulable(kind, now, &model),
                "rung {k}, phantom {p} (reference)"
            );
        }
        // The rung failed or succeeded; either way the ladder unwinds the
        // phantoms before trying the next k. Both trees must be restored.
        for _ in 0..k {
            let _ = tl.undo();
            let _ = model.pop();
        }
        assert!(!tl.has_future(), "all phantoms retracted at rung {k}");
        assert_eq!(
            tl.feasible(),
            is_schedulable_with(kind, now, &model, &mut scratch)
        );
    }

    assert_eq!(
        tl.engine_verdicts(),
        0,
        "preemptable ladder probes must never route through the engine"
    );
}
