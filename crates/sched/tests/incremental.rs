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

/// A job of a [`BlockingCase`]: `(release, exec, deadline)` offsets from
/// `now`.
type Spec = (f64, f64, f64);

/// How an extension-pool job joins the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    Dense,
    Future,
    Pinned,
}

/// A GPU queue holding exactly one future release, plus a pool of jobs a
/// search could still add to it.
#[derive(Debug, Clone)]
struct BlockingCase {
    now: f64,
    pinned: Option<Spec>,
    dense: Vec<Spec>,
    future: Spec,
    /// Push-order sort keys for the queue's jobs.
    keys: Vec<u32>,
    pool: Vec<(Extra, Spec)>,
}

fn extra() -> impl Strategy<Value = Extra> {
    prop_oneof![
        Just(Extra::Dense),
        Just(Extra::Dense),
        Just(Extra::Future),
        Just(Extra::Pinned),
    ]
}

/// Lattice regime: every release and deadline within ±epsilon of a 1/8
/// lattice point, execs on the lattice. The future job's deadline sits a
/// lattice slack after its release plus its exec, so dense work straddling
/// the release can block it.
fn lattice_blocking_case() -> impl Strategy<Value = BlockingCase> {
    let dense = || {
        (lattice(0..32), lattice(1..160), 0usize..DEADLINE_EPS.len())
            .prop_map(|(exec, deadline, e)| (0.0, exec, deadline + DEADLINE_EPS[e]))
    };
    let future = (
        lattice(1..40),
        0usize..EPS_OFFSETS.len(),
        lattice(0..24),
        lattice(0..16),
        0usize..DEADLINE_EPS.len(),
    )
        .prop_map(|(release, e, exec, slack, d)| {
            (
                release + EPS_OFFSETS[e],
                exec,
                release + exec + slack + DEADLINE_EPS[d],
            )
        });
    let pool_job = (
        extra(),
        lattice(1..40),
        0usize..EPS_OFFSETS.len(),
        lattice(0..24),
        lattice(1..160),
        0usize..DEADLINE_EPS.len(),
    )
        .prop_map(|(extra, release, e, exec, deadline, d)| {
            let release = if extra == Extra::Future {
                release + EPS_OFFSETS[e]
            } else {
                0.0
            };
            (extra, (release, exec, deadline + DEADLINE_EPS[d]))
        });
    (
        lattice(0..64),
        prop::option::of(dense()),
        prop::collection::vec(dense(), 0..5),
        future,
        prop::collection::vec(0u32..1000, 6),
        prop::collection::vec(pool_job, 0..5),
    )
        .prop_map(|(now, pinned, dense, future, keys, pool)| BlockingCase {
            now,
            pinned,
            dense,
            future,
            keys,
            pool,
        })
}

/// Continuous regime: uniform floats on the same scales.
fn continuous_blocking_case() -> impl Strategy<Value = BlockingCase> {
    let dense = || (0.0f64..4.0, 0.1f64..20.0).prop_map(|(exec, deadline)| (0.0, exec, deadline));
    let future = (0.01f64..5.0, 0.0f64..3.0, 0.0f64..2.0)
        .prop_map(|(release, exec, slack)| (release, exec, release + exec + slack));
    let pool_job = (extra(), 0.01f64..5.0, 0.0f64..3.0, 0.1f64..20.0).prop_map(
        |(extra, release, exec, deadline)| {
            let release = if extra == Extra::Future { release } else { 0.0 };
            (extra, (release, exec, deadline))
        },
    );
    (
        0.0f64..100.0,
        prop::option::of(dense()),
        prop::collection::vec(dense(), 0..5),
        future,
        prop::collection::vec(0u32..1000, 6),
        prop::collection::vec(pool_job, 0..5),
    )
        .prop_map(|(now, pinned, dense, future, keys, pool)| BlockingCase {
            now,
            pinned,
            dense,
            future,
            keys,
            pool,
        })
}

/// Checks one case: whenever [`EdfTimeline::blocked_for_good`] fires, the
/// engine rejects the queue extended by every subset of the pool (appended
/// in pool order); oracle mode answers the same without the engine.
/// Returns whether the query fired.
fn check_blocking(case: &BlockingCase) -> Result<bool, TestCaseError> {
    let now = Time::new(case.now);
    let job = |key: usize, (release, exec, deadline): Spec| {
        PlannedJob::new(
            JobKey(key as u64),
            now + Time::new(release),
            Time::new(exec),
            now + Time::new(deadline),
        )
    };
    let mut jobs = Vec::new();
    if let Some(spec) = case.pinned {
        let mut pinned = job(0, spec);
        pinned.pinned = true;
        jobs.push(pinned);
    }
    for &spec in &case.dense {
        jobs.push(job(jobs.len(), spec));
    }
    jobs.push(job(jobs.len(), case.future));
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (case.keys[i], i));
    let queue: Vec<PlannedJob> = order.into_iter().map(|i| jobs[i]).collect();

    // The pool may add a pinned job only when the queue has none.
    let mut pinned_free = case.pinned.is_none();
    let pool: Vec<PlannedJob> = case
        .pool
        .iter()
        .enumerate()
        .filter_map(|(i, &(extra, spec))| {
            let mut j = job(100 + i, spec);
            if extra == Extra::Pinned {
                if !pinned_free {
                    return None;
                }
                pinned_free = false;
                j.pinned = true;
            }
            Some(j)
        })
        .collect();
    let headroom = |d: Time| -> Time {
        pool.iter()
            .filter(|j| j.pinned || j.deadline <= d)
            .map(|j| j.exec)
            .sum()
    };

    let kind = ResourceKind::Gpu;
    let mut timeline = EdfTimeline::new(kind, now);
    let mut oracle = EdfTimeline::new(kind, now);
    oracle.set_oracle(true);
    for &j in &queue {
        timeline.insert(j);
        oracle.insert(j);
    }
    prop_assert!(
        timeline.has_future(),
        "the future job must classify as future"
    );
    let blocked = timeline.blocked_for_good(headroom);
    prop_assert_eq!(blocked, oracle.blocked_for_good(headroom));
    prop_assert_eq!(
        oracle.engine_verdicts(),
        0,
        "the query never runs the engine"
    );
    if blocked {
        let mut scratch = EdfScratch::new();
        let mut extended = Vec::with_capacity(queue.len() + pool.len());
        for subset in 0u32..1 << pool.len() {
            extended.clear();
            extended.extend_from_slice(&queue);
            extended.extend(
                (0..pool.len())
                    .filter(|&i| subset >> i & 1 == 1)
                    .map(|i| pool[i]),
            );
            prop_assert!(
                !is_schedulable_with(kind, now, &extended, &mut scratch),
                "blocked for good, yet the engine accepts the extension {:?}",
                extended
            );
        }
    }
    Ok(blocked)
}

/// Runs [`check_blocking`] over `cases` draws of `strategy` and requires the
/// query to fire on at least `min_share` of them, so the soundness check is
/// not vacuous.
fn blocking_is_sound<S>(test: &str, strategy: &S, cases: u32, min_share: f64)
where
    S: Strategy<Value = BlockingCase>,
{
    let (mut seen, mut fired) = (0u32, 0u32);
    proptest::test_runner::execute(&ProptestConfig::with_cases(cases), test, strategy, |case| {
        seen += 1;
        fired += u32::from(check_blocking(&case)?);
        Ok(())
    });
    assert!(
        f64::from(fired) >= min_share * f64::from(seen),
        "{test}: the blocking query fired on {fired} of {seen} cases"
    );
}

/// The non-preemptive blocking cut the exact search prunes with is sound on
/// exact dyadic times straddling every epsilon boundary: a queue reported
/// blocked for good is infeasible under every extension the headroom covers.
#[test]
fn blocking_cut_is_sound_on_the_lattice() {
    blocking_is_sound(
        "incremental.rs::blocking_cut_is_sound_on_the_lattice",
        &lattice_blocking_case(),
        4000,
        0.05,
    );
}

/// As above on continuous times.
#[test]
fn blocking_cut_is_sound_on_continuous_times() {
    blocking_is_sound(
        "incremental.rs::blocking_cut_is_sound_on_continuous_times",
        &continuous_blocking_case(),
        4000,
        0.05,
    );
}

/// A GPU queue holding exactly one future release, each job a `(release,
/// exec, deadline)` offset from `now`: the queue
/// [`EdfTimeline::feasible`] answers with one in-order treap walk.
#[derive(Debug, Clone)]
struct WalkCase {
    now: f64,
    pinned: Option<Spec>,
    /// Released within epsilon of `now`, so dense.
    dense: Vec<Spec>,
    future: Spec,
    /// Push-order sort keys for the queue's jobs.
    keys: Vec<u32>,
}

/// Whether a release `offset` after `now` classifies as future.
fn is_future(now: f64, offset: f64) -> bool {
    !(Time::new(now) + Time::new(offset)).released_by(Time::new(now))
}

/// The future job's release offset: at the pinned job's completion `B`
/// (anchor 0), at the completion of the first `m` dense jobs in drawn order
/// (anchor 1), or at a free `offset` (anchor 2), each shifted by `jitter`.
/// A release that would land within epsilon of `now` falls back to
/// `offset`, keeping the job future.
fn future_release(
    now: f64,
    pinned: Option<Spec>,
    dense: &[Spec],
    (anchor, m, offset, jitter): (u8, usize, f64, f64),
) -> f64 {
    let b = pinned.map_or(0.0, |(_, exec, _)| exec);
    let release = match anchor {
        0 => b + jitter,
        1 => b + dense.iter().take(m).map(|&(_, exec, _)| exec).sum::<f64>() + jitter,
        _ => offset + jitter,
    };
    if is_future(now, release) {
        release
    } else {
        offset
    }
}

/// Lattice regime: execs on the 1/8 lattice, releases and deadlines within
/// ±epsilon of lattice points, so the future release can sit on, just
/// before or just after a completion instant.
fn lattice_walk_case() -> impl Strategy<Value = WalkCase> {
    // `EPS_OFFSETS[..5]` spans -epsilon..=epsilon: all dense.
    let dense = || {
        (
            0usize..5,
            lattice(0..32),
            lattice(1..160),
            0usize..DEADLINE_EPS.len(),
        )
            .prop_map(|(e, exec, deadline, d)| (EPS_OFFSETS[e], exec, deadline + DEADLINE_EPS[d]))
    };
    let pinned = (lattice(0..32), lattice(1..160), 0usize..DEADLINE_EPS.len())
        .prop_map(|(exec, deadline, d)| (0.0, exec, deadline + DEADLINE_EPS[d]));
    let future = (
        (0u8..3, 0usize..7, lattice(1..40), 0usize..EPS_OFFSETS.len()),
        lattice(0..24),
        lattice(0..16),
        0usize..DEADLINE_EPS.len(),
    );
    (
        lattice(0..64),
        prop::option::of(pinned),
        prop::collection::vec(dense(), 0..7),
        future,
        prop::collection::vec(0u32..1000, 8),
    )
        .prop_map(
            |(now, pinned, dense, ((anchor, m, offset, e), exec, slack, d), keys)| {
                let release =
                    future_release(now, pinned, &dense, (anchor, m, offset, EPS_OFFSETS[e]));
                WalkCase {
                    now,
                    pinned,
                    dense,
                    future: (release, exec, release + exec + slack + DEADLINE_EPS[d]),
                    keys,
                }
            },
        )
}

/// Continuous regime: uniform floats, with the future release computed as
/// the same float sum the engine's completion instants are made of.
fn continuous_walk_case() -> impl Strategy<Value = WalkCase> {
    let dense = || (0.0f64..4.0, 0.1f64..20.0).prop_map(|(exec, deadline)| (0.0, exec, deadline));
    let future = ((0u8..3, 0usize..7, 0.01f64..5.0), 0.0f64..3.0, 0.0f64..2.0);
    (
        0.0f64..100.0,
        prop::option::of(dense()),
        prop::collection::vec(dense(), 0..7),
        future,
        prop::collection::vec(0u32..1000, 8),
    )
        .prop_map(
            |(now, pinned, dense, ((anchor, m, offset), exec, slack), keys)| {
                let release = future_release(now, pinned, &dense, (anchor, m, offset, 0.0));
                WalkCase {
                    now,
                    pinned,
                    dense,
                    future: (release, exec, release + exec + slack),
                    keys,
                }
            },
        )
}

/// Checks one case: on every push-order prefix the timeline's verdict (the
/// push's and a re-read `feasible()`) equals [`is_schedulable_with`], and no
/// verdict runs the engine. Returns the full queue's verdict.
fn check_walk(case: &WalkCase) -> Result<bool, TestCaseError> {
    let now = Time::new(case.now);
    let job = |key: usize, (release, exec, deadline): Spec| {
        PlannedJob::new(
            JobKey(key as u64),
            now + Time::new(release),
            Time::new(exec),
            now + Time::new(deadline),
        )
    };
    let mut jobs = Vec::new();
    if let Some(spec) = case.pinned {
        let mut pinned = job(0, spec);
        pinned.pinned = true;
        jobs.push(pinned);
    }
    for &spec in &case.dense {
        jobs.push(job(jobs.len(), spec));
    }
    jobs.push(job(jobs.len(), case.future));
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (case.keys[i], i));
    let queue: Vec<PlannedJob> = order.into_iter().map(|i| jobs[i]).collect();

    let kind = ResourceKind::Gpu;
    let mut timeline = EdfTimeline::new(kind, now);
    let mut scratch = EdfScratch::new();
    let mut engine = true;
    for k in 0..queue.len() {
        let prefix = &queue[..=k];
        let verdict = timeline.push(queue[k]).is_feasible();
        engine = is_schedulable_with(kind, now, prefix, &mut scratch);
        prop_assert_eq!(verdict, engine, "push verdict diverged on {:?}", prefix);
        prop_assert_eq!(
            timeline.feasible(),
            engine,
            "feasible() diverged on {:?}",
            prefix
        );
    }
    prop_assert!(
        timeline.has_future(),
        "the future job must classify as future"
    );
    prop_assert_eq!(
        timeline.engine_verdicts(),
        0,
        "a single future release never runs the engine"
    );
    Ok(engine)
}

/// Runs [`check_walk`] over `cases` draws of `strategy`, requiring both
/// verdicts on at least `min_share` of the full queues each, so the parity
/// check covers feasible and infeasible queues alike.
fn walk_matches_engine<S>(test: &str, strategy: &S, cases: u32, min_share: f64)
where
    S: Strategy<Value = WalkCase>,
{
    let (mut seen, mut feasible) = (0u32, 0u32);
    proptest::test_runner::execute(&ProptestConfig::with_cases(cases), test, strategy, |case| {
        seen += 1;
        feasible += u32::from(check_walk(&case)?);
        Ok(())
    });
    let share = f64::from(feasible) / f64::from(seen);
    assert!(
        share >= min_share && 1.0 - share >= min_share,
        "{test}: {feasible} of {seen} full queues feasible"
    );
}

/// The single-release walk is the engine's verdict bit for bit on exact
/// dyadic times straddling every epsilon boundary, with no engine run.
#[test]
fn single_release_walk_matches_engine_on_the_lattice() {
    walk_matches_engine(
        "incremental.rs::single_release_walk_matches_engine_on_the_lattice",
        &lattice_walk_case(),
        4000,
        0.1,
    );
}

/// As above on continuous times.
#[test]
fn single_release_walk_matches_engine_on_continuous_times() {
    walk_matches_engine(
        "incremental.rs::single_release_walk_matches_engine_on_continuous_times",
        &continuous_walk_case(),
        4000,
        0.1,
    );
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

/// Dense pushes whose deadlines take one of four values, so most land
/// inside a run of equal deadlines, and future releases (the `2ε` and
/// lattice offsets of [`eps_release`]) due at most one unit after they
/// could finish, keyed ahead of every dense job. On a GPU such a release
/// dispatches at the first completion after it, so the order inside the
/// first run of equal deadlines — a probe's slot among its peers — decides
/// whether it fits.
fn tied_op() -> impl Strategy<Value = Op> {
    (
        eps_release(),
        lattice(1..24),
        2u32..6,
        lattice(0..9),
        0u8..10,
    )
        .prop_map(|(release, exec, level, slack, sel)| match sel {
            0..=1 => Op::Undo,
            _ if release > TIME_EPSILON => Op::Push {
                release,
                exec,
                deadline: release + exec + slack,
                pinned: false,
            },
            _ => Op::Push {
                release,
                exec,
                deadline: f64::from(level) * 4.0,
                pinned: sel == 2,
            },
        })
}

/// One step of a probe episode: a push with the flag set goes through
/// `try_push`, which keeps the job only if the queue stays schedulable.
fn probe_step() -> impl Strategy<Value = (Op, bool)> {
    (
        prop_oneof![lattice_op(), eps_op(), tied_op()],
        prop_oneof![Just(false), Just(true), Just(true)],
    )
}

/// Replays `steps` on an [`EdfTimeline`], probing some pushes with
/// `try_push` and pushing the rest unconditionally, and asserts after every
/// step that the probe's answer, the retained queue and the verdict agree
/// with [`is_schedulable_with`] over the plain job list. A failed probe must
/// leave that list as it was.
fn run_probe_differential(
    kind: ResourceKind,
    now: f64,
    oracle: bool,
    steps: &[(Op, bool)],
) -> Result<(), TestCaseError> {
    let now = Time::new(now);
    let mut timeline = EdfTimeline::new(kind, now);
    timeline.set_oracle(oracle);
    let mut model: Vec<PlannedJob> = Vec::new();
    let mut scratch = EdfScratch::new();
    for (step, &(op, probe)) in steps.iter().enumerate() {
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
                job.pinned = pinned
                    && kind == ResourceKind::Gpu
                    && release == 0.0
                    && !model.iter().any(|j| j.pinned);
                model.push(job);
                let fits = is_schedulable_with(kind, now, &model, &mut scratch);
                if probe {
                    let kept = timeline.try_push(job);
                    prop_assert_eq!(kept, fits, "try_push at step {} on {:?}", step, &model);
                    if !kept {
                        model.pop();
                    }
                } else {
                    let verdict = timeline.push(job).is_feasible();
                    prop_assert_eq!(verdict, fits, "push at step {} on {:?}", step, &model);
                }
            }
            Op::Undo => {
                if model.is_empty() {
                    continue;
                }
                let popped = timeline.undo();
                prop_assert_eq!(Some(popped), model.pop(), "undo returned the wrong job");
            }
        }
        prop_assert_eq!(timeline.jobs(), &model[..]);
        prop_assert_eq!(timeline.len(), model.len());
        prop_assert_eq!(
            timeline.has_future(),
            model.iter().any(|j| !j.release.released_by(now))
        );
        prop_assert_eq!(
            timeline.feasible(),
            is_schedulable_with(kind, now, &model, &mut scratch),
            "feasible() diverged at step {} on {:?}",
            step,
            &model
        );
    }
    Ok(())
}

proptest! {
    /// Random push / `try_push` / undo episodes on both kinds, in
    /// incremental and oracle mode: every probe answers the engine's
    /// verdict, a failed one keeps nothing, and a kept one leaves a state
    /// whose later verdicts and undos stay in lockstep with the engine.
    #[test]
    fn try_push_matches_the_engine(
        now in lattice(0..64),
        steps in prop::collection::vec(probe_step(), 1..48),
        kind in prop_oneof![Just(ResourceKind::Cpu), Just(ResourceKind::Gpu)],
        oracle in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
    ) {
        run_probe_differential(kind, now, oracle, &steps)?;
    }
}
