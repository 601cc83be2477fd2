//! Single-resource EDF timeline simulation.
//!
//! One engine serves both purposes of the paper's Sec 4:
//!
//! * **feasibility** — given a candidate mapping, does every job mapped to
//!   this resource finish by its deadline? (constraints (3)–(14) of the MILP,
//!   including the preemption caused by a future-released predicted task);
//! * **execution** — between two activations of the resource manager, the
//!   simulator advances each resource's timeline to the next arrival with the
//!   very same rules.
//!
//! The rules (paper Sec 4.1): on each resource, jobs run in EDF order.
//! Preemptable resources (CPUs) use preemptive EDF; since all *real* jobs are
//! released at the activation instant, preemption only ever occurs when a
//! future-released job (the predicted task, or an arrival delayed by
//! prediction overhead) shows up mid-window — exactly the paper's model.
//! Non-preemptable resources (GPUs) use work-conserving non-preemptive EDF,
//! and a job already running there is *pinned*: it completes before anything
//! else is dispatched.
//!
//! # Engine
//!
//! The timeline is advanced event-by-event over two binary heaps: a release
//! queue ordered by release time and a ready queue ordered by
//! `(deadline, input order)`. Each dispatch decision is O(log n) instead of
//! the O(n) scan of the obvious implementation, and the heaps live in a
//! caller-supplied [`EdfScratch`] so the feasibility oracle — called once per
//! candidate placement inside the managers' inner loops — performs no
//! allocation in steady state ([`simulate_into`] / [`is_schedulable_with`]).
//! The original scan-based implementation is retained verbatim in
//! [`reference`] as a differential-testing oracle; the two engines are
//! asserted equivalent on every outcome field by the property suite in
//! `tests/properties.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtrm_platform::{ResourceKind, Time, TIME_EPSILON};

use crate::{JobOutcome, PlannedJob, Schedule};

/// Reusable state for the event-driven engine. Holding one of these across
/// calls to [`simulate_into`] / [`is_schedulable_with`] keeps the heap and
/// job-state buffers warm, so repeated feasibility checks allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct EdfScratch {
    /// Not-yet-released jobs, min-ordered by `(release, input order)`.
    release: BinaryHeap<Reverse<RelKey>>,
    /// Released, unfinished jobs, min-ordered by `(deadline, input order)`.
    ready: BinaryHeap<Reverse<ReadyKey>>,
    /// Per-job mutable state, in input order.
    live: Vec<LiveState>,
}

impl EdfScratch {
    /// Creates an empty scratch (equivalent to `EdfScratch::default()`).
    #[must_use]
    pub fn new() -> Self {
        EdfScratch::default()
    }
}

/// Release-queue key: earliest release first, ties by input order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RelKey {
    release: f64,
    idx: usize,
}

impl Eq for RelKey {}

impl Ord for RelKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.release
            .total_cmp(&other.release)
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for RelKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ready-queue key: earliest deadline first, ties by input order — the EDF
/// dispatch order of Sec 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyKey {
    deadline: Time,
    idx: usize,
}

#[derive(Debug, Clone, Copy)]
struct LiveState {
    remaining: f64,
    deadline: Time,
    executed: f64,
    started: bool,
    finish: Option<f64>,
}

/// Simulates one resource's timeline starting at `now`, up to `horizon`
/// (`None` = run until all jobs finish).
///
/// Returns one [`JobOutcome`] per input job, in input order. Jobs with
/// `release < now` are treated as released at `now`. Ties in deadline are
/// broken by input order, making the schedule deterministic.
///
/// # Panics
///
/// Panics if more than one job is pinned, if a pinned job is passed to a
/// preemptable resource (pinning is meaningless there — the job would simply
/// compete under EDF), or if any `exec` is negative.
///
/// # Examples
///
/// ```
/// use rtrm_platform::{ResourceKind, Time};
/// use rtrm_sched::{simulate, JobKey, PlannedJob};
///
/// let t = Time::new(0.0);
/// let jobs = [
///     PlannedJob::new(JobKey(0), t, Time::new(5.0), Time::new(20.0)),
///     // Released later with an earlier deadline: preempts job 0 on a CPU.
///     PlannedJob::new(JobKey(1), Time::new(2.0), Time::new(3.0), Time::new(6.0)),
/// ];
/// let schedule = simulate(ResourceKind::Cpu, t, &jobs, None);
/// assert_eq!(schedule.outcomes()[1].finish.unwrap(), Time::new(5.0));
/// assert_eq!(schedule.outcomes()[0].finish.unwrap(), Time::new(8.0));
/// ```
#[must_use]
pub fn simulate(
    kind: ResourceKind,
    now: Time,
    jobs: &[PlannedJob],
    horizon: Option<Time>,
) -> Schedule {
    let mut scratch = EdfScratch::new();
    let mut outcomes = Vec::new();
    simulate_into(kind, now, jobs, horizon, &mut scratch, &mut outcomes);
    Schedule::new(outcomes)
}

/// Allocation-free variant of [`simulate`]: runs the timeline in `scratch`
/// and replaces the contents of `out` with one [`JobOutcome`] per input job,
/// in input order. Semantics are identical to [`simulate`].
///
/// # Panics
///
/// As [`simulate`].
pub fn simulate_into(
    kind: ResourceKind,
    now: Time,
    jobs: &[PlannedJob],
    horizon: Option<Time>,
    scratch: &mut EdfScratch,
    out: &mut Vec<JobOutcome>,
) {
    validate(kind, jobs);
    run_engine(kind, now, jobs, horizon, scratch, false);
    out.clear();
    out.extend(scratch.live.iter().zip(jobs).map(|(l, j)| JobOutcome {
        key: j.key,
        executed: Time::new(l.executed),
        finish: l.finish.map(Time::new),
        started: l.started,
    }));
}

/// Returns `true` if every job finishes by its deadline when the set runs on
/// a resource of `kind` starting at `now`. This is the heuristic's
/// `IsSchedulable` test and the exact optimizer's feasibility oracle.
///
/// # Examples
///
/// ```
/// use rtrm_platform::{ResourceKind, Time};
/// use rtrm_sched::{is_schedulable, JobKey, PlannedJob};
///
/// let t = Time::new(0.0);
/// let jobs = [PlannedJob::new(JobKey(0), t, Time::new(4.0), Time::new(4.0))];
/// assert!(is_schedulable(ResourceKind::Cpu, t, &jobs));
/// ```
#[must_use]
pub fn is_schedulable(kind: ResourceKind, now: Time, jobs: &[PlannedJob]) -> bool {
    is_schedulable_with(kind, now, jobs, &mut EdfScratch::new())
}

/// Allocation-free variant of [`is_schedulable`]: runs the feasibility check
/// in `scratch`, and additionally aborts the timeline at the first deadline
/// miss instead of simulating the whole set to completion.
#[must_use]
pub fn is_schedulable_with(
    kind: ResourceKind,
    now: Time,
    jobs: &[PlannedJob],
    scratch: &mut EdfScratch,
) -> bool {
    // Fast necessary condition: no single job can fit more work than the
    // span between its release and deadline.
    for j in jobs {
        if !(j.release.max(now) + j.exec).meets(j.deadline) {
            return false;
        }
    }
    validate(kind, jobs);
    run_engine(kind, now, jobs, None, scratch, true)
}

fn validate(kind: ResourceKind, jobs: &[PlannedJob]) {
    let pinned = jobs.iter().filter(|j| j.pinned).count();
    assert!(pinned <= 1, "at most one job may be pinned per resource");
    assert!(
        pinned == 0 || kind == ResourceKind::Gpu,
        "pinning applies only to non-preemptable resources"
    );
    for j in jobs {
        assert!(j.exec >= Time::ZERO, "job exec must be non-negative");
    }
}

/// Runs the event loop. With `abort_on_miss`, returns `false` as soon as any
/// job completes past its deadline (only meaningful without a horizon, where
/// every job eventually completes); otherwise always returns `true`.
fn run_engine(
    kind: ResourceKind,
    start: Time,
    jobs: &[PlannedJob],
    horizon: Option<Time>,
    scratch: &mut EdfScratch,
    abort_on_miss: bool,
) -> bool {
    let horizon = horizon.map_or(f64::INFINITY, Time::value);
    let now = start.value();

    // A pinned job is physically occupying the resource: it is dispatched
    // ahead of everything (and outside the queues).
    let pinned = jobs.iter().position(|j| j.pinned);

    scratch.release.clear();
    scratch.ready.clear();
    scratch.live.clear();
    for (i, j) in jobs.iter().enumerate() {
        let release = j.release.max(start).value();
        scratch.live.push(LiveState {
            remaining: j.exec.value(),
            deadline: j.deadline,
            executed: 0.0,
            started: false,
            finish: None,
        });
        if Some(i) == pinned {
            continue;
        }
        // Same epsilon-tolerant predicate as `Time::released_by`: a release
        // within TIME_EPSILON of `now` is ready, and the timeline's
        // dense/future classification and the managers' defer logic key on
        // the identical comparison.
        if release <= now + TIME_EPSILON {
            scratch.ready.push(Reverse(ReadyKey {
                deadline: j.deadline,
                idx: i,
            }));
        } else {
            scratch.release.push(Reverse(RelKey { release, idx: i }));
        }
    }

    match kind {
        ResourceKind::Cpu => run_preemptive(now, horizon, scratch, abort_on_miss),
        ResourceKind::Gpu => run_non_preemptive(now, horizon, scratch, abort_on_miss, pinned),
    }
}

/// Moves every job released by `now` from the release queue to the ready
/// queue.
fn drain_released(scratch: &mut EdfScratch, now: f64) {
    while let Some(&Reverse(k)) = scratch.release.peek() {
        if k.release > now + TIME_EPSILON {
            break;
        }
        scratch.release.pop();
        scratch.ready.push(Reverse(ReadyKey {
            deadline: scratch.live[k.idx].deadline,
            idx: k.idx,
        }));
    }
}

/// Advances job `i` from `now` to `until`, marking completion (zero-length
/// jobs finish — and count as started — at dispatch). Returns `true` if the
/// job completed.
fn advance_job(live: &mut LiveState, now: &mut f64, until: f64) -> bool {
    let dt = (until - *now).min(live.remaining).max(0.0);
    if dt > 0.0 {
        live.started = true;
        live.executed += dt;
        live.remaining -= dt;
        *now += dt;
    }
    if live.remaining <= TIME_EPSILON {
        live.remaining = 0.0;
        live.started = true;
        live.finish = Some(*now);
        return true;
    }
    false
}

/// Dispatches a job with `exec` units of work at `*now` and runs it with no
/// horizon, with the non-preemptive engine's own arithmetic. Returns `false`
/// if rounding leaves the job unfinished, which ends the engine's run with
/// an accepting verdict.
pub(crate) fn run_to_completion(now: &mut f64, exec: f64) -> bool {
    let mut live = LiveState {
        remaining: exec,
        deadline: Time::ZERO,
        executed: 0.0,
        started: false,
        finish: None,
    };
    // The engine's `horizon.min(now + remaining)` with an infinite horizon.
    let until = *now + exec;
    advance_job(&mut live, now, until)
}

fn run_preemptive(
    mut now: f64,
    horizon: f64,
    scratch: &mut EdfScratch,
    abort_on_miss: bool,
) -> bool {
    loop {
        if now >= horizon - TIME_EPSILON {
            break;
        }
        let Some(&Reverse(top)) = scratch.ready.peek() else {
            // Idle: jump to the next release, if any.
            match scratch.release.peek() {
                Some(&Reverse(k)) if k.release < horizon => {
                    now = k.release;
                    drain_released(scratch, now);
                    continue;
                }
                _ => break,
            }
        };
        // Run the EDF job until it finishes, the horizon, or the next
        // release (which may preempt it). A partially-run job keeps its
        // heap position: its key `(deadline, input order)` never changes.
        let i = top.idx;
        let next_release = scratch
            .release
            .peek()
            .map_or(f64::INFINITY, |&Reverse(k)| k.release);
        let until = horizon
            .min(now + scratch.live[i].remaining)
            .min(next_release);
        if advance_job(&mut scratch.live[i], &mut now, until) {
            scratch.ready.pop();
            if abort_on_miss && !Time::new(now).meets(scratch.live[i].deadline) {
                return false;
            }
        }
        drain_released(scratch, now);
    }
    true
}

fn run_non_preemptive(
    mut now: f64,
    horizon: f64,
    scratch: &mut EdfScratch,
    abort_on_miss: bool,
    pinned: Option<usize>,
) -> bool {
    // Dispatch the pinned job to completion before anything else.
    if let Some(i) = pinned {
        if now >= horizon - TIME_EPSILON {
            return true;
        }
        let until = horizon.min(now + scratch.live[i].remaining);
        if !advance_job(&mut scratch.live[i], &mut now, until) {
            // Hit the horizon mid-job: it stays on the resource; nothing
            // else runs.
            return true;
        }
        if abort_on_miss && !Time::new(now).meets(scratch.live[i].deadline) {
            return false;
        }
        drain_released(scratch, now);
    }

    loop {
        if now >= horizon - TIME_EPSILON {
            break;
        }
        let Some(Reverse(top)) = scratch.ready.pop() else {
            match scratch.release.peek() {
                Some(&Reverse(k)) if k.release < horizon => {
                    now = k.release;
                    drain_released(scratch, now);
                    continue;
                }
                _ => break,
            }
        };
        // Non-preemptive: once dispatched, run to completion (or horizon).
        let i = top.idx;
        let until = horizon.min(now + scratch.live[i].remaining);
        if !advance_job(&mut scratch.live[i], &mut now, until) {
            // Hit the horizon mid-job: nothing else runs.
            break;
        }
        if abort_on_miss && !Time::new(now).meets(scratch.live[i].deadline) {
            return false;
        }
        drain_released(scratch, now);
    }
    true
}

pub mod reference {
    //! The original O(n²) scan-based EDF engine, kept verbatim as a
    //! differential-testing oracle for the event-driven engine (and as the
    //! baseline for the `edf_is_schedulable` benchmark sweep). Use the
    //! crate-root [`simulate`](super::simulate) /
    //! [`is_schedulable`](super::is_schedulable) in production code.

    use rtrm_platform::{ResourceKind, Time, TIME_EPSILON};

    use crate::{JobOutcome, PlannedJob, Schedule};

    /// Scan-based counterpart of [`simulate`](super::simulate); identical
    /// semantics, O(n) work per dispatch event.
    ///
    /// # Panics
    ///
    /// As [`simulate`](super::simulate).
    #[must_use]
    pub fn simulate(
        kind: ResourceKind,
        now: Time,
        jobs: &[PlannedJob],
        horizon: Option<Time>,
    ) -> Schedule {
        super::validate(kind, jobs);
        match kind {
            ResourceKind::Cpu => simulate_preemptive(now, jobs, horizon),
            ResourceKind::Gpu => simulate_non_preemptive(now, jobs, horizon),
        }
    }

    /// Scan-based counterpart of [`is_schedulable`](super::is_schedulable).
    #[must_use]
    pub fn is_schedulable(kind: ResourceKind, now: Time, jobs: &[PlannedJob]) -> bool {
        for j in jobs {
            if !(j.release.max(now) + j.exec).meets(j.deadline) {
                return false;
            }
        }
        simulate(kind, now, jobs, None).all_meet_deadlines(jobs)
    }

    struct Live {
        release: f64,
        remaining: f64,
        deadline: Time,
        outcome: JobOutcome,
    }

    fn make_live(now: Time, jobs: &[PlannedJob]) -> Vec<Live> {
        jobs.iter()
            .map(|j| Live {
                release: j.release.max(now).value(),
                remaining: j.exec.value(),
                deadline: j.deadline,
                outcome: JobOutcome {
                    key: j.key,
                    executed: Time::ZERO,
                    finish: None,
                    started: false,
                },
            })
            .collect()
    }

    /// Picks the released, unfinished job with the earliest deadline
    /// (ties: input order). Returns its index.
    fn pick_edf(live: &[Live], now: f64) -> Option<usize> {
        live.iter()
            .enumerate()
            .filter(|(_, j)| j.outcome.finish.is_none() && j.release <= now + TIME_EPSILON)
            .min_by(|(ai, a), (bi, b)| a.deadline.cmp(&b.deadline).then(ai.cmp(bi)))
            .map(|(i, _)| i)
    }

    /// Earliest release among unfinished, not-yet-released jobs.
    fn next_release(live: &[Live], now: f64) -> Option<f64> {
        live.iter()
            .filter(|j| j.outcome.finish.is_none() && j.release > now + TIME_EPSILON)
            .map(|j| j.release)
            .min_by(f64::total_cmp)
    }

    fn run_job(job: &mut Live, now: &mut f64, until: f64) {
        let dt = (until - *now).min(job.remaining).max(0.0);
        if dt > 0.0 {
            job.outcome.started = true;
            job.outcome.executed += Time::new(dt);
            job.remaining -= dt;
            *now += dt;
        }
        if job.remaining <= TIME_EPSILON {
            job.remaining = 0.0;
            // Zero-length jobs count as finished (and started) at dispatch.
            job.outcome.started = true;
            job.outcome.finish = Some(Time::new(*now));
        }
    }

    fn simulate_preemptive(start: Time, jobs: &[PlannedJob], horizon: Option<Time>) -> Schedule {
        let mut live = make_live(start, jobs);
        let horizon = horizon.map_or(f64::INFINITY, Time::value);
        let mut now = start.value();

        loop {
            if now >= horizon - TIME_EPSILON {
                break;
            }
            let Some(current) = pick_edf(&live, now) else {
                // Idle: jump to the next release, if any.
                match next_release(&live, now) {
                    Some(r) if r < horizon => {
                        now = r;
                        continue;
                    }
                    _ => break,
                }
            };
            // Run the EDF job until it finishes, the horizon, or the next
            // release (which may preempt it).
            let until = horizon
                .min(now + live[current].remaining)
                .min(next_release(&live, now).unwrap_or(f64::INFINITY));
            run_job(&mut live[current], &mut now, until);
        }
        Schedule::new(live.into_iter().map(|j| j.outcome).collect())
    }

    fn simulate_non_preemptive(
        start: Time,
        jobs: &[PlannedJob],
        horizon: Option<Time>,
    ) -> Schedule {
        let mut live = make_live(start, jobs);
        let horizon = horizon.map_or(f64::INFINITY, Time::value);
        let mut now = start.value();

        // A pinned job is physically occupying the resource: dispatch it
        // first.
        let mut forced = jobs.iter().position(|j| j.pinned);

        loop {
            if now >= horizon - TIME_EPSILON {
                break;
            }
            let current = match forced.take() {
                Some(i) if live[i].outcome.finish.is_none() => i,
                _ => match pick_edf(&live, now) {
                    Some(i) => i,
                    None => match next_release(&live, now) {
                        Some(r) if r < horizon => {
                            now = r;
                            continue;
                        }
                        _ => break,
                    },
                },
            };
            // Non-preemptive: once dispatched, run to completion (or
            // horizon).
            let until = horizon.min(now + live[current].remaining);
            run_job(&mut live[current], &mut now, until);
            if live[current].outcome.finish.is_none() {
                // Hit the horizon mid-job: it stays on the resource;
                // remember so a resumed simulation would pin it. Nothing
                // else runs.
                break;
            }
        }
        Schedule::new(live.into_iter().map(|j| j.outcome).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobKey;

    fn j(key: u64, release: f64, exec: f64, deadline: f64) -> PlannedJob {
        PlannedJob::new(
            JobKey(key),
            Time::new(release),
            Time::new(exec),
            Time::new(deadline),
        )
    }

    const T0: Time = Time::ZERO;

    #[test]
    fn cpu_edf_orders_by_deadline() {
        let jobs = [j(0, 0.0, 4.0, 100.0), j(1, 0.0, 2.0, 5.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, None);
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(2.0));
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(6.0));
        assert!(s.all_meet_deadlines(&jobs));
    }

    #[test]
    fn cpu_future_release_preempts() {
        let jobs = [j(0, 0.0, 10.0, 30.0), j(1, 3.0, 2.0, 6.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, None);
        // Job 0 runs [0,3), job 1 preempts [3,5), job 0 resumes [5,12).
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(5.0));
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(12.0));
    }

    #[test]
    fn cpu_later_deadline_does_not_preempt() {
        let jobs = [j(0, 0.0, 10.0, 11.0), j(1, 3.0, 2.0, 50.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, None);
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(10.0));
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(12.0));
    }

    #[test]
    fn gpu_never_preempts() {
        let jobs = [j(0, 0.0, 10.0, 30.0), j(1, 3.0, 2.0, 9.0)];
        let s = simulate(ResourceKind::Gpu, T0, &jobs, None);
        // Job 1 must wait for job 0 even though its deadline is earlier.
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(10.0));
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(12.0));
        assert!(!s.all_meet_deadlines(&jobs));
    }

    #[test]
    fn gpu_pinned_runs_first() {
        let mut running = j(0, 0.0, 4.0, 100.0);
        running.pinned = true;
        let urgent = j(1, 0.0, 1.0, 2.0);
        let s = simulate(ResourceKind::Gpu, T0, &[running, urgent], None);
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(4.0));
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(5.0));
    }

    #[test]
    fn gpu_dispatch_is_edf_among_released() {
        let jobs = [j(0, 0.0, 3.0, 50.0), j(1, 0.0, 3.0, 10.0)];
        let s = simulate(ResourceKind::Gpu, T0, &jobs, None);
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(3.0));
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(6.0));
    }

    #[test]
    fn horizon_truncates_execution() {
        let jobs = [j(0, 0.0, 10.0, 30.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, Some(Time::new(4.0)));
        let o = s.outcomes()[0];
        assert_eq!(o.executed, Time::new(4.0));
        assert!(o.finish.is_none());
        assert!(o.started);
    }

    #[test]
    fn idle_gap_before_future_release() {
        let jobs = [j(0, 5.0, 2.0, 10.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, None);
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(7.0));
    }

    #[test]
    fn horizon_before_release_executes_nothing() {
        let jobs = [j(0, 5.0, 2.0, 10.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, Some(Time::new(3.0)));
        assert_eq!(s.outcomes()[0].executed, Time::ZERO);
        assert!(!s.outcomes()[0].started);
    }

    #[test]
    fn empty_job_set() {
        let s = simulate(ResourceKind::Cpu, T0, &[], None);
        assert!(s.outcomes().is_empty());
        assert_eq!(s.makespan(), None);
    }

    #[test]
    fn zero_exec_finishes_at_release() {
        let jobs = [j(0, 2.0, 0.0, 10.0)];
        let s = simulate(ResourceKind::Gpu, T0, &jobs, None);
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(2.0));
    }

    #[test]
    fn deadline_tie_broken_by_input_order() {
        let jobs = [j(7, 0.0, 2.0, 10.0), j(3, 0.0, 2.0, 10.0)];
        let s = simulate(ResourceKind::Cpu, T0, &jobs, None);
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(2.0));
        assert_eq!(s.outcomes()[1].finish.unwrap(), Time::new(4.0));
    }

    #[test]
    fn is_schedulable_quick_reject() {
        // Deadline shorter than exec: infeasible anywhere.
        assert!(!is_schedulable(
            ResourceKind::Cpu,
            T0,
            &[j(0, 0.0, 5.0, 4.0)]
        ));
    }

    #[test]
    fn is_schedulable_accepts_exact_fit() {
        let jobs = [j(0, 0.0, 4.0, 4.0), j(1, 0.0, 3.0, 7.0)];
        assert!(is_schedulable(ResourceKind::Cpu, T0, &jobs));
    }

    #[test]
    fn nonzero_start_time() {
        let t = Time::new(100.0);
        let jobs = [j(0, 0.0, 2.0, 103.0)]; // release clamps to `now`
        let s = simulate(ResourceKind::Cpu, t, &jobs, None);
        assert_eq!(s.outcomes()[0].finish.unwrap(), Time::new(102.0));
    }

    #[test]
    #[should_panic(expected = "at most one job may be pinned")]
    fn two_pinned_jobs_rejected() {
        let mut a = j(0, 0.0, 1.0, 5.0);
        let mut b = j(1, 0.0, 1.0, 5.0);
        a.pinned = true;
        b.pinned = true;
        let _ = simulate(ResourceKind::Gpu, T0, &[a, b], None);
    }

    #[test]
    #[should_panic(expected = "non-preemptable resources")]
    fn pinned_on_cpu_rejected() {
        let mut a = j(0, 0.0, 1.0, 5.0);
        a.pinned = true;
        let _ = simulate(ResourceKind::Cpu, T0, &[a], None);
    }

    #[test]
    fn gpu_horizon_mid_job() {
        let jobs = [j(0, 0.0, 10.0, 30.0), j(1, 0.0, 1.0, 40.0)];
        let s = simulate(ResourceKind::Gpu, T0, &jobs, Some(Time::new(4.0)));
        assert_eq!(s.outcomes()[0].executed, Time::new(4.0));
        assert_eq!(s.outcomes()[1].executed, Time::ZERO);
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let mut scratch = EdfScratch::new();
        let mut out = Vec::new();
        let jobs_a = [j(0, 0.0, 4.0, 100.0), j(1, 0.0, 2.0, 5.0)];
        simulate_into(ResourceKind::Cpu, T0, &jobs_a, None, &mut scratch, &mut out);
        assert_eq!(out[1].finish.unwrap(), Time::new(2.0));
        // Different job set, same scratch: no state may leak.
        let jobs_b = [j(5, 5.0, 2.0, 10.0)];
        simulate_into(ResourceKind::Cpu, T0, &jobs_b, None, &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].finish.unwrap(), Time::new(7.0));
        assert!(is_schedulable_with(
            ResourceKind::Cpu,
            T0,
            &jobs_a,
            &mut scratch
        ));
        assert!(!is_schedulable_with(
            ResourceKind::Gpu,
            T0,
            &[j(0, 0.0, 10.0, 30.0), j(1, 3.0, 2.0, 9.0)],
            &mut scratch
        ));
    }

    #[test]
    fn is_schedulable_with_matches_simulate_verdict() {
        // A future release preempting mid-window: schedulable set.
        let jobs = [j(0, 0.0, 10.0, 30.0), j(1, 3.0, 2.0, 6.0)];
        let mut scratch = EdfScratch::new();
        assert!(is_schedulable_with(
            ResourceKind::Cpu,
            T0,
            &jobs,
            &mut scratch
        ));
        assert!(simulate(ResourceKind::Cpu, T0, &jobs, None).all_meet_deadlines(&jobs));
        // Tighten job 0's deadline so the preemption makes it miss.
        let jobs = [j(0, 0.0, 10.0, 11.0), j(1, 3.0, 2.0, 6.0)];
        assert!(!is_schedulable_with(
            ResourceKind::Cpu,
            T0,
            &jobs,
            &mut scratch
        ));
        assert!(!simulate(ResourceKind::Cpu, T0, &jobs, None).all_meet_deadlines(&jobs));
    }
}
