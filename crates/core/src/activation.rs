//! The resource-manager interface: activations, plans, and decisions.

use serde::{Deserialize, Serialize};

use rtrm_platform::{Energy, Platform, PlatformIndex, ResourceId, ResourceKind, TaskCatalog, Time};
use rtrm_sched::{simulate_into, EdfScratch, EdfTimeline, JobKey, JobOutcome, PlannedJob};

use crate::cost::Candidate;
use crate::exact::ExactBuffers;
use crate::prune::{CandidateTable, PruneStats};
use crate::view::JobView;

/// Everything the resource manager sees when it is activated by an arrival
/// (the paper's Sec 4.1): the current time, the platform, the set of active
/// tasks, the arriving task, and — when prediction is enabled — the phantom
/// task for the predicted next request.
#[derive(Debug, Clone, Copy)]
pub struct Activation<'a> {
    /// The activation instant `t`.
    pub now: Time,
    /// The platform.
    pub platform: &'a Platform,
    /// The task catalog.
    pub catalog: &'a TaskCatalog,
    /// Admitted, unfinished tasks (with their placements).
    pub active: &'a [JobView],
    /// The task triggered by the arriving request. Its `release` may lie
    /// after `now` when prediction overhead is charged (Sec 5.5).
    pub arriving: JobView,
    /// Phantom tasks for the predicted next requests, nearest first. Empty
    /// when prediction is off; one element reproduces the paper; more give
    /// multi-step lookahead (an extension, see `ext_lookahead`).
    pub predicted: &'a [JobView],
}

impl Activation<'_> {
    /// The paper's time window K̄: the latest `t_left` over all tasks the
    /// manager plans (active + arriving + predicted).
    #[must_use]
    pub fn window(&self) -> Time {
        self.jobs_with_prediction()
            .map(|j| j.time_left(self.now))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// All jobs of S̄ including every phantom: active tasks first, then the
    /// arriving task, then the phantoms.
    pub fn jobs_with_prediction(&self) -> impl Iterator<Item = &JobView> {
        self.jobs_with_phantoms(self.predicted.len())
    }

    /// Active tasks, the arriving task, and the first `k` phantoms.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of phantoms.
    pub fn jobs_with_phantoms(&self, k: usize) -> impl Iterator<Item = &JobView> {
        self.active
            .iter()
            .chain(std::iter::once(&self.arriving))
            .chain(self.predicted[..k].iter())
    }

    /// All real jobs (active + arriving), excluding the phantom.
    pub fn jobs_without_prediction(&self) -> impl Iterator<Item = &JobView> {
        self.active.iter().chain(std::iter::once(&self.arriving))
    }
}

/// The placement the manager chose for one real task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Which task.
    pub key: JobKey,
    /// Where it goes.
    pub resource: ResourceId,
    /// `true` if the task's progress is discarded and it restarts from
    /// scratch (GPU abort).
    pub restart: bool,
    /// DVFS speed level the placement runs at (`1.0` without frequency
    /// scaling).
    pub speed: f64,
}

/// The outcome of one manager activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// `true` if the arriving task was admitted. When `false`, `assignments`
    /// is empty and the previous plan remains in force (the paper rejects
    /// the arriving task and changes nothing).
    pub admitted: bool,
    /// New placements for every real task (active + arriving), in the order
    /// they appeared in the activation. Empty on rejection.
    pub assignments: Vec<Assignment>,
    /// The optimization objective of the chosen plan: not-yet-consumed
    /// energy plus migration overheads, including the phantom task if the
    /// plan honoured it (the paper's objective).
    pub objective: Energy,
    /// `true` if the chosen plan also accommodates the predicted task;
    /// `false` if the fallback without prediction was used (Sec 4.1) or
    /// prediction was off.
    pub used_prediction: bool,
    /// Search effort (branch & bound nodes, or heuristic iterations) of the
    /// fallback-ladder rung that produced the plan — not of the whole
    /// activation: nodes spent by higher rungs that failed before it are not
    /// counted, and a rejection reports 0.
    pub nodes: u64,
    /// Planned start times on the predicted task's *non-preemptable*
    /// resource (empty otherwise). The paper's manager decides "the moment
    /// in time at which to schedule the start" of each task (Sec 2); on a
    /// GPU that plan includes waiting for the predicted task's slot, which
    /// work-conserving dispatch would destroy. The simulator holds each
    /// listed job back to its planned start until the next activation
    /// replans.
    pub start_gates: Vec<(JobKey, Time)>,
    /// Fallback-ladder rungs whose solver hit its wall-clock budget during
    /// this activation (0 unless an anytime budget is configured).
    pub solver_timeouts: u32,
    /// `true` when the plan came from a rung *below* one that timed out —
    /// i.e. the decision was degraded by solver latency, not by genuine
    /// infeasibility of the higher rungs (the paper's normal Sec 4.1
    /// fallback is not degradation).
    pub degraded: bool,
}

impl Decision {
    /// The rejection decision: nothing changes.
    #[must_use]
    pub fn reject() -> Self {
        Decision {
            admitted: false,
            assignments: Vec::new(),
            objective: Energy::ZERO,
            used_prediction: false,
            nodes: 0,
            start_gates: Vec::new(),
            solver_timeouts: 0,
            degraded: false,
        }
    }
}

/// A resource-management policy: decides mapping (and implicitly, through
/// per-resource EDF, scheduling) at every activation.
pub trait ResourceManager {
    /// A short human-readable policy name ("heuristic", "milp", ...).
    fn name(&self) -> &str;

    /// Plans the activation: either admits the arriving task with a full set
    /// of assignments, or rejects it (leaving the previous plan in force).
    ///
    /// Implementations must follow the paper's fallback rule: if no feasible
    /// plan honours the predicted task, retry without it before rejecting.
    fn decide(&mut self, activation: &Activation<'_>) -> Decision;

    /// Like [`decide`](ResourceManager::decide), but planning inside a
    /// caller-held [`TimelinePool`] so timelines and scratch buffers stay
    /// warm across activations (and across traces, when the caller
    /// simulates a batch).
    ///
    /// The decision is identical to [`decide`](ResourceManager::decide) —
    /// pools carry no plan state, only reusable allocations. The default
    /// implementation ignores the pool; managers
    /// with a hot placement search ([`HeuristicRm`](crate::HeuristicRm),
    /// [`ExactRm`](crate::ExactRm), [`MilpRm`](crate::MilpRm)) override it.
    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        let _ = pool;
        self.decide(activation)
    }

    /// Sets the per-decision wall-clock budget in seconds (`None` removes
    /// it), effective from the next [`decide`](ResourceManager::decide).
    ///
    /// This is the overload-control knob of the anytime fallback ladder: a
    /// caller watching its backlog shrinks the budget toward `Some(0.0)`,
    /// which forces every rung to expire immediately and degrades each
    /// decision to the heuristic floor — bounded decide latency instead of
    /// an unbounded queue. Managers without an anytime solver ignore it
    /// (the default); [`MilpRm`](crate::MilpRm) and
    /// [`ExactRm`](crate::ExactRm) honour it.
    fn set_wall_clock(&mut self, budget: Option<f64>) {
        let _ = budget;
    }
}

/// One persistent [`EdfTimeline`] per resource, reset lazily per builder,
/// with the scratch buffers of the reservation-gate replays: everything one
/// [`PlanBuilder`] plans in.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimelineSet {
    /// When `true`, timelines run in oracle mode: every feasibility probe is
    /// a from-scratch engine run — the pre-incremental baseline, kept
    /// callable for benchmarks and differential tests.
    oracle: bool,
    /// One timeline per resource, reset (not reallocated) per builder.
    timelines: Vec<EdfTimeline>,
    /// Outcome buffer for [`PlanBuilder::reservation_gates`].
    outcomes: Vec<JobOutcome>,
    /// EDF engine state for the gate replays.
    edf: EdfScratch,
    /// Builder generation. A timeline is only reset (and only *iterated* by
    /// whole-plan reads) when its `touched_epoch` entry matches the current
    /// epoch — so a builder over a 512-resource platform that places jobs on
    /// a handful of resources does O(touched) work, not O(platform).
    epoch: u64,
    /// Per-resource epoch of the last touch. `0` = never touched (epochs
    /// start at 1).
    touched_epoch: Vec<u64>,
    /// Resources touched by the current builder, in first-touch order — the
    /// shard the whole-plan reads iterate.
    touched: Vec<ResourceId>,
}

impl TimelineSet {
    fn engine_verdicts(&self) -> u64 {
        self.timelines
            .iter()
            .map(EdfTimeline::engine_verdicts)
            .sum()
    }
}

/// Reusable state backing [`PlanBuilder`]s: one persistent [`EdfTimeline`]
/// per resource plus scratch buffers for the reservation-gate replays.
///
/// A manager threads one pool through every [`PlanBuilder::new`] of an
/// activation — in particular through all rungs of the phantom-count
/// fallback ladder — so timeline allocations are shared across the whole
/// placement search instead of being rebuilt per rung.
///
/// Pools may also outlive a single activation: a caller that simulates many
/// traces can hold one warm pool per worker and pass it to
/// [`ResourceManager::decide_with_pool`] on every activation, eliminating
/// the steady-state timeline/buffer allocations. A pool carries no
/// verdicts: [`PlanBuilder::new`] resets every timeline it touches.
#[derive(Debug, Clone, Default)]
pub struct TimelinePool {
    /// The timelines every [`PlanBuilder::new`] plans in.
    pub(crate) plans: TimelineSet,
    /// A second set, in which [`ExactRm`](crate::ExactRm) plans a rung's
    /// heuristic seed while the rung's own search holds `plans`.
    pub(crate) seeds: TimelineSet,
    /// Heuristic seeds the exact managers planned, cumulative.
    pub(crate) seeds_planned: u64,
    /// Ranked placement rows for fresh jobs, installed per run via
    /// [`ensure_index`](TimelinePool::ensure_index); `None` falls back to
    /// per-decide row materialization (identical decisions).
    index: Option<PlatformIndex>,
    /// Recycled per-decide candidate table for the pruned decide path.
    table: CandidateTable,
    /// Recycled rows and per-rung buffers of the exact search.
    pub(crate) exact: ExactBuffers,
}

impl TimelinePool {
    /// Creates an empty pool (incremental feasibility, the default).
    #[must_use]
    pub fn new() -> Self {
        TimelinePool::default()
    }

    /// Switches the pool between incremental feasibility (the default,
    /// `false`) and the from-scratch engine baseline (`true`).
    /// Managers that accept an external pool
    /// ([`ResourceManager::decide_with_pool`]) call this on every activation
    /// so the pool's mode always matches the manager's own
    /// `oracle_feasibility` flag, whichever pool it is handed.
    pub fn set_oracle(&mut self, oracle: bool) {
        self.plans.oracle = oracle;
        self.seeds.oracle = oracle;
    }

    /// The per-resource timelines currently held by the pool (shorter than
    /// the platform until the first [`PlanBuilder::new`] sizes it).
    #[must_use]
    pub fn timelines(&self) -> &[EdfTimeline] {
        &self.plans.timelines
    }

    /// Total feasibility verdicts the pool's timelines answered with the
    /// from-scratch engine instead of the sorted arrays, the exact search's
    /// seed timelines included: 0 outside oracle mode. Diagnostics: tests
    /// assert that no probe — phantoms and delayed arrivals included, on
    /// either resource kind — routes through the engine.
    #[must_use]
    pub fn engine_verdicts(&self) -> u64 {
        self.plans.engine_verdicts() + self.seeds.engine_verdicts()
    }

    /// Heuristic seeds [`ExactRm`](crate::ExactRm) planned in this pool,
    /// cumulative: one per rung whose search outlived its first descent
    /// without an incumbent (see [`ExactRm::warm_start`](crate::ExactRm)).
    /// Not part of [`prune_stats`](TimelinePool::prune_stats), which counts
    /// the decide's own table only.
    #[must_use]
    pub fn seeds_planned(&self) -> u64 {
        self.seeds_planned
    }

    /// Installs (or refreshes) the [`PlatformIndex`] for this world,
    /// rebuilding only when the cached index's
    /// [fingerprint](PlatformIndex::world_fingerprint) no longer matches —
    /// callers invoke this once per simulation run, so a warm pool carried
    /// across traces (or across whole sweep cells with different worlds)
    /// never serves stale rows.
    pub fn ensure_index(&mut self, platform: &Platform, catalog: &TaskCatalog) {
        let fingerprint = PlatformIndex::world_fingerprint(platform, catalog);
        if self
            .index
            .as_ref()
            .is_none_or(|ix| ix.fingerprint() != fingerprint)
        {
            self.index = Some(PlatformIndex::build(platform, catalog));
        }
    }

    /// Drops the cached [`PlatformIndex`]; subsequent decides materialize
    /// every candidate row through the cost model (identical decisions).
    pub fn clear_index(&mut self) {
        self.index = None;
    }

    /// The cached [`PlatformIndex`], if one is installed.
    #[must_use]
    pub fn index(&self) -> Option<&PlatformIndex> {
        self.index.as_ref()
    }

    /// Cumulative pruned-path behaviour counters (table rebuilds, row
    /// storage kinds, shortlist widenings) of the decide's own table; the
    /// exact managers' seed and floor scans are not counted.
    #[must_use]
    pub fn prune_stats(&self) -> PruneStats {
        self.table.stats()
    }

    /// Moves the recycled candidate table out of the pool for the duration
    /// of one decide (so the table and the pool's timelines can be borrowed
    /// independently); return it with
    /// [`restore_table`](TimelinePool::restore_table).
    pub(crate) fn take_table(&mut self) -> CandidateTable {
        std::mem::take(&mut self.table)
    }

    /// Moves the cached index out alongside the table; return it with
    /// [`restore_index`](TimelinePool::restore_index).
    pub(crate) fn take_index(&mut self) -> Option<PlatformIndex> {
        self.index.take()
    }

    /// Returns the table taken at the start of a decide.
    pub(crate) fn restore_table(&mut self, table: CandidateTable) {
        self.table = table;
    }

    /// Returns the index moved out by
    /// [`take_index`](TimelinePool::take_index).
    pub(crate) fn restore_index(&mut self, index: Option<PlatformIndex>) {
        if self.index.is_none() {
            self.index = index;
        }
    }
}

/// A partial plan under construction: one persistent [`EdfTimeline`] per
/// resource. Shared by the heuristic and the exact optimizer.
///
/// A placement attempt ([`try_place`](PlanBuilder::try_place)) probes first:
/// for a dense candidate — the common case — it scans the retained,
/// deadline-sorted timeline once with the job merged in at its slot,
/// instead of re-simulating the whole queue. A failed probe moves nothing;
/// a job that fits is committed at the index the scan found, and
/// backtracking ([`unplace_last`](PlanBuilder::unplace_last)) removes it
/// again by that recorded index, with no search. Queues containing
/// future-released jobs (phantoms, delayed arrivals) stay incremental:
/// the timeline answers a preemptable one with a per-release-segment
/// demand-criterion sweep, and a non-preemptable one with a release-merge
/// walk of its sorted array that replays the engine's dispatch order, so
/// the scheduling anomaly is decided exactly without running the engine.
/// Committing ([`place`](PlanBuilder::place)) computes no verdict.
#[derive(Debug)]
pub struct PlanBuilder<'a> {
    activation: &'a Activation<'a>,
    set: &'a mut TimelineSet,
}

impl<'a> PlanBuilder<'a> {
    /// Creates an empty plan for the activation's platform, reusing the
    /// pool's timelines and buffers.
    ///
    /// O(1) amortized in the platform size: timelines are reset *lazily*, on
    /// first touch by this builder (the epoch scheme), so a builder that
    /// probes a handful of shortlisted resources never walks the other
    /// hundreds — untouched resources are by definition empty, hence
    /// trivially schedulable, and the whole-plan reads
    /// ([`all_schedulable`](PlanBuilder::all_schedulable),
    /// [`reservation_gates`](PlanBuilder::reservation_gates)) iterate only
    /// the touched shard.
    #[must_use]
    pub fn new(activation: &'a Activation<'a>, pool: &'a mut TimelinePool) -> Self {
        PlanBuilder::in_set(activation, &mut pool.plans)
    }

    /// Like [`new`](PlanBuilder::new), in one given timeline set of a pool.
    pub(crate) fn in_set(activation: &'a Activation<'a>, set: &'a mut TimelineSet) -> Self {
        while set.timelines.len() < activation.platform.len() {
            set.timelines
                .push(EdfTimeline::new(ResourceKind::Cpu, activation.now));
        }
        if set.touched_epoch.len() < set.timelines.len() {
            set.touched_epoch.resize(set.timelines.len(), 0);
        }
        set.epoch += 1;
        set.touched.clear();
        PlanBuilder { activation, set }
    }

    /// Resets `r`'s timeline on this builder's first touch of it and tracks
    /// it in the touched shard; every timeline access routes through here.
    fn prepare(&mut self, r: ResourceId) -> &mut EdfTimeline {
        let i = r.index();
        if self.set.touched_epoch[i] != self.set.epoch {
            self.set.touched_epoch[i] = self.set.epoch;
            self.set.touched.push(r);
            let timeline = &mut self.set.timelines[i];
            timeline.reset(
                self.activation.platform.resource(r).kind(),
                self.activation.now,
            );
            timeline.set_oracle(self.set.oracle);
        }
        &mut self.set.timelines[i]
    }

    /// The [`PlannedJob`] a (job, candidate) pair contributes to a resource
    /// queue.
    #[must_use]
    pub fn planned_job(&self, job: &JobView, candidate: &Candidate) -> PlannedJob {
        PlannedJob {
            key: job.key,
            release: job.release.max(self.activation.now),
            exec: candidate.exec,
            deadline: job.deadline,
            pinned: candidate.pinned,
        }
    }

    /// Places `job` via `candidate` if that keeps the resource's queue
    /// schedulable (the heuristic's `IsSchedulable` followed by the commit)
    /// and returns whether it did: one [`EdfTimeline::try_push`]. A dense
    /// job on a queue the demand scan decides is probed first — one scan of
    /// the sorted queue with the job merged in — and committed at the index
    /// the scan found, so a failed attempt moves nothing. Other attempts
    /// push, read the verdict (one release-merge walk of the sorted queue
    /// on a non-preemptable queue holding future releases) and undo on a
    /// failure.
    #[must_use = "an unchecked placement attempt hides an admission failure"]
    pub fn try_place(&mut self, job: &JobView, candidate: &Candidate) -> bool {
        let planned = self.planned_job(job, candidate);
        self.prepare(candidate.resource).try_push(planned)
    }

    /// Like [`try_place`](PlanBuilder::try_place), and answered by the same
    /// probe-first [`EdfTimeline::try_push`], except on a non-preemptable
    /// resource whose queue would hold a future-released job: there it
    /// inserts the job, reads the timeline's
    /// [`demand_feasible`](EdfTimeline::demand_feasible) bound, undoes the
    /// job when the bound fails, and *defers* the exact verdict. On such
    /// queues feasibility is not monotone under job addition — a later
    /// placement can push the dispatch of an early job past the future
    /// release and *repair* the schedule (a classic non-preemptive
    /// scheduling anomaly) — so an exact search must not prune on the exact
    /// partial verdict. The demand bound is necessary and only tightens as
    /// jobs are added, so a `false` here cuts a subtree without a feasible
    /// leaf; the search re-validates complete plans with
    /// [`all_schedulable`](PlanBuilder::all_schedulable).
    ///
    /// The bound cannot see non-preemptive *blocking*: a dense job that
    /// starts before the future release and runs past its latest start.
    /// That one is monotone only together with the jobs still to be placed
    /// (dense jobs never wait, so a start moves later only by unassigned
    /// work with an earlier-or-equal deadline), so the exact search reads
    /// the queue through [`timeline`](PlanBuilder::timeline) after each
    /// placement and asks [`EdfTimeline::blocked_for_good`] and
    /// [`EdfTimeline::first_dispatch_blocked`] with what that work can
    /// still change.
    #[must_use = "an unchecked placement attempt hides an admission failure"]
    pub fn try_place_or_defer(&mut self, job: &JobView, candidate: &Candidate) -> bool {
        let now = self.activation.now;
        let planned = self.planned_job(job, candidate);
        let timeline = self.prepare(candidate.resource);
        // `released_by` is the same epsilon-tolerant predicate the engine and
        // the timelines classify with, and `has_future` reads the timeline's
        // retained release stack in O(1) instead of rescanning the queue.
        let defer = !timeline.kind().is_preemptable()
            && (!planned.release.released_by(now) || timeline.has_future());
        if !defer {
            return timeline.try_push(planned);
        }
        timeline.insert(planned);
        let verdict = timeline.demand_feasible();
        if !verdict {
            let _ = timeline.undo();
        }
        verdict
    }

    /// `resource`'s queue as placed so far, for read-only queries such as
    /// [`EdfTimeline::blocked_for_good`]; `None` on resources this builder
    /// never touched (their queue is empty).
    #[must_use]
    pub fn timeline(&self, resource: ResourceId) -> Option<&EdfTimeline> {
        let i = resource.index();
        (self.set.touched_epoch[i] == self.set.epoch).then(|| &self.set.timelines[i])
    }

    /// Commits `job` to `candidate`'s resource, splicing it into the
    /// retained timeline without computing a verdict — for replaying a plan
    /// already known to be feasible, or one whose verdict the caller reads
    /// later; placing an infeasible job is allowed and simply leaves the
    /// timeline infeasible.
    pub fn place(&mut self, job: &JobView, candidate: &Candidate) {
        let planned = self.planned_job(job, candidate);
        self.prepare(candidate.resource).insert(planned);
    }

    /// Removes the most recently placed job from `resource` (backtracking),
    /// by the array index its placement recorded.
    ///
    /// # Panics
    ///
    /// Panics if `resource`'s timeline is empty. Call it only for a resource
    /// this builder placed a job on: the check that the resource was
    /// touched by this builder runs in debug builds only, and in release
    /// builds an untouched resource would lose the last job an earlier
    /// builder left on it.
    pub fn unplace_last(&mut self, resource: ResourceId) {
        let i = resource.index();
        debug_assert_eq!(
            self.set.touched_epoch[i], self.set.epoch,
            "unplace_last on a resource this builder never placed a job on"
        );
        let _ = self.set.timelines[i].undo();
    }

    /// Number of jobs currently placed on `resource` (0 for resources this
    /// builder never touched — their stale timeline contents belong to an
    /// earlier builder).
    #[must_use]
    pub fn load(&self, resource: ResourceId) -> usize {
        let i = resource.index();
        if self.set.touched_epoch[i] == self.set.epoch {
            self.set.timelines[i].len()
        } else {
            0
        }
    }

    /// Returns `true` if every resource queue is schedulable (sanity check
    /// for complete plans). Reads the retained verdicts of the touched
    /// shard: untouched resources are empty, hence trivially schedulable.
    #[must_use]
    pub fn all_schedulable(&mut self) -> bool {
        let PlanBuilder { set, .. } = self;
        set.touched
            .iter()
            .all(|r| set.timelines[r.index()].feasible())
    }

    /// Planned start times of the real jobs sharing a phantom's resource,
    /// for every *non-preemptable* resource hosting one — the paper's
    /// "schedule the start of execution" made explicit so the simulator can
    /// follow the plan (including the idle wait that reserves the slot for
    /// the predicted task). Phantoms on preemptable resources contribute no
    /// gates: there, preemption at the actual arrival recovers the plan
    /// without reservations.
    #[must_use]
    pub fn reservation_gates(&mut self, phantoms: &[JobKey]) -> Vec<(JobKey, Time)> {
        let mut gates = Vec::new();
        let PlanBuilder { activation, set } = self;
        // Only touched resources can hold a phantom; sorted so gate order
        // matches the legacy platform-order iteration.
        let mut shard: Vec<ResourceId> = set
            .touched
            .iter()
            .copied()
            .filter(|&r| !activation.platform.resource(r).kind().is_preemptable())
            .collect();
        shard.sort_unstable();
        let TimelineSet {
            timelines,
            edf,
            outcomes,
            ..
        } = &mut **set;
        for resource in shard {
            let kind = activation.platform.resource(resource).kind();
            let queue = timelines[resource.index()].jobs();
            if !queue.iter().any(|j| phantoms.contains(&j.key)) {
                continue;
            }
            simulate_into(kind, activation.now, queue, None, edf, outcomes);
            gates.extend(
                queue
                    .iter()
                    .zip(outcomes.iter())
                    .filter(|(j, _)| !phantoms.contains(&j.key))
                    .map(|(j, o)| {
                        let finish = o.finish.expect("unbounded simulation finishes all jobs");
                        (j.key, finish - j.exec)
                    }),
            );
        }
        gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtrm_platform::{TaskType, TaskTypeId};

    fn setup() -> (Platform, TaskCatalog) {
        let platform = Platform::builder().cpus(1).gpu("g").build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(4.0), Energy::new(4.0))
            .profile(ids[1], Time::new(2.0), Energy::new(1.0))
            .build();
        (platform, TaskCatalog::new(vec![ty]))
    }

    #[test]
    fn window_is_max_time_left() {
        let (platform, catalog) = setup();
        let active = [JobView::fresh(
            JobKey(0),
            TaskTypeId::new(0),
            Time::ZERO,
            Time::new(30.0),
        )];
        let activation = Activation {
            now: Time::new(10.0),
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving: JobView::fresh(
                JobKey(1),
                TaskTypeId::new(0),
                Time::new(10.0),
                Time::new(18.0),
            ),
            predicted: &[],
        };
        assert_eq!(activation.window(), Time::new(20.0));
        assert_eq!(activation.jobs_with_prediction().count(), 2);
        assert_eq!(activation.jobs_without_prediction().count(), 2);
    }

    #[test]
    fn reused_pool_matches_fresh_pool_across_activations() {
        // A warm pool handed to decide_with_pool across activations with
        // different instants must produce exactly the decisions of
        // per-activation fresh pools.
        let (platform, catalog) = setup();
        let mut warm = TimelinePool::new();
        let mut rm_warm = crate::HeuristicRm::new();
        let mut rm_fresh = crate::HeuristicRm::new();
        for step in 0..4u64 {
            let now = Time::new(step as f64 * 1.5);
            let arriving = JobView::fresh(
                JobKey(step),
                TaskTypeId::new(0),
                now,
                now + Time::new(2.5 + step as f64),
            );
            let activation = Activation {
                now,
                platform: &platform,
                catalog: &catalog,
                active: &[],
                arriving,
                predicted: &[],
            };
            let with_warm = rm_warm.decide_with_pool(&activation, &mut warm);
            let with_fresh = rm_fresh.decide(&activation);
            assert_eq!(with_warm, with_fresh, "step {step}");
        }
    }

    #[test]
    fn plan_builder_checks_and_backtracks() {
        let (platform, catalog) = setup();
        let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), Time::ZERO, Time::new(3.0));
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &[],
            arriving,
            predicted: &[],
        };
        let mut pool = TimelinePool::new();
        let mut plan = PlanBuilder::new(&activation, &mut pool);
        let cpu = Candidate {
            resource: ResourceId::new(0),
            exec: Time::new(4.0),
            energy: Energy::new(4.0),
            pinned: false,
            restart: false,
            speed: 1.0,
        };
        let gpu = Candidate {
            resource: ResourceId::new(1),
            exec: Time::new(2.0),
            energy: Energy::new(1.0),
            pinned: false,
            restart: false,
            speed: 1.0,
        };
        assert!(
            !plan.try_place(&arriving, &cpu),
            "4 units in a 3-unit window"
        );
        assert_eq!(
            plan.load(ResourceId::new(0)),
            0,
            "a failed attempt is undone"
        );
        assert!(plan.try_place(&arriving, &gpu));
        assert_eq!(plan.load(ResourceId::new(1)), 1);
        assert!(plan.all_schedulable());
        plan.unplace_last(ResourceId::new(1));
        assert_eq!(plan.load(ResourceId::new(1)), 0);
    }
}
