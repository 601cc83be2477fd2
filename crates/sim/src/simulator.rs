//! The discrete-event simulator: drives a request trace through a resource
//! manager on a heterogeneous platform, executing the chosen plans with the
//! same EDF timeline engine the managers use for feasibility.

use rtrm_core::{
    gate_horizon, Activation, Assignment, Candidate, Decision, HorizonPolicy, JobView, Placement,
    ResourceManager, TimelinePool,
};
use rtrm_platform::{Energy, Platform, Request, ResourceId, TaskCatalog, TaskTypeId, Time, Trace};
use rtrm_predict::{OverheadModel, Prediction, Predictor};
use rtrm_sched::{simulate_into, EdfScratch, JobKey, JobOutcome, PlannedJob};

use crate::report::{SimReport, TaskOutcome, TaskRecord};

/// How the phantom task's relative deadline is chosen (the predictor
/// forecasts only type and arrival; the paper leaves the phantom's deadline
/// implicit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhantomDeadline {
    /// `coefficient × mean WCET` of the predicted type — the expectation of
    /// the trace generator's `RWCET × C` rule. Use the mean of the group's
    /// coefficient range (1.75 for VT, 4.0 for LT).
    MeanWcetTimes(f64),
    /// `coefficient × min WCET` of the predicted type (its fastest
    /// resource): a *pessimistic* phantom deadline. The generator's `RWCET`
    /// may come from the fastest resource with a low coefficient, and those
    /// are exactly the arrivals that need a reservation; planning for them
    /// costs energy but never acceptance (the manager falls back to a plan
    /// without the phantom when it does not fit).
    MinWcetTimes(f64),
    /// A fixed relative deadline.
    Fixed(Time),
}

impl PhantomDeadline {
    fn relative(&self, catalog: &TaskCatalog, task_type: TaskTypeId) -> Time {
        match *self {
            PhantomDeadline::MeanWcetTimes(c) => catalog.task_type(task_type).mean_wcet() * c,
            PhantomDeadline::MinWcetTimes(c) => catalog.task_type(task_type).min_wcet() * c,
            PhantomDeadline::Fixed(d) => d,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Prediction runtime overhead (Sec 5.5): delays the arriving task's
    /// earliest start by `coefficient × mean interarrival` while its
    /// absolute deadline stays put. Only charged when a predictor is in use.
    pub overhead: OverheadModel,
    /// Deadline model for the phantom task.
    pub phantom_deadline: PhantomDeadline,
    /// Honour the managers' planned start times on the phantom's
    /// non-preemptable resource ([`rtrm_core::Decision::start_gates`]).
    /// `true` follows the paper's "schedule the start of execution"
    /// semantics; `false` reverts to work-conserving dispatch, which
    /// silently gives away reserved slots (kept as an ablation knob).
    pub honour_start_gates: bool,
    /// Number of future requests the predictor is asked for at every
    /// activation. `1` reproduces the paper; larger values enable the
    /// multi-step-lookahead extension (`ext_lookahead`). Ignored when
    /// [`horizon`](SimConfig::horizon) is set.
    pub lookahead: usize,
    /// Confidence-gated horizon admission ([`HorizonPolicy`]). When set, the
    /// predictor is asked for `depth` confidence-scored steps
    /// ([`Predictor::predict_horizon_confident`]) and only phantoms whose
    /// confidence strictly clears `theta` are planned around, highest
    /// confidence first. `None` (the default) keeps the legacy
    /// [`lookahead`](SimConfig::lookahead) path, where every predicted step
    /// becomes a phantom.
    pub horizon: Option<HorizonPolicy>,
    /// Collect a per-request [`TaskRecord`](crate::TaskRecord) log in the
    /// report (placements, restarts, completion times). Off by default —
    /// the log costs memory proportional to the trace.
    pub record_task_log: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            overhead: OverheadModel::none(),
            phantom_deadline: PhantomDeadline::MeanWcetTimes(1.75),
            honour_start_gates: true,
            lookahead: 1,
            horizon: None,
            record_task_log: false,
        }
    }
}

/// One admitted, unfinished task inside the simulator.
#[derive(Debug, Clone)]
struct LiveJob {
    key: JobKey,
    task_type: TaskTypeId,
    release: Time,
    deadline: Time,
    resource: ResourceId,
    /// Busy time still owed on `resource` (work + pending migration debt).
    remaining_busy: Time,
    /// Execution energy still to be charged while `remaining_busy` drains.
    remaining_energy: Energy,
    started: bool,
    /// DVFS speed the placement runs at (1.0 without frequency scaling).
    speed: f64,
    /// Execution energy charged so far on the current run (waste if the
    /// run is aborted).
    consumed_this_run: Energy,
    /// Planned start time from the last reservation-carrying plan (see
    /// [`rtrm_core::Decision::start_gates`]): the job must not be dispatched
    /// before it. Replaced or cleared by the next admitted decision.
    gate: Option<Time>,
}

impl LiveJob {
    /// The manager's view: `remaining_fraction` is remaining busy time over
    /// the full WCET on the current resource, exactly matching the candidate
    /// cost model.
    fn view(&self, catalog: &TaskCatalog) -> JobView {
        let wcet = catalog
            .task_type(self.task_type)
            .wcet(self.resource)
            .expect("live job sits on an executable resource");
        // Fractions are measured against the *effective* WCET at the
        // placement's speed, matching the candidate cost model.
        let effective_wcet = wcet / self.speed;
        JobView {
            key: self.key,
            task_type: self.task_type,
            release: self.release,
            deadline: self.deadline,
            placement: Some(Placement {
                resource: self.resource,
                remaining_fraction: self.remaining_busy / effective_wcet,
                started: self.started,
                speed: self.speed,
            }),
        }
    }

    fn planned(&self, now: Time, platform: &Platform) -> PlannedJob {
        let pinned = self.started && !platform.resource(self.resource).kind().is_preemptable();
        let release = match self.gate {
            // A started job's gate has been honoured already.
            Some(gate) if !self.started => self.release.max(gate),
            _ => self.release,
        };
        PlannedJob {
            key: self.key,
            release: release.max(now),
            exec: self.remaining_busy,
            deadline: self.deadline,
            pinned,
        }
    }
}

/// Reusable buffers for [`Simulator::advance`]: one trace performs an
/// activation per request and an EDF pass per activation, so the engine
/// heaps and the staging vectors are kept warm across the whole trace
/// instead of being reallocated every event.
#[derive(Debug, Default)]
struct AdvanceScratch {
    edf: EdfScratch,
    /// Live-job indices sorted by resource, in live order within each
    /// resource (the engine breaks equal deadlines by input order).
    by_resource: Vec<usize>,
    /// Per resource: its first slot in `by_resource`, then, once the sort
    /// has filled it, one past its last.
    offsets: Vec<usize>,
    /// The live jobs' planned views, in `by_resource` order.
    planned: Vec<PlannedJob>,
    outcomes: Vec<JobOutcome>,
    /// One outcome per live job (index-aligned): outcomes are applied in
    /// live order, which fixes the order of the energy sums.
    all: Vec<JobOutcome>,
}

/// Reusable per-run state for [`Simulator::run_with_scratch`]: the EDF
/// engine's heaps, the live-job and view staging vectors, and a
/// [`rtrm_core::TimelinePool`] handed to the manager on every activation
/// ([`rtrm_core::ResourceManager::decide_with_pool`]).
///
/// One trace run performs an activation per request and an EDF pass per
/// activation; with a warm scratch all of that state is reused, so a worker
/// simulating thousands of traces reaches zero steady-state allocation in
/// the simulator itself (managers may still allocate internally). A scratch
/// carries no results — reusing one across traces, managers, or simulators
/// yields bit-identical [`SimReport`]s to fresh state, which
/// `crates/bench/tests/sweep_differential.rs` asserts at batch scale.
#[derive(Debug, Default)]
pub struct SimScratch {
    advance: AdvanceScratch,
    pool: TimelinePool,
    live: Vec<LiveJob>,
    views: Vec<JobView>,
    phantoms: Vec<JobView>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use and stay warm.
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Installs (or refreshes) the pool's [`rtrm_platform::PlatformIndex`]
    /// for `simulator`'s world, so pruned managers scan precomputed
    /// shortlists instead of rebuilding candidate rows per activation.
    /// [`Simulator::run_with_scratch`] calls this itself; streaming callers
    /// ([`Session`]) should call it once per session batch — per-admit calls
    /// are safe but pay a fingerprint walk over the whole catalog each time.
    pub fn prime(&mut self, simulator: &Simulator<'_>) {
        self.pool
            .ensure_index(simulator.platform, simulator.catalog);
    }
}

/// A zeroed report for `requests` requests on a `resources`-resource
/// platform — the starting state of both batch runs and streaming sessions.
fn blank_report(requests: usize, resources: usize) -> SimReport {
    SimReport {
        requests,
        accepted: 0,
        rejected: 0,
        completed: 0,
        deadline_misses: 0,
        energy: Energy::ZERO,
        migration_energy: Energy::ZERO,
        wasted_energy: Energy::ZERO,
        used_prediction: 0,
        rm_nodes: 0,
        solver_timeouts: 0,
        degraded_activations: 0,
        makespan: Time::ZERO,
        task_log: Vec::new(),
        busy_time: vec![Time::ZERO; resources],
    }
}

/// A streaming admission session: the per-trace state of
/// [`Simulator::run_with_scratch`] held open so requests are admitted one
/// at a time — the entry point of the long-running service mode
/// (`rtrm-service`), where one shard worker interleaves many sessions over
/// a single warm [`SimScratch`].
///
/// The session owns what outlives a step (live jobs, the simulated clock,
/// the accumulating [`SimReport`]); the scratch's engine heaps, staging
/// buffers, and manager-side [`TimelinePool`] are borrowed per call, so any
/// number of sessions share one scratch without affecting each other's
/// decisions. Every step goes through the same private step function as the
/// batch path, so a session fed a trace's requests in order produces the
/// same decisions as [`Simulator::run`] on that trace (asserted
/// decision-for-decision by `crates/service/tests/service_differential.rs`).
#[derive(Debug)]
pub struct Session {
    live: Vec<LiveJob>,
    now: Time,
    overhead: Time,
    horizon: Option<HorizonPolicy>,
    report: SimReport,
}

impl Session {
    /// Admits (or rejects) one request, returning the manager's decision.
    ///
    /// Requests must be fed in nondecreasing arrival order — the simulated
    /// clock only moves forward.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when a request arrives before the session's
    /// clock, or when an admitted task misses its deadline (like
    /// [`Simulator::run`]).
    pub fn admit(
        &mut self,
        simulator: &Simulator<'_>,
        request: &Request,
        manager: &mut dyn ResourceManager,
        predictor: Option<&mut dyn Predictor>,
        scratch: &mut SimScratch,
    ) -> Decision {
        debug_assert!(
            request.arrival >= self.now,
            "requests must be fed in arrival order (got {} before {})",
            request.arrival,
            self.now
        );
        self.report.requests += 1;
        simulator.step_request(
            request,
            manager,
            predictor,
            self.overhead,
            self.horizon,
            &mut self.now,
            &mut self.live,
            &mut scratch.advance,
            &mut scratch.pool,
            &mut scratch.views,
            &mut scratch.phantoms,
            &mut self.report,
        )
    }

    /// Runs every admitted, unfinished task to completion (the batch run's
    /// final drain). Call once after the last request; the session can keep
    /// serving afterwards, but a drain is not an idle wait — it fast-forwards
    /// the simulated clock past the last completion.
    pub fn drain(&mut self, simulator: &Simulator<'_>, scratch: &mut SimScratch) {
        simulator.advance(
            &mut self.live,
            self.now,
            None,
            &mut scratch.advance,
            &mut self.report,
        );
        debug_assert!(self.live.is_empty(), "drained session must finish all jobs");
        debug_assert_eq!(
            self.report.deadline_misses, 0,
            "admitted task missed a deadline"
        );
    }

    /// Replaces the session's confidence-gated horizon policy, effective
    /// from the next [`admit`](Session::admit). `None` reverts to the legacy
    /// [`SimConfig::lookahead`] path. Sessions start with the simulator's
    /// [`SimConfig::horizon`]; this setter lets a long-running service
    /// retune depth/θ per stream without reopening the session.
    pub fn set_horizon(&mut self, horizon: Option<HorizonPolicy>) {
        self.horizon = horizon;
    }

    /// The horizon policy currently in force (see
    /// [`set_horizon`](Session::set_horizon)).
    #[must_use]
    pub fn horizon(&self) -> Option<HorizonPolicy> {
        self.horizon
    }

    /// The report accumulated so far (drained totals only settle after
    /// [`drain`](Session::drain)).
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Drains the session and returns its final report.
    #[must_use]
    pub fn into_report(mut self, simulator: &Simulator<'_>, scratch: &mut SimScratch) -> SimReport {
        self.drain(simulator, scratch);
        self.report
    }
}

/// Drives traces through a [`ResourceManager`] and collects metrics.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtrm_core::HeuristicRm;
/// use rtrm_platform::Platform;
/// use rtrm_sim::{SimConfig, Simulator};
/// use rtrm_trace::{generate_catalog, generate_trace, CatalogConfig, TraceConfig};
///
/// let platform = Platform::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
/// let trace = generate_trace(&catalog, &TraceConfig::calibrated_vt(), &mut rng);
///
/// let sim = Simulator::new(&platform, &catalog, SimConfig::default());
/// let report = sim.run(&trace, &mut HeuristicRm::new(), None);
/// assert_eq!(report.deadline_misses, 0);
/// assert_eq!(report.accepted + report.rejected, report.requests);
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    platform: &'a Platform,
    catalog: &'a TaskCatalog,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a platform and catalog.
    #[must_use]
    pub fn new(platform: &'a Platform, catalog: &'a TaskCatalog, config: SimConfig) -> Self {
        Simulator {
            platform,
            catalog,
            config,
        }
    }

    /// Runs one trace. When `predictor` is `Some`, the manager plans around
    /// the predicted next request and the configured prediction overhead is
    /// charged on every activation.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if an admitted task misses its deadline — the
    /// admission test makes this impossible unless a manager or the
    /// simulator itself is buggy. Release builds record it in the report.
    #[must_use]
    pub fn run(
        &self,
        trace: &Trace,
        manager: &mut dyn ResourceManager,
        predictor: Option<&mut dyn Predictor>,
    ) -> SimReport {
        self.run_with_scratch(trace, manager, predictor, &mut SimScratch::new())
    }

    /// Like [`run`](Simulator::run), but simulating inside a caller-held
    /// [`SimScratch`] so the engine heaps, staging vectors, and the
    /// manager's [`TimelinePool`] stay warm across traces. The report is
    /// bit-identical to [`run`](Simulator::run) with fresh state.
    ///
    /// This is the batch workers' entry point
    /// ([`run_batch`](crate::run_batch) holds one scratch per worker); call
    /// it directly when driving many traces through one thread.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if an admitted task misses its deadline, like
    /// [`run`](Simulator::run).
    #[must_use]
    pub fn run_with_scratch(
        &self,
        trace: &Trace,
        manager: &mut dyn ResourceManager,
        mut predictor: Option<&mut dyn Predictor>,
        scratch: &mut SimScratch,
    ) -> SimReport {
        let SimScratch {
            advance: scratch,
            pool,
            live,
            views,
            phantoms,
        } = scratch;
        pool.ensure_index(self.platform, self.catalog);
        live.clear();
        let mut now = Time::ZERO;
        let mut report = blank_report(trace.len(), self.platform.len());
        if self.config.record_task_log {
            report.task_log = trace
                .iter()
                .map(|r| TaskRecord {
                    request: r.id,
                    outcome: TaskOutcome::Rejected,
                    placements: Vec::new(),
                    finished: None,
                    restarts: 0,
                })
                .collect();
        }
        let overhead = match (&predictor, trace.mean_interarrival()) {
            (Some(_), Some(gap)) => self.config.overhead.cost(gap),
            _ => Time::ZERO,
        };

        for request in trace.iter() {
            let _ = self.step_request(
                request,
                manager,
                predictor.as_deref_mut(),
                overhead,
                self.config.horizon,
                &mut now,
                live,
                scratch,
                pool,
                views,
                phantoms,
                &mut report,
            );
        }

        // Drain: run everything that was admitted to completion.
        self.advance(live, now, None, scratch, &mut report);
        debug_assert!(live.is_empty(), "drained simulation must finish all jobs");
        debug_assert_eq!(report.deadline_misses, 0, "admitted task missed a deadline");
        report
    }

    /// Opens a streaming [`Session`]: the per-trace simulation state held
    /// open so requests can be fed one at a time instead of as a whole
    /// [`Trace`]. `overhead` is the per-activation prediction overhead to
    /// charge ([`Time::ZERO`] when no predictor is used — matching what
    /// [`run`](Simulator::run) computes for that case).
    ///
    /// Sessions advance on *simulated* time (request arrivals), so feeding
    /// the same requests in the same order yields decisions identical to a
    /// batch run, regardless of wall clock or how many sessions interleave
    /// on one thread. [`SimConfig::record_task_log`] is ignored by sessions
    /// (the per-request log needs the whole trace upfront).
    #[must_use]
    pub fn session(&self, overhead: Time) -> Session {
        Session {
            live: Vec::new(),
            now: Time::ZERO,
            overhead,
            horizon: self.config.horizon,
            report: blank_report(0, self.platform.len()),
        }
    }

    /// One admission step, shared verbatim by [`run_with_scratch`]
    /// (`Simulator::run_with_scratch`) and the streaming [`Session`] — the
    /// two paths cannot drift because this is the only implementation.
    #[allow(clippy::too_many_arguments)]
    fn step_request(
        &self,
        request: &Request,
        manager: &mut dyn ResourceManager,
        predictor: Option<&mut (dyn Predictor + '_)>,
        overhead: Time,
        horizon: Option<HorizonPolicy>,
        now: &mut Time,
        live: &mut Vec<LiveJob>,
        scratch: &mut AdvanceScratch,
        pool: &mut TimelinePool,
        views: &mut Vec<JobView>,
        phantoms: &mut Vec<JobView>,
        report: &mut SimReport,
    ) -> Decision {
        self.advance(live, *now, Some(request.arrival), scratch, report);
        *now = request.arrival;
        let now = *now;

        // Prediction: feed the actual arrival, then forecast. Without a
        // horizon policy every `lookahead` step becomes a phantom; with one,
        // the predictor's confidence-scored steps are gated on θ and ranked
        // highest-confidence-first before planning around them.
        phantoms.clear();
        let predicted: Vec<Prediction> = predictor
            .map(|p| {
                p.observe(request);
                match horizon {
                    Some(policy) => {
                        let mut scored: Vec<(f64, Prediction)> = p
                            .predict_horizon_confident(policy.depth)
                            .into_iter()
                            .map(|c| (c.confidence, c.prediction))
                            .collect();
                        gate_horizon(policy, &mut scored);
                        scored.into_iter().map(|(_, pred)| pred).collect()
                    }
                    None => p.predict_horizon(self.config.lookahead),
                }
            })
            .unwrap_or_default();
        phantoms.extend(predicted.into_iter().enumerate().map(|(i, pred)| {
            let rel = self
                .config
                .phantom_deadline
                .relative(self.catalog, pred.task_type);
            JobView::fresh(
                JobKey(u64::MAX - (request.id.index() * 64 + i) as u64),
                pred.task_type,
                pred.arrival.max(now),
                pred.arrival.max(now) + rel,
            )
        }));

        let arriving = JobView::fresh(
            JobKey(request.id.index() as u64),
            request.task_type,
            request.arrival + overhead,
            request.absolute_deadline(),
        );
        views.clear();
        views.extend(live.iter().map(|j| j.view(self.catalog)));
        let decision = manager.decide_with_pool(
            &Activation {
                now,
                platform: self.platform,
                catalog: self.catalog,
                active: views,
                arriving,
                predicted: phantoms,
            },
            pool,
        );
        report.rm_nodes += decision.nodes;
        report.solver_timeouts += u64::from(decision.solver_timeouts);
        report.degraded_activations += usize::from(decision.degraded);

        if decision.admitted {
            report.accepted += 1;
            if decision.used_prediction {
                report.used_prediction += 1;
            }
            self.apply(live, views, arriving, &decision.assignments, report);
            // Plan-following dispatch: hold jobs sharing the phantom's
            // non-preemptable resource to their planned start times, so
            // the reserved slot survives until the predicted request
            // materializes (or the next activation replans).
            for job in live.iter_mut() {
                job.gate = if self.config.honour_start_gates {
                    decision
                        .start_gates
                        .iter()
                        .find(|(k, _)| *k == job.key)
                        .map(|(_, t)| *t)
                } else {
                    None
                };
            }
        } else {
            report.rejected += 1;
        }
        decision
    }

    /// Executes all live jobs from `now` to `horizon` (or to completion):
    /// one [`simulate_into`] run per resource holding live jobs, the same
    /// engine the managers' admission test is built on.
    fn advance(
        &self,
        live: &mut Vec<LiveJob>,
        now: Time,
        horizon: Option<Time>,
        scratch: &mut AdvanceScratch,
        report: &mut SimReport,
    ) {
        if live.is_empty() {
            return;
        }
        let AdvanceScratch {
            edf,
            by_resource,
            offsets,
            planned,
            outcomes,
            all,
        } = scratch;
        // A counting sort by resource; being stable, it hands each
        // resource's jobs to the engine in live order.
        offsets.clear();
        offsets.resize(self.platform.len(), 0);
        for job in live.iter() {
            offsets[job.resource.index()] += 1;
        }
        let mut first = 0;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = first;
            first += count;
        }
        by_resource.resize(live.len(), 0);
        for (i, job) in live.iter().enumerate() {
            let slot = &mut offsets[job.resource.index()];
            by_resource[*slot] = i;
            *slot += 1;
        }
        planned.clear();
        planned.extend(
            by_resource
                .iter()
                .map(|&i| live[i].planned(now, self.platform)),
        );
        all.clear();
        all.extend(live.iter().map(|j| JobOutcome {
            key: j.key,
            executed: Time::ZERO,
            finish: None,
            started: false,
        }));
        let mut start = 0;
        for (resource, &end) in self.platform.resources().zip(offsets.iter()) {
            if start == end {
                continue;
            }
            simulate_into(
                resource.kind(),
                now,
                &planned[start..end],
                horizon,
                edf,
                outcomes,
            );
            for (&i, outcome) in by_resource[start..end].iter().zip(outcomes.iter()) {
                all[i] = *outcome;
            }
            start = end;
        }
        for (job, outcome) in live.iter_mut().zip(all.iter()) {
            if outcome.executed > Time::ZERO {
                report.busy_time[job.resource.index()] += outcome.executed;
                let share = outcome.executed / job.remaining_busy;
                report.energy += job.remaining_energy * share;
                job.consumed_this_run += job.remaining_energy * share;
                job.remaining_energy = job.remaining_energy * (1.0 - share);
                job.remaining_busy = (job.remaining_busy - outcome.executed).clamp_non_negative();
                job.started = true;
            }
            if let Some(finish) = outcome.finish {
                job.remaining_busy = Time::ZERO;
                report.completed += 1;
                report.makespan = report.makespan.max(finish);
                if self.config.record_task_log {
                    let idx = usize::try_from(job.key.0).unwrap_or(usize::MAX);
                    if let Some(record) = report.task_log.get_mut(idx) {
                        record.outcome = TaskOutcome::Completed;
                        record.finished = Some(finish);
                    }
                }
                if !finish.meets(job.deadline) {
                    report.deadline_misses += 1;
                    debug_assert!(
                        false,
                        "job {} finished {} past deadline {}",
                        job.key, finish, job.deadline
                    );
                }
            }
        }
        live.retain(|j| j.remaining_busy > Time::ZERO);
    }

    /// Applies an admitted decision: migrations (with energy lumps), GPU
    /// aborts (progress wasted), and admission of the arriving task.
    fn apply(
        &self,
        live: &mut Vec<LiveJob>,
        views: &[JobView],
        arriving: JobView,
        assignments: &[Assignment],
        report: &mut SimReport,
    ) {
        for a in assignments {
            if self.config.record_task_log {
                let idx = usize::try_from(a.key.0).unwrap_or(usize::MAX);
                if let Some(record) = report.task_log.get_mut(idx) {
                    if record.placements.last() != Some(&a.resource) || a.restart {
                        record.placements.push(a.resource);
                    }
                    if a.restart {
                        record.restarts += 1;
                    }
                }
            }
            if a.key == arriving.key {
                let c = self.matching_candidate(&arriving, a);
                live.push(LiveJob {
                    key: arriving.key,
                    task_type: arriving.task_type,
                    release: arriving.release,
                    deadline: arriving.deadline,
                    resource: a.resource,
                    remaining_busy: c.exec,
                    remaining_energy: c.energy,
                    started: false,
                    speed: a.speed,
                    consumed_this_run: Energy::ZERO,
                    gate: None,
                });
                continue;
            }
            let view = views
                .iter()
                .find(|v| v.key == a.key)
                .expect("assignment refers to an active job");
            let job = live
                .iter_mut()
                .find(|j| j.key == a.key)
                .expect("active job is live");
            if a.restart {
                // GPU abort: progress and its energy are wasted (already
                // charged to the total; attributed to waste here); the job
                // starts over.
                let c = self.matching_candidate(view, a);
                report.wasted_energy += job.consumed_this_run;
                job.consumed_this_run = Energy::ZERO;
                job.resource = a.resource;
                job.remaining_busy = c.exec;
                job.remaining_energy = c.energy;
                job.started = false;
                job.speed = a.speed;
            } else if a.resource != job.resource {
                // Migration: charge the energy overhead as a lump now; the
                // time overhead is part of the busy time (`c.exec`).
                let c = self.matching_candidate(view, a);
                let em = self
                    .catalog
                    .task_type(job.task_type)
                    .migration(job.resource, a.resource)
                    .energy;
                report.energy += em;
                report.migration_energy += em;
                job.resource = a.resource;
                job.remaining_busy = c.exec;
                job.remaining_energy = c.energy - em;
                job.speed = a.speed;
            } else {
                // Staying put changes nothing; only debug builds materialize
                // the candidate to check the plan agrees.
                debug_assert!(
                    (job.remaining_busy.value() - self.matching_candidate(view, a).exec.value())
                        .abs()
                        < 1e-6
                );
            }
        }
    }

    /// Finds the cost-model candidate matching an assignment.
    fn matching_candidate(&self, view: &JobView, a: &Assignment) -> Candidate {
        rtrm_core::candidates(view, self.platform, self.catalog, true)
            .into_iter()
            .find(|c| {
                c.resource == a.resource
                    && c.restart == a.restart
                    && (c.speed - a.speed).abs() < 1e-12
            })
            .expect("assignment corresponds to a valid candidate")
    }
}
