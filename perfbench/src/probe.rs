//! The benchmark's tracer: delegating [`ResourceManager`] and [`Predictor`]
//! wrappers that time each call from outside and record spans and work
//! counters into a per-trace [`TraceLog`]. The wrappers hand back the inner
//! decision and predictions untouched, so a traced run decides exactly like
//! an untraced one (checked by digest on every traced run).

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rtrm_core::{Activation, Decision, ResourceManager, TimelinePool};
use rtrm_platform::Request;
use rtrm_predict::{ConfidentPrediction, Prediction, Predictor};

use crate::stats::Verdicts;

/// Nanoseconds since the first call in this process (span timestamps).
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds of CPU time the calling thread has used: the latency clock.
/// The guest kernel stops a thread's CPU clock while the host steals its
/// vCPU, so a stall the host imposes does not land in the admit it hits.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Nanoseconds of CPU time all threads of the process have used.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

fn cpu_clock_ns(clock: std::os::raw::c_int) -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux) for the whole call, and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU clock {clock} is unavailable");
    let (sec, nsec) = (ts.tv_sec as u64, ts.tv_nsec as u64);
    sec * 1_000_000_000 + nsec
}

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `Session::admit` (stream workloads) or one whole batch trace.
    Sim,
    /// One `ResourceManager::decide_with_pool`; child of `Sim`.
    Core,
    /// One `Predictor` call; child of `Sim`.
    Predict,
}

/// A timed interval. Spans of one request share `id`
/// ([`request_id`]); a batch trace's `Sim` span carries the trace's id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer of the call.
    pub layer: Layer,
    /// Request the span belongs to.
    pub id: u64,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// The id shared by every span of request `request` of trace `trace`.
#[must_use]
pub fn request_id(trace: usize, request: usize) -> u64 {
    ((trace as u64) << 32) | request as u64
}

/// Work counters of one decide, read from the activation, the decision,
/// and deltas of the pool's cumulative counters around the call.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecideCounts {
    /// `Decision::nodes`.
    pub nodes: u64,
    /// The activation carried at least one predicted (phantom) job.
    pub phantom_offered: bool,
    /// `Decision::used_prediction`.
    pub used_prediction: bool,
    /// Jobs already admitted and unfinished at the activation.
    pub active_jobs: usize,
    /// `PruneStats::widened` delta.
    pub widened: u64,
    /// `PruneStats::indexed_rows` delta.
    pub indexed_rows: u64,
    /// `PruneStats::owned_rows` delta.
    pub owned_rows: u64,
    /// `TimelinePool::engine_verdicts` delta.
    pub engine_verdicts: u64,
    /// Longest per-resource queue of the plan in force after the decide.
    pub queue_depth: usize,
    /// `Decision::degraded`.
    pub degraded: bool,
    /// `Decision::solver_timeouts`.
    pub solver_timeouts: u32,
}

/// Everything recorded for one trace during one pass.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Decisions returned, in order.
    pub verdicts: Verdicts,
    /// Thread CPU time of each decide, in order.
    pub decide_cpu_ns: Vec<u64>,
    /// Spans (traced mode only).
    pub spans: Vec<Span>,
    /// Per-decide counters (traced mode only).
    pub counts: Vec<DecideCounts>,
}

/// A [`TraceLog`] shared by one trace's manager and predictor wrappers.
pub type SharedLog = Arc<Mutex<TraceLog>>;

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, TraceLog> {
    log.lock()
        .expect("trace log lock poisoned by a panicking admit")
}

/// How much a [`ProbedRm`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Verdicts and decide CPU time only.
    Timed,
    /// Also spans and per-decide counters.
    Traced,
}

/// A delegating manager that records each decide into a [`TraceLog`].
#[derive(Debug)]
pub struct ProbedRm<M> {
    inner: M,
    trace: usize,
    mode: Mode,
    log: SharedLog,
    /// Per-resource job counts, reused across decides.
    depth: Vec<usize>,
}

impl<M: ResourceManager> ProbedRm<M> {
    /// Wraps `inner`, the manager of trace `trace`.
    pub fn new(inner: M, trace: usize, mode: Mode, log: SharedLog) -> Self {
        ProbedRm {
            inner,
            trace,
            mode,
            log,
            depth: Vec::new(),
        }
    }

    fn queue_depth(&mut self, activation: &Activation<'_>, decision: &Decision) -> usize {
        self.depth.clear();
        self.depth.resize(activation.platform.len(), 0);
        if decision.admitted {
            for a in &decision.assignments {
                self.depth[a.resource.index()] += 1;
            }
        } else {
            for p in activation.active.iter().filter_map(|j| j.placement) {
                self.depth[p.resource.index()] += 1;
            }
        }
        self.depth.iter().copied().max().unwrap_or(0)
    }

    fn record(
        &mut self,
        activation: &Activation<'_>,
        decision: &Decision,
        span: (u64, u64),
        cpu_ns: u64,
        counts: Option<DecideCounts>,
    ) {
        let counts = counts.map(|c| DecideCounts {
            queue_depth: self.queue_depth(activation, decision),
            ..c
        });
        let request = activation.arriving.key.0 as usize;
        let mut log = lock(&self.log);
        log.verdicts.push(request, decision);
        log.decide_cpu_ns.push(cpu_ns);
        if let Some(c) = counts {
            log.spans.push(Span {
                layer: Layer::Core,
                id: request_id(self.trace, request),
                start: span.0,
                end: span.1,
            });
            log.counts.push(c);
        }
    }
}

impl<M: ResourceManager> ResourceManager for ProbedRm<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        let (start, cpu) = (now_ns(), thread_cpu_ns());
        let decision = self.inner.decide(activation);
        let (cpu, end) = (thread_cpu_ns() - cpu, now_ns());
        let counts = (self.mode == Mode::Traced).then(|| base_counts(activation, &decision));
        self.record(activation, &decision, (start, end), cpu, counts);
        decision
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        let before =
            (self.mode == Mode::Traced).then(|| (pool.prune_stats(), pool.engine_verdicts()));
        let (start, cpu) = (now_ns(), thread_cpu_ns());
        let decision = self.inner.decide_with_pool(activation, pool);
        let (cpu, end) = (thread_cpu_ns() - cpu, now_ns());
        let counts = before.map(|(prune, engine)| {
            let after = pool.prune_stats();
            DecideCounts {
                widened: after.widened - prune.widened,
                indexed_rows: after.indexed_rows - prune.indexed_rows,
                owned_rows: after.owned_rows - prune.owned_rows,
                engine_verdicts: pool.engine_verdicts() - engine,
                ..base_counts(activation, &decision)
            }
        });
        self.record(activation, &decision, (start, end), cpu, counts);
        decision
    }

    fn set_wall_clock(&mut self, budget: Option<f64>) {
        self.inner.set_wall_clock(budget);
    }
}

fn base_counts(activation: &Activation<'_>, decision: &Decision) -> DecideCounts {
    DecideCounts {
        nodes: decision.nodes,
        phantom_offered: !activation.predicted.is_empty(),
        used_prediction: decision.used_prediction,
        active_jobs: activation.active.len(),
        degraded: decision.degraded,
        solver_timeouts: decision.solver_timeouts,
        ..DecideCounts::default()
    }
}

/// A delegating predictor that records a `Predict` span per call.
#[derive(Debug)]
pub struct ProbedPredictor<P> {
    inner: P,
    trace: usize,
    /// Id of the request last observed: later forecasts belong to its admit.
    current: u64,
    log: SharedLog,
}

impl<P: Predictor> ProbedPredictor<P> {
    /// Wraps `inner`, the predictor of trace `trace`.
    pub fn new(inner: P, trace: usize, log: SharedLog) -> Self {
        ProbedPredictor {
            inner,
            trace,
            current: request_id(trace, 0),
            log,
        }
    }

    fn timed<T>(&mut self, call: impl FnOnce(&mut P) -> T) -> T {
        let start = now_ns();
        let out = call(&mut self.inner);
        let end = now_ns();
        lock(&self.log).spans.push(Span {
            layer: Layer::Predict,
            id: self.current,
            start,
            end,
        });
        out
    }
}

impl<P: Predictor> Predictor for ProbedPredictor<P> {
    fn observe(&mut self, request: &Request) {
        self.current = request_id(self.trace, request.id.index());
        self.timed(|p| p.observe(request));
    }

    fn predict_next(&mut self) -> Option<Prediction> {
        self.timed(P::predict_next)
    }

    fn predict_horizon(&mut self, k: usize) -> Vec<Prediction> {
        self.timed(|p| p.predict_horizon(k))
    }

    fn predict_horizon_confident(&mut self, k: usize) -> Vec<ConfidentPrediction> {
        self.timed(|p| p.predict_horizon_confident(k))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtrm_core::{ExactRm, HeuristicRm};
    use rtrm_platform::Time;
    use rtrm_predict::{MarkovHorizonPredictor, OraclePredictor};
    use rtrm_sim::{SimReport, SimScratch};

    use crate::workloads::{Scale, Workload, World, NODE_BUDGET};

    /// Admits the world's first trace through one session.
    fn drive(
        world: &World,
        manager: &mut dyn ResourceManager,
        mut predictor: Option<&mut dyn Predictor>,
    ) -> (Vec<Decision>, SimReport) {
        let simulator = world.simulator();
        let mut scratch = SimScratch::new();
        scratch.prime(&simulator);
        let mut session = simulator.session(Time::ZERO);
        let decisions = world.groups[0].traces[0]
            .iter()
            .map(|r| {
                let predictor = predictor.as_mut().map(|p| &mut **p as &mut dyn Predictor);
                session.admit(&simulator, r, manager, predictor, &mut scratch)
            })
            .collect();
        (decisions, session.into_report(&simulator, &mut scratch))
    }

    fn small(workload: Workload) -> World {
        workload.world(
            3,
            Scale {
                groups: 1,
                traces: 1,
                length: 80,
            },
        )
    }

    #[test]
    fn probed_heuristic_and_markov_decide_like_the_bare_ones() {
        let world = small(Workload::StreamPaperLt);
        let markov = || MarkovHorizonPredictor::new(world.catalog.len(), 0.5);
        let bare = drive(&world, &mut HeuristicRm::new(), Some(&mut markov()));
        let log = SharedLog::default();
        let probed = drive(
            &world,
            &mut ProbedRm::new(HeuristicRm::new(), 0, Mode::Traced, Arc::clone(&log)),
            Some(&mut ProbedPredictor::new(markov(), 0, Arc::clone(&log))),
        );
        assert_eq!(bare, probed);
        let log = log.lock().unwrap();
        assert_eq!(log.verdicts.count, 80);
        assert_eq!(log.verdicts.out_of_order, 0);
        assert_eq!(log.counts.len(), 80);
        assert!(log.spans.iter().any(|s| s.layer == Layer::Predict));
    }

    #[test]
    fn probed_exact_and_oracle_decide_like_the_bare_ones() {
        let world = small(Workload::BatchPaperExact);
        let trace = &world.groups[0].traces[0];
        let oracle = || OraclePredictor::perfect(trace, world.catalog.len());
        let bare = drive(
            &world,
            &mut ExactRm::with_node_budget(NODE_BUDGET),
            Some(&mut oracle()),
        );
        for mode in [Mode::Timed, Mode::Traced] {
            let log = SharedLog::default();
            let probed = drive(
                &world,
                &mut ProbedRm::new(
                    ExactRm::with_node_budget(NODE_BUDGET),
                    0,
                    mode,
                    Arc::clone(&log),
                ),
                Some(&mut ProbedPredictor::new(oracle(), 0, Arc::clone(&log))),
            );
            assert_eq!(bare, probed);
            let log = log.lock().unwrap();
            assert_eq!(log.decide_cpu_ns.len(), trace.len());
            assert_eq!(
                log.counts.len(),
                if mode == Mode::Traced { trace.len() } else { 0 }
            );
        }
    }

    #[test]
    fn probed_predictor_returns_the_inner_predictions() {
        let world = small(Workload::StreamPaperLt);
        let mut bare = MarkovHorizonPredictor::new(world.catalog.len(), 0.5);
        let mut probed = ProbedPredictor::new(
            MarkovHorizonPredictor::new(world.catalog.len(), 0.5),
            0,
            SharedLog::default(),
        );
        for request in world.groups[0].traces[0].iter() {
            bare.observe(request);
            probed.observe(request);
            assert_eq!(bare.predict_next(), probed.predict_next());
            assert_eq!(bare.predict_horizon(3), probed.predict_horizon(3));
            assert_eq!(
                bare.predict_horizon_confident(3),
                probed.predict_horizon_confident(3)
            );
        }
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before, "{x}");
    }
}
