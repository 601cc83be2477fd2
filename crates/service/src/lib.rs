//! `rtrm-service` — a long-running streaming admission service over the
//! paper's resource managers.
//!
//! The batch pipeline (`rtrm-sim`) answers "what fraction of a finished
//! trace would have been admitted?"; this crate answers the operational
//! question "what does admission look like as a *service*": requests arrive
//! one at a time on an open-loop schedule, each must be answered now, and
//! the interesting numbers are decide-latency tails (p50/p99/p999),
//! throughput, and what happens under overload.
//!
//! # Dataflow
//!
//! ```text
//!             load generator (open loop)
//!                      │ events sorted by arrival
//!                      ▼
//!          shard by trace id (trace % shards)
//!          │                │               │
//!     ingress Ring     ingress Ring     ingress Ring    (bounded — full
//!          │                │               │            ring = backpressure,
//!          ▼                ▼               ▼            never an unbounded queue)
//!      RM worker        RM worker       RM worker
//!      warm SimScratch + one Session per trace
//!      backlog-scaled anytime budget (overload ladder)
//!          │                │               │
//!     completion Ring  completion Ring  completion Ring
//!          └────────────────┼───────────────┘
//!                           ▼
//!                       collector
//!          latency histograms · verdict counters · throughput
//! ```
//!
//! Each worker owns one warm [`SimScratch`] and a [`Session`](rtrm_sim::Session) per trace it
//! serves; decisions depend only on simulated time (request arrivals), so
//! with a fixed solver budget the verdicts are identical at any shard
//! count — `tests/service_differential.rs` pins this against the sequential
//! [`Simulator`].
//!
//! # Overload policy
//!
//! Under backlog the service does not queue unboundedly: workers read their
//! ingress depth and shrink the manager's anytime wall-clock budget
//! ([`ResourceManager::set_wall_clock`]) toward zero ([`scaled_budget`]),
//! which makes every MILP rung hand back its incumbent (or fall through to
//! the heuristic floor) immediately. The verdict is still feasibility-safe,
//! just possibly suboptimal — counted in [`ServiceReport::degraded`].

#![warn(missing_docs)]

mod histogram;
mod loadgen;
mod ring;

pub use histogram::LatencyHistogram;
pub use loadgen::{generate_load, merge_events, Arrivals, LoadConfig, LoadEvent};
pub use ring::Ring;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rtrm_core::{Decision, HorizonPolicy, ResourceManager};
use rtrm_platform::{Platform, Request, TaskCatalog, Time, Trace};
use rtrm_predict::Predictor;
use rtrm_sim::{SimConfig, SimReport, SimScratch, Simulator};

/// When the manager runs with an anytime wall-clock budget, how that budget
/// shrinks as a shard's ingress backlog grows (the overload ladder).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPolicy {
    /// Backlog at or below which the full budget applies.
    pub backlog_lo: usize,
    /// Backlog at or above which the budget is zero — every solver rung
    /// expires immediately and the decision comes from the anytime
    /// incumbent or the heuristic floor.
    pub backlog_hi: usize,
}

impl Default for OverloadPolicy {
    /// Full budget up to 4 queued requests, heuristic floor from 64 up.
    fn default() -> Self {
        OverloadPolicy {
            backlog_lo: 4,
            backlog_hi: 64,
        }
    }
}

/// The wall-clock budget (seconds) a worker grants the manager when its
/// ingress backlog is `backlog` deep: `full` at or below `backlog_lo`, zero
/// at or above `backlog_hi`, linear in between. Pure so the ladder policy
/// itself is unit-testable.
#[must_use]
pub fn scaled_budget(full: f64, backlog: usize, policy: &OverloadPolicy) -> f64 {
    let lo = policy.backlog_lo;
    let hi = policy.backlog_hi.max(lo + 1);
    if backlog <= lo {
        full
    } else if backlog >= hi {
        0.0
    } else {
        full * (hi - backlog) as f64 / (hi - lo) as f64
    }
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of shard workers (clamped to `1..=traces`).
    pub shards: usize,
    /// Per-shard ingress ring capacity (rounded up to a power of two). The
    /// producer backpressures when a ring is full — the queue never grows.
    pub ingress_capacity: usize,
    /// Simulation semantics (phantom deadline, start gates, …) — the same
    /// knobs as the batch pipeline.
    pub sim: SimConfig,
    /// Full anytime wall-clock budget (seconds) granted to the manager when
    /// a shard is idle; `None` disables budget control entirely (the
    /// manager's own settings stand, and verdicts are deterministic).
    pub budget: Option<f64>,
    /// How the budget shrinks with backlog (only read when `budget` is
    /// `Some`).
    pub overload: OverloadPolicy,
    /// Wall seconds the producer waits per simulated time unit, pacing the
    /// open loop in real time; `0.0` releases the whole load as fast as the
    /// rings accept it (firehose — the overload regime).
    pub time_scale: f64,
    /// Keep every per-request [`Verdict`] in the report (costs memory
    /// proportional to the load; the differential test uses it).
    pub record_verdicts: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            ingress_capacity: 64,
            sim: SimConfig::default(),
            budget: None,
            overload: OverloadPolicy::default(),
            time_scale: 0.0,
            record_verdicts: false,
        }
    }
}

/// One admission verdict as published on a shard's completion ring.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Originating trace (the shard key).
    pub trace: usize,
    /// Request index within the trace.
    pub request: usize,
    /// The manager's decision.
    pub decision: Decision,
    /// Wall nanoseconds the admission step took (the decide latency).
    pub decide_nanos: u64,
    /// Wall nanoseconds from ingress enqueue to verdict (queueing included).
    pub end_to_end_nanos: u64,
}

/// Aggregated outcome of one service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Requests served.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Verdicts that were degraded (anytime incumbent or heuristic floor
    /// after a solver timeout) — the overload ladder's footprint.
    pub degraded: u64,
    /// Total solver rung timeouts across all verdicts.
    pub solver_timeouts: u64,
    /// Decide-latency histogram (the admission step alone).
    pub decide: LatencyHistogram,
    /// End-to-end latency histogram (ingress queueing included).
    pub end_to_end: LatencyHistogram,
    /// Wall nanoseconds for the whole run (first enqueue to last verdict).
    pub wall_nanos: u64,
    /// Verdicts per wall-clock second.
    pub throughput_per_sec: f64,
    /// Deepest ingress backlog any worker observed: the ring's occupancy
    /// just before a pop, the event being served included, so it never
    /// exceeds the ring's capacity.
    pub max_backlog: usize,
    /// Events the producer had to spin on because a ring was full.
    pub backpressure_waits: u64,
    /// Shard workers the run used (after clamping).
    pub shards: usize,
    /// Final per-trace simulation reports (sessions drained), sorted by
    /// trace id — directly comparable to [`Simulator::run`] outputs.
    pub trace_reports: Vec<SimReport>,
    /// Every verdict, when [`ServiceConfig::record_verdicts`] is set.
    pub verdicts: Option<Vec<Verdict>>,
}

/// What travels on a shard's ingress ring.
struct IngressEvent {
    trace: usize,
    request: Request,
    enqueued: Instant,
}

/// Per-trace prediction setup for [`run_service_with`]: the predictor a
/// worker feeds observed arrivals into, the confidence-gated horizon policy
/// its session runs under, and the per-activation prediction overhead to
/// charge.
pub struct PredictorSetup {
    /// The online predictor for this trace's stream (one per trace, like
    /// managers — prediction state never leaks across traces).
    pub predictor: Box<dyn Predictor + Send>,
    /// Horizon policy installed on the trace's session via
    /// [`Session::set_horizon`](rtrm_sim::Session::set_horizon); `None`
    /// keeps [`ServiceConfig::sim`]'s [`SimConfig::horizon`].
    pub horizon: Option<HorizonPolicy>,
    /// Prediction overhead charged per activation (what
    /// [`Simulator::run`] derives from [`SimConfig::overhead`] and the
    /// trace's mean interarrival — a session cannot compute it because it
    /// never sees the whole trace).
    pub overhead: Time,
}

impl std::fmt::Debug for PredictorSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorSetup")
            .field("horizon", &self.horizon)
            .field("overhead", &self.overhead)
            .finish_non_exhaustive()
    }
}

/// A worker's per-trace serving state: the open session plus the manager and
/// predictor dedicated to that trace.
struct TraceSlot {
    session: rtrm_sim::Session,
    manager: Box<dyn ResourceManager + Send>,
    predictor: Option<Box<dyn Predictor + Send>>,
}

/// Runs the service over `traces`: an open-loop producer feeds the merged
/// request stream through per-shard bounded ingress rings into `shards`
/// workers (requests sharded by `trace % shards`), each owning a warm
/// [`SimScratch`] plus one manager and one [`Session`](rtrm_sim::Session) per trace;
/// verdicts flow back through per-shard completion rings into a collector
/// that builds the latency histograms. Returns once every request has a
/// verdict and all sessions are drained.
///
/// `make_manager(trace)` builds the resource manager for each trace —
/// managers are per-trace (as in the batch pipeline), so admission state
/// never leaks across traces.
///
/// # Panics
///
/// Panics if `traces` is empty, or (debug builds) if an admitted task
/// misses its deadline — the same invariant as [`Simulator::run`].
#[must_use]
pub fn run_service<M>(
    platform: &Platform,
    catalog: &TaskCatalog,
    config: &ServiceConfig,
    traces: &[Trace],
    make_manager: M,
) -> ServiceReport
where
    M: Fn(usize) -> Box<dyn ResourceManager + Send> + Sync,
{
    run_service_with(platform, catalog, config, traces, make_manager, |_| None)
}

/// [`run_service`] with per-trace workload prediction: `make_predictor(trace)`
/// returns the [`PredictorSetup`] for each trace (or `None` to serve that
/// trace without prediction). Each worker observes its traces' arrivals into
/// the per-trace predictor, and the setup's horizon policy is installed on
/// the trace's [`Session`](rtrm_sim::Session) via
/// [`set_horizon`](rtrm_sim::Session::set_horizon) — so a service can run
/// confidence-gated multi-step admission per stream.
///
/// # Panics
///
/// Same as [`run_service`].
#[must_use]
pub fn run_service_with<M, P>(
    platform: &Platform,
    catalog: &TaskCatalog,
    config: &ServiceConfig,
    traces: &[Trace],
    make_manager: M,
    make_predictor: P,
) -> ServiceReport
where
    M: Fn(usize) -> Box<dyn ResourceManager + Send> + Sync,
    P: Fn(usize) -> Option<PredictorSetup> + Sync,
{
    assert!(!traces.is_empty(), "service needs at least one trace");
    let shards = config.shards.clamp(1, traces.len());
    let events = merge_events(traces);

    let ingress: Vec<Ring<IngressEvent>> = (0..shards)
        .map(|_| Ring::with_capacity(config.ingress_capacity))
        .collect();
    let completions: Vec<Ring<Verdict>> = (0..shards)
        .map(|_| Ring::with_capacity(config.ingress_capacity.max(64)))
        .collect();

    let producer_done = AtomicBool::new(false);
    let workers_done = AtomicUsize::new(0);
    let max_backlog = AtomicUsize::new(0);
    let trace_reports: Mutex<Vec<(usize, SimReport)>> = Mutex::new(Vec::new());

    let total: u64 = events.len() as u64;
    let start = Instant::now();
    let mut backpressure_waits = 0u64;

    let mut report = std::thread::scope(|scope| {
        // Shard workers.
        for shard in 0..shards {
            let ingress = &ingress[shard];
            let completion = &completions[shard];
            let producer_done = &producer_done;
            let workers_done = &workers_done;
            let max_backlog = &max_backlog;
            let trace_reports = &trace_reports;
            let make_manager = &make_manager;
            let make_predictor = &make_predictor;
            scope.spawn(move || {
                let simulator = Simulator::new(platform, catalog, config.sim.clone());
                let mut scratch = SimScratch::new();
                // One world per service run: build the placement index once
                // and let every session this shard serves scan shortlists.
                scratch.prime(&simulator);
                let mut sessions: HashMap<usize, TraceSlot> = HashMap::new();
                loop {
                    // Occupancy is read before the pop: this worker is the
                    // ring's only consumer, so the reading never exceeds the
                    // capacity, whereas after the pop the producer may
                    // already have refilled the freed slot.
                    let queued = ingress.len();
                    let Some(event) = ingress.try_pop() else {
                        if producer_done.load(Ordering::Acquire) && ingress.is_empty() {
                            break;
                        }
                        std::hint::spin_loop();
                        continue;
                    };
                    // The popped event counts even if it landed after the read.
                    max_backlog.fetch_max(queued.max(1), Ordering::Relaxed);
                    let backlog = queued.saturating_sub(1);
                    let slot = sessions.entry(event.trace).or_insert_with(|| {
                        let setup = make_predictor(event.trace);
                        let overhead = setup.as_ref().map_or(Time::ZERO, |s| s.overhead);
                        let mut session = simulator.session(overhead);
                        if let Some(horizon) = setup.as_ref().and_then(|s| s.horizon) {
                            session.set_horizon(Some(horizon));
                        }
                        TraceSlot {
                            session,
                            manager: make_manager(event.trace),
                            predictor: setup.map(|s| s.predictor),
                        }
                    });
                    if let Some(full) = config.budget {
                        slot.manager.set_wall_clock(Some(scaled_budget(
                            full,
                            backlog,
                            &config.overload,
                        )));
                    }
                    let decide_start = Instant::now();
                    let decision = slot.session.admit(
                        &simulator,
                        &event.request,
                        slot.manager.as_mut(),
                        slot.predictor
                            .as_mut()
                            .map(|p| &mut **p as &mut dyn Predictor),
                        &mut scratch,
                    );
                    let decide_nanos = decide_start.elapsed().as_nanos() as u64;
                    let end_to_end_nanos = event.enqueued.elapsed().as_nanos() as u64;
                    let mut verdict = Verdict {
                        trace: event.trace,
                        request: event.request.id.index(),
                        decision,
                        decide_nanos,
                        end_to_end_nanos,
                    };
                    // The completion ring is drained continuously by the
                    // collector; spin until it takes the verdict.
                    loop {
                        match completion.try_push(verdict) {
                            Ok(()) => break,
                            Err(back) => {
                                verdict = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
                // Drain every session this shard served; reports become
                // comparable to whole-trace batch runs.
                let mut drained: Vec<(usize, SimReport)> = sessions
                    .into_iter()
                    .map(|(trace, slot)| {
                        (trace, slot.session.into_report(&simulator, &mut scratch))
                    })
                    .collect();
                trace_reports
                    .lock()
                    .expect("trace report lock poisoned")
                    .append(&mut drained);
                workers_done.fetch_add(1, Ordering::Release);
            });
        }

        // Collector: aggregates verdicts while workers run.
        let completions = &completions;
        let collector = scope.spawn(move || {
            let mut report = ServiceReport {
                requests: 0,
                admitted: 0,
                rejected: 0,
                degraded: 0,
                solver_timeouts: 0,
                decide: LatencyHistogram::new(),
                end_to_end: LatencyHistogram::new(),
                wall_nanos: 0,
                throughput_per_sec: 0.0,
                max_backlog: 0,
                backpressure_waits: 0,
                shards,
                trace_reports: Vec::new(),
                verdicts: None,
            };
            let mut verdicts: Option<Vec<Verdict>> = config.record_verdicts.then(Vec::new);
            let mut collected = 0u64;
            while collected < total {
                let mut idle = true;
                for completion in completions {
                    while let Some(verdict) = completion.try_pop() {
                        idle = false;
                        collected += 1;
                        report.requests += 1;
                        if verdict.decision.admitted {
                            report.admitted += 1;
                        } else {
                            report.rejected += 1;
                        }
                        if verdict.decision.degraded {
                            report.degraded += 1;
                        }
                        report.solver_timeouts += u64::from(verdict.decision.solver_timeouts);
                        report.decide.record(verdict.decide_nanos);
                        report.end_to_end.record(verdict.end_to_end_nanos);
                        if let Some(out) = verdicts.as_mut() {
                            out.push(verdict);
                        }
                    }
                }
                if idle {
                    std::hint::spin_loop();
                }
            }
            report.verdicts = verdicts;
            report
        });

        // Producer (open loop) on the scope's own thread.
        for event in &events {
            if config.time_scale > 0.0 {
                let due = std::time::Duration::from_secs_f64(
                    event.request.arrival.value() * config.time_scale,
                );
                while start.elapsed() < due {
                    std::hint::spin_loop();
                }
            }
            let shard = event.trace % shards;
            let mut item = IngressEvent {
                trace: event.trace,
                request: event.request,
                enqueued: Instant::now(),
            };
            let mut waited = false;
            loop {
                match ingress[shard].try_push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        if !waited {
                            waited = true;
                            backpressure_waits += 1;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
        producer_done.store(true, Ordering::Release);

        collector.join().expect("collector panicked")
    });

    report.wall_nanos = start.elapsed().as_nanos() as u64;
    report.throughput_per_sec = if report.wall_nanos == 0 {
        0.0
    } else {
        report.requests as f64 * 1e9 / report.wall_nanos as f64
    };
    report.max_backlog = max_backlog.load(Ordering::Relaxed);
    report.backpressure_waits = backpressure_waits;
    let mut drained = trace_reports
        .into_inner()
        .expect("trace report lock poisoned");
    drained.sort_by_key(|(trace, _)| *trace);
    report.trace_reports = drained.into_iter().map(|(_, r)| r).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_budget_follows_the_ladder() {
        let policy = OverloadPolicy {
            backlog_lo: 4,
            backlog_hi: 12,
        };
        assert_eq!(scaled_budget(1.0, 0, &policy), 1.0);
        assert_eq!(scaled_budget(1.0, 4, &policy), 1.0);
        assert_eq!(scaled_budget(1.0, 8, &policy), 0.5);
        assert_eq!(scaled_budget(1.0, 12, &policy), 0.0);
        assert_eq!(scaled_budget(1.0, 500, &policy), 0.0);
        // Midpoints interpolate linearly.
        let mid = scaled_budget(2.0, 6, &policy);
        assert!((mid - 1.5).abs() < 1e-12, "got {mid}");
    }

    #[test]
    fn scaled_budget_tolerates_degenerate_policy() {
        // hi <= lo must not divide by zero: hi is clamped to lo + 1.
        let policy = OverloadPolicy {
            backlog_lo: 8,
            backlog_hi: 8,
        };
        assert_eq!(scaled_budget(1.0, 8, &policy), 1.0);
        assert_eq!(scaled_budget(1.0, 9, &policy), 0.0);
    }
}
