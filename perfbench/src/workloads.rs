//! The workloads: inputs generated from the seed, the closed-loop stream
//! driver (`Simulator::session` + `Session::admit`) and the batch driver
//! (`run_batch_with`). Why each workload exists is written down in
//! `perfbench/README.md`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtrm_core::{ExactRm, HeuristicRm, ResourceManager};
use rtrm_platform::{Platform, TaskCatalog, Time, Trace};
use rtrm_predict::{MarkovHorizonPredictor, OraclePredictor, Predictor};
use rtrm_service::{merge_events, LoadEvent};
use rtrm_sim::{
    run_batch_with, BatchOptions, PhantomDeadline, Session, SimConfig, SimReport, SimScratch,
    Simulator, TraceStats,
};
use rtrm_trace::{generate_catalog, generate_traces, CatalogConfig, TraceConfig};

use crate::probe::{
    now_ns, process_cpu_ns, request_id, thread_cpu_ns, Layer, Mode, ProbedPredictor, ProbedRm,
    SharedLog, Span, TraceLog,
};
use crate::stats::Verdicts;

/// Node budget of the exact manager: the paper sweeps' "MILP" series.
pub const NODE_BUDGET: u64 = 25_000;

/// Workers of the batch pool: one per vCPU of the 2-vCPU reference guest.
pub const BATCH_WORKERS: usize = 2;

/// EWMA factor of the online Markov predictor, as in the horizon sweep.
const MARKOV_ALPHA: f64 = 0.5;

/// Seed of the task catalog (fixed; see README).
const CATALOG_SEED: u64 = 1;

/// Salt separating the trace seed from the catalog seed.
const TRACE_SALT: u64 = 0x7472_6163_6573;

/// The small pass the second-seed correctness check runs.
pub const CHECK_SCALE: Scale = Scale {
    groups: 1,
    traces: 4,
    length: 60,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper platform, LT traces, heuristic + online Markov predictor,
    /// closed-loop stream.
    StreamPaperLt,
    /// Paper platform, VT traces, budgeted exact manager + perfect oracle,
    /// `run_batch_with` on [`BATCH_WORKERS`] workers.
    BatchPaperExact,
}

/// The inputs of a run: `groups` trace groups of `traces` traces ×
/// `length` requests. A pass serves one group; a run walks the groups in
/// turn.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Trace groups.
    pub groups: usize,
    /// Traces per group.
    pub traces: usize,
    /// Requests per trace.
    pub length: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::StreamPaperLt, Workload::BatchPaperExact];

    /// The name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamPaperLt => "stream-paper-lt",
            Workload::BatchPaperExact => "batch-paper-exact",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the closed-loop stream workload.
    #[must_use]
    pub fn is_stream(self) -> bool {
        self == Workload::StreamPaperLt
    }

    /// The measured inputs.
    #[must_use]
    pub fn scale(self) -> Scale {
        match self {
            Workload::StreamPaperLt => Scale {
                groups: 1,
                traces: 32,
                length: 250,
            },
            // The decide median sits where the cheap decides of a lightly
            // loaded platform give way to long searches, so it follows the
            // traces' mix: a run draws as many traces as it can decide.
            // Groups of 16 keep a pass near 4 s, so a run overshoots
            // `--seconds` by little.
            Workload::BatchPaperExact => Scale {
                groups: 10,
                traces: 16,
                length: 125,
            },
        }
    }

    /// Generates the workload's inputs from `seed`.
    #[must_use]
    pub fn world(self, seed: u64, scale: Scale) -> World {
        let platform = Platform::paper_default();
        let catalog = generate_catalog(
            &platform,
            &CatalogConfig::paper(),
            &mut StdRng::seed_from_u64(CATALOG_SEED),
        );
        let (base, phantom) = match self {
            Workload::StreamPaperLt => (TraceConfig::calibrated_lt(), 2.0),
            Workload::BatchPaperExact => (TraceConfig::calibrated_vt(), 1.5),
        };
        let cfg = TraceConfig {
            length: scale.length,
            ..base
        };
        let traces = generate_traces(
            &catalog,
            &cfg,
            scale.groups * scale.traces,
            seed ^ TRACE_SALT,
        );
        let groups = traces
            .chunks(scale.traces)
            .map(|traces| Group {
                events: if self.is_stream() {
                    merge_events(traces)
                } else {
                    Vec::new()
                },
                traces: traces.to_vec(),
            })
            .collect();
        World {
            workload: self,
            platform,
            catalog,
            config: SimConfig {
                phantom_deadline: PhantomDeadline::MinWcetTimes(phantom),
                ..SimConfig::default()
            },
            groups,
        }
    }
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct World {
    /// Which workload this is.
    pub workload: Workload,
    /// The platform.
    pub platform: Platform,
    /// Task types.
    pub catalog: TaskCatalog,
    /// Simulator configuration.
    pub config: SimConfig,
    /// The trace groups, one per pass.
    pub groups: Vec<Group>,
}

/// The traces one pass serves.
#[derive(Debug)]
pub struct Group {
    /// Request traces.
    pub traces: Vec<Trace>,
    /// The traces merged by arrival (stream workloads only).
    pub events: Vec<LoadEvent>,
}

/// The serving state of one trace in a stream pass, as a service shard
/// worker holds it.
pub struct Slot {
    session: Session,
    manager: Box<dyn ResourceManager>,
    predictor: Option<Box<dyn Predictor>>,
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// The group served.
    pub group: usize,
    /// Admit (stream) or decide (batch) thread CPU time of every verdict.
    pub latency_ns: Vec<u64>,
    /// Time the throughput divides by, on the CPU clock: summed admit time
    /// (stream) or the pool's CPU time (batch).
    pub busy_ns: u64,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Requests attempted.
    pub requests: usize,
    /// Requests whose admit panicked or whose trace was quarantined.
    pub failed: usize,
    /// Drained report per trace (`None`: the trace failed).
    pub reports: Vec<Option<SimReport>>,
    /// Verdicts per trace.
    pub verdicts: Vec<Verdicts>,
    /// Spans and counters per trace (traced passes only).
    pub logs: Vec<TraceLog>,
}

impl World {
    /// A simulator over this world.
    #[must_use]
    pub fn simulator(&self) -> Simulator<'_> {
        Simulator::new(&self.platform, &self.catalog, self.config.clone())
    }

    /// Fresh sessions, managers and predictors for every trace of group
    /// `g`; probed when `logs` is given.
    #[must_use]
    pub fn slots(&self, g: usize, logs: Option<&[SharedLog]>) -> Vec<Slot> {
        let simulator = self.simulator();
        (0..self.groups[g].traces.len())
            .map(|t| {
                let log = logs.map(|l| Arc::clone(&l[t]));
                let manager: Box<dyn ResourceManager> = match &log {
                    Some(log) => Box::new(ProbedRm::new(
                        HeuristicRm::new(),
                        t,
                        Mode::Traced,
                        Arc::clone(log),
                    )),
                    None => Box::new(HeuristicRm::new()),
                };
                let predictor: Option<Box<dyn Predictor>> =
                    (self.workload == Workload::StreamPaperLt).then(|| {
                        let markov = MarkovHorizonPredictor::new(self.catalog.len(), MARKOV_ALPHA);
                        match log {
                            Some(log) => {
                                Box::new(ProbedPredictor::new(markov, t, log)) as Box<dyn Predictor>
                            }
                            None => Box::new(markov),
                        }
                    });
                Slot {
                    session: simulator.session(Time::ZERO),
                    manager,
                    predictor,
                }
            })
            .collect()
    }

    /// One closed-loop pass over group `g`: a single worker admits every
    /// merged event when the previous verdict returns, over one warm
    /// `scratch`. `traced` records an admit span per request beside the
    /// probes' spans.
    pub fn stream_pass(
        &self,
        g: usize,
        scratch: &mut SimScratch,
        mut slots: Vec<Slot>,
        traced: Option<&[SharedLog]>,
    ) -> Pass {
        let simulator = self.simulator();
        let group = &self.groups[g];
        let n = group.traces.len();
        let mut verdicts = vec![Verdicts::default(); n];
        let mut failed_trace = vec![false; n];
        let mut pass = Pass {
            group: g,
            latency_ns: Vec::with_capacity(group.events.len()),
            requests: group.events.len(),
            ..Pass::default()
        };
        let began = Instant::now();
        for event in &group.events {
            let t = event.trace;
            if failed_trace[t] {
                pass.failed += 1;
                continue;
            }
            let slot = &mut slots[t];
            let (start, cpu) = (now_ns(), thread_cpu_ns());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                slot.session.admit(
                    &simulator,
                    &event.request,
                    slot.manager.as_mut(),
                    slot.predictor
                        .as_mut()
                        .map(|p| &mut **p as &mut dyn Predictor),
                    scratch,
                )
            }));
            let (cpu, end) = (thread_cpu_ns() - cpu, now_ns());
            match outcome {
                Ok(decision) => {
                    pass.latency_ns.push(cpu);
                    pass.busy_ns += cpu;
                    verdicts[t].push(event.request.id.index(), &decision);
                    if let Some(logs) = traced {
                        logs[t]
                            .lock()
                            .expect("trace log lock poisoned")
                            .spans
                            .push(Span {
                                layer: Layer::Sim,
                                id: request_id(t, event.request.id.index()),
                                start,
                                end,
                            });
                    }
                }
                Err(_) => {
                    // Like a quarantined batch trace: the trace's remaining
                    // requests fail, and the scratch the panic may have left
                    // half-updated is rebuilt.
                    pass.failed += 1;
                    failed_trace[t] = true;
                    *scratch = SimScratch::new();
                    scratch.prime(&simulator);
                }
            }
        }
        pass.wall_ns = began.elapsed().as_nanos() as u64;
        pass.reports = slots
            .into_iter()
            .zip(&failed_trace)
            .map(|(slot, &failed)| (!failed).then(|| slot.session.into_report(&simulator, scratch)))
            .collect();
        pass.verdicts = verdicts;
        pass.logs = traced.map(take_logs).unwrap_or_default();
        pass
    }

    /// One batch pass: every trace of group `g` through `run_batch_with`
    /// on [`BATCH_WORKERS`] workers, each trace with its own budgeted exact
    /// manager and perfect oracle.
    #[must_use]
    pub fn batch_pass(&self, g: usize, mode: Mode) -> Pass {
        let traces = &self.groups[g].traces;
        let n = traces.len();
        let logs: Vec<SharedLog> = (0..n).map(|_| SharedLog::default()).collect();
        let traced = mode == Mode::Traced;
        let on_trace = |stats: &TraceStats| {
            let end = now_ns();
            logs[stats.trace]
                .lock()
                .expect("trace log lock poisoned")
                .spans
                .push(Span {
                    layer: Layer::Sim,
                    id: request_id(stats.trace, 0),
                    start: end.saturating_sub(stats.nanos),
                    end,
                });
        };
        let options = BatchOptions {
            workers: Some(BATCH_WORKERS),
            chunk: None,
            on_trace: traced.then_some(&on_trace as &(dyn Fn(&TraceStats) + Sync)),
        };
        let (began, cpu) = (Instant::now(), process_cpu_ns());
        let (reports, stats) = run_batch_with(
            &self.platform,
            &self.catalog,
            &self.config,
            traces,
            |t| {
                Box::new(ProbedRm::new(
                    ExactRm::with_node_budget(NODE_BUDGET),
                    t,
                    mode,
                    Arc::clone(&logs[t]),
                ))
            },
            |t| {
                let oracle = OraclePredictor::perfect(&traces[t], self.catalog.len());
                Some(if traced {
                    Box::new(ProbedPredictor::new(oracle, t, Arc::clone(&logs[t])))
                } else {
                    Box::new(oracle)
                })
            },
            &options,
        );
        // The calling thread only waits for the pool, so the process's CPU
        // time is the workers'.
        let (cpu, wall_ns) = (process_cpu_ns() - cpu, began.elapsed().as_nanos() as u64);
        let mut reports = reports.into_iter();
        let quarantined: Vec<usize> = stats.quarantined.iter().map(|f| f.trace).collect();
        let logs = take_logs(&logs);
        Pass {
            group: g,
            latency_ns: logs
                .iter()
                .flat_map(|l| l.decide_cpu_ns.iter().copied())
                .collect(),
            busy_ns: cpu,
            wall_ns,
            requests: traces.iter().map(Trace::len).sum(),
            failed: quarantined.iter().map(|&t| traces[t].len()).sum(),
            reports: (0..n)
                .map(|t| {
                    if quarantined.contains(&t) {
                        None
                    } else {
                        reports.next()
                    }
                })
                .collect(),
            verdicts: logs.iter().map(|l| l.verdicts).collect(),
            logs: if traced { logs } else { Vec::new() },
        }
    }
}

fn take_logs(logs: &[SharedLog]) -> Vec<TraceLog> {
    logs.iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("trace log lock poisoned")))
        .collect()
}
