//! Per-layer metrics of a traced run, folded from the spans and counters the
//! probes recorded. `sim` self time is the admit (or batch trace) span minus
//! its `core` and `predict` children.

use std::collections::HashMap;

use crate::probe::{Layer, Span};
use crate::stats::{percentile, sorted};
use crate::workloads::{Pass, NODE_BUDGET};

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Timings taken outside the traced passes.
#[derive(Debug, Clone, Copy)]
pub struct Outside {
    /// Median `SimScratch::prime` time (ms).
    pub index_build_ms: f64,
    /// Median catalog + trace generation time (ms).
    pub generate_ms: f64,
    /// Untraced against traced throughput (%).
    pub overhead_pct: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Folds the traced `passes` into the per-layer metrics. `workers` is the
/// number of threads that ran the passes; `per_request` is set when every
/// request has its own `Sim` (admit) span, as on the stream workloads.
/// Returns the metrics and, under `per_request`, the number of
/// `core`/`predict` spans that fell outside their admit span.
#[must_use]
pub fn per_layer(
    passes: &[Pass],
    workers: usize,
    per_request: bool,
    outside: Outside,
) -> (Vec<Metric>, usize) {
    let (mut sim_ns, mut core_ns, mut predict_ns) = (0u64, 0u64, 0u64);
    let mut decide_us = Vec::new();
    let mut trace_ms = Vec::new();
    let mut misnested = 0usize;
    let (mut nodes, mut budget_hits, mut offered, mut used) = (0u64, 0u64, 0u64, 0u64);
    let (mut active, mut degraded, mut timeouts) = (0u64, 0u64, 0u64);
    let (mut widened, mut indexed, mut owned, mut engine) = (0u64, 0u64, 0u64, 0u64);
    let mut depth_max = 0usize;
    for log in passes.iter().flat_map(|p| &p.logs) {
        let parents: HashMap<u64, &Span> = log
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Sim)
            .map(|s| (s.id, s))
            .collect();
        let mut trace_sim = 0u64;
        for span in &log.spans {
            match span.layer {
                Layer::Sim => trace_sim += span.nanos(),
                Layer::Core => core_ns += span.nanos(),
                Layer::Predict => predict_ns += span.nanos(),
            }
            if per_request && span.layer != Layer::Sim {
                let inside = parents
                    .get(&span.id)
                    .is_some_and(|p| p.start <= span.start && span.end <= p.end);
                misnested += usize::from(!inside);
            }
        }
        sim_ns += trace_sim;
        decide_us.extend(log.decide_cpu_ns.iter().map(|&ns| ns as f64 / 1e3));
        trace_ms.push(trace_sim as f64 / 1e6);
        for c in &log.counts {
            nodes += c.nodes;
            budget_hits += u64::from(c.nodes >= NODE_BUDGET);
            offered += u64::from(c.phantom_offered);
            used += u64::from(c.phantom_offered && c.used_prediction);
            active += c.active_jobs as u64;
            degraded += u64::from(c.degraded);
            timeouts += u64::from(c.solver_timeouts);
            widened += c.widened;
            indexed += c.indexed_rows;
            owned += c.owned_rows;
            engine += c.engine_verdicts;
            depth_max = depth_max.max(c.queue_depth);
        }
    }
    let requests: usize = passes.iter().map(|p| p.requests).sum();
    let wall_ns: u64 = passes.iter().map(|p| p.wall_ns).sum();
    let decides = decide_us.len() as f64;
    let per_pass = passes.len().max(1) as f64;
    let decide_us = sorted(decide_us);
    let trace_ms = sorted(trace_ms);
    let per_request_us = |ns: u64| ratio(ns as f64 / 1e3, requests as f64);
    let metrics = vec![
        ("sim.admit_us", per_request_us(sim_ns), "us"),
        (
            "sim.self_us",
            per_request_us(sim_ns.saturating_sub(core_ns + predict_ns)),
            "us",
        ),
        (
            "sim.batch_efficiency",
            ratio(sim_ns as f64, (workers as u64 * wall_ns) as f64),
            "ratio",
        ),
        ("sim.trace_ms_p50", percentile(&trace_ms, 0.5), "ms"),
        ("sim.trace_ms_max", percentile(&trace_ms, 1.0), "ms"),
        ("core.decide_p50_us", percentile(&decide_us, 0.5), "us"),
        ("core.decide_p99_us", percentile(&decide_us, 0.99), "us"),
        (
            "core.decide_share",
            ratio(core_ns as f64, sim_ns as f64),
            "ratio",
        ),
        (
            "core.nodes_per_decide",
            ratio(nodes as f64, decides),
            "count",
        ),
        (
            "core.node_budget_hits",
            budget_hits as f64 / per_pass,
            "count",
        ),
        (
            "core.phantom_used_share",
            ratio(used as f64, offered as f64),
            "ratio",
        ),
        (
            "core.active_jobs_mean",
            ratio(active as f64, decides),
            "count",
        ),
        ("core.degraded", degraded as f64 / per_pass, "count"),
        ("core.solver_timeouts", timeouts as f64 / per_pass, "count"),
        (
            "core.prune.widened_per_decide",
            ratio(widened as f64, decides),
            "count",
        ),
        (
            "core.prune.indexed_share",
            ratio(indexed as f64, (indexed + owned) as f64),
            "ratio",
        ),
        (
            "sched.engine_verdicts_per_decide",
            ratio(engine as f64, decides),
            "count",
        ),
        ("sched.queue_depth_max", depth_max as f64, "count"),
        ("predict.us_per_admit", per_request_us(predict_ns), "us"),
        ("platform.index_build_ms", outside.index_build_ms, "ms"),
        ("trace.generate_ms", outside.generate_ms, "ms"),
        ("tracing.overhead_pct", outside.overhead_pct, "%"),
        ("tracing.decides", decides, "count"),
    ];
    (metrics, misnested)
}
