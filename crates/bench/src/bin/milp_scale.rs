//! Exact-backend scaling bench: `decide()` latency of the warm-started,
//! presolved `ExactRm` against its cold/unpresolved baseline on a contended
//! fixture, sweeping the platform up to 512 resources. Records
//! `BENCH_milp.json` at the workspace root (see README, "Performance"); run
//! in release:
//!
//! ```text
//! cargo run --release -p rtrm-bench --bin milp_scale
//! ```
//!
//! With `--ladder-only` it runs the `milp_ladder_decide` rows alone (a few
//! seconds), writes no file, and exits 1 when the speedup at 128 or 512
//! resources falls below [`LADDER_BAR`], the bar `bench_json_schema.rs`
//! holds the recorded file to; `ci.sh` runs it so, since the warm start's
//! seed is what the speedup measures.
//!
//! The fixture is adversarial for a cold depth-first search and friendly to
//! the paper's regret heuristic — the regime warm starts are for. Resources
//! come in pairs of tasks (A, B) contending for one shared slot `r`:
//!
//! * task A: energy 1.0 on `r`, 1.2 on a private alternate, expensive on a
//!   third resource;
//! * task B: energy 1.01 on `r`, expensive (~E) on two private resources.
//!
//! The branching order (most-constrained, then largest spread) interleaves
//! A before its B, so the cold search greedily parks every A on its `r`,
//! forcing every B to an expensive fallback — a first incumbent ~E/2.2
//! times costlier than the optimum (A on the alternate, B on `r`), which it
//! then walks down pair by pair, re-exploring suffixes as it goes. The
//! regret heuristic resolves each pair correctly up front (B's regret ~E
//! dwarfs A's 0.2), so the warm-started search begins at the optimum and
//! the injected-incumbent bound collapses that whole walk. Decisions are
//! identical either way (`warmstart_differential.rs`); only the time
//! differs.
//!
//! A second series, `milp_lt_budget`, runs the sweeps' budgeted exact
//! manager (`ExactRm::with_node_budget(25_000)`) over fig2's LT
//! prediction-off cell (40 calibrated LT traces × 200 requests, seed 1, the
//! paper's 6 resources) and records the search's deterministic work: the
//! decides, nodes per decide, and the share of decides admitted by a search
//! whose `Decision::nodes` reached the budget. Without a phantom the
//! ladder's one rung is the whole search, and a rejection reports 0 nodes.
//! Its times are wall ns per request of the cell's simulation (decides
//! and all), defaults against the cold/unpresolved baseline at the same
//! budget.
//!
//! A third series, `milp_vt_phantom`, runs a VT perfect-phantom cell (160
//! calibrated VT traces × 125 requests, seed 1, perfect oracle, fig2's
//! phantom deadline) through the
//! budgeted manager and through the unbudgeted `ExactRm::new()`, and counts
//! the traces whose budgeted report (the search's node count aside) differs
//! from the unbudgeted one: what the 25 000-node budget still changes where
//! the ladder plans around a phantom released after `now`. Its
//! `baseline_ns` is the unbudgeted manager's wall ns per request, its
//! `warm_ns` the budgeted one's.

use rtrm_bench::{workload, Group, Scale};
use rtrm_core::{Activation, Decision, ExactRm, JobView, ResourceManager, TimelinePool};
use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, TaskTypeId, Time};
use rtrm_predict::OraclePredictor;
use rtrm_sched::JobKey;
use rtrm_sim::{PhantomDeadline, SimConfig, SimReport, Simulator};

/// The resource-count sweep: the scaling axis of `BENCH_platform.json`.
const RESOURCES: [usize; 3] = [32, 128, 512];

/// Each contended pair owns five resources (shared slot, A's alternate,
/// A's expensive third, B's two expensive fallbacks); two more host the
/// arriving job and the phantom.
fn pairs(m: usize) -> usize {
    (m - 2) / 5
}

/// Execution time of every placement; deadlines equal it, so each resource
/// holds exactly one task and the pairs genuinely contend.
const EXEC: f64 = 4.0;

fn world(m: usize) -> (Platform, TaskCatalog) {
    let k = pairs(m);
    let mut builder = Platform::builder();
    for i in 0..m {
        builder.cpu(format!("c{i}"));
    }
    let platform = builder.build();
    let ids: Vec<_> = platform.ids().collect();

    let mut types = Vec::new();
    for p in 0..k {
        // Strictly decreasing expensive tiers keep every spread distinct,
        // pinning the deterministic branch order A_0, B_0, A_1, B_1, …
        let e = 60.0 - p as f64 * 0.02;
        let base = 5 * p;
        let mut a = TaskType::builder(2 * p, &platform);
        a.profile(ids[base], Time::new(EXEC), Energy::new(1.0));
        a.profile(ids[base + 1], Time::new(EXEC), Energy::new(1.2));
        a.profile(ids[base + 2], Time::new(EXEC), Energy::new(e));
        types.push(a.build());
        let mut b = TaskType::builder(2 * p + 1, &platform);
        b.profile(ids[base], Time::new(EXEC), Energy::new(1.01));
        b.profile(ids[base + 3], Time::new(EXEC), Energy::new(e - 0.012));
        b.profile(ids[base + 4], Time::new(EXEC), Energy::new(e - 0.008));
        types.push(b.build());
    }
    // The arriving task and the phantom each get a private uncontended
    // resource, so every fixture admits and the ladder's phantom rung is
    // the one measured.
    let mut arr = TaskType::builder(2 * k, &platform);
    arr.profile(ids[5 * k], Time::new(EXEC), Energy::new(1.0));
    types.push(arr.build());
    let mut ph = TaskType::builder(2 * k + 1, &platform);
    ph.profile(ids[5 * k + 1], Time::new(EXEC), Energy::new(1.0));
    types.push(ph.build());
    (platform, TaskCatalog::new(types))
}

/// One ready job per pair member, all released now with deadlines one
/// execution away, plus the arriving job and one phantom.
fn fixture(m: usize) -> (Vec<JobView>, JobView, Vec<JobView>) {
    let k = pairs(m);
    let now = Time::ZERO;
    let deadline = now + Time::new(EXEC);
    let active: Vec<JobView> = (0..2 * k)
        .map(|i| JobView::fresh(JobKey(i as u64), TaskTypeId::new(i), now, deadline))
        .collect();
    let arriving = JobView::fresh(JobKey(10_000), TaskTypeId::new(2 * k), now, deadline);
    let release = now + Time::new(0.5);
    let predicted = vec![JobView::fresh(
        JobKey(10_001),
        TaskTypeId::new(2 * k + 1),
        release,
        release + Time::new(EXEC),
    )];
    (active, arriving, predicted)
}

/// The sweeps' exact-manager budget.
const BUDGET: u64 = 25_000;

/// The least `milp_ladder_decide` speedup at 128 and 512 resources.
const LADDER_BAR: f64 = 3.0;

/// Wraps a manager and tallies its decisions: count, nodes, and admitted
/// decisions whose search reached [`BUDGET`].
struct Tally<M> {
    inner: M,
    decides: u64,
    nodes: u64,
    cut: u64,
}

impl<M> Tally<M> {
    fn record(&mut self, decision: Decision) -> Decision {
        self.decides += 1;
        self.nodes += decision.nodes;
        if decision.admitted && decision.nodes >= BUDGET {
            self.cut += 1;
        }
        decision
    }
}

impl<M: ResourceManager> ResourceManager for Tally<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        let decision = self.inner.decide(activation);
        self.record(decision)
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        let decision = self.inner.decide_with_pool(activation, pool);
        self.record(decision)
    }
}

/// Runs `manager` over fig2's LT prediction-off cell; returns the tally and
/// the run's wall nanoseconds.
fn lt_cell(manager: ExactRm) -> (Tally<ExactRm>, f64) {
    let scale = Scale {
        traces: 40,
        trace_len: 200,
        seed: 1,
    };
    let w = workload(&[Group::Lt], scale);
    let sim = Simulator::new(&w.platform, &w.catalog, SimConfig::default());
    let mut tally = Tally {
        inner: manager,
        decides: 0,
        nodes: 0,
        cut: 0,
    };
    let start = std::time::Instant::now();
    for trace in &w.traces[0].1 {
        std::hint::black_box(sim.run(trace, &mut tally, None));
    }
    (tally, start.elapsed().as_nanos() as f64)
}

/// Runs `manager` over the VT perfect-phantom cell; returns each trace's
/// report with its node count cleared, and the run's wall nanoseconds.
fn vt_phantom_cell(mut manager: ExactRm) -> (Vec<SimReport>, f64) {
    let scale = Scale {
        traces: 160,
        trace_len: 125,
        seed: 1,
    };
    let w = workload(&[Group::Vt], scale);
    let config = SimConfig {
        phantom_deadline: PhantomDeadline::MinWcetTimes(Group::Vt.phantom_coefficient()),
        record_task_log: true,
        ..SimConfig::default()
    };
    let sim = Simulator::new(&w.platform, &w.catalog, config);
    let start = std::time::Instant::now();
    let reports: Vec<SimReport> = w.traces[0]
        .1
        .iter()
        .map(|trace| {
            let mut oracle = OraclePredictor::perfect(trace, w.catalog.len());
            sim.run(trace, &mut manager, Some(&mut oracle))
        })
        .collect();
    let elapsed = start.elapsed().as_nanos() as f64;
    let reports = reports
        .into_iter()
        .map(|report| SimReport {
            rm_nodes: 0,
            ..report
        })
        .collect();
    (reports, elapsed)
}

/// Mean ns per call over a self-calibrated iteration count.
fn measure<R>(mut f: impl FnMut() -> R) -> f64 {
    let warmup = std::time::Instant::now();
    let mut calibration = 0u64;
    while warmup.elapsed() < std::time::Duration::from_millis(5) {
        std::hint::black_box(f());
        calibration += 1;
    }
    let iters = calibration.max(1) * 6;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let ladder_only = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--ladder-only") => true,
        Some(other) => {
            eprintln!("milp_scale: unknown argument {other:?} (expected --ladder-only)");
            std::process::exit(2);
        }
    };
    let mut rows = Vec::new();
    let mut below_bar = Vec::new();

    // The MILP-series ladder (ExactRm, the exact backend the simulator
    // runs): defaults (warm start + presolve) vs both disabled.
    for m in RESOURCES {
        let (platform, catalog) = world(m);
        let (active, arriving, predicted) = fixture(m);
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        };
        let mut pool = TimelinePool::new();
        pool.ensure_index(&platform, &catalog);
        let mut warm = ExactRm::new();
        let warm_ns = measure(|| warm.decide_with_pool(&activation, &mut pool));
        let mut cold_pool = TimelinePool::new();
        cold_pool.ensure_index(&platform, &catalog);
        let mut cold = ExactRm {
            warm_start: false,
            presolve: false,
            ..ExactRm::default()
        };
        let baseline_ns = measure(|| cold.decide_with_pool(&activation, &mut cold_pool));
        let speedup = baseline_ns / warm_ns;
        println!(
            "milp scale: series=milp_ladder_decide resources={m:>4} \
             cold={baseline_ns:.0}ns warm={warm_ns:.0}ns speedup={speedup:.2}x"
        );
        rows.push(format!(
            "    {{\"series\": \"milp_ladder_decide\", \"depth\": {m}, \"baseline_ns\": \
             {baseline_ns:.1}, \"warm_ns\": {warm_ns:.1}, \"speedup\": {speedup:.2}}}"
        ));
        if m >= 128 && speedup < LADDER_BAR {
            below_bar.push(format!("{speedup:.2}x at {m} resources"));
        }
    }
    if ladder_only {
        if !below_bar.is_empty() {
            eprintln!(
                "milp_scale: milp_ladder_decide below {LADDER_BAR}x: {}",
                below_bar.join(", ")
            );
            std::process::exit(1);
        }
        return;
    }

    // The budget-bound LT cell: deterministic search work of the defaults,
    // and ns per request against the cold/unpresolved baseline.
    let (warm, warm_total) = lt_cell(ExactRm::with_node_budget(BUDGET));
    let (cold, cold_total) = lt_cell(ExactRm {
        warm_start: false,
        presolve: false,
        ..ExactRm::with_node_budget(BUDGET)
    });
    assert_eq!(warm.decides, cold.decides, "both runs see every request");
    let decides = warm.decides as f64;
    let (warm_ns, baseline_ns) = (warm_total / decides, cold_total / decides);
    let nodes_per_decide = warm.nodes as f64 / decides;
    let budget_cut_share = warm.cut as f64 / decides;
    let speedup = baseline_ns / warm_ns;
    println!(
        "milp scale: series=milp_lt_budget decides={} nodes/decide={nodes_per_decide:.1} \
         budget-cut admits={} ({budget_cut_share:.4}) cold={baseline_ns:.0}ns \
         warm={warm_ns:.0}ns speedup={speedup:.2}x",
        warm.decides, warm.cut
    );
    rows.push(format!(
        "    {{\"series\": \"milp_lt_budget\", \"depth\": {}, \"decides\": {}, \
         \"nodes_per_decide\": {nodes_per_decide:.1}, \"budget_cut_admits\": {}, \
         \"budget_cut_share\": {budget_cut_share:.4}, \"baseline_ns\": {baseline_ns:.1}, \
         \"warm_ns\": {warm_ns:.1}, \"speedup\": {speedup:.2}}}",
        Platform::paper_default().len(),
        warm.decides,
        warm.cut
    ));

    // The VT perfect-phantom cell: what the budget still changes.
    let (budgeted, budgeted_total) = vt_phantom_cell(ExactRm::with_node_budget(BUDGET));
    let (unbudgeted, unbudgeted_total) = vt_phantom_cell(ExactRm::new());
    // One decide per request.
    let decides: usize = budgeted.iter().map(|report| report.requests).sum();
    let differing = budgeted
        .iter()
        .zip(&unbudgeted)
        .filter(|(a, b)| a != b)
        .count();
    let (warm_ns, baseline_ns) = (
        budgeted_total / decides as f64,
        unbudgeted_total / decides as f64,
    );
    let speedup = baseline_ns / warm_ns;
    println!(
        "milp scale: series=milp_vt_phantom decides={decides} traces={} \
         differing={differing} unbudgeted={baseline_ns:.0}ns budgeted={warm_ns:.0}ns \
         speedup={speedup:.2}x",
        budgeted.len()
    );
    rows.push(format!(
        "    {{\"series\": \"milp_vt_phantom\", \"depth\": {}, \"decides\": {decides}, \
         \"traces\": {}, \"differing_traces\": {differing}, \"baseline_ns\": {baseline_ns:.1}, \
         \"warm_ns\": {warm_ns:.1}, \"speedup\": {speedup:.2}}}",
        Platform::paper_default().len(),
        budgeted.len()
    ));

    let json = format!(
        "{{\n  \"bench\": \"milp_scale\",\n  \"units\": \"ns_per_call\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_milp.json");
    std::fs::write(path, json).expect("write BENCH_milp.json");
    println!("wrote {path}");
}
