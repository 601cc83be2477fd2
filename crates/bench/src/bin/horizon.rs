//! Horizon-depth scaling bench for `decide()`: latency of a with-phantom
//! decision as the admitted horizon grows from one phantom to eight, for
//! both managers, with the no-phantom decision as the baseline. Asserts the
//! fast-path invariant along the way: at every depth, every probe is
//! answered by the incremental timelines, with zero engine verdicts across
//! the pool. The fixture never puts two phantoms in one GPU queue; the
//! GPU's multi-release walk is guarded by `tests/deep_timeline.rs` and
//! `crates/core/tests/phantom_fastpath.rs` instead. Records
//! `BENCH_horizon.json` at the workspace root (see README, "Performance");
//! run in release:
//!
//! ```text
//! cargo run --release -p rtrm-bench --bin horizon
//! ```
//!
//! The fixture is the decide() hot path at a fixed standing queue depth on
//! a paper-scale platform — the sweep isolates the *horizon-depth* axis,
//! complementing `BENCH_platform.json`'s resource-count axis.

use rtrm_core::{
    Activation, ExactRm, HeuristicRm, JobView, Placement, ResourceManager, TimelinePool,
};
use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, TaskTypeId, Time};
use rtrm_sched::JobKey;

/// The horizon-depth sweep: the legacy single phantom, then deeper rungs.
const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Standing queue depth held constant across the sweep.
const ACTIVE: usize = 16;

/// A paper-scale platform — five CPUs mixing DVFS ladders plus one GPU, so
/// the preemptable/run-to-completion split is real — and one universally
/// executable type with a deterministic, non-trivial energy landscape.
fn world() -> (Platform, TaskCatalog) {
    let mut builder = Platform::builder();
    for i in 0..5 {
        match i % 3 {
            0 => builder.cpu(format!("c{i}")),
            1 => builder.cpu_with_dvfs(format!("c{i}"), &[0.5, 1.0]),
            _ => builder.cpu_with_dvfs(format!("c{i}"), &[0.25, 0.5, 1.0, 2.0]),
        };
    }
    builder.gpu("g");
    let platform = builder.build();
    let mut b = TaskType::builder(0, &platform);
    for (i, r) in platform.ids().enumerate() {
        let energy = 3.0 + ((i * 7) % 13) as f64 * 0.5;
        b.profile(r, Time::new(4.0), Energy::new(energy));
    }
    let ty = b
        .uniform_migration(Time::new(0.5), Energy::new(0.25))
        .build();
    (platform, TaskCatalog::new(vec![ty]))
}

/// A synthetic activation at depth [`ACTIVE`]: loosely placed active jobs
/// spread over the platform, one fresh arrival, and `k` genuinely future
/// phantoms with staggered releases (so every rung of the fallback ladder
/// has future work to defer).
fn fixture(platform: &Platform, k: usize) -> (Vec<JobView>, JobView, Vec<JobView>) {
    let now = Time::ZERO;
    let active: Vec<JobView> = (0..ACTIVE)
        .map(|i| {
            let slack = 1_000.0 + i as f64;
            let mut job = JobView::fresh(
                JobKey(i as u64),
                TaskTypeId::new(0),
                now,
                now + Time::new(4.0 * slack),
            );
            job.placement = Some(Placement {
                resource: rtrm_platform::ResourceId::new(i % platform.len()),
                remaining_fraction: 0.5 + 0.4 * ((i % 5) as f64 / 5.0),
                started: true,
                speed: 1.0,
            });
            job
        })
        .collect();
    let arriving = JobView::fresh(
        JobKey(10_000),
        TaskTypeId::new(0),
        now,
        now + Time::new(5_000.0),
    );
    let predicted = (0..k)
        .map(|i| {
            JobView::fresh(
                JobKey(10_001 + i as u64),
                TaskTypeId::new(0),
                now + Time::new(2.0 * (i + 1) as f64),
                now + Time::new(6_000.0 + 10.0 * i as f64),
            )
        })
        .collect();
    (active, arriving, predicted)
}

/// Mean ns per call over a self-calibrated iteration count (~30 ms).
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
    let (platform, catalog) = world();
    let mut rows = Vec::new();
    let mut push_row = |series: &str, depth: usize, baseline_ns: f64, decide_ns: f64| {
        let ratio = decide_ns / baseline_ns;
        println!(
            "horizon: series={series} k={depth} baseline={baseline_ns:.0}ns \
             decide={decide_ns:.0}ns ratio={ratio:.2}x engine_verdicts=0"
        );
        rows.push(format!(
            "    {{\"series\": \"{series}\", \"depth\": {depth}, \"baseline_ns\": \
             {baseline_ns:.1}, \"decide_ns\": {decide_ns:.1}, \"ratio\": {ratio:.2}, \
             \"engine_verdicts\": 0}}"
        ));
    };

    // Heuristic at every depth; branch & bound at the depths its ladder
    // tolerates under a node budget. The k = 0 decision on the same fixture
    // is each series' baseline.
    type MakeRm = fn() -> Box<dyn ResourceManager>;
    let configurations: [(&str, &[usize], MakeRm); 2] = [
        ("heuristic_decide", &DEPTHS[..], || {
            Box::new(HeuristicRm::new())
        }),
        ("exact_decide", &DEPTHS[..3], || {
            Box::new(ExactRm::with_node_budget(2_000))
        }),
    ];
    for (series, depths, make) in configurations {
        let (active, arriving, _) = fixture(&platform, 0);
        let base_activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &[],
        };
        let mut pool = TimelinePool::new();
        pool.ensure_index(&platform, &catalog);
        let mut manager = make();
        let baseline_ns = measure(|| manager.decide_with_pool(&base_activation, &mut pool));

        for &k in depths {
            let (active, arriving, predicted) = fixture(&platform, k);
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
            let mut manager = make();
            let decide_ns = measure(|| manager.decide_with_pool(&activation, &mut pool));
            assert_eq!(
                pool.engine_verdicts(),
                0,
                "{series} k={k}: a probe left the incremental fast path"
            );
            push_row(series, k, baseline_ns, decide_ns);
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"horizon\",\n  \"units\": \"ns_per_call\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_horizon.json");
    std::fs::write(path, json).expect("write BENCH_horizon.json");
    println!("wrote {path}");
}
