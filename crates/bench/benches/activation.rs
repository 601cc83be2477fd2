//! Activation-latency benches for the incremental EDF admission path: the
//! managers' decide() with the persistent [`rtrm_sched::EdfTimeline`]
//! against the pre-incremental memoized-engine baseline
//! (`oracle_feasibility`), plus an end-to-end trace run of the same
//! simulator under each feasibility mode. The sweep records
//! `BENCH_activation.json` at the workspace root (see README,
//! "Performance").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rtrm_core::{Activation, ExactRm, HeuristicRm, JobView, Placement, ResourceManager};
use rtrm_platform::{
    Energy, Platform, Request, RequestId, TaskCatalog, TaskType, TaskTypeId, Time, Trace,
};
use rtrm_sched::JobKey;
use rtrm_sim::{SimConfig, Simulator};

const DEPTHS: [usize; 4] = [8, 32, 128, 512];

/// A platform and a catalog with one universally executable type whose
/// energies differ per resource (so the managers have real choices to rank).
fn world() -> (Platform, TaskCatalog) {
    let platform = Platform::builder().cpus(3).gpu("gpu").build();
    let ids: Vec<_> = platform.ids().collect();
    let mut b = TaskType::builder(0, &platform);
    for (i, &r) in ids.iter().enumerate() {
        b.profile(r, Time::new(4.0), Energy::new(3.0 + i as f64));
    }
    let ty = b
        .uniform_migration(Time::new(0.5), Energy::new(0.25))
        .build();
    (platform, TaskCatalog::new(vec![ty]))
}

/// A synthetic activation with `n` active, loosely placed tasks — the
/// decide() hot path at standing queue depth `n`.
fn activation_fixture(platform: &Platform, n: usize) -> (Vec<JobView>, JobView) {
    let now = Time::ZERO;
    let active: Vec<JobView> = (0..n)
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
                started: i % platform.len() != platform.len() - 1 || i < platform.len(),
                speed: 1.0,
            });
            job
        })
        .collect();
    let arriving = JobView::fresh(
        JobKey(10_000),
        TaskTypeId::new(0),
        now,
        now + Time::new(4_000.0),
    );
    (active, arriving)
}

/// A trace that builds a standing queue of `depth` warmup tasks (huge
/// slack) and then drives 100 steady requests through it, arriving faster
/// than the platform drains.
fn deep_trace(depth: usize) -> Trace {
    let mut requests: Vec<Request> = (0..depth)
        .map(|i| Request {
            id: RequestId::new(i),
            arrival: Time::new(i as f64 * 1e-3),
            task_type: TaskTypeId::new(0),
            deadline: Time::new(1e6 + i as f64),
        })
        .collect();
    for i in 0..100 {
        requests.push(Request {
            id: RequestId::new(depth + i),
            arrival: Time::new(1.0 + i as f64 * 0.05),
            task_type: TaskTypeId::new(0),
            deadline: Time::new(1e6 + (depth + i) as f64),
        });
    }
    Trace::new(requests)
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

fn bench_activation_latency(c: &mut Criterion) {
    let (platform, catalog) = world();

    let mut group = c.benchmark_group("activation_latency");
    for n in [8usize, 128] {
        let (active, arriving) = activation_fixture(&platform, n);
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &[],
        };
        group.bench_with_input(BenchmarkId::new("heuristic_incremental", n), &n, |b, _| {
            let mut rm = HeuristicRm::new();
            b.iter(|| rm.decide(&activation));
        });
        group.bench_with_input(BenchmarkId::new("heuristic_baseline", n), &n, |b, _| {
            let mut rm = HeuristicRm {
                oracle_feasibility: true,
                ..HeuristicRm::default()
            };
            b.iter(|| rm.decide(&activation));
        });
    }
    group.finish();

    // The recorded sweep: decide() latency (heuristic and the exact/MILP
    // fallback ladder) and the end-to-end trace run, incremental timeline vs
    // oracle feasibility (the simulator is the same on both sides), at
    // standing depths 8..512.
    let mut rows = Vec::new();
    let mut push_row = |series: &str, depth: usize, baseline_ns: f64, incremental_ns: f64| {
        let speedup = baseline_ns / incremental_ns;
        println!(
            "activation sweep: series={series} depth={depth:>4} baseline={baseline_ns:.0}ns \
             incremental={incremental_ns:.0}ns speedup={speedup:.1}x"
        );
        rows.push(format!(
            "    {{\"series\": \"{series}\", \"depth\": {depth}, \
             \"baseline_ns\": {baseline_ns:.1}, \"incremental_ns\": {incremental_ns:.1}, \
             \"speedup\": {speedup:.2}}}"
        ));
    };

    for depth in DEPTHS {
        let (active, arriving) = activation_fixture(&platform, depth);
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &[],
        };
        let incremental_ns = measure(|| HeuristicRm::new().decide(&activation));
        let baseline_ns = measure(|| {
            HeuristicRm {
                oracle_feasibility: true,
                ..HeuristicRm::default()
            }
            .decide(&activation)
        });
        push_row("heuristic_decide", depth, baseline_ns, incremental_ns);

        // The exact optimizer is the solver-free "MILP" series; bound the
        // branch & bound so deep queues measure per-node feasibility cost.
        let incremental_ns = measure(|| ExactRm::with_node_budget(2_000).decide(&activation));
        let baseline_ns = measure(|| {
            ExactRm {
                oracle_feasibility: true,
                ..ExactRm::with_node_budget(2_000)
            }
            .decide(&activation)
        });
        push_row("milp_fallback_decide", depth, baseline_ns, incremental_ns);

        // With-phantom rows: the same decide() planning around one
        // future-released predicted task, so every rung of the fallback
        // ladder probes queues containing a future job. The incremental
        // mode answers those with the segmented demand-criterion sweep on
        // the CPUs; the baseline routes them through the memoized engine.
        let phantom = [JobView::fresh(
            JobKey(10_001),
            TaskTypeId::new(0),
            Time::new(2.0),
            Time::new(4_002.0),
        )];
        let activation_ph = Activation {
            predicted: &phantom,
            ..activation
        };
        let incremental_ns = measure(|| HeuristicRm::new().decide(&activation_ph));
        let baseline_ns = measure(|| {
            HeuristicRm {
                oracle_feasibility: true,
                ..HeuristicRm::default()
            }
            .decide(&activation_ph)
        });
        push_row(
            "heuristic_decide_phantom",
            depth,
            baseline_ns,
            incremental_ns,
        );

        let incremental_ns = measure(|| ExactRm::with_node_budget(2_000).decide(&activation_ph));
        let baseline_ns = measure(|| {
            ExactRm {
                oracle_feasibility: true,
                ..ExactRm::with_node_budget(2_000)
            }
            .decide(&activation_ph)
        });
        push_row(
            "milp_fallback_decide_phantom",
            depth,
            baseline_ns,
            incremental_ns,
        );
    }

    for depth in DEPTHS {
        let trace = deep_trace(depth);
        let sim = Simulator::new(&platform, &catalog, SimConfig::default());
        let incremental_ns = measure(|| sim.run(&trace, &mut HeuristicRm::new(), None));
        let baseline_ns = measure(|| {
            let mut rm = HeuristicRm {
                oracle_feasibility: true,
                ..HeuristicRm::default()
            };
            sim.run(&trace, &mut rm, None)
        });
        push_row(
            "simulate_100_requests_heuristic",
            depth,
            baseline_ns,
            incremental_ns,
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"activation_latency\",\n  \"units\": \"ns_per_call\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_activation.json");
    std::fs::write(path, json).expect("write BENCH_activation.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_activation_latency
}
criterion_main!(benches);
