//! Criterion performance benches: manager activation latency (the paper's
//! motivation for the fast heuristic), the EDF feasibility kernel, the MILP
//! solver, trace generation, and an end-to-end simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

use rtrm_core::{ExactRm, HeuristicRm, JobView, MilpRm, ResourceManager};
use rtrm_platform::{Platform, TaskTypeId, Time};
use rtrm_sched::{is_schedulable, JobKey, PlannedJob};
use rtrm_sim::{SimConfig, Simulator};
use rtrm_trace::{generate_catalog, generate_trace, CatalogConfig, TraceConfig};

/// A synthetic activation with `n` active, loosely placed tasks.
fn activation_fixture(
    n: usize,
) -> (
    Platform,
    rtrm_platform::TaskCatalog,
    Vec<JobView>,
    JobView,
    Vec<JobView>,
) {
    let platform = Platform::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let now = Time::new(0.0);
    let active: Vec<JobView> = (0..n)
        .map(|i| {
            let ty = TaskTypeId::new(i % catalog.len());
            let slack = 2.0 + (i % 7) as f64;
            let mut job = JobView::fresh(
                JobKey(i as u64),
                ty,
                now,
                now + catalog.task_type(ty).mean_wcet() * slack,
            );
            job.placement = Some(rtrm_core::Placement {
                resource: rtrm_platform::ResourceId::new(i % (platform.len() - 1)),
                remaining_fraction: 0.5 + 0.4 * ((i % 5) as f64 / 5.0),
                started: true,
                speed: 1.0,
            });
            job
        })
        .collect();
    let arr_ty = TaskTypeId::new(7);
    let arriving = JobView::fresh(
        JobKey(999),
        arr_ty,
        now,
        now + catalog.task_type(arr_ty).mean_wcet() * 1.8,
    );
    let pred_ty = TaskTypeId::new(11);
    let predicted = vec![JobView::fresh(
        JobKey(1000),
        pred_ty,
        Time::new(2.0),
        Time::new(2.0) + catalog.task_type(pred_ty).min_wcet() * 1.5,
    )];
    (platform, catalog, active, arriving, predicted)
}

fn bench_rm_activation(c: &mut Criterion) {
    let mut group = c.benchmark_group("rm_activation");
    for n in [4usize, 8, 16] {
        let (platform, catalog, active, arriving, predicted) = activation_fixture(n);
        let activation = rtrm_core::Activation {
            now: Time::new(0.0),
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        };
        group.bench_with_input(BenchmarkId::new("heuristic", n), &n, |b, _| {
            let mut rm = HeuristicRm::new();
            b.iter(|| rm.decide(&activation));
        });
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            let mut rm = ExactRm::with_node_budget(25_000);
            b.iter(|| rm.decide(&activation));
        });
        if n <= 8 {
            group.bench_with_input(BenchmarkId::new("milp_encoded", n), &n, |b, _| {
                let mut rm = MilpRm::new();
                b.iter(|| rm.decide(&activation));
            });
        }
    }
    group.finish();
}

fn bench_rm_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("rm_ablations");
    let n = 8;
    let (platform, catalog, active, arriving, predicted) = activation_fixture(n);
    let activation = rtrm_core::Activation {
        now: Time::new(0.0),
        platform: &platform,
        catalog: &catalog,
        active: &active,
        arriving,
        predicted: &predicted,
    };
    group.bench_function("heuristic_regret_ordering", |b| {
        let mut rm = HeuristicRm::new();
        b.iter(|| rm.decide(&activation));
    });
    group.bench_function("heuristic_input_ordering", |b| {
        let mut rm = HeuristicRm::without_regret_ordering();
        b.iter(|| rm.decide(&activation));
    });
    group.bench_function("exact_with_gpu_requeue", |b| {
        let mut rm = ExactRm::new();
        b.iter(|| rm.decide(&activation));
    });
    group.bench_function("exact_without_gpu_requeue", |b| {
        let mut rm = ExactRm {
            gpu_restart_in_place: false,
            ..ExactRm::new()
        };
        b.iter(|| rm.decide(&activation));
    });
    group.finish();
}

fn bench_edf_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("edf_is_schedulable");
    for n in [4usize, 16, 64] {
        let jobs: Vec<PlannedJob> = (0..n)
            .map(|i| {
                PlannedJob::new(
                    JobKey(i as u64),
                    Time::new((i % 3) as f64),
                    Time::new(1.0 + (i % 5) as f64),
                    Time::new(40.0 + 4.0 * i as f64),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("cpu", n), &jobs, |b, jobs| {
            b.iter(|| is_schedulable(rtrm_platform::ResourceKind::Cpu, Time::new(0.0), jobs));
        });
        group.bench_with_input(BenchmarkId::new("gpu", n), &jobs, |b, jobs| {
            b.iter(|| is_schedulable(rtrm_platform::ResourceKind::Gpu, Time::new(0.0), jobs));
        });
    }
    group.finish();
}

/// Sweeps `is_schedulable` over queue depths for the event-driven engine
/// (with a reused [`EdfScratch`], the managers' steady-state fast path)
/// against the scan-based reference oracle, and records the result in
/// `BENCH_edf.json` at the workspace root (see README, "Performance").
fn bench_edf_sweep(c: &mut Criterion) {
    use rtrm_platform::ResourceKind;
    use rtrm_sched::{is_schedulable_with, reference, EdfScratch};

    /// A schedulable queue of depth `n` with staggered releases (heap churn)
    /// and spread deadlines, shaped like the `bench_edf_kernel` fixture.
    fn queue(n: usize) -> Vec<PlannedJob> {
        (0..n)
            .map(|i| {
                PlannedJob::new(
                    JobKey(i as u64),
                    Time::new((i % 3) as f64),
                    Time::new(1.0 + (i % 5) as f64),
                    Time::new(40.0 + 4.0 * i as f64),
                )
            })
            .collect()
    }

    /// Mean ns per call over a self-calibrated iteration count (~30 ms).
    fn measure(mut f: impl FnMut() -> bool) -> f64 {
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

    const DEPTHS: [usize; 4] = [8, 32, 128, 512];

    let mut group = c.benchmark_group("edf_engine_sweep");
    for n in DEPTHS {
        let jobs = queue(n);
        group.bench_with_input(BenchmarkId::new("event", n), &jobs, |b, jobs| {
            let mut scratch = EdfScratch::new();
            b.iter(|| is_schedulable_with(ResourceKind::Cpu, Time::new(0.0), jobs, &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &jobs, |b, jobs| {
            b.iter(|| reference::is_schedulable(ResourceKind::Cpu, Time::new(0.0), jobs));
        });
    }
    group.finish();

    /// Mean ns per with-phantom probe (push + verdict + undo) of a depth-`n`
    /// dense timeline, incremental vs oracle mode. The phantom's exec and
    /// deadline vary per probe, as a placement search's candidates do.
    fn measure_phantom_probe(kind: rtrm_platform::ResourceKind, n: usize, oracle: bool) -> f64 {
        use rtrm_sched::EdfTimeline;
        // Start at 2.0 so the fixture's staggered releases (0..3) are all
        // dense; the phantom at 5.0 is the only future job.
        let now = Time::new(2.0);
        let mut tl = EdfTimeline::new(kind, now);
        tl.set_oracle(oracle);
        for job in queue(n) {
            let _ = tl.push(job);
        }
        let mut i = 0u64;
        measure(move || {
            i += 1;
            let phantom = PlannedJob::new(
                JobKey(1_000_000),
                Time::new(5.0),
                Time::new(0.5 + (i % 8192) as f64 * 1e-4),
                Time::new(2_000.0 + 8.0 * i as f64 % 64.0),
            );
            let verdict = tl.push(phantom).is_feasible();
            let _ = tl.undo();
            verdict
        })
    }

    /// Mean ns per dense probe (push + verdict + undo) of a depth-`n` dense
    /// timeline: a placement that fits, then the backtrack. The probe's
    /// deadline walks across the queue's, so its slot varies; the queue
    /// stays feasible, so every verdict reads the whole queue.
    fn measure_dense_probe(kind: rtrm_platform::ResourceKind, n: usize) -> f64 {
        use rtrm_sched::EdfTimeline;
        let now = Time::new(2.0);
        let mut tl = EdfTimeline::new(kind, now);
        for job in queue(n) {
            let _ = tl.push(job);
        }
        let mut i = 0u64;
        measure(move || {
            i += 1;
            let probe = PlannedJob::new(
                JobKey(1_000_000),
                now,
                Time::new(0.5 + (i % 8192) as f64 * 1e-4),
                Time::new(42.0 + 4.0 * (i % n as u64) as f64),
            );
            let verdict = tl.push(probe).is_feasible();
            let _ = tl.undo();
            verdict
        })
    }

    /// Mean ns per failed `try_push` on the standing depth-`n` dense
    /// timeline: the placement attempt the heuristic and the branch and
    /// bound make per candidate, when the candidate does not fit. The
    /// probe's deadline walks across the queue's as in the dense probe, and
    /// its exec fits alone but not behind the one or more units of work
    /// keyed before it, so the scan stops at the probe's own slot and
    /// nothing moves.
    fn measure_failed_probe(kind: rtrm_platform::ResourceKind, n: usize) -> f64 {
        use rtrm_sched::EdfTimeline;
        let now = Time::new(2.0);
        let mut tl = EdfTimeline::new(kind, now);
        for job in queue(n) {
            let _ = tl.push(job);
        }
        let probe = move |i: u64| {
            let deadline = Time::new(42.0 + 4.0 * (i % n as u64) as f64);
            PlannedJob::new(
                JobKey(1_000_000),
                now,
                deadline - now - Time::new(0.25),
                deadline,
            )
        };
        assert!(
            (0..n as u64).all(|i| !tl.try_push(probe(i))),
            "every slot's probe fails"
        );
        let mut i = 0u64;
        measure(move || {
            i += 1;
            tl.try_push(probe(i))
        })
    }

    let mut rows = Vec::new();
    for n in DEPTHS {
        let jobs = queue(n);
        for (kind, label) in [(ResourceKind::Cpu, "cpu"), (ResourceKind::Gpu, "gpu")] {
            let mut scratch = EdfScratch::new();
            let event_ns =
                measure(|| is_schedulable_with(kind, Time::new(0.0), &jobs, &mut scratch));
            let reference_ns = measure(|| reference::is_schedulable(kind, Time::new(0.0), &jobs));
            let speedup = reference_ns / event_ns;
            // The timeline's dense probe, then the with-phantom columns: its
            // verdict over a queue holding one future-released job (the
            // segment sweep on CPUs, the release-merge walk on GPUs) vs the
            // oracle baseline's engine run over the same probes.
            let timeline_dense_ns = measure_dense_probe(kind, n);
            let timeline_probe_fail_ns = measure_failed_probe(kind, n);
            let timeline_phantom_ns = measure_phantom_probe(kind, n, false);
            let oracle_phantom_ns = measure_phantom_probe(kind, n, true);
            let phantom_speedup = oracle_phantom_ns / timeline_phantom_ns;
            println!(
                "edf sweep: depth={n:>4} kind={label} event={event_ns:.0}ns \
                 reference={reference_ns:.0}ns speedup={speedup:.1}x \
                 dense={timeline_dense_ns:.0}ns probe_fail={timeline_probe_fail_ns:.0}ns \
                 phantom={timeline_phantom_ns:.0}ns \
                 oracle_phantom={oracle_phantom_ns:.0}ns phantom_speedup={phantom_speedup:.1}x"
            );
            rows.push(format!(
                "    {{\"depth\": {n}, \"kind\": \"{label}\", \"event_ns\": {event_ns:.1}, \
                 \"reference_ns\": {reference_ns:.1}, \"speedup\": {speedup:.2}, \
                 \"timeline_dense_ns\": {timeline_dense_ns:.1}, \
                 \"timeline_probe_fail_ns\": {timeline_probe_fail_ns:.1}, \
                 \"timeline_phantom_ns\": {timeline_phantom_ns:.1}, \
                 \"oracle_phantom_ns\": {oracle_phantom_ns:.1}, \
                 \"phantom_speedup\": {phantom_speedup:.2}}}"
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"edf_is_schedulable\",\n  \"units\": \"ns_per_call\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_edf.json");
    std::fs::write(path, json).expect("write BENCH_edf.json");
}

fn bench_milp_solver(c: &mut Criterion) {
    use rtrm_milp::{Model, Sense};
    c.bench_function("milp_knapsack_12", |b| {
        b.iter(|| {
            let mut m = Model::new(Sense::Maximize);
            let items: Vec<_> = (0..12)
                .map(|i| {
                    (
                        m.binary(3.0 + (i * 7 % 11) as f64),
                        2.0 + (i * 5 % 9) as f64,
                    )
                })
                .collect();
            let terms: Vec<_> = items.iter().map(|(v, w)| (*v, *w)).collect();
            m.add_le(&terms, 30.0);
            m.solve().expect("feasible")
        });
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let platform = Platform::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    c.bench_function("generate_trace_500", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = TraceConfig::calibrated_vt();
        b.iter(|| generate_trace(&catalog, &cfg, &mut rng));
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let platform = Platform::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let cfg = TraceConfig {
        length: 100,
        ..TraceConfig::calibrated_vt()
    };
    let trace = generate_trace(&catalog, &cfg, &mut rng);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    c.bench_function("simulate_100_requests_heuristic", |b| {
        b.iter(|| sim.run(&trace, &mut HeuristicRm::new(), None));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rm_activation, bench_rm_ablations, bench_edf_kernel,
              bench_edf_sweep, bench_milp_solver, bench_trace_generation,
              bench_end_to_end
}
criterion_main!(benches);
