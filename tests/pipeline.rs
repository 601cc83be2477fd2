//! Whole-pipeline integration tests: generator → predictor → manager →
//! simulator, across all three managers.

use rand::SeedableRng;
use rtrm::prelude::*;

fn workload(len: usize, n: usize, seed: u64) -> (Platform, TaskCatalog, Vec<Trace>) {
    let platform = Platform::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let cfg = TraceConfig {
        length: len,
        ..TraceConfig::calibrated_vt()
    };
    let traces = generate_traces(&catalog, &cfg, n, seed);
    (platform, catalog, traces)
}

#[test]
fn all_three_managers_run_the_same_workload() {
    // Short trace: MilpRm solves a full MILP per activation, and this test
    // also runs under unoptimized builds.
    let (platform, catalog, traces) = workload(25, 1, 1);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    for trace in &traces {
        let h = sim.run(trace, &mut HeuristicRm::new(), None);
        let e = sim.run(trace, &mut ExactRm::new(), None);
        let m = sim.run(trace, &mut MilpRm::new(), None);
        for r in [&h, &e, &m] {
            assert_eq!(r.deadline_misses, 0);
            assert_eq!(r.requests, trace.len());
            assert_eq!(r.accepted + r.rejected, r.requests);
        }
        // The two exact optimizers take identical decisions without
        // prediction, so whole-trace results must coincide.
        assert_eq!(e.accepted, m.accepted, "exact vs milp acceptance");
        assert!(
            (e.energy.value() - m.energy.value()).abs() < 1e-4,
            "exact vs milp energy: {} vs {}",
            e.energy,
            m.energy
        );
    }

    // The literal MILP with a perfect phantom, so the predicted task's
    // wait/preempt disjunctions are encoded and solved end to end.
    let (platform, catalog, traces) = workload(12, 1, 1);
    let sim = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            phantom_deadline: PhantomDeadline::MinWcetTimes(1.5),
            ..SimConfig::default()
        },
    );
    for trace in &traces {
        let mut oracle = OraclePredictor::perfect(trace, catalog.len());
        let m = sim.run(trace, &mut MilpRm::new(), Some(&mut oracle));
        assert_eq!(m.deadline_misses, 0);
        assert_eq!(m.accepted + m.rejected, m.requests);
        assert!(m.used_prediction > 0, "no MILP plan honoured the phantom");
    }
}

#[test]
fn prediction_plus_overhead_pipeline() {
    let (platform, catalog, traces) = workload(80, 2, 7);
    for coeff in [0.0, 0.1] {
        let sim = Simulator::new(
            &platform,
            &catalog,
            SimConfig {
                overhead: OverheadModel::fraction_of_interarrival(coeff),
                phantom_deadline: PhantomDeadline::MinWcetTimes(1.5),
                ..SimConfig::default()
            },
        );
        for trace in &traces {
            let mut oracle = OraclePredictor::perfect(trace, catalog.len());
            let report = sim.run(trace, &mut HeuristicRm::new(), Some(&mut oracle));
            assert_eq!(report.deadline_misses, 0);
            assert_eq!(report.completed, report.accepted);
        }
    }
}

#[test]
fn budgeted_exact_manager_plans_around_a_perfect_phantom() {
    // The paper sweeps' exact configuration: a 25 000-node budget per rung
    // and a perfect oracle, so the branch and bound searches GPU queues
    // holding the phantom's future release.
    let (platform, catalog, traces) = workload(60, 2, 5);
    let sim = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            phantom_deadline: PhantomDeadline::MinWcetTimes(1.5),
            ..SimConfig::default()
        },
    );
    for trace in &traces {
        let mut oracle = OraclePredictor::perfect(trace, catalog.len());
        let report = sim.run(
            trace,
            &mut ExactRm::with_node_budget(25_000),
            Some(&mut oracle),
        );
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.accepted + report.rejected, report.requests);
        assert!(report.used_prediction > 0, "no plan honoured the phantom");
    }
}

#[test]
fn run_batch_spans_managers_and_predictors() {
    let (platform, catalog, traces) = workload(50, 4, 3);
    let config = SimConfig::default();
    let reports = run_batch(
        &platform,
        &catalog,
        &config,
        &traces,
        |i| {
            if i % 2 == 0 {
                Box::new(HeuristicRm::new())
            } else {
                Box::new(ExactRm::new())
            }
        },
        |i| {
            if i < 2 {
                let p: Box<dyn Predictor + Send> =
                    Box::new(OraclePredictor::perfect(&traces[i], catalog.len()));
                Some(p)
            } else {
                None
            }
        },
    );
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.deadline_misses == 0));
    assert!(reports[0].used_prediction > 0);
    assert_eq!(reports[2].used_prediction, 0);
}

#[test]
fn seeded_pipeline_is_fully_deterministic() {
    let run = || {
        let (platform, catalog, traces) = workload(70, 1, 11);
        let sim = Simulator::new(&platform, &catalog, SimConfig::default());
        let mut oracle = OraclePredictor::new(
            &traces[0],
            catalog.len(),
            ErrorModel {
                type_accuracy: 0.8,
                arrival_accuracy: 0.9,
            },
            5,
        );
        sim.run(&traces[0], &mut HeuristicRm::new(), Some(&mut oracle))
    };
    assert_eq!(run(), run());
}

#[test]
fn prelude_exposes_the_working_set() {
    // Compile-time check that the prelude covers the whole workflow.
    fn assert_usable() {
        let _ = Platform::builder();
        let _ = CatalogConfig::paper();
        let _ = TraceConfig::paper_vt();
        let _ = ErrorModel::perfect();
        let _ = OverheadModel::none();
        let _: fn() -> HeuristicRm = HeuristicRm::new;
        let _: fn() -> ExactRm = ExactRm::new;
        let _: fn() -> MilpRm = MilpRm::new;
    }
    assert_usable();
}

#[test]
fn milp_solver_reachable_through_umbrella() {
    use rtrm::milp::{Model, Sense};
    let mut m = Model::new(Sense::Maximize);
    let x = m.binary(2.0);
    let y = m.binary(3.0);
    m.add_le(&[(x, 1.0), (y, 1.0)], 1.0);
    let sol = m.solve().expect("feasible");
    assert_eq!(sol.objective(), 3.0);
}
