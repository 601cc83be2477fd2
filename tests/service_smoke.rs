//! The service layer in tier-1: both managers served through `run_service`
//! give the same verdicts as a sequential [`Simulator::run`] of the trace,
//! and no admitted task misses its deadline.

use rand::SeedableRng;
use rtrm::prelude::*;
use rtrm::sim::TaskOutcome;
use rtrm_service::{generate_load, run_service, Arrivals, LoadConfig, ServiceConfig};

#[test]
fn service_verdicts_match_the_simulator() {
    let platform = Platform::paper_default();
    let catalog = generate_catalog(
        &platform,
        &CatalogConfig::paper(),
        &mut rand::rngs::StdRng::seed_from_u64(3),
    );
    let traces = generate_load(
        &catalog,
        &LoadConfig {
            traces: 1,
            trace_len: 40,
            seed: 3,
            arrivals: Arrivals::Poisson { mean_gap: 2.8 },
        },
    );
    let sim_config = SimConfig {
        record_task_log: true,
        ..SimConfig::default()
    };
    type Make = fn(usize) -> Box<dyn ResourceManager + Send>;
    let managers: [(&str, Make); 2] = [
        ("heuristic", |_| Box::new(HeuristicRm::new())),
        ("exact", |_| Box::new(ExactRm::with_node_budget(25_000))),
    ];
    for (name, make) in managers {
        let sim = Simulator::new(&platform, &catalog, sim_config.clone());
        let batch = sim.run(&traces[0], make(0).as_mut(), None);
        let config = ServiceConfig {
            sim: sim_config.clone(),
            record_verdicts: true,
            ..ServiceConfig::default()
        };
        let served = run_service(&platform, &catalog, &config, &traces, make);

        assert_eq!(batch.deadline_misses, 0, "{name}: batch run missed");
        // Sessions keep no task log; every other field must agree.
        let logless = SimReport {
            task_log: Vec::new(),
            ..batch.clone()
        };
        assert_eq!(served.trace_reports, vec![logless], "{name}: reports");
        let mut verdicts: Vec<(usize, bool)> = served
            .verdicts
            .expect("verdicts recorded")
            .iter()
            .map(|v| (v.request, v.decision.admitted))
            .collect();
        verdicts.sort_unstable();
        let expected: Vec<(usize, bool)> = batch
            .task_log
            .iter()
            .map(|record| {
                let admitted = record.outcome == TaskOutcome::Completed;
                (record.request.index(), admitted)
            })
            .collect();
        assert_eq!(verdicts, expected, "{name}: verdicts");
        assert_eq!(served.admitted as usize, batch.accepted, "{name}");
        assert!(
            batch.rejected > 0 && batch.accepted > 0,
            "{name}: a mixed trace"
        );
    }
}
