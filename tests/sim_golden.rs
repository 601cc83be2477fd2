//! Golden digests of whole simulator runs.
//!
//! Each case runs a seeded trace (or a hand-built micro-scenario) through a
//! manager and hashes every field of the resulting [`SimReport`]: counters,
//! energies and the makespan by their `f64` bits, the per-resource busy
//! time, and the per-request task log (placements, restarts, completion
//! times). The digests were recorded from the simulator and must not move.
//! They include `rm_nodes`, so a change to the exact search's pruning moves
//! the exact manager's digests even where its decisions stay put.
//! The cases are chosen so that the ways `Simulator::advance` can replay an
//! admitted plan wrongly each move some digest: a wrong horizon, ignored
//! start gates, equal deadlines run out of admission order, or the release
//! of a task delayed by prediction overhead.
//!
//! The cases cover the paper's calibrated VT and LT workloads under the
//! heuristic and the budgeted exact manager, each without a predictor, with
//! a perfect oracle (phantoms released in the future, reservation gates on
//! the GPU) and with a perfect oracle plus prediction overhead (the arriving
//! task itself released after `now`); a two-CPU DVFS platform; and GPU
//! micro-scenarios for abort/restart, reservation gates and equal
//! deadlines.

use rand::SeedableRng;
use rtrm::predict::OverheadModel;
use rtrm::prelude::*;

/// 64-bit FNV-1a over the report's fields, in declaration order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    for count in [
        r.requests,
        r.accepted,
        r.rejected,
        r.completed,
        r.deadline_misses,
    ] {
        h.u64(count as u64);
    }
    h.f64(r.energy.value());
    h.f64(r.migration_energy.value());
    h.f64(r.wasted_energy.value());
    h.u64(r.used_prediction as u64);
    h.u64(r.rm_nodes);
    h.u64(r.solver_timeouts);
    h.u64(r.degraded_activations as u64);
    h.f64(r.makespan.value());
    h.u64(r.task_log.len() as u64);
    for record in &r.task_log {
        h.u64(record.request.index() as u64);
        h.u64(match record.outcome {
            rtrm::sim::TaskOutcome::Rejected => 0,
            rtrm::sim::TaskOutcome::Completed => 1,
        });
        h.u64(record.placements.len() as u64);
        for resource in &record.placements {
            h.u64(resource.index() as u64);
        }
        match record.finished {
            Some(t) => h.f64(t.value()),
            None => h.u64(u64::MAX),
        }
        h.u64(u64::from(record.restarts));
    }
    h.u64(r.busy_time.len() as u64);
    for busy in &r.busy_time {
        h.f64(busy.value());
    }
    h.0
}

#[derive(Clone, Copy)]
enum Manager {
    Heuristic,
    Exact,
}

#[derive(Clone, Copy)]
enum Oracle {
    Off,
    Perfect,
    PerfectWithOverhead,
}

fn config(oracle: Oracle) -> SimConfig {
    SimConfig {
        overhead: match oracle {
            Oracle::PerfectWithOverhead => OverheadModel::fraction_of_interarrival(0.16),
            _ => OverheadModel::none(),
        },
        record_task_log: true,
        ..SimConfig::default()
    }
}

fn run(
    platform: &Platform,
    catalog: &TaskCatalog,
    trace: &Trace,
    manager: Manager,
    prediction: Oracle,
) -> SimReport {
    let sim = Simulator::new(platform, catalog, config(prediction));
    let mut heuristic = HeuristicRm::new();
    let mut exact = ExactRm::with_node_budget(25_000);
    let rm: &mut dyn ResourceManager = match manager {
        Manager::Heuristic => &mut heuristic,
        Manager::Exact => &mut exact,
    };
    match prediction {
        Oracle::Off => sim.run(trace, rm, None),
        Oracle::Perfect | Oracle::PerfectWithOverhead => {
            let mut oracle = OraclePredictor::perfect(trace, catalog.len());
            sim.run(trace, rm, Some(&mut oracle))
        }
    }
}

fn generated_world(
    platform: Platform,
    tightness: TraceConfig,
    length: usize,
    seed: u64,
) -> (Platform, TaskCatalog, Trace) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let cfg = TraceConfig {
        length,
        ..tightness
    };
    let trace = generate_traces(&catalog, &cfg, 1, seed).remove(0);
    (platform, catalog, trace)
}

fn dvfs_platform() -> Platform {
    let mut b = Platform::builder();
    b.cpu_with_dvfs("big0", &[0.5, 1.0]);
    b.cpu_with_dvfs("big1", &[0.5, 1.0]);
    b.gpu("gpu");
    b.build()
}

/// One CPU and one GPU; a single type that is cheap on the GPU.
fn small_world() -> (Platform, TaskCatalog) {
    let platform = Platform::builder().cpus(1).gpu("g").build();
    let ids: Vec<_> = platform.ids().collect();
    let ty = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(10.0), Energy::new(10.0))
        .profile(ids[1], Time::new(4.0), Energy::new(2.0))
        .uniform_migration(Time::new(1.0), Energy::new(0.5))
        .build();
    (platform, TaskCatalog::new(vec![ty]))
}

fn req(i: usize, arrival: f64, deadline: f64) -> Request {
    Request {
        id: RequestId::new(i),
        arrival: Time::new(arrival),
        task_type: TaskTypeId::new(0),
        deadline: Time::new(deadline),
    }
}

/// Compares every case's digest with its recorded value and reports all
/// mismatches at once.
fn check(cases: &[(String, SimReport, u64)]) {
    let mut mismatches = Vec::new();
    for (name, report, want) in cases {
        assert_eq!(report.deadline_misses, 0, "{name}: admitted task missed");
        assert_eq!(report.completed, report.accepted, "{name}: undrained");
        let got = digest(report);
        if got != *want {
            mismatches.push(format!("{name}: got {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulator reports changed:\n{}",
        mismatches.join("\n")
    );
}

/// Runs `trace` under both managers × {no predictor, perfect oracle,
/// perfect oracle with overhead}, pairing each report with its recorded
/// digest (in that order).
fn grid(
    group: &str,
    (platform, catalog, trace): &(Platform, TaskCatalog, Trace),
    recorded: [u64; 6],
) -> Vec<(String, SimReport, u64)> {
    let managers = [("heuristic", Manager::Heuristic), ("exact", Manager::Exact)];
    let predictions = [
        ("off", Oracle::Off),
        ("perfect", Oracle::Perfect),
        ("perfect+overhead", Oracle::PerfectWithOverhead),
    ];
    let mut want = recorded.into_iter();
    let mut cases = Vec::new();
    for (manager_name, manager) in managers {
        for (prediction_name, prediction) in predictions {
            cases.push((
                format!("{group}/{manager_name}/{prediction_name}"),
                run(platform, catalog, trace, manager, prediction),
                want.next().expect("one recorded digest per case"),
            ));
        }
    }
    cases
}

/// Calibrated VT and LT on the paper's platform.
#[test]
fn calibrated_workloads_match_their_golden_digests() {
    let vt = generated_world(
        Platform::paper_default(),
        TraceConfig::calibrated_vt(),
        60,
        11,
    );
    let lt = generated_world(
        Platform::paper_default(),
        TraceConfig::calibrated_lt(),
        60,
        11,
    );
    let mut cases = grid(
        "vt",
        &vt,
        [
            0xe9b3_7c97_8d92_5d8f,
            0x2a6a_011e_dccf_6863,
            0xf4ba_8e2d_ba80_5c88,
            0xe4a9_bf40_eb97_0c1f,
            0x981b_2b22_7f92_405a,
            0x7a15_2fd9_310f_9901,
        ],
    );
    cases.extend(grid(
        "lt",
        &lt,
        [
            0xf0db_d0d5_278d_7c97,
            0xbe54_e2c5_5f10_5f71,
            0x41bd_50e8_ba32_eb5b,
            0x6796_ed1a_1d51_02ed,
            0x9981_3c47_aa26_43cf,
            0x7d7c_52ef_284c_ce02,
        ],
    ));
    check(&cases);
}

/// Two DVFS CPUs and a GPU: speed-scaled placements, preemptions and
/// migrations between speed levels.
#[test]
fn dvfs_world_matches_its_golden_digests() {
    let dvfs = generated_world(dvfs_platform(), TraceConfig::calibrated_vt(), 50, 5);
    check(&grid(
        "dvfs",
        &dvfs,
        [
            0xb101_300b_58a3_7171,
            0x91a9_b59f_cd17_b4b3,
            0xe722_53dc_43ad_076d,
            0xc5b1_2700_fee2_002e,
            0x0b15_885e_94a1_7ec0,
            0xcdcc_b86c_76bb_d749,
        ],
    ));
}

/// Micro-scenarios on one CPU and one GPU: a pinned GPU job aborted and
/// restarted with a queue-up behind it; a GPU slot reserved for a
/// perfectly predicted task; a reservation whose task is then rejected, so
/// the start gate it left holds a queued job on an idle GPU; and jobs of
/// equal deadline queued on the GPU, which run in admission order.
#[test]
fn abort_and_gate_scenarios_match_their_golden_digests() {
    let (platform, catalog) = small_world();
    let abort = Trace::new(vec![
        req(0, 0.0, 100.0),
        req(1, 2.0, 4.5),
        req(2, 5.0, 60.0),
        req(3, 5.5, 70.0),
    ]);
    let aborted = run(&platform, &catalog, &abort, Manager::Exact, Oracle::Off);
    assert_eq!(aborted.task_log[0].restarts, 1, "task 0 is aborted");

    let gated = Trace::new(vec![req(0, 0.0, 30.0), req(1, 1.0, 5.0)]);
    let reserved = run(
        &platform,
        &catalog,
        &gated,
        Manager::Heuristic,
        Oracle::Perfect,
    );
    assert_eq!(reserved.used_prediction, 1, "a slot is reserved");

    // Task 1's plan queues it on the GPU behind the phantom of task 2
    // (planned start 8); task 2's real deadline cannot be met, so the gate
    // outlives the reservation.
    let rejected = Trace::new(vec![
        req(0, 0.0, 100.0),
        req(1, 1.0, 100.0),
        req(2, 2.0, 1.0),
    ]);
    let held = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            phantom_deadline: PhantomDeadline::Fixed(Time::new(8.0)),
            record_task_log: true,
            ..SimConfig::default()
        },
    )
    .run(
        &rejected,
        &mut HeuristicRm::new(),
        Some(&mut OraclePredictor::perfect(&rejected, catalog.len())),
    );
    assert_eq!(held.rejected, 1, "task 2 is rejected");
    assert_eq!(held.task_log[1].finished, Some(Time::new(12.0)), "gated");

    // Tasks 1 and 2 share the absolute deadline 30.
    let tied = Trace::new(vec![
        req(0, 0.0, 30.0),
        req(1, 1.0, 29.0),
        req(2, 2.0, 28.0),
    ]);
    let ties = run(&platform, &catalog, &tied, Manager::Heuristic, Oracle::Off);
    assert_eq!(ties.task_log[1].finished, Some(Time::new(8.0)), "EDF tie");

    check(&[
        ("abort".to_owned(), aborted, 0x4fc9_cf55_12ad_8506),
        ("gate".to_owned(), reserved, 0x42b7_4f46_0b68_1a14),
        ("held".to_owned(), held, 0xb12d_17dc_fcd6_be9a),
        ("ties".to_owned(), ties, 0x1981_2d16_1f1f_1363),
    ]);
}
