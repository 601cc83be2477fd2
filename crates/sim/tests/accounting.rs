//! Deterministic micro-scenarios pinning down the simulator's energy and
//! time accounting: execution energy, migration lumps, GPU abort waste,
//! reservation gates, and DVFS speed levels.

use rtrm_core::{Activation, Decision, ExactRm, HeuristicRm, ResourceManager};
use rtrm_platform::{
    Energy, Platform, Request, RequestId, TaskCatalog, TaskType, TaskTypeId, Time, Trace,
};
use rtrm_predict::OraclePredictor;
use rtrm_sim::{PhantomDeadline, SimConfig, Simulator};

/// One CPU + one GPU; a single type that is cheap on the GPU.
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

#[test]
fn single_task_charges_exactly_its_profile() {
    let (platform, catalog) = small_world();
    let trace = Trace::new(vec![req(0, 0.0, 50.0)]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut HeuristicRm::new(), None);
    assert_eq!(r.accepted, 1);
    // The GPU is cheapest: full profile energy, nothing else.
    assert!((r.energy.value() - 2.0).abs() < 1e-9, "energy={}", r.energy);
    assert_eq!(r.makespan, Time::new(4.0));
}

#[test]
fn two_tasks_queue_on_the_gpu() {
    let (platform, catalog) = small_world();
    let trace = Trace::new(vec![req(0, 0.0, 50.0), req(1, 1.0, 50.0)]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut HeuristicRm::new(), None);
    assert_eq!(r.accepted, 2);
    assert!((r.energy.value() - 4.0).abs() < 1e-9);
    // Second task waits for the first: 4 + 4.
    assert_eq!(r.makespan, Time::new(8.0));
}

#[test]
fn gpu_abort_wastes_consumed_energy() {
    // Task A hogs the GPU with a loose deadline; task B arrives with a
    // deadline only the GPU can meet, forcing the exact manager to abort A.
    let (platform, catalog) = small_world();
    let trace = Trace::new(vec![req(0, 0.0, 100.0), req(1, 2.0, 4.5)]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert_eq!(r.accepted, 2, "abort-restart must rescue task B");
    // A consumed 2/4 of its GPU energy (1.0) before the abort, then either
    // restarts on the GPU after B (2.0) or on the CPU (10.0); GPU requeue is
    // cheaper: total = waste 1.0 + A 2.0 + B 2.0 = 5.0.
    assert!((r.energy.value() - 5.0).abs() < 1e-9, "energy={}", r.energy);
    assert_eq!(r.deadline_misses, 0);
}

#[test]
fn migration_charges_lump_and_time_overhead() {
    // Both tasks are CPU-only here: build a 2-CPU platform where migrating
    // a started task is forced by an urgent arrival.
    let platform = Platform::builder().cpus(2).build();
    let ids: Vec<_> = platform.ids().collect();
    let slow = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(10.0), Energy::new(6.0))
        .profile(ids[1], Time::new(10.0), Energy::new(8.0))
        .uniform_migration(Time::new(1.0), Energy::new(0.5))
        .build();
    let urgent = TaskType::builder(1, &platform)
        .profile(ids[0], Time::new(4.0), Energy::new(3.0))
        // Only executable on cpu0: forces the displacement.
        .build();
    let catalog = TaskCatalog::new(vec![slow, urgent]);
    let trace = Trace::new(vec![
        req(0, 0.0, 11.0),
        Request {
            id: RequestId::new(1),
            arrival: Time::new(2.0),
            task_type: TaskTypeId::new(1),
            deadline: Time::new(4.5),
        },
    ]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert_eq!(r.accepted, 2);
    assert_eq!(r.deadline_misses, 0);
    // Slow task: 2 units on cpu0 (energy 1.2), migrates (em 0.5), remaining
    // 80% on cpu1 (0.8 × 8.0 = 6.4); urgent: 3.0. Total 11.1.
    assert!(
        (r.energy.value() - 11.1).abs() < 1e-6,
        "energy={}",
        r.energy
    );
    // Slow task's remaining busy time on cpu1: 8 + 1 (cm) = 9, starting at
    // t=2 → finishes at 11; urgent finishes at 6; makespan 11.
    assert_eq!(r.makespan, Time::new(11.0));
}

#[test]
fn reservation_gate_holds_the_gpu_for_the_predicted_task() {
    // τ_light at t=0 (loose), τ_urgent at t=1 (GPU-only). With a perfect
    // oracle and plan-following dispatch the light task is kept off the GPU
    // (or held), and the urgent one is admitted.
    let (platform, catalog) = small_world();
    let trace = Trace::new(vec![req(0, 0.0, 30.0), req(1, 1.0, 5.0)]);

    let gated = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            phantom_deadline: PhantomDeadline::Fixed(Time::new(5.0)),
            ..SimConfig::default()
        },
    );
    let mut oracle = OraclePredictor::perfect(&trace, catalog.len());
    let r = gated.run(&trace, &mut HeuristicRm::new(), Some(&mut oracle));
    assert_eq!(r.accepted, 2, "reservation must rescue the urgent task");
    assert_eq!(r.deadline_misses, 0);
    // Light task went straight to the CPU (10.0), urgent to the GPU (2.0).
    assert!(
        (r.energy.value() - 12.0).abs() < 1e-9,
        "energy={}",
        r.energy
    );

    // Without prediction the light task grabs the idle GPU, and rescuing
    // the urgent task requires aborting it: one unit of GPU work (0.5 J) is
    // wasted and the light task restarts on the CPU.
    let plain = Simulator::new(&platform, &catalog, SimConfig::default());
    let r_off = plain.run(&trace, &mut HeuristicRm::new(), None);
    assert_eq!(r_off.accepted, 2);
    assert!(
        (r_off.energy.value() - 12.5).abs() < 1e-9,
        "energy={}",
        r_off.energy
    );
    assert!(r_off.energy > r.energy, "prediction avoids the wasted work");
}

#[test]
fn drain_completes_everything_queued() {
    let (platform, catalog) = small_world();
    // Burst of five tasks with generous deadlines; the trace ends at t=4.
    let trace = Trace::new((0..5).map(|i| req(i, i as f64, 200.0)).collect());
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut HeuristicRm::new(), None);
    assert_eq!(r.accepted, 5);
    assert_eq!(r.completed, 5);
    assert_eq!(r.deadline_misses, 0);
}

#[test]
fn dvfs_energy_accounting_is_exact() {
    // One DVFS CPU {0.5, 1.0}; a single task with lots of slack runs at
    // half speed: 8 time units, a quarter of the energy.
    let platform = {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("big0", &[0.5, 1.0]);
        b.build()
    };
    let ids: Vec<_> = platform.ids().collect();
    let ty = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(4.0), Energy::new(8.0))
        .build();
    let catalog = TaskCatalog::new(vec![ty]);
    let trace = Trace::new(vec![req(0, 0.0, 50.0)]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert_eq!(r.accepted, 1);
    assert!((r.energy.value() - 2.0).abs() < 1e-9, "energy={}", r.energy);
    assert_eq!(r.makespan, Time::new(8.0));

    // With a tight deadline the task must race: full energy, 4 units.
    let tight = Trace::new(vec![req(0, 0.0, 5.0)]);
    let r = sim.run(&tight, &mut ExactRm::new(), None);
    assert_eq!(r.accepted, 1);
    assert!((r.energy.value() - 8.0).abs() < 1e-9, "energy={}", r.energy);
    assert_eq!(r.makespan, Time::new(4.0));
}

#[test]
fn dvfs_speed_survives_preemption_and_migration() {
    // Two DVFS CPUs; a slow-running task is displaced by an urgent one and
    // migrates, re-choosing its speed on the destination.
    let platform = {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("big0", &[0.5, 1.0]);
        b.cpu_with_dvfs("big1", &[0.5, 1.0]);
        b.build()
    };
    let ids: Vec<_> = platform.ids().collect();
    let slow = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(4.0), Energy::new(8.0))
        .profile(ids[1], Time::new(4.0), Energy::new(8.0))
        .uniform_migration(Time::new(0.5), Energy::new(0.25))
        .build();
    let catalog = TaskCatalog::new(vec![slow]);
    let trace = Trace::new(vec![
        req(0, 0.0, 30.0),
        req(1, 1.0, 30.0),
        req(2, 2.0, 30.0),
    ]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert_eq!(r.accepted, 3);
    assert_eq!(r.deadline_misses, 0);
    assert!(r.energy.value() > 0.0);
}

/// Wraps a manager and records every distinct DVFS speed it admits, so a
/// test can prove multiple speed levels were actually exercised.
struct SpeedRecorder<R> {
    inner: R,
    speeds: Vec<f64>,
}

impl<R: ResourceManager> ResourceManager for SpeedRecorder<R> {
    fn name(&self) -> &str {
        "speed-recorder"
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        let d = self.inner.decide(activation);
        if d.admitted {
            for a in &d.assignments {
                if !self.speeds.iter().any(|s| (s - a.speed).abs() < 1e-12) {
                    self.speeds.push(a.speed);
                }
            }
        }
        d
    }
}

/// Regression for multi-speed candidate disambiguation: the simulator's
/// assignment-to-candidate match must key on `(resource, restart, speed)`.
/// A DVFS CPU offers two candidates that differ *only* in speed; if the
/// match ignored speed, the half-speed admission below would bind to the
/// full-speed candidate and the energy accounting (2 J vs 8 J) would break.
#[test]
fn dvfs_two_speed_levels_end_to_end() {
    let platform = {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("big0", &[0.5, 1.0]);
        b.build()
    };
    let ids: Vec<_> = platform.ids().collect();
    let ty = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(4.0), Energy::new(8.0))
        .build();
    let catalog = TaskCatalog::new(vec![ty]);
    // Loose relative deadline: half speed (8 time units, 2 J). Tight
    // relative deadline (4.5, only the full-speed WCET of 4 fits): 8 J.
    let trace = Trace::new(vec![req(0, 0.0, 50.0), req(1, 20.0, 4.5)]);

    let sim = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            record_task_log: true,
            ..SimConfig::default()
        },
    );
    let mut rm = SpeedRecorder {
        inner: ExactRm::new(),
        speeds: Vec::new(),
    };
    let r = sim.run(&trace, &mut rm, None);
    assert_eq!(r.accepted, 2);
    assert_eq!(r.completed, 2);
    assert_eq!(r.deadline_misses, 0);
    rm.speeds.sort_by(f64::total_cmp);
    assert_eq!(rm.speeds, vec![0.5, 1.0], "both DVFS levels exercised");
    assert!(
        (r.energy.value() - 10.0).abs() < 1e-9,
        "half-speed run must charge the half-speed profile: energy={}",
        r.energy
    );
}

#[test]
fn task_log_records_outcomes_and_placements() {
    let (platform, catalog) = small_world();
    // Task A hogs the GPU; urgent B forces an abort (same scenario as
    // `gpu_abort_wastes_consumed_energy`), with the log switched on.
    let trace = Trace::new(vec![req(0, 0.0, 100.0), req(1, 2.0, 4.5)]);
    let sim = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            record_task_log: true,
            ..SimConfig::default()
        },
    );
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert_eq!(r.task_log.len(), 2);
    let a = &r.task_log[0];
    let b = &r.task_log[1];
    assert_eq!(a.outcome, rtrm_sim::TaskOutcome::Completed);
    assert_eq!(b.outcome, rtrm_sim::TaskOutcome::Completed);
    assert_eq!(a.restarts, 1, "A was aborted once");
    assert_eq!(b.restarts, 0);
    assert!(
        a.finished.unwrap() > b.finished.unwrap(),
        "A requeued after B"
    );
    assert!(!a.placements.is_empty());
}

#[test]
fn task_log_marks_rejections() {
    let (platform, catalog) = small_world();
    // Impossible deadline: rejected.
    let trace = Trace::new(vec![req(0, 0.0, 1.0)]);
    let sim = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            record_task_log: true,
            ..SimConfig::default()
        },
    );
    let r = sim.run(&trace, &mut HeuristicRm::new(), None);
    assert_eq!(r.rejected, 1);
    assert_eq!(r.task_log[0].outcome, rtrm_sim::TaskOutcome::Rejected);
    assert!(r.task_log[0].placements.is_empty());
    assert_eq!(r.task_log[0].finished, None);
}

#[test]
fn energy_breakdown_sums_to_total_components() {
    let (platform, catalog) = small_world();
    // Abort scenario: waste 1.0 (half of A's GPU energy) with no migration.
    let trace = Trace::new(vec![req(0, 0.0, 100.0), req(1, 2.0, 4.5)]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert!(
        (r.wasted_energy.value() - 1.0).abs() < 1e-9,
        "waste={}",
        r.wasted_energy
    );
    assert_eq!(r.migration_energy, Energy::ZERO);
    // Total = useful work (2 + 2) + waste (1).
    assert!((r.energy.value() - 5.0).abs() < 1e-9);
}

#[test]
fn migration_energy_is_attributed() {
    let platform = Platform::builder().cpus(2).build();
    let ids: Vec<_> = platform.ids().collect();
    let slow = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(10.0), Energy::new(6.0))
        .profile(ids[1], Time::new(10.0), Energy::new(8.0))
        .uniform_migration(Time::new(1.0), Energy::new(0.5))
        .build();
    let urgent = TaskType::builder(1, &platform)
        .profile(ids[0], Time::new(4.0), Energy::new(3.0))
        .build();
    let catalog = TaskCatalog::new(vec![slow, urgent]);
    let trace = Trace::new(vec![
        req(0, 0.0, 11.0),
        Request {
            id: RequestId::new(1),
            arrival: Time::new(2.0),
            task_type: TaskTypeId::new(1),
            deadline: Time::new(4.5),
        },
    ]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut ExactRm::new(), None);
    assert!((r.migration_energy.value() - 0.5).abs() < 1e-9);
    assert_eq!(r.wasted_energy, Energy::ZERO);
}

#[test]
fn utilization_reflects_busy_time() {
    let (platform, catalog) = small_world();
    // Two sequential GPU tasks: GPU busy 8 of makespan 8, CPU idle.
    let trace = Trace::new(vec![req(0, 0.0, 50.0), req(1, 1.0, 50.0)]);
    let sim = Simulator::new(&platform, &catalog, SimConfig::default());
    let r = sim.run(&trace, &mut HeuristicRm::new(), None);
    let cpu = platform.ids().next().expect("cpu");
    let gpu = platform.ids().nth(1).expect("gpu");
    assert!(
        (r.utilization(gpu) - 1.0).abs() < 1e-9,
        "gpu={}",
        r.utilization(gpu)
    );
    assert_eq!(r.utilization(cpu), 0.0);
    assert_eq!(r.busy_time[gpu.index()], Time::new(8.0));
}
