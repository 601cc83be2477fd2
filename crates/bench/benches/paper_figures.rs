//! `cargo bench` figure pass: regenerates every table and figure of the
//! paper at smoke scale, so a single `cargo bench --workspace` run exercises
//! and prints the full experiment suite. For publication-scale numbers use
//! the named sweeps (`cargo run --release -p rtrm-bench --bin sweep --
//! fig2` etc.) with `RTRM_TRACES`/`RTRM_TRACE_LEN` — see EXPERIMENTS.md.

use rtrm_bench::{run_config, workload, Group, Oracle, Policy, Scale};
use rtrm_core::{ExactRm, HeuristicRm, ResourceManager};
use rtrm_platform::{
    Energy, Platform, Request, RequestId, TaskCatalog, TaskType, TaskTypeId, Time, Trace,
};
use rtrm_predict::{ErrorModel, OraclePredictor, OverheadModel};
use rtrm_sim::{mean_energy, mean_rejection_percent, PhantomDeadline, SimConfig, Simulator};

fn scale() -> Scale {
    // Respect env overrides, default to smoke scale for the bench pass.
    if std::env::var("RTRM_TRACES").is_ok() || std::env::var("RTRM_TRACE_LEN").is_ok() {
        Scale::from_env()
    } else {
        Scale::smoke()
    }
}

fn tab1() {
    println!("== Table 1 / Fig 1: motivational example ==");
    let platform = Platform::builder()
        .cpu("cpu1")
        .cpu("cpu2")
        .gpu("gpu")
        .build();
    let ids: Vec<_> = platform.ids().collect();
    let tau1 = TaskType::builder(0, &platform)
        .profile(ids[0], Time::new(8.0), Energy::new(7.3))
        .profile(ids[1], Time::new(12.0), Energy::new(8.4))
        .profile(ids[2], Time::new(5.0), Energy::new(2.0))
        .build();
    let tau2 = TaskType::builder(1, &platform)
        .profile(ids[0], Time::new(7.0), Energy::new(6.2))
        .profile(ids[1], Time::new(8.5), Energy::new(7.5))
        .profile(ids[2], Time::new(3.0), Energy::new(1.5))
        .build();
    let catalog = TaskCatalog::new(vec![tau1, tau2]);
    let trace = Trace::new(vec![
        Request {
            id: RequestId::new(0),
            arrival: Time::new(0.0),
            task_type: TaskTypeId::new(0),
            deadline: Time::new(8.0),
        },
        Request {
            id: RequestId::new(1),
            arrival: Time::new(1.0),
            task_type: TaskTypeId::new(1),
            deadline: Time::new(5.0),
        },
    ]);
    let sim = Simulator::new(
        &platform,
        &catalog,
        SimConfig {
            phantom_deadline: PhantomDeadline::Fixed(Time::new(5.0)),
            ..SimConfig::default()
        },
    );
    for (label, rm) in [
        ("MILP", &mut ExactRm::new() as &mut dyn ResourceManager),
        ("heuristic", &mut HeuristicRm::new()),
    ] {
        let off = sim.run(&trace, rm, None);
        println!(
            "  {label:<10} no prediction: accepted {}/2, energy {:.2} J (paper: 1/2, 2.0 J)",
            off.accepted,
            off.energy.value()
        );
    }
    for (label, rm) in [
        ("MILP", &mut ExactRm::new() as &mut dyn ResourceManager),
        ("heuristic", &mut HeuristicRm::new()),
    ] {
        let mut oracle = OraclePredictor::perfect(&trace, catalog.len());
        let on = sim.run(&trace, rm, Some(&mut oracle));
        println!(
            "  {label:<10} prediction:    accepted {}/2, energy {:.2} J (paper: 2/2, 8.8 J)",
            on.accepted,
            on.energy.value()
        );
    }
}

fn sec52_fig2_fig3(scale: Scale) {
    println!("\n== Sec 5.2 + Fig 2 + Fig 3: rejection and energy, prediction on/off ==");
    let w = workload(&[Group::Lt, Group::Vt], scale);
    let mut all_off: Vec<(f64, f64)> = Vec::new(); // (milp, heuristic)
    for (group, traces) in &w.traces {
        for policy in [Policy::Milp, Policy::Heuristic] {
            let off = run_config(
                &w,
                *group,
                traces,
                policy,
                Oracle::Off,
                OverheadModel::none(),
                scale.seed,
            );
            let on = run_config(
                &w,
                *group,
                traces,
                policy,
                Oracle::On(ErrorModel::perfect()),
                OverheadModel::none(),
                scale.seed,
            );
            println!(
                "  {:>2} {:<9}: rejection off {:5.2}% -> on {:5.2}%   energy off {:8.1} -> on {:8.1}",
                group.name(),
                policy.name(),
                mean_rejection_percent(&off),
                mean_rejection_percent(&on),
                mean_energy(&off),
                mean_energy(&on),
            );
            if policy == Policy::Milp {
                all_off.push((mean_rejection_percent(&off), 0.0));
            } else if let Some(last) = all_off.last_mut() {
                last.1 = mean_rejection_percent(&off);
            }
        }
    }
    let milp: f64 = all_off.iter().map(|(m, _)| m).sum::<f64>() / all_off.len() as f64;
    let heur: f64 = all_off.iter().map(|(_, h)| h).sum::<f64>() / all_off.len() as f64;
    println!("  Sec 5.2 aggregate (no prediction): MILP {milp:.2}% vs heuristic {heur:.2}% (paper: 24.5 vs 31)");
}

fn fig4(scale: Scale) {
    println!("\n== Fig 4: rejection vs prediction accuracy (VT, heuristic) ==");
    let w = workload(&[Group::Vt], scale);
    let (group, traces) = (&w.traces[0].0, &w.traces[0].1);
    let off = mean_rejection_percent(&run_config(
        &w,
        *group,
        traces,
        Policy::Heuristic,
        Oracle::Off,
        OverheadModel::none(),
        scale.seed,
    ));
    for (panel, make) in [
        (
            "type",
            ErrorModel::with_type_accuracy as fn(f64) -> ErrorModel,
        ),
        ("arrival", ErrorModel::with_arrival_accuracy),
    ] {
        let series: Vec<String> = [1.0, 0.75, 0.5, 0.25]
            .into_iter()
            .map(|acc| {
                let rej = mean_rejection_percent(&run_config(
                    &w,
                    *group,
                    traces,
                    Policy::Heuristic,
                    Oracle::On(make(acc)),
                    OverheadModel::none(),
                    scale.seed,
                ));
                format!("{acc:.2}:{rej:.2}%")
            })
            .collect();
        println!(
            "  {panel:<8} accuracy sweep: {}  off:{off:.2}%",
            series.join("  ")
        );
    }
}

fn fig5(scale: Scale) {
    println!("\n== Fig 5: rejection vs prediction overhead (VT, perfect prediction) ==");
    let w = workload(&[Group::Vt], scale);
    let (group, traces) = (&w.traces[0].0, &w.traces[0].1);
    let off = mean_rejection_percent(&run_config(
        &w,
        *group,
        traces,
        Policy::Heuristic,
        Oracle::Off,
        OverheadModel::none(),
        scale.seed,
    ));
    let series: Vec<String> = [0.0, 0.04, 0.16, 0.64]
        .into_iter()
        .map(|coeff| {
            let rej = mean_rejection_percent(&run_config(
                &w,
                *group,
                traces,
                Policy::Heuristic,
                Oracle::On(ErrorModel::perfect()),
                OverheadModel::fraction_of_interarrival(coeff),
                scale.seed,
            ));
            format!("{:.0}:{rej:.2}%", coeff * 100.0)
        })
        .collect();
    println!("  coeff*100 sweep: {}  off:{off:.2}%", series.join("  "));
}

fn main() {
    let scale = scale();
    println!(
        "paper-figure smoke pass ({} traces x {} requests per configuration)\n",
        scale.traces, scale.trace_len
    );
    tab1();
    sec52_fig2_fig3(scale);
    fig4(scale);
    fig5(scale);
    println!("\nfull-scale runs: see EXPERIMENTS.md");
}
