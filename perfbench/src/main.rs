//! rtrm's benchmark: admission latency, throughput and decision quality on
//! three workloads, driven only through rtrm's public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-paper-lt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is one JSON
//! object; the exit code is 1 when a correctness check failed. See
//! `perfbench/README.md`.

mod layers;
mod probe;
mod stats;
mod workloads;

use std::time::Instant;

use rtrm_sim::SimScratch;

use crate::layers::{per_layer, Metric, Outside};
use crate::probe::{thread_cpu_ns, Mode, SharedLog};
use crate::stats::{cpu_ticks, median, percentile, sorted, steal_pct, Digest};
use crate::workloads::{Pass, Slot, Workload, World, BATCH_WORKERS, CHECK_SCALE};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <stream-paper-lt|batch-paper-exact> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A world ready to run, and what setting it up cost.
struct Setup {
    world: World,
    scratch: SimScratch,
    slots: Vec<Slot>,
    setup_s: f64,
    generate_ms: f64,
    index_build_ms: f64,
}

/// Builds the workload [`SETUP_REPS`] times and keeps the last. `setup_s`
/// covers catalog and trace generation, `PlatformIndex` priming and
/// manager/predictor construction — everything before the first timed
/// admit — on the thread CPU clock, like the admits. The batch pool primes
/// its own scratches and builds its managers inside the timed run, so for
/// it `setup_s` is generation alone.
fn setup(workload: Workload, seed: u64) -> Setup {
    let (mut totals, mut generates, mut indexes) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let began = thread_cpu_ns();
        let world = workload.world(seed, workload.scale());
        let generated = thread_cpu_ns();
        let mut scratch = SimScratch::new();
        scratch.prime(&world.simulator());
        let primed = thread_cpu_ns();
        let slots = if workload.is_stream() {
            world.slots(0, None)
        } else {
            Vec::new()
        };
        let end = if workload.is_stream() {
            thread_cpu_ns()
        } else {
            generated
        };
        totals.push((end - began) as f64 / 1e9);
        generates.push((generated - began) as f64 / 1e6);
        indexes.push((primed - generated) as f64 / 1e6);
        last = Some((world, scratch, slots));
    }
    let (world, scratch, slots) = last.expect("at least one set-up");
    Setup {
        world,
        scratch,
        slots,
        setup_s: median(&totals),
        generate_ms: median(&generates),
        index_build_ms: median(&indexes),
    }
}

/// One pass over group `g` of `world`, traced or not. `slots` are the
/// group's stream sessions to use (fresh ones are built when `None`).
fn pass(
    world: &World,
    g: usize,
    scratch: &mut SimScratch,
    slots: Option<Vec<Slot>>,
    traced: bool,
) -> Pass {
    if !world.workload.is_stream() {
        return world.batch_pass(g, if traced { Mode::Traced } else { Mode::Timed });
    }
    let logs: Option<Vec<SharedLog>> = traced.then(|| {
        world.groups[g]
            .traces
            .iter()
            .map(|_| SharedLog::default())
            .collect()
    });
    let slots = slots.unwrap_or_else(|| world.slots(g, logs.as_deref()));
    world.stream_pass(g, scratch, slots, logs.as_deref())
}

fn digest(pass: &Pass) -> Digest {
    Digest::combine(pass.verdicts.iter().map(|v| v.digest))
}

/// Rejection (%) and energy per admitted request over `passes`.
fn quality(passes: &[&Pass]) -> (f64, f64) {
    let reports: Vec<_> = passes
        .iter()
        .flat_map(|p| p.reports.iter().flatten())
        .collect();
    let requests: usize = reports.iter().map(|r| r.requests).sum();
    let rejected: usize = reports.iter().map(|r| r.rejected).sum();
    let accepted: usize = reports.iter().map(|r| r.accepted).sum();
    let energy: f64 = reports.iter().map(|r| r.energy.value()).sum();
    (
        100.0 * rejected as f64 / requests.max(1) as f64,
        energy / accepted.max(1) as f64,
    )
}

/// The correctness checks every pass must meet; failures go to `problems`.
fn check(world: &World, pass: &Pass, label: &str, problems: &mut Vec<String>) {
    if pass.failed > 0 {
        problems.push(format!("{label}: {} requests failed", pass.failed));
    }
    for (t, trace) in world.groups[pass.group].traces.iter().enumerate() {
        let v = pass.verdicts[t];
        if v.count != trace.len() || v.out_of_order != 0 {
            problems.push(format!(
                "{label}: trace {t} got {} verdicts ({} out of order) for {} requests",
                v.count,
                v.out_of_order,
                trace.len()
            ));
        }
        let Some(r) = &pass.reports[t] else { continue };
        if r.deadline_misses != 0 {
            problems.push(format!(
                "{label}: trace {t} missed {} deadlines",
                r.deadline_misses
            ));
        }
        if r.requests != trace.len() || r.accepted + r.rejected != r.requests {
            problems.push(format!(
                "{label}: trace {t}: {} accepted + {} rejected for {} requests ({} in the trace)",
                r.accepted,
                r.rejected,
                r.requests,
                trace.len()
            ));
        }
        if r.degraded_activations != 0 || r.solver_timeouts != 0 {
            problems.push(format!(
                "{label}: trace {t}: {} degraded decisions, {} solver timeouts without a wall-clock budget",
                r.degraded_activations, r.solver_timeouts
            ));
        }
    }
}

/// Checks every pass, and that each reproduces the decisions of the first
/// pass over its group. Returns the groups' first passes, in group order
/// (every group must have one).
fn check_all<'p>(
    world: &World,
    passes: &[&'p Pass],
    label: &str,
    problems: &mut Vec<String>,
) -> Vec<&'p Pass> {
    let firsts: Vec<&Pass> = (0..world.groups.len())
        .map(|g| {
            *passes
                .iter()
                .find(|p| p.group == g)
                .expect("every group has a pass")
        })
        .collect();
    for (i, p) in passes.iter().enumerate() {
        check(world, p, &format!("{label} pass {i}"), problems);
        let first = firsts[p.group];
        let ((r, e), (reject, energy)) = (quality(&[p]), quality(&[first]));
        if digest(p) != digest(first)
            || r.to_bits() != reject.to_bits()
            || e.to_bits() != energy.to_bits()
        {
            problems.push(format!(
                "{label} pass {i}: decisions differ from the first pass over group {} (digest {:016x} vs {:016x})",
                p.group,
                digest(p).value(),
                digest(first).value()
            ));
        }
    }
    firsts
}

/// One digest over the decisions of every group, in group order.
fn run_digest(firsts: &[&Pass]) -> Digest {
    Digest::combine(firsts.iter().map(|p| digest(p)))
}

/// The same checks on a small input from a second seed, through one
/// untraced and one traced pass.
fn second_seed(workload: Workload, seed: u64, problems: &mut Vec<String>) -> Digest {
    let world = workload.world(seed, CHECK_SCALE);
    let mut scratch = SimScratch::new();
    scratch.prime(&world.simulator());
    let plain = pass(&world, 0, &mut scratch, None, false);
    let traced = pass(&world, 0, &mut scratch, None, true);
    run_digest(&check_all(
        &world,
        &[&plain, &traced],
        &format!("seed {seed}"),
        problems,
    ))
}

/// Requests decided per second over `passes`.
fn throughput(passes: &[Pass]) -> f64 {
    let requests: usize = passes.iter().map(|p| p.requests).sum();
    let busy_ns: u64 = passes.iter().map(|p| p.busy_ns).sum();
    requests as f64 / (busy_ns as f64 / 1e9)
}

/// End-to-end metrics of the untraced passes, each over all of them pooled.
/// `quality` is the rejection and energy per admit over every group.
fn end_to_end(setup_s: f64, passes: &[Pass], quality: (f64, f64)) -> Vec<Metric> {
    let latency_us = sorted(
        passes
            .iter()
            .flat_map(|p| &p.latency_ns)
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    );
    let (reject_pct, energy_per_admit) = quality;
    vec![
        ("setup_s", setup_s, "s"),
        ("admit_p50_us", percentile(&latency_us, 0.5), "us"),
        ("admit_p99_us", percentile(&latency_us, 0.99), "us"),
        ("throughput_rps", throughput(passes), "1/s"),
        ("reject_pct", reject_pct, "%"),
        ("energy_per_admit", energy_per_admit, "J"),
    ]
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; `main` fails such a run.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let mut problems = Vec::new();

    let Setup {
        world,
        mut scratch,
        slots,
        setup_s,
        generate_ms,
        index_build_ms,
    } = setup(workload, args.seed);

    // The second-seed check runs first: it also warms the allocator and
    // code paths before the first measured pass.
    let second = args.seed.wrapping_add(1);
    let second_digest = second_seed(workload, second, &mut problems);

    // Measure: untraced passes over the groups in turn, each followed by a
    // traced pass over the same group under --trace 1, until the time is up
    // and every group has been served.
    let groups = world.groups.len();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut slots = Some(slots);
    let ticks = cpu_ticks();
    let began = Instant::now();
    loop {
        let g = plain.len() % groups;
        plain.push(pass(&world, g, &mut scratch, slots.take(), false));
        if args.trace {
            traced.push(pass(&world, g, &mut scratch, None, true));
        }
        if plain.len() >= groups && began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let steal = steal_pct(ticks, cpu_ticks());

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let firsts = check_all(&world, &all, &format!("seed {}", args.seed), &mut problems);
    let digest = run_digest(&firsts);
    let attempted: usize = all.iter().map(|p| p.requests).sum();
    let failed: usize = all.iter().map(|p| p.failed).sum();
    let e2e = end_to_end(setup_s, &plain, quality(&firsts));

    let metrics = if args.trace {
        let (untraced_rps, traced_rps) = (throughput(&plain), throughput(&traced));
        let workers = if workload.is_stream() {
            1
        } else {
            BATCH_WORKERS
        };
        let (metrics, misnested) = per_layer(
            &traced,
            workers,
            workload.is_stream(),
            Outside {
                index_build_ms,
                generate_ms,
                overhead_pct: 100.0 * (untraced_rps - traced_rps) / untraced_rps,
            },
        );
        if misnested > 0 {
            problems.push(format!(
                "{misnested} core/predict spans outside their admit span"
            ));
        }
        metrics
    } else {
        e2e.clone()
    };

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is {value}"));
        }
    }

    let scale = workload.scale();
    println!(
        "perfbench {} seed {} trace {} | {} group(s) of {} traces x {} requests, one group per pass | {} untraced + {} traced passes | {} threads available",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        scale.groups,
        scale.traces,
        scale.length,
        plain.len(),
        traced.len(),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    let samples: usize = plain.iter().map(|p| p.latency_ns.len()).sum();
    for (name, value, unit) in &e2e {
        let note = match *name {
            "setup_s" => format!("thread CPU clock; median of {SETUP_REPS} set-ups"),
            "admit_p50_us" | "admit_p99_us" => format!(
                "thread CPU clock; over {} passes; {samples} samples",
                plain.len()
            ),
            "throughput_rps" => format!(
                "{}; over {} passes",
                if workload.is_stream() {
                    "over summed admit CPU time"
                } else {
                    "over the pool's CPU time"
                },
                plain.len()
            ),
            _ => format!("deterministic per seed; over all {groups} group(s)"),
        };
        println!("  {name:<34} {value:>14.4} {unit:<6} {note}");
    }
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
        let get = |key: &str| metrics.iter().find(|m| m.0 == key).map_or(0.0, |m| m.1);
        let admit = get("sim.admit_us");
        println!(
            "  per request: core {:.2} us + predict {:.2} us + sim.self {:.2} us = sim {admit:.2} us",
            get("core.decide_share") * admit,
            get("predict.us_per_admit"),
            get("sim.self_us"),
        );
    }
    match steal {
        Some(s) => println!(
            "  {:<34} {s:>14.4} %      host CPU steal while measuring (/proc/stat)",
            "steal_pct"
        ),
        None => println!("  steal_pct unavailable: /proc/stat unreadable"),
    }
    println!(
        "  digest {:016x} (seed {}, every group, every pass); second seed {second}: {:016x}",
        digest.value(),
        args.seed,
        second_digest.value()
    );
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    /// Every name the program prints, and the units of its metrics, are
    /// well formed, unique, and exactly the ones `BENCHMARK.json` lists.
    #[test]
    fn names_are_well_formed_and_listed_in_benchmark_json() {
        let e2e = end_to_end(1.0, &[Pass::default()], (1.0, 1.0));
        let outside = Outside {
            index_build_ms: 1.0,
            generate_ms: 1.0,
            overhead_pct: 1.0,
        };
        let (layer, _) = per_layer(&[], 1, true, outside);
        let metrics: Vec<Metric> = e2e.into_iter().chain(layer).collect();
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(metrics.iter().map(|m| m.0));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        let units: Vec<&str> = metrics.iter().map(|m| m.2).collect();
        for unit in &units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let values = |key: &str| -> Vec<String> {
            json.split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        assert_eq!(values("name"), names);
        assert_eq!(values("unit"), units);
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = args(&[
            "--workload",
            "batch-paper-exact",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::BatchPaperExact);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "stream-paper-lt", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "stream-paper-lt", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
