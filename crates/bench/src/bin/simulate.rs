//! General-purpose simulation driver.
//!
//! ```text
//! simulate [--generate vt|lt] [--trace FILE.csv] [--length N] [--seed S]
//!          [--manager heuristic|milp|milp-encoded|static|static-spill]
//!          [--predictor off|oracle|history|two-phase]
//!          [--accuracy-type F] [--accuracy-arrival F]
//!          [--overhead F] [--lookahead K] [--export FILE.csv]
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --release -p rtrm-bench --bin simulate -- --generate vt --manager milp
//! cargo run --release -p rtrm-bench --bin simulate -- \
//!     --trace my.csv --predictor oracle --accuracy-type 0.75
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use rand::SeedableRng;

use rtrm_core::{ExactRm, HeuristicRm, MilpRm, ResourceManager, StaticRm};
use rtrm_platform::{Platform, Trace};
use rtrm_predict::{
    ErrorModel, HistoryPredictor, OraclePredictor, OverheadModel, Predictor, TwoPhasePredictor,
};
use rtrm_sim::{PhantomDeadline, SimConfig, Simulator};
use rtrm_trace::{
    generate_catalog, generate_trace, read_trace_csv, write_trace_csv, CatalogConfig, TraceConfig,
};

#[derive(Debug)]
struct Options {
    generate: String,
    trace_file: Option<String>,
    length: usize,
    seed: u64,
    manager: String,
    predictor: String,
    accuracy_type: f64,
    accuracy_arrival: f64,
    overhead: f64,
    lookahead: usize,
    export: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            generate: "vt".into(),
            trace_file: None,
            length: 200,
            seed: 1,
            manager: "heuristic".into(),
            predictor: "off".into(),
            accuracy_type: 1.0,
            accuracy_arrival: 1.0,
            overhead: 0.0,
            lookahead: 1,
            export: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("flag {name} expects a value"))
        };
        match flag.as_str() {
            "--generate" => opts.generate = value("--generate")?,
            "--trace" => opts.trace_file = Some(value("--trace")?),
            "--length" => {
                opts.length = parse_in(&flag, &value(&flag)?, "at least 1", |&n| n >= 1)?;
            }
            "--seed" => opts.seed = parse(&flag, &value(&flag)?)?,
            "--manager" => opts.manager = value("--manager")?,
            "--predictor" => opts.predictor = value("--predictor")?,
            "--accuracy-type" | "--accuracy-arrival" => {
                let accuracy = parse_in(&flag, &value(&flag)?, "in [0, 1]", |a: &f64| {
                    (0.0..=1.0).contains(a)
                })?;
                if flag == "--accuracy-type" {
                    opts.accuracy_type = accuracy;
                } else {
                    opts.accuracy_arrival = accuracy;
                }
            }
            "--overhead" => {
                opts.overhead = parse_in(
                    &flag,
                    &value(&flag)?,
                    "finite and non-negative",
                    |c: &f64| c.is_finite() && *c >= 0.0,
                )?;
            }
            "--lookahead" => opts.lookahead = parse(&flag, &value(&flag)?)?,
            "--export" => opts.export = Some(value("--export")?),
            "--help" | "-h" => {
                return Err(
                    "usage: see the module docs (simulate --generate vt --manager milp ...)".into(),
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Parses `text`, the value of `flag`.
fn parse<T>(flag: &str, text: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Like [`parse`], but rejects a value that fails `valid`, which
/// `expected` describes.
fn parse_in<T>(
    flag: &str,
    text: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String>
where
    T: std::str::FromStr + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let parsed: T = parse(flag, text)?;
    if valid(&parsed) {
        Ok(parsed)
    } else {
        Err(format!("{flag} must be {expected}, got {parsed}"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("simulate: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;

    let platform = Platform::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);

    let trace: Trace = match &opts.trace_file {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            read_trace_csv(BufReader::new(file)).map_err(|e| e.to_string())?
        }
        None => {
            let base = match opts.generate.as_str() {
                "vt" => TraceConfig::calibrated_vt(),
                "lt" => TraceConfig::calibrated_lt(),
                other => return Err(format!("--generate must be vt or lt, got {other:?}")),
            };
            generate_trace(
                &catalog,
                &TraceConfig {
                    length: opts.length,
                    ..base
                },
                &mut rng,
            )
        }
    };

    // A trace file may name task types the generated catalog lacks.
    if let Some(r) = trace.iter().find(|r| r.task_type.index() >= catalog.len()) {
        return Err(format!(
            "request {} has task_type {}, but the catalog has {} types",
            r.id.index(),
            r.task_type.index(),
            catalog.len()
        ));
    }

    if let Some(path) = &opts.export {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        write_trace_csv(&trace, BufWriter::new(file)).map_err(|e| e.to_string())?;
        println!("exported trace to {path}");
    }

    let mut manager: Box<dyn ResourceManager> = match opts.manager.as_str() {
        "heuristic" => Box::new(HeuristicRm::new()),
        "milp" => Box::new(ExactRm::with_node_budget(25_000)),
        "milp-encoded" => Box::new(MilpRm::new()),
        "static" => Box::new(StaticRm::new(&catalog)),
        "static-spill" => Box::new(StaticRm::with_spill(&catalog)),
        other => return Err(format!("unknown manager {other:?}")),
    };

    let error = ErrorModel {
        type_accuracy: opts.accuracy_type,
        arrival_accuracy: opts.accuracy_arrival,
    };
    let mut predictor: Option<Box<dyn Predictor>> = match opts.predictor.as_str() {
        "off" => None,
        "oracle" => Some(Box::new(OraclePredictor::new(
            &trace,
            catalog.len(),
            error,
            opts.seed,
        ))),
        "history" => Some(Box::new(HistoryPredictor::new(catalog.len(), 0.3))),
        "two-phase" => Some(Box::new(TwoPhasePredictor::new(catalog.len(), 4, 2.0))),
        other => return Err(format!("unknown predictor {other:?}")),
    };

    let config = SimConfig {
        overhead: OverheadModel::fraction_of_interarrival(opts.overhead),
        phantom_deadline: PhantomDeadline::MinWcetTimes(1.5),
        lookahead: opts.lookahead,
        ..SimConfig::default()
    };
    let sim = Simulator::new(&platform, &catalog, config);
    let report = sim.run(
        &trace,
        manager.as_mut(),
        predictor.as_deref_mut().map(|p| p as &mut dyn Predictor),
    );

    println!("manager:            {}", manager.name());
    println!("predictor:          {}", opts.predictor);
    println!("requests:           {}", report.requests);
    println!("accepted:           {}", report.accepted);
    println!(
        "rejected:           {} ({:.2}%)",
        report.rejected,
        report.rejection_percent()
    );
    println!("energy:             {:.2}", report.energy.value());
    println!("deadline misses:    {}", report.deadline_misses);
    println!("plans w/ phantoms:  {}", report.used_prediction);
    println!("makespan:           {:.2}", report.makespan.value());
    Ok(())
}
