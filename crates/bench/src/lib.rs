//! # rtrm-bench
//!
//! Experiment harness reproducing every table and figure of *Niknafs et
//! al., DAC 2019* (see `DESIGN.md` §4 for the index), plus shared utilities
//! for the criterion performance benches.
//!
//! Each paper table and figure is a named sweep (`cargo run --release -p
//! rtrm-bench --bin sweep -- fig2` etc.); the ablations and extensions are
//! binaries of their own. Each prints the paper's rows/series and writes a
//! CSV under `results/`. Scale is controlled with environment variables:
//!
//! * `RTRM_TRACES` — traces per configuration (paper: 500; default: 40)
//! * `RTRM_TRACE_LEN` — requests per trace (paper: 500; default: 200)
//! * `RTRM_SEED` — master seed (default: 1)

#![warn(missing_docs)]

pub mod chart;
pub mod coop;
pub mod figs;
pub mod sweep;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtrm_core::{ExactRm, HeuristicRm, ResourceManager};
use rtrm_platform::{Platform, TaskCatalog, Trace};
use rtrm_predict::{ErrorModel, MarkovHorizonPredictor, OraclePredictor, OverheadModel, Predictor};
use rtrm_sim::{run_batch, PhantomDeadline, SimConfig, SimReport};
use rtrm_trace::{generate_catalog, generate_traces, CatalogConfig, TraceConfig};

/// Experiment scale, read from the environment with paper-aware defaults.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Traces per configuration.
    pub traces: usize,
    /// Requests per trace.
    pub trace_len: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Reads `RTRM_TRACES` / `RTRM_TRACE_LEN` / `RTRM_SEED`.
    #[must_use]
    pub fn from_env() -> Self {
        let get = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Scale {
            traces: get("RTRM_TRACES", 40),
            trace_len: get("RTRM_TRACE_LEN", 200),
            seed: get("RTRM_SEED", 1) as u64,
        }
    }

    /// A tiny scale for smoke tests and the `cargo bench` figure pass.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            traces: 6,
            trace_len: 100,
            seed: 1,
        }
    }
}

/// The evaluated deadline-tightness groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Very tight deadlines (coefficient 1.5–2).
    Vt,
    /// Less tight deadlines (coefficient 2–6).
    Lt,
}

impl Group {
    /// The paper's name for the group.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Group::Vt => "VT",
            Group::Lt => "LT",
        }
    }

    /// The trace configuration at the calibrated operating point. The
    /// interarrival mean can be overridden with `RTRM_MEAN` (the std keeps
    /// the paper's mean/std ratio of 3).
    #[must_use]
    pub fn trace_config(self, trace_len: usize) -> TraceConfig {
        let base = match self {
            Group::Vt => TraceConfig::calibrated_vt(),
            Group::Lt => TraceConfig::calibrated_lt(),
        };
        let mut cfg = TraceConfig {
            length: trace_len,
            ..base
        };
        if let Some(mean) = std::env::var("RTRM_MEAN")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            cfg.interarrival_mean = mean;
            cfg.interarrival_std = mean / 3.0;
        }
        cfg
    }

    /// Phantom-deadline coefficient, paired with the predicted type's
    /// fastest-resource WCET (`PhantomDeadline::MinWcetTimes`): the low end
    /// of the group's deadline-coefficient range, i.e. the tightest deadline
    /// the predicted request could plausibly bring. Validated against the
    /// alternatives with the `ablation_phantom` experiment (EXPERIMENTS.md).
    #[must_use]
    pub fn phantom_coefficient(self) -> f64 {
        match self {
            Group::Vt => 1.5,
            Group::Lt => 2.0,
        }
    }
}

/// A generated workload: the paper's platform and catalog plus one batch of
/// traces per requested group.
#[derive(Debug)]
pub struct Workload {
    /// The 5-CPU + 1-GPU platform.
    pub platform: Platform,
    /// 100 task types.
    pub catalog: TaskCatalog,
    /// Traces, one `Vec` per group requested.
    pub traces: Vec<(Group, Vec<Trace>)>,
}

/// Generates the paper's workload at the given scale.
#[must_use]
pub fn workload(groups: &[Group], scale: Scale) -> Workload {
    let platform = Platform::paper_default();
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let traces = groups
        .iter()
        .map(|&g| {
            let cfg = g.trace_config(scale.trace_len);
            let seed = scale.seed ^ (g as u64 + 1) << 32;
            (g, generate_traces(&catalog, &cfg, scale.traces, seed))
        })
        .collect();
    Workload {
        platform,
        catalog,
        traces,
    }
}

/// Which manager to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `ExactRm` — the paper's "MILP" series.
    Milp,
    /// `HeuristicRm` — Algorithm 1.
    Heuristic,
}

impl Policy {
    /// The paper's label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Milp => "MILP",
            Policy::Heuristic => "heuristic",
        }
    }

    fn build(self) -> Box<dyn ResourceManager + Send> {
        match self {
            // Anytime cut-off keeps pathological activations bounded, but
            // it binds on LT: in fig2's LT prediction-off cell 1 370 of
            // 8 000 searches stop at the budget, 928 of them without a plan
            // (EXPERIMENTS.md F2), so that column is anytime, not exact
            // (ROADMAP, "Make the exact column exact on LT").
            Policy::Milp => Box::new(ExactRm::with_node_budget(25_000)),
            Policy::Heuristic => Box::new(HeuristicRm::new()),
        }
    }
}

/// Predictor configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Oracle {
    /// Prediction off.
    Off,
    /// Oracle with the given error model.
    On(ErrorModel),
    /// Online Markov-chain horizon predictor
    /// ([`rtrm_predict::MarkovHorizonPredictor`]) — learns from the stream
    /// it serves, no oracle access to the trace.
    Markov {
        /// EWMA smoothing factor of the interarrival submodel.
        alpha: f64,
    },
}

/// Runs one (policy, oracle, overhead) configuration over a trace batch and
/// returns the per-trace reports.
#[must_use]
pub fn run_config(
    w: &Workload,
    group: Group,
    traces: &[Trace],
    policy: Policy,
    oracle: Oracle,
    overhead: OverheadModel,
    seed: u64,
) -> Vec<SimReport> {
    let config = SimConfig {
        overhead,
        phantom_deadline: PhantomDeadline::MinWcetTimes(group.phantom_coefficient()),
        ..SimConfig::default()
    };
    let catalog_len = w.catalog.len();
    run_batch(
        &w.platform,
        &w.catalog,
        &config,
        traces,
        |_| policy.build(),
        |i| match oracle {
            Oracle::Off => None,
            Oracle::On(error) => {
                let p: Box<dyn Predictor + Send> = Box::new(OraclePredictor::new(
                    &traces[i],
                    catalog_len,
                    error,
                    seed ^ i as u64,
                ));
                Some(p)
            }
            Oracle::Markov { alpha } => {
                let p: Box<dyn Predictor + Send> =
                    Box::new(MarkovHorizonPredictor::new(catalog_len, alpha));
                Some(p)
            }
        },
    )
}

/// Writes a CSV into `results/<name>.csv` (created on demand), returning the
/// path.
///
/// # Errors
///
/// Any I/O error creating the directory or writing the file, unmodified.
pub fn try_write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(path)
}

/// [`try_write_csv`], with errors surfaced as panics — for renderers and
/// binaries that have nothing sensible to do without their output.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    try_write_csv(name, header, rows).expect("write csv under results/")
}

/// Results directory, shared with the chart renderer.
pub(crate) fn results_dir_for_charts() -> PathBuf {
    results_dir()
}

fn results_dir() -> PathBuf {
    // Workspace root: two levels up from this crate's manifest.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(|root| root.join("results"))
        .expect("bench crate lives two levels under the workspace root")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_smoke() {
        let w = workload(&[Group::Vt, Group::Lt], Scale::smoke());
        assert_eq!(w.catalog.len(), 100);
        assert_eq!(w.traces.len(), 2);
        assert_eq!(w.traces[0].1.len(), 6);
    }

    #[test]
    fn run_config_smoke() {
        let scale = Scale {
            traces: 2,
            trace_len: 40,
            seed: 3,
        };
        let w = workload(&[Group::Vt], scale);
        let (g, traces) = &w.traces[0];
        let reports = run_config(
            &w,
            *g,
            traces,
            Policy::Heuristic,
            Oracle::On(ErrorModel::perfect()),
            OverheadModel::none(),
            9,
        );
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.deadline_misses == 0));
    }
}
