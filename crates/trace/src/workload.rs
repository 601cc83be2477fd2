//! Request-trace generation (paper Sec 5.1, second half).
//!
//! Arrivals are a random walk with `Gaussian(1.2, 0.4²)` increments; each
//! arrival is assigned a uniformly random task type; the relative deadline is
//! `RWCET × C` where `RWCET` is the type's WCET on a uniformly random
//! executable resource and `C` is drawn uniformly from `[1.5, 2)` for the
//! very-tight (VT) group or `[2, 6)` for the less-tight (LT) group.

use rand::Rng;
use serde::{Deserialize, Serialize};

use rtrm_platform::{Request, RequestId, TaskCatalog, TaskTypeId, Time, Trace};

use crate::dist::{uniform, Gaussian};

/// Deadline-tightness group of a trace (paper Sec 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Tightness {
    /// Very tight deadlines: coefficient uniform in `[1.5, 2)` (the VT group).
    VeryTight,
    /// Less tight deadlines: coefficient uniform in `[2, 6)` (the LT group).
    LessTight,
    /// Custom coefficient range.
    Custom {
        /// Inclusive lower bound of the deadline coefficient.
        lo: f64,
        /// Exclusive upper bound of the deadline coefficient.
        hi: f64,
    },
}

impl Tightness {
    pub(crate) fn range(self) -> (f64, f64) {
        match self {
            Tightness::VeryTight => (1.5, 2.0),
            Tightness::LessTight => (2.0, 6.0),
            Tightness::Custom { lo, hi } => (lo, hi),
        }
    }
}

/// Parameters of the trace generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of requests per trace (paper: 500).
    pub length: usize,
    /// Mean of the interarrival Gaussian.
    pub interarrival_mean: f64,
    /// Standard deviation of the interarrival Gaussian.
    pub interarrival_std: f64,
    /// Lower clamp on interarrival gaps (keeps arrivals strictly ordered
    /// despite Gaussian tails; the paper leaves tail handling unspecified).
    pub interarrival_floor: f64,
    /// Deadline tightness group.
    pub tightness: Tightness,
}

impl TraceConfig {
    /// The paper's literal VT configuration: interarrival `N(1.2, 0.4²)`,
    /// deadline coefficient `U[1.5, 2)`.
    ///
    /// Note: combined with [`CatalogConfig::paper`](crate::CatalogConfig::paper)
    /// on the 6-resource platform this offers ≈5.6× more work than the
    /// platform can serve, far above the operating point implied by the
    /// paper's reported 24.5–31 % rejection — see `DESIGN.md` §3. Use the
    /// [`calibrated_vt`](TraceConfig::calibrated_vt) preset to land in the
    /// paper's regime.
    #[must_use]
    pub fn paper_vt() -> Self {
        TraceConfig {
            length: 500,
            interarrival_mean: 1.2,
            interarrival_std: 0.4,
            interarrival_floor: 0.01,
            tightness: Tightness::VeryTight,
        }
    }

    /// The paper's literal LT configuration (deadline coefficient `U[2, 6)`).
    #[must_use]
    pub fn paper_lt() -> Self {
        TraceConfig {
            tightness: Tightness::LessTight,
            ..TraceConfig::paper_vt()
        }
    }

    /// VT traces rescaled to the paper's *operating point*: the interarrival
    /// mean/std are multiplied so that the no-prediction rejection rate of
    /// the resource managers falls in the paper's reported 24.5–31 % band
    /// (see `EXPERIMENTS.md` for the calibration run).
    #[must_use]
    pub fn calibrated_vt() -> Self {
        TraceConfig {
            interarrival_mean: 2.8,
            interarrival_std: 2.8 / 3.0,
            ..TraceConfig::paper_vt()
        }
    }

    /// LT traces at the calibrated operating point.
    #[must_use]
    pub fn calibrated_lt() -> Self {
        TraceConfig {
            tightness: Tightness::LessTight,
            ..TraceConfig::calibrated_vt()
        }
    }
}

/// Draws a request's task type uniformly from `catalog` and its RWCET: the
/// type's WCET on a uniformly random executable resource. Every trace
/// generator draws through here, so they share one RNG draw sequence.
pub(crate) fn draw_type_and_rwcet<R: Rng + ?Sized>(
    catalog: &TaskCatalog,
    rng: &mut R,
) -> (TaskTypeId, Time) {
    let type_id = TaskTypeId::new(rng.gen_range(0..catalog.len()));
    let task_type = catalog.task_type(type_id);
    let pick = rng.gen_range(0..task_type.executable_resources().count());
    let resource = task_type
        .executable_resources()
        .nth(pick)
        .expect("pick is below the count");
    let rwcet = task_type.wcet(resource).expect("resource is executable");
    (type_id, rwcet)
}

/// Generates one request trace against `catalog`.
///
/// # Panics
///
/// Panics if `config.length` is zero or the catalog is empty.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtrm_platform::Platform;
/// use rtrm_trace::{generate_catalog, generate_trace, CatalogConfig, TraceConfig};
///
/// let platform = Platform::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
/// let trace = generate_trace(&catalog, &TraceConfig::paper_vt(), &mut rng);
/// assert_eq!(trace.len(), 500);
/// ```
pub fn generate_trace<R: Rng + ?Sized>(
    catalog: &TaskCatalog,
    config: &TraceConfig,
    rng: &mut R,
) -> Trace {
    assert!(config.length > 0, "trace must contain at least one request");
    assert!(!catalog.is_empty(), "catalog must not be empty");

    let gap_dist = Gaussian::new(config.interarrival_mean, config.interarrival_std);
    let (c_lo, c_hi) = config.tightness.range();

    let mut requests = Vec::with_capacity(config.length);
    let mut arrival = 0.0f64;
    for index in 0..config.length {
        if index > 0 {
            arrival += gap_dist.sample_at_least(rng, config.interarrival_floor);
        }
        let (type_id, rwcet) = draw_type_and_rwcet(catalog, rng);
        let coefficient = uniform(rng, c_lo, c_hi);

        requests.push(Request {
            id: RequestId::new(index),
            arrival: Time::new(arrival),
            task_type: type_id,
            deadline: rwcet * coefficient,
        });
    }
    Trace::new(requests)
}

/// Generates a reproducible batch of traces: trace `i` uses a child seed
/// derived from `seed` and `i`, so batches can be regenerated independently
/// of batch size or iteration order.
pub fn generate_traces(
    catalog: &TaskCatalog,
    config: &TraceConfig,
    count: usize,
    seed: u64,
) -> Vec<Trace> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    (0..count)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
            generate_trace(catalog, config, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_catalog, CatalogConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rtrm_platform::Platform;

    fn setup() -> TaskCatalog {
        let platform = Platform::paper_default();
        let mut rng = StdRng::seed_from_u64(11);
        generate_catalog(&platform, &CatalogConfig::paper(), &mut rng)
    }

    #[test]
    fn interarrival_statistics_match() {
        let catalog = setup();
        let cfg = TraceConfig {
            length: 5_000,
            ..TraceConfig::paper_vt()
        };
        let trace = generate_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(2));
        let mean = trace.mean_interarrival().unwrap().value();
        assert!((mean - 1.2).abs() < 0.05, "mean interarrival={mean}");
    }

    #[test]
    fn deadlines_are_rwcet_multiples_in_range() {
        let catalog = setup();
        let trace = generate_trace(
            &catalog,
            &TraceConfig::paper_vt(),
            &mut StdRng::seed_from_u64(3),
        );
        for req in trace.iter() {
            let t = catalog.task_type(req.task_type);
            // The coefficient must be recoverable against *some* executable
            // resource's WCET within [1.5, 2).
            let ok = t.executable_resources().any(|r| {
                let c = req.deadline / t.wcet(r).unwrap();
                (1.5..2.0).contains(&c)
            });
            assert!(ok, "deadline {:?} not explainable", req.deadline);
        }
    }

    #[test]
    fn lt_deadlines_are_looser_on_average() {
        let catalog = setup();
        let vt = generate_trace(
            &catalog,
            &TraceConfig::paper_vt(),
            &mut StdRng::seed_from_u64(4),
        );
        let lt = generate_trace(
            &catalog,
            &TraceConfig::paper_lt(),
            &mut StdRng::seed_from_u64(4),
        );
        let mean = |t: &rtrm_platform::Trace| {
            t.iter().map(|r| r.deadline.value()).sum::<f64>() / t.len() as f64
        };
        assert!(
            mean(&lt) > mean(&vt) * 1.5,
            "vt={} lt={}",
            mean(&vt),
            mean(&lt)
        );
    }

    #[test]
    fn batch_generation_is_reproducible_and_distinct() {
        let catalog = setup();
        let a = generate_traces(&catalog, &TraceConfig::paper_vt(), 3, 77);
        let b = generate_traces(&catalog, &TraceConfig::paper_vt(), 3, 77);
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "different child seeds produce different traces");
    }

    #[test]
    fn custom_tightness() {
        let catalog = setup();
        let cfg = TraceConfig {
            tightness: Tightness::Custom { lo: 10.0, hi: 11.0 },
            ..TraceConfig::paper_vt()
        };
        let trace = generate_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(5));
        for req in trace.iter() {
            let t = catalog.task_type(req.task_type);
            assert!(req.deadline.value() >= 10.0 * t.min_wcet().value() * 0.999);
        }
    }
}
