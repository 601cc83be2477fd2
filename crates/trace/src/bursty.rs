//! Markov-modulated (bursty) trace generation.
//!
//! The paper's generator draws interarrivals from a single Gaussian, but
//! the real streams its prior work predicts (Google cluster traces)
//! alternate between bursts and lulls. This generator adds a two-state
//! Markov-modulated arrival process — the workload on which *phase-aware*
//! predictors (e.g. [`TwoPhasePredictor`]) separate from plain smoothing.
//!
//! [`TwoPhasePredictor`]: https://docs.rs/rtrm-predict

use rand::Rng;
use serde::{Deserialize, Serialize};

use rtrm_platform::{Request, RequestId, TaskCatalog, Time, Trace};

use crate::dist::{uniform, Gaussian};
use crate::workload::{draw_type_and_rwcet, Tightness};

/// Parameters of the two-phase (burst / lull) arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstyConfig {
    /// Number of requests per trace.
    pub length: usize,
    /// Interarrival Gaussian inside a burst.
    pub burst_gap: (f64, f64),
    /// Interarrival Gaussian inside a lull.
    pub lull_gap: (f64, f64),
    /// Mean number of requests per phase; at every arrival the phase flips
    /// with probability `1 / mean_phase_len` (geometric phase lengths).
    pub mean_phase_len: f64,
    /// Lower clamp on interarrival gaps.
    pub interarrival_floor: f64,
    /// Deadline tightness group (same rule as the paper's generator).
    pub tightness: Tightness,
}

impl Default for BurstyConfig {
    /// Bursts 4× denser than the calibrated operating point, lulls 2×
    /// sparser, ~25-request phases.
    fn default() -> Self {
        BurstyConfig {
            length: 500,
            burst_gap: (0.7, 0.25),
            lull_gap: (5.6, 1.8),
            mean_phase_len: 25.0,
            interarrival_floor: 0.01,
            tightness: Tightness::VeryTight,
        }
    }
}

/// Which phase the process is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Burst,
    Lull,
}

/// Generates one bursty trace against `catalog`.
///
/// # Panics
///
/// Panics if `config.length` is zero, the catalog is empty, or
/// `mean_phase_len < 1`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtrm_platform::Platform;
/// use rtrm_trace::{generate_bursty_trace, generate_catalog, BurstyConfig, CatalogConfig};
///
/// let platform = Platform::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
/// let trace = generate_bursty_trace(&catalog, &BurstyConfig::default(), &mut rng);
/// assert_eq!(trace.len(), 500);
/// ```
pub fn generate_bursty_trace<R: Rng + ?Sized>(
    catalog: &TaskCatalog,
    config: &BurstyConfig,
    rng: &mut R,
) -> Trace {
    assert!(config.length > 0, "trace must contain at least one request");
    assert!(!catalog.is_empty(), "catalog must not be empty");
    assert!(
        config.mean_phase_len >= 1.0,
        "phases must span >= 1 request"
    );

    let burst = Gaussian::new(config.burst_gap.0, config.burst_gap.1);
    let lull = Gaussian::new(config.lull_gap.0, config.lull_gap.1);
    let flip_p = 1.0 / config.mean_phase_len;
    let (c_lo, c_hi) = match config.tightness {
        Tightness::VeryTight => (1.5, 2.0),
        Tightness::LessTight => (2.0, 6.0),
        Tightness::Custom { lo, hi } => (lo, hi),
    };

    let mut phase = Phase::Burst;
    let mut arrival = 0.0f64;
    let mut requests = Vec::with_capacity(config.length);
    for index in 0..config.length {
        if index > 0 {
            if rng.gen::<f64>() < flip_p {
                phase = match phase {
                    Phase::Burst => Phase::Lull,
                    Phase::Lull => Phase::Burst,
                };
            }
            let dist = match phase {
                Phase::Burst => &burst,
                Phase::Lull => &lull,
            };
            arrival += dist.sample_at_least(rng, config.interarrival_floor);
        }
        let (type_id, rwcet) = draw_type_and_rwcet(catalog, rng);
        requests.push(Request {
            id: RequestId::new(index),
            arrival: Time::new(arrival),
            task_type: type_id,
            deadline: rwcet * uniform(rng, c_lo, c_hi),
        });
    }
    Trace::new(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_catalog, CatalogConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rtrm_platform::Platform;

    fn catalog() -> TaskCatalog {
        let platform = Platform::paper_default();
        generate_catalog(
            &platform,
            &CatalogConfig::paper(),
            &mut StdRng::seed_from_u64(3),
        )
    }

    #[test]
    fn bursty_gaps_are_bimodal() {
        let catalog = catalog();
        let cfg = BurstyConfig {
            length: 3_000,
            ..BurstyConfig::default()
        };
        let trace = generate_bursty_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(4));
        let gaps: Vec<f64> = trace
            .iter()
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).value())
            .collect();
        let short = gaps.iter().filter(|g| **g < 2.0).count();
        let long = gaps.iter().filter(|g| **g > 3.5).count();
        // Both phases are substantially represented.
        assert!(short > gaps.len() / 5, "short gaps: {short}/{}", gaps.len());
        assert!(long > gaps.len() / 5, "long gaps: {long}/{}", gaps.len());
    }

    #[test]
    fn phase_persistence_creates_runs() {
        // Consecutive short gaps should cluster far beyond i.i.d. mixing:
        // count transitions between short/long regimes.
        let catalog = catalog();
        let cfg = BurstyConfig {
            length: 2_000,
            mean_phase_len: 40.0,
            ..BurstyConfig::default()
        };
        let trace = generate_bursty_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(5));
        let regimes: Vec<bool> = trace
            .iter()
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).value() < 2.8)
            .collect();
        let switches = regimes.windows(2).filter(|w| w[0] != w[1]).count();
        // i.i.d. 50/50 would switch ~1000 times; 40-request phases ~50.
        assert!(switches < 400, "switches={switches}");
    }

    #[test]
    fn deterministic_per_seed() {
        let catalog = catalog();
        let cfg = BurstyConfig::default();
        let a = generate_bursty_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(9));
        let b = generate_bursty_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "phases must span")]
    fn tiny_phase_rejected() {
        let catalog = catalog();
        let cfg = BurstyConfig {
            mean_phase_len: 0.5,
            ..BurstyConfig::default()
        };
        let _ = generate_bursty_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(1));
    }
}
