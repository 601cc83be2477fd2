//! Patterned workload generation: periodic arrival-rate profiles
//! (diurnal/weekly) and the Markov-modulated burst process, under one
//! [`WorkloadPattern`] switch.
//!
//! The paper's generator draws interarrivals from a single stationary
//! Gaussian; production request streams are anything but stationary — they
//! breathe with the clock (daily peaks, quiet weekends) and with load
//! bursts. These generators modulate the *mean* of the interarrival
//! Gaussian with a deterministic rate profile, which is exactly the
//! structure the phase-binned `PatternHorizonPredictor` (rtrm-predict) is
//! built to learn. Task types and deadlines follow the paper's rules
//! unchanged (uniform type, deadline = RWCET × tightness coefficient), so
//! patterned traces drop into every existing manager and sweep.
//!
//! Batches derive child seeds with the same splitmix constant as
//! [`generate_traces`](crate::generate_traces), so patterned sweeps are
//! reproducible independent of batch size or iteration order.

use rand::Rng;
use serde::{Deserialize, Serialize};

use rtrm_platform::{Request, RequestId, TaskCatalog, Time, Trace};

use crate::bursty::{generate_bursty_trace, BurstyConfig};
use crate::dist::{uniform, Gaussian};
use crate::workload::{draw_type_and_rwcet, Tightness};

/// A sinusoidal "time of day" rate profile: the interarrival mean swings
/// around its base over one period.
///
/// At absolute time `t` the gap Gaussian's mean is
/// `base_gap.0 × (1 + swing × sin(2π t / period))` — gaps shrink in the
/// trough (busy hours) and stretch at the crest (quiet hours); the std
/// scales by the same factor so the coefficient of variation is constant.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtrm_platform::Platform;
/// use rtrm_trace::{generate_catalog, CatalogConfig, DiurnalConfig, WorkloadPattern};
///
/// let platform = Platform::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
/// let pattern = WorkloadPattern::Diurnal(DiurnalConfig::default());
/// let trace = pattern.generate(&catalog, &mut rng);
/// assert_eq!(trace.len(), 500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalConfig {
    /// Number of requests per trace.
    pub length: usize,
    /// Length of one "day" in simulation time units.
    pub period: f64,
    /// `(mean, std)` of the interarrival Gaussian at the average rate.
    pub base_gap: (f64, f64),
    /// Relative modulation depth in `[0, 1)`: 0 is the paper's stationary
    /// generator, 0.9 swings the mean gap between 0.1× and 1.9× base.
    pub swing: f64,
    /// Lower clamp on interarrival gaps.
    pub interarrival_floor: f64,
    /// Deadline tightness group (same rule as the paper's generator).
    pub tightness: Tightness,
}

impl Default for DiurnalConfig {
    /// Calibrated-operating-point gaps (`N(2.8, 0.93²)`), ~18-request days,
    /// a 0.6 swing.
    fn default() -> Self {
        DiurnalConfig {
            length: 500,
            period: 50.0,
            base_gap: (2.8, 2.8 / 3.0),
            swing: 0.6,
            interarrival_floor: 0.01,
            tightness: Tightness::VeryTight,
        }
    }
}

/// A week of diurnal days with quieter weekend days: the diurnal profile
/// of [`DiurnalConfig`] nested under a per-day multiplier.
///
/// Days cycle `0..days_per_week`; the last `weekend_days` of each week
/// multiply the gap mean by `weekend_gap_factor` (> 1 ⇒ sparser arrivals).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtrm_platform::Platform;
/// use rtrm_trace::{generate_catalog, CatalogConfig, WeeklyConfig, WorkloadPattern};
///
/// let platform = Platform::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
/// let pattern = WorkloadPattern::Weekly(WeeklyConfig::default());
/// let trace = pattern.generate(&catalog, &mut rng);
/// assert_eq!(trace.len(), 500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeeklyConfig {
    /// Number of requests per trace.
    pub length: usize,
    /// Length of one day in simulation time units.
    pub day_period: f64,
    /// Days per week (the profile repeats at `day_period × days_per_week`).
    pub days_per_week: usize,
    /// How many trailing days of each week are "weekend".
    pub weekend_days: usize,
    /// Gap-mean multiplier on weekend days (> 1 ⇒ quieter weekends).
    pub weekend_gap_factor: f64,
    /// `(mean, std)` of the interarrival Gaussian at the weekday average.
    pub base_gap: (f64, f64),
    /// Within-day modulation depth in `[0, 1)` (see [`DiurnalConfig`]).
    pub swing: f64,
    /// Lower clamp on interarrival gaps.
    pub interarrival_floor: f64,
    /// Deadline tightness group.
    pub tightness: Tightness,
}

impl Default for WeeklyConfig {
    /// 7-day weeks of ~18-request days with a 2-day weekend at 2.5× gaps.
    fn default() -> Self {
        WeeklyConfig {
            length: 500,
            day_period: 50.0,
            days_per_week: 7,
            weekend_days: 2,
            weekend_gap_factor: 2.5,
            base_gap: (2.8, 2.8 / 3.0),
            swing: 0.6,
            interarrival_floor: 0.01,
            tightness: Tightness::VeryTight,
        }
    }
}

/// A named arrival-rate pattern; `generate` renders it to a [`Trace`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rtrm_platform::Platform;
/// use rtrm_trace::{generate_catalog, BurstyConfig, CatalogConfig, WorkloadPattern};
///
/// let platform = Platform::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
/// let trace = WorkloadPattern::Bursty(BurstyConfig::default()).generate(&catalog, &mut rng);
/// assert_eq!(trace.len(), 500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadPattern {
    /// Sinusoidal daily rate profile.
    Diurnal(DiurnalConfig),
    /// Diurnal days nested under a weekday/weekend cycle.
    Weekly(WeeklyConfig),
    /// Two-state Markov-modulated bursts (delegates to
    /// [`generate_bursty_trace`]).
    Bursty(BurstyConfig),
}

impl WorkloadPattern {
    /// Generates one trace of this pattern against `catalog`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's `length` is zero, the catalog is empty, or a
    /// pattern parameter is out of range (`swing` outside `[0, 1)`,
    /// non-positive periods, `weekend_days > days_per_week`).
    pub fn generate<R: Rng + ?Sized>(&self, catalog: &TaskCatalog, rng: &mut R) -> Trace {
        match self {
            WorkloadPattern::Diurnal(cfg) => {
                assert!(cfg.period > 0.0, "period must be positive");
                assert!((0.0..1.0).contains(&cfg.swing), "swing must be in [0, 1)");
                generate_modulated(
                    catalog,
                    cfg.length,
                    cfg.base_gap,
                    cfg.interarrival_floor,
                    cfg.tightness,
                    rng,
                    |t| diurnal_factor(t, cfg.period, cfg.swing),
                )
            }
            WorkloadPattern::Weekly(cfg) => {
                assert!(cfg.day_period > 0.0, "day_period must be positive");
                assert!((0.0..1.0).contains(&cfg.swing), "swing must be in [0, 1)");
                assert!(cfg.days_per_week > 0, "need at least one day per week");
                assert!(
                    cfg.weekend_days <= cfg.days_per_week,
                    "weekend cannot exceed the week"
                );
                generate_modulated(
                    catalog,
                    cfg.length,
                    cfg.base_gap,
                    cfg.interarrival_floor,
                    cfg.tightness,
                    rng,
                    |t| {
                        let day = (t / cfg.day_period) as usize % cfg.days_per_week;
                        let weekend = day >= cfg.days_per_week - cfg.weekend_days;
                        let day_factor = if weekend { cfg.weekend_gap_factor } else { 1.0 };
                        day_factor * diurnal_factor(t, cfg.day_period, cfg.swing)
                    },
                )
            }
            WorkloadPattern::Bursty(cfg) => generate_bursty_trace(catalog, cfg, rng),
        }
    }

    /// Requests per trace this pattern generates.
    #[must_use]
    pub fn length(&self) -> usize {
        match self {
            WorkloadPattern::Diurnal(cfg) => cfg.length,
            WorkloadPattern::Weekly(cfg) => cfg.length,
            WorkloadPattern::Bursty(cfg) => cfg.length,
        }
    }
}

/// Gap-mean multiplier of the sinusoidal day profile at absolute time `t`.
fn diurnal_factor(t: f64, period: f64, swing: f64) -> f64 {
    1.0 + swing * (std::f64::consts::TAU * t / period).sin()
}

/// Shared body of the modulated generators: a Gaussian gap whose mean (and
/// std, preserving the coefficient of variation) scales by `factor(t)` at
/// the previous arrival's instant; types and deadlines follow the paper's
/// rules exactly (uniform type, deadline = RWCET × U[tightness range)).
fn generate_modulated<R: Rng + ?Sized>(
    catalog: &TaskCatalog,
    length: usize,
    base_gap: (f64, f64),
    floor: f64,
    tightness: Tightness,
    rng: &mut R,
    mut factor: impl FnMut(f64) -> f64,
) -> Trace {
    assert!(length > 0, "trace must contain at least one request");
    assert!(!catalog.is_empty(), "catalog must not be empty");

    let (c_lo, c_hi) = tightness.range();
    let mut requests = Vec::with_capacity(length);
    let mut arrival = 0.0f64;
    for index in 0..length {
        if index > 0 {
            let f = factor(arrival);
            let dist = Gaussian::new(base_gap.0 * f, base_gap.1 * f);
            arrival += dist.sample_at_least(rng, floor);
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

/// Generates a reproducible batch of patterned traces: trace `i` uses a
/// child seed derived from `seed` and `i` with the same scheme as
/// [`generate_traces`](crate::generate_traces), so batches regenerate
/// identically regardless of batch size or iteration order.
pub fn generate_pattern_traces(
    catalog: &TaskCatalog,
    pattern: &WorkloadPattern,
    count: usize,
    seed: u64,
) -> Vec<Trace> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    (0..count)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
            pattern.generate(catalog, &mut rng)
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

    fn catalog() -> TaskCatalog {
        let platform = Platform::paper_default();
        generate_catalog(
            &platform,
            &CatalogConfig::paper(),
            &mut StdRng::seed_from_u64(3),
        )
    }

    /// Mean gap of the requests whose *previous* arrival satisfies `pick`.
    fn mean_gap_where(trace: &Trace, pick: impl Fn(f64) -> bool) -> f64 {
        let reqs: Vec<_> = trace.iter().collect();
        let gaps: Vec<f64> = reqs
            .windows(2)
            .filter(|w| pick(w[0].arrival.value()))
            .map(|w| (w[1].arrival - w[0].arrival).value())
            .collect();
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }

    #[test]
    fn diurnal_rate_tracks_the_day_profile() {
        let cfg = DiurnalConfig {
            length: 4_000,
            ..DiurnalConfig::default()
        };
        let period = cfg.period;
        let trace =
            WorkloadPattern::Diurnal(cfg).generate(&catalog(), &mut StdRng::seed_from_u64(8));
        // sin > 0 over the first half-period ⇒ stretched gaps (quiet);
        // sin < 0 over the second ⇒ compressed gaps (busy).
        let quiet = mean_gap_where(&trace, |t| t.rem_euclid(period) < period / 2.0);
        let busy = mean_gap_where(&trace, |t| t.rem_euclid(period) >= period / 2.0);
        assert!(
            quiet > busy * 1.5,
            "quiet-phase gaps should dominate: quiet={quiet:.2} busy={busy:.2}"
        );
    }

    #[test]
    fn weekly_weekends_are_sparser() {
        let cfg = WeeklyConfig {
            length: 6_000,
            swing: 0.0, // isolate the weekday/weekend axis
            ..WeeklyConfig::default()
        };
        let (day, week, weekend_days, days) = (
            cfg.day_period,
            cfg.day_period * cfg.days_per_week as f64,
            cfg.weekend_days,
            cfg.days_per_week,
        );
        let trace =
            WorkloadPattern::Weekly(cfg).generate(&catalog(), &mut StdRng::seed_from_u64(9));
        let is_weekend = |t: f64| ((t.rem_euclid(week) / day) as usize) >= days - weekend_days;
        let weekend = mean_gap_where(&trace, is_weekend);
        let weekday = mean_gap_where(&trace, |t| !is_weekend(t));
        assert!(
            weekend > weekday * 1.8,
            "weekend gaps should be ~2.5×: weekend={weekend:.2} weekday={weekday:.2}"
        );
    }

    #[test]
    fn bursty_variant_delegates_exactly() {
        let catalog = catalog();
        let cfg = BurstyConfig::default();
        let via_pattern =
            WorkloadPattern::Bursty(cfg.clone()).generate(&catalog, &mut StdRng::seed_from_u64(5));
        let direct = generate_bursty_trace(&catalog, &cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(via_pattern, direct);
    }

    #[test]
    fn pattern_batches_are_reproducible_and_distinct() {
        let catalog = catalog();
        for pattern in [
            WorkloadPattern::Diurnal(DiurnalConfig::default()),
            WorkloadPattern::Weekly(WeeklyConfig::default()),
            WorkloadPattern::Bursty(BurstyConfig::default()),
        ] {
            let a = generate_pattern_traces(&catalog, &pattern, 3, 42);
            let b = generate_pattern_traces(&catalog, &pattern, 3, 42);
            assert_eq!(a, b, "{pattern:?} must regenerate identically");
            assert_ne!(a[0], a[1], "{pattern:?} child seeds must differ");
        }
    }

    /// The patterned child-seed scheme is bit-compatible with
    /// `generate_traces`' — a sweep can mix plain and patterned workloads
    /// under one master seed without seed collisions across indexes.
    #[test]
    fn child_seed_scheme_matches_generate_traces() {
        let catalog = catalog();
        let pattern = WorkloadPattern::Diurnal(DiurnalConfig {
            swing: 0.0,
            ..DiurnalConfig::default()
        });
        // swing 0 reduces the diurnal generator to the stationary one, so
        // identical child seeds must produce the identical trace.
        let plain = crate::generate_traces(&catalog, &crate::TraceConfig::calibrated_vt(), 2, 123);
        let patterned = generate_pattern_traces(&catalog, &pattern, 2, 123);
        assert_eq!(plain, patterned);
    }

    #[test]
    #[should_panic(expected = "swing must be in [0, 1)")]
    fn excessive_swing_rejected() {
        let cfg = DiurnalConfig {
            swing: 1.0,
            ..DiurnalConfig::default()
        };
        let _ = WorkloadPattern::Diurnal(cfg).generate(&catalog(), &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "weekend cannot exceed the week")]
    fn oversized_weekend_rejected() {
        let cfg = WeeklyConfig {
            weekend_days: 8,
            ..WeeklyConfig::default()
        };
        let _ = WorkloadPattern::Weekly(cfg).generate(&catalog(), &mut StdRng::seed_from_u64(1));
    }
}
