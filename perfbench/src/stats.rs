//! Small numeric helpers: percentiles, medians, the decision digest, and the
//! host's CPU steal share.

use rtrm_core::Decision;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between the two closest ranks (numpy's default method). `sorted` must be
/// ascending; an empty slice yields `0.0`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` ascending (they must be finite) and returns them.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values` (`0.0` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// FNV-1a over the admission verdicts of one trace, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one decision in: the admitted flag and every assignment
    /// (job, resource, restart flag, speed bits).
    pub fn decision(&mut self, decision: &Decision) {
        self.word(u64::from(decision.admitted));
        self.word(decision.assignments.len() as u64);
        for a in &decision.assignments {
            self.word(a.key.0);
            self.word(a.resource.index() as u64);
            self.word(u64::from(a.restart));
            self.word(a.speed.to_bits());
        }
    }

    /// Combines per-trace digests, in trace order, into one workload digest.
    #[must_use]
    pub fn combine(traces: impl IntoIterator<Item = Digest>) -> Digest {
        let mut all = Digest::default();
        for d in traces {
            all.word(d.0);
        }
        all
    }

    /// The digest as a number.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The verdicts one trace received: digest, count, and how many arrived out
/// of request order. Each request must get exactly one verdict, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdicts {
    /// Digest of the verdicts, in the order received.
    pub digest: Digest,
    /// Verdicts received.
    pub count: usize,
    /// Verdicts for another request than the trace's next one.
    pub out_of_order: usize,
}

impl Verdicts {
    /// Records the verdict for request `request` of the trace.
    pub fn push(&mut self, request: usize, decision: &Decision) {
        if request != self.count {
            self.out_of_order += 1;
        }
        self.count += 1;
        self.digest.decision(decision);
    }
}

/// Aggregate CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks, or `None` where the file is missing.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Steal share (%) between two [`cpu_ticks`] readings.
#[must_use]
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    let total = t1.checked_sub(t0).filter(|&t| t > 0)?;
    Some(100.0 * s1.saturating_sub(s0) as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_known_samples() {
        let one_to_hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&one_to_hundred, 0.5), 50.5);
        assert!((percentile(&one_to_hundred, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&one_to_hundred, 0.0), 1.0);
        assert_eq!(percentile(&one_to_hundred, 1.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn steal_share_is_a_delta_ratio() {
        assert_eq!(steal_pct(Some((10, 1_000)), Some((15, 1_100))), Some(5.0));
        assert_eq!(steal_pct(Some((10, 1_000)), Some((10, 1_000))), None);
        assert_eq!(steal_pct(None, Some((10, 1_000))), None);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let admit = Decision {
            admitted: true,
            ..Decision::reject()
        };
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.decision(&admit);
        a.decision(&Decision::reject());
        b.decision(&Decision::reject());
        b.decision(&admit);
        assert_ne!(a, b);
        assert_ne!(Digest::combine([a, b]), Digest::combine([b, a]));
    }
}
