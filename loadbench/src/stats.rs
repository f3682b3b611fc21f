//! Exact order statistics over recorded samples.
//!
//! Every reported percentile is a nearest-rank pick from the sorted
//! samples, never a histogram bucket bound, and travels with its sample
//! count.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`: the value at
/// 1-based rank `ceil(p * n)` of the sorted samples. `None` when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (mean of the middle pair for even counts), used
/// for repeated whole-run timings such as set-up.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Latency samples (µs) and failure accounting for one request type.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Latency of every successful timed request, µs.
    pub samples_us: Vec<f64>,
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests answered with anything but `ok:true`.
    pub failed: u64,
    /// Warm-up requests sent before timing started (not in the samples).
    pub warmup: u64,
}

impl OpStats {
    /// `p50 … p99 (n=…)` summary line, or `-` when nothing was timed.
    pub fn summary(&self) -> String {
        match (
            nearest_rank(&self.samples_us, 0.5),
            nearest_rank(&self.samples_us, 0.99),
        ) {
            (Some(p50), Some(p99)) => format!(
                "p50 {p50:.1}us p99 {p99:.1}us (n={}) failed {}/{} warmup {}",
                self.samples_us.len(),
                self.failed,
                self.attempted,
                self.warmup
            ),
            _ => format!(
                "- (n=0) failed {}/{} warmup {}",
                self.failed, self.attempted, self.warmup
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        // Ranks ceil(p*5): p=0.05 → 1, 0.3 → 2, 0.4 → 2, 0.5 → 3, 1.0 → 5.
        assert_eq!(nearest_rank(&xs, 0.05), Some(15.0));
        assert_eq!(nearest_rank(&xs, 0.3), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0.4), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0.5), Some(35.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(50.0));
        // Unsorted input, even count: p50 of 10 samples is rank 5.
        let ys = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0];
        assert_eq!(nearest_rank(&ys, 0.5), Some(5.0));
        // p99 of 10 samples is rank ceil(9.9) = 10, the maximum.
        assert_eq!(nearest_rank(&ys, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
