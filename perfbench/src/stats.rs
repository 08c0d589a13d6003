//! Order statistics over latency samples, with the sample-count rule: a
//! percentile above the median is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported upper percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.9 * 100` at rank 90 whatever the rounding.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support percentile `q` (in `(0, 1]`): the median
/// needs one sample, an upper percentile needs [`MIN_BEYOND`] beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    if n == 0 {
        return false;
    }
    q <= 0.5 || n - rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile `q` of ascending `sorted`, or `None` when the
/// sample count does not support it (see [`reportable`]).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    reportable(sorted.len(), q).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Median of unsorted values (0 for none): for counts and per-op figures
/// that carry no sample-count rule.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// One latency distribution, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Takes ownership of raw samples and sorts them.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `q`, if the sample count supports it.
    pub fn at(&self, q: f64) -> Option<f64> {
        percentile(&self.sorted, q)
    }

    /// Percentile `q` by nearest rank whatever the sample count (0 for no
    /// samples); pair it with [`reportable`] when printing.
    pub fn nearest(&self, q: f64) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            n => self.sorted[rank(n, q) - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(1), 0.5), Some(1.0));
        assert_eq!(percentile(&ramp(4), 0.5), Some(2.0));
        assert_eq!(percentile(&ramp(5), 0.5), Some(3.0));
    }

    #[test]
    fn upper_percentiles_need_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9.
        assert!(reportable(100, 0.9));
        assert!(!reportable(99, 0.9));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p99 needs a thousand samples.
        assert!(reportable(1000, 0.99));
        assert!(!reportable(999, 0.99));
        // The median needs one.
        assert!(reportable(1, 0.5));
        assert!(!reportable(0, 0.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn latencies_sort_and_summarise() {
        let l = Latencies::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.at(0.5), Some(2.0));
        assert_eq!(l.at(0.9), None);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
