//! Order statistics for benchmark samples.
//!
//! Every timing the benchmark reports is summarized the same way: the
//! median, the two quartiles, and the highest percentile of a fixed
//! ladder that still has at least [`TAIL_SUPPORT`] samples beyond it,
//! each printed next to the sample count it rests on.

/// A percentile is only reported when at least this many samples lie
/// beyond it.
pub const TAIL_SUPPORT: f64 = 10.0;

/// Candidate tail percentiles, lowest first.
const LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending,
/// non-empty slice: the value at rank `q * (n - 1)`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The summary of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
    /// The highest supported tail percentile and its value, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = supported_tail(sorted.len()).map(|p| (p, quantile_sorted(&sorted, p / 100.0)));
        Some(Summary {
            n: sorted.len(),
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            tail,
        })
    }
}

/// The highest ladder percentile with at least [`TAIL_SUPPORT`] of `n`
/// samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SUPPORT - 1e-9)
}

/// The `pct`-th percentile of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, pct / 100.0))
}

/// The `pct`-th percentile of every full window of `window` consecutive
/// samples (a trailing partial window is dropped).
pub fn window_percentiles(samples: &[f64], window: usize, pct: f64) -> Vec<f64> {
    samples
        .chunks_exact(window.max(1))
        .filter_map(|w| percentile(w, pct))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).expect("non-empty");
        assert_eq!(even.median, 2.5);
        assert_eq!(even.p25, 1.75);
        assert_eq!(even.p75, 3.25);
    }

    #[test]
    fn empty_and_single_samples() {
        assert!(Summary::of(&[]).is_none());
        assert!(percentile(&[], 50.0).is_none());
        let one = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!((one.p25, one.median, one.p75), (7.0, 7.0, 7.0));
        assert_eq!(one.tail, None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = Summary::of(&xs).expect("non-empty");
        let (pct, value) = s.tail.expect("1000 samples support p99");
        assert_eq!(pct, 99.0);
        assert!((value - 990.01).abs() < 1e-9, "{value}");
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let xs: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(window_percentiles(&xs, 10, 50.0), vec![4.5, 14.5]);
        assert_eq!(window_percentiles(&xs, 10, 100.0), vec![9.0, 19.0]);
        assert!(window_percentiles(&xs, 30, 50.0).is_empty());
    }

    #[test]
    fn percentile_of_unsorted_samples() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), Some(3.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }
}
