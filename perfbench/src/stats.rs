//! Order statistics for the benchmark's timing series.
//!
//! Every timing is reported as a median plus the highest tail percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, with the
//! sample count stated. Failed requests enter latency series as
//! `f64::INFINITY`, so they always miss a latency limit.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentiles the benchmark may report, highest first, in
/// hundredths of a percent (integer arithmetic keeps the rule exact).
const TAIL_LADDER_BP: [usize; 4] = [9_990, 9_900, 9_000, 5_000];

/// 1-based nearest rank of the percentile `bp` (hundredths of a percent)
/// in `n` samples.
fn rank(n: usize, bp: usize) -> usize {
    (n * bp).div_ceil(10_000).clamp(1, n.max(1))
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when even the median has fewer (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_BP
        .into_iter()
        .find(|&bp| n >= 1 && n - rank(n, bp) >= TAIL_MIN_BEYOND)
        .map(|bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be sorted
/// ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    let bp = (p * 100.0).round() as usize;
    sorted[rank(sorted.len(), bp) - 1]
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for even counts); `0.0` for
/// an empty series.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency series summarized the way the benchmark reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile, when [`tail_percentile`] allows it.
    pub p99: Option<f64>,
}

impl Summary {
    /// Summarizes `values` (failures as `f64::INFINITY`).
    pub fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        if v.is_empty() {
            return Self {
                count: 0,
                p50: f64::INFINITY,
                p99: None,
            };
        }
        let p99 = tail_percentile(v.len())
            .filter(|&p| p >= 99.0)
            .map(|_| percentile_sorted(&v, 99.0));
        Self {
            count: v.len(),
            p50: percentile_sorted(&v, 50.0),
            p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..30_000 {
            let p = tail_percentile(n).unwrap();
            let bp = (p * 100.0).round() as usize;
            assert!(n - rank(n, bp) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            // The next rung up would leave fewer than ten beyond.
            if let Some(&higher) = TAIL_LADDER_BP.iter().rev().find(|&&h| h > bp) {
                assert!(n - rank(n, higher) < TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(percentile_sorted(&v, 100.0), 1_000.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_reports_p99_only_with_enough_samples() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(Summary::of(&small).p99, None);
        let mut big: Vec<f64> = (1..=2_000).map(f64::from).collect();
        big[0] = f64::INFINITY;
        let s = Summary::of(&big);
        assert_eq!(s.count, 2_000);
        assert_eq!(s.p99, Some(1_981.0));
    }

    #[test]
    fn failures_push_the_tail_to_infinity() {
        let mut v = vec![1.0; 2_000];
        for x in v.iter_mut().take(21) {
            *x = f64::INFINITY;
        }
        assert_eq!(Summary::of(&v).p99, Some(f64::INFINITY));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
