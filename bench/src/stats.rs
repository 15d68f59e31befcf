//! Percentiles, quartiles and the median-of-blocks summary every timing
//! metric is reported as.

/// The `q`-th percentile (`0..=100`) of `values`, interpolating linearly
/// between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a harness bug.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) —
/// the rule the acceptance driver applies to run-to-run spread. `None`
/// below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread figure a metric's bound is held against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One metric over the timed blocks of a run: the median block value,
/// the inter-quartile range of the block values, and how many blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over blocks.
    pub median: f64,
    /// Q3 − Q1 over blocks (0 with fewer than two blocks).
    pub iqr: f64,
    /// Number of blocks summarized.
    pub samples: usize,
}

/// Summarize one value per block.
pub fn summarize(per_block: &[f64]) -> Summary {
    let iqr = quartiles(per_block).map_or(0.0, |[q1, _, q3]| q3 - q1);
    Summary { median: median(per_block), iqr, samples: per_block.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some([1.5, 4.0, 12.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(spread(&[5.0]), None);
    }

    #[test]
    fn summary_is_the_median_of_blocks_with_their_iqr() {
        // Per-block p50s of 9 blocks with one slow outlier: the median
        // ignores it, the IQR reports the ordinary scatter.
        let blocks = [10.0, 10.2, 9.9, 10.1, 30.0, 10.0, 9.8, 10.3, 10.1];
        let s = summarize(&blocks);
        assert_eq!(s.median, 10.1);
        assert_eq!(s.samples, 9);
        assert!(s.iqr > 0.0 && s.iqr < 1.0, "iqr {}", s.iqr);
        let one = summarize(&[4.0]);
        assert_eq!((one.median, one.iqr, one.samples), (4.0, 0.0, 1));
    }
}
