//! Observation history shared by all strategies.

use std::collections::BTreeMap;

/// The record of `(action, duration)` observations, in iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    records: Vec<(usize, f64)>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Append an observation.
    pub fn record(&mut self, action: usize, duration: f64) {
        self.records.push((action, duration));
    }

    /// Number of iterations so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was observed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in iteration order.
    pub fn records(&self) -> &[(usize, f64)] {
        &self.records
    }

    /// Observations of one action.
    pub fn values_for(&self, action: usize) -> Vec<f64> {
        self.records.iter().filter(|&&(a, _)| a == action).map(|&(_, y)| y).collect()
    }

    /// Number of times `action` was selected.
    pub fn count_for(&self, action: usize) -> usize {
        self.records.iter().filter(|&&(a, _)| a == action).count()
    }

    /// Mean duration of `action`, if ever observed.
    pub fn mean_for(&self, action: usize) -> Option<f64> {
        let vs = self.values_for(action);
        if vs.is_empty() {
            None
        } else {
            Some(vs.iter().sum::<f64>() / vs.len() as f64)
        }
    }

    /// First observation of `action`, if any.
    pub fn first_for(&self, action: usize) -> Option<f64> {
        self.records.iter().find(|&&(a, _)| a == action).map(|&(_, y)| y)
    }

    /// Per-action grouped observations (ordered by action).
    pub fn grouped(&self) -> BTreeMap<usize, Vec<f64>> {
        let mut m: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(a, y) in &self.records {
            m.entry(a).or_default().push(y);
        }
        m
    }

    /// The action with the lowest mean observed duration, if any.
    pub fn best_action(&self) -> Option<usize> {
        self.grouped()
            .into_iter()
            .map(|(a, vs)| (a, vs.iter().sum::<f64>() / vs.len() as f64))
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .map(|(a, _)| a)
    }

    /// Total time spent (sum of all iteration durations) — the evaluation
    /// metric of the paper's Fig. 6.
    pub fn total_time(&self) -> f64 {
        self.records.iter().map(|&(_, y)| y).sum()
    }

    /// Drop every record whose action fails the predicate, returning how
    /// many were removed. Used by the driver to quarantine observations
    /// taken on a since-changed platform (e.g. node counts that no longer
    /// exist after a node death).
    pub fn retain_actions(&mut self, mut keep: impl FnMut(usize) -> bool) -> usize {
        let before = self.records.len();
        self.records.retain(|&(a, _)| keep(a));
        before - self.records.len()
    }
}

/// The median of `v`: its middle element once sorted (the upper one of an
/// even count).
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// The [`median`] of `xs` and the median absolute deviation from it — the
/// robust location and scale behind GP-disc's stage-2 variance and the
/// session's outlier fence.
pub(crate) fn median_mad(xs: &[f64]) -> (f64, f64) {
    let m = median(xs.to_vec());
    (m, median(xs.iter().map(|x| (x - m).abs()).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_take_the_upper_middle() {
        assert_eq!(median_mad(&[4.0, 1.0, 9.0, 2.0]), (4.0, 3.0));
        assert_eq!(median_mad(&[5.0, 5.0, 5.0]), (5.0, 0.0));
    }

    fn hist() -> History {
        let mut h = History::new();
        h.record(3, 10.0);
        h.record(5, 4.0);
        h.record(3, 12.0);
        h.record(7, 6.0);
        h
    }

    #[test]
    fn counts_and_means() {
        let h = hist();
        assert_eq!(h.len(), 4);
        assert_eq!(h.count_for(3), 2);
        assert_eq!(h.mean_for(3), Some(11.0));
        assert_eq!(h.mean_for(5), Some(4.0));
        assert_eq!(h.mean_for(9), None);
        assert_eq!(h.first_for(3), Some(10.0));
    }

    #[test]
    fn best_action_by_mean() {
        assert_eq!(hist().best_action(), Some(5));
        assert_eq!(History::new().best_action(), None);
    }

    #[test]
    fn total_time_sums_everything() {
        assert_eq!(hist().total_time(), 32.0);
    }

    #[test]
    fn grouped_preserves_order_within_action() {
        let g = hist().grouped();
        assert_eq!(g[&3], vec![10.0, 12.0]);
        assert_eq!(g.keys().copied().collect::<Vec<_>>(), vec![3, 5, 7]);
    }
}
