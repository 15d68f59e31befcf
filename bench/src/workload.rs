//! What every workload gives the harness: a set-up, equal fixed-work
//! blocks, and a tear-down that reports what did not check out.

use crate::gen::Curve;

/// The result of one fixed-work block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Wall time of the block's timed work.
    pub wall_s: f64,
    /// Iterations completed (tuning iterations; for `sweep_sim`,
    /// simulated application iterations).
    pub iters: u64,
    /// One latency sample per iteration (service workloads), or the
    /// per-iteration time of each batch call — a (strategy, table) cell,
    /// a scenario's table — where iterations run in batches that have no
    /// per-iteration clock (in-process workloads). The block's p50 and
    /// p95 are taken over these.
    pub iter_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    /// Decision quality over the block's work.
    pub quality: Quality,
    /// Workload-specific user-visible figures of this block, by metric
    /// name (summarized as medians over blocks).
    pub extra: Vec<(&'static str, f64)>,
}

/// Seed-determined decision quality: how the time spent compares with
/// always running the oracle's choice, and how fast the band is reached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    /// Σ true mean duration of every chosen action.
    pub spent: f64,
    /// Σ over the same iterations of the oracle's duration.
    pub oracle: f64,
    /// Per session: 1-based iteration of the first proposal within
    /// [`BAND`] of the oracle (`iterations + 1` when never reached).
    pub to_band: Vec<f64>,
}

/// A proposal is "in band" within this factor of the oracle's duration.
pub const BAND: f64 = 1.05;

impl Quality {
    /// Fold one finished session in.
    pub fn add_session(&mut self, curve: &Curve, actions: impl IntoIterator<Item = usize>) {
        let oracle = curve.oracle();
        let mut first_in_band = None;
        let mut n = 0usize;
        for (i, action) in actions.into_iter().enumerate() {
            let mean = curve.mean[action - 1];
            self.spent += mean;
            self.oracle += oracle;
            if first_in_band.is_none() && mean <= BAND * oracle {
                first_in_band = Some(i + 1);
            }
            n = i + 1;
        }
        self.to_band.push(first_in_band.unwrap_or(n + 1) as f64);
    }

    /// `100 · spent / oracle`: 100 is the oracle, `regret_pct` is this
    /// minus 100.
    pub fn time_vs_oracle_pct(&self) -> f64 {
        100.0 * self.spent / self.oracle
    }

    /// Mean over sessions of the first in-band iteration.
    pub fn iters_to_band(&self) -> Option<f64> {
        (!self.to_band.is_empty())
            .then(|| self.to_band.iter().sum::<f64>() / self.to_band.len() as f64)
    }
}

/// A set-up workload, ready to run blocks.
pub trait Workload {
    /// Run one fixed-work block.
    fn block(&mut self) -> Block;

    /// The process whose CPU time and peak memory are the cost of the
    /// work: the daemon, or this process for in-process workloads.
    fn cost_pid(&self) -> u32;

    /// Errors the program under test counted itself (the daemon's
    /// `service.error` counter); 0 for in-process workloads.
    fn program_errors(&mut self) -> Result<u64, String> {
        Ok(0)
    }

    /// Tear down (stop the daemon, remove scratch state) and return the
    /// final checks that did not hold.
    fn finish(self: Box<Self>) -> Vec<String>;
}

/// FNV-1a over a stream of words, for output fingerprints.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_and_band_on_a_hand_made_history() {
        // Oracle 10 s at action 3; band = 10.5 s.
        let curve =
            Curve { groups: vec![(1, 4)], mean: vec![20.0, 12.0, 10.0, 10.4], lp: vec![5.0; 4] };
        let mut q = Quality::default();
        q.add_session(&curve, [1, 2, 4, 3, 3]);
        assert_eq!(q.spent, 20.0 + 12.0 + 10.4 + 10.0 + 10.0);
        assert_eq!(q.oracle, 50.0);
        assert!((q.time_vs_oracle_pct() - 124.8).abs() < 1e-9);
        // Action 4 (10.4 s) is the first proposal inside the band.
        assert_eq!(q.to_band, vec![3.0]);
        // A session that never reaches the band is censored at iters + 1.
        q.add_session(&curve, [1, 2, 1]);
        assert_eq!(q.to_band, vec![3.0, 4.0]);
        assert_eq!(q.iters_to_band(), Some(3.5));
        assert_eq!(Quality::default().iters_to_band(), None);
    }

    #[test]
    fn fingerprint_depends_on_every_word_and_their_order() {
        assert_eq!(fingerprint([1, 2, 3]), fingerprint([1, 2, 3]));
        assert_ne!(fingerprint([1, 2, 3]), fingerprint([1, 3, 2]));
        assert_ne!(fingerprint([1, 2, 3]), fingerprint([1, 2]));
    }
}
