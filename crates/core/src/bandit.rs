//! Multi-armed bandit strategies: UCB over all node counts, and the
//! structure-restricted UCB-struct (paper Section IV-C).

use crate::{ActionDiagnostic, ActionSpace, DecisionTrace, History, Strategy};

/// UCB1 (Auer et al.) over a fixed set of arms, minimizing durations.
///
/// Implements Eq. 1 of the paper with the reward `y = −duration`:
/// `x_{t+1} = argmax_x  μ̂(x) + c √(ln t / N_t(x))`, visiting every arm
/// once first. With one arm per node count the exploration is exhaustive —
/// the paper's complaint about plain UCB on large clusters.
#[derive(Debug, Clone)]
pub struct Ucb {
    arms: Vec<usize>,
    label: &'static str,
}

/// Exploration constant `c` of Eq. 1, applied to rewards scaled to [-1, 0].
const C: f64 = 1.0;

impl Ucb {
    /// One arm per node count.
    pub fn new(space: &ActionSpace) -> Self {
        Ucb { arms: space.actions(), label: "UCB" }
    }

    /// Arbitrary arm set (used by [`UcbStruct`]).
    pub fn with_arms(arms: Vec<usize>, label: &'static str) -> Self {
        assert!(!arms.is_empty(), "need at least one arm");
        Ucb { arms, label }
    }
}

impl Strategy for Ucb {
    fn name(&self) -> &'static str {
        self.label
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        // Restrict to arms that still exist on the live platform. If node
        // loss removed every arm (e.g. all group boundaries above the
        // surviving size), fall back to all live nodes.
        let arms: Vec<usize> =
            self.arms.iter().copied().filter(|&a| a <= space.max_nodes).collect();
        if arms.is_empty() {
            return space.max_nodes;
        }
        // Visit unvisited arms in order first.
        for &a in &arms {
            if hist.count_for(a) == 0 {
                return a;
            }
        }
        let t = hist.len().max(1) as f64;
        // Scale rewards so c is comparable across problems: use the spread
        // of observed means.
        let means: Vec<f64> =
            arms.iter().map(|&a| hist.mean_for(a).expect("all arms visited")).collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let scale = (hi - lo).max(1e-12);
        arms.iter()
            .zip(&means)
            .map(|(&a, &m)| {
                let n_a = hist.count_for(a) as f64;
                let reward = -(m - lo) / scale; // in [-1, 0]
                (a, reward + C * (t.ln() / n_a).sqrt())
            })
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .map(|(a, _)| a)
            .expect("arms non-empty")
    }

    fn explain(&self, space: &ActionSpace, hist: &History) -> DecisionTrace {
        let arms: Vec<usize> =
            self.arms.iter().copied().filter(|&a| a <= space.max_nodes).collect();
        if arms.is_empty() {
            return DecisionTrace::minimal("fallback");
        }
        if arms.iter().any(|&a| hist.count_for(a) == 0) {
            return DecisionTrace::minimal("init-sweep");
        }
        let t = hist.len().max(1) as f64;
        let means: Vec<f64> =
            arms.iter().map(|&a| hist.mean_for(a).expect("all arms visited")).collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let scale = (hi - lo).max(1e-12);
        // `mean` is the empirical mean duration, `sd` the exploration
        // bonus width, `acquisition` the (maximized) UCB score.
        let diagnostics = arms
            .iter()
            .zip(&means)
            .map(|(&a, &m)| {
                let n_a = hist.count_for(a) as f64;
                let bonus = C * (t.ln() / n_a).sqrt();
                ActionDiagnostic {
                    action: a,
                    mean: m,
                    sd: bonus,
                    acquisition: -(m - lo) / scale + bonus,
                }
            })
            .collect();
        DecisionTrace { diagnostics, excluded: Vec::new(), note: "ucb".into() }
    }
}

/// UCB restricted to complete homogeneous groups (paper: "only look at
/// multiple complete groups of homogeneous nodes", e.g. 5/10/15 for three
/// groups of five). Tiny action set, noise-resilient — but when the true
/// optimum is inside a group, it can never be reached.
#[derive(Debug, Clone)]
pub struct UcbStruct {
    inner: Ucb,
    max_nodes: usize,
}

impl UcbStruct {
    /// Arms at the cumulative group boundaries.
    pub fn new(space: &ActionSpace) -> Self {
        UcbStruct {
            inner: Ucb::with_arms(space.struct_actions(), "UCB-struct"),
            max_nodes: space.max_nodes,
        }
    }

    /// The restricted arm set (diagnostics).
    pub fn arms(&self) -> &[usize] {
        &self.inner.arms
    }
}

impl Strategy for UcbStruct {
    fn name(&self) -> &'static str {
        "UCB-struct"
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        self.inner.propose(space, hist)
    }

    fn explain(&self, space: &ActionSpace, hist: &History) -> DecisionTrace {
        let mut trace = self.inner.explain(space, hist);
        // Everything outside the group boundaries is structurally
        // excluded, not merely unexplored — within the live platform.
        let n = self.max_nodes.min(space.max_nodes);
        trace.excluded = (1..=n).filter(|a| !self.inner.arms.contains(a)).collect();
        trace.note = format!("ucb-struct:{}", trace.note);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        strat: &mut dyn Strategy,
        space: &ActionSpace,
        f: impl Fn(usize) -> f64,
        iters: usize,
    ) -> History {
        let mut h = History::new();
        for _ in 0..iters {
            let a = strat.propose(space, &h);
            h.record(a, f(a));
        }
        h
    }

    #[test]
    fn ucb_visits_every_arm_once_first() {
        let space = ActionSpace::unstructured(8);
        let mut u = Ucb::new(&space);
        let h = drive(&mut u, &space, |n| n as f64, 8);
        let mut seen: Vec<usize> = h.records().iter().map(|r| r.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn ucb_concentrates_on_best_arm() {
        let space = ActionSpace::unstructured(6);
        let mut u = Ucb::new(&space);
        let f = |n: usize| if n == 4 { 1.0 } else { 10.0 };
        let h = drive(&mut u, &space, f, 120);
        let best_count = h.count_for(4);
        assert!(best_count > 60, "best arm pulled {best_count}/120 times");
    }

    #[test]
    fn ucb_keeps_occasional_exploration() {
        let space = ActionSpace::unstructured(5);
        let mut u = Ucb::new(&space);
        let f = |n: usize| if n == 2 { 1.0 } else { 5.0 };
        let h = drive(&mut u, &space, f, 200);
        // No-regret: suboptimal arms are still tried occasionally.
        for a in [1, 3, 4, 5] {
            assert!(h.count_for(a) >= 2, "arm {a} abandoned entirely");
        }
    }

    #[test]
    fn ucb_struct_only_plays_group_boundaries() {
        let space = ActionSpace::new(15, vec![(1, 5), (6, 10), (11, 15)], None);
        let mut u = UcbStruct::new(&space);
        assert_eq!(u.arms(), &[5, 10, 15]);
        let h = drive(&mut u, &space, |n| n as f64, 60);
        for &(a, _) in h.records() {
            assert!([5, 10, 15].contains(&a), "played non-boundary arm {a}");
        }
    }

    #[test]
    fn ucb_struct_misses_in_group_optimum() {
        // Optimum at 7 (inside group 2): UCB-struct converges to the best
        // boundary (5) but never finds 7 — the paper's scenarios (a)/(e)/(j).
        let space = ActionSpace::new(15, vec![(1, 5), (6, 10), (11, 15)], None);
        let mut u = UcbStruct::new(&space);
        let f = |n: usize| (n as f64 - 7.0).abs() + 1.0;
        let h = drive(&mut u, &space, f, 100);
        assert_eq!(h.count_for(7), 0);
        // Most plays on the nearest boundary (5 or 10, both distance 2-3).
        let good = h.count_for(5) + h.count_for(10);
        assert!(good > 80, "boundary plays: {good}");
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_arms_rejected() {
        let _ = Ucb::with_arms(vec![], "x");
    }

    #[test]
    fn bandits_stay_inside_a_shrunken_live_space() {
        let full = ActionSpace::new(15, vec![(1, 5), (6, 10), (11, 15)], None);
        let live = ActionSpace::new(7, vec![(1, 5), (6, 7)], None);
        let mut u = Ucb::new(&full);
        let mut s = UcbStruct::new(&full);
        let h = drive(&mut u, &live, |n| n as f64, 40);
        for &(a, _) in h.records() {
            assert!(a <= 7, "UCB played dead arm {a}");
        }
        let h = drive(&mut s, &live, |n| n as f64, 40);
        for &(a, _) in h.records() {
            assert!(a <= 7, "UCB-struct played dead arm {a}");
        }
        // Every cached boundary dead: fall back to all live nodes.
        let tiny = ActionSpace::unstructured(3);
        let hist = History::new();
        assert_eq!(s.propose(&tiny, &hist), 3);
    }
}
