//! The generic optimizers the paper tried and dismissed as
//! non-parsimonious ("We also investigated Stochastic Approximation and
//! Simulated Annealing, but they achieved bad results because they are not
//! parsimonious"), plus a random-search floor. They are reached by name
//! through [`crate::StrategyKind`] and raced in `examples/cluster_sim.rs`.

use crate::{ActionSpace, History, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random search (a sanity floor for the comparisons).
#[derive(Debug, Clone)]
pub struct RandomSearch {
    n: usize,
    rng: StdRng,
}

impl RandomSearch {
    /// Uniform over `1..=N`, deterministic given `seed`.
    pub fn new(space: &ActionSpace, seed: u64) -> Self {
        RandomSearch { n: space.max_nodes, rng: StdRng::seed_from_u64(seed) }
    }
}

impl Strategy for RandomSearch {
    fn name(&self) -> &'static str {
        "Random"
    }
    fn propose(&mut self, space: &ActionSpace, _hist: &History) -> usize {
        // Draw over the construction space to keep the RNG stream
        // identical fault-free, then fold into the live platform.
        self.rng.random_range(1..=self.n).min(space.max_nodes)
    }
}

/// Simulated annealing over node counts (R `optim`'s SANN analogue):
/// propose a random neighbour, accept with the Metropolis rule under a
/// geometric cooling schedule. Each acceptance test costs a full
/// application iteration — hence the non-parsimony.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    n: usize,
    rng: StdRng,
    current: usize,
    current_y: Option<f64>,
    temp: f64,
    cooling: f64,
    awaiting: Option<usize>,
}

impl SimulatedAnnealing {
    /// Start from all nodes with an initial temperature matched to the
    /// typical duration scale.
    pub fn new(space: &ActionSpace, seed: u64) -> Self {
        SimulatedAnnealing {
            n: space.max_nodes,
            rng: StdRng::seed_from_u64(seed),
            current: space.max_nodes,
            current_y: None,
            temp: 1.0,
            cooling: 0.95,
            awaiting: None,
        }
    }
}

impl Strategy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "SANN"
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        // Fold into the live space after node loss.
        if self.n > space.max_nodes {
            self.n = space.max_nodes;
            self.current = self.current.min(self.n);
        }
        // Absorb the pending observation (quarantine may have dropped it).
        if let Some(cand) = self.awaiting.take() {
            if let Some(&(_, y)) = hist.records().last() {
                match self.current_y {
                    None => {
                        self.current = cand.min(self.n);
                        self.current_y = Some(y);
                    }
                    Some(cy) => {
                        let accept = y < cy || {
                            let p = ((cy - y) / (self.temp * cy.abs().max(1e-9))).exp();
                            self.rng.random_range(0.0..1.0) < p
                        };
                        if accept {
                            self.current = cand.min(self.n);
                            self.current_y = Some(y);
                        }
                    }
                }
                self.temp *= self.cooling;
            }
        }
        if self.current_y.is_none() {
            self.awaiting = Some(self.current);
            return self.current;
        }
        // Neighbour proposal: a step whose width shrinks with temperature.
        let span = ((self.n as f64 * self.temp).ceil() as i64).max(1);
        let step = self.rng.random_range(-span..=span);
        let cand = (self.current as i64 + step).clamp(1, self.n as i64) as usize;
        self.awaiting = Some(cand);
        cand
    }
}

/// Kiefer–Wolfowitz stochastic approximation: finite-difference gradient
/// steps `x ← x − a_t (y(x+c) − y(x−c)) / (2c)` with decaying gains. Needs
/// two measurements per step and drifts under discontinuities.
#[derive(Debug, Clone)]
pub struct StochasticApproximation {
    n: usize,
    x: f64,
    t: usize,
    plus: Option<f64>,
    awaiting: Option<bool>, // true = plus probe, false = minus probe
}

impl StochasticApproximation {
    /// Start from the middle of the space.
    pub fn new(space: &ActionSpace) -> Self {
        StochasticApproximation {
            n: space.max_nodes,
            x: (space.max_nodes as f64 + 1.0) / 2.0,
            t: 1,
            plus: None,
            awaiting: None,
        }
    }

    fn clamp(&self, v: f64) -> usize {
        (v.round() as i64).clamp(1, self.n as i64) as usize
    }
}

impl Strategy for StochasticApproximation {
    fn name(&self) -> &'static str {
        "SPSA"
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        // Fold into the live space after node loss.
        if self.n > space.max_nodes {
            self.n = space.max_nodes;
            self.x = self.x.min(self.n as f64);
        }
        let c = (self.n as f64 / 8.0 / (self.t as f64).powf(0.25)).max(1.0);
        if let Some(was_plus) = self.awaiting.take() {
            if let Some(&(_, y)) = hist.records().last() {
                if was_plus {
                    self.plus = Some(y);
                } else if let Some(yp) = self.plus.take() {
                    let grad = (yp - y) / (2.0 * c);
                    let a = self.n as f64 / (4.0 * self.t as f64);
                    self.x = (self.x - a * grad).clamp(1.0, self.n as f64);
                    self.t += 1;
                }
            }
        }
        let probe_plus = self.plus.is_none();
        self.awaiting = Some(probe_plus);
        if probe_plus {
            self.clamp(self.x + c)
        } else {
            self.clamp(self.x - c)
        }
    }
}

/// 1D Nelder–Mead as an online strategy (the paper: "We also tried
/// multi-dimension algorithms like Nelder-Mead and BFGS with no better
/// results"). In one dimension the simplex is a segment; each propose
/// evaluates one vertex-update candidate.
#[derive(Debug, Clone)]
pub struct NelderMead1d {
    n: usize,
    /// The two simplex vertices and their values (None until measured).
    simplex: [(f64, Option<f64>); 2],
    awaiting: Option<usize>, // which vertex the last proposal refreshed
    pending_candidate: Option<f64>,
    converged: bool,
}

impl NelderMead1d {
    /// Initial segment spans the middle half of the space.
    pub fn new(space: &ActionSpace) -> Self {
        let n = space.max_nodes;
        let a = (n as f64 * 0.25).max(1.0);
        let b = (n as f64 * 0.75).max(a + 1.0).min(n as f64);
        NelderMead1d {
            n,
            simplex: [(a, None), (b, None)],
            awaiting: None,
            pending_candidate: None,
            converged: false,
        }
    }

    fn clamp(&self, v: f64) -> usize {
        (v.round() as i64).clamp(1, self.n as i64) as usize
    }
}

impl Strategy for NelderMead1d {
    fn name(&self) -> &'static str {
        "Nelder-Mead"
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        // Fold the simplex into the live space after node loss; a vertex
        // beyond the surviving platform must be re-measured at the edge.
        if self.n > space.max_nodes {
            self.n = space.max_nodes;
            let edge = self.n as f64;
            for v in &mut self.simplex {
                if v.0 > edge {
                    *v = (edge, None);
                }
            }
        }
        // Absorb the pending measurement.
        if let Some(idx) = self.awaiting.take() {
            let Some(&(_, y)) = hist.records().last() else {
                // Quarantined away: forget the candidate and re-plan.
                self.pending_candidate = None;
                return self.clamp(self.simplex[0].0);
            };
            if let Some(cand) = self.pending_candidate.take() {
                // Candidate replaces the worst vertex if it improves it.
                let worst = if self.simplex[0].1.unwrap_or(f64::INFINITY)
                    >= self.simplex[1].1.unwrap_or(f64::INFINITY)
                {
                    0
                } else {
                    1
                };
                if y < self.simplex[worst].1.unwrap_or(f64::INFINITY) {
                    self.simplex[worst] = (cand, Some(y));
                } else {
                    // Shrink toward the best vertex.
                    let best = 1 - worst;
                    let bx = self.simplex[best].0;
                    let wx = self.simplex[worst].0;
                    self.simplex[worst] = (bx + 0.5 * (wx - bx), None);
                }
            } else {
                self.simplex[idx].1 = Some(y);
            }
        }
        // Measure unmeasured vertices first.
        for (i, (x, v)) in self.simplex.iter().enumerate() {
            if v.is_none() {
                self.awaiting = Some(i);
                return self.clamp(*x);
            }
        }
        let (x0, f0) = (self.simplex[0].0, self.simplex[0].1.unwrap());
        let (x1, f1) = (self.simplex[1].0, self.simplex[1].1.unwrap());
        if (x0 - x1).abs() < 0.75 {
            self.converged = true;
        }
        if self.converged {
            let best = if f0 <= f1 { x0 } else { x1 };
            return self.clamp(best);
        }
        // Reflect the worst vertex through the best.
        let (bx, wx) = if f0 <= f1 { (x0, x1) } else { (x1, x0) };
        let candidate = (bx + (bx - wx)).clamp(1.0, self.n as f64);
        self.pending_candidate = Some(candidate);
        self.awaiting = Some(usize::MAX);
        self.clamp(candidate)
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
            assert!((1..=64).contains(&a), "out of range: {a}");
            h.record(a, f(a));
        }
        h
    }

    #[test]
    fn random_covers_the_space() {
        let space = ActionSpace::unstructured(10);
        let mut r = RandomSearch::new(&space, 1);
        let h = drive(&mut r, &space, |n| n as f64, 200);
        for a in 1..=10 {
            assert!(h.count_for(a) > 0, "action {a} never tried");
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let space = ActionSpace::unstructured(10);
        let seq = |seed| {
            let mut r = RandomSearch::new(&space, seed);
            let h = History::new();
            (0..10).map(|_| r.propose(&space, &h)).collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }

    #[test]
    fn sann_eventually_prefers_good_region() {
        let space = ActionSpace::unstructured(20);
        let mut s = SimulatedAnnealing::new(&space, 3);
        let f = |n: usize| (n as f64 - 8.0).powi(2) + 1.0;
        let h = drive(&mut s, &space, f, 150);
        let late: Vec<usize> = h.records()[120..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (5..=11).contains(&a)).count();
        assert!(near * 2 >= late.len(), "late: {late:?}");
    }

    #[test]
    fn sann_explores_more_than_exploitative_methods() {
        // Non-parsimony: count distinct actions visited.
        let space = ActionSpace::unstructured(30);
        let mut s = SimulatedAnnealing::new(&space, 7);
        let h = drive(&mut s, &space, |n| n as f64, 60);
        let distinct: std::collections::BTreeSet<usize> = h.records().iter().map(|r| r.0).collect();
        assert!(distinct.len() >= 8, "only {} distinct", distinct.len());
    }

    #[test]
    fn spsa_descends_smooth_curve() {
        let space = ActionSpace::unstructured(40);
        let mut s = StochasticApproximation::new(&space);
        let f = |n: usize| (n as f64 - 30.0).powi(2);
        let h = drive(&mut s, &space, f, 120);
        let late: Vec<usize> = h.records()[100..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (24..=36).contains(&a)).count();
        assert!(near * 2 >= late.len(), "late: {late:?}");
    }

    #[test]
    fn nelder_mead_1d_descends_convex_curve() {
        let space = ActionSpace::unstructured(40);
        let mut nm = NelderMead1d::new(&space);
        let f = |n: usize| (n as f64 - 22.0).powi(2) + 3.0;
        let h = drive(&mut nm, &space, f, 60);
        let last = h.records().last().unwrap().0;
        assert!((17..=27).contains(&last), "settled at {last}");
    }

    #[test]
    fn nelder_mead_1d_settles_and_exploits() {
        let space = ActionSpace::unstructured(16);
        let mut nm = NelderMead1d::new(&space);
        let h = drive(&mut nm, &space, |n| n as f64, 40);
        let tail: Vec<usize> = h.records()[35..].iter().map(|r| r.0).collect();
        assert!(tail.windows(2).all(|w| w[0] == w[1]), "not settled: {tail:?}");
    }

    #[test]
    fn spsa_alternates_probe_pairs() {
        let space = ActionSpace::unstructured(16);
        let mut s = StochasticApproximation::new(&space);
        let mut h = History::new();
        let a1 = s.propose(&space, &h);
        h.record(a1, 1.0);
        let a2 = s.propose(&space, &h);
        h.record(a2, 2.0);
        // Plus probe then minus probe around the same center.
        assert!(a1 > a2, "probes {a1}, {a2}");
    }
}
