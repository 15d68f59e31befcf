//! Output-level pin of the GP strategies.
//!
//! `decision_pin` holds the actions of the two paper presets; this file
//! holds everything else they print. Six strategies — GP-UCB, GP-disc and
//! the four ablation variants of `ablation` — each play a seeded 40-action,
//! 3-group table with an LP curve, cold and warm-started, and every run is
//! folded into one 64-bit hash: each iteration's action, its `explain`
//! (note, every diagnostic's bits, the excluded actions), its
//! `posterior_snapshot` and its `surrogate_hyper`, bit for bit, then the
//! same three readers of a fresh strategy on the final history. The hashes
//! were generated on the commit before the two strategies shared one
//! implementation; a difference means an output moved, not the pin.

use adaphet::store::GpHyper;
use adaphet::tuner::{
    ActionSpace, DecisionTrace, GpDiscOptions, GpDiscontinuous, History, PosteriorSnapshot,
    Strategy, StrategyKind, SurrogatePrior, PRIOR_NOISE_INFLATION,
};
use rand::{Rng, SeedableRng};

const NODES: usize = 40;
const ITERS: usize = 48;
const GROUPS: [(usize, usize); 3] = [(1, 10), (11, 26), (27, NODES)];

/// A seeded response table: LP `work/n` plus a per-node cost and a jump at
/// each group boundary, with one multiplicative noise draw per iteration.
struct Table {
    space: ActionSpace,
    mean: Vec<f64>,
    noise: Vec<f64>,
}

fn table(seed: u64) -> Table {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let work = rng.random_range(150.0..300.0);
    let slope = rng.random_range(0.1..0.4);
    let jumps = [0.0, rng.random_range(1.0..3.0), rng.random_range(3.0..6.0)];
    let lp: Vec<f64> = (1..=NODES).map(|n| work / n as f64).collect();
    let mean = (1..=NODES)
        .map(|n| {
            let g = GROUPS.iter().position(|&(lo, hi)| n >= lo && n <= hi).unwrap();
            work / n as f64 + slope * n as f64 + jumps[g]
        })
        .collect();
    let noise = (0..ITERS).map(|_| rng.random_range(0.95..1.05)).collect();
    Table { space: ActionSpace::new(NODES, GROUPS.to_vec(), Some(lp)), mean, noise }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn trace(&mut self, t: &DecisionTrace) {
        self.word(t.note.len() as u64);
        t.note.bytes().for_each(|b| self.word(u64::from(b)));
        self.word(t.diagnostics.len() as u64);
        for d in &t.diagnostics {
            self.word(d.action as u64);
            self.f(d.mean);
            self.f(d.sd);
            self.f(d.acquisition);
        }
        self.word(t.excluded.len() as u64);
        t.excluded.iter().for_each(|&a| self.word(a as u64));
    }

    fn snapshot(&mut self, s: &Option<PosteriorSnapshot>) {
        let Some(s) = s else { return self.word(u64::MAX) };
        self.word(s.points.len() as u64);
        for p in &s.points {
            self.word(p.action as u64);
            self.f(p.mean);
            self.f(p.sd);
            self.word(p.lp_bound.map_or(u64::MAX, f64::to_bits));
            self.word(u64::from(p.excluded));
        }
    }

    fn hyper(&mut self, h: &Option<GpHyper>) {
        let Some(h) = h else { return self.word(u64::MAX) };
        h.kernel_family.bytes().for_each(|b| self.word(u64::from(b)));
        self.f(h.theta);
        self.f(h.process_var);
        self.f(h.noise_var);
        self.word(h.trend_coefficients.len() as u64);
        h.trend_coefficients.iter().for_each(|&c| self.f(c));
    }

    fn readers(&mut self, s: &dyn Strategy, space: &ActionSpace, hist: &History) {
        self.trace(&s.explain(space, hist));
        self.snapshot(&s.posterior_snapshot(space, hist));
        self.hyper(&s.surrogate_hyper(space, hist));
    }
}

/// The six strategies, by the name `ablation` prints (GP-UCB by its own).
const VARIANTS: [&str; 6] =
    ["GP-UCB", "full", "no-bounds", "no-dummies", "no-lp-residual", "plain"];

fn build(variant: &str, space: &ActionSpace) -> Box<dyn Strategy> {
    let options = match variant {
        "GP-UCB" => return StrategyKind::GpUcb.build(space, 0, None).unwrap(),
        "full" => GpDiscOptions::default(),
        "no-bounds" => GpDiscOptions { use_bounds: false, ..Default::default() },
        "no-dummies" => GpDiscOptions { use_dummies: false, ..Default::default() },
        "no-lp-residual" => GpDiscOptions { use_lp_residual: false, ..Default::default() },
        "plain" => GpDiscOptions { use_bounds: false, use_dummies: false, use_lp_residual: false },
        other => panic!("unknown variant {other}"),
    };
    Box::new(GpDiscontinuous::with_options(space, options))
}

/// One run of `variant` on `t`: its hash and history.
fn run(t: &Table, variant: &str, prior: Option<&SurrogatePrior>) -> (u64, History) {
    let mut strategy = build(variant, &t.space);
    if let Some(p) = prior {
        assert!(strategy.warm_start(p.clone()), "{variant} accepts priors");
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut hist = History::new();
    for it in 0..ITERS {
        let a = strategy.propose(&t.space, &hist);
        h.word(a as u64);
        h.readers(strategy.as_ref(), &t.space, &hist);
        hist.record(a, t.mean[a - 1] * t.noise[it]);
    }
    let mut fresh = build(variant, &t.space);
    if let Some(p) = prior {
        fresh.warm_start(p.clone());
    }
    h.readers(fresh.as_ref(), &t.space, &hist);
    (h.0, hist)
}

/// The cold run's first 24 records and final hyper-parameters.
fn prior_from(t: &Table, variant: &str, cold: &History) -> SurrogatePrior {
    SurrogatePrior {
        observations: cold.records()[..24].to_vec(),
        noise_inflation: PRIOR_NOISE_INFLATION,
        hyper: build(variant, &t.space).surrogate_hyper(&t.space, cold),
    }
}

/// `(cold, warm)` hashes per variant, in [`VARIANTS`] order, on `table(23)`.
const PINS: [(u64, u64); 6] = [
    (0xfb7a_dc9b_d11d_a650, 0xc369_6aec_43d8_14b3),
    (0x1444_17db_ae5f_90a2, 0xbcb5_bc13_05cd_eea4),
    (0x304c_0f55_8b8e_2d5e, 0xfc11_c7c0_4777_d4dc),
    (0x9653_080c_1322_66eb, 0xd080_93b1_6b09_5ce3),
    (0x20aa_1f0a_ab48_f15d, 0xc044_3a65_d196_f7ea),
    (0x0e61_35b5_bfbd_2804, 0x4530_f81d_5c23_110c),
];

#[test]
fn gp_outputs_match_the_pinned_hashes() {
    let t = table(23);
    let mut got = Vec::new();
    for variant in VARIANTS {
        let (cold, hist) = run(&t, variant, None);
        let (warm, _) = run(&t, variant, Some(&prior_from(&t, variant, &hist)));
        got.push((cold, warm));
    }
    for (variant, (cold, warm)) in VARIANTS.iter().zip(&got) {
        println!("{variant}: ({cold:#018x}, {warm:#018x})");
        assert_ne!(cold, warm, "{variant}: the prior must have been folded in");
    }
    assert_eq!(got, PINS, "(cold, warm) hashes per variant, in VARIANTS order");
}
