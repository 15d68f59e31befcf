//! Seeded input generators. Everything the program under test sees —
//! session specs, response curves, measurement noise, store snapshots —
//! is made here from `--seed`, with a generator of the benchmark's own so
//! that no change to the repository's RNG shims can move the inputs.

use adaphet_core::StrategyKind;
use adaphet_eval::ResponseTable;
use adaphet_service::SessionSpec;
use adaphet_store::{GpHyper, GroupSig, PlatformSignature, SurrogateSnapshot};
use std::collections::BTreeSet;

/// SplitMix64: tiny, fast, and good enough for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag, index)`; distinct triples give
    /// independent streams, so inputs do not depend on generation order.
    pub fn stream(seed: u64, tag: &str, index: u64) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        let mut rng = Rng(h ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Relative measurement noise of every synthetic duration (the paper's
/// σ = 0.5 s on 10–30 s iterations is 2–5 %).
pub const NOISE_REL: f64 = 0.03;

/// A synthetic response: true mean duration and LP lower bound per
/// action over a cluster of heterogeneous groups, fastest group first.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// 1-based inclusive group ranges partitioning `1..=n`.
    pub groups: Vec<(usize, usize)>,
    /// True mean duration of action `k` at `mean[k - 1]`.
    pub mean: Vec<f64>,
    /// LP lower bound of action `k` at `lp[k - 1]`.
    pub lp: Vec<f64>,
}

impl Curve {
    /// Number of actions.
    pub fn n(&self) -> usize {
        self.mean.len()
    }

    /// The oracle's duration: the lowest true mean.
    pub fn oracle(&self) -> f64 {
        self.mean.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// A convex-plus-discontinuous response over groups of `sizes` nodes:
/// compute time `W / S(k)` over the cumulative speed of the `k` fastest
/// nodes, a per-node coordination cost placing the smooth optimum in the
/// interior, and a fixed penalty each time `k` reaches into a slower
/// group. The LP bound is a fixed share of the pure compute time.
pub fn curve(rng: &mut Rng, sizes: &[usize]) -> Curve {
    let n: usize = sizes.iter().sum();
    let mut groups = Vec::with_capacity(sizes.len());
    let mut speeds = Vec::with_capacity(n);
    let mut first = 1;
    let mut speed = 1.0;
    for (g, &size) in sizes.iter().enumerate() {
        if g > 0 {
            speed *= rng.range(0.45, 0.65);
        }
        groups.push((first, first + size - 1));
        speeds.extend(std::iter::repeat_n(speed, size));
        first += size;
    }
    let cumulative: Vec<f64> = speeds
        .iter()
        .scan(0.0, |acc, s| {
            *acc += s;
            Some(*acc)
        })
        .collect();
    // Scale the work so the optimum lands in the paper's 10–30 s range.
    let k_star = ((n as f64 * rng.range(0.35, 0.7)).round() as usize).clamp(2, n - 1);
    let work = rng.range(12.0, 24.0) * cumulative[k_star - 1] / 2.0;
    // d/dk of W/S(k) is −W·s(k)/S(k)²; the linear cost balances it at k*.
    let per_node = work * speeds[k_star - 1] / (cumulative[k_star - 1] * cumulative[k_star - 1]);
    let step = rng.range(0.02, 0.05) * work / cumulative[k_star - 1];
    let mean: Vec<f64> = (1..=n)
        .map(|k| {
            let crossed = groups.iter().filter(|&&(lo, _)| lo > 1 && k >= lo).count();
            work / cumulative[k - 1] + per_node * k as f64 + step * crossed as f64
        })
        .collect();
    let lp = cumulative.iter().map(|s| 0.85 * work / s).collect();
    Curve { groups, mean, lp }
}

/// One tuning session's generated input: the spec sent to the tuner, the
/// hidden true response, and a fixed multiplicative noise draw per
/// iteration (so the submitted duration depends on the proposed action
/// and the iteration index only, whatever path the tuner takes).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInput {
    /// What `create_session` is called with.
    pub spec: SessionSpec,
    /// The hidden response.
    pub curve: Curve,
    /// `1 + NOISE_REL·z` per iteration.
    pub noise: Vec<f64>,
}

impl SessionInput {
    /// Iterations the session runs.
    pub fn iters(&self) -> usize {
        self.noise.len()
    }

    /// The measured duration of `action` at `iteration`.
    pub fn duration(&self, iteration: usize, action: usize) -> f64 {
        self.curve.mean[action - 1] * self.noise[iteration]
    }
}

fn session(
    rng: &mut Rng,
    strategy: StrategyKind,
    sizes: &[usize],
    iters: usize,
    warm_start: Option<f64>,
) -> SessionInput {
    let curve = curve(rng, sizes);
    let mut spec = SessionSpec::new(strategy, rng.next_u64() >> 12, curve.n());
    spec.groups = curve.groups.clone();
    spec.lp = Some(curve.lp.clone());
    spec.iters = Some(iters);
    spec.warm_start = warm_start;
    let noise = (0..iters).map(|_| 1.0 + NOISE_REL * rng.normal()).collect();
    SessionInput { spec, curve, noise }
}

/// `count` GP-discontinuous sessions of 127 iterations (the paper's
/// budget) on 128 nodes in three unequal groups of 24, 40 and 64. The
/// partition is the same for every seed: it sets how many candidates the
/// surrogate scans and refits over, so a seed-dependent partition would
/// make the work — not just the inputs — differ from run to run.
pub fn tune_gp_128(seed: u64, count: usize) -> Vec<SessionInput> {
    (0..count)
        .map(|i| {
            let mut rng = Rng::stream(seed, "tune_gp_128", i as u64);
            session(&mut rng, StrategyKind::GpDiscontinuous, &[24, 40, 64], 127, None)
        })
        .collect()
}

/// The four GP-free strategies `tune_cheap_short` cycles through.
pub const CHEAP_STRATEGIES: [StrategyKind; 4] =
    [StrategyKind::Ucb, StrategyKind::DivideConquer, StrategyKind::RightLeft, StrategyKind::Brent];

/// `count` 16-iteration sessions on 12 nodes in two groups, cycling the
/// GP-free strategies.
pub fn tune_cheap_short(seed: u64, count: usize) -> Vec<SessionInput> {
    (0..count)
        .map(|i| {
            let mut rng = Rng::stream(seed, "tune_cheap_short", i as u64);
            let fast = rng.int(3, 6);
            session(&mut rng, CHEAP_STRATEGIES[i % 4], &[fast, 12 - fast], 16, None)
        })
        .collect()
}

/// Sessions per pass of `warm_store_mix`: one per distinct partition.
pub const WARM_PARTITIONS: usize = 32;
/// Snapshots the store is pre-filled with.
pub const WARM_PREFILL: usize = 1024;
/// Minimum signature similarity `warm_store_mix` sessions ask for.
pub const WARM_MIN_SIMILARITY: f64 = 0.5;

/// A three-group partition of 24–40 nodes not yet in `seen`.
fn fresh_partition(
    rng: &mut Rng,
    seen: &mut BTreeSet<Vec<usize>>,
    nodes: (usize, usize),
) -> Vec<usize> {
    loop {
        let n = rng.int(nodes.0, nodes.1);
        let fast = rng.int(2, n / 3);
        let mid = rng.int(2, n / 3);
        let sizes = vec![fast, mid, n - fast - mid];
        if seen.insert(sizes.clone()) {
            return sizes;
        }
    }
}

/// The 32 warm-started 12-iteration GP-discontinuous sessions, one per
/// distinct 24–40-node partition, and the 1024 donor snapshots of other
/// partitions that fill the store before the daemon starts.
pub fn warm_store_mix(seed: u64) -> (Vec<SessionInput>, Vec<SurrogateSnapshot>) {
    let mut seen = BTreeSet::new();
    let mut rng = Rng::stream(seed, "warm_store_mix.partitions", 0);
    let sessions = (0..WARM_PARTITIONS)
        .map(|i| {
            let sizes = fresh_partition(&mut rng, &mut seen, (24, 40));
            let mut rng = Rng::stream(seed, "warm_store_mix.session", i as u64);
            session(&mut rng, StrategyKind::GpDiscontinuous, &sizes, 12, Some(WARM_MIN_SIMILARITY))
        })
        .collect();
    let snapshots = (0..WARM_PREFILL)
        .map(|i| {
            let sizes = fresh_partition(&mut rng, &mut seen, (16, 64));
            snapshot(&mut Rng::stream(seed, "warm_store_mix.snapshot", i as u64), &sizes)
        })
        .collect();
    (sessions, snapshots)
}

/// A donor snapshot as a finished GP-discontinuous session over `sizes`
/// would have persisted it: 16 noisy observations of its own curve, the
/// curve's LP bound, plausible fitted hyper-parameters, and the
/// signature the service derives from a bare action space.
pub fn snapshot(rng: &mut Rng, sizes: &[usize]) -> SurrogateSnapshot {
    let curve = curve(rng, sizes);
    let n = curve.n();
    let observations = (0..16)
        .map(|_| {
            let action = rng.int(1, n);
            (action, curve.mean[action - 1] * (1.0 + NOISE_REL * rng.normal()))
        })
        .collect();
    let oracle = curve.oracle();
    SurrogateSnapshot {
        signature: PlatformSignature::new(
            0,
            sizes.iter().map(|&c| GroupSig { count: c as u32, speed: 0.0, bw: 0.0 }).collect(),
        ),
        strategy: StrategyKind::GpDiscontinuous.name().to_string(),
        max_nodes: n,
        groups: curve.groups.clone(),
        lp: Some(curve.lp.clone()),
        observations,
        hyper: Some(GpHyper {
            kernel_family: "exponential".into(),
            theta: 1.0,
            process_var: (0.2 * oracle).powi(2),
            noise_var: (NOISE_REL * oracle).powi(2),
            trend_coefficients: vec![oracle, rng.range(-0.5, 0.5)],
        }),
    }
}

/// Action counts of the `replay_matrix` tables.
pub const REPLAY_SIZES: [usize; 4] = [10, 26, 64, 128];

/// The four synthetic response tables of `replay_matrix` (10/26/64/128
/// actions in three groups, 8 noisy observations per action).
pub fn replay_tables(seed: u64) -> Vec<ResponseTable> {
    REPLAY_SIZES
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut rng = Rng::stream(seed, "replay_matrix", i as u64);
            let fast = rng.int(n / 6 + 1, n / 4 + 1);
            let mid = rng.int(n / 4 + 1, n / 3 + 1);
            let curve = curve(&mut rng, &[fast, mid, n - fast - mid]);
            let sigma = NOISE_REL * curve.oracle();
            let durations = curve
                .mean
                .iter()
                .map(|&m| (0..8).map(|_| m * (1.0 + NOISE_REL * rng.normal())).collect())
                .collect();
            ResponseTable {
                label: format!("synthetic-{n}"),
                durations,
                sim_base: curve.mean.iter().map(|&m| vec![m]).collect(),
                lp: curve.lp,
                groups: curve.groups,
                sigma,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_bits(tables: &[ResponseTable]) -> Vec<u64> {
        tables.iter().flat_map(|t| t.durations.iter().flatten().map(|d| d.to_bits())).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(tune_gp_128(7, 4), tune_gp_128(7, 4));
        assert_eq!(tune_cheap_short(7, 8), tune_cheap_short(7, 8));
        let (sessions_a, snaps_a) = warm_store_mix(7);
        let (sessions_b, snaps_b) = warm_store_mix(7);
        assert_eq!(sessions_a, sessions_b);
        let bytes = |s: &[SurrogateSnapshot]| s.iter().map(|x| x.to_bytes()).collect::<Vec<_>>();
        assert_eq!(bytes(&snaps_a), bytes(&snaps_b));
        assert_eq!(table_bits(&replay_tables(7)), table_bits(&replay_tables(7)));
        // Specs serialize identically too (what actually crosses the wire).
        let wire = |s: &[SessionInput]| {
            s.iter()
                .map(|x| adaphet_service::Request::CreateSession(x.spec.clone()).to_json())
                .collect::<Vec<_>>()
        };
        assert_eq!(wire(&sessions_a), wire(&sessions_b));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(tune_gp_128(7, 2), tune_gp_128(8, 2));
        assert_ne!(tune_cheap_short(7, 4), tune_cheap_short(8, 4));
        assert_ne!(warm_store_mix(7).0, warm_store_mix(8).0);
        assert_ne!(warm_store_mix(7).1[0].to_bytes(), warm_store_mix(8).1[0].to_bytes());
        assert_ne!(table_bits(&replay_tables(7)), table_bits(&replay_tables(8)));
    }

    #[test]
    fn a_prefix_of_a_longer_generation_is_unchanged() {
        // Streams are per index, so asking for more sessions never moves
        // the earlier ones.
        assert_eq!(tune_gp_128(3, 2)[..], tune_gp_128(3, 5)[..2]);
    }

    #[test]
    fn curves_are_valid_tuning_problems() {
        for seed in 0..20 {
            for input in tune_gp_128(seed, 2).iter().chain(&tune_cheap_short(seed, 4)) {
                let c = &input.curve;
                assert!(input.spec.space().is_ok(), "spec must validate");
                assert!(c.mean.iter().zip(&c.lp).all(|(m, l)| l < m && *l > 0.0));
                let best = c.mean.iter().position(|&m| m == c.oracle()).unwrap() + 1;
                assert!(best > 1 && best < c.n(), "optimum {best} of {} is interior", c.n());
                assert!(input.noise.iter().all(|&x| x > 0.8 && x < 1.2));
            }
        }
    }

    #[test]
    fn warm_partitions_and_donors_have_distinct_store_keys() {
        let (sessions, snapshots) = warm_store_mix(11);
        assert_eq!((sessions.len(), snapshots.len()), (WARM_PARTITIONS, WARM_PREFILL));
        let mut keys = BTreeSet::new();
        for s in &sessions {
            let space = s.spec.space().unwrap();
            assert!((24..=40).contains(&space.max_nodes));
            assert!(keys.insert(adaphet_core::signature_from_space(&space).key()));
        }
        for snap in &snapshots {
            assert!(keys.insert(snap.signature.key()), "donor collides with another entry");
            let back = SurrogateSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(&back, snap);
        }
    }
}
