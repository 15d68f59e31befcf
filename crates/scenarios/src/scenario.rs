//! The 16 evaluation scenarios (paper Figs. 5 and 6).

use crate::catalogue::{Machine, Site};
use adaphet_geostat::{GeoSimApp, Workload};
use adaphet_runtime::{Platform, SimConfig};

/// Problem scale: the paper's sizes, a reduced default that preserves the
/// curve shapes at a fraction of the simulation cost, and a tiny size for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny (CI tests).
    Test,
    /// Default: reduced tile counts, same platforms.
    Reduced,
    /// The paper's 101x101 / 128x128 tiles.
    Full,
}

/// Matrix workload selector: the paper's 96100 ("101") or 122880 ("128").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// 96100 observations, 101x101 tiles.
    M101,
    /// 122880 observations, 128x128 tiles.
    M128,
}

/// One evaluation scenario: a heterogeneous machine mix and a workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario letter (a-p) as in the paper's figures.
    pub id: char,
    /// Machine groups, fastest first: (machine, count).
    pub mix: Vec<(Machine, usize)>,
    /// Workload selector.
    pub matrix: Matrix,
    /// Whether the paper measured this scenario on real hardware
    /// ("(Real)") or in simulation ("(Simul)"). Real-tagged scenarios get
    /// per-task jitter on top of the observation noise.
    pub real: bool,
}

impl Scenario {
    /// The 16 scenarios of the paper's Figs. 5-6, in order (a) to (p).
    pub fn all16() -> Vec<Scenario> {
        use Machine::*;
        use Matrix::*;
        let s = |id: char, mix: Vec<(Machine, usize)>, matrix: Matrix, real: bool| Scenario {
            id,
            mix,
            matrix,
            real,
        };
        vec![
            s('a', vec![(Chifflot, 2), (Chifflet, 4), (Chetemi, 4)], M101, true),
            s('b', vec![(Chifflot, 2), (Chifflet, 6), (Chetemi, 6)], M101, true),
            s('c', vec![(SdK40x2, 10), (SdCpu, 10)], M128, true),
            s('d', vec![(SdK40x2, 3), (SdK40x1, 8), (SdCpu, 10)], M101, false),
            s('e', vec![(Chifflot, 2), (Chifflet, 6), (Chetemi, 15)], M101, false),
            s('f', vec![(Chifflot, 2), (Chifflet, 6), (Chetemi, 15)], M128, false),
            s('g', vec![(Chifflot, 5), (Chifflet, 6), (Chetemi, 15)], M101, true),
            s('h', vec![(SdK40x2, 10), (SdK40x1, 10), (SdCpu, 10)], M128, true),
            s('i', vec![(Chifflot, 6), (Chetemi, 30)], M101, false),
            s('j', vec![(Chifflot, 2), (Chifflet, 6), (Chetemi, 30)], M101, false),
            s('k', vec![(SdK40x2, 10), (SdCpu, 40)], M101, false),
            s('l', vec![(SdK40x2, 3), (SdK40x1, 8), (SdCpu, 50)], M128, false),
            s('m', vec![(SdK40x2, 64)], M128, true),
            s('n', vec![(SdK40x2, 15), (SdCpu, 60)], M101, false),
            s('o', vec![(SdK40x2, 15), (SdCpu, 60)], M128, false),
            s('p', vec![(SdK40x2, 64), (SdCpu, 64)], M128, false),
        ]
    }

    /// Look one up by letter.
    pub fn by_id(id: char) -> Option<Scenario> {
        Self::all16().into_iter().find(|s| s.id == id)
    }

    /// The site hosting this mix.
    pub fn site(&self) -> Site {
        self.mix[0].0.site()
    }

    /// Paper-style label, e.g. `"(i) G5K 6L-30S 101 (Simul)"`.
    pub fn label(&self) -> String {
        let class_of = |m: Machine| match m {
            Machine::Chifflot | Machine::SdK40x2 => "L",
            Machine::Chifflet | Machine::SdK40x1 => "M",
            Machine::Chetemi | Machine::SdCpu => "S",
        };
        let mix = self
            .mix
            .iter()
            .map(|&(m, c)| format!("{}{}", c, class_of(m)))
            .collect::<Vec<_>>()
            .join("-");
        let m = match self.matrix {
            Matrix::M101 => "101",
            Matrix::M128 => "128",
        };
        let tag = if self.real { "Real" } else { "Simul" };
        format!("({}) {} {} {} ({})", self.id, self.site().name(), mix, m, tag)
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.mix.iter().map(|(_, c)| c).sum()
    }

    /// Build the (fastest-first sorted) platform.
    pub fn platform(&self) -> Platform {
        let mut nodes = Vec::with_capacity(self.n_nodes());
        for &(m, count) in &self.mix {
            for _ in 0..count {
                nodes.push(m.spec());
            }
        }
        Platform::new_sorted(nodes, self.site().network())
    }

    /// The workload at a given scale.
    pub fn workload(&self, scale: Scale) -> Workload {
        match (scale, self.matrix) {
            (Scale::Full, Matrix::M101) => Workload::paper_101(),
            (Scale::Full, Matrix::M128) => Workload::paper_128(),
            (Scale::Reduced, Matrix::M101) => Workload::new(48, 960),
            (Scale::Reduced, Matrix::M128) => Workload::new(56, 960),
            (Scale::Test, Matrix::M101) => Workload::new(10, 256),
            (Scale::Test, Matrix::M128) => Workload::new(12, 256),
        }
    }

    /// Relative observation noise of the paper's methodology. The paper
    /// adds `N(0, 0.5 s)` to iterations of 10–30 s (≈2–5% of the signal);
    /// we keep that *relative* magnitude at every scale: the evaluation
    /// harness multiplies this by the median simulated duration, which
    /// lands on ≈0.5 s at paper scale.
    pub fn noise_rel(&self, scale: Scale) -> f64 {
        match scale {
            Scale::Full => 0.04,
            Scale::Reduced => 0.04,
            Scale::Test => 0.04,
        }
    }

    /// Build the simulated application. `seed` drives the per-task jitter
    /// of "(Real)" scenarios; "(Simul)" scenarios are deterministic, per
    /// the paper's methodology (Section V).
    pub fn app(&self, scale: Scale, seed: u64) -> GeoSimApp {
        let jitter = if self.real { Some(0.03) } else { None };
        GeoSimApp::new(
            self.platform(),
            self.workload(scale),
            SimConfig { seed, task_jitter: jitter, trace: true },
        )
    }

    /// Like [`Scenario::app`], but with trace recording disabled from the
    /// start — for sweep/measurement paths that never read the trace, so
    /// tracing costs nothing. It can be re-enabled later via
    /// `GeoSimApp::set_trace_enabled`.
    pub fn app_untraced(&self, scale: Scale, seed: u64) -> GeoSimApp {
        let jitter = if self.real { Some(0.03) } else { None };
        GeoSimApp::new(
            self.platform(),
            self.workload(scale),
            SimConfig { seed, task_jitter: jitter, trace: false },
        )
    }

    /// Homogeneous groups as 1-based inclusive node-count ranges.
    pub fn groups(&self) -> Vec<(usize, usize)> {
        self.platform().homogeneous_groups()
    }

    /// The platform signature keying this scenario in a
    /// [`SurrogateStore`](adaphet_store::SurrogateStore): one
    /// [`GroupSig`](adaphet_store::GroupSig) per machine group (count,
    /// peak GFLOP/s, NIC Gbit/s — real feature values, so cross-platform
    /// similarity is meaningful) and the workload folded to a stable
    /// integer (`nt * tile` is the matrix order; the scale changes it, so
    /// snapshots never transfer across scales by accident).
    pub fn signature(&self, scale: Scale) -> adaphet_store::PlatformSignature {
        let w = self.workload(scale);
        adaphet_store::PlatformSignature::new(
            (w.nt * w.tile) as u64,
            self.mix
                .iter()
                .map(|&(m, count)| {
                    let spec = m.spec();
                    adaphet_store::GroupSig {
                        count: count as u32,
                        speed: spec.peak_gflops(),
                        bw: spec.nic_gbps,
                    }
                })
                .collect(),
        )
    }

    /// The LP lower-bound curve `LP(n)` for `n = 1..=N` (all nodes used
    /// for generation).
    pub fn lp_curve(&self, scale: Scale) -> Vec<f64> {
        adaphet_geostat::lp_curve(&self.platform(), self.workload(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_scenarios_with_unique_ids() {
        let all = Scenario::all16();
        assert_eq!(all.len(), 16);
        let ids: Vec<char> = all.iter().map(|s| s.id).collect();
        assert_eq!(ids, ('a'..='p').collect::<Vec<_>>());
    }

    #[test]
    fn labels_match_paper_format() {
        assert_eq!(Scenario::by_id('i').unwrap().label(), "(i) G5K 6L-30S 101 (Simul)");
        assert_eq!(Scenario::by_id('c').unwrap().label(), "(c) SD 10L-10S 128 (Real)");
        assert_eq!(Scenario::by_id('m').unwrap().label(), "(m) SD 64L 128 (Real)");
        assert_eq!(Scenario::by_id('h').unwrap().label(), "(h) SD 10L-10M-10S 128 (Real)");
    }

    #[test]
    fn node_counts_match_mixes() {
        assert_eq!(Scenario::by_id('p').unwrap().n_nodes(), 128);
        assert_eq!(Scenario::by_id('a').unwrap().n_nodes(), 10);
        assert_eq!(Scenario::by_id('m').unwrap().n_nodes(), 64);
    }

    #[test]
    fn platform_groups_match_mix_structure() {
        let s = Scenario::by_id('b').unwrap(); // 2L-6M-6S
        assert_eq!(s.groups(), vec![(1, 2), (3, 8), (9, 14)]);
        let m = Scenario::by_id('m').unwrap(); // homogeneous 64L
        assert_eq!(m.groups(), vec![(1, 64)]);
    }

    #[test]
    fn platforms_are_sorted_fastest_first() {
        for s in Scenario::all16() {
            let p = s.platform();
            for w in p.nodes.windows(2) {
                assert!(
                    w[0].peak_gflops() >= w[1].peak_gflops() - 1e-9,
                    "{}: not sorted",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn lp_curves_are_non_increasing_and_positive() {
        let s = Scenario::by_id('b').unwrap();
        let lp = s.lp_curve(Scale::Test);
        assert_eq!(lp.len(), s.n_nodes());
        for w in lp.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(lp.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn real_tag_controls_jitter() {
        // Two seeds: a Real scenario varies, a Simul one does not.
        let run = |id: char, seed: u64| {
            let s = Scenario::by_id(id).unwrap();
            let mut app = s.app_untraced(Scale::Test, seed);
            let n = app.n_nodes();
            app.run_iteration(adaphet_geostat::IterationChoice::all(n)).duration()
        };
        assert_ne!(run('a', 1), run('a', 2), "(Real) should jitter");
        assert_eq!(run('e', 1), run('e', 2), "(Simul) is deterministic");
    }

    #[test]
    fn signatures_are_stable_and_discriminating() {
        let n = Scenario::by_id('n').unwrap();
        let o = Scenario::by_id('o').unwrap(); // same mix, other matrix
        let p = Scenario::by_id('p').unwrap();
        let sig_n = n.signature(Scale::Test);
        assert_eq!(sig_n.key(), n.signature(Scale::Test).key(), "deterministic key");
        assert_ne!(sig_n.key(), o.signature(Scale::Test).key(), "workload must discriminate");
        assert_ne!(sig_n.key(), p.signature(Scale::Test).key(), "mix must discriminate");
        // Same-mix scenarios stay the most similar pair.
        let sim_same_mix = sig_n.similarity(&o.signature(Scale::Test));
        let sim_other = sig_n.similarity(&p.signature(Scale::Test));
        assert!(sim_same_mix > sim_other, "{sim_same_mix} vs {sim_other}");
        // Real hardware features land in the signature.
        assert!(sig_n.groups.iter().all(|g| g.speed > 0.0 && g.bw > 0.0));
    }

    #[test]
    fn workload_scales() {
        let s = Scenario::by_id('p').unwrap();
        assert_eq!(s.workload(Scale::Full).nt, 128);
        assert!(s.workload(Scale::Reduced).nt < 128);
        assert!(s.workload(Scale::Test).nt <= 16);
    }
}
