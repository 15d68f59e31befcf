//! The real (numerical) application: the same five phases, task for task
//! as the simulator submits them ([`for_each_task`]), executed as actual
//! kernels on the threaded executor and validated against the dense
//! reference likelihood.

use crate::covariance::{CovParams, Covariance};
use crate::dense::{dense_log_likelihood, sample_field, Locations};
use crate::phases::{for_each_task, Datum, GeoData, GeoTask, Phase};
use crate::workload::Workload;
use adaphet_linalg::{
    backward_sub, forward_sub, gemm_update, potrf_tile, syrk_update, trsm_right_lt, Mat,
};
use adaphet_metrics::PhaseSlice;
use adaphet_runtime::{Access, BlockHandle, RealRuntime, StoreView};
use std::sync::Arc;
use std::time::Duration;

/// A stored block: a matrix tile, a vector block, or a scalar accumulator.
#[derive(Debug, Clone)]
pub enum Block {
    /// Matrix tile.
    Tile(Mat),
    /// Vector block.
    Vector(Vec<f64>),
    /// Scalar accumulator.
    Scalar(f64),
}

impl Block {
    fn tile(&self) -> &Mat {
        match self {
            Block::Tile(m) => m,
            _ => panic!("expected a tile block"),
        }
    }
    fn tile_mut(&mut self) -> &mut Mat {
        match self {
            Block::Tile(m) => m,
            _ => panic!("expected a tile block"),
        }
    }
    fn vector(&self) -> &Vec<f64> {
        match self {
            Block::Vector(v) => v,
            _ => panic!("expected a vector block"),
        }
    }
    fn vector_mut(&mut self) -> &mut Vec<f64> {
        match self {
            Block::Vector(v) => v,
            _ => panic!("expected a vector block"),
        }
    }
    fn scalar_mut(&mut self) -> &mut f64 {
        match self {
            Block::Scalar(s) => s,
            _ => panic!("expected a scalar block"),
        }
    }
}

/// What a generation task needs beyond its tile: the covariance kernel,
/// its diagonal nugget, the locations and the tile side.
struct Generator {
    cov: Covariance,
    nugget: f64,
    loc: Arc<Locations>,
    b: usize,
}

/// Run `task`'s kernel on the blocks `h` of its accesses, in the order
/// [`GeoTask::accesses`] lists them.
fn run_kernel(task: GeoTask, h: &[BlockHandle], s: &StoreView<Block>, gen: &Generator) {
    match task {
        GeoTask::Generate { i, j } => {
            let b = gen.b;
            let mut g = s.write(h[0]);
            let tile = g.tile_mut();
            for c in 0..b {
                for r in 0..b {
                    let gi = i * b + r;
                    let gj = j * b + c;
                    let mut v = gen.cov.cov(gen.loc.dist(gi, gj));
                    if gi == gj {
                        v += gen.nugget;
                    }
                    tile[(r, c)] = v;
                }
            }
        }
        GeoTask::Potrf { .. } => {
            potrf_tile(s.write(h[0]).tile_mut()).expect("covariance tile is SPD");
        }
        GeoTask::Trsm { .. } => {
            trsm_right_lt(s.read(h[0]).tile(), s.write(h[1]).tile_mut()).expect("trsm dims");
        }
        GeoTask::Syrk { .. } => {
            syrk_update(s.read(h[0]).tile(), s.write(h[1]).tile_mut()).expect("syrk dims");
        }
        GeoTask::Gemm { .. } => {
            let (a, bb) = (s.read(h[0]), s.read(h[1]));
            gemm_update(a.tile(), bb.tile(), s.write(h[2]).tile_mut()).expect("gemm dims");
        }
        GeoTask::Copy { .. } => {
            let zv = s.read(h[0]);
            *s.write(h[1]).vector_mut() = zv.vector().clone();
        }
        GeoTask::Forward { .. } | GeoTask::Backward { .. } => {
            let dg = s.read(h[0]);
            let mut xg = s.write(h[1]);
            let sol = if matches!(task, GeoTask::Forward { .. }) {
                forward_sub(dg.tile(), xg.vector())
            } else {
                backward_sub(dg.tile(), xg.vector())
            };
            *xg.vector_mut() = sol.expect("nonsingular");
        }
        GeoTask::ForwardUpdate { .. } | GeoTask::BackwardUpdate { .. } => {
            // x_i -= L(i,k) x_k, or x_j -= L(k,j)ᵀ x_k.
            let (a, xk) = (s.read(h[0]), s.read(h[1]));
            let y = if matches!(task, GeoTask::ForwardUpdate { .. }) {
                a.tile().matvec(xk.vector())
            } else {
                a.tile().matvec_t(xk.vector())
            };
            for (o, v) in s.write(h[2]).vector_mut().iter_mut().zip(&y) {
                *o -= v;
            }
        }
        GeoTask::LogDet { .. } => {
            let dg = s.read(h[0]);
            let tile = dg.tile();
            let part: f64 = (0..gen.b).map(|r| tile[(r, r)].ln()).sum::<f64>() * 2.0;
            *s.write(h[1]).scalar_mut() += part;
        }
        GeoTask::Dot { .. } => {
            let part = adaphet_linalg::dot(s.read(h[0]).vector(), s.read(h[1]).vector());
            *s.write(h[2]).scalar_mut() += part;
        }
    }
}

/// The shared-memory ExaGeoStat-like application.
///
/// Holds synthetic spatial data and evaluates the exact log-likelihood of
/// any covariance parameters via the tiled five-phase pipeline; each
/// evaluation returns the value *and* its real wall-clock duration, which
/// the overhead study (paper Fig. 7) compares against the tuner's cost.
pub struct GeoRealApp {
    rt: RealRuntime<Block>,
    workload: Workload,
    loc: Arc<Locations>,
    z: Vec<f64>,
    data: GeoData<BlockHandle>,
    /// Diagonal jitter matching the dense reference.
    nugget: f64,
}

impl GeoRealApp {
    /// Create the application with `workload.n()` synthetic observations
    /// drawn from `true_params` (deterministic given `seed`).
    pub fn new(workload: Workload, true_params: CovParams, seed: u64, n_workers: usize) -> Self {
        let n = workload.n();
        let loc = Arc::new(Locations::sample(n, seed));
        let cov = Covariance::new(true_params);
        let z = sample_field(&loc, &cov, seed ^ 0x5eed);
        let mut rt = RealRuntime::new(n_workers);
        let b = workload.tile;
        let data = GeoData::register(workload, |d| {
            rt.register(match d {
                Datum::Tile(..) => Block::Tile(Mat::zeros(b, b)),
                Datum::Z(k) => Block::Vector(z[k * b..(k + 1) * b].to_vec()),
                Datum::X(_) => Block::Vector(vec![0.0; b]),
                Datum::Det | Datum::Dot => Block::Scalar(0.0),
            })
        });
        GeoRealApp { rt, workload, loc, z, data, nugget: 1e-10 }
    }

    /// The observations (for external checks).
    pub fn observations(&self) -> &[f64] {
        &self.z
    }

    /// The workload geometry.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Exact dense-reference likelihood (O(n³) memory-heavy; small n only).
    pub fn reference_likelihood(&self, params: CovParams) -> f64 {
        dense_log_likelihood(&self.loc, &self.z, &Covariance::new(params))
    }

    /// Evaluate the log-likelihood of `params` via the five tiled phases.
    /// Returns `(log_likelihood, wall_clock)`.
    pub fn eval_likelihood(&mut self, params: CovParams) -> (f64, Duration) {
        let (ll, wall, _) = self.eval_inner(params, false);
        (ll, wall)
    }

    /// Like [`GeoRealApp::eval_likelihood`], but with a barrier after each
    /// phase so the returned breakdown holds *measured* per-phase wall
    /// times that sum to the returned total. Each phase also reports wall
    /// time and the task count and flops of the tasks it submitted to the
    /// global metrics recorder (`real.phase.*`) when one is installed. The
    /// barriers forgo inter-phase task overlap, so the total can exceed
    /// an unprofiled evaluation's.
    pub fn eval_likelihood_profiled(
        &mut self,
        params: CovParams,
    ) -> (f64, Duration, Vec<PhaseSlice>) {
        self.eval_inner(params, true)
    }

    fn eval_inner(
        &mut self,
        params: CovParams,
        profiled: bool,
    ) -> (f64, Duration, Vec<PhaseSlice>) {
        let w = self.workload;
        let gen = Arc::new(Generator {
            cov: Covariance::new(params),
            nugget: self.nugget * params.variance,
            loc: Arc::clone(&self.loc),
            b: w.tile,
        });
        let mut walls = Vec::new();
        let mut total = Duration::ZERO;
        for phase in Phase::all() {
            let (mut tasks, mut flops) = (0u64, 0.0);
            // The reductions restart from zero at every evaluation.
            let acc = match phase {
                Phase::Determinant => Some(self.data.get(w, Datum::Det)),
                Phase::DotProduct => Some(self.data.get(w, Datum::Dot)),
                _ => None,
            };
            if let Some(acc) = acc {
                self.rt
                    .submit(vec![(acc, Access::Write)], move |s| *s.write(acc).scalar_mut() = 0.0);
                tasks += 1;
            }
            for_each_task(w, phase, |task| {
                let accesses = task.accesses(|d| self.data.get(w, d));
                let h: Vec<BlockHandle> = accesses.iter().map(|&(h, _)| h).collect();
                let gen = Arc::clone(&gen);
                self.rt.submit(accesses, move |s| run_kernel(task, &h, s, &gen));
                tasks += 1;
                flops += task.flops(w.tile);
            });
            if profiled {
                let d = self.rt.run();
                total += d;
                let name = phase.name();
                walls.push(PhaseSlice::new(name, d.as_secs_f64()));
                let r = adaphet_metrics::global();
                if r.enabled() {
                    r.observe(&format!("real.phase.{name}.wall_s"), d.as_secs_f64());
                    r.add(&format!("real.phase.{name}.tasks"), tasks as f64);
                    r.add(&format!("real.phase.{name}.flops"), flops);
                }
            }
        }
        let wall = if profiled { total } else { self.rt.run() };
        let scalar = |d| match &*self.rt.block(self.data.get(w, d)) {
            Block::Scalar(s) => *s,
            _ => unreachable!(),
        };
        let (det_v, dot_v) = (scalar(Datum::Det), scalar(Datum::Dot));
        let n = w.n() as f64;
        let ll = -0.5 * (dot_v + det_v + n * (2.0 * std::f64::consts::PI).ln());
        (ll, wall, walls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(range: f64) -> CovParams {
        CovParams { variance: 1.0, range, smoothness: 0.5 }
    }

    #[test]
    fn tiled_likelihood_matches_dense_reference() {
        let w = Workload::new(4, 16); // n = 64
        let mut app = GeoRealApp::new(w, params(0.15), 42, 4);
        for r in [0.05, 0.15, 0.4] {
            let (ll, _) = app.eval_likelihood(params(r));
            let reference = app.reference_likelihood(params(r));
            assert!(
                (ll - reference).abs() < 1e-6 * (1.0 + reference.abs()),
                "range {r}: tiled {ll} vs dense {reference}"
            );
        }
    }

    #[test]
    fn repeated_evaluations_are_stable() {
        let w = Workload::new(3, 12);
        let mut app = GeoRealApp::new(w, params(0.2), 7, 2);
        let (a, _) = app.eval_likelihood(params(0.2));
        let (b, _) = app.eval_likelihood(params(0.2));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn likelihood_prefers_true_range() {
        let w = Workload::new(4, 16);
        let mut app = GeoRealApp::new(w, params(0.2), 11, 4);
        let (ll_true, _) = app.eval_likelihood(params(0.2));
        let (ll_far, _) = app.eval_likelihood(params(5.0));
        assert!(ll_true > ll_far, "{ll_true} vs {ll_far}");
    }

    #[test]
    fn mle_via_golden_section_recovers_range() {
        let w = Workload::new(4, 12); // n = 48
        let mut app = GeoRealApp::new(w, params(0.2), 3, 4);
        let (best_log_range, _) = crate::mle::golden_section_max(
            |lr| app.eval_likelihood(params(lr.exp())).0,
            (0.01_f64).ln(),
            (2.0_f64).ln(),
            18,
        );
        let best = best_log_range.exp();
        // MLE on one small sample is noisy; accept a broad band around 0.2.
        assert!(best > 0.02 && best < 1.5, "estimated range {best}");
    }

    #[test]
    fn profiled_evaluation_matches_and_slices_sum_to_wall() {
        let w = Workload::new(4, 16);
        let mut app = GeoRealApp::new(w, params(0.15), 42, 4);
        let (ll, _) = app.eval_likelihood(params(0.15));
        let (llp, wall, phases) = app.eval_likelihood_profiled(params(0.15));
        assert!((ll - llp).abs() < 1e-9, "{ll} vs {llp}");
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["generation", "factorization", "solve", "determinant", "dot-product"]);
        let sum: f64 = phases.iter().map(|p| p.seconds).sum();
        assert!(
            (sum - wall.as_secs_f64()).abs() < 1e-9,
            "barriered slices must sum to the total: {sum} vs {:?}",
            wall
        );
    }

    #[test]
    fn profiled_evaluation_reports_closed_form_task_counts() {
        use adaphet_metrics::{install_global, Registry};
        let reg = install_global(Registry::new());
        let w = Workload::new(4, 12);
        let mut app = GeoRealApp::new(w, params(0.2), 9, 2);
        let gen0 = reg.counter_value("real.phase.generation.tasks");
        let fact0 = reg.counter_value("real.phase.factorization.tasks");
        let solve0 = reg.counter_value("real.phase.solve.tasks");
        app.eval_likelihood_profiled(params(0.2));
        // nt = 4: 10 generation tiles; 4 potrf + 6 trsm + 6 syrk + 4 gemm;
        // 4 copies + 2 x (4 trsv + 6 updates).
        assert_eq!(reg.counter_value("real.phase.generation.tasks") - gen0, 10.0);
        assert_eq!(reg.counter_value("real.phase.factorization.tasks") - fact0, 20.0);
        assert_eq!(reg.counter_value("real.phase.solve.tasks") - solve0, 24.0);
        assert!(reg.counter_value("real.phase.factorization.flops") > 0.0);
    }

    #[test]
    fn likelihood_is_bit_identical_across_worker_counts() {
        // The solve updates, the determinant and the dot product each
        // accumulate through `ReadWrite` accesses, so they run in
        // submission order whatever the size of the pool.
        let w = Workload::new(5, 8);
        for range in [0.05, 0.1, 0.2] {
            let bits: Vec<u64> = [1, 2, 4]
                .iter()
                .map(|&workers| {
                    let mut app = GeoRealApp::new(w, params(0.1), 5, workers);
                    app.eval_likelihood(params(range)).0.to_bits()
                })
                .collect();
            assert!(bits.iter().all(|&b| b == bits[0]), "range {range}: {bits:x?}");
        }
    }

    #[test]
    fn wall_clock_is_positive() {
        let w = Workload::new(3, 8);
        let mut app = GeoRealApp::new(w, params(0.1), 1, 2);
        let (_, wall) = app.eval_likelihood(params(0.1));
        assert!(wall > Duration::ZERO);
    }
}
