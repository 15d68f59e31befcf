//! The real (numerical) application: the same five phases executed as
//! actual kernels on the threaded executor, validated against the dense
//! reference likelihood.

use crate::covariance::{CovParams, Covariance};
use crate::dense::{dense_log_likelihood, sample_field, Locations};
use crate::workload::Workload;
use adaphet_linalg::{
    backward_sub, forward_sub, gemm_update, potrf_tile, syrk_update, trsm_right_lt, Mat,
};
use adaphet_runtime::{Access, BlockHandle, RealRuntime};
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
    tiles: Vec<BlockHandle>,
    zb: Vec<BlockHandle>,
    xb: Vec<BlockHandle>,
    det: BlockHandle,
    dot: BlockHandle,
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
        let mut tiles = Vec::with_capacity(workload.n_tiles_lower());
        for i in 0..workload.nt {
            for j in 0..=i {
                debug_assert_eq!(tiles.len(), workload.tile_index(i, j));
                tiles.push(rt.register(Block::Tile(Mat::zeros(b, b))));
            }
        }
        let zb: Vec<BlockHandle> = (0..workload.nt)
            .map(|k| rt.register(Block::Vector(z[k * b..(k + 1) * b].to_vec())))
            .collect();
        let xb: Vec<BlockHandle> =
            (0..workload.nt).map(|_| rt.register(Block::Vector(vec![0.0; b]))).collect();
        let det = rt.register(Block::Scalar(0.0));
        let dot = rt.register(Block::Scalar(0.0));
        GeoRealApp { rt, workload, loc, z, tiles, zb, xb, det, dot, nugget: 1e-10 }
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
    /// times `(phase name, seconds)` that sum to the returned total. Each
    /// phase also reports wall time, task count, and flops to the global
    /// metrics recorder (`real.phase.*`) when one is installed. The
    /// barriers forgo inter-phase task overlap, so the total can exceed
    /// an unprofiled evaluation's.
    pub fn eval_likelihood_profiled(
        &mut self,
        params: CovParams,
    ) -> (f64, Duration, Vec<(&'static str, f64)>) {
        self.eval_inner(params, true)
    }

    /// Wait for all submitted tasks of one phase, then record its profile.
    fn profile_barrier(
        &mut self,
        name: &'static str,
        tasks: u64,
        flops: f64,
        walls: &mut Vec<(&'static str, f64)>,
        total: &mut Duration,
    ) {
        let d = self.rt.run();
        *total += d;
        walls.push((name, d.as_secs_f64()));
        let r = adaphet_metrics::global();
        if r.enabled() {
            r.observe(&format!("real.phase.{name}.wall_s"), d.as_secs_f64());
            r.add(&format!("real.phase.{name}.tasks"), tasks as f64);
            r.add(&format!("real.phase.{name}.flops"), flops);
        }
    }

    fn eval_inner(
        &mut self,
        params: CovParams,
        profiled: bool,
    ) -> (f64, Duration, Vec<(&'static str, f64)>) {
        use adaphet_linalg::{flops, TileKernel};
        let w = self.workload;
        let b = w.tile;
        let nt = w.nt;
        let tiles = self.tiles.clone();
        let t = move |i: usize, j: usize| tiles[w.tile_index(i, j)];
        let mut walls: Vec<(&'static str, f64)> = Vec::new();
        let mut total = Duration::ZERO;
        let cov = Covariance::new(params);
        let nugget = self.nugget * params.variance;

        // Phase 1: generation.
        for i in 0..nt {
            for j in 0..=i {
                let h = t(i, j);
                let loc = Arc::clone(&self.loc);
                self.rt.submit(vec![(h, Access::Write)], move |s| {
                    let mut g = s.write(h);
                    let tile = g.tile_mut();
                    for c in 0..b {
                        for r in 0..b {
                            let gi = i * b + r;
                            let gj = j * b + c;
                            let mut v = cov.cov(loc.dist(gi, gj));
                            if gi == gj {
                                v += nugget;
                            }
                            tile[(r, c)] = v;
                        }
                    }
                });
            }
        }
        if profiled {
            let tasks = (nt * (nt + 1) / 2) as u64;
            self.profile_barrier("generation", tasks, w.generation_flops(), &mut walls, &mut total);
        }

        // Phase 2: tiled Cholesky.
        for k in 0..nt {
            let d = t(k, k);
            self.rt.submit(vec![(d, Access::ReadWrite)], move |s| {
                potrf_tile(s.write(d).tile_mut()).expect("covariance tile is SPD");
            });
            for i in k + 1..nt {
                let a = t(i, k);
                self.rt.submit(vec![(d, Access::Read), (a, Access::ReadWrite)], move |s| {
                    let dg = s.read(d);
                    let mut ag = s.write(a);
                    trsm_right_lt(dg.tile(), ag.tile_mut()).expect("trsm dims");
                });
            }
            for i in k + 1..nt {
                let a = t(i, k);
                let c = t(i, i);
                self.rt.submit(vec![(a, Access::Read), (c, Access::ReadWrite)], move |s| {
                    let ag = s.read(a);
                    syrk_update(ag.tile(), s.write(c).tile_mut()).expect("syrk dims");
                });
                for j in k + 1..i {
                    let a = t(i, k);
                    let bb = t(j, k);
                    let c = t(i, j);
                    self.rt.submit(
                        vec![(a, Access::Read), (bb, Access::Read), (c, Access::ReadWrite)],
                        move |s| {
                            let ag = s.read(a);
                            let bg = s.read(bb);
                            let mut cg = s.write(c);
                            gemm_update(ag.tile(), bg.tile(), cg.tile_mut()).expect("gemm dims");
                        },
                    );
                }
            }
        }
        if profiled {
            let gemms = if nt >= 3 { nt * (nt - 1) * (nt - 2) / 6 } else { 0 };
            let tasks = (nt + nt * (nt - 1) + gemms) as u64;
            self.profile_barrier(
                "factorization",
                tasks,
                w.cholesky_flops(),
                &mut walls,
                &mut total,
            );
        }

        // Phase 3: solve. x := z, then L y = z, Lᵀ x = y over blocks.
        for k in 0..nt {
            let (zk, xk) = (self.zb[k], self.xb[k]);
            self.rt.submit(vec![(zk, Access::Read), (xk, Access::Write)], move |s| {
                let zv = s.read(zk);
                *s.write(xk).vector_mut() = zv.vector().clone();
            });
        }
        for k in 0..nt {
            let (d, xk) = (t(k, k), self.xb[k]);
            self.rt.submit(vec![(d, Access::Read), (xk, Access::ReadWrite)], move |s| {
                let dg = s.read(d);
                let mut xg = s.write(xk);
                let sol = forward_sub(dg.tile(), xg.vector()).expect("nonsingular");
                *xg.vector_mut() = sol;
            });
            for i in k + 1..nt {
                let (a, xk, xi) = (t(i, k), self.xb[k], self.xb[i]);
                self.rt.submit(
                    vec![(a, Access::Read), (xk, Access::Read), (xi, Access::ReadWrite)],
                    move |s| {
                        let ag = s.read(a);
                        let xkg = s.read(xk);
                        let mut xig = s.write(xi);
                        let y = ag.tile().matvec(xkg.vector());
                        for (o, v) in xig.vector_mut().iter_mut().zip(&y) {
                            *o -= v;
                        }
                    },
                );
            }
        }
        for k in (0..nt).rev() {
            let (d, xk) = (t(k, k), self.xb[k]);
            self.rt.submit(vec![(d, Access::Read), (xk, Access::ReadWrite)], move |s| {
                let dg = s.read(d);
                let mut xg = s.write(xk);
                let sol = backward_sub(dg.tile(), xg.vector()).expect("nonsingular");
                *xg.vector_mut() = sol;
            });
            for j in 0..k {
                let (a, xk, xj) = (t(k, j), self.xb[k], self.xb[j]);
                self.rt.submit(
                    vec![(a, Access::Read), (xk, Access::Read), (xj, Access::ReadWrite)],
                    move |s| {
                        // x_j -= L(k,j)ᵀ x_k.
                        let ag = s.read(a);
                        let xkg = s.read(xk);
                        let mut xjg = s.write(xj);
                        let y = ag.tile().matvec_t(xkg.vector());
                        for (o, v) in xjg.vector_mut().iter_mut().zip(&y) {
                            *o -= v;
                        }
                    },
                );
            }
        }
        if profiled {
            let tasks = (3 * nt + nt * (nt - 1)) as u64;
            let fl = nt as f64 * 2.0 * b as f64
                + 2.0
                    * (nt as f64 * flops(TileKernel::SolveTrsm, b)
                        + (nt * (nt - 1) / 2) as f64 * 2.0 * (b * b) as f64);
            self.profile_barrier("solve", tasks, fl, &mut walls, &mut total);
        }

        // Phase 4: determinant (reset + accumulate 2·Σ log L_kk).
        let det = self.det;
        self.rt.submit(vec![(det, Access::Write)], move |s| {
            *s.write(det).scalar_mut() = 0.0;
        });
        for k in 0..nt {
            let d = t(k, k);
            self.rt.submit(vec![(d, Access::Read), (det, Access::ReadWrite)], move |s| {
                let dg = s.read(d);
                let tile = dg.tile();
                let part: f64 = (0..b).map(|r| tile[(r, r)].ln()).sum::<f64>() * 2.0;
                *s.write(det).scalar_mut() += part;
            });
        }
        if profiled {
            let fl = nt as f64 * flops(TileKernel::Determinant, b);
            self.profile_barrier("determinant", (nt + 1) as u64, fl, &mut walls, &mut total);
        }

        // Phase 5: dot product xᵀ z.
        let dot = self.dot;
        self.rt.submit(vec![(dot, Access::Write)], move |s| {
            *s.write(dot).scalar_mut() = 0.0;
        });
        for k in 0..nt {
            let (xk, zk) = (self.xb[k], self.zb[k]);
            self.rt.submit(
                vec![(xk, Access::Read), (zk, Access::Read), (dot, Access::ReadWrite)],
                move |s| {
                    let xg = s.read(xk);
                    let zg = s.read(zk);
                    let part = adaphet_linalg::dot(xg.vector(), zg.vector());
                    *s.write(dot).scalar_mut() += part;
                },
            );
        }

        let wall = if profiled {
            let fl = nt as f64 * flops(TileKernel::DotProduct, b);
            self.profile_barrier("dot-product", (nt + 1) as u64, fl, &mut walls, &mut total);
            total
        } else {
            self.rt.run()
        };
        let det_v = match &*self.rt.block(self.det) {
            Block::Scalar(s) => *s,
            _ => unreachable!(),
        };
        let dot_v = match &*self.rt.block(self.dot) {
            Block::Scalar(s) => *s,
            _ => unreachable!(),
        };
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
        let names: Vec<&str> = phases.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["generation", "factorization", "solve", "determinant", "dot-product"]);
        let sum: f64 = phases.iter().map(|&(_, s)| s).sum();
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
    fn wall_clock_is_positive() {
        let w = Workload::new(3, 8);
        let mut app = GeoRealApp::new(w, params(0.1), 1, 2);
        let (_, wall) = app.eval_likelihood(params(0.1));
        assert!(wall > Duration::ZERO);
    }
}
