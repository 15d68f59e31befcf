//! The five application phases: their task classes, their data, and the
//! one enumeration of an iteration's tasks ([`for_each_task`]) that both
//! the simulator ([`submit_phase`]) and the real executor consume.

use crate::dist::TileDist;
use crate::workload::Workload;
use adaphet_linalg::{flops, TileKernel};
use adaphet_runtime::{
    Access, ClassId, ClassSpec, ClassTable, DataHandle, NodeId, SimRuntime, TaskDesc,
};

/// The five application phases, used as trace tags (paper Fig. 1 colors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Covariance-matrix generation (CPU-only).
    Generation = 0,
    /// Tiled Cholesky factorization.
    Factorization = 1,
    /// Forward + backward triangular solve.
    Solve = 2,
    /// Log-determinant reduction.
    Determinant = 3,
    /// Final dot product of the likelihood.
    DotProduct = 4,
}

impl Phase {
    /// All phases in execution order.
    pub fn all() -> [Phase; 5] {
        [
            Phase::Generation,
            Phase::Factorization,
            Phase::Solve,
            Phase::Determinant,
            Phase::DotProduct,
        ]
    }

    /// Human-readable phase name (telemetry and trace labels).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generation => "generation",
            Phase::Factorization => "factorization",
            Phase::Solve => "solve",
            Phase::Determinant => "determinant",
            Phase::DotProduct => "dot-product",
        }
    }
}

/// Registered task classes of the application, with the efficiency factors
/// that calibrate the simulator's duration model. GEMM-like kernels run
/// near peak on both architectures; POTRF is a poor GPU citizen; the
/// generation kernel is CPU-only, exactly as in the paper.
#[derive(Debug, Clone, Copy)]
pub struct GeoClasses {
    /// Covariance tile generation.
    pub generate: ClassId,
    /// Diagonal-tile Cholesky.
    pub potrf: ClassId,
    /// Panel triangular solve.
    pub trsm: ClassId,
    /// Diagonal trailing update.
    pub syrk: ClassId,
    /// Off-diagonal trailing update.
    pub gemm: ClassId,
    /// Small solve/copy/reduction tasks.
    pub small: ClassId,
}

impl GeoClasses {
    /// Register the classes into a fresh table.
    pub fn register() -> (ClassTable, GeoClasses) {
        let mut t = ClassTable::new();
        let generate = t.register(ClassSpec {
            name: "generate".into(),
            gpu_capable: false,
            cpu_efficiency: 0.5,
            gpu_efficiency: 1.0,
        });
        let potrf = t.register(ClassSpec {
            name: "potrf".into(),
            gpu_capable: true,
            cpu_efficiency: 0.5,
            gpu_efficiency: 0.05,
        });
        let trsm = t.register(ClassSpec {
            name: "trsm".into(),
            gpu_capable: true,
            cpu_efficiency: 0.8,
            gpu_efficiency: 0.4,
        });
        let syrk = t.register(ClassSpec {
            name: "syrk".into(),
            gpu_capable: true,
            cpu_efficiency: 0.9,
            gpu_efficiency: 0.55,
        });
        let gemm = t.register(ClassSpec {
            name: "gemm".into(),
            gpu_capable: true,
            cpu_efficiency: 0.9,
            gpu_efficiency: 0.6,
        });
        let small = t.register(ClassSpec {
            name: "small".into(),
            gpu_capable: false,
            cpu_efficiency: 0.2,
            gpu_efficiency: 1.0,
        });
        (t, GeoClasses { generate, potrf, trsm, syrk, gemm, small })
    }

    /// Effective GFLOP/s of a node for the factorization phase (dominated
    /// by GEMM) — the per-node weight of the heterogeneous distribution
    /// and of the LP lower bound.
    pub fn fact_gflops(&self, node: &adaphet_runtime::NodeSpec) -> f64 {
        0.9 * node.cpu_gflops() + 0.6 * node.gpus as f64 * node.gpu_gflops
    }

    /// Effective GFLOP/s of a node for the CPU-only generation phase.
    pub fn gen_gflops(&self, node: &adaphet_runtime::NodeSpec) -> f64 {
        0.5 * node.cpu_gflops()
    }
}

/// A datum of the iteration, by its coordinates in the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Datum {
    /// Lower tile `(i, j)` of Σ.
    Tile(usize, usize),
    /// Block `i` of the observation vector (constant input).
    Z(usize),
    /// Block `i` of the work vector (overwritten per iteration).
    X(usize),
    /// Scalar accumulator of the log-determinant.
    Det,
    /// Scalar accumulator of the dot product.
    Dot,
}

/// The handles of every [`Datum`] of a workload, registered once.
#[derive(Debug, Clone)]
pub(crate) struct GeoData<H> {
    tiles: Vec<H>,
    z: Vec<H>,
    x: Vec<H>,
    det: H,
    dot: H,
}

impl<H: Copy> GeoData<H> {
    /// Register every datum of `w` through `register`: the lower tiles in
    /// [`Workload::tile_index`] order, then `z`, `x`, `det` and `dot`.
    pub(crate) fn register(w: Workload, mut register: impl FnMut(Datum) -> H) -> Self {
        let tiles = (0..w.nt).flat_map(|i| (0..=i).map(move |j| (i, j)));
        let tiles = tiles.map(|(i, j)| register(Datum::Tile(i, j))).collect();
        let z = (0..w.nt).map(|i| register(Datum::Z(i))).collect();
        let x = (0..w.nt).map(|i| register(Datum::X(i))).collect();
        let det = register(Datum::Det);
        let dot = register(Datum::Dot);
        GeoData { tiles, z, x, det, dot }
    }

    /// The handle of `d`.
    pub(crate) fn get(&self, w: Workload, d: Datum) -> H {
        match d {
            Datum::Tile(i, j) => self.tiles[w.tile_index(i, j)],
            Datum::Z(i) => self.z[i],
            Datum::X(i) => self.x[i],
            Datum::Det => self.det,
            Datum::Dot => self.dot,
        }
    }
}

/// One task of an iteration: its kernel and tile coordinates. The
/// simulator and the real executor both submit exactly the tasks
/// [`for_each_task`] yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GeoTask {
    /// Generate tile `(i, j)` in place.
    Generate { i: usize, j: usize },
    /// Factor diagonal tile `(k, k)`.
    Potrf { k: usize },
    /// Panel solve of tile `(i, k)` against `(k, k)`.
    Trsm { k: usize, i: usize },
    /// Diagonal update of `(i, i)` by `(i, k)`.
    Syrk { k: usize, i: usize },
    /// Off-diagonal update of `(i, j)` by `(i, k)` and `(j, k)`.
    Gemm { k: usize, i: usize, j: usize },
    /// `x_i := z_i`.
    Copy { i: usize },
    /// `x_k := L(k,k)⁻¹ x_k`.
    Forward { k: usize },
    /// `x_i -= L(i,k) x_k`.
    ForwardUpdate { k: usize, i: usize },
    /// `x_k := L(k,k)⁻ᵀ x_k`.
    Backward { k: usize },
    /// `x_j -= L(k,j)ᵀ x_k`.
    BackwardUpdate { k: usize, j: usize },
    /// `det += 2 Σ log L(k,k)_rr`.
    LogDet { k: usize },
    /// `dot += x_kᵀ z_k`.
    Dot { k: usize },
}

impl GeoTask {
    /// The data the task touches, each mapped to a handle by `h`, in the
    /// order the kernels read them: inputs first, the updated datum last.
    pub(crate) fn accesses<H>(self, mut h: impl FnMut(Datum) -> H) -> Vec<(H, Access)> {
        use Access::{Read, ReadWrite, Write};
        use Datum::{Tile, X, Z};
        match self {
            GeoTask::Generate { i, j } => vec![(h(Tile(i, j)), Write)],
            GeoTask::Potrf { k } => vec![(h(Tile(k, k)), ReadWrite)],
            GeoTask::Trsm { k, i } => vec![(h(Tile(k, k)), Read), (h(Tile(i, k)), ReadWrite)],
            GeoTask::Syrk { k, i } => vec![(h(Tile(i, k)), Read), (h(Tile(i, i)), ReadWrite)],
            GeoTask::Gemm { k, i, j } => {
                vec![(h(Tile(i, k)), Read), (h(Tile(j, k)), Read), (h(Tile(i, j)), ReadWrite)]
            }
            GeoTask::Copy { i } => vec![(h(Z(i)), Read), (h(X(i)), Write)],
            GeoTask::Forward { k } | GeoTask::Backward { k } => {
                vec![(h(Tile(k, k)), Read), (h(X(k)), ReadWrite)]
            }
            GeoTask::ForwardUpdate { k, i } => {
                vec![(h(Tile(i, k)), Read), (h(X(k)), Read), (h(X(i)), ReadWrite)]
            }
            GeoTask::BackwardUpdate { k, j } => {
                vec![(h(Tile(k, j)), Read), (h(X(k)), Read), (h(X(j)), ReadWrite)]
            }
            GeoTask::LogDet { k } => vec![(h(Tile(k, k)), Read), (h(Datum::Det), ReadWrite)],
            GeoTask::Dot { k } => {
                vec![(h(X(k)), Read), (h(Z(k)), Read), (h(Datum::Dot), ReadWrite)]
            }
        }
    }

    /// Useful flops of the task on tiles of side `b`.
    pub(crate) fn flops(self, b: usize) -> f64 {
        match self {
            GeoTask::Generate { .. } => flops(TileKernel::Generate, b),
            GeoTask::Potrf { .. } => flops(TileKernel::Potrf, b),
            GeoTask::Trsm { .. } => flops(TileKernel::Trsm, b),
            GeoTask::Syrk { .. } => flops(TileKernel::Syrk, b),
            GeoTask::Gemm { .. } => flops(TileKernel::Gemm, b),
            GeoTask::Copy { .. } => 2.0 * b as f64,
            GeoTask::Forward { .. } | GeoTask::Backward { .. } => flops(TileKernel::SolveTrsm, b),
            GeoTask::ForwardUpdate { .. } | GeoTask::BackwardUpdate { .. } => 2.0 * (b * b) as f64,
            GeoTask::LogDet { .. } => flops(TileKernel::Determinant, b),
            GeoTask::Dot { .. } => flops(TileKernel::DotProduct, b),
        }
    }

    /// Scheduling priority in a workload of `nt` tiles per side: the
    /// factorization is critical-path aware (POTRF > TRSM > SYRK > GEMM,
    /// earlier panels first), then the solve, then the reductions.
    fn priority(self, nt: usize) -> i32 {
        let panel = |k: usize| 4 * (nt - k) as i32;
        match self {
            GeoTask::Generate { .. } => 0,
            GeoTask::Potrf { k } => panel(k) + 3,
            GeoTask::Trsm { k, .. } => panel(k) + 2,
            GeoTask::Syrk { k, .. } => panel(k) + 1,
            GeoTask::Gemm { k, .. } => panel(k),
            GeoTask::Copy { .. }
            | GeoTask::Forward { .. }
            | GeoTask::ForwardUpdate { .. }
            | GeoTask::Backward { .. }
            | GeoTask::BackwardUpdate { .. } => 2,
            GeoTask::LogDet { .. } | GeoTask::Dot { .. } => 1,
        }
    }

    fn class(self, c: &GeoClasses) -> ClassId {
        match self {
            GeoTask::Generate { .. } => c.generate,
            GeoTask::Potrf { .. } => c.potrf,
            GeoTask::Trsm { .. } => c.trsm,
            GeoTask::Syrk { .. } => c.syrk,
            GeoTask::Gemm { .. } => c.gemm,
            _ => c.small,
        }
    }
}

/// Yield the tasks of `phase` in submission order:
/// - generation: one task per stored tile, writing it in place (`W` mode —
///   previous contents are dead);
/// - factorization: the right-looking tiled Cholesky, panel by panel;
/// - solve: `x := z`, then `L y = z` (forward) and `Lᵀ x = y` (backward)
///   over vector blocks;
/// - determinant and dot product: a serial reduction of tiny tasks into
///   one scalar each, as in ExaGeoStat.
pub(crate) fn for_each_task(w: Workload, phase: Phase, mut f: impl FnMut(GeoTask)) {
    let nt = w.nt;
    match phase {
        Phase::Generation => {
            for i in 0..nt {
                (0..=i).for_each(|j| f(GeoTask::Generate { i, j }));
            }
        }
        Phase::Factorization => {
            for k in 0..nt {
                f(GeoTask::Potrf { k });
                (k + 1..nt).for_each(|i| f(GeoTask::Trsm { k, i }));
                for i in k + 1..nt {
                    f(GeoTask::Syrk { k, i });
                    (k + 1..i).for_each(|j| f(GeoTask::Gemm { k, i, j }));
                }
            }
        }
        Phase::Solve => {
            (0..nt).for_each(|i| f(GeoTask::Copy { i }));
            for k in 0..nt {
                f(GeoTask::Forward { k });
                (k + 1..nt).for_each(|i| f(GeoTask::ForwardUpdate { k, i }));
            }
            for k in (0..nt).rev() {
                f(GeoTask::Backward { k });
                (0..k).for_each(|j| f(GeoTask::BackwardUpdate { k, j }));
            }
        }
        Phase::Determinant => (0..nt).for_each(|k| f(GeoTask::LogDet { k })),
        Phase::DotProduct => (0..nt).for_each(|k| f(GeoTask::Dot { k })),
    }
}

/// Register all application data on the simulated runtime, initially
/// placed by `dist`.
pub(crate) fn register_data(
    rt: &mut SimRuntime,
    w: Workload,
    dist: &TileDist,
) -> GeoData<DataHandle> {
    GeoData::register(w, |d| match d {
        Datum::Tile(i, j) => rt.register_data(w.tile_bytes(), dist.owner(i, j)),
        Datum::Z(i) | Datum::X(i) => rt.register_data(w.vec_block_bytes(), dist.vec_owner(i)),
        Datum::Det | Datum::Dot => rt.register_data(8, NodeId(0)),
    })
}

/// Submit the tasks of `phase` to the simulated runtime.
pub(crate) fn submit_phase(
    rt: &mut SimRuntime,
    c: &GeoClasses,
    w: Workload,
    data: &GeoData<DataHandle>,
    phase: Phase,
) {
    for_each_task(w, phase, |task| {
        rt.submit(TaskDesc {
            class: task.class(c),
            flops: task.flops(w.tile),
            priority: task.priority(w.nt),
            phase: phase as u32,
            accesses: task.accesses(|d| data.get(w, d)),
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, TileDist};
    use adaphet_runtime::{NetworkSpec, NodeId, NodeSpec, Platform, SimConfig};

    fn platform(n: usize) -> Platform {
        let nodes = (0..n)
            .map(|_| NodeSpec {
                name: "n".into(),
                cpu_cores: 4,
                gpus: 0,
                cpu_gflops_per_core: 10.0,
                gpu_gflops: 0.0,
                nic_gbps: 10.0,
            })
            .collect();
        Platform::new_sorted(nodes, NetworkSpec { backbone_gbps: 100.0, latency_s: 0.0 })
    }

    fn setup(nt: usize, n_nodes: usize) -> (SimRuntime, GeoClasses, Workload, GeoData<DataHandle>) {
        setup_tile(nt, n_nodes, 32)
    }

    fn setup_tile(
        nt: usize,
        n_nodes: usize,
        tile: usize,
    ) -> (SimRuntime, GeoClasses, Workload, GeoData<DataHandle>) {
        let (table, classes) = GeoClasses::register();
        let mut rt = SimRuntime::new(platform(n_nodes), table, SimConfig::default());
        let w = Workload::new(nt, tile);
        let nodes: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
        let dist = TileDist::build(w, Distribution::BlockCyclic2D, &nodes, &vec![1.0; n_nodes]);
        let data = register_data(&mut rt, w, &dist);
        (rt, classes, w, data)
    }

    #[test]
    fn generation_task_count() {
        let (mut rt, c, w, data) = setup(5, 2);
        submit_phase(&mut rt, &c, w, &data, Phase::Generation);
        rt.run();
        let gen_events =
            rt.trace().events().iter().filter(|e| e.phase == Phase::Generation as u32).count();
        assert_eq!(gen_events, 15); // 5*6/2 lower tiles
    }

    #[test]
    fn cholesky_task_counts_and_flops_match_formula() {
        // Tile 48 makes every kernel's flop count an integer (48³ divides
        // by 3), so the phase total is exact in any completion order and
        // equality below means every task carried `flops(kernel, b)`.
        let (nt, b) = (6, 48);
        let (mut rt, c, w, data) = setup_tile(nt, 2, b);
        submit_phase(&mut rt, &c, w, &data, Phase::Generation);
        submit_phase(&mut rt, &c, w, &data, Phase::Factorization);
        rt.run();
        let count = |cls: ClassId| rt.trace().events().iter().filter(|e| e.class == cls).count();
        let (panel, trailing) = (nt * (nt - 1) / 2, nt * (nt - 1) * (nt - 2) / 6);
        assert_eq!(count(c.potrf), nt);
        assert_eq!(count(c.trsm), panel);
        assert_eq!(count(c.syrk), panel);
        assert_eq!(count(c.gemm), trailing);
        let expected = nt as f64 * flops(TileKernel::Potrf, b)
            + panel as f64 * (flops(TileKernel::Trsm, b) + flops(TileKernel::Syrk, b))
            + trailing as f64 * flops(TileKernel::Gemm, b);
        let tasks = (nt + 2 * panel + trailing) as u64;
        assert_eq!(rt.phase_totals(Phase::Factorization as u32), (tasks, expected));
    }

    #[test]
    fn full_iteration_completes_and_phases_ordered_per_tile() {
        let (mut rt, c, w, data) = setup(4, 2);
        for phase in Phase::all() {
            submit_phase(&mut rt, &c, w, &data, phase);
        }
        let r = rt.run();
        assert!(r.duration() > 0.0);
        // The potrf of tile (0,0) must start after its generation ends.
        let evs = rt.trace().events();
        let gen0 = evs.iter().find(|e| e.phase == Phase::Generation as u32).unwrap();
        let potrf0 = evs.iter().find(|e| e.class == c.potrf).unwrap();
        assert!(potrf0.start >= gen0.end - 1e-12);
        // Determinant and dot tasks all executed.
        let det = evs.iter().filter(|e| e.phase == Phase::Determinant as u32).count();
        let dot = evs.iter().filter(|e| e.phase == Phase::DotProduct as u32).count();
        assert_eq!(det, 4);
        assert_eq!(dot, 4);
    }

    #[test]
    fn more_nodes_speed_up_compute_bound_factorization() {
        // Large tiles keep the workload compute-bound; with tiny tiles,
        // communication dominates and fewer nodes win (also realistic —
        // that is exactly the paper's left-side-of-the-curve effect).
        let run_with = |n_nodes: usize| {
            let (mut rt, c, w, data) = setup_tile(8, n_nodes, 256);
            submit_phase(&mut rt, &c, w, &data, Phase::Generation);
            submit_phase(&mut rt, &c, w, &data, Phase::Factorization);
            rt.run().duration()
        };
        let d1 = run_with(1);
        let d4 = run_with(4);
        assert!(d4 < d1, "4 nodes ({d4}) not faster than 1 ({d1})");
    }

    #[test]
    fn fact_weights_reflect_gpus() {
        let (_, classes) = GeoClasses::register();
        let cpu_node = NodeSpec {
            name: "s".into(),
            cpu_cores: 10,
            gpus: 0,
            cpu_gflops_per_core: 10.0,
            gpu_gflops: 0.0,
            nic_gbps: 10.0,
        };
        let gpu_node = NodeSpec { gpus: 2, gpu_gflops: 1000.0, ..cpu_node.clone() };
        assert!(classes.fact_gflops(&gpu_node) > 10.0 * classes.fact_gflops(&cpu_node));
        // Generation ignores GPUs entirely.
        assert_eq!(classes.gen_gflops(&gpu_node), classes.gen_gflops(&cpu_node));
    }
}
