//! Task classes and phase DAG builders for the five application phases.

use crate::dist::TileDist;
use crate::workload::Workload;
use adaphet_linalg::{flops, TileKernel};
use adaphet_runtime::{Access, ClassId, ClassSpec, ClassTable, DataHandle, SimRuntime, TaskDesc};

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

/// Handles of the application's registered data.
#[derive(Debug, Clone)]
pub struct GeoData {
    /// Lower tiles of Σ (linear index per [`Workload::tile_index`]).
    pub tiles: Vec<DataHandle>,
    /// Observation vector blocks (constant input).
    pub z: Vec<DataHandle>,
    /// Work vector blocks (overwritten per iteration).
    pub x: Vec<DataHandle>,
    /// Scalar accumulator for the log-determinant.
    pub det: DataHandle,
    /// Scalar accumulator for the dot product.
    pub dot: DataHandle,
}

/// Register all application data on the runtime, initially placed by
/// `dist`.
pub fn register_data(rt: &mut SimRuntime, w: Workload, dist: &TileDist) -> GeoData {
    let mut tiles = Vec::with_capacity(w.n_tiles_lower());
    for i in 0..w.nt {
        for j in 0..=i {
            debug_assert_eq!(tiles.len(), w.tile_index(i, j));
            tiles.push(rt.register_data(w.tile_bytes(), dist.owner(i, j)));
        }
    }
    let z = (0..w.nt).map(|i| rt.register_data(w.vec_block_bytes(), dist.vec_owner(i))).collect();
    let x = (0..w.nt).map(|i| rt.register_data(w.vec_block_bytes(), dist.vec_owner(i))).collect();
    let det = rt.register_data(8, adaphet_runtime::NodeId(0));
    let dot = rt.register_data(8, adaphet_runtime::NodeId(0));
    GeoData { tiles, z, x, det, dot }
}

/// Submit the generation phase: one CPU-only `Generate` task per stored
/// tile, writing it in place (`W` mode — previous contents are dead).
pub fn submit_generation(rt: &mut SimRuntime, c: &GeoClasses, w: Workload, data: &GeoData) {
    let fl = flops(TileKernel::Generate, w.tile);
    for i in 0..w.nt {
        for j in 0..=i {
            rt.submit(TaskDesc {
                class: c.generate,
                flops: fl,
                priority: 0,
                phase: Phase::Generation as u32,
                accesses: vec![(data.tiles[w.tile_index(i, j)], Access::Write)],
            });
        }
    }
}

/// Submit the tiled Cholesky factorization DAG with critical-path-aware
/// priorities (POTRF > TRSM > SYRK > GEMM, earlier panels first).
pub fn submit_cholesky(rt: &mut SimRuntime, c: &GeoClasses, w: Workload, data: &GeoData) {
    let nt = w.nt;
    let b = w.tile;
    let t = |i: usize, j: usize| data.tiles[w.tile_index(i, j)];
    let phase = Phase::Factorization as u32;
    for k in 0..nt {
        let base = 4 * (nt - k) as i32;
        rt.submit(TaskDesc {
            class: c.potrf,
            flops: flops(TileKernel::Potrf, b),
            priority: base + 3,
            phase,
            accesses: vec![(t(k, k), Access::ReadWrite)],
        });
        for i in k + 1..nt {
            rt.submit(TaskDesc {
                class: c.trsm,
                flops: flops(TileKernel::Trsm, b),
                priority: base + 2,
                phase,
                accesses: vec![(t(k, k), Access::Read), (t(i, k), Access::ReadWrite)],
            });
        }
        for i in k + 1..nt {
            rt.submit(TaskDesc {
                class: c.syrk,
                flops: flops(TileKernel::Syrk, b),
                priority: base + 1,
                phase,
                accesses: vec![(t(i, k), Access::Read), (t(i, i), Access::ReadWrite)],
            });
            for j in k + 1..i {
                rt.submit(TaskDesc {
                    class: c.gemm,
                    flops: flops(TileKernel::Gemm, b),
                    priority: base,
                    phase,
                    accesses: vec![
                        (t(i, k), Access::Read),
                        (t(j, k), Access::Read),
                        (t(i, j), Access::ReadWrite),
                    ],
                });
            }
        }
    }
}

/// Submit the solve phase: copy `z` into the work vector `x`, then
/// `L y = z` (forward) and `Lᵀ x = y` (backward) over vector blocks.
pub fn submit_solve(rt: &mut SimRuntime, c: &GeoClasses, w: Workload, data: &GeoData) {
    let nt = w.nt;
    let b = w.tile;
    let t = |i: usize, j: usize| data.tiles[w.tile_index(i, j)];
    let phase = Phase::Solve as u32;
    let trsv_fl = flops(TileKernel::SolveTrsm, b);
    // x := z (copies may land on whichever node owns x's block).
    for i in 0..nt {
        rt.submit(TaskDesc {
            class: c.small,
            flops: 2.0 * b as f64,
            priority: 2,
            phase,
            accesses: vec![(data.z[i], Access::Read), (data.x[i], Access::Write)],
        });
    }
    // Forward sweep.
    for k in 0..nt {
        rt.submit(TaskDesc {
            class: c.small,
            flops: trsv_fl,
            priority: 2,
            phase,
            accesses: vec![(t(k, k), Access::Read), (data.x[k], Access::ReadWrite)],
        });
        for i in k + 1..nt {
            rt.submit(TaskDesc {
                class: c.small,
                flops: 2.0 * (b * b) as f64,
                priority: 2,
                phase,
                accesses: vec![
                    (t(i, k), Access::Read),
                    (data.x[k], Access::Read),
                    (data.x[i], Access::ReadWrite),
                ],
            });
        }
    }
    // Backward sweep (Lᵀ).
    for k in (0..nt).rev() {
        rt.submit(TaskDesc {
            class: c.small,
            flops: trsv_fl,
            priority: 2,
            phase,
            accesses: vec![(t(k, k), Access::Read), (data.x[k], Access::ReadWrite)],
        });
        for j in 0..k {
            rt.submit(TaskDesc {
                class: c.small,
                flops: 2.0 * (b * b) as f64,
                priority: 2,
                phase,
                accesses: vec![
                    (t(k, j), Access::Read),
                    (data.x[k], Access::Read),
                    (data.x[j], Access::ReadWrite),
                ],
            });
        }
    }
}

/// Submit the determinant phase: accumulate `2 Σ log L_kk` into the `det`
/// scalar (a serial reduction of tiny tasks, as in ExaGeoStat).
pub fn submit_determinant(rt: &mut SimRuntime, c: &GeoClasses, w: Workload, data: &GeoData) {
    let fl = flops(TileKernel::Determinant, w.tile);
    for k in 0..w.nt {
        rt.submit(TaskDesc {
            class: c.small,
            flops: fl,
            priority: 1,
            phase: Phase::Determinant as u32,
            accesses: vec![
                (data.tiles[w.tile_index(k, k)], Access::Read),
                (data.det, Access::ReadWrite),
            ],
        });
    }
}

/// Submit the dot-product phase: accumulate `xᵀ z` into the `dot` scalar.
pub fn submit_dot(rt: &mut SimRuntime, c: &GeoClasses, w: Workload, data: &GeoData) {
    let fl = flops(TileKernel::DotProduct, w.tile);
    for k in 0..w.nt {
        rt.submit(TaskDesc {
            class: c.small,
            flops: fl,
            priority: 1,
            phase: Phase::DotProduct as u32,
            accesses: vec![
                (data.x[k], Access::Read),
                (data.z[k], Access::Read),
                (data.dot, Access::ReadWrite),
            ],
        });
    }
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

    fn setup(nt: usize, n_nodes: usize) -> (SimRuntime, GeoClasses, Workload, GeoData) {
        setup_tile(nt, n_nodes, 32)
    }

    fn setup_tile(
        nt: usize,
        n_nodes: usize,
        tile: usize,
    ) -> (SimRuntime, GeoClasses, Workload, GeoData) {
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
        submit_generation(&mut rt, &c, w, &data);
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
        submit_generation(&mut rt, &c, w, &data);
        submit_cholesky(&mut rt, &c, w, &data);
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
        submit_generation(&mut rt, &c, w, &data);
        submit_cholesky(&mut rt, &c, w, &data);
        submit_solve(&mut rt, &c, w, &data);
        submit_determinant(&mut rt, &c, w, &data);
        submit_dot(&mut rt, &c, w, &data);
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
            submit_generation(&mut rt, &c, w, &data);
            submit_cholesky(&mut rt, &c, w, &data);
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
