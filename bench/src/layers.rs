//! Per-layer figures that are not spans of a workload block: batched
//! calls into one layer's public functions on generated inputs, and the
//! counts the program's own metrics registry keeps.

use crate::daemon::TempDir;
use crate::gen::{self, Rng, SessionInput};
use crate::metrics::Metrics;
use crate::spans::NoTrace;
use crate::stats::median;
use adaphet_core::{StrategyKind, SurrogateStore};
use adaphet_geostat::IterationChoice;
use adaphet_gp::{fit_profile_likelihood, GpConfig, GpModel, Kernel, MleSearch, Trend};
use adaphet_linalg::{Cholesky, Mat};
use adaphet_runtime::{FlowNet, LinkId};
use adaphet_scenarios::{Scale, Scenario};
use adaphet_store::SurrogateSnapshot;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time budget of one microbenchmark.
const BUDGET: Duration = Duration::from_millis(120);

/// Median microseconds per call of `f`: batches of about a millisecond,
/// up to 60 of them within the budget.
fn median_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((1e-3 / once) as usize).clamp(1, 10_000);
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || (started.elapsed() < BUDGET && samples.len() < 60) {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&samples)
}

/// `n` observations of a generated 128-node curve at distinct actions
/// spread over the whole range, as a tuning history would hold them.
fn observations(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>, Vec<(usize, usize)>) {
    let input = &gen::tune_gp_128(seed, 1)[0];
    let xs: Vec<f64> = (0..n).map(|i| (1 + i * 127 / n.max(2)) as f64 + 0.01 * i as f64).collect();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, x)| input.curve.mean[(*x as usize - 1).min(127)] * input.noise[i % input.iters()])
        .collect();
    (xs, ys, input.curve.groups.clone())
}

/// `gp.*` and `linalg.*`: scratch fit, incremental update, the MLE grid,
/// a posterior scan, and the Cholesky kernels underneath.
pub fn gp_linalg(seed: u64, m: &mut Metrics) {
    let config = |groups: &[(usize, usize)]| GpConfig {
        kernel: Kernel::Exponential { theta: 1.0 },
        process_var: 10.0,
        noise_var: 0.25,
        trend: Trend::linear_with_group_dummies(groups),
    };
    for n in [8usize, 32, 128] {
        let (xs, ys, groups) = observations(seed, n);
        let fit = median_us(|| GpModel::fit(config(&groups), &xs, &ys).expect("fit"));
        m.set(&format!("gp.fit_us.n{n}"), fit);
        let base = GpModel::fit(config(&groups), &xs[..n - 1], &ys[..n - 1]).expect("fit");
        let clone = median_us(|| base.clone());
        let update = median_us(|| {
            let mut model = base.clone();
            model.update(xs[n - 1], ys[n - 1]).expect("update");
            model
        });
        m.set(&format!("gp.update_us.n{n}"), (update - clone).max(0.0));
    }
    let (xs, ys, groups) = observations(seed, 32);
    let search = MleSearch::default();
    m.set(
        "gp.mle_grid_us.n32",
        median_us(|| fit_profile_likelihood(&search, &xs, &ys, 0.25).expect("mle")),
    );
    let (xs, ys, _) = observations(seed, 127);
    let model = GpModel::fit(config(&groups), &xs, &ys).expect("fit");
    m.set(
        "gp.predict_scan_us.n128",
        median_us(|| (1..=128).map(|q| model.predict(f64::from(q)).mean).sum::<f64>()),
    );

    // An exponential-kernel covariance over 128 points, as the GP builds.
    let n = 128;
    let cov = Mat::from_fn(n, n, |i, j| {
        10.0 * (-(i as f64 - j as f64).abs()).exp() + if i == j { 0.25 } else { 0.0 }
    });
    m.set("linalg.chol_factor_us.n128", median_us(|| Cholesky::factor(&cov).expect("spd")));
    let head = Mat::from_fn(n - 1, n - 1, |i, j| cov[(i, j)]);
    let base = Cholesky::factor(&head).expect("spd");
    let column: Vec<f64> = (0..n - 1).map(|i| cov[(n - 1, i)]).collect();
    let clone = median_us(|| base.clone());
    let mut ws = Vec::new();
    let append = median_us(|| {
        let mut chol = base.clone();
        chol.append(&column, cov[(n - 1, n - 1)], &mut ws).expect("spd");
        chol
    });
    m.set("linalg.chol_append_us.n128", (append - clone).max(0.0));
    let chol = Cholesky::factor(&cov).expect("spd");
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    m.set("linalg.chol_solve_us.n128", median_us(|| chol.solve(&rhs)));
}

/// `store.*`: put, nearest over 64 and 1024 entries, codec, and sizes.
pub fn store(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let (sessions, snapshots) = gen::warm_store_mix(seed);
    let target = adaphet_core::signature_from_space(&sessions[0].spec.space()?);
    let strategy = StrategyKind::GpDiscontinuous.name();
    let err = |e: adaphet_store::StoreError| e.to_string();
    for (count, slug) in [(64usize, "s64"), (gen::WARM_PREFILL, "s1024")] {
        let dir = TempDir::new("store-layer")?;
        let store = SurrogateStore::open(dir.path()).map_err(err)?;
        for snap in &snapshots[..count] {
            store.put(snap).map_err(err)?;
        }
        let nearest = median_us(|| {
            store.nearest(&target, strategy, gen::WARM_MIN_SIMILARITY).expect("nearest")
        });
        m.set(&format!("store.nearest_ms.{slug}"), nearest / 1e3);
        if count == gen::WARM_PREFILL {
            let mut next = 0;
            let put = median_us(|| {
                next = (next + 1) % count;
                store.put(&snapshots[next]).expect("put")
            });
            m.set("store.put_us", put);
        }
    }
    let bytes = snapshots[0].to_bytes();
    m.set("store.snapshot_bytes", bytes.len() as f64);
    m.set("store.encode_us", median_us(|| snapshots[0].to_bytes()));
    m.set("store.decode_us", median_us(|| SurrogateSnapshot::from_bytes(&bytes).expect("decode")));
    Ok(())
}

/// Star-topology flow churn (the simulator's hot path): 16 node pairs
/// behind a shared backbone, 30 waves of one flow per pair.
fn flownet_churn(rng: &mut Rng) -> f64 {
    const PAIRS: usize = 16;
    let mut net = FlowNet::new();
    let backbone = net.add_link(50e9);
    let nics: Vec<(LinkId, LinkId)> =
        (0..PAIRS).map(|_| (net.add_link(10e9), net.add_link(10e9))).collect();
    for wave in 0..30 {
        for pair in 0..PAIRS {
            let (up, _) = nics[pair];
            let (_, down) = nics[(pair + wave + 1) % PAIRS];
            net.start_flow(&[up, backbone, down], rng.range(1e6, 2e6));
        }
        while net.active_flows() > PAIRS / 2 {
            let Some(t) = net.next_completion() else { break };
            net.advance_to(t);
        }
    }
    net.advance_to(1e9);
    net.link_busy(backbone)
}

/// `runtime.flownet_churn_us.16pairs`.
pub fn flownet(seed: u64, m: &mut Metrics) {
    let rng = Rng::stream(seed, "flownet", 0);
    m.set("runtime.flownet_churn_us.16pairs", median_us(|| flownet_churn(&mut rng.clone())));
}

/// `eval.cache_hit_ms`: a response table served from the on-disk cache
/// (under `target/adaphet-cache` of the working directory).
pub fn cache_hit(seed: u64, m: &mut Metrics) {
    let scenario = Scenario::by_id('a').expect("catalogue scenario");
    let build = || adaphet_eval::build_response_cached(&scenario, Scale::Test, 2, seed);
    black_box(build());
    m.set("eval.cache_hit_ms", median_us(build) / 1e3);
}

/// Counts from the program's own metrics registry. Installing the global
/// registry switches the program's instrumentation on for the rest of
/// the process, so this runs last, after every timing.
pub fn registry_counts(
    gp_session: Option<&SessionInput>,
    sim: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    let registry = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
    let count = |name: &str| registry.counter_value(name);
    if let Some(input) = gp_session {
        let (full, incremental) = (count("gp.fit.full"), count("gp.fit.incremental"));
        let mut session = crate::service::shadow_session(&input.spec, None)?;
        crate::service::shadow_history(&mut NoTrace, None, 0, &mut session, input)?;
        m.set("gp.fits_full_per_session", count("gp.fit.full") - full);
        m.set("gp.fits_incremental_per_session", count("gp.fit.incremental") - incremental);
    }
    if sim {
        let scenario = Scenario::by_id('k').expect("catalogue scenario");
        let solves = count("lp.solves");
        black_box(scenario.lp_curve(Scale::Reduced));
        m.set("lp.solves_per_curve", count("lp.solves") - solves);
        let n = scenario.n_nodes();
        let mut app = scenario.app_untraced(Scale::Reduced, 0);
        app.set_recorder(std::sync::Arc::new(registry.clone()));
        app.run_iteration(IterationChoice::fact_only(n, n / 2));
        let tasks = count("sim.tasks_executed");
        let t0 = Instant::now();
        app.run_iteration(IterationChoice::fact_only(n, n / 2));
        let host_s = t0.elapsed().as_secs_f64();
        m.set("runtime.tasks_per_s", (count("sim.tasks_executed") - tasks) / host_s);
    }
    Ok(())
}
