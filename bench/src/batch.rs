//! The two in-process workloads: `sweep_sim` (uncached response-table
//! sweeps — runtime, geostat and lp do all the work) and `replay_matrix`
//! (fig6's replay half — core and gp through `TunerDriver::run`, with no
//! wire, tickets or health).

use crate::gen;
use crate::metrics::Metrics;
use crate::spans::{NoTrace, Recorder, Tracer};
use crate::stats::median;
use crate::workload::{fingerprint, Block, Workload};
use adaphet_core::PAPER_STRATEGIES;
use adaphet_eval::{build_response, replay_many, sweep, ResponseTable};
use adaphet_geostat::IterationChoice;
use adaphet_scenarios::{Scale, Scenario};
use std::time::Instant;

/// Scenarios one `sweep_sim` block sweeps: a "(Real)" one (10 nodes,
/// three jittered simulations per action) and a "(Simul)" one (21 nodes,
/// another site). A block must fit several times into a 15-second run,
/// which the larger scenarios (`i`, `k`: 1.2 s and 2.3 s per table here)
/// do not.
pub const SWEEP_SCENARIOS: [char; 2] = ['a', 'd'];
/// Observations per action in a swept table.
const SWEEP_REPS: usize = 2;

fn scenario(id: char) -> Scenario {
    Scenario::by_id(id).expect("catalogue scenario")
}

/// A static tag per scenario id, for span details.
fn scenario_tag(id: char) -> &'static str {
    match id {
        'a' => "a",
        'd' => "d",
        'e' => "e",
        'i' => "i",
        'k' => "k",
        'p' => "p",
        _ => "other",
    }
}

/// Simulated application iterations `build_response` runs for a table:
/// two per (action, simulation replicate).
fn sim_iterations(s: &Scenario) -> u64 {
    let replicates = if s.real { 3 } else { 1 };
    (s.n_nodes() * replicates * 2) as u64
}

fn table_words(t: &ResponseTable) -> impl Iterator<Item = u64> + '_ {
    t.durations.iter().chain(&t.sim_base).flatten().chain(&t.lp).map(|d| d.to_bits())
}

fn check_table(s: &Scenario, t: &ResponseTable) -> Result<(), String> {
    let n = s.n_nodes();
    if t.n_actions() != n || t.lp.len() != n {
        return Err(format!("{}: table has {} actions for {n} nodes", s.label(), t.n_actions()));
    }
    let ok = |d: &f64| d.is_finite() && *d > 0.0;
    if !t.durations.iter().flatten().all(ok) || !t.lp.iter().all(ok) {
        return Err(format!("{}: non-positive or non-finite duration", s.label()));
    }
    Ok(())
}

/// `sweep_sim`, set up.
pub struct SweepSim {
    scenarios: Vec<Scenario>,
    seed: u64,
    /// Fingerprint of the first pass; every later pass must match it.
    reference: Option<u64>,
}

impl SweepSim {
    /// Resolve the scenarios and fault the simulator in with a
    /// test-scale sweep of the whole catalogue.
    pub fn setup(seed: u64) -> Result<SweepSim, String> {
        let scenarios = SWEEP_SCENARIOS.iter().map(|&id| scenario(id)).collect();
        let tables = sweep(Scenario::all16(), false, |s| build_response(&s, Scale::Test, 2, seed));
        for (s, t) in Scenario::all16().iter().zip(&tables) {
            check_table(s, t)?;
        }
        Ok(SweepSim { scenarios, seed, reference: None })
    }

    /// One uncached sweep; `sequential` for the traced run.
    fn pass<T: Tracer>(&mut self, t: &mut T, sequential: bool) -> (Block, Vec<ResponseTable>) {
        let seed = self.seed;
        let start = Instant::now();
        let timed: Vec<(ResponseTable, f64)> = t.span("sweep.pass", None, 0, "", |t, me| {
            if sequential {
                self.scenarios
                    .iter()
                    .map(|s| {
                        let t0 = Instant::now();
                        let table =
                            t.span("eval.build_response", me, 0, scenario_tag(s.id), |_, _| {
                                build_response(s, Scale::Reduced, SWEEP_REPS, seed)
                            });
                        (table, t0.elapsed().as_secs_f64())
                    })
                    .collect()
            } else {
                sweep(self.scenarios.clone(), false, |s| {
                    let t0 = Instant::now();
                    let table = build_response(&s, Scale::Reduced, SWEEP_REPS, seed);
                    (table, t0.elapsed().as_secs_f64())
                })
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut block = Block { wall_s, ..Block::default() };
        let mut words = Vec::new();
        for (s, (table, seconds)) in self.scenarios.iter().zip(&timed) {
            block.attempted += 1;
            let iterations = sim_iterations(s);
            block.iters += iterations;
            block.iter_us.push(seconds * 1e6 / iterations as f64);
            if let Err(why) = check_table(s, table) {
                block.failed += 1;
                block.failures.push(why);
            }
            // Where no tuner runs, quality is the paper's motivation: the
            // all-nodes default against the best node count. Read off the
            // raw simulated durations, which the seed moves far less than
            // the two noisy observations per action drawn from them.
            let simulated: Vec<f64> = table.sim_base.iter().map(|b| median(b)).collect();
            block.quality.spent += simulated[simulated.len() - 1];
            block.quality.oracle += simulated.iter().copied().fold(f64::INFINITY, f64::min);
            words.extend(table_words(table));
        }
        let print = fingerprint(words);
        if *self.reference.get_or_insert(print) != print {
            block.failed += 1;
            block.failures.push("sweep passes with one seed are not bit-identical".into());
        }
        block.extra = vec![("sweep_pass_s", wall_s)];
        (block, timed.into_iter().map(|(t, _)| t).collect())
    }
}

impl Workload for SweepSim {
    fn block(&mut self) -> Block {
        self.pass(&mut NoTrace, false).0
    }

    fn cost_pid(&self) -> u32 {
        std::process::id()
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        Vec::new()
    }
}

/// Traced `sweep_sim`: an untraced sequential pass for the overhead base,
/// a traced one, then the public calls a table is made of — build the
/// app, run a placement iteration, run the steady one — on scenarios
/// `a`, `i`, `k` at half their nodes, and their tables.
pub fn traced_sweep(seed: u64, m: &mut Metrics) -> Result<(Recorder, Vec<String>), String> {
    let mut sim = SweepSim::setup(seed)?;
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let (base, _) = sim.pass(&mut NoTrace, true);
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut recorder = Recorder::default();
    let t0 = Instant::now();
    let (block, tables) = sim.pass(&mut recorder, true);
    let traced_s = t0.elapsed().as_secs_f64();
    failures.extend(base.failures);
    failures.extend(block.failures);

    let mut violations = 0;
    for table in &tables {
        for (lp, sims) in table.lp.iter().zip(&table.sim_base) {
            let fastest = sims.iter().copied().fold(f64::INFINITY, f64::min);
            violations += usize::from(*lp > fastest);
        }
    }
    m.set("eval.lp_bound_violations", violations as f64);
    for (id, table_s) in
        SWEEP_SCENARIOS.iter().zip(recorder.durations_us("eval.build_response", None))
    {
        m.set(&format!("eval.build_response_s.{id}"), table_s / 1e6);
    }

    for id in ['a', 'i', 'k'] {
        let s = scenario(id);
        let tag = scenario_tag(id);
        let n = s.n_nodes();
        let choice = IterationChoice::fact_only(n, (n / 2).max(1));
        for round in 0..3u64 {
            recorder.span("sweep.decomposed", None, round, tag, |t, me| {
                let mut app = t.span("scenarios.app_build", me, round, tag, |_, _| {
                    s.app_untraced(Scale::Reduced, seed ^ round)
                });
                t.span("geostat.place_iteration", me, round, tag, |_, _| {
                    app.run_iteration(choice);
                });
                t.span("geostat.run_iteration", me, round, tag, |_, _| {
                    app.run_iteration(choice);
                });
            });
        }
        let steady = recorder.durations_us("geostat.run_iteration", Some(tag));
        m.set(&format!("runtime.sim_iteration_ms.{id}"), median(&steady) / 1e3);
        if id == 'k' {
            let builds = recorder.durations_us("scenarios.app_build", Some("k"));
            m.set("runtime.app_build_ms.k", median(&builds) / 1e3);
        }
    }
    // The tables the block leaves out, for `eval.build_response_s.*`.
    for id in ['e', 'i', 'k'] {
        let s = scenario(id);
        let table_s = recorder.span("eval.build_response", None, 0, scenario_tag(id), |_, _| {
            let t0 = Instant::now();
            let table = build_response(&s, Scale::Reduced, SWEEP_REPS, seed);
            check_table(&s, &table).map(|()| t0.elapsed().as_secs_f64())
        })?;
        m.set(&format!("eval.build_response_s.{id}"), table_s);
    }
    for (id, slug) in [('a', "n10"), ('k', "n50"), ('p', "n128")] {
        let s = scenario(id);
        let us: Vec<f64> = (0..5)
            .map(|round| {
                let t0 = Instant::now();
                let curve =
                    recorder.span("scenarios.lp_curve", None, round, scenario_tag(id), |_, _| {
                        s.lp_curve(Scale::Reduced)
                    });
                assert_eq!(curve.len(), s.n_nodes());
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        m.set(&format!("lp.curve_us.{slug}"), median(&us));
    }
    m.set("trace.coverage_pct", recorder.coverage_pct("sweep.pass").unwrap_or(0.0));
    m.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    m.set("trace.spans", recorder.spans().len() as f64);
    Ok((recorder, failures))
}

/// Repetitions per (strategy, table) cell of `replay_matrix`: one per
/// core of the box the bounds were derived on, so that `replay_many`'s
/// fan-out is part of what is measured.
const REPLAY_REPS: usize = 2;
/// Iterations per replay: the paper's budget.
const REPLAY_ITERS: usize = 127;

/// A static label per table size, for span details.
fn table_tag(n: usize) -> &'static str {
    match n {
        10 => "n10",
        26 => "n26",
        64 => "n64",
        128 => "n128",
        _ => "other",
    }
}

/// `replay_matrix`, set up.
pub struct ReplayMatrix {
    tables: Vec<ResponseTable>,
    seed: u64,
    /// Fingerprint of the first block; every later block must match it.
    reference: Option<u64>,
}

impl ReplayMatrix {
    /// Generate the four tables and warm up on the smallest (every
    /// strategy's code runs; the other tables' cost stays out of set-up).
    pub fn setup(seed: u64) -> Result<ReplayMatrix, String> {
        let mut tables = gen::replay_tables(seed);
        let rest = tables.split_off(1);
        let mut matrix = ReplayMatrix { tables, seed, reference: None };
        let warm_up = matrix.block();
        matrix.tables.extend(rest);
        matrix.reference = None;
        match warm_up.failures.first() {
            Some(first) => Err(format!("warm-up block failed: {first}")),
            None => Ok(matrix),
        }
    }

    /// Every paper strategy on every table; a cell is one `replay_many`,
    /// its repetitions fanned out over the cores.
    fn matrix<T: Tracer>(&mut self, t: &mut T) -> Block {
        let seed = self.seed;
        let start = Instant::now();
        let mut block = Block::default();
        let mut words = Vec::new();
        for (i, table) in self.tables.iter().enumerate() {
            let tag = table_tag(table.n_actions());
            let oracle = table.mean(table.best_action()) * REPLAY_ITERS as f64;
            t.span("replay.table", None, i as u64, tag, |t, me| {
                for kind in PAPER_STRATEGIES {
                    let t0 = Instant::now();
                    let totals = t.span("replay.strategy", me, i as u64, kind.name(), |_, _| {
                        replay_many(kind, table, REPLAY_ITERS, REPLAY_REPS, seed).totals
                    });
                    let iterations = (REPLAY_REPS * REPLAY_ITERS) as u64;
                    block.iter_us.push(t0.elapsed().as_secs_f64() * 1e6 / iterations as f64);
                    block.iters += iterations;
                    block.attempted += 1;
                    let sane = totals.len() == REPLAY_REPS
                        && totals.iter().all(|x| x.is_finite() && *x >= 0.98 * oracle);
                    if !sane {
                        block.failed += 1;
                        block
                            .failures
                            .push(format!("{kind} on {tag}: totals {totals:?} vs oracle {oracle}"));
                    }
                    block.quality.spent += totals.iter().sum::<f64>();
                    block.quality.oracle += oracle * totals.len() as f64;
                    words.extend(totals.iter().map(|x| x.to_bits()));
                }
            });
        }
        block.wall_s = start.elapsed().as_secs_f64();
        let print = fingerprint(words);
        if *self.reference.get_or_insert(print) != print {
            block.failed += 1;
            block.failures.push("replays with one seed are not bit-identical".into());
        }
        block.extra = vec![("replay_iters_per_s", block.iters as f64 / block.wall_s)];
        block
    }
}

impl Workload for ReplayMatrix {
    fn block(&mut self) -> Block {
        self.matrix(&mut NoTrace)
    }

    fn cost_pid(&self) -> u32 {
        std::process::id()
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        Vec::new()
    }
}

/// Traced `replay_matrix`: the matrix untraced, then traced, and the
/// per-strategy replay cost from the spans.
pub fn traced_replay(seed: u64, m: &mut Metrics) -> Result<(Recorder, Vec<String>), String> {
    let mut matrix = ReplayMatrix::setup(seed)?;
    let t0 = Instant::now();
    let base = matrix.matrix(&mut NoTrace);
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut recorder = Recorder::default();
    let t0 = Instant::now();
    let block = matrix.matrix(&mut recorder);
    let traced_s = t0.elapsed().as_secs_f64();
    let mut failures = base.failures;
    failures.extend(block.failures);
    let slugs = ["dc", "right-left", "brent", "ucb", "ucb-struct", "gp-ucb", "gp-disc"];
    for (kind, slug) in PAPER_STRATEGIES.iter().zip(slugs) {
        let cells = recorder.durations_us("replay.strategy", Some(kind.name()));
        let iterations = (cells.len() * REPLAY_REPS * REPLAY_ITERS) as f64;
        m.set(&format!("eval.replay_us_per_iter.{slug}"), cells.iter().sum::<f64>() / iterations);
    }
    m.set("trace.coverage_pct", recorder.coverage_pct("replay.table").unwrap_or(0.0));
    m.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    m.set("trace.spans", recorder.spans().len() as f64);
    Ok((recorder, failures))
}
