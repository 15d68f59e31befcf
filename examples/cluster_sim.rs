//! Sweep a paper scenario's response curve and race all seven exploration
//! strategies on it — a miniature of the paper's Figs. 5 and 6 on one
//! scenario.
//!
//! ```sh
//! cargo run --release --example cluster_sim            # scenario (i)
//! cargo run --release --example cluster_sim -- a 20 60 # scenario, reps, iters
//! ```

use adaphet::eval::{ascii_curve, build_response, replay_many, StrategyKind, PAPER_STRATEGIES};
use adaphet::scenarios::{Scale, Scenario};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let id = argv.first().and_then(|s| s.chars().next()).unwrap_or('i');
    let reps: usize = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let iters: usize = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(127);
    let scen = Scenario::by_id(id).unwrap_or_else(|| {
        eprintln!("unknown scenario '{id}', using (i)");
        Scenario::by_id('i').unwrap()
    });

    println!("building response table for {} ...", scen.label());
    let table = build_response(&scen, Scale::Test, reps, 42);
    let means: Vec<f64> = (1..=table.n_actions()).map(|n| table.mean(n)).collect();
    println!("{}", ascii_curve(&table.label, &means, 10));
    println!(
        "best n = {} ({:.3}s) vs all-nodes {:.3}s; LP bound at best = {:.3}s\n",
        table.best_action(),
        table.mean(table.best_action()),
        table.all_nodes_mean(),
        table.lp[table.best_action() - 1]
    );

    println!("strategy race: {iters} iterations x {reps} repetitions");
    let oracle = replay_many(StrategyKind::Oracle, &table, iters, reps, 42);
    for kind in PAPER_STRATEGIES.into_iter().chain([StrategyKind::Random]) {
        let s = replay_many(kind, &table, iters, reps, 42);
        println!(
            "  {:<14} total {:>9.1}s  gain vs all-nodes {:>6.1}%",
            s.strategy,
            s.mean_total,
            100.0 * s.gain_vs_all
        );
    }
    println!(
        "  {:<14} total {:>9.1}s  gain vs all-nodes {:>6.1}%  (clairvoyant floor)",
        "oracle",
        oracle.mean_total,
        100.0 * oracle.gain_vs_all
    );
}
