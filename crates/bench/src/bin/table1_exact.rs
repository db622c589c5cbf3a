//! **Table 1, row "Exact computation"**: classical `O(n)` (HW12/PRT12) vs
//! quantum `O(√(nD))` (Theorem 1).
//!
//! Two sweeps reproduce the row's shape:
//!
//! 1. growing `n` at near-constant `D` — classical rounds grow with
//!    exponent ≈ 1, quantum with exponent ≈ 0.5;
//! 2. growing `D` at fixed `n` — the quantum cost grows like `√D`.
//!
//! The absolute crossover (where the quantum curve undercuts the classical
//! one) is extrapolated from the fits, because the unhidden constants of
//! real Dürr–Høyer search put it beyond direct-simulation sizes.

use bench::{mean, rule, scale, sparse_instance, write_results_json};
use congest_diameter::crossover::{self, CrossKind};
use diameter_quantum::exact::{self, ExactParams};
use trace::Json;

fn main() {
    let scale = scale();
    let seeds_per_point = 5;

    rule("Table 1 / exact: rounds vs n (sparse, D ≈ constant)");
    println!(
        "{:>6} {:>4} {:>12} {:>14} {:>10} {:>9}",
        "n", "D", "classical", "quantum mean", "q/c ratio", "c active"
    );
    // 64 → 8192 spans two-plus decades; the top decade (2048–8192) became
    // affordable with the columnar-arena scheduler (the Θ(n·m)-work
    // classical APSP baseline dominates the cost of every point).
    let sizes: Vec<usize> = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
        .iter()
        .map(|&n| n * scale)
        .collect();
    let mut ns = Vec::new();
    let mut nds = Vec::new();
    let mut classical_rounds = Vec::new();
    let mut quantum_rounds = Vec::new();
    let mut n_rows = Vec::new();
    for &n in &sizes {
        let (g, cfg) = sparse_instance(n, 1);
        let d = graphs::metrics::diameter(&g).expect("connected");
        let classical_run = classical::apsp::exact_diameter(&g, cfg).expect("classical");
        let c = classical_run.rounds() as f64;
        let c_active = classical_run.ledger.active_fraction();
        let c_scheduled = classical_run.ledger.total_scheduled_nodes();
        let q = mean(
            &(0..seeds_per_point)
                .map(|s| {
                    exact::diameter(&g, ExactParams::new(s), cfg)
                        .expect("quantum")
                        .rounds() as f64
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "{:>6} {:>4} {:>12.0} {:>14.0} {:>10.2} {:>9.3}",
            n,
            d,
            c,
            q,
            q / c,
            c_active
        );
        ns.push(n as f64);
        nds.push(n as f64 * f64::from(d));
        classical_rounds.push(c);
        quantum_rounds.push(q);
        n_rows.push(Json::obj([
            ("n", Json::Int(n as i128)),
            ("d", Json::Int(i128::from(d))),
            ("classical_rounds", Json::Float(c)),
            ("quantum_rounds_mean", Json::Float(q)),
            ("classical_active_fraction", Json::Float(c_active)),
            ("classical_scheduled_nodes", Json::Int(c_scheduled as i128)),
        ]));
    }
    let c_fit = crossover::loglog_fit(&ns, &classical_rounds).expect("classical fit");
    let q_fit = crossover::loglog_fit(&ns, &quantum_rounds).expect("quantum fit");
    let (c_slope, q_slope) = (c_fit.0, q_fit.0);
    println!("\nfitted exponents: classical {c_slope:.2} (paper: 1), quantum {q_slope:.2} (paper: 0.5 + D drift)");
    // Correct for the slow diameter growth of the sparse family by fitting
    // against n·D, the paper's actual scale variable.
    println!(
        "fitted quantum exponent against n·D: {:.2} (paper: 0.5, from √(nD))",
        crossover::loglog_fit(&nds, &quantum_rounds)
            .expect("n·D fit")
            .0
    );

    // Extrapolated crossover from the fits, by the crossover engine's
    // guarded estimator.
    match crossover::project_crossover(c_fit, q_fit) {
        (CrossKind::Projected, Some(n_star)) => {
            println!("extrapolated crossover: quantum wins for n ≳ {n_star:.0}");
        }
        (CrossKind::IndistinguishableSlopes, _) => {
            println!("no extrapolated crossover: the fitted slopes are indistinguishable");
        }
        _ => println!("no extrapolated crossover: quantum grows at least as fast"),
    }

    rule("Table 1 / exact: rounds vs D (n fixed)");
    let n = 512 * scale;
    println!(
        "{:>6} {:>6} {:>12} {:>14}",
        "n", "D", "classical", "quantum mean"
    );
    let mut ds = Vec::new();
    let mut q_by_d = Vec::new();
    let mut d_rows = Vec::new();
    for &target in &[8usize, 16, 32, 64, 128] {
        let (g, d) = bench::dialed_diameter_instance(n, target, 7);
        let cfg = bench::config_for(&g);
        let classical_run = classical::apsp::exact_diameter(&g, cfg).expect("classical");
        let c = classical_run.rounds() as f64;
        let c_active = classical_run.ledger.active_fraction();
        let c_scheduled = classical_run.ledger.total_scheduled_nodes();
        let q = mean(
            &(0..seeds_per_point)
                .map(|s| {
                    exact::diameter(&g, ExactParams::new(s), cfg)
                        .expect("quantum")
                        .rounds() as f64
                })
                .collect::<Vec<_>>(),
        );
        println!("{:>6} {:>6} {:>12.0} {:>14.0}", n, d, c, q);
        ds.push(d as f64);
        q_by_d.push(q);
        d_rows.push(Json::obj([
            ("n", Json::Int(n as i128)),
            ("d", Json::Int(i128::from(d))),
            ("classical_rounds", Json::Float(c)),
            ("quantum_rounds_mean", Json::Float(q)),
            ("classical_active_fraction", Json::Float(c_active)),
            ("classical_scheduled_nodes", Json::Int(c_scheduled as i128)),
        ]));
    }
    let d_slope = crossover::loglog_fit(&ds, &q_by_d).expect("D fit").0;
    println!("\nfitted quantum exponent in D: {d_slope:.2} (paper: 0.5, from √(nD))");
    println!("classical rounds stay Θ(n): the D column barely moves them.");

    write_results_json(
        "table1_exact",
        Json::obj([
            ("experiment", Json::Str("table1_exact".into())),
            ("seeds_per_point", Json::Int(seeds_per_point as i128)),
            ("sweep_n", Json::Arr(n_rows)),
            ("classical_slope_in_n", Json::Float(c_slope)),
            ("quantum_slope_in_n", Json::Float(q_slope)),
            ("sweep_d", Json::Arr(d_rows)),
            ("quantum_slope_in_d", Json::Float(d_slope)),
        ]),
    )
    .expect("write results JSON");
}
