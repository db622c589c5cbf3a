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
//!
//! Under an injected fault plan (`QD_FAULTS`, healed under `QD_RECOVER`) a
//! driver may still fail: its point prints as a `failed` row naming the
//! driver, seed and error, stays out of the fits, and the run exits 1
//! without writing its results JSON.

use bench::{mean, rule, scale, sparse_instance, write_results_json};
use congest::Config;
use congest_diameter::crossover::{self, CrossKind};
use diameter_quantum::exact::{self, ExactParams};
use graphs::Graph;
use trace::Json;

/// Printed in place of a fit when failed points leave fewer than two.
const NO_FIT: &str = "no fit: fewer than two points remain";

fn main() {
    let scale = scale();
    let seeds_per_point = 5;
    let mut failed = 0;

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
    let n_max = sizes.iter().copied().max().unwrap_or(0);
    let mut ns = Vec::new();
    let mut diameters = Vec::new();
    let mut nds = Vec::new();
    let mut classical_rounds = Vec::new();
    let mut quantum_rounds = Vec::new();
    let mut n_rows = Vec::new();
    for &n in &sizes {
        let (g, cfg) = sparse_instance(n, 1);
        let d = graphs::metrics::diameter(&g).expect("connected");
        diameters.push(d);
        if let Err(reason) = near_constant_diameter(n_max, &diameters) {
            eprintln!("error: {reason}");
            std::process::exit(1);
        }
        let (c, c_active, c_scheduled, q) = match point(&g, cfg, seeds_per_point) {
            Ok(p) => p,
            Err(reason) => {
                println!("{n:>6} {d:>4} failed: {reason}");
                failed += 1;
                continue;
            }
        };
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
    let c_fit = crossover::loglog_fit(&ns, &classical_rounds);
    let q_fit = crossover::loglog_fit(&ns, &quantum_rounds);
    // Correct for the slow diameter growth of the sparse family by fitting
    // against n·D, the paper's actual scale variable.
    let nd_fit = crossover::loglog_fit(&nds, &quantum_rounds);
    if let (Some(c_fit), Some(q_fit), Some(nd_fit)) = (c_fit, q_fit, nd_fit) {
        let (c_slope, q_slope) = (c_fit.0, q_fit.0);
        println!("\nfitted exponents: classical {c_slope:.2} (paper: 1), quantum {q_slope:.2} (paper: 0.5 + D drift)");
        println!(
            "fitted quantum exponent against n·D: {:.2} (paper: 0.5, from √(nD))",
            nd_fit.0
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
    } else {
        println!("\n{NO_FIT}");
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
        let (c, c_active, c_scheduled, q) = match point(&g, cfg, seeds_per_point) {
            Ok(p) => p,
            Err(reason) => {
                println!("{n:>6} {d:>6} failed: {reason}");
                failed += 1;
                continue;
            }
        };
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
    let d_fit = crossover::loglog_fit(&ds, &q_by_d);
    match d_fit {
        Some((d_slope, _)) => {
            println!("\nfitted quantum exponent in D: {d_slope:.2} (paper: 0.5, from √(nD))");
        }
        None => println!("\n{NO_FIT}"),
    }
    println!("classical rounds stay Θ(n): the D column barely moves them.");

    if failed > 0 {
        eprintln!("error: {failed} point(s) failed; table1_exact.json not written");
        std::process::exit(1);
    }
    let slope = |fit: Option<(f64, f64)>| fit.map_or(Json::Null, |(s, _)| Json::Float(s));

    write_results_json(
        "table1_exact",
        Json::obj([
            ("experiment", Json::Str("table1_exact".into())),
            ("seeds_per_point", Json::Int(seeds_per_point as i128)),
            ("sweep_n", Json::Arr(n_rows)),
            ("classical_slope_in_n", slope(c_fit)),
            ("quantum_slope_in_n", slope(q_fit)),
            ("sweep_d", Json::Arr(d_rows)),
            ("quantum_slope_in_d", slope(d_fit)),
        ]),
    )
    .expect("write results JSON");
}

/// One table point on `g`: the classical baseline's rounds, active
/// fraction and scheduled nodes, then Theorem 1's mean rounds over seeds
/// `0..seeds`. The first driver that fails fails the point, named with its
/// seed and error.
fn point(g: &Graph, cfg: Config, seeds: u64) -> Result<(f64, f64, u64, f64), String> {
    let classical_run =
        classical::apsp::exact_diameter(g, cfg).map_err(|e| format!("classical: {e}"))?;
    let quantum = (0..seeds)
        .map(|s| {
            exact::diameter(g, ExactParams::new(s), cfg)
                .map(|run| run.rounds() as f64)
                .map_err(|e| format!("quantum seed {s}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        classical_run.rounds() as f64,
        classical_run.ledger.active_fraction(),
        classical_run.ledger.total_scheduled_nodes(),
        mean(&quantum),
    ))
}

/// The n-sweep's premise: `D` stays near-constant, so the fitted exponent
/// in `n` is Theorem 1's `√n` and not a mix of `√n` and `√D`. "Near" is at
/// most logarithmic drift — the diameter spread over the sweep may not
/// exceed log₂ of its largest `n`, `n_max`. Checked as each point's `D` is
/// known, so a sweep that breaks it stops before its expensive points.
fn near_constant_diameter(n_max: usize, diameters: &[graphs::Dist]) -> Result<(), String> {
    let (Some(&d_min), Some(&d_max)) = (diameters.iter().min(), diameters.iter().max()) else {
        return Ok(());
    };
    let limit = (n_max as f64).log2();
    if f64::from(d_max - d_min) > limit {
        return Err(format!(
            "the n-sweep's diameter is not near-constant: D spans {d_min}..={d_max} \
             (spread {}) but may drift by at most log2({n_max}) = {limit:.1}, so the \
             fitted exponent in n would mix sqrt(n) with sqrt(D)",
            d_max - d_min
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::near_constant_diameter;

    #[test]
    fn diameter_spread_is_bounded_by_log_n() {
        // The committed sweep: D 4..=8 up to n = 8192 (log2 = 13).
        assert!(near_constant_diameter(8192, &[4, 4, 5, 5, 6, 7, 8, 8]).is_ok());
        assert!(near_constant_diameter(8192, &[4, 17]).is_ok());
        // One more unit of spread trips it.
        let err = near_constant_diameter(8192, &[4, 18]).unwrap_err();
        assert!(err.contains("spread 14"), "{err}");
        assert!(near_constant_diameter(8192, &[]).is_ok());
    }
}
