//! **Table 1, row "3/2-approximation"**: classical `Õ(√n + D)` (LP13/
//! HPRW14) vs quantum `Õ(∛(nD) + D)` (Theorem 4).
//!
//! Sweeps `n` at near-constant `D`, fits the growth exponents (paper: 0.5
//! vs 1/3, and 1/3 for the quantum rounds against `n·D`), and verifies the
//! `⌊2D/3⌋ ≤ D̄ ≤ D` guarantee on every run.
//!
//! Under an injected fault plan (`QD_FAULTS`, healed under `QD_RECOVER`) a
//! driver may fail or miss the guarantee: its point prints as a `failed`
//! row naming the driver, seed and error, stays out of the fits, and the
//! run exits 1 without writing its results JSON.

use bench::{mean, rule, scale, sparse_instance, write_results_json, NO_FIT};
use classical::hprw::{self, HprwParams};
use congest::Config;
use congest_diameter::crossover;
use diameter_quantum::approx::{self, ApproxParams};
use graphs::{Dist, Graph};
use trace::Json;

fn main() {
    let scale = scale();
    let seeds = 5;
    let mut failed = 0;

    rule("Table 1 / 3/2-approximation: rounds vs n (sparse, D ≈ constant)");
    println!(
        "{:>6} {:>4} {:>10} {:>12} {:>12} {:>14} {:>6}",
        "n", "D", "exact(n)", "classical", "quantum", "quantum prep", "s"
    );
    let sizes: Vec<usize> = [96, 192, 384, 768, 1536]
        .iter()
        .map(|&n| n * scale)
        .collect();
    let (mut ns, mut nds, mut cs, mut qs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for &n in &sizes {
        let (g, cfg) = sparse_instance(n, 3);
        let d = graphs::metrics::diameter(&g).expect("connected");
        let p = match point(&g, cfg, d, seeds) {
            Ok(p) => p,
            Err(reason) => {
                println!("{n:>6} {d:>4} failed: {reason}");
                failed += 1;
                continue;
            }
        };
        println!(
            "{:>6} {:>4} {:>10} {:>12.0} {:>12.0} {:>14.0} {:>6}",
            n, d, p.exact_rounds, p.classical, p.quantum, p.prep, p.s
        );
        ns.push(n as f64);
        nds.push(n as f64 * f64::from(d));
        cs.push(p.classical);
        qs.push(p.quantum);
        rows.push(Json::obj([
            ("n", Json::Int(n as i128)),
            ("d", Json::Int(i128::from(d))),
            ("exact_classical_rounds", Json::Int(p.exact_rounds as i128)),
            ("classical_approx_rounds_mean", Json::Float(p.classical)),
            ("quantum_approx_rounds_mean", Json::Float(p.quantum)),
            ("quantum_prep_rounds_mean", Json::Float(p.prep)),
            ("s", Json::Int(p.s as i128)),
            ("classical_active_fraction_mean", Json::Float(p.c_active)),
            ("classical_scheduled_nodes_mean", Json::Float(p.c_scheduled)),
        ]));
    }
    let c_fit = crossover::loglog_fit(&ns, &cs);
    let q_fit = crossover::loglog_fit(&ns, &qs);
    // Against n·D, the paper's scale variable, the D drift drops out.
    let nd_fit = crossover::loglog_fit(&nds, &qs);
    if let (Some(c_slope), Some(q_slope), Some(nd_slope)) = (c_fit, q_fit, nd_fit) {
        println!(
            "\nfitted exponents: classical approx {c_slope:.2} (paper: 0.5), quantum approx {q_slope:.2} (paper: 1/3 + D drift)"
        );
        println!("fitted quantum exponent against n·D: {nd_slope:.2} (paper: 1/3, from ∛(nD))");
    } else {
        println!("\n{NO_FIT}");
    }
    println!("both rows sit far below the exact Θ(n) baseline; the quantum curve is");
    println!("flatter in n, as the ∛(nD) term predicts (its constant is larger — the");
    println!("real amplitude-amplification overhead the paper's Õ hides).");

    if failed > 0 {
        eprintln!("error: {failed} point(s) failed; table1_approx.json not written");
        std::process::exit(1);
    }
    let slope = |fit: Option<f64>| fit.map_or(Json::Null, Json::Float);
    write_results_json(
        "table1_approx",
        Json::obj([
            ("experiment", Json::Str("table1_approx".into())),
            ("seeds_per_point", Json::Int(seeds as i128)),
            ("sweep_n", Json::Arr(rows)),
            ("classical_slope_in_n", slope(c_fit)),
            ("quantum_slope_in_n", slope(q_fit)),
        ]),
    )
    .expect("write results JSON");
}

/// One table point: the exact classical baseline's rounds, then the means
/// over seeds of both approximations.
struct Point {
    exact_rounds: u64,
    classical: f64,
    quantum: f64,
    prep: f64,
    /// Theorem 4's `s` on the last seed.
    s: usize,
    c_active: f64,
    c_scheduled: f64,
}

/// One table point on `g` (diameter `d`) over seeds `0..seeds`. The first
/// driver that fails, or that misses the `⌊2D/3⌋ ≤ D̄ ≤ D` guarantee,
/// fails the point, named with its seed and error.
fn point(g: &Graph, cfg: Config, d: Dist, seeds: u64) -> Result<Point, String> {
    let exact_rounds = classical::apsp::exact_diameter(g, cfg)
        .map_err(|e| format!("classical exact: {e}"))?
        .rounds();
    let guarantee = |driver: &str, seed: u64, estimate: Dist| {
        if estimate <= d && estimate >= (2 * d) / 3 {
            Ok(())
        } else {
            Err(format!(
                "{driver} seed {seed}: estimate {estimate} misses the guarantee for D = {d}"
            ))
        }
    };
    let (mut c_rounds, mut c_active, mut c_scheduled) = (Vec::new(), Vec::new(), Vec::new());
    let (mut q_rounds, mut q_prep, mut s) = (Vec::new(), Vec::new(), 0);
    for seed in 0..seeds {
        let c = hprw::approx_diameter(g, HprwParams::classical(g.len(), seed), cfg)
            .map_err(|e| format!("classical approx seed {seed}: {e}"))?;
        guarantee("classical approx", seed, c.estimate)?;
        c_rounds.push(c.rounds() as f64);
        c_active.push(c.ledger.active_fraction());
        c_scheduled.push(c.ledger.total_scheduled_nodes() as f64);
        let q = approx::diameter(g, ApproxParams::new(seed), cfg)
            .map_err(|e| format!("quantum approx seed {seed}: {e}"))?;
        guarantee("quantum approx", seed, q.estimate)?;
        q_rounds.push(q.rounds() as f64);
        q_prep.push(q.prep_ledger.total_rounds() as f64);
        s = q.s;
    }
    Ok(Point {
        exact_rounds,
        classical: mean(&c_rounds),
        quantum: mean(&q_rounds),
        prep: mean(&q_prep),
        s,
        c_active: mean(&c_active),
        c_scheduled: mean(&c_scheduled),
    })
}
