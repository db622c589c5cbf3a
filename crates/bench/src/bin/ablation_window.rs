//! **Ablation (Section 3.1 vs 3.2)**: what the DFS-window trick buys.
//!
//! The simple algorithm optimizes `f(u) = ecc(u)` with `P_opt ≥ 1/n`
//! (`O(√n · D)` rounds); the final algorithm optimizes the window maximum
//! with `P_opt ≥ d/2n` (`O(√(nD))` rounds). Their ratio should grow like
//! `√D` — the paper's central algorithmic idea, isolated.

use bench::{mean, rule, scale};
use congest_diameter::crossover;
use diameter_quantum::exact::ExactParams;
use diameter_quantum::{exact, exact_simple};

fn main() {
    let scale = scale();
    let seeds = 5;

    rule("ablation: windowed (Thm 1) vs simple (§3.1), sweeping D at fixed n");
    println!(
        "{:>6} {:>6} {:>16} {:>16} {:>10}",
        "n", "D", "simple rounds", "windowed rounds", "ratio"
    );
    let n = 256 * scale;
    let mut ds = Vec::new();
    let mut ratios = Vec::new();
    for &target in &[8usize, 16, 32, 64, 128] {
        let (g, d) = bench::dialed_diameter_instance(n, target, 11);
        let cfg = bench::config_for(&g);
        let simple = mean(
            &(0..seeds)
                .map(|s| {
                    exact_simple::diameter(&g, ExactParams::new(s), cfg)
                        .expect("simple")
                        .quantum_rounds as f64
                })
                .collect::<Vec<_>>(),
        );
        let windowed = mean(
            &(0..seeds)
                .map(|s| {
                    exact::diameter(&g, ExactParams::new(s), cfg)
                        .expect("windowed")
                        .quantum_rounds as f64
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "{:>6} {:>6} {:>16.0} {:>16.0} {:>10.2}",
            n,
            d,
            simple,
            windowed,
            simple / windowed
        );
        ds.push(d as f64);
        ratios.push(simple / windowed);
    }
    let slope = crossover::loglog_fit(&ds, &ratios).expect("ratio fit");
    println!("\nfitted exponent of the simple/windowed ratio in D: {slope:.2} (paper: 0.5)");
    println!("— the window trick converts a √n·√D gap into √(n·D), i.e. wins a √D");
    println!("factor that grows with the diameter, exactly Section 3.2's point.");
}
