//! **Figure 3 / Theorem 4**: the two phases of the quantum
//! `3/2`-approximation — classical preparation at `Õ(n/s + D)` rounds and
//! quantum optimization at `Õ(√(sD) + D)` — and the cluster-size trade-off
//! that `s = Θ(n^{2/3} D^{-1/3})` balances.

use bench::{rule, scale};
use congest_diameter::crossover;
use diameter_quantum::approx::{self, ApproxParams};

fn main() {
    let scale = scale();
    let n = 512 * scale;
    let g = graphs::generators::random_sparse(n, 8.0, 9);
    let cfg = bench::config_for(&g);
    let d = graphs::metrics::diameter(&g).expect("connected");

    rule("Figure 3: phase costs across the cluster-size sweep");
    println!(
        "n = {n}, D = {d}, paper's s* = {}",
        approx::paper_cluster_size(n, d)
    );
    println!(
        "{:>6} {:>14} {:>16} {:>12} {:>8}",
        "s", "prep rounds", "quantum rounds", "total", "D̄ ok?"
    );
    let mut ss = Vec::new();
    let mut quantum_phase = Vec::new();
    for &s in &[2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
        let s = (s * scale).min(n);
        let out = approx::diameter(&g, ApproxParams::new(4).with_s(s), cfg).expect("approx");
        let ok = out.estimate <= d && out.estimate >= (2 * d) / 3;
        println!(
            "{:>6} {:>14} {:>16} {:>12} {:>8}",
            s,
            out.prep_ledger.total_rounds(),
            out.quantum_rounds,
            out.rounds(),
            if ok { "yes" } else { "NO" }
        );
        assert!(ok, "guarantee violated at s = {s}");
        if s >= 4 {
            ss.push(s as f64);
            quantum_phase.push(out.quantum_rounds.max(1) as f64);
        }
    }
    let slope = crossover::loglog_fit(&ss, &quantum_phase)
        .expect("quantum-phase fit")
        .0;
    println!("\nfitted quantum-phase exponent in s: {slope:.2} (paper: 0.5, from √(sD)).");
    println!("the preparation cost is dominated by its Õ(D) aggregations at these n");
    println!("(the n/s term needs n ≫ s·D to dominate), so with real constants the");
    println!("best total sits at smaller s than the asymptotic balance point — the");
    println!("constant-vs-asymptotics gap the paper's Õ(·) conceals.");
}
