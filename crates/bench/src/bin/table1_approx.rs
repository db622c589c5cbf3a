//! **Table 1, row "3/2-approximation"**: classical `Õ(√n + D)` (LP13/
//! HPRW14) vs quantum `Õ(∛(nD) + D)` (Theorem 4).
//!
//! Sweeps `n` at near-constant `D`, fits the growth exponents (paper: 0.5
//! vs 1/3), and verifies the `⌊2D/3⌋ ≤ D̄ ≤ D` guarantee on every run.

use bench::{mean, rule, scale, sparse_instance, write_results_json};
use classical::hprw::{self, HprwParams};
use congest_diameter::crossover;
use diameter_quantum::approx::{self, ApproxParams};
use trace::Json;

fn main() {
    let scale = scale();
    let seeds = 5;

    rule("Table 1 / 3/2-approximation: rounds vs n (sparse, D ≈ constant)");
    println!(
        "{:>6} {:>4} {:>10} {:>12} {:>12} {:>14} {:>6}",
        "n", "D", "exact(n)", "classical", "quantum", "quantum prep", "s"
    );
    let sizes: Vec<usize> = [96, 192, 384, 768, 1536]
        .iter()
        .map(|&n| n * scale)
        .collect();
    let (mut ns, mut cs, mut qs) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for &n in &sizes {
        let (g, cfg) = sparse_instance(n, 3);
        let d = graphs::metrics::diameter(&g).expect("connected");
        let exact_rounds = classical::apsp::exact_diameter(&g, cfg)
            .expect("classical exact")
            .rounds();

        let mut c_rounds = Vec::new();
        let mut c_active = Vec::new();
        let mut c_scheduled = Vec::new();
        let mut q_rounds = Vec::new();
        let mut q_prep = Vec::new();
        let mut s_used = 0;
        for seed in 0..seeds {
            let c = hprw::approx_diameter(&g, HprwParams::classical(n, seed), cfg)
                .expect("classical approx");
            assert!(
                c.estimate <= d && c.estimate >= (2 * d) / 3,
                "classical guarantee"
            );
            c_rounds.push(c.rounds() as f64);
            c_active.push(c.ledger.active_fraction());
            c_scheduled.push(c.ledger.total_scheduled_nodes() as f64);
            let q = approx::diameter(&g, ApproxParams::new(seed), cfg).expect("quantum approx");
            assert!(
                q.estimate <= d && q.estimate >= (2 * d) / 3,
                "quantum guarantee"
            );
            q_rounds.push(q.rounds() as f64);
            q_prep.push(q.prep_ledger.total_rounds() as f64);
            s_used = q.s;
        }
        let (c, q, prep) = (mean(&c_rounds), mean(&q_rounds), mean(&q_prep));
        println!(
            "{:>6} {:>4} {:>10} {:>12.0} {:>12.0} {:>14.0} {:>6}",
            n, d, exact_rounds, c, q, prep, s_used
        );
        ns.push(n as f64);
        cs.push(c);
        qs.push(q);
        rows.push(Json::obj([
            ("n", Json::Int(n as i128)),
            ("d", Json::Int(i128::from(d))),
            ("exact_classical_rounds", Json::Int(exact_rounds as i128)),
            ("classical_approx_rounds_mean", Json::Float(c)),
            ("quantum_approx_rounds_mean", Json::Float(q)),
            ("quantum_prep_rounds_mean", Json::Float(prep)),
            ("s", Json::Int(s_used as i128)),
            (
                "classical_active_fraction_mean",
                Json::Float(mean(&c_active)),
            ),
            (
                "classical_scheduled_nodes_mean",
                Json::Float(mean(&c_scheduled)),
            ),
        ]));
    }
    let c_slope = crossover::loglog_fit(&ns, &cs).expect("classical fit").0;
    let q_slope = crossover::loglog_fit(&ns, &qs).expect("quantum fit").0;
    println!(
        "\nfitted exponents: classical approx {c_slope:.2} (paper: 0.5), quantum approx {q_slope:.2} (paper: 1/3 + D drift)"
    );
    println!("both rows sit far below the exact Θ(n) baseline; the quantum curve is");
    println!("flatter in n, as the ∛(nD) term predicts (its constant is larger — the");
    println!("real amplitude-amplification overhead the paper's Õ hides).");

    write_results_json(
        "table1_approx",
        Json::obj([
            ("experiment", Json::Str("table1_approx".into())),
            ("seeds_per_point", Json::Int(seeds as i128)),
            ("sweep_n", Json::Arr(rows)),
            ("classical_slope_in_n", Json::Float(c_slope)),
            ("quantum_slope_in_n", Json::Float(q_slope)),
        ]),
    )
    .expect("write results JSON");
}
