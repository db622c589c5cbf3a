//! The simpler exact quantum algorithm of **Section 3.1**: `O(√n · D)`
//! rounds.
//!
//! Here the optimized function is plainly `f(u) = ecc(u)` (Equation 1), so
//! `P_opt ≥ 1/n` and the optimization needs `Õ(√n)` oracle calls of `Θ(d)`
//! rounds each — a factor `√D` worse than the windowed algorithm of
//! Theorem 1 ([`exact`]). Keeping both makes the paper's key
//! design choice (the DFS windows of Section 3.2) an *ablatable* knob; the
//! `ablation_window` bench measures exactly this gap.
//!
//! The Evaluation operator (Proposition 3) builds a BFS tree from `u₀` and
//! convergecasts the maximum distance. Its raw round count would depend on
//! `ecc(u₀)` — a branch-dependent quantity — so the superposed execution
//! pads every branch to the worst case `ecc(u₀) ≤ 2d`, which is what the
//! schedule below charges.
//!
//! Initialization and the assembly of the run are
//! [`exact`]'s; the search and its verification are the body
//! the three drivers share ([`framework`](crate::framework)). This module
//! supplies only `f` and the Proposition 3 Evaluation that verifies it.

use classical::bfs::BfsOutcome;
use classical::ecc;
use congest::{Config, RoundsLedger};
use graphs::{Dist, Graph, NodeId};

use crate::exact::{self, DiameterRun, ExactParams};
use crate::framework::DistributedOracle;
use crate::{recovery, QdError};

/// The padded round schedule of one *forward* Proposition-3 Evaluation: a
/// BFS from `u₀` (worst case `2d + 2` rounds) plus a convergecast (worst
/// case `2d + 1`). The uncompute pass is the inverse application, charged
/// separately by [`quantum::OracleCost`].
pub fn simple_schedule_rounds(d: Dist) -> u64 {
    let d = u64::from(d);
    (2 * d + 2) + (2 * d + 1)
}

/// Computes the exact diameter with the `O(√n · D)`-round algorithm of
/// Section 3.1, healing detected faults per [`Config::recovery`].
///
/// # Errors
///
/// As for [`exact::diameter`].
///
/// # Example
///
/// ```
/// use diameter_quantum::{exact::ExactParams, exact_simple};
/// use congest::Config;
/// use graphs::generators;
///
/// let g = generators::grid(4, 4);
/// let out = exact_simple::diameter(&g, ExactParams::new(1), Config::for_graph(&g))?;
/// assert_eq!(out.value, 6);
/// # Ok::<(), diameter_quantum::QdError>(())
/// ```
pub fn diameter(
    graph: &Graph,
    params: ExactParams,
    config: Config,
) -> Result<DiameterRun, QdError> {
    recovery::healed(graph, config, recovery::SIMPLE, |g, c| {
        attempt(g, params, c)
    })
}

/// One attempt of [`diameter`].
fn attempt(graph: &Graph, params: ExactParams, config: Config) -> Result<DiameterRun, QdError> {
    let n = graph.len() as f64;
    // Branch function f(u) = ecc(u) (Equation 1). The schedule is analytic
    // (no probes): traffic constants stay zero, so the crossover engine
    // treats the simple algorithm's qubit traffic as unmeasured rather than
    // inventing numbers, and the probe ledger holds only the verification
    // runs.
    let search = |b: &BfsOutcome, eccs: Vec<Dist>| {
        let d = b.depth;
        let schedule = DistributedOracle::from_rounds(u64::from(d) + 1, simple_schedule_rounds(d));
        params
            .instance(&eccs, schedule, RoundsLedger::new(), 1.0 / n)
            .search_and_verify(|u, ledger| {
                // Proposition 3: BFS from u plus a max convergecast.
                let run = ecc::compute(graph, NodeId::new(u), config)?;
                ledger.add(format!("verify u={u}: ecc [Prop 3]"), run.stats);
                Ok(run.ecc)
            })
    };
    exact::run(graph, config, "simple", |_| 1.0 / n, search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, metrics};

    fn check(g: &Graph, seed: u64) -> DiameterRun {
        let out = diameter(
            g,
            ExactParams::new(seed).with_failure_prob(1e-3),
            Config::for_graph(g),
        )
        .unwrap();
        assert_eq!(out.value, metrics::diameter(g).unwrap());
        out
    }

    #[test]
    fn correct_on_families_and_random_graphs() {
        for g in [
            generators::path(18),
            generators::cycle(14),
            generators::star(8),
            generators::grid(4, 4),
            generators::lollipop(5, 9),
        ] {
            check(&g, 2);
        }
        for seed in 0..4 {
            let g = generators::random_connected(36, 0.1, seed);
            check(&g, seed);
        }
    }

    #[test]
    fn argmax_is_a_peripheral_node() {
        let g = generators::lollipop(6, 10);
        let eccs = metrics::eccentricities(&g).unwrap();
        let d = metrics::diameter(&g).unwrap();
        let out = check(&g, 9);
        assert_eq!(
            eccs[out.argmax.index()],
            d,
            "argmax must have maximum eccentricity"
        );
    }

    /// The window trick of Section 3.2 buys a √D factor: on a path (D = n−1)
    /// the final algorithm's evaluation count times schedule must beat the
    /// simple algorithm by a growing margin.
    #[test]
    fn final_algorithm_wins_on_high_diameter() {
        let g = generators::path(60);
        let cfg = Config::for_graph(&g);
        let simple: u64 = (0..5).map(|s| check(&g, s).quantum_rounds).sum::<u64>() / 5;
        let windowed: u64 = (0..5)
            .map(|s| {
                crate::exact::diameter(&g, ExactParams::new(s).with_failure_prob(1e-3), cfg)
                    .unwrap()
                    .quantum_rounds
            })
            .sum::<u64>()
            / 5;
        assert!(
            windowed * 2 < simple,
            "windowed {windowed} rounds should be well below simple {simple}"
        );
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        let out = diameter(&g, ExactParams::new(0), Config::for_graph(&g)).unwrap();
        assert_eq!(out.value, 0);
    }
}
