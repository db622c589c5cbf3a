//! The final exact quantum diameter algorithm — **Theorem 1**
//! (Sections 3.2–3.3): `O(√(nD))` rounds, `O((log n)²)` qubits per node.
//!
//! Structure:
//!
//! * **Initialization** (Proposition 1, classical): elect a leader, build
//!   `BFS(leader)` (Figure 1), set `d = ecc(leader)` (so `d ≤ D ≤ 2d`).
//! * **Setup** (Proposition 2): distribute
//!   `(1/√n)·Σ_u |u⟩_leader ⊗_v |u⟩_v` by CNOT-copying the leader's
//!   register down the BFS tree — one broadcast schedule per application.
//! * **Evaluation** (Proposition 4 / Figure 2): compute
//!   `f(u₀) = max_{v ∈ S(u₀)} ecc(v)` over the `2d`-wide DFS window, in a
//!   fixed `Θ(d)` schedule.
//! * **Optimization** (Theorem 7): quantum maximum finding with
//!   `P_opt ≥ d/2n` (Lemma 1) — `Õ(√(n/d))` oracle calls of `Θ(d)` rounds
//!   each: `Õ(√(nd)) = Õ(√(nD))` rounds total.
//!
//! The branch values fed to the quantum simulation are the closed-form
//! window maxima ([`dfs_window`](crate::dfs_window)). The search and its
//! verification run in the body the three drivers share (see
//! [`framework`]): each run re-verifies a sample of branches (and the
//! reported maximum) against the *real* distributed Figure 2 program and
//! fails loudly on any disagreement. Initialization, the memory estimate
//! and the assembly of a [`DiameterRun`] are shared with the simpler
//! algorithm of Section 3.1 ([`exact_simple`](crate::exact_simple)).

use classical::bfs::{self, BfsOutcome};
use classical::recovery::{Healed, SurvivingComponent};
use classical::{leader, TreeView};
use congest::{Config, RecoveryStats, RoundsLedger};
use graphs::tree::{EulerTour, RootedTree};
use graphs::{metrics, Dist, Graph, NodeId};
use quantum::{MaximizeParams, OracleCost};

use crate::dfs_window::Windows;
use crate::evaluation;
use crate::framework::{self, DistributedOracle, Found, Instance, MemoryEstimate};
use crate::{recovery, QdError};

/// Parameters of the exact quantum algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactParams {
    /// Seed for the measurement randomness.
    pub seed: u64,
    /// Allowed failure probability `δ` (the paper runs at
    /// `1 − 1/poly(n)`; the default here is 0.01).
    pub failure_prob: f64,
    /// Number of random branches whose distributed Evaluation run is
    /// checked against the closed form (besides the reported maximum).
    pub verify_branches: usize,
}

impl ExactParams {
    /// Defaults: `δ = 0.01`, two verified branches.
    pub fn new(seed: u64) -> Self {
        ExactParams {
            seed,
            failure_prob: 0.01,
            verify_branches: 2,
        }
    }

    /// Replaces the failure probability.
    pub fn with_failure_prob(mut self, delta: f64) -> Self {
        self.failure_prob = delta;
        self
    }

    /// Replaces the number of verified branches.
    pub fn with_verify_branches(mut self, k: usize) -> Self {
        self.verify_branches = k;
        self
    }

    /// The search over `f` with this seed, `δ` and verification sample.
    pub(crate) fn instance<'a>(
        &self,
        f: &'a [Dist],
        schedule: DistributedOracle,
        probe_ledger: RoundsLedger,
        min_mass: f64,
    ) -> Instance<'a> {
        Instance {
            f,
            schedule,
            probe_ledger,
            params: MaximizeParams::with_min_mass(min_mass).with_failure_prob(self.failure_prob),
            seed: self.seed,
            verify_branches: self.verify_branches,
            label: "diameter",
        }
    }
}

/// Result of a quantum diameter computation.
#[derive(Clone, Debug)]
pub struct DiameterRun {
    /// The computed diameter (correct with probability `≥ 1 − δ`).
    pub value: Dist,
    /// The elected leader.
    pub leader: NodeId,
    /// `d = ecc(leader)`.
    pub d: Dist,
    /// The branch `u*` the optimization settled on (its window contains a
    /// maximum-eccentricity node).
    pub argmax: NodeId,
    /// Classical Initialization accounting (Proposition 1).
    pub init_ledger: RoundsLedger,
    /// Accounting of the *physical* probe and verification executions —
    /// the schedule-measuring Setup broadcast and Figure 2 runs, plus the
    /// sampled branch checks. These simulate real message passing (and
    /// therefore appear in traces) but are measurement scaffolding, not
    /// rounds the algorithm itself is charged: [`DiameterRun::rounds`]
    /// excludes them.
    pub probe_ledger: RoundsLedger,
    /// Oracle-call accounting of the quantum phase.
    pub oracle: OracleCost,
    /// Rounds of the quantum phase (Theorem 7 conversion with the measured
    /// per-operator schedules).
    pub quantum_rounds: u64,
    /// The measured per-operator schedules.
    pub oracle_schedule: DistributedOracle,
    /// Analytic per-node/leader qubit requirements.
    pub memory: MemoryEstimate,
    /// Whether the optimization hit its worst-case resource cap.
    pub aborted: bool,
    /// What healing the run cost; clean when it needed none.
    pub recovery: RecoveryStats,
    /// `Some` when crash-stops forced a re-root: the answer then refers
    /// to this component, and the node ids to its component-local ones.
    pub surviving: Option<SurvivingComponent>,
}

impl DiameterRun {
    /// Total rounds: Initialization plus the quantum phase.
    pub fn rounds(&self) -> u64 {
        self.init_ledger.total_rounds() + self.quantum_rounds
    }
}

impl Healed for DiameterRun {
    fn healing(&mut self) -> (&mut RecoveryStats, &mut Option<SurvivingComponent>) {
        (&mut self.recovery, &mut self.surviving)
    }
}

/// Computes the exact diameter with the `O(√(nD))`-round algorithm of
/// Theorem 1, healing detected faults per [`Config::recovery`] (see
/// [`recovery`]).
///
/// # Errors
///
/// Returns [`QdError::Classical`] on disconnected graphs, simulator
/// failures or faults no permitted recovery heals, and
/// [`QdError::VerificationFailed`] if the distributed Evaluation disagrees
/// with the closed form (a bug in a fault-free run).
///
/// See the [crate-level example](crate), and the README for a crash
/// healed under the standard policy.
pub fn diameter(
    graph: &Graph,
    params: ExactParams,
    config: Config,
) -> Result<DiameterRun, QdError> {
    recovery::healed(graph, config, recovery::EXACT, |g, c| attempt(g, params, c))
}

/// One attempt of [`diameter`].
fn attempt(graph: &Graph, params: ExactParams, config: Config) -> Result<DiameterRun, QdError> {
    let n = graph.len() as f64;
    let mass = |d: Dist| f64::from(d).max(1.0) / (2.0 * n);
    run(graph, config, "exact", mass, |b, eccs| {
        let d = b.depth;
        let tree = TreeView::from(b);
        // Branch function f(u) = max_{v ∈ S(u)} ecc(v), closed form.
        let rooted =
            RootedTree::from_parents(&b.parents).map_err(|e| QdError::InvalidParameter {
                reason: e.to_string(),
            })?;
        let tour = EulerTour::new(&rooted);
        let f = Windows::new(&tour, 2 * d as usize).window_max(&eccs);

        let (schedule, probe_ledger) = framework::probe(graph, &tree, &tree, d, b.root, config)?;
        debug_assert_eq!(
            2 * schedule.evaluation_rounds,
            evaluation::figure2_schedule_rounds(d, d)
        );
        // P_opt ≥ d/2n (Lemma 1).
        let min_mass = (f64::from(d) / (2.0 * n)).clamp(1.0 / n, 1.0);
        params
            .instance(&f, schedule, probe_ledger, min_mass)
            .search_and_verify(|u, ledger| {
                let run = evaluation::run_figure2(graph, &tree, d, NodeId::new(u), config)?;
                ledger.extend_prefixed(&format!("verify u={u}: "), &run.ledger);
                Ok(run.value)
            })
    })
}

/// The run Theorem 1 and Section 3.1 share: Initialization (Proposition 1:
/// leader, `BFS(leader)`, `d = ecc(leader)`) under the profiler span
/// `span/init`, the memory estimate at optimum mass `mass(d)`, then the
/// quantum phase `search` computes from `BFS(leader)` and the closed-form
/// eccentricities, which a single-node graph skips.
pub(crate) fn run(
    graph: &Graph,
    config: Config,
    span: &str,
    mass: impl FnOnce(Dist) -> f64,
    search: impl FnOnce(&BfsOutcome, Vec<Dist>) -> Result<Found, QdError>,
) -> Result<DiameterRun, QdError> {
    let n = framework::nodes(graph)?;
    let _driver_span = ::metrics::span(span);
    let mut init_ledger = RoundsLedger::new();
    let init_span = ::metrics::span("init");
    let elect = leader::elect(graph, config)?;
    init_ledger.add("leader election", elect.stats);
    let b = bfs::build(graph, elect.leader, config)?;
    init_ledger.add("bfs(leader) [Figure 1]", b.stats);
    drop(init_span);
    let d = b.depth;

    let memory = framework::memory_estimate(n, n, mass(d));
    framework::emit_memory(&memory);
    let found = if n == 1 || d == 0 {
        Found::default()
    } else {
        let eccs = metrics::eccentricities(graph)
            .ok_or(QdError::Classical(classical::AlgoError::Disconnected))?;
        search(&b, eccs)?
    };
    Ok(DiameterRun {
        value: found.opt.value as Dist,
        leader: elect.leader,
        d,
        argmax: NodeId::new(found.opt.argmax),
        init_ledger,
        probe_ledger: found.probe_ledger,
        oracle: found.opt.oracle,
        quantum_rounds: found.opt.quantum_rounds,
        oracle_schedule: found.schedule,
        memory,
        aborted: found.opt.aborted,
        recovery: RecoveryStats::default(),
        surviving: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    fn check(g: &Graph, seed: u64) -> DiameterRun {
        let out = diameter(
            g,
            ExactParams::new(seed).with_failure_prob(1e-3),
            Config::for_graph(g),
        )
        .unwrap();
        assert_eq!(
            out.value,
            metrics::diameter(g).unwrap(),
            "diameter mismatch"
        );
        out
    }

    #[test]
    fn correct_on_families() {
        for g in [
            generators::path(20),
            generators::cycle(15),
            generators::complete(8),
            generators::star(9),
            generators::grid(4, 5),
            generators::balanced_tree(2, 4),
            generators::barbell(5, 8),
            generators::lollipop(5, 10),
            generators::hypercube(4),
        ] {
            check(&g, 3);
        }
    }

    #[test]
    fn correct_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::random_connected(40, 0.08, seed);
            check(&g, seed + 10);
        }
        for seed in 0..3 {
            let g = generators::random_tree(32, seed);
            check(&g, seed + 20);
        }
    }

    #[test]
    fn tiny_graphs() {
        let g1 = Graph::from_edges(1, []).unwrap();
        let out = diameter(&g1, ExactParams::new(0), Config::for_graph(&g1)).unwrap();
        assert_eq!(out.value, 0);
        assert_eq!(out.rounds(), out.init_ledger.total_rounds());
        let g2 = Graph::from_edges(2, [(0, 1)]).unwrap();
        let out = diameter(&g2, ExactParams::new(0), Config::for_graph(&g2)).unwrap();
        assert_eq!(out.value, 1);
    }

    #[test]
    fn disconnected_fails() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            diameter(&g, ExactParams::new(0), Config::for_graph(&g)),
            Err(QdError::Classical(classical::AlgoError::Disconnected))
        ));
    }

    /// Each distinct branch is verified exactly once, by each of the three
    /// drivers: with more sampled branches than nodes, collisions (with
    /// each other or with the winner) are guaranteed, yet no `verify u=`
    /// ledger phase may repeat — a duplicate would re-run an identical
    /// Evaluation and double-charge the ledger.
    #[test]
    fn verification_branches_are_deduplicated() {
        use std::collections::HashSet;
        let g = generators::cycle(6);
        let cfg = Config::for_graph(&g);
        let params = ExactParams::new(3).with_verify_branches(12);
        let approx = crate::approx::ApproxParams {
            verify_branches: 12,
            ..crate::approx::ApproxParams::new(3)
        };
        for (driver, ledger) in [
            ("exact", diameter(&g, params, cfg).unwrap().probe_ledger),
            (
                "exact_simple",
                crate::exact_simple::diameter(&g, params, cfg)
                    .unwrap()
                    .probe_ledger,
            ),
            (
                "approx",
                crate::approx::diameter(&g, approx, cfg)
                    .unwrap()
                    .probe_ledger,
            ),
        ] {
            let mut seen = HashSet::new();
            let mut prefixes = HashSet::new();
            for (label, _, _) in ledger.phases() {
                let Some(rest) = label.strip_prefix("verify u=") else {
                    continue;
                };
                let branch = rest.split(':').next().unwrap().to_string();
                prefixes.insert(branch);
                assert!(
                    seen.insert(label.to_string()),
                    "{driver}: duplicate phase {label}"
                );
            }
            assert!(!prefixes.is_empty(), "{driver}: no verification phases");
            assert!(
                prefixes.len() <= g.len(),
                "{driver}: more distinct branches than nodes"
            );
        }
    }

    /// The headline claim: at (near-)constant diameter, quantum rounds grow
    /// like √n while the classical baseline grows like n — so their ratio
    /// must widen with n.
    #[test]
    fn beats_classical_baseline_at_scale() {
        let g_small = generators::random_connected(30, 0.25, 1);
        let g_big = generators::random_connected(120, 0.08, 1);
        for (g, label) in [(&g_small, "small"), (&g_big, "big")] {
            let q = check(g, 7);
            let c = classical::apsp::exact_diameter(g, Config::for_graph(g)).unwrap();
            assert_eq!(q.value, c.diameter, "{label}");
        }
        let q_small = check(&g_small, 7).rounds() as f64;
        let q_big = check(&g_big, 7).rounds() as f64;
        let c_small = classical::apsp::exact_diameter(&g_small, Config::for_graph(&g_small))
            .unwrap()
            .rounds() as f64;
        let c_big = classical::apsp::exact_diameter(&g_big, Config::for_graph(&g_big))
            .unwrap()
            .rounds() as f64;
        let q_growth = q_big / q_small;
        let c_growth = c_big / c_small;
        assert!(
            q_growth < c_growth,
            "quantum growth {q_growth} should undercut classical growth {c_growth}"
        );
    }

    #[test]
    fn memory_stays_polylogarithmic() {
        let g = generators::random_connected(100, 0.08, 2);
        let out = check(&g, 5);
        assert!(out.memory.per_node_qubits < 100);
        assert!(out.memory.leader_qubits < 400);
        assert!(out.memory.leader_qubits < g.len() * 4);
    }

    #[test]
    fn schedule_matches_figure2_formula() {
        let g = generators::grid(5, 5);
        let out = check(&g, 11);
        assert_eq!(
            2 * out.oracle_schedule.evaluation_rounds,
            evaluation::figure2_schedule_rounds(out.d, out.d)
        );
        // Setup is one broadcast: depth + 1 rounds.
        assert_eq!(out.oracle_schedule.setup_rounds, u64::from(out.d) + 1);
    }
}
