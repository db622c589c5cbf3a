//! Classical exact diameter in `O(n)` rounds (PRT12 / HW12) — the classical
//! column of **Table 1, row 1**.
//!
//! The algorithm is the full-network version of the paper's Figure 2:
//!
//! 1. elect a leader and build `BFS(leader)` (Figure 1), `O(D)` rounds;
//! 2. run a DFS token over the whole tree, assigning every node its tour
//!    position `τ(v)` (Definition 1), `2(n−1)` rounds;
//! 3. start a BFS wave from *every* node `v` at round `2τ(v)`; by Lemmas
//!    2–4 the waves pipeline without congestion, and after
//!    `4(n−1) + D` rounds every node `v` knows `max_u d(u, v)`;
//! 4. convergecast the maximum to the leader: the diameter.
//!
//! Total: `Θ(n)` rounds — matching the classical upper bound of [HW12,
//! PRT12] that the quantum algorithm of Theorem 1 beats.

use congest::{bits, Config, RecoveryStats, RoundsLedger, RunStats};
use graphs::{Dist, Graph, NodeId};

use crate::aggregate::{self, Op};
use crate::bfs;
use crate::dfs_walk;
use crate::error::AlgoError;
use crate::leader;
use crate::recovery::{checkpointed_waves, heal, Healed, RetryScope, SurvivingComponent};
use crate::tree_view::TreeView;
use crate::waves;

/// Result of the classical exact-diameter algorithm.
#[derive(Clone, Debug)]
pub struct ExactDiameterOutcome {
    /// The exact diameter (the maximum eccentricity).
    pub diameter: Dist,
    /// The exact radius (the minimum eccentricity) — the wave phase gives
    /// it to the leader for one extra convergecast.
    pub radius: Dist,
    /// Every node's eccentricity, as known locally after the wave phase
    /// (`max_u d(u, v) = ecc(v)` since the graph is undirected).
    pub eccentricities: Vec<Dist>,
    /// The elected leader that learned the answer.
    pub leader: NodeId,
    /// Per-phase round/bit accounting, after the derived spans of any
    /// discarded attempts (see [`heal`]).
    pub ledger: RoundsLedger,
    /// Retries, restarts, retransmissions, re-roots and the work wasted
    /// by discarded attempts; [`RecoveryStats::is_clean`] when the run
    /// needed no healing.
    pub recovery: RecoveryStats,
    /// `Some` when crash-stops forced a re-root: the answer then refers
    /// to this component, and the leader and eccentricities are indexed
    /// by its component-local ids.
    pub surviving: Option<SurvivingComponent>,
}

impl Healed for ExactDiameterOutcome {
    fn healing(&mut self) -> (&mut RecoveryStats, &mut Option<SurvivingComponent>) {
        (&mut self.recovery, &mut self.surviving)
    }
}

impl ExactDiameterOutcome {
    /// Total rounds across all phases.
    pub fn rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }
}

/// The closed-form round count of [`exact_diameter`] on an `n`-node network
/// whose elected leader has eccentricity `depth`:
/// election + BFS (`O(depth)` each) + DFS tour (`2(n−1) + 1`) + waves
/// (`4(n−1) + depth + 2`) + convergecast (`depth + 1`).
///
/// Every phase schedule is deterministic, so this *predicts* real runs
/// exactly up to the `O(depth)` election term (validated by tests within a
/// `±(depth + 3)` window). Experiments use it to extend the classical
/// baseline to sizes where executing `Θ(n·m)` message deliveries is
/// impractical.
pub fn predicted_rounds(n: u64, depth: u64) -> u64 {
    if n <= 1 {
        return predicted_rounds(2, depth).min(8);
    }
    let election = depth + 2;
    let bfs = depth + 2;
    let dfs = 2 * (n - 1) + 1;
    let waves = 4 * (n - 1) + depth + 2;
    let convergecast = depth + 1;
    election + bfs + dfs + waves + convergecast
}

/// The driver's whole-pipeline retries.
const PIPELINE: RetryScope = RetryScope {
    scope: 0xA11,
    label: "classical-apsp",
};

/// Computes the exact diameter in `O(n)` rounds, healing detected faults
/// per [`Config::recovery`].
///
/// With the passive [`RecoveryPolicy`](congest::RecoveryPolicy) (the
/// default) the driver is fail-stop: the first detected fault is the
/// answer. With [`RecoveryPolicy::standard`](congest::RecoveryPolicy::standard)
/// it retries under reseeded fault plans, retransmits tree messages,
/// restarts dropped waves from checkpoint boundaries, and — when the plan
/// crash-stops nodes — returns the diameter of the largest surviving
/// component instead of [`AlgoError::FaultDetected`].
///
/// # Errors
///
/// Returns [`AlgoError::Disconnected`] on disconnected graphs (the diameter
/// is infinite), [`AlgoError::FaultDetected`] when every permitted
/// recovery avenue is exhausted, or a wrapped simulator error.
///
/// # Example
///
/// ```
/// use classical::apsp;
/// use congest::Config;
/// use graphs::generators;
///
/// let g = generators::grid(3, 5);
/// let out = apsp::exact_diameter(&g, Config::for_graph(&g))?;
/// assert_eq!(out.diameter, 6);
/// # Ok::<(), classical::AlgoError>(())
/// ```
///
/// Node 9 of a 10-path crash-stops at round 0. Under the passive policy
/// the driver aborts; under the standard one it re-roots onto the
/// surviving 9-path:
///
/// ```
/// use classical::apsp;
/// use congest::{Config, FaultPlan, RecoveryPolicy};
/// use graphs::generators;
///
/// let g = generators::path(10);
/// let cfg = Config::for_graph(&g).with_faults(FaultPlan::new(7).with_crash(9, 0));
/// assert!(apsp::exact_diameter(&g, cfg).is_err());
/// let out = apsp::exact_diameter(&g, cfg.with_recovery(RecoveryPolicy::standard()))?;
/// assert_eq!(out.diameter, 8);
/// assert_eq!(out.surviving.unwrap().excluded, 1);
/// assert_eq!(out.recovery.reroots, 1);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn exact_diameter(graph: &Graph, config: Config) -> Result<ExactDiameterOutcome, AlgoError> {
    let _driver_span = metrics::span("classical-apsp");
    let checkpoint = config.recovery().checkpoint();
    let healable = |e: &AlgoError| matches!(e, AlgoError::FaultDetected { .. });
    let (mut out, ledger) = heal(graph, config, PIPELINE, healable, |g, cfg, stats| {
        let mut run = pipeline(g, cfg, checkpoint, stats)?;
        let phases = std::mem::take(&mut run.ledger);
        Ok((run, phases))
    })?;
    out.ledger = ledger;
    Ok(out)
}

/// A failed pipeline run: the error, and the work the run threw away.
pub(crate) type Failed = (AlgoError, RunStats);

/// What a pipeline run has committed so far: the ledger, the summed stats
/// of its phases (the waste, should a later phase fail) and the healing
/// it needed.
pub(crate) struct Progress<'a> {
    pub(crate) ledger: RoundsLedger,
    pub(crate) spent: RunStats,
    pub(crate) recovery: &'a mut RecoveryStats,
}

impl Progress<'_> {
    /// Records a completed phase.
    pub(crate) fn commit(&mut self, label: impl Into<String>, stats: RunStats) {
        self.ledger.add(label, stats);
        self.spent.absorb(&stats);
    }

    /// A phase failed, wasting `phase` on top of the committed ones.
    pub(crate) fn wasted(&self, e: AlgoError, phase: RunStats) -> Failed {
        let mut wasted = self.spent;
        wasted.absorb(&phase);
        (e, wasted)
    }

    /// A phase failed before committing: the detection round inside
    /// [`AlgoError::FaultDetected`] is the honest lower bound for the
    /// rounds it executed; its messages and bits are unknown.
    fn failed(&self, e: AlgoError) -> Failed {
        let round = match &e {
            AlgoError::FaultDetected { round, .. } => *round,
            _ => 0,
        };
        self.wasted(e, rounds_only(round))
    }
}

/// The stats of a phase known only by its round count.
pub(crate) fn rounds_only(rounds: u64) -> RunStats {
    RunStats {
        rounds,
        ..RunStats::default()
    }
}

/// One attempt of [`exact_diameter`]: leader → BFS → DFS → waves →
/// convergecast.
///
/// `checkpoint` is the wave segment length of
/// [`RecoveryPolicy::checkpoint`](congest::RecoveryPolicy::checkpoint)
/// (0, as under the passive policy: one monolithic wave schedule).
/// Retransmissions and segment restarts fold into `recovery`.
fn pipeline(
    graph: &Graph,
    config: Config,
    checkpoint: u32,
    recovery: &mut RecoveryStats,
) -> Result<ExactDiameterOutcome, Failed> {
    if graph.is_empty() {
        let reason = "empty graph".into();
        return Err((AlgoError::InvalidParameter { reason }, RunStats::default()));
    }
    let n = graph.len() as u64;
    let fault_aware = config.has_faults();
    let mut run = Progress {
        ledger: RoundsLedger::new(),
        spent: RunStats::default(),
        recovery,
    };

    // Phase 1: leader election + BFS tree.
    let elect = leader::elect(graph, config).map_err(|e| run.failed(e))?;
    run.commit("leader election", elect.stats);
    let b = bfs::build(graph, elect.leader, config).map_err(|e| run.failed(e))?;
    run.commit("bfs(leader)", b.stats);
    run.recovery.retransmissions += b.retransmissions;
    let tree = TreeView::from(&b);

    if n == 1 {
        return Ok(ExactDiameterOutcome {
            diameter: 0,
            radius: 0,
            eccentricities: vec![0],
            leader: elect.leader,
            ledger: run.ledger,
            recovery: RecoveryStats::default(),
            surviving: None,
        });
    }

    // Phase 2: full DFS tour numbering.
    let steps = 2 * (n - 1);
    let dfs =
        dfs_walk::walk(graph, &tree, elect.leader, steps, config).map_err(|e| run.failed(e))?;
    run.commit("dfs numbering", dfs.stats);

    // Phase 3: pipelined waves from every node.
    let sources =
        wave_sources(&dfs.tau, fault_aware, dfs.stats.rounds).map_err(|e| (e, run.spent))?;
    let max_dist = if checkpoint == 0 {
        let duration = 2 * steps + u64::from(b.depth) + 2;
        // On a violation the simulator ran the full duration before it
        // surfaced; messages/bits of the aborted phase are unknown.
        let wave = waves::run(graph, &sources, duration, config)
            .map_err(|e| run.wasted(e, rounds_only(duration)))?;
        run.commit("eccentricity waves", wave.stats);
        if fault_aware {
            // Lemmas 2-4 guarantee one surviving wave per (source, node)
            // pair; any node that processed fewer waves than sources
            // silently holds an under-estimate of its eccentricity.
            wave.verify_complete(&sources).map_err(|e| (e, run.spent))?;
        }
        wave.max_dist
    } else {
        checkpointed_waves(graph, &sources, b.depth, config, checkpoint, &mut run)?
    };

    // Phase 4: convergecast the maximum (diameter) and minimum (radius) to
    // the leader.
    let values: Vec<u64> = max_dist.iter().map(|&d| d as u64).collect();
    let value_bits = bits::for_dist(graph.len());
    let agg = aggregate::convergecast(graph, &tree, &values, value_bits, Op::Max, config)
        .map_err(|e| run.failed(e))?;
    run.commit("max convergecast", agg.stats);
    let min = aggregate::convergecast(graph, &tree, &values, value_bits, Op::Min, config)
        .map_err(|e| run.failed(e))?;
    run.commit("min convergecast", min.stats);
    run.recovery.retransmissions += agg.retransmissions + min.retransmissions;

    Ok(ExactDiameterOutcome {
        diameter: agg.value as Dist,
        radius: min.value as Dist,
        eccentricities: max_dist,
        leader: elect.leader,
        ledger: run.ledger,
        recovery: RecoveryStats::default(),
        surviving: None,
    })
}

/// The wave sources of Figure 2: every node with its DFS tour offset τ(u).
///
/// The completed full tour visits every node, and `dfs_walk` already
/// errors on a lost token, so a node without an offset is fault
/// degradation the walk could not see (e.g. a crashed node) when a fault
/// plan is attached — [`AlgoError::FaultDetected`] at `round` — and a
/// broken protocol invariant otherwise ([`AlgoError::Protocol`]).
pub(crate) fn wave_sources(
    tau: &[Option<u64>],
    fault_aware: bool,
    round: u64,
) -> Result<Vec<(NodeId, u64)>, AlgoError> {
    tau.iter()
        .enumerate()
        .map(|(i, t)| match t {
            Some(t) => Ok((NodeId::new(i), *t)),
            None if fault_aware => Err(AlgoError::FaultDetected {
                round,
                detail: format!("DFS tour never visited node {i}: no wave offset for it"),
            }),
            None => Err(AlgoError::Protocol {
                reason: format!("the full DFS tour never visited node {i}"),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, metrics};

    #[test]
    fn an_unvisited_node_is_a_typed_error_not_a_panic() {
        let tau = [Some(0), None, Some(2)];
        assert_eq!(
            wave_sources(&tau[..1], false, 9),
            Ok(vec![(NodeId::new(0), 0)])
        );
        let Err(AlgoError::Protocol { reason }) = wave_sources(&tau, false, 9) else {
            panic!("fault-free hole must be a protocol error");
        };
        assert!(reason.contains("node 1"), "{reason}");
        assert!(matches!(
            wave_sources(&tau, true, 9),
            Err(AlgoError::FaultDetected { round: 9, .. })
        ));
    }

    #[test]
    fn matches_reference_on_families() {
        let cases: Vec<Graph> = vec![
            generators::path(17),
            generators::cycle(12),
            generators::complete(9),
            generators::star(7),
            generators::grid(4, 6),
            generators::balanced_tree(3, 3),
            generators::barbell(5, 7),
            generators::lollipop(4, 9),
            generators::hypercube(4),
        ];
        for g in cases {
            let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
            assert_eq!(out.diameter, metrics::diameter(&g).unwrap(), "{g:?}");
        }
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::random_connected(35, 0.1, seed);
            let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
            assert_eq!(out.diameter, metrics::diameter(&g).unwrap(), "seed {seed}");
        }
        for seed in 0..3 {
            let g = generators::random_tree(30, seed);
            let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
            assert_eq!(
                out.diameter,
                metrics::diameter(&g).unwrap(),
                "tree seed {seed}"
            );
        }
    }

    #[test]
    fn rounds_are_linear_in_n() {
        // The wave phase dominates: ~4n + O(D). Check Θ(n) with a generous
        // constant window, on a low-diameter graph so D is negligible.
        let g = generators::random_connected(60, 0.2, 1);
        let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
        let n = 60u64;
        assert!(
            out.rounds() >= 6 * (n - 1),
            "rounds {} below 6(n-1)",
            out.rounds()
        );
        assert!(
            out.rounds() <= 7 * n + 100,
            "rounds {} not O(n)",
            out.rounds()
        );
    }

    #[test]
    fn tiny_graphs() {
        let g1 = Graph::from_edges(1, []).unwrap();
        assert_eq!(
            exact_diameter(&g1, Config::for_graph(&g1))
                .unwrap()
                .diameter,
            0
        );
        let g2 = Graph::from_edges(2, [(0, 1)]).unwrap();
        assert_eq!(
            exact_diameter(&g2, Config::for_graph(&g2))
                .unwrap()
                .diameter,
            1
        );
    }

    #[test]
    fn disconnected_fails() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        assert!(matches!(
            exact_diameter(&g, Config::for_graph(&g)),
            Err(AlgoError::Disconnected)
        ));
    }

    #[test]
    fn radius_and_eccentricities_match_reference() {
        for seed in 0..3 {
            let g = generators::random_connected(30, 0.1, seed);
            let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
            assert_eq!(Some(out.radius), metrics::radius(&g), "radius seed {seed}");
            let reference = metrics::eccentricities(&g).unwrap();
            assert_eq!(out.eccentricities, reference, "eccentricities seed {seed}");
        }
        // Radius < diameter on a lollipop; equal on a cycle.
        let g = generators::lollipop(5, 10);
        let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
        assert!(out.radius < out.diameter);
        let g = generators::cycle(12);
        let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
        assert_eq!(out.radius, out.diameter);
    }

    #[test]
    fn predicted_rounds_matches_real_runs() {
        for g in [
            generators::path(24),
            generators::cycle(17),
            generators::grid(4, 6),
            generators::random_connected(40, 0.1, 3),
            generators::random_tree(30, 1),
        ] {
            let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
            let depth = metrics::eccentricity(&g, out.leader).unwrap() as u64;
            let predicted = predicted_rounds(g.len() as u64, depth);
            let real = out.rounds();
            let tolerance = depth + 3;
            assert!(
                predicted.abs_diff(real) <= tolerance,
                "predicted {predicted} vs real {real} (depth {depth}) on {g:?}"
            );
        }
    }

    #[test]
    fn ledger_has_all_phases() {
        let g = generators::cycle(10);
        let out = exact_diameter(&g, Config::for_graph(&g)).unwrap();
        let labels: Vec<&str> = out.ledger.phases().map(|(l, _, _)| l).collect();
        assert_eq!(
            labels,
            vec![
                "leader election",
                "bfs(leader)",
                "dfs numbering",
                "eccentricity waves",
                "max convergecast",
                "min convergecast"
            ]
        );
    }
}
