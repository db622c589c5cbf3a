//! Self-healing classical exact diameter — recovery on top of
//! [`apsp`](crate::apsp).
//!
//! [`apsp::exact_diameter`](crate::apsp::exact_diameter) is *fail-stop*: under an injected
//! [`congest::FaultPlan`] it degrades to a typed
//! [`AlgoError::FaultDetected`] the moment a protocol invariant breaks.
//! This driver runs the same leader → BFS → DFS → waves → convergecast
//! pipeline but consults the [`RecoveryPolicy`] carried by the
//! [`Config`] and heals instead of aborting, with three mechanisms:
//!
//! 1. **Retry** — bounded re-execution of the whole pipeline under a
//!    freshly [reseeded](congest::recovery::reseed) fault plan
//!    ([`RecoveryPolicy::retries`]).
//! 2. **Retransmit + checkpoint/restart** — tree protocols (BFS claims,
//!    convergecast reports) repeat their idempotent messages
//!    ([`RecoveryPolicy::retransmit`]), and the wave schedule is split
//!    into DFS-contiguous segments of at most
//!    [`RecoveryPolicy::checkpoint`] sources, so a dropped wave restarts
//!    from the last completed segment boundary — never from round 0.
//!    Rebasing a contiguous `τ'` block by its minimum preserves Lemma 2
//!    (`d(u, v) ≤ τ'(v) − τ'(u)` constrains differences only), so each
//!    segment is itself a valid congestion-free schedule.
//! 3. **Partial network** — when the plan crash-stops nodes
//!    ([`RecoveryPolicy::partial`]), the driver re-roots onto the largest
//!    surviving connected component and returns *its* diameter, rather
//!    than aborting the whole computation.
//!
//! Every recovery action is accounted honestly: retries/restarts/re-roots
//! charge [`RecoveryStats`], emit [`trace::TraceEvent::Recovery`] events,
//! bump the `qd_recovery_*` metrics, and wasted attempts appear as
//! *derived* ledger spans so `trace-summary` can reconcile committed
//! against discarded rounds.
//!
//! Determinism is preserved: recovery fates are pure functions of the
//! plan seed and attempt number, so results — including
//! [`RecoveryStats`] — replay byte-identically.
//!
//! # Guarantee class
//!
//! Each individual attempt keeps the fail-stop driver's
//! *correct-or-detected* guarantee, up to the degradations that are
//! inherently invisible to `O(log n)` local memory (the [`waves`] module
//! documents silently *blocked* waves; the symmetric case is a silently
//! *inflated* wave, which arises only when every shortest-path copy of a
//! wave is dropped in the same round and a longer-path copy then arrives
//! exactly on its own consistent `2τ' + d` schedule). Because retrying
//! draws fresh fault fates until an attempt passes all checks, recovery
//! trades a sliver of certainty for availability: at aggressive drop
//! rates a retried run can land in that invisible class where the
//! fail-stop driver would simply have reported detection. The
//! `fault_matrix` bench quantifies this trade.

use congest::recovery::reseed;
use congest::{bits, Config, FaultPlan, RecoveryPolicy, RecoveryStats, RoundsLedger, RunStats};
use graphs::{Dist, Graph, NodeId};
use trace::{RecoveryAction, TraceEvent};

use crate::aggregate::{self, Op};
use crate::apsp::ExactDiameterOutcome;
use crate::bfs;
use crate::dfs_walk;
use crate::error::AlgoError;
use crate::leader;
use crate::tree_view::TreeView;
use crate::waves;

/// Reseed scope for whole-pipeline retries.
const SCOPE_PIPELINE: u64 = 0xA11;
/// Reseed scope base for wave-segment restarts (`+ segment index`).
const SCOPE_SEGMENT: u64 = 0x5E6_0000;
/// Reseed scope for the partial-network sub-run.
const SCOPE_PARTIAL: u64 = 0xFA27;

/// The surviving connected component a partial-network run re-rooted to.
///
/// When crash-stops disconnect or silence part of the network, the
/// recovering driver computes the diameter of the largest surviving
/// component. The sub-run's outcome (leader, eccentricities) is indexed
/// by *component-local* ids; `nodes` is the translation table back to the
/// original graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurvivingComponent {
    /// Members of the component, as original node ids in ascending order:
    /// component-local node `j` is original node `nodes[j]`.
    pub nodes: Vec<NodeId>,
    /// Original nodes excluded from the computation (crashed, or severed
    /// from the largest component by crashes).
    pub excluded: usize,
}

/// Result of [`exact_diameter_recovering`]: the answer plus the recovery
/// actions it took to get there.
#[derive(Clone, Debug)]
pub struct RecoveredDiameter {
    /// The computed diameter/radius/eccentricities and phase ledger. When
    /// [`surviving`](Self::surviving) is `Some`, all node indices in here
    /// (leader, eccentricities) are component-local.
    pub outcome: ExactDiameterOutcome,
    /// Retries, restarts, retransmissions, re-roots, and the work wasted
    /// by discarded attempts. [`RecoveryStats::is_clean`] means the run
    /// needed no healing at all.
    pub recovery: RecoveryStats,
    /// `Some` when crash-stops forced partial-network semantics; the
    /// diameter then refers to the surviving component, not the full
    /// graph.
    pub surviving: Option<SurvivingComponent>,
}

impl RecoveredDiameter {
    /// True when the answer covers only a surviving component rather than
    /// the whole network.
    pub fn is_partial(&self) -> bool {
        self.surviving.is_some()
    }
}

/// A failed attempt: the detection error plus the work it threw away.
type AttemptError = (AlgoError, RunStats);

/// Wraps a phase failure whose own stats were *not* yet committed to
/// `spent`: the detection round inside [`AlgoError::FaultDetected`] is the
/// honest lower bound for the rounds the failing phase executed.
fn waste_of(e: AlgoError, spent: RunStats) -> AttemptError {
    let mut w = spent;
    if let AlgoError::FaultDetected { round, .. } = &e {
        w.rounds += round;
    }
    (e, w)
}

/// Computes the exact diameter like [`apsp::exact_diameter`](crate::apsp::exact_diameter), but heals
/// detected faults according to [`Config::recovery`].
///
/// With a passive [`RecoveryPolicy`] (the default) this is byte-identical
/// to the fail-stop driver. With [`RecoveryPolicy::standard`] it retries
/// under reseeded fault plans, retransmits tree messages, restarts
/// dropped waves from checkpoint boundaries, and — when the plan
/// crash-stops nodes — returns the diameter of the largest surviving
/// component instead of [`AlgoError::FaultDetected`].
///
/// # Errors
///
/// [`AlgoError::FaultDetected`] when every permitted recovery avenue is
/// exhausted; [`AlgoError::Disconnected`] / [`AlgoError::InvalidParameter`]
/// exactly as the fail-stop driver.
///
/// # Example
///
/// Node 9 of a 10-path crash-stops at round 0. The fail-stop driver
/// aborts; the recovering driver re-roots onto the surviving 9-path:
///
/// ```
/// use classical::recovery;
/// use congest::{Config, FaultPlan, RecoveryPolicy};
/// use graphs::generators;
///
/// let g = generators::path(10);
/// let cfg = Config::for_graph(&g)
///     .with_faults(FaultPlan::new(7).with_crash(9, 0))
///     .with_recovery(RecoveryPolicy::standard());
/// let out = recovery::exact_diameter_recovering(&g, cfg)?;
/// assert_eq!(out.outcome.diameter, 8);
/// assert_eq!(out.surviving.unwrap().excluded, 1);
/// assert_eq!(out.recovery.reroots, 1);
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn exact_diameter_recovering(
    graph: &Graph,
    config: Config,
) -> Result<RecoveredDiameter, AlgoError> {
    if graph.is_empty() {
        return Err(AlgoError::InvalidParameter {
            reason: "empty graph".into(),
        });
    }
    let policy = config.recovery();
    let _driver_span = metrics::span("classical-apsp-recover");
    let mut stats = RecoveryStats::default();
    // Derived spans of discarded attempts accumulate here; the successful
    // attempt's phases are appended behind them.
    let mut wasted_ledger = RoundsLedger::new();
    let plan = config.faults();
    let seed = plan.as_ref().map(FaultPlan::seed).unwrap_or(0);

    for attempt in 0..=policy.retries() {
        let cfg = match (&plan, attempt) {
            (Some(p), a) if a > 0 => {
                config.with_faults(p.clone().with_seed(reseed(seed, a, SCOPE_PIPELINE)))
            }
            _ => config,
        };
        match attempt_pipeline(graph, cfg, policy, &mut stats) {
            Ok((outcome, ledger)) => {
                let mut final_ledger = wasted_ledger;
                final_ledger.extend_prefixed("", &ledger);
                return Ok(RecoveredDiameter {
                    outcome: ExactDiameterOutcome {
                        ledger: final_ledger,
                        ..outcome
                    },
                    recovery: stats,
                    surviving: None,
                });
            }
            Err((err, wasted)) => {
                if !matches!(err, AlgoError::FaultDetected { .. }) {
                    // Deterministic failures (disconnection, bad inputs)
                    // will not heal under a reseeded plan.
                    return Err(err);
                }
                let has_crashes = plan.as_ref().is_some_and(|p| !p.crashes().is_empty());
                if policy.partial() && has_crashes {
                    // Crash-stops are deterministically scheduled, so a
                    // reseeded retry cannot mask them: go partial now.
                    charge_waste(&mut stats, &wasted);
                    wasted_ledger.add_derived(format!("wasted attempt {attempt}"), wasted);
                    let plan = plan.expect("has_crashes implies a plan");
                    return partial_network(graph, config, plan, stats, wasted_ledger);
                }
                if attempt < policy.retries() && plan.is_some() {
                    charge_waste(&mut stats, &wasted);
                    wasted_ledger.add_derived(format!("wasted attempt {attempt}"), wasted);
                    stats.retries += 1;
                    note_recovery(
                        RecoveryAction::Retry,
                        u64::from(attempt) + 1,
                        "classical-apsp",
                        wasted.rounds,
                        1,
                    );
                    continue;
                }
                return Err(err);
            }
        }
    }
    unreachable!("the attempt loop returns on its final iteration");
}

/// One pipeline execution under `config`. On failure, returns the error
/// plus the [`RunStats`] total of the work the attempt threw away
/// (committed phases, plus the failing wave phase's known rounds; other
/// failing phases carry their stats inside the error and are charged as
/// zero — a documented under-approximation).
fn attempt_pipeline(
    graph: &Graph,
    config: Config,
    policy: RecoveryPolicy,
    stats: &mut RecoveryStats,
) -> Result<(ExactDiameterOutcome, RoundsLedger), AttemptError> {
    let n = graph.len() as u64;
    let fault_aware = config.has_faults();
    let mut ledger = RoundsLedger::new();
    let mut spent = RunStats::default();

    let elect = leader::elect(graph, config).map_err(|e| waste_of(e, spent))?;
    ledger.add("leader election", elect.stats);
    spent.absorb(&elect.stats);

    let b = bfs::build(graph, elect.leader, config).map_err(|e| waste_of(e, spent))?;
    ledger.add("bfs(leader)", b.stats);
    spent.absorb(&b.stats);
    note_retransmissions(stats, b.retransmissions);
    let tree = TreeView::from(&b);

    if n == 1 {
        return Ok((
            ExactDiameterOutcome {
                diameter: 0,
                radius: 0,
                eccentricities: vec![0],
                leader: elect.leader,
                ledger: RoundsLedger::new(),
            },
            ledger,
        ));
    }

    let steps = 2 * (n - 1);
    let dfs = dfs_walk::walk(graph, &tree, elect.leader, steps, config)
        .map_err(|e| waste_of(e, spent))?;
    ledger.add("dfs numbering", dfs.stats);
    spent.absorb(&dfs.stats);

    let sources = crate::apsp::wave_sources(&dfs.tau, fault_aware, dfs.stats.rounds)
        .map_err(|e| (e, spent))?;

    let max_dist = if policy.checkpoint() == 0 {
        // Monolithic wave schedule, exactly as the fail-stop driver.
        let duration = 2 * steps + u64::from(b.depth) + 2;
        let wave = waves::run(graph, &sources, duration, config).map_err(|e| {
            // The simulator ran the full duration before the violation
            // surfaced; messages/bits of the aborted phase are unknown.
            let mut w = spent;
            w.rounds += duration;
            (e, w)
        })?;
        spent.absorb(&wave.stats);
        ledger.add("eccentricity waves", wave.stats);
        if fault_aware {
            wave.verify_complete(&sources).map_err(|e| (e, spent))?;
        }
        wave.max_dist
    } else {
        checkpointed_waves(
            graph,
            &sources,
            b.depth,
            config,
            policy,
            stats,
            &mut ledger,
            &mut spent,
        )?
    };

    let values: Vec<u64> = max_dist.iter().map(|&d| d as u64).collect();
    let value_bits = bits::for_dist(graph.len());
    let agg = aggregate::convergecast(graph, &tree, &values, value_bits, Op::Max, config)
        .map_err(|e| waste_of(e, spent))?;
    ledger.add("max convergecast", agg.stats);
    spent.absorb(&agg.stats);
    let min = aggregate::convergecast(graph, &tree, &values, value_bits, Op::Min, config)
        .map_err(|e| waste_of(e, spent))?;
    ledger.add("min convergecast", min.stats);
    note_retransmissions(stats, agg.retransmissions + min.retransmissions);

    Ok((
        ExactDiameterOutcome {
            diameter: agg.value as Dist,
            radius: min.value as Dist,
            eccentricities: max_dist,
            leader: elect.leader,
            ledger: RoundsLedger::new(),
        },
        ledger,
    ))
}

/// Runs the wave phase as DFS-contiguous checkpoint segments of at most
/// `policy.checkpoint()` sources each, restarting only the failing
/// segment (under a reseeded plan) up to `policy.retries()` times.
#[allow(clippy::too_many_arguments)]
fn checkpointed_waves(
    graph: &Graph,
    sources: &[(NodeId, u64)],
    depth: Dist,
    config: Config,
    policy: RecoveryPolicy,
    stats: &mut RecoveryStats,
    ledger: &mut RoundsLedger,
    spent: &mut RunStats,
) -> Result<Vec<Dist>, AttemptError> {
    let mut ordered = sources.to_vec();
    ordered.sort_unstable_by_key(|&(_, t)| t);
    let mut max_dist: Vec<Dist> = vec![0; graph.len()];
    let plan = config.faults();
    for (k, seg) in ordered.chunks(policy.checkpoint() as usize).enumerate() {
        // Rebase the contiguous τ' block to start at 0: Lemma 2 constrains
        // τ' differences only, so the segment is a valid schedule on its
        // own, and the duration bound shrinks with the segment span.
        let base = seg[0].1;
        let rebased: Vec<(NodeId, u64)> = seg.iter().map(|&(v, t)| (v, t - base)).collect();
        let span = rebased.last().expect("chunks are non-empty").1;
        // Cover 2·span (last start) + max source eccentricity; every
        // eccentricity is at most D ≤ 2·depth(BFS tree).
        let duration = 2 * span + 2 * u64::from(depth) + 2;
        let label = format!("eccentricity waves[seg {k}]");
        let mut tries: u32 = 0;
        loop {
            let cfg = match (&plan, tries) {
                (Some(p), t) if t > 0 => config.with_faults(p.clone().with_seed(reseed(
                    p.seed(),
                    t,
                    SCOPE_SEGMENT + k as u64,
                ))),
                _ => config,
            };
            let wasted = match waves::run(graph, &rebased, duration, cfg) {
                Ok(w) => {
                    let verified = if cfg.has_faults() {
                        w.verify_complete(&rebased)
                    } else {
                        Ok(())
                    };
                    match verified {
                        Ok(()) => {
                            spent.absorb(&w.stats);
                            ledger.add(label.clone(), w.stats);
                            for (slot, &d) in max_dist.iter_mut().zip(&w.max_dist) {
                                *slot = (*slot).max(d);
                            }
                            break;
                        }
                        Err(e) => {
                            // The segment ran to completion but lost waves:
                            // its stats are exactly the waste.
                            if tries >= policy.retries() {
                                return Err((e, plus(*spent, &w.stats)));
                            }
                            w.stats
                        }
                    }
                }
                Err(e) => {
                    // Lemma violation: the simulator ran the full duration
                    // before surfacing it; messages/bits are unknown.
                    let wasted = RunStats {
                        rounds: duration,
                        ..RunStats::default()
                    };
                    if !matches!(e, AlgoError::FaultDetected { .. }) || tries >= policy.retries() {
                        return Err((e, plus(*spent, &wasted)));
                    }
                    wasted
                }
            };
            charge_waste(stats, &wasted);
            ledger.add_derived(format!("{label} wasted try {tries}"), wasted);
            stats.restarts += 1;
            tries += 1;
            note_recovery(
                RecoveryAction::Restart,
                u64::from(tries),
                &label,
                wasted.rounds,
                1,
            );
        }
    }
    Ok(max_dist)
}

/// A carved surviving subgraph, ready for a partial-network re-root.
///
/// Produced by [`carve_survivors`]; consumed by the recovering drivers
/// here and in the quantum layer.
#[derive(Clone, Debug)]
pub struct SurvivorCarve {
    /// The largest surviving connected component, renumbered to
    /// `0..component.nodes.len()`.
    pub graph: Graph,
    /// Which original nodes the carve kept (and how many it dropped).
    pub component: SurvivingComponent,
    /// The fault plan for the sub-run: crashes removed, link failures
    /// renumbered to component-local ids, and the seed
    /// [reseeded](congest::recovery::reseed) so surviving noise draws
    /// fresh fates.
    pub plan: FaultPlan,
}

/// Carves the largest connected component of the crash survivors out of
/// `graph`, with the renumbered-and-reseeded residual fault plan.
///
/// Any node named by a crash-stop entry counts as dead regardless of its
/// crash round: the plan is the ground truth for which nodes cannot be
/// relied on. Returns `None` when every node crash-stops.
///
/// # Example
///
/// ```
/// use classical::recovery::carve_survivors;
/// use congest::FaultPlan;
/// use graphs::generators;
///
/// // Crashing node 4 splits a 12-path into {0..3} and {5..11}.
/// let g = generators::path(12);
/// let plan = FaultPlan::new(3).with_crash(4, 10);
/// let carve = carve_survivors(&g, &plan).unwrap();
/// assert_eq!(carve.graph.len(), 7);
/// assert_eq!(carve.component.excluded, 5);
/// assert!(carve.plan.crashes().is_empty());
/// ```
pub fn carve_survivors(graph: &Graph, plan: &FaultPlan) -> Option<SurvivorCarve> {
    let n = graph.len();
    let mut dead = vec![false; n];
    for &(v, _) in plan.crashes() {
        if v < n {
            dead[v] = true;
        }
    }
    let comp = largest_component(graph, &dead)?;
    let mut map: Vec<Option<usize>> = vec![None; n];
    for (j, &v) in comp.iter().enumerate() {
        map[v.index()] = Some(j);
    }
    let edges: Vec<(usize, usize)> = graph
        .edges()
        .filter_map(|(u, v)| Some((map[u.index()]?, map[v.index()]?)))
        .collect();
    let sub = Graph::from_edges(comp.len(), edges).expect("component edges are valid");
    let subplan = plan
        .clone()
        .without_crashes()
        .renumbered(|i| map.get(i).copied().flatten())
        .with_seed(reseed(plan.seed(), 1, SCOPE_PARTIAL));
    Some(SurvivorCarve {
        graph: sub,
        component: SurvivingComponent {
            excluded: n - comp.len(),
            nodes: comp,
        },
        plan: subplan,
    })
}

/// Partial-network semantics: carve the largest connected component of
/// the crash survivors, re-root the whole pipeline onto it (crashes
/// removed from the plan, remaining noise renumbered and reseeded), and
/// return its diameter.
fn partial_network(
    graph: &Graph,
    config: Config,
    plan: FaultPlan,
    mut stats: RecoveryStats,
    mut ledger: RoundsLedger,
) -> Result<RecoveredDiameter, AlgoError> {
    let carve = carve_survivors(graph, &plan).ok_or(AlgoError::FaultDetected {
        round: 0,
        detail: "every node crash-stops: no surviving component".into(),
    })?;
    stats.reroots += 1;
    note_recovery(RecoveryAction::Reroot, 1, "surviving component", 0, 1);
    // The sub-plan carries no crashes, so the recursive run can still
    // retry/checkpoint but can never re-enter this path.
    let sub_out = exact_diameter_recovering(&carve.graph, config.with_faults(carve.plan))?;
    stats.absorb(&sub_out.recovery);
    ledger.extend_prefixed("surviving: ", &sub_out.outcome.ledger);
    Ok(RecoveredDiameter {
        outcome: ExactDiameterOutcome {
            ledger,
            ..sub_out.outcome
        },
        recovery: stats,
        surviving: Some(carve.component),
    })
}

/// Largest connected component among non-`dead` nodes (ascending ids);
/// ties break to the component containing the smallest node id. `None`
/// when every node is dead.
fn largest_component(graph: &Graph, dead: &[bool]) -> Option<Vec<NodeId>> {
    let mut seen = vec![false; graph.len()];
    let mut best: Vec<NodeId> = Vec::new();
    for s in graph.nodes() {
        if dead[s.index()] || seen[s.index()] {
            continue;
        }
        seen[s.index()] = true;
        let mut comp = vec![s];
        let mut head = 0;
        while head < comp.len() {
            let v = comp[head];
            head += 1;
            for &w in graph.neighbors(v) {
                if !dead[w.index()] && !seen[w.index()] {
                    seen[w.index()] = true;
                    comp.push(w);
                }
            }
        }
        if comp.len() > best.len() {
            comp.sort_unstable();
            best = comp;
        }
    }
    if best.is_empty() {
        None
    } else {
        Some(best)
    }
}

/// Emits a [`TraceEvent::Recovery`] and charges `count` recovery actions
/// to the metrics registry.
fn note_recovery(
    action: RecoveryAction,
    attempt: u64,
    scope: &str,
    wasted_rounds: u64,
    count: u64,
) {
    trace::emit_with(|| TraceEvent::Recovery {
        round: wasted_rounds,
        action,
        attempt,
        scope: scope.to_string(),
    });
    // The flight recorder counts recovery *events* (one per trace event,
    // not per charged action) so a recorder rebuilt from the trace stream
    // reconciles with the live one exactly.
    trace::flight::with(|f| f.note_recovery());
    metrics::add(metrics::names::RECOVERY_ACTIONS, count);
}

/// Folds `resent` retransmitted messages into the stats. The trace event
/// and metrics charge already happened at the source — [`bfs::build`] and
/// [`aggregate::convergecast`] account for their own resends, so they are
/// counted wherever they occur (including under the quantum drivers).
fn note_retransmissions(stats: &mut RecoveryStats, resent: u64) {
    stats.retransmissions += resent;
}

/// Charges thrown-away work to the stats and the metrics registry.
fn charge_waste(stats: &mut RecoveryStats, wasted: &RunStats) {
    stats.wasted_rounds += wasted.rounds;
    stats.wasted_messages += wasted.messages;
    stats.wasted_bits += wasted.total_bits;
    metrics::add(metrics::names::RECOVERY_WASTED_ROUNDS, wasted.rounds);
    metrics::add(metrics::names::RECOVERY_WASTED_BITS, wasted.total_bits);
}

fn plus(mut a: RunStats, b: &RunStats) -> RunStats {
    a.absorb(b);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp;
    use graphs::{generators, metrics as gmetrics};

    #[test]
    fn passive_policy_matches_fail_stop_driver() {
        for seed in 0..3 {
            let g = generators::random_connected(30, 0.12, seed);
            let cfg = Config::for_graph(&g);
            let plain = apsp::exact_diameter(&g, cfg).unwrap();
            let out = exact_diameter_recovering(&g, cfg).unwrap();
            assert_eq!(out.outcome.diameter, plain.diameter);
            assert_eq!(out.outcome.radius, plain.radius);
            assert_eq!(out.outcome.eccentricities, plain.eccentricities);
            assert!(out.recovery.is_clean());
            assert!(out.surviving.is_none());
            let labels = ledger_labels(&out);
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

    fn ledger_labels(out: &RecoveredDiameter) -> Vec<&str> {
        out.outcome.ledger.phases().map(|(l, _, _)| l).collect()
    }

    #[test]
    fn checkpointed_clean_run_matches_reference() {
        let g = generators::random_connected(28, 0.12, 2);
        let cfg = Config::for_graph(&g).with_recovery(RecoveryPolicy::new().with_checkpoint(5));
        let out = exact_diameter_recovering(&g, cfg).unwrap();
        assert_eq!(out.outcome.diameter, gmetrics::diameter(&g).unwrap());
        assert_eq!(
            out.outcome.eccentricities,
            gmetrics::eccentricities(&g).unwrap()
        );
        assert!(out.recovery.is_clean());
        // 28 sources in segments of 5 → 6 segment spans, no monolithic one.
        let labels = ledger_labels(&out);
        assert!(labels.contains(&"eccentricity waves[seg 0]"));
        assert!(labels.contains(&"eccentricity waves[seg 5]"));
        assert!(!labels.contains(&"eccentricity waves"));
    }

    #[test]
    fn crash_reroots_to_surviving_component() {
        // Crashing an interior path node splits the survivors in two; the
        // driver must pick the larger piece.
        let g = generators::path(12);
        let plan = FaultPlan::new(3).with_crash(4, 0);
        let cfg = Config::for_graph(&g)
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::standard());
        assert!(matches!(
            apsp::exact_diameter(&g, cfg),
            Err(AlgoError::FaultDetected { .. })
        ));
        let out = exact_diameter_recovering(&g, cfg).unwrap();
        let surviving = out.surviving.unwrap();
        // Survivors split into {0..3} and {5..11}; the larger wins.
        assert_eq!(
            surviving.nodes,
            (5..12).map(NodeId::new).collect::<Vec<_>>()
        );
        assert_eq!(surviving.excluded, 5);
        assert_eq!(out.outcome.diameter, 6);
        assert_eq!(out.recovery.reroots, 1);
        assert!(out.recovery.wasted_rounds > 0, "the aborted attempt costs");
    }

    #[test]
    fn partial_disabled_does_not_mask_crashes() {
        let g = generators::path(12);
        let cfg = Config::for_graph(&g)
            .with_faults(FaultPlan::new(3).with_crash(4, 0))
            .with_recovery(RecoveryPolicy::standard().with_partial(false));
        assert!(matches!(
            exact_diameter_recovering(&g, cfg),
            Err(AlgoError::FaultDetected { .. })
        ));
    }

    #[test]
    fn reseeded_retries_heal_message_drops() {
        // Find seeds where the fail-stop driver degrades but bounded
        // reseeded retries (plus retransmission) recover the exact answer.
        let g = generators::random_connected(24, 0.14, 1);
        let reference = gmetrics::diameter(&g).unwrap();
        let policy = RecoveryPolicy::new()
            .with_retries(4)
            .with_retransmit(2)
            .with_checkpoint(8);
        let mut healed = 0;
        for seed in 0..40u64 {
            let plan = FaultPlan::new(seed).with_drop(0.004);
            let cfg = Config::for_graph(&g).with_faults(plan);
            if apsp::exact_diameter(&g, cfg).is_ok() {
                continue;
            }
            if let Ok(out) = exact_diameter_recovering(&g, cfg.with_recovery(policy)) {
                assert_eq!(out.outcome.diameter, reference, "seed {seed}");
                assert!(!out.recovery.is_clean(), "seed {seed} must have healed");
                healed += 1;
            }
        }
        assert!(healed > 0, "no seed exercised the recovery path");
    }

    #[test]
    fn recovery_actions_reach_trace_and_metrics() {
        let g = generators::path(10);
        let cfg = Config::for_graph(&g)
            .with_faults(FaultPlan::new(7).with_crash(9, 0))
            .with_recovery(RecoveryPolicy::standard());
        let recorder = trace::Recorder::shared();
        let registry = metrics::Registry::shared();
        let out = {
            let _t = trace::install(recorder.clone());
            let _m = metrics::install(registry.clone());
            exact_diameter_recovering(&g, cfg).unwrap()
        };
        assert_eq!(out.recovery.reroots, 1);
        let events = recorder.borrow_mut().take();
        let summary = trace::Summary::from_events(&events);
        // One re-root, plus one bulk retransmit event per tree phase that
        // resent anything (the standard policy retransmits proactively).
        assert!(summary
            .recovery_kinds()
            .iter()
            .any(|(k, n)| k == "re-root" && *n == 1));
        assert!(summary.recoveries >= 1);
        let reg = registry.borrow();
        assert_eq!(
            reg.counter(metrics::names::RECOVERY_ACTIONS),
            out.recovery.actions()
        );
        assert_eq!(
            reg.counter(metrics::names::RECOVERY_WASTED_ROUNDS),
            out.recovery.wasted_rounds
        );
    }
}
