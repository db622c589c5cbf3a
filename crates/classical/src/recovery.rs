//! Self-healing for the Table 1 drivers: [`heal`], the one retry loop of
//! every driver that heals, and the classical driver's wave
//! checkpoint/restart.
//!
//! Four drivers heal under whatever [`RecoveryPolicy`] their [`Config`]
//! carries: [`apsp::exact_diameter`](crate::apsp::exact_diameter) here, and
//! Theorem 1, Section 3.1 and Theorem 4 in `diameter_quantum`. Under the
//! passive default they are *fail-stop*: an injected [`FaultPlan`] that
//! breaks a protocol invariant surfaces as a typed
//! [`AlgoError::FaultDetected`]. Under an active policy they heal instead,
//! with three mechanisms:
//!
//! 1. **Retry** — bounded re-execution of the whole pipeline under a
//!    freshly [reseeded](reseed) fault plan ([`RecoveryPolicy::retries`]).
//! 2. **Retransmit + checkpoint/restart** — tree protocols (BFS claims,
//!    convergecast reports) repeat their idempotent messages
//!    ([`RecoveryPolicy::retransmit`]), and the classical driver splits
//!    its wave schedule into DFS-contiguous segments of at most
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
//! Retry and re-root live in [`heal`]; each driver hands it only a
//! [`RetryScope`], its triage and one attempt. Each driver's outcome is
//! [`Healed`]: it carries the run's [`RecoveryStats`] and the surviving
//! component, if any.
//!
//! Every discarded attempt or segment try is charged one way: to
//! [`RecoveryStats`], the `qd_recovery_wasted_*` counters and a *derived*
//! ledger span (`wasted attempt k`, `… wasted try k`), so `trace-summary`
//! can reconcile committed against discarded rounds.
//! [`note_recovery`] emits each action's [`trace::TraceEvent::Recovery`]
//! event and bumps `qd_recovery_actions_total`.
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

use congest::recovery::{note_recovery, reseed};
use congest::{Config, FaultPlan, RecoveryPolicy, RecoveryStats, RoundsLedger, RunStats};
use graphs::{Dist, Graph, NodeId};
use trace::RecoveryAction::{Reroot, Restart, Retry};

use crate::apsp::{rounds_only, Failed, Progress};
use crate::error::AlgoError;
use crate::waves;

/// Reseed scope base for wave-segment restarts (`+ segment index`).
const SCOPE_SEGMENT: u64 = 0x5E6_0000;
/// Reseed scope for the partial-network sub-run.
const SCOPE_PARTIAL: u64 = 0xFA27;

/// The surviving connected component a partial-network run re-rooted to.
///
/// When crash-stops disconnect or silence part of the network, a healing
/// driver computes the diameter of the largest surviving component. The
/// sub-run's outcome (leader, eccentricities) is indexed by
/// *component-local* ids; `nodes` is the translation table back to the
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

/// The outcome of a driver that [`heal`]s: it carries what healing cost.
pub trait Healed {
    /// The outcome's `recovery` and `surviving` fields: the retries,
    /// restarts, retransmissions, re-roots and wasted work
    /// ([`RecoveryStats::is_clean`] when the run needed no healing), and
    /// `Some` component when crash-stops forced a re-root — the answer and
    /// its node indices then refer to that component.
    fn healing(&mut self) -> (&mut RecoveryStats, &mut Option<SurvivingComponent>);
}

/// How one driver's whole-pipeline retries are seeded and named.
#[derive(Clone, Copy, Debug)]
pub struct RetryScope {
    /// Attempt `k` runs under the plan seed
    /// [`reseed`]`(seed, k, scope)`.
    pub scope: u64,
    /// Scope of the driver's [`Retry`] events.
    pub label: &'static str,
}

/// One attempt of a healing driver, as [`heal`] takes it: the run and its
/// phase ledger, or the error and the work it threw away.
pub type Attempt<T, E> = Result<(T, RoundsLedger), (E, RunStats)>;

/// The one whole-pipeline retry loop of the healing drivers.
///
/// Runs `attempt` under `config`. Under a fault plan, a failure that
/// `healable` accepts is healed by
///
/// * **re-root**, when the plan crash-stops nodes and
///   [`RecoveryPolicy::partial`] is on: crash-stops are scheduled
///   deterministically, so a reseeded retry cannot mask them. The loop
///   reruns itself on the [carved](carve_survivors) survivors;
/// * **retry** otherwise, up to [`RecoveryPolicy::retries`] times, each
///   attempt `k` under a plan [reseeded](reseed) in `scope`.
///
/// `attempt` folds its own healing (retransmissions, restarts) into the
/// stats it is handed, and returns its run with the run's phase ledger,
/// or its error with the [`RunStats`] it threw away. Each discarded
/// attempt is charged as a derived `wasted attempt k` span. When the
/// first attempt answers, its ledger comes back as it is; otherwise the
/// returned ledger holds the wasted spans, then the answering run's
/// phases (prefixed `surviving: ` after a re-root). The run's
/// [`Healed`] fields say what healing cost; under the passive policy
/// they stay clean and an error is the first attempt's.
///
/// # Errors
///
/// The last attempt's error when it is not healable or the retries are
/// spent; [`AlgoError::FaultDetected`] when every node crash-stops.
pub fn heal<T: Healed, E: From<AlgoError>>(
    graph: &Graph,
    config: Config,
    scope: RetryScope,
    healable: fn(&E) -> bool,
    mut attempt: impl FnMut(&Graph, Config, &mut RecoveryStats) -> Attempt<T, E>,
) -> Result<(T, RoundsLedger), E> {
    let policy: RecoveryPolicy = config.recovery();
    let plan = config.faults();
    let mut recovery = RecoveryStats::default();
    let mut ledger = RoundsLedger::new();
    let mut k = 0;
    loop {
        let (err, wasted) = match attempt(graph, reseeded(config, k, scope.scope), &mut recovery) {
            Ok((mut run, mut phases)) => {
                *run.healing().0 = recovery;
                if !ledger.is_empty() {
                    ledger.extend_prefixed("", &phases);
                    phases = ledger;
                }
                return Ok((run, phases));
            }
            Err(failed) => failed,
        };
        let Some(plan) = plan.as_ref().filter(|_| healable(&err)) else {
            return Err(err);
        };
        let reroot = policy.partial() && !plan.crashes().is_empty();
        if !reroot && k >= policy.retries() {
            return Err(err);
        }
        let label = format!("wasted attempt {k}");
        charge(&mut recovery, &mut ledger, label, wasted);
        if reroot {
            let carve = carve_survivors(graph, plan).ok_or(AlgoError::FaultDetected {
                round: 0,
                detail: "every node crash-stops: no surviving component".into(),
            })?;
            recovery.reroots += 1;
            note_recovery(Reroot, 1, "surviving component", wasted.rounds, 1);
            // The carved plan has no crashes, so the sub-run can still
            // retry and checkpoint but never re-roots again.
            let sub_config = config.with_faults(carve.plan);
            let (mut run, phases) = heal(&carve.graph, sub_config, scope, healable, attempt)?;
            let (stats, surviving) = run.healing();
            recovery.absorb(stats);
            *stats = recovery;
            *surviving = Some(carve.component);
            ledger.extend_prefixed("surviving: ", &phases);
            return Ok((run, ledger));
        }
        k += 1;
        recovery.retries += 1;
        note_recovery(Retry, u64::from(k), scope.label, wasted.rounds, 1);
    }
}

/// `config` with its fault plan reseeded for try `k` in `scope`; try 0
/// runs the plan as given.
fn reseeded(config: Config, k: u32, scope: u64) -> Config {
    match config.faults() {
        Some(plan) if k > 0 => {
            let seed = reseed(plan.seed(), k, scope);
            config.with_faults(plan.with_seed(seed))
        }
        _ => config,
    }
}

/// Charges thrown-away work to the stats, the `qd_recovery_wasted_*`
/// counters and a derived `label` span in `ledger`.
fn charge(stats: &mut RecoveryStats, ledger: &mut RoundsLedger, label: String, wasted: RunStats) {
    stats.wasted_rounds += wasted.rounds;
    stats.wasted_messages += wasted.messages;
    stats.wasted_bits += wasted.total_bits;
    metrics::add(metrics::names::RECOVERY_WASTED_ROUNDS, wasted.rounds);
    metrics::add(metrics::names::RECOVERY_WASTED_BITS, wasted.total_bits);
    ledger.add_derived(label, wasted);
}

/// Runs the wave phase as DFS-contiguous checkpoint segments of at most
/// `checkpoint` sources each, restarting only the failing segment (under
/// a reseeded plan) up to [`RecoveryPolicy::retries`] times.
pub(crate) fn checkpointed_waves(
    graph: &Graph,
    sources: &[(NodeId, u64)],
    depth: Dist,
    config: Config,
    checkpoint: u32,
    run: &mut Progress<'_>,
) -> Result<Vec<Dist>, Failed> {
    let retries = config.recovery().retries();
    let mut ordered = sources.to_vec();
    ordered.sort_unstable_by_key(|&(_, t)| t);
    let mut max_dist: Vec<Dist> = vec![0; graph.len()];
    for (k, seg) in ordered.chunks(checkpoint as usize).enumerate() {
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
        for tries in 0.. {
            let cfg = reseeded(config, tries, SCOPE_SEGMENT + k as u64);
            let (e, wasted) = match waves::run(graph, &rebased, duration, cfg) {
                Ok(w) => match cfg.has_faults().then(|| w.verify_complete(&rebased)) {
                    // The segment ran to completion but lost waves: its
                    // stats are exactly the waste.
                    Some(Err(e)) => (e, w.stats),
                    _ => {
                        run.commit(label.clone(), w.stats);
                        for (slot, &d) in max_dist.iter_mut().zip(&w.max_dist) {
                            *slot = (*slot).max(d);
                        }
                        break;
                    }
                },
                // Lemma violation: the simulator ran the full duration
                // before surfacing it; messages/bits are unknown.
                Err(e) => (e, rounds_only(duration)),
            };
            if !matches!(e, AlgoError::FaultDetected { .. }) || tries >= retries {
                return Err(run.wasted(e, wasted));
            }
            let try_label = format!("{label} wasted try {tries}");
            charge(run.recovery, &mut run.ledger, try_label, wasted);
            run.recovery.restarts += 1;
            note_recovery(Restart, u64::from(tries) + 1, &label, wasted.rounds, 1);
        }
    }
    Ok(max_dist)
}

/// A carved surviving subgraph, ready for a partial-network re-root.
///
/// Produced by [`carve_survivors`]; consumed by [`heal`]'s re-root.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::{self, ExactDiameterOutcome};
    use congest::RecoveryPolicy;
    use graphs::{generators, metrics as gmetrics};

    #[test]
    fn passive_policy_is_the_fail_stop_pipeline() {
        for seed in 0..3 {
            let g = generators::random_connected(30, 0.12, seed);
            let cfg = Config::for_graph(&g);
            let out = apsp::exact_diameter(&g, cfg).unwrap();
            assert_eq!(out.diameter, gmetrics::diameter(&g).unwrap());
            assert_eq!(Some(out.radius), gmetrics::radius(&g));
            assert_eq!(out.eccentricities, gmetrics::eccentricities(&g).unwrap());
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

    fn ledger_labels(out: &ExactDiameterOutcome) -> Vec<&str> {
        out.ledger.phases().map(|(l, _, _)| l).collect()
    }

    #[test]
    fn checkpointed_clean_run_matches_reference() {
        let g = generators::random_connected(28, 0.12, 2);
        let cfg = Config::for_graph(&g).with_recovery(RecoveryPolicy::new().with_checkpoint(5));
        let out = apsp::exact_diameter(&g, cfg).unwrap();
        assert_eq!(out.diameter, gmetrics::diameter(&g).unwrap());
        assert_eq!(out.eccentricities, gmetrics::eccentricities(&g).unwrap());
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
        let cfg = Config::for_graph(&g).with_faults(FaultPlan::new(3).with_crash(4, 0));
        assert!(matches!(
            apsp::exact_diameter(&g, cfg),
            Err(AlgoError::FaultDetected { .. })
        ));
        let out = apsp::exact_diameter(&g, cfg.with_recovery(RecoveryPolicy::standard())).unwrap();
        let surviving = out.surviving.unwrap();
        // Survivors split into {0..3} and {5..11}; the larger wins.
        assert_eq!(
            surviving.nodes,
            (5..12).map(NodeId::new).collect::<Vec<_>>()
        );
        assert_eq!(surviving.excluded, 5);
        assert_eq!(out.diameter, 6);
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
            apsp::exact_diameter(&g, cfg),
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
            if let Ok(out) = apsp::exact_diameter(&g, cfg.with_recovery(policy)) {
                assert_eq!(out.diameter, reference, "seed {seed}");
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
            apsp::exact_diameter(&g, cfg).unwrap()
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
