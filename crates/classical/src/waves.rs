//! Pipelined eccentricity waves — Step 2 of the paper's Figure 2 (after
//! PRT12).
//!
//! Every source `u` starts a BFS wave at round `2τ'(u)`, where `τ'` are DFS
//! tour positions. Because consecutive tour positions are adjacent on the
//! tree, `d(u, v) ≤ τ'(v) − τ'(u)` (Lemma 2), which staggers the waves so
//! that **first arrivals at any node come in strictly increasing `τ'` order**
//! (Lemma 3) and all messages kept in one round are identical (Lemma 4).
//! Hence each node processes at most one wave per round — no congestion —
//! and needs only `O(log n)` bits of state: the last wave seen `t_v` and the
//! running maximum `d_v`.
//!
//! At the end, `max_v d_v = max_u ecc(u)` over all sources `u` (every
//! pairwise distance `d(u, v)` was recorded at `v`).
//!
//! The figure's Lemma 3 identity — a wave from `u` first reaches `v` exactly
//! at round `2τ'(u) + d(u, v)` — is checked at runtime on every receipt,
//! and wave collisions at a starting source are rejected. (A schedule
//! violating Lemma 2 can also silently *block* a wave — an inherently
//! undetectable condition with `O(log n)` memory — so correctness is
//! additionally verified against centralized ground truth in the tests.)
//!
//! One bookkeeping note: the figure broadcasts `(τ', 0)` from the source and
//! lets receivers record `δ`; we record `δ + 1` at the receiver (its true
//! distance from the source) and rebroadcast `(τ', δ + 1)`, which keeps
//! `d_v = max_u d(u, v)` exactly.

use congest::{bits, Config, Network, NodeProgram, Payload, Round, RoundCtx, RunStats, Status};
use graphs::{Dist, Graph, NodeId};

use crate::error::AlgoError;

#[derive(Clone, Debug)]
struct WaveMsg {
    /// Tour position of the wave's source.
    tau: u64,
    /// Distance of the *sender* from the wave's source.
    delta: Dist,
    tau_bits: usize,
    n: usize,
}

impl Payload for WaveMsg {
    fn size_bits(&self) -> usize {
        self.tau_bits + bits::for_dist(self.n)
    }
}

struct WaveProgram {
    /// `Some((start_round, tau))` if this node is a wave source.
    source: Option<(Round, u64)>,
    /// Highest wave processed so far (`t_v` in the figure; -1 initially).
    last_tau: i64,
    /// Running maximum distance recorded (`d_v` in the figure).
    max_dist: Dist,
    /// Waves processed (fresh arrivals adopted); under a full schedule
    /// every node ends at `|sources|` minus one if it is itself a source.
    processed: u64,
    tau_bits: usize,
    /// The first Lemma violation this node saw. The driver turns the
    /// earliest one into a typed error: [`AlgoError::FaultDetected`] under
    /// a fault plan, where degraded schedules are an expected outcome, and
    /// [`AlgoError::Protocol`] otherwise, where only an invalid schedule
    /// causes one.
    violation: Option<(Round, String)>,
}

/// Per-node result of the wave phase.
#[derive(Clone, Debug)]
struct WaveNodeOutcome {
    max_dist: Dist,
    processed: u64,
    violation: Option<(Round, String)>,
}

impl WaveProgram {
    /// Records a Lemma violation; the first one wins.
    fn flag(&mut self, round: Round, detail: String) {
        if self.violation.is_none() {
            self.violation = Some((round, detail));
        }
    }
}

impl NodeProgram for WaveProgram {
    type Msg = WaveMsg;
    type Output = WaveNodeOutcome;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WaveMsg>) -> Status {
        // Telemetry for the Lemmas 2–4 congestion argument, emitted before
        // the checks below so a violating schedule is visible in the trace
        // (`distinct > 1`) and not only as an error. Nodes with empty
        // inboxes stay silent to bound trace volume.
        if !ctx.inbox().is_empty() {
            trace::emit_with(|| {
                let mut fresh: Vec<(u64, Dist)> = ctx
                    .inbox()
                    .iter()
                    .filter(|&&(_, WaveMsg { tau, .. })| (tau as i64) > self.last_tau)
                    .map(|&(_, WaveMsg { tau, delta, .. })| (tau, delta))
                    .collect();
                let surviving = fresh.len() as u64;
                fresh.sort_unstable();
                fresh.dedup();
                trace::TraceEvent::Wave {
                    round: ctx.round(),
                    node: ctx.node().index() as u64,
                    surviving,
                    distinct: fresh.len() as u64,
                }
            });
        }
        // Step 3(a)/(b): disregard old waves; all remaining messages must be
        // identical (Lemma 4) — keep one.
        let mut kept: Option<(u64, Dist)> = None;
        for &(_, WaveMsg { tau, delta, .. }) in ctx.inbox() {
            if (tau as i64) <= self.last_tau {
                continue;
            }
            match kept {
                None => kept = Some((tau, delta)),
                Some(k) => {
                    if k != (tau, delta) {
                        self.flag(
                            ctx.round(),
                            format!(
                                "Lemma 4 violated at {} round {}: distinct concurrent waves",
                                ctx.node(),
                                ctx.round()
                            ),
                        );
                    }
                }
            }
        }
        if let Some((tau, delta)) = kept {
            let my_dist = delta + 1;
            // Lemma 3: a first arrival happens exactly at 2τ' + d(u, v).
            if ctx.round() != 2 * tau + my_dist as Round {
                self.flag(
                    ctx.round(),
                    format!(
                        "Lemma 3 violated at {}: wave {tau} arrived off schedule",
                        ctx.node()
                    ),
                );
            }
            self.last_tau = tau as i64;
            self.max_dist = self.max_dist.max(my_dist);
            self.processed += 1;
            ctx.broadcast(WaveMsg {
                tau,
                delta: my_dist,
                tau_bits: self.tau_bits,
                n: ctx.num_nodes(),
            });
        }
        // Step 2: start this node's own wave at round 2τ'(v).
        if let Some((start, tau)) = self.source {
            if ctx.round() == start {
                if kept.is_some() {
                    self.flag(
                        ctx.round(),
                        format!("wave collision at source {} round {start}", ctx.node()),
                    );
                }
                self.last_tau = tau as i64;
                ctx.broadcast(WaveMsg {
                    tau,
                    delta: 0,
                    tau_bits: self.tau_bits,
                    n: ctx.num_nodes(),
                });
            }
        }
        // Lemma 2 schedule knowledge: a source whose start round `2τ'` is
        // still ahead stages nothing before it unless an earlier wave
        // reaches it first (which re-runs it), so it sleeps until then and
        // fast-forward may jump the pipeline's lead-in; everyone else is
        // purely message-driven.
        match self.source {
            Some((start, _)) if start > ctx.round() => Status::Sleep(start),
            _ => Status::Halted,
        }
    }

    fn finish(self, _node: NodeId) -> WaveNodeOutcome {
        WaveNodeOutcome {
            max_dist: self.max_dist,
            processed: self.processed,
            violation: self.violation,
        }
    }
}

/// Result of a wave phase.
#[derive(Clone, Debug)]
pub struct WaveOutcome {
    /// Per node `v`: `max_u d(u, v)` over all wave sources `u` whose wave
    /// reached `v` within the duration.
    pub max_dist: Vec<Dist>,
    /// Per node: waves processed (fresh arrivals adopted). Under a
    /// fault-free schedule whose duration covers full propagation this is
    /// `|sources|` everywhere (one less at nodes that are sources).
    pub processed: Vec<u64>,
    /// Round/bit accounting.
    pub stats: RunStats,
}

impl WaveOutcome {
    /// The global maximum — `max_{u ∈ sources} ecc(u)` when the duration
    /// covered full propagation.
    pub fn global_max(&self) -> Dist {
        self.max_dist.iter().copied().max().unwrap_or(0)
    }

    /// Completeness check for schedules whose duration covers full
    /// propagation: every node must have processed one wave per source
    /// (its own excepted). A shortfall means waves were lost or stalled —
    /// under a fault plan, the expected symptom of message loss.
    ///
    /// # Errors
    ///
    /// [`AlgoError::FaultDetected`] naming the first underfed node;
    /// `round` is the end of the wave phase (the earliest round at which
    /// the shortfall is decidable).
    pub fn verify_complete(&self, sources: &[(NodeId, u64)]) -> Result<(), AlgoError> {
        let mut is_source = vec![false; self.processed.len()];
        for &(v, _) in sources {
            is_source[v.index()] = true;
        }
        let total = sources.len() as u64;
        for (i, &processed) in self.processed.iter().enumerate() {
            let expected = total - u64::from(is_source[i]);
            if processed != expected {
                return Err(AlgoError::FaultDetected {
                    round: self.stats.rounds,
                    detail: format!(
                        "node {i} processed {processed} of {expected} waves: \
                         wave messages were lost or stalled"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The wave program at each node, as [`run`] starts it: `starts[v]` is
/// `Some((2τ', τ'))` at a source.
fn program(
    starts: &[Option<(Round, u64)>],
    tau_bits: usize,
) -> impl Fn(NodeId) -> WaveProgram + '_ {
    move |v| WaveProgram {
        source: starts[v.index()],
        last_tau: -1,
        max_dist: 0,
        processed: 0,
        tau_bits,
        violation: None,
    }
}

/// Runs the pipelined wave phase for exactly `duration` rounds.
///
/// `sources` maps each source node to its tour position `τ'`; its wave
/// starts at round `2τ'`. The schedule must satisfy Lemma 2
/// (`d(u, v) ≤ τ'(v) − τ'(u)` for sources `u, v` with `τ'(u) < τ'(v)`),
/// which holds whenever the positions come from a DFS walk
/// ([`dfs_walk`](crate::dfs_walk)); violations are detected at runtime.
///
/// `duration` must cover `2·max τ' + max ecc(source)`; Figure 2 uses `6d`
/// (with `τ' ≤ 2d` and eccentricities at most `D ≤ 2d`).
///
/// # Errors
///
/// Returns a wrapped simulator error; `Protocol` on malformed inputs.
/// A broken schedule invariant (Lemmas 3–4, source collisions) surfaces
/// as [`AlgoError::Protocol`] naming the earliest violation, or, when
/// `config` carries a fault plan, as [`AlgoError::FaultDetected`] naming
/// the first offending round.
pub fn run(
    graph: &Graph,
    sources: &[(NodeId, u64)],
    duration: Round,
    config: Config,
) -> Result<WaveOutcome, AlgoError> {
    let n = graph.len();
    let mut starts: Vec<Option<(Round, u64)>> = vec![None; n];
    let mut max_tau = 1u64;
    for &(v, tau) in sources {
        if v.index() >= n {
            return Err(AlgoError::Protocol {
                reason: format!("source {v} out of range"),
            });
        }
        if starts[v.index()].is_some() {
            return Err(AlgoError::Protocol {
                reason: format!("duplicate source {v}"),
            });
        }
        starts[v.index()] = Some((2 * tau, tau));
        max_tau = max_tau.max(tau);
    }
    let tau_bits = bits::for_value(max_tau);
    let fault_aware = config.has_faults();
    let mut net = Network::new(graph, config, program(&starts, tau_bits));
    let run = net.run_rounds(duration);
    let outcomes = net.into_outputs();
    let violation = outcomes
        .iter()
        .filter_map(|o| o.violation.clone())
        .min_by_key(|&(round, _)| round);
    if !fault_aware {
        // Fault-free, only an invalid schedule violates a Lemma, and the
        // violation comes no later than any simulator error it causes (a
        // collision makes its source send twice), so it is reported first.
        if let Some((_, reason)) = violation {
            return Err(AlgoError::Protocol { reason });
        }
    }
    let stats = run.map_err(|e| AlgoError::from_congest(e, fault_aware))?;
    if let Some((round, detail)) = violation {
        return Err(AlgoError::FaultDetected { round, detail });
    }
    let (max_dist, processed) = outcomes
        .into_iter()
        .map(|o| (o.max_dist, o.processed))
        .unzip();
    Ok(WaveOutcome {
        max_dist,
        processed,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Run};
    use crate::{bfs, dfs_walk, TreeView};
    use graphs::{generators, metrics, traversal::Bfs};

    /// Full-tour wave schedule on a random graph must compute every node's
    /// `max_u d(u, v)` = eccentricity-transpose, whose max is the diameter.
    #[test]
    fn full_schedule_computes_diameter() {
        for seed in 0..4 {
            let g = generators::random_connected(26, 0.12, seed);
            let cfg = Config::for_graph(&g);
            let root = NodeId::new(0);
            let b = bfs::build(&g, root, cfg).unwrap();
            let view = TreeView::from(&b);
            let steps = 2 * (g.len() as u64 - 1);
            let dfs = dfs_walk::walk(&g, &view, root, steps, cfg).unwrap();
            let sources: Vec<(NodeId, u64)> = g
                .nodes()
                .map(|v| (v, dfs.tau[v.index()].unwrap()))
                .collect();
            let duration = 2 * steps + g.len() as u64 + 2;
            let out = run(&g, &sources, duration, cfg).unwrap();
            assert_eq!(out.global_max(), metrics::diameter(&g).unwrap());
            // Per-node check: max over u of d(u, v).
            for v in g.nodes() {
                let expect = g
                    .nodes()
                    .map(|u| Bfs::run(&g, u).dist(v).unwrap())
                    .max()
                    .unwrap();
                assert_eq!(out.max_dist[v.index()], expect, "node {v}");
            }
        }
    }

    /// A windowed schedule (sources = a DFS segment) computes
    /// `max_{u ∈ S} ecc(u)` — the Evaluation value of Figure 2.
    #[test]
    fn windowed_schedule_computes_window_max_ecc() {
        let g = generators::random_connected(24, 0.14, 3);
        let cfg = Config::for_graph(&g);
        let root = NodeId::new(0);
        let b = bfs::build(&g, root, cfg).unwrap();
        let d = b.depth.max(1) as u64;
        let view = TreeView::from(&b);
        let eccs = metrics::eccentricities(&g).unwrap();
        for start in [0usize, 5, 17] {
            let dfs = dfs_walk::walk(&g, &view, NodeId::new(start), 2 * d, cfg).unwrap();
            let sources: Vec<(NodeId, u64)> = dfs
                .tau
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (NodeId::new(i), t)))
                .collect();
            let expect = sources.iter().map(|&(v, _)| eccs[v.index()]).max().unwrap();
            let out = run(&g, &sources, 6 * d + 2, cfg).unwrap();
            assert_eq!(out.global_max(), expect, "window from {start}");
        }
    }

    #[test]
    fn single_source_wave_is_a_bfs() {
        let g = generators::grid(4, 5);
        let cfg = Config::for_graph(&g);
        let src = NodeId::new(7);
        let out = run(&g, &[(src, 0)], 2 * g.len() as u64, cfg).unwrap();
        let bfs = Bfs::run(&g, src);
        for v in g.nodes() {
            if v == src {
                assert_eq!(out.max_dist[v.index()], 0);
            } else {
                assert_eq!(out.max_dist[v.index()], bfs.dist(v).unwrap());
            }
        }
    }

    #[test]
    fn duration_cuts_off_propagation() {
        let g = generators::path(10);
        let cfg = Config::for_graph(&g);
        let out = run(&g, &[(NodeId::new(0), 0)], 3, cfg).unwrap();
        // With 3 executed rounds (0, 1, 2), the wave has been processed by
        // nodes at distance ≤ 2; node 3's delivery round never ran.
        assert_eq!(out.max_dist[2], 2);
        assert_eq!(out.max_dist[3], 0, "wave must not have reached node 3 yet");
    }

    /// Traced full-schedule run: the Lemma 4 invariant — at most one
    /// distinct surviving wave per node per round — shows up as a metric.
    #[test]
    fn traced_waves_respect_the_one_survivor_invariant() {
        let g = generators::random_connected(26, 0.12, 1);
        let cfg = Config::for_graph(&g);
        let root = NodeId::new(0);
        let b = bfs::build(&g, root, cfg).unwrap();
        let view = TreeView::from(&b);
        let steps = 2 * (g.len() as u64 - 1);
        let dfs = dfs_walk::walk(&g, &view, root, steps, cfg).unwrap();
        let sources: Vec<(NodeId, u64)> = g
            .nodes()
            .map(|v| (v, dfs.tau[v.index()].unwrap()))
            .collect();
        let recorder = trace::Recorder::shared();
        {
            let _guard = trace::install(recorder.clone());
            run(&g, &sources, 2 * steps + g.len() as u64 + 2, cfg).unwrap();
        }
        let events = recorder.borrow_mut().take();
        let summary = trace::Summary::from_events(&events);
        assert!(summary.wave_observations > 0, "waves must be observed");
        assert!(summary.wave_max_surviving >= 1);
        assert_eq!(
            summary.wave_max_distinct, 1,
            "Lemma 4: one distinct wave per round"
        );
    }

    #[test]
    fn rejects_bad_sources() {
        let g = generators::path(4);
        let cfg = Config::for_graph(&g);
        assert!(matches!(
            run(&g, &[(NodeId::new(9), 0)], 4, cfg),
            Err(AlgoError::Protocol { .. })
        ));
        assert!(matches!(
            run(&g, &[(NodeId::new(1), 0), (NodeId::new(1), 2)], 4, cfg),
            Err(AlgoError::Protocol { .. })
        ));
    }

    /// An invalid schedule violating Lemma 2 (`d(u,v) ≤ τ'(v) − τ'(u)` fails
    /// for the pair below: d = 4 > 2 − 0) makes an earlier wave collide with
    /// a source's own start, which a fault-free run reports as a typed
    /// protocol error.
    #[test]
    fn invalid_schedule_trips_lemma_assertions() {
        let g = generators::path(5);
        let cfg = Config::for_graph(&g);
        // Wave of node 0 (τ'=0) reaches node 4 at round 4 — exactly when
        // node 4 (τ'=2) starts its own wave.
        match run(&g, &[(NodeId::new(0), 0), (NodeId::new(4), 2)], 20, cfg) {
            Err(AlgoError::Protocol { reason }) => {
                assert!(reason.contains("wave collision"), "{reason}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let cfg = Config::for_graph(&g);
            let root = NodeId::new(0);
            let view = TreeView::from(&bfs::build(&g, root, cfg).unwrap());
            let steps = 2 * (g.len() as u64 - 1);
            let dfs = dfs_walk::walk(&g, &view, root, steps, cfg).unwrap();
            let starts: Vec<_> = dfs.tau.iter().map(|t| t.map(|t| (2 * t, t))).collect();
            let tau_bits = bits::for_value(steps);
            for cfg in differential::configs(&g, seed) {
                let rounds = Run::Rounds(2 * steps + g.len() as u64 + 2);
                differential::check(&g, cfg, rounds, program(&starts, tau_bits));
            }
        }
    }
}
