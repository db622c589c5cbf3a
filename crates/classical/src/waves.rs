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
//!
//! The waves are the inner loop of the classical APSP baseline and of
//! every Evaluation application of Theorem 1, so both the message and the
//! node state stay small. A message carries `(τ', δ)` as 32-bit words plus
//! the two wire widths as bytes (the network size is not repeated in every
//! message), 16 bytes with its sender id. A node keeps `τ'` of its own
//! wave, `t_v + 1` (0 before any wave), `d_v` and its count of processed
//! waves in 32 bits each, and boxes its first Lemma violation, which a
//! correct run never fills: 32 bytes in all. Tour positions must therefore
//! fit 32 bits, which [`run`] checks. Whether a trace sink is installed is
//! probed once, when the program is made, not on every round. Step 3(a)'s
//! staleness rule doubles as the program's [`NodeProgram::ignores`], so
//! the network runs no node for an inbox of old waves alone, which removes
//! more than half of the node runs of a full schedule.

use congest::{bits, Config, Network, NodeProgram, Payload, Round, RoundCtx, RunStats, Status};
use graphs::{Dist, Graph, NodeId};

use crate::error::AlgoError;

#[derive(Clone, Debug)]
struct WaveMsg {
    /// Tour position of the wave's source.
    tau: u32,
    /// Distance of the *sender* from the wave's source.
    delta: Dist,
    /// Wire widths of the two fields, fixed for the whole run.
    tau_bits: u8,
    dist_bits: u8,
}

impl Payload for WaveMsg {
    fn size_bits(&self) -> usize {
        usize::from(self.tau_bits) + usize::from(self.dist_bits)
    }
}

struct WaveProgram {
    /// `Some(τ')` if this node is a wave source: its wave starts at round
    /// `2τ'`.
    source: Option<u32>,
    /// One past the highest wave processed so far (`t_v + 1` in the
    /// figure's terms; 0 before any wave).
    seen: u32,
    /// Running maximum distance recorded (`d_v` in the figure).
    max_dist: Dist,
    /// Waves processed (fresh arrivals adopted); under a full schedule
    /// every node ends at `|sources|` minus one if it is itself a source.
    processed: u32,
    tau_bits: u8,
    dist_bits: u8,
    /// Whether a trace sink was installed when the program was made; the
    /// sink is bound for the whole run, so the per-round telemetry below
    /// needs no thread-local probe.
    traced: bool,
    /// The first Lemma violation this node saw. The driver turns the
    /// earliest one into a typed error: [`AlgoError::FaultDetected`] under
    /// a fault plan, where degraded schedules are an expected outcome, and
    /// [`AlgoError::Protocol`] otherwise, where only an invalid schedule
    /// causes one. Boxed: a correct run never fills it.
    violation: Option<Box<(Round, String)>>,
}

/// Per-node result of the wave phase.
#[derive(Clone, Debug)]
struct WaveNodeOutcome {
    max_dist: Dist,
    processed: u64,
    violation: Option<(Round, String)>,
}

impl WaveProgram {
    /// Records a Lemma violation; the first one wins. Out of line, with
    /// the message built only here: a correct run never gets this far.
    #[cold]
    fn flag(&mut self, round: Round, detail: impl FnOnce() -> String) {
        if self.violation.is_none() {
            self.violation = Some(Box::new((round, detail())));
        }
    }

    fn message(&self, tau: u32, delta: Dist) -> WaveMsg {
        WaveMsg {
            tau,
            delta,
            tau_bits: self.tau_bits,
            dist_bits: self.dist_bits,
        }
    }

    /// Telemetry for the Lemmas 2–4 congestion argument: how many inbox
    /// messages carry a fresh wave, and how many distinct waves they are.
    /// Nothing is emitted when no fresh wave survives, so the trace does
    /// not depend on whether the scheduler ran this node for an inbox of
    /// stale waves. Out of line: only traced runs call it.
    #[inline(never)]
    fn trace_inbox(&self, ctx: &RoundCtx<'_, WaveMsg>) {
        let mut fresh: Vec<(u32, Dist)> = ctx
            .inbox()
            .iter()
            .filter(|&(_, msg)| !self.ignores(msg))
            .map(|&(_, WaveMsg { tau, delta, .. })| (tau, delta))
            .collect();
        if fresh.is_empty() {
            return;
        }
        let surviving = fresh.len() as u64;
        fresh.sort_unstable();
        fresh.dedup();
        trace::emit(trace::TraceEvent::Wave {
            round: ctx.round(),
            node: ctx.node().index() as u64,
            surviving,
            distinct: fresh.len() as u64,
        });
    }
}

impl NodeProgram for WaveProgram {
    type Msg = WaveMsg;
    type Output = WaveNodeOutcome;

    #[inline]
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WaveMsg>) -> Status {
        let (round, node) = (ctx.round(), ctx.node());
        // Emitted before the checks below, so a violating schedule is
        // visible in the trace (`distinct > 1`) and not only as an error.
        // Nodes without a fresh wave stay silent to bound trace volume.
        if self.traced && !ctx.inbox().is_empty() {
            self.trace_inbox(ctx);
        }
        // Step 3(a)/(b): disregard old waves; all remaining messages must be
        // identical (Lemma 4) — keep one.
        let mut kept: Option<(u32, Dist)> = None;
        let mut distinct = false;
        for (_, msg) in ctx.inbox() {
            if self.ignores(msg) {
                continue;
            }
            let WaveMsg { tau, delta, .. } = *msg;
            match kept {
                None => kept = Some((tau, delta)),
                Some(k) => distinct |= k != (tau, delta),
            }
        }
        if distinct {
            self.flag(round, || {
                format!("Lemma 4 violated at {node} round {round}: distinct concurrent waves")
            });
        }
        if let Some((tau, delta)) = kept {
            let my_dist = delta + 1;
            // Lemma 3: a first arrival happens exactly at 2τ' + d(u, v).
            if round != 2 * Round::from(tau) + Round::from(my_dist) {
                self.flag(round, || {
                    format!("Lemma 3 violated at {node}: wave {tau} arrived off schedule")
                });
            }
            self.seen = tau + 1;
            self.max_dist = self.max_dist.max(my_dist);
            self.processed += 1;
            ctx.broadcast(self.message(tau, my_dist));
        }
        // Step 2: start this node's own wave at round 2τ'(v).
        if let Some(tau) = self.source {
            let start = 2 * Round::from(tau);
            if round == start {
                if kept.is_some() {
                    self.flag(round, || {
                        format!("wave collision at source {node} round {start}")
                    });
                }
                self.seen = tau + 1;
                ctx.broadcast(self.message(tau, 0));
            }
            // Lemma 2 schedule knowledge: a source whose start round `2τ'`
            // is still ahead stages nothing before it unless an earlier
            // wave reaches it first (which re-runs it), so it sleeps until
            // then and fast-forward may jump the pipeline's lead-in.
            if start > round {
                return Status::Sleep(start);
            }
        }
        // Everyone else is purely message-driven.
        Status::Halted
    }

    /// Step 3(a): a wave older than the last one processed is disregarded.
    /// An inbox of nothing but such waves keeps `t_v` and `d_v`, sends
    /// nothing and re-casts the standing vote (a source still ahead of its
    /// start round sleeps until it again; its start round wakes it
    /// anyway), so the network need not wake a node for them.
    #[inline]
    fn ignores(&self, msg: &WaveMsg) -> bool {
        msg.tau < self.seen
    }

    fn finish(self, _node: NodeId) -> WaveNodeOutcome {
        WaveNodeOutcome {
            max_dist: self.max_dist,
            processed: u64::from(self.processed),
            violation: self.violation.map(|v| *v),
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

/// The wave program at each node of an `n`-node graph, as [`run`] starts
/// it: `taus[v]` is `Some(τ')` at a source, and `tau_bits` is the wire
/// width of a tour position.
fn program(taus: &[Option<u32>], tau_bits: usize, n: usize) -> impl Fn(NodeId) -> WaveProgram + '_ {
    // Both widths are at most 64, so they fit a byte.
    let (tau_bits, dist_bits) = (tau_bits as u8, bits::for_dist(n) as u8);
    move |v| WaveProgram {
        source: taus[v.index()],
        seen: 0,
        max_dist: 0,
        processed: 0,
        tau_bits,
        dist_bits,
        traced: trace::enabled(),
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
    let mut taus: Vec<Option<u32>> = vec![None; n];
    let mut max_tau = 1u64;
    for &(v, tau) in sources {
        if v.index() >= n {
            return Err(AlgoError::Protocol {
                reason: format!("source {v} out of range"),
            });
        }
        if taus[v.index()].is_some() {
            return Err(AlgoError::Protocol {
                reason: format!("duplicate source {v}"),
            });
        }
        // A node stores `t_v + 1` in 32 bits.
        let Some(tau32) = u32::try_from(tau).ok().filter(|&t| t < u32::MAX) else {
            return Err(AlgoError::Protocol {
                reason: format!("tour position {tau} of source {v} out of range"),
            });
        };
        taus[v.index()] = Some(tau32);
        max_tau = max_tau.max(tau);
    }
    let tau_bits = bits::for_value(max_tau);
    let fault_aware = config.has_faults();
    let mut net = Network::new(graph, config, program(&taus, tau_bits, n));
    let run = net.run_rounds(duration);
    let outcomes = net.into_outputs();
    let violation = outcomes
        .iter()
        .filter_map(|o| o.violation.clone())
        .min_by_key(|&(round, _)| round);
    let stats = AlgoError::settle_waves(run, violation, fault_aware)?;
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

    /// The send buffer holds one `(sender, message)` pair per staged entry
    /// and the network one program per node, so both stay small: the
    /// widths travel as bytes, not as `n`, and the rare violation is boxed.
    #[test]
    fn message_and_program_stay_compact() {
        use std::mem::size_of;
        assert!(size_of::<(NodeId, WaveMsg)>() <= 24);
        assert!(size_of::<WaveProgram>() <= 32);
    }

    /// A tour position too large for the 32-bit wave state is a typed
    /// error, not a truncation.
    #[test]
    fn rejects_tour_positions_beyond_32_bits() {
        let g = generators::path(2);
        let cfg = Config::for_graph(&g);
        assert!(matches!(
            run(&g, &[(NodeId::new(0), u64::from(u32::MAX))], 4, cfg),
            Err(AlgoError::Protocol { .. })
        ));
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let cfg = Config::for_graph(&g);
            let root = NodeId::new(0);
            let view = TreeView::from(&bfs::build(&g, root, cfg).unwrap());
            let steps = 2 * (g.len() as u64 - 1);
            let dfs = dfs_walk::walk(&g, &view, root, steps, cfg).unwrap();
            let taus: Vec<_> = dfs.tau.iter().map(|t| t.map(|t| t as u32)).collect();
            let tau_bits = bits::for_value(steps);
            for cfg in differential::configs(&g, seed) {
                let rounds = Run::Rounds(2 * steps + g.len() as u64 + 2);
                differential::check(&g, cfg, rounds, program(&taus, tau_bits, g.len()));
            }
        }
    }
}
