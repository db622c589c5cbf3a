//! Distributed girth computation in `O(n)` rounds — the second half of
//! PRT12 ("Distributed algorithms for network diameter *and girth*"), the
//! algorithm whose wave machinery the paper's Figure 2 refines.
//!
//! The schedule is the same pipelined all-sources BFS as
//! [`apsp`](crate::apsp): every node `u` starts a wave at round `2τ(u)`.
//! Girth candidates come from the three ways a wave can *re-reach* a node
//! `v` at distance `d₁` from the source:
//!
//! * two or more first-arrival senders (both at `d₁ − 1`): an even closed
//!   walk through the source of length `2d₁`;
//! * a duplicate from a same-layer neighbour (`δ = d₁`): an odd closed
//!   walk of length `2d₁ + 1` (odd walks always contain an odd cycle);
//! * a duplicate from the next layer (`δ = d₁ + 1`) whose wave-parent is
//!   not `v` (ruling out the echo of `v`'s own broadcast): an even closed
//!   walk of length `2d₁ + 2`.
//!
//! Every candidate is the length of a closed walk, so it is at least the
//! girth; and a shortest cycle `C` always *produces* a candidate equal to
//! its length during the wave of any `u ∈ C` (the far side of `C` sees
//! either two first arrivals or a same-layer duplicate). The minimum over
//! all candidates, convergecast to the leader, is therefore the girth.
//!
//! Messages carry `(τ, δ, parent)` — `3 log n + O(1)` bits, still within
//! the CONGEST budget. Because waves are pipelined, duplicates of wave `τ`
//! can arrive up to two rounds after a *later* wave's first arrival, so
//! each node keeps a short ring of `(τ, d₁)` records instead of a single
//! `t_v` — still `O(log n)` memory.
//!
//! The wave order of Lemmas 3–4 is checked at runtime: a first arrival of
//! a wave older than the newest one seen, or two distinct first arrivals
//! in one round, is recorded, and [`compute`] reports the earliest as
//! [`AlgoError::FaultDetected`] under a fault plan (messages lost to drops
//! or failed links perturb the waves) and as [`AlgoError::Protocol`]
//! otherwise.

use congest::{bits, Config, Network, NodeProgram, Payload, Round, RoundCtx, RoundsLedger, Status};
use graphs::{Dist, Graph, NodeId};

use crate::aggregate::{self, Op};
use crate::bfs;
use crate::dfs_walk;
use crate::error::AlgoError;
use crate::leader;
use crate::tree_view::TreeView;

#[derive(Clone, Debug)]
struct GirthMsg {
    tau: u64,
    delta: Dist,
    /// The node from which the sender first received this wave (the sender
    /// itself at the source).
    parent: NodeId,
    /// Wire widths of the three fields, fixed for the whole run.
    tau_bits: u8,
    dist_bits: u8,
    node_bits: u8,
}

impl Payload for GirthMsg {
    fn size_bits(&self) -> usize {
        usize::from(self.tau_bits) + usize::from(self.dist_bits) + usize::from(self.node_bits)
    }
}

struct GirthProgram {
    source: Option<(u64, u64)>, // (start_round, tau)
    /// Ring of the most recent waves seen here: (τ, my distance).
    recent: Vec<(u64, Dist)>,
    best: Option<Dist>,
    tau_bits: u8,
    dist_bits: u8,
    node_bits: u8,
    /// The first Lemma 3–4 violation this node saw, as in
    /// [`waves`](crate::waves).
    violation: Option<Box<(Round, String)>>,
}

impl GirthProgram {
    /// Records a Lemma violation; the first one wins. Out of line, with
    /// the message built only here: a correct run never gets this far.
    #[cold]
    fn flag(&mut self, round: Round, detail: impl FnOnce() -> String) {
        if self.violation.is_none() {
            self.violation = Some(Box::new((round, detail())));
        }
    }

    fn message(&self, tau: u64, delta: Dist, parent: NodeId) -> GirthMsg {
        GirthMsg {
            tau,
            delta,
            parent,
            tau_bits: self.tau_bits,
            dist_bits: self.dist_bits,
            node_bits: self.node_bits,
        }
    }

    fn record(&mut self, tau: u64, dist: Dist) {
        if self.recent.len() == 4 {
            self.recent.remove(0);
        }
        self.recent.push((tau, dist));
    }

    fn dist_of(&self, tau: u64) -> Option<Dist> {
        self.recent
            .iter()
            .find(|&&(t, _)| t == tau)
            .map(|&(_, d)| d)
    }

    fn candidate(&mut self, len: Dist) {
        self.best = Some(self.best.map_or(len, |b| b.min(len)));
    }
}

impl NodeProgram for GirthProgram {
    type Msg = GirthMsg;
    type Output = (Option<Dist>, Option<(Round, String)>);

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, GirthMsg>) -> Status {
        let me = ctx.node();
        let newest = self.recent.last().map(|&(t, _)| t as i64).unwrap_or(-1);
        // Split the inbox into a (possible) new wave and duplicates.
        let mut first_arrivals: Vec<(NodeId, u64, Dist)> = Vec::new();
        for &(
            from,
            GirthMsg {
                tau, delta, parent, ..
            },
        ) in ctx.inbox()
        {
            match self.dist_of(tau) {
                Some(d1) => {
                    // Duplicate of a wave we already carry.
                    if delta == d1 {
                        self.candidate(2 * d1 + 1);
                    } else if delta == d1 + 1 && parent != me {
                        self.candidate(2 * d1 + 2);
                    }
                    // delta == d1 − 1 would be a first-arrival-round message,
                    // which reaches the other branch.
                }
                None => {
                    if tau as i64 <= newest {
                        self.flag(ctx.round(), || {
                            format!(
                                "Lemma 3 violated at {me}: wave {tau} arrived after wave {newest}"
                            )
                        });
                    }
                    first_arrivals.push((from, tau, delta));
                }
            }
        }
        if !first_arrivals.is_empty() {
            let (_, tau, delta) = first_arrivals[0];
            if first_arrivals
                .iter()
                .any(|&(_, t, d)| t != tau || d != delta)
            {
                let round = ctx.round();
                self.flag(round, || {
                    format!("Lemma 4 violated at {me} round {round}: distinct concurrent waves")
                });
            }
            let dist = delta + 1;
            self.record(tau, dist);
            if first_arrivals.len() >= 2 {
                // Two distinct senders at the same distance: even cycle.
                self.candidate(2 * dist);
            }
            let parent = first_arrivals
                .iter()
                .map(|&(f, _, _)| f)
                .min()
                .expect("nonempty");
            ctx.broadcast(self.message(tau, dist, parent));
        }
        if let Some((start, tau)) = self.source {
            if ctx.round() == start {
                self.record(tau, 0);
                ctx.broadcast(self.message(tau, 0, me));
            }
        }
        // Lemma 2 schedule knowledge: a future source is silent until its
        // start round `2τ'` unless an earlier wave reaches it first, so it
        // sleeps until then; non-sources (and already-started sources) are
        // purely message-driven.
        match self.source {
            Some((start, _)) if start > ctx.round() => Status::Sleep(start),
            _ => Status::Halted,
        }
    }

    fn finish(self, _node: NodeId) -> (Option<Dist>, Option<(Round, String)>) {
        (self.best, self.violation.map(|v| *v))
    }
}

/// Result of the distributed girth computation.
#[derive(Clone, Debug)]
pub struct GirthOutcome {
    /// The girth, or `None` if the network is a tree.
    pub girth: Option<Dist>,
    /// The elected leader that learned the answer.
    pub leader: NodeId,
    /// Per-phase accounting.
    pub ledger: RoundsLedger,
}

impl GirthOutcome {
    /// Total rounds across all phases.
    pub fn rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }
}

/// The girth-wave program at each node of an `n`-node graph, as
/// [`compute`] starts it: `starts[v]` is `Some((2τ', τ'))` at a source.
fn program(
    starts: &[Option<(u64, u64)>],
    tau_bits: usize,
    n: usize,
) -> impl Fn(NodeId) -> GirthProgram + '_ {
    // Every width is at most 64 bits, so it fits a byte.
    let (tau_bits, dist_bits, node_bits) = (
        tau_bits as u8,
        bits::for_dist(n) as u8,
        bits::for_node(n) as u8,
    );
    move |v| GirthProgram {
        source: starts[v.index()],
        recent: Vec::with_capacity(4),
        best: None,
        tau_bits,
        dist_bits,
        node_bits,
        violation: None,
    }
}

/// Computes the girth in `O(n)` rounds (PRT12).
///
/// # Errors
///
/// Returns [`AlgoError::Disconnected`] on disconnected graphs, or a wrapped
/// simulator error. A broken wave order (Lemmas 3–4) surfaces as
/// [`AlgoError::Protocol`] naming the earliest violation, or, when
/// `config` carries a fault plan, as [`AlgoError::FaultDetected`].
///
/// # Example
///
/// ```
/// use classical::girth;
/// use congest::Config;
/// use graphs::generators;
///
/// let g = generators::cycle(9);
/// let out = girth::compute(&g, Config::for_graph(&g))?;
/// assert_eq!(out.girth, Some(9));
/// # Ok::<(), classical::AlgoError>(())
/// ```
pub fn compute(graph: &Graph, config: Config) -> Result<GirthOutcome, AlgoError> {
    if graph.is_empty() {
        return Err(AlgoError::InvalidParameter {
            reason: "empty graph".into(),
        });
    }
    let n = graph.len() as u64;
    let mut ledger = RoundsLedger::new();

    let elect = leader::elect(graph, config)?;
    ledger.add("leader election", elect.stats);
    let b = bfs::build(graph, elect.leader, config)?;
    ledger.add("bfs(leader)", b.stats);
    let tree = TreeView::from(&b);

    if n == 1 {
        return Ok(GirthOutcome {
            girth: None,
            leader: elect.leader,
            ledger,
        });
    }

    let steps = 2 * (n - 1);
    let dfs = dfs_walk::walk(graph, &tree, elect.leader, steps, config)?;
    ledger.add("dfs numbering", dfs.stats);

    let tau_bits = bits::for_value(steps.max(1));
    let starts: Vec<Option<(u64, u64)>> = dfs.tau.iter().map(|t| t.map(|t| (2 * t, t))).collect();
    let fault_aware = config.has_faults();
    let mut net = Network::new(graph, config, program(&starts, tau_bits, graph.len()));
    // Two extra rounds past the diameter schedule: duplicates of the last
    // wave may arrive up to two rounds after its last first-arrival.
    let duration = 2 * steps + u64::from(b.depth) + 4;
    let run = net.run_rounds(duration);
    let (locals, violations): (Vec<_>, Vec<_>) = net.into_outputs().into_iter().unzip();
    let violation = violations
        .into_iter()
        .flatten()
        .min_by_key(|&(round, _)| round);
    let stats = AlgoError::settle_waves(run, violation, fault_aware)?;
    ledger.add("girth waves", stats);

    // Convergecast the minimum candidate; encode "no cycle seen" as n + 1
    // (every real cycle has length ≤ n).
    let sentinel = n + 1;
    let values: Vec<u64> = locals
        .iter()
        .map(|c| c.map_or(sentinel, u64::from))
        .collect();
    let agg = aggregate::convergecast(
        graph,
        &tree,
        &values,
        bits::for_value(sentinel),
        Op::Min,
        config,
    )?;
    ledger.add("min convergecast", agg.stats);

    let girth = (agg.value != sentinel).then_some(agg.value as Dist);
    Ok(GirthOutcome {
        girth,
        leader: elect.leader,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{self, Run};
    use graphs::{generators, metrics};

    fn check(g: &Graph) {
        let out = compute(g, Config::for_graph(g)).unwrap();
        assert_eq!(out.girth, metrics::girth(g), "girth mismatch on {g:?}");
    }

    #[test]
    fn matches_reference_on_families() {
        for g in [
            generators::cycle(3),
            generators::cycle(4),
            generators::cycle(17),
            generators::complete(6),
            generators::grid(3, 5),
            generators::torus(4, 5),
            generators::hypercube(4),
            generators::barbell(4, 5),
            generators::lollipop(5, 7),
            generators::ring_of_cliques(4, 3),
            generators::subdivide(&generators::cycle(4), 3), // girth 16
        ] {
            check(&g);
        }
    }

    #[test]
    fn trees_have_no_girth() {
        for g in [
            generators::path(12),
            generators::star(8),
            generators::balanced_tree(3, 3),
            generators::random_tree(25, 4),
        ] {
            let out = compute(&g, Config::for_graph(&g)).unwrap();
            assert_eq!(out.girth, None, "tree produced a cycle on {g:?}");
        }
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::random_connected(26, 0.1, seed);
            check(&g);
        }
        for seed in 0..4 {
            let g = generators::random_sparse(40, 3.0, seed);
            check(&g);
        }
        for seed in 0..4 {
            // Denser graphs: many triangles.
            let g = generators::random_connected(20, 0.35, seed);
            check(&g);
        }
    }

    #[test]
    fn single_cycle_with_long_tail() {
        // A 5-cycle with a pendant path: girth 5, diameter large.
        let mut b = graphs::GraphBuilder::new(15);
        for i in 1..5 {
            b.edge(i - 1, i);
        }
        b.edge(4, 0);
        for i in 5..15 {
            b.edge(i - 1, i);
        }
        let g = b.build();
        check(&g);
        assert_eq!(metrics::girth(&g), Some(5));
    }

    #[test]
    fn rounds_are_linear_in_n() {
        let g = generators::random_connected(50, 0.15, 2);
        let out = compute(&g, Config::for_graph(&g)).unwrap();
        let n = 50u64;
        assert!(out.rounds() >= 6 * (n - 1));
        assert!(
            out.rounds() <= 7 * n + 120,
            "rounds {} not O(n)",
            out.rounds()
        );
    }

    #[test]
    fn single_node_and_single_edge() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(compute(&g, Config::for_graph(&g)).unwrap().girth, None);
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        assert_eq!(compute(&g, Config::for_graph(&g)).unwrap().girth, None);
    }

    /// A link that goes down for two rounds mid-schedule makes a wave
    /// reach a node late, by a longer path, in the round the next wave
    /// reaches it, breaking the Lemma 3–4 wave order; under a fault plan
    /// that is a typed fault, not the girth of perturbed waves (nor, in a
    /// debug build, a panic).
    #[test]
    fn a_wave_held_back_by_a_failed_link_is_a_detected_fault() {
        let g = generators::random_connected(30, 0.12, 0);
        let plan = congest::FaultPlan::new(0).with_link_failure(8, 28, 66..68);
        match compute(&g, Config::for_graph(&g).with_faults(plan)) {
            Err(AlgoError::FaultDetected { detail, .. }) => {
                assert!(detail.contains("Lemma 4"), "{detail}");
            }
            other => panic!("expected a detected fault, got {other:?}"),
        }
    }

    #[test]
    fn program_matches_the_reference() {
        for (seed, g) in differential::graphs() {
            let cfg = Config::for_graph(&g);
            let root = NodeId::new(0);
            let b = bfs::build(&g, root, cfg).unwrap();
            let steps = 2 * (g.len() as u64 - 1);
            let dfs = dfs_walk::walk(&g, &TreeView::from(&b), root, steps, cfg).unwrap();
            let starts: Vec<_> = dfs.tau.iter().map(|t| t.map(|t| (2 * t, t))).collect();
            let tau_bits = bits::for_value(steps);
            let rounds = Run::Rounds(2 * steps + u64::from(b.depth) + 4);
            for cfg in differential::configs(&g, seed) {
                differential::check(&g, cfg, rounds, program(&starts, tau_bits, g.len()));
            }
        }
    }
}
