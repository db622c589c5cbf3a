//! The quantum `3/2`-approximation of the diameter — **Theorem 4**
//! (Section 4, **Figure 3**): `Õ(∛(nD) + D)` rounds.
//!
//! Two phases:
//!
//! 1. **Preparation** (classical, `Õ(n/s + D)` rounds) — steps 1–3 of
//!    Figure 3, shared verbatim with the classical HPRW algorithm
//!    ([`classical::hprw::prepare`]): sample `S`, find the far node
//!    `w = argmax_v d(v, S)`, grow `BFS(w)`, and let the `s` closest nodes
//!    join `R`.
//! 2. **Quantum optimization** (`Õ(√(sD) + D)` rounds) — the machinery of
//!    Section 3 with `leader` replaced by `w` and windows taken over the
//!    DFS tour of the `R`-subtree ("mod 2s" in Definition 2): maximize
//!    `f(u) = max_{v ∈ S_R(u)} ecc(v)` over `u ∈ R`, with
//!    `P_opt ≥ d/2s`.
//!
//! Choosing `s = Θ(n^{2/3} D^{-1/3})` balances `n/s` against `√(sD)`, giving
//! `Õ(∛(nD) + D)` total — below the classical `Õ(√n + D)` whenever the
//! diameter is small. The estimate `D̄` satisfies `D̄ ≤ D ≤ (3/2)D̄` w.h.p.
//! (inherited from HPRW's analysis, since both compute
//! `max_{v ∈ R} ecc(v)`).
//!
//! The quantum phase measures its schedules with the probe pair it shares
//! with Theorem 1 and runs the search-and-verify body the three drivers
//! share ([`framework`]); this module supplies the cluster, `f` over `R`
//! and the windowed Evaluation that verifies it.

use classical::hprw::{self, HprwParams};
use classical::recovery::{Healed, SurvivingComponent};
use classical::{bfs, leader};
use congest::{Config, RecoveryStats, RoundsLedger};
use graphs::traversal::Bfs;
use graphs::tree::{EulerTour, RootedTree};
use graphs::{Dist, Graph, NodeId};
use quantum::{MaximizeParams, OracleCost};

use crate::dfs_window::Windows;
use crate::evaluation;
use crate::framework::{self, DistributedOracle, Found, Instance, MemoryEstimate};
use crate::{recovery, QdError};

/// Parameters of the quantum approximation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxParams {
    /// Seed for sampling and measurement randomness.
    pub seed: u64,
    /// Allowed failure probability `δ` of the quantum phase.
    pub failure_prob: f64,
    /// Overrides the cluster size `s` (default: the paper's
    /// `Θ(n^{2/3} d^{-1/3})`).
    pub s_override: Option<usize>,
    /// Number of random branches verified against the real distributed
    /// Evaluation run.
    pub verify_branches: usize,
}

impl ApproxParams {
    /// Defaults: `δ = 0.01`, paper's `s`, one verified branch.
    pub fn new(seed: u64) -> Self {
        ApproxParams {
            seed,
            failure_prob: 0.01,
            s_override: None,
            verify_branches: 1,
        }
    }

    /// Replaces the cluster size.
    pub fn with_s(mut self, s: usize) -> Self {
        self.s_override = Some(s);
        self
    }

    /// Replaces the failure probability.
    pub fn with_failure_prob(mut self, delta: f64) -> Self {
        self.failure_prob = delta;
        self
    }
}

/// Result of the quantum `3/2`-approximation.
#[derive(Clone, Debug)]
pub struct ApproxRun {
    /// The estimate `D̄` (`D̄ ≤ D ≤ (3/2)D̄` w.h.p.).
    pub estimate: Dist,
    /// The cluster size `s` used.
    pub s: usize,
    /// `d = ecc(leader)` from the pre-pass.
    pub d: Dist,
    /// The far node `w`.
    pub w: NodeId,
    /// Classical accounting: pre-pass + Figure 3 steps 1–3.
    pub prep_ledger: RoundsLedger,
    /// Accounting of the physical probe and verification executions (as in
    /// [`DiameterRun::probe_ledger`](crate::exact::DiameterRun::probe_ledger)):
    /// simulated, traced, but excluded from [`ApproxRun::rounds`].
    pub probe_ledger: RoundsLedger,
    /// Oracle-call accounting of the quantum phase.
    pub oracle: OracleCost,
    /// Rounds of the quantum phase.
    pub quantum_rounds: u64,
    /// Measured per-operator schedules of the quantum phase.
    pub oracle_schedule: DistributedOracle,
    /// Analytic qubit requirements of the quantum phase.
    pub memory: MemoryEstimate,
    /// Whether the optimization hit its resource cap.
    pub aborted: bool,
    /// What healing the run cost; clean when it needed none.
    pub recovery: RecoveryStats,
    /// `Some` when crash-stops forced a re-root: the estimate then refers
    /// to this component, and the node ids to its component-local ones.
    pub surviving: Option<SurvivingComponent>,
}

impl ApproxRun {
    /// Total rounds: classical preparation plus the quantum phase.
    pub fn rounds(&self) -> u64 {
        self.prep_ledger.total_rounds() + self.quantum_rounds
    }

    /// Assembles a run from its preparation and its quantum phase.
    fn new(
        s: usize,
        d: Dist,
        w: NodeId,
        prep_ledger: RoundsLedger,
        memory: MemoryEstimate,
        found: Found,
    ) -> Self {
        ApproxRun {
            estimate: found.opt.value as Dist,
            s,
            d,
            w,
            prep_ledger,
            probe_ledger: found.probe_ledger,
            oracle: found.opt.oracle,
            quantum_rounds: found.opt.quantum_rounds,
            oracle_schedule: found.schedule,
            memory,
            aborted: found.opt.aborted,
            recovery: RecoveryStats::default(),
            surviving: None,
        }
    }
}

impl Healed for ApproxRun {
    fn healing(&mut self) -> (&mut RecoveryStats, &mut Option<SurvivingComponent>) {
        (&mut self.recovery, &mut self.surviving)
    }
}

/// The paper's cluster size `s = ⌈n^{2/3} / d^{1/3}⌉`, clamped to `[1, n]`.
pub fn paper_cluster_size(n: usize, d: Dist) -> usize {
    let nf = n as f64;
    let df = f64::from(d.max(1));
    (nf.powf(2.0 / 3.0) / df.powf(1.0 / 3.0))
        .ceil()
        .max(1.0)
        .min(nf) as usize
}

/// Computes a `3/2`-approximation of the diameter with the
/// `Õ(∛(nD) + D)`-round quantum algorithm of Theorem 4, healing detected
/// faults per [`Config::recovery`]. After a re-root the estimate refers
/// to the surviving component.
///
/// # Errors
///
/// As for [`exact::diameter`](crate::exact::diameter), plus
/// [`classical::AlgoError::Aborted`] (wrapped) if the sampling guard of
/// Figure 3 step 1 fires.
///
/// # Example
///
/// ```
/// use diameter_quantum::approx::{self, ApproxParams};
/// use congest::Config;
/// use graphs::{generators, metrics};
///
/// let g = generators::grid(5, 5);
/// let out = approx::diameter(&g, ApproxParams::new(3), Config::for_graph(&g))?;
/// let d = metrics::diameter(&g).unwrap();
/// assert!(out.estimate <= d && out.estimate >= (2 * d) / 3);
/// # Ok::<(), diameter_quantum::QdError>(())
/// ```
pub fn diameter(graph: &Graph, params: ApproxParams, config: Config) -> Result<ApproxRun, QdError> {
    recovery::healed(graph, config, recovery::APPROX, |g, c| {
        attempt(g, params, c)
    })
}

/// One attempt of [`diameter`].
fn attempt(graph: &Graph, params: ApproxParams, config: Config) -> Result<ApproxRun, QdError> {
    let n = framework::nodes(graph)?;
    let _driver_span = ::metrics::span("approx");
    let prep_span = ::metrics::span("prep");
    let mut prep_ledger = RoundsLedger::new();

    // Pre-pass: leader + BFS(leader) to learn d = ecc(leader) (needed to
    // pick s; costs O(D), absorbed in the Õ(D) term).
    let elect = leader::elect(graph, config)?;
    prep_ledger.add("pre-pass: leader election", elect.stats);
    let bl = bfs::build(graph, elect.leader, config)?;
    prep_ledger.add("pre-pass: bfs(leader)", bl.stats);
    let d = bl.depth;

    if n == 1 || d == 0 {
        let memory = framework::memory_estimate(n, 1, 1.0);
        return Ok(ApproxRun::new(
            1,
            d,
            elect.leader,
            prep_ledger,
            memory,
            Found::default(),
        ));
    }

    let s = params
        .s_override
        .unwrap_or_else(|| paper_cluster_size(n, d))
        .clamp(1, n);

    // Phase 1: Figure 3 steps 1-3 (shared with classical HPRW).
    let prep = hprw::prepare(graph, HprwParams::with_s(s, params.seed), config)?;
    // extend_prefixed (not add_scaled) so installed trace sinks are not
    // handed a second span for phases hprw::prepare already emitted.
    prep_ledger.extend_prefixed("figure 3: ", &prep.ledger);
    let r_size = prep.r_set.len();

    // Compact the R-subtree of BFS(w) for the window structure.
    let r_index: Vec<usize> = prep.r_set.iter().map(|v| v.index()).collect();
    let mut compact_of = vec![usize::MAX; n];
    for (ci, &gi) in r_index.iter().enumerate() {
        compact_of[gi] = ci;
    }
    let r_tree = prep.w_tree.restrict(|v| prep.r_member[v.index()])?;
    let compact_parents: Vec<Option<NodeId>> = r_index
        .iter()
        .map(|&gi| {
            r_tree
                .parent(NodeId::new(gi))
                .map(|p| NodeId::new(compact_of[p.index()]))
        })
        .collect();
    let rooted =
        RootedTree::from_parents(&compact_parents).map_err(|e| QdError::InvalidParameter {
            reason: e.to_string(),
        })?;
    let tour = EulerTour::new(&rooted);

    // Branch values: ecc of each R node (closed form), then window maxima.
    let mut r_eccs = Vec::with_capacity(r_size);
    for &gi in &r_index {
        let e = Bfs::run(graph, NodeId::new(gi))
            .eccentricity()
            .ok_or(QdError::Classical(classical::AlgoError::Disconnected))?;
        r_eccs.push(e);
    }
    let f = Windows::new(&tour, 2 * d as usize).window_max(&r_eccs);
    drop(prep_span);

    // Measured schedules: Setup = broadcast over BFS(w); Evaluation = the
    // windowed Figure 2 run (walk on the R-subtree, aggregation on BFS(w)).
    let (schedule, probe_ledger) =
        framework::probe(graph, &r_tree, &prep.w_tree, d, prep.w, config)?;

    // P_opt ≥ d/2s (Section 4's Lemma-1 analogue); fall back to the exact
    // optimum mass if the instance is worse than the promise (possible when
    // the R-subtree is deeper than d).
    let best = f.iter().copied().max().unwrap_or(0);
    let popt_actual = f.iter().filter(|&&v| v == best).count() as f64 / r_size as f64;
    let promise = (f64::from(d) / (2.0 * r_size as f64)).clamp(1.0 / r_size as f64, 1.0);
    let min_mass = promise.min(popt_actual);

    let memory = framework::memory_estimate(n, r_size, min_mass);
    framework::emit_memory(&memory);

    let found = Instance {
        f: &f,
        schedule,
        probe_ledger,
        params: MaximizeParams::with_min_mass(min_mass).with_failure_prob(params.failure_prob),
        seed: params.seed ^ 0x9E37_79B9_7F4A_7C15,
        verify_branches: params.verify_branches,
        label: "diameter estimate",
    }
    .search_and_verify(|ci, ledger| {
        let u0 = NodeId::new(r_index[ci]);
        let run = evaluation::run_windowed(graph, &r_tree, &prep.w_tree, d, u0, config)?;
        ledger.extend_prefixed(&format!("verify u={}: ", u0.index()), &run.ledger);
        Ok(run.value)
    })?;
    Ok(ApproxRun::new(s, d, prep.w, prep_ledger, memory, found))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, metrics};

    fn check(g: &Graph, seed: u64) -> ApproxRun {
        let out = diameter(
            g,
            ApproxParams::new(seed).with_failure_prob(1e-3),
            Config::for_graph(g),
        )
        .unwrap();
        let d = metrics::diameter(g).unwrap();
        assert!(
            out.estimate <= d,
            "estimate {} above diameter {d}",
            out.estimate
        );
        // HPRW's guarantee is the floor form: ⌊2D/3⌋ ≤ D̄.
        assert!(
            out.estimate >= (2 * d) / 3,
            "estimate {} below ⌊2D/3⌋ (D={d})",
            out.estimate
        );
        out
    }

    #[test]
    fn bounds_on_families() {
        for (g, seed) in [
            (generators::cycle(40), 1u64),
            (generators::grid(6, 7), 2),
            (generators::lollipop(10, 20), 3),
            (generators::barbell(8, 16), 4),
            (generators::balanced_tree(2, 5), 5),
        ] {
            check(&g, seed);
        }
    }

    #[test]
    fn bounds_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::random_connected(48, 0.08, seed);
            check(&g, seed + 50);
        }
    }

    /// The quantum estimate matches the classical HPRW estimate exactly —
    /// both compute max_{v ∈ R} ecc(v) (with the same R when seeded alike).
    #[test]
    fn agrees_with_classical_hprw() {
        let g = generators::random_connected(40, 0.1, 7);
        let cfg = Config::for_graph(&g);
        let q = diameter(&g, ApproxParams::new(11).with_s(9), cfg).unwrap();
        let c = hprw::approx_diameter(&g, HprwParams::with_s(9, 11), cfg).unwrap();
        assert_eq!(q.estimate, c.estimate);
    }

    /// As in `exact`: oversampling verification branches far beyond the
    /// cluster-set size must not re-run any windowed evaluation — every
    /// `verify u=` ledger phase stays unique.
    #[test]
    fn verification_branches_are_deduplicated() {
        use std::collections::HashSet;
        let g = generators::cycle(24);
        let params = ApproxParams {
            verify_branches: 16,
            ..ApproxParams::new(5).with_s(6)
        };
        let out = diameter(&g, params, Config::for_graph(&g)).unwrap();
        let mut seen = HashSet::new();
        let mut found = false;
        for (label, _, _) in out.probe_ledger.phases() {
            if !label.starts_with("verify u=") {
                continue;
            }
            found = true;
            assert!(seen.insert(label.to_string()), "duplicate phase {label}");
        }
        assert!(found, "no verification phases recorded");
    }

    #[test]
    fn cluster_size_follows_the_paper() {
        assert_eq!(paper_cluster_size(1000, 10), 47); // 1000^(2/3)/10^(1/3) = 100/2.154...
        assert_eq!(paper_cluster_size(8, 1), 4);
        assert!(paper_cluster_size(10, 1000) >= 1);
    }

    #[test]
    fn tiny_graphs() {
        let g = Graph::from_edges(1, []).unwrap();
        let out = diameter(&g, ApproxParams::new(0), Config::for_graph(&g)).unwrap();
        assert_eq!(out.estimate, 0);
        let g2 = generators::complete(2);
        let out = diameter(&g2, ApproxParams::new(0), Config::for_graph(&g2)).unwrap();
        assert_eq!(out.estimate, 1);
    }

    #[test]
    fn disconnected_fails() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(diameter(&g, ApproxParams::new(0), Config::for_graph(&g)).is_err());
    }
}
