//! Classical distributed algorithms in the CONGEST model.
//!
//! These are the classical building blocks and baselines of Le Gall &
//! Magniez (PODC 2018), implemented as real message-passing programs on the
//! [`congest`] simulator:
//!
//! * [`leader`] — leader election by min-id flooding (`O(D)` rounds).
//! * [`bfs`] — the BFS-tree construction of the paper's **Figure 1**
//!   (`O(D)` rounds), extended with child discovery.
//! * [`aggregate`] — broadcast and convergecast (max / sum / argmax) along a
//!   rooted tree (`O(depth)` rounds each).
//! * [`dfs_walk`] — the token-based depth-first traversal of a BFS tree that
//!   assigns the DFS numbers `τ'(v)` of Definition 1 / Figure 2 Step 1
//!   (one tree move per round).
//! * [`waves`] — the congestion-free pipelined eccentricity waves of
//!   **Figure 2** Step 2 (after PRT12), the engine of both the classical
//!   exact-diameter baseline and the quantum Evaluation procedure.
//! * [`apsp`] — the classical exact diameter algorithm in `O(n)` rounds
//!   (PRT12 / HW12): **Table 1, row 1, classical column**.
//! * [`girth`] — the distributed girth computation of PRT12 in `O(n)`
//!   rounds, built on the same pipelined waves (the substrate paper the
//!   Figure 2 Evaluation refines).
//! * [`ecc`] — eccentricity of a single node (`O(D)` rounds), the trivial
//!   2-approximation of the diameter.
//! * [`hprw`] — the classical `3/2`-approximation of Holzer–Peleg–Roditty–
//!   Wattenhofer (DISC 2014) in `Õ(√n + D)` rounds: **Table 1, row 3,
//!   classical column**, and the preparation phase of the paper's Figure 3.
//! * [`recovery`] — how the diameter drivers heal under the
//!   [`congest::RecoveryPolicy`] their `Config` carries: bounded reseeded
//!   retries and partial-network re-roots ([`recovery::heal`]), and the
//!   wave checkpoint/restart of [`apsp::exact_diameter`]; the BFS and
//!   convergecast protocols retransmit on their own.
//!
//! Every driver returns both its *answer* and the [`congest::RunStats`] of
//! the run, because round counts are the quantity the paper is about.
//!
//! # Example
//!
//! ```
//! use classical::apsp;
//! use congest::Config;
//! use graphs::generators;
//!
//! let g = generators::cycle(16);
//! let out = apsp::exact_diameter(&g, Config::for_graph(&g))?;
//! assert_eq!(out.diameter, 8);
//! # Ok::<(), classical::AlgoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod apsp;
pub mod bfs;
pub mod dfs_walk;
pub mod ecc;
mod error;
pub mod girth;
pub mod hprw;
pub mod leader;
pub mod recovery;
pub mod source_detection;
mod tree_view;
pub mod waves;

pub use error::AlgoError;
pub use tree_view::TreeView;

/// The Network-vs-reference differential every node program's tests run.
#[cfg(test)]
pub(crate) mod differential {
    use congest::reference::Reference;
    use congest::{Config, FaultPlan, Network, NodeProgram, RecoveryPolicy, Round};
    use graphs::{generators, Graph, NodeId};

    /// How long a run lasts, as in the program's driver.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Run {
        /// `run_until_quiescent` with this round cap.
        Quiescent(Round),
        /// `run_rounds` for exactly this many rounds.
        Rounds(Round),
    }

    /// The graphs a differential covers, each with its seed.
    pub(crate) fn graphs() -> impl Iterator<Item = (u64, Graph)> {
        (0..3).map(|seed| (seed, generators::random_connected(22, 0.15, seed)))
    }

    /// The configurations a differential covers on `g`: fault-free, under
    /// a lossy, jittery plan with a crash-stop, and under the same plan
    /// with retransmission.
    pub(crate) fn configs(g: &Graph, seed: u64) -> [Config; 3] {
        let plan = FaultPlan::new(seed)
            .with_drop(0.05)
            .with_delay(0.1, 2)
            .with_crash(g.len() - 1, 3);
        let faulty = Config::for_graph(g).with_faults(plan);
        let resend = RecoveryPolicy::new().with_retransmit(2);
        [Config::for_graph(g), faulty, faulty.with_recovery(resend)]
    }

    /// Runs the program `make` builds on `graph` in both `Network` and the
    /// reference simulator, and asserts they agree on the outputs,
    /// `RunStats`, `FaultStats`, the first error, and the trace (after
    /// `expand_round_skips`), with no contract breach.
    pub(crate) fn check<P>(graph: &Graph, config: Config, run: Run, make: impl Fn(NodeId) -> P)
    where
        P: NodeProgram,
        P::Output: std::fmt::Debug,
    {
        let (got, events) = traced(|| {
            let mut net = Network::new(graph, config, &make);
            let result = match run {
                Run::Quiescent(cap) => net.run_until_quiescent(cap),
                Run::Rounds(rounds) => net.run_rounds(rounds),
            };
            (
                result,
                net.fault_stats(),
                format!("{:?}", net.into_outputs()),
            )
        });
        let (expect, expect_events) = traced(|| {
            let mut reference = Reference::new(graph, config, &make);
            let result = match run {
                Run::Quiescent(cap) => reference.run_until_quiescent(cap),
                Run::Rounds(rounds) => reference.run_rounds(rounds),
            };
            assert_eq!(reference.breach(), None, "contract breach, {config:?}");
            let faults = reference.fault_stats();
            (result, faults, format!("{:?}", reference.into_outputs()))
        });
        assert_eq!(got, expect, "{run:?}, {config:?}");
        assert_eq!(
            trace::expand_round_skips(events),
            expect_events,
            "trace, {run:?}, {config:?}"
        );
    }

    fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<trace::TraceEvent>) {
        let recorder = trace::Recorder::shared();
        let out = {
            let _guard = trace::install(recorder.clone());
            f()
        };
        let events = recorder.borrow_mut().take();
        (out, events)
    }
}
