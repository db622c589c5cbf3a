//! `congest-diameter` — a reproduction of Le Gall & Magniez,
//! *Sublinear-Time Quantum Computation of the Diameter in CONGEST
//! Networks* (PODC 2018).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`graphs`] — graph substrate: representation, reference algorithms,
//!   generators.
//! * [`congest`] — the round-synchronous CONGEST-model simulator with
//!   bandwidth accounting.
//! * [`quantum`] — amplitude amplification (Theorem 6), quantum maximum
//!   finding (Corollary 1), and a gate-level state-vector simulator.
//! * [`classical`] — the classical distributed baselines: BFS (Figure 1),
//!   pipelined APSP (`O(n)` exact diameter), the HPRW `3/2`-approximation.
//! * [`quantum_diameter`] — the paper's contribution: distributed quantum
//!   optimization (Theorem 7), the exact `O(√(nD))`-round algorithm
//!   (Theorem 1, Figure 2), and the `Õ(∛(nD) + D)`-round
//!   `3/2`-approximation (Theorem 4, Figure 3).
//! * [`commcc`] — the lower-bound machinery: disjointness reductions
//!   (Theorems 8–9, Figures 4, 5, 8) and the two-party simulation argument
//!   (Theorems 10–11, Figures 6–7).
//!
//! # Quickstart
//!
//! ```
//! use congest_diameter::prelude::*;
//!
//! let g = graphs::generators::random_connected(64, 0.1, 1);
//! let cfg = congest::Config::for_graph(&g);
//!
//! // Classical exact diameter: Θ(n) rounds.
//! let classical = classical::apsp::exact_diameter(&g, cfg)?;
//! // Quantum exact diameter (Theorem 1): Õ(√(nD)) rounds.
//! let quantum = quantum_diameter::exact::diameter(&g, ExactParams::new(7), cfg)?;
//!
//! assert_eq!(classical.diameter, quantum.value);
//! // The classical round count grows like n, the quantum one like √(nD);
//! // the crossover point depends on the (real, unhidden) constants — see
//! // the `separation` example and EXPERIMENTS.md for the measured slopes.
//! println!("classical {} vs quantum {} rounds", classical.rounds(), quantum.rounds());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Compiles and runs every fenced Rust block in README.md as a doctest, so
/// the quickstart can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub mod cli;
pub mod crossover;

pub use classical;
pub use commcc;
pub use congest;
/// The paper's quantum diameter algorithms (the `diameter-quantum` crate).
pub use diameter_quantum as quantum_diameter;
pub use graphs;
pub use quantum;

/// Convenient glob-import surface for examples and downstream experiments.
pub mod prelude {
    pub use classical::{self, AlgoError};
    pub use commcc::{self, reduction::Reduction};
    pub use congest::{self, Config, RunStats};
    pub use diameter_quantum as quantum_diameter;
    pub use diameter_quantum::approx::ApproxParams;
    pub use diameter_quantum::exact::ExactParams;
    pub use diameter_quantum::QdError;
    pub use graphs::{self, Graph, NodeId};
    pub use quantum::{self, SearchState};
}
