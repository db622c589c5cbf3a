//! Quantum distributed diameter computation in the CONGEST model — the
//! primary contribution of Le Gall & Magniez, *Sublinear-Time Quantum
//! Computation of the Diameter in CONGEST Networks* (PODC 2018).
//!
//! # What this crate implements
//!
//! * [`framework`] — **distributed quantum optimization** (Section 2.4,
//!   Theorem 7): a leader node runs quantum maximum finding (Corollary 1)
//!   whose `Setup` and `Evaluation` oracles are distributed procedures with
//!   fixed round schedules; every oracle application is charged its full
//!   schedule, converting oracle counts into CONGEST rounds. Its one
//!   search-and-verify body serves [`exact`], [`exact_simple`] and
//!   [`approx`], which supply only their branch values and Evaluation.
//! * [`dfs_window`] — the DFS-numbering windows `S(u)` (Definitions 1–2),
//!   the coverage bound of **Lemma 1** (`Pr[v ∈ S(u₀)] ≥ d/2n`), and the
//!   closed-form window maximum `f(u) = max_{v∈S(u)} ecc(v)` (Equation 2).
//! * [`evaluation`] — the **Figure 2** Evaluation procedure as a real
//!   message-passing program (partial DFS walk, pipelined waves,
//!   convergecast, uncompute), with its `O(d)` round schedule.
//! * [`exact_simple`] — the simpler `O(√n · D)`-round algorithm of
//!   Section 3.1 (`f(u) = ecc(u)`, `P_opt ≥ 1/n`).
//! * [`exact`] — the final `O(√(nD))`-round algorithm of **Theorem 1**
//!   (Sections 3.2–3.3), using the windowed `f` to push `P_opt` up to
//!   `d/2n`.
//! * [`approx`] — the `Õ(∛(nD) + D)`-round quantum `3/2`-approximation of
//!   **Theorem 4** (Section 4, Figure 3): the classical HPRW preparation
//!   followed by quantum optimization over the cluster `R`.
//! * [`recovery`] — how [`exact`], [`exact_simple`] and [`approx`] heal
//!   under the [`congest::RecoveryPolicy`] their `Config` carries: bounded
//!   reseeded retries and partial-network semantics for crash-stops.
//!
//! # How the quantum side is simulated
//!
//! The algorithms keep the network in states of the form
//! `Σ_u α_u |u⟩_I ⊗_v |u⟩_v |data(u)⟩`: a superposition of *classically
//! evolving branches* indexed by the candidate `u`, because `Setup` and
//! `Evaluation` are reversible classical procedures run in superposition
//! (Section 2.3). The `quantum` crate tracks the exact amplitude vector over
//! branches; this crate supplies the branch values `f(u)` (verified against
//! the real distributed Figure 2 program — see [`evaluation`]) and the round
//! schedules of the distributed oracles (measured from real runs of those
//! programs on the CONGEST simulator). Round counts are therefore exactly
//! what a physical quantum CONGEST execution would incur.
//!
//! # Example
//!
//! ```
//! use diameter_quantum::exact::{self, ExactParams};
//! use congest::Config;
//! use graphs::generators;
//!
//! let g = generators::cycle(24);
//! let out = exact::diameter(&g, ExactParams::new(7), Config::for_graph(&g))?;
//! assert_eq!(out.value, 12);
//! println!("quantum rounds: {}", out.rounds());
//! # Ok::<(), diameter_quantum::QdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod dfs_window;
pub mod evaluation;
pub mod exact;
pub mod exact_simple;
pub mod framework;
pub mod recovery;

mod error;

pub use error::QdError;
