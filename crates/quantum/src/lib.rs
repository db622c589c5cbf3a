//! Quantum search substrate: the centralized quantum machinery that the
//! paper's distributed algorithms delegate to their leader node.
//!
//! Le Gall & Magniez (PODC 2018) build their diameter algorithms on three
//! standard quantum tools, all simulated exactly here:
//!
//! * [`SearchState`] — a real amplitude vector over a finite search domain,
//!   with the two Grover reflections. Because the paper's distributed
//!   operators are *reversible classical procedures run in superposition*
//!   (Section 2.3), the network's joint state is always a superposition of
//!   classically-evolving branches indexed by the searched element; tracking
//!   this amplitude vector is an exact simulation, not an approximation.
//! * [`amplify`] — amplitude amplification / quantum search with unknown
//!   marked mass (Theorem 6, after Brassard–Høyer–Tapp). Grover's
//!   iterations never leave the plane spanned by the marked and unmarked
//!   parts of the initial state, so each trial samples its measurement
//!   from that plane's closed form in `O(N)`, whatever its iteration
//!   count; the [`SearchState`] reflections are the reference it is
//!   tested against.
//! * [`maximize`] — quantum maximum finding (Corollary 1, after
//!   Dürr–Høyer), the engine of the diameter algorithms.
//! * [`OracleCost`] — counts applications of the Setup/Evaluation operators
//!   and their inverses; Theorem 7 converts these counts into CONGEST
//!   rounds.
//! * [`circuit`] — a small dense state-vector simulator (up to 24 qubits)
//!   used by the test suite to validate the amplitude-level math against
//!   true gate-by-gate unitary evolution.
//!
//! # Example: maximum finding
//!
//! ```
//! use quantum::{maximize, MaximizeParams, SearchState};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let f = |x: usize| (x * 37) % 101; // maximized at x = 71 over 0..100
//! let state = SearchState::uniform(100);
//! let mut rng = StdRng::seed_from_u64(7);
//! let out = maximize(&state, f, MaximizeParams::with_min_mass(1.0 / 100.0), &mut rng)?;
//! assert_eq!(f(out.argmax), 100);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amplify;
pub mod circuit;
mod cost;
mod error;
mod maximize;
mod search;

pub use amplify::{amplify, AmplifyOutcome, AmplifyParams};
pub use cost::OracleCost;
pub use error::QuantumError;
pub use maximize::{maximize, MaximizeOutcome, MaximizeParams};
pub use search::SearchState;
