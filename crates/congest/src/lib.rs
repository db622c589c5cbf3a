//! A round-synchronous simulator for the CONGEST model of distributed
//! computing.
//!
//! In the CONGEST model (Section 2.1 of Le Gall & Magniez, PODC 2018) the
//! network is an undirected graph `G = (V, E)`; execution proceeds in
//! synchronous rounds, and in each round every node may send **one message of
//! `O(log n)` bits over each incident edge**. Nodes know `n`, their own
//! identifier and their incident edges, and nothing else about the topology.
//!
//! This crate simulates that model faithfully enough to *measure* the
//! quantity the paper is about — round complexity — while also accounting for
//! bandwidth:
//!
//! * [`NodeProgram`] — the per-node state machine an algorithm implements.
//! * [`Network`] — the synchronous scheduler: delivers messages, enforces
//!   the per-edge bandwidth budget, detects quiescence, and collects
//!   [`RunStats`]. Rounds run allocation-free over a double-buffered
//!   message path: each payload is stored once when sent, and an
//!   [`Inbox`] is a view of entry indices into last round's send buffer.
//! * [`reference`](mod@reference) — an independent, deliberately naive simulator that
//!   runs every node every round; differential suites check `Network`
//!   against it.
//! * [`Payload`] — messages declare their size in bits; the [`bits`] module
//!   has helpers for honest field sizes.
//! * [`RoundsLedger`] — accumulates round/bit accounting across the phases of
//!   multi-phase algorithms.
//! * [`FaultPlan`] — seeded, deterministic fault injection (message loss,
//!   link failures, crash-stop nodes) within the synchronous model, attached
//!   via [`Config::with_faults`] and replayable byte-identically per
//!   `(graph, config, seed)`.
//! * [`RecoveryPolicy`] — what drivers may do about a detected fault
//!   (bounded reseeded retries, tree-protocol retransmission, wave
//!   checkpoint/restart, partial-network semantics), attached via
//!   [`Config::with_recovery`] and accounted in [`RecoveryStats`].
//!
//! # Example: flooding a token
//!
//! ```
//! use congest::{bits, Config, Network, NodeProgram, Payload, RoundCtx, Status};
//! use graphs::{generators, NodeId};
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl Payload for Token {
//!     fn size_bits(&self) -> usize { 1 }
//! }
//!
//! struct Flood { seen: bool }
//! impl NodeProgram for Flood {
//!     type Msg = Token;
//!     type Output = bool;
//!     fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) -> Status {
//!         let start = ctx.node() == NodeId::new(0) && ctx.round() == 0;
//!         if start && !self.seen {
//!             self.seen = true;
//!             ctx.broadcast(Token);
//!         } else if let Some(&(from, _)) = ctx.inbox().first() {
//!             if !self.seen {
//!                 self.seen = true;
//!                 ctx.broadcast_except(from, Token);
//!             }
//!         }
//!         if self.seen { Status::Halted } else { Status::Active }
//!     }
//!     fn finish(self, _node: NodeId) -> bool { self.seen }
//! }
//!
//! let g = generators::path(5);
//! let mut net = Network::new(&g, Config::for_graph(&g), |_| Flood { seen: false });
//! let stats = net.run_until_quiescent(100)?;
//! assert_eq!(stats.rounds, 5); // 4 hops to the far end + its processing round
//! assert!(net.into_outputs().into_iter().all(|seen| seen));
//! # Ok::<(), congest::CongestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod error;
pub mod faults;
mod ledger;
mod message;
mod network;
mod program;
pub mod recovery;
pub mod reference;

pub use error::CongestError;
pub use faults::{FaultPlan, FaultStats};
pub use ledger::RoundsLedger;
pub use message::Payload;
pub use network::{Config, CriticalPath, Network, RunStats};
pub use program::{Inbox, InboxIter, NodeProgram, RoundCtx, Status};
pub use recovery::{RecoveryPolicy, RecoveryStats};

/// Round counter type. Rounds are numbered from 0.
pub type Round = u64;
