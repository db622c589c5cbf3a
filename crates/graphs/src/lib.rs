//! Graph substrate for the CONGEST diameter reproduction.
//!
//! This crate provides the *centralized* graph machinery that everything else
//! in the workspace builds on:
//!
//! * [`Graph`] — a compact, immutable, undirected graph, and [`GraphBuilder`]
//!   for constructing one edge by edge.
//! * [`BitSet`] — a fixed-universe bitmap set for dense frontier and
//!   active-set bookkeeping (the hybrid representation the simulator swaps
//!   in above its density threshold).
//! * [`traversal`] — breadth-first search (distances, trees),
//!   connectivity.
//! * [`metrics`] — eccentricities, diameter, radius: the *ground truth*
//!   against which every distributed algorithm in the workspace is tested.
//! * [`tree`] — rooted-tree utilities, in particular the Euler (DFS) tour of
//!   a BFS tree used by the paper's DFS-numbering (Definition 1).
//! * [`generators`] — deterministic and seeded-random graph families used by
//!   the experiments (paths, grids, trees, Erdős–Rényi, barbells, …).
//! * [`io`] — plain-text edge-list parsing and serialization, for loading
//!   real topologies and exporting generated instances.
//!
//! # Example
//!
//! ```
//! use graphs::{generators, metrics};
//!
//! let g = generators::cycle(8);
//! assert_eq!(metrics::diameter(&g), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod builder;
mod error;
mod graph;
mod node;

pub mod generators;
pub mod io;
pub mod metrics;
pub mod traversal;
pub mod tree;

pub use bitset::BitSet;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use node::NodeId;

/// Distance value used throughout the workspace.
///
/// Distances are exact hop counts; `u32` comfortably covers every graph a
/// simulator can hold in memory.
pub type Dist = u32;

/// Sentinel for "unreachable" in dense distance arrays.
pub const INFINITY: Dist = Dist::MAX;
