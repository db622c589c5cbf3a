//! Distance metrics: eccentricities, diameter, radius.
//!
//! These are the centralized ground-truth quantities the paper's distributed
//! algorithms compute. Every all-sources quantity here ([`eccentricities`],
//! and through it [`diameter`], [`radius`] and [`peripheral_node`], plus
//! [`bipartite_delta`]) comes from one bit-parallel BFS kernel. It runs the
//! BFS of 256 sources at once, one bit per source in four `u64` words per
//! node, and advances a level by a pull over the CSR adjacency:
//! `next[v] = seen[v] | OR_{u ∈ N(v)} seen[u]`, the sources within one
//! more hop of `v`. A source's eccentricity is the last level that adds
//! its bit somewhere. Nodes every source has reached are skipped. A pull
//! only adds what a neighbour gained at the previous level, so once few
//! nodes change per level (the long tails of a path-like graph), only
//! those and their neighbours pull. The cost is at most
//! `⌈n/256⌉ · (D + 1) · (n + 2m)` four-word operations with `8n` words and
//! three node lists of scratch, against `n · (n + m)` queue operations for
//! one BFS per node.
//!
//! The eccentricity table is one kernel pass per 256 sources, and the
//! passes are independent, so [`EccTable`] lets several threads share
//! them; [`eccentricities`] runs it on as many threads as the host has
//! cores and the table has passes.
//!
//! The single-source [`eccentricity`] runs the plain [`Bfs`] and shares no
//! code with the kernel.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

use crate::traversal::Bfs;
use crate::{Dist, Graph, NodeId};

/// Sources per kernel pass: one bit each of a node's [`WORDS`] words.
const LANES: usize = 256;

/// `u64` words per node in the kernel.
const WORDS: usize = LANES / 64;

/// A set of sources of the current batch: bit `i % 64` of word `i / 64`
/// stands for source `i`. Aligned to its size, so that fetching a
/// neighbour's set touches one cache line.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
struct Lanes([u64; WORDS]);

/// The empty source set.
const EMPTY: Lanes = Lanes([0; WORDS]);

fn or(a: Lanes, b: Lanes) -> Lanes {
    Lanes(std::array::from_fn(|w| a.0[w] | b.0[w]))
}

fn and_not(a: Lanes, b: Lanes) -> Lanes {
    Lanes(std::array::from_fn(|w| a.0[w] & !b.0[w]))
}

/// Below one node in this many changing per level, a level pulls only the
/// nodes that changed at the previous one and their neighbours; above it,
/// every node not yet complete pulls, which costs less than finding them.
const SPARSE_LEVEL: usize = 16;

/// Scratch for the bit-parallel BFS: one [`Lanes`] per node and level, and
/// the nodes whose set changed.
struct BitBfs<'g> {
    graph: &'g Graph,
    /// Sources within the previous level of each node.
    seen: Vec<Lanes>,
    /// Sources within the current level of each node. At the start of a
    /// level it holds the level before the previous one, which differs
    /// from `seen` only at the nodes in `changed`.
    next: Vec<Lanes>,
    /// The nodes whose set changed at the previous level, in the first
    /// `num_changed` slots.
    changed: Vec<u32>,
    num_changed: usize,
    /// The nodes whose set changes at the current level. Like the other
    /// node lists, it has a slot for every node and one more, so appending
    /// is a write and a conditional advance, without a branch.
    changes: Vec<u32>,
    /// A sparse level's pulling nodes, and their membership flags.
    pulls: Vec<u32>,
    pulling: Vec<bool>,
}

impl<'g> BitBfs<'g> {
    fn new(graph: &'g Graph) -> Self {
        let n = graph.len();
        BitBfs {
            graph,
            seen: vec![EMPTY; n],
            next: vec![EMPTY; n],
            changed: vec![0; n + 1],
            num_changed: 0,
            changes: vec![0; n + 1],
            pulls: vec![0; n + 1],
            pulling: vec![false; n],
        }
    }

    /// Runs the BFS of every source in `batch` (at most [`LANES`]; lane `i`
    /// is `batch[i]`) and calls `level(d, before, within, reached)` for
    /// each level `d ≥ 1` that reaches a new node: `within[v]` holds the
    /// sources at distance at most `d` from `v` and `before[v]` those at
    /// distance at most `d − 1`, and `reached` is the union over all `v`
    /// of the difference.
    ///
    /// Returns the final sets: lane `i` of `seen[v]` is set iff `v` is
    /// reachable from `batch[i]`.
    fn run(
        &mut self,
        batch: &[NodeId],
        mut level: impl FnMut(Dist, &[Lanes], &[Lanes], Lanes),
    ) -> &[Lanes] {
        debug_assert!(!batch.is_empty() && batch.len() <= LANES);
        let full = lane_mask(batch.len());
        let graph = self.graph;
        // Level 0 changed the sources' sets, from the empty level −1.
        self.seen.fill(EMPTY);
        self.next.fill(EMPTY);
        self.num_changed = 0;
        for (i, v) in batch.iter().enumerate() {
            let s = &mut self.seen[v.index()];
            self.changed[self.num_changed] = v.index() as u32;
            self.num_changed += usize::from(*s == EMPTY);
            s.0[i / 64] |= 1 << (i % 64);
        }
        let n = self.seen.len();
        let mut complete = self.seen.iter().filter(|&&s| s == full).count();
        let mut d: Dist = 0;
        while complete < n {
            d += 1;
            let mut reached = EMPTY;
            let seen = &self.seen[..];
            let next = &mut self.next[..];
            let (changes, mut num_changes) = (&mut self.changes[..], 0);
            // A source within d − 2 of a neighbour is within d − 1 of v, so
            // pulling whole sets adds exactly the sources at d.
            let pull = |v: usize, s: Lanes| {
                let neighbors = graph.neighbors(NodeId::new(v));
                neighbors
                    .iter()
                    .fold(s, |within, u| or(within, seen[u.index()]))
            };
            if self.num_changed * SPARSE_LEVEL >= n {
                for (v, next) in next.iter_mut().enumerate() {
                    let s = seen[v];
                    if s == full {
                        *next = full;
                        continue;
                    }
                    let within = pull(v, s);
                    *next = within;
                    let gained = and_not(within, s);
                    reached = or(reached, gained);
                    complete += usize::from(within == full);
                    num_changes += usize::from(gained != EMPTY);
                }
                // The next level needs the list only if it is sparse.
                if num_changes * SPARSE_LEVEL < n {
                    num_changes = 0;
                    for (v, (s, within)) in seen.iter().zip(next.iter()).enumerate() {
                        changes[num_changes] = v as u32;
                        num_changes += usize::from(within != s);
                    }
                }
            } else {
                // Only a node that changed, or one of whose neighbours did,
                // can change now; every other node keeps its set, which
                // `next` already holds once the changed ones catch up.
                let (pulls, mut num_pulls) = (&mut self.pulls[..], 0);
                for &v in &self.changed[..self.num_changed] {
                    let v = NodeId::new(v as usize);
                    next[v.index()] = seen[v.index()];
                    for u in std::iter::once(v).chain(graph.neighbors(v).iter().copied()) {
                        let u = u.index();
                        pulls[num_pulls] = u as u32;
                        num_pulls += usize::from(!std::mem::replace(&mut self.pulling[u], true));
                    }
                }
                for &v in &pulls[..num_pulls] {
                    let v = v as usize;
                    self.pulling[v] = false;
                    let s = seen[v];
                    if s == full {
                        continue;
                    }
                    let within = pull(v, s);
                    next[v] = within;
                    reached = or(reached, and_not(within, s));
                    complete += usize::from(within == full);
                    changes[num_changes] = v as u32;
                    num_changes += usize::from(within != s);
                }
            }
            self.num_changed = num_changes;
            if reached == EMPTY {
                break;
            }
            level(d, &self.seen, &self.next, reached);
            std::mem::swap(&mut self.seen, &mut self.next);
            std::mem::swap(&mut self.changed, &mut self.changes);
        }
        &self.seen
    }

    /// The eccentricities of the sources in `batch`, or `None` if one of
    /// them does not reach every node.
    fn eccentricities(&mut self, batch: &[NodeId]) -> Option<Vec<Dist>> {
        let mut ecc = vec![0; batch.len()];
        let seen = self.run(batch, |d, _, _, reached| {
            for (w, mut bits) in reached.0.into_iter().enumerate() {
                while bits != 0 {
                    ecc[64 * w + bits.trailing_zeros() as usize] = d;
                    bits &= bits - 1;
                }
            }
        });
        let full = lane_mask(batch.len());
        seen.iter().all(|&s| s == full).then_some(ecc)
    }
}

/// The lowest `lanes` lanes set.
fn lane_mask(lanes: usize) -> Lanes {
    Lanes(std::array::from_fn(|w| {
        match lanes.saturating_sub(64 * w) {
            0 => 0,
            k if k >= 64 => u64::MAX,
            k => (1 << k) - 1,
        }
    }))
}

/// Eccentricity of `v`: the largest distance from `v` to any node.
///
/// Returns `None` if the graph is disconnected (the eccentricity is then
/// infinite) or empty.
pub fn eccentricity(graph: &Graph, v: NodeId) -> Option<Dist> {
    Bfs::run(graph, v).eccentricity()
}

/// Eccentricities of all nodes, or `None` if the graph is disconnected or
/// empty.
///
/// Runs the [`EccTable`] on as many threads as the host has cores and the
/// table has passes, the calling thread included.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::eccentricities(&generators::path(4)), Some(vec![3, 2, 2, 3]));
/// ```
pub fn eccentricities(graph: &Graph) -> Option<Vec<Dist>> {
    let table = EccTable::new(graph);
    table.share(|| ());
    table.finish()
}

/// The eccentricity table as independent passes of 256 sources each, which
/// any number of threads can work on together.
///
/// Each worker ([`EccTable::work`]) takes the next open pass from one
/// counter and runs it with its own BFS buffers. A pass keeps its result
/// under its own index, so the table comes out the same whatever the
/// number of workers or their timing. A pass whose sources do not all reach
/// every node stops the table, as [`EccTable::stop`] does: no worker takes
/// a further pass, and [`EccTable::finish`] returns `None`.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics::EccTable};
///
/// let g = generators::path(600);
/// let table = EccTable::new(&g);
/// let ran = std::thread::scope(|s| {
///     let helper = s.spawn(|| table.work());
///     table.work() + helper.join().unwrap()
/// });
/// assert_eq!(ran, 3);
/// assert_eq!(table.finish().unwrap()[0], 599);
/// ```
pub struct EccTable<'g> {
    graph: &'g Graph,
    /// The next pass to take; those at or past `passes.len()` are no pass.
    next: AtomicUsize,
    /// Set by [`EccTable::stop`] and by a pass that finds the graph
    /// disconnected.
    stopped: AtomicBool,
    /// Pass `p`'s eccentricities, those of nodes `256p ..`, once it ran.
    passes: Vec<OnceLock<Vec<Dist>>>,
}

impl<'g> EccTable<'g> {
    /// The table of `graph`, with no pass taken yet.
    pub fn new(graph: &'g Graph) -> Self {
        EccTable {
            graph,
            next: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            passes: (0..graph.len().div_ceil(LANES))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Takes passes until none is open or the table is stopped, and
    /// returns how many this call ran. Its BFS buffers are allocated with
    /// the first pass it takes.
    ///
    /// The counter and the flag only hand out passes and cut the work
    /// short; the eccentricities reach [`EccTable::finish`] through each
    /// pass's `OnceLock` and the end of the borrow of `self` (a join, for a
    /// thread), so neither needs more than `Relaxed`.
    pub fn work(&self) -> usize {
        let mut bfs = None;
        let mut ran = 0;
        while !self.stopped.load(Relaxed) {
            let p = self.next.fetch_add(1, Relaxed);
            let Some(slot) = self.passes.get(p) else {
                break;
            };
            let bfs = bfs.get_or_insert_with(|| BitBfs::new(self.graph));
            let sources: Vec<NodeId> = (p * LANES..self.graph.len().min((p + 1) * LANES))
                .map(NodeId::new)
                .collect();
            match bfs.eccentricities(&sources) {
                Some(eccs) => {
                    let first = slot.set(eccs).is_ok();
                    debug_assert!(first, "pass {p} ran twice");
                }
                None => self.stop(),
            }
            ran += 1;
        }
        ran
    }

    /// Stops the table: no worker takes a further pass (one already taken
    /// runs to its end), and [`EccTable::finish`] returns `None`.
    pub fn stop(&self) {
        self.stopped.store(true, Relaxed);
    }

    /// Runs `main` on the calling thread while helper threads work the
    /// table, then has the calling thread take the passes still open, and
    /// returns `main`'s result once every worker is done.
    ///
    /// With the calling thread, as many threads work as the host has cores
    /// and the table has passes. If a helper cannot be spawned, the threads
    /// already working take its share.
    pub fn share<R>(&self, main: impl FnOnce() -> R) -> R {
        let helpers = cores().min(self.passes.len()).saturating_sub(1);
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                let helper = std::thread::Builder::new().spawn_scoped(scope, || self.work());
                if helper.is_err() {
                    break;
                }
            }
            let out = main();
            self.work();
            out
        })
    }

    /// The eccentricities of all nodes, or `None` if the graph is empty or
    /// disconnected or the table was stopped. The calling thread first runs
    /// every pass still open.
    pub fn finish(self) -> Option<Vec<Dist>> {
        self.work();
        let EccTable {
            graph,
            stopped,
            passes,
            ..
        } = self;
        if stopped.into_inner() || passes.is_empty() {
            return None;
        }
        let mut eccs = Vec::with_capacity(graph.len());
        for pass in passes {
            eccs.extend(pass.into_inner()?);
        }
        Some(eccs)
    }
}

/// The host's available parallelism, or 1 if it is unknown. Looked up
/// once per process: each lookup reads the process's cgroup CPU quota from
/// files.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Diameter: the maximum eccentricity.
///
/// Returns `None` if the graph is disconnected or empty. The single-node
/// graph has diameter 0.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::diameter(&generators::path(10)), Some(9));
/// assert_eq!(metrics::diameter(&generators::complete(10)), Some(1));
/// ```
pub fn diameter(graph: &Graph) -> Option<Dist> {
    eccentricities(graph)?.into_iter().max()
}

/// Radius: the minimum eccentricity.
///
/// Returns `None` if the graph is disconnected or empty.
pub fn radius(graph: &Graph) -> Option<Dist> {
    eccentricities(graph)?.into_iter().min()
}

/// A node of maximum eccentricity (a "peripheral" node) together with the
/// diameter, or `None` if disconnected/empty.
///
/// Ties break toward the smallest node id.
pub fn peripheral_node(graph: &Graph) -> Option<(NodeId, Dist)> {
    let eccs = eccentricities(graph)?;
    let (idx, &max) = eccs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
    Some((NodeId::new(idx), max))
}

/// Girth: the length of a shortest cycle, or `None` for forests.
///
/// Uses the standard edge-removal characterization: the shortest cycle
/// through an edge `{u, v}` has length `d_{G−uv}(u, v) + 1`, so the girth
/// is the minimum over edges. `O(m · (n + m))`.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::girth(&generators::cycle(7)), Some(7));
/// assert_eq!(metrics::girth(&generators::path(7)), None);
/// assert_eq!(metrics::girth(&generators::complete(5)), Some(3));
/// ```
pub fn girth(graph: &Graph) -> Option<Dist> {
    use std::collections::VecDeque;
    let mut best: Option<Dist> = None;
    for (u, v) in graph.edges() {
        // BFS from u avoiding the edge {u, v}.
        let mut dist = vec![crate::INFINITY; graph.len()];
        let mut queue = VecDeque::new();
        dist[u.index()] = 0;
        queue.push_back(u);
        'bfs: while let Some(a) = queue.pop_front() {
            let da = dist[a.index()];
            if let Some(b) = best {
                // Cycles through this edge can no longer beat the best.
                if da + 1 >= b {
                    break 'bfs;
                }
            }
            for &c in graph.neighbors(a) {
                if (a == u && c == v) || (a == v && c == u) {
                    continue;
                }
                if dist[c.index()] == crate::INFINITY {
                    dist[c.index()] = da + 1;
                    queue.push_back(c);
                }
            }
        }
        if dist[v.index()] != crate::INFINITY {
            let cycle = dist[v.index()] + 1;
            best = Some(best.map_or(cycle, |b| b.min(cycle)));
        }
    }
    best
}

/// The largest distance between a node of `left` and a node of `right` —
/// the quantity `Δ(G)` of the paper's Section 5 (used by the
/// disjointness-to-diameter reductions, Definition 3).
///
/// Returns `None` if some pair is disconnected or either side is empty.
pub fn bipartite_delta(graph: &Graph, left: &[NodeId], right: &[NodeId]) -> Option<Dist> {
    if left.is_empty() || right.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut bfs = BitBfs::new(graph);
    for batch in left.chunks(LANES) {
        let seen = bfs.run(batch, |d, before, within, _| {
            if right.iter().any(|v| within[v.index()] != before[v.index()]) {
                best = best.max(d);
            }
        });
        let full = lane_mask(batch.len());
        if right.iter().any(|v| seen[v.index()] != full) {
            return None;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn path_metrics() {
        let g = generators::path(9);
        assert_eq!(diameter(&g), Some(8));
        assert_eq!(radius(&g), Some(4));
        assert_eq!(eccentricity(&g, NodeId::new(4)), Some(4));
        assert_eq!(eccentricity(&g, NodeId::new(0)), Some(8));
    }

    #[test]
    fn cycle_metrics() {
        let g = generators::cycle(10);
        assert_eq!(diameter(&g), Some(5));
        assert_eq!(radius(&g), Some(5));
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = generators::complete(6);
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(radius(&g), Some(1));
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(diameter(&g), Some(0));
        assert_eq!(radius(&g), Some(0));
        assert_eq!(peripheral_node(&g), Some((NodeId::new(0), 0)));
    }

    #[test]
    fn disconnected_metrics_are_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(eccentricities(&g), None);
        assert_eq!(peripheral_node(&g), None);
    }

    #[test]
    fn peripheral_node_on_star() {
        let g = generators::star(5);
        let (v, ecc) = peripheral_node(&g).unwrap();
        assert_eq!(ecc, 2);
        assert_ne!(v, NodeId::new(0)); // the hub has eccentricity 1
        assert_eq!(v, NodeId::new(1)); // smallest id among the leaves
    }

    #[test]
    fn girth_on_families() {
        assert_eq!(girth(&generators::cycle(3)), Some(3));
        assert_eq!(girth(&generators::cycle(11)), Some(11));
        assert_eq!(girth(&generators::complete(4)), Some(3));
        assert_eq!(girth(&generators::grid(3, 4)), Some(4));
        assert_eq!(girth(&generators::hypercube(4)), Some(4));
        assert_eq!(girth(&generators::path(9)), None);
        assert_eq!(girth(&generators::star(6)), None);
        assert_eq!(girth(&generators::random_tree(30, 1)), None);
        // Subdividing multiplies the girth.
        let g = generators::subdivide(&generators::cycle(4), 2);
        assert_eq!(girth(&g), Some(12));
        // Barbell: the cliques contain triangles.
        assert_eq!(girth(&generators::barbell(4, 6)), Some(3));
    }

    #[test]
    fn girth_of_disconnected_graph_sees_each_component() {
        // Triangle plus a separate path: girth 3 despite disconnection.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]).unwrap();
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn bipartite_delta_on_path() {
        let g = generators::path(6);
        let left = [NodeId::new(0), NodeId::new(1)];
        let right = [NodeId::new(4), NodeId::new(5)];
        assert_eq!(bipartite_delta(&g, &left, &right), Some(5));
        assert_eq!(bipartite_delta(&g, &left, &[]), None);
    }

    #[test]
    fn diameter_equals_max_bipartite_delta_over_all_nodes() {
        let g = generators::grid(3, 4);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(bipartite_delta(&g, &all, &all), diameter(&g));
    }
}
