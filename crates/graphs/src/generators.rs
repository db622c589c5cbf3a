//! Graph families used by the experiments.
//!
//! Deterministic families (paths, cycles, grids, …) exercise extreme
//! diameters; seeded random families (Erdős–Rényi, random trees) provide the
//! "typical" instances for the paper's round-complexity sweeps. Every random
//! generator takes an explicit seed so experiments are reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::{Graph, GraphBuilder};

/// Path graph `P_n`: `0 — 1 — … — n-1`. Diameter `n - 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i - 1, i);
    }
    b.build()
}

/// Cycle graph `C_n`. Diameter `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least three nodes");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i - 1, i);
    }
    b.edge(n - 1, 0);
    b.build()
}

/// Complete graph `K_n`. Diameter 1 (for `n ≥ 2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.edge(i, j);
        }
    }
    b.build()
}

/// Star with a hub (node 0) and `leaves` leaves. Diameter 2 (for `leaves ≥ 2`).
///
/// # Panics
///
/// Panics if `leaves == 0`.
pub fn star(leaves: usize) -> Graph {
    assert!(leaves > 0, "star requires at least one leaf");
    let mut b = GraphBuilder::new(leaves + 1);
    for i in 1..=leaves {
        b.edge(0, i);
    }
    b.build()
}

/// `rows × cols` grid. Node `(r, c)` has index `r * cols + c`.
/// Diameter `rows + cols - 2`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                b.edge(i, i + 1);
            }
            if r + 1 < rows {
                b.edge(i, i + cols);
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (grid with wraparound).
///
/// # Panics
///
/// Panics if either dimension is less than 3 (smaller wraparounds create
/// duplicate edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "torus dimensions must be at least 3"
    );
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            b.edge(i, r * cols + (c + 1) % cols);
            b.edge(i, ((r + 1) % rows) * cols + c);
        }
    }
    b.build()
}

/// Hypercube of dimension `dim` (`2^dim` nodes). Diameter `dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 24`.
pub fn hypercube(dim: usize) -> Graph {
    assert!(
        dim > 0 && dim <= 24,
        "hypercube dimension must be in 1..=24"
    );
    let n = 1usize << dim;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for bit in 0..dim {
            let j = i ^ (1 << bit);
            if i < j {
                b.edge(i, j);
            }
        }
    }
    b.build()
}

/// Complete `arity`-ary tree of the given `depth` (depth 0 is a single
/// node). Diameter `2 * depth`.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity > 0, "arity must be positive");
    let mut b = GraphBuilder::new(1);
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &u in &frontier {
            let first = b.add_nodes(arity).index();
            for c in first..first + arity {
                b.edge(u, c);
                next.push(c);
            }
        }
        frontier = next;
    }
    b.build()
}

/// Two `k`-cliques joined by a path of `bridge` intermediate nodes.
/// `n = 2k + bridge`, diameter `bridge + 3` (for `k ≥ 2`).
///
/// A classic high-diameter/low-conductance family.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 1, "cliques must be nonempty");
    let mut b = GraphBuilder::new(2 * k + bridge);
    for i in 0..k {
        for j in (i + 1)..k {
            b.edge(i, j);
            b.edge(k + bridge + i, k + bridge + j);
        }
    }
    // Path k, k+1, …, k+bridge-1 connecting node 0 of each clique.
    let mut prev = 0;
    for p in 0..bridge {
        b.edge(prev, k + p);
        prev = k + p;
    }
    b.edge(prev, k + bridge);
    b.build()
}

/// A `k`-clique with a pendant path of `tail` nodes ("lollipop").
/// `n = k + tail`.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k >= 1, "clique must be nonempty");
    let mut b = GraphBuilder::new(k + tail);
    for i in 0..k {
        for j in (i + 1)..k {
            b.edge(i, j);
        }
    }
    let mut prev = 0;
    for p in 0..tail {
        b.edge(prev, k + p);
        prev = k + p;
    }
    b.build()
}

/// A cycle of `k` cliques of size `m`, adjacent cliques sharing one edge
/// between designated ports. Gives `n = k·m` with diameter `Θ(k)` and high
/// local density.
///
/// # Panics
///
/// Panics if `k < 3` or `m < 2`.
pub fn ring_of_cliques(k: usize, m: usize) -> Graph {
    assert!(
        k >= 3 && m >= 2,
        "ring of cliques requires k >= 3 and m >= 2"
    );
    let mut b = GraphBuilder::new(k * m);
    for c in 0..k {
        let base = c * m;
        for i in 0..m {
            for j in (i + 1)..m {
                b.edge(base + i, base + j);
            }
        }
        // Port m-1 of clique c connects to port 0 of clique c+1.
        let next = ((c + 1) % k) * m;
        b.edge(base + m - 1, next);
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each carrying `legs` leaf
/// nodes. `n = spine · (1 + legs)`, diameter `spine + 1` (for `spine ≥ 2`,
/// `legs ≥ 1`). A tree family whose DFS tour is leg-dominated — a stress
/// case for the window structure of Definition 2.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar requires a nonempty spine");
    let mut b = GraphBuilder::new(spine);
    for i in 1..spine {
        b.edge(i - 1, i);
    }
    for i in 0..spine {
        let first = b.add_nodes(legs).index();
        for leg in first..first + legs {
            b.edge(i, leg);
        }
    }
    b.build()
}

/// Subdivides every edge of `graph` with `extra` fresh intermediate nodes,
/// multiplying all distances by `extra + 1`.
///
/// This is the workhorse for dialling the diameter `D` independently of the
/// base topology (and is exactly the edge-stretching operation of the
/// paper's Figure 8, there applied only to the cut edges).
pub fn subdivide(graph: &Graph, extra: usize) -> Graph {
    if extra == 0 {
        return graph.clone();
    }
    let mut b = GraphBuilder::new(graph.len());
    for (u, v) in graph.edges() {
        let first = b.add_nodes(extra).index();
        b.edge(u.index(), first);
        for i in 1..extra {
            b.edge(first + i - 1, first + i);
        }
        b.edge(first + extra - 1, v.index());
    }
    b.build()
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
/// Diameter `Θ(√n)` in expectation.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "tree requires at least one node");
    if n == 1 {
        return GraphBuilder::new(1).build();
    }
    if n == 2 {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1);
        return b.build();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Standard Prüfer decoding with a "pointer + leaf" scan.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &x in &prufer {
        b.edge(leaf, x);
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    b.edge(leaf, n - 1);
    b.build()
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: edges are sampled
/// independently, then a uniformly shuffled spanning-tree skeleton patches
/// any missing connectivity so the result is always connected.
///
/// For `p ≳ ln n / n` the patching is almost always a no-op and the
/// distribution is essentially `G(n, p) | connected`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph requires at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(p) {
                edges.push((i, j));
            }
        }
    }
    connect_components(n, edges, &mut rng)
}

/// Random graph with expected degree `deg`: `G(n, deg/(n-1))`, made
/// connected by chaining its components into a path. Sparse analogue of
/// [`random_connected`] that keeps `m = Θ(n)` as `n` grows.
///
/// This is not `G(n, p)` conditioned on connectivity. One random member
/// of each component, in shuffled order, is joined to the next, so the
/// components hang off one chain. `G(n, 8/n)` leaves about `e⁻⁸·n`
/// isolated nodes, so once `n ≳ 10⁴` that chain, and with it the
/// diameter, grows linearly in `n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_sparse(n: usize, deg: f64, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    let p = (deg / (n as f64 - 1.0)).clamp(0.0, 1.0);
    // Sample via geometric skips for large sparse graphs.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    if p > 0.0 {
        let logq = (1.0 - p).ln();
        if logq == 0.0 {
            // p == 0 after clamping; nothing to sample.
        } else if p >= 1.0 {
            for i in 0..n {
                edges.extend(((i + 1)..n).map(|j| (i, j)));
            }
        } else {
            // Iterate pairs (i, j), i < j, in a flattened index with skips.
            let total = n * (n - 1) / 2;
            let mut rows = PairRows::new(n);
            let mut idx: f64 = -1.0;
            loop {
                let u: f64 = rng.random();
                idx += 1.0 + (1.0 - u).ln() / logq;
                if idx >= total as f64 {
                    break;
                }
                // `idx` grows by at least 1 per draw, so every pair is new.
                edges.push(rows.locate(idx as usize));
            }
        }
    }
    connect_components(n, edges, &mut rng)
}

/// Maps flattened pair indices to `(i, j)` with `i < j` over `n` nodes,
/// for indices visited in non-decreasing order.
///
/// Pairs are flattened row by row, and row `i` owns the `n − 1 − i` pairs
/// `(i, i + 1..n)`. The cursor keeps the row it last found, so a whole
/// ascending sweep costs `O(n + queries)` rather than a rescan from row 0
/// per query.
struct PairRows {
    n: usize,
    row: usize,
    row_start: usize,
}

impl PairRows {
    fn new(n: usize) -> Self {
        PairRows {
            n,
            row: 0,
            row_start: 0,
        }
    }

    /// The pair at flattened index `idx`; `idx` must not be below the
    /// previous query's.
    fn locate(&mut self, idx: usize) -> (usize, usize) {
        debug_assert!(idx >= self.row_start, "pair indices must not decrease");
        while idx >= self.row_start + (self.n - 1 - self.row) {
            self.row_start += self.n - 1 - self.row;
            self.row += 1;
        }
        (self.row, self.row + 1 + (idx - self.row_start))
    }
}

/// The graph on `edges`, with its components connected by uniformly
/// random inter-component edges (one per merge), using a shuffled node
/// permutation so the patch edges are unbiased.
///
/// `edges` must be distinct and free of self-loops. The patch only joins
/// different components, so the second build cannot meet a duplicate.
fn connect_components(n: usize, mut edges: Vec<(usize, usize)>, rng: &mut StdRng) -> Graph {
    let graph = Graph::from_edges(n, edges.iter().copied()).expect("sampled edges are distinct");
    let (labels, count) = crate::traversal::connected_components(&graph);
    if count <= 1 {
        return graph;
    }
    // Pick one random representative per component, shuffle, chain them.
    let mut reps: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (v, &c) in labels.iter().enumerate() {
        reps[c].push(v);
    }
    let mut chosen: Vec<usize> = reps
        .iter()
        .map(|members| members[rng.random_range(0..members.len())])
        .collect();
    chosen.shuffle(rng);
    edges.extend(chosen.windows(2).map(|w| (w[0], w[1])));
    Graph::from_edges(n, edges).expect("patch edges join distinct components")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::diameter;
    use crate::traversal::is_connected;

    #[test]
    fn deterministic_family_shapes() {
        assert_eq!(diameter(&path(10)), Some(9));
        assert_eq!(diameter(&cycle(11)), Some(5));
        assert_eq!(diameter(&complete(7)), Some(1));
        assert_eq!(diameter(&star(6)), Some(2));
        assert_eq!(diameter(&grid(4, 7)), Some(9));
        assert_eq!(diameter(&hypercube(5)), Some(5));
        assert_eq!(diameter(&balanced_tree(2, 3)), Some(6));
    }

    #[test]
    fn torus_diameter() {
        // Torus diameter = floor(r/2) + floor(c/2).
        assert_eq!(diameter(&torus(4, 6)), Some(2 + 3));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 4);
        assert_eq!(g.len(), 14);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(4 + 3));
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 6);
        assert_eq!(g.len(), 10);
        assert_eq!(diameter(&g), Some(7)); // across clique (1) + tail (6)
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 3);
        assert_eq!(g.len(), 12);
        assert!(is_connected(&g));
        let d = diameter(&g).unwrap();
        assert!((3..=8).contains(&d), "unexpected diameter {d}");
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.len(), 5 * 4);
        assert_eq!(g.num_edges(), 4 + 15); // spine + legs: a tree
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(6)); // leg + spine(4) + leg
        assert_eq!(crate::metrics::girth(&g), None);
        // Degenerate: no legs is just a path.
        assert_eq!(caterpillar(4, 0), path(4));
    }

    #[test]
    fn subdivide_multiplies_distances() {
        let g = cycle(6);
        let s = subdivide(&g, 3);
        assert_eq!(s.len(), 6 + 6 * 3);
        assert_eq!(diameter(&s), Some(3 * 4));
        // extra = 0 is the identity.
        assert_eq!(subdivide(&g, 0), g);
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..5 {
            let g = random_tree(50, seed);
            assert_eq!(g.num_edges(), 49);
            assert!(is_connected(&g));
        }
        assert_eq!(random_tree(1, 0).len(), 1);
        assert_eq!(random_tree(2, 0).num_edges(), 1);
    }

    #[test]
    fn random_tree_is_seed_deterministic() {
        let a = random_tree(64, 42);
        let b = random_tree(64, 42);
        assert_eq!(a, b);
        let c = random_tree(64, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn random_connected_is_connected_even_for_tiny_p() {
        for seed in 0..5 {
            let g = random_connected(40, 0.01, seed);
            assert!(is_connected(&g));
            assert_eq!(g.len(), 40);
        }
    }

    #[test]
    fn random_sparse_has_roughly_expected_degree() {
        let g = random_sparse(400, 6.0, 1);
        assert!(is_connected(&g));
        let avg = 2.0 * g.num_edges() as f64 / g.len() as f64;
        assert!(
            (4.0..=8.0).contains(&avg),
            "average degree {avg} far from 6"
        );
    }

    #[test]
    fn random_sparse_extreme_probabilities() {
        let g = random_sparse(6, 0.0, 0);
        assert!(is_connected(&g)); // pure patching: a random spanning chain
        assert_eq!(g.num_edges(), 5);
        let g = random_sparse(6, 5.0, 0); // p = 1
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn pair_rows_enumerate_upper_triangle_in_order() {
        let n = 6;
        let mut rows = PairRows::new(n);
        let all: Vec<(usize, usize)> = (0..n * (n - 1) / 2).map(|k| rows.locate(k)).collect();
        let expect: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn pair_rows_skip_whole_rows() {
        // Row starts for n = 6: 0, 5, 9, 12, 14.
        let mut rows = PairRows::new(6);
        assert_eq!(rows.locate(4), (0, 5));
        assert_eq!(rows.locate(4), (0, 5));
        assert_eq!(rows.locate(12), (3, 4));
        assert_eq!(rows.locate(14), (4, 5));
    }

    #[test]
    fn random_sparse_builds_a_large_graph() {
        // Sampling is O(n + m) with the running row pointer; a row rescan
        // per sampled edge would make it O(n·m) at this size.
        let g = random_sparse(100_000, 8.0, 1);
        assert_eq!(g.len(), 100_000);
        assert!(is_connected(&g));
        let avg = 2.0 * g.num_edges() as f64 / g.len() as f64;
        assert!((7.5..=8.5).contains(&avg), "average degree {avg}");
    }
}
