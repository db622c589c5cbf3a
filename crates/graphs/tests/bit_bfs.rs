//! Differential tests for the bit-parallel all-sources BFS behind
//! `metrics::eccentricities` and `metrics::bipartite_delta`.
//!
//! Many suites take `metrics::eccentricities` as their oracle, so the
//! reference here shares no code with it: one queue BFS per source
//! (`traversal::Bfs::run`). Sizes straddle the 64-bit word boundaries and
//! the 256-source batch boundary, and paths run longer than 64 hops so the
//! level count exceeds the word width.

use graphs::generators;
use graphs::metrics::{bipartite_delta, diameter, eccentricities, peripheral_node, radius};
use graphs::traversal::Bfs;
use graphs::{Dist, Graph, NodeId};
use proptest::prelude::*;

/// Eccentricities by one `Bfs::run` per node.
fn reference_eccentricities(g: &Graph) -> Option<Vec<Dist>> {
    g.nodes().map(|v| Bfs::run(g, v).eccentricity()).collect()
}

/// `Δ(G)` by a nested loop over `Bfs::run` distances.
fn reference_delta(g: &Graph, left: &[NodeId], right: &[NodeId]) -> Option<Dist> {
    if left.is_empty() || right.is_empty() {
        return None;
    }
    let mut best = 0;
    for &u in left {
        let bfs = Bfs::run(g, u);
        for &v in right {
            best = best.max(bfs.dist(v)?);
        }
    }
    Some(best)
}

/// Checks every all-sources metric of `g` against the reference.
fn check(g: &Graph) {
    let expect = reference_eccentricities(g);
    assert_eq!(eccentricities(g), expect, "n = {}", g.len());
    let expect_max = expect.as_ref().and_then(|e| e.iter().copied().max());
    assert_eq!(diameter(g), expect_max);
    assert_eq!(
        radius(g),
        expect.as_ref().and_then(|e| e.iter().copied().min())
    );
    if let (Some(eccs), Some(d)) = (&expect, expect_max) {
        let first = eccs.iter().position(|&e| e == d).unwrap();
        assert_eq!(peripheral_node(g), Some((NodeId::new(first), d)));
    }
    let all: Vec<NodeId> = g.nodes().collect();
    assert_eq!(
        bipartite_delta(g, &all, &all),
        reference_delta(g, &all, &all)
    );
}

/// `g` with every edge whose hash hits `1 / keep_one_in` removed: a
/// subgraph that may or may not stay connected.
fn thin(g: &Graph, keep_one_in: usize, salt: usize) -> Graph {
    let kept = g
        .edges()
        .map(|(u, v)| (u.index(), v.index()))
        .filter(|&(u, v)| !(u * 31 + v * 17 + salt).is_multiple_of(keep_one_in));
    Graph::from_edges(g.len(), kept).unwrap()
}

/// The disjoint union of `a` and `b`, with `b` relabelled after `a`.
fn union(a: &Graph, b: &Graph) -> Graph {
    let shift = a.len();
    let edges = a.edges().map(|(u, v)| (u.index(), v.index())).chain(
        b.edges()
            .map(|(u, v)| (u.index() + shift, v.index() + shift)),
    );
    Graph::from_edges(a.len() + b.len(), edges).unwrap()
}

/// A node subset chosen by `salt`, possibly with repeats.
fn subset(n: usize, modulus: usize, salt: usize) -> Vec<NodeId> {
    let mut s: Vec<NodeId> = (0..n)
        .filter(|v| (v * 7 + salt).is_multiple_of(modulus))
        .map(NodeId::new)
        .collect();
    if !salt.is_multiple_of(2) && !s.is_empty() {
        s.push(s[0]);
    }
    s
}

#[test]
fn batch_boundary_sizes() {
    for n in [1, 2, 63, 64, 65, 127, 128, 129, 200] {
        check(&generators::path(n));
        check(&generators::cycle(n.max(3)));
        check(&generators::star(n.max(2) - 1));
        check(&generators::complete(n.min(70)));
        check(&generators::random_tree(n, n as u64));
        check(&generators::random_connected(n, 0.05, n as u64));
        if n >= 2 {
            check(&generators::random_sparse(n, 3.0, n as u64));
        }
    }
}

#[test]
fn batch_boundary_sizes_of_the_256_source_pass() {
    for n in [255, 256, 257, 513, 1000] {
        check(&generators::random_tree(n, n as u64));
        check(&generators::random_sparse(n, 4.0, n as u64));
    }
    // Long paths are the slow case (n levels per pass); one straddles the
    // batch boundary.
    check(&generators::path(257));
}

#[test]
fn levels_beyond_the_word_width() {
    // Eccentricities up to 299 and 2·(n−1) levels of BFS from the ends.
    for n in [65, 130, 300] {
        let g = generators::path(n);
        assert_eq!(diameter(&g), Some(n as Dist - 1));
        check(&g);
    }
    check(&generators::lollipop(10, 150));
    check(&generators::subdivide(&generators::cycle(5), 30));
    check(&generators::caterpillar(90, 2));
}

#[test]
fn grids_and_structured_families() {
    for (r, c) in [(1, 1), (1, 64), (8, 8), (9, 15), (3, 70)] {
        check(&generators::grid(r, c));
    }
    check(&generators::torus(7, 11));
    check(&generators::hypercube(7));
    check(&generators::balanced_tree(3, 4));
    check(&generators::barbell(8, 60));
    check(&generators::ring_of_cliques(9, 8));
}

#[test]
fn disconnected_and_empty_graphs_are_none() {
    let empty = Graph::from_edges(0, []).unwrap();
    assert_eq!(eccentricities(&empty), None);
    assert_eq!(diameter(&empty), None);
    assert_eq!(radius(&empty), None);
    assert_eq!(peripheral_node(&empty), None);

    for (a, b) in [(1, 1), (63, 1), (64, 1), (1, 64), (64, 65), (100, 100)] {
        let g = union(&generators::path(a), &generators::path(b));
        assert_eq!(eccentricities(&g), None, "{a} + {b}");
        assert_eq!(diameter(&g), None);
        check(&g);
    }
    // An isolated node after the first 64-source batch.
    let g = union(
        &generators::complete(129),
        &Graph::from_edges(1, []).unwrap(),
    );
    assert_eq!(eccentricities(&g), None);
    // Every node isolated.
    check(&Graph::from_edges(70, []).unwrap());
    // n = 600 runs in batches of 256, 256 and 88. Every source but the
    // isolated node 599, lane 87 of the last, partial batch, reaches node 0.
    let g = union(&generators::path(599), &Graph::from_edges(1, []).unwrap());
    assert_eq!(eccentricities(&g), None);
    assert_eq!(diameter(&g), None);
    let all: Vec<NodeId> = g.nodes().collect();
    assert_eq!(bipartite_delta(&g, &all, &[NodeId::new(0)]), None);
    assert_eq!(
        bipartite_delta(&g, &all[..599], &[NodeId::new(0)]),
        Some(598)
    );
    check(&g);
}

/// Levels where fewer than one node in 16 changes pull only around the
/// changes: the tails of long paths, the rims of grids, a hub's leaves,
/// and the chained components of the sparse family, with one source batch
/// and with several; split in two, each has no eccentricities.
#[test]
fn sparse_levels_match_reference() {
    for g in [
        generators::path(40),
        generators::path(600),
        generators::grid(5, 60),
        generators::grid(24, 30),
        generators::star(300),
        generators::random_sparse(300, 1.5, 4),
        generators::random_sparse(800, 2.0, 9),
        generators::random_sparse(1500, 8.0, 3),
    ] {
        check(&g);
        let split = union(&g, &generators::path(3));
        assert_eq!(eccentricities(&split), None, "n = {}", g.len());
        check(&split);
    }
}

#[test]
fn bipartite_delta_across_batches_and_components() {
    let g = generators::path(200);
    let left: Vec<NodeId> = (0..130).map(NodeId::new).collect();
    let right = [NodeId::new(199)];
    assert_eq!(bipartite_delta(&g, &left, &right), Some(199));
    assert_eq!(bipartite_delta(&g, &right, &left), Some(199));
    // The far source sits in the second batch.
    let left: Vec<NodeId> = (60..190).map(NodeId::new).collect();
    let right = [NodeId::new(0)];
    assert_eq!(bipartite_delta(&g, &left, &right), Some(189));

    // More than one 256-source pass on the left; the farthest source is in
    // the second pass.
    let g = generators::path(700);
    let left: Vec<NodeId> = (100..620).map(NodeId::new).collect();
    assert_eq!(bipartite_delta(&g, &left, &[NodeId::new(50)]), Some(569));
    assert_eq!(
        bipartite_delta(&g, &left, &[NodeId::new(650), NodeId::new(0)]),
        Some(619)
    );
    let all: Vec<NodeId> = g.nodes().collect();
    assert_eq!(
        bipartite_delta(&g, &all, &left),
        reference_delta(&g, &all, &left)
    );

    // Disconnected elsewhere, connected between the two sides.
    let g = union(&generators::path(80), &generators::path(5));
    let left: Vec<NodeId> = (0..70).map(NodeId::new).collect();
    let right = [NodeId::new(79)];
    assert_eq!(bipartite_delta(&g, &left, &right), Some(79));
    // A pair across the components.
    let right = [NodeId::new(79), NodeId::new(82)];
    assert_eq!(bipartite_delta(&g, &left, &right), None);
    assert_eq!(bipartite_delta(&g, &[], &right), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_connected_matches_reference(n in 1usize..200, density in 0usize..4, seed in 0u64..1_000_000) {
        let p = [0.01, 0.03, 0.08, 0.3][density];
        let g = generators::random_connected(n, p, seed);
        prop_assert_eq!(eccentricities(&g), reference_eccentricities(&g));
    }

    #[test]
    fn random_sparse_matches_reference(n in 2usize..200, deg in 1usize..6, seed in 0u64..1_000_000) {
        let g = generators::random_sparse(n, deg as f64, seed);
        prop_assert_eq!(eccentricities(&g), reference_eccentricities(&g));
    }

    #[test]
    fn thinned_graphs_match_reference(n in 2usize..200, keep in 2usize..6, seed in 0u64..1_000_000) {
        let g = thin(&generators::random_sparse(n, 2.5, seed), keep, seed as usize);
        prop_assert_eq!(eccentricities(&g), reference_eccentricities(&g));
    }

    #[test]
    fn bipartite_delta_matches_reference(
        n in 2usize..200,
        moduli in (1usize..5, 1usize..5),
        salts in (0usize..100, 0usize..100),
        keep in 3usize..40,
        seed in 0u64..1_000_000,
    ) {
        let g = thin(&generators::random_sparse(n, 3.0, seed), keep, salts.0);
        let left = subset(n, moduli.0, salts.0);
        let right = subset(n, moduli.1, salts.1);
        prop_assert_eq!(bipartite_delta(&g, &left, &right), reference_delta(&g, &left, &right));
    }
}
