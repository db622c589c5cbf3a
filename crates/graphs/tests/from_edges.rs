//! Differential tests for the bulk CSR build behind `Graph::from_edges`.
//!
//! The reference is the incremental construction it replaced: one
//! `GraphBuilder::try_edge` per edge in input order, then `try_build`. On
//! every input both must return equal graphs or equal errors — in
//! particular the same *first* error when several edges are invalid.

use graphs::{generators, Graph, GraphBuilder, GraphError};
use proptest::prelude::*;

/// `edges` added one by one to a builder; the first rejected edge's error.
fn incremental(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
    let mut builder = GraphBuilder::new(n);
    for &(u, v) in edges {
        builder.try_edge(u, v)?;
    }
    builder.try_build()
}

fn check(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
    let bulk = Graph::from_edges(n, edges.iter().copied());
    assert_eq!(bulk, incremental(n, edges), "n = {n}, edges = {edges:?}");
    bulk
}

/// `m` random edges over `n` nodes. With `faults = 0` they form a simple
/// graph; otherwise each edge is, with probability `faults / 16`, replaced
/// by an out-of-range endpoint, a self-loop, or a repeat of an earlier edge
/// in either orientation.
fn edge_list(n: usize, m: usize, seed: u64, faults: u64) -> Vec<(usize, usize)> {
    let mut rng = TestRng::new(seed);
    let mut below = |k: usize| (rng.next_u64() % k.max(1) as u64) as usize;
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(m);
    for _ in 0..m {
        if below(16) < faults as usize {
            let (u, v) = match below(5) {
                0 => (n + below(3), below(n)),
                1 => (below(n), n + below(3)),
                2 => {
                    let u = below(n);
                    (u, u)
                }
                3 if !edges.is_empty() => edges[below(edges.len())],
                _ if !edges.is_empty() => {
                    let (u, v) = edges[below(edges.len())];
                    (v, u)
                }
                _ => (n, n),
            };
            edges.push((u, v));
            continue;
        }
        if n < 2 {
            continue;
        }
        let (u, v) = (below(n), below(n));
        let fresh = u != v && !edges.contains(&(u, v)) && !edges.contains(&(v, u));
        if fresh {
            edges.push((u, v));
        }
    }
    edges
}

#[test]
fn tiny_graphs() {
    assert!(check(0, &[]).unwrap().is_empty());
    assert_eq!(
        check(0, &[(0, 0)]),
        Err(GraphError::NodeOutOfRange { node: 0, len: 0 })
    );
    assert_eq!(check(1, &[]).unwrap().len(), 1);
    assert_eq!(check(1, &[(0, 0)]), Err(GraphError::SelfLoop { node: 0 }));
    assert_eq!(
        check(1, &[(0, 1)]),
        Err(GraphError::NodeOutOfRange { node: 1, len: 1 })
    );
}

#[test]
fn isolated_nodes_keep_empty_rows() {
    let g = check(10, &[(3, 1), (1, 7)]).unwrap();
    assert_eq!(g.num_edges(), 2);
    assert_eq!(g.nodes().filter(|&v| g.degree(v) == 0).count(), 7);
    assert_eq!(check(10, &[]).unwrap().num_edges(), 0);
}

#[test]
fn first_offending_edge_wins() {
    // A duplicate beats a later out-of-range edge or self-loop.
    assert_eq!(
        check(5, &[(0, 1), (2, 3), (1, 0), (0, 9), (2, 2)]),
        Err(GraphError::DuplicateEdge { u: 1, v: 0 })
    );
    assert_eq!(
        check(5, &[(0, 1), (0, 1), (4, 4)]),
        Err(GraphError::DuplicateEdge { u: 0, v: 1 })
    );
    // An invalid edge beats a later duplicate.
    assert_eq!(
        check(5, &[(0, 1), (0, 9), (1, 0)]),
        Err(GraphError::NodeOutOfRange { node: 9, len: 5 })
    );
    assert_eq!(
        check(5, &[(0, 1), (3, 3), (1, 0)]),
        Err(GraphError::SelfLoop { node: 3 })
    );
    // Within one edge: `u` before `v`, range before self-loop.
    assert_eq!(
        check(5, &[(7, 9)]),
        Err(GraphError::NodeOutOfRange { node: 7, len: 5 })
    );
    assert_eq!(
        check(5, &[(9, 9)]),
        Err(GraphError::NodeOutOfRange { node: 9, len: 5 })
    );
    // Of two duplicates, the earlier repeat is reported.
    assert_eq!(
        check(6, &[(0, 1), (4, 5), (5, 4), (1, 0)]),
        Err(GraphError::DuplicateEdge { u: 5, v: 4 })
    );
}

#[test]
fn long_path_in_any_order() {
    let n = 100_000;
    let forward: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    let g = check(n, &forward).unwrap();
    assert_eq!(g, generators::path(n));
    let backward: Vec<(usize, usize)> = forward.iter().rev().map(|&(u, v)| (v, u)).collect();
    assert_eq!(check(n, &backward).unwrap(), g);
}

#[test]
fn high_degree_rows_are_sorted() {
    let n = 2000;
    let spokes: Vec<(usize, usize)> = (1..n).rev().map(|i| (i, 0)).collect();
    assert_eq!(check(n, &spokes).unwrap(), generators::star(n - 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simple_edge_lists_match_the_builder(n in 0usize..60, m in 0usize..200, seed in any::<u64>()) {
        let edges = edge_list(n, m, seed, 0);
        let bulk = Graph::from_edges(n, edges.iter().copied());
        prop_assert!(bulk.is_ok());
        prop_assert_eq!(bulk, incremental(n, &edges));
    }

    #[test]
    fn faulty_edge_lists_match_the_builder(
        n in 0usize..40,
        m in 0usize..120,
        seed in any::<u64>(),
        faults in 1u64..4,
    ) {
        let edges = edge_list(n, m, seed, faults);
        prop_assert_eq!(Graph::from_edges(n, edges.iter().copied()), incremental(n, &edges));
    }

    #[test]
    fn generated_graphs_round_trip(n in 2usize..300, deg in 1usize..8, seed in any::<u64>()) {
        let g = generators::random_sparse(n, deg as f64, seed);
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (v.index(), u.index())).collect();
        prop_assert_eq!(Graph::from_edges(n, edges.iter().copied()), Ok(g));
    }
}
