//! Seeded input generator: the `sparse` family, `G(n, deg/(n−1))` with its
//! components chained into one, as an edge list.
//!
//! It draws the same random stream as `graphs::generators::random_sparse`
//! and returns the same graph, but maps each geometric skip to its pair
//! with a running row pointer. `random_sparse` restarts the row scan for
//! every edge (`O(n)` per edge, `O(n·m)` in all), which takes minutes at
//! n = 10⁶; this sampler is `O(n + m)`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// The undirected edges of a connected `G(n, deg/(n−1))` sample.
///
/// # Panics
///
/// Panics unless `n ≥ 2` and `0 < deg < n − 1`.
pub fn sparse(n: usize, deg: f64, seed: u64) -> Vec<(usize, usize)> {
    assert!(n >= 2, "need at least two nodes");
    let p = deg / (n as f64 - 1.0);
    assert!(p > 0.0 && p < 1.0, "edge probability {p} outside (0, 1)");
    let logq = (1.0 - p).ln();
    let mut rng = StdRng::seed_from_u64(seed);
    let total = (n * (n - 1) / 2) as f64;
    let mut edges = Vec::with_capacity((total * p * 1.05) as usize + n);

    // Pairs (i, j), i < j, are flattened row by row; row i holds n − 1 − i
    // pairs and starts at flattened index `row_start`.
    let (mut row, mut row_start) = (0usize, 0usize);
    let mut idx = -1.0f64;
    loop {
        let u: f64 = rng.random();
        idx += 1.0 + (1.0 - u).ln() / logq;
        if idx >= total {
            break;
        }
        let k = idx as usize;
        while k >= row_start + (n - 1 - row) {
            row_start += n - 1 - row;
            row += 1;
        }
        edges.push((row, row + 1 + (k - row_start)));
    }
    chain_components(n, &mut edges, &mut rng);
    edges
}

/// Joins the components of `edges` into one: a uniformly chosen member of
/// each component (components ordered by their smallest node), shuffled,
/// then linked as a path.
fn chain_components(n: usize, edges: &mut Vec<(usize, usize)>, rng: &mut StdRng) {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for &(u, v) in edges.iter() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv)] = ru.min(rv);
        }
    }
    let mut label = vec![usize::MAX; n];
    let mut members: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        let r = find(&mut parent, v);
        if label[r] == usize::MAX {
            label[r] = members.len();
            members.push(Vec::new());
        }
        members[label[r]].push(v);
    }
    if members.len() <= 1 {
        return;
    }
    let mut chosen: Vec<usize> = members
        .iter()
        .map(|m| m[rng.random_range(0..m.len())])
        .collect();
    chosen.shuffle(rng);
    edges.extend(chosen.windows(2).map(|w| (w[0], w[1])));
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::Graph;

    #[test]
    fn matches_the_sparse_family() {
        for (n, deg, seed) in [(4096, 8.0, 1), (4096, 8.0, 7), (300, 1.5, 3), (50, 0.3, 9)] {
            let ours = Graph::from_edges(n, sparse(n, deg, seed)).expect("simple graph");
            let family = graphs::generators::random_sparse(n, deg, seed);
            assert!(ours == family, "n={n} deg={deg} seed={seed}");
        }
    }

    #[test]
    fn same_seed_same_edges() {
        assert_eq!(sparse(1000, 8.0, 5), sparse(1000, 8.0, 5));
        assert_ne!(sparse(1000, 8.0, 5), sparse(1000, 8.0, 6));
    }
}
