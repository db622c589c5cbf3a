//! Independent reference answers.
//!
//! A plain queue BFS over adjacency arrays the benchmark builds from the
//! edge list itself. It shares no code with `graphs` (whose `metrics`
//! module the Theorem 1 pipeline uses for its branch values), so an error
//! there cannot hide in the check.

/// Compressed adjacency lists of an undirected graph.
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            targets[fill[u]] = v as u32;
            fill[u] += 1;
            targets[fill[v]] = u as u32;
            fill[v] += 1;
        }
        Adjacency { offsets, targets }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Hop distances from `src`; `u32::MAX` marks an unreachable node.
    pub fn distances_from(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = Vec::with_capacity(self.len());
        self.bfs(src, &mut dist, &mut queue);
        dist
    }

    /// Every node's eccentricity, or `None` if the graph is disconnected.
    pub fn eccentricities(&self) -> Option<Vec<u32>> {
        let n = self.len();
        let mut dist = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        (0..n)
            .map(|src| {
                dist.fill(u32::MAX);
                self.bfs(src, &mut dist, &mut queue);
                (queue.len() == n).then(|| dist[*queue.last().expect("source is queued")])
            })
            .collect()
    }

    /// BFS from `src` into `dist` (all `u32::MAX` on entry); leaves the
    /// visit order in `queue`, so its last entry is a farthest node.
    fn bfs(&self, src: usize, dist: &mut [u32], queue: &mut Vec<usize>) {
        queue.clear();
        dist[src] = 0;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &self.targets[self.offsets[u]..self.offsets[u + 1]] {
                let v = v as usize;
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_cycle() {
        let path: Vec<(usize, usize)> = (1..6).map(|i| (i - 1, i)).collect();
        let adj = Adjacency::new(6, &path);
        assert_eq!(adj.eccentricities(), Some(vec![5, 4, 3, 3, 4, 5]));
        assert_eq!(adj.distances_from(2), vec![2, 1, 0, 1, 2, 3]);
        let mut cycle = path;
        cycle.push((5, 0));
        assert_eq!(Adjacency::new(6, &cycle).eccentricities(), Some(vec![3; 6]));
    }

    #[test]
    fn disconnected_has_no_eccentricities() {
        let adj = Adjacency::new(4, &[(0, 1), (2, 3)]);
        assert_eq!(adj.eccentricities(), None);
        assert_eq!(adj.distances_from(0), vec![0, 1, u32::MAX, u32::MAX]);
    }
}
