//! Hopcroft–Karp maximum bipartite matching, compiled for tests only: it
//! is the reference that `flow`'s unit-cost bipartite vertex cover is
//! checked against through König's theorem.

/// A bipartite graph with `n_left` and `n_right` vertices.
#[derive(Clone, Debug)]
pub struct Bipartite {
    n_left: usize,
    n_right: usize,
    adj: Vec<Vec<u32>>,
}

/// Result of maximum matching.
#[derive(Clone, Debug)]
pub struct Matching {
    /// For each left vertex, its matched right vertex (or `u32::MAX`).
    pub left_match: Vec<u32>,
    /// For each right vertex, its matched left vertex (or `u32::MAX`).
    pub right_match: Vec<u32>,
    /// Number of matched pairs.
    pub size: usize,
}

const UNMATCHED: u32 = u32::MAX;

impl Bipartite {
    /// An empty bipartite graph.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        Bipartite {
            n_left,
            n_right,
            adj: vec![Vec::new(); n_left],
        }
    }

    /// Adds the edge `(l, r)`.
    pub fn add_edge(&mut self, l: u32, r: u32) {
        debug_assert!((l as usize) < self.n_left && (r as usize) < self.n_right);
        self.adj[l as usize].push(r);
    }

    /// Computes a maximum matching with Hopcroft–Karp in `O(E √V)`.
    pub fn maximum_matching(&self) -> Matching {
        let mut left_match = vec![UNMATCHED; self.n_left];
        let mut right_match = vec![UNMATCHED; self.n_right];
        let mut size = 0;

        // Greedy warm start.
        for (l, adj_l) in self.adj.iter().enumerate() {
            for &r in adj_l {
                if right_match[r as usize] == UNMATCHED {
                    left_match[l] = r;
                    right_match[r as usize] = l as u32;
                    size += 1;
                    break;
                }
            }
        }

        let inf = u32::MAX;
        let mut dist = vec![inf; self.n_left];
        loop {
            // BFS layering from free left vertices.
            let mut queue = std::collections::VecDeque::new();
            for l in 0..self.n_left {
                if left_match[l] == UNMATCHED {
                    dist[l] = 0;
                    queue.push_back(l as u32);
                } else {
                    dist[l] = inf;
                }
            }
            let mut found_augmenting = false;
            while let Some(l) = queue.pop_front() {
                for &r in &self.adj[l as usize] {
                    let next = right_match[r as usize];
                    if next == UNMATCHED {
                        found_augmenting = true;
                    } else if dist[next as usize] == inf {
                        dist[next as usize] = dist[l as usize] + 1;
                        queue.push_back(next);
                    }
                }
            }
            if !found_augmenting {
                break;
            }
            // DFS augmentation along the layering.
            fn dfs(
                l: u32,
                adj: &[Vec<u32>],
                dist: &mut [u32],
                left_match: &mut [u32],
                right_match: &mut [u32],
            ) -> bool {
                for i in 0..adj[l as usize].len() {
                    let r = adj[l as usize][i];
                    let next = right_match[r as usize];
                    let ok = if next == UNMATCHED {
                        true
                    } else if dist[next as usize] == dist[l as usize] + 1 {
                        dfs(next, adj, dist, left_match, right_match)
                    } else {
                        false
                    };
                    if ok {
                        left_match[l as usize] = r;
                        right_match[r as usize] = l;
                        return true;
                    }
                }
                dist[l as usize] = u32::MAX;
                false
            }
            for l in 0..self.n_left {
                if left_match[l] == UNMATCHED
                    && dfs(
                        l as u32,
                        &self.adj,
                        &mut dist,
                        &mut left_match,
                        &mut right_match,
                    )
                {
                    size += 1;
                }
            }
        }
        Matching {
            left_match,
            right_match,
            size,
        }
    }

    /// A minimum vertex cover `(left_in_cover, right_in_cover)` via König's
    /// theorem: |cover| equals the maximum matching size.
    pub fn minimum_vertex_cover(&self) -> (Vec<bool>, Vec<bool>) {
        let m = self.maximum_matching();
        // Alternating BFS from unmatched left vertices.
        let mut left_visited = vec![false; self.n_left];
        let mut right_visited = vec![false; self.n_right];
        let mut queue: std::collections::VecDeque<u32> = (0..self.n_left as u32)
            .filter(|&l| m.left_match[l as usize] == UNMATCHED)
            .collect();
        for &l in &queue {
            left_visited[l as usize] = true;
        }
        while let Some(l) = queue.pop_front() {
            for &r in &self.adj[l as usize] {
                if !right_visited[r as usize] {
                    right_visited[r as usize] = true;
                    let next = m.right_match[r as usize];
                    if next != UNMATCHED && !left_visited[next as usize] {
                        left_visited[next as usize] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        // Cover = (left unvisited) ∪ (right visited).
        let left_cover: Vec<bool> = left_visited.iter().map(|&v| !v).collect();
        let right_cover = right_visited;
        debug_assert_eq!(
            left_cover.iter().filter(|&&b| b).count() + right_cover.iter().filter(|&&b| b).count(),
            m.size
        );
        (left_cover, right_cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching() {
        let mut g = Bipartite::new(3, 3);
        for i in 0..3 {
            g.add_edge(i, i);
            g.add_edge(i, (i + 1) % 3);
        }
        assert_eq!(g.maximum_matching().size, 3);
    }

    #[test]
    fn augmenting_path_needed() {
        // Greedy picks (0,0); HK must reroute to match both.
        let mut g = Bipartite::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let m = g.maximum_matching();
        assert_eq!(m.size, 2);
        assert_eq!(m.left_match[1], 0);
        assert_eq!(m.left_match[0], 1);
    }

    #[test]
    fn empty_graph() {
        let g = Bipartite::new(4, 2);
        assert_eq!(g.maximum_matching().size, 0);
        let (lc, rc) = g.minimum_vertex_cover();
        assert!(lc.iter().all(|&b| !b));
        assert!(rc.iter().all(|&b| !b));
    }

    #[test]
    fn konig_cover_is_valid_and_tight() {
        let mut g = Bipartite::new(4, 4);
        let edges = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)];
        for (l, r) in edges {
            g.add_edge(l, r);
        }
        let m = g.maximum_matching();
        let (lc, rc) = g.minimum_vertex_cover();
        // Every edge covered.
        for (l, r) in edges {
            assert!(lc[l as usize] || rc[r as usize], "edge ({l},{r}) uncovered");
        }
        // Tightness (König).
        let cover_size = lc.iter().filter(|&&b| b).count() + rc.iter().filter(|&&b| b).count();
        assert_eq!(cover_size, m.size);
    }

    #[test]
    fn random_graphs_cover_matches_matching() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let nl = rng.gen_range(1..10);
            let nr = rng.gen_range(1..10);
            let mut g = Bipartite::new(nl, nr);
            let mut edges = Vec::new();
            for l in 0..nl as u32 {
                for r in 0..nr as u32 {
                    if rng.gen_bool(0.3) {
                        g.add_edge(l, r);
                        edges.push((l, r));
                    }
                }
            }
            let m = g.maximum_matching();
            let (lc, rc) = g.minimum_vertex_cover();
            for (l, r) in edges {
                assert!(lc[l as usize] || rc[r as usize]);
            }
            let cover_size = lc.iter().filter(|&&b| b).count() + rc.iter().filter(|&&b| b).count();
            assert_eq!(cover_size, m.size);
        }
    }
}
