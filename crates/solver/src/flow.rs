//! Dinic maximum flow with real-valued capacities.
//!
//! Powers the *weighted* bipartite minimum vertex cover (project-selection
//! construction) that the half-integral fractional vertex cover of
//! [`crate::fvc`] runs on components wider than one `u64` mask (smaller
//! ones take its mask kernel).

const EPS: f64 = 1e-9;

/// A flow network over `n` nodes.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    n: usize,
    // Edge list: to, capacity; reverse edge at index ^ 1.
    to: Vec<u32>,
    cap: Vec<f64>,
    head: Vec<Vec<u32>>,
    augmentations: u64,
}

impl FlowNetwork {
    /// A network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
            augmentations: 0,
        }
    }

    /// Adds a directed edge `u → v` with capacity `c`; returns its id.
    pub fn add_edge(&mut self, u: usize, v: usize, c: f64) -> usize {
        debug_assert!(u < self.n && v < self.n && c >= 0.0);
        let id = self.to.len();
        self.to.push(v as u32);
        self.cap.push(c);
        self.head[u].push(id as u32);
        self.to.push(u as u32);
        self.cap.push(0.0);
        self.head[v].push(id as u32 + 1);
        id
    }

    /// Computes the maximum `s → t` flow (Dinic). The network is consumed
    /// into its residual form; call [`FlowNetwork::min_cut_side`] afterwards
    /// for the cut.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        let mut total = 0.0;
        loop {
            // BFS level graph.
            let mut level = vec![u32::MAX; self.n];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &eid in &self.head[u] {
                    let v = self.to[eid as usize] as usize;
                    if self.cap[eid as usize] > EPS && level[v] == u32::MAX {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] == u32::MAX {
                return total;
            }
            // DFS blocking flow.
            let mut iter = vec![0usize; self.n];
            loop {
                let pushed = self.dfs(s, t, f64::INFINITY, &level, &mut iter);
                if pushed <= EPS {
                    break;
                }
                total += pushed;
                self.augmentations += 1;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: f64, level: &[u32], iter: &mut [usize]) -> f64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.head[u].len() {
            let eid = self.head[u][iter[u]] as usize;
            let v = self.to[eid] as usize;
            if self.cap[eid] > EPS && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[eid]), level, iter);
                if pushed > EPS {
                    self.cap[eid] -= pushed;
                    self.cap[eid ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0.0
    }

    /// The augmenting paths [`FlowNetwork::max_flow`] has pushed flow
    /// along.
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// After [`FlowNetwork::max_flow`]: the set of nodes reachable from `s`
    /// in the residual network (the source side of a minimum cut).
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        seen[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &eid in &self.head[u] {
                let v = self.to[eid as usize] as usize;
                if self.cap[eid as usize] > EPS && !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }
}

/// A minimum-weight vertex cover of a bipartite graph.
#[derive(Clone, Debug)]
pub struct BipartiteCover {
    /// The cover weight (the max-flow value).
    pub weight: f64,
    /// Left vertices in the cover.
    pub left: Vec<bool>,
    /// Right vertices in the cover.
    pub right: Vec<bool>,
    /// Augmenting paths the max flow pushed along.
    pub augmentations: u64,
}

/// Minimum-weight vertex cover of a bipartite graph via max-flow.
///
/// Construction: `source → l` with capacity `wl[l]`, `r → sink` with
/// capacity `wr[r]`, and `l → r` with capacity ∞ for each edge. A finite
/// minimum cut picks, for every edge, its left endpoint (source-side cut) or
/// its right endpoint (sink-side cut); the cut weight is the cover weight.
/// The cover read off is the minimal minimum cut: the nodes the source
/// reaches in the residual network.
pub fn bipartite_min_weight_vertex_cover(
    wl: &[f64],
    wr: &[f64],
    edges: &[(u32, u32)],
) -> BipartiteCover {
    let nl = wl.len();
    let nr = wr.len();
    let source = nl + nr;
    let sink = nl + nr + 1;
    let mut net = FlowNetwork::new(nl + nr + 2);
    for (l, &w) in wl.iter().enumerate() {
        net.add_edge(source, l, w);
    }
    for (r, &w) in wr.iter().enumerate() {
        net.add_edge(nl + r, sink, w);
    }
    for &(l, r) in edges {
        net.add_edge(l as usize, nl + r as usize, f64::INFINITY);
    }
    let weight = net.max_flow(source, sink);
    let reach = net.min_cut_side(source);
    BipartiteCover {
        weight,
        // Left vertex in cover ⇔ its source edge is cut ⇔ l unreachable.
        left: (0..nl).map(|l| !reach[l]).collect(),
        // Right vertex in cover ⇔ its sink edge is cut ⇔ r reachable.
        right: (0..nr).map(|r| reach[nl + r]).collect(),
        augmentations: net.augmentations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn unit_path_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0);
        net.add_edge(1, 2, 1.5);
        assert_close(net.max_flow(0, 2), 1.5);
        let side = net.min_cut_side(0);
        assert!(side[0] && side[1] && !side[2]);
    }

    #[test]
    fn parallel_paths() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(1, 3, 2.0);
        net.add_edge(2, 3, 2.0);
        net.add_edge(1, 2, 1.0);
        assert_close(net.max_flow(0, 3), 4.0);
    }

    #[test]
    fn weighted_cover_single_edge() {
        let c = bipartite_min_weight_vertex_cover(&[5.0], &[2.0], &[(0, 0)]);
        assert_close(c.weight, 2.0);
        assert!(!c.left[0] && c.right[0]);
        assert_eq!(c.augmentations, 1);
    }

    #[test]
    fn weighted_cover_star() {
        // Left center of weight 3 vs three right leaves of weight 2 each.
        let c =
            bipartite_min_weight_vertex_cover(&[3.0], &[2.0, 2.0, 2.0], &[(0, 0), (0, 1), (0, 2)]);
        assert_close(c.weight, 3.0);
        assert!(c.left[0]);
        assert!(!c.right.iter().any(|&b| b));
    }

    #[test]
    fn unweighted_agrees_with_koenig() {
        use crate::matching::Bipartite;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let nl = rng.gen_range(1..8);
            let nr = rng.gen_range(1..8);
            let mut edges = Vec::new();
            let mut bip = Bipartite::new(nl, nr);
            for l in 0..nl as u32 {
                for r in 0..nr as u32 {
                    if rng.gen_bool(0.35) {
                        edges.push((l, r));
                        bip.add_edge(l, r);
                    }
                }
            }
            let matching = bip.maximum_matching().size as f64;
            let c = bipartite_min_weight_vertex_cover(&vec![1.0; nl], &vec![1.0; nr], &edges);
            assert_close(c.weight, matching);
            for &(a, b) in &edges {
                assert!(c.left[a as usize] || c.right[b as usize]);
            }
        }
    }

    #[test]
    fn cover_validity_weighted_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..25 {
            let nl = rng.gen_range(1..7);
            let nr = rng.gen_range(1..7);
            let wl: Vec<f64> = (0..nl).map(|_| rng.gen_range(1..9) as f64).collect();
            let wr: Vec<f64> = (0..nr).map(|_| rng.gen_range(1..9) as f64).collect();
            let mut edges = Vec::new();
            for l in 0..nl as u32 {
                for r in 0..nr as u32 {
                    if rng.gen_bool(0.4) {
                        edges.push((l, r));
                    }
                }
            }
            let BipartiteCover {
                weight: w,
                left: lc,
                right: rc,
                ..
            } = bipartite_min_weight_vertex_cover(&wl, &wr, &edges);
            for &(a, b) in &edges {
                assert!(lc[a as usize] || rc[b as usize]);
            }
            let recomputed: f64 = wl
                .iter()
                .enumerate()
                .filter(|(i, _)| lc[*i])
                .map(|(_, &x)| x)
                .chain(
                    wr.iter()
                        .enumerate()
                        .filter(|(i, _)| rc[*i])
                        .map(|(_, &x)| x),
                )
                .sum();
            assert_close(w, recomputed);
            // Brute-force optimality for these tiny sizes.
            let mut best = f64::INFINITY;
            for mask in 0..(1u32 << (nl + nr)) {
                let covered = edges
                    .iter()
                    .all(|&(a, b)| mask & (1 << a) != 0 || mask & (1 << (nl as u32 + b)) != 0);
                if covered {
                    let weight: f64 = (0..nl + nr)
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(|i| if i < nl { wl[i] } else { wr[i - nl] })
                        .sum();
                    best = best.min(weight);
                }
            }
            assert_close(w, best);
        }
    }
}
