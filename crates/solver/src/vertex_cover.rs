//! Exact and approximate minimum-weight vertex cover.
//!
//! `I_R` under the subset repair system `R⊆` is the minimum-weight vertex
//! cover of the conflict graph (§5.1) — NP-hard in general \[42\], which is
//! why the measure needs an *exact but exponential* solver. Pipeline:
//!
//! 1. force self-inconsistent nodes into the cover;
//! 2. closed forms on what is left: no free edge costs nothing more, one
//!    free edge costs its cheaper endpoint — no mask, greedy or graph is
//!    built for them;
//! 3. split the free nodes into connected components;
//! 4. per component of at most [`MASK_WIDTH`] nodes, a branch-and-reduce
//!    over one `u64` adjacency mask per node. At every search node it
//!    drops isolated nodes and takes a live neighbour `u` of `v` whenever
//!    `N[v] ⊆ N[u]` and `w(u) ≤ w(v)` (closed-neighbourhood dominance; a
//!    leaf's neighbour is the one-neighbour case), prunes against a greedy
//!    incumbent with the clique-partition bound `Σ_K w(K) − max w(K)`,
//!    and otherwise branches on a maximum-live-degree node (in the cover,
//!    or all its live neighbours in the cover). Reductions and bounds are
//!    free; each branch node spends one budget step;
//! 5. a wider component keeps the cograph closed form (a max-weight
//!    independent set DP over the cotree), then Nemhauser–Trotter: solve
//!    the fractional cover, keep the 1-nodes, drop the 0-nodes, and solve
//!    each ½-core component by the search of step 4 on one 16-word mask
//!    (up to 1024 nodes), past that by the exact hitting-set search of
//!    [`crate::covering`].
//!
//! The returned weight is the `0.0`-started fold of the cover's node
//! weights in ascending node order, so it is a function of the cover
//! alone, whatever path found it.
//!
//! All exponential work is metered by a step budget; exhaustion returns
//! `None` (the measure reports a timeout, mirroring the paper's 24 h cap).

use crate::budget::Budget;
use crate::covering::min_weight_hitting_set_with;
use crate::fvc::{fractional_vertex_cover, nt_partition};
use crate::mask::{component_adjacency, free_components, Mask, MaskGraph};
use inconsist_graph::{cotree, ConflictGraph, Cotree};

pub use crate::mask::MASK_WIDTH;

/// An exact minimum-weight vertex cover.
#[derive(Clone, Debug)]
pub struct VertexCover {
    /// Total weight (the value of `I_R` for deletions): the ascending
    /// `0.0`-started fold of the weights of `nodes`.
    pub weight: f64,
    /// Chosen node indices, ascending.
    pub nodes: Vec<u32>,
}

/// Computes a minimum-weight vertex cover of a plain conflict graph exactly.
/// Returns `None` when `budget` branch-and-bound steps are exhausted.
pub fn min_weight_vertex_cover(g: &ConflictGraph, budget: u64) -> Option<VertexCover> {
    min_weight_vertex_cover_with(g, &mut Budget::steps(budget))
}

/// [`min_weight_vertex_cover`] against a caller-held [`Budget`], so a
/// wall-clock deadline can interrupt the branch-and-bound mid-search and
/// leftover steps are observable after the call.
pub fn min_weight_vertex_cover_with(g: &ConflictGraph, budget: &mut Budget) -> Option<VertexCover> {
    assert!(
        g.is_plain_graph(),
        "min_weight_vertex_cover requires a plain graph; use hitting_set for hyperedges"
    );
    metered(budget, |budget| {
        // Forced: self-inconsistent tuples must be deleted.
        let mut nodes: Vec<u32> = (0..g.n() as u32).filter(|&v| g.is_excluded(v)).collect();
        let mut free_edges = g
            .edges()
            .filter(|&(a, b)| !g.is_excluded(a) && !g.is_excluded(b));
        match (free_edges.next(), free_edges.next()) {
            (None, _) => {}
            (Some((a, b)), None) => nodes.push(if g.weight(b) < g.weight(a) { b } else { a }),
            _ => cover_components(g, false, &mut nodes, budget)?,
        }
        nodes.sort_unstable();
        let weight = nodes.iter().fold(0.0, |sum, &v| sum + g.weight(v));
        Some(VertexCover { weight, nodes })
    })
}

/// The exact cover of a mask graph, node for node the cover
/// [`min_weight_vertex_cover_with`] finds on the same graph: the forced
/// nodes, the same closed forms, then one [`MaskSearch`] per free
/// component (run on the whole graph's masks with the component as its
/// live set, which makes every choice the local search would).
pub(crate) fn mask_vertex_cover(m: &MaskGraph, budget: &mut Budget) -> Option<VertexCover> {
    metered(budget, |budget| {
        let free = m.free();
        let mut cover = m.forced;
        let mut free_edges = free.members().flat_map(|a| {
            (m.adj[a] & free & (u64::MAX << a << 1))
                .members()
                .map(move |b| (a, b))
        });
        match (free_edges.next(), free_edges.next()) {
            (None, _) => {}
            (Some((a, b)), None) => cover |= u64::single(if m.w[b] < m.w[a] { b } else { a }),
            _ => {
                for comp in m.components(free) {
                    cover |= MaskSearch::cover(&m.adj, &m.w, comp, budget)?;
                }
            }
        }
        Some(VertexCover {
            weight: m.weight_of(cover),
            nodes: cover.members().map(|v| v as u32).collect(),
        })
    })
}

/// Runs one cover solve under the `solver.vertex_cover` span and adds the
/// budget steps it spent to `solver_bb_nodes_total` — once per solve, not
/// per node, so the search loop stays free of shared-cache traffic.
fn metered(
    budget: &mut Budget,
    solve: impl FnOnce(&mut Budget) -> Option<VertexCover>,
) -> Option<VertexCover> {
    let _span = inconsist_obs::span!("solver.vertex_cover");
    let steps_before = budget.remaining_steps();
    let result = solve(budget);
    inconsist_obs::counter!("solver_bb_nodes_total")
        .add(steps_before.saturating_sub(budget.remaining_steps()));
    result
}

/// Covers every connected component of `g`'s free (non-excluded) nodes,
/// pushing the chosen nodes onto `out`. `kernel` marks a Nemhauser–Trotter
/// ½-core, whose wide components go to one 16-word mask (or, past 1024
/// nodes, the hitting-set search) rather than back through the kernel.
fn cover_components(
    g: &ConflictGraph,
    kernel: bool,
    out: &mut Vec<u32>,
    budget: &mut Budget,
) -> Option<()> {
    for comp in free_components(g) {
        match comp.len().div_ceil(MASK_WIDTH) {
            1 => search_component::<u64>(g, &comp, out, budget)?,
            _ if !kernel => wide_cover(g, &comp, out, budget)?,
            2..=16 => search_component::<[u64; 16]>(g, &comp, out, budget)?,
            _ => hitting_set_cover(g, &comp, out, budget)?,
        }
    }
    Some(())
}

/// One free component whose nodes fit `M`, by [`MaskSearch`].
fn search_component<M: Mask>(
    g: &ConflictGraph,
    comp: &[u32],
    out: &mut Vec<u32>,
    budget: &mut Budget,
) -> Option<()> {
    let adj = component_adjacency::<M>(g, comp);
    let w: Vec<f64> = comp.iter().map(|&v| g.weight(v)).collect();
    let cover = MaskSearch::cover(&adj, &w, M::first(comp.len()), budget)?;
    out.extend(cover.members().map(|i| comp[i]));
    Some(())
}

/// A component wider than the mask: cograph closed form, else the
/// Nemhauser–Trotter ½-core, whose components are covered again.
fn wide_cover(
    g: &ConflictGraph,
    comp: &[u32],
    out: &mut Vec<u32>,
    budget: &mut Budget,
) -> Option<()> {
    let (sub, map) = g.induced(comp);
    if let Some(tree) = cotree(&sub) {
        out.extend(
            cograph_cover(&sub, &tree)
                .into_iter()
                .map(|v| map[v as usize]),
        );
        return Some(());
    }
    let (ones, halves, _zeros) = nt_partition(&fractional_vertex_cover(&sub));
    out.extend(ones.iter().map(|&v| map[v as usize]));
    if !halves.is_empty() {
        let (core, core_map) = sub.induced(&halves);
        let mut chosen = Vec::new();
        cover_components(&core, true, &mut chosen, budget)?;
        out.extend(chosen.iter().map(|&v| map[core_map[v as usize] as usize]));
    }
    Some(())
}

/// A ½-core component wider than the widest mask, as a hitting set of its
/// edges.
fn hitting_set_cover(
    g: &ConflictGraph,
    comp: &[u32],
    out: &mut Vec<u32>,
    budget: &mut Budget,
) -> Option<()> {
    let (sub, map) = g.induced(comp);
    let weights: Vec<f64> = (0..sub.n() as u32).map(|v| sub.weight(v)).collect();
    let edges: Vec<Vec<usize>> = sub
        .edges()
        .map(|(a, b)| vec![a as usize, b as usize])
        .collect();
    let hit = min_weight_hitting_set_with(&weights, &edges, budget)?;
    out.extend(hit.elements.iter().map(|&v| map[v]));
    Some(())
}

/// The complement of a max-weight independent set over a cotree.
fn cograph_cover(g: &ConflictGraph, tree: &Cotree) -> Vec<u32> {
    fn best_is(g: &ConflictGraph, t: &Cotree) -> (f64, Vec<u32>) {
        match t {
            Cotree::Leaf(v) => (g.weight(*v), vec![*v]),
            Cotree::Union(cs) => {
                let mut w = 0.0;
                let mut nodes = Vec::new();
                for c in cs {
                    let (cw, cn) = best_is(g, c);
                    w += cw;
                    nodes.extend(cn);
                }
                (w, nodes)
            }
            Cotree::Join(cs) => cs
                .iter()
                .map(|c| best_is(g, c))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap_or((0.0, Vec::new())),
        }
    }
    let mut in_is = vec![false; g.n()];
    for v in best_is(g, tree).1 {
        in_is[v as usize] = true;
    }
    (0..g.n() as u32).filter(|&v| !in_is[v as usize]).collect()
}

/// Branch-and-reduce over one connected set of nodes `live` of the graph
/// `adj` / `w`. Every choice reads only `live`'s nodes, in ascending
/// order, so the cover it finds does not depend on what else the masks
/// hold.
struct MaskSearch<'a, M> {
    adj: &'a [M],
    w: &'a [f64],
    best: f64,
    best_cover: M,
}

impl<'a, M: Mask> MaskSearch<'a, M> {
    /// An optimal cover of the subgraph induced by `live`, or `None` once
    /// `budget` runs out.
    fn cover(adj: &'a [M], w: &'a [f64], live: M, budget: &mut Budget) -> Option<M> {
        let mut search = MaskSearch {
            adj,
            w,
            best: f64::INFINITY,
            best_cover: M::EMPTY,
        };
        (search.best, search.best_cover) = search.greedy(live);
        search.search(live, M::EMPTY, 0.0, budget)?;
        Some(search.best_cover)
    }

    /// Applies the reductions until none fires: isolated live nodes leave,
    /// and a live neighbour `u` of `v` with `N[v] ⊆ N[u]` and `w(u) ≤ w(v)`
    /// joins the cover (some optimal cover takes it: one that drops `u`
    /// holds all of `N[v]`, and trading `v` for `u` costs no more).
    fn reduce(&self, live: &mut M, cover: &mut M, cost: &mut f64) {
        loop {
            let mut changed = false;
            for v in live.members() {
                if !live.has(v) {
                    continue;
                }
                let nv = self.adj[v].and(*live);
                if nv.is_empty() {
                    *live = live.minus(M::single(v));
                    continue;
                }
                let closed = nv.or(M::single(v));
                if let Some(u) = nv.members().find(|&u| {
                    self.w[u] <= self.w[v] && closed.minus(self.adj[u].or(M::single(u))).is_empty()
                }) {
                    *live = live.minus(M::single(u));
                    *cover = cover.or(M::single(u));
                    *cost += self.w[u];
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The clique-partition bound on the live subgraph: a cover holds all
    /// but at most one node of every clique. Cliques grow greedily from
    /// the lowest live node.
    fn bound(&self, live: M) -> f64 {
        let (mut rest, mut lb) = (live, 0.0);
        while !rest.is_empty() {
            let v = rest.lowest();
            let (mut clique, mut cand) = (M::single(v), self.adj[v].and(rest));
            let (mut sum, mut max) = (self.w[v], self.w[v]);
            while !cand.is_empty() {
                let u = cand.lowest();
                clique = clique.or(M::single(u));
                cand = cand.and(self.adj[u]);
                sum += self.w[u];
                max = max.max(self.w[u]);
            }
            rest = rest.minus(clique);
            lb += sum - max;
        }
        lb
    }

    /// The incumbent: reduce, take the live node with the most live
    /// neighbours per unit weight (lowest index on ties), repeat.
    fn greedy(&self, mut live: M) -> (f64, M) {
        let (mut cover, mut cost) = (M::EMPTY, 0.0);
        loop {
            self.reduce(&mut live, &mut cover, &mut cost);
            if live.is_empty() {
                return (cost, cover);
            }
            let ratio = |v: usize| f64::from(self.adj[v].and(live).count()) / self.w[v];
            let v = live
                .members()
                .reduce(|a, b| if ratio(b) > ratio(a) { b } else { a })
                .expect("live is non-empty");
            live = live.minus(M::single(v));
            cover = cover.or(M::single(v));
            cost += self.w[v];
        }
    }

    fn search(
        &mut self,
        mut live: M,
        mut cover: M,
        mut cost: f64,
        budget: &mut Budget,
    ) -> Option<()> {
        self.reduce(&mut live, &mut cover, &mut cost);
        if live.is_empty() {
            if cost < self.best {
                (self.best, self.best_cover) = (cost, cover);
            }
            return Some(());
        }
        if cost + self.bound(live) >= self.best - 1e-12 {
            return Some(());
        }
        let degree = |v: usize| self.adj[v].and(live).count();
        let v = live
            .members()
            .reduce(|a, b| if degree(b) > degree(a) { b } else { a })
            .expect("live is non-empty");
        budget.spend()?;
        let bit = M::single(v);
        // `v` in the cover, then `v` out and its live neighbours in.
        self.search(live.minus(bit), cover.or(bit), cost + self.w[v], budget)?;
        let nv = self.adj[v].and(live);
        let extra = nv.members().fold(0.0, |sum, u| sum + self.w[u]);
        self.search(live.minus(bit.or(nv)), cover.or(nv), cost + extra, budget)
    }
}

/// Greedy 2-ish approximation: repeatedly take the node maximizing
/// (uncovered incident edges) / weight. The standalone baseline cleaner.
pub fn greedy_vertex_cover(g: &ConflictGraph) -> VertexCover {
    let n = g.n();
    let mut covered = vec![false; n]; // node removed from play
    let mut remaining_deg: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let mut uncovered_edges = g.edge_count();
    let mut weight = 0.0;
    let mut nodes = Vec::new();
    // Forced singletons first.
    for v in 0..n as u32 {
        if g.is_excluded(v) && !covered[v as usize] {
            covered[v as usize] = true;
            weight += g.weight(v);
            nodes.push(v);
            for &u in g.neighbors(v) {
                if !covered[u as usize] {
                    remaining_deg[u as usize] -= 1;
                    uncovered_edges -= 1;
                }
            }
            remaining_deg[v as usize] = 0;
        }
    }
    while uncovered_edges > 0 {
        let v = (0..n as u32)
            .filter(|&v| !covered[v as usize] && remaining_deg[v as usize] > 0)
            .max_by(|&a, &b| {
                let ra = remaining_deg[a as usize] as f64 / g.weight(a);
                let rb = remaining_deg[b as usize] as f64 / g.weight(b);
                ra.total_cmp(&rb)
            })
            .expect("uncovered edges imply a positive-degree node");
        covered[v as usize] = true;
        weight += g.weight(v);
        nodes.push(v);
        for &u in g.neighbors(v) {
            if !covered[u as usize] {
                remaining_deg[u as usize] -= 1;
                uncovered_edges -= 1;
            }
        }
        remaining_deg[v as usize] = 0;
    }
    nodes.sort();
    VertexCover { weight, nodes }
}

/// Validates a cover (test helper and debug assertion).
pub fn is_vertex_cover(g: &ConflictGraph, nodes: &[u32]) -> bool {
    let in_cover: std::collections::HashSet<u32> = nodes.iter().copied().collect();
    (0..g.n() as u32)
        .filter(|&v| g.is_excluded(v))
        .all(|v| in_cover.contains(&v))
        && g.edges()
            .all(|(a, b)| in_cover.contains(&a) || in_cover.contains(&b))
}

/// The test oracle: forced nodes, then branch and bound over the free
/// subgraph with a max-flow fractional-cover bound at every search node.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Forced nodes plus [`branch_and_bound`] over the free subgraph.
    pub(super) fn min_weight_vertex_cover(
        g: &ConflictGraph,
        budget: &mut Budget,
    ) -> Option<VertexCover> {
        let mut nodes: Vec<u32> = (0..g.n() as u32).filter(|&v| g.is_excluded(v)).collect();
        let free: Vec<u32> = (0..g.n() as u32).filter(|&v| !g.is_excluded(v)).collect();
        let (core, map) = g.induced(&free);
        let solved = branch_and_bound(&core, budget)?;
        let forced: f64 = nodes.iter().map(|&v| g.weight(v)).sum();
        nodes.extend(solved.nodes.iter().map(|&v| map[v as usize]));
        nodes.sort_unstable();
        Some(VertexCover {
            weight: forced + solved.weight,
            nodes,
        })
    }

    /// Branch and bound on an irreducible component: branch on a maximum-degree
    /// node (in-cover vs. all-neighbors-in-cover), bound with the fractional
    /// cover, seed with the greedy incumbent.
    fn branch_and_bound(g: &ConflictGraph, budget: &mut Budget) -> Option<VertexCover> {
        let incumbent = greedy_vertex_cover(g);
        let mut best = incumbent;
        let mut chosen: Vec<u32> = Vec::new();
        let alive: Vec<bool> = vec![true; g.n()];
        bb(g, alive, 0.0, &mut chosen, &mut best, budget)?;
        Some(best)
    }

    fn bb(
        g: &ConflictGraph,
        alive: Vec<bool>,
        cost: f64,
        chosen: &mut Vec<u32>,
        best: &mut VertexCover,
        budget: &mut Budget,
    ) -> Option<()> {
        budget.spend()?;
        if cost >= best.weight - 1e-12 {
            return Some(());
        }
        // Find a vertex of maximum remaining degree.
        let mut pick: Option<u32> = None;
        let mut pick_deg = 0usize;
        for v in 0..g.n() as u32 {
            if !alive[v as usize] {
                continue;
            }
            let d = g
                .neighbors(v)
                .iter()
                .filter(|&&u| alive[u as usize])
                .count();
            if d > pick_deg {
                pick_deg = d;
                pick = Some(v);
            }
        }
        let Some(v) = pick else {
            // No remaining edges: complete cover found.
            if cost < best.weight {
                *best = VertexCover {
                    weight: cost,
                    nodes: chosen.clone(),
                };
            }
            return Some(());
        };

        // Fractional lower bound on the remaining subgraph.
        let live: Vec<u32> = (0..g.n() as u32).filter(|&u| alive[u as usize]).collect();
        let (sub, _) = g.induced(&live);
        let lb = fractional_vertex_cover(&sub).value;
        if cost + lb >= best.weight - 1e-12 {
            return Some(());
        }

        // Branch 1: v in the cover.
        {
            let mut a = alive.clone();
            a[v as usize] = false;
            chosen.push(v);
            bb(g, a, cost + g.weight(v), chosen, best, budget)?;
            chosen.pop();
        }
        // Branch 2: v not in the cover ⇒ all alive neighbors are.
        {
            let mut a = alive;
            a[v as usize] = false;
            let mut extra = 0.0;
            let before = chosen.len();
            for &u in g.neighbors(v) {
                if a[u as usize] {
                    a[u as usize] = false;
                    extra += g.weight(u);
                    chosen.push(u);
                }
            }
            bb(g, a, cost + extra, chosen, best, budget)?;
            chosen.truncate(before);
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_constraints::ViolationSet;
    use inconsist_relational::{relation, Database, Fact, Schema, TupleId, Value, ValueKind};
    use std::sync::Arc;

    fn graph_with_weights(weights: &[f64], subsets: &[&[u32]]) -> ConflictGraph {
        let mut s = Schema::new();
        let r = s
            .add_relation(
                relation("R", &[("A", ValueKind::Int), ("cost", ValueKind::Float)]).unwrap(),
            )
            .unwrap();
        s.set_cost_attr(r, "cost").unwrap();
        let mut db = Database::new(Arc::new(s));
        for (i, &w) in weights.iter().enumerate() {
            db.insert(Fact::new(r, [Value::int(i as i64), Value::float(w)]))
                .unwrap();
        }
        let sets: Vec<ViolationSet> = subsets
            .iter()
            .map(|s| s.iter().map(|&i| TupleId(i)).collect())
            .collect();
        ConflictGraph::from_subsets(&db, &sets)
    }

    fn graph(n: usize, subsets: &[&[u32]]) -> ConflictGraph {
        graph_with_weights(&vec![1.0; n], subsets)
    }

    fn brute_force(g: &ConflictGraph) -> f64 {
        let n = g.n();
        assert!(n <= 20);
        let mut best = f64::INFINITY;
        'mask: for mask in 0..(1u32 << n) {
            for v in 0..n as u32 {
                if g.is_excluded(v) && mask & (1 << v) == 0 {
                    continue 'mask;
                }
            }
            for (a, b) in g.edges() {
                if mask & (1 << a) == 0 && mask & (1 << b) == 0 {
                    continue 'mask;
                }
            }
            let w: f64 = (0..n as u32)
                .filter(|&v| mask & (1 << v) != 0)
                .map(|v| g.weight(v))
                .sum();
            best = best.min(w);
        }
        best
    }

    #[test]
    fn triangle_needs_two() {
        let g = graph(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        let vc = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert_eq!(vc.weight, 2.0);
        assert!(is_vertex_cover(&g, &vc.nodes));
    }

    #[test]
    fn p4_needs_two() {
        let g = graph(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let vc = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert_eq!(vc.weight, 2.0);
        assert!(is_vertex_cover(&g, &vc.nodes));
    }

    #[test]
    fn odd_cycle_c5() {
        // C5 is neither bipartite nor a cograph: exercises the B&B path.
        let g = graph(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[0, 4]]);
        let vc = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert_eq!(vc.weight, 3.0);
        assert!(is_vertex_cover(&g, &vc.nodes));
    }

    #[test]
    fn weights_change_the_answer() {
        // Star: center weight 10, leaves weight 1 → take the three leaves.
        let g = graph_with_weights(&[10.0, 1.0, 1.0, 1.0], &[&[0, 1], &[0, 2], &[0, 3]]);
        let vc = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert_eq!(vc.weight, 3.0);
        assert!(is_vertex_cover(&g, &vc.nodes));
    }

    #[test]
    fn excluded_nodes_are_forced() {
        let g = graph(3, &[&[0], &[1, 2]]);
        let vc = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert_eq!(vc.weight, 2.0);
        let t0 = g.node_of(TupleId(0)).unwrap();
        assert!(vc.nodes.contains(&t0));
    }

    #[test]
    fn paper_running_example_d1_and_d2() {
        // D1 (0-based): K4 on {1,2,3,4} plus edge {0,4} → minimum 3.
        let g1 = graph(
            5,
            &[
                &[1, 2],
                &[1, 3],
                &[1, 4],
                &[2, 3],
                &[2, 4],
                &[3, 4],
                &[0, 4],
            ],
        );
        assert_eq!(min_weight_vertex_cover(&g1, 1 << 20).unwrap().weight, 3.0);
        // D2: {1,2},{1,3},{1,4},{2,3},{3,4} → minimum 2 (e.g. {1,3}).
        let g2 = graph(5, &[&[1, 2], &[1, 3], &[1, 4], &[2, 3], &[3, 4]]);
        assert_eq!(min_weight_vertex_cover(&g2, 1 << 20).unwrap().weight, 2.0);
    }

    #[test]
    fn greedy_is_a_valid_cover() {
        let g = graph(
            6,
            &[
                &[0, 1],
                &[1, 2],
                &[2, 3],
                &[3, 4],
                &[4, 5],
                &[5, 0],
                &[0, 3],
            ],
        );
        let greedy = greedy_vertex_cover(&g);
        assert!(is_vertex_cover(&g, &greedy.nodes));
        let exact = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert!(greedy.weight >= exact.weight);
        assert!(greedy.weight <= 2.0 * exact.weight + 1e-9);
    }

    #[test]
    fn randomized_against_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..40 {
            let n = rng.gen_range(2..13usize);
            let weighted = rng.gen_bool(0.5);
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    if weighted {
                        rng.gen_range(1..6) as f64
                    } else {
                        1.0
                    }
                })
                .collect();
            let mut subsets: Vec<Vec<u32>> = Vec::new();
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if rng.gen_bool(0.3) {
                        subsets.push(vec![a, b]);
                    }
                }
            }
            if rng.gen_bool(0.2) {
                subsets.push(vec![rng.gen_range(0..n as u32)]);
            }
            let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
            let g = graph_with_weights(&weights, &refs);
            if g.n() == 0 {
                continue;
            }
            let vc = min_weight_vertex_cover(&g, 1 << 22).expect("budget generous");
            assert!(is_vertex_cover(&g, &vc.nodes), "trial {trial}");
            let expected = brute_force(&g);
            assert!(
                (vc.weight - expected).abs() < 1e-9,
                "trial {trial}: got {} expected {}",
                vc.weight,
                expected
            );
        }
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        // Two disjoint C5s force the B&B path with a tiny budget.
        let g = graph(
            10,
            &[
                &[0, 1],
                &[1, 2],
                &[2, 3],
                &[3, 4],
                &[0, 4],
                &[5, 6],
                &[6, 7],
                &[7, 8],
                &[8, 9],
                &[5, 9],
            ],
        );
        assert!(min_weight_vertex_cover(&g, 1).is_none());
        assert!(min_weight_vertex_cover(&g, 1 << 20).is_some());
    }

    #[test]
    fn complete_multipartite_closed_form() {
        // K_{2,2,2} (octahedron, a cograph): VC = 6 − 2 = 4.
        let parts: [&[u32]; 3] = [&[0, 1], &[2, 3], &[4, 5]];
        let mut subsets: Vec<Vec<u32>> = Vec::new();
        for i in 0..3 {
            for j in i + 1..3 {
                for &a in parts[i] {
                    for &b in parts[j] {
                        subsets.push(vec![a, b]);
                    }
                }
            }
        }
        let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
        let g = graph(6, &refs);
        let vc = min_weight_vertex_cover(&g, 1 << 10).unwrap();
        assert_eq!(vc.weight, 4.0);
    }

    /// The 0.0-started fold of the cover's weights in ascending node order.
    fn canonical(g: &ConflictGraph, nodes: &[u32]) -> f64 {
        assert!(nodes.windows(2).all(|p| p[0] < p[1]), "nodes ascend");
        nodes.iter().fold(0.0, |sum, &v| sum + g.weight(v))
    }

    /// Random costed graphs: several groups (components, unless a group is
    /// cut up by its excluded nodes), some self-inconsistent nodes, and
    /// costs that are not dyadic, so two optimal covers can differ in the
    /// last bit of their sums.
    fn costed_graph(rng: &mut impl rand::Rng, n: usize, density: f64) -> ConflictGraph {
        const COSTS: [f64; 4] = [0.1, 0.3, 0.7, 1.9];
        let weights: Vec<f64> = (0..n).map(|_| COSTS[rng.gen_range(0..4)]).collect();
        let groups = rng.gen_range(1..4u32);
        let group: Vec<u32> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
        let mut subsets: Vec<Vec<u32>> = Vec::new();
        for a in 0..n as u32 {
            if rng.gen_bool(0.1) {
                subsets.push(vec![a]);
            }
            for b in a + 1..n as u32 {
                if group[a as usize] == group[b as usize] && rng.gen_bool(density) {
                    subsets.push(vec![a, b]);
                }
            }
        }
        let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
        graph_with_weights(&weights, &refs)
    }

    #[test]
    fn costed_covers_match_brute_force_and_the_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..400 {
            let n = rng.gen_range(1..=16usize);
            let density = rng.gen_range(0.15..0.7);
            let g = costed_graph(&mut rng, n, density);
            let vc = min_weight_vertex_cover(&g, 1 << 22).expect("budget generous");
            assert!(is_vertex_cover(&g, &vc.nodes), "trial {trial}");
            let expected = brute_force(&g);
            assert!(
                (vc.weight - expected).abs() < 1e-9,
                "trial {trial}: got {} brute force {expected}",
                vc.weight
            );
            let old = oracle::min_weight_vertex_cover(&g, &mut Budget::steps(1 << 22))
                .expect("budget generous");
            assert!(
                (vc.weight - old.weight).abs() < 1e-9,
                "trial {trial}: got {} oracle {}",
                vc.weight,
                old.weight
            );
            assert_eq!(
                vc.weight.to_bits(),
                canonical(&g, &vc.nodes).to_bits(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn wide_components_match_the_oracle() {
        // Components past the mask width take the kernel path: a cograph
        // (complete bipartite), and sparse graphs whose ½-core may or may
        // not fit a mask.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let mut subsets: Vec<Vec<u32>> = Vec::new();
        for a in 0..30u32 {
            for b in 30..70u32 {
                subsets.push(vec![a, b]);
            }
        }
        let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
        let g = graph(70, &refs);
        let vc = min_weight_vertex_cover(&g, 1 << 10).unwrap();
        assert_eq!(vc.weight, 30.0);
        assert!(is_vertex_cover(&g, &vc.nodes));
        for trial in 0..6 {
            let n = rng.gen_range(MASK_WIDTH + 1..MASK_WIDTH + 16);
            const COSTS: [f64; 4] = [0.1, 0.3, 0.7, 1.9];
            let weights: Vec<f64> = (0..n).map(|_| COSTS[rng.gen_range(0..4)]).collect();
            // A spanning path keeps it one component; chords make it hard.
            let mut subsets: Vec<Vec<u32>> = (1..n as u32).map(|b| vec![b - 1, b]).collect();
            for _ in 0..n / 2 {
                let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if a != b {
                    subsets.push(vec![a.min(b), a.max(b)]);
                }
            }
            let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
            let g = graph_with_weights(&weights, &refs);
            let vc = min_weight_vertex_cover(&g, 1 << 24).expect("budget generous");
            assert!(is_vertex_cover(&g, &vc.nodes), "trial {trial}");
            let old = oracle::min_weight_vertex_cover(&g, &mut Budget::steps(1 << 24))
                .expect("budget generous");
            assert!(
                (vc.weight - old.weight).abs() < 1e-9,
                "trial {trial}: got {} oracle {}",
                vc.weight,
                old.weight
            );
            assert_eq!(vc.weight.to_bits(), canonical(&g, &vc.nodes).to_bits());
        }
    }

    #[test]
    fn wide_half_cores_take_multi_word_masks_then_the_hitting_set() {
        // An odd cycle is all halves in the fractional cover, so its ½-core
        // is the whole cycle: three widths on the 16-word mask, and one
        // past it.
        for n in [65u32, 129, 257, 1025] {
            let subsets: Vec<Vec<u32>> = (1..n)
                .map(|b| vec![b - 1, b])
                .chain([vec![0, n - 1]])
                .collect();
            let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
            let g = graph(n as usize, &refs);
            let vc = min_weight_vertex_cover(&g, 1 << 20).expect("budget generous");
            assert!(is_vertex_cover(&g, &vc.nodes), "n = {n}");
            assert_eq!(vc.weight, f64::from(n.div_ceil(2)), "n = {n}");
        }
    }

    #[test]
    fn tiny_components_take_closed_forms_without_steps() {
        // One excluded node, one edge (cheaper endpoint), and both: none
        // of them branches, so a zero budget still solves them.
        let g = graph(1, &[&[0]]);
        let vc = min_weight_vertex_cover(&g, 0).unwrap();
        assert_eq!((vc.weight, vc.nodes), (1.0, vec![0]));
        let g = graph_with_weights(&[0.7, 0.3], &[&[0, 1]]);
        let vc = min_weight_vertex_cover(&g, 0).unwrap();
        assert_eq!((vc.weight, vc.nodes), (0.3, vec![1]));
        let g = graph_with_weights(&[0.7, 0.3, 1.9], &[&[0, 1], &[1, 2], &[2]]);
        let vc = min_weight_vertex_cover(&g, 0).unwrap();
        assert_eq!(vc.nodes, vec![1, 2]);
        assert_eq!(vc.weight.to_bits(), (0.0 + 0.3 + 1.9f64).to_bits());
    }

    #[test]
    fn fractional_is_a_lower_bound_within_factor_two() {
        use crate::fvc::fractional_vertex_cover;
        let g = graph(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[0, 4]]);
        let f = fractional_vertex_cover(&g);
        let vc = min_weight_vertex_cover(&g, 1 << 20).unwrap();
        assert!(f.value <= vc.weight + 1e-9);
        assert!(vc.weight <= 2.0 * f.value + 1e-9);
    }
}
