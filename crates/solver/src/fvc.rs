//! Half-integral fractional vertex cover.
//!
//! `I_R^lin` on two-tuple DCs *is* the fractional vertex cover of the
//! conflict graph (§5.2, Fig. 2). Instead of running a general LP we exploit
//! the classical half-integrality: an optimal solution with values in
//! `{0, ½, 1}` is obtained from a minimum-weight vertex cover of the
//! *bipartite double cover* (Nemhauser–Trotter) — a minimum cut of the
//! network `s → L_v` (capacity `w(v)`), `L_a → R_b` and `L_b → R_a` for
//! each edge `{a, b}` (infinite), `R_v → t` (capacity `w(v)`), with
//! `x_v = ½·[L_v cut off from s] + ½·[R_v reached from s]`. This is the
//! fast path the ablation benchmark compares against the simplex.
//!
//! Singleton violations (self-inconsistent tuples) enter the LP as
//! constraints `x_v ≥ 1` and are handled by forcing `x_v = 1` up front.
//! The free nodes are split into connected components. A component of at
//! most [`MASK_WIDTH`] nodes finds its max flow on `u64` masks: direct
//! `s → L_u → R_v → t` pushes, then BFS augmenting paths, where the middle
//! edges are the adjacency words and one word per right node holds its
//! back edges that carry flow. A wider component runs Dinic
//! ([`crate::flow`]).
//!
//! Both kernels read `x` off the same cut: the nodes reachable from `s` in
//! the residual network, which is the source side of the unique minimal
//! minimum cut and so does not depend on the order the flow was found in.
//! The value is the `0.0`-started fold of `w(v)·x_v` in ascending node
//! order, forced nodes included, so the two kernels return the same bits.
//! Every solve adds its augmenting paths, from either kernel, to
//! `solver_flow_augmentations_total` once.

use crate::flow::bipartite_min_weight_vertex_cover;
use crate::mask::{free_components, Mask, MaskGraph, MASK_WIDTH};
use inconsist_graph::ConflictGraph;

/// Residual capacities at or below this count as saturated, in both
/// kernels (the same cut-off as the Dinic network's).
const EPS: f64 = 1e-9;

/// An optimal fractional vertex cover.
#[derive(Clone, Debug)]
pub struct FractionalCover {
    /// Objective value `Σ w_v x_v` (the value of `I_R^lin`): the
    /// `0.0`-started fold in ascending node order.
    pub value: f64,
    /// Per-node assignment, each in `{0, ½, 1}`.
    pub x: Vec<f64>,
}

/// Computes the minimum-weight *fractional* vertex cover of a plain conflict
/// graph (panics on hyperedges — callers route those to the simplex).
pub fn fractional_vertex_cover(g: &ConflictGraph) -> FractionalCover {
    fractional_cover_with(g, MASK_WIDTH)
}

/// [`fractional_vertex_cover`] with components of at most `mask_width`
/// nodes on the mask kernel and wider ones on Dinic.
fn fractional_cover_with(g: &ConflictGraph, mask_width: usize) -> FractionalCover {
    assert!(
        g.is_plain_graph(),
        "fractional_vertex_cover requires a plain graph; use the covering LP for hyperedges"
    );
    // Forced nodes: x_v ≥ 1 constraints from singleton violations.
    let mut halves: Vec<u8> = (0..g.n() as u32)
        .map(|v| if g.is_excluded(v) { 2 } else { 0 })
        .collect();
    let mut augmentations = 0;
    for comp in free_components(g) {
        let (left, right, paths) = if comp.len() <= mask_width {
            let m = MaskGraph::of_component(g, &comp);
            let (left, right, paths) = mask_double_cover(&m.adj, &m.w, m.free());
            (
                (0..comp.len()).map(|i| left.has(i)).collect(),
                (0..comp.len()).map(|i| right.has(i)).collect(),
                paths,
            )
        } else {
            dinic_double_cover(g, &comp)
        };
        augmentations += paths;
        for (i, &v) in comp.iter().enumerate() {
            halves[v as usize] = u8::from(left[i]) + u8::from(right[i]);
        }
    }
    inconsist_obs::counter!("solver_flow_augmentations_total").add(augmentations);
    let weights: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
    canonical(&weights, &halves)
}

/// `I_R^lin` of a mask graph: the forced nodes at 1 and one mask flow over
/// the free nodes — the value [`fractional_vertex_cover`] returns on the
/// same graph, bit for bit.
pub(crate) fn mask_fractional_value(m: &MaskGraph) -> f64 {
    let (left, right, augmentations) = mask_double_cover(&m.adj, &m.w, m.free());
    inconsist_obs::counter!("solver_flow_augmentations_total").add(augmentations);
    let halves: Vec<u8> = (0..m.w.len())
        .map(|v| {
            if m.forced.has(v) {
                2
            } else {
                u8::from(left.has(v)) + u8::from(right.has(v))
            }
        })
        .collect();
    canonical(&m.w, &halves).value
}

/// The cover `x_v = halves[v] / 2` and its value, the `0.0`-started fold of
/// `w(v)·x_v` in ascending node order.
fn canonical(weights: &[f64], halves: &[u8]) -> FractionalCover {
    let x: Vec<f64> = halves.iter().map(|&h| f64::from(h) / 2.0).collect();
    let value = weights
        .iter()
        .zip(&x)
        .fold(0.0, |sum, (&w, &xv)| sum + w * xv);
    FractionalCover { value, x }
}

/// The double-cover max flow of one wide component on Dinic: whether each
/// local node's left and right copy is in the minimum cover, and the
/// number of augmenting paths.
fn dinic_double_cover(g: &ConflictGraph, comp: &[u32]) -> (Vec<bool>, Vec<bool>, u64) {
    let weights: Vec<f64> = comp.iter().map(|&v| g.weight(v)).collect();
    // Each edge `{a, b}` appears in both neighbour lists: `(a_L, b_R)` and
    // `(b_L, a_R)`.
    let edges: Vec<(u32, u32)> = comp
        .iter()
        .enumerate()
        .flat_map(|(i, &v)| {
            g.neighbors(v)
                .iter()
                .filter_map(move |u| comp.binary_search(u).ok().map(|j| (i as u32, j as u32)))
        })
        .collect();
    let cover = bipartite_min_weight_vertex_cover(&weights, &weights, &edges);
    (cover.left, cover.right, cover.augmentations)
}

/// Max flow on the bipartite double cover of the nodes `live` of the graph
/// `adj` / `w` (edges leaving `live` are ignored), by BFS augmenting paths
/// over masks. Returns the left copies cut off from the source, the right
/// copies reached from it, and the number of augmenting paths.
///
/// The residual network: `s → L_u` has `src[u]` left, `R_v → t` has
/// `snk[v]` left, `L_u → R_v` is always open (infinite capacity), and
/// `R_v → L_u` is open iff `u ∈ back[v]`, i.e. `L_u → R_v` carries flow.
fn mask_double_cover(adj: &[u64], w: &[f64], live: u64) -> (u64, u64, u64) {
    let n = w.len();
    let mut src = w.to_vec();
    let mut snk = w.to_vec();
    // flow[u * n + v]: the flow on L_u → R_v.
    let mut flow = vec![0.0f64; n * n];
    let mut back = vec![0u64; n];
    // BFS parents: the left node that reached R_v, and the right node
    // that reached L_u (`usize::MAX`: straight from the source).
    let mut via_l = vec![0usize; n];
    let mut via_r = vec![usize::MAX; n];
    // Paths `s → L_u → R_v → t` first, without a search: each saturates
    // `s → L_u` or `R_v → t`.
    let mut augmentations = 0;
    for u in live.members() {
        for v in (adj[u] & live).members() {
            if src[u] <= EPS {
                break;
            }
            if snk[v] > EPS {
                let push = src[u].min(snk[v]);
                src[u] -= push;
                snk[v] -= push;
                flow[u * n + v] = push;
                back[v] |= 1 << u;
                augmentations += 1;
            }
        }
    }
    loop {
        let mut seen_l = positive(&src, live);
        let mut seen_r = 0u64;
        for u in seen_l.members() {
            via_r[u] = usize::MAX;
        }
        let mut frontier = seen_l;
        let mut sink_side = None;
        'bfs: while frontier != 0 {
            let mut next = 0u64;
            for u in frontier.members() {
                let reached = adj[u] & live & !seen_r;
                seen_r |= reached;
                for v in reached.members() {
                    via_l[v] = u;
                    if snk[v] > EPS {
                        sink_side = Some(v);
                        break 'bfs;
                    }
                    let fresh = back[v] & !seen_l;
                    seen_l |= fresh;
                    next |= fresh;
                    for x in fresh.members() {
                        via_r[x] = v;
                    }
                }
            }
            frontier = next;
        }
        let Some(end) = sink_side else {
            return (live & !seen_l, seen_r, augmentations);
        };
        // The bottleneck, walking back from the sink.
        let mut push = snk[end];
        let mut v = end;
        loop {
            let u = via_l[v];
            match via_r[u] {
                usize::MAX => {
                    push = push.min(src[u]);
                    break;
                }
                prev => {
                    push = push.min(flow[u * n + prev]);
                    v = prev;
                }
            }
        }
        // Augment: forward along every `L_u → R_v`, back along every
        // `R_prev → L_u`.
        snk[end] -= push;
        let mut v = end;
        loop {
            let u = via_l[v];
            flow[u * n + v] += push;
            back[v] |= 1 << u;
            match via_r[u] {
                usize::MAX => {
                    src[u] -= push;
                    break;
                }
                prev => {
                    let f = &mut flow[u * n + prev];
                    *f -= push;
                    if *f <= EPS {
                        *f = 0.0;
                        back[prev] &= !(1 << u);
                    }
                    v = prev;
                }
            }
        }
        augmentations += 1;
    }
}

/// The members of `set` whose residual capacity is above [`EPS`].
fn positive(residual: &[f64], set: u64) -> u64 {
    set.members()
        .filter(|&v| residual[v] > EPS)
        .fold(0, |m, v| m | 1 << v)
}

/// The Nemhauser–Trotter partition derived from a half-integral optimum:
/// `(ones, halves, zeros)` as node lists. Some optimal *integral* cover
/// contains all of `ones`, none of `zeros`, and is otherwise inside
/// `halves` — the exact solver recurses only on the half core.
pub fn nt_partition(fvc: &FractionalCover) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut ones = Vec::new();
    let mut halves = Vec::new();
    let mut zeros = Vec::new();
    for (v, &xv) in fvc.x.iter().enumerate() {
        if xv >= 0.75 {
            ones.push(v as u32);
        } else if xv >= 0.25 {
            halves.push(v as u32);
        } else {
            zeros.push(v as u32);
        }
    }
    (ones, halves, zeros)
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

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn triangle_is_all_halves() {
        let g = graph(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        let f = fractional_vertex_cover(&g);
        assert_close(f.value, 1.5);
        for &xv in &f.x {
            assert_close(xv, 0.5);
        }
    }

    #[test]
    fn single_edge_half_half() {
        let g = graph(2, &[&[0, 1]]);
        let f = fractional_vertex_cover(&g);
        assert_close(f.value, 1.0);
    }

    #[test]
    fn star_is_integral() {
        let g = graph(5, &[&[0, 1], &[0, 2], &[0, 3], &[0, 4]]);
        let f = fractional_vertex_cover(&g);
        assert_close(f.value, 1.0);
        // Bipartite graphs have integral optima; the center is the cover.
        let center = g.node_of(TupleId(0)).unwrap();
        assert_close(f.x[center as usize], 1.0);
    }

    #[test]
    fn forced_singletons_cover_their_edges() {
        let g = graph(3, &[&[0], &[0, 1], &[1, 2]]);
        let f = fractional_vertex_cover(&g);
        // x_0 = 1 forced; edge {1,2} needs another unit split.
        assert_close(f.value, 2.0);
        let v0 = g.node_of(TupleId(0)).unwrap();
        assert_close(f.x[v0 as usize], 1.0);
    }

    #[test]
    fn weights_shift_the_optimum() {
        let g = graph_with_weights(&[10.0, 1.0], &[&[0, 1]]);
        let f = fractional_vertex_cover(&g);
        assert_close(f.value, 1.0);
        let v1 = g.node_of(TupleId(1)).unwrap();
        assert_close(f.x[v1 as usize], 1.0);
    }

    #[test]
    fn matches_simplex_on_random_graphs() {
        use crate::simplex::covering_lp;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..30 {
            let n = rng.gen_range(2..12usize);
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1..6) as f64).collect();
            let mut subsets: Vec<Vec<u32>> = Vec::new();
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if rng.gen_bool(0.35) {
                        subsets.push(vec![a, b]);
                    }
                }
            }
            if subsets.is_empty() {
                continue;
            }
            let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
            let g = graph_with_weights(&weights, &refs);
            let f = fractional_vertex_cover(&g);

            // Simplex oracle on the same covering LP.
            let w: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
            let sets: Vec<Vec<usize>> = g
                .edges()
                .map(|(a, b)| vec![a as usize, b as usize])
                .collect();
            let lp = covering_lp(&w, &sets);
            let sol = lp.minimize().unwrap();
            assert!(
                (f.value - sol.objective).abs() < 1e-6,
                "trial {trial}: combinatorial {} vs simplex {}",
                f.value,
                sol.objective
            );
            // Feasibility and half-integrality of the combinatorial solution.
            for (a, b) in g.edges() {
                assert!(f.x[a as usize] + f.x[b as usize] >= 1.0 - 1e-9);
            }
            for &xv in &f.x {
                assert!(
                    (xv - 0.0).abs() < 1e-9 || (xv - 0.5).abs() < 1e-9 || (xv - 1.0).abs() < 1e-9
                );
            }
        }
    }

    /// A random graph over up to `n` tuples with non-dyadic costs and
    /// mean degree 0.5–4. `wide`: one component, a spanning path plus
    /// chords. Otherwise up to three groups of edges (so several
    /// components), ~10% excluded nodes, and free nodes whose only
    /// neighbours are excluded.
    fn costed_graph(rng: &mut impl rand::Rng, n: usize, wide: bool) -> ConflictGraph {
        const COSTS: [f64; 6] = [0.1, 0.3, 0.7, 1.9, 1.0, 2.5];
        let weights: Vec<f64> = (0..n).map(|_| COSTS[rng.gen_range(0..6)]).collect();
        let density = (rng.gen_range(0.5..4.0) / n as f64).min(0.6);
        let groups = if wide { 1 } else { rng.gen_range(1..4u32) };
        let group: Vec<u32> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
        let mut subsets: Vec<Vec<u32>> = Vec::new();
        for a in 0..n as u32 {
            if !wide && rng.gen_bool(0.1) {
                subsets.push(vec![a]);
            }
            if wide && a > 0 {
                subsets.push(vec![a - 1, a]);
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
    fn mask_flow_and_dinic_agree_bit_for_bit_and_match_the_lp() {
        use crate::simplex::covering_lp;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for trial in 0..60 {
            // Ten components past the mask width (Dinic on both sides),
            // then graphs of 1–64 tuples.
            let wide = trial < 10;
            let n = if wide {
                MASK_WIDTH + 1
            } else {
                rng.gen_range(1..=MASK_WIDTH)
            };
            let g = costed_graph(&mut rng, n, wide);
            assert_eq!(
                free_components(&g).iter().any(|c| c.len() > MASK_WIDTH),
                wide
            );
            let mask = fractional_vertex_cover(&g);
            let dinic = fractional_cover_with(&g, 0);
            assert_eq!(
                mask.value.to_bits(),
                dinic.value.to_bits(),
                "trial {trial}: {} vs {}",
                mask.value,
                dinic.value
            );
            assert_eq!(mask.x, dinic.x, "trial {trial}");
            // The covering LP: one row per edge, `x_v ≥ 1` per excluded node.
            let w: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
            let rows: Vec<Vec<usize>> = g
                .edges()
                .map(|(a, b)| vec![a as usize, b as usize])
                .chain(
                    (0..g.n())
                        .filter(|&v| g.is_excluded(v as u32))
                        .map(|v| vec![v]),
                )
                .collect();
            let lp = covering_lp(&w, &rows).minimize().unwrap().objective;
            assert!(
                (mask.value - lp).abs() < 1e-9,
                "trial {trial}: flow {} vs simplex {lp}",
                mask.value
            );
            for (a, b) in g.edges() {
                assert!(
                    mask.x[a as usize] + mask.x[b as usize] >= 1.0,
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn value_is_the_ascending_fold() {
        let g = graph_with_weights(&[0.1, 0.7, 0.3, 1.9], &[&[0, 1], &[1, 2], &[2, 3], &[0]]);
        let f = fractional_vertex_cover(&g);
        let folded = (0..g.n() as u32).fold(0.0, |sum, v| sum + g.weight(v) * f.x[v as usize]);
        assert_eq!(f.value.to_bits(), folded.to_bits());
        assert_close(f.value, 0.1 + 0.3);
    }

    #[test]
    fn nt_partition_splits_by_value() {
        let g = graph(5, &[&[0, 1], &[0, 2], &[0, 3], &[0, 4]]);
        let f = fractional_vertex_cover(&g);
        let (ones, halves, zeros) = nt_partition(&f);
        assert_eq!(ones.len(), 1);
        assert!(halves.is_empty());
        assert_eq!(zeros.len(), 4);
    }
}
