//! Cograph (P4-free) recognition and linear-time counting of maximal
//! independent sets.
//!
//! §5.1 of the paper, citing \[40\]: under conventional complexity
//! assumptions, the FD sets for which `I_MC` is tractable are exactly those
//! whose conflict graphs are always P4-free (cographs). This module
//! implements the tractable side: recognize a cograph by recursive
//! complement-decomposition, and count maximal independent sets by dynamic
//! programming over the cotree:
//!
//! * leaf — 1;
//! * union node (disjoint union) — product of children (independent choices
//!   per part);
//! * join node (complete join) — sum of children (a maximal independent set
//!   cannot cross a join).

use crate::conflict::ConflictGraph;
use crate::mis::CountError;

/// The modular decomposition tree of a cograph.
#[derive(Clone, Debug)]
pub enum Cotree {
    /// A single vertex (node index of the underlying graph).
    Leaf(u32),
    /// Disjoint union of the children.
    Union(Vec<Cotree>),
    /// Complete join of the children.
    Join(Vec<Cotree>),
}

impl Cotree {
    /// Number of leaves.
    pub fn size(&self) -> usize {
        match self {
            Cotree::Leaf(_) => 1,
            Cotree::Union(cs) | Cotree::Join(cs) => cs.iter().map(Cotree::size).sum(),
        }
    }

    /// Number of maximal independent sets of the represented graph;
    /// `None` when it exceeds `u128::MAX` (checked, never wrapped).
    pub fn count_mis(&self) -> Option<u128> {
        match self {
            Cotree::Leaf(_) => Some(1),
            Cotree::Union(cs) => cs
                .iter()
                .try_fold(1u128, |acc, c| acc.checked_mul(c.count_mis()?)),
            Cotree::Join(cs) => cs
                .iter()
                .try_fold(0u128, |acc, c| acc.checked_add(c.count_mis()?)),
        }
    }
}

/// Builds the cotree of the subgraph induced by the non-excluded nodes of
/// `g`; `None` when that subgraph contains an induced P4 (not a cograph) or
/// when `g` has hyperedges.
pub fn cotree(g: &ConflictGraph) -> Option<Cotree> {
    if !g.is_plain_graph() {
        return None;
    }
    let keep: Vec<u32> = (0..g.n() as u32).filter(|&v| !g.is_excluded(v)).collect();
    let (core, mapping) = g.induced(&keep);
    if core.n() == 0 {
        return Some(Cotree::Union(Vec::new()));
    }
    let nodes: Vec<u32> = (0..core.n() as u32).collect();
    let tree = decompose(&core, &nodes)?;
    Some(relabel(tree, &mapping))
}

/// Counts `|MC_Σ(D)|` through the cotree; `None` when `g`'s core is not a
/// cograph, `Some(Err(CountError::Overflow))` when the count exceeds
/// `u128::MAX`. The empty cotree (no conflicting node) counts 1 — the
/// database itself is the single maximal consistent subset.
pub fn count_mis_if_cograph(g: &ConflictGraph) -> Option<Result<u128, CountError>> {
    let tree = cotree(g)?;
    Some(match &tree {
        Cotree::Union(cs) if cs.is_empty() => Ok(1),
        t => t.count_mis().ok_or(CountError::Overflow),
    })
}

fn relabel(tree: Cotree, mapping: &[u32]) -> Cotree {
    match tree {
        Cotree::Leaf(v) => Cotree::Leaf(mapping[v as usize]),
        Cotree::Union(cs) => Cotree::Union(cs.into_iter().map(|c| relabel(c, mapping)).collect()),
        Cotree::Join(cs) => Cotree::Join(cs.into_iter().map(|c| relabel(c, mapping)).collect()),
    }
}

/// Recursive cograph decomposition over an explicit vertex subset.
fn decompose(g: &ConflictGraph, vertices: &[u32]) -> Option<Cotree> {
    if vertices.len() == 1 {
        return Some(Cotree::Leaf(vertices[0]));
    }
    let comps = components_within(g, vertices, false);
    if comps.len() > 1 {
        return comps
            .iter()
            .map(|c| decompose(g, c))
            .collect::<Option<Vec<_>>>()
            .map(Cotree::Union);
    }
    let cocomps = components_within(g, vertices, true);
    if cocomps.len() > 1 {
        return cocomps
            .iter()
            .map(|c| decompose(g, c))
            .collect::<Option<Vec<_>>>()
            .map(Cotree::Join);
    }
    None // connected and co-connected with ≥ 2 vertices ⇒ has an induced P4
}

/// Connected components of the induced subgraph (or its complement) on
/// `vertices`. The complement walk uses the unvisited-set technique to stay
/// near-linear.
fn components_within(g: &ConflictGraph, vertices: &[u32], complement: bool) -> Vec<Vec<u32>> {
    use std::collections::BTreeSet;
    let vertex_set: BTreeSet<u32> = vertices.iter().copied().collect();
    let mut unvisited: BTreeSet<u32> = vertex_set.clone();
    let mut out = Vec::new();
    while let Some(&start) = unvisited.iter().next() {
        unvisited.remove(&start);
        let mut comp = vec![start];
        let mut queue = vec![start];
        while let Some(v) = queue.pop() {
            if complement {
                // Complement neighbors = unvisited \ N(v).
                let nbrs: Vec<u32> = unvisited
                    .iter()
                    .copied()
                    .filter(|&u| !g.has_edge(v, u))
                    .collect();
                for u in nbrs {
                    unvisited.remove(&u);
                    comp.push(u);
                    queue.push(u);
                }
            } else {
                for &u in g.neighbors(v) {
                    if unvisited.remove(&u) {
                        comp.push(u);
                        queue.push(u);
                    }
                }
            }
        }
        comp.sort();
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::count_maximal_consistent_subsets;
    use inconsist_constraints::ViolationSet;
    use inconsist_relational::{relation, Database, Fact, Schema, TupleId, Value, ValueKind};
    use std::sync::Arc;

    fn graph(n: usize, subsets: &[&[u32]]) -> ConflictGraph {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int)]).unwrap())
            .unwrap();
        let mut db = Database::new(Arc::new(s));
        for i in 0..n {
            db.insert(Fact::new(r, [Value::int(i as i64)])).unwrap();
        }
        let sets: Vec<ViolationSet> = subsets
            .iter()
            .map(|s| s.iter().map(|&i| TupleId(i)).collect())
            .collect();
        ConflictGraph::from_subsets(&db, &sets)
    }

    #[test]
    fn p4_is_rejected() {
        let g = graph(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert!(cotree(&g).is_none());
        assert!(count_mis_if_cograph(&g).is_none());
    }

    #[test]
    fn complete_multipartite_is_cograph() {
        // K_{2,3}: parts {0,1} and {2,3,4} — the conflict graph of one FD
        // key group with two distinct RHS values.
        let g = graph(5, &[&[0, 2], &[0, 3], &[0, 4], &[1, 2], &[1, 3], &[1, 4]]);
        // MIS: each part → 2.
        assert_eq!(count_mis_if_cograph(&g), Some(Ok(2)));
        assert_eq!(
            count_maximal_consistent_subsets(&g, 1 << 20),
            Ok(2),
            "BK agrees"
        );
    }

    #[test]
    fn triangle_counts_three() {
        let g = graph(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(count_mis_if_cograph(&g), Some(Ok(3)));
    }

    #[test]
    fn disjoint_union_multiplies() {
        let g = graph(4, &[&[0, 1], &[2, 3]]);
        let t = cotree(&g).unwrap();
        assert!(matches!(t, Cotree::Union(_)));
        assert_eq!(t.count_mis(), Some(4));
    }

    #[test]
    fn empty_core_counts_one() {
        let g = graph(3, &[&[0]]); // single excluded node
        assert_eq!(count_mis_if_cograph(&g), Some(Ok(1)));
    }

    #[test]
    fn products_past_u128_are_overflow() {
        // k disjoint edges: a union of k joins, 2^k maximal independent
        // sets — exact at k = 127, one past `u128::MAX` at k = 128.
        let pairs = |k: u32| {
            let edges: Vec<Vec<u32>> = (0..k).map(|i| vec![2 * i, 2 * i + 1]).collect();
            let refs: Vec<&[u32]> = edges.iter().map(|e| e.as_slice()).collect();
            graph(2 * k as usize, &refs)
        };
        assert_eq!(count_mis_if_cograph(&pairs(127)), Some(Ok(1 << 127)));
        for k in [128, 200] {
            assert_eq!(
                count_mis_if_cograph(&pairs(k)),
                Some(Err(CountError::Overflow)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn random_cographs_match_bk() {
        use rand::{Rng, SeedableRng};
        // Generate random cographs by random cotrees, materialize edges,
        // compare the DP count against Bron–Kerbosch.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for trial in 0..20 {
            let n = rng.gen_range(2..10usize);
            // Random binary cotree over n leaves.
            #[derive(Clone)]
            enum T {
                L(u32),
                U(Box<T>, Box<T>),
                J(Box<T>, Box<T>),
            }
            fn build(leaves: &[u32], rng: &mut impl Rng) -> T {
                if leaves.len() == 1 {
                    return T::L(leaves[0]);
                }
                let split = rng.gen_range(1..leaves.len());
                let l = build(&leaves[..split], rng);
                let r = build(&leaves[split..], rng);
                if rng.gen_bool(0.5) {
                    T::U(Box::new(l), Box::new(r))
                } else {
                    T::J(Box::new(l), Box::new(r))
                }
            }
            fn leaves(t: &T) -> Vec<u32> {
                match t {
                    T::L(v) => vec![*v],
                    T::U(a, b) | T::J(a, b) => {
                        let mut l = leaves(a);
                        l.extend(leaves(b));
                        l
                    }
                }
            }
            fn edges(t: &T, out: &mut Vec<Vec<u32>>) {
                match t {
                    T::L(_) => {}
                    T::U(a, b) => {
                        edges(a, out);
                        edges(b, out);
                    }
                    T::J(a, b) => {
                        edges(a, out);
                        edges(b, out);
                        for x in leaves(a) {
                            for y in leaves(b) {
                                out.push(vec![x, y]);
                            }
                        }
                    }
                }
            }
            let t = build(&(0..n as u32).collect::<Vec<_>>(), &mut rng);
            let mut subsets = Vec::new();
            edges(&t, &mut subsets);
            let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
            let g = graph(n, &refs);
            let dp = count_mis_if_cograph(&g);
            let bk = count_maximal_consistent_subsets(&g, 1 << 24);
            // Isolated vertices may be dropped from the conflict graph, but
            // they do not change the MIS count.
            assert!(
                dp.is_some(),
                "random cotree must be a cograph (trial {trial})"
            );
            assert_eq!(dp.unwrap(), bk, "trial {trial}");
        }
    }
}
