//! Counting maximal consistent subsets.
//!
//! `I_MC(Σ, D) = |MC_Σ(D)| − 1` (§3). For anti-monotonic constraints the
//! maximal consistent subsets are exactly: (every tuple not participating in
//! any violation) ∪ (a maximal independent set of the conflict graph
//! restricted to non-self-inconsistent nodes). Counting maximal independent
//! sets is #P-complete in general (§5.1), which the paper's experiments
//! surface as 24-hour timeouts — we surface it as a *step budget*: every
//! counting routine fails with [`CountError::Budget`] once its budget is
//! exhausted. Counts are exact `u128`s; a count past `u128::MAX` fails
//! with [`CountError::Overflow`] instead of wrapping.
//!
//! Algorithm: connected-component decomposition (counts multiply), then
//! Bron–Kerbosch with pivoting run on the complement graph (maximal cliques
//! of the complement are maximal independent sets). The paper used the
//! external `parallel_enum` tool \[51\] for the same job.

use crate::bitset::BitSet;
use crate::conflict::ConflictGraph;

/// Why a maximal-consistent-subset count has no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The step budget ran out (the measure is then reported as a
    /// timeout, as in the paper).
    Budget,
    /// The exact count exceeds `u128::MAX`.
    Overflow,
}

/// Counts maximal consistent subsets `|MC_Σ(D)|` of the database whose
/// conflict graph is `g`, failing once `budget` recursion steps are
/// exhausted or the count leaves `u128`.
pub fn count_maximal_consistent_subsets(
    g: &ConflictGraph,
    budget: u64,
) -> Result<u128, CountError> {
    let keep: Vec<u32> = (0..g.n() as u32).filter(|&v| !g.is_excluded(v)).collect();
    let (core, _) = g.induced(&keep);
    if !core.is_plain_graph() {
        return count_hyper(&core, budget).ok_or(CountError::Budget);
    }
    let mut budget = budget;
    let mut total: u128 = 1;
    for comp in core.components() {
        let (sub, _) = core.induced(&comp);
        let c = bk_count_component(&sub, &mut budget)?;
        total = total.checked_mul(c).ok_or(CountError::Overflow)?;
    }
    Ok(total)
}

/// Enumerates the maximal independent sets of a *plain* conflict graph
/// (ignoring excluded nodes), passing each as a sorted node list. Returns
/// `false` if the budget ran out. Intended for tests and tiny instances.
pub fn enumerate_maximal_independent_sets(
    g: &ConflictGraph,
    budget: u64,
    cb: &mut dyn FnMut(&[u32]),
) -> bool {
    assert!(g.is_plain_graph(), "enumeration requires a plain graph");
    let keep: Vec<u32> = (0..g.n() as u32).filter(|&v| !g.is_excluded(v)).collect();
    let (core, mapping) = g.induced(&keep);
    let n = core.n();
    let comp_adj = complement_adjacency(&core);
    let mut budget = budget;
    let mut current: Vec<u32> = Vec::new();
    let p = BitSet::full(n);
    let x = BitSet::new(n);
    bk_enumerate(&comp_adj, p, x, &mut current, &mut budget, &mut |set| {
        let mut mapped: Vec<u32> = set.iter().map(|&v| mapping[v as usize]).collect();
        mapped.sort();
        cb(&mapped);
    })
}

fn complement_adjacency(g: &ConflictGraph) -> Vec<BitSet> {
    let n = g.n();
    (0..n)
        .map(|v| {
            let mut s = BitSet::full(n);
            s.remove(v);
            for &u in g.neighbors(v as u32) {
                s.remove(u as usize);
            }
            s
        })
        .collect()
}

fn bk_count_component(g: &ConflictGraph, budget: &mut u64) -> Result<u128, CountError> {
    let n = g.n();
    if n == 0 {
        return Ok(1);
    }
    if g.edge_count() == 0 {
        return Ok(1); // the whole component is the unique MIS
    }
    let comp_adj = complement_adjacency(g);
    let p = BitSet::full(n);
    let x = BitSet::new(n);
    bk_count(&comp_adj, p, x, budget)
}

/// Bron–Kerbosch with pivoting, counting only.
fn bk_count(
    comp_adj: &[BitSet],
    p: BitSet,
    x: BitSet,
    budget: &mut u64,
) -> Result<u128, CountError> {
    if *budget == 0 {
        return Err(CountError::Budget);
    }
    *budget -= 1;
    if p.is_empty() {
        return Ok(if x.is_empty() { 1 } else { 0 });
    }
    // Pivot: vertex of P ∪ X with most complement-neighbors in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| p.intersection_len(&comp_adj[u]))
        .expect("P is nonempty");
    let mut candidates = p.clone();
    candidates.subtract(&comp_adj[pivot]);

    let mut p = p;
    let mut x = x;
    let mut total: u128 = 0;
    for v in candidates.iter() {
        let np = p.intersection(&comp_adj[v]);
        let nx = x.intersection(&comp_adj[v]);
        total = total
            .checked_add(bk_count(comp_adj, np, nx, budget)?)
            .ok_or(CountError::Overflow)?;
        p.remove(v);
        x.insert(v);
    }
    Ok(total)
}

fn bk_enumerate(
    comp_adj: &[BitSet],
    p: BitSet,
    x: BitSet,
    current: &mut Vec<u32>,
    budget: &mut u64,
    cb: &mut dyn FnMut(&[u32]),
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if p.is_empty() {
        if x.is_empty() {
            cb(current);
        }
        return true;
    }
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| p.intersection_len(&comp_adj[u]))
        .expect("P is nonempty");
    let mut candidates = p.clone();
    candidates.subtract(&comp_adj[pivot]);

    let mut p = p;
    let mut x = x;
    for v in candidates.iter() {
        let np = p.intersection(&comp_adj[v]);
        let nx = x.intersection(&comp_adj[v]);
        current.push(v as u32);
        if !bk_enumerate(comp_adj, np, nx, current, budget, cb) {
            return false;
        }
        current.pop();
        p.remove(v);
        x.insert(v);
    }
    true
}

/// Fallback for hypergraphs: brute force over subsets, viable only for tiny
/// components (the paper's experiments never produce hyperedges — only the
/// ternary-EGD unit tests do).
fn count_hyper(g: &ConflictGraph, budget: u64) -> Option<u128> {
    let n = g.n();
    if n > 24 || (1u64 << n) > budget.saturating_mul(8) {
        return None;
    }
    let edges: Vec<u32> = g.edges().map(|(a, b)| (1 << a) | (1 << b)).collect();
    let hyper: Vec<u32> = g
        .hyperedges()
        .iter()
        .map(|h| h.iter().fold(0u32, |m, &v| m | (1 << v)))
        .collect();
    let independent =
        |mask: u32| edges.iter().all(|&e| e & mask != e) && hyper.iter().all(|&h| h & mask != h);
    let mut count: u128 = 0;
    for mask in 0..(1u32 << n) {
        if !independent(mask) {
            continue;
        }
        // Maximal: adding any outside vertex breaks independence.
        let maximal = (0..n as u32)
            .filter(|&v| mask & (1 << v) == 0)
            .all(|v| !independent(mask | (1 << v)));
        if maximal {
            count += 1;
        }
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_constraints::ViolationSet;
    use inconsist_relational::{relation, Database, Fact, Schema, TupleId, Value, ValueKind};
    use std::sync::Arc;

    fn tiny_db(n: usize) -> Database {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int)]).unwrap())
            .unwrap();
        let mut db = Database::new(Arc::new(s));
        for i in 0..n {
            db.insert(Fact::new(r, [Value::int(i as i64)])).unwrap();
        }
        db
    }

    fn graph(n: usize, subsets: &[&[u32]]) -> ConflictGraph {
        let db = tiny_db(n);
        let sets: Vec<ViolationSet> = subsets
            .iter()
            .map(|s| s.iter().map(|&i| TupleId(i)).collect())
            .collect();
        ConflictGraph::from_subsets(&db, &sets)
    }

    /// Oracle: brute-force MIS count for plain graphs on ≤ 20 nodes.
    fn brute_force(g: &ConflictGraph) -> u128 {
        let keep: Vec<u32> = (0..g.n() as u32).filter(|&v| !g.is_excluded(v)).collect();
        let (core, _) = g.induced(&keep);
        let n = core.n();
        assert!(n <= 20);
        let edges: Vec<u32> = core.edges().map(|(a, b)| (1 << a) | (1 << b)).collect();
        let independent = |m: u32| edges.iter().all(|&e| e & m != e);
        let mut count = 0u128;
        for mask in 0..(1u32 << n) {
            if independent(mask)
                && (0..n as u32)
                    .filter(|&v| mask & (1 << v) == 0)
                    .all(|v| !independent(mask | (1 << v)))
            {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn triangle_has_three_mis() {
        let g = graph(3, &[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(count_maximal_consistent_subsets(&g, 1 << 20), Ok(3));
    }

    #[test]
    fn path_of_four_nodes() {
        // P4 (not a cograph): MIS are {0,2},{0,3},{1,3} → 3.
        let g = graph(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert_eq!(count_maximal_consistent_subsets(&g, 1 << 20), Ok(3));
        assert_eq!(brute_force(&g), 3);
    }

    #[test]
    fn components_multiply() {
        // Two disjoint edges: 2 × 2 = 4 MIS.
        let g = graph(4, &[&[0, 1], &[2, 3]]);
        assert_eq!(count_maximal_consistent_subsets(&g, 1 << 20), Ok(4));
    }

    #[test]
    fn excluded_nodes_are_dropped() {
        // Node 0 self-inconsistent; remaining edge {1,2} → 2 MIS.
        let g = graph(3, &[&[0], &[0, 1], &[1, 2]]);
        assert_eq!(count_maximal_consistent_subsets(&g, 1 << 20), Ok(2));
    }

    #[test]
    fn empty_graph_counts_one() {
        let g = graph(3, &[]);
        assert_eq!(count_maximal_consistent_subsets(&g, 1 << 20), Ok(1));
    }

    #[test]
    fn budget_exhaustion_is_a_budget_error() {
        let g = graph(
            12,
            &[
                &[0, 1],
                &[1, 2],
                &[2, 3],
                &[3, 4],
                &[4, 5],
                &[5, 6],
                &[6, 7],
                &[7, 8],
                &[8, 9],
                &[9, 10],
                &[10, 11],
                &[0, 11],
            ],
        );
        assert_eq!(
            count_maximal_consistent_subsets(&g, 2),
            Err(CountError::Budget)
        );
        assert!(count_maximal_consistent_subsets(&g, 1 << 20).is_ok());
    }

    #[test]
    fn random_graphs_match_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let n = rng.gen_range(2..12usize);
            let mut subsets: Vec<Vec<u32>> = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.3) {
                        subsets.push(vec![a, b]);
                    }
                }
            }
            if rng.gen_bool(0.3) {
                subsets.push(vec![rng.gen_range(0..n as u32)]);
            }
            let refs: Vec<&[u32]> = subsets.iter().map(|v| v.as_slice()).collect();
            let g = graph(n, &refs);
            assert_eq!(
                count_maximal_consistent_subsets(&g, 1 << 24),
                Ok(brute_force(&g)),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn counts_past_u128_are_overflow_not_budget() {
        // k disjoint edges: 2^k maximal independent sets, exact up to
        // k = 127 and one past `u128::MAX` at k = 128.
        let pairs = |k: u32| {
            let edges: Vec<Vec<u32>> = (0..k).map(|i| vec![2 * i, 2 * i + 1]).collect();
            let refs: Vec<&[u32]> = edges.iter().map(|e| e.as_slice()).collect();
            graph(2 * k as usize, &refs)
        };
        assert_eq!(
            count_maximal_consistent_subsets(&pairs(127), 1 << 20),
            Ok(1 << 127)
        );
        for k in [128, 200] {
            assert_eq!(
                count_maximal_consistent_subsets(&pairs(k), 1 << 20),
                Err(CountError::Overflow),
                "k = {k}"
            );
        }
    }

    #[test]
    fn enumeration_agrees_with_count() {
        let g = graph(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[0, 4]]);
        let mut sets = Vec::new();
        let ok = enumerate_maximal_independent_sets(&g, 1 << 20, &mut |s| sets.push(s.to_vec()));
        assert!(ok);
        assert_eq!(
            sets.len() as u128,
            count_maximal_consistent_subsets(&g, 1 << 20).unwrap()
        );
        // C5: 5 maximal independent sets.
        assert_eq!(sets.len(), 5);
        for s in &sets {
            for i in 0..s.len() {
                for j in i + 1..s.len() {
                    assert!(!g.has_edge(s[i], s[j]));
                }
            }
        }
    }

    #[test]
    fn hypergraph_fallback() {
        // Single hyperedge {0,1,2}: maximal independent sets are the three
        // 2-element subsets.
        let g = graph(3, &[&[0, 1, 2]]);
        assert_eq!(count_maximal_consistent_subsets(&g, 1 << 20), Ok(3));
        // Mixed: hyperedge {0,1,2} + edge {0,3}:
        // independent maximal sets: {0,1},{0,2},{1,2,3}... check by hand:
        // {0,1}: add 2 → hyperedge? {0,1,2} yes; add 3 → edge {0,3}. ✓
        // {0,2}: add 1 → hyper; add 3 → edge. ✓
        // {1,2,3}: add 0 → hyper and edge. ✓
        let g2 = graph(4, &[&[0, 1, 2], &[0, 3]]);
        assert_eq!(count_maximal_consistent_subsets(&g2, 1 << 20), Ok(3));
    }
}
