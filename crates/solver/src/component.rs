//! Component-scoped repair solves.
//!
//! The conflict (hyper)graph of a database decomposes into connected
//! components, and both the covering ILP of Fig. 2 (`I_R`) and its LP
//! relaxation (`I_R^lin`) decompose with it: no constraint row spans two
//! components, so the global optimum is the sum of per-component optima.
//! The incremental read path exploits this — after one repairing operation
//! only the *dirty* components are re-solved and the cached values of the
//! clean ones are summed.
//!
//! These entry points solve **one** component, handed to them as a
//! [`ConflictGraph`] built from that component's minimal violation sets
//! plus the same sets translated to node indices (needed only on the
//! hypergraph path). Plain-graph components route to the exact
//! vertex-cover machinery ([`min_weight_vertex_cover_with`] /
//! [`fractional_vertex_cover`]); components with hyperedges route to the
//! exact hitting set ([`min_weight_hitting_set_with`]) and the covering LP
//! ([`covering_lp`]).

use crate::budget::Budget;
use crate::covering::min_weight_hitting_set_with;
use crate::fvc::fractional_vertex_cover;
use crate::simplex::covering_lp;
use crate::vertex_cover::min_weight_vertex_cover_with;
use inconsist_graph::ConflictGraph;

/// Translates violation sets (tuple ids) into node-index sets for `g`.
/// Sets with tuples outside `g` are skipped — callers pass the same subsets
/// the graph was built from, so this never drops anything in practice.
pub fn node_index_sets<S: AsRef<[inconsist_relational::TupleId]>>(
    g: &ConflictGraph,
    subsets: &[S],
) -> Vec<Vec<usize>> {
    subsets
        .iter()
        .filter_map(|s| {
            s.as_ref()
                .iter()
                .map(|t| g.node_of(*t).map(|v| v as usize))
                .collect::<Option<Vec<usize>>>()
        })
        .collect()
}

/// Per-tuple responsibility scores of one component, derived from its
/// minimal inconsistent subsets — the {CBM, CIM, PIM, RIM}-style menu of
/// Parisi & Grant's tuple-level inconsistency measures:
///
/// * `cbm` — how many minimal inconsistent subsets contain the tuple
///   (the cardinality-based measure);
/// * `cim` — `Σ 1/|S|` over those subsets (the contribution measure:
///   summed over all tuples it recovers `I_MI` exactly);
/// * `pim` — 1 iff the tuple lies in any minimal subset (the problematic
///   indicator: summed over all tuples it recovers `I_P`);
/// * `rim` — `1/min|S|` (the responsibility measure: causal
///   responsibility of the tuple for its tightest conflict).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TupleScores {
    /// The scored tuple.
    pub tuple: inconsist_relational::TupleId,
    /// Minimal inconsistent subsets containing the tuple.
    pub cbm: f64,
    /// `Σ 1/|S|` over those subsets.
    pub cim: f64,
    /// 1.0 iff the tuple is problematic.
    pub pim: f64,
    /// `1/min|S|`.
    pub rim: f64,
}

/// Scores every tuple appearing in `minimal` (one component's — or one
/// database's — minimal inconsistent subsets). Tuples in no subset are
/// absent; callers report them as all-zero.
///
/// The computation is **canonical**: per tuple, the subset sizes are
/// collected, sorted ascending and summed in that order. The result is
/// therefore bit-identical no matter how `minimal` is ordered — which is
/// what lets the index's per-component lists and the batch path's one
/// whole-database list agree float-for-float. Output is sorted by tuple
/// id.
pub fn component_tuple_scores<S: AsRef<[inconsist_relational::TupleId]>>(
    minimal: &[S],
) -> Vec<TupleScores> {
    // One flat `(tuple, |S|)` list: sorting it groups each tuple's sizes
    // in ascending order, without a map or a list per tuple.
    let mut sizes: Vec<(inconsist_relational::TupleId, usize)> = minimal
        .iter()
        .flat_map(|s| {
            let s = s.as_ref();
            s.iter().map(move |&t| (t, s.len()))
        })
        .collect();
    sizes.sort_unstable();
    sizes
        .chunk_by(|a, b| a.0 == b.0)
        .map(|ks| TupleScores {
            tuple: ks[0].0,
            cbm: ks.len() as f64,
            cim: ks.iter().fold(0.0, |acc, &(_, k)| acc + 1.0 / k as f64),
            pim: 1.0,
            rim: 1.0 / ks[0].1 as f64,
        })
        .collect()
}

/// `I_R` (deletions) restricted to one conflict component: the exact
/// minimum deletion cost resolving every violation of the component.
/// Returns `None` when the step `budget` is exhausted.
pub fn component_min_repair(
    g: &ConflictGraph,
    node_sets: &[Vec<usize>],
    budget: u64,
) -> Option<f64> {
    component_min_repair_with(g, node_sets, &mut Budget::steps(budget))
}

/// [`component_min_repair`] against a caller-held [`Budget`] — the entry
/// point for deadline-bounded (anytime) reads, where a wall-clock expiry
/// must interrupt the exact search mid-branch.
pub fn component_min_repair_with(
    g: &ConflictGraph,
    node_sets: &[Vec<usize>],
    budget: &mut Budget,
) -> Option<f64> {
    if g.is_plain_graph() {
        return min_weight_vertex_cover_with(g, budget).map(|vc| vc.weight);
    }
    let weights: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
    min_weight_hitting_set_with(&weights, node_sets, budget).map(|h| h.weight)
}

/// `I_R^lin` restricted to one conflict component: the LP relaxation of
/// the component's covering program. Returns `None` when the simplex
/// fails (hypergraph path only; the plain path is direct and total).
pub fn component_min_repair_lin(g: &ConflictGraph, node_sets: &[Vec<usize>]) -> Option<f64> {
    if g.is_plain_graph() {
        return Some(fractional_vertex_cover(g).value);
    }
    let weights: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
    covering_lp(&weights, node_sets)
        .minimize()
        .ok()
        .map(|sol| sol.objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_relational::{relation, Database, Fact, Schema, TupleId, Value, ValueKind};
    use std::sync::Arc;

    fn db(n: usize) -> Database {
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

    fn set(ids: &[u32]) -> Box<[TupleId]> {
        ids.iter().map(|&i| TupleId(i)).collect()
    }

    #[test]
    fn plain_component_is_vertex_cover() {
        // Triangle: min VC = 2, fractional = 1.5.
        let subsets = vec![set(&[0, 1]), set(&[1, 2]), set(&[0, 2])];
        let g = ConflictGraph::from_subsets(&db(3), &subsets);
        let sets = node_index_sets(&g, &subsets);
        assert_eq!(component_min_repair(&g, &sets, 1 << 20), Some(2.0));
        assert_eq!(component_min_repair_lin(&g, &sets), Some(1.5));
    }

    #[test]
    fn hyper_component_is_hitting_set() {
        // Two overlapping triples sharing node 2: one deletion suffices.
        let subsets = vec![set(&[0, 1, 2]), set(&[2, 3, 4])];
        let g = ConflictGraph::from_subsets(&db(5), &subsets);
        assert!(!g.is_plain_graph());
        let sets = node_index_sets(&g, &subsets);
        assert_eq!(component_min_repair(&g, &sets, 1 << 20), Some(1.0));
        let lin = component_min_repair_lin(&g, &sets).unwrap();
        assert!((lin - 1.0).abs() < 1e-6, "{lin}");
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        // A 5-cycle: not a cograph, fractional relaxation is all-halves,
        // so the exact solve must branch — and a zero budget exhausts it.
        let subsets: Vec<_> = (0..5).map(|i| set(&[i, (i + 1) % 5])).collect();
        let g = ConflictGraph::from_subsets(&db(5), &subsets);
        let sets = node_index_sets(&g, &subsets);
        assert_eq!(component_min_repair(&g, &sets, 0), None);
    }

    #[test]
    fn tuple_scores_are_canonical_and_recover_aggregates() {
        // {0,1}, {1,2}, {1} — after minimality filtering callers would
        // drop the pairs containing 1; here we score the raw list to
        // exercise mixed sizes.
        let subsets = vec![set(&[0, 1]), set(&[1, 2]), set(&[1])];
        let scores = component_tuple_scores(&subsets);
        assert_eq!(scores.len(), 3);
        let of = |t: u32| scores.iter().find(|s| s.tuple == TupleId(t)).unwrap();
        assert_eq!(of(1).cbm, 3.0);
        assert_eq!(of(1).rim, 1.0); // min |S| = 1
        assert_eq!(of(1).cim, 1.0 + 0.5 + 0.5);
        assert_eq!(of(0).cbm, 1.0);
        assert_eq!(of(0).rim, 0.5);
        // Σ cim = Σ_S |S|·(1/|S|) = number of subsets; Σ pim = tuple count.
        let cim_sum: f64 = scores.iter().map(|s| s.cim).sum();
        assert!((cim_sum - 3.0).abs() < 1e-12);
        assert_eq!(scores.iter().map(|s| s.pim).sum::<f64>(), 3.0);
        // Canonical: any input order yields bit-identical scores.
        let reordered = vec![set(&[1]), set(&[1, 2]), set(&[0, 1])];
        assert_eq!(component_tuple_scores(&reordered), scores);
        // Output sorted by tuple id.
        assert!(scores.windows(2).all(|w| w[0].tuple < w[1].tuple));
        assert!(component_tuple_scores::<Box<[TupleId]>>(&[]).is_empty());
    }

    #[test]
    fn singleton_component_forces_deletion() {
        let subsets = vec![set(&[1]), set(&[1, 2])];
        let g = ConflictGraph::from_subsets(&db(3), &subsets);
        let sets = node_index_sets(&g, &subsets);
        // Node 1 is excluded (self-inconsistent): both solves must pay it.
        assert_eq!(component_min_repair(&g, &sets, 1 << 20), Some(1.0));
        assert_eq!(component_min_repair_lin(&g, &sets), Some(1.0));
    }
}
