//! Component-scoped repair solves: the one place that turns a conflict
//! graph and its minimal violation sets into an `I_R` cover or an
//! `I_R^lin` value.
//!
//! The conflict (hyper)graph of a database decomposes into connected
//! components, and both the covering ILP of Fig. 2 (`I_R`) and its LP
//! relaxation (`I_R^lin`) decompose with it: no constraint row spans two
//! components, so the global optimum is the sum of per-component optima.
//! The incremental read path exploits this — after one repairing operation
//! only the *dirty* components are re-solved and the cached values of the
//! clean ones are summed. The batch measures call the same entry points on
//! the whole database's graph.
//!
//! Each entry point takes the database (for the tuples' deletion costs)
//! and the minimal violation sets as tuple ids, and builds what its
//! kernel reads:
//!
//! * pairs and singletons over at most
//!   [`MASK_WIDTH`](crate::vertex_cover::MASK_WIDTH) tuples — every
//!   component the incremental index solves on the gated workloads — go
//!   straight to the mask form (`MaskGraph`): adjacency words and
//!   weights, no [`ConflictGraph`]. `I_R` runs the exact cover's closed
//!   forms and branch-and-reduce on it, `I_R^lin` the augmenting-path
//!   double-cover flow;
//! * any other input builds the [`ConflictGraph`]: a plain graph routes
//!   to the exact vertex-cover machinery ([`min_weight_vertex_cover_with`]
//!   / [`fractional_vertex_cover`]), a hypergraph maps the sets to node
//!   indices ([`node_index_sets`]) and routes to the exact hitting set
//!   ([`min_weight_hitting_set_with`]) and the covering LP
//!   ([`covering_lp`]).
//!
//! The two plain paths return the same bits and the same deleted tuples:
//! the mask form is the graph's, node for node, and each kernel makes the
//! same choices on it.

use crate::budget::Budget;
use crate::covering::min_weight_hitting_set_with;
use crate::fvc::{fractional_vertex_cover, mask_fractional_value};
use crate::mask::MaskGraph;
use crate::simplex::covering_lp;
use crate::vertex_cover::{mask_vertex_cover, min_weight_vertex_cover_with};
use inconsist_graph::ConflictGraph;
use inconsist_relational::{Database, TupleId};

/// Translates violation sets (tuple ids) into node-index sets for `g`.
/// Sets with tuples outside `g` are skipped — callers pass the same subsets
/// the graph was built from, so this never drops anything in practice.
pub fn node_index_sets<S: AsRef<[TupleId]>>(g: &ConflictGraph, subsets: &[S]) -> Vec<Vec<usize>> {
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

/// Node weights (tuple deletion costs) of `g`, by node index.
fn node_weights(g: &ConflictGraph) -> Vec<f64> {
    (0..g.n() as u32).map(|v| g.weight(v)).collect()
}

/// One minimum-cost deletion repair: the value of `I_R` and the tuples
/// it deletes.
#[derive(Clone, Debug, PartialEq)]
pub struct DeletionRepair {
    /// Total deletion cost. On plain graphs the ascending `0.0`-started
    /// fold of the costs of `tuples` (see [`crate::VertexCover`]); on
    /// hypergraphs the exact hitting-set search's sum.
    pub weight: f64,
    /// Deleted tuple ids, ascending.
    pub tuples: Vec<TupleId>,
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
    pub tuple: TupleId,
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
pub fn component_tuple_scores<S: AsRef<[TupleId]>>(minimal: &[S]) -> Vec<TupleScores> {
    // One flat `(tuple, |S|)` list: sorting it groups each tuple's sizes
    // in ascending order, without a map or a list per tuple.
    let mut sizes: Vec<(TupleId, usize)> = minimal
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

/// `I_R` (deletions) of the minimal violation sets `subsets` over `db`:
/// one exact minimum-cost repair resolving every violation. Returns
/// `None` when `budget` runs out — its steps, or its wall-clock deadline
/// in the middle of a branch (the deadline-bounded reads). The budget
/// only stops the search, so a solve that completes returns the same bits
/// under any budget.
pub fn component_min_repair<S: AsRef<[TupleId]>>(
    db: &Database,
    subsets: &[S],
    budget: &mut Budget,
) -> Option<DeletionRepair> {
    if let Some((m, tuples)) = MaskGraph::from_subsets(db, subsets) {
        let vc = mask_vertex_cover(&m, budget)?;
        return Some(DeletionRepair {
            weight: vc.weight,
            tuples: vc.nodes.iter().map(|&v| tuples[v as usize]).collect(),
        });
    }
    let g = ConflictGraph::from_subsets(db, subsets);
    if g.is_plain_graph() {
        let vc = min_weight_vertex_cover_with(&g, budget)?;
        return Some(DeletionRepair {
            weight: vc.weight,
            tuples: vc.nodes.iter().map(|&v| g.tuple(v)).collect(),
        });
    }
    let sets = node_index_sets(&g, subsets);
    let hs = min_weight_hitting_set_with(&node_weights(&g), &sets, budget)?;
    let mut tuples: Vec<TupleId> = hs.elements.iter().map(|&v| g.tuple(v as u32)).collect();
    tuples.sort_unstable();
    Some(DeletionRepair {
        weight: hs.weight,
        tuples,
    })
}

/// `I_R^lin` of the minimal violation sets `subsets` over `db`: the LP
/// relaxation of their covering program. Returns `None` when the simplex
/// fails (hypergraph path only; the plain paths are direct and total).
pub fn component_min_repair_lin<S: AsRef<[TupleId]>>(db: &Database, subsets: &[S]) -> Option<f64> {
    if let Some((m, _)) = MaskGraph::from_subsets(db, subsets) {
        return Some(mask_fractional_value(&m));
    }
    let g = ConflictGraph::from_subsets(db, subsets);
    if g.is_plain_graph() {
        return Some(fractional_vertex_cover(&g).value);
    }
    let sets = node_index_sets(&g, subsets);
    covering_lp(&node_weights(&g), &sets)
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

    fn ir(db: &Database, subsets: &[Box<[TupleId]>], steps: u64) -> Option<f64> {
        component_min_repair(db, subsets, &mut Budget::steps(steps)).map(|r| r.weight)
    }

    #[test]
    fn plain_component_is_vertex_cover() {
        // Triangle: min VC = 2, fractional = 1.5.
        let subsets = vec![set(&[0, 1]), set(&[1, 2]), set(&[0, 2])];
        let db = db(3);
        let cover = component_min_repair(&db, &subsets, &mut Budget::steps(1 << 20)).unwrap();
        assert_eq!(cover.weight, 2.0);
        assert_eq!(cover.tuples.len(), 2);
        assert_eq!(component_min_repair_lin(&db, &subsets), Some(1.5));
    }

    #[test]
    fn hyper_component_is_hitting_set() {
        // Two overlapping triples sharing node 2: one deletion suffices.
        let subsets = vec![set(&[0, 1, 2]), set(&[2, 3, 4])];
        let db = db(5);
        let cover = component_min_repair(&db, &subsets, &mut Budget::steps(1 << 20)).unwrap();
        assert_eq!(cover.weight, 1.0);
        assert_eq!(cover.tuples, vec![TupleId(2)]);
        let lin = component_min_repair_lin(&db, &subsets).unwrap();
        assert!((lin - 1.0).abs() < 1e-6, "{lin}");
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        // A 5-cycle: not a cograph, fractional relaxation is all-halves,
        // so the exact solve must branch — and a zero budget exhausts it.
        let subsets: Vec<_> = (0..5).map(|i| set(&[i, (i + 1) % 5])).collect();
        assert_eq!(ir(&db(5), &subsets, 0), None);
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
    fn subset_path_matches_graph_path() {
        // Random plain components of at most 64 tuples with non-dyadic
        // costs, excluded tuples and several components: the mask form
        // built from the subsets must return the graph path's bits and
        // deleted tuples, for `I_R` and `I_R^lin` alike.
        use crate::vertex_cover::MASK_WIDTH;
        use rand::{Rng, SeedableRng};
        const COSTS: [f64; 5] = [0.1, 0.3, 0.7, 1.9, 1.0];
        let mut s = Schema::new();
        let attrs = [("A", ValueKind::Int), ("cost", ValueKind::Float)];
        let r = s.add_relation(relation("R", &attrs).unwrap()).unwrap();
        s.set_cost_attr(r, "cost").unwrap();
        let s = Arc::new(s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for trial in 0..150 {
            let n = rng.gen_range(1..=MASK_WIDTH + 8);
            let mut db = Database::new(Arc::clone(&s));
            for i in 0..n {
                let cost = COSTS[rng.gen_range(0..COSTS.len())];
                db.insert(Fact::new(r, [Value::int(i as i64), Value::float(cost)]))
                    .unwrap();
            }
            let density = rng.gen_range(0.03..0.4);
            let groups = rng.gen_range(1..4);
            let group: Vec<u32> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
            let mut subsets: Vec<Box<[TupleId]>> = Vec::new();
            for a in 0..n as u32 {
                if rng.gen_bool(0.08) {
                    subsets.push(set(&[a]));
                }
                for b in a + 1..n as u32 {
                    if group[a as usize] == group[b as usize] && rng.gen_bool(density) {
                        subsets.push(set(&[a, b]));
                    }
                }
            }
            let g = ConflictGraph::from_subsets(&db, &subsets);
            assert_eq!(
                MaskGraph::from_subsets(&db, &subsets).is_some(),
                g.n() <= MASK_WIDTH,
                "trial {trial}"
            );
            let repair = component_min_repair(&db, &subsets, &mut Budget::steps(1 << 22))
                .expect("budget generous");
            let vc = min_weight_vertex_cover_with(&g, &mut Budget::steps(1 << 22))
                .expect("budget generous");
            assert_eq!(
                repair.weight.to_bits(),
                vc.weight.to_bits(),
                "trial {trial}"
            );
            let deleted: Vec<TupleId> = vc.nodes.iter().map(|&v| g.tuple(v)).collect();
            assert_eq!(repair.tuples, deleted, "trial {trial}");
            let lin = component_min_repair_lin(&db, &subsets).unwrap();
            let fvc = fractional_vertex_cover(&g).value;
            assert_eq!(
                lin.to_bits(),
                fvc.to_bits(),
                "trial {trial}: {lin} vs {fvc}"
            );
        }
    }

    #[test]
    fn singleton_component_forces_deletion() {
        let subsets = vec![set(&[1]), set(&[1, 2])];
        let db = db(3);
        // Tuple 1 is excluded (self-inconsistent): both solves must pay it.
        assert_eq!(ir(&db, &subsets, 1 << 20), Some(1.0));
        assert_eq!(component_min_repair_lin(&db, &subsets), Some(1.0));
    }
}
