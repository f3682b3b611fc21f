//! The conflict (hyper)graph of a database w.r.t. a constraint set.
//!
//! For FDs and two-tuple DCs, the paper's machinery reduces to the classic
//! *conflict graph*: tuples are nodes and minimal two-element inconsistent
//! subsets are edges (§5.1). `I_MC` counts its maximal independent sets,
//! `I_R` (deletions) is its minimum-weight vertex cover, and `I_R^lin` its
//! fractional relaxation. Singleton violations become *excluded* nodes
//! (self-inconsistent tuples), and violations of three or more tuples become
//! hyperedges.

use inconsist_relational::{Database, TupleId};
use std::collections::HashMap;

/// Conflict structure over the tuples participating in violations.
///
/// Nodes are indexed densely (`u32`); [`ConflictGraph::tuple`] maps back to
/// tuple ids. Tuples of the database that participate in no violation are
/// *not* nodes — they belong to every maximal consistent subset and never to
/// a minimum repair, so all derived quantities are unaffected.
///
/// The node table is a sorted dense array consumed straight from the
/// engine's violation sets; tuple→node resolution is a binary search, so
/// building the graph from a large violation set hashes nothing.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    /// Sorted, deduplicated participating tuples (the node table).
    nodes: Vec<TupleId>,
    adj: Vec<Vec<u32>>,
    /// Nodes that are inconsistent on their own (singleton violations).
    excluded: Vec<bool>,
    /// Violations involving ≥ 3 tuples, as sorted node-index lists.
    hyperedges: Vec<Box<[u32]>>,
    /// Node weights (deletion costs).
    weights: Vec<f64>,
    edge_count: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph from minimal inconsistent subsets; node
    /// weights are the deletion costs from `db` (1.0 without a cost
    /// attribute).
    pub fn from_subsets<S: AsRef<[TupleId]>>(db: &Database, subsets: &[S]) -> Self {
        let mut nodes: Vec<TupleId> = subsets
            .iter()
            .flat_map(|s| s.as_ref().iter().copied())
            .collect();
        nodes.sort();
        nodes.dedup();
        let index =
            |t: &TupleId| -> u32 { nodes.binary_search(t).expect("node came from subsets") as u32 };
        let n = nodes.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut excluded = vec![false; n];
        let mut hyperedges = Vec::new();
        let mut edge_count = 0;
        for s in subsets {
            let s = s.as_ref();
            match s.len() {
                0 => {}
                1 => excluded[index(&s[0]) as usize] = true,
                2 => {
                    let (a, b) = (index(&s[0]), index(&s[1]));
                    adj[a as usize].push(b);
                    adj[b as usize].push(a);
                    edge_count += 1;
                }
                _ => {
                    let mut e: Vec<u32> = s.iter().map(&index).collect();
                    // Engine violation sets are sorted (making this a no-op
                    // pass), but the constructor accepts arbitrary sets.
                    e.sort_unstable();
                    hyperedges.push(e.into_boxed_slice());
                }
            }
        }
        for list in &mut adj {
            list.sort();
            list.dedup();
        }
        // Adjacency dedup may have dropped parallel edges recorded above;
        // recount from the deduped lists.
        let edge_count = if edge_count > 0 {
            adj.iter().map(|l| l.len()).sum::<usize>() / 2
        } else {
            0
        };
        let weights = nodes.iter().map(|&t| db.cost_of(t)).collect();
        ConflictGraph {
            nodes,
            adj,
            excluded,
            hyperedges,
            weights,
            edge_count,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct pair edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Hyperedges (violations of three or more tuples).
    pub fn hyperedges(&self) -> &[Box<[u32]>] {
        &self.hyperedges
    }

    /// Whether the structure is a plain graph (no hyperedges).
    pub fn is_plain_graph(&self) -> bool {
        self.hyperedges.is_empty()
    }

    /// Tuple id of node `v`.
    pub fn tuple(&self, v: u32) -> TupleId {
        self.nodes[v as usize]
    }

    /// Node index of tuple `t`, if it participates in a violation
    /// (binary search over the sorted node table).
    pub fn node_of(&self, t: TupleId) -> Option<u32> {
        self.nodes.binary_search(&t).ok().map(|i| i as u32)
    }

    /// Sorted neighbor list of `v` (pair edges only).
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree under pair edges.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// Whether `{a, b}` is an edge.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Whether node `v` is self-inconsistent (in no consistent subset).
    pub fn is_excluded(&self, v: u32) -> bool {
        self.excluded[v as usize]
    }

    /// Number of self-inconsistent nodes (the `|SelfInconsistencies(D)|`
    /// term of `I′_MC`).
    pub fn excluded_count(&self) -> usize {
        self.excluded.iter().filter(|&&e| e).count()
    }

    /// Deletion cost of node `v`.
    pub fn weight(&self, v: u32) -> f64 {
        self.weights[v as usize]
    }

    /// Iterates pair edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            let a = a as u32;
            list.iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Connected components under pair edges *and* hyperedges, as sorted
    /// node lists. Excluded nodes still join components (their incident
    /// edges exist).
    pub fn components(&self) -> Vec<Vec<u32>> {
        let n = self.n();
        let mut comp = vec![u32::MAX; n];
        let mut current = 0u32;
        // Union via BFS; hyperedges connect all their members.
        let mut hyper_by_node: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (hi, h) in self.hyperedges.iter().enumerate() {
            for &v in h.iter() {
                hyper_by_node[v as usize].push(hi as u32);
            }
        }
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            let mut queue = vec![start as u32];
            comp[start] = current;
            while let Some(v) = queue.pop() {
                for &u in self.neighbors(v) {
                    if comp[u as usize] == u32::MAX {
                        comp[u as usize] = current;
                        queue.push(u);
                    }
                }
                for &hi in &hyper_by_node[v as usize] {
                    for &u in self.hyperedges[hi as usize].iter() {
                        if comp[u as usize] == u32::MAX {
                            comp[u as usize] = current;
                            queue.push(u);
                        }
                    }
                }
            }
            current += 1;
        }
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); current as usize];
        for (v, &c) in comp.iter().enumerate() {
            out[c as usize].push(v as u32);
        }
        out
    }

    /// The subgraph induced by `keep` (node indices refer to the *new*
    /// graph; use the returned mapping to translate). Hyperedges are kept
    /// only when fully contained.
    pub fn induced(&self, keep: &[u32]) -> (ConflictGraph, Vec<u32>) {
        let mut sorted = keep.to_vec();
        sorted.sort();
        sorted.dedup();
        let remap: HashMap<u32, u32> = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        // `sorted` is ascending in node index, and node indices are
        // assigned in tuple-id order, so the induced node table is sorted.
        let nodes: Vec<TupleId> = sorted.iter().map(|&v| self.tuple(v)).collect();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); sorted.len()];
        let mut edge_count = 0;
        for (i, &v) in sorted.iter().enumerate() {
            for &u in self.neighbors(v) {
                if let Some(&j) = remap.get(&u) {
                    adj[i].push(j);
                    if (i as u32) < j {
                        edge_count += 1;
                    }
                }
            }
        }
        for l in &mut adj {
            l.sort();
        }
        let hyperedges = self
            .hyperedges
            .iter()
            .filter_map(|h| {
                h.iter()
                    .map(|v| remap.get(v).copied())
                    .collect::<Option<Vec<u32>>>()
                    .map(|mut e| {
                        e.sort();
                        e.into_boxed_slice()
                    })
            })
            .collect();
        let excluded = sorted.iter().map(|&v| self.excluded[v as usize]).collect();
        let weights = sorted.iter().map(|&v| self.weights[v as usize]).collect();
        (
            ConflictGraph {
                nodes,
                adj,
                excluded,
                hyperedges,
                weights,
                edge_count,
            },
            sorted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_constraints::ViolationSet;
    use inconsist_relational::{relation, Fact, Schema, Value, ValueKind};
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

    fn set(ids: &[u32]) -> ViolationSet {
        ids.iter().map(|&i| TupleId(i)).collect()
    }

    #[test]
    fn build_from_pairs_and_singletons() {
        let db = tiny_db(6);
        let subsets = vec![set(&[0, 1]), set(&[1, 2]), set(&[3]), set(&[3, 4])];
        let g = ConflictGraph::from_subsets(&db, &subsets);
        // Nodes: 0,1,2,3,4 (5 participates in nothing).
        assert_eq!(g.n(), 5);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(g.is_excluded(g.node_of(TupleId(3)).unwrap()));
        assert_eq!(g.excluded_count(), 1);
        assert!(g.node_of(TupleId(5)).is_none());
        assert!(g.is_plain_graph());
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn duplicate_pairs_collapse() {
        let db = tiny_db(3);
        let subsets = vec![set(&[0, 1]), set(&[0, 1])];
        let g = ConflictGraph::from_subsets(&db, &subsets);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn components_split_correctly() {
        let db = tiny_db(7);
        let subsets = vec![set(&[0, 1]), set(&[1, 2]), set(&[4, 5])];
        let g = ConflictGraph::from_subsets(&db, &subsets);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert!(sizes.contains(&3) && sizes.contains(&2));
    }

    #[test]
    fn hyperedges_join_components() {
        let db = tiny_db(6);
        let subsets = vec![set(&[0, 1]), set(&[2, 3]), set(&[1, 2, 4])];
        let g = ConflictGraph::from_subsets(&db, &subsets);
        assert!(!g.is_plain_graph());
        assert_eq!(g.hyperedges().len(), 1);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn induced_subgraph_remaps() {
        let db = tiny_db(5);
        let subsets = vec![set(&[0, 1]), set(&[1, 2]), set(&[2, 3, 4])];
        let g = ConflictGraph::from_subsets(&db, &subsets);
        let keep: Vec<u32> = vec![
            g.node_of(TupleId(1)).unwrap(),
            g.node_of(TupleId(2)).unwrap(),
        ];
        let (sub, mapping) = g.induced(&keep);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.is_plain_graph()); // hyperedge not fully contained
        assert_eq!(mapping.len(), 2);
        assert_eq!(sub.tuple(0), TupleId(1));
    }

    #[test]
    fn weights_default_to_unit() {
        let db = tiny_db(2);
        let g = ConflictGraph::from_subsets(&db, &[set(&[0, 1])]);
        assert_eq!(g.weight(0), 1.0);
        assert_eq!(g.weight(1), 1.0);
    }
}
