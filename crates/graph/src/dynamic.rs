//! A *maintained* conflict (hyper)graph with component tracking.
//!
//! [`ConflictGraph`](crate::ConflictGraph) is an immutable snapshot — cheap
//! to build once, but a repair loop that re-reads the inconsistency level
//! after every operation would rebuild it from the full violation set per
//! step. [`DynamicConflictGraph`] instead supports edge insertion and
//! removal (pair edges, singleton "self-inconsistency" loops, and
//! hyperedges are all just violation sets of arity 1, 2, ≥ 3) while
//! maintaining the connected-component partition of the touched tuples:
//!
//! * **insert** — new nodes appear, and the components spanned by the new
//!   edge merge into one (the largest survivor keeps its id, absorbed ids
//!   die);
//! * **remove** — an edge carries the *labels* that flagged it (the
//!   incremental index labels each set with the constraints it violates),
//!   so a tuple set flagged twice is one structural edge with two labels.
//!   When its last label goes the edge disappears, isolated nodes are
//!   dropped, and the affected component is re-settled by a BFS *bounded
//!   by that component* — if it split, the largest part keeps the old id
//!   and the rest get fresh ids.
//!
//! The labelled edges are the caller's whole record of `(set, label)`
//! pairs: the graph counts them in total and per node, lists them, and
//! removes every pair touching one tuple.
//!
//! Component ids are **stable while a component is untouched**, which is
//! exactly what a per-component measure cache needs: an id that survives an
//! operation unchanged *and* unreported guarantees the component's edge set
//! is unchanged, so every derived quantity (minimal subsets, cover values)
//! is still valid. All mutation methods report the ids they touched via
//! [`EdgeInsert`] / [`EdgeRemoval`] so callers can invalidate precisely.
//!
//! Costs: insertion is `O(arity)` plus `O(smaller component)` on merge;
//! removal is `O(component)` for the re-settle BFS (batched removals via
//! [`DynamicConflictGraph::remove_edges`] pay one BFS per affected
//! component, not per edge). Nothing ever touches tuples outside the
//! operated-on components — the point of the structure.

use inconsist_constraints::ViolationSet;
use inconsist_relational::{IdMap, IdSet, TupleId};
use std::collections::hash_map::Entry;
use std::collections::HashSet;

/// Identifier of one connected component. Stable until the component is
/// merged away or split; never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub u64);

#[derive(Clone, Debug)]
struct EdgeData {
    /// Sorted, deduplicated member tuples.
    tuples: ViolationSet,
    /// The labels that flagged the tuple set, ascending and distinct;
    /// never empty (the edge's refcount is their number).
    labels: Vec<usize>,
}

#[derive(Clone, Debug)]
struct NodeData {
    comp: CompId,
    /// Incident edge slots (unordered).
    incident: Vec<u32>,
}

/// Outcome of [`DynamicConflictGraph::insert_edge`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeInsert {
    /// The component now containing every member of the edge.
    pub comp: CompId,
    /// Components absorbed into `comp` (dead ids; empty when the edge
    /// landed inside one component).
    pub merged: Vec<CompId>,
    /// Whether the edge is structurally new (`false` = a label added to an
    /// existing edge; the component's edge set did not change).
    pub structural: bool,
}

/// Outcome of [`DynamicConflictGraph::remove_edges`] and
/// [`DynamicConflictGraph::remove_incident`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeRemoval {
    /// Components whose edge set changed and still exist (possibly
    /// re-settled to a subset of their old nodes).
    pub touched: Vec<CompId>,
    /// Component ids that no longer exist (fully dissolved or split away).
    pub dead: Vec<CompId>,
    /// Fresh ids created by splits.
    pub created: Vec<CompId>,
}

/// A maintained conflict hypergraph over tuple ids; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct DynamicConflictGraph {
    /// Edge arena; freed slots are recycled.
    edges: Vec<Option<EdgeData>>,
    free_slots: Vec<u32>,
    /// Edge key (sorted tuple set) → arena slot. This map and the two
    /// below are keyed by ids the program assigns, so they use the cheap
    /// fixed [`IdMap`] hasher. Which id sets become edges follows the
    /// data and constraints a client sends, but so does the number of
    /// bindings, which the build's violation limit already bounds.
    edge_ids: IdMap<ViolationSet, u32>,
    nodes: IdMap<TupleId, NodeData>,
    /// Component id → member nodes (unordered).
    comps: IdMap<CompId, Vec<TupleId>>,
    next_comp: u64,
    /// Total labels over all edges.
    label_count: usize,
}

/// Sorts and dedups a tuple set into the canonical edge key.
fn canon(tuples: &[TupleId]) -> ViolationSet {
    let mut v = tuples.to_vec();
    v.sort_unstable();
    v.dedup();
    v.into_boxed_slice()
}

impl DynamicConflictGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live edge in `slot`.
    fn edge(&self, slot: u32) -> &EdgeData {
        self.edges[slot as usize].as_ref().expect("live edge")
    }

    fn fresh_comp(&mut self) -> CompId {
        let id = CompId(self.next_comp);
        self.next_comp += 1;
        id
    }

    /// Inserts the violation set `tuples` under `label`. Returns `None`
    /// when the set is empty or already carries `label` (nothing changes);
    /// a known set with a new label reports `structural: false`.
    pub fn insert_edge(&mut self, tuples: &[TupleId], label: usize) -> Option<EdgeInsert> {
        let key = canon(tuples);
        if key.is_empty() {
            return None;
        }
        if let Some(&slot) = self.edge_ids.get(&key) {
            let edge = self.edges[slot as usize].as_mut().expect("live edge");
            let at = edge.labels.binary_search(&label).err()?;
            edge.labels.insert(at, label);
            self.label_count += 1;
            return Some(EdgeInsert {
                comp: self.nodes[&key[0]].comp,
                merged: Vec::new(),
                structural: false,
            });
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.edges.push(None);
            (self.edges.len() - 1) as u32
        });
        self.edges[slot as usize] = Some(EdgeData {
            tuples: key.clone(),
            labels: vec![label],
        });
        self.label_count += 1;
        self.edge_ids.insert(key.clone(), slot);
        // Attach nodes, collecting the distinct components spanned.
        let mut spanned: Vec<CompId> = Vec::new();
        let mut fresh_nodes: Vec<TupleId> = Vec::new();
        for &t in key.iter() {
            match self.nodes.entry(t) {
                Entry::Occupied(mut e) => {
                    let node = e.get_mut();
                    node.incident.push(slot);
                    if !spanned.contains(&node.comp) {
                        spanned.push(node.comp);
                    }
                }
                Entry::Vacant(e) => {
                    // Component assigned below once the survivor is known.
                    e.insert(NodeData {
                        comp: CompId(u64::MAX),
                        incident: vec![slot],
                    });
                    fresh_nodes.push(t);
                }
            }
        }
        // Pick the survivor: the largest spanned component (fewest node
        // relabels), or a fresh component when only new nodes are involved.
        let survivor = spanned
            .iter()
            .copied()
            .max_by_key(|c| self.comps[c].len())
            .unwrap_or_else(|| {
                let id = self.fresh_comp();
                self.comps.insert(id, Vec::new());
                id
            });
        let mut merged = Vec::new();
        for c in spanned {
            if c == survivor {
                continue;
            }
            let members = self.comps.remove(&c).expect("spanned component exists");
            for &t in &members {
                self.nodes.get_mut(&t).expect("member exists").comp = survivor;
            }
            self.comps
                .get_mut(&survivor)
                .expect("survivor exists")
                .extend(members);
            merged.push(c);
        }
        for t in fresh_nodes {
            self.nodes.get_mut(&t).expect("just inserted").comp = survivor;
            self.comps
                .get_mut(&survivor)
                .expect("survivor exists")
                .push(t);
        }
        Some(EdgeInsert {
            comp: survivor,
            merged,
            structural: true,
        })
    }

    /// Drops `label` from an edge, removing the edge when its last label
    /// goes and re-settling the affected component. Returns `None` when the
    /// edge does not carry `label`.
    pub fn remove_edge(&mut self, tuples: &[TupleId], label: usize) -> Option<EdgeRemoval> {
        self.remove_edges(std::iter::once((tuples, label)))
    }

    /// Batch removal: drops each listed `(set, label)` pair, then
    /// re-settles every affected component a single time. Unknown pairs are
    /// skipped; returns `None` when *no* listed pair was known.
    pub fn remove_edges<'a, I>(&mut self, pairs: I) -> Option<EdgeRemoval>
    where
        I: IntoIterator<Item = (&'a [TupleId], usize)>,
    {
        let before = self.label_count;
        let mut affected: Vec<CompId> = Vec::new();
        for (tuples, label) in pairs {
            let Some(&slot) = self.edge_ids.get(&canon(tuples)) else {
                continue;
            };
            let labels = &mut self.edges[slot as usize]
                .as_mut()
                .expect("live edge")
                .labels;
            let Ok(at) = labels.binary_search(&label) else {
                continue;
            };
            labels.remove(at);
            self.label_count -= 1;
            // While other labels remain the distinct edge set is unchanged,
            // so the component is not reported as touched.
            if labels.is_empty() {
                self.free_edge(slot, &mut affected);
            }
        }
        (self.label_count < before).then(|| self.resettle(affected))
    }

    /// Removes every edge containing `t`, with all its labels, and
    /// re-settles `t`'s component once. Returns the component report, or
    /// `None` when `t` is in no edge.
    pub fn remove_incident(&mut self, t: TupleId) -> Option<EdgeRemoval> {
        let slots = self.nodes.get(&t)?.incident.clone();
        let mut affected = Vec::new();
        for slot in slots {
            self.free_edge(slot, &mut affected);
        }
        Some(self.resettle(affected))
    }

    /// Detaches the edge in `slot` from its nodes and frees the slot with
    /// every label it still carried, noting its component in `affected`.
    fn free_edge(&mut self, slot: u32, affected: &mut Vec<CompId>) {
        let edge = self.edges[slot as usize].take().expect("live edge");
        self.free_slots.push(slot);
        self.edge_ids.remove(&edge.tuples);
        self.label_count -= edge.labels.len();
        let comp = self.nodes[&edge.tuples[0]].comp;
        if !affected.contains(&comp) {
            affected.push(comp);
        }
        for t in edge.tuples.iter() {
            let node = self.nodes.get_mut(t).expect("member exists");
            node.incident.retain(|&e| e != slot);
        }
    }

    /// Recomputes connectivity inside each `affected` component after
    /// removals: drops isolated nodes, keeps the old id for the largest
    /// surviving part, and assigns fresh ids to the rest.
    fn resettle(&mut self, affected: Vec<CompId>) -> EdgeRemoval {
        let mut out = EdgeRemoval::default();
        for comp in affected {
            let members = self.comps.remove(&comp).expect("affected component exists");
            let mut unvisited: IdSet<TupleId> =
                IdSet::with_capacity_and_hasher(members.len(), Default::default());
            for &t in &members {
                let node = &self.nodes[&t];
                if node.incident.is_empty() {
                    self.nodes.remove(&t);
                } else {
                    unvisited.insert(t);
                }
            }
            // Parts start in member order, not hash order, so two graphs with
            // the same history number their parts alike.
            let mut parts: Vec<Vec<TupleId>> = Vec::new();
            for &start in &members {
                if !unvisited.remove(&start) {
                    continue;
                }
                let mut part = vec![start];
                let mut stack = vec![start];
                while let Some(v) = stack.pop() {
                    for &slot in &self.nodes[&v].incident {
                        for &u in self.edge(slot).tuples.iter() {
                            if unvisited.remove(&u) {
                                part.push(u);
                                stack.push(u);
                            }
                        }
                    }
                }
                parts.push(part);
            }
            if parts.is_empty() {
                out.dead.push(comp);
                continue;
            }
            // Largest part inherits the old id (still reported as touched —
            // its edge set changed); smaller parts get fresh ids.
            let largest = parts
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.len())
                .map(|(i, _)| i)
                .expect("non-empty");
            for (i, part) in parts.into_iter().enumerate() {
                let id = if i == largest {
                    out.touched.push(comp);
                    comp
                } else {
                    let id = self.fresh_comp();
                    out.created.push(id);
                    id
                };
                for &t in &part {
                    self.nodes.get_mut(&t).expect("member exists").comp = id;
                }
                self.comps.insert(id, part);
            }
        }
        out
    }

    /// The labels of an edge, ascending (empty = absent); their number is
    /// the edge's refcount.
    pub fn edge_labels(&self, tuples: &[TupleId]) -> &[usize] {
        match self.edge_ids.get(&canon(tuples)) {
            Some(&slot) => &self.edge(slot).labels,
            None => &[],
        }
    }

    /// Number of `(set, label)` pairs: every edge's labels, summed.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Number of distinct structural edges.
    pub fn edge_count(&self) -> usize {
        self.edge_ids.len()
    }

    /// Number of nodes (tuples participating in at least one violation).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// The component containing tuple `t`, if it participates in any
    /// violation.
    pub fn component_of(&self, t: TupleId) -> Option<CompId> {
        self.nodes.get(&t).map(|n| n.comp)
    }

    /// Iterates the live component ids (unordered).
    pub fn component_ids(&self) -> impl Iterator<Item = CompId> + '_ {
        self.comps.keys().copied()
    }

    /// Number of nodes in component `c` (0 for dead ids).
    pub fn component_len(&self, c: CompId) -> usize {
        self.comps.get(&c).map(|m| m.len()).unwrap_or(0)
    }

    /// The member tuples of component `c`, sorted.
    pub fn component_nodes(&self, c: CompId) -> Vec<TupleId> {
        let mut v = self.comps.get(&c).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// The distinct edges inside component `c` as `(set, labels)`, sorted
    /// by `(len, members)` so downstream consumers are deterministic.
    pub fn component_sets(&self, c: CompId) -> Vec<(&[TupleId], &[usize])> {
        let Some(members) = self.comps.get(&c) else {
            return Vec::new();
        };
        let mut slots: Vec<u32> = Vec::new();
        for t in members {
            slots.extend_from_slice(&self.nodes[t].incident);
        }
        slots.sort_unstable();
        slots.dedup();
        let mut sets: Vec<(&[TupleId], &[usize])> = slots
            .into_iter()
            .map(|s| self.edge(s))
            .map(|e| (&e.tuples[..], &e.labels[..]))
            .collect();
        sets.sort_unstable_by(|(a, _), (b, _)| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        sets
    }

    /// The distinct edges containing `t` as `(set, labels)`, unordered;
    /// none when `t` is in no edge.
    pub fn incident_sets(&self, t: TupleId) -> impl Iterator<Item = (&[TupleId], &[usize])> + '_ {
        let slots = self.nodes.get(&t).map_or(&[][..], |n| &n.incident[..]);
        slots.iter().map(|&slot| {
            let e = self.edge(slot);
            (&e.tuples[..], &e.labels[..])
        })
    }

    /// The labels of the singleton edge `{t}`: empty unless `t` is
    /// self-inconsistent.
    pub fn loop_labels(&self, t: TupleId) -> &[usize] {
        self.incident_sets(t)
            .find(|(set, _)| set.len() == 1)
            .map_or(&[], |(_, labels)| labels)
    }

    /// Every distinct edge with its labels (unordered).
    pub fn labelled_sets(&self) -> impl Iterator<Item = (&ViolationSet, &[usize])> + '_ {
        self.edges
            .iter()
            .flatten()
            .map(|e| (&e.tuples, e.labels.as_slice()))
    }

    /// Each node with the number of `(set, label)` pairs it appears in
    /// (unordered).
    pub fn node_label_counts(&self) -> impl Iterator<Item = (TupleId, usize)> + '_ {
        self.nodes.iter().map(|(&t, n)| {
            let labels = n.incident.iter().map(|&slot| self.edge(slot).labels.len());
            (t, labels.sum())
        })
    }

    /// Exhaustive invariant check (components = from-scratch connectivity,
    /// membership maps agree, incident lists match edges, labels ascending
    /// and counted). `O(V + E)`;
    /// meant for tests and `self_check`-style cross-validation.
    pub fn check_consistency(&self) -> Result<(), String> {
        // Node/component cross-references.
        for (c, members) in &self.comps {
            for t in members {
                match self.nodes.get(t) {
                    None => return Err(format!("comp {c:?} lists unknown node {t:?}")),
                    Some(n) if n.comp != *c => {
                        return Err(format!("node {t:?} disagrees on component"))
                    }
                    _ => {}
                }
            }
        }
        let total: usize = self.comps.values().map(|m| m.len()).sum();
        if total != self.nodes.len() {
            return Err("component membership does not partition the nodes".into());
        }
        for (t, n) in &self.nodes {
            if n.incident.is_empty() {
                return Err(format!("isolated node {t:?} survived"));
            }
            for &slot in &n.incident {
                let Some(Some(e)) = self.edges.get(slot as usize) else {
                    return Err(format!("node {t:?} references dead edge slot {slot}"));
                };
                if !e.tuples.contains(t) {
                    return Err(format!("node {t:?} incident to foreign edge"));
                }
            }
        }
        // Every edge must be labelled, intra-component and registered on
        // its nodes.
        let mut labels = 0;
        for (key, &slot) in &self.edge_ids {
            let Some(Some(e)) = self.edges.get(slot as usize) else {
                return Err("edge id points at freed slot".into());
            };
            if e.tuples != *key {
                return Err("edge key/slot mismatch".into());
            }
            if e.labels.is_empty() || !e.labels.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!("edge {key:?} labels {:?}", e.labels));
            }
            labels += e.labels.len();
            let comp = self.nodes[&key[0]].comp;
            for t in key.iter() {
                let n = &self.nodes[t];
                if n.comp != comp {
                    return Err(format!("edge {key:?} spans components"));
                }
                if !n.incident.contains(&slot) {
                    return Err(format!("edge {key:?} missing from {t:?} incident list"));
                }
            }
        }
        let live = self.edges.iter().flatten().count();
        if labels != self.label_count || live != self.edge_ids.len() {
            return Err("label or edge count disagrees with the edges".into());
        }
        // From-scratch connectivity must match the maintained partition.
        let mut seen: HashSet<TupleId> = HashSet::new();
        for members in self.comps.values() {
            let Some(&start) = members.first() else {
                return Err("empty component survived".into());
            };
            let mut reach: HashSet<TupleId> = HashSet::new();
            reach.insert(start);
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &slot in &self.nodes[&v].incident {
                    for &u in self.edge(slot).tuples.iter() {
                        if reach.insert(u) {
                            stack.push(u);
                        }
                    }
                }
            }
            let members_set: HashSet<TupleId> = members.iter().copied().collect();
            if reach != members_set {
                return Err("maintained component is not a connected component".into());
            }
            seen.extend(members_set);
        }
        if seen.len() != self.nodes.len() {
            return Err("components overlap".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TupleId {
        TupleId(i)
    }

    #[test]
    fn insert_builds_components_and_merges() {
        let mut g = DynamicConflictGraph::new();
        let a = g.insert_edge(&[t(0), t(1)], 0).unwrap();
        assert!(a.structural && a.merged.is_empty());
        let b = g.insert_edge(&[t(2), t(3)], 0).unwrap();
        assert_ne!(a.comp, b.comp);
        assert_eq!(g.component_count(), 2);
        // Bridge: the two components merge, one id survives.
        let c = g.insert_edge(&[t(1), t(2)], 0).unwrap();
        assert!(c.structural);
        assert_eq!(c.merged.len(), 1);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.component_len(c.comp), 4);
        assert_eq!(g.component_of(t(0)), Some(c.comp));
        g.check_consistency().unwrap();
    }

    #[test]
    fn refcount_suppresses_structural_changes() {
        let mut g = DynamicConflictGraph::new();
        let first = g.insert_edge(&[t(0), t(1)], 0).unwrap();
        let again = g.insert_edge(&[t(1), t(0)], 1).unwrap(); // same set, any order
        assert!(!again.structural);
        assert_eq!(again.comp, first.comp);
        assert_eq!(g.edge_labels(&[t(0), t(1)]), [0, 1]);
        // First removal only drops a label: no component is touched
        // (the distinct edge set did not change).
        let r = g.remove_edge(&[t(0), t(1)], 1).unwrap();
        assert_eq!(r, EdgeRemoval::default());
        assert_eq!(g.edge_count(), 1);
        // Second removal dissolves the component.
        let r = g.remove_edge(&[t(0), t(1)], 0).unwrap();
        assert_eq!(r.dead, vec![first.comp]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.component_count(), 0);
        g.check_consistency().unwrap();
    }

    #[test]
    fn removal_splits_and_keeps_largest_part_id() {
        let mut g = DynamicConflictGraph::new();
        // Path 0-1-2-3 with an extra edge 2-4: removing 1-2 splits
        // {0,1} from {2,3,4}.
        g.insert_edge(&[t(0), t(1)], 0);
        g.insert_edge(&[t(1), t(2)], 0);
        g.insert_edge(&[t(2), t(3)], 0);
        let comp = g.insert_edge(&[t(2), t(4)], 0).unwrap().comp;
        assert_eq!(g.component_count(), 1);
        let r = g.remove_edge(&[t(1), t(2)], 0).unwrap();
        assert_eq!(g.component_count(), 2);
        // The larger part {2,3,4} keeps the id.
        assert_eq!(r.touched, vec![comp]);
        assert_eq!(r.created.len(), 1);
        assert_eq!(g.component_of(t(3)), Some(comp));
        assert_eq!(g.component_of(t(0)), Some(r.created[0]));
        g.check_consistency().unwrap();
    }

    #[test]
    fn same_history_numbers_split_parts_alike() {
        // A 12-leaf star with paired leaves: removing the hub edges leaves
        // six two-tuple parts, five of them with fresh ids. Two graphs
        // with the same history must hand out the same ids.
        let history = |g: &mut DynamicConflictGraph| {
            for leaf in 1..=12 {
                g.insert_edge(&[t(0), t(leaf)], 0);
            }
            for leaf in (1..=12).step_by(2) {
                g.insert_edge(&[t(leaf), t(leaf + 1)], 0);
            }
            let hub: Vec<[TupleId; 2]> = (1..=12).map(|leaf| [t(0), t(leaf)]).collect();
            g.remove_edges(hub.iter().map(|e| (e.as_slice(), 0)))
                .unwrap();
            (1..=12)
                .map(|leaf| g.component_of(t(leaf)))
                .collect::<Vec<_>>()
        };
        let first = history(&mut DynamicConflictGraph::new());
        for _ in 0..8 {
            assert_eq!(history(&mut DynamicConflictGraph::new()), first);
        }
    }

    #[test]
    fn hyperedges_and_singletons() {
        let mut g = DynamicConflictGraph::new();
        g.insert_edge(&[t(5)], 0); // self-inconsistent tuple
        let h = g.insert_edge(&[t(0), t(1), t(2)], 0).unwrap();
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.component_len(h.comp), 3);
        let sets = g.component_sets(h.comp);
        assert_eq!(sets, vec![(&[t(0), t(1), t(2)][..], &[0][..])]);
        // Removing the hyperedge drops all three nodes.
        let r = g.remove_edge(&[t(0), t(1), t(2)], 0).unwrap();
        assert_eq!(r.dead, vec![h.comp]);
        assert_eq!(g.node_count(), 1);
        g.check_consistency().unwrap();
    }

    #[test]
    fn batch_removal_resettles_once() {
        let mut g = DynamicConflictGraph::new();
        g.insert_edge(&[t(0), t(1)], 0);
        g.insert_edge(&[t(1), t(2)], 0);
        g.insert_edge(&[t(3), t(4)], 0);
        let sets: Vec<ViolationSet> = vec![canon(&[t(0), t(1)]), canon(&[t(1), t(2)])];
        let r = g
            .remove_edges(sets.iter().map(|s| (s.as_ref(), 0)))
            .unwrap();
        assert_eq!(r.dead.len(), 1);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.node_count(), 2);
        // Unknown edges alone report None.
        assert!(g.remove_edge(&[t(8), t(9)], 0).is_none());
        g.check_consistency().unwrap();
    }

    #[test]
    fn component_sets_are_deterministic() {
        let mut g = DynamicConflictGraph::new();
        let c = g.insert_edge(&[t(2), t(3)], 0).unwrap().comp;
        g.insert_edge(&[t(1), t(2)], 0);
        g.insert_edge(&[t(1)], 0);
        g.insert_edge(&[t(2), t(1)], 3);
        let comp = g.component_of(t(1)).unwrap();
        assert_eq!(comp, g.component_of(t(3)).unwrap());
        let _ = c;
        let sets = g.component_sets(comp);
        let want: [(&[TupleId], &[usize]); 3] = [
            (&[t(1)], &[0]),
            (&[t(1), t(2)], &[0, 3]),
            (&[t(2), t(3)], &[0]),
        ];
        assert_eq!(sets, want);
        assert_eq!(g.component_nodes(comp), vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn labels_are_deduplicated_and_counted() {
        let mut g = DynamicConflictGraph::new();
        assert!(g.insert_edge(&[], 0).is_none());
        g.insert_edge(&[t(0), t(1)], 2).unwrap();
        g.insert_edge(&[t(1), t(0)], 0).unwrap();
        // A pair already present changes nothing.
        assert!(g.insert_edge(&[t(0), t(1)], 2).is_none());
        g.insert_edge(&[t(1), t(2)], 1).unwrap();
        assert_eq!(g.edge_labels(&[t(0), t(1)]), [0, 2]);
        assert_eq!(g.label_count(), 3);
        let mut counts: Vec<(TupleId, usize)> = g.node_label_counts().collect();
        counts.sort();
        assert_eq!(counts, vec![(t(0), 2), (t(1), 3), (t(2), 1)]);
        let mut edges: Vec<(ViolationSet, Vec<usize>)> = g
            .labelled_sets()
            .map(|(set, labels)| (set.clone(), labels.to_vec()))
            .collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (canon(&[t(0), t(1)]), vec![0, 2]),
                (canon(&[t(1), t(2)]), vec![1])
            ]
        );
        // An absent label on a known edge is not a removal.
        assert!(g.remove_edge(&[t(0), t(1)], 1).is_none());
        g.check_consistency().unwrap();
    }

    #[test]
    fn remove_incident_takes_every_label_touching_a_tuple() {
        let mut g = DynamicConflictGraph::new();
        // Path 0-1-2 with a second label on 0-1, and a separate edge 3-4.
        g.insert_edge(&[t(0), t(1)], 0).unwrap();
        g.insert_edge(&[t(0), t(1)], 1).unwrap();
        let comp = g.insert_edge(&[t(1), t(2)], 0).unwrap().comp;
        g.insert_edge(&[t(3), t(4)], 1).unwrap();
        assert_eq!(g.label_count(), 4);
        // Removing the middle tuple dissolves its component and takes all
        // three of its labels.
        let r = g.remove_incident(t(1)).unwrap();
        assert_eq!(r.dead, vec![comp]);
        assert_eq!(g.label_count(), 1);
        assert_eq!(g.node_count(), 2);
        assert!(g.remove_incident(t(1)).is_none());
        // A tuple whose removal leaves the rest connected keeps the id.
        g.insert_edge(&[t(4), t(5)], 0).unwrap();
        let keep = g.component_of(t(4)).unwrap();
        let r = g.remove_incident(t(3)).unwrap();
        assert_eq!(g.label_count(), 1);
        assert_eq!(r.touched, vec![keep]);
        assert!(r.dead.is_empty() && r.created.is_empty());
        g.check_consistency().unwrap();
    }

    #[test]
    fn incident_sets_and_loop_labels_read_one_node() {
        let mut g = DynamicConflictGraph::new();
        g.insert_edge(&[t(0), t(1)], 0).unwrap();
        g.insert_edge(&[t(0), t(1)], 2).unwrap();
        g.insert_edge(&[t(0)], 1).unwrap();
        g.insert_edge(&[t(0)], 3).unwrap();
        g.insert_edge(&[t(1), t(2)], 0).unwrap();
        let mut sets: Vec<(Vec<TupleId>, Vec<usize>)> = g
            .incident_sets(t(0))
            .map(|(set, labels)| (set.to_vec(), labels.to_vec()))
            .collect();
        sets.sort();
        assert_eq!(
            sets,
            vec![(vec![t(0)], vec![1, 3]), (vec![t(0), t(1)], vec![0, 2])]
        );
        assert_eq!(g.loop_labels(t(0)), [1, 3]);
        assert!(g.loop_labels(t(1)).is_empty());
        assert_eq!(g.incident_sets(t(9)).count(), 0);
        assert!(g.loop_labels(t(9)).is_empty());
    }
}
