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
//! * **remove** — edges are reference-counted (the same tuple set flagged
//!   by two constraints is one structural edge); when the count reaches
//!   zero the edge disappears, isolated nodes are dropped, and the affected
//!   component is re-settled by a BFS *bounded by that component* — if it
//!   split, the largest part keeps the old id and the rest get fresh ids.
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
use inconsist_relational::TupleId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Identifier of one connected component. Stable until the component is
/// merged away or split; never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub u64);

#[derive(Clone, Debug)]
struct EdgeData {
    /// Sorted, deduplicated member tuples.
    tuples: ViolationSet,
    /// How many times the edge was inserted (e.g. once per constraint
    /// flagging the same tuple set).
    refs: u32,
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
    /// Whether the edge is structurally new (`false` = refcount bump only;
    /// the component's edge set did not change).
    pub structural: bool,
}

/// Outcome of [`DynamicConflictGraph::remove_edge`] /
/// [`DynamicConflictGraph::remove_edges`].
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
    /// Edge key (sorted tuple set) → arena slot.
    edge_ids: HashMap<ViolationSet, u32>,
    nodes: HashMap<TupleId, NodeData>,
    /// Component id → member nodes (unordered).
    comps: HashMap<CompId, Vec<TupleId>>,
    next_comp: u64,
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

    fn fresh_comp(&mut self) -> CompId {
        let id = CompId(self.next_comp);
        self.next_comp += 1;
        id
    }

    /// Inserts a violation set as an edge (refcounted). Empty sets are
    /// ignored and report a placeholder component with `structural: false`.
    pub fn insert_edge(&mut self, tuples: &[TupleId]) -> EdgeInsert {
        let key = canon(tuples);
        if key.is_empty() {
            return EdgeInsert {
                comp: CompId(u64::MAX),
                merged: Vec::new(),
                structural: false,
            };
        }
        if let Some(&slot) = self.edge_ids.get(&key) {
            let edge = self.edges[slot as usize].as_mut().expect("live edge");
            edge.refs += 1;
            let comp = self.nodes[&key[0]].comp;
            return EdgeInsert {
                comp,
                merged: Vec::new(),
                structural: false,
            };
        }
        // Allocate the edge slot.
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.edges[s as usize] = Some(EdgeData {
                    tuples: key.clone(),
                    refs: 1,
                });
                s
            }
            None => {
                self.edges.push(Some(EdgeData {
                    tuples: key.clone(),
                    refs: 1,
                }));
                (self.edges.len() - 1) as u32
            }
        };
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
        EdgeInsert {
            comp: survivor,
            merged,
            structural: true,
        }
    }

    /// Decrements an edge's refcount, removing it at zero and re-settling
    /// the affected component. Returns `None` for unknown edges.
    pub fn remove_edge(&mut self, tuples: &[TupleId]) -> Option<EdgeRemoval> {
        self.remove_edges(std::iter::once(tuples))
    }

    /// Batch removal: decrements each edge once, then re-settles every
    /// affected component a single time. Unknown edges are skipped; returns
    /// `None` when *no* listed edge was known.
    pub fn remove_edges<'a, I>(&mut self, sets: I) -> Option<EdgeRemoval>
    where
        I: IntoIterator<Item = &'a [TupleId]>,
    {
        let mut any = false;
        let mut affected: Vec<CompId> = Vec::new();
        for tuples in sets {
            let key = canon(tuples);
            let Some(&slot) = self.edge_ids.get(&key) else {
                continue;
            };
            any = true;
            let edge = self.edges[slot as usize].as_mut().expect("live edge");
            edge.refs -= 1;
            if edge.refs > 0 {
                // Refcount-only drop: the distinct edge set is unchanged,
                // so the component is not reported as touched.
                continue;
            }
            let comp = self.nodes[&key[0]].comp;
            if !affected.contains(&comp) {
                affected.push(comp);
            }
            // Structural removal: detach from nodes and free the slot.
            self.edge_ids.remove(&key);
            let edge = self.edges[slot as usize].take().expect("live edge");
            self.free_slots.push(slot);
            for &t in edge.tuples.iter() {
                let node = self.nodes.get_mut(&t).expect("member exists");
                node.incident.retain(|&e| e != slot);
            }
        }
        if !any {
            return None;
        }
        let mut out = EdgeRemoval::default();
        for comp in affected {
            self.resettle(comp, &mut out);
        }
        Some(out)
    }

    /// Recomputes connectivity inside `comp` after removals: drops isolated
    /// nodes, keeps the old id for the largest surviving part, and assigns
    /// fresh ids to the rest.
    fn resettle(&mut self, comp: CompId, out: &mut EdgeRemoval) {
        let members = self.comps.remove(&comp).expect("affected component exists");
        let mut unvisited: HashSet<TupleId> = HashSet::with_capacity(members.len());
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
                // Clone the incident list to appease the borrow checker; the
                // lists are tiny (per-node degree within one component).
                let incident = self.nodes[&v].incident.clone();
                for slot in incident {
                    let edge = self.edges[slot as usize].as_ref().expect("live edge");
                    for &u in edge.tuples.iter() {
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
            return;
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

    /// Current reference count of an edge (0 = absent).
    pub fn edge_refs(&self, tuples: &[TupleId]) -> u32 {
        let key = canon(tuples);
        self.edge_ids
            .get(&key)
            .map(|&slot| self.edges[slot as usize].as_ref().expect("live edge").refs)
            .unwrap_or(0)
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

    /// The distinct violation sets (edges) inside component `c`, sorted by
    /// `(len, members)` so downstream consumers are deterministic.
    pub fn component_sets(&self, c: CompId) -> Vec<ViolationSet> {
        let Some(members) = self.comps.get(&c) else {
            return Vec::new();
        };
        let mut slots: Vec<u32> = Vec::new();
        for t in members {
            slots.extend_from_slice(&self.nodes[t].incident);
        }
        slots.sort_unstable();
        slots.dedup();
        let mut sets: Vec<ViolationSet> = slots
            .into_iter()
            .map(|s| {
                self.edges[s as usize]
                    .as_ref()
                    .expect("live edge")
                    .tuples
                    .clone()
            })
            .collect();
        sets.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        sets
    }

    /// Every distinct edge in the graph (unordered).
    pub fn all_sets(&self) -> impl Iterator<Item = &ViolationSet> + '_ {
        self.edge_ids.keys()
    }

    /// Exhaustive invariant check (components = from-scratch connectivity,
    /// membership maps agree, incident lists match edges). `O(V + E)`;
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
        // Every edge must be intra-component and registered on its nodes.
        for (key, &slot) in &self.edge_ids {
            let Some(Some(e)) = self.edges.get(slot as usize) else {
                return Err("edge id points at freed slot".into());
            };
            if e.tuples != *key {
                return Err("edge key/slot mismatch".into());
            }
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
                    let e = self.edges[slot as usize].as_ref().expect("checked above");
                    for &u in e.tuples.iter() {
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
        let a = g.insert_edge(&[t(0), t(1)]);
        assert!(a.structural && a.merged.is_empty());
        let b = g.insert_edge(&[t(2), t(3)]);
        assert_ne!(a.comp, b.comp);
        assert_eq!(g.component_count(), 2);
        // Bridge: the two components merge, one id survives.
        let c = g.insert_edge(&[t(1), t(2)]);
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
        let first = g.insert_edge(&[t(0), t(1)]);
        let again = g.insert_edge(&[t(1), t(0)]); // same set, any order
        assert!(!again.structural);
        assert_eq!(again.comp, first.comp);
        assert_eq!(g.edge_refs(&[t(0), t(1)]), 2);
        // First removal only drops the refcount: no component is touched
        // (the distinct edge set did not change).
        let r = g.remove_edge(&[t(0), t(1)]).unwrap();
        assert_eq!(r, EdgeRemoval::default());
        assert_eq!(g.edge_count(), 1);
        // Second removal dissolves the component.
        let r = g.remove_edge(&[t(0), t(1)]).unwrap();
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
        g.insert_edge(&[t(0), t(1)]);
        g.insert_edge(&[t(1), t(2)]);
        g.insert_edge(&[t(2), t(3)]);
        let comp = g.insert_edge(&[t(2), t(4)]).comp;
        assert_eq!(g.component_count(), 1);
        let r = g.remove_edge(&[t(1), t(2)]).unwrap();
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
                g.insert_edge(&[t(0), t(leaf)]);
            }
            for leaf in (1..=12).step_by(2) {
                g.insert_edge(&[t(leaf), t(leaf + 1)]);
            }
            let hub: Vec<[TupleId; 2]> = (1..=12).map(|leaf| [t(0), t(leaf)]).collect();
            g.remove_edges(hub.iter().map(|e| e.as_slice())).unwrap();
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
        g.insert_edge(&[t(5)]); // self-inconsistent tuple
        let h = g.insert_edge(&[t(0), t(1), t(2)]);
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.component_len(h.comp), 3);
        let sets = g.component_sets(h.comp);
        assert_eq!(sets, vec![canon(&[t(0), t(1), t(2)])]);
        // Removing the hyperedge drops all three nodes.
        let r = g.remove_edge(&[t(0), t(1), t(2)]).unwrap();
        assert_eq!(r.dead, vec![h.comp]);
        assert_eq!(g.node_count(), 1);
        g.check_consistency().unwrap();
    }

    #[test]
    fn batch_removal_resettles_once() {
        let mut g = DynamicConflictGraph::new();
        g.insert_edge(&[t(0), t(1)]);
        g.insert_edge(&[t(1), t(2)]);
        g.insert_edge(&[t(3), t(4)]);
        let sets: Vec<ViolationSet> = vec![canon(&[t(0), t(1)]), canon(&[t(1), t(2)])];
        let r = g.remove_edges(sets.iter().map(|s| s.as_ref())).unwrap();
        assert_eq!(r.dead.len(), 1);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.node_count(), 2);
        // Unknown edges alone report None.
        assert!(g.remove_edge(&[t(8), t(9)]).is_none());
        g.check_consistency().unwrap();
    }

    #[test]
    fn component_sets_are_deterministic() {
        let mut g = DynamicConflictGraph::new();
        let c = g.insert_edge(&[t(2), t(3)]).comp;
        g.insert_edge(&[t(1), t(2)]);
        g.insert_edge(&[t(1)]);
        let comp = g.component_of(t(1)).unwrap();
        assert_eq!(comp, g.component_of(t(3)).unwrap());
        let _ = c;
        let sets = g.component_sets(comp);
        assert_eq!(
            sets,
            vec![canon(&[t(1)]), canon(&[t(1), t(2)]), canon(&[t(2), t(3)])]
        );
        assert_eq!(g.component_nodes(comp), vec![t(1), t(2), t(3)]);
    }
}
