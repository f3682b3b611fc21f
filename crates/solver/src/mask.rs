//! The mask form of a small plain conflict graph, read by both repair
//! kernels: the exact cover's branch-and-reduce
//! ([`crate::vertex_cover`]) and the fractional cover's augmenting-path
//! flow ([`crate::fvc`]).
//!
//! A plain graph of at most [`MASK_WIDTH`] nodes is one `u64` adjacency
//! word per node plus its weights and a word of forced (self-inconsistent)
//! nodes. [`MaskGraph::from_subsets`] builds it straight from a
//! component's minimal violation sets, so the per-component solves of the
//! incremental index never build a [`ConflictGraph`];
//! [`MaskGraph::of_component`] builds it from one free component of a
//! graph that is already built.

use inconsist_graph::ConflictGraph;
use inconsist_relational::{Database, TupleId};

/// The widest component, in free nodes, that is solved on one `u64`
/// adjacency mask per node. Wider components go through the cograph test
/// and the Nemhauser–Trotter kernel first (exact cover) or through Dinic
/// (fractional cover).
pub const MASK_WIDTH: usize = 64;

/// A node set as a bit mask: one word for the components of at most
/// [`MASK_WIDTH`] nodes, sixteen words for the wider ½-core components of
/// the exact cover.
pub(crate) trait Mask: Copy {
    /// The empty set.
    const EMPTY: Self;
    /// The set `{0, …, n-1}`.
    fn first(n: usize) -> Self;
    /// The set `{i}`.
    fn single(i: usize) -> Self;
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
    /// `self \ other`.
    fn minus(self, other: Self) -> Self;
    fn is_empty(self) -> bool;
    fn count(self) -> u32;
    /// The lowest member of a non-empty set.
    fn lowest(self) -> usize;

    fn has(self, i: usize) -> bool {
        !self.and(Self::single(i)).is_empty()
    }

    /// The members, ascending.
    fn members(self) -> impl Iterator<Item = usize> {
        let mut rest = self;
        std::iter::from_fn(move || {
            (!rest.is_empty()).then(|| {
                let i = rest.lowest();
                rest = rest.minus(Self::single(i));
                i
            })
        })
    }
}

impl Mask for u64 {
    const EMPTY: Self = 0;
    fn first(n: usize) -> Self {
        u64::MAX.checked_shr((64 - n) as u32).unwrap_or(0)
    }
    fn single(i: usize) -> Self {
        1 << i
    }
    fn and(self, other: Self) -> Self {
        self & other
    }
    fn or(self, other: Self) -> Self {
        self | other
    }
    fn minus(self, other: Self) -> Self {
        self & !other
    }
    fn is_empty(self) -> bool {
        self == 0
    }
    fn count(self) -> u32 {
        self.count_ones()
    }
    fn lowest(self) -> usize {
        self.trailing_zeros() as usize
    }
}

impl<const N: usize> Mask for [u64; N] {
    const EMPTY: Self = [0; N];
    fn first(n: usize) -> Self {
        std::array::from_fn(|w| u64::first(n.saturating_sub(64 * w).min(64)))
    }
    fn single(i: usize) -> Self {
        std::array::from_fn(|w| if w == i / 64 { 1 << (i % 64) } else { 0 })
    }
    fn and(self, other: Self) -> Self {
        std::array::from_fn(|w| self[w] & other[w])
    }
    fn or(self, other: Self) -> Self {
        std::array::from_fn(|w| self[w] | other[w])
    }
    fn minus(self, other: Self) -> Self {
        std::array::from_fn(|w| self[w] & !other[w])
    }
    fn is_empty(self) -> bool {
        self.iter().all(|&w| w == 0)
    }
    fn count(self) -> u32 {
        self.iter().map(|w| w.count_ones()).sum()
    }
    fn lowest(self) -> usize {
        let w = self.iter().position(|&w| w != 0).expect("non-empty set");
        64 * w + self[w].trailing_zeros() as usize
    }
}

/// The adjacency masks of one free component of `g` (sorted node list);
/// local node `i` is `comp[i]`, and edges leaving `comp` are dropped.
pub(crate) fn component_adjacency<M: Mask>(g: &ConflictGraph, comp: &[u32]) -> Vec<M> {
    let local = |u: u32| comp.binary_search(&u).ok();
    comp.iter()
        .map(|&v| {
            g.neighbors(v)
                .iter()
                .filter_map(|&u| local(u))
                .fold(M::EMPTY, |m, i| m.or(M::single(i)))
        })
        .collect()
}

/// The connected components of `g`'s free (non-excluded) nodes that hold
/// an edge, each as a sorted node list, in ascending order of their lowest
/// node.
pub(crate) fn free_components(g: &ConflictGraph) -> Vec<Vec<u32>> {
    let mut seen: Vec<bool> = (0..g.n() as u32).map(|v| g.is_excluded(v)).collect();
    let mut out = Vec::new();
    for start in 0..g.n() as u32 {
        if seen[start as usize] {
            continue;
        }
        seen[start as usize] = true;
        let mut comp = vec![start];
        let mut i = 0;
        while let Some(&v) = comp.get(i) {
            for &u in g.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    comp.push(u);
                }
            }
            i += 1;
        }
        if comp.len() > 1 {
            comp.sort_unstable();
            out.push(comp);
        }
    }
    out
}

/// A plain graph of at most [`MASK_WIDTH`] nodes: node `v`'s neighbours
/// are the bits of `adj[v]`, its deletion cost is `w[v]`, and the bits of
/// `forced` are the self-inconsistent nodes. Node order is ascending tuple
/// id, as in [`ConflictGraph`].
#[derive(Debug)]
pub(crate) struct MaskGraph {
    pub(crate) adj: Vec<u64>,
    pub(crate) w: Vec<f64>,
    pub(crate) forced: u64,
}

impl MaskGraph {
    /// The mask form of the violation sets `subsets` over `db`, with the
    /// participating tuples in node order; `None` when a set holds three
    /// or more tuples or more than [`MASK_WIDTH`] tuples participate.
    pub(crate) fn from_subsets<S: AsRef<[TupleId]>>(
        db: &Database,
        subsets: &[S],
    ) -> Option<(MaskGraph, Vec<TupleId>)> {
        let mut tuples: Vec<TupleId> = Vec::new();
        for s in subsets {
            let s = s.as_ref();
            if s.len() > 2 {
                return None;
            }
            tuples.extend_from_slice(s);
        }
        tuples.sort_unstable();
        tuples.dedup();
        if tuples.len() > MASK_WIDTH {
            return None;
        }
        let node = |t: &TupleId| tuples.binary_search(t).expect("tuple came from subsets");
        let mut adj = vec![0u64; tuples.len()];
        let mut forced = 0u64;
        for s in subsets {
            match s.as_ref() {
                [t] => forced |= 1 << node(t),
                [a, b] => {
                    let (a, b) = (node(a), node(b));
                    if a != b {
                        adj[a] |= 1 << b;
                        adj[b] |= 1 << a;
                    }
                }
                _ => {}
            }
        }
        let w = tuples.iter().map(|&t| db.cost_of(t)).collect();
        Some((MaskGraph { adj, w, forced }, tuples))
    }

    /// The mask form of one free component of `g` (sorted node list, at
    /// most [`MASK_WIDTH`] nodes); local node `i` is `comp[i]`.
    pub(crate) fn of_component(g: &ConflictGraph, comp: &[u32]) -> MaskGraph {
        debug_assert!(comp.len() <= MASK_WIDTH);
        MaskGraph {
            adj: component_adjacency(g, comp),
            w: comp.iter().map(|&v| g.weight(v)).collect(),
            forced: 0,
        }
    }

    /// The nodes that are not forced.
    pub(crate) fn free(&self) -> u64 {
        u64::first(self.adj.len()) & !self.forced
    }

    /// The connected components of `live` that hold an edge, in ascending
    /// order of their lowest node.
    pub(crate) fn components(&self, live: u64) -> impl Iterator<Item = u64> + '_ {
        let mut rest = live;
        std::iter::from_fn(move || loop {
            if rest == 0 {
                return None;
            }
            let (mut comp, mut frontier) = (0u64, u64::single(rest.lowest()));
            while frontier != 0 {
                comp |= frontier;
                frontier = frontier.members().fold(0, |next, v| next | self.adj[v]) & rest & !comp;
            }
            rest &= !comp;
            if comp.count_ones() > 1 {
                return Some(comp);
            }
        })
    }

    /// The ascending `0.0`-started fold of the weights of `nodes`.
    pub(crate) fn weight_of(&self, nodes: u64) -> f64 {
        nodes.members().fold(0.0, |sum, v| sum + self.w[v])
    }
}
