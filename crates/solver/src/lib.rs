//! # inconsist-solver
//!
//! Optimization back ends for the `inconsist` workspace — the stand-in for
//! the Gurobi optimizer used in §6.1 of *Properties of Inconsistency
//! Measures for Databases* (SIGMOD 2021):
//!
//! * [`simplex`] — dense two-phase simplex, the general LP oracle;
//! * [`flow`] — Dinic max-flow, weighted bipartite vertex covers;
//! * [`fvc`] — half-integral *fractional* vertex cover via the bipartite
//!   double cover (the fast exact path for `I_R^lin` on two-tuple DCs):
//!   BFS augmenting paths on `u64` masks per component of at most 64
//!   nodes, Dinic beyond, one canonical value from either;
//! * [`vertex_cover`] — exact min-weight vertex cover (closed forms, a
//!   budgeted bitset branch-and-reduce per component, cograph closed form
//!   and Nemhauser–Trotter kernelization for wide components) and the
//!   greedy baseline, powering `I_R` under deletions;
//! * [`covering`] — exact min-weight hitting set for hyperedge violations
//!   (the full covering ILP of Fig. 2);
//! * [`component`] — the one dispatch from a database and its minimal
//!   violation sets to an `I_R` repair or an `I_R^lin` value. Pairs and
//!   singletons over at most 64 tuples become one mask form (adjacency
//!   words and weights) that both the exact cover and the fractional
//!   cover read, with no conflict graph built; other inputs build the
//!   conflict graph (vertex cover / fractional cover on plain graphs,
//!   hitting set / covering LP on hypergraphs). Called per component by
//!   the incremental measure caches and on the whole database by the
//!   batch measures.
//!
//! Every exponential-time routine takes a step budget and returns `None`
//! when it is exhausted — the workspace's analogue of the paper's 24-hour
//! timeout protocol.

#![warn(missing_docs)]

pub mod budget;
pub mod component;
pub mod covering;
pub mod flow;
pub mod fvc;
mod mask;
#[cfg(test)]
mod matching;
pub mod simplex;
pub mod vertex_cover;

pub use budget::Budget;
pub use component::{
    component_min_repair, component_min_repair_lin, component_tuple_scores, node_index_sets,
    DeletionRepair, TupleScores,
};
pub use covering::{
    greedy_hitting_set, min_weight_hitting_set, min_weight_hitting_set_with, HittingSet,
};
pub use flow::{bipartite_min_weight_vertex_cover, BipartiteCover, FlowNetwork};
pub use fvc::{fractional_vertex_cover, nt_partition, FractionalCover};
pub use simplex::{covering_lp, LinearProgram, LpCmp, LpError, LpSolution};
pub use vertex_cover::{
    greedy_vertex_cover, is_vertex_cover, min_weight_vertex_cover, min_weight_vertex_cover_with,
    VertexCover,
};
