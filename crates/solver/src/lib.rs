//! # inconsist-solver
//!
//! Optimization back ends for the `inconsist` workspace — the stand-in for
//! the Gurobi optimizer used in §6.1 of *Properties of Inconsistency
//! Measures for Databases* (SIGMOD 2021):
//!
//! * [`simplex`] — dense two-phase simplex, the general LP oracle;
//! * [`matching`] — Hopcroft–Karp bipartite matching and König covers;
//! * [`flow`] — Dinic max-flow, weighted bipartite vertex covers;
//! * [`fvc`] — half-integral *fractional* vertex cover via the bipartite
//!   double cover (the fast exact path for `I_R^lin` on two-tuple DCs);
//! * [`vertex_cover`] — exact min-weight vertex cover (cograph closed form,
//!   Nemhauser–Trotter kernelization, budgeted branch-and-bound) and the
//!   greedy baseline, powering `I_R` under deletions;
//! * [`covering`] — exact min-weight hitting set for hyperedge violations
//!   (the full covering ILP of Fig. 2);
//! * [`component`] — component-scoped entry points (`I_R` / `I_R^lin` of
//!   one conflict component), the solving half of the incremental
//!   per-component measure caches.
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
pub mod matching;
pub mod simplex;
pub mod vertex_cover;

pub use budget::Budget;
pub use component::{
    component_min_repair, component_min_repair_lin, component_min_repair_with,
    component_tuple_scores, node_index_sets, TupleScores,
};
pub use covering::{
    greedy_hitting_set, min_weight_hitting_set, min_weight_hitting_set_with, HittingSet,
};
pub use flow::{bipartite_min_weight_vertex_cover, FlowNetwork};
pub use fvc::{fractional_vertex_cover, nt_partition, FractionalCover};
pub use matching::{Bipartite, Matching};
pub use simplex::{covering_lp, LinearProgram, LpCmp, LpError, LpSolution};
pub use vertex_cover::{
    greedy_vertex_cover, is_vertex_cover, min_weight_vertex_cover, min_weight_vertex_cover_with,
    VertexCover,
};
