//! # inconsist-graph
//!
//! Conflict graphs and maximal-independent-set machinery for the
//! `inconsist` workspace — the combinatorial substrate behind `I_MC`,
//! `I_R` and `I_R^lin` (§3 and §5 of *Properties of Inconsistency Measures
//! for Databases*, SIGMOD 2021).
//!
//! * [`ConflictGraph`] — tuples as nodes, minimal violations as (hyper)edges,
//!   self-inconsistent tuples as excluded nodes, deletion costs as weights;
//! * [`DynamicConflictGraph`] — the maintained counterpart: labelled
//!   edge insertion/removal with connected-component tracking (merge on
//!   insert, component-local re-settle on removal), powering the
//!   component-scoped incremental measure reads;
//! * [`mis`] — budgeted Bron–Kerbosch counting/enumeration of maximal
//!   consistent subsets (the paper used `parallel_enum` \[51\] and reported
//!   24-hour timeouts; our budget plays that role);
//! * [`cograph`] — P4-free recognition and the linear cotree DP matching
//!   the tractable class of \[40\].

#![warn(missing_docs)]

pub mod bitset;
pub mod cograph;
pub mod conflict;
pub mod dynamic;
pub mod mis;

pub use bitset::BitSet;
pub use cograph::{cotree, count_mis_if_cograph, Cotree};
pub use conflict::ConflictGraph;
pub use dynamic::{CompId, DynamicConflictGraph, EdgeInsert, EdgeRemoval};
pub use mis::{count_maximal_consistent_subsets, enumerate_maximal_independent_sets, CountError};
