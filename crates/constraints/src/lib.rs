//! # inconsist-constraints
//!
//! Integrity constraints and violation detection for the `inconsist`
//! workspace — §2 and §6.1 of *Properties of Inconsistency Measures for
//! Databases* (SIGMOD 2021).
//!
//! * [`DenialConstraint`] — the normal form every constraint compiles to;
//! * [`Fd`] / [`Egd`] — the classical dependency classes, with conversion
//!   to DCs and (for FDs) complete entailment via attribute closure;
//! * [`ConstraintSet`] — a finite `Σ` with the limited logical reasoning
//!   the measure framework needs;
//! * [`engine`] — the streaming violation enumerator (the stand-in for the
//!   paper's SQL self-joins) producing `MI_Σ(D)`;
//! * [`parallel`] — the multi-threaded enumerator (the paper parallelizes
//!   its dominant stage, violation detection, §6.2.3): constraint-level
//!   work stealing plus intra-constraint data sharding;
//! * [`Ind`] — inclusion dependencies (referential constraints), the
//!   non-anti-monotonic class of §2 repaired by insertions;
//! * [`mine`] — evidence-set DC mining (the stand-in for the mining
//!   algorithm of §6.1 that produced the paper's constraint sets);
//! * [`parse_dc`] — a small ASCII syntax for writing DCs in examples.
//!
//! See `docs/PAPER_MAP.md` at the repository root for the full
//! paper-section ↔ module map.
//!
//! # Quick start
//!
//! Detect the violations of an FD and read off `I_MI`:
//!
//! ```
//! use inconsist_constraints::{minimal_inconsistent_subsets, ConstraintSet, Fd};
//! use inconsist_relational::{relation, AttrId, Database, Fact, Schema, Value, ValueKind};
//! use std::sync::Arc;
//!
//! let mut s = Schema::new();
//! let r = s
//!     .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
//!     .unwrap();
//! let s = Arc::new(s);
//! let mut db = Database::new(Arc::clone(&s));
//! for (a, b) in [(1, 1), (1, 2), (2, 5)] {
//!     db.insert(Fact::new(r, [Value::int(a), Value::int(b)])).unwrap();
//! }
//! let mut cs = ConstraintSet::new(Arc::clone(&s));
//! cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
//! assert_eq!(minimal_inconsistent_subsets(&db, &cs, None).count(), 1);
//! ```

#![warn(missing_docs)]

pub mod codekey;
pub mod dc;
pub mod egd;
pub mod engine;
pub mod fd;
pub mod ind;
pub mod mine;
pub mod parallel;
pub mod parse;
pub mod predicate;
pub mod set;

pub use dc::{Atom, DcDisplay, DenialConstraint};
pub use egd::{Egd, EgdAtom};
pub use engine::{
    filter_minimal, filter_minimal_sorted, is_consistent, minimal_inconsistent_subsets,
    violations_involving, violations_per_dc, DcViolations, MiResult, ViolationSet,
};
pub use fd::Fd;
pub use ind::{ind_min_repair, Ind};
pub use mine::{mine_dcs, MinedDc, MinerConfig};
pub use parallel::{
    minimal_inconsistent_subsets_par, minimal_inconsistent_subsets_par_with, ShardPolicy,
};
pub use parse::parse_dc;
pub use predicate::{CmpOp, Operand, Predicate};
pub use set::{ConstraintSet, Provenance};
