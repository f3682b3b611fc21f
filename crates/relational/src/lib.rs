//! # inconsist-relational
//!
//! The relational substrate of the `inconsist` workspace: typed values,
//! schemas, and databases with stable tuple identifiers — the data model of
//! §2 of *Properties of Inconsistency Measures for Databases* (SIGMOD 2021).
//!
//! A [`Database`] is a finite map from identifiers to facts; the three
//! repairing operations of the paper are directly supported:
//! [`Database::delete`] (`⟨−i⟩`), [`Database::insert`] (`⟨+f⟩`, assigning the
//! minimal unused identifier) and [`Database::update`] (`⟨i.A ← c⟩`).
//!
//! Per-tuple deletion costs (the cost attribute of the subset repair system
//! `R⊆`) are exposed through [`Database::cost_of`].

#![warn(missing_docs)]

mod database;
mod dictionary;
mod domain;
mod idhash;
mod schema;
mod smallvec;
mod value;

pub use database::{Database, Fact, FactRef, Postings, ShardView, TupleId};
pub use dictionary::Dictionary;
pub use domain::{ActiveDomain, DomainCache};
pub use idhash::{IdMap, IdSet};
pub use schema::{relation, AttrId, Attribute, RelId, RelationSchema, Schema};
pub use smallvec::{InlineItem, SmallVec};
pub use value::{Value, ValueKind};

use std::fmt;

/// Errors surfaced by the relational layer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelationalError {
    /// Two attributes with the same name in one relation.
    DuplicateAttribute {
        /// Relation being defined.
        relation: String,
        /// Offending attribute name.
        attribute: String,
    },
    /// Two relations with the same name in one schema.
    DuplicateRelation {
        /// Offending relation name.
        relation: String,
    },
    /// Attribute name not found in a relation.
    UnknownAttribute {
        /// Relation searched.
        relation: String,
        /// Missing attribute name.
        attribute: String,
    },
    /// Relation name not found in a schema.
    UnknownRelation {
        /// Missing relation name.
        relation: String,
    },
    /// More attributes than `u16::MAX`.
    TooManyAttributes {
        /// Relation being defined.
        relation: String,
    },
    /// More relations than `u16::MAX`.
    TooManyRelations,
    /// Fact arity does not match the relation signature.
    ArityMismatch {
        /// Relation inserted into.
        relation: String,
        /// Signature arity.
        expected: usize,
        /// Provided arity.
        got: usize,
    },
    /// Value kind does not match the column type.
    TypeMismatch {
        /// Relation inserted into.
        relation: String,
        /// Column name.
        attribute: String,
        /// Declared column kind.
        expected: ValueKind,
        /// Provided value kind.
        got: ValueKind,
    },
    /// Explicit-id insertion under an identifier already in use.
    IdInUse {
        /// The taken identifier.
        id: TupleId,
    },
    /// Cost attribute must be numeric.
    BadCostAttribute {
        /// Relation.
        relation: String,
        /// Attribute designated as cost.
        attribute: String,
        /// Its (non-numeric) kind.
        kind: ValueKind,
    },
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::DuplicateAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "duplicate attribute `{attribute}` in relation `{relation}`"
                )
            }
            RelationalError::DuplicateRelation { relation } => {
                write!(f, "duplicate relation `{relation}`")
            }
            RelationalError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "unknown attribute `{attribute}` in relation `{relation}`"
                )
            }
            RelationalError::UnknownRelation { relation } => {
                write!(f, "unknown relation `{relation}`")
            }
            RelationalError::TooManyAttributes { relation } => {
                write!(f, "relation `{relation}` exceeds the attribute limit")
            }
            RelationalError::TooManyRelations => write!(f, "schema exceeds the relation limit"),
            RelationalError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for `{relation}`: expected {expected} values, got {got}"
            ),
            RelationalError::TypeMismatch {
                relation,
                attribute,
                expected,
                got,
            } => write!(
                f,
                "type mismatch for `{relation}.{attribute}`: expected {}, got {}",
                expected.name(),
                got.name()
            ),
            RelationalError::IdInUse { id } => write!(f, "tuple id {id} is already in use"),
            RelationalError::BadCostAttribute {
                relation,
                attribute,
                kind,
            } => write!(
                f,
                "cost attribute `{relation}.{attribute}` must be numeric, found {}",
                kind.name()
            ),
        }
    }
}

impl std::error::Error for RelationalError {}
