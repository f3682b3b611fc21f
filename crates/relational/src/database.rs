//! Databases: finite maps from tuple identifiers to facts (paper §2).
//!
//! A database `D` maps a finite set `ids(D)` of record identifiers to facts.
//! Identifiers are stable across updates and deletions; insertion assigns the
//! *minimal unused* identifier, matching the paper's convention for `⟨+f⟩`.
//!
//! Storage is a dense parallel-vector store per relation (ids and rows kept
//! in sync, deletion via `swap_remove`), which keeps full scans — the hot
//! path of violation detection — cache friendly, with a side index for O(1)
//! id lookup.
//!
//! Each column is additionally mirrored as a dictionary-encoded `Vec<u32>`
//! of codes (see [`crate::dictionary`]): the violation engine joins and
//! compares on these dense integer codes instead of hashing [`Value`]s.
//! The mirrors are maintained through every mutation, so they are always
//! aligned with [`Database::scan`] order.
//!
//! On top of the code columns sit the equality-join indexes of the
//! violation engine: per column, a lazily built [`Postings`] map
//! `code → ids of the tuples holding it` ([`Database::postings`]). A
//! column's postings are built on its first probe — through `&self`, so
//! concurrent readers may build them — and from then on the same
//! insert/delete/update hooks that keep the code columns in sync keep the
//! postings in sync too. A probe therefore costs the bucket it reads, not
//! the relation; columns that are never probed never pay.

use crate::dictionary::Dictionary;
use crate::schema::{AttrId, RelId, RelationSchema, Schema};
use crate::smallvec::SmallIdVec;
use crate::value::Value;
use crate::RelationalError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Stable record identifier, unique across all relations of one database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u32);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An owned fact `R(c1, …, ck)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fact {
    /// The relation symbol the fact belongs to.
    pub rel: RelId,
    /// Attribute values in signature order.
    pub values: Box<[Value]>,
}

impl Fact {
    /// Builds a fact from an iterator of values.
    pub fn new(rel: RelId, values: impl IntoIterator<Item = Value>) -> Self {
        Fact {
            rel,
            values: values.into_iter().collect(),
        }
    }
}

/// A borrowed view of a stored fact.
#[derive(Clone, Copy, Debug)]
pub struct FactRef<'a> {
    /// Identifier of the stored fact.
    pub id: TupleId,
    /// Relation the fact belongs to.
    pub rel: RelId,
    /// Attribute values in signature order.
    pub values: &'a [Value],
}

impl FactRef<'_> {
    /// Value of attribute `a` (panics if out of range — attribute ids come
    /// from the same schema, so this indicates a logic error).
    pub fn value(&self, a: AttrId) -> &Value {
        &self.values[a.idx()]
    }

    /// Owned copy of this fact.
    pub fn to_fact(&self) -> Fact {
        Fact {
            rel: self.rel,
            values: self.values.to_vec().into_boxed_slice(),
        }
    }
}

/// Equality postings of one code column: `code → ids of the tuples whose
/// value at the column has that code`, each bucket in ascending id order.
///
/// Built by [`Database::postings`] on a column's first probe and then
/// maintained by every mutation of the database. Buckets are kept sorted
/// so a maintained map equals a fresh build from the code columns exactly
/// (and enumeration order depends on the data, not on its edit history);
/// codes no live tuple carries have no bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postings {
    buckets: HashMap<u32, SmallIdVec>,
}

impl Postings {
    /// Postings of a code column given its ids in scan order.
    fn build(ids: &[TupleId], codes: &[u32]) -> Self {
        // Pushing in ascending id order leaves every bucket sorted.
        let mut entries: Vec<(TupleId, u32)> =
            ids.iter().copied().zip(codes.iter().copied()).collect();
        entries.sort_unstable();
        let mut buckets: HashMap<u32, SmallIdVec> = HashMap::new();
        for (id, code) in entries {
            buckets.entry(code).or_default().push(id);
        }
        Postings { buckets }
    }

    /// Ids of the tuples carrying `code`, ascending (empty when none).
    pub fn get(&self, code: u32) -> &[TupleId] {
        self.buckets.get(&code).map_or(&[], SmallIdVec::as_slice)
    }

    fn insert(&mut self, code: u32, id: TupleId) {
        let bucket = self.buckets.entry(code).or_default();
        let at = bucket
            .as_slice()
            .binary_search(&id)
            .expect_err("a tuple sits in one bucket of a column once");
        bucket.insert(at, id);
    }

    fn remove(&mut self, code: u32, id: TupleId) {
        let bucket = self
            .buckets
            .get_mut(&code)
            .expect("postings bucket of a live tuple");
        let at = bucket
            .as_slice()
            .binary_search(&id)
            .expect("tuple listed under its code");
        bucket.remove(at);
        if bucket.is_empty() {
            self.buckets.remove(&code);
        }
    }
}

/// Dense storage for one relation: parallel id/row vectors plus the
/// dictionary-encoded columnar mirror (one `Vec<u32>` of codes per
/// attribute, aligned with `rows`) and each column's lazily built
/// [`Postings`].
#[derive(Clone, Debug)]
struct RelationStore {
    ids: Vec<TupleId>,
    rows: Vec<Box<[Value]>>,
    pos: HashMap<TupleId, u32>,
    cols: Vec<Vec<u32>>,
    /// One cell per column; a built cell is maintained by every mutation.
    postings: Vec<OnceLock<Postings>>,
}

impl RelationStore {
    fn new(arity: usize) -> Self {
        RelationStore {
            ids: Vec::new(),
            rows: Vec::new(),
            pos: HashMap::new(),
            cols: vec![Vec::new(); arity],
            postings: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    fn insert(&mut self, id: TupleId, row: Box<[Value]>, codes: impl Iterator<Item = u32>) {
        debug_assert!(!self.pos.contains_key(&id));
        self.pos.insert(id, self.ids.len() as u32);
        self.ids.push(id);
        self.rows.push(row);
        for ((col, postings), code) in self.cols.iter_mut().zip(&mut self.postings).zip(codes) {
            col.push(code);
            if let Some(p) = postings.get_mut() {
                p.insert(code, id);
            }
        }
    }

    fn remove(&mut self, id: TupleId) -> Option<Box<[Value]>> {
        let at = self.pos.remove(&id)? as usize;
        let row = self.rows.swap_remove(at);
        self.ids.swap_remove(at);
        for (col, postings) in self.cols.iter_mut().zip(&mut self.postings) {
            let code = col.swap_remove(at);
            if let Some(p) = postings.get_mut() {
                p.remove(code, id);
            }
        }
        if at < self.ids.len() {
            self.pos.insert(self.ids[at], at as u32);
        }
        Some(row)
    }

    fn row(&self, id: TupleId) -> Option<&[Value]> {
        self.pos.get(&id).map(|&i| &*self.rows[i as usize])
    }

    fn row_mut(&mut self, id: TupleId) -> Option<&mut Box<[Value]>> {
        let i = *self.pos.get(&id)?;
        Some(&mut self.rows[i as usize])
    }

    fn set_code(&mut self, id: TupleId, attr: usize, code: u32) {
        let i = *self.pos.get(&id).expect("caller checked presence") as usize;
        let old = std::mem::replace(&mut self.cols[attr][i], code);
        if old != code {
            if let Some(p) = self.postings[attr].get_mut() {
                p.remove(old, id);
                p.insert(code, id);
            }
        }
    }

    fn postings(&self, attr: usize) -> &Postings {
        self.postings[attr].get_or_init(|| {
            inconsist_obs::counter!("engine_postings_entries_built_total")
                .add(self.ids.len() as u64);
            Postings::build(&self.ids, &self.cols[attr])
        })
    }
}

/// A database over a fixed [`Schema`].
#[derive(Clone, Debug)]
pub struct Database {
    schema: Arc<Schema>,
    stores: Vec<RelationStore>,
    /// Per-`(relation, attribute)` value dictionaries backing the columnar
    /// code mirrors in the stores.
    dicts: Vec<Vec<Dictionary>>,
    locate: HashMap<TupleId, RelId>,
    /// Identifiers `< next_id` that are currently unused.
    free: BTreeSet<u32>,
    next_id: u32,
    /// Whether some relation designates a cost attribute; when none does,
    /// every deletion costs `1.0` and [`Database::cost_of`] looks nothing up.
    costed: bool,
}

impl Database {
    /// An empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let stores = schema
            .iter()
            .map(|(_, rs)| RelationStore::new(rs.arity()))
            .collect();
        let dicts = schema
            .iter()
            .map(|(_, rs)| (0..rs.arity()).map(|_| Dictionary::new()).collect())
            .collect();
        let costed = schema.iter().any(|(_, rs)| rs.cost_attr.is_some());
        Database {
            schema,
            stores,
            dicts,
            locate: HashMap::new(),
            free: BTreeSet::new(),
            next_id: 0,
            costed,
        }
    }

    /// The schema this database conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Schema of one relation.
    pub fn relation_schema(&self, rel: RelId) -> &Arc<RelationSchema> {
        self.schema.relation(rel)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.locate.len()
    }

    /// Whether the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.locate.is_empty()
    }

    /// Number of facts in one relation.
    pub fn relation_len(&self, rel: RelId) -> usize {
        self.stores[rel.0 as usize].ids.len()
    }

    fn type_check(&self, fact: &Fact) -> Result<(), RelationalError> {
        let rs = self.schema.relation(fact.rel);
        if fact.values.len() != rs.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: rs.name.clone(),
                expected: rs.arity(),
                got: fact.values.len(),
            });
        }
        for (i, v) in fact.values.iter().enumerate() {
            let attr = rs.attribute(AttrId(i as u16));
            if !attr.kind.admits(v.kind()) {
                return Err(RelationalError::TypeMismatch {
                    relation: rs.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.kind,
                    got: v.kind(),
                });
            }
        }
        Ok(())
    }

    /// Inserts `fact` under the minimal unused identifier (the paper's
    /// `⟨+f⟩` convention) and returns that identifier.
    pub fn insert(&mut self, fact: Fact) -> Result<TupleId, RelationalError> {
        let id = match self.free.iter().next().copied() {
            Some(lowest) => TupleId(lowest),
            None => TupleId(self.next_id),
        };
        self.insert_with_id(id, fact)?;
        Ok(id)
    }

    /// Inserts `fact` under a caller-chosen identifier (useful for loading
    /// fixtures with the paper's numbering). Fails if the id is taken.
    pub fn insert_with_id(&mut self, id: TupleId, fact: Fact) -> Result<(), RelationalError> {
        self.type_check(&fact)?;
        if self.locate.contains_key(&id) {
            return Err(RelationalError::IdInUse { id });
        }
        if id.0 >= self.next_id {
            for missing in self.next_id..id.0 {
                self.free.insert(missing);
            }
            self.next_id = id.0 + 1;
        } else {
            self.free.remove(&id.0);
        }
        self.locate.insert(id, fact.rel);
        let dicts = &mut self.dicts[fact.rel.0 as usize];
        let codes: Vec<u32> = fact
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| dicts[i].intern(v))
            .collect();
        self.stores[fact.rel.0 as usize].insert(id, fact.values, codes.into_iter());
        Ok(())
    }

    /// Deletes the fact with identifier `id`; returns it if present.
    ///
    /// The paper's `⟨−i⟩` operation: inapplicable ids leave the database
    /// intact (we surface that as `None`).
    pub fn delete(&mut self, id: TupleId) -> Option<Fact> {
        let rel = self.locate.remove(&id)?;
        let row = self.stores[rel.0 as usize]
            .remove(id)
            .expect("locate and store agree");
        self.free.insert(id.0);
        Some(Fact { rel, values: row })
    }

    /// The paper's attribute-update operation `⟨i.A ← c⟩`. Returns the
    /// previous value, or `None` when inapplicable (unknown id).
    pub fn update(
        &mut self,
        id: TupleId,
        attr: AttrId,
        value: Value,
    ) -> Result<Option<Value>, RelationalError> {
        let Some(&rel) = self.locate.get(&id) else {
            return Ok(None);
        };
        let rs = self.schema.relation(rel);
        if attr.idx() >= rs.arity() {
            return Err(RelationalError::UnknownAttribute {
                relation: rs.name.clone(),
                attribute: format!("#{}", attr.0),
            });
        }
        let decl = rs.attribute(attr);
        if !decl.kind.admits(value.kind()) {
            return Err(RelationalError::TypeMismatch {
                relation: rs.name.clone(),
                attribute: decl.name.clone(),
                expected: decl.kind,
                got: value.kind(),
            });
        }
        let code = self.dicts[rel.0 as usize][attr.idx()].intern(&value);
        let store = &mut self.stores[rel.0 as usize];
        let row = store.row_mut(id).expect("locate and store agree");
        let old = std::mem::replace(&mut row[attr.idx()], value);
        store.set_code(id, attr.idx(), code);
        Ok(Some(old))
    }

    /// The fact stored under `id`, if any.
    pub fn fact(&self, id: TupleId) -> Option<FactRef<'_>> {
        let &rel = self.locate.get(&id)?;
        let values = self.stores[rel.0 as usize].row(id)?;
        Some(FactRef { id, rel, values })
    }

    /// Whether `id ∈ ids(D)`.
    pub fn contains(&self, id: TupleId) -> bool {
        self.locate.contains_key(&id)
    }

    /// All identifiers, in no particular order.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.locate.keys().copied()
    }

    // -- dictionary-encoded columnar view ----------------------------------

    /// The dictionary-encoded code column of `(rel, attr)`, aligned with
    /// [`Database::scan`] order. Codes compare equal iff the underlying
    /// values are equal; order comparisons go through
    /// [`Dictionary::ranks`].
    pub fn codes(&self, rel: RelId, attr: AttrId) -> &[u32] {
        &self.stores[rel.0 as usize].cols[attr.idx()]
    }

    /// Tuple identifiers of one relation in [`Database::scan`] order
    /// (parallel to [`Database::codes`]).
    pub fn ids_of(&self, rel: RelId) -> &[TupleId] {
        &self.stores[rel.0 as usize].ids
    }

    /// The equality postings `code → tuple ids` of `(rel, attr)`: the
    /// index the violation engine probes a join partner's bucket in.
    ///
    /// Built on the column's first call — through `&self`, so concurrent
    /// readers may race to it and exactly one builds (each entry built is
    /// counted in the `engine_postings_entries_built_total` metric) — and
    /// maintained by every later insert, delete and update, so later calls
    /// cost nothing. Columns never probed are never indexed.
    pub fn postings(&self, rel: RelId, attr: AttrId) -> &Postings {
        self.stores[rel.0 as usize].postings(attr.idx())
    }

    /// Whether every postings map built so far equals a fresh build from
    /// the code columns (the invariant the mutation hooks maintain). A
    /// check for tests and self-checks; costs a rebuild of each map.
    pub fn postings_consistent(&self) -> bool {
        self.stores.iter().all(|store| {
            store.postings.iter().zip(&store.cols).all(|(cell, col)| {
                cell.get()
                    .is_none_or(|p| *p == Postings::build(&store.ids, col))
            })
        })
    }

    /// The value dictionary of `(rel, attr)`.
    pub fn dictionary(&self, rel: RelId, attr: AttrId) -> &Dictionary {
        &self.dicts[rel.0 as usize][attr.idx()]
    }

    /// Code of tuple `id`'s value at `attr`, if the tuple exists.
    pub fn code_at(&self, id: TupleId, attr: AttrId) -> Option<u32> {
        let &rel = self.locate.get(&id)?;
        let store = &self.stores[rel.0 as usize];
        let i = *store.pos.get(&id)? as usize;
        Some(store.cols[attr.idx()][i])
    }

    /// The fact at dense scan position `pos` of `rel` (the position scheme
    /// of [`Database::codes`] / [`Database::ids_of`]). Panics when `pos` is
    /// out of range — positions come from the same database, so a bad one
    /// indicates a logic error, exactly like a bad [`AttrId`] in
    /// [`FactRef::value`].
    pub fn fact_at(&self, rel: RelId, pos: usize) -> FactRef<'_> {
        let store = &self.stores[rel.0 as usize];
        FactRef {
            id: store.ids[pos],
            rel,
            values: &store.rows[pos],
        }
    }

    /// A borrowed [`ShardView`] over the rows of `rel` at the given dense
    /// scan positions. The view copies nothing: it indexes straight into
    /// the row store and the code columns, which is what makes data
    /// sharding in the violation engine cheap (the planner hands each
    /// shard a position list, not row copies).
    pub fn shard_view<'a>(&'a self, rel: RelId, positions: &'a [u32]) -> ShardView<'a> {
        ShardView {
            db: self,
            rel,
            positions,
        }
    }

    /// Iterates all facts of one relation (dense scan).
    pub fn scan(&self, rel: RelId) -> impl Iterator<Item = FactRef<'_>> {
        let store = &self.stores[rel.0 as usize];
        store
            .ids
            .iter()
            .zip(store.rows.iter())
            .map(move |(&id, row)| FactRef {
                id,
                rel,
                values: row,
            })
    }

    /// Iterates all facts of all relations.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        self.schema
            .iter()
            .map(|(rel, _)| rel)
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(move |rel| self.scan(rel))
    }

    /// Deletion cost of tuple `id`: the value of the relation's cost
    /// attribute when one is designated, else `1.0` (paper §2, system `R⊆`).
    pub fn cost_of(&self, id: TupleId) -> f64 {
        if !self.costed {
            return 1.0;
        }
        let Some(f) = self.fact(id) else { return 1.0 };
        let rs = self.schema.relation(f.rel);
        match rs.cost_attr {
            Some(a) => f.value(a).as_f64().unwrap_or(1.0),
            None => 1.0,
        }
    }

    /// `self ⊆ other` in the paper's sense: `ids(self) ⊆ ids(other)` and the
    /// facts agree on shared identifiers.
    pub fn is_subset_of(&self, other: &Database) -> bool {
        self.locate
            .iter()
            .all(|(&id, _)| match (self.fact(id), other.fact(id)) {
                (Some(a), Some(b)) => a.rel == b.rel && a.values == b.values,
                _ => false,
            })
    }

    /// The sub-database induced by retaining only `keep` (ids not present
    /// are ignored). Identifiers are preserved.
    pub fn retain_ids(&self, keep: &BTreeSet<TupleId>) -> Database {
        let mut out = Database::new(Arc::clone(&self.schema));
        let mut ids: Vec<TupleId> = self.ids().filter(|i| keep.contains(i)).collect();
        ids.sort();
        for id in ids {
            let f = self.fact(id).expect("id came from self");
            out.insert_with_id(id, f.to_fact()).expect("same schema");
        }
        out
    }

    /// Structural equality as mappings (same ids, same facts).
    pub fn same_as(&self, other: &Database) -> bool {
        self.len() == other.len() && self.is_subset_of(other)
    }
}

/// A borrowed view of a subset of one relation's rows, selected by dense
/// scan positions (the alignment scheme of [`Database::codes`] and
/// [`Database::ids_of`]).
///
/// Built by [`Database::shard_view`]. The view holds only the position
/// slice — no rows or codes are copied — so a partitioner can split a
/// relation into many shards for the price of one `Vec<u32>` per shard.
/// The violation engine enumerates each shard through
/// [`ShardView::facts`], and its hash joins read the code columns of the
/// underlying database directly via the positions.
#[derive(Clone, Copy, Debug)]
pub struct ShardView<'a> {
    db: &'a Database,
    rel: RelId,
    positions: &'a [u32],
}

impl<'a> ShardView<'a> {
    /// The relation this shard is cut from.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of rows in the shard.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the shard holds no rows (partitions may legitimately
    /// produce empty shards — e.g. a hash partition of skewed keys).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The dense scan positions backing the view.
    pub fn positions(&self) -> &'a [u32] {
        self.positions
    }

    /// Iterates `(scan position, fact)` pairs of the shard. Positions are
    /// yielded so callers can index the relation's code columns
    /// ([`Database::codes`]) without re-deriving them.
    pub fn facts(&self) -> impl Iterator<Item = (usize, FactRef<'a>)> + 'a {
        let view = *self;
        view.positions
            .iter()
            .map(move |&p| (p as usize, view.db.fact_at(view.rel, p as usize)))
    }

    /// Iterates the shard's dictionary codes for one attribute, in
    /// position order (the sharded counterpart of [`Database::codes`]).
    pub fn codes(&self, attr: AttrId) -> impl Iterator<Item = u32> + 'a {
        let col = self.db.codes(self.rel, attr);
        self.positions.iter().map(move |&p| col[p as usize])
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (rel, rs) in self.schema.iter() {
            writeln!(f, "-- {} ({} facts)", rs.name, self.relation_len(rel))?;
            let mut facts: Vec<FactRef<'_>> = self.scan(rel).collect();
            facts.sort_by_key(|fr| fr.id);
            for fr in facts {
                write!(f, "{}: {}(", fr.id, rs.name)?;
                for (i, v) in fr.values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                writeln!(f, ")")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::relation;
    use crate::value::ValueKind;

    fn db_r2() -> (Database, RelId) {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        (Database::new(Arc::new(s)), r)
    }

    fn fact2(rel: RelId, a: i64, b: i64) -> Fact {
        Fact::new(rel, [Value::int(a), Value::int(b)])
    }

    #[test]
    fn insert_assigns_minimal_free_id() {
        let (mut db, r) = db_r2();
        let t0 = db.insert(fact2(r, 1, 1)).unwrap();
        let t1 = db.insert(fact2(r, 2, 2)).unwrap();
        let t2 = db.insert(fact2(r, 3, 3)).unwrap();
        assert_eq!((t0, t1, t2), (TupleId(0), TupleId(1), TupleId(2)));
        db.delete(t1).unwrap();
        // Paper convention: the minimal integer not in ids(D).
        assert_eq!(db.insert(fact2(r, 4, 4)).unwrap(), TupleId(1));
        assert_eq!(db.insert(fact2(r, 5, 5)).unwrap(), TupleId(3));
    }

    #[test]
    fn delete_returns_fact_and_is_idempotent() {
        let (mut db, r) = db_r2();
        let t = db.insert(fact2(r, 7, 8)).unwrap();
        let f = db.delete(t).unwrap();
        assert_eq!(f.values[0], Value::int(7));
        assert!(db.delete(t).is_none());
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn update_replaces_and_reports_old_value() {
        let (mut db, r) = db_r2();
        let t = db.insert(fact2(r, 7, 8)).unwrap();
        let old = db.update(t, AttrId(1), Value::int(99)).unwrap();
        assert_eq!(old, Some(Value::int(8)));
        assert_eq!(db.fact(t).unwrap().value(AttrId(1)), &Value::int(99));
        // Unknown ids leave the database intact (paper: inapplicable ops).
        assert_eq!(
            db.update(TupleId(42), AttrId(0), Value::int(0)).unwrap(),
            None
        );
    }

    #[test]
    fn type_errors_are_rejected() {
        let (mut db, r) = db_r2();
        let bad = Fact::new(r, [Value::str("x"), Value::int(1)]);
        assert!(db.insert(bad).is_err());
        let short = Fact::new(r, [Value::int(1)]);
        assert!(db.insert(short).is_err());
        let t = db.insert(fact2(r, 1, 2)).unwrap();
        assert!(db.update(t, AttrId(0), Value::str("x")).is_err());
    }

    #[test]
    fn nulls_are_admitted_everywhere() {
        let (mut db, r) = db_r2();
        let t = db
            .insert(Fact::new(r, [Value::Null, Value::int(1)]))
            .unwrap();
        assert!(db.fact(t).unwrap().value(AttrId(0)).is_null());
    }

    #[test]
    fn subset_and_retain() {
        let (mut db, r) = db_r2();
        let a = db.insert(fact2(r, 1, 1)).unwrap();
        let b = db.insert(fact2(r, 2, 2)).unwrap();
        let keep: BTreeSet<_> = [a].into_iter().collect();
        let sub = db.retain_ids(&keep);
        assert_eq!(sub.len(), 1);
        assert!(sub.is_subset_of(&db));
        assert!(!db.is_subset_of(&sub));
        assert!(sub.contains(a) && !sub.contains(b));
        // Modifying the shared id breaks subset-ness.
        let mut db2 = db.clone();
        db2.update(a, AttrId(0), Value::int(100)).unwrap();
        assert!(!sub.is_subset_of(&db2));
    }

    #[test]
    fn insert_with_id_gap_bookkeeping() {
        let (mut db, r) = db_r2();
        db.insert_with_id(TupleId(5), fact2(r, 1, 1)).unwrap();
        // Ids 0..5 became free; fresh insert takes the minimum.
        assert_eq!(db.insert(fact2(r, 2, 2)).unwrap(), TupleId(0));
        assert!(db.insert_with_id(TupleId(5), fact2(r, 3, 3)).is_err());
    }

    #[test]
    fn cost_defaults_to_unit_and_reads_cost_attr() {
        let mut s = Schema::new();
        let r = s
            .add_relation(
                relation("R", &[("A", ValueKind::Int), ("cost", ValueKind::Float)]).unwrap(),
            )
            .unwrap();
        s.set_cost_attr(r, "cost").unwrap();
        let mut db = Database::new(Arc::new(s));
        let t = db
            .insert(Fact::new(r, [Value::int(1), Value::float(3.5)]))
            .unwrap();
        assert_eq!(db.cost_of(t), 3.5);
        assert_eq!(db.cost_of(TupleId(99)), 1.0);

        let (db2, r2) = db_r2();
        let mut db2 = db2;
        let t2 = db2.insert(fact2(r2, 1, 2)).unwrap();
        assert_eq!(db2.cost_of(t2), 1.0);
    }

    #[test]
    fn scan_iterates_relation_facts() {
        let (mut db, r) = db_r2();
        for i in 0..10 {
            db.insert(fact2(r, i, i)).unwrap();
        }
        assert_eq!(db.scan(r).count(), 10);
        assert_eq!(db.iter().count(), 10);
        assert_eq!(db.relation_len(r), 10);
    }

    /// Asserts every code column mirrors the row store exactly.
    fn assert_columns_in_sync(db: &Database) {
        for (rel, rs) in db.schema().iter() {
            let ids = db.ids_of(rel);
            assert_eq!(ids.len(), db.relation_len(rel));
            for a in 0..rs.arity() {
                let attr = AttrId(a as u16);
                let codes = db.codes(rel, attr);
                assert_eq!(codes.len(), ids.len());
                let dict = db.dictionary(rel, attr);
                for (i, f) in db.scan(rel).enumerate() {
                    assert_eq!(ids[i], f.id);
                    assert_eq!(
                        dict.value(codes[i]),
                        f.value(attr),
                        "code column out of sync"
                    );
                    assert_eq!(db.code_at(f.id, attr), Some(codes[i]));
                }
            }
        }
    }

    #[test]
    fn code_columns_track_insert_delete_update() {
        let (mut db, r) = db_r2();
        let t0 = db.insert(fact2(r, 1, 10)).unwrap();
        let t1 = db.insert(fact2(r, 2, 10)).unwrap();
        let t2 = db.insert(fact2(r, 1, 30)).unwrap();
        assert_columns_in_sync(&db);
        // Equal values share a code; distinct values differ.
        let a = AttrId(0);
        assert_eq!(db.code_at(t0, a), db.code_at(t2, a));
        assert_ne!(db.code_at(t0, a), db.code_at(t1, a));
        // Deletion (swap_remove) keeps the mirror aligned.
        db.delete(t1);
        assert_columns_in_sync(&db);
        // Update re-encodes exactly one cell.
        db.update(t2, AttrId(1), Value::int(99)).unwrap();
        assert_columns_in_sync(&db);
        assert_ne!(db.code_at(t0, AttrId(1)), db.code_at(t2, AttrId(1)));
        // Re-inserting a previously seen value reuses its code.
        let t3 = db.insert(fact2(r, 5, 10)).unwrap();
        assert_eq!(db.code_at(t3, AttrId(1)), db.code_at(t0, AttrId(1)));
        assert_columns_in_sync(&db);
    }

    /// splitmix64: the seeded op stream of the postings test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Asserts each built postings map equals a rebuild (so it holds no
    /// stray bucket) and lists exactly the live tuples of each code,
    /// ascending — the latter derived from a scan, independently of the
    /// build.
    fn assert_postings_exact(db: &Database, rel: RelId, built: &[AttrId]) {
        assert!(db.postings_consistent(), "maintained != rebuilt");
        for &attr in built {
            let mut expected: HashMap<u32, Vec<TupleId>> = HashMap::new();
            for f in db.scan(rel) {
                let code = db.code_at(f.id, attr).unwrap();
                expected.entry(code).or_default().push(f.id);
            }
            let postings = db.postings(rel, attr);
            for (code, mut ids) in expected {
                ids.sort();
                assert_eq!(postings.get(code), ids.as_slice());
            }
        }
    }

    #[test]
    fn postings_track_random_ops_and_clones() {
        let (mut db, r) = db_r2();
        let (a, b) = (AttrId(0), AttrId(1));
        let mut rng = 0x0005_eed5_u64;
        for _ in 0..60 {
            let (x, y) = (next(&mut rng) % 6, next(&mut rng) % 9);
            db.insert(fact2(r, x as i64, y as i64)).unwrap();
        }
        // Column A is probed before op 0, column B midway; B stays unbuilt
        // (and unmaintained) until then.
        assert_eq!(db.postings(r, a).get(u32::MAX), &[] as &[TupleId]);
        let mut built = vec![a];
        for step in 0..2000 {
            if step == 1000 {
                let _ = db.postings(r, b);
                built.push(b);
            }
            let live = db.ids_of(r).to_vec();
            let pick = live
                .get(next(&mut rng) as usize % live.len().max(1))
                .copied();
            let v = Value::int((next(&mut rng) % 8) as i64);
            match (next(&mut rng) % 3, pick) {
                (0, _) | (_, None) => {
                    let w = Value::int((next(&mut rng) % 8) as i64);
                    db.insert(Fact::new(r, [v, w])).unwrap();
                }
                (1, Some(t)) => {
                    db.delete(t).unwrap();
                }
                (_, Some(t)) => {
                    let attr = if next(&mut rng).is_multiple_of(2) {
                        a
                    } else {
                        b
                    };
                    db.update(t, attr, v).unwrap();
                }
            }
            assert_postings_exact(&db, r, &built);
        }
        // A clone carries the built maps along, and the two copies are
        // maintained independently from then on.
        let mut copy = db.clone();
        assert_postings_exact(&copy, r, &built);
        let t = copy.ids_of(r)[0];
        copy.update(t, a, Value::int(100)).unwrap();
        assert_postings_exact(&copy, r, &built);
        assert_postings_exact(&db, r, &built);
        assert_ne!(db.postings(r, a), copy.postings(r, a));
    }

    #[test]
    fn postings_consistency_check_sees_a_corrupt_map() {
        let (mut db, r) = db_r2();
        for i in 0..10 {
            db.insert(fact2(r, i % 3, i)).unwrap();
        }
        let _ = db.postings(r, AttrId(0));
        assert!(db.postings_consistent());
        let cell = &mut db.stores[r.0 as usize].postings[0];
        cell.get_mut().unwrap().buckets.clear();
        assert!(!db.postings_consistent());
    }

    #[test]
    fn code_ranks_order_mixed_columns() {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Str)]).unwrap())
            .unwrap();
        let mut db = Database::new(Arc::new(s));
        for name in ["delta", "alpha", "charlie", "bravo"] {
            db.insert(Fact::new(r, [Value::str(name)])).unwrap();
        }
        let dict = db.dictionary(r, AttrId(0));
        let ranks = dict.ranks();
        let codes = db.codes(r, AttrId(0));
        // scan order: delta, alpha, charlie, bravo → ranks 3, 0, 2, 1.
        let got: Vec<u32> = codes.iter().map(|&c| ranks[c as usize]).collect();
        assert_eq!(got, vec![3, 0, 2, 1]);
    }

    #[test]
    fn shard_views_index_without_copying() {
        let (mut db, r) = db_r2();
        for i in 0..6 {
            db.insert(fact2(r, i % 2, 10 + i)).unwrap();
        }
        // Odd positions only.
        let positions: Vec<u32> = (0..6).filter(|p| p % 2 == 1).collect();
        let shard = db.shard_view(r, &positions);
        assert_eq!(shard.rel(), r);
        assert_eq!(shard.len(), 3);
        assert!(!shard.is_empty());
        assert_eq!(shard.positions(), &positions[..]);
        let all_ids = db.ids_of(r);
        let all_codes = db.codes(r, AttrId(0));
        for ((pos, f), code) in shard.facts().zip(shard.codes(AttrId(0))) {
            assert_eq!(f.id, all_ids[pos]);
            assert_eq!(db.fact_at(r, pos).id, f.id);
            assert_eq!(code, all_codes[pos]);
            assert_eq!(f.values, db.fact(f.id).unwrap().values);
        }
        let empty = db.shard_view(r, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.facts().count(), 0);
    }

    #[test]
    fn same_as_detects_equality_as_mappings() {
        let (mut a, r) = db_r2();
        let (mut b, _) = db_r2();
        a.insert(fact2(r, 1, 2)).unwrap();
        b.insert(fact2(r, 1, 2)).unwrap();
        assert!(a.same_as(&b));
        b.update(TupleId(0), AttrId(1), Value::int(3)).unwrap();
        assert!(!a.same_as(&b));
    }
}
