//! The violation engine's work counters, read from the process-global
//! metric registry: `engine_postings_entries_built_total` (entries hashed
//! by lazy postings builds) and `engine_pinned_candidates_total`
//! (candidates visited by pinned delta probes).
//!
//! One `#[test]` in its own test binary: the registry is shared by every
//! test of a process, so a concurrent test would skew the deltas.

use inconsist::constraints::dc::build;
use inconsist::constraints::{engine, Atom, CmpOp, ConstraintSet, DenialConstraint, Predicate};
use inconsist::relational::{
    relation, AttrId, Database, Fact, RelId, Schema, TupleId, Value, ValueKind,
};
use inconsist::IncrementalIndex;
use std::sync::Arc;

const K: AttrId = AttrId(0);
const L: AttrId = AttrId(1);
const P: AttrId = AttrId(2);

/// `(entries built, pinned candidates)` so far.
fn counters() -> (u64, u64) {
    let reg = inconsist_obs::global();
    (
        reg.counter("engine_postings_entries_built_total").get(),
        reg.counter("engine_pinned_candidates_total").get(),
    )
}

/// Size of the `attr` postings bucket holding tuple `t`.
fn bucket_len(db: &Database, rel: RelId, attr: AttrId, t: TupleId) -> u64 {
    let code = db.code_at(t, attr).expect("live tuple");
    db.postings(rel, attr).get(code).len() as u64
}

fn row(rel: RelId, vals: [i64; 3]) -> Fact {
    Fact::new(rel, vals.map(Value::int))
}

#[test]
fn writes_cost_the_buckets_they_probe_not_the_relation() {
    let mut s = Schema::new();
    let cols = [
        ("K", ValueKind::Int),
        ("L", ValueKind::Int),
        ("P", ValueKind::Int),
    ];
    let r = s.add_relation(relation("R", &cols).unwrap()).unwrap();
    let parent = s.add_relation(relation("parent", &cols).unwrap()).unwrap();
    let s = Arc::new(s);

    // -- FD writes through the incremental index ------------------------
    // 20k tuples, 4 per key K; the FD (K, L) → P as a symmetric binary DC.
    let mut db = Database::new(Arc::clone(&s));
    for i in 0..20_000 {
        db.insert(row(r, [i / 4, i % 4, 0])).unwrap();
    }
    let mut fd = ConstraintSet::new(Arc::clone(&s));
    let key_fd = vec![
        build::tt(K, CmpOp::Eq, K),
        build::tt(L, CmpOp::Eq, L),
        build::tt(P, CmpOp::Neq, P),
    ];
    fd.add_dc(build::binary("fd", r, key_fd, &s).unwrap());
    let mut idx = IncrementalIndex::build(db, fd).unwrap();
    let before_first = counters();
    idx.update(TupleId(0), P, Value::int(1)).unwrap();
    let after_first = counters();
    assert_eq!(
        after_first.0 - before_first.0,
        20_000,
        "the first write builds the probed column's postings once"
    );
    let mut expected = 0;
    for i in 1..=200u32 {
        let t = TupleId(i * 97);
        // Every 4th write moves the tuple to another key's bucket.
        let (attr, value) = if i % 4 == 0 {
            (K, Value::int(i64::from(i) % 50))
        } else {
            (P, Value::int(i64::from(i)))
        };
        idx.update(t, attr, value).unwrap();
        expected += bucket_len(idx.db(), r, K, t);
    }
    let after = counters();
    assert_eq!(after.0, after_first.0, "no postings entry is rebuilt");
    assert_eq!(
        after.1 - after_first.1,
        expected,
        "candidates visited = the probed bucket sizes"
    );
    assert!(idx.self_check());

    // -- pinned probes at atom 1 ----------------------------------------
    // An asymmetric eq-keyed self-join probes both atoms of the pinned
    // tuple, and the cross-relation FK denial pins its parent at atom 1:
    // each probe must visit its key's bucket only, never the 20k rows.
    let mut db = idx.db().clone();
    for k in 0..100 {
        db.insert(row(parent, [k, 0, 5])).unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    let asym = vec![build::tt(K, CmpOp::Eq, K), build::tt(P, CmpOp::Lt, P)];
    cs.add_dc(build::binary("asym", r, asym, &s).unwrap());
    let fk = vec![
        Predicate::attr_attr(0, K, CmpOp::Eq, 1, K),
        Predicate::attr_attr(0, P, CmpOp::Lt, 1, P),
    ];
    let fk_atoms = vec![Atom { rel: r }, Atom { rel: parent }];
    cs.add_dc(DenialConstraint::new("fk", fk_atoms, fk, &s).unwrap());
    assert!(!cs.dcs()[0].is_symmetric());
    let probes: Vec<TupleId> = db.ids_of(parent).iter().step_by(9).copied().collect();
    let children: Vec<TupleId> = (0..30).map(|i| TupleId(i * 311)).collect();
    // Build every column the probes read before counting.
    for &t in probes.iter().chain(&children) {
        engine::delta_violations_involving(&db, &cs, t);
    }
    let start = counters();
    let mut expected = 0;
    for &t in &probes {
        let delta = engine::delta_violations_involving(&db, &cs, t);
        // Children ship (P < 5) before their parent: each is a violation.
        assert!(!delta.per_dc.is_empty());
        let code = db.dictionary(r, K).code(db.fact(t).unwrap().value(K));
        expected += code.map_or(0, |c| db.postings(r, K).get(c).len() as u64);
    }
    for &t in &children {
        engine::delta_violations_involving(&db, &cs, t);
        // Atom 0 and atom 1 of the asymmetric DC each read t's K bucket in
        // R; the FK atom 0 reads t's key bucket in the parent relation.
        expected += 2 * bucket_len(&db, r, K, t);
        let code = db.dictionary(parent, K).code(db.fact(t).unwrap().value(K));
        expected += code.map_or(0, |c| db.postings(parent, K).get(c).len() as u64);
    }
    let end = counters();
    assert_eq!(end.0, start.0, "postings were built before counting");
    assert_eq!(end.1 - start.1, expected);
}
