//! The per-constraint work counter of the `I_MI^dc` read, read from the
//! process-global metric registry: `incremental_dc_bindings_refiltered_total`
//! counts the `(set, constraint)` labels that component fills re-count; a
//! write that patches its component's cache leaves none to re-count.
//!
//! One `#[test]` in its own test binary: the registry is shared by every
//! test of a process, so a concurrent test would skew the deltas.

use inconsist::constraints::{ConstraintSet, Fd};
use inconsist::relational::{relation, AttrId, Database, Fact, Schema, Value, ValueKind};
use inconsist::IncrementalIndex;
use std::sync::Arc;

fn refiltered() -> u64 {
    inconsist_obs::global()
        .counter("incremental_dc_bindings_refiltered_total")
        .get()
}

/// The labels re-counted by the `I_MI^dc` read after one update that
/// touches only `A → B`. The index holds `blocks` three-tuple `A → B`
/// conflicts (three bindings each) and one four-tuple `B → C` conflict
/// (six bindings) that the update leaves alone.
fn refiltered_by_one_write(blocks: i64) -> u64 {
    let mut s = Schema::new();
    let cols = [
        ("A", ValueKind::Int),
        ("B", ValueKind::Int),
        ("C", ValueKind::Int),
    ];
    let r = s.add_relation(relation("R", &cols).unwrap()).unwrap();
    let s = Arc::new(s);
    let mut db = Database::new(Arc::clone(&s));
    let fact = |a: i64, b: i64, c: i64| Fact::new(r, [Value::int(a), Value::int(b), Value::int(c)]);
    let mut first = None;
    for k in 0..blocks {
        for b in 0..3 {
            let t = db.insert(fact(k, 3 * k + b, 0)).unwrap();
            first.get_or_insert(t);
        }
    }
    for c in 0..4 {
        db.insert(fact(-1 - c, -1, c)).unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
    let mut idx = IncrementalIndex::build(db, cs).unwrap();
    assert_eq!(idx.i_mi_by_dc(), vec![3 * blocks as usize, 6]);
    let before = refiltered();
    // Still conflicting with both block mates under `A → B`, and with a
    // fresh `B` that no `B → C` binding shares.
    idx.update(first.unwrap(), AttrId(1), Value::int(-2))
        .unwrap();
    assert_eq!(idx.i_mi_by_dc(), vec![3 * blocks as usize, 6]);
    let work = refiltered() - before;
    // A second read re-counts nothing.
    idx.i_mi_by_dc();
    assert_eq!(refiltered() - before, work);
    work
}

#[test]
fn a_write_recounts_only_the_bindings_of_its_component() {
    // The write patches its block's cache, labels included, so the read
    // re-counts no binding at all, whatever the number of bindings the
    // touched constraint holds.
    assert_eq!(refiltered_by_one_write(100), 0);
    assert_eq!(refiltered_by_one_write(200), 0);
}
