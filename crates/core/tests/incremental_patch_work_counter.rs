//! A write inside a component whose edges are all pairs patches that
//! component's cache instead of dropping it: the work it costs depends on
//! the touched tuple's neighbourhood, not on the component's size. Read
//! from the process-global metric registry
//! (`incremental_tuples_rescored_total`,
//! `incremental_components_visited_total`,
//! `incremental_components_patched_total`,
//! `incremental_components_refilled_total`) beside the index's own
//! [`ReadStats`](inconsist::incremental::ReadStats).
//!
//! One `#[test]` in its own test binary: the registry is shared by every
//! test of a process, so a concurrent test would skew the deltas.

use inconsist::constraints::{ConstraintSet, Fd};
use inconsist::measures::MeasureOptions;
use inconsist::relational::{relation, AttrId, Database, Fact, Schema, TupleId, Value, ValueKind};
use inconsist::IncrementalIndex;
use std::sync::Arc;

/// `(tuples re-scored, components visited, patched, refilled)` so far.
fn counters() -> [u64; 4] {
    let reg = inconsist_obs::global();
    [
        "incremental_tuples_rescored_total",
        "incremental_components_visited_total",
        "incremental_components_patched_total",
        "incremental_components_refilled_total",
    ]
    .map(|name| reg.counter(name).get())
}

/// One conflict component of `n` tuples (`n` even) whose conflicts form a
/// cycle under `A → C` and `B → C`: tuples `2k` and `2k + 1` share `A`,
/// tuples `2k − 1` and `2k` share `B`, and tuple 0 shares `B` with tuple
/// `n − 1`. Every tuple has two neighbours, and removing one tuple leaves
/// the rest connected. Returns the warm index.
fn cycle(n: i64) -> IncrementalIndex {
    let mut s = Schema::new();
    let cols = [
        ("A", ValueKind::Int),
        ("B", ValueKind::Int),
        ("C", ValueKind::Int),
    ];
    let r = s.add_relation(relation("R", &cols).unwrap()).unwrap();
    let s = Arc::new(s);
    let mut db = Database::new(Arc::clone(&s));
    for i in 0..n {
        let b = if i == 0 { n / 2 } else { (i + 1) / 2 };
        let fact = Fact::new(r, [Value::int(i / 2), Value::int(b), Value::int(i)]);
        db.insert(fact).unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
    cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
    let mut idx = IncrementalIndex::build(db, cs).unwrap();
    idx.warm(&MeasureOptions::default()).unwrap();
    idx.top_k_tuples(10);
    assert_eq!(idx.component_count(), 1);
    idx
}

/// The counter deltas and filter/solve counts of one update of a middle
/// tuple's `C` to a value no other tuple holds (it still conflicts with
/// both neighbours) followed by reads of `I_MI`, `I_P`, `I_MI^dc`, `I_R`,
/// `I_R^lin` and the top 10.
fn one_update(n: i64) -> ([u64; 4], [u64; 3]) {
    let mut idx = cycle(n);
    let opts = MeasureOptions::default();
    idx.reset_stats();
    let before = counters();
    idx.update(TupleId(n as u32 / 2), AttrId(2), Value::int(-1))
        .unwrap();
    assert_eq!(idx.dirty_component_count(), 1, "the patched component");
    let n = n as f64;
    assert_eq!(idx.i_mi(), n);
    assert_eq!(idx.i_p(), n);
    assert_eq!(idx.i_mi_dc(), n);
    assert_eq!(idx.i_r(&opts).unwrap(), n / 2.0);
    assert_eq!(idx.i_r_lin().unwrap(), n / 2.0);
    let top = idx.top_k_tuples(10);
    let after = counters();
    let mut fresh = IncrementalIndex::build(idx.db().clone(), idx.constraints().clone()).unwrap();
    assert_eq!(top, fresh.top_k_tuples(10));
    assert!(idx.self_check());
    let stats = idx.stats();
    let work = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    (
        work,
        [stats.filter_runs, stats.cover_solves, stats.lin_solves],
    )
}

#[test]
fn a_pair_component_write_costs_its_neighbourhood_not_its_size() {
    let (small, small_reads) = one_update(20);
    let (large, large_reads) = one_update(200);
    // The detach re-scores the tuple and its two neighbours, and so does
    // the attach; two patches, no refill; the read visits the component
    // for one cover solve and one LP solve, and filters nothing.
    assert_eq!(small, [6, 2, 2, 0], "rescored, visited, patched, refilled");
    assert_eq!(large, small, "the work does not grow with the component");
    assert_eq!(small_reads, [0, 1, 1], "filter runs, cover and LP solves");
    assert_eq!(large_reads, small_reads);
}
