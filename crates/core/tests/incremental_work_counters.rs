//! The incremental read path's work counters, read from the process-global
//! metric registry: `incremental_components_visited_total` (per-component
//! filter, cover and LP steps) and `incremental_tuples_rescored_total`
//! (tuple scores recomputed by a write's cache patch or at cache fill),
//! beside the index's own
//! [`ReadStats`](inconsist::incremental::ReadStats) filter and solve
//! counts. Each is pinned exactly per write, so a write or a warm read
//! that does one unit more work than it needs fails here.
//!
//! One `#[test]` in its own test binary: the registry is shared by every
//! test of a process, so a concurrent test would skew the deltas.

use inconsist::constraints::{ConstraintSet, Fd};
use inconsist::incremental::ReadStats;
use inconsist::measures::MeasureOptions;
use inconsist::relational::{relation, AttrId, Database, Fact, Schema, TupleId, Value, ValueKind};
use inconsist::IncrementalIndex;
use std::sync::Arc;

/// `(components visited, tuples re-scored)` so far.
fn counters() -> (u64, u64) {
    let reg = inconsist_obs::global();
    (
        reg.counter("incremental_components_visited_total").get(),
        reg.counter("incremental_tuples_rescored_total").get(),
    )
}

/// `blocks` conflict components under `A → B`: block `k` holds three
/// tuples agreeing on `A = k` with pairwise distinct `B`. Returns the
/// warm index and the first tuple of block 0.
fn warm_index(blocks: i64) -> (IncrementalIndex, TupleId) {
    let mut s = Schema::new();
    let cols = [("A", ValueKind::Int), ("B", ValueKind::Int)];
    let r = s.add_relation(relation("R", &cols).unwrap()).unwrap();
    let s = Arc::new(s);
    let mut db = Database::new(Arc::clone(&s));
    let mut first = None;
    for k in 0..blocks {
        for b in 0..3 {
            let t = db.insert(Fact::new(r, [Value::int(k), Value::int(3 * k + b)]));
            first.get_or_insert(t.unwrap());
        }
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    let mut idx = IncrementalIndex::build(db, cs).unwrap();
    idx.warm(&MeasureOptions::default()).unwrap();
    idx.top_k_tuples(10);
    (idx, first.unwrap())
}

/// The work counted by one update inside block 0 followed by a read of
/// `I_MI`, `I_P`, `I_R`, `I_R^lin` and the top 10, plus the dirty count
/// it left and the index's filter and solve counts for it.
fn work_of_one_write(blocks: i64) -> ((u64, u64), usize, ReadStats) {
    let (mut idx, t) = warm_index(blocks);
    assert_eq!(idx.component_count(), blocks as usize);
    let opts = MeasureOptions::default();
    idx.reset_stats();
    let before = counters();
    // Still conflicting with both block mates: the component stays whole
    // and goes dirty with its cache patched.
    idx.update(t, AttrId(1), Value::int(-1)).unwrap();
    let dirty = idx.dirty_component_count();
    assert_eq!(idx.i_mi(), 3.0 * blocks as f64);
    assert_eq!(idx.i_p(), 3.0 * blocks as f64);
    assert_eq!(idx.i_r(&opts).unwrap(), 2.0 * blocks as f64);
    assert_eq!(idx.i_r_lin().unwrap(), 1.5 * blocks as f64);
    let top = idx.top_k_tuples(10);
    let after = counters();
    let stats = idx.stats();
    // A second read of the same measures is answered from the caches.
    assert_eq!(idx.i_r(&opts).unwrap(), 2.0 * blocks as f64);
    assert_eq!(idx.i_r_lin().unwrap(), 1.5 * blocks as f64);
    assert_eq!(idx.try_top_k_tuples(10).as_ref(), Some(&top));
    assert_eq!(counters(), after, "a warm read does no component work");
    // The maintained ranking equals a re-rank of fresh batch scores.
    let mut fresh = IncrementalIndex::build(idx.db().clone(), idx.constraints().clone()).unwrap();
    assert_eq!(top, fresh.top_k_tuples(10));
    assert!(idx.self_check());
    ((after.0 - before.0, after.1 - before.1), dirty, stats)
}

#[test]
fn a_write_costs_its_dirty_components_not_the_component_count() {
    let (small, dirty_small, stats_small) = work_of_one_write(1000);
    let (large, dirty_large, stats_large) = work_of_one_write(2000);
    assert_eq!((dirty_small, dirty_large), (1, 1));
    // The write patches the one dirty component: its detach and its
    // attach each re-score the updated tuple and its two block mates.
    // The read then visits it for one cover solve and one LP solve, and
    // filters nothing.
    assert_eq!(small, (2, 6), "visited, re-scored at 1000 components");
    assert_eq!(large, small, "the work does not grow with the components");
    // No filter, one cover solve and one LP solve per write. Each of the
    // five reads (`I_MI`, `I_P`, `I_R`, `I_R^lin`, top-10) counts every
    // component as a filter cache hit, the patched one included; two
    // solve.
    for (blocks, stats) in [(1000, stats_small), (2000, stats_large)] {
        let want = ReadStats {
            filter_runs: 0,
            filter_cache_hits: 5 * blocks,
            cover_solves: 1,
            cover_cache_hits: blocks - 1,
            lin_solves: 1,
            lin_cache_hits: blocks - 1,
        };
        assert_eq!(
            stats, want,
            "filter and solve counts at {blocks} components"
        );
    }
}
