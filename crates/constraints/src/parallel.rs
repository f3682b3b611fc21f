//! Parallel violation detection: constraint-level work stealing plus
//! intra-constraint *data sharding*.
//!
//! The paper's measurements are dominated by the violation-detection
//! stage (§6.2.3); its SQL engine parallelizes that stage across
//! constraints and cores. This module is the workspace's equivalent, with
//! two nested units of parallelism:
//!
//! 1. **Constraints.** The constraints of `Σ` are distributed over a
//!    crossbeam thread scope with work stealing (an atomic cursor over the
//!    work-unit list), each worker running the same streaming enumerator
//!    as the sequential path. This matches
//!    workloads like the experiment datasets, which carry 3–13 DCs of
//!    wildly different join costs (Fig. 3): dynamic stealing beats static
//!    splitting.
//! 2. **Data shards.** A single dominant constraint — one huge quadratic
//!    self-join — used to degenerate to one core. The planner therefore
//!    splits such a constraint's *data* into `S` shards and enqueues
//!    `(constraint, shard)` units on the same queue, so workers steal
//!    shards exactly like they steal constraints.
//!
//! # Sharding design
//!
//! **When the planner shards.** Under [`ShardPolicy::Auto`] (the default
//! of [`minimal_inconsistent_subsets_par`]), a constraint is sharded into
//! `threads` shards only when constraint-level parallelism cannot occupy
//! the pool (`|Σ| < threads`) *and* the constraint's probe relation is
//! large enough to amortize partitioning (≥ `MIN_SHARD_ROWS` rows) *and*
//! the constraint joins at least two tuples. Everything else keeps one
//! unit per constraint — stealing whole constraints has zero partitioning
//! overhead and is already balanced when there are more constraints than
//! cores. [`ShardPolicy::Fixed`] overrides the heuristic: tests use it to
//! force tiny shards, and `Fixed(1)` disables sharding (one unit per
//! constraint, the historical constraint-only behavior).
//!
//! **How a constraint is partitioned.** The unit of partitioning is the
//! scan position of the constraint's *probe side* (atom 0's relation).
//! When the DC is a binary self-join with a shared-column equality key
//! ([`engine::copartition_attrs`] — the FD shape), tuples are
//! hash-partitioned on the dictionary *codes* of those key columns
//! (FNV-1a over the `u32` codes, the same integer keys the join itself
//! uses). Co-violating tuples satisfy the equality key, hence carry equal
//! codes, hence land in the same shard — so each shard can also restrict
//! its *build* table to its own tuples ([`engine::ShardScope::build`]),
//! and per-shard build tables cost `O(n/S)` each. Order-only predicates,
//! cross-column keys, multi-relation DCs and arity ≥ 3 fall back to
//! shard×broadcast: contiguous probe-position chunks against the full
//! build side, which is correct for *any* partition because every binding
//! is rooted at exactly one probe tuple.
//!
//! **Why the merge is exact.** Each probe tuple belongs to exactly one
//! shard, so the per-shard enumerations of a partition visit each raw
//! binding exactly as often as the unsharded enumerator (reflexive
//! bindings once, symmetric pairs once from their smaller-id probe tuple).
//! The merged set therefore equals — bit-identical, not approximate — the
//! sequential result after the usual dedup and minimality filter, and the
//! engine-equivalence property test pins exactly that.
//!
//! **How the limit is shared.** The raw-violation `limit` (the *global*
//! budget defined in the engine's module-level *Limits* section) is **not**
//! split statically across units: all workers draw from one atomic
//! counter, so `(constraint, shard)` units compete for the same pool the
//! sequential path spends front-to-back. Whenever enumeration completes,
//! results are bit-identical to
//! [`crate::engine::minimal_inconsistent_subsets`]; under an exhausted
//! budget the paths may truncate at different prefixes (both report
//! `complete = false`, and a shard interrupted mid-enumeration never
//! reports its partial set as complete).
//!
//! Workers run the code-keyed joins of [`crate::engine`], sharing the
//! database's column postings (the first worker to probe a column builds
//! its map; the others wait on it); the shared per-column rank tables are
//! warmed once up front so no worker contends on the rebuild lock.

use crate::dc::DenialConstraint;
use crate::engine::{self, MiResult, ShardScope, ViolationSet};
use crate::set::ConstraintSet;
use inconsist_relational::{Database, TupleId};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// Minimum probe-relation size for [`ShardPolicy::Auto`] to shard a
/// constraint: below this, partitioning overhead beats the win.
const MIN_SHARD_ROWS: usize = 4096;

/// How the parallel enumerator splits `(Σ, D)` into stealable work units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Shard the data of large constraints when constraint-level
    /// parallelism alone cannot occupy the thread pool (see the
    /// module-level *Sharding design*). The default.
    Auto,
    /// Shard every constraint into exactly this many data shards,
    /// regardless of size — test and tuning hook (forces empty and tiny
    /// shards on small inputs; `Fixed(1)` never shards, one unit per
    /// constraint).
    Fixed(usize),
}

/// A partition of one constraint's probe relation into data shards.
struct DcPartition {
    /// Probe-side scan positions per shard.
    shards: Vec<Vec<u32>>,
    /// Whether the build side may be restricted to the same shard
    /// (hash partition on shared-column equality-key codes).
    co_partitioned: bool,
}

/// The planner's output: per-constraint partitions plus the flattened
/// `(constraint, shard)` work queue.
struct ShardPlan {
    /// `None` = constraint runs unsharded (one unit, full enumeration).
    partitions: Vec<Option<DcPartition>>,
    /// `(dc index, shard index)` units; empty shards are never enqueued.
    units: Vec<(u32, u32)>,
}

fn shard_count(
    policy: ShardPolicy,
    db: &Database,
    cs: &ConstraintSet,
    dc: &DenialConstraint,
    threads: usize,
) -> usize {
    match policy {
        ShardPolicy::Fixed(s) => s.max(1),
        ShardPolicy::Auto => {
            if threads <= 1 || dc.arity() < 2 || cs.len() >= threads {
                return 1;
            }
            let rows = db.relation_len(dc.atoms[0].rel);
            if rows < MIN_SHARD_ROWS {
                1
            } else {
                threads
            }
        }
    }
}

/// Partitions `dc`'s probe relation into `s` shards: a hash partition on
/// the shared-column equality-key codes when the DC has one (co-partitioned
/// build side), contiguous scan-order chunks with a broadcast build side
/// otherwise.
fn partition_dc(db: &Database, dc: &DenialConstraint, s: usize) -> DcPartition {
    let rel = dc.atoms[0].rel;
    let n = db.relation_len(rel);
    let mut shards: Vec<Vec<u32>> = vec![Vec::new(); s];
    if let Some(attrs) = engine::copartition_attrs(dc) {
        let cols: Vec<&[u32]> = attrs.iter().map(|&a| db.codes(rel, a)).collect();
        for pos in 0..n {
            // FNV-1a over the key codes, finished with an avalanche step:
            // deterministic, and keyed on the same integer codes the hash
            // join probes with.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for col in &cols {
                h = (h ^ u64::from(col[pos])).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= h >> 33;
            shards[(h % s as u64) as usize].push(pos as u32);
        }
        DcPartition {
            shards,
            co_partitioned: true,
        }
    } else {
        for pos in 0..n {
            shards[pos * s / n].push(pos as u32);
        }
        DcPartition {
            shards,
            co_partitioned: false,
        }
    }
}

fn plan_shards(
    db: &Database,
    cs: &ConstraintSet,
    threads: usize,
    policy: ShardPolicy,
) -> ShardPlan {
    let mut partitions = Vec::with_capacity(cs.len());
    let mut units = Vec::new();
    for (i, dc) in cs.dcs().iter().enumerate() {
        let s = shard_count(policy, db, cs, dc, threads);
        if s <= 1 {
            partitions.push(None);
            units.push((i as u32, 0));
            continue;
        }
        let part = partition_dc(db, dc, s);
        for (j, shard) in part.shards.iter().enumerate() {
            if !shard.is_empty() {
                units.push((i as u32, j as u32));
            }
        }
        partitions.push(Some(part));
    }
    ShardPlan { partitions, units }
}

/// Parallel [`engine::minimal_inconsistent_subsets`] under
/// [`ShardPolicy::Auto`]: constraints are stolen across `threads` workers,
/// and a dominant constraint is data-sharded so it parallelizes too. See
/// [`minimal_inconsistent_subsets_par_with`] to pick the policy
/// explicitly. `threads ≤ 1` (or a plan with a single work unit) falls
/// back to the sequential engine.
///
/// ```
/// use inconsist_constraints::{minimal_inconsistent_subsets_par, ConstraintSet, Fd};
/// use inconsist_relational::{relation, AttrId, Database, Fact, Schema, Value, ValueKind};
/// use std::sync::Arc;
///
/// let mut s = Schema::new();
/// let r = s
///     .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
///     .unwrap();
/// let s = Arc::new(s);
/// let mut db = Database::new(Arc::clone(&s));
/// for (a, b) in [(1, 1), (1, 2), (2, 7)] {
///     db.insert(Fact::new(r, [Value::int(a), Value::int(b)])).unwrap();
/// }
/// let mut cs = ConstraintSet::new(Arc::clone(&s));
/// cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)])); // A → B
///
/// let mi = minimal_inconsistent_subsets_par(&db, &cs, None, 4);
/// assert!(mi.complete);
/// assert_eq!(mi.count(), 1); // the two A = 1 facts disagree on B
/// ```
pub fn minimal_inconsistent_subsets_par(
    db: &Database,
    cs: &ConstraintSet,
    limit: Option<usize>,
    threads: usize,
) -> MiResult {
    minimal_inconsistent_subsets_par_with(db, cs, limit, threads, ShardPolicy::Auto)
}

/// [`minimal_inconsistent_subsets_par`] with an explicit [`ShardPolicy`].
/// `limit` is the global raw-binding budget of the engine's *Limits*
/// section, drawn from one shared atomic pool by every `(constraint,
/// shard)` unit.
pub fn minimal_inconsistent_subsets_par_with(
    db: &Database,
    cs: &ConstraintSet,
    limit: Option<usize>,
    threads: usize,
    policy: ShardPolicy,
) -> MiResult {
    if threads <= 1 {
        return engine::minimal_inconsistent_subsets(db, cs, limit);
    }
    let plan = plan_shards(db, cs, threads, policy);
    if plan.units.len() <= 1 {
        return engine::minimal_inconsistent_subsets(db, cs, limit);
    }
    engine::warm_rank_tables(db, cs);
    let budget = AtomicIsize::new(
        limit
            .map(|l| isize::try_from(l).unwrap_or(isize::MAX))
            .unwrap_or(isize::MAX),
    );
    let truncated = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let merged: Mutex<HashSet<ViolationSet>> = Mutex::new(HashSet::new());

    let workers = threads.min(plan.units.len());
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                let mut local: HashSet<ViolationSet> = HashSet::new();
                loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= plan.units.len() || truncated.load(Ordering::Relaxed) {
                        break;
                    }
                    let (dc_idx, shard_idx) = plan.units[u];
                    let dc = &cs.dcs()[dc_idx as usize];
                    let mut record = |set: &[TupleId]| {
                        if budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                            truncated.store(true, Ordering::Relaxed);
                            return ControlFlow::Break(());
                        }
                        local.insert(set.to_vec().into_boxed_slice());
                        ControlFlow::Continue(())
                    };
                    match &plan.partitions[dc_idx as usize] {
                        None => engine::for_each_violation(db, dc, &mut record),
                        Some(part) => {
                            let probe = part.shards[shard_idx as usize].as_slice();
                            let scope = ShardScope {
                                probe,
                                build: part.co_partitioned.then_some(probe),
                            };
                            engine::for_each_violation_sharded(db, dc, scope, &mut record);
                        }
                    }
                }
                if !local.is_empty() {
                    merged.lock().extend(local);
                }
            });
        }
    })
    .expect("violation workers do not panic");

    let complete = !truncated.load(Ordering::Relaxed);
    MiResult {
        subsets: engine::filter_minimal(merged.into_inner()),
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::build;
    use crate::fd::Fd;
    use crate::predicate::CmpOp;
    use inconsist_relational::{relation, AttrId, Fact, RelId, Schema, Value, ValueKind};
    use rand::prelude::*;
    use std::sync::Arc;

    fn random_instance(seed: u64, n: usize) -> (ConstraintSet, Database) {
        let mut s = Schema::new();
        let r = s
            .add_relation(
                relation(
                    "R",
                    &[
                        ("A", ValueKind::Int),
                        ("B", ValueKind::Int),
                        ("C", ValueKind::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let s = Arc::new(s);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new(Arc::clone(&s));
        for _ in 0..n {
            db.insert(Fact::new(
                r,
                [
                    Value::int(rng.gen_range(0..6)),
                    Value::int(rng.gen_range(0..5)),
                    Value::int(rng.gen_range(0..4)),
                ],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        cs.add_dc(
            build::unary(
                "pos",
                r,
                vec![build::uc(AttrId(2), CmpOp::Gt, Value::int(2))],
                &s,
            )
            .unwrap(),
        );
        cs.add_dc(
            build::binary(
                "ord",
                r,
                vec![
                    build::tt(AttrId(0), CmpOp::Lt, AttrId(0)),
                    build::tt(AttrId(1), CmpOp::Gt, AttrId(1)),
                ],
                &s,
            )
            .unwrap(),
        );
        (cs, db)
    }

    fn sorted(mi: &MiResult) -> Vec<Vec<TupleId>> {
        let mut v: Vec<Vec<TupleId>> = mi.subsets.iter().map(|s| s.to_vec()).collect();
        v.sort();
        v
    }

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..6 {
            let (cs, db) = random_instance(seed, 40);
            let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
            for threads in [2, 4, 8] {
                let par = minimal_inconsistent_subsets_par(&db, &cs, None, threads);
                assert!(par.complete);
                assert_eq!(sorted(&par), sorted(&seq), "threads={threads} seed={seed}");
            }
        }
    }

    #[test]
    fn all_shard_policies_match_sequential() {
        for seed in 0..4 {
            let (cs, db) = random_instance(seed, 40);
            let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
            for policy in [
                ShardPolicy::Fixed(1),
                ShardPolicy::Auto,
                ShardPolicy::Fixed(2),
                ShardPolicy::Fixed(3),
                ShardPolicy::Fixed(7),
            ] {
                let par = minimal_inconsistent_subsets_par_with(&db, &cs, None, 4, policy);
                assert!(par.complete);
                assert_eq!(sorted(&par), sorted(&seq), "{policy:?} seed={seed}");
            }
        }
    }

    #[test]
    fn single_thread_falls_back() {
        let (cs, db) = random_instance(1, 20);
        let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
        let par = minimal_inconsistent_subsets_par(&db, &cs, None, 1);
        assert_eq!(sorted(&par), sorted(&seq));
    }

    #[test]
    fn truncation_is_flagged() {
        let (cs, db) = random_instance(2, 60);
        let par = minimal_inconsistent_subsets_par(&db, &cs, Some(3), 4);
        assert!(!par.complete);
    }

    #[test]
    fn empty_constraints_and_empty_db() {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let db = Database::new(Arc::clone(&s));
        let cs = ConstraintSet::new(Arc::clone(&s));
        let par = minimal_inconsistent_subsets_par(&db, &cs, None, 4);
        assert!(par.complete);
        assert!(par.subsets.is_empty());
        let _ = r;
        let _: RelId = RelId(0);
    }

    // -- shard-boundary edge cases ------------------------------------------

    /// One-relation FD fixture: n rows, key `i % keys`, dependent value
    /// `dep(i)`.
    fn fd_instance(
        n: usize,
        keys: i64,
        dep: impl Fn(usize) -> i64,
    ) -> (ConstraintSet, Database, RelId) {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("K", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..n {
            db.insert(Fact::new(
                r,
                [Value::int(i as i64 % keys), Value::int(dep(i))],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        (cs, db, r)
    }

    /// More shards than rows: most shards come out empty and are never
    /// enqueued, and the result still matches the sequential engine.
    #[test]
    fn empty_shards_are_harmless() {
        let (cs, db, _) = fd_instance(3, 1, |i| i as i64);
        let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
        let par = minimal_inconsistent_subsets_par_with(&db, &cs, None, 4, ShardPolicy::Fixed(16));
        assert!(par.complete);
        assert_eq!(sorted(&par), sorted(&seq));
    }

    /// Total key skew: every tuple carries the same key, so the hash
    /// partition routes the whole relation into one shard (the others are
    /// empty) — the degenerate-but-correct case.
    #[test]
    fn fully_skewed_keys_land_in_one_shard() {
        let (cs, db, _) = fd_instance(12, 1, |i| (i % 3) as i64);
        let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
        assert!(seq.count() > 0, "fixture should conflict");
        let par = minimal_inconsistent_subsets_par_with(&db, &cs, None, 4, ShardPolicy::Fixed(4));
        assert!(par.complete);
        assert_eq!(sorted(&par), sorted(&seq));
    }

    /// Null keys intern like any other value: null-keyed tuples hash into
    /// one shard together and join among themselves, identically to the
    /// sequential engine.
    #[test]
    fn null_keyed_tuples_shard_consistently() {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("K", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..10i64 {
            let key = if i % 3 == 0 {
                Value::Null
            } else {
                Value::int(i % 2)
            };
            db.insert(Fact::new(r, [key, Value::int(i % 4)])).unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
        assert!(seq.count() > 0, "null keys should conflict in this fixture");
        for shards in [2, 3, 8] {
            let par = minimal_inconsistent_subsets_par_with(
                &db,
                &cs,
                None,
                4,
                ShardPolicy::Fixed(shards),
            );
            assert!(par.complete);
            assert_eq!(sorted(&par), sorted(&seq), "shards={shards}");
        }
    }

    /// Budget exhaustion mid-shard: the truncated result is flagged
    /// incomplete and every returned set is still a genuine violation.
    #[test]
    fn budget_exhaustion_mid_shard_flags_incomplete() {
        // 40 rows, 2 keys, dependent values all distinct: plenty of
        // violating pairs in every shard.
        let (cs, db, _) = fd_instance(40, 2, |i| i as i64);
        let par =
            minimal_inconsistent_subsets_par_with(&db, &cs, Some(5), 4, ShardPolicy::Fixed(4));
        assert!(!par.complete, "budget of 5 must truncate mid-shard");
        assert!(par.count() <= 5);
        for set in &par.subsets {
            let [a, b] = set.as_ref() else {
                panic!("FD violations are pairs");
            };
            let fa = db.fact(*a).unwrap();
            let fb = db.fact(*b).unwrap();
            assert_eq!(fa.value(AttrId(0)), fb.value(AttrId(0)), "keys agree");
            assert_ne!(fa.value(AttrId(1)), fb.value(AttrId(1)), "deps differ");
        }
    }

    /// A unary constraint under `Fixed` sharding: the probe-side scan is
    /// split and reassembled without loss.
    #[test]
    fn unary_constraints_shard_too() {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..9 {
            db.insert(Fact::new(r, [Value::int(i)])).unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_dc(
            build::unary(
                "pos",
                r,
                vec![build::uc(AttrId(0), CmpOp::Gt, Value::int(5))],
                &s,
            )
            .unwrap(),
        );
        let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
        assert_eq!(seq.count(), 3);
        let par = minimal_inconsistent_subsets_par_with(&db, &cs, None, 3, ShardPolicy::Fixed(3));
        assert!(par.complete);
        assert_eq!(sorted(&par), sorted(&seq));
    }

    /// `Auto` shards a lone dominant constraint across the pool (the
    /// workload the ROADMAP flagged: one huge DC used to run on one core)
    /// and stays bit-identical to the sequential engine.
    #[test]
    fn auto_shards_single_dominant_constraint() {
        let n = MIN_SHARD_ROWS + 512;
        // Near-unique keys: buckets of 2, a violation wherever the two
        // disagree on B.
        let (cs, db, _) = fd_instance(n, (n / 2) as i64, |i| (i % 7) as i64);
        let seq = engine::minimal_inconsistent_subsets(&db, &cs, None);
        assert!(seq.count() > 0);
        let par = minimal_inconsistent_subsets_par(&db, &cs, None, 4);
        assert!(par.complete);
        assert_eq!(sorted(&par), sorted(&seq));
        // The plan really did shard: Auto at 4 threads on 1 constraint.
        let plan = plan_shards(&db, &cs, 4, ShardPolicy::Auto);
        assert!(plan.units.len() > 1, "dominant constraint must be sharded");
        assert!(plan.partitions[0]
            .as_ref()
            .is_some_and(|p| p.co_partitioned));
    }
}
