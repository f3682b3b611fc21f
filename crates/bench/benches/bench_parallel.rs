//! Ablation: sequential vs. parallel violation detection.
//!
//! Two workload families, matching the two units of parallelism in
//! `inconsist_constraints::parallel`:
//!
//! * `violations_parallel` — many constraints of uneven cost (Hospital: 7,
//!   Tax: 13): constraint-level work stealing scales with the number and
//!   balance of constraints.
//! * `single_huge_dc` — ONE dominant constraint, the workload the ROADMAP
//!   flagged: the constraint-parallel policy degenerates to a single core
//!   (its only unit is the whole DC), while the data-sharding policy
//!   splits the relation into per-thread shards and scales. Run with
//!   `single_fd` (hash co-partitioned FD join) and `single_dominance`
//!   (order-only DC, shard×broadcast nested loop).
//!
//! The groups also assert that every policy returns bit-identical MI
//! counts before timing anything, and `single_huge_dc` prints the measured
//! sharded-vs-constraint-parallel speedup at each thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use inconsist::constraints::{
    minimal_inconsistent_subsets_par, minimal_inconsistent_subsets_par_with, ConstraintSet, Fd,
    ShardPolicy,
};
use inconsist::relational::{relation, AttrId, Database, Fact, Schema, Value, ValueKind};
use inconsist_data::{generate, DatasetId, RNoise};
use std::sync::Arc;
use std::time::Instant;

fn noisy(id: DatasetId, n: usize) -> (ConstraintSet, Database) {
    let mut ds = generate(id, n, 5);
    let mut noise = RNoise::new(5, 0.0);
    let steps = RNoise::iterations_for(0.01, &ds.db);
    noise.run(&mut ds.db, &ds.constraints, steps);
    (ds.constraints, ds.db)
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("violations_parallel");
    group.sample_size(10);
    for id in [DatasetId::Hospital, DatasetId::Tax] {
        let (cs, db) = noisy(id, 4_000);
        // Sanity: identical MI sets regardless of thread count.
        let seq = minimal_inconsistent_subsets_par(&db, &cs, None, 1);
        let par = minimal_inconsistent_subsets_par(&db, &cs, None, 4);
        assert_eq!(seq.count(), par.count(), "{}", id.name());
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(id.name(), threads),
                &threads,
                |b, &threads| b.iter(|| minimal_inconsistent_subsets_par(&db, &cs, None, threads)),
            );
        }
    }
    group.finish();
}

/// One relation, one FD `K → B` with heavy buckets (`n / keys` tuples per
/// key): the join is quadratic inside each bucket, and the hash partition
/// on `K`'s codes co-partitions build and probe sides.
fn single_fd_instance(n: usize, keys: i64) -> (ConstraintSet, Database) {
    let mut s = Schema::new();
    let r = s
        .add_relation(relation("R", &[("K", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
        .unwrap();
    let s = Arc::new(s);
    let mut db = Database::new(Arc::clone(&s));
    for i in 0..n {
        let key = i as i64 % keys;
        // Sparse noise: a handful of rows disagree with their key group.
        let b = if i % 997 == 0 { key + 1 } else { key };
        db.insert(Fact::new(r, [Value::int(key), Value::int(b)]))
            .unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    (cs, db)
}

/// One relation, one order-only dominance DC
/// `∀t,t′ ¬(t[A] < t′[A] ∧ t[B] > t′[B])`: no equality key, so detection
/// is a full nested loop and sharding falls back to shard×broadcast.
fn single_dominance_instance(n: usize) -> (ConstraintSet, Database) {
    use inconsist::constraints::dc::build;
    use inconsist::constraints::CmpOp;
    let mut s = Schema::new();
    let r = s
        .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
        .unwrap();
    let s = Arc::new(s);
    let mut db = Database::new(Arc::clone(&s));
    for i in 0..n as i64 {
        // Mostly monotone, with sparse inversions that violate dominance.
        let b = if i % 503 == 0 { i - 40 } else { i };
        db.insert(Fact::new(r, [Value::int(i), Value::int(b)]))
            .unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    cs.add_dc(
        build::binary(
            "dom",
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

fn bench_single_huge_dc(c: &mut Criterion) {
    let workloads: Vec<(&str, ConstraintSet, Database)> = vec![
        {
            let (cs, db) = single_fd_instance(24_000, 240);
            ("single_fd", cs, db)
        },
        {
            // Must exceed the Auto policy's MIN_SHARD_ROWS (4096), or the
            // "sharded" arms silently fall back to the sequential engine.
            let (cs, db) = single_dominance_instance(6_000);
            ("single_dominance", cs, db)
        },
    ];
    let mut group = c.benchmark_group("single_huge_dc");
    group.sample_size(10);
    for (name, cs, db) in &workloads {
        // The constraint-parallel policy has a single unit for a single
        // DC, so it runs on one core however many threads it is given.
        let baseline =
            minimal_inconsistent_subsets_par_with(db, cs, None, 4, ShardPolicy::Fixed(1));
        let sharded = minimal_inconsistent_subsets_par_with(db, cs, None, 4, ShardPolicy::Auto);
        assert!(baseline.complete && sharded.complete);
        assert_eq!(
            baseline.count(),
            sharded.count(),
            "{name}: sharding must be exact"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{name}/constraint_parallel"), 4),
            &4usize,
            |b, &t| {
                b.iter(|| {
                    minimal_inconsistent_subsets_par_with(db, cs, None, t, ShardPolicy::Fixed(1))
                })
            },
        );
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/sharded"), threads),
                &threads,
                |b, &t| {
                    b.iter(|| {
                        minimal_inconsistent_subsets_par_with(db, cs, None, t, ShardPolicy::Auto)
                    })
                },
            );
        }
        // Headline number: wall-clock speedup of sharding at 4 threads
        // over the constraint-parallel path (which is sequential here).
        let timed = |f: &dyn Fn() -> usize| {
            let mut count = f(); // warm-up, untimed
            let start = Instant::now();
            for _ in 0..3 {
                count = f();
            }
            (start.elapsed() / 3, count)
        };
        let (t_base, c_base) = timed(&|| {
            minimal_inconsistent_subsets_par_with(db, cs, None, 4, ShardPolicy::Fixed(1)).count()
        });
        let (t_shard, c_shard) = timed(&|| {
            minimal_inconsistent_subsets_par_with(db, cs, None, 4, ShardPolicy::Auto).count()
        });
        assert_eq!(c_base, c_shard);
        eprintln!(
            "single_huge_dc/{name}: constraint-parallel {t_base:?} vs sharded {t_shard:?} \
             at 4 threads — speedup {:.2}x",
            t_base.as_secs_f64() / t_shard.as_secs_f64().max(1e-9),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel, bench_single_huge_dc);
criterion_main!(benches);
