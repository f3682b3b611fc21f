//! Violation-engine benchmarks: full `MI_Σ(D)` enumeration and the
//! consistency check per dataset, inclusion-minimality filtering, and the
//! headline comparison for the dictionary-encoded storage layer:
//! `value_vs_code` runs the same string-heavy FD workload through the
//! historical value-keyed hash join (`engine::value_keyed`) and the
//! production code-keyed join, printing the speedup. Run with
//! `cargo bench --bench bench_violations -- value_vs_code`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use inconsist::constraints::{engine, ConstraintSet, Fd, ViolationSet};
use inconsist::relational::{relation, AttrId, Database, Fact, Schema, TupleId, Value, ValueKind};
use inconsist_data::{generate, CoNoise, Dataset, DatasetId};
use rand::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

fn noisy(id: DatasetId, n: usize, iters: usize) -> Dataset {
    let mut ds = generate(id, n, 3);
    let mut noise = CoNoise::new(3);
    for _ in 0..iters {
        noise.step(&mut ds.db, &ds.constraints);
    }
    ds
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for id in [DatasetId::Hospital, DatasetId::Adult, DatasetId::Tax] {
        let ds = noisy(id, 2_000, 30);
        group.bench_with_input(BenchmarkId::new("mi_enumerate", id.name()), &ds, |b, ds| {
            b.iter(|| engine::minimal_inconsistent_subsets(&ds.db, &ds.constraints, None))
        });
        group.bench_with_input(
            BenchmarkId::new("is_consistent", id.name()),
            &ds,
            |b, ds| b.iter(|| engine::is_consistent(&ds.db, &ds.constraints)),
        );
    }
    group.finish();
}

/// A string-heavy FD workload: `n` tuples over `(K: Str, V: Str, W: Int)`
/// with the FD `K → V`, long string keys (realistic entity names), ~2
/// tuples per key and a small fraction of keys carrying conflicting `V`s.
fn string_fd_workload(n: usize) -> (Database, ConstraintSet) {
    let mut s = Schema::new();
    let r = s
        .add_relation(
            relation(
                "R",
                &[
                    ("K", ValueKind::Str),
                    ("V", ValueKind::Str),
                    ("W", ValueKind::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let s = Arc::new(s);
    let mut db = Database::new(Arc::clone(&s));
    let mut rng = StdRng::seed_from_u64(42);
    let keys = n / 2;
    for i in 0..n {
        let k = rng.gen_range(0..keys);
        // ~2% of tuples dissent from their key's canonical V.
        let dissent = rng.gen_bool(0.02);
        let v = if dissent { rng.gen_range(0..8) } else { 0 };
        db.insert(Fact::new(
            r,
            [
                Value::str(format!("customer-record-{k:08}")),
                Value::str(format!("primary-city-of-residence-{v:04}")),
                Value::int(i as i64),
            ],
        ))
        .unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    (db, cs)
}

/// The acceptance comparison for the dictionary-encoded engine: identical
/// results, ≥2× faster than the value-keyed reference on ≥100k
/// string-keyed tuples.
fn bench_value_vs_code(c: &mut Criterion) {
    let (db, cs) = string_fd_workload(100_000);
    // Results must be bit-identical before any timing is meaningful.
    let code = engine::minimal_inconsistent_subsets(&db, &cs, None);
    let value = engine::value_keyed::minimal_inconsistent_subsets(&db, &cs, None);
    let sorted = |mi: &engine::MiResult| {
        let mut v: Vec<Vec<TupleId>> = mi.subsets.iter().map(|s| s.to_vec()).collect();
        v.sort();
        v
    };
    assert_eq!(sorted(&code), sorted(&value), "engines must agree exactly");
    println!(
        "value_vs_code: string FD workload, {} tuples, {} minimal subsets",
        db.len(),
        code.count()
    );

    // One-shot speedup report (criterion timings follow).
    let t0 = Instant::now();
    let _ = engine::value_keyed::minimal_inconsistent_subsets(&db, &cs, None);
    let value_time = t0.elapsed();
    let t0 = Instant::now();
    let _ = engine::minimal_inconsistent_subsets(&db, &cs, None);
    let code_time = t0.elapsed();
    println!(
        "value_vs_code: value-keyed {value_time:?}, code-keyed {code_time:?} → {:.2}× speedup",
        value_time.as_secs_f64() / code_time.as_secs_f64()
    );

    let mut group = c.benchmark_group("value_vs_code");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("code_keyed", db.len()), &db, |b, db| {
        b.iter(|| engine::minimal_inconsistent_subsets(db, &cs, None))
    });
    group.bench_with_input(BenchmarkId::new("value_keyed", db.len()), &db, |b, db| {
        b.iter(|| engine::value_keyed::minimal_inconsistent_subsets(db, &cs, None))
    });
    group.finish();
}

/// Minimality filtering over a large raw violation set (the scratch-buffer
/// subset probe introduced with the encoded engine).
fn bench_filter_minimal(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut seen: HashSet<ViolationSet> = HashSet::new();
    // Mix of pairs, triples and singletons over a 4k-tuple id space.
    for _ in 0..60_000 {
        let len = match rng.gen_range(0..10) {
            0 => 1,
            1 | 2 => 3,
            _ => 2,
        };
        let mut set: Vec<TupleId> = (0..len)
            .map(|_| TupleId(rng.gen_range(0..4_000u32)))
            .collect();
        set.sort();
        set.dedup();
        seen.insert(set.into_boxed_slice());
    }
    let mut group = c.benchmark_group("filter_minimal");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("mixed_arity", seen.len()),
        &seen,
        |b, seen| {
            b.iter_batched(
                || seen.clone(),
                engine::filter_minimal,
                criterion::BatchSize::LargeInput,
            )
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_value_vs_code,
    bench_filter_minimal
);
criterion_main!(benches);
