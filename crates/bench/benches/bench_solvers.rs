//! Solver ablations (#1, #2, #4 of DESIGN.md):
//!
//! 1. combinatorial half-integral fractional vertex cover vs. the simplex
//!    on the same covering LP (`I_R^lin`);
//! 2. exact branch-&-reduce vertex cover vs. covering-ILP hitting set vs.
//!    the greedy 2-approximation (`I_R`);
//! 4. cograph cotree DP vs. Bron–Kerbosch for `I_MC` on P4-free graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use inconsist::constraints::engine;
use inconsist::graph::{count_maximal_consistent_subsets, count_mis_if_cograph, ConflictGraph};
use inconsist::solver::{
    covering_lp, fractional_vertex_cover, greedy_vertex_cover, min_weight_hitting_set,
    min_weight_vertex_cover,
};
use inconsist_data::{generate, CoNoise, DatasetId};

fn conflict_graph(n: usize, iters: usize) -> ConflictGraph {
    let mut ds = generate(DatasetId::Hospital, n, 13);
    let mut noise = CoNoise::new(13);
    for _ in 0..iters {
        noise.step(&mut ds.db, &ds.constraints);
    }
    let mi = engine::minimal_inconsistent_subsets(&ds.db, &ds.constraints, None);
    ConflictGraph::from_subsets(&ds.db, &mi.subsets)
}

fn bench_fractional(c: &mut Criterion) {
    let mut group = c.benchmark_group("fractional_vc");
    group.sample_size(10);
    for (label, n, iters) in [("small", 300, 8), ("medium", 800, 16)] {
        let g = conflict_graph(n, iters);
        group.bench_with_input(BenchmarkId::new("combinatorial", label), &g, |b, g| {
            b.iter(|| fractional_vertex_cover(g))
        });
        let weights: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
        let sets: Vec<Vec<usize>> = g
            .edges()
            .map(|(a, b)| vec![a as usize, b as usize])
            .collect();
        group.bench_with_input(BenchmarkId::new("simplex", label), &(), |b, _| {
            b.iter(|| covering_lp(&weights, &sets).minimize())
        });
    }
    group.finish();
}

fn bench_exact_vc(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vc");
    group.sample_size(10);
    let g = conflict_graph(800, 20);
    group.bench_function("branch_and_reduce", |b| {
        b.iter(|| min_weight_vertex_cover(&g, 1 << 28))
    });
    group.bench_function("greedy", |b| b.iter(|| greedy_vertex_cover(&g)));
    let weights: Vec<f64> = (0..g.n() as u32).map(|v| g.weight(v)).collect();
    let sets: Vec<Vec<usize>> = g
        .edges()
        .map(|(a, b)| vec![a as usize, b as usize])
        .collect();
    group.bench_function("hitting_set_ilp", |b| {
        b.iter(|| min_weight_hitting_set(&weights, &sets, 1 << 28))
    });
    group.finish();
}

fn bench_mc_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_counting");
    group.sample_size(10);
    // Airport's one-country FDs yield complete-multipartite (cograph)
    // conflict structures.
    let mut ds = generate(DatasetId::Airport, 150, 5);
    let mut noise = CoNoise::new(5);
    for _ in 0..8 {
        noise.step(&mut ds.db, &ds.constraints);
    }
    let mi = engine::minimal_inconsistent_subsets(&ds.db, &ds.constraints, None);
    let g = ConflictGraph::from_subsets(&ds.db, &mi.subsets);
    group.bench_function("cograph_dp", |b| b.iter(|| count_mis_if_cograph(&g)));
    group.bench_function("bron_kerbosch", |b| {
        b.iter(|| count_maximal_consistent_subsets(&g, 1 << 26))
    });
    group.finish();
}

/// Ablation #5: the §5.1 single-FD fast path (`fd_tract`) vs. the generic
/// pipeline (violation self-join + exact vertex cover) for `I_R` on a key
/// constraint. The fast path never materializes conflicts, so the gap
/// widens quadratically with the dirty-block sizes.
fn bench_fd_tract(c: &mut Criterion) {
    use inconsist::constraints::{ConstraintSet, Fd};
    use inconsist::fd_tract::fast_min_repair;
    use inconsist::relational::AttrId;
    use std::sync::Arc;

    let mut group = c.benchmark_group("fd_tract_vs_selfjoin");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let mut ds = generate(DatasetId::Hospital, n, 17);
        // A single key-style FD so both paths apply.
        let rel = inconsist::relational::RelId(0);
        let mut cs = ConstraintSet::new(Arc::clone(ds.db.schema()));
        cs.add_fd(Fd::new(rel, [AttrId(0)], [AttrId(1)]));
        let mut noise = CoNoise::new(17);
        for _ in 0..n / 100 {
            noise.step(&mut ds.db, &cs);
        }
        // Sanity: identical optima.
        let fast = fast_min_repair(&cs, &ds.db)
            .expect("single FD is tractable")
            .0;
        let mi = engine::minimal_inconsistent_subsets(&ds.db, &cs, None);
        let g = ConflictGraph::from_subsets(&ds.db, &mi.subsets);
        let generic = min_weight_vertex_cover(&g, 1 << 30).expect("budget").weight;
        assert!((fast - generic).abs() < 1e-9, "optima diverge at n={n}");

        group.bench_with_input(BenchmarkId::new("fd_tract", n), &ds, |b, ds| {
            b.iter(|| fast_min_repair(&cs, &ds.db))
        });
        group.bench_with_input(BenchmarkId::new("selfjoin_vc", n), &ds, |b, ds| {
            b.iter(|| {
                let mi = engine::minimal_inconsistent_subsets(&ds.db, &cs, None);
                let g = ConflictGraph::from_subsets(&ds.db, &mi.subsets);
                min_weight_vertex_cover(&g, 1 << 30).map(|vc| vc.weight)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fractional,
    bench_exact_vc,
    bench_mc_counting,
    bench_fd_tract
);
criterion_main!(benches);
