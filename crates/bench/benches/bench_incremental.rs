//! Ablation: incremental violation maintenance vs. from-scratch
//! re-evaluation inside a cleaning loop, plus the cost of the incremental
//! index's component-scoped reads on a long repair sequence.
//!
//! The progress-indication scenario of §1 re-reads the measures after
//! every repairing operation. The from-scratch baseline pays the full
//! violation self-join per step; `IncrementalIndex` pays one pinned probe
//! (insert/update) or an index removal (delete). On the *read* side, the
//! index re-processes only the components the operation dirtied — on a
//! multi-component database that is `O(dirty)` per step, not `O(|D|)`.
//!
//! Besides the criterion timings, the bench emits a machine-readable JSON
//! summary (ops/sec per measure for the component read path) to
//! `target/bench_incremental.json`, or the path in `BENCH_JSON`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use inconsist::constraints::{ConstraintSet, Fd};
use inconsist::incremental::{IncrementalIndex, Measure};
use inconsist::measures::{
    InconsistencyMeasure, LinearMinimumRepair, MeasureOptions, MinimalInconsistentSubsets,
    MinimumRepair, ProblematicFacts,
};
use inconsist::relational::{relation, AttrId, Database, Fact, Schema, Value, ValueKind};
use inconsist::repair::RepairOp;
use inconsist_data::{generate, Dataset, DatasetId, RNoise};
use rand::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A pre-generated trace of valid cell-update operations: RNoise steps
/// recorded on a scratch copy, replayed identically by both strategies.
fn operation_trace(ds: &Dataset, steps: usize, seed: u64) -> Vec<RepairOp> {
    let mut scratch = ds.db.clone();
    let mut noise = RNoise::new(seed, 0.0);
    let mut trace = Vec::with_capacity(steps);
    while trace.len() < steps {
        if let Some(edit) = noise.step(&mut scratch, &ds.constraints) {
            trace.push(RepairOp::Update(edit.tuple, edit.attr, edit.new));
        }
    }
    trace
}

fn noisy_dataset(n: usize) -> Dataset {
    let mut ds = generate(DatasetId::Hospital, n, 11);
    let mut noise = RNoise::new(11, 0.0);
    let steps = RNoise::iterations_for(0.01, &ds.db);
    noise.run(&mut ds.db, &ds.constraints, steps);
    ds
}

fn scratch_loop(db: &Database, ds: &Dataset, trace: &[RepairOp]) -> f64 {
    let measure = MinimalInconsistentSubsets {
        options: MeasureOptions::default(),
    };
    let mut db = db.clone();
    let mut acc = 0.0;
    for op in trace {
        op.apply(&mut db);
        acc += measure.eval(&ds.constraints, &db).unwrap_or(f64::NAN);
    }
    acc
}

fn incremental_loop(db: &Database, ds: &Dataset, trace: &[RepairOp]) -> f64 {
    let mut idx = IncrementalIndex::build(db.clone(), ds.constraints.clone()).expect("build");
    let mut acc = 0.0;
    for op in trace {
        idx.apply(op);
        acc += idx.i_mi();
    }
    acc
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_vs_scratch");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        let ds = noisy_dataset(n);
        let trace = operation_trace(&ds, 20, 3);
        // Sanity: both strategies must report identical series.
        assert_eq!(
            scratch_loop(&ds.db, &ds, &trace),
            incremental_loop(&ds.db, &ds, &trace),
            "incremental drifted from scratch at n={n}"
        );
        group.bench_with_input(BenchmarkId::new("scratch", n), &ds, |b, ds| {
            b.iter(|| scratch_loop(&ds.db, ds, &trace))
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &ds, |b, ds| {
            b.iter(|| incremental_loop(&ds.db, ds, &trace))
        });
    }
    group.finish();
}

// -- component-scoped reads on a long repair sequence ------------------------

/// A database whose conflict graph has `blocks` independent components:
/// block `k` holds `per_block` tuples sharing `A = k` with distinct `B`s
/// (pairwise FD violations), so one repair op dirties one component.
fn multi_component(blocks: i64, per_block: i64) -> (Database, ConstraintSet) {
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
    let mut db = Database::new(Arc::clone(&s));
    for k in 0..blocks {
        for j in 0..per_block {
            db.insert(Fact::new(
                r,
                [Value::int(k), Value::int(per_block * k + j), Value::int(0)],
            ))
            .unwrap();
        }
    }
    let mut cs = ConstraintSet::new(s);
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    (db, cs)
}

/// A long random repair sequence over the multi-component database:
/// in-block B updates (dirty one component), block-moving A updates
/// (split + merge), inserts and deletes. Recorded on a scratch index so
/// every op is applicable when replayed.
fn long_trace(db: &Database, cs: &ConstraintSet, blocks: i64, steps: usize) -> Vec<RepairOp> {
    let mut scratch = IncrementalIndex::build(db.clone(), cs.clone()).expect("build");
    let mut rng = StdRng::seed_from_u64(7);
    let r = inconsist::relational::RelId(0);
    let mut trace = Vec::with_capacity(steps);
    while trace.len() < steps {
        let ids: Vec<_> = scratch.db().ids().collect();
        let op = match rng.gen_range(0..10) {
            // Mostly in-block value repairs: the progress-indication shape.
            0..=5 => {
                let t = ids[rng.gen_range(0..ids.len())];
                RepairOp::Update(t, AttrId(1), Value::int(rng.gen_range(0..1_000_000)))
            }
            // Move a tuple to another block: splits one component, dirties
            // (or creates) another.
            6 | 7 => {
                let t = ids[rng.gen_range(0..ids.len())];
                RepairOp::Update(t, AttrId(0), Value::int(rng.gen_range(0..blocks)))
            }
            8 => RepairOp::Insert(Fact::new(
                r,
                [
                    Value::int(rng.gen_range(0..blocks)),
                    Value::int(rng.gen_range(0..1_000_000)),
                    Value::int(0),
                ],
            )),
            _ => RepairOp::Delete(ids[rng.gen_range(0..ids.len())]),
        };
        if scratch.apply(&op) {
            trace.push(op);
        }
    }
    trace
}

/// The measures a replay loop reads after every op: one at a time, then
/// all four together (`"all"` in the summary).
const READS: [Measure; 4] = [Measure::Mi, Measure::P, Measure::R, Measure::RLin];

/// A replay's row label: its one measure's name, or `all`.
fn label(what: &[Measure]) -> &'static str {
    match what {
        [m] => m.name(),
        _ => "all",
    }
}

/// Replays the trace on a fresh index, reading `what` after every op;
/// returns the accumulated values (the identity witness).
fn replay(db: &Database, cs: &ConstraintSet, trace: &[RepairOp], what: &[Measure]) -> f64 {
    let opts = MeasureOptions::default();
    let mut idx = IncrementalIndex::build(db.clone(), cs.clone()).expect("build");
    let mut acc = 0.0;
    for op in trace {
        idx.apply(op);
        for &m in what {
            acc += idx.measure(m, &opts, None).expect("in budget").value;
        }
    }
    acc
}

/// [`replay`] through the batch measures, which re-run the violation
/// scan on every step: the definitional oracle for the index's reads.
fn replay_batch(db: &Database, cs: &ConstraintSet, trace: &[RepairOp], what: Measure) -> f64 {
    let options = MeasureOptions::default();
    let measure: Box<dyn InconsistencyMeasure> = match what {
        Measure::Mi => Box::new(MinimalInconsistentSubsets { options }),
        Measure::P => Box::new(ProblematicFacts { options }),
        Measure::R => Box::new(MinimumRepair { options }),
        Measure::RLin => Box::new(LinearMinimumRepair { options }),
        other => unreachable!("{} is not replayed", other.name()),
    };
    let mut db = db.clone();
    let mut acc = 0.0;
    for op in trace {
        op.apply(&mut db);
        acc += measure.eval(cs, &db).expect("in budget");
    }
    acc
}

fn bench_component_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("component_reads");
    group.sample_size(10);
    for &blocks in &[50i64, 200] {
        let (db, cs) = multi_component(blocks, 4);
        let trace = long_trace(&db, &cs, blocks, 200);
        // The timing is only meaningful if the index answers what the
        // batch measures do (unit costs: all sums are exact).
        for m in READS {
            assert_eq!(
                replay(&db, &cs, &trace, &[m]),
                replay_batch(&db, &cs, &trace, m),
                "index diverged from the batch measures on {} at blocks={blocks}",
                m.name()
            );
        }
        group.bench_with_input(BenchmarkId::new("component", blocks), &db, |b, db| {
            b.iter(|| replay(db, &cs, &trace, &READS))
        });
    }
    group.finish();
}

// -- machine-readable summary ----------------------------------------------

/// Times one replay and returns ops/sec.
fn ops_per_sec(db: &Database, cs: &ConstraintSet, trace: &[RepairOp], what: &[Measure]) -> f64 {
    let start = Instant::now();
    let acc = replay(db, cs, trace, what);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    criterion::black_box(acc);
    trace.len() as f64 / secs
}

/// Emits the JSON summary consumed by CI and tooling: ops/sec per measure
/// (one timed replay each) for the component read path on the
/// long-sequence multi-component workload. Rows keep their
/// `"mode": "component"` tag, which the CI baseline selects on. Honors
/// the same id filter as the criterion shim (`cargo bench -- <filter>` /
/// `BENCH_FILTER`), so filtered runs targeting another group skip the
/// replays. `BENCH_SMOKE=1`
/// shrinks the workload for the CI smoke job (same code paths, reduced
/// blocks/steps) — the regression gate compares against a baseline
/// emitted in the same mode.
fn emit_json_summary(_c: &mut Criterion) {
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .or_else(|| std::env::var("BENCH_FILTER").ok());
    if let Some(f) = filter {
        if !"json_summary".contains(f.as_str()) {
            return;
        }
    }
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let (blocks, steps) = if smoke { (30i64, 60usize) } else { (120, 200) };
    let per_block = 4i64;
    let (db, cs) = multi_component(blocks, per_block);
    let trace = long_trace(&db, &cs, blocks, steps);
    let mut entries = String::new();
    for what in READS.iter().map(std::slice::from_ref).chain([&READS[..]]) {
        let rate = ops_per_sec(&db, &cs, &trace, what);
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"measure\": \"{}\", \"mode\": \"component\", \"ops_per_sec\": {rate:.1}}}",
            label(what)
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"bench_incremental\",\n  \"workload\": {{\"blocks\": {blocks}, \
         \"tuples\": {}, \"ops\": {steps}}},\n  \"results\": [\n{entries}\n  ]\n}}\n",
        blocks * per_block
    );
    // Bench binaries run with the *package* dir as cwd; anchor the default
    // at the workspace target dir.
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/bench_incremental.json"
        )
        .to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote JSON summary to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
}

criterion_group!(
    benches,
    bench_incremental,
    bench_component_reads,
    emit_json_summary
);
criterion_main!(benches);
