//! Property-based integration tests (proptest) over random schemas,
//! databases and FD sets, exercising invariants across all crates.

use inconsist::constraints::dc::build;
use inconsist::constraints::{
    engine, minimal_inconsistent_subsets_par, minimal_inconsistent_subsets_par_with, CmpOp,
    ConstraintSet, Fd, ShardPolicy,
};
use inconsist::measures::{
    InconsistencyMeasure, LinearMinimumRepair, MaximalConsistentSubsetsWithSelf, MeasureOptions,
    MinimalInconsistentSubsets, MinimalViolations, MinimumRepair, ProblematicFacts,
};
use inconsist::relational::{relation, AttrId, Database, Fact, RelId, Schema, Value, ValueKind};
use proptest::prelude::*;
use std::sync::Arc;

const COLS: usize = 4;

fn schema4() -> (Arc<Schema>, RelId) {
    let mut s = Schema::new();
    let r = s
        .add_relation(
            relation(
                "R",
                &[
                    ("A", ValueKind::Int),
                    ("B", ValueKind::Int),
                    ("C", ValueKind::Int),
                    ("D", ValueKind::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    (Arc::new(s), r)
}

fn build_db(rows: &[Vec<i64>]) -> (Database, RelId, Arc<Schema>) {
    let (schema, r) = schema4();
    let mut db = Database::new(Arc::clone(&schema));
    for row in rows {
        db.insert(Fact::new(r, row.iter().map(|&v| Value::int(v))))
            .unwrap();
    }
    (db, r, schema)
}

fn build_fds(schema: &Arc<Schema>, r: RelId, fds: &[(u16, u16)]) -> ConstraintSet {
    let mut cs = ConstraintSet::new(Arc::clone(schema));
    for &(lhs, rhs) in fds {
        if lhs != rhs {
            cs.add_fd(Fd::new(r, [AttrId(lhs)], [AttrId(rhs)]));
        }
    }
    cs
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..4, COLS), 1..24)
}

// -- mixed-type fixtures for the engine-equivalence property ---------------

/// One generated row: a string key, a float measure, an int measure — each
/// drawn from a small domain, with an explicit null channel (`selector == 0`
/// nulls the column) so encoded joins see missing values too.
type MixedRow = ((u8, i64), (u8, i64), (u8, i64));

fn mixed_schema() -> (Arc<Schema>, RelId) {
    let mut s = Schema::new();
    let r = s
        .add_relation(
            relation(
                "M",
                &[
                    ("K", ValueKind::Str),
                    ("X", ValueKind::Float),
                    ("Y", ValueKind::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    (Arc::new(s), r)
}

fn mixed_db(rows: &[MixedRow]) -> (Database, RelId, Arc<Schema>) {
    const KEYS: &[&str] = &["alpha", "beta", "gamma", "delta"];
    let (schema, r) = mixed_schema();
    let mut db = Database::new(Arc::clone(&schema));
    for &((ks, k), (xs, x), (ys, y)) in rows {
        let kv = if ks == 0 {
            Value::Null
        } else {
            Value::str(KEYS[(k % KEYS.len() as i64) as usize])
        };
        let xv = if xs == 0 {
            Value::Null
        } else {
            Value::float(x as f64 / 2.0)
        };
        let yv = if ys == 0 { Value::Null } else { Value::int(y) };
        db.insert(Fact::new(r, [kv, xv, yv])).unwrap();
    }
    (db, r, schema)
}

fn mixed_rows_strategy() -> impl Strategy<Value = Vec<MixedRow>> {
    let cell = || (0u8..4, 0i64..5);
    prop::collection::vec((cell(), cell(), cell()), 1..28)
}

/// Constraints exercising every compiled join shape over the mixed
/// columns: a string-keyed FD, an FD between float and int columns, a
/// dominance DC (rank comparisons), and a unary positivity DC.
fn mixed_cs(schema: &Arc<Schema>, r: RelId) -> ConstraintSet {
    let mut cs = ConstraintSet::new(Arc::clone(schema));
    cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
    cs.add_dc(
        build::binary(
            "dom",
            r,
            vec![
                build::tt(AttrId(1), CmpOp::Lt, AttrId(1)),
                build::tt(AttrId(2), CmpOp::Gt, AttrId(2)),
            ],
            schema,
        )
        .unwrap(),
    );
    cs.add_dc(
        build::unary(
            "pos",
            r,
            vec![build::uc(AttrId(2), CmpOp::Gt, Value::int(3))],
            schema,
        )
        .unwrap(),
    );
    cs
}

fn sorted_subsets(mi: &engine::MiResult) -> Vec<Vec<inconsist::relational::TupleId>> {
    let mut v: Vec<Vec<inconsist::relational::TupleId>> =
        mi.subsets.iter().map(|s| s.to_vec()).collect();
    v.sort();
    v
}

fn fds_strategy() -> impl Strategy<Value = Vec<(u16, u16)>> {
    prop::collection::vec((0u16..COLS as u16, 0u16..COLS as u16), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LP relaxation bounds the exact repair within the FD integrality
    /// gap of 2 (§5.2), and both are zero exactly on consistent data.
    #[test]
    fn lin_relaxation_bounds(rows in rows_strategy(), fds in fds_strategy()) {
        let (db, r, schema) = build_db(&rows);
        let cs = build_fds(&schema, r, &fds);
        let opts = MeasureOptions::default();
        let ir = MinimumRepair { options: opts }.eval(&cs, &db).unwrap();
        let lin = LinearMinimumRepair { options: opts }.eval(&cs, &db).unwrap();
        prop_assert!(lin <= ir + 1e-9);
        prop_assert!(ir <= 2.0 * lin + 1e-9);
        let consistent = engine::is_consistent(&db, &cs);
        prop_assert_eq!(consistent, ir == 0.0);
        prop_assert_eq!(consistent, lin == 0.0);
    }

    /// Monotonicity of I_R / I_R^lin under syntactic strengthening, and
    /// the I_R ≤ I_P ≤ I_MI·2 chain for FDs.
    #[test]
    fn monotone_under_strengthening(rows in rows_strategy(), fds in fds_strategy()) {
        prop_assume!(fds.len() >= 2);
        let (db, r, schema) = build_db(&rows);
        let weak = build_fds(&schema, r, &fds[..fds.len() / 2]);
        let strong = build_fds(&schema, r, &fds);
        prop_assume!(strong.entails(&weak) == Some(true));
        let opts = MeasureOptions::default();
        for m in [
            &MinimumRepair { options: opts } as &dyn InconsistencyMeasure,
            &LinearMinimumRepair { options: opts },
            &MinimalInconsistentSubsets { options: opts },
            &ProblematicFacts { options: opts },
        ] {
            let w = m.eval(&weak, &db).unwrap();
            let s = m.eval(&strong, &db).unwrap();
            prop_assert!(w <= s + 1e-9, "{} not monotone: {} > {}", m.name(), w, s);
        }
    }

    /// Deleting an entire minimum repair yields consistency, and deleting
    /// any problematic-fact superset too (anti-monotonicity end to end).
    #[test]
    fn repairs_repair(rows in rows_strategy(), fds in fds_strategy()) {
        let (db, r, schema) = build_db(&rows);
        let cs = build_fds(&schema, r, &fds);
        let opts = MeasureOptions::default();
        let deletions =
            inconsist::measures::minimum_repair_deletions(&cs, &db, &opts).unwrap();
        let mut repaired = db.clone();
        for t in &deletions {
            repaired.delete(*t);
        }
        prop_assert!(engine::is_consistent(&repaired, &cs));
        // Optimality: the deletion count equals I_R (unit costs).
        let ir = MinimumRepair { options: opts }.eval(&cs, &db).unwrap();
        prop_assert_eq!(deletions.len() as f64, ir);
    }

    /// I'_MC positivity for FDs (Table 2) on random instances.
    #[test]
    fn imc_self_positive_for_fds(rows in rows_strategy(), fds in fds_strategy()) {
        let (db, r, schema) = build_db(&rows);
        let cs = build_fds(&schema, r, &fds);
        if !engine::is_consistent(&db, &cs) {
            let opts = MeasureOptions::default();
            let v = MaximalConsistentSubsetsWithSelf { options: opts }
                .eval(&cs, &db)
                .unwrap();
            prop_assert!(v > 0.0);
        }
    }

    /// The incremental index stays synchronized with from-scratch
    /// evaluation through arbitrary operation sequences.
    #[test]
    fn incremental_index_tracks_scratch(
        rows in rows_strategy(),
        fds in fds_strategy(),
        ops in prop::collection::vec((0u8..3, 0usize..24, 0u16..COLS as u16, 0i64..4), 0..20),
    ) {
        use inconsist::incremental::IncrementalIndex;
        let (db, r, schema) = build_db(&rows);
        let cs = build_fds(&schema, r, &fds);
        let opts = MeasureOptions::default();
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        for (kind, pick, attr, val) in ops {
            let ids: Vec<_> = idx.db().ids().collect();
            match kind {
                0 => {
                    idx.insert(Fact::new(r, (0..COLS).map(|c| Value::int((val + c as i64) % 4))))
                        .unwrap();
                }
                1 if !ids.is_empty() => {
                    idx.delete(ids[pick % ids.len()]);
                }
                _ if !ids.is_empty() => {
                    let t = ids[pick % ids.len()];
                    idx.update(t, AttrId(attr), Value::int(val)).unwrap();
                }
                _ => {}
            }
        }
        let scratch_mi = MinimalInconsistentSubsets { options: opts }
            .eval(idx.constraints(), &idx.db().clone())
            .unwrap();
        let scratch_p = ProblematicFacts { options: opts }
            .eval(idx.constraints(), &idx.db().clone())
            .unwrap();
        let scratch_ir = MinimumRepair { options: opts }
            .eval(idx.constraints(), &idx.db().clone())
            .unwrap();
        prop_assert_eq!(idx.i_mi(), scratch_mi);
        prop_assert_eq!(idx.i_p(), scratch_p);
        prop_assert_eq!(idx.i_r(&opts).unwrap(), scratch_ir);
        prop_assert_eq!(idx.is_consistent(), engine::is_consistent(idx.db(), idx.constraints()));
    }

    /// Component merges and splits keep every cached measure equal to the
    /// from-scratch engine *after every op*: bridging inserts (a tuple
    /// conflicting with two blocks at once) merge components, deleting an
    /// articulation tuple splits them, and block-moving updates do both.
    #[test]
    fn component_caches_survive_merges_and_splits(
        seed_rows in prop::collection::vec(0i64..3, 4..12),
        ops in prop::collection::vec((0u8..4, 0usize..24, 0i64..3, 0i64..4), 1..12),
    ) {
        use inconsist::incremental::IncrementalIndex;
        use inconsist::solver::component_tuple_scores;
        // Blocked layout under A→B: tuples with equal A conflict pairwise
        // when B differs. A has a tiny domain, and a second FD B→C lets a
        // single insert bridge an A-block and a B-block, so the op mix
        // below constantly merges and splits conflict components.
        let (schema, r) = schema4();
        let mut db = Database::new(Arc::clone(&schema));
        for (i, &a) in seed_rows.iter().enumerate() {
            db.insert(Fact::new(
                r,
                [Value::int(a), Value::int(i as i64 % 4), Value::int(0), Value::int(0)],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&schema));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        let opts = MeasureOptions::default();
        let mut idx = IncrementalIndex::build(db, cs).unwrap();
        for (kind, pick, a, b) in ops {
            let ids: Vec<_> = idx.db().ids().collect();
            match kind {
                // Bridging insert: A lands in one block (A→B conflicts),
                // B matches seed B's with a fresh C (B→C conflicts) — one
                // tuple can fuse two components.
                0 => {
                    idx.insert(Fact::new(
                        r,
                        [Value::int(a), Value::int(b), Value::int(1), Value::int(0)],
                    ))
                    .unwrap();
                }
                // Articulation delete: the tuple in the most violations is
                // the likeliest cut vertex.
                1 if !ids.is_empty() => {
                    let t = idx
                        .hottest_tuples(1)
                        .first()
                        .map(|h| h.0)
                        .unwrap_or(ids[pick % ids.len()]);
                    idx.delete(t);
                }
                // Block move: splits the source component, merges into the
                // target block's component.
                2 if !ids.is_empty() => {
                    let t = ids[pick % ids.len()];
                    idx.update(t, AttrId(0), Value::int(a)).unwrap();
                }
                _ if !ids.is_empty() => {
                    let t = ids[pick % ids.len()];
                    idx.update(t, AttrId(1), Value::int(b)).unwrap();
                }
                _ => {}
            }
            // After *every* op: cached reads equal from-scratch evaluation,
            // and the maintained component caches cross-validate.
            let db = idx.db().clone();
            let cs = idx.constraints().clone();
            prop_assert!(idx.self_check(), "cached aggregates diverged");
            prop_assert_eq!(
                idx.i_mi(),
                MinimalInconsistentSubsets { options: opts }.eval(&cs, &db).unwrap()
            );
            prop_assert_eq!(
                idx.i_p(),
                ProblematicFacts { options: opts }.eval(&cs, &db).unwrap()
            );
            prop_assert_eq!(
                idx.i_r(&opts).unwrap(),
                MinimumRepair { options: opts }.eval(&cs, &db).unwrap()
            );
            let lin = LinearMinimumRepair { options: opts }.eval(&cs, &db).unwrap();
            prop_assert_eq!(idx.i_r_lin().unwrap(), lin);
            // Per-DC counts and per-tuple scores against the batch path.
            prop_assert_eq!(
                idx.i_mi_dc(),
                MinimalViolations { options: opts }.eval(&cs, &db).unwrap()
            );
            let batch = engine::minimal_inconsistent_subsets(&db, &cs, None);
            prop_assert_eq!(idx.tuple_measures(), component_tuple_scores(&batch.subsets));
        }
    }

    /// Exact DC mining is sound (every mined DC holds) and complete for a
    /// planted FD whenever the data actually witnesses it.
    #[test]
    fn mined_dcs_hold(rows in rows_strategy()) {
        use inconsist::constraints::{mine_dcs, MinerConfig};
        let (db, r, schema) = build_db(&rows);
        let cfg = MinerConfig { max_dcs: 8, ..Default::default() };
        for m in mine_dcs(&db, r, &cfg) {
            let mut cs = ConstraintSet::new(Arc::clone(&schema));
            cs.add_dc(m.dc.clone());
            prop_assert!(
                engine::is_consistent(&db, &cs),
                "mined DC violated: {}", m.dc.display(&schema)
            );
            prop_assert_eq!(m.violations, 0);
        }
    }

    /// The code-keyed engine, the value-keyed reference path, the
    /// constraint-parallel enumerator, and the sharded-parallel enumerator
    /// return identical `MiResult`s on randomized databases mixing
    /// Int/Float/Str columns and nulls.
    #[test]
    fn code_value_and_parallel_engines_agree(rows in mixed_rows_strategy()) {
        let (db, r, schema) = mixed_db(&rows);
        let cs = mixed_cs(&schema, r);
        let code = engine::minimal_inconsistent_subsets(&db, &cs, None);
        let value = engine::value_keyed::minimal_inconsistent_subsets(&db, &cs, None);
        prop_assert!(code.complete && value.complete);
        prop_assert_eq!(sorted_subsets(&code), sorted_subsets(&value));
        for threads in [2, 4] {
            let par = minimal_inconsistent_subsets_par(&db, &cs, None, threads);
            prop_assert!(par.complete);
            prop_assert_eq!(sorted_subsets(&par), sorted_subsets(&code));
        }
        // Data sharding (hash co-partitioned FDs, broadcast order DCs,
        // deliberately tiny and empty shards) is bit-identical too.
        for policy in [ShardPolicy::Fixed(1), ShardPolicy::Fixed(2), ShardPolicy::Fixed(5)] {
            let sharded = minimal_inconsistent_subsets_par_with(&db, &cs, None, 4, policy);
            prop_assert!(sharded.complete);
            prop_assert_eq!(sorted_subsets(&sharded), sorted_subsets(&code));
        }
        // Per-constraint enumeration agrees between the two engines too.
        let per_code = engine::violations_per_dc(&db, &cs, None);
        let per_value = engine::value_keyed::violations_per_dc(&db, &cs, None);
        prop_assert_eq!(per_code.len(), per_value.len());
        for (c, v) in per_code.iter().zip(&per_value) {
            prop_assert_eq!(c.dc, v.dc);
            prop_assert_eq!(c.complete, v.complete);
            let mut cs_sets: Vec<_> = c.sets.clone(); cs_sets.sort();
            let mut vs_sets: Vec<_> = v.sets.clone(); vs_sets.sort();
            prop_assert_eq!(cs_sets, vs_sets);
        }
    }

    /// The violation engine agrees with a naive quadratic oracle on FD
    /// violations.
    #[test]
    fn engine_matches_naive_oracle(rows in rows_strategy(), fds in fds_strategy()) {
        let (db, r, schema) = build_db(&rows);
        let cs = build_fds(&schema, r, &fds);
        let mi = engine::minimal_inconsistent_subsets(&db, &cs, None);
        // Oracle: check all pairs against all FDs.
        let facts: Vec<_> = db.scan(r).collect();
        let mut expected = std::collections::BTreeSet::new();
        for i in 0..facts.len() {
            for j in (i + 1)..facts.len() {
                for dc in cs.dcs() {
                    if dc.forbidden(&[facts[i].values, facts[j].values])
                        || dc.forbidden(&[facts[j].values, facts[i].values])
                    {
                        let mut pair = vec![facts[i].id, facts[j].id];
                        pair.sort();
                        expected.insert(pair);
                        break;
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<Vec<_>> =
            mi.subsets.iter().map(|s| s.to_vec()).collect();
        prop_assert_eq!(got, expected);
    }
}
