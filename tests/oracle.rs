//! Brute-force reference oracles cross-checked against the production
//! engine and solvers on randomized instances.
//!
//! The violation engine, the `I_MC` counter and the `I_R` cover solver
//! each have an obviously-correct exponential counterpart here:
//!
//! * `naive_mi` — try *every* binding of constraint atoms to tuples;
//! * `naive_imc` — test all `2^n` subsets for maximal consistency;
//! * `naive_ir` — minimize deletion cost over all `2^n` subsets.
//!
//! Instances mix the shapes the paper exercises: FDs, unary DCs with
//! constants, asymmetric order DCs, same-relation EGD paths, ternary
//! cross-relation EGDs, null values, and non-unit deletion costs.

use inconsist::constraints::{
    dc::{build, Atom},
    engine, CmpOp, ConstraintSet, DenialConstraint, Fd, Predicate,
};
use inconsist::measures::{
    InconsistencyMeasure, LinearMinimumRepair, MaximalConsistentSubsets, MeasureOptions,
    MinimalInconsistentSubsets, MinimumRepair,
};
use inconsist::relational::{
    relation, AttrId, Database, Fact, RelId, Schema, TupleId, Value, ValueKind,
};
use rand::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Random instances
// ---------------------------------------------------------------------------

struct Instance {
    db: Database,
    cs: ConstraintSet,
}

fn schema() -> (Arc<Schema>, RelId, RelId) {
    let mut s = Schema::new();
    let r = s
        .add_relation(
            relation(
                "R",
                &[
                    ("A", ValueKind::Int),
                    ("B", ValueKind::Int),
                    ("W", ValueKind::Float),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let t = s
        .add_relation(relation("S", &[("X", ValueKind::Int), ("Y", ValueKind::Int)]).unwrap())
        .unwrap();
    s.set_cost_attr(r, "W").unwrap();
    (Arc::new(s), r, t)
}

/// A ternary cross-relation EGD as a DC:
/// `¬(R(a, _, _) ∧ S(a, y) ∧ S(a, y′) ∧ y ≠ y′)`.
fn ternary_dc(r: RelId, t: RelId, s: &Schema) -> DenialConstraint {
    DenialConstraint::new(
        "tern",
        vec![Atom { rel: r }, Atom { rel: t }, Atom { rel: t }],
        vec![
            Predicate::attr_attr(0, AttrId(0), CmpOp::Eq, 1, AttrId(0)),
            Predicate::attr_attr(0, AttrId(0), CmpOp::Eq, 2, AttrId(0)),
            Predicate::attr_attr(1, AttrId(1), CmpOp::Neq, 2, AttrId(1)),
        ],
        s,
    )
    .unwrap()
}

/// An EGD "no path of length two unless endpoints agree" over S:
/// `¬(S(x, y) ∧ S(y, z) ∧ x ≠ z)` — the σ2 shape of Example 8.
fn path_dc(t: RelId, s: &Schema) -> DenialConstraint {
    DenialConstraint::new(
        "path",
        vec![Atom { rel: t }, Atom { rel: t }],
        vec![
            Predicate::attr_attr(0, AttrId(1), CmpOp::Eq, 1, AttrId(0)),
            Predicate::attr_attr(0, AttrId(0), CmpOp::Neq, 1, AttrId(1)),
        ],
        s,
    )
    .unwrap()
}

fn random_instance(seed: u64) -> Instance {
    let (s, r, t) = schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(Arc::clone(&s));
    for _ in 0..rng.gen_range(2..8) {
        let a = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::int(rng.gen_range(0..3))
        };
        db.insert(Fact::new(
            r,
            [
                a,
                Value::int(rng.gen_range(0..3)),
                Value::float([0.5, 1.0, 2.0][rng.gen_range(0..3)]),
            ],
        ))
        .unwrap();
    }
    for _ in 0..rng.gen_range(0..5) {
        db.insert(Fact::new(
            t,
            [
                Value::int(rng.gen_range(0..3)),
                Value::int(rng.gen_range(0..3)),
            ],
        ))
        .unwrap();
    }
    let mut cs = ConstraintSet::new(Arc::clone(&s));
    if rng.gen_bool(0.8) {
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    }
    if rng.gen_bool(0.5) {
        // Unary with a constant: ¬(A = 2).
        cs.add_dc(
            build::unary(
                "no2",
                r,
                vec![build::uc(AttrId(0), CmpOp::Eq, Value::int(2))],
                &s,
            )
            .unwrap(),
        );
    }
    if rng.gen_bool(0.5) {
        // Asymmetric dominance: ¬(t.A < t'.A ∧ t.B > t'.B).
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
    }
    if rng.gen_bool(0.5) {
        cs.add_dc(path_dc(t, &s));
    }
    if rng.gen_bool(0.5) {
        cs.add_dc(ternary_dc(r, t, &s));
    }
    if cs.is_empty() {
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
    }
    Instance { db, cs }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Every inclusion-minimal violation, by trying all atom-to-tuple bindings.
fn naive_mi(db: &Database, cs: &ConstraintSet) -> Vec<Vec<TupleId>> {
    let mut raw: BTreeSet<Vec<TupleId>> = BTreeSet::new();
    for dc in cs.dcs() {
        let candidates: Vec<Vec<TupleId>> = dc
            .atoms
            .iter()
            .map(|a| db.iter().filter(|f| f.rel == a.rel).map(|f| f.id).collect())
            .collect();
        let k = dc.arity();
        let mut idx = vec![0usize; k];
        'outer: loop {
            if candidates.iter().all(|c| !c.is_empty()) {
                let ids: Vec<TupleId> = (0..k).map(|i| candidates[i][idx[i]]).collect();
                let rows: Vec<&[Value]> = ids.iter().map(|&t| db.fact(t).unwrap().values).collect();
                if dc.forbidden(&rows) {
                    let mut set = ids.clone();
                    set.sort();
                    set.dedup();
                    raw.insert(set);
                }
            } else {
                break;
            }
            // Odometer.
            for i in (0..k).rev() {
                idx[i] += 1;
                if idx[i] < candidates[i].len() {
                    continue 'outer;
                }
                idx[i] = 0;
                if i == 0 {
                    break 'outer;
                }
            }
        }
    }
    // Inclusion-minimality.
    let all: Vec<Vec<TupleId>> = raw.into_iter().collect();
    all.iter()
        .filter(|s| {
            !all.iter()
                .any(|o| o.len() < s.len() && o.iter().all(|x| s.contains(x)))
        })
        .cloned()
        .collect()
}

fn subsets_of(ids: &[TupleId]) -> impl Iterator<Item = BTreeSet<TupleId>> + '_ {
    (0..(1u32 << ids.len())).map(move |mask| {
        ids.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, t)| *t)
            .collect()
    })
}

/// `|MC_Σ(D)|` by testing all subsets.
fn naive_imc(db: &Database, cs: &ConstraintSet) -> u64 {
    let ids: Vec<TupleId> = db.ids().collect();
    let consistent: Vec<BTreeSet<TupleId>> = subsets_of(&ids)
        .filter(|keep| engine::is_consistent(&db.retain_ids(keep), cs))
        .collect();
    consistent
        .iter()
        .filter(|s| {
            ids.iter().filter(|t| !s.contains(t)).all(|t| {
                let mut bigger = (*s).clone();
                bigger.insert(*t);
                !consistent.contains(&bigger)
            })
        })
        .count() as u64
}

/// Minimum deletion cost to consistency, over all subsets.
fn naive_ir(db: &Database, cs: &ConstraintSet) -> f64 {
    let ids: Vec<TupleId> = db.ids().collect();
    subsets_of(&ids)
        .filter(|keep| engine::is_consistent(&db.retain_ids(keep), cs))
        .map(|keep| {
            ids.iter()
                .filter(|t| !keep.contains(t))
                .map(|&t| db.cost_of(t))
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Cross-checks
// ---------------------------------------------------------------------------

#[test]
fn engine_matches_naive_mi_on_mixed_shapes() {
    for seed in 0..60 {
        let inst = random_instance(seed);
        let mut expected = naive_mi(&inst.db, &inst.cs);
        expected.sort();
        let got = engine::minimal_inconsistent_subsets(&inst.db, &inst.cs, None);
        assert!(got.complete);
        let mut actual: Vec<Vec<TupleId>> = got.subsets.iter().map(|s| s.to_vec()).collect();
        actual.sort();
        assert_eq!(actual, expected, "seed {seed}");
        // The parallel path must agree bit for bit.
        let par =
            inconsist::constraints::minimal_inconsistent_subsets_par(&inst.db, &inst.cs, None, 3);
        let mut par_sets: Vec<Vec<TupleId>> = par.subsets.iter().map(|s| s.to_vec()).collect();
        par_sets.sort();
        assert_eq!(par_sets, expected, "parallel, seed {seed}");
    }
}

#[test]
fn imc_matches_subset_enumeration() {
    let opts = MeasureOptions::default();
    let measure = MaximalConsistentSubsets { options: opts };
    for seed in 0..40 {
        let inst = random_instance(seed);
        if inst.db.len() > 10 {
            continue;
        }
        let expected = naive_imc(&inst.db, &inst.cs).saturating_sub(1) as f64;
        let got = measure.eval(&inst.cs, &inst.db).unwrap();
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn ir_matches_subset_minimization_with_costs() {
    let opts = MeasureOptions::default();
    let ir = MinimumRepair { options: opts };
    let lin = LinearMinimumRepair { options: opts };
    let mi = MinimalInconsistentSubsets { options: opts };
    for seed in 0..60 {
        let inst = random_instance(seed);
        if inst.db.len() > 11 {
            continue;
        }
        let expected = naive_ir(&inst.db, &inst.cs);
        let got = ir.eval(&inst.cs, &inst.db).unwrap();
        assert!(
            (got - expected).abs() < 1e-9,
            "seed {seed}: I_R = {got}, oracle = {expected}"
        );
        // Relaxation sandwich: I_R^lin ≤ I_R ≤ max-arity · I_R^lin.
        let lin_v = lin.eval(&inst.cs, &inst.db).unwrap();
        let arity = inst.cs.max_arity() as f64;
        assert!(lin_v <= got + 1e-9, "seed {seed}");
        assert!(got <= arity * lin_v + 1e-9, "seed {seed}: integrality gap");
        // I_R never exceeds I_MI (delete one tuple per violation).
        let mi_v = mi.eval(&inst.cs, &inst.db).unwrap();
        assert!(got <= 2.0 * mi_v + 1e-9, "seed {seed}");
    }
}

#[test]
fn tuple_measures_match_naive_mi_oracle() {
    use inconsist::constraints::engine;
    use inconsist::incremental::IncrementalIndex;
    use inconsist::solver::component_tuple_scores;
    use std::collections::BTreeMap;
    for seed in 0..60 {
        let inst = random_instance(seed);
        let mis = naive_mi(&inst.db, &inst.cs);
        // Oracle scores straight from the MIS listing, folding each
        // tuple's subset sizes in ascending order — the same canonical
        // order the kernel uses, so float comparisons are bit-exact.
        let mut sizes: BTreeMap<TupleId, Vec<usize>> = BTreeMap::new();
        for s in &mis {
            for &t in s {
                sizes.entry(t).or_default().push(s.len());
            }
        }
        for ks in sizes.values_mut() {
            ks.sort_unstable();
        }

        // The batch kernel over the engine's whole-database listing.
        let batch = component_tuple_scores(
            &engine::minimal_inconsistent_subsets(&inst.db, &inst.cs, None).subsets,
        );
        let mut comp = IncrementalIndex::build(inst.db, inst.cs).unwrap();

        let scores = comp.tuple_measures();
        // The component-scoped index and the batch path agree bit for bit.
        assert_eq!(scores, batch, "seed {seed}: index vs batch skew");

        // Exactly the problematic tuples appear, each matching the oracle.
        assert_eq!(scores.len(), sizes.len(), "seed {seed}");
        if mis.is_empty() {
            assert!(scores.is_empty(), "seed {seed}: consistent yet scored");
        }
        for sc in &scores {
            let ks = &sizes[&sc.tuple];
            assert_eq!(sc.cbm, ks.len() as f64, "seed {seed} cbm");
            let cim = ks.iter().fold(0.0, |acc, &k| acc + 1.0 / k as f64);
            assert_eq!(sc.cim, cim, "seed {seed} cim");
            assert_eq!(sc.pim, 1.0, "seed {seed} pim");
            assert_eq!(sc.rim, 1.0 / ks[0] as f64, "seed {seed} rim");
        }

        // Tuples outside every MIS carry exactly zero responsibility.
        let free: Vec<TupleId> = comp.db().ids().filter(|t| !sizes.contains_key(t)).collect();
        for t in free {
            let z = comp.tuple_measure(t).unwrap();
            assert_eq!((z.cbm, z.cim, z.pim, z.rim), (0.0, 0.0, 0.0, 0.0));
        }

        // The scores re-aggregate to the whole-database measures.
        let cim_sum: f64 = scores.iter().map(|s| s.cim).sum();
        let pim_sum: f64 = scores.iter().map(|s| s.pim).sum();
        assert!(
            (cim_sum - comp.i_mi()).abs() < 1e-9,
            "seed {seed}: Σcim = {cim_sum} vs I_MI = {}",
            comp.i_mi()
        );
        assert_eq!(pim_sum, comp.i_p(), "seed {seed}: Σpim vs I_P");
        assert_eq!(comp.i_mi(), mis.len() as f64, "seed {seed}");
    }
}

#[test]
fn incremental_index_matches_oracle_after_random_ops() {
    use inconsist::incremental::IncrementalIndex;
    for seed in 100..130 {
        let inst = random_instance(seed);
        let (s, r, t) = (inst.db.schema().clone(), RelId(0), RelId(1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let mut idx = IncrementalIndex::build(inst.db, inst.cs).unwrap();
        for _ in 0..12 {
            let ids: Vec<TupleId> = idx.db().ids().collect();
            match rng.gen_range(0..3) {
                0 => {
                    let rel = if rng.gen_bool(0.6) { r } else { t };
                    let fact = if rel == r {
                        Fact::new(
                            rel,
                            [
                                Value::int(rng.gen_range(0..3)),
                                Value::int(rng.gen_range(0..3)),
                                Value::float(1.0),
                            ],
                        )
                    } else {
                        Fact::new(
                            rel,
                            [
                                Value::int(rng.gen_range(0..3)),
                                Value::int(rng.gen_range(0..3)),
                            ],
                        )
                    };
                    idx.insert(fact).unwrap();
                }
                1 if !ids.is_empty() => {
                    idx.delete(ids[rng.gen_range(0..ids.len())]);
                }
                _ if !ids.is_empty() => {
                    let tid = ids[rng.gen_range(0..ids.len())];
                    let fact = idx.db().fact(tid).unwrap();
                    let arity = fact.values.len();
                    let attr = AttrId(rng.gen_range(0..arity.min(2)) as u16);
                    let _ = idx.update(tid, attr, Value::int(rng.gen_range(0..3)));
                }
                _ => {}
            }
        }
        let mut expected = naive_mi(idx.db(), idx.constraints());
        expected.sort();
        let mut actual: Vec<Vec<TupleId>> =
            idx.minimal_subsets().into_iter().map(Vec::from).collect();
        actual.sort();
        assert_eq!(actual, expected, "seed {seed}");
        let _ = s;
    }
}
