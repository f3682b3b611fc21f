//! Tractable `I_R` for FD sets — the polynomial case of §5.1.
//!
//! The paper (citing \[42\]) notes that *"if Σ consists of a single FD per
//! relation (which is a commonly studied case, e.g., key constraints)
//! then `I_R(Σ, D)` can be computed in polynomial time."* This module
//! implements that case directly, slightly generalized to the
//! syntactically recognizable closure of it: all (non-trivial) FDs of a
//! relation sharing one determinant set `X`, which is equivalent to the
//! single FD `X → Y₁ ∪ … ∪ Yₖ`.
//!
//! The algorithm avoids materializing the conflict graph altogether: the
//! optimal deletion repair keeps, within every `X`-block, exactly the
//! heaviest `Y`-agreement class and deletes the rest —
//! `O(n)` with hashing instead of the `O(n²)` conflict self-join followed
//! by an (exponential in the worst case) vertex-cover search. The tests
//! pin the result to the exact solver.
//!
//! The full dichotomy of \[42\] (which FD sets admit polynomial optimal
//! subset repairs, e.g. via LHS-marriage simplification) is broader than
//! this syntactic class; sets outside the class fall back to the exact
//! branch-and-bound, so the fast path is sound but not complete — the
//! honest trade-off for staying within what the paper itself states.

use inconsist_constraints::{ConstraintSet, Fd};
use inconsist_relational::{AttrId, Database, RelId, TupleId, Value};
use std::collections::{BTreeSet, HashMap};

/// Outcome of [`classify_fds`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdTractability {
    /// No non-trivial constraints at all: `I_R = 0`.
    Empty,
    /// Every relation's non-trivial FDs share one determinant set; the
    /// payload maps each constrained relation to its merged FD.
    CommonLhs(Vec<Fd>),
    /// Outside the syntactic class (or not an FD set) — use the exact
    /// solver.
    Unknown,
}

/// Classifies a constraint set against the §5.1 tractable class.
pub fn classify_fds(cs: &ConstraintSet) -> FdTractability {
    if !cs.is_fd_set() {
        return FdTractability::Unknown;
    }
    let mut merged: HashMap<RelId, Fd> = HashMap::new();
    for fd in cs.fds() {
        if fd.is_trivial() {
            continue;
        }
        match merged.entry(fd.rel) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(fd);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().lhs != fd.lhs {
                    return FdTractability::Unknown;
                }
                let rhs: BTreeSet<AttrId> = e.get().rhs.union(&fd.rhs).copied().collect();
                e.get_mut().rhs = rhs;
            }
        }
    }
    if merged.is_empty() {
        return FdTractability::Empty;
    }
    let mut fds: Vec<Fd> = merged.into_values().collect();
    fds.sort_by_key(|f| f.rel);
    FdTractability::CommonLhs(fds)
}

/// The deletions of an optimal repair for one merged FD `X → Y`: within
/// each `X`-block keep the heaviest `Y∖X`-agreement class, delete the rest.
fn repair_one_fd(db: &Database, fd: &Fd) -> Vec<TupleId> {
    let dependents: Vec<AttrId> = fd.rhs.difference(&fd.lhs).copied().collect();
    if dependents.is_empty() {
        return Vec::new();
    }
    // X-block → (Y-class → (weight, members)).
    type Classes = HashMap<Vec<Value>, (f64, Vec<TupleId>)>;
    let mut blocks: HashMap<Vec<Value>, Classes> = HashMap::new();
    for f in db.scan(fd.rel) {
        let x: Vec<Value> = fd.lhs.iter().map(|a| f.values[a.idx()].clone()).collect();
        let y: Vec<Value> = dependents
            .iter()
            .map(|a| f.values[a.idx()].clone())
            .collect();
        let class = blocks.entry(x).or_default().entry(y).or_default();
        class.0 += db.cost_of(f.id);
        class.1.push(f.id);
    }
    let mut deletions = Vec::new();
    for classes in blocks.values() {
        if classes.len() <= 1 {
            continue;
        }
        // Keep the heaviest class; deterministic tie-break on members.
        let keep = classes
            .values()
            .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
            .expect("nonempty block");
        for class in classes.values() {
            if std::ptr::eq(class, keep) {
                continue;
            }
            deletions.extend(class.1.iter().copied());
        }
    }
    deletions
}

/// Exact `I_R` (deletions) with its witness repair, when `cs` falls in
/// the tractable class; `None` otherwise. Runs in `O(|D|)` time after
/// hashing — no conflict materialization, no search budget.
///
/// The deletions are ascending and the cost is the `0.0`-started fold of
/// their costs in that order (the rule of `VertexCover::weight`), so the
/// value does not depend on hash iteration order.
pub fn fast_min_repair(cs: &ConstraintSet, db: &Database) -> Option<(f64, Vec<TupleId>)> {
    let fds = match classify_fds(cs) {
        FdTractability::Empty => Vec::new(),
        FdTractability::CommonLhs(fds) => fds,
        FdTractability::Unknown => return None,
    };
    let mut deletions: Vec<TupleId> = fds.iter().flat_map(|fd| repair_one_fd(db, fd)).collect();
    deletions.sort();
    deletions.dedup();
    let cost = deletions.iter().fold(0.0, |sum, &t| sum + db.cost_of(t));
    Some((cost, deletions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_constraints::engine;
    use inconsist_relational::{relation, Fact, Schema, ValueKind};
    use inconsist_solver::{component_min_repair, Budget};
    use rand::prelude::*;
    use std::sync::Arc;

    fn schema() -> (Arc<Schema>, RelId) {
        let mut s = Schema::new();
        let r = s
            .add_relation(
                relation(
                    "R",
                    &[
                        ("A", ValueKind::Int),
                        ("B", ValueKind::Int),
                        ("C", ValueKind::Int),
                        ("W", ValueKind::Float),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        s.set_cost_attr(r, "W").unwrap();
        (Arc::new(s), r)
    }

    #[test]
    fn classification() {
        let (s, r) = schema();
        let mut single = ConstraintSet::new(Arc::clone(&s));
        single.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        assert!(matches!(
            classify_fds(&single),
            FdTractability::CommonLhs(_)
        ));

        // Same LHS, two FDs → merged, still tractable.
        let mut common = ConstraintSet::new(Arc::clone(&s));
        common.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        common.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
        match classify_fds(&common) {
            FdTractability::CommonLhs(fds) => {
                assert_eq!(fds.len(), 1);
                assert_eq!(fds[0].rhs.len(), 2);
            }
            other => panic!("{other:?}"),
        }

        // Different LHS → outside the class.
        let mut two = ConstraintSet::new(Arc::clone(&s));
        two.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        two.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        assert_eq!(classify_fds(&two), FdTractability::Unknown);

        // Trivial FDs are ignored; an all-trivial set is Empty.
        let mut trivial = ConstraintSet::new(Arc::clone(&s));
        trivial.add_fd(Fd::new(r, [AttrId(0), AttrId(1)], [AttrId(1)]));
        assert_eq!(classify_fds(&trivial), FdTractability::Empty);

        // Non-FD constraints disqualify.
        let mut dc = ConstraintSet::new(Arc::clone(&s));
        dc.add_dc(
            inconsist_constraints::dc::build::unary(
                "u",
                r,
                vec![inconsist_constraints::dc::build::uu(
                    AttrId(0),
                    inconsist_constraints::CmpOp::Gt,
                    AttrId(1),
                )],
                &s,
            )
            .unwrap(),
        );
        assert_eq!(classify_fds(&dc), FdTractability::Unknown);
    }

    #[test]
    fn key_constraint_keeps_heaviest_class() {
        let (s, r) = schema();
        let mut db = Database::new(Arc::clone(&s));
        // Block A=1: classes B=1 (weight 3.0) and B=2 (weight 1.0 + 1.0).
        db.insert(Fact::new(
            r,
            [
                Value::int(1),
                Value::int(1),
                Value::int(0),
                Value::float(3.0),
            ],
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [
                Value::int(1),
                Value::int(2),
                Value::int(0),
                Value::float(1.0),
            ],
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [
                Value::int(1),
                Value::int(2),
                Value::int(1),
                Value::float(1.0),
            ],
        ))
        .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let (cost, deletions) = fast_min_repair(&cs, &db).unwrap();
        assert_eq!(cost, 2.0); // delete the two weight-1 facts
        assert_eq!(deletions.len(), 2);
        let mut repaired = db.clone();
        for t in deletions {
            repaired.delete(t);
        }
        assert!(engine::is_consistent(&repaired, &cs));
    }

    #[test]
    fn consensus_fd_empty_lhs() {
        // ∅ → B: all facts must agree on B; one global block.
        let (s, r) = schema();
        let mut db = Database::new(Arc::clone(&s));
        for (b, w) in [(1, 1.0), (1, 1.0), (2, 5.0)] {
            db.insert(Fact::new(
                r,
                [Value::int(0), Value::int(b), Value::int(0), Value::float(w)],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [], [AttrId(1)]));
        let (cost, _) = fast_min_repair(&cs, &db).unwrap();
        assert_eq!(cost, 2.0); // keep the weight-5 fact, drop both others
    }

    #[test]
    fn repeated_calls_return_the_ascending_fold_of_the_deletions() {
        // Non-dyadic costs: a sum taken in another order can differ in the
        // last bit.
        let (s, r) = schema();
        let mut rng = StdRng::seed_from_u64(5);
        let mut db = Database::new(Arc::clone(&s));
        for _ in 0..60 {
            db.insert(Fact::new(
                r,
                [
                    Value::int(rng.gen_range(0..12)),
                    Value::int(rng.gen_range(0..4)),
                    Value::int(0),
                    Value::float([0.1, 0.3, 0.7, 1.9][rng.gen_range(0..4)]),
                ],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let (cost, deletions) = fast_min_repair(&cs, &db).unwrap();
        assert!(deletions.windows(2).all(|p| p[0] < p[1]));
        let fold = deletions.iter().fold(0.0, |sum, &t| sum + db.cost_of(t));
        assert_eq!(cost.to_bits(), fold.to_bits());
        for _ in 0..16 {
            let (again, same) = fast_min_repair(&cs, &db).unwrap();
            assert_eq!(again.to_bits(), cost.to_bits());
            assert_eq!(same, deletions);
        }
    }

    #[test]
    fn matches_exact_solver_on_random_weighted_instances() {
        let (s, r) = schema();
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..40 {
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..rng.gen_range(2..25) {
                db.insert(Fact::new(
                    r,
                    [
                        Value::int(rng.gen_range(0..3)),
                        Value::int(rng.gen_range(0..3)),
                        Value::int(rng.gen_range(0..3)),
                        Value::float([0.5, 1.0, 2.0, 0.1, 0.3, 0.7, 1.9][rng.gen_range(0..7)]),
                    ],
                ))
                .unwrap();
            }
            let mut cs = ConstraintSet::new(Arc::clone(&s));
            cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
            if rng.gen_bool(0.5) {
                cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
            }
            let (fast, deletions) = fast_min_repair(&cs, &db).unwrap();
            // The general solver over the minimal subsets, not
            // `MinimumRepair`, which answers this class with `fast_min_repair`.
            let subsets = engine::minimal_inconsistent_subsets(&db, &cs, None).subsets;
            let exact = component_min_repair(&db, &subsets, &mut Budget::steps(u64::MAX))
                .unwrap()
                .weight;
            assert!(
                (fast - exact).abs() < 1e-9,
                "trial {trial}: {fast} vs {exact}"
            );
            let mut repaired = db.clone();
            for t in deletions {
                repaired.delete(t);
            }
            assert!(engine::is_consistent(&repaired, &cs), "trial {trial}");
        }
    }
}
