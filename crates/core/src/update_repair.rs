//! `I_R` under the update repair system (§5.3).
//!
//! The minimum number of single-cell updates needed to reach consistency.
//! This is NP-hard already for simple FD sets \[42\] and, unlike the deletion
//! case, has no known tractable linear relaxation (§5.3 poses that as an
//! open problem). We therefore provide:
//!
//! * an *exact* iterative-deepening search for small databases (the paper
//!   itself only reports update-repair values on the 5-tuple running
//!   example, Table 1), complete thanks to two standard observations:
//!   any repair must touch a cell of a currently violated constraint, and
//!   candidate values can be restricted to the active domain plus fresh
//!   constants;
//! * a greedy hill-climbing *upper bound* for larger inputs.

use crate::repair::fresh_value;
use inconsist_constraints::{engine, ConstraintSet};
use inconsist_relational::{ActiveDomain, AttrId, Database, RelId, TupleId, Value, ValueKind};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Options for the exact update-repair search.
#[derive(Clone, Copy, Debug)]
pub struct UpdateRepairOptions {
    /// Maximum repair size considered before giving up.
    pub max_updates: usize,
    /// Node budget across the whole iterative deepening.
    pub budget: u64,
    /// Allow fresh values outside the active domain (the paper's formal
    /// model assumes a countably infinite domain `Val`, §5.3). Setting this
    /// to `false` restricts updates to the active domain — the semantics
    /// that reproduces the paper's Table 1 values (4 and 3 on the running
    /// example); with fresh values allowed the true optima are 3 and 2,
    /// because moving a tuple's FD *key* to a fresh value detaches it from
    /// its group (see EXPERIMENTS.md).
    pub allow_fresh: bool,
}

impl Default for UpdateRepairOptions {
    fn default() -> Self {
        UpdateRepairOptions {
            max_updates: 8,
            budget: 5_000_000,
            allow_fresh: true,
        }
    }
}

/// Exact minimum number of attribute updates to make `db` satisfy `cs`
/// (unit cost per changed cell). `None` when the budget or `max_updates`
/// is exhausted before an answer is proven.
pub fn min_update_repair(
    cs: &ConstraintSet,
    db: &Database,
    options: &UpdateRepairOptions,
) -> Option<usize> {
    if engine::is_consistent(db, cs) {
        return Some(0);
    }
    let mut budget = options.budget;
    for k in 1..=options.max_updates {
        let mut db = db.clone();
        let mut fresh_counter = 0usize;
        match dfs(
            cs,
            &mut db,
            k,
            &mut budget,
            &mut fresh_counter,
            options.allow_fresh,
        ) {
            SearchResult::Found => return Some(k),
            SearchResult::Exhausted => {}
            SearchResult::OutOfBudget => return None,
        }
    }
    None
}

enum SearchResult {
    Found,
    Exhausted,
    OutOfBudget,
}

fn first_violation(cs: &ConstraintSet, db: &Database) -> Option<Vec<TupleId>> {
    let mut found: Option<Vec<TupleId>> = None;
    for dc in cs.dcs() {
        engine::for_each_violation(db, dc, &mut |set: &[TupleId]| {
            found = Some(set.to_vec());
            ControlFlow::Break(())
        });
        if found.is_some() {
            break;
        }
    }
    found
}

fn dfs(
    cs: &ConstraintSet,
    db: &mut Database,
    k: usize,
    budget: &mut u64,
    fresh_counter: &mut usize,
    allow_fresh: bool,
) -> SearchResult {
    if *budget == 0 {
        return SearchResult::OutOfBudget;
    }
    *budget -= 1;
    let Some(violation) = first_violation(cs, db) else {
        return SearchResult::Found;
    };
    if k == 0 {
        return SearchResult::Exhausted;
    }
    // Any repair must update a constrained cell of a tuple in this
    // violation.
    let mut cells: Vec<(TupleId, RelId, AttrId)> = Vec::new();
    for &t in &violation {
        let rel = db.fact(t).expect("tuple in violation").rel;
        for attr in cs.constrained_attributes(rel) {
            cells.push((t, rel, attr));
        }
    }
    for (t, rel, attr) in cells {
        let kind = db.relation_schema(rel).attribute(attr).kind;
        let dom = ActiveDomain::of(db, rel, attr);
        let current = db.fact(t).expect("tuple exists").value(attr).clone();
        let mut candidates: Vec<Value> = dom
            .iter()
            .map(|(v, _)| v.clone())
            .filter(|v| *v != current)
            .collect();
        if allow_fresh {
            if let Some(f) = unique_fresh(&dom, kind, fresh_counter) {
                candidates.push(f);
            }
        }
        for v in candidates {
            let old = db
                .update(t, attr, v)
                .expect("typed candidate")
                .expect("tuple exists");
            match dfs(cs, db, k - 1, budget, fresh_counter, allow_fresh) {
                SearchResult::Found => return SearchResult::Found,
                SearchResult::OutOfBudget => {
                    db.update(t, attr, old)
                        .expect("restore")
                        .expect("tuple exists");
                    return SearchResult::OutOfBudget;
                }
                SearchResult::Exhausted => {}
            }
            db.update(t, attr, old)
                .expect("restore")
                .expect("tuple exists");
        }
    }
    SearchResult::Exhausted
}

/// A fresh value distinct from everything previously generated in this
/// search (distinct fresh constants never join with anything).
fn unique_fresh(dom: &ActiveDomain, kind: ValueKind, counter: &mut usize) -> Option<Value> {
    *counter += 1;
    match kind {
        ValueKind::Int => {
            let max = dom
                .iter()
                .filter_map(|(v, _)| v.as_int())
                .max()
                .unwrap_or(0);
            Some(Value::int(max.saturating_add(*counter as i64)))
        }
        ValueKind::Float => {
            let max = dom
                .iter()
                .filter_map(|(v, _)| v.as_f64())
                .fold(0.0f64, f64::max);
            Some(Value::float(max + *counter as f64))
        }
        ValueKind::Str => Some(Value::str(format!("⊥u{counter}"))),
        ValueKind::Null => fresh_value(dom, kind),
    }
}

/// Greedy upper bound on the update-repair cost: repeatedly apply the
/// single-cell update that removes the most minimal violations, preferring
/// fresh values on ties. Capped at `max_steps`; returns `None` if the cap
/// is reached while still inconsistent.
pub fn greedy_update_repair(cs: &ConstraintSet, db: &Database, max_steps: usize) -> Option<usize> {
    let mut db = db.clone();
    let mut steps = 0usize;
    let mut fresh_counter = 0usize;
    while steps < max_steps {
        let mi = engine::minimal_inconsistent_subsets(&db, cs, Some(200_000));
        if mi.subsets.is_empty() {
            return Some(steps);
        }
        // Cells of the most-implicated tuples first.
        let mut tuple_load: std::collections::HashMap<TupleId, usize> =
            std::collections::HashMap::new();
        for s in &mi.subsets {
            for &t in s.iter() {
                *tuple_load.entry(t).or_insert(0) += 1;
            }
        }
        let mut hot: Vec<(usize, TupleId)> = tuple_load.iter().map(|(&t, &c)| (c, t)).collect();
        hot.sort_by(|a, b| b.cmp(a));
        let mut best: Option<(usize, TupleId, AttrId, Value)> = None;
        let baseline = mi.subsets.len();
        for &(_, t) in hot.iter().take(4) {
            let rel = db.fact(t).expect("tuple").rel;
            for attr in cs.constrained_attributes(rel) {
                let kind = db.relation_schema(rel).attribute(attr).kind;
                let dom = ActiveDomain::of(&db, rel, attr);
                let current = db.fact(t).expect("tuple").value(attr).clone();
                let mut candidates: Vec<Value> = dom
                    .iter()
                    .take(8)
                    .map(|(v, _)| v.clone())
                    .filter(|v| *v != current)
                    .collect();
                if let Some(f) = unique_fresh(&dom, kind, &mut fresh_counter) {
                    candidates.push(f);
                }
                for v in candidates {
                    let old = db
                        .update(t, attr, v.clone())
                        .expect("typed")
                        .expect("tuple");
                    let after = engine::minimal_inconsistent_subsets(&db, cs, Some(200_000))
                        .subsets
                        .len();
                    db.update(t, attr, old).expect("restore").expect("tuple");
                    if after < baseline && best.as_ref().is_none_or(|(b, ..)| after < *b) {
                        best = Some((after, t, attr, v));
                    }
                }
            }
        }
        let Some((_, t, attr, v)) = best else {
            // Stuck (the situation of Example 11): fall back to deleting by
            // update — no single update helps, so give up on the greedy
            // bound.
            return None;
        };
        db.update(t, attr, v).expect("typed").expect("tuple");
        steps += 1;
    }
    None
}

/// `I_R` under the update repair system, as an [`crate::measures::InconsistencyMeasure`]:
/// exact via [`min_update_repair`], reporting a timeout when the search
/// budget is exhausted. Only suitable for small databases.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateMinimumRepair {
    /// Search options.
    pub options: UpdateRepairOptions,
}

impl crate::measures::InconsistencyMeasure for UpdateMinimumRepair {
    fn name(&self) -> &'static str {
        "I_R(upd)"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> crate::measures::MeasureResult {
        match min_update_repair(cs, db, &self.options) {
            Some(k) => Ok(k as f64),
            None => Err(crate::measures::MeasureError::Timeout),
        }
    }
}

/// The set of tuples touched by some fixed optimal update repair is not
/// unique; for reporting we expose only the count. This helper returns the
/// problematic tuples as a convenient proxy for UIs.
pub fn problematic_tuples(cs: &ConstraintSet, db: &Database) -> BTreeSet<TupleId> {
    engine::minimal_inconsistent_subsets(db, cs, Some(1_000_000)).participants()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_constraints::Fd;
    use inconsist_relational::{relation, Fact, Schema};
    use std::sync::Arc;

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

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn consistent_needs_zero() {
        let (s, r) = schema4();
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(
            r,
            std::iter::repeat_with(|| Value::int(1)).take(4),
        ))
        .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [a(0)], [a(1)]));
        assert_eq!(min_update_repair(&cs, &db, &Default::default()), Some(0));
    }

    #[test]
    fn single_fd_conflict_needs_one() {
        let (s, r) = schema4();
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(
            r,
            [Value::int(1), Value::int(1), Value::int(0), Value::int(0)],
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [Value::int(1), Value::int(2), Value::int(0), Value::int(0)],
        ))
        .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [a(0)], [a(1)]));
        assert_eq!(min_update_repair(&cs, &db, &Default::default()), Some(1));
    }

    #[test]
    fn example10_two_fds_need_two_updates() {
        // §5.3 Example 10: R(0,0,0,0), R(0,1,0,1); Σ = {A→B, C→D}.
        // No single update resolves both conflicts → exactly 2.
        let (s, r) = schema4();
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(
            r,
            std::iter::repeat_with(|| Value::int(0)).take(4),
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [Value::int(0), Value::int(1), Value::int(0), Value::int(1)],
        ))
        .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [a(0)], [a(1)]));
        cs.add_fd(Fd::new(r, [a(2)], [a(3)]));
        assert_eq!(min_update_repair(&cs, &db, &Default::default()), Some(2));
    }

    #[test]
    fn fresh_values_can_split_groups() {
        // Three facts agreeing on A with pairwise-different B: changing A of
        // one fact to a fresh value resolves two conflicts at once.
        let (s, r) = schema4();
        let mut db = Database::new(Arc::clone(&s));
        for b in 0..3 {
            db.insert(Fact::new(
                r,
                [Value::int(1), Value::int(b), Value::int(0), Value::int(0)],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [a(0)], [a(1)]));
        // Optimal: 2 updates (e.g. move two facts out of the group, or set
        // two B values equal to the third).
        assert_eq!(min_update_repair(&cs, &db, &Default::default()), Some(2));
    }

    #[test]
    fn greedy_upper_bounds_exact() {
        let (s, r) = schema4();
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(
            r,
            [Value::int(1), Value::int(1), Value::int(0), Value::int(0)],
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [Value::int(1), Value::int(2), Value::int(0), Value::int(0)],
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [Value::int(2), Value::int(5), Value::int(1), Value::int(0)],
        ))
        .unwrap();
        db.insert(Fact::new(
            r,
            [Value::int(2), Value::int(5), Value::int(1), Value::int(1)],
        ))
        .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [a(0)], [a(1)]));
        cs.add_fd(Fd::new(r, [a(2)], [a(3)]));
        let exact = min_update_repair(&cs, &db, &Default::default()).unwrap();
        let greedy = greedy_update_repair(&cs, &db, 32).unwrap();
        assert!(greedy >= exact);
        assert!(exact >= 1);
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let (s, r) = schema4();
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..6 {
            db.insert(Fact::new(
                r,
                [Value::int(1), Value::int(i), Value::int(0), Value::int(0)],
            ))
            .unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [a(0)], [a(1)]));
        let opts = UpdateRepairOptions {
            max_updates: 8,
            budget: 3,
            allow_fresh: true,
        };
        assert_eq!(min_update_repair(&cs, &db, &opts), None);
    }
}
