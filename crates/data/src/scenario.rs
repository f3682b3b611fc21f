//! The scale-scenario suite: a deterministic TPC-H-style multi-relation
//! generator plus a ground-truth violation injector.
//!
//! The paper's experiments (§6) evaluate the measures under *controlled*
//! violation rates; the `-7822` exemplar pipeline (SNIPPETS.md) runs a
//! grid of scale factor × violation ratio × DC-set × seed over TPC-H
//! lineitem/orders data with per-tuple inconsistency scores. This module
//! is the native equivalent over our own engine:
//!
//! * [`generate_scenario`] builds a two-relation `orders`/`lineitem`
//!   database (FK `lineitem.OrderKey → orders.OrderKey`) that satisfies
//!   every constraint of the chosen [`DcSet`]. Generation is a single
//!   seeded [`StdRng`] stream — deterministic in `(scale_factor, seed)`
//!   and trivially independent of any thread count, because no parallel
//!   code runs.
//! * [`inject`] dirties a controlled fraction of the tuples, one DC
//!   *shape* at a time (FD pair, unary order, cross-relation FK denial),
//!   and reports **exactly** the tuples it made inconsistent — the ground
//!   truth a from-scratch violation enumeration must reproduce
//!   ([`enumerate_dirty`] pins that equality in tests).
//!
//! Every injection is constructed so its violation sets touch only the
//! reported tuples: an FD injection copies its partner's key *and* its
//! ship/receipt window (so no accidental order or FK violation appears),
//! an order injection raises `Ship` above `Receipt` (which can never
//! create an FK violation), and an FK injection lowers `Ship` below the
//! parent order's `Date` (which can never create an order violation).
//! That discipline is what makes the dirty set exact rather than "at
//! least these".

use crate::noise::CellEdit;
use inconsist_constraints::dc::{build, Atom};
use inconsist_constraints::engine;
use inconsist_constraints::{CmpOp, ConstraintSet, DenialConstraint, Predicate};
use inconsist_relational::{
    relation, AttrId, Database, Fact, RelId, Schema, TupleId, Value, ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Orders generated at scale factor 1.0 (TPC-H scales are fractions of
/// 1.5M orders; ours are fractions of this CI-sized base).
pub const ORDERS_PER_SF: f64 = 15_000.0;

/// `orders` attribute indices (see [`generate_scenario`]).
pub mod orders_attr {
    use inconsist_relational::AttrId;
    /// Primary key.
    pub const ORDER_KEY: AttrId = AttrId(0);
    /// Customer foreign key (no constraint on it).
    pub const CUST_KEY: AttrId = AttrId(1);
    /// Order status code.
    pub const STATUS: AttrId = AttrId(2);
    /// Total price.
    pub const TOTAL: AttrId = AttrId(3);
    /// Order date (days since epoch).
    pub const DATE: AttrId = AttrId(4);
    /// Priority class.
    pub const PRIORITY: AttrId = AttrId(5);
}

/// `lineitem` attribute indices (see [`generate_scenario`]).
pub mod lineitem_attr {
    use inconsist_relational::AttrId;
    /// FK to `orders.OrderKey`.
    pub const ORDER_KEY: AttrId = AttrId(0);
    /// Line number within the order; `(OrderKey, LineNo)` is the key.
    pub const LINE_NO: AttrId = AttrId(1);
    /// Part foreign key; determined by the key (the FD the injector breaks).
    pub const PART_KEY: AttrId = AttrId(2);
    /// Quantity.
    pub const QTY: AttrId = AttrId(3);
    /// Extended price.
    pub const PRICE: AttrId = AttrId(4);
    /// Ship date (days since epoch); `Date ≤ Ship ≤ Receipt` when clean.
    pub const SHIP: AttrId = AttrId(5);
    /// Receipt date.
    pub const RECEIPT: AttrId = AttrId(6);
}

/// Which denial constraints govern the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DcSet {
    /// Single-relation constraints only: the `(OrderKey, LineNo) → PartKey`
    /// FD and the unary `Ship ≤ Receipt` order DC on `lineitem`. This set
    /// is expressible in the single-relation `.dc` text format, so it is
    /// the one served workloads (CSV + `.dc` sessions) use.
    Core,
    /// [`Core`](DcSet::Core) plus the cross-relation FK denial
    /// `¬(l.OrderKey = o.OrderKey ∧ l.Ship < o.Date)` — a lineitem cannot
    /// ship before its order was placed. Built programmatically (two atoms
    /// over different relations); still anti-monotonic, so it rides the
    /// incremental index like any DC.
    Full,
}

impl DcSet {
    /// Both DC-sets, in grid order.
    pub fn all() -> [DcSet; 2] {
        [DcSet::Core, DcSet::Full]
    }

    /// Stable name used in bench JSON cell ids.
    pub fn name(self) -> &'static str {
        match self {
            DcSet::Core => "core",
            DcSet::Full => "full",
        }
    }

    /// The violation shapes this DC-set can express, in injection
    /// round-robin order (a pair shape first so small targets still mix).
    pub fn shapes(self) -> &'static [Shape] {
        match self {
            DcSet::Core => &[Shape::Fd, Shape::Order],
            DcSet::Full => &[Shape::Fd, Shape::Order, Shape::Fk],
        }
    }
}

/// One injectable violation shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Break the `(OrderKey, LineNo) → PartKey` FD: the victim adopts a
    /// partner's key with a fresh part. Dirties exactly 2 tuples.
    Fd,
    /// Break the unary `Ship ≤ Receipt` DC: raise `Ship` past `Receipt`.
    /// Dirties exactly 1 tuple — the granularity that makes any target
    /// tuple count exactly reachable.
    Order,
    /// Break the cross-relation FK denial: lower `Ship` below the parent
    /// order's `Date`. Dirties exactly 2 tuples (the lineitem *and* its
    /// parent order). Only available under [`DcSet::Full`].
    Fk,
}

impl Shape {
    /// Tuples one injection of this shape dirties.
    pub fn cost(self) -> usize {
        match self {
            Shape::Order => 1,
            Shape::Fd | Shape::Fk => 2,
        }
    }
}

/// What [`generate_scenario`] asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Fraction of [`ORDERS_PER_SF`] orders (≈ 5× that many tuples total,
    /// lineitems included).
    pub scale_factor: f64,
    /// Constraint roster.
    pub dc_set: DcSet,
    /// Generation seed.
    pub seed: u64,
}

/// A generated two-relation instance plus its constraints.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The database (orders and lineitems interleaved per order, in
    /// generation order).
    pub db: Database,
    /// The `orders` relation.
    pub orders: RelId,
    /// The `lineitem` relation.
    pub lineitem: RelId,
    /// The active constraints (see [`DcSet`]).
    pub constraints: ConstraintSet,
    /// Which DC-set [`constraints`](Self::constraints) holds.
    pub dc_set: DcSet,
}

/// Builds the two-relation schema shared by every scenario.
fn scenario_schema() -> (Arc<Schema>, RelId, RelId) {
    let mut s = Schema::new();
    let orders = s
        .add_relation(
            relation(
                "orders",
                &[
                    ("OrderKey", ValueKind::Int),
                    ("CustKey", ValueKind::Int),
                    ("Status", ValueKind::Str),
                    ("Total", ValueKind::Float),
                    ("Date", ValueKind::Int),
                    ("Priority", ValueKind::Int),
                ],
            )
            .expect("static orders schema"),
        )
        .expect("fresh schema");
    let lineitem = s
        .add_relation(
            relation(
                "lineitem",
                &[
                    ("OrderKey", ValueKind::Int),
                    ("LineNo", ValueKind::Int),
                    ("PartKey", ValueKind::Int),
                    ("Qty", ValueKind::Int),
                    ("Price", ValueKind::Float),
                    ("Ship", ValueKind::Int),
                    ("Receipt", ValueKind::Int),
                ],
            )
            .expect("static lineitem schema"),
        )
        .expect("fresh schema");
    (Arc::new(s), orders, lineitem)
}

/// The constraints of `dc_set` over the scenario schema.
pub fn scenario_constraints(
    schema: &Arc<Schema>,
    orders: RelId,
    lineitem: RelId,
    dc_set: DcSet,
) -> ConstraintSet {
    use lineitem_attr as li;
    let mut cs = ConstraintSet::new(Arc::clone(schema));
    // (OrderKey, LineNo) → PartKey, as a binary DC on lineitem.
    cs.add_dc(
        build::binary(
            "li_key_fd",
            lineitem,
            vec![
                build::tt(li::ORDER_KEY, CmpOp::Eq, li::ORDER_KEY),
                build::tt(li::LINE_NO, CmpOp::Eq, li::LINE_NO),
                build::tt(li::PART_KEY, CmpOp::Neq, li::PART_KEY),
            ],
            schema,
        )
        .expect("static FD"),
    );
    // A lineitem cannot be received before it ships.
    cs.add_dc(
        build::unary(
            "li_ship_window",
            lineitem,
            vec![build::uu(li::SHIP, CmpOp::Gt, li::RECEIPT)],
            schema,
        )
        .expect("static order DC"),
    );
    if dc_set == DcSet::Full {
        // Cross-relation FK denial: a lineitem of order o cannot ship
        // before o was placed. Two atoms over *different* relations —
        // beyond the single-relation `.dc` text format, hence built here.
        cs.add_dc(
            DenialConstraint::new(
                "li_predates_order",
                vec![Atom { rel: lineitem }, Atom { rel: orders }],
                vec![
                    Predicate::attr_attr(0, li::ORDER_KEY, CmpOp::Eq, 1, orders_attr::ORDER_KEY),
                    Predicate::attr_attr(0, li::SHIP, CmpOp::Lt, 1, orders_attr::DATE),
                ],
                schema,
            )
            .expect("static FK denial"),
        );
    }
    cs
}

/// Generates a clean (constraint-satisfying) scenario instance.
///
/// Deterministic in `(scale_factor, seed)`: one sequential [`StdRng`]
/// stream drives every choice, so two runs — on any machine, under any
/// `--solve-threads` setting — produce bit-identical databases.
pub fn generate_scenario(spec: &ScenarioSpec) -> Scenario {
    let (schema, orders, lineitem) = scenario_schema();
    let n_orders = (spec.scale_factor * ORDERS_PER_SF).round().max(1.0) as i64;
    let part_domain = (n_orders * 2).max(16);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut db = Database::new(Arc::clone(&schema));
    for o in 1..=n_orders {
        let date = rng.gen_range(1_000..9_000i64);
        db.insert(Fact::new(
            orders,
            [
                Value::int(o),
                Value::int(rng.gen_range(1..=n_orders.max(2))),
                Value::str(["O", "F", "P"][rng.gen_range(0..3usize)]),
                Value::float((rng.gen_range(1_000..900_000i64) as f64) / 100.0),
                Value::int(date),
                Value::int(rng.gen_range(1..=5i64)),
            ],
        ))
        .expect("generated order row fits the schema");
        let lines = rng.gen_range(1..=7u32);
        for l in 1..=i64::from(lines) {
            let ship = date + rng.gen_range(1..90i64);
            let receipt = ship + rng.gen_range(0..30i64);
            db.insert(Fact::new(
                lineitem,
                [
                    Value::int(o),
                    Value::int(l),
                    Value::int(rng.gen_range(1..=part_domain)),
                    Value::int(rng.gen_range(1..50i64)),
                    Value::float((rng.gen_range(100..100_000i64) as f64) / 100.0),
                    Value::int(ship),
                    Value::int(receipt),
                ],
            ))
            .expect("generated lineitem row fits the schema");
        }
    }
    let constraints = scenario_constraints(&schema, orders, lineitem, spec.dc_set);
    debug_assert!(enumerate_dirty(&db, &constraints).is_empty());
    Scenario {
        db,
        orders,
        lineitem,
        constraints,
        dc_set: spec.dc_set,
    }
}

/// Ground truth reported by [`inject`].
#[derive(Clone, Debug, Default)]
pub struct Injection {
    /// Exactly the tuples now appearing in some violation — equal to the
    /// union of a from-scratch minimal-violation enumeration.
    pub dirty: BTreeSet<TupleId>,
    /// Every cell edit performed, in application order.
    pub edits: Vec<CellEdit>,
    /// Injections performed per shape.
    pub per_shape: Vec<(Shape, usize)>,
    /// The tuple-count target derived from the requested ratio.
    pub target: usize,
}

/// Dirties `round(ratio × |db|)` tuples — **exactly** (the `Order` shape
/// has granularity 1, so any target is reachable) — cycling through the
/// DC-set's shapes so every constraint kind contributes. Victims,
/// partners and parent orders are always previously-clean tuples, which
/// is what keeps the per-injection dirty sets disjoint and the reported
/// set exact. Deterministic in `seed`.
///
/// Fails when the instance runs out of clean candidates (ratios well
/// above 0.5); grid ratios are far below that.
pub fn inject(sc: &mut Scenario, ratio: f64, seed: u64) -> Result<Injection, String> {
    let target = (ratio * sc.db.len() as f64).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let mut out = Injection {
        target,
        ..Injection::default()
    };
    // Parent lookup: OrderKey → order TupleId.
    let parent: BTreeMap<i64, TupleId> = sc
        .db
        .ids_of(sc.orders)
        .iter()
        .map(|&id| {
            let key = sc
                .db
                .fact(id)
                .expect("live order")
                .value(orders_attr::ORDER_KEY)
                .as_int()
                .expect("int OrderKey");
            (key, id)
        })
        .collect();
    // Candidate pool of still-clean lineitems; picks swap-remove, so one
    // tuple is never victimized twice and termination is guaranteed.
    let mut pool: Vec<TupleId> = sc.db.ids_of(sc.lineitem).to_vec();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let shapes = sc.dc_set.shapes();
    let mut shape_idx = 0usize;
    let mut fresh_part = -1i64;
    let mut remaining = target;
    while remaining > 0 {
        // Pick the next shape that still fits the remaining budget; the
        // unit-cost `Order` shape always fits, so this terminates at 0.
        let mut shape = shapes[shape_idx % shapes.len()];
        shape_idx += 1;
        if shape.cost() > remaining {
            shape = Shape::Order;
        }
        match shape {
            Shape::Order => {
                let v = take_clean(&mut pool, &mut rng, |_| true)
                    .ok_or("injector ran out of clean lineitems")?;
                let receipt = int_of(&sc.db, v, lineitem_attr::RECEIPT);
                edit(
                    sc,
                    &mut out,
                    v,
                    lineitem_attr::SHIP,
                    Value::int(receipt + 1 + rng.gen_range(0..30i64)),
                );
                out.dirty.insert(v);
            }
            Shape::Fd => {
                let v = take_clean(&mut pool, &mut rng, |_| true)
                    .ok_or("injector ran out of clean lineitems")?;
                let p = take_clean(&mut pool, &mut rng, |_| true)
                    .ok_or("injector ran out of FD partners")?;
                // Adopt the partner's key and its entire ship window so
                // the only new violation is the FD pair {v, p}: copying
                // `Ship`/`Receipt` from the clean partner keeps v clean
                // under the order DC and (Full) the FK denial.
                for a in [
                    lineitem_attr::ORDER_KEY,
                    lineitem_attr::LINE_NO,
                    lineitem_attr::SHIP,
                    lineitem_attr::RECEIPT,
                ] {
                    let val = sc.db.fact(p).expect("live partner").value(a).clone();
                    edit(sc, &mut out, v, a, val);
                }
                edit(
                    sc,
                    &mut out,
                    v,
                    lineitem_attr::PART_KEY,
                    Value::int(fresh_part),
                );
                fresh_part -= 1;
                out.dirty.insert(v);
                out.dirty.insert(p);
            }
            Shape::Fk => {
                // The victim's parent order must itself be clean, so the
                // new violation {v, parent} dirties exactly two tuples.
                let dirty = &out.dirty;
                let db = &sc.db;
                let v = take_clean(&mut pool, &mut rng, |t| {
                    let key = int_of(db, t, lineitem_attr::ORDER_KEY);
                    parent.get(&key).is_some_and(|o| !dirty.contains(o))
                })
                .ok_or("injector ran out of lineitems with clean parent orders")?;
                let key = int_of(&sc.db, v, lineitem_attr::ORDER_KEY);
                let o = parent[&key];
                let date = int_of(&sc.db, o, orders_attr::DATE);
                edit(
                    sc,
                    &mut out,
                    v,
                    lineitem_attr::SHIP,
                    Value::int(date - 1 - rng.gen_range(0..30i64)),
                );
                out.dirty.insert(v);
                out.dirty.insert(o);
            }
        }
        remaining -= shape.cost();
        *counts
            .entry(match shape {
                Shape::Fd => "fd",
                Shape::Order => "order",
                Shape::Fk => "fk",
            })
            .or_default() += 1;
    }
    out.per_shape = counts
        .into_iter()
        .map(|(name, n)| {
            let shape = match name {
                "fd" => Shape::Fd,
                "order" => Shape::Order,
                _ => Shape::Fk,
            };
            (shape, n)
        })
        .collect();
    debug_assert_eq!(out.dirty.len(), target);
    Ok(out)
}

/// Swap-removes a random pool entry satisfying `accept`. Scans from a
/// random start so the choice is seed-deterministic yet unbiased enough;
/// returns `None` when no candidate qualifies.
fn take_clean(
    pool: &mut Vec<TupleId>,
    rng: &mut StdRng,
    accept: impl Fn(TupleId) -> bool,
) -> Option<TupleId> {
    if pool.is_empty() {
        return None;
    }
    let start = rng.gen_range(0..pool.len());
    for probe in 0..pool.len() {
        let i = (start + probe) % pool.len();
        if accept(pool[i]) {
            return Some(pool.swap_remove(i));
        }
    }
    None
}

fn int_of(db: &Database, t: TupleId, a: AttrId) -> i64 {
    db.fact(t)
        .expect("live tuple")
        .value(a)
        .as_int()
        .expect("int attribute")
}

fn edit(sc: &mut Scenario, out: &mut Injection, t: TupleId, a: AttrId, new: Value) {
    let old = sc
        .db
        .update(t, a, new.clone())
        .expect("schema-valid edit")
        .expect("live tuple");
    out.edits.push(CellEdit {
        tuple: t,
        attr: a,
        old,
        new,
    });
}

/// From-scratch ground truth: the union of tuples across the
/// inclusion-minimal violation sets of `cs` on `db` — the tuple set
/// `I_P` counts. [`inject`] promises its reported
/// [`dirty`](Injection::dirty) set equals this exactly.
pub fn enumerate_dirty(db: &Database, cs: &ConstraintSet) -> BTreeSet<TupleId> {
    let mut union: HashSet<Box<[TupleId]>> = HashSet::new();
    for dc in cs.dcs() {
        engine::for_each_violation(db, dc, &mut |set: &[TupleId]| {
            union.insert(set.to_vec().into_boxed_slice());
            ControlFlow::Continue(())
        });
    }
    engine::filter_minimal(union)
        .iter()
        .flat_map(|s| s.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(sf: f64, dc_set: DcSet, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            scale_factor: sf,
            dc_set,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic_and_clean() {
        let a = generate_scenario(&spec(0.01, DcSet::Full, 7));
        let b = generate_scenario(&spec(0.01, DcSet::Full, 7));
        assert!(a.db.same_as(&b.db));
        assert!(enumerate_dirty(&a.db, &a.constraints).is_empty());
        let c = generate_scenario(&spec(0.01, DcSet::Full, 8));
        assert!(!a.db.same_as(&c.db), "different seeds differ");
        // Scale factor scales the instance.
        let big = generate_scenario(&spec(0.02, DcSet::Full, 7));
        assert!(big.db.len() > a.db.len());
        assert_eq!(a.db.relation_len(a.orders), 150);
    }

    #[test]
    fn injection_hits_the_target_exactly_with_exact_ground_truth() {
        for dc_set in DcSet::all() {
            for ratio in [0.02, 0.05, 0.1] {
                let mut sc = generate_scenario(&spec(0.01, dc_set, 3));
                let total = sc.db.len();
                let inj = inject(&mut sc, ratio, 11).unwrap();
                assert_eq!(inj.target, (ratio * total as f64).round() as usize);
                assert_eq!(inj.dirty.len(), inj.target, "{dc_set:?} {ratio}");
                let truth = enumerate_dirty(&sc.db, &sc.constraints);
                assert_eq!(inj.dirty, truth, "{dc_set:?} {ratio}");
            }
        }
    }

    #[test]
    fn full_set_injects_all_three_shapes() {
        let mut sc = generate_scenario(&spec(0.01, DcSet::Full, 5));
        let inj = inject(&mut sc, 0.1, 5).unwrap();
        let shapes: Vec<Shape> = inj.per_shape.iter().map(|&(s, _)| s).collect();
        assert!(shapes.contains(&Shape::Fd));
        assert!(shapes.contains(&Shape::Order));
        assert!(shapes.contains(&Shape::Fk));
        // Cross-relation injections dirty order tuples too.
        let orders: Vec<TupleId> = sc.db.ids_of(sc.orders).to_vec();
        assert!(inj.dirty.iter().any(|t| orders.contains(t)));
    }

    #[test]
    fn zero_ratio_is_a_noop() {
        let mut sc = generate_scenario(&spec(0.005, DcSet::Core, 1));
        let before = sc.db.clone();
        let inj = inject(&mut sc, 0.0, 1).unwrap();
        assert!(inj.dirty.is_empty());
        assert!(inj.edits.is_empty());
        assert!(sc.db.same_as(&before));
    }
}
