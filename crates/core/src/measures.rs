//! The inconsistency measures of §3 and §5.
//!
//! An inconsistency measure maps `(Σ, D)` to a number in `[0, ∞)`, is zero
//! on consistent databases, and is invariant under logical equivalence of
//! `Σ` (§3). This module implements the seven measures the paper studies:
//!
//! | measure | definition | implementation |
//! |---|---|---|
//! | `I_d`   | 1 iff inconsistent | early-exit consistency check |
//! | `I_MI`  | `\|MI_Σ(D)\|` | violation engine |
//! | `I_P`   | `\|∪ MI_Σ(D)\|` | violation engine |
//! | `I_MC`  | `\|MC_Σ(D)\| − 1` | cograph DP, else budgeted Bron–Kerbosch |
//! | `I'_MC` | `I_MC` + #self-inconsistencies | same |
//! | `I_R`   | min-cost deletion repair | exact vertex cover / hitting set |
//! | `I_R^lin` | LP relaxation of Fig. 2 | half-integral fractional VC / simplex |
//!
//! The update-repair variant of `I_R` lives in [`crate::update_repair`].
//!
//! Intractable measures (`I_MC`, `I'_MC`, `I_R`) carry step budgets; a
//! `Timeout` result mirrors the paper's 24-hour cutoffs. Quadratic conflict
//! materialization is capped by `violation_limit`; hitting the cap yields a
//! `Truncated` error rather than a silently wrong number. `|MC_Σ(D)|` is
//! counted as an exact `u128`; a count past `u128::MAX` yields an
//! `Overflow` error, never a wrapped value.

use inconsist_constraints::{engine, ConstraintSet, MiResult};
use inconsist_graph::{
    count_maximal_consistent_subsets, count_mis_if_cograph, ConflictGraph, CountError,
};
use inconsist_relational::Database;
use inconsist_solver::{component_min_repair, component_min_repair_lin, Budget, DeletionRepair};
use std::fmt;

/// Why a measure could not produce an exact value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureError {
    /// A step budget was exhausted (`I_MC` enumeration, `I_R` search…).
    Timeout,
    /// The violation cap was hit; the conflict set is incomplete.
    Truncated,
    /// An exact count (`|MC_Σ(D)|`) exceeds `u128::MAX`.
    Overflow,
}

impl From<CountError> for MeasureError {
    fn from(e: CountError) -> Self {
        match e {
            CountError::Budget => MeasureError::Timeout,
            CountError::Overflow => MeasureError::Overflow,
        }
    }
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Timeout => write!(f, "timeout (budget exhausted)"),
            MeasureError::Truncated => write!(f, "truncated (violation cap hit)"),
            MeasureError::Overflow => write!(f, "overflow (count exceeds u128)"),
        }
    }
}

/// Result of evaluating a measure.
pub type MeasureResult = Result<f64, MeasureError>;

/// Budgets and caps shared by the measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureOptions {
    /// Cap on raw violations materialized per evaluation (`None` = ∞).
    pub violation_limit: Option<usize>,
    /// Step budget for maximal-consistent-subset counting.
    pub mis_budget: u64,
    /// Step budget for the exact minimum-repair search.
    pub vc_budget: u64,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            violation_limit: Some(20_000_000),
            mis_budget: 50_000_000,
            vc_budget: 50_000_000,
        }
    }
}

/// An inconsistency measure `I(Σ, D)`.
pub trait InconsistencyMeasure {
    /// Short name as used in the paper ("I_d", "I_MI", …).
    fn name(&self) -> &'static str;
    /// Evaluates the measure.
    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult;
}

fn mi(cs: &ConstraintSet, db: &Database, opts: &MeasureOptions) -> Result<MiResult, MeasureError> {
    let res = engine::minimal_inconsistent_subsets(db, cs, opts.violation_limit);
    if res.complete {
        Ok(res)
    } else {
        Err(MeasureError::Truncated)
    }
}

// ---------------------------------------------------------------------------

/// `I_d`: 1 if inconsistent, 0 otherwise (the drastic measure).
#[derive(Clone, Copy, Debug, Default)]
pub struct Drastic;

impl InconsistencyMeasure for Drastic {
    fn name(&self) -> &'static str {
        "I_d"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        Ok(if engine::is_consistent(db, cs) {
            0.0
        } else {
            1.0
        })
    }
}

/// `I_MI`: the number of minimal inconsistent subsets.
///
/// ```
/// use inconsist::measures::{InconsistencyMeasure, MinimalInconsistentSubsets, MeasureOptions};
/// use inconsist::paper;
///
/// let (d1, constraints) = paper::airport_d1(); // the noisy Fig. 1b instance
/// let i_mi = MinimalInconsistentSubsets { options: MeasureOptions::default() };
/// assert_eq!(i_mi.eval(&constraints, &d1).unwrap(), 7.0); // Table 1
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct MinimalInconsistentSubsets {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for MinimalInconsistentSubsets {
    fn name(&self) -> &'static str {
        "I_MI"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        Ok(mi(cs, db, &self.options)?.count() as f64)
    }
}

/// The per-constraint violation count `Σ_σ |minimal violations of σ|` —
/// the "(F, σ) minimal violations" variant discussed in §5.3 and the
/// semantics of the paper's SQL implementation (each constraint's DISTINCT
/// violating pairs are counted separately, so a pair flagged by two
/// constraints counts twice, unlike `I_MI`).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinimalViolations {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for MinimalViolations {
    fn name(&self) -> &'static str {
        "I_MI^dc"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let per = engine::violations_per_dc(db, cs, self.options.violation_limit);
        if per.iter().any(|d| !d.complete) {
            return Err(MeasureError::Truncated);
        }
        Ok(per.iter().map(|d| d.sets.len()).sum::<usize>() as f64)
    }
}

/// `I_P`: the number of problematic facts (facts in some minimal
/// inconsistent subset).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProblematicFacts {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for ProblematicFacts {
    fn name(&self) -> &'static str {
        "I_P"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        Ok(mi(cs, db, &self.options)?.participants().len() as f64)
    }
}

/// `I_MC`: the number of maximal consistent subsets, minus one.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaximalConsistentSubsets {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

/// `|MC_Σ(D)|` of the database behind `graph`: the tractable class first
/// (P4-free conflict graphs, [40]), budgeted Bron–Kerbosch otherwise.
/// The one `I_MC` count the measures and the suite share.
pub(crate) fn count_mc(graph: &ConflictGraph, mis_budget: u64) -> Result<u128, MeasureError> {
    Ok(count_mis_if_cograph(graph)
        .unwrap_or_else(|| count_maximal_consistent_subsets(graph, mis_budget))?)
}

/// `count_mc` of `MI_Σ(D)`'s conflict graph, with its self-inconsistent
/// tuple count.
fn mc_with_self(
    cs: &ConstraintSet,
    db: &Database,
    opts: &MeasureOptions,
) -> Result<(u128, usize), MeasureError> {
    let graph = ConflictGraph::from_subsets(db, &mi(cs, db, opts)?.subsets);
    Ok((count_mc(&graph, opts.mis_budget)?, graph.excluded_count()))
}

impl InconsistencyMeasure for MaximalConsistentSubsets {
    fn name(&self) -> &'static str {
        "I_MC"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let (count, _) = mc_with_self(cs, db, &self.options)?;
        Ok(count.saturating_sub(1) as f64)
    }
}

/// `I′_MC`: `|MC_Σ(D)| + |SelfInconsistencies(D)| − 1` — the variant that
/// counts contradictory tuples (§3).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaximalConsistentSubsetsWithSelf {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for MaximalConsistentSubsetsWithSelf {
    fn name(&self) -> &'static str {
        "I'_MC"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let (count, self_inc) = mc_with_self(cs, db, &self.options)?;
        let with_self = count
            .checked_add(self_inc as u128)
            .ok_or(MeasureError::Overflow)?;
        Ok(with_self.saturating_sub(1) as f64)
    }
}

/// `I_R` under the subset repair system `R⊆`: the minimum total deletion
/// cost of reaching consistency — exactly the ILP of Fig. 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinimumRepair {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for MinimumRepair {
    fn name(&self) -> &'static str {
        "I_R"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        // §5.1 tractable class (single FD / common determinant per
        // relation): exact in O(|D|), no conflict materialization.
        if let Some((cost, _)) = crate::fd_tract::fast_min_repair(cs, db) {
            return Ok(cost);
        }
        Ok(min_repair(cs, db, &self.options)?.1.weight)
    }
}

/// One optimal deletion repair of `MI_Σ(D)`'s conflict graph, solved by
/// the solver's one `I_R` dispatch (vertex cover or hitting set).
fn min_repair(
    cs: &ConstraintSet,
    db: &Database,
    opts: &MeasureOptions,
) -> Result<(ConflictGraph, DeletionRepair), MeasureError> {
    let subsets = mi(cs, db, opts)?.subsets;
    let graph = ConflictGraph::from_subsets(db, &subsets);
    let repair = component_min_repair(&graph, &subsets, &mut Budget::steps(opts.vc_budget))
        .ok_or(MeasureError::Timeout)?;
    Ok((graph, repair))
}

/// Tuples deleted by one optimal subset repair (the argmin behind
/// [`MinimumRepair`]); used by repair-driven cleaners.
pub fn minimum_repair_deletions(
    cs: &ConstraintSet,
    db: &Database,
    options: &MeasureOptions,
) -> Result<Vec<inconsist_relational::TupleId>, MeasureError> {
    if let Some((_, deletions)) = crate::fd_tract::fast_min_repair(cs, db) {
        return Ok(deletions);
    }
    let (graph, repair) = min_repair(cs, db, options)?;
    Ok(repair.nodes.iter().map(|&v| graph.tuple(v)).collect())
}

/// `I_R^lin`: the linear relaxation of the ILP of Fig. 2 (§5.2) — the
/// paper's new tractable-and-rational measure.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinearMinimumRepair {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for LinearMinimumRepair {
    fn name(&self) -> &'static str {
        "I_R^lin"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let subsets = mi(cs, db, &self.options)?.subsets;
        let graph = ConflictGraph::from_subsets(db, &subsets);
        component_min_repair_lin(&graph, &subsets).ok_or(MeasureError::Timeout)
    }
}

/// The standard roster of measures evaluated in the experiments, boxed for
/// uniform iteration.
///
/// ```
/// use inconsist::measures::{standard_measures, MeasureOptions};
/// use inconsist::paper;
///
/// let (d0, constraints) = paper::airport_d0(); // the clean Fig. 1a instance
/// for measure in standard_measures(MeasureOptions::default()) {
///     // Every measure is zero exactly on consistent databases (§3).
///     assert_eq!(measure.eval(&constraints, &d0).unwrap(), 0.0, "{}", measure.name());
/// }
/// ```
pub fn standard_measures(options: MeasureOptions) -> Vec<Box<dyn InconsistencyMeasure>> {
    vec![
        Box::new(Drastic),
        Box::new(MinimalInconsistentSubsets { options }),
        Box::new(ProblematicFacts { options }),
        Box::new(MaximalConsistentSubsets { options }),
        Box::new(MaximalConsistentSubsetsWithSelf { options }),
        Box::new(MinimumRepair { options }),
        Box::new(LinearMinimumRepair { options }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use inconsist_constraints::{dc::build, CmpOp, Fd};
    use inconsist_relational::{relation, AttrId, Fact, RelId, Schema, Value, ValueKind};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, RelId) {
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
        (Arc::new(s), r)
    }

    fn insert3(db: &mut Database, r: RelId, a: i64, b: i64, c: i64) {
        db.insert(Fact::new(r, [Value::int(a), Value::int(b), Value::int(c)]))
            .unwrap();
    }

    #[test]
    fn all_measures_zero_on_consistent() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        insert3(&mut db, r, 1, 1, 0);
        insert3(&mut db, r, 2, 2, 0);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        for m in standard_measures(MeasureOptions::default()) {
            assert_eq!(m.eval(&cs, &db).unwrap(), 0.0, "{}", m.name());
        }
    }

    #[test]
    fn simple_two_tuple_conflict() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        insert3(&mut db, r, 1, 1, 0);
        insert3(&mut db, r, 1, 2, 0);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions::default();
        assert_eq!(Drastic.eval(&cs, &db).unwrap(), 1.0);
        assert_eq!(
            MinimalInconsistentSubsets { options: opts }
                .eval(&cs, &db)
                .unwrap(),
            1.0
        );
        assert_eq!(
            ProblematicFacts { options: opts }.eval(&cs, &db).unwrap(),
            2.0
        );
        // MC = {{t0},{t1}} → I_MC = 1.
        assert_eq!(
            MaximalConsistentSubsets { options: opts }
                .eval(&cs, &db)
                .unwrap(),
            1.0
        );
        assert_eq!(MinimumRepair { options: opts }.eval(&cs, &db).unwrap(), 1.0);
        assert_eq!(
            LinearMinimumRepair { options: opts }
                .eval(&cs, &db)
                .unwrap(),
            1.0
        );
    }

    #[test]
    fn self_inconsistency_variant_counts_contradictory_tuples() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        insert3(&mut db, r, 7, 0, 0); // violates A = 7 denial below
        insert3(&mut db, r, 1, 0, 0);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_dc(
            build::unary(
                "noseven",
                r,
                vec![build::uc(AttrId(0), CmpOp::Eq, Value::int(7))],
                &s,
            )
            .unwrap(),
        );
        let opts = MeasureOptions::default();
        // MC = {{t1}} → I_MC = 0 (positivity failure of I_MC, §4).
        assert_eq!(
            MaximalConsistentSubsets { options: opts }
                .eval(&cs, &db)
                .unwrap(),
            0.0
        );
        // I'_MC counts the contradictory tuple → 1.
        assert_eq!(
            MaximalConsistentSubsetsWithSelf { options: opts }
                .eval(&cs, &db)
                .unwrap(),
            1.0
        );
        assert_eq!(MinimumRepair { options: opts }.eval(&cs, &db).unwrap(), 1.0);
    }

    #[test]
    fn ir_upper_bounds_lin_and_factor_two_for_fds() {
        use rand::{Rng, SeedableRng};
        let (s, r) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let opts = MeasureOptions::default();
        for _ in 0..15 {
            let mut db = Database::new(Arc::clone(&s));
            for _ in 0..rng.gen_range(2..20) {
                insert3(
                    &mut db,
                    r,
                    rng.gen_range(0..4),
                    rng.gen_range(0..3),
                    rng.gen_range(0..3),
                );
            }
            let mut cs = ConstraintSet::new(Arc::clone(&s));
            cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
            cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
            let ir = MinimumRepair { options: opts }.eval(&cs, &db).unwrap();
            let lin = LinearMinimumRepair { options: opts }
                .eval(&cs, &db)
                .unwrap();
            assert!(lin <= ir + 1e-9, "relaxation can only decrease");
            assert!(ir <= 2.0 * lin + 1e-9, "FD integrality gap is at most 2");
        }
    }

    /// The ternary EGD of Prop. 1, `R(x,y), S(x,z), S(x,w) ⇒ z = w`, on
    /// one `R` fact and two clashing `S` facts: one three-tuple hyperedge.
    fn prop1_egd() -> (ConstraintSet, Database) {
        let mut s = Schema::new();
        let r = s
            .add_relation(relation("R", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let t = s
            .add_relation(relation("S", &[("A", ValueKind::Int), ("B", ValueKind::Int)]).unwrap())
            .unwrap();
        let s = Arc::new(s);
        let egd = inconsist_constraints::Egd::new(
            "p1",
            vec![
                inconsist_constraints::EgdAtom {
                    rel: r,
                    vars: vec![0, 1],
                },
                inconsist_constraints::EgdAtom {
                    rel: t,
                    vars: vec![0, 2],
                },
                inconsist_constraints::EgdAtom {
                    rel: t,
                    vars: vec![0, 3],
                },
            ],
            (2, 3),
            &s,
        )
        .unwrap();
        let mut db = Database::new(Arc::clone(&s));
        db.insert(Fact::new(r, [Value::int(1), Value::int(0)]))
            .unwrap();
        db.insert(Fact::new(t, [Value::int(1), Value::int(5)]))
            .unwrap();
        db.insert(Fact::new(t, [Value::int(1), Value::int(6)]))
            .unwrap();
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_egd(egd);
        (cs, db)
    }

    #[test]
    fn hyperedge_violations_use_hitting_set() {
        let (cs, db) = prop1_egd();
        let opts = MeasureOptions::default();
        // One hyperedge of three tuples: delete any one → I_R = 1.
        assert_eq!(MinimumRepair { options: opts }.eval(&cs, &db).unwrap(), 1.0);
        // LP: put x = 1 on a single variable? No — 1/3 each suffices: 3·(1/3)=1.
        let lin = LinearMinimumRepair { options: opts }
            .eval(&cs, &db)
            .unwrap();
        assert!((lin - 1.0).abs() < 1e-6);
    }

    #[test]
    fn truncation_is_reported() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..60 {
            insert3(&mut db, r, 1, i, 0);
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions {
            violation_limit: Some(10),
            ..Default::default()
        };
        assert_eq!(
            MinimalInconsistentSubsets { options: opts }.eval(&cs, &db),
            Err(MeasureError::Truncated)
        );
        // The drastic measure is unaffected by the cap.
        assert_eq!(Drastic.eval(&cs, &db).unwrap(), 1.0);
    }

    #[test]
    fn minimum_repair_deletions_actually_repair() {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        insert3(&mut db, r, 1, 1, 0);
        insert3(&mut db, r, 1, 2, 0);
        insert3(&mut db, r, 1, 3, 0);
        insert3(&mut db, r, 2, 5, 0);
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        let opts = MeasureOptions::default();
        let dels = minimum_repair_deletions(&cs, &db, &opts).unwrap();
        assert_eq!(dels.len(), 2);
        let mut repaired = db.clone();
        for t in dels {
            repaired.delete(t).unwrap();
        }
        assert!(engine::is_consistent(&repaired, &cs));
    }

    /// Deleting `minimum_repair_deletions` repairs `db` at exactly
    /// `MinimumRepair`'s cost.
    fn assert_deletions_are_optimal(cs: &ConstraintSet, db: &Database) {
        let opts = MeasureOptions::default();
        let dels = minimum_repair_deletions(cs, db, &opts).unwrap();
        let cost = dels.iter().fold(0.0, |sum, &t| sum + db.cost_of(t));
        let mut repaired = db.clone();
        for t in dels {
            repaired.delete(t).unwrap();
        }
        assert!(engine::is_consistent(&repaired, cs));
        assert_eq!(cost, MinimumRepair { options: opts }.eval(cs, db).unwrap());
    }

    #[test]
    fn minimum_repair_deletions_solve_hyperedges_and_costed_fds() {
        // The hypergraph branch: one three-tuple EGD violation.
        let (cs, db) = prop1_egd();
        let subsets = mi(&cs, &db, &MeasureOptions::default()).unwrap().subsets;
        assert!(!ConflictGraph::from_subsets(&db, &subsets).is_plain_graph());
        assert_deletions_are_optimal(&cs, &db);
        // A costed A → C / B → C instance, outside the §5.1 class, so the
        // exact cover answers. Dyadic costs keep every sum exact.
        let mut s = Schema::new();
        let attrs = [
            ("A", ValueKind::Int),
            ("B", ValueKind::Int),
            ("C", ValueKind::Int),
            ("cost", ValueKind::Float),
        ];
        let r = s.add_relation(relation("R", &attrs).unwrap()).unwrap();
        s.set_cost_attr(r, "cost").unwrap();
        let s = Arc::new(s);
        let mut db = Database::new(Arc::clone(&s));
        for (a, b, c, cost) in [
            (1, 1, 0, 2.0),
            (1, 2, 1, 0.25),
            (2, 2, 0, 0.5),
            (2, 1, 1, 1.0),
            (3, 1, 2, 0.5),
        ] {
            let values = [
                Value::int(a),
                Value::int(b),
                Value::int(c),
                Value::float(cost),
            ];
            db.insert(Fact::new(r, values)).unwrap();
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(2)]));
        cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
        assert!(crate::fd_tract::fast_min_repair(&cs, &db).is_none());
        assert_deletions_are_optimal(&cs, &db);
    }

    /// `k` disjoint FD pairs (`A → B`, 2k tuples): `|MC_Σ(D)| = 2^k`.
    fn disjoint_pairs(k: i64) -> (ConstraintSet, Database) {
        let (s, r) = setup();
        let mut db = Database::new(Arc::clone(&s));
        for i in 0..k {
            insert3(&mut db, r, i, 0, 0);
            insert3(&mut db, r, i, 1, 0);
        }
        let mut cs = ConstraintSet::new(Arc::clone(&s));
        cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
        (cs, db)
    }

    #[test]
    fn i_mc_is_exact_to_u128_and_overflow_past_it() {
        let opts = MeasureOptions::default();
        let mc = MaximalConsistentSubsets { options: opts };
        let with_self = MaximalConsistentSubsetsWithSelf { options: opts };
        let (cs, db) = disjoint_pairs(127);
        let expected = ((1u128 << 127) - 1) as f64;
        assert_eq!(mc.eval(&cs, &db), Ok(expected));
        assert_eq!(with_self.eval(&cs, &db), Ok(expected));
        for k in [128, 200] {
            let (cs, db) = disjoint_pairs(k);
            // Past `u128::MAX`: a typed error, never a wrapped `0.0` and
            // never a timeout.
            assert_eq!(mc.eval(&cs, &db), Err(MeasureError::Overflow), "k = {k}");
            assert_eq!(
                with_self.eval(&cs, &db),
                Err(MeasureError::Overflow),
                "k = {k}"
            );
        }
    }
}
