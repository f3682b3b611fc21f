//! Extension measures beyond the paper's seven, with the same property
//! discipline.
//!
//! §7 closes with *"we plan to explore other properties as well as
//! completeness criteria"* and the related-work section points at the
//! wider KR catalogue \[50\] and at cell-level reasoning (§5.3). This module
//! adapts three further measures to the database setting and subjects
//! them to the §4 property checkers (see the `measures_ext` tests and the
//! `table2 --extended` harness):
//!
//! | measure | definition | intuition |
//! |---|---|---|
//! | `I_MIC` | `Σ_{E ∈ MI_Σ(D)} 1/\|E\|` | the *MIᶜ Shapley* measure of Hunter & Konieczny \[31, 32\]: small witnesses weigh more |
//! | `I_P^cell` | #cells of violating tuples in constrained columns | the §5.3 cell granularity; exactly the cells an error-detection stage (e.g. the `inconsist-clean` cleaner) flags dirty |
//! | `I_R^greedy` | greedy cover of the violation hypergraph | a `ln d`-approximation of `I_R` that stays cheap when the exact solver would time out |
//!
//! [`Normalized`] wraps any measure into the `[0, 1]`-scaled form used by
//! the paper's figures (values divided by a database-size denominator),
//! making series comparable across datasets.
//!
//! Property summary established by the checkers (deletion repairs, FDs/DCs):
//! `I_MIC` behaves like `I_MI` (positivity ✓, monotonicity FD-only,
//! progression ✓, continuity ✗); `I_P^cell` behaves like `I_P`;
//! `I_R^greedy` keeps positivity and progression but, unlike `I_R`, can
//! jump disproportionally (its cover is not optimal), so continuity fails.

use crate::measures::{InconsistencyMeasure, MeasureError, MeasureOptions, MeasureResult};
use inconsist_constraints::{engine, ConstraintSet};
use inconsist_graph::ConflictGraph;
use inconsist_relational::{AttrId, Database, RelId, TupleId};
use inconsist_solver::{greedy_hitting_set, greedy_vertex_cover, node_index_sets};
use std::collections::HashSet;

/// `I_MIC`: minimal inconsistent subsets graded by `1/|E|` — the MIᶜ
/// Shapley inconsistency of Hunter & Konieczny adapted to tuples. For FD
/// sets every witness has two facts, so `I_MIC = I_MI / 2`; under general
/// DCs the grading separates cheap-to-blame singletons from diffuse
/// wide violations.
#[derive(Clone, Copy, Debug, Default)]
pub struct GradedMinimalInconsistent {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for GradedMinimalInconsistent {
    fn name(&self) -> &'static str {
        "I_MIC"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let mi = engine::minimal_inconsistent_subsets(db, cs, self.options.violation_limit);
        if !mi.complete {
            return Err(MeasureError::Truncated);
        }
        Ok(mi.subsets.iter().map(|s| 1.0 / s.len() as f64).sum())
    }
}

/// `I_P^cell`: the number of *problematic cells* — pairs `(tuple,
/// attribute)` such that the tuple occurs in a minimal violation of a
/// constraint mentioning that attribute. This is the granularity at which
/// update repairs operate (§5.3) and at which cleaning systems mark
/// errors; `I_P ≤ I_P^cell ≤ I_P · max #attributes per constraint`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProblematicCells {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for ProblematicCells {
    fn name(&self) -> &'static str {
        "I_P^cell"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let per = engine::violations_per_dc(db, cs, self.options.violation_limit);
        if per.iter().any(|d| !d.complete) {
            return Err(MeasureError::Truncated);
        }
        let mut cells: HashSet<(TupleId, AttrId)> = HashSet::new();
        for dcv in &per {
            let dc = &cs.dcs()[dcv.dc];
            let attrs: Vec<(RelId, AttrId)> = dc.attributes();
            for set in &dcv.sets {
                for &t in set.iter() {
                    let Some(f) = db.fact(t) else { continue };
                    for &(rel, attr) in &attrs {
                        if rel == f.rel {
                            cells.insert((t, attr));
                        }
                    }
                }
            }
        }
        Ok(cells.len() as f64)
    }
}

/// `I_R^greedy`: the cost of the *greedy* deletion repair — repeatedly
/// delete the tuple covering the most remaining violations per unit cost.
/// An upper bound on `I_R` within a `ln d` factor (`d` = max violations
/// per tuple), computable without the branch-and-bound search; the
/// measure a practical system would fall back to when `I_R` times out.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyRepair {
    /// Budgets and caps.
    pub options: MeasureOptions,
}

impl InconsistencyMeasure for GreedyRepair {
    fn name(&self) -> &'static str {
        "I_R^greedy"
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let mi = engine::minimal_inconsistent_subsets(db, cs, self.options.violation_limit);
        if !mi.complete {
            return Err(MeasureError::Truncated);
        }
        let graph = ConflictGraph::from_subsets(db, &mi.subsets);
        if graph.is_plain_graph() {
            return Ok(greedy_vertex_cover(&graph).weight);
        }
        let weights: Vec<f64> = (0..graph.n() as u32).map(|v| graph.weight(v)).collect();
        let sets = node_index_sets(&graph, &mi.subsets);
        Ok(greedy_hitting_set(&weights, &sets).weight)
    }
}

/// The denominator a [`Normalized`] measure divides by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Denominator {
    /// `|D|` — tuples (used for `I_P`-like counts).
    Tuples,
    /// `|D| · (|D| − 1) / 2` — unordered tuple pairs (for `I_MI`-like counts).
    Pairs,
    /// A fixed constant supplied by the caller (×1000 to stay integral).
    Fixed(u64),
}

/// A measure rescaled into `[0, 1]`-comparable units, as plotted in
/// Figs. 4, 5, 7 and 8. Values are divided by the selected denominator;
/// the result is *not* clipped, so values above 1 still reveal themselves.
#[derive(Clone, Debug)]
pub struct Normalized<M> {
    /// The underlying measure.
    pub inner: M,
    /// What to divide by.
    pub denominator: Denominator,
}

impl<M: InconsistencyMeasure> Normalized<M> {
    /// Wraps `inner` with the given denominator.
    pub fn new(inner: M, denominator: Denominator) -> Self {
        Normalized { inner, denominator }
    }
}

impl<M: InconsistencyMeasure> InconsistencyMeasure for Normalized<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn eval(&self, cs: &ConstraintSet, db: &Database) -> MeasureResult {
        let raw = self.inner.eval(cs, db)?;
        let denom = match self.denominator {
            Denominator::Tuples => db.len() as f64,
            Denominator::Pairs => {
                let n = db.len() as f64;
                n * (n - 1.0) / 2.0
            }
            Denominator::Fixed(k) => k as f64 / 1000.0,
        };
        if denom <= 0.0 {
            return Ok(0.0);
        }
        Ok(raw / denom)
    }
}

/// The extension roster, boxed for uniform iteration alongside
/// [`crate::measures::standard_measures`].
pub fn extension_measures(options: MeasureOptions) -> Vec<Box<dyn InconsistencyMeasure>> {
    vec![
        Box::new(GradedMinimalInconsistent { options }),
        Box::new(ProblematicCells { options }),
        Box::new(GreedyRepair { options }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{
        LinearMinimumRepair, MinimalInconsistentSubsets, MinimumRepair, ProblematicFacts,
    };
    use crate::properties::{check_positivity, check_progression};
    use crate::repair::SubsetRepairs;
    use inconsist_constraints::Fd;
    use inconsist_relational::{relation, Fact, Schema, Value, ValueKind};
    use rand::prelude::*;
    use std::sync::Arc;

    fn random_instances(seed: u64, count: usize) -> Vec<(ConstraintSet, Database)> {
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
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut db = Database::new(Arc::clone(&s));
                for _ in 0..rng.gen_range(3..15) {
                    db.insert(Fact::new(
                        r,
                        [
                            Value::int(rng.gen_range(0..4)),
                            Value::int(rng.gen_range(0..3)),
                            Value::int(rng.gen_range(0..3)),
                        ],
                    ))
                    .unwrap();
                }
                let mut cs = ConstraintSet::new(Arc::clone(&s));
                cs.add_fd(Fd::new(r, [AttrId(0)], [AttrId(1)]));
                if rng.gen_bool(0.5) {
                    cs.add_fd(Fd::new(r, [AttrId(1)], [AttrId(2)]));
                }
                (cs, db)
            })
            .collect()
    }

    #[test]
    fn mic_is_half_mi_for_fds() {
        let opts = MeasureOptions::default();
        for (cs, db) in random_instances(3, 20) {
            let mi = MinimalInconsistentSubsets { options: opts }
                .eval(&cs, &db)
                .unwrap();
            let mic = GradedMinimalInconsistent { options: opts }
                .eval(&cs, &db)
                .unwrap();
            assert!((mic - mi / 2.0).abs() < 1e-9, "FD witnesses have two facts");
        }
    }

    #[test]
    fn mic_on_paper_example() {
        let (d1, cs) = crate::paper::airport_d1();
        let mic = GradedMinimalInconsistent::default().eval(&cs, &d1).unwrap();
        assert_eq!(mic, 3.5); // 7 pairs × 1/2
    }

    #[test]
    fn cells_bounded_by_facts_and_width() {
        let opts = MeasureOptions::default();
        for (cs, db) in random_instances(5, 20) {
            let p = ProblematicFacts { options: opts }.eval(&cs, &db).unwrap();
            let cells = ProblematicCells { options: opts }.eval(&cs, &db).unwrap();
            if p > 0.0 {
                assert!(cells >= p, "each problematic fact has ≥ 1 problematic cell");
            }
            // Width bound: our FDs mention ≤ 3 attributes.
            assert!(cells <= 3.0 * p + 1e-9);
        }
    }

    #[test]
    fn cells_on_paper_example() {
        // D1 (Fig. 1b): f2..f5 violate Municipality→Continent and
        // Municipality→Country, so each contributes {Municipality,
        // Continent, Country} — 12 cells. f1 participates only in the
        // Country→Continent violation {f1, f5}, contributing {Country,
        // Continent} — 2 more. Total 14 < 5 × 3: the cell measure sees
        // that f1's Municipality is blameless where `I_P` cannot.
        let (d1, cs) = crate::paper::airport_d1();
        let cells = ProblematicCells::default().eval(&cs, &d1).unwrap();
        assert_eq!(cells, 14.0);
    }

    #[test]
    fn greedy_sandwiched_between_exact_and_log_bound() {
        let opts = MeasureOptions::default();
        for (cs, db) in random_instances(7, 25) {
            let exact = MinimumRepair { options: opts }.eval(&cs, &db).unwrap();
            let greedy = GreedyRepair { options: opts }.eval(&cs, &db).unwrap();
            let lin = LinearMinimumRepair { options: opts }
                .eval(&cs, &db)
                .unwrap();
            assert!(greedy + 1e-9 >= exact, "greedy is an upper bound");
            assert!(lin <= exact + 1e-9);
            // Harmonic bound for vertex cover: greedy ≤ H(d)·exact ≤ 2·ln(n)+1.
            let n = db.len() as f64;
            assert!(greedy <= (2.0 * n.ln().max(1.0) + 1.0) * exact.max(1e-9) + 1e-9);
        }
    }

    #[test]
    fn extension_measures_zero_iff_consistent() {
        let opts = MeasureOptions::default();
        for (cs, db) in random_instances(11, 20) {
            let consistent = inconsist_constraints::is_consistent(&db, &cs);
            for m in extension_measures(opts) {
                let v = m.eval(&cs, &db).unwrap();
                if consistent {
                    assert_eq!(v, 0.0, "{} must be zero on consistent data", m.name());
                } else {
                    assert!(
                        v > 0.0,
                        "{} must be positive on inconsistent data",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn extension_measures_satisfy_positivity_and_progression_empirically() {
        let opts = MeasureOptions::default();
        let instances = random_instances(13, 30);
        let subset = SubsetRepairs;
        for m in extension_measures(opts) {
            assert!(
                !check_positivity(m.as_ref(), &instances).is_violated(),
                "{} positivity",
                m.name()
            );
            assert!(
                !check_progression(m.as_ref(), &subset, &instances).is_violated(),
                "{} progression under deletions",
                m.name()
            );
        }
    }

    #[test]
    fn normalized_rescales_and_handles_empty() {
        let opts = MeasureOptions::default();
        let (d1, cs) = crate::paper::airport_d1();
        let norm = Normalized::new(ProblematicFacts { options: opts }, Denominator::Tuples);
        assert_eq!(norm.eval(&cs, &d1).unwrap(), 1.0); // 5 problematic / 5 tuples
        let pairs = Normalized::new(
            MinimalInconsistentSubsets { options: opts },
            Denominator::Pairs,
        );
        assert!((pairs.eval(&cs, &d1).unwrap() - 0.7).abs() < 1e-9); // 7 / 10
        let fixed = Normalized::new(ProblematicFacts { options: opts }, Denominator::Fixed(2000));
        assert_eq!(fixed.eval(&cs, &d1).unwrap(), 2.5); // 5 / 2
                                                        // Empty database: denominator 0 must not divide.
        let empty = Database::new(Arc::clone(d1.schema()));
        assert_eq!(norm.eval(&cs, &empty).unwrap(), 0.0);
    }
}
