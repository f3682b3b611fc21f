//! Batch evaluation of all measures over one database snapshot.
//!
//! The experiment harness (Figs. 4, 5, 7 …) evaluates *every* measure after
//! *every* noise/cleaning step. The dominant cost is violation detection
//! (the paper makes the same observation about its SQL stage, §6.2.3), so
//! the suite runs the engine once per snapshot and derives all measures
//! from the shared `MI_Σ(D)` and conflict graph. Per-measure wall-clock
//! timing (Table 3, Figs. 6, 11) instead uses the individual measures,
//! which each pay for their own detection pass — mirroring how the paper
//! timed each measure end to end.

use crate::measures::{count_mc, MeasureError, MeasureOptions, MeasureResult};
use inconsist_constraints::ConstraintSet;
use inconsist_graph::ConflictGraph;
use inconsist_relational::Database;
use inconsist_solver::{component_min_repair, component_min_repair_lin, Budget};

/// Values of all measures on one snapshot.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// `I_d`.
    pub drastic: MeasureResult,
    /// `I_MI`.
    pub mi_count: MeasureResult,
    /// `I_P`.
    pub problematic: MeasureResult,
    /// `I_MC`.
    pub max_consistent: MeasureResult,
    /// `I′_MC`.
    pub max_consistent_self: MeasureResult,
    /// `I_R` (deletions).
    pub min_repair: MeasureResult,
    /// `I_R^lin`.
    pub linear_repair: MeasureResult,
    /// Fraction of violating tuple pairs out of all pairs (the "violation
    /// ratio" annotated above the charts of Fig. 4).
    pub violation_ratio: f64,
}

impl SuiteReport {
    /// `(name, value)` pairs in the paper's order, for printing.
    pub fn entries(&self) -> Vec<(&'static str, MeasureResult)> {
        vec![
            ("I_d", self.drastic),
            ("I_MI", self.mi_count),
            ("I_P", self.problematic),
            ("I_MC", self.max_consistent),
            ("I'_MC", self.max_consistent_self),
            ("I_R", self.min_repair),
            ("I_R^lin", self.linear_repair),
        ]
    }
}

/// Shared-computation evaluator.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasureSuite {
    /// Budgets and caps applied to all member measures.
    pub options: MeasureOptions,
    /// Skip `I_MC`/`I′_MC` entirely (they time out on everything beyond toy
    /// sizes; Figs. 4 and 6 exclude them just like the paper does).
    pub skip_mc: bool,
    /// Worker threads for violation detection (`0` or `1` = sequential).
    /// Constraints are distributed dynamically; see
    /// [`inconsist_constraints::parallel`].
    pub threads: usize,
}

impl MeasureSuite {
    /// Evaluates every measure on `(cs, db)`, computing violations once.
    pub fn eval_all(&self, cs: &ConstraintSet, db: &Database) -> SuiteReport {
        let mi = inconsist_constraints::minimal_inconsistent_subsets_par(
            db,
            cs,
            self.options.violation_limit,
            self.threads,
        );
        if !mi.complete {
            let err = Err(MeasureError::Truncated);
            return SuiteReport {
                drastic: Ok(1.0),
                mi_count: err,
                problematic: err,
                max_consistent: err,
                max_consistent_self: err,
                min_repair: err,
                linear_repair: err,
                violation_ratio: f64::NAN,
            };
        }
        let n = db.len() as f64;
        let pair_count = mi.subsets.iter().filter(|s| s.len() == 2).count() as f64;
        let violation_ratio = if n >= 2.0 {
            pair_count / (n * (n - 1.0) / 2.0)
        } else {
            0.0
        };

        let drastic = Ok(if mi.subsets.is_empty() { 0.0 } else { 1.0 });
        let mi_count = Ok(mi.count() as f64);
        let problematic = Ok(mi.participants().len() as f64);

        let (max_consistent, max_consistent_self) = if self.skip_mc {
            (Err(MeasureError::Timeout), Err(MeasureError::Timeout))
        } else {
            // The conflict graph is `I_MC`'s alone: the repair solves
            // below build what they read from the subsets.
            let graph = ConflictGraph::from_subsets(db, &mi.subsets);
            match count_mc(&graph, self.options.mis_budget) {
                Ok(c) => (
                    Ok(c.saturating_sub(1) as f64),
                    c.checked_add(graph.excluded_count() as u128)
                        .map(|w| w.saturating_sub(1) as f64)
                        .ok_or(MeasureError::Overflow),
                ),
                Err(e) => (Err(e), Err(e)),
            }
        };

        let budget = &mut Budget::steps(self.options.vc_budget);
        let min_repair = component_min_repair(db, &mi.subsets, budget)
            .map(|r| r.weight)
            .ok_or(MeasureError::Timeout);
        let linear_repair = component_min_repair_lin(db, &mi.subsets).ok_or(MeasureError::Timeout);

        SuiteReport {
            drastic,
            mi_count,
            problematic,
            max_consistent,
            max_consistent_self,
            min_repair,
            linear_repair,
            violation_ratio,
        }
    }
}

/// Normalizes a series of measure values to `[0, 1]` by its maximum (the
/// y-axis convention of Figs. 4, 5, 7; timeouts become `NaN` gaps).
pub fn normalize_series(values: &[MeasureResult]) -> Vec<f64> {
    let max = values
        .iter()
        .filter_map(|v| v.as_ref().ok())
        .fold(0.0f64, |m, &v| m.max(v));
    values
        .iter()
        .map(|v| match v {
            Ok(x) if max > 0.0 => x / max,
            Ok(_) => 0.0,
            Err(_) => f64::NAN,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{standard_measures, MeasureOptions};
    use crate::paper;

    #[test]
    fn suite_matches_individual_measures_on_running_example() {
        for (db, cs) in [
            paper::airport_d1(),
            paper::airport_d2(),
            paper::airport_d0(),
        ] {
            let suite = MeasureSuite::default();
            let report = suite.eval_all(&cs, &db);
            let individual = standard_measures(MeasureOptions::default());
            let expect: Vec<MeasureResult> = individual.iter().map(|m| m.eval(&cs, &db)).collect();
            let got = report.entries();
            for ((name, suite_val), indiv) in got.iter().zip(expect.iter()) {
                assert_eq!(suite_val, indiv, "{name}");
            }
        }
    }

    #[test]
    fn parallel_suite_matches_sequential() {
        let (d1, cs) = paper::airport_d1();
        let seq = MeasureSuite::default().eval_all(&cs, &d1);
        let par = MeasureSuite {
            threads: 4,
            ..Default::default()
        }
        .eval_all(&cs, &d1);
        for ((name, a), (_, b)) in seq.entries().iter().zip(par.entries().iter()) {
            assert_eq!(a, b, "{name}");
        }
        assert_eq!(seq.violation_ratio, par.violation_ratio);
    }

    #[test]
    fn violation_ratio_is_a_fraction() {
        let (d1, cs) = paper::airport_d1();
        let report = MeasureSuite::default().eval_all(&cs, &d1);
        // 7 violating pairs out of C(5,2) = 10.
        assert!((report.violation_ratio - 0.7).abs() < 1e-9);
    }

    #[test]
    fn skip_mc_replaces_with_timeout() {
        let (d1, cs) = paper::airport_d1();
        let suite = MeasureSuite {
            skip_mc: true,
            ..Default::default()
        };
        let report = suite.eval_all(&cs, &d1);
        assert!(report.max_consistent.is_err());
        assert!(report.min_repair.is_ok());
    }

    #[test]
    fn normalize_handles_timeouts_and_zeros() {
        let vals = vec![Ok(0.0), Ok(2.0), Err(MeasureError::Timeout), Ok(4.0)];
        let norm = normalize_series(&vals);
        assert_eq!(norm[0], 0.0);
        assert_eq!(norm[1], 0.5);
        assert!(norm[2].is_nan());
        assert_eq!(norm[3], 1.0);
        let zeros = normalize_series(&[Ok(0.0), Ok(0.0)]);
        assert!(zeros.iter().all(|&v| v == 0.0));
    }
}
