//! Cross-crate integration: generate → corrupt → measure → clean →
//! re-measure, over every dataset, through the public API only.

use inconsist::constraints::engine;
use inconsist::measures::{
    standard_measures, InconsistencyMeasure, LinearMinimumRepair, MeasureOptions,
    MinimalInconsistentSubsets, MinimumRepair, ProblematicFacts,
};
use inconsist::suite::MeasureSuite;
use inconsist_clean::{Cleaner, GreedyVcCleaner, MinRepairCleaner, SoftClean};
use inconsist_data::{generate, sample, CoNoise, DatasetId, RNoise};

#[test]
fn full_pipeline_on_every_dataset() {
    let opts = MeasureOptions::default();
    for id in DatasetId::all() {
        let mut ds = generate(id, 200, 42);
        assert!(
            engine::is_consistent(&ds.db, &ds.constraints),
            "{}",
            id.name()
        );

        // Corrupt.
        let mut noise = CoNoise::new(42);
        for _ in 0..8 {
            noise.step(&mut ds.db, &ds.constraints);
        }
        let ir = MinimumRepair { options: opts };
        let dirty = ir.eval(&ds.constraints, &ds.db).unwrap();
        assert!(dirty > 0.0, "{}: CONoise must dirty the data", id.name());

        // Clean (deletion-based).
        let mut cleaner = GreedyVcCleaner::default();
        cleaner.run(&mut ds.db, &ds.constraints, 10_000);
        assert!(
            engine::is_consistent(&ds.db, &ds.constraints),
            "{}: cleaner must reach consistency",
            id.name()
        );
        assert_eq!(ir.eval(&ds.constraints, &ds.db).unwrap(), 0.0);
    }
}

#[test]
fn measures_zero_iff_consistent_across_datasets() {
    let opts = MeasureOptions::default();
    for id in DatasetId::all() {
        let mut ds = generate(id, 120, 7);
        for m in standard_measures(opts) {
            if let Ok(v) = m.eval(&ds.constraints, &ds.db) {
                assert_eq!(v, 0.0, "{} on clean {}", m.name(), id.name());
            }
        }
        let mut noise = CoNoise::new(3);
        let mut made_dirty = false;
        for _ in 0..20 {
            noise.step(&mut ds.db, &ds.constraints);
            if !engine::is_consistent(&ds.db, &ds.constraints) {
                made_dirty = true;
                break;
            }
        }
        assert!(made_dirty, "{}", id.name());
        for m in standard_measures(opts) {
            if m.name() == "I_MC" {
                continue; // positivity genuinely fails for I_MC
            }
            if let Ok(v) = m.eval(&ds.constraints, &ds.db) {
                assert!(v > 0.0, "{} on dirty {}", m.name(), id.name());
            }
        }
    }
}

#[test]
fn measure_inequalities_hold_on_noisy_samples() {
    // I_R^lin ≤ I_R ≤ 2·I_R^lin (two-tuple DCs), I_R ≤ I_P, I_R ≤ I_MI
    // (unit costs: pick one endpoint per violating pair).
    let opts = MeasureOptions::default();
    for id in [
        DatasetId::Hospital,
        DatasetId::Tax,
        DatasetId::Voter,
        DatasetId::Food,
    ] {
        let mut ds = generate(id, 250, 5);
        let mut noise = RNoise::new(5, 1.0);
        let steps = RNoise::iterations_for(0.01, &ds.db);
        noise.run(&mut ds.db, &ds.constraints, steps);
        let ir = MinimumRepair { options: opts }
            .eval(&ds.constraints, &ds.db)
            .unwrap();
        let lin = LinearMinimumRepair { options: opts }
            .eval(&ds.constraints, &ds.db)
            .unwrap();
        let ip = ProblematicFacts { options: opts }
            .eval(&ds.constraints, &ds.db)
            .unwrap();
        let imi = MinimalInconsistentSubsets { options: opts }
            .eval(&ds.constraints, &ds.db)
            .unwrap();
        assert!(lin <= ir + 1e-9, "{}: lin {lin} vs ir {ir}", id.name());
        assert!(ir <= 2.0 * lin + 1e-9, "{}: integrality gap", id.name());
        assert!(ir <= ip + 1e-9, "{}: ir {ir} vs ip {ip}", id.name());
        assert!(ir <= imi + 1e-9, "{}: ir {ir} vs imi {imi}", id.name());
    }
}

#[test]
fn min_repair_cleaner_trace_is_monotone_for_ir() {
    // I_R decays by exactly the deleted cost at every optimal-cleaner step
    // (continuity + progression in action).
    let opts = MeasureOptions::default();
    let mut ds = generate(DatasetId::Hospital, 150, 13);
    let mut noise = CoNoise::new(13);
    for _ in 0..10 {
        noise.step(&mut ds.db, &ds.constraints);
    }
    let ir = MinimumRepair { options: opts };
    let mut cleaner = MinRepairCleaner::default();
    let mut previous = ir.eval(&ds.constraints, &ds.db).unwrap();
    while cleaner.step(&mut ds.db, &ds.constraints) {
        let current = ir.eval(&ds.constraints, &ds.db).unwrap();
        assert!(
            (previous - current - 1.0).abs() < 1e-9,
            "each optimal deletion reduces I_R by exactly 1: {previous} → {current}"
        );
        previous = current;
    }
    assert_eq!(previous, 0.0);
}

#[test]
fn softclean_then_measures_certify_progress() {
    let mut ds = generate(DatasetId::Hospital, 200, 3);
    let mut noise = RNoise::new(9, 0.0);
    let steps = RNoise::iterations_for(0.015, &ds.db);
    noise.run(&mut ds.db, &ds.constraints, steps);

    let suite = MeasureSuite {
        options: MeasureOptions::default(),
        skip_mc: true,
        ..Default::default()
    };
    let before = suite.eval_all(&ds.constraints, &ds.db);
    SoftClean::default().clean(&mut ds.db, &ds.constraints);
    let after = suite.eval_all(&ds.constraints, &ds.db);
    for ((name, b), (_, a)) in before.entries().iter().zip(after.entries().iter()) {
        if let (Ok(b), Ok(a)) = (b, a) {
            assert!(a <= b, "{name} must not increase after cleaning: {b} → {a}");
        }
    }
    let (Ok(b), Ok(a)) = (before.min_repair, after.min_repair) else {
        panic!("I_R must evaluate")
    };
    assert!(a < b, "I_R must strictly decrease: {b} → {a}");
}

#[test]
fn sampling_preserves_consistency_and_constraints() {
    for id in [DatasetId::Stock, DatasetId::Flight] {
        let ds = generate(id, 400, 21);
        let s = sample(&ds.db, 100, 2);
        assert_eq!(s.len(), 100);
        // Anti-monotonicity of DCs: subsets of consistent data stay consistent.
        assert!(engine::is_consistent(&s, &ds.constraints), "{}", id.name());
    }
}

/// The miner finds the Stock dataset's unary order constraints (the
/// Fig. 3 family) at either pair-sample cap.
#[test]
fn miner_recovers_stock_unary_order_dcs() {
    use inconsist::constraints::{mine_dcs, MinerConfig};
    let ds = generate(DatasetId::Stock, 600, 23);
    for max_pairs in [5_000usize, 20_000] {
        let cfg = MinerConfig {
            max_pairs,
            max_dcs: 8,
            ..Default::default()
        };
        let mined = mine_dcs(&ds.db, inconsist::relational::RelId(0), &cfg);
        assert!(
            mined.iter().any(|m| m.dc.arity() == 1),
            "no unary order DC at max_pairs={max_pairs}"
        );
    }
}
