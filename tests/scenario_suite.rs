//! Property-based tests for the scale-scenario suite
//! (`inconsist_data::scenario`): generator determinism, injector ratio
//! accuracy, and exactness of the reported ground-truth dirty set.

use inconsist::incremental::IncrementalIndex;
use inconsist::measures::MeasureOptions;
use inconsist_data::scenario::{
    enumerate_dirty, generate_scenario, inject, DcSet, ScenarioSpec, Shape,
};
use proptest::prelude::*;

fn spec(sf_millis: u8, dc_set: DcSet, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        // 0.004..0.02 — 60 to 300 orders, a few hundred to ~1500 tuples.
        scale_factor: 0.004 + f64::from(sf_millis % 17) * 0.001,
        dc_set,
        seed,
    }
}

fn dc_set(flag: bool) -> DcSet {
    if flag {
        DcSet::Full
    } else {
        DcSet::Core
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ bit-identical database, independent of how many times
    /// the generator runs and of the reader's `solve_threads` setting
    /// (generation is a single sequential RNG stream; the thread budget
    /// only fans out *solves*, never generation).
    #[test]
    fn generator_is_deterministic(sf in 0u8..64, full_sel in 0u8..2, seed in 0u64..1000) {
        let full = full_sel == 1;
        let s = spec(sf, dc_set(full), seed);
        let a = generate_scenario(&s);
        let b = generate_scenario(&s);
        prop_assert!(a.db.same_as(&b.db), "same spec produced different databases");
        prop_assert_eq!(a.db.len(), b.db.len());
        // A different seed moves at least some cell (cheap sanity that
        // the seed actually feeds the stream).
        let c = generate_scenario(&ScenarioSpec { seed: seed + 1, ..s });
        prop_assert!(!a.db.same_as(&c.db), "seed had no effect");

        // Thread-count invariance of the measures read over it: inject
        // some noise, then read through 1 and 4 solve threads.
        let mut sc1 = a;
        let mut sc4 = b;
        inject(&mut sc1, 0.05, seed).unwrap();
        inject(&mut sc4, 0.05, seed).unwrap();
        prop_assert!(sc1.db.same_as(&sc4.db), "same-seed injections diverged");
        let opts = MeasureOptions::default();
        let mut idx1 = IncrementalIndex::build(sc1.db, sc1.constraints).unwrap();
        let mut idx4 = IncrementalIndex::build(sc4.db, sc4.constraints).unwrap();
        idx1.set_solve_threads(1);
        idx4.set_solve_threads(4);
        prop_assert_eq!(idx1.i_mi(), idx4.i_mi());
        prop_assert_eq!(idx1.i_p(), idx4.i_p());
        prop_assert_eq!(idx1.i_r(&opts).unwrap(), idx4.i_r(&opts).unwrap());
        prop_assert_eq!(idx1.tuple_measures(), idx4.tuple_measures());
    }

    /// The injector lands within ±1 tuple of `ratio × |db|`, and the
    /// dirty set it reports is *exactly* the set of tuples a from-scratch
    /// violation enumeration finds problematic.
    #[test]
    fn injector_ratio_and_ground_truth_are_exact(
        sf in 0u8..64,
        full_sel in 0u8..2,
        seed in 0u64..1000,
        ratio_pct in 1u8..12,
    ) {
        let ratio = f64::from(ratio_pct) / 100.0;
        let full = full_sel == 1;
        let mut sc = generate_scenario(&spec(sf, dc_set(full), seed));
        let total = sc.db.len();
        let injection = inject(&mut sc, ratio, seed ^ 0xD1CE).unwrap();
        let target = (ratio * total as f64).round();
        prop_assert!(
            (injection.dirty.len() as f64 - target).abs() <= 1.0,
            "asked for {target} dirty tuples, got {}",
            injection.dirty.len()
        );
        let enumerated = enumerate_dirty(&sc.db, &sc.constraints);
        prop_assert_eq!(&injection.dirty, &enumerated);
        // Per-shape counts account for every edit batch the injector made.
        let shapes: usize = injection.per_shape.iter().map(|(_, n)| n).sum();
        prop_assert!(shapes > 0);
        // The Fk shape only appears when the DC-set can express it.
        if !full {
            prop_assert!(injection
                .per_shape
                .iter()
                .all(|(s, _)| *s != Shape::Fk));
        }
    }
}

/// The `sf0.02/r0.05/s1` cell of each DC-set, served through the index
/// and checked against the injector's ground truth: `I_P` is the dirty
/// set, the per-tuple scores re-aggregate to `I_MI` and `I_P`, and a
/// warm top-10 read is bit-identical to the exclusive one. The measure
/// values are pinned exactly. Release builds also require the cell's
/// index build (with the first `I_MI`/`I_P` read) and its warm top-10
/// reads to reach 40% of the recorded 4.61M tuples/s and 122.5k reads/s.
#[test]
fn scale_cells_serve_the_injected_ground_truth() {
    for (dc_set, cell, want_mi, want_p) in [
        (DcSet::Core, "core/sf0.02/r0.05/s1", 50.0, 75.0),
        (DcSet::Full, "full/sf0.02/r0.05/s1", 45.0, 75.0),
    ] {
        let mut sc = generate_scenario(&ScenarioSpec {
            scale_factor: 0.02,
            dc_set,
            seed: 1,
        });
        let injected = inject(&mut sc, 0.05, 1).unwrap().dirty.len();
        let tuples = sc.db.len();
        // The fastest of three builds: a cold first build (page faults)
        // or a host stall does not decide the rate.
        let mut build_s = f64::MAX;
        let mut built = None;
        for _ in 0..3 {
            let (db, cs) = (sc.db.clone(), sc.constraints.clone());
            let started = std::time::Instant::now();
            let mut idx = IncrementalIndex::build(db, cs).unwrap();
            let measures = (idx.i_mi(), idx.i_p());
            build_s = build_s.min(started.elapsed().as_secs_f64());
            built = Some((idx, measures));
        }
        let (mut idx, (i_mi, i_p)) = built.unwrap();
        assert_eq!((i_mi, i_p), (want_mi, want_p), "{cell}");
        assert_eq!(i_p as usize, injected, "{cell}: I_P is not the dirty set");
        let scores = idx.tuple_measures();
        let cim: f64 = scores.iter().map(|s| s.cim).sum();
        let pim: f64 = scores.iter().map(|s| s.pim).sum();
        assert!(
            (cim - i_mi).abs() < 1e-9,
            "{cell}: Σcim {cim} vs I_MI {i_mi}"
        );
        assert_eq!(pim, i_p, "{cell}: Σpim vs I_P");
        let top = idx.top_k_tuples(10);
        let started = std::time::Instant::now();
        for _ in 0..100 {
            let warm = idx.try_top_k_tuples(10).expect("warm caches answer");
            assert_eq!(
                warm, top,
                "{cell}: warm read diverged from the exclusive read"
            );
        }
        let read_s = started.elapsed().as_secs_f64();
        if !cfg!(debug_assertions) {
            let build_rate = tuples as f64 / build_s;
            let read_rate = 100.0 / read_s;
            assert!(
                build_rate >= 4_614_923.2 * 0.4,
                "{cell}: build {build_rate:.0} tuples/s"
            );
            assert!(
                read_rate >= 122_549.3 * 0.4,
                "{cell}: warm top-10 {read_rate:.0} reads/s"
            );
        }
    }
}
