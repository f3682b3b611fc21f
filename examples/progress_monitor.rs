//! Progress indication: the paper's motivating use case (§1).
//!
//! A cleaning system repairs a noisy database one operation at a time; an
//! inconsistency measure drives the progress bar. Good measures (I_R,
//! I_R^lin) decay smoothly toward zero; bad ones (I_d) stay flat until the
//! very end and I_P collapses in jumps.
//!
//! The measure trace is read from an [`IncrementalIndex`], whose reads
//! are component-scoped: each greedy deletion dirties one conflict
//! component, so every re-read after the first filters and solves only
//! that component instead of the whole database — the read-side stats are
//! printed at the end.
//!
//! ```text
//! cargo run --release --example progress_monitor
//! ```

use inconsist::incremental::IncrementalIndex;
use inconsist::measures::{MeasureOptions, MeasureResult};
use inconsist::suite::normalize_series;
use inconsist_data::{generate, CoNoise, DatasetId};

fn main() {
    // A 400-tuple Hospital sample with planted violations.
    let mut ds = generate(DatasetId::Hospital, 400, 11);
    let mut noise = CoNoise::new(4);
    for _ in 0..25 {
        noise.step(&mut ds.db, &ds.constraints);
    }

    let opts = MeasureOptions::default();
    let mut idx =
        IncrementalIndex::build(ds.db.clone(), ds.constraints.clone()).expect("build index");

    // Record the measure trace while a greedy hottest-tuple cleaner works;
    // every read after a deletion touches only the dirtied component.
    let names = ["I_MI", "I_P", "I_R", "I_R^lin", "I_d"];
    let mut checkpoints = Vec::new();
    let mut series: std::collections::BTreeMap<&'static str, Vec<MeasureResult>> =
        Default::default();
    let mut step = 0usize;
    loop {
        checkpoints.push(step);
        let row: [MeasureResult; 5] = [
            Ok(idx.i_mi()),
            Ok(idx.i_p()),
            idx.i_r(&opts),
            idx.i_r_lin(),
            Ok(idx.i_d()),
        ];
        for (name, v) in names.iter().zip(row) {
            series.entry(name).or_default().push(v);
        }
        // Greedy step: delete the tuple in the most raw violations.
        let Some(&(hot, _)) = idx.hottest_tuples(1).first() else {
            break;
        };
        idx.delete(hot);
        step += 1;
    }

    println!("Cleaning finished after {step} deletions.\n");
    println!("Progress traces (normalized, 1.0 = dirtiest):");
    print!("{:>6}", "step");
    for n in &names {
        print!("{n:>10}");
    }
    println!();
    let normalized: std::collections::BTreeMap<&str, Vec<f64>> = names
        .iter()
        .map(|n| (*n, normalize_series(&series[n])))
        .collect();
    for (row, s) in checkpoints.iter().enumerate() {
        print!("{s:>6}");
        for n in &names {
            let v = normalized[*n][row];
            if v.is_nan() {
                print!("{:>10}", "--");
            } else {
                print!("{v:>10.2}");
            }
        }
        println!();
    }

    // A progress bar driven by I_R^lin.
    let lin = &series["I_R^lin"];
    let max = lin
        .iter()
        .filter_map(|v| v.as_ref().ok())
        .fold(0.0f64, |m, &v| m.max(v));
    println!("\nProgress bar from I_R^lin:");
    for (s, v) in checkpoints.iter().zip(lin.iter()) {
        if let Ok(v) = v {
            let done = if max > 0.0 { 1.0 - v / max } else { 1.0 };
            let filled = (done * 30.0).round() as usize;
            println!(
                "step {s:>3} [{}{}] {:>4.0}%",
                "#".repeat(filled),
                "-".repeat(30 - filled),
                done * 100.0
            );
        }
    }

    let stats = idx.stats();
    println!(
        "\nIncremental read work across {} reads: {} minimality filters \
         ({} components served from cache), {} cover solves ({} cached), \
         {} LP solves ({} cached).",
        checkpoints.len(),
        stats.filter_runs,
        stats.filter_cache_hits,
        stats.cover_solves,
        stats.cover_cache_hits,
        stats.lin_solves,
        stats.lin_cache_hits,
    );
}
