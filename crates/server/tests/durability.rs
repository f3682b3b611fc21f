//! Durability property test: random interleavings of repair ops,
//! snapshots, log compactions and *simulated truncated-log crashes*
//! recover to exactly the state a from-scratch [`IncrementalIndex`]
//! reaches by replaying the surviving op prefix, and to the batch
//! measures evaluated on that prefix — bit-identical
//! `I_MI`/`I_P`/`I_R`/`I_R^lin`.
//!
//! The crash simulation chops an arbitrary number of bytes off the end
//! of `ops.log`, which can land anywhere inside the final record (or eat
//! several records and then land inside an earlier one). The contract:
//! a torn final record is *dropped, never half-applied*, so the
//! recovered state corresponds to `ops 1..=K` where `K` is the last
//! sequence number still intact on disk (snapshot or log record) — and
//! the test computes `K` independently by scanning the truncated file.

use inconsist::incremental::{IncrementalIndex, ReadMode};
use inconsist::measures::{
    InconsistencyMeasure, LinearMinimumRepair, MeasureOptions, MinimalInconsistentSubsets,
    MinimumRepair, ProblematicFacts,
};
use inconsist::repair::RepairOp;
use inconsist_formats::csv::load_csv;
use inconsist_formats::dcfile::parse_dc_file;
use inconsist_formats::durable::parse_log;
use inconsist_formats::opsfile::parse_ops_file;
use inconsist_server::durable::{DurabilityConfig, FsyncPolicy};
use inconsist_server::{Json, ServerError, Session};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCKS: i64 = 6;
const ROWS_PER_BLOCK: i64 = 3;
const FIXTURE_DC: &str = "fd: t.A = t'.A & t.B != t'.B\n";

fn fixture_csv() -> String {
    let mut csv = "A,B\n".to_string();
    for k in 0..BLOCKS {
        for j in 0..ROWS_PER_BLOCK {
            csv.push_str(&format!("{k},{}\n", ROWS_PER_BLOCK * k + j));
        }
    }
    csv
}

/// One step of the generated workload.
#[derive(Clone, Debug)]
enum Action {
    /// Apply one `.ops` line through the session writer path.
    Op(String),
    /// Write a point-in-time snapshot; `compact` optionally follows.
    Snapshot { compact: bool },
}

/// The raw tuple shape the shim's strategies can generate; decoded into
/// [`Action`]s inside the test body.
type RawAction = (u8, u32, i64, i64);

fn decode(raw: &[RawAction]) -> Vec<Action> {
    raw.iter()
        .map(|&(choice, id, block, value)| match choice {
            0..=4 => Action::Op(format!("update {id} B {value}")),
            5 => Action::Op(format!("update {id} A {block}")),
            6 | 7 => Action::Op(format!("insert {block},{value}")),
            8 => Action::Op(format!("delete {id}")),
            _ => Action::Snapshot {
                compact: value % 2 == 0,
            },
        })
        .collect()
}

fn action_strategy() -> impl Strategy<Value = Vec<RawAction>> {
    let max_id = (BLOCKS * ROWS_PER_BLOCK) as u32 + 64;
    prop::collection::vec((0u8..10, 0u32..max_id, 0i64..BLOCKS, 0i64..40), 1..30)
}

fn fresh_cfg() -> DurabilityConfig {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    DurabilityConfig {
        data_dir: std::env::temp_dir().join(format!(
            "inconsist-durability-prop-{}-{n}",
            std::process::id()
        )),
        fsync: FsyncPolicy::Never,
        snapshot_every: None,
        segment_bytes: None,
    }
}

/// The measure vector whose bit-identity the recovery contract promises.
fn measures(session: &Session) -> Vec<(String, f64)> {
    let names: Vec<String> = ["I_MI", "I_P", "I_R", "I_R^lin", "raw", "components"]
        .iter()
        .map(|m| m.to_string())
        .collect();
    let resp = session
        .measure(&names, false, &MeasureOptions::default())
        .expect("measure");
    match resp.get("values") {
        Some(Json::Obj(entries)) => entries
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().expect("numeric")))
            .collect(),
        other => panic!("no values: {other:?}"),
    }
}

/// A fresh index over `csv`, plus ops `1..=k` parsed against its schema.
fn fixture_index(csv: &str, ops: &[String], k: u64) -> (IncrementalIndex, Vec<RepairOp>) {
    let loaded = load_csv(csv, "t").unwrap();
    let dcs = parse_dc_file(&loaded.schema, "t", FIXTURE_DC).unwrap();
    let mut cs = inconsist::constraints::ConstraintSet::new(Arc::clone(&loaded.schema));
    for dc in dcs {
        cs.add_dc(dc);
    }
    let rel_schema = loaded.db.relation_schema(loaded.rel).clone();
    let parsed = ops[..k as usize]
        .iter()
        .map(|line| parse_ops_file(&rel_schema, loaded.rel, line).unwrap()[0].clone())
        .collect();
    (IncrementalIndex::build(loaded.db, cs).unwrap(), parsed)
}

/// The definitional oracle: apply ops `1..=k` to the original database
/// and evaluate the batch measures, which re-enumerate the violations.
/// `raw`/`components` come from an index built over the final database.
fn batch_measures(csv: &str, ops: &[String], k: u64) -> Vec<(String, f64)> {
    let (idx, parsed) = fixture_index(csv, ops, k);
    let cs = idx.constraints().clone();
    let mut db = idx.into_db();
    for op in &parsed {
        op.apply(&mut db);
    }
    let fresh = IncrementalIndex::build(db, cs).unwrap();
    let options = MeasureOptions::default();
    let eval = |m: &dyn InconsistencyMeasure| m.eval(fresh.constraints(), fresh.db()).unwrap();
    vec![
        (
            "I_MI".to_string(),
            eval(&MinimalInconsistentSubsets { options }),
        ),
        ("I_P".to_string(), eval(&ProblematicFacts { options })),
        ("I_R".to_string(), eval(&MinimumRepair { options })),
        (
            "I_R^lin".to_string(),
            eval(&LinearMinimumRepair { options }),
        ),
        ("raw".to_string(), fresh.raw_violations() as f64),
        ("components".to_string(), fresh.component_count() as f64),
    ]
}

/// From-scratch ground truth: rebuild from the original CSV and replay
/// ops `1..=k` through a fresh index.
fn scratch_measures(csv: &str, ops: &[String], k: u64) -> Vec<(String, f64)> {
    let (mut idx, parsed) = fixture_index(csv, ops, k);
    for op in &parsed {
        idx.apply(op);
    }
    let opts = MeasureOptions::default();
    vec![
        ("I_MI".to_string(), idx.i_mi()),
        ("I_P".to_string(), idx.i_p()),
        ("I_R".to_string(), idx.i_r(&opts).unwrap()),
        ("I_R^lin".to_string(), idx.i_r_lin().unwrap()),
        ("raw".to_string(), idx.raw_violations() as f64),
        ("components".to_string(), idx.component_count() as f64),
    ]
}

/// Newest on-disk snapshot seq, read the way recovery reads it: from the
/// zero-padded filenames.
fn newest_snapshot_seq(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("snapshot-")?
                .strip_suffix(".snap")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("at least the initial snapshot")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random ops, snapshots and compactions; then a crash that truncates
    /// the log at an arbitrary byte; recovery must land exactly on the
    /// surviving prefix, as an index replay and the batch measures see it.
    #[test]
    fn truncated_log_recovery_matches_from_scratch_replay(
        actions in action_strategy(),
        cut in 0usize..48,
    ) {
        let cfg = fresh_cfg();
        let csv = fixture_csv();
        let session = Session::open(
            "t", &csv, FIXTURE_DC, ReadMode::Component, 1, MeasureOptions::default(), Some(&cfg),
        ).unwrap();
        let actions = decode(&actions);
        let mut ops: Vec<String> = Vec::new();
        for action in &actions {
            match action {
                Action::Op(line) => {
                    session.apply_ops(line).unwrap();
                    ops.push(line.clone());
                }
                Action::Snapshot { compact } => {
                    session.snapshot().unwrap();
                    if *compact {
                        session.compact().unwrap();
                    }
                }
            }
        }
        drop(session); // crash: no shutdown snapshot

        // Tear the log: chop `cut` bytes off the end (capped at its
        // length, so this can erase several records and land mid-record).
        let session_dir = cfg.data_dir.join("t");
        let log_path = session_dir.join("ops.log");
        let bytes = std::fs::read(&log_path).unwrap();
        let cut = cut.min(bytes.len());
        std::fs::write(&log_path, &bytes[..bytes.len() - cut]).unwrap();

        // Ground truth for the surviving prefix, computed independently.
        let survivors = parse_log(&bytes[..bytes.len() - cut]).unwrap();
        let last_log_seq = survivors.records.last().map(|(s, _)| *s).unwrap_or(0);
        let k = newest_snapshot_seq(&session_dir).max(last_log_seq);

        let recovered = Session::recover(&cfg, "t", 1, MeasureOptions::default()).unwrap();
        let got = measures(&recovered);
        prop_assert_eq!(recovered.counters().op_seq.get(), k);
        prop_assert_eq!(&got, &scratch_measures(&csv, &ops, k));
        prop_assert_eq!(&got, &batch_measures(&csv, &ops, k));
        drop(recovered);
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }
}

/// Size-based segment rotation: a tiny threshold seals the active log
/// after nearly every batch; recovery replays the sealed segments in
/// order and lands bit-identically, and compaction retires the segments
/// covered by a snapshot with plain unlinks.
#[test]
fn sealed_segments_recover_in_order_and_compact_by_unlink() {
    let mut cfg = fresh_cfg();
    cfg.segment_bytes = Some(1); // rotate after every batch
    let csv = fixture_csv();
    let session = Session::open(
        "t",
        &csv,
        FIXTURE_DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        Some(&cfg),
    )
    .unwrap();
    let ops: Vec<String> = (0..8).map(|i| format!("update {i} B {}", 90 + i)).collect();
    for line in &ops {
        session.apply_ops(line).unwrap();
    }
    let sealed = session
        .stats()
        .get("durability")
        .and_then(|d| d.get("sealed_segments"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        sealed >= 2.0,
        "expected several sealed segments, got {sealed}"
    );
    let expected = measures(&session);
    drop(session); // crash: no shutdown snapshot

    let recovered = Session::recover(&cfg, "t", 1, MeasureOptions::default()).unwrap();
    assert_eq!(recovered.counters().op_seq.get(), ops.len() as u64);
    assert_eq!(measures(&recovered), expected);
    let k = ops.len() as u64;
    assert_eq!(measures(&recovered), scratch_measures(&csv, &ops, k));
    assert_eq!(measures(&recovered), batch_measures(&csv, &ops, k));

    // A snapshot covers every sealed segment; compaction unlinks them.
    recovered.snapshot().unwrap();
    recovered.compact().unwrap();
    let stats = recovered.stats();
    let durability = stats.get("durability").unwrap();
    assert_eq!(
        durability.get("sealed_segments").and_then(Json::as_f64),
        Some(0.0),
        "{stats}"
    );
    assert_eq!(measures(&recovered), expected);
    drop(recovered);
    // And the compacted directory still recovers bit-identically.
    let again = Session::recover(&cfg, "t", 1, MeasureOptions::default()).unwrap();
    assert_eq!(measures(&again), expected);
    drop(again);
    std::fs::remove_dir_all(&cfg.data_dir).ok();
}

/// Startup recovery refuses a log corrupted anywhere but the tail — a
/// durability layer must not silently skip data.
#[test]
fn mid_log_corruption_fails_recovery_loudly() {
    let cfg = fresh_cfg();
    let session = Session::open(
        "t",
        &fixture_csv(),
        FIXTURE_DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        Some(&cfg),
    )
    .unwrap();
    session.apply_ops("update 0 B 99\n").unwrap();
    session.apply_ops("update 1 B 98\n").unwrap();
    drop(session);
    let log_path = cfg.data_dir.join("t").join("ops.log");
    let mut bytes = std::fs::read(&log_path).unwrap();
    bytes[2] ^= 0x5a; // flip a checksum nibble in the *first* record
    std::fs::write(&log_path, &bytes).unwrap();
    let err = Session::recover(&cfg, "t", 1, MeasureOptions::default())
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ServerError::Io(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("oplog line 1"), "{msg}");
    std::fs::remove_dir_all(&cfg.data_dir).ok();
}

/// A data dir written before the index had a single read mode recovers:
/// its snapshot header carries a `mode global` line, which the reader
/// skips, and the recovered session serves exactly what a fresh session
/// over the same data and ops serves.
#[test]
fn legacy_global_mode_snapshot_recovers_bit_identically() {
    let cfg = fresh_cfg();
    let csv = fixture_csv();
    let session = Session::open(
        "t",
        &csv,
        FIXTURE_DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        Some(&cfg),
    )
    .unwrap();
    let ops = ["update 0 B 7", "insert 2,40", "delete 4", "update 9 A 1"];
    session.apply_ops(ops[0]).unwrap();
    session.apply_ops(ops[1]).unwrap();
    session.snapshot().unwrap();
    session.apply_ops(ops[2]).unwrap(); // log tail past the snapshot
    session.apply_ops(ops[3]).unwrap();
    drop(session); // crash: no shutdown snapshot

    // Rewrite the newest snapshot in the older header layout.
    let dir = cfg.data_dir.join("t");
    let path = dir.join(format!("snapshot-{:020}.snap", newest_snapshot_seq(&dir)));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("\nmode "), "{text}");
    let legacy = text.replacen("\nkinds ", "\nmode global\nkinds ", 1);
    assert_ne!(legacy, text);
    std::fs::write(&path, legacy).unwrap();

    let recovered = Session::recover(&cfg, "t", 1, MeasureOptions::default()).unwrap();
    let fresh = Session::open(
        "t",
        &csv,
        FIXTURE_DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        None,
    )
    .unwrap();
    for line in ops {
        fresh.apply_ops(line).unwrap();
    }
    let bits = |s: &Session| -> Vec<(String, u64)> {
        measures(s)
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect()
    };
    assert_eq!(bits(&recovered), bits(&fresh));
    assert_eq!(recovered.counters().op_seq.get(), ops.len() as u64);
    let top = |s: &Session| s.tuple_measures(5, None).unwrap().get("tuples").cloned();
    assert!(top(&recovered).is_some());
    assert_eq!(top(&recovered), top(&fresh));
    drop(recovered);
    std::fs::remove_dir_all(&cfg.data_dir).ok();
}
