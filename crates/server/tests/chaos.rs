//! Fault-injection chaos matrix over every durable I/O site.
//!
//! The `failpoints` shim (armed only in test builds via the dev-dep
//! feature) lets each test inject an outright error or a deliberately
//! short ("torn") write at a named site inside
//! `inconsist_server::durable`. The contract under fire:
//!
//! * **appends are all-or-nothing** — a batch that fails anywhere
//!   (write, fsync) is rolled back and the in-memory state is untouched;
//! * **a failed rollback wedges** — the session refuses further appends
//!   loudly instead of extending a log that diverged from what was
//!   acknowledged, while reads keep serving the acknowledged state;
//! * **snapshot/compact failures never lose serving state** — the
//!   session keeps applying and measuring, no temp files are stranded;
//! * **recovery is bit-identical or loud** — after every injected
//!   crash, `Session::recover` lands exactly on the acknowledged op
//!   prefix (verified against a from-scratch index replay and the batch
//!   measures), or fails with an error instead of silently skipping data.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and disarms all sites on entry and exit (panic included).

use inconsist::incremental::{IncrementalIndex, ReadMode};
use inconsist::measures::{
    InconsistencyMeasure, LinearMinimumRepair, MeasureOptions, MinimalInconsistentSubsets,
    MinimumRepair, ProblematicFacts,
};
use inconsist_formats::csv::load_csv;
use inconsist_formats::dcfile::parse_dc_file;
use inconsist_formats::opsfile::parse_ops_file;
use inconsist_server::durable::{DurabilityConfig, FsyncPolicy};
use inconsist_server::{Json, Session};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const BLOCKS: i64 = 4;
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

/// Serializes chaos tests (the failpoint registry is process-global) and
/// guarantees every site is disarmed on entry and exit, panics included.
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Armed {
    fn drop(&mut self) {
        failpoints::clear_all();
    }
}

fn arm() -> Armed {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoints::clear_all();
    Armed(guard)
}

fn fresh_cfg(fsync: FsyncPolicy, segment_bytes: Option<u64>) -> DurabilityConfig {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    DurabilityConfig {
        data_dir: std::env::temp_dir().join(format!("inconsist-chaos-{}-{n}", std::process::id())),
        fsync,
        snapshot_every: None,
        segment_bytes,
    }
}

fn open(cfg: &DurabilityConfig) -> Session {
    Session::open(
        "t",
        &fixture_csv(),
        FIXTURE_DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        Some(cfg),
    )
    .unwrap()
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

/// From-scratch ground truth: rebuild from the fixture CSV and replay the
/// acknowledged op lines through a fresh index.
fn scratch_measures(ops: &[String]) -> Vec<(String, f64)> {
    let (mut idx, parsed) = fixture_index(ops);
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

/// The definitional oracle: apply the op lines to the fixture database
/// and evaluate the batch measures, which re-enumerate the violations.
/// `raw`/`components` come from an index built over the final database.
fn batch_measures(ops: &[String]) -> Vec<(String, f64)> {
    let (idx, parsed) = fixture_index(ops);
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

/// A fresh index over the fixture, plus `ops` parsed against its schema.
fn fixture_index(ops: &[String]) -> (IncrementalIndex, Vec<inconsist::repair::RepairOp>) {
    let loaded = load_csv(&fixture_csv(), "t").unwrap();
    let dcs = parse_dc_file(&loaded.schema, "t", FIXTURE_DC).unwrap();
    let mut cs = inconsist::constraints::ConstraintSet::new(Arc::clone(&loaded.schema));
    for dc in dcs {
        cs.add_dc(dc);
    }
    let rel_schema = loaded.db.relation_schema(loaded.rel).clone();
    let parsed = ops
        .iter()
        .map(|line| parse_ops_file(&rel_schema, loaded.rel, line).unwrap()[0].clone())
        .collect();
    (IncrementalIndex::build(loaded.db, cs).unwrap(), parsed)
}

/// Recovery must land exactly on the acknowledged ops, bit-identical to a
/// from-scratch index replay and to the batch measures.
fn assert_recovers_to(cfg: &DurabilityConfig, acked: &[String]) {
    let recovered = Session::recover(cfg, "t", 1, MeasureOptions::default()).unwrap();
    let got = measures(&recovered);
    assert_eq!(got, scratch_measures(acked), "index replay");
    assert_eq!(got, batch_measures(acked), "batch measures");
}

fn no_temp_files(dir: &std::path::Path) {
    let leftovers: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stranded temp files: {leftovers:?}");
}

/// Append-path faults (write error, fsync error, torn write) must reject
/// the whole batch: in-memory state untouched, later appends clean, and
/// recovery bit-identical to the acknowledged prefix.
#[test]
fn append_faults_are_all_or_nothing() {
    let _armed = arm();
    let sites = [
        ("wal.append.write", "err:injected write failure"),
        ("wal.append.fsync", "err:injected fsync failure"),
        ("wal.append.write", "torn:5"),
    ];
    for (site, spec) in sites {
        let cfg = fresh_cfg(FsyncPolicy::Always, None);
        let session = open(&cfg);
        let mut acked = Vec::new();
        for line in ["update 0 B 1", "update 3 B 1", "insert 2,1"] {
            session.apply_ops(line).unwrap();
            acked.push(line.to_string());
        }
        let before = measures(&session);

        failpoints::config(site, spec).unwrap();
        let err = session.apply_ops("update 1 B 99").unwrap_err();
        assert!(err.to_string().contains(site), "{err}");
        failpoints::config(site, "off").unwrap();

        // The failed batch must not have been applied...
        assert_eq!(measures(&session), before, "{site} leaked a batch");
        // ...and the log must be intact for further writes.
        session.apply_ops("update 1 B 99").unwrap();
        acked.push("update 1 B 99".to_string());

        drop(session);
        assert_recovers_to(&cfg, &acked);
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }
}

/// A torn write whose rollback truncate *also* fails must wedge the
/// session: appends refuse loudly, reads keep serving the acknowledged
/// state, and recovery drops the torn tail to land on that same state.
#[test]
fn failed_rollback_wedges_and_recovery_drops_the_torn_tail() {
    let _armed = arm();
    let cfg = fresh_cfg(FsyncPolicy::Never, None);
    let session = open(&cfg);
    let acked = vec!["update 0 B 1".to_string(), "update 3 B 2".to_string()];
    for line in &acked {
        session.apply_ops(line).unwrap();
    }
    let before = measures(&session);

    failpoints::config("wal.append.write", "torn:7").unwrap();
    failpoints::config("wal.append.truncate", "err:rollback denied").unwrap();
    session.apply_ops("update 1 B 99").unwrap_err();
    failpoints::clear_all();

    // Wedged: the next append is refused with the original cause...
    let err = session.apply_ops("update 1 B 99").unwrap_err();
    assert!(err.to_string().contains("wedged"), "{err}");
    // ...stats say so...
    let wedged = session
        .stats()
        .get("durability")
        .and_then(|d| d.get("wedged"))
        .and_then(Json::as_str)
        .map(str::to_string);
    assert!(wedged.is_some(), "stats should expose the wedge");
    // ...but reads still serve the acknowledged state.
    assert_eq!(measures(&session), before);
    drop(session);

    // The 7 torn bytes are on disk; recovery must drop them.
    let recovered = Session::recover(&cfg, "t", 1, MeasureOptions::default()).unwrap();
    let torn = recovered
        .stats()
        .get("durability")
        .and_then(|d| d.get("recovery"))
        .and_then(|r| r.get("torn_tail_dropped"))
        .and_then(Json::as_bool);
    assert_eq!(torn, Some(true), "recovery should report the torn tail");
    assert_eq!(recovered.counters().op_seq.get(), acked.len() as u64);
    drop(recovered);
    assert_recovers_to(&cfg, &acked);
    std::fs::remove_dir_all(&cfg.data_dir).ok();
}

/// Snapshot- and compact-path faults fail the maintenance request but
/// must never disturb serving state, strand temp files, or damage what
/// recovery reads.
#[test]
fn snapshot_and_compact_faults_leave_serving_state_intact() {
    let _armed = arm();
    let sites = [
        ("snapshot.create", false),
        ("snapshot.write", false),
        ("snapshot.fsync", false),
        ("snapshot.rename", false),
        ("compact.rewrite", true),
        ("compact.write", true),
        ("compact.rename", true),
    ];
    for (site, is_compact) in sites {
        let cfg = fresh_cfg(FsyncPolicy::Always, None);
        let session = open(&cfg);
        let mut acked = vec!["update 0 B 1".to_string()];
        session.apply_ops(&acked[0]).unwrap();
        if is_compact {
            // Give compaction something to drop.
            session.snapshot().unwrap();
        }
        let before = measures(&session);

        failpoints::config(site, "err:injected").unwrap();
        let err = if is_compact {
            session.compact().unwrap_err()
        } else {
            session.snapshot().unwrap_err()
        };
        assert!(err.to_string().contains(site), "{err}");
        failpoints::config(site, "off").unwrap();

        no_temp_files(&cfg.data_dir.join("t"));
        assert_eq!(measures(&session), before, "{site} disturbed state");
        // The session still writes and maintains.
        session.apply_ops("update 1 B 2").unwrap();
        acked.push("update 1 B 2".to_string());
        session.snapshot().unwrap();
        session.compact().unwrap();

        drop(session);
        assert_recovers_to(&cfg, &acked);
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }
}

/// A failed unlink of a sealed segment fails compaction without losing
/// the segment; a failed seal rename leaves appends on the current
/// segment (rotation is best-effort and retried).
#[test]
fn rotation_and_unlink_faults_are_contained() {
    let _armed = arm();
    // Rotate after every batch: 1-byte threshold.
    let cfg = fresh_cfg(FsyncPolicy::Never, Some(1));
    let session = open(&cfg);
    let mut acked = Vec::new();

    // Seal rename fails: the append itself still succeeds and the log
    // simply keeps growing on the active segment.
    failpoints::config("wal.seal.rename", "err:injected").unwrap();
    for line in ["update 0 B 1", "update 1 B 2"] {
        session.apply_ops(line).unwrap();
        acked.push(line.to_string());
    }
    failpoints::config("wal.seal.rename", "off").unwrap();
    let sealed = |s: &Session| {
        s.stats()
            .get("durability")
            .and_then(|d| d.get("sealed_segments"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert_eq!(sealed(&session), 0.0, "failed seal must not count");

    // With the site disarmed the next batch rotates.
    session.apply_ops("update 2 B 3").unwrap();
    acked.push("update 2 B 3".to_string());
    assert!(sealed(&session) >= 1.0);

    // Unlink fails mid-compaction: the sealed segment survives and a
    // retry finishes the job.
    session.snapshot().unwrap();
    failpoints::config("compact.unlink", "err:injected").unwrap();
    let err = session.compact().unwrap_err();
    assert!(err.to_string().contains("compact.unlink"), "{err}");
    failpoints::config("compact.unlink", "off").unwrap();
    assert!(
        sealed(&session) >= 1.0,
        "failed unlink must keep the segment"
    );
    session.compact().unwrap();
    assert_eq!(sealed(&session), 0.0);

    drop(session);
    assert_recovers_to(&cfg, &acked);
    std::fs::remove_dir_all(&cfg.data_dir).ok();
}

/// Unreadable files at recovery time fail loudly — recovery never skips
/// data it cannot read.
#[test]
fn recover_read_faults_fail_loudly() {
    let _armed = arm();
    let cfg = fresh_cfg(FsyncPolicy::Never, None);
    let session = open(&cfg);
    let acked = vec!["update 0 B 1".to_string()];
    session.apply_ops(&acked[0]).unwrap();
    drop(session);

    failpoints::config("recover.read", "err:injected read failure").unwrap();
    let err = Session::recover(&cfg, "t", 1, MeasureOptions::default())
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("recover.read"), "{err}");
    failpoints::config("recover.read", "off").unwrap();

    assert_recovers_to(&cfg, &acked);
    std::fs::remove_dir_all(&cfg.data_dir).ok();
}
