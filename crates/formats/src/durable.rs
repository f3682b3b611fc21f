//! The durability formats: point-in-time session snapshots and the
//! write-ahead op log.
//!
//! `inconsist-server` persists a session as one directory holding
//! numbered snapshot files plus an append-only op log; recovery loads
//! the newest snapshot and replays the log tail through the incremental
//! index. This module owns the *text* of both artifacts — the server
//! crate owns the files, fsync policy and locking.
//!
//! ## Snapshot (`snapshot-<seq>.snap`)
//!
//! A header, the DC set, and a CSV-compatible database dump:
//!
//! ```text
//! #inconsist-snapshot v1
//! session cities
//! seq 42
//! applied 37
//! kinds str,str,int
//! options violation_limit=20000000 mis_budget=50000000 vc_budget=50000000
//! ids 0 1 3 2
//! %%dc
//! fd: t.City = t'.City & t.Country != t'.Country
//! %%csv
//! City,Country,Pop
//! Paris,FR,1
//! …
//! ```
//!
//! Two details make recovery *bit-identical* rather than merely
//! value-equal:
//!
//! * **`ids`** records the tuple identifier of every CSV data row in scan
//!   order. Log-tail ops address tuples by id, and
//!   [`Database::insert`](inconsist::relational::Database::insert) assigns
//!   the minimal unused id — a pure function of the live id *set* — so
//!   reloading rows under their original ids (in the original scan order)
//!   reproduces both the addressing and every future insert's id choice.
//! * **`kinds`** pins the column types. Re-inferring them from the dumped
//!   rows could drift (e.g. a `float` column whose surviving values all
//!   look integral), silently retyping replayed op values.
//!
//! Snapshots written before the index had a single read mode carry a
//! `mode component` or `mode global` header line; the reader skips it.
//!
//! The CSV section is last because quoted CSV fields may contain
//! newlines; everything above it is strictly line-structured.
//!
//! ## Op log (`ops.log`)
//!
//! One record per line, written *before* the op is applied (write-ahead):
//!
//! ```text
//! <fnv64-hex> <seq> <op line>
//! ```
//!
//! The checksum covers `"<seq> <op line>"`. A crash can only tear the
//! *final* record (appends are sequential), so [`parse_log`] drops a
//! trailing line that is incomplete (no `\n`) or fails its checksum and
//! reports the prefix length to truncate to; the same damage anywhere
//! else is real corruption and fails with a line-echoing error in the
//! ``oplog line N `line`: msg`` shape shared with the `.ops` parser.

use crate::csv::{parse_csv, to_value, write_csv};
use crate::dcfile::write_dc_file;
use inconsist::constraints::DenialConstraint;
use inconsist::measures::MeasureOptions;
use inconsist::relational::{relation, Database, Fact, RelId, Schema, TupleId, Value, ValueKind};
use std::sync::Arc;

/// Magic first line of a snapshot file.
pub const SNAPSHOT_MAGIC: &str = "#inconsist-snapshot v1";

/// FNV-1a 64-bit — the log-record checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a snapshot captures besides the data itself.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotMeta {
    /// Session name.
    pub session: String,
    /// Last op sequence number applied before the snapshot was taken.
    pub seq: u64,
    /// Ops applied so far (no-ops excluded) — carried for `stats` only.
    pub applied: u64,
    /// Measure budgets active when the snapshot was taken.
    pub options: MeasureOptions,
}

/// A parsed snapshot, ready to rebuild the session.
#[derive(Debug)]
pub struct Snapshot {
    /// The header fields.
    pub meta: SnapshotMeta,
    /// The reconstructed database (original tuple ids, original scan
    /// order, pinned column kinds).
    pub db: Database,
    /// The relation the rows live in.
    pub rel: RelId,
    /// The `.dc` section, reparsed against the rebuilt schema by the
    /// caller (the DC parser needs the schema, which this module builds).
    pub dc_text: String,
}

/// Serializes a snapshot: header + DC set + CSV dump with the id map.
pub fn write_snapshot(
    meta: &SnapshotMeta,
    db: &Database,
    rel: RelId,
    dcs: &[DenialConstraint],
) -> String {
    let rs = db.relation_schema(rel);
    let kinds: Vec<&str> = rs.attributes().iter().map(|a| a.kind.name()).collect();
    let ids: Vec<String> = db.ids_of(rel).iter().map(|t| t.0.to_string()).collect();
    let mut out = format!(
        "{SNAPSHOT_MAGIC}\nsession {}\nseq {}\napplied {}\nkinds {}\n",
        meta.session,
        meta.seq,
        meta.applied,
        kinds.join(",")
    );
    out.push_str(&format!(
        "options violation_limit={} mis_budget={} vc_budget={}\n",
        meta.options
            .violation_limit
            .map(|v| v.to_string())
            .unwrap_or_else(|| "none".into()),
        meta.options.mis_budget,
        meta.options.vc_budget,
    ));
    out.push_str(&format!("ids {}\n", ids.join(" ")));
    out.push_str("%%dc\n");
    out.push_str(&write_dc_file(dcs, db.schema(), &meta.session));
    out.push_str("%%csv\n");
    out.push_str(&write_csv(db, rel));
    out
}

fn header_err(lineno: usize, line: &str, msg: &str) -> String {
    format!("snapshot line {lineno} `{line}`: {msg}")
}

/// Parses a snapshot file back into a database + metadata. Errors echo
/// the offending line, like every other text format in this crate.
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let mut lines = text.split_inclusive('\n');
    let mut consumed = 0usize;
    let mut lineno = 0usize;
    let mut next = |consumed: &mut usize, lineno: &mut usize| -> Option<&str> {
        let raw = lines.next()?;
        *consumed += raw.len();
        *lineno += 1;
        Some(raw.trim_end_matches(['\n', '\r']))
    };
    let magic = next(&mut consumed, &mut lineno).unwrap_or("");
    if magic != SNAPSHOT_MAGIC {
        return Err(header_err(1, magic, "expected the snapshot magic line"));
    }
    let mut session = None;
    let mut seq = None;
    let mut applied = 0u64;
    let mut kinds: Option<Vec<ValueKind>> = None;
    let mut options = MeasureOptions::default();
    let mut ids: Option<Vec<u32>> = None;
    loop {
        let Some(line) = next(&mut consumed, &mut lineno) else {
            return Err("snapshot ends before the %%dc section".into());
        };
        if line == "%%dc" {
            break;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| header_err(lineno, line, "expected `key value`"))?;
        match key {
            "session" => session = Some(value.to_string()),
            "seq" => {
                seq =
                    Some(value.parse::<u64>().map_err(|_| {
                        header_err(lineno, line, "`seq` expects an unsigned integer")
                    })?)
            }
            "applied" => {
                applied = value.parse::<u64>().map_err(|_| {
                    header_err(lineno, line, "`applied` expects an unsigned integer")
                })?
            }
            // Legacy read-mode line: every read is component-scoped now.
            "mode" if matches!(value, "component" | "global") => {}
            "kinds" => {
                let parsed: Result<Vec<ValueKind>, String> = value
                    .split(',')
                    .map(|k| match k {
                        "int" => Ok(ValueKind::Int),
                        "float" => Ok(ValueKind::Float),
                        "str" => Ok(ValueKind::Str),
                        other => Err(header_err(
                            lineno,
                            line,
                            &format!("unknown column kind `{other}`"),
                        )),
                    })
                    .collect();
                kinds = Some(parsed?);
            }
            "options" => {
                for field in value.split_whitespace() {
                    let (k, v) = field.split_once('=').ok_or_else(|| {
                        header_err(lineno, line, "`options` expects key=value fields")
                    })?;
                    let bad = || header_err(lineno, line, &format!("cannot parse `{field}`"));
                    match k {
                        "violation_limit" => {
                            options.violation_limit = if v == "none" {
                                None
                            } else {
                                Some(v.parse().map_err(|_| bad())?)
                            }
                        }
                        "mis_budget" => options.mis_budget = v.parse().map_err(|_| bad())?,
                        "vc_budget" => options.vc_budget = v.parse().map_err(|_| bad())?,
                        _ => return Err(header_err(lineno, line, "unknown options field")),
                    }
                }
            }
            "ids" => {
                let parsed: Result<Vec<u32>, _> = if value.is_empty() {
                    Ok(Vec::new())
                } else {
                    value.split(' ').map(str::parse::<u32>).collect()
                };
                ids = Some(parsed.map_err(|_| {
                    header_err(lineno, line, "`ids` expects space-separated tuple ids")
                })?);
            }
            _ => return Err(header_err(lineno, line, "unknown header field")),
        }
    }
    let session = session.ok_or("snapshot header is missing `session`")?;
    let seq = seq.ok_or("snapshot header is missing `seq`")?;
    let kinds = kinds.ok_or("snapshot header is missing `kinds`")?;
    let ids = ids.ok_or("snapshot header is missing `ids`")?;
    // The DC section runs until %%csv; the CSV section is the rest.
    let mut dc_text = String::new();
    let csv_text = loop {
        let Some(line) = next(&mut consumed, &mut lineno) else {
            return Err("snapshot ends before the %%csv section".into());
        };
        if line == "%%csv" {
            break &text[consumed..];
        }
        dc_text.push_str(line);
        dc_text.push('\n');
    };
    // Rebuild the database under the recorded ids and kinds.
    let rows = parse_csv(csv_text)?;
    let (header, data) = rows
        .split_first()
        .ok_or_else(|| "snapshot csv section has no header row".to_string())?;
    if header.len() != kinds.len() {
        return Err(format!(
            "snapshot csv header has {} columns but `kinds` lists {}",
            header.len(),
            kinds.len()
        ));
    }
    if data.len() != ids.len() {
        return Err(format!(
            "snapshot csv has {} data rows but `ids` lists {}",
            data.len(),
            ids.len()
        ));
    }
    let cols: Vec<(&str, ValueKind)> = header
        .iter()
        .zip(&kinds)
        .map(|(h, &k)| (h.as_str(), k))
        .collect();
    let mut schema = Schema::new();
    let rel = schema
        .add_relation(relation(&session, &cols).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let schema = Arc::new(schema);
    let mut db = Database::new(Arc::clone(&schema));
    for (row, &id) in data.iter().zip(&ids) {
        if row.len() != header.len() {
            return Err(format!(
                "snapshot csv row for tuple #{id}: {} fields, expected {}",
                row.len(),
                header.len()
            ));
        }
        let values: Vec<Value> = row
            .iter()
            .zip(&kinds)
            .map(|(raw, &k)| to_value(raw, k))
            .collect();
        db.insert_with_id(TupleId(id), Fact::new(rel, values))
            .map_err(|e| format!("snapshot tuple #{id}: {e}"))?;
    }
    Ok(Snapshot {
        meta: SnapshotMeta {
            session,
            seq,
            applied,
            options,
        },
        db,
        rel,
        dc_text,
    })
}

/// Encodes one op-log record (including the trailing newline).
pub fn encode_log_record(seq: u64, op_line: &str) -> String {
    let payload = format!("{seq} {op_line}");
    format!("{:016x} {payload}\n", fnv64(payload.as_bytes()))
}

/// The result of scanning an op log.
#[derive(Debug)]
pub struct LogScan {
    /// The intact records, in file order: `(seq, op line)`.
    pub records: Vec<(u64, String)>,
    /// Byte length of the valid prefix — the length to truncate the file
    /// to before appending again when a torn tail was dropped.
    pub valid_len: usize,
    /// Description of the dropped torn tail, when there was one.
    pub torn: Option<String>,
}

fn decode_record(line: &str) -> Result<(u64, String), String> {
    let (sum_hex, payload) = line
        .split_once(' ')
        .ok_or("expected `<checksum> <seq> <op>`")?;
    let sum = u64::from_str_radix(sum_hex, 16).map_err(|_| "bad checksum field".to_string())?;
    if fnv64(payload.as_bytes()) != sum {
        return Err("checksum mismatch".into());
    }
    let (seq_str, op) = payload
        .split_once(' ')
        .ok_or("record has no op after the sequence number")?;
    let seq = seq_str
        .parse::<u64>()
        .map_err(|_| "bad sequence number".to_string())?;
    Ok((seq, op.to_string()))
}

/// Scans an op log. A damaged or incomplete *final* line is the torn
/// tail of an interrupted append: it is dropped (never half-applied) and
/// reported. Damage anywhere else — or a non-increasing sequence number —
/// is corruption and fails with an ``oplog line N `line`: msg`` error.
pub fn parse_log(bytes: &[u8]) -> Result<LogScan, String> {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut torn = None;
    let mut last_seq = 0u64;
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < bytes.len() {
        lineno += 1;
        let nl = bytes[pos..].iter().position(|&b| b == b'\n');
        let (line_bytes, complete, line_len) = match nl {
            Some(i) => (&bytes[pos..pos + i], true, i + 1),
            None => (&bytes[pos..], false, bytes.len() - pos),
        };
        let line = String::from_utf8_lossy(line_bytes);
        let is_last = pos + line_len == bytes.len();
        let verdict = if complete {
            decode_record(&line)
        } else {
            Err("no trailing newline".into())
        };
        match verdict {
            Ok((seq, op)) => {
                if seq <= last_seq {
                    return Err(format!(
                        "oplog line {lineno} `{line}`: sequence number {seq} is not \
                         greater than the previous record's {last_seq}"
                    ));
                }
                last_seq = seq;
                records.push((seq, op));
                valid_len = pos + line_len;
            }
            Err(msg) if is_last => {
                torn = Some(format!(
                    "oplog line {lineno} `{}`: torn tail dropped ({msg})",
                    line.chars().take(80).collect::<String>()
                ));
            }
            Err(msg) => {
                return Err(format!("oplog line {lineno} `{line}`: {msg}"));
            }
        }
        pos += line_len;
    }
    Ok(LogScan {
        records,
        valid_len,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::load_csv;
    use crate::dcfile::parse_dc_file;
    use crate::opsfile::{op_to_line, parse_ops_file};

    const DATA: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,FR,4\n";
    const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

    fn meta(seq: u64) -> SnapshotMeta {
        SnapshotMeta {
            session: "cities".into(),
            seq,
            applied: seq,
            options: MeasureOptions::default(),
        }
    }

    #[test]
    fn snapshot_round_trips_ids_kinds_and_order() {
        let loaded = load_csv(DATA, "cities").unwrap();
        let dcs = parse_dc_file(&loaded.schema, "cities", DC).unwrap();
        let mut db = loaded.db;
        // Punch a hole in the id space and re-insert: live ids {0,2,3,4},
        // scan order [0,2,3,4] after delete(1) then insert(→ id 1? no:
        // delete 1 frees it, insert reuses 1 and appends it at the end of
        // the scan).
        db.delete(TupleId(1));
        db.insert(Fact::new(
            loaded.rel,
            vec![Value::str("Nice"), Value::str("FR"), Value::Int(7)],
        ))
        .unwrap();
        let text = write_snapshot(&meta(9), &db, loaded.rel, &dcs);
        let snap = parse_snapshot(&text).unwrap();
        assert_eq!(snap.meta, meta(9));
        assert_eq!(snap.db.len(), db.len());
        assert_eq!(snap.db.ids_of(snap.rel), db.ids_of(loaded.rel));
        let a: Vec<Vec<Value>> = db.scan(loaded.rel).map(|f| f.values.to_vec()).collect();
        let b: Vec<Vec<Value>> = snap.db.scan(snap.rel).map(|f| f.values.to_vec()).collect();
        assert_eq!(a, b);
        // The DC section reparses against the rebuilt schema.
        let re = parse_dc_file(snap.db.schema(), "cities", &snap.dc_text).unwrap();
        assert_eq!(re.len(), 1);
        assert_eq!(re[0].predicates, dcs[0].predicates);
        // The next insert picks the same id on both sides (minimal unused).
        let next_live = db
            .insert(Fact::new(
                loaded.rel,
                vec![Value::Null, Value::Null, Value::Null],
            ))
            .unwrap();
        let mut recovered = snap.db;
        let next_rec = recovered
            .insert(Fact::new(
                snap.rel,
                vec![Value::Null, Value::Null, Value::Null],
            ))
            .unwrap();
        assert_eq!(next_live, next_rec);
    }

    #[test]
    fn snapshot_pins_kinds_against_reinference() {
        // A float column whose only surviving value looks integral must
        // come back as float, not int.
        let loaded = load_csv("A,B\n1,2.5\n2,3\n", "t").unwrap();
        let dcs = parse_dc_file(&loaded.schema, "t", "u: t.B < 0\n").unwrap();
        let mut db = loaded.db;
        db.delete(TupleId(0)); // only the "3" row survives
        let text = write_snapshot(&meta(1), &db, loaded.rel, &dcs);
        let snap = parse_snapshot(&text).unwrap();
        let rs = snap.db.relation_schema(snap.rel);
        assert_eq!(
            rs.attribute(inconsist::relational::AttrId(1)).kind,
            ValueKind::Float
        );
        assert_eq!(
            snap.db.fact(TupleId(1)).unwrap().values[1],
            Value::float(3.0)
        );
    }

    #[test]
    fn snapshot_errors_echo_the_line() {
        for (mangle, needle) in [
            ("seq abc", "`seq` expects"),
            ("mode sideways", "unknown header field"),
            ("kinds int,wat", "unknown column kind"),
            ("frob 1", "unknown header field"),
            ("ids 1 x", "`ids` expects"),
        ] {
            let text = format!("{SNAPSHOT_MAGIC}\n{mangle}\n");
            let err = parse_snapshot(&text).unwrap_err();
            assert!(err.contains(needle), "{mangle} → {err}");
            assert!(err.contains("snapshot line 2"), "{mangle} → {err}");
            assert!(err.contains(mangle), "{mangle} → {err}");
        }
        assert!(parse_snapshot("not a snapshot\n")
            .unwrap_err()
            .contains("magic"));
    }

    #[test]
    fn log_records_round_trip_and_detect_torn_tails() {
        let mut log = String::new();
        log.push_str(&encode_log_record(1, "update 0 B 9"));
        log.push_str(&encode_log_record(2, "delete 3"));
        log.push_str(&encode_log_record(3, "insert a,b"));
        let scan = parse_log(log.as_bytes()).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len, log.len());
        assert_eq!(
            scan.records,
            vec![
                (1, "update 0 B 9".to_string()),
                (2, "delete 3".to_string()),
                (3, "insert a,b".to_string()),
            ]
        );
        // Every proper prefix cut inside the last record drops exactly
        // that record and reports the truncation point.
        let two =
            encode_log_record(1, "update 0 B 9").len() + encode_log_record(2, "delete 3").len();
        for cut in two + 1..log.len() {
            let scan = parse_log(&log.as_bytes()[..cut]).unwrap();
            assert_eq!(scan.records.len(), 2, "cut={cut}");
            assert_eq!(scan.valid_len, two, "cut={cut}");
            let torn = scan.torn.expect("torn tail reported");
            assert!(torn.contains("oplog line 3"), "{torn}");
        }
    }

    #[test]
    fn log_corruption_before_the_tail_is_an_error() {
        let mut log = String::new();
        log.push_str(&encode_log_record(1, "delete 0"));
        log.push_str("deadbeef corrupted record\n");
        log.push_str(&encode_log_record(2, "delete 1"));
        let err = parse_log(log.as_bytes()).unwrap_err();
        assert!(err.contains("oplog line 2"), "{err}");
        assert!(err.contains("corrupted record"), "{err}");
        // Non-increasing sequence numbers are corruption too.
        let mut log = encode_log_record(5, "delete 0");
        log.push_str(&encode_log_record(5, "delete 1"));
        let err = parse_log(log.as_bytes()).unwrap_err();
        assert!(err.contains("not"), "{err}");
        // An empty log is a valid empty scan.
        let scan = parse_log(b"").unwrap();
        assert!(scan.records.is_empty() && scan.torn.is_none());
    }

    #[test]
    fn op_lines_round_trip_through_the_log_encoding() {
        let loaded = load_csv(DATA, "cities").unwrap();
        let rs = loaded.db.relation_schema(loaded.rel);
        let script = "delete 2\nupdate 1 Country FR\nupdate 0 Pop\ninsert \"Nice, FR\",FR,4\n";
        let ops = parse_ops_file(rs, loaded.rel, script).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let line = op_to_line(op, rs);
            let record = encode_log_record(i as u64 + 1, &line);
            let scan = parse_log(record.as_bytes()).unwrap();
            let reparsed = parse_ops_file(rs, loaded.rel, &scan.records[0].1).unwrap();
            assert_eq!(reparsed.len(), 1);
            assert_eq!(&reparsed[0], op, "line `{line}`");
        }
    }
}
