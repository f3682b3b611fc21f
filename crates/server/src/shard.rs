//! Worker-shard building blocks: the local `measure_all` fold and the
//! WAL-shipping read-only [`Follower`].
//!
//! ## The aggregation fold
//!
//! Every [summable](Measure::summable) measure decomposes as a sum over
//! conflict-graph components, and therefore as a sum over sessions.
//! Bit-identity across topologies hangs on *fold order*: floating-point
//! addition is not associative, so [`measure_all_local`] always folds in
//! **ascending session-name order seeded from 0.0**. A coordinator asks
//! each shard for the per-session detail, merges, sorts by name, and
//! re-folds flat with the same seed — reproducing the exact additions a
//! single process would perform, so the aggregate is bit-identical no
//! matter how sessions are spread across shards (pinned by
//! `tests/sharding.rs`).
//!
//! ## Follower replication
//!
//! The PR 5 WAL is a replayable, checksummed op stream, so replication
//! is file shipping: `fetch_snapshot` hands over snapshot *text* and
//! `fetch_wal` hands over every intact record past a sequence number.
//! The [`Follower`] writes both verbatim into a local session directory
//! and rebuilds through [`Session::recover`] — the same code path crash
//! recovery uses, which is exactly why follower measure values are
//! bit-identical to the primary's at the same sequence number. Follower
//! reads are always tagged `stale:true` with `as_of_seq`, slotting into
//! the read ladder's existing degraded-read contract.

use crate::client::{ClientError, TypedClient};
use crate::durable::{DurabilityConfig, FsyncPolicy};
use crate::error::ServerError;
use crate::protocol::Request;
use crate::session::{push_entries, Registry, Session};
use crate::wire::Json;
use inconsist::incremental::Measure;
use inconsist::measures::MeasureOptions;
use inconsist_formats::durable::encode_log_record;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Answers `measure_all` from this process's own registry: evaluates the
/// requested measures on every live session and folds each one in
/// ascending session-name order, seeded from 0.0.
///
/// The response carries the folded `values`, the `sessions` count, and —
/// with `detail` — a `detail` object (session → measure → value, in fold
/// order) that a coordinator consumes to re-fold globally.
pub fn measure_all_local(
    registry: &Registry,
    measures: &[Measure],
    detail: bool,
) -> Result<Json, ServerError> {
    let sessions = registry.all();
    let mut rows: Vec<(String, Json)> = Vec::with_capacity(sessions.len());
    for session in &sessions {
        let (_, row, _) = session
            .fresh(measures, false, &session.options(), None)?
            .expect("a blocking read always takes the lock");
        rows.push((session.name().to_string(), Json::Obj(row)));
    }
    Ok(fold_response(measures, rows, None, detail))
}

/// The `measure_all` response over per-session rows: the [folded
/// values](fold_sessions), the session count, a coordinator's shard
/// count and, with `detail`, the rows in fold order.
pub(crate) fn fold_response(
    measures: &[Measure],
    mut rows: Vec<(String, Json)>,
    shards: Option<usize>,
    detail: bool,
) -> Json {
    let names: Vec<String> = measures.iter().map(|m| m.name().to_string()).collect();
    let mut entries = vec![
        ("ok", Json::Bool(true)),
        ("values", fold_sessions(&names, &mut rows)),
        ("sessions", Json::Num(rows.len() as f64)),
    ];
    entries.extend(shards.map(|n| ("shards", Json::Num(n as f64))));
    if detail {
        entries.push(("detail", Json::Obj(rows)));
    }
    Json::obj(entries)
}

/// Folds per-session measure values — already merged from every shard —
/// exactly the way a single process would: sorted by session name,
/// seeded from 0.0. The coordinator's gather leg.
pub fn fold_sessions(measures: &[String], sessions: &mut [(String, Json)]) -> Json {
    sessions.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut totals: Vec<(String, f64)> = measures.iter().map(|m| (m.clone(), 0.0)).collect();
    for (_, row) in sessions.iter() {
        for (name, total) in &mut totals {
            if let Some(v) = row.get(name).and_then(Json::as_f64) {
                *total += v;
            }
        }
    }
    Json::Obj(
        totals
            .into_iter()
            .map(|(name, total)| (name, Json::Num(total)))
            .collect(),
    )
}

/// A read-only replica of one session, kept current by shipping the
/// primary's snapshot + WAL over `fetch_snapshot`/`fetch_wal`.
///
/// ```no_run
/// use inconsist_server::{ClientBuilder, Follower};
/// let addr = "127.0.0.1:7878".parse().unwrap();
/// let mut primary = ClientBuilder::new(addr).connect().unwrap();
/// let mut follower = Follower::new("/tmp/replica".into(), "cities", 1);
/// follower.sync(&mut primary).unwrap();
/// let measured = follower.measure(&["I_MI".into()]).unwrap();
/// assert_eq!(measured.get("stale").and_then(|s| s.as_bool()), Some(true));
/// ```
pub struct Follower {
    cfg: DurabilityConfig,
    name: String,
    solve_threads: usize,
    session: Option<Arc<Session>>,
    /// Highest sequence number replayed into `session`.
    applied_seq: u64,
}

impl Follower {
    /// A follower for `name`, keeping its replica under
    /// `data_dir/<name>/`. Nothing touches the disk or the network until
    /// [`sync`](Self::sync).
    pub fn new(data_dir: PathBuf, name: &str, solve_threads: usize) -> Follower {
        Follower {
            cfg: DurabilityConfig {
                data_dir,
                // The primary owns durability; a lost follower re-seeds
                // from the primary, so syncing the replica is waste.
                fsync: FsyncPolicy::Never,
                snapshot_every: None,
                segment_bytes: None,
            },
            name: name.to_string(),
            solve_threads,
            session: None,
            applied_seq: 0,
        }
    }

    /// The replica's session directory.
    fn dir(&self) -> PathBuf {
        self.cfg.data_dir.join(&self.name)
    }

    /// Pulls the primary's snapshot (first sync only) and WAL tail, then
    /// rebuilds the local session through [`Session::recover`]. Returns
    /// the sequence number the replica now serves as of. Call again any
    /// time to catch up; syncing when nothing changed is a no-op.
    pub fn sync(&mut self, primary: &mut TypedClient) -> Result<u64, ServerError> {
        let io = |e: ClientError| ServerError::Io(format!("follower sync: {e}"));
        if self.session.is_none() {
            let json = primary
                .call(&Request::FetchSnapshot {
                    session: self.name.clone(),
                })
                .map_err(io)?;
            let seq = json.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let text = json
                .get("snapshot")
                .and_then(Json::as_str)
                .ok_or_else(|| ServerError::Io("fetch_snapshot without `snapshot`".into()))?;
            let dir = self.dir();
            std::fs::create_dir_all(&dir)
                .map_err(|e| ServerError::Io(format!("{}: {e}", dir.display())))?;
            let path = dir.join(format!("snapshot-{seq:020}.snap"));
            std::fs::write(&path, text)
                .map_err(|e| ServerError::Io(format!("{}: {e}", path.display())))?;
            self.applied_seq = seq;
        }
        let json = primary
            .call(&Request::FetchWal {
                session: self.name.clone(),
                from_seq: self.applied_seq,
            })
            .map_err(io)?;
        let records = json
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServerError::Io("fetch_wal without `records`".into()))?;
        let mut fetched: Vec<(u64, String)> = Vec::with_capacity(records.len());
        for r in records {
            let seq = r.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let op = r.get("op").and_then(Json::as_str).unwrap_or("").to_string();
            // Re-fetching an already-applied record (primary restarted,
            // sequence overlap) is harmless to skip; replay is ordered.
            if seq > self.applied_seq {
                fetched.push((seq, op));
            }
        }
        if fetched.is_empty() && self.session.is_some() {
            return Ok(self.applied_seq);
        }
        let log = self.dir().join("ops.log");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .map_err(|e| ServerError::Io(format!("{}: {e}", log.display())))?;
        for (seq, op) in &fetched {
            f.write_all(encode_log_record(*seq, op).as_bytes())
                .map_err(|e| ServerError::Io(format!("{}: {e}", log.display())))?;
        }
        drop(f);
        if let Some((seq, _)) = fetched.last() {
            self.applied_seq = *seq;
        }
        // Rebuild through the recovery path: snapshot + shipped tail.
        // Snapshotted options win inside `recover`, matching the primary.
        let session = Session::recover(
            &self.cfg,
            &self.name,
            self.solve_threads,
            MeasureOptions::default(),
        )?;
        self.session = Some(Arc::new(session));
        Ok(self.applied_seq)
    }

    /// The sequence number the replica serves as of.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Serves measures from the replica, always tagged `stale:true` with
    /// `as_of_seq` — the follower can never know whether the primary has
    /// moved on, so it reports itself through the read ladder's existing
    /// degraded-read contract instead of pretending to be fresh.
    pub fn measure(&self, measures: &[String]) -> Result<Json, ServerError> {
        let session = self
            .session
            .as_ref()
            .ok_or_else(|| ServerError::UnknownSession(format!("{} (never synced)", self.name)))?;
        // A read without a deadline never comes back stale, so these are
        // the response's only staleness tags.
        Ok(push_entries(
            session.measure(measures, false, &session.options())?,
            vec![
                ("stale", Json::Bool(true)),
                ("as_of_seq", Json::Num(self.applied_seq as f64)),
            ],
        ))
    }
}
