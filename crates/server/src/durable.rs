//! Session durability: the files, fsync policy and counters behind the
//! write-ahead op log and the snapshot store.
//!
//! One durable session owns one directory under the server's
//! `--data-dir`:
//!
//! ```text
//! <data-dir>/<session>/
//!   snapshot-00000000000000000000.snap   initial snapshot (seq 0)
//!   snapshot-00000000000000000042.snap   later point-in-time snapshots
//!   ops-00000000000000000017.log         sealed segment (max seq 17)
//!   ops.log                              active checksummed write-ahead log
//! ```
//!
//! The *text* of both artifacts lives in [`inconsist_formats::durable`];
//! this module owns the I/O discipline:
//!
//! * **append** is write-ahead: records hit the log (and, under
//!   [`FsyncPolicy::Always`], the disk) *before* the ops are applied to
//!   the in-memory index, all while the session's write lock is held. If
//!   the append fails, the log is truncated back to its pre-batch length
//!   and nothing is applied — the log never runs ahead of an error
//!   response, and never lags an acknowledged write.
//! * **snapshots** are written atomically (temp file + rename, fsynced
//!   under `Always`), named by the last-applied sequence number so the
//!   newest is picked by filename alone.
//! * **rotation** (with [`DurabilityConfig::segment_bytes`]) seals the
//!   active log once it grows past the threshold, renaming it to
//!   `ops-<last-seq>.log`; sealed segments are immutable, so compaction
//!   can retire them by unlink alone instead of rewriting one giant log.
//! * **compaction** deletes sealed segments wholly covered by the newest
//!   snapshot and rewrites the (bounded) active log keeping only records
//!   newer than that snapshot.
//! * **recovery** loads the newest snapshot, replays sealed segments in
//!   seq order then the active log, and truncates a torn tail in the
//!   *active* log only — a tear inside a sealed segment is corruption and
//!   fails recovery loudly. The tail goes batch by batch: every record of
//!   a multi-op batch but its last is marked as continued, so a batch
//!   whose last record was torn is dropped whole, never replayed as its
//!   surviving prefix.
//!
//! Every I/O site here is instrumented with a [`failpoints`] site (a
//! compile-time no-op unless the `enabled` feature is on, which only
//! test builds turn on). If an append's rollback truncate fails, or a
//! compaction leaves the log handle unrecoverable, the session is
//! **wedged**: further appends are refused with the original error
//! rather than risking a log that silently diverges from what was
//! acknowledged.

use crate::error::ServerError;
use inconsist_formats::durable::{
    encode_log_record, parse_log, parse_snapshot, LogRecord, Snapshot,
};
use inconsist_obs::{Counter, Histogram};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Lock-free durability instrumentation. The [`Durability`] state lives
/// behind the session's mutex, but these cells are shared out as an
/// `Arc` so `stats`, the metrics collector, and the slow-request log can
/// read latency histograms without contending for that mutex — and all
/// of them read the *same* cells the I/O path wrote, so the exposition
/// paths cannot disagree.
#[derive(Debug, Default)]
pub struct DurableMetrics {
    /// Whole-append latency (encode + write + fsync), microseconds.
    pub append_us: Histogram,
    /// The fsync portion alone, microseconds.
    pub fsync_us: Histogram,
    /// Snapshot write latency, microseconds.
    pub snapshot_us: Histogram,
    /// Compaction latency, microseconds.
    pub compact_us: Histogram,
    /// Times a failure wedged the log (append rollback, stranded
    /// rotation, unrecoverable compaction).
    pub wedge_events: Counter,
}

/// When the log (and snapshot) writes reach the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended batch and every snapshot — an
    /// acknowledged write survives `kill -9` *and* power loss.
    Always,
    /// Leave flushing to the OS page cache — an acknowledged write
    /// survives `kill -9` (the write() already reached the kernel) but
    /// not a host crash. ~10× cheaper per op on spinning metal.
    Never,
}

impl FsyncPolicy {
    /// Parses `always` / `never`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("expected `always` or `never`, got `{other}`")),
        }
    }

    /// The flag spelling, for `stats` and logs.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Server-wide durability configuration (one per `--data-dir`).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory; each session gets a subdirectory.
    pub data_dir: PathBuf,
    /// Fsync policy for log appends and snapshot writes.
    pub fsync: FsyncPolicy,
    /// Automatically snapshot (and compact) after this many applied ops.
    pub snapshot_every: Option<u64>,
    /// Seal the active log into an immutable `ops-<seq>.log` segment once
    /// it grows past this many bytes; `None` keeps a single `ops.log`.
    pub segment_bytes: Option<u64>,
}

/// What recovery did, surfaced through `stats`.
#[derive(Clone, Debug)]
pub struct RecoveryStats {
    /// Sequence number of the snapshot recovery started from.
    pub snapshot_seq: u64,
    /// Log-tail records replayed on top of the snapshot.
    pub replayed: u64,
    /// Whether a torn final log record was detected and dropped.
    pub torn_tail_dropped: bool,
    /// The snapshot was taken under different measure options than the
    /// server now runs with — budget-truncated measures may differ from
    /// the pre-crash session's until the options are restored.
    pub options_changed: bool,
    /// Wall-clock recovery time (snapshot load + tail replay).
    pub recover_ms: f64,
}

/// The per-session durability state. Always manipulated while the
/// session's index write lock is held (appends) or its own exclusivity
/// suffices (snapshot/compact, which block appenders on this mutex'd
/// struct via [`crate::session::Session`]).
pub struct Durability {
    dir: PathBuf,
    log: File,
    /// Current byte length of `ops.log`.
    pub log_bytes: u64,
    /// Encoded bytes appended by this process — the write-amplification
    /// numerator (`log_bytes` also counts what recovery inherited).
    pub appended_bytes: u64,
    /// Records ever appended by this process (not counting recovery).
    pub log_records: u64,
    /// Sum of the raw op-line bytes behind those records — the
    /// write-amplification denominator.
    pub logical_bytes: u64,
    /// Seq of the newest on-disk snapshot.
    pub snapshot_seq: u64,
    /// Snapshots written by this process.
    pub snapshots_written: u64,
    /// Applied ops since the newest snapshot (drives `snapshot_every`).
    pub ops_since_snapshot: u64,
    /// Fsync policy.
    pub fsync: FsyncPolicy,
    /// Auto-snapshot threshold.
    pub snapshot_every: Option<u64>,
    /// Segment-rotation threshold for the active log.
    pub segment_bytes: Option<u64>,
    /// Sealed `ops-<seq>.log` segments currently on disk.
    pub sealed_segments: u64,
    /// Total bytes across those sealed segments.
    pub sealed_bytes: u64,
    /// Set when this session came back from disk.
    pub recovery: Option<RecoveryStats>,
    /// Set when a failed rollback left the on-disk log in a state this
    /// handle can no longer extend safely; every later append refuses
    /// with this message until the session is recovered from disk.
    wedged: Option<String>,
    /// Shared latency/wedge instrumentation (see [`DurableMetrics`]).
    pub metrics: Arc<DurableMetrics>,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> ServerError {
    ServerError::Io(format!("{what} {}: {e}", path.display()))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:020}.snap"))
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("ops.log")
}

fn segment_path(dir: &Path, last_seq: u64) -> PathBuf {
    dir.join(format!("ops-{last_seq:020}.log"))
}

/// Sealed segments in a session directory as `(last_seq, path)`, sorted
/// ascending by the sequence number baked into the filename.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServerError> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read", dir, e))?;
        let file_name = entry.file_name();
        let Some(stem) = file_name
            .to_str()
            .and_then(|n| n.strip_prefix("ops-"))
            .and_then(|n| n.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else {
            continue;
        };
        segments.push((seq, entry.path()));
    }
    segments.sort();
    Ok(segments)
}

/// Runs `write_all` through a failpoint site that can inject an outright
/// error or a deliberately short ("torn") write.
fn faulty_write(site: &str, file: &mut File, buf: &[u8]) -> std::io::Result<()> {
    match failpoints::check(site)? {
        None => file.write_all(buf),
        Some(n) => {
            let n = n.min(buf.len());
            file.write_all(&buf[..n])?;
            Err(std::io::Error::other(format!(
                "failpoint {site}: torn write after {n} bytes"
            )))
        }
    }
}

/// Durable session names become directory names, so they are restricted
/// to a filesystem-safe alphabet.
pub fn check_session_name(name: &str) -> Result<(), ServerError> {
    let ok = !name.is_empty()
        && name.len() <= 100
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    if ok {
        Ok(())
    } else {
        Err(ServerError::Protocol(format!(
            "durable session name `{name}` must be 1-100 chars of [A-Za-z0-9_.-] \
             and not start with `.`"
        )))
    }
}

impl Durability {
    /// Creates the directory for a *new* durable session and opens an
    /// empty log. The caller writes the initial snapshot right after.
    pub fn create(cfg: &DurabilityConfig, name: &str) -> Result<Durability, ServerError> {
        check_session_name(name)?;
        let dir = cfg.data_dir.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        if cfg.fsync == FsyncPolicy::Always {
            // The new directory *entry* lives in the data dir; without
            // fsyncing it, a power loss could erase the whole session even
            // though every append inside it was sync'd.
            File::open(&cfg.data_dir)
                .and_then(|d| d.sync_data())
                .map_err(|e| io_err("fsync", &cfg.data_dir, e))?;
        }
        // A leftover log or snapshot means this directory already holds a
        // session's data; creating over it would make recovery replay old
        // records onto a fresh database. Recover it (restart the server)
        // or delete the directory instead.
        let leftovers = std::fs::read_dir(&dir)
            .map_err(|e| io_err("read", &dir, e))?
            .filter_map(|e| e.ok())
            .any(|e| {
                let n = e.file_name();
                let n = n.to_string_lossy();
                n == "ops.log" || n.starts_with("ops-") || n.starts_with("snapshot-")
            });
        if leftovers {
            return Err(ServerError::Io(format!(
                "{}: directory already holds session data (recover it or delete it)",
                dir.display()
            )));
        }
        let path = log_path(&dir);
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        Ok(Durability {
            dir,
            log,
            log_bytes: 0,
            appended_bytes: 0,
            log_records: 0,
            logical_bytes: 0,
            snapshot_seq: 0,
            snapshots_written: 0,
            ops_since_snapshot: 0,
            fsync: cfg.fsync,
            snapshot_every: cfg.snapshot_every,
            segment_bytes: cfg.segment_bytes,
            sealed_segments: 0,
            sealed_bytes: 0,
            recovery: None,
            wedged: None,
            metrics: Arc::new(DurableMetrics::default()),
        })
    }

    /// Marks the handle wedged and counts the event.
    fn wedge(&mut self, why: String) {
        self.metrics.wedge_events.inc();
        self.wedged = Some(why);
    }

    /// Appends one batch of already-sequenced op lines, write-ahead, each
    /// record but the last marked as continued so that recovery replays
    /// the batch whole or not at all. On any failure the log is truncated back to its pre-batch length so
    /// the caller can refuse the whole batch; if even that rollback
    /// fails, the session wedges and refuses all further appends.
    pub fn append(&mut self, records: &[(u64, String)]) -> Result<(), ServerError> {
        self.append_batch(records, None)
    }

    /// [`append`](Self::append) for a batch that carried an idempotency
    /// token: every record of the batch carries it, so recovery can
    /// re-register it.
    pub fn append_batch(
        &mut self,
        records: &[(u64, String)],
        token: Option<&str>,
    ) -> Result<(), ServerError> {
        if let Some(why) = &self.wedged {
            return Err(ServerError::Io(format!(
                "{}: log wedged by earlier failure ({why}); restart to recover",
                log_path(&self.dir).display()
            )));
        }
        let started = Instant::now();
        let before = self.log_bytes;
        let mut buf = String::new();
        let mut logical = 0u64;
        for (i, (seq, line)) in records.iter().enumerate() {
            logical += line.len() as u64;
            let continued = i + 1 < records.len();
            buf.push_str(&encode_log_record(*seq, token, continued, line));
        }
        let result = faulty_write("wal.append.write", &mut self.log, buf.as_bytes()).and_then(
            |()| match self.fsync {
                FsyncPolicy::Always => {
                    let sync_started = Instant::now();
                    let synced =
                        failpoints::check("wal.append.fsync").and_then(|_| self.log.sync_data());
                    self.metrics
                        .fsync_us
                        .record_duration(sync_started.elapsed());
                    synced
                }
                FsyncPolicy::Never => Ok(()),
            },
        );
        self.metrics.append_us.record_duration(started.elapsed());
        match result {
            Ok(()) => {
                self.log_bytes += buf.len() as u64;
                self.appended_bytes += buf.len() as u64;
                self.log_records += records.len() as u64;
                self.logical_bytes += logical;
                if let Some(last) = records.last() {
                    self.maybe_rotate(last.0);
                }
                Ok(())
            }
            Err(e) => {
                // Rollback: the batch must be all-or-nothing. A failed
                // truncate can leave a partial record on disk, so the
                // handle wedges — recovery will drop the torn tail, and
                // until then nothing may append after it.
                let rollback =
                    failpoints::check("wal.append.truncate").and_then(|_| self.log.set_len(before));
                if let Err(trunc) = rollback {
                    self.wedge(format!("append failed ({e}), rollback failed ({trunc})"));
                }
                Err(io_err("append to", &log_path(&self.dir), e))
            }
        }
    }

    /// Seals the active log into `ops-<last_seq>.log` once it passes the
    /// rotation threshold. Best-effort: a failed seal leaves the active
    /// log exactly as it was (rename is atomic), so appends continue.
    fn maybe_rotate(&mut self, last_seq: u64) {
        let Some(limit) = self.segment_bytes else {
            return;
        };
        if self.log_bytes < limit || self.log_bytes == 0 {
            return;
        }
        let active = log_path(&self.dir);
        let sealed = segment_path(&self.dir, last_seq);
        let renamed =
            failpoints::check("wal.seal.rename").and_then(|_| std::fs::rename(&active, &sealed));
        if let Err(e) = renamed {
            // Nothing moved: the active log is untouched, so rotation is
            // simply retried after the next batch.
            eprintln!(
                "warning: {}: log rotation failed ({e}); continuing on current segment",
                active.display()
            );
            return;
        }
        match OpenOptions::new().create(true).append(true).open(&active) {
            Ok(log) => {
                self.log = log;
                self.sealed_segments += 1;
                self.sealed_bytes += self.log_bytes;
                self.log_bytes = 0;
                if self.fsync == FsyncPolicy::Always {
                    // Make the rename + new file durable. Failure is
                    // tolerable: after a crash either name recovers the
                    // same records, so recovery is unaffected.
                    let _ = File::open(&self.dir).and_then(|d| d.sync_data());
                }
            }
            Err(e) => {
                // The rename happened but the fresh active log could not
                // be opened. Appending through the old handle would grow
                // the *sealed* file past the seq in its name — compaction
                // could then unlink acknowledged records — so wedge.
                self.wedge(format!("log rotation stranded the active log ({e})"));
            }
        }
    }

    /// Writes snapshot text for `seq` atomically and records it as the
    /// newest. Returns the final path.
    pub fn write_snapshot(&mut self, seq: u64, text: &str) -> Result<PathBuf, ServerError> {
        let started = Instant::now();
        let path = snapshot_path(&self.dir, seq);
        let tmp = path.with_extension("tmp");
        let fsync = self.fsync;
        let dir = self.dir.clone();
        let write = || -> std::io::Result<()> {
            failpoints::check("snapshot.create")?;
            let mut f = File::create(&tmp)?;
            faulty_write("snapshot.write", &mut f, text.as_bytes())?;
            if fsync == FsyncPolicy::Always {
                failpoints::check("snapshot.fsync")?;
                f.sync_data()?;
            }
            failpoints::check("snapshot.rename")?;
            std::fs::rename(&tmp, &path)?;
            if fsync == FsyncPolicy::Always {
                // The rename must be durable too: fsync the directory.
                File::open(&dir)?.sync_data()?;
            }
            Ok(())
        };
        let result = write();
        if result.is_err() {
            // A failed snapshot must not strand its temp file: recovery
            // only scans `*.snap`, but the leftover would linger forever.
            let _ = std::fs::remove_file(&tmp);
        }
        self.metrics.snapshot_us.record_duration(started.elapsed());
        result.map_err(|e| io_err("write snapshot", &path, e))?;
        self.snapshot_seq = self.snapshot_seq.max(seq);
        self.snapshots_written += 1;
        self.ops_since_snapshot = 0;
        Ok(path)
    }

    /// Compacts the log against the newest snapshot: sealed segments
    /// whose filename seq is `<=` the snapshot's are unlinked whole, and
    /// the active log is rewritten keeping only newer records. Returns
    /// `(kept, dropped)` record counts (unlinked segments count their
    /// records as dropped only in aggregate byte terms — they are not
    /// re-parsed).
    pub fn compact(&mut self) -> Result<(u64, u64), ServerError> {
        let started = Instant::now();
        let result = self.compact_inner();
        self.metrics.compact_us.record_duration(started.elapsed());
        result
    }

    fn compact_inner(&mut self) -> Result<(u64, u64), ServerError> {
        let cutoff = self.snapshot_seq;
        // Retire sealed segments first: they are immutable, so "compacting"
        // one is a single unlink — no stop-the-world rewrite of old data.
        for (seq, seg_path) in list_segments(&self.dir)? {
            if seq > cutoff {
                continue;
            }
            let len = std::fs::metadata(&seg_path).map(|m| m.len()).unwrap_or(0);
            failpoints::check("compact.unlink")
                .and_then(|_| std::fs::remove_file(&seg_path))
                .map_err(|e| io_err("unlink segment", &seg_path, e))?;
            self.sealed_segments = self.sealed_segments.saturating_sub(1);
            self.sealed_bytes = self.sealed_bytes.saturating_sub(len);
        }
        let path = log_path(&self.dir);
        let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let scan = parse_log(&bytes).map_err(ServerError::Io)?;
        let mut kept = 0u64;
        let mut dropped = 0u64;
        let mut out = String::new();
        for r in &scan.records {
            if r.seq > cutoff {
                kept += 1;
                out.push_str(&encode_log_record(
                    r.seq,
                    r.token.as_deref(),
                    r.continued,
                    &r.op,
                ));
            } else {
                dropped += 1;
            }
        }
        let tmp = path.with_extension("tmp");
        let fsync = self.fsync;
        let dir = self.dir.clone();
        let rewrite = || -> std::io::Result<File> {
            failpoints::check("compact.rewrite")?;
            let mut f = File::create(&tmp)?;
            faulty_write("compact.write", &mut f, out.as_bytes())?;
            if fsync == FsyncPolicy::Always {
                f.sync_data()?;
            }
            failpoints::check("compact.rename")?;
            std::fs::rename(&tmp, &path)?;
            if fsync == FsyncPolicy::Always {
                File::open(&dir)?.sync_data()?;
            }
            OpenOptions::new().append(true).open(&path)
        };
        match rewrite() {
            Ok(log) => {
                self.log = log;
                self.log_bytes = out.len() as u64;
                Ok((kept, dropped))
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                // The rename may or may not have happened; either way the
                // old handle could now point at an unlinked inode, where
                // appends would vanish silently. Re-adopt whatever file
                // the active name reaches — or wedge if even that fails.
                match OpenOptions::new().append(true).open(&path) {
                    Ok(log) => {
                        self.log_bytes = log.metadata().map(|m| m.len()).unwrap_or(0);
                        self.log = log;
                    }
                    Err(reopen) => {
                        self.wedge(format!("compact failed ({e}), reopen failed ({reopen})"));
                    }
                }
                Err(io_err("compact", &path, e))
            }
        }
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Why appends are being refused, if a failed rollback wedged the log.
    pub fn wedged(&self) -> Option<&str> {
        self.wedged.as_deref()
    }
}

/// What `recover_dir` hands back: the parsed snapshot, the log tail to
/// replay, and the ready-to-append durability state.
pub struct Recovered {
    /// The newest snapshot, parsed.
    pub snapshot: Snapshot,
    /// Log records with `seq >` the snapshot's, in order.
    pub tail: Vec<LogRecord>,
    /// Durability state with the log already truncated past any torn
    /// tail and reopened for append.
    pub durability: Durability,
    /// Whether a torn final record was dropped (and truncated away).
    pub torn_tail_dropped: bool,
}

/// Loads a session directory: newest snapshot + intact log tail. The log
/// file is truncated to its valid prefix (dropping a torn final record
/// and the rest of its batch) so subsequent appends extend an intact log.
pub fn recover_dir(cfg: &DurabilityConfig, name: &str) -> Result<Recovered, ServerError> {
    check_session_name(name)?;
    let dir = cfg.data_dir.join(name);
    // Newest snapshot by the zero-padded seq in the filename.
    let mut newest: Option<(u64, PathBuf)> = None;
    let entries = std::fs::read_dir(&dir).map_err(|e| io_err("read", &dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read", &dir, e))?;
        let file_name = entry.file_name();
        let Some(stem) = file_name
            .to_str()
            .and_then(|n| n.strip_prefix("snapshot-"))
            .and_then(|n| n.strip_suffix(".snap"))
        else {
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else {
            continue;
        };
        if newest.as_ref().is_none_or(|(best, _)| seq > *best) {
            newest = Some((seq, entry.path()));
        }
    }
    let (file_seq, snap_path) = newest
        .ok_or_else(|| ServerError::Io(format!("{}: no snapshot file found", dir.display())))?;
    let text = std::fs::read_to_string(&snap_path).map_err(|e| io_err("read", &snap_path, e))?;
    let snapshot = parse_snapshot(&text)
        .map_err(|e| ServerError::Io(format!("{}: {e}", snap_path.display())))?;
    if snapshot.meta.seq != file_seq {
        return Err(ServerError::Io(format!(
            "{}: filename says seq {file_seq} but the header says {}",
            snap_path.display(),
            snapshot.meta.seq
        )));
    }
    // Replay sealed segments in seq order. Sealed segments are immutable
    // once rotation renames them, so *any* damage inside one — torn tail
    // included — is corruption and fails recovery loudly.
    let mut records: Vec<LogRecord> = Vec::new();
    let mut last_seq = 0u64;
    let mut sealed_segments = 0u64;
    let mut sealed_bytes = 0u64;
    for (file_seq, seg_path) in list_segments(&dir)? {
        let bytes = failpoints::check("recover.read")
            .and_then(|_| std::fs::read(&seg_path))
            .map_err(|e| io_err("read", &seg_path, e))?;
        let scan = parse_log(&bytes)
            .map_err(|e| ServerError::Io(format!("{}: {e}", seg_path.display())))?;
        if let Some(report) = &scan.torn {
            return Err(ServerError::Io(format!(
                "{}: sealed segment is damaged ({report})",
                seg_path.display()
            )));
        }
        let seg_last = scan.records.last().map_or(file_seq, |r| r.seq);
        if seg_last != file_seq {
            return Err(ServerError::Io(format!(
                "{}: filename says last seq {file_seq} but the records end at {seg_last}",
                seg_path.display()
            )));
        }
        if let Some(first) = scan.records.first().map(|r| r.seq) {
            if first <= last_seq {
                return Err(ServerError::Io(format!(
                    "{}: seq {first} does not extend the previous segment (ends at {last_seq})",
                    seg_path.display()
                )));
            }
        }
        last_seq = file_seq;
        sealed_segments += 1;
        sealed_bytes += bytes.len() as u64;
        records.extend(scan.records);
    }
    // Then the active log, where (only) a torn *final* record is dropped.
    let path = log_path(&dir);
    let read = failpoints::check("recover.read").and_then(|_| std::fs::read(&path));
    let bytes = match read {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("read", &path, e)),
    };
    let scan =
        parse_log(&bytes).map_err(|e| ServerError::Io(format!("{}: {e}", path.display())))?;
    let torn = scan.torn.is_some();
    if let Some(report) = &scan.torn {
        eprintln!("recovering `{name}`: {report}");
    }
    if let Some(first) = scan.records.first().map(|r| r.seq) {
        if sealed_segments > 0 && first <= last_seq {
            return Err(ServerError::Io(format!(
                "{}: seq {first} does not extend the sealed segments (end at {last_seq})",
                path.display()
            )));
        }
    }
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| io_err("open", &path, e))?;
    if torn {
        log.set_len(scan.valid_len as u64)
            .map_err(|e| io_err("truncate", &path, e))?;
    }
    records.extend(scan.records);
    let tail: Vec<LogRecord> = records
        .into_iter()
        .filter(|r| r.seq > snapshot.meta.seq)
        .collect();
    let durability = Durability {
        dir,
        log,
        log_bytes: scan.valid_len as u64,
        appended_bytes: 0,
        log_records: 0,
        logical_bytes: 0,
        snapshot_seq: snapshot.meta.seq,
        snapshots_written: 0,
        ops_since_snapshot: tail.len() as u64,
        fsync: cfg.fsync,
        snapshot_every: cfg.snapshot_every,
        segment_bytes: cfg.segment_bytes,
        sealed_segments,
        sealed_bytes,
        recovery: None,
        wedged: None,
        metrics: Arc::new(DurableMetrics::default()),
    };
    Ok(Recovered {
        snapshot,
        tail,
        durability,
        torn_tail_dropped: torn,
    })
}

/// Session names present under a data dir (sorted), for startup recovery.
pub fn list_session_dirs(data_dir: &Path) -> Result<Vec<String>, ServerError> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(data_dir).map_err(|e| io_err("read", data_dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read", data_dir, e))?;
        let is_dir = entry
            .file_type()
            .map_err(|e| io_err("stat", &entry.path(), e))?
            .is_dir();
        if !is_dir {
            continue;
        }
        if let Some(name) = entry.file_name().to_str() {
            if check_session_name(name).is_ok() {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}
