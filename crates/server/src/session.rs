//! The session registry: named live databases and their reader/writer
//! paths.
//!
//! A [`Session`] owns one [`IncrementalIndex`] behind a
//! `parking_lot::RwLock`. The lock discipline is *optimistic read →
//! upgrade on miss*:
//!
//! * **reads** (`measure`) first take the **read** lock and answer from
//!   the index's `try_*` cache-only accessors. When every touched
//!   component is clean this succeeds, so measure reads from many
//!   connections run concurrently — the shared path never blocks another
//!   reader. A counter/gauge pair ([`SessionCounters::shared_reads`] /
//!   the high-water mark of [`SessionCounters::reads_in_flight`])
//!   witnesses both the hit rate and the actual overlap.
//! * on a cache miss (some component was dirtied since the last warm
//!   read) the reader upgrades: it drops the read lock, takes the
//!   **write** lock and answers exclusively, filling only the caches the
//!   requested measures need — each on the dirty components alone, with
//!   cover/LP solves fanned across the configured thread budget.
//! * with a deadline, the same ladder only *tries* the read lock and
//!   waits for the write lock until the deadline; solves that cannot
//!   finish degrade to certified bounds (`partial`), and a write lock
//!   that never comes serves the last full read (`stale`).
//! * **writes** (`op`) always take the write lock, apply the delta
//!   maintenance, and tag every applied operation with a session-global
//!   sequence number — the serialization witness: replaying the ops of a
//!   concurrent run in sequence order through a fresh index reproduces
//!   the served measure values bit for bit.
//!
//! The [`Registry`] maps names to sessions under its own `RwLock`; session
//! creation (CSV + DC parse, full violation scan) happens outside that
//! lock so a big `create` does not stall requests to other sessions.
//!
//! ## Durability
//!
//! When the registry carries a [`DurabilityConfig`] (the server was
//! started with `--data-dir`), every session is durable: its directory
//! holds numbered snapshots plus a checksummed write-ahead op log (see
//! [`crate::durable`]). The write path becomes *log-then-apply*: under
//! the write lock, the batch's records are appended (and fsynced, per
//! policy) **before** the first op touches the index, so an acknowledged
//! write is always recoverable and a failed append applies nothing.
//! [`Session::recover`] rebuilds a session from the newest snapshot plus
//! the log tail through the same incremental delta-maintenance path live
//! traffic uses — which is exactly why recovered measure values are
//! bit-identical to the pre-crash session's (the replay-identity
//! contract `tests/concurrency.rs` pins for live traffic).

use crate::durable::{Durability, DurabilityConfig, RecoveryStats};
use crate::error::ServerError;
use crate::protocol::{parse_measures, Payload};
use crate::wire::Json;
use inconsist::incremental::{IncrementalIndex, Measure, ReadMode, TupleScores};
use inconsist::measures::MeasureOptions;
use inconsist::relational::{RelId, RelationSchema};
use inconsist_formats::csv::load_csv;
use inconsist_formats::dcfile::parse_dc_file;
use inconsist_formats::durable::{write_snapshot, SnapshotMeta};
use inconsist_formats::opsfile::{display_op, op_to_line, parse_ops_file};
use inconsist_obs::{Counter, Event, EventRing, Gauge, Sample, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most recent op tokens remembered for idempotent-retry dedup.
const TOKEN_CACHE_CAP: usize = 1024;

/// Lock-free per-session instrumentation, built from `inconsist-obs`
/// primitives. These cells are the *single* source of truth: the `stats`
/// request reads them directly and the registry's metrics collector
/// emits them as samples, so the two exposition paths can never
/// disagree. The old hand-maintained `max_concurrent_shared_reads` /
/// `inflight_high_water` fields are gone — gauges carry their own
/// fetch-max high-water marks.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Operations applied (no-ops excluded).
    pub ops_applied: Counter,
    /// Next op sequence number (equals total ops attempted).
    pub op_seq: Gauge,
    /// Measure requests answered entirely under the read lock (the
    /// cache-hit rung of the read ladder).
    pub shared_reads: Counter,
    /// Measure requests that had to upgrade to the write lock (the warm
    /// rung).
    pub exclusive_reads: Counter,
    /// Readers currently inside the shared critical section; the
    /// high-water mark (`> 1`) proves clean-component reads did not
    /// serialize behind each other.
    pub reads_in_flight: Gauge,
    /// Requests currently admitted against this session (high-water on
    /// the gauge).
    pub inflight: Gauge,
    /// Requests shed by the per-session admission bound.
    pub shed: Counter,
    /// Deadline reads answered from the last-served cache (`stale:true`).
    pub stale_reads: Counter,
    /// Deadline reads answered with bounds (`partial:true`).
    pub partial_reads: Counter,
    /// Op batches answered from the token cache instead of re-applied.
    pub deduped_ops: Counter,
}

/// RAII witness of one admitted request; dropping it releases the slot.
#[derive(Debug)]
pub struct InflightGuard<'a>(&'a Gauge);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// The stale rung's key for the last top-`k` ranking, stored as
/// `{"k": k, "tuples": rows}` beside the measure keys.
const RANKING: &str = "tuples";

/// A fresh measure read: the rung that answered, each measure's value
/// (then the `per_dc` drilldown when asked for) and the upper bounds of
/// the partial ones.
type Fresh = (&'static str, Vec<(String, Json)>, Vec<(String, Json)>);

/// Appends entries to an object response (no-op on non-objects).
pub(crate) fn push_entries(resp: Json, extra: Vec<(&'static str, Json)>) -> Json {
    match resp {
        Json::Obj(mut entries) => {
            entries.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
            Json::Obj(entries)
        }
        other => other,
    }
}

/// Bounded remember-the-response cache for idempotent op retries.
#[derive(Default)]
struct TokenCache {
    map: HashMap<String, Json>,
    order: VecDeque<String>,
}

/// One named live database: an incremental index plus everything needed
/// to parse further operations against it.
pub struct Session {
    name: String,
    rel: RelId,
    rel_schema: Arc<RelationSchema>,
    /// Per-session measure budgets/caps: seeded from the server-wide
    /// defaults, overridable at runtime through `set_options`, and (for
    /// durable sessions) persisted in the snapshot meta so recovery
    /// restores them. Caches computed under an older budget stay valid —
    /// budgets only cap *future* work; completed solves are exact.
    options: RwLock<MeasureOptions>,
    index: RwLock<IncrementalIndex>,
    counters: SessionCounters,
    /// Write-ahead log + snapshot store; `None` = in-memory only.
    /// Lock order: index write/read lock first, then this mutex.
    durable: Option<Mutex<Durability>>,
    /// Lock-free view of the durability latency histograms (shared with
    /// the `Durability` behind the mutex), so `stats` and the metrics
    /// collector read them without contending for the I/O path.
    durable_metrics: Option<Arc<crate::durable::DurableMetrics>>,
    /// The stale rung of deadline-bounded reads: key (a measure,
    /// `per_dc` or [`RANKING`]) → the `op_seq` and value of its last full
    /// read. Lock order: taken only while holding no index lock, or after
    /// the index lock.
    served: Mutex<HashMap<String, (u64, Json)>>,
    /// Op-token dedup cache. Taken only under the index write lock, which
    /// serializes writers — so check-and-insert is race-free.
    tokens: Mutex<TokenCache>,
}

impl Session {
    /// Loads CSV + DC text into a fresh session (full violation scan).
    /// With a [`DurabilityConfig`], the session directory is created and
    /// the initial snapshot (seq 0) written before the session serves.
    ///
    /// `_mode` is ignored: every read is component-scoped. The parameter
    /// stays only for the frozen `loadbench/` crate, and the next
    /// benchmark change removes it.
    pub fn open(
        name: &str,
        csv_text: &str,
        dc_text: &str,
        _mode: ReadMode,
        solve_threads: usize,
        options: MeasureOptions,
        durable_cfg: Option<&DurabilityConfig>,
    ) -> Result<Session, ServerError> {
        let loaded = load_csv(csv_text, name).map_err(ServerError::Load)?;
        let dcs = parse_dc_file(&loaded.schema, name, dc_text).map_err(ServerError::Load)?;
        let mut cs = inconsist::constraints::ConstraintSet::new(Arc::clone(&loaded.schema));
        for dc in dcs {
            cs.add_dc(dc);
        }
        let rel_schema = loaded.db.relation_schema(loaded.rel).clone();
        let mut index = IncrementalIndex::build(loaded.db, cs)
            .map_err(|e| ServerError::Measure(e.to_string()))?;
        index.set_solve_threads(solve_threads);
        let durable = match durable_cfg {
            Some(cfg) => {
                let mut d = Durability::create(cfg, name)?;
                let meta = SnapshotMeta {
                    session: name.to_string(),
                    seq: 0,
                    applied: 0,
                    options,
                };
                let text = write_snapshot(&meta, index.db(), loaded.rel, index.constraints().dcs());
                d.write_snapshot(0, &text)?;
                Some(Mutex::new(d))
            }
            None => None,
        };
        let durable_metrics = durable.as_ref().map(|d| Arc::clone(&d.lock().metrics));
        Ok(Session {
            name: name.to_string(),
            rel: loaded.rel,
            rel_schema,
            options: RwLock::new(options),
            index: RwLock::new(index),
            counters: SessionCounters::default(),
            durable,
            durable_metrics,
            served: Mutex::new(HashMap::new()),
            tokens: Mutex::new(TokenCache::default()),
        })
    }

    /// Rebuilds a session from its directory: newest snapshot + op-log
    /// tail, replayed through the incremental delta-maintenance path.
    /// A torn final log record (interrupted append) is dropped and the
    /// log truncated past it; recovered `I_MI`/`I_P`/`I_R`/`I_R^lin`
    /// values are bit-identical to the pre-crash session's.
    pub fn recover(
        cfg: &DurabilityConfig,
        name: &str,
        solve_threads: usize,
        options: MeasureOptions,
    ) -> Result<Session, ServerError> {
        let started = std::time::Instant::now();
        let recovered = crate::durable::recover_dir(cfg, name)?;
        let snap = recovered.snapshot;
        if snap.meta.session != name {
            return Err(ServerError::Io(format!(
                "session directory `{name}` holds a snapshot of `{}`",
                snap.meta.session
            )));
        }
        // The snapshotted options win over the server-wide defaults: a
        // session that overrode its budgets via `set_options` keeps them
        // across restarts, and budget-sensitive measures reproduce the
        // pre-crash values exactly. `options_changed` records that the
        // persisted options differ from the defaults (informational).
        let options_changed = snap.meta.options != options;
        let options = snap.meta.options;
        let dcs = parse_dc_file(snap.db.schema(), name, &snap.dc_text)
            .map_err(|e| ServerError::Io(format!("snapshot dc section: {e}")))?;
        let mut cs = inconsist::constraints::ConstraintSet::new(Arc::clone(snap.db.schema()));
        for dc in dcs {
            cs.add_dc(dc);
        }
        let rel_schema = snap.db.relation_schema(snap.rel).clone();
        let mut index = IncrementalIndex::build(snap.db, cs)
            .map_err(|e| ServerError::Measure(e.to_string()))?;
        index.set_solve_threads(solve_threads);
        let mut replay_applied = 0u64;
        let mut last_seq = snap.meta.seq;
        for (seq, line) in &recovered.tail {
            let ops = parse_ops_file(&rel_schema, snap.rel, line)
                .map_err(|e| ServerError::Io(format!("oplog record seq {seq}: {e}")))?;
            for op in &ops {
                replay_applied += u64::from(index.apply(op));
            }
            last_seq = *seq;
        }
        let counters = SessionCounters::default();
        counters.op_seq.set(last_seq);
        counters.ops_applied.add(snap.meta.applied + replay_applied);
        let mut durability = recovered.durability;
        durability.recovery = Some(RecoveryStats {
            snapshot_seq: snap.meta.seq,
            replayed: recovered.tail.len() as u64,
            torn_tail_dropped: recovered.torn_tail_dropped,
            options_changed,
            recover_ms: started.elapsed().as_secs_f64() * 1e3,
        });
        let durable_metrics = Some(Arc::clone(&durability.metrics));
        Ok(Session {
            name: name.to_string(),
            rel: snap.rel,
            rel_schema,
            options: RwLock::new(options),
            index: RwLock::new(index),
            counters,
            durable: Some(Mutex::new(durability)),
            durable_metrics,
            served: Mutex::new(HashMap::new()),
            tokens: Mutex::new(TokenCache::default()),
        })
    }

    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instrumentation counters.
    pub fn counters(&self) -> &SessionCounters {
        &self.counters
    }

    /// The current per-session measure options (the server-wide defaults
    /// until a `set_options` request overrides them).
    pub fn options(&self) -> MeasureOptions {
        *self.options.read()
    }

    /// Applies a partial measure-options override (`None` fields keep
    /// their current value; `violation_limit` takes `Some(None)` to lift
    /// the cap entirely). Durable sessions persist the new options by
    /// writing a snapshot — the snapshot meta is where options live in
    /// the on-disk format — so recovery restores them. Values already
    /// cached under the old budgets remain correct (a budget caps future
    /// work; a solve that completed within any budget is exact).
    pub fn set_options(
        &self,
        violation_limit: Option<Option<usize>>,
        mis_budget: Option<u64>,
        vc_budget: Option<u64>,
    ) -> Result<Json, ServerError> {
        // The index read lock keeps writers out, so the sequence number,
        // database dump and new options in the persisted snapshot are
        // mutually consistent.
        let idx = self.index.read();
        {
            let mut opts = self.options.write();
            if let Some(limit) = violation_limit {
                opts.violation_limit = limit;
            }
            if let Some(budget) = mis_budget {
                opts.mis_budget = budget;
            }
            if let Some(budget) = vc_budget {
                opts.vc_budget = budget;
            }
        }
        let options = *self.options.read();
        let mut persisted = false;
        if let Some(durable) = &self.durable {
            let seq = self.counters.op_seq.get();
            let text = self.snapshot_text(&idx, seq);
            durable.lock().write_snapshot(seq, &text)?;
            persisted = true;
        }
        drop(idx);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::str(self.name.clone())),
            ("options", options_json(&options)),
            ("persisted", Json::Bool(persisted)),
        ]))
    }

    /// Admits one request against the per-session in-flight bound
    /// (`limit == 0` = unbounded). [`Gauge::try_inc_below`] is a strict
    /// CAS loop, so the bound is never exceeded even under racing
    /// connections; the returned guard releases the slot on drop.
    pub fn admit(&self, limit: u64, retry_after_ms: u64) -> Result<InflightGuard<'_>, ServerError> {
        let c = &self.counters;
        match c.inflight.try_inc_below(limit) {
            Ok(_) => Ok(InflightGuard(&c.inflight)),
            Err(_) => {
                c.shed.inc();
                Err(ServerError::Overloaded {
                    what: format!(
                        "session `{}` is at its in-flight limit ({limit})",
                        self.name
                    ),
                    retry_after_ms,
                })
            }
        }
    }

    /// Summary for `create`/`sessions` responses (takes the read lock).
    pub fn summary(&self) -> Json {
        let idx = self.index.read();
        Json::obj([
            ("session", Json::str(self.name.clone())),
            ("tuples", Json::Num(idx.db().len() as f64)),
            ("constraints", Json::Num(idx.constraints().len() as f64)),
            ("raw", Json::Num(idx.raw_violations() as f64)),
            ("components", Json::Num(idx.component_count() as f64)),
            ("durable", Json::Bool(self.durable.is_some())),
        ])
    }

    /// Writer path: parse `.ops` lines (schema-typed, line-numbered
    /// errors) and apply them under the write lock, tagging each with its
    /// global sequence number. Durable sessions log write-ahead: the
    /// whole batch is appended (and fsynced, per policy) before the first
    /// op is applied, and a failed append refuses the batch with nothing
    /// applied.
    pub fn apply_ops(&self, ops_text: &str) -> Result<Json, ServerError> {
        self.apply_ops_token(ops_text, None)
    }

    /// [`apply_ops`](Self::apply_ops) with an optional idempotency token:
    /// a batch whose token was already applied is *not* re-applied — the
    /// remembered response (tagged `deduped:true`) is returned instead,
    /// which is what makes client-side retry of a write safe when the
    /// original response was lost (connection drop, write timeout). The
    /// token check-and-insert happens under the index write lock, which
    /// serializes writers, so two racing retries cannot both apply. The
    /// cache remembers the most recent `TOKEN_CACHE_CAP` (1024) tokens.
    pub fn apply_ops_token(
        &self,
        ops_text: &str,
        token: Option<&str>,
    ) -> Result<Json, ServerError> {
        let ops = parse_ops_file(&self.rel_schema, self.rel, ops_text).map_err(ServerError::Ops)?;
        let mut applied = 0u64;
        let mut echo = Vec::with_capacity(ops.len());
        {
            let mut idx = self.index.write();
            if let Some(token) = token {
                if let Some(prior) = self.tokens.lock().map.get(token) {
                    self.counters.deduped_ops.inc();
                    let mut entries = match prior.clone() {
                        Json::Obj(entries) => entries,
                        other => return Ok(other),
                    };
                    entries.push(("deduped".to_string(), Json::Bool(true)));
                    return Ok(Json::Obj(entries));
                }
            }
            let seqs: Vec<u64> = ops.iter().map(|_| self.counters.op_seq.inc()).collect();
            if let Some(durable) = &self.durable {
                let records: Vec<(u64, String)> = ops
                    .iter()
                    .zip(&seqs)
                    .map(|(op, &seq)| (seq, op_to_line(op, &self.rel_schema)))
                    .collect();
                durable.lock().append(&records)?;
            }
            for (op, &seq) in ops.iter().zip(&seqs) {
                let did = idx.apply(op);
                applied += u64::from(did);
                echo.push(Json::obj([
                    ("seq", Json::Num(seq as f64)),
                    ("op", Json::str(display_op(op, &self.rel_schema))),
                    ("applied", Json::Bool(did)),
                ]));
            }
            self.counters.ops_applied.add(applied);
            if let Some(durable) = &self.durable {
                let mut d = durable.lock();
                d.ops_since_snapshot += ops.len() as u64;
                if let Some(every) = d.snapshot_every {
                    if d.ops_since_snapshot >= every {
                        // Best-effort, like the clean-shutdown snapshot:
                        // the batch is already applied *and* in the
                        // write-ahead log, so failing the request here
                        // would report an applied batch as failed and
                        // invite a double-applying retry. The log alone
                        // recovers the same state, just more slowly.
                        let seq = self.counters.op_seq.get();
                        let text = self.snapshot_text(&idx, seq);
                        let result = d.write_snapshot(seq, &text).and_then(|_| d.compact());
                        if let Err(e) = result {
                            eprintln!("auto-snapshot of `{}` failed: {e}", self.name);
                        }
                    }
                }
            }
            let response = Json::obj([
                ("ok", Json::Bool(true)),
                ("session", Json::str(self.name.clone())),
                ("applied", Json::Num(applied as f64)),
                ("noops", Json::Num((ops.len() as u64 - applied) as f64)),
                ("ops", Json::Arr(echo)),
            ]);
            // Remember the token before the write lock drops, so a racing
            // retry that enters right after us sees it.
            if let Some(token) = token {
                let mut cache = self.tokens.lock();
                if cache.map.len() >= TOKEN_CACHE_CAP {
                    if let Some(oldest) = cache.order.pop_front() {
                        cache.map.remove(&oldest);
                    }
                }
                cache.order.push_back(token.to_string());
                cache.map.insert(token.to_string(), response.clone());
            }
            Ok(response)
        }
    }

    /// Renders the snapshot text for the current state (`seq` = last
    /// sequence number covered). Callers hold at least the read lock.
    fn snapshot_text(&self, idx: &IncrementalIndex, seq: u64) -> String {
        let meta = SnapshotMeta {
            session: self.name.clone(),
            seq,
            applied: self.counters.ops_applied.get(),
            options: *self.options.read(),
        };
        write_snapshot(&meta, idx.db(), self.rel, idx.constraints().dcs())
    }

    /// Writes a point-in-time snapshot (the `snapshot` request). Holding
    /// the read lock keeps writers out, so the dump and the sequence
    /// number are mutually consistent.
    pub fn snapshot(&self) -> Result<Json, ServerError> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| ServerError::NotDurable(self.name.clone()))?;
        let idx = self.index.read();
        let seq = self.counters.op_seq.get();
        let text = self.snapshot_text(&idx, seq);
        let path = durable.lock().write_snapshot(seq, &text)?;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::str(self.name.clone())),
            ("seq", Json::Num(seq as f64)),
            ("bytes", Json::Num(text.len() as f64)),
            ("path", Json::str(path.display().to_string())),
        ]))
    }

    /// Drops log records already covered by the newest snapshot (the
    /// `compact` request).
    pub fn compact(&self) -> Result<Json, ServerError> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| ServerError::NotDurable(self.name.clone()))?;
        let mut d = durable.lock();
        let (kept, dropped) = d.compact()?;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::str(self.name.clone())),
            ("snapshot_seq", Json::Num(d.snapshot_seq as f64)),
            ("kept", Json::Num(kept as f64)),
            ("dropped", Json::Num(dropped as f64)),
        ]))
    }

    /// WAL shipping (the `fetch_wal` request): every intact log record
    /// with `seq > from_seq`, in order. A follower appends these verbatim
    /// (via [`inconsist_formats::durable::encode_log_record`]) to its own
    /// copy of the session directory and replays them — sealed segments
    /// plus the active tail in one stream.
    pub fn wal_since(&self, from_seq: u64) -> Result<Vec<(u64, String)>, ServerError> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| ServerError::NotDurable(self.name.clone()))?;
        // The index read lock keeps writers (who append under the write
        // lock) out, so the scan never races a half-written batch.
        let _idx = self.index.read();
        durable.lock().records_since(from_seq)
    }

    /// Snapshot *text* for the current state (the `fetch_snapshot`
    /// request): `(covered_seq, snapshot_text)`. Unlike
    /// [`snapshot`](Self::snapshot) nothing is written locally — the
    /// caller (a follower bootstrapping its copy) writes the text
    /// verbatim as `snapshot-<seq>.snap` on its side. Works for
    /// in-memory sessions too, which is also how a follower can seed
    /// from a non-durable primary.
    pub fn snapshot_payload(&self) -> (u64, String) {
        let idx = self.index.read();
        let seq = self.counters.op_seq.get();
        let text = self.snapshot_text(&idx, seq);
        (seq, text)
    }

    /// Clean-shutdown snapshot: a no-op for in-memory sessions, else a
    /// point-in-time snapshot so restart recovery replays an empty tail.
    pub fn shutdown_snapshot(&self) -> Result<Option<u64>, ServerError> {
        if self.durable.is_none() {
            return Ok(None);
        }
        let resp = self.snapshot()?;
        Ok(resp.get("seq").and_then(Json::as_f64).map(|s| s as u64))
    }

    /// Reader path: the requested measures (plus the `per_dc` drilldown)
    /// up the read ladder. The names are parsed once, here
    /// ([`parse_measures`]): an unknown one fails with `kind:"protocol"`
    /// and a repeated one is read once.
    pub fn measure(
        &self,
        measures: &[String],
        per_dc: bool,
        opts: &MeasureOptions,
    ) -> Result<Json, ServerError> {
        self.read_measures(&parse_measures(measures)?, per_dc, opts, None)
    }

    /// Deadline-bounded reader path. Same answer as
    /// [`measure`](Self::measure) when everything fits inside
    /// `deadline_ms`; otherwise the response degrades instead of blocking
    /// past the deadline:
    ///
    /// * expensive solves (`I_R`, `I_R^lin`) that cannot finish in time
    ///   return their certified `[lower, upper]` bounds and the response
    ///   is tagged `partial:true` with an `upper` sibling of `values`;
    /// * when even the write lock cannot be had in time (a long writer or
    ///   warm-up holds it), the last fully-served values are returned
    ///   tagged `stale:true` with `as_of_seq`;
    /// * only when there is no cached answer at all does the request fail
    ///   with `kind:"deadline"`.
    pub fn measure_deadline(
        &self,
        measures: &[String],
        per_dc: bool,
        opts: &MeasureOptions,
        deadline_ms: u64,
    ) -> Result<Json, ServerError> {
        self.read_measures(&parse_measures(measures)?, per_dc, opts, Some(deadline_ms))
    }

    /// The one measure read behind [`measure`](Self::measure) and
    /// [`measure_deadline`](Self::measure_deadline), on parsed measures.
    /// The exclusive rung computes *only* the requested measures (each
    /// fills exactly the caches it needs), so a cheap request — say,
    /// `I_MI` alone — never pays for an unrequested budgeted cover solve.
    pub(crate) fn read_measures(
        &self,
        measures: &[Measure],
        per_dc: bool,
        opts: &MeasureOptions,
        deadline_ms: Option<u64>,
    ) -> Result<Json, ServerError> {
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let Some((path, values, upper)) = self.fresh(measures, per_dc, opts, deadline)? else {
            let mut keys: Vec<String> = measures.iter().map(|m| m.name().to_string()).collect();
            if per_dc {
                keys.push("per_dc".to_string());
            }
            let (as_of, values) = self.last_served(&keys, deadline_ms.unwrap_or(0))?;
            return Ok(self.stale(self.measure_response("stale", values), as_of));
        };
        if upper.is_empty() {
            return Ok(self.measure_response(path, values));
        }
        Ok(push_entries(
            self.measure_response(path, values),
            vec![("partial", Json::Bool(true)), ("upper", Json::Obj(upper))],
        ))
    }

    /// The shared and exclusive rungs of a measure read, or `None` when a
    /// deadline passed before the write lock came. Only a read with no
    /// partial value refreshes the stale rung: partial lower bounds must
    /// never masquerade as served values.
    pub(crate) fn fresh(
        &self,
        measures: &[Measure],
        per_dc: bool,
        opts: &MeasureOptions,
        deadline: Option<Instant>,
    ) -> Result<Option<Fresh>, ServerError> {
        let read = self.ladder(
            deadline,
            |idx| {
                let mut values = Vec::with_capacity(measures.len() + 1);
                for &m in measures {
                    let Some(v) = idx.try_measure(m, opts) else {
                        return Ok(None);
                    };
                    values.push((m.name().to_string(), Json::Num(v?)));
                }
                if per_dc {
                    let Some(counts) = idx.try_i_mi_by_dc() else {
                        return Ok(None);
                    };
                    values.push(("per_dc".to_string(), per_dc_json(idx, counts)));
                }
                Ok(Some((values, Vec::new())))
            },
            |idx| {
                let mut values = Vec::with_capacity(measures.len() + 1);
                let mut upper = Vec::new();
                for &m in measures {
                    let v = idx.measure(m, opts, deadline)?;
                    if v.partial {
                        upper.push((m.name().to_string(), Json::Num(v.upper)));
                    }
                    values.push((m.name().to_string(), Json::Num(v.value)));
                }
                if per_dc {
                    let counts = idx.i_mi_by_dc();
                    values.push(("per_dc".to_string(), per_dc_json(idx, counts)));
                }
                Ok((values, upper))
            },
        )?;
        let Some((path, seq, (values, upper))) = read else {
            return Ok(None);
        };
        if upper.is_empty() {
            self.record_last_served(seq, &values);
        } else {
            self.counters.partial_reads.inc();
        }
        Ok(Some((path, values, upper)))
    }

    /// Tuple-level reader path: the `k` most inconsistent tuples with
    /// their per-tuple responsibility scores (`cbm`/`cim`/`pim`/`rim`),
    /// ranked `(cbm, cim, rim)` descending with tuple-id tie-break.
    ///
    /// Same ladder as [`measure`](Self::measure). A lock that never comes
    /// within the deadline degrades to the first `k` rows of the last
    /// ranking served (tagged `stale:true` with `as_of_seq`) when that
    /// ranking holds them — it asked for at least `k` rows, or came back
    /// with fewer rows than it asked for — and fails with
    /// `kind:"deadline"` otherwise.
    pub fn tuple_measures(&self, k: usize, deadline_ms: Option<u64>) -> Result<Json, ServerError> {
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let read = self.ladder(
            deadline,
            |idx| Ok(idx.try_top_k_tuples(k)),
            |idx| Ok(idx.top_k_tuples(k)),
        )?;
        if let Some((path, seq, top)) = read {
            let tuples = tuple_scores_json(&top);
            // One ranking is kept, whatever `k` asked for it.
            let ranking = Json::obj([("k", Json::Num(k as f64)), ("tuples", tuples.clone())]);
            self.record_last_served(seq, &[(RANKING.to_string(), ranking)]);
            return Ok(self.tuple_response(path, k, tuples));
        }
        let ms = deadline_ms.unwrap_or(0);
        let (as_of, last) = self.last_served(&[RANKING.to_string()], ms)?;
        let ranking = &last[0].1;
        let served_k = ranking.get("k").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let rows = ranking
            .get("tuples")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        if served_k < k && rows.len() == served_k {
            return Err(ServerError::Deadline(format!(
                "`{}` busy past the {ms}ms deadline and no top-{k} tuple ranking \
                 was served",
                self.name
            )));
        }
        let rows = Json::Arr(rows[..k.min(rows.len())].to_vec());
        Ok(self.stale(self.tuple_response("stale", k, rows), as_of))
    }

    /// The read ladder behind every reader: a `shared` attempt under the
    /// read lock (cache-only `&self` reads; `Ok(None)` means some cache is
    /// cold), then the `exclusive` evaluation under the write lock.
    /// Without a deadline both rungs block. With one, the read lock is
    /// only tried (a held write lock goes straight to the upgrade) and the
    /// write lock is waited for only until the deadline. Returns the path
    /// that answered, the `op_seq` the answer was computed at and the
    /// answer — or `None` when the write lock never came.
    fn ladder<T>(
        &self,
        deadline: Option<Instant>,
        shared: impl FnOnce(&IncrementalIndex) -> Result<Option<T>, ServerError>,
        exclusive: impl FnOnce(&mut IncrementalIndex) -> Result<T, ServerError>,
    ) -> Result<Option<(&'static str, u64, T)>, ServerError> {
        let read = match deadline {
            None => Some(self.index.read()),
            Some(_) => self.index.try_read(),
        };
        if let Some(idx) = read {
            self.counters.reads_in_flight.inc();
            let answer = shared(&idx);
            self.counters.reads_in_flight.dec();
            if let Some(answer) = answer? {
                // op_seq only advances under the write lock, so it is
                // stable while we hold the read lock.
                let seq = self.counters.op_seq.get();
                drop(idx);
                self.counters.shared_reads.inc();
                return Ok(Some(("shared", seq, answer)));
            }
        }
        let write = match deadline {
            None => Some(self.index.write()),
            Some(d) => self
                .index
                .try_write_for(d.saturating_duration_since(Instant::now())),
        };
        let Some(mut idx) = write else {
            return Ok(None);
        };
        let answer = exclusive(&mut idx)?;
        let seq = self.counters.op_seq.get();
        drop(idx);
        self.counters.exclusive_reads.inc();
        Ok(Some(("exclusive", seq, answer)))
    }

    fn tuple_response(&self, path: &'static str, k: usize, tuples: Json) -> Json {
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("session".to_string(), Json::str(self.name.clone())),
            ("path".to_string(), Json::str(path)),
            ("k".to_string(), Json::Num(k as f64)),
            ("tuples".to_string(), tuples),
        ])
    }

    /// The stale rung's lookup: the value last served under every key,
    /// with the oldest `op_seq` among them (the current one for no keys),
    /// or `kind:"deadline"` naming the first key never served.
    fn last_served(
        &self,
        keys: &[String],
        deadline_ms: u64,
    ) -> Result<(u64, Vec<(String, Json)>), ServerError> {
        let served = self.served.lock();
        let mut as_of = self.counters.op_seq.get();
        let mut values = Vec::with_capacity(keys.len());
        for k in keys {
            let Some((seq, v)) = served.get(k) else {
                return Err(ServerError::Deadline(format!(
                    "`{}` busy past the {deadline_ms}ms deadline and `{k}` has no \
                     previously served value",
                    self.name
                )));
            };
            as_of = as_of.min(*seq);
            values.push((k.clone(), v.clone()));
        }
        Ok((as_of, values))
    }

    /// Tags a response served from the stale rung.
    fn stale(&self, resp: Json, as_of: u64) -> Json {
        self.counters.stale_reads.inc();
        push_entries(
            resp,
            vec![
                ("stale", Json::Bool(true)),
                ("as_of_seq", Json::Num(as_of as f64)),
            ],
        )
    }

    /// Records fully-served values for the stale rung, each tagged with
    /// the `op_seq` it was computed at.
    fn record_last_served(&self, seq: u64, values: &[(String, Json)]) {
        let mut served = self.served.lock();
        for (k, v) in values {
            served.insert(k.clone(), (seq, v.clone()));
        }
    }

    fn measure_response(&self, path: &'static str, mut values: Vec<(String, Json)>) -> Json {
        let per_dc = values.iter().position(|(k, _)| k == "per_dc");
        let per_dc = per_dc.map(|i| values.remove(i).1);
        let mut entries = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("session".to_string(), Json::str(self.name.clone())),
            ("path".to_string(), Json::str(path)),
            ("values".to_string(), Json::Obj(values)),
        ];
        if let Some(d) = per_dc {
            entries.push(("per_dc".to_string(), d));
        }
        Json::Obj(entries)
    }

    /// Counters, read-path instrumentation and cache hit rates.
    pub fn stats(&self) -> Json {
        let (read_stats, live) = {
            let idx = self.index.read();
            (
                idx.stats(),
                Json::obj([
                    ("tuples", Json::Num(idx.db().len() as f64)),
                    ("raw", Json::Num(idx.raw_violations() as f64)),
                    ("components", Json::Num(idx.component_count() as f64)),
                    (
                        "dirty_components",
                        Json::Num(idx.dirty_component_count() as f64),
                    ),
                ]),
            )
        };
        let rate = |hits: u64, misses: u64| {
            let total = hits + misses;
            if total == 0 {
                Json::Null
            } else {
                Json::Num(hits as f64 / total as f64)
            }
        };
        let c = &self.counters;
        let shared = c.shared_reads.get();
        let exclusive = c.exclusive_reads.get();
        let durability = match &self.durable {
            None => Json::Null,
            Some(durable) => {
                let d = durable.lock();
                let recovery = match &d.recovery {
                    None => Json::Null,
                    Some(r) => Json::obj([
                        ("snapshot_seq", Json::Num(r.snapshot_seq as f64)),
                        ("replayed", Json::Num(r.replayed as f64)),
                        ("torn_tail_dropped", Json::Bool(r.torn_tail_dropped)),
                        ("options_changed", Json::Bool(r.options_changed)),
                        ("recover_ms", Json::Num(r.recover_ms)),
                    ]),
                };
                let m = &d.metrics;
                let fsync_snap = m.fsync_us.snapshot();
                let append_snap = m.append_us.snapshot();
                Json::obj([
                    ("fsync", Json::str(d.fsync.name())),
                    ("fsync_count", Json::Num(fsync_snap.count() as f64)),
                    ("fsync_p50_us", Json::Num(fsync_snap.quantile(0.50) as f64)),
                    ("fsync_p99_us", Json::Num(fsync_snap.quantile(0.99) as f64)),
                    (
                        "append_p99_us",
                        Json::Num(append_snap.quantile(0.99) as f64),
                    ),
                    ("wedge_events", Json::Num(m.wedge_events.get() as f64)),
                    ("log_records", Json::Num(d.log_records as f64)),
                    ("log_bytes", Json::Num(d.log_bytes as f64)),
                    ("appended_bytes", Json::Num(d.appended_bytes as f64)),
                    ("logical_bytes", Json::Num(d.logical_bytes as f64)),
                    (
                        "write_amplification",
                        if d.logical_bytes == 0 {
                            Json::Null
                        } else {
                            Json::Num(d.appended_bytes as f64 / d.logical_bytes as f64)
                        },
                    ),
                    ("snapshot_seq", Json::Num(d.snapshot_seq as f64)),
                    ("snapshots_written", Json::Num(d.snapshots_written as f64)),
                    ("ops_since_snapshot", Json::Num(d.ops_since_snapshot as f64)),
                    ("sealed_segments", Json::Num(d.sealed_segments as f64)),
                    ("sealed_bytes", Json::Num(d.sealed_bytes as f64)),
                    (
                        "wedged",
                        match d.wedged() {
                            Some(why) => Json::str(why),
                            None => Json::Null,
                        },
                    ),
                    ("recovery", recovery),
                ])
            }
        };
        Json::obj([
            ("session", Json::str(self.name.clone())),
            ("live", live),
            ("ops_applied", Json::Num(c.ops_applied.get() as f64)),
            ("op_seq", Json::Num(c.op_seq.get() as f64)),
            ("shared_reads", Json::Num(shared as f64)),
            ("exclusive_reads", Json::Num(exclusive as f64)),
            (
                "max_concurrent_shared_reads",
                Json::Num(c.reads_in_flight.high_water() as f64),
            ),
            ("shared_read_rate", rate(shared, exclusive)),
            (
                "overload",
                Json::obj([
                    ("inflight", Json::Num(c.inflight.get() as f64)),
                    (
                        "inflight_high_water",
                        Json::Num(c.inflight.high_water() as f64),
                    ),
                    ("shed", Json::Num(c.shed.get() as f64)),
                    ("stale_reads", Json::Num(c.stale_reads.get() as f64)),
                    ("partial_reads", Json::Num(c.partial_reads.get() as f64)),
                    ("deduped_ops", Json::Num(c.deduped_ops.get() as f64)),
                ]),
            ),
            (
                "read_stats",
                Json::obj([
                    ("filter_runs", Json::Num(read_stats.filter_runs as f64)),
                    (
                        "filter_cache_hits",
                        Json::Num(read_stats.filter_cache_hits as f64),
                    ),
                    ("cover_solves", Json::Num(read_stats.cover_solves as f64)),
                    (
                        "cover_cache_hits",
                        Json::Num(read_stats.cover_cache_hits as f64),
                    ),
                    ("lin_solves", Json::Num(read_stats.lin_solves as f64)),
                    (
                        "lin_cache_hits",
                        Json::Num(read_stats.lin_cache_hits as f64),
                    ),
                ]),
            ),
            (
                "cache_hit_rates",
                Json::obj([
                    (
                        "filter",
                        rate(read_stats.filter_cache_hits, read_stats.filter_runs),
                    ),
                    (
                        "cover",
                        rate(read_stats.cover_cache_hits, read_stats.cover_solves),
                    ),
                    (
                        "lin",
                        rate(read_stats.lin_cache_hits, read_stats.lin_solves),
                    ),
                ]),
            ),
            ("options", options_json(&self.options())),
            ("durability", durability),
        ])
    }
}

/// The wire form of [`MeasureOptions`]: `violation_limit` is a number or
/// `null` (no cap), the budgets are numbers.
pub(crate) fn options_json(opts: &MeasureOptions) -> Json {
    Json::obj([
        (
            "violation_limit",
            match opts.violation_limit {
                Some(n) => Json::Num(n as f64),
                None => Json::Null,
            },
        ),
        ("mis_budget", Json::Num(opts.mis_budget as f64)),
        ("vc_budget", Json::Num(opts.vc_budget as f64)),
    ])
}

/// The per-constraint `I_MI^dc` drilldown, keyed by constraint name.
fn per_dc_json(idx: &IncrementalIndex, counts: Vec<usize>) -> Json {
    Json::Obj(
        idx.constraints()
            .dcs()
            .iter()
            .zip(counts)
            .map(|(dc, n)| (dc.name.clone(), Json::Num(n as f64)))
            .collect(),
    )
}

/// One ranked tuple-score list as wire JSON.
fn tuple_scores_json(top: &[TupleScores]) -> Json {
    Json::Arr(
        top.iter()
            .map(|s| {
                Json::obj([
                    ("tuple", Json::Num(s.tuple.0 as f64)),
                    ("cbm", Json::Num(s.cbm)),
                    ("cim", Json::Num(s.cim)),
                    ("pim", Json::Num(s.pim)),
                    ("rim", Json::Num(s.rim)),
                ])
            })
            .collect(),
    )
}

/// How many recent request events the registry's ring remembers.
const EVENT_RING_CAP: usize = 256;

/// The named-session registry. It also owns this server's observability
/// state: a per-instance [`inconsist_obs::Registry`] (tests run many
/// servers per process, so server metrics must not share process
/// globals), the recent-request [`EventRing`], and the slow-request
/// threshold. The metrics collector registered here walks the live
/// sessions and samples the *same* counter cells `stats` reads.
pub struct Registry {
    sessions: Arc<RwLock<HashMap<String, Arc<Session>>>>,
    solve_threads: usize,
    options: MeasureOptions,
    durability: Option<DurabilityConfig>,
    obs: Arc<inconsist_obs::Registry>,
    ring: Arc<EventRing>,
    /// Slow-request threshold in microseconds; 0 disables the slow log.
    slow_request_us: AtomicU64,
}

impl Registry {
    /// An empty in-memory registry; sessions created through it fan
    /// dirty-component solves across `solve_threads`.
    pub fn new(solve_threads: usize) -> Registry {
        Registry::with_config(solve_threads, MeasureOptions::default(), None)
    }

    /// An empty registry with explicit measure options and (optionally) a
    /// durability configuration — every session created through it then
    /// logs write-ahead and snapshots under the data dir.
    pub fn with_config(
        solve_threads: usize,
        options: MeasureOptions,
        durability: Option<DurabilityConfig>,
    ) -> Registry {
        let sessions: Arc<RwLock<HashMap<String, Arc<Session>>>> =
            Arc::new(RwLock::new(HashMap::new()));
        let obs = Arc::new(inconsist_obs::Registry::new());
        let for_collector = Arc::clone(&sessions);
        obs.register_collector(move |out| collect_session_samples(&for_collector, out));
        Registry {
            sessions,
            solve_threads: solve_threads.max(1),
            options,
            durability,
            obs,
            ring: Arc::new(EventRing::new(EVENT_RING_CAP)),
            slow_request_us: AtomicU64::new(0),
        }
    }

    /// The durability configuration, when the registry persists sessions.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref()
    }

    /// This server's metric registry (counters registered here are
    /// per-server, not process-global).
    pub fn obs(&self) -> &inconsist_obs::Registry {
        &self.obs
    }

    /// The recent-request event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Sets the slow-request log threshold (0 = off).
    pub fn set_slow_request_ms(&self, ms: u64) {
        self.slow_request_us
            .store(ms.saturating_mul(1000), Ordering::Relaxed);
    }

    /// Records one handled request: per-kind counter + latency histogram
    /// in the metric registry, a structured event in the ring, and a
    /// stderr line with the per-stage span breakdown when the request ran
    /// past the slow threshold.
    pub(crate) fn observe_request(
        &self,
        kind: &str,
        session: &str,
        seq: u64,
        latency_us: u64,
        outcome: &str,
        stages: Vec<(&'static str, u64)>,
    ) {
        self.obs
            .counter(&inconsist_obs::labeled(
                "server_requests_total",
                &[("kind", kind)],
            ))
            .inc();
        self.obs
            .histogram(&inconsist_obs::labeled(
                "server_request_us",
                &[("kind", kind)],
            ))
            .record(latency_us);
        if outcome != "ok" {
            self.obs
                .counter(&inconsist_obs::labeled(
                    "server_requests_degraded_total",
                    &[("outcome", outcome)],
                ))
                .inc();
        }
        let stages: Vec<(String, u64)> = stages
            .into_iter()
            .map(|(name, us)| (name.to_string(), us))
            .collect();
        let threshold = self.slow_request_us.load(Ordering::Relaxed);
        if threshold != 0 && latency_us >= threshold {
            let breakdown = stages
                .iter()
                .map(|(name, us)| format!("{name}={us}us"))
                .collect::<Vec<_>>()
                .join(" ");
            eprintln!(
                "slow-request: kind={kind} session={session} seq={seq} \
                 latency={latency_us}us outcome={outcome} stages=[{breakdown}]"
            );
        }
        self.ring.push(Event {
            index: 0, // the ring assigns the real index
            kind: kind.to_string(),
            session: session.to_string(),
            seq,
            latency_us,
            outcome: outcome.to_string(),
            stages,
        });
    }

    /// Every metric visible from this server: the per-server registry
    /// (sessions, admission, pool, event loop, durability) merged with
    /// the process-global one (core/solver span histograms), sorted by
    /// name. Both the `metrics` JSON response and the Prometheus
    /// exposition render exactly this vector.
    pub fn metrics_samples(&self) -> Vec<Sample> {
        let mut samples = self.obs.snapshot();
        samples.extend(inconsist_obs::global().snapshot());
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        samples
    }

    /// Creates a session; the expensive load runs outside the map lock.
    ///
    /// `mode` is ignored and passed through only because the frozen
    /// `loadbench/` crate still supplies it; the next benchmark change
    /// removes it, as on [`Session::open`].
    pub fn create(
        &self,
        name: &str,
        csv: &Payload,
        dc: &Payload,
        mode: ReadMode,
    ) -> Result<Arc<Session>, ServerError> {
        if name.is_empty() {
            return Err(ServerError::Protocol("empty session name".into()));
        }
        if self.sessions.read().contains_key(name) {
            return Err(ServerError::SessionExists(name.to_string()));
        }
        let csv_text = csv.read()?;
        let dc_text = dc.read()?;
        let session = Arc::new(Session::open(
            name,
            &csv_text,
            &dc_text,
            mode,
            self.solve_threads,
            self.options,
            self.durability.as_ref(),
        )?);
        let mut map = self.sessions.write();
        if map.contains_key(name) {
            return Err(ServerError::SessionExists(name.to_string()));
        }
        map.insert(name.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// Recovers every session directory under the data dir into the
    /// registry (server startup with `--data-dir`). Returns the names
    /// recovered, sorted. Any unrecoverable directory fails the whole
    /// startup — silently skipping persisted data is not an option for a
    /// durability layer.
    pub fn recover_all(&self) -> Result<Vec<String>, ServerError> {
        let Some(cfg) = &self.durability else {
            return Ok(Vec::new());
        };
        let names = crate::durable::list_session_dirs(&cfg.data_dir)?;
        for name in &names {
            let session = Arc::new(Session::recover(
                cfg,
                name,
                self.solve_threads,
                self.options,
            )?);
            self.sessions.write().insert(name.clone(), session);
        }
        Ok(names)
    }

    /// Drops a session (in-flight requests holding its `Arc` finish
    /// normally).
    ///
    /// **Sharding contract:** dropping *forgets*, it does not *destroy*.
    /// A durable session's directory is left fully intact on disk — no
    /// file is unlinked — so under a coordinator every shard that ever
    /// owned the session remains recoverable: restarting a worker (or
    /// pointing a new one at the data dir) brings the session back via
    /// [`Registry::recover_all`]. A coordinator's `drop` therefore
    /// forwards to the owning shard and only un-routes the name after the
    /// shard acknowledged; if that shard is unreachable the drop fails
    /// with `kind:"unavailable"` rather than half-forgetting it. Pinned
    /// by `drop_leaves_every_shard_recoverable` in `tests/sharding.rs`.
    pub fn drop_session(&self, name: &str) -> Result<(), ServerError> {
        self.sessions
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Looks a session up.
    pub fn get(&self, name: &str) -> Result<Arc<Session>, ServerError> {
        self.sessions
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Live session names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.sessions.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// All live sessions, sorted by name.
    pub fn all(&self) -> Vec<Arc<Session>> {
        let map = self.sessions.read();
        let mut all: Vec<Arc<Session>> = map.values().cloned().collect();
        all.sort_by(|a, b| a.name().cmp(b.name()));
        all
    }
}

/// The sessions collector: emits one labeled sample per session metric,
/// reading the *same* [`SessionCounters`] / [`DurableMetrics`] cells the
/// `stats` request renders — unified by construction, the two endpoints
/// cannot disagree. Runs at snapshot time only; the request hot path
/// never touches it.
fn collect_session_samples(
    sessions: &RwLock<HashMap<String, Arc<Session>>>,
    out: &mut Vec<Sample>,
) {
    let mut all: Vec<Arc<Session>> = sessions.read().values().cloned().collect();
    all.sort_by(|a, b| a.name().cmp(b.name()));
    for s in &all {
        let name = s.name();
        let c = s.counters();
        let counter = |metric: &str, labels: &[(&str, &str)], v: u64| Sample {
            name: inconsist_obs::labeled(metric, labels),
            value: Value::Counter(v),
        };
        let gauge = |metric: &str, labels: &[(&str, &str)], g: &Gauge| Sample {
            name: inconsist_obs::labeled(metric, labels),
            value: Value::Gauge {
                value: g.get(),
                high_water: g.high_water(),
            },
        };
        // The read ladder: which rung answered.
        for (rung, n) in [
            ("cache_hit", c.shared_reads.get()),
            ("warm", c.exclusive_reads.get()),
            ("partial", c.partial_reads.get()),
            ("stale", c.stale_reads.get()),
        ] {
            out.push(counter(
                "session_read_rung_total",
                &[("session", name), ("rung", rung)],
                n,
            ));
        }
        let l = [("session", name)];
        out.push(counter(
            "session_ops_applied_total",
            &l,
            c.ops_applied.get(),
        ));
        out.push(counter("session_shed_total", &l, c.shed.get()));
        out.push(counter(
            "session_deduped_ops_total",
            &l,
            c.deduped_ops.get(),
        ));
        out.push(gauge("session_op_seq", &l, &c.op_seq));
        out.push(gauge("session_inflight", &l, &c.inflight));
        out.push(gauge("session_reads_in_flight", &l, &c.reads_in_flight));
        if let Some(m) = &s.durable_metrics {
            for (metric, hist) in [
                ("durable_fsync_us", &m.fsync_us),
                ("durable_append_us", &m.append_us),
                ("durable_snapshot_us", &m.snapshot_us),
                ("durable_compact_us", &m.compact_us),
            ] {
                out.push(Sample {
                    name: inconsist_obs::labeled(metric, &l),
                    value: Value::Histogram(Box::new(hist.snapshot())),
                });
            }
            out.push(counter(
                "durable_wedge_events_total",
                &l,
                m.wedge_events.get(),
            ));
        }
        // Index read-path counters (filter/cover/LP cache effectiveness):
        // sampled under try_read so a long exclusive solve can never make
        // the metrics endpoint block behind the write lock.
        if let Some(idx) = s.index.try_read() {
            let rs = idx.stats();
            drop(idx);
            for (metric, n) in [
                ("index_filter_runs_total", rs.filter_runs),
                ("index_filter_cache_hits_total", rs.filter_cache_hits),
                ("index_cover_solves_total", rs.cover_solves),
                ("index_cover_cache_hits_total", rs.cover_cache_hits),
                ("index_lin_solves_total", rs.lin_solves),
                ("index_lin_cache_hits_total", rs.lin_cache_hits),
            ] {
                out.push(counter(metric, &l, n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,FR,4\n";
    const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

    fn registry_with_session() -> (Registry, Arc<Session>) {
        let reg = Registry::new(1);
        let s = reg
            .create(
                "cities",
                &Payload::Inline(CSV.into()),
                &Payload::Inline(DC.into()),
                ReadMode::Component,
            )
            .unwrap();
        (reg, s)
    }

    fn value(resp: &Json, name: &str) -> f64 {
        resp.get("values")
            .and_then(|v| v.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {name} in {resp}"))
    }

    #[test]
    fn measure_upgrades_then_shares() {
        let (_reg, s) = registry_with_session();
        let opts = MeasureOptions::default();
        let all: Vec<String> = crate::protocol::MEASURE_DEFAULTS
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        // Cold: the first read must upgrade (caches are empty).
        let first = s.measure(&all, true, &opts).unwrap();
        assert_eq!(first.get("path").and_then(Json::as_str), Some("exclusive"));
        assert_eq!(value(&first, "I_MI"), 1.0);
        assert_eq!(value(&first, "I_R"), 1.0);
        assert_eq!(
            first
                .get("per_dc")
                .and_then(|d| d.get("fd"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        // Warm: the second read is served shared, same values.
        let second = s.measure(&all, true, &opts).unwrap();
        assert_eq!(second.get("path").and_then(Json::as_str), Some("shared"));
        assert_eq!(value(&second, "I_MI"), 1.0);
        // A write that *dissolves* the only conflict leaves no dirty
        // component, so the next read still serves shared.
        let op = s.apply_ops("update 1 Country FR\n").unwrap();
        assert_eq!(op.get("applied").and_then(Json::as_f64), Some(1.0));
        let third = s.measure(&all, false, &opts).unwrap();
        assert_eq!(third.get("path").and_then(Json::as_str), Some("shared"));
        assert_eq!(value(&third, "I_MI"), 0.0);
        assert_eq!(value(&third, "I_d"), 0.0);
        // A write that *creates* a conflict dirties a component: upgrade.
        s.apply_ops("update 3 Country IT\n").unwrap();
        let fourth = s.measure(&all, false, &opts).unwrap();
        assert_eq!(fourth.get("path").and_then(Json::as_str), Some("exclusive"));
        assert_eq!(value(&fourth, "I_MI"), 1.0);
        let c = s.counters();
        assert_eq!(c.shared_reads.get(), 2);
        assert_eq!(c.exclusive_reads.get(), 2);
        assert_eq!(c.ops_applied.get(), 2);
    }

    #[test]
    fn ops_errors_keep_line_context_and_apply_nothing() {
        let (_reg, s) = registry_with_session();
        let err = s.apply_ops("delete 0\nupdate 1 Nope x\n").unwrap_err();
        assert_eq!(err.kind(), "ops");
        let msg = err.to_string();
        assert!(msg.contains("ops line 2"), "{msg}");
        assert!(msg.contains("update 1 Nope x"), "{msg}");
        // The parse failed before anything was applied: tuple 0 is alive.
        let opts = MeasureOptions::default();
        let resp = s.measure(&["raw".to_string()], false, &opts).unwrap();
        assert_eq!(value(&resp, "raw"), 1.0);
        assert_eq!(s.counters().op_seq.get(), 0);
    }

    #[test]
    fn registry_lifecycle_and_duplicates() {
        let (reg, _s) = registry_with_session();
        assert_eq!(reg.names(), vec!["cities".to_string()]);
        let dup = reg.create(
            "cities",
            &Payload::Inline(CSV.into()),
            &Payload::Inline(DC.into()),
            ReadMode::Component,
        );
        assert!(matches!(dup, Err(ServerError::SessionExists(_))));
        assert!(reg.get("cities").is_ok());
        reg.drop_session("cities").unwrap();
        assert!(matches!(
            reg.get("cities"),
            Err(ServerError::UnknownSession(_))
        ));
        assert!(reg.drop_session("cities").is_err());
        let bad = reg.create(
            "bad",
            &Payload::Inline("A,B\n1\n".into()),
            &Payload::Inline(DC.into()),
            ReadMode::Component,
        );
        assert!(matches!(bad, Err(ServerError::Load(_))));
    }

    fn durable_cfg(tag: &str) -> DurabilityConfig {
        let dir = std::env::temp_dir().join(format!(
            "inconsist-session-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        DurabilityConfig {
            data_dir: dir,
            fsync: crate::durable::FsyncPolicy::Never,
            snapshot_every: None,
            segment_bytes: None,
        }
    }

    fn open_durable(cfg: &DurabilityConfig) -> Session {
        Session::open(
            "cities",
            CSV,
            DC,
            ReadMode::Component,
            1,
            MeasureOptions::default(),
            Some(cfg),
        )
        .unwrap()
    }

    fn measures_of(s: &Session) -> Json {
        let all: Vec<String> = ["I_MI", "I_P", "I_R", "I_R^lin", "raw", "components"]
            .iter()
            .map(|m| m.to_string())
            .collect();
        let resp = s.measure(&all, false, &MeasureOptions::default()).unwrap();
        resp.get("values").cloned().unwrap()
    }

    #[test]
    fn durable_session_recovers_bit_identical_without_clean_shutdown() {
        let cfg = durable_cfg("recover");
        let live = open_durable(&cfg);
        live.apply_ops("update 1 Country FR\nupdate 3 Country IT\n")
            .unwrap();
        live.apply_ops("insert Nancy,FR,9\ndelete 0\n").unwrap();
        let expected = measures_of(&live);
        let live_seq = live.counters().op_seq.get();
        drop(live); // crash: no snapshot beyond the initial seq-0 one
        let recovered = Session::recover(&cfg, "cities", 1, MeasureOptions::default()).unwrap();
        assert_eq!(measures_of(&recovered), expected);
        assert_eq!(recovered.counters().op_seq.get(), live_seq);
        // The recovery stats report the replayed tail.
        let stats = recovered.stats();
        let durability = stats.get("durability").unwrap();
        let recovery = durability.get("recovery").unwrap();
        assert_eq!(
            recovery.get("replayed").and_then(Json::as_f64),
            Some(4.0),
            "{stats}"
        );
        assert_eq!(
            recovery.get("torn_tail_dropped").and_then(Json::as_bool),
            Some(false)
        );
        // The recovered session keeps serving writes: seq continues past
        // the recovered point and lands in the log.
        let resp = recovered.apply_ops("insert Metz,FR,2\n").unwrap();
        let seq = resp.get("ops").and_then(Json::as_arr).unwrap()[0]
            .get("seq")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(seq, live_seq as f64 + 1.0);
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }

    /// `set_options` on a durable session persists immediately (its own
    /// snapshot), and recovery adopts the snapshotted options over the
    /// server-level defaults passed to `recover`.
    #[test]
    fn set_options_survive_recovery() {
        let cfg = durable_cfg("options");
        let live = open_durable(&cfg);
        live.apply_ops("update 1 Country FR\n").unwrap();
        let resp = live
            .set_options(Some(None), Some(1234), None)
            .expect("set_options");
        assert_eq!(resp.get("persisted").and_then(Json::as_bool), Some(true));
        let expected = measures_of(&live);
        drop(live); // crash: the options snapshot is the newest state
        let recovered = Session::recover(&cfg, "cities", 1, MeasureOptions::default()).unwrap();
        let opts = recovered.options();
        assert_eq!(opts.violation_limit, None);
        assert_eq!(opts.mis_budget, 1234);
        assert_eq!(
            opts.vc_budget,
            MeasureOptions::default().vc_budget,
            "untouched field keeps its value"
        );
        assert_eq!(measures_of(&recovered), expected);
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }

    #[test]
    fn snapshot_then_compact_drops_covered_records() {
        let cfg = durable_cfg("compact");
        let s = open_durable(&cfg);
        s.apply_ops("update 1 Country FR\n").unwrap();
        s.apply_ops("update 3 Country IT\n").unwrap();
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.get("seq").and_then(Json::as_f64), Some(2.0));
        s.apply_ops("delete 0\n").unwrap();
        let compacted = s.compact().unwrap();
        assert_eq!(compacted.get("dropped").and_then(Json::as_f64), Some(2.0));
        assert_eq!(compacted.get("kept").and_then(Json::as_f64), Some(1.0));
        let expected = measures_of(&s);
        drop(s);
        // Recovery = snapshot at seq 2 + a one-record tail.
        let recovered = Session::recover(&cfg, "cities", 1, MeasureOptions::default()).unwrap();
        assert_eq!(measures_of(&recovered), expected);
        let stats = recovered.stats();
        let recovery = stats
            .get("durability")
            .and_then(|d| d.get("recovery"))
            .cloned()
            .unwrap();
        assert_eq!(
            recovery.get("snapshot_seq").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(recovery.get("replayed").and_then(Json::as_f64), Some(1.0));
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }

    #[test]
    fn torn_log_tail_is_dropped_never_half_applied() {
        let cfg = durable_cfg("torn");
        let s = open_durable(&cfg);
        s.apply_ops("update 1 Country FR\n").unwrap();
        let expected = measures_of(&s);
        s.apply_ops("update 3 Country IT\n").unwrap();
        drop(s);
        // Tear the final record: chop a few bytes off the log.
        let log = cfg.data_dir.join("cities").join("ops.log");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
        let recovered = Session::recover(&cfg, "cities", 1, MeasureOptions::default()).unwrap();
        // Only the intact first record replays; the torn second is gone.
        assert_eq!(measures_of(&recovered), expected);
        assert_eq!(recovered.counters().op_seq.get(), 1);
        let stats = recovered.stats();
        let recovery = stats
            .get("durability")
            .and_then(|d| d.get("recovery"))
            .cloned()
            .unwrap();
        assert_eq!(
            recovery.get("torn_tail_dropped").and_then(Json::as_bool),
            Some(true)
        );
        // The log was truncated past the torn bytes: appending again
        // yields an intact log (seq continues from the recovered point).
        recovered.apply_ops("update 3 Country DE\n").unwrap();
        let expected = measures_of(&recovered);
        drop(recovered);
        let again = Session::recover(&cfg, "cities", 1, MeasureOptions::default()).unwrap();
        assert_eq!(measures_of(&again), expected);
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }

    #[test]
    fn durability_requests_on_memory_sessions_and_bad_names() {
        let (_reg, s) = registry_with_session();
        let err = s.snapshot().unwrap_err();
        assert_eq!(err.kind(), "not_durable");
        assert!(s.compact().is_err());
        assert!(s.shutdown_snapshot().unwrap().is_none());
        let cfg = durable_cfg("names");
        for bad in ["", ".hidden", "a/b", "x y"] {
            let err = Session::open(
                bad,
                CSV,
                DC,
                ReadMode::Component,
                1,
                MeasureOptions::default(),
                Some(&cfg),
            )
            .map(|_| ())
            .unwrap_err();
            assert!(
                matches!(err, ServerError::Protocol(_) | ServerError::Load(_)),
                "{bad:?} → {err}"
            );
        }
        std::fs::remove_dir_all(&cfg.data_dir).ok();
    }

    #[test]
    fn i_mc_serves_on_the_shared_path() {
        let (_reg, s) = registry_with_session();
        let opts = MeasureOptions::default();
        s.measure(&["I_MI".to_string()], false, &opts).unwrap(); // warm
        let resp = s
            .measure(&["I_MC".to_string(), "I_MI".to_string()], false, &opts)
            .unwrap();
        assert_eq!(resp.get("path").and_then(Json::as_str), Some("shared"));
        assert_eq!(value(&resp, "I_MC"), 1.0); // 2 repairs − 1
    }

    #[test]
    fn only_roster_names_are_measures() {
        let (_reg, s) = registry_with_session();
        let opts = MeasureOptions::default();
        // `per_dc` is the drilldown flag, not a measure; an unknown name
        // fails the same way, on both reader paths.
        for bad in ["per_dc", "I_BOGUS"] {
            let names = ["I_MI".to_string(), bad.to_string()];
            for err in [
                s.measure(&names, false, &opts).unwrap_err(),
                s.measure_deadline(&names, false, &opts, 50).unwrap_err(),
            ] {
                assert_eq!(err.kind(), "protocol", "{bad}: {err}");
                assert!(err.to_string().contains("unknown measure"), "{err}");
            }
        }
        // A repeated name is read once.
        let resp = s
            .measure(&["I_MI".to_string(), "I_MI".to_string()], false, &opts)
            .unwrap();
        match resp.get("values") {
            Some(Json::Obj(values)) => assert_eq!(values.len(), 1, "{resp}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn admission_sheds_at_the_session_limit_and_readmits_on_release() {
        let (_reg, s) = registry_with_session();
        let first = s.admit(2, 40).unwrap();
        let _second = s.admit(2, 40).unwrap();
        let err = s.admit(2, 40).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        let json = err.to_json();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            json.get("retry_after_ms").and_then(Json::as_f64),
            Some(40.0)
        );
        drop(first); // a released slot readmits
        let _third = s.admit(2, 40).unwrap();
        let c = s.counters();
        assert_eq!(c.inflight.get(), 2);
        assert_eq!(c.inflight.high_water(), 2);
        assert_eq!(c.shed.get(), 1);
        // Limit 0 is unbounded.
        let _fourth = s.admit(0, 40).unwrap();
        assert_eq!(c.inflight.high_water(), 3);
    }

    #[test]
    fn op_tokens_dedup_replayed_batches() {
        let (_reg, s) = registry_with_session();
        let first = s
            .apply_ops_token("update 1 Pop 7\n", Some("tok-1"))
            .unwrap();
        assert!(first.get("deduped").is_none());
        assert_eq!(first.get("applied").and_then(Json::as_f64), Some(1.0));
        // A retried batch with the same token is not re-applied: the
        // remembered response comes back, tagged.
        let replay = s
            .apply_ops_token("update 1 Pop 7\n", Some("tok-1"))
            .unwrap();
        assert_eq!(replay.get("deduped").and_then(Json::as_bool), Some(true));
        assert_eq!(replay.get("applied").and_then(Json::as_f64), Some(1.0));
        assert_eq!(s.counters().op_seq.get(), 1);
        assert_eq!(s.counters().deduped_ops.get(), 1);
        // A different token applies normally.
        s.apply_ops_token("update 1 Pop 8\n", Some("tok-2"))
            .unwrap();
        assert_eq!(s.counters().op_seq.get(), 2);
    }

    #[test]
    fn expired_deadline_degrades_cover_measures_to_certified_bounds() {
        let (_reg, s) = registry_with_session();
        let opts = MeasureOptions::default();
        // Dirty the index so the shared path cannot answer, then read
        // with an already-expired deadline: the solves must come back as
        // [lower, upper] bounds instead of blocking on exact covers.
        s.apply_ops("update 3 Country IT\n").unwrap();
        let names: Vec<String> = vec!["I_R".to_string(), "I_R^lin".to_string()];
        let resp = s.measure_deadline(&names, false, &opts, 0).unwrap();
        assert_eq!(resp.get("partial").and_then(Json::as_bool), Some(true));
        let lower = value(&resp, "I_R");
        let upper = resp
            .get("upper")
            .and_then(|u| u.get("I_R"))
            .and_then(Json::as_f64)
            .expect("upper bound for the degraded I_R");
        assert_eq!(s.counters().partial_reads.get(), 1);
        // Partial bounds are never cached: the exact read still solves,
        // and its value sits inside the certified interval.
        let exact = value(
            &s.measure(&["I_R".to_string()], false, &opts).unwrap(),
            "I_R",
        );
        assert!(
            lower <= exact && exact <= upper,
            "want {lower} <= {exact} <= {upper}"
        );
        // A full-deadline read is exact and untagged.
        let relaxed = s.measure_deadline(&names, false, &opts, 60_000).unwrap();
        assert!(relaxed.get("partial").is_none());
        assert_eq!(value(&relaxed, "I_R"), exact);
    }

    #[test]
    fn contended_deadline_reads_fall_back_to_stale_aggregates() {
        let (_reg, s) = registry_with_session();
        let opts = MeasureOptions::default();
        let names: Vec<String> = vec!["I_MI".to_string(), "raw".to_string()];
        // One op first (off the DC's columns), so the current seq is not 0.
        s.apply_ops("update 3 Pop 9").unwrap();
        // Seed the last-served cache with one full read.
        s.measure(&names, false, &opts).unwrap();
        let seq = s.counters().op_seq.get();
        assert_eq!(seq, 1);
        // A writer pins the index; a 1ms-deadline read cannot get in and
        // must answer from the last fully-served values.
        let _writer = s.index.write();
        let resp = s.measure_deadline(&names, false, &opts, 1).unwrap();
        assert_eq!(resp.get("path").and_then(Json::as_str), Some("stale"));
        assert_eq!(resp.get("stale").and_then(Json::as_bool), Some(true));
        assert_eq!(
            resp.get("as_of_seq").and_then(Json::as_f64),
            Some(seq as f64)
        );
        assert_eq!(value(&resp, "I_MI"), 1.0);
        assert_eq!(s.counters().stale_reads.get(), 1);
        // An empty measure list is answered as of the current seq.
        let empty = s.measure_deadline(&[], false, &opts, 1).unwrap();
        assert_eq!(empty.get("stale").and_then(Json::as_bool), Some(true));
        assert_eq!(
            empty.get("as_of_seq").and_then(Json::as_f64),
            Some(seq as f64)
        );
        assert_eq!(s.counters().stale_reads.get(), 2);
        // A measure that was never fully served has nothing to fall back
        // to: fail loudly rather than invent a value.
        let err = s
            .measure_deadline(&["I_P".to_string()], false, &opts, 1)
            .unwrap_err();
        assert_eq!(err.kind(), "deadline");
    }

    #[test]
    fn contended_deadline_per_dc_reads_fall_back_to_stale_counts() {
        let (_reg, s) = registry_with_session();
        let opts = MeasureOptions::default();
        // Never served: nothing to fall back to.
        {
            let _writer = s.index.write();
            let err = s.measure_deadline(&[], true, &opts, 1).unwrap_err();
            assert_eq!(err.kind(), "deadline");
        }
        s.apply_ops("update 3 Pop 9").unwrap();
        s.measure(&[], true, &opts).unwrap();
        let _writer = s.index.write();
        let resp = s.measure_deadline(&[], true, &opts, 1).unwrap();
        assert_eq!(resp.get("stale").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("as_of_seq").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            resp.get("per_dc")
                .and_then(|d| d.get("fd"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn contended_deadline_tuple_reads_fall_back_to_the_last_ranking() {
        let (_reg, s) = registry_with_session();
        // No ranking was ever served: fail rather than invent one.
        {
            let _writer = s.index.write();
            let err = s.tuple_measures(10, Some(1)).unwrap_err();
            assert_eq!(err.kind(), "deadline");
        }
        s.apply_ops("update 3 Pop 9").unwrap();
        let served = s.tuple_measures(10, None).unwrap();
        let _writer = s.index.write();
        let resp = s.tuple_measures(10, Some(1)).unwrap();
        assert_eq!(resp.get("path").and_then(Json::as_str), Some("stale"));
        assert_eq!(resp.get("stale").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("as_of_seq").and_then(Json::as_f64), Some(1.0));
        assert_eq!(resp.get("tuples"), served.get("tuples"));
        assert_eq!(s.counters().stale_reads.get(), 1);
    }

    #[test]
    fn one_ranking_is_kept_and_serves_every_k_it_holds() {
        let reg = Registry::new(1);
        let csv =
            "City,Country\nParis,FR\nParis,DE\nParis,IT\nLyon,FR\nLyon,DE\nNice,FR\nNice,ES\n";
        let s = reg
            .create(
                "cities",
                &Payload::Inline(csv.into()),
                &Payload::Inline(DC.into()),
                ReadMode::Component,
            )
            .unwrap();
        let rows = |resp: &Json| resp.get("tuples").and_then(Json::as_arr).unwrap().to_vec();
        // A client walking `k` leaves one stale entry, not one per `k`.
        for k in 1..=200 {
            s.tuple_measures(k, None).unwrap();
        }
        assert_eq!(s.served.lock().len(), 1);
        let top10 = rows(&s.tuple_measures(10, None).unwrap());
        assert_eq!(top10.len(), 7, "every scored tuple");
        {
            let _writer = s.index.write();
            // The first 3 rows of the top-10 ranking.
            let resp = s.tuple_measures(3, Some(1)).unwrap();
            assert_eq!(resp.get("stale").and_then(Json::as_bool), Some(true));
            assert_eq!(resp.get("as_of_seq").and_then(Json::as_f64), Some(0.0));
            assert_eq!(rows(&resp), top10[..3]);
            // The ranking came back short, so it is complete: it serves
            // any larger `k` too.
            assert_eq!(rows(&s.tuple_measures(50, Some(1)).unwrap()), top10);
        }
        // A top-2 ranking cannot answer a top-3 read.
        s.tuple_measures(2, None).unwrap();
        let _writer = s.index.write();
        assert_eq!(rows(&s.tuple_measures(2, Some(1)).unwrap()), top10[..2]);
        let err = s.tuple_measures(3, Some(1)).unwrap_err();
        assert_eq!(err.kind(), "deadline");
    }
}
