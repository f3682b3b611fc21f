//! The coordinator: session routing and scatter/gather over a pool of
//! worker shards.
//!
//! A coordinator is an ordinary `inconsist-server` front end whose
//! router, instead of touching a local registry, **forwards** every
//! session-scoped request to the worker shard that owns the session —
//! speaking the same line-delimited-JSON protocol the workers serve, so
//! a worker is just a plain server that happens to receive its traffic
//! from a coordinator.
//!
//! ## Placement and redirects
//!
//! Whole sessions are the sharding unit (component-hash placement
//! *within* a session stays future headroom; see ARCHITECTURE.md). A new
//! session lands on `fnv64(name) % shards`, scanning forward to the
//! first live shard; the directory records where it actually landed, so
//! placement survives shard-set growth (`join`). When a forward fails
//! the shard is marked dead and the request fails with
//! `kind:"unavailable"` + `retry_after_ms` — the session's state is
//! durable in that shard's data dir, so a client retry after the worker
//! restarts is *redirected* transparently: forwarding reconnects lazily
//! and the restarted worker recovers the session before it listens.
//!
//! ## Exactly-once writes
//!
//! Writes flow coordinator → owning shard as op deltas over the existing
//! `op` framing. An `op` without an idempotency token gets one minted
//! here (`coord-<pid>-<n>`), and the coordinator's bounded retry re-sends
//! the *same* line — so a worker that died after applying but before
//! responding dedups the re-send after restart instead of applying
//! twice (the PR 6 token contract, now load-bearing across processes).
//!
//! ## Bit-identical gathers
//!
//! `measure_all` scatters with `detail:true`, merges every shard's
//! per-session values, and re-folds them in ascending session-name order
//! seeded from 0.0 ([`crate::shard::fold_sessions`]) — the exact
//! addition sequence a single process performs, so aggregates are
//! bit-identical across topologies. Forwarded single-session responses
//! are passed through structurally untouched.

use crate::client::{ClientBuilder, TypedClient};
use crate::error::ServerError;
use crate::protocol::{Payload, Request};
use crate::session::Registry;
use crate::shard::fold_response;
use crate::wire::Json;
use crate::RetryPolicy;
use inconsist::incremental::Measure;
use inconsist_formats::durable::fnv64;
use inconsist_obs::labeled;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many idle pooled connections each shard keeps for reuse.
const POOL_CAP: usize = 8;

/// Coordinator configuration (carried on
/// [`ServerConfig`](crate::ServerConfig)).
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// The worker shards' request addresses, in shard-index order.
    pub shard_addrs: Vec<SocketAddr>,
    /// Retry policy for the coordinator → shard leg.
    pub retry: RetryPolicy,
    /// `retry_after_ms` hint attached to `unavailable` responses.
    pub retry_after_ms: u64,
}

impl CoordinatorConfig {
    /// A config with the default retry policy and backoff hint.
    pub fn new(shard_addrs: Vec<SocketAddr>) -> CoordinatorConfig {
        CoordinatorConfig {
            shard_addrs,
            retry: RetryPolicy::default(),
            retry_after_ms: 100,
        }
    }
}

/// One worker shard: its address, liveness, and a small pool of idle
/// connections (so one shard's traffic is not serialized on a single
/// socket).
struct ShardState {
    addr: SocketAddr,
    alive: AtomicBool,
}

impl ShardState {
    fn new(addr: SocketAddr) -> ShardState {
        ShardState {
            addr,
            alive: AtomicBool::new(true),
        }
    }
}

/// A shard plus its connection pool (split from [`ShardState`] so the
/// pool mutex never sits inside the shards read lock's critical data).
struct Shard {
    state: ShardState,
    idle: Mutex<Vec<TypedClient>>,
}

impl Shard {
    fn new(addr: SocketAddr) -> Shard {
        Shard {
            state: ShardState::new(addr),
            idle: Mutex::new(Vec::new()),
        }
    }
}

/// Session routing + scatter/gather over the worker shards. Lives on the
/// server's `Shared` state; the router consults it on every request when
/// the process runs as `serve --coordinator`.
pub struct Coordinator {
    shards: RwLock<Vec<Arc<Shard>>>,
    /// session name → shard index (where the session actually lives).
    directory: RwLock<HashMap<String, usize>>,
    retry: RetryPolicy,
    retry_after_ms: u64,
    token_counter: AtomicU64,
}

impl Coordinator {
    /// Builds the shard table; no connection is opened until the first
    /// forward (or [`bootstrap`](Self::bootstrap)).
    pub fn new(cfg: CoordinatorConfig) -> Coordinator {
        Coordinator {
            shards: RwLock::new(
                cfg.shard_addrs
                    .iter()
                    .map(|a| Arc::new(Shard::new(*a)))
                    .collect(),
            ),
            directory: RwLock::new(HashMap::new()),
            retry: cfg.retry,
            retry_after_ms: cfg.retry_after_ms,
            token_counter: AtomicU64::new(0),
        }
    }

    /// The shard addresses, in index order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.read().iter().map(|s| s.state.addr).collect()
    }

    /// Asks every shard for its live sessions and seeds the directory —
    /// how a restarted coordinator re-learns where recovered sessions
    /// live. A shard that cannot answer is marked dead (its sessions
    /// redirect once it returns); bootstrap itself never fails.
    pub fn bootstrap(&self, registry: &Registry) {
        let shards: Vec<Arc<Shard>> = self.shards.read().clone();
        for (idx, shard) in shards.iter().enumerate() {
            if let Err(e) = self.adopt(registry, idx, shard) {
                eprintln!(
                    "coordinator: shard {} not bootstrapped: {e}",
                    shard.state.addr
                );
            }
        }
    }

    /// Points the directory at shard `idx` for every session it reports.
    fn adopt(&self, registry: &Registry, idx: usize, shard: &Shard) -> Result<(), ServerError> {
        let json = self.forward_to(registry, shard, &Request::Sessions.to_json().to_string())?;
        let mut dir = self.directory.write();
        for name in json.str_list("sessions") {
            dir.insert(name, idx);
        }
        Ok(())
    }

    /// The shard that owns `session`: the directory's answer when it has
    /// one, else the hash home `fnv64(name) % shards` scanned forward to
    /// the first live shard (all-dead falls back to the hash home, whose
    /// lazy reconnect realizes the redirect when it returns).
    fn place(&self, session: &str) -> Result<(usize, Arc<Shard>), ServerError> {
        let shards = self.shards.read();
        if shards.is_empty() {
            return Err(ServerError::Unavailable {
                what: "coordinator has no shards".to_string(),
                retry_after_ms: self.retry_after_ms,
            });
        }
        if let Some(&idx) = self.directory.read().get(session) {
            if let Some(shard) = shards.get(idx) {
                return Ok((idx, Arc::clone(shard)));
            }
        }
        let start = (fnv64(session.as_bytes()) % shards.len() as u64) as usize;
        for k in 0..shards.len() {
            let idx = (start + k) % shards.len();
            if shards[idx].state.alive.load(Ordering::Relaxed) {
                return Ok((idx, Arc::clone(&shards[idx])));
            }
        }
        Ok((start, Arc::clone(&shards[start])))
    }

    /// Forwards one serialized request line to a shard, with per-shard
    /// request/error/latency/liveness metrics on the server's obs
    /// registry. A transport failure (after the client's own bounded
    /// retry) marks the shard dead and surfaces `kind:"unavailable"`;
    /// the shard's own responses — errors included — pass through
    /// structurally untouched.
    fn forward_to(
        &self,
        registry: &Registry,
        shard: &Shard,
        line: &str,
    ) -> Result<Json, ServerError> {
        let started = Instant::now();
        let result = self.forward_inner(shard, line);
        let obs = registry.obs();
        let addr = shard.state.addr.to_string();
        let shard_label: &[(&str, &str)] = &[("shard", &addr)];
        obs.counter(&labeled("coord_shard_requests_total", shard_label))
            .inc();
        obs.histogram(&labeled("coord_shard_request_us", shard_label))
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        if result.is_err() {
            obs.counter(&labeled("coord_shard_errors_total", shard_label))
                .inc();
        }
        obs.gauge(&labeled("coord_shard_alive", shard_label))
            .set(shard.state.alive.load(Ordering::Relaxed) as u64);
        result
    }

    fn forward_inner(&self, shard: &Shard, line: &str) -> Result<Json, ServerError> {
        let unavailable = |what: String| ServerError::Unavailable {
            what,
            retry_after_ms: self.retry_after_ms,
        };
        let pooled = shard.idle.lock().pop();
        let mut client = match pooled {
            Some(c) => c,
            None => ClientBuilder::new(shard.state.addr)
                .retry(self.retry)
                .handshake(false)
                .connect()
                .map_err(|e| {
                    shard.state.alive.store(false, Ordering::Relaxed);
                    unavailable(format!("shard {}: {e}", shard.state.addr))
                })?,
        };
        match client.call_line_raw(line) {
            Ok(response) => {
                shard.state.alive.store(true, Ordering::Relaxed);
                let mut idle = shard.idle.lock();
                if idle.len() < POOL_CAP {
                    idle.push(client);
                }
                drop(idle);
                Json::parse(&response).map_err(|e| {
                    ServerError::Io(format!("shard {}: bad response: {e}", shard.state.addr))
                })
            }
            Err(e) => {
                // `request_with_retry` reports exhausted `overloaded`
                // retries as an error with the shard's last response
                // embedded; that shard is alive, just saturated — hand
                // its own overloaded response through.
                if let Some(json) = embedded_overloaded(&e) {
                    shard.state.alive.store(true, Ordering::Relaxed);
                    let mut idle = shard.idle.lock();
                    if idle.len() < POOL_CAP {
                        idle.push(client);
                    }
                    return Ok(json);
                }
                shard.state.alive.store(false, Ordering::Relaxed);
                Err(unavailable(format!("shard {}: {e}", shard.state.addr)))
            }
        }
    }

    /// Forwards a session-scoped request to its owner.
    fn forward_owned(
        &self,
        registry: &Registry,
        session: &str,
        request: &Request,
    ) -> Result<Json, ServerError> {
        let (_, shard) = self.place(session)?;
        self.forward_to(registry, &shard, &request.to_json().to_string())
    }

    /// Handles one request at the coordinator. Called by the router for
    /// every request kind the coordinator owns (see
    /// [`intercepts`](Self::intercepts)).
    pub(crate) fn dispatch(
        &self,
        registry: &Registry,
        request: Request,
    ) -> Result<Json, ServerError> {
        match request {
            Request::Create { session, csv, dc } => {
                // Paths are resolved *here*: the file lives on the
                // coordinator's host, not the shard's.
                let forwarded = Request::Create {
                    session: session.clone(),
                    csv: Payload::Inline(csv.read()?),
                    dc: Payload::Inline(dc.read()?),
                };
                let (idx, shard) = self.place(&session)?;
                let json = self.forward_to(registry, &shard, &forwarded.to_json().to_string())?;
                if json.get("ok").and_then(Json::as_bool) == Some(true) {
                    self.directory.write().insert(session, idx);
                }
                Ok(json)
            }
            Request::Drop { session } => {
                // Forward first, un-route only on ack: an unreachable
                // owner fails the drop instead of half-forgetting a
                // session whose durable state would resurface on restart.
                let request = Request::Drop {
                    session: session.clone(),
                };
                let json = self.forward_owned(registry, &session, &request)?;
                if json.get("ok").and_then(Json::as_bool) == Some(true) {
                    self.directory.write().remove(&session);
                }
                Ok(json)
            }
            Request::Op {
                session,
                ops,
                token,
            } => {
                let token = token.unwrap_or_else(|| {
                    format!(
                        "coord-{}-{}",
                        std::process::id(),
                        self.token_counter.fetch_add(1, Ordering::Relaxed)
                    )
                });
                let request = Request::Op {
                    session: session.clone(),
                    ops,
                    token: Some(token),
                };
                self.forward_owned(registry, &session, &request)
            }
            Request::Measure { ref session, .. }
            | Request::TupleMeasures { ref session, .. }
            | Request::SetOptions { ref session, .. }
            | Request::Snapshot { ref session }
            | Request::Compact { ref session }
            | Request::FetchWal { ref session, .. }
            | Request::FetchSnapshot { ref session }
            | Request::Stats {
                session: Some(ref session),
            } => {
                let session = session.clone();
                self.forward_owned(registry, &session, &request)
            }
            Request::Sessions => {
                let mut names: Vec<String> = Vec::new();
                let line = Request::Sessions.to_json().to_string();
                for shard in self.shards.read().clone() {
                    let json = self.forward_to(registry, &shard, &line)?;
                    names.extend(json.str_list("sessions"));
                }
                names.sort();
                names.dedup();
                Ok(Json::obj([
                    ("ok", Json::Bool(true)),
                    (
                        "sessions",
                        Json::Arr(names.into_iter().map(Json::Str).collect()),
                    ),
                ]))
            }
            Request::MeasureAll { measures, detail } => {
                self.measure_all(registry, &measures, detail)
            }
            Request::Shards => {
                let dir = self.directory.read();
                let rows: Vec<Json> = self
                    .shards
                    .read()
                    .iter()
                    .enumerate()
                    .map(|(idx, shard)| {
                        let sessions = dir.values().filter(|&&i| i == idx).count();
                        Json::obj([
                            ("shard", Json::Num(idx as f64)),
                            ("addr", Json::str(shard.state.addr.to_string())),
                            (
                                "alive",
                                Json::Bool(shard.state.alive.load(Ordering::Relaxed)),
                            ),
                            ("sessions", Json::Num(sessions as f64)),
                        ])
                    })
                    .collect();
                Ok(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("role", Json::str("coordinator")),
                    ("shards", Json::Arr(rows)),
                ]))
            }
            Request::Join { addr } => {
                let addr: SocketAddr = addr
                    .parse()
                    .map_err(|e| ServerError::Protocol(format!("join: bad addr `{addr}`: {e}")))?;
                let idx = {
                    let mut shards = self.shards.write();
                    match shards.iter().position(|s| s.state.addr == addr) {
                        Some(idx) => {
                            // A rejoin after restart: the shard is back.
                            shards[idx].state.alive.store(true, Ordering::Relaxed);
                            idx
                        }
                        None => {
                            shards.push(Arc::new(Shard::new(addr)));
                            shards.len() - 1
                        }
                    }
                };
                // Adopt whatever sessions the joining worker recovered.
                let shard = Arc::clone(&self.shards.read()[idx]);
                let _ = self.adopt(registry, idx, &shard);
                Ok(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("shard", Json::Num(idx as f64)),
                    ("shards", Json::Num(self.shards.read().len() as f64)),
                ]))
            }
            other => Err(ServerError::Protocol(format!(
                "request `{}` is not coordinator-routable",
                other.kind()
            ))),
        }
    }

    /// Scatter `measure_all` (with per-session detail) to every shard,
    /// merge, and re-fold globally — see the module docs for why the
    /// result is bit-identical to a single process.
    fn measure_all(
        &self,
        registry: &Registry,
        measures: &[Measure],
        detail: bool,
    ) -> Result<Json, ServerError> {
        let started = Instant::now();
        let line = Request::MeasureAll {
            measures: measures.to_vec(),
            detail: true,
        }
        .to_json()
        .to_string();
        let shards: Vec<Arc<Shard>> = self.shards.read().clone();
        let mut rows: Vec<(String, Json)> = Vec::new();
        for shard in &shards {
            // A dead shard fails the gather: silently skipping its
            // sessions would return a *wrong* aggregate, not a stale one.
            let json = self.forward_to(registry, shard, &line)?;
            if json.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(ServerError::Measure(format!(
                    "shard {}: {}",
                    shard.state.addr,
                    json.get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("measure_all failed")
                )));
            }
            if let Some(Json::Obj(entries)) = json.get("detail") {
                rows.extend(entries.iter().cloned());
            }
        }
        let response = fold_response(measures, rows, Some(shards.len()), detail);
        registry
            .obs()
            .histogram("coord_scatter_gather_us")
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        Ok(response)
    }

    /// Whether the coordinator owns this request kind (the router hands
    /// these to [`dispatch`](Self::dispatch) instead of the local
    /// registry). `ping`/`hello`/`metrics`/server-wide `stats` and the
    /// lifecycle verbs stay local.
    pub(crate) fn intercepts(request: &Request) -> bool {
        !matches!(
            request,
            Request::Ping
                | Request::Hello { .. }
                | Request::Metrics { .. }
                | Request::Stats { session: None }
                | Request::Shutdown
                | Request::Quit
        )
    }
}

/// Recovers the shard's own `overloaded` response from the error message
/// `request_with_retry` wraps it in after exhausting retries.
fn embedded_overloaded(e: &std::io::Error) -> Option<Json> {
    let message = e.to_string();
    let rest = message.strip_prefix("overloaded (retry_after_ms ")?;
    let (_, response) = rest.split_once("): ")?;
    let json = Json::parse(response).ok()?;
    (json.get("kind").and_then(Json::as_str) == Some("overloaded")).then_some(json)
}
