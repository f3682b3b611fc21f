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
//! ## Two forward paths
//!
//! A short single-session request (`measure`, `tuple_measures`, `op`,
//! `set_options`, `snapshot`, `compact`, session `stats`) is forwarded by the event thread that parsed it
//! (`InlineForwards`): the client's own line (an untokened `op`
//! re-serialised with a minted token) goes out over one of the thread's
//! nonblocking worker connections, and the worker's reply line is
//! appended to the client's out-buffer verbatim — no worker-pool hand-off
//! and no parse or re-serialisation of the reply. Each such connection
//! carries one request at a time; a thread holds at most `POOL_CAP` per
//! shard, and only connections the pool path opened and handed over.
//!
//! Everything else runs on the worker pool through `Coordinator::dispatch`
//! and a blocking [`TypedClient`] per forward: `create`, `drop`,
//! `sessions`, `measure_all`, `join`, `shards`, long lines, and every
//! request the event thread cannot send at once (a locked routing table,
//! no idle connection, no free admission slot) or that fails upstream (an
//! I/O error, EOF, or an `overloaded` reply) — re-sent with the same line
//! and token, so the pool's retry policy, dead-shard marking and
//! `unavailable` answers cover both paths.
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
//! restarts is *redirected* transparently: the pool path reconnects
//! lazily, the event threads drop the connections the dead worker closed,
//! and the restarted worker recovers the session before it listens.
//!
//! ## Exactly-once writes
//!
//! Writes flow coordinator → owning shard as op deltas over the existing
//! `op` framing. An `op` without an idempotency token gets one minted
//! here (`coord-<pid>-<n>`), and the coordinator's bounded retry re-sends
//! the *same* line — so a worker that applied a batch but lost the
//! connection before responding dedups the re-send instead of applying
//! twice.
//!
//! ## Bit-identical gathers
//!
//! `measure_all` scatters with `detail:true`, merges every shard's
//! per-session values, and re-folds them in ascending session-name order
//! seeded from 0.0 ([`crate::shard::fold_sessions`]) — the exact
//! addition sequence a single process performs, so aggregates are
//! bit-identical across topologies. Forwarded single-session responses
//! are passed through untouched (byte for byte on the event thread's
//! path).

use crate::client::{ClientBuilder, TypedClient};
use crate::error::ServerError;
use crate::event_loop::READ_BUDGET;
use crate::protocol::{Payload, Request};
use crate::router::{reply_outcome, reply_seq, OwnedSlot};
use crate::session::Registry;
use crate::shard::fold_response;
use crate::wire::Json;
use crate::{RetryPolicy, Shared, OVERLOADED_PREFIX};
use inconsist::incremental::Measure;
use inconsist_formats::durable::fnv64;
use inconsist_obs::{labeled, Counter, Gauge, Histogram};
use mio::{Interest, Poll, Token};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How many idle pooled connections each shard keeps for reuse, and how
/// many worker connections each event thread holds per shard.
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
    metrics: OnceLock<ShardMetrics>,
}

/// A shard's `coord_shard_*` series, shared by the pool and inline
/// forward paths.
#[derive(Clone, Copy)]
struct ShardMetrics {
    requests: &'static Counter,
    request_us: &'static Histogram,
    errors: &'static Counter,
    alive: &'static Gauge,
}

impl Shard {
    fn new(addr: SocketAddr) -> Shard {
        Shard {
            state: ShardState::new(addr),
            idle: Mutex::new(Vec::new()),
            metrics: OnceLock::new(),
        }
    }

    /// Records one finished forward on the shard's series (resolved on
    /// its first forward, so a series appears once first used).
    fn record(&self, registry: &Registry, started: Instant, ok: bool) {
        let m = *self.metrics.get_or_init(|| {
            let obs = registry.obs();
            let addr = self.state.addr.to_string();
            let named = |metric| labeled(metric, &[("shard", &addr)]);
            ShardMetrics {
                requests: obs.counter(&named("coord_shard_requests_total")),
                request_us: obs.histogram(&named("coord_shard_request_us")),
                errors: obs.counter(&named("coord_shard_errors_total")),
                alive: obs.gauge(&named("coord_shard_alive")),
            }
        });
        m.requests.inc();
        m.request_us.record(micros_since(started));
        if !ok {
            m.errors.inc();
        }
        m.alive.set(self.state.alive.load(Ordering::Relaxed) as u64);
    }
}

fn micros_since(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u64::MAX as u128) as u64
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
        place_in(&self.shards.read(), &self.directory.read(), session).ok_or_else(|| {
            ServerError::Unavailable {
                what: "coordinator has no shards".to_string(),
                retry_after_ms: self.retry_after_ms,
            }
        })
    }

    /// [`place`](Self::place) for the event thread: `None` when either
    /// table is locked (a `create`, `drop` or `join` is writing it) or
    /// there are no shards.
    fn try_place(&self, session: &str) -> Option<(usize, Arc<Shard>)> {
        let shards = self.shards.try_read()?;
        let directory = self.directory.try_read()?;
        place_in(&shards, &directory, session)
    }

    /// A fresh idempotency token for an `op` that came without one.
    fn mint_token(&self) -> String {
        format!(
            "coord-{}-{}",
            std::process::id(),
            self.token_counter.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Takes one of shard `idx`'s idle pool connections, for an event
    /// thread's inline forwards.
    pub(crate) fn lend(&self, idx: usize) -> Option<TcpStream> {
        let shard = Arc::clone(self.shards.read().get(idx)?);
        let client = shard.idle.lock().pop()?;
        client.into_stream()
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
        shard.record(registry, started, result.is_ok());
        result
    }

    fn forward_inner(&self, shard: &Shard, line: &str) -> Result<Json, ServerError> {
        let unavailable = |what: String| ServerError::Unavailable {
            what,
            retry_after_ms: self.retry_after_ms,
        };
        // A fresh connection opens inside `call_line_raw`, so a worker
        // that is still binding its listener gets the same backoff as a
        // stale pooled connection does.
        let pooled = shard.idle.lock().pop();
        let mut client = pooled.unwrap_or_else(|| {
            ClientBuilder::new(shard.state.addr)
                .retry(self.retry)
                .unconnected()
        });
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
                let token = token.unwrap_or_else(|| self.mint_token());
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
            .record(micros_since(started));
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

/// [`Coordinator::place`] over locked tables; `None` when there are no
/// shards.
fn place_in(
    shards: &[Arc<Shard>],
    directory: &HashMap<String, usize>,
    session: &str,
) -> Option<(usize, Arc<Shard>)> {
    if let Some(&idx) = directory.get(session) {
        if let Some(shard) = shards.get(idx) {
            return Some((idx, Arc::clone(shard)));
        }
    }
    if shards.is_empty() {
        return None;
    }
    let start = (fnv64(session.as_bytes()) % shards.len() as u64) as usize;
    let idx = (0..shards.len())
        .map(|k| (start + k) % shards.len())
        .find(|&idx| shards[idx].state.alive.load(Ordering::Relaxed))
        .unwrap_or(start);
    Some((idx, Arc::clone(&shards[idx])))
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

/// Base of the selector tokens an event thread gives its worker
/// connections: far above any client connection's token, below the
/// listener's and the waker's.
pub(crate) const UPSTREAM_TOKEN_BASE: usize = 1 << (usize::BITS - 2);

/// What came of an inline forward once its worker connection turned
/// readable.
pub(crate) enum Landed {
    /// The worker's reply line, newline included; already counted.
    Reply(Vec<u8>),
    /// The worker connection failed or the worker shed the request: run
    /// it on the pool, which retries it.
    Fallback(Request),
}

/// A request in flight on a worker connection.
struct Forward {
    client: usize,
    /// Kept for the pool fallback; an `op` carries its minted token.
    request: Request,
    shard: Arc<Shard>,
    started: Instant,
    _slot: Option<OwnedSlot>,
}

/// One event thread's nonblocking connection to a worker shard. It
/// carries at most one request at a time.
struct Upstream {
    stream: TcpStream,
    shard: usize,
    /// Reply bytes read so far.
    buf: Vec<u8>,
    forward: Option<Forward>,
}

/// An event thread's inline forwards: a session request the thread has
/// parsed goes to its owning worker over one of the thread's own
/// nonblocking connections, and the worker's reply line is copied to the
/// client untouched. The thread never connects: every connection it holds
/// was opened by the pool path and handed over with a completion
/// ([`Coordinator::lend`]). Anything it cannot send at once, or that
/// fails upstream, goes to the pool path, which keeps the retry policy,
/// dead-shard marking and `unavailable` answers.
pub(crate) struct InlineForwards {
    coordinator: Arc<Coordinator>,
    upstreams: HashMap<usize, Upstream>,
    /// Per shard index: the idle upstreams' tokens.
    idle: Vec<Vec<usize>>,
    /// Per shard index: upstreams held, idle or busy (at most
    /// [`POOL_CAP`]).
    held: Vec<usize>,
    next_token: usize,
    forwards: &'static Counter,
}

impl InlineForwards {
    pub(crate) fn new(coordinator: Arc<Coordinator>, registry: &Registry) -> InlineForwards {
        InlineForwards {
            coordinator,
            upstreams: HashMap::new(),
            idle: Vec::new(),
            held: Vec::new(),
            next_token: UPSTREAM_TOKEN_BASE,
            forwards: registry.obs().counter("coord_inline_forwards_total"),
        }
    }

    /// Sends `request` (parsed from the client's `line`) to its owning
    /// worker. On `Err` nothing was counted and the request goes to the
    /// pool, with the shard whose pool connection the pool job should
    /// hand back when this thread had no idle one.
    pub(crate) fn send(
        &mut self,
        shared: &Shared,
        poll: &Poll,
        client: usize,
        line: &str,
        mut request: Request,
    ) -> Result<(), (Request, Option<usize>)> {
        let session = match &request {
            // The pool path updates the directory on their replies.
            Request::Create { .. } | Request::Drop { .. } => None,
            other => other.session_name(),
        };
        let Some(session) = session else {
            return Err((request, None));
        };
        let Some((idx, shard)) = self.coordinator.try_place(session) else {
            return Err((request, None));
        };
        // The pool path holds a global slot for every kind but `stats`.
        let slot = match &request {
            Request::Stats { .. } => None,
            _ => match shared.admission.try_acquire_owned() {
                Some(slot) => Some(slot),
                None => return Err((request, None)),
            },
        };
        let Some(token) = self.idle.get_mut(idx).and_then(Vec::pop) else {
            let lend = (self.held.get(idx).copied().unwrap_or(0) < POOL_CAP).then_some(idx);
            return Err((request, lend));
        };
        let mut minted = None;
        if let Request::Op {
            token: op_token @ None,
            ..
        } = &mut request
        {
            *op_token = Some(self.coordinator.mint_token());
            minted = Some(request.to_json().to_string());
        }
        let line = minted.as_deref().unwrap_or(line);
        let up = self
            .upstreams
            .get_mut(&token)
            .expect("idle upstream is held");
        up.buf.extend_from_slice(line.as_bytes());
        up.buf.push(b'\n');
        // An idle connection's send buffer is empty, so a short line goes
        // whole; a failed or partial write closes it, and the worker drops
        // the unterminated fragment with the connection.
        let sent = matches!((&up.stream).write(&up.buf), Ok(n) if n == up.buf.len());
        up.buf.clear();
        if !sent {
            self.close(poll, token);
            return Err((request, None));
        }
        up.forward = Some(Forward {
            client,
            request,
            shard,
            started: Instant::now(),
            _slot: slot,
        });
        Ok(())
    }

    /// Takes over a pool connection to shard `idx` (see
    /// [`Coordinator::lend`]), unless the thread already holds
    /// [`POOL_CAP`] for it.
    pub(crate) fn adopt(&mut self, poll: &Poll, idx: usize, stream: TcpStream) {
        if idx >= self.held.len() {
            self.held.resize(idx + 1, 0);
            self.idle.resize_with(idx + 1, Vec::new);
        }
        if self.held[idx] >= POOL_CAP || stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        if poll
            .register(&stream, Token(token), Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.next_token += 1;
        self.held[idx] += 1;
        self.idle[idx].push(token);
        self.upstreams.insert(
            token,
            Upstream {
                stream,
                shard: idx,
                buf: Vec::new(),
                forward: None,
            },
        );
    }

    /// Reads what the worker connection `token` has. Returns the client
    /// connection's token and the forward's outcome once its reply line
    /// is complete or the connection failed; an idle connection that
    /// turns readable (the worker closed it) is closed.
    pub(crate) fn readable(
        &mut self,
        shared: &Shared,
        poll: &Poll,
        token: usize,
    ) -> Option<(usize, Landed)> {
        let up = self.upstreams.get_mut(&token)?;
        let mut chunk = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        let mut end = None;
        let mut broken = false;
        while end.is_none() && !broken && budget > 0 {
            match (&up.stream).read(&mut chunk) {
                Ok(0) => broken = true,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    end = chunk[..n]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|at| up.buf.len() + at);
                    up.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => broken = true,
            }
        }
        let Some(forward) = up.forward.take() else {
            if broken || !up.buf.is_empty() {
                self.close(poll, token);
            }
            return None;
        };
        let Some(end) = end else {
            if broken {
                self.close(poll, token);
                return Some((forward.client, Landed::Fallback(forward.request)));
            }
            up.forward = Some(forward);
            return None;
        };
        let mut reply = std::mem::take(&mut up.buf);
        let idx = up.shard;
        // One request, one line: bytes past it break the framing.
        if broken || reply.len() > end + 1 {
            self.close(poll, token);
        } else {
            self.idle[idx].push(token);
        }
        reply.truncate(end + 1);
        let Forward {
            client,
            request,
            shard,
            started,
            _slot,
        } = forward;
        if reply.starts_with(OVERLOADED_PREFIX.as_bytes()) {
            return Some((client, Landed::Fallback(request)));
        }
        let text = std::str::from_utf8(&reply[..end]).unwrap_or("");
        shard.state.alive.store(true, Ordering::Relaxed);
        shard.record(&shared.registry, started, true);
        shared.counters.requests.inc();
        shared.registry.observe_request(
            request.kind(),
            request.session_name().unwrap_or(""),
            || reply_seq(text),
            micros_since(started),
            reply_outcome(text),
            Vec::new(),
        );
        self.forwards.inc();
        Some((client, Landed::Reply(reply)))
    }

    /// Drops worker connection `token` for good.
    fn close(&mut self, poll: &Poll, token: usize) {
        let Some(up) = self.upstreams.remove(&token) else {
            return;
        };
        poll.deregister(&up.stream).ok();
        self.held[up.shard] -= 1;
        self.idle[up.shard].retain(|&t| t != token);
    }
}
