//! # inconsist-server
//!
//! A concurrent measure-serving subsystem over the incremental index:
//! the long-lived process the ROADMAP's serving story needs. It holds a
//! registry of named databases, absorbs repairing operations through a
//! writer path that applies delta maintenance and component
//! invalidation, and answers measure reads through a shared-read path so
//! clean-component reads from many connections proceed in parallel.
//!
//! ## Protocol
//!
//! Line-delimited JSON over TCP: one request object per line, one
//! response object per line (see [`protocol`] for the command table).
//! A hand-rolled [`wire`] codec keeps the workspace inside the offline
//! dependency roster — no serde, no tokio: a readiness-driven event loop
//! (epoll via the in-tree `mio` shim, `poll(2)` fallback) multiplexes
//! thousands of nonblocking connections per thread, and a fixed
//! [`pool::WorkerPool`] runs the actual session work. Clients may
//! pipeline: any number of requests written ahead on one connection
//! execute serially and come back in order.
//!
//! ```text
//! $ printf '%s\n' '{"cmd":"ping"}' | nc 127.0.0.1 7878
//! {"ok":true,"pong":true}
//! ```
//!
//! ## Shape
//!
//! * [`wire`] — JSON parse/serialize and incremental line framing;
//! * [`protocol`] — typed requests, the command table;
//! * [`error`] — the error taxonomy every response can carry;
//! * [`session`] — the registry and the reader/writer lock discipline;
//! * [`durable`] — the write-ahead op log, snapshot store and recovery
//!   (`serve --data-dir`);
//! * [`router`] — request dispatch (connection-agnostic);
//! * `event_loop` — the nonblocking front end (sockets, framing,
//!   pipelining, backpressure);
//! * [`pool`] — the worker threads requests run on;
//! * [`serve`] / [`ServerHandle`] — wiring and lifecycle.

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod durable;
pub mod error;
mod event_loop;
pub mod pool;
pub mod protocol;
pub mod router;
pub mod session;
pub mod shard;
pub mod wire;

pub use client::{
    ClientBuilder, ClientError, HelloInfo, Measures, OpsApplied, SessionHandle, TupleScore,
    TypedClient,
};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use durable::{DurabilityConfig, FsyncPolicy};
pub use error::ServerError;
pub use protocol::{PROTO_VERSION, SERVER_FEATURES};
pub use router::{Admission, Control, ServerCounters};
pub use session::{Registry, Session};
pub use shard::Follower;
pub use wire::Json;

use event_loop::{completion_channel, EventThread, Peer};
use inconsist::measures::MeasureOptions;
use mio::{Poll, Waker};
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Worker threads executing requests. Connections are multiplexed on
    /// the event threads and no longer tie up a worker each; this bounds
    /// concurrently *executing* requests, not concurrent connections.
    pub workers: usize,
    /// Event (readiness-polling) threads multiplexing the connections.
    /// One thread comfortably serves thousands of mostly idle
    /// connections; more spread the read/write/framing CPU.
    pub event_threads: usize,
    /// Max requests a single connection may have queued server-side
    /// (pipelining depth). Past it the server stops reading that
    /// connection until responses drain, pushing backpressure into TCP.
    pub max_pipeline: usize,
    /// Per-connection response backlog (bytes) above which the server
    /// stops reading more requests from that connection.
    pub write_buffer_bytes: usize,
    /// Thread budget for dirty-component solves inside each session.
    pub solve_threads: usize,
    /// Measure budgets/caps applied to every read.
    pub options: MeasureOptions,
    /// Durability: when set, sessions persist under this configuration's
    /// data dir (write-ahead op log + snapshots), existing session
    /// directories are recovered before the listener accepts, and a clean
    /// shutdown snapshots every session.
    pub durability: Option<DurabilityConfig>,
    /// Global cap on concurrently executing work-carrying requests
    /// (`op`/`measure`/`create`/`snapshot`/`compact`); 0 = unbounded.
    /// Excess requests are shed with `kind:"overloaded"`.
    pub max_inflight: u64,
    /// Per-session cap on concurrently executing requests; 0 = unbounded.
    pub session_inflight: u64,
    /// Cap on work-carrying requests queued for a free worker; 0 =
    /// unbounded. A request arriving past the cap receives a
    /// `kind:"overloaded"` response (the connection stays open) instead
    /// of queueing without limit.
    pub queue_limit: u64,
    /// Backoff hint (milliseconds) attached to every shed response.
    pub retry_after_ms: u64,
    /// The event loop's poll tick (milliseconds); bounds how stale the
    /// stop flag and write-timeout sweeps can get when nothing is ready.
    pub read_poll_ms: u64,
    /// Write-stall timeout (milliseconds); 0 = none. A connection whose
    /// peer absorbs no response bytes for this long is dropped
    /// (slow-client protection: a stalled reader cannot pin buffers
    /// forever, and never stalls other connections).
    pub write_timeout_ms: u64,
    /// When set, a plaintext Prometheus exposition listener binds here:
    /// each accepted connection receives one full scrape of the metric
    /// registry and is closed. Kept off the request port so scraping
    /// works even when the protocol path is saturated.
    pub metrics_addr: Option<String>,
    /// Requests slower than this (milliseconds) log a structured line to
    /// stderr with their per-stage span breakdown; 0 disables the log.
    pub slow_request_ms: u64,
    /// When set, this process runs as a **coordinator**: session-scoped
    /// requests are forwarded to the worker shards listed here instead
    /// of a local registry (see [`coordinator`]). The front end, the
    /// admission gate and the metrics surface are unchanged.
    pub coordinator: Option<CoordinatorConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 8,
            event_threads: 1,
            max_pipeline: 128,
            write_buffer_bytes: 256 * 1024,
            solve_threads: 1,
            options: MeasureOptions::default(),
            durability: None,
            max_inflight: 0,
            session_inflight: 0,
            queue_limit: 0,
            retry_after_ms: 50,
            read_poll_ms: 250,
            write_timeout_ms: 5000,
            metrics_addr: None,
            slow_request_ms: 0,
            coordinator: None,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) registry: Registry,
    pub(crate) counters: Arc<ServerCounters>,
    pub(crate) admission: Arc<Admission>,
    pub(crate) stop: AtomicBool,
    addr: SocketAddr,
    pub(crate) read_poll: Duration,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) queue_limit: u64,
    pub(crate) max_pipeline: usize,
    pub(crate) write_buffer_bytes: usize,
    /// Set when this process routes as a coordinator (see [`coordinator`]).
    pub(crate) coordinator: Option<Arc<Coordinator>>,
    /// Every event thread's waker: any thread can interrupt any poll
    /// (stop, completion hand-back, connection hand-off).
    pub(crate) wakers: Vec<Arc<Waker>>,
}

/// A handle to a running server: its bound address and a way to stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    metrics_addr: Option<SocketAddr>,
    front: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The address the Prometheus exposition listener bound, when
    /// `metrics_addr` was configured (resolves port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The session registry (for in-process inspection in tests/benches).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Blocks until the server stops — either a client sent `shutdown` or
    /// [`stop`](Self::stop) was called — then drains the worker pool.
    /// Requests in flight when the stop flag rises are allowed to finish
    /// and their responses flush; idle connections drop immediately (the
    /// wakers cut every poll short), so shutdown cannot hang behind them.
    pub fn wait(&self) {
        let handle = self.front.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Stops the server from the owning process: raises the stop flag,
    /// wakes every event thread, then waits like [`wait`](Self::wait).
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for waker in &self.shared.wakers {
            waker.wake();
        }
        self.wait();
    }

    /// Requests served so far (including error responses).
    pub fn requests_served(&self) -> u64 {
        self.shared.counters.requests.get()
    }
}

/// Binds the listener and spawns the event threads plus the worker pool.
///
/// Returns immediately; use [`ServerHandle::wait`] to block until a
/// `shutdown` request arrives.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let registry = Registry::with_config(
        config.solve_threads,
        config.options,
        config.durability.clone(),
    );
    // Recover persisted sessions before the listener exists, so the first
    // request ever accepted already sees them. An unrecoverable session
    // directory fails startup — a durability layer must not silently
    // skip data.
    if let Some(durability) = &config.durability {
        std::fs::create_dir_all(&durability.data_dir)?;
        let recovered = registry
            .recover_all()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        for name in &recovered {
            eprintln!("recovered session `{name}`");
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Selectors and wakers exist before `Shared` so the waker roster can
    // live inside it (any thread wakes any event thread).
    let event_threads = config.event_threads.max(1);
    let mut polls = Vec::with_capacity(event_threads);
    let mut wakers = Vec::with_capacity(event_threads);
    for _ in 0..event_threads {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(&poll, event_loop::WAKER_TOKEN)?);
        polls.push(poll);
        wakers.push(waker);
    }
    polls[0].register(
        &listener,
        event_loop::LISTENER_TOKEN,
        mio::Interest::READABLE,
    )?;

    let counters = Arc::new(ServerCounters::default());
    let admission = Arc::new(Admission::new(
        config.max_inflight,
        config.session_inflight,
        config.retry_after_ms,
    ));
    let coordinator = config
        .coordinator
        .map(|cfg| Arc::new(Coordinator::new(cfg)));
    let shared = Arc::new(Shared {
        registry,
        counters: Arc::clone(&counters),
        admission: Arc::clone(&admission),
        stop: AtomicBool::new(false),
        addr,
        read_poll: Duration::from_millis(config.read_poll_ms.max(1)),
        write_timeout: (config.write_timeout_ms > 0)
            .then(|| Duration::from_millis(config.write_timeout_ms)),
        queue_limit: config.queue_limit,
        max_pipeline: config.max_pipeline.max(1),
        write_buffer_bytes: config.write_buffer_bytes.max(4096),
        coordinator,
        wakers,
    });
    let pool = Arc::new(pool::WorkerPool::new("inconsist-worker", config.workers));
    shared.registry.set_slow_request_ms(config.slow_request_ms);
    // A coordinator re-learns the session → shard directory from the
    // workers before the listener serves its first request, so recovered
    // sessions route correctly from request one. Unreachable shards are
    // tolerated (marked dead; they redirect on return).
    if let Some(coordinator) = &shared.coordinator {
        coordinator.bootstrap(&shared.registry);
    }
    // Front-end metrics are views over the very cells the event loop and
    // admission gate mutate: the collector re-reads them at snapshot
    // time, so `stats` and `metrics` cannot disagree. Captured by Arc
    // (not through `Shared`) so the registry->collector edge does not
    // cycle back into the shared state.
    {
        let counters = Arc::clone(&counters);
        let admission = Arc::clone(&admission);
        let backlog = pool.backlog_gauge();
        shared.registry.obs().register_collector(move |out| {
            router::collect_server_samples(&counters, &admission, &backlog, out);
        });
    }
    let metrics_addr = match &config.metrics_addr {
        Some(addr) => Some(spawn_metrics_listener(addr, Arc::clone(&shared))?),
        None => None,
    };

    // Connection hand-off channels: thread 0 accepts and deals sockets
    // round-robin to every event thread (itself included).
    let mut handoff_txs = Vec::with_capacity(event_threads);
    let mut handoff_rxs = Vec::with_capacity(event_threads);
    for _ in 0..event_threads {
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        handoff_txs.push(tx);
        handoff_rxs.push(rx);
    }
    let mut event_handles = Vec::with_capacity(event_threads);
    let mut listener = Some(listener);
    for (index, (poll, handoff_rx)) in polls.into_iter().zip(handoff_rxs).enumerate() {
        let (completions_tx, completions_rx) = completion_channel();
        let peers = if index == 0 {
            handoff_txs
                .iter()
                .zip(&shared.wakers)
                .map(|(tx, waker)| Peer {
                    tx: tx.clone(),
                    waker: Arc::clone(waker),
                })
                .collect()
        } else {
            Vec::new()
        };
        let thread = EventThread {
            shared: Arc::clone(&shared),
            pool: Arc::clone(&pool),
            poll,
            waker: Arc::clone(&shared.wakers[index]),
            completions_tx,
            completions_rx,
            handoff_rx,
            listener: listener.take(),
            peers,
            index,
        };
        event_handles.push(
            std::thread::Builder::new()
                .name(format!("inconsist-event-{index}"))
                .spawn(move || thread.run())?,
        );
    }
    drop(handoff_txs);

    // The front thread supervises shutdown: event threads drain their
    // connections, the pool finishes queued work, then durable sessions
    // snapshot so restart recovery replays an empty log tail.
    let front_shared = Arc::clone(&shared);
    let front = std::thread::Builder::new()
        .name("inconsist-front".to_string())
        .spawn(move || {
            for handle in event_handles {
                let _ = handle.join();
            }
            match Arc::try_unwrap(pool) {
                Ok(mut pool) => pool.join(),
                Err(_) => eprintln!("worker pool still referenced at shutdown"),
            }
            // Snapshot failures are reported, not fatal — the write-ahead
            // log alone already recovers the exact same state, slower.
            if front_shared.registry.durability().is_some() {
                for session in front_shared.registry.all() {
                    match session.shutdown_snapshot() {
                        Ok(Some(seq)) => {
                            eprintln!("snapshotted `{}` at seq {seq}", session.name());
                        }
                        Ok(None) => {}
                        Err(e) => {
                            eprintln!("shutdown snapshot of `{}` failed: {e}", session.name());
                        }
                    }
                }
            }
        })?;
    Ok(ServerHandle {
        shared,
        metrics_addr,
        front: Mutex::new(Some(front)),
    })
}

/// Binds the plaintext Prometheus exposition listener: every accepted
/// connection gets one full scrape and is closed (curl-/nc-friendly; no
/// HTTP framing, by design — the exposition format itself is plain text).
/// Nonblocking accept polled against the stop flag, so the listener dies
/// with the server instead of pinning the process.
fn spawn_metrics_listener(addr: &str, shared: Arc<Shared>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    eprintln!("metrics listener on {bound}");
    std::thread::Builder::new()
        .name("inconsist-metrics".to_string())
        .spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let text = inconsist_obs::prometheus(&shared.registry.metrics_samples());
                        let _ = stream.write_all(text.as_bytes());
                        // Dropping the stream closes the scrape.
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::Interrupted =>
                    {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        })?;
    Ok(bound)
}

/// Hard cap on one request line; a connection exceeding it is dropped
/// rather than letting the framer grow its buffer without bound.
pub(crate) const MAX_REQUEST_BYTES: usize = 8 << 20;

/// A tiny blocking client: one connection, send a line, read a line.
/// Remembers its address so
/// [`request_with_retry`](Client::request_with_retry) can reconnect after
/// the server drops the connection (shed at accept, slow-client drop,
/// restart).
///
/// **Deprecated in favor of the typed client.** New code should build a
/// [`TypedClient`] via [`ClientBuilder`] and use [`SessionHandle`]'s
/// typed methods instead of hand-assembling request strings — the typed
/// path serializes through [`protocol::Request::to_json`], the single
/// wire-shape definition, and decodes error kinds for you. This
/// free-form shim stays for raw-line tooling (the CLI `client` mode,
/// protocol tests) and as the transport under the typed client.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

/// Bounded-retry policy for [`Client::request_with_retry`]: jittered
/// exponential backoff that honors the server's `retry_after_ms` hint on
/// `kind:"overloaded"` responses.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = behave like `request`).
    pub max_retries: u32,
    /// First backoff in milliseconds (doubles per retry).
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 20,
            max_backoff_ms: 2000,
        }
    }
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: &SocketAddr) -> std::io::Result<Client> {
        let mut client = Client {
            addr: *addr,
            conn: None,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true).ok();
            self.conn = Some((BufReader::new(stream.try_clone()?), stream));
        }
        Ok(())
    }

    /// Sends one request line and reads one response line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.ensure_connected()?;
        let (reader, writer) = self.conn.as_mut().expect("just connected");
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let attempt = (|| {
            writer.write_all(framed.as_bytes())?;
            writer.flush()?;
            let mut response = String::new();
            reader.read_line(&mut response)?;
            if response.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(response.trim_end().to_string())
        })();
        if attempt.is_err() {
            // The connection is in an unknown state: drop it so the next
            // request (or retry) reconnects fresh.
            self.conn = None;
        }
        attempt
    }

    /// [`request`](Client::request) with bounded, jittered retry:
    /// reconnects and retries on I/O errors, and backs off and retries on
    /// `kind:"overloaded"` responses, honoring the server's
    /// `retry_after_ms` hint. Retrying a write is only safe when the op
    /// carries an idempotency `token` (the server dedups re-applied
    /// batches); reads are always safe to retry.
    pub fn request_with_retry(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<String> {
        let mut jitter = JitterRng::new(self.addr.port() as u64 ^ std::process::id() as u64);
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                let backoff = policy
                    .base_backoff_ms
                    .saturating_mul(1 << (attempt - 1).min(16))
                    .min(policy.max_backoff_ms);
                let hinted = last_err
                    .as_ref()
                    .and_then(|e| retry_after_hint(&e.to_string()))
                    .unwrap_or(0);
                // Full jitter over [base/2, base]: spreads synchronized
                // retries without ever undercutting the server's hint.
                let base = backoff.max(hinted).max(1);
                let wait = base / 2 + jitter.below(base / 2 + 1);
                std::thread::sleep(Duration::from_millis(wait));
            }
            match self.request(line) {
                Ok(response) => {
                    if let Some(hint) = overloaded_hint(&response) {
                        last_err = Some(std::io::Error::other(format!(
                            "overloaded (retry_after_ms {hint}): {response}"
                        )));
                        continue;
                    }
                    return Ok(response);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("retries exhausted")))
    }
}

/// Extracts `retry_after_ms` from an `overloaded` response, or `None`
/// when the response is anything else.
fn overloaded_hint(response: &str) -> Option<u64> {
    let json = Json::parse(response).ok()?;
    if json.get("kind").and_then(Json::as_str) != Some("overloaded") {
        return None;
    }
    Some(
        json.get("retry_after_ms")
            .and_then(Json::as_f64)
            .map_or(0, |ms| ms as u64),
    )
}

/// Recovers the hint a prior overloaded response embedded in an error
/// message (see `request_with_retry`).
fn retry_after_hint(message: &str) -> Option<u64> {
    let rest = message.strip_prefix("overloaded (retry_after_ms ")?;
    let end = rest.find(')')?;
    rest[..end].parse().ok()
}

/// Tiny xorshift PRNG for retry jitter — no `rand` dependency, and
/// quality does not matter here, only de-synchronization.
struct JitterRng(u64);

impl JitterRng {
    fn new(seed: u64) -> Self {
        JitterRng(seed | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_ping_shutdown_round_trip() {
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr();
        let mut client = Client::connect(&addr).unwrap();
        let pong = client.request("{\"cmd\":\"ping\"}").unwrap();
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let bye = client.request("{\"cmd\":\"shutdown\"}").unwrap();
        assert!(bye.contains("\"ok\":true"), "{bye}");
        handle.wait();
        assert!(handle.requests_served() >= 2);
        // The listener is gone: a fresh server can bind the same port.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after shutdown");
    }

    #[test]
    fn stop_from_the_owner_side_despite_idle_connection() {
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        // An idle connection that never sends anything must not block
        // shutdown: its handler polls the stop flag between reads.
        let idle = TcpStream::connect(handle.addr()).unwrap();
        handle.stop();
        handle.stop(); // idempotent
        drop(idle);
    }

    #[test]
    fn oversized_request_lines_drop_the_connection() {
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Stream > MAX_REQUEST_BYTES without a newline: the server must
        // cut the connection instead of buffering without bound. Once it
        // does, our writes fail with EPIPE/ECONNRESET (possibly a few
        // chunks late, while the socket buffers drain).
        let chunk = vec![b'x'; 1 << 20];
        let mut sent = 0usize;
        let dropped = loop {
            if stream.write_all(&chunk).is_err() {
                break true;
            }
            sent += chunk.len();
            if sent > MAX_REQUEST_BYTES + (8 << 20) {
                break false;
            }
        };
        assert!(dropped, "server kept buffering past the request-size cap");
        handle.stop();
    }
}
