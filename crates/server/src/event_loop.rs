//! The readiness-driven front end: thousands of connections per thread.
//!
//! Each event thread owns a [`mio`]-style selector, a set of nonblocking
//! connections, and a completion channel back from the worker pool. The
//! contract that keeps tail latency flat is simple: **an event thread
//! never blocks** — not on a socket (everything is nonblocking), not on a
//! session lock (it takes a session's index lock only with `try_read`,
//! and under it runs only the read ladder's shared rung; every request
//! that may wait for a lock runs on the pool), not on a sleep (the poll
//! timeout is the only wait, and any thread can cut it short through its
//! [`Waker`]).
//!
//! ## Connection lifecycle
//!
//! Thread 0 owns the listener. Accepted sockets are handed round-robin
//! across the event threads over a channel + waker pair; each thread
//! registers its connections with its own selector under a thread-local
//! token. Bytes read are pushed through a [`LineFramer`], so a request
//! split across arbitrary TCP segments (or a torn UTF-8 sequence) frames
//! identically to one delivered whole.
//!
//! ## Pipelining, in order
//!
//! A client may write any number of requests without waiting for
//! responses. Framed lines queue per connection and execute **serially**:
//! at most one request per connection is in flight (on the pool, or with
//! a worker shard), and the next dispatches only when its response is
//! handed back. That one invariant yields both response ordering and
//! write ordering (ops apply in the order sent) without a reorder buffer
//! — the pipelining win is eliminating network round trips, not
//! intra-connection parallelism.
//!
//! ## Coordinator forwards
//!
//! On a coordinator a parsed single-session request is forwarded by this
//! thread ([`InlineForwards`]): its line goes to the owning worker over a
//! nonblocking worker connection registered in this thread's selector
//! (tokens from [`UPSTREAM_TOKEN_BASE`] up), and the worker's reply line
//! is appended to the client's out-buffer when that connection turns
//! readable. The thread never opens such a connection: a pool job that
//! forwarded for it hands one back with its [`Completion`]. What cannot be
//! sent at once, or fails upstream, goes to the pool (see the coordinator
//! module docs); `create`, `drop`, `sessions`, `measure_all`, `join`,
//! `shards` and long lines always do. A server that is not a coordinator
//! has no worker connections and does nothing of this.
//!
//! ## Admission and backpressure
//!
//! * Short lines (≤ [`INLINE_PARSE_MAX`]) parse on the event thread.
//!   Lock-free control requests (`ping`, `sessions`, `quit`, `shutdown`)
//!   execute inline, so the server stays observable and stoppable no
//!   matter how deep the worker queue is. `stats` and `drop` go to the
//!   pool (they can block on a session lock) but are never shed.
//! * Work-carrying requests are shed with `kind:"overloaded"` when the
//!   pool backlog reaches `queue_limit` — the request sheds, the
//!   connection survives.
//! * A `measure` or `tuple_measures` that passes the shed check is first
//!   tried inline ([`respond_cached`]): when its session's caches are
//!   warm, the lock is free and an admission slot is too, the shared rung
//!   answers it here and the pool round trip is skipped. Otherwise —
//!   `I_MC`, a large `k`, a held lock, a cold cache, or
//!   [`INLINE_READS_PER_PUMP`] reads of the same queue already answered
//!   here — it goes to the pool as any other work, and the attempt
//!   counted nothing. A coordinator forwards it instead (above).
//! * A connection stops being read once `max_pipeline` requests queue or
//!   its write buffer backs up past `write_buffer_bytes`; TCP then
//!   pushes the backpressure to the sender.
//! * A peer that stops reading trips `write_timeout_ms` and is dropped
//!   (`slow_client_drops`), without stalling any other connection.

use crate::coordinator::{InlineForwards, Landed, UPSTREAM_TOKEN_BASE};
use crate::pool::WorkerPool;
use crate::router::{classify, respond, respond_cached, Class, Control, Work};
use crate::wire::LineFramer;
use crate::{protocol::parse_request, ServerError, Shared};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's token on event thread 0.
pub(crate) const LISTENER_TOKEN: Token = Token(usize::MAX);
/// Every thread's waker token.
pub(crate) const WAKER_TOKEN: Token = Token(usize::MAX - 1);

/// Lines at most this long are parsed on the event thread, which is what
/// lets control requests classify (and run) inline. Longer lines ship to
/// the pool unparsed.
const INLINE_PARSE_MAX: usize = 512;

/// Per-connection bytes read per readiness wakeup; bounds how long one
/// firehose peer can monopolize the event thread (level-triggered
/// readiness re-reports whatever is left).
pub(crate) const READ_BUDGET: usize = 256 * 1024;

/// Warm reads one [`EventThread::pump`] call answers inline before it
/// sends the rest of the connection's queue to the pool as usual: a deep
/// pipeline of reads (each renders its JSON here) then holds the event
/// thread's other connections back by two reads per turn, not by the
/// whole pipeline.
const INLINE_READS_PER_PUMP: usize = 2;

/// A finished pool request on its way back to the event thread.
pub(crate) struct Completion {
    token: usize,
    response: String,
    control: Control,
    /// A coordinator's worker connection handed over with the response:
    /// its shard index and socket (see [`InlineForwards::adopt`]).
    upstream: Option<(usize, TcpStream)>,
}

/// A sibling event thread, as seen by the accept path: where to send an
/// adopted socket and how to wake it.
pub(crate) struct Peer {
    /// Hand-off channel into the sibling's loop.
    pub tx: Sender<TcpStream>,
    /// Wakes the sibling to drain the hand-off channel.
    pub waker: Arc<Waker>,
}

/// One nonblocking connection owned by an event thread.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    /// Response bytes not yet written; `out_pos` marks the flush frontier.
    out: Vec<u8>,
    out_pos: usize,
    /// Framed request lines waiting their (serial) turn.
    pending: VecDeque<String>,
    /// One request from this connection is executing on the pool.
    inflight: bool,
    /// The interest currently registered with the selector.
    interest: Interest,
    /// Peer sent FIN: no more requests, but responses still flush
    /// (half-close support).
    peer_eof: bool,
    /// Close once the out-buffer drains (`quit`, `shutdown`, drain mode).
    closing: bool,
    /// When the first unwritable byte was observed; cleared on progress.
    write_blocked_since: Option<Instant>,
    /// Unrecoverable (I/O error, oversized line): remove without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_line: usize) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_line),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            inflight: false,
            interest: Interest::READABLE,
            peer_eof: false,
            closing: false,
            write_blocked_since: None,
            dead: false,
        }
    }

    fn out_drained(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

/// One event thread: selector, connections, and the channels that feed it.
pub(crate) struct EventThread {
    pub shared: Arc<Shared>,
    pub pool: Arc<WorkerPool>,
    pub poll: Poll,
    pub waker: Arc<Waker>,
    pub completions_tx: Sender<Completion>,
    pub completions_rx: Receiver<Completion>,
    pub handoff_rx: Receiver<TcpStream>,
    /// Thread 0 only: the listening socket.
    pub listener: Option<TcpListener>,
    /// Thread 0 only: every event thread's hand-off endpoint (self
    /// included; the accept path adopts directly instead of sending).
    pub peers: Vec<Peer>,
    pub index: usize,
    /// A coordinator's inline forwards; `None` on any other server.
    pub forwards: Option<InlineForwards>,
}

/// Builds the channel pair an [`EventThread`] drains completions from.
pub(crate) fn completion_channel() -> (Sender<Completion>, Receiver<Completion>) {
    std::sync::mpsc::channel()
}

impl EventThread {
    /// Runs the loop until shutdown; consumes the thread.
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(256);
        let mut conns: HashMap<usize, Conn> = HashMap::new();
        let mut next_token = 0usize;
        let mut rr = self.index; // stagger round-robin start per thread
        let mut draining = false;
        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            if stopping && !draining {
                draining = true;
                self.begin_drain(&mut conns);
            }
            if draining && conns.is_empty() {
                break;
            }
            let timeout = self.poll_timeout(&conns, draining);
            if let Err(e) = self.poll.poll(&mut events, Some(timeout)) {
                eprintln!("event thread {}: poll failed: {e}", self.index);
                break;
            }
            let ready: Vec<(Token, bool)> = events
                .iter()
                .map(|ev| (ev.token(), ev.is_readable()))
                .collect();
            for (token, readable) in ready {
                match token {
                    WAKER_TOKEN => self.waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(&mut conns, &mut next_token, &mut rr),
                    Token(t) if t >= UPSTREAM_TOKEN_BASE => self.upstream_ready(&mut conns, t),
                    Token(t) => {
                        if readable {
                            self.conn_readable(&mut conns, t);
                        }
                        self.after(&mut conns, t);
                    }
                }
            }
            self.drain_handoffs(&mut conns, &mut next_token);
            self.drain_completions(&mut conns);
            self.sweep_write_timeouts(&mut conns);
        }
        // The listener (thread 0) drops here, releasing the port.
    }

    /// Poll timeout: the read-poll tick normally; tighter while a write is
    /// blocked (so the write-timeout sweep runs promptly) or draining.
    fn poll_timeout(&self, conns: &HashMap<usize, Conn>, draining: bool) -> Duration {
        let base = self.shared.read_poll;
        if draining || conns.values().any(|c| c.write_blocked_since.is_some()) {
            base.min(Duration::from_millis(20))
        } else {
            base
        }
    }

    /// Drain mode: drop idle connections, forget queued-but-unstarted
    /// requests (their bytes were never acknowledged), keep connections
    /// with an in-flight request or unflushed responses until they finish.
    fn begin_drain(&mut self, conns: &mut HashMap<usize, Conn>) {
        let tokens: Vec<usize> = conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = conns.get_mut(&token) {
                conn.pending.clear();
                conn.closing = true;
            }
            self.after(conns, token);
        }
    }

    fn accept_ready(
        &mut self,
        conns: &mut HashMap<usize, Conn>,
        next_token: &mut usize,
        rr: &mut usize,
    ) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.shared.counters.connections.inc();
                    if self.shared.stop.load(Ordering::SeqCst) {
                        continue; // drain mode: accept-and-close
                    }
                    let target = *rr % self.peers.len().max(1);
                    *rr = rr.wrapping_add(1);
                    if target == self.index || self.peers.is_empty() {
                        self.adopt(conns, next_token, stream);
                    } else {
                        let peer = &self.peers[target];
                        if peer.tx.send(stream).is_ok() {
                            peer.waker.wake();
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED, EMFILE): skip
                // this readiness round rather than spin.
                Err(_) => return,
            }
        }
    }

    /// Registers a freshly accepted (or handed-off) socket with this
    /// thread's selector.
    fn adopt(
        &mut self,
        conns: &mut HashMap<usize, Conn>,
        next_token: &mut usize,
        stream: TcpStream,
    ) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let token = *next_token;
        *next_token += 1;
        if self
            .poll
            .register(&stream, Token(token), Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.shared.counters.open_connections.inc();
        conns.insert(token, Conn::new(stream, crate::MAX_REQUEST_BYTES));
    }

    fn drain_handoffs(&mut self, conns: &mut HashMap<usize, Conn>, next_token: &mut usize) {
        while let Ok(stream) = self.handoff_rx.try_recv() {
            if self.shared.stop.load(Ordering::SeqCst) {
                continue; // close immediately during drain
            }
            self.adopt(conns, next_token, stream);
        }
    }

    /// Reads whatever the socket has (bounded per wakeup), frames complete
    /// lines into the pending queue.
    fn conn_readable(&mut self, conns: &mut HashMap<usize, Conn>, token: usize) {
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        let max_pipeline = self.shared.max_pipeline;
        let mut buf = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        while budget > 0 && !conn.peer_eof && !conn.dead && conn.pending.len() < max_pipeline {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => conn.peer_eof = true,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    conn.framer.push(&buf[..n]);
                    loop {
                        match conn.framer.next_line() {
                            Ok(Some(line)) => {
                                let line = line.trim();
                                if !line.is_empty() {
                                    self.shared.counters.frames.inc();
                                    conn.pending.push_back(line.to_string());
                                }
                            }
                            Ok(None) => break,
                            // Oversized request line: cut the connection
                            // rather than buffer without bound.
                            Err(_) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => conn.dead = true,
            }
        }
    }

    /// The per-connection state pump: dispatch what can run, flush what
    /// can write, then either remove the connection or re-arm its
    /// interest. Called after every event touching the connection.
    fn after(&mut self, conns: &mut HashMap<usize, Conn>, token: usize) {
        // Take the connection out of the map so `self` (pool, shared,
        // waker) stays borrowable while we mutate it.
        let Some(mut conn) = conns.remove(&token) else {
            return;
        };
        let stopping = self.shared.stop.load(Ordering::SeqCst);
        if !stopping {
            self.pump(&mut conn, token);
        }
        self.try_flush(&mut conn);
        let finished_out = conn.out_drained();
        let idle = !conn.inflight && conn.pending.is_empty();
        let remove = conn.dead
            || (conn.closing && finished_out && !conn.inflight)
            || (conn.peer_eof && finished_out && idle)
            || (stopping && finished_out && !conn.inflight);
        if remove {
            self.close(conn);
            return;
        }
        let mut desired = Interest::NONE;
        let backlog = conn.out.len() - conn.out_pos;
        if !conn.peer_eof
            && !conn.closing
            && conn.pending.len() < self.shared.max_pipeline
            && backlog <= self.shared.write_buffer_bytes
        {
            desired = desired | Interest::READABLE;
        }
        if !conn.out_drained() {
            desired = desired | Interest::WRITABLE;
        }
        if desired != conn.interest {
            if self
                .poll
                .reregister(&conn.stream, Token(token), desired)
                .is_err()
            {
                self.close(conn);
                return;
            }
            conn.interest = desired;
        }
        conns.insert(token, conn);
    }

    /// Serial dispatch: runs inline requests back-to-back (at most
    /// [`INLINE_READS_PER_PUMP`] warm reads), then hands at most one
    /// request per connection to the workers (or, on a coordinator, to a
    /// worker shard), shedding work when the pool backlog is at the queue
    /// limit.
    fn pump(&mut self, conn: &mut Conn, token: usize) {
        let mut inline_reads = 0;
        while !conn.inflight && !conn.closing && !conn.dead {
            let Some(line) = conn.pending.pop_front() else {
                return;
            };
            if line.len() > INLINE_PARSE_MAX {
                // Long lines carry payloads (create/op): parse on the
                // pool, and they are always sheddable work.
                if self.shed_now() {
                    self.shed(conn);
                    continue;
                }
                self.to_pool(conn, token, Work::Raw(line), None);
                return;
            }
            let request = match parse_request(&line) {
                Ok(request) => request,
                // Parse errors answer inline: no session is touched.
                Err(_) => {
                    let (response, control) = self.respond_here(Work::Raw(line));
                    self.finish_inline(conn, response, control);
                    continue;
                }
            };
            match classify(&request, self.shared.coordinator.is_some()) {
                Class::Inline => {
                    let (response, control) = self.respond_here(Work::Parsed(request));
                    self.finish_inline(conn, response, control);
                    continue;
                }
                Class::NeverShed => {}
                Class::Work => {
                    if self.shed_now() {
                        self.shed(conn);
                        continue;
                    }
                    if inline_reads < INLINE_READS_PER_PUMP && self.forwards.is_none() {
                        if let Some(response) = respond_cached(
                            &self.shared.registry,
                            &self.shared.counters,
                            &self.shared.admission,
                            &request,
                        ) {
                            inline_reads += 1;
                            enqueue(conn, &response);
                            continue;
                        }
                    }
                }
            }
            let Some(forwards) = self.forwards.as_mut() else {
                self.to_pool(conn, token, Work::Parsed(request), None);
                return;
            };
            match forwards.send(&self.shared, &self.poll, token, &line, request) {
                Ok(()) => conn.inflight = true,
                Err((request, lend)) => self.to_pool(conn, token, Work::Parsed(request), lend),
            }
            return;
        }
    }

    /// Hands connection `token`'s request to the worker pool; the
    /// response comes back as a [`Completion`]. With `lend`, the job also
    /// brings back one of that shard's pool connections for this
    /// thread's inline forwards.
    fn to_pool(&self, conn: &mut Conn, token: usize, work: Work, lend: Option<usize>) {
        let shared = Arc::clone(&self.shared);
        let tx = self.completions_tx.clone();
        let waker = Arc::clone(&self.waker);
        conn.inflight = true;
        let dispatched = self.pool.execute(move || {
            let (response, control) = respond(
                &shared.registry,
                &shared.counters,
                &shared.admission,
                shared.coordinator.as_deref(),
                work,
            );
            let upstream =
                lend.and_then(|idx| Some((idx, shared.coordinator.as_ref()?.lend(idx)?)));
            // The event thread may have dropped the connection (or be
            // gone entirely, late in shutdown); either way the send
            // failing is fine.
            let _ = tx.send(Completion {
                token,
                response,
                control,
                upstream,
            });
            waker.wake();
        });
        if !dispatched {
            // Pool already closed (shutdown race): nothing will call
            // back, so don't wait for it.
            conn.inflight = false;
            conn.closing = true;
        }
    }

    /// A coordinator's worker connection `token` turned readable: a
    /// finished forward's reply goes out to its client, and a failed one
    /// goes to the pool.
    fn upstream_ready(&mut self, conns: &mut HashMap<usize, Conn>, token: usize) {
        let Some(forwards) = self.forwards.as_mut() else {
            return;
        };
        let Some((client, landed)) = forwards.readable(&self.shared, &self.poll, token) else {
            return;
        };
        // A client that went away meanwhile gets nothing, as on the pool.
        let Some(conn) = conns.get_mut(&client) else {
            return;
        };
        conn.inflight = false;
        match landed {
            Landed::Reply(reply) => conn.out.extend_from_slice(&reply),
            Landed::Fallback(request) => self.to_pool(conn, client, Work::Parsed(request), None),
        }
        self.after(conns, client);
    }

    /// Is the pool backlog at the queue limit?
    fn shed_now(&self) -> bool {
        let limit = self.shared.queue_limit;
        limit != 0 && self.pool.queued() >= limit
    }

    /// Sheds one request: a well-formed `overloaded` response on a
    /// connection that stays open.
    fn shed(&self, conn: &mut Conn) {
        self.shared.counters.requests.inc();
        self.shared.admission.shed.inc();
        let response = ServerError::Overloaded {
            what: "request queue is full".to_string(),
            retry_after_ms: self.shared.admission.retry_after_ms,
        }
        .to_json()
        .to_string();
        enqueue(conn, &response);
    }

    /// Runs one request on the event thread itself (only [`Class::Inline`]
    /// requests and parse errors — nothing that can block).
    fn respond_here(&self, work: Work) -> (String, Control) {
        respond(
            &self.shared.registry,
            &self.shared.counters,
            &self.shared.admission,
            self.shared.coordinator.as_deref(),
            work,
        )
    }

    fn finish_inline(&self, conn: &mut Conn, response: String, control: Control) {
        enqueue(conn, &response);
        self.apply_control(conn, control);
    }

    fn apply_control(&self, conn: &mut Conn, control: Control) {
        match control {
            Control::Continue => {}
            Control::Close => {
                conn.closing = true;
                conn.pending.clear();
            }
            Control::Shutdown => {
                conn.closing = true;
                conn.pending.clear();
                self.shared.stop.store(true, Ordering::SeqCst);
                for waker in &self.shared.wakers {
                    waker.wake();
                }
            }
        }
    }

    fn drain_completions(&mut self, conns: &mut HashMap<usize, Conn>) {
        loop {
            let Ok(completion) = self.completions_rx.try_recv() else {
                return;
            };
            let Completion {
                token,
                response,
                control,
                upstream,
            } = completion;
            if let (Some(forwards), Some((idx, stream))) = (self.forwards.as_mut(), upstream) {
                forwards.adopt(&self.poll, idx, stream);
            }
            // The connection may have been dropped (slow client, error)
            // while its request ran; the completion is then discarded.
            if let Some(conn) = conns.get_mut(&token) {
                conn.inflight = false;
                enqueue(conn, &response);
                self.apply_control(conn, control);
                self.after(conns, token);
            }
        }
    }

    /// Writes as much of the out-buffer as the socket takes.
    fn try_flush(&self, conn: &mut Conn) {
        while conn.out_pos < conn.out.len() && !conn.dead {
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => conn.dead = true,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.write_blocked_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if conn.write_blocked_since.is_none() {
                        // Count stall *episodes*, not retries: one per
                        // transition from writable to blocked.
                        self.shared.counters.write_stalls.inc();
                        conn.write_blocked_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => conn.dead = true,
            }
        }
        if conn.out_drained() {
            conn.out.clear();
            conn.out_pos = 0;
            conn.write_blocked_since = None;
        } else if conn.out_pos > 64 * 1024 {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// Removes a connection from this thread for good: deregisters it and
    /// takes it out of the open-connection count. Dropping `conn` closes
    /// the socket.
    fn close(&self, conn: Conn) {
        self.poll.deregister(&conn.stream).ok();
        self.shared.counters.open_connections.dec();
    }

    /// Drops connections whose peer has not absorbed a write within the
    /// write timeout (slow-client protection).
    fn sweep_write_timeouts(&mut self, conns: &mut HashMap<usize, Conn>) {
        let Some(timeout) = self.shared.write_timeout else {
            return;
        };
        let now = Instant::now();
        let expired: Vec<usize> = conns
            .iter()
            .filter(|(_, c)| {
                c.write_blocked_since
                    .is_some_and(|since| now.duration_since(since) >= timeout)
            })
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            if let Some(conn) = conns.remove(&token) {
                self.shared.counters.slow_client_drops.inc();
                self.close(conn);
            }
        }
    }
}

/// Appends one response line to the connection's out-buffer.
fn enqueue(conn: &mut Conn, response: &str) {
    conn.out.reserve(response.len() + 1);
    conn.out.extend_from_slice(response.as_bytes());
    conn.out.push(b'\n');
}
