//! Request dispatch: one request line in, one response line out.
//!
//! The router is connection-agnostic (it sees text lines, not sockets),
//! which makes the full protocol unit-testable without a listener and
//! lets the CLI's `client` mode reuse it for loopback smoke tests.
//!
//! ## Admission control
//!
//! Work-carrying requests (`op`, `measure`, `tuple_measures`, `create`,
//! `snapshot`, `compact`) pass through [`Admission`] before touching a
//! session: a
//! global in-flight gauge (strict CAS acquire, so the bound is never
//! exceeded) plus a per-session bound enforced by
//! [`Session::admit`](crate::session::Session::admit). A shed request
//! fails fast with `kind:"overloaded"` and a `retry_after_ms` hint —
//! cheap control requests (`ping`, `sessions`, `stats`, `shutdown`,
//! `quit`) are never shed, so the server stays observable and stoppable
//! under overload.

use crate::coordinator::Coordinator;
use crate::error::ServerError;
use crate::protocol::{parse_request, Request, PROTO_VERSION, SERVER_FEATURES};
use crate::session::{Registry, Session};
use crate::wire::Json;
use inconsist::incremental::ReadMode;
use inconsist_obs::{Counter, Gauge, Sample, Value};
use std::time::Instant;

/// What the connection loop should do after writing the response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests from this connection.
    Continue,
    /// Close this connection (client said `quit` / EOF).
    Close,
    /// Stop the whole server (a `shutdown` request was served).
    Shutdown,
}

/// Server-wide counters shared by every connection. Built from
/// `inconsist-obs` cells: `stats` and the metrics collector read the
/// same atomics, so the two endpoints agree by construction.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Requests served (including errors).
    pub requests: Counter,
    /// Connections accepted.
    pub connections: Counter,
    /// Connections currently open.
    pub open_connections: Gauge,
    /// Connections dropped because their peer read too slowly (a write
    /// timed out or failed with a full buffer).
    pub slow_client_drops: Counter,
    /// Request lines framed off sockets by the event loop.
    pub frames: Counter,
    /// Times a response write hit `WouldBlock` and parked the connection
    /// on writability (a slow or stalled client).
    pub write_stalls: Counter,
}

/// Server-wide admission state: limits plus the global in-flight gauge.
/// Limits of `0` mean unbounded (the default — admission is opt-in via
/// the serve flags).
#[derive(Debug)]
pub struct Admission {
    /// Global cap on concurrently executing work-carrying requests.
    pub max_inflight: u64,
    /// Per-session cap on concurrently executing requests.
    pub session_inflight: u64,
    /// Backoff hint attached to every shed response.
    pub retry_after_ms: u64,
    /// Work-carrying requests currently executing (high-water on the
    /// gauge).
    pub inflight: Gauge,
    /// Requests shed by the *global* bound.
    pub shed: Counter,
}

impl Default for Admission {
    fn default() -> Self {
        Admission::new(0, 0, 50)
    }
}

impl Admission {
    /// Builds admission state from the serve configuration.
    pub fn new(max_inflight: u64, session_inflight: u64, retry_after_ms: u64) -> Self {
        Admission {
            max_inflight,
            session_inflight,
            retry_after_ms,
            inflight: Gauge::new(),
            shed: Counter::new(),
        }
    }

    /// Acquires a global slot ([`Gauge::try_inc_below`] is a strict CAS,
    /// so the bound is never exceeded) or sheds with `kind:"overloaded"`.
    fn acquire(&self) -> Result<AdmissionGuard<'_>, ServerError> {
        match self.inflight.try_inc_below(self.max_inflight) {
            Ok(_) => Ok(AdmissionGuard(&self.inflight)),
            Err(_) => {
                self.shed.inc();
                Err(ServerError::Overloaded {
                    what: format!(
                        "server is at its global in-flight limit ({})",
                        self.max_inflight
                    ),
                    retry_after_ms: self.retry_after_ms,
                })
            }
        }
    }
}

/// RAII release of one global admission slot.
struct AdmissionGuard<'a>(&'a Gauge);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Emits the front-end counters as metric samples: the event loop's
/// connection/framing cells, the admission gate, and the worker-pool
/// backlog gauge. Registered as a collector on the server's metric
/// registry, so every snapshot re-reads the live atomics.
pub(crate) fn collect_server_samples(
    counters: &ServerCounters,
    admission: &Admission,
    backlog: &Gauge,
    out: &mut Vec<Sample>,
) {
    let gauge = |g: &Gauge| Value::Gauge {
        value: g.get(),
        high_water: g.high_water(),
    };
    out.push(Sample {
        name: "server_requests_handled_total".to_string(),
        value: Value::Counter(counters.requests.get()),
    });
    out.push(Sample {
        name: "server_connections_total".to_string(),
        value: Value::Counter(counters.connections.get()),
    });
    out.push(Sample {
        name: "server_open_connections".to_string(),
        value: gauge(&counters.open_connections),
    });
    out.push(Sample {
        name: "server_frames_total".to_string(),
        value: Value::Counter(counters.frames.get()),
    });
    out.push(Sample {
        name: "server_write_stalls_total".to_string(),
        value: Value::Counter(counters.write_stalls.get()),
    });
    out.push(Sample {
        name: "server_slow_client_drops_total".to_string(),
        value: Value::Counter(counters.slow_client_drops.get()),
    });
    out.push(Sample {
        name: "admission_inflight".to_string(),
        value: gauge(&admission.inflight),
    });
    out.push(Sample {
        name: "admission_shed_total".to_string(),
        value: Value::Counter(admission.shed.get()),
    });
    out.push(Sample {
        name: "pool_backlog".to_string(),
        value: gauge(backlog),
    });
}

/// A unit of routable work: either a raw request line (parse cost paid by
/// whoever runs it, usually a pool worker) or a request the event thread
/// already parsed to classify it.
#[derive(Clone, Debug)]
pub(crate) enum Work {
    /// An unparsed request line.
    Raw(String),
    /// A request parsed up front (short lines, see [`classify`]).
    Parsed(Request),
}

/// Where the event loop should run a parsed request, and whether backlog
/// shedding applies to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// Lock-free (or brief registry-map lock only): execute on the event
    /// thread itself. Keeps the server responsive and stoppable no matter
    /// how deep the worker queue is.
    Inline,
    /// Must go to the pool (may block on a session lock) but is never
    /// backlog-shed: `stats` keeps the server observable under overload
    /// and `drop` is how an operator relieves it.
    NeverShed,
    /// Ordinary work-carrying request: sheddable when the queue is full.
    Work,
}

/// Classifies a parsed request for the event loop. `stats` is *not*
/// inline: a session `stats` takes the index read lock, which can block
/// behind a writer — nothing the event thread may wait on.
pub(crate) fn classify(request: &Request, coordinator_mode: bool) -> Class {
    match request {
        // On a coordinator, `sessions` scatters over the network — pool
        // work (but never shed: it is how operators see the cluster).
        Request::Sessions if coordinator_mode => Class::NeverShed,
        Request::Ping
        | Request::Quit
        | Request::Shutdown
        | Request::Sessions
        | Request::Hello { .. } => Class::Inline,
        // `metrics` snapshots per-session index stats (try_read) and the
        // registry mutex — pool work, but never shed: like `stats`, it is
        // how an operator sees an overloaded server. `join`/`shards` are
        // how a coordinator's shard set heals, so they must land even
        // under overload — but they may touch the network, so pool work.
        Request::Stats { .. }
        | Request::Metrics { .. }
        | Request::Drop { .. }
        | Request::Join { .. }
        | Request::Shards => Class::NeverShed,
        _ => Class::Work,
    }
}

/// Routes one unit of work to a response line (no trailing newline) plus
/// a connection-control verdict.
pub(crate) fn respond(
    registry: &Registry,
    counters: &ServerCounters,
    admission: &Admission,
    coordinator: Option<&Coordinator>,
    work: Work,
) -> (String, Control) {
    counters.requests.inc();
    let parsed = match work {
        Work::Parsed(request) => Ok(request),
        Work::Raw(line) => parse_request(&line),
    };
    let (response, control) = match parsed {
        Err(e) => (e.to_json(), Control::Continue),
        Ok(request) => {
            let control = match request {
                Request::Shutdown => Control::Shutdown,
                Request::Quit => Control::Close,
                _ => Control::Continue,
            };
            let kind = request.kind();
            let session = request.session_name().unwrap_or("").to_string();
            inconsist_obs::trace_begin();
            let started = Instant::now();
            let result = dispatch(registry, counters, admission, coordinator, request);
            let latency_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let stages = inconsist_obs::trace_take();
            registry.observe_request(
                kind,
                &session,
                response_seq(&result),
                latency_us,
                outcome_tag(&result),
                stages,
            );
            match result {
                Ok(json) => (json, control),
                Err(e) => (e.to_json(), control),
            }
        }
    };
    (response.to_string(), control)
}

/// The event-ring outcome tag for a handled request: `ok`, a degraded
/// tag the response carries (`deduped` / `stale` / `partial`), `shed`
/// for an admission refusal, or the error kind.
fn outcome_tag(result: &Result<Json, ServerError>) -> &'static str {
    match result {
        Ok(json) => {
            for tag in ["deduped", "stale", "partial"] {
                if json.get(tag).and_then(Json::as_bool) == Some(true) {
                    return match tag {
                        "deduped" => "deduped",
                        "stale" => "stale",
                        _ => "partial",
                    };
                }
            }
            "ok"
        }
        Err(e) => match e.kind() {
            "overloaded" => "shed",
            kind => kind,
        },
    }
}

/// Best-effort sequence number for the event ring: a top-level `seq`
/// (snapshot/compact) or the last applied op's.
fn response_seq(result: &Result<Json, ServerError>) -> u64 {
    let Ok(json) = result else { return 0 };
    if let Some(seq) = json.get("seq").and_then(Json::as_f64) {
        return seq as u64;
    }
    json.get("ops")
        .and_then(Json::as_arr)
        .and_then(<[Json]>::last)
        .and_then(|op| op.get("seq"))
        .and_then(Json::as_f64)
        .map(|s| s as u64)
        .unwrap_or(0)
}

/// Routes one request line to a response line (no trailing newline) plus
/// a connection-control verdict. Always routes against the local
/// registry (the loopback/test path); coordinator forwarding only
/// happens on the serving path.
pub fn route_line(
    registry: &Registry,
    counters: &ServerCounters,
    admission: &Admission,
    line: &str,
) -> (String, Control) {
    respond(
        registry,
        counters,
        admission,
        None,
        Work::Raw(line.to_string()),
    )
}

fn ok() -> Json {
    Json::obj([("ok", Json::Bool(true))])
}

/// Renders a metric snapshot as the `metrics` JSON response body: one
/// key per (possibly labeled) metric name. Counters are plain numbers,
/// gauges carry their high-water mark, histograms report count/sum plus
/// the log2-bucket p50/p95/p99 — the same numbers the Prometheus
/// exposition derives from the same [`Sample`] vector.
fn samples_json(samples: &[Sample]) -> Json {
    Json::Obj(
        samples
            .iter()
            .map(|s| {
                let value = match &s.value {
                    Value::Counter(v) => Json::Num(*v as f64),
                    Value::Gauge { value, high_water } => Json::obj([
                        ("value", Json::Num(*value as f64)),
                        ("high_water", Json::Num(*high_water as f64)),
                    ]),
                    Value::Histogram(h) => Json::obj([
                        ("count", Json::Num(h.count() as f64)),
                        ("sum", Json::Num(h.sum as f64)),
                        ("p50", Json::Num(h.quantile(0.50) as f64)),
                        ("p95", Json::Num(h.quantile(0.95) as f64)),
                        ("p99", Json::Num(h.quantile(0.99) as f64)),
                        (
                            "buckets",
                            Json::Arr(
                                h.nonzero()
                                    .into_iter()
                                    .map(|(le, n)| {
                                        Json::Arr(vec![Json::Num(le as f64), Json::Num(n as f64)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                };
                (s.name.clone(), value)
            })
            .collect(),
    )
}

/// Runs `f` on the named session under both admission bounds: the
/// global one, then the session's own.
fn admitted<T>(
    registry: &Registry,
    admission: &Admission,
    session: &str,
    f: impl FnOnce(&Session) -> Result<T, ServerError>,
) -> Result<T, ServerError> {
    let _global = admission.acquire()?;
    let s = registry.get(session)?;
    let _slot = s.admit(admission.session_inflight, admission.retry_after_ms)?;
    f(&s)
}

fn dispatch(
    registry: &Registry,
    counters: &ServerCounters,
    admission: &Admission,
    coordinator: Option<&Coordinator>,
    request: Request,
) -> Result<Json, ServerError> {
    if let Some(coord) = coordinator {
        if Coordinator::intercepts(&request) {
            // A forward occupies a worker thread while it blocks on the
            // shard, so work-carrying kinds pass the same admission gate
            // local execution would.
            let _global = match &request {
                Request::Create { .. }
                | Request::Op { .. }
                | Request::Measure { .. }
                | Request::TupleMeasures { .. }
                | Request::SetOptions { .. }
                | Request::Snapshot { .. }
                | Request::Compact { .. }
                | Request::MeasureAll { .. }
                | Request::FetchWal { .. }
                | Request::FetchSnapshot { .. } => Some(admission.acquire()?),
                _ => None,
            };
            return coord.dispatch(registry, request);
        }
    }
    match request {
        Request::Hello {
            proto_version,
            features,
        } => {
            let negotiated: Vec<Json> = SERVER_FEATURES
                .iter()
                .filter(|f| features.iter().any(|offered| offered == *f))
                .map(|f| Json::str(*f))
                .collect();
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                (
                    "proto_version",
                    Json::Num(proto_version.min(PROTO_VERSION) as f64),
                ),
                ("features", Json::Arr(negotiated)),
                (
                    "role",
                    Json::str(if coordinator.is_some() {
                        "coordinator"
                    } else {
                        "server"
                    }),
                ),
            ]))
        }
        Request::MeasureAll { measures, detail } => {
            let _global = admission.acquire()?;
            crate::shard::measure_all_local(registry, &measures, detail)
        }
        Request::FetchWal { session, from_seq } => {
            let records = admitted(registry, admission, &session, |s| s.wal_since(from_seq))?;
            let last_seq = records.last().map(|(seq, _)| *seq).unwrap_or(from_seq);
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("session", Json::str(session)),
                ("from_seq", Json::Num(from_seq as f64)),
                (
                    "records",
                    Json::Arr(
                        records
                            .into_iter()
                            .map(|(seq, op)| {
                                Json::obj([("seq", Json::Num(seq as f64)), ("op", Json::Str(op))])
                            })
                            .collect(),
                    ),
                ),
                ("last_seq", Json::Num(last_seq as f64)),
            ]))
        }
        Request::FetchSnapshot { session } => {
            let (seq, text) =
                admitted(registry, admission, &session, |s| Ok(s.snapshot_payload()))?;
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("session", Json::str(session)),
                ("seq", Json::Num(seq as f64)),
                ("snapshot", Json::Str(text)),
            ]))
        }
        Request::Join { .. } => Err(ServerError::Protocol(
            "join: this server is not a coordinator (start it with --coordinator)".to_string(),
        )),
        Request::Shards => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("role", Json::str("server")),
            ("shards", Json::Arr(Vec::new())),
        ])),
        Request::Ping => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
        ])),
        Request::Quit | Request::Shutdown => Ok(ok()),
        Request::Sessions => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            (
                "sessions",
                Json::Arr(registry.names().into_iter().map(Json::Str).collect()),
            ),
        ])),
        Request::Create { session, csv, dc } => {
            let _global = admission.acquire()?;
            let s = registry.create(&session, &csv, &dc, ReadMode::Component)?;
            let mut summary = s.summary();
            if let Json::Obj(entries) = &mut summary {
                entries.insert(0, ("ok".to_string(), Json::Bool(true)));
            }
            Ok(summary)
        }
        Request::Drop { session } => {
            registry.drop_session(&session)?;
            Ok(ok())
        }
        Request::Op {
            session,
            ops,
            token,
        } => admitted(registry, admission, &session, |s| {
            s.apply_ops_token(&ops, token.as_deref())
        }),
        Request::Snapshot { session } => admitted(registry, admission, &session, |s| s.snapshot()),
        Request::Compact { session } => admitted(registry, admission, &session, |s| s.compact()),
        Request::Measure {
            session,
            measures,
            per_dc,
            deadline_ms,
        } => admitted(registry, admission, &session, |s| {
            s.read_measures(&measures, per_dc, &s.options(), deadline_ms)
        }),
        Request::TupleMeasures {
            session,
            k,
            deadline_ms,
        } => admitted(registry, admission, &session, |s| {
            s.tuple_measures(k, deadline_ms)
        }),
        Request::SetOptions {
            session,
            violation_limit,
            mis_budget,
            vc_budget,
        } => admitted(registry, admission, &session, |s| {
            s.set_options(violation_limit, mis_budget, vc_budget)
        }),
        Request::Metrics { prom } => {
            let samples = registry.metrics_samples();
            if prom {
                Ok(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("format", Json::str("prometheus")),
                    ("text", Json::str(inconsist_obs::prometheus(&samples))),
                ]))
            } else {
                Ok(Json::obj([
                    ("ok", Json::Bool(true)),
                    ("metrics", samples_json(&samples)),
                ]))
            }
        }
        Request::Stats { session } => match session {
            Some(name) => {
                let mut stats = registry.get(&name)?.stats();
                if let Json::Obj(entries) = &mut stats {
                    entries.insert(0, ("ok".to_string(), Json::Bool(true)));
                }
                Ok(stats)
            }
            None => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                (
                    "server",
                    Json::obj([
                        ("requests", Json::Num(counters.requests.get() as f64)),
                        ("connections", Json::Num(counters.connections.get() as f64)),
                        (
                            "open_connections",
                            Json::Num(counters.open_connections.get() as f64),
                        ),
                        (
                            "slow_client_drops",
                            Json::Num(counters.slow_client_drops.get() as f64),
                        ),
                        ("frames", Json::Num(counters.frames.get() as f64)),
                        (
                            "write_stalls",
                            Json::Num(counters.write_stalls.get() as f64),
                        ),
                        (
                            "admission",
                            Json::obj([
                                ("max_inflight", Json::Num(admission.max_inflight as f64)),
                                (
                                    "session_inflight",
                                    Json::Num(admission.session_inflight as f64),
                                ),
                                ("inflight", Json::Num(admission.inflight.get() as f64)),
                                (
                                    "inflight_high_water",
                                    Json::Num(admission.inflight.high_water() as f64),
                                ),
                                ("shed", Json::Num(admission.shed.get() as f64)),
                            ]),
                        ),
                    ]),
                ),
                (
                    "sessions",
                    Json::Arr(registry.all().iter().map(|s| s.stats()).collect()),
                ),
            ])),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "City,Country,Pop\\nParis,FR,1\\nParis,DE,2\\nLyon,FR,3\\n";
    const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\\n";

    fn route(reg: &Registry, counters: &ServerCounters, line: &str) -> (Json, Control) {
        let admission = Admission::default();
        let (resp, control) = route_line(reg, counters, &admission, line);
        (Json::parse(&resp).expect("response is valid JSON"), control)
    }

    #[test]
    fn repeated_measure_names_answer_once() {
        let reg = Registry::new(1);
        let counters = ServerCounters::default();
        let create = format!(
            "{{\"cmd\":\"create\",\"session\":\"cities\",\"csv\":\"{CSV}\",\"dc\":\"{DC}\"}}"
        );
        route(&reg, &counters, &create);
        let measure = |names: &str| {
            let line =
                format!("{{\"cmd\":\"measure\",\"session\":\"cities\",\"measures\":[{names}]}}");
            route(&reg, &counters, &line).0.get("values").cloned()
        };
        let once = measure("\"I_MI\",\"I_P\"");
        assert_eq!(
            measure("\"I_MI\",\"I_P\",\"I_MI\",\"I_P\"")
                .unwrap()
                .to_string(),
            once.unwrap().to_string()
        );
        let measure_all = |names: &str| {
            let line =
                format!("{{\"cmd\":\"measure_all\",\"measures\":[{names}],\"detail\":true}}");
            route(&reg, &counters, &line).0
        };
        let twice = measure_all("\"I_MI\",\"I_MI\"");
        assert_eq!(twice.to_string(), measure_all("\"I_MI\"").to_string());
        assert_eq!(
            twice.get("values").map(Json::to_string).as_deref(),
            Some("{\"I_MI\":1}")
        );
    }

    #[test]
    fn full_session_flow_over_the_router() {
        let reg = Registry::new(1);
        let counters = ServerCounters::default();
        let (pong, c) = route(&reg, &counters, "{\"cmd\":\"ping\"}");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        assert_eq!(c, Control::Continue);

        let create = format!(
            "{{\"cmd\":\"create\",\"session\":\"cities\",\"csv\":\"{CSV}\",\"dc\":\"{DC}\"}}"
        );
        let (created, _) = route(&reg, &counters, &create);
        assert_eq!(
            created.get("ok").and_then(Json::as_bool),
            Some(true),
            "{created}"
        );
        assert_eq!(created.get("tuples").and_then(Json::as_f64), Some(3.0));
        assert_eq!(created.get("raw").and_then(Json::as_f64), Some(1.0));

        let (measured, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"measure\",\"session\":\"cities\",\"measures\":[\"I_MI\",\"I_R\"]}",
        );
        let values = measured.get("values").expect("values");
        assert_eq!(values.get("I_MI").and_then(Json::as_f64), Some(1.0));
        assert_eq!(values.get("I_R").and_then(Json::as_f64), Some(1.0));

        // Tuple-level drilldown: the FD pair (tuples 0, 1) ranks ahead of
        // the free tuple, and k bounds the cut.
        let (top, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"tuple_measures\",\"session\":\"cities\",\"k\":1}",
        );
        assert_eq!(top.get("ok").and_then(Json::as_bool), Some(true), "{top}");
        let tuples = top.get("tuples").and_then(Json::as_arr).unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].get("tuple").and_then(Json::as_f64), Some(0.0));
        assert_eq!(tuples[0].get("cbm").and_then(Json::as_f64), Some(1.0));
        assert_eq!(tuples[0].get("rim").and_then(Json::as_f64), Some(0.5));

        let (op, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"op\",\"session\":\"cities\",\"ops\":\"update 1 Country FR\"}",
        );
        assert_eq!(op.get("applied").and_then(Json::as_f64), Some(1.0));

        // Repaired: no inconsistent tuples left to rank.
        let (top, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"tuple_measures\",\"session\":\"cities\"}",
        );
        assert_eq!(
            top.get("tuples").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0),
            "{top}"
        );

        let (stats, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"stats\",\"session\":\"cities\"}",
        );
        assert_eq!(stats.get("ops_applied").and_then(Json::as_f64), Some(1.0));

        let (sessions, _) = route(&reg, &counters, "{\"cmd\":\"sessions\"}");
        assert_eq!(
            sessions
                .get("sessions")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );

        // Ops parse errors surface as protocol responses with line context.
        let (bad, c) = route(
            &reg,
            &counters,
            "{\"cmd\":\"op\",\"session\":\"cities\",\"ops\":\"explode 9\"}",
        );
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(bad.get("kind").and_then(Json::as_str), Some("ops"));
        assert!(bad
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("explode 9"));
        assert_eq!(c, Control::Continue);

        let (_, c) = route(&reg, &counters, "{\"cmd\":\"quit\"}");
        assert_eq!(c, Control::Close);
        let (_, c) = route(&reg, &counters, "{\"cmd\":\"shutdown\"}");
        assert_eq!(c, Control::Shutdown);

        let (global, _) = route(&reg, &counters, "{\"cmd\":\"stats\"}");
        let served = global
            .get("server")
            .and_then(|s| s.get("requests"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(served >= 9.0, "{served}");
    }

    #[test]
    fn set_options_overrides_stick_and_show_in_stats() {
        let reg = Registry::new(1);
        let counters = ServerCounters::default();
        let create = format!(
            "{{\"cmd\":\"create\",\"session\":\"cities\",\"csv\":\"{CSV}\",\"dc\":\"{DC}\"}}"
        );
        let (created, _) = route(&reg, &counters, &create);
        assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));

        // Partial update: lift the violation cap, shrink one budget.
        let (set, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"set_options\",\"session\":\"cities\",\
             \"violation_limit\":null,\"mis_budget\":1234}",
        );
        assert_eq!(set.get("ok").and_then(Json::as_bool), Some(true), "{set}");
        // Not durable, so nothing was persisted.
        assert_eq!(set.get("persisted").and_then(Json::as_bool), Some(false));
        let opts = set.get("options").expect("options");
        assert_eq!(opts.get("violation_limit"), Some(&Json::Null));
        assert_eq!(opts.get("mis_budget").and_then(Json::as_f64), Some(1234.0));
        // The untouched field kept its default.
        assert_eq!(
            opts.get("vc_budget").and_then(Json::as_f64),
            Some(inconsist::measures::MeasureOptions::default().vc_budget as f64)
        );

        // The override is visible in stats and used by measure.
        let (stats, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"stats\",\"session\":\"cities\"}",
        );
        let opts = stats.get("options").expect("options in stats");
        assert_eq!(opts.get("mis_budget").and_then(Json::as_f64), Some(1234.0));
        let (measured, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"measure\",\"session\":\"cities\",\"measures\":[\"I_MI\"]}",
        );
        assert_eq!(
            measured
                .get("values")
                .and_then(|v| v.get("I_MI"))
                .and_then(Json::as_f64),
            Some(1.0),
            "{measured}"
        );
    }

    #[test]
    fn unknown_session_and_malformed_json_are_reported() {
        let reg = Registry::new(1);
        let counters = ServerCounters::default();
        let (resp, _) = route(
            &reg,
            &counters,
            "{\"cmd\":\"measure\",\"session\":\"nope\"}",
        );
        assert_eq!(
            resp.get("kind").and_then(Json::as_str),
            Some("unknown_session")
        );
        let (resp, _) = route(&reg, &counters, "{{{{");
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("protocol"));
    }

    #[test]
    fn i_mc_past_u128_is_a_typed_measure_error() {
        let reg = Registry::new(1);
        let counters = ServerCounters::default();
        // k disjoint FD pairs: |MC| = 2^k, one past `u128::MAX` at 128.
        let i_mc = |k: usize| {
            let name = format!("pairs{k}");
            let rows: String = (0..k).map(|i| format!("{i},0\\n{i},1\\n")).collect();
            let create = format!(
                "{{\"cmd\":\"create\",\"session\":\"{name}\",\"csv\":\"A,C\\n{rows}\",\
                 \"dc\":\"fd: t.A = t'.A & t.C != t'.C\\n\"}}"
            );
            let (created, _) = route(&reg, &counters, &create);
            assert_eq!(created.get("raw").and_then(Json::as_f64), Some(k as f64));
            let measure =
                format!("{{\"cmd\":\"measure\",\"session\":\"{name}\",\"measures\":[\"I_MC\"]}}");
            route(&reg, &counters, &measure).0
        };
        let exact = i_mc(127);
        assert_eq!(
            exact
                .get("values")
                .and_then(|v| v.get("I_MC"))
                .and_then(Json::as_f64),
            Some(((1u128 << 127) - 1) as f64),
            "{exact}"
        );
        for k in [128, 200] {
            let resp = i_mc(k);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(resp.get("kind").and_then(Json::as_str), Some("measure"));
            let message = resp.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(message.contains("overflow"), "k = {k}: {resp}");
        }
    }
}
