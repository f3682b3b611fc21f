//! The request half of the line protocol: typed commands parsed from
//! [`Json`] objects.
//!
//! Every request is one JSON object with a `"cmd"` discriminator; the
//! `Requests` table in `docs/PROTOCOL.md` lists every command with its
//! fields and response (a test below keeps that table and [`Request`] in
//! step).
//!
//! Parsing is **unknown-field-tolerant** by construction: every arm reads
//! only the keys it knows, so a newer client may attach fields an older
//! server has never heard of and the request still parses (regression-
//! tested below). `docs/PROTOCOL.md` is the normative reference for the
//! full request/response/error surface.

use crate::error::ServerError;
use crate::wire::Json;
use inconsist::incremental::Measure;

/// Measures answered when a `measure` request names none.
pub const MEASURE_DEFAULTS: &[Measure] = &[
    Measure::Id,
    Measure::Mi,
    Measure::P,
    Measure::R,
    Measure::RLin,
];

/// Measures folded when a `measure_all` request names none: the
/// [summable](Measure::summable) defaults.
pub const MEASURE_ALL_DEFAULTS: &[Measure] = &[Measure::Mi, Measure::P, Measure::R, Measure::RLin];

/// The protocol version this server speaks. Version 2 added `hello`,
/// `measure_all` and the coordinator commands (`join`/`shards`);
/// version 1 is the pre-handshake protocol, which v2 servers still
/// accept unchanged.
pub const PROTO_VERSION: u64 = 2;

/// Feature flags this server advertises in the `hello` negotiation. A
/// client offers the set it understands; the response carries the
/// intersection, so both sides know exactly what the other supports.
pub const SERVER_FEATURES: &[&str] = &["shard-aware", "prom-metrics", "deadlines"];

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Create a session from CSV + DC payloads (inline text or paths).
    Create {
        /// Session name.
        session: String,
        /// Inline CSV text or a server-side path to it.
        csv: Payload,
        /// Inline `.dc` text or a server-side path to it.
        dc: Payload,
    },
    /// Drop a session.
    Drop {
        /// Session name.
        session: String,
    },
    /// List live sessions.
    Sessions,
    /// Apply `.ops` lines through the writer path.
    Op {
        /// Session name.
        session: String,
        /// One or more `.ops` lines.
        ops: String,
        /// Idempotency token: a batch replayed with a token the session
        /// has already applied returns the recorded response instead of
        /// applying twice, which makes client-side retry safe.
        token: Option<String>,
    },
    /// Read measures through the shared/exclusive read paths.
    Measure {
        /// Session name.
        session: String,
        /// The measures to read, each named once.
        measures: Vec<Measure>,
        /// Also report the per-constraint `I_MI^dc` drilldown.
        per_dc: bool,
        /// Wall-clock budget for this read, in milliseconds. When it
        /// expires the response degrades (partial/stale) instead of
        /// blocking; see `docs/PROTOCOL.md`.
        deadline_ms: Option<u64>,
    },
    /// Read the top-k most inconsistent tuples with their per-tuple
    /// responsibility scores.
    TupleMeasures {
        /// Session name.
        session: String,
        /// How many tuples to return (ranking is total, so any `k` is
        /// deterministic).
        k: usize,
        /// Wall-clock budget, same degradation ladder as `measure`.
        deadline_ms: Option<u64>,
    },
    /// Override a session's measure options. Each field is a partial
    /// update: `None` keeps the current value.
    SetOptions {
        /// Session name.
        session: String,
        /// New violation cap: `Some(Some(n))` caps at `n`,
        /// `Some(None)` lifts the cap, `None` keeps the current cap.
        violation_limit: Option<Option<usize>>,
        /// New MIS enumeration budget.
        mis_budget: Option<u64>,
        /// New vertex-cover solver budget.
        vc_budget: Option<u64>,
    },
    /// Counters for one session (or all sessions).
    Stats {
        /// Session name; `None` reports every session plus server totals.
        session: Option<String>,
    },
    /// Full metric registry snapshot (counters, gauges, histograms).
    Metrics {
        /// Return Prometheus text exposition instead of structured JSON.
        prom: bool,
    },
    /// Write a point-in-time snapshot of a durable session.
    Snapshot {
        /// Session name.
        session: String,
    },
    /// Compact a durable session's op log against its newest snapshot.
    Compact {
        /// Session name.
        session: String,
    },
    /// Version/feature negotiation.
    Hello {
        /// The protocol version the client speaks (defaults to 1, the
        /// pre-handshake protocol, when absent).
        proto_version: u64,
        /// The feature flags the client understands.
        features: Vec<String>,
    },
    /// Aggregate summable measures over every live session (ascending
    /// session-name fold seeded from 0.0 — see `docs/PROTOCOL.md`).
    MeasureAll {
        /// The [summable](Measure::summable) measures to fold, each named
        /// once.
        measures: Vec<Measure>,
        /// Also return the per-session values the fold consumed.
        detail: bool,
    },
    /// Register a worker with a coordinator.
    Join {
        /// The worker's protocol address, `host:port`.
        addr: String,
    },
    /// Shard topology and liveness (coordinator-only).
    Shards,
    /// Stop the server.
    Shutdown,
    /// Close this connection.
    Quit,
}

impl Request {
    /// The request's command name, used to label per-kind metrics
    /// (`server_requests_total{kind=...}`, `server_request_us{kind=...}`).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Create { .. } => "create",
            Request::Drop { .. } => "drop",
            Request::Sessions => "sessions",
            Request::Op { .. } => "op",
            Request::Measure { .. } => "measure",
            Request::TupleMeasures { .. } => "tuple_measures",
            Request::SetOptions { .. } => "set_options",
            Request::Stats { .. } => "stats",
            Request::Metrics { .. } => "metrics",
            Request::Snapshot { .. } => "snapshot",
            Request::Compact { .. } => "compact",
            Request::Hello { .. } => "hello",
            Request::MeasureAll { .. } => "measure_all",
            Request::Join { .. } => "join",
            Request::Shards => "shards",
            Request::Shutdown => "shutdown",
            Request::Quit => "quit",
        }
    }

    /// The session the request targets, when it targets one.
    pub fn session_name(&self) -> Option<&str> {
        match self {
            Request::Create { session, .. }
            | Request::Drop { session }
            | Request::Op { session, .. }
            | Request::Measure { session, .. }
            | Request::TupleMeasures { session, .. }
            | Request::SetOptions { session, .. }
            | Request::Snapshot { session }
            | Request::Compact { session } => Some(session),
            Request::Stats { session } => session.as_deref(),
            Request::Ping
            | Request::Sessions
            | Request::Metrics { .. }
            | Request::Hello { .. }
            | Request::MeasureAll { .. }
            | Request::Join { .. }
            | Request::Shards
            | Request::Shutdown
            | Request::Quit => None,
        }
    }

    /// Serializes the request back to its wire object — the inverse of
    /// [`parse_request`] (`parse_request(req.to_json().to_string())`
    /// round-trips). This is what the typed client and the
    /// coordinator→worker forwarding leg put on the wire, so requests are
    /// assembled in exactly one place instead of by string concatenation.
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(&str, Json)> = vec![("cmd", Json::str(self.kind()))];
        let payload = |m: &mut Vec<(&str, Json)>, p: &Payload, inline: &'static str| match p {
            Payload::Inline(text) => m.push((inline, Json::str(text.clone()))),
            Payload::Path(path) => match inline {
                "csv" => m.push(("csv_path", Json::str(path.clone()))),
                _ => m.push(("dc_path", Json::str(path.clone()))),
            },
        };
        match self {
            Request::Ping
            | Request::Sessions
            | Request::Shards
            | Request::Shutdown
            | Request::Quit => {}
            Request::Create { session, csv, dc } => {
                m.push(("session", Json::str(session.clone())));
                payload(&mut m, csv, "csv");
                payload(&mut m, dc, "dc");
            }
            Request::Drop { session }
            | Request::Snapshot { session }
            | Request::Compact { session } => {
                m.push(("session", Json::str(session.clone())));
            }
            Request::Op {
                session,
                ops,
                token,
            } => {
                m.push(("session", Json::str(session.clone())));
                m.push(("ops", Json::str(ops.clone())));
                if let Some(token) = token {
                    m.push(("token", Json::str(token.clone())));
                }
            }
            Request::Measure {
                session,
                measures,
                per_dc,
                deadline_ms,
            } => {
                m.push(("session", Json::str(session.clone())));
                m.push(("measures", names_json(measures)));
                if *per_dc {
                    m.push(("per_dc", Json::Bool(true)));
                }
                if let Some(ms) = deadline_ms {
                    m.push(("deadline_ms", Json::Num(*ms as f64)));
                }
            }
            Request::TupleMeasures {
                session,
                k,
                deadline_ms,
            } => {
                m.push(("session", Json::str(session.clone())));
                m.push(("k", Json::Num(*k as f64)));
                if let Some(ms) = deadline_ms {
                    m.push(("deadline_ms", Json::Num(*ms as f64)));
                }
            }
            Request::SetOptions {
                session,
                violation_limit,
                mis_budget,
                vc_budget,
            } => {
                m.push(("session", Json::str(session.clone())));
                match violation_limit {
                    None => {}
                    Some(None) => m.push(("violation_limit", Json::Null)),
                    Some(Some(n)) => m.push(("violation_limit", Json::Num(*n as f64))),
                }
                if let Some(n) = mis_budget {
                    m.push(("mis_budget", Json::Num(*n as f64)));
                }
                if let Some(n) = vc_budget {
                    m.push(("vc_budget", Json::Num(*n as f64)));
                }
            }
            Request::Stats { session } => {
                if let Some(session) = session {
                    m.push(("session", Json::str(session.clone())));
                }
            }
            Request::Metrics { prom } => {
                if *prom {
                    m.push(("prom", Json::Bool(true)));
                }
            }
            Request::Hello {
                proto_version,
                features,
            } => {
                m.push(("proto_version", Json::Num(*proto_version as f64)));
                m.push((
                    "features",
                    Json::Arr(features.iter().cloned().map(Json::Str).collect()),
                ));
            }
            Request::MeasureAll { measures, detail } => {
                m.push(("measures", names_json(measures)));
                if *detail {
                    m.push(("detail", Json::Bool(true)));
                }
            }
            Request::Join { addr } => {
                m.push(("addr", Json::str(addr.clone())));
            }
        }
        Json::obj(m)
    }
}

/// An inline-or-path payload of a `create` request.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// The file content itself, inline in the request.
    Inline(String),
    /// A path the *server* process reads.
    Path(String),
}

impl Payload {
    /// Resolves the payload to text (reading the file for paths).
    pub fn read(&self) -> Result<String, ServerError> {
        match self {
            Payload::Inline(text) => Ok(text.clone()),
            Payload::Path(path) => {
                std::fs::read_to_string(path).map_err(|e| ServerError::Load(format!("{path}: {e}")))
            }
        }
    }
}

fn required_str(json: &Json, key: &str) -> Result<String, ServerError> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ServerError::Protocol(format!("missing string field `{key}`")))
}

fn payload(json: &Json, inline_key: &str, path_key: &str) -> Result<Payload, ServerError> {
    match (
        json.get(inline_key).and_then(Json::as_str),
        json.get(path_key).and_then(Json::as_str),
    ) {
        (Some(text), None) => Ok(Payload::Inline(text.to_string())),
        (None, Some(path)) => Ok(Payload::Path(path.to_string())),
        (Some(_), Some(_)) => Err(ServerError::Protocol(format!(
            "`{inline_key}` and `{path_key}` are mutually exclusive"
        ))),
        (None, None) => Err(ServerError::Protocol(format!(
            "one of `{inline_key}` or `{path_key}` is required"
        ))),
    }
}

/// The strict string-array field reader for requests: `key`'s entries,
/// or `None` when the field is absent.
fn strings<'a>(json: &'a Json, key: &str) -> Result<Option<Vec<&'a str>>, ServerError> {
    let bad = |what: &str| ServerError::Protocol(format!("`{key}` {what}"));
    let Some(list) = json.get(key) else {
        return Ok(None);
    };
    let items = list.as_arr().ok_or_else(|| bad("must be an array"))?;
    let strs = items
        .iter()
        .map(|item| item.as_str().ok_or_else(|| bad("entries must be strings")));
    strs.collect::<Result<_, _>>().map(Some)
}

/// Measure names as a wire array.
fn names_json(measures: &[Measure]) -> Json {
    Json::Arr(measures.iter().map(|m| Json::str(m.name())).collect())
}

/// Parses measure names into the roster, keeping the first occurrence of
/// each name, in order. An unknown name — `per_dc` included, which is a
/// drilldown flag, not a measure — fails with `kind:"protocol"`.
pub fn parse_measures<S: AsRef<str>>(names: &[S]) -> Result<Vec<Measure>, ServerError> {
    let mut measures = Vec::with_capacity(names.len());
    for name in names {
        let name = name.as_ref();
        let m = Measure::parse(name).ok_or_else(|| {
            ServerError::Protocol(format!(
                "unknown measure `{name}` (known: {})",
                Measure::ALL.map(Measure::name).join(", ")
            ))
        })?;
        if !measures.contains(&m) {
            measures.push(m);
        }
    }
    Ok(measures)
}

/// The `measures` field ([`parse_measures`]), or `defaults` when absent.
fn measures_field(json: &Json, defaults: &[Measure]) -> Result<Vec<Measure>, ServerError> {
    strings(json, "measures")?.map_or(Ok(defaults.to_vec()), |names| parse_measures(&names))
}

fn opt_deadline(json: &Json) -> Result<Option<u64>, ServerError> {
    match json.get("deadline_ms") {
        None => Ok(None),
        Some(v) => {
            let ms = v.as_f64().filter(|ms| *ms >= 0.0).ok_or_else(|| {
                ServerError::Protocol("`deadline_ms` must be a non-negative number".into())
            })?;
            Ok(Some(ms as u64))
        }
    }
}

/// Caps the echoed request line in error messages; a multi-megabyte
/// `create` payload should not come back verbatim.
fn echo(line: &str) -> String {
    const CAP: usize = 160;
    if line.len() <= CAP {
        line.to_string()
    } else {
        let mut cut = CAP;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &line[..cut])
    }
}

/// Parses one request line (already split off the stream) into a
/// [`Request`]. JSON-level failures echo the offending line in the same
/// ``request `line`: msg`` shape the `.ops` and op-log parsers use, so a
/// client sees *which* line was rejected, not just a byte offset.
pub fn parse_request(line: &str) -> Result<Request, ServerError> {
    let json = Json::parse(line)
        .map_err(|e| ServerError::Protocol(format!("request `{}`: {e}", echo(line))))?;
    let cmd = required_str(&json, "cmd")?;
    match cmd.as_str() {
        "ping" => Ok(Request::Ping),
        "sessions" => Ok(Request::Sessions),
        "shutdown" => Ok(Request::Shutdown),
        "quit" => Ok(Request::Quit),
        "create" => Ok(Request::Create {
            session: required_str(&json, "session")?,
            csv: payload(&json, "csv", "csv_path")?,
            dc: payload(&json, "dc", "dc_path")?,
        }),
        "drop" => Ok(Request::Drop {
            session: required_str(&json, "session")?,
        }),
        "op" => Ok(Request::Op {
            session: required_str(&json, "session")?,
            ops: required_str(&json, "ops")?,
            token: json.get("token").and_then(Json::as_str).map(str::to_string),
        }),
        "measure" => Ok(Request::Measure {
            measures: measures_field(&json, MEASURE_DEFAULTS)?,
            session: required_str(&json, "session")?,
            per_dc: json.get("per_dc").and_then(Json::as_bool).unwrap_or(false),
            deadline_ms: opt_deadline(&json)?,
        }),
        "tuple_measures" => {
            let k = match json.get("k") {
                None => 10,
                Some(v) => {
                    let k = v.as_f64().filter(|k| *k >= 1.0).ok_or_else(|| {
                        ServerError::Protocol("`k` must be a positive number".into())
                    })?;
                    k as usize
                }
            };
            Ok(Request::TupleMeasures {
                session: required_str(&json, "session")?,
                k,
                deadline_ms: opt_deadline(&json)?,
            })
        }
        "set_options" => {
            let violation_limit = match json.get("violation_limit") {
                None => None,
                Some(Json::Null) => Some(None),
                Some(v) if v.as_str() == Some("none") => Some(None),
                Some(v) => {
                    let n = v.as_f64().filter(|n| *n >= 1.0).ok_or_else(|| {
                        ServerError::Protocol(
                            "`violation_limit` must be a positive number, `null`, or `\"none\"`"
                                .into(),
                        )
                    })?;
                    Some(Some(n as usize))
                }
            };
            let budget = |key: &str| -> Result<Option<u64>, ServerError> {
                match json.get(key) {
                    None => Ok(None),
                    Some(v) => {
                        let n = v.as_f64().filter(|n| *n >= 1.0).ok_or_else(|| {
                            ServerError::Protocol(format!("`{key}` must be a positive number"))
                        })?;
                        Ok(Some(n as u64))
                    }
                }
            };
            let req = Request::SetOptions {
                session: required_str(&json, "session")?,
                violation_limit,
                mis_budget: budget("mis_budget")?,
                vc_budget: budget("vc_budget")?,
            };
            if let Request::SetOptions {
                violation_limit: None,
                mis_budget: None,
                vc_budget: None,
                ..
            } = req
            {
                return Err(ServerError::Protocol(
                    "`set_options` needs at least one of `violation_limit`, `mis_budget`, \
                     `vc_budget`"
                        .into(),
                ));
            }
            Ok(req)
        }
        "stats" => Ok(Request::Stats {
            session: json
                .get("session")
                .and_then(Json::as_str)
                .map(str::to_string),
        }),
        "metrics" => {
            let prom = match (json.get("format"), json.get("prom")) {
                (Some(v), _) => match v.as_str() {
                    Some("prom") | Some("prometheus") => true,
                    Some("json") => false,
                    _ => {
                        return Err(ServerError::Protocol(
                            "`format` must be `json`, `prom`, or `prometheus`".into(),
                        ))
                    }
                },
                (None, Some(v)) => v
                    .as_bool()
                    .ok_or_else(|| ServerError::Protocol("`prom` must be a boolean".into()))?,
                (None, None) => false,
            };
            Ok(Request::Metrics { prom })
        }
        "snapshot" => Ok(Request::Snapshot {
            session: required_str(&json, "session")?,
        }),
        "compact" => Ok(Request::Compact {
            session: required_str(&json, "session")?,
        }),
        "hello" => {
            let proto_version = match json.get("proto_version") {
                // A pre-handshake client that somehow sends `hello`
                // without a version is treated as v1.
                None => 1,
                Some(v) => {
                    let n = v.as_f64().filter(|n| *n >= 1.0).ok_or_else(|| {
                        ServerError::Protocol("`proto_version` must be a positive number".into())
                    })?;
                    n as u64
                }
            };
            let features = strings(&json, "features")?.unwrap_or_default();
            Ok(Request::Hello {
                proto_version,
                features: features.into_iter().map(str::to_string).collect(),
            })
        }
        "measure_all" => {
            let measures = measures_field(&json, MEASURE_ALL_DEFAULTS)?;
            if let Some(m) = measures.iter().find(|m| !m.summable()) {
                return Err(ServerError::Protocol(format!(
                    "measure `{}` is not summable across sessions (aggregatable: {})",
                    m.name(),
                    Measure::ALL
                        .into_iter()
                        .filter(|m| m.summable())
                        .map(Measure::name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            Ok(Request::MeasureAll {
                measures,
                detail: json.get("detail").and_then(Json::as_bool).unwrap_or(false),
            })
        }
        "join" => Ok(Request::Join {
            addr: required_str(&json, "addr")?,
        }),
        "shards" => Ok(Request::Shards),
        other => Err(ServerError::Protocol(format!("unknown cmd `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_request("{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"cmd\":\"sessions\"}").unwrap(),
            Request::Sessions
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert_eq!(parse_request("{\"cmd\":\"quit\"}").unwrap(), Request::Quit);
        let create = parse_request(
            "{\"cmd\":\"create\",\"session\":\"s\",\"csv\":\"A\\n1\\n\",\"dc\":\"t.A < 0\"}",
        )
        .unwrap();
        match create {
            Request::Create { session, csv, .. } => {
                assert_eq!(session, "s");
                assert_eq!(csv, Payload::Inline("A\n1\n".into()));
            }
            other => panic!("{other:?}"),
        }
        let measure = parse_request(
            "{\"cmd\":\"measure\",\"session\":\"s\",\"measures\":[\"I_MI\",\"I_MC\"],\"per_dc\":true}",
        )
        .unwrap();
        assert_eq!(
            measure,
            Request::Measure {
                session: "s".into(),
                measures: vec![Measure::Mi, Measure::Mc],
                per_dc: true,
                deadline_ms: None,
            }
        );
        let deadline =
            parse_request("{\"cmd\":\"measure\",\"session\":\"s\",\"deadline_ms\":250}").unwrap();
        match deadline {
            Request::Measure { deadline_ms, .. } => assert_eq!(deadline_ms, Some(250)),
            other => panic!("{other:?}"),
        }
        let op = parse_request(
            "{\"cmd\":\"op\",\"session\":\"s\",\"ops\":\"delete 1\",\"token\":\"c1-42\"}",
        )
        .unwrap();
        assert_eq!(
            op,
            Request::Op {
                session: "s".into(),
                ops: "delete 1".into(),
                token: Some("c1-42".into()),
            }
        );
        let default = parse_request("{\"cmd\":\"measure\",\"session\":\"s\"}").unwrap();
        match default {
            Request::Measure { measures, .. } => assert_eq!(measures, MEASURE_DEFAULTS),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request("{\"cmd\":\"tuple_measures\",\"session\":\"s\"}").unwrap(),
            Request::TupleMeasures {
                session: "s".into(),
                k: 10,
                deadline_ms: None,
            }
        );
        assert_eq!(
            parse_request(
                "{\"cmd\":\"tuple_measures\",\"session\":\"s\",\"k\":3,\"deadline_ms\":250}"
            )
            .unwrap(),
            Request::TupleMeasures {
                session: "s".into(),
                k: 3,
                deadline_ms: Some(250),
            }
        );
    }

    #[test]
    fn parses_metrics_formats() {
        assert_eq!(
            parse_request("{\"cmd\":\"metrics\"}").unwrap(),
            Request::Metrics { prom: false }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"metrics\",\"format\":\"prom\"}").unwrap(),
            Request::Metrics { prom: true }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"metrics\",\"prom\":true}").unwrap(),
            Request::Metrics { prom: true }
        );
        assert!(parse_request("{\"cmd\":\"metrics\",\"format\":\"xml\"}").is_err());
        assert!(parse_request("{\"cmd\":\"metrics\",\"prom\":\"yes\"}").is_err());
        // kind()/session_name() cover every variant.
        assert_eq!(Request::Metrics { prom: false }.kind(), "metrics");
        assert_eq!(Request::Ping.session_name(), None);
        assert_eq!(
            Request::Drop {
                session: "s".into()
            }
            .session_name(),
            Some("s")
        );
    }

    #[test]
    fn parses_set_options_partial_updates() {
        assert_eq!(
            parse_request("{\"cmd\":\"set_options\",\"session\":\"s\",\"mis_budget\":1000}")
                .unwrap(),
            Request::SetOptions {
                session: "s".into(),
                violation_limit: None,
                mis_budget: Some(1000),
                vc_budget: None,
            }
        );
        // `violation_limit` lifts the cap with either `null` or `"none"`.
        for lift in ["null", "\"none\""] {
            assert_eq!(
                parse_request(&format!(
                    "{{\"cmd\":\"set_options\",\"session\":\"s\",\"violation_limit\":{lift}}}"
                ))
                .unwrap(),
                Request::SetOptions {
                    session: "s".into(),
                    violation_limit: Some(None),
                    mis_budget: None,
                    vc_budget: None,
                }
            );
        }
        assert_eq!(
            parse_request(
                "{\"cmd\":\"set_options\",\"session\":\"s\",\"violation_limit\":500,\
                 \"vc_budget\":2000}"
            )
            .unwrap(),
            Request::SetOptions {
                session: "s".into(),
                violation_limit: Some(Some(500)),
                mis_budget: None,
                vc_budget: Some(2000),
            }
        );
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, needle) in [
            ("nonsense", "bad request"),
            ("{\"cmd\":\"warp\"}", "unknown cmd"),
            ("{\"nope\":1}", "missing string field `cmd`"),
            ("{\"cmd\":\"op\",\"session\":\"s\"}", "`ops`"),
            (
                "{\"cmd\":\"create\",\"session\":\"s\",\"dc\":\"x\"}",
                "`csv` or `csv_path`",
            ),
            (
                "{\"cmd\":\"create\",\"session\":\"s\",\"csv\":\"a\",\"csv_path\":\"b\",\"dc\":\"x\"}",
                "mutually exclusive",
            ),
            (
                "{\"cmd\":\"measure\",\"session\":\"s\",\"measures\":[\"I_BOGUS\"]}",
                "unknown measure",
            ),
            (
                "{\"cmd\":\"measure\",\"session\":\"s\",\"deadline_ms\":-5}",
                "`deadline_ms`",
            ),
            (
                "{\"cmd\":\"measure\",\"session\":\"s\",\"deadline_ms\":\"soon\"}",
                "`deadline_ms`",
            ),
            ("{\"cmd\":\"tuple_measures\"}", "`session`"),
            (
                "{\"cmd\":\"set_options\",\"session\":\"s\"}",
                "at least one",
            ),
            (
                "{\"cmd\":\"set_options\",\"session\":\"s\",\"violation_limit\":-1}",
                "`violation_limit`",
            ),
            (
                "{\"cmd\":\"set_options\",\"session\":\"s\",\"mis_budget\":\"lots\"}",
                "`mis_budget`",
            ),
            (
                "{\"cmd\":\"tuple_measures\",\"session\":\"s\",\"k\":0}",
                "`k`",
            ),
            (
                "{\"cmd\":\"tuple_measures\",\"session\":\"s\",\"deadline_ms\":-1}",
                "`deadline_ms`",
            ),
            // Withdrawn commands answer like any unknown one.
            ("{\"cmd\":\"fetch_wal\",\"session\":\"s\"}", "unknown cmd"),
            ("{\"cmd\":\"fetch_snapshot\",\"session\":\"s\"}", "unknown cmd"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn parses_v2_commands() {
        assert_eq!(
            parse_request("{\"cmd\":\"hello\",\"proto_version\":2,\"features\":[\"shard-aware\"]}")
                .unwrap(),
            Request::Hello {
                proto_version: 2,
                features: vec!["shard-aware".into()],
            }
        );
        // A bare `hello` is a v1 client probing.
        assert_eq!(
            parse_request("{\"cmd\":\"hello\"}").unwrap(),
            Request::Hello {
                proto_version: 1,
                features: vec![],
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"measure_all\"}").unwrap(),
            Request::MeasureAll {
                measures: vec![Measure::Mi, Measure::P, Measure::R, Measure::RLin],
                detail: false,
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"measure_all\",\"measures\":[\"I_MI\"],\"detail\":true}")
                .unwrap(),
            Request::MeasureAll {
                measures: vec![Measure::Mi],
                detail: true,
            }
        );
        // Non-summable measures are refused up front.
        assert!(
            parse_request("{\"cmd\":\"measure_all\",\"measures\":[\"I_d\"]}")
                .unwrap_err()
                .to_string()
                .contains("not summable")
        );
        assert_eq!(
            parse_request("{\"cmd\":\"join\",\"addr\":\"127.0.0.1:9\"}").unwrap(),
            Request::Join {
                addr: "127.0.0.1:9".into()
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shards\"}").unwrap(),
            Request::Shards
        );
        assert!(parse_request("{\"cmd\":\"hello\",\"proto_version\":0}").is_err());
        assert!(parse_request("{\"cmd\":\"join\"}").is_err());
    }

    /// Regression: parsing must tolerate fields it has never heard of, so
    /// newer clients can talk to older servers (and a coordinator can
    /// attach routing metadata without breaking workers). Every arm reads
    /// only known keys — an unknown sibling changes nothing.
    #[test]
    fn unknown_fields_are_tolerated_everywhere() {
        for (line, want_kind) in [
            ("{\"cmd\":\"ping\",\"future\":{\"x\":[1,2]}}", "ping"),
            (
                "{\"cmd\":\"measure\",\"session\":\"s\",\"shard_hint\":3,\"trace_id\":\"abc\"}",
                "measure",
            ),
            (
                "{\"cmd\":\"op\",\"session\":\"s\",\"ops\":\"delete 1\",\"origin\":\"coord\"}",
                "op",
            ),
            (
                "{\"cmd\":\"hello\",\"proto_version\":99,\"features\":[],\"extensions\":null}",
                "hello",
            ),
            (
                "{\"cmd\":\"measure_all\",\"priority\":\"low\"}",
                "measure_all",
            ),
            (
                "{\"cmd\":\"tuple_measures\",\"session\":\"s\",\"unknown\":true}",
                "tuple_measures",
            ),
            // The read-mode field older clients send on `create`.
            (
                "{\"cmd\":\"create\",\"session\":\"s\",\"csv\":\"a\",\"dc\":\"x\",\"mode\":\"global\"}",
                "create",
            ),
        ] {
            let parsed = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.kind(), want_kind, "{line}");
        }
    }

    /// `to_json` is the inverse of `parse_request`: the typed client and
    /// the coordinator forwarding leg both rely on the round trip.
    #[test]
    fn to_json_round_trips_through_parse() {
        let requests = vec![
            Request::Ping,
            Request::Sessions,
            Request::Shards,
            Request::Shutdown,
            Request::Quit,
            Request::Create {
                session: "s".into(),
                csv: Payload::Inline("A\n1\n".into()),
                dc: Payload::Inline("t.A < 0".into()),
            },
            Request::Create {
                session: "s".into(),
                csv: Payload::Path("/tmp/x.csv".into()),
                dc: Payload::Path("/tmp/x.dc".into()),
            },
            Request::Drop {
                session: "s".into(),
            },
            Request::Op {
                session: "s".into(),
                ops: "delete 1\nupdate 2 A 5".into(),
                token: Some("t-1".into()),
            },
            Request::Op {
                session: "s".into(),
                ops: "delete 1".into(),
                token: None,
            },
            Request::Measure {
                session: "s".into(),
                measures: vec![Measure::Mi, Measure::RLin],
                per_dc: true,
                deadline_ms: Some(250),
            },
            Request::TupleMeasures {
                session: "s".into(),
                k: 3,
                deadline_ms: None,
            },
            Request::SetOptions {
                session: "s".into(),
                violation_limit: Some(None),
                mis_budget: Some(10),
                vc_budget: None,
            },
            Request::SetOptions {
                session: "s".into(),
                violation_limit: Some(Some(7)),
                mis_budget: None,
                vc_budget: Some(9),
            },
            Request::Stats { session: None },
            Request::Stats {
                session: Some("s".into()),
            },
            Request::Metrics { prom: true },
            Request::Metrics { prom: false },
            Request::Snapshot {
                session: "s".into(),
            },
            Request::Compact {
                session: "s".into(),
            },
            Request::Hello {
                proto_version: 2,
                features: vec!["deadlines".into()],
            },
            Request::MeasureAll {
                measures: vec![Measure::Mi],
                detail: true,
            },
            Request::Join {
                addr: "127.0.0.1:7878".into(),
            },
        ];
        for req in requests {
            let line = req.to_json().to_string();
            let reparsed = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(reparsed, req, "{line}");
        }
    }

    /// Regression: wire-level JSON failures used to surface only a byte
    /// offset; they now echo the offending request line, the same
    /// ``<what> `line`: msg`` shape as `.ops` and op-log errors, so the
    /// CLI and server paths report parse errors consistently.
    #[test]
    fn wire_parse_errors_echo_the_request_line() {
        let err = parse_request("{\"cmd\":").unwrap_err().to_string();
        assert!(err.contains("request `{\"cmd\":`"), "{err}");
        let err = parse_request("nonsense").unwrap_err().to_string();
        assert!(err.contains("request `nonsense`"), "{err}");
        // Huge lines are capped, not echoed wholesale.
        let huge = format!("{{\"cmd\":\"op\",\"ops\":\"{}", "x".repeat(10_000));
        let err = parse_request(&huge).unwrap_err().to_string();
        assert!(err.len() < 400, "echo not capped: {} bytes", err.len());
        assert!(err.contains('…'), "{err}");
        // And the snapshot/compact commands parse.
        assert_eq!(
            parse_request("{\"cmd\":\"snapshot\",\"session\":\"s\"}").unwrap(),
            Request::Snapshot {
                session: "s".into()
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"compact\",\"session\":\"s\"}").unwrap(),
            Request::Compact {
                session: "s".into()
            }
        );
        assert!(parse_request("{\"cmd\":\"snapshot\"}").is_err());
    }

    #[test]
    fn repeated_measure_names_keep_the_first_occurrence() {
        match parse_request(
            "{\"cmd\":\"measure\",\"session\":\"s\",\"measures\":[\"I_P\",\"I_MI\",\"I_P\"]}",
        )
        .unwrap()
        {
            Request::Measure { measures, .. } => assert_eq!(measures, [Measure::P, Measure::Mi]),
            other => panic!("{other:?}"),
        }
        match parse_request("{\"cmd\":\"measure_all\",\"measures\":[\"raw\",\"raw\"]}").unwrap() {
            Request::MeasureAll { measures, .. } => assert_eq!(measures, [Measure::Raw]),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_measures(&["I_MI", "I_MI"]).unwrap(),
            [Measure::Mi],
            "sessions dedup the same way"
        );
    }

    /// `docs/PROTOCOL.md` carries the served roster as a `| measure |
    /// default | summable |` table; it must list [`Measure::ALL`] in order,
    /// with the defaults and summability the code serves.
    #[test]
    fn protocol_doc_roster_table_matches_the_code() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let header = doc
            .find("| measure | default | summable |")
            .expect("roster table in docs/PROTOCOL.md");
        let rows: Vec<Vec<String>> = doc[header..]
            .lines()
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                line.trim_matches('|')
                    .split('|')
                    .map(|cell| cell.trim().trim_matches('`').to_string())
                    .collect()
            })
            .collect();
        let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
        let want: Vec<Vec<String>> = Measure::ALL
            .into_iter()
            .map(|m| {
                vec![
                    m.name().to_string(),
                    yes_no(MEASURE_DEFAULTS.contains(&m)),
                    yes_no(m.summable()),
                ]
            })
            .collect();
        assert_eq!(rows, want);
        // The doc's rule for `measure_all`: the measures that are both.
        let both: Vec<Measure> = MEASURE_DEFAULTS
            .iter()
            .copied()
            .filter(|m| m.summable())
            .collect();
        assert_eq!(MEASURE_ALL_DEFAULTS, both);
    }

    /// The request after `req` in a walk over one request per variant,
    /// starting at [`Request::Ping`]. The `match` has no `_` arm, so a
    /// new variant does not compile until it joins the walk.
    fn next_variant(req: &Request) -> Option<Request> {
        let session = || "s".to_string();
        Some(match req {
            Request::Ping => Request::Hello {
                proto_version: PROTO_VERSION,
                features: vec![],
            },
            Request::Hello { .. } => Request::Create {
                session: session(),
                csv: Payload::Inline("A\n1\n".into()),
                dc: Payload::Inline("t.A < 0".into()),
            },
            Request::Create { .. } => Request::Drop { session: session() },
            Request::Drop { .. } => Request::Sessions,
            Request::Sessions => Request::Op {
                session: session(),
                ops: "delete 1".into(),
                token: None,
            },
            Request::Op { .. } => Request::Measure {
                session: session(),
                measures: MEASURE_DEFAULTS.to_vec(),
                per_dc: false,
                deadline_ms: None,
            },
            Request::Measure { .. } => Request::TupleMeasures {
                session: session(),
                k: 10,
                deadline_ms: None,
            },
            Request::TupleMeasures { .. } => Request::SetOptions {
                session: session(),
                violation_limit: None,
                mis_budget: Some(1),
                vc_budget: None,
            },
            Request::SetOptions { .. } => Request::Stats { session: None },
            Request::Stats { .. } => Request::Metrics { prom: false },
            Request::Metrics { .. } => Request::Snapshot { session: session() },
            Request::Snapshot { .. } => Request::Compact { session: session() },
            Request::Compact { .. } => Request::MeasureAll {
                measures: MEASURE_ALL_DEFAULTS.to_vec(),
                detail: false,
            },
            Request::MeasureAll { .. } => Request::Join {
                addr: "127.0.0.1:9".into(),
            },
            Request::Join { .. } => Request::Shards,
            Request::Shards => Request::Shutdown,
            Request::Shutdown => Request::Quit,
            Request::Quit => return None,
        })
    }

    /// `docs/PROTOCOL.md`'s `Requests` table is the one list of commands:
    /// its `cmd` column must be exactly the [`Request::kind`] of every
    /// variant, so a command cannot ship or go without its doc row.
    #[test]
    fn protocol_doc_request_table_matches_the_code() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let header = doc
            .find("| `cmd` | fields | response (beyond `ok`) |")
            .expect("Requests table in docs/PROTOCOL.md");
        let mut documented: Vec<&str> = doc[header..]
            .lines()
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| line.split('|').nth(1).unwrap().trim().trim_matches('`'))
            .collect();
        let mut served = vec![];
        let mut req = Some(Request::Ping);
        while let Some(r) = req {
            assert!(
                !served.contains(&r.kind()),
                "the walk revisits `{}`",
                r.kind()
            );
            served.push(r.kind());
            req = next_variant(&r);
        }
        documented.sort_unstable();
        served.sort_unstable();
        assert_eq!(documented, served);
    }
}
