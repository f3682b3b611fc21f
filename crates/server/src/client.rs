//! The typed client: one request-assembly path shared by the tests and
//! the coordinator⇄worker leg.
//!
//! [`ClientBuilder`] configures the connection (address and retry
//! policy) and yields a [`TypedClient`];
//! [`TypedClient::session`] scopes it to one session as a
//! [`SessionHandle`] with typed methods (`measure`, `apply_ops`,
//! `top_k`, `snapshot`, …). Every method builds a
//! [`Request`] and serializes it through
//! [`Request::to_json`], so the wire shape is defined in exactly one
//! place — the free-form string-assembled [`Client::request`]
//! (crate root) remains only as a thin compatibility shim.
//!
//! Server-side failures surface as [`ClientError::Server`] carrying the
//! machine-readable `kind` from the error taxonomy, so callers branch on
//! `kind == "overloaded"` / `"unavailable"` / `"unknown_session"`
//! without parsing prose.

use crate::protocol::{parse_measures, Payload, Request, PROTO_VERSION, SERVER_FEATURES};
use crate::wire::Json;
use crate::{Client, RetryPolicy};
use inconsist::incremental::Measure;
use std::fmt;
use std::net::SocketAddr;

/// Why a typed-client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (connect, write, read, or the server closed
    /// it) and retries were exhausted.
    Io(std::io::Error),
    /// The server answered with `ok:false`.
    Server {
        /// The machine-readable error kind (see the error taxonomy).
        kind: String,
        /// The human-readable message.
        message: String,
        /// The backoff hint, when the response carried one
        /// (`overloaded` / `unavailable`).
        retry_after_ms: Option<u64>,
    },
    /// The response was not the shape the method expected.
    Protocol(String),
}

impl ClientError {
    /// The server-side error kind, when this is a server error.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Server { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { kind, message, .. } => write!(f, "server [{kind}]: {message}"),
            ClientError::Protocol(msg) => write!(f, "unexpected response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Parses measure names for a typed request. An unknown name fails with
/// the `kind:"protocol"` error the server would answer it with.
fn measures_of(names: &[&str]) -> Result<Vec<Measure>, ClientError> {
    parse_measures(names).map_err(|e| ClientError::Server {
        kind: e.kind().to_string(),
        message: e.to_string(),
        retry_after_ms: None,
    })
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What the server said to `hello`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloInfo {
    /// The protocol version the server speaks.
    pub proto_version: u64,
    /// The negotiated feature set (intersection of both sides).
    pub features: Vec<String>,
    /// `"server"` or `"coordinator"`.
    pub role: String,
}

/// A measure response, decoded.
#[derive(Clone, Debug)]
pub struct Measures {
    /// Which read-ladder rung answered (`shared` / `exclusive` / `stale`).
    pub path: String,
    /// The response was served from the last-served cache past a missed
    /// deadline.
    pub stale: bool,
    /// `I_R`/`I_R^lin` degraded to certified bounds (see `upper`).
    pub partial: bool,
    /// Measure name → value, in response order.
    pub values: Vec<(String, f64)>,
    /// The full response object, for fields the struct does not model
    /// (`per_dc`, `upper`, `as_of_seq`).
    pub raw: Json,
}

impl Measures {
    /// The value of one measure, when present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// An `op` response, decoded.
#[derive(Clone, Debug)]
pub struct OpsApplied {
    /// Ops that changed the database.
    pub applied: u64,
    /// Ops that were valid but changed nothing.
    pub noops: u64,
    /// The batch's idempotency token had already been applied; this is
    /// the remembered response, nothing re-executed.
    pub deduped: bool,
    /// The sequence number of the last op in the batch (0 when deduped
    /// responses omit it — read `raw` for the echo).
    pub last_seq: u64,
    /// The full response object (per-op echo lives here).
    pub raw: Json,
}

/// One ranked tuple from a `tuple_measures` response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TupleScore {
    /// Tuple id.
    pub tuple: u64,
    /// Conflict-count responsibility.
    pub cbm: f64,
    /// Component-inconsistency share.
    pub cim: f64,
    /// Problematic-tuple indicator.
    pub pim: f64,
    /// Shapley-style responsibility.
    pub rim: f64,
}

/// Configures and connects a [`TypedClient`].
///
/// ```no_run
/// use inconsist_server::ClientBuilder;
/// let addr = "127.0.0.1:7878".parse().unwrap();
/// let mut client = ClientBuilder::new(addr).connect().unwrap();
/// let mut session = client.session("cities");
/// let measured = session.measure(&["I_MI", "I_R"]).unwrap();
/// assert!(measured.value("I_MI").is_some());
/// ```
#[derive(Clone, Debug)]
pub struct ClientBuilder {
    addr: SocketAddr,
    retry: RetryPolicy,
}

impl ClientBuilder {
    /// A builder with the default retry policy.
    pub fn new(addr: SocketAddr) -> ClientBuilder {
        ClientBuilder {
            addr,
            retry: RetryPolicy::default(),
        }
    }

    /// Overrides the retry policy applied to every request.
    pub fn retry(mut self, policy: RetryPolicy) -> ClientBuilder {
        self.retry = policy;
        self
    }

    /// Connects and negotiates `hello` at [`PROTO_VERSION`].
    pub fn connect(self) -> Result<TypedClient, ClientError> {
        let mut client = self.unconnected();
        client.inner.ensure_connected()?;
        client.hello()?;
        Ok(client)
    }

    /// A client that connects on its first request, under the retry
    /// policy like any other I/O failure, and skips the handshake.
    pub(crate) fn unconnected(self) -> TypedClient {
        TypedClient {
            inner: Client::unconnected(self.addr),
            retry: self.retry,
        }
    }
}

/// A connected typed client. All methods retry per the builder's
/// [`RetryPolicy`]; writes are made retry-safe by idempotency tokens
/// (see [`SessionHandle::apply_ops`]).
pub struct TypedClient {
    inner: Client,
    retry: RetryPolicy,
}

impl TypedClient {
    /// Sends one typed request and decodes the response object,
    /// converting `ok:false` into [`ClientError::Server`].
    pub fn call(&mut self, request: &Request) -> Result<Json, ClientError> {
        self.call_line(&request.to_json().to_string())
    }

    /// [`call`](Self::call) on an already-serialized request line. The
    /// coordinator's forwarding leg uses this to pass a worker's
    /// response through verbatim.
    pub fn call_line(&mut self, line: &str) -> Result<Json, ClientError> {
        let response = self.inner.request_with_retry(line, &self.retry)?;
        let json = Json::parse(&response)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        if json.get("ok").and_then(Json::as_bool) == Some(false) {
            return Err(ClientError::Server {
                kind: json
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                retry_after_ms: json
                    .get("retry_after_ms")
                    .and_then(Json::as_f64)
                    .map(|ms| ms as u64),
            });
        }
        Ok(json)
    }

    /// Like [`call_line`](Self::call_line) but returns the raw response
    /// line untouched (still an `Ok` even for `ok:false` responses) —
    /// the verbatim-passthrough path.
    pub fn call_line_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.inner.request_with_retry(line, &self.retry)
    }

    /// The connected socket (see [`Client::into_stream`]).
    pub(crate) fn into_stream(self) -> Option<std::net::TcpStream> {
        self.inner.into_stream()
    }

    /// Negotiates `hello`; returns the server's answer.
    pub fn hello(&mut self) -> Result<HelloInfo, ClientError> {
        let json = self.call(&Request::Hello {
            proto_version: PROTO_VERSION,
            features: SERVER_FEATURES.iter().map(|s| s.to_string()).collect(),
        })?;
        Ok(HelloInfo {
            proto_version: json
                .get("proto_version")
                .and_then(Json::as_f64)
                .ok_or_else(|| ClientError::Protocol("hello without proto_version".into()))?
                as u64,
            features: json.str_list("features"),
            role: json
                .get("role")
                .and_then(Json::as_str)
                .unwrap_or("server")
                .to_string(),
        })
    }

    /// Live session names, sorted.
    pub fn sessions(&mut self) -> Result<Vec<String>, ClientError> {
        let json = self.call(&Request::Sessions)?;
        Ok(json.str_list("sessions"))
    }

    /// Creates a session from inline CSV + DC text.
    pub fn create(&mut self, name: &str, csv: &str, dc: &str) -> Result<Json, ClientError> {
        self.call(&Request::Create {
            session: name.to_string(),
            csv: Payload::Inline(csv.to_string()),
            dc: Payload::Inline(dc.to_string()),
        })
    }

    /// Drops a session.
    pub fn drop_session(&mut self, name: &str) -> Result<(), ClientError> {
        self.call(&Request::Drop {
            session: name.to_string(),
        })
        .map(|_| ())
    }

    /// Aggregates summable measures over every live session (on a
    /// coordinator: scatter/gathered over every shard).
    pub fn measure_all(&mut self, measures: &[&str], detail: bool) -> Result<Json, ClientError> {
        self.call(&Request::MeasureAll {
            measures: measures_of(measures)?,
            detail,
        })
    }

    /// Scopes this client to one session.
    pub fn session<'a>(&'a mut self, name: &str) -> SessionHandle<'a> {
        SessionHandle {
            client: self,
            name: name.to_string(),
        }
    }
}

/// A [`TypedClient`] scoped to one session.
pub struct SessionHandle<'a> {
    client: &'a mut TypedClient,
    name: String,
}

impl SessionHandle<'_> {
    /// The session name this handle targets.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads measures, blocking until they are served.
    pub fn measure(&mut self, measures: &[&str]) -> Result<Measures, ClientError> {
        self.measure_deadline(measures, None)
    }

    /// Reads measures under an explicit deadline (`None` = block).
    pub fn measure_deadline(
        &mut self,
        measures: &[&str],
        deadline_ms: Option<u64>,
    ) -> Result<Measures, ClientError> {
        let json = self.client.call(&Request::Measure {
            session: self.name.clone(),
            measures: measures_of(measures)?,
            per_dc: false,
            deadline_ms,
        })?;
        let values = match json.get("values") {
            Some(Json::Obj(entries)) => entries
                .iter()
                .filter_map(|(name, v)| v.as_f64().map(|v| (name.clone(), v)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Measures {
            path: json
                .get("path")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            stale: json.get("stale").and_then(Json::as_bool).unwrap_or(false),
            partial: json.get("partial").and_then(Json::as_bool).unwrap_or(false),
            values,
            raw: json,
        })
    }

    /// Applies `.ops` lines. Pass a `token` to make the batch idempotent
    /// — with one, a retried batch (connection drop, worker restart)
    /// is deduplicated server-side instead of applying twice.
    pub fn apply_ops(&mut self, ops: &str, token: Option<&str>) -> Result<OpsApplied, ClientError> {
        let json = self.client.call(&Request::Op {
            session: self.name.clone(),
            ops: ops.to_string(),
            token: token.map(str::to_string),
        })?;
        let num = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let last_seq = json
            .get("ops")
            .and_then(Json::as_arr)
            .and_then(<[Json]>::last)
            .and_then(|op| op.get("seq"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        Ok(OpsApplied {
            applied: num("applied"),
            noops: num("noops"),
            deduped: json.get("deduped").and_then(Json::as_bool).unwrap_or(false),
            last_seq,
            raw: json,
        })
    }

    /// The `k` most inconsistent tuples with their per-tuple scores.
    pub fn top_k(&mut self, k: usize) -> Result<Vec<TupleScore>, ClientError> {
        let json = self.client.call(&Request::TupleMeasures {
            session: self.name.clone(),
            k,
            deadline_ms: None,
        })?;
        let tuples = json
            .get("tuples")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("tuple_measures without `tuples`".into()))?;
        let score = |t: &Json, key: &str| t.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Ok(tuples
            .iter()
            .map(|t| TupleScore {
                tuple: score(t, "tuple") as u64,
                cbm: score(t, "cbm"),
                cim: score(t, "cim"),
                pim: score(t, "pim"),
                rim: score(t, "rim"),
            })
            .collect())
    }

    /// Writes a point-in-time snapshot; returns the covered seq.
    pub fn snapshot(&mut self) -> Result<u64, ClientError> {
        let json = self.client.call(&Request::Snapshot {
            session: self.name.clone(),
        })?;
        Ok(json.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64)
    }

    /// Compacts the session's op log against its newest snapshot.
    pub fn compact(&mut self) -> Result<Json, ClientError> {
        self.client.call(&Request::Compact {
            session: self.name.clone(),
        })
    }

    /// The session's `stats` object.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.client.call(&Request::Stats {
            session: Some(self.name.clone()),
        })
    }
}
