//! The end-to-end run: the real server process, one client on one
//! connection, a closed loop over the seeded request stream, and the
//! correctness checks that gate every reported number.

use crate::gen::{Kind, Req, SessionData, Workload, GATHER_MEASURES, MEASURES};
use crate::server::{dir_bytes, ServerProc};
use crate::stats::{median, OpStats};
use crate::trace::Spans;
use inconsist::incremental::IncrementalIndex;
use inconsist::measures::MeasureOptions;
use inconsist_formats::csv::load_csv;
use inconsist_formats::dcfile::parse_dc_file;
use inconsist_formats::opsfile::parse_ops_file;
use inconsist_server::{Client, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Measures of the final bit-identity check (the read measures plus the
/// violation and component counts).
const FINAL: [&str; 7] = ["I_d", "I_MI", "I_P", "I_R", "I_R^lin", "raw", "components"];

/// Rounds the timed loop is cut into. Rate, latency and CPU metrics are
/// medians over rounds, so a slow spell of a shared host that covers less
/// than half of a run does not move them.
pub const ROUNDS: usize = 5;

/// One round of the timed loop.
#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    /// Server CPU seconds (user + system) spent during the round.
    pub cpu_s: f64,
    pub requests: u64,
    /// Latencies of successful requests per request type, µs.
    pub samples_us: BTreeMap<&'static str, Vec<f64>>,
}

/// Work counters: identical between two runs with the same seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub requests: u64,
    pub ops_applied: u64,
    pub raw_violations: u64,
    pub components: u64,
    pub response_bytes: u64,
    pub wal_bytes: u64,
}

impl Counters {
    pub fn line(&self) -> String {
        format!(
            "counters requests={} ops_applied={} raw_violations={} components={} \
             response_bytes={} wal_bytes={}",
            self.requests,
            self.ops_applied,
            self.raw_violations,
            self.components,
            self.response_bytes,
            self.wal_bytes
        )
    }
}

/// What one end-to-end run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub per_op: BTreeMap<&'static str, OpStats>,
    /// Wall time of the timed part of the loop.
    pub loop_s: f64,
    pub rounds: Vec<Round>,
    pub server_peak_rss_mb: f64,
    pub counters: Counters,
    /// Restart-to-first-correct-read after SIGKILL (durable workload).
    pub recovery_s: Option<f64>,
    /// Data-directory bytes per logical op-line byte (durable workload).
    pub disk_bytes_per_op_byte: Option<f64>,
    /// Latency of every request in stream order, µs (for the trace).
    pub latencies_us: Vec<f64>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.per_op.values().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.per_op.values().map(|s| s.failed).sum()
    }

    /// Median over rounds of a per-round figure (rounds where it is
    /// undefined are skipped).
    pub fn round_median(&self, f: impl Fn(&Round) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.rounds.iter().filter_map(f).collect();
        median(&values)
    }

    /// Nearest-rank `p`-quantile latency of a request type, µs (NaN when
    /// the workload has none).
    pub fn percentile(&self, label: &str, p: f64) -> f64 {
        self.per_op
            .get(label)
            .and_then(|s| crate::stats::nearest_rank(&s.samples_us, p))
            .unwrap_or(f64::NAN)
    }
}

/// Per-run scratch space inside the checkout.
pub struct Work {
    pub dir: PathBuf,
}

impl Work {
    pub fn new(dir: PathBuf) -> Work {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        Work { dir }
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn server_args(w: &Workload, work: &Path, data_dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workers",
        "1",
        "--event-threads",
        "1",
        "--solve-threads",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    match w.kind {
        Kind::FleetRead => args.extend(["--coordinator", "--shards", "2"].map(String::from)),
        _ => {
            let s = &w.sessions[0];
            args.push("--preload".into());
            args.push(format!(
                "{}={},{}",
                s.name,
                work.join("data.csv").display(),
                work.join("rules.dc").display()
            ));
        }
    }
    if let Some(dir) = data_dir {
        args.extend(["--data-dir".to_string(), dir.display().to_string()]);
        args.extend(["--fsync".to_string(), "always".to_string()]);
    }
    args
}

/// Sends one line and parses the reply; `Err` for a dropped connection
/// or a reply that is not JSON.
fn call(client: &mut Client, line: &str) -> Result<(Json, usize), String> {
    let text = client
        .request(line)
        .map_err(|e| format!("connection: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("reply is not JSON ({e}): {text}"))?;
    Ok((json, text.len()))
}

fn is_ok(json: &Json) -> bool {
    json.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The `values` of a measure reply as `(name, value)` pairs.
fn values(json: &Json) -> Result<Vec<(String, f64)>, String> {
    match json.get("values") {
        Some(Json::Obj(entries)) => entries
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("non-numeric `{k}` in {json}"))
            })
            .collect(),
        _ => Err(format!("no values in {json}")),
    }
}

fn measure_line(session: &str, measures: &[&str]) -> String {
    let list = Json::Arr(measures.iter().map(|m| Json::str(*m)).collect());
    format!(
        "{{\"cmd\":\"measure\",\"session\":{},\"measures\":{list}}}",
        Json::str(session)
    )
}

/// Starts a server for `w` and waits for its first correct full read:
/// every session's `I_P` equals the injector's ground-truth dirty count.
/// Returns the server and the seconds from spawn to that read.
pub fn set_up(
    w: &Workload,
    binary: &Path,
    work: &Path,
    data_dir: Option<&Path>,
) -> Result<(ServerProc, f64), String> {
    let started = Instant::now();
    let server = ServerProc::spawn(binary, &server_args(w, work, data_dir), work)?;
    let mut client = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    if w.kind == Kind::FleetRead {
        for s in &w.sessions {
            let create = format!(
                "{{\"cmd\":\"create\",\"session\":{},\"csv\":{},\"dc\":{}}}",
                Json::str(s.name.as_str()),
                Json::str(s.csv.as_str()),
                Json::str(s.dc.as_str())
            );
            let (reply, _) = call(&mut client, &create)?;
            if !is_ok(&reply) {
                return Err(format!("create {}: {reply}", s.name));
            }
        }
    }
    for s in &w.sessions {
        let (reply, _) = call(&mut client, &measure_line(&s.name, &MEASURES))?;
        let i_p = values(&reply)?
            .into_iter()
            .find(|(k, _)| k == "I_P")
            .map(|(_, v)| v);
        if i_p != Some(s.dirty as f64) {
            return Err(format!(
                "session {}: served I_P {i_p:?} != ground truth {}",
                s.name, s.dirty
            ));
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Runs the workload end to end against the binary at `binary`.
pub fn run(
    w: &Workload,
    binary: &Path,
    work: &Path,
    mut spans: Option<&mut Spans>,
) -> Result<Outcome, String> {
    if w.kind != Kind::FleetRead {
        std::fs::write(work.join("data.csv"), &w.sessions[0].csv).map_err(|e| e.to_string())?;
        std::fs::write(work.join("rules.dc"), &w.sessions[0].dc).map_err(|e| e.to_string())?;
    }
    let durable = w.kind == Kind::IngestDurable;
    let data_dir = |k: usize| work.join(format!("data-{k}"));

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server = None;
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            ServerProc::stop(previous);
        }
        let dir = durable.then(|| data_dir(k));
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let (s, secs) = set_up(w, binary, work, dir.as_deref())?;
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let data_dir = durable.then(|| data_dir(SETUPS - 1));

    let mut client = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut per_op: BTreeMap<&'static str, OpStats> = BTreeMap::new();
    let mut acked: Vec<Vec<(u64, String)>> = vec![Vec::new(); w.sessions.len()];
    let mut counters = Counters::default();
    let mut latencies_us = Vec::with_capacity(w.stream.len());
    let mut op_line_bytes = 0u64;
    let mut first_error: Option<String> = None;
    let timed = w.stream.len().saturating_sub(w.warmup).max(1);
    let mut rounds: Vec<Round> = (0..ROUNDS).map(|_| Round::default()).collect();
    // (time, server CPU) where each round starts, then where the last ends.
    let mut marks: Vec<(Instant, f64)> = Vec::with_capacity(ROUNDS + 1);
    for (i, req) in w.stream.iter().enumerate() {
        let round = (i >= w.warmup).then(|| (i - w.warmup) * ROUNDS / timed);
        if round == Some(marks.len()) {
            marks.push((Instant::now(), server.cpu_s()));
        }
        let line = req.line(&w.sessions);
        let sent = Instant::now();
        let reply = call(&mut client, &line);
        let received = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("tcp.request", 1, i, sent, received);
        }
        let us = (received - sent).as_secs_f64() * 1e6;
        latencies_us.push(us);
        counters.requests += 1;
        let stats = per_op.entry(req.label()).or_default();
        let ok = match &reply {
            Ok((json, bytes)) => {
                counters.response_bytes += *bytes as u64;
                is_ok(json)
            }
            Err(_) => false,
        };
        match round {
            None => stats.warmup += 1,
            Some(r) => {
                stats.attempted += 1;
                rounds[r].requests += 1;
                if ok {
                    stats.samples_us.push(us);
                    rounds[r]
                        .samples_us
                        .entry(req.label())
                        .or_default()
                        .push(us);
                } else {
                    stats.failed += 1;
                }
            }
        }
        match (&reply, ok) {
            (Ok((json, _)), true) => {
                if let Req::Write(s, ops) = req {
                    op_line_bytes += ops.len() as u64;
                    record_acks(json, ops, &mut acked[*s], &mut counters)?;
                }
            }
            (Ok((json, _)), false) => {
                first_error.get_or_insert_with(|| format!("{} failed: {json}", req.label()));
            }
            (Err(e), _) => {
                first_error.get_or_insert_with(|| format!("{} failed: {e}", req.label()));
                client = Client::connect(&server.addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    marks.push((Instant::now(), server.cpu_s()));
    for (r, pair) in rounds.iter_mut().zip(marks.windows(2)) {
        r.wall_s = (pair[1].0 - pair[0].0).as_secs_f64();
        r.cpu_s = pair[1].1 - pair[0].1;
    }
    let loop_s = (marks[marks.len() - 1].0 - marks[0].0).as_secs_f64();
    let server_peak_rss_mb = server.peak_rss_mb();
    if let Some(e) = &first_error {
        eprintln!("first failed request: {e}");
    }

    // Bit-identity: served measures == a fresh in-process replay of the
    // acknowledged ops, in seq order.
    let mut served: Vec<Vec<(String, f64)>> = Vec::new();
    for (s, session) in w.sessions.iter().enumerate() {
        let (reply, _) = call(&mut client, &measure_line(&session.name, &FINAL))?;
        let got = values(&reply)?;
        let want = replay(session, &mut acked[s])?;
        if got != want {
            return Err(format!(
                "session {}: served {got:?} != replay of {} acknowledged ops {want:?}",
                session.name,
                acked[s].len()
            ));
        }
        let get = |k: &str| got.iter().find(|(n, _)| n == k).map_or(0.0, |(_, v)| *v);
        counters.raw_violations += get("raw") as u64;
        counters.components += get("components") as u64;
        served.push(got);
    }
    if w.kind == Kind::FleetRead {
        check_gather(&mut client, w, &served)?;
    }

    let mut recovery_s = None;
    let mut disk_bytes_per_op_byte = None;
    if let Some(dir) = &data_dir {
        counters.wal_bytes = dir_bytes(dir);
        disk_bytes_per_op_byte = Some(counters.wal_bytes as f64 / op_line_bytes.max(1) as f64);
        drop(client);
        server.kill();
        // Restart on the same directory, no preload: recovery alone must
        // bring back the measures served before the kill.
        let started = Instant::now();
        let restarted = ServerProc::spawn(binary, &server_args_recover(dir), work)?;
        let mut client =
            Client::connect(&restarted.addr).map_err(|e| format!("connect after restart: {e}"))?;
        let (reply, _) = call(&mut client, &measure_line(&w.sessions[0].name, &FINAL))?;
        recovery_s = Some(started.elapsed().as_secs_f64());
        let got = values(&reply)?;
        if got != served[0] {
            return Err(format!(
                "recovered {got:?} != before the kill {:?}",
                served[0]
            ));
        }
        drop(client);
        restarted.stop();
    } else {
        drop(client);
        server.stop();
    }

    Ok(Outcome {
        setup_s,
        per_op,
        loop_s,
        rounds,
        server_peak_rss_mb,
        counters,
        recovery_s,
        disk_bytes_per_op_byte,
        latencies_us,
    })
}

fn server_args_recover(dir: &Path) -> Vec<String> {
    [
        "--workers",
        "1",
        "--event-threads",
        "1",
        "--solve-threads",
        "1",
        "--fsync",
        "always",
        "--data-dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([dir.display().to_string()])
    .collect()
}

/// Records `(seq, op line)` for every op an `op` reply acknowledged.
fn record_acks(
    reply: &Json,
    ops: &str,
    acked: &mut Vec<(u64, String)>,
    counters: &mut Counters,
) -> Result<(), String> {
    let echo = reply
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("op reply without `ops`: {reply}"))?;
    let lines: Vec<&str> = ops.lines().collect();
    if echo.len() != lines.len() {
        return Err(format!(
            "{} ops sent, {} acknowledged",
            lines.len(),
            echo.len()
        ));
    }
    for (entry, line) in echo.iter().zip(lines) {
        let seq = entry
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("op echo without seq: {entry}"))?;
        acked.push((seq as u64, line.to_string()));
    }
    counters.ops_applied += reply.get("applied").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(())
}

/// A session's relation schema and id, beside its index.
pub type Twin = (
    IncrementalIndex,
    std::sync::Arc<inconsist::relational::RelationSchema>,
    inconsist::relational::RelId,
);

/// Builds the in-process index of a session's preload.
pub fn build_index(session: &SessionData) -> Result<Twin, String> {
    index_from(load_csv(&session.csv, &session.name)?, session)
}

/// Builds the index over an already loaded preload.
pub fn index_from(
    loaded: inconsist_formats::csv::LoadedCsv,
    session: &SessionData,
) -> Result<Twin, String> {
    let dcs = parse_dc_file(&loaded.schema, &session.name, &session.dc)?;
    let mut cs = inconsist::constraints::ConstraintSet::new(loaded.schema.clone());
    for dc in dcs {
        cs.add_dc(dc);
    }
    let rel_schema = loaded.db.relation_schema(loaded.rel).clone();
    let rel = loaded.rel;
    let idx = IncrementalIndex::build(loaded.db, cs).map_err(|e| format!("build: {e:?}"))?;
    Ok((idx, rel_schema, rel))
}

/// The final measures of an in-process replay of `acked` (sorted by seq).
fn replay(
    session: &SessionData,
    acked: &mut [(u64, String)],
) -> Result<Vec<(String, f64)>, String> {
    acked.sort_by_key(|(seq, _)| *seq);
    let (mut idx, rel_schema, rel) = build_index(session)?;
    for (_, line) in acked.iter() {
        for op in parse_ops_file(&rel_schema, rel, line)? {
            idx.apply(&op);
        }
    }
    let opts = MeasureOptions::default();
    Ok(vec![
        ("I_d".to_string(), idx.i_d()),
        ("I_MI".to_string(), idx.i_mi()),
        ("I_P".to_string(), idx.i_p()),
        (
            "I_R".to_string(),
            idx.i_r(&opts).map_err(|e| format!("{e:?}"))?,
        ),
        (
            "I_R^lin".to_string(),
            idx.i_r_lin().map_err(|e| format!("{e:?}"))?,
        ),
        ("raw".to_string(), idx.raw_violations() as f64),
        ("components".to_string(), idx.component_count() as f64),
    ])
}

/// `measure_all` through the coordinator equals `shard::fold_sessions`
/// over the per-session answers.
fn check_gather(
    client: &mut Client,
    w: &Workload,
    served: &[Vec<(String, f64)>],
) -> Result<(), String> {
    let (reply, _) = call(client, &Req::Gather.line(&w.sessions))?;
    let got = values(&reply)?;
    let measures: Vec<String> = GATHER_MEASURES.iter().map(|m| m.to_string()).collect();
    let mut rows: Vec<(String, Json)> = w
        .sessions
        .iter()
        .zip(served)
        .map(|(s, vals)| {
            let row = vals
                .iter()
                .filter(|(k, _)| GATHER_MEASURES.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect();
            (s.name.clone(), Json::Obj(row))
        })
        .collect();
    let want = values(&Json::obj([(
        "values",
        inconsist_server::shard::fold_sessions(&measures, &mut rows),
    )]))?;
    if got != want {
        return Err(format!("measure_all {got:?} != fold_sessions {want:?}"));
    }
    Ok(())
}

/// `setup_s` of an outcome: the median of its set-ups.
pub fn setup_median(o: &Outcome) -> f64 {
    median(&o.setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use inconsist::incremental::ReadMode;
    use inconsist_server::protocol::Payload;
    use inconsist_server::{router, Admission, Registry, ServerCounters};

    /// Work counters of the stream replayed in-process through the
    /// router, with every answer checked as the TCP run checks it.
    fn routed_counters(w: &Workload) -> Counters {
        let registry = Registry::new(1);
        for s in &w.sessions {
            let (csv, dc) = (
                Payload::Inline(s.csv.clone()),
                Payload::Inline(s.dc.clone()),
            );
            registry
                .create(&s.name, &csv, &dc, ReadMode::Component)
                .unwrap();
        }
        let (server, admission) = (ServerCounters::default(), Admission::new(0, 0, 50));
        let route = |line: &str| {
            let (reply, _) = router::route_line(&registry, &server, &admission, line);
            let json = Json::parse(&reply).unwrap();
            assert!(is_ok(&json), "{reply}");
            (json, reply.len() as u64)
        };
        let mut counters = Counters::default();
        let mut acked = vec![Vec::new(); w.sessions.len()];
        for req in &w.stream {
            let (json, bytes) = route(&req.line(&w.sessions));
            counters.requests += 1;
            counters.response_bytes += bytes;
            if let Req::Write(s, ops) = req {
                record_acks(&json, ops, &mut acked[*s], &mut counters).unwrap();
            }
        }
        for (s, session) in w.sessions.iter().enumerate() {
            let got = values(&route(&measure_line(&session.name, &FINAL)).0).unwrap();
            assert_eq!(got, replay(session, &mut acked[s]).unwrap());
            counters.raw_violations += got[5].1 as u64;
            counters.components += got[6].1 as u64;
        }
        counters
    }

    #[test]
    fn same_seed_gives_identical_counters() {
        for kind in [Kind::RepairDense, Kind::FleetRead] {
            let run = |seed| {
                let mut w = gen::build(kind, seed, 1);
                w.stream.truncate(150);
                routed_counters(&w)
            };
            let first = run(3);
            assert_eq!(first, run(3), "{}", kind.name());
            assert!(first.ops_applied > 0 && first.components > 0, "{first:?}");
        }
    }
}
