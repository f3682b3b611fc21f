//! Load generator for `inconsist-server`: N client threads over real TCP
//! connections drive a mixed read/write workload against one session and
//! report throughput and p50/p99 latency per phase, plus the reader-path
//! witnesses, to a JSON file (`target/bench_server.json`, or the path in
//! `BENCH_SERVER_JSON`).
//!
//! Three phases run against the same live session:
//!
//! 1. **read_heavy** — 90% measure reads / 10% single-op writes;
//! 2. **mixed** — 50/50;
//! 3. **read_only** — pure measure reads on a warm index: every request
//!    after the first is answerable from caches, so this phase exercises
//!    the shared path exclusively and its `max_concurrent_shared_reads`
//!    high-water mark (> 1 = clean-component reads overlapped inside the
//!    read-locked section rather than serializing).
//!
//! After the phases, the harness recovers the exact serialization the
//! server executed (every op response carries its write-lock sequence
//! number), replays it through a fresh `IncrementalIndex`, and asserts
//! the served measures are **bit-identical** — the same witness the
//! `concurrency` integration test checks, here at load-test scale.
//!
//! A fourth **durability** phase exercises the write-ahead log directly
//! (no sockets): for each fsync policy it applies a write-only op
//! stream through a durable session, snapshots at the midpoint, then
//! simulates a crash (drop without shutdown snapshot) and times
//! [`Session::recover`] — asserting the recovered measures are
//! bit-identical to the pre-crash session's. The JSON gains per-policy
//! write amplification (log bytes ÷ logical op bytes), append
//! throughput/latency and recovery time.
//!
//! A **sharded** phase runs a coordinator over two local worker shards:
//! it first asserts the `measure_all` aggregate is bit-identical to a
//! single process fed the same op stream, then measures aggregated read
//! throughput and scatter/gather latency through the coordinator.
//!
//! Environment knobs: `BENCH_SERVER_CLIENTS` (default 8),
//! `BENCH_SERVER_REQUESTS` (per client per phase, default 250),
//! `BENCH_SERVER_DURABLE_OPS` (default 600). `BENCH_SMOKE=1` shrinks all
//! three for the CI smoke job (3 clients × 40 requests, 120 ops).

use inconsist::incremental::{IncrementalIndex, Measure, ReadMode};
use inconsist::measures::MeasureOptions;
use inconsist_formats::csv::load_csv;
use inconsist_formats::dcfile::parse_dc_file;
use inconsist_formats::opsfile::parse_ops_file;
use inconsist_server::durable::{DurabilityConfig, FsyncPolicy};
use inconsist_server::{serve, Client, Json, ServerConfig, Session};
use rand::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const BLOCKS: i64 = 60;
const ROWS_PER_BLOCK: i64 = 4;
const DC: &str = "fd: t.A = t'.A & t.B != t'.B\n";

fn fixture_csv() -> String {
    let mut csv = "A,B\n".to_string();
    for k in 0..BLOCKS {
        for j in 0..ROWS_PER_BLOCK {
            csv.push_str(&format!("{k},{}\n", ROWS_PER_BLOCK * k + j));
        }
    }
    csv
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether the CI smoke mode is on (reduced sizes, same code paths).
fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// One client's phase result: latencies (µs) and the ops it got applied.
struct ClientRun {
    latencies_us: Vec<f64>,
    ops: Vec<(u64, String)>,
}

/// Runs one phase: every client issues `requests` requests with the given
/// write percentage (0 = pure reads).
fn run_phase(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    write_pct: u32,
    seed: u64,
) -> (f64, Vec<ClientRun>) {
    let started = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|who| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + who as u64);
                let mut client = Client::connect(&addr).expect("connect");
                let mut run = ClientRun {
                    latencies_us: Vec::with_capacity(requests),
                    ops: Vec::new(),
                };
                let max_id = (BLOCKS * ROWS_PER_BLOCK) as u32 + 4096;
                for i in 0..requests {
                    let is_write = rng.gen_range(0..100) < write_pct;
                    let line = if is_write {
                        let op = match rng.gen_range(0..10) {
                            0..=6 => format!(
                                "update {} B {}",
                                rng.gen_range(0..max_id),
                                rng.gen_range(0..10_000)
                            ),
                            7 | 8 => format!(
                                "insert {},{}",
                                rng.gen_range(0..BLOCKS),
                                rng.gen_range(0..10_000)
                            ),
                            _ => format!("delete {}", rng.gen_range(0..max_id)),
                        };
                        format!(
                            "{{\"cmd\":\"op\",\"session\":\"bench\",\"ops\":{}}}",
                            Json::str(op)
                        )
                    } else if i % 7 == 0 {
                        // Heavier shared reads: `I_MC` and the per-DC
                        // drilldown lengthen the read-locked section, so
                        // overlapping shared readers are observable even
                        // on a single core (preemption mid-read).
                        "{\"cmd\":\"measure\",\"session\":\"bench\",\
                         \"measures\":[\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\",\"I_MC\"],\
                         \"per_dc\":true}"
                            .to_string()
                    } else {
                        "{\"cmd\":\"measure\",\"session\":\"bench\",\
                         \"measures\":[\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\"]}"
                            .to_string()
                    };
                    let sent = Instant::now();
                    let response = client.request(&line).expect("request");
                    run.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    let json = Json::parse(&response).expect("response JSON");
                    assert_eq!(
                        json.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "{response}"
                    );
                    if is_write {
                        let echo = json.get("ops").and_then(Json::as_arr).expect("ops echo");
                        let seq = echo[0].get("seq").and_then(Json::as_f64).expect("seq") as u64;
                        // Reconstruct the op line from the request we sent.
                        let op_line = Json::parse(&line)
                            .unwrap()
                            .get("ops")
                            .and_then(Json::as_str)
                            .unwrap()
                            .to_string();
                        run.ops.push((seq, op_line));
                    }
                }
                run
            })
        })
        .collect();
    let runs: Vec<ClientRun> = joins
        .into_iter()
        .map(|j| j.join().expect("client"))
        .collect();
    (started.elapsed().as_secs_f64(), runs)
}

/// Folds a latency sample set (µs) into the shared log2-bucket histogram
/// and returns its (p50, p99) — the same quantile code path the server's
/// `metrics` endpoint serves, so bench numbers and scrape numbers can
/// never drift apart. Cross-checks the histogram p50 against the exact
/// sorted p50: nearest-rank over log2 buckets never underestimates and
/// stays within one bucket.
fn hist_quantiles(latencies_us: &[f64]) -> (f64, f64) {
    let h = inconsist_obs::Histogram::new();
    for &v in latencies_us {
        h.record(v as u64);
    }
    let snap = h.snapshot();
    let (p50, p99) = (snap.quantile(0.50), snap.quantile(0.99));
    let mut sorted: Vec<u64> = latencies_us.iter().map(|&v| v as u64).collect();
    sorted.sort_unstable();
    if let Some(&exact) =
        sorted.get(((0.5 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1)) - 1)
    {
        assert!(
            p50 >= exact,
            "histogram p50 {p50}µs underestimates the exact sorted p50 {exact}µs"
        );
        assert!(
            inconsist_obs::bucket_index(p50).abs_diff(inconsist_obs::bucket_index(exact)) <= 1,
            "histogram p50 {p50}µs more than one log2 bucket from the exact p50 {exact}µs"
        );
    }
    (p50 as f64, p99 as f64)
}

fn session_stat(client: &mut Client, key: &str) -> f64 {
    let stats = Json::parse(
        &client
            .request("{\"cmd\":\"stats\",\"session\":\"bench\"}")
            .expect("stats"),
    )
    .expect("stats JSON");
    stats
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {key} in {stats}"))
}

/// The measures asserted identical across crash recovery and against
/// the serialized replay.
const CHECKED: [Measure; 7] = {
    use Measure::*;
    [Id, Mi, P, R, RLin, Raw, Components]
};

/// A measure response's `values`, in response order.
fn values_of(resp: &Json) -> Vec<(String, f64)> {
    match resp.get("values") {
        Some(Json::Obj(entries)) => entries
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().expect("numeric")))
            .collect(),
        other => panic!("no values: {other:?}"),
    }
}

/// The measure vector asserted identical across crash recovery.
fn session_measures(session: &Session) -> Vec<(String, f64)> {
    let names: Vec<String> = CHECKED.iter().map(|m| m.name().to_string()).collect();
    values_of(
        &session
            .measure(&names, false, &MeasureOptions::default())
            .expect("measure"),
    )
}

fn stat_f64(stats: &Json, path: &[&str]) -> f64 {
    let mut cur = stats;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("no {key} in {stats}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{path:?} not numeric"))
}

/// Overload phase: its own tiny-capacity server (global in-flight limit
/// 2) under 4× offered load. Clients never back off; every response is
/// either served or a well-formed `overloaded` shed. Reports the shed
/// rate and the latency distribution of *admitted* requests — the
/// admission-control promise is that p99-under-overload stays bounded
/// because excess work is refused instead of queued. Asserts sheds
/// actually happened and that the in-flight high-water never passed the
/// limit. Returns the JSON entry.
fn overload_run(csv: &str, requests: usize) -> String {
    const MAX_INFLIGHT: u64 = 2;
    const OVERLOAD_FACTOR: usize = 4;
    let clients = (MAX_INFLIGHT as usize) * OVERLOAD_FACTOR;
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clients + 1,
        solve_threads: 1,
        max_inflight: MAX_INFLIGHT,
        retry_after_ms: 5,
        ..ServerConfig::default()
    })
    .expect("bind overload server");
    let addr = handle.addr();
    let mut admin = Client::connect(&addr).expect("connect admin");
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"hot\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv.to_string()),
        Json::str(DC)
    );
    let created = Json::parse(&admin.request(&create).expect("create")).unwrap();
    assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));

    let started = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|who| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x0BEEF + who as u64);
                let mut client = Client::connect(&addr).expect("connect");
                let mut admitted_us: Vec<f64> = Vec::with_capacity(requests);
                let mut shed = 0u64;
                let max_id = (BLOCKS * ROWS_PER_BLOCK) as u32 + 4096;
                for i in 0..requests {
                    // 10% writes keep components dirty so reads upgrade to
                    // the write lock — sustained pressure, not cache hits.
                    let line = if rng.gen_range(0..100) < 10 {
                        format!(
                            "{{\"cmd\":\"op\",\"session\":\"hot\",\"ops\":{}}}",
                            Json::str(format!(
                                "update {} B {}",
                                rng.gen_range(0..max_id),
                                rng.gen_range(0..10_000)
                            ))
                        )
                    } else if i % 5 == 0 {
                        "{\"cmd\":\"measure\",\"session\":\"hot\",\
                         \"measures\":[\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\",\"I_MC\"],\
                         \"per_dc\":true}"
                            .to_string()
                    } else {
                        "{\"cmd\":\"measure\",\"session\":\"hot\",\
                         \"measures\":[\"I_MI\",\"I_R\",\"I_R^lin\"]}"
                            .to_string()
                    };
                    let sent = Instant::now();
                    let response = client.request(&line).expect("request");
                    let elapsed_us = sent.elapsed().as_secs_f64() * 1e6;
                    let json = Json::parse(&response).expect("response JSON");
                    match json.get("kind").and_then(Json::as_str) {
                        Some("overloaded") => {
                            // A shed must be machine-actionable.
                            assert!(
                                json.get("retry_after_ms").and_then(Json::as_f64).is_some(),
                                "{response}"
                            );
                            shed += 1;
                        }
                        _ => {
                            assert_eq!(
                                json.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "{response}"
                            );
                            admitted_us.push(elapsed_us);
                        }
                    }
                }
                (admitted_us, shed)
            })
        })
        .collect();
    let mut admitted_us: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for join in joins {
        let (us, s) = join.join().expect("overload client");
        admitted_us.extend(us);
        shed += s;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (admitted_p50, admitted_p99) = hist_quantiles(&admitted_us);

    let stats = Json::parse(&admin.request("{\"cmd\":\"stats\"}").expect("stats")).unwrap();
    let high_water = stat_f64(&stats, &["server", "admission", "inflight_high_water"]);
    assert!(
        high_water <= MAX_INFLIGHT as f64,
        "admission bound violated: high water {high_water} > {MAX_INFLIGHT}"
    );
    admin.request("{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle.wait();

    let attempts = (clients * requests) as u64;
    assert!(
        shed > 0,
        "{OVERLOAD_FACTOR}x over-capacity load produced no sheds — admission control inert"
    );
    assert!(!admitted_us.is_empty(), "overload starved every request");
    let shed_rate = shed as f64 / attempts as f64;
    println!(
        "bench_server/overload   {clients} clients vs {MAX_INFLIGHT} in-flight slots: \
         {attempts} attempts, {shed} shed ({:.0}%), admitted p50 {:.0}µs p99 {:.0}µs, \
         high water {high_water:.0}",
        shed_rate * 100.0,
        admitted_p50,
        admitted_p99,
    );
    format!(
        "    {{\"phase\": \"overload\", \"clients\": {clients}, \"max_inflight\": {MAX_INFLIGHT}, \
         \"attempts\": {attempts}, \"admitted\": {}, \"shed\": {shed}, \
         \"shed_rate\": {shed_rate:.4}, \"elapsed_sec\": {elapsed:.3}, \
         \"admitted_rps\": {:.1}, \"admitted_p50_us\": {:.1}, \"admitted_p99_us\": {:.1}, \
         \"inflight_high_water\": {high_water}}}",
        admitted_us.len(),
        admitted_us.len() as f64 / elapsed,
        admitted_p50,
        admitted_p99,
    )
}

/// Sharded phase: a coordinator fronting two local worker shards, every
/// leg over real TCP. The same sessions and the same deterministic op
/// stream are applied to a single-process reference and to the sharded
/// topology, and the `measure_all` aggregate must be **bit-identical**
/// across the two before any load runs (the ascending-name 0.0-seeded
/// fold contract). Then `clients` threads drive an aggregated read
/// workload through the coordinator — 3/4 per-session forwards, 1/4
/// scatter/gather `measure_all` — reporting aggregated read throughput
/// and the scatter/gather latency distribution, plus the coordinator's
/// own `coord_scatter_gather_us` histogram p99 from its metrics
/// endpoint. Returns the JSON entry.
fn sharded_run(csv: &str, clients: usize, requests: usize) -> String {
    use inconsist_server::{ClientBuilder, CoordinatorConfig};
    const SESSIONS: [&str; 4] = ["s0", "s1", "s2", "s3"];
    const AGG: [&str; 4] = ["I_MI", "I_P", "I_R", "I_R^lin"];
    let worker_config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        solve_threads: 1,
        ..ServerConfig::default()
    };
    let single = serve(worker_config()).expect("bind single reference");
    let worker0 = serve(worker_config()).expect("bind worker 0");
    let worker1 = serve(worker_config()).expect("bind worker 1");
    let coordinator = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clients + 2,
        coordinator: Some(CoordinatorConfig::new(vec![worker0.addr(), worker1.addr()])),
        ..ServerConfig::default()
    })
    .expect("bind coordinator");
    let coord_addr = coordinator.addr();
    let mut single_client = ClientBuilder::new(single.addr())
        .connect()
        .expect("connect single");
    let mut coord_client = ClientBuilder::new(coord_addr)
        .connect()
        .expect("connect coordinator");
    assert_eq!(
        coord_client.negotiated().expect("handshake").role,
        "coordinator"
    );
    for name in SESSIONS {
        single_client.create(name, csv, DC).expect("create single");
        coord_client.create(name, csv, DC).expect("create sharded");
    }
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    let max_id = (BLOCKS * ROWS_PER_BLOCK) as u32;
    for _ in 0..requests.min(200) {
        let name = SESSIONS[rng.gen_range(0..SESSIONS.len())];
        let op = format!(
            "update {} B {}",
            rng.gen_range(0..max_id),
            rng.gen_range(0..10_000)
        );
        single_client
            .session(name)
            .apply_ops(&op, None)
            .expect("single op");
        coord_client
            .session(name)
            .apply_ops(&op, None)
            .expect("sharded op");
    }
    // 1-process vs sharded bit-identity: the rendered `values` objects
    // are equal strings iff the f64 bits are equal.
    let want = single_client
        .measure_all(&AGG, false)
        .expect("single measure_all");
    let got = coord_client
        .measure_all(&AGG, false)
        .expect("sharded measure_all");
    assert_eq!(
        want.get("values").expect("values").to_string(),
        got.get("values").expect("values").to_string(),
        "sharded aggregate diverged from the single process"
    );

    let started = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|who| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5C4772 + who as u64);
                let mut client = ClientBuilder::new(coord_addr)
                    .handshake(false)
                    .connect()
                    .expect("connect load client");
                let mut scatter_us: Vec<f64> = Vec::new();
                let mut forward_us: Vec<f64> = Vec::new();
                for i in 0..requests {
                    let sent = Instant::now();
                    if i % 4 == 0 {
                        let json = client.measure_all(&AGG, false).expect("measure_all");
                        assert_eq!(
                            json.get("sessions").and_then(Json::as_f64),
                            Some(SESSIONS.len() as f64)
                        );
                        scatter_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    } else {
                        let name = SESSIONS[rng.gen_range(0..SESSIONS.len())];
                        client
                            .session(name)
                            .measure(&["I_MI", "I_P"])
                            .expect("forwarded measure");
                        forward_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    }
                }
                (scatter_us, forward_us)
            })
        })
        .collect();
    let mut scatter_us: Vec<f64> = Vec::new();
    let mut forward_us: Vec<f64> = Vec::new();
    for join in joins {
        let (s, f) = join.join().expect("sharded load client");
        scatter_us.extend(s);
        forward_us.extend(f);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total = scatter_us.len() + forward_us.len();
    let aggregated_rps = total as f64 / elapsed;
    let (scatter_p50, scatter_p99) = hist_quantiles(&scatter_us);
    let (forward_p50, forward_p99) = hist_quantiles(&forward_us);

    // The coordinator's own scatter/gather histogram, from the same
    // metrics endpoint operators scrape.
    let metrics = coord_client
        .call_line("{\"cmd\":\"metrics\"}")
        .expect("metrics");
    let coord_sg_p99 = metrics
        .get("metrics")
        .and_then(|m| m.get("coord_scatter_gather_us"))
        .and_then(|h| h.get("p99"))
        .and_then(Json::as_f64)
        .expect("coord_scatter_gather_us histogram");

    coord_client
        .call_line("{\"cmd\":\"shutdown\"}")
        .expect("coordinator shutdown");
    coordinator.wait();
    for handle in [single, worker0, worker1] {
        handle.stop();
    }
    println!(
        "bench_server/sharded    {clients} clients over 2 shards: {total} reqs, \
         {aggregated_rps:.0} req/s, forward p99 {forward_p99:.0}µs, \
         scatter/gather p99 {scatter_p99:.0}µs (coordinator-side {coord_sg_p99:.0}µs), \
         aggregate bit-identical"
    );
    format!(
        "    {{\"phase\": \"sharded\", \"shards\": 2, \"sessions\": {}, \
         \"clients\": {clients}, \"requests\": {total}, \"elapsed_sec\": {elapsed:.3}, \
         \"aggregated_read_rps\": {aggregated_rps:.1}, \
         \"forward_p50_us\": {forward_p50:.1}, \"forward_p99_us\": {forward_p99:.1}, \
         \"scatter_gather_p50_us\": {scatter_p50:.1}, \
         \"scatter_gather_p99_us\": {scatter_p99:.1}, \
         \"coord_scatter_gather_p99_us\": {coord_sg_p99:.1}, \"identical\": true}}",
        SESSIONS.len()
    )
}

/// Resident set size of this process in kB (0 when /proc is missing).
fn vm_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Front-end phases on their own server (2 event threads): a pipelined
/// burst of reads down one connection (`pipelined_reqs_per_s`), then a
/// big fleet of idle connections held open while an active client keeps
/// getting served (`idle_conn_kb` = RSS growth per held connection).
/// The full-size run holds >1000 connections — the multiplexed front
/// end's headline claim; the smoke run shrinks the fleet, same paths.
fn frontend_run(csv: &str) -> (String, String) {
    let (n_idle, batch) = if smoke() { (150, 400) } else { (1100, 4000) };
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        solve_threads: 1,
        event_threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind front-end server");
    let addr = handle.addr();
    let mut admin = Client::connect(&addr).expect("connect admin");
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"fe\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv.to_string()),
        Json::str(DC)
    );
    let created = Json::parse(&admin.request(&create).expect("create")).unwrap();
    assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));
    let read = "{\"cmd\":\"measure\",\"session\":\"fe\",\"measures\":[\"I_MI\"]}";
    admin.request(read).expect("warm the caches");

    // Pipelined: one connection, `batch` requests written ahead of the
    // reads (a writer thread keeps the burst flowing once the server's
    // pipeline bound applies read backpressure).
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connect pipelined");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let burst = format!("{read}\n").repeat(batch);
    let started = Instant::now();
    let writer = std::thread::spawn(move || {
        (&stream).write_all(burst.as_bytes()).expect("burst write");
        stream
    });
    let mut line = String::new();
    for i in 0..batch {
        line.clear();
        reader.read_line(&mut line).expect("pipelined response");
        assert!(line.contains("\"ok\":true"), "request {i}: {line}");
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(writer.join().expect("burst writer"));
    let pipelined_rps = batch as f64 / elapsed;
    println!(
        "bench_server/pipelined  1 connection, {batch} requests in flight: \
         {pipelined_rps:.0} req/s"
    );
    let pipelined_entry = format!(
        "    {{\"phase\": \"pipelined\", \"requests\": {batch}, \
         \"elapsed_sec\": {elapsed:.3}, \"pipelined_reqs_per_s\": {pipelined_rps:.1}}}"
    );

    // Idle fleet: every connection proves liveness with one ping, then
    // just sits there while the admin keeps issuing real reads.
    let rss_before = vm_rss_kb();
    let idle: Vec<Client> = (0..n_idle)
        .map(|i| {
            let mut c = Client::connect(&addr).unwrap_or_else(|e| panic!("idle connect #{i}: {e}"));
            let pong = c.request("{\"cmd\":\"ping\"}").expect("idle ping");
            assert!(pong.contains("\"pong\":true"), "{pong}");
            c
        })
        .collect();
    let rss_after = vm_rss_kb();
    let idle_conn_kb = (rss_after - rss_before).max(0.0) / n_idle as f64;

    let active_requests = if smoke() { 60 } else { 400 };
    let mut active_us: Vec<f64> = Vec::with_capacity(active_requests);
    for _ in 0..active_requests {
        let sent = Instant::now();
        let response = admin.request(read).expect("active read");
        active_us.push(sent.elapsed().as_secs_f64() * 1e6);
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let (active_p50, active_p99) = hist_quantiles(&active_us);

    let stats = Json::parse(&admin.request("{\"cmd\":\"stats\"}").expect("stats")).unwrap();
    let open = stat_f64(&stats, &["server", "open_connections"]);
    assert!(
        open >= n_idle as f64,
        "only {open} connections concurrently open, expected >= {n_idle}"
    );
    drop(idle);
    admin.request("{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle.wait();
    println!(
        "bench_server/idle_fleet {n_idle} held connections ({open:.0} open), \
         {idle_conn_kb:.1} kB each, active p99 {active_p99:.0}µs",
    );
    let idle_entry = format!(
        "    {{\"phase\": \"many_idle_clients\", \"connections\": {n_idle}, \
         \"open_connections\": {open}, \"idle_conn_kb\": {idle_conn_kb:.2}, \
         \"active_p50_us\": {active_p50:.1}, \"active_p99_us\": {active_p99:.1}}}",
    );
    (pipelined_entry, idle_entry)
}

/// One durability run: write-only op stream through a durable session
/// under `fsync`, midpoint snapshot, simulated crash, timed recovery,
/// bit-identity assert. Returns the JSON entry.
fn durability_run(csv: &str, fsync: FsyncPolicy, ops_count: usize, seed: u64) -> String {
    let data_dir = std::env::temp_dir().join(format!(
        "inconsist-bench-durable-{}-{}",
        std::process::id(),
        fsync.name()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = DurabilityConfig {
        data_dir: data_dir.clone(),
        fsync,
        snapshot_every: None,
        segment_bytes: None,
    };
    let session = Session::open(
        "bench",
        csv,
        DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        Some(&cfg),
    )
    .expect("open durable session");
    let mut rng = StdRng::seed_from_u64(seed);
    let max_id = (BLOCKS * ROWS_PER_BLOCK) as u32 + ops_count as u32;
    let mut latencies: Vec<f64> = Vec::with_capacity(ops_count);
    let started = Instant::now();
    for i in 0..ops_count {
        let op = match rng.gen_range(0..10) {
            0..=6 => format!(
                "update {} B {}",
                rng.gen_range(0..max_id),
                rng.gen_range(0..10_000)
            ),
            7 | 8 => format!(
                "insert {},{}",
                rng.gen_range(0..BLOCKS),
                rng.gen_range(0..10_000)
            ),
            _ => format!("delete {}", rng.gen_range(0..max_id)),
        };
        let sent = Instant::now();
        session.apply_ops(&op).expect("durable op");
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
        if i == ops_count / 2 {
            session.snapshot().expect("midpoint snapshot");
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (p50_us, p99_us) = hist_quantiles(&latencies);
    let stats = session.stats();
    let log_bytes = stat_f64(&stats, &["durability", "appended_bytes"]);
    let logical_bytes = stat_f64(&stats, &["durability", "logical_bytes"]);
    let amplification = log_bytes / logical_bytes;
    let expected = session_measures(&session);
    drop(session); // kill -9: no shutdown snapshot, log tail left behind

    let recover_started = Instant::now();
    let recovered = Session::recover(&cfg, "bench", 1, MeasureOptions::default()).expect("recover");
    let recover_ms = recover_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        session_measures(&recovered),
        expected,
        "recovered measures diverged from the pre-crash session ({})",
        fsync.name()
    );
    let rstats = recovered.stats();
    let replayed = stat_f64(&rstats, &["durability", "recovery", "replayed"]);
    let snapshot_seq = stat_f64(&rstats, &["durability", "recovery", "snapshot_seq"]);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&data_dir);
    println!(
        "bench_server/durability fsync={:<6} {ops_count} ops, {:.0} ops/s, \
         p99 {:.0}µs, write amp {:.2}x, recovery {recover_ms:.1}ms \
         ({replayed:.0} replayed over snapshot seq {snapshot_seq:.0})",
        fsync.name(),
        ops_count as f64 / elapsed,
        p99_us,
        amplification,
    );
    format!(
        "    {{\"fsync\": \"{}\", \"ops\": {ops_count}, \"ops_per_sec\": {:.1}, \
         \"p50_us\": {p50_us:.1}, \"p99_us\": {p99_us:.1}, \"log_bytes\": {log_bytes}, \
         \"logical_bytes\": {logical_bytes}, \"write_amplification\": {amplification:.4}, \
         \"snapshot_seq\": {snapshot_seq}, \"replayed\": {replayed}, \
         \"recovery_ms\": {recover_ms:.2}, \"identical\": true}}",
        fsync.name(),
        ops_count as f64 / elapsed,
    )
}

fn main() {
    // Honor the same id filter as the criterion shim so filtered bench
    // runs targeting another group skip the load test.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .or_else(|| std::env::var("BENCH_FILTER").ok());
    if let Some(f) = filter {
        if !"server_load durability overload frontend pipelined idle sharded".contains(f.as_str()) {
            println!("bench_server: skipped by filter `{f}`");
            return;
        }
    }
    let (default_clients, default_requests, default_durable_ops) =
        if smoke() { (3, 40, 120) } else { (8, 250, 600) };
    let clients = env_usize("BENCH_SERVER_CLIENTS", default_clients);
    let requests = env_usize("BENCH_SERVER_REQUESTS", default_requests);
    let durable_ops = env_usize("BENCH_SERVER_DURABLE_OPS", default_durable_ops);
    let csv = fixture_csv();

    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clients + 2,
        solve_threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut admin = Client::connect(&addr).expect("connect admin");
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"bench\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv.clone()),
        Json::str(DC)
    );
    let created = Json::parse(&admin.request(&create).expect("create")).unwrap();
    assert_eq!(
        created.get("ok").and_then(Json::as_bool),
        Some(true),
        "{created}"
    );

    let mut all_ops: Vec<(u64, String)> = Vec::new();
    let mut phase_entries = String::new();
    let mut prev_shared = 0.0;
    let mut prev_exclusive = 0.0;
    for (phase, write_pct) in [("read_heavy", 10u32), ("mixed", 50), ("read_only", 0)] {
        let (elapsed, runs) = run_phase(
            addr,
            clients,
            requests,
            write_pct,
            0xC0FFEE + write_pct as u64,
        );
        let mut latencies: Vec<f64> = Vec::new();
        for run in runs {
            latencies.extend_from_slice(&run.latencies_us);
            all_ops.extend(run.ops);
        }
        let (p50_us, p99_us) = hist_quantiles(&latencies);
        let total = latencies.len();
        let shared = session_stat(&mut admin, "shared_reads");
        let exclusive = session_stat(&mut admin, "exclusive_reads");
        let high_water = session_stat(&mut admin, "max_concurrent_shared_reads");
        if !phase_entries.is_empty() {
            phase_entries.push_str(",\n");
        }
        phase_entries.push_str(&format!(
            "    {{\"phase\": \"{phase}\", \"write_pct\": {write_pct}, \"requests\": {total}, \
             \"elapsed_sec\": {elapsed:.3}, \"throughput_rps\": {:.1}, \
             \"p50_us\": {p50_us:.1}, \"p99_us\": {p99_us:.1}, \
             \"shared_reads\": {}, \"exclusive_reads\": {}, \
             \"max_concurrent_shared_reads\": {}}}",
            total as f64 / elapsed,
            shared - prev_shared,
            exclusive - prev_exclusive,
            high_water,
        ));
        prev_shared = shared;
        prev_exclusive = exclusive;
        println!(
            "bench_server/{phase:<10} {clients} clients, {total} reqs, \
             {:.0} req/s, p50 {p50_us:.0}µs, p99 {p99_us:.0}µs, shared {} / exclusive {}",
            total as f64 / elapsed,
            shared,
            exclusive,
        );
    }
    let high_water = session_stat(&mut admin, "max_concurrent_shared_reads");
    if high_water < 2.0 {
        println!(
            "note: max_concurrent_shared_reads = {high_water} — shared reads never \
             overlapped (single-core machine?)"
        );
    }

    // Final measures as served, then shut the server down.
    let names = Json::Arr(CHECKED.iter().map(|m| Json::str(m.name())).collect());
    let final_read = admin
        .request(&format!(
            "{{\"cmd\":\"measure\",\"session\":\"bench\",\"measures\":{names}}}"
        ))
        .expect("final measure");
    let served = values_of(&Json::parse(&final_read).unwrap());
    // Observability: the gate's read-ladder and solve-latency numbers
    // come from the same `metrics` endpoint operators scrape, not from a
    // private tally.
    let metrics = Json::parse(&admin.request("{\"cmd\":\"metrics\"}").expect("metrics")).unwrap();
    let m = metrics.get("metrics").expect("metrics body");
    let rung = |r: &str| {
        m.get(&format!(
            "session_read_rung_total{{session=\"bench\",rung=\"{r}\"}}"
        ))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
    };
    let cache_hits = rung("cache_hit");
    let ladder_reads = cache_hits + rung("warm") + rung("partial") + rung("stale");
    let cache_hit_ratio = if ladder_reads > 0.0 {
        cache_hits / ladder_reads
    } else {
        0.0
    };
    let solve_p99_us = m
        .get("solve.dirty_component")
        .and_then(|h| h.get("p99"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!(
        "bench_server/obs        read-ladder cache-hit ratio {cache_hit_ratio:.3} \
         ({cache_hits:.0}/{ladder_reads:.0}), dirty-component solve p99 {solve_p99_us:.0}µs"
    );
    let observability_entry = format!(
        "    {{\"scope\": \"run\", \"read_ladder_cache_hit_ratio\": {cache_hit_ratio:.4}, \
         \"solve_p99_us\": {solve_p99_us:.1}}}"
    );

    admin.request("{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle.wait();

    // Serialized replay: the server's op sequence through a fresh index.
    all_ops.sort_by_key(|(seq, _)| *seq);
    let loaded = load_csv(&csv, "bench").unwrap();
    let dcs = parse_dc_file(&loaded.schema, "bench", DC).unwrap();
    let mut cs = inconsist::constraints::ConstraintSet::new(Arc::clone(&loaded.schema));
    for dc in dcs {
        cs.add_dc(dc);
    }
    let rel_schema = loaded.db.relation_schema(loaded.rel).clone();
    let mut idx = IncrementalIndex::build(loaded.db, cs).unwrap();
    for (_, op_line) in &all_ops {
        let ops = parse_ops_file(&rel_schema, loaded.rel, op_line).unwrap();
        idx.apply(&ops[0]);
    }
    let opts = MeasureOptions::default();
    let expected: Vec<(String, f64)> = CHECKED
        .iter()
        .map(|&m| {
            let v = idx.measure(m, &opts, None).expect("in budget");
            (m.name().to_string(), v.value)
        })
        .collect();
    assert_eq!(
        served,
        expected,
        "served measures diverged from the serialized replay of {} ops",
        all_ops.len()
    );
    println!(
        "bench_server/replay     {} ops replayed serially: measures bit-identical",
        all_ops.len()
    );

    // Durability: write amplification and crash-recovery time per fsync
    // policy, with the recovery bit-identity asserted inside each run.
    let durability_entries = [FsyncPolicy::Never, FsyncPolicy::Always]
        .iter()
        .map(|&fsync| durability_run(&csv, fsync, durable_ops, 0xD0_0DAD))
        .collect::<Vec<_>>()
        .join(",\n");

    // Overload: offered load 4× over a tiny admission capacity, on its
    // own server so the shed storm cannot pollute the phase numbers.
    let overload_requests = if smoke() { 60 } else { 250 };
    let overload_entry = overload_run(&csv, overload_requests);

    // Front end: pipelining throughput and the held-open idle fleet.
    let (pipelined_entry, idle_entry) = frontend_run(&csv);

    // Scale-out: coordinator + 2 local worker shards, aggregate
    // bit-identity asserted before the load runs.
    let sharded_requests = if smoke() { 40 } else { 200 };
    let sharded_entry = sharded_run(&csv, clients.min(6), sharded_requests);

    let json = format!(
        "{{\n  \"bench\": \"bench_server\",\n  \"workload\": {{\"blocks\": {BLOCKS}, \
         \"tuples\": {}, \"clients\": {clients}, \"requests_per_client\": {requests}}},\n  \
         \"phases\": [\n{phase_entries}\n  ],\n  \"replay\": {{\"ops\": {}, \
         \"identical\": true}},\n  \"durability\": [\n{durability_entries}\n  ],\n  \
         \"overload\": [\n{overload_entry}\n  ],\n  \
         \"frontend\": [\n{pipelined_entry},\n{idle_entry}\n  ],\n  \
         \"sharded\": [\n{sharded_entry}\n  ],\n  \
         \"observability\": [\n{observability_entry}\n  ]\n}}\n",
        BLOCKS * ROWS_PER_BLOCK,
        all_ops.len()
    );
    let path = std::env::var("BENCH_SERVER_JSON").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/bench_server.json"
        )
        .to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote JSON summary to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
}
