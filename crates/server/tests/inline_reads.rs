//! Warm reads on the event thread: a `measure` or `tuple_measures` whose
//! session answers from caches is served by the event thread that parsed
//! it, and everything else still goes to the worker pool.
//!
//! The properties pinned here are the ones the skipped round trip must
//! not change: a session pinned behind a writer sends its reads to the
//! pool without delaying any other connection, responses keep their
//! order, every served value equals an in-process replay bit for bit,
//! and each request line is counted exactly once.

use inconsist::incremental::ReadMode;
use inconsist::measures::MeasureOptions;
use inconsist_obs::Value;
use inconsist_server::{serve, Client, Json, ServerConfig, ServerHandle, Session};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CSV: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,IT,4\nNice,FR,5\n";
const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

fn ok(response: &str) -> Json {
    let json = Json::parse(response).expect("valid JSON response");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    json
}

fn create(c: &mut Client, session: &str) {
    ok(&c
        .request(&format!(
            "{{\"cmd\":\"create\",\"session\":\"{session}\",\"csv\":{},\"dc\":{}}}",
            Json::str(CSV),
            Json::str(DC)
        ))
        .unwrap());
}

fn measure_line(session: &str, names: &str) -> String {
    format!("{{\"cmd\":\"measure\",\"session\":\"{session}\",\"measures\":[{names}]}}")
}

/// A server metric's current value, read in process (no request is
/// sent, so nothing is counted by reading it).
fn metric(handle: &ServerHandle, name: &str) -> u64 {
    let samples = handle.registry().metrics_samples();
    let sample = samples
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no metric `{name}`"));
    match sample.value {
        Value::Counter(v) => v,
        Value::Gauge { value, .. } => value,
        Value::Histogram(_) => panic!("`{name}` is a histogram"),
    }
}

fn inline_reads(handle: &ServerHandle) -> u64 {
    metric(handle, "server_inline_reads_total")
}

/// `server_requests_total` summed over `kinds`; a kind not yet answered
/// has no series and counts 0.
fn requests_of(handle: &ServerHandle, kinds: &[&str]) -> u64 {
    let series: Vec<String> = kinds
        .iter()
        .map(|kind| format!("server_requests_total{{kind=\"{kind}\"}}"))
        .collect();
    let samples = handle.registry().metrics_samples();
    let sent = samples.iter().filter(|s| series.contains(&s.name));
    sent.map(|s| metric(handle, &s.name)).sum()
}

#[test]
fn a_locked_session_falls_back_to_the_pool_without_stalling_others() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut c = Client::connect(&addr).unwrap();
    let names = "\"I_MI\",\"I_P\",\"I_R\"";
    let mut warm = Vec::new();
    for session in ["held", "free"] {
        create(&mut c, session);
        // The first read fills the caches, the second answers from them.
        ok(&c.request(&measure_line(session, names)).unwrap());
        warm.push(ok(&c.request(&measure_line(session, names)).unwrap()));
    }
    let start = inline_reads(&handle);

    let held = handle.registry().get("held").unwrap();
    let guard = held.hold_write_lock();
    let reads = [
        measure_line("held", names),
        "{\"cmd\":\"tuple_measures\",\"session\":\"held\",\"k\":3}".to_string(),
        measure_line("held", names),
    ];
    let mut pinned = TcpStream::connect(addr).unwrap();
    pinned
        .write_all(format!("{}\n", reads.join("\n")).as_bytes())
        .unwrap();
    // The first read is admitted on a worker, which waits for the lock;
    // the other two queue behind it on their connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metric(&handle, "admission_inflight") != 1 {
        assert!(
            Instant::now() < deadline,
            "the held read never reached the pool"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        inline_reads(&handle),
        start,
        "a held session answered inline"
    );

    // Another connection's warm read of another session answers inline,
    // and so does its ping, while the lock is still held.
    let free = ok(&c.request(&measure_line("free", names)).unwrap());
    assert_eq!(free.to_string(), warm[1].to_string());
    assert_eq!(inline_reads(&handle), start + 1);
    let pong = ok(&c.request("{\"cmd\":\"ping\"}").unwrap());
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    // Nothing has come back on the pinned connection yet.
    pinned
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut byte = [0u8; 1];
    let early = pinned.read(&mut byte);
    assert!(
        matches!(&early, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "a read of a held session answered: {early:?}"
    );

    drop(guard);
    pinned
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut lines = BufReader::new(pinned).lines();
    let mut responses = Vec::new();
    for _ in &reads {
        responses.push(ok(&lines.next().expect("a response").unwrap()));
    }
    assert_eq!(responses[0].to_string(), warm[0].to_string());
    assert_eq!(responses[2].to_string(), warm[0].to_string());
    assert_eq!(
        responses[1].get("path").and_then(Json::as_str),
        Some("shared")
    );
    // The held read went through the pool; the two queued behind it ran
    // after the release, when the lock was free, so inline.
    assert_eq!(inline_reads(&handle), start + 3);
    handle.stop();
}

#[test]
fn a_mixed_pipeline_answers_in_order_with_replayed_values() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut c = Client::connect(&addr).unwrap();
    create(&mut c, "mix");
    let names = "\"I_d\",\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\"";
    let lines = [
        measure_line("mix", names),
        "{\"cmd\":\"op\",\"session\":\"mix\",\"ops\":\"insert Nice,DE,6\"}".to_string(),
        measure_line("mix", names),
        measure_line("mix", names),
        "{\"cmd\":\"tuple_measures\",\"session\":\"mix\",\"k\":10}".to_string(),
        measure_line("mix", "\"I_MC\""),
        "{\"cmd\":\"tuple_measures\",\"session\":\"mix\",\"k\":300}".to_string(),
    ];

    // The same lines against an in-process session, in order.
    let replay = Session::open(
        "mix",
        CSV,
        DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        None,
    )
    .unwrap();
    let opts = MeasureOptions::default();
    let mut expected = Vec::new();
    let mut expected_inline = 0;
    for line in &lines {
        let request = Json::parse(line).unwrap();
        let field = |key: &str| request.get(key).cloned().unwrap();
        let response = match field("cmd").as_str().unwrap() {
            "measure" => {
                let measures: Vec<String> = field("measures")
                    .as_arr()
                    .unwrap()
                    .iter()
                    .map(|m| m.as_str().unwrap().to_string())
                    .collect();
                let response = replay.measure(&measures, false, &opts).unwrap();
                let warm = response.get("path").and_then(Json::as_str) == Some("shared");
                if warm && !measures.iter().any(|m| m == "I_MC") {
                    expected_inline += 1;
                }
                response
            }
            "tuple_measures" => {
                let k = field("k").as_f64().unwrap() as usize;
                let response = replay.tuple_measures(k, None).unwrap();
                let warm = response.get("path").and_then(Json::as_str) == Some("shared");
                // 16: the largest `k` the event thread answers.
                if warm && k <= 16 {
                    expected_inline += 1;
                }
                response
            }
            _ => replay.apply_ops(field("ops").as_str().unwrap()).unwrap(),
        };
        expected.push(response);
    }
    // The first read and the one after the write fill the caches; the
    // next read and the top-10 answer from them. The `I_MC` read and the
    // top-300 are warm too, but not served inline.
    let paths: Vec<&str> = expected
        .iter()
        .filter_map(|r| r.get("path").and_then(Json::as_str))
        .collect();
    assert_eq!(
        paths,
        [
            "exclusive",
            "exclusive",
            "shared",
            "shared",
            "shared",
            "shared"
        ]
    );
    assert_eq!(expected_inline, 2);

    let requests = handle.requests_served();
    let kinds = ["measure", "op", "tuple_measures"];
    let per_kind = requests_of(&handle, &kinds);
    let inline = inline_reads(&handle);
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("{}\n", lines.join("\n")).as_bytes())
        .unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut served = BufReader::new(conn).lines();
    for want in &expected {
        let got = ok(&served.next().expect("a response").unwrap());
        assert_eq!(got.to_string(), want.to_string());
    }
    assert_eq!(inline_reads(&handle) - inline, expected_inline);
    assert_eq!(handle.requests_served() - requests, lines.len() as u64);
    // Each answered request is counted once under its kind, inline or not.
    assert_eq!(requests_of(&handle, &kinds) - per_kind, lines.len() as u64);
    handle.stop();
}

#[test]
fn a_deep_pipeline_of_warm_reads_is_not_all_answered_inline() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut c = Client::connect(&addr).unwrap();
    create(&mut c, "deep");
    let line = measure_line("deep", "\"I_MI\",\"I_P\"");
    // The first read fills the caches, the second answers from them.
    ok(&c.request(&line).unwrap());
    let want = ok(&c.request(&line).unwrap());
    let start = inline_reads(&handle);

    // Twelve warm reads in one write: the event thread answers a few of
    // the queue itself and sends the next one to the pool, so the other
    // connections on that thread never wait behind all twelve.
    let reads = vec![line; 12];
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("{}\n", reads.join("\n")).as_bytes())
        .unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut served = BufReader::new(conn).lines();
    for _ in &reads {
        let got = ok(&served.next().expect("a response").unwrap());
        assert_eq!(got.to_string(), want.to_string());
    }
    let inline = inline_reads(&handle) - start;
    assert!(
        (1..reads.len() as u64).contains(&inline),
        "{inline} of {} pipelined reads answered inline",
        reads.len()
    );
    handle.stop();
}
