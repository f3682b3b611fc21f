//! Admission-control properties: racing clients can never push a session
//! past its in-flight bound, every shed is a well-formed wire response
//! with `kind:"overloaded"` and a `retry_after_ms` hint, and a client
//! retrying with backoff eventually gets through once load drains.

use inconsist::incremental::ReadMode;
use inconsist::measures::MeasureOptions;
use inconsist_server::{serve, Client, Json, RetryPolicy, ServerConfig, Session};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CSV: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,FR,4\n";
const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

fn session() -> Session {
    Session::open(
        "t",
        CSV,
        DC,
        ReadMode::Component,
        1,
        MeasureOptions::default(),
        None,
    )
    .unwrap()
}

/// Asserts an overloaded error serializes as well-formed wire JSON: the
/// line parses, `kind` is `"overloaded"`, and the backoff hint is a
/// machine-readable number.
fn assert_overloaded_wire_shape(line: &str, retry_after_ms: f64) {
    let json = Json::parse(line).expect("shed responses must parse");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(false),
        "{line}"
    );
    assert_eq!(
        json.get("kind").and_then(Json::as_str),
        Some("overloaded"),
        "{line}"
    );
    assert_eq!(
        json.get("retry_after_ms").and_then(Json::as_f64),
        Some(retry_after_ms),
        "{line}"
    );
    assert!(json.get("error").and_then(Json::as_str).is_some(), "{line}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Threads race `admit` against one session: the observed in-flight
    /// high water never exceeds the limit, every refusal is a well-formed
    /// `overloaded` wire object, and the gauge drains back to zero.
    #[test]
    fn racing_admits_never_exceed_the_limit(
        limit in 1u64..4,
        threads in 2usize..6,
        rounds in 1usize..25,
    ) {
        let s = Arc::new(session());
        let sheds_seen = Arc::new(AtomicU64::new(0));
        let joins: Vec<_> = (0..threads)
            .map(|_| {
                let s = Arc::clone(&s);
                let sheds_seen = Arc::clone(&sheds_seen);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        match s.admit(limit, 25) {
                            Ok(_guard) => std::thread::yield_now(),
                            Err(e) => {
                                sheds_seen.fetch_add(1, Ordering::SeqCst);
                                assert_overloaded_wire_shape(&e.to_json().to_string(), 25.0);
                            }
                        }
                    }
                })
            })
            .collect();
        for join in joins {
            join.join().unwrap();
        }
        let c = s.counters();
        let high_water = c.inflight.high_water();
        prop_assert!(high_water <= limit, "high water {high_water} > limit {limit}");
        prop_assert_eq!(c.inflight.get(), 0u64);
        prop_assert_eq!(c.shed.get(), sheds_seen.load(Ordering::SeqCst));
    }
}

/// End-to-end queue shedding: with one worker and a one-deep queue, a
/// third work request is shed with a well-formed `overloaded` line — but
/// the connection *stays open* (shedding is per-request now, not
/// per-connection), control requests still answer, and a client retrying
/// with backoff gets served once the queue drains.
#[test]
fn full_request_queue_sheds_then_a_retrying_client_gets_through() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_limit: 1,
        retry_after_ms: 10,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    // Occupy the single worker with a deliberately heavy `create`: a
    // 200k-row CSV (~2.5 MB line) takes several hundred milliseconds to
    // parse, load and index. The owner signals once the whole line is
    // written, so the dispatches below (50 and 80 ms later) cannot
    // overtake it and land while it is still running.
    let mut csv = String::from("City,Country,Pop\n");
    for i in 0..200_000 {
        csv.push_str(&format!("C{i},X,1\n"));
    }
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"t\",\"csv\":{},\"dc\":{}}}\n",
        Json::str(csv.as_str()),
        Json::str(DC)
    );
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    let owner = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(create.as_bytes()).unwrap();
        sent_tx.send(()).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let created = Json::parse(line.trim_end()).unwrap();
        assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));
    });
    sent_rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Second connection's work request fills the one-deep queue...
    let mut queued = Client::connect(&addr).unwrap();
    let queued_request = std::thread::spawn(move || {
        queued
            .request("{\"cmd\":\"measure\",\"session\":\"t\",\"measures\":[\"I_MI\"]}")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));

    // ...so a third connection's work request is shed. The response is a
    // well-formed overloaded line and the connection survives it: a ping
    // on the same connection still answers (it runs on the event thread,
    // not the saturated pool).
    let mut shed = Client::connect(&addr).unwrap();
    let line = shed
        .request("{\"cmd\":\"measure\",\"session\":\"t\",\"measures\":[\"I_MI\"]}")
        .unwrap();
    assert_overloaded_wire_shape(&line, 10.0);
    let pong = shed.request("{\"cmd\":\"ping\"}").unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // A retrying client backs off through the busy window and is served
    // once the create finishes and the queue drains.
    let mut retry = Client::connect(&addr).unwrap();
    let policy = RetryPolicy {
        max_retries: 120,
        base_backoff_ms: 20,
        max_backoff_ms: 500,
    };
    let response = retry
        .request_with_retry(
            "{\"cmd\":\"measure\",\"session\":\"t\",\"measures\":[\"I_MI\"]}",
            &policy,
        )
        .expect("retry should get through");
    let json = Json::parse(&response).unwrap();
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true), "{json}");
    owner.join().unwrap();
    let queued_response = queued_request.join().unwrap();
    assert!(
        queued_response.contains("\"ok\":"),
        "queued request got a response: {queued_response}"
    );

    // The request sheds are visible in global stats.
    let stats = Json::parse(&retry.request("{\"cmd\":\"stats\"}").unwrap()).unwrap();
    let shed_count = stats
        .get("server")
        .and_then(|s| s.get("admission"))
        .and_then(|a| a.get("shed"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(shed_count >= 1.0, "{stats}");

    retry.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}

/// Slow-client protection end-to-end: a peer that never reads its
/// responses trips the write-stall timeout and is dropped — without
/// stalling requests on any other connection.
#[test]
fn a_client_that_never_reads_is_dropped_without_stalling_others() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        write_timeout_ms: 150,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    // A session with enough inconsistent tuples that `tuple_measures`
    // responses are tens of kilobytes: pipelining many of them overflows
    // the dead peer's socket buffers for sure.
    let mut csv = String::from("City,Country,Pop\n");
    for i in 0..800 {
        csv.push_str(&format!(
            "P{},A{},1\nP{},B{},2\n",
            i / 2,
            i % 2,
            i / 2,
            i % 2
        ));
    }
    let mut live = Client::connect(&addr).unwrap();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"t\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv.as_str()),
        Json::str(DC)
    );
    let created = Json::parse(&live.request(&create).unwrap()).unwrap();
    assert_eq!(
        created.get("ok").and_then(Json::as_bool),
        Some(true),
        "{created}"
    );

    // The dead client pipelines a pile of big reads and never reads a
    // byte back.
    let mut dead = TcpStream::connect(addr).unwrap();
    let burst = "{\"cmd\":\"tuple_measures\",\"session\":\"t\",\"k\":1600}\n".repeat(100);
    dead.write_all(burst.as_bytes()).unwrap();

    // Meanwhile this connection keeps getting served promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let dropped = loop {
        let pong = live.request("{\"cmd\":\"ping\"}").unwrap();
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let stats = Json::parse(&live.request("{\"cmd\":\"stats\"}").unwrap()).unwrap();
        let drops = stats
            .get("server")
            .and_then(|s| s.get("slow_client_drops"))
            .and_then(Json::as_f64)
            .unwrap();
        if drops >= 1.0 {
            break true;
        }
        if std::time::Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(dropped, "the never-reading client was not dropped");

    live.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}

/// Idempotent write retry end-to-end: the same `op` + `token` sent twice
/// applies once; the replay returns the remembered response tagged
/// `deduped:true`.
#[test]
fn token_carrying_writes_are_idempotent_over_the_wire() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(&addr).unwrap();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"cities\",\"csv\":{},\"dc\":{}}}",
        Json::str(CSV),
        Json::str(DC)
    );
    client.request(&create).unwrap();

    let op = "{\"cmd\":\"op\",\"session\":\"cities\",\
              \"ops\":\"update 1 Pop 9\",\"token\":\"retry-1\"}";
    let first = Json::parse(&client.request(op).unwrap()).unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert!(first.get("deduped").is_none());
    let replay = Json::parse(&client.request(op).unwrap()).unwrap();
    assert_eq!(replay.get("deduped").and_then(Json::as_bool), Some(true));
    assert_eq!(
        replay.get("applied").and_then(Json::as_f64),
        first.get("applied").and_then(Json::as_f64)
    );

    let stats = Json::parse(
        &client
            .request("{\"cmd\":\"stats\",\"session\":\"cities\"}")
            .unwrap(),
    )
    .unwrap();
    assert_eq!(stats.get("op_seq").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        stats
            .get("overload")
            .and_then(|o| o.get("deduped_ops"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
    client.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}

/// Eight clients that never back off against two global in-flight slots:
/// every answer is a success or a well-formed shed, the slots are never
/// exceeded, at least 0.5% of the attempts are shed and some are
/// admitted. Release builds hold the admitted requests' p99 (log2-bucket
/// histogram, which never underestimates) to 30 ms.
#[test]
fn offered_load_past_the_global_bound_is_shed_not_queued() {
    use rand::prelude::*;
    const SLOTS: u64 = 2;
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 60;
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CLIENTS + 1,
        solve_threads: 1,
        max_inflight: SLOTS,
        retry_after_ms: 5,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    // 60 blocks of 4 tuples agreeing on `A` with distinct `B`s.
    let csv: String = (0..240).fold("A,B\n".into(), |csv, i| csv + &format!("{},{i}\n", i / 4));
    let mut admin = Client::connect(&addr).unwrap();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"hot\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv),
        Json::str("fd: t.A = t'.A & t.B != t'.B\n")
    );
    assert!(admin.request(&create).unwrap().contains("\"ok\":true"));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|who| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x0BEEF + who as u64);
                let mut client = Client::connect(&addr).unwrap();
                let (mut admitted_us, mut shed) = (Vec::new(), 0u64);
                for i in 0..REQUESTS {
                    // 10% writes keep components dirty, so reads miss the
                    // caches and hold their slot through a solve.
                    let line = if rng.gen_range(0..100) < 10 {
                        format!(
                            "{{\"cmd\":\"op\",\"session\":\"hot\",\"ops\":\"update {} B {}\"}}",
                            rng.gen_range(0..240 + 4096),
                            rng.gen_range(0..10_000)
                        )
                    } else if i % 5 == 0 {
                        "{\"cmd\":\"measure\",\"session\":\"hot\",\"measures\":\
                         [\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\",\"I_MC\"],\"per_dc\":true}"
                            .to_string()
                    } else {
                        "{\"cmd\":\"measure\",\"session\":\"hot\",\
                         \"measures\":[\"I_MI\",\"I_R\",\"I_R^lin\"]}"
                            .to_string()
                    };
                    let sent = std::time::Instant::now();
                    let response = client.request(&line).unwrap();
                    let json = Json::parse(&response).unwrap();
                    if json.get("kind").and_then(Json::as_str) == Some("overloaded") {
                        assert_overloaded_wire_shape(&response, 5.0);
                        shed += 1;
                    } else {
                        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true), "{json}");
                        admitted_us.push(sent.elapsed().as_micros() as u64);
                    }
                }
                (admitted_us, shed)
            })
        })
        .collect();
    let admitted = inconsist_obs::Histogram::new();
    let mut shed = 0;
    for client in clients {
        let (us, s) = client.join().unwrap();
        us.into_iter().for_each(|v| admitted.record(v));
        shed += s;
    }
    let stats = Json::parse(&admin.request("{\"cmd\":\"stats\"}").unwrap()).unwrap();
    let high_water = stats
        .get("server")
        .and_then(|s| s.get("admission"))
        .and_then(|a| a.get("inflight_high_water"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(high_water <= SLOTS as f64, "high water {high_water}");
    let attempts = (CLIENTS * REQUESTS) as f64;
    assert!(
        shed as f64 / attempts >= 0.05 * (1.0 - 0.9),
        "{shed} of {attempts} shed"
    );
    assert!(admitted.count() > 0, "overload starved every request");
    if !cfg!(debug_assertions) {
        let p99 = admitted.quantile(0.99);
        assert!(p99 <= 6000 * 5, "admitted p99 {p99} µs");
    }
    admin.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}
