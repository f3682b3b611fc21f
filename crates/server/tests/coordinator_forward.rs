//! Forwards on the coordinator's event thread: a session request the
//! coordinator parsed is sent to its owning worker over one of the event
//! thread's own worker connections, and the worker's reply line comes
//! back to the client untouched.
//!
//! Pinned here: the client receives exactly the bytes the owning worker
//! would have sent it directly; concurrent pipelining connections each
//! get their own replies, in order, counted once; a forward the worker
//! drops or sheds is re-sent by the pool with the same line and minted
//! token; and a worker that dies under the event thread's idle
//! connections costs one `unavailable` answer, never a stalled event
//! thread.

use inconsist_obs::Value;
use inconsist_server::durable::{DurabilityConfig, FsyncPolicy};
use inconsist_server::{serve, Client, CoordinatorConfig, Json, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CSV: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,IT,4\nNice,FR,5\n";
const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

fn worker(addr: &str, data_dir: Option<PathBuf>) -> ServerHandle {
    serve(ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        durability: data_dir.map(|data_dir| DurabilityConfig {
            data_dir,
            fsync: FsyncPolicy::Never,
            snapshot_every: None,
            segment_bytes: None,
        }),
        ..ServerConfig::default()
    })
    .expect("bind worker")
}

fn coordinator(shards: Vec<SocketAddr>) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        coordinator: Some(CoordinatorConfig::new(shards)),
        ..ServerConfig::default()
    })
    .expect("bind coordinator")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "inconsist-coord-forward-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn ok(response: &str) -> Json {
    let json = Json::parse(response).expect("valid JSON response");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    json
}

fn create_line(session: &str) -> String {
    format!(
        "{{\"cmd\":\"create\",\"session\":\"{session}\",\"csv\":{},\"dc\":{}}}",
        Json::str(CSV),
        Json::str(DC)
    )
}

fn measure_line(session: &str) -> String {
    format!(
        "{{\"cmd\":\"measure\",\"session\":\"{session}\",\
         \"measures\":[\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\"]}}"
    )
}

fn op_line(session: &str, ops: &str) -> String {
    format!("{{\"cmd\":\"op\",\"session\":\"{session}\",\"ops\":\"{ops}\"}}")
}

/// Creates `names` through `client` and returns them split by the worker
/// that owns each (asked of the workers directly).
fn create_spread(
    client: &mut Client,
    workers: [SocketAddr; 2],
    names: &[String],
) -> [Vec<String>; 2] {
    for name in names {
        ok(&client.request(&create_line(name)).unwrap());
    }
    workers.map(|addr| {
        let listed = ok(&Client::connect(&addr)
            .unwrap()
            .request("{\"cmd\":\"sessions\"}")
            .unwrap());
        let listed = listed.get("sessions").and_then(Json::as_arr).unwrap();
        names
            .iter()
            .filter(|n| listed.iter().any(|l| l.as_str() == Some(n.as_str())))
            .cloned()
            .collect()
    })
}

/// A counter's current value, read in process; a series not yet created
/// reads 0.
fn counter(handle: &ServerHandle, name: &str) -> u64 {
    let samples = handle.registry().metrics_samples();
    match samples.iter().find(|s| s.name == name).map(|s| &s.value) {
        Some(Value::Counter(v)) => *v,
        None => 0,
        Some(other) => panic!("`{name}` is not a counter: {other:?}"),
    }
}

fn inline_forwards(handle: &ServerHandle) -> u64 {
    counter(handle, "coord_inline_forwards_total")
}

fn requests_of(handle: &ServerHandle, kinds: &[&str]) -> u64 {
    kinds
        .iter()
        .map(|kind| counter(handle, &format!("server_requests_total{{kind=\"{kind}\"}}")))
        .sum()
}

#[test]
fn forwarded_replies_are_the_owning_workers_bytes() {
    let workers = [worker("127.0.0.1:0", None), worker("127.0.0.1:0", None)];
    let addrs = [workers[0].addr(), workers[1].addr()];
    let coord = coordinator(addrs.to_vec());
    let mut via = Client::connect(&coord.addr()).unwrap();
    let names: Vec<String> = (0..8).map(|i| format!("bytes{i}")).collect();
    let owned = create_spread(&mut via, addrs, &names);
    for (shard, sessions) in owned.iter().enumerate() {
        let session = sessions.first().expect("a session on every shard");
        let mut direct = Client::connect(&addrs[shard]).unwrap();
        ok(&via
            .request(&op_line(session, "update 1 Country FR"))
            .unwrap());
        let lines = [
            measure_line(session),
            format!("{{\"cmd\":\"tuple_measures\",\"session\":\"{session}\",\"k\":10}}"),
            format!("{{\"cmd\":\"stats\",\"session\":\"{session}\"}}"),
        ];
        for line in &lines {
            // The first read warms the session's caches on the worker.
            ok(&via.request(line).unwrap());
            let before = inline_forwards(&coord);
            let forwarded = via.request(line).unwrap();
            assert_eq!(inline_forwards(&coord), before + 1, "{line}");
            assert_eq!(forwarded, direct.request(line).unwrap(), "{line}");
        }
    }
    coord.stop();
    for w in workers {
        w.stop();
    }
}

#[test]
fn pipelined_connections_get_their_own_replies_in_order() {
    let workers = [worker("127.0.0.1:0", None), worker("127.0.0.1:0", None)];
    let addrs = [workers[0].addr(), workers[1].addr()];
    let coord = coordinator(addrs.to_vec());
    let reference = worker("127.0.0.1:0", None);
    let mut setup = Client::connect(&coord.addr()).unwrap();
    let mut single = Client::connect(&reference.addr()).unwrap();
    let names: Vec<String> = (0..16).map(|i| format!("pipe{i}")).collect();
    let owned = create_spread(&mut setup, addrs, &names);
    for name in &names {
        ok(&single.request(&create_line(name)).unwrap());
    }
    // Three connections, each with a session of its own on each shard:
    // ops interleave with reads across both shards.
    let pipelines: Vec<Vec<String>> = (0..3)
        .map(|c| {
            let (a, b) = (&owned[0][c], &owned[1][c]);
            (0..6)
                .flat_map(|i| {
                    [
                        op_line(a, &format!("update {} Country X{i}", i % 5)),
                        measure_line(a),
                        op_line(b, &format!("update {} Country Y{i}", (i + 2) % 5)),
                        measure_line(b),
                        format!("{{\"cmd\":\"tuple_measures\",\"session\":\"{b}\",\"k\":3}}"),
                    ]
                })
                .collect()
        })
        .collect();
    // The same lines in the same per-session order on one plain server.
    let want: Vec<Vec<String>> = pipelines
        .iter()
        .map(|lines| lines.iter().map(|l| single.request(l).unwrap()).collect())
        .collect();

    let kinds = ["op", "measure", "tuple_measures"];
    let (requests_before, inline_before) = (requests_of(&coord, &kinds), inline_forwards(&coord));
    let conns: Vec<TcpStream> = pipelines
        .iter()
        .map(|lines| {
            let mut stream = TcpStream::connect(coord.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
            stream.write_all(batch.as_bytes()).unwrap();
            stream
        })
        .collect();
    for (c, stream) in conns.into_iter().enumerate() {
        let mut reader = BufReader::new(stream);
        for (i, expected) in want[c].iter().enumerate() {
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            assert_eq!(got.trim_end(), expected, "connection {c}, reply {i}");
        }
    }
    let sent = pipelines.iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(requests_of(&coord, &kinds) - requests_before, sent);
    let inline = inline_forwards(&coord) - inline_before;
    assert!(inline >= sent / 2 && inline <= sent, "{inline} of {sent}");
    coord.stop();
    reference.stop();
    for w in workers {
        w.stop();
    }
}

#[test]
fn a_stopped_worker_answers_unavailable_without_stalling_the_event_thread() {
    let dirs = [fresh_dir("w0"), fresh_dir("w1")];
    let w0 = worker("127.0.0.1:0", Some(dirs[0].clone()));
    let w1 = worker("127.0.0.1:0", Some(dirs[1].clone()));
    let addrs = [w0.addr(), w1.addr()];
    let coord = coordinator(addrs.to_vec());
    let mut reads = Client::connect(&coord.addr()).unwrap();
    let mut pings = Client::connect(&coord.addr()).unwrap();
    let names: Vec<String> = (0..8).map(|i| format!("dead{i}")).collect();
    let owned = create_spread(&mut reads, addrs, &names);
    let session = owned[0].first().expect("a session on shard 0").clone();
    let tokened = format!(
        "{{\"cmd\":\"op\",\"session\":\"{session}\",\"ops\":\"update 0 Country DE\",\"token\":\"tok-a\"}}"
    );
    let applied = ok(&reads.request(&tokened).unwrap());
    assert_eq!(applied.get("deduped"), None);
    let values = |reply: &Json| reply.get("values").map(Json::to_string);
    let mut before = None;
    for _ in 0..3 {
        before = values(&ok(&reads.request(&measure_line(&session)).unwrap()));
    }
    assert!(
        inline_forwards(&coord) > 0,
        "the event thread holds worker connections"
    );

    w0.stop();
    let line = measure_line(&session);
    let (tx, rx) = std::sync::mpsc::channel();
    let read = std::thread::spawn(move || {
        tx.send(reads.request(&line).unwrap()).unwrap();
        reads
    });
    let started = Instant::now();
    ok(&pings.request("{\"cmd\":\"ping\"}").unwrap());
    let ping = started.elapsed();
    assert!(ping < Duration::from_millis(50), "ping took {ping:?}");
    let reply = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the read answers within 5 s");
    let mut reads = read.join().unwrap();
    let reply = Json::parse(&reply).unwrap();
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("unavailable"),
        "{reply}"
    );
    assert!(reply.get("retry_after_ms").and_then(Json::as_f64).is_some());

    // Restarted on its address and data dir, the worker serves the
    // session as it was, and a re-sent tokened op is not applied twice.
    // (A clean stop snapshots the session, and a token is recovered only
    // from log records past the snapshot, so the token is one the
    // restarted process applied.)
    let w0 = worker(&addrs[0].to_string(), Some(dirs[0].clone()));
    let after = values(&ok(&reads.request(&measure_line(&session)).unwrap()));
    assert_eq!(after, before);
    let tokened = tokened.replace("tok-a", "tok-b");
    let first = ok(&reads.request(&tokened).unwrap());
    assert_eq!(first.get("deduped"), None);
    let again = ok(&reads.request(&tokened).unwrap());
    assert_eq!(again.get("deduped").and_then(Json::as_bool), Some(true));

    coord.stop();
    w0.stop();
    w1.stop();
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// With no pooled connection to a worker, the pool path's first connect
/// backs off under the retry policy: a `create` sent while the worker is
/// still ~150 ms from binding its listener answers `ok`, not
/// `unavailable`.
#[test]
fn the_first_connect_to_a_worker_that_is_still_binding_is_retried() {
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let coord = coordinator(vec![addr]);
    let mut client = Client::connect(&coord.addr()).unwrap();
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        worker(&addr.to_string(), None)
    });
    ok(&client.request(&create_line("late")).unwrap());
    ok(&client.request(&measure_line("late")).unwrap());
    coord.stop();
    late.join().unwrap().stop();
}

/// A stand-in worker: answers each line it receives from `answer(line,
/// nth)` (`None` closes the connection without a reply) and records every
/// line, so a test sees exactly what the coordinator sent.
struct ScriptedWorker {
    addr: SocketAddr,
    lines: Arc<Mutex<Vec<String>>>,
    done: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
}

type Script = dyn Fn(&str, usize) -> Option<String> + Send + Sync;

impl ScriptedWorker {
    fn start(answer: impl Fn(&str, usize) -> Option<String> + Send + Sync + 'static) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(false));
        let answer: Arc<Script> = Arc::new(answer);
        let accept = {
            let (lines, done) = (Arc::clone(&lines), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut handlers = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    };
                    stream.set_nonblocking(false).unwrap();
                    let (lines, answer) = (Arc::clone(&lines), Arc::clone(&answer));
                    handlers.push(std::thread::spawn(move || {
                        Self::serve(stream, &lines, answer.as_ref())
                    }));
                }
                for handler in handlers {
                    handler.join().unwrap();
                }
            })
        };
        ScriptedWorker {
            addr,
            lines,
            done,
            accept,
        }
    }

    fn serve(stream: TcpStream, lines: &Mutex<Vec<String>>, answer: &Script) {
        let mut writer = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { return };
            let nth = {
                let mut lines = lines.lock().unwrap();
                lines.push(line.clone());
                lines.len() - 1
            };
            let Some(reply) = answer(&line, nth) else {
                return;
            };
            if writer.write_all(format!("{reply}\n").as_bytes()).is_err() {
                return;
            }
        }
    }

    fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }

    /// Joins its threads; every connection to it must be closed first.
    fn stop(self) {
        self.done.store(true, Ordering::SeqCst);
        self.accept.join().unwrap();
    }
}

/// Sends one line on `stream` and reads its reply, failing the test when
/// none comes within 5 s.
fn request_within(stream: &mut BufReader<TcpStream>, line: &str) -> String {
    stream
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut reply = String::new();
    stream.read_line(&mut reply).expect("a reply within 5 s");
    reply.trim_end().to_string()
}

#[test]
fn a_dropped_or_shed_forward_is_resent_by_the_pool_with_the_same_line() {
    const VALUES: &str =
        "{\"ok\":true,\"session\":\"s\",\"path\":\"shared\",\"values\":{\"I_MI\":1}}";
    const APPLIED: &str = "{\"ok\":true,\"session\":\"s\",\"applied\":1}";
    // Line 0 is the coordinator's bootstrap `sessions`.
    let worker = ScriptedWorker::start(|line, nth| match nth {
        0 => Some("{\"ok\":true,\"sessions\":[\"s\"]}".to_string()),
        // Dropped with its connection, as by a worker that dies before it
        // replies.
        3 => None,
        6 => Some(
            "{\"ok\":false,\"kind\":\"overloaded\",\"error\":\"busy\",\"retry_after_ms\":1}"
                .to_string(),
        ),
        _ if line.contains("\"cmd\":\"op\"") => Some(APPLIED.to_string()),
        _ => Some(VALUES.to_string()),
    });
    let coord = coordinator(vec![worker.addr]);
    let mut client = BufReader::new(TcpStream::connect(coord.addr()).unwrap());
    // A member the protocol ignores tells the client's own line (sent
    // inline) from the pool's re-serialised one.
    let measure =
        "{\"cmd\":\"measure\",\"session\":\"s\",\"measures\":[\"I_MI\"],\"trace_id\":\"t\"}";
    let op = op_line("s", "update 0 Country FR");
    // Line 1: with no worker connection on the event thread the read goes
    // to the pool, which hands its connection over; line 2 is inline.
    assert_eq!(request_within(&mut client, measure), VALUES);
    assert_eq!(request_within(&mut client, measure), VALUES);
    assert_eq!(inline_forwards(&coord), 1);
    // Line 3: an untokened op, sent inline with a minted token and
    // dropped; the pool re-sends it (line 4).
    assert_eq!(request_within(&mut client, &op), APPLIED);
    // Line 5 goes to the pool again (the dropped connection is gone);
    // line 6, inline, is shed; the pool retries it (line 7).
    assert_eq!(request_within(&mut client, measure), VALUES);
    assert_eq!(request_within(&mut client, measure), VALUES);
    assert_eq!(inline_forwards(&coord), 1);
    assert_eq!(
        requests_of(&coord, &["measure", "op"]),
        5,
        "each request is counted once"
    );

    let lines = worker.lines();
    assert_eq!(lines.len(), 8, "{lines:?}");
    assert_eq!(
        [&lines[2], &lines[6]],
        [measure; 2],
        "inline sends the client's line"
    );
    assert!(!lines[1].contains("trace_id") && !lines[7].contains("trace_id"));
    assert!(lines[3].contains("\"token\":\"coord-"), "{}", lines[3]);
    assert_eq!(lines[4], lines[3], "the pool re-sends the minted token");
    drop(client);
    coord.stop();
    drop(coord);
    worker.stop();
}
