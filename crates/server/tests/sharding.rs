//! Sharded-topology property test: a random trace of writes, reads,
//! top-k rankings, snapshots and `measure_all` aggregates drives **two
//! live topologies** — one plain single-process server, and a
//! coordinator fronting two durable worker shards — and every recorded
//! observation must agree **bit-for-bit**, including after one worker is
//! stopped and restarted mid-trace.
//!
//! Why this pins the tentpole contract:
//!
//! * per-session reads pass through the coordinator structurally
//!   untouched, so their `values` are trivially the worker's own bits —
//!   the interesting case is `measure_all`, where the coordinator
//!   re-folds per-session details in ascending name order seeded from
//!   0.0, reproducing the single process's exact addition sequence;
//! * the mid-trace restart exercises the redirect path: the coordinator
//!   reconnects lazily and the restarted worker recovers its sessions
//!   from its own data dir before listening, so the trace continues
//!   bit-identically;
//! * while the worker is *down*, exactly the sessions it owns answer
//!   `kind:"unavailable"` (never a silently wrong aggregate — a dead
//!   shard fails the gather loudly).

use inconsist_server::durable::{DurabilityConfig, FsyncPolicy};
use inconsist_server::{
    serve, ClientBuilder, CoordinatorConfig, Json, ServerConfig, ServerHandle, TypedClient,
};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const BLOCKS: i64 = 4;
const ROWS_PER_BLOCK: i64 = 3;
const FIXTURE_DC: &str = "fd: t.A = t'.A & t.B != t'.B\n";
const SESSIONS: [&str; 3] = ["alpha", "beta", "gamma"];
const MEASURES: [&str; 6] = ["I_MI", "I_P", "I_R", "I_R^lin", "raw", "components"];
const AGG: [&str; 4] = ["I_MI", "I_P", "I_R", "I_R^lin"];

fn fixture_csv() -> String {
    let mut csv = "A,B\n".to_string();
    for k in 0..BLOCKS {
        for j in 0..ROWS_PER_BLOCK {
            csv.push_str(&format!("{k},{}\n", ROWS_PER_BLOCK * k + j));
        }
    }
    csv
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "inconsist-sharding-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn durable(data_dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        data_dir,
        fsync: FsyncPolicy::Never,
        snapshot_every: None,
        segment_bytes: None,
    }
}

/// A durable worker (or the single-process reference server) on `addr`.
fn start_server(addr: &str, data_dir: PathBuf) -> ServerHandle {
    serve(ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        durability: Some(durable(data_dir)),
        ..ServerConfig::default()
    })
    .expect("bind server")
}

fn start_coordinator(shard_addrs: Vec<SocketAddr>) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        coordinator: Some(CoordinatorConfig::new(shard_addrs)),
        ..ServerConfig::default()
    })
    .expect("bind coordinator")
}

fn connect(addr: SocketAddr) -> TypedClient {
    ClientBuilder::new(addr).connect().expect("connect")
}

/// One step of the generated workload.
#[derive(Clone, Debug)]
enum Action {
    Op { session: usize, line: String },
    Measure { session: usize },
    TopK { session: usize },
    MeasureAll,
    Snapshot { session: usize },
}

type RawAction = (u8, u8, u32, i64);

fn decode(raw: &[RawAction]) -> Vec<Action> {
    raw.iter()
        .map(|&(who, choice, id, value)| {
            let session = who as usize % SESSIONS.len();
            match choice {
                0..=3 => Action::Op {
                    session,
                    line: format!("update {id} B {value}"),
                },
                4 => Action::Op {
                    session,
                    line: format!("update {id} A {}", value % BLOCKS),
                },
                5 => Action::Op {
                    session,
                    line: format!("insert {},{value}", value % BLOCKS),
                },
                6 => Action::Op {
                    session,
                    line: format!("delete {id}"),
                },
                7 => Action::Measure { session },
                8 => Action::TopK { session },
                9 => Action::MeasureAll,
                _ => Action::Snapshot { session },
            }
        })
        .collect()
}

fn action_strategy() -> impl Strategy<Value = Vec<RawAction>> {
    let max_id = (BLOCKS * ROWS_PER_BLOCK) as u32 + 32;
    prop::collection::vec((0u8..3, 0u8..11, 0u32..max_id, 0i64..40), 1..25)
}

/// Runs one action and renders the observation deterministically. The
/// rendering goes through [`Json`], whose `f64` formatting is
/// parse/write roundtrip-stable — equal strings mean equal bits.
fn observe(client: &mut TypedClient, action: &Action) -> String {
    match action {
        Action::Op { session, line } => {
            let applied = client
                .session(SESSIONS[*session])
                .apply_ops(line, None)
                .expect("op");
            format!(
                "op {} applied={} noops={} seq={}",
                SESSIONS[*session], applied.applied, applied.noops, applied.last_seq
            )
        }
        Action::Measure { session } => {
            let measured = client
                .session(SESSIONS[*session])
                .measure(&MEASURES)
                .expect("measure");
            let values: Vec<String> = measured
                .values
                .iter()
                .map(|(name, v)| format!("{name}={}", Json::Num(*v)))
                .collect();
            format!("measure {} {}", SESSIONS[*session], values.join(","))
        }
        Action::TopK { session } => {
            let top = client.session(SESSIONS[*session]).top_k(5).expect("top_k");
            let rows: Vec<String> = top
                .iter()
                .map(|t| {
                    format!(
                        "#{}:{}/{}/{}/{}",
                        t.tuple,
                        Json::Num(t.cbm),
                        Json::Num(t.cim),
                        Json::Num(t.pim),
                        Json::Num(t.rim)
                    )
                })
                .collect();
            format!("top {} {}", SESSIONS[*session], rows.join(" "))
        }
        Action::MeasureAll => {
            let json = client.measure_all(&AGG, false).expect("measure_all");
            format!(
                "measure_all values={} sessions={}",
                json.get("values").expect("values"),
                json.get("sessions").and_then(Json::as_f64).unwrap_or(-1.0)
            )
        }
        Action::Snapshot { session } => {
            let seq = client
                .session(SESSIONS[*session])
                .snapshot()
                .expect("snapshot");
            format!("snapshot {} seq={}", SESSIONS[*session], seq)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random traces through both topologies agree bit-for-bit on every
    /// observation — measures, top-k, aggregates, sequence numbers —
    /// including after one worker is stopped and restarted mid-trace.
    #[test]
    fn sharded_trace_is_bit_identical_to_single_process(
        raw in action_strategy(),
        kill_at_frac in 0u8..4,
    ) {
        let actions = decode(&raw);
        let kill_at = actions.len() * kill_at_frac as usize / 4;

        // Reference: one plain durable server holding every session.
        let single_dir = fresh_dir("single");
        let single = start_server("127.0.0.1:0", single_dir.clone());
        let mut single_client = connect(single.addr());

        // Sharded: a coordinator fronting two durable workers.
        let worker_dirs = [fresh_dir("w0"), fresh_dir("w1")];
        let worker0 = start_server("127.0.0.1:0", worker_dirs[0].clone());
        let worker1 = start_server("127.0.0.1:0", worker_dirs[1].clone());
        let worker0_addr = worker0.addr();
        let coordinator =
            start_coordinator(vec![worker0_addr, worker1.addr()]);
        let mut coord_client = connect(coordinator.addr());
        let hello = coord_client.hello().expect("hello");
        prop_assert_eq!(hello.role.as_str(), "coordinator");

        let csv = fixture_csv();
        for name in SESSIONS {
            let a = single_client
                .create(name, &csv, FIXTURE_DC)
                .expect("create single");
            let b = coord_client
                .create(name, &csv, FIXTURE_DC)
                .expect("create sharded");
            prop_assert_eq!(
                a.get("tuples").and_then(Json::as_f64),
                b.get("tuples").and_then(Json::as_f64)
            );
        }

        let mut restarted: Option<ServerHandle> = Some(worker0);
        for (i, action) in actions.iter().enumerate() {
            if i == kill_at {
                // Stop worker 0. Exactly its sessions must answer
                // `unavailable` through the coordinator — never a wrong
                // value, and `measure_all` must fail loudly rather than
                // aggregate over a partial topology.
                let shards = coord_client
                    .call(&inconsist_server::protocol::Request::Shards)
                    .expect("shards");
                let shard0_sessions = shards
                    .get("shards")
                    .and_then(Json::as_arr)
                    .and_then(|rows| rows.first()?.get("sessions")?.as_f64())
                    .expect("shard 0 row") as usize;
                restarted.take().expect("worker 0 live").stop();
                let mut unavailable = 0;
                for name in SESSIONS {
                    match coord_client.session(name).measure(&["I_MI"]) {
                        Ok(_) => {}
                        Err(e) => {
                            prop_assert!(e.kind() == Some("unavailable"), "{e}");
                            unavailable += 1;
                        }
                    }
                }
                prop_assert_eq!(unavailable, shard0_sessions);
                if shard0_sessions > 0 {
                    let err = coord_client.measure_all(&AGG, false);
                    prop_assert!(
                        matches!(&err, Err(e) if e.kind() == Some("unavailable")),
                        "measure_all over a dead shard must fail: {err:?}"
                    );
                }
                // Restart on the same address over the same data dir:
                // sessions recover before the listener accepts, and the
                // coordinator redirects by reconnecting lazily.
                restarted = Some(start_server(
                    &worker0_addr.to_string(),
                    worker_dirs[0].clone(),
                ));
            }
            let want = observe(&mut single_client, action);
            let got = observe(&mut coord_client, action);
            prop_assert!(want == got, "diverged at step {i} {action:?}: `{want}` vs `{got}`");
        }

        // Exactly-once: re-sending a tokened batch after the restart is
        // deduplicated, not re-applied (the coordinator's own re-sends
        // ride the same contract with minted tokens).
        let first = coord_client
            .session("alpha")
            .apply_ops("update 0 B 7777", Some("trace-token"))
            .expect("tokened op");
        prop_assert!(!first.deduped);
        let again = coord_client
            .session("alpha")
            .apply_ops("update 0 B 7777", Some("trace-token"))
            .expect("tokened re-send");
        prop_assert!(again.deduped);
        let w = observe(&mut single_client, &Action::Measure { session: 0 });
        // Mirror the tokened op on the reference so states stay equal.
        single_client
            .session("alpha")
            .apply_ops("update 0 B 7777", None)
            .expect("mirror op");
        let want = observe(&mut single_client, &Action::Measure { session: 0 });
        let got = observe(&mut coord_client, &Action::Measure { session: 0 });
        prop_assert!(
            want == got,
            "post-dedup divergence: `{want}` vs `{got}` (pre-op was {w})"
        );

        coordinator.stop();
        single.stop();
        if let Some(handle) = restarted {
            handle.stop();
        }
        worker1.stop();
        for dir in [single_dir, worker_dirs[0].clone(), worker_dirs[1].clone()] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// Satellite 3 — the `Registry::drop` sharding contract: dropping a
/// durable session through the coordinator *forgets* it on its owning
/// shard but destroys nothing; every shard's directory recovers every
/// session it ever held, bit-identically.
#[test]
fn drop_leaves_every_shard_recoverable() {
    use inconsist::measures::MeasureOptions;
    use inconsist_server::Session;

    let worker_dirs = [fresh_dir("drop-w0"), fresh_dir("drop-w1")];
    let worker0 = start_server("127.0.0.1:0", worker_dirs[0].clone());
    let worker1 = start_server("127.0.0.1:0", worker_dirs[1].clone());
    let coordinator = start_coordinator(vec![worker0.addr(), worker1.addr()]);
    let mut client = connect(coordinator.addr());

    let csv = fixture_csv();
    let mut want: Vec<(String, String)> = Vec::new();
    for (i, name) in SESSIONS.iter().enumerate() {
        client.create(name, &csv, FIXTURE_DC).expect("create");
        client
            .session(name)
            .apply_ops(&format!("update {i} B {}", 100 + i), None)
            .expect("op");
        let measured = client.session(name).measure(&MEASURES).expect("measure");
        want.push((name.to_string(), format!("{:?}", measured.values)));
    }
    for name in SESSIONS {
        client.drop_session(name).expect("drop");
    }
    assert_eq!(client.sessions().expect("sessions"), Vec::<String>::new());
    coordinator.stop();
    worker0.stop();
    worker1.stop();

    // Every dropped session is still on some shard's disk, recoverable
    // through the ordinary crash-recovery path with identical measures.
    let mut recovered: Vec<(String, String)> = Vec::new();
    for dir in &worker_dirs {
        let cfg = durable(dir.clone());
        let Ok(entries) = std::fs::read_dir(dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let session =
                Session::recover(&cfg, &name, 1, MeasureOptions::default()).expect("recover");
            let response = session
                .measure(
                    &MEASURES.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
                    false,
                    &session.options(),
                )
                .expect("measure recovered");
            let values = match response.get("values") {
                Some(Json::Obj(entries)) => entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().expect("numeric")))
                    .collect::<Vec<_>>(),
                other => panic!("no values: {other:?}"),
            };
            recovered.push((name, format!("{values:?}")));
        }
    }
    recovered.sort();
    assert_eq!(recovered, want, "every shard must recover what it held");
    for dir in worker_dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The WAL-shipping follower serves bit-identical measures at the
/// primary's sequence number, always tagged `stale:true`.
#[test]
fn follower_replicates_bit_identically_and_tags_stale() {
    use inconsist_server::Follower;

    let primary_dir = fresh_dir("follower-primary");
    let replica_dir = fresh_dir("follower-replica");
    let primary = start_server("127.0.0.1:0", primary_dir.clone());
    let mut client = connect(primary.addr());
    let csv = fixture_csv();
    client.create("t", &csv, FIXTURE_DC).expect("create");
    client
        .session("t")
        .apply_ops("update 0 B 99\nupdate 1 B 99", None)
        .expect("ops");

    let mut follower = Follower::new(replica_dir.clone(), "t", 1);
    let seq = follower.sync(&mut client).expect("sync");
    assert_eq!(seq, 2);
    let want = client.session("t").measure(&MEASURES).expect("measure");
    let got = follower
        .measure(&MEASURES.iter().map(|m| m.to_string()).collect::<Vec<_>>())
        .expect("follower measure");
    assert_eq!(got.get("stale").and_then(Json::as_bool), Some(true));
    assert_eq!(got.get("as_of_seq").and_then(Json::as_f64), Some(2.0));
    for (name, value) in &want.values {
        let replica = got
            .get("values")
            .and_then(|v| v.get(name))
            .and_then(Json::as_f64);
        assert_eq!(replica, Some(*value), "{name} diverged on the follower");
    }

    // The primary moves on; a re-sync catches the follower up.
    client
        .session("t")
        .apply_ops("update 2 B 99", None)
        .expect("more ops");
    assert_eq!(follower.sync(&mut client).expect("re-sync"), 3);
    assert_eq!(follower.applied_seq(), 3);
    let want = client.session("t").measure(&["I_MI"]).expect("measure");
    let got = follower.measure(&["I_MI".to_string()]).expect("measure");
    assert_eq!(
        got.get("values")
            .and_then(|v| v.get("I_MI"))
            .and_then(Json::as_f64),
        want.value("I_MI")
    );

    primary.stop();
    for dir in [primary_dir, replica_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A worker that was never told about a coordinator still answers the
/// topology commands sanely: `shards` reports a plain server, `join` is
/// a loud protocol error.
#[test]
fn plain_server_rejects_coordinator_commands() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = connect(handle.addr());
    let shards = client
        .call(&inconsist_server::protocol::Request::Shards)
        .expect("shards");
    assert_eq!(shards.get("role").and_then(Json::as_str), Some("server"));
    let err = client
        .call(&inconsist_server::protocol::Request::Join {
            addr: "127.0.0.1:1".to_string(),
        })
        .expect_err("join must fail");
    assert_eq!(err.kind(), Some("protocol"));
    handle.stop();
}
