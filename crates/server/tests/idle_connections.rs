//! A fleet of idle connections is cheap and does not starve an active
//! one: 150 held connections each answer `ping`, the server reports them
//! all open, an active client's reads keep succeeding, and the process
//! grows by at most 3.7 kB × (1 + 3.0) of resident memory per held
//! connection.
//!
//! One `#[test]` in its own test binary: resident memory is per process,
//! so a concurrent test would skew the growth.

use inconsist_server::{serve, Client, Json, ServerConfig};

const IDLE: usize = 150;
const DC: &str = "fd: t.A = t'.A & t.B != t'.B\n";

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

#[test]
fn held_idle_connections_are_cheap_and_do_not_starve_an_active_client() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        solve_threads: 1,
        event_threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    // 60 blocks of 4 tuples agreeing on `A` with distinct `B`s.
    let csv: String = (0..240).fold("A,B\n".into(), |csv, i| csv + &format!("{},{i}\n", i / 4));
    let mut admin = Client::connect(&addr).unwrap();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"fe\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv),
        Json::str(DC)
    );
    assert!(admin.request(&create).unwrap().contains("\"ok\":true"));
    let read = "{\"cmd\":\"measure\",\"session\":\"fe\",\"measures\":[\"I_MI\"]}";
    admin.request(read).unwrap();

    let rss_before = vm_rss_kb();
    let idle: Vec<Client> = (0..IDLE)
        .map(|i| {
            let mut c = Client::connect(&addr).unwrap_or_else(|e| panic!("idle #{i}: {e}"));
            let pong = c.request("{\"cmd\":\"ping\"}").unwrap();
            assert!(pong.contains("\"pong\":true"), "{pong}");
            c
        })
        .collect();
    let per_connection_kb = (vm_rss_kb() - rss_before).max(0.0) / IDLE as f64;

    for _ in 0..60 {
        let response = admin.request(read).unwrap();
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let stats = Json::parse(&admin.request("{\"cmd\":\"stats\"}").unwrap()).unwrap();
    let open = stats
        .get("server")
        .and_then(|s| s.get("open_connections"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(open >= IDLE as f64, "{open} connections open, {IDLE} held");
    assert!(
        per_connection_kb <= 3.7 * (1.0 + 3.0),
        "{per_connection_kb:.1} kB per held connection"
    );
    drop(idle);
    admin.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}
