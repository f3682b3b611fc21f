//! Acceptance test for the observability layer: after a mixed workload,
//! the `metrics` JSON response, the Prometheus text exposition (both the
//! in-band `metrics` request with `format:"prom"` and the standalone
//! `--metrics-addr` scrape listener), and the `stats` request must all
//! report the same numbers — they are views over the same registry
//! cells, so any disagreement is a unification bug.
//!
//! The cross-checks deliberately cover every family the issue calls out:
//! requests-by-kind, the session read ladder rungs, the pool backlog
//! high-water mark, the fsync latency histogram, and shed counts.

use inconsist_server::durable::{DurabilityConfig, FsyncPolicy};
use inconsist_server::{serve, Client, Json, ServerConfig};
use std::collections::HashMap;
use std::io::Read;
use std::net::TcpStream;

const CSV: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,FR,4\n";
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

/// Parses Prometheus text exposition into `name{labels}` -> value,
/// validating the line grammar as it goes (the same checks the offline
/// CI validator performs): every non-comment line is `series value`,
/// the value parses as a finite number, metric names stay inside the
/// `[a-zA-Z0-9_:]` alphabet, and no series repeats.
fn parse_prom(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(rest.starts_with("TYPE "), "unexpected comment line: {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("series and value");
        let value: f64 = value.parse().expect("numeric sample value");
        assert!(value.is_finite(), "non-finite sample: {line}");
        let base = series.split('{').next().unwrap();
        assert!(
            !base.is_empty()
                && base
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name: {line}"
        );
        assert!(
            out.insert(series.to_string(), value).is_none(),
            "duplicate series: {series}"
        );
    }
    out
}

/// The registry keeps span names like `solve.dirty_component` verbatim
/// in JSON; the Prometheus side maps them onto its name alphabet. Apply
/// the same mapping to the *base* name (labels pass through untouched)
/// to look a JSON sample up in a parsed exposition.
fn prom_key(json_name: &str) -> String {
    let (base, labels) = match json_name.find('{') {
        Some(at) => json_name.split_at(at),
        None => (json_name, ""),
    };
    let base: String = base
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{base}{labels}")
}

/// Splits a JSON sample name into (base, labels) for suffixed lookups
/// (`_high_water`, `_count`, `_sum`, `_bucket`).
fn suffixed(json_name: &str, suffix: &str) -> String {
    let key = prom_key(json_name);
    match key.find('{') {
        Some(at) => format!("{}{}{}", &key[..at], suffix, &key[at..]),
        None => format!("{key}{suffix}"),
    }
}

/// Appends an `le` label to a (possibly already labeled) bucket series
/// name, matching the exposition's own label merge.
fn with_le(bucket_series: &str, le: &str) -> String {
    match bucket_series.strip_suffix('}') {
        Some(stripped) => format!("{stripped},le=\"{le}\"}}"),
        None => format!("{bucket_series}{{le=\"{le}\"}}"),
    }
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {json}"))
}

#[test]
fn metrics_json_prometheus_and_stats_agree() {
    let data_dir =
        std::env::temp_dir().join(format!("inconsist-metrics-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        session_inflight: 1,
        durability: Some(DurabilityConfig {
            data_dir: data_dir.clone(),
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            segment_bytes: None,
        }),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        // Exercise the slow-request log path: at 1ms the session create
        // reliably crosses the threshold and logs its stage breakdown.
        slow_request_ms: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    let mut c = Client::connect(&addr).unwrap();

    // --- Mixed workload -------------------------------------------------
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"m\",\"csv\":{},\"dc\":{}}}",
        Json::str(CSV),
        Json::str(DC)
    );
    ok(&c.request(&create).unwrap());
    // Writes, one of them replayed under an idempotency token (dedup).
    ok(&c
        .request("{\"cmd\":\"op\",\"session\":\"m\",\"ops\":\"update 1 Pop 9\"}")
        .unwrap());
    let tokened = "{\"cmd\":\"op\",\"session\":\"m\",\"ops\":\"update 2 Pop 8\",\"token\":\"t-1\"}";
    ok(&c.request(tokened).unwrap());
    let replayed = ok(&c.request(tokened).unwrap());
    assert_eq!(
        replayed.get("deduped").and_then(Json::as_bool),
        Some(true),
        "{replayed}"
    );
    // Reads: the first climbs the ladder (the ops dirtied components),
    // repeats land on the cache-hit rung.
    for _ in 0..4 {
        ok(&c
            .request("{\"cmd\":\"measure\",\"session\":\"m\"}")
            .unwrap());
    }
    ok(&c
        .request("{\"cmd\":\"tuple_measures\",\"session\":\"m\",\"k\":3}")
        .unwrap());
    // A deterministic shed: occupy the session's only in-flight slot
    // in-process, then a wire read must be refused as `overloaded`.
    {
        let session = handle.registry().get("m").unwrap();
        let _slot = session.admit(1, 25).unwrap();
        let shed = c
            .request("{\"cmd\":\"measure\",\"session\":\"m\"}")
            .unwrap();
        let shed = Json::parse(&shed).unwrap();
        assert_eq!(
            shed.get("kind").and_then(Json::as_str),
            Some("overloaded"),
            "{shed}"
        );
    }

    // --- Scrape all four views back-to-back -----------------------------
    // `stats` first: its own request touches only the front-end counters,
    // never the session/admission/durability cells compared below.
    let session_stats = ok(&c.request("{\"cmd\":\"stats\",\"session\":\"m\"}").unwrap());
    let global_stats = ok(&c.request("{\"cmd\":\"stats\"}").unwrap());
    let json_rsp = ok(&c.request("{\"cmd\":\"metrics\"}").unwrap());
    let metrics = json_rsp.get("metrics").expect("metrics object");
    let Json::Obj(samples) = metrics else {
        panic!("metrics must be an object: {json_rsp}")
    };
    let prom_rsp = ok(&c
        .request("{\"cmd\":\"metrics\",\"format\":\"prom\"}")
        .unwrap());
    assert_eq!(
        prom_rsp.get("format").and_then(Json::as_str),
        Some("prometheus")
    );
    let prom = parse_prom(prom_rsp.get("text").and_then(Json::as_str).unwrap());
    let scrape = {
        let mut s = TcpStream::connect(handle.metrics_addr().expect("metrics listener")).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        text
    };
    let listener = parse_prom(&scrape);

    // --- JSON vs Prometheus: every sample, value for value --------------
    // The prom scrape happened exactly one request after the JSON one, so
    // the only cells allowed to differ are the ones that request itself
    // bumped — and they must differ by exactly one observation.
    let own_request = |name: &str| {
        name == "server_requests_handled_total"
            || name == "server_frames_total"
            || name.starts_with("server_requests_total{kind=\"metrics\"}")
            || name.starts_with("server_request_us{kind=\"metrics\"}")
    };
    assert!(!samples.is_empty(), "empty metrics snapshot");
    for (name, value) in samples {
        let key = prom_key(name);
        match value {
            Json::Num(v) => {
                let expected = if own_request(name) { v + 1.0 } else { *v };
                assert_eq!(
                    prom.get(&key).copied(),
                    Some(expected),
                    "counter {name} disagrees between JSON and prom"
                );
            }
            Json::Obj(_) if value.get("high_water").is_some() => {
                // Gauge: value + high-water line.
                assert_eq!(
                    prom.get(&key).copied(),
                    Some(num(value, "value")),
                    "gauge {name} disagrees between JSON and prom"
                );
                assert_eq!(
                    prom.get(&suffixed(name, "_high_water")).copied(),
                    Some(num(value, "high_water")),
                    "gauge {name} high-water disagrees between JSON and prom"
                );
            }
            Json::Obj(_) => {
                // Histogram: count, sum, and cumulative buckets.
                if own_request(name) {
                    assert_eq!(
                        prom.get(&suffixed(name, "_count")).copied(),
                        Some(num(value, "count") + 1.0),
                        "histogram {name} count must advance by its own scrape"
                    );
                    continue;
                }
                assert_eq!(
                    prom.get(&suffixed(name, "_count")).copied(),
                    Some(num(value, "count")),
                    "histogram {name} count disagrees between JSON and prom"
                );
                assert_eq!(
                    prom.get(&suffixed(name, "_sum")).copied(),
                    Some(num(value, "sum")),
                    "histogram {name} sum disagrees between JSON and prom"
                );
                let bucket_series = suffixed(name, "_bucket");
                let mut cum = 0.0;
                for bucket in value.get("buckets").and_then(Json::as_arr).unwrap() {
                    let pair = Json::as_arr(bucket).unwrap();
                    let (le, n) = (
                        Json::as_f64(&pair[0]).unwrap(),
                        Json::as_f64(&pair[1]).unwrap(),
                    );
                    cum += n;
                    if le >= 9e18 {
                        // The open-ended top bucket: prom spells it +Inf.
                        continue;
                    }
                    assert_eq!(
                        prom.get(&with_le(&bucket_series, &format!("{le}")))
                            .copied(),
                        Some(cum),
                        "histogram {name} bucket le={le} disagrees between JSON and prom"
                    );
                }
                // The +Inf bucket closes the series at the total count.
                assert_eq!(
                    prom.get(&with_le(&bucket_series, "+Inf")).copied(),
                    Some(num(value, "count")),
                    "histogram {name} +Inf bucket disagrees"
                );
            }
            other => panic!("unexpected sample shape for {name}: {other}"),
        }
    }

    // --- In-band prom vs the standalone scrape listener ------------------
    // The listener snapshot ran after the in-band one; only the in-band
    // request's own per-kind cells may have advanced. Everything under
    // the session/durability/admission/pool families must be identical.
    for (series, value) in &prom {
        if series.contains("kind=\"metrics\"")
            || series.starts_with("server_requests_handled_total")
            || series.starts_with("server_frames_total")
        {
            continue;
        }
        assert_eq!(
            listener.get(series).copied(),
            Some(*value),
            "series {series} disagrees between in-band prom and --metrics-addr scrape"
        );
    }

    // --- Both endpoints vs `stats` ---------------------------------------
    let get = |name: &str| -> f64 {
        metrics
            .get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing metric `{name}`"))
    };
    // Read ladder: stats' read-path counters ARE the rung counters.
    assert_eq!(
        num(&session_stats, "shared_reads"),
        get("session_read_rung_total{session=\"m\",rung=\"cache_hit\"}"),
    );
    assert_eq!(
        num(&session_stats, "exclusive_reads"),
        get("session_read_rung_total{session=\"m\",rung=\"warm\"}"),
    );
    // Exactly: the first read after the writes fills the dirty caches
    // (`warm`); the three repeats and the top-k read hit the caches.
    let rungs = ["cache_hit", "warm", "partial", "stale"].map(|r| {
        get(&format!(
            "session_read_rung_total{{session=\"m\",rung=\"{r}\"}}"
        ))
    });
    assert_eq!(
        rungs,
        [4.0, 1.0, 0.0, 0.0],
        "cache_hit, warm, partial, stale"
    );
    assert_eq!(
        num(&session_stats, "ops_applied"),
        get("session_ops_applied_total{session=\"m\"}"),
    );
    assert_eq!(
        get("session_deduped_ops_total{session=\"m\"}"),
        1.0,
        "the replayed token must count as exactly one dedup"
    );
    // Shed counts: the deterministic refusal above, visible identically
    // from stats, the metrics JSON, and the degraded-outcome family.
    let overload = session_stats.get("overload").expect("overload block");
    assert_eq!(num(overload, "shed"), 1.0);
    assert_eq!(get("session_shed_total{session=\"m\"}"), 1.0);
    assert_eq!(get("server_requests_degraded_total{outcome=\"shed\"}"), 1.0);
    let admission = global_stats
        .get("server")
        .and_then(|s| s.get("admission"))
        .expect("admission block");
    assert_eq!(num(admission, "shed"), get("admission_shed_total"));
    assert_eq!(
        num(admission, "inflight_high_water"),
        num(metrics.get("admission_inflight").unwrap(), "high_water"),
    );
    // Fsync latency histogram: stats' count is the histogram's count.
    let durability = session_stats.get("durability").expect("durability block");
    assert_eq!(
        num(durability, "fsync_count"),
        num(
            metrics.get("durable_fsync_us{session=\"m\"}").unwrap(),
            "count"
        ),
    );
    assert!(
        num(durability, "fsync_count") >= 2.0,
        "fsync=always must have synced both applied batches: {durability}"
    );
    // Pool backlog: every work-carrying request passes through the queue,
    // so the high-water mark must have registered at least one entry.
    let backlog = metrics.get("pool_backlog").expect("pool_backlog gauge");
    assert!(num(backlog, "high_water") >= 1.0, "{backlog}");
    // Requests by kind: the workload above, exactly.
    assert_eq!(get("server_requests_total{kind=\"create\"}"), 1.0);
    assert_eq!(get("server_requests_total{kind=\"op\"}"), 3.0);
    assert_eq!(get("server_requests_total{kind=\"measure\"}"), 5.0);
    assert_eq!(get("server_requests_total{kind=\"tuple_measures\"}"), 1.0);
    assert_eq!(get("server_requests_total{kind=\"stats\"}"), 2.0);
    // A per-kind counter is born on first increment and observation runs
    // after dispatch, so the JSON snapshot cannot see its own request —
    // the prom scrape one request later sees exactly it.
    assert!(metrics
        .get("server_requests_total{kind=\"metrics\"}")
        .is_none());
    assert_eq!(
        prom.get("server_requests_total{kind=\"metrics\"}").copied(),
        Some(1.0)
    );

    ok(&c.request("{\"cmd\":\"shutdown\"}").unwrap());
    handle.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
}
