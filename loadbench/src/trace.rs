//! The traced run: the workload's seeded stream replayed one layer
//! deeper at a time, with a span around every call into a layer.
//!
//! | depth | executes each request with                                  |
//! |-------|-------------------------------------------------------------|
//! | 1     | the real server over TCP (as the untraced run)              |
//! | 2     | `router::route_line` on an in-process registry, no sockets  |
//! | 3     | `Session::measure` / `apply_ops` / `tuple_measures`, no JSON |
//! | 4     | a twin `IncrementalIndex`, no locks or write-ahead log      |
//! | 5     | kernels: delta violation join, `.ops` parse, WAL append     |
//!
//! Every depth starts from the same preload and replays the same
//! requests, so a layer's self time per request is the mean time at its
//! depth minus the mean time at the next depth. Spans are kept in memory
//! and written to `.loadbench_trace/<workload>-<seed>.tsv` at the end.

use crate::e2e::{self, index_from, Outcome};
use crate::gen::{Kind, Req, Workload, MEASURES};
use crate::server::ServerProc;
use inconsist::incremental::ReadMode;
use inconsist::measures::MeasureOptions;
use inconsist::repair::RepairOp;
use inconsist_formats::csv::load_csv;
use inconsist_formats::opsfile::parse_ops_file;
use inconsist_server::durable::{Durability, DurabilityConfig, FsyncPolicy};
use inconsist_server::protocol::{parse_request, Payload};
use inconsist_server::{router, shard, Admission, Client, Json, Registry, ServerCounters, Session};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span: name, depth, request index, start and end (ns
/// since the trace began).
struct Span {
    name: &'static str,
    depth: u8,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
pub struct Spans {
    origin: Instant,
    rows: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            rows: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        depth: u8,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.rows.push(Span {
            name,
            depth,
            req: req as u32,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        depth: u8,
        req: usize,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.rows.push(Span {
            name,
            depth,
            req: req as u32,
            start_ns,
            end_ns,
        });
    }

    /// Total µs and span count per name.
    fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.rows {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) as f64 / 1e3;
            e.1 += 1;
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tdepth\treq\tstart_ns\tend_ns")?;
        for s in &self.rows {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.depth, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer metric names, in output order, with units. Every name is
/// printed for every workload; a layer the workload never reaches reads 0.
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("event_loop.self_us", "us"),
    ("wire.parse_us", "us"),
    ("wire.parse_ns_per_byte", "ns/B"),
    ("wire.serialize_us", "us"),
    ("wire.response_bytes", "B"),
    ("protocol.parse_request_us", "us"),
    ("router.self_us", "us"),
    ("session.self_us", "us"),
    ("session.cache_hit_ratio", "ratio"),
    ("opsfile.parse_us", "us"),
    ("csv.load_s", "s"),
    ("incremental.build_s", "s"),
    ("engine.full_scan_s", "s"),
    ("incremental.cached_read_us", "us"),
    ("incremental.top_k_us", "us"),
    ("incremental.apply_us", "us"),
    ("engine.delta_violations_us", "us"),
    ("engine.delta_violations_per_op", "count"),
    ("graph.update_self_us", "us"),
    ("incremental.warm_us", "us"),
    ("incremental.dirty_components_per_write", "count"),
    ("incremental.solve_cache_hit_ratio", "ratio"),
    ("solver.cover_solves_per_write", "count"),
    ("solver.lin_solves_per_write", "count"),
    ("durable.append_us", "us"),
    ("durable.bytes_per_batch", "B"),
    ("durable.snapshot_us", "us"),
    ("durable.recover_s", "s"),
    ("durable.replayed_ops", "count"),
    ("durable.restart_to_read_s", "s"),
    ("durable.disk_bytes_per_op_byte", "ratio"),
    ("coordinator.hop_us", "us"),
    ("shard.fold_us", "us"),
    ("tcp.topk_p50_us", "us"),
    ("tcp.gather_p50_us", "us"),
    ("tcp.snapshot_p50_us", "us"),
    ("tcp.read_p99_us", "us"),
    ("tcp.write_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("depth1.unattributed_us", "us"),
    ("depth2.unattributed_us", "us"),
    ("depth3.unattributed_us", "us"),
    ("depth4.unattributed_us", "us"),
];

/// Runs the traced depths and returns every per-layer metric.
pub fn run(
    w: &Workload,
    untraced: &Outcome,
    binary: &Path,
    work: &Path,
    seed: u64,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut spans = Spans::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let n = w.stream.len() as f64;

    // Depth 1: TCP, spans on.
    let traced = e2e::run(w, binary, work, Some(&mut spans))?;
    m.insert(
        "trace.overhead_pct",
        (traced.loop_s - untraced.loop_s) / untraced.loop_s * 100.0,
    );
    let tcp_mean = traced.latencies_us.iter().sum::<f64>() / n;
    m.insert(
        "depth1.unattributed_us",
        traced.loop_s * 1e6 / (n - w.warmup as f64) - tcp_mean,
    );
    for (name, label, p) in [
        ("tcp.topk_p50_us", "topk", 0.5),
        ("tcp.gather_p50_us", "gather", 0.5),
        ("tcp.snapshot_p50_us", "snapshot", 0.5),
        ("tcp.read_p99_us", "read", 0.99),
        ("tcp.write_p99_us", "write", 0.99),
    ] {
        m.insert(name, traced.percentile(label, p));
    }
    m.insert(
        "durable.restart_to_read_s",
        traced.recovery_s.unwrap_or(0.0),
    );
    m.insert(
        "durable.disk_bytes_per_op_byte",
        traced.disk_bytes_per_op_byte.unwrap_or(0.0),
    );
    println!("traced {}", traced.counters.line());

    // Depth 2: router, plus the wire and protocol parse of each line.
    let durable_cfg = |dir: &str| DurabilityConfig {
        data_dir: work.join(dir),
        fsync: FsyncPolicy::Always,
        snapshot_every: None,
        segment_bytes: None,
    };
    let durable = w.kind == Kind::IngestDurable;
    let registry = Registry::with_config(
        1,
        MeasureOptions::default(),
        durable.then(|| durable_cfg("router")),
    );
    for s in &w.sessions {
        registry
            .create(
                &s.name,
                &Payload::Inline(s.csv.clone()),
                &Payload::Inline(s.dc.clone()),
                ReadMode::Component,
            )
            .map_err(|e| format!("router depth create: {e}"))?;
    }
    let counters = ServerCounters::default();
    let admission = Admission::new(0, 0, 50);
    let mut router_us = 0.0;
    let mut line_bytes = 0.0;
    let mut response_bytes = 0.0;
    let d2_started = Instant::now();
    for (i, req) in w.stream.iter().enumerate() {
        let line = req.line(&w.sessions);
        line_bytes += line.len() as f64;
        spans
            .time("wire.parse", 5, i, || Json::parse(&line))
            .map_err(|e| e.to_string())?;
        spans
            .time("protocol.parse_request", 5, i, || parse_request(&line))
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let (reply, _) = router::route_line(&registry, &counters, &admission, &line);
        let end = Instant::now();
        spans.record("router.route_line", 2, i, start, end);
        router_us += (end - start).as_secs_f64() * 1e6;
        response_bytes += reply.len() as f64;
        let json = Json::parse(&reply).map_err(|e| e.to_string())?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("router depth: {} failed: {reply}", req.label()));
        }
        spans.time("wire.serialize", 5, i, || json.to_string());
    }
    let d2_wall = d2_started.elapsed().as_secs_f64() * 1e6;
    drop(registry);
    let totals = spans.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let router_mean = router_us / n;
    m.insert("event_loop.self_us", tcp_mean - router_mean);
    m.insert("wire.parse_us", total("wire.parse") / n);
    m.insert(
        "wire.parse_ns_per_byte",
        total("wire.parse") * 1e3 / line_bytes,
    );
    m.insert("wire.serialize_us", total("wire.serialize") / n);
    m.insert("wire.response_bytes", response_bytes / n);
    m.insert(
        "protocol.parse_request_us",
        total("protocol.parse_request") / n,
    );
    m.insert(
        "depth2.unattributed_us",
        (d2_wall
            - router_us
            - total("wire.parse")
            - total("protocol.parse_request")
            - total("wire.serialize"))
            / n,
    );

    // Depth 3: sessions called directly.
    let opts = MeasureOptions::default();
    let measures: Vec<String> = MEASURES.iter().map(|s| s.to_string()).collect();
    let summable: Vec<String> = crate::gen::GATHER_MEASURES
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cfg3 = durable_cfg("session");
    let sessions: Vec<Session> = w
        .sessions
        .iter()
        .map(|s| {
            Session::open(
                &s.name,
                &s.csv,
                &s.dc,
                ReadMode::Component,
                1,
                MeasureOptions::default(),
                durable.then_some(&cfg3),
            )
            .map_err(|e| format!("session depth open: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut session_us = 0.0;
    let d3_started = Instant::now();
    for (i, req) in w.stream.iter().enumerate() {
        let start = Instant::now();
        let reply = match req {
            Req::Read(s) => sessions[*s].measure(&measures, false, &opts),
            Req::TopK(s) => sessions[*s].tuple_measures(10, None),
            Req::Write(s, ops) => sessions[*s].apply_ops(ops),
            Req::Snapshot(s) => {
                let t = Instant::now();
                let r = sessions[*s].snapshot();
                spans.record("durable.snapshot", 4, i, t, Instant::now());
                r
            }
            Req::Gather => {
                let mut rows = Vec::with_capacity(sessions.len());
                for s in &sessions {
                    let r = s
                        .measure(&summable, false, &opts)
                        .map_err(|e| format!("session depth gather: {e}"))?;
                    rows.push((
                        s.name().to_string(),
                        r.get("values").cloned().unwrap_or(Json::Null),
                    ));
                }
                let folded = spans.time("shard.fold_sessions", 4, i, || {
                    shard::fold_sessions(&summable, &mut rows)
                });
                Ok(folded)
            }
        }
        .map_err(|e| format!("session depth: {} failed: {e}", req.label()))?;
        let end = Instant::now();
        spans.record("session.call", 3, i, start, end);
        session_us += (end - start).as_secs_f64() * 1e6;
        drop(reply);
    }
    let d3_wall = d3_started.elapsed().as_secs_f64() * 1e6;
    let (shared, exclusive) = sessions.iter().fold((0u64, 0u64), |(a, b), s| {
        (
            a + s.counters().shared_reads.get(),
            b + s.counters().exclusive_reads.get(),
        )
    });
    m.insert(
        "session.cache_hit_ratio",
        ratio(shared as f64, (shared + exclusive) as f64),
    );
    let session_mean = session_us / n;
    m.insert("router.self_us", router_mean - session_mean);
    m.insert("depth3.unattributed_us", (d3_wall - session_us) / n);
    let totals = spans.totals();
    let per = |name: &str| totals.get(name).map_or(0.0, |t| t.0 / t.1.max(1) as f64);
    m.insert("durable.snapshot_us", per("durable.snapshot"));
    m.insert("shard.fold_us", per("shard.fold_sessions"));
    if durable {
        drop(sessions);
        let started = Instant::now();
        let recovered = Session::recover(&cfg3, &w.sessions[0].name, 1, MeasureOptions::default())
            .map_err(|e| format!("recover: {e}"))?;
        m.insert("durable.recover_s", started.elapsed().as_secs_f64());
        let replayed = recovered
            .stats()
            .get("durability")
            .and_then(|d| d.get("recovery"))
            .and_then(|r| r.get("replayed"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        m.insert("durable.replayed_ops", replayed);
    } else {
        drop(sessions);
    }

    // Depths 4 and 5: twin indexes and the kernels under them.
    let index_us = index_depth(w, work, &mut spans, &mut m)?;
    m.insert("session.self_us", session_mean - index_us / n);

    if w.kind == Kind::FleetRead {
        m.insert("coordinator.hop_us", coordinator_hop(w, binary, work)?);
    }

    let path = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".loadbench_trace")
        .join(format!("{}-{seed}.tsv", w.kind.name()));
    spans
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans {} written to {}", spans.rows.len(), path.display());

    Ok(LAYER_METRICS
        .iter()
        .map(|(name, unit)| (name.to_string(), m.get(name).copied().unwrap_or(0.0), *unit))
        .collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Depth 4 (twin `IncrementalIndex` per session) and depth 5 (kernels).
/// Returns the summed index-call time, µs.
fn index_depth(
    w: &Workload,
    work: &Path,
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<f64, String> {
    let opts = MeasureOptions::default();
    let mut twins = Vec::with_capacity(w.sessions.len());
    let (mut load_s, mut build_s, mut scan_s) = (0.0, 0.0, 0.0);
    for s in &w.sessions {
        let t = Instant::now();
        let loaded = load_csv(&s.csv, &s.name)?;
        load_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (idx, rel_schema, rel) = index_from(loaded, s)?;
        build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mi = inconsist::constraints::engine::minimal_inconsistent_subsets(
            idx.db(),
            idx.constraints(),
            None,
        );
        scan_s += t.elapsed().as_secs_f64();
        drop(mi);
        // Dirty until the first read warms it.
        twins.push((idx, rel_schema, rel, true));
    }
    m.insert("csv.load_s", load_s);
    m.insert("incremental.build_s", build_s);
    m.insert("engine.full_scan_s", scan_s);

    let mut wal = if w.kind == Kind::IngestDurable {
        let cfg = DurabilityConfig {
            data_dir: work.join("kernel-wal"),
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            segment_bytes: None,
        };
        Some(Durability::create(&cfg, &w.sessions[0].name).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut seq = 0u64;
    let (mut ops, mut writes, mut delta_sets) = (0u64, 0u64, 0u64);
    let mut dirty_components = 0u64;
    let mut index_us = 0.0;
    let solve_stats = |twins: &Vec<(inconsist::incremental::IncrementalIndex, _, _, bool)>| {
        twins.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, t| {
            let s = t.0.stats();
            (
                acc.0 + s.cover_solves,
                acc.1 + s.lin_solves,
                acc.2 + s.cover_cache_hits + s.lin_cache_hits,
                acc.3 + s.cover_solves + s.lin_solves + s.cover_cache_hits + s.lin_cache_hits,
            )
        })
    };
    let d4_started = Instant::now();
    let mut timed_in_loop = 0.0;
    for (i, req) in w.stream.iter().enumerate() {
        let call_start = Instant::now();
        let mut kernel_us = 0.0;
        match req {
            Req::Write(s, text) => {
                writes += 1;
                let (idx, rel_schema, rel, dirty) = &mut twins[*s];
                let t = Instant::now();
                let parsed = parse_ops_file(rel_schema, *rel, text)?;
                spans.record("opsfile.parse", 5, i, t, Instant::now());
                if let Some(wal) = wal.as_mut() {
                    let records: Vec<(u64, String)> = text
                        .lines()
                        .map(|l| {
                            seq += 1;
                            (seq, l.to_string())
                        })
                        .collect();
                    let t = Instant::now();
                    wal.append(&records).map_err(|e| e.to_string())?;
                    let end = Instant::now();
                    spans.record("durable.append", 5, i, t, end);
                    // The log belongs to the session layer, not the index.
                    kernel_us += (end - t).as_secs_f64() * 1e6;
                }
                for op in &parsed {
                    ops += 1;
                    let t = Instant::now();
                    idx.apply(op);
                    let applied = Instant::now();
                    spans.record("incremental.apply", 4, i, t, applied);
                    let touched = match op {
                        RepairOp::Update(tid, _, _) => Some(*tid),
                        RepairOp::Insert(_) | RepairOp::Delete(_) => None,
                    };
                    // The delta join the index just ran for this op,
                    // re-run from outside (depth 5).
                    if let Some(tid) = touched {
                        let t = Instant::now();
                        let delta = inconsist::constraints::engine::delta_violations_involving(
                            idx.db(),
                            idx.constraints(),
                            tid,
                        );
                        let end = Instant::now();
                        spans.record("engine.delta_violations", 5, i, t, end);
                        kernel_us += (end - t).as_secs_f64() * 1e6;
                        delta_sets += delta.per_dc.len() as u64;
                    }
                }
                *dirty = true;
            }
            Req::Read(s) => {
                read_twin(&mut twins[*s], &opts, spans, i, &mut dirty_components)?;
            }
            Req::TopK(s) => {
                let idx = &mut twins[*s].0;
                spans.time("incremental.top_k", 4, i, || idx.top_k_tuples(10));
            }
            Req::Snapshot(_) => {}
            Req::Gather => {
                for t in twins.iter_mut() {
                    read_twin(t, &opts, spans, i, &mut dirty_components)?;
                }
            }
        }
        let end = Instant::now();
        index_us += (end - call_start).as_secs_f64() * 1e6 - kernel_us;
        spans.record("index.call", 4, i, call_start, end);
        timed_in_loop += (end - call_start).as_secs_f64() * 1e6;
    }
    let d4_wall = d4_started.elapsed().as_secs_f64() * 1e6;
    let n = w.stream.len() as f64;
    let (cover, lin, hits, lookups) = solve_stats(&twins);
    let totals = spans.totals();
    let per = |name: &str| totals.get(name).map_or(0.0, |t| t.0 / t.1.max(1) as f64);
    m.insert("opsfile.parse_us", per("opsfile.parse"));
    m.insert("durable.append_us", per("durable.append"));
    if let Some(wal) = &wal {
        m.insert(
            "durable.bytes_per_batch",
            ratio(wal.appended_bytes as f64, writes as f64),
        );
    }
    m.insert("incremental.apply_us", per("incremental.apply"));
    m.insert("engine.delta_violations_us", per("engine.delta_violations"));
    m.insert(
        "engine.delta_violations_per_op",
        ratio(delta_sets as f64, ops as f64),
    );
    m.insert(
        "graph.update_self_us",
        per("incremental.apply")
            - totals.get("engine.delta_violations").map_or(0.0, |t| t.0) / ops.max(1) as f64,
    );
    m.insert("incremental.warm_us", per("incremental.warm"));
    m.insert("incremental.cached_read_us", per("incremental.cached_read"));
    m.insert("incremental.top_k_us", per("incremental.top_k"));
    m.insert(
        "incremental.dirty_components_per_write",
        ratio(dirty_components as f64, writes as f64),
    );
    m.insert(
        "incremental.solve_cache_hit_ratio",
        ratio(hits as f64, lookups as f64),
    );
    m.insert(
        "solver.cover_solves_per_write",
        ratio(cover as f64, writes as f64),
    );
    m.insert(
        "solver.lin_solves_per_write",
        ratio(lin as f64, writes as f64),
    );
    m.insert("depth4.unattributed_us", (d4_wall - timed_in_loop) / n);
    Ok(index_us)
}

/// A read on a twin: the `&mut` readers (re-solving dirty components)
/// when a write came since the last read, then the cached measure reads.
fn read_twin(
    twin: &mut (
        inconsist::incremental::IncrementalIndex,
        Arc<inconsist::relational::RelationSchema>,
        inconsist::relational::RelId,
        bool,
    ),
    opts: &MeasureOptions,
    spans: &mut Spans,
    i: usize,
    dirty_components: &mut u64,
) -> Result<(), String> {
    let (idx, _, _, dirty) = twin;
    if *dirty {
        *dirty_components += idx.dirty_component_count() as u64;
        // The `&mut` readers a session's exclusive read path runs: each
        // re-solves only the dirty components its measure needs.
        spans.time("incremental.warm", 4, i, || -> Result<(), String> {
            idx.i_mi();
            idx.i_p();
            idx.i_r(opts).map_err(|e| format!("I_R: {e:?}"))?;
            idx.i_r_lin().map_err(|e| format!("I_R^lin: {e:?}"))?;
            Ok(())
        })?;
        *dirty = false;
    }
    let idx = &*idx;
    let values = spans.time("incremental.cached_read", 4, i, || {
        (
            idx.i_d(),
            idx.try_i_mi(),
            idx.try_i_p(),
            idx.try_i_r(opts),
            idx.try_i_r_lin(),
        )
    });
    if values.1.is_none() || values.2.is_none() || values.3.is_none() || values.4.is_none() {
        return Err("a warm index missed its caches".into());
    }
    Ok(())
}

/// Median latency of one session read through the coordinator minus the
/// same read sent straight to the worker shard that owns the session.
fn coordinator_hop(w: &Workload, binary: &Path, work: &Path) -> Result<f64, String> {
    let (server, _) = e2e::set_up(w, binary, work, None)?;
    let mut coord = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let shards = Json::parse(
        &coord
            .request("{\"cmd\":\"shards\"}")
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let name = &w.sessions[0].name;
    let mut direct = None;
    for row in shards.get("shards").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(addr) = row
            .get("addr")
            .and_then(Json::as_str)
            .and_then(|a| a.parse().ok())
        else {
            continue;
        };
        let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
        let list = c
            .request("{\"cmd\":\"sessions\"}")
            .map_err(|e| e.to_string())?;
        if list.contains(&format!("\"{name}\"")) {
            direct = Some(c);
        }
    }
    let mut direct = direct.ok_or("no shard owns the first session")?;
    let line = Req::Read(0).line(&w.sessions);
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..400 {
        for (client, out) in [(&mut coord, &mut via), (&mut direct, &mut straight)] {
            let t = Instant::now();
            let reply = client.request(&line).map_err(|e| e.to_string())?;
            out.push(t.elapsed().as_secs_f64() * 1e6);
            if !reply.contains("\"ok\":true") {
                return Err(format!("hop probe: {reply}"));
            }
        }
    }
    drop((coord, direct));
    ServerProc::stop(server);
    let p50 = |v: &[f64]| crate::stats::nearest_rank(v, 0.5).unwrap_or(0.0);
    Ok(p50(&via) - p50(&straight))
}
