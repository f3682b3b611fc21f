//! The five subcommands of the `inconsist` binary.
//!
//! Every command returns its report as a `String` (printed by `main`), so
//! the full pipeline is unit-testable without capturing stdout. File
//! arguments are read/written here; the heavy lifting lives in the
//! library crates.

use crate::cli_args::Cli;
use crate::csv::{load_csv, write_csv, LoadedCsv};
use crate::dcfile::{parse_dc_file, write_dc_file};
use crate::opsfile::{display_op, parse_ops_file};
use inconsist::constraints::{mine_dcs, ConstraintSet, MinerConfig};
use inconsist::incremental::{IncrementalIndex, Measure, ReadMode};
use inconsist::measures::{minimum_repair_deletions, MeasureOptions};
use inconsist::measures_ext::extension_measures;
use inconsist::suite::MeasureSuite;
use inconsist_data::{CoNoise, RNoise};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

const HELP: &str = "\
inconsist — database inconsistency measures (SIGMOD 2021 reproduction)

USAGE:
  inconsist measure  <data.csv> <rules.dc> [--threads N] [--all]
                     [--ops repairs.ops]
  inconsist mine     <data.csv> [--epsilon E] [--max-dcs K] [--max-pairs P]
                     [--seed S] [--out rules.dc]
  inconsist repair   <data.csv> <rules.dc> [--out cleaned.csv]
  inconsist noise    <data.csv> <rules.dc> --out noisy.csv
                     [--model conoise|rnoise] [--iters N] [--alpha A]
                     [--beta B] [--typo T] [--seed S]
  inconsist progress <data.csv> <rules.dc> [--steps N]
  inconsist serve    [--addr HOST:PORT] [--workers N] [--solve-threads N]
                     [--preload name=data.csv,rules.dc]
                     [--addr-file path] [--data-dir DIR] [--fsync always|never]
                     [--snapshot-every N] [--segment-bytes N]
                     [--max-inflight N] [--session-inflight N] [--queue-limit N]
                     [--retry-after-ms N] [--read-poll-ms N] [--write-timeout-ms N]
                     [--event-threads N] [--max-pipeline N] [--write-buffer-kb N]
                     [--metrics-addr HOST:PORT] [--slow-request-ms N]
                     [--coordinator] [--shards N] [--shard-addr HOST:PORT[,..]]
                     [--join ADDR]
  inconsist client   <addr> [request-json | snapshot NAME | compact NAME |
                     top NAME [K] | options NAME key=value... |
                     metrics [prom] ...]

FILES:
  data.csv   header + rows; column types are inferred (int/float/str)
  rules.dc   one denial constraint per line: `name: t.A = t'.A & t.B != t'.B`
             (the body is the FORBIDDEN condition)

COMMANDS:
  measure    evaluate I_d, I_MI, I_P, I_R, I_R^lin (+ I_MC with --all,
             + the extension measures) and the violation ratio; with
             --ops, replay a repair-op script (delete/update/insert, one
             per line) through the incremental index and print the
             measure trajectory after each step
  mine       discover denial constraints from the data (evidence-set miner)
  repair     compute a minimum-cost deletion repair; --out writes the
             repaired CSV
  noise      run the paper's CONoise/RNoise error generators
  progress   greedy cleaning loop with live measure trace (incremental)
  serve      run the measure server (line-delimited JSON over TCP); blocks
             until a client sends {\"cmd\":\"shutdown\"}; --preload opens a
             session from files before accepting; --addr-file writes the
             bound address (useful with port 0); --data-dir makes sessions
             durable (write-ahead op log + snapshots, recovered on
             restart; --fsync picks the flush policy, --snapshot-every N
             auto-snapshots and compacts after N ops, --segment-bytes N
             rotates the op log into sealed segments); overload knobs:
             --max-inflight / --session-inflight / --queue-limit bound
             concurrent work (0 = unlimited; excess requests are shed
             with kind:\"overloaded\" and a --retry-after-ms hint), and
             --read-poll-ms / --write-timeout-ms bound slow clients;
             connections are multiplexed onto --event-threads readiness
             loops (requests on one connection pipeline up to
             --max-pipeline deep, responses always in request order, and
             a peer whose responses back up past --write-buffer-kb stops
             being read until it drains); observability: --metrics-addr
             binds a plaintext Prometheus exposition listener (one scrape
             per connection) and --slow-request-ms logs any slower
             request to stderr with its per-stage span breakdown;
             scale-out: --coordinator turns the process into a
             session-routing coordinator that forwards every
             session-scoped request to the worker shard owning the
             session — --shards N spawns and supervises N local workers
             (a dead worker is respawned on its original port; with
             --data-dir each worker owns <dir>/shard-N), --shard-addr
             lists externally managed workers (repeatable or
             comma-separated), and a worker started with --join ADDR
             announces itself to the coordinator at ADDR
  client     send request lines to a running server (from the arguments,
             or stdin when none are given) and print the responses;
             `snapshot NAME` / `compact NAME` / `top NAME [K]` /
             `options NAME key=value...` / `metrics [prom]` are shorthand
             for the corresponding JSON requests (`top` asks for the K
             most inconsistent tuples, default 10; `options` overrides a
             session's measure options — keys violation_limit (a count
             or `none`), mis_budget, vc_budget; `metrics` dumps the
             metric registry, `metrics prom` as Prometheus text)
";

/// Dispatches a parsed command line, returning the report to print.
pub fn run(cli: &Cli) -> Result<String, String> {
    if cli.has("help") || cli.command.is_empty() || cli.command == "help" {
        return Ok(HELP.to_string());
    }
    match cli.command.as_str() {
        "measure" => cmd_measure(cli),
        "mine" => cmd_mine(cli),
        "repair" => cmd_repair(cli),
        "noise" => cmd_noise(cli),
        "progress" => cmd_progress(cli),
        "serve" => cmd_serve(cli),
        "client" => cmd_client(cli),
        other => Err(format!("unknown command `{other}`\n\n{HELP}")),
    }
}

fn rel_name(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "data".to_string())
}

fn load_data(cli: &Cli) -> Result<(LoadedCsv, String), String> {
    let path = cli.positional(0, "data.csv")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = rel_name(path);
    Ok((load_csv(&text, &name)?, name))
}

fn load_constraints(cli: &Cli, loaded: &LoadedCsv, name: &str) -> Result<ConstraintSet, String> {
    let path = cli.positional(1, "rules.dc")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let dcs = parse_dc_file(&loaded.schema, name, &text)?;
    let mut cs = ConstraintSet::new(Arc::clone(&loaded.schema));
    for dc in dcs {
        cs.add_dc(dc);
    }
    Ok(cs)
}

fn cmd_measure(cli: &Cli) -> Result<String, String> {
    let (loaded, name) = load_data(cli)?;
    let cs = load_constraints(cli, &loaded, &name)?;
    if cli.opt_str("ops").is_some() {
        return cmd_measure_ops(cli, &loaded, cs);
    }
    let suite = MeasureSuite {
        skip_mc: !cli.has("all"),
        threads: cli.opt("threads", 1)?,
        ..Default::default()
    };
    let report = suite.eval_all(&cs, &loaded.db);
    let mut out = format!(
        "{} tuples, {} constraints, violation ratio {:.4}%\n\n",
        loaded.db.len(),
        cs.len(),
        report.violation_ratio * 100.0
    );
    let _ = writeln!(out, "{:<11}{:>14}", "measure", "value");
    for (measure, value) in report.entries() {
        let rendered = match value {
            Ok(v) => format!("{v}"),
            Err(e) => format!("({e})"),
        };
        let _ = writeln!(out, "{measure:<11}{rendered:>14}");
    }
    for m in extension_measures(MeasureOptions::default()) {
        let rendered = match m.eval(&cs, &loaded.db) {
            Ok(v) => format!("{v}"),
            Err(e) => format!("({e})"),
        };
        let _ = writeln!(out, "{:<11}{rendered:>14}", m.name());
    }
    Ok(out)
}

/// `measure --ops`: replay a repair-op script through the incremental
/// index, printing the measure trajectory after every step — the paper's
/// progress-indication loop (§1) as a batch command.
fn cmd_measure_ops(cli: &Cli, loaded: &LoadedCsv, cs: ConstraintSet) -> Result<String, String> {
    let path = cli.opt_str("ops").expect("checked by caller");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ops = parse_ops_file(loaded.db.relation_schema(loaded.rel), loaded.rel, &text)?;
    let opts = MeasureOptions::default();
    let mut idx = IncrementalIndex::build(loaded.db.clone(), cs).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{:>5} {:<24} {:>8} {:>8} {:>8} {:>10}\n",
        "step", "op", "I_MI", "I_P", "I_R", "I_R^lin"
    );
    let row = |step: String, op: String, idx: &mut IncrementalIndex| {
        let columns = [Measure::Mi, Measure::P, Measure::R, Measure::RLin];
        let [mi, p, ir, lin] = columns.map(|m| match idx.measure(m, &opts, None) {
            Ok(v) if m == Measure::RLin => format!("{:.2}", v.value),
            Ok(v) => v.value.to_string(),
            Err(e) => format!("({e})"),
        });
        format!("{step:>5} {op:<24} {mi:>8} {p:>8} {ir:>8} {lin:>10}\n")
    };
    out.push_str(&row("0".into(), "-".into(), &mut idx));
    for (i, op) in ops.iter().enumerate() {
        let mut label = display_op(op, loaded.db.relation_schema(loaded.rel));
        if !idx.apply(op) {
            label.push_str(" (no-op)");
        }
        out.push_str(&row((i + 1).to_string(), label, &mut idx));
    }
    let stats = idx.stats();
    let _ = writeln!(
        out,
        "\n{} ops replayed: {} components live, \
         {} minimality filters ({} cached), {} cover solves ({} cached), \
         {} LP solves ({} cached)",
        ops.len(),
        idx.component_count(),
        stats.filter_runs,
        stats.filter_cache_hits,
        stats.cover_solves,
        stats.cover_cache_hits,
        stats.lin_solves,
        stats.lin_cache_hits,
    );
    if idx.is_consistent() {
        let _ = writeln!(out, "database is consistent after the script");
    }
    Ok(out)
}

fn cmd_mine(cli: &Cli) -> Result<String, String> {
    let (loaded, _name) = load_data(cli)?;
    let cfg = MinerConfig {
        epsilon: cli.opt("epsilon", 0.0)?,
        max_dcs: cli.opt("max-dcs", 12)?,
        max_pairs: cli.opt("max-pairs", 50_000)?,
        seed: cli.opt("seed", 1)?,
        ..Default::default()
    };
    let mined = mine_dcs(&loaded.db, loaded.rel, &cfg);
    if mined.is_empty() {
        return Err("no constraints mined (try --epsilon or more data)".into());
    }
    let dcs: Vec<_> = mined.iter().map(|m| m.dc.clone()).collect();
    let file = write_dc_file(&dcs, &loaded.schema, cli.positional(0, "data.csv")?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<58}{:>8}{:>14}",
        "constraint", "score", "violations"
    );
    for m in &mined {
        let _ = writeln!(
            out,
            "{:<58}{:>8.3}{:>9}/{}",
            format!("{}", m.dc.display(&loaded.schema)),
            m.score,
            m.violations,
            m.sample_size
        );
    }
    match cli.opt_str("out") {
        Some(path) => {
            std::fs::write(path, &file).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(out, "\nwrote {} constraints to {path}", mined.len());
        }
        None => {
            let _ = writeln!(out, "\n{file}");
        }
    }
    Ok(out)
}

fn cmd_repair(cli: &Cli) -> Result<String, String> {
    let (loaded, name) = load_data(cli)?;
    let cs = load_constraints(cli, &loaded, &name)?;
    let opts = MeasureOptions::default();
    let deletions = minimum_repair_deletions(&cs, &loaded.db, &opts).map_err(|e| e.to_string())?;
    let cost: f64 = deletions.iter().map(|&t| loaded.db.cost_of(t)).sum();
    let mut repaired = loaded.db.clone();
    for &t in &deletions {
        repaired.delete(t);
    }
    debug_assert!(inconsist::constraints::is_consistent(&repaired, &cs));
    let mut out = format!(
        "minimum deletion repair: {} of {} tuples, cost {}\n",
        deletions.len(),
        loaded.db.len(),
        cost
    );
    for &t in deletions.iter().take(20) {
        let _ = writeln!(out, "  - tuple #{}", t.0);
    }
    if deletions.len() > 20 {
        let _ = writeln!(out, "  … and {} more", deletions.len() - 20);
    }
    if let Some(path) = cli.opt_str("out") {
        std::fs::write(path, write_csv(&repaired, loaded.rel))
            .map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "wrote repaired data to {path}");
    }
    Ok(out)
}

fn cmd_noise(cli: &Cli) -> Result<String, String> {
    let (loaded, name) = load_data(cli)?;
    let cs = load_constraints(cli, &loaded, &name)?;
    let out_path = cli
        .opt_str("out")
        .ok_or_else(|| "--out <noisy.csv> is required".to_string())?;
    let model = cli.opt_str("model").unwrap_or("conoise");
    let seed: u64 = cli.opt("seed", 1)?;
    let mut db = loaded.db.clone();
    let edits = match model {
        "conoise" => {
            let iters: usize = cli.opt("iters", 100)?;
            let mut noise = CoNoise::new(seed);
            (0..iters).map(|_| noise.step(&mut db, &cs).len()).sum()
        }
        "rnoise" => {
            let beta: f64 = cli.opt("beta", 0.0)?;
            let typo: f64 = cli.opt("typo", 0.5)?;
            let alpha: f64 = cli.opt("alpha", 0.01)?;
            let default_iters = RNoise::iterations_for(alpha, &db);
            let iters: usize = cli.opt("iters", default_iters)?;
            let mut noise = RNoise::new(seed, beta);
            noise.typo_prob = typo;
            noise.run(&mut db, &cs, iters)
        }
        other => return Err(format!("--model: unknown noise model `{other}`")),
    };
    std::fs::write(out_path, write_csv(&db, loaded.rel)).map_err(|e| format!("{out_path}: {e}"))?;
    let before = IncrementalIndex::build(loaded.db, cs.clone())
        .map(|i| i.raw_violations())
        .map_err(|e| e.to_string())?;
    let after = IncrementalIndex::build(db, cs)
        .map(|i| i.raw_violations())
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "{model}: {edits} cell edits; raw violations {before} → {after}; wrote {out_path}\n"
    ))
}

fn cmd_progress(cli: &Cli) -> Result<String, String> {
    let (loaded, name) = load_data(cli)?;
    let cs = load_constraints(cli, &loaded, &name)?;
    let max_steps: usize = cli.opt("steps", 1_000)?;
    let mut idx = IncrementalIndex::build(loaded.db, cs).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{:>5} {:>10} {:>8} {:>8} {:>10}\n",
        "step", "deleted", "I_MI", "I_P", "I_R^lin"
    );
    let mut cost = 0.0;
    for step in 0..=max_steps {
        let mut deleted = "-".to_string();
        if step > 0 {
            let Some(&(hot, _)) = idx.hottest_tuples(1).first() else {
                break;
            };
            deleted = format!("#{}", hot.0);
            cost += idx.db().cost_of(hot);
            idx.delete(hot);
        }
        let lin = idx.i_r_lin().map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>8} {:>8} {:>10.2}",
            step,
            deleted,
            idx.i_mi(),
            idx.i_p(),
            lin
        );
        if idx.is_consistent() {
            let _ = writeln!(
                out,
                "\nconsistent after {step} greedy deletions (total cost {cost})"
            );
            return Ok(out);
        }
    }
    let _ = writeln!(
        out,
        "\nstopped after {max_steps} steps (still inconsistent)"
    );
    Ok(out)
}

/// Resolves `host:port` to the first matching socket address.
fn resolve_addr(spec: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    spec.to_socket_addrs()
        .map_err(|e| format!("{spec}: {e}"))?
        .next()
        .ok_or_else(|| format!("{spec}: no address"))
}

/// `serve`: run the measure server until a client sends `shutdown`.
fn cmd_serve(cli: &Cli) -> Result<String, String> {
    let durability = match cli.opt_str("data-dir") {
        None => {
            for flag in ["fsync", "snapshot-every", "segment-bytes"] {
                if cli.opt_str(flag).is_some() {
                    return Err(format!("--{flag} requires --data-dir"));
                }
            }
            None
        }
        Some(dir) => {
            let fsync =
                inconsist_server::FsyncPolicy::parse(cli.opt_str("fsync").unwrap_or("always"))
                    .map_err(|e| format!("--fsync: {e}"))?;
            let every: u64 = cli.opt("snapshot-every", 0)?;
            let segment: u64 = cli.opt("segment-bytes", 0)?;
            Some(inconsist_server::DurabilityConfig {
                data_dir: Path::new(dir).to_path_buf(),
                fsync,
                snapshot_every: (every > 0).then_some(every),
                segment_bytes: (segment > 0).then_some(segment),
            })
        }
    };
    // Scale-out topology flags (see ARCHITECTURE.md "Scale-out").
    let coordinator_mode = cli.has("coordinator");
    let shards: usize = cli.opt("shards", 0)?;
    let shard_addr = cli.opt_str("shard-addr");
    if !coordinator_mode && (shards > 0 || shard_addr.is_some()) {
        return Err("--shards/--shard-addr require --coordinator".into());
    }
    let join = match cli.opt_str("join") {
        None => None,
        Some(_) if coordinator_mode => {
            return Err("--join cannot be combined with --coordinator".into())
        }
        Some(spec) => Some(resolve_addr(spec)?),
    };
    if coordinator_mode && cli.opt_str("preload").is_some() {
        return Err(
            "--preload cannot be combined with --coordinator (preload a worker instead, \
             or create the session through a client — the coordinator will route it)"
                .into(),
        );
    }
    if coordinator_mode && durability.is_some() && shards == 0 {
        return Err(
            "--data-dir with --coordinator requires --shards N (each spawned worker \
             owns <data-dir>/shard-N; externally managed workers own their own dirs)"
                .into(),
        );
    }
    let mut shard_addrs: Vec<std::net::SocketAddr> = Vec::new();
    for spec in shard_addr.iter().flat_map(|s| s.split(',')) {
        shard_addrs.push(resolve_addr(spec.trim())?);
    }
    let mut fleet = if shards > 0 {
        let mut per_worker = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut extra: Vec<String> = [
                "--workers",
                &cli.opt("workers", 8usize)?.to_string(),
                "--solve-threads",
                &cli.opt("solve-threads", 1usize)?.to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            if let Some(d) = &durability {
                extra.push("--data-dir".to_string());
                extra.push(
                    d.data_dir
                        .join(format!("shard-{i}"))
                        .to_string_lossy()
                        .into_owned(),
                );
                extra.push("--fsync".to_string());
                extra.push(cli.opt_str("fsync").unwrap_or("always").to_string());
                for flag in ["snapshot-every", "segment-bytes"] {
                    if let Some(v) = cli.opt_str(flag) {
                        extra.push(format!("--{flag}"));
                        extra.push(v.to_string());
                    }
                }
            }
            per_worker.push(extra);
        }
        let fleet = crate::spawn::WorkerFleet::spawn(&per_worker)?;
        shard_addrs.extend(fleet.addrs());
        Some(fleet)
    } else {
        None
    };
    let defaults = inconsist_server::ServerConfig::default();
    let coordinator = coordinator_mode.then(|| {
        let mut cfg = inconsist_server::CoordinatorConfig::new(shard_addrs.clone());
        cfg.retry_after_ms = cli
            .opt("retry-after-ms", defaults.retry_after_ms)
            .unwrap_or(defaults.retry_after_ms);
        cfg
    });
    let config = inconsist_server::ServerConfig {
        addr: cli.opt_str("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: cli.opt("workers", 8)?,
        solve_threads: cli.opt("solve-threads", 1)?,
        // A coordinator holds no sessions of its own: with spawned
        // shards the per-worker subdirs carry the state, and recovering
        // the parent dir here would shadow the shards' sessions.
        durability: if coordinator_mode { None } else { durability },
        coordinator,
        max_inflight: cli.opt("max-inflight", defaults.max_inflight)?,
        session_inflight: cli.opt("session-inflight", defaults.session_inflight)?,
        queue_limit: cli.opt("queue-limit", defaults.queue_limit)?,
        retry_after_ms: cli.opt("retry-after-ms", defaults.retry_after_ms)?,
        read_poll_ms: cli.opt("read-poll-ms", defaults.read_poll_ms)?,
        write_timeout_ms: cli.opt("write-timeout-ms", defaults.write_timeout_ms)?,
        event_threads: cli.opt("event-threads", defaults.event_threads)?,
        max_pipeline: cli.opt("max-pipeline", defaults.max_pipeline)?,
        write_buffer_bytes: cli.opt("write-buffer-kb", defaults.write_buffer_bytes / 1024)? * 1024,
        metrics_addr: cli.opt_str("metrics-addr").map(str::to_string),
        slow_request_ms: cli.opt("slow-request-ms", defaults.slow_request_ms)?,
        ..Default::default()
    };
    let handle = inconsist_server::serve(config).map_err(|e| e.to_string())?;
    if let Some(spec) = cli.opt_str("preload") {
        let parse = || -> Option<(&str, &str, &str)> {
            let (name, files) = spec.split_once('=')?;
            let (csv, dc) = files.split_once(',')?;
            Some((name, csv, dc))
        };
        let (name, csv, dc) = parse()
            .ok_or_else(|| format!("--preload: expected `name=data.csv,rules.dc`, got `{spec}`"))?;
        let preload = |path: &str| inconsist_server::protocol::Payload::Path(path.to_string());
        let session = handle
            .registry()
            .create(name, &preload(csv), &preload(dc), ReadMode::Component)
            .map_err(|e| {
                handle.stop();
                e.to_string()
            })?;
        eprintln!("preloaded session `{}`", session.name());
    }
    let addr = handle.addr();
    if let Some(path) = cli.opt_str("addr-file") {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(fleet) = &mut fleet {
        fleet.supervise();
    }
    if let Some(coordinator_addr) = join {
        // Announce this worker to its coordinator. Retried in the
        // background: the natural start order ("workers first") must not
        // deadlock on the coordinator not listening yet, and vice versa.
        let announce = inconsist_server::protocol::Request::Join {
            addr: addr.to_string(),
        }
        .to_json()
        .to_string();
        std::thread::spawn(move || {
            for attempt in 0..150 {
                let sent = inconsist_server::Client::connect(&coordinator_addr)
                    .and_then(|mut c| c.request(&announce));
                match sent {
                    Ok(response) => {
                        eprintln!("joined coordinator {coordinator_addr}: {response}");
                        return;
                    }
                    Err(e) if attempt == 149 => {
                        eprintln!("join {coordinator_addr}: giving up: {e}");
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(200)),
                }
            }
        });
    }
    let role = if coordinator_mode {
        format!("coordinator ({} shards)", shard_addrs.len())
    } else {
        "server".to_string()
    };
    eprintln!("inconsist-{role} listening on {addr}");
    handle.wait();
    if let Some(fleet) = &mut fleet {
        fleet.shutdown();
    }
    Ok(format!(
        "server stopped after {} requests\n",
        handle.requests_served()
    ))
}

/// Expands the `client` shorthand verbs (`snapshot NAME`, `compact NAME`,
/// `top NAME [K]`) into their JSON requests; raw JSON lines pass through
/// untouched.
fn client_request_line(line: &str) -> Result<String, String> {
    let trimmed = line.trim();
    if trimmed.starts_with('{') {
        return Ok(trimmed.to_string());
    }
    let tokens: Vec<&str> = trimmed.split_whitespace().collect();
    match tokens.as_slice() {
        ["metrics"] => Ok("{\"cmd\":\"metrics\"}".to_string()),
        ["metrics", "prom"] => Ok("{\"cmd\":\"metrics\",\"format\":\"prom\"}".to_string()),
        [verb @ ("snapshot" | "compact"), name] => Ok(format!(
            "{{\"cmd\":\"{verb}\",\"session\":{}}}",
            inconsist_server::Json::str(*name)
        )),
        ["top", name] => Ok(format!(
            "{{\"cmd\":\"tuple_measures\",\"session\":{}}}",
            inconsist_server::Json::str(*name)
        )),
        ["top", name, k] => {
            let k: usize = k
                .parse()
                .ok()
                .filter(|k| *k >= 1)
                .ok_or_else(|| format!("top {name} {k}: K must be a positive integer"))?;
            Ok(format!(
                "{{\"cmd\":\"tuple_measures\",\"session\":{},\"k\":{k}}}",
                inconsist_server::Json::str(*name)
            ))
        }
        ["options", name, pairs @ ..] if !pairs.is_empty() => {
            let mut fields = String::new();
            for pair in pairs {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("options {name}: expected key=value, got `{pair}`"))?;
                if !matches!(key, "violation_limit" | "mis_budget" | "vc_budget") {
                    return Err(format!(
                        "options {name}: unknown key `{key}` (expected \
                         violation_limit, mis_budget or vc_budget)"
                    ));
                }
                let rendered = if key == "violation_limit" && matches!(value, "none" | "null") {
                    "null".to_string()
                } else {
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("options {name}: {key} must be a positive integer"))?
                        .to_string()
                };
                fields.push_str(&format!(",\"{key}\":{rendered}"));
            }
            Ok(format!(
                "{{\"cmd\":\"set_options\",\"session\":{}{fields}}}",
                inconsist_server::Json::str(*name)
            ))
        }
        _ => Err(format!(
            "client request `{trimmed}`: expected a JSON object, `snapshot NAME`, \
             `compact NAME`, `top NAME [K]` or `options NAME key=value...`"
        )),
    }
}

/// `client`: send request lines (arguments or stdin) and print responses.
fn cmd_client(cli: &Cli) -> Result<String, String> {
    use std::net::ToSocketAddrs;
    let addr_arg = cli.positional(0, "addr")?;
    let addr = addr_arg
        .to_socket_addrs()
        .map_err(|e| format!("{addr_arg}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr_arg}: no address"))?;
    let mut client = inconsist_server::Client::connect(&addr).map_err(|e| e.to_string())?;
    let lines: Vec<String> = if cli.positional.len() > 1 {
        // Argv mode: a shorthand verb and its session name arrive as two
        // arguments (`client ADDR snapshot cities`); stitch them back
        // into one request line.
        let mut lines = Vec::new();
        let mut args = cli.positional[1..].iter().peekable();
        while let Some(arg) = args.next() {
            if arg == "metrics" {
                // `metrics [prom]` / `metrics --prom`: server-wide, no
                // session name.
                if cli.has("prom") || args.peek().is_some_and(|next| next.as_str() == "prom") {
                    if args.peek().is_some_and(|next| next.as_str() == "prom") {
                        args.next();
                    }
                    lines.push("metrics prom".to_string());
                } else {
                    lines.push("metrics".to_string());
                }
                continue;
            }
            if matches!(arg.as_str(), "snapshot" | "compact" | "top" | "options")
                && args.peek().is_some_and(|next| !next.starts_with('{'))
            {
                let mut line = format!("{arg} {}", args.next().expect("peeked"));
                // `top NAME K`: the optional numeric k rides along too.
                if arg == "top"
                    && args
                        .peek()
                        .is_some_and(|next| next.chars().all(|c| c.is_ascii_digit()))
                {
                    line.push(' ');
                    line.push_str(args.next().expect("peeked"));
                }
                // `options NAME key=value...`: every key=value rides along.
                if arg == "options" {
                    while args.peek().is_some_and(|next| next.contains('=')) {
                        line.push(' ');
                        line.push_str(args.next().expect("peeked"));
                    }
                }
                lines.push(line);
            } else {
                lines.push(arg.clone());
            }
        }
        lines
    } else {
        use std::io::BufRead;
        std::io::stdin()
            .lock()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    };
    let mut out = String::new();
    for line in lines.iter().filter(|l| !l.trim().is_empty()) {
        let request = client_request_line(line)?;
        let response = client.request(&request).map_err(|e| e.to_string())?;
        // A Prometheus-format metrics response is unwrapped to its text
        // payload, so `client ADDR metrics prom` pipes straight into any
        // exposition-format consumer.
        let prom_text = inconsist_server::Json::parse(&response).ok().and_then(|j| {
            if j.get("format").and_then(inconsist_server::Json::as_str) == Some("prometheus") {
                j.get("text")
                    .and_then(inconsist_server::Json::as_str)
                    .map(str::to_string)
            } else {
                None
            }
        });
        match prom_text {
            Some(text) => out.push_str(&text),
            None => {
                out.push_str(&response);
                out.push('\n');
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Writes `content` under a unique temp dir and returns the path.
    fn temp_file(dir: &Path, name: &str, content: &str) -> String {
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p.to_string_lossy().into_owned()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("inconsist-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cli(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    const DATA: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,FR,4\n";
    const RULES: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

    #[test]
    fn measure_reports_values() {
        let dir = temp_dir("measure");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        let out = run(&cli(&["measure", &data, &rules, "--all"])).unwrap();
        assert!(out.contains("4 tuples, 1 constraints"), "{out}");
        assert!(out.contains("I_MI"), "{out}");
        assert!(out.contains("I_R^lin"), "{out}");
        assert!(out.contains("I_MIC"), "{out}");
        // One violating pair {Paris/FR, Paris/DE}: I_MI = 1, I_R = 1.
        assert!(out
            .lines()
            .any(|l| l.starts_with("I_MI") && l.trim_end().ends_with('1')));
    }

    #[test]
    fn measure_ops_replays_trajectory() {
        let dir = temp_dir("ops");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        // Fix the Paris conflict, then recreate one by re-inserting it.
        let ops = temp_file(
            &dir,
            "fix.ops",
            "# repair script\nupdate 1 Country FR\ninsert Paris,DE,9\ndelete 4\n",
        );
        let out = run(&cli(&["measure", &data, &rules, "--ops", &ops])).unwrap();
        assert!(out.contains("step"), "{out}");
        assert!(out.contains("#1.Country<-FR"), "{out}");
        assert!(out.contains("+(Paris,DE,9)"), "{out}");
        assert!(out.contains("-#4"), "{out}");
        assert!(out.contains("3 ops replayed"), "{out}");
        assert!(out.contains("database is consistent"), "{out}");
        // Step 0 has the initial I_MI = 1; the final delete restores it to 0.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].trim_start().starts_with("0"), "{out}");
    }

    #[test]
    fn mine_then_measure_roundtrip() {
        let dir = temp_dir("mine");
        // B functionally depends on A; mined rules must hold.
        let mut csv = "A,B\n".to_string();
        for i in 0..40 {
            csv.push_str(&format!("{},{}\n", i % 5, (i % 5) * 7));
        }
        let data = temp_file(&dir, "fd.csv", &csv);
        let rules_path = dir.join("mined.dc").to_string_lossy().into_owned();
        let out = run(&cli(&["mine", &data, "--out", &rules_path])).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let measured = run(&cli(&["measure", &data, &rules_path])).unwrap();
        assert!(measured.contains("violation ratio 0.0000%"), "{measured}");
    }

    #[test]
    fn repair_produces_consistent_csv() {
        let dir = temp_dir("repair");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        let cleaned = dir.join("clean.csv").to_string_lossy().into_owned();
        let out = run(&cli(&["repair", &data, &rules, "--out", &cleaned])).unwrap();
        assert!(out.contains("minimum deletion repair: 1 of 4"), "{out}");
        let measured = run(&cli(&["measure", &cleaned, &rules])).unwrap();
        assert!(measured.contains("3 tuples"), "{measured}");
        assert!(measured
            .lines()
            .any(|l| l.starts_with("I_d") && l.trim_end().ends_with('0')));
    }

    #[test]
    fn noise_dirties_clean_data() {
        let dir = temp_dir("noise");
        let mut csv = "A,B\n".to_string();
        for i in 0..30 {
            csv.push_str(&format!("{},{}\n", i % 5, (i % 5) * 7));
        }
        let data = temp_file(&dir, "clean.csv", &csv);
        let rules = temp_file(&dir, "rules.dc", "fd: t.A = t'.A & t.B != t'.B\n");
        let noisy = dir.join("noisy.csv").to_string_lossy().into_owned();
        let out = run(&cli(&[
            "noise", &data, &rules, "--out", &noisy, "--model", "conoise", "--iters", "20",
        ]))
        .unwrap();
        assert!(out.contains("raw violations 0 →"), "{out}");
        assert!(std::fs::read_to_string(&noisy)
            .unwrap()
            .starts_with("A,B\n"));
        // rnoise path too.
        let out2 = run(&cli(&[
            "noise", &data, &rules, "--out", &noisy, "--model", "rnoise", "--alpha", "0.05",
        ]))
        .unwrap();
        assert!(out2.contains("rnoise:"), "{out2}");
    }

    #[test]
    fn progress_runs_to_consistency() {
        let dir = temp_dir("progress");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        let out = run(&cli(&["progress", &data, &rules])).unwrap();
        assert!(out.contains("consistent after 1 greedy deletions"), "{out}");
    }

    #[test]
    fn serve_preload_and_client_round_trip() {
        let dir = temp_dir("serve");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        let addr_file = dir.join("addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let serve_args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--preload",
            &format!("cities={data},{rules}"),
            "--addr-file",
            &addr_file.to_string_lossy(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || run(&Cli::parse(serve_args).unwrap()));
        let addr = {
            let mut tries = 0;
            loop {
                match std::fs::read_to_string(&addr_file) {
                    Ok(s) if !s.is_empty() => break s,
                    _ => {
                        tries += 1;
                        assert!(tries < 500, "server never wrote the addr file");
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
            }
        };
        let out = run(&cli(&[
            "client",
            &addr,
            "{\"cmd\":\"sessions\"}",
            "{\"cmd\":\"measure\",\"session\":\"cities\",\"per_dc\":true}",
            "{\"cmd\":\"op\",\"session\":\"cities\",\"ops\":\"update 1 Country FR\"}",
            "{\"cmd\":\"measure\",\"session\":\"cities\",\"measures\":[\"I_d\"]}",
            "{\"cmd\":\"shutdown\"}",
        ]))
        .unwrap();
        assert!(out.contains("\"sessions\":[\"cities\"]"), "{out}");
        assert!(out.contains("\"I_MI\":1"), "{out}");
        assert!(out.contains("\"per_dc\":{\"fd\":1}"), "{out}");
        assert!(out.contains("\"applied\":1"), "{out}");
        assert!(out.contains("\"I_d\":0"), "{out}");
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("server stopped after"), "{report}");
        // Bad preload specs are rejected up front.
        let err = run(&cli(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--preload",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.contains("--preload"), "{err}");
    }

    /// Starts `serve` with the given extra args on a free port and
    /// returns the bound address plus the join handle.
    fn spawn_server(
        dir: &Path,
        tag: &str,
        extra: &[String],
    ) -> (String, std::thread::JoinHandle<Result<String, String>>) {
        let addr_file = dir.join(format!("addr-{tag}.txt"));
        let _ = std::fs::remove_file(&addr_file);
        let mut args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--addr-file",
            &addr_file.to_string_lossy(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(extra.iter().cloned());
        let server = std::thread::spawn(move || run(&Cli::parse(args).unwrap()));
        let mut tries = 0;
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {
                    tries += 1;
                    assert!(tries < 500, "server never wrote the addr file");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        };
        (addr, server)
    }

    #[test]
    fn serve_data_dir_survives_restart_with_identical_measures() {
        let dir = temp_dir("durable");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        let data_dir = dir.join("state");
        let durable_args: Vec<String> = [
            "--data-dir".to_string(),
            data_dir.to_string_lossy().into_owned(),
            "--fsync".to_string(),
            "never".to_string(),
        ]
        .to_vec();
        let mut first = durable_args.clone();
        first.extend(["--preload".to_string(), format!("cities={data},{rules}")]);
        let (addr, server) = spawn_server(&dir, "first", &first);
        let measure = "{\"cmd\":\"measure\",\"session\":\"cities\",\
                       \"measures\":[\"I_MI\",\"I_P\",\"I_R\",\"I_R^lin\",\"raw\"]}";
        let out = run(&cli(&[
            "client",
            &addr,
            "{\"cmd\":\"op\",\"session\":\"cities\",\"ops\":\"update 1 Country FR\\ninsert Metz,DE,5\"}",
            "snapshot",
            "cities",
            "compact",
            "cities",
            "{\"cmd\":\"op\",\"session\":\"cities\",\"ops\":\"update 2 Country DE\"}",
            measure,
            "{\"cmd\":\"shutdown\"}",
        ]))
        .unwrap();
        server.join().unwrap().unwrap();
        assert!(out.contains("\"seq\":2"), "{out}"); // snapshot at seq 2
        assert!(out.contains("\"dropped\":2"), "{out}");
        let values = out
            .lines()
            .find(|l| l.contains("\"values\""))
            .unwrap()
            .split("\"values\":")
            .nth(1)
            .unwrap()
            .to_string();
        // Restart over the same data dir: the session comes back without
        // a preload, serving bit-identical measures.
        let (addr, server) = spawn_server(&dir, "second", &durable_args);
        let out2 = run(&cli(&[
            "client",
            &addr,
            "{\"cmd\":\"sessions\"}",
            measure,
            "{\"cmd\":\"stats\",\"session\":\"cities\"}",
            "{\"cmd\":\"shutdown\"}",
        ]))
        .unwrap();
        server.join().unwrap().unwrap();
        assert!(out2.contains("\"sessions\":[\"cities\"]"), "{out2}");
        let values2 = out2
            .lines()
            .find(|l| l.contains("\"values\""))
            .unwrap()
            .split("\"values\":")
            .nth(1)
            .unwrap()
            .to_string();
        assert_eq!(values, values2);
        assert!(out2.contains("\"recovery\":{"), "{out2}");
        // Flag validation: --fsync without --data-dir, bad policy names.
        let err = run(&cli(&["serve", "--fsync", "never"])).unwrap_err();
        assert!(err.contains("--data-dir"), "{err}");
        let err = run(&cli(&[
            "serve",
            "--data-dir",
            &data_dir.to_string_lossy(),
            "--fsync",
            "sometimes",
        ]))
        .unwrap_err();
        assert!(err.contains("--fsync"), "{err}");
        // Unknown client shorthand is rejected before anything is sent.
        assert!(client_request_line("explode now").is_err());
        assert_eq!(
            client_request_line("snapshot s").unwrap(),
            "{\"cmd\":\"snapshot\",\"session\":\"s\"}"
        );
        assert_eq!(
            client_request_line("top s").unwrap(),
            "{\"cmd\":\"tuple_measures\",\"session\":\"s\"}"
        );
        assert_eq!(
            client_request_line("top s 5").unwrap(),
            "{\"cmd\":\"tuple_measures\",\"session\":\"s\",\"k\":5}"
        );
        assert!(client_request_line("top s zero").is_err());
        assert_eq!(
            client_request_line("options s violation_limit=none mis_budget=5000").unwrap(),
            "{\"cmd\":\"set_options\",\"session\":\"s\",\
             \"violation_limit\":null,\"mis_budget\":5000}"
        );
        assert_eq!(
            client_request_line("options s vc_budget=9").unwrap(),
            "{\"cmd\":\"set_options\",\"session\":\"s\",\"vc_budget\":9}"
        );
        assert!(client_request_line("options s").is_err());
        assert!(client_request_line("options s budget=1").is_err());
        assert!(client_request_line("options s mis_budget=zero").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_coordinator_routes_and_aggregates() {
        let dir = temp_dir("coord");
        let data = temp_file(&dir, "cities.csv", DATA);
        let rules = temp_file(&dir, "rules.dc", RULES);
        // Two plain workers, then a coordinator fronting them (external
        // workers via --shard-addr; the spawn-and-supervise path needs a
        // real binary and is exercised by ci/shard_matrix.sh).
        let (w1, s1) = spawn_server(&dir, "w1", &[]);
        let (w2, s2) = spawn_server(&dir, "w2", &[]);
        let coord_extra: Vec<String> = [
            "--coordinator".to_string(),
            "--shard-addr".to_string(),
            format!("{w1},{w2}"),
        ]
        .to_vec();
        let (caddr, cserver) = spawn_server(&dir, "coord", &coord_extra);
        let create = |name: &str| {
            format!(
                "{{\"cmd\":\"create\",\"session\":\"{name}\",\"csv_path\":{},\"dc_path\":{}}}",
                inconsist_server::Json::str(&data),
                inconsist_server::Json::str(&rules)
            )
        };
        let out = run(&cli(&[
            "client",
            &caddr,
            &create("alpha"),
            &create("beta"),
            "{\"cmd\":\"sessions\"}",
            "{\"cmd\":\"shards\"}",
            "{\"cmd\":\"measure\",\"session\":\"alpha\",\"measures\":[\"I_MI\"]}",
            "{\"cmd\":\"measure_all\"}",
            "{\"cmd\":\"drop\",\"session\":\"beta\"}",
            "{\"cmd\":\"shutdown\"}",
        ]))
        .unwrap();
        assert!(out.contains("\"sessions\":[\"alpha\",\"beta\"]"), "{out}");
        assert!(out.contains("\"role\":\"coordinator\""), "{out}");
        assert!(out.contains("\"I_MI\":1"), "{out}");
        // measure_all folds across both shards: 1 violating pair each.
        assert!(out.contains("\"I_MI\":2"), "{out}");
        assert!(out.contains("\"sessions\":2"), "{out}");
        cserver.join().unwrap().unwrap();
        for addr in [&w1, &w2] {
            run(&cli(&["client", addr, "{\"cmd\":\"shutdown\"}"])).unwrap();
        }
        s1.join().unwrap().unwrap();
        s2.join().unwrap().unwrap();
        // Topology flag validation.
        let err = run(&cli(&["serve", "--shards", "2"])).unwrap_err();
        assert!(err.contains("--coordinator"), "{err}");
        let err = run(&cli(&["serve", "--shard-addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--coordinator"), "{err}");
        let err = run(&cli(&["serve", "--coordinator", "--join", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--join"), "{err}");
        let err = run(&cli(&[
            "serve",
            "--coordinator",
            "--preload",
            "x=a.csv,b.dc",
        ]))
        .unwrap_err();
        assert!(err.contains("--preload"), "{err}");
        let err = run(&cli(&[
            "serve",
            "--coordinator",
            "--data-dir",
            &dir.to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&cli(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&cli(&[])).unwrap().contains("USAGE"));
        let err = run(&cli(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run(&cli(&[
            "measure",
            "/nonexistent/x.csv",
            "/nonexistent/y.dc",
        ]))
        .unwrap_err();
        assert!(err.contains("x.csv"), "{err}");
    }
}
