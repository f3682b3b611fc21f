//! `loadbench`: seeded end-to-end and per-layer benchmark of the
//! `inconsist serve` binary. See README.md for the workloads, metrics and
//! method.
//!
//! ```text
//! loadbench --server <path to inconsist> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A run whose answers fail any
//! check prints no metrics and exits non-zero.

mod e2e;
mod gen;
mod server;
mod stats;
mod trace;

use gen::Kind;
use std::path::PathBuf;

struct Args {
    server: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    // Exit only after `run` has dropped its servers and scratch space.
    std::process::exit(run(args));
}

fn run(args: Args) -> i32 {
    let work = e2e::Work::new(
        std::env::current_dir()
            .expect("current dir")
            .join(".loadbench_work"),
    );
    let workload = gen::build(args.kind, args.seed, args.seconds);
    println!(
        "workload {} seed {} requests {} (warm-up {}) sessions {}",
        args.kind.name(),
        args.seed,
        workload.stream.len(),
        workload.warmup,
        workload.sessions.len()
    );
    let outcome = match e2e::run(&workload, &args.server, &work.dir, None) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadbench: check failed: {e}");
            return 1;
        }
    };
    println!("{}", outcome.counters.line());
    for (label, stats) in &outcome.per_op {
        println!("{label:<8} {}", stats.summary());
    }
    println!(
        "setup_s {:?}  loop {:.3}s  recovery_s {:?}  disk_bytes_per_op_byte {:?}",
        outcome.setup_s, outcome.loop_s, outcome.recovery_s, outcome.disk_bytes_per_op_byte
    );
    let attempted = outcome.attempted();
    let failed = outcome.failed();
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        match trace::run(&workload, &outcome, &args.server, &work.dir, args.seed) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadbench: traced replay failed: {e}");
                return 1;
            }
        }
    } else {
        let p50 = |label| {
            move |r: &e2e::Round| {
                r.samples_us
                    .get(label)
                    .and_then(|s| stats::nearest_rank(s, 0.5))
            }
        };
        vec![
            ("setup_s".into(), e2e::setup_median(&outcome), "s"),
            (
                "req_per_s".into(),
                outcome.round_median(|r| Some(r.requests as f64 / r.wall_s)),
                "1/s",
            ),
            (
                "read_p50_us".into(),
                outcome.round_median(p50("read")),
                "us",
            ),
            (
                "write_p50_us".into(),
                outcome.round_median(p50("write")),
                "us",
            ),
            (
                "server_cpu_us_per_req".into(),
                outcome.round_median(|r| Some(r.cpu_s * 1e6 / r.requests as f64)),
                "us",
            ),
            (
                "server_peak_rss_mb".into(),
                outcome.server_peak_rss_mb,
                "MiB",
            ),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics)
    );
    0
}
