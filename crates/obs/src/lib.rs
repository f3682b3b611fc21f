//! `inconsist-obs`: the workspace-wide observability layer.
//!
//! This crate is intentionally **dependency-free** (std only) so it can
//! sit below `core` in the workspace dependency chain: the solver, the
//! incremental index, the durability layer, the server front end and the
//! bench harness all record into the same primitives.
//!
//! Two facilities:
//!
//! * a **metric registry** ([`Registry`]) of monotonic [`Counter`]s,
//!   [`Gauge`]s with fetch-max high-water tracking, and fixed
//!   log2-bucket [`Histogram`]s with p50/p95/p99 readout — all plain
//!   `Relaxed` atomics, registered once by name, iterated as a sorted
//!   snapshot. A process-global registry is reachable via [`global()`]
//!   (and the [`counter!`]/[`gauge!`]/[`histogram!`] macros, which cache
//!   the handle in a per-call-site static so the hot path is a single
//!   atomic op); subsystems that need isolation (one server per test,
//!   bench phases) build their own [`Registry`] or standalone metrics.
//! * a **span facility**: [`span!`] returns an RAII guard that records
//!   elapsed wall time into a histogram on drop and, when a per-request
//!   trace is active on the thread ([`trace_begin`]/[`trace_take`]),
//!   appends a `(stage, micros)` pair to it — this is how the
//!   slow-request log gets its per-stage breakdown without any plumbing
//!   through the call stack.
//!
//! The [`prometheus`] function renders any snapshot in the Prometheus
//! text exposition format; the JSON rendering lives with the server's
//! wire codec (this crate has no JSON type of its own).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `b` (1..=64) holds values whose bit length is `b`, i.e. the range
/// `[2^(b-1), 2^b - 1]`. Power-of-two boundaries are exact: `2^k` is
/// the smallest value of bucket `k+1`.
pub const BUCKETS: usize = 65;

/// Bucket index for a recorded value (see [`BUCKETS`]).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A monotonic counter. `Relaxed` atomics throughout: per-event cost is
/// one `fetch_add`, readers see a value that is exact once writers
/// quiesce and never decreases.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub const fn new() -> Counter {
        Counter {
            v: AtomicU64::new(0),
        }
    }
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Relaxed);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

/// A gauge: a current value plus a fetch-max **high-water mark** that
/// every mutation maintains. This replaces the hand-rolled
/// compare-exchange maxima that used to live in the server's session
/// counters.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
    hw: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge {
            v: AtomicU64::new(0),
            hw: AtomicU64::new(0),
        }
    }
    /// Sets the current value and folds it into the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Relaxed);
        self.hw.fetch_max(v, Relaxed);
    }
    /// Increments and returns the new value (high-water maintained).
    #[inline]
    pub fn inc(&self) -> u64 {
        let new = self.v.fetch_add(1, Relaxed) + 1;
        self.hw.fetch_max(new, Relaxed);
        new
    }
    /// Decrements (saturating at zero under racing decrements is the
    /// caller's concern; guards pair inc/dec so the value stays exact).
    #[inline]
    pub fn dec(&self) {
        self.v.fetch_sub(1, Relaxed);
    }
    /// Folds `v` into the high-water mark without touching the value.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.hw.fetch_max(v, Relaxed);
    }
    /// Adds `n` (high-water maintained). For gauges tracking totals that
    /// can also shrink (e.g. sealed log bytes).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        let new = self.v.fetch_add(n, Relaxed) + n;
        self.hw.fetch_max(new, Relaxed);
        new
    }
    /// Subtracts `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.v.load(Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.v.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
    /// Bounded increment: atomically increments only while the current
    /// value is below `limit` (`0` means unbounded). Returns the new
    /// value on success or the observed (unchanged) value on refusal.
    /// This is the admission-control primitive: a strict CAS loop, so a
    /// success is a real slot and the high-water mark stays exact.
    #[inline]
    pub fn try_inc_below(&self, limit: u64) -> Result<u64, u64> {
        let mut cur = self.v.load(Relaxed);
        loop {
            if limit != 0 && cur >= limit {
                return Err(cur);
            }
            match self.v.compare_exchange_weak(cur, cur + 1, Relaxed, Relaxed) {
                Ok(_) => {
                    self.hw.fetch_max(cur + 1, Relaxed);
                    return Ok(cur + 1);
                }
                Err(seen) => cur = seen,
            }
        }
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.hw.load(Relaxed)
    }
}

/// A fixed log2-bucket histogram. Recording is one `fetch_add` on the
/// bucket plus one on the sum; readout walks 65 slots. There is no
/// configuration: microsecond latencies from 0 to `u64::MAX` all land
/// in a bucket, and power-of-two boundaries are exact (see
/// [`bucket_index`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }
    /// Records a [`std::time::Duration`] in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }
    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            sum: self.sum.load(Relaxed),
        }
    }
    /// Shorthand: quantile straight off a fresh snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }
}

/// A point-in-time histogram readout; all derived statistics (count,
/// quantiles, mean) come from here so JSON, Prometheus and bench
/// summaries cannot diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
    /// The quantile `q` in `[0, 1]`, reported as the inclusive upper
    /// bound of the bucket holding the nearest-rank sample — i.e. the
    /// true quantile is overestimated by at most one log2 bucket
    /// (a factor < 2). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Nearest-rank: the ceil(q * count)-th sample, 1-based.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }
    /// `(upper_bound, count)` for every non-empty bucket, in order.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_upper(b), n))
            .collect()
    }
}

/// The value half of a [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Counter(u64),
    /// Current value and fetch-max high-water mark.
    Gauge {
        value: u64,
        high_water: u64,
    },
    /// Boxed: a snapshot is ~0.5 KiB of buckets and most samples in a
    /// registry sweep are counters — keep `Sample` vectors compact.
    Histogram(Box<HistogramSnapshot>),
}

/// One named metric in a registry snapshot. The name carries labels in
/// Prometheus form (`name{key="value"}`) when the metric was registered
/// via [`labeled`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub value: Value,
}

impl Sample {
    /// The metric name with the label set (if any) stripped — what a
    /// `# TYPE` line names.
    pub fn base_name(&self) -> &str {
        match self.name.find('{') {
            Some(i) => &self.name[..i],
            None => &self.name,
        }
    }
}

/// Builds a labeled metric name: `labeled("x", &[("k", "v")])` is
/// `x{k="v"}`. Label values are escaped per the Prometheus exposition
/// rules (`\\`, `\"`, `\n`).
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<String, Metric>,
    collectors: Vec<Collector>,
}

/// A metric registry. Registration (rare) takes a mutex; the returned
/// handles are `&'static` and every subsequent record is lock-free.
/// Metrics registered under a name that already exists return the
/// existing handle, so call sites never race to double-register.
///
/// Besides owned metrics a registry accepts **collectors**: closures
/// that contribute samples computed at snapshot time from atomics owned
/// elsewhere (per-session counters, durability stats). This is how the
/// server's `stats` request and the `metrics` registry expose the *same*
/// underlying cells rather than two hand-maintained copies.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The metric under `name`, registering `make()` first when there is
    /// none. A hit looks up by `&str` and allocates nothing; only the
    /// first registration copies the name.
    fn get_or_register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock().unwrap();
        if let Some(metric) = inner.metrics.get(name) {
            return *metric;
        }
        let metric = make();
        inner.metrics.insert(name.to_string(), metric);
        metric
    }

    /// Get-or-register a counter under `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        match self.get_or_register(name, || Metric::Counter(Box::leak(Box::default()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Get-or-register a gauge under `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        match self.get_or_register(name, || Metric::Gauge(Box::leak(Box::default()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Get-or-register a histogram under `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        match self.get_or_register(name, || Metric::Histogram(Box::leak(Box::default()))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers a snapshot-time collector (see type-level docs).
    pub fn register_collector(&self, f: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.inner.lock().unwrap().collectors.push(Box::new(f));
    }

    /// A sorted, point-in-time sample of every metric — owned metrics
    /// first gathered under the registration lock (so iteration never
    /// observes a half-registered name), then collector contributions,
    /// then the whole set sorted by name for deterministic output.
    pub fn snapshot(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        {
            let inner = self.inner.lock().unwrap();
            for (name, m) in &inner.metrics {
                let value = match m {
                    Metric::Counter(c) => Value::Counter(c.get()),
                    Metric::Gauge(g) => Value::Gauge {
                        value: g.get(),
                        high_water: g.high_water(),
                    },
                    Metric::Histogram(h) => Value::Histogram(Box::new(h.snapshot())),
                };
                out.push(Sample {
                    name: name.clone(),
                    value,
                });
            }
            for c in &inner.collectors {
                c(&mut out);
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// The process-global registry. Core and solver instrumentation records
/// here; the server merges these samples into its own per-instance
/// registry when answering `metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Counter in the global registry, cached per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Gauge in the global registry, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Histogram in the global registry, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// RAII span timer: `let _s = span!("solve.lp");` records the span's
/// wall time into the global histogram of that name on drop, and into
/// the thread's active trace (if any) for the slow-request breakdown.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::new($name, $crate::histogram!($name))
    };
}

/// The guard behind [`span!`]. Public so the macro can name it; build
/// via the macro (which caches the histogram handle per call site).
pub struct SpanGuard {
    name: &'static str,
    hist: &'static Histogram,
    start: Instant,
}

impl SpanGuard {
    pub fn new(name: &'static str, hist: &'static Histogram) -> SpanGuard {
        SpanGuard {
            name,
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.hist.record(us);
        trace_push(self.name, us);
    }
}

thread_local! {
    static TRACE: std::cell::RefCell<Option<Vec<(&'static str, u64)>>> =
        const { std::cell::RefCell::new(None) };
}

/// Starts collecting `(stage, micros)` pairs from [`span!`] guards that
/// drop on this thread, until [`trace_take`]. Nested begins reset the
/// collection (a request handler is not reentrant).
pub fn trace_begin() {
    TRACE.with(|t| *t.borrow_mut() = Some(Vec::new()));
}

/// Ends collection and returns the recorded stages in drop order.
/// Returns an empty vec if no trace was active.
pub fn trace_take() -> Vec<(&'static str, u64)> {
    TRACE.with(|t| t.borrow_mut().take()).unwrap_or_default()
}

fn trace_push(name: &'static str, us: u64) {
    TRACE.with(|t| {
        if let Some(v) = t.borrow_mut().as_mut() {
            v.push((name, us));
        }
    });
}

/// Renders a snapshot in the Prometheus text exposition format:
/// `# TYPE` line per metric family, histograms as cumulative
/// `_bucket{le=...}` series plus `_sum`/`_count`, gauges additionally
/// exposing their high-water mark as `<name>_high_water`.
pub fn prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for s in samples {
        let base = sanitize_name(s.base_name());
        let labels = &s.name[s.base_name().len()..];
        if base != last_base {
            let ty = match s.value {
                Value::Counter(_) => "counter",
                Value::Gauge { .. } => "gauge",
                Value::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {base} {ty}\n"));
            last_base = base.clone();
        }
        match &s.value {
            Value::Counter(v) => out.push_str(&format!("{}{} {}\n", base, labels, v)),
            Value::Gauge { value, high_water } => {
                out.push_str(&format!("{}{} {}\n", base, labels, value));
                out.push_str(&format!("{}_high_water{} {}\n", base, labels, high_water));
            }
            Value::Histogram(h) => {
                let mut cum = 0u64;
                for (le, n) in h.nonzero() {
                    cum += n;
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        base,
                        merge_le_label(labels, le),
                        cum
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    base,
                    merge_le_label(labels, u64::MAX),
                    cum
                ));
                out.push_str(&format!("{}_sum{} {}\n", base, labels, h.sum));
                out.push_str(&format!("{}_count{} {}\n", base, labels, cum));
            }
        }
    }
    out
}

/// Maps a registry name onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`): span names like `solve.dirty_component` expose as
/// `solve_dirty_component`. JSON exposition keeps the original name.
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Splices an `le` label into an existing (possibly empty) label set.
fn merge_le_label(labels: &str, le: u64) -> String {
    let le = if le == u64::MAX {
        "+Inf".to_string()
    } else {
        le.to_string()
    };
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        // labels is `{k="v",...}` — insert before the closing brace.
        format!("{},le=\"{}\"}}", &labels[..labels.len() - 1], le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_exact_at_powers_of_two() {
        for k in 1..64u32 {
            let p = 1u64 << k;
            // 2^k opens bucket k+1; 2^k - 1 closes bucket k.
            assert_eq!(bucket_index(p), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(p - 1), k as usize, "2^{k}-1");
            assert_eq!(bucket_upper(k as usize), p - 1);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn a_repeated_lookup_returns_the_registered_handle() {
        let r = Registry::new();
        let name = labeled("requests_total", &[("kind", "measure")]);
        let c = r.counter(&name);
        c.inc();
        assert!(std::ptr::eq(c, r.counter(&name)));
        let h = r.histogram("latency_us");
        assert!(std::ptr::eq(h, r.histogram("latency_us")));
        let g = r.gauge("depth");
        assert!(std::ptr::eq(g, r.gauge("depth")));
        // Three names, three metrics: the repeats registered nothing.
        assert_eq!(r.inner.lock().unwrap().metrics.len(), 3);
        assert_eq!(r.counter(&name).get(), 1);
    }

    #[test]
    fn gauge_bounded_increment_and_arithmetic() {
        let g = Gauge::new();
        assert_eq!(g.try_inc_below(2), Ok(1));
        assert_eq!(g.try_inc_below(2), Ok(2));
        assert_eq!(g.try_inc_below(2), Err(2));
        g.dec();
        assert_eq!(g.try_inc_below(2), Ok(2));
        // limit 0 = unbounded
        assert_eq!(g.try_inc_below(0), Ok(3));
        assert_eq!(g.high_water(), 3);
        g.add(5);
        assert_eq!(g.get(), 8);
        assert_eq!(g.high_water(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0);
        assert_eq!(g.high_water(), 8);
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(
            sanitize_name("solve.dirty_component"),
            "solve_dirty_component"
        );
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        let reg = Registry::new();
        reg.histogram("span.with.dots").record(3);
        let text = prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE span_with_dots histogram"));
        assert!(!text.contains("span.with.dots"));
    }

    #[test]
    fn histogram_quantiles_from_buckets() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.sum, 5050);
        // Exact p50 is 50 → bucket 6 (32..=63) → reported upper 63.
        assert_eq!(snap.quantile(0.50), 63);
        // Exact p99 is 99 → bucket 7 (64..=127) → reported upper 127.
        assert_eq!(snap.quantile(0.99), 127);
        assert_eq!(snap.quantile(0.0), 1); // rank clamps to the 1st sample
        let empty = Histogram::new();
        assert_eq!(empty.snapshot().quantile(0.5), 0);
    }

    #[test]
    fn histogram_quantile_within_one_bucket_of_exact() {
        // The contract latency reports rely on: the histogram quantile
        // lands in the same log2 bucket as the exact sorted quantile.
        let mut samples: Vec<u64> = (0..500).map(|i| (i * 7919 + 13) % 10_000).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for &q in &[0.5, 0.95, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = h.quantile(q);
            assert!(
                bucket_index(approx).abs_diff(bucket_index(exact)) <= 1,
                "q={q}: exact {exact} vs histogram {approx} differ by more than one bucket"
            );
            assert!(
                approx >= exact,
                "upper-bound readout must not underestimate"
            );
        }
    }

    #[test]
    fn gauge_high_water_tracks_max() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 3);
        g.set(1);
        assert_eq!(g.high_water(), 3);
        g.record_max(10);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 10);
    }

    #[test]
    fn registry_get_or_register_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x") as *const Counter;
        let b = r.counter("x") as *const Counter;
        assert_eq!(a, b);
        r.counter("x").add(2);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, Value::Counter(2));
    }

    #[test]
    fn snapshot_is_sorted_and_includes_collectors() {
        let r = Registry::new();
        r.counter("zz").inc();
        r.gauge("aa").set(5);
        r.register_collector(|out| {
            out.push(Sample {
                name: "mm".into(),
                value: Value::Counter(7),
            })
        });
        let names: Vec<String> = r.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn labeled_names_escape_values() {
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(
            labeled("m", &[("session", "a\"b\\c\nd")]),
            "m{session=\"a\\\"b\\\\c\\nd\"}"
        );
        assert_eq!(
            labeled("m", &[("a", "1"), ("b", "2")]),
            "m{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn prometheus_format_counters_gauges_histograms() {
        let r = Registry::new();
        r.counter(&labeled("req_total", &[("kind", "measure")]))
            .add(3);
        r.counter(&labeled("req_total", &[("kind", "op")])).add(1);
        r.gauge("backlog").set(4);
        let h = r.histogram("lat_us");
        h.record(1);
        h.record(3);
        h.record(100);
        let text = prometheus(&r.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        // One TYPE line per family, emitted before its first sample.
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.starts_with("# TYPE req_total "))
                .count(),
            1
        );
        assert!(lines.contains(&"# TYPE req_total counter"));
        assert!(lines.contains(&"req_total{kind=\"measure\"} 3"));
        assert!(lines.contains(&"req_total{kind=\"op\"} 1"));
        assert!(lines.contains(&"# TYPE backlog gauge"));
        assert!(lines.contains(&"backlog 4"));
        assert!(lines.contains(&"backlog_high_water 4"));
        assert!(lines.contains(&"# TYPE lat_us histogram"));
        assert!(lines.contains(&"lat_us_bucket{le=\"1\"} 1"));
        assert!(lines.contains(&"lat_us_bucket{le=\"3\"} 2"));
        assert!(lines.contains(&"lat_us_bucket{le=\"127\"} 3"));
        assert!(lines.contains(&"lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(lines.contains(&"lat_us_sum 104"));
        assert!(lines.contains(&"lat_us_count 3"));
        // Every non-comment line is `name[{labels}] number`.
        for l in lines.iter().filter(|l| !l.starts_with('#')) {
            let (_, v) = l.rsplit_once(' ').expect("name value");
            v.parse::<f64>().expect("numeric value");
        }
    }

    #[test]
    fn prometheus_labeled_histogram_merges_le() {
        let r = Registry::new();
        let h = r.histogram(&labeled("fsync_us", &[("session", "s")]));
        h.record(5);
        let text = prometheus(&r.snapshot());
        assert!(text.contains("fsync_us_bucket{session=\"s\",le=\"7\"} 1"));
        assert!(text.contains("fsync_us_bucket{session=\"s\",le=\"+Inf\"} 1"));
        assert!(text.contains("fsync_us_sum{session=\"s\"} 5"));
        assert!(text.contains("fsync_us_count{session=\"s\"} 1"));
    }

    #[test]
    fn span_records_into_histogram_and_trace() {
        trace_begin();
        {
            let _s = span!("obs.test.span");
        }
        let stages = trace_take();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].0, "obs.test.span");
        assert!(global().histogram("obs.test.span").count() >= 1);
        // No active trace: spans still feed the histogram, trace is empty.
        {
            let _s = span!("obs.test.span");
        }
        assert!(trace_take().is_empty());
    }

    #[test]
    fn racing_writers_lose_no_counter_or_histogram_updates() {
        let r = Registry::new();
        let c = r.counter("race_total");
        let h = r.histogram("race_us");
        let g = r.gauge("race_gauge");
        const THREADS: u64 = 8;
        const PER: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER {
                        c.inc();
                        h.record(t * PER + i);
                        g.record_max(t * PER + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER);
        let snap = h.snapshot();
        assert_eq!(snap.count(), THREADS * PER);
        let expect_sum: u64 = (0..THREADS * PER).sum();
        assert_eq!(snap.sum, expect_sum);
        assert_eq!(g.high_water(), THREADS * PER - 1);
    }
}
