//! # cinm-telemetry — lock-light production metrics for the CINM runtime
//!
//! A load test you can't observe isn't a production system. This crate is
//! the one reporting path shared by the simulators, the runtime, sessions
//! and the multi-tenant server:
//!
//! * a [`Telemetry`] registry of named metrics — [`Counter`]s (monotonic
//!   `u64`), [`Gauge`]s (an `f64` cell that can also accumulate, e.g.
//!   joules), and [`Histogram`]s with **fixed bucket layouts** (e.g. request
//!   latency, batch size);
//! * a machine-readable [`TelemetrySnapshot`] exported as JSON via the same
//!   hand-rolled emitter style as the committed `BENCH_*.json` files, plus a
//!   parser so snapshots round-trip (asserted in CI).
//!
//! ## Hot-path contract
//!
//! Recording is **atomics only**: incrementing a counter, setting or
//! accumulating a gauge, and recording into a histogram never allocate,
//! never take a lock, and are safe from any thread through shared handles.
//! The registry's single mutex is touched only at *registration* time
//! (naming a metric) and at *snapshot* time — never on the hot path. The
//! warmed serving loop stays at 0 allocations/op with telemetry enabled
//! (pinned by `tests/alloc_regression.rs`).
//!
//! Handles are cheap `Arc` clones. Registration is get-or-create by name:
//! registering the same name twice (e.g. a fault-free spare system cloned
//! from a telemetry-enabled one) yields handles sharing one underlying
//! atomic, so restarts and failover keep accumulating into the same series.
//!
//! ```
//! use cinm_telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! let launches = t.counter("upmem.launches");
//! let depth = t.gauge("serve.queue.depth");
//! let lat = t.histogram("serve.latency_seconds", &cinm_telemetry::LATENCY_SECONDS_BOUNDS);
//! launches.inc();
//! depth.set(3.0);
//! lat.record(2.5e-3);
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("upmem.launches"), Some(1));
//! let json = snap.to_json();
//! assert_eq!(cinm_telemetry::TelemetrySnapshot::parse_json(&json).unwrap(), snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod json;

/// Schema identifier stamped into every exported snapshot. Bump the version
/// when the JSON layout changes, so consumers can detect a stale layout.
pub const TELEMETRY_SCHEMA: &str = "cinm/telemetry/v1";

/// Fixed log-spaced bucket upper bounds (seconds) for request/op latency
/// histograms: 1 µs → ~30 s in ×~3.16 steps (two buckets per decade). The
/// layout is fixed so snapshots from different runs and tenants are
/// comparable bucket-for-bucket.
pub const LATENCY_SECONDS_BOUNDS: [f64; 16] = [
    1.0e-6, 3.16e-6, 1.0e-5, 3.16e-5, 1.0e-4, 3.16e-4, 1.0e-3, 3.16e-3, 1.0e-2, 3.16e-2, 1.0e-1,
    3.16e-1, 1.0, 3.16, 10.0, 31.6,
];

/// Fixed power-of-two bucket upper bounds for batch-size histograms.
pub const BATCH_SIZE_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter. Cloning shares the underlying
/// atomic; recording is a single `fetch_add`.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// A detached counter not registered anywhere — useful as a no-op
    /// default so call sites can record unconditionally.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }
}

/// An `f64` cell stored as atomic bits. `set` publishes a level (queue
/// depth, occupancy, hit rate); `add` accumulates (e.g. joules) with a CAS
/// loop. Both are lock- and allocation-free.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Accumulates `v` into the cell (compare-and-swap loop; lock-free).
    #[inline]
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// A detached gauge not registered anywhere.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets; `counts` has one extra overflow
    /// bucket at the end. Fixed at registration — no reallocation ever.
    bounds: Box<[f64]>,
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of recorded values, as atomic `f64` bits (CAS accumulation).
    sum: AtomicU64,
}

/// A histogram with a fixed bucket layout chosen at registration. Recording
/// is a branch-free-ish linear scan over ≤ a few dozen bounds plus three
/// atomic updates — no locks, no allocation.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: f64) {
        let c = &self.0;
        // Linear scan: bucket layouts are small and the scan is cache-hot;
        // a binary search would cost more in branch misses at these sizes.
        let mut idx = c.bounds.len();
        for (i, b) in c.bounds.iter().enumerate() {
            if v <= *b {
                idx = i;
                break;
            }
        }
        c.counts[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = c.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match c
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A detached histogram (the given bounds, registered nowhere).
    pub fn detached(bounds: &[f64]) -> Self {
        Histogram(Arc::new(HistogramCore::new(bounds)))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            bounds: c.bounds.to_vec(),
            counts: c.counts.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            count: c.count.load(Ordering::Relaxed),
            sum: f64::from_bits(c.sum.load(Ordering::Relaxed)),
        }
    }
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramCore {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Registry {
    // Locked only for registration and snapshots; never on the record path.
    metrics: Mutex<Vec<(String, Metric)>>,
}

/// A shareable handle to a metrics registry. `Clone` is a cheap `Arc`
/// clone; every layer of the stack (simulators, runtime, session, server)
/// registers its metrics into the one registry the harness passes down, and
/// a single [`Telemetry::snapshot`] observes the whole system.
///
/// Equality is **identity** (same registry), so configuration structs that
/// carry an optional handle keep their derived `PartialEq`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Registry>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            metrics: Mutex::new(Vec::new()),
        }
    }
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    fn get_or_register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.lock().unwrap();
        if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        metrics.push((name.to_string(), m.clone()));
        m
    }

    /// Registers (or retrieves) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_register(name, || Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c,
            _ => panic!("telemetry metric '{name}' is not a counter"),
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_register(name, || Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g,
            _ => panic!("telemetry metric '{name}' is not a gauge"),
        }
    }

    /// Registers (or retrieves) the histogram `name` with the given fixed
    /// bucket upper bounds. Re-registration returns the existing histogram
    /// (its original bounds win — layouts are fixed for comparability).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind,
    /// or if `bounds` is empty or not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        match self.get_or_register(name, || Metric::Histogram(Histogram::detached(bounds))) {
            Metric::Histogram(h) => h,
            _ => panic!("telemetry metric '{name}' is not a histogram"),
        }
    }

    /// Captures a point-in-time snapshot of every registered metric, sorted
    /// by name. Concurrent recording keeps running; each metric is read
    /// atomically (histograms per-field).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let metrics = self.inner.metrics.lock().unwrap();
        let mut entries: Vec<SnapshotEntry> = metrics
            .iter()
            .map(|(name, m)| SnapshotEntry {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetrySnapshot { entries }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Frozen state of one histogram: fixed bucket upper bounds, one overflow
/// bucket at the end of `counts`, plus total count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`
    /// (the last entry counts observations above every bound).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `ceil(q·count)`-th observation. Observations in the
    /// overflow bucket clamp to the largest finite bound. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).copied().unwrap_or_else(|| {
                    *self
                        .bounds
                        .last()
                        .expect("histogram has at least one bound")
                });
            }
        }
        *self
            .bounds
            .last()
            .expect("histogram has at least one bound")
    }

    /// Mean of the observed values (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Dotted metric name (e.g. `serve.tenant.alice.latency_seconds`).
    pub name: String,
    /// The frozen value.
    pub value: SnapshotValue,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Frozen counter value.
    Counter(u64),
    /// Frozen gauge value.
    Gauge(f64),
    /// Frozen histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time, machine-readable view of every registered metric. The
/// JSON form ([`TelemetrySnapshot::to_json`]) is the one reporting path the
/// examples, benches and the serving runtime share.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

impl TelemetrySnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                SnapshotValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                SnapshotValue::Gauge(v) => Some(*v),
                _ => None,
            })
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.value {
                SnapshotValue::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// Serialises the snapshot as JSON (hand-rolled emitter, the same style
    /// as the committed `BENCH_*.json` files). Floats use Rust's shortest
    /// round-trip formatting, so [`TelemetrySnapshot::parse_json`] recovers
    /// the snapshot exactly. Histograms also carry derived `p50`/`p99`/
    /// `mean` fields for human consumers; the parser ignores them.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.entries.len() * 96);
        s.push_str("{\n  \"schema\": \"");
        s.push_str(TELEMETRY_SCHEMA);
        s.push_str("\",\n  \"metrics\": [");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"name\": ");
            json::emit_str(&mut s, &e.name);
            match &e.value {
                SnapshotValue::Counter(v) => {
                    s.push_str(&format!(", \"kind\": \"counter\", \"value\": {v}}}"));
                }
                SnapshotValue::Gauge(v) => {
                    s.push_str(", \"kind\": \"gauge\", \"value\": ");
                    json::emit_f64(&mut s, *v);
                    s.push('}');
                }
                SnapshotValue::Histogram(h) => {
                    s.push_str(&format!(
                        ", \"kind\": \"histogram\", \"count\": {}, \"sum\": ",
                        h.count
                    ));
                    json::emit_f64(&mut s, h.sum);
                    s.push_str(", \"mean\": ");
                    json::emit_f64(&mut s, h.mean());
                    s.push_str(", \"p50\": ");
                    json::emit_f64(&mut s, h.quantile(0.50));
                    s.push_str(", \"p99\": ");
                    json::emit_f64(&mut s, h.quantile(0.99));
                    s.push_str(", \"bounds\": [");
                    for (j, b) in h.bounds.iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        json::emit_f64(&mut s, *b);
                    }
                    s.push_str("], \"counts\": [");
                    for (j, c) in h.counts.iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&c.to_string());
                    }
                    s.push_str("]}");
                }
            }
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a snapshot back from its [`TelemetrySnapshot::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed construct (bad JSON,
    /// wrong schema string, missing or mistyped field).
    pub fn parse_json(text: &str) -> Result<TelemetrySnapshot, String> {
        json::parse_snapshot(text)
    }

    /// Renders a human-readable table (the examples' reporting path).
    pub fn format_text(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut s = format!("telemetry snapshot ({} metrics)\n", self.entries.len());
        for e in &self.entries {
            match &e.value {
                SnapshotValue::Counter(v) => {
                    s.push_str(&format!("  counter    {:width$}  {v}\n", e.name));
                }
                SnapshotValue::Gauge(v) => {
                    s.push_str(&format!("  gauge      {:width$}  {v:.6}\n", e.name));
                }
                SnapshotValue::Histogram(h) => {
                    s.push_str(&format!(
                        "  histogram  {:width$}  count={} mean={:.6} p50={:.6} p99={:.6}\n",
                        e.name,
                        h.count,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_record_and_snapshot() {
        let t = Telemetry::new();
        let c = t.counter("a.count");
        c.inc();
        c.add(4);
        let g = t.gauge("a.level");
        g.set(2.5);
        g.add(0.5);
        let h = t.histogram("a.lat", &LATENCY_SECONDS_BOUNDS);
        h.record(2.0e-3);
        h.record(2.0e-3);
        h.record(5.0);
        let snap = t.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("a.level"), Some(3.0));
        let hs = snap.histogram("a.lat").unwrap();
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 5.004).abs() < 1e-12);
        // Two of three observations are ≤ 3.16e-3, so p50 lands there.
        assert!((hs.quantile(0.5) - 3.16e-3).abs() < 1e-12);
        assert!(hs.quantile(0.99) >= 5.0);
    }

    #[test]
    fn registration_is_get_or_create_and_shared() {
        let t = Telemetry::new();
        let a = t.counter("shared");
        let b = t.counter("shared");
        a.inc();
        b.inc();
        assert_eq!(t.snapshot().counter("shared"), Some(2));
        // Clones of the registry handle see the same metrics.
        let t2 = t.clone();
        t2.counter("shared").inc();
        assert_eq!(t.snapshot().counter("shared"), Some(3));
        assert_eq!(t, t2);
        assert_ne!(t, Telemetry::new());
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let t = Telemetry::new();
        t.gauge("x");
        t.counter("x");
    }

    #[test]
    fn overflow_bucket_and_empty_quantiles() {
        let h = Histogram::detached(&[1.0, 2.0]);
        assert_eq!(h.count(), 0);
        let empty = h.snapshot();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.mean(), 0.0);
        h.record(10.0);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 0, 1]);
        // Overflow observations clamp to the largest finite bound.
        assert_eq!(s.quantile(0.99), 2.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::new();
        t.counter("upmem.launches").add(42);
        t.gauge("upmem.energy_j").add(1.25e-3);
        t.gauge("weird").set(-0.0625);
        let h = t.histogram("serve.latency_seconds", &LATENCY_SECONDS_BOUNDS);
        for i in 0..100 {
            h.record(1.0e-5 * i as f64);
        }
        let snap = t.snapshot();
        let json = snap.to_json();
        let back = TelemetrySnapshot::parse_json(&json).expect("parses");
        assert_eq!(back, snap);
        // And the emitter is deterministic.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(TelemetrySnapshot::parse_json("").is_err());
        assert!(TelemetrySnapshot::parse_json("{}").is_err());
        assert!(TelemetrySnapshot::parse_json("{\"schema\": \"other\", \"metrics\": []}").is_err());
        let bad_kind = "{\"schema\": \"cinm/telemetry/v1\", \"metrics\": [{\"name\": \"x\", \"kind\": \"nope\", \"value\": 1}]}";
        assert!(TelemetrySnapshot::parse_json(bad_kind).is_err());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let t = Telemetry::new();
        let c = t.counter("c");
        let g = t.gauge("g");
        let h = t.histogram("h", &[0.5, 1.5]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (c, g, h) = (c.clone(), g.clone(), h.clone());
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        g.add(1.0);
                        h.record(1.0);
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.counter("c"), Some(4000));
        assert_eq!(snap.gauge("g"), Some(4000.0));
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.count, 4000);
        assert_eq!(hs.counts, vec![0, 4000, 0]);
    }
}
