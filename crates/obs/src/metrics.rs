//! Atomic metrics: counters, gauges, fixed-bucket histograms, and a
//! registry that renders Prometheus text exposition format.
//!
//! The write path is lock-free: a metric handle is an `Arc` around
//! plain atomics, and `inc`/`add`/`set`/`observe` are single atomic
//! RMWs (a histogram observe is three). The registry mutex is taken
//! only to register or enumerate names — hot paths look a handle up
//! once and keep the `Arc`.
//!
//! All ordering is `Relaxed`: metrics are monotone statistics read by
//! exporters, not synchronization edges. A snapshot taken mid-update
//! may be a few events stale; it is never torn per-metric.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency buckets, microseconds: 10 µs to 1 s.
pub const LATENCY_US_BUCKETS: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000,
];

/// Default size buckets (dimensionless counts: frontier sizes, queue
/// depths): powers of four from 1 to ~1M.
pub const SIZE_BUCKETS: &[u64] = &[1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 1_048_576];

/// A fixed-bucket histogram. A value `v` lands in the first bucket
/// whose upper bound satisfies `v <= bound`; larger values land in the
/// implicit `+Inf` overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound plus the `+Inf` overflow at the end.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The configured upper bounds (exclusive of `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, *non*-cumulative, `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A point-in-time copy of one histogram, cumulative per Prometheus
/// convention: `buckets[i].1` counts observations `<= buckets[i].0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// `(upper_bound, cumulative_count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations (the `+Inf` cumulative count).
    pub count: u64,
}

/// A point-in-time copy of every registered metric, in name order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// One entry per histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Render in Prometheus text exposition format (version 0.0.4):
    /// a `# TYPE` line per metric, histograms expanded into
    /// `_bucket{le=...}` / `_sum` / `_count` series.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for h in &self.histograms {
            let name = &h.name;
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (bound, cumulative) in &h.buckets {
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named set of metrics. Most code uses the process-global
/// [`registry`]; tests construct private registries so assertions
/// never race with metrics written by concurrently running tests.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`. The first registration fixes the
    /// bucket bounds; later calls return the existing histogram
    /// whatever bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Copy every metric's current value, names in sorted order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let histograms = inner
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut cumulative = 0;
                let counts = h.bucket_counts();
                let buckets = h
                    .bounds()
                    .iter()
                    .zip(&counts)
                    .map(|(&bound, &n)| {
                        cumulative += n;
                        (bound, cumulative)
                    })
                    .collect();
                HistogramSnapshot {
                    name: name.clone(),
                    buckets,
                    sum: h.sum(),
                    count: counts.iter().sum(),
                }
            })
            .collect();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms,
        }
    }
}

/// The process-global registry every instrumented subsystem writes to.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Global-registry counter (see [`Registry::counter`]).
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Global-registry gauge (see [`Registry::gauge`]).
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Global-registry histogram (see [`Registry::histogram`]).
pub fn histogram(name: &str, bounds: &[u64]) -> Arc<Histogram> {
    registry().histogram(name, bounds)
}

/// Gauge name for the process's resident set size (`VmRSS`), in bytes.
pub const PROCESS_RSS_GAUGE: &str = "fp_process_rss_bytes";
/// Gauge name for the process's peak resident set size (`VmHWM`), in
/// bytes.
pub const PROCESS_PEAK_RSS_GAUGE: &str = "fp_process_peak_rss_bytes";

/// Set the two process gauges from one read of `/proc/self/status`, so
/// a snapshot taken next shows what the process holds beside what the
/// budget ledger accounts. Where that file or either field is missing,
/// the gauges are left out: neither is registered or changed.
pub fn record_process_rss() {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    let bytes = |field: &str| {
        let line = status.lines().find_map(|l| l.strip_prefix(field))?;
        let kib: i64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
        kib.checked_mul(1024)
    };
    if let (Some(rss), Some(peak)) = (bytes("VmRSS:"), bytes("VmHWM:")) {
        gauge(PROCESS_RSS_GAUGE).set(rss);
        gauge(PROCESS_PEAK_RSS_GAUGE).set(peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_read_back() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = r.gauge("g");
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
        // Same name, same handle.
        r.counter("c").inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[10, 100]);
        h.observe(0); // <= 10
        h.observe(10); // edge: still the first bucket
        h.observe(11); // second bucket
        h.observe(100); // edge: second bucket
        h.observe(101); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 222);
    }

    #[test]
    fn concurrent_counter_hammering_loses_nothing() {
        let r = Registry::new();
        let c = r.counter("hammered");
        let h = r.histogram("hist", &[4, 64]);
        thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i % 100);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshot_is_sorted_and_cumulative() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.gauge("depth").set(5);
        let h = r.histogram("lat", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let hist = &snap.histograms[0];
        assert_eq!(hist.buckets, vec![(10, 1), (100, 2)]);
        assert_eq!(hist.count, 3);
        assert_eq!(hist.sum, 5055);
    }

    #[test]
    fn prometheus_text_format_golden() {
        let r = Registry::new();
        r.counter("fp_requests_total").add(3);
        r.gauge("fp_sessions").set(2);
        let h = r.histogram("fp_request_us", &[100, 1000]);
        h.observe(40);
        h.observe(400);
        h.observe(4000);
        let text = r.snapshot().to_prometheus_text();
        let want = "\
# TYPE fp_requests_total counter
fp_requests_total 3
# TYPE fp_sessions gauge
fp_sessions 2
# TYPE fp_request_us histogram
fp_request_us_bucket{le=\"100\"} 1
fp_request_us_bucket{le=\"1000\"} 2
fp_request_us_bucket{le=\"+Inf\"} 3
fp_request_us_sum 4440
fp_request_us_count 3
";
        assert_eq!(text, want);
    }

    #[test]
    fn global_registry_is_shared() {
        counter("fp_obs_test_global_total").inc();
        let snap = registry().snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "fp_obs_test_global_total" && *v >= 1));
    }
}
