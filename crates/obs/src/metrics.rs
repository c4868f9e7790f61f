//! The metric registry: atomic counters and gauges plus fixed
//! log2-bucket latency histograms.
//!
//! Everything here is built for the hot path of a long-running service:
//! a metric handle is an `Arc` over plain atomics, so recording a value
//! is a handful of relaxed atomic adds — no lock, no allocation. The
//! registry itself takes a lock only on *registration* (the first time a
//! name is seen) and on *rendering* (the `metrics` endpoint); both are
//! off the optimization hot path.
//!
//! Histograms use fixed power-of-two buckets: bucket `b` counts values
//! `v` with `2^(b-1) <= v < 2^b` (bucket 0 counts zero). That makes
//! quantile readout a single cumulative walk, and lets the history ring
//! subtract two snapshots bucket by bucket. The price is resolution (a
//! quantile is only exact up to its bucket's upper bound), which is the
//! right trade for latencies: the interesting differences are
//! multiplicative.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets. Values at or above `2^(BUCKETS-2)` all land
/// in the last (overflow) bucket; with microsecond values that bound is
/// ~2^38 µs ≈ 3 days — far beyond any latency worth resolving.
pub const BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (e.g. a round-trip time, a queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed log2-bucket histogram with count, sum, and quantile readout.
/// See the [module documentation](self) for the bucket layout.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: core::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index of a value: 0 for 0, otherwise `floor(log2(v)) + 1`,
/// clamped into the overflow bucket.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound of a bucket: the largest value it counts.
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// The value at quantile `q` in `[0, 1]` of a distribution of `total`
/// observations given as per-bucket counts: the upper bound of the first
/// bucket whose cumulative count reaches `ceil(q * total)`. Returns 0
/// when `total` is 0. Histograms and history windows both read their
/// quantiles through this one walk.
pub fn bucket_quantile(buckets: impl IntoIterator<Item = u64>, total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (b, n) in buckets.into_iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_upper(b);
        }
    }
    bucket_upper(BUCKETS - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A snapshot of the per-bucket counts. The history ring stores these
    /// so a sliding window can subtract two cumulative snapshots and read
    /// quantiles off the delta.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        core::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]` ([`bucket_quantile`] over the
    /// buckets). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets = self.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        bucket_quantile(buckets, self.count(), q)
    }

    /// `(p50, p90, p99)` in one call — the readout the service endpoints
    /// report.
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of metrics with Prometheus-style text rendering.
///
/// Names may carry `{label="value"}` suffixes; the registry treats the
/// whole string as the key and renders it verbatim, so label cardinality
/// is the caller's responsibility (keep it bounded: backend ids, pass
/// names — never client-controlled strings).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use. Cache the handle
    /// when recording from a loop.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Renders every metric as Prometheus-style text, sorted by name.
    /// Counters and gauges are one `name value` line; a histogram `h`
    /// renders `h_count`, `h_sum`, `h_p50`/`h_p90`/`h_p99`, and cumulative
    /// `h_bucket{le="..."}` lines (occupied buckets only, plus `+Inf`, so
    /// the 40-bucket layout does not bloat the endpoint).
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("metrics lock poisoned");
        let mut out = String::new();
        for (name, c) in &inner.counters {
            out.push_str(&format!("{name} {}\n", c.get()));
        }
        for (name, g) in &inner.gauges {
            out.push_str(&format!("{name} {}\n", g.get()));
        }
        for (name, h) in &inner.histograms {
            let (p50, p90, p99) = h.quantiles();
            out.push_str(&format!("{name}_count {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_p50 {p50}\n"));
            out.push_str(&format!("{name}_p90 {p90}\n"));
            out.push_str(&format!("{name}_p99 {p99}\n"));
            let mut cumulative = 0u64;
            for (b, n) in h.bucket_counts().iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                cumulative += n;
                out.push_str(&bucket_line(name, &bucket_upper(b).to_string(), cumulative));
            }
            out.push_str(&bucket_line(name, "+Inf", h.count()));
        }
        out
    }
}

/// One cumulative-bucket line. A name that already carries
/// `{label="value"}` suffixes gets `le` spliced in as the first label so
/// the output stays parseable.
fn bucket_line(name: &str, le: &str, cumulative: u64) -> String {
    match name.find('{') {
        Some(i) => format!(
            "{}_bucket{{le=\"{le}\",{} {cumulative}\n",
            &name[..i],
            &name[i + 1..]
        ),
        None => format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("jobs_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("jobs_total").get(), 5, "same handle by name");
        let g = r.gauge("rtt_us");
        g.set(120);
        g.set(80);
        assert_eq!(g.get(), 80, "gauge is last-write-wins");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantiles(), (0, 0, 0));
    }

    #[test]
    fn single_bucket_histogram_reports_its_bound() {
        let h = Histogram::new();
        // 5 and 6 share bucket [4, 8) with upper bound 7.
        h.record(5);
        h.record(6);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 11);
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 7);
        // Zero lands in its own bucket.
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.99), 0);
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 62);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), u64::MAX);
        // The sum saturates only by wrapping; both values recorded.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 62), BUCKETS - 1);
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket [8,16), upper 15
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512,1024), upper 1023
        }
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.90), 15);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn render_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("g{backend=\"1\"}").set(9);
        r.histogram("lat_us").record(100);
        let text = r.render();
        let a = text.find("a_total 1").expect("a_total rendered");
        let b = text.find("b_total 2").expect("b_total rendered");
        assert!(a < b, "sorted by name");
        assert!(text.contains("g{backend=\"1\"} 9"));
        assert!(text.contains("lat_us_count 1"));
        assert!(text.contains("lat_us_sum 100"));
        assert!(text.contains("lat_us_p50 127"));
    }

    #[test]
    fn render_emits_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_us");
        h.record(5); // bucket upper 7
        h.record(6); // same bucket
        h.record(100); // bucket upper 127
        let text = r.render();
        assert!(text.contains("lat_us_bucket{le=\"7\"} 2"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"127\"} 3"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"), "{text}");
        // Empty buckets are skipped.
        assert!(!text.contains("le=\"0\""), "{text}");
    }

    #[test]
    fn bucket_lines_splice_le_into_existing_labels() {
        let line = bucket_line("rt_us{backend=\"2\"}", "15", 4);
        assert_eq!(line, "rt_us_bucket{le=\"15\",backend=\"2\"} 4\n");
    }

    #[test]
    fn bucket_counts_snapshot_matches_recording() {
        let h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[bucket_of(5)], 2);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
    }
}
