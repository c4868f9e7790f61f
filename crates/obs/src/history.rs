//! Metrics history: a fixed-capacity ring of timestamped snapshots with
//! sliding-window derivations.
//!
//! The live registry ([`crate::metrics`]) only answers "how much since
//! process start". Operators ask a different question — "what is this
//! service doing *right now*" — which needs rates: jobs/s, cache
//! hit-rate, retry rate, latency quantiles over the last 10 seconds, not
//! the last week. The daemon and the router each own one [`History`],
//! and each one's sampler thread pushes a cumulative [`Sample`] of counts
//! that service keeps for itself every interval; a window is then the
//! *delta* between the newest sample and the oldest sample inside the
//! window, so rates never need per-event bookkeeping on the hot path.
//!
//! A sample reads the service's own counts, never the process-wide
//! registry: two services in one process (a router and its backends in a
//! test, or two daemons) would otherwise each count the other's jobs.
//! A [`HistoryWindow`] carries raw deltas (counts and per-bucket latency
//! counts) and derives rates on demand. Timestamps come in from the
//! caller, which keeps the window math testable against a synthetic
//! clock.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::metrics::{bucket_quantile, BUCKETS};

/// The standard window lengths, in seconds: 10s / 1m / 5m.
pub const WINDOWS_SECS: [u64; 3] = [10, 60, 300];

/// Ring capacity: 12 minutes of 1 s samples — comfortably more than the
/// longest (5 m) window.
const CAPACITY: usize = 720;

/// One cumulative snapshot of a service's own counts, stamped with an
/// epoch-milliseconds clock supplied by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Epoch milliseconds at which the snapshot was taken.
    pub at_ms: u64,
    /// Jobs completed since the service started.
    pub jobs: u64,
    /// Cache hits since the service started.
    pub hits: u64,
    /// Cache misses since the service started.
    pub misses: u64,
    /// Dispatch retries since the service started (routers; zero on
    /// backends).
    pub retries: u64,
    /// Errors since the service started.
    pub errors: u64,
    /// Instantaneous queue depth.
    pub queue_depth: u64,
    /// Instantaneous busy-worker count.
    pub busy: u64,
    /// Cumulative latency observation count.
    pub lat_count: u64,
    /// Cumulative latency sum (µs).
    pub lat_sum: u64,
    /// Cumulative per-bucket latency counts (see [`crate::metrics`]).
    pub lat_buckets: [u64; BUCKETS],
}

/// Raw deltas over one sliding window — the wire unit. Rates are derived
/// on demand via [`HistoryWindow::jobs_per_sec`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryWindow {
    /// Nominal window length in seconds.
    pub window_secs: u64,
    /// Milliseconds actually spanned by the samples behind the deltas
    /// (zero when fewer than two samples fell inside the window).
    pub span_ms: u64,
    /// Jobs completed inside the window.
    pub jobs: u64,
    /// Cache hits inside the window.
    pub hits: u64,
    /// Cache misses inside the window.
    pub misses: u64,
    /// Dispatch retries inside the window.
    pub retries: u64,
    /// Errors inside the window.
    pub errors: u64,
    /// Queue depth at the newest sample.
    pub queue_depth: u64,
    /// Busy workers at the newest sample.
    pub busy: u64,
    /// Latency observations inside the window.
    pub lat_count: u64,
    /// Sum of latencies inside the window (µs).
    pub lat_sum: u64,
    /// Per-bucket latency counts inside the window.
    pub lat_buckets: Vec<u64>,
}

impl HistoryWindow {
    /// An empty window of nominal length `window_secs`.
    pub fn empty(window_secs: u64) -> Self {
        Self {
            window_secs,
            span_ms: 0,
            jobs: 0,
            hits: 0,
            misses: 0,
            retries: 0,
            errors: 0,
            queue_depth: 0,
            busy: 0,
            lat_count: 0,
            lat_sum: 0,
            lat_buckets: vec![0; BUCKETS],
        }
    }

    /// The delta between two cumulative samples. Counters use saturating
    /// subtraction so a restarted process (counters reset to zero) yields
    /// an empty delta instead of garbage.
    pub fn between(window_secs: u64, oldest: &Sample, newest: &Sample) -> Self {
        Self {
            window_secs,
            span_ms: newest.at_ms.saturating_sub(oldest.at_ms),
            jobs: newest.jobs.saturating_sub(oldest.jobs),
            hits: newest.hits.saturating_sub(oldest.hits),
            misses: newest.misses.saturating_sub(oldest.misses),
            retries: newest.retries.saturating_sub(oldest.retries),
            errors: newest.errors.saturating_sub(oldest.errors),
            queue_depth: newest.queue_depth,
            busy: newest.busy,
            lat_count: newest.lat_count.saturating_sub(oldest.lat_count),
            lat_sum: newest.lat_sum.saturating_sub(oldest.lat_sum),
            lat_buckets: (0..BUCKETS)
                .map(|b| newest.lat_buckets[b].saturating_sub(oldest.lat_buckets[b]))
                .collect(),
        }
    }

    /// Jobs per second over the spanned interval (0 with no span).
    pub fn jobs_per_sec(&self) -> f64 {
        rate_per_sec(self.jobs, self.span_ms)
    }

    /// Cache hit-rate in `[0, 1]` (0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    /// Dispatch retries per routed job (0 with no jobs).
    pub fn retry_rate(&self) -> f64 {
        ratio(self.retries, self.jobs)
    }

    /// Errors per job (0 with no jobs).
    pub fn error_rate(&self) -> f64 {
        ratio(self.errors, self.jobs + self.errors)
    }

    /// The latency value at quantile `q` within the window, in µs —
    /// [`bucket_quantile`] over the delta buckets. Returns 0 for an empty
    /// window.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        bucket_quantile(self.lat_buckets.iter().copied(), self.lat_count, q)
    }

    /// Window p50 latency in µs.
    pub fn p50_us(&self) -> u64 {
        self.latency_quantile(0.50)
    }

    /// Window p99 latency in µs.
    pub fn p99_us(&self) -> u64 {
        self.latency_quantile(0.99)
    }
}

fn rate_per_sec(n: u64, span_ms: u64) -> f64 {
    if span_ms == 0 {
        0.0
    } else {
        n as f64 * 1000.0 / span_ms as f64
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The ring itself: a mutex over a `VecDeque` of at most 720 samples.
/// The lock is touched once per sampler tick and once per
/// `MetricsHistory` request — both far off the optimization hot path
/// ("lock-light" in the sense that matters: never on a per-job or
/// per-node edge).
#[derive(Default)]
pub struct History {
    samples: Mutex<VecDeque<Sample>>,
}

impl History {
    /// Appends a snapshot, dropping the oldest once full. Out-of-order
    /// samples (clock went backwards) are dropped rather than corrupting
    /// the window scan.
    pub fn push(&self, sample: Sample) {
        let mut samples = self.samples.lock().expect("history lock poisoned");
        if let Some(last) = samples.back() {
            if sample.at_ms < last.at_ms {
                return;
            }
        }
        if samples.len() == CAPACITY {
            samples.pop_front();
        }
        samples.push_back(sample);
    }

    /// The delta over the last `secs` seconds, ending at the newest
    /// sample, evaluated at synthetic time `now_ms`. A window needs two
    /// samples inside it to carry a delta; otherwise it comes back empty
    /// (all zeros, span 0).
    pub fn window(&self, now_ms: u64, secs: u64) -> HistoryWindow {
        let samples = self.samples.lock().expect("history lock poisoned");
        let horizon = now_ms.saturating_sub(secs.saturating_mul(1000));
        let newest = match samples.back() {
            Some(s) if s.at_ms >= horizon => s,
            _ => return HistoryWindow::empty(secs),
        };
        match samples.iter().find(|s| s.at_ms >= horizon) {
            Some(oldest) if oldest.at_ms < newest.at_ms => {
                HistoryWindow::between(secs, oldest, newest)
            }
            _ => HistoryWindow::empty(secs),
        }
    }

    /// [`History::window`] over the standard 10s/1m/5m windows at the
    /// wall clock.
    pub fn standard_windows(&self) -> Vec<HistoryWindow> {
        let now_ms = crate::epoch_us() / 1000;
        WINDOWS_SECS
            .iter()
            .map(|&secs| self.window(now_ms, secs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample(at_ms: u64, jobs: u64, hits: u64, misses: u64, lat: &[u64]) -> Sample {
        let h = Histogram::new();
        for &v in lat {
            h.record(v);
        }
        Sample {
            at_ms,
            jobs,
            hits,
            misses,
            retries: 0,
            errors: 0,
            queue_depth: 1,
            busy: 2,
            lat_count: h.count(),
            lat_sum: h.sum(),
            lat_buckets: h.bucket_counts(),
        }
    }

    #[test]
    fn ring_wraps_dropping_the_oldest() {
        let h = History::default();
        let newest = CAPACITY as u64 + 5;
        for i in 0..=newest {
            h.push(sample(i * 1000, i, 0, 0, &[]));
        }
        // Only t=6 s onwards is retained: a window reaching back past the
        // start spans exactly those samples.
        let w = h.window(newest * 1000, 100_000);
        assert_eq!(w.jobs, newest - 6);
        assert_eq!(w.span_ms, (newest - 6) * 1000);
    }

    #[test]
    fn out_of_order_samples_are_dropped() {
        let h = History::default();
        h.push(sample(5_000, 5, 0, 0, &[]));
        h.push(sample(6_000, 6, 0, 0, &[]));
        // The clock went backwards: the window still ends at t=6 s.
        h.push(sample(4_000, 9, 0, 0, &[]));
        let w = h.window(6_000, 10);
        assert_eq!((w.jobs, w.span_ms), (1, 1_000));
    }

    #[test]
    fn window_math_against_a_synthetic_clock() {
        let h = History::default();
        // One sample per second; 2 jobs, 1 hit, 1 miss per second.
        for i in 0..31u64 {
            h.push(sample(i * 1000, 2 * i, i, i, &[]));
        }
        let now = 30_000;
        // 10 s window: samples at t=20..30 → 10 s span, 20 jobs.
        let w = h.window(now, 10);
        assert_eq!(w.span_ms, 10_000);
        assert_eq!(w.jobs, 20);
        assert!((w.jobs_per_sec() - 2.0).abs() < 1e-9);
        assert!((w.hit_rate() - 0.5).abs() < 1e-9);
        // 60 s window: only 30 s of history exists; rate still exact
        // because it divides by the actual span.
        let w = h.window(now, 60);
        assert_eq!(w.span_ms, 30_000);
        assert_eq!(w.jobs, 60);
        assert!((w.jobs_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_and_stale_windows_are_empty() {
        let h = History::default();
        assert!(h.window(1_000, 10).jobs == 0);
        h.push(sample(500, 7, 0, 0, &[]));
        // One sample in window: no delta.
        let w = h.window(1_000, 10);
        assert_eq!((w.jobs, w.span_ms), (0, 0));
        // Sampler stalled: newest sample fell out of the window.
        h.push(sample(900, 9, 0, 0, &[]));
        let w = h.window(60_000, 10);
        assert_eq!((w.jobs, w.span_ms), (0, 0));
    }

    #[test]
    fn counter_reset_yields_empty_delta_not_garbage() {
        let h = History::default();
        h.push(sample(0, 100, 0, 0, &[]));
        h.push(sample(1_000, 3, 0, 0, &[])); // process restarted
        let w = h.window(1_000, 10);
        assert_eq!(w.jobs, 0);
    }

    #[test]
    fn window_latency_quantiles_read_the_delta_not_the_total() {
        let h = History::default();
        // Old sample: 100 slow observations (~1000 µs).
        let slow: Vec<u64> = vec![1000; 100];
        h.push(sample(0, 0, 0, 0, &slow));
        // New sample: those plus 100 fast (~10 µs) observations.
        let mut all = slow.clone();
        all.extend(vec![10u64; 100]);
        h.push(sample(10_000, 0, 0, 0, &all));
        let w = h.window(10_000, 10);
        assert_eq!(w.lat_count, 100);
        // The window only saw the fast observations.
        assert_eq!(w.p50_us(), 15);
        assert_eq!(w.p99_us(), 15);
    }

    #[test]
    fn rates_guard_against_empty_denominators() {
        let w = HistoryWindow::empty(10);
        assert_eq!(w.jobs_per_sec(), 0.0);
        assert_eq!(w.hit_rate(), 0.0);
        assert_eq!(w.retry_rate(), 0.0);
        assert_eq!(w.error_rate(), 0.0);
        assert_eq!(w.p99_us(), 0);
    }
}
