//! mc-obs — std-only observability core for the mc workspace.
//!
//! Five pieces, each usable alone:
//!
//! - [`metrics`]: a lock-light registry of atomic counters, gauges, and
//!   log2-bucket histograms with mergeable quantiles, rendered as
//!   Prometheus-style text.
//! - [`trace`]: span-based structured tracing — job-scoped trace IDs in
//!   a thread-local, bounded per-thread event rings, and a cross-thread
//!   dump for the `TraceDump` endpoint.
//! - [`progress`]: a board of running jobs updated at pipeline pass
//!   boundaries and snapshotted by `Status`.
//! - [`history`]: a fixed-capacity ring of timestamped metric snapshots
//!   with 10s/1m/5m sliding-window rates — one ring per service, merged
//!   cluster-wide by the `MetricsHistory` endpoint.
//! - [`prof`]: the continuous phase profiler — per-phase self/total time
//!   by folded-stack path for the `ProfDump` endpoint.
//!
//! The crate has no dependencies and no feature flags: instrumentation
//! call sites in core/serve/cluster pay a few relaxed atomics or one
//! short ring push per *pass, round, node, or request* — never per
//! cut — so it stays on unconditionally.

pub mod history;
pub mod metrics;
pub mod prof;
pub mod progress;
pub mod trace;

pub use history::{History, HistorySource, HistoryWindow, Sample, WINDOWS_SECS};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use prof::{phase, PhaseStat};
pub use progress::{job_scope, snapshot as progress_snapshot, update_current, JobProgress};
pub use trace::{
    current_trace_id, dump as trace_dump, epoch_us, instant, next_trace_id, record, span,
    trace_scope, TraceEvent,
};

use std::sync::OnceLock;

/// The process-wide metric registry. Every tier records here; the
/// `Metrics` endpoint renders it.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        registry().counter("obs_test_total").inc();
        assert!(registry().counter("obs_test_total").get() >= 1);
        assert!(registry().render().contains("obs_test_total"));
    }
}
