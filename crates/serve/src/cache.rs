//! The job key and the cached result it maps to.
//!
//! The key itself — [`canonical_form`] / [`job_key`] / [`fingerprint`] —
//! lives in `xag_mc::canon` and is re-exported here, because the cluster
//! router computes the *same* bytes to consistent-hash a job onto the
//! backend ring: key agreement between the tiers is what makes an
//! isomorphic resubmission land on the backend whose cache is warm.
//!
//! A [`CacheEntry`] is what one computation of a key leaves behind. The
//! map from keys to entries, with its LRU bound, its counters and the
//! coalescing of concurrent misses, is [`crate::coalesce`]'s
//! `CoalescingCache`; hits and waiters share one entry through an `Arc`.

pub use xag_mc::canon::{canonical_form, fingerprint, job_key};
use xag_mc::JobResult;

/// One cached optimization result: both export formats plus the summary
/// of the run that computed them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheEntry {
    /// Id of the job that computed the entry.
    pub job_id: u64,
    /// Optimized netlist, Bristol fashion.
    pub bristol: String,
    /// Optimized netlist, structural Verilog.
    pub verilog: String,
    /// What `run_job` reported for the computation.
    pub result: JobResult,
}

impl CacheEntry {
    /// Wall-clock milliseconds of the original computation.
    pub fn millis(&self) -> u64 {
        self.result.elapsed.as_millis() as u64
    }
}
