//! Deltas of what the program already exports: `mc_obs::prof` phase self
//! times and `mc_obs::registry()` counters and histograms. Daemons and
//! routers run in the benchmark's process, so the process-global profile
//! and registry cover them too.

use std::collections::HashMap;

use crate::report::Values;

const COUNTERS: [&str; 4] = [
    "mc_cuts_considered_total",
    "mc_shard_proposals_total",
    "mc_shard_commits_total",
    "serve_errors_total",
];

const HISTOGRAMS: [&str; 6] = [
    "serve_queue_wait_us",
    "serve_run_us",
    "serve_serialize_us",
    "serve_cache_hit_us",
    "serve_coalesced_wait_us",
    "cluster_dispatch_us",
];

/// The core phases named on their own; every other phase path is `other`.
const CORE_PHASES: [(&str, &str); 3] = [
    ("cut_enum", "core.cut_enum_s"),
    ("propose", "core.propose_s"),
    ("commit_validate", "core.commit_validate_s"),
];

/// Per-layer metrics of the service layers, zero on the compile path.
pub const SERVICE_ONLY: [&str; 16] = [
    "serve.queue_wait_ms",
    "serve.run_ms",
    "serve.serialize_ms",
    "serve.miss_overhead_ms",
    "serve.hit_lookup_us",
    "serve.misses",
    "serve.hit_ratio",
    "serve.coalesced",
    "serve.errors",
    "client.hit_p50_ms",
    "client.miss_p90_ms",
    "cluster.dispatch_ms",
    "cluster.edge_ms",
    "cluster.affinity_ratio",
    "cluster.load_skew",
    "cluster.retries",
];

/// Per-layer metrics of the round-one replay, which only the compile
/// path runs.
pub const REPLAY_ONLY: [&str; 6] = [
    "cuts.enum_s",
    "cuts.count",
    "affine.classify_s",
    "affine.hit_ratio",
    "synth.synth_s",
    "synth.classes",
];

/// Cumulative profile and registry readings at one instant. Profile
/// entries are exact at pass boundaries, so take snapshots when no job
/// is running.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    phase_self_us: HashMap<String, u64>,
    counters: HashMap<&'static str, u64>,
    /// `(count, sum)` per histogram.
    histograms: HashMap<&'static str, (u64, u64)>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let reg = mc_obs::registry();
        Snapshot {
            phase_self_us: mc_obs::prof::snapshot()
                .into_iter()
                .map(|p| (p.path, p.self_us))
                .collect(),
            counters: COUNTERS
                .iter()
                .map(|&c| (c, reg.counter(c).get()))
                .collect(),
            histograms: HISTOGRAMS
                .iter()
                .map(|&h| {
                    let hist = reg.histogram(h);
                    (h, (hist.count(), hist.sum()))
                })
                .collect(),
        }
    }

    /// What accumulated between `before` and this snapshot.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            phase_self_us: self
                .phase_self_us
                .iter()
                .map(|(path, &us)| {
                    let was = before.phase_self_us.get(path).copied().unwrap_or(0);
                    (path.clone(), us - was)
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(&c, &v)| (c, v - before.counters[c]))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&h, &(n, sum))| {
                    let (n0, sum0) = before.histograms[h];
                    (h, (n - n0, sum - sum0))
                })
                .collect(),
        }
    }

    /// Adds `other`'s readings to these (deltas of several streams).
    pub fn add(&mut self, other: &Snapshot) {
        for (path, &us) in &other.phase_self_us {
            *self.phase_self_us.entry(path.clone()).or_default() += us;
        }
        for (&c, &v) in &other.counters {
            *self.counters.entry(c).or_default() += v;
        }
        for (&h, &(n, sum)) in &other.histograms {
            let slot = self.histograms.entry(h).or_default();
            slot.0 += n;
            slot.1 += sum;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |&(n, _)| n)
    }

    /// Mean of a histogram's records, 0 when it recorded nothing.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(n, sum)) if n > 0 => sum as f64 / n as f64,
            _ => 0.0,
        }
    }

    pub fn histogram_sum(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |&(_, sum)| sum)
    }

    /// Self time of every phase path, in seconds.
    pub fn total_self_s(&self) -> f64 {
        self.phase_self_us.values().sum::<u64>() as f64 / 1e6
    }

    /// Self time of the paths whose leaf phase is `leaf`, in seconds.
    fn leaf_self_s(&self, leaf: &str) -> f64 {
        self.phase_self_us
            .iter()
            .filter(|(path, _)| path.rsplit(';').next() == Some(leaf))
            .map(|(_, &us)| us)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Sets the `core.*` phase and counter metrics, each divided by `per`
    /// (the number of passes over the input set).
    pub fn set_core_values(&self, values: &mut Values, per: f64) {
        let mut named = 0.0;
        for (leaf, metric) in CORE_PHASES {
            let s = self.leaf_self_s(leaf);
            named += s;
            values.set(metric, s / per);
        }
        values.set("core.other_s", (self.total_self_s() - named) / per);
        let proposals = self.counter("mc_shard_proposals_total");
        let commits = self.counter("mc_shard_commits_total");
        values.set(
            "core.cuts_considered",
            self.counter("mc_cuts_considered_total") as f64 / per,
        );
        values.set("core.proposals", proposals as f64 / per);
        values.set("core.commits", commits as f64 / per);
        values.set(
            "core.commit_accept_ratio",
            if proposals == 0 {
                0.0
            } else {
                commits as f64 / proposals as f64
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_split_named_phases_from_the_rest() {
        let before = Snapshot {
            phase_self_us: [("pipeline;par_rewrite;propose".to_string(), 1_000_000)].into(),
            counters: COUNTERS.iter().map(|&c| (c, 5)).collect(),
            histograms: HISTOGRAMS.iter().map(|&h| (h, (1, 10))).collect(),
        };
        let after = Snapshot {
            phase_self_us: [
                ("pipeline;par_rewrite;propose".to_string(), 3_000_000),
                ("pipeline;par_rewrite;cut_enum".to_string(), 1_000_000),
                ("pipeline;par_rewrite".to_string(), 500_000),
            ]
            .into(),
            counters: [
                ("mc_cuts_considered_total", 105),
                ("mc_shard_proposals_total", 45),
                ("mc_shard_commits_total", 15),
                ("serve_errors_total", 5),
            ]
            .into(),
            histograms: HISTOGRAMS.iter().map(|&h| (h, (3, 50))).collect(),
        };
        let delta = after.since(&before);
        assert_eq!(delta.total_self_s(), 3.5);
        assert_eq!(delta.histogram_mean("serve_run_us"), 20.0);
        let mut values = Values::default();
        delta.set_core_values(&mut values, 2.0);
        assert_eq!(values.get("core.propose_s"), Some(1.0));
        assert_eq!(values.get("core.cut_enum_s"), Some(0.5));
        assert_eq!(values.get("core.commit_validate_s"), Some(0.0));
        assert_eq!(values.get("core.other_s"), Some(0.25));
        assert_eq!(values.get("core.proposals"), Some(20.0));
        assert_eq!(values.get("core.commit_accept_ratio"), Some(0.25));
    }
}
