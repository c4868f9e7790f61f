//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` name for name and
//! unit for unit (a test holds them equal). Every workload reports every
//! metric of the set it prints: end-to-end metrics are defined so that
//! each means something on every workload, and a per-layer metric of a
//! layer a workload does not reach reads 0.

use std::collections::BTreeMap;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, lower_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
    }
}

/// Metrics of the untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", true),
    m("flow_s", "s", true),
    m("jobs_per_s", "1/s", false),
    m("miss_p50_ms", "ms", true),
    m("mc_ratio", "ratio", true),
    m("depth_ratio", "ratio", true),
    m("peak_rss_mb", "MB", true),
];

/// Metrics of the traced run. Times named `_s` are totals per pass of the
/// input set; times named `_ms`/`_us` are means per call.
pub const PER_LAYER: &[Metric] = &[
    m("circuits.parse_ms", "ms", true),
    m("network.write_ms", "ms", true),
    m("network.equiv_s", "s", true),
    m("cuts.enum_s", "s", true),
    m("cuts.count", "count", true),
    m("affine.classify_s", "s", true),
    m("affine.hit_ratio", "ratio", false),
    m("synth.synth_s", "s", true),
    m("synth.classes", "count", true),
    m("core.run_job_s", "s", true),
    m("core.cut_enum_s", "s", true),
    m("core.propose_s", "s", true),
    m("core.commit_validate_s", "s", true),
    m("core.other_s", "s", true),
    m("core.rounds", "count", true),
    m("core.cuts_considered", "count", true),
    m("core.proposals", "count", true),
    m("core.commits", "count", false),
    m("core.commit_accept_ratio", "ratio", false),
    m("core.job_key_ms", "ms", true),
    m("serve.queue_wait_ms", "ms", true),
    m("serve.run_ms", "ms", true),
    m("serve.serialize_ms", "ms", true),
    m("serve.miss_overhead_ms", "ms", true),
    m("serve.hit_lookup_us", "us", true),
    m("serve.misses", "count", true),
    m("serve.hit_ratio", "ratio", false),
    m("serve.coalesced", "count", true),
    m("serve.errors", "count", true),
    m("client.hit_p50_ms", "ms", true),
    m("client.miss_p90_ms", "ms", true),
    m("cluster.dispatch_ms", "ms", true),
    m("cluster.edge_ms", "ms", true),
    m("cluster.affinity_ratio", "ratio", false),
    m("cluster.load_skew", "ratio", true),
    m("cluster.retries", "count", true),
    m("obs.trace_overhead_ratio", "ratio", true),
];

/// Measured values, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run concluded.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Operations attempted (compiles or requests).
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Run-level check failures (counts that disagree, outputs that
    /// differ between passes); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// `key value` lines of run metadata (sample counts, workers, …).
    pub meta: Vec<(String, String)>,
    /// Host slowdowns the calibration kernel measured next to the timed
    /// work (see `calibrate`).
    pub slowdowns: Vec<f64>,
    /// Host slowdowns measured next to the setups.
    pub setup_slowdowns: Vec<f64>,
}

impl Outcome {
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Scales the end-to-end times and the one rate to the reference host
    /// speed by the median slowdown measured next to them, keeping the raw
    /// values as metadata.
    pub fn normalize_to_reference_host(&mut self) {
        let median = |samples: &[f64]| crate::stats::median(samples).expect("calibrated");
        let slowdown = median(&self.slowdowns);
        let setup_slowdown = median(&self.setup_slowdowns);
        let scaled = [
            ("setup_s", 1.0 / setup_slowdown),
            ("flow_s", 1.0 / slowdown),
            ("miss_p50_ms", 1.0 / slowdown),
            ("jobs_per_s", slowdown),
        ];
        for (name, factor) in scaled {
            let raw = self.values.get(name).expect("every workload measures it");
            self.meta(&format!("raw_{name}"), raw);
            self.values.set(name, raw * factor);
        }
        self.meta("host_slowdown", slowdown);
        self.meta("setup_host_slowdown", setup_slowdown);
        self.meta("slowdown_samples", listed(&self.slowdowns));
        self.meta("setup_slowdown_samples", listed(&self.setup_slowdowns));
    }
}

/// Space-separated values with millisecond precision, for `meta`.
pub fn listed(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Human-readable lines for `set`, in catalogue order. Metrics missing
/// from `values` are a bug in the workload, not a measurement.
pub fn render_table(set: &[Metric], values: &Values) -> String {
    let mut out = String::new();
    for metric in set {
        let value = values
            .get(metric.name)
            .unwrap_or_else(|| panic!("workload did not measure {}", metric.name));
        let better = if metric.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        out.push_str(&format!(
            "  {:<26} {:>16.6} {:<6} ({better} is better)\n",
            metric.name, value, metric.unit
        ));
    }
    out
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, each value printed with all its digits.
pub fn render_result(set: &[Metric], outcome: &Outcome) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|metric| {
            let value = outcome
                .values
                .get(metric.name)
                .unwrap_or_else(|| panic!("workload did not measure {}", metric.name));
            assert!(value.is_finite(), "{} is not finite", metric.name);
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_serve::json::{self, Json};

    fn catalogue(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the metric set")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn as_rows(set: &[Metric]) -> Vec<(String, String, String)> {
        set.iter()
            .map(|m| {
                let better = if m.lower_is_better { "lower" } else { "higher" };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(catalogue(&doc, "end_to_end"), as_rows(END_TO_END));
        assert_eq!(catalogue(&doc, "per_layer"), as_rows(PER_LAYER));
    }

    fn full(set: &[Metric]) -> Outcome {
        let mut outcome = Outcome {
            attempted: 8,
            ..Outcome::default()
        };
        for (i, metric) in set.iter().enumerate() {
            outcome.values.set(metric.name, 0.25 + i as f64);
        }
        outcome
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        for set in [END_TO_END, PER_LAYER] {
            let line = render_result(set, &full(set));
            let doc = json::parse(&line).expect("result line is JSON");
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(8));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = doc.get("metrics").expect("metrics object");
            for (i, metric) in set.iter().enumerate() {
                let entry = metrics.get(metric.name).expect(metric.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
                assert_eq!(
                    entry.get("value").and_then(Json::as_f64),
                    Some(0.25 + i as f64)
                );
            }
            let table = render_table(set, &full(set).values);
            for metric in set {
                assert!(table.contains(metric.name) && table.contains(metric.unit));
            }
        }
    }

    #[test]
    fn failures_and_problems_make_the_run_incorrect() {
        let mut outcome = full(END_TO_END);
        outcome.failed = 1;
        assert!(render_result(END_TO_END, &outcome).starts_with("{\"correct\": false"));
        let mut outcome = full(END_TO_END);
        outcome.problems.push("misses differ".into());
        assert!(render_result(END_TO_END, &outcome).starts_with("{\"correct\": false"));
    }

    #[test]
    fn normalization_divides_times_and_multiplies_rates_by_the_slowdown() {
        let mut outcome = full(END_TO_END);
        outcome.slowdowns = vec![2.0, 1.0, 3.0];
        outcome.setup_slowdowns = vec![4.0];
        let flow = outcome.values.get("flow_s").expect("set");
        let setup = outcome.values.get("setup_s").expect("set");
        let rate = outcome.values.get("jobs_per_s").expect("set");
        let mc = outcome.values.get("mc_ratio").expect("set");
        outcome.normalize_to_reference_host();
        assert_eq!(outcome.values.get("flow_s"), Some(flow / 2.0));
        assert_eq!(outcome.values.get("setup_s"), Some(setup / 4.0));
        assert_eq!(outcome.values.get("jobs_per_s"), Some(rate * 2.0));
        assert_eq!(outcome.values.get("mc_ratio"), Some(mc));
        assert!(outcome
            .meta
            .contains(&("raw_flow_s".to_string(), flow.to_string())));
    }

    #[test]
    #[should_panic(expected = "did not measure")]
    fn a_missing_metric_is_a_bug() {
        let mut outcome = full(END_TO_END);
        outcome.values.0.remove("flow_s");
        render_result(END_TO_END, &outcome);
    }
}
