//! The bench-regression gate: compares a replayed benchmark run against
//! a committed `BENCH_*.json` trajectory file.
//!
//! The committed files record three kinds of numbers:
//!
//! * **deterministic results** — gate counts, multiplicative depths, cut
//!   totals, allocation counts. The engine is deterministic (same input,
//!   same flow, same result on any machine and thread count), so the gate
//!   compares these **exactly**; any drift is a correctness or quality
//!   regression, not noise;
//! * **wall-clock measurements** — absolute times and speedup ratios.
//!   These vary across machines, so the gate only rejects order-of-
//!   magnitude movement: a replayed time may not exceed the committed
//!   time by more than `wall_tolerance`×, and a replayed speedup ratio
//!   may not fall below the committed ratio divided by
//!   `ratio_tolerance`;
//! * **phase self times** — where a row's run spent its time. They are
//!   informational only and never compared.
//!
//! The `bench_gate` binary replays the hot-path microbenchmark and every
//! table row, matches rows by `(bench, name)`, and exits nonzero with one
//! line per violation — see its docs for the CI wiring.

use std::path::Path;

use mc_serve::json::{parse, Json};

use crate::harness::{BenchRecord, PhaseTimes};

/// Reads a `BENCH_*.json` file (the [`crate::write_bench_json`] shape)
/// back into records.
///
/// # Errors
///
/// Returns an I/O error for unreadable files and `InvalidData` for
/// malformed JSON or records missing required fields.
pub fn read_bench_json(path: &Path) -> std::io::Result<Vec<BenchRecord>> {
    let text = std::fs::read_to_string(path)?;
    let invalid = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {what}", path.display()),
        )
    };
    let value = parse(&text).map_err(|e| invalid(&format!("malformed JSON ({e:?})")))?;
    let items = value.as_arr().ok_or_else(|| invalid("expected an array"))?;
    let mut records = Vec::with_capacity(items.len());
    for item in items {
        records.push(record_from_json(item).ok_or_else(|| invalid("malformed record"))?);
    }
    Ok(records)
}

/// Phase times are optional (0 when absent): files recorded before
/// records carried them (`BENCH_14.json` and older) still parse.
fn record_from_json(v: &Json) -> Option<BenchRecord> {
    let str_field = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    let num_field = |key: &str| v.get(key).and_then(Json::as_u64).map(|n| n as usize);
    let phase_field = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Some(BenchRecord {
        bench: str_field("bench")?,
        name: str_field("name")?,
        size_before: num_field("size_before")?,
        size_after: num_field("size_after")?,
        depth_before: num_field("depth_before")?,
        depth_after: num_field("depth_after")?,
        mc_before: num_field("mc_before")?,
        mc_after: num_field("mc_after")?,
        wall_s: v.get("wall_s").and_then(Json::as_f64)?,
        threads: num_field("threads")?,
        flow: str_field("flow")?,
        phases: PhaseTimes {
            cut_enum_s: phase_field("cut_enum_s"),
            propose_s: phase_field("propose_s"),
            commit_validate_s: phase_field("commit_validate_s"),
        },
    })
}

/// Tolerances for the wall-clock comparisons. Deterministic fields are
/// always compared exactly and take no tolerance.
#[derive(Debug, Clone, Copy)]
pub struct GateTolerance {
    /// A replayed absolute time may be at most this factor slower than
    /// the committed one (CI machines differ; 4× rejects only
    /// order-of-magnitude regressions).
    pub wall_tolerance: f64,
    /// A replayed speedup ratio may be at most this factor below the
    /// committed one.
    pub ratio_tolerance: f64,
}

impl Default for GateTolerance {
    fn default() -> Self {
        Self {
            wall_tolerance: 4.0,
            ratio_tolerance: 2.0,
        }
    }
}

/// True for rows whose `wall_s` is a dimensionless speedup ratio rather
/// than a time: the hot-path `speedup/*` rows, the table binaries'
/// `*/par_speedup` rows, and the profiler-overhead off/on ratio (named
/// outside `speedup/` so the geomean row stays a pure legacy-vs-new
/// aggregate).
pub fn is_ratio_row(r: &BenchRecord) -> bool {
    r.name.starts_with("speedup/")
        || r.name.ends_with("/par_speedup")
        || r.name.starts_with("prof_overhead/")
}

/// True for rows whose numbers are all deterministic (no timing at all):
/// the allocation-count rows.
pub fn is_counted_row(r: &BenchRecord) -> bool {
    r.name.starts_with("allocs/")
}

/// True for `table1`/`table2` rows, whose wall times the gate treats as
/// informational: a table's rows share one warm `OptContext`, and a
/// row's time depends on what earlier rows left in it — a systematic
/// effect of suite composition, not a regression signal. Their *quality*
/// fields (sizes, depths, multiplicative complexity) are still compared
/// exactly; timing regressions are caught by the hot-path rows.
pub fn is_table_row(r: &BenchRecord) -> bool {
    r.bench.starts_with("table")
}

/// Compares a replayed run against a committed baseline, returning one
/// human-readable line per violation (empty = gate passes).
///
/// Rows are matched by `(bench, name)`. Every replayed row must have a
/// baseline counterpart: a replay row with no baseline means the
/// committed trajectory file is stale. Every non-ratio table row of the
/// baseline must be replayed, so a row that drops out of a table cannot
/// pass unnoticed; other baseline rows the replay did not produce (the
/// `par_speedup` rows of multi-thread runs) are ignored.
pub fn compare(
    baseline: &[BenchRecord],
    replay: &[BenchRecord],
    tol: GateTolerance,
) -> Vec<String> {
    let mut violations = Vec::new();
    for r in replay {
        let Some(b) = baseline
            .iter()
            .find(|b| b.bench == r.bench && b.name == r.name)
        else {
            violations.push(format!(
                "{}/{}: no baseline row — regenerate the committed BENCH file",
                r.bench, r.name
            ));
            continue;
        };
        // Deterministic fields: exact.
        let fields = [
            ("size_before", b.size_before, r.size_before),
            ("size_after", b.size_after, r.size_after),
            ("depth_before", b.depth_before, r.depth_before),
            ("depth_after", b.depth_after, r.depth_after),
            ("mc_before", b.mc_before, r.mc_before),
            ("mc_after", b.mc_after, r.mc_after),
        ];
        for (field, want, got) in fields {
            if want != got {
                violations.push(format!(
                    "{}/{}: {field} = {got}, baseline {want} (deterministic field drifted)",
                    r.bench, r.name
                ));
            }
        }
        if b.flow != r.flow {
            violations.push(format!(
                "{}/{}: flow '{}' vs baseline '{}'",
                r.bench, r.name, r.flow, b.flow
            ));
        }
        // Wall clock: ratio rows must not drop, time rows must not blow
        // up, counted rows carry no timing at all.
        if is_ratio_row(r) {
            let floor = b.wall_s / tol.ratio_tolerance;
            if r.wall_s < floor {
                violations.push(format!(
                    "{}/{}: speedup {:.2}x below floor {:.2}x (baseline {:.2}x / tolerance {})",
                    r.bench, r.name, r.wall_s, floor, b.wall_s, tol.ratio_tolerance
                ));
            }
        } else if !is_counted_row(r) && !is_table_row(r) {
            let ceiling = b.wall_s * tol.wall_tolerance;
            if r.wall_s > ceiling && b.wall_s > 0.0 {
                violations.push(format!(
                    "{}/{}: wall {:.3}s over ceiling {:.3}s (baseline {:.3}s * tolerance {})",
                    r.bench, r.name, r.wall_s, ceiling, b.wall_s, tol.wall_tolerance
                ));
            }
        }
    }
    for b in baseline {
        if is_table_row(b)
            && !is_ratio_row(b)
            && !replay
                .iter()
                .any(|r| r.bench == b.bench && r.name == b.name)
        {
            violations.push(format!(
                "{}/{}: baseline row was not replayed",
                b.bench, b.name
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, name: &str, size_after: usize, wall_s: f64) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            name: name.to_string(),
            size_before: 100,
            size_after,
            depth_before: 5,
            depth_after: 4,
            mc_before: 50,
            mc_after: 20,
            wall_s,
            threads: 1,
            flow: String::new(),
            phases: PhaseTimes::default(),
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![rec("hotpath", "enum/x", 40, 0.5)];
        assert!(compare(&base, &base.clone(), GateTolerance::default()).is_empty());
    }

    #[test]
    fn deterministic_drift_is_flagged_exactly() {
        let base = vec![rec("hotpath", "enum/x", 40, 0.5)];
        let mut replay = base.clone();
        replay[0].size_after = 41;
        let v = compare(&base, &replay, GateTolerance::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("size_after"));
    }

    #[test]
    fn wall_time_within_tolerance_passes_beyond_fails() {
        let base = vec![rec("hotpath", "enum/x", 40, 0.5)];
        let mut ok = base.clone();
        ok[0].wall_s = 1.9; // < 0.5 * 4
        assert!(compare(&base, &ok, GateTolerance::default()).is_empty());
        let mut slow = base.clone();
        slow[0].wall_s = 2.5; // > 0.5 * 4
        let v = compare(&base, &slow, GateTolerance::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("ceiling"));
    }

    #[test]
    fn speedup_rows_gate_on_the_floor_not_the_ceiling() {
        let base = vec![rec("hotpath", "speedup/x", 40, 2.4)];
        // Faster than baseline is fine; slightly slower is fine.
        for ratio in [5.0, 2.4, 1.3] {
            let mut replay = base.clone();
            replay[0].wall_s = ratio;
            assert!(
                compare(&base, &replay, GateTolerance::default()).is_empty(),
                "ratio {ratio}"
            );
        }
        let mut bad = base.clone();
        bad[0].wall_s = 1.0; // < 2.4 / 2
        let v = compare(&base, &bad, GateTolerance::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("floor"));
    }

    #[test]
    fn table_row_wall_times_are_informational_quality_is_not() {
        // Cold-context replay vs warm full-suite baseline: 10× slower
        // wall is fine for a table row...
        let base = vec![rec("table1", "int2float", 70, 0.007)];
        let mut replay = base.clone();
        replay[0].wall_s = 0.07;
        assert!(compare(&base, &replay, GateTolerance::default()).is_empty());
        // ...but a quality drift on the same row still fails.
        replay[0].mc_after = 21;
        let v = compare(&base, &replay, GateTolerance::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("mc_after"));
    }

    #[test]
    fn missing_baseline_row_is_a_violation() {
        let base = vec![rec("hotpath", "enum/x", 40, 0.5)];
        let replay = vec![rec("hotpath", "enum/new-workload", 40, 0.5)];
        let v = compare(&base, &replay, GateTolerance::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("no baseline row"));
    }

    #[test]
    fn unreplayed_table_rows_are_violations() {
        let base = vec![
            rec("table1", "adder", 40, 0.5),
            rec("table1", "int2float", 70, 0.5),
            rec("table1", "adder/par_speedup", 40, 1.5),
            rec("hotpath", "enum/x", 40, 0.5),
        ];
        // Neither the ratio row nor the hot-path row is required...
        let replay = vec![base[0].clone(), base[1].clone()];
        assert!(compare(&base, &replay, GateTolerance::default()).is_empty());
        // ...but a table row the replay dropped is reported by name.
        let v = compare(&base, &base[..1], GateTolerance::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("table1/int2float"), "{v:?}");
        assert!(v[0].contains("not replayed"), "{v:?}");
    }

    #[test]
    fn phase_times_are_optional_and_never_gated() {
        let dir = std::env::temp_dir().join(format!("mc-gate-phases-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        // A row in the shape of BENCH_14.json and older: no phase times.
        std::fs::write(
            &path,
            r#"[{"bench":"table1","name":"adder","size_before":100,"size_after":40,"depth_before":5,"depth_after":4,"mc_before":50,"mc_after":20,"wall_s":0.5,"threads":1,"flow":""}]"#,
        )
        .unwrap();
        let old = read_bench_json(&path).unwrap();
        assert_eq!(old, vec![rec("table1", "adder", 40, 0.5)]);
        let mut replay = old.clone();
        replay[0].phases = PhaseTimes {
            cut_enum_s: 9.0,
            propose_s: 9.0,
            commit_validate_s: 9.0,
        };
        assert!(compare(&old, &replay, GateTolerance::default()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_round_trip_preserves_records() {
        let dir = std::env::temp_dir().join(format!("mc-gate-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let mut records = vec![
            rec("hotpath", "enum/x", 40, 0.5),
            rec("table1", "adder/par_speedup", 33, 1.75),
        ];
        records[0].phases = PhaseTimes {
            cut_enum_s: 0.25,
            propose_s: 0.125,
            commit_validate_s: 0.0625,
        };
        crate::write_bench_json(&path, &records).unwrap();
        let back = read_bench_json(&path).unwrap();
        assert_eq!(back, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
