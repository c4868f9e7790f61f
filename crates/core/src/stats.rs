//! Statistics of a flow run: one [`PassStats`] per executed pass, the
//! [`FlowStats`] of the whole run, and the per-pass-name
//! [`PassSummary`] breakdown.

use std::time::Duration;

use crate::Objective;

/// Statistics of one pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Name of the pass that produced these statistics.
    pub pass: String,
    /// AND gates before the pass.
    pub ands_before: usize,
    /// XOR gates before the pass.
    pub xors_before: usize,
    /// AND gates after the pass.
    pub ands_after: usize,
    /// XOR gates after the pass.
    pub xors_after: usize,
    /// Number of applied changes: committed rewrites for `mc`/`size`,
    /// removed XOR gates for `xor`, reclaimed node slots for `cleanup`.
    pub rewrites_applied: usize,
    /// Number of (node, cut) candidates evaluated, for rewriting passes.
    pub cuts_considered: usize,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
}

impl PassStats {
    /// True iff the pass strictly improved the given objective.
    pub fn improved(&self, objective: Objective) -> bool {
        match objective {
            Objective::MultiplicativeComplexity => self.ands_after < self.ands_before,
            Objective::Size => {
                self.ands_after + self.xors_after < self.ands_before + self.xors_before
            }
        }
    }
}

impl core::fmt::Display for PassStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:<18} AND {} → {} | XOR {} → {} | {} applied / {} cuts | {:.2}s",
            self.pass,
            self.ands_before,
            self.ands_after,
            self.xors_before,
            self.xors_after,
            self.rewrites_applied,
            self.cuts_considered,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Statistics of a flow run: every executed pass, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStats {
    /// Per-execution statistics, in execution order.
    pub passes: Vec<PassStats>,
    /// True iff the flow ran to completion — every until-convergence
    /// group converged — without hitting the round cap.
    pub converged: bool,
}

impl FlowStats {
    /// Number of pass executions.
    pub fn num_rounds(&self) -> usize {
        self.passes.len()
    }

    /// AND count before the first pass.
    pub fn ands_before(&self) -> usize {
        self.passes.first().map(|r| r.ands_before).unwrap_or(0)
    }

    /// AND count after the last pass.
    pub fn ands_after(&self) -> usize {
        self.passes.last().map(|r| r.ands_after).unwrap_or(0)
    }

    /// Total wall-clock time across passes.
    pub fn total_time(&self) -> Duration {
        self.passes.iter().map(|r| r.elapsed).sum()
    }

    /// Overall AND improvement, in percent (negative if a flow traded
    /// ANDs up, which Size-objective flows may).
    pub fn improvement_pct(&self) -> f64 {
        let before = self.ands_before();
        if before == 0 {
            0.0
        } else {
            100.0 * (before as f64 - self.ands_after() as f64) / before as f64
        }
    }

    /// Accumulates the statistics per pass name, in first-execution order
    /// — the per-pass breakdown of a flow.
    pub fn per_pass(&self) -> Vec<PassSummary> {
        let mut order: Vec<PassSummary> = Vec::new();
        for s in &self.passes {
            let entry = match order.iter_mut().find(|e| e.name == s.pass) {
                Some(entry) => entry,
                None => {
                    order.push(PassSummary {
                        name: s.pass.clone(),
                        runs: 0,
                        ands_saved: 0,
                        xors_saved: 0,
                        rewrites_applied: 0,
                        cuts_considered: 0,
                        elapsed: Duration::ZERO,
                    });
                    order.last_mut().expect("just pushed")
                }
            };
            entry.runs += 1;
            entry.ands_saved += s.ands_before as i64 - s.ands_after as i64;
            entry.xors_saved += s.xors_before as i64 - s.xors_after as i64;
            entry.rewrites_applied += s.rewrites_applied;
            entry.cuts_considered += s.cuts_considered;
            entry.elapsed += s.elapsed;
        }
        order
    }
}

impl core::fmt::Display for FlowStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} rounds, AND {} → {} ({:.1}% improvement), {:.2}s{}",
            self.num_rounds(),
            self.ands_before(),
            self.ands_after(),
            self.improvement_pct(),
            self.total_time().as_secs_f64(),
            if self.converged { "" } else { " (round limit)" }
        )
    }
}

/// Accumulated statistics of all executions of one pass in a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSummary {
    /// The pass name.
    pub name: String,
    /// How many times the pass executed.
    pub runs: usize,
    /// Net AND gates removed across all executions (negative if the pass
    /// added ANDs).
    pub ands_saved: i64,
    /// Net XOR gates removed across all executions.
    pub xors_saved: i64,
    /// Total applied changes.
    pub rewrites_applied: usize,
    /// Total cut candidates evaluated.
    pub cuts_considered: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(before: usize, after: usize) -> PassStats {
        PassStats {
            pass: "mc-rewrite<6>".to_string(),
            ands_before: before,
            xors_before: 0,
            ands_after: after,
            xors_after: 0,
            rewrites_applied: 1,
            cuts_considered: 10,
            elapsed: Duration::from_millis(5),
        }
    }

    fn flow_stats(passes: Vec<PassStats>, converged: bool) -> FlowStats {
        FlowStats { passes, converged }
    }

    #[test]
    fn improvement_percentages() {
        let r = flow_stats(vec![round(100, 66)], true);
        assert!((r.improvement_pct() - 34.0).abs() < 1e-9);
        let s = flow_stats(vec![round(100, 80), round(80, 50)], true);
        assert_eq!(s.ands_before(), 100);
        assert_eq!(s.ands_after(), 50);
        assert!((s.improvement_pct() - 50.0).abs() < 1e-9);
        assert_eq!(s.num_rounds(), 2);
    }

    #[test]
    fn negative_improvement_does_not_underflow() {
        // Size-objective rounds may trade ANDs up; formatting the stats
        // must yield a negative percentage, not an underflow panic.
        let s = flow_stats(vec![round(5, 8)], true);
        assert!((s.improvement_pct() + 60.0).abs() < 1e-9);
        assert!(s.improvement_pct() < 0.0);
        assert!(format!("{s}").contains("-60.0%"));
    }

    #[test]
    fn empty_stats_are_all_zero() {
        // A run with no rounds (e.g. a zero-round budget) must aggregate
        // to zeros, not panic on first()/last().
        let s = flow_stats(Vec::new(), true);
        assert_eq!(s.num_rounds(), 0);
        assert_eq!(s.ands_before(), 0);
        assert_eq!(s.ands_after(), 0);
        assert_eq!(s.total_time(), Duration::ZERO);
        assert!((s.improvement_pct()).abs() < 1e-9);
        // And an AND-free round (pure linear layer) divides by zero ANDs.
        assert!((flow_stats(vec![round(0, 0)], true).improvement_pct()).abs() < 1e-9);
    }

    #[test]
    fn single_round_aggregation_uses_that_round_twice() {
        let s = flow_stats(vec![round(7, 7)], true);
        // first() and last() are the same round: before/after both read it.
        assert_eq!(s.ands_before(), 7);
        assert_eq!(s.ands_after(), 7);
        assert!((s.improvement_pct()).abs() < 1e-9);
        assert_eq!(s.total_time(), Duration::from_millis(5));
    }

    #[test]
    fn display_is_informative() {
        let s = flow_stats(vec![round(10, 5)], false);
        let text = format!("{s}");
        assert!(text.contains("10 → 5"));
        assert!(text.contains("round limit"));
    }
}
