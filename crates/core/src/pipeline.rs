//! The flow executor: runs a [`FlowSpec`](crate::FlowSpec) as a
//! pipeline of passes, with the semantics documented in [`crate::flow`].
//! [`FlowSpec::run`](crate::FlowSpec::run) is its only entry point, and
//! the only way any flow executes.
//!
//! The executor walks the spec's items recursively and matches on the
//! atom: `mc`/`size` run one rewriting round ([`crate::shard`]), `xor`
//! runs [`reduce_xors`], `cleanup` compacts the arena. A `par{}` block
//! only changes the thread count handed down. A `*` item flattens its
//! atoms, bounded repetitions expanded, and runs them under the
//! convergence schedule. All items share one round budget.
//!
//! Every executed atom is one pass: it runs under the profiler's
//! `pipeline` phase, is reported through [`crate::observe`], and yields
//! one [`PassStats`] in the run's [`FlowStats`].
//!
//! # Examples
//!
//! The paper's flow, driving the textbook full adder to its known
//! multiplicative complexity of 1:
//!
//! ```
//! use xag_mc::{FlowSpec, OptContext};
//! use xag_network::Xag;
//!
//! let mut xag = Xag::new();
//! let (a, b, cin) = (xag.input(), xag.input(), xag.input());
//! let ab = xag.and(a, b);
//! let ac = xag.and(a, cin);
//! let bc = xag.and(b, cin);
//! let t = xag.xor(ab, ac);
//! let cout = xag.xor(t, bc);
//! let axb = xag.xor(a, b);
//! let sum = xag.xor(axb, cin);
//! xag.output(sum);
//! xag.output(cout);
//!
//! let mut ctx = OptContext::new();
//! let stats = FlowSpec::default().run(&mut xag, &mut ctx, 1, 100);
//! assert!(stats.converged);
//! assert_eq!(xag.num_ands(), 1);
//! ```
//!
//! A custom sequence, each pass run once:
//!
//! ```
//! use xag_mc::{FlowSpec, OptContext};
//! # use xag_network::Xag;
//! # let mut xag = Xag::new();
//! # let a = xag.input();
//! # let b = xag.input();
//! # let g = xag.and(a, b);
//! # xag.output(g);
//! let flow = FlowSpec::parse("mc;xor;cleanup").unwrap();
//! let stats = flow.run(&mut xag, &mut OptContext::new(), 1, 100);
//! let names: Vec<&str> = stats.passes.iter().map(|p| p.pass.as_str()).collect();
//! assert_eq!(names, ["mc-rewrite<6>", "xor-reduce", "cleanup"]);
//! ```

use std::time::Instant;

use xag_cuts::CutParams;
use xag_network::Xag;

use crate::context::OptContext;
use crate::flow::{FlowItem, FlowUnit, Repeat};
use crate::shard;
use crate::stats::{FlowStats, PassStats};
use crate::xor_reduce::reduce_xors;
use crate::Objective;

/// Runs `items` on `xag` with `threads` workers outside any `par{}`
/// block and at most `max_rounds` pass executions in total.
pub(crate) fn run(
    items: &[FlowItem],
    xag: &mut Xag,
    ctx: &mut OptContext,
    threads: usize,
    max_rounds: usize,
) -> FlowStats {
    let mut run = Executor {
        xag,
        ctx,
        budget: max_rounds.max(1),
        passes: Vec::new(),
        converged: true,
    };
    run.items(items, threads.max(1));
    FlowStats {
        passes: run.passes,
        converged: run.converged,
    }
}

/// The flow executor: walks the spec's items, runs every atom, and
/// charges each pass against the run's shared round budget.
struct Executor<'a> {
    xag: &'a mut Xag,
    ctx: &'a mut OptContext,
    budget: usize,
    passes: Vec<PassStats>,
    converged: bool,
}

impl Executor<'_> {
    fn items(&mut self, items: &[FlowItem], threads: usize) {
        for item in items {
            match item.repeat {
                Repeat::Once => self.unit(&item.unit, threads),
                Repeat::Times(k) => {
                    for _ in 0..k {
                        self.unit(&item.unit, threads);
                    }
                }
                Repeat::Converge => self.converge(item, threads),
            }
        }
    }

    fn unit(&mut self, unit: &FlowUnit, threads: usize) {
        match unit {
            FlowUnit::Group(body) => self.items(body, threads),
            FlowUnit::Par { threads, body } => self.items(body, *threads),
            atom if self.passes.len() < self.budget => {
                self.atom(atom, threads);
            }
            _ => self.converged = false,
        }
    }

    /// Runs an until-convergence item: its atoms, flattened in order,
    /// run while the round budget lasts. The current atom runs again
    /// while it improves the group's metric (total gates if the group
    /// holds a `size` atom, ANDs otherwise); once it is stale the
    /// schedule advances cyclically, and the group has converged once
    /// every atom is stale in sequence.
    fn converge(&mut self, item: &FlowItem, threads: usize) {
        let mut atoms = Vec::new();
        flatten(core::slice::from_ref(item), threads, &mut atoms);
        let has_size = atoms
            .iter()
            .any(|(a, _)| matches!(a, FlowUnit::Size { .. }));
        let metric = if has_size {
            Objective::Size
        } else {
            Objective::MultiplicativeComplexity
        };
        let (mut phase, mut stale) = (0, 0);
        while self.passes.len() < self.budget {
            let (atom, threads) = atoms[phase % atoms.len()];
            if self.atom(atom, threads).improved(metric) {
                stale = 0;
            } else {
                stale += 1;
                phase += 1;
                if stale == atoms.len() {
                    return;
                }
            }
        }
        self.converged = false;
    }

    /// Runs one atom as a pass and records it.
    fn atom(&mut self, atom: &FlowUnit, threads: usize) -> &PassStats {
        let stats = {
            let _root = mc_obs::prof::phase("pipeline");
            run_atom(atom, self.xag, self.ctx, threads)
        };
        crate::observe::pass_boundary(&stats);
        self.passes.push(stats);
        self.passes.last().expect("just pushed")
    }
}

/// Flattens `items` into `(atom, threads)` pairs in execution order,
/// expanding bounded repetitions. Each atom carries the thread count of
/// its innermost enclosing `par{}` block, or `threads` outside any.
fn flatten<'s>(items: &'s [FlowItem], threads: usize, out: &mut Vec<(&'s FlowUnit, usize)>) {
    for item in items {
        let times = match item.repeat {
            Repeat::Once | Repeat::Converge => 1,
            Repeat::Times(k) => k,
        };
        for _ in 0..times {
            match &item.unit {
                FlowUnit::Group(body) => flatten(body, threads, out),
                FlowUnit::Par { threads, body } => flatten(body, *threads, out),
                atom => out.push((atom, threads)),
            }
        }
    }
}

/// Executes one pass atom: `mc`/`size` as a rewriting round
/// ([`shard`]), `xor` and `cleanup` as whole-network rebuilds.
fn run_atom(atom: &FlowUnit, xag: &mut Xag, ctx: &mut OptContext, threads: usize) -> PassStats {
    let (objective, cut, name) = match *atom {
        FlowUnit::Mc { cut } => (Objective::MultiplicativeComplexity, cut, "mc-rewrite"),
        FlowUnit::Size { cut } => (Objective::Size, cut, "size-rewrite"),
        _ => return rebuild(atom, xag),
    };
    let cut_params = CutParams { cut_size: cut };
    let name = format!("{name}<{cut}>");
    shard::round(xag, ctx, &cut_params, objective, threads, &name)
}

/// `xor` (Paar reduction; `rewrites_applied` counts removed XOR gates)
/// or `cleanup` (arena compaction; it counts reclaimed node slots).
/// Neither touches the AND gates.
fn rebuild(atom: &FlowUnit, xag: &mut Xag) -> PassStats {
    let xor = matches!(atom, FlowUnit::Xor);
    let _phase = mc_obs::prof::phase(if xor { "xor_reduce" } else { "cleanup" });
    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let start = Instant::now();
    let (ands_before, xors_before) = (xag.num_ands(), xag.num_xors());
    let capacity_before = xag.capacity();
    *xag = if xor { reduce_xors(xag) } else { xag.cleanup() };
    let xors_after = xag.num_xors();
    PassStats {
        pass: if xor { "xor-reduce" } else { "cleanup" }.to_string(),
        ands_before,
        xors_before,
        ands_after: xag.num_ands(),
        xors_after,
        rewrites_applied: if xor {
            xors_before.saturating_sub(xors_after)
        } else {
            capacity_before.saturating_sub(xag.capacity())
        },
        cuts_considered: 0,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn pass_stats(name: &str, before: usize, after: usize) -> PassStats {
        PassStats {
            pass: name.to_string(),
            ands_before: before,
            xors_before: 2,
            ands_after: after,
            xors_after: 2,
            rewrites_applied: 1,
            cuts_considered: 8,
            elapsed: Duration::from_millis(3),
        }
    }

    fn flow_stats(passes: Vec<PassStats>, converged: bool) -> FlowStats {
        FlowStats { passes, converged }
    }

    #[test]
    fn empty_pipeline_stats_aggregate_to_zero() {
        let s = flow_stats(Vec::new(), false);
        assert_eq!(s.num_rounds(), 0);
        assert_eq!(s.ands_before(), 0);
        assert_eq!(s.ands_after(), 0);
        assert_eq!(s.total_time(), Duration::ZERO);
        assert!((s.improvement_pct()).abs() < 1e-9);
        assert!(s.per_pass().is_empty());
        assert!(!s.converged);
    }

    #[test]
    fn per_pass_groups_by_name_in_first_execution_order() {
        let s = flow_stats(
            vec![
                pass_stats("mc", 10, 8),
                pass_stats("xor", 8, 8),
                pass_stats("mc", 8, 7),
            ],
            true,
        );
        let summary = s.per_pass();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "mc");
        assert_eq!(summary[0].runs, 2);
        assert_eq!(summary[0].ands_saved, 3);
        assert_eq!(summary[0].rewrites_applied, 2);
        assert_eq!(summary[0].cuts_considered, 16);
        assert_eq!(summary[1].name, "xor");
        assert_eq!(summary[1].runs, 1);
        assert_eq!(summary[1].ands_saved, 0);
    }

    #[test]
    fn per_pass_tracks_negative_savings() {
        // A Size-objective pass may add ANDs; the summary must go
        // negative, not saturate.
        let s = flow_stats(vec![pass_stats("size", 5, 9)], true);
        assert_eq!(s.per_pass()[0].ands_saved, -4);
        assert!(s.improvement_pct() < 0.0);
    }
}
