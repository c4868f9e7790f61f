//! The job-level API of the optimizer: one network in, one optimized
//! network plus a [`JobResult`] out.
//!
//! Everything that optimizes a network — the `mc-serve` daemon, batch
//! drivers, the bench tables, the examples — speaks this API: a
//! [`JobSpec`] describes a flow as a [`FlowSpec`] (parsed from the wire,
//! alias or full spec) and carries the one knob a remote caller may
//! reasonably pick (the round cap), and [`run_job`] executes it through
//! [`FlowSpec::run`].
//!
//! The rewriting round is deterministic ([`crate::round`]). That makes
//! the optimized network a function of `(circuit, flow.normalized(),
//! max_rounds)` alone, which is exactly the property a semantic result
//! cache needs.
//!
//! # Examples
//!
//! ```
//! use xag_mc::{run_job, JobSpec, OptContext};
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
//! let result = run_job(&mut xag, &mut ctx, &JobSpec::default());
//! assert_eq!(result.ands_after, 1);
//! assert!(result.converged);
//! ```
//!
//! A custom flow from a spec string:
//!
//! ```
//! # use xag_mc::{run_job, FlowSpec, JobSpec, OptContext};
//! # use xag_network::Xag;
//! # let mut xag = Xag::new();
//! # let (a, b) = (xag.input(), xag.input());
//! # let g = xag.and(a, b);
//! # xag.output(g);
//! let spec = JobSpec {
//!     flow: "mc(cut=6);xor;cleanup*".parse().unwrap(),
//!     ..JobSpec::default()
//! };
//! let mut ctx = OptContext::new();
//! let result = run_job(&mut xag, &mut ctx, &spec);
//! assert!(result.rounds > 0);
//! ```

use std::time::Duration;

use xag_network::Xag;

use crate::context::OptContext;
use crate::flow::FlowSpec;

/// What to run on a submitted network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The flow to run.
    pub flow: FlowSpec,
    /// Cap on total pass executions across the whole flow.
    pub max_rounds: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            flow: FlowSpec::default(),
            max_rounds: 100,
        }
    }
}

/// Gate-count, depth, and convergence summary of one executed job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobResult {
    /// AND gates before optimization.
    pub ands_before: usize,
    /// XOR gates before optimization.
    pub xors_before: usize,
    /// Multiplicative depth before optimization.
    pub depth_before: usize,
    /// AND gates after optimization.
    pub ands_after: usize,
    /// XOR gates after optimization.
    pub xors_after: usize,
    /// Multiplicative depth after optimization.
    pub depth_after: usize,
    /// Pass executions used.
    pub rounds: usize,
    /// True iff the flow ran to completion (every until-convergence
    /// group converged) without hitting `max_rounds`.
    pub converged: bool,
    /// Wall-clock time of the flow.
    pub elapsed: Duration,
}

/// Runs `spec` on `xag` in place and reports the summary.
///
/// The result network depends only on
/// `(xag, spec.flow.normalized(), spec.max_rounds)` ([`FlowSpec::run`]).
pub fn run_job(xag: &mut Xag, ctx: &mut OptContext, spec: &JobSpec) -> JobResult {
    let ands_before = xag.num_ands();
    let xors_before = xag.num_xors();
    let depth_before = xag.and_depth();
    let stats = spec.flow.run(xag, ctx, spec.max_rounds);
    JobResult {
        ands_before,
        xors_before,
        depth_before,
        ands_after: xag.num_ands(),
        xors_after: xag.num_xors(),
        depth_after: xag.and_depth(),
        rounds: stats.num_rounds(),
        converged: stats.converged,
        elapsed: stats.total_time(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::equiv_exhaustive;

    fn redundant_network() -> Xag {
        let mut x = Xag::new();
        let (a, b, c) = (x.input(), x.input(), x.input());
        let t1 = x.and(a, b);
        let t2 = x.and(a, c);
        let t3 = x.xor(t1, t2);
        let o = x.or(t3, a);
        x.output(o);
        x
    }

    #[test]
    fn flow_names_round_trip_and_accept_alias() {
        for (name, _) in FlowSpec::aliases() {
            let spec = FlowSpec::named(name).expect("every listed alias resolves");
            assert_eq!(FlowSpec::parse(name), Ok(spec));
        }
        assert_eq!(FlowSpec::named("paper_flow"), FlowSpec::named("paper"));
        assert_eq!(FlowSpec::named("resub"), None);
    }

    #[test]
    fn every_flow_preserves_function_and_reports_counts() {
        for (flow, _) in FlowSpec::aliases() {
            let mut xag = redundant_network();
            let reference = xag.cleanup();
            let mut ctx = OptContext::new();
            let result = run_job(
                &mut xag,
                &mut ctx,
                &JobSpec {
                    flow: FlowSpec::named(flow).expect("listed alias"),
                    ..JobSpec::default()
                },
            );
            assert!(equiv_exhaustive(&reference, &xag.cleanup()), "{flow}");
            assert_eq!(result.ands_after, xag.num_ands());
            assert!(result.rounds > 0);
            assert!(result.ands_after <= result.ands_before);
        }
    }
}
