//! Cut rewriting to minimize multiplicative complexity — the DAC'19
//! contribution — run as flows of passes over one rewriting engine.
//!
//! The building blocks:
//!
//! * [`OptContext`] — the shared state every pass reads and grows: the
//!   affine classifier ([`xag_affine`]), the synthesis engine
//!   ([`xag_synth`]), and the on-demand representative database (the
//!   paper's `XAG_DB`). One context amortizes across passes *and*
//!   networks.
//! * [`shard`] — the rewriting round, the crate's only engine: every
//!   gate's best replacement is proposed against a frozen snapshot of the
//!   network (inline with one thread, on a worker pool with more), then
//!   the proposals are committed in topological order. The result is
//!   bit-identical for every thread count.
//! * [`FlowSpec`] — the one flow representation: a parsed, normalized
//!   spec such as `{mc(cut=4);mc(cut=6)}*` (alias `paper`), and its one
//!   executor, [`FlowSpec::run`], which reports every executed pass
//!   ([`FlowStats`], [`PassStats`]).
//! * [`run_job`] — one call from a network and a [`JobSpec`] to the
//!   optimized network and a [`JobResult`]. The service tiers, the bench
//!   tables and the examples all optimize through it.
//!
//! One `mc` round implements the paper's Algorithm 1 on top of the
//! supporting crates:
//!
//! 1. enumerate 6-feasible cuts of every gate ([`xag_cuts`]);
//! 2. compute each cut's function as a truth table;
//! 3. classify it into its affine-equivalence class ([`xag_affine`]),
//!    obtaining a representative and the operation sequence;
//! 4. fetch the representative's low-AND circuit from the database
//!    (synthesized on demand and cached — [`xag_synth`] replaces the
//!    paper's precomputed NIST `XAG_DB`);
//! 5. replay the affine operations on the circuit (free: XORs, inverters
//!    and wiring only) to obtain a drop-in replacement for the cut;
//! 6. accept the replacement when it strictly decreases the number of AND
//!    gates, taking structural sharing into account (MFFC dereferencing for
//!    the removed logic, hash-aware dry-run for the added logic);
//! 7. iterate over all nodes, and — under an until-convergence flow such
//!    as `paper` — until convergence.
//!
//! Unlike the paper, which rewrites in place node by node, a round
//! evaluates every node against the network as it was when the round
//! began, and re-validates each proposal at commit time; a rewrite that
//! only pays off after another one has been applied waits for the next
//! round (see [`shard`]).
//!
//! # Examples
//!
//! Optimize the textbook full adder to a single AND gate (paper Fig. 1/2):
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
//! assert_eq!(xag.num_ands(), 3);
//!
//! let result = run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
//! assert!(result.converged);
//! assert_eq!(xag.num_ands(), 1);
//! ```
//!
//! The same flow run directly, keeping the per-pass breakdown:
//!
//! ```
//! # use xag_mc::{FlowSpec, OptContext};
//! # use xag_network::Xag;
//! # let mut xag = Xag::new();
//! # let (a, b, cin) = (xag.input(), xag.input(), xag.input());
//! # let ab = xag.and(a, b);
//! # let ac = xag.and(a, cin);
//! # let bc = xag.and(b, cin);
//! # let t = xag.xor(ab, ac);
//! # let cout = xag.xor(t, bc);
//! # let axb = xag.xor(a, b);
//! # let sum = xag.xor(axb, cin);
//! # xag.output(sum);
//! # xag.output(cout);
//! let paper = FlowSpec::named("paper").expect("canonical alias");
//! let mut ctx = OptContext::new();
//! let stats = paper.run(&mut xag, &mut ctx, 1, 100);
//! assert_eq!(xag.num_ands(), 1);
//! for pass in stats.per_pass() {
//!     println!("{}: {} runs, {} ANDs saved", pass.name, pass.runs, pass.ands_saved);
//! }
//! ```

pub mod canon;
mod context;
mod cost;
pub mod flow;
mod job;
mod observe;
mod pipeline;
pub mod shard;
mod stats;
mod xor_reduce;

pub use canon::{canonical_form, fingerprint, job_key};
pub use context::OptContext;
pub use cost::{protocol_costs, ProtocolCosts};
pub use flow::{FlowError, FlowItem, FlowSpec, FlowUnit, Repeat};
pub use job::{run_job, JobResult, JobSpec};
pub use shard::{partition_windows, Shard};
pub use stats::{FlowStats, PassStats, PassSummary};
pub use xor_reduce::reduce_xors;

/// What a rewriting round minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize AND gates (multiplicative complexity) — the paper's goal.
    MultiplicativeComplexity,
    /// Minimize total gate count with unit costs, standing in for generic
    /// size optimization (the paper's ABC baseline).
    Size,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::{equiv_exhaustive, Signal, Xag};
    use xag_tt::Tt;

    fn textbook_full_adder() -> Xag {
        let mut xag = Xag::new();
        let (a, b, cin) = (xag.input(), xag.input(), xag.input());
        let ab = xag.and(a, b);
        let ac = xag.and(a, cin);
        let bc = xag.and(b, cin);
        let t = xag.xor(ab, ac);
        let cout = xag.xor(t, bc);
        let axb = xag.xor(a, b);
        let sum = xag.xor(axb, cin);
        xag.output(sum);
        xag.output(cout);
        xag
    }

    fn job(flow: &str) -> JobSpec {
        JobSpec {
            flow: FlowSpec::parse(flow).expect("valid spec"),
            ..JobSpec::default()
        }
    }

    /// One `mc` round with the paper's 6-cuts (the "One round" columns).
    fn one_round(xag: &mut Xag, ctx: &mut OptContext) -> PassStats {
        let stats = FlowSpec::parse("mc")
            .expect("valid spec")
            .run(xag, ctx, 1, 1);
        stats.passes.into_iter().next().expect("one pass ran")
    }

    #[test]
    fn full_adder_reaches_mc_one() {
        let mut xag = textbook_full_adder();
        let reference = xag.cleanup();
        let result = run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
        assert!(result.converged);
        assert_eq!(xag.num_ands(), 1, "paper: full adder has MC 1");
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    }

    #[test]
    fn candidate_matches_cut_function() {
        let mut ctx = OptContext::new();
        for bits in [0xe8u64, 0x96, 0x17, 0x80] {
            let tt = Tt::from_bits(bits, 3);
            let frag = ctx.candidate_for_cut(tt);
            assert_eq!(frag.eval_tt(), tt);
        }
        // 6-input functions go through the heuristic classifier.
        let tt = Tt::from_bits(0xdead_beef_cafe_1234, 6);
        let frag = ctx.candidate_for_cut(tt);
        assert_eq!(frag.eval_tt(), tt);
    }

    #[test]
    fn database_is_shared_across_calls() {
        let mut ctx = OptContext::new();
        let maj = Tt::from_bits(0xe8, 3);
        let _ = ctx.candidate_for_cut(maj);
        let after_first = ctx.db_size();
        // Same class, different (full-support) member: no new entry.
        let member = maj.flip_var(0).translate(1, 2);
        let _ = ctx.candidate_for_cut(member);
        assert_eq!(ctx.db_size(), after_first);
    }

    #[test]
    fn size_baseline_reduces_total_gates() {
        // A deliberately redundant network.
        let mut xag = Xag::new();
        let (a, b, c) = (xag.input(), xag.input(), xag.input());
        let t1 = xag.and(a, b);
        let t2 = xag.and(a, c);
        let t3 = xag.xor(t1, t2); // = a & (b ^ c) — one AND suffices
        let o = xag.or(t3, a);
        xag.output(o);
        let reference = xag.cleanup();
        let before = xag.num_gates();
        let mut ctx = OptContext::new();
        run_job(&mut xag, &mut ctx, &job("{size(cut=4);size(cut=6)}*"));
        assert!(xag.num_gates() <= before);
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    }

    #[test]
    fn rewriting_never_breaks_equivalence() {
        // A random-ish mixed network.
        let mut xag = Xag::new();
        let ins: Vec<Signal> = (0..6).map(|_| xag.input()).collect();
        let mut pool = ins.clone();
        let mut state = 0xabcdef_u64;
        for k in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = pool[(state >> 13) as usize % pool.len()] ^ (state & 1 == 1);
            let b = pool[(state >> 29) as usize % pool.len()] ^ (state & 2 == 2);
            let s = if k % 3 == 0 {
                xag.xor(a, b)
            } else {
                xag.and(a, b)
            };
            pool.push(s);
        }
        for s in pool.iter().rev().take(4) {
            xag.output(*s);
        }
        let reference = xag.cleanup();
        let before = xag.num_ands();
        let result = run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
        assert!(xag.num_ands() <= before);
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
        assert!(result.rounds > 0);
    }

    #[test]
    fn converged_run_once_does_not_grow_the_arena() {
        // Regression test for the rejected-candidate leak: on a converged
        // network every instantiated candidate is rejected (or none is
        // instantiated at all), so repeated rounds must not allocate.
        let mut xag = textbook_full_adder();
        let mut ctx = OptContext::new();
        run_job(&mut xag, &mut ctx, &JobSpec::default());
        let capacity = xag.capacity();
        for _ in 0..3 {
            let stats = one_round(&mut xag, &mut ctx);
            assert_eq!(stats.rewrites_applied, 0);
        }
        assert_eq!(
            xag.capacity(),
            capacity,
            "rejected candidates leaked into the arena"
        );
    }
}
