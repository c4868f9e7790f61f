//! The optimizer's instrumentation boundary.
//!
//! Every pass execution funnels through [`pass_boundary`], which fans one
//! `PassStats` out to the three observability surfaces: the metric
//! registry (aggregate histogram + per-pass labeled counters), the trace
//! ring (one `pass:<name>` span under the job's trace ID), and the job
//! progress board (so `Status` can report where a running job is).
//!
//! This is where the optimizer's *metrics and traces* touch `mc_obs`,
//! and it runs once per pass — never per node or per cut — so the
//! overhead is a few relaxed atomics and one ring push per round,
//! invisible next to a rewriting round's millions of cut evaluations.
//! The phase profiler (`mc_obs::prof`) is the other instrumentation
//! surface: the flow executor and the rewriting round enter phases
//! directly at pass and round granularity.

use crate::stats::PassStats;

/// Records one executed pass: metrics, a trace span, and a progress
/// update. Called by the flow executor after every pass.
pub(crate) fn pass_boundary(stats: &PassStats) {
    let elapsed_us = stats.elapsed.as_micros() as u64;
    let reg = mc_obs::registry();
    reg.histogram("mc_pass_elapsed_us").record(elapsed_us);
    reg.counter(&format!("mc_pass_runs_total{{pass=\"{}\"}}", stats.pass))
        .inc();
    reg.counter(&format!(
        "mc_pass_elapsed_us_total{{pass=\"{}\"}}",
        stats.pass
    ))
    .add(elapsed_us);
    reg.counter("mc_rewrites_applied_total")
        .add(stats.rewrites_applied as u64);
    reg.counter("mc_cuts_considered_total")
        .add(stats.cuts_considered as u64);
    mc_obs::record(
        &format!("pass:{}", stats.pass),
        mc_obs::epoch_us().saturating_sub(elapsed_us),
        elapsed_us,
        format!(
            "rewrites={} cuts={} ands={}->{}",
            stats.rewrites_applied, stats.cuts_considered, stats.ands_before, stats.ands_after
        ),
    );
    mc_obs::update_current(&stats.pass);
}
