//! Shared machinery of the hot-path benchmarks: the workload set and a
//! counting global allocator. The pre-overhaul baseline they measure
//! against is [`xag_cuts::legacy`].
//!
//! Both `hotpath_bench` (the full microbenchmark) and `bench_gate` (the
//! CI regression gate) drive this module, so the gate replays exactly
//! the measurements the committed `BENCH_*.json` trajectory was recorded
//! with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use xag_affine::AffineClassifier;
use xag_cuts::{enumerate_cuts_for, legacy, CutParams};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::Xag;
use xag_tt::Tt;

use crate::harness::{black_box, BenchGroup};
use crate::BenchRecord;

/// A [`System`] wrapper that counts allocations while armed. Counting is
/// off by default — one relaxed load per allocation — so setup and
/// reporting noise stay out of the window; [`count_allocs`] arms it
/// around exactly the call under test.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed, returning its heap
/// allocation count alongside its result. Not reentrant; the bench
/// binaries are single-threaded while measuring.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), out)
}

/// One named benchmark network.
pub struct Workload {
    /// Stable row name (part of the `BENCH_*.json` record names).
    pub name: &'static str,
    /// The network under measurement.
    pub xag: Xag,
}

/// The hot-path workload set: two seeded fuzz networks (wide and deep), a
/// reduced-lane Keccak-f permutation, and AES-128. Deterministic — the
/// regression gate relies on the cut counts being reproducible.
pub fn workloads() -> Vec<Workload> {
    let fuzz_wide = FuzzConfig {
        inputs: 24,
        gates: 1500,
        outputs: 8,
        ..FuzzConfig::default()
    };
    let fuzz_deep = FuzzConfig {
        inputs: 16,
        gates: 1500,
        outputs: 8,
        depth_bias: 0.85,
        ..FuzzConfig::default()
    };
    vec![
        Workload {
            name: "fuzz_wide",
            xag: random_xag(&fuzz_wide, 7),
        },
        Workload {
            name: "fuzz_deep",
            xag: random_xag(&fuzz_deep, 7),
        },
        Workload {
            name: "keccak_f200",
            xag: xag_circuits::keccak::keccak_f(8),
        },
        Workload {
            name: "aes128",
            xag: xag_circuits::aes::aes128(false),
        },
    ]
}

/// Runs the full hot-path measurement over [`workloads`], printing the
/// benchmark report and returning the `BENCH_*.json` records. This is
/// the single source of the `hotpath` trajectory rows: the
/// `hotpath_bench` binary records them, and `bench_gate` replays them
/// against the committed file.
///
/// * `samples` — timed iterations per measurement (`MC_BENCH_SAMPLES`
///   still overrides).
/// * `alloc_check` — when set, *assert* the allocation guarantee: the
///   sweep's heap allocation count must stay O(log) in the number of
///   cuts (vector-growth doublings only, zero allocations per cut).
///
/// # Panics
///
/// Panics when `alloc_check` is set and the allocation budget is
/// exceeded.
pub fn run_hotpath(samples: usize, alloc_check: bool) -> Vec<BenchRecord> {
    let params = CutParams::default();
    let mut records: Vec<BenchRecord> = Vec::new();
    let record = |records: &mut Vec<BenchRecord>,
                  name: String,
                  size_before: usize,
                  size_after: usize,
                  wall: f64| {
        records.push(BenchRecord {
            size_before,
            size_after,
            wall_s: wall,
            ..BenchRecord::new("hotpath", name)
        });
    };

    for w in workloads() {
        let xag = &w.xag;
        let order = xag.live_gates();
        let gates = order.len();
        let mut group = BenchGroup::new(w.name);
        group.sample_size(samples);

        // Current hot path (one fused sweep computes every cut and its
        // function) against the legacy baseline (allocating enumeration,
        // then one recursive cone traversal per non-trivial cut), timed
        // interleaved so that the ratio row sees both under the same host
        // conditions.
        let sets = enumerate_cuts_for(xag, &order, &params);
        let total_cuts = sets.total();
        let ([t_legacy, t_new], speedup) =
            group.bench_ratio_timed(["enum_legacy", "enum"], "speedup (legacy/new)", |side| {
                if side == 1 {
                    return black_box(enumerate_cuts_for(xag, &order, &params).total());
                }
                let cuts = legacy::enumerate(xag, &order, &params);
                let mut functions = 0usize;
                for &n in &order {
                    for cut in &cuts[&n] {
                        if cut.leaves.len() == 1 && cut.leaves[0] == n {
                            continue;
                        }
                        if legacy::cone_tt(xag, n, &cut.leaves).is_some() {
                            functions += 1;
                        }
                    }
                }
                black_box(functions)
            });
        for (row, wall) in [
            ("enum", t_new.as_secs_f64()),
            ("enum_legacy", t_legacy.as_secs_f64()),
            ("speedup", speedup),
        ] {
            record(
                &mut records,
                format!("{row}/{}", w.name),
                gates,
                total_cuts,
                wall,
            );
        }

        // Allocation profile of the sweep: the arena is reserved once and
        // only the per-node scratch grows, so nothing allocates per cut.
        let (allocs, _) = count_allocs(|| enumerate_cuts_for(xag, &order, &params).total());
        println!(
            "  {:<32} {} heap allocations for {} cuts",
            format!("{}/allocs", w.name),
            allocs,
            total_cuts
        );
        record(
            &mut records,
            format!("allocs/{}", w.name),
            total_cuts,
            allocs as usize,
            0.0,
        );
        let budget = 64 + 4 * (usize::BITS - total_cuts.leading_zeros()) as u64;
        if alloc_check {
            assert!(
                allocs <= budget,
                "{}: enumerate_cuts_for made {allocs} heap allocations for \
                 {total_cuts} cuts (budget {budget}) — the per-cut \
                 allocation-free guarantee regressed",
                w.name
            );
        }

        // Growth in place, as a round after a commit-free cut-4 round runs
        // it: cut-4 sets grown to cut 6 against a fresh cut-6 enumeration,
        // interleaved. Each growth starts from cut-4 sets enumerated
        // untimed right before it.
        let four = CutParams { cut_size: 4 };
        let cut_4_sets = || enumerate_cuts_for(xag, &order, &four);
        let ([_, t_grow], grow_speedup) = group.bench_ratio_prepared(
            ["enum_fresh", "grow"],
            "grow speedup (fresh/grown)",
            |side| (side == 1).then(cut_4_sets),
            |_, sets| match sets {
                Some(mut sets) => {
                    sets.grow(xag, &order, &params);
                    black_box(sets.total())
                }
                None => black_box(enumerate_cuts_for(xag, &order, &params).total()),
            },
        );
        let mut grown = cut_4_sets();
        let (grow_allocs, ()) = count_allocs(|| grown.grow(xag, &order, &params));
        assert_eq!(
            grown.total(),
            total_cuts,
            "{}: growing cut-4 sets gave another cut total than enumerating",
            w.name
        );
        println!(
            "  {:<32} {} heap allocations for {} cuts",
            format!("{}/grow_allocs", w.name),
            grow_allocs,
            total_cuts
        );
        if alloc_check {
            assert!(
                grow_allocs <= budget,
                "{}: CutSets::grow made {grow_allocs} heap allocations for \
                 {total_cuts} cuts (budget {budget})",
                w.name
            );
        }
        for (row, wall) in [
            ("grow", t_grow.as_secs_f64()),
            ("grow_speedup", grow_speedup),
        ] {
            record(
                &mut records,
                format!("{row}/{}", w.name),
                gates,
                total_cuts,
                wall,
            );
        }

        // Classification: cold (beam/exact search dominates) and warm
        // (pure cache-hit path — truth-table hashing) over the ≤4-input
        // cut functions.
        let mut small_fns: Vec<Tt> = Vec::new();
        for (n, cuts) in sets.iter() {
            let tts = sets.functions_of(n);
            for (cut, &tt) in cuts.iter().zip(tts) {
                if (2..=4).contains(&cut.size()) {
                    small_fns.push(tt);
                }
            }
        }
        let t_classify = group.bench_function_timed("classify_cold", || {
            let mut cls = AffineClassifier::new();
            for &tt in &small_fns {
                black_box(cls.classify(tt).representative);
            }
        });
        record(
            &mut records,
            format!("classify_cold/{}", w.name),
            gates,
            small_fns.len(),
            t_classify.as_secs_f64(),
        );
        let mut warm = AffineClassifier::new();
        for &tt in &small_fns {
            let _ = warm.classify(tt);
        }
        let t_warm = group.bench_function_timed("classify_warm", || {
            for &tt in &small_fns {
                black_box(warm.classify(tt).representative);
            }
        });
        record(
            &mut records,
            format!("classify_warm/{}", w.name),
            gates,
            small_fns.len(),
            t_warm.as_secs_f64(),
        );

        // Cold classification of the support-reduced five- and six-variable
        // cut functions: the beam search, which the rows above never reach.
        let wide_fns: Vec<Tt> = sets
            .iter()
            .flat_map(|(n, _)| sets.functions_of(n))
            .map(|tt| tt.shrink_to_support().0)
            .filter(|tt| tt.vars() >= 5)
            .collect();
        let t_wide = group.bench_function_timed("classify_wide", || {
            let mut cls = AffineClassifier::new();
            for &tt in &wide_fns {
                black_box(cls.classify(tt).representative);
            }
        });
        record(
            &mut records,
            format!("classify_wide/{}", w.name),
            gates,
            wide_fns.len(),
            t_wide.as_secs_f64(),
        );
        group.finish();
    }

    // Profiler overhead: one `mc` round over fuzz_wide with the phase
    // profiler on vs off. Phases fire at pass, round, and
    // node granularity — never per cut — so the two runs must be within
    // noise of each other; the trajectory keeps the off/on ratio (~1.0)
    // and the gate holds it to the same floor as the other ratio rows. A
    // profiler change that starts costing real time at pass granularity
    // collapses the ratio and fails the gate.
    {
        use xag_mc::{FlowSpec, OptContext};
        let w = workloads()
            .into_iter()
            .find(|w| w.name == "fuzz_wide")
            .expect("fuzz_wide workload");
        let gates = w.xag.live_gates().len();
        let mut group = BenchGroup::new("prof_overhead");
        group.sample_size(samples);
        let round = FlowSpec::parse("mc(cut=6)").expect("valid spec");
        let mut ctx = OptContext::new();
        // Warm the classifier cache so neither measurement pays the
        // cold-start beam search.
        let _ = round.run(&mut w.xag.clone(), &mut ctx, 1);
        let (_, ratio) = group.bench_ratio_timed(
            ["round_prof_off", "round_prof_on"],
            "overhead (off/on)",
            |side| {
                mc_obs::prof::set_enabled(side == 1);
                let mut xag = w.xag.clone();
                black_box(round.run(&mut xag, &mut ctx, 1).ands_after())
            },
        );
        mc_obs::prof::set_enabled(true);
        mc_obs::prof::reset();
        record(
            &mut records,
            "prof_overhead/fuzz_wide".to_string(),
            gates,
            0,
            ratio,
        );
        group.finish();
    }

    // Geometric mean of the per-workload speedups — the headline number
    // of the perf trajectory.
    let speedups: Vec<f64> = records
        .iter()
        .filter(|r| r.name.starts_with("speedup/"))
        .map(|r| r.wall_s)
        .collect();
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("geomean speedup (legacy/new): {geomean:.2}x");
    record(&mut records, "speedup/geomean".to_string(), 0, 0, geomean);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_counter_counts_and_disarms() {
        let (allocs, v) = count_allocs(|| vec![1u64, 2, 3]);
        assert!(allocs >= 1, "a Vec allocation must be counted");
        assert_eq!(v.len(), 3);
        let before = ALLOCS.load(Ordering::Relaxed);
        // A real heap allocation: the counter must not see it.
        let _noise = Box::new([0u8; 64]);
        assert_eq!(
            ALLOCS.load(Ordering::Relaxed),
            before,
            "counter must be disarmed outside count_allocs"
        );
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = workloads();
        let b = workloads();
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.xag.num_gates(), wb.xag.num_gates());
        }
    }
}
