//! Host-speed calibration.
//!
//! On a shared host the same work drifts by far more than any bound worth
//! gating on. On a 2-vCPU VM, one `crypto` pass took from 7.5 s to 17 s
//! within an hour, with identical inputs and no CPU steal, and a
//! `serve_mix` stream from 1.7 s to 5 s: at times the two vCPUs behave
//! like one core. A fixed reference kernel, run next to the measured work
//! on as many threads as the workload keeps busy, tracks that drift.
//! End-to-end times are reported scaled to a reference host speed, at
//! which the kernel takes `REFERENCE_S`; the raw wall times are printed
//! beside them.
//!
//! The kernel is the benchmark's own code, shaped like the program's hot
//! loops (word simulation of a two-input DAG, fanin-cone walks with an
//! epoch-stamped visited array, hash-map counting). It runs in a child
//! process (the benchmark binary with [`FLAG`]), and the workloads sample
//! it only while no thread of the program under test is alive. So a
//! change to the program can neither slow the kernel nor share its
//! allocator, and the kernel's memory never counts in the workload's
//! peak RSS.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::process::Command;
use std::time::Instant;

/// Kernel wall time at the reference host speed, on one thread and on
/// two threads at once: the times a 2-vCPU Xeon VM took when both vCPUs
/// ran at full speed.
const REFERENCE_S: [f64; 2] = [0.15, 0.16];

/// The flag that makes the benchmark binary time the kernel once and
/// print the seconds it took: `--calibrate <threads>`.
pub const FLAG: &str = "--calibrate";

const NODES: usize = 1 << 17;
const PRIMARY_INPUTS: usize = 64;
const CONES: usize = 6;
const ROUNDS: u64 = 16;

/// A multiply-rotate hasher, so the kernel's map costs what the
/// program's FxHash maps cost rather than SipHash.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A seeded random DAG of two-input nodes over [`PRIMARY_INPUTS`] inputs.
struct Kernel {
    fanins: Vec<(u32, u32)>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        let fanins = (0..NODES)
            .map(|i| {
                if i < PRIMARY_INPUTS {
                    (0, 0)
                } else {
                    // Mostly recent fanins, like the deep, narrow
                    // networks the rewriter sees.
                    let near = i.min(256);
                    (i as u32 - 1 - below(near), below(i))
                }
            })
            .collect();
        Kernel { fanins }
    }

    fn run(&self) -> u64 {
        let n = self.fanins.len();
        let mut values = vec![0u64; n];
        let mut seen = vec![0u64; n];
        let mut stack = Vec::new();
        let mut counts: HashMap<u64, u32, BuildHasherDefault<MixHasher>> = HashMap::default();
        let mut check = 0u64;
        let mut epoch = 0u64;
        for round in 0..ROUNDS {
            for i in 0..n {
                let (a, b) = self.fanins[i];
                let (x, y) = (values[a as usize], values[b as usize]);
                values[i] = if i < PRIMARY_INPUTS {
                    (i as u64 + round).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                } else if i % 3 == 0 {
                    x & y
                } else {
                    x ^ y ^ i as u64
                };
            }
            for k in 0..CONES {
                epoch += 1;
                stack.push(n - 1 - k * 97);
                while let Some(v) = stack.pop() {
                    if seen[v] == epoch {
                        continue;
                    }
                    seen[v] = epoch;
                    check = check.wrapping_add(values[v]);
                    if v >= PRIMARY_INPUTS {
                        let (a, b) = self.fanins[v];
                        stack.push(a as usize);
                        stack.push(b as usize);
                    }
                }
            }
            counts.clear();
            for &v in &values {
                *counts.entry(v >> 44).or_insert(0) += 1;
            }
            check ^= counts.len() as u64;
        }
        check
    }
}

/// Threads the kernel has a reference time for: one or two. A workload
/// that keeps more busy is timed on two.
fn clamp_threads(threads: usize) -> usize {
    threads.clamp(1, REFERENCE_S.len())
}

/// Times the kernel once on `threads` threads at once, in this process.
/// This is the child's side of [`slowdown`].
pub fn time_kernel(threads: usize) -> f64 {
    let kernel = Kernel::new();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clamp_threads(threads) {
            s.spawn(|| std::hint::black_box(kernel.run()));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Runs the kernel in a child process on `threads` threads at once and
/// returns how much slower the host ran than the reference speed: 1.0 at
/// the reference, 2.0 at half its speed.
pub fn slowdown(threads: usize) -> f64 {
    let threads = clamp_threads(threads);
    let exe = std::env::current_exe().expect("the benchmark binary's path");
    let out = Command::new(exe)
        .args([FLAG, &threads.to_string()])
        .output()
        .expect("start the calibration kernel");
    let seconds: f64 = std::str::from_utf8(&out.stdout)
        .ok()
        .filter(|_| out.status.success())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("calibration kernel failed: {}", out.status));
    seconds / REFERENCE_S[threads - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_than_referenced_are_timed_on_two() {
        assert_eq!(clamp_threads(0), 1);
        assert_eq!(clamp_threads(1), 1);
        assert_eq!(clamp_threads(2), 2);
        assert_eq!(clamp_threads(4), 2);
        assert_eq!(clamp_threads(64), REFERENCE_S.len());
    }
}
