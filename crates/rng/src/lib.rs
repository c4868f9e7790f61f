//! A small, dependency-free, deterministic pseudo-random generator.
//!
//! Two parts of the workspace need randomness, and both need it to be
//! *reproducible forever*:
//!
//! * the benchmark generators in `xag-circuits`, where seeded tables and
//!   seeded control networks are part of the benchmark definition
//!   (DESIGN.md §3) — a different generator would silently change every
//!   gate count the experiments report;
//! * the randomized property tests, which replay fixed seeds so a failure
//!   is always reproducible from the log.
//!
//! The generator is SplitMix64 (Steele, Lea, Flood — "Fast splittable
//! pseudorandom number generators", OOPSLA'14): a 64-bit counter passed
//! through a finalizer with provably full period. It is not
//! cryptographically secure, and does not need to be.
//!
//! # Examples
//!
//! ```
//! use mc_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let a = rng.gen_range(0..10);
//! assert!(a < 10);
//! let mut again = Rng::seed_from_u64(42);
//! assert_eq!(again.gen_range(0..10), a);
//! ```

/// A SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

pub mod sched {
    //! Seeded schedule-perturbation hooks for concurrency tests.
    //!
    //! The job queue and the coalescing cache (`mc-serve`) call
    //! [`yield_point`] at the edges of their critical sections. In production the hook is a single
    //! relaxed atomic load of a zero and nothing else — the bench gate
    //! holds that cost to the committed trajectory. Under
    //! `tests/schedule_fuzz.rs` the hook is [`enable`]d with a seed, and
    //! every crossing draws from a global SplitMix64 stream to decide
    //! between proceeding, yielding the OS scheduler, or micro-sleeping —
    //! shaking out interleavings that an unperturbed scheduler would
    //! almost never produce, while staying reproducible enough to replay
    //! a failing seed.
    //!
    //! The state is process-global, so tests that enable it must
    //! serialize against each other (the schedule fuzzer takes a shared
    //! mutex per scenario).

    use std::sync::atomic::{AtomicU64, Ordering};

    /// `0` means disabled; any other value is the live SplitMix64 state.
    static STATE: AtomicU64 = AtomicU64::new(0);

    /// Turns the hook on with a seed (coerced away from the reserved
    /// disabled value).
    pub fn enable(seed: u64) {
        STATE.store(seed | 1, Ordering::SeqCst);
    }

    /// Turns the hook off; every later [`yield_point`] is a no-op again.
    pub fn disable() {
        STATE.store(0, Ordering::SeqCst);
    }

    /// True iff the hook is currently enabled.
    pub fn enabled() -> bool {
        STATE.load(Ordering::Relaxed) != 0
    }

    /// A schedule-perturbation point. `site` salts the decision so
    /// distinct call sites diverge under the same seed.
    #[inline]
    pub fn yield_point(site: u32) {
        if STATE.load(Ordering::Relaxed) == 0 {
            return;
        }
        yield_point_enabled(site);
    }

    #[cold]
    fn yield_point_enabled(site: u32) {
        // Advance the global stream only while enabled, so a concurrent
        // `disable` is never resurrected by a straggling increment.
        let prev = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
            (s != 0).then(|| s.wrapping_add(super::GOLDEN_GAMMA))
        });
        let Ok(state) = prev else { return };
        let mut z = state.wrapping_add((site as u64).wrapping_mul(super::GOLDEN_GAMMA));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        match z % 8 {
            0..=2 => std::thread::yield_now(),
            3 => std::thread::sleep(std::time::Duration::from_micros(1 + (z >> 8) % 40)),
            _ => {}
        }
    }

    /// Stable site salts for the workspace's hook crossings, kept in one
    /// place so seeds mean the same schedule across crates.
    pub mod site {
        /// `JobQueue::push`, before taking the queue lock.
        pub const QUEUE_PUSH: u32 = 1;
        /// `JobQueue::pop`, before taking the queue lock.
        pub const QUEUE_POP: u32 = 2;
        /// Coalescing-cache plan (lookup-or-register), before the lock.
        pub const COALESCE_PLAN: u32 = 3;
        /// Coalescing-cache commit, between insert and waiter wakeup.
        pub const COALESCE_COMMIT: u32 = 4;
    }
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Equal seeds produce equal
    /// streams, on every platform, forever.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly distributed `usize` in `range` (which must be
    /// non-empty).
    ///
    /// Uses the widening-multiply range reduction; the bias over a 64-bit
    /// draw is far below anything a test or benchmark generator can
    /// observe.
    pub fn gen_range(&mut self, range: core::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range over an empty range");
        let span = (range.end - range.start) as u64;
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let threshold = (p.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64;
        (self.next_u64() >> 11) < threshold
    }

    /// A uniformly distributed `bool`.
    pub fn gen(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(3..13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit in 1000 draws");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn sched_hook_is_inert_until_enabled_and_off_after_disable() {
        // Not enabled: a crossing must be a pure no-op.
        assert!(!sched::enabled());
        sched::yield_point(sched::site::QUEUE_PUSH);
        sched::enable(0); // reserved seed is coerced to a live state
        assert!(sched::enabled());
        for s in 0..64 {
            sched::yield_point(s); // must terminate quickly, never panic
        }
        sched::disable();
        assert!(!sched::enabled());
        sched::yield_point(sched::site::QUEUE_POP);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u8> = (0..16).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u8>>());
        assert_ne!(v, (0..16).collect::<Vec<u8>>(), "seed 3 must permute");
    }
}
