//! Concurrency-schedule fuzzing: the same workloads, replayed under
//! hundreds of seeded thread-interleaving perturbations.
//!
//! `mc_rng::sched` plants yield points inside the job queue and the
//! coalescing cache. Enabling the hook with a seed makes each run take a
//! *different* interleaving — `yield_now` and microsecond sleeps at the
//! contended spots — which surfaces lost-wakeup and double-compute bugs
//! that the default scheduler almost never exhibits. The invariants:
//!
//! * **queue**: every pushed job is popped exactly once, under any
//!   schedule;
//! * **coalescing**: per committed key, exactly one thread computes;
//!   every other thread gets the identical entry (hit or coalesced
//!   wait). A key whose computation is aborted instead wakes every
//!   waiter with the abort's reason and is released, so its next plan
//!   computes afresh; no thread stays blocked.
//!
//! The hook is global process state, so every test serializes on one
//! mutex and disables the hook on exit (panic included) via a guard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use mc_rng::sched;
use mc_serve::{CacheEntry, CoalescingCache, JobQueue, Plan};

/// Serializes the schedule-perturbation tests: the yield hook is global.
static SCHED_LOCK: Mutex<()> = Mutex::new(());

struct SchedSession<'a> {
    _held: MutexGuard<'a, ()>,
}

impl<'a> SchedSession<'a> {
    fn begin() -> Self {
        let held = SCHED_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        Self { _held: held }
    }
}

impl Drop for SchedSession<'_> {
    fn drop(&mut self) {
        sched::disable();
    }
}

// ---------------------------------------------------------------------
// Scenario 1: the job queue loses nothing.
// ---------------------------------------------------------------------

#[test]
fn queue_loses_no_jobs_under_perturbed_schedules() {
    let _session = SchedSession::begin();
    for seed in 0..40u64 {
        sched::enable(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let queue: Arc<JobQueue<usize>> = Arc::new(JobQueue::new(4));
        let producers = 4usize;
        let per_producer = 25usize;
        let consumers = 3usize;

        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&queue);
            handles.push(thread::spawn(move || {
                for j in 0..per_producer {
                    q.push(p * per_producer + j).expect("queue open");
                }
            }));
        }
        let popped: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let mut consumer_handles = Vec::new();
        for _ in 0..consumers {
            let q = Arc::clone(&queue);
            let sink = Arc::clone(&popped);
            consumer_handles.push(thread::spawn(move || {
                while let Some(job) = q.pop() {
                    sink.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(job);
                }
            }));
        }
        for h in handles {
            h.join().expect("producer");
        }
        queue.close();
        for h in consumer_handles {
            h.join().expect("consumer");
        }

        let mut got = Arc::try_unwrap(popped)
            .expect("consumers done")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        got.sort_unstable();
        let want: Vec<usize> = (0..producers * per_producer).collect();
        assert_eq!(got, want, "seed {seed}: jobs lost or duplicated");
    }
}

// ---------------------------------------------------------------------
// Scenario 2: coalescing computes each committed key exactly once, and
// an aborted key fails all its waiters and is released.
// ---------------------------------------------------------------------

/// The reason a computing thread gives when it aborts its key.
const ABORTED: &str = "aborted by the schedule fuzzer";

fn entry_for(key_idx: usize) -> CacheEntry {
    CacheEntry {
        job_id: key_idx as u64,
        bristol: format!("bristol-{key_idx}"),
        verilog: format!("verilog-{key_idx}"),
        ..CacheEntry::default()
    }
}

/// Joins `handles`, failing the test if one is still running after 60 s:
/// a waiter nobody wakes blocks forever.
fn join_bounded(handles: Vec<thread::JoinHandle<()>>, seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !handles.iter().all(thread::JoinHandle::is_finished) {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: a thread is still blocked after 60 s"
        );
        thread::sleep(Duration::from_millis(1));
    }
    for h in handles {
        h.join().expect("worker");
    }
}

#[test]
fn coalescing_computes_each_key_exactly_once() {
    let _session = SchedSession::begin();
    let keys = 8usize;
    let threads = 8usize;
    for seed in 0..40u64 {
        sched::enable(seed.wrapping_mul(0x517c_c1b7).wrapping_add(1));
        // Every third key, shifted by the seed, is aborted by whichever
        // thread computes it and never committed.
        let aborted: Arc<Vec<bool>> = Arc::new(
            (0..keys)
                .map(|k| (k as u64 + seed).is_multiple_of(3))
                .collect(),
        );
        let cache = Arc::new(CoalescingCache::new(64));
        let computes: Arc<Vec<AtomicUsize>> =
            Arc::new((0..keys).map(|_| AtomicUsize::new(0)).collect());

        let mut handles = Vec::new();
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let aborted = Arc::clone(&aborted);
            handles.push(thread::spawn(move || {
                // Each thread walks the keys from a different offset so
                // first-planner races differ per schedule.
                for step in 0..keys {
                    let k = (t + step) % keys;
                    let key = format!("key-{k}").into_bytes();
                    let answer = match cache.plan(&key) {
                        Plan::Hit(entry) => Ok(entry),
                        Plan::Wait(rx) => rx.recv().expect("the computing thread answers"),
                        Plan::Compute(rx) => {
                            computes[k].fetch_add(1, Ordering::SeqCst);
                            if aborted[k] {
                                cache.abort(&key, ABORTED);
                            } else {
                                cache.commit(&key, entry_for(k));
                            }
                            rx.recv().expect("the computing thread waits like the rest")
                        }
                    };
                    if aborted[k] {
                        assert_eq!(answer, Err(ABORTED), "key {k} was aborted");
                    } else {
                        assert_eq!(answer.as_deref(), Ok(&entry_for(k)), "key {k}");
                    }
                }
            }));
        }
        join_bounded(handles, seed);
        for (k, count) in computes.iter().enumerate() {
            if aborted[k] {
                let key = format!("key-{k}").into_bytes();
                assert!(
                    matches!(cache.plan(&key), Plan::Compute(_)),
                    "seed {seed}: aborted key {k} was not released"
                );
            } else {
                let count = count.load(Ordering::SeqCst);
                assert_eq!(
                    count, 1,
                    "seed {seed}: key {k} computed {count} times (want exactly 1)"
                );
            }
        }
    }
}
