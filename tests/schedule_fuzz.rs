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
//! * **coalescing**: per key, exactly one thread computes; every other
//!   thread gets the identical entry (hit or coalesced wait).
//!
//! The hook is global process state, so every test serializes on one
//! mutex and disables the hook on exit (panic included) via a guard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

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
// Scenario 2: coalescing computes each key exactly once.
// ---------------------------------------------------------------------

fn entry_for(key_idx: usize) -> CacheEntry {
    CacheEntry {
        job_id: key_idx as u64,
        bristol: format!("bristol-{key_idx}"),
        verilog: format!("verilog-{key_idx}"),
        ..CacheEntry::default()
    }
}

#[test]
fn coalescing_computes_each_key_exactly_once() {
    let _session = SchedSession::begin();
    let keys = 8usize;
    let threads = 8usize;
    for seed in 0..40u64 {
        sched::enable(seed.wrapping_mul(0x517c_c1b7).wrapping_add(1));
        let cache = Arc::new(CoalescingCache::new(64));
        let computes: Arc<Vec<AtomicUsize>> =
            Arc::new((0..keys).map(|_| AtomicUsize::new(0)).collect());

        let mut handles = Vec::new();
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(thread::spawn(move || {
                // Each thread walks the keys from a different offset so
                // first-planner races differ per schedule.
                for step in 0..keys {
                    let k = (t + step) % keys;
                    let key = format!("key-{k}").into_bytes();
                    let got = match cache.plan(&key) {
                        Plan::Hit(entry) => entry,
                        Plan::Wait(rx) => rx.recv().expect("computing thread commits"),
                        Plan::Compute => {
                            computes[k].fetch_add(1, Ordering::SeqCst);
                            let entry = entry_for(k);
                            cache.commit(&key, &entry);
                            entry
                        }
                    };
                    assert_eq!(got, entry_for(k), "wrong entry for key {k}");
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        for (k, count) in computes.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "seed {seed}: key {k} computed {} times (want exactly 1)",
                count.load(Ordering::SeqCst)
            );
        }
    }
}
