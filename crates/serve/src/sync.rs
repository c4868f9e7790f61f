//! Poison-tolerant lock acquisition for the request path of the daemon
//! and of the `mc-cluster` router.
//!
//! A poisoned `Mutex` means some thread panicked while holding the
//! guard. The request-path locks (job queue, coalescing cache, stats;
//! the router's connection pool, health summary and registry state) keep
//! their guarded state structurally valid at every point a panic could
//! unwind through — mutations are single inserts, pops, or counter bumps
//! — so the right response to poison is to keep serving with the state
//! as-is, not to cascade the panic into every connection and worker
//! thread that touches the lock next. These helpers recover the guard;
//! the `no-panic-in-request-path` lint rule keeps bare `.lock().unwrap()`
//! from creeping back in.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the reacquired guard from poison.
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
