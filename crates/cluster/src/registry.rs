//! The backend registry: membership, health state, and load-aware
//! backend selection.
//!
//! One [`Registry`] owns everything the router knows about its backends:
//! the id ↔ address map, announced capacity, the health state machine,
//! live load (in-flight dispatches, reported queue depth and busy
//! workers), and the consistent-hash [`HashRing`] the *up* backends
//! populate.
//!
//! # Health state machine
//!
//! A backend is **up** from registration. Three things feed the state:
//!
//! * **Registrations** (backend → router, every heartbeat interval)
//!   refresh `last_seen`, capacity and load, and bring a down backend
//!   back up.
//! * **Health-check pings** (router → backend) refresh `last_seen` on
//!   success and bring a down backend back up; consecutive failures
//!   past the miss threshold mark the backend down.
//! * **Dispatch failures** mark the backend down immediately — the
//!   router observed a broken connection first-hand, and waiting for the
//!   health loop would route more jobs into the hole.
//!
//! Only the last two mark a backend down: a backend that stops
//! registering but still answers pings stays up.
//!
//! Down backends leave the ring (so affine targets fail over to the ring
//! successor) but stay registered: recovery re-inserts them and the
//! consistent hash hands their old keys straight back.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use mc_serve::protocol::RegisterInfo;
use mc_serve::sync::lock_unpoisoned;

use crate::ring::HashRing;

/// A backend is *saturated* once `in_flight >= capacity * SATURATION` —
/// its workers are all busy and its queue is at least as long as the
/// pool — and affine placement falls back to least-loaded.
const SATURATION: usize = 2;

/// One registered backend, as reported by [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub struct Backend {
    /// Router-assigned id (stable per address).
    pub id: u64,
    /// Address jobs are forwarded to.
    pub addr: String,
    /// Announced worker capacity.
    pub capacity: usize,
    /// Announced job-queue bound.
    pub queue_capacity: usize,
    /// Health state.
    pub up: bool,
    /// Consecutive failed health checks since the last success.
    pub missed: u32,
    /// Last registration or successful ping; a down backend is evicted
    /// once this ages past the eviction grace.
    pub last_seen: Instant,
    /// Router dispatches currently outstanding.
    pub in_flight: usize,
    /// Lifetime dispatches routed to this backend.
    pub jobs_routed: u64,
    /// Queue depth from the last registration.
    pub queue_depth: usize,
    /// Busy workers from the last registration.
    pub busy: usize,
}

/// A routing decision from [`Registry::choose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Choice {
    /// Chosen backend id.
    pub id: u64,
    /// Its address.
    pub addr: String,
    /// True iff the choice is the key's ring-affine target (counts
    /// toward the affinity hit rate).
    pub affine: bool,
}

#[derive(Default)]
struct State {
    backends: BTreeMap<u64, Backend>,
    by_addr: HashMap<String, u64>,
    ring: HashRing,
    /// The last id handed out (ids start at 1).
    last_id: u64,
}

/// Thread-safe backend registry. See the [module docs](self).
#[derive(Default)]
pub struct Registry {
    state: Mutex<State>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        lock_unpoisoned(&self.state)
    }

    /// Registers (or re-registers) the backend at `info.addr`; returns
    /// its id. Re-registration refreshes capacity and load, clears the
    /// missed count, and marks the backend up.
    pub fn register(&self, info: &RegisterInfo) -> u64 {
        let mut s = self.lock();
        let id = match s.by_addr.get(&info.addr) {
            Some(&id) => id,
            None => {
                s.last_id += 1;
                let id = s.last_id;
                s.by_addr.insert(info.addr.clone(), id);
                s.backends.insert(
                    id,
                    Backend {
                        id,
                        addr: info.addr.clone(),
                        capacity: info.capacity.max(1),
                        queue_capacity: info.queue_capacity,
                        up: false, // marked up just below
                        missed: 0,
                        last_seen: Instant::now(),
                        in_flight: 0,
                        jobs_routed: 0,
                        queue_depth: 0,
                        busy: 0,
                    },
                );
                id
            }
        };
        // lint: allow(no-panic-in-request-path): id was just looked up or inserted under this same lock
        let b = s.backends.get_mut(&id).expect("registered above");
        b.capacity = info.capacity.max(1);
        b.queue_capacity = info.queue_capacity;
        b.queue_depth = info.queue_depth;
        b.busy = info.busy;
        b.missed = 0;
        b.last_seen = Instant::now();
        if !b.up {
            b.up = true;
            s.ring.insert(id);
        }
        id
    }

    /// Records a successful health-check ping (counts as liveness).
    pub fn note_ping_ok(&self, id: u64) {
        let mut s = self.lock();
        if let Some(b) = s.backends.get_mut(&id) {
            b.missed = 0;
            b.last_seen = Instant::now();
            if !b.up {
                b.up = true;
                s.ring.insert(id);
            }
        }
    }

    /// Records a failed health-check ping; marks the backend down once
    /// `threshold` consecutive checks failed. Returns true iff this call
    /// transitioned the backend to down.
    pub fn note_ping_failed(&self, id: u64, threshold: u32) -> bool {
        let mut s = self.lock();
        let Some(b) = s.backends.get_mut(&id) else {
            return false;
        };
        b.missed = b.missed.saturating_add(1);
        if b.up && b.missed >= threshold.max(1) {
            b.up = false;
            s.ring.remove(id);
            return true;
        }
        false
    }

    /// Marks a backend down immediately (a dispatch to it failed).
    pub fn mark_down(&self, id: u64) {
        let mut s = self.lock();
        if let Some(b) = s.backends.get_mut(&id) {
            if b.up {
                b.up = false;
                s.ring.remove(id);
            }
        }
    }

    /// Deregisters every *down* backend whose `last_seen` is older than
    /// `grace_ms` milliseconds; returns the evicted ids. Without
    /// this, ephemeral-port backends leak a dead registry entry (and a
    /// health probe per round, forever) on every restart — a restarted
    /// backend re-registers under a fresh address, so nothing references
    /// the old entry again.
    pub fn evict_dead(&self, grace_ms: u64) -> Vec<u64> {
        let mut s = self.lock();
        let dead: Vec<(u64, String)> = s
            .backends
            .values()
            .filter(|b| !b.up && b.last_seen.elapsed().as_millis() as u64 > grace_ms)
            .map(|b| (b.id, b.addr.clone()))
            .collect();
        for (id, addr) in &dead {
            s.backends.remove(id);
            s.by_addr.remove(addr);
            // Down backends are already off the ring; this is belt and
            // braces in case eviction policy ever changes.
            s.ring.remove(*id);
        }
        dead.into_iter().map(|(id, _)| id).collect()
    }

    /// Accounts a dispatch start (in-flight and lifetime counters).
    pub fn begin_dispatch(&self, id: u64) {
        let mut s = self.lock();
        if let Some(b) = s.backends.get_mut(&id) {
            b.in_flight += 1;
            b.jobs_routed += 1;
        }
    }

    /// Accounts a dispatch end (success or failure).
    pub fn end_dispatch(&self, id: u64) {
        let mut s = self.lock();
        if let Some(b) = s.backends.get_mut(&id) {
            b.in_flight = b.in_flight.saturating_sub(1);
        }
    }

    /// Cache-affine selection: the first up, non-excluded, non-saturated
    /// backend in the key's ring preference order (`affine` iff it is
    /// the ring primary); when every preferred backend is saturated, the
    /// least-loaded up backend. `None` when no up backend remains.
    pub fn choose(&self, hash: u64, exclude: &[u64]) -> Option<Choice> {
        let s = self.lock();
        for (rank, id) in s.ring.preference(hash).into_iter().enumerate() {
            if exclude.contains(&id) {
                continue;
            }
            let Some(b) = s.backends.get(&id) else {
                continue; // ring can briefly lag a backend removal
            };
            if !b.up {
                continue;
            }
            if b.in_flight < b.capacity * SATURATION {
                return Some(Choice {
                    id,
                    addr: b.addr.clone(),
                    affine: rank == 0,
                });
            }
        }
        // Everything preferred is saturated (or excluded): spill to the
        // least-loaded up backend so overload degrades into load
        // balancing instead of queueing behind one hot backend.
        s.backends
            .values()
            .filter(|b| b.up && !exclude.contains(&b.id))
            .min_by_key(|b| (b.in_flight, b.id))
            .map(|b| Choice {
                id: b.id,
                addr: b.addr.clone(),
                affine: false,
            })
    }

    /// All registered backends, id order.
    pub fn snapshot(&self) -> Vec<Backend> {
        self.lock().backends.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(r: &Registry) -> usize {
        r.snapshot().iter().filter(|b| b.up).count()
    }

    /// A registration with no load reported.
    fn info(addr: &str, capacity: usize, queue_capacity: usize) -> RegisterInfo {
        RegisterInfo {
            addr: addr.to_string(),
            capacity,
            queue_capacity,
            queue_depth: 0,
            busy: 0,
        }
    }

    #[test]
    fn registration_is_stable_per_address() {
        let r = Registry::new();
        let a = r.register(&info("127.0.0.1:1000", 4, 64));
        let b = r.register(&info("127.0.0.1:2000", 4, 64));
        assert_ne!(a, b);
        assert_eq!(
            r.register(&info("127.0.0.1:1000", 8, 64)),
            a,
            "same addr, same id"
        );
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].capacity, 8, "re-register refreshes capacity");
        assert_eq!(up(&r), 2);
    }

    #[test]
    fn missed_pings_mark_down_and_recovery_marks_up() {
        let r = Registry::new();
        let id = r.register(&info("127.0.0.1:1000", 2, 64));
        assert!(!r.note_ping_failed(id, 3));
        assert!(!r.note_ping_failed(id, 3));
        assert!(
            r.note_ping_failed(id, 3),
            "third miss crosses the threshold"
        );
        assert_eq!(up(&r), 0);
        assert_eq!(r.choose(99, &[]), None, "no up backend to choose");
        // A registration brings it back.
        assert_eq!(r.register(&info("127.0.0.1:1000", 2, 64)), id);
        assert_eq!(up(&r), 1);
        assert!(r.choose(99, &[]).is_some());
    }

    #[test]
    fn long_dead_backends_are_evicted_but_fresh_down_ones_survive() {
        let r = Registry::new();
        let dead = r.register(&info("127.0.0.1:1000", 2, 64));
        let alive = r.register(&info("127.0.0.1:2000", 2, 64));
        r.mark_down(dead);
        assert!(
            r.evict_dead(60_000).is_empty(),
            "a freshly-down backend stays registered (it may recover)"
        );
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(r.evict_dead(10), vec![dead]);
        assert_eq!(r.snapshot().len(), 1, "only the live backend remains");
        // The evicted address re-registers as a brand-new backend.
        let again = r.register(&info("127.0.0.1:1000", 2, 64));
        assert_ne!(again, dead);
        assert_ne!(again, alive);
        assert_eq!(up(&r), 2);
    }

    #[test]
    fn affine_choice_follows_the_ring_and_failover_excludes() {
        let r = Registry::new();
        let a = r.register(&info("127.0.0.1:1000", 2, 64));
        let b = r.register(&info("127.0.0.1:2000", 2, 64));
        for hash in 0..100u64 {
            let h = hash.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let first = r.choose(h, &[]).unwrap();
            assert!(first.affine, "unloaded cluster always routes affine");
            // Excluding the affine target falls over to the other backend.
            let other = r.choose(h, &[first.id]).unwrap();
            assert_ne!(other.id, first.id);
            assert!(!other.affine);
            assert!([a, b].contains(&other.id));
        }
    }

    #[test]
    fn saturation_spills_to_the_least_loaded_backend() {
        let r = Registry::new();
        let a = r.register(&info("127.0.0.1:1000", 1, 64)); // capacity 1, saturates at 2
        let b = r.register(&info("127.0.0.1:2000", 1, 64));
        // Find a hash whose affine target is `a`.
        let hash = (0..)
            .map(|k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .find(|&h| r.choose(h, &[]).unwrap().id == a)
            .unwrap();
        r.begin_dispatch(a);
        r.begin_dispatch(a);
        let spilled = r.choose(hash, &[]).unwrap();
        assert_eq!(spilled.id, b, "saturated affine target spills");
        assert!(!spilled.affine);
        r.end_dispatch(a);
        let back = r.choose(hash, &[]).unwrap();
        assert_eq!(back.id, a, "draining in-flight restores affinity");
        assert!(back.affine);
    }
}
