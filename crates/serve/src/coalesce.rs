//! The coalescing result cache: one map from job key to slot, under
//! **one** lock.
//!
//! A slot is `Pending` from a key's first miss until its computation
//! ends, then `Ready` with the entry, or gone:
//!
//! * [`CoalescingCache::plan`] answers a `Ready` key as a hit and parks
//!   the caller as a waiter on a `Pending` one; on an absent key it
//!   inserts `Pending` with the caller as the first waiter and tells it
//!   to compute — exactly one compute per key, the rest coalesced hits;
//! * [`CoalescingCache::commit`] turns the slot `Ready` and wakes every
//!   waiter with the entry;
//! * [`CoalescingCache::abort`] removes the slot and wakes every waiter
//!   with the reason, so the next request of the key computes afresh.
//!
//! Every answer, computed or coalesced, arrives on a waiter channel, and
//! these two calls are the only ways a pending key is released. The LRU
//! bound counts `Ready` slots only: an in-flight key is never evicted.
//! The type is public so the schedule fuzzer (`tests/schedule_fuzz.rs`)
//! can drive the protocol directly with adversarial thread
//! interleavings.
//!
//! Lock discipline (see DESIGN.md §12): one lock guards the whole map —
//! there is no cache-lock→pending-lock pair to misorder — and no
//! callback runs while it is held; waiter wakeups happen after release.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};

use mc_rng::sched;

use crate::cache::CacheEntry;
use crate::sync::lock_unpoisoned;

/// What a waiter receives: the committed entry, or the reason the
/// computation was aborted.
pub type Answer = Result<Arc<CacheEntry>, &'static str>;

/// What a request should do about a key, decided atomically by
/// [`CoalescingCache::plan`].
pub enum Plan {
    /// The key is cached: answer immediately with this entry.
    Hit(Arc<CacheEntry>),
    /// Another request is computing this key: block on the receiver for
    /// its answer.
    Wait(mpsc::Receiver<Answer>),
    /// This request is the first to see the cold key: it must have the
    /// key computed, ending in [`CoalescingCache::commit`] or
    /// [`CoalescingCache::abort`], and block on the receiver like any
    /// waiter.
    Compute(mpsc::Receiver<Answer>),
}

enum Slot {
    /// In flight: the senders of every request waiting on the key, the
    /// one that computes it first.
    Pending(Vec<mpsc::Sender<Answer>>),
    /// Computed, with the LRU tick of its last use.
    Ready {
        entry: Arc<CacheEntry>,
        last_used: u64,
    },
}

struct State {
    /// Keyed by bytes of client uploads, so it keeps std's keyed hasher.
    map: HashMap<Vec<u8>, Slot>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Cumulative counters of the cache, read in one locked snapshot for
/// `stats` frames.
#[derive(Debug, Clone, Copy)]
pub struct CacheCounters {
    /// Lookups answered from the cache, coalesced waiters included.
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub capacity: usize,
}

/// The job-key map with its coalescing protocol. See the [module
/// documentation](self).
pub struct CoalescingCache {
    state: Mutex<State>,
}

impl CoalescingCache {
    /// Creates a cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Atomic lookup-or-register: a hit, a wait on the in-flight
    /// computation, or — counted as the key's one miss — a compute.
    pub fn plan(&self, key: &[u8]) -> Plan {
        sched::yield_point(sched::site::COALESCE_PLAN);
        let mut guard = lock_unpoisoned(&self.state);
        let s = &mut *guard;
        s.tick += 1;
        match s.map.get_mut(key) {
            Some(Slot::Ready { entry, last_used }) => {
                *last_used = s.tick;
                s.hits += 1;
                Plan::Hit(Arc::clone(entry))
            }
            Some(Slot::Pending(waiters)) => {
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                Plan::Wait(rx)
            }
            None => {
                s.misses += 1;
                let (tx, rx) = mpsc::channel();
                s.map.insert(key.to_vec(), Slot::Pending(vec![tx]));
                Plan::Compute(rx)
            }
        }
    }

    /// Commits a computed entry: turns the key's slot `Ready` (a request
    /// arriving after the lock releases hits it), evicts the least
    /// recently used entry past the bound, and wakes the waiters outside
    /// the lock. Every waiter but the computing one counts as a hit.
    pub fn commit(&self, key: &[u8], entry: CacheEntry) {
        sched::yield_point(sched::site::COALESCE_COMMIT);
        let entry = Arc::new(entry);
        let waiters = {
            let mut guard = lock_unpoisoned(&self.state);
            let s = &mut *guard;
            s.tick += 1;
            let slot = Slot::Ready {
                entry: Arc::clone(&entry),
                last_used: s.tick,
            };
            let waiters = match s.map.insert(key.to_vec(), slot) {
                Some(Slot::Pending(waiters)) => waiters,
                _ => Vec::new(),
            };
            s.hits += waiters.len().saturating_sub(1) as u64;
            if s.ready() > s.capacity {
                s.evict_lru();
            }
            waiters
        };
        sched::yield_point(sched::site::COALESCE_COMMIT);
        for waiter in waiters {
            // A waiter whose connection vanished is not an error.
            let _ = waiter.send(Ok(Arc::clone(&entry)));
        }
    }

    /// Abandons a key: removes its slot and wakes every waiter with
    /// `reason`. The next request of the key computes it afresh.
    pub fn abort(&self, key: &[u8], reason: &'static str) {
        sched::yield_point(sched::site::COALESCE_COMMIT);
        let slot = lock_unpoisoned(&self.state).map.remove(key);
        sched::yield_point(sched::site::COALESCE_COMMIT);
        if let Some(Slot::Pending(waiters)) = slot {
            for waiter in waiters {
                let _ = waiter.send(Err(reason));
            }
        }
    }

    /// One locked snapshot of the cache counters.
    pub fn counters(&self) -> CacheCounters {
        let s = lock_unpoisoned(&self.state);
        CacheCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.ready(),
            capacity: s.capacity,
        }
    }

    /// Requests parked on `key`, the computing one included.
    #[cfg(test)]
    pub(crate) fn waiters(&self, key: &[u8]) -> usize {
        match lock_unpoisoned(&self.state).map.get(key) {
            Some(Slot::Pending(waiters)) => waiters.len(),
            _ => 0,
        }
    }
}

impl State {
    /// `Ready` slots: the LRU bound counts these only.
    fn ready(&self) -> usize {
        let ready = |slot: &&Slot| matches!(slot, Slot::Ready { .. });
        self.map.values().filter(ready).count()
    }

    /// Drops the least recently used `Ready` slot.
    fn evict_lru(&mut self) {
        let lru = self
            .map
            .iter()
            .filter_map(|(key, slot)| match slot {
                Slot::Ready { last_used, .. } => Some((*last_used, key)),
                Slot::Pending(_) => None,
            })
            .min()
            .map(|(_, key)| key.clone());
        if let Some(key) = lru {
            self.map.remove(&key);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> CacheEntry {
        CacheEntry {
            job_id: id,
            ..CacheEntry::default()
        }
    }

    fn computes(plan: Plan) -> mpsc::Receiver<Answer> {
        match plan {
            Plan::Compute(rx) => rx,
            _ => panic!("a cold key must compute"),
        }
    }

    fn job_id(answer: Answer) -> u64 {
        answer.expect("committed").job_id
    }

    #[test]
    fn first_plan_computes_then_hits() {
        let cc = CoalescingCache::new(4);
        let rx = computes(cc.plan(b"k"));
        cc.commit(b"k", entry(1));
        assert_eq!(job_id(rx.recv().expect("computing waiter woken")), 1);
        match cc.plan(b"k") {
            Plan::Hit(e) => assert_eq!(e.job_id, 1),
            _ => panic!("committed key must hit"),
        }
    }

    #[test]
    fn racing_plans_coalesce_onto_one_compute() {
        let cc = CoalescingCache::new(4);
        let rx0 = computes(cc.plan(b"k"));
        let Plan::Wait(rx1) = cc.plan(b"k") else {
            panic!("second plan must wait")
        };
        let Plan::Wait(rx2) = cc.plan(b"k") else {
            panic!("third plan must wait")
        };
        assert_eq!(cc.waiters(b"k"), 3);
        cc.commit(b"k", entry(7));
        for rx in [rx0, rx1, rx2] {
            assert_eq!(job_id(rx.recv().expect("waiter woken")), 7);
        }
        assert_eq!(cc.counters().hits, 2, "coalesced waiters count as hits");
    }

    #[test]
    fn abort_wakes_waiters_with_error_and_clears_key() {
        let cc = CoalescingCache::new(4);
        let rx0 = computes(cc.plan(b"k"));
        let Plan::Wait(rx1) = cc.plan(b"k") else {
            panic!("must wait")
        };
        cc.abort(b"k", "boom");
        for rx in [rx0, rx1] {
            assert_eq!(rx.recv().expect("waiter woken"), Err("boom"));
        }
        assert_eq!(cc.counters().hits, 0, "an aborted wait is no hit");
        // The key is free again: the next request computes.
        computes(cc.plan(b"k"));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cc = CoalescingCache::new(4);
        let _rx = computes(cc.plan(b"k"));
        let _waiter = cc.plan(b"k");
        cc.commit(b"k", entry(1));
        assert!(matches!(cc.plan(b"k"), Plan::Hit(_)));
        let c = cc.counters();
        assert_eq!((c.hits, c.misses), (2, 1), "a hit and a coalesced hit");
        assert_eq!((c.entries, c.capacity, c.evictions), (1, 4, 0));
        cc.abort(b"k", "boom");
        computes(cc.plan(b"k"));
        assert_eq!(cc.counters().misses, 2, "an aborted key misses again");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cc = CoalescingCache::new(2);
        for (key, id) in [(b"a", 1), (b"b", 2)] {
            computes(cc.plan(key));
            cc.commit(key, entry(id));
        }
        // Touch `a` so `b` becomes the LRU; an in-flight key is never
        // evicted and does not count against the bound.
        assert!(matches!(cc.plan(b"a"), Plan::Hit(_)));
        let _pending = computes(cc.plan(b"p"));
        computes(cc.plan(b"c"));
        cc.commit(b"c", entry(3));
        let c = cc.counters();
        assert_eq!((c.entries, c.evictions), (2, 1));
        assert!(matches!(cc.plan(b"b"), Plan::Compute(_)), "b was the LRU");
        assert!(matches!(cc.plan(b"a"), Plan::Hit(_)));
        assert!(matches!(cc.plan(b"c"), Plan::Hit(_)));
        assert_eq!(cc.waiters(b"p"), 1, "the in-flight key survives");
    }
}
