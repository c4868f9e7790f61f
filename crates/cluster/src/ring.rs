//! The consistent-hash ring that gives the router cache affinity.
//!
//! Each backend contributes 32 virtual points on a `u64` ring
//! (FNV-1a of `(backend id, replica index)`); a job's canonical key
//! fingerprint is looked up clockwise to the first point, whose backend
//! is the job's **affine target** — the backend whose semantic cache the
//! key has warmed before and will warm again. Virtual points smooth the
//! load split; consistent hashing keeps the map stable under membership
//! change: removing a backend remaps only the keys that pointed at it,
//! so one crash does not cold-start every surviving cache.
//!
//! [`HashRing::preference`] yields the distinct backends in clockwise
//! order from the key's point — the natural failover order: when the
//! affine target is down or saturated, the next ring successor inherits
//! the key *deterministically*, so retries from concurrent clients
//! converge on the same fallback (which then warms instead of spraying
//! the key across the cluster).

use xag_mc::canon::fingerprint;

/// A consistent-hash ring over backend ids. Cheap to rebuild and to
/// clone; the registry rebuilds it on every membership change.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// `(point, backend id)`, sorted by point.
    points: Vec<(u64, u64)>,
    /// Distinct backend ids on the ring.
    members: usize,
}

/// Virtual points per backend. 32 keeps the largest/smallest arc ratio
/// low single-digit for small clusters while membership changes stay
/// O(replicas · log points).
const REPLICAS: usize = 32;

fn point_of(id: u64, replica: usize) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&id.to_le_bytes());
    bytes[8..].copy_from_slice(&(replica as u64).to_le_bytes());
    fingerprint(&bytes)
}

impl HashRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct backends on the ring.
    pub fn len(&self) -> usize {
        self.members
    }

    /// True iff no backend is on the ring.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a backend's virtual points (idempotent).
    pub fn insert(&mut self, id: u64) {
        if self.points.iter().any(|&(_, b)| b == id) {
            return;
        }
        for r in 0..REPLICAS {
            self.points.push((point_of(id, r), id));
        }
        self.points.sort_unstable();
        self.members += 1;
    }

    /// Removes a backend's virtual points (idempotent).
    pub fn remove(&mut self, id: u64) {
        let before = self.points.len();
        self.points.retain(|&(_, b)| b != id);
        if self.points.len() != before {
            self.members -= 1;
        }
    }

    /// Distinct backends in clockwise order from `hash` — the preference
    /// (failover) order of the key; its first entry is the key's affine
    /// target.
    pub fn preference(&self, hash: u64) -> Vec<u64> {
        let mut seen = Vec::with_capacity(self.members);
        for id in self.successors(hash) {
            if !seen.contains(&id) {
                seen.push(id);
                if seen.len() == self.members {
                    break;
                }
            }
        }
        seen
    }

    /// Ring points clockwise from `hash`, wrapping once (ids repeat).
    fn successors(&self, hash: u64) -> impl Iterator<Item = u64> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        self.points[start..]
            .iter()
            .chain(self.points[..start].iter())
            .map(|&(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The affine target of a key hash: the first backend clockwise.
    fn primary(ring: &HashRing, hash: u64) -> Option<u64> {
        ring.preference(hash).first().copied()
    }

    fn ring_of(ids: &[u64]) -> HashRing {
        let mut ring = HashRing::new();
        for &id in ids {
            ring.insert(id);
        }
        ring
    }

    #[test]
    fn empty_ring_has_no_primary() {
        let ring = HashRing::new();
        assert!(ring.is_empty());
        assert_eq!(primary(&ring, 42), None);
        assert!(ring.preference(42).is_empty());
    }

    #[test]
    fn insert_is_idempotent_and_remove_retracts() {
        let mut ring = ring_of(&[1, 2]);
        ring.insert(1);
        assert_eq!(ring.len(), 2);
        ring.remove(1);
        assert_eq!(ring.len(), 1);
        ring.remove(1);
        assert_eq!(ring.len(), 1);
        // Every key now maps to the only member.
        for k in 0..100u64 {
            assert_eq!(
                primary(&ring, k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                Some(2)
            );
        }
    }

    #[test]
    fn preference_lists_every_member_exactly_once() {
        let ring = ring_of(&[1, 2, 3, 4]);
        for k in 0..50u64 {
            let pref = ring.preference(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2, 3, 4], "key {k}: {pref:?}");
        }
    }

    #[test]
    fn load_split_is_roughly_balanced() {
        let ring = ring_of(&[1, 2, 3, 4]);
        let mut counts = [0usize; 5];
        let keys = 4000u64;
        for k in 0..keys {
            let id = primary(&ring, k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).unwrap();
            counts[id as usize] += 1;
        }
        for (id, &count) in counts.iter().enumerate().skip(1) {
            let share = count as f64 / keys as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "backend {id} owns {share:.2} of the keys"
            );
        }
    }

    #[test]
    fn removal_only_remaps_keys_of_the_removed_backend() {
        let full = ring_of(&[1, 2, 3, 4]);
        let mut reduced = full.clone();
        reduced.remove(3);
        for k in 0..2000u64 {
            let hash = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let before = primary(&full, hash).unwrap();
            let after = primary(&reduced, hash).unwrap();
            if before != 3 {
                assert_eq!(before, after, "key {k} moved although its backend survived");
            } else {
                assert_ne!(after, 3);
            }
        }
    }

    #[test]
    fn failover_order_is_the_ring_successor() {
        let ring = ring_of(&[1, 2, 3]);
        for k in 0..200u64 {
            let hash = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let pref = ring.preference(hash);
            // Removing the primary promotes exactly the second choice.
            let mut without = ring.clone();
            without.remove(pref[0]);
            assert_eq!(primary(&without, hash), Some(pref[1]), "key {k}");
        }
    }
}
