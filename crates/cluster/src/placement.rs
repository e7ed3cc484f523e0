//! Request placement for the fleet router: consistent-hash session
//! affinity.
//!
//! A client's requests keep landing on the same replica (64 virtual
//! nodes per replica on a hash ring), so the enclave session it attested
//! is where its frames arrive, the *last-x* window that replica
//! accumulates stays coherent with that client's recent traffic, and a
//! membership change only remaps the keys adjacent to the changed
//! replica. Affinity is not optional — the framed front routes every
//! frame independently, so a policy without it would land a request on a
//! replica that holds no such session.

use crate::registry::ReplicaId;
use xsearch_crypto::sha256::Sha256;

/// Virtual nodes per replica on the consistent-hash ring.
pub(crate) const VNODES: usize = 64;

/// First 8 bytes of a domain-separated SHA-256, as the ring coordinate.
fn hash64(domain: &[u8], parts: &[&[u8]]) -> u64 {
    let mut h = Sha256::new();
    h.update(domain);
    for p in parts {
        h.update(p);
    }
    let digest = h.finalize();
    u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
}

/// The ring coordinate of an affinity key. It depends on the key alone,
/// so a caller that routes one key many times — a framed connection, a
/// frame at a time — computes it once and walks from it
/// ([`HashRing::walk_from_coord`]).
#[must_use]
pub fn key_coord(key: &[u8]) -> u64 {
    hash64(b"xsearch-ring-key-v1", &[key])
}

/// A consistent-hash ring over the currently routable replicas.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted (coordinate, replica) points; each replica contributes
    /// `vnodes` points.
    points: Vec<(u64, ReplicaId)>,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual nodes per replica.
    #[must_use]
    pub fn build(ids: &[ReplicaId], vnodes: usize) -> Self {
        let mut points = Vec::with_capacity(ids.len() * vnodes);
        for &id in ids {
            for v in 0..vnodes {
                points.push((vnode_coord(id, v as u64), id));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// Distinct replicas in clockwise order starting at `id`'s **primary
    /// vnode coordinate** (vnode 0) — the failover walk: element 0 is
    /// the replica that now owns the failed replica's primary point,
    /// i.e. its designated successor. Works whether or not `id` is still
    /// on the ring (the coordinate is derived, not looked up).
    pub fn walk_from_replica(&self, id: ReplicaId) -> impl Iterator<Item = ReplicaId> + '_ {
        self.walk_from_coord(vnode_coord(id, 0))
    }

    /// Distinct replicas in clockwise order starting at `coord` — for a
    /// key's [`key_coord`], element 0 is the key's owner, then the
    /// replicas that would take it over as earlier candidates drop out.
    pub fn walk_from_coord(&self, coord: u64) -> impl Iterator<Item = ReplicaId> + '_ {
        let start = self.points.partition_point(|&(c, _)| c < coord);
        let n = self.points.len();
        let mut seen: Vec<ReplicaId> = Vec::new();
        (0..n).filter_map(move |i| {
            let (_, id) = self.points[(start + i) % n];
            if seen.contains(&id) {
                None
            } else {
                seen.push(id);
                Some(id)
            }
        })
    }
}

/// The ring coordinate of one of `id`'s virtual nodes.
fn vnode_coord(id: ReplicaId, vnode: u64) -> u64 {
    hash64(
        b"xsearch-ring-vnode-v1",
        &[&(id.0 as u64).to_le_bytes(), &vnode.to_le_bytes()],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ids(n: usize) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId).collect()
    }

    /// The replica owning `key`: the first point clockwise from its
    /// coordinate.
    fn owner(ring: &HashRing, key: &[u8]) -> Option<ReplicaId> {
        ring.walk_from_coord(key_coord(key)).next()
    }

    #[test]
    fn lookup_is_deterministic_and_total() {
        let ring = HashRing::build(&ids(4), 64);
        for i in 0..100u64 {
            let key = i.to_le_bytes();
            let a = owner(&ring, &key).unwrap();
            let b = owner(&ring, &key).unwrap();
            assert_eq!(a, b);
            assert!(a.0 < 4);
        }
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::build(&[], 64);
        assert_eq!(owner(&ring, b"key"), None);
    }

    #[test]
    fn load_spreads_over_replicas() {
        let ring = HashRing::build(&ids(4), 64);
        let mut counts: HashMap<ReplicaId, usize> = HashMap::new();
        for i in 0..4000u64 {
            *counts
                .entry(owner(&ring, &i.to_le_bytes()).unwrap())
                .or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "every replica owns some keys");
        for (&id, &c) in &counts {
            assert!(
                (400..=2200).contains(&c),
                "replica {id} owns {c} of 4000 keys — too skewed"
            );
        }
    }

    #[test]
    fn removing_a_replica_only_remaps_its_keys() {
        let before = HashRing::build(&ids(4), 64);
        let after = HashRing::build(&ids(3), 64); // replica 3 removed
        let mut moved = 0;
        for i in 0..4000u64 {
            let key = i.to_le_bytes();
            let owner_before = owner(&before, &key).unwrap();
            let owner_after = owner(&after, &key).unwrap();
            if owner_before != owner_after {
                moved += 1;
                assert_eq!(
                    owner_before,
                    ReplicaId(3),
                    "only the removed replica's keys may move"
                );
            }
        }
        assert!(moved > 0, "the removed replica owned something");
        assert!(moved < 2000, "roughly a quarter of keys move, not half+");
    }

    #[test]
    fn walk_from_replica_finds_the_primary_point_inheritor() {
        let full = HashRing::build(&ids(4), 64);
        let without3 = HashRing::build(&ids(3), 64); // replica 3 drained
                                                     // The designated successor is whoever owns replica 3's primary
                                                     // vnode coordinate once 3 is gone — the same replica that comes
                                                     // right after 3's own point on the full ring.
        let successor = without3.walk_from_replica(ReplicaId(3)).next().unwrap();
        let expected = full
            .walk_from_replica(ReplicaId(3))
            .find(|&id| id != ReplicaId(3))
            .unwrap();
        assert_eq!(successor, expected);
        // And on the full ring the walk starts at the replica itself
        // (its own primary point owns the coordinate).
        assert_eq!(
            full.walk_from_replica(ReplicaId(3)).next(),
            Some(ReplicaId(3))
        );
    }

    use proptest::prelude::*;

    proptest! {
        /// The snapshot-remap invariant the router depends on:
        /// publishing a ring with one member removed only changes the
        /// owner of keys the removed member held — every other client's
        /// affinity is untouched, so a membership change never causes a
        /// fleet-wide session reshuffle.
        #[test]
        fn ring_snapshots_only_remap_the_changed_replicas_keys(
            raw_members in proptest::collection::vec(0usize..24, 2..=10),
            victim_pick in proptest::any::<u64>(),
            vnodes in 1usize..96,
        ) {
            let mut members: Vec<ReplicaId> =
                raw_members.into_iter().map(ReplicaId).collect();
            members.sort_unstable();
            members.dedup();
            prop_assume!(members.len() >= 2);
            let victim = members[victim_pick as usize % members.len()];
            let survivors: Vec<ReplicaId> =
                members.iter().copied().filter(|&id| id != victim).collect();

            let before = HashRing::build(&members, vnodes);
            let after = HashRing::build(&survivors, vnodes);
            let mut moved = 0usize;
            for i in 0..512u64 {
                let key = i.to_le_bytes();
                let owner_before = owner(&before, &key).unwrap();
                let owner_after = owner(&after, &key).unwrap();
                if owner_before != owner_after {
                    moved += 1;
                    prop_assert_eq!(owner_before, victim);
                    // And the key's new owner is exactly the next live
                    // replica clockwise on the old ring — the successor
                    // the failover walk designates.
                    let inherited = before
                        .walk_from_coord(key_coord(&key))
                        .find(|&id| id != victim)
                        .unwrap();
                    prop_assert_eq!(owner_after, inherited);
                } else {
                    prop_assert_ne!(owner_after, victim);
                }
            }
            // Keys the victim owned did move (unless it owned none of
            // our sample, which vnodes ≥ 1 over 512 keys makes rare but
            // possible for tiny vnode counts — so only sanity-bound it).
            prop_assert!(moved <= 512);
        }
    }

    #[test]
    fn walk_yields_distinct_replicas_in_order() {
        let ring = HashRing::build(&ids(4), 64);
        let coord = key_coord(b"some client");
        let walked: Vec<ReplicaId> = ring.walk_from_coord(coord).collect();
        assert_eq!(walked.len(), 4);
        let mut sorted = walked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "walk must not repeat replicas");
        // Element 0 holds the first point at or past the coordinate
        // (wrapping round to the ring's first point).
        let first = ring.points.iter().find(|&&(c, _)| c >= coord);
        assert_eq!(walked[0], first.unwrap_or(&ring.points[0]).1);
    }
}
