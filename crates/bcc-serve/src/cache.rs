//! The quantized-state decision cache: a bounded, set-associative,
//! open-addressing table with LRU eviction inside each probe window.
//!
//! This generalizes the kernel's per-context `LinkCaps` memo (which
//! remembers one operating point) into a shared store of *decisions*
//! keyed by [`QuantKey`]. The table is a flat `Vec` of slots probed
//! linearly over a window of [`WAYS`] slots anchored at the key's hash —
//! no per-entry allocation, no pointer chasing, and a worst-case probe
//! cost of eight comparisons. When a window is full the least-recently
//! used entry *within that window* is evicted, so occupancy can never
//! exceed capacity and a hot key is never displaced by cold traffic in a
//! different window.
//!
//! The cache stores [`Outcome`]s, not just decisions: proven QoS
//! infeasibility at a quantized key is as cacheable as a winning
//! protocol, and serving it from the cache skips the full per-protocol
//! feasibility sweep.
//!
//! # Integrity
//!
//! Every entry carries a checksum over its key and outcome bits,
//! verified on each hit. A mismatch — which the deterministic chaos
//! plans inject via [`DecisionCache::insert_corrupted`], and which in
//! production would mean a memory fault — invalidates the entry and
//! reports a miss instead of serving a corrupted decision; the caller
//! re-solves and the answer stream stays correct. Detections are
//! counted in [`DecisionCache::corruptions_detected`].

use crate::quant::QuantKey;
use crate::query::DecisionCore;

/// Associativity: how many consecutive slots one key may occupy or probe.
pub const WAYS: usize = 8;

/// The cached result of solving one quantized query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The selection succeeded with this winning operating point.
    Decided(DecisionCore),
    /// The QoS floor was proven unachievable by every protocol.
    Infeasible,
}

impl Outcome {
    /// Folds the outcome's exact bit content into a 64-bit word for the
    /// entry checksum (SplitMix64-style finalisers over every field, so
    /// any single-bit flip changes the digest).
    fn fold_bits(&self) -> u64 {
        fn mix(mut h: u64, w: u64) -> u64 {
            let mut z = h ^ w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
            h
        }
        match self {
            Outcome::Infeasible => 0x1BFE_A51B_1E00_0001,
            Outcome::Decided(core) => {
                let mut h = mix(0x0DEC_1DED, core.protocol as u64);
                h = mix(h, core.sum_rate.to_bits());
                h = mix(h, core.ra.to_bits());
                h = mix(h, core.rb.to_bits());
                for &d in core.durations.as_slice() {
                    h = mix(h, d.to_bits());
                }
                mix(h, core.durations.as_slice().len() as u64)
            }
        }
    }
}

/// The entry checksum: the key's digest (`hash` is
/// [`QuantKey::hash64`]) mixed with the outcome's bit content.
fn checksum(hash: u64, outcome: &Outcome) -> u64 {
    hash ^ outcome.fold_bits().rotate_left(17)
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: QuantKey,
    outcome: Outcome,
    last_used: u64,
    /// Integrity digest over `key` and `outcome`, verified on every hit.
    checksum: u64,
}

/// A bounded LRU cache from quantized query keys to solve outcomes.
#[derive(Debug)]
pub struct DecisionCache {
    slots: Vec<Option<Entry>>,
    mask: usize,
    tick: u64,
    len: usize,
    evictions: u64,
    corruptions_detected: u64,
}

impl DecisionCache {
    /// Creates a cache holding at most `capacity` entries (rounded up to
    /// a power of two, minimum [`WAYS`]).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(WAYS);
        DecisionCache {
            slots: vec![None; cap],
            mask: cap - 1,
            tick: 0,
            len: 0,
            evictions: 0,
            corruptions_detected: 0,
        }
    }

    /// The maximum number of entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The number of entries currently stored (never exceeds capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many entries have been evicted to make room since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// How many hits found a checksum mismatch and were invalidated
    /// instead of served (see the module docs on integrity).
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions_detected
    }

    /// Looks up `key`, refreshing its recency on a hit.
    ///
    /// A probe hashes the key once: the one [`QuantKey::hash64`] anchors
    /// the probe window and verifies the hit's checksum.
    ///
    /// The whole window is probed even past empty slots: eviction can
    /// punch holes between an anchor and a surviving entry, so an empty
    /// slot does not prove absence. A hit whose checksum does not verify
    /// is invalidated and reported as a miss — a corrupted decision is
    /// never served.
    pub fn get(&mut self, key: &QuantKey) -> Option<Outcome> {
        let hash = key.hash64();
        let anchor = hash as usize;
        for i in 0..WAYS {
            let idx = (anchor + i) & self.mask;
            if let Some(entry) = &mut self.slots[idx] {
                if entry.key == *key {
                    if entry.checksum != checksum(hash, &entry.outcome) {
                        self.slots[idx] = None;
                        self.len -= 1;
                        self.corruptions_detected += 1;
                        return None;
                    }
                    self.tick += 1;
                    entry.last_used = self.tick;
                    return Some(entry.outcome);
                }
            }
        }
        None
    }

    /// Inserts (or refreshes) `key → outcome`. If the key's probe window
    /// is full, the least-recently-used entry in the window is evicted.
    pub fn insert(&mut self, key: QuantKey, outcome: Outcome) {
        self.insert_with_checksum(key, outcome, 0);
    }

    /// Inserts `key → outcome` with a deliberately wrong checksum — the
    /// deterministic chaos hook modelling a memory fault between write
    /// and read. The next [`get`](DecisionCache::get) of the key detects
    /// the mismatch, invalidates the entry and reports a miss.
    pub fn insert_corrupted(&mut self, key: QuantKey, outcome: Outcome) {
        self.insert_with_checksum(key, outcome, 0x0001_0000_0000_0001);
    }

    /// Stores `key → outcome` under the entry checksum XOR `flip` (zero
    /// for a clean entry), hashing the key once for both.
    fn insert_with_checksum(&mut self, key: QuantKey, outcome: Outcome, flip: u64) {
        self.tick += 1;
        let hash = key.hash64();
        let digest = checksum(hash, &outcome) ^ flip;
        let anchor = hash as usize;
        let mut empty: Option<usize> = None;
        let mut lru: usize = anchor & self.mask;
        let mut lru_used = u64::MAX;
        for i in 0..WAYS {
            let idx = (anchor + i) & self.mask;
            match &self.slots[idx] {
                Some(entry) => {
                    if entry.key == key {
                        self.slots[idx] = Some(Entry {
                            key,
                            outcome,
                            last_used: self.tick,
                            checksum: digest,
                        });
                        return;
                    }
                    if entry.last_used < lru_used {
                        lru_used = entry.last_used;
                        lru = idx;
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(idx);
                    }
                }
            }
        }
        let idx = match empty {
            Some(idx) => {
                self.len += 1;
                idx
            }
            None => {
                self.evictions += 1;
                lru
            }
        };
        self.slots[idx] = Some(Entry {
            key,
            outcome,
            last_used: self.tick,
            checksum: digest,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantSpec;
    use crate::query::Query;
    use bcc_channel::{ChannelState, PowerSplit};
    use bcc_core::constraint::PhaseVec;
    use bcc_core::protocol::Protocol;

    fn key_for(gab: f64) -> QuantKey {
        let q = Query::new(
            ChannelState::new(gab, 1.0, 1.0),
            PowerSplit::symmetric(10.0),
        );
        QuantSpec::strict().key(&q)
    }

    fn outcome(rate: f64) -> Outcome {
        Outcome::Decided(DecisionCore {
            protocol: Protocol::DirectTransmission,
            sum_rate: rate,
            ra: rate / 2.0,
            rb: rate / 2.0,
            durations: PhaseVec::from([1.0, 0.0]),
        })
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let mut cache = DecisionCache::with_capacity(64);
        let k = key_for(1.0);
        assert_eq!(cache.get(&k), None);
        cache.insert(k, outcome(2.0));
        assert_eq!(cache.get(&k), Some(outcome(2.0)));
        // Overwrite refreshes in place, no growth.
        cache.insert(k, outcome(3.0));
        assert_eq!(cache.get(&k), Some(outcome(3.0)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn infeasible_outcomes_are_first_class_citizens() {
        let mut cache = DecisionCache::with_capacity(64);
        let k = key_for(0.5);
        cache.insert(k, Outcome::Infeasible);
        assert_eq!(cache.get(&k), Some(Outcome::Infeasible));
    }

    #[test]
    fn occupancy_is_bounded_and_evictions_are_counted() {
        let mut cache = DecisionCache::with_capacity(WAYS); // minimum size
        assert_eq!(cache.capacity(), WAYS);
        for i in 0..10 * WAYS {
            cache.insert(key_for(1.0 + i as f64), outcome(i as f64));
            assert!(cache.len() <= cache.capacity());
        }
        // With capacity == WAYS every window is the whole table, so all
        // inserts past the first WAYS must have evicted.
        assert_eq!(cache.evictions(), (10 * WAYS - WAYS) as u64);
        assert_eq!(cache.len(), WAYS);
    }

    #[test]
    fn lru_within_window_evicts_the_coldest_entry() {
        // capacity == WAYS: one shared window, full LRU semantics.
        let mut cache = DecisionCache::with_capacity(WAYS);
        let keys: Vec<_> = (0..WAYS).map(|i| key_for(1.0 + i as f64)).collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.insert(k, outcome(i as f64));
        }
        // Touch everything except keys[3], making it the LRU.
        for (i, &k) in keys.iter().enumerate() {
            if i != 3 {
                assert!(cache.get(&k).is_some());
            }
        }
        let newcomer = key_for(100.0);
        cache.insert(newcomer, outcome(99.0));
        assert_eq!(cache.get(&keys[3]), None, "the LRU entry was evicted");
        assert!(cache.get(&newcomer).is_some());
        for (i, &k) in keys.iter().enumerate() {
            if i != 3 {
                assert!(cache.get(&k).is_some(), "hot entry {i} survived");
            }
        }
    }

    #[test]
    fn lookups_survive_holes_punched_by_eviction() {
        let mut cache = DecisionCache::with_capacity(WAYS);
        for i in 0..2 * WAYS {
            cache.insert(key_for(1.0 + i as f64), outcome(i as f64));
        }
        // Everything inserted in the last full round is still findable
        // even though earlier evictions reordered the window.
        let mut found = 0;
        for i in 0..2 * WAYS {
            if cache.get(&key_for(1.0 + i as f64)).is_some() {
                found += 1;
            }
        }
        assert_eq!(found, WAYS, "exactly one table's worth survives");
    }

    #[test]
    fn corrupted_entries_are_detected_and_invalidated_not_served() {
        let mut cache = DecisionCache::with_capacity(64);
        let k = key_for(2.0);
        cache.insert_corrupted(k, outcome(1.25));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.corruptions_detected(), 0);
        // The read detects the bad checksum, drops the entry and misses.
        assert_eq!(cache.get(&k), None);
        assert_eq!(cache.corruptions_detected(), 1);
        assert_eq!(cache.len(), 0, "the corrupted entry was invalidated");
        // A clean re-insert heals the key.
        cache.insert(k, outcome(1.25));
        assert_eq!(cache.get(&k), Some(outcome(1.25)));
        assert_eq!(cache.corruptions_detected(), 1);
    }

    #[test]
    fn checksum_distinguishes_outcomes_and_keys() {
        let k1 = key_for(3.0);
        let k2 = key_for(4.0);
        let (h1, h2) = (k1.hash64(), k2.hash64());
        assert_ne!(checksum(h1, &outcome(1.0)), checksum(h1, &outcome(2.0)));
        assert_ne!(checksum(h1, &outcome(1.0)), checksum(h2, &outcome(1.0)));
        assert_ne!(
            checksum(h1, &outcome(1.0)),
            checksum(h1, &Outcome::Infeasible)
        );
        // Duration bits matter too (same rates, different schedule).
        let mut core = match outcome(1.0) {
            Outcome::Decided(c) => c,
            Outcome::Infeasible => unreachable!(),
        };
        let base = checksum(h1, &Outcome::Decided(core));
        core.durations = PhaseVec::from([0.5, 0.5]);
        assert_ne!(base, checksum(h1, &Outcome::Decided(core)));
    }
}
