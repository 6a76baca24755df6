//! Sharded LRU cache of adaptation results.
//!
//! Keys are 64-bit canonical hashes (see [`AdaptCache::key`]) combining the
//! circuit's structural hash, the hardware fingerprint, and the solve
//! options, so structurally identical jobs hit the same entry regardless of
//! textual gate order or which worker solved them first.
//!
//! The cache is sharded by key to keep lock contention negligible: each
//! shard is an independent [`Mutex`] around a small move-to-front LRU list
//! (shards are bounded, so the O(len) scan per access is a handful of word
//! compares). A shard poisoned by a panicking holder stays usable: its
//! entries are whole `(key, Arc)` pairs, so no invariant can be half-written.

use qca_adapt::{AdaptLimits, AdaptOptions, Adaptation, Objective};
use qca_circuit::hash::{structural_hash, Fnv64};
use qca_circuit::Circuit;
use qca_hw::HardwareModel;
use qca_smt::omt::Strategy;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independent shards (power of two; key's low bits select one).
const NUM_SHARDS: usize = 16;

/// One shard: most-recently-used entry first.
#[derive(Default)]
struct Shard {
    entries: Vec<(u64, Arc<Adaptation>)>,
}

/// Sharded LRU map from canonical job keys to finished adaptations.
///
/// Entries are stored behind [`Arc`] so a hit never deep-copies the adapted
/// circuit; clones are reference bumps.
pub struct AdaptCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl std::fmt::Debug for AdaptCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl AdaptCache {
    /// Canonical cache key of an adaptation request.
    ///
    /// Combines everything that determines the solve's result:
    ///
    /// * the circuit's [`structural_hash`] (invariant under commuting
    ///   same-layer reorderings and symmetric-gate operand swaps),
    /// * the hardware model's cost
    ///   [`fingerprint`](HardwareModel::fingerprint) (invariant under
    ///   renaming),
    /// * the objective, OMT strategy, rule selection, exactness,
    ///   certification (a certified solve carries verification data an
    ///   uncertified one lacks), and the effective total-conflict budget (a
    ///   budget-degraded incumbent must not be served to a job that would
    ///   search further).
    ///
    /// Cancellation flags and tracers are deliberately excluded: they affect
    /// *whether* a result is produced, never *which* result.
    pub fn key(
        circuit: &Circuit,
        hw: &HardwareModel,
        options: &AdaptOptions,
        limits: &AdaptLimits,
    ) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(structural_hash(circuit));
        h.write_u64(hw.fingerprint());
        h.write_u64(match options.objective {
            Objective::Fidelity => 1,
            Objective::IdleTime => 2,
            Objective::Combined => 3,
        });
        h.write_u64(match options.strategy {
            Strategy::BinarySearch => 1,
            Strategy::LinearSearch => 2,
        });
        h.write_u64(options.exact as u64);
        h.write_u64(options.certify as u64);
        let r = &options.rules;
        h.write_u64(r.kak_cz as u64);
        h.write_u64(r.kak_cz_diabatic as u64);
        h.write_u64(r.conditional_rotation as u64);
        h.write_u64(r.swaps as u64);
        h.write_usize(r.max_match_len);
        h.write_u64(r.optimized_kak as u64);
        match limits.total_conflicts {
            None => h.write_u64(0),
            Some(budget) => {
                h.write_u64(1);
                h.write_u64(budget);
            }
        }
        // Topology: the all-to-all default (None) and every explicit map
        // hash differently, since routing changes the solved model.
        match &options.coupling {
            None => h.write_u64(0),
            Some(cm) => {
                h.write_u64(1);
                h.write_u64(cm.fingerprint());
            }
        }
        h.finish()
    }

    /// A cache holding at most `capacity` adaptations (rounded up to a
    /// multiple of the shard count; a zero capacity disables caching).
    pub fn new(capacity: usize) -> AdaptCache {
        AdaptCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(NUM_SHARDS),
        }
    }

    fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(key as usize) & (NUM_SHARDS - 1)])
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<Adaptation>> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self.shard(key);
        let pos = shard.entries.iter().position(|&(k, _)| k == key)?;
        let entry = shard.entries.remove(pos);
        let value = entry.1.clone();
        shard.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
    /// of its shard when full.
    pub fn insert(&self, key: u64, value: Arc<Adaptation>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(key);
        if let Some(pos) = shard.entries.iter().position(|&(k, _)| k == key) {
            shard.entries.remove(pos);
        }
        shard.entries.insert(0, (key, value));
        while shard.entries.len() > self.per_shard_capacity {
            shard.entries.pop();
        }
    }

    /// Number of cached adaptations across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Per-shard `(occupancy, capacity)` pairs, in shard order; feeds the
    /// serve tier's `/metrics` cache section.
    pub fn shard_stats(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(|s| (lock(s).entries.len(), self.per_shard_capacity))
            .collect()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            lock(s).entries.clear();
        }
    }
}

/// Locks one shard, recovering it if a previous holder panicked.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_adapt::{adapt, AdaptContext};
    use qca_circuit::Gate;
    use qca_hw::{spin_qubit_model, GateTimes};

    fn sample_adaptation() -> Arc<Adaptation> {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        let hw = spin_qubit_model(GateTimes::D0);
        Arc::new(adapt(&c, &hw, &AdaptContext::default()).unwrap())
    }

    fn sample() -> (Circuit, HardwareModel) {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cz, &[1, 2]);
        (c, spin_qubit_model(GateTimes::D0))
    }

    #[test]
    fn key_is_stable_across_calls() {
        let (c, hw) = sample();
        let o = AdaptOptions::default();
        let l = AdaptLimits::default();
        assert_eq!(
            AdaptCache::key(&c, &hw, &o, &l),
            AdaptCache::key(&c, &hw, &o, &l)
        );
    }

    #[test]
    fn key_depends_on_objective_and_hardware() {
        let (c, hw) = sample();
        let l = AdaptLimits::default();
        let base = AdaptCache::key(&c, &hw, &AdaptOptions::default(), &l);
        let idle_opts = AdaptOptions {
            objective: Objective::IdleTime,
            ..AdaptOptions::default()
        };
        assert_ne!(base, AdaptCache::key(&c, &hw, &idle_opts, &l));
        let hw1 = spin_qubit_model(GateTimes::D1);
        assert_ne!(
            base,
            AdaptCache::key(&c, &hw1, &AdaptOptions::default(), &l)
        );
    }

    #[test]
    fn key_depends_on_certification() {
        // A certified adaptation carries verification data; serving it for
        // an uncertified request (or vice versa) would be wrong.
        let (c, hw) = sample();
        let l = AdaptLimits::default();
        let base = AdaptCache::key(&c, &hw, &AdaptOptions::default(), &l);
        let certified = AdaptOptions {
            certify: true,
            ..AdaptOptions::default()
        };
        assert_ne!(base, AdaptCache::key(&c, &hw, &certified, &l));
    }

    #[test]
    fn key_depends_on_budget_presence_and_value() {
        let (c, hw) = sample();
        let o = AdaptOptions::default();
        let unlimited = AdaptCache::key(&c, &hw, &o, &AdaptLimits::default());
        let small = AdaptCache::key(
            &c,
            &hw,
            &o,
            &AdaptLimits {
                total_conflicts: Some(100),
            },
        );
        let large = AdaptCache::key(
            &c,
            &hw,
            &o,
            &AdaptLimits {
                total_conflicts: Some(200),
            },
        );
        assert_ne!(unlimited, small);
        assert_ne!(small, large);
    }

    #[test]
    fn key_depends_on_coupling_map() {
        use qca_hw::CouplingMap;
        let (c, hw) = sample();
        let l = AdaptLimits::default();
        let base = AdaptCache::key(&c, &hw, &AdaptOptions::default(), &l);
        let line = AdaptOptions {
            coupling: Some(CouplingMap::line(3)),
            ..AdaptOptions::default()
        };
        let star = AdaptOptions {
            coupling: Some(CouplingMap::star(3)),
            ..AdaptOptions::default()
        };
        let line_key = AdaptCache::key(&c, &hw, &line, &l);
        let star_key = AdaptCache::key(&c, &hw, &star, &l);
        assert_ne!(base, line_key);
        assert_ne!(base, star_key);
        assert_ne!(line_key, star_key);
        // An explicit all-to-all map is a different key from None: the
        // results are bit-identical, but key conservatism is cheap.
        let full = AdaptOptions {
            coupling: Some(CouplingMap::all_to_all(3)),
            ..AdaptOptions::default()
        };
        assert_ne!(base, AdaptCache::key(&c, &hw, &full, &l));
    }

    #[test]
    fn structurally_equal_circuits_share_a_key() {
        let hw = spin_qubit_model(GateTimes::D0);
        let mut a = Circuit::new(3);
        a.push(Gate::H, &[0]);
        a.push(Gate::Cz, &[1, 2]);
        let mut b = Circuit::new(3);
        b.push(Gate::Cz, &[2, 1]);
        b.push(Gate::H, &[0]);
        let o = AdaptOptions::default();
        let l = AdaptLimits::default();
        assert_eq!(
            AdaptCache::key(&a, &hw, &o, &l),
            AdaptCache::key(&b, &hw, &o, &l)
        );
    }

    #[test]
    fn get_returns_inserted_value() {
        let cache = AdaptCache::new(64);
        let v = sample_adaptation();
        cache.insert(7, v.clone());
        let hit = cache.get(7).expect("hit");
        assert!(Arc::ptr_eq(&hit, &v));
        assert!(cache.get(8).is_none());
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Capacity 16 => one slot per shard; keys 0 and 16 share shard 0.
        let cache = AdaptCache::new(16);
        let v = sample_adaptation();
        cache.insert(0, v.clone());
        cache.insert(16, v.clone());
        assert!(cache.get(0).is_none(), "older entry evicted");
        assert!(cache.get(16).is_some());
    }

    #[test]
    fn recency_refresh_protects_entry() {
        // Two slots in shard 0 (capacity 32): touching key 0 makes key 16
        // the LRU victim when 32 arrives.
        let cache = AdaptCache::new(32);
        let v = sample_adaptation();
        cache.insert(0, v.clone());
        cache.insert(16, v.clone());
        assert!(cache.get(0).is_some());
        cache.insert(32, v.clone());
        assert!(cache.get(0).is_some());
        assert!(cache.get(16).is_none());
        assert!(cache.get(32).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = AdaptCache::new(0);
        cache.insert(1, sample_adaptation());
        assert!(cache.get(1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn shard_stats_report_occupancy_and_capacity() {
        let cache = AdaptCache::new(32); // two slots per shard
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 16);
        assert!(stats.iter().all(|&(n, cap)| n == 0 && cap == 2));
        let v = sample_adaptation();
        cache.insert(0, v.clone()); // shard 0
        cache.insert(16, v.clone()); // shard 0
        cache.insert(1, v); // shard 1
        let stats = cache.shard_stats();
        assert_eq!(stats[0], (2, 2));
        assert_eq!(stats[1], (1, 2));
        assert_eq!(stats[2], (0, 2));
        let total: usize = stats.iter().map(|&(n, _)| n).sum();
        assert_eq!(total, cache.len());
    }

    #[test]
    fn reinsert_same_key_keeps_single_entry() {
        let cache = AdaptCache::new(64);
        let v = sample_adaptation();
        cache.insert(3, v.clone());
        cache.insert(3, v);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panic_inside_a_shard_lock_leaves_the_cache_usable() {
        let cache = AdaptCache::new(64);
        let v = sample_adaptation();
        cache.insert(0, v.clone());
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock(&cache.shards[0]);
            panic!("holder panics with shard 0 locked");
        }));
        assert!(poisoned.is_err());
        assert!(cache.shards[0].is_poisoned());
        assert!(Arc::ptr_eq(&cache.get(0).expect("hit after poison"), &v));
        cache.insert(16, v);
        assert_eq!(cache.len(), 2);
    }
}
