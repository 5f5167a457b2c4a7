//! Thread-safe memoization of expensive discrete model sub-terms.
//!
//! The ACT model's costliest scalar sub-terms are drawn from small discrete
//! domains: carbon-per-area (eq. 5) is a function of `(ProcessNode, fab
//! carbon intensity, gas abatement, yield)` and per-device storage
//! footprints (eqs. 6–8) of `(technology, capacity)`. Sweeps and
//! Monte-Carlo runs re-derive the same handful of values millions of times;
//! this module interns them in sharded [`RwLock`] caches so repeated
//! configurations hit a hash lookup instead of the full derivation.
//!
//! Every cached function is **pure**: the key fully determines the value
//! (f64 inputs are keyed by their exact bit pattern via
//! [`f64::to_bits`]), so there is no invalidation story — entries never
//! go stale, and a racing double-compute inserts the identical bits.
//! Cached values are bit-for-bit identical to the uncached computation,
//! which the property tests in `crates/core/tests/compiled.rs` pin.
//!
//! [`set_enabled`]`(false)` turns every helper into a pass-through to the
//! underlying computation, which the property tests and the `compiled`
//! bench use to compare against the uncached path; results are unchanged
//! either way.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

use act_data::{Abatement, DramTechnology, HddModel, ProcessNode, SsdTechnology};
use act_units::{Capacity, MassCo2, MassPerArea};

use crate::FabScenario;

/// Shard count for [`MemoCache`]. A small power of two: the cached domains
/// hold at most a few hundred entries, so this is about spreading lock
/// contention across sweep threads, not about capacity.
const SHARDS: usize = 16;

/// Default per-shard entry cap for [`MemoCache::new`]. The intended
/// domains are small and discrete (process nodes × abatement levels ×
/// a handful of yields), so
/// well-behaved workloads never approach it; the cap exists so an
/// adversarial workload — a Monte-Carlo run keying on a continuous draw,
/// say — degrades to pass-through computation instead of growing the
/// process without bound. 4096 × 16 shards ≈ 64 K entries worst case.
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// A small thread-safe memoization cache: a fixed array of
/// [`RwLock`]-guarded hash maps, sharded by key hash.
///
/// Lookups take a shard read lock; only a miss takes the write lock, and
/// the value is computed *outside* any lock, so two threads may race to
/// compute the same entry — the first insert wins, which is safe because
/// every cached function is pure. Hit/miss counters are kept with relaxed
/// atomics for observability.
///
/// Occupancy is **bounded**: each shard caps its entry count (default
/// [`DEFAULT_SHARD_CAPACITY`] via [`MemoCache::new`], explicit via
/// [`MemoCache::with_shard_capacity`]). Once a shard is full, further
/// distinct keys are computed and returned without being interned —
/// results are unchanged, the cache just stops absorbing new keys — and
/// counted in [`MemoStats::rejected_inserts`].
///
/// # Examples
///
/// ```
/// use act_core::memo::MemoCache;
///
/// let cache: MemoCache<u32, f64> = MemoCache::new();
/// assert_eq!(cache.get_or_insert_with(7, || 1.5), 1.5);
/// assert_eq!(cache.get_or_insert_with(7, || unreachable!()), 1.5);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARDS],
    /// Entry cap per shard; full shards bypass insertion (pass-through).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

/// Observed hit/miss/occupancy counters of a [`MemoCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Distinct keys currently interned.
    pub entries: usize,
    /// Computed values NOT interned because their shard was at capacity.
    /// A growing count means the workload's key domain has outgrown the
    /// cache — results stay correct, the cache just stops paying off.
    pub rejected_inserts: u64,
    /// Upper bound on `entries` (shard capacity × shard count).
    pub capacity: usize,
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        Self::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }
}

impl<K, V> MemoCache<K, V> {
    /// Creates an empty cache with an explicit per-shard entry cap.
    /// A cap of zero disables interning entirely (every lookup computes).
    #[must_use]
    pub fn with_shard_capacity(shard_capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }
}

impl<K: Hash + Eq, V: Copy> MemoCache<K, V> {
    /// Creates an empty cache with the default bound
    /// ([`DEFAULT_SHARD_CAPACITY`] entries per shard).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        // Truncation is fine: only the low bits pick one of SHARDS buckets.
        #[allow(clippy::cast_possible_truncation)]
        let index = hasher.finish() as usize % SHARDS;
        &self.shards[index]
    }

    /// Returns the interned value for `key`, computing and inserting it on
    /// first use. `compute` runs outside the shard locks; under a race the
    /// first inserted value wins (callers must pass pure functions). When
    /// the key's shard is at capacity the computed value is returned
    /// WITHOUT being interned, so memory stays bounded no matter how many
    /// distinct keys a workload produces.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
        {
            let guard = shard.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(value) = guard.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return *value;
            }
        }
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
        if guard.len() >= self.shard_capacity && !guard.contains_key(&key) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        *guard.entry(key).or_insert(value)
    }

    /// Hit/miss/rejection counters and current occupancy.
    pub fn stats(&self) -> MemoStats {
        let entries = self
            .shards
            .iter()
            .map(|shard| shard.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum();
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            rejected_inserts: self.rejected.load(Ordering::Relaxed),
            capacity: self.shard_capacity.saturating_mul(SHARDS),
        }
    }

    /// Drops every interned entry and resets the counters (test support;
    /// values are pure so this is never required for correctness).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
    }
}

/// Whether the global caches intern at all (default: yes); cleared by
/// [`set_enabled`]`(false)`.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables interning. Disabled helpers compute
/// directly — same bits, no cache traffic.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the global caches are currently interning.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Cache key for carbon-per-area: the full discrete+bitwise domain of
/// [`FabScenario::carbon_per_area`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CpaKey {
    node: ProcessNode,
    intensity_bits: u64,
    abatement: Abatement,
    yield_bits: u64,
}

/// Cache key for per-device storage footprints (eqs. 6–8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum StorageKey {
    Dram(DramTechnology, u64),
    Ssd(SsdTechnology, u64),
    Hdd(HddModel, u64),
}

fn cpa_cache() -> &'static MemoCache<CpaKey, MassPerArea> {
    static CACHE: OnceLock<MemoCache<CpaKey, MassPerArea>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

fn storage_cache() -> &'static MemoCache<StorageKey, MassCo2> {
    static CACHE: OnceLock<MemoCache<StorageKey, MassCo2>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// Memoized [`FabScenario::carbon_per_area`] (eq. 5). Bit-for-bit
/// identical to the direct call; repeated `(scenario, node)` pairs across
/// sweep points hit the cache.
///
/// # Panics
///
/// Panics if the scenario's yield is zero, exactly like the direct call.
/// Validate the scenario first (or use [`FabScenario::try_carbon_per_area`])
/// for untrusted inputs.
///
/// # Examples
///
/// ```
/// use act_core::{memo, FabScenario};
/// use act_data::ProcessNode;
///
/// let fab = FabScenario::default();
/// let cached = memo::carbon_per_area(&fab, ProcessNode::N7);
/// assert_eq!(cached, fab.carbon_per_area(ProcessNode::N7));
/// ```
#[must_use]
pub fn carbon_per_area(fab: &FabScenario, node: ProcessNode) -> MassPerArea {
    if !enabled() {
        return fab.carbon_per_area(node);
    }
    let key = CpaKey {
        node,
        intensity_bits: fab.energy_intensity.as_grams_per_kwh().to_bits(),
        abatement: fab.abatement,
        yield_bits: fab.fab_yield.get().to_bits(),
    };
    cpa_cache().get_or_insert_with(key, || fab.carbon_per_area(node))
}

/// Memoized DRAM embodied footprint `CPS_DRAM × capacity` (eq. 6).
#[must_use]
pub fn dram_embodied(technology: DramTechnology, capacity: Capacity) -> MassCo2 {
    if !enabled() {
        return technology.carbon_per_gb() * capacity;
    }
    let key = StorageKey::Dram(technology, capacity.as_gigabytes().to_bits());
    storage_cache().get_or_insert_with(key, || technology.carbon_per_gb() * capacity)
}

/// Memoized SSD embodied footprint `CPS_SSD × capacity` (eq. 8).
#[must_use]
pub fn ssd_embodied(technology: SsdTechnology, capacity: Capacity) -> MassCo2 {
    if !enabled() {
        return technology.carbon_per_gb() * capacity;
    }
    let key = StorageKey::Ssd(technology, capacity.as_gigabytes().to_bits());
    storage_cache().get_or_insert_with(key, || technology.carbon_per_gb() * capacity)
}

/// Memoized HDD embodied footprint `CPS_HDD × capacity` (eq. 7).
#[must_use]
pub fn hdd_embodied(model: HddModel, capacity: Capacity) -> MassCo2 {
    if !enabled() {
        return model.carbon_per_gb() * capacity;
    }
    let key = StorageKey::Hdd(model, capacity.as_gigabytes().to_bits());
    storage_cache().get_or_insert_with(key, || model.carbon_per_gb() * capacity)
}

/// Counters of the global carbon-per-area cache.
#[must_use]
pub fn cpa_stats() -> MemoStats {
    cpa_cache().stats()
}

/// Counters of the global storage-footprint cache.
#[must_use]
pub fn storage_stats() -> MemoStats {
    storage_cache().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_units::Fraction;

    #[test]
    fn cpa_matches_direct_computation_bitwise() {
        let scenarios = [
            FabScenario::default(),
            FabScenario::taiwan_grid(),
            FabScenario::default().with_yield(Fraction::new_const(0.5)),
        ];
        for fab in &scenarios {
            for node in [ProcessNode::N7, ProcessNode::N10, ProcessNode::N28] {
                let direct = fab.carbon_per_area(node).as_grams_per_cm2();
                let cached = carbon_per_area(fab, node).as_grams_per_cm2();
                assert_eq!(direct.to_bits(), cached.to_bits());
                // Second lookup (a guaranteed hit) returns the same bits.
                let again = carbon_per_area(fab, node).as_grams_per_cm2();
                assert_eq!(cached.to_bits(), again.to_bits());
            }
        }
    }

    #[test]
    fn storage_helpers_match_direct_computation_bitwise() {
        let capacity = Capacity::gigabytes(128.0);
        let direct = (SsdTechnology::V3NandTlc.carbon_per_gb() * capacity).as_grams();
        let cached = ssd_embodied(SsdTechnology::V3NandTlc, capacity).as_grams();
        assert_eq!(direct.to_bits(), cached.to_bits());

        let dram_direct = (DramTechnology::Lpddr4.carbon_per_gb() * capacity).as_grams();
        let dram_cached = dram_embodied(DramTechnology::Lpddr4, capacity).as_grams();
        assert_eq!(dram_direct.to_bits(), dram_cached.to_bits());
    }

    #[test]
    fn disabling_bypasses_the_cache_without_changing_results() {
        let fab = FabScenario::default();
        let cached = carbon_per_area(&fab, ProcessNode::N14);
        set_enabled(false);
        let bypassed = carbon_per_area(&fab, ProcessNode::N14);
        set_enabled(true);
        assert_eq!(cached, bypassed);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache: MemoCache<(u8, u8), f64> = MemoCache::new();
        for round in 0..3_u8 {
            for key in 0..10_u8 {
                let value = cache.get_or_insert_with((key, 0), || f64::from(key) * 2.0);
                assert_eq!(value, f64::from(key) * 2.0);
                let _ = round;
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.hits, 20);
        assert_eq!(stats.entries, 10);
        assert_eq!(stats.rejected_inserts, 0);
        assert_eq!(stats.capacity, DEFAULT_SHARD_CAPACITY * 16);
        cache.clear();
        let cleared = cache.stats();
        assert_eq!((cleared.hits, cleared.misses, cleared.entries), (0, 0, 0));
        assert_eq!(cleared.rejected_inserts, 0);
    }

    /// The regression the bound exists for: a workload keying on a
    /// continuous value floods the cache with unique keys. Occupancy must
    /// stay at the configured cap, every overflow must be counted, and
    /// results must stay correct (pass-through, not eviction).
    #[test]
    fn unique_key_floods_stay_bounded() {
        let cache: MemoCache<u64, f64> = MemoCache::with_shard_capacity(32);
        const FLOOD: u64 = 1_000_000;
        for key in 0..FLOOD {
            #[allow(clippy::cast_precision_loss)]
            let value = cache.get_or_insert_with(key, || key as f64 * 0.5);
            #[allow(clippy::cast_precision_loss)]
            let expected = key as f64 * 0.5;
            assert_eq!(value.to_bits(), expected.to_bits(), "key {key}");
        }
        let stats = cache.stats();
        assert_eq!(stats.capacity, 32 * 16);
        assert!(stats.entries <= stats.capacity, "{} entries", stats.entries);
        assert_eq!(stats.misses, FLOOD);
        // Everything past the interned population was rejected, not stored.
        #[allow(clippy::cast_possible_truncation)]
        let interned = stats.entries as u64;
        assert_eq!(stats.rejected_inserts, FLOOD - interned);
        // Interned keys still hit.
        let again = cache.get_or_insert_with(0, || unreachable!());
        assert_eq!(again, 0.0);
        assert_eq!(cache.stats().hits, 1);
    }

    /// A zero capacity turns the cache into a pure pass-through.
    #[test]
    fn zero_capacity_disables_interning() {
        let cache: MemoCache<u8, f64> = MemoCache::with_shard_capacity(0);
        assert_eq!(cache.get_or_insert_with(1, || 2.0), 2.0);
        assert_eq!(cache.get_or_insert_with(1, || 3.0), 3.0);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.rejected_inserts, 2);
        assert_eq!(stats.capacity, 0);
    }
}
