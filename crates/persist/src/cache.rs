//! Result cache: converged results and resumable snapshots, LRU-evicted
//! under a byte budget.
//!
//! Production traffic is highly repetitive, so the service keeps a cache
//! keyed by `(integrand id, region, tolerance)`.  Each entry can hold a
//! converged [`CachedResult`] (served on an exact key hit without touching a
//! device) and/or a [`Snapshot`] of the region tree (used to warm-start a
//! request at a different tolerance over the same integrand and region).
//!
//! No operation reads every entry: an exact lookup is one hash probe and a
//! stamp write, a warm-start lookup reads only the entries stored for its
//! `(integrand id, region)`, and eviction takes the least recently used
//! entry off an ordered map of recency stamps.
//!
//! Two disciplines from ARCHITECTURE.md apply here: the cache uses a single
//! internal mutex and never acquires another lock while holding it (rule R1,
//! lock-order acyclicity), and recency is tracked with a logical counter
//! rather than the wall clock (rule R4 — the clock must never influence
//! result-producing control flow; eviction order is part of which snapshot a
//! warm start sees).

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

use crate::snapshot::Snapshot;

/// Cache key: the exact identity of an integration request.
///
/// Region corners and tolerances are stored as `f64::to_bits` patterns so
/// key equality is bit-exact (`-0.0` and `0.0` are *different* keys, NaN
/// corners compare equal to themselves) and so the key can implement `Hash`
/// and `Eq` without float caveats.
///
/// The integrand id is the integrand's `name()`.  Closure-built integrands
/// share a default name, so callers that mix distinct closures through one
/// cache must give them unique names — the cache cannot see function bodies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Integrand identifier (`Integrand::name()`).
    pub integrand_id: String,
    /// Bit patterns of the region's lower corner, one per axis.
    pub region_lo_bits: Vec<u64>,
    /// Bit patterns of the region's upper corner, one per axis.
    pub region_hi_bits: Vec<u64>,
    /// Bit pattern of the relative tolerance.
    pub rel_bits: u64,
    /// Bit pattern of the absolute tolerance.
    pub abs_bits: u64,
}

impl CacheKey {
    /// Build a key from the request's raw floats.
    pub fn new(integrand_id: &str, lo: &[f64], hi: &[f64], rel_tol: f64, abs_tol: f64) -> Self {
        CacheKey {
            integrand_id: integrand_id.to_string(),
            region_lo_bits: lo.iter().map(|v| v.to_bits()).collect(),
            region_hi_bits: hi.iter().map(|v| v.to_bits()).collect(),
            rel_bits: rel_tol.to_bits(),
            abs_bits: abs_tol.to_bits(),
        }
    }

    fn approx_bytes(&self) -> usize {
        self.integrand_id.len()
            + (self.region_lo_bits.len() + self.region_hi_bits.len() + 2)
                * std::mem::size_of::<u64>()
            + 64
    }
}

/// A converged result stored for exact-hit serving.
///
/// Plain data rather than core's `IntegrationResult` so this crate stays
/// free of driver types; the service layer converts on the way in and out.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Converged integral estimate.
    pub estimate: f64,
    /// Error estimate paired with the integral.
    pub error_estimate: f64,
    /// Iterations the original run took.
    pub iterations: usize,
    /// Integrand evaluations the original run spent (the savings of a hit).
    pub function_evaluations: u64,
    /// Regions the original run materialized.
    pub regions_generated: u64,
}

/// Non-bumping summary of a cached snapshot, for admission-control peeks.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartInfo {
    /// Relative tolerance the snapshotted run was configured with.
    pub rel_tol: f64,
    /// Absolute tolerance the snapshotted run was configured with.
    pub abs_tol: f64,
    /// Error already frozen into the snapshot's finished set.
    pub finished_error: f64,
    /// Best cumulative estimate the snapshotted run had observed.
    pub latest_estimate: f64,
    /// Evaluations banked in the snapshot (work a warm start inherits).
    pub function_evaluations: u64,
    /// Whether the snapshotted run converged.
    pub converged: bool,
}

struct Entry {
    result: Option<CachedResult>,
    snapshot: Option<Snapshot>,
    /// Logical-clock stamp of the last hit or store (rule R4: no `Instant`).
    last_used: u64,
    /// The stamp `CacheState::lru` files the entry under: `last_used` as of
    /// its last store or re-filing.  A hit moves only `last_used`.
    filed: u64,
    bytes: usize,
}

fn entry_bytes(
    key: &CacheKey,
    result: &Option<CachedResult>,
    snapshot: &Option<Snapshot>,
) -> usize {
    key.approx_bytes()
        + result
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<CachedResult>())
        + snapshot.as_ref().map_or(0, Snapshot::approx_bytes)
}

struct CacheState {
    /// Every entry by exact key: an exact lookup is one probe.  Boxed, so
    /// the table's slots stay small and an eviction moves no entry.
    map: HashMap<Arc<CacheKey>, Box<Entry>>,
    /// The keys stored for each `(integrand id, region)`, under
    /// [`CacheState::region_hash`]; regions whose hashes collide share a
    /// list, so readers compare the region too.
    regions: HashMap<u64, Vec<Arc<CacheKey>>>,
    hasher: RandomState,
    /// Every entry once, under its `filed` stamp: least recently filed
    /// first.  Stamps are unique, since each operation takes a fresh one.
    lru: BTreeMap<u64, Arc<CacheKey>>,
    clock: u64,
    bytes_used: usize,
    byte_budget: usize,
    evictions: u64,
}

impl CacheState {
    fn region_hash(&self, integrand_id: &str, lo: &[u64], hi: &[u64]) -> u64 {
        self.hasher.hash_one((integrand_id, lo, hi))
    }

    /// The key and snapshot a warm start over `(integrand_id, region)`
    /// takes: the deepest snapshot (most banked evaluations), ties to the
    /// tightest tolerance (smallest relative, then absolute, bits) — the
    /// one that has frozen the least error.
    fn best_snapshot(
        &self,
        integrand_id: &str,
        lo: &[u64],
        hi: &[u64],
    ) -> Option<(&Arc<CacheKey>, &Snapshot)> {
        self.regions
            .get(&self.region_hash(integrand_id, lo, hi))?
            .iter()
            .filter(|k| {
                k.integrand_id == integrand_id && k.region_lo_bits == lo && k.region_hi_bits == hi
            })
            .filter_map(|k| Some((k, self.map[k].snapshot.as_ref()?)))
            .max_by_key(|(k, s)| {
                (
                    s.function_evaluations,
                    Reverse(k.rel_bits),
                    Reverse(k.abs_bits),
                )
            })
    }

    /// Drop `key`'s entry, already taken off `lru`, as an eviction.
    fn evict(&mut self, key: &Arc<CacheKey>) {
        let entry = self.map.remove(key).expect("a filed key has an entry");
        self.bytes_used -= entry.bytes;
        self.evictions += 1;
        let hash = self.region_hash(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits);
        let keys = self
            .regions
            .get_mut(&hash)
            .expect("a stored key is indexed");
        keys.retain(|k| !Arc::ptr_eq(k, key));
        if keys.is_empty() {
            self.regions.remove(&hash);
        }
    }
}

/// Shared LRU result cache with a byte budget.
///
/// All operations take the single internal mutex for their whole duration;
/// there is no lock ordering to get wrong because the cache never calls out
/// while holding it.
pub struct ResultCache {
    state: Mutex<CacheState>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("ResultCache")
            .field("entries", &state.map.len())
            .field("bytes_used", &state.bytes_used)
            .field("byte_budget", &state.byte_budget)
            .field("evictions", &state.evictions)
            .finish()
    }
}

impl ResultCache {
    /// Create a cache that evicts least-recently-used entries once the
    /// approximate footprint exceeds `byte_budget`.
    pub fn new(byte_budget: usize) -> Self {
        ResultCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                regions: HashMap::new(),
                hasher: RandomState::new(),
                lru: BTreeMap::new(),
                clock: 0,
                bytes_used: 0,
                byte_budget,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // The cache holds plain data and never panics while locked, but be
        // robust to a poisoned mutex from a panicking caller thread anyway.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a converged result by exact key, bumping its recency.
    pub fn lookup_result(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut state = self.lock();
        state.clock += 1;
        let clock = state.clock;
        let entry = state.map.get_mut(key)?;
        let hit = entry.result.clone()?;
        entry.last_used = clock;
        Some(hit)
    }

    /// Find the best snapshot for `(integrand, region)` at *any* tolerance,
    /// bumping the owning entry's recency.
    ///
    /// "Best" is the snapshot with the most banked evaluations — the deepest
    /// tree, which gives a warm start the largest head start — and among
    /// equally deep ones the tightest tolerance.
    pub fn lookup_snapshot(
        &self,
        integrand_id: &str,
        region_lo_bits: &[u64],
        region_hi_bits: &[u64],
    ) -> Option<Snapshot> {
        let mut state = self.lock();
        state.clock += 1;
        let clock = state.clock;
        let key = Arc::clone(
            state
                .best_snapshot(integrand_id, region_lo_bits, region_hi_bits)?
                .0,
        );
        let entry = state
            .map
            .get_mut(&key)
            .expect("an indexed key has an entry");
        entry.last_used = clock;
        entry.snapshot.clone()
    }

    /// Whether an exact converged result exists for `key`, without bumping
    /// recency (admission control must not perturb eviction order).
    pub fn contains_result(&self, key: &CacheKey) -> bool {
        let state = self.lock();
        state.map.get(key).is_some_and(|e| e.result.is_some())
    }

    /// Summarize the best warm-start snapshot for `(integrand, region)` —
    /// the one [`ResultCache::lookup_snapshot`] would return — without
    /// bumping recency, for admission-control cost discounting.
    pub fn peek_warm_start(
        &self,
        integrand_id: &str,
        region_lo_bits: &[u64],
        region_hi_bits: &[u64],
    ) -> Option<WarmStartInfo> {
        let state = self.lock();
        let (_, s) = state.best_snapshot(integrand_id, region_lo_bits, region_hi_bits)?;
        Some(WarmStartInfo {
            rel_tol: s.rel_tol,
            abs_tol: s.abs_tol,
            finished_error: s.finished_error,
            latest_estimate: s.latest_estimate,
            function_evaluations: s.function_evaluations,
            converged: s.converged,
        })
    }

    /// Store a result and/or snapshot under `key`, merging with any existing
    /// entry (a `None` part leaves the existing part in place) and evicting
    /// least-recently-used entries until the byte budget is met.  The stored
    /// entry is the most recently used, so one larger than the whole budget
    /// is evicted last, after every other entry.
    pub fn store(&self, key: CacheKey, result: Option<CachedResult>, snapshot: Option<Snapshot>) {
        if result.is_none() && snapshot.is_none() {
            return;
        }
        let mut guard = self.lock();
        let state = &mut *guard;
        state.clock += 1;
        let clock = state.clock;
        let (key, mut entry) = match state.map.remove_entry(&key) {
            Some((key, entry)) => {
                state.lru.remove(&entry.filed);
                (key, entry)
            }
            None => {
                let key = Arc::new(key);
                let hash =
                    state.region_hash(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits);
                state
                    .regions
                    .entry(hash)
                    .or_default()
                    .push(Arc::clone(&key));
                let entry = Box::new(Entry {
                    result: None,
                    snapshot: None,
                    last_used: clock,
                    filed: clock,
                    bytes: 0,
                });
                (key, entry)
            }
        };
        state.bytes_used -= entry.bytes;
        if result.is_some() {
            entry.result = result;
        }
        if snapshot.is_some() {
            entry.snapshot = snapshot;
        }
        entry.bytes = entry_bytes(&key, &entry.result, &entry.snapshot);
        entry.last_used = clock;
        entry.filed = clock;
        state.bytes_used += entry.bytes;
        state.lru.insert(clock, Arc::clone(&key));
        state.map.insert(key, entry);
        while state.bytes_used > state.byte_budget {
            let (filed, victim) = state
                .lru
                .pop_first()
                .expect("an over-budget cache has entries");
            let entry = state
                .map
                .get_mut(&victim)
                .expect("a filed key has an entry");
            if entry.last_used != filed {
                // Hit since it was filed: file it again at its current stamp.
                // Every other entry's stamp is at least its filed one, so
                // the first entry popped unmoved has the smallest stamp.
                entry.filed = entry.last_used;
                state.lru.insert(entry.last_used, victim);
                continue;
            }
            state.evict(&victim);
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Approximate bytes currently held.
    pub fn bytes_used(&self) -> usize {
        self.lock().bytes_used
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.lock().byte_budget
    }

    /// Entries evicted so far to satisfy the byte budget.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
impl ResultCache {
    /// The keys currently held.
    fn keys(&self) -> std::collections::HashSet<CacheKey> {
        self.lock().map.keys().map(|k| CacheKey::clone(k)).collect()
    }

    /// Whether the region index and the recency map each hold every entry
    /// exactly once, and nothing else: neither grows past the entry count.
    fn indexes_each_entry_once(&self) -> bool {
        let state = self.lock();
        let indexed: usize = state.regions.values().map(Vec::len).sum();
        indexed == state.map.len()
            && state.lru.len() == state.map.len()
            && state
                .lru
                .iter()
                .all(|(&stamp, k)| state.map[k].filed == stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_FORMAT_VERSION;
    use proptest::prelude::*;

    fn key(id: &str, rel: f64) -> CacheKey {
        CacheKey::new(id, &[0.0, 0.0], &[1.0, 1.0], rel, 1e-20)
    }

    fn result(evals: u64) -> CachedResult {
        CachedResult {
            estimate: 1.0,
            error_estimate: 1e-9,
            iterations: 4,
            function_evaluations: evals,
            regions_generated: 100,
        }
    }

    fn snapshot(evals: u64, regions: usize) -> Snapshot {
        Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            integrand_id: "f".to_string(),
            region_lo: vec![0.0, 0.0],
            region_hi: vec![1.0, 1.0],
            rel_tol: 1e-3,
            abs_tol: 1e-20,
            converged: false,
            dim: 2,
            lefts: vec![0.0; regions * 2],
            lengths: vec![1.0; regions * 2],
            parent_integrals: None,
            finished_estimate: 0.0,
            finished_error: 0.0,
            threshold_frozen_error: 0.0,
            function_evaluations: evals,
            regions_generated: regions as u64,
            previous_cumulative: None,
            next_iteration: 1,
            latest_estimate: 1.0,
            latest_error: 1e-3,
        }
    }

    #[test]
    fn exact_hits_require_bitwise_key_equality() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("f", 1e-3), Some(result(17)), None);
        assert_eq!(cache.lookup_result(&key("f", 1e-3)), Some(result(17)));
        assert_eq!(cache.lookup_result(&key("f", 1e-4)), None);
        assert_eq!(cache.lookup_result(&key("g", 1e-3)), None);
        let negated = CacheKey::new("f", &[-0.0, 0.0], &[1.0, 1.0], 1e-3, 1e-20);
        assert_eq!(cache.lookup_result(&negated), None);
    }

    #[test]
    fn snapshot_lookup_spans_tolerances_and_prefers_deepest() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("f", 1e-2), None, Some(snapshot(100, 4)));
        cache.store(key("f", 1e-3), None, Some(snapshot(900, 16)));
        let k = key("f", 1e-6); // tolerance absent from the cache
        let best = cache
            .lookup_snapshot(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .unwrap();
        assert_eq!(best.function_evaluations, 900);
        let info = cache
            .peek_warm_start(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .unwrap();
        assert_eq!(info.function_evaluations, 900);
        assert_eq!(info.rel_tol, 1e-3);
    }

    #[test]
    fn store_merges_result_and_snapshot_parts() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("f", 1e-3), None, Some(snapshot(50, 2)));
        cache.store(key("f", 1e-3), Some(result(60)), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup_result(&key("f", 1e-3)).is_some());
        let k = key("f", 1e-3);
        assert!(cache
            .lookup_snapshot(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .is_some());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let probe = snapshot(1, 64);
        let one_entry = entry_bytes(&key("a", 1e-3), &None, &Some(probe.clone()));
        // Room for two entries but not three.
        let cache = ResultCache::new(one_entry * 2 + one_entry / 2);
        cache.store(key("a", 1e-3), None, Some(probe.clone()));
        cache.store(key("b", 1e-3), None, Some(probe.clone()));
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        assert!(cache
            .lookup_snapshot(
                "a",
                &key("a", 1e-3).region_lo_bits,
                &key("a", 1e-3).region_hi_bits
            )
            .is_some());
        cache.store(key("c", 1e-3), None, Some(probe));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.contains_result(&key("b", 1e-3)));
        let kb = key("b", 1e-3);
        assert!(cache
            .lookup_snapshot(&kb.integrand_id, &kb.region_lo_bits, &kb.region_hi_bits)
            .is_none());
    }

    #[test]
    fn oversized_entry_is_dropped_not_cached() {
        let cache = ResultCache::new(64);
        cache.store(key("big", 1e-3), None, Some(snapshot(1, 1024)));
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.bytes_used() <= cache.byte_budget());
    }

    #[test]
    fn peeks_do_not_perturb_lru_order() {
        let probe = snapshot(1, 64);
        let one_entry = entry_bytes(&key("a", 1e-3), &None, &Some(probe.clone()));
        let cache = ResultCache::new(one_entry * 2 + one_entry / 2);
        cache.store(key("a", 1e-3), None, Some(probe.clone()));
        cache.store(key("b", 1e-3), None, Some(probe.clone()));
        // Peek "a" (non-bumping): "a" must still be the LRU victim.
        let ka = key("a", 1e-3);
        assert!(cache
            .peek_warm_start(&ka.integrand_id, &ka.region_lo_bits, &ka.region_hi_bits)
            .is_some());
        assert!(!cache.contains_result(&ka));
        cache.store(key("c", 1e-3), None, Some(probe));
        let gone = cache.lookup_snapshot(&ka.integrand_id, &ka.region_lo_bits, &ka.region_hi_bits);
        assert!(
            gone.is_none(),
            "peeked entry should have been evicted first"
        );
    }

    #[test]
    fn warm_start_ties_go_to_the_tightest_tolerance() {
        // Equally deep snapshots at three tolerances: the winner must not
        // depend on a fresh cache's hash seed or on the insertion order.
        let tols = [1e-3, 1e-4, 1e-5];
        let at = |rel: f64| Snapshot {
            rel_tol: rel,
            ..snapshot(500, 4)
        };
        for order in [tols, [1e-5, 1e-4, 1e-3]] {
            for _ in 0..50 {
                let cache = ResultCache::new(1 << 20);
                for rel in order {
                    cache.store(key("f", rel), None, Some(at(rel)));
                }
                let k = key("f", 1e-6);
                let (id, lo, hi) = (&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits);
                assert_eq!(cache.peek_warm_start(id, lo, hi).unwrap().rel_tol, 1e-5);
                assert_eq!(cache.lookup_snapshot(id, lo, hi).unwrap().rel_tol, 1e-5);
            }
        }
    }

    /// The scanning cache the indexed one replaced, kept as the reference it
    /// must match: every warm-start lookup and every eviction reads every
    /// entry.  Its warm-start scans break ties by the indexed cache's rule
    /// (most evaluations, then smallest relative and absolute tolerance
    /// bits); without a tie they are the replaced code exactly.
    struct ScanCache {
        map: HashMap<CacheKey, ScanEntry>,
        clock: u64,
        bytes_used: usize,
        byte_budget: usize,
        evictions: u64,
    }

    struct ScanEntry {
        result: Option<CachedResult>,
        snapshot: Option<Snapshot>,
        last_used: u64,
        bytes: usize,
    }

    impl ScanCache {
        fn new(byte_budget: usize) -> Self {
            ScanCache {
                map: HashMap::new(),
                clock: 0,
                bytes_used: 0,
                byte_budget,
                evictions: 0,
            }
        }

        fn lookup_result(&mut self, key: &CacheKey) -> Option<CachedResult> {
            self.clock += 1;
            let entry = self.map.get_mut(key)?;
            let hit = entry.result.clone()?;
            entry.last_used = self.clock;
            Some(hit)
        }

        fn best(&mut self, k: &CacheKey) -> Option<&mut ScanEntry> {
            self.map
                .iter_mut()
                .filter(|(c, e)| {
                    e.snapshot.is_some()
                        && c.integrand_id == k.integrand_id
                        && c.region_lo_bits == k.region_lo_bits
                        && c.region_hi_bits == k.region_hi_bits
                })
                .max_by_key(|(c, e)| {
                    let evals = e.snapshot.as_ref().map_or(0, |s| s.function_evaluations);
                    (evals, Reverse(c.rel_bits), Reverse(c.abs_bits))
                })
                .map(|(_, e)| e)
        }

        fn lookup_snapshot(&mut self, k: &CacheKey) -> Option<Snapshot> {
            self.clock += 1;
            let clock = self.clock;
            let entry = self.best(k)?;
            entry.last_used = clock;
            entry.snapshot.clone()
        }

        fn peek_warm_start(&mut self, k: &CacheKey) -> Option<(f64, f64, u64)> {
            let s = self.best(k)?.snapshot.as_ref()?;
            Some((s.rel_tol, s.abs_tol, s.function_evaluations))
        }

        fn contains_result(&self, key: &CacheKey) -> bool {
            self.map.get(key).is_some_and(|e| e.result.is_some())
        }

        fn store(
            &mut self,
            key: CacheKey,
            result: Option<CachedResult>,
            snapshot: Option<Snapshot>,
        ) {
            if result.is_none() && snapshot.is_none() {
                return;
            }
            self.clock += 1;
            let mut entry = self.map.remove(&key).unwrap_or(ScanEntry {
                result: None,
                snapshot: None,
                last_used: self.clock,
                bytes: 0,
            });
            self.bytes_used -= entry.bytes;
            if result.is_some() {
                entry.result = result;
            }
            if snapshot.is_some() {
                entry.snapshot = snapshot;
            }
            entry.bytes = entry_bytes(&key, &entry.result, &entry.snapshot);
            entry.last_used = self.clock;
            self.bytes_used += entry.bytes;
            self.map.insert(key.clone(), entry);
            while self.bytes_used > self.byte_budget && !self.map.is_empty() {
                let victim = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map has a minimum");
                let evicted = self.map.remove(&victim).expect("victim exists");
                self.bytes_used -= evicted.bytes;
                self.evictions += 1;
                if victim == key {
                    break;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_indexed_cache_matches_the_scanning_cache(
            budget in 1_500usize..12_000,
            ops in collection::vec(0u64..u64::MAX, 100..600),
        ) {
            // 4 ids x 2 regions x 4 tolerance pairs: few enough keys that
            // stores merge, lookups hit, evaluations tie and entries are
            // evicted, re-stored and evicted again.
            let tols = [(1e-3, 1e-20), (1e-4, 1e-20), (1e-4, 1e-12), (1e-5, 1e-20)];
            let cache = ResultCache::new(budget);
            let mut reference = ScanCache::new(budget);
            for (step, &op) in ops.iter().enumerate() {
                let field = |shift: u32, n: u64| ((op >> shift) % n) as usize;
                let (rel, abs) = tols[field(8, 4)];
                let hi = [1.0, 1.0 + field(12, 2) as f64];
                let k = CacheKey::new(&format!("f{}", field(16, 4)), &[0.0, 0.0], &hi, rel, abs);
                // Mostly small snapshots, now and then one that outgrows
                // the budget on its own.
                let regions = if field(20, 16) == 0 { 200 } else { 1 + field(24, 12) };
                let snap = Snapshot {
                    rel_tol: rel,
                    abs_tol: abs,
                    ..snapshot(field(32, 4) as u64, regions)
                };
                let res = result(step as u64);
                let (id, lo, hi) = (&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits);
                match op % 7 {
                    0 => {
                        cache.store(k.clone(), Some(res.clone()), None);
                        reference.store(k, Some(res), None);
                    }
                    1 => {
                        cache.store(k.clone(), None, Some(snap.clone()));
                        reference.store(k, None, Some(snap));
                    }
                    2 => {
                        cache.store(k.clone(), Some(res.clone()), Some(snap.clone()));
                        reference.store(k, Some(res), Some(snap));
                    }
                    3 => prop_assert_eq!(cache.lookup_result(&k), reference.lookup_result(&k)),
                    4 => prop_assert_eq!(
                        cache.lookup_snapshot(id, lo, hi),
                        reference.lookup_snapshot(&k)
                    ),
                    5 => prop_assert_eq!(
                        cache
                            .peek_warm_start(id, lo, hi)
                            .map(|i| (i.rel_tol, i.abs_tol, i.function_evaluations)),
                        reference.peek_warm_start(&k)
                    ),
                    _ => prop_assert_eq!(cache.contains_result(&k), reference.contains_result(&k)),
                }
                prop_assert_eq!(cache.len(), reference.map.len());
                prop_assert_eq!(cache.bytes_used(), reference.bytes_used);
                prop_assert_eq!(cache.evictions(), reference.evictions);
                let held: std::collections::HashSet<CacheKey> =
                    reference.map.keys().cloned().collect();
                prop_assert!(cache.keys() == held, "step {step}: different entries held");
                prop_assert!(cache.indexes_each_entry_once(), "step {step}: stale index");
            }
        }
    }
}
