//! Tracked device memory.
//!
//! The paper's evaluation hinges on what happens when the 16 GiB of V100 memory is
//! close to exhaustion: the two-phase baseline fails outright, while PAGANI triggers
//! its heuristic threshold classification to shed finished regions.  To reproduce that
//! behaviour the region lists of every integrator in this repository reserve their
//! bytes from a [`MemoryPool`] whose capacity is part of the device configuration.
//!
//! [`MemoryPool::reserve`] is the pool's only charging call: a [`Reservation`] holds
//! its bytes against the pool until it is dropped.  Callers reserve *before* they
//! allocate and fill host storage, so an exhausted pool refuses a list before the
//! host has paid for it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{DeviceError, DeviceResult};

/// Snapshot of the pool occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Bytes currently reserved.
    pub used: usize,
    /// High-water mark of reserved bytes over the pool lifetime.
    pub peak: usize,
}

#[derive(Debug)]
struct PoolInner {
    capacity: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

/// A byte-capacity-limited budget standing in for device (HBM) memory.
///
/// The pool is cheap to clone (`Arc` internally); all clones share the same capacity
/// accounting, so a [`crate::Device`] and the reservations taken from it stay
/// consistent.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl MemoryPool {
    /// Create a pool with `capacity` bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                capacity,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Current occupancy snapshot.
    #[must_use]
    pub fn usage(&self) -> MemoryUsage {
        MemoryUsage {
            capacity: self.inner.capacity,
            used: self.inner.used.load(Ordering::Relaxed),
            peak: self.inner.peak.load(Ordering::Relaxed),
        }
    }

    /// Whether a reservation of `bytes` additional bytes would currently
    /// succeed.  A read-only probe: it charges nothing, so it never makes a
    /// concurrent reservation on a shared pool fail.
    #[must_use]
    pub fn can_allocate(&self, bytes: usize) -> bool {
        let used = self.inner.used.load(Ordering::Relaxed);
        used.checked_add(bytes)
            .is_some_and(|total| total <= self.inner.capacity)
    }

    /// Charge `bytes` against the pool until the returned [`Reservation`] is
    /// dropped.
    ///
    /// # Errors
    /// Returns [`DeviceError::OutOfDeviceMemory`] if the capacity would be
    /// exceeded; nothing is charged then.
    pub fn reserve(&self, bytes: usize) -> DeviceResult<Reservation> {
        let mut used = self.inner.used.load(Ordering::Relaxed);
        loop {
            let next = used
                .checked_add(bytes)
                .filter(|&next| next <= self.inner.capacity)
                .ok_or_else(|| DeviceError::OutOfDeviceMemory {
                    requested: bytes,
                    available: self.inner.capacity.saturating_sub(used),
                })?;
            match self.inner.used.compare_exchange_weak(
                used,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(Reservation {
                        bytes,
                        pool: self.clone(),
                    });
                }
                Err(actual) => used = actual,
            }
        }
    }
}

/// Bytes charged against a [`MemoryPool`] by [`MemoryPool::reserve`]; dropping
/// the reservation releases the charge.
#[derive(Debug)]
#[must_use = "dropping a reservation releases its charge at once"]
pub struct Reservation {
    bytes: usize,
    pool: MemoryPool,
}

impl Reservation {
    /// Bytes this reservation charges against its pool.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.pool.inner.used.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// Most retired vectors a [`VecShelf`] retains before it starts dropping the
/// smallest ones.  Bounds host memory held by idle shelves.
const MAX_SHELVED: usize = 32;

/// A free-list of retired `Vec<T>` backing storage: the buffer-recycling
/// primitive behind the scratch arenas of the batch execution engine.
///
/// Shelved storage is **host memory only** and is never charged against a
/// [`MemoryPool`]: device memory is charged by the [`Reservation`] of whatever
/// holds the storage (a region list), taken before the storage leaves the
/// shelf and dropped when it goes back.  Pool accounting — and every
/// memory-pressure heuristic built on it — therefore behaves exactly as if
/// each generation were a fresh allocation.  What recycling saves is host
/// allocator traffic: [`VecShelf::take`] hands back retained capacity instead
/// of growing a new `Vec` from nothing, which is the dominant per-iteration
/// cost of the simulated kernels.
///
/// `take` is deterministic best-fit, so recycling never changes computed
/// values — a recycled vector is always cleared and refilled by its consumer.
#[derive(Debug)]
pub struct VecShelf<T> {
    free: Mutex<Vec<Vec<T>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<T> Default for VecShelf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VecShelf<T> {
    /// Create an empty shelf.
    #[must_use]
    pub fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Take an empty vector with at least `capacity` reserved, reusing retired
    /// storage when a large-enough vector is shelved (best fit); otherwise a
    /// freshly allocated vector is returned and a miss is counted.
    #[must_use]
    pub fn take(&self, capacity: usize) -> Vec<T> {
        let mut free = self.free.lock();
        let best = free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= capacity)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                free.swap_remove(i)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                drop(free);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Shelve `storage` for reuse.  The vector is cleared; if the shelf is
    /// full, the smallest retained vector is dropped to make room (or the
    /// incoming one, when it is smaller still).
    pub fn put(&self, mut storage: Vec<T>) {
        if storage.capacity() == 0 {
            return;
        }
        storage.clear();
        let mut free = self.free.lock();
        if free.len() >= MAX_SHELVED {
            let smallest = free
                .iter()
                .enumerate()
                .min_by_key(|(_, v)| v.capacity())
                .map(|(i, _)| i);
            match smallest {
                Some(i) if free[i].capacity() < storage.capacity() => {
                    free.swap_remove(i);
                }
                _ => return,
            }
        }
        free.push(storage);
    }

    /// Number of `take` calls served from retired storage.
    #[must_use]
    pub fn reuse_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of `take` calls that had to allocate fresh storage.
    #[must_use]
    pub fn reuse_misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of vectors currently shelved.
    #[must_use]
    pub fn shelved(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: usize = 1024;

    #[test]
    fn allocation_charges_and_releases() {
        let pool = MemoryPool::new(64 * KIB);
        assert_eq!(pool.usage().used, 0);
        {
            let held = pool.reserve(8 * KIB).unwrap();
            assert_eq!(pool.usage().used, 8 * KIB);
            assert_eq!(held.bytes(), 8 * KIB);
        }
        assert_eq!(pool.usage().used, 0);
        assert_eq!(pool.usage().peak, 8 * KIB);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let pool = MemoryPool::new(KIB);
        let err = pool.reserve(8 * KIB).unwrap_err();
        match err {
            DeviceError::OutOfDeviceMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 8 * KIB);
                assert_eq!(available, KIB);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(
            pool.usage().used,
            0,
            "a refused reservation charges nothing"
        );
    }

    #[test]
    fn can_allocate_reflects_occupancy() {
        let pool = MemoryPool::new(16);
        assert!(pool.can_allocate(16));
        let _held = pool.reserve(8).unwrap();
        assert!(pool.can_allocate(8));
        assert!(!pool.can_allocate(9));
    }

    #[test]
    fn clones_share_accounting() {
        let pool = MemoryPool::new(KIB);
        let clone = pool.clone();
        let _held = clone.reserve(512).unwrap();
        assert_eq!(pool.usage().used, 512);
    }

    #[test]
    fn zero_capacity_pool_rejects_everything() {
        let pool = MemoryPool::new(0);
        assert!(pool.reserve(1).is_err());
        assert!(!pool.can_allocate(1));
    }

    #[test]
    fn shelf_reuses_retired_capacity() {
        let shelf = VecShelf::<f64>::new();
        let mut v = shelf.take(100);
        assert_eq!(shelf.reuse_misses(), 1);
        v.extend(std::iter::repeat_n(1.0, 100));
        let cap = v.capacity();
        shelf.put(v);
        assert_eq!(shelf.shelved(), 1);
        let reused = shelf.take(50);
        assert_eq!(shelf.reuse_hits(), 1);
        assert!(reused.is_empty(), "shelved vectors are cleared");
        assert_eq!(reused.capacity(), cap);
        assert_eq!(shelf.shelved(), 0);
    }

    #[test]
    fn shelf_take_is_best_fit() {
        let shelf = VecShelf::<u8>::new();
        shelf.put(vec![0u8; 1000]);
        shelf.put(vec![0u8; 10]);
        let v = shelf.take(5);
        assert!(
            v.capacity() >= 5 && v.capacity() < 1000,
            "best fit picks the small vector"
        );
        let big = shelf.take(500);
        assert!(big.capacity() >= 1000);
        assert_eq!(shelf.reuse_hits(), 2);
    }

    #[test]
    fn shelf_too_small_storage_is_a_miss() {
        let shelf = VecShelf::<u8>::new();
        shelf.put(vec![0u8; 4]);
        let v = shelf.take(64);
        assert!(v.capacity() >= 64);
        assert_eq!(shelf.reuse_misses(), 1);
        assert_eq!(shelf.shelved(), 1, "the too-small vector stays shelved");
    }

    #[test]
    fn shelf_is_bounded() {
        let shelf = VecShelf::<u8>::new();
        for i in 0..100 {
            shelf.put(vec![0u8; i + 1]);
        }
        assert!(shelf.shelved() <= super::MAX_SHELVED);
    }

    #[test]
    fn empty_vectors_are_not_shelved() {
        let shelf = VecShelf::<f64>::new();
        shelf.put(Vec::new());
        assert_eq!(shelf.shelved(), 0);
    }

    #[test]
    fn concurrent_allocations_never_exceed_capacity() {
        use std::sync::Barrier;
        let pool = MemoryPool::new(64 * KIB);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let mut held = Vec::new();
                    for _ in 0..100 {
                        if let Ok(reservation) = pool.reserve(KIB) {
                            assert!(pool.usage().used <= pool.capacity());
                            held.push(reservation);
                            if held.len() > 4 {
                                held.clear();
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(pool.usage().used, 0);
    }
}
