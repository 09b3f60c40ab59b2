//! The reusable scratch arena behind allocation-recycled execution.
//!
//! Every PAGANI iteration materialises a handful of per-generation arrays —
//! region geometry, integral and error estimates, split axes, classification
//! masks — and the original driver allocated all of them afresh each
//! generation.  A [`ScratchArena`] is a set of typed [`VecShelf`]s that those
//! arrays are *retired* into and *taken* back out of, so one integration run
//! recycles its storage across iterations and — when the arena is owned by a
//! batch-runner worker — across jobs.
//!
//! Recycling is invisible to the algorithm: taken vectors are always cleared
//! before refilling, and shelved storage is host memory only — a region list's
//! device charge is its own reservation (see [`VecShelf`]) — so device-memory
//! accounting and every memory-pressure heuristic behave exactly as they would
//! without reuse.  Results are therefore bit-identical with and without an
//! arena, which is what lets `integrate_batch` guarantee batch/sequential
//! equivalence.

use pagani_device::VecShelf;

/// Typed shelves recycling the per-generation arrays of the PAGANI driver.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Geometry arrays and per-region estimates (`f64`).
    f64s: VecShelf<f64>,
    /// Split-axis lists (`usize`).
    axes: VecShelf<usize>,
    /// Classification masks (`u8`).
    masks: VecShelf<u8>,
}

impl ScratchArena {
    /// Create an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an empty `f64` vector with at least `capacity` reserved.
    #[must_use]
    pub fn take_f64(&self, capacity: usize) -> Vec<f64> {
        self.f64s.take(capacity)
    }

    /// Shelve `f64` storage for reuse.
    pub fn put_f64(&self, storage: Vec<f64>) {
        self.f64s.put(storage);
    }

    /// Take an empty axis vector with at least `capacity` reserved.
    #[must_use]
    pub fn take_axes(&self, capacity: usize) -> Vec<usize> {
        self.axes.take(capacity)
    }

    /// Shelve axis storage for reuse.
    pub fn put_axes(&self, storage: Vec<usize>) {
        self.axes.put(storage);
    }

    /// Take an empty mask vector with at least `capacity` reserved.
    #[must_use]
    pub fn take_mask(&self, capacity: usize) -> Vec<u8> {
        self.masks.take(capacity)
    }

    /// Shelve mask storage for reuse.
    pub fn put_mask(&self, storage: Vec<u8>) {
        self.masks.put(storage);
    }

    /// Total `take` calls served from recycled storage, across all shelves.
    #[must_use]
    pub fn reuse_hits(&self) -> usize {
        self.f64s.reuse_hits() + self.axes.reuse_hits() + self.masks.reuse_hits()
    }

    /// Total `take` calls that allocated fresh storage, across all shelves.
    #[must_use]
    pub fn reuse_misses(&self) -> usize {
        self.f64s.reuse_misses() + self.axes.reuse_misses() + self.masks.reuse_misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_across_types_independently() {
        let arena = ScratchArena::new();
        let mut v = arena.take_f64(64);
        v.resize(64, 1.0);
        arena.put_f64(v);
        let mut m = arena.take_mask(64);
        m.resize(64, 1);
        arena.put_mask(m);
        assert_eq!(arena.reuse_misses(), 2);
        let _v = arena.take_f64(32);
        let _m = arena.take_mask(10);
        let _a = arena.take_axes(10);
        assert_eq!(
            arena.reuse_hits(),
            2,
            "f64 and mask shelves hit; axes missed"
        );
        assert_eq!(arena.reuse_misses(), 3);
    }
}
