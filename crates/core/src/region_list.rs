//! The flat, structure-of-arrays region list.
//!
//! PAGANI never builds a tree or a heap: the regions alive at one iteration are stored
//! as two flat coordinate arrays (per-axis left edge and per-axis length), exactly like
//! the `dRegions` / `dRegionsLength` buffers of the CUDA implementation.  Each list
//! reserves its bytes from the simulated device's [`MemoryPool`] before it fills any
//! storage, so subdivision fails with `OutOfDeviceMemory` where it would on the V100.
//!
//! The generation produced by [`RegionList::split_all`] uses the sibling layout the
//! `RefineError` kernel expects: splitting `m` parents yields `2m` children with all
//! left halves in slots `0..m` and all right halves in slots `m..2m`; child `i` and
//! `i ± m` are siblings and their parent is `i mod m`.

use pagani_device::{DeviceResult, MemoryPool, Reservation};
use pagani_quadrature::Region;

use crate::arena::ScratchArena;

/// Structure-of-arrays storage for one generation of sub-regions.
#[derive(Debug)]
pub struct RegionList {
    dim: usize,
    len: usize,
    /// `len * dim` left edges, region-major (`lefts[i*dim + axis]`).
    lefts: Vec<f64>,
    /// `len * dim` edge lengths, region-major.
    lengths: Vec<f64>,
    /// The device-memory charge of both arrays, released on drop or retire.
    charge: Reservation,
}

impl RegionList {
    /// Bytes of device memory needed to store `count` regions of dimension `dim`.
    #[must_use]
    pub fn bytes_for(count: usize, dim: usize) -> usize {
        2 * count * dim * std::mem::size_of::<f64>()
    }

    /// Build the initial list by uniformly splitting `root` into `d` parts per
    /// axis, drawing its backing storage from `arena`.
    ///
    /// # Errors
    /// Returns `OutOfDeviceMemory` if the `d^dim` regions do not fit in the pool.
    pub fn initial_split(
        root: &Region,
        d: usize,
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> DeviceResult<Self> {
        let dim = root.dim();
        let count = d.pow(dim as u32);
        let charge = pool.reserve(Self::bytes_for(count, dim))?;
        let mut lefts = arena.take_f64(count * dim);
        let mut lengths = arena.take_f64(count * dim);
        let mut coords = vec![0usize; dim];
        for _ in 0..count {
            for (axis, &c) in coords.iter().enumerate() {
                let step = root.extent(axis) / d as f64;
                lefts.push(root.lo()[axis] + c as f64 * step);
                lengths.push(step);
            }
            for c in coords.iter_mut().rev() {
                *c += 1;
                if *c < d {
                    break;
                }
                *c = 0;
            }
        }
        Ok(Self {
            dim,
            len: count,
            lefts,
            lengths,
            charge,
        })
    }

    /// Build a list from explicit owned regions, through [`Self::from_flat_in`].
    ///
    /// # Errors
    /// Returns `OutOfDeviceMemory` if the regions do not fit in the pool.
    ///
    /// # Panics
    /// Panics if `regions` is empty or the regions disagree in dimension.
    pub fn from_regions(regions: &[Region], pool: &MemoryPool) -> DeviceResult<Self> {
        assert!(!regions.is_empty(), "region list cannot be empty");
        let dim = regions[0].dim();
        assert!(
            regions.iter().all(|r| r.dim() == dim),
            "regions must share a dimension"
        );
        let lefts: Vec<f64> = regions
            .iter()
            .flat_map(|r| r.lo().iter().copied())
            .collect();
        let lengths: Vec<f64> = regions
            .iter()
            .flat_map(|r| (0..dim).map(|axis| r.extent(axis)))
            .collect();
        Self::from_flat_in(dim, &lefts, &lengths, pool, &ScratchArena::new())
    }

    /// Rebuild a list from flat region-major geometry (the snapshot/resume
    /// path): `lefts[i*dim + axis]` / `lengths[i*dim + axis]` exactly as
    /// [`Self::lefts`] / [`Self::lengths`] expose them.
    ///
    /// # Errors
    /// Returns `OutOfDeviceMemory` if the regions do not fit in the pool.
    ///
    /// # Panics
    /// Panics if `dim` is zero, the buffers disagree in length, the length is
    /// not a multiple of `dim`, or the geometry is empty.
    pub fn from_flat_in(
        dim: usize,
        lefts: &[f64],
        lengths: &[f64],
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> DeviceResult<Self> {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(lefts.len(), lengths.len(), "geometry buffers must match");
        assert_eq!(lefts.len() % dim, 0, "geometry must be region-major");
        assert!(!lefts.is_empty(), "region list cannot be empty");
        let len = lefts.len() / dim;
        let charge = pool.reserve(Self::bytes_for(len, dim))?;
        let mut left_buf = arena.take_f64(lefts.len());
        left_buf.extend_from_slice(lefts);
        let mut length_buf = arena.take_f64(lengths.len());
        length_buf.extend_from_slice(lengths);
        Ok(Self {
            dim,
            len,
            lefts: left_buf,
            lengths: length_buf,
            charge,
        })
    }

    /// Number of regions in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the regions.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Device-memory bytes charged by this list.
    #[must_use]
    pub fn charged_bytes(&self) -> usize {
        self.charge.bytes()
    }

    /// The whole flat left-edge array, region-major (`[i*dim + axis]`) —
    /// the buffer a batched structure-of-arrays launch packs from.
    #[must_use]
    pub fn lefts(&self) -> &[f64] {
        &self.lefts[..self.len * self.dim]
    }

    /// The whole flat edge-length array, region-major (`[i*dim + axis]`).
    #[must_use]
    pub fn lengths(&self) -> &[f64] {
        &self.lengths[..self.len * self.dim]
    }

    /// Left edges of region `i`.
    #[must_use]
    pub fn lefts_of(&self, i: usize) -> &[f64] {
        &self.lefts[i * self.dim..(i + 1) * self.dim]
    }

    /// Edge lengths of region `i`.
    #[must_use]
    pub fn lengths_of(&self, i: usize) -> &[f64] {
        &self.lengths[i * self.dim..(i + 1) * self.dim]
    }

    /// Centre and half-widths of region `i`, written into the provided buffers.
    pub fn centered_view(&self, i: usize, center: &mut [f64], halfwidth: &mut [f64]) {
        let lefts = self.lefts_of(i);
        let lengths = self.lengths_of(i);
        for axis in 0..self.dim {
            halfwidth[axis] = 0.5 * lengths[axis];
            center[axis] = lefts[axis] + halfwidth[axis];
        }
    }

    /// Materialise region `i` as an owned [`Region`].
    #[must_use]
    pub fn region(&self, i: usize) -> Region {
        let lefts = self.lefts_of(i);
        let lengths = self.lengths_of(i);
        let lo: Vec<f64> = lefts.to_vec();
        let hi: Vec<f64> = lefts.iter().zip(lengths).map(|(&l, &s)| l + s).collect();
        Region::new(lo, hi)
    }

    /// Total volume of all regions in the list.
    #[must_use]
    pub fn total_volume(&self) -> f64 {
        (0..self.len)
            .map(|i| self.lengths_of(i).iter().product::<f64>())
            .sum()
    }

    /// Keep only the regions whose `mask` entry is non-zero, drawing the
    /// compacted copy's storage from `arena`.
    ///
    /// # Errors
    /// Returns `OutOfDeviceMemory` if the compacted copy does not fit (the original
    /// list is still alive while the copy is built, as on the GPU).
    ///
    /// # Panics
    /// Panics if `mask.len() != self.len()`.
    pub fn filter(
        &self,
        mask: &[u8],
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> DeviceResult<Self> {
        assert_eq!(mask.len(), self.len, "mask length mismatch");
        let len = mask.iter().filter(|&&m| m != 0).count();
        let charge = pool.reserve(Self::bytes_for(len, self.dim))?;
        let mut lefts = arena.take_f64(len * self.dim);
        let mut lengths = arena.take_f64(len * self.dim);
        for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m != 0) {
            lefts.extend_from_slice(self.lefts_of(i));
            lengths.extend_from_slice(self.lengths_of(i));
        }
        Ok(Self {
            dim: self.dim,
            len,
            lefts,
            lengths,
            charge,
        })
    }

    /// Split every region in half along its per-region `axes` entry, producing the
    /// next generation in the sibling layout described in the module docs and
    /// drawing the children's storage from `arena`.
    ///
    /// # Errors
    /// Returns `OutOfDeviceMemory` if the doubled list does not fit while this one is
    /// still allocated — the condition PAGANI's memory-exhaustion handling watches for.
    ///
    /// # Panics
    /// Panics if `axes.len() != self.len()` or any axis is out of range.
    pub fn split_all(
        &self,
        axes: &[usize],
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> DeviceResult<Self> {
        assert_eq!(axes.len(), self.len, "axis list length mismatch");
        let m = self.len;
        let dim = self.dim;
        let charge = pool.reserve(Self::bytes_for(2 * m, dim))?;
        let mut lefts = arena.take_f64(2 * m * dim);
        lefts.resize(2 * m * dim, 0.0);
        let mut lengths = arena.take_f64(2 * m * dim);
        lengths.resize(2 * m * dim, 0.0);
        for i in 0..m {
            let axis = axes[i];
            assert!(axis < dim, "split axis {axis} out of range for dim {dim}");
            let src_left = self.lefts_of(i);
            let src_len = self.lengths_of(i);
            let half = 0.5 * src_len[axis];
            // Left child in slot i, right child in slot m + i.
            let left_slot = &mut lefts[i * dim..(i + 1) * dim];
            left_slot.copy_from_slice(src_left);
            let right_slot_start = (m + i) * dim;
            lefts[right_slot_start..right_slot_start + dim].copy_from_slice(src_left);
            lefts[right_slot_start + axis] += half;

            lengths[i * dim..(i + 1) * dim].copy_from_slice(src_len);
            lengths[i * dim + axis] = half;
            lengths[right_slot_start..right_slot_start + dim].copy_from_slice(src_len);
            lengths[right_slot_start + axis] = half;
        }
        Ok(Self {
            dim,
            len: 2 * m,
            lefts,
            lengths,
            charge,
        })
    }

    /// Consume the list, shelving its backing storage into `arena` for the
    /// next generation or job and releasing its device-memory charge.
    pub fn retire(self, arena: &ScratchArena) {
        arena.put_f64(self.lefts);
        arena.put_f64(self.lengths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::{DeviceError, MemoryPool};
    use proptest::prelude::*;

    fn big_pool() -> MemoryPool {
        MemoryPool::new(64 << 20)
    }

    #[test]
    fn initial_split_covers_the_root() {
        let pool = big_pool();
        let root = Region::unit_cube(3);
        let list = RegionList::initial_split(&root, 4, &pool, &ScratchArena::new()).unwrap();
        assert_eq!(list.len(), 64);
        assert_eq!(list.dim(), 3);
        assert!((list.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn initial_split_charges_memory() {
        let pool = big_pool();
        let root = Region::unit_cube(2);
        let list = RegionList::initial_split(&root, 8, &pool, &ScratchArena::new()).unwrap();
        assert_eq!(list.charged_bytes(), RegionList::bytes_for(64, 2));
        assert_eq!(pool.usage().used, list.charged_bytes());
    }

    #[test]
    fn out_of_memory_surfaces() {
        let pool = MemoryPool::new(128);
        let root = Region::unit_cube(3);
        assert!(RegionList::initial_split(&root, 8, &pool, &ScratchArena::new()).is_err());
    }

    #[test]
    fn region_roundtrip() {
        let pool = big_pool();
        let root = Region::new(vec![-1.0, 2.0], vec![1.0, 6.0]);
        let list = RegionList::initial_split(&root, 2, &pool, &ScratchArena::new()).unwrap();
        // Region 0 is the lowest-corner cell.
        let r0 = list.region(0);
        assert_eq!(r0.lo(), &[-1.0, 2.0]);
        assert_eq!(r0.hi(), &[0.0, 4.0]);
        // The last region is the highest-corner cell.
        let r3 = list.region(3);
        assert_eq!(r3.lo(), &[0.0, 4.0]);
        assert_eq!(r3.hi(), &[1.0, 6.0]);
    }

    #[test]
    fn centered_view_matches_region() {
        let pool = big_pool();
        let list = RegionList::from_regions(&[Region::new(vec![0.0, 1.0], vec![2.0, 5.0])], &pool)
            .unwrap();
        let mut center = [0.0; 2];
        let mut halfwidth = [0.0; 2];
        list.centered_view(0, &mut center, &mut halfwidth);
        assert_eq!(center, [1.0, 3.0]);
        assert_eq!(halfwidth, [1.0, 2.0]);
    }

    #[test]
    fn split_all_uses_sibling_layout() {
        let pool = big_pool();
        let regions = vec![
            Region::new(vec![0.0, 0.0], vec![1.0, 1.0]),
            Region::new(vec![2.0, 0.0], vec![4.0, 2.0]),
        ];
        let list = RegionList::from_regions(&regions, &pool).unwrap();
        let children = list
            .split_all(&[0, 1], &pool, &ScratchArena::new())
            .unwrap();
        assert_eq!(children.len(), 4);
        // Parent 0 split along axis 0: left child occupies [0, 0.5].
        assert_eq!(children.region(0).hi()[0], 0.5);
        assert_eq!(children.region(2).lo()[0], 0.5);
        // Parent 1 split along axis 1: left child occupies [0, 1] on axis 1.
        assert_eq!(children.region(1).hi()[1], 1.0);
        assert_eq!(children.region(3).lo()[1], 1.0);
        // Volume is conserved.
        assert!((children.total_volume() - list.total_volume()).abs() < 1e-12);
    }

    #[test]
    fn filter_keeps_marked_regions_in_order() {
        let pool = big_pool();
        let arena = ScratchArena::new();
        let list = RegionList::initial_split(&Region::unit_cube(1), 4, &pool, &arena).unwrap();
        let filtered = list.filter(&[0, 1, 0, 1], &pool, &arena).unwrap();
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.region(0).lo()[0], 0.25);
        assert_eq!(filtered.region(1).lo()[0], 0.75);
    }

    #[test]
    fn memory_is_released_when_lists_drop() {
        let pool = big_pool();
        {
            let arena = ScratchArena::new();
            let list = RegionList::initial_split(&Region::unit_cube(3), 4, &pool, &arena).unwrap();
            let children = list.split_all(&vec![0; list.len()], &pool, &arena).unwrap();
            assert!(pool.usage().used >= children.charged_bytes());
        }
        assert_eq!(pool.usage().used, 0);
    }

    #[test]
    fn arena_path_produces_identical_geometry() {
        let pool = big_pool();
        let fresh = || ScratchArena::new();
        // A recycled arena: a retired generation's storage is on its shelves.
        let arena = ScratchArena::new();
        let root = Region::unit_cube(3);
        RegionList::initial_split(&root, 5, &pool, &arena)
            .unwrap()
            .retire(&arena);
        let plain = RegionList::initial_split(&root, 4, &pool, &fresh()).unwrap();
        let arenad = RegionList::initial_split(&root, 4, &pool, &arena).unwrap();
        assert!(arena.reuse_hits() >= 2, "hits {}", arena.reuse_hits());
        assert_eq!(plain.len(), arenad.len());
        for i in 0..plain.len() {
            assert_eq!(plain.lefts_of(i), arenad.lefts_of(i));
            assert_eq!(plain.lengths_of(i), arenad.lengths_of(i));
        }
        let axes = vec![0usize; plain.len()];
        let mask: Vec<u8> = (0..plain.len()).map(|i| (i % 2) as u8).collect();
        let plain_children = plain.split_all(&axes, &pool, &fresh()).unwrap();
        let arena_children = arenad.split_all(&axes, &pool, &arena).unwrap();
        for i in 0..plain_children.len() {
            assert_eq!(plain_children.lefts_of(i), arena_children.lefts_of(i));
        }
        let plain_filtered = plain.filter(&mask, &pool, &fresh()).unwrap();
        let arena_filtered = arenad.filter(&mask, &pool, &arena).unwrap();
        assert_eq!(plain_filtered.len(), arena_filtered.len());
        for i in 0..plain_filtered.len() {
            assert_eq!(plain_filtered.lefts_of(i), arena_filtered.lefts_of(i));
        }
    }

    #[test]
    fn retire_releases_charge_and_enables_reuse() {
        let pool = big_pool();
        let arena = ScratchArena::new();
        let list = RegionList::initial_split(&Region::unit_cube(3), 4, &pool, &arena).unwrap();
        let bytes = list.charged_bytes();
        assert_eq!(pool.usage().used, bytes);
        list.retire(&arena);
        assert_eq!(pool.usage().used, 0);
        // The next generation of the same shape is served from the shelf.
        let _again = RegionList::initial_split(&Region::unit_cube(3), 4, &pool, &arena).unwrap();
        assert!(arena.reuse_hits() >= 2, "hits {}", arena.reuse_hits());
    }

    #[test]
    fn split_failure_when_pool_is_tight() {
        // Pool fits the initial list but not the doubled generation.
        let dim = 2;
        let initial = RegionList::bytes_for(16, dim);
        let pool = MemoryPool::new(initial + RegionList::bytes_for(8, dim));
        let arena = ScratchArena::new();
        let list = RegionList::initial_split(&Region::unit_cube(dim), 4, &pool, &arena).unwrap();
        assert!(list.split_all(&[0; 16], &pool, &arena).is_err());
    }

    #[test]
    fn refused_lists_leave_the_arena_and_the_pool_untouched() {
        // The pool holds one 16-region list and has no room for another.  Each
        // constructor reserves before it draws arena storage, so a refusal
        // takes nothing from the arena and leaves the pool's charge as it was.
        let dim = 2;
        let pool = MemoryPool::new(RegionList::bytes_for(16, dim));
        let arena = ScratchArena::new();
        let list = RegionList::initial_split(&Region::unit_cube(dim), 4, &pool, &arena).unwrap();
        let used = pool.usage().used;
        let takes = || arena.reuse_hits() + arena.reuse_misses();
        let before = takes();
        let refusals = [
            RegionList::initial_split(&Region::unit_cube(dim), 4, &pool, &arena).unwrap_err(),
            list.filter(&[1; 16], &pool, &arena).unwrap_err(),
            list.split_all(&[0; 16], &pool, &arena).unwrap_err(),
            RegionList::from_flat_in(dim, list.lefts(), list.lengths(), &pool, &arena).unwrap_err(),
        ];
        assert!(refusals
            .iter()
            .all(|e| matches!(e, DeviceError::OutOfDeviceMemory { .. })));
        assert_eq!(takes(), before, "a refused list drew arena storage");
        assert_eq!(pool.usage().used, used);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_split_all_preserves_volume(
            dim in 1usize..5,
            d in 1usize..4,
            axis_seed in 0usize..1000,
        ) {
            let pool = MemoryPool::new(256 << 20);
            let arena = ScratchArena::new();
            let list = RegionList::initial_split(&Region::unit_cube(dim), d, &pool, &arena).unwrap();
            let axes: Vec<usize> = (0..list.len()).map(|i| (axis_seed + i) % dim).collect();
            let children = list.split_all(&axes, &pool, &arena).unwrap();
            prop_assert_eq!(children.len(), 2 * list.len());
            prop_assert!((children.total_volume() - list.total_volume()).abs() < 1e-10);
        }

        #[test]
        fn prop_filter_then_volume_is_partial_sum(
            d in 2usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let pool = MemoryPool::new(64 << 20);
            let arena = ScratchArena::new();
            let list = RegionList::initial_split(&Region::unit_cube(2), d, &pool, &arena).unwrap();
            let mask: Vec<u8> = (0..list.len()).map(|i| ((seed >> (i % 59)) & 1) as u8).collect();
            let expected: f64 = (0..list.len())
                .filter(|&i| mask[i] != 0)
                .map(|i| list.lengths_of(i).iter().product::<f64>())
                .sum();
            let filtered = list.filter(&mask, &pool, &arena).unwrap();
            prop_assert!((filtered.total_volume() - expected).abs() < 1e-12);
        }
    }
}
