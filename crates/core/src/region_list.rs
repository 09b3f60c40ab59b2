//! The flat, structure-of-arrays region list.
//!
//! PAGANI never builds a tree or a heap: the regions alive at one iteration are stored
//! as two flat coordinate arrays (per-axis left edge and per-axis length), exactly like
//! the `dRegions` / `dRegionsLength` buffers of the CUDA implementation.  Each list
//! reserves its bytes from the simulated device's [`MemoryPool`] before it fills any
//! storage, so subdivision fails with `OutOfDeviceMemory` where it would on the V100.
//!
//! The generation produced by [`RegionList::split_active`] uses the sibling layout the
//! `RefineError` kernel expects: splitting `m` kept parents yields `2m` children with
//! all left halves in slots `0..m` and all right halves in slots `m..2m`; child `i` and
//! `i ± m` are siblings and their parent is the `i mod m`-th kept region.

use pagani_device::{DeviceResult, MemoryPool, Reservation};
use pagani_quadrature::Region;

use crate::arena::ScratchArena;

/// Which reservation of [`RegionList::split_active`] the pool refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitRefusal {
    /// The kept regions did not fit beside the whole list.
    Kept,
    /// The children did not fit beside the kept regions.
    Children,
}

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
        let steps: Vec<f64> = (0..dim).map(|axis| root.extent(axis) / d as f64).collect();
        let mut coords = vec![0usize; dim];
        for _ in 0..count {
            for ((&lo, &step), &c) in root.lo().iter().zip(&steps).zip(&coords) {
                lefts.push(lo + c as f64 * step);
            }
            lengths.extend_from_slice(&steps);
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

    /// Replace this generation with the next, in place: drop the regions
    /// whose `mask` entry is zero and split every kept one in half along its
    /// `axes` entry, in the sibling layout of the module docs — the children
    /// of the `k`-th kept region go to slots `k` and `kept + k`.
    ///
    /// Device memory is charged as a copy of the kept regions followed by
    /// their split would be: the kept regions' bytes are reserved while this
    /// list is charged, then this list's charge is released, then the
    /// children's bytes are reserved while the kept regions' are held.
    ///
    /// # Errors
    /// [`SplitRefusal::Kept`] if the kept regions do not fit beside this list,
    /// which is left as it was; [`SplitRefusal::Children`] if the children do
    /// not fit beside the kept regions — the condition PAGANI's
    /// memory-exhaustion handling watches for — and the list then holds just
    /// the kept regions, in order.
    ///
    /// # Panics
    /// Panics if `mask` or `axes` does not match the list's length, or a kept
    /// region's axis is out of range.
    pub fn split_active(
        &mut self,
        mask: &[u8],
        axes: &[usize],
        pool: &MemoryPool,
    ) -> Result<(), SplitRefusal> {
        assert_eq!(mask.len(), self.len, "mask length mismatch");
        assert_eq!(axes.len(), self.len, "axis list length mismatch");
        let dim = self.dim;
        let kept_parents = || {
            (mask.iter().zip(axes).enumerate())
                .filter(|(_, (&m, _))| m != 0)
                .map(|(i, (_, &axis))| (i, axis))
        };
        let kept = mask.iter().filter(|&&m| m != 0).count();
        let kept_charge = pool
            .reserve(Self::bytes_for(kept, dim))
            .map_err(|_| SplitRefusal::Kept)?;
        drop(std::mem::replace(&mut self.charge, kept_charge));
        let children_charge = pool.reserve(Self::bytes_for(2 * kept, dim));
        // Move the kept regions to the front, in order (the `k`-th kept
        // region never sits below slot `k`); when the children fit, each is
        // already its left child, with the split axis's length halved.
        for (k, (i, axis)) in kept_parents().enumerate() {
            assert!(axis < dim, "split axis {axis} out of range for dim {dim}");
            self.lefts.copy_within(i * dim..(i + 1) * dim, k * dim);
            self.lengths.copy_within(i * dim..(i + 1) * dim, k * dim);
            if children_charge.is_ok() {
                self.lengths[k * dim + axis] *= 0.5;
            }
        }
        let half = kept * dim;
        self.lefts.truncate(half);
        self.lengths.truncate(half);
        self.len = kept;
        self.charge = children_charge.map_err(|_| SplitRefusal::Children)?;
        // Right children: the same lengths, the left edge moved up by the half.
        self.lefts.extend_from_within(..);
        self.lengths.extend_from_within(..);
        for (k, (_, axis)) in kept_parents().enumerate() {
            self.lefts[half + k * dim + axis] += self.lengths[k * dim + axis];
        }
        self.len = 2 * kept;
        Ok(())
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
        let mut list = RegionList::from_regions(&regions, &pool).unwrap();
        let volume = list.total_volume();
        list.split_active(&[1, 1], &[0, 1], &pool).unwrap();
        assert_eq!(list.len(), 4);
        // Parent 0 split along axis 0: left child occupies [0, 0.5].
        assert_eq!(list.region(0).hi()[0], 0.5);
        assert_eq!(list.region(2).lo()[0], 0.5);
        // Parent 1 split along axis 1: left child occupies [0, 1] on axis 1.
        assert_eq!(list.region(1).hi()[1], 1.0);
        assert_eq!(list.region(3).lo()[1], 1.0);
        // Volume is conserved.
        assert!((list.total_volume() - volume).abs() < 1e-12);
    }

    #[test]
    fn filter_keeps_marked_regions_in_order() {
        let pool = big_pool();
        let arena = ScratchArena::new();
        let mut list = RegionList::initial_split(&Region::unit_cube(1), 4, &pool, &arena).unwrap();
        list.split_active(&[0, 1, 0, 1], &[0; 4], &pool).unwrap();
        // The children of the k-th kept region sit in slots k and kept + k.
        let lows: Vec<f64> = (0..list.len()).map(|i| list.region(i).lo()[0]).collect();
        assert_eq!(lows, [0.25, 0.75, 0.375, 0.875]);
        // Refused children leave the kept regions alone, in order: the pool
        // holds the list and the kept copy (4 + 3 regions) but not the kept
        // regions and their children (3 + 6).
        let tight = MemoryPool::new(RegionList::bytes_for(8, 1));
        let mut list = RegionList::initial_split(&Region::unit_cube(1), 4, &tight, &arena).unwrap();
        let refused = list.split_active(&[0, 1, 1, 1], &[0; 4], &tight);
        assert_eq!(refused, Err(SplitRefusal::Children));
        assert_eq!(list.lefts(), [0.25, 0.5, 0.75]);
        assert_eq!(list.lengths(), [0.25; 3]);
        assert_eq!(list.charged_bytes(), RegionList::bytes_for(3, 1));
    }

    #[test]
    fn memory_is_released_when_lists_drop() {
        let pool = big_pool();
        {
            let arena = ScratchArena::new();
            let mut list =
                RegionList::initial_split(&Region::unit_cube(3), 4, &pool, &arena).unwrap();
            let len = list.len();
            list.split_active(&vec![1; len], &vec![0; len], &pool)
                .unwrap();
            assert_eq!(pool.usage().used, list.charged_bytes());
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
        // Pool fits the initial list and its copy but not the doubled generation.
        let dim = 2;
        let initial = RegionList::bytes_for(16, dim);
        let pool = MemoryPool::new(2 * initial + RegionList::bytes_for(8, dim));
        let arena = ScratchArena::new();
        let mut list =
            RegionList::initial_split(&Region::unit_cube(dim), 4, &pool, &arena).unwrap();
        let refused = list.split_active(&[1; 16], &[0; 16], &pool);
        assert_eq!(refused, Err(SplitRefusal::Children));
        assert_eq!(list.len(), 16);
    }

    #[test]
    fn refused_lists_leave_the_arena_and_the_pool_untouched() {
        // The pool holds one 16-region list and has no room for another.  Each
        // constructor reserves before it draws arena storage, so a refusal
        // takes nothing from the arena and leaves the pool's charge as it was.
        let dim = 2;
        let pool = MemoryPool::new(RegionList::bytes_for(16, dim));
        let arena = ScratchArena::new();
        let mut list =
            RegionList::initial_split(&Region::unit_cube(dim), 4, &pool, &arena).unwrap();
        let (lefts, lengths) = (list.lefts().to_vec(), list.lengths().to_vec());
        let used = pool.usage().used;
        let takes = || arena.reuse_hits() + arena.reuse_misses();
        let before = takes();
        let refusals = [
            RegionList::initial_split(&Region::unit_cube(dim), 4, &pool, &arena).unwrap_err(),
            RegionList::from_flat_in(dim, list.lefts(), list.lengths(), &pool, &arena).unwrap_err(),
        ];
        assert!(refusals
            .iter()
            .all(|e| matches!(e, DeviceError::OutOfDeviceMemory { .. })));
        let refused = list.split_active(&[1; 16], &[0; 16], &pool);
        assert_eq!(refused, Err(SplitRefusal::Kept));
        assert_eq!((list.lefts(), list.lengths()), (&lefts[..], &lengths[..]));
        assert_eq!(takes(), before, "a refused list drew arena storage");
        assert_eq!(pool.usage().used, used);
    }

    /// The compaction as it was before the split took it over: the kept
    /// regions copied into a list of their own.
    fn filter(
        list: &RegionList,
        mask: &[u8],
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> DeviceResult<RegionList> {
        let len = mask.iter().filter(|&&m| m != 0).count();
        let charge = pool.reserve(RegionList::bytes_for(len, list.dim))?;
        let mut lefts = arena.take_f64(len * list.dim);
        let mut lengths = arena.take_f64(len * list.dim);
        for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m != 0) {
            lefts.extend_from_slice(list.lefts_of(i));
            lengths.extend_from_slice(list.lengths_of(i));
        }
        Ok(RegionList {
            dim: list.dim,
            len,
            lefts,
            lengths,
            charge,
        })
    }

    /// The split as it was before it took over the compaction.
    fn split_all(
        list: &RegionList,
        axes: &[usize],
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> DeviceResult<RegionList> {
        let (m, dim) = (list.len, list.dim);
        let charge = pool.reserve(RegionList::bytes_for(2 * m, dim))?;
        let mut lefts = arena.take_f64(2 * m * dim);
        lefts.resize(2 * m * dim, 0.0);
        let mut lengths = arena.take_f64(2 * m * dim);
        lengths.resize(2 * m * dim, 0.0);
        for (i, &axis) in axes.iter().enumerate() {
            let (src_left, src_len) = (list.lefts_of(i), list.lengths_of(i));
            let half = 0.5 * src_len[axis];
            let right = (m + i) * dim;
            lefts[i * dim..(i + 1) * dim].copy_from_slice(src_left);
            lefts[right..right + dim].copy_from_slice(src_left);
            lefts[right + axis] += half;
            lengths[i * dim..(i + 1) * dim].copy_from_slice(src_len);
            lengths[i * dim + axis] = half;
            lengths[right..right + dim].copy_from_slice(src_len);
            lengths[right + axis] = half;
        }
        Ok(RegionList {
            dim,
            len: 2 * m,
            lefts,
            lengths,
            charge,
        })
    }

    /// Filter-then-split as the driver ran it: the compacted copy is made
    /// while the list is charged, the list is retired, then the copy is split.
    /// Returns the next generation, or the refusal and the list left behind.
    fn filter_then_split(
        list: RegionList,
        mask: &[u8],
        axes: &[usize],
        pool: &MemoryPool,
        arena: &ScratchArena,
    ) -> Result<RegionList, (SplitRefusal, RegionList)> {
        let Ok(filtered) = filter(&list, mask, pool, arena) else {
            return Err((SplitRefusal::Kept, list));
        };
        list.retire(arena);
        let kept_axes: Vec<usize> = (axes.iter().zip(mask))
            .filter(|(_, &m)| m != 0)
            .map(|(&axis, _)| axis)
            .collect();
        match split_all(&filtered, &kept_axes, pool, arena) {
            Ok(children) => {
                filtered.retire(arena);
                Ok(children)
            }
            Err(_) => Err((SplitRefusal::Children, filtered)),
        }
    }

    fn geometry_bits(list: &RegionList) -> (Vec<u64>, Vec<u64>, usize) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            bits(list.lefts()),
            bits(list.lengths()),
            list.charged_bytes(),
        )
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
            let mut list = RegionList::initial_split(&Region::unit_cube(dim), d, &pool, &arena).unwrap();
            let (len, volume) = (list.len(), list.total_volume());
            let axes: Vec<usize> = (0..len).map(|i| (axis_seed + i) % dim).collect();
            list.split_active(&vec![1; len], &axes, &pool).unwrap();
            prop_assert_eq!(list.len(), 2 * len);
            prop_assert!((list.total_volume() - volume).abs() < 1e-10);
        }

        #[test]
        fn prop_filter_then_volume_is_partial_sum(
            d in 2usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let pool = MemoryPool::new(64 << 20);
            let arena = ScratchArena::new();
            let mut list = RegionList::initial_split(&Region::unit_cube(2), d, &pool, &arena).unwrap();
            let mask: Vec<u8> = (0..list.len()).map(|i| ((seed >> (i % 59)) & 1) as u8).collect();
            let expected: f64 = (0..list.len())
                .filter(|&i| mask[i] != 0)
                .map(|i| list.lengths_of(i).iter().product::<f64>())
                .sum();
            let axes: Vec<usize> = (0..list.len()).map(|i| i % 2).collect();
            list.split_active(&mask, &axes, &pool).unwrap();
            prop_assert!((list.total_volume() - expected).abs() < 1e-12);
        }

        /// The in-place split reproduces filter-then-split bit for bit — the
        /// next generation, the pool's `used` and `peak`, and at each
        /// refusal the list left behind — at pool sizes around both
        /// reservations.
        #[test]
        fn prop_split_active_matches_filter_then_split(
            dim in 1usize..6,
            count in 1usize..120,
            lefts in proptest::collection::vec(-10.0f64..10.0, 600..601),
            lengths in proptest::collection::vec(1e-6f64..5.0, 600..601),
            axis_codes in proptest::collection::vec(0usize..64, 120..121),
            keep_per_mille in 0u64..1001,
            seed in 0u64..u64::MAX,
            slack in 0usize..4096,
        ) {
            let values = count * dim;
            let (lefts, lengths) = (&lefts[..values], &lengths[..values]);
            let axes: Vec<usize> = axis_codes[..count].iter().map(|&c| c % dim).collect();
            let mask: Vec<u8> = (0..count as u64)
                .map(|i| u8::from((seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1000 < keep_per_mille))
                .collect();
            let kept = mask.iter().filter(|&&m| m != 0).count();
            let (whole, kept_bytes) = (RegionList::bytes_for(count, dim), RegionList::bytes_for(kept, dim));
            // Just short of the kept copy, room for the copy but not the
            // children (when there is such a size), and room for both.
            let short = 1 + slack % 64;
            let capacities = [
                whole + kept_bytes.saturating_sub(short),
                (whole + kept_bytes).max((3 * kept_bytes).saturating_sub(short)),
                (whole + kept_bytes).max(3 * kept_bytes) + slack,
            ];
            for capacity in capacities {
                let (old_pool, new_pool) = (MemoryPool::new(capacity), MemoryPool::new(capacity));
                let arena = ScratchArena::new();
                let old_list = RegionList::from_flat_in(dim, lefts, lengths, &old_pool, &arena).unwrap();
                let mut new_list = RegionList::from_flat_in(dim, lefts, lengths, &new_pool, &arena).unwrap();
                let old = filter_then_split(old_list, &mask, &axes, &old_pool, &arena);
                let new = new_list.split_active(&mask, &axes, &new_pool);
                let (old_outcome, old_list) = match old {
                    Ok(children) => (Ok(()), children),
                    Err((refusal, list)) => (Err(refusal), list),
                };
                prop_assert_eq!(new, old_outcome);
                prop_assert_eq!(geometry_bits(&new_list), geometry_bits(&old_list));
                prop_assert_eq!(new_pool.usage(), old_pool.usage());
                match new {
                    Err(SplitRefusal::Kept) => {
                        prop_assert_eq!(new_list.lefts(), lefts);
                        prop_assert_eq!(new_list.lengths(), lengths);
                    }
                    Err(SplitRefusal::Children) => {
                        prop_assert_eq!(new_list.charged_bytes(), kept_bytes);
                    }
                    Ok(()) => prop_assert_eq!(new_list.len(), 2 * kept),
                }
            }
        }
    }
}
