//! A page-mapping FTL simulator with greedy garbage collection.
//!
//! The simulator exists to validate the closed-form write-amplification
//! model empirically: it maintains a logical-to-physical page map, appends
//! host writes to an active block, and when free blocks run low reclaims the
//! block with the fewest valid pages (greedy victim selection), copying its
//! live pages forward. Write amplification is measured as NAND page writes
//! per host page write.

use std::ops::Range;

use crate::provisioning::OverProvisioning;
use crate::trace::WriteTrace;

/// Geometry of the simulated SSD.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtlConfig {
    /// Number of physical erase blocks.
    pub blocks: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Over-provisioning factor (spare / user capacity).
    pub over_provisioning: OverProvisioning,
    /// Garbage collection triggers when free blocks drop below this count.
    pub gc_free_block_threshold: u32,
}

impl FtlConfig {
    /// A small but representative device: 256 blocks × 64 pages.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_ssd::{FtlConfig, OverProvisioning};
    /// let config = FtlConfig::small(OverProvisioning::new(0.28)?);
    /// assert_eq!(config.physical_pages(), 256 * 64);
    /// # Ok::<(), act_ssd::OverProvisioningError>(())
    /// ```
    #[must_use]
    pub fn small(over_provisioning: OverProvisioning) -> Self {
        Self { blocks: 256, pages_per_block: 64, over_provisioning, gc_free_block_threshold: 4 }
    }

    /// Total physical pages.
    #[must_use]
    pub fn physical_pages(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.pages_per_block)
    }

    /// Logical (user-visible) pages: physical capacity shrunk by the
    /// over-provisioning factor.
    #[must_use]
    pub fn logical_pages(&self) -> u64 {
        (self.physical_pages() as f64 / self.over_provisioning.physical_capacity_factor())
            .floor() as u64
    }
}

act_json::json_struct! {
    [ToJson]
    /// Counters accumulated by the simulator.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FtlStats {
        /// Pages written by the host.
        pub host_writes: u64,
        /// Pages written to NAND (host writes plus GC copies).
        pub nand_writes: u64,
        /// GC page copies.
        pub gc_copies: u64,
        /// Blocks erased.
        pub erases: u64,
    }
}

impl FtlStats {
    /// Measured write amplification: NAND writes per host write.
    ///
    /// Returns 1.0 before any host write has been recorded.
    #[must_use]
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.nand_writes as f64 / self.host_writes as f64
        }
    }
}

// `u16`, not `u32`: page numbers are bounded by the physical page count
// (asserted < `u16::MAX` at construction; `FtlConfig::small` has 16,384).
// The simulator is memory-bound, so the footprint of what a host write
// touches at random sets its speed. For `small` at 28 % OP that is the
// 25 KB `l2p` and the 2 KB valid-page bitset, where the `u32` l2p and
// reverse map were 115 KB; `lpn_of` is only written in runs and read one
// victim block at a time.
const NO_PAGE: u16 = u16::MAX;

/// The page-mapping FTL simulator.
///
/// # Examples
///
/// ```
/// use act_ssd::{FtlConfig, FtlSimulator, OverProvisioning, TracePattern, WriteTrace};
///
/// let config = FtlConfig::small(OverProvisioning::new(0.28)?);
/// let mut ftl = FtlSimulator::new(config);
/// let mut trace = WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 1);
/// ftl.run(&mut trace, 20_000);
/// assert!(ftl.stats().write_amplification() >= 1.0);
/// # Ok::<(), act_ssd::OverProvisioningError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FtlSimulator {
    config: FtlConfig,
    /// logical page -> physical page (NO_PAGE = unmapped).
    l2p: Vec<u16>,
    /// physical page -> the logical page last placed there. Each placement
    /// writes it once and nothing invalidates it: it means something only
    /// where `valid` has the page's bit set.
    lpn_of: Vec<u16>,
    /// One bit per physical page, set while the page holds live data. A
    /// block's valid count is the popcount of its range, taken only when
    /// the block retires (and by the reference checks).
    valid: Vec<u64>,
    erase_counts: Vec<u64>,
    write_pointer: Vec<u32>,
    free_blocks: Vec<u32>,
    active_block: u32,
    stats: FtlStats,
    // --- hot-path caches, all derived from `config` at construction ---
    /// `config.logical_pages()`, cached: it is a float divide and floor.
    logical_pages: u64,
    /// Physical page -> block, a shift on power-of-two geometries.
    block_of: BlockOf,
    /// Reusable staging buffer for the still-valid pages of a GC victim,
    /// so the copy loop is two flat passes (gather, then bulk placement)
    /// instead of one interleaved read-modify-write per page.
    gc_scratch: Vec<u16>,
    /// Per-block greedy-GC scan key: the block's valid count while it is a
    /// victim candidate (full and not active), [`NOT_A_CANDIDATE`] otherwise.
    /// Maintained incrementally so victim selection is two flat passes over
    /// a dense `u16` array (min, then the first 16-key chunk holding it)
    /// instead of a branchy filtered scan — both vectorize.
    gc_scan: Vec<u16>,
}

/// The block containing a physical page: a shift for power-of-two
/// geometries (`shift = log2(pages_per_block)`), a divide otherwise.
/// `Copy`, so the host-write loop can hold it while it borrows the
/// simulator's tables.
#[derive(Clone, Copy, Debug)]
struct BlockOf {
    ppb: u32,
    shift: u32,
    pow2: bool,
}

impl BlockOf {
    /// Bit-identical to `ppn / pages_per_block`.
    #[inline]
    fn of(self, ppn: u16) -> usize {
        if self.pow2 {
            usize::from(ppn) >> self.shift
        } else {
            (u32::from(ppn) / self.ppb) as usize
        }
    }
}

/// `gc_scan` marker for blocks that are not GC victim candidates (free,
/// active, or partially written). `u16::MAX` sorts after every real valid
/// count, so the min-scan skips them without a filter branch.
const NOT_A_CANDIDATE: u16 = u16::MAX;

/// Most host pages one stretch of [`FtlSimulator::write_pages`] draws
/// before it applies them: a 128-byte stack buffer, and a whole block of the
/// default geometry.
const LPN_BATCH: usize = 64;

/// Calls `f` with each word of the valid-page bitset that `pages` touches
/// and the mask of `pages`' bits in that word, in ascending order. A block
/// of a power-of-two geometry up to 64 pages is one word; a 100-page block
/// spans two or three.
#[inline]
fn for_each_word(pages: Range<usize>, mut f: impl FnMut(usize, u64)) {
    let mut start = pages.start;
    while start < pages.end {
        let word = start / 64;
        let lo = start % 64;
        let hi = (pages.end - word * 64).min(64);
        // 1 <= hi - lo <= 64, so the shift is in 0..=63.
        f(word, (u64::MAX >> (64 - (hi - lo))) << lo);
        start = word * 64 + hi;
    }
}

/// Marks `pages` valid.
#[inline]
fn set_pages(valid: &mut [u64], pages: Range<usize>) {
    for_each_word(pages, |word, mask| valid[word] |= mask);
}

/// Marks `pages` invalid.
#[inline]
fn clear_pages(valid: &mut [u64], pages: Range<usize>) {
    for_each_word(pages, |word, mask| valid[word] &= !mask);
}

/// The number of valid pages in `pages`.
fn count_pages(valid: &[u64], pages: Range<usize>) -> u32 {
    let mut count = 0;
    for_each_word(pages, |word, mask| count += (valid[word] & mask).count_ones());
    count
}

impl FtlSimulator {
    /// Creates a simulator with all blocks erased.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (fewer than 8 blocks, or a GC
    /// threshold that leaves no room to operate), or has `u16::MAX` or more
    /// physical pages.
    #[must_use]
    pub fn new(config: FtlConfig) -> Self {
        assert!(config.blocks >= 8, "need at least 8 blocks");
        assert!(config.pages_per_block >= 1, "need at least one page per block");
        assert!(
            config.gc_free_block_threshold >= 2
                && config.gc_free_block_threshold < config.blocks / 2,
            "GC threshold must be in [2, blocks/2)"
        );
        // Also bounds a block's valid count, the `u16` GC scan key, by
        // `pages_per_block < u16::MAX`.
        assert!(
            config.physical_pages() < u64::from(u16::MAX),
            "physical pages must fit the u16 page maps"
        );
        let physical = config.physical_pages() as usize;
        let logical_pages = config.logical_pages();
        let ppb = config.pages_per_block;
        Self {
            config,
            l2p: vec![NO_PAGE; logical_pages as usize],
            lpn_of: vec![NO_PAGE; physical],
            valid: vec![0; physical.div_ceil(64)],
            erase_counts: vec![0; config.blocks as usize],
            write_pointer: vec![0; config.blocks as usize],
            free_blocks: (1..config.blocks).rev().collect(),
            active_block: 0,
            stats: FtlStats::default(),
            logical_pages,
            block_of: BlockOf { ppb, shift: ppb.trailing_zeros(), pow2: ppb.is_power_of_two() },
            gc_scratch: Vec::with_capacity(ppb as usize),
            gc_scan: vec![NOT_A_CANDIDATE; config.blocks as usize],
        }
    }

    /// The device geometry.
    #[must_use]
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Counters since construction or the last [`FtlSimulator::reset_stats`].
    #[must_use]
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Clears the counters (e.g. after steady-state warmup) without touching
    /// the mapping state.
    pub fn reset_stats(&mut self) {
        self.stats = FtlStats::default();
    }

    /// Writes one logical page.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the logical space, or if garbage
    /// collection cannot make room because the over-provisioning is too
    /// small: every victim candidate is fully valid, so collecting one
    /// frees no page.
    #[inline]
    pub fn write(&mut self, lpn: u64) {
        assert!(lpn < self.logical_pages, "logical page {lpn} out of range");
        self.write_pages(1, || lpn);
    }

    /// Feeds `count` writes from a trace into the device.
    ///
    /// # Panics
    ///
    /// Panics before any write if the trace's logical space is larger
    /// than the device's, and as [`write`](Self::write) if the
    /// over-provisioning is too small for garbage collection to make room.
    pub fn run(&mut self, trace: &mut WriteTrace, count: u64) {
        // A trace never draws outside its own space, so this one check
        // bounds every page it draws.
        assert!(
            trace.logical_pages() <= self.logical_pages,
            "trace of {} logical pages exceeds the device's {}",
            trace.logical_pages(),
            self.logical_pages
        );
        self.write_pages(count, || trace.next_page());
    }

    /// Measures steady-state write amplification: warms up with
    /// `2 × logical_pages` trace writes (random traces revisit some pages
    /// and miss others, so this need not touch every page), resets the
    /// counters, then measures over `measure_writes` trace writes.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    #[must_use]
    pub fn measure_steady_state_wa(
        &mut self,
        trace: &mut WriteTrace,
        measure_writes: u64,
    ) -> f64 {
        let warmup = self.logical_pages * 2;
        self.run(trace, warmup);
        self.reset_stats();
        self.run(trace, measure_writes);
        self.stats.write_amplification()
    }

    /// The physical pages of `block`.
    #[inline]
    fn block_pages(&self, block: u32) -> Range<usize> {
        let ppb = self.config.pages_per_block as usize;
        let base = block as usize * ppb;
        base..base + ppb
    }

    /// The valid pages of `block`: the popcount of its bitset range.
    fn valid_count(&self, block: u32) -> u32 {
        count_pages(&self.valid, self.block_pages(block))
    }

    /// Makes a retiring active block a GC victim candidate: its scan key
    /// becomes its valid count. This happens when the next page pops a fresh
    /// block, not when the block fills — matching the `b != active_block`
    /// filter of the reference selection.
    fn retire(&mut self, block: u32) {
        // Valid counts are at most pages_per_block < u16::MAX (see `new`).
        #[allow(clippy::cast_possible_truncation)]
        {
            self.gc_scan[block as usize] = self.valid_count(block) as u16;
        }
    }

    /// The one host-write path, behind both [`write`](Self::write) and
    /// [`run`](Self::run): `count` pages drawn from `next_lpn`, which the
    /// callers bound by the logical space, each handled exactly as a lone
    /// write — GC headroom, then invalidating the page's old copy, then
    /// retiring a full active block and popping a free one, then placing
    /// the page.
    ///
    /// The pages go in stretches that land in one block: the one page
    /// that pops a block, or else at most the active block's remaining
    /// room. A stretch's pages are placed at consecutive physical pages,
    /// so their valid bits are set and their `lpn_of` entries copied up
    /// front; the per-page loop only clears an old copy's bit and stores
    /// the new `l2p` entry. `free_blocks` only shrinks at a pop, so GC
    /// headroom needs checking only before a stretch.
    #[inline]
    fn write_pages(&mut self, count: u64, mut next_lpn: impl FnMut() -> u64) {
        let ppb = self.config.pages_per_block;
        let gc_threshold = self.config.gc_free_block_threshold as usize;
        let block_of = self.block_of;
        let mut lpn_buf = [0_u16; LPN_BATCH];
        let mut left = count;
        while left > 0 {
            while self.free_blocks.len() < gc_threshold {
                self.collect_garbage();
            }
            let retiring = self.active_block;
            let wp = self.write_pointer[retiring as usize];
            // A full active block retires at the next page, which then
            // pops a fresh one: that page is a stretch of its own, at the
            // start of the block about to be popped.
            #[allow(clippy::cast_possible_truncation)]
            let (block, start, n) = if wp == ppb {
                let next = self.free_blocks.last().copied();
                (next.expect("GC headroom guarantees a free block"), 0, 1)
            } else {
                (retiring, wp, left.min(u64::from(ppb - wp)).min(LPN_BATCH as u64) as usize)
            };
            // Draw the whole stretch before touching any table: the trace
            // generator then runs alone in a tight loop.
            let lpns = &mut lpn_buf[..n];
            for slot in lpns.iter_mut() {
                let lpn = next_lpn();
                debug_assert!(lpn < self.logical_pages, "logical page {lpn} out of range");
                // Callers bound every page by logical_pages <= physical
                // pages < u16::MAX.
                #[allow(clippy::cast_possible_truncation)]
                {
                    *slot = lpn as u16;
                }
            }
            let base = (block * ppb + start) as usize;
            let pages = base..base + n;
            // Every page is live from the start; one the stretch overwrites
            // again has its bit cleared below like any old copy.
            set_pages(&mut self.valid, pages.clone());
            self.lpn_of[pages].copy_from_slice(lpns);
            let Self { l2p, valid, gc_scan, .. } = self;
            // Slices, not `&mut Vec`s: indexing through a `Vec` reloads its
            // pointer and length after every store into its buffer.
            let (l2p, valid, gc_scan) =
                (l2p.as_mut_slice(), valid.as_mut_slice(), gc_scan.as_mut_slice());
            for (ppn, &lpn) in (base..).zip(&*lpns) {
                let old = l2p[usize::from(lpn)];
                if old != NO_PAGE {
                    valid[usize::from(old) / 64] &= !(1 << (old % 64));
                    let old_block = block_of.of(old);
                    gc_scan[old_block] -= u16::from(gc_scan[old_block] != NOT_A_CANDIDATE);
                }
                // ppn < physical pages < u16::MAX.
                #[allow(clippy::cast_possible_truncation)]
                {
                    l2p[usize::from(lpn)] = ppn as u16;
                }
            }
            if wp == ppb {
                // After the page invalidated its old copy, which may sit
                // in the retiring block.
                self.retire(retiring);
                self.active_block =
                    self.free_blocks.pop().expect("GC headroom guarantees a free block");
            }
            #[allow(clippy::cast_possible_truncation)]
            {
                self.write_pointer[block as usize] = start + n as u32;
            }
            let n = n as u64;
            self.stats.host_writes += n;
            self.stats.nand_writes += n;
            left -= n;
        }
    }

    /// Reclaims one victim block: selects the candidate with the fewest
    /// valid pages (lowest index on ties), copies its live pages to the
    /// write frontier, and erases it onto the free list.
    ///
    /// # Panics
    ///
    /// Panics if every candidate is fully valid. The only invalid pages
    /// left then sit in the active block: collecting any victim frees no
    /// page, and the GC-headroom loop of the host-write path would spin
    /// forever.
    fn collect_garbage(&mut self) {
        let ppb = self.config.pages_per_block;
        // The fewest valid pages of any candidate (full, inactive block).
        let min = self.gc_scan.iter().copied().min().unwrap_or(NOT_A_CANDIDATE);
        assert!(min != NOT_A_CANDIDATE, "a full victim block always exists");
        assert!(
            u32::from(min) < ppb,
            "over-provisioning too small: every GC candidate is fully valid"
        );
        // Two passes over the dense scan-key array: the min above, then a
        // find-first over 16-key chunks — the first chunk holding the min,
        // then its first match inside that chunk. Non-candidates carry
        // `NOT_A_CANDIDATE = u16::MAX`, which never wins the min; the min
        // and each chunk's hit test are branch-free folds that vectorize,
        // and only the chunk loop exits early (a key-by-key `position`
        // would branch on every key). An order of magnitude cheaper than
        // the equivalent filter + min_by_key scan, with the identical
        // lowest-index tie-break.
        let (chunks, tail) = self.gc_scan.as_chunks::<16>();
        let chunk = chunks
            .iter()
            .position(|keys| keys.iter().fold(false, |hit, &key| hit | (key == min)));
        let (offset, keys) = match chunk {
            Some(c) => (c * 16, &chunks[c][..]),
            None => (chunks.len() * 16, tail),
        };
        // The assert above proved `min` occupies some slot, so the fallback
        // index is unreachable — it only keeps this library-code path free
        // of unwrap/expect.
        #[allow(clippy::cast_possible_truncation)]
        let victim =
            (offset + keys.iter().position(|&key| key == min).unwrap_or_default()) as u32;
        debug_assert_eq!(
            Some(victim),
            (0..self.config.blocks)
                .filter(|&b| b != self.active_block && self.write_pointer[b as usize] == ppb)
                .min_by_key(|&b| self.valid_count(b)),
            "scan-key victim must match the reference selection"
        );
        // The victim leaves candidacy immediately (it will be erased below).
        self.gc_scan[victim as usize] = NOT_A_CANDIDATE;
        // Gather the victim's live pages — the set bits of its range,
        // named by `lpn_of` — then erase its range of the bitset. Mapping
        // integrity (`l2p[lpn_of[x]] == x` for every valid `x`) makes the
        // per-page l2p lookup and block divide of a host write redundant
        // here, and batching turns the per-page bookkeeping into one
        // update per victim.
        let pages = self.block_pages(victim);
        let mut scratch = std::mem::take(&mut self.gc_scratch);
        scratch.clear();
        for_each_word(pages.clone(), |word, mask| {
            let mut live = self.valid[word] & mask;
            while live != 0 {
                scratch.push(self.lpn_of[word * 64 + live.trailing_zeros() as usize]);
                live &= live - 1;
            }
        });
        clear_pages(&mut self.valid, pages);
        self.stats.gc_copies += scratch.len() as u64;
        self.place_gc_copies(&scratch);
        self.gc_scratch = scratch;
        // Erase the victim. The gather pass above already cleared its
        // valid bits, so only the write pointer and wear accounting remain.
        self.write_pointer[victim as usize] = 0;
        self.erase_counts[victim as usize] += 1;
        self.stats.erases += 1;
        self.free_blocks.push(victim);
    }

    /// Places GC copies: writes `scratch` to the write frontier in
    /// block-sized chunks — the `lpn_of` stores become one
    /// `copy_from_slice` per chunk and the valid bits, write pointer and
    /// stats one update each, leaving only the (inherently random) l2p
    /// store per copied page. State after the call is identical to placing
    /// the pages one at a time as host writes do (retire a full active
    /// block, pop, place).
    fn place_gc_copies(&mut self, scratch: &[u16]) {
        let ppb = self.config.pages_per_block;
        let mut rest = scratch;
        while !rest.is_empty() {
            if self.write_pointer[self.active_block as usize] == ppb {
                self.retire(self.active_block);
                self.active_block =
                    self.free_blocks.pop().expect("GC headroom guarantees a free block");
            }
            let block = self.active_block as usize;
            let wp = self.write_pointer[block];
            let n = ((ppb - wp) as usize).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            let base = (self.active_block * ppb + wp) as usize;
            for (ppn, &lpn) in (base..).zip(chunk) {
                // ppn < physical pages < u16::MAX.
                #[allow(clippy::cast_possible_truncation)]
                {
                    self.l2p[usize::from(lpn)] = ppn as u16;
                }
            }
            self.lpn_of[base..base + n].copy_from_slice(chunk);
            set_pages(&mut self.valid, base..base + n);
            #[allow(clippy::cast_possible_truncation)]
            {
                self.write_pointer[block] = wp + n as u32;
            }
            self.stats.nand_writes += n as u64;
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePattern;
    use crate::{analytical_write_amplification, OverProvisioning};

    fn pf(v: f64) -> OverProvisioning {
        OverProvisioning::new(v).unwrap()
    }

    fn steady_wa(op: f64, pattern: TracePattern) -> f64 {
        let config = FtlConfig::small(pf(op));
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(pattern, config.logical_pages(), 99);
        ftl.measure_steady_state_wa(&mut trace, 60_000)
    }

    #[test]
    fn geometry_accounting() {
        let config = FtlConfig::small(pf(0.28));
        assert_eq!(config.physical_pages(), 16_384);
        assert_eq!(config.logical_pages(), 12_800);
    }

    /// What [`ReferenceFtl`] calls an unmapped or invalid page.
    const REF_NO_PAGE: u32 = u32::MAX;

    /// The reference FTL's state, derived from the bitset, `lpn_of` and
    /// the `u16` maps. Each view reads the bitset one bit at a time, apart
    /// from the range helpers under test.
    impl FtlSimulator {
        fn is_valid(&self, page: usize) -> bool {
            self.valid[page / 64] >> (page % 64) & 1 == 1
        }

        /// logical page -> physical page, `REF_NO_PAGE` where unmapped.
        fn l2p_view(&self) -> Vec<u32> {
            self.l2p
                .iter()
                .map(|&p| if p == NO_PAGE { REF_NO_PAGE } else { u32::from(p) })
                .collect()
        }

        /// physical page -> logical page, `REF_NO_PAGE` where invalid.
        fn p2l_view(&self) -> Vec<u32> {
            (0..self.lpn_of.len())
                .map(|p| if self.is_valid(p) { u32::from(self.lpn_of[p]) } else { REF_NO_PAGE })
                .collect()
        }

        /// Valid pages per block.
        fn valid_per_block_view(&self) -> Vec<u32> {
            let ppb = self.config.pages_per_block as usize;
            (0..self.config.blocks as usize)
                .map(|b| (b * ppb..(b + 1) * ppb).filter(|&p| self.is_valid(p)).count() as u32)
                .collect()
        }
    }

    /// Every mapped logical page maps back to itself, and the valid counts
    /// agree with the reverse map.
    fn assert_mapping_integrity(ftl: &FtlSimulator) {
        let (l2p, p2l) = (ftl.l2p_view(), ftl.p2l_view());
        for (lpn, &ppn) in l2p.iter().enumerate() {
            if ppn != REF_NO_PAGE {
                assert_eq!(u64::from(p2l[ppn as usize]), lpn as u64);
            }
        }
        let valid_total: u32 = ftl.valid_per_block_view().iter().sum();
        let mapped = p2l.iter().filter(|&&l| l != REF_NO_PAGE).count() as u32;
        assert_eq!(valid_total, mapped);
        assert_eq!(mapped as usize, l2p.iter().filter(|&&p| p != REF_NO_PAGE).count());
        let counts: Vec<u32> = (0..ftl.config.blocks).map(|b| ftl.valid_count(b)).collect();
        assert_eq!(counts, ftl.valid_per_block_view(), "popcount valid counts");
    }

    #[test]
    fn mapping_integrity_after_traffic() {
        let config = FtlConfig::small(pf(0.2));
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 5);
        ftl.run(&mut trace, 30_000);
        assert!(ftl.stats().erases > 0, "the run must reach garbage collection");
        assert_mapping_integrity(&ftl);
    }

    #[test]
    fn sequential_writes_have_unit_wa() {
        // Sequential traffic invalidates whole blocks at once: GC finds
        // empty victims and copies nothing.
        let wa = steady_wa(0.1, TracePattern::Sequential);
        assert!(wa < 1.05, "sequential WA = {wa}");
    }

    #[test]
    fn uniform_wa_tracks_analytical_model() {
        for op in [0.16, 0.28, 0.4] {
            let measured = steady_wa(op, TracePattern::UniformRandom);
            let predicted = analytical_write_amplification(pf(op));
            let ratio = measured / predicted;
            assert!(
                (0.55..=1.45).contains(&ratio),
                "OP {op}: measured {measured:.2} vs predicted {predicted:.2}"
            );
        }
    }

    #[test]
    fn wa_decreases_with_over_provisioning() {
        let wa_low = steady_wa(0.08, TracePattern::UniformRandom);
        let wa_mid = steady_wa(0.2, TracePattern::UniformRandom);
        let wa_high = steady_wa(0.4, TracePattern::UniformRandom);
        assert!(wa_low > wa_mid && wa_mid > wa_high, "{wa_low} {wa_mid} {wa_high}");
    }

    #[test]
    fn skewed_traffic_amplifies_less_than_uniform() {
        // Hot pages are invalidated quickly, so victims tend to be emptier.
        let uniform = steady_wa(0.2, TracePattern::UniformRandom);
        let skewed = steady_wa(0.2, TracePattern::Skewed { hot_fraction: 0.2, hot_share: 0.8 });
        assert!(skewed < uniform, "skewed {skewed} vs uniform {uniform}");
    }

    #[test]
    fn greedy_gc_keeps_wear_roughly_even_under_uniform_traffic() {
        let config = FtlConfig::small(pf(0.2));
        let mut ftl = FtlSimulator::new(config);
        let mut trace =
            WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 17);
        ftl.run(&mut trace, 100_000);
        // Greedy GC is not an explicit wear leveler, but uniform traffic
        // keeps erases spread over all blocks: bounded relative spread.
        // Relative spread of block erase counts, (max - min) / mean.
        let counts = &ftl.erase_counts;
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let spread = (max - min) as f64 / mean;
        assert!(spread < 2.0, "wear spread {spread}");
    }

    #[test]
    fn stats_are_consistent() {
        let config = FtlConfig::small(pf(0.2));
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 2);
        ftl.run(&mut trace, 40_000);
        let stats = ftl.stats();
        assert_eq!(stats.host_writes, 40_000);
        assert_eq!(stats.nand_writes, stats.host_writes + stats.gc_copies);
        assert!(stats.write_amplification() >= 1.0);
        ftl.reset_stats();
        assert_eq!(ftl.stats(), FtlStats::default());
        assert_eq!(ftl.stats().write_amplification(), 1.0);
    }

    /// Exact counters after a fixed-seed run: warm up with
    /// `2 × logical_pages` trace writes, reset, then 40 000 single-page
    /// writes drawn from the trace.
    fn pinned_stats(op: f64, pattern: TracePattern, seed: u64) -> FtlStats {
        let config = FtlConfig::small(pf(op));
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(pattern, config.logical_pages(), seed);
        ftl.run(&mut trace, config.logical_pages() * 2);
        ftl.reset_stats();
        for _ in 0..40_000 {
            ftl.write(trace.next_page());
        }
        ftl.stats()
    }

    #[test]
    fn every_gc_path_pins_exact_stats() {
        // Captured from the filter-based victim gather; any change to
        // victim selection, the gather or the bulk placement moves them.
        let pinned = |host_writes, nand_writes, gc_copies, erases| FtlStats {
            host_writes,
            nand_writes,
            gc_copies,
            erases,
        };
        let uniform = TracePattern::UniformRandom;
        let skew = TracePattern::Skewed { hot_fraction: 0.2, hot_share: 0.8 };
        assert_eq!(
            pinned_stats(0.2, uniform, 11),
            pinned(40_000, 109_322, 69_322, 1_708),
            "greedy + uniform"
        );
        assert_eq!(
            pinned_stats(0.16, skew, 12),
            pinned(40_000, 62_674, 22_674, 979),
            "greedy + skewed"
        );
    }

    #[test]
    #[should_panic(expected = "over-provisioning too small: every GC candidate is fully valid")]
    fn fully_valid_victim_panics_instead_of_livelocking() {
        // At PF 0.4 % the spare area is about one block, below the GC
        // threshold: once the logical space is mapped, every candidate is
        // fully valid and collecting one frees no page.
        let config = FtlConfig::small(pf(0.004));
        let mut ftl = FtlSimulator::new(config);
        let mut trace = WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), 7);
        let _ = ftl.measure_steady_state_wa(&mut trace, 40_000);
    }

    /// A textbook page-mapping FTL: per-page append, `filter` +
    /// `min_by_key` greedy victim selection, and a `filter` gather of the
    /// victim's live pages. It shares no code with
    /// [`FtlSimulator`], which must match it exactly.
    struct ReferenceFtl {
        config: FtlConfig,
        logical_pages: u64,
        l2p: Vec<u32>,
        p2l: Vec<u32>,
        valid_per_block: Vec<u32>,
        erase_counts: Vec<u64>,
        write_pointer: Vec<u32>,
        free_blocks: Vec<u32>,
        active_block: u32,
        stats: FtlStats,
    }

    impl ReferenceFtl {
        fn new(config: FtlConfig) -> Self {
            let blocks = config.blocks as usize;
            Self {
                config,
                logical_pages: config.logical_pages(),
                l2p: vec![REF_NO_PAGE; config.logical_pages() as usize],
                p2l: vec![REF_NO_PAGE; config.physical_pages() as usize],
                valid_per_block: vec![0; blocks],
                erase_counts: vec![0; blocks],
                write_pointer: vec![0; blocks],
                free_blocks: (1..config.blocks).rev().collect(),
                active_block: 0,
                stats: FtlStats::default(),
            }
        }

        fn write(&mut self, lpn: u64) {
            assert!(lpn < self.logical_pages);
            self.stats.host_writes += 1;
            while self.free_blocks.len() < self.config.gc_free_block_threshold as usize {
                self.collect_garbage();
            }
            self.invalidate(lpn as u32);
            self.place(lpn as u32);
        }

        fn invalidate(&mut self, lpn: u32) {
            let ppn = self.l2p[lpn as usize];
            if ppn != REF_NO_PAGE {
                self.p2l[ppn as usize] = REF_NO_PAGE;
                self.valid_per_block[(ppn / self.config.pages_per_block) as usize] -= 1;
            }
        }

        fn place(&mut self, lpn: u32) {
            let ppb = self.config.pages_per_block;
            if self.write_pointer[self.active_block as usize] == ppb {
                self.active_block = self.free_blocks.pop().unwrap();
            }
            let block = self.active_block as usize;
            let ppn = self.active_block * ppb + self.write_pointer[block];
            self.write_pointer[block] += 1;
            self.valid_per_block[block] += 1;
            self.l2p[lpn as usize] = ppn;
            self.p2l[ppn as usize] = lpn;
            self.stats.nand_writes += 1;
        }

        fn collect_garbage(&mut self) {
            let ppb = self.config.pages_per_block;
            let victim = (0..self.config.blocks)
                .filter(|&b| b != self.active_block && self.write_pointer[b as usize] == ppb)
                .min_by_key(|&b| self.valid_per_block[b as usize])
                .unwrap();
            let base = (victim * ppb) as usize;
            let live: Vec<u32> = self.p2l[base..base + ppb as usize]
                .iter()
                .copied()
                .filter(|&lpn| lpn != REF_NO_PAGE)
                .collect();
            for lpn in live {
                self.invalidate(lpn);
                self.stats.gc_copies += 1;
                self.place(lpn);
            }
            self.write_pointer[victim as usize] = 0;
            self.erase_counts[victim as usize] += 1;
            self.stats.erases += 1;
            self.free_blocks.push(victim);
        }
    }

    /// Drives `ftl` and the reference through the same seeded mix of
    /// `run`, `write` and `reset_stats`, comparing the full state
    /// after every operation batch.
    fn assert_matches_reference(config: FtlConfig, pattern: TracePattern, seed: u64) {
        let logical = config.logical_pages();
        let mut ftl = FtlSimulator::new(config);
        let mut reference = ReferenceFtl::new(config);
        let mut trace = WriteTrace::new(pattern, logical, seed);
        let mut twin = trace.clone();
        let mut ops = act_rng::Rng::seed_from_u64(seed ^ 0x5eed);
        let mut total_erases = 0;
        for step in 0..60 {
            match ops.gen_range(0..8_u32) {
                0..=3 => {
                    let count = ops.gen_range(0..logical / 2);
                    ftl.run(&mut trace, count);
                    for _ in 0..count {
                        reference.write(twin.next_page());
                    }
                }
                4..=6 => {
                    for _ in 0..ops.gen_range(1..200_u64) {
                        let lpn = ops.gen_range(0..logical);
                        ftl.write(lpn);
                        reference.write(lpn);
                    }
                }
                _ => {
                    total_erases += ftl.stats().erases;
                    ftl.reset_stats();
                    reference.stats = FtlStats::default();
                }
            }
            let context = format!("{pattern:?} seed {seed} step {step}");
            assert_eq!(ftl.stats(), reference.stats, "stats, {context}");
            assert_eq!(ftl.active_block, reference.active_block, "active block, {context}");
            assert_eq!(ftl.free_blocks, reference.free_blocks, "free blocks, {context}");
            assert_eq!(ftl.write_pointer, reference.write_pointer, "write pointers, {context}");
            assert_eq!(
                ftl.valid_per_block_view(),
                reference.valid_per_block,
                "valid counts, {context}"
            );
            assert_eq!(ftl.erase_counts, reference.erase_counts, "erase counts, {context}");
            assert!(ftl.l2p_view() == reference.l2p, "l2p, {context}");
            assert!(ftl.p2l_view() == reference.p2l, "p2l, {context}");
        }
        total_erases += ftl.stats().erases;
        assert!(total_erases > 0, "the mix must reach garbage collection");
    }

    #[test]
    fn matches_the_reference_ftl_on_every_pattern() {
        let skew = TracePattern::Skewed { hot_fraction: 0.2, hot_share: 0.8 };
        let patterns = [TracePattern::UniformRandom, TracePattern::Sequential, skew];
        for (i, pattern) in patterns.into_iter().enumerate() {
            assert_matches_reference(FtlConfig::small(pf(0.1)), pattern, 31 + i as u64);
        }
    }

    #[test]
    fn matches_the_reference_ftl_on_a_non_power_of_two_geometry() {
        // 24 pages per block: `block_of` takes its divide branch.
        let skew = TracePattern::Skewed { hot_fraction: 0.1, hot_share: 0.9 };
        for (i, pattern) in [TracePattern::UniformRandom, TracePattern::Sequential, skew]
            .into_iter()
            .enumerate()
        {
            let config = FtlConfig {
                blocks: 40,
                pages_per_block: 24,
                over_provisioning: pf(0.25),
                gc_free_block_threshold: 3,
            };
            let ftl = FtlSimulator::new(config);
            assert!(!ftl.block_of.pow2);
            assert_matches_reference(config, pattern, 47 + i as u64);
        }
    }

    #[test]
    fn matches_the_reference_ftl_on_blocks_spanning_three_bitset_words() {
        // 100 pages per block, not a multiple of 64: every block's range
        // straddles word boundaries, and some (e.g. pages 100..200) touch
        // three words of the valid-page bitset.
        let skew = TracePattern::Skewed { hot_fraction: 0.1, hot_share: 0.9 };
        for (i, pattern) in [TracePattern::UniformRandom, TracePattern::Sequential, skew]
            .into_iter()
            .enumerate()
        {
            let config = FtlConfig {
                blocks: 40,
                pages_per_block: 100,
                over_provisioning: pf(0.25),
                gc_free_block_threshold: 3,
            };
            assert_matches_reference(config, pattern, 71 + i as u64);
        }
    }

    #[test]
    fn bitset_ranges_match_a_bool_per_page() {
        let mut valid = vec![0_u64; 4];
        let mut naive = [false; 256];
        let mut ops = act_rng::Rng::seed_from_u64(3);
        for _ in 0..2_000 {
            let start = ops.gen_range(0..256_usize);
            let end = start + ops.gen_range(0..(256 - start) as u64 + 1) as usize;
            if ops.gen_bool(0.5) {
                set_pages(&mut valid, start..end);
                naive[start..end].fill(true);
            } else {
                clear_pages(&mut valid, start..end);
                naive[start..end].fill(false);
            }
            let (lo, hi) = (ops.gen_range(0..256_usize), ops.gen_range(0..256_usize));
            let probe = lo.min(hi)..lo.max(hi);
            let expected = naive[probe.clone()].iter().filter(|&&v| v).count() as u32;
            assert_eq!(count_pages(&valid, probe.clone()), expected, "{probe:?}");
        }
        for (page, &v) in naive.iter().enumerate() {
            assert_eq!(valid[page / 64] >> (page % 64) & 1 == 1, v, "page {page}");
        }
    }

    #[test]
    fn a_trace_wider_than_the_device_panics_before_any_write() {
        let config = FtlConfig::small(pf(0.2));
        let mut ftl = FtlSimulator::new(config);
        let mut trace =
            WriteTrace::new(TracePattern::Sequential, config.logical_pages() + 1, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ftl.run(&mut trace, 10);
        }));
        let message = result.expect_err("a wider trace must panic");
        let message = message.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.contains("exceeds the device's"), "{message}");
        assert_eq!(ftl.stats(), FtlStats::default());
        assert!(ftl.l2p.iter().all(|&p| p == NO_PAGE));
        assert!(ftl.valid.iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "physical pages must fit the u16 page maps")]
    fn geometry_past_the_u16_page_maps_rejected() {
        // 1,024 × 64 = 65,536 physical pages, one more than `u16::MAX`.
        let config = FtlConfig {
            blocks: 1_024,
            pages_per_block: 64,
            over_provisioning: pf(0.2),
            gc_free_block_threshold: 4,
        };
        let _ = FtlSimulator::new(config);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let config = FtlConfig::small(pf(0.2));
        let mut ftl = FtlSimulator::new(config);
        ftl.write(config.logical_pages());
    }

    #[test]
    #[should_panic(expected = "GC threshold")]
    fn degenerate_threshold_rejected() {
        let mut config = FtlConfig::small(pf(0.2));
        config.gc_free_block_threshold = 1;
        let _ = FtlSimulator::new(config);
    }
}
