//! A page-mapping FTL simulator with greedy garbage collection.
//!
//! The simulator exists to validate the closed-form write-amplification
//! model empirically: it maintains a logical-to-physical page map, appends
//! host writes to an active block, and when free blocks run low reclaims the
//! block with the fewest valid pages (greedy victim selection), copying its
//! live pages forward. Write amplification is measured as NAND page writes
//! per host page write.

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

// `u32`, not `u64`: page numbers are bounded by the physical page count
// (asserted < `u32::MAX` at construction), and halving the mapping-table
// entry size halves the randomly-accessed working set — the simulator is
// memory-bound, so the l2p/p2l footprint is what sets its speed.
const NO_PAGE: u32 = u32::MAX;

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
    l2p: Vec<u32>,
    /// physical page -> logical page (NO_PAGE = invalid/free).
    p2l: Vec<u32>,
    valid_per_block: Vec<u32>,
    erase_counts: Vec<u64>,
    write_pointer: Vec<u32>,
    free_blocks: Vec<u32>,
    active_block: u32,
    stats: FtlStats,
    // --- hot-path caches, all derived from `config` at construction ---
    /// `config.logical_pages()`, cached: the original does a float divide
    /// and floor, which the per-write bounds assert made the single most
    /// frequent arithmetic in the simulator.
    logical_pages: u64,
    /// `config.pages_per_block` widened once.
    ppb: u64,
    /// Physical page -> block, a shift on power-of-two geometries.
    block_of: BlockOf,
    /// Reusable staging buffer for the still-valid pages of a GC victim,
    /// so the copy loop is two flat passes (gather, then bulk placement)
    /// instead of one interleaved read-modify-write per page.
    gc_scratch: Vec<u32>,
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
    ppb: u64,
    shift: u32,
    pow2: bool,
}

impl BlockOf {
    /// Bit-identical to `ppn / pages_per_block`.
    #[inline]
    fn of(self, ppn: u32) -> usize {
        if self.pow2 {
            (ppn >> self.shift) as usize
        } else {
            (u64::from(ppn) / self.ppb) as usize
        }
    }
}

/// `gc_scan` marker for blocks that are not GC victim candidates (free,
/// active, or partially written). `u16::MAX` sorts after every real valid
/// count, so the min-scan skips them without a filter branch.
const NOT_A_CANDIDATE: u16 = u16::MAX;

/// Most host pages one stretch of [`FtlSimulator::write_pages`] draws
/// before it applies them: a 256-byte stack buffer, and a whole block of the
/// default geometry.
const LPN_BATCH: usize = 64;

/// Drops one valid page from `block`, keeping its GC scan key in step
/// while the block is a victim candidate.
#[inline]
fn drop_valid_page(valid_per_block: &mut [u32], gc_scan: &mut [u16], block: usize) {
    valid_per_block[block] -= 1;
    gc_scan[block] -= u16::from(gc_scan[block] != NOT_A_CANDIDATE);
}

/// Makes a retiring active block a GC victim candidate: its scan key
/// becomes its valid count. This happens when the next page pops a fresh
/// block, not when the block fills — matching the `b != active_block`
/// filter of the reference selection.
#[inline]
fn retire(valid_per_block: &[u32], gc_scan: &mut [u16], block: usize) {
    // Valid counts are at most pages_per_block < u16::MAX (asserted in `new`).
    #[allow(clippy::cast_possible_truncation)]
    {
        gc_scan[block] = valid_per_block[block] as u16;
    }
}

impl FtlSimulator {
    /// Creates a simulator with all blocks erased.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (fewer than 8 blocks, or a GC
    /// threshold that leaves no room to operate).
    #[must_use]
    pub fn new(config: FtlConfig) -> Self {
        assert!(config.blocks >= 8, "need at least 8 blocks");
        assert!(config.pages_per_block >= 1, "need at least one page per block");
        assert!(
            config.pages_per_block < u32::from(u16::MAX),
            "pages_per_block must fit the u16 GC scan key"
        );
        assert!(
            config.gc_free_block_threshold >= 2
                && config.gc_free_block_threshold < config.blocks / 2,
            "GC threshold must be in [2, blocks/2)"
        );
        assert!(
            config.physical_pages() < u64::from(u32::MAX),
            "physical pages must fit the u32 mapping tables"
        );
        let physical = config.physical_pages() as usize;
        let mut free_blocks: Vec<u32> = (1..config.blocks).rev().collect();
        let active_block = 0;
        let logical_pages = config.logical_pages();
        let ppb = u64::from(config.pages_per_block);
        Self {
            config,
            l2p: vec![NO_PAGE; logical_pages as usize],
            p2l: vec![NO_PAGE; physical],
            valid_per_block: vec![0; config.blocks as usize],
            erase_counts: vec![0; config.blocks as usize],
            write_pointer: vec![0; config.blocks as usize],
            free_blocks: {
                free_blocks.shrink_to_fit();
                free_blocks
            },
            active_block,
            stats: FtlStats::default(),
            logical_pages,
            ppb,
            block_of: BlockOf { ppb, shift: ppb.trailing_zeros(), pow2: ppb.is_power_of_two() },
            gc_scratch: Vec::with_capacity(config.pages_per_block as usize),
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
        self.write_pages(1, || lpn);
    }

    /// Feeds `count` writes from a trace into the device.
    ///
    /// # Panics
    ///
    /// As [`write`](Self::write): if the trace draws a page outside the
    /// logical space, or if the over-provisioning is too small for
    /// garbage collection to make room. Pages are drawn a stretch at a
    /// time (at most 64 of them, within one block) and bounds-checked
    /// before any is written, so an out-of-range page also drops the
    /// pages drawn just before it in its stretch.
    pub fn run(&mut self, trace: &mut WriteTrace, count: u64) {
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

    /// The one host-write path, behind both [`write`](Self::write) and
    /// [`run`](Self::run): `count` pages drawn from `next_lpn`, each
    /// handled exactly as a lone write — GC headroom, then invalidating
    /// the page's old copy, then retiring a full active block and popping
    /// a free one, then placing the page.
    ///
    /// The pages go in stretches that share one active block, with the
    /// tables borrowed once as slices and the block and write pointer in
    /// locals; the counters, the write pointer and the active block are
    /// flushed back per stretch. `free_blocks` only shrinks at a pop, so
    /// GC headroom needs checking only before a stretch: a stretch is the
    /// one page that pops a block, or else at most the active block's
    /// remaining room.
    #[inline]
    fn write_pages(&mut self, count: u64, mut next_lpn: impl FnMut() -> u64) {
        let ppb = self.config.pages_per_block;
        let gc_threshold = self.config.gc_free_block_threshold as usize;
        let logical_pages = self.logical_pages;
        let block_of = self.block_of;
        let mut lpn_buf = [0_u32; LPN_BATCH];
        let mut left = count;
        while left > 0 {
            while self.free_blocks.len() < gc_threshold {
                self.collect_garbage();
            }
            let mut block = self.active_block;
            let mut wp = self.write_pointer[block as usize];
            // A full active block retires at the next page, which then
            // pops a fresh one: that page is a stretch of its own.
            #[allow(clippy::cast_possible_truncation)]
            let n = if wp == ppb {
                1
            } else {
                left.min(u64::from(ppb - wp)).min(LPN_BATCH as u64) as usize
            };
            // Draw (and bounds-check) the whole stretch before touching any
            // table: the trace generator then runs alone in a tight loop,
            // and an out-of-range page panics with the tables consistent.
            let lpns = &mut lpn_buf[..n];
            for slot in lpns.iter_mut() {
                let lpn = next_lpn();
                assert!(lpn < logical_pages, "logical page {lpn} out of range");
                // The assert above bounds lpn by logical_pages < u32::MAX.
                #[allow(clippy::cast_possible_truncation)]
                {
                    *slot = lpn as u32;
                }
            }
            let Self { l2p, p2l, valid_per_block, gc_scan, free_blocks, .. } = self;
            // Slices, not `&mut Vec`s: indexing through a `Vec` reloads its
            // pointer and length after every store into its buffer.
            let (l2p, p2l) = (l2p.as_mut_slice(), p2l.as_mut_slice());
            let (valid_per_block, gc_scan) =
                (valid_per_block.as_mut_slice(), gc_scan.as_mut_slice());
            // The stretch's pages all land in one block — the one about to
            // be popped when the active block retires — so its valid count
            // takes them up front.
            let target = if wp == ppb {
                free_blocks.last().copied().expect("GC headroom guarantees a free block")
            } else {
                block
            };
            #[allow(clippy::cast_possible_truncation)]
            {
                valid_per_block[target as usize] += n as u32;
            }
            for &lpn in &*lpns {
                let old = l2p[lpn as usize];
                if old != NO_PAGE {
                    p2l[old as usize] = NO_PAGE;
                    drop_valid_page(valid_per_block, gc_scan, block_of.of(old));
                }
                if wp == ppb {
                    // After this page invalidated its old copy, which may
                    // sit in the retiring block.
                    retire(valid_per_block, gc_scan, block as usize);
                    block = free_blocks.pop().expect("GC headroom guarantees a free block");
                    wp = 0;
                }
                // u32 arithmetic cannot overflow: ppn < physical_pages < u32::MAX.
                let ppn = block * ppb + wp;
                wp += 1;
                l2p[lpn as usize] = ppn;
                p2l[ppn as usize] = lpn;
            }
            let n = n as u64;
            self.active_block = block;
            self.write_pointer[block as usize] = wp;
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
                .min_by_key(|&b| self.valid_per_block[b as usize]),
            "scan-key victim must match the reference selection"
        );
        // The victim leaves candidacy immediately (it will be erased below).
        self.gc_scan[victim as usize] = NOT_A_CANDIDATE;
        // Gather the victim's still-valid pages, then erase its reverse map
        // in one memset. Mapping integrity (`l2p[p2l[x]] == x`) makes the
        // per-page l2p lookup and block divide of a host write redundant
        // here, and batching turns the per-page bookkeeping into one update
        // per victim.
        //
        // The gather is a branch-free compaction: every entry is stored and
        // the length advances only past live ones. A victim is typically
        // ~65 % valid, so a `filter` branch here mispredicts about every
        // other page.
        let base = (u64::from(victim) * self.ppb) as usize;
        let victim_pages = base..base + self.ppb as usize;
        let mut scratch = std::mem::take(&mut self.gc_scratch);
        scratch.clear();
        scratch.resize(self.ppb as usize, NO_PAGE);
        let mut live = 0;
        for &lpn in &self.p2l[victim_pages.clone()] {
            scratch[live] = lpn;
            live += usize::from(lpn != NO_PAGE);
        }
        scratch.truncate(live);
        self.p2l[victim_pages.clone()].fill(NO_PAGE);
        #[allow(clippy::cast_possible_truncation)]
        {
            self.valid_per_block[victim as usize] -= scratch.len() as u32;
        }
        self.stats.gc_copies += scratch.len() as u64;
        self.place_gc_copies(&scratch);
        self.gc_scratch = scratch;
        // Erase the victim. The gather pass above already cleared every p2l
        // entry and drained the valid count, so only the write pointer and
        // wear accounting remain.
        debug_assert_eq!(self.valid_per_block[victim as usize], 0);
        debug_assert!(self.p2l[victim_pages].iter().all(|&l| l == NO_PAGE));
        self.write_pointer[victim as usize] = 0;
        self.erase_counts[victim as usize] += 1;
        self.stats.erases += 1;
        self.free_blocks.push(victim);
    }

    /// Places GC copies: writes `scratch` to the write frontier in
    /// block-sized chunks — the p2l stores become one `copy_from_slice` per
    /// chunk and the write-pointer/valid/stats updates one addition each,
    /// leaving only the (inherently random) l2p store per copied page.
    /// State after the call is identical to placing the pages one at a
    /// time as host writes do (retire a full active block, pop, place).
    fn place_gc_copies(&mut self, scratch: &[u32]) {
        let ppb = self.config.pages_per_block;
        let mut rest = scratch;
        while !rest.is_empty() {
            if self.write_pointer[self.active_block as usize] == ppb {
                retire(&self.valid_per_block, &mut self.gc_scan, self.active_block as usize);
                self.active_block =
                    self.free_blocks.pop().expect("GC headroom guarantees a free block");
            }
            let block = self.active_block as usize;
            let wp = self.write_pointer[block];
            let n = ((ppb - wp) as usize).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            let base_ppn = self.active_block * ppb + wp;
            for (i, &lpn) in chunk.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                {
                    self.l2p[lpn as usize] = base_ppn + i as u32;
                }
            }
            self.p2l[base_ppn as usize..base_ppn as usize + n].copy_from_slice(chunk);
            #[allow(clippy::cast_possible_truncation)]
            {
                self.write_pointer[block] = wp + n as u32;
                self.valid_per_block[block] += n as u32;
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

    /// Every mapped logical page maps back to itself, and the valid counts
    /// agree with the reverse map.
    fn assert_mapping_integrity(ftl: &FtlSimulator) {
        for (lpn, &ppn) in ftl.l2p.iter().enumerate() {
            if ppn != NO_PAGE {
                assert_eq!(u64::from(ftl.p2l[ppn as usize]), lpn as u64);
            }
        }
        let valid_total: u32 = ftl.valid_per_block.iter().sum();
        let mapped = ftl.p2l.iter().filter(|&&l| l != NO_PAGE).count() as u32;
        assert_eq!(valid_total, mapped);
        assert_eq!(mapped as usize, ftl.l2p.iter().filter(|&&p| p != NO_PAGE).count());
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
                l2p: vec![NO_PAGE; config.logical_pages() as usize],
                p2l: vec![NO_PAGE; config.physical_pages() as usize],
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
            if ppn != NO_PAGE {
                self.p2l[ppn as usize] = NO_PAGE;
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
                .filter(|&lpn| lpn != NO_PAGE)
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
                ftl.valid_per_block, reference.valid_per_block,
                "valid counts, {context}"
            );
            assert_eq!(ftl.erase_counts, reference.erase_counts, "erase counts, {context}");
            assert!(ftl.l2p == reference.l2p, "l2p, {context}");
            assert!(ftl.p2l == reference.p2l, "p2l, {context}");
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
