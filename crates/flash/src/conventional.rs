//! A conventional (block-interface) SSD built from the zoned simulator:
//! page-mapped FTL, greedy garbage collection, configurable over-provisioning.
//!
//! The paper's set-associative baseline runs on such a device with 50 % OP
//! (§2.3); device-level write amplification (DLWA) is `nand_pages_written /
//! host_pages_written`, driven entirely by GC relocation.

use crate::error::FlashError;
use crate::geometry::{Geometry, PageAddr, ZoneId};
use crate::stats::DeviceStats;
use crate::time::Nanos;
use crate::zoned::{SimFlash, ZonedFlash};
use crate::LatencyModel;
use std::collections::VecDeque;

/// FTL-level counters, on top of the raw [`DeviceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FtlStats {
    /// Pages written by the host through the block interface.
    pub host_pages_written: u64,
    /// Pages programmed on NAND (host writes + GC relocations).
    pub nand_pages_written: u64,
    /// Pages relocated by garbage collection.
    pub gc_pages_moved: u64,
    /// Garbage-collection passes executed.
    pub gc_runs: u64,
}

impl FtlStats {
    /// Device-level write amplification. 1.0 when no GC has run.
    pub fn dlwa(&self) -> f64 {
        if self.host_pages_written == 0 {
            1.0
        } else {
            self.nand_pages_written as f64 / self.host_pages_written as f64
        }
    }
}

/// A page-mapped conventional SSD with greedy GC, generic over the
/// zoned substrate it manages (modeled [`SimFlash`] by default; any
/// [`ZonedFlash`] — including the real-I/O device — works).
///
/// The device exposes `user_page_count()` logical pages — the raw capacity
/// minus the over-provisioning fraction. Logical overwrites invalidate the
/// old physical page; when free zones run low, greedy GC picks the fullest-
/// of-invalid zone, relocates its valid pages to the write frontier and
/// erases it.
///
/// # Examples
///
/// ```
/// use nemo_flash::{ConventionalSsd, Geometry, LatencyModel, Nanos};
///
/// let geom = Geometry::new(4096, 32, 16, 4);
/// let mut ssd = ConventionalSsd::new(geom, LatencyModel::zero(), 0.2);
/// let page = vec![1u8; 4096];
/// ssd.write_page(0, &page, Nanos::ZERO)?;
/// let (data, _) = ssd.read_page(0, Nanos::ZERO)?;
/// assert_eq!(data, page);
/// # Ok::<(), nemo_flash::FlashError>(())
/// ```
#[derive(Debug)]
pub struct ConventionalSsd<D: ZonedFlash = SimFlash> {
    flash: D,
    user_pages: u64,
    /// lpn -> physical page.
    map: Vec<Option<PageAddr>>,
    /// physical page (flat) -> lpn, None = invalid/erased.
    rmap: Vec<Option<u64>>,
    /// valid-page count per zone.
    valid: Vec<u32>,
    free: VecDeque<u32>,
    open: Option<u32>,
    stats: FtlStats,
    gc_watermark: usize,
}

impl ConventionalSsd {
    /// Creates a device over a fresh in-memory [`SimFlash`], exposing
    /// `(1 - op_ratio)` of the raw capacity.
    ///
    /// # Panics
    ///
    /// Panics if `op_ratio` is not in `[0, 1)` or leaves less than two
    /// zones of slack (greedy GC needs headroom to make progress).
    pub fn new(geom: Geometry, lat: LatencyModel, op_ratio: f64) -> Self {
        Self::with_device(SimFlash::with_latency(geom, lat), op_ratio)
    }
}

impl<D: ZonedFlash> ConventionalSsd<D> {
    /// Wraps an existing zoned device (which must be freshly reset) in
    /// the FTL, exposing `(1 - op_ratio)` of the raw capacity.
    ///
    /// # Panics
    ///
    /// Panics if `op_ratio` is not in `[0, 1)` or leaves less than two
    /// zones of slack (greedy GC needs headroom to make progress).
    pub fn with_device(flash: D, op_ratio: f64) -> Self {
        assert!((0.0..1.0).contains(&op_ratio), "op_ratio must be in [0,1)");
        let geom = flash.geometry();
        let total = geom.total_pages();
        let user_pages = ((total as f64) * (1.0 - op_ratio)).floor() as u64;
        let slack_pages = total - user_pages;
        assert!(
            slack_pages >= 2 * geom.pages_per_zone() as u64,
            "over-provisioning must leave at least two zones of slack \
             (got {} pages, need {})",
            slack_pages,
            2 * geom.pages_per_zone()
        );
        Self {
            flash,
            user_pages,
            map: vec![None; user_pages as usize],
            rmap: vec![None; total as usize],
            valid: vec![0; geom.zone_count() as usize],
            free: (0..geom.zone_count()).collect(),
            open: None,
            stats: FtlStats::default(),
            gc_watermark: 1,
        }
    }

    /// Number of logical pages exposed to the host.
    pub fn user_page_count(&self) -> u64 {
        self.user_pages
    }

    /// Device geometry.
    pub fn geometry(&self) -> Geometry {
        self.flash.geometry()
    }

    /// FTL counters (host vs NAND writes, GC activity).
    pub fn ftl_stats(&self) -> FtlStats {
        self.stats
    }

    /// Raw device counters (includes GC traffic).
    pub fn device_stats(&self) -> DeviceStats {
        self.flash.stats()
    }

    /// Writes one logical page, running GC beforehand if space is low.
    ///
    /// Returns the completion time of the host write (GC work it had to
    /// wait for is reflected through die contention).
    ///
    /// # Errors
    ///
    /// Fails if `lpn` is out of range, the buffer is not exactly one page,
    /// or GC cannot reclaim space.
    pub fn write_page(&mut self, lpn: u64, data: &[u8], now: Nanos) -> Result<Nanos, FlashError> {
        if lpn >= self.user_pages {
            return Err(FlashError::BadLogicalPage(lpn));
        }
        if data.len() != self.geometry().page_size() as usize {
            return Err(FlashError::UnalignedLength {
                len: data.len(),
                page_size: self.geometry().page_size(),
            });
        }
        self.ensure_space(now)?;
        // Invalidate previous location.
        if let Some(old) = self.map[lpn as usize] {
            self.invalidate(old);
        }
        let (addr, done) = self.append_frontier(data, now)?;
        let flat = self.geometry().flat_index(addr) as usize;
        self.map[lpn as usize] = Some(addr);
        self.rmap[flat] = Some(lpn);
        self.valid[addr.zone as usize] += 1;
        self.stats.host_pages_written += 1;
        self.stats.nand_pages_written += 1;
        Ok(done)
    }

    /// Reads one logical page. Unwritten pages read back as zeros.
    ///
    /// # Errors
    ///
    /// Fails if `lpn` is out of range.
    pub fn read_page(&mut self, lpn: u64, now: Nanos) -> Result<(Vec<u8>, Nanos), FlashError> {
        let mut out = vec![0u8; self.geometry().page_size() as usize];
        let done = self.read_page_into(lpn, &mut out, now)?;
        Ok((out, done))
    }

    /// Reads one logical page into a caller-provided buffer — the
    /// allocation-free primitive behind [`Self::read_page`]. Set-scan
    /// hot paths call this with a reused buffer instead of allocating
    /// per read. Unwritten pages read back as zeros.
    ///
    /// # Errors
    ///
    /// Fails if `lpn` is out of range or `out` is not exactly one page.
    pub fn read_page_into(
        &mut self,
        lpn: u64,
        out: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        if lpn >= self.user_pages {
            return Err(FlashError::BadLogicalPage(lpn));
        }
        if out.len() != self.geometry().page_size() as usize {
            return Err(FlashError::UnalignedLength {
                len: out.len(),
                page_size: self.geometry().page_size(),
            });
        }
        match self.map[lpn as usize] {
            Some(addr) => self.flash.read_pages_into(addr, 1, out, now),
            None => {
                out.fill(0);
                Ok(now)
            }
        }
    }

    /// Returns `true` if the logical page has been written.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.map.get(lpn as usize).is_some_and(|m| m.is_some())
    }

    fn invalidate(&mut self, addr: PageAddr) {
        let flat = self.geometry().flat_index(addr) as usize;
        if self.rmap[flat].take().is_some() {
            self.valid[addr.zone as usize] -= 1;
        }
    }

    /// Appends one page at the current write frontier, opening a new zone
    /// from the free list when the frontier fills.
    fn append_frontier(
        &mut self,
        data: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError> {
        let ppz = self.geometry().pages_per_zone();
        let zone = match self.open {
            Some(z) if self.flash.write_pointer(ZoneId(z)) < ppz => z,
            _ => {
                let z = self.free.pop_front().ok_or(FlashError::GcStalled)?;
                self.open = Some(z);
                z
            }
        };
        let res = self.flash.append(ZoneId(zone), data, now)?;
        if self.flash.write_pointer(ZoneId(zone)) == ppz {
            self.open = None;
        }
        Ok(res)
    }

    /// Runs greedy GC until at least `gc_watermark + 1` zones are free
    /// (one for the frontier, `gc_watermark` in reserve).
    fn ensure_space(&mut self, now: Nanos) -> Result<(), FlashError> {
        let ppz = self.geometry().pages_per_zone();
        while self.free.len() <= self.gc_watermark {
            let victim = self.pick_victim().ok_or(FlashError::GcStalled)?;
            if self.valid[victim as usize] >= ppz {
                // Every candidate fully valid: the host overcommitted.
                return Err(FlashError::GcStalled);
            }
            self.collect_zone(victim, now)?;
            self.stats.gc_runs += 1;
        }
        Ok(())
    }

    /// Greedy victim: the closed, non-frontier zone with fewest valid pages.
    fn pick_victim(&self) -> Option<u32> {
        let ppz = self.geometry().pages_per_zone();
        (0..self.geometry().zone_count())
            .filter(|&z| Some(z) != self.open)
            .filter(|&z| self.flash.write_pointer(ZoneId(z)) == ppz)
            .min_by_key(|&z| self.valid[z as usize])
    }

    fn collect_zone(&mut self, victim: u32, now: Nanos) -> Result<(), FlashError> {
        let ppz = self.geometry().pages_per_zone();
        let geom = self.geometry();
        let mut buf = vec![0u8; geom.page_size() as usize];
        for page in 0..ppz {
            let addr = PageAddr::new(victim, page);
            let flat = geom.flat_index(addr) as usize;
            let Some(lpn) = self.rmap[flat] else { continue };
            self.flash.read_pages_into(addr, 1, &mut buf, now)?;
            self.rmap[flat] = None;
            self.valid[victim as usize] -= 1;
            let (new_addr, _) = self.append_frontier(&buf, now)?;
            self.map[lpn as usize] = Some(new_addr);
            self.rmap[geom.flat_index(new_addr) as usize] = Some(lpn);
            self.valid[new_addr.zone as usize] += 1;
            self.stats.gc_pages_moved += 1;
            self.stats.nand_pages_written += 1;
        }
        debug_assert_eq!(self.valid[victim as usize], 0);
        self.flash.reset_zone(ZoneId(victim), now)?;
        self.free.push_back(victim);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConventionalSsd {
        // 16 zones x 8 pages x 512 B; 25% OP -> 96 user pages.
        ConventionalSsd::new(Geometry::new(512, 8, 16, 4), LatencyModel::zero(), 0.25)
    }

    #[test]
    fn capacity_reflects_op() {
        let ssd = tiny();
        assert_eq!(ssd.user_page_count(), 96);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut ssd = tiny();
        let data: Vec<u8> = (0..512).map(|i| (i % 7) as u8).collect();
        ssd.write_page(42, &data, Nanos::ZERO).unwrap();
        let (back, _) = ssd.read_page(42, Nanos::ZERO).unwrap();
        assert_eq!(back, data);
        assert!(ssd.is_mapped(42));
        assert!(!ssd.is_mapped(41));
    }

    #[test]
    fn unwritten_page_reads_zeros() {
        let mut ssd = tiny();
        let (back, _) = ssd.read_page(0, Nanos::ZERO).unwrap();
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut ssd = tiny();
        let a = vec![1u8; 512];
        let b = vec![2u8; 512];
        ssd.write_page(0, &a, Nanos::ZERO).unwrap();
        ssd.write_page(0, &b, Nanos::ZERO).unwrap();
        let (back, _) = ssd.read_page(0, Nanos::ZERO).unwrap();
        assert_eq!(back, b);
        let total_valid: u32 = (0..16).map(|z| ssd.valid[z]).sum();
        assert_eq!(total_valid, 1, "old version must be invalid");
    }

    #[test]
    fn gc_reclaims_space_under_churn() {
        let mut ssd = tiny();
        let mut rng = nemo_util::Xoshiro256StarStar::seed_from_u64(1);
        let page = vec![3u8; 512];
        // Write far more than raw capacity; GC must keep up.
        for _ in 0..2000 {
            let lpn = rng.next_below(96);
            ssd.write_page(lpn, &page, Nanos::ZERO).unwrap();
        }
        let s = ssd.ftl_stats();
        assert_eq!(s.host_pages_written, 2000);
        assert!(s.gc_runs > 0, "GC should have run");
        assert!(s.dlwa() > 1.0);
        assert!(
            s.dlwa() < 3.0,
            "25% OP with uniform churn: DLWA {}",
            s.dlwa()
        );
    }

    #[test]
    fn data_survives_gc() {
        let mut ssd = tiny();
        // Unique content per lpn so relocation bugs are visible.
        let bufs: Vec<Vec<u8>> = (0..96u64)
            .map(|l| {
                (0..512)
                    .map(|i| ((l as usize * 31 + i) % 256) as u8)
                    .collect()
            })
            .collect();
        for round in 0..5 {
            for l in 0..96u64 {
                // Rewrite a rotating half to force churn.
                if (l + round) % 2 == 0 {
                    ssd.write_page(l, &bufs[l as usize], Nanos::ZERO).unwrap();
                }
            }
        }
        for l in 0..96u64 {
            if ssd.is_mapped(l) {
                let (back, _) = ssd.read_page(l, Nanos::ZERO).unwrap();
                assert_eq!(back, bufs[l as usize], "lpn {l} corrupted by GC");
            }
        }
    }

    #[test]
    fn more_op_means_less_dlwa() {
        let run = |op: f64| {
            let mut ssd =
                ConventionalSsd::new(Geometry::new(512, 8, 32, 4), LatencyModel::zero(), op);
            let n = ssd.user_page_count();
            let page = vec![1u8; 512];
            let mut rng = nemo_util::Xoshiro256StarStar::seed_from_u64(7);
            for _ in 0..6000 {
                ssd.write_page(rng.next_below(n), &page, Nanos::ZERO)
                    .unwrap();
            }
            ssd.ftl_stats().dlwa()
        };
        let low_op = run(0.10);
        let high_op = run(0.50);
        assert!(
            high_op < low_op,
            "more OP must reduce DLWA: 10%->{low_op:.2}, 50%->{high_op:.2}"
        );
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut ssd = tiny();
        let page = vec![0u8; 512];
        assert!(matches!(
            ssd.write_page(96, &page, Nanos::ZERO),
            Err(FlashError::BadLogicalPage(96))
        ));
        assert!(ssd.read_page(10_000, Nanos::ZERO).is_err());
    }

    #[test]
    fn wrong_size_buffer_rejected() {
        let mut ssd = tiny();
        assert!(matches!(
            ssd.write_page(0, &[0u8; 100], Nanos::ZERO),
            Err(FlashError::UnalignedLength { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "two zones of slack")]
    fn zero_op_panics() {
        ConventionalSsd::new(Geometry::new(512, 8, 16, 4), LatencyModel::zero(), 0.0);
    }
}
