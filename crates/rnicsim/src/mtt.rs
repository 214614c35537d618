//! Memory translation table (MTT) cache.
//!
//! The RNIC translates (MR, offset) pairs to host physical addresses using
//! per-page entries. On-device SRAM caches recently used entries; a miss
//! fetches the entry from host DRAM over PCIe — the root cause of the
//! paper's sequential/random asymmetry (§III-B) and the MR-count
//! degradation (§II-B2: 10× MRs cost ~60 % latency at 32 B).

use crate::types::MrId;
use simcore::LruSet;

/// LRU-cached page translations keyed by (MR, page index).
pub struct MttCache {
    lru: LruSet,
    page_bytes: u64,
}

impl MttCache {
    /// A cache holding `entries` page translations for `page_bytes` pages.
    /// `entries` is at most 65,535, the `simcore::LruSet` cap.
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        MttCache { lru: LruSet::new(entries), page_bytes }
    }

    /// Touch every page overlapped by `[offset, offset + len)` of `mr`;
    /// returns how many lookups missed (each miss costs a host fetch).
    pub fn access(&mut self, mr: MrId, offset: u64, len: u64) -> u64 {
        let first = offset / self.page_bytes;
        let last = (offset + len.max(1) - 1) / self.page_bytes;
        let mut misses = 0;
        for page in first..=last {
            if !self.lru.access(self.key(mr, page)) {
                misses += 1;
            }
        }
        misses
    }

    /// Pre-load translations for a span without counting misses (driver
    /// warming entries at registration time).
    pub fn warm(&mut self, mr: MrId, offset: u64, len: u64) {
        let first = offset / self.page_bytes;
        let last = (offset + len.max(1) - 1) / self.page_bytes;
        for page in first..=last {
            self.lru.warm(self.key(mr, page));
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.lru.stats()
    }

    /// Zero the counters, keep contents.
    pub fn reset_stats(&mut self) {
        self.lru.reset_stats()
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Cache capacity in entries.
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    fn key(&self, mr: MrId, page: u64) -> u64 {
        // 24 bits of MR id above 40 bits of page index: supports 16M MRs
        // over 4 PB regions, far beyond anything the experiments build.
        ((mr.0 as u64) << 40) | (page & ((1 << 40) - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> MttCache {
        MttCache::new(1024, 4096)
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut m = cache();
        assert_eq!(m.access(MrId(0), 0, 64), 1);
        assert_eq!(m.access(MrId(0), 0, 64), 0);
        // Same page, different offset: still a hit.
        assert_eq!(m.access(MrId(0), 4000, 64), 0);
        // Straddling into page 1 misses exactly once.
        assert_eq!(m.access(MrId(0), 4090, 64), 1);
    }

    #[test]
    fn span_counts_every_page() {
        let mut m = cache();
        // 16 KB spans 4 pages.
        assert_eq!(m.access(MrId(0), 0, 16384), 4);
        assert_eq!(m.access(MrId(0), 0, 16384), 0);
    }

    #[test]
    fn zero_length_touches_one_page() {
        let mut m = cache();
        assert_eq!(m.access(MrId(0), 0, 0), 1);
    }

    #[test]
    fn distinct_mrs_do_not_alias() {
        let mut m = cache();
        assert_eq!(m.access(MrId(1), 0, 8), 1);
        assert_eq!(m.access(MrId(2), 0, 8), 1);
        assert_eq!(m.access(MrId(1), 0, 8), 0);
    }

    #[test]
    fn random_over_large_region_thrashes() {
        let mut m = cache();
        // Region of 2 GB = 524288 pages >> 1024-entry cache. A random page
        // sequence essentially always misses.
        let mut misses = 0;
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = x % 524_288;
            misses += m.access(MrId(0), page * 4096, 32);
        }
        assert!(misses > 9_900, "misses {misses}");
    }

    #[test]
    fn sequential_over_large_region_misses_once_per_page() {
        let mut m = cache();
        // 32-byte sequential ops: 128 ops per page, one miss per page.
        let mut misses = 0;
        for i in 0..(128 * 64) {
            misses += m.access(MrId(0), i * 32, 32);
        }
        assert_eq!(misses, 64);
    }

    #[test]
    fn warm_prevents_initial_misses() {
        let mut m = cache();
        m.warm(MrId(0), 0, 1 << 20); // 256 pages
        assert_eq!(m.access(MrId(0), 0, 1 << 20), 0);
    }

    #[test]
    fn small_region_fits_entirely() {
        // Fig 6(d): a 4 MB region (1024 pages) fits the cache exactly, so
        // random access over it stops missing after one cold pass.
        let mut m = cache();
        let region = 4u64 << 20;
        for page in 0..(region / 4096) {
            m.access(MrId(0), page * 4096, 32);
        }
        m.reset_stats();
        let mut x = 99u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (x % (region / 32)) * 32;
            assert_eq!(m.access(MrId(0), off, 32), 0);
        }
    }
}
