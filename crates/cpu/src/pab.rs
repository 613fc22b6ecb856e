//! The Protection Assistance Buffer (paper §3.4.1, Figure 3).
//!
//! A small per-core hardware structure "organized much like a cache,
//! with a physically tagged and indexed array containing 64 Bytes (one
//! cache-line worth) of PAT entries" per entry. With 128 entries it
//! holds 8.2 KB and maps 512 MB of physical memory.
//!
//! When a core runs in performance mode, every store write-through is
//! re-validated against the PAB before (serial) or in parallel with
//! its L2 access, providing redundancy for the TLB's permission check:
//! a fault in the TLB array, checking logic, or privileged registers
//! can no longer silently corrupt reliable applications' memory. In
//! reliable mode the PAB is not used. A PAB miss fetches the covering
//! PAT line through the normal cache hierarchy. On a TLB demap, the
//! TLB sends the demapped physical page to the PAB, which invalidates
//! the corresponding entry.
//!
//! The PAB models the *array and its timing* only; it is addressed by
//! PAT backing lines. Translating a stored-to page to its backing
//! line, and the permission bit itself, belong to the Protection
//! Assistance Table, which is system-software state owned by
//! `mmm-core` — the permission verdict is computed there.

use mmm_mem::{CacheLine, MemorySystem, Mosi, SetAssocCache, TagWay};
use mmm_types::config::{PabConfig, PabLookup};
use mmm_types::stats::Log2Histogram;
use mmm_types::{CoreId, Cycle, LineAddr};

/// Counters accumulated by one PAB.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PabStats {
    /// Permission checks performed.
    pub lookups: u64,
    /// Checks satisfied from the PAB array.
    pub hits: u64,
    /// Checks that fetched a PAT line through the hierarchy.
    pub misses: u64,
    /// Stores blocked because they targeted a reliable-only page.
    pub violations: u64,
    /// Entries invalidated by TLB demaps.
    pub demap_invalidations: u64,
    /// Cycles each checked store waited on the PAB before proceeding
    /// to the L2 (0 on a parallel-lookup hit; the PAT-line fetch plus
    /// any serial latency otherwise).
    pub serialization_penalty: Log2Histogram,
}

/// One core's Protection Assistance Buffer.
#[derive(Debug)]
pub struct Pab {
    /// Which PAT lines are resident: a check reads only whether its
    /// line hits, so the ways are tag-only.
    entries: SetAssocCache<TagWay>,
    cfg: PabConfig,
    stats: PabStats,
}

impl Pab {
    /// Builds a PAB from its configuration (default: 128 entries,
    /// 8-way).
    pub fn new(cfg: PabConfig) -> Self {
        Self {
            entries: SetAssocCache::new(cfg.geometry()),
            cfg,
            stats: PabStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &PabStats {
        &self.stats
    }

    /// Resets counters (after warm-up) without touching the array.
    pub fn reset_stats(&mut self) {
        self.stats = PabStats::default();
    }

    /// Times the PAB side of a store re-validation: the lookup of the
    /// PAT line `backing` covering the stored-to page. Returns the
    /// cycle at which the store may proceed to the L2.
    ///
    /// Timing: a parallel-lookup hit is free (the PAB races the L2
    /// tags); a serial lookup adds `serial_latency` to every store; a
    /// miss additionally fetches the covering PAT line through the
    /// hierarchy before the store may proceed.
    pub fn filter_store(
        &mut self,
        core: CoreId,
        backing: LineAddr,
        mem: &mut MemorySystem,
        now: Cycle,
    ) -> Cycle {
        self.stats.lookups += 1;
        let serial_extra = match self.cfg.lookup {
            PabLookup::Parallel => 0,
            PabLookup::Serial => self.cfg.serial_latency,
        } as Cycle;
        let ready = if self.entries.lookup(backing).is_some() {
            self.stats.hits += 1;
            now + serial_extra
        } else {
            self.stats.misses += 1;
            // Fetch the PAT line like any cacheable data.
            let acc = mem.load(core, backing, true, now);
            self.entries.insert(CacheLine {
                addr: backing,
                state: Mosi::Shared,
                version: acc.version,
                coherent: true,
            });
            acc.complete_at + serial_extra
        };
        self.stats.serialization_penalty.record(ready - now);
        ready
    }

    /// Records a permission violation (the PAT owner observed a store
    /// to a reliable-only page during a check).
    pub fn record_violation(&mut self) {
        self.stats.violations += 1;
    }

    /// Handles a TLB demap: invalidates the entry holding PAT line
    /// `backing`. (Conservative: the whole 512-page line's entry is
    /// dropped.)
    pub fn on_demap(&mut self, backing: LineAddr) {
        if self.entries.invalidate(backing).is_some() {
            self.stats.demap_invalidations += 1;
        }
    }

    /// Drops all entries (PAT rewritten wholesale, e.g. VM
    /// reassignment).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// Resident entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.entries.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::{PageAddr, SystemConfig};
    use mmm_workload::AddressLayout;

    fn setup() -> (Pab, MemorySystem) {
        let cfg = SystemConfig::default();
        (Pab::new(cfg.pab), MemorySystem::new(&cfg))
    }

    fn backing(line: LineAddr) -> LineAddr {
        AddressLayout::new().pat_line_for(line.page())
    }

    const CORE: CoreId = CoreId(0);

    #[test]
    fn miss_then_hit_with_parallel_lookup_is_free_on_hit() {
        let (mut pab, mut mem) = setup();
        let b = backing(LineAddr(0x8000));
        let t1 = pab.filter_store(CORE, b, &mut mem, 100);
        assert!(t1 > 100, "miss fetches the PAT line");
        let t2 = pab.filter_store(CORE, b, &mut mem, t1);
        assert_eq!(t2, t1, "parallel hit adds no latency");
        assert_eq!(pab.stats().hits, 1);
        assert_eq!(pab.stats().misses, 1);
    }

    #[test]
    fn serial_lookup_costs_two_cycles_per_store() {
        let cfg = SystemConfig::default();
        let mut pab_cfg = cfg.pab;
        pab_cfg.lookup = PabLookup::Serial;
        let mut pab = Pab::new(pab_cfg);
        let mut mem = MemorySystem::new(&cfg);
        let b = backing(LineAddr(0x8000));
        let t1 = pab.filter_store(CORE, b, &mut mem, 0);
        let t2 = pab.filter_store(CORE, b, &mut mem, t1);
        assert_eq!(t2, t1 + 2, "serial hit costs the PAB latency");
    }

    #[test]
    fn one_entry_covers_512_pages() {
        let (mut pab, mut mem) = setup();
        // Two pages in the same 512-page group share a PAT line.
        let a = backing(PageAddr(100).first_line());
        let b = backing(PageAddr(200).first_line());
        assert_eq!(a, b);
        pab.filter_store(CORE, a, &mut mem, 0);
        pab.filter_store(CORE, b, &mut mem, 1000);
        assert_eq!(pab.stats().misses, 1);
        assert_eq!(pab.stats().hits, 1);
    }

    #[test]
    fn demap_invalidates_covering_entry() {
        let (mut pab, mut mem) = setup();
        let b = backing(PageAddr(100).first_line());
        pab.filter_store(CORE, b, &mut mem, 0);
        assert_eq!(pab.occupancy(), 1);
        pab.on_demap(b);
        assert_eq!(pab.occupancy(), 0);
        assert_eq!(pab.stats().demap_invalidations, 1);
        // Next check misses again.
        pab.filter_store(CORE, b, &mut mem, 5000);
        assert_eq!(pab.stats().misses, 2);
    }

    #[test]
    fn pab_capacity_is_bounded() {
        let (mut pab, mut mem) = setup();
        // Touch far more than 128 distinct page groups.
        for g in 0..500u64 {
            let b = backing(PageAddr(g * 512).first_line());
            pab.filter_store(CORE, b, &mut mem, g * 1000);
        }
        assert!(pab.occupancy() <= 128);
    }

    #[test]
    fn entries_are_tag_only_ways() {
        fn way_bytes<S>(_: &SetAssocCache<S>) -> usize {
            std::mem::size_of::<S>()
        }
        assert_eq!(way_bytes(&setup().0.entries), 8);
    }

    #[test]
    fn invalidate_all_clears() {
        let (mut pab, mut mem) = setup();
        pab.filter_store(CORE, backing(LineAddr(0x8000)), &mut mem, 0);
        pab.invalidate_all();
        assert_eq!(pab.occupancy(), 0);
    }
}
