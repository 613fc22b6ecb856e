//! Protection Assistance Buffer — the system-software side.
//!
//! The PAB array and its timing model live in `mmm-cpu` (see
//! [`mmm_cpu::pab`]): it is per-core hardware, addressed by PAT
//! backing lines, and is wired into the store write-through path
//! through a core's [`mmm_cpu::PabPort`]. What remains here is
//! everything that needs the [`Pat`]: translating a stored-to page to
//! its backing line and reading the permission bit — i.e. the actual
//! verdict. The in-pipeline filter path never needs the verdict
//! (fault-free software only stores to pages it owns); only the fault
//! injector, which models wild stores, checks permissions via
//! [`check_store`].

use std::cell::RefCell;

use mmm_mem::MemorySystem;
use mmm_types::{CoreId, Cycle, LineAddr};

pub use mmm_cpu::{Pab, PabStats};

use crate::pat::Pat;

/// Outcome of a PAB permission check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PabVerdict {
    /// The store targets a page any software may write.
    Allowed,
    /// The store targets a reliable-only page: an exception is raised
    /// to system software *before* the corruption reaches the L2.
    Violation,
}

/// Checks the permission of a store to `line` issued by `core` in
/// performance mode: the PAB lookup timing plus the PAT permission
/// bit. Returns the cycle at which the store may proceed to the L2
/// and the verdict.
pub fn check_store(
    pab: &RefCell<Pab>,
    core: CoreId,
    line: LineAddr,
    pat: &Pat,
    mem: &mut MemorySystem,
    now: Cycle,
) -> (Cycle, PabVerdict) {
    let page = line.page();
    let backing = pat.backing_line(page);
    let ready_at = pab.borrow_mut().filter_store(core, backing, mem, now);
    let verdict = if pat.is_reliable(page) {
        pab.borrow_mut().record_violation();
        PabVerdict::Violation
    } else {
        PabVerdict::Allowed
    };
    (ready_at, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::{PageAddr, SystemConfig};

    fn setup() -> (RefCell<Pab>, Pat, MemorySystem) {
        let cfg = SystemConfig::default();
        (
            RefCell::new(Pab::new(cfg.pab)),
            Pat::new(),
            MemorySystem::new(&cfg),
        )
    }

    const CORE: CoreId = CoreId(0);

    #[test]
    fn miss_then_hit_with_parallel_lookup_is_free_on_hit() {
        let (pab, pat, mut mem) = setup();
        let line = LineAddr(0x8000);
        let (t1, v1) = check_store(&pab, CORE, line, &pat, &mut mem, 100);
        assert_eq!(v1, PabVerdict::Allowed);
        assert!(t1 > 100, "miss fetches the PAT line");
        let (t2, v2) = check_store(&pab, CORE, line, &pat, &mut mem, t1);
        assert_eq!(v2, PabVerdict::Allowed);
        assert_eq!(t2, t1, "parallel hit adds no latency");
        assert_eq!(pab.borrow().stats().hits, 1);
        assert_eq!(pab.borrow().stats().misses, 1);
    }

    #[test]
    fn violation_is_flagged_for_reliable_pages() {
        let (pab, mut pat, mut mem) = setup();
        let line = LineAddr(0x8000);
        pat.set_reliable(line.page(), true);
        let (_, v) = check_store(&pab, CORE, line, &pat, &mut mem, 0);
        assert_eq!(v, PabVerdict::Violation);
        assert_eq!(pab.borrow().stats().violations, 1);
    }

    #[test]
    fn one_entry_covers_512_pages() {
        let (pab, pat, mut mem) = setup();
        // Two pages in the same 512-page group share a PAT line.
        let a = PageAddr(100).first_line();
        let b = PageAddr(200).first_line();
        check_store(&pab, CORE, a, &pat, &mut mem, 0);
        check_store(&pab, CORE, b, &pat, &mut mem, 1000);
        assert_eq!(pab.borrow().stats().misses, 1);
        assert_eq!(pab.borrow().stats().hits, 1);
    }

    #[test]
    fn demap_invalidates_covering_entry() {
        let (pab, pat, mut mem) = setup();
        let page = PageAddr(100);
        check_store(&pab, CORE, page.first_line(), &pat, &mut mem, 0);
        assert_eq!(pab.borrow().occupancy(), 1);
        pab.borrow_mut().on_demap(pat.backing_line(page));
        assert_eq!(pab.borrow().occupancy(), 0);
        assert_eq!(pab.borrow().stats().demap_invalidations, 1);
        // Next check misses again.
        check_store(&pab, CORE, page.first_line(), &pat, &mut mem, 5000);
        assert_eq!(pab.borrow().stats().misses, 2);
    }
}
