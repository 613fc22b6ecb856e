//! The store filter: the core's view of the Protection Assistance
//! Buffer.
//!
//! A core running in performance mode must have every store
//! write-through re-validated outside the core before it may write the
//! L2 (paper §3.4.1). Each store consults the core's [`PabPort`] at
//! commit time and is delayed until the returned cycle (PAB serial
//! lookup, or a PAB miss fetching its PAT line through the cache
//! hierarchy). Reliable-mode cores have no port ("when in reliable
//! mode, the PAB is not used").
//!
//! Permission *verdicts* are not routed through the filter: the
//! instruction streams of fault-free software only store to pages they
//! own, so in-pipeline stores always pass. Wild stores produced by
//! injected hardware faults are modelled in `mmm-core`'s fault
//! injector, which consults the PAB directly and raises the exception
//! the paper describes.

use std::cell::RefCell;
use std::rc::Rc;

use mmm_mem::MemorySystem;
use mmm_types::{CoreId, Cycle, LineAddr};
use mmm_workload::AddressLayout;

use crate::pab::Pab;

/// A performance-mode core's port to its PAB: maps each stored-to
/// line to the PAT backing line covering its page and times the PAB
/// lookup. One shared-handle borrow per store.
pub struct PabPort {
    pab: Rc<RefCell<Pab>>,
    layout: AddressLayout,
}

impl PabPort {
    /// Connects a core to `pab`.
    pub fn new(pab: Rc<RefCell<Pab>>, layout: AddressLayout) -> Self {
        Self { pab, layout }
    }

    /// Called when a store to `line` is about to write through to the
    /// L2. Returns the cycle at which the write may proceed (equal to
    /// `now` when the lookup is free, later for serial lookups or PAB
    /// misses).
    pub fn check(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        mem: &mut MemorySystem,
    ) -> Cycle {
        let backing = self.layout.pat_line_for(line.page());
        self.pab.borrow_mut().filter_store(core, backing, mem, now)
    }
}
