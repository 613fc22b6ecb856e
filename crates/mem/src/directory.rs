//! The MOSI directory.
//!
//! The paper's machine keeps L2 shadow tags co-located with each L3
//! bank; the directory here is the logical content of those shadow
//! tags: for every line cached in at least one private L2, the set of
//! sharer cores and the owner (the core holding it Modified or Owned,
//! responsible for sourcing data).
//!
//! Mute-core (incoherent) requests never appear here — "all requests
//! emanating from the private cache hierarchy of a mute core do not
//! change the state of the line in the directory or any other caches"
//! (paper §3.2).

use mmm_types::{CoreId, LineAddr};

use crate::linemap::LineMap;

/// Directory record for one line resident in at least one L2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of cores holding the line in their L2.
    pub sharers: u32,
    /// Core holding the line dirty (Modified/Owned), if any.
    pub owner: Option<CoreId>,
}

impl DirEntry {
    /// Whether no L2 holds the line.
    pub fn is_empty(&self) -> bool {
        self.sharers == 0
    }

    /// Number of sharer L2s.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// Whether `core` is recorded as a sharer.
    pub fn has_sharer(&self, core: CoreId) -> bool {
        self.sharers & (1 << core.index()) != 0
    }

    /// Iterates over sharer cores.
    pub fn sharer_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..32u16)
            .filter(move |i| self.sharers & (1 << i) != 0)
            .map(CoreId)
    }
}

/// The full directory.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: LineMap<DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Directory state for a line (empty entry if untracked).
    pub fn entry(&self, line: LineAddr) -> DirEntry {
        self.entries.get(line).copied().unwrap_or_default()
    }

    /// Records `core` as a sharer of `line`.
    pub fn add_sharer(&mut self, line: LineAddr, core: CoreId) {
        let e = self.entries.entry_or_default(line);
        e.sharers |= 1 << core.index();
    }

    /// Records `core` as the owner (and a sharer) of `line`.
    ///
    /// # Panics
    ///
    /// Panics if a different owner is already recorded — ownership must
    /// be transferred explicitly via [`Directory::clear_owner`].
    pub fn set_owner(&mut self, line: LineAddr, core: CoreId) {
        let e = self.entries.entry_or_default(line);
        if let Some(owner) = e.owner.filter(|&o| o != core) {
            already_owned(line, owner);
        }
        e.owner = Some(core);
        e.sharers |= 1 << core.index();
    }

    /// Clears the owner of `line` (the core keeps any sharer record).
    pub fn clear_owner(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.get_mut(line) {
            e.owner = None;
        }
    }

    /// Removes `core` from the sharer set (and ownership); deletes the
    /// entry if no sharers remain.
    pub fn remove_sharer(&mut self, line: LineAddr, core: CoreId) {
        if let Some(e) = self.entries.get_mut(line) {
            e.sharers &= !(1 << core.index());
            if e.owner == Some(core) {
                e.owner = None;
            }
            if e.is_empty() {
                self.entries.remove(line);
            }
        }
    }

    /// Removes every sharer except `keep`, returning the bitmask of
    /// the cores that were invalidated. Used on a store upgrade; this
    /// is the allocation-free form for the store hot path.
    pub fn invalidate_others_mask(&mut self, line: LineAddr, keep: CoreId) -> u32 {
        let Some(e) = self.entries.get_mut(line) else {
            return 0;
        };
        let keep_bit = 1u32 << keep.index();
        let kicked = e.sharers & !keep_bit;
        e.sharers &= keep_bit;
        if e.owner.is_some() && e.owner != Some(keep) {
            e.owner = None;
        }
        if e.is_empty() {
            self.entries.remove(line);
        }
        kicked
    }

    /// Removes every sharer except `keep`, returning the cores that
    /// were invalidated (in ascending core order).
    pub fn invalidate_others(&mut self, line: LineAddr, keep: CoreId) -> Vec<CoreId> {
        let mask = self.invalidate_others_mask(line, keep);
        (0..32u16)
            .filter(|i| mask & (1u32 << i) != 0)
            .map(CoreId)
            .collect()
    }

    /// Number of tracked lines (diagnostics).
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }
}

/// The [`Directory::set_owner`] panic, cold and out of line so that
/// formatting its message costs the ownership path nothing.
#[cold]
#[inline(never)]
fn already_owned(line: LineAddr, owner: CoreId) -> ! {
    panic!("line {line} already owned by {owner:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(0xABC);

    #[test]
    fn empty_entry_for_unknown_line() {
        let d = Directory::new();
        assert!(d.entry(L).is_empty());
        assert_eq!(d.entry(L).owner, None);
    }

    #[test]
    fn add_and_remove_sharers() {
        let mut d = Directory::new();
        d.add_sharer(L, CoreId(1));
        d.add_sharer(L, CoreId(5));
        let e = d.entry(L);
        assert_eq!(e.sharer_count(), 2);
        assert!(e.has_sharer(CoreId(1)));
        assert!(e.has_sharer(CoreId(5)));
        assert!(!e.has_sharer(CoreId(2)));
        d.remove_sharer(L, CoreId(1));
        assert_eq!(d.entry(L).sharer_count(), 1);
        d.remove_sharer(L, CoreId(5));
        assert!(d.entry(L).is_empty());
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn owner_is_also_sharer() {
        let mut d = Directory::new();
        d.set_owner(L, CoreId(3));
        let e = d.entry(L);
        assert_eq!(e.owner, Some(CoreId(3)));
        assert!(e.has_sharer(CoreId(3)));
    }

    #[test]
    fn removing_owner_clears_ownership() {
        let mut d = Directory::new();
        d.set_owner(L, CoreId(3));
        d.remove_sharer(L, CoreId(3));
        assert_eq!(d.entry(L).owner, None);
        assert!(d.entry(L).is_empty());
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_ownership_is_a_bug() {
        let mut d = Directory::new();
        d.set_owner(L, CoreId(1));
        d.set_owner(L, CoreId(2));
    }

    #[test]
    fn ownership_transfer_via_clear() {
        let mut d = Directory::new();
        d.set_owner(L, CoreId(1));
        d.clear_owner(L);
        d.set_owner(L, CoreId(2));
        assert_eq!(d.entry(L).owner, Some(CoreId(2)));
        // Core 1 remains a (stale-tracked) sharer until removed.
        assert!(d.entry(L).has_sharer(CoreId(1)));
    }

    #[test]
    fn invalidate_others_keeps_only_writer() {
        let mut d = Directory::new();
        d.set_owner(L, CoreId(2));
        d.add_sharer(L, CoreId(4));
        d.add_sharer(L, CoreId(7));
        let kicked = d.invalidate_others(L, CoreId(4));
        assert_eq!(kicked.len(), 2);
        assert!(kicked.contains(&CoreId(2)));
        assert!(kicked.contains(&CoreId(7)));
        let e = d.entry(L);
        assert_eq!(e.sharer_count(), 1);
        assert!(e.has_sharer(CoreId(4)));
        assert_eq!(e.owner, None, "old owner was invalidated");
    }

    #[test]
    fn sharer_cores_iterates_exactly() {
        let mut d = Directory::new();
        for c in [0u16, 3, 15, 31] {
            d.add_sharer(L, CoreId(c));
        }
        let cores: Vec<u16> = d.entry(L).sharer_cores().map(|c| c.0).collect();
        assert_eq!(cores, vec![0, 3, 15, 31]);
    }
}
