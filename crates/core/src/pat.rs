//! The Protection Assistance Table (paper §3.4.1).
//!
//! "Similar to an inverse page table: for each physical page in the
//! system, a '1' entry indicates that page can only be accessed by
//! applications executing in reliable mode, and a '0' entry indicates
//! that page can potentially be accessed by any software." One bit per
//! 8 KB page; the table lives in cacheable physical memory and is
//! maintained by system software (the VMM updates it alongside its
//! page tables).
//!
//! The PAT content is the architectural source of truth; the per-core
//! [`crate::pab::Pab`] caches 64-byte lines of it.

use mmm_types::LineAddr;
use mmm_types::PageAddr;
use mmm_workload::AddressLayout;
use std::collections::HashMap;

/// Pages covered by one 64-byte PAT line (64 B × 8 bits).
pub const PAGES_PER_PAT_LINE: u64 = 512;

/// The in-memory protection bitmap.
///
/// Sparse: groups of 512 pages materialize on first write, matching
/// how system software would lazily allocate PAT backing pages.
#[derive(Clone, Debug, Default)]
pub struct Pat {
    /// Page-group index (`page / 512`) → 512-bit bitmap (8 × u64).
    groups: HashMap<u64, [u64; 8]>,
    layout: AddressLayout,
}

impl Pat {
    /// Creates an empty PAT: no page is marked reliable-only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a single page.
    pub fn set_reliable(&mut self, page: PageAddr, reliable: bool) {
        let group = self.groups.entry(page.0 / PAGES_PER_PAT_LINE).or_default();
        let bit = page.0 % PAGES_PER_PAT_LINE;
        let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
        if reliable {
            group[word] |= mask;
        } else {
            group[word] &= !mask;
        }
    }

    /// Marks a contiguous page range (system software marking a VM's
    /// whole allocation): the same bits, and the same groups
    /// materialized, as [`Pat::set_reliable`] on every page, but a
    /// word and a map entry at a time.
    pub fn set_range_reliable(&mut self, pages: std::ops::Range<u64>, reliable: bool) {
        let mut page = pages.start;
        while page < pages.end {
            let base = page - page % PAGES_PER_PAT_LINE;
            let end = pages.end.min(base.saturating_add(PAGES_PER_PAT_LINE));
            let group = self.groups.entry(base / PAGES_PER_PAT_LINE).or_default();
            // Bits [from, to) of the group, a word at a time.
            let (mut from, to) = (page - base, end - base);
            while from < to {
                let word = (from / 64) as usize;
                let hi = to.min(from - from % 64 + 64);
                let mask = (u64::MAX >> (64 - (hi - from))) << (from % 64);
                if reliable {
                    group[word] |= mask;
                } else {
                    group[word] &= !mask;
                }
                from = hi;
            }
            page = end;
        }
    }

    /// Whether `page` may only be written by reliable-mode software.
    pub fn is_reliable(&self, page: PageAddr) -> bool {
        self.groups
            .get(&(page.0 / PAGES_PER_PAT_LINE))
            .map(|g| {
                let bit = page.0 % PAGES_PER_PAT_LINE;
                g[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
            })
            .unwrap_or(false)
    }

    /// Physical line of the PAT backing store holding `page`'s bit —
    /// the address a PAB miss fetches through the cache hierarchy.
    pub fn backing_line(&self, page: PageAddr) -> LineAddr {
        self.layout.pat_line_for(page)
    }

    /// Bytes of PAT backing store materialized so far (diagnostics;
    /// the paper sizes the full table at 16 MB per TB of physical
    /// memory).
    pub fn resident_bytes(&self) -> u64 {
        self.groups.len() as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unprotected() {
        let pat = Pat::new();
        assert!(!pat.is_reliable(PageAddr(0)));
        assert!(!pat.is_reliable(PageAddr(123_456)));
    }

    #[test]
    fn set_and_clear_single_pages() {
        let mut pat = Pat::new();
        pat.set_reliable(PageAddr(1000), true);
        assert!(pat.is_reliable(PageAddr(1000)));
        assert!(!pat.is_reliable(PageAddr(999)));
        assert!(!pat.is_reliable(PageAddr(1001)));
        pat.set_reliable(PageAddr(1000), false);
        assert!(!pat.is_reliable(PageAddr(1000)));
    }

    /// `pat` after marking each range of `ranges` in turn, checked
    /// against the same ranges marked one page at a time.
    fn marked_like_single_pages(ranges: &[(std::ops::Range<u64>, bool)]) -> Pat {
        let (mut pat, mut reference) = (Pat::new(), Pat::new());
        for (pages, reliable) in ranges {
            pat.set_range_reliable(pages.clone(), *reliable);
            for p in pages.clone() {
                reference.set_reliable(PageAddr(p), *reliable);
            }
            assert_eq!(
                pat.groups, reference.groups,
                "after {pages:?} -> {reliable}"
            );
        }
        pat
    }

    #[test]
    fn range_marking() {
        let pat = marked_like_single_pages(&[(5000..5100, true)]);
        assert!(pat.is_reliable(PageAddr(5000)));
        assert!(pat.is_reliable(PageAddr(5099)));
        assert!(!pat.is_reliable(PageAddr(4999)));
        assert!(!pat.is_reliable(PageAddr(5100)));
        // Whole groups, mid-word ends, empty ranges, and clearing
        // sub-ranges of marked ones (which still materializes groups).
        marked_like_single_pages(&[
            (1024..4096, true),
            (1500..1501, false),
            (2000..3100, false),
            (7..7, true),
            (100_037..101_955, true),
            (100_500..100_700, false),
            (200_000..200_512, false),
        ]);
    }

    #[test]
    fn bits_across_word_and_group_boundaries() {
        let mut pat = Pat::new();
        for p in [63u64, 64, 511, 512, 513] {
            pat.set_reliable(PageAddr(p), true);
            assert!(pat.is_reliable(PageAddr(p)), "page {p}");
        }
        // Neighbours unaffected.
        assert!(!pat.is_reliable(PageAddr(62)));
        assert!(!pat.is_reliable(PageAddr(65)));
        assert!(!pat.is_reliable(PageAddr(510)));
        assert!(!pat.is_reliable(PageAddr(514)));
        // Ranges that start or end on either side of a word or group
        // boundary, and clear across one.
        marked_like_single_pages(&[
            (63..65, true),
            (64..128, true),
            (511..513, true),
            (0..512, true),
            (65..127, false),
            (130..1100, true),
            (448..577, false),
            (1023..1025, false),
        ]);
    }

    #[test]
    fn backing_lines_group_512_pages() {
        let pat = Pat::new();
        assert_eq!(
            pat.backing_line(PageAddr(0)),
            pat.backing_line(PageAddr(511))
        );
        assert_ne!(
            pat.backing_line(PageAddr(511)),
            pat.backing_line(PageAddr(512))
        );
    }

    #[test]
    fn resident_bytes_grow_lazily() {
        let mut pat = Pat::new();
        assert_eq!(pat.resident_bytes(), 0);
        pat.set_reliable(PageAddr(0), true);
        pat.set_reliable(PageAddr(511), true);
        assert_eq!(pat.resident_bytes(), 64);
        pat.set_reliable(PageAddr(512), true);
        assert_eq!(pat.resident_bytes(), 128);
    }
}
