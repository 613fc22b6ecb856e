//! Generic set-associative cache with true-LRU replacement.
//!
//! Used for the L1s, the private L2s, and the shared L3 (and, in
//! `mmm-cpu::pab`, for the Protection Assistance Buffer). One
//! structure serves all levels; level-specific behaviour (write-through,
//! exclusivity, coherence) lives in [`crate::system::MemorySystem`].
//!
//! # Layout
//!
//! A way's tag word packs the line address with the line's valid,
//! coherent and MOSI bits (0 is an empty way). A cache stores either
//! the tag word alone ([`TagWay`], 8 bytes) or the tag word beside the
//! line's version token ([`VersionedWay`], 16 bytes): only copies whose
//! version a request reads keep one (see [`crate::system`]), and a
//! tag-only cache reports version 0 for every line.
//!
//! Each set keeps one `u64` recency word that lists the set's 4-bit
//! way numbers from most to least recently used, so a set holds at
//! most [`MAX_ASSOCIATIVITY`](mmm_types::config::MAX_ASSOCIATIVITY)
//! (16) ways, a bound [`CacheGeometry::validate`] enforces. Lookups
//! and updates, which refresh the recency word anyway and mostly hit,
//! probe in recency order, MRU first, and a hit on the MRU way writes
//! nothing back. Peeks, invalidations and fills, which mostly miss
//! (and are all the L3 sees), scan the ways in index order and so
//! never wait for the recency word before probing.
//!
//! The last way in the recency word is the true-LRU victim: a set
//! evicts only when full, every way of a full set was touched when it
//! was filled, and lookups, updates and inserts move their way to the
//! front. Invalidations, drains and clears leave the recency word
//! alone, as they leave a stamp-based LRU's stamps.
//!
//! All-zero bytes are an empty cache: a zero tag word is an empty way,
//! and each recency word is stored XORed with `FRESH_RECENCY`, so a
//! never-touched set reads as ways 0, 1, 2, … from MRU to LRU. Both
//! arrays are zeroed integer `vec!`s. The allocator maps a large one
//! as fresh zero pages without writing it, so building it costs no
//! memset and a page becomes resident only when a run first touches
//! it; a [`CacheBank`] keeps a level's per-core arrays in one such
//! allocation.

use std::ops::{Deref, DerefMut};

use mmm_types::config::CacheGeometry;
use mmm_types::LineAddr;

use crate::request::VersionToken;

/// MOSI coherence state of a cached line.
///
/// The L1s piggyback on their L2's state (write-through, inclusive);
/// lines resident in an L1 are recorded there simply as present. The
/// L3 uses only `S` (clean) and `M`/`O` (dirty) flavours of presence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mosi {
    /// Modified: dirty, sole copy among L2s.
    Modified,
    /// Owned: dirty, other shared copies may exist; this cache
    /// responds to requests.
    Owned,
    /// Shared: clean copy, possibly one of several.
    Shared,
}

impl Mosi {
    /// Whether this state holds dirty data.
    #[inline]
    pub fn is_dirty(self) -> bool {
        matches!(self, Mosi::Modified | Mosi::Owned)
    }

    /// Whether this state confers write permission without an upgrade.
    #[inline]
    pub fn can_write(self) -> bool {
        self == Mosi::Modified
    }
}

/// One resident cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLine {
    /// The line's physical address (line-granular).
    pub addr: LineAddr,
    /// Coherence state.
    pub state: Mosi,
    /// Version token of the data held (see [`crate::request`]).
    pub version: VersionToken,
    /// Whether the copy is coherent with the system. Mute cores fill
    /// lines incoherently during Reunion execution; during mode
    /// switches they also hold coherent lines (VCPU state), which is
    /// why this is a per-line bit — exactly the bit the paper adds to
    /// each line's state field (§3.4.3).
    pub coherent: bool,
}

/// Tag-word bit: the way holds a line.
const VALID: u64 = 1;
/// Tag-word bit: the line is coherent.
const COHERENT: u64 = 1 << 1;
/// Tag-word MOSI field (0 Shared, 1 Owned, 2 Modified) and its shift.
const STATE_SHIFT: u32 = 2;
const STATE: u64 = 0b11 << STATE_SHIFT;
/// The line address sits above the four flag bits.
const ADDR_SHIFT: u32 = 4;
/// The tag bits an address probe compares: address and valid bit.
const MATCH: u64 = !(COHERENT | STATE);
/// Recency word of a set that was never touched: ways 0, 1, 2, … from
/// MRU to LRU (only the low `associativity` nibbles are read). Words
/// are stored XORed with it, so a zeroed word is a fresh set.
const FRESH_RECENCY: u64 = 0xFEDC_BA98_7654_3210;

/// How a cache stores one way. Plain integers, so a zeroed allocation
/// is a cache of empty ways.
pub trait Way: Copy {
    /// The empty way (all zero).
    const EMPTY: Self;
    /// A way holding tag word `tag` and version token `version`.
    fn new(tag: u64, version: VersionToken) -> Self;
    /// The tag word.
    fn tag(self) -> u64;
    /// The version token (0 where the way keeps none).
    fn version(self) -> VersionToken;
}

/// A way that keeps only its tag word: for copies whose version no
/// request reads.
pub type TagWay = u64;

/// A way that keeps `[tag word, version token]`.
pub type VersionedWay = [u64; 2];

impl Way for TagWay {
    const EMPTY: Self = 0;
    #[inline]
    fn new(tag: u64, _: VersionToken) -> Self {
        tag
    }
    #[inline]
    fn tag(self) -> u64 {
        self
    }
    #[inline]
    fn version(self) -> VersionToken {
        0
    }
}

impl Way for VersionedWay {
    const EMPTY: Self = [0; 2];
    #[inline]
    fn new(tag: u64, version: VersionToken) -> Self {
        [tag, version]
    }
    #[inline]
    fn tag(self) -> u64 {
        self[0]
    }
    #[inline]
    fn version(self) -> VersionToken {
        self[1]
    }
}

fn pack<S: Way>(line: CacheLine) -> S {
    // A constant message: formatting the address into it spilled every
    // inserted line to the stack and made fills about 1.6x slower.
    assert!(
        line.addr.0 >> (64 - ADDR_SHIFT) == 0,
        "line address exceeds the tag width"
    );
    let state = match line.state {
        Mosi::Shared => 0,
        Mosi::Owned => 1,
        Mosi::Modified => 2,
    };
    S::new(
        probe_key(line.addr) | if line.coherent { COHERENT } else { 0 } | state << STATE_SHIFT,
        line.version,
    )
}

#[inline]
fn unpack<S: Way>(way: S) -> CacheLine {
    let tag = way.tag();
    CacheLine {
        addr: LineAddr(tag >> ADDR_SHIFT),
        state: match (tag & STATE) >> STATE_SHIFT {
            0 => Mosi::Shared,
            1 => Mosi::Owned,
            _ => Mosi::Modified,
        },
        version: way.version(),
        coherent: tag & COHERENT != 0,
    }
}

#[inline]
fn is_valid<S: Way>(way: S) -> bool {
    way.tag() & VALID != 0
}

/// The tag bits a resident copy of `addr` matches under [`MATCH`].
#[inline]
fn probe_key(addr: LineAddr) -> u64 {
    addr.0 << ADDR_SHIFT | VALID
}

/// The way number at recency position `pos` (0 = MRU).
#[inline]
fn way_at(recency: u64, pos: usize) -> usize {
    (recency >> (4 * pos) & 0xF) as usize
}

/// The recency position of `way`: the lowest nibble equal to it.
#[inline]
fn position(recency: u64, way: usize) -> usize {
    const ONES: u64 = 0x1111_1111_1111_1111;
    // Zero the nibbles equal to `way`; the lowest zero nibble's high
    // bit is the lowest bit the borrow trick sets.
    let x = recency ^ (way as u64).wrapping_mul(ONES);
    (x.wrapping_sub(ONES) & !x & ONES << 3).trailing_zeros() as usize / 4
}

/// Moves the way at recency position `pos` to the front.
#[inline]
fn promote(recency: u64, pos: usize) -> u64 {
    let below = (1u64 << (4 * pos)) - 1;
    let through = below << 4 | 0xF;
    recency & !through | (recency & below) << 4 | way_at(recency, pos) as u64
}

/// A set-associative cache with true-LRU replacement, over any
/// storage of its ways (of any [`Way`] type) and recency words: a
/// [`SetAssocCache`] owns its arrays, and a [`CacheBank`] lends out
/// one of its caches.
#[derive(Clone, Debug)]
pub struct Cache<W, R> {
    ways: W,
    /// One word per set: 4-bit way numbers from MRU to LRU, XORed with
    /// [`FRESH_RECENCY`] (read through [`Self::recency`]).
    recency: R,
    assoc: usize,
    set_mask: u64,
}

/// A cache that owns its arrays of `S` ways.
pub type SetAssocCache<S> = Cache<Vec<S>, Vec<u64>>;

/// `count` empty caches of geometry `geom`, set after set in one pair
/// of zeroed arrays; `set_mask` indexes one cache's sets.
fn zeroed<S: Way>(geom: CacheGeometry, count: usize) -> SetAssocCache<S> {
    geom.validate().expect("invalid cache geometry");
    let sets = geom.sets() as usize;
    let assoc = geom.associativity as usize;
    Cache {
        ways: vec![S::EMPTY; count * sets * assoc],
        recency: vec![0; count * sets],
        assoc,
        set_mask: sets as u64 - 1,
    }
}

impl<S: Way> SetAssocCache<S> {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(geom: CacheGeometry) -> Self {
        zeroed(geom, 1)
    }
}

/// Equal caches whose ways, and whose recency words, share one
/// allocation each: a machine's per-core L1s or L2s. A level's ways
/// in one zeroed array are one fresh mapping, where one array per core
/// may be carved from the heap and cleared.
#[derive(Clone, Debug)]
pub struct CacheBank<S> {
    all: SetAssocCache<S>,
    /// Sets per cache.
    sets: usize,
}

impl<S: Way> CacheBank<S> {
    /// Builds `count` empty caches with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(geom: CacheGeometry, count: usize) -> Self {
        Self {
            all: zeroed(geom, count),
            sets: geom.sets() as usize,
        }
    }

    /// Cache `i`, to read.
    #[inline]
    pub fn get(&self, i: usize) -> Cache<&[S], &[u64]> {
        let (sets, assoc) = (self.sets, self.all.assoc);
        Cache {
            ways: &self.all.ways[i * sets * assoc..(i + 1) * sets * assoc],
            recency: &self.all.recency[i * sets..(i + 1) * sets],
            assoc,
            set_mask: self.all.set_mask,
        }
    }

    /// Cache `i`, to read and change.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Cache<&mut [S], &mut [u64]> {
        let (sets, assoc) = (self.sets, self.all.assoc);
        Cache {
            ways: &mut self.all.ways[i * sets * assoc..(i + 1) * sets * assoc],
            recency: &mut self.all.recency[i * sets..(i + 1) * sets],
            assoc,
            set_mask: self.all.set_mask,
        }
    }
}

impl<S: Way, W: Deref<Target = [S]>, R: Deref<Target = [u64]>> Cache<W, R> {
    #[inline]
    fn recency(&self, set: usize) -> u64 {
        self.recency[set] ^ FRESH_RECENCY
    }

    /// Total slots (sets × ways).
    pub fn slot_count(&self) -> usize {
        self.ways.len()
    }

    #[inline]
    fn set_of(&self, addr: LineAddr) -> usize {
        (addr.0 & self.set_mask) as usize
    }

    /// Finds `addr` without reading the recency word: the index of the
    /// way that holds it.
    #[inline]
    fn find(&self, addr: LineAddr) -> Option<usize> {
        let base = self.set_of(addr) * self.assoc;
        let key = probe_key(addr);
        self.ways[base..base + self.assoc]
            .iter()
            .position(|way| way.tag() & MATCH == key)
            .map(|way| base + way)
    }

    /// Looks up `addr` without touching LRU state (for probes that
    /// must not perturb replacement, e.g. mute best-effort reads of
    /// other caches and directory consistency checks).
    #[inline]
    pub fn peek(&self, addr: LineAddr) -> Option<CacheLine> {
        self.find(addr).map(|i| unpack(self.ways[i]))
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|&&w| is_valid(w)).count()
    }
}

impl<S: Way, W: DerefMut<Target = [S]>, R: DerefMut<Target = [u64]>> Cache<W, R> {
    #[inline]
    fn set_recency(&mut self, set: usize, recency: u64) {
        self.recency[set] = recency ^ FRESH_RECENCY;
    }

    /// Finds `addr` in recency order, MRU first, and moves its way to
    /// the front: the index of that way. For lookups and updates,
    /// which refresh the recency word anyway and mostly hit.
    #[inline]
    fn hit(&mut self, addr: LineAddr) -> Option<usize> {
        let set = self.set_of(addr);
        let base = set * self.assoc;
        let key = probe_key(addr);
        let recency = self.recency(set);
        let (pos, i) = (0..self.assoc)
            .map(|pos| (pos, base + way_at(recency, pos)))
            .find(|&(_, i)| self.ways[i].tag() & MATCH == key)?;
        if pos != 0 {
            self.set_recency(set, promote(recency, pos));
        }
        Some(i)
    }

    /// Looks up `addr`; on a hit, refreshes LRU and returns the line.
    #[inline]
    pub fn lookup(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let i = self.hit(addr)?;
        Some(unpack(self.ways[i]))
    }

    /// Applies `f` to the resident copy of `addr`, refreshing LRU as
    /// [`Self::lookup`] does. Returns the line as it was before `f`,
    /// or `None` (and `f` is not called) on a miss. `f` must not
    /// change the line's address.
    pub fn update(&mut self, addr: LineAddr, f: impl FnOnce(&mut CacheLine)) -> Option<CacheLine> {
        let i = self.hit(addr)?;
        let old = unpack(self.ways[i]);
        let mut line = old;
        f(&mut line);
        debug_assert_eq!(line.addr, addr, "update must not move a line");
        self.ways[i] = pack(line);
        Some(old)
    }

    /// Inserts a line, evicting the LRU victim of its set if full.
    /// Returns the victim. If the address is already resident, the
    /// existing line is overwritten in place and `None` is returned.
    pub fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
        let new: S = pack(line);
        let set = self.set_of(line.addr);
        let base = set * self.assoc;
        let recency = self.recency(set);
        let ways = &mut self.ways[base..base + self.assoc];
        // Overwrite a resident copy, else fill the first empty way,
        // else evict the LRU way.
        let key = new.tag() & MATCH;
        let (pos, victim) = match ways
            .iter()
            .position(|way| way.tag() & MATCH == key)
            .or_else(|| ways.iter().position(|&w| !is_valid(w)))
        {
            Some(way) => (position(recency, way), None),
            None => {
                let lru = self.assoc - 1;
                (lru, Some(unpack(ways[way_at(recency, lru)])))
            }
        };
        ways[way_at(recency, pos)] = new;
        if pos != 0 {
            self.set_recency(set, promote(recency, pos));
        }
        victim
    }

    /// Removes `addr` if present, returning the line.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let i = self.find(addr)?;
        Some(unpack(std::mem::replace(&mut self.ways[i], S::EMPTY)))
    }

    /// Removes every line matching `pred`, appending the removed lines
    /// to `out` in slot order (set by set, way by way).
    pub fn drain_matching_into(
        &mut self,
        mut pred: impl FnMut(&CacheLine) -> bool,
        out: &mut Vec<CacheLine>,
    ) {
        for way in self.ways.iter_mut() {
            if is_valid(*way) {
                let line = unpack(*way);
                if pred(&line) {
                    out.push(line);
                    *way = S::EMPTY;
                }
            }
        }
    }

    /// Removes every line matching `pred` and returns only how many
    /// were removed (no allocation; for callers that don't need the
    /// line contents).
    pub fn discard_matching(&mut self, mut pred: impl FnMut(&CacheLine) -> bool) -> usize {
        let mut removed = 0;
        for way in self.ways.iter_mut() {
            if is_valid(*way) && pred(&unpack(*way)) {
                removed += 1;
                *way = S::EMPTY;
            }
        }
        removed
    }

    /// Empties the cache completely.
    pub fn clear(&mut self) {
        self.ways.fill(S::EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::config::CacheGeometry;
    use mmm_types::DetRng;

    fn tiny() -> SetAssocCache<VersionedWay> {
        // 4 sets x 2 ways.
        SetAssocCache::new(CacheGeometry::new(8 * 64, 2).unwrap())
    }

    fn line(addr: u64) -> CacheLine {
        CacheLine {
            addr: LineAddr(addr),
            state: Mosi::Shared,
            version: 0,
            coherent: true,
        }
    }

    #[test]
    fn a_tag_way_is_eight_bytes_and_a_versioned_way_sixteen() {
        assert_eq!(std::mem::size_of::<TagWay>(), 8);
        assert_eq!(std::mem::size_of::<VersionedWay>(), 16);
    }

    #[test]
    fn packing_round_trips_every_field() {
        for state in [Mosi::Modified, Mosi::Owned, Mosi::Shared] {
            for coherent in [false, true] {
                for addr in [0, 1, 0x4_0000, (1 << 60) - 1] {
                    let l = CacheLine {
                        addr: LineAddr(addr),
                        state,
                        version: u64::MAX - addr,
                        coherent,
                    };
                    let w: VersionedWay = pack(l);
                    assert!(is_valid(w));
                    assert_eq!(unpack(w), l);
                    // A tag-only way keeps everything but the version.
                    let t: TagWay = pack(l);
                    assert!(is_valid(t));
                    assert_eq!(unpack(t), CacheLine { version: 0, ..l });
                }
            }
        }
        assert!(!is_valid(VersionedWay::EMPTY));
        assert!(!is_valid(TagWay::EMPTY));
    }

    #[test]
    #[should_panic(expected = "exceeds the tag width")]
    fn addresses_past_the_tag_width_are_refused() {
        tiny().insert(line(1 << 60));
    }

    #[test]
    fn promote_moves_one_way_to_the_front() {
        assert_eq!(promote(FRESH_RECENCY, 0), FRESH_RECENCY);
        assert_eq!(promote(FRESH_RECENCY, 3), 0xFEDC_BA98_7654_2103);
        assert_eq!(promote(FRESH_RECENCY, 15), 0xEDCB_A987_6543_210F);
        assert_eq!(position(FRESH_RECENCY, 3), 3);
        assert_eq!(position(0xEDCB_A987_6543_210F, 15), 0);
        assert_eq!(position(0xEDCB_A987_6543_210F, 0), 1);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.insert(line(0x10)).is_none());
        assert!(c.lookup(LineAddr(0x10)).is_some());
        assert!(c.lookup(LineAddr(0x11)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set index = addr & 3. Use addrs 0,4,8 -> all set 0.
        c.insert(line(0));
        c.insert(line(4));
        c.lookup(LineAddr(0)); // 0 becomes MRU; 4 is LRU
        let victim = c.insert(line(8)).expect("full set must evict");
        assert_eq!(victim.addr, LineAddr(4));
        assert!(c.peek(LineAddr(0)).is_some());
        assert!(c.peek(LineAddr(8)).is_some());
    }

    #[test]
    fn insert_same_addr_overwrites_without_eviction() {
        let mut c = tiny();
        c.insert(line(0));
        c.insert(line(4));
        let mut updated = line(0);
        updated.state = Mosi::Modified;
        assert!(c.insert(updated).is_none());
        assert_eq!(c.peek(LineAddr(0)).unwrap().state, Mosi::Modified);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut c = tiny();
        c.insert(line(0));
        c.insert(line(4));
        c.peek(LineAddr(0)); // must NOT refresh 0
                             // lookup(4) makes 4 MRU; 0 remains LRU regardless of the peek.
        c.lookup(LineAddr(4));
        let victim = c.insert(line(8)).unwrap();
        assert_eq!(victim.addr, LineAddr(0));
    }

    #[test]
    fn update_rewrites_in_place_and_refreshes_lru() {
        let mut c = tiny();
        c.insert(line(0));
        c.insert(line(4));
        let old = c.update(LineAddr(0), |l| {
            l.state = Mosi::Modified;
            l.coherent = false;
            l.version = 9;
        });
        assert_eq!(old, Some(line(0)));
        let now = c.peek(LineAddr(0)).unwrap();
        assert_eq!(
            (now.state, now.coherent, now.version),
            (Mosi::Modified, false, 9)
        );
        assert_eq!(
            c.insert(line(8)).unwrap().addr,
            LineAddr(4),
            "0 was refreshed"
        );
        assert!(c.update(LineAddr(12), |_| panic!("miss")).is_none());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(line(7));
        assert!(c.invalidate(LineAddr(7)).is_some());
        assert!(c.lookup(LineAddr(7)).is_none());
        assert!(c.invalidate(LineAddr(7)).is_none());
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for a in 0..100 {
            c.insert(line(a));
            assert!(c.occupancy() <= c.slot_count());
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn drain_matching_filters() {
        let mut c = tiny();
        for a in 0..8 {
            let mut l = line(a);
            l.coherent = a % 2 == 0;
            c.insert(l);
        }
        let mut drained = Vec::new();
        c.drain_matching_into(|l| !l.coherent, &mut drained);
        assert_eq!(drained.len(), 4);
        assert_eq!(c.occupancy(), 4);
        assert!((0..8).all(|a| c.peek(LineAddr(a)).is_none_or(|l| l.coherent)));
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        // Addresses 0..4 map to distinct sets; filling them must not evict.
        for a in 0..4 {
            assert!(c.insert(line(a)).is_none());
        }
        for a in 0..4 {
            assert!(c.peek(LineAddr(a)).is_some());
        }
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        c.insert(line(1));
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn mosi_predicates() {
        assert!(Mosi::Modified.is_dirty());
        assert!(Mosi::Owned.is_dirty());
        assert!(!Mosi::Shared.is_dirty());
        assert!(Mosi::Modified.can_write());
        assert!(!Mosi::Owned.can_write());
        assert!(!Mosi::Shared.can_write());
    }

    /// Reference model: a slot per way with a `u64` stamp per slot,
    /// refreshed on every touch, evicting the minimum stamp.
    struct StampLru {
        slots: Vec<(Option<CacheLine>, u64)>,
        assoc: usize,
        set_mask: u64,
        stamp: u64,
    }

    impl StampLru {
        fn new(geom: CacheGeometry) -> Self {
            let assoc = geom.associativity as usize;
            Self {
                slots: vec![(None, 0); geom.lines() as usize],
                assoc,
                set_mask: geom.sets() - 1,
                stamp: 0,
            }
        }

        fn set(&mut self, addr: LineAddr) -> &mut [(Option<CacheLine>, u64)] {
            let base = (addr.0 & self.set_mask) as usize * self.assoc;
            &mut self.slots[base..base + self.assoc]
        }

        fn slot(&mut self, addr: LineAddr) -> Option<&mut (Option<CacheLine>, u64)> {
            self.set(addr)
                .iter_mut()
                .find(|s| s.0.is_some_and(|l| l.addr == addr))
        }

        fn lookup(&mut self, addr: LineAddr) -> Option<CacheLine> {
            self.stamp += 1;
            let stamp = self.stamp;
            let slot = self.slot(addr)?;
            slot.1 = stamp;
            slot.0
        }

        fn update(&mut self, addr: LineAddr, f: impl FnOnce(&mut CacheLine)) -> Option<CacheLine> {
            self.stamp += 1;
            let stamp = self.stamp;
            let slot = self.slot(addr)?;
            slot.1 = stamp;
            let old = slot.0?;
            f(slot.0.as_mut().expect("resident"));
            Some(old)
        }

        fn peek(&mut self, addr: LineAddr) -> Option<CacheLine> {
            self.slot(addr).and_then(|s| s.0)
        }

        fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
            self.stamp += 1;
            let stamp = self.stamp;
            let set = self.set(line.addr);
            let slot = match set
                .iter()
                .position(|s| s.0.is_some_and(|l| l.addr == line.addr))
                .or_else(|| set.iter().position(|s| s.0.is_none()))
            {
                Some(i) => &mut set[i],
                None => set.iter_mut().min_by_key(|s| s.1).expect("nonzero ways"),
            };
            slot.1 = stamp;
            slot.0.replace(line).filter(|old| old.addr != line.addr)
        }

        fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
            self.slot(addr).and_then(|s| s.0.take())
        }

        fn drain(&mut self, mut pred: impl FnMut(&CacheLine) -> bool) -> Vec<CacheLine> {
            let mut out = Vec::new();
            for s in &mut self.slots {
                if s.0.is_some_and(|l| pred(&l)) {
                    out.extend(s.0.take());
                }
            }
            out
        }

        fn occupancy(&self) -> usize {
            self.slots.iter().filter(|s| s.0.is_some()).count()
        }
    }

    /// Replays random operations on a cache of `S` ways and on the
    /// stamped reference, whose versions are `token` where `S` keeps
    /// one and 0 where it does not.
    fn replays_like_stamped_lru<S: Way>() {
        let keeps_version = S::new(0, 1).version() == 1;
        for (n, assoc) in [1u32, 2, 4, 8, 16].into_iter().enumerate() {
            // Four sets, and twice as many addresses as lines, so
            // sets fill, evict and drain constantly.
            let geom = CacheGeometry::new(4 * assoc as u64 * 64, assoc).unwrap();
            let mut c = SetAssocCache::<S>::new(geom);
            let mut r = StampLru::new(geom);
            let mut rng = DetRng::new(0x1E57, n as u64);
            let span = 8 * assoc as u64;
            for step in 0..20_000 {
                let addr = LineAddr(rng.below(span));
                let token = rng.next_u64();
                let version = if keeps_version { token } else { 0 };
                let ctx = format!("{assoc} ways, step {step}");
                match rng.below(100) {
                    0..=24 => assert_eq!(c.lookup(addr), r.lookup(addr), "{ctx}"),
                    25..=34 => {
                        let state = [Mosi::Modified, Mosi::Owned, Mosi::Shared][token as usize % 3];
                        let f = move |l: &mut CacheLine| {
                            l.state = state;
                            l.version = version;
                            l.coherent = token & 8 != 0;
                        };
                        assert_eq!(c.update(addr, f), r.update(addr, f), "{ctx}");
                    }
                    35..=49 => assert_eq!(c.peek(addr), r.peek(addr), "{ctx}"),
                    50..=84 => {
                        let l = CacheLine {
                            addr,
                            state: [Mosi::Modified, Mosi::Owned, Mosi::Shared][token as usize % 3],
                            version,
                            coherent: token & 16 != 0,
                        };
                        assert_eq!(c.insert(l), r.insert(l), "{ctx}");
                    }
                    85..=93 => assert_eq!(c.invalidate(addr), r.invalidate(addr), "{ctx}"),
                    94..=96 => {
                        let pick = rng.below(4);
                        let pred = |l: &CacheLine| match pick {
                            0 => !l.coherent,
                            1 => l.state.is_dirty(),
                            2 => l.version & 1 == 0,
                            _ => l.addr.0.is_multiple_of(3),
                        };
                        let mut out = vec![line(u64::MAX >> ADDR_SHIFT)];
                        c.drain_matching_into(pred, &mut out);
                        assert_eq!(out[0], line(u64::MAX >> ADDR_SHIFT), "{ctx}: appends");
                        assert_eq!(out[1..], r.drain(pred)[..], "{ctx}");
                    }
                    97..=98 => {
                        let pred = |l: &CacheLine| l.coherent;
                        assert_eq!(c.discard_matching(pred), r.drain(pred).len(), "{ctx}");
                    }
                    _ => {
                        c.clear();
                        r.drain(|_| true);
                    }
                }
                assert_eq!(c.occupancy(), r.occupancy(), "{ctx}");
            }
        }
    }

    #[test]
    fn recency_words_replace_exactly_like_stamped_lru() {
        replays_like_stamped_lru::<VersionedWay>();
    }

    #[test]
    fn tag_only_ways_replace_exactly_like_stamped_lru() {
        replays_like_stamped_lru::<TagWay>();
    }
}
