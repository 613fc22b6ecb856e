//! Open-addressed hash table keyed by [`LineAddr`].
//!
//! The directory and the global version-token store are the hottest
//! maps in the simulator: every load, store, and invalidation performs
//! at least one lookup. A general `HashMap` pays for SipHash-free
//! hashing already (see `mmm_types::fastmap`), but still routes every
//! probe through control-byte groups and `Option`-wrapped buckets.
//! This table exploits what those maps cannot assume:
//!
//! * keys are line addresses below 2^32 − 1 (the machine's last line,
//!   the end of the PAT backing store in `mmm_workload::layout`, is
//!   far below), so a key is stored as a checked `u32` and the
//!   sentinel `u32::MAX` marks empty slots with no occupancy metadata;
//! * values are small `Copy` records, stored in an array of their own
//!   beside the keys, so a slot costs 4 bytes plus the value (12 for
//!   the directory's and the version store's 8-byte values, where a
//!   `(u64, V)` slot costs 16) and a probe scans a dense key array.
//!
//! Collision policy is linear probing with backward-shift deletion —
//! no tombstones, so load factor and probe lengths stay honest across
//! the simulator's heavy insert/remove churn (directory entries come
//! and go with every eviction).

use mmm_types::LineAddr;

/// Sentinel key marking an empty slot; no line's key equals it.
const EMPTY: u32 = u32::MAX;

/// SplitMix64 finalizer — same mixer as `mmm_types::fastmap`, inlined
/// here so a probe is mix + mask with no `Hasher` plumbing.
#[inline]
fn mix(key: u32) -> u64 {
    let mut x = key as u64;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The stored key of `line`.
///
/// # Panics
///
/// Panics if the line address does not fit below [`EMPTY`].
#[inline]
fn key(line: LineAddr) -> u32 {
    match u32::try_from(line.0) {
        Ok(k) if k != EMPTY => k,
        _ => key_out_of_range(),
    }
}

/// The [`key`] panic, cold and out of line so that the check costs a
/// probe one compare.
#[cold]
#[inline(never)]
fn key_out_of_range() -> ! {
    panic!("line address exceeds the 32-bit line-map key")
}

/// Open-addressed map from [`LineAddr`] to a small `Copy` value.
#[derive(Clone, Debug)]
pub struct LineMap<V> {
    /// Slot keys; [`EMPTY`] marks a free slot.
    keys: Vec<u32>,
    /// Slot values, beside `keys`.
    values: Vec<V>,
    /// Occupied slot count.
    len: usize,
    /// `keys.len() - 1`; capacity is always a power of two.
    mask: usize,
}

impl<V: Copy + Default> Default for LineMap<V> {
    fn default() -> Self {
        Self::with_capacity_pow2(1024)
    }
}

impl<V: Copy + Default> LineMap<V> {
    /// Creates a map with `cap` slots (rounded up to a power of two).
    pub fn with_capacity_pow2(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        Self {
            keys: vec![EMPTY; cap],
            values: vec![V::default(); cap],
            len: 0,
            mask: cap - 1,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index for `key`, or of the first empty slot in its probe
    /// chain if absent.
    #[inline]
    fn probe(&self, key: u32) -> usize {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up the value for `line`.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&V> {
        let i = self.probe(key(line));
        (self.keys[i] != EMPTY).then(|| &self.values[i])
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let i = self.probe(key(line));
        if self.keys[i] == EMPTY {
            return None;
        }
        Some(&mut self.values[i])
    }

    /// Inserts or overwrites the value for `line`.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, value: V) {
        *self.entry_or_default(line) = value;
    }

    /// Returns a mutable reference to the value for `line`, inserting
    /// `V::default()` first if absent.
    #[inline]
    pub fn entry_or_default(&mut self, line: LineAddr) -> &mut V {
        let k = key(line);
        let mut i = self.probe(k);
        if self.keys[i] == EMPTY {
            if (self.len + 1) * 8 > self.keys.len() * 7 {
                self.grow();
                i = self.probe(k);
            }
            self.keys[i] = k;
            self.values[i] = V::default();
            self.len += 1;
        }
        &mut self.values[i]
    }

    /// Removes the entry for `line`, returning its value if present.
    ///
    /// Backward-shift deletion: slides the rest of the probe cluster
    /// back over the hole so later lookups never traverse tombstones.
    pub fn remove(&mut self, line: LineAddr) -> Option<V> {
        let mut hole = self.probe(key(line));
        if self.keys[hole] == EMPTY {
            return None;
        }
        let removed = self.values[hole];
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let k = self.keys[i];
            if k == EMPTY {
                break;
            }
            // If k's home slot lies outside the (home, hole] cluster
            // arc, k cannot fill the hole; keep scanning.
            let home = (mix(k) as usize) & self.mask;
            let dist_home = i.wrapping_sub(home) & self.mask;
            let dist_hole = i.wrapping_sub(hole) & self.mask;
            if dist_home >= dist_hole {
                self.keys[hole] = k;
                self.values[hole] = self.values[i];
                hole = i;
            }
        }
        self.keys[hole] = EMPTY;
        self.values[hole] = V::default();
        Some(removed)
    }

    /// Doubles capacity and reinserts every live entry.
    #[cold]
    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let values = std::mem::replace(&mut self.values, vec![V::default(); cap]);
        self.mask = cap - 1;
        for (k, v) in keys.into_iter().zip(values) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.values[i] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirEntry;
    use crate::request::VersionToken;
    use mmm_workload::layout::LAST_LINE;

    /// Bytes one slot of `m` takes: its key and its value.
    fn slot_bytes<V>(m: &LineMap<V>) -> usize {
        std::mem::size_of_val(&m.keys[0]) + std::mem::size_of_val(&m.values[0])
    }

    #[test]
    fn directory_and_version_slots_are_twelve_bytes() {
        assert_eq!(slot_bytes(&LineMap::<DirEntry>::default()), 12);
        assert_eq!(slot_bytes(&LineMap::<VersionToken>::default()), 12);
    }

    #[test]
    fn keys_round_trip_up_to_the_last_line() {
        let mut m: LineMap<u64> = LineMap::with_capacity_pow2(16);
        let top = LAST_LINE.0;
        let lines: Vec<u64> = (0..64)
            .chain(top - 63..=top)
            .chain([EMPTY as u64 - 1])
            .collect();
        for &l in &lines {
            m.insert(LineAddr(l), !l);
        }
        assert_eq!(m.len(), lines.len());
        for &l in &lines {
            assert_eq!(m.get(LineAddr(l)), Some(&!l), "line {l:#x}");
        }
        for &l in &lines {
            assert_eq!(m.remove(LineAddr(l)), Some(!l), "line {l:#x}");
        }
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit line-map key")]
    fn the_sentinel_is_not_a_key() {
        LineMap::<u64>::default().insert(LineAddr(EMPTY as u64), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit line-map key")]
    fn lines_past_32_bits_are_refused() {
        LineMap::<u64>::default().get(LineAddr(1 << 32));
    }

    #[test]
    fn insert_get_remove() {
        let mut m: LineMap<u64> = LineMap::default();
        assert!(m.is_empty());
        m.insert(LineAddr(0x40), 7);
        m.insert(LineAddr(0x80), 8);
        assert_eq!(m.get(LineAddr(0x40)), Some(&7));
        assert_eq!(m.get(LineAddr(0x80)), Some(&8));
        assert_eq!(m.get(LineAddr(0xC0)), None);
        assert_eq!(m.remove(LineAddr(0x40)), Some(7));
        assert_eq!(m.get(LineAddr(0x40)), None);
        assert_eq!(m.get(LineAddr(0x80)), Some(&8));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut m: LineMap<u64> = LineMap::default();
        m.insert(LineAddr(1), 1);
        m.insert(LineAddr(1), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(LineAddr(1)), Some(&2));
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut m: LineMap<u32> = LineMap::default();
        *m.entry_or_default(LineAddr(5)) += 3;
        *m.entry_or_default(LineAddr(5)) += 4;
        assert_eq!(m.get(LineAddr(5)), Some(&7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: LineMap<u64> = LineMap::with_capacity_pow2(16);
        for i in 0..10_000u64 {
            m.insert(LineAddr(i * 64), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(LineAddr(i * 64)), Some(&i), "key {i}");
        }
    }

    #[test]
    fn removal_preserves_probe_chains() {
        // Heavy churn over a colliding key set exercises the
        // backward-shift path: correctness is checked against a
        // reference HashMap.
        use std::collections::HashMap;
        let mut m: LineMap<u64> = LineMap::with_capacity_pow2(16);
        let mut r: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..50_000 {
            // xorshift64 — deterministic mixed insert/remove pattern.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512; // small key space forces collisions
            if step % 3 == 2 {
                assert_eq!(m.remove(LineAddr(key)), r.remove(&key), "step {step}");
            } else {
                m.insert(LineAddr(key), step);
                r.insert(key, step);
            }
        }
        assert_eq!(m.len(), r.len());
        for (&k, &v) in &r {
            assert_eq!(m.get(LineAddr(k)), Some(&v));
        }
    }
}
