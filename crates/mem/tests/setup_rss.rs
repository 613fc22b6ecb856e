//! Building a memory system writes none of its cache arrays: they are
//! zeroed allocations, so their pages become resident only when a run
//! first touches them. And a full L3 costs 8 bytes a way: it keeps no
//! versions. A test binary of its own, whose tests take turns, so no
//! other test's allocations move the resident set while one measures.
//! Neither test frees what it measured: freeing a large block raises
//! the allocator's threshold for fresh mappings, and the other test's
//! arrays could then come from memory that is already resident.
#![cfg(target_os = "linux")]

use std::hint::black_box;
use std::sync::Mutex;

use mmm_mem::{CacheLine, MemorySystem, Mosi, SetAssocCache, TagWay};
use mmm_types::{LineAddr, SystemConfig};

/// Held by each test while it measures.
static MEASURING: Mutex<()> = Mutex::new(());

/// The `VmRSS:` line of `/proc/self/status`, in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("/proc/self/status has a VmRSS: line in kB")
}

#[test]
fn a_new_memory_system_leaves_its_cache_arrays_untouched() {
    let _turn = MEASURING.lock().unwrap();
    let cfg = SystemConfig::default();
    // At most 16 bytes per way, and 8 per set's recency word.
    let bytes = |g: mmm_types::config::CacheGeometry| g.lines() * 16 + g.sets() * 8;
    let m = &cfg.mem;
    let arrays = cfg.cores as u64 * (bytes(m.l1i) + bytes(m.l1d) + bytes(m.l2)) + bytes(m.l3);
    assert!(arrays > 4 << 20, "the arrays are {arrays} bytes");
    let before = rss_kib();
    let mem = MemorySystem::new(&cfg);
    let grown = rss_kib().saturating_sub(before);
    std::mem::forget(black_box(mem));
    assert!(
        grown < 1024,
        "building {} KiB of cache arrays made {grown} KiB resident",
        arrays >> 10
    );
}

#[test]
fn an_l3_with_a_line_in_every_set_holds_no_versions() {
    let _turn = MEASURING.lock().unwrap();
    let geom = SystemConfig::default().mem.l3;
    let before = rss_kib();
    let mut l3 = SetAssocCache::<TagWay>::new(geom);
    // One line per set touches every page of the ways array: 1 MiB of
    // 8-byte ways (2 MiB if each way kept a version beside its tag).
    for set in 0..geom.sets() {
        l3.insert(CacheLine {
            addr: LineAddr(set),
            state: Mosi::Modified,
            version: set,
            coherent: true,
        });
    }
    let grown = rss_kib().saturating_sub(before);
    assert_eq!(black_box(&l3).occupancy() as u64, geom.sets());
    std::mem::forget(l3);
    let ways_kib = (geom.lines() * 8) >> 10;
    assert!(
        (ways_kib * 3 / 4..1280).contains(&grown),
        "one line in each of {} sets made {grown} KiB resident ({ways_kib} KiB of ways)",
        geom.sets()
    );
}
