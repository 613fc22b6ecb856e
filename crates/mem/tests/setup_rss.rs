//! Building a memory system writes none of its cache arrays: they are
//! zeroed allocations, so their pages become resident only when a run
//! first touches them. A test binary of its own, so no other test's
//! allocations move the resident set while it measures.
#![cfg(target_os = "linux")]

use std::hint::black_box;

use mmm_mem::MemorySystem;
use mmm_types::SystemConfig;

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
    let cfg = SystemConfig::default();
    // 16 bytes per way and 8 per set's recency word.
    let bytes = |g: mmm_types::config::CacheGeometry| g.lines() * 16 + g.sets() * 8;
    let m = &cfg.mem;
    let arrays = cfg.cores as u64 * (bytes(m.l1i) + bytes(m.l1d) + bytes(m.l2)) + bytes(m.l3);
    assert!(arrays > 4 << 20, "the arrays are {arrays} bytes");
    let before = rss_kib();
    let mem = MemorySystem::new(&cfg);
    let grown = rss_kib().saturating_sub(before);
    black_box(&mem);
    assert!(
        grown < 1024,
        "building {} KiB of cache arrays made {grown} KiB resident",
        arrays >> 10
    );
}
