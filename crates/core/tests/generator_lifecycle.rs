//! Dropping a `System` joins its op generator thread: building and
//! dropping many machines, some mid-run, leaves the process's thread
//! count where it was. A test binary of its own, so no other test's
//! threads come and go while it counts.
#![cfg(target_os = "linux")]

use std::time::Duration;

use mmm_core::{System, Workload};
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

/// The thread count once it is back at `target`, or after a second.
/// The kernel still counts a thread for a moment after `join` has
/// returned, until it has finished exiting; a leaked thread never
/// stops being counted.
fn settled_threads(target: u64) -> u64 {
    for _ in 0..1000 {
        if threads() <= target {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    threads()
}

#[test]
fn dropped_systems_leave_no_thread_behind() {
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::default()
    };
    let workloads = [
        Workload::NoDmr2x(Benchmark::Pmake),
        Workload::ReunionDmr(Benchmark::Oltp),
        Workload::SingleOsMixed(Benchmark::Apache),
    ];
    // The first machine of each benchmark builds its power-law tables
    // on helper threads that `System::new` joins, but that the kernel
    // may still count for a moment. Build those tables first and let
    // the count settle, so `before` counts only this test's baseline.
    let start = threads();
    for w in &workloads {
        drop(System::new(&cfg, *w, 1).unwrap());
    }
    let before = settled_threads(start);
    let live: Vec<System> = workloads
        .iter()
        .map(|w| System::new(&cfg, *w, 1).unwrap())
        .collect();
    assert_eq!(threads(), before + 3, "one generator thread per machine");
    drop(live);
    for i in 0..200u64 {
        let workload = workloads[i as usize % workloads.len()];
        let mut sys = System::new(&cfg, workload, i).unwrap();
        if i % 4 == 0 {
            sys.run(500);
        }
    }
    assert_eq!(settled_threads(before), before);
}
