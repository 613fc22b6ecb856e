//! Golden-value regression pins.
//!
//! A cycle-level simulator's most dangerous failure mode is a silent
//! timing change: everything still "works", every trend test still
//! passes, but the numbers drifted and yesterday's calibration no
//! longer holds. These tests pin exact committed-instruction counts
//! for fixed `(configuration, seed, cycle-count)` triples, one per
//! scheduling mode.
//!
//! **If one of these fails after an intentional model change:** verify
//! the change, regenerate the pins
//! (`cargo run --release -p mmm-bench --example golden_gen`),
//! re-run the calibration probe (`... --example calib`) and re-derive
//! workload phase lengths if baseline IPC moved, update the values
//! below — and re-run the full evaluation suite so `results/` and
//! `EXPERIMENTS.md` stay truthful.

use mixed_mode_multicore::mmm::{MixedPolicy, System, Workload};
use mixed_mode_multicore::prelude::*;

/// The pinned `(user, os)` commit counts of one run. The run is made
/// twice, with cycle skipping on and off, and the two full reports
/// must be identical before the pin is read: every pin also holds
/// when every cycle is ticked.
fn commits(w: Workload, seed: u64, warmup: u64, measure: u64, timeslice: u64) -> (u64, u64) {
    let mut cfg = SystemConfig::default();
    cfg.virt.timeslice_cycles = timeslice;
    let run = |skipping: bool| {
        let mut sys = System::new(&cfg, w, seed).expect("valid workload");
        sys.set_cycle_skipping(skipping);
        let mut r = sys.run_measured(warmup, measure);
        r.wall_seconds = 0.0;
        r
    };
    let r = run(true);
    assert_eq!(
        run(false).to_json(),
        r.to_json(),
        "{}: ticking every cycle must not change the report",
        w.name()
    );
    (
        r.total_user_commits(),
        r.vcpus.iter().map(|v| v.os_commits).sum(),
    )
}

fn check(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: (user, os) commit counts drifted — if the model change \
         was intentional, regenerate with `cargo run --release -p \
         mmm-bench --example golden_gen`, update this pin, and re-run \
         the calibration + evaluation suite"
    );
}

#[test]
fn golden_no_dmr_2x_oltp() {
    check(
        "no_dmr_2x_oltp",
        commits(
            Workload::NoDmr2x(Benchmark::Oltp),
            1,
            100_000,
            400_000,
            3_000_000,
        ),
        (1_774_489, 245_282),
    );
}

#[test]
fn golden_reunion_apache() {
    check(
        "reunion_apache",
        commits(
            Workload::ReunionDmr(Benchmark::Apache),
            7,
            100_000,
            400_000,
            3_000_000,
        ),
        (395_359, 309_219),
    );
}

#[test]
fn golden_mmm_tp_pmake() {
    check(
        "mmm_tp_pmake",
        commits(
            Workload::Consolidated {
                bench: Benchmark::Pmake,
                policy: MixedPolicy::MmmTp,
            },
            3,
            100_000,
            500_000,
            150_000,
        ),
        (2_021_074, 198_726),
    );
}

#[test]
fn golden_single_os_zeus() {
    check(
        "single_os_zeus",
        commits(
            Workload::SingleOsMixed(Benchmark::Zeus),
            11,
            100_000,
            400_000,
            3_000_000,
        ),
        (258_596, 384_655),
    );
}

#[test]
fn golden_overcommit_pgoltp() {
    check(
        "overcommit_pgoltp",
        commits(
            Workload::Overcommitted {
                bench: Benchmark::Pgoltp,
                reliable: 3,
                perf: 12,
            },
            5,
            100_000,
            400_000,
            200_000,
        ),
        (1_350_006, 174_326),
    );
}
