//! Each pair channel's record ring is sized from the core window so
//! that it never grows: a read reaches back only to the lower of the
//! two gates' commit heads. This runs the paired configurations of
//! `mmm-benchmark` at CI lengths and requires every ring of every
//! pair to have kept its first size.

use mixed_mode_multicore::mmm::{MixedPolicy, System, Workload};
use mixed_mode_multicore::prelude::*;

/// CI's run lengths (`MMM_WARMUP`, `MMM_MEASURE`).
const WARMUP: u64 = 20_000;
const MEASURE: u64 = 100_000;

/// The largest pair ring of a run of `workload` with `cfg`, seed 1,
/// and faults at `rate` (with the injector seed the benchmark uses).
fn widest_ring(cfg: &SystemConfig, workload: Workload, rate: Option<f64>) -> usize {
    let mut sys = System::new(cfg, workload, 1).unwrap();
    if let Some(rate) = rate {
        sys.enable_fault_injection(rate, 1 ^ 0xF417);
    }
    sys.run(WARMUP);
    sys.reset_measurement();
    sys.run(MEASURE);
    sys.pair_ring_records()
}

#[test]
fn no_pair_ring_grows_on_the_benchmark_configurations() {
    let window = SystemConfig::default().core.window_entries as usize;
    let size = (2 * window + 1).next_power_of_two();
    let mut runs = vec![
        // dmr_oltp_faults and singleos_apache.
        (
            SystemConfig::default(),
            Workload::ReunionDmr(Benchmark::Oltp),
            Some(1e-5),
        ),
        (
            SystemConfig::default(),
            Workload::SingleOsMixed(Benchmark::Apache),
            None,
        ),
    ];
    // campaign_sweep's paired cells, with faults (its 40 000-cycle
    // switch interval).
    let mut sweep = SystemConfig::default();
    sweep.virt.timeslice_cycles = 40_000;
    for b in Benchmark::all() {
        for w in [
            Workload::ReunionDmr(b),
            Workload::Consolidated {
                bench: b,
                policy: MixedPolicy::MmmIpc,
            },
            Workload::Consolidated {
                bench: b,
                policy: MixedPolicy::MmmTp,
            },
            Workload::SingleOsMixed(b),
        ] {
            runs.push((sweep.clone(), w, Some(1e-4)));
        }
    }
    for (cfg, workload, rate) in runs {
        assert_eq!(
            widest_ring(&cfg, workload, rate),
            size,
            "{} {rate:?}: a ring grew past {size} records",
            workload.name()
        );
    }
}
