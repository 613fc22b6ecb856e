//! The event wheel is a pure throughput knob: jumping the clock to
//! the next scheduled wake source — including fault arrivals and
//! single-OS trap polls, which the pre-wheel fast-forward could not
//! skip over — must leave every report and every recorded metrics
//! series bit-identical to ticking every cycle.

use mixed_mode_multicore::mmm::{Experiment, MixedPolicy, Workload};
use mixed_mode_multicore::prelude::*;

fn canonical_json(mut r: mixed_mode_multicore::mmm::SystemReport) -> String {
    r.wall_seconds = 0.0;
    r.to_json()
}

#[test]
fn event_wheel_is_a_pure_throughput_knob_under_injection() {
    let mut e = Experiment::default();
    e.cfg.virt.timeslice_cycles = 120_000;
    e.warmup = 20_000;
    e.measure = 150_000;
    e.seeds = vec![7];
    // Fault injection plus the flight recorder: the two subsystems the
    // wheel newly has to coordinate with (arrival events, interval
    // boundaries).
    e.fault_rate = Some(1e-5);
    e.sample_interval = Some(25_000);
    let modes = [
        Workload::ReunionDmr(Benchmark::Apache),
        Workload::Consolidated {
            bench: Benchmark::Apache,
            policy: MixedPolicy::MmmTp,
        },
        Workload::SingleOsMixed(Benchmark::Apache),
    ];

    // Baseline: cycle skipping on (the default).
    let baseline: Vec<(String, _)> = modes
        .iter()
        .map(|&w| {
            let mut r = e.run_one(w, 7).unwrap();
            let series = r.series.take().expect("sampler attached");
            (canonical_json(r), series)
        })
        .collect();

    // Skip machinery fully off: same reports, same series (the wheel
    // only ever picks the *next* cycle to simulate; simulated cycles
    // are identical).
    let mut noskip = e.clone();
    noskip.cycle_skipping = false;
    for (&w, (json, series)) in modes.iter().zip(&baseline) {
        let mut r = noskip.run_one(w, 7).unwrap();
        assert_eq!(
            r.series.take().as_ref(),
            Some(series),
            "{}: series must be skip-invariant",
            w.name()
        );
        assert_eq!(
            &canonical_json(r),
            json,
            "{}: skip-off must not change the report",
            w.name()
        );
    }
}

/// Pre-drawn geometric fault arrivals drive a whole system at the
/// configured rate: the injected count matches the analytic
/// expectation, and on a fully paired machine the detected count
/// tracks it. (The gap distribution itself is checked against
/// per-cycle Bernoulli trials by the `mmm-core` fault unit tests.)
#[test]
fn geometric_arrivals_match_bernoulli_statistics() {
    use mixed_mode_multicore::mmm::System;

    let cfg = SystemConfig::default();
    let w = Workload::ReunionDmr(Benchmark::Oltp);
    let (warmup, measure) = (20_000u64, 400_000u64);
    let rate = 1e-4;

    let mut injected = 0;
    let mut detected = 0;
    for seed in [1, 2, 3] {
        let mut sys = System::new(&cfg, w, seed).unwrap();
        sys.enable_fault_injection(rate, seed ^ 0xF417);
        let r = sys.run_measured(warmup, measure);
        injected += r.faults.injected;
        detected += r.faults.detected_by_dmr;
    }

    // ~1920 expected arrivals: sqrt-noise is ~2.3%, so a 15% gate is
    // far outside chance but catches any systematic skew
    // (off-by-one-cycle rates, double-draws, missed redraws).
    let expected = rate * cfg.cores as f64 * measure as f64 * 3.0;
    let within = |got: u64, want: f64, what: &str| {
        let rel = (got as f64 - want).abs() / want;
        assert!(
            rel < 0.15,
            "{what}: {got} vs expected {want:.0} ({:.1}% off)",
            rel * 100.0
        );
    };
    within(injected, expected, "injected");
    // Every core is half of a busy DMR pair in this workload, so
    // detection tracks injection.
    within(detected, injected as f64, "detected");
}
