//! Golden-file test of the Chrome trace export.
//!
//! A short deterministic run of the consolidated server is traced and
//! rendered through [`mmm_trace::chrome_trace`]; the result must match
//! the checked-in `tests/data/trace_golden.json` byte for byte. This
//! pins the whole observability pipeline — event emission sites, ring
//! ordering, and the JSON serializer — so accidental drift in any layer
//! shows up in CI.
//!
//! After an *intentional* change to the trace format or the emission
//! sites, regenerate the golden file:
//!
//! ```text
//! MMM_BLESS=1 cargo test --release --test trace_export
//! ```

use mmm_core::{MixedPolicy, System, Workload};
use mmm_trace::{chrome_trace, Tracer};
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/trace_golden.json");

/// A short consolidated-server run with fast gang switching, so the
/// trace exercises installs, evictions, mode transitions, SI stalls,
/// and phase boundaries inside a small horizon. The run is made with
/// cycle skipping on and off, and the two traces must be identical.
fn build_trace() -> String {
    let mut cfg = SystemConfig::default();
    cfg.virt.timeslice_cycles = 5_000;
    let run = |skipping: bool| {
        let mut sys = System::new(
            &cfg,
            Workload::Consolidated {
                bench: Benchmark::Oltp,
                policy: MixedPolicy::MmmIpc,
            },
            1,
        )
        .expect("golden trace system builds");
        sys.set_cycle_skipping(skipping);
        sys.attach_tracer(Tracer::ring(1 << 14));
        sys.run(12_000);
        chrome_trace(&sys.tracer().snapshot(), 16, sys.now())
    };
    let trace = run(true);
    assert!(
        run(false) == trace,
        "ticking every cycle must not change the trace"
    );
    trace
}

#[test]
fn trace_json_matches_golden() {
    let got = build_trace();
    if std::env::var("MMM_BLESS").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect(
        "tests/data/trace_golden.json missing — regenerate with \
         MMM_BLESS=1 cargo test --release --test trace_export",
    );
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "trace.json drifted from golden (got {} bytes, want {}, first \
             difference at byte {at}):\n  got:  ...{}\n  want: ...{}\n\
             If the change is intentional, regenerate with \
             MMM_BLESS=1 cargo test --release --test trace_export",
            got.len(),
            want.len(),
            &got[lo..(at + 80).min(got.len())],
            &want[lo..(at + 80).min(want.len())],
        );
    }
}

/// Tracing must be purely observational: a traced run and an untraced
/// run of the same seed produce bit-identical measurements.
#[test]
fn tracing_does_not_change_timing() {
    let cfg = SystemConfig::default();
    let w = Workload::Consolidated {
        bench: Benchmark::Apache,
        policy: MixedPolicy::MmmTp,
    };
    let run = |traced: bool| {
        let mut sys = System::new(&cfg, w, 5).unwrap();
        if traced {
            sys.attach_tracer(Tracer::ring(4096));
        }
        let r = sys.run_measured(10_000, 60_000);
        (
            r.total_user_commits(),
            r.cores.si_stall_cycles,
            r.mem.c2c_transfers,
            r.pairs.ops_compared,
        )
    };
    assert_eq!(run(false), run(true), "tracing altered simulated timing");
}

/// The self-profiler obeys the same "free when off, observational
/// when on" discipline as tracing: a profiled run and an unprofiled
/// run of the same seed produce bit-identical measurements (the
/// profiler reads only the host clock), and the profiled run carries
/// a phase attribution that tiles the measured window exactly.
#[test]
fn profiling_does_not_change_timing() {
    use mmm_trace::Profiler;

    let cfg = SystemConfig::default();
    let w = Workload::Consolidated {
        bench: Benchmark::Apache,
        policy: MixedPolicy::MmmTp,
    };
    let run = |profiled: bool| {
        let mut sys = System::new(&cfg, w, 5).unwrap();
        if profiled {
            sys.attach_profiler(Profiler::enabled());
        }
        let r = sys.run_measured(10_000, 60_000);
        if profiled {
            let prof = r.profile.as_ref().expect("profiled run has a profile");
            let nanos_sum: u64 = prof.phase_nanos.iter().map(|&(_, n)| n).sum();
            assert_eq!(nanos_sum, prof.total_nanos, "phases tile the window");
            assert!(prof.total_nanos > 0, "a measured window took host time");
            assert_eq!(prof.advanced_cycles, 60_000, "every cycle accounted");
        } else {
            assert!(r.profile.is_none(), "no profile without a profiler");
        }
        (
            r.total_user_commits(),
            r.cores.si_stall_cycles,
            r.mem.c2c_transfers,
            r.pairs.ops_compared,
        )
    };
    assert_eq!(run(false), run(true), "profiling altered simulated timing");
}

#[test]
fn trace_has_the_expected_shape() {
    let got = build_trace();
    assert!(got.starts_with("{\"traceEvents\":["));
    assert!(got.ends_with("\"displayTimeUnit\":\"ns\"}"));
    // Mode slices for the DMR guest and the performance guest both
    // appear, as do gang-switch transition slices.
    assert!(got.contains("\"dmr-vocal V0\""), "DMR mode track");
    assert!(got.contains("\"perf V"), "performance mode track");
    assert!(got.contains("\"leave_dmr\""), "transition slices");
    assert!(got.contains("\"thread_name\""), "track metadata");
}
