//! Table 1: mixed-mode switching overheads (cycles).
//!
//! Measures the average per-VCPU cost of entering and leaving DMR mode
//! under MMM-TP — the policy with the highest overhead, because
//! leaving DMR must flush the mute's L2 of incoherent lines one line
//! per cycle (paper §3.4.3, §5.3).
//!
//! Paper values: Enter DMR ≈ 2.2–2.4 k cycles for all benchmarks;
//! Leave DMR ≈ 9.9–10.4 k cycles (the 8 k-cycle flush walk dominates).

use mmm_bench::export::{json_mode, traced_run, JsonExport};
use mmm_bench::{banner, experiment_sized};
use mmm_core::report::{fmt_cycles, print_table};
use mmm_core::{MixedPolicy, Workload};
use mmm_workload::Benchmark;

fn main() {
    let mut e = experiment_sized(600_000, 2_400_000);
    // Shorter timeslices gather more switch samples per simulated
    // cycle without changing per-switch cost.
    e.cfg.virt.timeslice_cycles = 150_000;
    let json = json_mode();
    if !json {
        banner("Table 1 (mode-switch overheads, MMM-TP)", &e);
    }

    let workloads: Vec<Workload> = Benchmark::all()
        .into_iter()
        .map(|bench| Workload::Consolidated {
            bench,
            policy: MixedPolicy::MmmTp,
        })
        .collect();
    let runs = e.run_many(&workloads).expect("table1 runs");
    if json {
        let mut export = JsonExport::new("table1");
        for run in &runs {
            export.add(run);
        }
        let mut trace_cfg = e.cfg.clone();
        trace_cfg.virt.timeslice_cycles = 30_000;
        export.finish(&traced_run(
            &trace_cfg,
            Workload::Consolidated {
                bench: Benchmark::Pmake,
                policy: MixedPolicy::MmmTp,
            },
            1,
            None,
            e.forensics,
        ));
        return;
    }

    let mut rows = Vec::new();
    for run in &runs {
        let enter = run.metric(|r| r.transitions.enter.mean());
        let leave = run.metric(|r| r.transitions.leave.mean());
        let samples: u64 = run
            .reports
            .iter()
            .map(|r| r.transitions.enter.count())
            .sum();
        rows.push(vec![
            run.workload.benchmark().name().to_string(),
            fmt_cycles(enter.0),
            fmt_cycles(leave.0),
            samples.to_string(),
        ]);
    }
    print_table(
        "Table 1: mixed-mode switching overheads in cycles (paper: enter ~2.2-2.4k, leave ~9.9-10.4k)",
        &["bench", "Enter DMR", "Leave DMR", "samples"],
        &rows,
    );
}
