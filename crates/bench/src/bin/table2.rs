//! Table 2: cycles before switching modes in a single-OS system.
//!
//! Runs each workload on the baseline non-DMR system and measures the
//! average number of cycles a thread spends in user mode before
//! entering the OS, and in the OS before returning — the switch
//! frequency that bounds single-OS mixed-mode overhead (paper §5.3).
//!
//! Paper values (user / OS cycles): Apache 59k/98k, OLTP 218k/52k,
//! pgoltp 210k/35k, pmake 312k/47k, pgbench 554k/126k, Zeus 65k/220k.
//!
//! The last column reproduces the paper's bottom-line estimate: with
//! ~13 k cycles of switch cost per user↔OS round trip (Table 1-style
//! enter+leave without the MMM-TP flush being charged twice), the
//! expected overhead of single-OS mixed-mode operation — ~8% for
//! Apache, <5% for the rest.

use mmm_bench::export::{json_mode, traced_run, JsonExport};
use mmm_bench::{banner, experiment_sized};
use mmm_core::report::{fmt_cycles, print_table};
use mmm_core::Workload;
use mmm_workload::Benchmark;

/// Paper Table 2 values for side-by-side comparison.
const PAPER: [(&str, f64, f64); 6] = [
    ("Apache", 59e3, 98e3),
    ("OLTP", 218e3, 52e3),
    ("pgoltp", 210e3, 35e3),
    ("pmake", 312e3, 47e3),
    ("pgbench", 554e3, 126e3),
    ("Zeus", 65e3, 220e3),
];

fn main() {
    // Long phases (pgbench: ~700k-cycle round trips) need long runs
    // for unbiased phase sampling.
    let e = experiment_sized(1_500_000, 6_000_000);
    let json = json_mode();
    if !json {
        banner("Table 2 (single-OS switch frequency, baseline non-DMR)", &e);
    }

    let workloads: Vec<Workload> = Benchmark::all().into_iter().map(Workload::NoDmr).collect();
    let runs = e.run_many(&workloads).expect("table2 runs");
    if json {
        let mut export = JsonExport::new("table2");
        for run in &runs {
            export.add(run);
        }
        // The trace shows the system Table 2 projects: per-syscall
        // Enter/Leave-DMR on the single-OS machine.
        export.finish(&traced_run(
            &e.cfg,
            Workload::SingleOsMixed(Benchmark::Apache),
            1,
            None,
            e.forensics,
        ));
        return;
    }

    let mut rows = Vec::new();
    for (run, (pname, puser, pos)) in runs.iter().zip(PAPER) {
        assert_eq!(run.workload.benchmark().name(), pname);
        let user = run.metric(|r| r.phase_user_mean);
        let os = run.metric(|r| r.phase_os_mean);
        // §5.3 estimate: a full enter+leave costs ~13k cycles.
        let switch_cost = 13_000.0;
        let overhead = switch_cost / (user.0 + os.0 + switch_cost) * 100.0;
        rows.push(vec![
            pname.to_string(),
            format!("{} (paper {})", fmt_cycles(user.0), fmt_cycles(puser)),
            format!("{} (paper {})", fmt_cycles(os.0), fmt_cycles(pos)),
            format!("{overhead:.1}%"),
        ]);
    }
    print_table(
        "Table 2: cycles before switching modes (paper: <8% projected single-OS overhead)",
        &[
            "bench",
            "User cycles",
            "OS cycles",
            "projected switch overhead",
        ],
        &rows,
    );
}
