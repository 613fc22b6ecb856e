//! Figure 5: the overhead of dual redundancy.
//!
//! Reproduces both panels for all six workloads:
//!
//! * **5(a)** — normalized per-thread user IPC of `No DMR 2X`
//!   (16 VCPUs / 16 cores), `No DMR` (8 VCPUs / 8 cores), and
//!   `Reunion` (8 VCPUs run redundantly across 16 cores), normalized
//!   to `No DMR 2X`. Paper: `No DMR` 8–15% above 1.0; `Reunion`
//!   22–48% below.
//! * **5(b)** — normalized machine throughput. Paper: `No DMR` ≈ 0.5;
//!   `Reunion` ≈ 0.25–0.33.
//!
//! `--diagnostics` prints the §5.1 breakdown behind the figure:
//! window-full cycles, SI fetch stalls (15–46% of cycles under
//! Reunion), and C2C transfer growth (+20–50%; pmake from a tiny
//! base). `--json` emits JSONL reports and a Perfetto trace instead of
//! the tables (see [`mmm_bench::export`]).

use mmm_bench::export::{json_mode, traced_run, JsonExport};
use mmm_bench::{banner, experiment_sized, norm};
use mmm_core::report::{fmt_ci, print_table};
use mmm_core::{RunResult, Workload};
use mmm_workload::Benchmark;

fn main() {
    let diagnostics = std::env::args().any(|a| a == "--diagnostics");
    let json = json_mode();
    let e = experiment_sized(2_000_000, 4_000_000);
    if !json {
        banner("Figure 5 (DMR overhead)", &e);
    }

    let mut export = JsonExport::new("fig5");
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut rows_d = Vec::new();
    for bench in Benchmark::all() {
        let runs = e
            .run_many(&[
                Workload::NoDmr2x(bench),
                Workload::NoDmr(bench),
                Workload::ReunionDmr(bench),
            ])
            .expect("fig5 runs");
        if json {
            for run in &runs {
                export.add(run);
            }
        }
        let (r2x, rno, rre) = (&runs[0], &runs[1], &runs[2]);
        let base_ipc = r2x.avg_user_ipc().0;
        let base_tp = r2x.throughput().0;

        let ipc_no = norm(rno.avg_user_ipc(), base_ipc);
        let ipc_re = norm(rre.avg_user_ipc(), base_ipc);
        rows_a.push(vec![
            bench.name().to_string(),
            "1.000".to_string(),
            fmt_ci(ipc_no.0, ipc_no.1),
            fmt_ci(ipc_re.0, ipc_re.1),
        ]);

        let tp_no = norm(rno.throughput(), base_tp);
        let tp_re = norm(rre.throughput(), base_tp);
        rows_b.push(vec![
            bench.name().to_string(),
            "1.000".to_string(),
            fmt_ci(tp_no.0, tp_no.1),
            fmt_ci(tp_re.0, tp_re.1),
        ]);

        if diagnostics {
            let wf = |r: &RunResult| r.metric(|x| x.window_full_fraction()).0;
            let si = |r: &RunResult| r.metric(|x| x.si_stall_fraction()).0;
            let c2c = |r: &RunResult| r.metric(|x| x.c2c_per_kilo_instr()).0;
            let c2c_base = c2c(rno);
            rows_d.push(vec![
                bench.name().to_string(),
                format!("{:.3} -> {:.3}", wf(rno), wf(rre)),
                format!("{:.3} -> {:.3}", si(rno), si(rre)),
                format!(
                    "{:.1} -> {:.1} ({:+.0}%)",
                    c2c_base,
                    c2c(rre),
                    if c2c_base > 0.0 {
                        (c2c(rre) / c2c_base - 1.0) * 100.0
                    } else {
                        0.0
                    }
                ),
            ]);
        }
    }

    if json {
        export.finish(&traced_run(
            &e.cfg,
            Workload::ReunionDmr(Benchmark::Oltp),
            1,
            None,
            e.forensics,
        ));
        return;
    }
    print_table(
        "Figure 5(a): normalized per-thread user IPC (paper: No DMR 1.08-1.15, Reunion 0.52-0.78)",
        &["bench", "No DMR 2X", "No DMR", "Reunion"],
        &rows_a,
    );
    print_table(
        "Figure 5(b): normalized throughput (paper: No DMR ~0.5, Reunion 0.25-0.33)",
        &["bench", "No DMR 2X", "No DMR", "Reunion"],
        &rows_b,
    );
    if diagnostics {
        print_table(
            "5.1 diagnostics: No DMR -> Reunion (paper: window-full ~2x, SI stalls 15-46% under Reunion, C2C +20-50%)",
            &["bench", "window-full frac", "SI-stall frac", "C2C/kilo-instr"],
            &rows_d,
        );
    }
}
