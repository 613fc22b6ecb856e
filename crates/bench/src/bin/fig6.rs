//! Figure 6: mixed-mode performance on a consolidated server.
//!
//! One reliable guest VM (8 VCPUs) and one performance guest run the
//! same application, gang-scheduled with 1 ms timeslices, under three
//! policies:
//!
//! * `DMR Base` — both guests always redundant (the baseline, 1.0);
//! * `MMM-IPC` — the performance guest runs one VCPU per vocal core
//!   with the mutes idle (paper: perf-guest IPC +25–85%; reliable
//!   guest ≈ unchanged, pgoltp −6.5% from L3 displacement);
//! * `MMM-TP` — two co-scheduled 8-VCPU performance guests use all 16
//!   cores (paper: perf IPC +24–67%; perf throughput 2.4–3.6×;
//!   machine throughput 1.7–2.3×).
//!
//! **6(a)** prints per-thread user IPC per guest, normalized to the
//! same guest under `DMR Base`; **6(b)** prints throughput similarly.

use mmm_bench::export::{json_mode, traced_run, JsonExport};
use mmm_bench::{banner, experiment_sized, norm};
use mmm_core::report::{fmt_ci, print_table};
use mmm_core::{MixedPolicy, RunResult, Workload};
use mmm_types::VmId;
use mmm_workload::Benchmark;

/// Sums the performance guests' (VM 1, and VM 2 under MMM-TP)
/// throughput.
fn perf_tp(r: &RunResult) -> (f64, f64) {
    r.metric(|x| (x.vm_user_commits(VmId(1)) + x.vm_user_commits(VmId(2))) as f64 / x.cycles as f64)
}

/// Average per-thread IPC across the performance guests' VCPUs.
fn perf_ipc(r: &RunResult) -> (f64, f64) {
    r.metric(|x| {
        let vcpus: Vec<_> = x
            .vcpus
            .iter()
            .filter(|v| v.vm == VmId(1) || v.vm == VmId(2))
            .collect();
        if vcpus.is_empty() || x.cycles == 0 {
            return 0.0;
        }
        vcpus
            .iter()
            .map(|v| v.user_commits as f64 / x.cycles as f64)
            .sum::<f64>()
            / vcpus.len() as f64
    })
}

fn main() {
    // Gang timeslices scaled to 1.5 M cycles (the paper uses 3 M =
    // 1 ms): still >100x the per-slice transition cost, while letting
    // the measured window cover several slice pairs.
    let mut e = experiment_sized(1_500_000, 6_000_000);
    e.cfg.virt.timeslice_cycles = 1_500_000;
    let json = json_mode();
    if !json {
        banner("Figure 6 (mixed-mode consolidated server)", &e);
    }

    let mut export = JsonExport::new("fig6");
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    for bench in Benchmark::all() {
        let mk = |policy| Workload::Consolidated { bench, policy };
        let runs = e
            .run_many(&[
                mk(MixedPolicy::DmrBase),
                mk(MixedPolicy::MmmIpc),
                mk(MixedPolicy::MmmTp),
            ])
            .expect("fig6 runs");
        if json {
            for run in &runs {
                export.add(run);
            }
        }
        let (base, ipc, tp) = (&runs[0], &runs[1], &runs[2]);

        // 6(a): per-thread IPC per guest, normalized to DMR Base.
        let rel_base = base.vm_ipc(VmId(0)).0;
        let perf_base = perf_ipc(base).0;
        let rel_ipc = norm(ipc.vm_ipc(VmId(0)), rel_base);
        let rel_tp_ = norm(tp.vm_ipc(VmId(0)), rel_base);
        let pf_ipc = norm(perf_ipc(ipc), perf_base);
        let pf_tp = norm(perf_ipc(tp), perf_base);
        rows_a.push(vec![
            bench.name().to_string(),
            "1.000 / 1.000".to_string(),
            format!(
                "{} / {}",
                fmt_ci(rel_ipc.0, rel_ipc.1),
                fmt_ci(pf_ipc.0, pf_ipc.1)
            ),
            format!(
                "{} / {}",
                fmt_ci(rel_tp_.0, rel_tp_.1),
                fmt_ci(pf_tp.0, pf_tp.1)
            ),
        ]);

        // 6(b): throughput per guest and overall, normalized to DMR Base.
        let rel_tp_base = base.vm_throughput(VmId(0)).0;
        let perf_tp_base = perf_tp(base).0;
        let total_base = base.throughput().0;
        let pf1 = norm(perf_tp(ipc), perf_tp_base);
        let pf2 = norm(perf_tp(tp), perf_tp_base);
        let rl1 = norm(ipc.vm_throughput(VmId(0)), rel_tp_base);
        let rl2 = norm(tp.vm_throughput(VmId(0)), rel_tp_base);
        let ov1 = norm(ipc.throughput(), total_base);
        let ov2 = norm(tp.throughput(), total_base);
        rows_b.push(vec![
            bench.name().to_string(),
            format!("{} / {}", fmt_ci(rl1.0, rl1.1), fmt_ci(pf1.0, pf1.1)),
            format!("{} / {}", fmt_ci(rl2.0, rl2.1), fmt_ci(pf2.0, pf2.1)),
            format!("{} | {}", fmt_ci(ov1.0, ov1.1), fmt_ci(ov2.0, ov2.1)),
        ]);
    }

    if json {
        // A short timeslice makes gang switches (and their mode
        // transitions) visible inside the short traced horizon.
        let mut trace_cfg = e.cfg.clone();
        trace_cfg.virt.timeslice_cycles = 30_000;
        export.finish(&traced_run(
            &trace_cfg,
            Workload::Consolidated {
                bench: Benchmark::Oltp,
                policy: MixedPolicy::MmmTp,
            },
            1,
            None,
            e.forensics,
        ));
        return;
    }
    print_table(
        "Figure 6(a): per-thread user IPC, reliable / performance guest, normalized to DMR Base \
         (paper: MMM-IPC perf +25-85%, MMM-TP perf +24-67%, reliable ~1.0)",
        &["bench", "DMR Base", "MMM-IPC rel/perf", "MMM-TP rel/perf"],
        &rows_a,
    );
    print_table(
        "Figure 6(b): throughput normalized to DMR Base (paper: MMM-TP perf VM 2.4-3.6x, overall 1.7-2.3x)",
        &["bench", "MMM-IPC rel/perf", "MMM-TP rel/perf", "overall IPC | TP"],
        &rows_b,
    );
}
