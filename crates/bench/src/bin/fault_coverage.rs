//! Fault-coverage study (extension).
//!
//! The paper argues — but never measures — that an MMM contains every
//! fault that matters: DMR detects faults striking reliable
//! execution; the PAB blocks performance-mode wild stores aimed at
//! reliable memory; Enter-DMR verification catches privileged-state
//! corruption; and faults confined to the performance domain are
//! tolerated by contract. This harness measures that claim across
//! four orders of magnitude of fault rate on the MMM-TP consolidated
//! server.

use mmm_bench::export::{json_mode, traced_run, JsonExport};
use mmm_bench::{banner, experiment_sized};
use mmm_core::fault::CampaignTelemetry;
use mmm_core::report::print_table;
use mmm_core::{MixedPolicy, Workload};
use mmm_workload::Benchmark;

fn main() {
    let mut e = experiment_sized(500_000, 3_000_000);
    e.cfg.virt.timeslice_cycles = 300_000;
    let json = json_mode();
    if !json {
        banner("Fault coverage (extension)", &e);
    }
    let bench = Benchmark::Pgoltp;

    let mut export = JsonExport::new("fault_coverage");
    let mut rows = Vec::new();
    let mut site_rows = Vec::new();
    for rate in [1e-7, 1e-6, 1e-5, 5e-5] {
        let mut er = e.clone();
        er.fault_rate = Some(rate);
        let run = er
            .run_workload(Workload::Consolidated {
                bench,
                policy: MixedPolicy::MmmTp,
            })
            .expect("fault run");
        if json {
            export.add(&run);
        }
        // Sum outcomes across seeds.
        let mut injected = 0u64;
        let mut dmr = 0u64;
        let mut blocked = 0u64;
        let mut perf_dom = 0u64;
        let mut caught = 0u64;
        let mut idle = 0u64;
        let mut rel_tp = 0.0;
        for r in &run.reports {
            injected += r.faults.injected;
            dmr += r.faults.detected_by_dmr;
            blocked += r.faults.wild_stores_blocked;
            perf_dom += r.faults.wild_stores_corrupting + r.faults.silent_perf_faults;
            caught += r.faults.privreg_caught_at_entry;
            idle += r.faults.on_idle_core;
            rel_tp += r.vm_user_commits(mmm_types::VmId(0)) as f64 / r.cycles as f64;
        }
        rel_tp /= run.reports.len() as f64;
        // Campaign telemetry, merged across seeds.
        let mut tel = CampaignTelemetry::default();
        for r in &run.reports {
            if let Some(t) = &r.fault_telemetry {
                tel.merge(t);
            }
        }
        for (site, s) in tel.sites() {
            let lat = &s.detection_latency;
            site_rows.push(vec![
                format!("{rate:.0e}"),
                site.label().to_string(),
                s.injected.to_string(),
                s.detected.to_string(),
                s.masked.to_string(),
                s.escaped.to_string(),
                if lat.count() > 0 {
                    format!("{:.0}", lat.mean())
                } else {
                    "-".to_string()
                },
                if lat.count() > 0 {
                    lat.percentile(99.0).to_string()
                } else {
                    "-".to_string()
                },
            ]);
        }
        let escapes = injected - dmr - blocked - perf_dom - caught - idle;
        rows.push(vec![
            format!("{rate:.0e}"),
            injected.to_string(),
            dmr.to_string(),
            blocked.to_string(),
            caught.to_string(),
            perf_dom.to_string(),
            idle.to_string(),
            escapes.to_string(),
            format!("{rel_tp:.3}"),
        ]);
    }
    if json {
        let mut trace_cfg = e.cfg.clone();
        trace_cfg.virt.timeslice_cycles = 30_000;
        export.finish(&traced_run(
            &trace_cfg,
            Workload::Consolidated {
                bench,
                policy: MixedPolicy::MmmTp,
            },
            1,
            Some(1e-5),
            e.forensics,
        ));
        return;
    }
    print_table(
        "Fault outcomes on MMM-TP (pgoltp). 'pending' = privreg arms awaiting the next \
         DMR-entry verification; 'perf-domain' faults are tolerated by contract.",
        &[
            "rate/core/cyc",
            "injected",
            "DMR-detect",
            "PAB-block",
            "verify-catch",
            "perf-domain",
            "idle",
            "pending",
            "reliable VM TP",
        ],
        &rows,
    );
    print_table(
        "Per-site campaign telemetry (merged across seeds). 'detected' counts every \
         hardware catch; latency is injection-to-detection in cycles, attributable \
         detections only.",
        &[
            "rate/core/cyc",
            "site",
            "injected",
            "detected",
            "masked",
            "escaped",
            "lat mean",
            "lat p99",
        ],
        &site_rows,
    );
    println!(
        "\nThe invariant to check: no row ever attributes a fault to reliable-domain \
         corruption — every injected fault is detected, blocked, caught at \
         verification, confined to the performance domain, or struck an idle core. \
         The reliable VM's throughput column shows protection does not erode under \
         rising fault rates (recoveries cost cycles, silently losing data never \
         happens)."
    );
}
