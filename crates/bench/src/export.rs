//! Machine-readable run exports (the harness bins' `--json` mode).
//!
//! With `--json`, a bin suppresses its human-readable tables and
//! instead:
//!
//! * prints one JSON object per `(workload, seed)` report to stdout
//!   (JSONL — pipe into `scripts/validate_trace.py` or any analysis
//!   tool);
//! * writes the same lines to `results/<bin>.jsonl`;
//! * performs one short, deterministic traced run with the flight
//!   recorder attached and writes `results/<bin>.trace.json` in Chrome
//!   trace-event format (per-core mode/event timelines plus metrics
//!   counter tracks, viewable at <https://ui.perfetto.dev>) and
//!   `results/<bin>.metrics.jsonl`, the sampled metrics time-series;
//! * when the reports carry a self-profile (`MMM_PROFILE=1`), writes
//!   `results/<bin>.profile.jsonl`, one line per report, and
//!   `results/<bin>.speedscope.json`, one speedscope profile per run.

use std::fs;
use std::path::Path;

use mmm_core::{RunResult, System, Workload};
use mmm_trace::{
    chrome_trace_full, chrome_trace_with_counters, speedscope, Forensics, Json, ProfileReport,
    Sampler, Tracer, FORENSICS_WINDOW,
};
use mmm_types::SystemConfig;

/// True when the process was invoked with `--json`.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Ring capacity for traced runs: generously sized for the scheduling
/// and transition records of a short run; high-frequency filler (SI
/// stalls) overwrites oldest-first if it ever fills.
pub const TRACE_RING: usize = 1 << 16;

/// Cycle horizon of the deterministic traced run behind
/// `results/<bin>.trace.json`.
pub const TRACE_CYCLES: u64 = 150_000;

/// Flight-recorder cadence of the traced run: 10 k simulated cycles
/// per sample, 15 samples over [`TRACE_CYCLES`].
pub const SAMPLE_INTERVAL: u64 = 10_000;

/// The artifacts of one deterministic traced run.
pub struct TracedRun {
    /// Chrome trace-event document (mode timelines + counter tracks).
    pub trace_json: String,
    /// Sampled metrics time-series as JSONL.
    pub metrics_jsonl: String,
}

/// Runs `workload` from reset for [`TRACE_CYCLES`] cycles with tracing
/// and the flight recorder on, returning the Chrome trace-event
/// document (with metrics counter tracks appended) and the sampled
/// metrics time-series. Deterministic for a fixed `(cfg, workload,
/// seed, fault_rate, forensics)`.
///
/// With `forensics` (the caller's [`mmm_core::Experiment::forensics`])
/// the run also records fault lifecycles and appends one async
/// Perfetto span per fault (injection → verdict, colored by outcome)
/// to the trace. The spans are strictly appended after the base
/// events, so the forensics-off document is a byte-identical prefix.
pub fn traced_run(
    cfg: &SystemConfig,
    workload: Workload,
    seed: u64,
    fault_rate: Option<f64>,
    forensics: bool,
) -> TracedRun {
    let mut sys = System::new(cfg, workload, seed).expect("traced run builds");
    if let Some(rate) = fault_rate {
        sys.enable_fault_injection(rate, seed ^ 0xF417);
    }
    sys.attach_tracer(Tracer::ring(TRACE_RING));
    sys.attach_sampler(Sampler::every(SAMPLE_INTERVAL));
    if forensics {
        sys.attach_forensics(Forensics::enabled(cfg.cores as usize, FORENSICS_WINDOW));
    }
    sys.run(TRACE_CYCLES);
    let series = sys.sampler().series().expect("sampler attached");
    let trace_json = match sys.forensics().take_report() {
        Some(faults) => chrome_trace_full(
            &sys.tracer().snapshot(),
            cfg.cores as usize,
            sys.now(),
            &series,
            &faults.records,
        ),
        None => chrome_trace_with_counters(
            &sys.tracer().snapshot(),
            cfg.cores as usize,
            sys.now(),
            &series,
        ),
    };
    let metrics_jsonl = series.to_jsonl(workload.name(), workload.benchmark().name());
    TracedRun {
        trace_json,
        metrics_jsonl,
    }
}

/// Collects JSONL report lines and writes a bin's export artifacts.
pub struct JsonExport {
    name: &'static str,
    lines: Vec<String>,
    /// Forensics JSONL lines, collected from reports that carry a
    /// [`mmm_core::SystemReport::forensics`] section (i.e. runs under
    /// `MMM_FORENSICS=1`). Each report contributes one run-header line
    /// whose `run` index pairs it with the same-index line of the main
    /// JSONL, followed by one line per fault record.
    fault_lines: Vec<String>,
    /// Profile JSONL lines, one per report that carries a
    /// [`mmm_core::SystemReport::profile`] (runs under
    /// `MMM_PROFILE=1`): the report's `run` index and identity fields,
    /// and its profile as [`ProfileReport::to_json`] renders it.
    profile_lines: Vec<String>,
    /// The same profiles, named by run, for the speedscope document.
    profiles: Vec<(String, ProfileReport)>,
}

impl JsonExport {
    /// An empty export for the named bin.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            lines: Vec::new(),
            fault_lines: Vec::new(),
            profile_lines: Vec::new(),
            profiles: Vec::new(),
        }
    }

    /// Adds every per-seed report of a run as one JSONL line each,
    /// harvesting its forensics records and its profile (if any) into
    /// the side `*.faults.jsonl` and `*.profile.jsonl` streams.
    pub fn add(&mut self, run: &RunResult) {
        for r in &run.reports {
            let index = self.lines.len() as u64;
            if let Some(f) = &r.forensics {
                self.fault_lines
                    .extend(f.jsonl(index, r.config, r.benchmark, r.scheduler));
            }
            if let Some(p) = &r.profile {
                let line = Json::obj([
                    ("run", Json::U64(index)),
                    ("config", Json::str(r.config)),
                    ("benchmark", Json::str(r.benchmark)),
                    ("scheduler", Json::str(r.scheduler)),
                    ("threads", Json::U64(r.threads)),
                    ("cycles", Json::U64(r.cycles)),
                    ("profile", p.to_json()),
                ]);
                self.profile_lines.push(line.render());
                self.profiles.push((
                    format!("#{index} {} / {}", r.config, r.benchmark),
                    p.clone(),
                ));
            }
            self.lines.push(r.to_json());
        }
    }

    /// Prints the collected JSONL to stdout and writes
    /// `results/<bin>.jsonl`, `results/<bin>.trace.json`, and
    /// `results/<bin>.metrics.jsonl` (pass the artifacts from
    /// [`traced_run`]), plus `results/<bin>.faults.jsonl` when any
    /// report carried forensics records and `results/<bin>.profile.jsonl`
    /// with `results/<bin>.speedscope.json` when any carried a profile.
    /// File-system errors are reported on stderr but never fail the
    /// run — stdout already carries the data.
    pub fn finish(self, traced: &TracedRun) {
        for line in &self.lines {
            println!("{line}");
        }
        let dir = Path::new("results");
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("results/: {e}");
            return;
        }
        let jsonl_path = dir.join(format!("{}.jsonl", self.name));
        let trace_path = dir.join(format!("{}.trace.json", self.name));
        let metrics_path = dir.join(format!("{}.metrics.jsonl", self.name));
        let jsonl = self.lines.join("\n") + "\n";
        if let Err(e) = fs::write(&jsonl_path, jsonl) {
            eprintln!("{}: {e}", jsonl_path.display());
        }
        if let Err(e) = fs::write(&trace_path, &traced.trace_json) {
            eprintln!("{}: {e}", trace_path.display());
        }
        if let Err(e) = fs::write(&metrics_path, &traced.metrics_jsonl) {
            eprintln!("{}: {e}", metrics_path.display());
        }
        if !self.fault_lines.is_empty() {
            let faults_path = dir.join(format!("{}.faults.jsonl", self.name));
            let faults = self.fault_lines.join("\n") + "\n";
            if let Err(e) = fs::write(&faults_path, faults) {
                eprintln!("{}: {e}", faults_path.display());
            } else {
                eprintln!("wrote {}", faults_path.display());
            }
        }
        if !self.profiles.is_empty() {
            let profile_path = dir.join(format!("{}.profile.jsonl", self.name));
            let scope_path = dir.join(format!("{}.speedscope.json", self.name));
            let profiles = self.profile_lines.join("\n") + "\n";
            if let Err(e) = fs::write(&profile_path, profiles) {
                eprintln!("{}: {e}", profile_path.display());
            }
            if let Err(e) = fs::write(&scope_path, speedscope(self.name, &self.profiles)) {
                eprintln!("{}: {e}", scope_path.display());
            }
            eprintln!(
                "wrote {} and {} (open at https://www.speedscope.app)",
                profile_path.display(),
                scope_path.display()
            );
        }
        eprintln!(
            "wrote {}, {} and {}",
            jsonl_path.display(),
            trace_path.display(),
            metrics_path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_core::Experiment;
    use mmm_workload::Benchmark;

    #[test]
    fn profiled_reports_export_one_profile_line_each() {
        let e = Experiment {
            warmup: 2_000,
            measure: 10_000,
            seeds: vec![1, 2],
            profile: true,
            ..Experiment::default()
        };
        let profiled = e
            .run_workload(Workload::ReunionDmr(Benchmark::Apache))
            .unwrap();
        let mut plain = profiled.clone();
        for r in &mut plain.reports {
            r.profile = None;
        }
        let mut export = JsonExport::new("unit");
        export.add(&plain);
        export.add(&profiled);
        assert_eq!(export.lines.len(), 4);
        assert_eq!(
            export.profile_lines.len(),
            2,
            "one line per profiled report"
        );
        for (line, run) in export.profile_lines.iter().zip(2u64..) {
            let line = Json::parse(line).unwrap();
            let report = Json::parse(&export.lines[run as usize]).unwrap();
            assert_eq!(line.get("run").and_then(Json::as_u64), Some(run));
            for key in ["config", "benchmark", "scheduler", "threads", "cycles"] {
                assert_eq!(line.get(key), report.get(key), "{key}");
            }
            let shares = line.get("profile").and_then(|p| p.get("phase_shares"));
            assert!(shares.and_then(Json::as_obj).is_some_and(|s| !s.is_empty()));
        }
        let doc = Json::parse(&speedscope(export.name, &export.profiles)).unwrap();
        let names: Vec<&str> = doc
            .get("profiles")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|p| p.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["#2 Reunion / Apache", "#3 Reunion / Apache"]);
    }

    #[test]
    fn traced_run_is_deterministic_and_perfetto_shaped() {
        let cfg = SystemConfig::default();
        let w = Workload::ReunionDmr(Benchmark::Apache);
        let a = traced_run(&cfg, w, 1, None, false);
        let b = traced_run(&cfg, w, 1, None, false);
        assert_eq!(
            a.trace_json, b.trace_json,
            "same seed must produce an identical trace"
        );
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert!(a.trace_json.starts_with("{\"traceEvents\":["));
        assert!(
            a.trace_json.contains("\"dmr-vocal V0\""),
            "mode slices present"
        );
        assert!(a.trace_json.contains("\"ph\":\"C\""), "counter tracks");
        assert!(a.trace_json.ends_with("\"displayTimeUnit\":\"ns\"}"));
        let lines: Vec<&str> = a.metrics_jsonl.lines().collect();
        assert_eq!(
            lines.len() as u64,
            1 + TRACE_CYCLES / SAMPLE_INTERVAL,
            "header + one line per boundary"
        );
        assert!(lines[0].contains("\"interval\":10000"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"reunion.ops_compared\""),
            "{}",
            lines[1]
        );
    }
}
