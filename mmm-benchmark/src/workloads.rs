//! The workload table and one repetition of a workload.
//!
//! A repetition times only calls into the simulator's public API:
//! `System::new`, `run`, `reset_measurement`, `report` and
//! `SystemReport::to_json` for a single run; `Manifest::parse`,
//! `System::new` and `run_campaign` (or, traced, the campaign's own
//! steps in `run_campaign`'s order) for the sweep.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mmm_bench::campaign::checkpoint::{cell_record, scan_records, write_cell};
use mmm_bench::campaign::merge::build_aggregate;
use mmm_bench::campaign::{run_campaign, CampaignOptions, Manifest};
use mmm_core::{run_cells, Cell, System, Workload};
use mmm_trace::{Json, Profiler};
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

use crate::layers::{isolated_drives, LayerSample};
use crate::stats::fnv1a64;

/// The campaign manifest the sweep workload runs.
pub const SWEEP_MANIFEST: &str = include_str!("../sweep.json");

/// What one workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One machine: set up, warm up, measure, report.
    Single {
        workload: Workload,
        /// Fault-injection rate per core-cycle.
        fault_rate: Option<f64>,
    },
    /// The `sweep.json` campaign through `run_campaign`.
    Sweep,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    pub kind: Kind,
    /// Warm-up cycles per machine run.
    pub warmup: u64,
    /// Measured cycles per machine run.
    pub measure: u64,
    /// FNV-1a 64 of the output at seed 1: the report JSON of a single
    /// run, the `aggregate.json` bytes of the sweep.
    pub pin: u64,
}

/// The workloads. Lengths are fixed here, not on the command line, so
/// every result of one name measures the same work.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "dmr_oltp_faults",
        why: "Fig 5 Reunion/OLTP with 1e-5 faults per core-cycle: every op fingerprint-compared in pairs, most c2c sharing, faults detected",
        kind: Kind::Single {
            workload: Workload::ReunionDmr(Benchmark::Oltp),
            fault_rate: Some(1e-5),
        },
        warmup: 300_000,
        measure: 1_800_000,
        pin: 0xb285_9460_4d3d_f8ea,
    },
    Spec {
        name: "solo16_pmake",
        why: "No DMR 2X/pmake: 16 solo cores at the highest IPC with no pairs, PAB, transitions or skipping; the control that bypasses them",
        kind: Kind::Single {
            workload: Workload::NoDmr2x(Benchmark::Pmake),
            fault_rate: None,
        },
        warmup: 150_000,
        measure: 750_000,
        pin: 0xc9dc_9fa1_fb67_9f26,
    },
    Spec {
        name: "singleos_apache",
        why: "Section 5.3 single-OS mixed mode on Apache: Enter/Leave-DMR round trips, PAB checks and event-wheel skips",
        kind: Kind::Single {
            workload: Workload::SingleOsMixed(Benchmark::Apache),
            fault_rate: None,
        },
        warmup: 300_000,
        measure: 2_400_000,
        pin: 0x8cd8_95a0_c88d_aca3,
    },
    Spec {
        name: "campaign_sweep",
        why: "72-cell design-space sweep of short cold runs on one thread: set-up, warm-up from empty caches, registry JSON, checkpoints and merge",
        kind: Kind::Sweep,
        warmup: 10_000,
        measure: 40_000,
        pin: 0x86e3_b3c7_3429_70f6,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// A copy with run lengths divided by `div`. Its digests differ
    /// from the pins.
    #[cfg(test)]
    pub fn scaled(&self, div: u64) -> Spec {
        Spec {
            warmup: self.warmup / div,
            measure: self.measure / div,
            ..*self
        }
    }

    /// The benchmark profile the isolated drives use: the workload's
    /// own, or pmake (the manifest default) for the six-benchmark sweep.
    fn drive_profile(&self) -> Benchmark {
        match self.kind {
            Kind::Single { workload, .. } => workload.benchmark(),
            Kind::Sweep => Benchmark::Pmake,
        }
    }
}

/// What one repetition measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    /// FNV-1a 64 of the output.
    pub digest: u64,
    /// Set-up: `System::new` plus injector enable; for the sweep,
    /// `Manifest::parse` plus each benchmark's first machine.
    pub setup_s: f64,
    /// From set-up start to the report or aggregate being written.
    pub wall_s: f64,
    /// Host time of the timed simulation: the measured `run`, or the
    /// whole sweep.
    pub run_s: f64,
    /// Simulated cycles inside `run_s`.
    pub cycles: u64,
    /// The process's peak resident set (VmHWM).
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(String, f64)>,
    /// The host's slowdown against the reference speed while the
    /// repetition ran (`hostspeed`), set by the benchmark process around
    /// the child; 1 where it was not measured.
    pub slowdown: f64,
}

impl Rep {
    /// Simulated cycles per host second, as timed.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.run_s
    }

    pub fn to_json(&self) -> Json {
        let layers = self
            .layers
            .iter()
            .map(|(k, v)| (k.clone(), Json::F64(*v)))
            .collect();
        Json::obj([
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("setup_s", Json::F64(self.setup_s)),
            ("wall_s", Json::F64(self.wall_s)),
            ("run_s", Json::F64(self.run_s)),
            ("cycles", Json::U64(self.cycles)),
            ("peak_rss_mb", Json::F64(self.peak_rss_mb)),
            ("layers", Json::Obj(layers)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Rep, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition output has no number {key:?}"))
        };
        let digest = doc
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("repetition output has no hex \"digest\"")?;
        let layers = doc
            .get("layers")
            .and_then(Json::as_obj)
            .ok_or("repetition output has no \"layers\" object")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("layer metric {k:?} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Rep {
            digest,
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            run_s: num("run_s")?,
            cycles: doc
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or("repetition output has no integer \"cycles\"")?,
            peak_rss_mb: num("peak_rss_mb")?,
            layers,
            slowdown: 1.0,
        })
    }
}

/// Runs one repetition of `spec` at `seed` in this process.
pub fn run_rep(spec: &Spec, seed: u64, traced: bool) -> Result<Rep, String> {
    let mut rep = match spec.kind {
        Kind::Single {
            workload,
            fault_rate,
        } => run_single(spec, workload, fault_rate, seed, traced)?,
        Kind::Sweep => run_sweep(spec, seed, traced)?,
    };
    if traced {
        for (name, ns) in isolated_drives(spec.drive_profile(), seed) {
            rep.layers.push((name.to_string(), ns));
        }
    }
    rep.peak_rss_mb = peak_rss_mb();
    Ok(rep)
}

fn run_single(
    spec: &Spec,
    workload: Workload,
    fault_rate: Option<f64>,
    seed: u64,
    traced: bool,
) -> Result<Rep, String> {
    let start = Instant::now();
    let mut sys =
        System::new(&SystemConfig::default(), workload, seed).map_err(|e| e.to_string())?;
    if let Some(rate) = fault_rate {
        // The injector seed `Experiment::run_one` uses.
        sys.enable_fault_injection(rate, seed ^ 0xF417);
    }
    let setup_s = start.elapsed().as_secs_f64();
    if traced {
        sys.attach_profiler(Profiler::enabled());
    }

    let t = Instant::now();
    sys.run(spec.warmup);
    sys.reset_measurement();
    let warmup_s = t.elapsed().as_secs_f64();

    sys.profiler().begin();
    let t = Instant::now();
    sys.run(spec.measure);
    let run_s = t.elapsed().as_secs_f64();
    sys.profiler().end();

    let t = Instant::now();
    let report = sys.report(spec.measure);
    let json = report.to_json();
    let report_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();

    let mut rep = Rep {
        digest: fnv1a64(json.as_bytes()),
        setup_s,
        wall_s,
        run_s,
        cycles: spec.measure,
        peak_rss_mb: 0.0,
        layers: Vec::new(),
        slowdown: 1.0,
    };
    if let Some(profile) = sys.profiler().report() {
        let mut sample = LayerSample::default();
        sample.add(&report, &profile, run_s);
        sample.check()?;
        rep.layers = named(sample.metrics());
        rep.layers.extend(named(vec![
            ("core.warmup_s", warmup_s),
            ("core.measure_s", run_s),
            ("core.report_s", report_s),
        ]));
    }
    Ok(rep)
}

/// Worker threads for the sweep. One: a second would time the host's
/// scheduling and the other tenants of a small shared host along with
/// the campaign, and `aggregate.json` is the same at any thread count.
const SWEEP_THREADS: usize = 1;

/// Parses the sweep manifest with the workload's run lengths. The
/// manifest format has no base seed, so `seed` moves the gang-switch
/// interval by `100 * ((seed - 1) mod 10)` cycles: every seed is a
/// distinct sweep of the same cost.
fn sweep_manifest(spec: &Spec, seed: u64) -> Result<Manifest, String> {
    let mut m = Manifest::parse(SWEEP_MANIFEST)?;
    m.warmup = spec.warmup;
    m.measure = spec.measure;
    for interval in &mut m.switch_interval {
        *interval += 100 * (seed.wrapping_sub(1) % 10);
    }
    Ok(m)
}

fn run_sweep(spec: &Spec, seed: u64, traced: bool) -> Result<Rep, String> {
    let start = Instant::now();
    let m = sweep_manifest(spec, seed)?;
    // Parsing takes well under a millisecond. The set-up that costs is
    // building each benchmark's first machine, which also builds that
    // benchmark's process-wide power-law tables; done here, it is timed
    // apart from the cells that reuse the tables.
    let cells = m.cells()?;
    for bench in &m.benchmark {
        let first = cells
            .iter()
            .find(|c| c.cell.workload.benchmark() == *bench)
            .ok_or("a benchmark of the sweep has no cell")?;
        System::new(&first.cell.experiment.cfg, first.cell.workload, 1)
            .map_err(|e| e.to_string())?;
    }
    let setup_s = start.elapsed().as_secs_f64();
    let runs = m.cell_count() as u64 * m.seeds;
    let dir = WorkDir::new()?;

    let t = Instant::now();
    let (text, layers) = if traced {
        let (text, layers) = traced_sweep(spec, seed, dir.path())?;
        (text, named(layers))
    } else {
        let opts = CampaignOptions {
            threads: SWEEP_THREADS,
            limit: None,
            quiet: true,
        };
        let outcome = run_campaign(&m, dir.path(), &opts)?;
        let text = std::fs::read_to_string(&outcome.aggregate_path)
            .map_err(|e| format!("reading {}: {e}", outcome.aggregate_path.display()))?;
        (text, Vec::new())
    };
    let run_s = t.elapsed().as_secs_f64();
    Ok(Rep {
        digest: fnv1a64(text.as_bytes()),
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        run_s,
        cycles: runs * (m.warmup + m.measure),
        peak_rss_mb: 0.0,
        layers,
        slowdown: 1.0,
    })
}

/// The sweep with every phase timed, and the profiler on in every cell.
/// Returns the aggregate text and the per-layer metrics over every run.
///
/// This repeats the steps of `run_campaign` (`crates/bench/src/campaign/mod.rs`)
/// in its order, since that function does not report its phase times, and
/// must follow every change to them; the byte-identical `aggregate.json`
/// the output check demands catches a copy that has drifted. Remove it
/// once `run_campaign` reports its own phase times.
fn traced_sweep(spec: &Spec, seed: u64, dir: &Path) -> Result<(String, Metrics), String> {
    let t = Instant::now();
    let m = sweep_manifest(spec, seed)?;
    let hash = m.hash();
    let mut specs = m.cells()?;
    let parse_s = t.elapsed().as_secs_f64();
    for s in &mut specs {
        s.cell.experiment.profile = true;
    }

    std::fs::create_dir_all(dir.join("cells")).map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join("manifest.json"),
        m.canonical_json().render() + "\n",
    )
    .map_err(|e| e.to_string())?;
    scan_records(dir, &m, &hash, specs.len())?;
    let cells: Vec<Cell> = specs.iter().map(|s| s.cell.clone()).collect();
    let checkpoint_ns = AtomicU64::new(0);
    let errors = Mutex::new(Vec::new());
    let t = Instant::now();
    let runs = run_cells(&cells, SWEEP_THREADS, |k, run| {
        let t = Instant::now();
        let written = run.map_err(|e| e.to_string()).and_then(|run| {
            let record = cell_record(&m, &hash, &specs[k], run);
            write_cell(dir, specs[k].id, &record).map_err(|e| e.to_string())
        });
        checkpoint_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Err(e) = written {
            errors
                .lock()
                .expect("no panics while held")
                .push(format!("cell {k}: {e}"));
        }
    })
    .map_err(|e| e.to_string())?;
    let run_cells_s = t.elapsed().as_secs_f64();
    let errors = errors.into_inner().expect("no panics while held");
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }

    let t = Instant::now();
    let records = scan_records(dir, &m, &hash, specs.len())?;
    let text = build_aggregate(&m, &hash, specs.len(), &records)?.render() + "\n";
    let tmp = dir.join("aggregate.tmp");
    std::fs::write(&tmp, &text)
        .and_then(|()| std::fs::rename(&tmp, dir.join("aggregate.json")))
        .map_err(|e| e.to_string())?;
    let merge_s = t.elapsed().as_secs_f64();

    let mut sample = LayerSample::default();
    let mut measure_s = 0.0;
    for report in runs.iter().flat_map(|r| &r.reports) {
        let profile = report
            .profile
            .as_ref()
            .ok_or("a cell ran without its profiler")?;
        sample.add(report, profile, report.wall_seconds);
        measure_s += report.wall_seconds;
    }
    sample.check()?;
    let checkpoint_s = checkpoint_ns.into_inner() as f64 / 1e9;
    let mut layers = sample.metrics();
    layers.extend([
        ("core.measure_s", measure_s),
        ("core.report_s", checkpoint_s + merge_s),
        ("campaign.parse_s", parse_s),
        ("campaign.run_cells_s", run_cells_s),
        ("campaign.checkpoint_s", checkpoint_s),
        ("campaign.merge_s", merge_s),
        ("campaign.cells_per_s", specs.len() as f64 / run_cells_s),
    ]);
    Ok((text, layers))
}

type Metrics = Vec<(&'static str, f64)>;

fn named(metrics: Metrics) -> Vec<(String, f64)> {
    metrics
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// The process's peak resident set in MiB, from `VmHWM` (`NaN` where
/// the kernel does not report it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh campaign output directory beside the executable (inside the
/// build directory), removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let root = exe.parent().ok_or("executable has no parent directory")?;
        let dir = root.join("mmm-benchmark-work").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
