//! Campaign manifests: the sweep-grid description and its expansion
//! into cells.
//!
//! A manifest is a single JSON object (parsed with the serde-free
//! [`Json::parse`]) naming the campaign, fixing the per-cell run
//! lengths, and describing a grid over the design-space axes the
//! paper treats as free variables: PAB geometry, pair topology (core
//! count), scheduler mode, fault rate, and switch interval:
//!
//! ```json
//! {
//!   "name": "pab-sweep",
//!   "warmup": 20000,
//!   "measure": 100000,
//!   "seeds": 2,
//!   "grid": {
//!     "benchmark": ["pmake", "oltp"],
//!     "workload": ["reunion", "mmm_ipc"],
//!     "cores": [8, 16],
//!     "pab_entries": [64, 128],
//!     "pab_lookup": "parallel",
//!     "pab_serial_latency": 2,
//!     "fault_rate": [0, 2e-6],
//!     "switch_interval": 3000000
//!   }
//! }
//! ```
//!
//! Every grid axis accepts an array or a scalar (a one-value axis);
//! absent axes take the paper's defaults. Unknown keys — top-level or
//! inside `grid` — are errors, not silently ignored: a typo must not
//! quietly shrink a million-run sweep. The grid expands row-major over
//! the axes in canonical order, so cell ids are stable for a given
//! manifest, and [`Manifest::hash`] fingerprints the *canonicalized*
//! manifest (spelling and axis order do not matter) so a resumed
//! campaign can prove it is continuing the same sweep.

use mmm_core::{Cell, Experiment, MixedPolicy, Workload};
use mmm_trace::Json;
use mmm_types::config::PabLookup;
use mmm_types::SystemConfig;
use mmm_workload::Benchmark;

/// Default warm-up cycles per cell when the manifest does not say.
pub const DEFAULT_WARMUP: u64 = 20_000;
/// Default measured cycles per cell when the manifest does not say.
pub const DEFAULT_MEASURE: u64 = 100_000;

/// Most cells a grid may hold: cell ids are written `cell-{id:05}`.
pub const MAX_CELLS: usize = 100_000;

/// Most runs (cells × seeds) a campaign may hold: every cell lists its
/// seeds, so the count sizes an allocation.
pub const MAX_RUNS: u64 = 1_000_000;

/// The scheduler-mode axis: which machine configuration a cell runs.
/// A manifest spells these `nodmr2x`, `nodmr`, `reunion`, `dmr_base`,
/// `mmm_ipc`, `mmm_tp`, `single_os`, or `overcommit:<R>r<P>p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Fig 5 `No DMR 2X`: one VCPU per core, no redundancy.
    NoDmr2x,
    /// Fig 5 `No DMR`: half the cores busy, half idle.
    NoDmr,
    /// Fig 5 `Reunion`: all-DMR.
    Reunion,
    /// Fig 6 consolidated server, every guest redundant.
    DmrBase,
    /// Fig 6 MMM-IPC.
    MmmIpc,
    /// Fig 6 MMM-TP.
    MmmTp,
    /// §5.3 single-OS mixed mode.
    SingleOs,
    /// §3.5 overcommitted MMM with explicit VCPU demand.
    Overcommit {
        /// VCPUs requiring DMR pairs.
        reliable: u16,
        /// VCPUs requiring single cores.
        perf: u16,
    },
}

impl WorkloadSpec {
    /// Parses the manifest spelling.
    pub fn parse(s: &str) -> Option<WorkloadSpec> {
        match s {
            "nodmr2x" => Some(WorkloadSpec::NoDmr2x),
            "nodmr" => Some(WorkloadSpec::NoDmr),
            "reunion" => Some(WorkloadSpec::Reunion),
            "dmr_base" => Some(WorkloadSpec::DmrBase),
            "mmm_ipc" => Some(WorkloadSpec::MmmIpc),
            "mmm_tp" => Some(WorkloadSpec::MmmTp),
            "single_os" => Some(WorkloadSpec::SingleOs),
            _ => {
                let rest = s.strip_prefix("overcommit:")?;
                let (r, p) = rest.split_once('r')?;
                let p = p.strip_suffix('p')?;
                Some(WorkloadSpec::Overcommit {
                    reliable: r.parse().ok()?,
                    perf: p.parse().ok()?,
                })
            }
        }
    }

    /// The canonical manifest spelling (inverse of
    /// [`WorkloadSpec::parse`]).
    pub fn spelling(self) -> String {
        match self {
            WorkloadSpec::NoDmr2x => "nodmr2x".to_string(),
            WorkloadSpec::NoDmr => "nodmr".to_string(),
            WorkloadSpec::Reunion => "reunion".to_string(),
            WorkloadSpec::DmrBase => "dmr_base".to_string(),
            WorkloadSpec::MmmIpc => "mmm_ipc".to_string(),
            WorkloadSpec::MmmTp => "mmm_tp".to_string(),
            WorkloadSpec::SingleOs => "single_os".to_string(),
            WorkloadSpec::Overcommit { reliable, perf } => {
                format!("overcommit:{reliable}r{perf}p")
            }
        }
    }

    /// Binds the spec to a benchmark, yielding the runnable workload.
    pub fn bind(self, bench: Benchmark) -> Workload {
        match self {
            WorkloadSpec::NoDmr2x => Workload::NoDmr2x(bench),
            WorkloadSpec::NoDmr => Workload::NoDmr(bench),
            WorkloadSpec::Reunion => Workload::ReunionDmr(bench),
            WorkloadSpec::DmrBase => Workload::Consolidated {
                bench,
                policy: MixedPolicy::DmrBase,
            },
            WorkloadSpec::MmmIpc => Workload::Consolidated {
                bench,
                policy: MixedPolicy::MmmIpc,
            },
            WorkloadSpec::MmmTp => Workload::Consolidated {
                bench,
                policy: MixedPolicy::MmmTp,
            },
            WorkloadSpec::SingleOs => Workload::SingleOsMixed(bench),
            WorkloadSpec::Overcommit { reliable, perf } => Workload::Overcommitted {
                bench,
                reliable,
                perf,
            },
        }
    }
}

/// The canonical benchmark spelling used in hashes and cell records.
pub fn benchmark_spelling(b: Benchmark) -> String {
    match b {
        Benchmark::Synthetic { user_kilo_insts } => format!("synthetic:{user_kilo_insts}"),
        other => other.name().to_ascii_lowercase(),
    }
}

/// A parsed, validated campaign manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Campaign name (output files carry it).
    pub name: String,
    /// Warm-up cycles per run.
    pub warmup: u64,
    /// Measured cycles per run.
    pub measure: u64,
    /// Seeds per cell (seeds `1..=n`).
    pub seeds: u64,
    /// Benchmark axis.
    pub benchmark: Vec<Benchmark>,
    /// Scheduler-mode axis.
    pub workload: Vec<WorkloadSpec>,
    /// Pair-topology axis: physical core count (pairs = cores / 2).
    pub cores: Vec<u64>,
    /// PAB size axis (entries).
    pub pab_entries: Vec<u64>,
    /// PAB lookup-organization axis.
    pub pab_lookup: Vec<PabLookup>,
    /// PAB serial-lookup latency axis (cycles).
    pub pab_serial_latency: Vec<u64>,
    /// Fault-rate axis (faults per core-cycle; 0 = injection off).
    pub fault_rate: Vec<f64>,
    /// Switch-interval axis: the gang-scheduling timeslice in cycles.
    pub switch_interval: Vec<u64>,
}

/// One grid axis value, typed for stable JSON output.
#[derive(Clone, Debug, PartialEq)]
pub enum AxisValue {
    /// An integer-valued axis (cores, PAB entries, intervals).
    U64(u64),
    /// A real-valued axis (fault rate).
    F64(f64),
    /// A named axis value (benchmark, workload, PAB lookup).
    Str(String),
}

impl AxisValue {
    /// The value as JSON.
    pub fn to_json(&self) -> Json {
        match self {
            AxisValue::U64(v) => Json::U64(*v),
            AxisValue::F64(v) => Json::F64(*v),
            AxisValue::Str(s) => Json::str(s.clone()),
        }
    }

    /// Compact human rendering for tables.
    pub fn display(&self) -> String {
        match self {
            AxisValue::U64(v) => v.to_string(),
            AxisValue::F64(v) => format!("{v}"),
            AxisValue::Str(s) => s.clone(),
        }
    }
}

/// The grid axes in canonical (expansion and hash) order.
pub const AXES: [&str; 8] = [
    "benchmark",
    "workload",
    "cores",
    "pab_entries",
    "pab_lookup",
    "pab_serial_latency",
    "fault_rate",
    "switch_interval",
];

/// One expanded grid cell: its stable id, its axis coordinates, and
/// the runnable [`Cell`].
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Row-major index in the expanded grid — the cell's stable id.
    pub id: usize,
    /// Axis coordinates, in [`AXES`] order.
    pub axes: Vec<(&'static str, AxisValue)>,
    /// The fully-parameterized experiment + workload.
    pub cell: Cell,
}

impl CellSpec {
    /// The cell's axis coordinates as a JSON object.
    pub fn axes_json(&self) -> Json {
        Json::Obj(
            self.axes
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }

    /// Compact one-line label for logs and tables.
    pub fn label(&self) -> String {
        self.axes
            .iter()
            .map(|(k, v)| format!("{k}={}", v.display()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Treats a scalar as a one-element axis, otherwise the array items.
fn axis_items(v: &Json) -> Vec<Json> {
    match v {
        Json::Arr(items) => items.clone(),
        other => vec![other.clone()],
    }
}

fn u64_axis(name: &str, v: &Json) -> Result<Vec<u64>, String> {
    let items = axis_items(v);
    if items.is_empty() {
        return Err(format!("axis {name:?} is empty"));
    }
    items
        .iter()
        .map(|i| {
            i.as_u64()
                .ok_or_else(|| format!("axis {name:?}: {} is not an unsigned integer", i.render()))
        })
        .collect()
}

fn f64_axis(name: &str, v: &Json) -> Result<Vec<f64>, String> {
    let items = axis_items(v);
    if items.is_empty() {
        return Err(format!("axis {name:?} is empty"));
    }
    items
        .iter()
        .map(|i| {
            i.as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| {
                    format!("axis {name:?}: {} is not a non-negative number", i.render())
                })
        })
        .collect()
}

fn str_axis<T>(name: &str, v: &Json, parse: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    let items = axis_items(v);
    if items.is_empty() {
        return Err(format!("axis {name:?} is empty"));
    }
    items
        .iter()
        .map(|i| {
            let s = i
                .as_str()
                .ok_or_else(|| format!("axis {name:?}: {} is not a string", i.render()))?;
            parse(s).ok_or_else(|| format!("axis {name:?}: unknown value {s:?}"))
        })
        .collect()
}

fn scalar_u64(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key:?} must be an unsigned integer, got {}", v.render())),
    }
}

impl Manifest {
    /// Parses and validates a manifest document.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
        let obj = doc
            .as_obj()
            .ok_or("manifest must be a JSON object".to_string())?;
        for (k, _) in obj {
            if !["name", "warmup", "measure", "seeds", "grid"].contains(&k.as_str()) {
                return Err(format!("unknown manifest key {k:?}"));
            }
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or("manifest needs a non-empty \"name\" string")?
            .to_string();
        if name.contains(|c: char| c == '/' || c == '\\' || c.is_whitespace()) {
            return Err(format!(
                "campaign name {name:?} must not contain path separators or whitespace"
            ));
        }
        let warmup = scalar_u64(&doc, "warmup", DEFAULT_WARMUP)?;
        let measure = scalar_u64(&doc, "measure", DEFAULT_MEASURE)?;
        if measure == 0 {
            return Err("\"measure\" must be positive".to_string());
        }
        let seeds = scalar_u64(&doc, "seeds", 1)?;
        if seeds == 0 {
            return Err("\"seeds\" must be at least 1".to_string());
        }
        let grid = doc.get("grid").ok_or("manifest needs a \"grid\" object")?;
        let grid_obj = grid
            .as_obj()
            .ok_or("\"grid\" must be a JSON object".to_string())?;
        for (k, _) in grid_obj {
            if !AXES.contains(&k.as_str()) {
                return Err(format!(
                    "unknown grid axis {k:?} (axes: {})",
                    AXES.join(", ")
                ));
            }
        }
        let axis = |name: &str| grid.get(name);
        let benchmark = match axis("benchmark") {
            Some(v) => str_axis("benchmark", v, Benchmark::from_name)?,
            None => vec![Benchmark::Pmake],
        };
        let workload = match axis("workload") {
            Some(v) => str_axis("workload", v, WorkloadSpec::parse)?,
            None => vec![WorkloadSpec::Reunion],
        };
        let cores = match axis("cores") {
            Some(v) => u64_axis("cores", v)?,
            None => vec![SystemConfig::default().cores as u64],
        };
        let defaults = SystemConfig::default();
        let pab_entries = match axis("pab_entries") {
            Some(v) => u64_axis("pab_entries", v)?,
            None => vec![defaults.pab.entries as u64],
        };
        let pab_lookup = match axis("pab_lookup") {
            Some(v) => str_axis("pab_lookup", v, |s| match s {
                "parallel" => Some(PabLookup::Parallel),
                "serial" => Some(PabLookup::Serial),
                _ => None,
            })?,
            None => vec![PabLookup::Parallel],
        };
        let pab_serial_latency = match axis("pab_serial_latency") {
            Some(v) => u64_axis("pab_serial_latency", v)?,
            None => vec![defaults.pab.serial_latency as u64],
        };
        let fault_rate = match axis("fault_rate") {
            Some(v) => f64_axis("fault_rate", v)?,
            None => vec![0.0],
        };
        let switch_interval = match axis("switch_interval") {
            Some(v) => {
                let vals = u64_axis("switch_interval", v)?;
                if vals.contains(&0) {
                    return Err("axis \"switch_interval\": intervals must be positive".to_string());
                }
                vals
            }
            None => vec![defaults.virt.timeslice_cycles],
        };
        let m = Manifest {
            name,
            warmup,
            measure,
            seeds,
            benchmark,
            workload,
            cores,
            pab_entries,
            pab_lookup,
            pab_serial_latency,
            fault_rate,
            switch_interval,
        };
        // Expansion validates every cell's SystemConfig; surface those
        // errors at parse time so a bad manifest never starts running.
        m.cells()?;
        Ok(m)
    }

    /// Total number of grid cells, or `usize::MAX` if the product of
    /// the axis lengths overflows.
    pub fn cell_count(&self) -> usize {
        [
            self.benchmark.len(),
            self.workload.len(),
            self.cores.len(),
            self.pab_entries.len(),
            self.pab_lookup.len(),
            self.pab_serial_latency.len(),
            self.fault_rate.len(),
            self.switch_interval.len(),
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .unwrap_or(usize::MAX)
    }

    /// Expands the grid, row-major over [`AXES`], into runnable cells.
    /// A grid of more than [`MAX_CELLS`] cells, or more than
    /// [`MAX_RUNS`] runs over all its seeds, is an error.
    pub fn cells(&self) -> Result<Vec<CellSpec>, String> {
        let count = self.cell_count();
        if count > MAX_CELLS {
            let count = match count {
                usize::MAX => format!("more than {}", usize::MAX),
                n => n.to_string(),
            };
            return Err(format!(
                "the grid has {count} cells; a campaign holds at most {MAX_CELLS}"
            ));
        }
        let runs = (count as u64).checked_mul(self.seeds);
        if runs.is_none_or(|runs| runs > MAX_RUNS) {
            let runs = runs.map_or_else(|| format!("more than {}", u64::MAX), |n| n.to_string());
            return Err(format!(
                "the campaign has {runs} runs ({count} cells × {} seeds); \
                 a campaign holds at most {MAX_RUNS}",
                self.seeds
            ));
        }
        let mut out = Vec::with_capacity(count);
        for &bench in &self.benchmark {
            for &spec in &self.workload {
                for &cores in &self.cores {
                    for &entries in &self.pab_entries {
                        for &lookup in &self.pab_lookup {
                            for &latency in &self.pab_serial_latency {
                                for &rate in &self.fault_rate {
                                    for &interval in &self.switch_interval {
                                        let id = out.len();
                                        out.push(self.build_cell(
                                            id, bench, spec, cores, entries, lookup, latency, rate,
                                            interval,
                                        )?);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_cell(
        &self,
        id: usize,
        bench: Benchmark,
        spec: WorkloadSpec,
        cores: u64,
        entries: u64,
        lookup: PabLookup,
        latency: u64,
        rate: f64,
        interval: u64,
    ) -> Result<CellSpec, String> {
        let mut cfg = SystemConfig {
            cores: u32::try_from(cores).map_err(|_| format!("cores {cores} out of range"))?,
            ..SystemConfig::default()
        };
        cfg.pab.entries =
            u32::try_from(entries).map_err(|_| format!("pab_entries {entries} out of range"))?;
        cfg.pab.lookup = lookup;
        cfg.pab.serial_latency = u32::try_from(latency)
            .map_err(|_| format!("pab_serial_latency {latency} out of range"))?;
        cfg.virt.timeslice_cycles = interval;
        let axes = vec![
            ("benchmark", AxisValue::Str(benchmark_spelling(bench))),
            ("workload", AxisValue::Str(spec.spelling())),
            ("cores", AxisValue::U64(cores)),
            ("pab_entries", AxisValue::U64(entries)),
            (
                "pab_lookup",
                AxisValue::Str(
                    match lookup {
                        PabLookup::Parallel => "parallel",
                        PabLookup::Serial => "serial",
                    }
                    .to_string(),
                ),
            ),
            ("pab_serial_latency", AxisValue::U64(latency)),
            ("fault_rate", AxisValue::F64(rate)),
            ("switch_interval", AxisValue::U64(interval)),
        ];
        let label = axes
            .iter()
            .map(|(k, v)| format!("{k}={}", v.display()))
            .collect::<Vec<_>>()
            .join(" ");
        cfg.validate()
            .map_err(|e| format!("cell {id} ({label}): {e}"))?;
        let workload = spec.bind(bench);
        // Surface topology errors (e.g. overcommit demand > 24 VCPUs)
        // at expansion time, not mid-sweep.
        workload
            .vcpu_specs(&cfg)
            .map_err(|e| format!("cell {id} ({label}): {e}"))?;
        let experiment = Experiment {
            cfg,
            warmup: self.warmup,
            measure: self.measure,
            seeds: (1..=self.seeds).collect(),
            fault_rate: (rate > 0.0).then_some(rate),
            // Campaign cells are sealed deterministic runs: no
            // sampler, no profiler, skipping on. The `MMM_*` run-length
            // env overrides deliberately do not apply — the manifest is
            // the single source of truth, so the aggregate is
            // reproducible from the manifest alone.
            sample_interval: None,
            cycle_skipping: true,
            profile: false,
            forensics: false,
        };
        Ok(CellSpec {
            id,
            axes,
            cell: Cell {
                experiment,
                workload,
            },
        })
    }

    /// The canonicalized manifest as JSON: fixed key order, canonical
    /// axis spellings, every axis explicit. Two manifests that expand
    /// to the same grid render identically here.
    pub fn canonical_json(&self) -> Json {
        let str_arr = |items: Vec<String>| Json::Arr(items.into_iter().map(Json::str).collect());
        let u64_arr = |items: &[u64]| Json::Arr(items.iter().map(|&v| Json::U64(v)).collect());
        let grid = Json::obj([
            (
                "benchmark",
                str_arr(
                    self.benchmark
                        .iter()
                        .map(|&b| benchmark_spelling(b))
                        .collect(),
                ),
            ),
            (
                "workload",
                str_arr(self.workload.iter().map(|w| w.spelling()).collect()),
            ),
            ("cores", u64_arr(&self.cores)),
            ("pab_entries", u64_arr(&self.pab_entries)),
            (
                "pab_lookup",
                str_arr(
                    self.pab_lookup
                        .iter()
                        .map(|l| {
                            match l {
                                PabLookup::Parallel => "parallel",
                                PabLookup::Serial => "serial",
                            }
                            .to_string()
                        })
                        .collect(),
                ),
            ),
            ("pab_serial_latency", u64_arr(&self.pab_serial_latency)),
            (
                "fault_rate",
                Json::Arr(self.fault_rate.iter().map(|&v| Json::F64(v)).collect()),
            ),
            ("switch_interval", u64_arr(&self.switch_interval)),
        ]);
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("warmup", Json::U64(self.warmup)),
            ("measure", Json::U64(self.measure)),
            ("seeds", Json::U64(self.seeds)),
            ("grid", grid),
        ])
    }

    /// FNV-1a 64 fingerprint of the canonical manifest, as 16 hex
    /// digits. Checkpoint records carry it so a resume can prove the
    /// on-disk cells belong to this exact sweep.
    pub fn hash(&self) -> String {
        crate::fnv1a64_hex(self.canonical_json().render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::DetRng;

    const SMOKE: &str = r#"{
        "name": "smoke",
        "warmup": 2000,
        "measure": 8000,
        "seeds": 1,
        "grid": {
            "benchmark": "pmake",
            "workload": ["nodmr", "reunion"],
            "cores": [4, 8]
        }
    }"#;

    #[test]
    fn parses_and_expands_a_grid() {
        let m = Manifest::parse(SMOKE).expect("parses");
        assert_eq!(m.name, "smoke");
        assert_eq!(m.cell_count(), 4);
        let cells = m.cells().unwrap();
        assert_eq!(cells.len(), 4);
        // Row-major: workload varies slower than cores.
        assert_eq!(cells[0].axes[1].1, AxisValue::Str("nodmr".into()));
        assert_eq!(cells[0].axes[2].1, AxisValue::U64(4));
        assert_eq!(cells[1].axes[2].1, AxisValue::U64(8));
        assert_eq!(cells[2].axes[1].1, AxisValue::Str("reunion".into()));
        // Ids are the expansion order.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i);
            assert_eq!(c.cell.experiment.warmup, 2000);
            assert_eq!(c.cell.experiment.measure, 8000);
            assert_eq!(c.cell.experiment.seeds, vec![1]);
        }
    }

    /// A manifest whose first `axes` axes have `values` values each.
    fn wide_grid(axes: usize, values: usize) -> String {
        let axis = [
            ("cores", "4"),
            ("pab_entries", "64"),
            ("pab_serial_latency", "4"),
            ("fault_rate", "0"),
            ("switch_interval", "4"),
            ("pab_lookup", "\"serial\""),
        ];
        let grid: Vec<String> = axis[..axes]
            .iter()
            .map(|(name, value)| format!("\"{name}\":[{}]", vec![*value; values].join(",")))
            .collect();
        format!("{{\"name\":\"wide\",\"grid\":{{{}}}}}", grid.join(","))
    }

    #[test]
    fn grids_past_the_cell_limit_are_refused() {
        // 400^4 cells once asked the allocator for 8.8 TB, and 3000^6
        // overflows the count.
        let err = Manifest::parse(&wide_grid(4, 400)).unwrap_err();
        assert!(err.contains("the grid has 25600000000 cells"), "{err}");
        assert!(err.contains("at most 100000"), "{err}");
        let err = Manifest::parse(&wide_grid(6, 3000)).unwrap_err();
        assert!(
            err.contains("more than 18446744073709551615 cells"),
            "{err}"
        );
        let m = Manifest::parse(&wide_grid(2, 10)).unwrap();
        assert_eq!(m.cell_count(), 100);
        let at_limit = Manifest {
            benchmark: vec![Benchmark::Pmake; 1000],
            ..m.clone()
        };
        assert_eq!(at_limit.cell_count(), MAX_CELLS);
        let past = Manifest {
            benchmark: vec![Benchmark::Pmake; 1001],
            ..m
        };
        assert!(past.cells().unwrap_err().contains("100100 cells"));
    }

    #[test]
    fn campaigns_past_the_run_limit_are_refused() {
        // A trillion seeds on one cell once asked the allocator for
        // 8 TB of seed lists.
        let seeded = |seeds: u64, grid: &str| {
            format!("{{\"name\":\"many\",\"seeds\":{seeds},\"grid\":{grid}}}")
        };
        let one_cell = r#"{"cores":4}"#;
        let err = Manifest::parse(&seeded(1_000_000_000_000, one_cell)).unwrap_err();
        assert!(err.contains("1000000000000 runs"), "{err}");
        assert!(err.contains("at most 1000000"), "{err}");
        let err = Manifest::parse(&seeded(u64::MAX, r#"{"cores":[4,8]}"#)).unwrap_err();
        assert!(err.contains("more than 18446744073709551615 runs"), "{err}");
        let m = Manifest::parse(&seeded(MAX_RUNS, one_cell)).unwrap();
        assert_eq!(
            m.cells().unwrap()[0].cell.experiment.seeds.len() as u64,
            MAX_RUNS
        );
        let err = Manifest::parse(&seeded(MAX_RUNS / 2 + 1, r#"{"cores":[4,8]}"#)).unwrap_err();
        assert!(
            err.contains("1000002 runs (2 cells × 500001 seeds)"),
            "{err}"
        );
    }

    /// Truncates `text`, flips a bit of one byte, duplicates or drops
    /// one bracket, or replaces one number with 0, -1 or 1e300, as
    /// `rng` picks.
    fn mutate(text: &str, rng: &mut DetRng) -> String {
        let mut b = text.as_bytes().to_vec();
        let brackets: Vec<usize> = (0..b.len()).filter(|&i| b"[]{}".contains(&b[i])).collect();
        let in_number = |c: &u8| b"0123456789.eE+-".contains(c);
        let numbers: Vec<usize> = (0..b.len())
            .filter(|&i| b[i].is_ascii_digit() && (i == 0 || !in_number(&b[i - 1])))
            .collect();
        let at = rng.below(b.len() as u64) as usize;
        let bracket = brackets[rng.below(brackets.len() as u64) as usize];
        let number = numbers[rng.below(numbers.len() as u64) as usize];
        match rng.below(5) {
            0 => b.truncate(at),
            1 => b[at] ^= 1 << rng.below(7),
            2 => b.insert(bracket, b[bracket]),
            3 => drop(b.remove(bracket)),
            _ => {
                let end = number + b[number..].iter().take_while(|c| in_number(c)).count();
                let with = ["0", "-1", "1e300"][rng.below(3) as usize];
                b.splice(number..end, with.bytes());
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    #[test]
    fn mutated_manifests_parse_or_fail_without_a_panic() {
        let real = [
            include_str!("../../../../manifests/smoke.json"),
            include_str!("../../../../manifests/pab_sweep.json"),
        ];
        let mut rng = DetRng::new(21, 0);
        let mut refused = 0;
        for case in 0..1_000 {
            let text = mutate(real[case % real.len()], &mut rng);
            match Manifest::parse(&text) {
                Err(_) => refused += 1,
                // Parsing validated every cell; an accepted mutant is
                // a whole manifest that its canonical form restates.
                Ok(m) => {
                    let again = Manifest::parse(&m.canonical_json().render());
                    assert_eq!(again.as_ref(), Ok(&m), "{text}");
                }
            }
        }
        assert!(refused > 800, "only {refused} of 1000 mutants refused");
    }

    #[test]
    fn malformed_json_is_rejected() {
        for text in ["", "{", "not json", "[1,2]", "{\"name\":\"x\" \"grid\":{}}"] {
            assert!(Manifest::parse(text).is_err(), "{text:?} must fail");
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let top = r#"{"name":"x","grid":{},"typo_key":1}"#;
        let err = Manifest::parse(top).unwrap_err();
        assert!(err.contains("typo_key"), "{err}");
        let axis = r#"{"name":"x","grid":{"pab_size":[64]}}"#;
        let err = Manifest::parse(axis).unwrap_err();
        assert!(err.contains("pab_size"), "{err}");
    }

    #[test]
    fn empty_axes_and_missing_grid_are_rejected() {
        let empty_axis = r#"{"name":"x","grid":{"cores":[]}}"#;
        let err = Manifest::parse(empty_axis).unwrap_err();
        assert!(err.contains("empty"), "{err}");
        assert!(Manifest::parse(r#"{"name":"x"}"#).is_err(), "grid required");
    }

    #[test]
    fn empty_grid_is_one_default_cell() {
        let m = Manifest::parse(r#"{"name":"defaults","grid":{}}"#).expect("parses");
        assert_eq!(m.cell_count(), 1);
        let cells = m.cells().unwrap();
        assert_eq!(cells.len(), 1);
        let cfg = &cells[0].cell.experiment.cfg;
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.pab.entries, 128);
        assert!(cells[0].cell.experiment.fault_rate.is_none());
    }

    #[test]
    fn single_cell_grid_expands_to_one_cell() {
        let text = r#"{"name":"one","grid":{
            "benchmark":"oltp","workload":"mmm_tp","cores":16,
            "pab_entries":64,"pab_lookup":"serial","pab_serial_latency":4,
            "fault_rate":2e-6,"switch_interval":100000}}"#;
        let m = Manifest::parse(text).expect("parses");
        assert_eq!(m.cell_count(), 1);
        let c = &m.cells().unwrap()[0];
        let cfg = &c.cell.experiment.cfg;
        assert_eq!(cfg.pab.entries, 64);
        assert_eq!(cfg.pab.lookup, PabLookup::Serial);
        assert_eq!(cfg.pab.serial_latency, 4);
        assert_eq!(cfg.virt.timeslice_cycles, 100000);
        assert_eq!(c.cell.experiment.fault_rate, Some(2e-6));
    }

    #[test]
    fn invalid_cell_configs_fail_at_parse_time() {
        // Odd core count violates the DMR-pair invariant.
        let odd = r#"{"name":"x","grid":{"cores":7}}"#;
        assert!(Manifest::parse(odd).is_err());
        // PAB entries that do not form power-of-two sets.
        let pab = r#"{"name":"x","grid":{"pab_entries":96}}"#;
        assert!(Manifest::parse(pab).is_err());
        // Overcommit demand beyond the 24-VCPU address layout.
        let over = r#"{"name":"x","grid":{"workload":"overcommit:20r10p"}}"#;
        assert!(Manifest::parse(over).is_err());
        // Zero switch interval.
        let zero = r#"{"name":"x","grid":{"switch_interval":0}}"#;
        assert!(Manifest::parse(zero).is_err());
    }

    #[test]
    fn topologies_the_machine_cannot_hold_fail_at_parse_time() {
        // 40 cores: the directory's 32-bit sharer mask would alias
        // core 40 onto core 8.
        let c40 = r#"{"name":"c40","warmup":1000,"measure":5000,"grid":{"benchmark":["oltp"],"workload":["nodmr","reunion"],"cores":[40]}}"#;
        let err = Manifest::parse(c40).unwrap_err();
        assert!(err.contains("at most 32"), "{err}");
        // MMM-TP at 18 cores numbers its VCPUs up to 26, past the
        // address layout's 24 private heaps.
        let c18 = r#"{"name":"c18","warmup":1000,"measure":2000,"grid":{"benchmark":["pmake"],"workload":["mmm_tp"],"cores":[18]}}"#;
        let err = Manifest::parse(c18).unwrap_err();
        assert!(err.contains("private heap"), "{err}");
        let wide = r#"{"name":"w","grid":{"workload":"nodmr2x","cores":26}}"#;
        assert!(Manifest::parse(wide).is_err());
    }

    #[test]
    fn hash_is_stable_and_canonicalizes_spelling() {
        let a = Manifest::parse(SMOKE).unwrap();
        let b = Manifest::parse(SMOKE).unwrap();
        assert_eq!(a.hash(), b.hash(), "same text, same hash");
        // Different spelling and axis order, same grid → same hash.
        let reordered = r#"{
            "seeds": 1,
            "grid": {
                "cores": [4, 8],
                "workload": ["nodmr", "reunion"],
                "benchmark": "PMAKE"
            },
            "measure": 8000,
            "warmup": 2000,
            "name": "smoke"
        }"#;
        let c = Manifest::parse(reordered).unwrap();
        assert_eq!(a.hash(), c.hash(), "canonicalization must normalize");
        // Any grid change moves the hash.
        let grown = SMOKE.replace("[4, 8]", "[4, 8, 16]");
        let d = Manifest::parse(&grown).unwrap();
        assert_ne!(a.hash(), d.hash());
        assert_eq!(a.hash().len(), 16);
    }

    #[test]
    fn workload_spec_round_trips() {
        for s in [
            "nodmr2x",
            "nodmr",
            "reunion",
            "dmr_base",
            "mmm_ipc",
            "mmm_tp",
            "single_os",
            "overcommit:10r6p",
        ] {
            let spec = WorkloadSpec::parse(s).expect(s);
            assert_eq!(spec.spelling(), s);
        }
        assert!(WorkloadSpec::parse("overcommit:xr1p").is_none());
        assert!(WorkloadSpec::parse("tmr").is_none());
    }
}
