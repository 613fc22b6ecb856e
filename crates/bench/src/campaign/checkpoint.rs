//! Per-cell checkpoint records: the campaign's crash-safe unit of
//! progress.
//!
//! Each completed cell is persisted as one self-describing JSON
//! document, `cells/cell-<id>.json`, written to a temp file and
//! atomically renamed into place — a killed campaign never leaves a
//! torn record, and worker threads can checkpoint concurrently
//! without coordination. A record carries the campaign identity (the
//! name and manifest hash), the cell's axis coordinates, a derived
//! summary (throughput, DMR fault coverage, transition overhead), and
//! the *lossless* merged metrics registry
//! ([`mmm_trace::registry_to_json`]), so the cross-run aggregate can
//! be rebuilt bit-for-bit from disk alone.
//!
//! Determinism note: seed reports are cloned and their `wall_seconds`
//! zeroed before `metrics()` is taken, so the host-speed gauge
//! (`run.sim_cycles_per_sec`) never enters a record and two runs of
//! the same cell on different machines produce identical bytes.

use std::fs;
use std::path::{Path, PathBuf};

use mmm_core::RunResult;
use mmm_trace::{registry_to_json, Json, MetricsRegistry};

use super::manifest::{CellSpec, Manifest};

/// The `kind` tag every cell record carries.
pub const CELL_KIND: &str = "mmm-campaign-cell";

/// One derived per-cell summary row, computed from the merged
/// counters (never from host timing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellSummary {
    /// Committed user instructions per simulated cycle (the paper's
    /// work metric, machine-wide).
    pub throughput: f64,
    /// Fraction of committed instructions that ran under DMR
    /// protection: `1 - unprotected / (user + os)`.
    pub coverage: f64,
    /// Mode-transition cost as a fraction of total core-cycles:
    /// `sum(transition.*_cycles) / (run.cycles * cores)`.
    pub transition_overhead: f64,
    /// Faults injected across all seeds.
    pub faults_injected: u64,
    /// Faults caught by any protection mechanism (DMR comparison, PAB
    /// wild-store block, privileged-state entry check).
    pub faults_detected: u64,
}

impl CellSummary {
    /// Derives the summary from a merged metrics registry plus the
    /// cell's core count.
    pub fn derive(m: &MetricsRegistry, cores: u64) -> CellSummary {
        let cycles = m.counter("run.cycles");
        let user = m.counter("core.commits_user");
        let os = m.counter("core.commits_os");
        let unprotected = m.counter("core.commits_unprotected");
        let committed = user + os;
        let transition_cycles: u128 = [
            "transition.enter_dmr_cycles",
            "transition.leave_dmr_cycles",
            "transition.dmr_switch_cycles",
            "transition.perf_switch_cycles",
        ]
        .iter()
        .filter_map(|name| m.histogram(name))
        .map(|h| h.sum())
        .sum();
        let core_cycles = cycles as u128 * cores as u128;
        CellSummary {
            throughput: if cycles > 0 {
                user as f64 / cycles as f64
            } else {
                0.0
            },
            coverage: if committed > 0 {
                1.0 - unprotected as f64 / committed as f64
            } else {
                1.0
            },
            transition_overhead: if core_cycles > 0 {
                transition_cycles as f64 / core_cycles as f64
            } else {
                0.0
            },
            faults_injected: m.counter("fault.injected"),
            faults_detected: m.counter("fault.detected_by_dmr")
                + m.counter("fault.wild_stores_blocked")
                + m.counter("fault.privreg_caught_at_entry"),
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("throughput", Json::F64(self.throughput)),
            ("coverage", Json::F64(self.coverage)),
            ("transition_overhead", Json::F64(self.transition_overhead)),
            ("faults_injected", Json::U64(self.faults_injected)),
            ("faults_detected", Json::U64(self.faults_detected)),
        ])
    }

    /// Reads a summary back from a record's `summary` object.
    pub fn from_json(v: &Json) -> Result<CellSummary, String> {
        let f = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("summary missing number {key:?}"))
        };
        let u = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("summary missing integer {key:?}"))
        };
        Ok(CellSummary {
            throughput: f("throughput")?,
            coverage: f("coverage")?,
            transition_overhead: f("transition_overhead")?,
            faults_injected: u("faults_injected")?,
            faults_detected: u("faults_detected")?,
        })
    }
}

/// The fault sites in canonical report order (matching
/// `FaultSite::all()` on the core side).
pub const FAULT_SITES: [&str; 3] = ["core_logic", "tlb_permission", "priv_reg"];

/// Per-site forensic outcome counts read from a merged registry's
/// `fault.site.*` counters, as a JSON object keyed by site. A sweep's
/// aggregate carries one of these per cell (and one summed across
/// cells), so coverage-vs-site surfaces fall straight out of
/// `aggregate.json`.
pub fn site_outcomes_json(m: &MetricsRegistry) -> Json {
    Json::Obj(
        FAULT_SITES
            .iter()
            .map(|site| {
                let c = |what: &str| m.counter(&format!("fault.site.{site}.{what}"));
                (
                    site.to_string(),
                    Json::obj([
                        ("injected", Json::U64(c("injected"))),
                        ("detected", Json::U64(c("detected"))),
                        ("masked", Json::U64(c("masked"))),
                        ("escaped", Json::U64(c("escaped"))),
                    ]),
                )
            })
            .collect(),
    )
}

/// Merges a cell's per-seed reports into one deterministic registry:
/// every report is cloned with `wall_seconds` zeroed so no
/// host-timing gauge leaks in.
pub fn cell_registry(run: &RunResult) -> MetricsRegistry {
    let mut merged = MetricsRegistry::new();
    for report in &run.reports {
        let mut r = report.clone();
        r.wall_seconds = 0.0;
        merged.merge(&r.metrics());
    }
    merged
}

/// Builds the full checkpoint record for one completed cell.
pub fn cell_record(manifest: &Manifest, hash: &str, spec: &CellSpec, run: &RunResult) -> Json {
    let merged = cell_registry(run);
    let cores = spec.cell.experiment.cfg.cores as u64;
    let summary = CellSummary::derive(&merged, cores);
    Json::obj([
        ("kind", Json::str(CELL_KIND)),
        ("campaign", Json::str(manifest.name.clone())),
        ("manifest_hash", Json::str(hash)),
        ("id", Json::U64(spec.id as u64)),
        ("axes", spec.axes_json()),
        ("summary", summary.to_json()),
        ("metrics", registry_to_json(&merged)),
    ])
}

/// The on-disk path of a cell's record inside the campaign directory.
pub fn cell_path(dir: &Path, id: usize) -> PathBuf {
    dir.join("cells").join(format!("cell-{id:05}.json"))
}

/// Writes a cell record atomically: temp file in the same directory,
/// then `rename`, so readers (and resumed campaigns) only ever see
/// whole records.
pub fn write_cell(dir: &Path, id: usize, record: &Json) -> std::io::Result<()> {
    let path = cell_path(dir, id);
    let tmp = path.with_extension("json.tmp");
    let mut text = record.render();
    text.push('\n');
    fs::write(&tmp, text)?;
    fs::rename(&tmp, &path)
}

/// A record read back from disk during resume or merge.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// The cell's grid id.
    pub id: usize,
    /// The full record document.
    pub doc: Json,
}

/// Validates that a parsed document is a cell record of *this*
/// campaign (kind, name, manifest hash, id range all match).
pub fn validate_record(
    doc: &Json,
    manifest: &Manifest,
    hash: &str,
    cell_count: usize,
) -> Result<usize, String> {
    let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("");
    if kind != CELL_KIND {
        return Err(format!("not a cell record (kind {kind:?})"));
    }
    let campaign = doc.get("campaign").and_then(Json::as_str).unwrap_or("");
    if campaign != manifest.name {
        return Err(format!(
            "record belongs to campaign {campaign:?}, expected {:?}",
            manifest.name
        ));
    }
    let rec_hash = doc
        .get("manifest_hash")
        .and_then(Json::as_str)
        .unwrap_or("");
    if rec_hash != hash {
        return Err(format!(
            "manifest hash mismatch: record has {rec_hash}, manifest is {hash} \
             (the sweep definition changed — use a fresh output directory)"
        ));
    }
    let id = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("record has no integer \"id\"")? as usize;
    if id >= cell_count {
        return Err(format!(
            "record id {id} out of range (grid has {cell_count} cells)"
        ));
    }
    if doc.get("metrics").is_none() || doc.get("summary").is_none() {
        return Err(format!("record {id} is missing metrics or summary"));
    }
    Ok(id)
}

/// Scans the campaign directory for valid completed-cell records, in
/// id order. Unreadable, foreign or duplicate records are hard errors —
/// resuming over a half-trusted directory corrupts the aggregate.
pub fn scan_records(
    dir: &Path,
    manifest: &Manifest,
    hash: &str,
    cell_count: usize,
) -> Result<Vec<CellRecord>, String> {
    let cells_dir = dir.join("cells");
    let mut out = Vec::new();
    let entries = match fs::read_dir(&cells_dir) {
        Ok(e) => e,
        Err(_) => return Ok(out), // no cells yet: fresh campaign
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", cells_dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        // Leftover temp files from a kill mid-write are expected; the
        // rename never happened, so the cell is simply not done.
        if name.ends_with(".tmp") {
            continue;
        }
        if !name.ends_with(".json") {
            continue;
        }
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let id = validate_record(&doc, manifest, hash, cell_count)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(CellRecord { id, doc });
    }
    out.sort_by_key(|r| r.id);
    if let Some(w) = out.windows(2).find(|w| w[0].id == w[1].id) {
        return Err(format!("two records of cell {}", w[0].id));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_derives_from_counters() {
        let mut m = MetricsRegistry::new();
        m.count("run.cycles", 1000);
        m.count("core.commits_user", 800);
        m.count("core.commits_os", 200);
        m.count("core.commits_unprotected", 250);
        m.count("fault.injected", 4);
        m.count("fault.detected_by_dmr", 2);
        m.count("fault.wild_stores_blocked", 1);
        let s = CellSummary::derive(&m, 4);
        assert!((s.throughput - 0.8).abs() < 1e-12);
        assert!((s.coverage - 0.75).abs() < 1e-12);
        assert_eq!(s.transition_overhead, 0.0);
        assert_eq!(s.faults_injected, 4);
        assert_eq!(s.faults_detected, 3);
        // Round-trips through JSON bit-for-bit.
        let back = CellSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_registry_summary_is_benign() {
        let s = CellSummary::derive(&MetricsRegistry::new(), 16);
        assert_eq!(s.throughput, 0.0);
        assert_eq!(s.coverage, 1.0);
        assert_eq!(s.transition_overhead, 0.0);
    }

    #[test]
    fn atomic_write_then_scan_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "mmm-campaign-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("cells")).unwrap();

        let manifest = Manifest::parse(r#"{"name":"t","grid":{"cores":[4,8]}}"#).unwrap();
        let hash = manifest.hash();
        let record = Json::obj([
            ("kind", Json::str(CELL_KIND)),
            ("campaign", Json::str("t")),
            ("manifest_hash", Json::str(hash.clone())),
            ("id", Json::U64(1)),
            ("axes", Json::obj([])),
            ("summary", Json::obj([])),
            ("metrics", Json::obj([])),
        ]);
        write_cell(&dir, 1, &record).unwrap();
        // A torn temp file must be ignored, not fatal.
        fs::write(dir.join("cells").join("cell-00000.json.tmp"), "{trunc").unwrap();

        let recs = scan_records(&dir, &manifest, &hash, 2).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, 1);

        // So is a second record of one cell.
        fs::copy(cell_path(&dir, 1), dir.join("cells").join("cell-1.json")).unwrap();
        let err = scan_records(&dir, &manifest, &hash, 2).unwrap_err();
        assert!(err.contains("two records of cell 1"), "{err}");
        fs::remove_file(dir.join("cells").join("cell-1.json")).unwrap();

        // A record from a different manifest is a hard error.
        let other = Manifest::parse(r#"{"name":"t","grid":{"cores":[4]}}"#).unwrap();
        let err = scan_records(&dir, &other, &other.hash(), 1).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");

        let _ = fs::remove_dir_all(&dir);
    }
}
