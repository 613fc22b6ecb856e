//! Cross-run aggregation: cell records → one deterministic
//! `aggregate.json` plus the Pareto-frontier report.
//!
//! The aggregate is *always* rebuilt from the on-disk records, sorted
//! by cell id — never from in-memory results — so its bytes are a
//! pure function of (manifest, completed cells). That is the keystone
//! property the CI gate checks: kill a campaign anywhere, resume it,
//! and the merged aggregate is byte-identical to an uninterrupted
//! run's.
//!
//! The Pareto report ranks cells on the paper's three-way trade-off:
//! maximize throughput (committed user IPC), maximize fault coverage
//! (fraction of commits under DMR), minimize transition overhead
//! (mode-switch cycles as a fraction of core-cycles). A cell is on
//! the frontier iff no other completed cell is at least as good on
//! all three axes and strictly better on one.

use mmm_trace::{registry_from_json, registry_to_json, Json, MetricsRegistry};

use super::checkpoint::{site_outcomes_json, CellRecord, CellSummary};
use super::manifest::Manifest;

/// The `kind` tag the aggregate document carries.
pub const AGGREGATE_KIND: &str = "mmm-campaign-aggregate";

/// One row of the aggregate's `cells` array, decoded for reporting.
#[derive(Clone, Debug)]
pub struct AggregateRow {
    /// Cell id.
    pub id: usize,
    /// Axis coordinates (JSON object, canonical axis order).
    pub axes: Json,
    /// Derived summary.
    pub summary: CellSummary,
}

/// `true` iff `a` dominates `b` in the (throughput ↑, coverage ↑,
/// transition overhead ↓) order.
fn dominates(a: &CellSummary, b: &CellSummary) -> bool {
    let ge = a.throughput >= b.throughput
        && a.coverage >= b.coverage
        && a.transition_overhead <= b.transition_overhead;
    let strict = a.throughput > b.throughput
        || a.coverage > b.coverage
        || a.transition_overhead < b.transition_overhead;
    ge && strict
}

/// Ids of the non-dominated cells, in id order.
pub fn pareto_frontier(rows: &[AggregateRow]) -> Vec<usize> {
    rows.iter()
        .filter(|r| {
            !rows
                .iter()
                .any(|o| o.id != r.id && dominates(&o.summary, &r.summary))
        })
        .map(|r| r.id)
        .collect()
}

/// Builds the aggregate document from validated records (already
/// sorted, one per cell, by [`super::checkpoint::scan_records`]).
pub fn build_aggregate(
    manifest: &Manifest,
    hash: &str,
    cell_count: usize,
    records: &[CellRecord],
) -> Result<Json, String> {
    let mut merged = MetricsRegistry::new();
    let mut rows = Vec::with_capacity(records.len());
    let mut fault_sites = Vec::with_capacity(records.len());
    for rec in records {
        let metrics = rec
            .doc
            .get("metrics")
            .ok_or_else(|| format!("cell {} has no metrics", rec.id))?;
        let registry = registry_from_json(metrics).map_err(|e| format!("cell {}: {e}", rec.id))?;
        // Per-cell forensic outcome counts, derived from the lossless
        // registry (the single source of truth) rather than stored
        // separately — so records checkpointed before this field
        // existed still aggregate identically.
        fault_sites.push(site_outcomes_json(&registry));
        merged.merge(&registry);
        let summary = rec
            .doc
            .get("summary")
            .ok_or_else(|| format!("cell {} has no summary", rec.id))
            .and_then(CellSummary::from_json)
            .map_err(|e| format!("cell {}: {e}", rec.id))?;
        rows.push(AggregateRow {
            id: rec.id,
            axes: rec
                .doc
                .get("axes")
                .cloned()
                .unwrap_or(Json::Obj(Vec::new())),
            summary,
        });
    }
    let pareto = pareto_frontier(&rows);
    let cells = Json::Arr(
        rows.iter()
            .zip(&fault_sites)
            .map(|(r, sites)| {
                Json::obj([
                    ("id", Json::U64(r.id as u64)),
                    ("axes", r.axes.clone()),
                    ("summary", r.summary.to_json()),
                    ("fault_sites", sites.clone()),
                    ("pareto", Json::Bool(pareto.contains(&r.id))),
                ])
            })
            .collect(),
    );
    Ok(Json::obj([
        ("kind", Json::str(AGGREGATE_KIND)),
        ("campaign", Json::str(manifest.name.clone())),
        ("manifest_hash", Json::str(hash)),
        ("manifest", manifest.canonical_json()),
        ("cells_total", Json::U64(cell_count as u64)),
        ("cells_done", Json::U64(records.len() as u64)),
        ("complete", Json::Bool(records.len() == cell_count)),
        ("cells", cells),
        (
            "pareto",
            Json::Arr(pareto.iter().map(|&id| Json::U64(id as u64)).collect()),
        ),
        ("fault_sites", site_outcomes_json(&merged)),
        ("merged_metrics", registry_to_json(&merged)),
    ]))
}

/// Decodes the rows back out of an aggregate document (used by the
/// Pareto table printer and by `mmm-inspect campaign`).
pub fn aggregate_rows(doc: &Json) -> Result<Vec<AggregateRow>, String> {
    let cells = match doc.get("cells") {
        Some(Json::Arr(items)) => items,
        _ => return Err("aggregate has no \"cells\" array".to_string()),
    };
    cells
        .iter()
        .map(|c| {
            let id = c
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("cell row without id")? as usize;
            let summary = c
                .get("summary")
                .ok_or_else(|| format!("cell {id} row without summary"))
                .and_then(CellSummary::from_json)?;
            Ok(AggregateRow {
                id,
                axes: c.get("axes").cloned().unwrap_or(Json::Obj(Vec::new())),
                summary,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: usize, tp: f64, cov: f64, ov: f64) -> AggregateRow {
        AggregateRow {
            id,
            axes: Json::Obj(Vec::new()),
            summary: CellSummary {
                throughput: tp,
                coverage: cov,
                transition_overhead: ov,
                faults_injected: 0,
                faults_detected: 0,
            },
        }
    }

    #[test]
    fn pareto_keeps_only_non_dominated_cells() {
        let rows = vec![
            row(0, 1.0, 0.5, 0.01),  // fast, low coverage
            row(1, 0.5, 1.0, 0.02),  // slow, full coverage
            row(2, 0.4, 0.9, 0.03),  // dominated by 1 on all axes
            row(3, 0.7, 0.8, 0.005), // cheap transitions
        ];
        assert_eq!(pareto_frontier(&rows), vec![0, 1, 3]);
    }

    #[test]
    fn identical_cells_all_stay_on_the_frontier() {
        let rows = vec![row(0, 1.0, 1.0, 0.0), row(1, 1.0, 1.0, 0.0)];
        assert_eq!(pareto_frontier(&rows), vec![0, 1]);
    }

    #[test]
    fn aggregate_is_deterministic_and_decodable() {
        let manifest = Manifest::parse(r#"{"name":"agg","grid":{"cores":[4,8]}}"#).unwrap();
        let hash = manifest.hash();
        let mut m = MetricsRegistry::new();
        m.count("run.cycles", 100);
        m.count("core.commits_user", 40);
        let rec = |id: u64| CellRecord {
            id: id as usize,
            doc: Json::obj([
                ("id", Json::U64(id)),
                ("axes", Json::obj([("cores", Json::U64(4 << id))])),
                ("summary", CellSummary::derive(&m, 4).to_json()),
                ("metrics", registry_to_json(&m)),
            ]),
        };
        let records = vec![rec(0), rec(1)];
        let a = build_aggregate(&manifest, &hash, 2, &records).unwrap();
        let b = build_aggregate(&manifest, &hash, 2, &records).unwrap();
        assert_eq!(a.render(), b.render(), "same records, same bytes");
        assert_eq!(a.get("complete"), Some(&Json::Bool(true)));
        // Merged counters are the sum over cells.
        let merged = registry_from_json(a.get("merged_metrics").unwrap()).unwrap();
        assert_eq!(merged.counter("run.cycles"), 200);
        let rows = aggregate_rows(&a).unwrap();
        assert_eq!(rows.len(), 2);
        // Partial record set: not complete.
        let partial = build_aggregate(&manifest, &hash, 2, &records[..1]).unwrap();
        assert_eq!(partial.get("complete"), Some(&Json::Bool(false)));
        assert_eq!(partial.get("cells_done"), Some(&Json::U64(1)));
    }
}
