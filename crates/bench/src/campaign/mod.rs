//! The design-space campaign engine.
//!
//! A *campaign* is a sweep over the paper's design-space axes,
//! described by a JSON [`Manifest`], executed as
//! independent cells through the core work-queue
//! ([`mmm_core::run_cells`]), checkpointed per cell with atomic
//! renames ([`checkpoint`]), and merged into one deterministic
//! aggregate plus a Pareto-frontier report ([`merge`]).
//!
//! The contract that makes campaigns *resumable*: the aggregate is a
//! pure function of the manifest and the set of completed cell
//! records on disk. A campaign killed at any point — even mid-write,
//! thanks to the temp-file/rename protocol — resumes by scanning the
//! output directory, re-running only the missing cells, and produces
//! a byte-identical `aggregate.json`. CI kills a real campaign and
//! proves exactly that on every push.

pub mod checkpoint;
pub mod manifest;
pub mod merge;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mmm_core::{env_threads, run_cells};
use mmm_trace::Json;

pub use manifest::Manifest;

use manifest::CellSpec;
use merge::{aggregate_rows, AggregateRow};

/// Knobs for one [`run_campaign`] invocation.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Worker threads (0: `MMM_THREADS` or available parallelism).
    pub threads: usize,
    /// Stop after completing this many *new* cells (used by the CI
    /// kill/resume gate; `None`: run to completion).
    pub limit: Option<usize>,
    /// Suppress stdout progress lines and the Pareto table. The
    /// one-line-per-cell stderr progress stream always flows — a long
    /// sweep stays watchable even when stdout carries data.
    pub quiet: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: 0,
            limit: None,
            quiet: true,
        }
    }
}

/// What one invocation did.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Grid size.
    pub cells_total: usize,
    /// Cells found already checkpointed before this invocation ran.
    pub resumed: usize,
    /// Cells newly executed by this invocation.
    pub ran: usize,
    /// Cells done after this invocation (resumed + ran).
    pub cells_done: usize,
    /// Whether the whole grid is now complete.
    pub complete: bool,
    /// Where the merged aggregate was written.
    pub aggregate_path: PathBuf,
}

/// Writes `text` to `path` via a temp file and atomic rename.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Runs (or resumes) a campaign in `out_dir`.
///
/// The directory layout:
///
/// ```text
/// out_dir/
///   manifest.json    canonicalized manifest (provenance)
///   cells/           one cell-<id>.json per completed cell
///   aggregate.json   merged cross-run export + Pareto report
/// ```
pub fn run_campaign(
    m: &Manifest,
    out_dir: &Path,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let hash = m.hash();
    let cells = m.cells()?;
    let cells_dir = out_dir.join("cells");
    fs::create_dir_all(&cells_dir).map_err(|e| format!("creating {}: {e}", cells_dir.display()))?;
    let mut manifest_text = m.canonical_json().render();
    manifest_text.push('\n');
    write_atomic(&out_dir.join("manifest.json"), &manifest_text)
        .map_err(|e| format!("writing manifest.json: {e}"))?;

    // Resume: anything already checkpointed (and provably ours) is done.
    let existing = checkpoint::scan_records(out_dir, m, &hash, cells.len())?;
    let done: Vec<bool> = {
        let mut v = vec![false; cells.len()];
        for r in &existing {
            v[r.id] = true;
        }
        v
    };
    let resumed = existing.len();

    let mut pending: Vec<&CellSpec> = cells.iter().filter(|c| !done[c.id]).collect();
    if let Some(limit) = opts.limit {
        pending.truncate(limit);
    }
    if !opts.quiet {
        println!(
            "campaign {:?} ({}): {} cells, {} done, running {}",
            m.name,
            hash,
            cells.len(),
            resumed,
            pending.len()
        );
    }

    let threads = if opts.threads > 0 {
        opts.threads
    } else {
        env_threads()
    };
    let to_run: Vec<mmm_core::Cell> = pending.iter().map(|s| s.cell.clone()).collect();
    let io_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let total = to_run.len();
    let completed = AtomicUsize::new(0);
    run_cells(&to_run, threads, |k, run| {
        let spec = pending[k];
        let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!(
                    "[{n}/{total}] cell-{:05} {} err: {e}",
                    spec.id,
                    spec.label()
                );
                return;
            }
        };
        let record = checkpoint::cell_record(m, &hash, spec, run);
        if let Err(e) = checkpoint::write_cell(out_dir, spec.id, &record) {
            eprintln!(
                "[{n}/{total}] cell-{:05} {} err: {e}",
                spec.id,
                spec.label()
            );
            io_errors
                .lock()
                .unwrap()
                .push(format!("cell {}: {e}", spec.id));
            return;
        }
        eprintln!("[{n}/{total}] cell-{:05} {} ok", spec.id, spec.label());
        if !opts.quiet {
            println!("  done cell {:>5}  {}", spec.id, spec.label());
        }
    })
    .map_err(|e| format!("campaign execution failed: {e}"))?;
    let io_errors = io_errors.into_inner().unwrap();
    if !io_errors.is_empty() {
        return Err(format!(
            "checkpoint writes failed: {}",
            io_errors.join("; ")
        ));
    }

    // The aggregate is rebuilt from disk, never from memory: that is
    // what makes interrupted and uninterrupted campaigns converge to
    // identical bytes.
    let records = checkpoint::scan_records(out_dir, m, &hash, cells.len())?;
    let aggregate = merge::build_aggregate(m, &hash, cells.len(), &records)?;
    let mut text = aggregate.render();
    text.push('\n');
    let aggregate_path = out_dir.join("aggregate.json");
    write_atomic(&aggregate_path, &text)
        .map_err(|e| format!("writing {}: {e}", aggregate_path.display()))?;

    if !opts.quiet {
        print_pareto(&aggregate);
    }
    Ok(CampaignOutcome {
        cells_total: cells.len(),
        resumed,
        ran: pending.len(),
        cells_done: records.len(),
        complete: records.len() == cells.len(),
        aggregate_path,
    })
}

/// Prints the Pareto-frontier table for an aggregate document.
pub fn print_pareto(aggregate: &Json) {
    let rows = match aggregate_rows(aggregate) {
        Ok(r) => r,
        Err(_) => return,
    };
    let frontier: Vec<&AggregateRow> = {
        let ids = merge::pareto_frontier(&rows);
        rows.iter().filter(|r| ids.contains(&r.id)).collect()
    };
    println!();
    println!(
        "Pareto frontier ({} of {} cells):",
        frontier.len(),
        rows.len()
    );
    println!(
        "  {:>5}  {:>10}  {:>9}  {:>10}  axes",
        "cell", "throughput", "coverage", "trans.ovhd"
    );
    for r in frontier {
        let axes = r
            .axes
            .as_obj()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.render().trim_matches('"')))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        println!(
            "  {:>5}  {:>10.4}  {:>9.4}  {:>10.6}  {}",
            r.id, r.summary.throughput, r.summary.coverage, r.summary.transition_overhead, axes
        );
    }
}
