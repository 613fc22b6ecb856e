//! Run-export diff tool and regression gate.
//!
//! `mmm-inspect` loads two run exports of one kind, checks each,
//! flattens each into `metric -> number`, and diffs them against a
//! threshold:
//!
//! ```text
//! mmm-inspect A B [--threshold 0.15] [--only SUBSTR]... [--json] [--force]
//! mmm-inspect profile A B [--threshold 5] [--only SUBSTR]... [--json] [--force]
//! mmm-inspect campaign A B [--threshold 0] [--only SUBSTR]... [--json] [--force]
//! mmm-inspect faults A B [--threshold 0.05] [--only SUBSTR]... [--json] [--force]
//! ```
//!
//! Without a kind word, the first line tells a report export
//! (`results/<bin>.jsonl`) from a metrics time-series
//! (`results/<bin>.metrics.jsonl`); both are gated on the relative
//! change of each metric.
//!
//! The `profile` kind diffs the self-profiler's phase shares between
//! two profile exports (`results/<bin>.profile.jsonl`, written by a
//! `--json` run under `MMM_PROFILE=1`, one line per report). As in a
//! report export of several runs, each run's metrics are prefixed
//! `#i.`. Shares are percentages of the measured window, so the
//! threshold is in percentage *points* (default 5). Wheel
//! introspection counters (wake hits, skip efficiency) are shown but
//! not gated.
//!
//! The `campaign` kind diffs two `aggregate.json` campaign exports,
//! each in the directory `mmm-campaign` wrote: per-cell summaries,
//! Pareto membership, and the lossless merged metrics registry.
//! Aggregates are deterministic, so the default threshold is **0**;
//! CI uses this to prove that an interrupted-then-resumed campaign
//! matches an uninterrupted one exactly.
//!
//! The `faults` kind diffs two fault-forensics exports
//! (`results/<bin>.faults.jsonl`, written under `MMM_FORENSICS=1`
//! beside `<bin>.jsonl`): the share of each site's records landing on
//! each verdict is gated on its point delta (default 0.05), while
//! detection-latency percentiles and raw counts are shown ungated.
//!
//! Every kind ends with a summary line, `compared N metrics, skipped M
//! absent-in-one-side`: a metric present in only one file is skipped,
//! not compared against zero; one that is 0 in both is not compared.
//!
//! The two files must describe comparable runs: the identity block
//! (config, benchmark, scheduler, thread count and cycles of every
//! run; the cadence of a series; the sweep of a campaign) must match
//! or the tool refuses with exit code 2 (`--force` compares anyway).
//! The host-dependent `sim_cycles_per_sec` gauge is compared only when
//! `--only`, which restricts the comparison to metrics containing a
//! given substring, names it.
//!
//! Loading is checking, so a self-diff (`mmm-inspect X X`) checks X.
//! Exit 2 follows a file that is unreadable, empty or not JSON (nesting
//! past [`mmm_trace::json::MAX_DEPTH`] included), and, by kind:
//!
//! - report: `config`, `benchmark`, `cycles`, `vcpus` or `metrics`
//!   missing; `cycles` 0; no vcpu, or one without `vcpu`, `vm` or
//!   `user_commits`; a metrics section missing; `run.cycles` not
//!   `cycles`; a counter that is not a non-negative integer;
//! - series: a header without a positive `interval`, a non-empty
//!   `config` and `benchmark`, or the right `samples` count; an `at`
//!   that does not increase; a counter delta that is not a positive
//!   integer; a gauge that is not a number; a histogram without a
//!   positive `count`, a non-negative `mean` and `max`, or
//!   `[index, count]` buckets that sum to `count`;
//! - profile: a section missing; a phase share negative or not finite;
//!   a non-empty window's shares not summing to 100 ± 0.5; a skip
//!   efficiency outside [0, 1];
//! - campaign: a `manifest.json` or cell record beside it that
//!   `mmm-campaign` refuses; another name or manifest hash; a
//!   `cells_done` unlike the count of records or of rows; a
//!   `cells_total` or `complete` that disagrees; rows out of id order
//!   or unlike their records' summaries; a summary number negative or
//!   not finite; a `pareto` list unlike the rows' flags, or empty; a
//!   host-dependent gauge;
//! - faults: header or record keys unlike the writer's; an unknown
//!   site, mode or verdict; a run, id, cycle or core that is not a
//!   non-negative integer; a latency off a `detected_by_*` record; a
//!   reason missing from a masked or pending record, or present on
//!   another; escape evidence missing from an `escaped` record, or
//!   present on another; a malformed chain link or black-box entry; a
//!   header whose record count is wrong, or whose identity,
//!   `fault.site.*` counters or latency counts disagree with its line
//!   in the paired `<bin>.jsonl`.
//!
//! Exit codes: 0 — no compared metric crossed the threshold; 1 — at
//! least one did; 2 — unusable input or identity mismatch.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use mmm_bench::campaign::checkpoint::{scan_records, CellRecord, CellSummary, FAULT_SITES};
use mmm_bench::campaign::merge::AGGREGATE_KIND;
use mmm_bench::campaign::Manifest;
use mmm_bench::export::paired_report;
use mmm_core::report::print_table;
use mmm_trace::{
    Json, FAULTS_RUN_KEYS, FAULTS_RUN_KIND, FAULT_KIND, FAULT_MODES, FAULT_RECORD_KEYS,
    FAULT_VERDICTS, METRIC_SECTIONS,
};

/// Returns `Err(format!(..))` from the enclosing function unless
/// `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Parsed command line.
struct Options {
    /// Baseline export path.
    a: String,
    /// Candidate export path.
    b: String,
    /// The kind named on the command line; `None` for a report or
    /// metrics-series export, told apart by its first line.
    kind: Option<Kind>,
    /// Gate: the relative change (0.15 = 15%) of report, series and
    /// campaign metrics; the point delta of profile and fault shares.
    threshold: f64,
    /// Substring filters; empty means "every default metric".
    only: Vec<String>,
    /// Emit a JSON verdict instead of tables.
    json: bool,
    /// Compare even when the identity blocks differ.
    force: bool,
}

fn usage() -> String {
    "usage: mmm-inspect [profile|campaign|faults] <A> <B> [--threshold F] [--only SUBSTR]... \
     [--json] [--force]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut paths = Vec::new();
    let mut kind = None;
    let mut threshold = None;
    let mut only = Vec::new();
    let (mut json, mut force) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--threshold needs a value".to_string())?;
                threshold = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| format!("bad threshold {v:?}"))?,
                );
            }
            "--only" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--only needs a value".to_string())?;
                only.push(v.clone());
            }
            "--json" => json = true,
            "--force" => force = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}\n{}", usage()))
            }
            "profile" if paths.is_empty() && kind.is_none() => kind = Some(Kind::Profile),
            "campaign" if paths.is_empty() && kind.is_none() => kind = Some(Kind::Campaign),
            "faults" if paths.is_empty() && kind.is_none() => kind = Some(Kind::Faults),
            other => paths.push(other.to_string()),
        }
    }
    let [a, b] = <[String; 2]>::try_from(paths).map_err(|_| usage())?;
    Ok(Options {
        a,
        b,
        kind,
        threshold: threshold.unwrap_or(kind.unwrap_or(Kind::Report).default_threshold()),
        only,
        json,
        force,
    })
}

/// The kind of export a file holds, which decides how it is compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Per-seed `SystemReport` lines (`results/<bin>.jsonl`).
    Report,
    /// A sampled metrics time-series (`results/<bin>.metrics.jsonl`).
    Series,
    /// Self-profiler phase shares, one line per report
    /// (`results/<bin>.profile.jsonl`).
    Profile,
    /// A campaign aggregate (`aggregate.json`).
    Campaign,
    /// A fault-forensics export (`results/<bin>.faults.jsonl`).
    Faults,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Report => "report",
            Kind::Series => "metrics-series",
            Kind::Profile => "profile",
            Kind::Campaign => "campaign",
            Kind::Faults => "faults",
        }
    }

    /// The `--threshold` default. Campaign aggregates are
    /// deterministic, so any drift fails; phase shares are
    /// percentages and outcome shares fractions, so their defaults
    /// are five points of each.
    fn default_threshold(self) -> f64 {
        match self {
            Kind::Report | Kind::Series => 0.15,
            Kind::Profile => 5.0,
            Kind::Campaign => 0.0,
            Kind::Faults => 0.05,
        }
    }

    /// Whether the gated metrics are shares, compared by their point
    /// delta: a relative change of a tiny share is noise.
    fn shares(self) -> bool {
        matches!(self, Kind::Profile | Kind::Faults)
    }

    /// Whether `name` is gated. Wheel introspection rides along with
    /// phase shares, and counts and latencies with outcome shares,
    /// shown but never failing.
    fn gates(self, name: &str) -> bool {
        match self {
            Kind::Profile => !name.contains("wheel."),
            Kind::Faults => name.starts_with("share."),
            Kind::Report | Kind::Series | Kind::Campaign => true,
        }
    }
}

/// Flattened numeric metrics, by name.
type Metrics = BTreeMap<String, f64>;

/// One loaded export: its kind, the identity block that must match for
/// two files to be comparable, and the flattened numeric metrics.
struct RunFile {
    kind: Kind,
    identity: Vec<(String, String)>,
    metrics: Metrics,
}

/// The non-empty lines of a JSONL export, parsed.
fn read_jsonl(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(at(path, i)))
        .collect::<Result<_, _>>()?;
    if lines.is_empty() {
        return Err(format!("{path}: empty file"));
    }
    Ok(lines)
}

/// Prefixes an error with its place: `path`, line `i + 1`.
fn at(path: &str, i: usize) -> impl Fn(String) -> String + '_ {
    move |e| format!("{path}:{}: {e}", i + 1)
}

/// Loads a report or metrics-series export, detected from its first
/// line.
fn load(path: &str) -> Result<RunFile, String> {
    let lines = read_jsonl(path)?;
    if lines[0].get("interval").is_some() && lines[0].get("samples").is_some() {
        series_file(path, &lines)
    } else if lines[0].get("metrics").is_some() {
        runs_file(path, &lines, Kind::Report, add_report)
    } else {
        Err(format!("{path}: not a recognised run export"))
    }
}

fn ident_str(v: Option<&Json>) -> String {
    match v {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "<missing>".to_string(),
    }
}

/// The identity fields of a report line, and of the profile line that
/// pairs with it.
const RUN_IDENTITY: [&str; 5] = ["config", "benchmark", "scheduler", "threads", "cycles"];

/// The name prefix of run `i` in a file of `runs` runs: `#i.` when
/// there are several, nothing for one.
fn run_prefix(i: usize, runs: usize) -> String {
    if runs > 1 {
        format!("#{i}.")
    } else {
        String::new()
    }
}

/// `obj[key]`, or an error naming the missing key.
fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("no {key:?}"))
}

/// `obj[key]` read by `read`, or an error naming the key and its value.
fn typed<'a, T>(obj: &'a Json, key: &str, read: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    let v = field(obj, key)?;
    read(v).ok_or_else(|| format!("{key} is {v}"))
}

/// `obj[key]` as one of the `known` labels.
fn label<'a>(obj: &'a Json, key: &str, known: &[&str]) -> Result<&'a str, String> {
    let v = typed(obj, key, Json::as_str)?;
    ensure!(known.contains(&v), "{key} {v:?} is not one of {known:?}");
    Ok(v)
}

/// Checks that `obj` has exactly the `keys` its writer declares.
fn exact_keys(obj: &Json, keys: &[&str]) -> Result<(), String> {
    let pairs = obj.as_obj().unwrap_or(&[]);
    let have: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let missing: Vec<_> = keys.iter().filter(|k| !have.contains(k)).collect();
    let extra: Vec<_> = have.iter().filter(|k| !keys.contains(k)).collect();
    ensure!(missing.is_empty(), "missing keys {missing:?}");
    ensure!(extra.is_empty(), "unknown keys {extra:?}");
    Ok(())
}

/// Checks one report line as `SystemReport::to_json` writes it and
/// adds its metrics to `metrics`, each name after `prefix`.
fn add_report(line: &Json, prefix: &str, metrics: &mut Metrics) -> Result<(), String> {
    for key in ["config", "benchmark", "cycles", "vcpus", "metrics"] {
        field(line, key)?;
    }
    let cycles = typed(line, "cycles", Json::as_u64)?;
    ensure!(cycles > 0, "cycles is 0");
    let vcpus = typed(line, "vcpus", Json::as_arr)?;
    ensure!(!vcpus.is_empty(), "vcpus is empty");
    for v in vcpus {
        field(v, "vm")?;
        field(v, "user_commits")?;
        let id = typed(v, "vcpu", Json::as_u64)?;
        for key in ["user_commits", "os_commits", "unprotected_commits"] {
            if let Some(n) = v.get(key).and_then(Json::as_f64) {
                metrics.insert(format!("{prefix}vcpu{id}.{key}"), n);
            }
        }
    }
    let m = field(line, "metrics")?;
    let [counters, gauges, histograms, stats] = METRIC_SECTIONS.map(|s| typed(m, s, Json::as_obj));
    for (name, v) in counters? {
        let n = v.as_u64().ok_or_else(|| format!("counter {name} is {v}"))?;
        metrics.insert(format!("{prefix}{name}"), n as f64);
    }
    let got = metrics.get(&format!("{prefix}run.cycles")).copied();
    ensure!(got == Some(cycles as f64), "run.cycles is not {cycles}");
    for (name, v) in gauges? {
        if let Some(n) = v.as_f64() {
            metrics.insert(format!("{prefix}{name}"), n);
        }
    }
    for (group, fields) in [
        (histograms?, &["count", "mean", "max", "p50", "p99"][..]),
        (stats?, &["count", "mean", "stddev", "ci95"][..]),
    ] {
        for (name, h) in group {
            for field in fields {
                if let Some(n) = h.get(field).and_then(Json::as_f64) {
                    metrics.insert(format!("{prefix}{name}.{field}"), n);
                }
            }
        }
    }
    Ok(())
}

/// Checks and flattens one run's line of a report or profile export,
/// each metric name after the run's prefix.
type AddRun = fn(&Json, &str, &mut Metrics) -> Result<(), String>;

/// Loads a report or profile export, one line per run: `add` checks and
/// flattens each line, and names carry the run prefix ([`run_prefix`]).
fn runs_file(path: &str, lines: &[Json], kind: Kind, add: AddRun) -> Result<RunFile, String> {
    let mut identity = Vec::new();
    let mut metrics = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        let prefix = run_prefix(i, lines.len());
        add(line, &prefix, &mut metrics).map_err(at(path, i))?;
        for k in RUN_IDENTITY {
            identity.push((format!("{prefix}{k}"), ident_str(line.get(k))));
        }
    }
    Ok(RunFile {
        kind,
        identity,
        metrics,
    })
}

/// Checks a series header as `MetricsSeries::to_jsonl` writes it, above
/// `samples` sample lines.
fn check_series_header(header: &Json, samples: usize) -> Result<(), String> {
    let interval = typed(header, "interval", Json::as_u64)?;
    ensure!(interval > 0, "interval is 0");
    for key in ["config", "benchmark"] {
        let v = typed(header, key, Json::as_str)?;
        ensure!(!v.is_empty(), "{key} is empty");
    }
    let promised = typed(header, "samples", Json::as_u64)?;
    ensure!(promised == samples as u64, "samples is not {samples}");
    Ok(())
}

/// Checks one sample line after one at `last` and adds its metrics to
/// the series totals; returns its `at`.
fn add_sample(sample: &Json, last: Option<u64>, metrics: &mut Metrics) -> Result<u64, String> {
    let at = typed(sample, "at", Json::as_u64)?;
    ensure!(last.is_none_or(|l| at > l), "at {at} does not increase");
    for (name, v) in typed(sample, "counters", Json::as_obj)? {
        let delta = v.as_u64().filter(|&d| d > 0);
        let delta = delta.ok_or_else(|| format!("counter {name} is {v}"))?;
        *metrics.entry(name.clone()).or_insert(0.0) += delta as f64;
    }
    for (name, v) in typed(sample, "gauges", Json::as_obj)? {
        let n = v.as_f64().ok_or_else(|| format!("gauge {name} is {v}"))?;
        metrics.insert(name.clone(), n);
    }
    for (name, h) in typed(sample, "histograms", Json::as_obj)? {
        let (count, max) = check_histogram(h).map_err(|e| format!("{name}: {e}"))?;
        *metrics.entry(format!("{name}.count")).or_insert(0.0) += count as f64;
        let e = metrics.entry(format!("{name}.max")).or_insert(0.0);
        *e = e.max(max as f64);
    }
    Ok(at)
}

/// Checks one histogram delta of a series sample; returns its count
/// and max.
fn check_histogram(h: &Json) -> Result<(u64, u64), String> {
    let count = typed(h, "count", Json::as_u64)?;
    ensure!(count > 0, "count is 0");
    let mean = typed(h, "mean", Json::as_f64)?;
    ensure!((0.0..).contains(&mean), "mean is {mean}");
    let max = typed(h, "max", Json::as_u64)?;
    let mut sum = 0u64;
    for b in typed(h, "buckets", Json::as_arr)? {
        let n = match b.as_arr() {
            Some([i, n]) => i.as_u64().and(n.as_u64()).filter(|&n| n > 0),
            _ => None,
        };
        sum = sum.saturating_add(n.ok_or_else(|| format!("bad bucket {b}"))?);
    }
    ensure!(sum == count, "buckets sum to {sum}, not {count}");
    Ok((count, max))
}

/// Loads a metrics time-series, checking its header and every sample
/// ([`add_sample`]), and flattens it to per-metric aggregates: counters
/// sum their per-interval deltas (= the cumulative total), gauges keep
/// their last value, histograms expose the total observation count and
/// the overall max.
fn series_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let (header, samples) = (&lines[0], &lines[1..]);
    check_series_header(header, samples.len()).map_err(at(path, 0))?;
    let identity = ["interval", "config", "benchmark", "samples"]
        .iter()
        .map(|k| (k.to_string(), ident_str(header.get(k))))
        .collect();
    let mut metrics = BTreeMap::new();
    let mut last = None;
    for (i, sample) in samples.iter().enumerate() {
        last = Some(add_sample(sample, last, &mut metrics).map_err(at(path, i + 1))?);
    }
    Ok(RunFile {
        kind: Kind::Series,
        identity,
        metrics,
    })
}

/// Checks one run's line of a profile export (`results/<bin>.profile.jsonl`)
/// and its profile as `ProfileReport::to_json` writes it — the four
/// sections present, every phase share a finite number >= 0, the shares
/// of a non-empty window (`total_nanos` > 0) summing to 100 ± 0.5, and
/// the wheel's `skip_efficiency` in [0, 1] — and adds its phase shares
/// (gated) and its wheel numbers (as `wheel.*`, shown) to `metrics`,
/// each name after `prefix`.
fn add_profile(line: &Json, prefix: &str, metrics: &mut Metrics) -> Result<(), String> {
    let profile = field(line, "profile")?;
    let total = field(profile, "total_nanos")?
        .as_u64()
        .ok_or("total_nanos is not a non-negative integer")?;
    field(profile, "phase_nanos")?;
    let shares = field(profile, "phase_shares")?
        .as_obj()
        .filter(|s| !s.is_empty())
        .ok_or("phase_shares is not a non-empty object")?;
    let mut sum = 0.0;
    for (name, v) in shares {
        match v.as_f64() {
            Some(share) if share.is_finite() && share >= 0.0 => {
                sum += share;
                metrics.insert(format!("{prefix}{name}"), share);
            }
            _ => return Err(format!("phase share {name} is {}", v.render())),
        }
    }
    if total > 0 && (sum - 100.0).abs() > 0.5 {
        return Err(format!("phase shares sum to {sum:.3}, not 100 ± 0.5"));
    }
    let wheel = field(profile, "wheel")?;
    for key in ["wake_hits", "ticks", "advanced_cycles"] {
        field(wheel, key)?;
    }
    let efficiency = field(wheel, "skip_efficiency")?;
    if !efficiency
        .as_f64()
        .is_some_and(|e| (0.0..=1.0).contains(&e))
    {
        return Err(format!(
            "skip_efficiency is {}, not in [0, 1]",
            efficiency.render()
        ));
    }
    for key in [
        "skip_efficiency",
        "ticks",
        "advanced_cycles",
        "skipped_cycles",
    ] {
        if let Some(n) = wheel.get(key).and_then(Json::as_f64) {
            metrics.insert(format!("{prefix}wheel.{key}"), n);
        }
    }
    for (name, v) in wheel.get("wake_hits").and_then(Json::as_obj).unwrap_or(&[]) {
        if let Some(n) = v.as_f64() {
            metrics.insert(format!("{prefix}wheel.wake_hits.{name}"), n);
        }
    }
    Ok(())
}

/// Checks one aggregate row against its cell's record; returns the
/// row's Pareto flag.
fn check_row(row: &Json, record: &CellRecord) -> Result<bool, String> {
    let id = typed(row, "id", Json::as_u64)?;
    ensure!(id == record.id as u64, "row {id} is out of order");
    let summary = field(row, "summary")?;
    let same = record.doc.get("summary") == Some(summary);
    ensure!(same, "summary {summary} is not its record's");
    let s = CellSummary::from_json(summary)?;
    let numbers = [s.throughput, s.coverage, s.transition_overhead];
    let sane = numbers.iter().all(|x| x.is_finite() && *x >= 0.0);
    ensure!(sane, "summary {summary} is negative or not finite");
    Ok(row.get("pareto") == Some(&Json::Bool(true)))
}

/// Checks a campaign aggregate against the `manifest.json` and `cells/`
/// beside it in `dir`, read as `mmm-campaign` reads them.
fn check_campaign(doc: &Json, dir: &Path) -> Result<(), String> {
    let path = dir.join("manifest.json");
    let manifest = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Manifest::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let (name, hash, total) = (&manifest.name, manifest.hash(), manifest.cell_count());
    let is = |key: &str, want: &str| doc.get(key).and_then(Json::as_str) == Some(want);
    ensure!(is("campaign", name), "campaign is not {name:?}");
    ensure!(is("manifest_hash", &hash), "manifest_hash is not {hash}");
    let records = scan_records(dir, &manifest, &hash, total)?;
    let rows = typed(doc, "cells", Json::as_arr)?;
    let done = typed(doc, "cells_done", Json::as_u64)? as usize;
    ensure!(done == records.len(), "cells_done is not the record count");
    ensure!(done == rows.len(), "cells_done is not the row count");
    let total_in = typed(doc, "cells_total", Json::as_u64)?;
    ensure!(total_in == total as u64, "cells_total is not {total}");
    let complete = doc.get("complete") == Some(&Json::Bool(done == total));
    ensure!(complete, "complete is wrong for {done}/{total} cells");
    let mut pareto = Vec::new();
    for (row, record) in rows.iter().zip(&records) {
        if check_row(row, record).map_err(|e| format!("cell {}: {e}", record.id))? {
            pareto.push(Json::U64(record.id as u64));
        }
    }
    ensure!(done == 0 || !pareto.is_empty(), "no Pareto frontier");
    let flags = Json::Arr(pareto);
    ensure!(doc.get("pareto") == Some(&flags), "pareto is not {flags}");
    let merged = [doc.get("merged_metrics")];
    let registries = records.iter().map(|r| r.doc.get("metrics")).chain(merged);
    let gauges = registries.filter_map(|m| m?.get("gauges")?.as_obj());
    for (name, _) in gauges.flatten() {
        ensure!(!host_dependent(name), "host-dependent gauge {name}");
    }
    Ok(())
}

/// Loads a campaign `aggregate.json` for `campaign` mode, checking it
/// ([`check_campaign`]). The identity is the sweep itself — campaign
/// name, manifest hash, and completion state — so partial and complete
/// aggregates never compare silently. Everything numeric flattens into
/// the gated metrics: per-cell summaries (`cell<id>.throughput`, ...),
/// Pareto membership as 0/1, and the lossless merged registry
/// (counters, gauges, histogram sum/max/count, stat n/mean/m2).
fn load_campaign(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some(AGGREGATE_KIND) {
        return Err(format!(
            "{path}: not a campaign aggregate (expected kind {AGGREGATE_KIND:?})"
        ));
    }
    let dir = Path::new(path).parent().unwrap_or(Path::new("."));
    check_campaign(&doc, dir).map_err(|e| format!("{path}: {e}"))?;
    let identity = [
        "campaign",
        "manifest_hash",
        "cells_total",
        "cells_done",
        "complete",
    ]
    .iter()
    .map(|k| (k.to_string(), ident_str(doc.get(k))))
    .collect();
    let mut metrics = BTreeMap::new();
    for cell in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = cell.get("id").and_then(Json::as_u64).unwrap_or(0);
        for (name, v) in cell.get("summary").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(n) = v.as_f64() {
                metrics.insert(format!("cell{id}.{name}"), n);
            }
        }
        if let Some(Json::Bool(p)) = cell.get("pareto") {
            metrics.insert(format!("cell{id}.pareto"), if *p { 1.0 } else { 0.0 });
        }
    }
    let merged = doc
        .get("merged_metrics")
        .ok_or_else(|| format!("{path}: aggregate has no merged_metrics"))?;
    for group in ["counters", "gauges"] {
        for (name, v) in merged.get(group).and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(n) = v.as_f64() {
                metrics.insert(format!("merged.{name}"), n);
            }
        }
    }
    for (name, h) in merged
        .get("histograms")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        // Lossless form: sum is a decimal string (u128), buckets carry
        // the counts.
        if let Some(sum) = h
            .get("sum")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<f64>().ok())
        {
            metrics.insert(format!("merged.{name}.sum"), sum);
        }
        if let Some(mx) = h.get("max").and_then(Json::as_f64) {
            metrics.insert(format!("merged.{name}.max"), mx);
        }
        let count: f64 = h
            .get("buckets")
            .and_then(Json::as_arr)
            .map(|b| {
                b.iter()
                    .filter_map(|pair| pair.as_arr()?.get(1)?.as_f64())
                    .sum()
            })
            .unwrap_or(0.0);
        metrics.insert(format!("merged.{name}.count"), count);
    }
    for (name, s) in merged.get("stats").and_then(Json::as_obj).unwrap_or(&[]) {
        for field in ["n", "mean", "m2"] {
            if let Some(n) = s.get(field).and_then(Json::as_f64) {
                metrics.insert(format!("merged.{name}.{field}"), n);
            }
        }
    }
    Ok(RunFile {
        kind: Kind::Campaign,
        identity,
        metrics,
    })
}

/// One checked fault record: its site, verdict and latency.
type Fault<'a> = (&'a str, &'a str, Option<u64>);

/// Checks the run header that starts `lines` against its line among
/// `reports`, the paired report export; returns its run index, record
/// count and report line.
fn check_header<'a>(lines: &[Json], reports: &'a [Json]) -> Result<(u64, usize, &'a Json), String> {
    let (header, following) = (&lines[0], lines.len() - 1);
    let kind = header.get("kind").and_then(Json::as_str);
    ensure!(kind == Some(FAULTS_RUN_KIND), "not a run header");
    exact_keys(header, &FAULTS_RUN_KEYS)?;
    let run = typed(header, "run", Json::as_u64)?;
    let Some(report) = reports.get(run as usize) else {
        return Err(format!("run {run} has no report line"));
    };
    for key in ["config", "benchmark", "scheduler"] {
        let same = header.get(key) == report.get(key);
        ensure!(same, "{key} is not its report line's");
    }
    let count = typed(header, "records", Json::as_u64)? as usize;
    ensure!(count <= following, "only {following} records follow");
    Ok((run, count, report))
}

/// Checks one fault record under the header of run `run`.
fn check_fault(rec: &Json, run: u64) -> Result<Fault<'_>, String> {
    let kind = rec.get("kind").and_then(Json::as_str);
    ensure!(kind == Some(FAULT_KIND), "not a fault record");
    exact_keys(rec, &FAULT_RECORD_KEYS)?;
    let site = label(rec, "site", &FAULT_SITES)?;
    label(rec, "mode", &FAULT_MODES)?;
    let verdict = label(rec, "verdict", &FAULT_VERDICTS)?;
    for key in ["id", "at", "core"] {
        typed(rec, key, Json::as_u64)?;
    }
    let its_run = typed(rec, "run", Json::as_u64)?;
    ensure!(its_run == run, "a record of run {its_run} in run {run}");
    let latency = match field(rec, "latency")? {
        Json::Null => None,
        _ => Some(typed(rec, "latency", Json::as_u64)?),
    };
    let (detected, timed) = (verdict.starts_with("detected_by_"), latency.is_some());
    ensure!(detected || !timed, "latency on a {verdict} record");
    let reason = *field(rec, "reason")? != Json::Null;
    let wanted = matches!(verdict, "masked" | "pending");
    ensure!(reason == wanted, "reason is wrong for a {verdict} record");
    for link in typed(rec, "chain", Json::as_arr)? {
        exact_keys(link, &["at", "what"]).map_err(|e| format!("chain link: {e}"))?;
    }
    let pages = typed(rec, "pages", Json::as_arr)?;
    let blackbox = typed(rec, "blackbox", Json::as_arr)?;
    if verdict == "escaped" {
        ensure!(!pages.is_empty(), "an escape names no page");
        ensure!(!blackbox.is_empty(), "an escape has an empty black box");
        for entry in blackbox {
            for key in ["seq", "at", "name"] {
                field(entry, key).map_err(|e| format!("black-box entry: {e}"))?;
            }
        }
    } else {
        let evidence = !pages.is_empty() || !blackbox.is_empty();
        ensure!(!evidence, "escape evidence on a {verdict} record");
    }
    Ok((site, verdict, latency))
}

/// Checks one run's records against the `fault.site.*` counters and
/// detection-latency histogram counts of its report line.
fn check_tallies(faults: &[Fault], report: &Json) -> Result<(), String> {
    let m = field(report, "metrics")?;
    let counter = |name: &str| m.get("counters")?.get(name)?.as_u64();
    let histogram = |name: &str| m.get("histograms")?.get(name)?.get("count")?.as_u64();
    for site in FAULT_SITES {
        let mine: Vec<&Fault> = faults.iter().filter(|f| f.0 == site).collect();
        let tally = |pick: fn(&Fault) -> bool| mine.iter().filter(|f| pick(f)).count() as u64;
        for (what, n) in [
            ("injected", mine.len() as u64),
            ("detected", tally(|f| f.1.starts_with("detected_by_"))),
            ("masked", tally(|f| f.1 == "masked")),
            ("escaped", tally(|f| f.1 == "escaped")),
        ] {
            let name = format!("fault.site.{site}.{what}");
            let have = counter(&name).unwrap_or(0);
            ensure!(have == n, "{name} is {have}, the records say {n}");
        }
        let name = format!("fault.site.{site}.detection_latency_cycles");
        let (have, n) = (histogram(&name).unwrap_or(0), tally(|f| f.2.is_some()));
        ensure!(have == n, "{name} counts {have}, the records {n}");
    }
    Ok(())
}

/// Loads a fault-forensics export (`results/<bin>.faults.jsonl`,
/// written under `MMM_FORENSICS=1`) for `faults` mode, checking each
/// run against the `<bin>.jsonl` beside it ([`paired_report`]). Headers
/// establish the identity: run count plus the distinct
/// config/benchmark/scheduler values. Records flatten into three
/// metric families:
///
/// - `count.<site>.<verdict>` — raw record counts (ungated; they scale
///   with run length);
/// - `share.<site>.<verdict>` — the fraction of that site's records
///   landing on the verdict (gated on the absolute point delta);
/// - `latency.<verdict>.{p50,p99,mean}` — detection latency over the
///   records carrying a non-null latency (ungated; tails are noisy).
fn load_faults(path: &str) -> Result<RunFile, String> {
    let lines = read_jsonl(path)?;
    let Some(paired) = paired_report(Path::new(path)) else {
        return Err(format!("{path}: not named <bin>.faults.jsonl"));
    };
    let reports = read_jsonl(&paired.to_string_lossy())?;
    let mut idents: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut outcomes: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut latencies: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut i, mut runs) = (0, 0);
    while i < lines.len() {
        let (run, count, report) = check_header(&lines[i..], &reports).map_err(at(path, i))?;
        let mut faults = Vec::with_capacity(count);
        for (j, rec) in lines[i + 1..][..count].iter().enumerate() {
            faults.push(check_fault(rec, run).map_err(at(path, i + 1 + j))?);
        }
        check_tallies(&faults, report).map_err(at(path, i))?;
        runs += 1;
        for key in ["config", "benchmark", "scheduler"] {
            let v = ident_str(lines[i].get(key));
            let seen = idents.entry(key).or_default();
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        for (site, verdict, latency) in faults {
            *outcomes.entry((site, verdict)).or_insert(0) += 1;
            if let Some(l) = latency {
                latencies.entry(verdict).or_default().push(l as f64);
            }
        }
        i += 1 + count;
    }
    let mut identity = vec![("runs".to_string(), runs.to_string())];
    for (key, mut values) in idents {
        values.sort();
        identity.push((key.to_string(), values.join(",")));
    }
    let mut site_totals: BTreeMap<&str, u64> = BTreeMap::new();
    for ((site, _), n) in &outcomes {
        *site_totals.entry(site).or_insert(0) += n;
    }
    let mut metrics = BTreeMap::new();
    for ((site, verdict), n) in &outcomes {
        metrics.insert(format!("count.{site}.{verdict}"), *n as f64);
        metrics.insert(
            format!("share.{site}.{verdict}"),
            *n as f64 / site_totals[site] as f64,
        );
    }
    for (verdict, mut vals) in latencies {
        vals.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |p: f64| vals[(p * (vals.len() - 1) as f64).round() as usize];
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        metrics.insert(format!("latency.{verdict}.p50"), pct(0.50));
        metrics.insert(format!("latency.{verdict}.p99"), pct(0.99));
        metrics.insert(format!("latency.{verdict}.mean"), mean);
    }
    Ok(RunFile {
        kind: Kind::Faults,
        identity,
        metrics,
    })
}

/// Host-dependent metrics are noise, not regressions; they only enter
/// the comparison when `--only` names them explicitly, and a campaign
/// registry carries none.
fn host_dependent(name: &str) -> bool {
    name.contains("sim_cycles_per_sec") || name.contains("wall_seconds")
}

/// One compared metric.
struct Row {
    name: String,
    a: f64,
    b: f64,
    /// Relative change `(b - a) / a` (±inf when a is 0 and b is not),
    /// or the point delta `b - a` of a share ([`Kind::shares`]).
    rel: f64,
    fail: bool,
}

/// Compares two files of one kind metric by metric; a metric fails
/// when its kind [gates](Kind::gates) it and its change is past the
/// threshold. Returns the rows and the count of metrics skipped for
/// being absent in one file.
fn compare(a: &RunFile, b: &RunFile, opts: &Options) -> (Vec<Row>, usize) {
    let mut names: Vec<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows = Vec::new();
    let mut skipped = 0;
    for name in names {
        if opts.only.is_empty() {
            if host_dependent(name) {
                continue;
            }
        } else if !opts.only.iter().any(|s| name.contains(s.as_str())) {
            continue;
        }
        // A metric present in only one file is *skipped*, not compared
        // against zero: schema drift between exports should surface as
        // a skip count in the trailing summary, not as a ±inf verdict
        // — and never pass silently as a vacuous diff.
        let (va, vb) = match (a.metrics.get(name), b.metrics.get(name)) {
            (Some(&va), Some(&vb)) => (va, vb),
            _ => {
                skipped += 1;
                continue;
            }
        };
        if va == 0.0 && vb == 0.0 {
            continue;
        }
        let rel = if a.kind.shares() {
            vb - va
        } else if va != 0.0 {
            (vb - va) / va
        } else {
            f64::INFINITY * vb.signum()
        };
        rows.push(Row {
            name: name.clone(),
            a: va,
            b: vb,
            rel,
            fail: a.kind.gates(name) && rel.abs() > opts.threshold,
        });
    }
    (rows, skipped)
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn fmt_rel(rel: f64) -> String {
    if rel.is_infinite() {
        if rel > 0.0 { "+inf%" } else { "-inf%" }.to_string()
    } else {
        format!("{:+.2}%", rel * 100.0)
    }
}

/// Human-readable verdict for the share kinds (`profile`, `faults`):
/// deltas are points of share, and every compared row is listed.
fn print_shares_human(rows: &[Row], skipped: usize, opts: &Options, kind: Kind) {
    let (gated, within) = match kind {
        Kind::Profile => (
            "Phase shares",
            "Phase shares and wheel introspection (within threshold)",
        ),
        _ => (
            "Outcome shares",
            "Outcome counts, shares, and detection latency (within threshold)",
        ),
    };
    let to_cells = |r: &Row| {
        vec![
            r.name.clone(),
            fmt_num(r.a),
            fmt_num(r.b),
            format!("{:+.4}", r.rel),
            if r.fail { "FAIL" } else { "ok" }.to_string(),
        ]
    };
    let (failed, rest): (Vec<&Row>, Vec<&Row>) = rows.iter().partition(|r| r.fail);
    if !failed.is_empty() {
        print_table(
            &format!("{gated} over threshold ({} points)", opts.threshold),
            &["metric", "A", "B", "delta", "gate"],
            &failed.iter().map(|r| to_cells(r)).collect::<Vec<_>>(),
        );
    }
    if !rest.is_empty() {
        print_table(
            within,
            &["metric", "A", "B", "delta", "gate"],
            &rest.iter().map(|r| to_cells(r)).collect::<Vec<_>>(),
        );
    }
    println!(
        "\nmmm-inspect: {} vs {} ({}): compared {} metrics, \
         skipped {} absent-in-one-side, {} over threshold",
        opts.a,
        opts.b,
        kind.name(),
        rows.len(),
        skipped,
        failed.len()
    );
}

fn print_human(rows: &[Row], skipped: usize, opts: &Options, kind: Kind) {
    let failed: Vec<&Row> = rows.iter().filter(|r| r.fail).collect();
    let to_cells = |r: &Row| {
        vec![
            r.name.clone(),
            fmt_num(r.a),
            fmt_num(r.b),
            fmt_rel(r.rel),
            if r.fail { "FAIL" } else { "ok" }.to_string(),
        ]
    };
    if !failed.is_empty() {
        print_table(
            &format!("Metrics over threshold ({:.0}%)", opts.threshold * 100.0),
            &["metric", "A", "B", "change", "gate"],
            &failed.iter().map(|r| to_cells(r)).collect::<Vec<_>>(),
        );
    }
    let mut moved: Vec<&Row> = rows.iter().filter(|r| !r.fail && r.rel != 0.0).collect();
    moved.sort_by(|x, y| {
        y.rel
            .abs()
            .partial_cmp(&x.rel.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if !moved.is_empty() {
        let shown = moved.len().min(20);
        print_table(
            &format!(
                "Largest within-threshold changes ({} of {} moved metrics)",
                shown,
                moved.len()
            ),
            &["metric", "A", "B", "change", "gate"],
            &moved[..shown]
                .iter()
                .map(|r| to_cells(r))
                .collect::<Vec<_>>(),
        );
    }
    println!(
        "\nmmm-inspect: {} vs {} ({}): compared {} metrics, \
         skipped {} absent-in-one-side, {} moved, {} over threshold",
        opts.a,
        opts.b,
        kind.name(),
        rows.len(),
        skipped,
        rows.iter().filter(|r| r.rel != 0.0).count(),
        failed.len()
    );
}

fn print_json(rows: &[Row], skipped: usize, opts: &Options, kind: Kind) {
    let metrics = rows
        .iter()
        .filter(|r| r.fail || r.rel != 0.0)
        .map(|r| {
            Json::obj([
                ("name", Json::str(r.name.clone())),
                ("a", Json::F64(r.a)),
                ("b", Json::F64(r.b)),
                ("rel", Json::F64(r.rel)),
                ("fail", Json::Bool(r.fail)),
            ])
        })
        .collect();
    let out = Json::obj([
        ("a", Json::str(opts.a.clone())),
        ("b", Json::str(opts.b.clone())),
        ("kind", Json::str(kind.name())),
        ("threshold", Json::F64(opts.threshold)),
        ("compared", Json::U64(rows.len() as u64)),
        ("skipped_absent", Json::U64(skipped as u64)),
        (
            "failed",
            Json::U64(rows.iter().filter(|r| r.fail).count() as u64),
        ),
        ("metrics", Json::Arr(metrics)),
    ]);
    println!("{}", out.render());
    // Stdout stays pure JSON; the summary line goes to stderr.
    eprintln!(
        "mmm-inspect: compared {} metrics, skipped {} absent-in-one-side",
        rows.len(),
        skipped
    );
}

fn run(opts: &Options) -> Result<bool, String> {
    let load_kind = |path: &str| match opts.kind {
        Some(Kind::Profile) => runs_file(path, &read_jsonl(path)?, Kind::Profile, add_profile),
        Some(Kind::Campaign) => load_campaign(path),
        Some(Kind::Faults) => load_faults(path),
        Some(Kind::Report | Kind::Series) | None => load(path),
    };
    let (a, b) = (load_kind(&opts.a)?, load_kind(&opts.b)?);
    if a.kind != b.kind {
        return Err(format!(
            "{} is a {} export but {} is a {} export",
            opts.a,
            a.kind.name(),
            opts.b,
            b.kind.name()
        ));
    }
    if a.identity != b.identity {
        let describe = |f: &RunFile| {
            f.identity
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let msg = format!(
            "runs are not comparable:\n  A: {}\n  B: {}",
            describe(&a),
            describe(&b)
        );
        if !opts.force {
            return Err(format!("{msg}\n(--force compares anyway)"));
        }
        eprintln!("mmm-inspect: {msg}\nmmm-inspect: --force given, comparing anyway");
    }
    let (rows, skipped) = compare(&a, &b, opts);
    if opts.json {
        print_json(&rows, skipped, opts, a.kind);
    } else if a.kind.shares() {
        print_shares_human(&rows, skipped, opts, a.kind);
    } else {
        print_human(&rows, skipped, opts, a.kind);
    }
    Ok(rows.iter().any(|r| r.fail))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mmm-inspect: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mmm-inspect: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    use mmm_bench::campaign::checkpoint::{write_cell, CELL_KIND};
    use mmm_bench::campaign::merge::build_aggregate;
    use mmm_bench::export::{traced_run, JsonExport};
    use mmm_core::{Experiment, MixedPolicy, Workload};
    use mmm_trace::{registry_to_json, MetricsRegistry};
    use mmm_types::DetRng;
    use mmm_workload::Benchmark;

    /// A fresh, empty directory for one test.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmm-inspect-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Replaces every `from` in `dir/file` with `to`; `from` must occur.
    fn edit(dir: &Path, file: &str, from: &str, to: &str) {
        let path = dir.join(file);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains(from), "{file} lacks {from:?}");
        fs::write(&path, text.replace(from, to)).unwrap();
    }

    /// A defect a check must name, and how to break a valid export so.
    type Case = (&'static str, fn(&Path));

    /// Runs each case of a check table: `setup` writes the valid export,
    /// which `load` must accept; each case then breaks one copy of it
    /// with `breaks`, and `load` must refuse that copy with an error
    /// naming the defect.
    fn check_table(
        name: &str,
        setup: fn(&Path),
        load: fn(&Path) -> Result<RunFile, String>,
        cases: &[Case],
    ) {
        let dir = fresh_dir(name);
        setup(&dir);
        load(&dir).expect("the valid export loads");
        for (why, breaks) in cases {
            setup(&dir);
            breaks(&dir);
            let err = load(&dir)
                .err()
                .unwrap_or_else(|| panic!("accepted: {why}"));
            assert!(err.contains(why), "{err:?} does not name {why:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A valid one-run report export, paired with [`FAULTS`].
    const REPORT: &str = "{\"config\":\"Reunion\",\"benchmark\":\"OLTP\",\"scheduler\":\"gang\",\
        \"threads\":16,\"cycles\":1000,\"vcpus\":[{\"vcpu\":0,\"vm\":0,\"user_commits\":5,\
        \"os_commits\":1,\"unprotected_commits\":0}],\"metrics\":{\"counters\":{\
        \"fault.site.core_logic.detected\":1,\"fault.site.core_logic.injected\":2,\
        \"fault.site.core_logic.masked\":1,\"fault.site.tlb_permission.escaped\":1,\
        \"fault.site.tlb_permission.injected\":1,\"run.cycles\":1000},\
        \"gauges\":{\"run.avg_user_ipc\":0.5},\"histograms\":{\
        \"fault.site.core_logic.detection_latency_cycles\":{\"count\":1,\"mean\":40,\
        \"max\":40,\"p50\":40,\"p99\":40}},\"stats\":{}}}\n";

    #[test]
    fn report_lines_are_checked() {
        check_table(
            "report",
            |d| fs::write(d.join("r.jsonl"), REPORT).unwrap(),
            |d| load(&d.join("r.jsonl").to_string_lossy()),
            &[
                ("empty file", |d| {
                    fs::write(d.join("r.jsonl"), "\n \n").unwrap()
                }),
                ("no \"config\"", |d| {
                    edit(d, "r.jsonl", "\"config\":\"Reunion\",", "")
                }),
                ("no \"benchmark\"", |d| {
                    fs::write(d.join("r.jsonl"), "{\"config\":\"a\",\"metrics\":{}}").unwrap()
                }),
                ("cycles is 0", |d| edit(d, "r.jsonl", "1000", "0")),
                ("cycles is \"9\"", |d| {
                    edit(d, "r.jsonl", "\"cycles\":1000", "\"cycles\":\"9\"")
                }),
                ("vcpus is empty", |d| {
                    edit(d, "r.jsonl", "[{\"vcpu\":0,\"vm\":0,", "[],\"x\":[{")
                }),
                ("no \"vcpu\"", |d| edit(d, "r.jsonl", "\"vcpu\":0,", "")),
                ("no \"vm\"", |d| edit(d, "r.jsonl", "\"vm\":0,", "")),
                ("no \"user_commits\"", |d| {
                    edit(d, "r.jsonl", "\"user_commits\":5,", "")
                }),
                ("no \"stats\"", |d| edit(d, "r.jsonl", ",\"stats\":{}", "")),
                ("run.cycles is not 1000", |d| {
                    edit(d, "r.jsonl", "\"run.cycles\":1000", "\"run.cycles\":999")
                }),
                ("counter fault.site.core_logic.masked is -1", |d| {
                    edit(d, "r.jsonl", "masked\":1", "masked\":-1")
                }),
            ],
        );
    }

    /// A valid two-sample metrics series.
    const SERIES: &str =
        "{\"interval\":100,\"config\":\"Reunion\",\"benchmark\":\"OLTP\",\"samples\":2}
{\"at\":100,\"counters\":{\"c\":5},\"gauges\":{\"g\":0.5},\"histograms\":{\"h\":{\"count\":3,\
\"mean\":2.5,\"max\":4,\"buckets\":[[1,1],[2,2]]}}}
{\"at\":200,\"counters\":{\"c\":1},\"gauges\":{\"g\":-1},\"histograms\":{}}
";

    #[test]
    fn series_are_checked() {
        check_table(
            "series",
            |d| fs::write(d.join("s.metrics.jsonl"), SERIES).unwrap(),
            |d| load(&d.join("s.metrics.jsonl").to_string_lossy()),
            &[
                ("interval is 0", |d| {
                    edit(d, "s.metrics.jsonl", "\"interval\":100", "\"interval\":0")
                }),
                ("config is empty", |d| {
                    edit(d, "s.metrics.jsonl", "\"Reunion\"", "\"\"")
                }),
                ("benchmark is 7", |d| {
                    edit(d, "s.metrics.jsonl", "\"OLTP\"", "7")
                }),
                ("samples is not 2", |d| {
                    edit(d, "s.metrics.jsonl", "\"samples\":2", "\"samples\":3")
                }),
                ("at 100 does not increase", |d| {
                    edit(d, "s.metrics.jsonl", "\"at\":200", "\"at\":100")
                }),
                ("at is -5", |d| {
                    edit(d, "s.metrics.jsonl", "\"at\":100", "\"at\":-5")
                }),
                ("counter c is 0", |d| {
                    edit(d, "s.metrics.jsonl", "\"c\":1}", "\"c\":0}")
                }),
                ("counters is []", |d| {
                    edit(
                        d,
                        "s.metrics.jsonl",
                        "\"counters\":{\"c\":1}",
                        "\"counters\":[]",
                    )
                }),
                ("gauge g is \"x\"", |d| {
                    edit(d, "s.metrics.jsonl", "\"g\":-1", "\"g\":\"x\"")
                }),
                ("h: count is 0", |d| {
                    edit(d, "s.metrics.jsonl", "\"count\":3", "\"count\":0");
                    edit(d, "s.metrics.jsonl", "[[1,1],[2,2]]", "[]");
                }),
                ("h: mean is -1", |d| {
                    edit(d, "s.metrics.jsonl", "\"mean\":2.5", "\"mean\":-1")
                }),
                ("h: max is 4.5", |d| {
                    edit(d, "s.metrics.jsonl", "\"max\":4", "\"max\":4.5")
                }),
                ("h: bad bucket [3,0]", |d| {
                    edit(d, "s.metrics.jsonl", "[2,2]]", "[2,2],[3,0]]")
                }),
                ("h: bad bucket [2,2,2]", |d| {
                    edit(d, "s.metrics.jsonl", "[2,2]]", "[2,2,2]]")
                }),
                ("h: buckets sum to 4, not 3", |d| {
                    edit(d, "s.metrics.jsonl", "[[1,1]", "[[1,2]")
                }),
            ],
        );
    }

    /// A valid forensics export of one run, paired with [`REPORT`]: a
    /// detection, a masked fault and an escape.
    const FAULTS: &str = "{\"kind\":\"mmm-faults-run\",\"run\":0,\"config\":\"Reunion\",\
\"benchmark\":\"OLTP\",\"scheduler\":\"gang\",\"records\":3}
{\"kind\":\"fault\",\"run\":0,\"id\":0,\"at\":10,\"core\":1,\"site\":\"core_logic\",\
\"mode\":\"dmr_vocal\",\"verdict\":\"detected_by_dmr\",\"latency\":40,\"reason\":null,\
\"pages\":[],\"chain\":[{\"at\":10,\"what\":\"armed\"}],\"blackbox\":[]}
{\"kind\":\"fault\",\"run\":0,\"id\":1,\"at\":20,\"core\":2,\"site\":\"core_logic\",\
\"mode\":\"idle\",\"verdict\":\"masked\",\"latency\":null,\"reason\":\"idle\",\
\"pages\":[],\"chain\":[],\"blackbox\":[]}
{\"kind\":\"fault\",\"run\":0,\"id\":2,\"at\":30,\"core\":3,\"site\":\"tlb_permission\",\
\"mode\":\"perf\",\"verdict\":\"escaped\",\"latency\":null,\"reason\":null,\"pages\":[7],\
\"chain\":[],\"blackbox\":[{\"seq\":1,\"at\":29,\"name\":\"commit\"}]}
";

    #[test]
    fn forensics_exports_are_checked_against_their_report() {
        const F: &str = "run.faults.jsonl";
        const R: &str = "run.jsonl";
        check_table(
            "faults",
            |d| {
                fs::write(d.join(F), FAULTS).unwrap();
                fs::write(d.join(R), REPORT).unwrap();
            },
            |d| load_faults(&d.join(F).to_string_lossy()),
            &[
                ("run.jsonl: No such file", |d| {
                    fs::remove_file(d.join(R)).unwrap()
                }),
                ("not a run header", |d| {
                    edit(d, F, "mmm-faults-run", "mmm-fault-run")
                }),
                ("unknown keys [\"x\"]", |d| {
                    edit(d, F, "\"records\":3}", "\"records\":3,\"x\":1}")
                }),
                ("missing keys [\"scheduler\"]", |d| {
                    edit(d, F, "\"scheduler\":\"gang\",", "")
                }),
                ("run 1 has no report line", |d| {
                    edit(d, F, "\"run\":0,\"config", "\"run\":1,\"config")
                }),
                ("scheduler is not its report line's", |d| {
                    edit(d, F, "\"gang\"", "\"solo\"")
                }),
                ("records is 3.5", |d| {
                    edit(d, F, "\"records\":3", "\"records\":3.5")
                }),
                ("only 3 records follow", |d| {
                    edit(d, F, "\"records\":3", "\"records\":4")
                }),
                ("not a fault record", |d| {
                    edit(
                        d,
                        F,
                        "{\"kind\":\"fault\",\"run\":0,\"id\":1",
                        "{\"kind\":\"faults\",\"run\":0,\"id\":1",
                    )
                }),
                ("missing keys [\"chain\"]", |d| {
                    edit(d, F, "\"chain\":[],", "")
                }),
                ("site \"alu\" is not one of", |d| {
                    edit(
                        d,
                        F,
                        "\"site\":\"core_logic\",\"mode\":\"idle\"",
                        "\"site\":\"alu\",\"mode\":\"idle\"",
                    )
                }),
                ("mode \"napping\" is not one of", |d| {
                    edit(d, F, "\"mode\":\"idle\"", "\"mode\":\"napping\"")
                }),
                ("verdict \"bogus\" is not one of", |d| {
                    edit(d, F, "\"verdict\":\"masked\"", "\"verdict\":\"bogus\"")
                }),
                ("id is -1", |d| edit(d, F, "\"id\":1,", "\"id\":-1,")),
                ("core is 2.5", |d| {
                    edit(d, F, "\"core\":2,", "\"core\":2.5,")
                }),
                ("a record of run 1 in run 0", |d| {
                    edit(d, F, "\"run\":0,\"id\":2", "\"run\":1,\"id\":2")
                }),
                ("latency is \"40\"", |d| {
                    edit(d, F, "\"latency\":40", "\"latency\":\"40\"")
                }),
                ("latency on a masked record", |d| {
                    edit(
                        d,
                        F,
                        "\"masked\",\"latency\":null",
                        "\"masked\",\"latency\":5",
                    )
                }),
                ("reason is wrong for a masked record", |d| {
                    edit(d, F, "\"reason\":\"idle\"", "\"reason\":null")
                }),
                ("reason is wrong for a detected_by_dmr record", |d| {
                    edit(
                        d,
                        F,
                        "\"latency\":40,\"reason\":null",
                        "\"latency\":40,\"reason\":\"x\"",
                    )
                }),
                ("chain link: missing keys [\"what\"]", |d| {
                    edit(d, F, ",\"what\":\"armed\"", "")
                }),
                ("an escape names no page", |d| {
                    edit(d, F, "\"pages\":[7]", "\"pages\":[]")
                }),
                ("an escape has an empty black box", |d| {
                    edit(d, F, "[{\"seq\":1,\"at\":29,\"name\":\"commit\"}]", "[]")
                }),
                ("black-box entry: no \"name\"", |d| {
                    edit(d, F, "\"name\":\"commit\"", "\"nom\":\"commit\"")
                }),
                ("escape evidence on a masked record", |d| {
                    edit(
                        d,
                        F,
                        "\"reason\":\"idle\",\"pages\":[]",
                        "\"reason\":\"idle\",\"pages\":[3]",
                    )
                }),
                (
                    "fault.site.core_logic.masked is 2, the records say 1",
                    |d| edit(d, R, "masked\":1", "masked\":2"),
                ),
                (
                    "fault.site.tlb_permission.escaped is 0, the records say 1",
                    |d| edit(d, R, "escaped\":1", "escaped\":0"),
                ),
                ("detection_latency_cycles counts 2, the records 1", |d| {
                    edit(d, R, "\"count\":1,", "\"count\":2,")
                }),
            ],
        );
        let dir = fresh_dir("faults-name");
        fs::write(dir.join("run.jsonl"), REPORT).unwrap();
        let err = load_faults(&dir.join("run.jsonl").to_string_lossy())
            .err()
            .unwrap();
        assert!(err.contains("not named <bin>.faults.jsonl"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a two-cell campaign directory as `mmm-campaign` would:
    /// the canonical manifest, one record per cell, and the aggregate.
    /// Cell 0 dominates cell 1, so the frontier is cell 0 alone.
    fn write_campaign(dir: &Path) {
        let _ = fs::remove_dir_all(dir.join("cells"));
        fs::create_dir_all(dir.join("cells")).unwrap();
        let m = Manifest::parse(r#"{"name":"t","measure":2000,"grid":{"cores":[4,8]}}"#).unwrap();
        fs::write(
            dir.join("manifest.json"),
            m.canonical_json().render() + "\n",
        )
        .unwrap();
        let records: Vec<CellRecord> = [60, 40]
            .into_iter()
            .enumerate()
            .map(|(id, commits)| {
                let mut r = MetricsRegistry::new();
                r.count("run.cycles", 100);
                r.count("core.commits_user", commits);
                let doc = Json::obj([
                    ("kind", Json::str(CELL_KIND)),
                    ("campaign", Json::str("t")),
                    ("manifest_hash", Json::str(m.hash())),
                    ("id", Json::U64(id as u64)),
                    ("axes", Json::obj([])),
                    ("summary", CellSummary::derive(&r, 4).to_json()),
                    ("metrics", registry_to_json(&r)),
                ]);
                write_cell(dir, id, &doc).unwrap();
                CellRecord { id, doc }
            })
            .collect();
        let aggregate = build_aggregate(&m, &m.hash(), 2, &records).unwrap();
        fs::write(dir.join("aggregate.json"), aggregate.render() + "\n").unwrap();
    }

    fn load_aggregate(dir: &Path) -> Result<RunFile, String> {
        load_campaign(&dir.join("aggregate.json").to_string_lossy())
    }

    /// Replaces `dir/aggregate.json` with `f` applied to its cell rows.
    fn edit_rows(dir: &Path, f: fn(&mut Vec<Json>)) {
        let path = dir.join("aggregate.json");
        let mut doc = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(pairs) = &mut doc else { panic!() };
        let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(k, _)| k == "cells") else {
            panic!()
        };
        f(rows);
        fs::write(&path, doc.render()).unwrap();
    }

    #[test]
    fn campaign_aggregates_are_checked_against_their_directory() {
        const A: &str = "aggregate.json";
        const C0: &str = "cells/cell-00000.json";
        check_table(
            "campaign",
            write_campaign,
            load_aggregate,
            &[
                ("manifest.json: No such file", |d| {
                    fs::remove_file(d.join("manifest.json")).unwrap()
                }),
                ("not a campaign aggregate", |d| {
                    edit(d, A, "mmm-campaign-aggregate", "mmm-campaign")
                }),
                ("campaign is not \"t\"", |d| {
                    edit(d, A, "\"campaign\":\"t\"", "\"campaign\":\"u\"")
                }),
                ("manifest_hash is not", |d| {
                    edit(d, "manifest.json", "2000", "3000")
                }),
                ("record belongs to campaign \"u\"", |d| {
                    edit(d, C0, "\"campaign\":\"t\"", "\"campaign\":\"u\"")
                }),
                ("two records of cell 0", |d| {
                    fs::copy(d.join(C0), d.join("cells/cell-0.json")).unwrap();
                }),
                ("cells_done is not the record count", |d| {
                    fs::remove_file(d.join("cells/cell-00001.json")).unwrap()
                }),
                ("cells_done is not the row count", |d| {
                    edit_rows(d, |rows| drop(rows.pop()))
                }),
                ("cells_total is not 2", |d| {
                    edit(d, A, "\"cells_total\":2", "\"cells_total\":3");
                    edit(d, A, "\"complete\":true", "\"complete\":false");
                }),
                ("complete is wrong for 2/2 cells", |d| {
                    edit(d, A, "\"complete\":true", "\"complete\":false")
                }),
                ("cell 0: row 1 is out of order", |d| {
                    edit_rows(d, |rows| rows.swap(0, 1))
                }),
                ("is not its record's", |d| {
                    edit(d, A, "\"throughput\":0.6", "\"throughput\":0.7")
                }),
                ("is negative or not finite", |d| {
                    edit(d, A, "\"throughput\":0.6", "\"throughput\":-0.6");
                    edit(d, C0, "\"throughput\":0.6", "\"throughput\":-0.6");
                }),
                ("summary missing number \"coverage\"", |d| {
                    edit(d, A, "\"coverage\":1,", "");
                    edit(d, C0, "\"coverage\":1,", "");
                }),
                ("pareto is not [0,1]", |d| {
                    edit(d, A, "\"pareto\":false", "\"pareto\":true")
                }),
                ("no Pareto frontier", |d| {
                    edit(d, A, "\"pareto\":true", "\"pareto\":false");
                    edit(d, A, "\"pareto\":[0]", "\"pareto\":[]");
                }),
                ("host-dependent gauge run.sim_cycles_per_sec", |d| {
                    edit(
                        d,
                        A,
                        "\"gauges\":{}",
                        "\"gauges\":{\"run.sim_cycles_per_sec\":1}",
                    )
                }),
                ("host-dependent gauge run.wall_seconds", |d| {
                    edit(
                        d,
                        C0,
                        "\"gauges\":{}",
                        "\"gauges\":{\"run.wall_seconds\":1}",
                    )
                }),
            ],
        );
    }

    /// Real exports of one short fault-injected run with forensics and
    /// profiling on, written once per test process by the bins' writer.
    fn real_exports() -> &'static Path {
        static DIR: OnceLock<PathBuf> = OnceLock::new();
        DIR.get_or_init(|| {
            let e = Experiment {
                warmup: 2_000,
                measure: 20_000,
                seeds: vec![1, 2],
                fault_rate: Some(2e-4),
                forensics: true,
                profile: true,
                ..Experiment::default()
            };
            let w = Workload::Consolidated {
                bench: Benchmark::Pgoltp,
                policy: MixedPolicy::MmmTp,
            };
            let mut export = JsonExport::new("real");
            export.add(&e.run_workload(w).unwrap());
            let dir = fresh_dir("real");
            export.write(&dir, &traced_run(&e.cfg, w, 1, Some(1e-5), true));
            dir
        })
    }

    #[test]
    fn the_writers_exports_pass_their_checks() {
        let path = |suffix: &str| real_exports().join(format!("real.{suffix}"));
        let load_kind = |suffix: &str, kind: Option<Kind>| {
            let path = path(suffix).to_string_lossy().into_owned();
            let opts = parse_args(&[path.clone(), path]).unwrap();
            let file = match kind {
                Some(Kind::Profile) => runs_file(
                    &opts.a,
                    &read_jsonl(&opts.a).unwrap(),
                    Kind::Profile,
                    add_profile,
                ),
                Some(Kind::Faults) => load_faults(&opts.a),
                _ => load(&opts.a),
            };
            file.unwrap_or_else(|e| panic!("{e}"))
        };
        assert_eq!(load_kind("jsonl", None).kind, Kind::Report);
        assert_eq!(load_kind("metrics.jsonl", None).kind, Kind::Series);
        assert_eq!(
            load_kind("profile.jsonl", Some(Kind::Profile))
                .identity
                .len(),
            10
        );
        let faults = load_kind("faults.jsonl", Some(Kind::Faults));
        let records: f64 = faults
            .metrics
            .iter()
            .filter(|(k, _)| k.starts_with("count."))
            .map(|(_, n)| n)
            .sum();
        assert!(records > 0.0, "the run injected faults");
    }

    /// Truncates `text`, flips a bit of one byte, or duplicates or drops
    /// one bracket, as `rng` picks.
    fn mutate(text: &str, rng: &mut DetRng) -> String {
        let mut b = text.as_bytes().to_vec();
        let brackets: Vec<usize> = (0..b.len()).filter(|&i| b"[]{}".contains(&b[i])).collect();
        let at = rng.below(b.len() as u64) as usize;
        let bracket = brackets[rng.below(brackets.len() as u64) as usize];
        match rng.below(4) {
            0 => b.truncate(at),
            1 => b[at] ^= 1 << rng.below(7),
            2 => b.insert(bracket, b[bracket]),
            _ => drop(b.remove(bracket)),
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    #[test]
    fn mutated_exports_are_refused_without_a_panic() {
        let real = real_exports();
        let dir = fresh_dir("mutants");
        write_campaign(&dir);
        fs::copy(real.join("real.jsonl"), dir.join("m.jsonl")).unwrap();
        let read = |name: &str| fs::read_to_string(real.join(name)).unwrap();
        type Loader = fn(&str) -> Result<RunFile, String>;
        let loaders: [(String, &str, Loader); 5] = [
            (read("real.jsonl"), "r.jsonl", load),
            (read("real.metrics.jsonl"), "s.metrics.jsonl", load),
            (read("real.profile.jsonl"), "p.jsonl", |p| {
                runs_file(p, &read_jsonl(p)?, Kind::Profile, add_profile)
            }),
            (read("real.faults.jsonl"), "m.faults.jsonl", load_faults),
            (
                fs::read_to_string(dir.join("aggregate.json")).unwrap(),
                "aggregate.json",
                load_campaign,
            ),
        ];
        let mut rng = DetRng::new(17, 0);
        let mut refused = 0;
        for case in 0..1_000 {
            let (text, name, loader) = &loaders[case % loaders.len()];
            let broken = mutate(text, &mut rng);
            for line in broken.lines() {
                let _ = Json::parse(line);
            }
            let path = dir.join(name);
            fs::write(&path, &broken).unwrap();
            refused += usize::from(loader(&path.to_string_lossy()).is_err());
        }
        assert!(refused > 500, "only {refused} of 1000 mutants refused");
        let _ = fs::remove_dir_all(&dir);
    }

    /// One profile-export line with the given phase shares (a JSON
    /// object body) and skip efficiency.
    fn profile_line(run: u64, config: &str, shares: &str, skip_efficiency: &str) -> String {
        format!(
            "{{\"run\":{run},\"config\":\"{config}\",\"benchmark\":\"OLTP\",\
             \"scheduler\":\"gang\",\"threads\":16,\"cycles\":1000,\"profile\":\
             {{\"total_nanos\":5000,\"phase_nanos\":{{}},\"phase_shares\":{{{shares}}},\
             \"wheel\":{{\"wake_hits\":{{\"slice\":3}},\"ticks\":10,\"advanced_cycles\":40,\
             \"skipped_cycles\":30,\"skip_efficiency\":{skip_efficiency}}}}}}}"
        )
    }

    fn load_text(text: &str) -> Result<RunFile, String> {
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        runs_file("p.jsonl", &lines, Kind::Profile, add_profile)
    }

    #[test]
    fn profile_loader_prefixes_each_run() {
        let text = [
            profile_line(
                0,
                "Reunion",
                "\"op_gen\":40,\"core_dispatch_commit\":60",
                "0.75",
            ),
            profile_line(
                1,
                "No DMR",
                "\"op_gen\":10.5,\"core_dispatch_commit\":89.5",
                "0",
            ),
        ]
        .join("\n");
        let f = load_text(&text).unwrap();
        assert_eq!(f.kind, Kind::Profile);
        let id = |k: &str| {
            f.identity
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(id("#0.config"), Some("Reunion"));
        assert_eq!(id("#1.config"), Some("No DMR"));
        assert_eq!(id("#1.threads"), Some("16"));
        assert_eq!(f.identity.len(), 2 * RUN_IDENTITY.len());
        assert_eq!(f.metrics["#0.op_gen"], 40.0);
        assert_eq!(f.metrics["#1.core_dispatch_commit"], 89.5);
        assert_eq!(f.metrics["#0.wheel.skip_efficiency"], 0.75);
        assert_eq!(f.metrics["#1.wheel.wake_hits.slice"], 3.0);
        assert_eq!(f.metrics["#1.wheel.skipped_cycles"], 30.0);
        assert!(Kind::Profile.gates("#0.op_gen"));
        assert!(!Kind::Profile.gates("#0.wheel.ticks"));
        let one = load_text(&profile_line(0, "Reunion", "\"op_gen\":100", "1")).unwrap();
        assert_eq!(one.metrics["op_gen"], 100.0, "a single run has no prefix");
    }

    #[test]
    fn profile_loader_rejects_malformed_profiles() {
        let good = "\"op_gen\":40,\"core_dispatch_commit\":60";
        for (text, why) in [
            (
                profile_line(0, "R", "\"op_gen\":30,\"core_dispatch_commit\":60", "0.5"),
                "sum to 90.000",
            ),
            (
                profile_line(0, "R", "\"op_gen\":-10,\"core_dispatch_commit\":110", "0.5"),
                "phase share op_gen is -10",
            ),
            (profile_line(0, "R", good, "1.5"), "skip_efficiency is 1.5"),
            (
                profile_line(0, "R", good, "0.5").replace("phase_shares", "shares"),
                "no \"phase_shares\"",
            ),
        ] {
            let err = load_text(&text).err().expect(why);
            assert!(err.contains(why), "{err:?} lacks {why:?}");
        }
        let empty_window = profile_line(0, "R", "\"op_gen\":0", "0").replace("5000", "0");
        assert!(
            load_text(&empty_window).is_ok(),
            "an empty window sums to 0"
        );
    }

    #[test]
    fn the_kind_word_sets_the_default_threshold() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let o = parse("a.jsonl b.jsonl").unwrap();
        assert_eq!((o.kind, o.threshold), (None, 0.15));
        let o = parse("profile a b").unwrap();
        assert_eq!(
            (o.kind, o.threshold, o.a.as_str()),
            (Some(Kind::Profile), 5.0, "a")
        );
        assert_eq!(parse("campaign a b").unwrap().threshold, 0.0);
        let o = parse("faults a b --threshold 0.1").unwrap();
        assert_eq!((o.kind, o.threshold), (Some(Kind::Faults), 0.1));
        let o = parse("a profile").unwrap();
        assert_eq!(
            (o.kind, o.b.as_str()),
            (None, "profile"),
            "a kind word only leads"
        );
        assert!(parse("profile faults a b").is_err());
        assert!(parse("a b --down").is_err(), "unknown flags are refused");
    }
}
