//! Run-export diff tool and regression gate.
//!
//! `mmm-inspect` loads two run exports of one kind, flattens each into
//! `metric -> number`, and diffs them against a threshold:
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
//! threshold is in percentage *points* (default 5): a phase whose
//! share moves from 30% to 37% crosses a 5-point gate and exits 1.
//! Wheel introspection counters (wake hits, skip efficiency) are shown
//! but not gated. A profile that breaks its schema is unusable input
//! (exit 2): a missing section, a phase share that is negative or not
//! finite, shares of a non-empty window that do not sum to 100 ± 0.5,
//! or a skip efficiency outside [0, 1].
//!
//! The `campaign` kind diffs two `aggregate.json` campaign exports
//! (written by `mmm-campaign`): per-cell summaries, Pareto membership,
//! and the lossless merged metrics registry all flatten into the
//! comparison. Campaign aggregates are deterministic by construction,
//! so the default threshold is **0** — any difference at all trips the
//! gate. CI uses this to prove the kill/resume keystone: an
//! interrupted-then-resumed campaign must match an uninterrupted one
//! exactly.
//!
//! The `faults` kind diffs two fault-forensics exports
//! (`results/<bin>.faults.jsonl`, written under `MMM_FORENSICS=1`):
//! per-site outcome *distributions* (the share of each site's records
//! landing on each verdict) are gated on their absolute point delta —
//! the default threshold is 0.05, i.e. five percentage points of
//! outcome share — while detection-latency percentiles (p50/p99/mean,
//! per verdict) and raw counts are shown ungated. A coverage
//! regression (say, `tlb_permission` escapes growing from 10% to 20%
//! of injections) exits 1.
//!
//! Every kind ends with a trailing summary line, `compared N metrics,
//! skipped M absent-in-one-side`: metric names present in only one of
//! the two files are *skipped*, not compared against zero, and a diff
//! of files with disjoint metric sets reports itself instead of
//! passing silently as vacuous. Metrics that are 0 in both files are
//! not compared.
//!
//! The two files must describe comparable runs: the identity block
//! (config, benchmark, scheduler, thread count and cycles of every
//! run; the cadence of a series; the sweep of a campaign) must match or
//! the tool refuses with exit code 2 (`--force` compares anyway). The
//! host-dependent `sim_cycles_per_sec` gauge is excluded from the
//! default comparison; select it explicitly with `--only`, which
//! restricts the comparison to metrics containing a given substring.
//!
//! Exit codes: 0 — no compared metric crossed the threshold; 1 — at
//! least one did; 2 — unusable input or identity mismatch.

use std::collections::BTreeMap;
use std::process::ExitCode;

use mmm_core::report::print_table;
use mmm_trace::Json;

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

/// One loaded export: its kind, the identity block that must match for
/// two files to be comparable, and the flattened numeric metrics.
struct RunFile {
    kind: Kind,
    identity: Vec<(String, String)>,
    metrics: BTreeMap<String, f64>,
}

/// The non-empty lines of a JSONL export, parsed.
fn read_jsonl(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    if lines.is_empty() {
        return Err(format!("{path}: empty file"));
    }
    Ok(lines)
}

/// Loads a report or metrics-series export, detected from its first
/// line.
fn load(path: &str) -> Result<RunFile, String> {
    let lines = read_jsonl(path)?;
    if lines[0].get("interval").is_some() && lines[0].get("samples").is_some() {
        series_file(path, &lines)
    } else if lines[0].get("metrics").is_some() {
        report_file(path, &lines)
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

fn report_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let mut identity = Vec::new();
    let mut metrics = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        let prefix = run_prefix(i, lines.len());
        for k in RUN_IDENTITY {
            identity.push((format!("{prefix}{k}"), ident_str(line.get(k))));
        }
        if let Some(vcpus) = line.get("vcpus").and_then(Json::as_arr) {
            for v in vcpus {
                let id = v.get("vcpu").and_then(Json::as_u64).unwrap_or(0);
                for field in ["user_commits", "os_commits", "unprotected_commits"] {
                    if let Some(n) = v.get(field).and_then(Json::as_f64) {
                        metrics.insert(format!("{prefix}vcpu{id}.{field}"), n);
                    }
                }
            }
        }
        let m = line
            .get("metrics")
            .ok_or_else(|| format!("{path}: report line {i} has no metrics"))?;
        for group in ["counters", "gauges"] {
            for (name, v) in m.get(group).and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(n) = v.as_f64() {
                    metrics.insert(format!("{prefix}{name}"), n);
                }
            }
        }
        for (group, fields) in [
            ("histograms", &["count", "mean", "max", "p50", "p99"][..]),
            ("stats", &["count", "mean", "stddev", "ci95"][..]),
        ] {
            for (name, h) in m.get(group).and_then(Json::as_obj).unwrap_or(&[]) {
                for field in fields {
                    if let Some(n) = h.get(field).and_then(Json::as_f64) {
                        metrics.insert(format!("{prefix}{name}.{field}"), n);
                    }
                }
            }
        }
    }
    Ok(RunFile {
        kind: Kind::Report,
        identity,
        metrics,
    })
}

/// Flattens a time-series to per-metric aggregates: counters sum their
/// per-interval deltas (= the cumulative total), gauges keep their
/// last value, histograms expose the total observation count and the
/// overall max.
fn series_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let header = &lines[0];
    let identity = ["interval", "config", "benchmark", "samples"]
        .iter()
        .map(|k| (k.to_string(), ident_str(header.get(k))))
        .collect();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for (i, sample) in lines[1..].iter().enumerate() {
        if sample.get("at").is_none() {
            return Err(format!("{path}: sample line {i} has no \"at\""));
        }
        for (name, v) in sample.get("counters").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(n) = v.as_f64() {
                *metrics.entry(name.clone()).or_insert(0.0) += n;
            }
        }
        for (name, v) in sample.get("gauges").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(n) = v.as_f64() {
                metrics.insert(name.clone(), n);
            }
        }
        for (name, h) in sample
            .get("histograms")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
        {
            if let Some(c) = h.get("count").and_then(Json::as_f64) {
                *metrics.entry(format!("{name}.count")).or_insert(0.0) += c;
            }
            if let Some(mx) = h.get("max").and_then(Json::as_f64) {
                let e = metrics.entry(format!("{name}.max")).or_insert(0.0);
                *e = e.max(mx);
            }
        }
    }
    Ok(RunFile {
        kind: Kind::Series,
        identity,
        metrics,
    })
}

/// `obj[key]`, or an error naming the missing key.
fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("no {key:?}"))
}

/// Checks one run's profile as `ProfileReport::to_json` writes it —
/// the four sections present, every phase share a finite number >= 0,
/// the shares of a non-empty window (`total_nanos` > 0) summing to
/// 100 ± 0.5, and the wheel's `skip_efficiency` in [0, 1] — and adds
/// its phase shares and its wheel numbers (as `wheel.*`) to `metrics`,
/// each name after `prefix`.
fn add_profile(
    profile: &Json,
    prefix: &str,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
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

/// Loads a profile export (`results/<bin>.profile.jsonl`) for `profile`
/// mode, checking every run's profile ([`add_profile`]). Phase shares
/// become the gated metrics; wheel introspection numbers ride along
/// for display. Identity and names carry the run prefix of report
/// exports ([`run_prefix`]).
fn profile_file(path: &str, lines: &[Json]) -> Result<RunFile, String> {
    let mut identity = Vec::new();
    let mut metrics = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        let profile = line.get("profile").ok_or_else(|| {
            format!("{path}: line {i} has no profile (a --json run under MMM_PROFILE=1 writes one)")
        })?;
        let prefix = run_prefix(i, lines.len());
        add_profile(profile, &prefix, &mut metrics)
            .map_err(|e| format!("{path}: line {i}: {e}"))?;
        for k in RUN_IDENTITY {
            identity.push((format!("{prefix}{k}"), ident_str(line.get(k))));
        }
    }
    Ok(RunFile {
        kind: Kind::Profile,
        identity,
        metrics,
    })
}

/// Loads a campaign `aggregate.json` for `campaign` mode. The
/// identity is the sweep itself — campaign name, manifest hash, and
/// completion state — so partial and complete aggregates never compare
/// silently. Everything numeric flattens into the gated metrics:
/// per-cell summaries (`cell<id>.throughput`, ...), Pareto membership
/// as 0/1, and the lossless merged registry (counters, gauges,
/// histogram sum/max/count, stat n/mean/m2).
fn load_campaign(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("mmm-campaign-aggregate") {
        return Err(format!(
            "{path}: not a campaign aggregate (expected kind \"mmm-campaign-aggregate\")"
        ));
    }
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

/// Loads a fault-forensics export (`results/<bin>.faults.jsonl`,
/// written under `MMM_FORENSICS=1`) for `faults` mode. Header lines
/// (`kind: "mmm-faults-run"`) establish the identity: run count plus
/// the distinct config/benchmark/scheduler values. Record lines
/// (`kind: "fault"`) flatten into three metric families:
///
/// - `count.<site>.<verdict>` — raw record counts (ungated; they scale
///   with run length);
/// - `share.<site>.<verdict>` — the fraction of that site's records
///   landing on the verdict (gated on the absolute point delta);
/// - `latency.<verdict>.{p50,p99,mean}` — detection latency over the
///   records carrying a non-null latency (ungated; tails are noisy).
fn load_faults(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = 0u64;
    let mut idents: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut outcomes: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut latencies: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let line = Json::parse(raw).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        match line.get("kind").and_then(Json::as_str) {
            Some("mmm-faults-run") => {
                runs += 1;
                for key in ["config", "benchmark", "scheduler"] {
                    let v = ident_str(line.get(key));
                    let seen = idents.entry(key).or_default();
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                }
            }
            Some("fault") => {
                let site = line
                    .get("site")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{path}:{}: fault record without site", i + 1))?
                    .to_string();
                let verdict = line
                    .get("verdict")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{path}:{}: fault record without verdict", i + 1))?
                    .to_string();
                if let Some(l) = line.get("latency").and_then(Json::as_f64) {
                    latencies.entry(verdict.clone()).or_default().push(l);
                }
                *outcomes.entry((site, verdict)).or_insert(0) += 1;
            }
            _ => {
                return Err(format!(
                    "{path}:{}: not a forensics line (expected kind \
                     \"mmm-faults-run\" or \"fault\")",
                    i + 1
                ))
            }
        }
    }
    if runs == 0 {
        return Err(format!(
            "{path}: no forensics headers (run the bench under MMM_FORENSICS=1)"
        ));
    }
    let mut identity = vec![("runs".to_string(), runs.to_string())];
    for (key, mut values) in idents {
        values.sort();
        identity.push((key.to_string(), values.join(",")));
    }
    let mut site_totals: BTreeMap<&String, u64> = BTreeMap::new();
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
/// the comparison when `--only` names them explicitly.
fn host_dependent(name: &str) -> bool {
    name.contains("sim_cycles_per_sec")
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
        Some(Kind::Profile) => profile_file(path, &read_jsonl(path)?),
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
        profile_file("p.jsonl", &lines)
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
