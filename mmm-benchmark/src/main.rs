//! `mmm-benchmark`: the simulator's end-to-end and per-layer host
//! performance benchmark.
//!
//! ```text
//! mmm-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! mmm-benchmark --compare BASE.json NEW.json
//! ```
//!
//! Each repetition runs one workload in a fresh child process (this
//! executable with `--child`) whose environment carries no `MMM_*`
//! variable. Repetitions go round-robin across the chosen workloads
//! until each has used `--seconds` of host time, and at least
//! `MIN_REPS` times. The work of one repetition is fixed by the
//! workload table; `--seconds` sets only how many are measured. It is
//! part of the interface `BENCHMARK.json` declares: its command is run
//! as `<command> --workload W --seed N --seconds S --trace 0|1`, with
//! `S` its `run_seconds`, which equals `DEFAULT_SECONDS`.
//! Every repetition's output digest is checked; the
//! last line of standard output is the summary
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1`
//! alternates an untraced and a profiled repetition and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`.

mod hostspeed;
mod layers;
mod stats;
mod workloads;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mmm_trace::Json;

use crate::hostspeed::HostSpeed;
use crate::layers::PER_LAYER;
use crate::stats::{fnv1a64, Summary};
use crate::workloads::{find, run_rep, Rep, Spec, WORKLOADS};

/// One end-to-end metric: name, unit, whether lower is better, the
/// share of the base median by which it may worsen before it counts as
/// a regression, and its value in one repetition given the host's
/// slowdown during the run (`hostspeed`): host times are at the
/// reference host speed. `BENCHMARK.json` lists exactly these.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
    pub of: fn(&Rep, f64) -> f64,
}

pub const E2E: [E2e; 4] = [
    E2e {
        name: "sim_cycles_per_sec",
        unit: "cycles/s",
        lower_is_better: false,
        bound: 0.25,
        of: |r, slowdown| r.sim_cycles_per_sec() * slowdown,
    },
    E2e {
        name: "wall_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
        of: |r, slowdown| r.wall_s / slowdown,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
        of: |r, slowdown| r.setup_s / slowdown,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.10,
        of: |r, _| r.peak_rss_mb,
    },
];

/// Repetitions per workload before the time budget may stop it.
const MIN_REPS: usize = 3;
/// Host-time budget per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// A repetition still running after this long is killed and failed.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

const USAGE: &str = "usage: mmm-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       mmm-benchmark --compare BASE.json NEW.json";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

enum Mode {
    Bench(Args),
    Compare(String, String),
    Child(&'static Spec, u64, bool),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut child = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" | "--child" => {
                let v = value()?;
                let spec = find(v).ok_or(format!("unknown workload {v:?}"))?;
                if arg == "--child" {
                    child = Some(spec);
                } else {
                    a.workloads.push(spec);
                }
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            "--compare" => {
                let base = value()?.clone();
                let new = it.next().ok_or("--compare needs two files")?.clone();
                return Ok(Mode::Compare(base, new));
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if let Some(spec) = child {
        return Ok(Mode::Child(spec, a.seed, a.traced));
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().collect();
    }
    a.workloads.dedup_by_key(|s| s.name);
    Ok(Mode::Bench(a))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mmm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Child(spec, seed, traced) => match run_rep(spec, seed, traced) {
            Ok(rep) => {
                println!("{}", rep.to_json().render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mmm-benchmark: {}: {e}", spec.name);
                ExitCode::FAILURE
            }
        },
        Mode::Compare(base, new) => match compare_files(&base, &new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("mmm-benchmark: {e}");
                ExitCode::from(2)
            }
        },
        Mode::Bench(args) => bench(&args),
    }
}

/// The repetitions of one workload in one run.
struct WorkloadRun {
    spec: &'static Spec,
    /// The digest every repetition must produce: the pin at seed 1,
    /// otherwise the first repetition's.
    expected: Option<u64>,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    failures: Vec<String>,
    attempted: usize,
    host_s: f64,
}

impl WorkloadRun {
    fn new(spec: &'static Spec, seed: u64) -> Self {
        WorkloadRun {
            spec,
            expected: (seed == 1).then_some(spec.pin),
            untraced: Vec::new(),
            traced: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            host_s: 0.0,
        }
    }

    fn reps(&self) -> usize {
        self.untraced.len().max(self.traced.len()) + self.failures.len()
    }

    /// Runs one child repetition, times the reference loop after it, and
    /// checks its output.
    fn run_one(&mut self, speed: &mut HostSpeed, seed: u64, traced: bool) {
        self.attempted += 1;
        let started = Instant::now();
        let outcome = spawn_rep(self.spec, seed, traced).and_then(|rep| self.check(rep));
        let slowdown = speed.slowdown_since_last();
        self.host_s += started.elapsed().as_secs_f64();
        let label = if traced { "traced" } else { "untraced" };
        match outcome {
            Ok(mut rep) => {
                rep.slowdown = slowdown;
                eprintln!(
                    "mmm-benchmark: {} {label} rep {}: {:.3} s, {:.0} cycles/s, host slowdown {:.3}, digest {:016x}",
                    self.spec.name,
                    self.attempted,
                    rep.wall_s,
                    rep.sim_cycles_per_sec(),
                    rep.slowdown,
                    rep.digest
                );
                if traced {
                    self.traced.push(rep);
                } else {
                    self.untraced.push(rep);
                }
            }
            Err(e) => {
                eprintln!("mmm-benchmark: {} {label} rep FAILED: {e}", self.spec.name);
                self.failures.push(format!("{label}: {e}"));
            }
        }
    }

    fn check(&mut self, rep: Rep) -> Result<Rep, String> {
        let expected = *self.expected.get_or_insert(rep.digest);
        if rep.digest != expected {
            return Err(format!(
                "output digest {:016x}, expected {expected:016x}",
                rep.digest
            ));
        }
        Ok(rep)
    }

    /// The host's slowdown over the run: the median of its untraced
    /// repetitions', so one disturbed timing of the reference loop does
    /// not move a repetition's value.
    fn slowdown(&self) -> f64 {
        stats::median(&self.untraced.iter().map(|r| r.slowdown).collect::<Vec<_>>())
    }

    fn e2e(&self) -> Vec<(&'static E2e, Summary)> {
        let slowdown = self.slowdown();
        E2E.iter()
            .map(|m| {
                let values: Vec<f64> = self.untraced.iter().map(|r| (m.of)(r, slowdown)).collect();
                (m, Summary::of(&values))
            })
            .collect()
    }

    /// Every per-layer metric the traced repetitions measured, plus the
    /// profiling overhead against the untraced ones, in table order.
    fn layers(&self) -> Vec<(String, Summary)> {
        let mut names: Vec<&str> = Vec::new();
        for (k, _) in self.traced.iter().flat_map(|r| &r.layers) {
            if !names.contains(&k.as_str()) {
                names.push(k);
            }
        }
        let mut out: Vec<(String, Summary)> = names
            .iter()
            .map(|&name| {
                let values: Vec<f64> = self
                    .traced
                    .iter()
                    .filter_map(|r| r.layers.iter().find(|(k, _)| k == name).map(|p| p.1))
                    .collect();
                (name.to_string(), Summary::of(&values))
            })
            .collect();
        let base = stats::median(&self.untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let overhead: Vec<f64> = self.traced.iter().map(|r| r.run_s / base).collect();
        out.push((
            "trace.profile_overhead_x".to_string(),
            Summary::of(&overhead),
        ));
        let rank = |n: &str| {
            PER_LAYER
                .iter()
                .chain(&layers::WORKLOAD_SPECIFIC)
                .position(|(k, _)| *k == n)
        };
        out.sort_by_key(|(n, _)| rank(n));
        out
    }

    fn to_json(&self, traced: bool) -> Json {
        let summaries = |items: Vec<(String, Summary, &str)>| {
            Json::Obj(
                items
                    .into_iter()
                    .map(|(k, s, unit)| (k, s.to_json(unit)))
                    .collect(),
            )
        };
        let e2e = self
            .e2e()
            .into_iter()
            .map(|(m, s)| (m.name.to_string(), s, m.unit))
            .collect();
        let mut fields = vec![
            ("name", Json::str(self.spec.name)),
            ("why", Json::str(self.spec.why)),
            ("attempted", Json::U64(self.attempted as u64)),
            ("failed", Json::U64(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect()),
            ),
            (
                "digest",
                self.expected
                    .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
            ),
            ("e2e", summaries(e2e)),
            (
                "host_slowdown",
                Summary::of(&self.untraced.iter().map(|r| r.slowdown).collect::<Vec<_>>())
                    .to_json("x"),
            ),
        ];
        if traced {
            let layers = self
                .layers()
                .into_iter()
                .map(|(k, s)| {
                    let unit = layers::unit(&k);
                    (k, s, unit)
                })
                .collect();
            fields.push(("layers", summaries(layers)));
        }
        Json::obj(fields)
    }
}

fn bench(args: &Args) -> ExitCode {
    let mut runs: Vec<WorkloadRun> = args
        .workloads
        .iter()
        .map(|&spec| WorkloadRun::new(spec, args.seed))
        .collect();
    let mut speed = HostSpeed::new();
    // Round-robin, so host drift hits every workload alike. A workload
    // stops once another repetition would end more than half a
    // repetition past its budget, so a run ends near its budget.
    loop {
        let mut ran = false;
        for run in &mut runs {
            let estimate = if run.reps() == 0 {
                0.0
            } else {
                run.host_s / run.reps() as f64
            };
            if run.reps() >= MIN_REPS && run.host_s + estimate / 2.0 > args.seconds {
                continue;
            }
            if args.traced {
                run.run_one(&mut speed, args.seed, false);
            }
            run.run_one(&mut speed, args.seed, args.traced);
            ran = true;
        }
        if !ran {
            break;
        }
    }

    let doc = result_document(args, &runs);
    print_table(&runs, args.traced);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("mmm-benchmark: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let summary = summary_line(&runs, args.traced);
    println!("{}", summary.render());
    ExitCode::SUCCESS
}

/// The machine-readable last line: totals over every repetition, and each
/// metric's median. Metric names carry a `<workload>.` prefix when more
/// than one workload ran.
fn summary_line(runs: &[WorkloadRun], traced: bool) -> Json {
    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failures.len()).sum();
    let prefix = |run: &WorkloadRun, name: &str| {
        if runs.len() == 1 {
            name.to_string()
        } else {
            format!("{}.{name}", run.spec.name)
        }
    };
    let value =
        |v: f64, unit: &str| Json::obj([("value", Json::F64(v)), ("unit", Json::str(unit))]);
    let mut metrics = Vec::new();
    for run in runs {
        if traced {
            let layers = run.layers();
            for (name, unit) in PER_LAYER {
                let median = layers
                    .iter()
                    .find(|(k, _)| k == name)
                    .map_or(f64::NAN, |(_, s)| s.median);
                metrics.push((prefix(run, name), value(median, unit)));
            }
        } else {
            for (m, s) in run.e2e() {
                metrics.push((prefix(run, m.name), value(s.median, m.unit)));
            }
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::U64(attempted as u64)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn result_document(args: &Args, runs: &[WorkloadRun]) -> Json {
    Json::obj([
        ("kind", Json::str("mmm-benchmark-result")),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("traced", Json::Bool(args.traced)),
        ("provenance", provenance()),
        (
            "workloads",
            Json::Arr(runs.iter().map(|r| r.to_json(args.traced)).collect()),
        ),
    ])
}

fn print_table(runs: &[WorkloadRun], traced: bool) {
    for run in runs {
        eprintln!(
            "\n== {} ({} attempted, {} failed) ==",
            run.spec.name,
            run.attempted,
            run.failures.len()
        );
        let mut rows: Vec<(String, Summary, &str)> = run
            .e2e()
            .into_iter()
            .map(|(m, s)| (m.name.to_string(), s, m.unit))
            .collect();
        if traced {
            rows.extend(run.layers().into_iter().map(|(k, s)| {
                let unit = layers::unit(&k);
                (k, s, unit)
            }));
        }
        for (name, s, unit) in rows {
            eprintln!(
                "  {name:<30} {:>14.6} {unit:<9} q1 {:<12.6} q3 {:<12.6} n {}",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
}

/// Runs one repetition in a child process with every `MMM_*` variable
/// removed from its environment, so a stray shell setting cannot change
/// what is measured.
fn spawn_rep(spec: &Spec, seed: u64, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", spec.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MMM_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd.spawn().map_err(|e| format!("starting child: {e}"))?;
    // Drain both pipes while the child runs: the campaign writes a
    // progress line per cell to stderr.
    let drain = |pipe: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            if let Some(mut p) = pipe {
                let _ = p.read_to_string(&mut text);
            }
            text
        })
    };
    let stdout = drain(child.stdout.take().map(|p| Box::new(p) as _));
    let stderr = drain(child.stderr.take().map(|p| Box::new(p) as _));
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > REP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {} s", REP_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("waiting for child: {e}"));
            }
        }
    };
    let stdout = stdout.join().unwrap_or_default();
    let stderr = stderr.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!("child exited with {status}: {}", tail.join(" | ")));
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed no result")?;
    Rep::from_json(&Json::parse(last)?)
}

/// Where and on what the result was measured. Git is not allowed to
/// search above the working directory, so outside a checkout the commit
/// reads `unknown`.
fn provenance() -> Json {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    let text =
        |v: Option<String>| Json::str(v.map_or("unknown".to_string(), |s| s.trim().to_string()));
    let diff = run("git", &["diff", "HEAD"]);
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| run("hostname", &[]));
    Json::obj([
        ("commit", text(run("git", &["rev-parse", "HEAD"]))),
        (
            "dirty",
            diff.as_ref()
                .map_or(Json::Null, |d| Json::Bool(!d.is_empty())),
        ),
        (
            "diff_fnv",
            diff.as_ref().map_or(Json::Null, |d| {
                Json::str(format!("{:016x}", fnv1a64(d.as_bytes())))
            }),
        ),
        ("rustc", text(run("rustc", &["-V"]))),
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("host", text(host)),
        (
            "timestamp",
            Json::U64(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ),
    ])
}

/// Compares two result documents workload by workload. They agree when
/// every end-to-end median of `new` is within the metric's bound of
/// `base`'s (in either direction), the digests match, and neither has a
/// failed repetition.
fn compare_files(base: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base_doc, new_doc) = (load(base)?, load(new)?);
    let (lines, ok) = compare(&base_doc, &new_doc)?;
    for line in lines {
        println!("{line}");
    }
    println!("{}", if ok { "AGREE" } else { "DISAGREE" });
    Ok(ok)
}

fn compare(base: &Json, new: &Json) -> Result<(Vec<String>, bool), String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or("not an mmm-benchmark result (no \"workloads\")".to_string())
    };
    let base_runs = workloads(base)?;
    let mut lines = Vec::new();
    let mut ok = true;
    let mut compared = 0;
    for run in workloads(new)? {
        let name = run.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(b) = base_runs
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        compared += 1;
        let failed = |r: &Json| r.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX);
        if failed(b) != 0 || failed(&run) != 0 {
            ok = false;
            lines.push(format!(
                "{name}: failed repetitions {} / {}",
                failed(b),
                failed(&run)
            ));
        }
        let digest = |r: &Json| r.get("digest").and_then(Json::as_str).map(str::to_string);
        if digest(b).is_none() || digest(b) != digest(&run) {
            ok = false;
            lines.push(format!(
                "{name}: digest {:?} / {:?}",
                digest(b),
                digest(&run)
            ));
        }
        for m in &E2E {
            let median = |r: &Json| {
                r.get("e2e")
                    .and_then(|e| e.get(m.name))
                    .and_then(|s| s.get("median"))
                    .and_then(Json::as_f64)
            };
            let (Some(x), Some(y)) = (median(b), median(&run)) else {
                ok = false;
                lines.push(format!("{name} {}: missing", m.name));
                continue;
            };
            let change = (y - x) / x;
            let within = change.abs() <= m.bound;
            ok &= within;
            let worse = if m.lower_is_better {
                change > 0.0
            } else {
                change < 0.0
            };
            lines.push(format!(
                "{name:<16} {:<19} {x:>14.6} -> {y:>14.6} {:>+7.2}% {:<6} (bound {:.0}%) {}",
                m.name,
                100.0 * change,
                if worse { "worse" } else { "better" },
                100.0 * m.bound,
                if within { "ok" } else { "OUTSIDE" }
            ));
        }
    }
    if compared == 0 {
        return Err("the two results share no workload".to_string());
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_workload_and_metric_name_is_well_formed() {
        let names = WORKLOADS
            .iter()
            .map(|s| s.name)
            .chain(E2E.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(layers::WORKLOAD_SPECIFIC.iter().map(|m| m.0));
        let mut seen = Vec::new();
        for name in names {
            assert!(is_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
            assert!(!seen.contains(&name), "{name} is used twice");
            seen.push(name);
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly this
    /// benchmark's workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = E2E
            .iter()
            .map(|m| {
                let better = if m.lower_is_better { "lower" } else { "higher" };
                (m.name.into(), m.unit.into(), better.into(), m.bound)
            })
            .collect();
        assert_eq!(e2e, expected);

        let per_layer: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let expected: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, expected);

        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    /// This package's release profile is the repository workspace's,
    /// so the benchmark builds the binary users run.
    #[test]
    fn the_release_profile_matches_the_workspace() {
        let section = |path: &str| {
            let text = std::fs::read_to_string(path).unwrap();
            let lines: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim().is_empty() && !l.starts_with('['))
                .map(str::to_string)
                .collect();
            assert!(!lines.is_empty(), "{path} has no [profile.release]");
            lines
        };
        let dir = env!("CARGO_MANIFEST_DIR");
        assert_eq!(
            section(&format!("{dir}/Cargo.toml")),
            section(&format!("{dir}/../Cargo.toml"))
        );
    }

    /// The invocation `BENCHMARK.json` declares parses to one workload
    /// at the given seed, budget and tracing.
    #[test]
    fn the_declared_invocation_parses() {
        let args: Vec<String> = [
            "--workload",
            "solo16_pmake",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let Ok(Mode::Bench(a)) = parse_args(&args) else {
            panic!("{args:?} did not parse to a benchmark run");
        };
        let names: Vec<&str> = a.workloads.iter().map(|s| s.name).collect();
        assert_eq!(names, ["solo16_pmake"]);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 12.0, true));
        for bad in [["--seconds", "0"], ["--trace", "2"], ["--workload", "nope"]] {
            assert!(parse_args(&bad.map(String::from)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_sweep_manifest_carries_the_table_lengths() {
        let m = mmm_bench::campaign::Manifest::parse(workloads::SWEEP_MANIFEST).unwrap();
        let spec = find("campaign_sweep").unwrap();
        assert_eq!((m.warmup, m.measure), (spec.warmup, spec.measure));
        assert_eq!((m.cell_count(), m.seeds), (72, 1));
    }

    fn rep(digest: u64, run_s: f64, traced: bool) -> Rep {
        Rep {
            digest,
            setup_s: 0.01,
            wall_s: run_s + 0.5,
            run_s,
            cycles: 1_000_000,
            peak_rss_mb: 20.0,
            layers: if traced {
                PER_LAYER
                    .iter()
                    .filter(|(n, _)| *n != "trace.profile_overhead_x")
                    .map(|(n, _)| (n.to_string(), 1.5))
                    .collect()
            } else {
                Vec::new()
            },
            slowdown: 1.0,
        }
    }

    fn traced_run() -> WorkloadRun {
        let mut run = WorkloadRun::new(&WORKLOADS[0], 7);
        for (i, d) in [1.0, 1.2, 1.1].iter().enumerate() {
            let (plain, traced) = (rep(42, *d, false), rep(42, 2.0 * d, true));
            let plain = run.check(plain).unwrap();
            run.untraced.push(plain);
            let traced = run.check(traced).unwrap();
            run.traced.push(traced);
            run.attempted += 2;
            assert_eq!(run.reps(), i + 1);
        }
        run
    }

    /// The same work timed on a host running at half the reference
    /// speed reads the same, and one disturbed timing of the reference
    /// loop does not change that.
    #[test]
    fn end_to_end_times_are_at_the_reference_speed() {
        let run = traced_run();
        let mut slow = traced_run();
        for (i, r) in slow.untraced.iter_mut().enumerate() {
            r.setup_s *= 2.0;
            r.wall_s *= 2.0;
            r.run_s *= 2.0;
            r.slowdown = if i == 0 { 9.0 } else { 2.0 };
        }
        assert_eq!(slow.slowdown(), 2.0);
        let summaries = |w: &WorkloadRun| w.e2e().into_iter().map(|(_, s)| s).collect::<Vec<_>>();
        assert_eq!(summaries(&run), summaries(&slow));
    }

    #[test]
    fn repetitions_must_reproduce_one_digest() {
        let mut run = traced_run();
        assert!(run.check(rep(43, 1.0, false)).is_err());
        assert!(run.check(rep(43, 1.0, true)).is_err());
        // At seed 1 the pin decides, not the first repetition.
        let mut pinned = WorkloadRun::new(&WORKLOADS[1], 1);
        assert!(pinned.check(rep(WORKLOADS[1].pin ^ 1, 1.0, false)).is_err());
    }

    #[test]
    fn result_document_round_trips_and_compares_equal_to_itself() {
        let run = traced_run();
        let args = Args {
            workloads: vec![run.spec],
            seed: 7,
            seconds: 1.0,
            traced: true,
            out: None,
        };
        let doc = result_document(&args, std::slice::from_ref(&run));
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.render(), text);
        let (_, ok) = compare(&parsed, &parsed).unwrap();
        assert!(ok);

        let summary = Json::parse(&summary_line(&[run], true).render()).unwrap();
        let keys: Vec<&str> = summary
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = summary.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        let overhead = summary
            .get("metrics")
            .and_then(|m| m.get("trace.profile_overhead_x"))
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((overhead - 2.0).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_a_median_outside_its_bound() {
        let base = traced_run();
        let mut slow = traced_run();
        for r in &mut slow.untraced {
            r.run_s *= 1.5;
        }
        let args = Args {
            workloads: vec![base.spec],
            seed: 7,
            seconds: 1.0,
            traced: false,
            out: None,
        };
        let a = result_document(&args, &[base]);
        let b = result_document(&args, &[slow]);
        let (lines, ok) = compare(&a, &b).unwrap();
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("sim_cycles_per_sec") && l.contains("OUTSIDE")));
    }

    /// A 1/100-length copy of the table: every workload runs in this
    /// process untraced and traced, twice untraced, with the same
    /// digest each time, a profile that accounts for the measured
    /// window (checked inside `run_rep`), and every per-layer metric
    /// present.
    #[test]
    fn all_workloads_run_at_one_hundredth_length() {
        for spec in &WORKLOADS {
            let spec = spec.scaled(100);
            let plain = run_rep(&spec, 3, false).unwrap();
            let again = run_rep(&spec, 3, false).unwrap();
            let traced = run_rep(&spec, 3, true).unwrap();
            assert_eq!(
                plain.digest, again.digest,
                "{}: not deterministic",
                spec.name
            );
            assert_eq!(
                plain.digest, traced.digest,
                "{}: tracing changed the output",
                spec.name
            );
            for r in [&plain, &traced] {
                for v in [
                    r.setup_s,
                    r.wall_s,
                    r.run_s,
                    r.sim_cycles_per_sec(),
                    r.peak_rss_mb,
                ] {
                    assert!(v.is_finite() && v > 0.0, "{}: {r:?}", spec.name);
                }
            }
            for (name, _) in PER_LAYER
                .iter()
                .filter(|m| m.0 != "trace.profile_overhead_x")
            {
                let v = traced.layers.iter().find(|(k, _)| k == name);
                assert!(
                    v.is_some_and(|(_, v)| v.is_finite() && *v >= 0.0),
                    "{}: {name} = {v:?}",
                    spec.name
                );
            }
        }
    }
}
