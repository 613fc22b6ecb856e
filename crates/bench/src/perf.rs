//! Shared plumbing for the simulator-throughput smoke benchmarks.
//!
//! `perf_smoke` and `perf_fault_smoke` measure *simulated cycles per
//! wall-clock second* for one pinned configuration each and write the
//! result to a `BENCH_*.json` baseline at the repo root (schema
//! checked by `scripts/validate_bench.py`, regression-gated in CI by
//! `mmm-inspect --only sim_cycles_per_sec --direction down`). This
//! module holds everything the two binaries share: run repetition with
//! best-of selection, provenance capture (git describe and commit, a
//! hash of any uncommitted diff, timestamp, host), and the JSON
//! emission.
//!
//! The run is repeated `MMM_PERF_REPS` times (default 3) and the
//! *fastest* repetition is reported: the simulation itself is
//! bit-identical across repetitions, so wall-clock spread is pure host
//! noise and the minimum is the least-contended estimate.

use std::path::Path;
use std::process::Command;

use mmm_core::{Experiment, Workload};
use mmm_trace::Json;
use mmm_types::Result;

/// One throughput-baseline benchmark: a pinned workload (plus optional
/// fault injection) measured into `BENCH_<name>.json`.
pub struct PerfSpec {
    /// Baseline name (`hotloop`, `faultloop`): both the `bench` field
    /// of the JSON and the `BENCH_<name>.json` file stem.
    pub name: &'static str,
    /// The pinned workload configuration.
    pub workload: Workload,
    /// Experiment seed (pinned so every run simulates the same work).
    pub seed: u64,
    /// Fault-injection rate per core-cycle, when the baseline
    /// exercises the injection path.
    pub fault_rate: Option<f64>,
}

/// Where a baseline was measured: the commit, and whether and how the
/// source differed from it.
#[derive(Debug)]
struct Provenance {
    /// `git describe --always --tags`, with `-dirty` appended when the
    /// source diff is not empty; `"unknown"` outside a git checkout.
    describe: String,
    /// `git rev-parse --short HEAD`, pinned separately from the
    /// describe so provenance survives tag churn; `"unknown"` outside
    /// a git checkout.
    commit: String,
    /// FNV-1a 64 of the source diff as 16 hex digits: which
    /// uncommitted changes a `-dirty` baseline was measured on. `None`
    /// on a clean tree or outside a git checkout.
    diff_fnv: Option<String>,
}

/// The stdout of `git args` run in `dir`, or `None` if git fails
/// (outside a checkout, or no git at all).
fn git(dir: &Path, args: &[&str]) -> Option<Vec<u8>> {
    Command::new("git")
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| o.stdout)
}

/// The provenance of the checkout holding `dir`. The source diff is
/// `git diff HEAD` of the whole tree except the `BENCH_*.json` files
/// at its root: the baseline binaries rewrite those themselves, so a
/// bless run from a clean commit would otherwise stamp every baseline
/// after the first `-dirty`, with a hash of the earlier ones' output.
fn provenance(dir: &Path) -> Provenance {
    let text = |out: Option<Vec<u8>>| {
        out.and_then(|o| String::from_utf8(o).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    };
    let diff = git(
        dir,
        &["diff", "HEAD", "--", ":(top)", ":(top,exclude)BENCH_*.json"],
    )
    .filter(|d| !d.is_empty());
    let describe = text(git(dir, &["describe", "--always", "--tags"])).map(|d| match diff {
        Some(_) => format!("{d}-dirty"),
        None => d,
    });
    Provenance {
        describe: describe.unwrap_or_else(|| "unknown".to_string()),
        commit: text(git(dir, &["rev-parse", "--short", "HEAD"]))
            .unwrap_or_else(|| "unknown".to_string()),
        diff_fnv: diff.map(|d| crate::fnv1a64_hex(&d)),
    }
}

/// Seconds since the Unix epoch at invocation. Host state enters the
/// baseline only here, in the harness — never inside the simulator,
/// whose outputs stay bit-identical.
fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Best-effort host name: `$HOSTNAME`, else `hostname(1)`, else
/// `"unknown"`.
fn host_name() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    Command::new("hostname")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs `spec` under the experiment template `e` (`MMM_PERF_REPS`
/// repetitions, fastest wins), prints the baseline JSON line, and
/// writes it to `BENCH_<name>.json` at the repo root.
pub fn run_perf_baseline(e: &Experiment, spec: &PerfSpec) -> Result<()> {
    let mut e = e.clone();
    e.fault_rate = spec.fault_rate;
    eprintln!(
        "perf_{}: {} / {} seed {} (warmup {}, measure {}{})",
        spec.name,
        spec.workload.name(),
        spec.workload.benchmark().name(),
        spec.seed,
        e.warmup,
        e.measure,
        match spec.fault_rate {
            Some(r) => format!(", fault rate {r:.0e}"),
            None => String::new(),
        }
    );

    let reps = std::env::var("MMM_PERF_REPS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(3)
        .max(1);
    let mut walls = Vec::with_capacity(reps as usize);
    let mut report = e.run_one(spec.workload, spec.seed)?;
    walls.push(report.wall_seconds);
    for _ in 1..reps {
        let r = e.run_one(spec.workload, spec.seed)?;
        walls.push(r.wall_seconds);
        if r.wall_seconds < report.wall_seconds {
            report = r;
        }
    }
    let cps = if report.wall_seconds > 0.0 {
        report.cycles as f64 / report.wall_seconds
    } else {
        0.0
    };

    let source = provenance(Path::new(env!("CARGO_MANIFEST_DIR")));
    let mut fields = vec![
        ("bench", Json::str(spec.name)),
        ("config", Json::str(report.config)),
        ("benchmark", Json::str(report.benchmark)),
        ("warmup_cycles", Json::U64(e.warmup)),
        ("measured_cycles", Json::U64(report.cycles)),
        ("wall_seconds", Json::F64(report.wall_seconds)),
        ("sim_cycles_per_sec", Json::F64(cps)),
        ("reps", Json::U64(reps as u64)),
        (
            "rep_wall_seconds",
            Json::Arr(walls.iter().map(|&w| Json::F64(w)).collect()),
        ),
        ("git_describe", Json::str(source.describe)),
        ("git_commit", Json::str(source.commit)),
        ("diff_fnv", source.diff_fnv.map_or(Json::Null, Json::str)),
        ("timestamp", Json::U64(unix_timestamp())),
        ("host", Json::str(host_name())),
    ];
    // Profiled runs (`MMM_PROFILE=1`) carry phase-level host-cost
    // attribution: embed it (fastest rep's profile) and drop a
    // speedscope file next to the baseline.
    if let Some(profile) = &report.profile {
        fields.push(("profile", profile.to_json()));
    }
    let line = Json::obj(fields).render();

    println!("{line}");
    let out = format!(
        "{}/../../BENCH_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        spec.name
    );
    if let Err(err) = std::fs::write(&out, format!("{line}\n")) {
        eprintln!("perf_{}: could not write {out}: {err}", spec.name);
    }
    if let Some(profile) = &report.profile {
        let scope = format!(
            "{}/../../BENCH_{}.speedscope.json",
            env!("CARGO_MANIFEST_DIR"),
            spec.name
        );
        let body = profile.to_speedscope(&format!("perf_{}", spec.name));
        match std::fs::write(&scope, format!("{body}\n")) {
            Ok(()) => eprintln!(
                "perf_{}: profile -> BENCH_{}.speedscope.json \
                 (open at https://www.speedscope.app)",
                spec.name, spec.name
            ),
            Err(err) => eprintln!("perf_{}: could not write {scope}: {err}", spec.name),
        }
    }
    eprintln!(
        "perf_{}: {:.0} simulated cycles/sec ({:.2}s wall) -> BENCH_{}.json",
        spec.name, cps, report.wall_seconds, spec.name
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs git in `dir` with a throwaway identity; panics on failure.
    fn run_git(dir: &Path, args: &[&str]) {
        let out = Command::new("git")
            .args(["-c", "user.name=perf", "-c", "user.email=perf@example.com"])
            .args(["-c", "commit.gpgsign=false"])
            .args(args)
            .current_dir(dir)
            .output()
            .expect("git runs");
        assert!(out.status.success(), "git {args:?}: {out:?}");
    }

    #[test]
    fn rewritten_baselines_leave_the_provenance_clean() {
        let dir = std::env::temp_dir().join(format!("mmm-perf-provenance-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crate")).unwrap();
        let write = |path: &str, text: &str| std::fs::write(dir.join(path), text).unwrap();
        write("crate/lib.rs", "fn a() {}\n");
        for name in ["hotloop", "faultloop", "singleos"] {
            write(&format!("BENCH_{name}.json"), "{\"wall_seconds\": 1.0}\n");
        }
        run_git(&dir, &["init", "-q"]);
        run_git(&dir, &["add", "."]);
        run_git(&dir, &["commit", "-q", "-m", "baselines"]);
        let clean = provenance(&dir.join("crate"));
        assert!(!clean.describe.ends_with("-dirty"), "{clean:?}");
        assert_eq!(clean.diff_fnv, None);

        // A bless run rewrites the baselines one after another; every
        // one must still be stamped with the clean commit.
        for name in ["hotloop", "faultloop", "singleos"] {
            write(&format!("BENCH_{name}.json"), "{\"wall_seconds\": 2.0}\n");
            let p = provenance(&dir.join("crate"));
            assert_eq!((p.describe, p.diff_fnv), (clean.describe.clone(), None));
        }

        // A source change is dirty, and its hash ignores the baselines.
        write("crate/lib.rs", "fn b() {}\n");
        let dirty = provenance(&dir.join("crate"));
        assert_eq!(dirty.describe, format!("{}-dirty", clean.describe));
        let fnv = dirty.diff_fnv.expect("a dirty tree has a diff hash");
        assert!(fnv.len() == 16 && fnv.bytes().all(|b| b.is_ascii_hexdigit()));
        write("BENCH_hotloop.json", "{\"wall_seconds\": 3.0}\n");
        assert_eq!(provenance(&dir).diff_fnv, Some(fnv));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
