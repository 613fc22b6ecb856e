//! High-level experiment driver.
//!
//! Reproduces the paper's methodology (§4.1): each configuration runs
//! for a warm-up period plus a measured period, repeated across
//! multiple seeds ("due to workload variability, we simulate multiple
//! runs and report average results with 95% confidence intervals"),
//! with *committed user instructions* as the work metric.
//!
//! Run lengths default to a laptop-scale budget and are overridable
//! through environment variables so the bench harness can scale up.
//! This module is the one place the simulator reads them; a value
//! that is unset or does not parse leaves the default in place.
//!
//! * `MMM_WARMUP` — warm-up cycles per run (default 100 000);
//! * `MMM_MEASURE` — measured cycles per run (default 400 000;
//!   the paper used 100 M on a machine-room simulator);
//! * `MMM_SEEDS` — number of seeds (default 3);
//! * `MMM_THREADS` — worker threads for [`Experiment::run_many`] and
//!   campaigns (default, and for `0`: available parallelism). Reports
//!   are bit-identical at any thread count — each run is a sealed
//!   deterministic simulation.
//! * `MMM_SAMPLE_INTERVAL` — flight-recorder sampling interval in
//!   simulated cycles (default: off). Sampling never changes
//!   simulated timing or reported metrics.
//! * `MMM_PROFILE` — self-profiler switch (default: off; any value
//!   but `0` or empty enables). Attributes host wall-time to hot-loop
//!   phases; never changes simulated timing or reported metrics.
//! * `MMM_FORENSICS` — fault-forensics switch (default: off; any
//!   value but `0` or empty enables). Gives every injected fault a
//!   causal lifecycle record ([`SystemReport::forensics`]); never
//!   changes simulated timing or reported metrics.

use std::sync::atomic::{AtomicUsize, Ordering};

use mmm_trace::{Forensics, Profiler, Sampler, FORENSICS_WINDOW};
use mmm_types::stats::mean_ci95;
use mmm_types::{Result, SystemConfig};

use crate::sched::Workload;
use crate::system::{System, SystemReport};

/// One experiment campaign: a configuration template plus run lengths.
///
/// ```
/// use mmm_core::{Experiment, Workload};
/// use mmm_workload::Benchmark;
///
/// let mut e = Experiment::default();
/// e.warmup = 5_000;
/// e.measure = 20_000;
/// e.seeds = vec![1, 2];
/// let run = e.run_workload(Workload::NoDmr(Benchmark::Pmake))?;
/// let (ipc, ci) = run.avg_user_ipc();
/// assert!(ipc > 0.0 && ci >= 0.0);
/// # Ok::<(), mmm_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Machine configuration template.
    pub cfg: SystemConfig,
    /// Warm-up cycles (excluded from measurement).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Optional fault-injection rate (faults per core-cycle).
    pub fault_rate: Option<f64>,
    /// Flight-recorder sampling interval in simulated cycles (`None`:
    /// sampler off). When set, each run carries a
    /// [`SystemReport::series`] time-series.
    pub sample_interval: Option<u64>,
    /// Cycle fast-forwarding (default on). The determinism suite
    /// turns it off to prove results are skip-invariant.
    pub cycle_skipping: bool,
    /// Self-profiler switch (`MMM_PROFILE`; default off). When set,
    /// each run carries a [`SystemReport::profile`] with phase-level
    /// host-cost attribution. Profiling never changes simulated
    /// timing or reported metrics.
    pub profile: bool,
    /// Fault-forensics switch (`MMM_FORENSICS`; default off). When
    /// set, each run carries a [`SystemReport::forensics`] report with
    /// one causal lifecycle record per injected fault. Forensics never
    /// changes simulated timing or reported metrics.
    pub forensics: bool,
}

impl Default for Experiment {
    fn default() -> Self {
        Self {
            cfg: SystemConfig::default(),
            warmup: 100_000,
            measure: 400_000,
            seeds: vec![1, 2, 3],
            fault_rate: None,
            sample_interval: None,
            cycle_skipping: true,
            profile: false,
            forensics: false,
        }
    }
}

/// Worker threads for an `MMM_THREADS` value: a positive count as
/// given; unset, `0` or unparsable means available parallelism.
fn threads_from(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Worker threads from the `MMM_THREADS` environment variable (see
/// the module docs).
pub fn env_threads() -> usize {
    threads_from(std::env::var("MMM_THREADS").ok().as_deref())
}

impl Experiment {
    /// [`Experiment::default`] with the `MMM_*` environment overrides
    /// applied (see [`Experiment::with_env`]).
    pub fn from_env() -> Self {
        Experiment::default().with_env()
    }

    /// Applies each `MMM_*` override that is set and parses on top of
    /// `self`; an unset or unparsable value keeps `self`'s.
    pub fn with_env(self) -> Self {
        self.with_vars(|name| std::env::var(name).ok())
    }

    /// [`Experiment::with_env`] over an arbitrary variable lookup.
    fn with_vars(mut self, var: impl Fn(&str) -> Option<String>) -> Self {
        let num = |name| var(name).and_then(|v| v.parse::<u64>().ok());
        let switch = |name| var(name).map(|v| !v.is_empty() && v != "0");
        if let Some(n) = num("MMM_WARMUP") {
            self.warmup = n;
        }
        if let Some(n) = num("MMM_MEASURE") {
            self.measure = n;
        }
        if let Some(n) = num("MMM_SEEDS") {
            self.seeds = (1..=n.max(1)).collect();
        }
        if let Some(n) = num("MMM_SAMPLE_INTERVAL") {
            self.sample_interval = (n > 0).then_some(n);
        }
        if let Some(on) = switch("MMM_PROFILE") {
            self.profile = on;
        }
        if let Some(on) = switch("MMM_FORENSICS") {
            self.forensics = on;
        }
        self
    }

    /// Runs one `(workload, seed)` pair.
    pub fn run_one(&self, workload: Workload, seed: u64) -> Result<SystemReport> {
        let mut sys = System::new(&self.cfg, workload, seed)?;
        if let Some(rate) = self.fault_rate {
            sys.enable_fault_injection(rate, seed ^ 0xF417);
        }
        if let Some(interval) = self.sample_interval {
            sys.attach_sampler(Sampler::every(interval));
        }
        if self.profile {
            sys.attach_profiler(Profiler::enabled());
        }
        if self.forensics {
            sys.attach_forensics(Forensics::enabled(
                self.cfg.cores as usize,
                FORENSICS_WINDOW,
            ));
        }
        sys.set_cycle_skipping(self.cycle_skipping);
        Ok(sys.run_measured(self.warmup, self.measure))
    }

    /// Runs one workload across all seeds (sequentially).
    pub fn run_workload(&self, workload: Workload) -> Result<RunResult> {
        let reports = self
            .seeds
            .iter()
            .map(|&s| self.run_one(workload, s))
            .collect::<Result<Vec<_>>>()?;
        Ok(RunResult { workload, reports })
    }

    /// Runs many workloads on [`env_threads`] threads: the caller and
    /// `env_threads() - 1` helpers.
    ///
    /// Each `(workload, seed)` pair is one job on a shared atomic
    /// work-queue: each thread claims the next job index with a
    /// `fetch_add`, so a long run never strands the rest of a batch
    /// behind it. Results are slotted by job index, so the output —
    /// like every simulated run — is independent of the thread count.
    pub fn run_many(&self, workloads: &[Workload]) -> Result<Vec<RunResult>> {
        self.run_many_on(workloads, env_threads())
    }

    /// [`Experiment::run_many`] with an explicit worker-thread count
    /// (bypassing the `MMM_THREADS` lookup).
    pub fn run_many_on(&self, workloads: &[Workload], threads: usize) -> Result<Vec<RunResult>> {
        let jobs: Vec<(usize, usize, Workload, u64)> = workloads
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| {
                self.seeds
                    .iter()
                    .enumerate()
                    .map(move |(j, &s)| (i, j, w, s))
            })
            .collect();
        let outputs = run_queue(jobs.len(), threads, |k| {
            let (i, j, w, s) = jobs[k];
            (i, j, self.run_one(w, s))
        });
        let mut results: Vec<Vec<Option<SystemReport>>> =
            vec![vec![None; self.seeds.len()]; workloads.len()];
        for (i, j, report) in outputs {
            results[i][j] = Some(report?);
        }
        Ok(workloads
            .iter()
            .zip(results)
            .map(|(&workload, reports)| RunResult {
                workload,
                reports: reports.into_iter().flatten().collect(),
            })
            .collect())
    }
}

/// Runs `count` jobs on the calling thread and `threads - 1` scoped
/// helpers, each claiming job indices off a shared atomic counter —
/// the work-queue behind [`Experiment::run_many_on`] and
/// [`run_cells`]. One thread therefore starts no helper. Results come
/// back unordered (tagged by whatever `job` returns); callers slot
/// them by index, so output is independent of the thread count.
fn run_queue<T: Send>(count: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= count {
                break;
            }
            done.push(job(k));
        }
        done
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("experiment thread panicked"));
        }
        done
    })
}

/// One fully-parameterized campaign cell: an [`Experiment`] template
/// (its own `SystemConfig`, cycle budgets, seeds, and fault rate)
/// bound to one [`Workload`]. Unlike [`Experiment::run_many`], where
/// every workload shares a single configuration, each cell carries its
/// own — this is the unit of a design-space sweep (PAB geometry, pair
/// topology, scheduler mode, fault rate, switch interval all vary per
/// cell).
#[derive(Clone, Debug)]
pub struct Cell {
    /// The experiment template this cell runs under.
    pub experiment: Experiment,
    /// The workload configuration.
    pub workload: Workload,
}

impl Cell {
    /// Runs the cell's seeds sequentially (cross-cell parallelism is
    /// [`run_cells`]' job).
    pub fn run(&self) -> Result<RunResult> {
        self.experiment.run_workload(self.workload)
    }
}

/// Runs a batch of heterogeneous [`Cell`]s across the shared atomic
/// work-queue. The cell — not the `(workload, seed)` pair — is the job
/// granularity, so `on_complete` fires exactly once per finished cell
/// (from a worker thread, in completion order, with the cell's
/// `Ok`/`Err` outcome) and a campaign can checkpoint or log each cell
/// the moment it is done. Results are slotted by cell index: the
/// returned vector is independent of the thread count and of
/// completion order.
pub fn run_cells<F>(cells: &[Cell], threads: usize, on_complete: F) -> Result<Vec<RunResult>>
where
    F: Fn(usize, std::result::Result<&RunResult, &mmm_types::Error>) + Sync,
{
    let outputs = run_queue(cells.len(), threads, |k| {
        let result = cells[k].run();
        on_complete(k, result.as_ref());
        (k, result)
    });
    let mut results: Vec<Option<RunResult>> = (0..cells.len()).map(|_| None).collect();
    for (k, result) in outputs {
        results[k] = Some(result?);
    }
    Ok(results.into_iter().flatten().collect())
}

/// All seeds' reports for one workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The configuration that ran.
    pub workload: Workload,
    /// One report per seed.
    pub reports: Vec<SystemReport>,
}

impl RunResult {
    /// Mean and 95% CI half-width of an arbitrary per-report metric.
    pub fn metric<F: Fn(&SystemReport) -> f64>(&self, f: F) -> (f64, f64) {
        let samples: Vec<f64> = self.reports.iter().map(f).collect();
        mean_ci95(&samples)
    }

    /// Machine-wide average per-VCPU user IPC.
    pub fn avg_user_ipc(&self) -> (f64, f64) {
        self.metric(|r| r.avg_user_ipc())
    }

    /// Machine-wide user instructions per cycle (throughput).
    pub fn throughput(&self) -> (f64, f64) {
        self.metric(|r| r.total_user_commits() as f64 / r.cycles as f64)
    }

    /// Per-thread user IPC of one VM.
    pub fn vm_ipc(&self, vm: mmm_types::VmId) -> (f64, f64) {
        self.metric(|r| r.vm_avg_user_ipc(vm))
    }

    /// User-instruction throughput of one VM.
    pub fn vm_throughput(&self, vm: mmm_types::VmId) -> (f64, f64) {
        self.metric(|r| r.vm_user_commits(vm) as f64 / r.cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_workload::Benchmark;

    fn tiny() -> Experiment {
        Experiment {
            warmup: 5_000,
            measure: 40_000,
            seeds: vec![1, 2],
            ..Default::default()
        }
    }

    #[test]
    fn run_workload_produces_one_report_per_seed() {
        let e = tiny();
        let r = e.run_workload(Workload::NoDmr(Benchmark::Pmake)).unwrap();
        assert_eq!(r.reports.len(), 2);
        let (ipc, _) = r.avg_user_ipc();
        assert!(ipc > 0.0);
    }

    #[test]
    fn run_many_matches_sequential() {
        let e = tiny();
        let seq = e.run_workload(Workload::NoDmr(Benchmark::Pmake)).unwrap();
        let par = e
            .run_many(&[Workload::NoDmr(Benchmark::Pmake)])
            .unwrap()
            .remove(0);
        assert_eq!(
            seq.reports[0].total_user_commits(),
            par.reports[0].total_user_commits(),
            "parallel execution must be bit-identical"
        );
    }

    #[test]
    fn work_queue_is_thread_count_independent() {
        let e = tiny();
        let wls = [
            Workload::NoDmr(Benchmark::Pmake),
            Workload::NoDmr(Benchmark::Oltp),
        ];
        let one = e.run_many_on(&wls, 1).unwrap();
        let many = e.run_many_on(&wls, 3).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.reports.len(), b.reports.len());
            for (ra, rb) in a.reports.iter().zip(&b.reports) {
                assert_eq!(ra.total_user_commits(), rb.total_user_commits());
                assert_eq!(ra.cycles, rb.cycles);
            }
        }
    }

    #[test]
    fn run_cells_matches_sequential_and_reports_completions() {
        use std::sync::Mutex;
        let mut small = tiny();
        small.seeds = vec![1];
        let mut other = small.clone();
        other.cfg.pab.entries = 64;
        let cells = [
            Cell {
                experiment: small.clone(),
                workload: Workload::NoDmr(Benchmark::Pmake),
            },
            Cell {
                experiment: other,
                workload: Workload::ReunionDmr(Benchmark::Pmake),
            },
        ];
        let done = Mutex::new(Vec::new());
        let par = run_cells(&cells, 2, |i, run| {
            done.lock()
                .unwrap()
                .push((i, run.expect("cell runs clean").reports.len()));
        })
        .unwrap();
        let mut done = done.into_inner().unwrap();
        done.sort_unstable();
        assert_eq!(done, vec![(0, 1), (1, 1)], "one completion per cell");
        // Slotted by cell index and bit-identical to sequential runs.
        for (cell, run) in cells.iter().zip(&par) {
            let seq = cell.run().unwrap();
            assert_eq!(seq.workload, run.workload);
            assert_eq!(
                seq.reports[0].total_user_commits(),
                run.reports[0].total_user_commits()
            );
            assert_eq!(seq.reports[0].cycles, run.reports[0].cycles);
        }
        // Thread count never changes the slotted output.
        let one = run_cells(&cells, 1, |_, _| {}).unwrap();
        for (a, b) in par.iter().zip(&one) {
            assert_eq!(
                a.reports[0].total_user_commits(),
                b.reports[0].total_user_commits()
            );
        }
    }

    #[test]
    fn the_work_queue_runs_on_its_caller() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        use std::thread;
        let caller = thread::current().id();
        let ids = run_queue(8, 1, |_| thread::current().id());
        assert_eq!(ids, vec![caller; 8], "one thread starts no helper");
        let ids: HashSet<_> = run_queue(64, 2, |_| thread::current().id())
            .into_iter()
            .collect();
        assert!(ids.len() <= 2, "{} threads ran the jobs", ids.len());
        // Two jobs that each wait for the other must run at once, so
        // both threads take one: the caller and its one helper.
        let barrier = Barrier::new(2);
        let ids = run_queue(2, 2, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert!(ids.contains(&caller) && ids[0] != ids[1], "{ids:?}");
    }

    #[test]
    fn metric_ci_is_finite() {
        let e = tiny();
        let r = e.run_workload(Workload::NoDmr(Benchmark::Pmake)).unwrap();
        let (m, hw) = r.throughput();
        assert!(m.is_finite() && hw.is_finite());
        assert!(m > 0.0);
    }

    #[test]
    fn sampling_and_skip_are_observability_knobs() {
        let w = Workload::NoDmr(Benchmark::Pmake);
        let mut e = tiny();
        let mut plain = e.run_one(w, 1).unwrap();
        e.sample_interval = Some(10_000);
        e.cycle_skipping = false;
        let mut sampled = e.run_one(w, 1).unwrap();
        // Wall timing (and the gauge derived from it) is the one
        // host-dependent field; zero it before comparing.
        plain.wall_seconds = 0.0;
        sampled.wall_seconds = 0.0;
        let series = sampled.series.take().expect("sampler attached");
        assert_eq!(
            plain.to_json(),
            sampled.to_json(),
            "sampling + skip-off must not change the report"
        );
        assert_eq!(series.interval, 10_000);
        assert_eq!(series.samples.len(), 4, "40k measured / 10k cadence");
        assert!(series.samples.iter().all(|s| !s.counters.is_empty()));
    }

    #[test]
    fn env_defaults_are_sane() {
        let e = Experiment::from_env();
        assert!(e.warmup > 0 && e.measure > 0 && !e.seeds.is_empty());
    }

    #[test]
    fn threads_parse_is_a_positive_count_or_the_default() {
        let default = threads_from(None);
        assert!(default >= 1);
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some("1")), 1);
        for v in ["0", "", "four", "-2", " 2"] {
            assert_eq!(threads_from(Some(v)), default, "{v:?}");
        }
    }

    #[test]
    fn env_overrides_apply_only_values_that_parse() {
        let base = Experiment {
            warmup: 7,
            measure: 9,
            sample_interval: Some(5),
            profile: true,
            ..Experiment::default()
        };
        let with = |vars: &[(&str, &str)]| {
            let vars: Vec<(String, String)> = vars
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            base.clone()
                .with_vars(|name| vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()))
        };
        // Nothing set: the caller's defaults survive.
        let e = with(&[]);
        assert_eq!((e.warmup, e.measure), (7, 9));
        assert_eq!(e.seeds, [1, 2, 3]);
        assert_eq!(e.sample_interval, Some(5));
        assert!(e.profile && !e.forensics);
        // Set but unparsable: still the caller's defaults.
        let e = with(&[
            ("MMM_WARMUP", "lots"),
            ("MMM_MEASURE", "-1"),
            ("MMM_SEEDS", "x"),
            ("MMM_SAMPLE_INTERVAL", "1e4"),
        ]);
        assert_eq!((e.warmup, e.measure), (7, 9));
        assert_eq!(e.seeds, [1, 2, 3]);
        assert_eq!(e.sample_interval, Some(5));
        // Set and parsable: applied; `0` turns the sampler off and a
        // switch is on for any value but empty or `0`.
        let e = with(&[
            ("MMM_WARMUP", "100"),
            ("MMM_MEASURE", "200"),
            ("MMM_SEEDS", "0"),
            ("MMM_SAMPLE_INTERVAL", "0"),
            ("MMM_PROFILE", "0"),
            ("MMM_FORENSICS", "yes"),
        ]);
        assert_eq!((e.warmup, e.measure), (100, 200));
        assert_eq!(e.seeds, [1]);
        assert_eq!(e.sample_interval, None);
        assert!(!e.profile && e.forensics);
    }

    #[test]
    fn forensics_is_an_observability_knob() {
        // The golden-report constraint: metrics, counters, and cycle
        // counts are bit-identical with forensics on or off, and the
        // forensics report accounts for every injected fault.
        let w = Workload::ReunionDmr(Benchmark::Pmake);
        let mut e = tiny();
        e.fault_rate = Some(2e-5);
        let mut plain = e.run_one(w, 1).unwrap();
        e.forensics = true;
        let mut traced = e.run_one(w, 1).unwrap();
        plain.wall_seconds = 0.0;
        traced.wall_seconds = 0.0;
        let forensics = traced.forensics.take().expect("forensics attached");
        assert_eq!(
            plain.to_json(),
            traced.to_json(),
            "forensics must not change the report"
        );
        let tel = traced.fault_telemetry.as_ref().expect("injector attached");
        let injected: u64 = tel.sites().map(|(_, s)| s.injected).sum();
        assert_eq!(
            forensics.records.len() as u64,
            injected,
            "one record per injected fault"
        );
        assert!(injected > 0, "test must exercise the fault path");
    }

    #[test]
    fn forensics_stream_is_thread_count_invariant() {
        // The forensics JSONL, like every report, must be bit-identical
        // across MMM_THREADS values: runs are sealed deterministic
        // simulations slotted by job index.
        let mut e = tiny();
        e.fault_rate = Some(2e-5);
        e.forensics = true;
        let wls = [
            Workload::ReunionDmr(Benchmark::Pmake),
            Workload::ReunionDmr(Benchmark::Oltp),
        ];
        let render = |results: Vec<RunResult>| -> Vec<String> {
            results
                .into_iter()
                .flat_map(|r| r.reports)
                .map(|mut rep| {
                    rep.forensics
                        .take()
                        .expect("forensics attached")
                        .jsonl(0, "cfg", "bench", "sched")
                        .join("\n")
                })
                .collect()
        };
        let one = render(e.run_many_on(&wls, 1).unwrap());
        let many = render(e.run_many_on(&wls, 3).unwrap());
        assert_eq!(one, many, "forensics stream must be thread-invariant");
        assert!(
            one.iter().any(|s| s.lines().count() > 1),
            "at least one run must have recorded a fault"
        );
    }
}
