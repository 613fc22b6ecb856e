//! The full-system simulator: cores, memory, DMR pairs, PAT/PAB,
//! transition engine, scheduler, and fault injector, advanced one
//! cycle at a time.
//!
//! A [`System`] is built from a [`SystemConfig`] and a
//! [`Workload`] (one of the paper's machine configurations) and run
//! for a warm-up period followed by a measured period, yielding a
//! [`SystemReport`] with the quantities the paper's figures plot.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mmm_cpu::{Boundary, Core, CoreStats, ExecContext, PabPort, PhaseTracker};
use mmm_mem::request::store_token;
use mmm_mem::{MemStats, MemorySystem};
use mmm_reunion::{DmrPair, PairStats};
use mmm_trace::{
    Event, Forensics, ForensicsReport, Json, MetricsRegistry, MetricsSeries, ProfPhase,
    ProfileReport, Profiler, Sampler, SchedAction, Tracer, TransitionKind,
};
use mmm_types::ids::{PAGE_BYTES, PAGE_SHIFT};
use mmm_types::{CoreId, Cycle, PageAddr, Result, SystemConfig, VcpuId, VmId};
use mmm_workload::layout::{PAT_END, SCRATCHPAD_BASE};
use mmm_workload::{AddressLayout, Generator, OpStream};

use crate::fault::{CampaignTelemetry, FaultInjector, FaultSite, FaultStats};
use crate::mode::RelMode;
use crate::pab::{Pab, PabStats};
use crate::pat::Pat;
use crate::sched::{MixedPolicy, Workload};
use crate::transition::{TransitionEngine, TransitionStats};
use crate::vcpu::{Assignment, Vcpu};
use crate::wheel::{EventWheel, WakeSource};

/// Per-VCPU commit counts over the measured period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcpuSlice {
    /// VCPU id.
    pub vcpu: VcpuId,
    /// Owning VM.
    pub vm: VmId,
    /// User instructions committed (the paper's work metric).
    pub user_commits: u64,
    /// OS instructions committed.
    pub os_commits: u64,
    /// Instructions committed without DMR protection.
    pub unprotected_commits: u64,
}

/// Everything measured over one run.
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// Configuration label (paper figure legend).
    pub config: &'static str,
    /// Benchmark label.
    pub benchmark: &'static str,
    /// Scheduler family of the workload (`static`, `gang`,
    /// `overcommit`, `single-os`). Part of the run-identity block:
    /// runs under different schedulers are not comparable
    /// metric-for-metric.
    pub scheduler: &'static str,
    /// Number of simulated hardware threads (VCPUs) the workload
    /// exposes — the second identity field `mmm-inspect` checks
    /// before diffing two runs.
    pub threads: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// Per-VCPU commit counts.
    pub vcpus: Vec<VcpuSlice>,
    /// Machine-wide memory counters.
    pub mem: MemStats,
    /// Aggregated core counters.
    pub cores: CoreStats,
    /// Aggregated Reunion pair counters.
    pub pairs: PairStats,
    /// Mode-transition statistics (Table 1).
    pub transitions: TransitionStats,
    /// Fault-injection outcomes (zero when injection is off).
    pub faults: FaultStats,
    /// Aggregated PAB counters.
    pub pab: PabStats,
    /// Mean cycles per user phase (Table 2).
    pub phase_user_mean: f64,
    /// Mean cycles per OS phase (Table 2).
    pub phase_os_mean: f64,
    /// Full user/OS phase-duration distributions (merged across
    /// cores).
    pub phases: PhaseTracker,
    /// Wall-clock seconds spent simulating the measured period, or
    /// 0.0 when the run was not timed. Host-dependent: excluded from
    /// determinism comparisons and from the JSON export unless set.
    pub wall_seconds: f64,
    /// Per-fault-site campaign telemetry (`None` when injection is
    /// off).
    pub fault_telemetry: Option<CampaignTelemetry>,
    /// Flight-recorder time-series over the measured period (`None`
    /// unless a sampler was attached). Deliberately excluded from
    /// [`SystemReport::to_json`] so golden reports stay bit-identical
    /// with sampling on or off; exported separately as JSONL.
    pub series: Option<MetricsSeries>,
    /// Self-profiler host-cost attribution over the measured period
    /// (`None` unless a profiler was attached). Host-dependent, like
    /// `wall_seconds`: deliberately excluded from
    /// [`SystemReport::to_json`] so golden reports stay bit-identical
    /// with profiling on or off; exported separately as
    /// `*.profile.jsonl`.
    pub profile: Option<ProfileReport>,
    /// Per-injection fault forensics over the measured period (`None`
    /// unless a forensics recorder was attached). Like `series` and
    /// `profile`, deliberately excluded from [`SystemReport::to_json`]
    /// so golden reports stay bit-identical with forensics on or off;
    /// exported separately as `*.faults.jsonl`.
    pub forensics: Option<ForensicsReport>,
}

impl SystemReport {
    /// Total user instructions committed by a VM.
    pub fn vm_user_commits(&self, vm: VmId) -> u64 {
        self.vcpus
            .iter()
            .filter(|v| v.vm == vm)
            .map(|v| v.user_commits)
            .sum()
    }

    /// Average per-VCPU user IPC of a VM — the paper's per-thread
    /// metric (user commits divided by total cycles).
    pub fn vm_avg_user_ipc(&self, vm: VmId) -> f64 {
        let vcpus: Vec<_> = self.vcpus.iter().filter(|v| v.vm == vm).collect();
        if vcpus.is_empty() || self.cycles == 0 {
            return 0.0;
        }
        vcpus
            .iter()
            .map(|v| v.user_commits as f64 / self.cycles as f64)
            .sum::<f64>()
            / vcpus.len() as f64
    }

    /// Machine-wide user instructions committed (throughput
    /// numerator).
    pub fn total_user_commits(&self) -> u64 {
        self.vcpus.iter().map(|v| v.user_commits).sum()
    }

    /// Machine-wide average per-VCPU user IPC.
    pub fn avg_user_ipc(&self) -> f64 {
        if self.vcpus.is_empty() || self.cycles == 0 {
            return 0.0;
        }
        self.vcpus
            .iter()
            .map(|v| v.user_commits as f64 / self.cycles as f64)
            .sum::<f64>()
            / self.vcpus.len() as f64
    }

    /// Fraction of active core cycles stalled on serializing
    /// instructions (paper §5.1: 15–46% under Reunion).
    pub fn si_stall_fraction(&self) -> f64 {
        if self.cores.active_cycles == 0 {
            return 0.0;
        }
        self.cores.si_stall_cycles as f64 / self.cores.active_cycles as f64
    }

    /// Fraction of active core cycles with a full instruction window.
    pub fn window_full_fraction(&self) -> f64 {
        if self.cores.active_cycles == 0 {
            return 0.0;
        }
        self.cores.window_full_cycles as f64 / self.cores.active_cycles as f64
    }

    /// C2C transfers per 1000 committed instructions.
    pub fn c2c_per_kilo_instr(&self) -> f64 {
        let commits = self.cores.commits();
        if commits == 0 {
            return 0.0;
        }
        self.mem.c2c_transfers as f64 * 1000.0 / commits as f64
    }

    /// Fraction of one VM's committed instructions executed under DMR
    /// protection. 1.0 for a reliable guest, 0.0 for a pure
    /// performance guest, in between for `PerfUser` VCPUs.
    pub fn vm_dmr_coverage(&self, vm: VmId) -> f64 {
        let (commits, unprotected) = self
            .vcpus
            .iter()
            .filter(|v| v.vm == vm)
            .fold((0u64, 0u64), |(c, u), v| {
                (c + v.user_commits + v.os_commits, u + v.unprotected_commits)
            });
        if commits == 0 {
            return 0.0;
        }
        1.0 - unprotected as f64 / commits as f64
    }

    /// Fraction of committed instructions executed under DMR
    /// protection — the machine's reliability coverage. 1.0 for
    /// all-DMR systems, 0.0 for the non-redundant baselines, and in
    /// between for mixed-mode operation (where privileged work is
    /// always inside the covered fraction).
    pub fn dmr_coverage(&self) -> f64 {
        let commits = self.cores.commits();
        if commits == 0 {
            return 0.0;
        }
        1.0 - self.cores.commits_unprotected as f64 / commits as f64
    }

    /// Exports every counter, distribution, and derived quantity into
    /// a flat [`MetricsRegistry`] (`core.*`, `mem.*`, `reunion.*`,
    /// `transition.*`, `fault.*`, `pab.*`, `phase.*`). Registries from
    /// several runs can be [`MetricsRegistry::merge`]d; the derived
    /// gauges are per-run and overwrite on merge.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.count("run.cycles", self.cycles);

        let c = &self.cores;
        m.count("core.active_cycles", c.active_cycles);
        m.count("core.os_cycles", c.os_cycles);
        m.count("core.commits_user", c.commits_user);
        m.count("core.commits_os", c.commits_os);
        m.count("core.commits_unprotected", c.commits_unprotected);
        m.count("core.window_full_cycles", c.window_full_cycles);
        m.count("core.lsq_full_cycles", c.lsq_full_cycles);
        m.count("core.si_stall_cycles", c.si_stall_cycles);
        m.count("core.fetch_stall_cycles", c.fetch_stall_cycles);
        m.count("core.mispredict_stall_cycles", c.mispredict_stall_cycles);
        m.count("core.check_wait_cycles", c.check_wait_cycles);
        m.count("core.loads", c.loads);
        m.count("core.stores", c.stores);
        m.count("core.serializing", c.serializing);
        m.count("core.mispredicts", c.mispredicts);
        m.count("core.squashes", c.squashes);

        let mm = &self.mem;
        m.count("mem.l1i_hits", mm.l1i_hits);
        m.count("mem.l1i_misses", mm.l1i_misses);
        m.count("mem.l1d_hits", mm.l1d_hits);
        m.count("mem.l1d_misses", mm.l1d_misses);
        m.count("mem.l2_hits", mm.l2_hits);
        m.count("mem.l2_misses", mm.l2_misses);
        m.count("mem.l3_hits", mm.l3_hits);
        m.count("mem.c2c_transfers", mm.c2c_transfers);
        m.count("mem.dram_reads", mm.dram_reads);
        m.count("mem.upgrades", mm.upgrades);
        m.count("mem.invalidations", mm.invalidations);
        m.count("mem.incoherent_fills", mm.incoherent_fills);
        m.count("mem.stale_mute_hits", mm.stale_mute_hits);
        m.count("mem.writebacks", mm.writebacks);
        m.count("mem.flushes", mm.flushes);
        m.count("mem.flush_cycles", mm.flush_cycles);
        m.count("mem.bank_queue_cycles", mm.bank_queue_cycles);
        m.merge_histogram("mem.sharer_walk", &mm.sharer_walk);

        let p = &self.pairs;
        m.count("reunion.ops_compared", p.ops_compared);
        m.count("reunion.input_incoherence", p.input_incoherence);
        m.count("reunion.faults_detected", p.faults_detected);
        m.count("reunion.recovery_cycles", p.recovery_cycles);
        m.merge_histogram("reunion.channel_occupancy", &p.occupancy);
        m.merge_histogram("reunion.commit_burst", &p.commit_burst);

        let f = &self.faults;
        m.count("fault.injected", f.injected);
        m.count("fault.detected_by_dmr", f.detected_by_dmr);
        m.count("fault.wild_stores_blocked", f.wild_stores_blocked);
        m.count("fault.wild_stores_corrupting", f.wild_stores_corrupting);
        m.count("fault.privreg_caught_at_entry", f.privreg_caught_at_entry);
        m.count("fault.silent_perf_faults", f.silent_perf_faults);
        m.count("fault.on_idle_core", f.on_idle_core);
        if let Some(tel) = &self.fault_telemetry {
            for (site, s) in tel.sites() {
                let l = site.label();
                m.count(&format!("fault.site.{l}.injected"), s.injected);
                m.count(&format!("fault.site.{l}.detected"), s.detected);
                m.count(&format!("fault.site.{l}.masked"), s.masked);
                m.count(&format!("fault.site.{l}.escaped"), s.escaped);
                m.merge_histogram(
                    &format!("fault.site.{l}.detection_latency_cycles"),
                    &s.detection_latency,
                );
            }
        }

        let b = &self.pab;
        m.count("pab.lookups", b.lookups);
        m.count("pab.hits", b.hits);
        m.count("pab.misses", b.misses);
        m.count("pab.violations", b.violations);
        m.count("pab.demap_invalidations", b.demap_invalidations);
        m.merge_histogram("pab.serialization_penalty_cycles", &b.serialization_penalty);

        let t = &self.transitions;
        m.merge_stat("transition.enter_dmr", &t.enter);
        m.merge_stat("transition.leave_dmr", &t.leave);
        m.merge_stat("transition.dmr_switch", &t.dmr_switch);
        m.merge_stat("transition.perf_switch", &t.perf_switch);
        m.merge_histogram("transition.enter_dmr_cycles", &t.enter_hist);
        m.merge_histogram("transition.leave_dmr_cycles", &t.leave_hist);
        m.merge_histogram("transition.dmr_switch_cycles", &t.dmr_switch_hist);
        m.merge_histogram("transition.perf_switch_cycles", &t.perf_switch_hist);

        m.merge_histogram("phase.user_cycles", &self.phases.user);
        m.merge_histogram("phase.os_cycles", &self.phases.os);

        if self.wall_seconds > 0.0 {
            m.gauge(
                "run.sim_cycles_per_sec",
                self.cycles as f64 / self.wall_seconds,
            );
        }
        m.gauge("run.avg_user_ipc", self.avg_user_ipc());
        m.gauge("run.dmr_coverage", self.dmr_coverage());
        m.gauge("run.si_stall_fraction", self.si_stall_fraction());
        m.gauge("run.window_full_fraction", self.window_full_fraction());
        m.gauge("run.c2c_per_kilo_instr", self.c2c_per_kilo_instr());
        m.gauge("phase.user_mean_cycles", self.phase_user_mean);
        m.gauge("phase.os_mean_cycles", self.phase_os_mean);
        m
    }

    /// The whole report as one JSON object (one JSONL line): identity
    /// fields, per-VCPU commits, and the flat metrics registry. Stable
    /// across runs with the same seed except `run.sim_cycles_per_sec`,
    /// the wall-clock throughput gauge (host-dependent by design;
    /// absent when the run was not timed).
    pub fn to_json(&self) -> String {
        let vcpus = Json::Arr(
            self.vcpus
                .iter()
                .map(|v| {
                    Json::obj([
                        ("vcpu", Json::U64(v.vcpu.0 as u64)),
                        ("vm", Json::U64(v.vm.0 as u64)),
                        ("user_commits", Json::U64(v.user_commits)),
                        ("os_commits", Json::U64(v.os_commits)),
                        ("unprotected_commits", Json::U64(v.unprotected_commits)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("config", Json::str(self.config)),
            ("benchmark", Json::str(self.benchmark)),
            ("scheduler", Json::str(self.scheduler)),
            ("threads", Json::U64(self.threads)),
            ("cycles", Json::U64(self.cycles)),
            ("vcpus", vcpus),
            ("metrics", self.metrics().to_json()),
        ])
        .render()
    }
}

/// The machine.
///
/// ```
/// use mmm_core::{System, Workload};
/// use mmm_types::SystemConfig;
/// use mmm_workload::Benchmark;
///
/// // The paper's 16-core machine, running 8 OLTP VCPUs under
/// // Reunion DMR.
/// let cfg = SystemConfig::default();
/// let mut sys = System::new(&cfg, Workload::ReunionDmr(Benchmark::Oltp), 1)?;
/// let report = sys.run_measured(5_000, 20_000);
/// assert!(report.total_user_commits() > 0);
/// assert_eq!(report.dmr_coverage(), 1.0); // everything ran redundantly
/// # Ok::<(), mmm_types::Error>(())
/// ```
pub struct System {
    cfg: SystemConfig,
    workload: Workload,
    layout: AddressLayout,
    cores: Vec<Core>,
    mem: MemorySystem,
    vcpus: Vec<Vcpu>,
    /// Active DMR pairs by pair slot (slot p = cores 2p, 2p+1).
    pairs: Vec<Option<DmrPair>>,
    pat: Pat,
    pabs: Vec<Rc<RefCell<Pab>>>,
    engine: TransitionEngine,
    injector: Option<FaultInjector>,
    /// Privileged-register corruption armed per VCPU, holding the
    /// injection cycle (detected at the next Enter-DMR verification,
    /// which charges the injection-to-detection latency) and the
    /// forensic record id when forensics is on.
    privreg_armed: Vec<Option<(Cycle, Option<u64>)>>,
    /// Injection cycles, sites, and forensic record ids of DMR faults
    /// armed per pair slot, awaiting their fingerprint-mismatch
    /// detection so campaign telemetry can attribute the detection
    /// latency.
    dmr_inject_pending: Vec<VecDeque<(Cycle, FaultSite, Option<u64>)>>,
    cycle: Cycle,
    slice_parity: u8,
    /// Rotation order for the overcommit scheduler (paper §3.5 /
    /// Figure 4): previously paused VCPUs move to the front each
    /// quantum.
    overcommit_order: Vec<VcpuId>,
    /// Pair-channel counters accumulated from decoupled pairs.
    retired_pair_stats: PairStats,
    /// Largest record ring a decoupled pair's channel held.
    retired_ring_records: usize,
    /// Sequence numbers for the version tokens of wild stores that
    /// reach memory (fault-injected writes no VCPU issued).
    fault_token_seq: u64,
    /// Event tracer handle (off by default; clones are distributed to
    /// cores and live pairs by [`System::attach_tracer`]).
    tracer: Tracer,
    /// Flight-recorder sampler (off by default; see
    /// [`System::attach_sampler`]).
    sampler: Sampler,
    /// Self-profiler (off by default; see [`System::attach_profiler`]).
    /// Clones are distributed to every component that hosts a probe.
    profiler: Profiler,
    /// Fault forensics recorder (off by default; see
    /// [`System::attach_forensics`]). Clones are distributed to cores
    /// and live pairs for black-box context recording.
    forensics: Forensics,
    /// The registry of future system-level wake sources: the timeslice
    /// boundary, the sampler boundary, the next fault arrival, and the
    /// single-OS trap poll. Sources that cannot act stay parked at
    /// `Cycle::MAX` and never pin the clock, so the hot path pays a
    /// four-way min and nothing else.
    wheel: EventWheel,
    /// Cycle at which the measured period began; sample timestamps
    /// are relative to it.
    measure_start: Cycle,
    /// Cycle fast-forwarding enabled (default). The cross-variant
    /// determinism tests turn it off to prove reports and sampled
    /// series are identical either way.
    skip_enabled: bool,
    /// The thread generating every VCPU's ops (see
    /// [`mmm_workload::feed`]). The last field: the contexts, and with
    /// them the feeds, drop first, then dropping it joins the thread.
    _generator: Generator,
}

impl System {
    /// Builds the machine for one workload configuration.
    pub fn new(cfg: &SystemConfig, workload: Workload, seed: u64) -> Result<Self> {
        cfg.validate()?;
        let layout = AddressLayout::new();
        let mem = MemorySystem::new(cfg);
        let mut cores: Vec<Core> = (0..cfg.cores)
            .map(|i| Core::new(CoreId(i as u16), cfg))
            .collect();
        for c in &mut cores {
            c.enable_phase_tracking();
        }
        let specs = workload.vcpu_specs(cfg)?;
        // The streams are built here; only their generation moves to
        // the generator thread.
        let streams = specs
            .iter()
            .map(|s| OpStream::new(s.bench.profile(), s.vm, s.vcpu, seed))
            .collect();
        let (generator, feeds) = Generator::spawn(streams)?;
        let vcpus: Vec<Vcpu> = specs
            .iter()
            .zip(feeds)
            .map(|(s, feed)| Vcpu::new(s.vcpu, s.vm, s.mode, ExecContext::from_source(feed.into())))
            .collect();

        // System software initializes the PAT: machine-owned regions
        // (scratchpad, PAT backing store) and every reliable VM's span
        // are writable only in reliable mode.
        let mut pat = Pat::new();
        let machine_first = SCRATCHPAD_BASE >> PAGE_SHIFT;
        let machine_last = PAT_END >> PAGE_SHIFT;
        pat.set_range_reliable(machine_first..machine_last, true);
        let mut reliable_vms: Vec<VmId> = vcpus
            .iter()
            .filter(|v| v.mode == RelMode::Reliable)
            .map(|v| v.vm)
            .collect();
        reliable_vms.sort_unstable();
        reliable_vms.dedup();
        for vm in reliable_vms {
            pat.set_range_reliable(layout.vm_pages(vm), true);
        }

        let pabs = (0..cfg.cores)
            .map(|_| Rc::new(RefCell::new(Pab::new(cfg.pab))))
            .collect();
        let n_vcpus = vcpus.len();
        // The timeslice boundary only drives gang and overcommit
        // scheduling; for every other workload it stays parked.
        let mut wheel = EventWheel::new();
        if workload.gang_policy().is_some() || matches!(workload, Workload::Overcommitted { .. }) {
            wheel.schedule(WakeSource::Slice, cfg.virt.timeslice_cycles);
        }
        // The single-OS trap poll inspects boundary state that only
        // core ticks can change; start it due so the first tick
        // computes the real deadline.
        if matches!(workload, Workload::SingleOsMixed(_)) {
            wheel.schedule(WakeSource::SingleOsPoll, 0);
        }
        let mut sys = System {
            cfg: cfg.clone(),
            workload,
            layout,
            cores,
            mem,
            vcpus,
            pairs: (0..cfg.pairs()).map(|_| None).collect(),
            pat,
            pabs,
            engine: TransitionEngine::new(cfg.virt, cfg.reunion),
            injector: None,
            privreg_armed: vec![None; n_vcpus],
            dmr_inject_pending: (0..cfg.pairs()).map(|_| VecDeque::new()).collect(),
            cycle: 0,
            slice_parity: 0,
            overcommit_order: Vec::new(),
            retired_pair_stats: PairStats::default(),
            retired_ring_records: 0,
            fault_token_seq: 1 << 61,
            tracer: Tracer::off(),
            sampler: Sampler::off(),
            profiler: Profiler::off(),
            forensics: Forensics::off(),
            wheel,
            measure_start: 0,
            skip_enabled: true,
            _generator: generator,
        };
        sys.prewarm_scratchpad();
        sys.install_initial_assignments();
        Ok(sys)
    }

    /// Writes every VCPU's boot state into the scratchpad before the
    /// simulation starts. The architected state exists from boot on a
    /// real machine; without this, the first mode transition would
    /// pay a wholly artificial cold-DRAM walk.
    fn prewarm_scratchpad(&mut self) {
        let pairs = self.cfg.pairs() as usize;
        let ids: Vec<VcpuId> = self.vcpus.iter().map(|v| v.id).collect();
        for vcpu in ids {
            let slot = vcpu.index() % pairs;
            let vocal = CoreId(2 * slot as u16);
            let mute = CoreId(2 * slot as u16 + 1);
            self.engine.save_state(&mut self.mem, vocal, vcpu, 0, 0);
            self.engine.save_state(&mut self.mem, mute, vcpu, 1, 0);
        }
        self.mem.reset_stats();
    }

    /// Enables transient-fault injection at `rate` faults per core per
    /// cycle, with arrivals pre-drawn as geometric inter-arrival
    /// events so the event wheel can jump straight to each strike.
    pub fn enable_fault_injection(&mut self, rate: f64, seed: u64) {
        let inj = FaultInjector::new(rate, self.cfg.cores, seed);
        self.wheel
            .schedule(WakeSource::Fault, inj.next_event(self.cycle));
        self.injector = Some(inj);
    }

    /// Attaches an event tracer: clones of the handle are distributed
    /// to every core and every live DMR pair, and the current VCPU
    /// placement is re-emitted as install decisions so per-core
    /// timelines open correctly mid-run. Tracing is purely
    /// observational — it never changes simulated timing.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for c in &mut self.cores {
            c.set_tracer(self.tracer.clone());
        }
        for pair in self.pairs.iter_mut().flatten() {
            pair.set_tracer(self.tracer.clone());
        }
        let now = self.cycle;
        for v in &self.vcpus {
            match v.assignment {
                Assignment::Parked => {}
                Assignment::Solo(core) => {
                    self.tracer.emit(now, || Event::SchedDecision {
                        action: SchedAction::InstallSolo,
                        core,
                        partner: None,
                        vcpu: Some(v.id),
                    });
                }
                Assignment::Dmr { vocal, mute } => {
                    self.tracer.emit(now, || Event::SchedDecision {
                        action: SchedAction::InstallDmr,
                        core: vocal,
                        partner: Some(mute),
                        vcpu: Some(v.id),
                    });
                }
            }
        }
    }

    /// The attached tracer (off unless [`System::attach_tracer`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a flight-recorder sampler: every `interval` simulated
    /// cycles the machine settles its cores and snapshots the full
    /// metrics registry into a time-series (counter deltas, gauge
    /// last-values, histogram interval deltas). The sampler is rebased
    /// to the current counters so the first sample covers only
    /// post-attach activity. Sampling is purely observational — it
    /// never changes simulated timing — and with the sampler off the
    /// hot path pays a single always-false comparison.
    pub fn attach_sampler(&mut self, sampler: Sampler) {
        self.sampler = sampler;
        if self.sampler.interval().is_some() {
            let snapshot = self
                .report(self.cycle.saturating_sub(self.measure_start))
                .metrics();
            self.sampler.rebase(&snapshot);
        }
        // `next_boundary` parks the slot at `Cycle::MAX` when sampling
        // is off.
        self.wheel
            .schedule(WakeSource::Sample, self.sampler.next_boundary(self.cycle));
    }

    /// The attached sampler (off unless [`System::attach_sampler`]
    /// was called).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Attaches a self-profiler: clones of the handle are distributed
    /// to every core, every parked and installed context, every live
    /// DMR pair, and the memory system, so host wall-time
    /// spent in each hot-loop phase is attributed exclusively.
    /// Profiling is purely observational — it reads only the host
    /// clock and never touches simulated state, so reports and
    /// sampled series are bit-identical with it on or off.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
        for c in &mut self.cores {
            c.set_profiler(self.profiler.clone());
        }
        for v in &mut self.vcpus {
            if let Some(ctx) = v.parked_ctx.as_mut() {
                ctx.set_profiler(self.profiler.clone());
            }
        }
        for pair in self.pairs.iter_mut().flatten() {
            pair.set_profiler(self.profiler.clone());
        }
        self.mem.set_profiler(self.profiler.clone());
    }

    /// The attached profiler (off unless [`System::attach_profiler`]
    /// was called).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Attaches a fault-forensics recorder: every injected fault gets
    /// a causal lifecycle record, and clones of the handle are
    /// distributed to every core and every live DMR pair so per-core
    /// black-box rings capture context for escape dumps. Forensics is
    /// purely observational — it never changes simulated timing,
    /// counters, or reports.
    pub fn attach_forensics(&mut self, forensics: Forensics) {
        self.forensics = forensics;
        for c in &mut self.cores {
            c.set_forensics(self.forensics.clone());
        }
        for pair in self.pairs.iter_mut().flatten() {
            pair.set_forensics(self.forensics.clone());
        }
    }

    /// The attached forensics recorder (off unless
    /// [`System::attach_forensics`] was called).
    pub fn forensics(&self) -> &Forensics {
        &self.forensics
    }

    /// Enables or disables cycle fast-forwarding (on by default).
    /// Disabling it forces the simulator to tick every cycle; reports
    /// and sampled series are identical either way, which the
    /// cross-variant determinism tests assert.
    pub fn set_cycle_skipping(&mut self, on: bool) {
        self.skip_enabled = on;
    }

    /// Takes one flight-recorder sample at `now`: settles every
    /// core's pending skipped-cycle charges (settling is
    /// simulation-state-neutral) so the snapshot is exact, then
    /// records the registry delta at a timestamp relative to the
    /// start of the measured period.
    fn take_sample(&mut self, now: Cycle) {
        let _prof = self.profiler.enter(ProfPhase::Sampler);
        for c in &mut self.cores {
            c.settle_to(now);
        }
        let rel = now.saturating_sub(self.measure_start);
        let snapshot = self.report(rel).metrics();
        self.sampler.record(rel, &snapshot);
        self.wheel
            .schedule(WakeSource::Sample, self.sampler.next_boundary(now));
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// The workload being run.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    // ----- assignment plumbing ------------------------------------------------

    fn vcpu_index(&self, id: VcpuId) -> usize {
        self.vcpus
            .iter()
            .position(|v| v.id == id)
            .expect("vcpu exists")
    }

    fn park_context(&mut self, vcpu: VcpuId, ctx: ExecContext) {
        let i = self.vcpu_index(vcpu);
        self.vcpus[i].parked_ctx = Some(ctx);
        self.vcpus[i].assignment = Assignment::Parked;
    }

    fn unpark_context(&mut self, vcpu: VcpuId) -> ExecContext {
        let i = self.vcpu_index(vcpu);
        self.vcpus[i]
            .parked_ctx
            .take()
            .expect("parked vcpu has a context")
    }

    /// Installs a VCPU solo on a core, in performance mode. `with_pab`
    /// fits the core with the PAB store filter (mixed-mode machines);
    /// the plain baselines run without one.
    fn install_solo(&mut self, vcpu: VcpuId, core: CoreId, with_pab: bool, ready_at: Cycle) {
        let ctx = self.unpark_context(vcpu);
        let c = &mut self.cores[core.index()];
        c.set_context(ctx);
        c.set_coherent(true);
        c.set_gate(None);
        c.set_store_filter(
            with_pab.then(|| PabPort::new(Rc::clone(&self.pabs[core.index()]), self.layout)),
        );
        c.stall_until(ready_at);
        let i = self.vcpu_index(vcpu);
        self.vcpus[i].assignment = Assignment::Solo(core);
        self.tracer.emit(ready_at, || Event::SchedDecision {
            action: SchedAction::InstallSolo,
            core,
            partner: None,
            vcpu: Some(vcpu),
        });
    }

    /// Installs a VCPU on a DMR pair slot. The mute's incoherent
    /// leftovers from any previous stint are flash-invalidated so
    /// long-stale data does not masquerade as input incoherence.
    fn install_dmr(&mut self, vcpu: VcpuId, slot: usize, ready_at: Cycle) {
        let ctx = self.unpark_context(vcpu);
        let (vc, mc) = (slot * 2, slot * 2 + 1);
        self.mem.flash_invalidate_incoherent(CoreId(mc as u16));
        let (left, right) = self.cores.split_at_mut(mc);
        let vocal = &mut left[vc];
        let mute = &mut right[0];
        vocal.set_store_filter(None);
        mute.set_store_filter(None);
        let mut pair = DmrPair::couple(vocal, mute, ctx, &self.cfg.reunion);
        pair.set_tracer(self.tracer.clone());
        pair.set_profiler(self.profiler.clone());
        pair.set_forensics(self.forensics.clone());
        vocal.stall_until(ready_at);
        mute.stall_until(ready_at);
        self.pairs[slot] = Some(pair);
        let i = self.vcpu_index(vcpu);
        self.vcpus[i].assignment = Assignment::Dmr {
            vocal: CoreId(vc as u16),
            mute: CoreId(mc as u16),
        };
        self.tracer.emit(ready_at, || Event::SchedDecision {
            action: SchedAction::InstallDmr,
            core: CoreId(vc as u16),
            partner: Some(CoreId(mc as u16)),
            vcpu: Some(vcpu),
        });
    }

    /// Removes the VCPU running on a pair slot, parking its context.
    fn evict_dmr(&mut self, slot: usize, now: Cycle) -> VcpuId {
        let pair = self.pairs[slot].take().expect("slot holds a pair");
        self.retired_pair_stats.merge_from(&pair.stats());
        self.retired_ring_records = self.retired_ring_records.max(pair.ring_records());
        // An armed fault detects during decouple's final comparison;
        // its latency cannot be attributed to a service round, so the
        // pending record is dropped (latency count <= detected).
        self.dmr_inject_pending[slot].clear();
        let (vc, mc) = (slot * 2, slot * 2 + 1);
        let (left, right) = self.cores.split_at_mut(mc);
        let ctx = pair.decouple(&mut left[vc], &mut right[0], now);
        let vcpu = self
            .vcpus
            .iter()
            .find(|v| {
                v.assignment
                    == Assignment::Dmr {
                        vocal: CoreId(vc as u16),
                        mute: CoreId(mc as u16),
                    }
            })
            .map(|v| v.id)
            .expect("pair slot maps to a vcpu");
        self.park_context(vcpu, ctx);
        self.tracer.emit(now, || Event::SchedDecision {
            action: SchedAction::EvictDmr,
            core: CoreId(vc as u16),
            partner: Some(CoreId(mc as u16)),
            vcpu: Some(vcpu),
        });
        vcpu
    }

    /// Removes the VCPU running solo on a core, parking its context.
    fn evict_solo(&mut self, core: CoreId, now: Cycle) -> VcpuId {
        let ctx = self.cores[core.index()]
            .take_context(now)
            .expect("core is busy");
        self.cores[core.index()].set_store_filter(None);
        let vcpu = self
            .vcpus
            .iter()
            .find(|v| v.assignment == Assignment::Solo(core))
            .map(|v| v.id)
            .expect("solo core maps to a vcpu");
        self.park_context(vcpu, ctx);
        self.tracer.emit(now, || Event::SchedDecision {
            action: SchedAction::EvictSolo,
            core,
            partner: None,
            vcpu: Some(vcpu),
        });
        vcpu
    }

    fn install_initial_assignments(&mut self) {
        let pairs = self.cfg.pairs() as usize;
        match self.workload {
            Workload::NoDmr2x(_) => {
                for i in 0..self.cfg.cores as usize {
                    self.install_solo(VcpuId(i as u16), CoreId(i as u16), false, 0);
                }
            }
            Workload::NoDmr(_) => {
                for i in 0..pairs {
                    self.install_solo(VcpuId(i as u16), CoreId(i as u16), false, 0);
                }
            }
            Workload::ReunionDmr(_) => {
                for p in 0..pairs {
                    self.install_dmr(VcpuId(p as u16), p, 0);
                }
            }
            Workload::Consolidated { .. } => {
                // Slice parity 0: the reliable VM runs first.
                for p in 0..pairs {
                    self.install_dmr(VcpuId(p as u16), p, 0);
                }
            }
            Workload::SingleOsMixed(_) => {
                for p in 0..pairs {
                    let vocal = CoreId(2 * p as u16);
                    self.install_solo(VcpuId(p as u16), vocal, true, 0);
                    self.cores[vocal.index()].set_traps(true, false);
                }
            }
            Workload::Overcommitted { .. } => {
                self.overcommit_order = self.vcpus.iter().map(|v| v.id).collect();
                self.overcommit_switch(0);
            }
        }
    }

    // ----- overcommit scheduling (paper §3.5 / Figure 4) ----------------------

    /// Recomputes VCPU placement for the next quantum: reliable VCPUs
    /// claim whole pair slots, performance VCPUs single cores;
    /// whoever does not fit is paused and moves to the front of the
    /// order for the next quantum. Placement prefers a VCPU's current
    /// cores, so an under-committed machine reaches a stable
    /// assignment with no migration churn.
    fn overcommit_switch(&mut self, now: Cycle) {
        let n_cores = self.cfg.cores as usize;
        let pairs = self.cfg.pairs() as usize;
        self.tracer.emit(now, || Event::SchedDecision {
            action: SchedAction::OvercommitSwitch,
            core: CoreId(0),
            partner: None,
            vcpu: None,
        });
        // Previously paused VCPUs get priority.
        let old_order = std::mem::take(&mut self.overcommit_order);
        let parked_first: Vec<VcpuId> = old_order
            .iter()
            .copied()
            .filter(|&v| self.vcpus[self.vcpu_index(v)].assignment == Assignment::Parked)
            .chain(
                old_order
                    .iter()
                    .copied()
                    .filter(|&v| self.vcpus[self.vcpu_index(v)].assignment != Assignment::Parked),
            )
            .collect();
        self.overcommit_order = parked_first.clone();

        // Plan placement.
        let mut core_used = vec![false; n_cores];
        let mut plan: Vec<(VcpuId, Assignment)> = Vec::with_capacity(parked_first.len());
        for &v in &parked_first {
            let i = self.vcpu_index(v);
            let current = self.vcpus[i].assignment;
            let a = match self.vcpus[i].mode {
                RelMode::Reliable => {
                    // Prefer the current pair; else the lowest free pair.
                    let preferred = match current {
                        Assignment::Dmr { vocal, .. } => Some(vocal.index() / 2),
                        _ => None,
                    };
                    let slot = preferred
                        .filter(|&p| !core_used[2 * p] && !core_used[2 * p + 1])
                        .or_else(|| {
                            (0..pairs).find(|&p| !core_used[2 * p] && !core_used[2 * p + 1])
                        });
                    match slot {
                        Some(p) => {
                            core_used[2 * p] = true;
                            core_used[2 * p + 1] = true;
                            Assignment::Dmr {
                                vocal: CoreId((2 * p) as u16),
                                mute: CoreId((2 * p + 1) as u16),
                            }
                        }
                        None => Assignment::Parked,
                    }
                }
                _ => {
                    // Prefer the current core; else the highest free
                    // core (keeps low pairs unfragmented for reliable
                    // VCPUs).
                    let preferred = match current {
                        Assignment::Solo(c) => Some(c.index()),
                        _ => None,
                    };
                    let core = preferred
                        .filter(|&c| !core_used[c])
                        .or_else(|| (0..n_cores).rev().find(|&c| !core_used[c]));
                    match core {
                        Some(c) => {
                            core_used[c] = true;
                            Assignment::Solo(CoreId(c as u16))
                        }
                        None => Assignment::Parked,
                    }
                }
            };
            plan.push((v, a));
        }

        // Which cores are currently serving as mutes (their caches
        // hold incoherent data)?
        let mut was_mute = vec![false; n_cores];
        for v in &self.vcpus {
            if let Assignment::Dmr { mute, .. } = v.assignment {
                was_mute[mute.index()] = true;
            }
        }

        // Evict everything that moves, charging the state saves.
        let mut busy: Vec<Cycle> = vec![now; n_cores];
        for &(v, new_a) in &plan {
            let i = self.vcpu_index(v);
            let old = self.vcpus[i].assignment;
            if old == new_a {
                continue;
            }
            match old {
                Assignment::Parked => {}
                Assignment::Solo(c) => {
                    let out = self.evict_solo(c, now);
                    debug_assert_eq!(out, v);
                    busy[c.index()] = self.engine.save_state(&mut self.mem, c, v, 0, now);
                }
                Assignment::Dmr { vocal, mute } => {
                    let out = self.evict_dmr(vocal.index() / 2, now);
                    debug_assert_eq!(out, v);
                    busy[vocal.index()] = self.engine.save_state(&mut self.mem, vocal, v, 0, now);
                    busy[mute.index()] = self.engine.save_state(&mut self.mem, mute, v, 1, now);
                }
            }
        }

        // Former mute caches being repurposed for coherent execution
        // must flush their incoherent contents (paper §3.4.3).
        for &(_, new_a) in &plan {
            for core in new_a.cores() {
                let idx = core.index();
                let becomes_mute = matches!(new_a, Assignment::Dmr { mute, .. } if mute == core);
                if was_mute[idx] && !becomes_mute {
                    busy[idx] = self.mem.flush_mute(core, busy[idx]).complete_at;
                    was_mute[idx] = false;
                }
            }
        }

        // Install.
        for (v, new_a) in plan {
            let i = self.vcpu_index(v);
            if self.vcpus[i].assignment == new_a {
                continue; // still running where it was
            }
            match new_a {
                Assignment::Parked => {}
                Assignment::Solo(c) => {
                    let ready = self
                        .engine
                        .restore_solo(&mut self.mem, c, v, busy[c.index()]);
                    self.tracer.emit(now, || Event::ModeTransition {
                        core: c,
                        kind: TransitionKind::PerfSwitch,
                        done: ready,
                    });
                    self.install_solo(v, c, true, ready);
                }
                Assignment::Dmr { vocal, mute } => {
                    let start = busy[vocal.index()].max(busy[mute.index()]);
                    let ready = self
                        .engine
                        .restore_dmr(&mut self.mem, vocal, mute, v, start);
                    self.tracer.emit(now, || Event::ModeTransition {
                        core: vocal,
                        kind: TransitionKind::DmrSwitch,
                        done: ready,
                    });
                    self.check_privreg_on_entry(v, vocal);
                    self.install_dmr(v, vocal.index() / 2, ready);
                }
            }
        }
    }

    // ----- gang scheduling (consolidated server) ------------------------------

    fn gang_switch(&mut self, policy: MixedPolicy, now: Cycle) {
        let pairs = self.cfg.pairs() as usize;
        let incoming_parity = 1 - self.slice_parity;
        self.tracer.emit(now, || Event::SchedDecision {
            action: SchedAction::GangSwitch,
            core: CoreId(0),
            partner: None,
            vcpu: None,
        });
        for p in 0..pairs {
            let vocal = CoreId(2 * p as u16);
            let mute = CoreId(2 * p as u16 + 1);
            let rel_vcpu = VcpuId(p as u16);
            let perf_vcpu = VcpuId((pairs + p) as u16);
            let perf2_vcpu = VcpuId((2 * pairs + p) as u16);
            let ready_at = if incoming_parity == 1 {
                // Reliable VM leaves; performance VM enters.
                let out = self.evict_dmr(p, now);
                debug_assert_eq!(out, rel_vcpu);
                match policy {
                    MixedPolicy::DmrBase => {
                        let t = self.engine.dmr_switch(
                            &mut self.mem,
                            vocal,
                            mute,
                            Some(rel_vcpu),
                            perf_vcpu,
                            now,
                        );
                        self.tracer.emit(now, || Event::ModeTransition {
                            core: vocal,
                            kind: TransitionKind::DmrSwitch,
                            done: t,
                        });
                        self.check_privreg_on_entry(perf_vcpu, vocal);
                        self.install_dmr(perf_vcpu, p, t);
                        continue;
                    }
                    MixedPolicy::MmmIpc => {
                        let t = self.engine.leave_dmr(
                            &mut self.mem,
                            vocal,
                            mute,
                            rel_vcpu,
                            &[(vocal, perf_vcpu)],
                            false,
                            now,
                        );
                        self.tracer.emit(now, || Event::ModeTransition {
                            core: vocal,
                            kind: TransitionKind::LeaveDmr,
                            done: t,
                        });
                        self.install_solo(perf_vcpu, vocal, true, t);
                        continue;
                    }
                    MixedPolicy::MmmTp => {
                        let t = self.engine.leave_dmr(
                            &mut self.mem,
                            vocal,
                            mute,
                            rel_vcpu,
                            &[(vocal, perf_vcpu), (mute, perf2_vcpu)],
                            true,
                            now,
                        );
                        self.tracer.emit(now, || Event::ModeTransition {
                            core: vocal,
                            kind: TransitionKind::LeaveDmr,
                            done: t,
                        });
                        self.install_solo(perf_vcpu, vocal, true, t);
                        self.install_solo(perf2_vcpu, mute, true, t);
                        continue;
                    }
                }
            } else {
                // Performance VM leaves; reliable VM enters.
                match policy {
                    MixedPolicy::DmrBase => {
                        let out = self.evict_dmr(p, now);
                        debug_assert_eq!(out, perf_vcpu);

                        let t = self.engine.dmr_switch(
                            &mut self.mem,
                            vocal,
                            mute,
                            Some(perf_vcpu),
                            rel_vcpu,
                            now,
                        );
                        self.tracer.emit(now, || Event::ModeTransition {
                            core: vocal,
                            kind: TransitionKind::DmrSwitch,
                            done: t,
                        });
                        t
                    }
                    MixedPolicy::MmmIpc => {
                        let out = self.evict_solo(vocal, now);
                        debug_assert_eq!(out, perf_vcpu);
                        let t = self.engine.enter_dmr(
                            &mut self.mem,
                            vocal,
                            mute,
                            &[(vocal, perf_vcpu)],
                            rel_vcpu,
                            now,
                        );
                        self.tracer.emit(now, || Event::ModeTransition {
                            core: vocal,
                            kind: TransitionKind::EnterDmr,
                            done: t,
                        });
                        t
                    }
                    MixedPolicy::MmmTp => {
                        let o1 = self.evict_solo(vocal, now);
                        let o2 = self.evict_solo(mute, now);
                        debug_assert_eq!((o1, o2), (perf_vcpu, perf2_vcpu));
                        let t = self.engine.enter_dmr(
                            &mut self.mem,
                            vocal,
                            mute,
                            &[(vocal, perf_vcpu), (mute, perf2_vcpu)],
                            rel_vcpu,
                            now,
                        );
                        self.tracer.emit(now, || Event::ModeTransition {
                            core: vocal,
                            kind: TransitionKind::EnterDmr,
                            done: t,
                        });
                        t
                    }
                }
            };
            self.check_privreg_on_entry(rel_vcpu, vocal);
            self.install_dmr(rel_vcpu, p, ready_at);
        }
        self.slice_parity = incoming_parity;
    }

    /// Enter-DMR verification: a privileged-register corruption armed
    /// while the VCPU ran unprotected is caught here (paper §3.4.3).
    /// `vocal` is the pair's vocal core, for event attribution.
    fn check_privreg_on_entry(&mut self, vcpu: VcpuId, vocal: CoreId) {
        let i = self.vcpu_index(vcpu);
        if let Some((armed_at, rec)) = self.privreg_armed[i].take() {
            let latency = self.cycle.saturating_sub(armed_at);
            if let Some(inj) = self.injector.as_mut() {
                inj.stats.privreg_caught_at_entry += 1;
                let tel = inj.telemetry.site_mut(FaultSite::PrivReg);
                tel.detected += 1;
                tel.detection_latency.record(latency);
            }
            self.forensics.link(rec, self.cycle, || {
                format!("enter_dmr_verification vcpu={} latency={latency}", vcpu.0)
            });
            self.forensics.detected(rec, "enter_dmr", Some(latency));
            self.tracer.emit(self.cycle, || Event::FaultMasked {
                core: vocal,
                site: "priv_reg",
                reason: "enter_dmr_verification",
            });
        }
    }

    // ----- single-OS mixed mode (per-syscall transitions, §5.3) ---------------

    fn poll_single_os(&mut self, now: Cycle) {
        let pairs = self.cfg.pairs() as usize;
        for p in 0..pairs {
            let vocal = CoreId(2 * p as u16);
            let mute = CoreId(2 * p as u16 + 1);
            let vcpu = VcpuId(p as u16);
            if self.pairs[p].is_none() {
                // Performance mode: wait for an OS-entry trap.
                let c = &self.cores[vocal.index()];
                if c.pending_boundary() == Some(Boundary::EnterOs)
                    && c.window_empty()
                    && now >= c.stalled_until()
                {
                    let out = self.evict_solo(vocal, now);
                    debug_assert_eq!(out, vcpu);
                    let t = self.engine.enter_dmr(
                        &mut self.mem,
                        vocal,
                        mute,
                        &[(vocal, vcpu)],
                        vcpu,
                        now,
                    );
                    self.tracer.emit(now, || Event::SchedDecision {
                        action: SchedAction::SingleOsPoll,
                        core: vocal,
                        partner: Some(mute),
                        vcpu: Some(vcpu),
                    });
                    self.tracer.emit(now, || Event::ModeTransition {
                        core: vocal,
                        kind: TransitionKind::EnterDmr,
                        done: t,
                    });
                    self.check_privreg_on_entry(vcpu, vocal);
                    self.install_dmr(vcpu, p, t);
                    self.cores[vocal.index()].set_traps(false, true);
                    self.cores[mute.index()].set_traps(false, true);
                }
            } else {
                // Reliable mode: wait for both cores to reach the OS
                // exit.
                let v = &self.cores[vocal.index()];
                let m = &self.cores[mute.index()];
                if v.pending_boundary() == Some(Boundary::ExitOs)
                    && m.pending_boundary() == Some(Boundary::ExitOs)
                    && v.window_empty()
                    && m.window_empty()
                {
                    let out = self.evict_dmr(p, now);
                    debug_assert_eq!(out, vcpu);
                    // MMM-IPC-style single-OS operation: the mute goes
                    // idle, no cache flush (its incoherent lines heal
                    // through Reunion recovery on the next DMR stint).
                    let t = self.engine.leave_dmr(
                        &mut self.mem,
                        vocal,
                        mute,
                        vcpu,
                        &[(vocal, vcpu)],
                        false,
                        now,
                    );
                    self.tracer.emit(now, || Event::SchedDecision {
                        action: SchedAction::SingleOsPoll,
                        core: vocal,
                        partner: Some(mute),
                        vcpu: Some(vcpu),
                    });
                    self.tracer.emit(now, || Event::ModeTransition {
                        core: vocal,
                        kind: TransitionKind::LeaveDmr,
                        done: t,
                    });
                    self.install_solo(vcpu, vocal, true, t);
                    self.cores[vocal.index()].set_traps(true, false);
                    self.cores[mute.index()].set_traps(false, false);
                }
            }
        }
    }

    // ----- fault application ---------------------------------------------------

    pub(crate) fn apply_fault(&mut self, core: CoreId, site: FaultSite, now: Cycle) {
        let label = site.label();
        self.tracer
            .emit(now, || Event::FaultInjected { core, site: label });
        if let Some(inj) = self.injector.as_mut() {
            inj.telemetry.site_mut(site).injected += 1;
        }
        // DMR cores: any fault surfaces as a fingerprint mismatch.
        let in_pair = self.pairs.iter().position(|p| {
            p.as_ref()
                .is_some_and(|p| p.vocal() == core || p.mute() == core)
        });
        // Open the forensic record, classifying the core's role at the
        // injection instant, and stamp the injection into the struck
        // core's black-box ring (so an escape's dump is never empty).
        let mode = match in_pair {
            Some(slot) => {
                let p = self.pairs[slot].as_ref().expect("slot holds a pair");
                if p.vocal() == core {
                    "dmr_vocal"
                } else {
                    "dmr_mute"
                }
            }
            None if !self.cores[core.index()].is_busy() => "idle",
            None => "perf",
        };
        let rec = self.forensics.open(now, core, label, mode);
        self.forensics
            .note(now, || Event::FaultInjected { core, site: label });
        if let Some(slot) = in_pair {
            let pair = self.pairs[slot].as_ref().expect("slot holds a pair");
            // A fault injected while a mismatch is already armed
            // merges into that one detection; only a newly armed
            // fault gets its own latency observation.
            if pair.inject_fault() {
                self.dmr_inject_pending[slot].push_back((now, site, rec));
                self.forensics
                    .link(rec, now, || "fingerprint_divergence_armed".to_string());
            } else {
                self.forensics.link(rec, now, || {
                    "merged_into_armed_divergence (no separate latency)".to_string()
                });
            }
            if let Some(inj) = self.injector.as_mut() {
                inj.stats.detected_by_dmr += 1;
                inj.telemetry.site_mut(site).detected += 1;
            }
            // Detection by the fingerprint check is certain; the exact
            // latency is attributed when the pair services the
            // mismatch (merged injections keep a `null` latency).
            self.forensics.detected(rec, "dmr", None);
            self.tracer.emit(now, || Event::FaultMasked {
                core,
                site: label,
                reason: "dmr_detected",
            });
            return;
        }
        if !self.cores[core.index()].is_busy() {
            if let Some(inj) = self.injector.as_mut() {
                inj.stats.on_idle_core += 1;
                inj.telemetry.site_mut(site).masked += 1;
            }
            self.forensics.masked(rec, "idle");
            self.tracer.emit(now, || Event::FaultMasked {
                core,
                site: label,
                reason: "idle",
            });
            return;
        }
        // Performance-mode core.
        match site {
            FaultSite::CoreLogic => {
                if let Some(inj) = self.injector.as_mut() {
                    inj.stats.silent_perf_faults += 1;
                    inj.telemetry.site_mut(site).masked += 1;
                }
                self.forensics.masked(rec, "silent_perf_fault");
            }
            FaultSite::PrivReg => {
                let i = self
                    .vcpus
                    .iter()
                    .position(|v| v.assignment == Assignment::Solo(core))
                    .expect("busy non-DMR core runs a solo vcpu");
                if self.vcpus[i].mode == RelMode::PerfUser {
                    // This VCPU re-enters DMR at its next OS entry,
                    // where the mute's verification walk catches the
                    // corruption (paper §3.4.3). A re-arm while armed
                    // merges into the first injection's detection.
                    if self.privreg_armed[i].is_none() {
                        self.privreg_armed[i] = Some((now, rec));
                        let vcpu = self.vcpus[i].id;
                        self.forensics.link(rec, now, || {
                            format!("privreg_armed vcpu={} awaiting enter_dmr", vcpu.0)
                        });
                    } else {
                        // The armed corruption's eventual detection
                        // belongs to the first injection; this one
                        // stays terminally unattributed.
                        self.forensics.pending(rec, "merged_into_armed_privreg");
                    }
                } else {
                    // A pure performance guest never re-enters DMR:
                    // the corruption stays inside the unprotected
                    // domain, tolerated by contract.
                    if let Some(inj) = self.injector.as_mut() {
                        inj.stats.silent_perf_faults += 1;
                        inj.telemetry.site_mut(site).masked += 1;
                    }
                    self.forensics.masked(rec, "unprotected_guest");
                }
            }
            FaultSite::TlbPermission => {
                // A wild store: the faulty translation produced an
                // arbitrary physical address. The PAB is the last line
                // of defense.
                let max_page = PAT_END / PAGE_BYTES;
                let inj = self.injector.as_mut().expect("fault path has injector");
                let page = PageAddr(inj.draw_wild_page(max_page));
                let line = page.first_line();
                // Forensic context reads are pure observation: the
                // wild page's TLB residency and the PAB occupancy on
                // the striking core.
                if self.forensics.is_on() {
                    let c = &self.cores[core.index()];
                    let resident = c.tlb_resident(page);
                    let tlb_occ = c.tlb_occupancy();
                    let pab_occ = self.pabs[core.index()].borrow().occupancy();
                    self.forensics.link(rec, now, || {
                        format!(
                            "wild_store page={} tlb_resident={resident} \
                             tlb_occupancy={tlb_occ} pab_occupancy={pab_occ}",
                            page.0
                        )
                    });
                }
                let pab_hits_before = if self.forensics.is_on() {
                    self.pabs[core.index()].borrow().stats().hits
                } else {
                    0
                };
                let (ready, verdict) = crate::pab::check_store(
                    &self.pabs[core.index()],
                    core,
                    line,
                    &self.pat,
                    &mut self.mem,
                    now,
                );
                if self.forensics.is_on() {
                    let hit = self.pabs[core.index()].borrow().stats().hits > pab_hits_before;
                    let lookup = if hit { "hit" } else { "miss" };
                    self.forensics.link(rec, ready, || {
                        format!("pab_lookup={lookup} store_ready={ready}")
                    });
                }
                let inj = self.injector.as_mut().expect("fault path has injector");
                match verdict {
                    crate::pab::PabVerdict::Violation => {
                        inj.stats.wild_stores_blocked += 1;
                        let tel = inj.telemetry.site_mut(site);
                        tel.detected += 1;
                        tel.detection_latency.record(ready.saturating_sub(now));
                        self.forensics.link(rec, ready, || {
                            "pab_violation exception_before_l2".to_string()
                        });
                        self.forensics
                            .detected(rec, "pab", Some(ready.saturating_sub(now)));
                        self.forensics
                            .note(now, || Event::PabDeny { core, page: page.0 });
                        self.tracer
                            .emit(now, || Event::PabDeny { core, page: page.0 });
                        self.tracer.emit(now, || Event::FaultMasked {
                            core,
                            site: label,
                            reason: "pab_blocked",
                        });
                    }
                    crate::pab::PabVerdict::Allowed => {
                        inj.stats.wild_stores_corrupting += 1;
                        inj.telemetry.site_mut(site).escaped += 1;
                        self.fault_token_seq += 1;
                        let token = store_token(VcpuId(u16::MAX), line, self.fault_token_seq);
                        self.mem.store_commit(core, line, token, true, ready);
                        self.forensics.link(rec, ready, || {
                            format!("corruption_committed line={} page={}", line.0, page.0)
                        });
                        self.forensics.escaped(rec, vec![page.0]);
                    }
                }
            }
        }
    }

    // ----- main loop ------------------------------------------------------------

    /// Advances the machine one cycle.
    pub fn tick(&mut self) {
        let now = self.cycle;
        {
            // Wake-slot checks and the fault-arrival poll are wheel
            // bookkeeping; the handlers they trigger carve out their
            // own nested phases.
            let _prof = self.profiler.enter(ProfPhase::Wheel);
            if now >= self.wheel.at(WakeSource::Sample) {
                self.profiler.wake_hit(WakeSource::Sample as usize);
                // Reschedules its own slot.
                self.take_sample(now);
            }
            if now >= self.wheel.at(WakeSource::Slice) {
                self.profiler.wake_hit(WakeSource::Slice as usize);
                let next = self.wheel.at(WakeSource::Slice) + self.cfg.virt.timeslice_cycles;
                {
                    let _prof = self.profiler.enter(ProfPhase::Sched);
                    if let Some(policy) = self.workload.gang_policy() {
                        self.gang_switch(policy, now);
                    } else {
                        self.overcommit_switch(now);
                    }
                }
                self.wheel.schedule(WakeSource::Slice, next);
            }
            if now >= self.wheel.at(WakeSource::SingleOsPoll) {
                self.profiler.wake_hit(WakeSource::SingleOsPoll as usize);
                let _prof = self.profiler.enter(ProfPhase::Sched);
                self.poll_single_os(now);
            }
            if let Some(inj) = self.injector.as_mut() {
                if let Some((core, site)) = inj.poll(now) {
                    self.profiler.wake_hit(WakeSource::Fault as usize);
                    let _prof = self.profiler.enter(ProfPhase::Sched);
                    self.apply_fault(core, site, now);
                }
            }
        }
        let mut min_wake = Cycle::MAX;
        let mut awake: u64 = 0;
        {
            // Attribute the scan over cores and pairs — wake-hint
            // checks, occupancy accounting, service-flag sweeps — to
            // the core-loop bookkeeping phase; the core/mem/op-gen and
            // pair-service probes nest inside and subtract themselves.
            let _prof = self.profiler.enter(ProfPhase::CoreLoop);
            for c in &mut self.cores {
                // Cores that proved themselves blocked (or idle) until a
                // future cycle are skipped entirely; they settle their
                // skipped-cycle counters when they next run.
                let hint = c.wake_hint();
                if now < hint {
                    min_wake = min_wake.min(hint);
                    continue;
                }
                awake += 1;
                c.tick(now, &mut self.mem);
                min_wake = min_wake.min(c.wake_hint());
            }
            self.profiler.occupancy(awake);
            for (slot, pair) in self.pairs.iter().enumerate() {
                let Some(pair) = pair else { continue };
                // The dirty flag only rises during core ticks, so a clean
                // pair has nothing queued — skip the channel call.
                if !pair.needs_service() {
                    continue;
                }
                for detected_at in pair.service(&mut self.mem) {
                    // A fingerprint mismatch caused by an injected fault:
                    // attribute the detection back to its injection for
                    // the campaign latency histogram.
                    if let Some((injected_at, site, rec)) =
                        self.dmr_inject_pending[slot].pop_front()
                    {
                        if let Some(inj) = self.injector.as_mut() {
                            inj.telemetry
                                .site_mut(site)
                                .detection_latency
                                .record(detected_at.saturating_sub(injected_at));
                        }
                        self.forensics.attribute_latency(rec, detected_at);
                    }
                }
            }
        }
        // Re-register the event sources whose deadlines this tick may
        // have moved: the next fault arrival (re-drawn by `poll`) and
        // the single-OS trap poll (its boundary/drain/stall conditions
        // only change during core ticks, so recomputing here — after
        // the core loop — is exact).
        {
            let _prof = self.profiler.enter(ProfPhase::Wheel);
            if let Some(inj) = &self.injector {
                self.wheel.schedule(WakeSource::Fault, inj.next_event(now));
            }
            if matches!(self.workload, Workload::SingleOsMixed(_)) {
                let at = self.next_single_os_poll(now);
                self.wheel.schedule(WakeSource::SingleOsPoll, at);
            }
        }
        let next = {
            let _prof = self.profiler.enter(ProfPhase::FastForward);
            self.fast_forward(now, min_wake)
        };
        self.profiler.advance(next - now);
        self.cycle = next;
    }

    /// The earliest future cycle at which [`System::poll_single_os`]
    /// could fire a per-syscall mode transition, given current core
    /// state: a performance-mode pair needs its vocal parked at an
    /// OS-entry trap with a drained window and any external stall
    /// expired; a reliable-mode pair needs *both* cores parked at the
    /// OS exit with drained windows. `Cycle::MAX` when no pair can
    /// transition without further core activity — and core activity
    /// already pins the clock through the wake hints.
    fn next_single_os_poll(&self, now: Cycle) -> Cycle {
        let pairs = self.cfg.pairs() as usize;
        let mut earliest = Cycle::MAX;
        for p in 0..pairs {
            let vocal = &self.cores[2 * p];
            let at = if self.pairs[p].is_none() {
                vocal.boundary_ready_at(Boundary::EnterOs, now)
            } else {
                let mute = &self.cores[2 * p + 1];
                // Both sides must be ready; `max` stays `Cycle::MAX`
                // until the later of the two is.
                vocal
                    .boundary_ready_at(Boundary::ExitOs, now)
                    .max(mute.boundary_ready_at(Boundary::ExitOs, now))
            };
            earliest = earliest.min(at);
        }
        earliest
    }

    /// The next cycle the machine must actually simulate: `now + 1`,
    /// or later when every core is provably asleep beyond it and no
    /// event-wheel source fires in between. Ticks inside the jumped
    /// span would run zero cores, service nothing, and dispatch no
    /// event — each core settles its skipped-cycle counters itself, so
    /// the reports are identical either way. Every workload mode jumps:
    /// fault arrivals are pre-drawn events, the single-OS trap poll
    /// registers the earliest cycle its conditions could hold, and
    /// timeslice/sample boundaries sit in their wheel slots.
    fn fast_forward(&self, now: Cycle, min_wake: Cycle) -> Cycle {
        if !self.skip_enabled || min_wake <= now + 1 {
            return now + 1;
        }
        self.wheel.next_event(now + 1, min_wake)
    }

    /// Runs for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        let end = self.cycle + cycles;
        while self.cycle < end {
            self.tick();
        }
        // A fast-forward may overshoot the run boundary; nothing
        // happens in the overshot span, so resuming at `end` is exact.
        self.cycle = end;
        // Flush pending skipped-cycle charges so reports (and the
        // warm-up reset) see fully settled counters.
        for c in &mut self.cores {
            c.settle_to(self.cycle);
        }
        // A sample boundary landing exactly on the run end has not
        // ticked; record it now so the series is the same whether the
        // caller keeps running or stops here.
        if self.cycle >= self.wheel.at(WakeSource::Sample) {
            self.take_sample(self.cycle);
        }
    }

    /// Resets every measured counter (after warm-up) without touching
    /// architectural or cache state.
    pub fn reset_measurement(&mut self) {
        for c in &mut self.cores {
            c.reset_stats();
            c.enable_phase_tracking();
        }
        for v in &mut self.vcpus {
            if let Some(ctx) = v.parked_ctx.as_mut() {
                ctx.user_commits = 0;
                ctx.os_commits = 0;
                ctx.unprotected_commits = 0;
            }
        }
        self.mem.reset_stats();
        self.engine.stats = TransitionStats::default();
        self.retired_pair_stats = PairStats::default();
        for pair in self.pairs.iter().flatten() {
            pair.reset_stats();
        }
        for pab in &self.pabs {
            pab.borrow_mut().reset_stats();
        }
        if let Some(inj) = self.injector.as_mut() {
            inj.stats = FaultStats::default();
            inj.telemetry = CampaignTelemetry::default();
        }
        for q in &mut self.dmr_inject_pending {
            q.clear();
        }
        // Restart the forensics recorder: only faults injected during
        // the measured window are reported (black-box rings are kept —
        // context preceding an early escape is still valuable).
        self.forensics.reset();
        // Restart the flight recorder: samples cover the measured
        // period only, with timestamps relative to its start.
        self.measure_start = self.cycle;
        if self.sampler.interval().is_some() {
            let snapshot = self.report(0).metrics();
            self.sampler.rebase(&snapshot);
            self.wheel
                .schedule(WakeSource::Sample, self.sampler.next_boundary(self.cycle));
        }
    }

    /// Runs `warmup` unmeasured cycles followed by `measure` measured
    /// cycles and reports.
    pub fn run_measured(&mut self, warmup: u64, measure: u64) -> SystemReport {
        self.run(warmup);
        self.reset_measurement();
        // Open the profiler window after the warm-up reset so phase
        // shares cover exactly the measured period.
        self.profiler.begin();
        let started = std::time::Instant::now();
        self.run(measure);
        let wall = started.elapsed().as_secs_f64();
        self.profiler.end();
        let mut report = self.report(measure);
        report.wall_seconds = wall;
        report.series = self.sampler.series();
        report.profile = self.profiler.report();
        report.forensics = self.forensics.take_report();
        report
    }

    /// The largest record ring any pair channel of this run has held,
    /// in records (0 before the first pair couples): the size the
    /// core window sets, unless a ring grew.
    pub fn pair_ring_records(&self) -> usize {
        self.pairs
            .iter()
            .flatten()
            .map(DmrPair::ring_records)
            .fold(self.retired_ring_records, usize::max)
    }

    /// Builds the report over the last `cycles` measured cycles.
    pub fn report(&self, cycles: u64) -> SystemReport {
        let mut vcpu_slices = Vec::with_capacity(self.vcpus.len());
        for v in &self.vcpus {
            let triple = |c: &ExecContext| (c.user_commits, c.os_commits, c.unprotected_commits);
            let (user, os, unprotected) = match v.assignment {
                Assignment::Parked => v.parked_ctx.as_ref().map(triple).unwrap_or((0, 0, 0)),
                Assignment::Solo(c) => self.cores[c.index()]
                    .context()
                    .map(triple)
                    .unwrap_or((0, 0, 0)),
                Assignment::Dmr { vocal, .. } => self.cores[vocal.index()]
                    .context()
                    .map(triple)
                    .unwrap_or((0, 0, 0)),
            };
            vcpu_slices.push(VcpuSlice {
                vcpu: v.id,
                vm: v.vm,
                user_commits: user,
                os_commits: os,
                unprotected_commits: unprotected,
            });
        }
        let mut core_agg = CoreStats::new();
        let mut phases = PhaseTracker::new();
        for c in &self.cores {
            core_agg.merge(c.stats());
            if let Some(t) = c.phase_tracker() {
                phases.merge(t);
            }
        }
        let mut pair_agg = self.retired_pair_stats.clone();
        for pair in self.pairs.iter().flatten() {
            pair_agg.merge_from(&pair.stats());
        }
        let mut pab_agg = PabStats::default();
        for pab in &self.pabs {
            let pb = pab.borrow();
            let s = pb.stats();
            pab_agg.lookups += s.lookups;
            pab_agg.hits += s.hits;
            pab_agg.misses += s.misses;
            pab_agg.violations += s.violations;
            pab_agg.demap_invalidations += s.demap_invalidations;
            pab_agg
                .serialization_penalty
                .merge(&s.serialization_penalty);
        }
        SystemReport {
            config: self.workload.name(),
            benchmark: self.workload.benchmark().name(),
            scheduler: self.workload.scheduler_name(),
            threads: self.vcpus.len() as u64,
            cycles,
            vcpus: vcpu_slices,
            mem: self.mem.stats().clone(),
            cores: core_agg,
            pairs: pair_agg,
            transitions: self.engine.stats.clone(),
            faults: self.injector.as_ref().map(|i| i.stats).unwrap_or_default(),
            pab: pab_agg,
            phase_user_mean: phases.mean_user_cycles(),
            phase_os_mean: phases.mean_os_cycles(),
            phases,
            wall_seconds: 0.0,
            fault_telemetry: self.injector.as_ref().map(|i| i.telemetry.clone()),
            series: None,
            profile: None,
            forensics: None,
        }
    }

    /// The layout oracle (tests and harnesses).
    pub fn layout(&self) -> AddressLayout {
        self.layout
    }

    /// Read access to a core (tests).
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// The `(vocal, mute)` cores of the first live DMR pair, if any
    /// (in-crate tests that drive `apply_fault` directly).
    #[cfg(test)]
    pub(crate) fn first_pair_cores(&self) -> Option<(CoreId, CoreId)> {
        self.pairs
            .iter()
            .flatten()
            .next()
            .map(|p| (p.vocal(), p.mute()))
    }

    /// Read access to the memory system (tests).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }
}

/// `PairStats` accumulation helper.
trait MergeFrom {
    fn merge_from(&mut self, other: &Self);
}

impl MergeFrom for PairStats {
    fn merge_from(&mut self, other: &Self) {
        self.ops_compared += other.ops_compared;
        self.input_incoherence += other.input_incoherence;
        self.faults_detected += other.faults_detected;
        self.recovery_cycles += other.recovery_cycles;
        self.occupancy.merge(&other.occupancy);
        self.commit_burst.merge(&other.commit_burst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_workload::Benchmark;

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::default();
        // Shorter timeslices so gang switching happens inside small
        // test runs.
        cfg.virt.timeslice_cycles = 50_000;
        cfg
    }

    #[test]
    fn no_dmr_2x_runs_all_16_vcpus() {
        let mut sys = System::new(
            &SystemConfig::default(),
            Workload::NoDmr2x(Benchmark::Pmake),
            1,
        )
        .unwrap();
        let r = sys.run_measured(20_000, 100_000);
        assert_eq!(r.vcpus.len(), 16);
        assert!(r.vcpus.iter().all(|v| v.user_commits > 0), "{r:?}");
        assert!(r.avg_user_ipc() > 0.1);
    }

    #[test]
    fn reunion_is_slower_than_no_dmr() {
        let cfg = SystemConfig::default();
        let mut base = System::new(&cfg, Workload::NoDmr(Benchmark::Oltp), 1).unwrap();
        let rb = base.run_measured(20_000, 150_000);
        let mut dmr = System::new(&cfg, Workload::ReunionDmr(Benchmark::Oltp), 1).unwrap();
        let rd = dmr.run_measured(20_000, 150_000);
        assert!(
            rd.avg_user_ipc() < rb.avg_user_ipc(),
            "Reunion {:.3} !< NoDmr {:.3}",
            rd.avg_user_ipc(),
            rb.avg_user_ipc()
        );
        assert!(rd.pairs.ops_compared > 0);
    }

    #[test]
    fn consolidated_gang_switching_alternates_vms() {
        let cfg = small_cfg();
        let mut sys = System::new(
            &cfg,
            Workload::Consolidated {
                bench: Benchmark::Pmake,
                policy: MixedPolicy::MmmIpc,
            },
            1,
        )
        .unwrap();
        let r = sys.run_measured(100_000, 400_000);
        // Both VMs made progress.
        assert!(r.vm_user_commits(VmId(0)) > 0, "reliable VM ran");
        assert!(r.vm_user_commits(VmId(1)) > 0, "perf VM ran");
        // Transitions were charged.
        assert!(r.transitions.enter.count() > 0);
        assert!(r.transitions.leave.count() > 0);
    }

    #[test]
    fn mmm_tp_runs_two_perf_guests() {
        let cfg = small_cfg();
        let mut sys = System::new(
            &cfg,
            Workload::Consolidated {
                bench: Benchmark::Pmake,
                policy: MixedPolicy::MmmTp,
            },
            1,
        )
        .unwrap();
        let r = sys.run_measured(100_000, 400_000);
        assert!(r.vm_user_commits(VmId(1)) > 0);
        assert!(r.vm_user_commits(VmId(2)) > 0);
        // The leave transition includes the mute flush: mean ~10k.
        assert!(r.transitions.leave.mean() > 8_000.0);
        // PAB saw the perf guests' stores.
        assert!(r.pab.lookups > 0);
    }

    #[test]
    fn single_os_mixed_switches_on_syscalls() {
        let cfg = SystemConfig::default();
        // Apache: user phases ~46k instructions, OS phases ~54k — both
        // short enough to see several full transitions per VCPU.
        let mut sys = System::new(&cfg, Workload::SingleOsMixed(Benchmark::Apache), 1).unwrap();
        let r = sys.run_measured(50_000, 900_000);
        assert!(
            r.transitions.enter.count() > 3,
            "Apache syscalls force Enter-DMR: {}",
            r.transitions.enter.count()
        );
        assert!(r.transitions.leave.count() > 3);
        // Work happened at both privilege levels.
        let total_os: u64 = r.vcpus.iter().map(|v| v.os_commits).sum();
        assert!(total_os > 0, "OS code ran (in DMR)");
        assert!(r.total_user_commits() > 0);
    }

    #[test]
    fn fault_injection_outcomes_are_classified() {
        let cfg = small_cfg();
        let mut sys = System::new(
            &cfg,
            Workload::Consolidated {
                bench: Benchmark::Oltp,
                policy: MixedPolicy::MmmTp,
            },
            1,
        )
        .unwrap();
        sys.enable_fault_injection(2e-6, 99);
        let r = sys.run_measured(50_000, 500_000);
        assert!(
            r.faults.injected > 5,
            "faults injected: {}",
            r.faults.injected
        );
        let classified = r.faults.detected_by_dmr
            + r.faults.wild_stores_blocked
            + r.faults.wild_stores_corrupting
            + r.faults.privreg_caught_at_entry
            + r.faults.silent_perf_faults
            + r.faults.on_idle_core;
        // PrivReg arms may still be pending at run end.
        assert!(
            classified + 8 >= r.faults.injected,
            "all faults classified: {:?}",
            r.faults
        );
        assert!(r.faults.detected_by_dmr > 0, "DMR detected faults");
    }

    #[test]
    fn dmr_coverage_tracks_the_protection_story() {
        let cfg = SystemConfig::default();
        let mut all_dmr = System::new(&cfg, Workload::ReunionDmr(Benchmark::Pmake), 1).unwrap();
        let r = all_dmr.run_measured(20_000, 150_000);
        assert!(
            (r.dmr_coverage() - 1.0).abs() < 1e-12,
            "all-DMR covers everything: {}",
            r.dmr_coverage()
        );
        let mut none = System::new(&cfg, Workload::NoDmr(Benchmark::Pmake), 1).unwrap();
        let r = none.run_measured(20_000, 150_000);
        assert_eq!(r.dmr_coverage(), 0.0);
        // Single-OS mixed: the OS-heavy share of Apache runs covered.
        let mut mixed = System::new(&cfg, Workload::SingleOsMixed(Benchmark::Apache), 1).unwrap();
        let r = mixed.run_measured(50_000, 800_000);
        let c = r.dmr_coverage();
        assert!(
            (0.05..0.999).contains(&c),
            "mixed coverage must be partial: {c}"
        );
        // Every OS instruction is covered: unprotected <= user commits.
        assert!(r.cores.commits_unprotected <= r.cores.commits_user);
    }

    #[test]
    fn overcommit_exact_fit_is_stable() {
        // 2 reliable pairs + 12 perf cores = 16 cores: everyone fits;
        // after the initial placement nothing should churn.
        let mut cfg = SystemConfig::default();
        cfg.virt.timeslice_cycles = 50_000;
        let mut sys = System::new(
            &cfg,
            Workload::Overcommitted {
                bench: Benchmark::Pmake,
                reliable: 2,
                perf: 12,
            },
            1,
        )
        .unwrap();
        let r = sys.run_measured(20_000, 300_000);
        assert_eq!(r.vcpus.len(), 14);
        assert!(
            r.vcpus.iter().all(|v| v.user_commits > 0),
            "every VCPU runs continuously: {:?}",
            r.vcpus
        );
        // No migrations after warm-up (stable placement).
        assert_eq!(r.transitions.dmr_switch.count(), 0);
        assert_eq!(r.transitions.perf_switch.count(), 0);
    }

    #[test]
    fn overcommit_rotation_is_fair() {
        // 4 reliable (8 cores) + 12 perf = 20 core-demand on 16
        // cores: four perf VCPUs pause each quantum, rotating.
        let mut cfg = SystemConfig::default();
        cfg.virt.timeslice_cycles = 40_000;
        let mut sys = System::new(
            &cfg,
            Workload::Overcommitted {
                bench: Benchmark::Pmake,
                reliable: 4,
                perf: 12,
            },
            1,
        )
        .unwrap();
        let r = sys.run_measured(40_000, 600_000);
        assert!(
            r.vcpus.iter().all(|v| v.user_commits > 0),
            "rotation must give every VCPU time: {:?}",
            r.vcpus
        );
        // Rotation causes real migrations.
        assert!(r.transitions.perf_switch.count() > 0);
        // Reliable VCPUs (which always fit) should out-commit the
        // rotated performance VCPUs per-VCPU... they run DMR though,
        // so just check both classes progressed substantially.
        let rel_min = r
            .vcpus
            .iter()
            .filter(|v| v.vm == VmId(0))
            .map(|v| v.user_commits)
            .min()
            .unwrap();
        assert!(rel_min > 1_000, "reliable VCPUs never pause: {rel_min}");
    }

    #[test]
    fn overcommit_rejects_oversized_topologies() {
        let cfg = SystemConfig::default();
        assert!(System::new(
            &cfg,
            Workload::Overcommitted {
                bench: Benchmark::Apache,
                reliable: 20,
                perf: 10,
            },
            1,
        )
        .is_err());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = SystemConfig::default();
        let run = || {
            let mut sys = System::new(&cfg, Workload::ReunionDmr(Benchmark::Apache), 7).unwrap();
            let r = sys.run_measured(10_000, 80_000);
            (
                r.total_user_commits(),
                r.mem.c2c_transfers,
                r.pairs.ops_compared,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn phase_tracking_reports_table2_quantities() {
        let cfg = SystemConfig::default();
        let mut sys = System::new(&cfg, Workload::NoDmr(Benchmark::Apache), 3).unwrap();
        let r = sys.run_measured(50_000, 1_000_000);
        assert!(r.phase_user_mean > 0.0, "user phases measured");
        assert!(r.phase_os_mean > 0.0, "os phases measured");
    }
}
