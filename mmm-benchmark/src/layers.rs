//! Per-layer metrics: host time per crate from the existing profiler,
//! work counts from the reports, and isolated drives of each crate's
//! public hot function.

use std::cell::RefCell;

use mmm_bench::harness::{bench, black_box};
use mmm_core::{check_store, Pab, Pat, SystemReport};
use mmm_cpu::{Core, ExecContext};
use mmm_mem::MemorySystem;
use mmm_reunion::channel::{PairChannel, Side};
use mmm_trace::ProfileReport;
use mmm_types::sampler::PowerLawSampler;
use mmm_types::{CoreId, DetRng, LineAddr, SystemConfig, VcpuId, VmId};
use mmm_workload::{Benchmark, OpStream};

/// The per-layer metrics every workload reports under `--trace 1`, with
/// units. `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("workload.op_gen_pct", "%"),
    ("workload.op_gen_ns_per_op", "ns"),
    ("workload.next_op_ns", "ns"),
    ("types.power_law_draw_ns", "ns"),
    ("cpu.dispatch_commit_pct", "%"),
    ("cpu.ns_per_commit", "ns"),
    ("cpu.core_tick_ns", "ns"),
    ("cpu.commits_per_kcycle", "1/kcycle"),
    ("mem.access_pct", "%"),
    ("mem.ns_per_access", "ns"),
    ("mem.coherent_load_ns", "ns"),
    ("mem.accesses_per_kcycle", "1/kcycle"),
    ("mem.c2c_per_kcycle", "1/kcycle"),
    ("reunion.pair_pct", "%"),
    ("reunion.publish_commit_ns", "ns"),
    ("reunion.compares_per_kcycle", "1/kcycle"),
    ("core.loop_pct", "%"),
    ("core.loop_ns_per_tick", "ns"),
    ("core.wheel_pct", "%"),
    ("core.skip_pct", "%"),
    ("core.sched_pct", "%"),
    ("core.transitions", "count"),
    ("core.pab_check_ns", "ns"),
    ("core.pab_lookups_per_kcycle", "1/kcycle"),
    ("core.measure_s", "s"),
    ("core.report_s", "s"),
    ("trace.profile_overhead_x", "x"),
];

/// Per-layer metrics that exist only on the workloads that do the work
/// they divide by or time: compares (pairs), a separable warm-up
/// (single runs) and the campaign phases (the sweep). They appear in
/// the result document, not on the summary line.
pub const WORKLOAD_SPECIFIC: [(&str, &str); 7] = [
    ("reunion.ns_per_compare", "ns"),
    ("core.warmup_s", "s"),
    ("campaign.parse_s", "s"),
    ("campaign.run_cells_s", "s"),
    ("campaign.checkpoint_s", "s"),
    ("campaign.merge_s", "s"),
    ("campaign.cells_per_s", "1/s"),
];

/// The unit of a per-layer metric, from either table.
pub fn unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(&WORKLOAD_SPECIFIC)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Profiler phase time and report counters summed over one or more
/// profiled runs.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    phase_nanos: Vec<(&'static str, u64)>,
    /// The measured windows' host time, timed apart from the profiler.
    window_nanos: f64,
    /// How far the windows' final fast-forward jumps may have carried
    /// the profiled cycles past the windows' ends.
    overshoot_limit: u64,
    ticks: u64,
    advanced_cycles: u64,
    skipped_cycles: u64,
    cycles: u64,
    commits: u64,
    accesses: u64,
    c2c: u64,
    compares: u64,
    transitions: u64,
    pab_lookups: u64,
}

impl LayerSample {
    /// Adds one measured window: its report's counters, the profile of
    /// the same window, and the window's host time in seconds as timed
    /// around the measured `run`.
    pub fn add(&mut self, report: &SystemReport, profile: &ProfileReport, window_s: f64) {
        if self.phase_nanos.is_empty() {
            self.phase_nanos = profile.phase_nanos.iter().map(|&(l, _)| (l, 0)).collect();
        }
        for ((_, sum), (_, n)) in self.phase_nanos.iter_mut().zip(&profile.phase_nanos) {
            *sum += n;
        }
        self.window_nanos += window_s * 1e9;
        // `System::run` ends a window at its boundary even when the last
        // tick's jump went past it; the profiler counted the whole jump.
        self.overshoot_limit += profile.jump_lengths.max().saturating_sub(1);
        self.ticks += profile.ticks;
        self.advanced_cycles += profile.advanced_cycles;
        self.skipped_cycles += profile.skipped_cycles;
        let (m, t) = (&report.mem, &report.transitions);
        self.cycles += report.cycles;
        self.commits += report.cores.commits();
        self.accesses += m.l1i_hits + m.l1i_misses + m.l1d_hits + m.l1d_misses;
        self.c2c += m.c2c_transfers;
        self.compares += report.pairs.ops_compared;
        self.transitions += [&t.enter, &t.leave, &t.dmr_switch, &t.perf_switch]
            .iter()
            .map(|s| s.count())
            .sum::<u64>();
        self.pab_lookups += report.pab.lookups;
    }

    fn nanos(&self, label: &str) -> f64 {
        self.phase_nanos
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |&(_, n)| n as f64)
    }

    fn total_nanos(&self) -> f64 {
        self.phase_nanos.iter().map(|&(_, n)| n as f64).sum()
    }

    /// Checks that the profile accounts for the measured windows: every
    /// measured cycle passed through a profiled tick (with no more extra
    /// than the final jumps' overshoot), and the profiled time is the
    /// windows' host time to within 5%. The phase shares that every
    /// `*_pct` metric divides by then cover the windows.
    pub fn check(&self) -> Result<(), String> {
        let extra = self.advanced_cycles.checked_sub(self.cycles);
        if extra.is_none_or(|e| e > self.overshoot_limit) {
            return Err(format!(
                "the profiler saw {} cycles in {} measured cycles",
                self.advanced_cycles, self.cycles
            ));
        }
        let coverage = self.total_nanos() / self.window_nanos;
        if !(0.95..=1.05).contains(&coverage) {
            return Err(format!(
                "the profile covers {:.1}% of the measured windows' host time",
                100.0 * coverage
            ));
        }
        Ok(())
    }

    /// The profiler- and counter-derived metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_nanos();
        let pct =
            |labels: &[&str]| labels.iter().map(|l| self.nanos(l)).sum::<f64>() * 100.0 / total;
        // No work done: no cost per unit of it.
        let per = |x: f64, d: u64| if d == 0 { 0.0 } else { x / d as f64 };
        let per_kcycle = |n: u64| per(n as f64 * 1000.0, self.cycles);
        let mut out = vec![
            ("workload.op_gen_pct", pct(&["op_gen"])),
            (
                "workload.op_gen_ns_per_op",
                per(self.nanos("op_gen"), self.commits),
            ),
            ("cpu.dispatch_commit_pct", pct(&["core_dispatch_commit"])),
            (
                "cpu.ns_per_commit",
                per(self.nanos("core_dispatch_commit"), self.commits),
            ),
            ("cpu.commits_per_kcycle", per_kcycle(self.commits)),
            ("mem.access_pct", pct(&["mem_access"])),
            (
                "mem.ns_per_access",
                per(self.nanos("mem_access"), self.accesses),
            ),
            ("mem.accesses_per_kcycle", per_kcycle(self.accesses)),
            ("mem.c2c_per_kcycle", per_kcycle(self.c2c)),
            ("reunion.pair_pct", pct(&["pair_service"])),
            ("reunion.compares_per_kcycle", per_kcycle(self.compares)),
            ("core.loop_pct", pct(&["core_loop_bookkeeping"])),
            (
                "core.loop_ns_per_tick",
                per(self.nanos("core_loop_bookkeeping"), self.ticks),
            ),
            (
                "core.wheel_pct",
                pct(&["wheel_bookkeeping", "fast_forward"]),
            ),
            (
                "core.skip_pct",
                per(self.skipped_cycles as f64 * 100.0, self.advanced_cycles),
            ),
            ("core.sched_pct", pct(&["sched_transition"])),
            ("core.transitions", self.transitions as f64),
            ("core.pab_lookups_per_kcycle", per_kcycle(self.pab_lookups)),
        ];
        if self.compares > 0 {
            out.push((
                "reunion.ns_per_compare",
                per(self.nanos("pair_service"), self.compares),
            ));
        }
        out
    }
}

/// Isolated drives of each crate's public hot function, in ns per
/// call, on `bench`'s profile where the function takes one.
pub fn isolated_drives(bench_profile: Benchmark, seed: u64) -> Vec<(&'static str, f64)> {
    let profile = bench_profile.profile();
    let cfg = SystemConfig::default();
    let mut out = Vec::new();

    let sampler = PowerLawSampler::new(profile.user.private_lines, profile.user.skew);
    let mut rng = DetRng::new(seed, 0);
    out.push((
        "types.power_law_draw_ns",
        bench("power_law_draw", || {
            black_box(sampler.sample(&mut rng));
        }),
    ));

    let mut stream = OpStream::new(profile.clone(), VmId(0), VcpuId(0), seed);
    out.push((
        "workload.next_op_ns",
        bench("opstream_next_op", || {
            black_box(stream.next_op());
        }),
    ));

    let mut mem = MemorySystem::new(&cfg);
    let mut core = Core::new(CoreId(0), &cfg);
    core.set_context(ExecContext::new(OpStream::new(
        profile,
        VmId(0),
        VcpuId(0),
        seed,
    )));
    let mut now = 0u64;
    out.push((
        "cpu.core_tick_ns",
        bench("core_tick", || {
            core.tick(now, &mut mem);
            now += 1;
        }),
    ));

    let mut mem = MemorySystem::new(&cfg);
    let (mut now, mut i) = (0u64, 0u64);
    out.push((
        "mem.coherent_load_ns",
        bench("mem_coherent_load", || {
            i = i.wrapping_add(0x9E37_79B9);
            now += 1;
            black_box(mem.load(CoreId(0), LineAddr(i % 65_536), true, now));
        }),
    ));

    let mut channel = PairChannel::new(cfg.reunion, 0);
    let mut seq = 0u64;
    out.push((
        "reunion.publish_commit_ns",
        bench("pair_channel_publish_commit", || {
            channel.publish(Side::Vocal, seq, seq, None);
            channel.publish(Side::Mute, seq, seq + 3, None);
            black_box(channel.commit_time(seq, seq + 100));
            channel.prune_below(seq);
            seq += 1;
        }),
    ));

    let pab = RefCell::new(Pab::new(cfg.pab));
    let pat = Pat::new();
    let mut mem = MemorySystem::new(&cfg);
    let mut i = 0u64;
    out.push((
        "core.pab_check_ns",
        bench("pab_check_store", || {
            i = i.wrapping_add(1);
            // Mostly hits: 64 hot page groups.
            let line = LineAddr((i % 64) * 8192);
            black_box(check_store(&pab, CoreId(0), line, &pat, &mut mem, i));
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One second of measured window over 1000 cycles whose longest
    /// fast-forward jump was 5 cycles, profiled as `profiled_nanos`
    /// over `profiled_cycles`.
    fn sample(profiled_nanos: u64, profiled_cycles: u64) -> LayerSample {
        LayerSample {
            phase_nanos: vec![
                ("op_gen", profiled_nanos / 4),
                ("other", profiled_nanos * 3 / 4),
            ],
            window_nanos: 1e9,
            overshoot_limit: 4,
            advanced_cycles: profiled_cycles,
            cycles: 1000,
            ..LayerSample::default()
        }
    }

    #[test]
    fn a_profile_must_account_for_the_measured_window() {
        assert!(sample(1_000_020_000, 1000).check().is_ok());
        assert!(sample(999_000_000, 1004).check().is_ok(), "a final jump");
        // Nothing profiled: no time and no cycles.
        assert!(sample(0, 0).check().is_err());
        assert!(sample(0, 1000).check().is_err(), "no profiled time");
        assert!(
            sample(1_000_000_000, 999).check().is_err(),
            "a cycle missed"
        );
        assert!(
            sample(1_000_000_000, 1005).check().is_err(),
            "more than a jump past the end"
        );
        assert!(
            sample(500_000_000, 1000).check().is_err(),
            "half the window"
        );
        assert!(LayerSample::default().check().is_err(), "no window at all");
    }
}
