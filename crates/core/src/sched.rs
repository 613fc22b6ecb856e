//! Workload and scheduling specifications for the paper's
//! configurations.
//!
//! A [`Workload`] names one machine configuration from the evaluation:
//! the three Fig 5 systems (`No DMR 2X`, `No DMR`, `Reunion`), the
//! three Fig 6 consolidated-server policies (`DMR Base`, `MMM-IPC`,
//! `MMM-TP`), and the single-OS mixed-mode system of §5.3 in which a
//! performance application transitions to reliable mode at every OS
//! entry.

use mmm_types::{Error, Result, SystemConfig, VcpuId, VmId};
use mmm_workload::layout::PRIVATE_HEAPS;
use mmm_workload::Benchmark;

use crate::mode::RelMode;

/// How a consolidated server handles its performance guest (Fig 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MixedPolicy {
    /// Traditional DMR: every guest runs redundantly — the baseline.
    DmrBase,
    /// MMM-IPC: the performance guest runs one VCPU per vocal core;
    /// the redundant cores idle.
    MmmIpc,
    /// MMM-TP: the performance guest(s) run independent VCPUs on all
    /// cores, via multicore virtualization (overcommit).
    MmmTp,
}

impl MixedPolicy {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MixedPolicy::DmrBase => "DMR Base",
            MixedPolicy::MmmIpc => "MMM-IPC",
            MixedPolicy::MmmTp => "MMM-TP",
        }
    }
}

/// One machine configuration of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Fig 5 `No DMR 2X`: 16 independent VCPUs on 16 cores, no
    /// redundancy (the throughput-normalization baseline).
    NoDmr2x(Benchmark),
    /// Fig 5 `No DMR`: 8 VCPUs on 8 cores; the other 8 cores idle.
    NoDmr(Benchmark),
    /// Fig 5 `Reunion`: the same 8 VCPUs run redundantly across all
    /// 16 cores.
    ReunionDmr(Benchmark),
    /// Fig 6: a consolidated server with one reliable guest VM
    /// (8 VCPUs) and one performance guest, gang-scheduled with 1 ms
    /// timeslices.
    Consolidated {
        /// The application both guests run.
        bench: Benchmark,
        /// Performance-guest policy.
        policy: MixedPolicy,
    },
    /// §5.3: a single-OS system where 8 `PerfUser` VCPUs run solo in
    /// user mode and transition to DMR on every OS entry.
    SingleOsMixed(Benchmark),
    /// §3.5 / Figure 4: an overcommitted MMM. `reliable` VCPUs
    /// requiring DMR pairs and `perf` VCPUs requiring single cores are
    /// exposed to system software; when their demand exceeds the 16
    /// physical cores, the virtualization layer pauses VCPUs and
    /// rotates them fairly each quantum.
    Overcommitted {
        /// The application every VCPU runs.
        bench: Benchmark,
        /// VCPUs requiring reliable (DMR) execution.
        reliable: u16,
        /// VCPUs requiring performance execution.
        perf: u16,
    },
}

/// Everything the system needs to instantiate one VCPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcpuSpec {
    /// System-wide VCPU id.
    pub vcpu: VcpuId,
    /// Owning VM.
    pub vm: VmId,
    /// Reliability-mode register value.
    pub mode: RelMode,
    /// Application profile this VCPU executes.
    pub bench: Benchmark,
}

impl Workload {
    /// The benchmark under test.
    pub fn benchmark(self) -> Benchmark {
        match self {
            Workload::NoDmr2x(b)
            | Workload::NoDmr(b)
            | Workload::ReunionDmr(b)
            | Workload::SingleOsMixed(b) => b,
            Workload::Consolidated { bench, .. } => bench,
            Workload::Overcommitted { bench, .. } => bench,
        }
    }

    /// Display name of the configuration.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NoDmr2x(_) => "No DMR 2X",
            Workload::NoDmr(_) => "No DMR",
            Workload::ReunionDmr(_) => "Reunion",
            Workload::Consolidated { policy, .. } => policy.name(),
            Workload::SingleOsMixed(_) => "Single-OS MMM",
            Workload::Overcommitted { .. } => "Overcommitted MMM",
        }
    }

    /// Scheduler family driving this configuration. Part of a run's
    /// identity block: runs under different schedulers are not
    /// comparable metric-for-metric, and `mmm-inspect` refuses to
    /// diff them.
    pub fn scheduler_name(self) -> &'static str {
        match self {
            Workload::NoDmr2x(_) | Workload::NoDmr(_) | Workload::ReunionDmr(_) => "static",
            Workload::Consolidated { .. } => "gang",
            Workload::Overcommitted { .. } => "overcommit",
            Workload::SingleOsMixed(_) => "single-os",
        }
    }

    /// Gang-scheduling policy, if this configuration time-slices VMs.
    pub fn gang_policy(self) -> Option<MixedPolicy> {
        match self {
            Workload::Consolidated { policy, .. } => Some(policy),
            _ => None,
        }
    }

    /// The VCPUs of this configuration.
    ///
    /// Numbering follows the paper's topologies: the (reliable) first
    /// VM holds VCPUs `0..pairs`; a performance guest holds
    /// `pairs..2*pairs`; MMM-TP's second co-scheduled performance
    /// guest (§4.1: "we implement the 16 VCPU guest as two
    /// co-scheduled 8 VCPU guests running the same application") holds
    /// `2*pairs..3*pairs` in its own VM.
    ///
    /// A VCPU's id picks its private heap in the address layout, so a
    /// topology with an id at or past [`PRIVATE_HEAPS`] is an
    /// [`Error::Topology`].
    pub fn vcpu_specs(self, cfg: &SystemConfig) -> Result<Vec<VcpuSpec>> {
        let pairs = cfg.pairs() as u16;
        let bench = self.benchmark();
        let spec = |vcpu: u16, vm: u16, mode: RelMode| VcpuSpec {
            vcpu: VcpuId(vcpu),
            vm: VmId(vm),
            mode,
            bench,
        };
        let out = match self {
            Workload::NoDmr2x(_) => (0..cfg.cores as u16)
                .map(|i| spec(i, 0, RelMode::Performance))
                .collect(),
            Workload::NoDmr(_) => (0..pairs)
                .map(|i| spec(i, 0, RelMode::Performance))
                .collect(),
            Workload::ReunionDmr(_) => (0..pairs).map(|i| spec(i, 0, RelMode::Reliable)).collect(),
            Workload::Consolidated { policy, .. } => {
                let mut v: Vec<VcpuSpec> =
                    (0..pairs).map(|i| spec(i, 0, RelMode::Reliable)).collect();
                let perf_mode = match policy {
                    MixedPolicy::DmrBase => RelMode::Reliable,
                    _ => RelMode::Performance,
                };
                v.extend((0..pairs).map(|i| spec(pairs + i, 1, perf_mode)));
                if policy == MixedPolicy::MmmTp {
                    v.extend((0..pairs).map(|i| spec(2 * pairs + i, 2, perf_mode)));
                }
                v
            }
            Workload::SingleOsMixed(_) => {
                (0..pairs).map(|i| spec(i, 0, RelMode::PerfUser)).collect()
            }
            Workload::Overcommitted { reliable, perf, .. } => {
                // Reliable VCPUs live in VM 0, performance VCPUs in
                // VM 1; their ids count on across both.
                if reliable as usize + perf as usize > PRIVATE_HEAPS {
                    return Err(Error::topology(format!(
                        "overcommitted topology exceeds {PRIVATE_HEAPS} VCPUs"
                    )));
                }
                if reliable == 0 && perf == 0 {
                    return Err(Error::topology("no VCPUs requested"));
                }
                let mut v: Vec<VcpuSpec> = (0..reliable)
                    .map(|i| spec(i, 0, RelMode::Reliable))
                    .collect();
                v.extend((0..perf).map(|i| spec(reliable + i, 1, RelMode::Performance)));
                v
            }
        };
        if out.is_empty() {
            return Err(Error::topology("workload produced no VCPUs"));
        }
        if let Some(s) = out.iter().find(|s| s.vcpu.index() >= PRIVATE_HEAPS) {
            return Err(Error::topology(format!(
                "VCPU {} has no private heap: the address layout holds {PRIVATE_HEAPS}",
                s.vcpu.index()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn fig5_topologies() {
        let c = cfg();
        assert_eq!(
            Workload::NoDmr2x(Benchmark::Apache)
                .vcpu_specs(&c)
                .unwrap()
                .len(),
            16
        );
        assert_eq!(
            Workload::NoDmr(Benchmark::Apache)
                .vcpu_specs(&c)
                .unwrap()
                .len(),
            8
        );
        let reunion = Workload::ReunionDmr(Benchmark::Apache)
            .vcpu_specs(&c)
            .unwrap();
        assert_eq!(reunion.len(), 8);
        assert!(reunion.iter().all(|s| s.mode == RelMode::Reliable));
    }

    #[test]
    fn consolidated_topologies() {
        let c = cfg();
        for (policy, total, vms) in [
            (MixedPolicy::DmrBase, 16, 2),
            (MixedPolicy::MmmIpc, 16, 2),
            (MixedPolicy::MmmTp, 24, 3),
        ] {
            let specs = Workload::Consolidated {
                bench: Benchmark::Oltp,
                policy,
            }
            .vcpu_specs(&c)
            .unwrap();
            assert_eq!(specs.len(), total, "{policy:?}");
            let vm_count = specs
                .iter()
                .map(|s| s.vm)
                .collect::<std::collections::HashSet<_>>()
                .len();
            assert_eq!(vm_count, vms, "{policy:?}");
            // VM 0 is always reliable.
            assert!(specs
                .iter()
                .filter(|s| s.vm == VmId(0))
                .all(|s| s.mode == RelMode::Reliable));
        }
    }

    #[test]
    fn dmr_base_runs_everything_reliable() {
        let specs = Workload::Consolidated {
            bench: Benchmark::Zeus,
            policy: MixedPolicy::DmrBase,
        }
        .vcpu_specs(&cfg())
        .unwrap();
        assert!(specs.iter().all(|s| s.mode == RelMode::Reliable));
    }

    #[test]
    fn single_os_uses_perf_user() {
        let specs = Workload::SingleOsMixed(Benchmark::Pgbench)
            .vcpu_specs(&cfg())
            .unwrap();
        assert_eq!(specs.len(), 8);
        assert!(specs.iter().all(|s| s.mode == RelMode::PerfUser));
    }

    #[test]
    fn vcpu_ids_are_unique() {
        for policy in [
            MixedPolicy::DmrBase,
            MixedPolicy::MmmIpc,
            MixedPolicy::MmmTp,
        ] {
            let specs = Workload::Consolidated {
                bench: Benchmark::Apache,
                policy,
            }
            .vcpu_specs(&cfg())
            .unwrap();
            let ids: std::collections::HashSet<_> = specs.iter().map(|s| s.vcpu).collect();
            assert_eq!(ids.len(), specs.len());
        }
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn topologies_past_the_private_heaps_are_rejected() {
        let mut c = cfg();
        c.cores = 18; // MMM-TP: VCPU ids 0..27
        let tp = Workload::Consolidated {
            bench: Benchmark::Pmake,
            policy: MixedPolicy::MmmTp,
        };
        assert!(matches!(tp.vcpu_specs(&c), Err(Error::Topology(_))));
        c.cores = 26; // No DMR 2X: VCPU ids 0..26
        let wide = Workload::NoDmr2x(Benchmark::Pmake);
        assert!(matches!(wide.vcpu_specs(&c), Err(Error::Topology(_))));
        c.cores = 24;
        assert_eq!(wide.vcpu_specs(&c).unwrap().len(), PRIVATE_HEAPS);
        let over = Workload::Overcommitted {
            bench: Benchmark::Oltp,
            reliable: u16::MAX,
            perf: 1,
        };
        assert!(matches!(over.vcpu_specs(&cfg()), Err(Error::Topology(_))));
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Workload::NoDmr2x(Benchmark::Apache).name(), "No DMR 2X");
        assert_eq!(
            Workload::Consolidated {
                bench: Benchmark::Apache,
                policy: MixedPolicy::MmmTp
            }
            .name(),
            "MMM-TP"
        );
    }

    #[test]
    fn scheduler_families_cover_every_workload() {
        assert_eq!(
            Workload::NoDmr2x(Benchmark::Apache).scheduler_name(),
            "static"
        );
        assert_eq!(
            Workload::ReunionDmr(Benchmark::Oltp).scheduler_name(),
            "static"
        );
        assert_eq!(
            Workload::Consolidated {
                bench: Benchmark::Oltp,
                policy: MixedPolicy::MmmIpc
            }
            .scheduler_name(),
            "gang"
        );
        assert_eq!(
            Workload::Overcommitted {
                bench: Benchmark::Oltp,
                reliable: 2,
                perf: 4
            }
            .scheduler_name(),
            "overcommit"
        );
        assert_eq!(
            Workload::SingleOsMixed(Benchmark::Apache).scheduler_name(),
            "single-os"
        );
    }
}
