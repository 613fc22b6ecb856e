//! Configuration of the simulated machine.
//!
//! Defaults reproduce the target multicore of the paper (§3.1, §4.1).
//! Every experiment harness starts from [`SystemConfig::default`] and
//! overrides only what the experiment varies, so the table in
//! `DESIGN.md` maps one-to-one onto fields here.

use crate::error::{Error, Result};
use crate::ids::LINE_BYTES;

/// Most ways a cache set (or a PAB set) may have: a set's recency
/// word lists its ways in 4-bit slots.
pub const MAX_ASSOCIATIVITY: u32 = 16;

/// Most cores a machine may have: the directory keeps each line's
/// sharers as a 32-bit mask.
pub const MAX_CORES: u32 = 32;

/// Geometry of one set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
}

impl CacheGeometry {
    /// Creates a geometry and validates it (see [`CacheGeometry::validate`]).
    pub fn new(size_bytes: u64, associativity: u32) -> Result<Self> {
        let g = Self {
            size_bytes,
            associativity,
        };
        g.validate()?;
        Ok(g)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.associativity as u64)
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }

    /// Checks that the geometry is non-degenerate, power-of-two
    /// indexed, and at most [`MAX_ASSOCIATIVITY`] ways.
    pub fn validate(&self) -> Result<()> {
        if self.associativity == 0 || self.associativity > MAX_ASSOCIATIVITY {
            return Err(Error::config(format!(
                "cache associativity must be 1 to {MAX_ASSOCIATIVITY}"
            )));
        }
        if self.size_bytes == 0
            || !self
                .size_bytes
                .is_multiple_of(LINE_BYTES * self.associativity as u64)
        {
            return Err(Error::config(
                "cache size must be a nonzero multiple of line size times associativity",
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(Error::config("cache set count must be a power of two"));
        }
        Ok(())
    }
}

/// Core pipeline parameters (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreConfig {
    /// Baseline pipeline depth in stages (8). Reunion adds one more
    /// (the Check stage), configured in [`ReunionConfig`].
    pub pipeline_stages: u32,
    /// Instructions fetched/issued/committed per cycle (2).
    pub width: u32,
    /// Instruction-window (reorder-buffer) entries (128).
    pub window_entries: u32,
    /// Load-queue entries (32).
    pub load_queue: u32,
    /// Store-queue entries (32).
    pub store_queue: u32,
    /// Branch misprediction rate applied to conditional branches.
    pub branch_mispredict_rate: f64,
    /// Pipeline refill penalty after a misprediction or squash, cycles.
    pub mispredict_penalty: u32,
    /// Latency of a hardware TLB fill (cycles). The paper models a
    /// hardware-filled TLB "in order to not overstate the penalty of
    /// DMR".
    pub tlb_fill_latency: u32,
    /// Data-TLB entries.
    pub tlb_entries: u32,
    /// Fraction of instructions whose issue depends on the youngest
    /// older instruction (a one-deep dependence-chain model bounding
    /// extractable ILP).
    pub dependence_frac: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            pipeline_stages: 8,
            width: 2,
            window_entries: 128,
            load_queue: 32,
            store_queue: 32,
            branch_mispredict_rate: 0.03,
            mispredict_penalty: 10,
            tlb_fill_latency: 30,
            tlb_entries: 512,
            dependence_frac: 0.35,
        }
    }
}

/// Memory consistency model executed by the cores.
///
/// The paper's re-implementation of Reunion uses sequential consistency
/// (stores occupy the instruction window until written to the cache),
/// which it identifies as the largest contributor to Reunion overhead;
/// the original Reunion proposal used TSO with a store buffer. Both are
/// provided so the ablation in `EXPERIMENTS.md` can quantify the gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Sequential consistency: a store holds its window entry until the
    /// write completes in the L2.
    #[default]
    Sc,
    /// Total store order: stores drain through a store buffer after
    /// commit, releasing window entries immediately.
    Tso,
}

/// Memory-hierarchy parameters (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemConfig {
    /// Split L1 instruction cache (16 KB, 2-way, write-through).
    pub l1i: CacheGeometry,
    /// Split L1 data cache (16 KB, 2-way, write-through).
    pub l1d: CacheGeometry,
    /// Private unified L2 (512 KB, 4-way).
    pub l2: CacheGeometry,
    /// Shared L3 (8 MB, 16-way), exclusive with the private L2s.
    pub l3: CacheGeometry,
    /// L1 load-to-use latency, cycles.
    pub l1_latency: u32,
    /// Private L2 hit latency, cycles.
    pub l2_latency: u32,
    /// Shared L3 load-to-use latency, cycles (55).
    pub l3_latency: u32,
    /// Average one-way interconnect hop latency, cycles (10).
    pub interconnect_latency: u32,
    /// Main-memory load-to-use latency, cycles (350).
    pub dram_latency: u32,
    /// Off-chip bandwidth in bytes per core cycle (40 GB/s at 3 GHz
    /// ≈ 13.9 B/cycle; we round to 13).
    pub dram_bytes_per_cycle: u32,
    /// TSO store-buffer entries per core (used only under
    /// [`Consistency::Tso`]).
    pub store_buffer_entries: u32,
    /// Number of L3/directory banks for the optional contention model.
    pub l3_banks: u32,
    /// Bank service occupancy per request, cycles. `0` (the default)
    /// disables contention modelling entirely — every request sees
    /// only the analytic hop latencies. Nonzero values make each
    /// L2-miss serialize on its line's bank, so a 16-VCPU machine
    /// feels roughly twice the queueing of an 8-VCPU one (the paper's
    /// §5.1 shared-resource pressure; see the `--noc` ablation).
    pub bank_occupancy_cycles: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1i: CacheGeometry {
                size_bytes: 16 * 1024,
                associativity: 2,
            },
            l1d: CacheGeometry {
                size_bytes: 16 * 1024,
                associativity: 2,
            },
            l2: CacheGeometry {
                size_bytes: 512 * 1024,
                associativity: 4,
            },
            l3: CacheGeometry {
                size_bytes: 8 * 1024 * 1024,
                associativity: 16,
            },
            l1_latency: 2,
            l2_latency: 14,
            l3_latency: 55,
            interconnect_latency: 10,
            dram_latency: 350,
            dram_bytes_per_cycle: 13,
            store_buffer_entries: 16,
            l3_banks: 8,
            bank_occupancy_cycles: 0,
        }
    }
}

/// Reunion DMR parameters (paper §3.2, §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReunionConfig {
    /// One-way latency of the dedicated fingerprint network (10 cycles).
    pub fingerprint_latency: u32,
    /// Instructions summarized per fingerprint. A single fingerprint
    /// "can capture all outputs, branch targets, and store addresses
    /// and values for multiple instructions".
    pub fingerprint_interval: u32,
    /// Extra in-order pipeline stages added by Check (1: the pipeline
    /// is 9 stages when using Reunion, 8 otherwise).
    pub check_stages: u32,
    /// Cycles for a vocal→mute synchronizing ("sync request") round
    /// trip, sent as a direct message rather than via the L2 directory.
    pub sync_latency: u32,
    /// Pipeline-flush + re-execution penalty on a fingerprint mismatch
    /// (input incoherence or detected fault), cycles.
    pub recovery_penalty: u32,
}

impl Default for ReunionConfig {
    fn default() -> Self {
        Self {
            fingerprint_latency: 10,
            fingerprint_interval: 8,
            check_stages: 1,
            sync_latency: 20,
            recovery_penalty: 100,
        }
    }
}

/// How the Protection Assistance Buffer is consulted relative to the
/// L2 access for a store write-through (paper §3.4.1, §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PabLookup {
    /// Examine the PAB in parallel with the L2 tags; no added latency.
    #[default]
    Parallel,
    /// Look up the PAB first and only then access the L2. Adds the PAB
    /// latency to every store write-through but simplifies the L2
    /// controller.
    Serial,
}

/// Protection Assistance Buffer parameters (paper §3.4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PabConfig {
    /// Number of PAB entries; each holds one 64-byte line of PAT bits,
    /// i.e. covers 512 pages = 4 MB. 128 entries map 512 MB.
    pub entries: u32,
    /// PAB associativity (organized "much like a cache").
    pub associativity: u32,
    /// Serial-lookup latency, cycles (2 in the paper's experiment).
    pub serial_latency: u32,
    /// Lookup organization (parallel by default).
    pub lookup: PabLookup,
}

impl Default for PabConfig {
    fn default() -> Self {
        Self {
            entries: 128,
            associativity: 8,
            serial_latency: 2,
            lookup: PabLookup::Parallel,
        }
    }
}

/// Virtualization and mode-transition parameters (paper §3.4.3, §3.5, §4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VirtConfig {
    /// Architected VCPU state size in bytes (≈2.3 KB for SPARC).
    pub vcpu_state_bytes: u32,
    /// Gang-scheduling timeslice for consolidated guests, cycles
    /// (1 ms = 3 M cycles at 3 GHz).
    pub timeslice_cycles: u64,
    /// Cache lines flushed or written back per cycle when the mute
    /// drains incoherent lines on Leave-DMR (pessimistically 1).
    pub flush_lines_per_cycle: u32,
    /// Fixed cost of the hardware mode-transition state machine itself
    /// (synchronizing the pair, walking its steps), cycles.
    pub transition_machine_cycles: u32,
    /// Issue interval between successive VCPU-state line transfers
    /// during a mode transition. The state machine walks the register
    /// file in order but keeps a short pipeline of line transfers in
    /// flight.
    pub state_op_interval_cycles: u32,
}

impl Default for VirtConfig {
    fn default() -> Self {
        Self {
            vcpu_state_bytes: 2304,
            timeslice_cycles: 3_000_000,
            flush_lines_per_cycle: 1,
            transition_machine_cycles: 100,
            state_op_interval_cycles: 8,
        }
    }
}

/// Full machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of physical cores (16).
    pub cores: u32,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Memory consistency model.
    pub consistency: Consistency,
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Reunion DMR parameters.
    pub reunion: ReunionConfig,
    /// Protection Assistance Buffer parameters.
    pub pab: PabConfig,
    /// Virtualization and mode-transition parameters.
    pub virt: VirtConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cores: 16,
            core: CoreConfig::default(),
            consistency: Consistency::Sc,
            mem: MemConfig::default(),
            reunion: ReunionConfig::default(),
            pab: PabConfig::default(),
            virt: VirtConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Validates the whole configuration; returns the first problem
    /// found.
    pub fn validate(&self) -> Result<()> {
        if self.cores == 0 || !self.cores.is_multiple_of(2) {
            return Err(Error::config(
                "core count must be a nonzero multiple of two (DMR pairs)",
            ));
        }
        if self.cores > MAX_CORES {
            return Err(Error::config(format!(
                "core count must be at most {MAX_CORES} (directory sharer mask)"
            )));
        }
        self.mem.l1i.validate()?;
        self.mem.l1d.validate()?;
        self.mem.l2.validate()?;
        self.mem.l3.validate()?;
        if self.core.width == 0 || self.core.window_entries == 0 {
            return Err(Error::config("core width and window must be nonzero"));
        }
        if self.core.load_queue == 0 || self.core.store_queue == 0 {
            return Err(Error::config("load/store queues must be nonzero"));
        }
        if !(0.0..=1.0).contains(&self.core.branch_mispredict_rate) {
            return Err(Error::config("mispredict rate must be in [0,1]"));
        }
        if !(0.0..=1.0).contains(&self.core.dependence_frac) {
            return Err(Error::config("dependence fraction must be in [0,1]"));
        }
        if self.reunion.fingerprint_interval == 0 {
            return Err(Error::config("fingerprint interval must be nonzero"));
        }
        if self.pab.entries == 0 || self.pab.associativity == 0 {
            return Err(Error::config("PAB geometry must be nonzero"));
        }
        if self.pab.associativity > MAX_ASSOCIATIVITY {
            return Err(Error::config(format!(
                "PAB associativity must be at most {MAX_ASSOCIATIVITY}"
            )));
        }
        if !self.pab.entries.is_multiple_of(self.pab.associativity)
            || !(self.pab.entries / self.pab.associativity).is_power_of_two()
        {
            return Err(Error::config("PAB set count must be a power of two"));
        }
        if self.virt.flush_lines_per_cycle == 0 {
            return Err(Error::config("flush rate must be nonzero"));
        }
        if self.mem.l3_banks == 0 || !self.mem.l3_banks.is_power_of_two() {
            return Err(Error::config("L3 bank count must be a power of two"));
        }
        Ok(())
    }

    /// Number of static DMR pairs (half the core count).
    pub fn pairs(&self) -> u32 {
        self.cores / 2
    }

    /// Physical memory mapped by one PAB entry, in bytes: one 64-byte
    /// line of PAT bits covers 512 pages of 8 KB = 4 MB.
    pub fn pab_reach_bytes(&self) -> u64 {
        self.pab.entries as u64 * 64 * 8 * crate::ids::PAGE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let c = SystemConfig::default();
        c.validate().expect("default config must validate");
        assert_eq!(c.cores, 16);
        assert_eq!(c.pairs(), 8);
        assert_eq!(c.core.window_entries, 128);
        assert_eq!(c.core.width, 2);
        assert_eq!(c.mem.l3_latency, 55);
        assert_eq!(c.mem.dram_latency, 350);
        assert_eq!(c.reunion.fingerprint_latency, 10);
        // 128 entries x 64B x 8 bits x 8KB pages = 512 MB reach (paper §3.4.1).
        assert_eq!(c.pab_reach_bytes(), 512 * 1024 * 1024);
    }

    #[test]
    fn cache_geometry_sets_and_lines() {
        let g = CacheGeometry::new(16 * 1024, 2).unwrap();
        assert_eq!(g.sets(), 128);
        assert_eq!(g.lines(), 256);
        let l3 = CacheGeometry::new(8 * 1024 * 1024, 16).unwrap();
        assert_eq!(l3.sets(), 8192);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(CacheGeometry::new(0, 2).is_err());
        assert!(CacheGeometry::new(16 * 1024, 0).is_err());
        // 3 sets -> not a power of two.
        assert!(CacheGeometry::new(3 * 64 * 2, 2).is_err());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn odd_core_count_is_rejected() {
        let mut c = SystemConfig::default();
        c.cores = 15;
        assert!(c.validate().is_err());
        c.cores = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn core_count_is_capped_by_the_sharer_mask() {
        let mut c = SystemConfig::default();
        c.cores = MAX_CORES;
        assert!(c.validate().is_ok());
        c.cores = MAX_CORES + 2;
        assert!(c.validate().is_err());
        c.cores = 40;
        assert!(c.validate().is_err());
    }

    #[test]
    fn associativity_above_sixteen_is_rejected_at_every_level() {
        assert!(CacheGeometry::new(16 * 64, MAX_ASSOCIATIVITY).is_ok());
        assert!(CacheGeometry::new(32 * 64, 32).is_err());
        let levels: [fn(&mut MemConfig) -> &mut CacheGeometry; 4] =
            [|m| &mut m.l1i, |m| &mut m.l1d, |m| &mut m.l2, |m| &mut m.l3];
        let too_wide = |c: &SystemConfig| matches!(c.validate(), Err(Error::Config(m)) if m.contains("associativity"));
        for level in levels {
            let mut c = SystemConfig::default();
            // Fully associative: one set, a power of two, so only the
            // way cap can reject it.
            let geom = level(&mut c.mem);
            geom.associativity = geom.lines() as u32;
            assert!(too_wide(&c), "{:?}", c.mem);
            let geom = level(&mut c.mem);
            geom.associativity = MAX_ASSOCIATIVITY;
            assert!(c.validate().is_ok(), "{:?}", c.mem);
        }
        let mut c = SystemConfig::default();
        c.pab.associativity = c.pab.entries;
        assert!(too_wide(&c));
        c.pab.associativity = MAX_ASSOCIATIVITY;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn mispredict_rate_bounds_checked() {
        let mut c = SystemConfig::default();
        c.core.branch_mispredict_rate = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn pab_geometry_checked() {
        let mut c = SystemConfig::default();
        c.pab.entries = 96; // 96/8 = 12 sets, not a power of two
        assert!(c.validate().is_err());
    }
}
