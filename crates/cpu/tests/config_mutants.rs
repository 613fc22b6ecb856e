//! Mutation test for `SystemConfig::validate`: a mutated default
//! configuration is either refused with an `Err`, or it builds a
//! memory system, a core, a PAB and a pair channel without a panic.
//! Release builds abort on a panic, so a configuration that validates
//! but cannot be built would kill a whole campaign.
//!
//! Mutants come from a fixed-seed [`DetRng`], so a failure reproduces
//! from its mutant number.

use std::hint::black_box;

use mmm_cpu::{Core, Pab, PairChannel};
use mmm_mem::MemorySystem;
use mmm_types::{CoreId, DetRng, SystemConfig};

/// Sets one numeric field to a value (truncated to the field's type).
type Set = fn(&mut SystemConfig, u64);

/// Every numeric field of the configuration, with its width in bits.
const FIELDS: [(&str, u32, Set); 42] = [
    ("cores", 32, |c, v| c.cores = v as u32),
    ("core.pipeline_stages", 32, |c, v| {
        c.core.pipeline_stages = v as u32
    }),
    ("core.width", 32, |c, v| c.core.width = v as u32),
    ("core.window_entries", 32, |c, v| {
        c.core.window_entries = v as u32
    }),
    ("core.load_queue", 32, |c, v| c.core.load_queue = v as u32),
    ("core.store_queue", 32, |c, v| c.core.store_queue = v as u32),
    ("core.branch_mispredict_rate", 32, |c, v| {
        c.core.branch_mispredict_rate = v as f64
    }),
    ("core.mispredict_penalty", 32, |c, v| {
        c.core.mispredict_penalty = v as u32
    }),
    ("core.tlb_fill_latency", 32, |c, v| {
        c.core.tlb_fill_latency = v as u32
    }),
    ("core.tlb_entries", 32, |c, v| c.core.tlb_entries = v as u32),
    ("core.dependence_frac", 32, |c, v| {
        c.core.dependence_frac = v as f64
    }),
    ("mem.l1i.size_bytes", 64, |c, v| c.mem.l1i.size_bytes = v),
    ("mem.l1i.associativity", 32, |c, v| {
        c.mem.l1i.associativity = v as u32
    }),
    ("mem.l1d.size_bytes", 64, |c, v| c.mem.l1d.size_bytes = v),
    ("mem.l1d.associativity", 32, |c, v| {
        c.mem.l1d.associativity = v as u32
    }),
    ("mem.l2.size_bytes", 64, |c, v| c.mem.l2.size_bytes = v),
    ("mem.l2.associativity", 32, |c, v| {
        c.mem.l2.associativity = v as u32
    }),
    ("mem.l3.size_bytes", 64, |c, v| c.mem.l3.size_bytes = v),
    ("mem.l3.associativity", 32, |c, v| {
        c.mem.l3.associativity = v as u32
    }),
    ("mem.l1_latency", 32, |c, v| c.mem.l1_latency = v as u32),
    ("mem.l2_latency", 32, |c, v| c.mem.l2_latency = v as u32),
    ("mem.l3_latency", 32, |c, v| c.mem.l3_latency = v as u32),
    ("mem.interconnect_latency", 32, |c, v| {
        c.mem.interconnect_latency = v as u32
    }),
    ("mem.dram_latency", 32, |c, v| c.mem.dram_latency = v as u32),
    ("mem.dram_bytes_per_cycle", 32, |c, v| {
        c.mem.dram_bytes_per_cycle = v as u32
    }),
    ("mem.store_buffer_entries", 32, |c, v| {
        c.mem.store_buffer_entries = v as u32
    }),
    ("mem.l3_banks", 32, |c, v| c.mem.l3_banks = v as u32),
    ("mem.bank_occupancy_cycles", 32, |c, v| {
        c.mem.bank_occupancy_cycles = v as u32
    }),
    ("reunion.fingerprint_latency", 32, |c, v| {
        c.reunion.fingerprint_latency = v as u32
    }),
    ("reunion.fingerprint_interval", 32, |c, v| {
        c.reunion.fingerprint_interval = v as u32
    }),
    ("reunion.check_stages", 32, |c, v| {
        c.reunion.check_stages = v as u32
    }),
    ("reunion.sync_latency", 32, |c, v| {
        c.reunion.sync_latency = v as u32
    }),
    ("reunion.recovery_penalty", 32, |c, v| {
        c.reunion.recovery_penalty = v as u32
    }),
    ("pab.entries", 32, |c, v| c.pab.entries = v as u32),
    ("pab.associativity", 32, |c, v| {
        c.pab.associativity = v as u32
    }),
    ("pab.serial_latency", 32, |c, v| {
        c.pab.serial_latency = v as u32
    }),
    ("virt.vcpu_state_bytes", 32, |c, v| {
        c.virt.vcpu_state_bytes = v as u32
    }),
    ("virt.timeslice_cycles", 64, |c, v| {
        c.virt.timeslice_cycles = v
    }),
    ("virt.flush_lines_per_cycle", 32, |c, v| {
        c.virt.flush_lines_per_cycle = v as u32
    }),
    ("virt.transition_machine_cycles", 32, |c, v| {
        c.virt.transition_machine_cycles = v as u32
    }),
    ("virt.state_op_interval_cycles", 32, |c, v| {
        c.virt.state_op_interval_cycles = v as u32
    }),
    ("pab.lookup_and_consistency", 1, |c, v| {
        c.pab.lookup = [Default::default(), mmm_types::config::PabLookup::Serial][v as usize % 2];
        c.consistency = [Default::default(), mmm_types::config::Consistency::Tso][v as usize % 2];
    }),
];

#[test]
fn mutated_configs_are_refused_or_build_without_a_panic() {
    let mut rng = DetRng::new(0xC0F1, 0);
    let (mut refused, mut built) = (0, 0);
    for mutant in 0..1000 {
        let mut cfg = SystemConfig::default();
        let mut changed = Vec::new();
        for _ in 0..rng.range(1, 4) {
            let (name, bits, set) = FIELDS[rng.below(FIELDS.len() as u64) as usize];
            let value = match rng.below(4) {
                0 => 0,
                1 => 1,
                2 => u32::MAX as u64,
                _ => 1 << rng.below(bits as u64),
            };
            set(&mut cfg, value);
            changed.push(format!("{name}={value}"));
        }
        let ctx = format!("mutant {mutant}: {}", changed.join(" "));
        if cfg.validate().is_err() {
            refused += 1;
            continue;
        }
        built += 1;
        let mem = MemorySystem::new(&cfg);
        let core = Core::new(CoreId(cfg.cores as u16 - 1), &cfg);
        let pab = Pab::new(cfg.pab);
        let channel = PairChannel::for_window(cfg.reunion, 0, cfg.core.window_entries);
        assert!(
            channel.ring_records() > 2 * cfg.core.window_entries as usize,
            "{ctx}"
        );
        black_box((&mem, &core, &pab, &channel));
    }
    assert!(
        refused > 100 && built > 100,
        "{refused} refused, {built} built"
    );
}
