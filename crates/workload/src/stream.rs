//! Per-VCPU micro-op stream generation.
//!
//! An [`OpStream`] turns a [`WorkloadProfile`] into an endless dynamic
//! instruction stream for one VCPU: instruction classes drawn from the
//! phase mix, data addresses drawn from power-law-reused footprints in
//! the VCPU's [`AddressLayout`] regions, instruction-fetch addresses
//! walked sequentially with power-law branch targets, and user/OS
//! phases alternating with geometric lengths.
//!
//! Streams are deterministic: the same `(seed, vm, vcpu)` triple
//! always produces the same op sequence, independent of any other
//! stream — which is what makes multi-configuration comparisons (DMR
//! vs MMM) run the *same work* in every configuration.

use mmm_types::sampler::{self, PowerLawSampler};
use mmm_types::{DetRng, PhysAddr, VcpuId, VmId};

use crate::layout::AddressLayout;
use crate::op::{MicroOp, OpClass, Privilege};

use crate::profile::{PhaseProfile, WorkloadProfile};

/// Flat spread used for stores into shared regions (appends/logs
/// rather than the read-hot head; see [`PhaseProfile::store_share_scale`]).
const STORE_SPREAD_SKEW: f64 = 1.05;

/// Precomputed power-law samplers for one phase's regions. Each is
/// table-driven (built once per distinct `(lines, skew)` pair via the
/// process-global cache in `mmm_types::sampler`) and, on every pair
/// the built-in profiles use, bit-equal to the per-draw `powf`
/// reference path it replaced.
#[derive(Clone, Debug)]
struct PhaseSamplers {
    hot: PowerLawSampler,
    private: PowerLawSampler,
    os: Option<PowerLawSampler>,
    shared: Option<PowerLawSampler>,
    os_store: Option<PowerLawSampler>,
    shared_store: Option<PowerLawSampler>,
    code: PowerLawSampler,
}

impl PhaseSamplers {
    /// The `(n, skew)` of each sampler, in field order; `n == 0` marks
    /// a region the phase lacks. The one list of the tables a phase
    /// uses: [`PhaseSamplers::new`] builds from it and
    /// [`StreamSamplers::new`] prebuilds it.
    fn params(p: &PhaseProfile) -> [(u64, f64); 7] {
        [
            (p.hot_lines, p.skew),
            (p.private_lines, p.skew),
            (p.os_lines, p.skew),
            (p.shared_lines, p.skew),
            (p.os_lines, STORE_SPREAD_SKEW),
            (p.shared_lines, STORE_SPREAD_SKEW),
            (p.code_lines, p.code_skew),
        ]
    }

    fn new(p: &PhaseProfile) -> Self {
        let [hot, private, os, shared, os_store, shared_store, code] = Self::params(p);
        let new = |(n, skew): (u64, f64)| PowerLawSampler::new(n, skew);
        let opt = |(n, skew): (u64, f64)| (n > 0).then(|| new((n, skew)));
        Self {
            hot: new(hot),
            private: new(private),
            os: opt(os),
            shared: opt(shared),
            os_store: opt(os_store),
            shared_store: opt(shared_store),
            code: new(code),
        }
    }
}

#[cfg(test)]
impl PhaseSamplers {
    /// Every sampler this phase holds.
    fn all(&self) -> impl Iterator<Item = &PowerLawSampler> {
        [&self.hot, &self.private, &self.code]
            .into_iter()
            .chain(self.os.iter())
            .chain(self.shared.iter())
            .chain(self.os_store.iter())
            .chain(self.shared_store.iter())
    }
}

/// All precomputed samplers for one stream, indexed `[user, os]`.
#[derive(Clone, Debug)]
struct StreamSamplers {
    phase: [PhaseSamplers; 2],
}

impl StreamSamplers {
    /// Builds the tables of both phases that the process still lacks
    /// on every host CPU (see [`sampler::build_tables`]), then takes
    /// each sampler's table from the cache.
    fn new(profile: &WorkloadProfile) -> Self {
        let [user, os] = [&profile.user, &profile.os].map(PhaseSamplers::params);
        sampler::build_tables(&[user, os].concat());
        Self {
            phase: [
                PhaseSamplers::new(&profile.user),
                PhaseSamplers::new(&profile.os),
            ],
        }
    }
}

/// Execution latency (cycles) of a long ALU op once issued.
const LONG_ALU_LATENCY: u8 = 6;
/// Execution latency of a serializing instruction itself.
const SERIALIZING_LATENCY: u8 = 4;

/// Endless generator of [`MicroOp`]s for one VCPU.
#[derive(Clone, Debug)]
pub struct OpStream {
    profile: WorkloadProfile,
    layout: AddressLayout,
    vm: VmId,
    vcpu: VcpuId,
    rng: DetRng,
    privilege: Privilege,
    /// Instructions remaining in the current phase.
    remaining: u64,
    /// Fetch byte cursor within the current privilege's code window.
    fetch_cursor: u64,
    /// Total ops generated (diagnostics).
    generated: u64,
    /// Precomputed table-driven samplers for both privilege phases.
    draws: StreamSamplers,
}

impl OpStream {
    /// Creates a stream for `vcpu` of `vm`, seeded deterministically.
    ///
    /// The initial phase is drawn from the steady-state instruction
    /// mix (user with probability `mean_user / (mean_user + mean_os)`),
    /// so a gang of VCPUs created together does not start
    /// phase-synchronized. Geometric phase lengths are memoryless, so
    /// a fresh draw is exactly the residual of an in-progress phase.
    pub fn new(profile: WorkloadProfile, vm: VmId, vcpu: VcpuId, seed: u64) -> Self {
        let mut rng = DetRng::new(
            seed,
            0x5747 ^ ((vm.index() as u64) << 32) ^ ((vcpu.index() as u64) << 16),
        );
        let p_user = profile.mean_user_insts as f64
            / (profile.mean_user_insts + profile.mean_os_insts) as f64;
        let (privilege, remaining) = if rng.chance(p_user) {
            (
                Privilege::User,
                rng.geometric(1.0 / profile.mean_user_insts as f64),
            )
        } else {
            (
                Privilege::Os,
                rng.geometric(1.0 / profile.mean_os_insts as f64),
            )
        };
        let draws = StreamSamplers::new(&profile);
        Self {
            profile,
            layout: AddressLayout::new(),
            vm,
            vcpu,
            rng,
            privilege,
            remaining,
            fetch_cursor: 0,
            generated: 0,
            draws,
        }
    }

    /// The VM this stream belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The VCPU this stream belongs to.
    pub fn vcpu(&self) -> VcpuId {
        self.vcpu
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Current privilege level (the level of the *next* op).
    pub fn privilege(&self) -> Privilege {
        self.privilege
    }

    /// Total ops generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    fn phase(&self) -> &PhaseProfile {
        match self.privilege {
            Privilege::User => &self.profile.user,
            Privilege::Os => &self.profile.os,
        }
    }

    /// Produces `n` consecutive ops through `sink`, identical to `n`
    /// calls of [`OpStream::next_op`].
    pub fn next_ops(&mut self, n: u64, mut sink: impl FnMut(MicroOp)) {
        for _ in 0..n {
            sink(self.next_op());
        }
    }

    /// Produces the next micro-op.
    pub fn next_op(&mut self) -> MicroOp {
        let mut enters_os = false;
        let mut exits_os = false;
        if self.remaining == 0 {
            match self.privilege {
                Privilege::User => {
                    self.privilege = Privilege::Os;
                    enters_os = true;
                    self.remaining = self.rng.geometric(1.0 / self.profile.mean_os_insts as f64);
                    // Kernel entry lands on the trap-handler hot path.
                    self.fetch_cursor = 0;
                }
                Privilege::Os => {
                    self.privilege = Privilege::User;
                    exits_os = true;
                    self.remaining = self
                        .rng
                        .geometric(1.0 / self.profile.mean_user_insts as f64);
                }
            }
        }
        self.remaining -= 1;
        self.generated += 1;

        let phase = *self.phase();
        let privilege = self.privilege;

        // Phase boundaries (trap entry / return-from-trap) are
        // architecturally serializing, as are the phase's own SIs.
        let class = if enters_os || exits_os || self.rng.chance(phase.si_rate) {
            OpClass::Serializing
        } else {
            let r = self.rng.unit();
            if r < phase.load_frac {
                OpClass::Load
            } else if r < phase.load_frac + phase.store_frac {
                OpClass::Store
            } else if r < phase.load_frac + phase.store_frac + phase.branch_frac {
                OpClass::Branch
            } else if r < phase.load_frac
                + phase.store_frac
                + phase.branch_frac
                + phase.long_alu_frac
            {
                OpClass::LongAlu
            } else {
                OpClass::Alu
            }
        };

        let data_addr = match class {
            OpClass::Load => Some(self.data_address(&phase, false)),
            OpClass::Store => Some(self.data_address(&phase, true)),
            _ => None,
        };

        let fetch_addr = self.fetch_address(&phase);

        let mispredicted = class == OpClass::Branch && self.rng.chance(phase.mispredict_rate);
        if class == OpClass::Branch && self.rng.chance(phase.jump_rate) {
            // Jump to a power-law-popular code line (hot loops
            // dominate branch targets).
            let code = &self.draws.phase[match self.privilege {
                Privilege::User => 0,
                Privilege::Os => 1,
            }]
            .code;
            self.fetch_cursor = code.sample(&mut self.rng) * 64 + self.rng.below(16) * 4;
        }

        let exec_latency = match class {
            OpClass::LongAlu => LONG_ALU_LATENCY,
            OpClass::Serializing => SERIALIZING_LATENCY,
            _ => 1,
        };

        MicroOp {
            class,
            privilege,
            data_addr,
            fetch_addr,
            mispredicted,
            exec_latency,
            enters_os,
            exits_os,
        }
    }

    /// Picks a data address. A `p_hot` fraction of accesses lands in
    /// the small private hot set (stack/top-of-heap — the
    /// short-reuse-distance traffic behind real L1 hit rates); the
    /// rest goes to the OS region, shared heap, or full private
    /// footprint, each with power-law reuse.
    fn data_address(&mut self, phase: &PhaseProfile, is_store: bool) -> PhysAddr {
        // Samplers are borrowed in place (they are `Arc`-backed, not
        // `Copy`); each call touches disjoint fields of `self`, so no
        // clone happens on this per-load/store path.
        let di = match self.privilege {
            Privilege::User => 0,
            Privilege::Os => 1,
        };
        if self.rng.chance(phase.p_hot) {
            let idx = self.draws.phase[di].hot.sample(&mut self.rng);
            let line = self.layout.private_line(self.vm, self.vcpu, idx);
            return PhysAddr(line.base().0 + self.rng.below(8) * 8);
        }
        // Warm set: uniform reuse over a region sized between the L2
        // and an L3 share, immediately above the hot set.
        if phase.warm_lines > 0 && self.rng.chance(phase.p_warm / (1.0 - phase.p_hot)) {
            let idx = phase.hot_lines + self.rng.below(phase.warm_lines);
            let line = self.layout.private_line(self.vm, self.vcpu, idx);
            return PhysAddr(line.base().0 + self.rng.below(8) * 8);
        }
        // Shared data is read-mostly: stores reach the shared regions
        // at a scaled-down rate, and when they do they spread flatly
        // over the footprint (appends, logs) instead of hammering the
        // read-hot head.
        let (p_os, p_shared) = if is_store {
            (
                phase.p_os_data * phase.store_share_scale,
                phase.p_shared * phase.store_share_scale,
            )
        } else {
            (phase.p_os_data, phase.p_shared)
        };
        let r = self.rng.unit();
        let os_draw = if is_store {
            &self.draws.phase[di].os_store
        } else {
            &self.draws.phase[di].os
        };
        let line = if let Some(pl) = os_draw.as_ref().filter(|_| r < p_os) {
            let (raw, n) = (pl.sample(&mut self.rng), pl.n());
            let idx = self.affine_index(raw, n, phase, is_store);
            self.layout.os_line(self.vm, idx)
        } else {
            let shared_draw = if is_store {
                &self.draws.phase[di].shared_store
            } else {
                &self.draws.phase[di].shared
            };
            if let Some(pl) = shared_draw.as_ref().filter(|_| r < p_os + p_shared) {
                let (raw, n) = (pl.sample(&mut self.rng), pl.n());
                let idx = self.affine_index(raw, n, phase, is_store);
                self.layout.shared_line(self.vm, idx)
            } else {
                let idx = self.draws.phase[di].private.sample(&mut self.rng);
                self.layout.private_line(self.vm, self.vcpu, idx)
            }
        };
        PhysAddr(line.base().0 + self.rng.below(8) * 8)
    }

    /// Applies CPU affinity to a shared-region index: reads mostly
    /// target a per-VCPU-rotated window of the region (per-CPU slabs,
    /// per-connection buffers); a `p_true_share` fraction — and all
    /// stores, which are drawn flat — use the global frame.
    fn affine_index(&mut self, idx: u64, n: u64, phase: &PhaseProfile, is_store: bool) -> u64 {
        if is_store || self.rng.chance(phase.p_true_share) {
            return idx;
        }
        let offset = (self.vcpu.index() as u64).wrapping_mul(n / 24 + 1);
        (idx + offset) % n
    }

    /// Computes the fetch address and advances the sequential cursor.
    /// User code occupies the first lines of the VM's code region; OS
    /// code sits immediately above it, so the two privilege levels
    /// have disjoint instruction footprints.
    fn fetch_address(&mut self, phase: &PhaseProfile) -> PhysAddr {
        let os_offset = match self.privilege {
            Privilege::User => 0,
            Privilege::Os => self.profile.user.code_lines,
        };
        let window_bytes = phase.code_lines * 64;
        // The cursor stays below the window except across a privilege
        // switch (the two phases have different window sizes), so the
        // common case needs no `%` — u64 division is the single most
        // expensive ALU op on this per-op path.
        let cursor = if self.fetch_cursor < window_bytes {
            self.fetch_cursor
        } else {
            self.fetch_cursor % window_bytes
        };
        let line_idx = os_offset + cursor / 64;
        let addr = PhysAddr(self.layout.code_line(self.vm, line_idx).base().0 + cursor % 64);
        // `cursor < window_bytes` and both are multiples of 4, so the
        // wrap is a single conditional subtract.
        let next = cursor + 4;
        self.fetch_cursor = if next >= window_bytes {
            next - window_bytes
        } else {
            next
        };
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use mmm_types::ids::PAGE_BYTES;
    use mmm_types::rng::{power_law_eval, PowerLaw};
    use mmm_types::sampler::PowerLawTable;

    fn stream(b: Benchmark) -> OpStream {
        OpStream::new(b.profile(), VmId(0), VcpuId(1), 42)
    }

    /// The `(n, skew)` pairs of [`profile_tables`]. mmm-types' sampler
    /// tests check the table build on the same list; update both when a
    /// profile changes.
    const PROFILE_PAIRS: [(u64, f64); 34] = [
        (128, 1.3),
        (128, 1.35),
        (128, 1.5),
        (256, 1.05),
        (256, 1.3),
        (256, 1.5),
        (512, 1.05),
        (512, 1.3),
        (512, 1.5),
        (1024, 2.2),
        (3072, 2.2),
        (4096, 1.9),
        (6144, 1.8),
        (7000, 1.5),
        (8000, 1.05),
        (8000, 1.3),
        (8000, 1.35),
        (8000, 1.5),
        (12000, 1.35),
        (12500, 1.35),
        (13000, 1.35),
        (16000, 1.05),
        (16000, 1.3),
        (24000, 1.05),
        (24000, 1.3),
        (24000, 1.5),
        (30000, 1.5),
        (48000, 1.05),
        (48000, 1.3),
        (48000, 1.35),
        (64000, 1.05),
        (64000, 1.35),
        (80000, 1.05),
        (80000, 1.35),
    ];

    /// Every distinct table the built-in profiles' samplers use,
    /// ordered by `(n, skew)`.
    fn profile_tables() -> Vec<PowerLawTable> {
        let mut tables: Vec<PowerLawTable> = Vec::new();
        for b in Benchmark::all().into_iter().chain([Benchmark::SpecLike]) {
            for phase in &StreamSamplers::new(&b.profile()).phase {
                for sampler in phase.all() {
                    let PowerLawSampler::Table(t) = sampler else {
                        panic!("{} builds a domain above the table-size guard", b.name());
                    };
                    if !tables
                        .iter()
                        .any(|u| (u.n(), u.skew()) == (t.n(), t.skew()))
                    {
                        tables.push(t.clone());
                    }
                }
            }
        }
        tables.sort_by(|a, b| (a.n(), a.skew()).partial_cmp(&(b.n(), b.skew())).unwrap());
        tables
    }

    #[test]
    fn profile_pairs_are_the_ones_the_sampler_tests_check() {
        let pairs: Vec<(u64, f64)> = profile_tables().iter().map(|t| (t.n(), t.skew())).collect();
        assert_eq!(pairs, PROFILE_PAIRS);
        // `StreamSamplers::new` prebuilds exactly these.
        let mut params: Vec<(u64, f64)> = Benchmark::all()
            .into_iter()
            .chain([Benchmark::SpecLike])
            .flat_map(|b| {
                let profile = b.profile();
                [profile.user, profile.os]
            })
            .flat_map(|phase| PhaseSamplers::params(&phase))
            .filter(|&(n, _)| n > 0)
            .collect();
        params.sort_by(|a, b| a.partial_cmp(b).unwrap());
        params.dedup();
        assert_eq!(params, PROFILE_PAIRS);
    }

    #[test]
    fn profile_tables_agree_with_power_law_eval_at_every_boundary() {
        const MAX_R: u64 = (1 << 53) - 1;
        for t in &profile_tables() {
            let (n, skew) = (t.n(), t.skew());
            let (a, inv) = PowerLaw::constants(n, skew);
            let eval = |r: u64| power_law_eval(n, a, inv, r as f64 / (1u64 << 53) as f64);
            let mut first = 0u64;
            for k in 1..n {
                if t.lookup(MAX_R) < k {
                    break;
                }
                // First raw draw the table maps to k or above.
                if t.lookup(first) < k {
                    let (mut lo, mut hi) = (first, MAX_R);
                    while lo + 1 < hi {
                        let m = lo + (hi - lo) / 2;
                        if t.lookup(m) >= k {
                            hi = m;
                        } else {
                            lo = m;
                        }
                    }
                    first = hi;
                }
                for r in [first - 1, first, (first + 1).min(MAX_R)] {
                    assert_eq!(
                        t.lookup(r),
                        eval(r),
                        "r={r} (k={k}) diverged for n={n} skew={skew}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = stream(Benchmark::Apache);
        let mut b = stream(Benchmark::Apache);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_vcpus_get_different_streams() {
        let mut a = OpStream::new(Benchmark::Oltp.profile(), VmId(0), VcpuId(0), 42);
        let mut b = OpStream::new(Benchmark::Oltp.profile(), VmId(0), VcpuId(1), 42);
        let same = (0..1000)
            .filter(|_| {
                let (x, y) = (a.next_op(), b.next_op());
                x.class == y.class && x.data_addr == y.data_addr
            })
            .count();
        assert!(same < 900, "streams too correlated: {same}");
    }

    #[test]
    fn mix_approximates_profile() {
        let mut s = stream(Benchmark::Oltp);
        let n = 200_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut user_ops = 0;
        for _ in 0..n {
            let op = s.next_op();
            if op.privilege == Privilege::User {
                user_ops += 1;
                match op.class {
                    OpClass::Load => loads += 1,
                    OpClass::Store => stores += 1,
                    _ => {}
                }
            }
        }
        let p = Benchmark::Oltp.profile();
        let lf = loads as f64 / user_ops as f64;
        let sf = stores as f64 / user_ops as f64;
        assert!((lf - p.user.load_frac).abs() < 0.02, "load frac {lf}");
        assert!((sf - p.user.store_frac).abs() < 0.02, "store frac {sf}");
    }

    #[test]
    fn phase_lengths_match_profile_means() {
        // Use a scaled-down profile so thousands of phases fit in a
        // fast test; the code path is identical for the real means.
        let mut p = Benchmark::Apache.profile();
        p.mean_user_insts = 800;
        p.mean_os_insts = 400;
        let mut s = OpStream::new(p.clone(), VmId(0), VcpuId(0), 42);
        let mut user_lens = Vec::new();
        let mut os_lens = Vec::new();
        let mut current = 0u64;
        for _ in 0..3_000_000 {
            let op = s.next_op();
            if op.enters_os {
                user_lens.push(current);
                current = 0;
            } else if op.exits_os {
                os_lens.push(current);
                current = 0;
            }
            current += 1;
        }
        assert!(user_lens.len() > 1000, "need many phases for a mean");
        let mu = user_lens.iter().sum::<u64>() as f64 / user_lens.len() as f64;
        let mo = os_lens.iter().sum::<u64>() as f64 / os_lens.len() as f64;
        assert!(
            (mu / p.mean_user_insts as f64 - 1.0).abs() < 0.10,
            "user phase mean {mu} vs {}",
            p.mean_user_insts
        );
        assert!(
            (mo / p.mean_os_insts as f64 - 1.0).abs() < 0.10,
            "os phase mean {mo} vs {}",
            p.mean_os_insts
        );
    }

    #[test]
    fn os_entry_and_exit_are_serializing_and_alternate() {
        let mut s = stream(Benchmark::Zeus);
        // The stream may start mid-OS-phase (randomized initial phase).
        let mut expecting_entry = s.privilege() == Privilege::User;
        let mut transitions = 0;
        for _ in 0..2_000_000 {
            let op = s.next_op();
            if op.enters_os {
                assert!(expecting_entry, "two OS entries without an exit");
                assert_eq!(op.class, OpClass::Serializing);
                assert_eq!(op.privilege, Privilege::Os);
                expecting_entry = false;
                transitions += 1;
            }
            if op.exits_os {
                assert!(!expecting_entry, "exit without entry");
                assert_eq!(op.class, OpClass::Serializing);
                assert_eq!(op.privilege, Privilege::User);
                expecting_entry = true;
                transitions += 1;
            }
        }
        assert!(transitions > 10, "Zeus must enter the OS frequently");
    }

    #[test]
    fn all_data_addresses_stay_inside_the_vm() {
        let layout = AddressLayout::new();
        let mut s = OpStream::new(Benchmark::Pgbench.profile(), VmId(3), VcpuId(2), 7);
        for _ in 0..100_000 {
            let op = s.next_op();
            if let Some(a) = op.data_addr {
                assert_eq!(layout.vm_of(a), Some(VmId(3)), "addr {a} escaped VM");
            }
            assert_eq!(layout.vm_of(op.fetch_addr), Some(VmId(3)));
        }
    }

    #[test]
    fn user_and_os_code_footprints_are_disjoint() {
        let mut s = stream(Benchmark::Oltp);
        let p = Benchmark::Oltp.profile();
        let layout = AddressLayout::new();
        let user_limit = layout.code_line(VmId(0), p.user.code_lines).base().0;
        for _ in 0..500_000 {
            let op = s.next_op();
            match op.privilege {
                Privilege::User => assert!(op.fetch_addr.0 < user_limit),
                Privilege::Os => assert!(op.fetch_addr.0 >= user_limit),
            }
        }
    }

    #[test]
    fn private_addresses_differ_between_vcpus() {
        let mut a = OpStream::new(Benchmark::Pmake.profile(), VmId(0), VcpuId(0), 9);
        let mut b = OpStream::new(Benchmark::Pmake.profile(), VmId(0), VcpuId(1), 9);
        // Private heaps start 256 MB into the VM span; pages there
        // must be strictly disjoint between VCPUs.
        let private_base = (256u64 << 20) / PAGE_BYTES;
        let collect = |s: &mut OpStream| {
            let mut pages = std::collections::HashSet::new();
            for _ in 0..50_000 {
                if let Some(addr) = s.next_op().data_addr {
                    if addr.page().0 >= private_base {
                        pages.insert(addr.page());
                    }
                }
            }
            pages
        };
        let pa = collect(&mut a);
        let pb = collect(&mut b);
        assert!(!pa.is_empty() && !pb.is_empty());
        assert_eq!(
            pa.intersection(&pb).count(),
            0,
            "private heaps must be disjoint between VCPUs"
        );
    }

    #[test]
    fn spec_like_is_almost_all_user() {
        let mut s = OpStream::new(Benchmark::SpecLike.profile(), VmId(0), VcpuId(0), 1);
        let os_ops = (0..1_000_000)
            .filter(|_| s.next_op().privilege == Privilege::Os)
            .count();
        assert!(os_ops < 30_000, "spec-like spent {os_ops} ops in OS");
    }
}
