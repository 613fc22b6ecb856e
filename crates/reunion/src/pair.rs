//! Coupling two cores into a logical DMR pair.
//!
//! [`DmrPair::couple`] wires a vocal and a mute core around a shared
//! [`PairChannel`]: both receive one side of an [`ExecContext::fork`]
//! (the same deterministic op sequence, generated once and replayed
//! through the fork's shared buffer), the mute is switched to
//! incoherent memory requests, and both get a commit gate backed by
//! the channel.
//!
//! [`DmrPair::decouple`] tears the pair down and returns the vocal's
//! context — the architecturally authoritative one.
//!
//! The pair is agnostic of *which* cores are joined; MMM-TP re-pairs
//! cores dynamically (paper §3.5).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mmm_cpu::{Core, ExecContext, PairGate};
use mmm_mem::MemorySystem;
use mmm_trace::{Event, Forensics, ProfPhase, Profiler, Tracer};
use mmm_types::config::ReunionConfig;
use mmm_types::{CoreId, Cycle};

use crate::channel::{PairChannel, PairStats, Side};

/// A live logical processing pair.
pub struct DmrPair {
    vocal: CoreId,
    mute: CoreId,
    channel: Rc<RefCell<PairChannel>>,
    /// Mirror of the channel's service flag: set when a heal or
    /// mismatch is queued, cleared by [`DmrPair::service`].
    dirty: Rc<Cell<bool>>,
    tracer: Tracer,
    /// Self-profiler handle; one branch per service call when off.
    profiler: Profiler,
    /// Fault-forensics handle; mismatches land in the vocal core's
    /// black-box ring. One branch per service call when off.
    forensics: Forensics,
}

impl DmrPair {
    /// Couples `vocal` and `mute` to redundantly execute `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if either core is busy.
    pub fn couple(
        vocal: &mut Core,
        mute: &mut Core,
        mut ctx: ExecContext,
        cfg: &ReunionConfig,
    ) -> DmrPair {
        let channel = Rc::new(RefCell::new(PairChannel::new(*cfg, ctx.seq())));
        let mute_ctx = ctx.fork();
        vocal.set_context(ctx);
        vocal.set_coherent(true);
        vocal.set_gate(Some(PairGate::new(Rc::clone(&channel), Side::Vocal)));
        mute.set_context(mute_ctx);
        mute.set_coherent(false);
        mute.set_gate(Some(PairGate::new(Rc::clone(&channel), Side::Mute)));
        let dirty = channel.borrow().service_flag();
        DmrPair {
            vocal: vocal.id(),
            mute: mute.id(),
            channel,
            dirty,
            tracer: Tracer::off(),
            profiler: Profiler::off(),
            forensics: Forensics::off(),
        }
    }

    /// Installs a tracer handle: subsequent fingerprint mismatches are
    /// emitted as [`Event::CheckMismatch`] records.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a self-profiler handle so pair service attributes its
    /// host cost to [`ProfPhase::Pair`]. Purely observational.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Installs a fault-forensics handle: serviced fingerprint
    /// mismatches are stamped into the vocal core's black-box ring.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        self.forensics = forensics;
    }

    /// The vocal core's id.
    pub fn vocal(&self) -> CoreId {
        self.vocal
    }

    /// The mute core's id.
    pub fn mute(&self) -> CoreId {
        self.mute
    }

    /// Tears the pair down, returning the vocal's (authoritative)
    /// context. Both cores are squashed, un-gated, and the mute is
    /// restored to coherent operation.
    ///
    /// # Panics
    ///
    /// Panics if the supplied cores are not this pair's cores.
    pub fn decouple(self, vocal: &mut Core, mute: &mut Core, now: Cycle) -> ExecContext {
        assert_eq!(vocal.id(), self.vocal, "wrong vocal core");
        assert_eq!(mute.id(), self.mute, "wrong mute core");
        let ctx = vocal.take_context(now).expect("vocal holds the context");
        let _ = mute.take_context(now);
        vocal.set_gate(None);
        mute.set_gate(None);
        mute.set_coherent(true);
        ctx
    }

    /// Whether the channel has queued heals or mismatches for
    /// [`DmrPair::service`] — the pair's service deadline, as seen by
    /// the system's event wheel. Channel work is only ever queued by
    /// core activity (gate publishes and releases during
    /// `Core::tick`), so a pair whose cores are asleep can be skipped
    /// over without polling this: the flag cannot rise while no core
    /// runs, and a due service always lands on the same cycle as the
    /// core activity that queued it.
    pub fn needs_service(&self) -> bool {
        self.dirty.get()
    }

    /// Services pending recoveries: invalidates the mute's stale lines
    /// so re-execution refetches coherent data. Call once per
    /// simulation cycle (cheap when idle).
    ///
    /// Returns the detection cycles of any *injected-fault* mismatches
    /// drained this call (empty on the fast path — an empty `Vec` does
    /// not allocate), so the caller can attribute detections back to
    /// their injection campaign.
    pub fn service(&self, mem: &mut MemorySystem) -> Vec<Cycle> {
        if !self.dirty.get() {
            return Vec::new();
        }
        let _prof = self.profiler.enter(ProfPhase::Pair);
        self.dirty.set(false);
        let (heals, mismatches) = self.channel.borrow_mut().drain_service();
        for line in heals {
            mem.heal_line(self.mute, line);
        }
        let mut fault_detects = Vec::new();
        for (at, cause) in mismatches {
            self.tracer.emit(at, || Event::CheckMismatch {
                vocal: self.vocal,
                mute: self.mute,
                cause,
            });
            self.forensics.note(at, || Event::CheckMismatch {
                vocal: self.vocal,
                mute: self.mute,
                cause,
            });
            if cause == "fault" {
                fault_detects.push(at);
            }
        }
        fault_detects
    }

    /// Arms a transient-fault injection on this pair's next compared
    /// instruction. Returns whether this call newly armed the fault
    /// (see [`PairChannel::inject_fault`]).
    pub fn inject_fault(&self) -> bool {
        self.channel.borrow_mut().inject_fault()
    }

    /// Channel counters (cloned out of the shared channel).
    pub fn stats(&self) -> PairStats {
        self.channel.borrow().stats().clone()
    }

    /// Resets channel counters (after warm-up).
    pub fn reset_stats(&self) {
        self.channel.borrow_mut().reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::{SystemConfig, VcpuId, VmId};
    use mmm_workload::{Benchmark, OpStream};

    fn setup(_seed: u64) -> (Core, Core, Core, MemorySystem, SystemConfig) {
        let cfg = SystemConfig::default();
        let mem = MemorySystem::new(&cfg);
        (
            Core::new(CoreId(0), &cfg),
            Core::new(CoreId(1), &cfg),
            Core::new(CoreId(2), &cfg),
            mem,
            cfg,
        )
    }

    fn ctx(b: Benchmark, vcpu: u16, seed: u64) -> ExecContext {
        ExecContext::new(OpStream::new(b.profile(), VmId(0), VcpuId(vcpu), seed))
    }

    fn run_pair(
        vocal: &mut Core,
        mute: &mut Core,
        pair: &DmrPair,
        mem: &mut MemorySystem,
        from: Cycle,
        to: Cycle,
    ) {
        for now in from..to {
            vocal.tick(now, mem);
            mute.tick(now, mem);
            pair.service(mem);
        }
    }

    #[test]
    fn pair_executes_redundantly_and_commits() {
        let (mut vocal, mut mute, _solo, mut mem, cfg) = setup(1);
        let pair = DmrPair::couple(
            &mut vocal,
            &mut mute,
            ctx(Benchmark::Pmake, 0, 1),
            &cfg.reunion,
        );
        run_pair(&mut vocal, &mut mute, &pair, &mut mem, 0, 100_000);
        let v = vocal.stats().commits();
        let m = mute.stats().commits();
        assert!(v > 5_000, "vocal commits: {v}");
        // Loose lockstep: both commit the same stream, within a window
        // of slack.
        assert!((v as i64 - m as i64).unsigned_abs() <= 256, "v={v} m={m}");
        assert!(pair.stats().ops_compared > 5_000);
        // Every commit of a coupled core passed the Check stage.
        assert_eq!(vocal.stats().commits_unprotected, 0);
        assert_eq!(mute.stats().commits_unprotected, 0);
    }

    #[test]
    fn dmr_is_slower_than_solo_execution() {
        let (mut vocal, mut mute, mut solo, mut mem, cfg) = setup(2);
        // Same benchmark, different VCPUs so footprints do not collide.
        let pair = DmrPair::couple(
            &mut vocal,
            &mut mute,
            ctx(Benchmark::Oltp, 0, 2),
            &cfg.reunion,
        );
        solo.set_context(ctx(Benchmark::Oltp, 1, 2));
        for now in 0..150_000 {
            vocal.tick(now, &mut mem);
            mute.tick(now, &mut mem);
            solo.tick(now, &mut mem);
            pair.service(&mut mem);
        }
        let dmr_ipc = vocal.stats().commits() as f64 / 150_000.0;
        let solo_ipc = solo.stats().commits() as f64 / 150_000.0;
        assert!(
            dmr_ipc < solo_ipc,
            "DMR must cost IPC: {dmr_ipc:.3} !< {solo_ipc:.3}"
        );
        assert!(vocal.stats().check_wait_cycles > 0);
    }

    #[test]
    fn injected_fault_is_detected_and_recovered() {
        let (mut vocal, mut mute, _solo, mut mem, cfg) = setup(3);
        let pair = DmrPair::couple(
            &mut vocal,
            &mut mute,
            ctx(Benchmark::Pmake, 0, 3),
            &cfg.reunion,
        );
        run_pair(&mut vocal, &mut mute, &pair, &mut mem, 0, 20_000);
        pair.inject_fault();
        run_pair(&mut vocal, &mut mute, &pair, &mut mem, 20_000, 60_000);
        assert_eq!(pair.stats().faults_detected, 1);
        assert!(pair.stats().recovery_cycles > 0);
        // Execution continues past the recovery.
        let commits = vocal.stats().commits();
        run_pair(&mut vocal, &mut mute, &pair, &mut mem, 60_000, 80_000);
        assert!(vocal.stats().commits() > commits);
    }

    #[test]
    fn input_incoherence_arises_from_foreign_writes() {
        // Two pairs of the same VM share OS/shared regions: one pair's
        // vocal writes lines the other pair's mute has cached stale.
        let cfg = SystemConfig::default();
        let mut mem = MemorySystem::new(&cfg);
        let mut v0 = Core::new(CoreId(0), &cfg);
        let mut m0 = Core::new(CoreId(1), &cfg);
        let mut v1 = Core::new(CoreId(2), &cfg);
        let mut m1 = Core::new(CoreId(3), &cfg);
        // Zeus: OS-heavy, strongly shared.
        let p0 = DmrPair::couple(&mut v0, &mut m0, ctx(Benchmark::Zeus, 0, 4), &cfg.reunion);
        let p1 = DmrPair::couple(&mut v1, &mut m1, ctx(Benchmark::Zeus, 1, 4), &cfg.reunion);
        for now in 0..400_000 {
            v0.tick(now, &mut mem);
            m0.tick(now, &mut mem);
            v1.tick(now, &mut mem);
            m1.tick(now, &mut mem);
            p0.service(&mut mem);
            p1.service(&mut mem);
        }
        let total_incoherence = p0.stats().input_incoherence + p1.stats().input_incoherence;
        assert!(
            total_incoherence > 0,
            "sharing workloads must exhibit input incoherence"
        );
        // And recovery must have healed: both pairs still commit.
        assert!(v0.stats().commits() > 1_000);
        assert!(v1.stats().commits() > 1_000);
    }

    #[test]
    fn decouple_returns_vocal_context_and_frees_cores() {
        let (mut vocal, mut mute, _solo, mut mem, cfg) = setup(5);
        let pair = DmrPair::couple(
            &mut vocal,
            &mut mute,
            ctx(Benchmark::Pmake, 0, 5),
            &cfg.reunion,
        );
        run_pair(&mut vocal, &mut mute, &pair, &mut mem, 0, 50_000);
        let commits = vocal.stats().commits();
        assert_eq!(vocal.stats().commits_unprotected, 0);
        let ctx = pair.decouple(&mut vocal, &mut mute, 50_000);
        assert_eq!(ctx.commits(), commits);
        assert_eq!(ctx.unprotected_commits, 0);
        assert!(!vocal.is_busy() && !mute.is_busy());
        assert!(mute.coherent(), "mute rejoins the coherent world");
        assert!(!vocal.has_gate() && !mute.has_gate());
        // The context can go run solo (performance mode) on the
        // ungated former vocal: every commit from here on is
        // unprotected.
        vocal.set_context(ctx);
        for now in 50_000..80_000 {
            vocal.tick(now, &mut mem);
        }
        let solo = vocal.stats().commits() - commits;
        assert!(solo > 0, "execution resumes solo");
        assert_eq!(vocal.stats().commits_unprotected, solo);
        let ctx = vocal.context().expect("context installed");
        assert_eq!(ctx.unprotected_commits, solo);
        assert_eq!(ctx.commits(), commits + solo);
    }

    #[test]
    fn mute_never_pollutes_directory() {
        let (mut vocal, mut mute, _solo, mut mem, cfg) = setup(6);
        let pair = DmrPair::couple(
            &mut vocal,
            &mut mute,
            ctx(Benchmark::Oltp, 0, 6),
            &cfg.reunion,
        );
        run_pair(&mut vocal, &mut mute, &pair, &mut mem, 0, 100_000);
        // Every line the directory tracks for the mute core would be a
        // protocol violation (mode-switch scratch traffic is the only
        // legal coherent mute traffic, and there is none here).
        let mute_id = pair.mute();
        let mut violations = 0;
        for l in 0..(1u64 << 14) {
            // Spot-check a swath of the address space.
            if mem
                .directory()
                .entry(mmm_types::LineAddr(l))
                .has_sharer(mute_id)
            {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
    }
}
