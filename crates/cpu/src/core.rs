//! The per-cycle core pipeline model.
//!
//! One [`Core`] models the paper's out-of-order core: 2-wide dispatch
//! and commit, a 128-entry instruction window, a 32+32 LSQ, and
//! sequential consistency. The model is *commit-and-capacity*
//! accurate rather than microarchitecturally exhaustive:
//!
//! * instructions enter the window at up to `width` per cycle, blocked
//!   by window/LSQ capacity, I-fetch misses, mispredict redirects, and
//!   serializing-instruction drain;
//! * each instruction's execution-completion cycle is computed at
//!   dispatch from its latency, an optional dependence on the youngest
//!   older instruction, and — for memory ops — the memory system's
//!   synchronous latency answer;
//! * instructions leave the window in order at up to `width` per
//!   cycle, once executed *and* (under Reunion) released by the
//!   [`PairGate`];
//! * under SC a store must additionally hold exclusive ownership and
//!   complete its L2 write-through before it can leave the window —
//!   the pressure the paper identifies as Reunion's largest overhead
//!   source; under TSO the store retires into a store buffer instead.

use mmm_mem::request::store_token;
use mmm_mem::{MemorySystem, Source};
use mmm_trace::{Event, Forensics, ProfPhase, Profiler, Tracer};
use mmm_types::config::{Consistency, SystemConfig};
use mmm_types::fastmap::FastMap;
use mmm_types::{CoreId, Cycle, LineAddr, PageAddr, VcpuId};
use mmm_workload::{MicroOp, OpClass, Privilege};
use std::collections::VecDeque;

use crate::context::ExecContext;
use crate::filter::PabPort;
use crate::gate::PairGate;
use crate::phase::PhaseTracker;
use crate::stats::CoreStats;
use crate::tlb::Tlb;

/// A privilege boundary reached by the instruction stream while the
/// core was configured to trap on it (single-OS mixed-mode operation,
/// paper §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// The next instruction enters the OS (syscall/trap/interrupt):
    /// the VCPU must be in reliable mode before it executes.
    EnterOs,
    /// The next instruction returns to user code: the VCPU may drop
    /// back to performance mode.
    ExitOs,
}

/// Which per-cycle stall counter a blocked core charges while it
/// sleeps (see [`Core::tick`]'s wake-cycle skipping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StallKind {
    Si,
    Mispredict,
    Fetch,
    WindowFull,
    LsqFull,
}

/// Per-cycle counter charges for a skipped (provably idle) cycle.
///
/// When the core proves it cannot make progress before a known wake
/// cycle, it stops simulating the intervening cycles — but those
/// cycles still happened architecturally, so the counters the
/// per-cycle loop would have incremented are recorded here and applied
/// in bulk when the core next runs. This keeps every statistic
/// bit-identical to the cycle-by-cycle execution.
#[derive(Clone, Copy, Debug)]
struct SkipCharge {
    /// The pending op is an OS-privilege op (`os_cycles` accrues).
    os: bool,
    /// The commit head is gate-held (`check_wait_cycles` accrues).
    check_wait: bool,
    /// The dispatch stage's per-cycle stall counter, if any.
    stall: Option<StallKind>,
}

/// Per-tick commit-counter accumulator. The commit loop retires up to
/// `width` ops per cycle; their privilege counters are accumulated
/// here and flushed to [`CoreStats`] and the context once per tick —
/// one context lookup and one set of memory bumps per cycle instead of
/// per op. Flushing happens before `tick` returns, so any observer
/// (sampler, report, pair service — all of which run between ticks)
/// reads exactly the values the per-op bumps would have produced.
#[derive(Clone, Copy, Debug, Default)]
struct RetireBatch {
    user: u64,
    os: u64,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    op: MicroOp,
    /// Execution completion (for stores under SC: ownership acquired).
    ready_at: Cycle,
    /// Whether the commit-time write-through has been issued (stores).
    write_issued: bool,
    /// Whether the store filter (PAB) has already cleared this store.
    filter_done: bool,
}

/// One physical core.
pub struct Core {
    id: CoreId,
    // Structural parameters.
    width: u32,
    window_entries: u32,
    lq_entries: u32,
    sq_entries: u32,
    mispredict_penalty: u32,
    dependence_threshold: u64,
    consistency: Consistency,
    sb_entries: u32,
    /// L2 write occupancy per TSO store-buffer drain.
    sb_drain_cycles: u32,

    // Role configuration (set by the scheduler / DMR layer).
    coherent: bool,
    gate: Option<PairGate>,
    store_filter: Option<PabPort>,
    trap_enter: bool,
    trap_exit: bool,
    phase_tracker: Option<PhaseTracker>,

    // Execution state.
    context: Option<ExecContext>,
    window: VecDeque<Slot>,
    lq_used: u32,
    sq_used: u32,
    store_buffer: VecDeque<Cycle>,
    /// In-flight stores by line: (sequence of the youngest such store,
    /// number in flight). Loads forward from here — a load younger
    /// than an uncommitted store to the same line observes that
    /// store's value, on the vocal and the mute alike.
    inflight_stores: FastMap<LineAddr, (u64, u32)>,
    fetch_stall_until: Cycle,
    redirect_stall_until: Cycle,
    si_in_flight: bool,
    si_resume_until: Cycle,
    external_stall_until: Cycle,
    last_fetch_line: Option<LineAddr>,
    pending_boundary: Option<Boundary>,
    last_ready: Cycle,

    // Wake-cycle skipping. When every pipeline stage is provably
    // blocked until a known cycle, `skip_until` is set to that cycle
    // and ticks before it return immediately; the skipped cycles'
    // counters are settled lazily from `skip_charge` (state is frozen
    // while skipping, so the charges are exact). Any external mutation
    // (scheduler, gate install, context moves) clears `skip_until`.
    skip_until: Cycle,
    /// First skipped-but-unsettled cycle (valid while `skip_active`).
    skip_from: Cycle,
    skip_active: bool,
    skip_charge: SkipCharge,

    tlb: Tlb,
    stats: CoreStats,
    tracer: Tracer,
    profiler: Profiler,
    forensics: Forensics,
}

impl Core {
    /// Builds a core from the machine configuration.
    pub fn new(id: CoreId, cfg: &SystemConfig) -> Self {
        Self {
            id,
            width: cfg.core.width,
            window_entries: cfg.core.window_entries,
            lq_entries: cfg.core.load_queue,
            sq_entries: cfg.core.store_queue,
            mispredict_penalty: cfg.core.mispredict_penalty,
            dependence_threshold: (cfg.core.dependence_frac * 1024.0) as u64,
            consistency: cfg.consistency,
            sb_entries: cfg.mem.store_buffer_entries,
            sb_drain_cycles: 3,
            coherent: true,
            gate: None,
            store_filter: None,
            trap_enter: false,
            trap_exit: false,
            phase_tracker: None,
            context: None,
            window: VecDeque::with_capacity(cfg.core.window_entries as usize),
            lq_used: 0,
            sq_used: 0,
            store_buffer: VecDeque::new(),
            inflight_stores: FastMap::default(),
            fetch_stall_until: 0,
            redirect_stall_until: 0,
            si_in_flight: false,
            si_resume_until: 0,
            external_stall_until: 0,
            last_fetch_line: None,
            pending_boundary: None,
            last_ready: 0,
            skip_until: 0,
            skip_from: 0,
            skip_active: false,
            skip_charge: SkipCharge {
                os: false,
                check_wait: false,
                stall: None,
            },
            tlb: Tlb::new(cfg.core.tlb_entries, cfg.core.tlb_fill_latency),
            stats: CoreStats::new(),
            tracer: Tracer::off(),
            profiler: Profiler::off(),
            forensics: Forensics::off(),
        }
    }

    /// Installs a tracer handle. The default is off; an off tracer
    /// costs one branch per emission site and never constructs events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a self-profiler handle and forwards it to the
    /// installed context's op source, so host time inside `tick`
    /// lands in [`ProfPhase::Core`] (with nested memory and op-gen
    /// work subtracting automatically).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        if let Some(ctx) = self.context.as_mut() {
            ctx.set_profiler(profiler.clone());
        }
        self.profiler = profiler;
    }

    /// Installs a fault-forensics handle. When on, the core stamps
    /// its pipeline landmarks (serialization stalls, phase
    /// boundaries) into a per-core black-box ring that an escaped
    /// fault's record dumps. Off by default: one branch per site.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        self.forensics = forensics;
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Installs a context; the core starts executing it on the next
    /// tick.
    ///
    /// # Panics
    ///
    /// Panics if a context is already installed.
    pub fn set_context(&mut self, ctx: ExecContext) {
        assert!(self.context.is_none(), "core {} already busy", self.id);
        self.context = Some(ctx);
        self.last_fetch_line = None;
        self.wake_now();
    }

    /// Removes and returns the context, leaving the core idle.
    /// Any in-flight window contents are squashed and a pending
    /// boundary trap is cleared first.
    pub fn take_context(&mut self, now: Cycle) -> Option<ExecContext> {
        self.squash(now);
        self.pending_boundary = None;
        let ctx = self.context.take();
        // An idle core can do nothing until a context arrives;
        // `set_context` clears the hint.
        self.skip_until = Cycle::MAX;
        ctx
    }

    /// Whether a context is installed.
    pub fn is_busy(&self) -> bool {
        self.context.is_some()
    }

    /// Read access to the installed context.
    pub fn context(&self) -> Option<&ExecContext> {
        self.context.as_ref()
    }

    /// Sets whether this core participates in coherence (vocal /
    /// performance mode) or runs incoherently (Reunion mute).
    pub fn set_coherent(&mut self, coherent: bool) {
        self.coherent = coherent;
        self.wake_now();
    }

    /// Whether this core issues coherent requests.
    pub fn coherent(&self) -> bool {
        self.coherent
    }

    /// Installs (or removes) the Reunion commit gate.
    pub fn set_gate(&mut self, gate: Option<PairGate>) {
        self.gate = gate;
        self.wake_now();
    }

    /// Installs (or removes) the store filter — the PAB's hook into
    /// the store write-through path (performance mode only).
    pub fn set_store_filter(&mut self, filter: Option<PabPort>) {
        self.store_filter = filter;
        self.wake_now();
    }

    /// Enables user/OS phase-duration tracking (Table 2).
    pub fn enable_phase_tracking(&mut self) {
        self.phase_tracker = Some(PhaseTracker::new());
    }

    /// The phase tracker, if enabled.
    pub fn phase_tracker(&self) -> Option<&PhaseTracker> {
        self.phase_tracker.as_ref()
    }

    /// Whether a commit gate is installed (DMR mode).
    pub fn has_gate(&self) -> bool {
        self.gate.is_some()
    }

    /// Configures privilege-boundary trapping: `enter` raises
    /// [`Boundary::EnterOs`] before the first OS instruction
    /// dispatches, `exit` raises [`Boundary::ExitOs`] before the first
    /// post-OS user instruction dispatches.
    pub fn set_traps(&mut self, enter: bool, exit: bool) {
        self.trap_enter = enter;
        self.trap_exit = exit;
        self.wake_now();
    }

    /// The boundary the core is currently trapped on, if any.
    pub fn pending_boundary(&self) -> Option<Boundary> {
        self.pending_boundary
    }

    /// Clears a pending boundary trap (the mode switch has been
    /// performed; dispatch may proceed).
    pub fn clear_boundary(&mut self) {
        self.pending_boundary = None;
        self.wake_now();
    }

    /// Wake registration for boundary-driven schedulers: the earliest
    /// cycle after `now` at which a system-level poll of this core
    /// could act on `boundary` — trapped on it, window fully drained,
    /// and any external stall expired. [`Cycle::MAX`] while the trio
    /// does not hold: the trap and the drain only change inside
    /// [`Core::tick`], so until this core next runs there is nothing
    /// for the poller to see (only the stall expires by the passage of
    /// time, which is why it lands in the returned cycle rather than
    /// in a flag).
    pub fn boundary_ready_at(&self, boundary: Boundary, now: Cycle) -> Cycle {
        if self.pending_boundary == Some(boundary) && self.window.is_empty() {
            (now + 1).max(self.external_stall_until)
        } else {
            Cycle::MAX
        }
    }

    /// Whether the window has fully drained.
    pub fn window_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Stalls the core until `cycle` (mode-transition state machine,
    /// VCPU state save/restore).
    pub fn stall_until(&mut self, cycle: Cycle) {
        self.external_stall_until = self.external_stall_until.max(cycle);
        self.wake_now();
    }

    /// Cycle through which the core is externally stalled.
    pub fn stalled_until(&self) -> Cycle {
        self.external_stall_until
    }

    /// Discards all in-flight (dispatched, uncommitted) work.
    pub fn squash(&mut self, now: Cycle) {
        if self.skip_active {
            self.settle_skip(now);
        }
        self.wake_now();
        if let Some(first) = self.window.front() {
            if let Some(g) = self.gate.as_mut() {
                g.on_squash(first.seq);
            }
            self.stats.squashes += 1;
        }
        self.window.clear();
        self.lq_used = 0;
        self.sq_used = 0;
        self.inflight_stores.clear();
        self.si_in_flight = false;
        self.last_fetch_line = None;
    }

    /// The core's TLB (fault injection and demap tests).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        self.wake_now();
        &mut self.tlb
    }

    /// Whether a translation is resident in this core's TLB. Purely
    /// observational (no MRU/stat side effects) — forensics context.
    pub fn tlb_resident(&self, page: PageAddr) -> bool {
        self.tlb.contains(page)
    }

    /// Resident translation count in this core's TLB (forensics).
    pub fn tlb_occupancy(&self) -> u32 {
        self.tlb.occupancy()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Resets counters (after warm-up).
    pub fn reset_stats(&mut self) {
        let active_context = self.context.as_mut();
        if let Some(ctx) = active_context {
            ctx.user_commits = 0;
            ctx.os_commits = 0;
            ctx.unprotected_commits = 0;
        }
        self.stats = CoreStats::new();
        // Unsettled skip charges belong to pre-reset cycles: drop them
        // with the rest of the warm-up counters. The next tick
        // re-derives the (unchanged) skip window and charges only
        // post-reset cycles.
        self.skip_active = false;
        if self.skip_until != Cycle::MAX {
            self.skip_until = 0;
        }
    }

    /// First cycle at which this core can possibly make progress —
    /// the system loop may skip `tick` calls before it. Always sound:
    /// ticks before the hint are no-ops whose counters the core
    /// settles when it next runs.
    #[inline]
    pub fn wake_hint(&self) -> Cycle {
        if self.context.is_none() {
            // An idle core cannot act until a context is installed
            // (which resets the hint).
            return Cycle::MAX;
        }
        self.skip_until
    }

    /// Forces the core to run on the next tick (external state it may
    /// have slept across just changed).
    #[inline]
    fn wake_now(&mut self) {
        self.skip_until = 0;
    }

    /// Applies any pending skipped-cycle charges for cycles before
    /// `now` — the end-of-run flush, so reports read fully settled
    /// counters.
    pub fn settle_to(&mut self, now: Cycle) {
        if self.skip_active {
            self.settle_skip(now);
        }
    }

    /// Applies the counters for cycles `skip_from..now` that were
    /// skipped while the core was provably blocked.
    fn settle_skip(&mut self, now: Cycle) {
        let gap = now.saturating_sub(self.skip_from);
        if gap > 0 {
            self.stats.active_cycles += gap;
            if self.skip_charge.os {
                self.stats.os_cycles += gap;
            }
            if self.skip_charge.check_wait {
                self.stats.check_wait_cycles += gap;
            }
            match self.skip_charge.stall {
                Some(StallKind::Si) => self.stats.si_stall_cycles += gap,
                Some(StallKind::Mispredict) => self.stats.mispredict_stall_cycles += gap,
                Some(StallKind::Fetch) => self.stats.fetch_stall_cycles += gap,
                Some(StallKind::WindowFull) => self.stats.window_full_cycles += gap,
                Some(StallKind::LsqFull) => self.stats.lsq_full_cycles += gap,
                None => {}
            }
        }
        self.skip_active = false;
        self.skip_until = 0;
    }

    /// Enters a skip window: cycles in `(now, wake)` are provably
    /// no-ops under the current (frozen) state and will be charged
    /// `charge` each when the core next runs.
    #[inline]
    fn begin_skip(&mut self, now: Cycle, wake: Cycle, charge: SkipCharge) {
        self.skip_active = true;
        self.skip_from = now + 1;
        self.skip_until = wake;
        self.skip_charge = charge;
    }

    /// Whether the pending (next-to-dispatch) op is OS-privileged.
    #[inline]
    fn pending_os(&mut self) -> bool {
        self.context
            .as_mut()
            .map(|c| c.current_privilege() == Privilege::Os)
            .unwrap_or(false)
    }

    /// Advances the core by one cycle.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemorySystem) {
        if self.context.is_none() {
            return;
        }
        if now < self.skip_until {
            return;
        }
        let _prof = self.profiler.enter(ProfPhase::Core);
        if self.skip_active {
            self.settle_skip(now);
        }
        self.stats.active_cycles += 1;
        let in_os = self.pending_os();
        if in_os {
            self.stats.os_cycles += 1;
        }
        if now < self.external_stall_until {
            // Nothing runs until the external stall lifts; the only
            // per-cycle charges are the activity counters above.
            self.begin_skip(
                now,
                self.external_stall_until,
                SkipCharge {
                    os: in_os,
                    check_wait: false,
                    stall: None,
                },
            );
            return;
        }
        self.drain_store_buffer(now);
        let (commit_wake, check_wait) = self.commit(now, mem);
        let (dispatch_wake, stall) = self.dispatch(now, mem);
        if let Some(g) = self.gate.as_mut() {
            // Push the dispatch burst's buffered publishes before any
            // other core (or the pair service) can observe the channel.
            g.flush();
        }
        let wake = commit_wake.min(dispatch_wake);
        if wake > now + 1 {
            // Both stages are blocked until a known cycle (or
            // indefinitely, pending commit progress / an external
            // event): sleep, recording what each skipped cycle would
            // have counted. The pending op's privilege decides the
            // os_cycles charge — recomputed after dispatch, since
            // dispatch may have advanced the stream.
            let os = self.pending_os();
            self.begin_skip(
                now,
                wake,
                SkipCharge {
                    os,
                    check_wait,
                    stall,
                },
            );
        }
    }

    fn drain_store_buffer(&mut self, now: Cycle) {
        while let Some(&head) = self.store_buffer.front() {
            if head <= now {
                self.store_buffer.pop_front();
            } else {
                break;
            }
        }
    }

    /// `None` if the gate (if any) releases `seq` at `now`; otherwise
    /// the earliest cycle the hold can end (`now + 1` when the gate
    /// cannot bound it), counting a check-wait cycle.
    fn gate_wait(&mut self, seq: u64, now: Cycle) -> Option<Cycle> {
        match self.gate.as_mut() {
            None => None,
            Some(g) => {
                if g.released(seq, now) {
                    None
                } else {
                    self.stats.check_wait_cycles += 1;
                    Some(g.hold_until().max(now + 1))
                }
            }
        }
    }

    /// Cycle at which a store to `line` may write the L2: `now` when
    /// no store filter is installed, else the PAB's answer.
    #[inline]
    fn filter_store(&mut self, line: LineAddr, now: Cycle, mem: &mut MemorySystem) -> Cycle {
        match self.store_filter.as_mut() {
            None => now,
            Some(p) => p.check(self.id, line, now, mem),
        }
    }

    /// Commits up to `width` instructions in order.
    ///
    /// Returns `(wake, check_wait)`: the earliest cycle at which this
    /// stage could do anything it could not do this cycle (`now + 1`
    /// when unknown, `Cycle::MAX` when only dispatch progress can
    /// unblock it), and whether a blocked head charges
    /// `check_wait_cycles` every cycle while the state is frozen.
    fn commit(&mut self, now: Cycle, mem: &mut MemorySystem) -> (Cycle, bool) {
        // Loop-invariant per tick: the context (and its VCPU) and the
        // gate's presence cannot change inside the commit loop.
        let vcpu = self.vcpu();
        let mut batch = RetireBatch::default();
        let result = self.commit_burst(now, mem, vcpu, &mut batch);
        let total = batch.user + batch.os;
        if total > 0 {
            self.stats.commits_user += batch.user;
            self.stats.commits_os += batch.os;
            let unprotected = self.gate.is_none();
            if unprotected {
                self.stats.commits_unprotected += total;
            }
            let ctx = self.context.as_mut().expect("busy core has context");
            ctx.user_commits += batch.user;
            ctx.os_commits += batch.os;
            if unprotected {
                ctx.unprotected_commits += total;
            }
        }
        result
    }

    /// The commit loop body; counter flushing lives in [`Core::commit`].
    fn commit_burst(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        vcpu: VcpuId,
        batch: &mut RetireBatch,
    ) -> (Cycle, bool) {
        let mut committed = 0;
        while committed < self.width {
            let Some(head) = self.window.front().copied() else {
                // Empty window: only dispatch can create commit work.
                return (Cycle::MAX, false);
            };
            if now < head.ready_at {
                // The per-cycle loop breaks before consulting the
                // gate here, so no check-wait accrues while waiting.
                return (head.ready_at, false);
            }
            if head.op.is_store() {
                match self.consistency {
                    Consistency::Sc => {
                        if !head.write_issued {
                            // The write-through may only start once the
                            // store is checked (its value must not
                            // escape an unvalidated core).
                            if let Some(hold) = self.gate_wait(head.seq, now) {
                                return (hold, true);
                            }
                            let line = head.op.data_addr.expect("store has an address").line();
                            // PAB re-validation before the L2 write
                            // (performance mode only).
                            if !head.filter_done {
                                let ok_at = self.filter_store(line, now, mem);
                                let slot = self.window.front_mut().expect("head exists");
                                slot.filter_done = true;
                                if ok_at > now {
                                    slot.ready_at = ok_at;
                                    return (ok_at, false);
                                }
                            }
                            let token = store_token(vcpu, line, head.seq);
                            let acc = mem.store_commit(self.id, line, token, self.coherent, now);
                            let slot = self.window.front_mut().expect("head exists");
                            slot.write_issued = true;
                            slot.ready_at = acc.complete_at;
                            if acc.complete_at > now {
                                return (acc.complete_at, false);
                            }
                        }
                    }
                    Consistency::Tso => {
                        if let Some(hold) = self.gate_wait(head.seq, now) {
                            return (hold, true);
                        }
                        if self.store_buffer.len() >= self.sb_entries as usize {
                            // A gated core re-polls its (already
                            // released) gate every blocked cycle, and
                            // a recovery can revoke a release — only
                            // ungated cores may sleep through a full
                            // store buffer.
                            let wake = match self.gate {
                                None => self.store_buffer.front().copied().unwrap_or(now + 1),
                                Some(_) => now + 1,
                            };
                            return (wake, false);
                        }
                        let line = head.op.data_addr.expect("store has an address").line();
                        if !head.filter_done {
                            let ok_at = self.filter_store(line, now, mem);
                            let slot = self.window.front_mut().expect("head exists");
                            slot.filter_done = true;
                            if ok_at > now {
                                slot.ready_at = ok_at;
                                return (ok_at, false);
                            }
                        }
                        let token = store_token(vcpu, line, head.seq);
                        mem.store_commit(self.id, line, token, self.coherent, now);
                        let drain_base = self.store_buffer.back().copied().unwrap_or(now).max(now);
                        self.store_buffer
                            .push_back(drain_base + self.sb_drain_cycles as Cycle);
                        self.retire_head(now, vcpu, batch);
                        committed += 1;
                        continue;
                    }
                }
            }
            if let Some(hold) = self.gate_wait(head.seq, now) {
                return (hold, true);
            }
            self.retire_head(now, vcpu, batch);
            committed += 1;
        }
        // Full commit width used: more may retire next cycle.
        (now + 1, false)
    }

    #[inline]
    fn retire_head(&mut self, now: Cycle, vcpu: VcpuId, batch: &mut RetireBatch) {
        let slot = self.window.pop_front().expect("caller checked head");
        match slot.op.class {
            OpClass::Load => self.lq_used -= 1,
            OpClass::Store => {
                self.sq_used -= 1;
                let line = slot.op.data_addr.expect("store has an address").line();
                if let Some(entry) = self.inflight_stores.get_mut(&line) {
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        self.inflight_stores.remove(&line);
                    }
                }
            }
            OpClass::Serializing => {
                self.si_in_flight = false;
                let resume = self.gate.as_ref().map(|g| g.si_resume_delay()).unwrap_or(2);
                self.si_resume_until = now + resume as Cycle;
                let id = self.id;
                self.tracer.emit(now, || Event::SiStall {
                    core: id,
                    cycles: resume as u64,
                });
                self.forensics.note(now, || Event::SiStall {
                    core: id,
                    cycles: resume as u64,
                });
            }
            _ => {}
        }
        match slot.op.privilege {
            Privilege::User => batch.user += 1,
            Privilege::Os => batch.os += 1,
        }
        if slot.op.enters_os || slot.op.exits_os {
            if let Some(t) = self.phase_tracker.as_mut() {
                if slot.op.enters_os {
                    t.on_enter_os(now);
                } else {
                    t.on_exit_os(now);
                }
            }
            let id = self.id;
            self.tracer.emit(now, || Event::PhaseBoundary {
                core: id,
                vcpu,
                to_os: slot.op.enters_os,
            });
            let to_os = slot.op.enters_os;
            self.forensics.note(now, || Event::PhaseBoundary {
                core: id,
                vcpu,
                to_os,
            });
        }
    }

    fn vcpu(&self) -> VcpuId {
        self.context
            .as_ref()
            .map(|c| c.vcpu())
            .expect("busy core has context")
    }

    /// Deterministic dependence draw for `(vcpu, seq)` — identical on
    /// the vocal and mute core of a pair.
    fn depends_on_prev(&self, vcpu: VcpuId, seq: u64) -> bool {
        let mut x = (vcpu.0 as u64 ^ 0xC0FE)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seq);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        (x & 1023) < self.dependence_threshold
    }

    /// A dispatch-stage blocking result: when instructions already
    /// dispatched this cycle, the window contents changed and any
    /// commit-stage wake bound computed earlier this cycle is stale —
    /// force a real tick next cycle instead of sleeping.
    #[inline]
    fn block(
        dispatched: u32,
        now: Cycle,
        wake: Cycle,
        stall: Option<StallKind>,
    ) -> (Cycle, Option<StallKind>) {
        if dispatched > 0 {
            (now + 1, None)
        } else {
            (wake, stall)
        }
    }

    /// Dispatches up to `width` instructions.
    ///
    /// Returns `(wake, stall)`: the earliest cycle this stage could do
    /// more than it did this cycle (`Cycle::MAX` when only commit
    /// progress or an external event can unblock it), and the stall
    /// counter a blocked cycle charges while the state is frozen.
    fn dispatch(&mut self, now: Cycle, mem: &mut MemorySystem) -> (Cycle, Option<StallKind>) {
        let mut dispatched = 0;
        while dispatched < self.width {
            if self.pending_boundary.is_some() {
                return Self::block(dispatched, now, Cycle::MAX, None);
            }
            if self.si_in_flight {
                self.stats.si_stall_cycles += 1;
                return Self::block(dispatched, now, Cycle::MAX, Some(StallKind::Si));
            }
            if now < self.si_resume_until {
                self.stats.si_stall_cycles += 1;
                return Self::block(dispatched, now, self.si_resume_until, Some(StallKind::Si));
            }
            if now < self.redirect_stall_until {
                self.stats.mispredict_stall_cycles += 1;
                return Self::block(
                    dispatched,
                    now,
                    self.redirect_stall_until,
                    Some(StallKind::Mispredict),
                );
            }
            if now < self.fetch_stall_until {
                self.stats.fetch_stall_cycles += 1;
                return Self::block(
                    dispatched,
                    now,
                    self.fetch_stall_until,
                    Some(StallKind::Fetch),
                );
            }
            if self.window.len() >= self.window_entries as usize {
                self.stats.window_full_cycles += 1;
                return Self::block(dispatched, now, Cycle::MAX, Some(StallKind::WindowFull));
            }

            let coherent = self.coherent;
            let id = self.id;
            let ctx = self.context.as_mut().expect("busy core has context");
            let op = *ctx.peek();

            // Privilege-boundary traps (single-OS mixed mode). The
            // hardware checks the privilege level of the next
            // instruction, not just explicit markers — a context that
            // starts mid-OS-phase must still force reliable mode
            // before any privileged instruction dispatches.
            if self.trap_enter && op.privilege == Privilege::Os {
                self.pending_boundary = Some(Boundary::EnterOs);
                return Self::block(dispatched, now, Cycle::MAX, None);
            }
            if self.trap_exit && op.privilege == Privilege::User {
                self.pending_boundary = Some(Boundary::ExitOs);
                return Self::block(dispatched, now, Cycle::MAX, None);
            }
            // A serializing instruction dispatches alone into an empty
            // window.
            if op.is_serializing() && !self.window.is_empty() {
                self.stats.si_stall_cycles += 1;
                return Self::block(dispatched, now, Cycle::MAX, Some(StallKind::Si));
            }
            // LSQ capacity.
            match op.class {
                OpClass::Load if self.lq_used >= self.lq_entries => {
                    self.stats.lsq_full_cycles += 1;
                    return Self::block(dispatched, now, Cycle::MAX, Some(StallKind::LsqFull));
                }
                OpClass::Store if self.sq_used >= self.sq_entries => {
                    self.stats.lsq_full_cycles += 1;
                    return Self::block(dispatched, now, Cycle::MAX, Some(StallKind::LsqFull));
                }
                _ => {}
            }
            // Instruction fetch: only line transitions touch the L1-I.
            let fetch_line = op.fetch_addr.line();
            if Some(fetch_line) != self.last_fetch_line {
                let acc = mem.ifetch(id, fetch_line, coherent, now);
                self.last_fetch_line = Some(fetch_line);
                if acc.source != Source::L1 {
                    self.fetch_stall_until = acc.complete_at;
                    self.stats.fetch_stall_cycles += 1;
                    return Self::block(dispatched, now, acc.complete_at, Some(StallKind::Fetch));
                }
            }

            // Consume the op (already copied by the peek above) and
            // compute its execution completion.
            let ctx = self.context.as_mut().expect("busy core has context");
            let seq = ctx.advance();
            let vcpu = ctx.vcpu();
            let mut ready = now + op.exec_latency as Cycle;
            if self.depends_on_prev(vcpu, seq) {
                ready = ready.max(self.last_ready + 1);
            }

            let mut load_obs = None;
            match op.class {
                OpClass::Load => {
                    let addr = op.data_addr.expect("load has an address");
                    let extra = self.tlb.access(addr.page(), now) as Cycle;
                    let acc = mem.load(id, addr.line(), coherent, now + extra);
                    ready = ready.max(acc.complete_at);
                    // Store-to-load forwarding: a load behind an
                    // uncommitted store to the same line observes that
                    // store's (deterministic) token, identically on
                    // the vocal and mute cores. The map is empty
                    // exactly when no store is in the window, so the
                    // probe is skipped outright then.
                    let forwarded = if self.sq_used > 0 {
                        self.inflight_stores.get(&addr.line()).copied()
                    } else {
                        None
                    };
                    let observed = match forwarded {
                        Some((sseq, _)) => store_token(vcpu, addr.line(), sseq),
                        None => acc.version,
                    };
                    load_obs = Some((addr.line(), observed));
                    self.lq_used += 1;
                    self.stats.loads += 1;
                }
                OpClass::Store => {
                    let addr = op.data_addr.expect("store has an address");
                    let extra = self.tlb.access(addr.page(), now) as Cycle;
                    // Exclusive-ownership prefetch at dispatch; the
                    // write itself happens at commit.
                    let acc = mem.store_acquire(id, addr.line(), coherent, now + extra);
                    ready = ready.max(acc.complete_at);
                    let entry = self.inflight_stores.entry(addr.line()).or_insert((seq, 0));
                    entry.0 = seq;
                    entry.1 += 1;
                    self.sq_used += 1;
                    self.stats.stores += 1;
                }
                OpClass::Branch if op.mispredicted => {
                    self.redirect_stall_until = ready + self.mispredict_penalty as Cycle;
                    self.stats.mispredicts += 1;
                }
                OpClass::Serializing => {
                    self.si_in_flight = true;
                    self.stats.serializing += 1;
                }
                _ => {}
            }
            self.last_ready = self.last_ready.max(ready);
            if let Some(g) = self.gate.as_mut() {
                g.on_dispatch(seq, ready, load_obs);
            }
            self.window.push_back(Slot {
                seq,
                op,
                ready_at: ready,
                write_issued: false,
                filter_done: false,
            });
            dispatched += 1;
        }
        // Full dispatch width used: more may dispatch next cycle.
        (now + 1, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::VmId;
    use mmm_workload::{Benchmark, OpStream};

    fn machine() -> (Core, MemorySystem) {
        let cfg = SystemConfig::default();
        (Core::new(CoreId(0), &cfg), MemorySystem::new(&cfg))
    }

    fn ctx(seed: u64) -> ExecContext {
        ExecContext::new(OpStream::new(
            Benchmark::Pmake.profile(),
            VmId(0),
            VcpuId(0),
            seed,
        ))
    }

    fn run(core: &mut Core, mem: &mut MemorySystem, cycles: u64) {
        for now in 0..cycles {
            core.tick(now, mem);
        }
    }

    #[test]
    fn idle_core_does_nothing() {
        let (mut core, mut mem) = machine();
        run(&mut core, &mut mem, 1000);
        assert_eq!(core.stats().commits(), 0);
        assert_eq!(core.stats().active_cycles, 0);
    }

    #[test]
    fn core_commits_instructions_and_counts_privilege() {
        let (mut core, mut mem) = machine();
        core.set_context(ctx(1));
        run(&mut core, &mut mem, 200_000);
        let s = core.stats();
        assert!(s.commits() > 10_000, "commits: {}", s.commits());
        assert!(s.commits_user > s.commits_os, "pmake is user-heavy");
        // IPC plausible for a 2-wide core: between 0.1 and 2.0.
        let ipc = s.commits() as f64 / 200_000.0;
        assert!((0.1..2.0).contains(&ipc), "ipc {ipc}");
    }

    #[test]
    fn determinism_same_seed_same_commits() {
        let (mut a, mut mem_a) = machine();
        let (mut b, mut mem_b) = machine();
        a.set_context(ctx(9));
        b.set_context(ctx(9));
        run(&mut a, &mut mem_a, 50_000);
        run(&mut b, &mut mem_b, 50_000);
        assert_eq!(a.stats().commits(), b.stats().commits());
        assert_eq!(a.stats().commits_user, b.stats().commits_user);
    }

    #[test]
    fn boundary_trap_blocks_dispatch_until_cleared() {
        let (mut core, mut mem) = machine();
        // Zeus enters the OS every ~50k instructions.
        core.set_context(ExecContext::new(OpStream::new(
            Benchmark::Zeus.profile(),
            VmId(0),
            VcpuId(0),
            5,
        )));
        core.set_traps(true, false);
        let mut trapped_at = None;
        for now in 0..3_000_000u64 {
            core.tick(now, &mut mem);
            if core.pending_boundary().is_some() {
                trapped_at = Some(now);
                break;
            }
        }
        let t = trapped_at.expect("Zeus eventually enters the OS");
        assert_eq!(core.pending_boundary(), Some(Boundary::EnterOs));
        let commits_at_trap = core.stats().commits();
        // While trapped, the window drains but nothing new dispatches.
        for now in t..t + 5_000 {
            core.tick(now, &mut mem);
        }
        assert!(core.window_empty(), "window drains during the trap");
        let drained = core.stats().commits();
        for now in t + 5_000..t + 10_000 {
            core.tick(now, &mut mem);
        }
        assert_eq!(core.stats().commits(), drained, "no progress while trapped");
        assert!(drained >= commits_at_trap);
        // After clearing, execution resumes in the OS.
        core.clear_boundary();
        core.set_traps(false, false);
        for now in t + 10_000..t + 60_000 {
            core.tick(now, &mut mem);
        }
        assert!(core.stats().commits_os > 0, "OS code ran after resume");
    }

    #[test]
    fn external_stall_freezes_progress() {
        let (mut core, mut mem) = machine();
        core.set_context(ctx(2));
        run(&mut core, &mut mem, 10_000);
        let before = core.stats().commits();
        core.stall_until(30_000);
        for now in 10_000..30_000 {
            core.tick(now, &mut mem);
        }
        assert_eq!(core.stats().commits(), before);
        for now in 30_000..40_000 {
            core.tick(now, &mut mem);
        }
        assert!(core.stats().commits() > before);
    }

    #[test]
    fn take_context_squashes_and_preserves_commit_counts() {
        let (mut core, mut mem) = machine();
        core.set_context(ctx(4));
        run(&mut core, &mut mem, 20_000);
        let commits = core.stats().commits();
        let taken = core.take_context(20_000).expect("context present");
        assert_eq!(taken.commits(), commits, "context carries its counters");
        assert!(!core.is_busy());
        assert!(core.window_empty());
        // The context resumes on another core deterministically.
        let cfg = SystemConfig::default();
        let mut other = Core::new(CoreId(1), &cfg);
        other.set_context(taken);
        for now in 20_000..40_000 {
            other.tick(now, &mut mem);
        }
        assert!(other.stats().commits() > 0);
    }

    #[test]
    fn serializing_instructions_stall() {
        let (mut core, mut mem) = machine();
        // Zeus is SI-dense in its OS phases.
        core.set_context(ExecContext::new(OpStream::new(
            Benchmark::Zeus.profile(),
            VmId(0),
            VcpuId(0),
            11,
        )));
        run(&mut core, &mut mem, 300_000);
        assert!(core.stats().serializing > 0);
        assert!(core.stats().si_stall_cycles > 0);
    }

    #[test]
    fn sc_vs_tso_store_behaviour() {
        let mut cfg = SystemConfig::default();
        let mut run_with = |consistency| {
            cfg.consistency = consistency;
            let mut core = Core::new(CoreId(0), &cfg);
            let mut mem = MemorySystem::new(&cfg);
            core.set_context(ctx(8));
            for now in 0..150_000 {
                core.tick(now, &mut mem);
            }
            core.stats().commits()
        };
        let sc = run_with(Consistency::Sc);
        let tso = run_with(Consistency::Tso);
        assert!(tso >= sc, "TSO must not be slower than SC: {tso} vs {sc}");
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_context_is_rejected() {
        let (mut core, _mem) = machine();
        core.set_context(ctx(1));
        core.set_context(ctx(2));
    }

    #[test]
    fn store_filter_delay_slows_commits() {
        use crate::pab::Pab;
        use mmm_types::config::{PabConfig, PabLookup};
        use mmm_workload::AddressLayout;
        use std::cell::RefCell;
        use std::rc::Rc;

        let (mut plain, mut mem_a) = machine();
        plain.set_context(ctx(6));
        run(&mut plain, &mut mem_a, 100_000);

        // A serial-lookup PAB delays every store write-through by its
        // lookup latency, on top of the PAT-line fetch on a miss.
        let pab = Rc::new(RefCell::new(Pab::new(PabConfig {
            lookup: PabLookup::Serial,
            serial_latency: 25,
            ..PabConfig::default()
        })));
        let (mut filtered, mut mem_b) = machine();
        filtered.set_context(ctx(6));
        filtered.set_store_filter(Some(PabPort::new(Rc::clone(&pab), AddressLayout::new())));
        run(&mut filtered, &mut mem_b, 100_000);

        assert!(
            filtered.stats().commits() < plain.stats().commits(),
            "a 25-cycle serial PAB must cost throughput: {} !< {}",
            filtered.stats().commits(),
            plain.stats().commits()
        );
        assert!(filtered.stats().stores > 0, "stores were exercised");
        let stats = pab.borrow().stats().clone();
        assert!(stats.lookups > 0 && stats.hits > 0, "{stats:?}");
        assert!(stats.lookups <= filtered.stats().stores);
    }

    #[test]
    fn os_cycles_track_privilege_time() {
        let (mut core, mut mem) = machine();
        // Zeus spends most cycles in OS phases.
        core.set_context(ExecContext::new(OpStream::new(
            Benchmark::Zeus.profile(),
            VmId(0),
            VcpuId(0),
            13,
        )));
        run(&mut core, &mut mem, 400_000);
        let s = core.stats();
        assert!(s.os_cycles > 0, "Zeus spends time in the OS");
        assert!(s.os_cycles <= s.active_cycles);
        let os_frac = s.os_cycles as f64 / s.active_cycles as f64;
        assert!(os_frac > 0.3, "Zeus is OS-dominated in time: {os_frac:.2}");
    }
}
