//! The architected execution context of one VCPU.
//!
//! An [`ExecContext`] is everything the chip's virtualization layer
//! saves and restores when it moves a VCPU between cores (paper §3.5):
//! the software thread's position in its instruction stream plus
//! commit counters. In DMR mode the vocal and mute cores each hold one
//! side of an [`ExecContext::fork`] — both read the identical
//! instruction sequence, which is what makes redundant execution
//! meaningful.
//!
//! # Forked streams generate once, and the per-op path is local
//!
//! The op streams are deterministic, so redundant execution *could*
//! simply clone the generator and pay the full generation cost twice
//! per instruction — what the original implementation did, and the
//! simulator's single largest cost. A fork instead shares one
//! generator behind a replay ring: whichever side is ahead generates
//! an op once, the trailing side replays it.
//!
//! The sharing machinery is deliberately kept *off* the per-op path.
//! Each context owns a small local window of ops copied out of the
//! shared ring in batches; `peek`/`take` are a bounds check plus an
//! index into that window — no `Rc` refcount traffic, no `RefCell`
//! borrow flag, no `VecDeque` cursor arithmetic. Only a window refill
//! (once per `BATCH` ops) touches the shared ring: it reports this
//! side's consumption, advances the trim floor, generates forward as
//! needed, and copies the next window. Local windows are pure copies,
//! so the ring overwriting slots below the floor can never be
//! observed. The sides of a pair stay within an instruction window of
//! each other (neither commits without the partner's fingerprint), so
//! the ring's initial capacity is rarely exceeded; it doubles if a
//! decoupled survivor drifts further ahead.
//!
//! The ring fills from any [`OpSource`]. The contexts of an
//! `mmm_core::System` read [`OpSource::Feed`]s, whose ops a generator
//! thread has already produced, so "generating" there is a copy out of
//! a chunk.

use std::cell::RefCell;
use std::rc::Rc;

use mmm_trace::{ProfPhase, Profiler};
use mmm_types::{PhysAddr, VcpuId, VmId};
use mmm_workload::{MicroOp, OpClass, OpSource, OpStream, Privilege, TraceReplay};

/// Ops copied into a context-local window per shared-ring visit. One
/// refcount-free window covers several simulated cycles of a 2-wide
/// core, and the generation-ahead it implies is invisible: streams are
/// deterministic and endless.
const BATCH: usize = 32;

/// Initial ring capacity (power of two). Covers the pair divergence
/// window (bounded by the 128-entry ROB) plus a refill batch per side.
const RING_CAP: usize = 256;

/// Filler op for unwritten ring slots; never dispatched.
const FILLER: MicroOp = MicroOp {
    class: OpClass::Alu,
    privilege: Privilege::User,
    data_addr: None,
    fetch_addr: PhysAddr(0),
    mispredicted: false,
    exec_latency: 1,
    enters_os: false,
    exits_os: false,
};

/// A generator shared by (up to) two fork sides, holding generated
/// ops in a power-of-two ring indexed by sequence number.
#[derive(Debug)]
struct SharedStream {
    source: OpSource,
    /// Self-profiler handle; its [`ProfPhase::OpGen`] scope covers
    /// every `next_ops` call.
    profiler: Profiler,
    /// Ring slot for seq `q` is `ring[q & mask]`; holds `[floor, next_gen)`.
    ring: Vec<MicroOp>,
    mask: u64,
    /// Sequence number of the next op to generate.
    next_gen: u64,
    /// Every live side has consumed ops below this; slots below the
    /// floor are free to overwrite.
    floor: u64,
    /// Consumption cursor per fork side, reported at window refills.
    taken: [u64; 2],
}

impl SharedStream {
    fn new(source: OpSource) -> Self {
        Self {
            source,
            profiler: Profiler::off(),
            ring: vec![FILLER; RING_CAP],
            mask: RING_CAP as u64 - 1,
            next_gen: 0,
            floor: 0,
            taken: [0; 2],
        }
    }

    /// Generates forward until op `want - 1` exists in the ring.
    /// Batched: each pass generates up to the ring headroom in one
    /// [`OpSource::next_ops`] call under one [`ProfPhase::OpGen`]
    /// probe. For a feed that probe measures the wait for the
    /// generator thread plus the copy; for an inline stream, the
    /// generation itself.
    fn generate_to(&mut self, want: u64) {
        while self.next_gen < want {
            if self.next_gen - self.floor >= self.ring.len() as u64 {
                self.grow();
            }
            let headroom = self.floor + self.ring.len() as u64 - self.next_gen;
            let n = (want - self.next_gen).min(headroom);
            let mask = self.mask;
            let ring = &mut self.ring;
            let mut q = self.next_gen;
            let _prof = self.profiler.enter(ProfPhase::OpGen);
            self.source.next_ops(n, |op| {
                ring[(q & mask) as usize] = op;
                q += 1;
            });
            self.next_gen = q;
        }
    }

    /// Doubles the ring, re-placing the live `[floor, next_gen)` span
    /// at its new masked positions. Only a decoupled survivor running
    /// far ahead of a stale partner cursor ever gets here.
    #[cold]
    fn grow(&mut self) {
        let new_cap = self.ring.len() * 2;
        let new_mask = new_cap as u64 - 1;
        let mut new_ring = vec![FILLER; new_cap];
        for q in self.floor..self.next_gen {
            new_ring[(q & new_mask) as usize] = self.ring[(q & self.mask) as usize];
        }
        self.ring = new_ring;
        self.mask = new_mask;
    }
}

/// The architected state of a VCPU as seen by a core.
#[derive(Debug)]
pub struct ExecContext {
    stream: Rc<RefCell<SharedStream>>,
    /// Which fork side's cursor this context advances.
    side: usize,
    /// Context-local copy of ops `[local_base, local_base + len)`;
    /// the per-op fast path reads only this.
    local: Vec<MicroOp>,
    /// Sequence number of `local[0]`.
    local_base: u64,
    vm: VmId,
    vcpu: VcpuId,
    /// Dynamic instruction number of the next op to dispatch.
    seq: u64,
    /// User-level instructions committed by this context.
    pub user_commits: u64,
    /// OS-level instructions committed by this context.
    pub os_commits: u64,
    /// Instructions committed without DMR protection (no commit gate
    /// installed on the executing core).
    pub unprotected_commits: u64,
}

impl ExecContext {
    /// Wraps a workload stream as a runnable context that generates
    /// its ops on the calling thread.
    pub fn new(stream: OpStream) -> Self {
        Self::from_source(stream.into())
    }

    /// Wraps a trace replay as a runnable context (trace-driven
    /// simulation).
    pub fn from_replay(replay: TraceReplay) -> Self {
        Self::from_source(replay.into())
    }

    /// Wraps any op source as a runnable context.
    pub fn from_source(source: OpSource) -> Self {
        let vm = source.vm();
        let vcpu = source.vcpu();
        Self {
            stream: Rc::new(RefCell::new(SharedStream::new(source))),
            side: 0,
            local: Vec::with_capacity(BATCH),
            local_base: 0,
            vm,
            vcpu,
            seq: 0,
            user_commits: 0,
            os_commits: 0,
            unprotected_commits: 0,
        }
    }

    /// Splits off the redundant half of a DMR pair: the returned
    /// context reads the *same* generated op sequence as `self`, each
    /// op generated exactly once no matter which side reaches it
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `self` is still coupled to a live fork partner.
    pub fn fork(&mut self) -> ExecContext {
        assert_eq!(
            Rc::strong_count(&self.stream),
            1,
            "cannot fork a context whose fork partner is still alive"
        );
        {
            let mut s = self.stream.borrow_mut();
            // Anything the dropped previous partner generated ahead is
            // ours now; both new cursors start at our position.
            s.taken = [self.seq; 2];
            if self.seq > s.floor {
                s.floor = self.seq;
            }
        }
        self.side = 0;
        ExecContext {
            stream: Rc::clone(&self.stream),
            side: 1,
            // The partner starts from an identical copy of the local
            // window, so any already-copied ops replay on both sides.
            local: self.local.clone(),
            local_base: self.local_base,
            vm: self.vm,
            vcpu: self.vcpu,
            seq: self.seq,
            user_commits: self.user_commits,
            os_commits: self.os_commits,
            unprotected_commits: self.unprotected_commits,
        }
    }

    /// Installs a self-profiler handle on the shared stream, so
    /// generation cost is attributed no matter which fork side
    /// triggers it. Purely observational.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.stream.borrow_mut().profiler = profiler;
    }

    /// The VCPU this context belongs to.
    pub fn vcpu(&self) -> VcpuId {
        self.vcpu
    }

    /// The VM this context belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// Sequence number of the next op to dispatch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Refills the local window from the shared ring: report this
    /// side's consumption, advance the trim floor, generate forward as
    /// needed, and copy the next `BATCH` ops. The only path that
    /// touches the `Rc<RefCell<..>>`; runs once per window.
    #[cold]
    fn refill(&mut self) {
        let alone = Rc::strong_count(&self.stream) == 1;
        let mut guard = self.stream.borrow_mut();
        let s = &mut *guard;
        s.taken[self.side] = self.seq;
        if alone {
            // A dropped partner's stale cursor must not pin the ring.
            s.taken[1 - self.side] = self.seq;
        }
        let min = s.taken[0].min(s.taken[1]);
        if min > s.floor {
            s.floor = min;
        }
        let want = self.seq + BATCH as u64;
        s.generate_to(want);
        // The window is contiguous in seq space, so it spans at most
        // two contiguous ring segments — copy slices, not elements.
        self.local.clear();
        let lo = (self.seq & s.mask) as usize;
        let hi = ((want - 1) & s.mask) as usize + 1;
        if lo < hi {
            self.local.extend_from_slice(&s.ring[lo..hi]);
        } else {
            self.local.extend_from_slice(&s.ring[lo..]);
            self.local.extend_from_slice(&s.ring[..hi]);
        }
        self.local_base = self.seq;
    }

    /// Peeks the next op without consuming it.
    #[inline]
    pub fn peek(&mut self) -> &MicroOp {
        let i = (self.seq - self.local_base) as usize;
        if i >= self.local.len() {
            self.refill();
        }
        &self.local[(self.seq - self.local_base) as usize]
    }

    /// Consumes the op most recently returned by
    /// [`ExecContext::peek`], yielding its sequence number. The caller
    /// already holds the op, so nothing is copied.
    ///
    /// # Panics
    ///
    /// Debug-panics unless a `peek` made the current position resident
    /// in the local window.
    #[inline]
    pub fn advance(&mut self) -> u64 {
        debug_assert!(
            ((self.seq - self.local_base) as usize) < self.local.len(),
            "advance without a preceding peek"
        );
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Consumes the next op, advancing the stream position.
    #[inline]
    pub fn take(&mut self) -> (u64, MicroOp) {
        let i = (self.seq - self.local_base) as usize;
        let op = if let Some(op) = self.local.get(i) {
            *op
        } else {
            self.refill();
            self.local[(self.seq - self.local_base) as usize]
        };
        let seq = self.seq;
        self.seq += 1;
        (seq, op)
    }

    /// Total committed instructions.
    pub fn commits(&self) -> u64 {
        self.user_commits + self.os_commits
    }

    /// Privilege level the stream is currently executing at (the
    /// privilege of the next op).
    pub fn current_privilege(&mut self) -> Privilege {
        self.peek().privilege
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_workload::Benchmark;

    fn ctx() -> ExecContext {
        ExecContext::new(OpStream::new(
            Benchmark::Oltp.profile(),
            VmId(0),
            VcpuId(2),
            7,
        ))
    }

    #[test]
    fn peek_then_take_returns_same_op() {
        let mut c = ctx();
        let peeked = *c.peek();
        let (seq, taken) = c.take();
        assert_eq!(seq, 0);
        assert_eq!(peeked, taken);
        assert_eq!(c.seq(), 1);
    }

    #[test]
    fn forks_replay_identically_at_any_skew() {
        let mut a = ctx();
        for _ in 0..50 {
            a.take();
        }
        a.peek(); // a pending window must survive the fork on both sides
        let mut b = a.fork();
        let mut expect = ctx();
        for _ in 0..50 {
            expect.take();
        }
        // Interleave with heavy skew in both directions.
        let mut ea: Vec<(u64, MicroOp)> = Vec::new();
        let mut eb: Vec<(u64, MicroOp)> = Vec::new();
        for round in 0..10 {
            let (na, nb) = if round % 2 == 0 { (60, 5) } else { (5, 60) };
            for _ in 0..na {
                ea.push(a.take());
            }
            for _ in 0..nb {
                eb.push(b.take());
            }
            // Catch the laggard up at the end of each round.
            while eb.len() < ea.len() {
                eb.push(b.take());
            }
            while ea.len() < eb.len() {
                ea.push(a.take());
            }
        }
        assert_eq!(ea, eb);
        // A pair-bounded divergence never forces the ring to grow.
        assert_eq!(a.stream.borrow().ring.len(), RING_CAP);
        // And the sequence matches an unforked replay exactly.
        for (i, (seq, op)) in ea.iter().enumerate() {
            let (es, eo) = expect.take();
            assert_eq!((*seq, *op), (es, eo), "op {i}");
        }
    }

    #[test]
    fn survivor_replays_what_partner_generated_ahead() {
        let mut a = ctx();
        let mut b = a.fork();
        for _ in 0..10 {
            a.take();
            b.take();
        }
        // Partner runs ahead, then is dropped (decouple discards the
        // mute's context mid-stream).
        for _ in 0..7 {
            b.take();
        }
        drop(b);
        let mut expect = ctx();
        for _ in 0..10 {
            expect.take();
        }
        // The survivor must replay ops 10..17 from the shared window,
        // then continue generating — no gap, no repeat.
        for _ in 0..100 {
            assert_eq!(a.take(), expect.take());
        }
        // And a re-fork from the survivor stays identical too.
        let mut c = a.fork();
        for _ in 0..100 {
            let e = expect.take();
            assert_eq!(a.take(), e);
            assert_eq!(c.take(), e);
        }
    }

    #[test]
    fn ring_grows_when_a_survivor_runs_far_ahead() {
        let mut a = ctx();
        let b = a.fork();
        // The partner never advances past 0 and its handle stays
        // alive, so the ring must retain everything `a` generates —
        // past RING_CAP it has to grow, and the replay must survive
        // the re-placement.
        let mut taken = Vec::new();
        for _ in 0..(RING_CAP * 3) {
            taken.push(a.take());
        }
        assert!(a.stream.borrow().ring.len() > RING_CAP);
        let mut expect = ctx();
        for (i, e) in taken.iter().enumerate() {
            assert_eq!(*e, expect.take(), "op {i}");
        }
        // The stalled partner replays the same prefix from seq 0.
        let mut b = b;
        let mut expect = ctx();
        for i in 0..64 {
            assert_eq!(b.take(), expect.take(), "partner op {i}");
        }
    }

    #[test]
    fn identity_is_preserved() {
        let c = ctx();
        assert_eq!(c.vcpu(), VcpuId(2));
        assert_eq!(c.vm(), VmId(0));
        assert_eq!(c.commits(), 0);
    }
}
