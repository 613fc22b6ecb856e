//! The fingerprint exchange channel between the two cores of a pair.
//!
//! Each side publishes, in dispatch order, the execution-completion
//! time of every instruction plus — for loads — the `(line, version)`
//! observed. The channel releases an instruction for commit once both
//! sides have published it and the fingerprint latency has elapsed,
//! mirroring the Check stage: `release(seq) = max(vocal progress,
//! mute progress through seq) + fingerprint latency + Check depth`.
//!
//! Version mismatches (input incoherence, or an injected fault) raise
//! a *recovery*: both sides stall for the recovery penalty plus a
//! sync-request round trip, and the mute's offending line is queued
//! for healing (invalidate + refetch).

use std::cell::Cell;
use std::rc::Rc;

use mmm_mem::VersionToken;
use mmm_types::config::{CoreConfig, ReunionConfig};
use mmm_types::stats::Log2Histogram;
use mmm_types::{Cycle, LineAddr};

/// Which half of the pair a core is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The master: fully coherent, architecturally visible.
    Vocal,
    /// The slave: incoherent private hierarchy, never exposes state.
    Mute,
}

impl Side {
    fn idx(self) -> usize {
        match self {
            Side::Vocal => 0,
            Side::Mute => 1,
        }
    }
}

/// Counters accumulated by one pair channel.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Instructions compared (both sides published).
    pub ops_compared: u64,
    /// Fingerprint mismatches from stale mute data.
    pub input_incoherence: u64,
    /// Fingerprint mismatches from injected faults.
    pub faults_detected: u64,
    /// Total recovery stall cycles charged.
    pub recovery_cycles: u64,
    /// Comparison records resident in the channel at each successful
    /// commit-gate release walk (exchange-buffer occupancy).
    pub occupancy: Log2Histogram,
    /// Instructions released per successful commit-gate walk
    /// (commit-burst size).
    pub commit_burst: Log2Histogram,
}

/// One instruction's comparison record, kept to exactly one cache
/// line: "has side i published this seq" is not stored here — it is
/// equivalent to `published[i] >= seq` because sides publish in strict
/// order (and squash rolls the counters and the records back
/// together), which also pins the compare to the exact publish that
/// completes the pair, so no `compared` flag is needed either.
#[derive(Clone, Copy, Debug, Default)]
struct OpRecord {
    /// Running per-side maximum of exec_done through this seq.
    prefix_done: [Cycle; 2],
    obs: [Option<(LineAddr, VersionToken)>; 2],
}

/// Records kept behind the seq a gate polls (see
/// [`PairChannel::prune_below`]).
const PRUNE_WINDOW: u64 = 1024;

/// Initial record-ring capacity for cores of `window_entries`-entry
/// instruction windows. A read reaches back only to the lower of the
/// two gates' polled seqs, a core's commit head. The leading core
/// commits only what both cores published, so its head is at most one
/// past the lagging core's publish frontier, itself at most a window
/// past the lagging core's head, and the leading core's own frontier is
/// at most a window past its head: the ring holds `2·window + 1`
/// records (257 of them for 128-entry windows, as measured on the
/// paired machines of all six benchmarks).
fn ring_records(window_entries: u32) -> usize {
    (2 * window_entries as usize + 1).next_power_of_two()
}

/// The exchange channel shared by the two gates of a DMR pair
/// (`mmm-reunion`'s `DmrPair`).
#[derive(Debug)]
pub struct PairChannel {
    cfg: ReunionConfig,
    base_seq: u64,
    /// Record ring: seq `q`'s slot is `records[q & rec_mask]`, holding
    /// the readable span from [`Self::read_floor`] to the publish
    /// frontier. Slots are never cleared — every field of a record is
    /// written by the publishes that precede any read of it, so stale
    /// contents are unreachable. The ring starts empty with room for
    /// `rec_mask + 1` slots, and a publish to a slot past its length
    /// first extends it, so set-up writes none of it.
    records: Vec<OpRecord>,
    rec_mask: u64,
    /// Number of live records, `[base_seq, base_seq + live)` (what
    /// `records.len()` was when this was a `VecDeque`); feeds the
    /// occupancy histogram. Records below the read floor stay live but
    /// are never read.
    live: u64,
    /// Per side: the seq its gate last polled, its commit head, which
    /// never moves back (`base_seq` until its first poll).
    polled: [u64; 2],
    /// Highest contiguous published seq per side (`None` until first).
    published: [Option<u64>; 2],
    /// Running prefix max of exec completion per side.
    prefix: [Cycle; 2],
    /// All commits must wait at least until this cycle (recovery).
    recovery_floor: Cycle,
    /// Pending heal requests for the mute core's stale lines.
    heals: Vec<LineAddr>,
    /// Mismatches detected since the last drain: `(detect cycle,
    /// cause)` with cause `"input_incoherence"` or `"fault"`.
    mismatches: Vec<(Cycle, &'static str)>,
    /// Inject a fault into the next compared instruction.
    pending_fault: bool,
    /// Raised whenever a heal or mismatch is queued; shared with the
    /// pair's per-cycle service hook so it can skip the drain (and the
    /// channel borrow) on the vast majority of cycles, where nothing
    /// is pending.
    service_dirty: Rc<Cell<bool>>,
    stats: PairStats,
}

impl PairChannel {
    /// Creates a channel between cores of the default instruction
    /// window. `base_seq` is the stream position at which the pair was
    /// coupled.
    pub fn new(cfg: ReunionConfig, base_seq: u64) -> Self {
        Self::for_window(cfg, base_seq, CoreConfig::default().window_entries)
    }

    /// Creates a channel between cores of `window_entries`-entry
    /// instruction windows, whose record ring then never grows.
    /// `base_seq` is the stream position at which the pair was coupled.
    pub fn for_window(cfg: ReunionConfig, base_seq: u64, window_entries: u32) -> Self {
        let cap = ring_records(window_entries);
        Self {
            cfg,
            base_seq,
            records: Vec::with_capacity(cap),
            rec_mask: cap as u64 - 1,
            live: 0,
            polled: [base_seq; 2],
            published: [None; 2],
            prefix: [0; 2],
            recovery_floor: 0,
            heals: Vec::new(),
            mismatches: Vec::new(),
            pending_fault: false,
            service_dirty: Rc::new(Cell::new(false)),
            stats: PairStats::default(),
        }
    }

    /// Channel counters.
    pub fn stats(&self) -> &PairStats {
        &self.stats
    }

    /// Resets counters (after warm-up) without touching exchange
    /// state.
    pub fn reset_stats(&mut self) {
        self.stats = PairStats::default();
    }

    /// Arms a transient fault: the next instruction compared will
    /// mismatch and be recovered (used by the fault injector). Returns
    /// whether this call newly armed the fault (`false` when one was
    /// already pending — the two injections merge into one detection).
    pub fn inject_fault(&mut self) -> bool {
        let newly_armed = !self.pending_fault;
        self.pending_fault = true;
        newly_armed
    }

    /// Handle on the flag raised whenever this channel queues work
    /// for the per-cycle service drain.
    pub fn service_flag(&self) -> Rc<Cell<bool>> {
        Rc::clone(&self.service_dirty)
    }

    /// Takes the pending mute-heal requests.
    pub fn take_heals(&mut self) -> Vec<LineAddr> {
        std::mem::take(&mut self.heals)
    }

    /// Takes pending heals and mismatches in one call — the per-cycle
    /// service hook's single-borrow drain.
    #[allow(clippy::type_complexity)]
    pub fn drain_service(&mut self) -> (Vec<LineAddr>, Vec<(Cycle, &'static str)>) {
        (
            std::mem::take(&mut self.heals),
            std::mem::take(&mut self.mismatches),
        )
    }

    /// Minimum cycles between a commit-gate poll that found the
    /// partner's fingerprint missing and the earliest possible
    /// release: the partner publishes at the earliest on the poll
    /// cycle itself with execution completing at least one cycle
    /// later, and the release adds the fingerprint exchange plus the
    /// Check depth on top. Lets the gate skip re-polling without
    /// changing any commit cycle.
    pub fn none_poll_delay(&self) -> u32 {
        1 + self.cfg.fingerprint_latency + self.cfg.check_stages
    }

    /// Takes the mismatches detected since the last drain, as
    /// `(detect cycle, cause)` pairs. Drained once per simulated cycle
    /// by the pair's service hook (which feeds the trace layer).
    pub fn take_mismatches(&mut self) -> Vec<(Cycle, &'static str)> {
        std::mem::take(&mut self.mismatches)
    }

    fn rec_index(&self, seq: u64) -> usize {
        (seq & self.rec_mask) as usize
    }

    /// Record-ring capacity, in records.
    pub fn ring_records(&self) -> usize {
        self.rec_mask as usize + 1
    }

    /// The lowest seq any later read can reach: a gate polls its
    /// commit head, which never moves back, and reads only at or above
    /// the seq it polls, and nothing reads below `base_seq`.
    fn read_floor(&self) -> u64 {
        self.base_seq.max(self.polled[0].min(self.polled[1]))
    }

    /// Doubles the ring, re-placing the readable span at its new
    /// masked positions. Only reached when a read can reach further
    /// back than the ring holds: a drive whose gates never poll
    /// through [`Self::released_or_next`], or cores whose windows are
    /// larger than the ring was sized for.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.rec_mask as usize + 1) * 2;
        let new_mask = new_cap as u64 - 1;
        let mut new_ring = vec![OpRecord::default(); new_cap];
        for q in self.read_floor()..self.base_seq + self.live {
            new_ring[(q & new_mask) as usize] = self.records[(q & self.rec_mask) as usize];
        }
        self.records = new_ring;
        self.rec_mask = new_mask;
    }

    /// Publishes one dispatched instruction from `side`.
    ///
    /// # Panics
    ///
    /// Panics if publishes arrive out of order (cores dispatch in
    /// order, so this indicates a simulator bug) or refer to a seq
    /// before the coupling point.
    pub fn publish(
        &mut self,
        side: Side,
        seq: u64,
        exec_done: Cycle,
        obs: Option<(LineAddr, VersionToken)>,
    ) {
        let i = side.idx();
        assert!(seq >= self.base_seq, "publish before coupling point");
        if let Some(last) = self.published[i] {
            assert_eq!(seq, last + 1, "side must publish in dispatch order");
        } else {
            assert_eq!(seq, self.base_seq, "first publish must be the base");
        }
        self.published[i] = Some(seq);
        let rel = seq - self.base_seq;
        if rel >= self.live {
            self.live = rel + 1;
            // A new frontier: its slot must not be one a read can
            // still reach.
            while seq - self.read_floor() > self.rec_mask {
                self.grow();
            }
        }
        let idx = self.rec_index(seq);
        if idx >= self.records.len() {
            self.records.resize(idx + 1, OpRecord::default());
        }
        self.prefix[i] = self.prefix[i].max(exec_done);
        let rec = &mut self.records[idx];
        rec.prefix_done[i] = self.prefix[i];
        rec.obs[i] = obs;
        // This publish completes the pair iff the partner is already
        // at or past `seq` — the one moment both fingerprints exist.
        if self.published[i ^ 1] >= Some(seq) {
            self.compare(idx);
        }
    }

    /// Compares a fully published instruction, raising recovery on
    /// mismatch.
    fn compare(&mut self, idx: usize) {
        let rec = &self.records[idx];
        self.stats.ops_compared += 1;
        let vocal_obs = rec.obs[Side::Vocal.idx()];
        let mute_obs = rec.obs[Side::Mute.idx()];
        let fault = std::mem::take(&mut self.pending_fault);
        let incoherent = match (vocal_obs, mute_obs) {
            (Some((vl, vv)), Some((ml, mv))) => {
                debug_assert_eq!(vl, ml, "redundant streams access the same line");
                vv != mv
            }
            (None, None) => false,
            _ => unreachable!("redundant streams have identical op shapes"),
        };
        if !fault && !incoherent {
            return;
        }
        self.service_dirty.set(true);
        // Detection happens when the later side's fingerprint arrives.
        let detect =
            rec.prefix_done[0].max(rec.prefix_done[1]) + self.cfg.fingerprint_latency as Cycle;
        let stall = (self.cfg.recovery_penalty + self.cfg.sync_latency) as Cycle;
        self.recovery_floor = self.recovery_floor.max(detect + stall);
        self.stats.recovery_cycles += stall;
        if incoherent {
            self.stats.input_incoherence += 1;
            self.mismatches.push((detect, "input_incoherence"));
            if let Some((line, _)) = mute_obs {
                self.heals.push(line);
            }
        }
        if fault {
            self.stats.faults_detected += 1;
            self.mismatches.push((detect, "fault"));
        }
    }

    /// Earliest commit cycle for `seq` as seen from `side`, or `None`
    /// if the partner has not yet published through `seq`.
    ///
    /// A fingerprint summarizes `fingerprint_interval` instructions,
    /// so an op is released only when its whole block has executed on
    /// both sides — up to the natural flush point: if the cores have
    /// stalled dispatch mid-block (serializing drain, trap), the
    /// fingerprint covering what has been published so far is
    /// exchanged instead, so progress never deadlocks.
    pub fn commit_time(&self, seq: u64, _now: Cycle) -> Option<Cycle> {
        let (Some(p0), Some(p1)) = (self.published[0], self.published[1]) else {
            return None;
        };
        if p0 < seq || p1 < seq || seq < self.base_seq {
            return None;
        }
        let interval = self.cfg.fingerprint_interval.max(1) as u64;
        let block_end = (seq / interval + 1) * interval - 1;
        let upto = p0.min(p1).min(block_end);
        let rec = &self.records[self.rec_index(upto)];
        let release = rec.prefix_done[0].max(rec.prefix_done[1])
            + (self.cfg.fingerprint_latency + self.cfg.check_stages) as Cycle;
        Some(release.max(self.recovery_floor))
    }

    /// Resolves `side`'s commit poll of its head, `seq`, in one walk.
    /// `Ok(upto)` is the largest seq in `[seq, seq + cap]` released at
    /// `now`, walking fingerprint-block by fingerprint-block (every seq
    /// in one block shares its release time — see
    /// [`PairChannel::commit_time`]); the result agrees with
    /// `commit_time(s, now) <= now` for every
    /// `s` in the span. When `seq` itself is not released, `Err`
    /// carries exactly `commit_time(seq, now)` — the future release
    /// bound, or `None` while the partner has not published through
    /// `seq` — so the gate learns the released span *and* the re-poll
    /// bound from a single channel borrow.
    pub fn released_or_next(
        &mut self,
        side: Side,
        seq: u64,
        now: Cycle,
        cap: u64,
    ) -> Result<u64, Option<Cycle>> {
        self.polled[side.idx()] = seq;
        let (Some(p0), Some(p1)) = (self.published[0], self.published[1]) else {
            return Err(None);
        };
        if p0 < seq || p1 < seq || seq < self.base_seq {
            return Err(None);
        }
        let interval = self.cfg.fingerprint_interval.max(1) as u64;
        let lat = (self.cfg.fingerprint_latency + self.cfg.check_stages) as Cycle;
        let p = p0.min(p1);
        let mut granted = None;
        let mut s = seq;
        while s <= p && s - seq <= cap {
            let block_end = (s / interval + 1) * interval - 1;
            let upto = p.min(block_end);
            let rec = &self.records[self.rec_index(upto)];
            let release =
                (rec.prefix_done[0].max(rec.prefix_done[1]) + lat).max(self.recovery_floor);
            if release > now {
                if granted.is_none() {
                    // First block not released: `release` is exactly
                    // what `commit_time(seq, now)` would report.
                    return Err(Some(release));
                }
                break;
            }
            granted = Some(upto);
            s = upto + 1;
        }
        // The loop's first iteration always runs (`seq <= p` was just
        // checked) and either returned early or granted.
        let upto = granted.expect("first fingerprint block was walked");
        self.stats.occupancy.record(self.live);
        self.stats.commit_burst.record(upto - seq + 1);
        Ok(upto)
    }

    /// Extra fetch stall after a serializing instruction commits: the
    /// SI must be validated before younger instructions may enter the
    /// pipeline (§5.1) — a fingerprint round trip.
    pub fn si_resume_delay(&self) -> u32 {
        2 * self.cfg.fingerprint_latency + self.cfg.check_stages
    }

    /// Drops comparison records older than `seq` minus a full window —
    /// they can no longer be queried. Called opportunistically by the
    /// gates.
    pub fn prune_below(&mut self, seq: u64) {
        let keep_from = seq.saturating_sub(PRUNE_WINDOW).max(self.base_seq);
        let advance = (keep_from - self.base_seq).min(self.live);
        self.base_seq += advance;
        self.live -= advance;
    }

    /// Handles a pipeline squash from one side: both sides of a pair
    /// are always torn down together in this simulator, so the channel
    /// simply forgets everything past `from_seq`.
    pub fn on_squash(&mut self, from_seq: u64) {
        let keep = from_seq.saturating_sub(self.base_seq);
        self.live = self.live.min(keep);
        for i in 0..2 {
            if let Some(p) = self.published[i] {
                if p >= from_seq {
                    self.published[i] = if from_seq == self.base_seq {
                        None
                    } else {
                        Some(from_seq - 1)
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> PairChannel {
        PairChannel::new(ReunionConfig::default(), 0)
    }

    #[test]
    fn commit_waits_for_both_sides() {
        let mut ch = channel();
        ch.publish(Side::Vocal, 0, 100, None);
        assert_eq!(ch.commit_time(0, 105), None, "mute not published yet");
        ch.publish(Side::Mute, 0, 130, None);
        // Release = max(100,130) + 10 (fp) + 1 (check stage).
        assert_eq!(ch.commit_time(0, 140), Some(141));
    }

    #[test]
    fn release_uses_prefix_progress_not_single_op() {
        let mut ch = channel();
        // Op 0 slow, op 1 fast: op 1 cannot release before op 0's
        // execution is summarized (in-order Check).
        ch.publish(Side::Vocal, 0, 500, None);
        ch.publish(Side::Vocal, 1, 50, None);
        ch.publish(Side::Mute, 0, 40, None);
        ch.publish(Side::Mute, 1, 45, None);
        assert_eq!(ch.commit_time(1, 600), Some(511));
    }

    #[test]
    fn matching_loads_do_not_recover() {
        let mut ch = channel();
        ch.publish(Side::Vocal, 0, 10, Some((LineAddr(7), 0xAA)));
        ch.publish(Side::Mute, 0, 12, Some((LineAddr(7), 0xAA)));
        assert_eq!(ch.stats().input_incoherence, 0);
        assert!(ch.take_heals().is_empty());
        assert_eq!(ch.commit_time(0, 100), Some(12 + 11));
    }

    #[test]
    fn stale_mute_load_triggers_recovery_and_heal() {
        let mut ch = channel();
        ch.publish(Side::Vocal, 0, 10, Some((LineAddr(7), 0xAA)));
        ch.publish(Side::Mute, 0, 12, Some((LineAddr(7), 0xBB)));
        assert_eq!(ch.stats().input_incoherence, 1);
        assert_eq!(ch.take_heals(), vec![LineAddr(7)]);
        // Release is pushed past detection + recovery + sync.
        let cfg = ReunionConfig::default();
        let detect = 12 + cfg.fingerprint_latency as Cycle;
        let floor = detect + (cfg.recovery_penalty + cfg.sync_latency) as Cycle;
        assert_eq!(ch.commit_time(0, 1000), Some(floor));
        assert!(ch.stats().recovery_cycles > 0);
    }

    #[test]
    fn recovery_floor_applies_to_younger_ops() {
        let mut ch = channel();
        ch.publish(Side::Vocal, 0, 10, Some((LineAddr(7), 1)));
        ch.publish(Side::Mute, 0, 12, Some((LineAddr(7), 2)));
        ch.publish(Side::Vocal, 1, 14, None);
        ch.publish(Side::Mute, 1, 15, None);
        let t0 = ch.commit_time(0, 1000).unwrap();
        let t1 = ch.commit_time(1, 1000).unwrap();
        assert!(t1 >= t0, "recovery stalls younger instructions too");
    }

    #[test]
    fn injected_fault_is_detected_once() {
        let mut ch = channel();
        ch.inject_fault();
        ch.publish(Side::Vocal, 0, 10, None);
        ch.publish(Side::Mute, 0, 11, None);
        ch.publish(Side::Vocal, 1, 12, None);
        ch.publish(Side::Mute, 1, 13, None);
        assert_eq!(ch.stats().faults_detected, 1);
        assert_eq!(ch.stats().input_incoherence, 0);
    }

    #[test]
    fn si_resume_is_a_round_trip() {
        let ch = channel();
        assert_eq!(ch.si_resume_delay(), 21); // 2*10 + 1
    }

    #[test]
    fn pruning_keeps_queryable_window() {
        let mut ch = channel();
        for s in 0..3000u64 {
            ch.publish(Side::Vocal, s, s, None);
            ch.publish(Side::Mute, s, s + 1, None);
        }
        ch.prune_below(3000);
        assert!(ch.commit_time(2999, 10_000).is_some());
        assert!(ch.live <= 1100);
        // 3000 publishes with no poll forced the ring to double (and
        // the readable span to survive the re-placement).
        assert!(ch.ring_records() > ring_records(128));
    }

    /// Drives a 128-entry-window channel whose mute gate polls only
    /// once the vocal's head is `lag` seqs past its own, comparing every
    /// read with a ring too large to wrap here. Returns the widest span
    /// from the lower head to the publish frontier, and the channel.
    fn lagging_gate(lag: u64) -> (u64, PairChannel) {
        let cfg = ReunionConfig::default();
        let mut ch = PairChannel::for_window(cfg, 0, 128);
        let mut reference = PairChannel::for_window(cfg, 0, 4096);
        let mut rng = mmm_types::DetRng::new(0x1A66, lag);
        // Per side (vocal, mute): the head (the next seq to commit) and
        // the next seq to publish. The vocal keeps up to a window in
        // flight and the mute up to `lag`, so the vocal's frontier runs
        // `lag + 127` seqs past the mute's head.
        let (mut head, mut next) = ([0u64; 2], [0u64; 2]);
        let in_flight = [128, lag];
        let mut widest = 0;
        for step in 0..40_000u64 {
            let now = step / 2;
            let i = rng.below(2) as usize;
            let side = [Side::Vocal, Side::Mute][i];
            if rng.chance(0.6) {
                if next[i] < head[i] + in_flight[i] {
                    let seq = next[i];
                    let version = seq ^ u64::from(i == 1 && rng.chance(0.02));
                    let obs = (seq % 3 == 0).then_some((LineAddr(seq % 7), version));
                    let done = now + rng.below(30);
                    ch.publish(side, seq, done, obs);
                    reference.publish(side, seq, done, obs);
                    next[i] += 1;
                }
            } else if i == 0 || head[0] >= head[1] + lag {
                let seq = head[i];
                assert_eq!(
                    ch.commit_time(seq, now),
                    reference.commit_time(seq, now),
                    "lag {lag}, step {step}"
                );
                ch.prune_below(seq);
                reference.prune_below(seq);
                let polled = ch.released_or_next(side, seq, now, 8);
                assert_eq!(
                    polled,
                    reference.released_or_next(side, seq, now, 8),
                    "lag {lag}, step {step}"
                );
                if let Ok(upto) = polled {
                    head[i] = upto + 1;
                }
            }
            widest = widest.max(next[0].max(next[1]) - head[0].min(head[1]));
        }
        assert!(ch.stats().input_incoherence > 0);
        assert_eq!(ch.stats(), reference.stats(), "lag {lag}");
        assert_eq!(ch.take_heals(), reference.take_heals(), "lag {lag}");
        (widest, ch)
    }

    #[test]
    fn a_gate_lagging_by_129_reads_intact_records_without_growth() {
        let (widest, ch) = lagging_gate(129);
        assert_eq!(widest, 2 * 128 + 1, "the drive reaches the bound");
        assert_eq!(ch.ring_records(), 512, "the ring never grew");
    }

    #[test]
    fn a_gate_lagging_past_the_ring_grows_it_and_reads_intact_records() {
        let (widest, ch) = lagging_gate(400);
        assert_eq!(widest, 400 + 128);
        assert_eq!(ch.ring_records(), 1024);
    }

    #[test]
    #[should_panic(expected = "dispatch order")]
    fn out_of_order_publish_is_a_bug() {
        let mut ch = channel();
        ch.publish(Side::Vocal, 0, 1, None);
        ch.publish(Side::Vocal, 2, 2, None);
    }

    #[test]
    fn squash_forgets_future() {
        let mut ch = channel();
        ch.publish(Side::Vocal, 0, 1, None);
        ch.publish(Side::Vocal, 1, 2, None);
        ch.on_squash(1);
        // Republishing seq 1 is now legal.
        ch.publish(Side::Vocal, 1, 5, None);
        ch.publish(Side::Mute, 0, 3, None);
        ch.publish(Side::Mute, 1, 4, None);
        assert!(ch.commit_time(1, 100).is_some());
    }

    #[test]
    fn base_seq_offsets_are_respected() {
        let mut ch = PairChannel::new(ReunionConfig::default(), 500);
        ch.publish(Side::Vocal, 500, 10, None);
        ch.publish(Side::Mute, 500, 11, None);
        assert!(ch.commit_time(500, 100).is_some());
    }
}
