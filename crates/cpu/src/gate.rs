//! The commit gate: the core's view of Reunion's Check stage.
//!
//! When a core operates as half of a DMR pair, every instruction must
//! wait in the Check stage until its fingerprint block has been
//! exchanged with and validated against the partner core (paper
//! §3.2). The core publishes each dispatched op's execution-completion
//! time and observed load version to its [`PairGate`], and later asks
//! the gate whether a given sequence number may commit.
//! `mmm-reunion` couples two cores through one shared
//! [`PairChannel`]; performance-mode cores have no gate at all.

use std::cell::RefCell;
use std::rc::Rc;

use mmm_mem::VersionToken;
use mmm_types::{Cycle, LineAddr};

use crate::channel::{PairChannel, Side};

/// A dispatch report not yet pushed to the channel: `(seq, exec-done
/// cycle, observed load version)`.
type PendingPublish = (u64, Cycle, Option<(LineAddr, VersionToken)>);

/// One side's view of the shared pair channel, with a release-time
/// hold cache.
///
/// [`PairChannel::commit_time`] results for a fixed seq are
/// non-decreasing over time (per-side prefix maxima and the recovery
/// floor only ever rise), so a returned release cycle is a sound
/// lower bound: until it arrives the core cannot commit, and the gate
/// skips the channel poll entirely. A `None` result (partner
/// fingerprint missing) is bounded the same way through
/// [`PairChannel::none_poll_delay`]. Neither shortcut changes any
/// commit cycle — it only removes redundant polls.
pub struct PairGate {
    channel: Rc<RefCell<PairChannel>>,
    side: Side,
    /// `(seq, until)` — the head seq cannot commit before `until`.
    hold: Option<(u64, Cycle)>,
    /// Dispatches not yet pushed to the channel (see
    /// [`PairGate::on_dispatch`]).
    pending: [PendingPublish; 8],
    /// Number of live entries in `pending`.
    pending_len: u8,
    /// `(cycle, upto)` — every seq ≤ `upto` was released at `cycle`.
    /// Valid only within that cycle: the commit stage polls the gate
    /// once per retiring op, all in one tick, before this core (or its
    /// partner, which ticks in the same system pass) publishes
    /// anything new — so one channel poll can vouch for the whole
    /// commit burst.
    grant: (Cycle, u64),
    /// Poll-skip span after a partner-lag (`None`) poll.
    none_skip: u32,
}

impl PairGate {
    /// Creates the gate for `side` of `channel`.
    pub fn new(channel: Rc<RefCell<PairChannel>>, side: Side) -> Self {
        let none_skip = channel.borrow().none_poll_delay();
        Self {
            channel,
            side,
            hold: None,
            pending: [(0, 0, None); 8],
            pending_len: 0,
            grant: (Cycle::MAX, 0),
            none_skip,
        }
    }

    /// Reports a dispatched op to the Check stage: its sequence
    /// number, the cycle its execution completes, and — for loads —
    /// the `(line, version)` it observed, which is the
    /// input-incoherence-sensitive part of the fingerprint.
    ///
    /// Buffered: nothing reads the channel between a core's dispatches
    /// and the end of its tick, so one borrow per tick
    /// ([`PairGate::flush`]) publishes the whole burst.
    pub(crate) fn on_dispatch(
        &mut self,
        seq: u64,
        exec_done: Cycle,
        load_obs: Option<(LineAddr, VersionToken)>,
    ) {
        if self.pending_len as usize == self.pending.len() {
            self.flush_pending();
        }
        self.pending[self.pending_len as usize] = (seq, exec_done, load_obs);
        self.pending_len += 1;
    }

    /// Publishes any buffered dispatches. The owning core calls this
    /// at the end of every tick's dispatch stage, before any other
    /// agent can observe the channel.
    pub(crate) fn flush(&mut self) {
        if self.pending_len > 0 {
            self.flush_pending();
        }
    }

    fn flush_pending(&mut self) {
        let mut ch = self.channel.borrow_mut();
        for &(seq, done, obs) in &self.pending[..self.pending_len as usize] {
            ch.publish(self.side, seq, done, obs);
        }
        self.pending_len = 0;
    }

    /// Whether op `seq` may commit at `now`.
    pub(crate) fn released(&mut self, seq: u64, now: Cycle) -> bool {
        if now == self.grant.0 && seq <= self.grant.1 {
            return true;
        }
        if let Some((held_seq, until)) = self.hold {
            if held_seq == seq && now < until {
                return false;
            }
        }
        let mut ch = self.channel.borrow_mut();
        ch.prune_below(seq);
        // Resolve the whole commit burst in one walk: the grant lets
        // the burst's remaining polls short-circuit to a compare, and
        // a failed poll reuses the same walk's release bound for the
        // hold cache instead of re-walking via `commit_time`.
        match ch.released_or_next(self.side, seq, now, 8) {
            Ok(upto) => {
                self.grant = (now, upto);
                self.hold = None;
                true
            }
            Err(Some(t)) => {
                debug_assert!(t > now, "released_or_next missed a release");
                self.hold = Some((seq, t));
                false
            }
            Err(None) => {
                self.hold = Some((seq, now + self.none_skip as Cycle));
                false
            }
        }
    }

    /// Lower bound on the next cycle at which a currently-held op
    /// could be released, from the hold cache (zero when no bound is
    /// cached).
    pub(crate) fn hold_until(&self) -> Cycle {
        self.hold.map(|(_, t)| t).unwrap_or(0)
    }

    /// Extra fetch-stall cycles after a serializing instruction
    /// commits: under Reunion the SI must be validated before younger
    /// instructions may enter the pipeline (§5.1).
    pub(crate) fn si_resume_delay(&self) -> u32 {
        self.channel.borrow().si_resume_delay()
    }

    /// Informs the gate that the core squashed all ops with sequence
    /// numbers ≥ `from_seq` (pipeline flush at a mode switch); their
    /// fingerprints will be re-published.
    pub(crate) fn on_squash(&mut self, from_seq: u64) {
        self.hold = None;
        self.grant = (Cycle::MAX, 0);
        self.channel.borrow_mut().on_squash(from_seq);
    }
}
