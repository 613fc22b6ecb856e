//! The event wheel: the system clock's registry of future wake
//! sources.
//!
//! [`crate::system::System::tick`] advances the machine cycle by
//! cycle, but most cycles do nothing: every core has proved itself
//! blocked until a known wake cycle, no scheduler boundary falls in
//! between, and no external event arrives. The event wheel makes the
//! "no external event" half of that claim checkable in O(1): every
//! source of system-level work registers the next cycle at which it
//! could act —
//!
//! * the gang/overcommit timeslice boundary ([`WakeSource::Slice`]),
//! * the flight-recorder sample boundary ([`WakeSource::Sample`]),
//! * the next transient-fault arrival ([`WakeSource::Fault`]) —
//!   pre-drawn as a geometric inter-arrival event by the injector,
//!   one draw per arrival instead of one Bernoulli trial per cycle,
//! * the single-OS trap poll ([`WakeSource::SingleOsPoll`]) — the
//!   earliest cycle at which a pair's boundary/drain/stall conditions
//!   could let a per-syscall mode transition fire,
//!
//! and the clock jumps straight to the earliest of these and the
//! per-core wake hints. Sources that cannot act (sampler off, no
//! injector, not a single-OS workload) stay parked at [`Cycle::MAX`]
//! and never pin the clock.
//!
//! ## Why fixed slots, not a heap or hierarchical wheel
//!
//! The classic implementations index *many* dynamic timers. This
//! simulator has exactly four scheduler-level sources, each with at
//! most one outstanding deadline that is re-registered on every
//! actual tick; the per-core wake cycles (up to 16) are already
//! aggregated into a running minimum by the core loop itself. At that
//! population a fixed slot array beats both a binary heap (whose
//! sift costs exceed a four-way min) and a hierarchical wheel (whose
//! cascade bookkeeping is pure overhead when every deadline is
//! rewritten each tick) — measured on Reunion/OLTP with and without
//! fault injection and on single-OS/Apache (the configurations of
//! `mmm-benchmark`'s `dmr_oltp_faults` and `singleos_apache`), the
//! slot array is the only variant whose maintenance cost stays
//! invisible in profiles. The type keeps the wheel *interface*
//! (schedule / cancel / next-event) so a larger population can swap
//! the representation without touching callers.

use mmm_types::Cycle;

/// A scheduler-level wake source with at most one registered deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeSource {
    /// Gang/overcommit timeslice boundary (`next_slice`).
    Slice = 0,
    /// Flight-recorder sample boundary.
    Sample = 1,
    /// Next transient-fault arrival (geometric inter-arrival draw).
    Fault = 2,
    /// Earliest cycle the single-OS trap poll could transition a pair.
    SingleOsPoll = 3,
}

const SOURCES: usize = 4;

/// The registry of future system-level events.
///
/// ```
/// use mmm_core::wheel::{EventWheel, WakeSource};
///
/// let mut wheel = EventWheel::new();
/// assert_eq!(wheel.next_event(1, u64::MAX), u64::MAX); // nothing due
/// wheel.schedule(WakeSource::Slice, 500);
/// wheel.schedule(WakeSource::Fault, 120);
/// assert_eq!(wheel.at(WakeSource::Fault), 120);
/// // Jump target: earliest of the registered events and the core
/// // wake minimum, floored at the next cycle.
/// assert_eq!(wheel.next_event(1, 300), 120);
/// wheel.cancel(WakeSource::Fault);
/// assert_eq!(wheel.next_event(1, 300), 300);
/// ```
#[derive(Clone, Debug)]
pub struct EventWheel {
    slots: [Cycle; SOURCES],
}

impl Default for EventWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl EventWheel {
    /// An empty wheel: every source parked at [`Cycle::MAX`].
    pub fn new() -> Self {
        Self {
            slots: [Cycle::MAX; SOURCES],
        }
    }

    /// Registers (or moves) `source`'s next deadline.
    #[inline]
    pub fn schedule(&mut self, source: WakeSource, at: Cycle) {
        self.slots[source as usize] = at;
    }

    /// Parks `source`: it no longer pins the clock.
    #[inline]
    pub fn cancel(&mut self, source: WakeSource) {
        self.slots[source as usize] = Cycle::MAX;
    }

    /// `source`'s registered deadline ([`Cycle::MAX`] when parked).
    #[inline]
    pub fn at(&self, source: WakeSource) -> Cycle {
        self.slots[source as usize]
    }

    /// The next cycle the system must actually simulate: the earliest
    /// registered deadline or `core_wake` (the aggregated per-core
    /// wake minimum), but never before `floor` (the next cycle —
    /// events at or before the current cycle have already been
    /// dispatched this tick).
    #[inline]
    pub fn next_event(&self, floor: Cycle, core_wake: Cycle) -> Cycle {
        let mut min = core_wake;
        for &s in &self.slots {
            min = min.min(s);
        }
        min.max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_wheel_never_pins_the_clock() {
        let wheel = EventWheel::new();
        assert_eq!(wheel.next_event(10, Cycle::MAX), Cycle::MAX);
        assert_eq!(wheel.next_event(10, 42), 42);
        for s in [
            WakeSource::Slice,
            WakeSource::Sample,
            WakeSource::Fault,
            WakeSource::SingleOsPoll,
        ] {
            assert_eq!(wheel.at(s), Cycle::MAX);
        }
    }

    #[test]
    fn earliest_source_wins() {
        let mut wheel = EventWheel::new();
        wheel.schedule(WakeSource::Slice, 900);
        wheel.schedule(WakeSource::Sample, 400);
        wheel.schedule(WakeSource::Fault, 700);
        assert_eq!(wheel.next_event(1, Cycle::MAX), 400);
        assert_eq!(wheel.next_event(1, 250), 250);
    }

    #[test]
    fn floor_bounds_overdue_events() {
        let mut wheel = EventWheel::new();
        wheel.schedule(WakeSource::SingleOsPoll, 5);
        // An event at/before `now` was dispatched this tick; the jump
        // target never goes backwards.
        assert_eq!(wheel.next_event(100, Cycle::MAX), 100);
    }

    #[test]
    fn schedule_overwrites_and_cancel_parks() {
        let mut wheel = EventWheel::new();
        wheel.schedule(WakeSource::Fault, 50);
        wheel.schedule(WakeSource::Fault, 80);
        assert_eq!(wheel.at(WakeSource::Fault), 80);
        wheel.cancel(WakeSource::Fault);
        assert_eq!(wheel.at(WakeSource::Fault), Cycle::MAX);
        assert_eq!(wheel.next_event(1, Cycle::MAX), Cycle::MAX);
    }
}
