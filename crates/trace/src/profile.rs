//! Self-profiler: phase-level host-cost attribution for the hot loop.
//!
//! The simulator can observe everything about the *simulated* machine
//! (event tracing, metrics, the flight recorder) but, before this
//! module, nothing about its *own* execution cost. The [`Profiler`]
//! closes that gap: scoped timers attribute host wall-time to named
//! [`ProfPhase`]s of the hot loop (op generation, core
//! dispatch/commit, memory access, pair service, sampler service,
//! event-wheel bookkeeping, fast-forward jumps), and a set of
//! wheel/skip introspection counters records where the cycle-skipping
//! machinery actually spends its jumps.
//!
//! The handle follows the same discipline as [`crate::Tracer`] and
//! [`crate::Sampler`]: a cheap clonable `Option<Rc<RefCell<..>>>`
//! whose disabled form ([`Profiler::off`]) costs one branch per probe
//! — profiling is free when off, and a timing test enforces it. The
//! profiler only ever reads the host clock; it never touches
//! simulated state, so reports and metrics series stay bit-identical
//! with the profiler on or off.
//!
//! Time attribution is *exclusive*: entering a nested scope flushes
//! the elapsed time into the enclosing phase first, and dropping the
//! scope resumes it. Every nanosecond between [`Profiler::begin`] and
//! [`Profiler::end`] lands in exactly one phase, so phase shares sum
//! to exactly 100% of the measured window.
//!
//! ```
//! use mmm_trace::{ProfPhase, Profiler};
//!
//! let p = Profiler::enabled();
//! p.begin();
//! {
//!     let _core = p.enter(ProfPhase::Core);
//!     let _mem = p.enter(ProfPhase::Mem); // Core's clock pauses here
//! }
//! p.end();
//! let report = p.report().unwrap();
//! assert_eq!(report.total_nanos, report.phase_nanos.iter().map(|(_, n)| n).sum());
//!
//! let silent = Profiler::off(); // costs one branch per probe
//! let _s = silent.enter(ProfPhase::OpGen);
//! assert!(silent.report().is_none());
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mmm_types::stats::Log2Histogram;

use crate::json::Json;

/// Number of distinct [`ProfPhase`]s.
pub const PROF_PHASES: usize = 10;

/// Number of event-wheel wake-source slots tracked by the
/// introspection counters (mirrors the wheel's slot count).
pub const WAKE_SLOTS: usize = 4;

/// Labels for the wake-source slots, indexed by the wheel's
/// `WakeSource` discriminant.
pub const WAKE_SLOT_LABELS: [&str; WAKE_SLOTS] = ["slice", "sample", "fault", "single_os_poll"];

/// A named phase of the simulator hot loop that host time is
/// attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfPhase {
    /// Filling a context's replay ring from its op source: for a feed
    /// from the generator thread, the wait for that thread plus the
    /// copy; for an inline stream, the generation itself.
    OpGen = 0,
    /// Core dispatch/commit work inside `Core::tick` (minus nested
    /// phases, which subtract automatically).
    Core = 1,
    /// Memory-system accesses (ifetch, load, store acquire/commit).
    Mem = 2,
    /// DMR pair service: fingerprint comparison, heals, reunion.
    Pair = 3,
    /// Flight-recorder sampler service (registry snapshot + deltas).
    Sampler = 4,
    /// Event-wheel bookkeeping: rescheduling the wake slots.
    Wheel = 5,
    /// Fast-forward jump computation at the bottom of the tick.
    FastForward = 6,
    /// Scheduler transitions: gang switches, overcommit rotation,
    /// single-OS polls, fault application.
    Sched = 7,
    /// Everything else inside the measured window (loop glue).
    Other = 8,
    /// Per-cycle core-loop bookkeeping: wake-hint scanning, occupancy
    /// accounting, and the pair service-flag sweep (minus the nested
    /// core/mem/op-gen/pair phases, which subtract automatically).
    CoreLoop = 9,
}

impl ProfPhase {
    /// All phases, in fixed export order.
    pub const ALL: [ProfPhase; PROF_PHASES] = [
        ProfPhase::OpGen,
        ProfPhase::Core,
        ProfPhase::Mem,
        ProfPhase::Pair,
        ProfPhase::Sampler,
        ProfPhase::Wheel,
        ProfPhase::FastForward,
        ProfPhase::Sched,
        ProfPhase::CoreLoop,
        ProfPhase::Other,
    ];

    /// Stable snake_case label used in every export format.
    pub fn label(self) -> &'static str {
        match self {
            ProfPhase::OpGen => "op_gen",
            ProfPhase::Core => "core_dispatch_commit",
            ProfPhase::Mem => "mem_access",
            ProfPhase::Pair => "pair_service",
            ProfPhase::Sampler => "sampler_service",
            ProfPhase::Wheel => "wheel_bookkeeping",
            ProfPhase::FastForward => "fast_forward",
            ProfPhase::Sched => "sched_transition",
            ProfPhase::CoreLoop => "core_loop_bookkeeping",
            ProfPhase::Other => "other",
        }
    }
}

/// Shared profiler state behind the handle.
#[derive(Debug)]
struct ProfCore {
    /// True between `begin()` and `end()`; probes outside the window
    /// (e.g. during warm-up) record nothing.
    running: bool,
    /// Phase currently accumulating time.
    current: ProfPhase,
    /// Host instant the current phase started accumulating.
    since: Instant,
    /// Enclosing phases suspended by nested scopes.
    stack: Vec<ProfPhase>,
    /// Exclusive nanoseconds per phase, indexed by discriminant.
    nanos: [u64; PROF_PHASES],
    /// Per-slot wake-source hit counts (wheel introspection).
    wake_hits: [u64; WAKE_SLOTS],
    /// Log2 histogram of fast-forward jump lengths (> 1 cycle).
    jump_lengths: Log2Histogram,
    /// Log2 histogram of awake-core counts per executed tick.
    occupancy: Log2Histogram,
    /// Executed ticks inside the window.
    ticks: u64,
    /// Simulated cycles advanced inside the window.
    advanced_cycles: u64,
    /// Cycles covered by fast-forward jumps instead of ticks.
    skipped_cycles: u64,
}

impl ProfCore {
    fn new() -> Self {
        ProfCore {
            running: false,
            current: ProfPhase::Other,
            since: Instant::now(),
            stack: Vec::with_capacity(8),
            nanos: [0; PROF_PHASES],
            wake_hits: [0; WAKE_SLOTS],
            jump_lengths: Log2Histogram::new(),
            occupancy: Log2Histogram::new(),
            ticks: 0,
            advanced_cycles: 0,
            skipped_cycles: 0,
        }
    }

    /// Flushes host time elapsed since `since` into the current
    /// phase, restarting the clock at `now`.
    fn flush(&mut self, now: Instant) {
        let dt = now.duration_since(self.since).as_nanos() as u64;
        self.nanos[self.current as usize] += dt;
        self.since = now;
    }
}

/// Cheap clonable handle to the self-profiler.
///
/// The default ([`Profiler::off`]) is disabled and costs exactly one
/// branch per probe. Clones share the same recording, so the handle
/// can be distributed to every component that hosts a probe.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    /// Shared state; `None` when disabled.
    inner: Option<Rc<RefCell<ProfCore>>>,
}

impl Profiler {
    /// A disabled profiler: every probe is a single branch.
    pub fn off() -> Self {
        Profiler { inner: None }
    }

    /// An enabled profiler. Recording starts at [`Profiler::begin`];
    /// probes before that (e.g. during warm-up) record nothing.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Rc::new(RefCell::new(ProfCore::new()))),
        }
    }

    /// Whether this handle can record at all (begin may not have been
    /// called yet).
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens the measured window: clears any previous recording and
    /// starts attributing time to [`ProfPhase::Other`]. Call after
    /// the warm-up reset so warm-up cost is excluded.
    pub fn begin(&self) {
        let Some(inner) = &self.inner else { return };
        let mut c = inner.borrow_mut();
        *c = ProfCore::new();
        c.running = true;
        c.since = Instant::now();
    }

    /// Closes the measured window, flushing the tail of the current
    /// phase. Probes after this record nothing; the recording stays
    /// available through [`Profiler::report`].
    pub fn end(&self) {
        let Some(inner) = &self.inner else { return };
        let mut c = inner.borrow_mut();
        if !c.running {
            return;
        }
        c.flush(Instant::now());
        c.running = false;
    }

    /// Enters `phase`, suspending the enclosing phase's clock until
    /// the returned guard drops. One inlined branch when the profiler
    /// is off.
    #[inline]
    pub fn enter(&self, phase: ProfPhase) -> ProfScope {
        ProfScope {
            inner: self.inner.as_ref().and_then(|inner| enter_on(inner, phase)),
        }
    }

    /// Records a wake-source hit for wheel slot `slot` (the
    /// `WakeSource` discriminant). Out-of-range slots are ignored.
    #[inline]
    pub fn wake_hit(&self, slot: usize) {
        let Some(inner) = &self.inner else { return };
        let mut c = inner.borrow_mut();
        if c.running && slot < WAKE_SLOTS {
            c.wake_hits[slot] += 1;
        }
    }

    /// Records one executed tick that advanced simulated time by
    /// `advance` cycles. Advances beyond one cycle are fast-forward
    /// jumps: their length enters the log2 histogram and the cycles
    /// they covered count as skipped.
    #[inline]
    pub fn advance(&self, advance: u64) {
        let Some(inner) = &self.inner else { return };
        let mut c = inner.borrow_mut();
        if !c.running {
            return;
        }
        c.ticks += 1;
        c.advanced_cycles += advance;
        if advance > 1 {
            c.skipped_cycles += advance - 1;
            c.jump_lengths.record(advance);
        }
    }

    /// Records how many cores were actually ticked (awake) this tick.
    #[inline]
    pub fn occupancy(&self, awake: u64) {
        let Some(inner) = &self.inner else { return };
        let mut c = inner.borrow_mut();
        if c.running {
            c.occupancy.record(awake);
        }
    }

    /// Snapshot of the recording, or `None` when the profiler is off.
    /// Callable mid-window (flushes up to now) or after
    /// [`Profiler::end`].
    pub fn report(&self) -> Option<ProfileReport> {
        let inner = self.inner.as_ref()?;
        let mut c = inner.borrow_mut();
        if c.running {
            c.flush(Instant::now());
        }
        let phase_nanos: Vec<(&'static str, u64)> = ProfPhase::ALL
            .iter()
            .map(|p| (p.label(), c.nanos[*p as usize]))
            .collect();
        Some(ProfileReport {
            total_nanos: c.nanos.iter().sum(),
            phase_nanos,
            wake_hits: c.wake_hits,
            jump_lengths: c.jump_lengths.clone(),
            occupancy: c.occupancy.clone(),
            ticks: c.ticks,
            advanced_cycles: c.advanced_cycles,
            skipped_cycles: c.skipped_cycles,
        })
    }
}

/// Guard returned by [`Profiler::enter`]; restores the enclosing
/// phase's clock on drop.
#[derive(Debug)]
pub struct ProfScope {
    /// Shared state; `None` for the no-op guard of a disabled (or
    /// not-yet-begun) profiler.
    inner: Option<Rc<RefCell<ProfCore>>>,
}

impl Drop for ProfScope {
    /// One inlined branch for the guard of an off profiler.
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            leave(inner);
        }
    }
}

/// The enabled half of [`Profiler::enter`], kept out of line so the off
/// path inlines to one branch: suspends the current phase and returns
/// the guard's handle, or `None` outside the measured window.
#[cold]
fn enter_on(inner: &Rc<RefCell<ProfCore>>, phase: ProfPhase) -> Option<Rc<RefCell<ProfCore>>> {
    let mut c = inner.borrow_mut();
    if !c.running {
        return None;
    }
    c.flush(Instant::now());
    let prev = c.current;
    c.stack.push(prev);
    c.current = phase;
    Some(Rc::clone(inner))
}

/// The enabled half of [`ProfScope`]'s drop: flushes the scope's phase,
/// resumes the enclosing one, and releases the guard's handle.
#[cold]
fn leave(inner: Rc<RefCell<ProfCore>>) {
    let mut c = inner.borrow_mut();
    c.flush(Instant::now());
    if let Some(prev) = c.stack.pop() {
        c.current = prev;
    }
}

/// Finished profile: exclusive time per phase plus wheel/skip
/// introspection, exportable as a JSON section or a speedscope file.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Total measured nanoseconds (= sum of all phase nanos; the
    /// window tiles exactly, so shares sum to 100%).
    pub total_nanos: u64,
    /// Exclusive nanoseconds per phase, in [`ProfPhase::ALL`] order.
    pub phase_nanos: Vec<(&'static str, u64)>,
    /// Per-slot wake-source hit counts, indexed like
    /// [`WAKE_SLOT_LABELS`].
    pub wake_hits: [u64; WAKE_SLOTS],
    /// Log2 histogram of fast-forward jump lengths.
    pub jump_lengths: Log2Histogram,
    /// Log2 histogram of awake cores per executed tick.
    pub occupancy: Log2Histogram,
    /// Executed ticks inside the window.
    pub ticks: u64,
    /// Simulated cycles advanced inside the window.
    pub advanced_cycles: u64,
    /// Cycles covered by fast-forward jumps instead of ticks.
    pub skipped_cycles: u64,
}

impl ProfileReport {
    /// Share of total time spent in `label`, in percent (0 when the
    /// window is empty).
    pub fn share_pct(&self, label: &str) -> f64 {
        if self.total_nanos == 0 {
            return 0.0;
        }
        self.phase_nanos
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, n)| 100.0 * *n as f64 / self.total_nanos as f64)
            .unwrap_or(0.0)
    }

    /// Fraction of advanced cycles covered by jumps instead of ticks
    /// (0 when nothing advanced).
    pub fn skip_efficiency(&self) -> f64 {
        if self.advanced_cycles == 0 {
            return 0.0;
        }
        self.skipped_cycles as f64 / self.advanced_cycles as f64
    }

    fn histogram_json(h: &Log2Histogram) -> Json {
        Json::obj([
            ("count", Json::U64(h.count())),
            ("mean", Json::F64(h.mean())),
            ("max", Json::U64(h.max())),
            ("p50", Json::U64(h.percentile(50.0))),
            ("p99", Json::U64(h.percentile(99.0))),
        ])
    }

    /// One run's profile as JSON: phase nanos and shares plus the
    /// wheel introspection block (the `profile` object of each
    /// `results/<bin>.profile.jsonl` line, whose shape `mmm-inspect
    /// profile` checks).
    pub fn to_json(&self) -> Json {
        let nanos: Vec<(&str, Json)> = self
            .phase_nanos
            .iter()
            .map(|(l, n)| (*l, Json::U64(*n)))
            .collect();
        let shares: Vec<(&str, Json)> = self
            .phase_nanos
            .iter()
            .map(|(l, _)| (*l, Json::F64(self.share_pct(l))))
            .collect();
        let hits: Vec<(&str, Json)> = WAKE_SLOT_LABELS
            .iter()
            .zip(self.wake_hits.iter())
            .map(|(l, n)| (*l, Json::U64(*n)))
            .collect();
        Json::obj([
            ("total_nanos", Json::U64(self.total_nanos)),
            ("phase_nanos", Json::obj(nanos)),
            ("phase_shares", Json::obj(shares)),
            (
                "wheel",
                Json::obj([
                    ("wake_hits", Json::obj(hits)),
                    ("jump_lengths", Self::histogram_json(&self.jump_lengths)),
                    ("occupancy", Self::histogram_json(&self.occupancy)),
                    ("ticks", Json::U64(self.ticks)),
                    ("advanced_cycles", Json::U64(self.advanced_cycles)),
                    ("skipped_cycles", Json::U64(self.skipped_cycles)),
                    ("skip_efficiency", Json::F64(self.skip_efficiency())),
                ]),
            ),
        ])
    }
}

/// Renders profiled runs as one speedscope document (the JSON file
/// format of <https://www.speedscope.app>): one `"sampled"` profile per
/// `(name, report)`, with one single-frame sample per non-empty phase,
/// weighted in nanoseconds. Open it at <https://www.speedscope.app> or
/// with `speedscope <file>`.
pub fn speedscope(name: &str, runs: &[(String, ProfileReport)]) -> String {
    let frames: Vec<Json> = ProfPhase::ALL
        .iter()
        .map(|p| Json::obj([("name", Json::str(p.label()))]))
        .collect();
    let profiles = runs
        .iter()
        .map(|(run, report)| {
            let mut samples = Vec::new();
            let mut weights = Vec::new();
            for (i, (_, n)) in report.phase_nanos.iter().enumerate() {
                if *n > 0 {
                    samples.push(Json::Arr(vec![Json::U64(i as u64)]));
                    weights.push(Json::U64(*n));
                }
            }
            Json::obj([
                ("type", Json::str("sampled")),
                ("name", Json::str(run.as_str())),
                ("unit", Json::str("nanoseconds")),
                ("startValue", Json::U64(0)),
                ("endValue", Json::U64(report.total_nanos)),
                ("samples", Json::Arr(samples)),
                ("weights", Json::Arr(weights)),
            ])
        })
        .collect();
    Json::obj([
        (
            "$schema",
            Json::str("https://www.speedscope.app/file-format-schema.json"),
        ),
        ("name", Json::str(name)),
        ("activeProfileIndex", Json::U64(0)),
        ("exporter", Json::str("mmm-profile")),
        ("shared", Json::obj([("frames", Json::Arr(frames))])),
        ("profiles", Json::Arr(profiles)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burn a little host time so a phase accumulates nonzero nanos.
    fn spin() -> u64 {
        let mut acc = 0u64;
        for i in 0..20_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc)
    }

    #[test]
    fn off_profiler_is_inert() {
        let p = Profiler::off();
        p.begin();
        {
            let _s = p.enter(ProfPhase::Core);
            spin();
        }
        p.advance(100);
        p.wake_hit(0);
        p.occupancy(16);
        p.end();
        assert!(!p.is_on());
        assert!(p.report().is_none());
    }

    #[test]
    fn probes_before_begin_record_nothing() {
        let p = Profiler::enabled();
        {
            let _s = p.enter(ProfPhase::OpGen);
            spin();
        }
        p.advance(50);
        p.begin();
        p.end();
        let r = p.report().unwrap();
        assert_eq!(
            r.phase_nanos
                .iter()
                .find(|(l, _)| *l == "op_gen")
                .unwrap()
                .1,
            0
        );
        assert_eq!(r.ticks, 0);
        assert_eq!(r.advanced_cycles, 0);
    }

    #[test]
    fn nested_scopes_attribute_exclusive_time_summing_to_total() {
        let p = Profiler::enabled();
        p.begin();
        {
            let _core = p.enter(ProfPhase::Core);
            spin();
            {
                let _mem = p.enter(ProfPhase::Mem);
                spin();
            }
            spin();
        }
        p.end();
        let r = p.report().unwrap();
        let core = r
            .phase_nanos
            .iter()
            .find(|(l, _)| *l == "core_dispatch_commit")
            .unwrap()
            .1;
        let mem = r
            .phase_nanos
            .iter()
            .find(|(l, _)| *l == "mem_access")
            .unwrap()
            .1;
        assert!(core > 0, "core phase got time");
        assert!(mem > 0, "nested mem phase got time");
        let sum: u64 = r.phase_nanos.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, r.total_nanos, "phases tile the window exactly");
        let share_sum: f64 = ProfPhase::ALL
            .iter()
            .map(|ph| r.share_pct(ph.label()))
            .sum();
        assert!(
            (share_sum - 100.0).abs() < 1e-9,
            "shares sum to 100, got {share_sum}"
        );
    }

    #[test]
    fn introspection_counters_record() {
        let p = Profiler::enabled();
        p.begin();
        p.wake_hit(0);
        p.wake_hit(0);
        p.wake_hit(3);
        p.wake_hit(99); // out of range: ignored
        p.advance(1); // plain tick, no jump
        p.advance(64); // 64-cycle fast-forward
        p.occupancy(4);
        p.end();
        let r = p.report().unwrap();
        assert_eq!(r.wake_hits, [2, 0, 0, 1]);
        assert_eq!(r.ticks, 2);
        assert_eq!(r.advanced_cycles, 65);
        assert_eq!(r.skipped_cycles, 63);
        assert_eq!(r.jump_lengths.count(), 1);
        assert_eq!(r.jump_lengths.max(), 64);
        assert_eq!(r.occupancy.count(), 1);
        assert!((r.skip_efficiency() - 63.0 / 65.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_the_recording() {
        let p = Profiler::enabled();
        let q = p.clone();
        p.begin();
        {
            let _s = q.enter(ProfPhase::Pair);
            spin();
        }
        p.end();
        let r = p.report().unwrap();
        assert!(
            r.phase_nanos
                .iter()
                .find(|(l, _)| *l == "pair_service")
                .unwrap()
                .1
                > 0
        );
    }

    #[test]
    fn begin_resets_a_previous_recording() {
        let p = Profiler::enabled();
        p.begin();
        p.advance(10);
        p.end();
        p.begin();
        p.end();
        let r = p.report().unwrap();
        assert_eq!(r.ticks, 0, "begin() discards the previous window");
    }

    #[test]
    fn json_section_has_the_expected_shape() {
        let p = Profiler::enabled();
        p.begin();
        {
            let _s = p.enter(ProfPhase::OpGen);
            spin();
        }
        p.advance(8);
        p.end();
        let j = p.report().unwrap().to_json();
        let parsed = Json::parse(&j.render()).expect("profile json parses");
        assert!(parsed.get("total_nanos").and_then(Json::as_u64).unwrap() > 0);
        let shares = parsed.get("phase_shares").expect("phase_shares");
        let sum: f64 = ProfPhase::ALL
            .iter()
            .map(|ph| shares.get(ph.label()).and_then(Json::as_f64).unwrap())
            .sum();
        assert!((sum - 100.0).abs() < 1e-6, "shares sum to ~100, got {sum}");
        let wheel = parsed.get("wheel").expect("wheel block");
        assert_eq!(wheel.get("advanced_cycles").and_then(Json::as_u64), Some(8));
        assert!(wheel
            .get("skip_efficiency")
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn speedscope_export_parses_and_names_the_phases() {
        let p = Profiler::enabled();
        p.begin();
        {
            let _s = p.enter(ProfPhase::Mem);
            spin();
        }
        p.end();
        let text = speedscope("unit-test", &[("#0".to_string(), p.report().unwrap())]);
        let parsed = Json::parse(&text).expect("speedscope json parses");
        assert_eq!(
            parsed.get("$schema").and_then(Json::as_str),
            Some("https://www.speedscope.app/file-format-schema.json")
        );
        let frames = parsed
            .get("shared")
            .and_then(|s| s.get("frames"))
            .and_then(Json::as_arr)
            .expect("frames");
        assert_eq!(frames.len(), PROF_PHASES);
        assert!(frames
            .iter()
            .any(|f| f.get("name").and_then(Json::as_str) == Some("mem_access")));
        let profile = parsed
            .get("profiles")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .expect("one profile");
        assert_eq!(profile.get("type").and_then(Json::as_str), Some("sampled"));
        let samples = profile.get("samples").and_then(Json::as_arr).unwrap();
        let weights = profile.get("weights").and_then(Json::as_arr).unwrap();
        assert_eq!(samples.len(), weights.len());
        assert!(!samples.is_empty(), "nonzero phases exported");
    }
}
