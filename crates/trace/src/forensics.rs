//! Fault forensics: a causal per-injection lifecycle recorder.
//!
//! The campaign telemetry (`fault.site.*`) says *how many* faults were
//! detected, masked, or escaped; this module says *why each one* did.
//! Every injected fault opens a [`FaultRecord`] carrying the injection
//! cycle/core/site, the core's role at injection, a causal chain of
//! architectural effects (wild-store target and PAB verdict, privreg
//! arming, fingerprint divergence), and a terminal [`FaultVerdict`].
//! On an *escape* — the one outcome the paper's mechanisms exist to
//! prevent — the record additionally dumps a "black box": the last
//! [`FORENSICS_WINDOW`] cycle-stamped events from the struck core's
//! per-core ring (reusing the [`Event`]/[`RingSink`] machinery).
//!
//! The handle discipline matches the [`crate::Tracer`] and
//! [`crate::Profiler`]: [`Forensics`] is an `Option<Rc<RefCell<..>>>`,
//! off by default, one branch per probe when off, clones share state,
//! and recording is purely observational — reports, metrics series,
//! and traces are bit-identical with forensics on or off. Records are
//! keyed by injection order, so the stream is deterministic across
//! thread counts like every other export.

use std::cell::RefCell;
use std::rc::Rc;

use mmm_types::{CoreId, Cycle};

use crate::event::{Event, TraceRecord};
use crate::json::Json;
use crate::sink::{RingSink, TraceSink};

/// Black-box depth: events retained per core for escape dumps.
pub const FORENSICS_WINDOW: usize = 32;

/// The `kind` of a faults export's run-header line.
pub const FAULTS_RUN_KIND: &str = "mmm-faults-run";

/// The keys of a run-header line, as [`ForensicsReport::jsonl`] writes them.
pub const FAULTS_RUN_KEYS: [&str; 6] =
    ["kind", "run", "config", "benchmark", "scheduler", "records"];

/// The `kind` of a fault-record line.
pub const FAULT_KIND: &str = "fault";

/// The keys of every fault-record line, as [`FaultRecord::to_json`] writes them.
pub const FAULT_RECORD_KEYS: [&str; 13] = [
    "kind", "run", "id", "at", "core", "site", "mode", "verdict", "latency", "reason", "pages",
    "chain", "blackbox",
];

/// Every [`FaultVerdict::label`].
pub const FAULT_VERDICTS: [&str; 6] = [
    "detected_by_dmr",
    "detected_by_pab",
    "detected_by_enter_dmr",
    "masked",
    "escaped",
    "pending",
];

/// The core roles a record's `mode` names.
pub const FAULT_MODES: [&str; 4] = ["dmr_vocal", "dmr_mute", "perf", "idle"];

/// Terminal classification of one injected fault. The variants map
/// one-to-one onto the `fault.site.*` campaign counters: `Detected`
/// records sum to `detected`, `Masked` to `masked`, `Escaped` to
/// `escaped`, and `Pending` is the remainder (`injected` minus the
/// other three) — a corruption still armed when the run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultVerdict {
    /// Caught by a redundancy mechanism. `latency` is the exact
    /// injection-to-detection distance when one detection event could
    /// be attributed to exactly this injection; `None` when the
    /// injection merged into an already-armed detection (the
    /// documented `detection_latency.count() <= detected` contract).
    Detected {
        /// `dmr`, `pab`, or `enter_dmr`.
        by: &'static str,
        /// Cycles from injection to detection, when attributable.
        latency: Option<u64>,
    },
    /// Contained without any detector firing.
    Masked {
        /// Why it was harmless (`idle`, `silent_perf_fault`, ...).
        reason: &'static str,
    },
    /// Silent corruption reached memory.
    Escaped {
        /// Pages corrupted by the escaped store(s).
        pages: Vec<u64>,
        /// The struck core's last-events window at the escape.
        blackbox: Vec<TraceRecord>,
    },
    /// Unresolved at run end (or merged into an armed corruption that
    /// resolves as someone else's detection).
    Pending {
        /// Why no detector fired before the run ended.
        reason: &'static str,
    },
}

impl FaultVerdict {
    /// Stable export label (`detected_by_dmr`, `masked`, ...).
    pub fn label(&self) -> String {
        match self {
            FaultVerdict::Detected { by, .. } => format!("detected_by_{by}"),
            FaultVerdict::Masked { .. } => "masked".to_string(),
            FaultVerdict::Escaped { .. } => "escaped".to_string(),
            FaultVerdict::Pending { .. } => "pending".to_string(),
        }
    }
}

/// One cycle-stamped causal-chain entry.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainLink {
    /// When the effect happened.
    pub at: Cycle,
    /// What happened (`wild_store page=412 tlb_resident=false`, ...).
    pub what: String,
}

/// The full lifecycle of one injected fault.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Injection ordinal within the measured period (also the record's
    /// index in the report).
    pub id: u64,
    /// Injection cycle.
    pub at: Cycle,
    /// The struck core.
    pub core: CoreId,
    /// Stable site label (`core_logic`, `tlb_permission`, `priv_reg`).
    pub site: &'static str,
    /// The core's role at injection: `dmr_vocal`, `dmr_mute`, `perf`,
    /// or `idle`.
    pub mode: &'static str,
    /// Causal chain of architectural effects, injection onward.
    pub chain: Vec<ChainLink>,
    /// Terminal classification.
    pub verdict: FaultVerdict,
}

impl FaultRecord {
    /// The cycle the verdict landed: injection plus the attributed
    /// latency (injection itself for merged, masked, escaped, and
    /// pending outcomes).
    pub fn resolved_at(&self) -> Cycle {
        match &self.verdict {
            FaultVerdict::Detected {
                latency: Some(l), ..
            } => self.at + l,
            _ => self.at,
        }
    }

    /// The record as one JSON object (one `faults.jsonl` line). Every
    /// key is always present so the schema is fixed: `latency` and
    /// `reason` are `null` when inapplicable, `pages`/`blackbox` empty
    /// unless the fault escaped.
    pub fn to_json(&self, run: u64) -> Json {
        let (latency, reason, pages, blackbox) = match &self.verdict {
            FaultVerdict::Detected { latency, .. } => (
                latency.map_or(Json::Null, Json::U64),
                Json::Null,
                Vec::new(),
                Vec::new(),
            ),
            FaultVerdict::Masked { reason } => {
                (Json::Null, Json::str(*reason), Vec::new(), Vec::new())
            }
            FaultVerdict::Escaped { pages, blackbox } => (
                Json::Null,
                Json::Null,
                pages.iter().map(|&p| Json::U64(p)).collect(),
                blackbox.iter().map(blackbox_json).collect(),
            ),
            FaultVerdict::Pending { reason } => {
                (Json::Null, Json::str(*reason), Vec::new(), Vec::new())
            }
        };
        let chain = self
            .chain
            .iter()
            .map(|l| Json::obj([("at", Json::U64(l.at)), ("what", Json::str(l.what.clone()))]))
            .collect();
        Json::obj([
            ("kind", Json::str(FAULT_KIND)),
            ("run", Json::U64(run)),
            ("id", Json::U64(self.id)),
            ("at", Json::U64(self.at)),
            ("core", Json::U64(self.core.0 as u64)),
            ("site", Json::str(self.site)),
            ("mode", Json::str(self.mode)),
            ("verdict", Json::str(self.verdict.label())),
            ("latency", latency),
            ("reason", reason),
            ("pages", Json::Arr(pages)),
            ("chain", Json::Arr(chain)),
            ("blackbox", Json::Arr(blackbox)),
        ])
    }
}

/// One black-box window entry as JSON.
fn blackbox_json(r: &TraceRecord) -> Json {
    Json::obj([
        ("seq", Json::U64(r.seq)),
        ("at", Json::U64(r.at)),
        ("name", Json::str(r.event.name())),
        ("core", Json::U64(r.event.core().0 as u64)),
        ("args", r.event.args()),
    ])
}

/// Harvested forensics for one run: the records, in injection order.
/// Carried on the system report but — like the metrics series and the
/// profile — deliberately excluded from the golden report JSON;
/// exported separately as `*.faults.jsonl`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ForensicsReport {
    /// All injection records of the measured period.
    pub records: Vec<FaultRecord>,
}

impl ForensicsReport {
    /// Renders the report as JSONL: one run-header line (identity
    /// fields plus the record count, for pairing against the matching
    /// report line in the main export) followed by one line per
    /// record.
    pub fn jsonl(&self, run: u64, config: &str, benchmark: &str, scheduler: &str) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.records.len() + 1);
        lines.push(
            Json::obj([
                ("kind", Json::str(FAULTS_RUN_KIND)),
                ("run", Json::U64(run)),
                ("config", Json::str(config)),
                ("benchmark", Json::str(benchmark)),
                ("scheduler", Json::str(scheduler)),
                ("records", Json::U64(self.records.len() as u64)),
            ])
            .render(),
        );
        for r in &self.records {
            lines.push(r.to_json(run).render());
        }
        lines
    }
}

/// Recorder state behind one enabled handle.
#[derive(Debug)]
struct ForensicsState {
    records: Vec<FaultRecord>,
    /// Per-core black-box rings (grown on demand).
    rings: Vec<RingSink>,
    window: usize,
}

impl ForensicsState {
    fn ring(&mut self, core: CoreId) -> &mut RingSink {
        let idx = core.index();
        while self.rings.len() <= idx {
            self.rings.push(RingSink::new(self.window));
        }
        &mut self.rings[idx]
    }
}

/// The cheap, cloneable forensics handle threaded through the
/// simulator. `Forensics::default()` is off — every probe is a single
/// branch and no payload is ever constructed. Record ids double as
/// indices into the record table, so follow-up probes (latency
/// attribution, verdict upgrades) are O(1).
#[derive(Clone, Debug, Default)]
pub struct Forensics {
    state: Option<Rc<RefCell<ForensicsState>>>,
}

impl Forensics {
    /// The zero-overhead disabled recorder (same as `default()`).
    pub fn off() -> Self {
        Self { state: None }
    }

    /// An enabled recorder with per-core black-box rings of `window`
    /// events, pre-sized for `cores` cores. Clones share state.
    pub fn enabled(cores: usize, window: usize) -> Self {
        let window = window.max(1);
        Self {
            state: Some(Rc::new(RefCell::new(ForensicsState {
                records: Vec::new(),
                rings: (0..cores).map(|_| RingSink::new(window)).collect(),
                window,
            }))),
        }
    }

    /// Whether records are being kept.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.state.is_some()
    }

    /// Records a black-box context event (attributed to the event's
    /// core). When forensics is off, `f` is never called.
    #[inline]
    pub fn note(&self, at: Cycle, f: impl FnOnce() -> Event) {
        if let Some(state) = &self.state {
            let event = f();
            let core = event.core();
            state.borrow_mut().ring(core).record(at, event);
        }
    }

    /// Opens a record for a fresh injection; returns its id (`None`
    /// when off — the id threads through the resolution plumbing as an
    /// `Option` so the off path stays branch-only).
    pub fn open(
        &self,
        at: Cycle,
        core: CoreId,
        site: &'static str,
        mode: &'static str,
    ) -> Option<u64> {
        let state = self.state.as_ref()?;
        let mut s = state.borrow_mut();
        let id = s.records.len() as u64;
        s.records.push(FaultRecord {
            id,
            at,
            core,
            site,
            mode,
            chain: Vec::new(),
            verdict: FaultVerdict::Pending {
                reason: "unresolved",
            },
        });
        Some(id)
    }

    /// Appends a causal-chain entry to record `id`. The string is only
    /// built when forensics is on and the id is live.
    #[inline]
    pub fn link(&self, id: Option<u64>, at: Cycle, f: impl FnOnce() -> String) {
        if let (Some(state), Some(id)) = (&self.state, id) {
            let mut s = state.borrow_mut();
            let what = f();
            if let Some(r) = s.records.get_mut(id as usize) {
                r.chain.push(ChainLink { at, what });
            }
        }
    }

    fn with_record(&self, id: Option<u64>, f: impl FnOnce(&mut FaultRecord)) {
        if let (Some(state), Some(id)) = (&self.state, id) {
            let mut s = state.borrow_mut();
            if let Some(r) = s.records.get_mut(id as usize) {
                f(r);
            }
        }
    }

    /// Resolves record `id` as detected by `by`, with an attributable
    /// latency or `None` for a merged detection.
    pub fn detected(&self, id: Option<u64>, by: &'static str, latency: Option<u64>) {
        self.with_record(id, |r| {
            r.verdict = FaultVerdict::Detected { by, latency };
        });
    }

    /// Upgrades an already-`Detected` record with the exact detection
    /// cycle once the deferred detection event lands (DMR fingerprint
    /// mismatches detect at pair service, cycles after injection).
    pub fn attribute_latency(&self, id: Option<u64>, detected_at: Cycle) {
        self.with_record(id, |r| {
            let latency = detected_at.saturating_sub(r.at);
            if let FaultVerdict::Detected { latency: l, .. } = &mut r.verdict {
                *l = Some(latency);
            }
            r.chain.push(ChainLink {
                at: detected_at,
                what: format!("fingerprint_mismatch_detected latency={latency}"),
            });
        });
    }

    /// Resolves record `id` as masked.
    pub fn masked(&self, id: Option<u64>, reason: &'static str) {
        self.with_record(id, |r| {
            r.verdict = FaultVerdict::Masked { reason };
        });
    }

    /// Marks record `id` terminally pending with an explicit reason
    /// (e.g. merged into an already-armed privreg corruption, whose
    /// eventual detection belongs to the first injection).
    pub fn pending(&self, id: Option<u64>, reason: &'static str) {
        self.with_record(id, |r| {
            r.verdict = FaultVerdict::Pending { reason };
        });
    }

    /// Resolves record `id` as escaped, dumping the struck core's
    /// black-box window and the corrupted page set into the record.
    pub fn escaped(&self, id: Option<u64>, pages: Vec<u64>) {
        if let (Some(state), Some(id)) = (&self.state, id) {
            let mut s = state.borrow_mut();
            let Some(core) = s.records.get(id as usize).map(|r| r.core) else {
                return;
            };
            let blackbox = s.ring(core).snapshot();
            if let Some(r) = s.records.get_mut(id as usize) {
                r.verdict = FaultVerdict::Escaped { pages, blackbox };
            }
        }
    }

    /// Drops all records (the warm-up reset): the harvested report
    /// covers exactly the measured period, like every other counter.
    /// Black-box rings survive — pre-reset context is still the most
    /// recent history a post-reset escape wants to dump.
    pub fn reset(&self) {
        if let Some(state) = &self.state {
            state.borrow_mut().records.clear();
        }
    }

    /// Harvests the records into a [`ForensicsReport`], finalizing
    /// still-unresolved records (a privreg corruption armed at run
    /// end) with a terminal `pending` reason. `None` when off.
    pub fn take_report(&self) -> Option<ForensicsReport> {
        let state = self.state.as_ref()?;
        let mut s = state.borrow_mut();
        let mut records = std::mem::take(&mut s.records);
        for r in &mut records {
            if matches!(
                r.verdict,
                FaultVerdict::Pending {
                    reason: "unresolved"
                }
            ) {
                r.verdict = FaultVerdict::Pending {
                    reason: "armed_at_run_end",
                };
            }
        }
        Some(ForensicsReport { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_builds_payloads() {
        let f = Forensics::off();
        let mut built = false;
        f.note(1, || {
            built = true;
            Event::SiStall {
                core: CoreId(0),
                cycles: 1,
            }
        });
        f.link(Some(0), 1, || {
            built = true;
            String::new()
        });
        assert!(!built);
        assert!(!f.is_on());
        assert_eq!(f.open(1, CoreId(0), "core_logic", "perf"), None);
        assert!(f.take_report().is_none());
    }

    #[test]
    fn lifecycle_detected_with_latency() {
        let f = Forensics::enabled(2, 8);
        let id = f.open(100, CoreId(1), "core_logic", "dmr_mute");
        assert_eq!(id, Some(0));
        f.link(id, 100, || "fingerprint_divergence_armed".to_string());
        f.detected(id, "dmr", None);
        f.attribute_latency(id, 140);
        let rep = f.take_report().unwrap();
        assert_eq!(rep.records.len(), 1);
        let r = &rep.records[0];
        assert_eq!(
            r.verdict,
            FaultVerdict::Detected {
                by: "dmr",
                latency: Some(40)
            }
        );
        assert_eq!(r.resolved_at(), 140);
        assert_eq!(r.chain.len(), 2);
        assert_eq!(r.verdict.label(), "detected_by_dmr");
    }

    #[test]
    fn escape_dumps_the_black_box() {
        let f = Forensics::enabled(1, 4);
        for i in 0..10u64 {
            f.note(i, || Event::SiStall {
                core: CoreId(0),
                cycles: i,
            });
        }
        let id = f.open(10, CoreId(0), "tlb_permission", "perf");
        f.note(10, || Event::FaultInjected {
            core: CoreId(0),
            site: "tlb_permission",
        });
        f.escaped(id, vec![412]);
        let rep = f.take_report().unwrap();
        let FaultVerdict::Escaped { pages, blackbox } = &rep.records[0].verdict else {
            panic!("escaped verdict expected");
        };
        assert_eq!(pages, &vec![412]);
        assert_eq!(blackbox.len(), 4, "window bound holds");
        assert_eq!(
            blackbox.last().unwrap().event.name(),
            "fault_injected",
            "injection is the newest black-box entry"
        );
    }

    #[test]
    fn unresolved_records_finalize_as_pending() {
        let f = Forensics::enabled(1, 4);
        let id = f.open(5, CoreId(0), "priv_reg", "perf");
        f.link(id, 5, || "privreg_armed".to_string());
        let rep = f.take_report().unwrap();
        assert_eq!(
            rep.records[0].verdict,
            FaultVerdict::Pending {
                reason: "armed_at_run_end"
            }
        );
    }

    #[test]
    fn reset_clears_records_and_restarts_ids() {
        let f = Forensics::enabled(1, 4);
        f.open(5, CoreId(0), "core_logic", "perf");
        f.reset();
        let id = f.open(9, CoreId(0), "core_logic", "perf");
        assert_eq!(id, Some(0), "ids restart at the measurement reset");
        assert_eq!(f.take_report().unwrap().records.len(), 1);
    }

    /// The keys of a rendered line, in order.
    fn keys(line: &str) -> Vec<String> {
        let v = Json::parse(line).unwrap();
        v.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn jsonl_writes_the_declared_keys_and_labels() {
        let f = Forensics::enabled(1, 4);
        let ids: Vec<_> = (0..6)
            .map(|i| f.open(5 + i, CoreId(0), "core_logic", FAULT_MODES[i as usize % 4]))
            .collect();
        f.detected(ids[0], "dmr", Some(3));
        f.detected(ids[1], "pab", None);
        f.detected(ids[2], "enter_dmr", Some(9));
        f.masked(ids[3], "idle");
        f.escaped(ids[4], vec![7]);
        let rep = f.take_report().unwrap();
        let lines = rep.jsonl(3, "MMM-TP", "oltp", "gang");
        assert_eq!(lines.len(), 7);
        assert_eq!(keys(&lines[0]), FAULTS_RUN_KEYS);
        assert!(lines[0].contains("\"kind\":\"mmm-faults-run\""));
        assert!(lines[0].contains("\"records\":6"));
        let mut verdicts = Vec::new();
        for line in &lines[1..] {
            assert_eq!(keys(line), FAULT_RECORD_KEYS);
            let rec = Json::parse(line).unwrap();
            assert_eq!(rec.get("kind").unwrap().as_str(), Some(FAULT_KIND));
            assert_eq!(rec.get("run").unwrap().as_u64(), Some(3));
            verdicts.push(rec.get("verdict").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(verdicts, FAULT_VERDICTS, "one record per verdict label");
    }

    #[test]
    fn clones_share_state() {
        let a = Forensics::enabled(1, 4);
        let b = a.clone();
        let id = a.open(1, CoreId(0), "core_logic", "perf");
        b.detected(id, "dmr", Some(7));
        let rep = a.take_report().unwrap();
        assert_eq!(
            rep.records[0].verdict,
            FaultVerdict::Detected {
                by: "dmr",
                latency: Some(7)
            }
        );
    }
}
