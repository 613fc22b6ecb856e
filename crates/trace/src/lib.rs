//! `mmm-trace`: the simulator's observability layer.
//!
//! Three pieces, usable independently:
//!
//! * **Event tracing** — a typed, cycle-stamped [`Event`] taxonomy
//!   recorded through a cheap [`Tracer`] handle into a bounded
//!   [`RingSink`] (or discarded by the zero-overhead [`NullSink`]
//!   default). When tracing is off, `Tracer::emit` is a single branch
//!   and the event payload is never constructed.
//! * **Metrics** — a [`MetricsRegistry`] of named counters, gauges,
//!   histograms, and running stats into which every component's
//!   statistics export, giving one flat, mergeable namespace.
//! * **Flight recorder** — a [`Sampler`] that snapshots the registry
//!   every N simulated cycles into a compact [`MetricsSeries`]
//!   (counter deltas, gauge last-values, histogram deltas),
//!   exportable as `metrics.jsonl` or Perfetto counter tracks. Off by
//!   default and free when off.
//! * **Self-profiler** — a [`Profiler`] of scoped timers attributing
//!   *host* wall-time to named hot-loop phases ([`ProfPhase`]), plus
//!   wheel/skip introspection counters, exportable as one JSON object
//!   per run or as a speedscope file. Off by default; one branch
//!   per probe when off, and purely observational when on.
//! * **Fault forensics** — a [`Forensics`] recorder giving every
//!   injected fault a causal lifecycle record ([`FaultRecord`]):
//!   injection site/core/mode, the chain of architectural effects,
//!   the terminal verdict, and — on an escape — a black-box dump of
//!   the struck core's recent events. Off by default and free when
//!   off; exported as `*.faults.jsonl` and Perfetto async spans.
//! * **Exporters** — a hand-rolled [`json`] serializer (the build is
//!   offline; no serde) feeding [`chrome_trace`] (Perfetto-viewable
//!   per-core timelines) and JSONL report lines.
//!
//! ```
//! use mmm_trace::{chrome_trace, Event, Tracer};
//! use mmm_types::CoreId;
//!
//! let tracer = Tracer::ring(1024);
//! tracer.emit(42, || Event::PabDeny { core: CoreId(3), page: 7 });
//! let trace_json = chrome_trace(&tracer.snapshot(), 16, 100);
//! assert!(trace_json.contains("pab_deny"));
//!
//! let silent = Tracer::default(); // NullSink: costs one branch
//! silent.emit(43, || unreachable!("never built"));
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod chrome;
pub mod event;
pub mod forensics;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sampler;
pub mod sink;

pub use aggregate::{registry_from_json, registry_to_json};
pub use chrome::{
    chrome_trace, chrome_trace_full, chrome_trace_with_counters, forensics_span_events,
};
pub use event::{Event, SchedAction, TraceRecord, TransitionKind};
pub use forensics::{
    ChainLink, FaultRecord, FaultVerdict, Forensics, ForensicsReport, FORENSICS_WINDOW,
};
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use profile::{speedscope, ProfPhase, ProfScope, ProfileReport, Profiler};
pub use sampler::{MetricsSample, MetricsSeries, Sampler};
pub use sink::{NullSink, RingSink, TraceSink, Tracer};
