//! A unified registry of named counters, gauges, and histograms.
//!
//! Every component's statistics export into one flat namespace
//! (`core.user_commits`, `pab.violations`, `transition.enter_dmr`,
//! ...), replacing the ad-hoc per-struct merging the report path used
//! to hand-roll. `BTreeMap` keys make iteration — and therefore JSON
//! output — deterministic.

use std::collections::BTreeMap;

use mmm_types::stats::{Log2Histogram, RunningStat};

use crate::json::Json;

/// The sections of [`MetricsRegistry::to_json`], in order.
pub const METRIC_SECTIONS: [&str; 4] = ["counters", "gauges", "histograms", "stats"];

/// A flat, name-keyed registry of metrics.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
    stats: BTreeMap<String, RunningStat>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (creating it at 0).
    pub fn count(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Merges a whole histogram into the named histogram.
    pub fn merge_histogram(&mut self, name: &str, h: &Log2Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Merges a running mean/variance accumulator under `name`.
    pub fn merge_stat(&mut self, name: &str, s: &RunningStat) {
        self.stats.entry(name.to_string()).or_default().merge(s);
    }

    /// The named counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// The named running stat, if any samples were merged.
    pub fn stat(&self, name: &str) -> Option<&RunningStat> {
        self.stats.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// All running stats in name order.
    pub fn stats_iter(&self) -> impl Iterator<Item = (&str, &RunningStat)> {
        self.stats.iter().map(|(k, s)| (k.as_str(), s))
    }

    /// Absorbs another registry: counters add, gauges overwrite,
    /// histograms and stats merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.stats {
            self.stats.entry(k.clone()).or_default().merge(s);
        }
    }

    /// The registry as one JSON object with the [`METRIC_SECTIONS`],
    /// keys sorted, suitable for a JSONL line or an export file.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::U64(v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Json::F64(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count", Json::U64(h.count())),
                            ("mean", Json::F64(h.mean())),
                            ("max", Json::U64(h.max())),
                            ("p50", Json::U64(h.percentile(50.0))),
                            ("p99", Json::U64(h.percentile(99.0))),
                        ]),
                    )
                })
                .collect(),
        );
        let stats = Json::Obj(
            self.stats
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count", Json::U64(s.count())),
                            ("mean", Json::F64(s.mean())),
                            ("stddev", Json::F64(s.stddev())),
                            ("ci95", Json::F64(s.ci95_half_width())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("stats", stats),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_declared_sections() {
        let v = MetricsRegistry::new().to_json();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, METRIC_SECTIONS);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count("a.x", 2);
        m.count("a.x", 3);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = MetricsRegistry::new();
        a.count("c", 1);
        a.observe("h", 4);
        let mut sa = RunningStat::new();
        sa.push(1.0);
        a.merge_stat("s", &sa);

        let mut b = MetricsRegistry::new();
        b.count("c", 2);
        b.gauge("g", 0.5);
        b.observe("h", 8);
        let mut sb = RunningStat::new();
        sb.push(3.0);
        b.merge_stat("s", &sb);

        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge_value("g"), Some(0.5));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.stat("s").unwrap().count(), 2);
        assert!((a.stat("s").unwrap().mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.count("z.last", 1);
        m.count("a.first", 2);
        m.gauge("mid", 1.25);
        let s = m.to_json().render();
        assert!(s.find("a.first").unwrap() < s.find("z.last").unwrap());
        assert_eq!(s, m.to_json().render(), "rendering must be stable");
        assert!(s.starts_with('{') && s.ends_with('}'));
    }
}
