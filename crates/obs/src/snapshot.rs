//! Point-in-time snapshots and their two renders: the full JSON and the
//! deterministic-subset JSON (byte-identical across thread counts).

use crate::metric::DeterminismClass;
use std::fmt::Write as _;

/// A sampled counter.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Metric name.
    pub name: &'static str,
    /// Determinism class.
    pub class: DeterminismClass,
    /// Unit label.
    pub(crate) unit: &'static str,
    /// Emitting stage.
    pub(crate) stage: &'static str,
    /// Sampled total.
    pub value: u64,
}

/// A sampled gauge.  The registry keeps no gauges; the type stays for
/// callers that build a [`MetricsSnapshot`] field by field.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Metric name.
    pub name: &'static str,
    /// Determinism class.
    pub class: DeterminismClass,
    /// Unit label.
    pub unit: &'static str,
    /// Emitting stage.
    pub stage: &'static str,
    /// Sampled value.
    pub value: u64,
}

/// A sampled histogram.  The registry keeps no histograms; the type stays
/// for callers that build a [`MetricsSnapshot`] field by field.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// Determinism class.
    pub class: DeterminismClass,
    /// Unit label.
    pub unit: &'static str,
    /// Emitting stage.
    pub stage: &'static str,
    /// Upper bucket boundaries.
    pub boundaries: &'static [u64],
    /// Per-bucket counts (final entry = overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone)]
pub struct SpanSample {
    /// Full `/`-separated span path.
    pub path: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total time inside the span, nanoseconds.
    pub total_ns: u64,
    /// Total minus time attributed to child spans, nanoseconds.
    pub self_ns: u64,
}

/// A point-in-time copy of a registry (see
/// `Registry::snapshot`); counters are sorted
/// by name, spans by path, events keep sequence order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Sampled counters, name-sorted.
    pub counters: Vec<CounterSample>,
    /// Always empty from a registry, and read by no render.
    pub gauges: Vec<GaugeSample>,
    /// Always empty from a registry, and read by no render.
    pub histograms: Vec<HistogramSample>,
    /// Span statistics, path-sorted.
    pub spans: Vec<SpanSample>,
    /// The event log, in sequence order.
    pub events: Vec<String>,
}

/// Escape a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON object of named arrays, one item a line — the layout both
/// renders have always had.
fn json_object(arrays: &[(&str, Vec<String>)]) -> String {
    let mut out = String::from("{");
    for (i, (key, items)) in arrays.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(out, "{comma}\n  \"{key}\": [");
        for (j, item) in items.iter().enumerate() {
            let comma = if j == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\n    {item}");
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

impl MetricsSnapshot {
    fn event_items(&self) -> Vec<String> {
        let quoted = self
            .events
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)));
        quoted.collect()
    }

    /// The deterministic subset — [`DeterminismClass::Deterministic`]
    /// counters plus the event log — rendered as JSON.  This string is the
    /// thread-count-invariance contract: it must be byte-identical for any
    /// `ALIAS_THREADS` over the same campaign.
    pub fn deterministic_json(&self) -> String {
        let deterministic = self
            .counters
            .iter()
            .filter(|c| c.class == DeterminismClass::Deterministic);
        let counters = deterministic.map(|c| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"stage\": \"{}\", \"value\": {}}}",
                c.name, c.unit, c.stage, c.value
            )
        });
        // No gauge is recorded; the empty array keeps the artefact's bytes
        // those of the runs that had one.
        json_object(&[
            ("counters", counters.collect()),
            ("gauges", Vec::new()),
            ("events", self.event_items()),
        ])
    }

    /// The full snapshot — every class and the span statistics — rendered
    /// as JSON.  Timing-class values live here and only here; nothing of
    /// this render may flow into experiment documents.
    pub fn to_json(&self) -> String {
        let counters = self.counters.iter().map(|c| {
            format!(
                "{{\"name\": \"{}\", \"class\": \"{}\", \"unit\": \"{}\", \"stage\": \"{}\", \"value\": {}}}",
                c.name,
                c.class.label(),
                c.unit,
                c.stage,
                c.value
            )
        });
        let spans = self.spans.iter().map(|s| {
            format!(
                "{{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_escape(&s.path),
                s.count,
                s.total_ns,
                s.self_ns
            )
        });
        json_object(&[
            ("counters", counters.collect()),
            ("spans", spans.collect()),
            ("events", self.event_items()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSample {
                    name: "scan.probes_emitted",
                    class: DeterminismClass::Deterministic,
                    unit: "probes",
                    stage: "scan",
                    value: 42,
                },
                CounterSample {
                    name: "exec.shard_map_calls",
                    class: DeterminismClass::Timing,
                    unit: "calls",
                    stage: "exec",
                    value: 7,
                },
            ],
            spans: vec![SpanSample {
                path: "resolve.campaign".to_owned(),
                count: 1,
                total_ns: 1_000,
                self_ns: 400,
            }],
            events: vec!["phase:zmap_v4".to_owned(), "phase:zgrab".to_owned()],
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn deterministic_json_is_the_deterministic_counters_and_the_events() {
        let expected = "{\n  \"counters\": [\
                        \n    {\"name\": \"scan.probes_emitted\", \"unit\": \"probes\", \"stage\": \"scan\", \"value\": 42}\
                        \n  ],\n  \"gauges\": [\n  ],\n  \"events\": [\
                        \n    \"phase:zmap_v4\",\n    \"phase:zgrab\"\n  ]\n}\n";
        assert_eq!(sample().deterministic_json(), expected);
    }

    #[test]
    fn full_json_carries_every_class_and_the_spans() {
        let json = sample().to_json();
        for needle in [
            "scan.probes_emitted",
            "\"class\": \"timing\"",
            "exec.shard_map_calls",
            "resolve.campaign",
            "\"self_ns\": 400",
            "phase:zmap_v4",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
