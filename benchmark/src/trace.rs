//! Outside-in span recording: the harness wraps each public call into the
//! pipeline in a span, adopts the spans the program itself opened during
//! that call from the `alias-obs` registry, and keeps everything in memory
//! until the run ends.

use alias_obs::MetricsSnapshot;
use serde::Serialize;
use std::time::Instant;

/// Root span of one traced iteration.
pub const ITERATION: &str = "iteration";
/// Subtree of calls made only to split a figure the iteration's own spans
/// cannot split.  Its time is left out of the iteration's wall and of the
/// coverage ratio.
pub const REPLICA: &str = "replica";

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer name for harness spans (`netsim.build`), registry path for
    /// adopted ones (`resolve/technique/ssh`).
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Milliseconds since the recorder was created; absent for adopted
    /// spans, for which the registry keeps durations only.
    pub start_ms: Option<f64>,
    /// `start_ms` plus the duration; absent like `start_ms`.
    pub end_ms: Option<f64>,
    /// Duration.
    pub total_ms: f64,
    /// Duration not covered by child spans.
    pub self_ms: f64,
}

/// Deterministic registry counters the per-layer metrics read, and the
/// name each is recorded under.
const COUNTERS: [(&str, &str); 7] = [
    ("scan.probes_emitted", "scan.probes"),
    ("scan.responsive_pairs", "scan.responsive_pairs"),
    ("store.rows_absorbed", "scan.rows"),
    ("merge.merged_sets", "core.sets"),
    ("merge.effective_unions", "core.unions"),
    ("resolve.rate_candidate_pairs", "resolve.rate_pairs"),
    ("resolve.rate_joint_alias_verdicts", "resolve.rate_verdicts"),
];

/// In-memory span and count log with an explicit enter/exit stack.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: Vec<(String, u64)>,
}

impl Recorder {
    /// An empty log; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let start = self.now_ms();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            start_ms: Some(start),
            end_ms: None,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ms();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ms = Some(end);
        span.total_ms = end - span.start_ms.expect("harness spans have a start");
        span.self_ms += span.total_ms;
        if let Some(parent) = span.parent {
            let total = span.total_ms;
            self.spans[parent].self_ms -= total;
        }
    }

    /// Run `body` inside a span.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = body();
        self.exit(id);
        out
    }

    /// Attach the spans the program recorded in the registry while the
    /// just-closed span `parent` ran (the registry having been reset right
    /// before it).  A registry span's parent is the longest other path it
    /// extends; the outermost ones hang off `parent` and their time leaves
    /// its self time.
    pub fn adopt(&mut self, parent: usize, snapshot: &MetricsSnapshot) {
        let base = self.spans.len();
        for (i, sample) in snapshot.spans.iter().enumerate() {
            let within = snapshot
                .spans
                .iter()
                .enumerate()
                .filter(|&(j, other)| {
                    j != i
                        && sample
                            .path
                            .strip_prefix(other.path.as_str())
                            .is_some_and(|rest| rest.starts_with('/'))
                })
                .max_by_key(|(_, other)| other.path.len())
                .map(|(j, _)| base + j);
            let total_ms = sample.total_ns as f64 / 1e6;
            if within.is_none() {
                let outer = &mut self.spans[parent];
                outer.self_ms = (outer.self_ms - total_ms).max(0.0);
            }
            self.spans.push(Span {
                name: sample.path.clone(),
                parent: Some(within.unwrap_or(parent)),
                start_ms: None,
                end_ms: None,
                total_ms,
                self_ms: sample.self_ns as f64 / 1e6,
            });
        }
    }

    /// Record a count taken at a layer boundary.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), value));
    }

    /// Record the registry counters the per-layer metrics read.  A counter
    /// still at zero after the reset means its layer did not run.
    pub fn counts_from(&mut self, snapshot: &MetricsSnapshot) {
        for (counter, name) in COUNTERS {
            match snapshot.counters.iter().find(|c| c.name == counter) {
                Some(sample) if sample.value > 0 => self.count(name, sample.value),
                _ => {}
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every count recorded so far, in recording order.
    pub fn counts(&self) -> &[(String, u64)] {
        &self.counts
    }

    /// Whether `id` lies in the subtree of a span named `ancestor`
    /// (itself included).
    pub fn is_under(&self, mut id: usize, ancestor: &str) -> bool {
        loop {
            if self.spans[id].name == ancestor {
                return true;
            }
            match self.spans[id].parent {
                Some(parent) => id = parent,
                None => return false,
            }
        }
    }
}

/// The layer a registry span path belongs to, as the per-layer metrics
/// name it (`scan.grab_v4`, `resolve.ssh`), or `None` for a path no metric
/// reads.
pub fn layer_of_registry_path(path: &str) -> Option<String> {
    if path == "resolve/campaign" || path == "campaign" {
        return Some("scan.campaign".to_owned());
    }
    if path == "resolve/merge" {
        return Some("resolve.merge".to_owned());
    }
    if path == "bench/build_internet" {
        return Some("netsim.build".to_owned());
    }
    if let Some(technique) = path.strip_prefix("resolve/technique/") {
        return Some(format!("resolve.{technique}"));
    }
    let (rest, phase) = path.rsplit_once('/')?;
    (rest.ends_with("campaign/campaign")
        && ["syn_v4", "grab_v4", "snmp_v4", "ipv6", "rate_probe"].contains(&phase))
    .then(|| format!("scan.{phase}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_obs::SpanSample;

    fn sample(path: &str, total_ns: u64, self_ns: u64) -> SpanSample {
        SpanSample {
            path: path.to_owned(),
            count: 1,
            total_ns,
            self_ns,
        }
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let mut rec = Recorder::new();
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(3));
        rec.exit(inner);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert!(spans[inner].total_ms >= 3.0);
        assert!(
            (spans[outer].self_ms - (spans[outer].total_ms - spans[inner].total_ms)).abs() < 1e-9
        );
        assert!(rec.is_under(inner, "outer"));
        assert!(!rec.is_under(outer, "inner"));
    }

    #[test]
    fn adopted_registry_spans_nest_by_path_and_leave_the_parents_self_time() {
        let mut rec = Recorder::new();
        let call = rec.span_id_for_test("bench.pipeline", 100.0);
        let snapshot = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: vec![
                sample("resolve/campaign", 40_000_000, 0),
                sample("resolve/campaign/campaign", 40_000_000, 5_000_000),
                sample(
                    "resolve/campaign/campaign/campaign/syn_v4",
                    35_000_000,
                    35_000_000,
                ),
                sample("resolve/merge", 10_000_000, 10_000_000),
            ],
            events: Vec::new(),
        };
        rec.adopt(call, &snapshot);
        let spans = rec.spans();
        // Two outermost registry spans (40 + 10 ms) left the call's self time.
        assert!((spans[call].self_ms - 50.0).abs() < 1e-9);
        assert_eq!(spans[call + 1].parent, Some(call));
        assert_eq!(spans[call + 2].parent, Some(call + 1));
        assert_eq!(spans[call + 3].parent, Some(call + 2));
        assert_eq!(spans[call + 4].parent, Some(call));
    }

    #[test]
    fn registry_paths_map_to_layer_names() {
        let layer = |p| layer_of_registry_path(p);
        assert_eq!(layer("resolve/campaign").as_deref(), Some("scan.campaign"));
        assert_eq!(layer("campaign").as_deref(), Some("scan.campaign"));
        assert_eq!(layer("resolve/campaign/campaign"), None);
        assert_eq!(
            layer("resolve/campaign/campaign/campaign/rate_probe").as_deref(),
            Some("scan.rate_probe")
        );
        assert_eq!(
            layer("campaign/campaign/ipv6").as_deref(),
            Some("scan.ipv6")
        );
        assert_eq!(
            layer("resolve/technique/midar").as_deref(),
            Some("resolve.midar")
        );
        assert_eq!(layer("resolve/merge").as_deref(), Some("resolve.merge"));
        assert_eq!(
            layer("bench/build_internet").as_deref(),
            Some("netsim.build")
        );
        assert_eq!(layer("bench/censys"), None);
    }

    impl Recorder {
        /// A closed top-level span of a fixed duration.
        fn span_id_for_test(&mut self, name: &str, total_ms: f64) -> usize {
            self.spans.push(Span {
                name: name.to_owned(),
                parent: None,
                start_ms: Some(0.0),
                end_ms: Some(total_ms),
                total_ms,
                self_ms: total_ms,
            });
            self.spans.len() - 1
        }
    }
}
