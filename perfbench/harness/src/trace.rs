//! The benchmark's own span recorder: one span per call into a layer, kept
//! in memory and serialised once when the pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: name, start and end (ns since the tracer started),
/// the enclosing span, and the request it served, if any.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// Single-threaded span recorder; spans nest in open/close order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a span under the innermost open one; returns its handle.
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// End the span `id` (the innermost open one); returns its seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Total seconds of every closed span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Per-span self time: its duration minus the part of its interval
    /// that its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The whole trace as JSON: the metrics, a per-layer summary (count,
    /// total and self seconds by span name), and every span.
    pub fn to_json(&self, metrics: &BTreeMap<&'static str, f64>) -> String {
        let selfs = self.self_ns();
        let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            let e = layers.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        let metric_items: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:?}"))
            .collect();
        let layer_items: Vec<String> = layers
            .iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "{{\"name\": \"{name}\", \"count\": {count}, \"total_s\": {:?}, \"self_s\": {:?}}}",
                    *total as f64 * 1e-9,
                    *own as f64 * 1e-9
                )
            })
            .collect();
        let span_items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "[\"{}\", {}, {}, {}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    opt(s.parent.map(|p| p as u64)),
                    opt(s.request)
                )
            })
            .collect();
        format!(
            "{{\"metrics\": {{{}}},\n\"layers\": [{}],\n\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],\n\"spans\": [\n{}\n]}}\n",
            metric_items.join(", "),
            layer_items.join(",\n"),
            span_items.join(",\n")
        )
    }
}
