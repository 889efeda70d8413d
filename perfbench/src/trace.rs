//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own files around calls into each layer's public
//! functions, kept in memory, and written out once the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Dotted name; the part before the first `.` names the layer.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request (or one benchmark iteration) share this id.
    pub req: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span; returns `f`'s result and the span's duration in ns.
    pub fn span<R>(&mut self, name: &str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Adds a span measured elsewhere (e.g. from the server's own
    /// completion records); its times must already be on this epoch.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in ns: each span's duration minus the part of
    /// its interval covered by its children, summed by layer.
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let own = self_times(&self.spans);
        let mut by_layer = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *by_layer.entry(s.layer().to_string()).or_insert(0) += t;
        }
        by_layer
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval (children
/// may overlap each other, e.g. requests sharing a batch).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut ivs)| {
            ivs.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in ivs {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("engine.batch", 0, 100, None),
            // Two overlapping children cover [10, 50); a third [60, 70).
            span("pool.checkout", 10, 40, Some(0)),
            span("request.pack", 30, 50, Some(0)),
            span("request.unpack", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            span("lower.build", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 20, 10, 8]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("a", 10, 20, None), span("b.x", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn nested_spans_sum_by_layer() {
        let mut t = Tracer::new();
        t.span("vm.stages", 1, |t| {
            t.span("vm.stage.a", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("microkernel.dot", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        let by_layer = t.layer_self_ns();
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(by_layer.values().sum::<u64>(), total);
        assert!(by_layer["microkernel"] >= 2_000_000);
        assert!(by_layer["vm"] >= 2_000_000);
    }
}
