//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! a layer's public functions; nothing inside the programs is touched.
//! A disabled tracer records nothing, so the untraced pass pays one
//! branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a per-layer metric prefix such as `sim.runtime`).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request / call.
    pub op: u64,
}

/// Records spans while enabled; a no-op shell otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts the next operation: spans recorded from now on share a
    /// fresh `op` identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, child of the span currently
    /// open (if any).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Runs `f` inside a span named `name` and returns the host seconds
    /// it took beside its result.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.span(name, |_| {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_secs_f64())
        })
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may nest further or overlap
/// each other; covered time is the union, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time and call count per layer name.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_layer: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        let slot = by_layer.entry(s.name).or_insert((0, 0));
        slot.0 += ns;
        slot.1 += 1;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children overlapping on [30, 40): union covers [10, 60).
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // A grandchild only reduces its own parent.
            span("c", 12, 20, Some(1)),
            // A child sticking out of its parent is clipped to it.
            span("d", 90, 130, Some(0)),
            // A child fully inside an already covered stretch adds nothing.
            span("e", 35, 38, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 8, 40, 3]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["root"], (40, 1));
        assert_eq!(by_layer["a"], (22, 1));
    }

    #[test]
    fn tracer_links_parents_ops_and_is_free_when_off() {
        let mut t = Tracer::new(true);
        t.next_op();
        let got = t.span("outer", |t| t.span("inner", |_| 7));
        t.next_op();
        t.span("outer", |_| ());
        assert_eq!(got, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
