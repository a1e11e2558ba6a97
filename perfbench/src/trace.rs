//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own code around the public
//! calls into each layer — the program under test carries no
//! instrumentation of its own for this. Every span keeps its name, start,
//! end, parent and the unit (training batch, request or post) it belongs
//! to; they stay in memory until the run ends and are then written out as
//! one JSON line per span. A layer's self time is its span's duration
//! minus the part covered by its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: u64,
}

/// In-memory span recorder for one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx`, which must be the innermost open one.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Duration of span `idx` in nanoseconds.
    fn dur_ns(&self, idx: usize) -> u64 {
        self.spans[idx]
            .end_ns
            .saturating_sub(self.spans[idx].start_ns)
    }

    /// Self time of every span, in nanoseconds.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.dur_ns(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.dur_ns(i));
            }
        }
        own
    }

    /// Per unit, the summed self time (ms) of the spans named `name`,
    /// in unit order. Units without such a span are absent.
    pub fn self_ms_per_unit(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_unit: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *per_unit.entry(s.unit).or_default() += own[i];
            }
        }
        per_unit.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        t.set_unit(3);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(outer);
        let own = t.self_ns();
        assert!(own[2] >= 5_000_000);
        assert_eq!(own[1], t.dur_ns(1) - t.dur_ns(2));
        assert_eq!(t.spans[2].parent, Some(1));
        let per_unit = t.self_ms_per_unit("outer");
        assert_eq!(per_unit.len(), 1, "both outer spans share unit 3");
        assert!(per_unit[0] >= 2.0);
    }
}
