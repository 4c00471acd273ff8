//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The buffer is allocated before the traced window starts and never grows
//! inside it; a span that does not fit is counted as dropped. Span names are
//! per-layer metric names without the `_us` suffix, so `session.run` becomes
//! the metric `session.run_us`; the layer is the part before the first dot.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing; `begin`/`end` cost one branch.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(16),
            op: 0,
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Marks the start of the next op; spans begun afterwards carry its id.
    pub fn next_op(&mut self) {
        self.op = self.op.wrapping_add(1);
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id.0 as usize].end_ns = now;
        // Spans nest; closing one closes anything left open inside it.
        while let Some(top) = self.open.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Total self time (span minus the part its children cover) and span
    /// count per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(*children);
            entry.1 += 1;
        }
        out
    }

    /// Writes the first `max_events` spans as Chrome trace-event JSON
    /// (open in `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path, max_events: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n")?;
        for (i, s) in self.spans.iter().take(max_events).enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}, \"span\": {}, \"parent\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                i,
                parent
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-placed spans so self times are exact.
    fn hand_built(spans: &[(&'static str, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::with_capacity(spans.len());
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 1,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100] { run [10,90] { launch [20,40], launch [50,70] }, fetch [90,98] }
        let t = hand_built(&[
            ("harness.op", 0, 100, NO_PARENT),
            ("session.run", 10, 90, 0),
            ("upmem.launch", 20, 40, 1),
            ("upmem.launch", 50, 70, 1),
            ("session.fetch", 90, 98, 0),
        ]);
        let st = t.self_times();
        assert_eq!(st["harness.op"], (100 - 80 - 8, 1));
        assert_eq!(st["session.run"], (80 - 40, 1));
        assert_eq!(st["upmem.launch"], (40, 2));
        assert_eq!(st["session.fetch"], (8, 1));
        // Self times of a tree sum to its root's duration.
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn begin_end_nest_and_a_full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::with_capacity(3);
        t.next_op();
        let a = t.begin("a.x");
        let b = t.begin("b.y");
        t.end(b);
        let c = t.begin("c.z");
        let d = t.begin("d.w"); // does not fit
        t.end(d);
        t.end(c);
        t.end(a);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 0);
        assert!(t.spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert!(t.open.is_empty());

        let mut off = Tracer::off();
        let id = off.begin("a.x");
        off.end(id);
        assert!(off.self_times().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = hand_built(&[
            ("session.run", 1000, 3500, NO_PARENT),
            ("upmem.launch", 1500, 2500, 0),
        ]);
        let dir = crate::harness::crate_dir()
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.json");
        t.write_chrome(&path, 10).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = crate::json::Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("upmem"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
    }
}
