//! In-memory spans recorded around calls into each layer's public API,
//! written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `req` groups the spans of one request (a window, an
/// update, a fleet submission); `parent` is the index of the span that
/// caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span store. A disabled tracer records nothing, so the untraced run
/// pays only the branch.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Record `[start, end)` and return the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Close a span opened with `record(.., start, start)` once its end
    /// is known (a fleet request ends when its reply arrives).
    pub fn finish(&mut self, id: Option<u32>, end: Instant) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Total duration (µs) of the spans called `name`, per request.
    pub fn by_req(&self, name: &str) -> HashMap<u64, f64> {
        let mut out = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0.0) += s.us();
        }
        out
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write one JSON object per span to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut w)?;
        w.flush()
    }

    fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", 0, None, || 7), 7);
        let now = Instant::now();
        assert_eq!(t.record("y", 0, None, now, now), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_group_by_request_and_write_as_json_lines() {
        let mut t = Tracer::new(true);
        t.time("root", 1, None, || ());
        let id = t.record("root", 1, None, Instant::now(), Instant::now());
        t.time("child", 1, id, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.time("child", 1, id, || ());
        t.time("child", 2, None, || ());
        assert_eq!(t.durations("child").len(), 3);
        let per = t.by_req("child");
        assert!(per[&1] >= 1000.0);
        assert_eq!(per.len(), 2);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let v: serde::Value = serde_json::from_str(lines[2]).unwrap();
        let m = v.as_map().unwrap();
        assert_eq!(
            m[0],
            ("name".to_string(), serde::Value::Str("child".into()))
        );
        assert_eq!(m[2], ("parent".to_string(), serde::Value::Int(1)));
    }
}
