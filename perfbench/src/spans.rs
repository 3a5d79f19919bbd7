//! The benchmark's own spans: recorded in memory around its calls into
//! each layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder began.
struct Span {
    /// Layer-prefixed name, e.g. `store.ingest`.
    name: &'static str,
    start: u64,
    /// 0 while open.
    end: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// An in-memory span log for one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the durations of its direct children.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - child) as f64 / 1e9;
        }
        out
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .collect()
    }

    /// Total duration per span name, in seconds (children included).
    pub fn total_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) as f64 / 1e9;
        }
        out
    }

    /// The span log as JSON: `{"host": …, "spans": [{"id", "name",
    /// "start_ns", "end_ns", "parent"}]}`.
    pub fn to_json(&self, host: &str) -> String {
        let mut out = format!("{{\"host\": {host}, \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start, s.end
            );
        }
        out.push_str("]}\n");
        out
    }
}
