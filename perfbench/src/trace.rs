//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans wrap calls into the library from the outside: each records its
//! name, start, end, the enclosing span and the id of the operation (query
//! request, ingest cycle or flush, paper round) it belongs to. Spans stay
//! in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A handle to an open span; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle to Recorder::end"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Open(Some(id)) = open else { return };
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        let top = self.open.pop();
        assert_eq!(
            top,
            Some(id),
            "spans must end in the reverse order they began"
        );
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut samples = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            samples.push(span.seconds() * 1e3);
        }
        samples
    }

    /// Summed self time, in seconds, of the spans whose name starts with
    /// `prefix`: each span's duration minus the time its child spans
    /// cover.
    pub fn self_seconds(&self, prefix: &str) -> f64 {
        let mut child_seconds = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_seconds[parent] += span.seconds();
            }
        }
        self.spans
            .iter()
            .zip(&child_seconds)
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(s, children)| s.seconds() - children)
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new();
        let open = rec.begin("a", 1);
        rec.end(open);
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent_and_op() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        let outer = rec.begin("outer", 7);
        let inner = rec.begin("inner", 8);
        rec.end(inner);
        rec.end(outer);
        let after = rec.begin("after", 9);
        rec.end(after);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].op), (None, 7));
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 8));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            span("core.stream", None, 0, 10_000_000_000),
            span("serve.flush", Some(0), 1_000_000_000, 4_000_000_000),
            span("serve.flush", Some(0), 5_000_000_000, 6_000_000_000),
            span("core.transform", None, 20_000_000_000, 22_000_000_000),
        ];
        assert!((rec.self_seconds("core.") - 8.0).abs() < 1e-12);
        assert!((rec.self_seconds("serve.flush") - 4.0).abs() < 1e-12);
        let flush = rec.durations_ms("serve.flush");
        assert_eq!(flush.len(), 2);
        assert!((flush.median() - 2000.0).abs() < 1e-9);
    }
}
