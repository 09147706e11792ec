//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own thread, around the calls
//! it makes into each layer; nothing inside the repository is
//! instrumented. A span keeps its name, start, end, and the span that
//! was open when it started; all spans of a run share the workload id.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open now. `f` receives the tracer to open spans of its own.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        value
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn seconds(&self, s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Summed duration, in seconds, of the spans named `name`; `None`
    /// when there is none.
    pub fn total_s(&self, name: &str) -> Option<f64> {
        let spans = self.durations(name);
        (!spans.is_empty()).then(|| spans.iter().sum())
    }

    /// Durations, in seconds, of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.seconds(s))
            .collect()
    }

    /// Self time of each span: its duration minus the part its direct
    /// children cover (children of one parent never overlap here — one
    /// thread records them all).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The trace file: every span with its self time, then the run's
    /// per-layer metrics (counts included) as measured.
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        metrics: &BTreeMap<String, (f64, String)>,
    ) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{workload}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, own[id]
            );
        }
        out.push_str("\n],\"metrics\":{");
        for (i, (name, (value, unit))) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("\n}}\n");
        out
    }
}
