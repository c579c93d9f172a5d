//! Spans around the benchmark's calls into the program's layers.
//!
//! A span records a name, its start and end (nanoseconds since the run
//! began) and the span that was open when it started. Spans are kept in
//! memory and written out once, when the run ends. Recording is switched
//! on and off per round, so one process can time traced and untraced
//! rounds of the same work; while it is off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switches recording on or off for the spans that start from now on.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Runs `f` inside a span named `name` (a plain call when recording is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.spans.len();
        let parent = r.open.last().copied();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[id].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Writes the spans as JSON lines, one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Per-root aggregates: for every root span called `root`, the
/// durations of each span name below it, and the summed self time (duration minus direct children) of each layer
/// below it. The layer of a span is its name up to the first `.`.
pub struct RootAggregate {
    /// The part of the root no child span covers.
    pub uncovered_s: f64,
    pub self_by_layer: BTreeMap<String, f64>,
    /// Every duration of each span name, in start order.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

pub fn aggregate(spans: &[Span], root: &str) -> Vec<RootAggregate> {
    let mut root_of = vec![usize::MAX; spans.len()];
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        root_of[s.id] = match s.parent {
            None => s.id,
            Some(p) => root_of[p],
        };
        if let Some(p) = s.parent {
            child_s[p] += s.dur_s();
        }
    }
    let mut out: BTreeMap<usize, RootAggregate> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
    {
        out.insert(
            s.id,
            RootAggregate {
                uncovered_s: s.dur_s() - child_s[s.id],
                self_by_layer: BTreeMap::new(),
                durations: BTreeMap::new(),
            },
        );
    }
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let Some(agg) = out.get_mut(&root_of[s.id]) else {
            continue;
        };
        agg.durations.entry(s.name).or_default().push(s.dur_s());
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        *agg.self_by_layer.entry(layer).or_insert(0.0) += s.dur_s() - child_s[s.id];
    }
    out.into_values().collect()
}
