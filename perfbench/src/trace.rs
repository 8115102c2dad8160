//! Timing of the public calls the benchmark makes into each layer.
//!
//! Untraced runs go through [`NoProbe`], which compiles to the bare call.
//! Traced runs go through [`TraceProbe`]: every call is timed into its
//! layer's [`CallHist`], and the calls of every [`SPAN_SAMPLE`]-th logical
//! transaction are also kept as spans (transaction → attempt → call) in
//! memory, written out as CSV when the run ends.

use crate::stats::CallHist;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Keep the spans of one logical transaction in this many. Timers still
/// cover every call; this only bounds the memory the span log takes.
pub const SPAN_SAMPLE: u64 = 64;

/// A layer boundary the benchmark crosses, named after the public call.
#[derive(Clone, Copy)]
pub enum Layer {
    /// `Database::begin` (`brahma::handle` / `txn`).
    Begin,
    /// `Database::roots` (the entry to a walk).
    Roots,
    /// `Txn::lock` (`brahma::lock`).
    Lock,
    /// `Txn::read_refs` (`brahma::page` / `object`).
    Read,
    /// `Txn::set_payload` (WAL append of the update).
    Write,
    /// `Txn::commit` (WAL force; `fsync` on the file backend).
    Commit,
    /// `Txn::abort` (rollback of a conflicted attempt).
    Abort,
}

pub const WALKER_LAYERS: [Layer; 7] = [
    Layer::Begin,
    Layer::Roots,
    Layer::Lock,
    Layer::Read,
    Layer::Write,
    Layer::Commit,
    Layer::Abort,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Begin => "begin",
            Layer::Roots => "roots",
            Layer::Lock => "lock",
            Layer::Read => "read",
            Layer::Write => "write",
            Layer::Commit => "commit",
            Layer::Abort => "abort",
        }
    }
}

/// Wraps each public call a walker makes, and the transaction and attempt
/// spans that parent those calls.
pub trait Probe {
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    fn open(&mut self, name: &'static str) -> Open;
    fn close(&mut self, open: Open);
}

/// An open span; `id` 0 when nothing is being recorded.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

const NOT_OPEN: Open = Open {
    id: 0,
    parent: 0,
    name: "",
    start: None,
};

/// The untimed path of end-to-end runs.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn call<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn open(&mut self, _name: &'static str) -> Open {
        NOT_OPEN
    }

    #[inline(always)]
    fn close(&mut self, _open: Open) {}
}

/// One recorded span; times are nanoseconds since the run's epoch.
struct Span {
    id: u64,
    parent: u64,
    thread: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A thread's span log. Span ids carry the thread in their top bits so ids
/// from different threads never collide.
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        SpanLog {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        ((self.thread as u64 + 1) << 48) | self.next
    }

    pub fn push(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            thread: self.thread,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }
}

/// The timed path of traced runs.
pub struct TraceProbe {
    pub hists: Vec<CallHist>,
    pub log: SpanLog,
    /// Parent span of the calls being made; 0 when the current transaction
    /// is not sampled.
    parent: u64,
    /// Whether the current logical transaction keeps its spans.
    pub sampled: bool,
}

impl TraceProbe {
    pub fn new(log: SpanLog) -> Self {
        TraceProbe {
            hists: vec![CallHist::default(); WALKER_LAYERS.len()],
            log,
            parent: 0,
            sampled: false,
        }
    }
}

impl Probe for TraceProbe {
    #[inline]
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.hists[layer as usize].record(end.duration_since(start).as_nanos() as u64);
        if self.parent != 0 {
            let id = self.log.next_id();
            self.log.push(id, self.parent, layer.name(), start, end);
        }
        out
    }

    fn open(&mut self, name: &'static str) -> Open {
        if !self.sampled {
            return NOT_OPEN;
        }
        let open = Open {
            id: self.log.next_id(),
            parent: self.parent,
            name,
            start: Some(Instant::now()),
        };
        self.parent = open.id;
        open
    }

    fn close(&mut self, open: Open) {
        if let Some(start) = open.start {
            self.log
                .push(open.id, open.parent, open.name, start, Instant::now());
            self.parent = open.parent;
        }
    }
}

/// Write every span as CSV (`span,parent,thread,name,start_ns,end_ns`),
/// sorted by start time.
pub fn write_spans(path: &Path, logs: &[&SpanLog]) -> std::io::Result<usize> {
    let mut all: Vec<&Span> = logs.iter().flat_map(|l| l.spans.iter()).collect();
    all.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span,parent,thread,name,start_ns,end_ns")?;
    for s in &all {
        writeln!(
            out,
            "{:x},{:x},{},{},{},{}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(all.len())
}
