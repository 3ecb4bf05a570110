//! Spans recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions.
//!
//! A span has a name, a start, an end and a parent; the spans of one op
//! share an op id. Stage breakdowns that a call already returns
//! (`StageTimings`) become child spans laid end to end from the start of
//! the call. Self time is a span's duration minus its children's.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// An in-memory span log. A disabled tracer records nothing, so the
/// untraced run pays only for the branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new op: later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Record a finished interval and return its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            op: self.op,
            name,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Record the stage breakdown a call returned as children of the
    /// call's span, laid end to end from the call's start.
    pub fn record_stages(&mut self, parent: Option<usize>, stages: &[(String, f64)]) {
        let Some(p) = parent else { return };
        let mut at = self.spans[p].start;
        for (name, secs) in stages {
            let d = Duration::from_secs_f64(secs.max(0.0));
            self.spans.push(Span {
                op: self.spans[p].op,
                name: stage_name(name),
                start: at,
                end: at + d,
                parent: Some(p),
            });
            at += d;
        }
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
            )?;
        }
        out.flush()
    }

    /// Per op: wall time of its root span and the self time of every
    /// span name under it. The self times of one op sum to its wall.
    pub fn op_breakdowns(&self, root: &str) -> Vec<(f64, BTreeMap<&'static str, f64>)> {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += secs(s);
            }
        }
        let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                roots.insert(s.op, i);
            }
        }
        let mut by_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !roots.contains_key(&s.op) || !self.under(i, roots[&s.op]) {
                continue;
            }
            *by_op.entry(s.op).or_default().entry(s.name).or_default() += secs(s) - child_secs[i];
        }
        roots
            .iter()
            .map(|(op, &r)| (secs(&self.spans[r]), by_op.remove(op).unwrap_or_default()))
            .collect()
    }

    fn under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }
}

fn secs(s: &Span) -> f64 {
    (s.end.saturating_sub(s.start)).as_secs_f64()
}

/// Map the program's stage strings onto the shared per-layer names.
/// Batch and stream call the same work by different strings; an
/// unknown string is kept visible as `unknown-stage`.
pub fn stage_name(program: &str) -> &'static str {
    match program {
        "key typing + element index" | "delta bookkeeping" => "core.index",
        "gather" => "core.gather",
        "datatype inference" | "datatype delta analysis" => "core.datatype",
        "derived orders" => "core.orders",
        "edge build" => "core.edge_build",
        "report assembly" => "core.report",
        "graph delta" => "graph.merge",
        "freeze" => "graph.freeze",
        "cycle search" => "graph.cycle_search",
        "retirement" => "stream.retire",
        _ => "unknown-stage",
    }
}

/// Each stage span name with the per-layer metric it reports as.
pub const STAGES: [(&str, &str); 10] = [
    ("core.index", "core.index_ms"),
    ("core.gather", "core.gather_ms"),
    ("core.datatype", "core.datatype_ms"),
    ("core.orders", "core.orders_ms"),
    ("core.edge_build", "core.edge_build_ms"),
    ("core.report", "core.report_ms"),
    ("graph.merge", "graph.merge_ms"),
    ("graph.freeze", "graph.freeze_ms"),
    ("graph.cycle_search", "graph.cycle_search_ms"),
    ("stream.retire", "stream.retire_ms"),
];
