//! In-memory span recorder for the traced run.
//!
//! Spans nest `workload › kernel › iteration › layer`. Each records its
//! name, start, end and parent; nothing is written until the run ends.
//! Layer spans are named `<layer>.<operation>` (`netlist.elaborate`,
//! `place.solve`); structural spans use `<kind>:<label>`
//! (`kernel:gsum`) and belong to no layer.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>` or `<kind>:<label>`.
    pub name: String,
    /// Start, in seconds since the recorder's origin.
    pub start: f64,
    /// End, in seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The duration was read from a layer's returned stats (the simulator
    /// time inside a slack pass, say), not timed around a call: the
    /// interval is placed at the parent's start and only its length is a
    /// measurement.
    pub derived: bool,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// The layer a span belongs to: the part of its name before the first
    /// `.`; structural spans (`kernel:…`) have none.
    pub fn layer(&self) -> Option<&str> {
        if self.name.contains(':') {
            return None;
        }
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` together with any span still open inside it (one a
    /// panicking layer call left open).
    ///
    /// # Panics
    ///
    /// If `id` is not open.
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} is not open");
    }

    /// Times `f` as a leaf span; returns its result and the span's index.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, usize) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Adds a derived child of `parent` lasting `time` (see
    /// [`Span::derived`]).
    pub fn derived(&mut self, parent: usize, name: impl Into<String>, time: Duration) {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start + time.as_secs_f64(),
            parent: Some(parent),
            derived: true,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(s.start).max(reach), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// The `;`-joined names from the root down to `id`.
fn stack(spans: &[Span], id: usize) -> String {
    let mut names = Vec::new();
    let mut cur = Some(id);
    while let Some(i) = cur {
        names.push(spans[i].name.as_str());
        cur = spans[i].parent;
    }
    names.reverse();
    names.join(";")
}

/// Folded-stack text (`root;child;leaf <microseconds>` per line, sorted),
/// the input format of offline flamegraph tools. Each stack's count is
/// its spans' total self time.
pub fn folded(spans: &[Span]) -> String {
    let mut by_stack: BTreeMap<String, f64> = BTreeMap::new();
    for (i, t) in self_times(spans).into_iter().enumerate() {
        *by_stack.entry(stack(spans, i)).or_insert(0.0) += t;
    }
    by_stack
        .into_iter()
        .map(|(stack, t)| format!("{stack} {}\n", (t * 1e6).round() as u64))
        .collect()
}

/// The spans as a JSON array of `{id, name, parent, start_s, end_s, self_s,
/// derived}` objects.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .zip(self_times(spans))
            .enumerate()
            .map(|(id, (s, self_s))| {
                Value::obj([
                    ("id", Value::from(id as u64)),
                    ("name", Value::from(s.name.as_str())),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                    ("start_s", Value::from(s.start)),
                    ("end_s", Value::from(s.end)),
                    ("self_s", Value::from(self_s)),
                    ("derived", Value::Bool(s.derived)),
                ])
            })
            .collect(),
    )
}
