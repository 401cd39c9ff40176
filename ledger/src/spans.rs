//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are recorded *from outside*: around the benchmark's calls into a
//! layer's public functions and inside the three seam wrappers
//! ([`crate::seams`]). Nothing here touches `blob_core::trace` — spans
//! inside the program are a later change (ROADMAP item 5).
//!
//! A span is `(id, parent, name, start, end)`; the layer is the part of the
//! name before the first `.`. Spans live in memory and are written to
//! `ledger/results/trace_<workload>.json` when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover ([`self_times`]).
//!
//! Seams that are crossed millions of times per second (the model's
//! `cpu_seconds`, the dispatcher's executor) cannot afford two clock reads
//! per call, so they record an *aggregate* span: an exact call count and a
//! total estimated from timing every [`SAMPLE_EVERY`]-th call as a short
//! burst of repeats (see [`crate::seams::Sampled`]).

use blob_core::wire::Json;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hot seams time one call in this many and scale by the exact count.
pub const SAMPLE_EVERY: u64 = 1024;

/// At most this many spans are written to the trace file (all of them
/// count towards the attribution; the file says when it was cut).
pub const FILE_SPAN_CAP: usize = 50_000;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id; 0 means "no parent".
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: u32,
    /// `layer.what`, e.g. `core.run_sweep`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Calls the span stands for (1, or the exact count of an aggregate).
    pub count: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
/// The open client-side request span: a span opened on another thread
/// with an empty stack (the server worker's `Handler` span) hangs under
/// it. Valid because every workload has one closed-loop client, so at most
/// one request is in flight.
static REQUEST_PARENT: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the recorder's epoch (first use wins).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; closes (and is recorded) on drop.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    /// Where the next aggregate child is laid, so aggregates of one
    /// parent never overlap (overlapping children would be merged).
    aggregate_at: Cell<u64>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            count: 1,
        });
    }
}

fn push(span: Span) {
    SPANS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
}

/// Opens a span under the innermost open span of this thread, or under the
/// in-flight request span when this thread has none open.
pub fn open(name: &'static str) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::SeqCst);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| REQUEST_PARENT.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    Guard {
        id,
        parent,
        name,
        start_ns,
        aggregate_at: Cell::new(start_ns),
    }
}

/// Opens a client-side request span and publishes it as the parent for
/// spans the server's worker thread opens while it is in flight.
pub fn open_request(name: &'static str) -> Guard {
    let guard = open(name);
    REQUEST_PARENT.store(guard.id, Ordering::SeqCst);
    guard
}

/// Records an aggregate child of `parent`: `count` calls whose total time
/// is estimated as `total_ns`. Aggregates are laid end to end from the
/// start of the parent's interval; only their lengths matter for self time.
pub fn aggregate(parent: &Guard, name: &'static str, count: u64, total_ns: u64) {
    if count == 0 {
        return;
    }
    let start_ns = parent.aggregate_at.get();
    parent.aggregate_at.set(start_ns + total_ns);
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::SeqCst),
        parent: parent.id,
        name,
        start_ns,
        end_ns: start_ns + total_ns,
        count,
    });
}

/// Records a child span of known length under the innermost open span of
/// this thread, ending now — for a seam that *returns* the time it
/// measured (the `Backend`'s kernel seconds inside its own wall time).
pub fn child_ending_now(name: &'static str, dur_ns: u64) {
    let end_ns = now_ns();
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::SeqCst),
        parent,
        name,
        start_ns: end_ns.saturating_sub(dur_ns),
        end_ns,
        count: 1,
    });
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    REQUEST_PARENT.store(0, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Self time of every span, in the order given: duration minus the part of
/// its interval covered by its children (overlapping children are merged,
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut index: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer attribution of one traced workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Wall time of the root span(s), seconds.
    pub wall_s: f64,
    /// Spans recorded.
    pub spans: usize,
    /// `(layer, self seconds)` in first-seen order.
    pub layers: Vec<(&'static str, f64)>,
    /// `(span name, calls, total seconds, self seconds)` in first-seen order.
    pub names: Vec<(&'static str, u64, f64, f64)>,
}

impl Attribution {
    /// Self seconds of `layer` (0 when the workload never entered it).
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Sum of all self times over wall time — 1 when the tree is sound.
    pub fn covered_frac(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.layers.iter().map(|(_, s)| s).sum::<f64>() / self.wall_s
    }

    /// `(calls, mean seconds per call)` of the span named `name`.
    pub fn per_call(&self, name: &str) -> (u64, f64) {
        self.names
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((0, 0.0), |&(_, c, total, _)| {
                (c, if c == 0 { 0.0 } else { total / c as f64 })
            })
    }
}

/// Sums self times per layer and per span name; wall is the total length
/// of the root spans (parent 0).
pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times(spans);
    let mut out = Attribution {
        wall_s: 0.0,
        spans: spans.len(),
        layers: Vec::new(),
        names: Vec::new(),
    };
    for (s, &self_ns) in spans.iter().zip(selfs.iter()) {
        let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
        let own = self_ns as f64 * 1e-9;
        if s.parent == 0 {
            out.wall_s += dur;
        }
        match out.layers.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, t)) => *t += own,
            None => out.layers.push((s.layer(), own)),
        }
        match out.names.iter_mut().find(|(n, ..)| *n == s.name) {
            Some((_, c, total, selft)) => {
                *c += s.count;
                *total += dur;
                *selft += own;
            }
            None => out.names.push((s.name, s.count, dur, own)),
        }
    }
    out
}

/// The trace file: workload id, span count, and the first
/// [`FILE_SPAN_CAP`] spans.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let rows: Vec<Json> = spans
        .iter()
        .zip(selfs.iter())
        .take(FILE_SPAN_CAP)
        .map(|(s, &self_ns)| {
            Json::obj()
                .field("id", u64::from(s.id))
                .field("parent", u64::from(s.parent))
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("self_ns", self_ns)
                .field("count", s.count)
                .build()
        })
        .collect();
    Json::obj()
        .field("workload", workload)
        .field("spans_recorded", spans.len())
        .field("truncated", spans.len() > FILE_SPAN_CAP)
        .field("spans", Json::Arr(rows))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_on_a_synthetic_tree() {
        // root 0..100; children 10..30 and 20..50 overlap (cover 10..50 = 40);
        // a grandchild 12..20 sits in the first child; one child pokes
        // past the root's end and is clipped (90..120 -> 10 covered).
        let spans = vec![
            span(1, 0, "ledger.workload", 0, 100),
            span(2, 1, "core.a", 10, 30),
            span(3, 1, "blas.b", 20, 50),
            span(4, 2, "sim.c", 12, 20),
            span(5, 1, "serve.d", 90, 120),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![50, 12, 30, 8, 30]);
        let a = attribute(&spans);
        assert!((a.wall_s - 100e-9).abs() < 1e-15);
        assert!((a.layer_s("ledger") - 50e-9).abs() < 1e-15);
        assert!((a.layer_s("core") - 12e-9).abs() < 1e-15);
        assert_eq!(a.layer_s("nope"), 0.0);
        assert_eq!(a.per_call("core.a").0, 1);
    }

    #[test]
    fn nested_spans_sum_to_the_root() {
        let root = open("ledger.test_root");
        {
            let mid = open("core.mid");
            aggregate(&mid, "sim.hot", 600, 3);
            aggregate(&mid, "sim.hot", 400, 2);
            child_ending_now("blas.kernel", 1);
        }
        drop(root);
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| {
                matches!(
                    s.name,
                    "ledger.test_root" | "core.mid" | "sim.hot" | "blas.kernel"
                )
            })
            .collect();
        assert_eq!(spans.len(), 5);
        let a = attribute(&spans);
        assert!((a.covered_frac() - 1.0).abs() < 1e-3);
        // the two aggregates lie end to end: both lengths count
        assert!((a.layer_s("sim") - 5e-9).abs() < 1e-12);
        assert_eq!(a.per_call("sim.hot").0, 1000);
        let parsed = Json::parse(&to_json("t", &spans).encode());
        assert!(parsed.is_ok());
    }
}
