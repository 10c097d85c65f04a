//! The benchmark's clock, its exact counters and its in-memory span
//! recorder.
//!
//! Counters are always on: they are relaxed atomic adds at the
//! decorators, cheap enough for the untraced run, and they never feed
//! back into the program. Spans (and the clock reads they need) are
//! recorded only while tracing is enabled. A span carries its name,
//! thread, start, end, parent span and request id; spans stay in memory
//! until [`take_spans`] and are written out when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Seconds since the first call: the one wall-clock site of the
/// benchmark.
pub fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // rte-lint: allow(L4) benchmark timing; readings are reported, never fed back into the program
    let now = Instant::now();
    now.duration_since(*EPOCH.get_or_init(|| now)).as_secs_f64()
}

/// One exact counter, bumped at a decorator.
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`. Relaxed: a statistic that publishes no other data.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Samples through a training forward pass.
pub static TRAIN_SAMPLES: Counter = Counter::new();
/// Samples through an evaluation forward pass.
pub static EVAL_SAMPLES: Counter = Counter::new();
/// Models the factory built.
pub static MODELS_BUILT: Counter = Counter::new();
/// `RecordSource::read_into` calls.
pub static READ_CALLS: Counter = Counter::new();
/// Records those calls returned.
pub static READ_SAMPLES: Counter = Counter::new();
/// Frames the coordinator sent.
pub static FRAMES_SENT: Counter = Counter::new();
/// Frames the coordinator received.
pub static FRAMES_RECV: Counter = Counter::new();
/// Encoded bytes the coordinator sent.
pub static BYTES_SENT: Counter = Counter::new();
/// Encoded bytes the coordinator received.
pub static BYTES_RECV: Counter = Counter::new();

/// Every counter, in [`Counts`] field order.
const COUNTERS: [&Counter; 9] = [
    &TRAIN_SAMPLES,
    &EVAL_SAMPLES,
    &MODELS_BUILT,
    &READ_CALLS,
    &READ_SAMPLES,
    &FRAMES_SENT,
    &FRAMES_RECV,
    &BYTES_SENT,
    &BYTES_RECV,
];

/// A snapshot of every counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// See [`TRAIN_SAMPLES`].
    pub train_samples: u64,
    /// See [`EVAL_SAMPLES`].
    pub eval_samples: u64,
    /// See [`MODELS_BUILT`].
    pub models_built: u64,
    /// See [`READ_CALLS`].
    pub read_calls: u64,
    /// See [`READ_SAMPLES`].
    pub read_samples: u64,
    /// See [`FRAMES_SENT`].
    pub frames_sent: u64,
    /// See [`FRAMES_RECV`].
    pub frames_recv: u64,
    /// See [`BYTES_SENT`].
    pub bytes_sent: u64,
    /// See [`BYTES_RECV`].
    pub bytes_recv: u64,
}

/// Reads every counter.
pub fn counts() -> Counts {
    let [train_samples, eval_samples, models_built, read_calls, read_samples, frames_sent, frames_recv, bytes_sent, bytes_recv] =
        COUNTERS.map(Counter::get);
    Counts {
        train_samples,
        eval_samples,
        models_built,
        read_calls,
        read_samples,
        frames_sent,
        frames_recv,
        bytes_sent,
        bytes_recv,
    }
}

/// Zeroes every counter (between phases).
pub fn reset_counters() {
    for c in COUNTERS {
        c.reset();
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Enclosing span: the innermost open span on the same thread, else
    /// the current request root, else 0.
    pub parent: u64,
    /// Layer-qualified name, e.g. `nn.train_fwd`.
    pub name: &'static str,
    /// Small per-thread index.
    pub thread: u64,
    /// Start, seconds since the epoch of [`now`].
    pub start: f64,
    /// End, seconds since the epoch of [`now`].
    pub end: f64,
    /// The request the span served (method run, round or streamed run).
    pub request: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static REQUEST: AtomicU64 = AtomicU64::new(0);
static ROOT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

fn thread_index() -> u64 {
    THREAD.with(|t| match t.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(i));
            i
        }
    })
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start: f64,
    request: u64,
    root: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        if self.root {
            ROOT.store(0, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: thread_index(),
            start: self.start,
            end,
            request: self.request,
        };
        // A poisoned recorder only loses spans; Drop must not panic.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

fn open(name: &'static str, root: bool) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| ROOT.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    if root {
        ROOT.store(id, Ordering::SeqCst);
    }
    Guard {
        id,
        parent,
        name,
        start: now(),
        request: REQUEST.load(Ordering::SeqCst),
        root,
    }
}

/// Opens a span around a call into a layer; `None` while tracing is
/// off, so an untraced run reads no clock here.
pub fn span(name: &'static str) -> Option<Guard> {
    enabled().then(|| open(name, false))
}

/// Opens the root span of one request. Spans opened on other threads
/// while it is open (the library's worker threads) take it as parent.
pub fn request(name: &'static str, id: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    REQUEST.store(id, Ordering::SeqCst);
    Some(open(name, true))
}

/// Removes and returns every recorded span, in id order.
pub fn take_spans() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Total and self time of every span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Times {
    /// Summed duration.
    pub total: f64,
    /// Summed duration minus the part of each span its children cover.
    pub self_time: f64,
}

/// Per-name totals and self times. A span's self time is its duration
/// minus the union of its children's intervals, clipped to the span.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Times> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Times> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0.0, |kids| union_within(kids, s.start, s.end));
        let t = out.entry(s.name).or_default();
        t.total += s.end - s.start;
        t.self_time += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// Writes `spans` as tab-separated lines (`id parent request thread name
/// start end`, seconds).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tthread\tname\tstart_s\tend_s")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
            s.id, s.parent, s.request, s.thread, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let kids = [(0.0, 2.0), (1.0, 3.0), (5.0, 7.0), (9.0, 12.0)];
        assert_eq!(union_within(&kids, 0.0, 10.0), 3.0 + 2.0 + 1.0);
        assert_eq!(union_within(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                name: "outer",
                thread: 0,
                start: 0.0,
                end: 10.0,
                request: 1,
            },
            Span {
                id: 2,
                parent: 1,
                name: "inner",
                thread: 0,
                start: 1.0,
                end: 4.0,
                request: 1,
            },
            Span {
                id: 3,
                parent: 1,
                name: "inner",
                thread: 1,
                start: 3.0,
                end: 5.0,
                request: 1,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["outer"].total, 10.0);
        assert_eq!(s["outer"].self_time, 6.0);
        assert_eq!(s["inner"].self_time, 5.0);
    }
}
