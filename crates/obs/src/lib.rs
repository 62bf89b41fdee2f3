//! Deterministic tracing and metrics for the diagnosis stack.
//!
//! Every layer of gatediag — packed simulation, CNF encoding, the CDCL
//! solver, the diagnosis engines, the worker pool and the campaign
//! runner — reports what it did through this crate, under a contract
//! with **two strictly separated channels**:
//!
//! * **Deterministic counters** ([`count`]) — pure functions of the work
//!   performed (sweeps, gate evaluations, clauses, conflicts, budget
//!   charges, …). For any flow whose *results* are worker-count
//!   invariant, these counters are worker-count invariant too, so they
//!   may appear in byte-compared reports and traces.
//! * **The timing channel** — wall-clock span durations and
//!   schedule-dependent counters ([`count_nd`], e.g. threads actually
//!   spawned by a pool fan-out). Quarantined exactly like the campaign's
//!   `wall_ms` column: opt-in, never part of byte-compared output.
//!
//! The crate also carries the workspace's one JSON layer ([`json`]):
//! the trace reader parses with it, and so do the campaign report
//! reader and the serve protocol.
//!
//! # Sink model
//!
//! Observation is *pull-free*: a caller that wants data creates a
//! [`Sink`] and [`install`]s it on the current thread; every
//! instrumented layer then charges counters and opens spans against the
//! installed sink through a thread-local. With no sink installed every
//! entry point is a no-op behind a single thread-local flag check, so
//! hot loops pay nothing in the (default) unobserved configuration.
//! With a sink installed, a [`count`] adds to a per-thread pending
//! delta and takes no lock; pending deltas merge into the sink whenever
//! its totals are read (span enter and exit, [`Sink::take_trace`]) or
//! the thread's sink changes.
//!
//! Spans ([`span`]) are recorded **only on the thread that created the
//! sink** — worker threads inside a fan-out contribute counters (sums
//! commute, so the totals stay deterministic) but never interleave span
//! records, which keeps every span tree strictly nested without any
//! cross-thread ordering. The worker pool in `gatediag_sim` forwards the
//! installing thread's sink into its workers for exactly this reason.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(gatediag_obs::Sink::new());
//! let guard = gatediag_obs::install(sink.clone());
//! {
//!     let _phase = gatediag_obs::span("solve");
//!     gatediag_obs::count("sat.conflicts", 41);
//!     gatediag_obs::count("sat.conflicts", 1);
//! }
//! drop(guard);
//! let trace = sink.take_trace();
//! assert_eq!(trace.counters, vec![("sat.conflicts".to_string(), 42)]);
//! assert_eq!(trace.spans[0].name, "solve");
//! ```

pub mod json;
mod trace;

pub use trace::{parse_trace, parse_trace_line, ObsTrace, SpanRecord, TraceLine, TraceParseError};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Collects counters and spans for one observed region (one campaign
/// instance, one benchmark run). Create it on the thread that will own
/// the span tree, [`install`] it there, and share clones of the `Arc`
/// with worker threads (the pool does this automatically).
pub struct Sink {
    owner: ThreadId,
    shared: Mutex<Shared>,
}

#[derive(Default)]
struct Shared {
    counters: BTreeMap<&'static str, u64>,
    nd_counters: BTreeMap<&'static str, u64>,
    /// Completed and in-flight spans in *enter* (pre-)order; an open
    /// span holds a placeholder here until its guard drops.
    spans: Vec<SpanRecord>,
    stack: Vec<OpenSpan>,
}

struct OpenSpan {
    index: usize,
    start: Instant,
    /// Counter totals at enter; the span's counters are the deltas.
    snapshot: BTreeMap<&'static str, u64>,
}

impl Sink {
    /// A fresh sink owned by the current thread (the only thread whose
    /// [`span`] calls it will record).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Sink {
            owner: std::thread::current().id(),
            shared: Mutex::new(Shared::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        // A panic can never happen while the lock is held (no user code
        // runs under it), but a poisoned lock must not turn the
        // observability layer into a second crash.
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drains everything recorded so far into an [`ObsTrace`]. Open
    /// spans (possible only after a panic unwound past their guards)
    /// are closed as-recorded with whatever deltas they had at enter.
    pub fn take_trace(&self) -> ObsTrace {
        flush_pending();
        let mut shared = self.lock();
        shared.stack.clear();
        ObsTrace {
            spans: std::mem::take(&mut shared.spans),
            counters: std::mem::take(&mut shared.counters)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            nd_counters: std::mem::take(&mut shared.nd_counters)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Sink>>> = const { RefCell::new(None) };
    /// Mirror of `CURRENT.is_some()`: the no-op fast path is one
    /// thread-local `Cell` read and a branch.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Deterministic counter charges not yet merged into `CURRENT`.
    static PENDING: RefCell<Pending> = const { RefCell::new(Pending::new()) };
}

/// One thread's counter deltas charged since the last flush into its
/// current sink, so that [`count`] takes no lock. They are flushed
/// whenever the totals are read or the sink changes: when a span opens
/// or closes, when a sink is installed or uninstalled, and in
/// [`Sink::take_trace`]. Worker threads flush when their forwarded
/// install ends, which the pool's scoped join orders before the owner's
/// next span event, so every total and span delta is what direct
/// charging would give.
struct Pending {
    /// `(name, delta)` in first-charge order, keyed by the name's
    /// address: one name spelled at two call sites may appear twice, and
    /// the entries merge on flush.
    entries: Vec<(&'static str, u64)>,
    /// The entry charged last: hot loops charge one name repeatedly.
    last: usize,
}

impl Pending {
    const fn new() -> Self {
        Pending {
            entries: Vec::new(),
            last: 0,
        }
    }

    #[inline]
    fn add(&mut self, name: &'static str, delta: u64) {
        let same = |entry: &str| std::ptr::eq(entry, name);
        let at = match self.entries.get(self.last) {
            Some(&(entry, _)) if same(entry) => self.last,
            _ => match self.entries.iter().position(|&(entry, _)| same(entry)) {
                Some(at) => at,
                None => {
                    self.entries.push((name, 0));
                    self.entries.len() - 1
                }
            },
        };
        self.entries[at].1 += delta;
        self.last = at;
    }
}

/// Merges this thread's pending counter deltas into its current sink.
fn flush_pending() {
    PENDING.with(|pending| {
        let mut pending = pending.borrow_mut();
        if pending.entries.is_empty() {
            return;
        }
        if let Some(sink) = CURRENT.with(|c| c.borrow().clone()) {
            let mut shared = sink.lock();
            for &(name, delta) in &pending.entries {
                *shared.counters.entry(name).or_insert(0) += delta;
            }
        }
        pending.entries.clear();
    });
}

/// Makes `sink` the current thread's sink until the guard drops (the
/// previous sink, if any, is restored — installs nest).
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub fn install(sink: Arc<Sink>) -> InstallGuard {
    flush_pending();
    let prev = CURRENT.with(|c| c.replace(Some(sink)));
    ACTIVE.with(|a| a.set(true));
    InstallGuard { prev }
}

/// Uninstalls the sink installed by [`install`] when dropped.
pub struct InstallGuard {
    prev: Option<Arc<Sink>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        flush_pending();
        let prev = self.prev.take();
        ACTIVE.with(|a| a.set(prev.is_some()));
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The current thread's sink, if one is installed. The worker pool uses
/// this to forward the caller's sink into its worker threads.
pub fn current() -> Option<Arc<Sink>> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Charges `delta` to the **deterministic** counter `name`. No-op
/// without an installed sink, and a zero delta never creates an entry
/// (so "charged nothing" and "never charged" serialise identically).
/// Callers must only use this for quantities that are pure functions of
/// the work performed — anything schedule-dependent belongs in
/// [`count_nd`].
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if delta == 0 || !ACTIVE.with(Cell::get) {
        return;
    }
    PENDING.with(|pending| pending.borrow_mut().add(name, delta));
}

/// Charges `delta` to the **timing-channel** counter `name`
/// (schedule-dependent quantities: threads spawned, per-worker
/// occupancy). Quarantined from byte-compared output like `wall_ms`.
#[inline]
pub fn count_nd(name: &'static str, delta: u64) {
    if delta == 0 || !ACTIVE.with(Cell::get) {
        return;
    }
    if let Some(sink) = current() {
        *sink.lock().nd_counters.entry(name).or_insert(0) += delta;
    }
}

/// Opens a named span; the returned guard closes it on drop. Records
/// only when the installed sink was created by *this* thread — from any
/// other thread this is a no-op (counters still merge), which keeps the
/// span tree single-threaded and therefore strictly nested.
///
/// A span's counters are the deltas of the deterministic counter map
/// between enter and exit (inclusive of child spans); its `wall_ns`
/// lives in the timing channel.
#[must_use = "dropping the guard immediately closes the span"]
pub fn span(name: &'static str) -> SpanGuard {
    if !ACTIVE.with(Cell::get) {
        return SpanGuard { sink: None };
    }
    let Some(sink) = current() else {
        return SpanGuard { sink: None };
    };
    if sink.owner != std::thread::current().id() {
        return SpanGuard { sink: None };
    }
    flush_pending();
    {
        let mut shared = sink.lock();
        let depth = shared.stack.len();
        let index = shared.spans.len();
        shared.spans.push(SpanRecord {
            name: name.to_string(),
            depth,
            counters: Vec::new(),
            wall_ns: 0,
        });
        let snapshot = shared.counters.clone();
        shared.stack.push(OpenSpan {
            index,
            start: Instant::now(),
            snapshot,
        });
    }
    SpanGuard { sink: Some(sink) }
}

/// Closes its span on drop (see [`span`]).
pub struct SpanGuard {
    sink: Option<Arc<Sink>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        flush_pending();
        let mut shared = sink.lock();
        // Guards drop in strict LIFO order on the owner thread (also
        // during unwinding), so the top of the stack is this span.
        let Some(open) = shared.stack.pop() else {
            return;
        };
        let wall_ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let deltas: Vec<(String, u64)> = shared
            .counters
            .iter()
            .filter_map(|(&name, &total)| {
                let before = open.snapshot.get(name).copied().unwrap_or(0);
                (total > before).then(|| (name.to_string(), total - before))
            })
            .collect();
        let record = &mut shared.spans[open.index];
        record.counters = deltas;
        record.wall_ns = wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sink_means_no_ops() {
        // Nothing installed: every entry point is callable and inert.
        count("x", 1);
        count_nd("y", 1);
        let _span = span("z");
        assert!(current().is_none());
    }

    #[test]
    fn counters_accumulate_and_sort_by_name() {
        let sink = Arc::new(Sink::new());
        let guard = install(sink.clone());
        count("b.two", 2);
        count("a.one", 1);
        count("b.two", 3);
        drop(guard);
        let trace = sink.take_trace();
        assert_eq!(
            trace.counters,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]
        );
        assert!(current().is_none(), "guard uninstalled the sink");
    }

    #[test]
    fn spans_nest_in_preorder_with_inclusive_deltas() {
        let sink = Arc::new(Sink::new());
        let _guard = install(sink.clone());
        {
            let _outer = span("outer");
            count("n", 1);
            {
                let _inner = span("inner");
                count("n", 2);
            }
            count("m", 7);
        }
        let trace = sink.take_trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(
            (trace.spans[0].name.as_str(), trace.spans[0].depth),
            ("outer", 0)
        );
        assert_eq!(
            (trace.spans[1].name.as_str(), trace.spans[1].depth),
            ("inner", 1)
        );
        // Outer deltas include the child's.
        assert_eq!(
            trace.spans[0].counters,
            vec![("m".to_string(), 7), ("n".to_string(), 3)]
        );
        assert_eq!(trace.spans[1].counters, vec![("n".to_string(), 2)]);
    }

    #[test]
    fn spans_record_only_on_the_owner_thread_but_counters_merge() {
        let sink = Arc::new(Sink::new());
        let _guard = install(sink.clone());
        let _root = span("root");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let _guard = install(sink);
                    let _ignored = span("worker-span");
                    count("w", 1);
                });
            }
        });
        drop(_root);
        let trace = sink.take_trace();
        assert_eq!(trace.counters, vec![("w".to_string(), 4)]);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["root"], "worker spans must not interleave");
        assert_eq!(trace.spans[0].counters, vec![("w".to_string(), 4)]);
    }

    #[test]
    fn installs_nest_and_restore() {
        let a = Arc::new(Sink::new());
        let b = Arc::new(Sink::new());
        let ga = install(a.clone());
        {
            let _gb = install(b.clone());
            count("inner", 1);
        }
        count("outer", 1);
        drop(ga);
        assert_eq!(b.take_trace().counters, vec![("inner".to_string(), 1)]);
        assert_eq!(a.take_trace().counters, vec![("outer".to_string(), 1)]);
    }

    #[test]
    fn pending_charges_flush_at_every_read_and_sink_switch() {
        let a = Arc::new(Sink::new());
        let _ga = install(a.clone());
        count("before", 1);
        {
            let _span = span("s");
            count("inside", 2);
            {
                let b = Arc::new(Sink::new());
                let _gb = install(b.clone());
                count("nested", 4);
                drop(_gb);
                assert_eq!(b.take_trace().counters, vec![("nested".to_string(), 4)]);
            }
            count("inside", 3);
        }
        // One name at two addresses still makes one counter.
        let other: &'static str = Box::leak(String::from("before").into_boxed_str());
        count(other, 2);
        // Read while still installed: everything charged so far.
        let trace = a.take_trace();
        assert_eq!(
            trace.counters,
            vec![("before".to_string(), 3), ("inside".to_string(), 5)]
        );
        assert_eq!(trace.spans[0].counters, vec![("inside".to_string(), 5)]);
        count("after", 1);
        assert_eq!(a.take_trace().counters, vec![("after".to_string(), 1)]);
    }

    #[test]
    fn nd_counters_stay_in_the_timing_channel() {
        let sink = Arc::new(Sink::new());
        let _guard = install(sink.clone());
        count_nd("pool.threads", 3);
        count("pool.items", 9);
        let trace = sink.take_trace();
        assert_eq!(trace.counters, vec![("pool.items".to_string(), 9)]);
        assert_eq!(trace.nd_counters, vec![("pool.threads".to_string(), 3)]);
        // Equality ignores the timing channel entirely.
        let mut other = trace.clone();
        other.nd_counters.clear();
        assert_eq!(trace, other);
    }
}
