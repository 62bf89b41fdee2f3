//! A small scoped worker pool for embarrassingly parallel diagnosis work.
//!
//! The diagnosis flows fan out over *independent* units of work — test
//! batches in BSIM, candidate sets in validity screening, instances of a
//! campaign. Each unit needs mutable per-worker scratch (typically a
//! reusable [`crate::PackedSim`] engine), and the caller needs results in
//! a *deterministic* order so that parallel diagnosis is bit-identical to
//! sequential diagnosis regardless of thread count.
//!
//! The build environment is offline (no rayon), so this module implements
//! the minimal pool those flows need on plain [`std::thread::scope`]:
//!
//! * [`Parallelism`] — the thread-count policy threaded through the
//!   diagnosis option structs ([`Parallelism::Auto`] reads the machine's
//!   [`std::thread::available_parallelism`], overridable with the
//!   `GATEDIAG_WORKERS` environment variable);
//! * [`parallel_map_init`] — map `0..items` through a work function with
//!   per-worker state, stealing items off a shared atomic index and
//!   returning results in item order.
//!
//! # Determinism
//!
//! Work stealing makes the *schedule* nondeterministic, but results are
//! collected per item index and reassembled in index order, so as long as
//! the work function is a pure function of `(state, index)` — true for
//! every diagnosis kernel built on it, because each item's simulation
//! cone is recomputed from scratch relative to the worker engine's
//! baseline — the output of [`parallel_map_init`] is identical for every
//! worker count, including the inlined `workers == 1` path.
//!
//! # Example
//!
//! ```
//! use gatediag_sim::{parallel_map_init, Parallelism};
//!
//! let squares = parallel_map_init(
//!     Parallelism::Fixed(4).workers(16),
//!     16,
//!     || 0u64, // per-worker state (e.g. a PackedSim in the real flows)
//!     |_state, i| (i as u64) * (i as u64),
//! );
//! assert_eq!(squares[7], 49);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count policy for the parallel diagnosis entry points.
///
/// Every parallel flow is bit-identical to its sequential counterpart for
/// any resolved worker count, so this only trades wall time for cores.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// One worker, inline on the calling thread (no spawning at all).
    Sequential,
    /// Exactly this many workers (values of 0 and 1 mean sequential).
    /// Like the `GATEDIAG_WORKERS` override, absurdly large requests clamp
    /// to [`MAX_ENV_WORKERS`] instead of trying to spawn thousands of OS
    /// threads — `--workers 999999` on a large campaign must degrade to
    /// the cap, not exhaust thread limits.
    Fixed(usize),
    /// One worker per available core, as reported by
    /// [`std::thread::available_parallelism`]. The `GATEDIAG_WORKERS`
    /// environment variable, when set to a positive integer, overrides
    /// the probe — useful for pinning CI runs or benchmarking scaling.
    /// Malformed values fall back safely: `0` and non-numeric text are
    /// ignored (the probe runs as if the variable were unset), and
    /// absurdly large values clamp to [`MAX_ENV_WORKERS`] instead of
    /// exhausting OS thread limits.
    #[default]
    Auto,
}

/// Default work floor for [`Parallelism::workers_for`]: roughly the
/// number of scalar operations that dwarfs a thread-spawn cost.
pub const AUTO_WORK_FLOOR: usize = 1 << 17;

/// Hard cap on the worker count accepted from the `GATEDIAG_WORKERS`
/// environment variable. Spawning thousands of scoped threads per
/// diagnosis call would exhaust OS thread limits long before it bought
/// any speed; an absurdly large override is clamped here instead of
/// honoured literally (see [`Parallelism::Auto`]).
pub const MAX_ENV_WORKERS: usize = 1024;

/// Parses a `GATEDIAG_WORKERS` value.
///
/// The override must *never* panic or resolve to zero workers, whatever
/// the environment contains:
///
/// * a positive integer `1..=`[`MAX_ENV_WORKERS`] is honoured as-is;
/// * larger values (including ones that overflow `usize`) clamp to
///   [`MAX_ENV_WORKERS`];
/// * `0`, non-numeric text, and surrounding whitespace-only garbage fall
///   back to `None` — the automatic `available_parallelism` probe — so a
///   misconfigured variable degrades to the default, not to a panic or a
///   zero-worker deadlock.
fn parse_workers(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n.min(MAX_ENV_WORKERS)),
        // Distinguish "too large" (clamp) from "not a number" (ignore):
        // a string of digits that overflows usize still means "as many
        // as possible".
        Err(_) if !value.trim().is_empty() && value.trim().bytes().all(|b| b.is_ascii_digit()) => {
            Some(MAX_ENV_WORKERS)
        }
        Err(_) => None,
    }
}

fn env_workers() -> Option<usize> {
    std::env::var("GATEDIAG_WORKERS")
        .ok()
        .and_then(|v| parse_workers(&v))
}

impl Parallelism {
    /// Resolves the policy to a concrete worker count for `items` units
    /// of work. Never returns 0, and never more workers than items.
    pub fn workers(self, items: usize) -> usize {
        let requested = match self {
            Parallelism::Sequential => 1,
            // Same clamp as the env override: a huge explicit request is a
            // misconfiguration, not a license to spawn a thread army.
            Parallelism::Fixed(n) => n.clamp(1, MAX_ENV_WORKERS),
            Parallelism::Auto => env_workers()
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        };
        requested.min(items.max(1))
    }

    /// [`Parallelism::workers`] with a work floor for
    /// [`Parallelism::Auto`]: when `work` — a caller-supplied estimate of
    /// the total scalar operations (see [`AUTO_WORK_FLOOR`] for the usual
    /// `floor`) — is too small to amortise thread spawning, `Auto`
    /// resolves to one inline worker. An explicit `GATEDIAG_WORKERS`
    /// override or a `Fixed(n)` policy is always honoured regardless of
    /// the floor, so pinned scaling runs measure what they ask for.
    pub fn workers_for(self, items: usize, work: usize, floor: usize) -> usize {
        match self {
            Parallelism::Auto if env_workers().is_none() && work < floor => 1,
            p => p.workers(items),
        }
    }
}

/// Maps `0..items` through `work`, fanning out over `workers` scoped
/// threads with one `init()` state each, and returns the results in item
/// order.
///
/// Items are claimed off a shared atomic counter (work stealing), so an
/// expensive item does not hold up the queue behind a static partition.
/// With `workers <= 1` (or fewer than two items) everything runs inline
/// on the calling thread with a single state and no synchronisation —
/// the sequential reference path.
///
/// # Panics
///
/// Propagates panics from `work` (the scope joins all workers first).
pub fn parallel_map_init<S, R, I, W>(workers: usize, items: usize, init: I, work: W) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
{
    charge_pool_counters(workers, items);
    if workers <= 1 || items <= 1 {
        let mut state = init();
        return (0..items).map(|i| work(&mut state, i)).collect();
    }
    parallel_map_inner(workers, items, init, work)
}

/// Pool observability: the fan-out count and item total are pure
/// functions of the workload (deterministic channel); the thread count
/// actually used varies with the worker policy, so it is quarantined in
/// the timing channel.
fn charge_pool_counters(workers: usize, items: usize) {
    gatediag_obs::count("pool.tasks", 1);
    gatediag_obs::count("pool.items", items as u64);
    let threads = if workers <= 1 || items <= 1 {
        1
    } else {
        workers.min(items)
    };
    gatediag_obs::count_nd("pool.threads", threads as u64);
}

/// [`parallel_map_init`] with a cooperative stop check: `proceed()` is
/// polled before every item claim (on every worker, including the inline
/// sequential path), and once it returns `false` no further items start —
/// skipped items come back as `None`.
///
/// This is the preemption checkpoint of the budget subsystem: the
/// diagnosis flows pass a deadline probe so a wall-clock budget can stop a
/// fan-out *between* work items without poisoning the items already
/// computed. Items are never half-done: an item is either `Some(result)`
/// (claimed before the stop) or `None`. Because workers race the clock
/// independently, *which* items complete under a deadline is
/// nondeterministic — callers quarantine deadline truncation exactly like
/// wall-clock timing. With `proceed` constant-`true` the result is
/// `parallel_map_init` with every element wrapped in `Some`.
pub fn parallel_map_init_while<S, R, I, W, P>(
    workers: usize,
    items: usize,
    init: I,
    work: W,
    proceed: P,
) -> Vec<Option<R>>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
    P: Fn() -> bool + Sync,
{
    charge_pool_counters(workers, items);
    if workers <= 1 || items <= 1 {
        let mut state = init();
        return (0..items)
            .map(|i| proceed().then(|| work(&mut state, i)))
            .collect();
    }
    // Sticky stop: once any worker observes `proceed() == false`, every
    // later claim on every worker is skipped, so the stop is cooperative
    // but prompt even when the probe itself is cheap-but-not-free.
    let stopped = std::sync::atomic::AtomicBool::new(false);
    parallel_map_inner(workers, items, init, |state: &mut S, i| {
        if stopped.load(Ordering::Relaxed) {
            return None;
        }
        if !proceed() {
            stopped.store(true, Ordering::Relaxed);
            return None;
        }
        Some(work(state, i))
    })
}

/// One work item that panicked inside [`parallel_map_init_isolated`]: the
/// item's index and its stringified panic payload (the `String`/`&str`
/// message of an `assert!`/`panic!`, or a placeholder for exotic
/// payloads). Both are pure functions of the item, never of the schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkItemFailure {
    /// Index of the work item that panicked.
    pub item: usize,
    /// The panic payload, stringified.
    pub reason: String,
}

impl std::fmt::Display for WorkItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.item, self.reason)
    }
}

/// Stringifies a caught panic payload: the common `String` / `&'static
/// str` payloads pass through, anything else becomes a placeholder.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// [`parallel_map_init`] with **panic isolation** and no per-worker
/// state: each work item runs under [`std::panic::catch_unwind`], so one
/// poisoned item does not kill its siblings — the pool keeps draining the
/// queue and the item comes back as `Err(WorkItemFailure)` instead of
/// unwinding the caller.
///
/// This is the execution primitive of the fault-tolerant campaign layer;
/// the propagate-by-default [`parallel_map_init`] remains the right
/// choice for the bit-identity-pinned engine flows, where a panic is a
/// bug that must fail the run loudly. Because there is no shared state, a
/// panicking item cannot leak half-mutated scratch into later items.
///
/// # Determinism
///
/// Results and failures come back in item order. As long as `work` is a
/// pure function of the index — including any panic it raises and the
/// payload it raises it with — the returned vector is identical for every
/// worker count.
///
/// # Examples
///
/// ```
/// use gatediag_sim::parallel_map_init_isolated;
///
/// let out = parallel_map_init_isolated(4, 4, |i| {
///     assert!(i != 2, "item 2 is poisoned");
///     i * 10
/// });
/// assert_eq!(out[0], Ok(0));
/// assert_eq!(out[3], Ok(30), "items after the panic still ran");
/// let failure = out[2].as_ref().unwrap_err();
/// assert_eq!(failure.item, 2);
/// assert!(failure.reason.contains("item 2 is poisoned"));
/// ```
pub fn parallel_map_init_isolated<R, W>(
    workers: usize,
    items: usize,
    work: W,
) -> Vec<Result<R, WorkItemFailure>>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    parallel_map_init(
        workers,
        items,
        || (),
        |(), i| {
            catch_unwind(AssertUnwindSafe(|| work(i))).map_err(|payload| WorkItemFailure {
                item: i,
                reason: panic_reason(payload.as_ref()),
            })
        },
    )
}

/// The shared fan-out kernel: `workers >= 2` scoped threads, work-stealing
/// over an atomic index, index-ordered reassembly.
fn parallel_map_inner<S, R, I, W>(workers: usize, items: usize, init: I, work: W) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
{
    let workers = workers.min(items);
    let next = AtomicUsize::new(0);
    // Forward the caller's observability sink into the workers: their
    // counter charges merge (sums commute, so totals stay deterministic)
    // while span recording remains owner-thread-only.
    let sink = gatediag_obs::current();
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let sink = &sink;
                let next = &next;
                let init = &init;
                let work = &work;
                scope.spawn(move || {
                    let _obs = sink.clone().map(gatediag_obs::install);
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        out.push((i, work(&mut state, i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(pairs) => pairs,
                // Re-raise with the original payload so the worker's
                // assertion message reaches the caller intact.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Reassemble in item order: every index appears exactly once.
    let mut slots: Vec<Option<R>> = (0..items).map(|_| None).collect();
    for pairs in &mut collected {
        for (i, r) in pairs.drain(..) {
            debug_assert!(slots[i].is_none(), "item {i} computed twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item claimed exactly once"))
        .collect()
}

/// A boxed unit of work queued on a [`PersistentPool`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between a [`PersistentPool`] handle and its workers.
struct JobQueue {
    jobs: std::sync::Mutex<std::collections::VecDeque<Job>>,
    available: std::sync::Condvar,
    shutdown: std::sync::atomic::AtomicBool,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            jobs: std::sync::Mutex::new(std::collections::VecDeque::new()),
            available: std::sync::Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Blocks until a job is available or shutdown is signalled.
    fn next(&self) -> Option<Job> {
        let mut jobs = self
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            jobs = self
                .available
                .wait(jobs)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(job);
        self.available.notify_one();
    }
}

/// A long-lived worker pool for multiplexing independent requests.
///
/// `parallel_map_*` spin up scoped threads per call, which is the right
/// shape for one large fan-out but wasteful for a daemon that fields many
/// small requests: thread spawn cost would land on every request's latency.
/// `PersistentPool` keeps a fixed set of workers alive and hands each
/// submitted job to one of them.
///
/// Two properties matter for the serve layer:
///
/// - **Panic isolation:** a job that panics reports the panic message to its
///   submitter via `Err`; the worker itself survives and keeps draining the
///   queue, so one poisoned request cannot take down the daemon.
/// - **No cross-request observability bleed:** the pool does *not* forward
///   the submitter's obs sink (unlike `parallel_map_inner`). A job that
///   wants counters installs its own sink inside the closure, keeping each
///   request's trace self-contained.
pub struct PersistentPool {
    queue: std::sync::Arc<JobQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl PersistentPool {
    /// Spawns a pool with `workers` threads (clamped to `1..=MAX_ENV_WORKERS`).
    pub fn new(workers: usize) -> Self {
        let workers = workers.clamp(1, MAX_ENV_WORKERS);
        let queue = std::sync::Arc::new(JobQueue::new());
        let handles = (0..workers)
            .map(|i| {
                let queue = std::sync::Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("gatediag-pool-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.next() {
                            // The job's own catch_unwind (in `run`) reports
                            // the panic to the submitter; this outer guard
                            // only shields the worker loop from jobs queued
                            // through some future raw path.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        PersistentPool {
            queue,
            workers: handles,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job` on a pool worker and blocks until it finishes.
    ///
    /// Returns `Err` with the stringified panic payload if the job panics;
    /// the worker that ran it stays alive either way.
    pub fn run<R, F>(&self, job: F) -> Result<R, String>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        self.queue.push(Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                .map_err(|payload| panic_reason(payload.as_ref()));
            // The submitter may have given up waiting; a dead receiver is fine.
            let _ = tx.send(result);
        }));
        match rx.recv() {
            Ok(result) => result,
            // The channel can only drop without a send if the job was lost to
            // shutdown — report that rather than panicking in the caller.
            Err(_) => Err("worker pool shut down before the job completed".to_string()),
        }
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        self.queue.shutdown.store(true, Ordering::Release);
        self.queue.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_all_worker_counts() {
        for workers in [1usize, 2, 3, 4, 9] {
            let out = parallel_map_init(workers, 37, || (), |(), i| i * 3);
            assert_eq!(
                out,
                (0..37).map(|i| i * 3).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn zero_items_yields_empty() {
        let out: Vec<usize> = parallel_map_init(4, 0, || (), |(), i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = parallel_map_init(16, 3, || (), |(), i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Each worker's state counts how many items it processed; the sum
        // over all items of "my state had seen >= 0 items" is trivially
        // items, but more usefully the sequential path must thread ONE
        // state through everything.
        let out = parallel_map_init(
            1,
            5,
            || 0usize,
            |seen, _i| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn worker_panics_propagate_with_original_message() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_init(
                2,
                8,
                || (),
                |(), i| {
                    assert!(i != 5, "item 5 is forbidden");
                    i
                },
            )
        })
        .expect_err("panic must propagate to the caller");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("item 5 is forbidden"),
            "original payload lost: {message:?}"
        );
    }

    /// The isolated pool run used by the satellite coverage tests: item
    /// `i` panics iff `poison(i)`, survivors return `i * 7`.
    fn isolated_run(
        workers: usize,
        items: usize,
        poison: fn(usize) -> bool,
    ) -> Vec<Result<usize, WorkItemFailure>> {
        parallel_map_init_isolated(workers, items, move |i| {
            assert!(!poison(i), "poisoned item {i}");
            i * 7
        })
    }

    #[test]
    fn isolated_panic_in_first_item_keeps_siblings() {
        for workers in [1usize, 2, 8] {
            let out = isolated_run(workers, 6, |i| i == 0);
            assert_eq!(out.len(), 6, "{workers} workers");
            let failure = out[0].as_ref().expect_err("first item panicked");
            assert_eq!(failure.item, 0);
            assert!(failure.reason.contains("poisoned item 0"));
            for (i, r) in out.iter().enumerate().skip(1) {
                assert_eq!(r, &Ok(i * 7), "{workers} workers, item {i}");
            }
        }
    }

    #[test]
    fn isolated_panic_in_last_item_keeps_siblings() {
        for workers in [1usize, 2, 8] {
            let out = isolated_run(workers, 6, |i| i == 5);
            for (i, r) in out.iter().enumerate().take(5) {
                assert_eq!(r, &Ok(i * 7), "{workers} workers, item {i}");
            }
            let failure = out[5].as_ref().expect_err("last item panicked");
            assert_eq!(failure.item, 5);
            assert!(failure.reason.contains("poisoned item 5"));
        }
    }

    #[test]
    fn isolated_all_items_panic_still_drains_the_queue() {
        for workers in [1usize, 2, 8] {
            let out = isolated_run(workers, 5, |_| true);
            assert_eq!(out.len(), 5, "{workers} workers");
            for (i, r) in out.iter().enumerate() {
                let failure = r.as_ref().expect_err("everything panicked");
                assert_eq!(failure.item, i);
                assert!(failure.reason.contains(&format!("poisoned item {i}")));
            }
        }
    }

    #[test]
    fn isolated_more_workers_than_items() {
        let out = isolated_run(16, 3, |i| i == 1);
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1].as_ref().unwrap_err().item, 1);
        assert_eq!(out[2], Ok(14));
    }

    #[test]
    fn isolated_results_index_ordered_and_identical_across_worker_counts() {
        let baseline = isolated_run(1, 41, |i| i % 7 == 3);
        // Survivors must sit at their own index with their own value.
        for (i, r) in baseline.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i * 7),
                Err(failure) => assert_eq!(failure.item, i),
            }
        }
        for workers in [2usize, 8] {
            let out = isolated_run(workers, 41, |i| i % 7 == 3);
            assert_eq!(out, baseline, "{workers} workers drifted");
        }
    }

    #[test]
    fn isolated_zero_items_yields_empty() {
        let out: Vec<Result<usize, WorkItemFailure>> = parallel_map_init_isolated(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn isolated_stringifies_non_string_payloads() {
        let out = parallel_map_init_isolated(1, 1, |_| -> usize { std::panic::panic_any(42usize) });
        let failure = out[0].as_ref().unwrap_err();
        assert_eq!(failure.reason, "non-string panic payload");
    }

    #[test]
    fn workers_never_exceeds_items_and_never_zero() {
        assert_eq!(Parallelism::Sequential.workers(100), 1);
        assert_eq!(Parallelism::Fixed(0).workers(100), 1);
        assert_eq!(Parallelism::Fixed(8).workers(3), 3);
        assert_eq!(Parallelism::Fixed(8).workers(0), 1);
        assert!(Parallelism::Auto.workers(64) >= 1);
        // Explicit Fixed requests clamp exactly like the env override:
        // `--workers 999999` must never try to spawn that many threads.
        assert_eq!(
            Parallelism::Fixed(999_999).workers(usize::MAX),
            MAX_ENV_WORKERS
        );
        assert_eq!(
            Parallelism::Fixed(usize::MAX).workers(usize::MAX),
            MAX_ENV_WORKERS
        );
        assert_eq!(
            Parallelism::Fixed(MAX_ENV_WORKERS).workers(usize::MAX),
            MAX_ENV_WORKERS
        );
        // The clamp never bites below the cap, and items still bound it.
        assert_eq!(
            Parallelism::Fixed(MAX_ENV_WORKERS - 1).workers(usize::MAX),
            { MAX_ENV_WORKERS - 1 }
        );
        assert_eq!(Parallelism::Fixed(999_999).workers(3), 3);
        // The work-floor variant inherits the clamp too.
        assert_eq!(
            Parallelism::Fixed(999_999).workers_for(usize::MAX, 1 << 30, 1000),
            MAX_ENV_WORKERS
        );
    }

    #[test]
    fn env_override_parsing_never_panics_or_yields_zero() {
        // Honoured as-is.
        assert_eq!(parse_workers("1"), Some(1));
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 8 "), Some(8));
        assert_eq!(parse_workers("007"), Some(7));
        // Zero means "no override", never a zero-worker pool.
        assert_eq!(parse_workers("0"), None);
        assert_eq!(parse_workers("000"), None);
        // Non-numeric garbage means "no override".
        assert_eq!(parse_workers(""), None);
        assert_eq!(parse_workers("  "), None);
        assert_eq!(parse_workers("all"), None);
        assert_eq!(parse_workers("-3"), None);
        assert_eq!(parse_workers("4.5"), None);
        assert_eq!(parse_workers("4x"), None);
        // Absurdly large values clamp instead of spawning a thread army.
        assert_eq!(parse_workers("1000000"), Some(MAX_ENV_WORKERS));
        assert_eq!(
            parse_workers(&usize::MAX.to_string()),
            Some(MAX_ENV_WORKERS)
        );
        // Values that overflow usize entirely still clamp.
        assert_eq!(
            parse_workers("999999999999999999999999999999"),
            Some(MAX_ENV_WORKERS)
        );
        // The cap itself passes through.
        assert_eq!(
            parse_workers(&MAX_ENV_WORKERS.to_string()),
            Some(MAX_ENV_WORKERS)
        );
    }

    #[test]
    fn map_while_true_predicate_matches_plain_map() {
        for workers in [1usize, 2, 4] {
            let out = parallel_map_init_while(workers, 9, || (), |(), i| i * 2, || true);
            assert_eq!(
                out,
                (0..9).map(|i| Some(i * 2)).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn map_while_false_predicate_skips_everything() {
        for workers in [1usize, 3] {
            let out: Vec<Option<usize>> =
                parallel_map_init_while(workers, 5, || (), |(), i| i, || false);
            assert_eq!(out, vec![None; 5], "{workers} workers");
        }
    }

    #[test]
    fn map_while_stop_is_sticky() {
        use std::sync::atomic::AtomicUsize;
        // Allow exactly three claims, then stop: afterwards every item is
        // None and the computed ones are a subset of the claims granted.
        let grants = AtomicUsize::new(3);
        let out = parallel_map_init_while(
            2,
            10,
            || (),
            |(), i| i,
            || {
                // Decrement-style gate: positive means "go".
                loop {
                    let g = grants.load(Ordering::Relaxed);
                    if g == 0 {
                        return false;
                    }
                    if grants
                        .compare_exchange(g, g - 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        return true;
                    }
                }
            },
        );
        let done = out.iter().filter(|r| r.is_some()).count();
        assert!(done <= 3, "more items ran than the gate allowed: {out:?}");
        for (i, r) in out.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn persistent_pool_runs_jobs_and_returns_results() {
        let pool = PersistentPool::new(4);
        assert_eq!(pool.workers(), 4);
        for i in 0..32_u64 {
            assert_eq!(pool.run(move || i * i), Ok(i * i));
        }
    }

    #[test]
    fn persistent_pool_clamps_worker_count() {
        assert_eq!(PersistentPool::new(0).workers(), 1);
        assert_eq!(
            PersistentPool::new(MAX_ENV_WORKERS + 7).workers(),
            MAX_ENV_WORKERS
        );
    }

    #[test]
    fn persistent_pool_survives_a_panicking_job() {
        let pool = PersistentPool::new(2);
        let err = pool
            .run(|| -> u32 { panic!("chaos: deliberate test panic") })
            .unwrap_err();
        assert!(err.contains("deliberate test panic"), "got: {err}");
        // Every worker still drains the queue after the panic.
        for i in 0..8_u64 {
            assert_eq!(pool.run(move || i + 1), Ok(i + 1));
        }
    }

    #[test]
    fn persistent_pool_handles_concurrent_submitters() {
        use std::sync::Arc;
        let pool = Arc::new(PersistentPool::new(3));
        std::thread::scope(|scope| {
            for t in 0..6_u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for i in 0..16_u64 {
                        assert_eq!(pool.run(move || t * 1000 + i), Ok(t * 1000 + i));
                    }
                });
            }
        });
    }

    #[test]
    fn persistent_pool_drop_joins_workers() {
        let pool = PersistentPool::new(2);
        assert_eq!(pool.run(|| 7), Ok(7));
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn work_floor_only_gates_auto() {
        // Below the floor, Auto stays inline; explicit Fixed fans out.
        assert_eq!(Parallelism::Auto.workers_for(64, 100, 1000), 1);
        assert_eq!(Parallelism::Fixed(4).workers_for(64, 100, 1000), 4);
        assert_eq!(Parallelism::Sequential.workers_for(64, 1 << 30, 1000), 1);
        // At or above the floor, Auto falls through to the normal probe.
        assert_eq!(
            Parallelism::Auto.workers_for(64, 1000, 1000),
            Parallelism::Auto.workers(64)
        );
    }
}
