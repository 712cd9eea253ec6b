//! Deterministic parallel execution of independent sessions.
//!
//! The study's 5600+ minutes of campaigns replay here as seeded
//! simulations, and every session derives all of its randomness from its
//! own `SessionSpec::seed` sub-stream (DESIGN.md §5) — sessions share no
//! mutable state, so a campaign is embarrassingly parallel *by
//! construction*. [`Executor`] cashes that in: a scoped thread pool pulls
//! specs off a shared atomic work queue (self-balancing, so a slow
//! driving session doesn't stall a fast stationary one) and results are
//! reassembled in **spec order**, making the parallel output
//! byte-identical to the sequential path. `tests/determinism.rs` is the
//! contract: the JSON encoding of `run_parallel(n)` equals the
//! sequential encoding for every operator profile and thread count.
//!
//! Thread count selection: [`Executor::from_env`] honours
//! `MIDBAND5G_THREADS` (0 or unset ⇒ all available cores), which the
//! figure/`repro_all` binaries route through `experiments::run_campaign`.

use obs::audit::{self, Invariant};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A delivery-accounting failure while reassembling parallel results.
///
/// These conditions previously hid behind a `debug_assert!` and a bare
/// `expect` — invisible in release builds, nameless in debug ones. They
/// indicate a broken executor (or a `work` closure that unwound without
/// the scope propagating it), never bad input data — except
/// [`ExecutorError::WorkerPanic`], which [`Executor::map_resilient`]
/// produces when a caught panic exhausts its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// A worker delivered an output for the same index twice.
    DuplicateDelivery {
        /// The index delivered more than once.
        index: usize,
        /// Total number of work items in the batch.
        total: usize,
    },
    /// A worker delivered an output for an index outside the batch.
    IndexOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// Total number of work items in the batch.
        total: usize,
    },
    /// No output was ever delivered for an index.
    MissingDelivery {
        /// The first index with no delivery.
        index: usize,
        /// How many deliveries were received in total.
        received: usize,
        /// Total number of work items in the batch.
        total: usize,
    },
    /// A worker panicked while processing an item. Produced by
    /// [`Executor::map_resilient`] after the retry budget is exhausted;
    /// `payload` is the panic message (stringified, `"<non-string panic
    /// payload>"` when the payload was neither `&str` nor `String`).
    WorkerPanic {
        /// The index of the item whose worker panicked.
        index: usize,
        /// The panic payload of the *last* failing attempt.
        payload: String,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExecutorError::DuplicateDelivery { index, total } => {
                write!(f, "index {index} of {total} delivered twice")
            }
            ExecutorError::IndexOutOfRange { index, total } => {
                write!(f, "delivery for index {index} outside batch of {total}")
            }
            ExecutorError::MissingDelivery { index, received, total } => {
                write!(
                    f,
                    "no delivery for index {index}: received {received} of {total} outputs"
                )
            }
            ExecutorError::WorkerPanic { index, ref payload } => {
                write!(f, "worker panicked on item {index}: {payload}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Environment variable selecting the campaign thread count.
/// Unset or `0` means "all available cores"; `1` forces sequential.
pub const THREADS_ENV: &str = "MIDBAND5G_THREADS";

/// A deterministic parallel map over independent work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: NonZeroUsize,
}

impl Executor {
    /// An executor with an explicit thread count (0 is clamped to 1).
    pub fn new(threads: usize) -> Executor {
        // Infallible: `.max(1)` guarantees the value is nonzero.
        Executor { threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is nonzero") }
    }

    /// The sequential executor.
    pub fn sequential() -> Executor {
        Executor::new(1)
    }

    /// Thread count from [`THREADS_ENV`], defaulting to available
    /// parallelism. An unparsable value falls back to the default rather
    /// than panicking mid-campaign.
    pub fn from_env() -> Executor {
        let available =
            || std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(0) | Err(_) => available(),
                Ok(n) => n,
            },
            Err(_) => available(),
        };
        Executor::new(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Apply `work` to every item, returning outputs in **input order**
    /// regardless of which worker finished first.
    ///
    /// Workers claim items from a shared atomic cursor — the
    /// channel-of-indexed-results pattern of work-stealing pools, with the
    /// queue itself lock-free. With one worker (or ≤1 item) this runs
    /// inline on the caller's thread with zero scheduling overhead, which
    /// also makes `Executor::sequential()` trivially identical to a plain
    /// `iter().map()`.
    ///
    /// Panics in `work` propagate to the caller once the scope joins.
    /// Delivery-accounting failures panic with the [`ExecutorError`]
    /// message; use [`Executor::try_map`] to handle them instead.
    pub fn map<T, O, F>(&self, items: &[T], work: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(&T) -> O + Sync,
    {
        match self.try_map(items, work) {
            Ok(outputs) => outputs,
            Err(e) => panic!("executor delivery invariant broken: {e}"),
        }
    }

    /// [`Executor::map`], surfacing delivery-accounting failures as
    /// [`ExecutorError`] instead of panicking. Failures are also counted
    /// on the `executor.delivery_errors` metric and the
    /// `executor_delivery` audit invariant.
    pub fn try_map<T, O, F>(&self, items: &[T], work: F) -> Result<Vec<O>, ExecutorError>
    where
        T: Sync,
        O: Send,
        F: Fn(&T) -> O + Sync,
    {
        let n = items.len();
        let _span = obs::span("executor.map");
        let reg = obs::registry();
        reg.counter("executor.items").add(n as u64);
        let workers = self.threads().min(n);
        reg.gauge("executor.workers").set(workers.max(1) as i64);
        let per_worker = reg.histogram("executor.items_per_worker", obs::COUNT_BOUNDS);
        let queue_depth = reg.histogram("executor.queue_depth", obs::COUNT_BOUNDS);
        if workers <= 1 {
            per_worker.record(n as u64);
            reg.gauge("executor.imbalance").set(0);
            return Ok(items.iter().map(work).collect());
        }

        let cursor = AtomicUsize::new(0);
        let claims: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        let (tx, rx) = mpsc::channel::<(usize, O)>();
        std::thread::scope(|scope| {
            for my_claims in &claims {
                let tx = tx.clone();
                let cursor = &cursor;
                let work = &work;
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    my_claims.fetch_add(1, Ordering::Relaxed);
                    queue_depth.record((n - index - 1) as u64);
                    // The receiver outlives the scope; a send can only
                    // fail if the main thread is already unwinding.
                    if tx.send((index, work(&items[index]))).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);

        let counts: Vec<u64> = claims.iter().map(|c| c.load(Ordering::Relaxed) as u64).collect();
        for &c in &counts {
            per_worker.record(c);
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        reg.gauge("executor.imbalance").set((max - min) as i64);

        let assembled = assemble(n, rx);
        if assembled.is_err() {
            reg.counter("executor.delivery_errors").inc();
            audit::violation(Invariant::ExecutorDelivery);
        }
        assembled
    }

    /// [`Executor::map`] with panic isolation and bounded retries.
    ///
    /// Each work item runs under [`std::panic::catch_unwind`]; a panic is
    /// converted into [`ExecutorError::WorkerPanic`] instead of tearing
    /// down the campaign. Failed items are then retried **in spec order
    /// on the caller's thread**, up to `retry_budget` further attempts
    /// each, with `work` receiving the attempt number (0 = first try).
    /// Because retries are sequential and ordered, the outcome is a pure
    /// function of `(items, work)` — byte-identical across thread counts,
    /// the same contract as [`Executor::map`] (`tests/chaos.rs`).
    ///
    /// Accounting lands on the `executor.worker_panics`,
    /// `executor.retries` and `executor.abandoned` obs counters, and —
    /// under `MIDBAND5G_AUDIT` — on the `worker_panic` /
    /// `executor_abandoned` audit invariants (the two counters chaos
    /// gating jobs deliberately allow).
    ///
    /// `work` must be effectively pure per `(item, attempt)`: a panic
    /// may leave shared state poisoned, which is why session work
    /// closures derive everything from the spec's seed.
    pub fn map_resilient<T, O, F>(
        &self,
        items: &[T],
        retry_budget: u32,
        work: F,
    ) -> ResilientOutcome<O>
    where
        T: Sync,
        O: Send,
        F: Fn(&T, u32) -> O + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let _span = obs::span("executor.map_resilient");
        let reg = obs::registry();
        let attempt_item = |item: &T, attempt: u32| -> Result<O, String> {
            catch_unwind(AssertUnwindSafe(|| work(item, attempt))).map_err(|payload| {
                reg.counter("executor.worker_panics").inc();
                if audit::enabled() {
                    audit::violation(Invariant::WorkerPanic);
                }
                payload_string(payload.as_ref())
            })
        };

        // Main pass: full parallel fan-out, panics caught per item.
        let first: Vec<Result<O, String>> = self.map(items, |item| attempt_item(item, 0));

        // Retry pass: failed items re-run sequentially in spec order so
        // the retry accounting (and any attempt-dependent behaviour in
        // `work`) is independent of which worker failed first.
        let mut outputs: Vec<Result<O, ItemFailure>> = Vec::with_capacity(items.len());
        let mut worker_panics = 0u64;
        let mut retries = 0u64;
        let mut abandoned = 0u64;
        for (index, outcome) in first.into_iter().enumerate() {
            match outcome {
                Ok(output) => outputs.push(Ok(output)),
                Err(mut payload) => {
                    worker_panics += 1;
                    let mut attempts = 1u32;
                    let mut recovered = None;
                    for attempt in 1..=retry_budget {
                        retries += 1;
                        reg.counter("executor.retries").inc();
                        attempts += 1;
                        match attempt_item(&items[index], attempt) {
                            Ok(output) => {
                                recovered = Some(output);
                                break;
                            }
                            Err(p) => {
                                worker_panics += 1;
                                payload = p;
                            }
                        }
                    }
                    match recovered {
                        Some(output) => outputs.push(Ok(output)),
                        None => {
                            abandoned += 1;
                            reg.counter("executor.abandoned").inc();
                            if audit::enabled() {
                                audit::violation(Invariant::ExecutorAbandoned);
                            }
                            outputs.push(Err(ItemFailure {
                                index,
                                attempts,
                                error: ExecutorError::WorkerPanic { index, payload },
                            }));
                        }
                    }
                }
            }
        }
        ResilientOutcome { outputs, worker_panics, retries, abandoned }
    }
}

/// Stringify a caught panic payload (the two shapes `panic!` produces).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A work item that exhausted its retry budget in
/// [`Executor::map_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the failed item in the input batch.
    pub index: usize,
    /// Total attempts made (1 initial + retries).
    pub attempts: u32,
    /// The terminal error — [`ExecutorError::WorkerPanic`] carrying the
    /// last panic payload.
    pub error: ExecutorError,
}

impl std::fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} abandoned after {} attempts: {}", self.index, self.attempts, self.error)
    }
}

impl std::error::Error for ItemFailure {}

/// The result of [`Executor::map_resilient`]: per-item outcomes in input
/// order plus the failure accounting.
#[derive(Debug)]
pub struct ResilientOutcome<O> {
    /// One entry per input item, in input order: the output, or the
    /// failure that abandoned it.
    pub outputs: Vec<Result<O, ItemFailure>>,
    /// Panics caught across all attempts.
    pub worker_panics: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Items abandoned after the retry budget.
    pub abandoned: u64,
}

impl<O> ResilientOutcome<O> {
    /// Number of items that ultimately succeeded.
    pub fn succeeded(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_ok()).count()
    }

    /// The failures, in input order.
    pub fn failures(&self) -> impl Iterator<Item = &ItemFailure> {
        self.outputs.iter().filter_map(|o| o.as_ref().err())
    }
}

/// Reassemble indexed deliveries into input order, verifying that every
/// index in `0..n` arrived exactly once.
fn assemble<O>(
    n: usize,
    deliveries: impl IntoIterator<Item = (usize, O)>,
) -> Result<Vec<O>, ExecutorError> {
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut received = 0usize;
    for (index, output) in deliveries {
        let Some(slot) = slots.get_mut(index) else {
            return Err(ExecutorError::IndexOutOfRange { index, total: n });
        };
        if slot.is_some() {
            return Err(ExecutorError::DuplicateDelivery { index, total: n });
        }
        *slot = Some(output);
        received += 1;
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.ok_or(ExecutorError::MissingDelivery { index, received, total: n })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = Executor::new(8).map(&items, |x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(Executor::new(threads).map(&items, |x| x * x + 1), expect);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        Executor::new(4).map(&counters, |c| c.fetch_add(1, Ordering::SeqCst));
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(Executor::new(4).map(&none, |x| *x).is_empty());
        assert_eq!(Executor::new(4).map(&[7u8], |x| *x), vec![7]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::sequential().threads(), 1);
    }

    #[test]
    fn try_map_matches_map() {
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(Executor::new(4).try_map(&items, |x| x + 1), Ok(expect));
    }

    #[test]
    fn assemble_accepts_complete_out_of_order_delivery() {
        let deliveries = vec![(2, 'c'), (0, 'a'), (1, 'b')];
        assert_eq!(assemble(3, deliveries), Ok(vec!['a', 'b', 'c']));
    }

    #[test]
    fn assemble_names_duplicate_index() {
        let err = assemble(3, vec![(1, 'x'), (1, 'y')]).unwrap_err();
        assert_eq!(err, ExecutorError::DuplicateDelivery { index: 1, total: 3 });
        assert_eq!(err.to_string(), "index 1 of 3 delivered twice");
    }

    #[test]
    fn assemble_names_missing_index_and_received_count() {
        let err = assemble(3, vec![(0, 'a'), (2, 'c')]).unwrap_err();
        assert_eq!(err, ExecutorError::MissingDelivery { index: 1, received: 2, total: 3 });
        assert_eq!(err.to_string(), "no delivery for index 1: received 2 of 3 outputs");
    }

    #[test]
    fn assemble_rejects_out_of_range_index() {
        let err = assemble(2, vec![(5, 'z')]).unwrap_err();
        assert_eq!(err, ExecutorError::IndexOutOfRange { index: 5, total: 2 });
        assert_eq!(err.to_string(), "delivery for index 5 outside batch of 2");
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        Executor::new(4).map(&items, |x| {
            assert!(*x < 8, "boom");
            *x
        });
    }

    /// Work that panics on attempts `0..n` for item `x = n`, succeeds
    /// after — the same attempt-counted shape `measure::fault` injects.
    fn flaky(x: &u32, attempt: u32) -> u32 {
        assert!(attempt >= *x, "flaky item {x} panics on attempt {attempt}");
        *x * 10
    }

    #[test]
    fn map_resilient_catches_retries_and_heals() {
        // Items 0..=2 need 0/1/2 retries; budget 2 heals everything.
        let items: Vec<u32> = vec![0, 1, 2, 0, 1];
        let outcome = Executor::new(4).map_resilient(&items, 2, flaky);
        assert_eq!(outcome.abandoned, 0);
        assert_eq!(outcome.succeeded(), 5);
        let outputs: Vec<u32> = outcome.outputs.into_iter().map(Result::unwrap).collect();
        assert_eq!(outputs, vec![0, 10, 20, 0, 10]);
        // 0-items never panic; 1-items panic once, 2-items twice.
        assert_eq!(outcome.worker_panics, 1 + 2 + 1);
        assert_eq!(outcome.retries, 1 + 2 + 1);
    }

    #[test]
    fn map_resilient_abandons_past_budget_with_named_failure() {
        let items: Vec<u32> = vec![0, 5, 1];
        let outcome = Executor::new(2).map_resilient(&items, 1, flaky);
        assert_eq!(outcome.abandoned, 1);
        assert_eq!(outcome.succeeded(), 2);
        let failure = outcome.outputs[1].as_ref().unwrap_err();
        assert_eq!(failure.index, 1);
        assert_eq!(failure.attempts, 2);
        match &failure.error {
            ExecutorError::WorkerPanic { index, payload } => {
                assert_eq!(*index, 1);
                assert!(payload.contains("flaky item 5"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn map_resilient_is_deterministic_across_thread_counts() {
        let items: Vec<u32> = vec![1, 0, 2, 3, 0, 1, 2];
        let describe = |outcome: ResilientOutcome<u32>| -> Vec<Result<u32, String>> {
            (outcome.outputs.into_iter())
                .map(|o| o.map_err(|f| f.to_string()))
                .collect()
        };
        let reference = describe(Executor::sequential().map_resilient(&items, 2, flaky));
        for threads in [2, 4, 8] {
            let parallel = describe(Executor::new(threads).map_resilient(&items, 2, flaky));
            assert_eq!(reference, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn map_resilient_without_panics_matches_map() {
        let items: Vec<u64> = (0..32).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let outcome = Executor::new(4).map_resilient(&items, 2, |x, _attempt| x * 3);
        assert_eq!(outcome.worker_panics, 0);
        assert_eq!(outcome.retries, 0);
        let outputs: Vec<u64> = outcome.outputs.into_iter().map(Result::unwrap).collect();
        assert_eq!(outputs, expect);
    }
}
