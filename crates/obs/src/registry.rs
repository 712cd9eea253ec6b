//! The lock-free metrics registry.
//!
//! Registration (name → storage) takes a mutex and allocates once; the
//! handles it returns are `Copy` references to leaked atomics, so every
//! *update* is a single atomic RMW — no locks, no allocation
//! (`ran/tests/alloc_free.rs` covers the instrumented carrier loop).
//!
//! Per-slot hot paths batch through [`LocalCounter`] instead: an atomic
//! RMW on a process-global cell that several session threads update at
//! once costs a cross-core cache-line transfer per slot, so the carrier
//! and cell loops count into a plain per-instance `u64` and publish it
//! with one atomic add every few thousand slots and on drop.
//!
//! Lock sites tolerate poisoning: the entry list is only ever appended
//! to in one step, so a panicking registrant (kind mismatch) cannot
//! leave it inconsistent, and the process-wide registry must survive it.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A [`Counter`] front that batches updates in a plain per-instance
/// count, for hot loops that several threads run at once: `inc`/`add`
/// touch no shared memory, and [`flush`](LocalCounter::flush) publishes
/// the pending count with one atomic add. The owner picks the flush
/// cadence; dropping the handle flushes whatever is left, so a counter
/// is exact once its owner is gone. A clone starts with nothing pending,
/// so cloning the owner can never count the same events twice.
pub struct LocalCounter {
    counter: Counter,
    pending: u64,
}

impl LocalCounter {
    /// A batching front for `counter`, with nothing pending.
    pub fn new(counter: Counter) -> LocalCounter {
        LocalCounter { counter, pending: 0 }
    }

    /// Count one event locally.
    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Count `n` events locally.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Events counted since the last flush.
    #[inline]
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Publish the pending count to the shared counter.
    #[inline]
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.counter.add(std::mem::take(&mut self.pending));
        }
    }
}

impl Clone for LocalCounter {
    fn clone(&self) -> LocalCounter {
        LocalCounter::new(self.counter)
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for LocalCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LocalCounter({} + {} pending)", self.counter.get(), self.pending)
    }
}

/// A point-in-time signed value (queue depth, imbalance, thread count).
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raise the value to at least `value` (high-water marks).
    #[inline]
    pub fn raise_to(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Shift the value by `delta` (level gauges fed by increments and
    /// decrements, e.g. records currently retained in memory).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Backing storage of a fixed-bucket histogram.
struct HistogramCore {
    /// Inclusive upper bound of each bucket, ascending.
    bounds: &'static [u64],
    /// One count per bound, plus the trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (span nanoseconds,
/// items per worker, …). Recording is a bounded scan over ≤16 bounds
/// plus three atomic adds — no allocation, no locks.
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramCore);

impl Histogram {
    /// Record one observation.
    ///
    /// Ordering contract with [`Registry::snapshot`]: `count` and `sum`
    /// are incremented *before* the bucket, and the bucket add is a
    /// `Release` paired with the snapshot's `Acquire` bucket loads. A
    /// concurrent snapshot that observes a bucket increment therefore
    /// also observes its `count`/`sum` increments — a snapshot may
    /// report `count` *above* the bucket totals (increments still in
    /// flight) but never below them.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.buckets[idx].fetch_add(1, Ordering::Release);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={}, sum={})", self.count(), self.sum())
    }
}

/// Span-duration bounds in nanoseconds: 1 µs … 100 s, decades.
pub const DURATION_NS_BOUNDS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// Generic count bounds (items per worker, records per tick, …).
pub const COUNT_BOUNDS: &[u64] = &[1, 2, 5, 10, 20, 50, 100, 500, 1_000, 10_000, 100_000];

enum Metric {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicI64),
    Histogram { core: &'static HistogramCore, is_span: bool },
}

struct Entry {
    name: &'static str,
    metric: Metric,
}

/// The process-wide metric registry. Obtain it via [`registry`].
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// One histogram in a [`Snapshot`](crate::Snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// `(inclusive upper bound, observations in bucket)` pairs.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, i64)>,
    /// Plain histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span-duration histograms (nanoseconds).
    pub spans: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Total number of distinct metrics (counters + gauges + histograms
    /// + spans).
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len() + self.spans.len()
    }

    /// Value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A span histogram by name, if registered.
    pub fn span(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.spans.iter().find(|h| h.name == name)
    }
}

impl Registry {
    /// Register (or look up) a counter. Names should be `module.metric`
    /// literals; registering the same name twice returns the same handle.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match e.metric {
                Metric::Counter(c) => return Counter(c),
                _ => panic!("obs metric {name:?} already registered with another kind"),
            }
        }
        let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        entries.push(Entry { name, metric: Metric::Counter(cell) });
        Counter(cell)
    }

    /// Register (or look up) a gauge.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match e.metric {
                Metric::Gauge(g) => return Gauge(g),
                _ => panic!("obs metric {name:?} already registered with another kind"),
            }
        }
        let cell: &'static AtomicI64 = Box::leak(Box::new(AtomicI64::new(0)));
        entries.push(Entry { name, metric: Metric::Gauge(cell) });
        Gauge(cell)
    }

    /// Register (or look up) a histogram with the given bucket bounds.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str, bounds: &'static [u64]) -> Histogram {
        self.histogram_impl(name, bounds, false)
    }

    /// Register (or look up) a span-duration histogram (nanosecond
    /// bounds; reported under `spans` in the snapshot).
    pub fn span_histogram(&self, name: &'static str) -> Histogram {
        self.histogram_impl(name, DURATION_NS_BOUNDS, true)
    }

    fn histogram_impl(
        &self,
        name: &'static str,
        bounds: &'static [u64],
        is_span: bool,
    ) -> Histogram {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match e.metric {
                Metric::Histogram { core, .. } => return Histogram(core),
                _ => panic!("obs metric {name:?} already registered with another kind"),
            }
        }
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let core: &'static HistogramCore = Box::leak(Box::new(HistogramCore {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }));
        entries.push(Entry { name, metric: Metric::Histogram { core, is_span } });
        Histogram(core)
    }

    /// Zero every registered metric (registrations are kept). Intended
    /// for tests and the start of gated audit runs.
    pub fn reset(&self) {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            match &e.metric {
                Metric::Counter(c) => c.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.store(0, Ordering::Relaxed),
                Metric::Histogram { core, .. } => {
                    for b in &core.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    core.count.store(0, Ordering::Relaxed);
                    core.sum.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Copy out every metric, sorted by name.
    ///
    /// Safe to call concurrently with workers updating metrics (the
    /// daemon publishes snapshots from a tick thread while campaign
    /// workers increment): each value is one atomic load, counters and
    /// histogram `count`/`sum` are monotone across consecutive
    /// snapshots, and a histogram's `count`/`sum` never tear *below*
    /// its bucket totals — buckets are loaded with `Acquire` before
    /// `count`/`sum`, pairing with the `Release` bucket add in
    /// [`Histogram::record`] (`tests/concurrent_snapshot.rs`). Relaxed
    /// skew the other way (a `count` ahead of the buckets) is expected
    /// under concurrency.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
        };
        for e in entries.iter() {
            match &e.metric {
                Metric::Counter(c) => {
                    snap.counters.push((e.name.to_string(), c.load(Ordering::Relaxed)));
                }
                Metric::Gauge(g) => {
                    snap.gauges.push((e.name.to_string(), g.load(Ordering::Relaxed)));
                }
                Metric::Histogram { core, is_span } => {
                    // Buckets first, with Acquire (see the snapshot doc
                    // comment): any bucket increment seen here makes the
                    // matching count/sum increments visible to the loads
                    // below.
                    let buckets: Vec<(u64, u64)> = core
                        .bounds
                        .iter()
                        .zip(&core.buckets)
                        .map(|(&le, c)| (le, c.load(Ordering::Acquire)))
                        .collect();
                    let overflow = core.buckets[core.bounds.len()].load(Ordering::Acquire);
                    let h = HistogramSnapshot {
                        name: e.name.to_string(),
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        buckets,
                        overflow,
                    };
                    if *is_span {
                        snap.spans.push(h);
                    } else {
                        snap.histograms.push(h);
                    }
                }
            }
        }
        snap.counters.sort();
        snap.gauges.sort();
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap.spans.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry { entries: Mutex::new(Vec::new()) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_handles_are_shared() {
        let a = registry().counter("test.reg.counter");
        let b = registry().counter("test.reg.counter");
        let before = a.get();
        a.inc();
        b.add(4);
        assert_eq!(a.get(), before + 5);
    }

    #[test]
    fn local_counter_publishes_on_flush_and_drop_only() {
        let shared = registry().counter("test.reg.local");
        let mut local = LocalCounter::new(shared);
        local.inc();
        local.add(4);
        assert_eq!((shared.get(), local.pending()), (0, 5));
        local.flush();
        assert_eq!((shared.get(), local.pending()), (5, 0));
        local.add(2);
        drop(local);
        assert_eq!(shared.get(), 7);
    }

    #[test]
    fn local_counter_clone_starts_empty() {
        let shared = registry().counter("test.reg.local_clone");
        let mut local = LocalCounter::new(shared);
        local.add(3);
        let copy = local.clone();
        assert_eq!(copy.pending(), 0);
        drop(copy);
        assert_eq!(shared.get(), 0);
        drop(local);
        assert_eq!(shared.get(), 3);
    }

    #[test]
    fn gauge_set_and_raise() {
        let g = registry().gauge("test.reg.gauge");
        g.set(3);
        g.raise_to(10);
        g.raise_to(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let h = registry().histogram("test.reg.hist", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 555);
        let snap = registry().snapshot();
        let hs = snap.histograms.iter().find(|h| h.name == "test.reg.hist").unwrap();
        assert_eq!(hs.buckets, vec![(10, 1), (100, 1)]);
        assert_eq!(hs.overflow, 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        registry().counter("test.reg.mismatch");
        registry().gauge("test.reg.mismatch");
    }

    #[test]
    fn snapshot_is_sorted() {
        registry().counter("test.reg.z");
        registry().counter("test.reg.a");
        let snap = registry().snapshot();
        let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
