//! Snapshot-under-load contract: `Registry::snapshot` may run from a
//! periodic publisher thread (the telemetry daemon's tick loop) while
//! campaign workers hammer the same metrics. Two guarantees are pinned
//! here:
//!
//! 1. **No under-tearing**: a histogram snapshot's `count` and `sum` are
//!    never *below* what its buckets account for. (`count` running
//!    *ahead* of the buckets is allowed — that is plain relaxed skew.)
//! 2. **Monotonicity**: counter values and histogram `count`/`sum`/bucket
//!    totals never decrease across consecutive snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WRITERS: usize = 4;

#[test]
fn snapshot_never_tears_under_concurrent_recording() {
    let hist = obs::registry().histogram("test.tear.hist", obs::COUNT_BOUNDS);
    let counter = obs::registry().counter("test.tear.counter");
    let stop = Arc::new(AtomicBool::new(false));
    // Every writer records once before the snapshot loop starts, so the
    // loop always runs under load: on a small machine the 500 snapshots
    // could otherwise finish before any writer thread is scheduled.
    let started = Arc::new(Barrier::new(WRITERS + 1));

    let writers: Vec<_> = (0..WRITERS as u64)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut x: u64 = 0x9e37_79b9 + w;
                let mut record = || {
                    // Cheap xorshift over the bucket range keeps every
                    // bound (and the overflow bucket) in play.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    hist.record(x % 200_000);
                    counter.inc();
                };
                record();
                started.wait();
                while !stop.load(Ordering::Relaxed) {
                    record();
                }
            })
        })
        .collect();
    started.wait();

    let mut last_count = 0u64;
    let mut last_sum = 0u64;
    let mut last_buckets = 0u64;
    let mut last_counter = 0u64;
    for _ in 0..500 {
        let snap = obs::registry().snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.tear.hist")
            .expect("histogram registered");
        let bucket_total: u64 =
            h.buckets.iter().map(|&(_, n)| n).sum::<u64>() + h.overflow;
        // The non-tearing invariant: every bucketed observation has its
        // count/sum increments visible.
        assert!(
            h.count >= bucket_total,
            "count {} tore below bucket total {}",
            h.count,
            bucket_total
        );
        // Monotone non-negative deltas across consecutive snapshots.
        assert!(h.count >= last_count, "count went backwards");
        assert!(h.sum >= last_sum, "sum went backwards");
        assert!(bucket_total >= last_buckets, "bucket total went backwards");
        let c = snap.counter("test.tear.counter").expect("counter registered");
        assert!(c >= last_counter, "counter went backwards");
        last_count = h.count;
        last_sum = h.sum;
        last_buckets = bucket_total;
        last_counter = c;
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread");
    }
    // Quiescent state: the books balance exactly.
    let snap = obs::registry().snapshot();
    let h = snap.histograms.iter().find(|h| h.name == "test.tear.hist").unwrap();
    let bucket_total: u64 = h.buckets.iter().map(|&(_, n)| n).sum::<u64>() + h.overflow;
    assert_eq!(h.count, bucket_total);
    assert!(h.count > 0, "writers recorded something");
}
