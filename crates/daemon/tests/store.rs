//! Retention-store contract: deterministic bin edges equivalent to the
//! `analysis::timeseries` resamplers, bounded rings, minute cascade.

use analysis::timeseries::{bin_average, bin_counts, bin_sum};
use daemon::proto::Tier;
use daemon::store::{
    kpi_samples, metric_index, RawSample, RetentionConfig, RetentionStore, SessionBins, METRICS,
    MIN_BIN_S, SEC_BIN_S,
};
use daemon::LiveSink;
use measure::session::{SessionResult, SessionSpec};
use operators::Operator;
use ran::kpi::{Direction, SlotKpi, BLOCK_RECORDS};
use ran::sink::SlotSink;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

fn small() -> RetentionConfig {
    RetentionConfig { raw_capacity: 256, sec_capacity: 128, min_capacity: 16 }
}

/// Deterministic pseudo-random sample stream: value wanders, some bins
/// end up empty (a gap mid-stream), start offset exercises leading
/// backfill.
fn synthetic_samples() -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut x = 0x2545_f491u64;
    for i in 0..400u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = 2.3 + i as f64 * 0.05;
        if (9.0..12.0).contains(&t) {
            continue; // three empty seconds mid-stream
        }
        let v = 10.0 + (x % 1000) as f64 / 100.0;
        out.push((t, v));
    }
    out
}

/// The store's second tier must agree bin-for-bin with `bin_average`
/// over the identical sample stream (Average metrics), including
/// sample-and-hold across the mid-stream gap and leading backfill.
#[test]
fn second_tier_matches_bin_average() {
    let samples = synthetic_samples();
    let duration_s = samples.last().expect("samples").0 + 0.05;
    let mut store = RetentionStore::new(RetentionConfig::default());
    let metric = metric_index("sinr_db").expect("known metric");

    let mut bins = SessionBins::at_epoch(0.0);
    for &(t, v) in &samples {
        bins.add(metric, t, v);
    }
    store.commit_bins(&bins);

    let reference = bin_average(&samples, SEC_BIN_S, duration_s);
    let counts = bin_counts(&samples, SEC_BIN_S, duration_s);
    let series = store.series(metric, Tier::Seconds, 0);
    assert_eq!(series.bin_s, SEC_BIN_S);
    // The store's grid starts at the first populated bin; bin_average's
    // starts at 0 with backfill. Compare the overlap.
    let offset = series.start_bin as usize;
    assert_eq!(series.values.len(), reference.values.len() - offset);
    for (i, (&got, &want)) in
        series.values.iter().zip(&reference.values[offset..]).enumerate()
    {
        assert!(
            (got - want).abs() < 1e-9,
            "bin {i}: store {got} != bin_average {want}"
        );
    }
    assert_eq!(series.counts[..], counts[offset..]);
}

/// Rate metrics must agree with `bin_sum`: store values are
/// `sum / bin_s / 1e6` of the same per-bin sums.
#[test]
fn second_tier_matches_bin_sum_for_rates() {
    let samples: Vec<(f64, f64)> = (0..300)
        .map(|i| (i as f64 * 0.02, 12_000.0 + (i % 17) as f64 * 500.0))
        .collect();
    let duration_s = 6.0;
    let mut store = RetentionStore::new(RetentionConfig::default());
    let metric = metric_index("dl_mbps").expect("known metric");

    let mut bins = SessionBins::at_epoch(0.0);
    for &(t, v) in &samples {
        bins.add(metric, t, v);
    }
    store.commit_bins(&bins);

    let reference = bin_sum(&samples, SEC_BIN_S, duration_s);
    let series = store.series(metric, Tier::Seconds, 0);
    assert_eq!(series.start_bin, 0);
    assert_eq!(series.values.len(), reference.values.len());
    for (got, want) in series.values.iter().zip(&reference.values) {
        assert!((got * SEC_BIN_S * 1e6 - want).abs() < 1e-6, "{got} vs {want}");
    }
}

/// Sample order within a session must not matter structurally (carriers
/// interleave): shuffled pushes land every sample in the same bin with
/// the same count, and sums agree to float-summation tolerance. (A real
/// session's emission order is itself deterministic, so the daemon's
/// tiers are bit-stable; this guards the bin *placement* logic.)
#[test]
fn commit_is_order_insensitive_within_a_session() {
    let samples = synthetic_samples();
    let metric = metric_index("cqi").expect("known metric");

    let mut forward = SessionBins::at_epoch(60.0);
    for &(t, v) in &samples {
        forward.add(metric, t, v);
    }
    let mut interleaved = SessionBins::at_epoch(60.0);
    // Two interleaved "carriers": evens then odds per pair, plus a
    // block-reversed tail to force mid-vector inserts.
    let (head, tail) = samples.split_at(samples.len() / 2);
    for pair in head.chunks(2) {
        for &(t, v) in pair.iter().rev() {
            interleaved.add(metric, t, v);
        }
    }
    for &(t, v) in tail {
        interleaved.add(metric, t, v);
    }
    assert_eq!(forward.offset_bin, interleaved.offset_bin);
    let (a, b) = (&forward.bins[metric], &interleaved.bins[metric]);
    assert_eq!(a.len(), b.len());
    for (&(bin_a, sum_a, n_a), &(bin_b, sum_b, n_b)) in a.iter().zip(b) {
        assert_eq!((bin_a, n_a), (bin_b, n_b));
        assert!((sum_a - sum_b).abs() < 1e-9 * sum_a.abs().max(1.0), "{sum_a} vs {sum_b}");
    }
}

/// Every tier is a bounded ring: overfeeding evicts the oldest, and the
/// retention gauges report the capped occupancy.
#[test]
fn rings_stay_bounded_and_gauges_track_occupancy() {
    let config = small();
    let mut store = RetentionStore::new(config);
    let metric = metric_index("rsrp_dbm").expect("known metric");

    // 4x the raw capacity.
    let batch: Vec<RawSample> = (0..(config.raw_capacity * 4))
        .map(|i| RawSample { metric: metric as u8, time_s: i as f64 * 0.01, value: -80.0 })
        .collect();
    store.push_raw(&batch);
    assert_eq!(store.raw_len(), config.raw_capacity);
    // Newest survive.
    let series = store.series(metric, Tier::Raw, 0);
    assert_eq!(series.values.len(), config.raw_capacity);
    let first_kept = (config.raw_capacity * 3) as f64 * 0.01;
    assert!((series.times[0] - first_kept).abs() < 1e-9);

    // 3x the sec capacity, committed in consecutive waves.
    for wave in 0..3u64 {
        let mut bins = SessionBins::at_epoch((wave * config.sec_capacity as u64 * 2) as f64);
        for s in 0..(config.sec_capacity as u64) {
            bins.add(metric, s as f64 + 0.5, -85.0);
        }
        store.commit_bins(&bins);
    }
    assert_eq!(store.bins_len(Tier::Seconds), config.sec_capacity);
    assert!(store.bins_len(Tier::Minutes) <= config.min_capacity);

    // The retention gauges are process-global and other tests in this
    // binary run stores concurrently, so only existence and sanity are
    // asserted here; the *exact* gauge-vs-capacity bound is checked in
    // the single-daemon `daemon_smoke` gating run.
    let snap = obs::snapshot();
    for gauge in ["daemon.retained_raw", "daemon.retained_sec_bins", "daemon.retained_min_bins"] {
        let v = snap.gauge(gauge).expect("retention gauge registered");
        assert!(v >= 0, "{gauge} went negative: {v}");
    }
}

/// Minute bins are the exact aggregation of their second bins: same
/// total sum and count, 60:1 edge alignment.
#[test]
fn minute_tier_is_the_cascade_of_second_bins() {
    let mut store = RetentionStore::new(RetentionConfig::default());
    let metric = metric_index("sinr_db").expect("known metric");
    let mut bins = SessionBins::at_epoch(0.0);
    // 3 minutes of samples, 4 per second, value = second index.
    for s in 0..180u64 {
        for k in 0..4 {
            bins.add(metric, s as f64 + k as f64 * 0.25, s as f64);
        }
    }
    store.commit_bins(&bins);

    let sec = store.series(metric, Tier::Seconds, 0);
    let min = store.series(metric, Tier::Minutes, 0);
    assert_eq!(min.bin_s, MIN_BIN_S);
    assert_eq!(sec.values.len(), 180);
    assert_eq!(min.values.len(), 3);
    assert_eq!(min.counts.iter().sum::<u64>(), sec.counts.iter().sum::<u64>());
    // Mean of minute 1 = mean of seconds 60..119 = 89.5.
    assert!((min.values[1] - 89.5).abs() < 1e-9);
}

/// `last` returns the newest window, raw and binned.
#[test]
fn last_window_is_newest_last() {
    let mut store = RetentionStore::new(RetentionConfig::default());
    let metric = metric_index("cqi").expect("known metric");
    let mut bins = SessionBins::at_epoch(0.0);
    for s in 0..50u64 {
        bins.add(metric, s as f64, s as f64);
    }
    store.commit_bins(&bins);
    let window = store.series(metric, Tier::Seconds, 10);
    assert_eq!(window.start_bin, 40);
    assert_eq!(window.values, (40..50).map(|s| s as f64).collect::<Vec<_>>());

    store.push_raw(
        &(0..20)
            .map(|i| RawSample { metric: metric as u8, time_s: i as f64, value: i as f64 })
            .collect::<Vec<_>>(),
    );
    let raw = store.series(metric, Tier::Raw, 5);
    assert_eq!(raw.values, vec![15.0, 16.0, 17.0, 18.0, 19.0]);
}

/// Non-finite samples never enter a session's bins (the daemon-side
/// mirror of the resamplers' non-finite-value rule).
#[test]
fn session_bins_drop_nonfinite_samples() {
    let metric = metric_index("sinr_db").expect("known metric");
    let mut bins = SessionBins::at_epoch(0.0);
    bins.add(metric, 0.25, 20.0);
    bins.add(metric, 0.5, f64::NAN);
    bins.add(metric, 0.75, f64::INFINITY);
    bins.add(metric, f64::NAN, 21.0);
    bins.add(metric, -1.0, 21.0);
    assert_eq!(bins.bins[metric], vec![(0, 20.0, 1)]);
}

/// The reference fold: every finite sample through `SessionBins::add`,
/// one at a time, in arrival order.
fn reference_bins(records: &[SlotKpi], epoch_s: f64) -> SessionBins {
    let mut bins = SessionBins::at_epoch(epoch_s);
    for kpi in records {
        kpi_samples(kpi, |metric, value| bins.add(metric, kpi.time_s, value));
    }
    bins
}

/// `LiveSink` folds records per second; its bins must equal the
/// per-sample reference fold bit for bit, and fed one record at a time
/// or in random blocks it leaves the same bins and the same raw ring.
/// Inputs: real session streams (single carrier, and T-Mobile's
/// mixed-numerology CA with its LTE leg), and synthetic records that
/// step back across second boundaries and carry NaN values, NaN times
/// and negative times.
#[test]
fn live_sink_bins_equal_the_per_sample_fold_bitwise() {
    let mut streams: Vec<(String, Vec<SlotKpi>, f64)> = [
        (Operator::VodafoneSpain, 0.0),
        (Operator::OrangeSpain90, 30.0),
        (Operator::TMobileUs, 60.0),
    ]
    .into_iter()
    .map(|(operator, epoch_s)| {
        let trace = SessionResult::run(SessionSpec::stationary(operator, 1, 2.5, 31)).trace;
        (operator.acronym().to_string(), trace.iter().collect(), epoch_s)
    })
    .collect();
    let base = |time_s: f64, direction: Direction| {
        let mut r = SlotKpi::idle(0, time_s, 0, direction, 9, 12.5, -85.0, -11.0, 0);
        r.scheduled = true;
        r.delivered_bits = 24_000;
        r.queue_delay_ms = 1.5;
        r
    };
    let mut synthetic = Vec::new();
    for (i, t) in [0.2, 0.7, 1.1, 0.9, 2.4, 1.95, 3.0, 5.5].into_iter().enumerate() {
        let mut r = base(t, if i % 3 == 0 { Direction::Ul } else { Direction::Dl });
        r.sinr_db = 10.0 + i as f64;
        synthetic.push(r);
        let mut nan_value = base(t + 0.01, Direction::Dl);
        nan_value.sinr_db = f64::NAN;
        nan_value.rsrp_dbm = f64::INFINITY;
        synthetic.push(nan_value);
    }
    synthetic.push(base(f64::NAN, Direction::Dl));
    synthetic.push(base(-0.5, Direction::Ul));
    synthetic.push(base(f64::INFINITY, Direction::Dl));
    synthetic.push(base(4.0, Direction::Dl));
    // A first value of -0.0 must seed its bin as -0.0, not 0.0 + -0.0.
    let mut negative_zero = base(6.25, Direction::Dl);
    negative_zero.sinr_db = -0.0;
    synthetic.push(negative_zero);
    streams.push(("synthetic".to_string(), synthetic, 120.0));

    let bits = |v: &Vec<(u64, f64, u64)>| -> Vec<(u64, u64, u64)> {
        v.iter().map(|&(b, sum, n)| (b, sum.to_bits(), n)).collect()
    };
    for (seed, (name, records, epoch_s)) in streams.iter().enumerate() {
        let want = reference_bins(records, *epoch_s);
        let mut rings = Vec::new();
        for blocks in [None, Some(seed as u64)] {
            let store = Arc::new(Mutex::new(RetentionStore::new(RetentionConfig::default())));
            let mut sink = LiveSink::new(Arc::clone(&store), *epoch_s);
            match blocks {
                None => records.iter().for_each(|r| sink.push(r)),
                Some(state) => feed_blocks(&mut sink, records, state),
            }
            sink.finish();
            let (got, _) = sink.into_parts();
            assert_eq!(got.offset_bin, want.offset_bin, "{name}");
            assert_eq!(got.bins.len(), METRICS.len(), "{name}");
            for (metric, (g, w)) in got.bins.iter().zip(&want.bins).enumerate() {
                let metric = METRICS[metric].name;
                assert_eq!(bits(g), bits(w), "{name}, blocks {blocks:?}: metric {metric}");
            }
            let store = store.lock().expect("no sink panicked holding the store");
            let ring: Vec<(u64, u64)> = (0..METRICS.len())
                .flat_map(|metric| {
                    let raw = store.series(metric, Tier::Raw, 0);
                    raw.times.into_iter().zip(raw.values).map(|(t, v)| (t.to_bits(), v.to_bits()))
                })
                .collect();
            rings.push(ring);
        }
        assert_eq!(rings[0], rings[1], "{name}: raw ring");
    }
}

/// Feed `records` into `sink` in blocks of random size 1..=
/// [`BLOCK_RECORDS`], drawn from `state` as `tests/chaos.rs::feed` draws
/// them.
fn feed_blocks(sink: &mut impl SlotSink, records: &[SlotKpi], mut state: u64) {
    let mut rest = records;
    while !rest.is_empty() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let len = (1 + (state >> 33) as usize % BLOCK_RECORDS).min(rest.len());
        let (block, tail) = rest.split_at(len);
        sink.push_block(block);
        rest = tail;
    }
}

/// Bulk `push_raw` leaves the same ring as appending one sample at a
/// time with per-sample eviction, for batches around the capacity edge
/// on empty, half-full and full rings.
#[test]
fn bulk_push_raw_matches_per_sample_eviction() {
    let config = small();
    let cap = config.raw_capacity;
    let sample = |i: usize| RawSample {
        metric: (i % METRICS.len()) as u8,
        time_s: i as f64 * 0.001,
        value: i as f64,
    };
    for prefill in [0, cap / 2, cap] {
        for batch_len in [0, 1, cap - 1, cap, cap + 1, 3 * cap] {
            let mut store = RetentionStore::new(config);
            let mut reference = VecDeque::new();
            let first: Vec<RawSample> = (0..prefill).map(sample).collect();
            let batch: Vec<RawSample> = (prefill..prefill + batch_len).map(sample).collect();
            for chunk in [&first, &batch] {
                store.push_raw(chunk);
                for &s in chunk.iter() {
                    if reference.len() == cap {
                        reference.pop_front();
                    }
                    reference.push_back(s);
                }
            }
            let case = format!("prefill {prefill}, batch {batch_len}");
            assert_eq!(store.raw_len(), reference.len(), "{case}");
            for metric in 0..METRICS.len() {
                let series = store.series(metric, Tier::Raw, 0);
                let want: Vec<&RawSample> =
                    reference.iter().filter(|s| s.metric as usize == metric).collect();
                let times: Vec<f64> = want.iter().map(|s| s.time_s).collect();
                let values: Vec<f64> = want.iter().map(|s| s.value).collect();
                assert_eq!((series.times, series.values), (times, values), "{case}");
            }
        }
    }
}
