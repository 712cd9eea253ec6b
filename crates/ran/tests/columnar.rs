//! AoS ↔ SoA equivalence: the columnar `KpiTrace` must be observationally
//! identical to a plain `Vec<SlotKpi>` baseline — same records back out,
//! same aggregates, same serialisation round-trip — for arbitrary record
//! streams, including ones that straddle chunk boundaries.

use proptest::prelude::*;
use ran::kpi::{
    ColumnError, Direction, KpiTrace, Modulation, SlotKpi, BLOCK_RECORDS, CHUNK_RECORDS,
    VALUE_COLUMN_WIDTHS,
};
use serde::{Deserialize, Serialize};

/// SplitMix64: small deterministic generator for record fields, so each
/// property case is fully determined by (seed, n) drawn from the runner.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// Uniform draw in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// Build `n` records with non-decreasing slots (jumps of 0..3), covering
/// every modulation, both directions, and all flag combinations.
fn gen_records(seed: u64, n: usize) -> Vec<SlotKpi> {
    let mut rng = Mix(seed);
    let mut slot = 0u64;
    (0..n)
        .map(|_| {
            slot += rng.below(3);
            let n_prb = rng.below(274) as u16;
            let tbs_bits = rng.below(2_000_000) as u32;
            let block_error = rng.chance(5);
            SlotKpi {
                slot,
                time_s: slot as f64 * 0.0005,
                carrier: rng.below(3) as u8,
                direction: if rng.chance(3) { Direction::Ul } else { Direction::Dl },
                scheduled: !rng.chance(4),
                n_prb,
                n_re: u32::from(n_prb) * 144,
                mcs: rng.below(29) as u8,
                modulation: match rng.below(4) {
                    0 => Modulation::Qpsk,
                    1 => Modulation::Qam16,
                    2 => Modulation::Qam64,
                    _ => Modulation::Qam256,
                },
                layers: rng.below(5) as u8,
                tbs_bits,
                delivered_bits: if block_error { 0 } else { tbs_bits },
                is_retx: rng.chance(6),
                block_error,
                cqi: rng.below(16) as u8,
                sinr_db: rng.f64_in(-10.0, 40.0),
                rsrp_dbm: rng.f64_in(-130.0, -60.0),
                rsrq_db: -12.0,
                serving_site: rng.below(6) as u32,
                queue_bits: rng.below(1 << 20) as u32,
                queue_delay_ms: rng.f64_in(0.0, 50.0),
            }
        })
        .collect()
}

/// Reference AoS implementations, straight off the record vector.
mod reference {
    use super::*;

    pub fn duration_s(records: &[SlotKpi]) -> f64 {
        let max_end = records
            .iter()
            .filter(|r| r.slot > 0)
            .map(|r| r.time_s + r.time_s / r.slot as f64)
            .fold(0.0f64, f64::max);
        if max_end > 0.0 {
            max_end
        } else {
            records.iter().map(|r| r.time_s).fold(0.0f64, f64::max)
        }
    }

    pub fn mean_throughput_mbps(records: &[SlotKpi], dir: Direction) -> f64 {
        let dur = duration_s(records);
        if dur <= 0.0 {
            return 0.0;
        }
        let bits: u64 = records
            .iter()
            .filter(|r| r.direction == dir)
            .map(|r| u64::from(r.delivered_bits))
            .sum();
        bits as f64 / dur / 1e6
    }

    pub fn throughput_series_mbps(records: &[SlotKpi], dir: Direction, bin_s: f64) -> Vec<f64> {
        let dur = duration_s(records);
        if dur <= 0.0 || bin_s <= 0.0 {
            return Vec::new();
        }
        let n_bins = ((dur / bin_s).ceil() as usize).max(1);
        let mut bits = vec![0u64; n_bins];
        for r in records.iter().filter(|r| r.direction == dir) {
            bits[((r.time_s / bin_s) as usize).min(n_bins - 1)] += u64::from(r.delivered_bits);
        }
        bits.into_iter().map(|b| b as f64 / bin_s / 1e6).collect()
    }

    /// Delivered bits in the `bin_s` bins whose mean CQI (over the
    /// records of both directions) is `>= threshold` (`at_least`) or
    /// `< threshold`, over those bins' total time.
    pub fn mean_throughput_mbps_where_cqi(
        records: &[SlotKpi],
        dir: Direction,
        bin_s: f64,
        threshold: u8,
        at_least: bool,
    ) -> Option<f64> {
        let dur = duration_s(records);
        if dur <= 0.0 || bin_s <= 0.0 {
            return None;
        }
        let n_bins = ((dur / bin_s).ceil() as usize).max(1);
        let mut bits = vec![0u64; n_bins];
        let mut cqis: Vec<Vec<u8>> = vec![Vec::new(); n_bins];
        for r in records {
            let bin = ((r.time_s / bin_s) as usize).min(n_bins - 1);
            cqis[bin].push(r.cqi);
            if r.direction == dir {
                bits[bin] += u64::from(r.delivered_bits);
            }
        }
        let kept: Vec<usize> = (0..n_bins)
            .filter(|&b| !cqis[b].is_empty())
            .filter(|&b| {
                let sum: u64 = cqis[b].iter().map(|&q| u64::from(q)).sum();
                let mean = sum as f64 / cqis[b].len() as f64;
                (mean >= f64::from(threshold)) == at_least
            })
            .collect();
        if kept.is_empty() {
            return None;
        }
        let total: u64 = kept.iter().map(|&b| bits[b]).sum();
        Some(total as f64 / (kept.len() as f64 * bin_s) / 1e6)
    }

    pub fn dl_bler(records: &[SlotKpi]) -> f64 {
        let sched: Vec<&SlotKpi> = records
            .iter()
            .filter(|r| r.direction == Direction::Dl && r.scheduled)
            .collect();
        if sched.is_empty() {
            0.0
        } else {
            sched.iter().filter(|r| r.block_error).count() as f64 / sched.len() as f64
        }
    }

    pub fn layer_shares(records: &[SlotKpi]) -> [f64; 5] {
        let mut counts = [0u64; 5];
        let mut total = 0u64;
        for r in records.iter().filter(|r| r.direction == Direction::Dl && r.scheduled) {
            counts[(r.layers as usize).min(4)] += 1;
            total += 1;
        }
        let mut shares = [0.0; 5];
        if total > 0 {
            for (s, &n) in shares.iter_mut().zip(&counts) {
                *s = n as f64 / total as f64;
            }
        }
        shares
    }
}

proptest! {
    #[test]
    fn columnar_trace_is_observationally_identical_to_aos(
        seed in 0u64..1_000_000,
        n in 0usize..600,
    ) {
        let records = gen_records(seed, n);
        let trace: KpiTrace = records.iter().copied().collect();

        // Round-trip through the columns.
        prop_assert_eq!(trace.len(), records.len());
        prop_assert!(trace.iter().eq(records.iter().copied()));
        for probe in [0, records.len() / 2, records.len().saturating_sub(1)] {
            prop_assert_eq!(trace.get(probe), records.get(probe).copied());
        }
        prop_assert_eq!(trace.last(), records.last().copied());

        // Aggregations match the AoS reference implementations.
        prop_assert!((trace.duration_s() - reference::duration_s(&records)).abs() < 1e-12);
        for dir in [Direction::Dl, Direction::Ul] {
            prop_assert!(
                (trace.mean_throughput_mbps(dir)
                    - reference::mean_throughput_mbps(&records, dir))
                .abs()
                    < 1e-9
            );
            let a = trace.throughput_series_mbps(dir, 0.01);
            let b = reference::throughput_series_mbps(&records, dir, 0.01);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
        prop_assert!((trace.dl_bler() - reference::dl_bler(&records)).abs() < 1e-12);
        prop_assert_eq!(trace.layer_shares(), reference::layer_shares(&records));
    }

    /// For every carrier index `gen_records` draws, the views of that
    /// carrier and of all others partition the trace, and each view's
    /// duration, mean goodput, series and CQI-conditioned goodput are the
    /// reference answers over the view's own records.
    #[test]
    fn carrier_views_match_the_reference_on_their_records(
        seed in 0u64..1_000_000,
        n in 0usize..600,
    ) {
        let records = gen_records(seed, n);
        let trace: KpiTrace = records.iter().copied().collect();
        for c in 0..3u8 {
            let is = trace.filter_carrier_is(c);
            let not = trace.filter_carrier_not(c);
            prop_assert_eq!(is.len() + not.len(), trace.len());
            prop_assert!(is.iter().all(|r| r.carrier == c));
            prop_assert!(not.iter().all(|r| r.carrier != c));
            prop_assert_eq!(is.to_trace().len(), is.len());

            for (view, equal) in [(is, true), (not, false)] {
                let kept: Vec<SlotKpi> =
                    records.iter().copied().filter(|r| (r.carrier == c) == equal).collect();
                prop_assert!((view.duration_s() - reference::duration_s(&kept)).abs() < 1e-12);
                for dir in [Direction::Dl, Direction::Ul] {
                    prop_assert!(
                        (view.mean_throughput_mbps(dir)
                            - reference::mean_throughput_mbps(&kept, dir))
                        .abs()
                            < 1e-9
                    );
                    let a = view.throughput_series_mbps(dir, 0.01);
                    let b = reference::throughput_series_mbps(&kept, dir, 0.01);
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        prop_assert!((x - y).abs() < 1e-9);
                    }
                    // The paper's thresholds, and one near the mean CQI of
                    // uniform draws so both outcomes occur.
                    for (threshold, at_least) in [(12, true), (10, false), (8, true), (8, false)] {
                        let got = if at_least {
                            view.mean_throughput_mbps_where_cqi(dir, 0.01, threshold)
                        } else {
                            view.mean_throughput_mbps_where_cqi_below(dir, 0.01, threshold)
                        };
                        let want = reference::mean_throughput_mbps_where_cqi(
                            &kept, dir, 0.01, threshold, at_least,
                        );
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(x), Some(y)) = (got, want) {
                            prop_assert!((x - y).abs() < 1e-9, "{} vs {}", x, y);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn columnar_serde_roundtrip(seed in 0u64..1_000_000, n in 0usize..300) {
        let records = gen_records(seed, n);
        let trace: KpiTrace = records.iter().copied().collect();
        let back = KpiTrace::from_value(&trace.to_value()).expect("decode own encoding");
        prop_assert_eq!(&trace, &back);
        prop_assert!((trace.duration_s() - back.duration_s()).abs() < 1e-12);
    }

    #[test]
    fn column_dump_roundtrip(seed in 0u64..1_000_000, n in 0usize..2 * CHUNK_RECORDS + 300) {
        let records = gen_records(seed, n);
        let trace: KpiTrace = records.iter().copied().collect();
        let mut dump = Vec::new();
        trace.write_columns(&mut dump);
        prop_assert_eq!(Some(dump.len()), KpiTrace::columns_byte_len(n));
        prop_assert_eq!(dump.len() % 8, 0);
        let back = KpiTrace::read_columns(n, &dump).expect("decode own dump");
        prop_assert_eq!(&trace, &back);
        prop_assert_eq!(trace.duration_s().to_bits(), back.duration_s().to_bits());
        prop_assert_eq!(trace.heap_bytes(), back.heap_bytes());
        // Appending to a decoded trace behaves like appending to the original.
        let (mut a, mut b) = (trace, back);
        for r in gen_records(seed ^ 1, 70) {
            a.push(r);
            b.push(r);
        }
        prop_assert_eq!(a, b);
    }
}

/// The next block length for [`block_appends_equal_per_record_pushes`]:
/// empty, the sizes around one flag word, a random size, or a length
/// that stops short of the next chunk edge — or, once within a block of
/// it, crosses it.
fn block_len(rng: &mut Mix, at: usize) -> usize {
    match rng.below(7) {
        0 => 0,
        1 => 1,
        2 => BLOCK_RECORDS - 1,
        3 => BLOCK_RECORDS,
        4 => BLOCK_RECORDS + 1,
        5 => rng.below(200) as usize,
        _ => {
            let to_edge = CHUNK_RECORDS - at % CHUNK_RECORDS;
            let near = 1 + rng.below(BLOCK_RECORDS as u64 - 1) as usize;
            if to_edge > BLOCK_RECORDS {
                to_edge - near
            } else {
                to_edge + near
            }
        }
    }
}

proptest! {
    /// A trace built from blocks of any size, starting at any offset and
    /// crossing chunk edges, is the trace a push per record builds: the
    /// same records, duration bits, heap footprint and column dump.
    #[test]
    fn block_appends_equal_per_record_pushes(
        seed in 0u64..1_000_000,
        n in 0usize..2 * CHUNK_RECORDS + 300,
    ) {
        let records = gen_records(seed, n);
        let mut pushed = KpiTrace::new();
        for &r in &records {
            pushed.push(r);
        }
        let mut rng = Mix(seed ^ 0xb10c);
        let mut blocked = KpiTrace::new();
        let mut at = 0;
        while at < n {
            let len = block_len(&mut rng, at).min(n - at);
            blocked.push_block(&records[at..at + len]);
            at += len;
        }
        blocked.push_block(&[]);

        prop_assert!(blocked.iter().eq(records.iter().copied()));
        prop_assert_eq!(&blocked, &pushed);
        prop_assert_eq!(blocked.duration_s().to_bits(), pushed.duration_s().to_bits());
        prop_assert_eq!(blocked.heap_bytes(), pushed.heap_bytes());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        blocked.write_columns(&mut a);
        pushed.write_columns(&mut b);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn column_dump_rejects_wrong_sizes_and_codes() {
    let records = gen_records(9, 130);
    let trace: KpiTrace = records.iter().copied().collect();
    let mut dump = Vec::new();
    trace.write_columns(&mut dump);
    for (len, bytes) in [(131, &dump[..]), (129, &dump[..]), (130, &dump[..dump.len() - 8])] {
        assert!(matches!(
            KpiTrace::read_columns(len, bytes),
            Err(ColumnError::LengthMismatch { .. })
        ));
    }
    assert!(matches!(
        KpiTrace::read_columns(usize::MAX, &dump),
        Err(ColumnError::LengthMismatch { expected: None, .. })
    ));
    // The modulation column follows slot, time_s, carrier, n_prb, n_re, mcs.
    let modulation_at: usize =
        VALUE_COLUMN_WIDTHS[..6].iter().map(|w| (130 * w).next_multiple_of(8)).sum();
    dump[modulation_at + 17] = 9;
    assert_eq!(
        KpiTrace::read_columns(130, &dump),
        Err(ColumnError::UnknownModulation { index: 17, code: 9 })
    );
}

#[test]
fn column_dump_ignores_stray_flag_bits_past_len() {
    // 100 unscheduled downlink records: no grant bit set anywhere.
    let trace: KpiTrace = gen_records(4, 100)
        .into_iter()
        .map(|r| SlotKpi { direction: Direction::Dl, scheduled: false, is_retx: false, ..r })
        .collect();
    let mut dump = Vec::new();
    trace.write_columns(&mut dump);
    // Forge grant bits for records 100..128 in the last `scheduled` word
    // (flag columns: ul, scheduled, is_retx, block_error; two words each).
    let last_scheduled_word = dump.len() - 4 * 16 + 16 + 8;
    let forged = u64::MAX << (100 - 64);
    dump[last_scheduled_word..last_scheduled_word + 8].copy_from_slice(&forged.to_le_bytes());
    let back = KpiTrace::read_columns(100, &dump).unwrap();
    assert_eq!(back, trace);
    // Aggregations scan whole flag words; the forged bits must not reach them.
    assert!(back.modulation_shares().is_empty());
    assert_eq!(back.layer_shares(), [0.0; 5]);
}

#[test]
fn chunk_boundary_exactness() {
    // Exercise the full-chunk path deterministically: bitset words of full
    // chunks must concatenate exactly through serialisation.
    let n = CHUNK_RECORDS + 64;
    let records: Vec<SlotKpi> = (0..n as u64)
        .map(|i| {
            let mut r = SlotKpi::idle(
                i,
                i as f64 * 0.0005,
                0,
                if i % 2 == 0 { Direction::Dl } else { Direction::Ul },
                10,
                15.0,
                -85.0,
                -11.0,
                0,
            );
            r.scheduled = i % 3 == 0;
            r.is_retx = i % 5 == 0;
            r.block_error = i % 7 == 0;
            r
        })
        .collect();
    let trace: KpiTrace = records.iter().copied().collect();
    let back = KpiTrace::from_value(&trace.to_value()).unwrap();
    assert_eq!(trace, back);
    assert!(back.iter().eq(records.iter().copied()));
}
