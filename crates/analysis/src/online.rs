//! Bounded-memory streaming aggregation of slot-level KPIs.
//!
//! [`OnlineAggregates`] is a [`SlotSink`] that folds each record into
//! fixed-size accumulators as the simulator produces it, so a campaign
//! can compute the paper's headline figures — binned throughput series,
//! modulation/layer shares, BLER, CQI, an RE-allocation percentile
//! sketch — without ever materialising a full trace. Memory is
//! O(duration / bin) words for the series, at most
//! [`MAX_BINS`](ran::kpi::MAX_BINS) per series, plus a constant for
//! everything else, independent of the record count
//! ([`OnlineAggregates::heap_bytes`]).
//!
//! All accumulators are integers (bit counts, event counts) or
//! order-independent maxima, so aggregation is bitwise deterministic
//! regardless of how sessions are scheduled across workers, and
//! [`OnlineAggregates::merge`] of per-session aggregates in spec order
//! reproduces the sequential result byte for byte.

use ran::kpi::{
    modulation_code, modulation_from_code, slot_end_s, BinGrid, Direction, Modulation, SlotKpi,
};
use ran::sink::SlotSink;
use serde::{Deserialize, Serialize};

/// Bucket upper bounds of the RE-allocation sketch — reused from the obs
/// crate's count histogram so sketch percentiles line up with the
/// operational metrics.
pub const RE_SKETCH_BOUNDS: &[u64] = obs::COUNT_BOUNDS;

/// Streaming aggregates over a slot-KPI stream (see the module docs).
///
/// Build with [`OnlineAggregates::new`], feed through the
/// [`SlotSink`] impl (or [`ran::sim::UeSim::run_into`]), then read the
/// accessors — which mirror their `KpiTrace` post-hoc counterparts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineAggregates {
    /// Throughput-series bin width, seconds.
    bin_s: f64,
    /// Records consumed.
    records: u64,
    /// Largest inferred slot end ([`ran::kpi::slot_end_s`]).
    max_end_s: f64,
    /// Largest raw `time_s` (duration fallback for slot-0-only streams).
    max_time_s: f64,
    /// Records consumed per time bin (both directions) — the sample
    /// coverage behind each throughput-series point, so a collector gap
    /// is visible as an under-populated bin instead of silently reading
    /// as "the radio delivered nothing".
    bin_records: Vec<u64>,
    /// Delivered bits per DL time bin.
    dl_bin_bits: Vec<u64>,
    /// Delivered bits per UL time bin.
    ul_bin_bits: Vec<u64>,
    /// Total DL delivered bits.
    dl_bits: u64,
    /// Total UL delivered bits.
    ul_bits: u64,
    /// DL new-data grants per modulation code (Fig. 5 numerator).
    modulation_grants: [u64; 4],
    /// Scheduled DL slots.
    dl_scheduled: u64,
    /// Block errors among scheduled DL slots.
    dl_block_errors: u64,
    /// Scheduled DL slots per layer count, index `min(layers, 4)`.
    layer_counts: [u64; 5],
    /// Sum of CQI over all records.
    cqi_sum: u64,
    /// RE-allocation sketch: counts per [`RE_SKETCH_BOUNDS`] bucket plus
    /// one overflow bucket.
    re_sketch: Vec<u64>,
    /// Whether `finish` has sealed the aggregates.
    finished: bool,
}

impl OnlineAggregates {
    /// Fresh aggregates with the given throughput-series bin width
    /// (seconds; the campaign default is 1.0).
    pub fn new(bin_s: f64) -> Self {
        assert!(bin_s > 0.0, "bin width must be positive");
        OnlineAggregates {
            bin_s,
            records: 0,
            max_end_s: 0.0,
            max_time_s: 0.0,
            bin_records: Vec::new(),
            dl_bin_bits: Vec::new(),
            ul_bin_bits: Vec::new(),
            dl_bits: 0,
            ul_bits: 0,
            modulation_grants: [0; 4],
            dl_scheduled: 0,
            dl_block_errors: 0,
            layer_counts: [0; 5],
            cqi_sum: 0,
            re_sketch: vec![0; RE_SKETCH_BOUNDS.len() + 1],
            finished: false,
        }
    }

    /// The configured bin width, seconds.
    pub fn bin_s(&self) -> f64 {
        self.bin_s
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Stream duration, seconds — the end of the latest slot seen, by the
    /// same [`slot_end_s`] rule as [`ran::kpi::KpiTrace::duration_s`].
    pub fn duration_s(&self) -> f64 {
        if self.max_end_s > 0.0 {
            self.max_end_s
        } else {
            self.max_time_s
        }
    }

    /// Total delivered bits in a direction.
    pub fn delivered_bits(&self, direction: Direction) -> u64 {
        match direction {
            Direction::Dl => self.dl_bits,
            Direction::Ul => self.ul_bits,
        }
    }

    /// Mean goodput, Mbps — matches
    /// [`ran::kpi::KpiTrace::mean_throughput_mbps`].
    pub fn mean_throughput_mbps(&self, direction: Direction) -> f64 {
        let dur = self.duration_s();
        if dur <= 0.0 {
            return 0.0;
        }
        self.delivered_bits(direction) as f64 / dur / 1e6
    }

    /// Binned throughput series, Mbps — matches
    /// [`ran::kpi::KpiTrace::throughput_series_mbps`] at the configured
    /// bin width, on the same [`BinGrid`]: empty when the duration's grid
    /// is degenerate.
    pub fn throughput_series_mbps(&self, direction: Direction) -> Vec<f64> {
        let bins = match direction {
            Direction::Dl => &self.dl_bin_bits,
            Direction::Ul => &self.ul_bin_bits,
        };
        let n = self.series_bins();
        (0..n)
            .map(|i| {
                // The last bin also holds every later one (see `fold_to_grid`).
                let bits: u64 = if i + 1 == n {
                    bins.iter().skip(i).sum()
                } else {
                    bins.get(i).copied().unwrap_or(0)
                };
                bits as f64 / self.bin_s / 1e6
            })
            .collect()
    }

    /// Fraction of DL new-data grants per modulation order, ascending
    /// modulation code, omitting unused orders — matches
    /// [`ran::kpi::KpiTrace::modulation_shares`].
    pub fn modulation_shares(&self) -> Vec<(Modulation, f64)> {
        let grants: u64 = self.modulation_grants.iter().sum();
        if grants == 0 {
            return Vec::new();
        }
        self.modulation_grants
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(code, &n)| {
                let m = modulation_from_code(code as u8)
                    .expect("sketch indexes only valid modulation codes");
                (m, n as f64 / grants as f64)
            })
            .collect()
    }

    /// Fraction of scheduled DL slots per MIMO layer count, indexed
    /// `[unused, 1, 2, 3, 4]` — matches [`ran::kpi::KpiTrace::layer_shares`].
    pub fn layer_shares(&self) -> [f64; 5] {
        let mut shares = [0.0; 5];
        if self.dl_scheduled > 0 {
            for (share, &n) in shares.iter_mut().zip(&self.layer_counts) {
                *share = n as f64 / self.dl_scheduled as f64;
            }
        }
        shares
    }

    /// Block-error rate over scheduled DL slots — matches
    /// [`ran::kpi::KpiTrace::dl_bler`].
    pub fn dl_bler(&self) -> f64 {
        if self.dl_scheduled == 0 {
            0.0
        } else {
            self.dl_block_errors as f64 / self.dl_scheduled as f64
        }
    }

    /// Mean CQI over all records — matches [`ran::kpi::KpiTrace::mean_cqi`].
    pub fn mean_cqi(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.cqi_sum as f64 / self.records as f64
        }
    }

    /// Approximate `p`-th percentile (0–100) of DL scheduled RE
    /// allocations, from the fixed-bucket sketch: the upper bound of the
    /// bucket containing the percentile rank (`None` with no grants; the
    /// overflow bucket reports the largest bound).
    pub fn re_allocation_percentile(&self, p: f64) -> Option<u64> {
        let total: u64 = self.re_sketch.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0 * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.re_sketch.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(
                    RE_SKETCH_BOUNDS
                        .get(i)
                        .copied()
                        .unwrap_or(*RE_SKETCH_BOUNDS.last().expect("bounds non-empty")),
                );
            }
        }
        RE_SKETCH_BOUNDS.last().copied()
    }

    /// Records consumed per time bin (both directions), on the series'
    /// grid after [`SlotSink::finish`].
    pub fn bin_records(&self) -> &[u64] {
        &self.bin_records
    }

    /// Per-bin sample coverage: each bin's record count relative to the
    /// most-populated bin, in `[0, 1]`. A healthy full-buffer session
    /// reads ~1.0 everywhere; a collector gap or early abort shows up as
    /// a low-coverage span. Empty aggregates yield an empty vector.
    pub fn bin_coverage(&self) -> Vec<f64> {
        let densest = self.bin_records.iter().copied().max().unwrap_or(0);
        if densest == 0 {
            return vec![0.0; self.bin_records.len()];
        }
        self.bin_records.iter().map(|&n| n as f64 / densest as f64).collect()
    }

    /// The worst per-bin coverage (see [`OnlineAggregates::bin_coverage`]);
    /// `1.0` for an empty aggregate, so healthy pipelines can assert a
    /// floor without special-casing zero-length streams.
    pub fn min_bin_coverage(&self) -> f64 {
        self.bin_coverage().into_iter().fold(1.0, f64::min)
    }

    /// Fold another aggregate into this one (same bin width required).
    /// Merging per-session aggregates in spec order is byte-identical to
    /// streaming the sessions through one sink sequentially.
    pub fn merge(&mut self, other: &OnlineAggregates) {
        assert!(
            (self.bin_s - other.bin_s).abs() < 1e-12,
            "cannot merge aggregates with different bin widths"
        );
        self.records += other.records;
        if other.max_end_s > self.max_end_s {
            self.max_end_s = other.max_end_s;
        }
        if other.max_time_s > self.max_time_s {
            self.max_time_s = other.max_time_s;
        }
        if other.bin_records.len() > self.bin_records.len() {
            self.bin_records.resize(other.bin_records.len(), 0);
        }
        for (a, &b) in self.bin_records.iter_mut().zip(&other.bin_records) {
            *a += b;
        }
        if other.dl_bin_bits.len() > self.dl_bin_bits.len() {
            self.dl_bin_bits.resize(other.dl_bin_bits.len(), 0);
        }
        for (a, &b) in self.dl_bin_bits.iter_mut().zip(&other.dl_bin_bits) {
            *a += b;
        }
        if other.ul_bin_bits.len() > self.ul_bin_bits.len() {
            self.ul_bin_bits.resize(other.ul_bin_bits.len(), 0);
        }
        for (a, &b) in self.ul_bin_bits.iter_mut().zip(&other.ul_bin_bits) {
            *a += b;
        }
        self.dl_bits += other.dl_bits;
        self.ul_bits += other.ul_bits;
        for (a, &b) in self.modulation_grants.iter_mut().zip(&other.modulation_grants) {
            *a += b;
        }
        self.dl_scheduled += other.dl_scheduled;
        self.dl_block_errors += other.dl_block_errors;
        for (a, &b) in self.layer_counts.iter_mut().zip(&other.layer_counts) {
            *a += b;
        }
        self.cqi_sum += other.cqi_sum;
        for (a, &b) in self.re_sketch.iter_mut().zip(&other.re_sketch) {
            *a += b;
        }
        self.finished = self.finished && other.finished;
    }

    /// Bins of the duration's [`BinGrid`]; none when it is degenerate.
    fn series_bins(&self) -> usize {
        BinGrid::new(self.bin_s, self.duration_s()).map_or(0, |grid| grid.n())
    }

    /// Heap bytes held by the per-bin series and the RE sketch (capacity,
    /// not length), as [`ran::kpi::KpiTrace::heap_bytes`] counts a trace.
    /// After [`SlotSink::finish`] the three series hold exactly the
    /// duration grid's bins.
    pub fn heap_bytes(&self) -> usize {
        8 * (self.bin_records.capacity()
            + self.dl_bin_bits.capacity()
            + self.ul_bin_bits.capacity()
            + self.re_sketch.capacity())
    }
}

impl SlotSink for OnlineAggregates {
    fn push_block(&mut self, rows: &[SlotKpi]) {
        for kpi in rows {
            debug_assert!(!self.finished, "push after finish violates the SlotSink contract");
            self.records += 1;
            if let Some(end) = slot_end_s(kpi.slot, kpi.time_s) {
                if end > self.max_end_s {
                    self.max_end_s = end;
                }
            }
            if kpi.time_s > self.max_time_s {
                self.max_time_s = kpi.time_s;
            }
            self.cqi_sum += u64::from(kpi.cqi);

            // A record past the grid's cap counts in every total but joins
            // no bin.
            let bits = u64::from(kpi.delivered_bits);
            let (dir_bits, dir_bin_bits) = match kpi.direction {
                Direction::Dl => (&mut self.dl_bits, &mut self.dl_bin_bits),
                Direction::Ul => (&mut self.ul_bits, &mut self.ul_bin_bits),
            };
            *dir_bits += bits;
            if let Some(bin) = BinGrid::open_index(self.bin_s, kpi.time_s) {
                for series in [&mut self.bin_records, dir_bin_bits] {
                    if bin >= series.len() {
                        series.resize(bin + 1, 0);
                    }
                }
                self.bin_records[bin] += 1;
                dir_bin_bits[bin] += bits;
            }

            if kpi.direction == Direction::Dl && kpi.scheduled {
                self.dl_scheduled += 1;
                if kpi.block_error {
                    self.dl_block_errors += 1;
                }
                self.layer_counts[(kpi.layers as usize).min(4)] += 1;
                if !kpi.is_retx {
                    self.modulation_grants[modulation_code(kpi.modulation) as usize] += 1;
                }
                let re = u64::from(kpi.n_re);
                let bucket = RE_SKETCH_BOUNDS
                    .iter()
                    .position(|&b| re <= b)
                    .unwrap_or(RE_SKETCH_BOUNDS.len());
                self.re_sketch[bucket] += 1;
            }
        }
    }

    fn finish(&mut self) {
        // Fit the series to the duration's grid so empty trailing bins are
        // observable, drop the growth slack, then seal.
        let n_bins = self.series_bins();
        for series in [&mut self.bin_records, &mut self.dl_bin_bits, &mut self.ul_bin_bits] {
            fold_to_grid(series, n_bins);
            series.shrink_to_fit();
        }
        self.finished = true;
    }
}

/// Fit an open-ended per-bin series to an `n`-bin grid: bins past the
/// last one fold into it, as [`BinGrid::index`] clamps them (a slot-0
/// record at an exact multiple of the bin lands at bin `n`), and missing
/// trailing bins read zero. A grid with no bins (empty or degenerate)
/// has no last bin, so the series stays as gathered.
fn fold_to_grid(series: &mut Vec<u64>, n: usize) {
    if n == 0 {
        return;
    }
    if series.len() > n {
        let tail: u64 = series.drain(n..).sum();
        series[n - 1] += tail;
    }
    series.resize(n, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(slot: u64, direction: Direction, bits: u32) -> SlotKpi {
        SlotKpi {
            slot,
            time_s: slot as f64 * 0.0005,
            carrier: 0,
            direction,
            scheduled: true,
            n_prb: 200,
            n_re: 200 * 144,
            mcs: 18,
            modulation: Modulation::Qam64,
            layers: 4,
            tbs_bits: bits,
            delivered_bits: bits,
            is_retx: false,
            block_error: false,
            cqi: 12,
            sinr_db: 20.0,
            rsrp_dbm: -82.0,
            rsrq_db: -10.5,
            serving_site: 0,
            queue_bits: 0,
            queue_delay_ms: 0.0,
        }
    }

    #[test]
    fn streams_match_posthoc_semantics() {
        let mut agg = OnlineAggregates::new(0.01);
        let mut trace = ran::kpi::KpiTrace::new();
        for i in 0..400u64 {
            let dir = if i % 4 == 0 { Direction::Ul } else { Direction::Dl };
            let r = record(i, dir, 50_000 + (i as u32) * 7);
            agg.push(&r);
            ran::kpi::KpiTrace::push(&mut trace, r);
        }
        agg.finish();
        assert_eq!(agg.records(), 400);
        assert!((agg.duration_s() - trace.duration_s()).abs() < 1e-12);
        for dir in [Direction::Dl, Direction::Ul] {
            assert!(
                (agg.mean_throughput_mbps(dir) - trace.mean_throughput_mbps(dir)).abs() < 1e-9
            );
            let online = agg.throughput_series_mbps(dir);
            let posthoc = trace.throughput_series_mbps(dir, 0.01);
            assert_eq!(online.len(), posthoc.len());
            for (a, b) in online.iter().zip(&posthoc) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
        assert_eq!(agg.modulation_shares(), trace.modulation_shares());
        assert_eq!(agg.layer_shares(), trace.layer_shares());
        assert_eq!(agg.dl_bler(), trace.dl_bler());
        assert!((agg.mean_cqi() - trace.mean_cqi()).abs() < 1e-12);
    }

    #[test]
    fn boundary_record_folds_into_the_last_bin() {
        // A slot-0 record carries no slot length, so the duration falls
        // back to its time: 2 s on 1 s bins is a 2-bin grid, and the
        // record's own bin is 2.
        let mut r = record(0, Direction::Dl, 1_000);
        r.time_s = 2.0;
        let mut agg = OnlineAggregates::new(1.0);
        let mut trace = ran::kpi::KpiTrace::new();
        agg.push(&r);
        ran::kpi::KpiTrace::push(&mut trace, r);
        let want = vec![0.0, 0.001];
        assert_eq!(trace.throughput_series_mbps(Direction::Dl, 1.0), want);
        assert_eq!(agg.throughput_series_mbps(Direction::Dl), want, "before finish");
        agg.finish();
        assert_eq!(agg.throughput_series_mbps(Direction::Dl), want, "after finish");
        assert_eq!(agg.throughput_series_mbps(Direction::Ul), vec![0.0, 0.0]);
        assert_eq!(agg.bin_records(), &[0, 1]);
    }

    #[test]
    fn merge_equals_single_stream() {
        let records: Vec<SlotKpi> =
            (0..300).map(|i| record(i, Direction::Dl, 10_000 + i as u32)).collect();
        let mut whole = OnlineAggregates::new(0.05);
        for r in &records {
            whole.push(r);
        }
        whole.finish();

        let mut left = OnlineAggregates::new(0.05);
        let mut right = OnlineAggregates::new(0.05);
        for r in &records[..100] {
            left.push(r);
        }
        left.finish();
        for r in &records[100..] {
            right.push(r);
        }
        right.finish();
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn gapped_stream_reports_low_bin_coverage() {
        // 400 slots at 0.5 ms over 0.2 s, with slots 100..200 (the second
        // 0.05 s bin) missing — a collector gap.
        let mut agg = OnlineAggregates::new(0.05);
        for i in (0..400u64).filter(|i| !(100..200).contains(i)) {
            agg.push(&record(i, Direction::Dl, 1_000));
        }
        agg.finish();
        let coverage = agg.bin_coverage();
        assert_eq!(coverage.len(), 4);
        assert_eq!(agg.bin_records().iter().sum::<u64>(), 300);
        // Bin boundaries are float divisions, so a boundary slot may land
        // one bin over — assert the gap's shape, not exact counts.
        assert!(coverage[1] < 0.05, "gapped bin must read near-empty: {coverage:?}");
        assert!(agg.min_bin_coverage() < 0.05);
        // A healthy stream reads near-full coverage everywhere.
        let mut healthy = OnlineAggregates::new(0.05);
        for i in 0..400u64 {
            healthy.push(&record(i, Direction::Dl, 1_000));
        }
        healthy.finish();
        assert!(healthy.min_bin_coverage() > 0.9, "{:?}", healthy.bin_coverage());
        // Empty aggregates don't trip coverage assertions.
        assert_eq!(OnlineAggregates::new(1.0).min_bin_coverage(), 1.0);
    }

    #[test]
    fn re_sketch_percentiles_are_bounded() {
        let mut agg = OnlineAggregates::new(1.0);
        for i in 0..100u64 {
            agg.push(&record(i, Direction::Dl, 1_000));
        }
        agg.finish();
        let p50 = agg.re_allocation_percentile(50.0).unwrap();
        // 28 800 REs land in the overflow region of the count bounds.
        assert_eq!(p50, *RE_SKETCH_BOUNDS.last().unwrap());
        assert!(OnlineAggregates::new(1.0).re_allocation_percentile(50.0).is_none());
    }
}
