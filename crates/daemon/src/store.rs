//! Tiered KPI retention: raw slot ring → 1 s bins → 1 min bins.
//!
//! The daemon ingests per-slot KPIs indefinitely, so nothing may grow
//! with uptime. Three tiers, each a bounded ring:
//!
//! * **Raw** — the most recent raw samples across all metrics, one
//!   shared ring of [`RetentionConfig::raw_capacity`] entries. The live
//!   "what is the radio doing right now" view.
//! * **Seconds** — per-metric 1 s bins (`(index, sum, count)`), capacity
//!   [`RetentionConfig::sec_capacity`] bins per metric.
//! * **Minutes** — per-metric 1 min bins cascaded from the committed
//!   second bins, capacity [`RetentionConfig::min_capacity`] per metric.
//!
//! Bin edges are deterministic: a sample at daemon-timeline time `t`
//! lands in second-bin `floor(t / 1.0)` and minute-bin
//! `floor(t / 60.0)` — the same `floor(t / bin_s)` grid as
//! `analysis::timeseries::bin_average`, and query-time values follow the
//! same conventions (averages per bin with sample-and-hold over empty
//! bins, sums divided by the bin width for rates). `tests/store.rs`
//! pins the store's second tier bin-for-bin against `bin_average` /
//! `bin_sum` over the identical sample stream.
//!
//! Memory bounds are *observable*: the `daemon.retained_raw`,
//! `daemon.retained_sec_bins` and `daemon.retained_min_bins` gauges
//! track ring occupancy, so a gating run can assert the store never
//! outgrew its configuration.

use crate::proto::{Tier, WireSeries};
use ran::kpi::{Direction, SlotKpi};
use std::collections::VecDeque;

/// Width of a second-tier bin, seconds.
pub const SEC_BIN_S: f64 = 1.0;
/// Width of a minute-tier bin, seconds.
pub const MIN_BIN_S: f64 = 60.0;
/// Second bins per minute bin.
const SEC_PER_MIN: u64 = (MIN_BIN_S / SEC_BIN_S) as u64;

/// How a metric's samples combine into a bin value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Bin value is `sum / bin_s / 1e6` — per-slot delivered *bits*
    /// become Mbps (the `bin_sum` convention, scaled to the paper's
    /// throughput unit).
    Rate,
    /// Bin value is `sum / count`, empty bins sample-and-hold (the
    /// `bin_average` convention).
    Average,
}

/// One live metric the store retains.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Wire name.
    pub name: &'static str,
    /// Aggregation kind.
    pub kind: MetricKind,
}

/// The metrics ingested from every [`SlotKpi`]. Rate metrics carry raw
/// per-slot delivered bits; gauges carry the radio quantity itself.
pub const METRICS: &[MetricDef] = &[
    MetricDef { name: "dl_mbps", kind: MetricKind::Rate },
    MetricDef { name: "ul_mbps", kind: MetricKind::Rate },
    MetricDef { name: "cqi", kind: MetricKind::Average },
    MetricDef { name: "sinr_db", kind: MetricKind::Average },
    MetricDef { name: "rsrp_dbm", kind: MetricKind::Average },
    MetricDef { name: "delay_ms", kind: MetricKind::Average },
];

/// Index of a metric by wire name.
pub fn metric_index(name: &str) -> Option<usize> {
    METRICS.iter().position(|m| m.name == name)
}

/// Ring capacities of the three tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionConfig {
    /// Raw samples retained across all metrics.
    pub raw_capacity: usize,
    /// Second bins retained per metric.
    pub sec_capacity: usize,
    /// Minute bins retained per metric.
    pub min_capacity: usize,
}

impl Default for RetentionConfig {
    /// ~64k raw samples, an hour of seconds, a day of minutes.
    fn default() -> Self {
        RetentionConfig { raw_capacity: 65_536, sec_capacity: 3_600, min_capacity: 1_440 }
    }
}

/// One raw sample in the shared ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawSample {
    /// Metric index into [`METRICS`].
    pub metric: u8,
    /// Daemon-timeline timestamp, seconds.
    pub time_s: f64,
    /// Sample value (bits for rate metrics).
    pub value: f64,
}

/// One closed or accumulating bin.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bin {
    /// Global bin index (`floor(t / bin_s)`).
    index: u64,
    sum: f64,
    count: u64,
}

/// Per-session second-tier accumulation, built lock-free by a
/// [`LiveSink`](crate::sink::LiveSink) and merged into the store in
/// spec order when the session's wave completes — so the binned tiers
/// are deterministic for a given campaign regardless of worker
/// scheduling. Memory is one `(sum, count)` pair per metric per second
/// of session duration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionBins {
    /// Second bin of the session's epoch on the daemon timeline.
    pub offset_bin: u64,
    /// Per metric: `(local second bin, sum, count)` in ascending local
    /// bin order.
    pub bins: Vec<Vec<(u64, f64, u64)>>,
}

impl SessionBins {
    /// Empty accumulation starting at the given epoch (seconds on the
    /// daemon timeline; must be second-aligned for deterministic edges).
    pub fn at_epoch(epoch_s: f64) -> SessionBins {
        debug_assert!(epoch_s >= 0.0 && epoch_s.fract() == 0.0);
        SessionBins {
            offset_bin: (epoch_s / SEC_BIN_S) as u64,
            bins: vec![Vec::new(); METRICS.len()],
        }
    }

    /// Fold one sample (session-relative time) into its second bin.
    /// Samples arrive in non-decreasing time order per carrier, so the
    /// per-metric vec stays sorted with a cheap tail check.
    pub fn add(&mut self, metric: usize, session_time_s: f64, value: f64) {
        if !session_time_s.is_finite() || session_time_s < 0.0 || !value.is_finite() {
            return;
        }
        let local = (session_time_s / SEC_BIN_S) as u64;
        let bins = &mut self.bins[metric];
        // Interleaved carriers can step time slightly backwards between
        // records; walk back over the (tiny) tail to the right bin.
        if let Some(pos) = bins.iter().rposition(|&(b, _, _)| b <= local) {
            if bins[pos].0 == local {
                bins[pos].1 += value;
                bins[pos].2 += 1;
                return;
            }
            bins.insert(pos + 1, (local, value, 1));
        } else {
            bins.insert(0, (local, value, 1));
        }
    }
}

/// The tiered store. Single-writer-at-a-time (the daemon wraps it in a
/// mutex); everything here is plain data.
#[derive(Debug)]
pub struct RetentionStore {
    config: RetentionConfig,
    raw: VecDeque<RawSample>,
    /// Per-metric second-tier rings, ascending bin index.
    sec: Vec<VecDeque<Bin>>,
    /// Per-metric minute-tier rings, ascending bin index.
    min: Vec<VecDeque<Bin>>,
    retained_raw: obs::Gauge,
    retained_sec: obs::Gauge,
    retained_min: obs::Gauge,
    ingested: obs::Counter,
    committed: obs::Counter,
}

impl RetentionStore {
    /// An empty store with the given ring capacities.
    pub fn new(config: RetentionConfig) -> RetentionStore {
        assert!(
            config.raw_capacity > 0 && config.sec_capacity > 0 && config.min_capacity > 0,
            "retention capacities must be positive"
        );
        let reg = obs::registry();
        RetentionStore {
            config,
            raw: VecDeque::with_capacity(config.raw_capacity.min(65_536)),
            sec: (0..METRICS.len()).map(|_| VecDeque::new()).collect(),
            min: (0..METRICS.len()).map(|_| VecDeque::new()).collect(),
            retained_raw: reg.gauge("daemon.retained_raw"),
            retained_sec: reg.gauge("daemon.retained_sec_bins"),
            retained_min: reg.gauge("daemon.retained_min_bins"),
            ingested: reg.counter("daemon.ingested_samples"),
            committed: reg.counter("daemon.committed_bins"),
        }
    }

    /// The configured capacities.
    pub fn config(&self) -> RetentionConfig {
        self.config
    }

    /// Append a batch of raw samples, evicting the oldest past capacity.
    /// Only the batch's newest `raw_capacity` samples can survive, so the
    /// ring evicts and appends in one bulk step each.
    pub fn push_raw(&mut self, batch: &[RawSample]) {
        let capacity = self.config.raw_capacity;
        let kept = &batch[batch.len().saturating_sub(capacity)..];
        let overflow = (self.raw.len() + kept.len()).saturating_sub(capacity);
        self.raw.drain(..overflow);
        self.raw.extend(kept);
        self.ingested.add(batch.len() as u64);
        self.retained_raw.set(self.raw.len() as i64);
    }

    /// Merge one session's second bins (and cascade into the minute
    /// tier). Called in spec order per wave, so the binned tiers are
    /// deterministic for a given campaign configuration.
    pub fn commit_bins(&mut self, session: &SessionBins) {
        let mut committed = 0u64;
        for (metric, bins) in session.bins.iter().enumerate() {
            for &(local, sum, count) in bins {
                let global = session.offset_bin + local;
                merge_bin(&mut self.sec[metric], global, sum, count, self.config.sec_capacity);
                merge_bin(
                    &mut self.min[metric],
                    global / SEC_PER_MIN,
                    sum,
                    count,
                    self.config.min_capacity,
                );
                committed += 1;
            }
        }
        self.committed.add(committed);
        let sec_total: usize = self.sec.iter().map(VecDeque::len).sum();
        let min_total: usize = self.min.iter().map(VecDeque::len).sum();
        self.retained_sec.set(sec_total as i64);
        self.retained_min.set(min_total as i64);
    }

    /// Raw samples currently retained (all metrics).
    pub fn raw_len(&self) -> usize {
        self.raw.len()
    }

    /// Bins currently retained in a tier, summed over metrics.
    pub fn bins_len(&self, tier: Tier) -> usize {
        match tier {
            Tier::Raw => self.raw.len(),
            Tier::Seconds => self.sec.iter().map(VecDeque::len).sum(),
            Tier::Minutes => self.min.iter().map(VecDeque::len).sum(),
        }
    }

    /// A window of one metric at one tier, newest last. `last == 0`
    /// returns everything retained.
    pub fn series(&self, metric: usize, tier: Tier, last: usize) -> WireSeries {
        let def = METRICS[metric];
        match tier {
            Tier::Raw => {
                let picked: Vec<&RawSample> = self
                    .raw
                    .iter()
                    .filter(|s| s.metric as usize == metric)
                    .collect();
                let skip = if last > 0 { picked.len().saturating_sub(last) } else { 0 };
                let window = &picked[skip..];
                WireSeries {
                    metric: def.name.to_string(),
                    tier,
                    bin_s: 0.0,
                    start_bin: 0,
                    times: window.iter().map(|s| s.time_s).collect(),
                    values: window.iter().map(|s| s.value).collect(),
                    counts: Vec::new(),
                }
            }
            Tier::Seconds => self.binned_series(&self.sec[metric], def, tier, SEC_BIN_S, last),
            Tier::Minutes => self.binned_series(&self.min[metric], def, tier, MIN_BIN_S, last),
        }
    }

    /// Dense grid over a bin ring: empty bins between retained bins get
    /// `count == 0` and (for averages) hold the previous value, matching
    /// `analysis::timeseries::bin_average`'s empty-bin conventions —
    /// including the leading backfill from the first real bin.
    fn binned_series(
        &self,
        ring: &VecDeque<Bin>,
        def: MetricDef,
        tier: Tier,
        bin_s: f64,
        last: usize,
    ) -> WireSeries {
        let mut series = WireSeries {
            metric: def.name.to_string(),
            tier,
            bin_s,
            start_bin: 0,
            times: Vec::new(),
            values: Vec::new(),
            counts: Vec::new(),
        };
        let (Some(first), Some(back)) = (ring.front(), ring.back()) else {
            return series;
        };
        let mut start = first.index;
        if last > 0 {
            start = start.max(back.index.saturating_sub(last as u64 - 1));
        }
        series.start_bin = start;
        let n = (back.index - start + 1) as usize;
        series.values.reserve(n);
        series.counts.reserve(n);
        // Backfill seed: the first populated bin's value (bin_average's
        // leading-bin rule), 0.0 if the window is somehow all-empty.
        let mut held = ring
            .iter()
            .find(|b| b.index >= start && b.count > 0)
            .map_or(0.0, |b| bin_value(def.kind, b, bin_s));
        let mut it = ring.iter().skip_while(|b| b.index < start).peekable();
        for index in start..=back.index {
            match it.peek() {
                Some(b) if b.index == index => {
                    let b = it.next().expect("peeked");
                    series.counts.push(b.count);
                    if b.count > 0 {
                        held = bin_value(def.kind, b, bin_s);
                        series.values.push(held);
                    } else {
                        series.values.push(match def.kind {
                            MetricKind::Rate => 0.0,
                            MetricKind::Average => held,
                        });
                    }
                }
                _ => {
                    series.counts.push(0);
                    series.values.push(match def.kind {
                        MetricKind::Rate => 0.0,
                        MetricKind::Average => held,
                    });
                }
            }
        }
        series
    }
}

/// Value of one populated bin under the metric's aggregation kind.
fn bin_value(kind: MetricKind, bin: &Bin, bin_s: f64) -> f64 {
    match kind {
        MetricKind::Rate => bin.sum / bin_s / 1e6,
        MetricKind::Average => bin.sum / bin.count as f64,
    }
}

/// Merge `(sum, count)` into the ring entry for `index`, inserting in
/// ascending-index order, then evict the oldest bins past `capacity`.
/// Commits arrive wave by wave, so the target entry is at (or near) the
/// tail; the backwards scan is O(bins touched this wave).
fn merge_bin(ring: &mut VecDeque<Bin>, index: u64, sum: f64, count: u64, capacity: usize) {
    match ring.iter().rposition(|b| b.index <= index) {
        Some(pos) if ring[pos].index == index => {
            ring[pos].sum += sum;
            ring[pos].count += count;
        }
        Some(pos) => ring.insert(pos + 1, Bin { index, sum, count }),
        None => ring.push_front(Bin { index, sum, count }),
    }
    while ring.len() > capacity {
        ring.pop_front();
    }
}

/// Map one [`SlotKpi`] onto `(metric, value)` samples. Rate metrics see
/// only their direction's records; gauges see every record. Non-finite
/// values (NaN-corrupted measurement fields) are dropped here with the
/// same rule the resamplers apply, counted under
/// `daemon.nonfinite_samples` by the sink.
pub fn kpi_samples(kpi: &SlotKpi, mut f: impl FnMut(usize, f64)) {
    match kpi.direction {
        Direction::Dl => f(0, f64::from(kpi.delivered_bits)),
        Direction::Ul => f(1, f64::from(kpi.delivered_bits)),
    }
    f(2, f64::from(kpi.cqi));
    f(3, kpi.sinr_db);
    f(4, kpi.rsrp_dbm);
    // Queue sojourn of the slot's transport block. Only scheduled slots
    // carry one; full-buffer flows report 0 ms (no queueing layer), so
    // the average is meaningful for workload-driven campaigns.
    if kpi.scheduled {
        f(5, kpi.queue_delay_ms);
    }
}
