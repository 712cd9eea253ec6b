//! [`LiveSink`]: the [`SlotSink`] adapter that streams a running
//! session's KPIs into the daemon's [`RetentionStore`].
//!
//! Each session worker owns one `LiveSink`. Raw samples are batched
//! locally and flushed to the shared store every [`RAW_FLUSH_SAMPLES`]
//! samples — the live view, interleaved across concurrent sessions in
//! arrival order. Second-tier bins are accumulated *locally* (one
//! `(sum, count)` per metric per second) and only merged into the store
//! when the wave completes, in spec order — so the binned tiers are
//! deterministic for a given campaign configuration no matter how the
//! worker threads interleave (the same order contract
//! `measure::executor` gives campaign results).
//!
//! Records arrive almost entirely in time order, so the sink folds each
//! one into the *open second* — the newest second seen — with one bin
//! computation per record and a plain add per metric. When time moves
//! past it, the open second is appended to the [`SessionBins`]. A record
//! that steps back into an older second goes through
//! [`SessionBins::add`]. Every bin sees its values in arrival order
//! either way, so the sums are bit-identical to folding each sample
//! through `SessionBins::add`.

use crate::store::{kpi_samples, RawSample, RetentionStore, SessionBins, METRICS, SEC_BIN_S};
use ran::kpi::SlotKpi;
use ran::sink::SlotSink;
use std::sync::{Arc, Mutex};

/// Raw samples buffered locally before a flush to the shared ring.
/// Small enough that the live view lags a running session by well under
/// a second of slots, large enough that the store mutex is touched a
/// few times per thousand records.
pub const RAW_FLUSH_SAMPLES: usize = 4096;

/// A streaming sink feeding one session into the daemon store.
pub struct LiveSink {
    store: Arc<Mutex<RetentionStore>>,
    bins: SessionBins,
    epoch_s: f64,
    buf: Vec<RawSample>,
    records: u64,
    dl_bits: u64,
    nonfinite: obs::Counter,
    /// Session-local index of the open second.
    open_bin: u64,
    /// Per metric: the open second's running sum and sample count.
    open_sum: [f64; METRICS.len()],
    open_count: [u64; METRICS.len()],
}

impl LiveSink {
    /// A sink whose session starts at `epoch_s` on the daemon timeline
    /// (must be whole seconds, so session bins land on the global grid).
    pub fn new(store: Arc<Mutex<RetentionStore>>, epoch_s: f64) -> LiveSink {
        LiveSink {
            store,
            bins: SessionBins::at_epoch(epoch_s),
            epoch_s,
            buf: Vec::with_capacity(RAW_FLUSH_SAMPLES),
            records: 0,
            dl_bits: 0,
            nonfinite: obs::registry().counter("daemon.nonfinite_samples"),
            open_bin: 0,
            open_sum: [0.0; METRICS.len()],
            open_count: [0; METRICS.len()],
        }
    }

    /// Append the open second's populated metrics to the session bins.
    fn close_open_bin(&mut self) {
        for (metric, bins) in self.bins.bins.iter_mut().enumerate() {
            let count = std::mem::take(&mut self.open_count[metric]);
            if count > 0 {
                bins.push((self.open_bin, self.open_sum[metric], count));
            }
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        store.push_raw(&self.buf);
        self.buf.clear();
    }

    /// Tear down into the locally-accumulated second bins plus session
    /// accounting `(records pushed, DL bits delivered)`. Call after the
    /// stream [`finish`](SlotSink::finish)ed; the wave runner commits
    /// the bins in spec order.
    pub fn into_parts(mut self) -> (SessionBins, u64, u64) {
        self.flush();
        self.close_open_bin();
        (self.bins, self.records, self.dl_bits)
    }
}

impl SlotSink for LiveSink {
    fn push_block(&mut self, rows: &[SlotKpi]) {
        for kpi in rows {
            self.records += 1;
            if kpi.direction == ran::kpi::Direction::Dl {
                self.dl_bits += u64::from(kpi.delivered_bits);
            }
            let time_s = self.epoch_s + kpi.time_s;
            // The same time rule as `SessionBins::add`: a non-finite or
            // negative time keeps its raw samples but joins no bin.
            let local = (kpi.time_s.is_finite() && kpi.time_s >= 0.0)
                .then(|| (kpi.time_s / SEC_BIN_S) as u64);
            if let Some(local) = local {
                if local > self.open_bin {
                    self.close_open_bin();
                    self.open_bin = local;
                }
            }
            let open_bin = self.open_bin;
            let (bins, buf, nonfinite) = (&mut self.bins, &mut self.buf, self.nonfinite);
            let (sums, counts) = (&mut self.open_sum, &mut self.open_count);
            kpi_samples(kpi, |metric, value| {
                // The same rule the resamplers apply: a NaN-corrupted
                // measurement is dropped and accounted, never retained where
                // it could poison a bin average hours later.
                if !value.is_finite() {
                    nonfinite.inc();
                    return;
                }
                match local {
                    Some(l) if l == open_bin => {
                        // The first value seeds the sum, as a fresh bin does.
                        if counts[metric] == 0 {
                            sums[metric] = value;
                        } else {
                            sums[metric] += value;
                        }
                        counts[metric] += 1;
                    }
                    Some(_) => bins.add(metric, kpi.time_s, value),
                    None => {}
                }
                buf.push(RawSample { metric: metric as u8, time_s, value });
            });
            if self.buf.len() >= RAW_FLUSH_SAMPLES {
                self.flush();
            }
        }
    }

    fn finish(&mut self) {
        self.flush();
    }
}
