//! [`Flow`]: the per-direction traffic leg a carrier drives each slot.
//!
//! Every flow is one pipeline: a [`Workload`] releasing bits into a
//! [`GnbQueue`], drained into transport blocks by the scheduler, with
//! per-TB outcomes fed back to the workload. Full-buffer iPerf, CBR
//! offered load, cwnd transports and RTC frames differ only in the
//! workload.
//!
//! # HARQ coupling
//!
//! The flow keeps one `TbMeta` per in-flight transport block, in a
//! FIFO that mirrors [`crate::harq::HarqEntity`]'s pending queue
//! operation for operation: `compose_tb` creates the current TB's meta,
//! a failed-but-retained TB pushes it back ([`Flow::fail_deferred`]), a
//! ready retransmission pops the front ([`Flow::begin_retx`]). Because
//! both queues see pushes and pops in the same order, the meta popped
//! for a retransmission always describes the block HARQ popped — no ids
//! needed, no allocation in steady state beyond the two deques.
//!
//! # Saturating flows
//!
//! The default flow runs [`crate::workload::FullBuffer`]: saturating
//! offers bypass the queue, fill every grant to its full TBS, draw no
//! randomness and emit zero queue-depth/sojourn KPI fields. The golden
//! full-buffer rows (`tests/golden.rs`) pin that output.

use crate::queue::{GnbQueue, QueueConfig};
use crate::workload::{Offer, Workload, WorkloadStats};
use obs::{Counter, Gauge};
use std::collections::VecDeque;

/// Cached obs handles for queue telemetry. Resolved once per flow so the
/// per-slot path is pure atomic stores; the saturating (full-buffer)
/// path never touches them.
#[derive(Debug, Clone, Copy)]
struct QueueMetrics {
    /// Last observed depth, bits (last-writer-wins across UEs).
    depth_bits: Gauge,
    /// High-water depth across the process, bits.
    peak_bits: Gauge,
    /// High-water per-TB queue sojourn, microseconds.
    sojourn_peak_us: Gauge,
    /// Total bits dropped by tail drop + AQM.
    dropped_bits: Counter,
}

impl QueueMetrics {
    fn new() -> Self {
        let reg = obs::registry();
        QueueMetrics {
            depth_bits: reg.gauge("workload.queue_bits"),
            peak_bits: reg.gauge("workload.queue_peak_bits"),
            sojourn_peak_us: reg.gauge("workload.queue_sojourn_peak_us"),
            dropped_bits: reg.counter("workload.queue_dropped_bits"),
        }
    }
}

/// Queue bookkeeping of one in-flight transport block.
#[derive(Debug, Clone, Copy, Default)]
struct TbMeta {
    /// Bits-weighted queue sojourn at compose time, seconds.
    sojourn_s: f64,
    /// Slot time the TB was composed, seconds.
    composed_s: f64,
}

/// One direction's traffic leg (see the module docs).
#[derive(Debug, Clone)]
pub struct Flow {
    workload: Box<dyn Workload>,
    queue: GnbQueue,
    /// Whether the last offer was [`Offer::Saturating`].
    saturating: bool,
    /// Metas of HARQ-pending TBs, mirroring the HARQ entity's FIFO.
    pending: VecDeque<TbMeta>,
    /// Meta of the TB in the air this slot.
    current: TbMeta,
    metrics: QueueMetrics,
}

impl Flow {
    /// The default flow: the saturating [`crate::workload::FullBuffer`]
    /// workload.
    pub fn full_buffer() -> Self {
        Flow::pipeline(Box::new(crate::workload::FullBuffer::default()), QueueConfig::unbounded())
    }

    /// A workload + queue flow.
    pub fn pipeline(workload: Box<dyn Workload>, queue: QueueConfig) -> Self {
        Flow {
            workload,
            queue: GnbQueue::new(queue),
            saturating: true,
            // Mirrors HarqEntity's minimum pending-queue reservation,
            // keeping the slot loop allocation-free in steady state.
            pending: VecDeque::with_capacity(16),
            current: TbMeta::default(),
            metrics: QueueMetrics::new(),
        }
    }

    /// Advance the workload by one slot: it offers bits into the queue
    /// (drops feed back as congestion signals).
    pub fn advance(&mut self, now_s: f64, dt_s: f64) {
        match self.workload.offer(now_s, dt_s) {
            Offer::Saturating => self.saturating = true,
            Offer::Bits(bits) => {
                self.saturating = false;
                if bits > 0 {
                    let dropped = self.queue.enqueue(bits, now_s);
                    if dropped > 0 {
                        self.metrics.dropped_bits.add(dropped);
                        self.workload.on_queue_drop(now_s, dropped);
                    }
                    let depth = self.queue.bits().min(i64::MAX as u64) as i64;
                    self.metrics.depth_bits.set(depth);
                    self.metrics.peak_bits.raise_to(depth);
                }
            }
        }
    }

    /// Whether the leg deserves a grant this slot: it saturates, holds
    /// queued bits, or has a HARQ retransmission ready (`harq_ready`). A
    /// cwnd transport whose whole window sits in a failed transport block
    /// has an empty queue, and without the last clause the
    /// retransmission would never get a grant and the window would never
    /// free — a permanent stall.
    pub fn needs_grant(&self, harq_ready: bool) -> bool {
        self.saturating || !self.queue.is_empty() || harq_ready
    }

    /// Backlog awaiting transmission, bits (`INFINITY` for saturating
    /// flows) — the Little's-law numerator the load-sweep figure uses.
    pub fn backlog_bits(&self) -> f64 {
        if self.saturating {
            f64::INFINITY
        } else {
            self.queue.bits() as f64
        }
    }

    /// Compose a new transport block of up to `full_tbs_bits` at `now_s`:
    /// saturating flows fill the grant, queued flows drain the queue
    /// (applying AQM head drops). Returns the TB size in bits.
    pub fn compose_tb(&mut self, full_tbs_bits: u32, now_s: f64) -> u32 {
        if self.saturating {
            self.current = TbMeta { sojourn_s: 0.0, composed_s: now_s };
            return full_tbs_bits;
        }
        let d = self.queue.dequeue(full_tbs_bits, now_s);
        if d.aqm_dropped_bits > 0 {
            self.metrics.dropped_bits.add(d.aqm_dropped_bits);
            self.workload.on_queue_drop(now_s, d.aqm_dropped_bits);
        }
        self.metrics.depth_bits.set(self.queue.bits().min(i64::MAX as u64) as i64);
        self.metrics.sojourn_peak_us.raise_to((d.sojourn_s * 1e6) as i64);
        self.current = TbMeta { sojourn_s: d.sojourn_s, composed_s: now_s };
        d.bits
    }

    /// A HARQ retransmission of the oldest pending TB is starting: adopt
    /// its meta as current (mirror of `HarqEntity::pop_ready`).
    pub fn begin_retx(&mut self) {
        self.current = self.pending.pop_front().unwrap_or_default();
    }

    /// The current TB decoded: feed delivery (with queue sojourn + HARQ
    /// air time) back to the workload.
    pub fn complete_delivered(&mut self, now_s: f64, delivered_bits: u32) {
        let delay_s = self.current.sojourn_s + (now_s - self.current.composed_s);
        self.workload.on_delivered(now_s, delivered_bits, delay_s);
    }

    /// The current TB failed but HARQ retained it: park its meta (mirror
    /// of `HarqEntity::record_failure`'s push).
    pub fn fail_deferred(&mut self) {
        self.pending.push_back(self.current);
    }

    /// The current TB failed terminally (HARQ retry budget exhausted):
    /// its bits are lost.
    pub fn fail_dropped(&mut self, now_s: f64, tbs_bits: u32) {
        self.workload.on_lost(now_s, tbs_bits);
    }

    /// Queue depth after the last compose, bits (0 for saturating flows)
    /// — the `queue_bits` KPI field.
    pub fn queue_bits(&self) -> u32 {
        self.queue.bits().min(u64::from(u32::MAX)) as u32
    }

    /// Queue sojourn of the current TB's bits, milliseconds (0 for
    /// saturating flows) — the `queue_delay_ms` KPI field.
    pub fn queue_delay_ms(&self) -> f64 {
        self.current.sojourn_s * 1e3
    }

    /// Workload counters.
    pub fn workload_stats(&self) -> WorkloadStats {
        self.workload.stats()
    }

    /// Queue drop/depth counters as `(drops, dropped_bits, enqueued_bits)`.
    pub fn queue_counters(&self) -> (u64, u64, u64) {
        (self.queue.drops(), self.queue.dropped_bits(), self.queue.enqueued_bits())
    }

    /// Drain accumulated per-unit delay samples (ms) from the workload.
    pub fn take_delay_samples(&mut self, out: &mut Vec<f64>) {
        self.workload.take_delay_samples(out);
    }
}

impl Default for Flow {
    fn default() -> Self {
        Flow::full_buffer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RtcConfig, RtcFrames};

    const SLOT_S: f64 = 0.5e-3;

    #[test]
    fn pending_metas_mirror_harq_fifo_order() {
        // Three TBs composed at distinct times; fail the first two, then
        // retransmit: the metas must come back in composition order.
        let mut flow =
            Flow::pipeline(Box::new(RtcFrames::new(RtcConfig::default())), QueueConfig::unbounded());
        flow.advance(0.0, 0.020); // release a frame's worth of bits
        assert!(flow.needs_grant(false));

        let t0 = 0.001;
        flow.compose_tb(40_000, t0);
        let s0 = flow.queue_delay_ms();
        flow.fail_deferred();

        let t1 = 0.002;
        flow.compose_tb(40_000, t1);
        flow.fail_deferred();

        flow.begin_retx();
        assert!((flow.queue_delay_ms() - s0).abs() < 1e-12, "first failed TB pops first");
        flow.complete_delivered(0.009, 40_000);

        flow.begin_retx();
        flow.complete_delivered(0.010, 40_000);
    }

    #[test]
    fn queued_flow_reports_depth_and_sojourn() {
        let mut flow = Flow::pipeline(
            Box::new(RtcFrames::new(RtcConfig { rate_mbps: 6.0, fps: 50.0 })),
            QueueConfig::tail_drop(u64::MAX),
        );
        flow.advance(0.0, 0.0005); // t=0 frame: 120 kbit queued
        assert_eq!(flow.queue_bits(), 120_000);
        assert!((flow.backlog_bits() - 120_000.0).abs() < 1e-9);
        let tb = flow.compose_tb(48_000, 0.004);
        assert_eq!(tb, 48_000);
        assert_eq!(flow.queue_bits(), 72_000);
        assert!((flow.queue_delay_ms() - 4.0).abs() < 1e-9);
        flow.complete_delivered(0.004, tb);
        assert_eq!(flow.workload_stats().delivered_bits, 48_000);
    }

    #[test]
    fn full_buffer_never_empties() {
        let mut flow = Flow::full_buffer();
        flow.advance(0.0, SLOT_S);
        assert!(flow.needs_grant(false));
        assert_eq!(flow.compose_tb(1_000_000, 0.0), 1_000_000);
        flow.complete_delivered(0.0, 1_000_000);
        flow.advance(SLOT_S, SLOT_S);
        assert!(flow.needs_grant(false));
        assert_eq!(flow.backlog_bits(), f64::INFINITY);
        assert_eq!(flow.queue_bits(), 0);
        assert_eq!(flow.workload_stats().delivered_bits, 1_000_000);
    }

    #[test]
    fn finite_transfer_completes() {
        // One 1 Mbit frame released at t = 0; at 0.01 fps the next one is
        // due at 100 s, far past the slots run here.
        let transfer = RtcFrames::new(RtcConfig { rate_mbps: 0.01, fps: 0.01 });
        assert_eq!(transfer.frame_bits(), 1_000_000);
        let mut flow = Flow::pipeline(Box::new(transfer), QueueConfig::unbounded());
        let mut drained = 0u64;
        for slot in 0..100u32 {
            let now = f64::from(slot) * SLOT_S;
            flow.advance(now, SLOT_S);
            if !flow.needs_grant(false) {
                continue;
            }
            let tb = flow.compose_tb(123_456, now);
            flow.complete_delivered(now, tb);
            drained += u64::from(tb);
        }
        assert_eq!(drained, 1_000_000);
        assert!(!flow.needs_grant(false));
        assert_eq!(flow.backlog_bits(), 0.0);
        let stats = flow.workload_stats();
        assert_eq!(stats.offered_bits, 1_000_000);
        assert_eq!(stats.delivered_bits, 1_000_000);
        assert_eq!(stats.completed_units, 1);
    }
}
