//! Pluggable per-slot traffic workloads.
//!
//! The paper's QoE chapter (§7) is about how applications *react* to
//! mid-band capacity and latency, which a closed full-buffer enum cannot
//! express. [`Workload`] opens that layer: a workload is a deterministic
//! state machine the slot loop drives — each slot it *offers* bits toward
//! the gNB queue ([`crate::queue::GnbQueue`]), and each transport-block
//! outcome (delivered with a measured delay, or lost to HARQ exhaustion /
//! queue drop) is fed back. Four implementations ship:
//!
//! * [`FullBuffer`] — saturating iPerf, the paper's methodology (it
//!   bypasses the queue entirely and never consumes randomness);
//! * [`Cbr`] — constant-bitrate offered load, the load-sweep extension's
//!   source;
//! * [`CwndTransport`] — a congestion-window + retransmission transport
//!   coupled to per-slot HARQ/BLER outcomes, sending in flowlet-style
//!   bursts gated by a minimum send gap;
//! * [`RtcFrames`] — a fixed-rate real-time frame source measuring
//!   frame-delay CDFs by in-order byte attribution.
//!
//! # Determinism
//!
//! Workloads draw **no randomness**: every decision is a pure function of
//! the slot clock and the outcome feedback, which are themselves pure
//! functions of the session seed. Campaigns over any workload are
//! therefore byte-identical across thread counts
//! (`ran/tests/workload_props.rs`).

use crate::queue::QueueConfig;
use serde::{Deserialize, Serialize};

/// What a workload offers toward the gNB queue for one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// Infinite backlog: every grant is filled to its full transport
    /// block and the queue is bypassed (no sojourn, no drops) — the
    /// full-buffer/iperf semantics of the paper's methodology.
    Saturating,
    /// Release exactly this many bits into the queue this slot.
    Bits(u64),
}

/// Aggregate counters a workload exposes for figures and gating.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadStats {
    /// Bits the workload has released toward the queue.
    pub offered_bits: u64,
    /// Bits acknowledged as delivered over the air.
    pub delivered_bits: u64,
    /// Bits lost to HARQ exhaustion or queue drops.
    pub lost_bits: u64,
    /// Completed application units (frames for RTC; 0 otherwise).
    pub completed_units: u64,
    /// Current congestion window, bits (0 for window-less workloads).
    pub cwnd_bits: f64,
}

/// A slot-coupled traffic workload (see the module docs).
///
/// Object-safe: the slot loop owns workloads as `Box<dyn Workload>`
/// inside [`crate::flow::Flow`], and `Carrier`/`CellSim` stay `Clone`
/// through [`Workload::clone_box`].
pub trait Workload: std::fmt::Debug + Send {
    /// Bits released toward the queue for the slot starting at `now_s`
    /// and lasting `dt_s`.
    fn offer(&mut self, now_s: f64, dt_s: f64) -> Offer;

    /// `bits` were delivered at `now_s` after spending `delay_s` between
    /// queue arrival and successful decode (queue sojourn + HARQ air
    /// time).
    fn on_delivered(&mut self, now_s: f64, bits: u32, delay_s: f64) {
        let _ = (now_s, bits, delay_s);
    }

    /// `bits` were lost over the air (HARQ retry budget exhausted).
    fn on_lost(&mut self, now_s: f64, bits: u32) {
        let _ = (now_s, bits);
    }

    /// `bits` were dropped by the gNB queue (tail or AQM drop) — the
    /// congestion signal transports react to.
    fn on_queue_drop(&mut self, now_s: f64, bits: u64) {
        let _ = (now_s, bits);
    }

    /// Aggregate counters for figures and smoke gates.
    fn stats(&self) -> WorkloadStats;

    /// Drain any accumulated per-unit delay samples (milliseconds) into
    /// `out`. RTC workloads report frame delays here; the default is
    /// empty.
    fn take_delay_samples(&mut self, out: &mut Vec<f64>) {
        let _ = out;
    }

    /// Clone into a new box ([`Clone`] for `Box<dyn Workload>`).
    fn clone_box(&self) -> Box<dyn Workload>;
}

impl Clone for Box<dyn Workload> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// FullBuffer
// ---------------------------------------------------------------------------

/// The saturating workload: every slot offers [`Offer::Saturating`]. It
/// consumes no randomness and bypasses the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FullBuffer {
    delivered_bits: u64,
    lost_bits: u64,
}

impl Workload for FullBuffer {
    fn offer(&mut self, _now_s: f64, _dt_s: f64) -> Offer {
        Offer::Saturating
    }

    fn on_delivered(&mut self, _now_s: f64, bits: u32, _delay_s: f64) {
        self.delivered_bits += u64::from(bits);
    }

    fn on_lost(&mut self, _now_s: f64, bits: u32) {
        self.lost_bits += u64::from(bits);
    }

    fn stats(&self) -> WorkloadStats {
        WorkloadStats {
            offered_bits: self.delivered_bits + self.lost_bits,
            delivered_bits: self.delivered_bits,
            lost_bits: self.lost_bits,
            ..WorkloadStats::default()
        }
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(*self)
    }
}

// ---------------------------------------------------------------------------
// Cbr
// ---------------------------------------------------------------------------

/// A constant-bitrate source: each slot offers `rate × dt` bits and
/// carries the fractional remainder into the next slot, so no fraction
/// of a bit is lost to per-slot rounding: the running total is
/// `⌊rate · t⌋`, up to the f64 rounding of the per-slot share. It counts
/// delivery and loss feedback but does not react to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cbr {
    rate_mbps: f64,
    /// Fraction of a bit owed from earlier slots, in `[0, 1)`.
    carry_bits: f64,
    offered_bits: u64,
    delivered_bits: u64,
    lost_bits: u64,
}

impl Cbr {
    /// A source offering `rate_mbps` from t = 0.
    pub fn new(rate_mbps: f64) -> Self {
        Cbr { rate_mbps, carry_bits: 0.0, offered_bits: 0, delivered_bits: 0, lost_bits: 0 }
    }
}

impl Workload for Cbr {
    fn offer(&mut self, _now_s: f64, dt_s: f64) -> Offer {
        let due = self.carry_bits + self.rate_mbps * 1e6 * dt_s;
        let bits = due.floor();
        self.carry_bits = due - bits;
        let bits = bits as u64;
        self.offered_bits += bits;
        Offer::Bits(bits)
    }

    fn on_delivered(&mut self, _now_s: f64, bits: u32, _delay_s: f64) {
        self.delivered_bits += u64::from(bits);
    }

    fn on_lost(&mut self, _now_s: f64, bits: u32) {
        self.lost_bits += u64::from(bits);
    }

    fn on_queue_drop(&mut self, _now_s: f64, bits: u64) {
        self.lost_bits += bits;
    }

    fn stats(&self) -> WorkloadStats {
        WorkloadStats {
            offered_bits: self.offered_bits,
            delivered_bits: self.delivered_bits,
            lost_bits: self.lost_bits,
            ..WorkloadStats::default()
        }
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(*self)
    }
}

// ---------------------------------------------------------------------------
// CwndTransport
// ---------------------------------------------------------------------------

/// Tuning of [`CwndTransport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwndConfig {
    /// Initial congestion window, bits (10 MTU-sized packets).
    pub init_cwnd_bits: f64,
    /// Floor the window never multiplicatively decreases below.
    pub min_cwnd_bits: f64,
    /// Growth ceiling, bits.
    pub max_cwnd_bits: f64,
    /// Multiplicative-decrease factor applied on a loss event.
    pub md_factor: f64,
    /// Minimum gap between flowlet bursts, seconds. The transport sends
    /// its whole available window in one burst, then stays silent for at
    /// least this long — the flowlet-style on/off pattern of real
    /// congestion-controlled senders over a fat radio link.
    pub flowlet_gap_s: f64,
    /// Base round-trip floor used for the smoothed-RTT estimate and the
    /// loss-event recovery window, seconds.
    pub rtt_floor_s: f64,
}

impl Default for CwndConfig {
    fn default() -> Self {
        CwndConfig {
            init_cwnd_bits: 120_000.0,
            min_cwnd_bits: 24_000.0,
            max_cwnd_bits: 50_000_000.0,
            md_factor: 0.5,
            flowlet_gap_s: 0.002,
            rtt_floor_s: 0.010,
        }
    }
}

/// A congestion-window transport coupled to per-slot HARQ/BLER outcomes:
/// slow start + additive increase on delivery, multiplicative decrease
/// (once per recovery window) on HARQ exhaustion or queue drop, flowlet
/// bursts gated by [`CwndConfig::flowlet_gap_s`].
#[derive(Debug, Clone, Copy)]
pub struct CwndTransport {
    config: CwndConfig,
    cwnd_bits: f64,
    ssthresh_bits: f64,
    inflight_bits: f64,
    since_send_s: f64,
    srtt_s: f64,
    recovery_until_s: f64,
    offered_bits: u64,
    delivered_bits: u64,
    lost_bits: u64,
    loss_events: u64,
}

impl CwndTransport {
    /// A fresh transport under `config`.
    pub fn new(config: CwndConfig) -> Self {
        CwndTransport {
            config,
            cwnd_bits: config.init_cwnd_bits,
            ssthresh_bits: config.max_cwnd_bits,
            inflight_bits: 0.0,
            // Start ready to send: the first offer fires immediately.
            since_send_s: config.flowlet_gap_s,
            srtt_s: config.rtt_floor_s,
            recovery_until_s: 0.0,
            offered_bits: 0,
            delivered_bits: 0,
            lost_bits: 0,
            loss_events: 0,
        }
    }

    /// Loss events (multiplicative decreases) so far.
    pub fn loss_events(&self) -> u64 {
        self.loss_events
    }

    /// Smoothed delivery delay estimate, seconds.
    pub fn srtt_s(&self) -> f64 {
        self.srtt_s
    }

    fn on_loss_bits(&mut self, now_s: f64, bits: f64) {
        self.inflight_bits = (self.inflight_bits - bits).max(0.0);
        self.lost_bits += bits as u64;
        // One multiplicative decrease per recovery window, like a real
        // transport reacting once per RTT of losses.
        if now_s >= self.recovery_until_s {
            self.ssthresh_bits =
                (self.cwnd_bits * self.config.md_factor).max(self.config.min_cwnd_bits);
            self.cwnd_bits = self.ssthresh_bits;
            self.recovery_until_s = now_s + self.srtt_s.max(self.config.rtt_floor_s);
            self.loss_events += 1;
        }
    }
}

impl Workload for CwndTransport {
    fn offer(&mut self, _now_s: f64, dt_s: f64) -> Offer {
        self.since_send_s += dt_s;
        let window = self.cwnd_bits - self.inflight_bits;
        if window < 1.0 || self.since_send_s < self.config.flowlet_gap_s {
            return Offer::Bits(0);
        }
        // Flowlet burst: the whole available window at once.
        let release = window as u64;
        self.inflight_bits += release as f64;
        self.offered_bits += release;
        self.since_send_s = 0.0;
        Offer::Bits(release)
    }

    fn on_delivered(&mut self, _now_s: f64, bits: u32, delay_s: f64) {
        let bits_f = f64::from(bits);
        self.inflight_bits = (self.inflight_bits - bits_f).max(0.0);
        self.delivered_bits += u64::from(bits);
        let sample = delay_s + self.config.rtt_floor_s;
        self.srtt_s = 0.9 * self.srtt_s + 0.1 * sample;
        if self.cwnd_bits < self.ssthresh_bits {
            // Slow start: one window doubling per window delivered.
            self.cwnd_bits = (self.cwnd_bits + bits_f).min(self.config.max_cwnd_bits);
        } else {
            // Congestion avoidance: ~one MTU per window delivered.
            let mtu = f64::from(crate::queue::PACKET_BITS);
            self.cwnd_bits =
                (self.cwnd_bits + mtu * bits_f / self.cwnd_bits).min(self.config.max_cwnd_bits);
        }
    }

    fn on_lost(&mut self, now_s: f64, bits: u32) {
        self.on_loss_bits(now_s, f64::from(bits));
    }

    fn on_queue_drop(&mut self, now_s: f64, bits: u64) {
        self.on_loss_bits(now_s, bits as f64);
    }

    fn stats(&self) -> WorkloadStats {
        WorkloadStats {
            offered_bits: self.offered_bits,
            delivered_bits: self.delivered_bits,
            lost_bits: self.lost_bits,
            completed_units: 0,
            cwnd_bits: self.cwnd_bits,
        }
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(*self)
    }
}

// ---------------------------------------------------------------------------
// RtcFrames
// ---------------------------------------------------------------------------

/// Tuning of [`RtcFrames`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtcConfig {
    /// Encoded media rate, Mbps.
    pub rate_mbps: f64,
    /// Frame rate, frames per second.
    pub fps: f64,
}

impl Default for RtcConfig {
    fn default() -> Self {
        // A 1080p60-class real-time stream.
        RtcConfig { rate_mbps: 8.0, fps: 60.0 }
    }
}

/// Cap on buffered frame-delay samples between
/// [`Workload::take_delay_samples`] drains, so an undrained long session
/// stays bounded.
const RTC_MAX_SAMPLES: usize = 65_536;

#[derive(Debug, Clone, Copy)]
struct RtcFrame {
    release_s: f64,
    remaining_bits: u32,
    damaged: bool,
}

/// A fixed-rate real-time frame source. Every `1/fps` seconds it
/// releases one `rate/fps`-sized frame toward the queue; delivered bytes
/// are attributed to frames in order (decode order), and a frame's delay
/// — release to last-byte delivery — is recorded when it completes.
#[derive(Debug, Clone)]
pub struct RtcFrames {
    config: RtcConfig,
    frame_bits: u32,
    next_release_s: f64,
    outstanding: std::collections::VecDeque<RtcFrame>,
    samples_ms: Vec<f64>,
    offered_bits: u64,
    delivered_bits: u64,
    lost_bits: u64,
    completed_frames: u64,
    damaged_frames: u64,
}

impl RtcFrames {
    /// A fresh source under `config`; the first frame releases at t=0.
    pub fn new(config: RtcConfig) -> Self {
        let frame_bits = (config.rate_mbps * 1e6 / config.fps).max(1.0) as u32;
        RtcFrames {
            config,
            frame_bits,
            next_release_s: 0.0,
            outstanding: std::collections::VecDeque::new(),
            samples_ms: Vec::new(),
            offered_bits: 0,
            delivered_bits: 0,
            lost_bits: 0,
            completed_frames: 0,
            damaged_frames: 0,
        }
    }

    /// Bits per frame.
    pub fn frame_bits(&self) -> u32 {
        self.frame_bits
    }

    /// Frames fully delivered (undamaged completions only).
    pub fn completed_frames(&self) -> u64 {
        self.completed_frames
    }

    /// Frames that completed with at least one lost byte.
    pub fn damaged_frames(&self) -> u64 {
        self.damaged_frames
    }

    /// Attribute `bits` to outstanding frames in decode order. `now_s` is
    /// `Some` for delivered bytes (completing a clean frame records its
    /// delay) and `None` for lost bytes (the frame completes damaged).
    fn attribute(&mut self, mut bits: u64, now_s: Option<f64>) {
        while bits > 0 {
            let Some(front) = self.outstanding.front_mut() else { break };
            let take = bits.min(u64::from(front.remaining_bits)) as u32;
            front.remaining_bits -= take;
            bits -= u64::from(take);
            if now_s.is_none() {
                front.damaged = true;
            }
            if front.remaining_bits == 0 {
                let frame = self.outstanding.pop_front().expect("front exists");
                if frame.damaged {
                    self.damaged_frames += 1;
                } else {
                    self.completed_frames += 1;
                    if let Some(now) = now_s {
                        if self.samples_ms.len() < RTC_MAX_SAMPLES {
                            // A frame released mid-slot can complete within
                            // that same slot, whose delivery timestamp is
                            // the slot *start* — clamp the sub-slot
                            // negative residue to zero.
                            self.samples_ms.push((now - frame.release_s).max(0.0) * 1e3);
                        }
                    }
                }
            }
        }
    }
}

impl Workload for RtcFrames {
    fn offer(&mut self, now_s: f64, dt_s: f64) -> Offer {
        let mut bits = 0u64;
        // Release every frame whose timestamp falls inside this slot.
        while self.next_release_s < now_s + dt_s {
            self.outstanding.push_back(RtcFrame {
                release_s: self.next_release_s,
                remaining_bits: self.frame_bits,
                damaged: false,
            });
            bits += u64::from(self.frame_bits);
            self.next_release_s += 1.0 / self.config.fps;
        }
        self.offered_bits += bits;
        Offer::Bits(bits)
    }

    fn on_delivered(&mut self, now_s: f64, bits: u32, _delay_s: f64) {
        self.delivered_bits += u64::from(bits);
        self.attribute(u64::from(bits), Some(now_s));
    }

    fn on_lost(&mut self, _now_s: f64, bits: u32) {
        self.lost_bits += u64::from(bits);
        self.attribute(u64::from(bits), None);
    }

    fn on_queue_drop(&mut self, _now_s: f64, bits: u64) {
        self.lost_bits += bits;
        self.attribute(bits, None);
    }

    fn stats(&self) -> WorkloadStats {
        WorkloadStats {
            offered_bits: self.offered_bits,
            delivered_bits: self.delivered_bits,
            lost_bits: self.lost_bits,
            completed_units: self.completed_frames,
            cwnd_bits: 0.0,
        }
    }

    fn take_delay_samples(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.samples_ms);
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Serializable specs
// ---------------------------------------------------------------------------

/// Serializable AQM choice for session/campaign specs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AqmSpec {
    /// No practical limit: a deep FIFO (bufferbloat baseline), 256 Mbit.
    DeepFifo,
    /// FIFO tail drop at `limit_kbit` kilobits.
    TailDrop {
        /// Queue limit, kilobits.
        limit_kbit: u32,
    },
    /// CoDel (5 ms / 100 ms defaults) over a `limit_kbit` hard cap.
    CoDel {
        /// Queue hard cap, kilobits.
        limit_kbit: u32,
    },
}

impl AqmSpec {
    /// The concrete queue configuration.
    pub fn queue_config(&self) -> QueueConfig {
        match *self {
            AqmSpec::DeepFifo => QueueConfig::tail_drop(256_000_000),
            AqmSpec::TailDrop { limit_kbit } => {
                QueueConfig::tail_drop(u64::from(limit_kbit) * 1000)
            }
            AqmSpec::CoDel { limit_kbit } => QueueConfig::codel(u64::from(limit_kbit) * 1000),
        }
    }
}

/// Serializable workload choice for session/campaign specs. `build`
/// instantiates a fresh workload + queue pair per carrier, so every
/// session leg gets independent state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Saturating full buffer (the default).
    FullBuffer,
    /// Congestion-window transport ([`CwndTransport`] with defaults).
    Cwnd {
        /// Queue discipline in front of the scheduler.
        aqm: AqmSpec,
    },
    /// Fixed-rate RTC frames ([`RtcFrames`]).
    Rtc {
        /// Encoded media rate, Mbps.
        rate_mbps: f64,
        /// Frame rate, fps.
        fps: f64,
        /// Queue discipline in front of the scheduler.
        aqm: AqmSpec,
    },
}

impl WorkloadSpec {
    /// Instantiate the workload and its queue configuration.
    pub fn build(&self) -> (Box<dyn Workload>, QueueConfig) {
        match *self {
            WorkloadSpec::FullBuffer => {
                (Box::new(FullBuffer::default()), QueueConfig::unbounded())
            }
            WorkloadSpec::Cwnd { aqm } => {
                (Box::new(CwndTransport::new(CwndConfig::default())), aqm.queue_config())
            }
            WorkloadSpec::Rtc { rate_mbps, fps, aqm } => {
                (Box::new(RtcFrames::new(RtcConfig { rate_mbps, fps })), aqm.queue_config())
            }
        }
    }

    /// Whether this spec is the saturating default (no install needed).
    pub fn is_full_buffer(&self) -> bool {
        matches!(self, WorkloadSpec::FullBuffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_always_saturates() {
        let mut w = FullBuffer::default();
        assert_eq!(w.offer(0.0, 0.0005), Offer::Saturating);
        w.on_delivered(0.0, 1000, 0.0);
        w.on_lost(0.0005, 200);
        let s = w.stats();
        assert_eq!(s.delivered_bits, 1000);
        assert_eq!(s.lost_bits, 200);
    }

    #[test]
    fn cbr_offers_the_rate_integral_rounded_down() {
        // 333.33325 Mbps × 0.5 ms = 166,666.625 bits a slot: the offers
        // alternate between 166,666 and 166,667 so that their running sum
        // is ⌊rate·t⌋ at every slot.
        let mut c = Cbr::new(333.33325);
        let mut total = 0u64;
        for slot in 1..=20_000u64 {
            let Offer::Bits(bits) = c.offer((slot - 1) as f64 * 0.5e-3, 0.5e-3) else {
                panic!("cbr offers bits")
            };
            assert!((166_666..=166_667).contains(&bits), "slot {slot}: {bits}");
            total += bits;
            assert_eq!(total, 333_333_250 * slot / 2_000, "slot {slot}");
        }
        assert_eq!(c.stats().offered_bits, total);
    }

    #[test]
    fn cbr_at_rate_zero_offers_nothing() {
        let mut c = Cbr::new(0.0);
        for slot in 0..1_000u64 {
            assert_eq!(c.offer(slot as f64 * 0.5e-3, 0.5e-3), Offer::Bits(0));
        }
        assert_eq!(c.stats(), WorkloadStats::default());
    }

    #[test]
    fn cbr_counts_delivered_lost_and_dropped_bits() {
        let mut c = Cbr::new(100.0);
        assert_eq!(c.offer(0.0, 0.5e-3), Offer::Bits(50_000));
        c.on_delivered(0.001, 30_000, 0.001);
        c.on_lost(0.002, 8_000);
        c.on_queue_drop(0.003, 12_000);
        let s = c.stats();
        assert_eq!((s.offered_bits, s.delivered_bits, s.lost_bits), (50_000, 30_000, 20_000));
        assert_eq!((s.completed_units, s.cwnd_bits), (0, 0.0));
    }

    #[test]
    fn cwnd_grows_on_delivery_and_halves_on_loss() {
        let mut t = CwndTransport::new(CwndConfig::default());
        let Offer::Bits(first) = t.offer(0.0, 0.0005) else { panic!("cwnd offers bits") };
        assert_eq!(first, 120_000, "first burst is the initial window");
        // While inflight fills the window, nothing more is offered.
        assert_eq!(t.offer(0.0005, 0.0005), Offer::Bits(0));
        // Deliveries open the window (slow start doubles it).
        t.on_delivered(0.005, 120_000, 0.004);
        let cwnd_after_ack = t.stats().cwnd_bits;
        assert!(cwnd_after_ack > 120_000.0 * 1.9, "slow start: {cwnd_after_ack}");
        // A loss halves it, once per recovery window.
        t.on_lost(0.010, 12_000);
        let after_loss = t.stats().cwnd_bits;
        assert!((after_loss - cwnd_after_ack * 0.5).abs() < 1.0, "{after_loss}");
        t.on_lost(0.0101, 12_000);
        assert_eq!(t.loss_events(), 1, "second loss inside the recovery window is absorbed");
    }

    #[test]
    fn cwnd_respects_the_flowlet_gap() {
        let cfg = CwndConfig { flowlet_gap_s: 0.002, ..CwndConfig::default() };
        let mut t = CwndTransport::new(cfg);
        let Offer::Bits(b) = t.offer(0.0, 0.0005) else { panic!() };
        assert!(b > 0);
        t.on_delivered(0.0005, b as u32, 0.0005);
        // Window is open again but the gap has not elapsed: silent slots.
        assert_eq!(t.offer(0.0010, 0.0005), Offer::Bits(0));
        assert_eq!(t.offer(0.0015, 0.0005), Offer::Bits(0));
        assert_eq!(t.offer(0.0020, 0.0005), Offer::Bits(0));
        let Offer::Bits(next) = t.offer(0.0025, 0.0005) else { panic!() };
        assert!(next > 0, "burst resumes after the gap");
    }

    #[test]
    fn rtc_releases_frames_on_schedule_and_measures_delay() {
        let mut r = RtcFrames::new(RtcConfig { rate_mbps: 6.0, fps: 50.0 });
        assert_eq!(r.frame_bits(), 120_000);
        // First slot contains the t=0 frame.
        assert_eq!(r.offer(0.0, 0.0005), Offer::Bits(120_000));
        // Nothing more until t=20 ms.
        assert_eq!(r.offer(0.0005, 0.0005), Offer::Bits(0));
        // Deliver the frame in two pieces; delay measured at the last byte.
        r.on_delivered(0.004, 70_000, 0.004);
        assert_eq!(r.completed_frames(), 0);
        r.on_delivered(0.009, 50_000, 0.009);
        assert_eq!(r.completed_frames(), 1);
        let mut samples = Vec::new();
        r.take_delay_samples(&mut samples);
        assert_eq!(samples.len(), 1);
        assert!((samples[0] - 9.0).abs() < 1e-9, "{}", samples[0]);
        // A frame hit by loss completes damaged, with no delay sample.
        r.offer(0.020, 0.0005);
        r.on_lost(0.021, 1_000);
        r.on_delivered(0.025, 119_000, 0.004);
        assert_eq!(r.damaged_frames(), 1);
        let mut more = Vec::new();
        r.take_delay_samples(&mut more);
        assert!(more.is_empty());
    }

    #[test]
    fn specs_build_their_workloads() {
        let (fb, q) = WorkloadSpec::FullBuffer.build();
        assert_eq!(q.limit_bits, u64::MAX);
        assert_eq!(fb.stats().delivered_bits, 0);
        let (_cwnd, q) = WorkloadSpec::Cwnd { aqm: AqmSpec::CoDel { limit_kbit: 4000 } }.build();
        assert_eq!(q.limit_bits, 4_000_000);
        assert!(matches!(q.aqm, crate::queue::Aqm::CoDel { .. }));
        let (rtc, q) =
            WorkloadSpec::Rtc { rate_mbps: 8.0, fps: 60.0, aqm: AqmSpec::DeepFifo }.build();
        assert!(matches!(q.aqm, crate::queue::Aqm::TailDrop));
        assert_eq!(rtc.stats().offered_bits, 0);
    }
}
