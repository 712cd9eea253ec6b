//! The per-UE simulator: mobility + component carriers + NSA uplink
//! routing, emitting one merged KPI trace.
//!
//! [`UeSim`] advances a single clock at the finest slot duration among its
//! carriers; carriers with slower numerologies (T-Mobile's 15 kHz n25 FDD
//! legs, with 1 ms slots against n41's 0.5 ms) step every 2^k ticks. This
//! is how the paper's Table 3 mixed-numerology CA combos (Appendix 10.5)
//! are simulated without fractional-slot bookkeeping.

use crate::carrier::{Carrier, TrafficPattern};
use crate::config::UplinkRouting;
use crate::kpi::{Direction, KpiTrace, SlotKpi, BLOCK_RECORDS};
use crate::leg::COUNTER_FLUSH_SLOTS;
use crate::lte::LteAnchor;
use crate::sink::SlotSink;
use obs::audit::{self, Invariant};
use obs::{Histogram, LocalCounter};
use radio_channel::mobility::{MobilityModel, MobilityState};
use radio_channel::rng::SeedTree;

/// Configuration of a UE-level simulation run.
#[derive(Debug, Clone)]
pub struct UeSimConfig {
    /// Saturating traffic directions.
    pub traffic: TrafficPattern,
    /// NSA uplink routing policy.
    pub routing: UplinkRouting,
}

impl Default for UeSimConfig {
    fn default() -> Self {
        UeSimConfig {
            traffic: TrafficPattern::BOTH,
            routing: UplinkRouting::NrAboveCqi { threshold: 6 },
        }
    }
}

/// A complete single-UE simulation: mobility, NR carriers (PCell +
/// optional SCells), optional LTE anchor.
pub struct UeSim {
    mobility: MobilityState,
    carriers: Vec<Carrier>,
    /// Tick divider per carrier: the carrier steps when
    /// `tick % divider == 0`.
    dividers: Vec<u64>,
    /// Metres moved since each carrier's last step.
    pending_move: Vec<f64>,
    lte: Option<LteAnchor>,
    lte_divider: u64,
    lte_pending_move: f64,
    config: UeSimConfig,
    base_slot_s: f64,
    tick: u64,
    /// Cached metric handles (resolved once). Ticks batch locally and
    /// publish every [`COUNTER_FLUSH_SLOTS`] ticks and on drop.
    m_ticks: LocalCounter,
    m_tick_span: Histogram,
    /// Last emitted `time_s` per carrier / for the LTE leg — timestamps
    /// are only non-decreasing *within* a carrier (mixed-numerology CA
    /// interleaves across carriers), so the monotone-time audit tracks
    /// each leg separately.
    last_time: Vec<f64>,
    lte_last_time: f64,
}

impl UeSim {
    /// Assemble a simulation. Carrier 0 is the PCell (it carries the UL
    /// leg and its CQI drives the NSA routing decision).
    pub fn new(
        carriers: Vec<Carrier>,
        lte: Option<LteAnchor>,
        mobility: MobilityModel,
        config: UeSimConfig,
        seeds: &SeedTree,
    ) -> Self {
        assert!(!carriers.is_empty(), "a UE needs at least one carrier");
        let base_slot_s =
            carriers.iter().map(|c| c.slot_s()).fold(f64::INFINITY, f64::min);
        let dividers: Vec<u64> = carriers
            .iter()
            .map(|c| (c.slot_s() / base_slot_s).round() as u64)
            .collect();
        let lte_divider = (1e-3 / base_slot_s).round() as u64;
        let n = carriers.len();
        UeSim {
            mobility: mobility.into_state(seeds),
            carriers,
            dividers,
            pending_move: vec![0.0; n],
            lte,
            lte_divider: lte_divider.max(1),
            lte_pending_move: 0.0,
            config,
            base_slot_s,
            tick: 0,
            m_ticks: LocalCounter::new(obs::registry().counter("sim.ticks")),
            m_tick_span: obs::registry().span_histogram("sim.tick"),
            last_time: vec![f64::NEG_INFINITY; n],
            lte_last_time: f64::NEG_INFINITY,
        }
    }

    /// The base tick duration, seconds.
    pub fn base_slot_s(&self) -> f64 {
        self.base_slot_s
    }

    /// Borrow the carriers (inspection / ablation configuration).
    pub fn carriers_mut(&mut self) -> &mut [Carrier] {
        &mut self.carriers
    }

    /// Run for a duration and return the merged KPI trace (NR carriers and,
    /// when routed, the LTE UL leg, distinguished by the `carrier` field).
    pub fn run(&mut self, duration_s: f64) -> KpiTrace {
        let ticks = (duration_s / self.base_slot_s).round() as u64;
        // Preallocate for the worst case: every stepping carrier emits a DL
        // and a UL record each step, plus the LTE leg. A slight
        // over-estimate (idle UL slots emit nothing) buys a run that never
        // grows the chunk table.
        let records: u64 = self
            .dividers
            .iter()
            .map(|&d| 2 * ticks.div_ceil(d.max(1)))
            .sum::<u64>()
            + if self.lte.is_some() { ticks.div_ceil(self.lte_divider) } else { 0 };
        let mut trace = KpiTrace::with_capacity(records as usize);
        self.run_into(duration_s, &mut trace);
        trace
    }

    /// Run for a duration, streaming every record into `sink` instead of
    /// materialising a trace; calls [`SlotSink::finish`] at the end. This
    /// is the bounded-memory entry point — a sink that aggregates online
    /// keeps campaign memory independent of session duration.
    ///
    /// Records are staged in a [`BLOCK_RECORDS`]-row block on the stack
    /// and reach `sink` through [`SlotSink::push_block`], in emission
    /// order; the last, partial block is flushed before `finish`.
    /// Returns the number of records flushed into `sink`.
    pub fn run_into<S: SlotSink>(&mut self, duration_s: f64, sink: &mut S) -> u64 {
        let ticks = (duration_s / self.base_slot_s).round() as u64;
        let mut block = BlockStage::new(sink);
        for _ in 0..ticks {
            self.step_into(&mut block);
        }
        block.flush();
        let flushed = block.flushed;
        sink.finish();
        flushed
    }

    /// Advance one base tick, pushing records into `sink` (without calling
    /// `finish` — drivers that tick manually own the end-of-stream signal).
    pub fn step_into<S: SlotSink>(&mut self, sink: &mut S) {
        let tick = self.tick;
        self.tick += 1;
        self.m_ticks.inc();
        if self.m_ticks.pending() >= COUNTER_FLUSH_SLOTS {
            self.m_ticks.flush();
        }
        // Sample 1-in-64 ticks: enough resolution for the slot-stepping
        // span histogram without paying two clock reads per slot.
        // (Masking, not `is_multiple_of`: the workspace MSRV is 1.75.)
        let timed = tick & 63 == 0;
        let started = if timed { Some(std::time::Instant::now()) } else { None };

        let moved = self.mobility.advance(self.base_slot_s);
        let position = self.mobility.position();
        for m in &mut self.pending_move {
            *m += moved;
        }
        self.lte_pending_move += moved;

        // NSA routing decision from the PCell's current CQI.
        let ul_on_nr = match self.config.routing {
            UplinkRouting::NrOnly => true,
            UplinkRouting::LteOnly => false,
            UplinkRouting::NrAboveCqi { threshold } => {
                self.carriers[0].current_cqi() >= threshold
            }
        };

        for (i, carrier) in self.carriers.iter_mut().enumerate() {
            if tick % self.dividers[i] != 0 {
                continue;
            }
            let mv = std::mem::take(&mut self.pending_move[i]);
            // Only the PCell carries NR UL; SCells are DL-only (commercial
            // mid-band CA is DL-only, as the paper's footnote 4 records).
            let traffic = if i == 0 {
                self.config.traffic
            } else {
                TrafficPattern { dl: self.config.traffic.dl, ul: false }
            };
            let out = carrier.step(position, mv, traffic, ul_on_nr, 1.0, 1.0);
            if audit::enabled() {
                audit::check(Invariant::TimeMonotone, out.dl.time_s >= self.last_time[i]);
                self.last_time[i] = out.dl.time_s;
            }
            sink.push(&out.dl);
            if let Some(ul) = out.ul {
                sink.push(&ul);
            }
        }

        // LTE UL leg accrues whenever the UL is not on NR.
        if self.config.traffic.ul && !ul_on_nr && tick % self.lte_divider == 0 {
            if let Some(lte) = &mut self.lte {
                let mv = std::mem::take(&mut self.lte_pending_move);
                let rec = lte.step_ul(position, mv);
                if audit::enabled() {
                    audit::check(Invariant::TimeMonotone, rec.time_s >= self.lte_last_time);
                    self.lte_last_time = rec.time_s;
                }
                sink.push(&rec);
            }
        }

        if let Some(started) = started {
            self.m_tick_span.record_duration(started.elapsed());
        }
    }
}

/// The producer's staging block: records collect on the stack and go to
/// the wrapped sink [`BLOCK_RECORDS`] at a time. [`UeSim::step_into`]
/// hands it one row at a time through [`SlotSink::push`].
struct BlockStage<'a, S: SlotSink> {
    rows: [SlotKpi; BLOCK_RECORDS],
    len: usize,
    /// Records flushed into `sink` so far.
    flushed: u64,
    sink: &'a mut S,
}

impl<'a, S: SlotSink> BlockStage<'a, S> {
    fn new(sink: &'a mut S) -> Self {
        let blank = SlotKpi::idle(0, 0.0, 0, Direction::Dl, 0, 0.0, 0.0, 0.0, 0);
        BlockStage { rows: [blank; BLOCK_RECORDS], len: 0, flushed: 0, sink }
    }

    fn flush(&mut self) {
        if self.len > 0 {
            self.sink.push_block(&self.rows[..self.len]);
            self.flushed += self.len as u64;
            self.len = 0;
        }
    }
}

impl<S: SlotSink> SlotSink for BlockStage<'_, S> {
    #[inline]
    fn push_block(&mut self, rows: &[SlotKpi]) {
        for kpi in rows {
            self.rows[self.len] = *kpi;
            self.len += 1;
            if self.len == BLOCK_RECORDS {
                self.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use crate::lte::{LteConfig, LTE_CARRIER_INDEX};
    use nr_phy::band::Band;
    use nr_phy::numerology::Numerology;
    use radio_channel::channel::{ChannelConfig, ChannelSimulator};
    use radio_channel::geometry::{DeploymentLayout, Position};
    use radio_channel::link::LinkModel;

    fn mk_carrier(cfg: CellConfig, index: u8, pos: Position, seed: u64) -> Carrier {
        let seeds = SeedTree::new(seed).child_indexed("cc", index as u64);
        let channel = ChannelSimulator::new(
            ChannelConfig::midband_urban(cfg.n_rb),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &seeds,
        );
        Carrier::new(cfg, index, channel, LinkModel::midband_qam256(), &seeds)
    }

    fn mk_lte(pos: Position, seed: u64) -> LteAnchor {
        let seeds = SeedTree::new(seed).child("lte");
        let channel = ChannelSimulator::new(
            LteAnchor::default_channel_config(),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &seeds,
        );
        LteAnchor::new(LteConfig::default(), channel)
    }

    #[test]
    fn carrier_aggregation_adds_throughput() {
        let pos = Position::new(80.0, 0.0);
        let single = {
            let c = mk_carrier(CellConfig::midband(100, "DDDSU"), 0, pos, 1);
            let mut sim = UeSim::new(
                vec![c],
                None,
                MobilityModel::Stationary { position: pos },
                UeSimConfig::default(),
                &SeedTree::new(1),
            );
            sim.run(5.0).mean_throughput_mbps(Direction::Dl)
        };
        let aggregated = {
            let c0 = mk_carrier(CellConfig::midband(100, "DDDSU"), 0, pos, 1);
            let c1 = mk_carrier(CellConfig::midband(40, "DDDSU"), 1, pos, 1);
            let mut sim = UeSim::new(
                vec![c0, c1],
                None,
                MobilityModel::Stationary { position: pos },
                UeSimConfig::default(),
                &SeedTree::new(1),
            );
            sim.run(5.0).mean_throughput_mbps(Direction::Dl)
        };
        assert!(
            aggregated > single * 1.2,
            "CA {aggregated} should beat single carrier {single}"
        );
    }

    #[test]
    fn mixed_numerology_ca_ticks_correctly() {
        let pos = Position::new(80.0, 0.0);
        let n41 = mk_carrier(CellConfig::midband(100, "DDDSU"), 0, pos, 2);
        let mut n25_cfg = CellConfig::fdd(Band::N25, 20, Numerology::Mu0);
        n25_cfg.band = Band::N25;
        let n25 = mk_carrier(n25_cfg, 1, pos, 2);
        let mut sim = UeSim::new(
            vec![n41, n25],
            None,
            MobilityModel::Stationary { position: pos },
            UeSimConfig::default(),
            &SeedTree::new(2),
        );
        let trace = sim.run(1.0);
        let cc0_slots = trace.iter().filter(|r| r.carrier == 0).count();
        let cc1_slots = trace.iter().filter(|r| r.carrier == 1).count();
        // n41 runs 2000 slots/s (DL records every slot + UL records on U
        // slots); n25 runs 1000 slots/s with DL+UL records each (FDD).
        assert!(cc0_slots > cc1_slots, "cc0 {cc0_slots} cc1 {cc1_slots}");
        let cc1_dl = trace
            .iter()
            .filter(|r| r.carrier == 1 && r.direction == Direction::Dl)
            .count();
        assert_eq!(cc1_dl, 1000);
    }

    #[test]
    fn lte_only_routing_puts_ul_on_lte() {
        let pos = Position::new(80.0, 0.0);
        let c = mk_carrier(CellConfig::midband(100, "DDDSU"), 0, pos, 3);
        let mut sim = UeSim::new(
            vec![c],
            Some(mk_lte(pos, 3)),
            MobilityModel::Stationary { position: pos },
            UeSimConfig { traffic: TrafficPattern::BOTH, routing: UplinkRouting::LteOnly },
            &SeedTree::new(3),
        );
        let trace = sim.run(2.0);
        let nr_ul_bits: u64 = trace
            .iter()
            .filter(|r| r.direction == Direction::Ul && r.carrier != LTE_CARRIER_INDEX)
            .map(|r| r.delivered_bits as u64)
            .sum();
        let lte_ul_bits: u64 = trace
            .iter()
            .filter(|r| r.carrier == LTE_CARRIER_INDEX)
            .map(|r| r.delivered_bits as u64)
            .sum();
        assert_eq!(nr_ul_bits, 0, "no NR UL under LteOnly");
        assert!(lte_ul_bits > 0, "LTE UL carries the traffic");
    }

    #[test]
    fn nr_only_routing_never_uses_lte() {
        let pos = Position::new(80.0, 0.0);
        let c = mk_carrier(CellConfig::midband(90, "DDDSU"), 0, pos, 4);
        let mut sim = UeSim::new(
            vec![c],
            Some(mk_lte(pos, 4)),
            MobilityModel::Stationary { position: pos },
            UeSimConfig { traffic: TrafficPattern::BOTH, routing: UplinkRouting::NrOnly },
            &SeedTree::new(4),
        );
        let trace = sim.run(1.0);
        assert!(trace.iter().all(|r| r.carrier != LTE_CARRIER_INDEX));
        assert!(trace.mean_throughput_mbps(Direction::Ul) > 0.0);
    }

    /// Collects records in arrival order.
    struct Collect(Vec<SlotKpi>);

    impl SlotSink for Collect {
        fn push_block(&mut self, rows: &[SlotKpi]) {
            self.0.extend_from_slice(rows);
        }
    }

    #[test]
    fn run_equals_run_into() {
        let pos = Position::new(80.0, 0.0);
        let sim = || {
            let n41 = mk_carrier(CellConfig::midband(100, "DDDSU"), 0, pos, 5);
            let mut n25_cfg = CellConfig::fdd(Band::N25, 20, Numerology::Mu0);
            n25_cfg.band = Band::N25;
            let n25 = mk_carrier(n25_cfg, 1, pos, 5);
            UeSim::new(
                vec![n41, n25],
                Some(mk_lte(pos, 5)),
                MobilityModel::Stationary { position: pos },
                UeSimConfig::default(),
                &SeedTree::new(5),
            )
        };
        // 0.7 s of mixed-numerology CA ends on a partial block.
        let trace = sim().run(0.7);
        let mut streamed = KpiTrace::new();
        let flushed = sim().run_into(0.7, &mut streamed);
        let mut collected = Collect(Vec::new());
        sim().run_into(0.7, &mut collected);
        assert_ne!(trace.len() % BLOCK_RECORDS, 0);
        assert_eq!(flushed, trace.len() as u64);
        assert_eq!(streamed, trace);
        assert_eq!(streamed.duration_s().to_bits(), trace.duration_s().to_bits());
        assert!(trace.iter().eq(collected.0.iter().copied()));
    }

    #[test]
    #[should_panic(expected = "at least one carrier")]
    fn empty_carrier_list_panics() {
        UeSim::new(
            vec![],
            None,
            MobilityModel::Stationary { position: Position::ORIGIN },
            UeSimConfig::default(),
            &SeedTree::new(0),
        );
    }
}
