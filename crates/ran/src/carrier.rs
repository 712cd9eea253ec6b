//! One component carrier of one UE: the per-slot adaptation loop.
//!
//! Every slot this module executes the paper's Fig. 21 cycle — channel
//! evolution, (periodic) CSI feedback, scheduling with the vendor CQI→MCS
//! policy + OLLA, TBS computation, BLER draw and HARQ bookkeeping — and
//! emits the slot's KPI records.

use crate::amc::{AmcState, OllaConfig};
use crate::config::CellConfig;
use crate::flow::Flow;
use crate::harq::{HarqConfig, HarqEntity};
use crate::kpi::{Direction, SlotKpi};
use crate::leg::{self, BlerDraws, SlotCounters, SlotCtx, UeLeg};
use crate::queue::QueueConfig;
use crate::scheduler::AllocationTable;
use crate::workload::Workload;
use nr_phy::csi::DEFAULT_CSI_PERIOD_SLOTS;
use nr_phy::tbs::TbsCache;
use obs::audit::{self, Invariant};
use radio_channel::channel::{ChannelSimulator, ChannelState};
use radio_channel::geometry::Position;
use radio_channel::link::LinkModel;
use radio_channel::rng::SeedTree;

/// Which directions carry saturating traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficPattern {
    /// Full-buffer downlink (iPerf DL).
    pub dl: bool,
    /// Full-buffer uplink (iPerf UL).
    pub ul: bool,
}

impl TrafficPattern {
    /// DL-only saturation.
    pub const DL: TrafficPattern = TrafficPattern { dl: true, ul: false };
    /// UL-only saturation.
    pub const UL: TrafficPattern = TrafficPattern { dl: false, ul: true };
    /// Both directions.
    pub const BOTH: TrafficPattern = TrafficPattern { dl: true, ul: true };
}

/// The output of one carrier slot.
#[derive(Debug, Clone)]
pub struct CarrierSlotOutput {
    /// The DL record (present every slot; unscheduled on UL-only slots).
    pub dl: SlotKpi,
    /// The UL record, when the slot carries UL symbols.
    pub ul: Option<SlotKpi>,
    /// The channel truth used this slot.
    pub channel: ChannelState,
}

/// Stream labels for the first few carrier indices, so the common case
/// opens its BLER stream without a `format!` allocation. The bytes match
/// `format!("carrier{index}/bler")` exactly — labels key RNG streams, so
/// they must never drift.
const CARRIER_BLER_LABELS: [&str; 8] = [
    "carrier0/bler",
    "carrier1/bler",
    "carrier2/bler",
    "carrier3/bler",
    "carrier4/bler",
    "carrier5/bler",
    "carrier6/bler",
    "carrier7/bler",
];

/// One component carrier bound to one UE.
#[derive(Debug, Clone)]
pub struct Carrier {
    /// Cell configuration (public: profiles and tests inspect it; callers
    /// that mutate TDD/bandwidth fields after construction must call
    /// [`Carrier::rebuild_allocation_table`]).
    pub cfg: CellConfig,
    index: u8,
    channel: ChannelSimulator,
    link: LinkModel,
    amc: AmcState,
    dl_harq: HarqEntity,
    ul_harq: HarqEntity,
    dl_flow: Flow,
    ul_flow: Flow,
    bler_draws: BlerDraws,
    slot: u64,
    csi_period: u64,
    ewma_sinr_db: f64,
    prev_rank: u8,
    /// Per-TDD-cycle RB allocations at full share (the single-UE case).
    alloc_table: AllocationTable,
    /// Memoised §5.1.3.2 TBS results (inputs cycle with the TDD pattern
    /// and CSI period; DL and UL share the memo — `n_re` disambiguates).
    tbs_cache: TbsCache,
    metrics: SlotCounters,
}

impl Carrier {
    /// Build a carrier. `index` distinguishes CCs of an aggregate (0 =
    /// PCell); seeds should be scoped per session.
    pub fn new(
        cfg: CellConfig,
        index: u8,
        channel: ChannelSimulator,
        link: LinkModel,
        seeds: &SeedTree,
    ) -> Self {
        let rng = match CARRIER_BLER_LABELS.get(index as usize) {
            Some(&label) => seeds.stream_static(label),
            None => seeds.stream(&format!("carrier{index}/bler")),
        };
        let alloc_table = AllocationTable::new(&cfg, 1.0, 1.0);
        Carrier {
            cfg,
            index,
            channel,
            link,
            amc: AmcState::new(OllaConfig::default()),
            dl_harq: HarqEntity::new(HarqConfig::default()),
            ul_harq: HarqEntity::new(HarqConfig::default()),
            dl_flow: Flow::full_buffer(),
            ul_flow: Flow::full_buffer(),
            bler_draws: BlerDraws::new(rng),
            slot: 0,
            csi_period: DEFAULT_CSI_PERIOD_SLOTS,
            ewma_sinr_db: 15.0,
            prev_rank: 2,
            alloc_table,
            tbs_cache: TbsCache::new(),
            metrics: SlotCounters::new(),
        }
    }

    /// Recompute the precomputed allocation table (and drop the TBS memo)
    /// after a post-construction `cfg` mutation that changes the TDD
    /// pattern, bandwidth, or UL RB fraction.
    pub fn rebuild_allocation_table(&mut self) {
        self.alloc_table = AllocationTable::new(&self.cfg, 1.0, 1.0);
        self.tbs_cache = TbsCache::new();
    }

    /// Install a DL workload behind a gNB queue (default: full buffer).
    pub fn set_dl_workload(&mut self, workload: Box<dyn Workload>, queue: QueueConfig) {
        self.dl_flow = Flow::pipeline(workload, queue);
    }

    /// Install a UL workload behind a queue (default: full buffer).
    pub fn set_ul_workload(&mut self, workload: Box<dyn Workload>, queue: QueueConfig) {
        self.ul_flow = Flow::pipeline(workload, queue);
    }

    /// Inspect the DL traffic leg (offered/delivered accounting, queue
    /// depth, workload counters).
    pub fn dl_traffic(&self) -> &Flow {
        &self.dl_flow
    }

    /// Mutable access to the DL leg (draining delay samples).
    pub fn dl_traffic_mut(&mut self) -> &mut Flow {
        &mut self.dl_flow
    }

    /// Inspect the UL traffic leg.
    pub fn ul_traffic(&self) -> &Flow {
        &self.ul_flow
    }

    /// Override the OLLA configuration (ablation experiments).
    pub fn set_olla(&mut self, olla: OllaConfig) {
        self.amc = AmcState::new(olla);
    }

    /// Override the HARQ configuration (ablation experiments).
    pub fn set_harq(&mut self, harq: HarqConfig) {
        self.dl_harq = HarqEntity::new(harq);
        self.ul_harq = HarqEntity::new(harq);
    }

    /// Override the CSI reporting period in slots.
    pub fn set_csi_period(&mut self, slots: u64) {
        self.csi_period = slots.max(1);
    }

    /// Carrier index within the aggregate.
    pub fn index(&self) -> u8 {
        self.index
    }

    /// Slot duration of this carrier, seconds.
    pub fn slot_s(&self) -> f64 {
        self.cfg.slot_s()
    }

    /// Latest CQI known to the gNB (drives NSA UL routing).
    pub fn current_cqi(&self) -> u8 {
        self.amc.csi().cqi.value()
    }

    /// Advance one slot of this carrier.
    ///
    /// * `position`/`moved_m` come from the UE-level mobility step;
    /// * `traffic` selects saturating directions;
    /// * `ul_on_nr` gates the UL leg (false when NSA routing sent UL to
    ///   LTE this slot);
    /// * `dl_share`/`ul_share` are the fraction of the carrier granted to
    ///   this UE (1.0 when alone; less models a loaded cell).
    pub fn step(
        &mut self,
        position: Position,
        moved_m: f64,
        traffic: TrafficPattern,
        ul_on_nr: bool,
        dl_share: f64,
        ul_share: f64,
    ) -> CarrierSlotOutput {
        let slot = self.slot;
        self.slot += 1;
        let time_s = slot as f64 * self.slot_s();

        let ch = self.channel.step_at(position, moved_m);
        self.dl_flow.advance(time_s, self.cfg.slot_s());
        self.ul_flow.advance(time_s, self.cfg.slot_s());

        // UE side: smooth the SINR the way CQI filtering does, and report
        // CSI every period.
        self.ewma_sinr_db = 0.9 * self.ewma_sinr_db + 0.1 * ch.sinr_db;
        if slot % self.csi_period == 0 {
            let csi = AmcState::make_csi(&self.link, self.ewma_sinr_db, self.prev_rank);
            self.prev_rank = csi.ri;
            self.amc.update_csi(csi);
        }
        let cqi = self.amc.csi().cqi.value();
        self.metrics.count_slots(1);
        let auditing = audit::enabled();
        if auditing {
            audit::check(Invariant::CqiRange, cqi <= 15);
        }

        let mut ctx = SlotCtx {
            cfg: &self.cfg,
            link: &self.link,
            tbs_cache: &mut self.tbs_cache,
            counters: &mut self.metrics,
            carrier: self.index,
            slot,
            time_s,
            auditing,
        };
        let dl_alloc = if traffic.dl && self.dl_flow.needs_grant(self.dl_harq.has_ready(slot)) {
            self.alloc_table.dl(ctx.cfg, slot, dl_share)
        } else {
            None
        };
        let dl = leg::transmit(
            &mut ctx,
            Direction::Dl,
            dl_alloc,
            UeLeg {
                amc: &mut self.amc,
                harq: &mut self.dl_harq,
                flow: &mut self.dl_flow,
                draws: &mut self.bler_draws,
            },
            cqi,
            &ch,
        );

        let ul = if self.alloc_table.has_ul(slot) {
            let ul_alloc = if traffic.ul
                && ul_on_nr
                && self.ul_flow.needs_grant(self.ul_harq.has_ready(slot))
            {
                self.alloc_table.ul(ctx.cfg, slot, ul_share)
            } else {
                None
            };
            Some(leg::transmit(
                &mut ctx,
                Direction::Ul,
                ul_alloc,
                UeLeg {
                    amc: &mut self.amc,
                    harq: &mut self.ul_harq,
                    flow: &mut self.ul_flow,
                    draws: &mut self.bler_draws,
                },
                cqi,
                &ch,
            ))
        } else {
            None
        };

        CarrierSlotOutput { dl, ul, channel: ch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_channel::channel::ChannelConfig;
    use radio_channel::geometry::DeploymentLayout;
    use radio_channel::mobility::MobilityModel;

    fn carrier(bw_mhz: u32, distance_m: f64, seed: u64) -> (Carrier, Position) {
        let cfg = CellConfig::midband(bw_mhz, "DDDSU");
        let pos = Position::new(distance_m, 0.0);
        let seeds = SeedTree::new(seed);
        let channel = ChannelSimulator::new(
            ChannelConfig::midband_urban(cfg.n_rb),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &seeds,
        );
        (Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds), pos)
    }

    fn run_dl(bw_mhz: u32, distance_m: f64, seed: u64, slots: u64) -> crate::kpi::KpiTrace {
        let (mut c, pos) = carrier(bw_mhz, distance_m, seed);
        let mut trace = crate::kpi::KpiTrace::new();
        for _ in 0..slots {
            let out = c.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
            trace.push(out.dl);
            if let Some(ul) = out.ul {
                trace.push(ul);
            }
        }
        trace
    }

    #[test]
    fn good_channel_dl_throughput_in_paper_range() {
        // 90 MHz near the site: the paper's V_Sp averages ~743 Mbps with
        // peaks above 1 Gbps. Expect several hundred Mbps to ~1.2 Gbps.
        let t = run_dl(90, 70.0, 1, 20_000);
        let mbps = t.mean_throughput_mbps(Direction::Dl);
        assert!(mbps > 400.0 && mbps < 1400.0, "DL {mbps} Mbps");
    }

    #[test]
    fn far_ue_gets_much_less() {
        let near = run_dl(90, 70.0, 2, 10_000).mean_throughput_mbps(Direction::Dl);
        let far = run_dl(90, 600.0, 2, 10_000).mean_throughput_mbps(Direction::Dl);
        assert!(far < near * 0.6, "near {near} far {far}");
    }

    #[test]
    fn ul_far_below_dl() {
        // §4.2: UL "well below 120 Mbps" while DL runs at hundreds.
        let t = run_dl(90, 70.0, 3, 20_000);
        let dl = t.mean_throughput_mbps(Direction::Dl);
        let ul = t.mean_throughput_mbps(Direction::Ul);
        assert!(ul < 130.0, "UL {ul}");
        assert!(dl > 3.0 * ul, "DL {dl} vs UL {ul}");
    }

    #[test]
    fn bler_near_olla_target() {
        // Mid-range conditions, where the MCS table is not saturated: OLLA
        // should hold BLER in the vicinity of its 10% target. (At very
        // good spots the highest MCS index still decodes with BLER ≈ 0 —
        // the outer loop clamps at the table edge; in outage the gNB does
        // not schedule at all.) The quasi-static shadowing makes each
        // (seed, distance) pair one realisation with ±several-dB swings,
        // so the probe point must sit mid-range *for this seed*: seed 4
        // at 100 m averages ~8 dB SINR / CQI 5 — squarely in OLLA's
        // operating regime (at this seed's 280 m the UE is in outage,
        // where stale-CSI slots dominate the BLER).
        let t = run_dl(90, 100.0, 4, 40_000);
        let bler = t.dl_bler();
        assert!(bler > 0.01 && bler < 0.3, "bler {bler}");
    }

    #[test]
    fn wider_channel_higher_throughput_same_conditions() {
        // All else equal, 100 MHz > 80 MHz (it's the *other* factors the
        // paper blames for O_Sp's inversion, which operator profiles set).
        let t80 = run_dl(80, 80.0, 5, 15_000).mean_throughput_mbps(Direction::Dl);
        let t100 = run_dl(100, 80.0, 5, 15_000).mean_throughput_mbps(Direction::Dl);
        assert!(t100 > t80, "100 MHz {t100} vs 80 MHz {t80}");
    }

    #[test]
    fn qam64_cap_costs_throughput_in_good_conditions() {
        // The cap only binds where the uncapped link actually reaches the
        // 256QAM rows. Seed 6's shadowing draw at 60 m leaves only ~10 dB
        // SINR (64QAM territory either way); at 30 m the same seed holds
        // ~20 dB / MCS 18 on the 256QAM table, so capping to 64QAM costs
        // real throughput.
        let (mut capped, pos) = carrier(90, 30.0, 6);
        capped.cfg.mcs_policy = nr_phy::cqi::CqiToMcsPolicy {
            cqi_table: nr_phy::cqi::CqiTable::Table2,
            mcs_table: nr_phy::mcs::McsTable::Qam64,
            index_offset: 0,
        };
        let mut trace = crate::kpi::KpiTrace::new();
        for _ in 0..15_000 {
            trace.push(capped.step(pos, 0.0, TrafficPattern::DL, true, 1.0, 1.0).dl);
        }
        let capped_mbps = trace.mean_throughput_mbps(Direction::Dl);
        let free_mbps = run_dl(90, 30.0, 6, 15_000).mean_throughput_mbps(Direction::Dl);
        assert!(
            capped_mbps < free_mbps,
            "64QAM cap {capped_mbps} should trail 256QAM {free_mbps}"
        );
    }

    #[test]
    fn retransmissions_happen_and_recover_bits() {
        let t = run_dl(90, 350.0, 7, 30_000);
        let retx: Vec<SlotKpi> =
            t.direction(Direction::Dl).filter(|r| r.is_retx).collect();
        assert!(!retx.is_empty(), "expected retransmissions at cell edge");
        assert!(retx.iter().any(|r| r.delivered_bits > 0), "some retx succeed");
    }

    #[test]
    fn ul_slots_follow_tdd_pattern() {
        let (mut c, pos) = carrier(90, 70.0, 8);
        for i in 0..10u64 {
            let out = c.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
            let expect_ul = matches!(i % 5, 3 | 4);
            assert_eq!(out.ul.is_some(), expect_ul, "slot {i}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_dl(90, 100.0, 42, 5000);
        let b = run_dl(90, 100.0, 42, 5000);
        assert_eq!(a.mean_throughput_mbps(Direction::Dl), b.mean_throughput_mbps(Direction::Dl));
    }

    #[test]
    fn cloned_carrier_continues_identically() {
        // Cloned mid-tile: the copy carries the prefetched BLER draws and
        // the generator behind them, so both replay the same records.
        let (mut a, pos) = carrier(90, 350.0, 23);
        for _ in 0..37 {
            a.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
        }
        let mut b = a.clone();
        let mut errors = 0;
        for _ in 0..1_000 {
            let (x, y) = (
                a.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0),
                b.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0),
            );
            assert_eq!(x.dl, y.dl);
            assert_eq!(x.ul, y.ul);
            errors += u32::from(x.dl.block_error);
        }
        assert!(errors > 0, "the run should exercise failed blocks");
    }

    #[test]
    fn cbr_traffic_caps_delivered_rate() {
        // A 100 Mbps CBR source over a channel that could carry several
        // hundred: goodput tracks the offered load, not the capacity.
        let (mut c, pos) = carrier(90, 70.0, 21);
        c.set_dl_workload(Box::new(crate::workload::Cbr::new(100.0)), QueueConfig::unbounded());
        let mut trace = crate::kpi::KpiTrace::new();
        for _ in 0..20_000 {
            trace.push(c.step(pos, 0.0, TrafficPattern::DL, false, 1.0, 1.0).dl);
        }
        let mbps = trace.mean_throughput_mbps(Direction::Dl);
        assert!((mbps - 100.0).abs() < 12.0, "goodput {mbps} for 100 Mbps offered");
        // TBs shrink to the queued backlog: the mean scheduled TB is far
        // below what the allocation could carry (~600 kbit at this SINR).
        let scheduled: Vec<u32> = trace
            .direction(Direction::Dl)
            .filter(|r| r.scheduled && !r.is_retx)
            .map(|r| r.tbs_bits)
            .collect();
        let mean_tb = scheduled.iter().map(|&b| f64::from(b)).sum::<f64>()
            / scheduled.len().max(1) as f64;
        assert!(mean_tb < 200_000.0, "mean TB {mean_tb} bits");
    }

    #[test]
    fn finite_transfer_drains_and_goes_quiet() {
        use crate::workload::{RtcConfig, RtcFrames};
        // One 100 Mbit frame released at t = 0; at 0.01 fps the next one
        // is due at 100 s, far past the run's 10 s.
        let (mut c, pos) = carrier(90, 70.0, 22);
        let transfer = RtcFrames::new(RtcConfig { rate_mbps: 1.0, fps: 0.01 });
        assert_eq!(transfer.frame_bits(), 100_000_000);
        c.set_dl_workload(Box::new(transfer), QueueConfig::unbounded());
        let mut delivered = 0u64;
        let mut quiet_slots = 0u32;
        for _ in 0..20_000 {
            let out = c.step(pos, 0.0, TrafficPattern::DL, false, 1.0, 1.0);
            delivered += u64::from(out.dl.delivered_bits);
            if !out.dl.scheduled {
                quiet_slots += 1;
            }
        }
        // Everything offered is eventually delivered (HARQ may drop a
        // residual block or two at most).
        assert!(delivered as f64 >= 100.0e6 * 0.995, "delivered {delivered}");
        assert!(delivered as f64 <= 100.5e6);
        assert!(quiet_slots > 10_000, "channel goes quiet after the transfer");
    }
}
