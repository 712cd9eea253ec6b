//! The loaded-cell engine: one cell, N contending UEs, one slot loop.
//!
//! [`CellSim`] reproduces the paper's §5.2 / Fig. 14 contention (per-UE
//! RBs and throughput roughly halve with two active users) and scales it
//! to 10k+ UEs:
//!
//! * **Structure-of-arrays state.** Per-UE columns (CQI, OLLA/AMC, HARQ,
//!   PF average rate, EWMA SINR, channel, traffic, BLER RNG) live in
//!   parallel vectors, so each phase of the slot loop sweeps contiguous
//!   memory across the whole user set — the same batching the columnar
//!   [`crate::kpi::KpiTrace`] applies across slots.
//! * **Integer-PRB scheduling.** The cell holds one RB budget per
//!   direction and hands out integer grants
//!   ([`crate::scheduler::split_prbs`]); the grants of one slot can never
//!   sum past the budget, which audit mode checks as
//!   [`Invariant::RbBudgetConserved`].
//! * **Streaming output.** Records leave through a [`CellSink`] as they
//!   are produced; a 10k-UE campaign folds them into O(UEs) accumulators
//!   instead of holding ~10k traces.
//!
//! # Slot contract
//!
//! Each [`CellSim::step_into`] runs three phases, all in UE index order:
//!
//! 1. **Schedule** on the CSI the gNB holds from previous slots (real
//!    schedulers act on the last report, not on channel truth of the slot
//!    being scheduled): pick the slot's grants per
//!    [`SchedulerPolicy`] over the eligible set (active UEs with queued
//!    traffic as of the previous slot).
//! 2. **Channel + UE side**: advance each UE's channel, traffic arrivals,
//!    SINR filtering and (periodic) CSI reporting.
//! 3. **Transmit**: run each UE's DL/UL leg through the transmit kernel
//!    the single-UE [`Carrier`](crate::carrier::Carrier) also runs, with
//!    the same RNG stream label per UE; then update PF average rates and
//!    push one DL record (plus one UL record on UL-capable slots) per UE
//!    into the sink.
//!
//! With one UE, every phase degenerates to the [`Carrier`](crate::carrier::Carrier) path and the
//! emitted records are byte-identical to it (`ran/tests/cell_props.rs`).

use crate::amc::{AmcState, OllaConfig};
use crate::carrier::TrafficPattern;
use crate::config::CellConfig;
use crate::flow::Flow;
use crate::harq::{HarqConfig, HarqEntity};
use crate::kpi::{Direction, KpiTrace, SlotKpi};
use crate::leg::{self, BlerDraws, SlotCounters, SlotCtx, UeLeg};
use crate::queue::QueueConfig;
use crate::scheduler::{self, SchedulerPolicy};
use crate::workload::Workload;
use nr_phy::cqi::Cqi;
use nr_phy::csi::{CsiReport, DEFAULT_CSI_PERIOD_SLOTS};
use nr_phy::tbs::TbsCache;
use obs::audit::{self, Invariant};
use radio_channel::channel::{ChannelConfig, ChannelSimulator, ChannelState};
use radio_channel::geometry::{DeploymentLayout, Position};
use radio_channel::link::LinkModel;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;

/// Everything static about the cell a [`CellSim`] drives: the carrier
/// configuration, the radio environment shared by every UE, and the
/// scheduling/traffic regime.
#[derive(Debug, Clone)]
pub struct CellParams {
    /// Carrier configuration (bandwidth, TDD pattern, MCS policy...).
    pub cell: CellConfig,
    /// Radio environment every UE's channel instantiates.
    pub channel: ChannelConfig,
    /// Site deployment shared by every UE.
    pub layout: DeploymentLayout,
    /// Link-level abstraction (BLER/CQI/rank curves).
    pub link: LinkModel,
    /// How the cell splits RBs among contending UEs.
    pub policy: SchedulerPolicy,
    /// Which directions carry saturating traffic.
    pub traffic: TrafficPattern,
}

impl CellParams {
    /// The calibrated mid-band baseline the figures use: `DDDSU` TDD,
    /// urban-macro channel, single site, 256QAM link — only the bandwidth
    /// and scheduling policy vary per experiment.
    pub fn midband(bandwidth_mhz: u32, policy: SchedulerPolicy) -> Self {
        let cell = CellConfig::midband(bandwidth_mhz, "DDDSU");
        let channel = ChannelConfig::midband_urban(cell.n_rb);
        CellParams {
            cell,
            channel,
            layout: DeploymentLayout::single_site(),
            link: LinkModel::midband_qam256(),
            policy,
            traffic: TrafficPattern::DL,
        }
    }
}

/// One UE of the cell: a fixed position and whether it contends for RBs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UeSpec {
    /// The UE's (stationary) position.
    pub position: Position,
    /// Whether the UE has active traffic (load sweeps activate subsets).
    pub active: bool,
}

impl UeSpec {
    /// An active UE at `(x, y)`.
    pub fn at(x: f64, y: f64) -> Self {
        UeSpec { position: Position::new(x, y), active: true }
    }
}

/// A streaming consumer of per-UE slot records — the cell-level analogue
/// of [`crate::sink::SlotSink`], with the producing UE's index alongside
/// each record so O(UEs) accumulators can bucket without a trace per UE.
///
/// The [`crate::sink::SlotSink`] contract carries over: records arrive in
/// emission order (per slot, UEs in index order, DL before UL), and
/// `finish` is called exactly once after the last record.
pub trait CellSink {
    /// Consume one record produced by UE `ue`.
    fn push(&mut self, ue: u32, kpi: &SlotKpi);

    /// Signal end of stream. Defaults to a no-op.
    fn finish(&mut self) {}
}

/// The materialising sink: one full [`KpiTrace`] per UE. Fine for a
/// handful of UEs (the Fig. 14 experiments); load sweeps use bounded
/// accumulators instead.
#[derive(Debug, Clone, Default)]
pub struct CellTraces {
    traces: Vec<KpiTrace>,
}

impl CellTraces {
    /// Empty traces for `n_ues` UEs.
    pub fn new(n_ues: usize) -> Self {
        CellTraces { traces: (0..n_ues).map(|_| KpiTrace::new()).collect() }
    }

    /// The per-UE traces, indexed by UE.
    pub fn traces(&self) -> &[KpiTrace] {
        &self.traces
    }

    /// Take ownership of the per-UE traces.
    pub fn into_traces(self) -> Vec<KpiTrace> {
        self.traces
    }
}

impl CellSink for CellTraces {
    fn push(&mut self, ue: u32, kpi: &SlotKpi) {
        self.traces[ue as usize].push(*kpi);
    }
}

/// UEs swept per fused phase-2+3 chunk. Phases 2 and 3 are per-UE
/// independent once the slot's grants are fixed, so the sweep fuses them
/// over small chunks: a UE's channel state, traffic queues and AMC column
/// are still cache-resident when its transmit leg runs (sweeping the whole
/// user set in phase 2 before returning to UE 0 evicted all of it at
/// ~10k UEs). The chunk is also the SIMD batch for the CSI-slot CQI
/// evaluation — 8 lanes fill two AVX2 vectors.
const UE_CHUNK: usize = 8;

/// N UEs contending for one cell's RBs, stepped slot by slot.
///
/// State is laid out structure-of-arrays: column `i` of every vector
/// belongs to UE `i`. Steady-state stepping is allocation-free at any N
/// (`ran/tests/alloc_free.rs` pins N=1000): scratch columns are reused,
/// the TBS memo is shared across the whole cell, and records stream out
/// through the sink.
pub struct CellSim {
    params: CellParams,
    csi_period: u64,
    slot: u64,
    rr_next: usize,
    // --- per-UE columns ---
    positions: Vec<Position>,
    active: Vec<bool>,
    channels: Vec<ChannelSimulator>,
    amc: Vec<AmcState>,
    dl_harq: Vec<HarqEntity>,
    ul_harq: Vec<HarqEntity>,
    dl_flows: Vec<Flow>,
    ul_flows: Vec<Flow>,
    bler_draws: Vec<BlerDraws>,
    ewma_sinr_db: Vec<f64>,
    prev_rank: Vec<u8>,
    /// CQI the gNB holds for each UE (last reported; what scheduling
    /// decisions and slot records see).
    gnb_cqi: Vec<u8>,
    /// PF long-term average delivered DL bits per slot (EWMA).
    avg_rate: Vec<f64>,
    /// For each UE, the lowest index sharing its exact position — the UE
    /// whose large-scale channel cache co-located UEs adopt on slot 0.
    spot_leader: Vec<u32>,
    // --- per-slot scratch, reused across slots ---
    ch: Vec<ChannelState>,
    dl_prbs: Vec<u16>,
    ul_prbs: Vec<u16>,
    eligible: Vec<u32>,
    // --- shared across UEs ---
    tbs_cache: TbsCache,
    metrics: SlotCounters,
}

impl CellSim {
    /// Assemble the cell. UE `i` draws every stream from
    /// `seeds.child_indexed("ue", i)` with the same labels the single-UE
    /// [`Carrier`](crate::carrier::Carrier) uses, so a one-UE cell replays a `Carrier` built from
    /// the same subtree byte-for-byte.
    pub fn new(params: CellParams, ues: &[UeSpec], seeds: &SeedTree) -> Self {
        assert!(!ues.is_empty(), "need at least one UE");
        let n = ues.len();
        let mut positions = Vec::with_capacity(n);
        let mut active = Vec::with_capacity(n);
        let mut channels = Vec::with_capacity(n);
        let mut amc = Vec::with_capacity(n);
        let mut dl_harq = Vec::with_capacity(n);
        let mut ul_harq = Vec::with_capacity(n);
        let mut dl_flows = Vec::with_capacity(n);
        let mut ul_flows = Vec::with_capacity(n);
        let mut bler_draws = Vec::with_capacity(n);
        let mut spot_leader: Vec<u32> = Vec::with_capacity(n);
        for (i, ue) in ues.iter().enumerate() {
            let ue_seeds = seeds.child_indexed("ue", i as u64);
            positions.push(ue.position);
            active.push(ue.active);
            channels.push(ChannelSimulator::new(
                params.channel,
                params.layout.clone(),
                MobilityModel::Stationary { position: ue.position },
                &ue_seeds,
            ));
            amc.push(AmcState::new(OllaConfig::default()));
            dl_harq.push(HarqEntity::new(HarqConfig::default()));
            ul_harq.push(HarqEntity::new(HarqConfig::default()));
            dl_flows.push(Flow::full_buffer());
            ul_flows.push(Flow::full_buffer());
            // Matches Carrier index 0's stream label exactly.
            bler_draws.push(BlerDraws::new(ue_seeds.stream_static("carrier0/bler")));
            let leader = positions[..i]
                .iter()
                .position(|&p| p == ue.position)
                .unwrap_or(i) as u32;
            spot_leader.push(leader);
        }
        CellSim {
            csi_period: DEFAULT_CSI_PERIOD_SLOTS,
            slot: 0,
            rr_next: 0,
            positions,
            active,
            channels,
            amc,
            dl_harq,
            ul_harq,
            dl_flows,
            ul_flows,
            bler_draws,
            ewma_sinr_db: vec![15.0; n],
            prev_rank: vec![2; n],
            // AmcState::new starts from a mid-range CQI 8 assumption.
            gnb_cqi: vec![8; n],
            avg_rate: vec![1.0; n],
            spot_leader,
            ch: Vec::with_capacity(n),
            dl_prbs: vec![0; n],
            ul_prbs: vec![0; n],
            eligible: Vec::with_capacity(n),
            tbs_cache: TbsCache::new(),
            metrics: SlotCounters::new(),
            params,
        }
    }

    /// Number of UEs in the cell.
    pub fn n_ues(&self) -> usize {
        self.positions.len()
    }

    /// Slots stepped so far.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// (De)activate a UE between steps (sequential-vs-simultaneous
    /// experiments toggle this).
    pub fn set_active(&mut self, ue: usize, active: bool) {
        self.active[ue] = active;
    }

    /// Override the CSI reporting period in slots.
    pub fn set_csi_period(&mut self, slots: u64) {
        self.csi_period = slots.max(1);
    }

    /// Install a pluggable DL workload behind a gNB queue for UE `ue`.
    pub fn set_dl_workload(&mut self, ue: usize, workload: Box<dyn Workload>, queue: QueueConfig) {
        self.dl_flows[ue] = Flow::pipeline(workload, queue);
    }

    /// Install a pluggable UL workload behind a queue for UE `ue`.
    pub fn set_ul_workload(&mut self, ue: usize, workload: Box<dyn Workload>, queue: QueueConfig) {
        self.ul_flows[ue] = Flow::pipeline(workload, queue);
    }

    /// Inspect UE `ue`'s DL traffic leg (queue depth, workload counters).
    pub fn dl_flow(&self, ue: usize) -> &Flow {
        &self.dl_flows[ue]
    }

    /// Mutable access to UE `ue`'s DL leg (draining delay samples).
    pub fn dl_flow_mut(&mut self, ue: usize) -> &mut Flow {
        &mut self.dl_flows[ue]
    }

    /// Run `slots` slots, streaming every record into `sink`, and call
    /// its `finish` once at the end.
    pub fn run_into<S: CellSink>(&mut self, slots: u64, sink: &mut S) {
        for _ in 0..slots {
            self.step_into(sink);
        }
        sink.finish();
    }

    /// Run `slots` slots and materialise one trace per UE (small-N
    /// convenience; load sweeps stream into bounded sinks instead).
    pub fn run(&mut self, slots: u64) -> Vec<KpiTrace> {
        let mut traces = CellTraces::new(self.n_ues());
        self.run_into(slots, &mut traces);
        traces.into_traces()
    }

    /// Advance the whole cell one slot (see the module docs for the
    /// three-phase contract).
    pub fn step_into<S: CellSink>(&mut self, sink: &mut S) {
        let slot = self.slot;
        self.slot += 1;
        let slot_s = self.params.cell.slot_s();
        let time_s = slot as f64 * slot_s;
        let n = self.n_ues();
        let auditing = audit::enabled();

        // Phase 1 — schedule on the CSI the gNB already holds.
        self.schedule(slot, auditing);

        // Phases 2 and 3, fused over UE chunks. Given the slot's grants
        // every per-UE column is independent across UEs, so running a
        // chunk's transmit legs right after its channel sweep changes no
        // value, only cache behaviour — and records still leave in UE
        // index order, DL before UL, exactly as the module contract says.
        let csi_slot = slot % self.csi_period == 0;
        let ul_capable = self.params.cell.ul_symbols(slot) > 0;
        let mut cqi_buf = [Cqi::saturating(0); UE_CHUNK];
        let mut ctx = SlotCtx {
            cfg: &self.params.cell,
            link: &self.params.link,
            tbs_cache: &mut self.tbs_cache,
            counters: &mut self.metrics,
            carrier: 0,
            slot,
            time_s,
            auditing,
        };
        let mut start = 0;
        while start < n {
            let end = (start + UE_CHUNK).min(n);

            // Phase 2 — channel evolution and UE-side reporting.
            self.ch.clear();
            for i in start..end {
                if slot == 0 {
                    // Co-located UEs adopt the first occupant's large-scale
                    // cache; later slots hit each UE's own cache.
                    let leader = self.spot_leader[i] as usize;
                    if leader < i {
                        let (head, tail) = self.channels.split_at_mut(i);
                        tail[0].prime_cache_from(&head[leader]);
                    }
                }
                let ch = self.channels[i].step_at(self.positions[i], 0.0);
                self.dl_flows[i].advance(time_s, slot_s);
                self.ul_flows[i].advance(time_s, slot_s);
                self.ewma_sinr_db[i] = 0.9 * self.ewma_sinr_db[i] + 0.1 * ch.sinr_db;
                self.ch.push(ch);
            }
            if csi_slot {
                // One SIMD CQI evaluation for the whole chunk (bit-identical
                // to the scalar `AmcState::make_csi` per UE); rank stays
                // scalar — it threads per-UE hysteresis state.
                self.params
                    .link
                    .cqi_batch(&self.ewma_sinr_db[start..end], &mut cqi_buf[..end - start]);
                for i in start..end {
                    let cqi = cqi_buf[i - start];
                    let ri =
                        self.params.link.rank(self.ewma_sinr_db[i], self.prev_rank[i]);
                    let csi = CsiReport::new(ri, 0, cqi, 0);
                    self.prev_rank[i] = ri;
                    self.amc[i].update_csi(csi);
                    self.gnb_cqi[i] = csi.cqi.value();
                }
            }
            if auditing {
                for i in start..end {
                    audit::check(Invariant::CqiRange, self.gnb_cqi[i] <= 15);
                }
            }

            // Phase 3 — transmit per grant, stream records, update PF state.
            for i in start..end {
                let cqi = self.gnb_cqi[i];
                let ch = self.ch[i - start];
                let dl_alloc = if self.params.traffic.dl
                    && self.dl_flows[i].needs_grant(self.dl_harq[i].has_ready(slot))
                    && self.dl_prbs[i] > 0
                {
                    scheduler::dl_allocation_prbs(ctx.cfg, slot, self.dl_prbs[i])
                } else {
                    None
                };
                let dl = leg::transmit(
                    &mut ctx,
                    Direction::Dl,
                    dl_alloc,
                    UeLeg {
                        amc: &mut self.amc[i],
                        harq: &mut self.dl_harq[i],
                        flow: &mut self.dl_flows[i],
                        draws: &mut self.bler_draws[i],
                    },
                    cqi,
                    &ch,
                );
                sink.push(i as u32, &dl);
                if ul_capable {
                    let ul_alloc = if self.params.traffic.ul
                        && self.ul_flows[i].needs_grant(self.ul_harq[i].has_ready(slot))
                        && self.ul_prbs[i] > 0
                    {
                        scheduler::ul_allocation_prbs(ctx.cfg, slot, self.ul_prbs[i])
                    } else {
                        None
                    };
                    let ul = leg::transmit(
                        &mut ctx,
                        Direction::Ul,
                        ul_alloc,
                        UeLeg {
                            amc: &mut self.amc[i],
                            harq: &mut self.ul_harq[i],
                            flow: &mut self.ul_flows[i],
                            draws: &mut self.bler_draws[i],
                        },
                        cqi,
                        &ch,
                    );
                    sink.push(i as u32, &ul);
                }
                // PF bookkeeping: the long-term average tracks delivered DL
                // bits for every UE every slot (idle slots decay it).
                self.avg_rate[i] = 0.999 * self.avg_rate[i] + 0.001 * f64::from(dl.delivered_bits);
            }
            start = end;
        }
        self.metrics.count_slots(n as u64);
    }

    /// Fill `dl_prbs`/`ul_prbs` with this slot's integer grants.
    fn schedule(&mut self, slot: u64, auditing: bool) {
        let n = self.n_ues();
        self.dl_prbs[..n].fill(0);
        self.ul_prbs[..n].fill(0);
        self.eligible.clear();
        for i in 0..n {
            if self.active[i]
                && ((self.params.traffic.dl
                    && self.dl_flows[i].needs_grant(self.dl_harq[i].has_ready(slot)))
                    || (self.params.traffic.ul
                        && self.ul_flows[i].needs_grant(self.ul_harq[i].has_ready(slot))))
            {
                self.eligible.push(i as u32);
            }
        }
        if self.eligible.is_empty() {
            return;
        }
        let dl_budget = self.params.cell.n_rb;
        let ul_budget = scheduler::ul_prb_budget(&self.params.cell);
        match self.params.policy {
            SchedulerPolicy::EqualShare => {
                let k = self.eligible.len();
                for (rank, &i) in self.eligible.iter().enumerate() {
                    self.dl_prbs[i as usize] = scheduler::split_prbs(dl_budget, k, rank, slot);
                    self.ul_prbs[i as usize] = scheduler::split_prbs(ul_budget, k, rank, slot);
                }
            }
            SchedulerPolicy::RoundRobinSlots => {
                let pick = self.eligible[self.rr_next % self.eligible.len()] as usize;
                self.rr_next += 1;
                self.dl_prbs[pick] = dl_budget;
                self.ul_prbs[pick] = ul_budget;
            }
            SchedulerPolicy::MaxCqi => {
                // First index wins ties: strict comparison.
                let mut pick = self.eligible[0] as usize;
                for &i in &self.eligible[1..] {
                    if self.gnb_cqi[i as usize] > self.gnb_cqi[pick] {
                        pick = i as usize;
                    }
                }
                self.dl_prbs[pick] = dl_budget;
                self.ul_prbs[pick] = ul_budget;
            }
            SchedulerPolicy::ProportionalFair => {
                // Metric: CQI-implied instantaneous rate over average
                // rate. Last index wins ties (`>=`), as `Iterator::max_by`
                // would pick.
                let metric = |i: usize| {
                    f64::from(self.gnb_cqi[i]) / self.avg_rate[i].max(1e-9)
                };
                let mut pick = self.eligible[0] as usize;
                let mut best = metric(pick);
                for &i in &self.eligible[1..] {
                    let m = metric(i as usize);
                    if m >= best {
                        best = m;
                        pick = i as usize;
                    }
                }
                self.dl_prbs[pick] = dl_budget;
                self.ul_prbs[pick] = ul_budget;
            }
        }
        if auditing {
            let dl_sum: u64 = self.eligible.iter().map(|&i| u64::from(self.dl_prbs[i as usize])).sum();
            let ul_sum: u64 = self.eligible.iter().map(|&i| u64::from(self.ul_prbs[i as usize])).sum();
            audit::check(Invariant::RbBudgetConserved, dl_sum <= u64::from(dl_budget));
            audit::check(Invariant::RbBudgetConserved, ul_sum <= u64::from(ul_budget));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spots(n: usize) -> Vec<UeSpec> {
        const D: [f64; 8] = [45.0, 70.0, 95.0, 117.0, 60.0, 85.0, 110.0, 135.0];
        (0..n).map(|i| UeSpec::at(D[i % D.len()], 0.0)).collect()
    }

    #[test]
    fn two_ues_roughly_halve_per_ue_throughput() {
        // The Fig. 14 mechanism at engine level: the same UE alone vs
        // sharing the cell with a second active UE.
        let run = |ues: Vec<UeSpec>| {
            let mut sim = CellSim::new(
                CellParams::midband(60, SchedulerPolicy::EqualShare),
                &ues,
                &SeedTree::new(14),
            );
            let traces = sim.run(20_000);
            traces[0].mean_throughput_mbps(Direction::Dl)
        };
        let mut alone = spots(2);
        alone[1].active = false;
        let solo = run(alone);
        let shared = run(spots(2));
        assert!(
            shared < solo * 0.65 && shared > solo * 0.3,
            "solo {solo} shared {shared}"
        );
    }

    #[test]
    fn max_cqi_starves_the_weak_ue() {
        let ues = vec![UeSpec::at(45.0, 0.0), UeSpec::at(300.0, 0.0)];
        let mut sim = CellSim::new(
            CellParams::midband(60, SchedulerPolicy::MaxCqi),
            &ues,
            &SeedTree::new(15),
        );
        let traces = sim.run(10_000);
        let strong = traces[0].mean_throughput_mbps(Direction::Dl);
        let weak = traces[1].mean_throughput_mbps(Direction::Dl);
        assert!(strong > 100.0, "strong {strong}");
        // Max-CQI all but starves the cell-edge UE.
        assert!(weak < strong * 0.05, "strong {strong} weak {weak}");
    }

    #[test]
    fn round_robin_alternates_full_slots() {
        let mut sim = CellSim::new(
            CellParams::midband(60, SchedulerPolicy::RoundRobinSlots),
            &[UeSpec::at(50.0, 0.0), UeSpec::at(90.0, 0.0)],
            &SeedTree::new(2),
        );
        let traces = sim.run(4_000);
        let scheduled = |t: &KpiTrace| -> Vec<u16> {
            t.direction(Direction::Dl).filter(|r| r.scheduled).map(|r| r.n_prb).collect()
        };
        let (a, b) = (scheduled(&traces[0]), scheduled(&traces[1]));
        for grants in [&a, &b] {
            assert!(!grants.is_empty());
            // Whole-carrier grants only: 162 RBs at 60 MHz.
            assert!(grants.iter().all(|&n| n == 162));
        }
        assert!(a.len().abs_diff(b.len()) <= 1, "fair rotation: {} vs {}", a.len(), b.len());
    }

    #[test]
    fn inactive_ues_cost_nothing_but_produce_idle_records() {
        let mut ues = spots(3);
        ues[1].active = false;
        let mut sim = CellSim::new(
            CellParams::midband(60, SchedulerPolicy::EqualShare),
            &ues,
            &SeedTree::new(16),
        );
        let traces = sim.run(2_000);
        assert_eq!(traces.len(), 3);
        // The inactive UE logs slots but never a grant.
        assert!(!traces[1].is_empty());
        assert!(traces[1].iter().all(|r| !r.scheduled));
        // Active UEs split the whole budget (162 RBs at 60 MHz) two ways.
        let mean_rb = |t: &KpiTrace| {
            let s: Vec<f64> = t
                .direction(Direction::Dl)
                .filter(|r| r.scheduled)
                .map(|r| f64::from(r.n_prb))
                .collect();
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!((mean_rb(&traces[0]) - 81.0).abs() < 1.0);
        assert!((mean_rb(&traces[2]) - 81.0).abs() < 1.0);
    }

    #[test]
    fn more_ues_than_rbs_still_conserves_and_serves() {
        // 200 UEs on a 20 MHz FDD-like budget exercise the k > budget
        // path: zero-PRB "grants" must not schedule, and over enough
        // slots the rotation serves everyone.
        let mut params = CellParams::midband(60, SchedulerPolicy::EqualShare);
        params.cell.n_rb = 51; // shrink the budget below the UE count
        let ues = spots(200);
        let mut sim = CellSim::new(params, &ues, &SeedTree::new(17));
        struct Served(Vec<u64>);
        impl CellSink for Served {
            fn push(&mut self, ue: u32, kpi: &SlotKpi) {
                if kpi.scheduled && kpi.direction == Direction::Dl {
                    self.0[ue as usize] += 1;
                }
            }
        }
        let mut served = Served(vec![0; 200]);
        sim.run_into(2_000, &mut served);
        let never = served.0.iter().filter(|&&n| n == 0).count();
        assert_eq!(never, 0, "{never} UEs never scheduled under rotation");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = CellSim::new(
                CellParams::midband(60, SchedulerPolicy::ProportionalFair),
                &spots(5),
                &SeedTree::new(18),
            );
            sim.run(3_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
        }
    }
}
