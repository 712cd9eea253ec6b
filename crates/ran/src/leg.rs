//! The transmit leg: one UE's DL or UL transport block for one slot.
//!
//! Both slot engines — the single-UE [`Carrier`](crate::carrier::Carrier)
//! and the loaded-cell [`CellSim`](crate::cell::CellSim) — run every leg
//! through [`transmit`]: grant from CQI and OLLA, TBS, BLER draw, HARQ,
//! then flow feedback (the paper's Fig. 21 cycle). An engine decides only
//! whether the UE is granted this slot and with which RBs; what the grant
//! carries is computed here, once, so a one-UE cell replays the carrier
//! byte for byte (`ran/tests/cell_props.rs`).

use crate::amc::AmcState;
use crate::config::CellConfig;
use crate::flow::Flow;
use crate::harq::HarqEntity;
use crate::kpi::{Direction, SlotKpi};
use nr_phy::resource::RbAllocation;
use nr_phy::tbs::TbsCache;
use obs::audit::{self, Invariant};
use obs::LocalCounter;
use radio_channel::channel::ChannelState;
use radio_channel::link::LinkModel;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// UL runs several dB below DL at the same spot: the UE's power budget
/// (23 dBm vs 44 dBm, partly offset by gNB receive gain).
const UL_SINR_PENALTY_DB: f64 = 6.0;

/// Slots a simulator steps between publishing its [`SlotCounters`]. A
/// live counter value lags by fewer than this many slots per running
/// simulator, and is exact once the simulator drops.
pub(crate) const COUNTER_FLUSH_SLOTS: u64 = 4096;

/// The `ran.*` slot counters, registered under the same names by the
/// single-UE [`Carrier`](crate::carrier::Carrier) and the multi-UE
/// [`CellSim`](crate::cell::CellSim), so obs totals aggregate across
/// both engines. Counts batch per instance ([`LocalCounter`]) and
/// publish every [`COUNTER_FLUSH_SLOTS`] slots and on drop: parallel
/// sessions never share a counter cache line on the per-slot path, and
/// `ran/tests/alloc_free.rs` holds with the counters compiled in.
#[derive(Debug, Clone)]
pub(crate) struct SlotCounters {
    slots: LocalCounter,
    retx: LocalCounter,
    block_errors: LocalCounter,
    delivered_bits: LocalCounter,
}

impl SlotCounters {
    pub(crate) fn new() -> Self {
        let reg = obs::registry();
        SlotCounters {
            slots: LocalCounter::new(reg.counter("ran.slots")),
            retx: LocalCounter::new(reg.counter("ran.retx")),
            block_errors: LocalCounter::new(reg.counter("ran.block_errors")),
            delivered_bits: LocalCounter::new(reg.counter("ran.delivered_bits")),
        }
    }

    /// Count `n` stepped UE-slots, publishing every counter once
    /// [`COUNTER_FLUSH_SLOTS`] have accumulated.
    #[inline]
    pub(crate) fn count_slots(&mut self, n: u64) {
        self.slots.add(n);
        if self.slots.pending() >= COUNTER_FLUSH_SLOTS {
            self.flush();
        }
    }

    /// Count one transmitted transport block's outcome.
    #[inline]
    fn count_block(&mut self, is_retx: bool, failed: bool, delivered_bits: u32) {
        self.retx.add(u64::from(is_retx));
        self.block_errors.add(u64::from(failed));
        self.delivered_bits.add(u64::from(delivered_bits));
    }

    #[cold]
    fn flush(&mut self) {
        self.slots.flush();
        self.retx.flush();
        self.block_errors.flush();
        self.delivered_bits.flush();
    }
}

/// What every leg of one carrier slot shares: the cell, the link curves,
/// the TBS memo, the engine's counters and the slot's clock.
pub(crate) struct SlotCtx<'a> {
    pub(crate) cfg: &'a CellConfig,
    pub(crate) link: &'a LinkModel,
    pub(crate) tbs_cache: &'a mut TbsCache,
    pub(crate) counters: &'a mut SlotCounters,
    /// Carrier index stamped on the records (0 = PCell).
    pub(crate) carrier: u8,
    pub(crate) slot: u64,
    pub(crate) time_s: f64,
    pub(crate) auditing: bool,
}

/// One UE's state for one direction: its AMC (shared by DL and UL), the
/// direction's HARQ entity and traffic flow, and its BLER stream.
pub(crate) struct UeLeg<'a> {
    pub(crate) amc: &'a mut AmcState,
    pub(crate) harq: &'a mut HarqEntity,
    pub(crate) flow: &'a mut Flow,
    pub(crate) rng: &'a mut ChaCha12Rng,
}

/// Run one UE's `direction` leg for the slot in `ctx` and return its
/// record.
///
/// `alloc` is the UE's grant, `None` when it is not scheduled; `cqi` is
/// the CQI the gNB holds and `ch` the slot's channel truth. No grant, or
/// an out-of-range report (CQI 0 — a real gNB cannot close the link
/// either), gives an idle record and touches no state. Otherwise a HARQ
/// retransmission takes priority over new data, and a fresh transport
/// block is sized to the flow's backlog (a rate-limited source produces
/// smaller TBs than the allocation could carry). The directions differ
/// only in the grant (`dl_grant` vs `ul_grant`), the UL SINR penalty, and
/// OLLA, which learns from DL HARQ feedback alone.
// Every call site passes a constant direction: inlined, the direction
// branches fold away and the record is built in the caller's frame. Left
// to itself the compiler kept one out-of-line copy, and `Carrier::step`
// (the `session` benchmark's slot loop) ran measurably slower.
#[inline(always)]
pub(crate) fn transmit(
    ctx: &mut SlotCtx<'_>,
    direction: Direction,
    alloc: Option<RbAllocation>,
    ue: UeLeg<'_>,
    cqi: u8,
    ch: &ChannelState,
) -> SlotKpi {
    let (slot, time_s) = (ctx.slot, ctx.time_s);
    let (Some(alloc), false) = (alloc, cqi == 0) else {
        return SlotKpi::idle(
            slot,
            time_s,
            ctx.carrier,
            direction,
            cqi,
            ch.sinr_db,
            ch.measurement.rsrp_dbm,
            ch.measurement.rsrq_db,
            ch.serving_site,
        );
    };
    let UeLeg { amc, harq, flow, rng } = ue;
    let (grant, sinr_db) = match direction {
        Direction::Dl => (amc.dl_grant(ctx.cfg), ch.sinr_db),
        Direction::Ul => (amc.ul_grant(ctx.cfg), ch.sinr_db - UL_SINR_PENALTY_DB),
    };
    let table = grant.format.effective_mcs_table(ctx.cfg.mcs_table());
    let modulation = table.modulation(grant.mcs).unwrap_or(nr_phy::mcs::Modulation::Qpsk);

    let (tbs_bits, attempts, is_retx) = match harq.pop_ready(slot) {
        Some(tb) => {
            flow.begin_retx();
            (tb.tbs_bits, tb.attempts + 1, true)
        }
        None => {
            let full = ctx.tbs_cache.transport_block_size(&alloc, table, grant.mcs, grant.layers);
            (flow.compose_tb(full, time_s), 1, false)
        }
    };

    let bonus = harq.combining_bonus_db(attempts);
    let p_err = ctx.link.bler(sinr_db + bonus, table, grant.mcs);
    let failed = rng.gen::<f64>() < p_err;
    if failed {
        if harq.record_failure(tbs_bits, attempts, slot) {
            flow.fail_deferred();
        } else {
            flow.fail_dropped(time_s, tbs_bits);
        }
    } else {
        flow.complete_delivered(time_s, tbs_bits);
    }
    if direction == Direction::Dl {
        amc.harq_feedback(!failed);
    }

    let delivered_bits = if failed { 0 } else { tbs_bits };
    ctx.counters.count_block(is_retx, failed, delivered_bits);
    if ctx.auditing {
        audit::check(Invariant::RbWithinCarrier, alloc.n_prb <= ctx.cfg.n_rb);
        audit::check(Invariant::HarqAttemptsWithinMax, attempts <= harq.config().max_attempts);
        audit::check(Invariant::DeliveredWithinTbs, delivered_bits <= tbs_bits);
    }

    SlotKpi {
        slot,
        time_s,
        carrier: ctx.carrier,
        direction,
        scheduled: true,
        n_prb: alloc.n_prb,
        n_re: alloc.total_re(),
        mcs: grant.mcs.0,
        modulation,
        layers: grant.layers,
        tbs_bits,
        delivered_bits,
        is_retx,
        block_error: failed,
        cqi,
        sinr_db: ch.sinr_db,
        rsrp_dbm: ch.measurement.rsrp_dbm,
        rsrq_db: ch.measurement.rsrq_db,
        serving_site: ch.serving_site,
        queue_bits: flow.queue_bits(),
        queue_delay_ms: flow.queue_delay_ms(),
    }
}
