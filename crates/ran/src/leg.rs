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
use radio_channel::rng::keystream_avx2;
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

/// Uniform draws one [`BlerDraws`] refill takes from its stream: 64
/// keystream words, eight ChaCha blocks, one wide pass on AVX2.
const BLER_TILE: usize = 64;

/// |x| beyond which the logit comparison defers to the exact test. The
/// evaluated BLER's worst rounding is on its p → 1 side: `1 + e^x` is
/// rounded to within 2⁻⁵³, which moves the threshold by up to
/// 1.1e-16 · e^|x| in logit units, 1e-9 at the window's edge.
const LOGIT_WINDOW: f64 = 16.0;

/// How close x may come to a draw's logit before the exact test decides.
/// Inside the window the two decisions can differ only when |x − logit|
/// is below ≈ 1e-9 (the rounding above, plus a few ulp each from `exp`,
/// the divides and `ln`): this margin leaves a factor of 1,000 on top.
const LOGIT_MARGIN: f64 = 1e-6;

/// A UE's BLER stream, drawn a tile at a time.
///
/// Every transport block fails when its uniform `u` is below the BLER,
/// `u < 1 / (1 + e^x)`; that holds exactly when `x < ln((1 − u) / u)`.
/// A refill takes [`BLER_TILE`] words through one
/// [`ChaCha12Rng::fill_u64`] call (the words `gen::<f64>()` would have
/// read, in order), converts them with `gen`'s formula
/// ([`rand::f64_in_range`] over `[0, 1)`), and stores each uniform's
/// logit from one `vmath::ln_slice` call. The per-block decision is then
/// one compare instead of an `exp` and a divide; see [`decide`] for when
/// it falls back to the exact test. The generator is private: nothing
/// else may draw from this stream, or the prefetched tile would reorder
/// its draws.
#[derive(Debug, Clone)]
pub(crate) struct BlerDraws {
    rng: ChaCha12Rng,
    u: [f64; BLER_TILE],
    logit: [f64; BLER_TILE],
    /// Next unread index; `BLER_TILE` means drained.
    pos: usize,
}

impl BlerDraws {
    pub(crate) fn new(rng: ChaCha12Rng) -> Self {
        BlerDraws { rng, u: [0.0; BLER_TILE], logit: [0.0; BLER_TILE], pos: BLER_TILE }
    }

    /// The next uniform and its logit.
    #[inline]
    fn next(&mut self) -> (f64, f64) {
        if self.pos == BLER_TILE {
            self.refill();
        }
        let i = self.pos;
        self.pos += 1;
        (self.u[i], self.logit[i])
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let mut words = [0u64; BLER_TILE];
        self.rng.fill_u64(keystream_avx2(), &mut words);
        for (u, &w) in self.u.iter_mut().zip(words.iter()) {
            *u = rand::f64_in_range(0.0, 1.0, w);
        }
        logits(&self.u, &mut self.logit);
        self.pos = 0;
    }
}

/// `out[i] = ln((1 − u[i]) / u[i])`, +∞ at u = 0; at most [`BLER_TILE`]
/// draws.
fn logits(u: &[f64], out: &mut [f64]) {
    let mut odds = [0.0; BLER_TILE];
    let odds = &mut odds[..u.len()];
    for (o, &u) in odds.iter_mut().zip(u) {
        *o = (1.0 - u) / u;
    }
    vmath::ln_slice(odds, out);
}

/// Whether a transport block with logistic exponent `x` fails on the
/// draw `u` whose stored logit is `logit`: the same answer as
/// `u < bler()` for every input. Inside the window and clear of the
/// margin the logit comparison decides; otherwise (|x| > 16, NaN x, or x
/// within 1e-6 of the logit) `bler` is evaluated and compared exactly.
#[inline(always)]
fn decide(x: f64, u: f64, logit: f64, bler: impl FnOnce() -> f64) -> bool {
    if x.abs() <= LOGIT_WINDOW && (x - logit).abs() > LOGIT_MARGIN {
        x < logit
    } else {
        u < bler()
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
/// direction's HARQ entity and traffic flow, and its BLER draws.
pub(crate) struct UeLeg<'a> {
    pub(crate) amc: &'a mut AmcState,
    pub(crate) harq: &'a mut HarqEntity,
    pub(crate) flow: &'a mut Flow,
    pub(crate) draws: &'a mut BlerDraws,
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
    let UeLeg { amc, harq, flow, draws } = ue;
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

    let sinr_db = sinr_db + harq.combining_bonus_db(attempts);
    let (u, logit) = draws.next();
    let x = ctx.link.bler_exponent(sinr_db, table, grant.mcs);
    let failed = decide(x, u, logit, || ctx.link.bler(sinr_db, table, grant.mcs));
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
        audit::check(
            Invariant::BlerDecisionExact,
            failed == (u < ctx.link.bler(sinr_db, table, grant.mcs)),
        );
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

#[cfg(test)]
mod tests {
    use super::*;
    use nr_phy::mcs::{McsIndex, McsTable};
    use proptest::prelude::*;
    use radio_channel::link::mcs_sinr_threshold_db;
    use radio_channel::rng::SeedTree;
    use rand::Rng;

    fn logit(u: f64) -> f64 {
        let mut out = [0.0];
        logits(&[u], &mut out);
        out[0]
    }

    /// Decide one draw both ways; panics on a mismatch. Returns whether
    /// the logit comparison (not the exact test) decided.
    fn check(link: &LinkModel, sinr_db: f64, table: McsTable, mcs: McsIndex, u: f64) -> bool {
        let x = link.bler_exponent(sinr_db, table, mcs);
        let mut exact_path = false;
        let got = decide(x, u, logit(u), || {
            exact_path = true;
            link.bler(sinr_db, table, mcs)
        });
        let want = u < link.bler(sinr_db, table, mcs);
        assert_eq!(
            got, want,
            "sinr {sinr_db:e} (x {x:e}), slope {}, {table:?} mcs {}, u {u:e}",
            link.bler_slope_db, mcs.0
        );
        !exact_path
    }

    fn link(slope_db: f64) -> LinkModel {
        LinkModel { bler_slope_db: slope_db, ..LinkModel::midband_qam256() }
    }

    /// `x` moved `k` representable values up (k > 0) or down; finite,
    /// nonzero `x` only.
    fn step_ulps(x: f64, k: i64) -> f64 {
        let away = (k > 0) == (x > 0.0);
        let bits = x.to_bits();
        f64::from_bits(if away { bits + k.unsigned_abs() } else { bits - k.unsigned_abs() })
    }

    /// The SINR whose exponent lands at `x` (up to one rounding).
    fn sinr_at(x: f64, slope_db: f64, table: McsTable, mcs: McsIndex) -> f64 {
        mcs_sinr_threshold_db(table, mcs) + x * slope_db.max(0.05)
    }

    #[test]
    fn decision_matches_the_direct_test_on_adversarial_inputs() {
        let uniforms = [
            0.0,
            f64::EPSILON / 2.0,
            1.0 - f64::EPSILON / 2.0,
            0.5,
            0.1,
            0.9,
            1.1e-7,
            1.0 - 1.1e-7,
            // Logits near 20, 30, −20, −25 and −30: beyond the window,
            // where the rounding of 1 + e^x alone can outweigh the margin.
            2.06e-9,
            9.36e-14,
            1.0 - 2.06e-9,
            1.0 - 1.39e-11,
            1.0 - 9.36e-14,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::MIN_POSITIVE,
        ];
        // 0.01 and 0 sit below the 0.05 dB slope floor.
        let slopes = [1.0, 0.5, 2.5, 0.01, 0.0];
        let grants = [
            (McsTable::Qam256, McsIndex(0)),
            (McsTable::Qam256, McsIndex(20)),
            (McsTable::Qam256, McsIndex(27)),
            (McsTable::Qam64, McsIndex(15)),
            (McsTable::Qam64LowSe, McsIndex(3)),
        ];
        let margin_steps = [0.5, 0.999_999, 1.0, 1.000_001, 2.0, 1e3];
        let (mut fast, mut total) = (0u32, 0u32);
        for &slope in &slopes {
            let link = link(slope);
            for &(table, mcs) in &grants {
                for &u in &uniforms {
                    let mut sinrs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    // |x| just inside and just outside the window.
                    for edge in [LOGIT_WINDOW, -LOGIT_WINDOW] {
                        for k in -3..=3 {
                            sinrs.push(sinr_at(step_ulps(edge, k), slope, table, mcs));
                        }
                        sinrs.push(sinr_at(edge * 1.000_001, slope, table, mcs));
                        sinrs.push(sinr_at(edge * 0.999_999, slope, table, mcs));
                    }
                    // x a few ulp off the draw's logit, and either side of
                    // the margin.
                    let l = logit(u);
                    if l.is_finite() {
                        let at = sinr_at(l, slope, table, mcs);
                        for k in -4..=4 {
                            sinrs.push(step_ulps(at, k));
                        }
                        for m in margin_steps {
                            for side in [-1.0, 1.0] {
                                sinrs.push(sinr_at(l + side * m * LOGIT_MARGIN, slope, table, mcs));
                            }
                        }
                    }
                    for sinr in sinrs {
                        fast += u32::from(check(&link, sinr, table, mcs, u));
                        total += 1;
                    }
                }
            }
        }
        // Both paths were exercised, not only the fallback.
        assert!(fast > 0 && fast < total, "{fast} of {total} decided by the logit");
    }

    proptest! {
        #[test]
        fn decision_matches_the_direct_test_near_the_threshold(
            word in 0u64..u64::MAX,
            offset in -4.0f64..4.0,
            scale_exp in -9i32..1,
            ulps in -6i64..7,
            slope in 0.0f64..3.0,
            mcs in 0u8..28,
        ) {
            let u = rand::f64_in_range(0.0, 1.0, word);
            let link = link(slope);
            let table = McsTable::Qam256;
            let mcs = McsIndex(mcs);
            let l = logit(u);
            prop_assume!(l.is_finite());
            // Offsets from 1e-9 (inside the margin) to 4 (far outside).
            let x = l + offset * 10f64.powi(scale_exp);
            let sinr = step_ulps(sinr_at(x, slope, table, mcs), ulps);
            check(&link, sinr, table, mcs, u);
        }
    }

    #[test]
    fn tile_replays_the_scalar_stream_across_refills() {
        let seeds = SeedTree::new(31);
        for skip in [0usize, 1, 7, 13] {
            let mut rng = seeds.stream("carrier0/bler");
            // Start the tile mid-block, as a stream another label's draws
            // never touch still could be.
            for _ in 0..skip {
                let _: u64 = rng.gen();
            }
            let mut reference = rng.clone();
            let mut draws = BlerDraws::new(rng);
            for i in 0..3 * BLER_TILE + 5 {
                let (u, l) = draws.next();
                let want: f64 = reference.gen();
                assert_eq!(u.to_bits(), want.to_bits(), "skip {skip}, draw {i}");
                assert_eq!(l.to_bits(), logit(want).to_bits(), "skip {skip}, draw {i}");
            }
        }
    }

    #[test]
    fn cloned_tile_continues_identically() {
        let mut a = BlerDraws::new(SeedTree::new(32).stream("carrier0/bler"));
        for _ in 0..BLER_TILE / 2 + 3 {
            a.next();
        }
        let mut b = a.clone();
        for _ in 0..2 * BLER_TILE {
            assert_eq!(a.next().0.to_bits(), b.next().0.to_bits());
        }
    }
}
