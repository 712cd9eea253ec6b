//! RB allocation per slot.
//!
//! The paper observes (§4.1, Fig. 4) that during saturating transfers every
//! operator allocates close to the maximum RBs to the measuring UE — so the
//! single-UE scheduler is a full-allocation scheduler. Overheads are where
//! real deployments differ from naive accounting: 1 PDCCH symbol, 2-symbol
//! DM-RS (24 REs) and ~1 symbol's worth of CSI-RS/TRS overhead per PRB.
//! With several UEs ([`crate::cell::CellSim`]) the cell's RB budget is
//! split into integer grants per the configured policy, which is how
//! Fig. 14's "RBs halve with two active users" arises.

use crate::config::CellConfig;
use nr_phy::resource::RbAllocation;
use obs::audit::{self, Invariant};
use serde::{Deserialize, Serialize};

/// DM-RS REs per PRB for the 2-symbol type-A mapping used at rank 3–4.
pub const DMRS_RE_PER_PRB: u16 = 24;

/// Other overhead REs per PRB (CSI-RS, TRS, PT-RS budget).
pub const OVERHEAD_RE_PER_PRB: u16 = 12;

/// PDCCH control symbols at the head of a DL slot.
pub const PDCCH_SYMBOLS: u8 = 1;

/// How a cell splits RBs among active UEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Equal instantaneous share of PRBs every slot (frequency-domain
    /// round-robin; what Fig. 14's RB counts show).
    EqualShare,
    /// Time-domain round-robin: one UE owns the whole slot, rotating.
    RoundRobinSlots,
    /// Max-CQI: the whole slot goes to the UE with the best reported CQI
    /// (first index wins ties). The throughput-maximising, fairness-free
    /// comparison policy.
    MaxCqi,
    /// Proportional fair: slot goes to the UE maximising instantaneous
    /// rate / long-term average rate.
    ProportionalFair,
}

/// DL allocation of exactly `n_prb` PRBs in this slot; `None` when the
/// slot carries no DL symbols or the grant is empty. This is the cell
/// scheduler's primitive: per-UE integer grants that sum to at most the
/// RB budget ([`split_prbs`]).
pub fn dl_allocation_prbs(cfg: &CellConfig, slot: u64, n_prb: u16) -> Option<RbAllocation> {
    let symbols = cfg.dl_symbols(slot);
    if symbols == 0 || n_prb == 0 {
        return None;
    }
    if audit::enabled() {
        audit::check(Invariant::RbWithinCarrier, n_prb <= cfg.n_rb);
    }
    Some(RbAllocation {
        n_prb,
        n_symbols: symbols.saturating_sub(PDCCH_SYMBOLS),
        dmrs_re_per_prb: DMRS_RE_PER_PRB,
        overhead_re_per_prb: OVERHEAD_RE_PER_PRB,
    })
}

/// UL allocation of exactly `n_prb` PRBs in this slot; `None` when the
/// slot carries no UL symbols or the grant is empty.
pub fn ul_allocation_prbs(cfg: &CellConfig, slot: u64, n_prb: u16) -> Option<RbAllocation> {
    let symbols = cfg.ul_symbols(slot);
    if symbols == 0 || n_prb == 0 {
        return None;
    }
    if audit::enabled() {
        audit::check(Invariant::RbWithinCarrier, n_prb <= cfg.n_rb);
    }
    Some(RbAllocation {
        n_prb,
        n_symbols: symbols, // no PDCCH inside UL symbols
        dmrs_re_per_prb: 12,
        overhead_re_per_prb: 0,
    })
}

/// The cell's UL PRB budget: the carrier scaled by `ul_rb_fraction`
/// (operators reserving UL RBs), at least 1 PRB.
pub fn ul_prb_budget(cfg: &CellConfig) -> u16 {
    ((cfg.n_rb as f64 * cfg.ul_rb_fraction.clamp(0.0, 1.0)).round() as u16).clamp(1, cfg.n_rb)
}

/// The PRBs granted to the UE at `rank` (0-based) when `budget` PRBs are
/// split equally across `k` UEs: everyone gets `budget / k`, and the
/// `budget % k` leftover PRBs rotate through the ranks with `slot` so no
/// fixed subset is systematically favoured. The grants of one slot sum to
/// exactly `budget` — never more — for any `k ≥ 1`, which is the
/// RB-conservation law `ran/tests/cell_props.rs` pins down. With
/// `k > budget`, only the `budget` ranks nearest the rotation point get a
/// (1-PRB) grant.
pub fn split_prbs(budget: u16, k: usize, rank: usize, slot: u64) -> u16 {
    if k == 0 {
        return 0;
    }
    // In `usize`: a UE count past `u16::MAX` must not wrap the divisor.
    // A grant never exceeds `budget`, so it narrows back losslessly.
    let budget = usize::from(budget);
    let base = budget / k;
    let rem = budget % k;
    let rotated = (rank + (slot as usize % k)) % k;
    (base + usize::from(rotated < rem)) as u16
}

/// DL allocation for a UE holding `share` (0..=1] of the carrier in this
/// slot; `None` when the slot carries no DL symbols.
pub fn dl_allocation(cfg: &CellConfig, slot: u64, share: f64) -> Option<RbAllocation> {
    let n_prb = ((cfg.n_rb as f64 * share).round() as u16).clamp(1, cfg.n_rb);
    dl_allocation_prbs(cfg, slot, n_prb)
}

/// UL allocation for a UE holding `share` of the carrier's UL RBs this
/// slot; `None` when the slot carries no UL symbols. The cell-level
/// `ul_rb_fraction` (operators reserving UL RBs) is applied on top.
pub fn ul_allocation(cfg: &CellConfig, slot: u64, share: f64) -> Option<RbAllocation> {
    let frac = (cfg.ul_rb_fraction * share).clamp(0.0, 1.0);
    let n_prb = ((cfg.n_rb as f64 * frac).round() as u16).clamp(1, cfg.n_rb);
    ul_allocation_prbs(cfg, slot, n_prb)
}

/// Precomputed per-TDD-cycle allocations for one (cell, share) pair.
///
/// [`dl_allocation`]/[`ul_allocation`] are pure functions of
/// `(cfg, slot % pattern_len, share)` — the TDD pattern repeats every
/// `pattern_len` slots (period 1 for FDD) — so a [`crate::carrier::Carrier`]
/// computes one cycle up front and indexes per slot instead of re-deriving
/// symbol counts and PRB rounding 2000 times a second. Lookups for a
/// different share than the table was built for (a carrier granted a
/// fraction of a loaded cell) fall through to the direct computation,
/// which is allocation-free either way.
#[derive(Debug, Clone)]
pub struct AllocationTable {
    period: u64,
    dl_share: f64,
    ul_share: f64,
    dl: Vec<Option<RbAllocation>>,
    ul: Vec<Option<RbAllocation>>,
}

impl AllocationTable {
    /// Precompute one TDD cycle of DL/UL allocations at the given shares.
    pub fn new(cfg: &CellConfig, dl_share: f64, ul_share: f64) -> Self {
        let period = cfg.tdd.as_ref().map(|p| p.len() as u64).unwrap_or(1).max(1);
        AllocationTable {
            period,
            dl_share,
            ul_share,
            dl: (0..period).map(|s| dl_allocation(cfg, s, dl_share)).collect(),
            ul: (0..period).map(|s| ul_allocation(cfg, s, ul_share)).collect(),
        }
    }

    /// DL allocation for `slot`, bit-identical to
    /// `dl_allocation(cfg, slot, share)`.
    pub fn dl(&self, cfg: &CellConfig, slot: u64, share: f64) -> Option<RbAllocation> {
        if share == self.dl_share {
            self.dl[(slot % self.period) as usize]
        } else {
            dl_allocation(cfg, slot, share)
        }
    }

    /// UL allocation for `slot`, bit-identical to
    /// `ul_allocation(cfg, slot, share)`.
    pub fn ul(&self, cfg: &CellConfig, slot: u64, share: f64) -> Option<RbAllocation> {
        if share == self.ul_share {
            self.ul[(slot % self.period) as usize]
        } else {
            ul_allocation(cfg, slot, share)
        }
    }

    /// Whether `slot` carries any UL symbols (share-independent: presence
    /// only depends on the pattern's symbol counts).
    pub fn has_ul(&self, slot: u64) -> bool {
        self.ul[(slot % self.period) as usize].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellConfig {
        CellConfig::midband(90, "DDDSU")
    }

    #[test]
    fn full_share_allocates_all_rbs() {
        let a = dl_allocation(&cell(), 0, 1.0).unwrap();
        assert_eq!(a.n_prb, 245);
        assert_eq!(a.n_symbols, 13);
        // 12·13 − 24 − 12 = 120 data REs per PRB.
        assert_eq!(a.re_per_prb(), 120);
    }

    #[test]
    fn half_share_halves_prbs() {
        let a = dl_allocation(&cell(), 0, 0.5).unwrap();
        assert_eq!(a.n_prb, 123); // round(245/2)
    }

    #[test]
    fn ul_slot_has_no_dl_allocation() {
        assert!(dl_allocation(&cell(), 4, 1.0).is_none());
        assert!(ul_allocation(&cell(), 4, 1.0).is_some());
        assert!(ul_allocation(&cell(), 0, 1.0).is_none());
    }

    #[test]
    fn special_slot_shrinks_symbols() {
        let a = dl_allocation(&cell(), 3, 1.0).unwrap();
        assert_eq!(a.n_symbols, 9); // 10 DL symbols − 1 PDCCH
        let u = ul_allocation(&cell(), 3, 1.0).unwrap();
        assert_eq!(u.n_symbols, 2);
    }

    #[test]
    fn ul_rb_fraction_applies() {
        let mut c = cell();
        c.ul_rb_fraction = 0.4;
        let a = ul_allocation(&c, 4, 1.0).unwrap();
        assert_eq!(a.n_prb, 98); // round(245·0.4)
    }

    #[test]
    fn allocation_never_zero_prbs() {
        let a = dl_allocation(&cell(), 0, 0.0001).unwrap();
        assert_eq!(a.n_prb, 1);
    }

    #[test]
    fn allocation_table_matches_direct_computation() {
        let mut tdd = cell();
        tdd.ul_rb_fraction = 0.6;
        let fdd = {
            use nr_phy::band::Band;
            use nr_phy::numerology::Numerology;
            CellConfig::fdd(Band::N25, 20, Numerology::Mu0)
        };
        for cfg in [&tdd, &fdd] {
            let table = AllocationTable::new(cfg, 1.0, 1.0);
            for slot in 0..40u64 {
                assert_eq!(table.dl(cfg, slot, 1.0), dl_allocation(cfg, slot, 1.0));
                assert_eq!(table.ul(cfg, slot, 1.0), ul_allocation(cfg, slot, 1.0));
                assert_eq!(table.has_ul(slot), cfg.ul_symbols(slot) > 0);
                // Off-table shares fall through to the direct path.
                assert_eq!(table.dl(cfg, slot, 0.5), dl_allocation(cfg, slot, 0.5));
                assert_eq!(table.ul(cfg, slot, 0.25), ul_allocation(cfg, slot, 0.25));
            }
        }
    }
}
