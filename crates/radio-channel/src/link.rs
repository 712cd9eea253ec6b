//! Link-level abstractions: SINR → CQI, per-MCS BLER, and rank selection.
//!
//! This module is the UE side of the adaptation loop in the paper's
//! Fig. 21: from a post-equalisation SINR it derives the CSI content (CQI
//! and RI), and from a scheduled MCS + SINR it decides whether the
//! transport block decodes (BLER) — the quantity behind the paper's
//! Fig. 11 latency split.

use nr_phy::cqi::{Cqi, CqiTable};
use nr_phy::mcs::{McsIndex, McsTable};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Implementation loss applied to Shannon capacity when mapping SINR to a
/// supportable spectral efficiency: `SE = α · log2(1 + SINR)`. α ≈ 0.75 is
/// the standard system-level calibration for NR link abstraction.
pub const SHANNON_ALPHA: f64 = 0.75;

/// The α used for the *decode* threshold. The CQI definition already embeds
/// margin — a UE reports the CQI it can receive at ≤10% BLER — so the SINR
/// at which an MCS actually reaches 50% BLER sits below the SINR that
/// produced the matching CQI. Using a slightly larger α for the decode
/// threshold (0.85 > 0.75) reproduces that built-in margin: scheduling the
/// CQI-matched MCS yields ≈5–15% BLER, the NR operating point.
pub const SHANNON_ALPHA_DECODE: f64 = 0.85;

/// The 15 spectral-efficiency rows of a CQI table, hoisted so a scan does
/// not re-derive each row from (modulation, code-rate) fifteen times.
fn cqi_se_rows(table: CqiTable) -> [f64; 15] {
    let mut rows = [0.0; 15];
    for (i, row) in rows.iter_mut().enumerate() {
        *row = table.spectral_efficiency(Cqi::saturating(i as u8 + 1));
    }
    rows
}

/// The largest CQI whose row the supportable spectral efficiency covers —
/// the scan shared by the scalar and batched entry points, so both pick
/// boundary cases identically.
fn cqi_for_se(se: f64, rows: &[f64; 15]) -> Cqi {
    let mut best = 0u8;
    for (i, &row_se) in rows.iter().enumerate() {
        if row_se <= se {
            best = i as u8 + 1;
        }
    }
    Cqi::saturating(best)
}

/// Map a linear-domain capacity estimate to the largest CQI whose spectral
/// efficiency the channel supports.
pub fn sinr_to_cqi(sinr_db: f64, table: CqiTable) -> Cqi {
    cqi_for_se(vmath::shannon_se(sinr_db, SHANNON_ALPHA), &cqi_se_rows(table))
}

/// Batched [`sinr_to_cqi`]: one vectorised Shannon-capacity evaluation per
/// chunk of SINRs, then the shared table scan per element. Bit-identical
/// to calling the scalar function per element for *every* input bit
/// pattern (the SIMD spectral-efficiency kernel is lane-exact; see the
/// `vmath` equivalence contract).
pub fn sinr_to_cqi_batch(sinr_db: &[f64], table: CqiTable, out: &mut [Cqi]) {
    assert_eq!(sinr_db.len(), out.len(), "input/output length mismatch");
    let rows = cqi_se_rows(table);
    let mut se_buf = [0.0f64; 64];
    for (chunk, out_chunk) in sinr_db.chunks(64).zip(out.chunks_mut(64)) {
        let se = &mut se_buf[..chunk.len()];
        vmath::shannon_se_slice(chunk, SHANNON_ALPHA, se);
        for (o, &s) in out_chunk.iter_mut().zip(se.iter()) {
            *o = cqi_for_se(s, &rows);
        }
    }
}

/// Lazily filled decode-threshold cache, tables × MCS indices 0..32. The
/// threshold is a pure function of the (table, index) pair, and the BLER
/// waterfall sits on the per-slot transmit path — it should not pay an
/// `exp2` + `log10` chain on every transport block.
static MCS_THRESHOLD_LUT: OnceLock<[[f64; 32]; 3]> = OnceLock::new();

/// The computation behind [`mcs_sinr_threshold_db`], evaluated directly.
fn mcs_threshold_direct(table: McsTable, mcs: McsIndex) -> f64 {
    let se = table.spectral_efficiency(mcs).unwrap_or(0.0);
    let sinr = (vmath::exp2(se / SHANNON_ALPHA_DECODE) - 1.0).max(1e-9);
    10.0 * vmath::log10(sinr)
}

/// SINR (dB) threshold at which an MCS decodes with 50% BLER: the SINR
/// whose [`SHANNON_ALPHA_DECODE`]-scaled capacity equals the MCS spectral
/// efficiency.
pub fn mcs_sinr_threshold_db(table: McsTable, mcs: McsIndex) -> f64 {
    if mcs.0 >= 32 {
        // Reserved/retransmission indices fall outside the cache; they
        // resolve through the same `unwrap_or(0.0)` arm either way.
        return mcs_threshold_direct(table, mcs);
    }
    let lut = MCS_THRESHOLD_LUT.get_or_init(|| {
        let mut lut = [[0.0; 32]; 3];
        let tables = [McsTable::Qam64, McsTable::Qam256, McsTable::Qam64LowSe];
        for (t_i, t) in tables.iter().enumerate() {
            for m in 0..32u8 {
                lut[t_i][m as usize] = mcs_threshold_direct(*t, McsIndex(m));
            }
        }
        lut
    });
    let t_i = match table {
        McsTable::Qam64 => 0,
        McsTable::Qam256 => 1,
        McsTable::Qam64LowSe => 2,
    };
    lut[t_i][mcs.0 as usize]
}

/// The exponent x of the [`bler`] logistic, `BLER = 1 / (1 + e^x)`: the
/// SINR's distance above the MCS threshold in units of the slope (floored
/// at 0.05 dB). A draw `u` fails exactly when `x < ln((1 − u) / u)`, which
/// lets a caller decide against a precomputed logit instead of paying the
/// `exp` per transport block; [`bler`] evaluates this same expression.
#[inline]
pub fn bler_exponent(sinr_db: f64, table: McsTable, mcs: McsIndex, slope_db: f64) -> f64 {
    (sinr_db - mcs_sinr_threshold_db(table, mcs)) / slope_db.max(0.05)
}

/// Block error rate of an MCS at a given SINR: a logistic waterfall curve
/// centred on [`mcs_sinr_threshold_db`] with slope `s` dB (LDPC waterfalls
/// at mid-band block lengths are ≈ 1 dB wide).
pub fn bler(sinr_db: f64, table: McsTable, mcs: McsIndex, slope_db: f64) -> f64 {
    1.0 / (1.0 + vmath::exp(bler_exponent(sinr_db, table, mcs, slope_db)))
}

/// Rank-selection profile: SINR thresholds (dB) above which the UE reports
/// rank ≥ 2, ≥ 3, ≥ 4. The offsets differ per deployment because rank
/// depends on scattering richness and antenna geometry — the knob that
/// lets operator profiles reproduce the paper's Fig. 6 rank distributions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankProfile {
    /// SINR above which 2 layers are sustainable.
    pub rank2_db: f64,
    /// SINR above which 3 layers are sustainable.
    pub rank3_db: f64,
    /// SINR above which 4 layers are sustainable.
    pub rank4_db: f64,
    /// Hysteresis in dB to avoid rank ping-pong at the boundaries.
    pub hysteresis_db: f64,
}

impl Default for RankProfile {
    fn default() -> Self {
        // Calibrated so a dense urban deployment (median SINR ~22 dB)
        // reports rank 4 most of the time, as Vodafone Spain does (87.1%).
        RankProfile { rank2_db: 5.0, rank3_db: 11.0, rank4_db: 17.0, hysteresis_db: 1.0 }
    }
}

impl RankProfile {
    /// Rank for an SINR, given the previous rank (hysteresis).
    pub fn rank(&self, sinr_db: f64, previous: u8) -> u8 {
        let h = |boundary: f64, up: bool| {
            if up {
                boundary + self.hysteresis_db
            } else {
                boundary - self.hysteresis_db
            }
        };
        let mut rank = previous.clamp(1, 4);
        // Climb while above the next boundary (+hysteresis).
        while rank < 4 {
            let boundary = match rank {
                1 => self.rank2_db,
                2 => self.rank3_db,
                _ => self.rank4_db,
            };
            if sinr_db > h(boundary, true) {
                rank += 1;
            } else {
                break;
            }
        }
        // Fall while below the current boundary (−hysteresis).
        while rank > 1 {
            let boundary = match rank {
                2 => self.rank2_db,
                3 => self.rank3_db,
                _ => self.rank4_db,
            };
            if sinr_db < h(boundary, false) {
                rank -= 1;
            } else {
                break;
            }
        }
        rank
    }
}

/// Bundle of the link-model parameters a cell applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// CQI table the UE reports against.
    pub cqi_table: CqiTable,
    /// Rank selection profile.
    pub rank_profile: RankProfile,
    /// BLER waterfall slope, dB.
    pub bler_slope_db: f64,
}

impl LinkModel {
    /// Defaults for a 256QAM-capable mid-band cell.
    pub fn midband_qam256() -> Self {
        LinkModel {
            cqi_table: CqiTable::Table2,
            rank_profile: RankProfile::default(),
            bler_slope_db: 1.0,
        }
    }

    /// CQI the UE would report at an SINR.
    pub fn cqi(&self, sinr_db: f64) -> Cqi {
        sinr_to_cqi(sinr_db, self.cqi_table)
    }

    /// Batched [`LinkModel::cqi`] over a slice of SINRs — the multi-UE
    /// slot engine computes all CSI-slot reports of a cell in one call.
    /// Bit-identical to the scalar method per element.
    pub fn cqi_batch(&self, sinr_db: &[f64], out: &mut [Cqi]) {
        sinr_to_cqi_batch(sinr_db, self.cqi_table, out)
    }

    /// Rank the UE would report.
    pub fn rank(&self, sinr_db: f64, previous: u8) -> u8 {
        self.rank_profile.rank(sinr_db, previous)
    }

    /// BLER of a scheduled MCS at an SINR. Transmissions above rank 1
    /// split power across layers; each extra layer costs
    /// `10·log10(layers)` dB of per-layer SINR, which the caller is
    /// expected to have applied already if it models per-layer detection.
    pub fn bler(&self, sinr_db: f64, table: McsTable, mcs: McsIndex) -> f64 {
        bler(sinr_db, table, mcs, self.bler_slope_db)
    }

    /// The exponent of [`LinkModel::bler`]'s logistic ([`bler_exponent`]).
    #[inline]
    pub fn bler_exponent(&self, sinr_db: f64, table: McsTable, mcs: McsIndex) -> f64 {
        bler_exponent(sinr_db, table, mcs, self.bler_slope_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqi_monotone_in_sinr() {
        let mut prev = 0;
        for sinr in [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0] {
            let c = sinr_to_cqi(sinr, CqiTable::Table2).value();
            assert!(c >= prev, "sinr {sinr}: {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn cqi_endpoints() {
        assert!(sinr_to_cqi(-20.0, CqiTable::Table2).is_out_of_range());
        assert_eq!(sinr_to_cqi(40.0, CqiTable::Table2), Cqi::MAX);
        // CQI 12 (first 256QAM row of Table 2, the paper's "good channel"
        // boundary) needs roughly 20 dB.
        let c = sinr_to_cqi(21.0, CqiTable::Table2);
        assert!(c.value() >= 11 && c.value() <= 13, "cqi {c}");
    }

    #[test]
    fn bler_waterfall_shape() {
        let t = McsTable::Qam256;
        let m = McsIndex(20);
        let thr = mcs_sinr_threshold_db(t, m);
        assert!((bler(thr, t, m, 1.0) - 0.5).abs() < 1e-9);
        assert!(bler(thr + 3.0, t, m, 1.0) < 0.05);
        assert!(bler(thr - 3.0, t, m, 1.0) > 0.95);
        // Higher MCS needs higher SINR.
        assert!(mcs_sinr_threshold_db(t, McsIndex(27)) > mcs_sinr_threshold_db(t, McsIndex(5)));
    }

    #[test]
    fn bler_monotone_decreasing_in_sinr() {
        let t = McsTable::Qam64;
        let m = McsIndex(15);
        let mut prev = 1.0;
        for sinr in (-10..40).map(|s| s as f64) {
            let b = bler(sinr, t, m, 1.0);
            assert!(b <= prev);
            prev = b;
        }
    }

    #[test]
    fn rank_thresholds() {
        let p = RankProfile::default();
        assert_eq!(p.rank(0.0, 1), 1);
        assert_eq!(p.rank(8.0, 1), 2);
        assert_eq!(p.rank(14.0, 1), 3);
        assert_eq!(p.rank(25.0, 1), 4);
    }

    #[test]
    fn rank_hysteresis_prevents_pingpong() {
        let p = RankProfile::default();
        // Just below the rank-4 boundary, a UE already at rank 4 stays.
        assert_eq!(p.rank(16.5, 4), 4);
        // A UE at rank 3 does not climb for the same SINR.
        assert_eq!(p.rank(16.5, 3), 3);
        // Far below, everyone falls.
        assert_eq!(p.rank(3.0, 4), 1);
    }

    #[test]
    fn batched_cqi_bit_identical_to_scalar() {
        // Ragged lengths straddling the 64-wide chunk, plus non-finite
        // inputs: the batch must agree with the scalar path element-wise.
        for table in [CqiTable::Table1, CqiTable::Table2] {
            for n in [0usize, 1, 3, 63, 64, 65, 130] {
                let sinrs: Vec<f64> = (0..n)
                    .map(|i| match i % 5 {
                        0 => -25.0 + i as f64 * 0.7,
                        1 => f64::NAN,
                        2 => f64::INFINITY,
                        3 => f64::NEG_INFINITY,
                        _ => (i as f64 - 40.0) * 0.9,
                    })
                    .collect();
                let mut out = vec![Cqi::saturating(0); n];
                sinr_to_cqi_batch(&sinrs, table, &mut out);
                for (i, (&s, &got)) in sinrs.iter().zip(out.iter()).enumerate() {
                    assert_eq!(got, sinr_to_cqi(s, table), "{table:?} n={n} i={i} sinr={s}");
                }
            }
        }
    }

    #[test]
    fn threshold_lut_matches_direct_evaluation() {
        // The OnceLock cache holds exactly what the direct formula yields,
        // including reserved indices beyond the table (SE treated as 0).
        for table in [McsTable::Qam64, McsTable::Qam256, McsTable::Qam64LowSe] {
            for m in 0..40u8 {
                assert_eq!(
                    mcs_sinr_threshold_db(table, McsIndex(m)).to_bits(),
                    mcs_threshold_direct(table, McsIndex(m)).to_bits(),
                    "{table:?} mcs {m}"
                );
            }
        }
    }

    #[test]
    fn cqi_to_mcs_chain_is_self_consistent() {
        // Scheduling exactly the MCS the CQI implies should decode with low
        // BLER at the SINR that produced the CQI (the α-margin guarantees
        // it for most of the range).
        let link = LinkModel::midband_qam256();
        for sinr in [8.0, 12.0, 16.0, 22.0, 28.0] {
            let cqi = link.cqi(sinr);
            let policy = nr_phy::cqi::CqiToMcsPolicy::neutral(CqiTable::Table2);
            let mcs = policy.map(cqi);
            let b = link.bler(sinr, McsTable::Qam256, mcs);
            assert!(b < 0.35, "sinr {sinr}: cqi {cqi} mcs {} bler {b}", mcs.0);
        }
    }
}
