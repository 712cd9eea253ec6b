//! CQI tables (TS 38.214 §5.2.2.1) and vendor CQI→MCS mapping policies.
//!
//! The UE periodically reports a channel quality indicator in 1..=15 (15 =
//! best). The gNB chooses the MCS from the CQI — but, as the paper stresses
//! (§3.1), *3GPP leaves the CQI→MCS mapping to vendor implementation*: for
//! the same CQI different vendors pick different MCS indices. This module
//! provides the standardised CQI tables plus a family of parameterised
//! mapping policies so operator profiles can model vendor diversity.

use crate::error::PhyError;
use crate::mcs::{McsIndex, McsTable, Modulation};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A channel quality indicator, 0..=15. CQI 0 means "out of range".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Cqi(u8);

impl Cqi {
    /// Lowest reportable in-range CQI.
    pub const MIN: Cqi = Cqi(1);
    /// Best channel condition.
    pub const MAX: Cqi = Cqi(15);

    /// Construct a CQI, validating the 0..=15 range.
    pub const fn new(value: u8) -> Result<Self, PhyError> {
        if value <= 15 {
            Ok(Cqi(value))
        } else {
            Err(PhyError::InvalidCqi(value))
        }
    }

    /// Construct, clamping into 0..=15.
    pub const fn saturating(value: u8) -> Self {
        if value > 15 {
            Cqi(15)
        } else {
            Cqi(value)
        }
    }

    /// The raw value.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// True when the UE reported "out of range" (CQI 0).
    pub const fn is_out_of_range(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Cqi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CQI{}", self.0)
    }
}

/// Which standardised CQI table the UE reports against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CqiTable {
    /// Table 5.2.2.1-2 — up to 64QAM.
    Table1,
    /// Table 5.2.2.1-3 — up to 256QAM.
    Table2,
}

/// One CQI row: `(modulation, code rate × 1024)`; rate 0 marks CQI 0.
type CqiRow = (Modulation, u16);

/// TS 38.214 Table 5.2.2.1-2 (CQI Table 1, max 64QAM), rows 1..=15.
const CQI_TABLE_1: [CqiRow; 15] = [
    (Modulation::Qpsk, 78),
    (Modulation::Qpsk, 120),
    (Modulation::Qpsk, 193),
    (Modulation::Qpsk, 308),
    (Modulation::Qpsk, 449),
    (Modulation::Qpsk, 602),
    (Modulation::Qam16, 378),
    (Modulation::Qam16, 490),
    (Modulation::Qam16, 616),
    (Modulation::Qam64, 466),
    (Modulation::Qam64, 567),
    (Modulation::Qam64, 666),
    (Modulation::Qam64, 772),
    (Modulation::Qam64, 873),
    (Modulation::Qam64, 948),
];

/// TS 38.214 Table 5.2.2.1-3 (CQI Table 2, max 256QAM), rows 1..=15.
const CQI_TABLE_2: [CqiRow; 15] = [
    (Modulation::Qpsk, 78),
    (Modulation::Qpsk, 193),
    (Modulation::Qpsk, 449),
    (Modulation::Qam16, 378),
    (Modulation::Qam16, 490),
    (Modulation::Qam16, 616),
    (Modulation::Qam64, 466),
    (Modulation::Qam64, 567),
    (Modulation::Qam64, 666),
    (Modulation::Qam64, 772),
    (Modulation::Qam64, 873),
    (Modulation::Qam256, 711),
    (Modulation::Qam256, 797),
    (Modulation::Qam256, 885),
    (Modulation::Qam256, 948),
];

impl CqiTable {
    fn row(self, cqi: Cqi) -> Option<CqiRow> {
        if cqi.is_out_of_range() {
            return None;
        }
        let i = cqi.value() as usize - 1;
        match self {
            CqiTable::Table1 => CQI_TABLE_1.get(i).copied(),
            CqiTable::Table2 => CQI_TABLE_2.get(i).copied(),
        }
    }

    /// Modulation the CQI row prescribes; `None` for CQI 0.
    pub fn modulation(self, cqi: Cqi) -> Option<Modulation> {
        self.row(cqi).map(|(m, _)| m)
    }

    /// Code rate of the CQI row; `None` for CQI 0.
    pub fn code_rate(self, cqi: Cqi) -> Option<f64> {
        self.row(cqi).map(|(_, r)| r as f64 / 1024.0)
    }

    /// Spectral efficiency (bits/symbol) of the CQI row; 0.0 for CQI 0.
    pub fn spectral_efficiency(self, cqi: Cqi) -> f64 {
        self.row(cqi)
            .map(|(m, r)| m.bits_per_symbol() as f64 * r as f64 / 1024.0)
            .unwrap_or(0.0)
    }

    /// The matching MCS table used alongside this CQI table.
    pub const fn companion_mcs_table(self) -> McsTable {
        match self {
            CqiTable::Table1 => McsTable::Qam64,
            CqiTable::Table2 => McsTable::Qam256,
        }
    }
}

/// A vendor CQI→MCS mapping policy.
///
/// The baseline maps a CQI to the highest MCS whose spectral efficiency does
/// not exceed the CQI row's, then applies a vendor-specific index offset
/// (aggressive vendors over-shoot the reported CQI and rely on HARQ;
/// conservative vendors back off to protect BLER). The paper's finding that
/// "for a given CQI value, different vendors may map it to different MCS
/// indices" is modelled by instantiating different offsets per operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CqiToMcsPolicy {
    /// CQI table the UE reports against.
    pub cqi_table: CqiTable,
    /// MCS table the gNB schedules from (must not signal a higher
    /// modulation than the operator's configured maximum).
    pub mcs_table: McsTable,
    /// Signed index offset applied after the SE match; positive =
    /// aggressive, negative = conservative.
    pub index_offset: i8,
}

impl CqiToMcsPolicy {
    /// A neutral policy: SE-matched mapping with no offset.
    pub const fn neutral(cqi_table: CqiTable) -> Self {
        CqiToMcsPolicy {
            cqi_table,
            mcs_table: cqi_table.companion_mcs_table(),
            index_offset: 0,
        }
    }

    /// Map a reported CQI to the scheduled MCS index.
    ///
    /// CQI 0 (out of range) maps to MCS 0 — the gNB still needs a scheme for
    /// control-heavy fallback transmissions.
    pub fn map(&self, cqi: Cqi) -> McsIndex {
        if cqi.is_out_of_range() {
            return McsIndex(0);
        }
        let base = base_index(self.cqi_table, self.mcs_table, cqi);
        let shifted = (base.0 as i16 + self.index_offset as i16)
            .clamp(0, self.mcs_table.max_index().0 as i16);
        McsIndex(shifted as u8)
    }
}

/// The SE-matched base MCS index per [CQI table][MCS table][CQI]. Only
/// 2 × 3 × 16 of them exist, and [`CqiToMcsPolicy::map`] runs on every
/// DL and UL grant: without the table each call rescans the MCS table,
/// one float divide per row.
static BASE_INDEX_LUT: OnceLock<[[[McsIndex; 16]; 3]; 2]> = OnceLock::new();

/// [`McsTable::highest_index_at_or_below`] of the CQI row's spectral
/// efficiency, read from [`BASE_INDEX_LUT`].
fn base_index(cqi_table: CqiTable, mcs_table: McsTable, cqi: Cqi) -> McsIndex {
    let lut = BASE_INDEX_LUT.get_or_init(|| {
        let mut lut = [[[McsIndex(0); 16]; 3]; 2];
        for (c_i, c) in [CqiTable::Table1, CqiTable::Table2].into_iter().enumerate() {
            for (m_i, m) in
                [McsTable::Qam64, McsTable::Qam256, McsTable::Qam64LowSe].into_iter().enumerate()
            {
                for q in 0..16u8 {
                    let target_se = c.spectral_efficiency(Cqi(q));
                    lut[c_i][m_i][q as usize] = m.highest_index_at_or_below(target_se);
                }
            }
        }
        lut
    });
    let c_i = match cqi_table {
        CqiTable::Table1 => 0,
        CqiTable::Table2 => 1,
    };
    let m_i = match mcs_table {
        McsTable::Qam64 => 0,
        McsTable::Qam256 => 1,
        McsTable::Qam64LowSe => 2,
    };
    lut[c_i][m_i][cqi.0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqi_range_enforced() {
        assert!(Cqi::new(15).is_ok());
        assert!(Cqi::new(16).is_err());
        assert_eq!(Cqi::saturating(99), Cqi::MAX);
        assert!(Cqi::new(0).unwrap().is_out_of_range());
    }

    #[test]
    fn table2_tops_out_at_256qam_rate_948() {
        assert_eq!(CqiTable::Table2.modulation(Cqi::MAX), Some(Modulation::Qam256));
        assert!((CqiTable::Table2.code_rate(Cqi::MAX).unwrap() - 948.0 / 1024.0).abs() < 1e-12);
        // CQI 12 is the first 256QAM row — the paper's "good channel" filter
        // (CQI ≥ 12) is exactly the 256QAM region of Table 2.
        assert_eq!(CqiTable::Table2.modulation(Cqi::new(12).unwrap()), Some(Modulation::Qam256));
        assert_eq!(CqiTable::Table2.modulation(Cqi::new(11).unwrap()), Some(Modulation::Qam64));
    }

    #[test]
    fn table1_tops_out_at_64qam() {
        assert_eq!(CqiTable::Table1.modulation(Cqi::MAX), Some(Modulation::Qam64));
    }

    #[test]
    fn spectral_efficiency_monotone_in_cqi() {
        for table in [CqiTable::Table1, CqiTable::Table2] {
            let mut prev = 0.0;
            for c in 1..=15 {
                let se = table.spectral_efficiency(Cqi::new(c).unwrap());
                assert!(se > prev, "{table:?} CQI {c}");
                prev = se;
            }
        }
    }

    #[test]
    fn neutral_policy_never_exceeds_cqi_se() {
        for table in [CqiTable::Table1, CqiTable::Table2] {
            let policy = CqiToMcsPolicy::neutral(table);
            for c in 1..=15u8 {
                let cqi = Cqi::new(c).unwrap();
                let mcs = policy.map(cqi);
                let mcs_se = policy.mcs_table.spectral_efficiency(mcs).unwrap();
                let cqi_se = table.spectral_efficiency(cqi);
                assert!(
                    mcs_se <= cqi_se + 1e-12 || mcs == McsIndex(0),
                    "{table:?} CQI {c}: MCS SE {mcs_se} > CQI SE {cqi_se}"
                );
            }
        }
    }

    #[test]
    fn vendor_offsets_shift_the_mapping() {
        let neutral = CqiToMcsPolicy::neutral(CqiTable::Table2);
        let aggressive = CqiToMcsPolicy { index_offset: 2, ..neutral };
        let conservative = CqiToMcsPolicy { index_offset: -2, ..neutral };
        let cqi = Cqi::new(9).unwrap();
        assert_eq!(aggressive.map(cqi).0, neutral.map(cqi).0 + 2);
        assert_eq!(conservative.map(cqi).0, neutral.map(cqi).0 - 2);
        // Offsets clamp at the table edges.
        assert_eq!(aggressive.map(Cqi::MAX), McsTable::Qam256.max_index());
        assert_eq!(conservative.map(Cqi::new(1).unwrap()), McsIndex(0));
    }

    #[test]
    fn map_matches_the_table_scan() {
        // The lookup table against the computation it caches, over every
        // policy the types admit in the offsets' working range.
        for cqi_table in [CqiTable::Table1, CqiTable::Table2] {
            for mcs_table in [McsTable::Qam64, McsTable::Qam256, McsTable::Qam64LowSe] {
                for index_offset in -31..=31i8 {
                    let policy = CqiToMcsPolicy { cqi_table, mcs_table, index_offset };
                    for c in 0..=15u8 {
                        let cqi = Cqi::new(c).unwrap();
                        let want = if cqi.is_out_of_range() {
                            McsIndex(0)
                        } else {
                            let target_se = cqi_table.spectral_efficiency(cqi);
                            let base = mcs_table.highest_index_at_or_below(target_se);
                            let shifted = (base.0 as i16 + index_offset as i16)
                                .clamp(0, mcs_table.max_index().0 as i16);
                            McsIndex(shifted as u8)
                        };
                        assert_eq!(policy.map(cqi), want, "{policy:?} CQI {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn policy_can_cap_modulation_below_cqi_table() {
        // O_Sp's 100 MHz channel reports CQI on Table 2 but schedules from
        // the 64QAM MCS table (the paper's §4.1 max-modulation finding).
        let capped = CqiToMcsPolicy {
            cqi_table: CqiTable::Table2,
            mcs_table: McsTable::Qam64,
            index_offset: 0,
        };
        let mcs = capped.map(Cqi::MAX);
        assert_eq!(capped.mcs_table.modulation(mcs).unwrap(), Modulation::Qam64);
    }
}
