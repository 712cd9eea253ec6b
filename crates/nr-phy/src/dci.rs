//! Downlink control information (TS 38.212 §7.3.1).
//!
//! Each scheduled slot carries a DCI telling the UE which RBs it owns, the
//! MCS index, the MIMO layer count, and HARQ bookkeeping. The paper's
//! Appendix 10.2 (Fig. 21) describes this signalling loop; its §3.1 notes
//! that the DCI *format* selects the MCS table: format 1_1 allows 256QAM,
//! format 1_0 falls back to 64QAM when channel conditions worsen.

use crate::harq::RedundancyVersion;
use crate::mcs::{McsIndex, McsTable};
use crate::resource::RbAllocation;
use serde::{Deserialize, Serialize};

/// DCI formats relevant to data scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DciFormat {
    /// Fallback DL assignment — fixed fields, 64QAM MCS table.
    Dl1_0,
    /// Full-featured DL assignment — supports 256QAM, multi-layer MIMO.
    Dl1_1,
    /// Fallback UL grant.
    Ul0_0,
    /// Full-featured UL grant.
    Ul0_1,
}

impl DciFormat {
    /// The MCS table this format can signal when the cell is configured for
    /// 256QAM: fallback formats are pinned to the 64QAM table (the
    /// mechanism the paper cites from \[41\]).
    pub const fn effective_mcs_table(self, configured: McsTable) -> McsTable {
        match self {
            DciFormat::Dl1_0 | DciFormat::Ul0_0 => McsTable::Qam64,
            DciFormat::Dl1_1 | DciFormat::Ul0_1 => configured,
        }
    }

    /// Maximum MIMO layers the format can assign (fallback = 1).
    pub const fn max_layers(self) -> u8 {
        match self {
            DciFormat::Dl1_0 | DciFormat::Ul0_0 => 1,
            DciFormat::Dl1_1 | DciFormat::Ul0_1 => 4,
        }
    }
}

/// A decoded scheduling assignment for one slot — the record an XCAL-class
/// tool logs per slot and the unit our RAN simulator emits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dci {
    /// Which format carried the grant.
    pub format: DciFormat,
    /// Frequency-domain allocation.
    pub allocation: RbAllocation,
    /// MCS index within [`Self::mcs_table`].
    pub mcs: McsIndex,
    /// The MCS table in force for this grant.
    pub mcs_table: McsTable,
    /// Number of MIMO layers ν.
    pub layers: u8,
    /// HARQ process number (0..=15).
    pub harq_id: u8,
    /// New-data indicator: toggled for fresh transport blocks.
    pub new_data: bool,
    /// Redundancy version of this (re)transmission.
    pub rv: RedundancyVersion,
}

impl Dci {
    /// Transport block size (bits) implied by this grant.
    pub fn tbs_bits(&self) -> u32 {
        crate::tbs::transport_block_size(&self.allocation, self.mcs_table, self.mcs, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_format_pins_64qam() {
        assert_eq!(DciFormat::Dl1_0.effective_mcs_table(McsTable::Qam256), McsTable::Qam64);
        assert_eq!(DciFormat::Dl1_1.effective_mcs_table(McsTable::Qam256), McsTable::Qam256);
        assert_eq!(DciFormat::Dl1_1.effective_mcs_table(McsTable::Qam64), McsTable::Qam64);
    }

    #[test]
    fn fallback_format_single_layer() {
        assert_eq!(DciFormat::Dl1_0.max_layers(), 1);
        assert_eq!(DciFormat::Dl1_1.max_layers(), 4);
    }

    #[test]
    fn dci_tbs_consistency() {
        let dci = Dci {
            format: DciFormat::Dl1_1,
            allocation: RbAllocation::full_slot(245),
            mcs: McsIndex(27),
            mcs_table: McsTable::Qam256,
            layers: 4,
            harq_id: 3,
            new_data: true,
            rv: RedundancyVersion::Rv0,
        };
        assert_eq!(
            dci.tbs_bits(),
            crate::tbs::transport_block_size(
                &RbAllocation::full_slot(245),
                McsTable::Qam256,
                McsIndex(27),
                4
            )
        );
        assert!(dci.tbs_bits() > 0);
    }
}
