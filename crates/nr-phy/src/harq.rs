//! HARQ redundancy versions (TS 38.214 §5.1, TS 38.321 §5.4.2).
//!
//! NR retransmits failed transport blocks with incremental redundancy. Each
//! retransmission raises the PHY user-plane latency by at least one HARQ
//! round trip — the paper's Figure 11 splits latency into BLER = 0 (no
//! retransmission) and BLER > 0 (≥ 1 retransmission) for exactly this
//! reason. This module holds the redundancy-version sequence a
//! [`crate::Dci`] signals; the HARQ processes the slot loop runs live in
//! the `ran` crate's `harq` module.

use serde::{Deserialize, Serialize};

/// Redundancy versions, cycled in the standard 0→2→3→1 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RedundancyVersion {
    /// Initial transmission.
    Rv0,
    /// First retransmission.
    Rv2,
    /// Second retransmission.
    Rv3,
    /// Third retransmission.
    Rv1,
}

impl RedundancyVersion {
    /// The standard RV cycling sequence.
    pub const SEQUENCE: [RedundancyVersion; 4] = [
        RedundancyVersion::Rv0,
        RedundancyVersion::Rv2,
        RedundancyVersion::Rv3,
        RedundancyVersion::Rv1,
    ];

    /// RV for the `n`-th transmission attempt (0-based; wraps after 4).
    pub const fn for_attempt(n: u8) -> Self {
        Self::SEQUENCE[(n % 4) as usize]
    }

    /// The 2-bit RV field value.
    pub const fn field_value(self) -> u8 {
        match self {
            RedundancyVersion::Rv0 => 0,
            RedundancyVersion::Rv1 => 1,
            RedundancyVersion::Rv2 => 2,
            RedundancyVersion::Rv3 => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rv_sequence_is_0231() {
        assert_eq!(RedundancyVersion::for_attempt(0).field_value(), 0);
        assert_eq!(RedundancyVersion::for_attempt(1).field_value(), 2);
        assert_eq!(RedundancyVersion::for_attempt(2).field_value(), 3);
        assert_eq!(RedundancyVersion::for_attempt(3).field_value(), 1);
        assert_eq!(RedundancyVersion::for_attempt(4).field_value(), 0);
    }
}
