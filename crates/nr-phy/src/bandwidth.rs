//! Channel bandwidth → maximum transmission bandwidth configuration N_RB
//! (TS 38.101-1 Table 5.3.2-1 for FR1, TS 38.101-2 Table 5.3.2-1 for FR2).
//!
//! N_RB is the quantity in row 7 ("Max. Bandwidth (N_RBs)") of the paper's
//! Tables 2–3 and the y-axis of its Figure 4: 273 RBs at 100 MHz/30 kHz,
//! 245 at 90 MHz, 217 at 80 MHz, 162 at 60 MHz, 106 at 40 MHz, and so on.
//! The difference between the channel bandwidth and `N_RB · 12 · SCS` is the
//! guard band at the channel edges (paper Fig. 20).

use crate::error::PhyError;
use crate::numerology::Numerology;
use serde::{Deserialize, Serialize};

/// A channel bandwidth, stored in kHz so 5 MHz and fractional-MHz aggregate
/// labels stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelBandwidth(u32);

impl ChannelBandwidth {
    /// Construct from MHz.
    pub const fn from_mhz(mhz: u32) -> Self {
        ChannelBandwidth(mhz * 1000)
    }

    /// Construct from kHz.
    pub const fn from_khz(khz: u32) -> Self {
        ChannelBandwidth(khz)
    }

    /// Bandwidth in kHz.
    pub const fn khz(self) -> u32 {
        self.0
    }

    /// Bandwidth in MHz (rounded down; all study channels are integral MHz).
    pub const fn mhz(self) -> u32 {
        self.0 / 1000
    }
}

impl std::fmt::Display for ChannelBandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 % 1000 == 0 {
            write!(f, "{} MHz", self.0 / 1000)
        } else {
            write!(f, "{} kHz", self.0)
        }
    }
}

/// FR1 N_RB table (TS 38.101-1 Table 5.3.2-1). Entries are
/// `(bandwidth MHz, N_RB @15 kHz, N_RB @30 kHz, N_RB @60 kHz)`; `0` marks a
/// combination the specification does not define.
const FR1_NRB: &[(u32, u16, u16, u16)] = &[
    (5, 25, 11, 0),
    (10, 52, 24, 11),
    (15, 79, 38, 18),
    (20, 106, 51, 24),
    (25, 133, 65, 31),
    (30, 160, 78, 38),
    (35, 188, 92, 44),
    (40, 216, 106, 51),
    (45, 242, 119, 58),
    (50, 270, 133, 65),
    (60, 0, 162, 79),
    (70, 0, 189, 93),
    (80, 0, 217, 107),
    (90, 0, 245, 121),
    (100, 0, 273, 135),
];

/// FR2 N_RB table (TS 38.101-2 Table 5.3.2-1):
/// `(bandwidth MHz, N_RB @60 kHz, N_RB @120 kHz)`.
const FR2_NRB: &[(u32, u16, u16)] = &[(50, 66, 32), (100, 132, 66), (200, 264, 132), (400, 0, 264)];

/// Look up the maximum transmission bandwidth configuration N_RB for a
/// channel bandwidth and numerology.
///
/// ```
/// use nr_phy::{bandwidth::{max_transmission_bandwidth, ChannelBandwidth}, Numerology};
/// // The paper's Table 2: a 90 MHz / 30 kHz channel carries 245 RBs.
/// let n_rb = max_transmission_bandwidth(ChannelBandwidth::from_mhz(90), Numerology::Mu1).unwrap();
/// assert_eq!(n_rb, 245);
/// ```
pub fn max_transmission_bandwidth(
    bw: ChannelBandwidth,
    numerology: Numerology,
) -> Result<u16, PhyError> {
    let err = || PhyError::UnsupportedBandwidth {
        bandwidth_khz: bw.khz(),
        scs_khz: numerology.scs_khz(),
    };
    let mhz = if bw.khz() % 1000 == 0 { bw.mhz() } else { return Err(err()) };
    match numerology {
        Numerology::Mu0 | Numerology::Mu1 => {
            let row = FR1_NRB.iter().find(|r| r.0 == mhz).ok_or_else(err)?;
            let n = if numerology == Numerology::Mu0 { row.1 } else { row.2 };
            if n == 0 {
                Err(err())
            } else {
                Ok(n)
            }
        }
        Numerology::Mu2 => {
            // 60 kHz exists in both FR1 and FR2; prefer the FR1 table for
            // bandwidths it defines, fall back to FR2 for 200 MHz.
            if let Some(row) = FR1_NRB.iter().find(|r| r.0 == mhz) {
                if row.3 != 0 {
                    return Ok(row.3);
                }
            }
            let row = FR2_NRB.iter().find(|r| r.0 == mhz).ok_or_else(err)?;
            if row.1 == 0 {
                Err(err())
            } else {
                Ok(row.1)
            }
        }
        Numerology::Mu3 => {
            let row = FR2_NRB.iter().find(|r| r.0 == mhz).ok_or_else(err)?;
            if row.2 == 0 {
                Err(err())
            } else {
                Ok(row.2)
            }
        }
        Numerology::Mu4 => Err(err()),
    }
}

/// Occupied transmission bandwidth in kHz: `N_RB · 12 · SCS`.
pub fn occupied_bandwidth_khz(n_rb: u16, numerology: Numerology) -> u32 {
    n_rb as u32 * 12 * numerology.scs_khz()
}

/// Total guard bandwidth in kHz (both edges combined): channel bandwidth
/// minus the occupied transmission bandwidth (paper Fig. 20).
pub fn guard_bandwidth_khz(bw: ChannelBandwidth, numerology: Numerology) -> Result<u32, PhyError> {
    let n_rb = max_transmission_bandwidth(bw, numerology)?;
    Ok(bw.khz() - occupied_bandwidth_khz(n_rb, numerology))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact values behind the paper's Tables 2–3 row 7 and Figure 4.
    #[test]
    fn paper_nrb_values() {
        let cases: &[(u32, u16)] = &[(40, 106), (60, 162), (80, 217), (90, 245), (100, 273)];
        for &(mhz, expect) in cases {
            let n =
                max_transmission_bandwidth(ChannelBandwidth::from_mhz(mhz), Numerology::Mu1)
                    .unwrap();
            assert_eq!(n, expect, "{mhz} MHz @ 30 kHz");
        }
        // T-Mobile n25 channels at 15 kHz SCS: 20 MHz → 106 RB, 5 MHz → 25 RB.
        assert_eq!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(20), Numerology::Mu0).unwrap(),
            106
        );
        assert_eq!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(5), Numerology::Mu0).unwrap(),
            25
        );
        // The same channels at 30 kHz would be 51 + 11 RBs — the values the
        // paper's Table 3 prints.
        assert_eq!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(20), Numerology::Mu1).unwrap(),
            51
        );
        assert_eq!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(5), Numerology::Mu1).unwrap(),
            11
        );
    }

    #[test]
    fn fr2_table() {
        assert_eq!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(100), Numerology::Mu3).unwrap(),
            66
        );
        assert_eq!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(400), Numerology::Mu3).unwrap(),
            264
        );
        assert!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(400), Numerology::Mu2).is_err()
        );
    }

    #[test]
    fn undefined_combinations_error() {
        // 60 MHz is not defined at 15 kHz SCS.
        assert!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(60), Numerology::Mu0).is_err()
        );
        // 7 MHz is not a 3GPP channel bandwidth at all.
        assert!(
            max_transmission_bandwidth(ChannelBandwidth::from_mhz(7), Numerology::Mu1).is_err()
        );
    }

    #[test]
    fn guard_band_is_positive_and_sane() {
        // Occupied bandwidth must fit inside the channel with a non-trivial
        // guard at every defined FR1/30 kHz point.
        for &(mhz, _, n30, _) in FR1_NRB {
            if n30 == 0 {
                continue;
            }
            let bw = ChannelBandwidth::from_mhz(mhz);
            let guard = guard_bandwidth_khz(bw, Numerology::Mu1).unwrap();
            assert!(guard > 0, "{mhz} MHz");
            // Narrow channels spend proportionally more on guards (5 MHz at
            // 30 kHz SCS wastes ~21%); wide channels stay under 5%.
            assert!(guard < bw.khz() / 4, "guard should be <25% at {mhz} MHz");
            if mhz >= 40 {
                assert!(guard < bw.khz() / 20, "guard should be <5% at {mhz} MHz");
            }
        }
    }
}
