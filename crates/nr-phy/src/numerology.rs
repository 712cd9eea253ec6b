//! NR numerologies (TS 38.211 §4.2–4.3): sub-carrier spacing and the slot /
//! symbol timing grid.
//!
//! All 5G mid-band channels studied by the paper use 30 kHz SCS (µ = 1)
//! except T-Mobile's n25 FDD channels (15 kHz, µ = 0); mmWave uses 120 kHz
//! (µ = 3). The slot duration at µ = 1 — 0.5 ms — is the finest time scale
//! of the paper's analysis ("slot-level, the finest time scale possible").

use serde::{Deserialize, Serialize};

/// An NR numerology µ ∈ {0, 1, 2, 3, 4}; SCS = 15 kHz · 2^µ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Numerology {
    /// µ = 0, 15 kHz SCS (LTE-compatible; T-Mobile n25 FDD).
    Mu0,
    /// µ = 1, 30 kHz SCS (every mid-band TDD channel in the study).
    Mu1,
    /// µ = 2, 60 kHz SCS.
    Mu2,
    /// µ = 3, 120 kHz SCS (FR2 / mmWave data channels).
    Mu3,
    /// µ = 4, 240 kHz SCS (FR2 SSB only).
    Mu4,
}

impl Numerology {
    /// The numerology index µ.
    pub const fn mu(self) -> u8 {
        match self {
            Numerology::Mu0 => 0,
            Numerology::Mu1 => 1,
            Numerology::Mu2 => 2,
            Numerology::Mu3 => 3,
            Numerology::Mu4 => 4,
        }
    }

    /// Construct from the index µ; `None` when µ > 4.
    pub const fn from_mu(mu: u8) -> Option<Self> {
        match mu {
            0 => Some(Numerology::Mu0),
            1 => Some(Numerology::Mu1),
            2 => Some(Numerology::Mu2),
            3 => Some(Numerology::Mu3),
            4 => Some(Numerology::Mu4),
            _ => None,
        }
    }

    /// Construct from a sub-carrier spacing in kHz; `None` if the SCS is not
    /// one of {15, 30, 60, 120, 240}.
    pub const fn from_scs_khz(scs: u32) -> Option<Self> {
        match scs {
            15 => Some(Numerology::Mu0),
            30 => Some(Numerology::Mu1),
            60 => Some(Numerology::Mu2),
            120 => Some(Numerology::Mu3),
            240 => Some(Numerology::Mu4),
            _ => None,
        }
    }

    /// Sub-carrier spacing in kHz: 15 · 2^µ.
    pub const fn scs_khz(self) -> u32 {
        15 << self.mu()
    }

    /// Slots per subframe (1 ms): 2^µ.
    pub const fn slots_per_subframe(self) -> u32 {
        1 << self.mu()
    }

    /// Slots per 10 ms radio frame: 10 · 2^µ.
    pub const fn slots_per_frame(self) -> u32 {
        10 * self.slots_per_subframe()
    }

    /// Slot duration in milliseconds: 1 / 2^µ.
    pub fn slot_duration_ms(self) -> f64 {
        1.0 / self.slots_per_subframe() as f64
    }

    /// Average OFDM symbol duration T_s^µ in **seconds**, as used in the
    /// TS 38.306 maximum-data-rate formula: `10^-3 / (14 · 2^µ)`.
    pub fn avg_symbol_duration_s(self) -> f64 {
        1e-3 / (14.0 * self.slots_per_subframe() as f64)
    }
}

impl std::fmt::Display for Numerology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "µ={} ({} kHz)", self.mu(), self.scs_khz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scs_follows_power_of_two_ladder() {
        assert_eq!(Numerology::Mu0.scs_khz(), 15);
        assert_eq!(Numerology::Mu1.scs_khz(), 30);
        assert_eq!(Numerology::Mu2.scs_khz(), 60);
        assert_eq!(Numerology::Mu3.scs_khz(), 120);
        assert_eq!(Numerology::Mu4.scs_khz(), 240);
    }

    #[test]
    fn midband_slot_is_half_millisecond() {
        // The paper's finest analysis granularity τ = 0.5 ms comes from µ=1.
        assert_eq!(Numerology::Mu1.slot_duration_ms(), 0.5);
        assert_eq!(Numerology::Mu1.slots_per_frame(), 20);
    }

    #[test]
    fn symbol_duration_matches_38306_formula() {
        // For µ=1: 1e-3 / 28 ≈ 35.714 µs.
        let t = Numerology::Mu1.avg_symbol_duration_s();
        assert!((t - 3.5714285714e-5).abs() < 1e-12);
    }

    #[test]
    fn from_scs_roundtrips() {
        for n in [
            Numerology::Mu0,
            Numerology::Mu1,
            Numerology::Mu2,
            Numerology::Mu3,
            Numerology::Mu4,
        ] {
            assert_eq!(Numerology::from_scs_khz(n.scs_khz()), Some(n));
            assert_eq!(Numerology::from_mu(n.mu()), Some(n));
        }
        assert_eq!(Numerology::from_scs_khz(20), None);
        assert_eq!(Numerology::from_mu(5), None);
    }
}
