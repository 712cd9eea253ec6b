//! Large-scale path loss, 3GPP TR 38.901 §7.4.1.
//!
//! Implements the UMa (urban macro) and UMi (urban micro / street canyon)
//! models used for mid-band system studies, in both LOS and NLOS variants.
//! The study cities (Madrid, Paris, Rome, Munich, Chicago) are all dense
//! urban; UMa-LOS/NLOS with per-operator site density reproduces the
//! coverage contrasts the paper observes.

use serde::{Deserialize, Serialize};

/// Deployment scenario of TR 38.901.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Urban macro, LOS.
    UmaLos,
    /// Urban macro, NLOS.
    UmaNlos,
    /// Urban micro street canyon, LOS.
    UmiLos,
    /// Urban micro street canyon, NLOS.
    UmiNlos,
    /// Urban macro with distance-dependent LOS probability: the expected
    /// path loss `P_LOS(d)·PL_LOS + (1−P_LOS(d))·PL_NLOS` using the 38.901
    /// §7.4.2 UMa LOS probability. This is what gives site densification
    /// its real benefit (nearby serving sites are usually LOS, distant
    /// interferers usually NLOS) — the mechanism behind the paper's
    /// Fig. 7/22 coverage findings.
    UmaBlended,
    /// Urban micro with the 38.901 UMi LOS probability blend.
    UmiBlended,
    /// Free space (reference / sanity checks).
    FreeSpace,
}

/// A path-loss model instance bound to a carrier frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathLossModel {
    /// Scenario selecting the 38.901 formula.
    pub scenario: Scenario,
    /// Carrier frequency in GHz.
    pub frequency_ghz: f64,
}

impl PathLossModel {
    /// Construct; clamps frequency into 38.901's 0.5–100 GHz validity range.
    pub fn new(scenario: Scenario, frequency_ghz: f64) -> Self {
        PathLossModel { scenario, frequency_ghz: frequency_ghz.clamp(0.5, 100.0) }
    }

    /// Path loss in dB at 3D distance `d3d_m` metres (clamped below at
    /// 10 m, the models' near-field validity limit).
    ///
    /// Uses h_BS = 25 m, h_UT = 1.5 m (UMa defaults; UMi uses 10 m BS) and
    /// the simplified PL formulations of Table 7.4.1-1. The breakpoint
    /// distance is computed per the table notes.
    pub fn loss_db(&self, d3d_m: f64) -> f64 {
        let d = d3d_m.max(10.0);
        let fc = self.frequency_ghz;
        match self.scenario {
            Scenario::FreeSpace => 32.45 + 20.0 * vmath::log10(fc) + 20.0 * vmath::log10(d),
            Scenario::UmaLos => {
                let (h_bs, h_ut) = (25.0_f64, 1.5_f64);
                let d_bp = breakpoint_m(fc, h_bs, h_ut);
                if d <= d_bp {
                    28.0 + 22.0 * vmath::log10(d) + 20.0 * vmath::log10(fc)
                } else {
                    28.0 + 40.0 * vmath::log10(d) + 20.0 * vmath::log10(fc)
                        - 9.0 * vmath::log10(d_bp.powi(2) + (h_bs - h_ut).powi(2))
                }
            }
            Scenario::UmaNlos => {
                let los = PathLossModel { scenario: Scenario::UmaLos, ..*self }.loss_db(d);
                // The −0.6·(h_UT − 1.5) term vanishes at the 1.5 m UE height we model.
                let nlos = 13.54 + 39.08 * vmath::log10(d) + 20.0 * vmath::log10(fc);
                los.max(nlos)
            }
            Scenario::UmiLos => {
                let (h_bs, h_ut) = (10.0_f64, 1.5_f64);
                let d_bp = breakpoint_m(fc, h_bs, h_ut);
                if d <= d_bp {
                    32.4 + 21.0 * vmath::log10(d) + 20.0 * vmath::log10(fc)
                } else {
                    32.4 + 40.0 * vmath::log10(d) + 20.0 * vmath::log10(fc)
                        - 9.5 * vmath::log10(d_bp.powi(2) + (h_bs - h_ut).powi(2))
                }
            }
            Scenario::UmiNlos => {
                let los = PathLossModel { scenario: Scenario::UmiLos, ..*self }.loss_db(d);
                // The −0.3·(h_UT − 1.5) term vanishes at the 1.5 m UE height we model.
                let nlos = 22.4 + 35.3 * vmath::log10(d) + 21.3 * vmath::log10(fc);
                los.max(nlos)
            }
            Scenario::UmaBlended => {
                let p = uma_los_probability(d);
                let los = PathLossModel { scenario: Scenario::UmaLos, ..*self }.loss_db(d);
                let nlos = PathLossModel { scenario: Scenario::UmaNlos, ..*self }.loss_db(d);
                p * los + (1.0 - p) * nlos
            }
            Scenario::UmiBlended => {
                let p = umi_los_probability(d);
                let los = PathLossModel { scenario: Scenario::UmiLos, ..*self }.loss_db(d);
                let nlos = PathLossModel { scenario: Scenario::UmiNlos, ..*self }.loss_db(d);
                p * los + (1.0 - p) * nlos
            }
        }
    }

    /// Shadow-fading standard deviation σ_SF in dB for the scenario
    /// (Table 7.4.1-1; blended scenarios use the NLOS value, the larger of
    /// the two, since the blend's uncertainty is NLOS-dominated).
    pub fn shadow_sigma_db(&self) -> f64 {
        match self.scenario {
            Scenario::UmaLos => 4.0,
            Scenario::UmaNlos | Scenario::UmaBlended => 6.0,
            Scenario::UmiLos => 4.0,
            Scenario::UmiNlos | Scenario::UmiBlended => 7.82,
            Scenario::FreeSpace => 0.0,
        }
    }
}

/// Breakpoint distance d'_BP = 4 · h'_BS · h'_UT · f_c / c with the 1 m
/// effective-height correction of 38.901.
fn breakpoint_m(fc_ghz: f64, h_bs: f64, h_ut: f64) -> f64 {
    let c = 299_792_458.0;
    4.0 * (h_bs - 1.0) * (h_ut - 1.0) * (fc_ghz * 1e9) / c
}

/// A [`PathLossModel`] with every distance-independent term hoisted.
///
/// [`PathLossModel::loss_db`] re-derives `log10(fc)` and the breakpoint
/// term on every call, and the blended scenarios recurse through their
/// LOS/NLOS constituents — ~4–7 `log10` evaluations per path-loss query.
/// A driving UE moves every slot, so that cost lands on the hot path.
/// The profile precomputes all of it once per (scenario, frequency);
/// [`PathLossProfile::loss_db`] then needs exactly one `log10(d)` (plus
/// one `exp` for the blended LOS probability).
///
/// Bit-identity with the model is by referential transparency: each
/// hoisted constant is computed by the very expression the model
/// evaluates inline, every distance-dependent expression keeps the
/// model's operand association, and the recursion's repeated
/// sub-evaluations are deterministic, so collapsing them changes
/// nothing. `pathloss_profile_props` pins this per scenario across the
/// frequency/distance space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossProfile {
    scenario: Scenario,
    /// `20·log10(fc)` — the fc term shared by most formulas.
    fc20: f64,
    /// `21.3·log10(fc)` — the UMi-NLOS fc term.
    fc21_3: f64,
    /// UMa breakpoint distance (25 m BS, 1.5 m UE).
    uma_d_bp: f64,
    /// `9·log10(d_bp² + Δh²)` — the UMa above-breakpoint correction.
    uma_bp_term: f64,
    /// UMi breakpoint distance (10 m BS, 1.5 m UE).
    umi_d_bp: f64,
    /// `9.5·log10(d_bp² + Δh²)` — the UMi above-breakpoint correction.
    umi_bp_term: f64,
}

impl PathLossProfile {
    /// Hoist `model`'s distance-independent terms.
    pub fn new(model: &PathLossModel) -> Self {
        let fc = model.frequency_ghz;
        let (uma_h_bs, uma_h_ut) = (25.0_f64, 1.5_f64);
        let uma_d_bp = breakpoint_m(fc, uma_h_bs, uma_h_ut);
        let (umi_h_bs, umi_h_ut) = (10.0_f64, 1.5_f64);
        let umi_d_bp = breakpoint_m(fc, umi_h_bs, umi_h_ut);
        PathLossProfile {
            scenario: model.scenario,
            fc20: 20.0 * vmath::log10(fc),
            fc21_3: 21.3 * vmath::log10(fc),
            uma_d_bp,
            uma_bp_term: 9.0 * vmath::log10(uma_d_bp.powi(2) + (uma_h_bs - uma_h_ut).powi(2)),
            umi_d_bp,
            umi_bp_term: 9.5 * vmath::log10(umi_d_bp.powi(2) + (umi_h_bs - umi_h_ut).powi(2)),
        }
    }

    /// Path loss in dB at 3D distance `d3d_m` — bit-identical to
    /// [`PathLossModel::loss_db`] on the profiled model.
    #[inline]
    pub fn loss_db(&self, d3d_m: f64) -> f64 {
        let d = d3d_m.max(10.0);
        let ld = vmath::log10(d);
        match self.scenario {
            Scenario::FreeSpace => 32.45 + self.fc20 + 20.0 * ld,
            Scenario::UmaLos => self.uma_los(d, ld),
            Scenario::UmaNlos => self.uma_los(d, ld).max(self.uma_nlos_formula(ld)),
            Scenario::UmiLos => self.umi_los(d, ld),
            Scenario::UmiNlos => self.umi_los(d, ld).max(self.umi_nlos_formula(ld)),
            Scenario::UmaBlended => {
                let p = uma_los_probability(d);
                let los = self.uma_los(d, ld);
                let nlos = los.max(self.uma_nlos_formula(ld));
                p * los + (1.0 - p) * nlos
            }
            Scenario::UmiBlended => {
                let p = umi_los_probability(d);
                let los = self.umi_los(d, ld);
                let nlos = los.max(self.umi_nlos_formula(ld));
                p * los + (1.0 - p) * nlos
            }
        }
    }

    #[inline]
    fn uma_los(&self, d: f64, ld: f64) -> f64 {
        if d <= self.uma_d_bp {
            28.0 + 22.0 * ld + self.fc20
        } else {
            28.0 + 40.0 * ld + self.fc20 - self.uma_bp_term
        }
    }

    #[inline]
    fn uma_nlos_formula(&self, ld: f64) -> f64 {
        13.54 + 39.08 * ld + self.fc20
    }

    #[inline]
    fn umi_los(&self, d: f64, ld: f64) -> f64 {
        if d <= self.umi_d_bp {
            32.4 + 21.0 * ld + self.fc20
        } else {
            32.4 + 40.0 * ld + self.fc20 - self.umi_bp_term
        }
    }

    #[inline]
    fn umi_nlos_formula(&self, ld: f64) -> f64 {
        22.4 + 35.3 * ld + self.fc21_3
    }
}

impl PathLossModel {
    /// The hoisted fast-path evaluator for this model (see
    /// [`PathLossProfile`]).
    pub fn profile(&self) -> PathLossProfile {
        PathLossProfile::new(self)
    }
}

/// UMa LOS probability, TR 38.901 Table 7.4.2-1 (h_UT ≤ 13 m form):
/// 1 for d ≤ 18 m, else `18/d + exp(−d/63)·(1 − 18/d)`.
pub fn uma_los_probability(d2d_m: f64) -> f64 {
    if d2d_m <= 18.0 {
        1.0
    } else {
        let r = 18.0 / d2d_m;
        r + vmath::exp(-d2d_m / 63.0) * (1.0 - r)
    }
}

/// UMi LOS probability, TR 38.901 Table 7.4.2-1:
/// 1 for d ≤ 18 m, else `18/d + exp(−d/36)·(1 − 18/d)`.
pub fn umi_los_probability(d2d_m: f64) -> f64 {
    if d2d_m <= 18.0 {
        1.0
    } else {
        let r = 18.0 / d2d_m;
        r + vmath::exp(-d2d_m / 36.0) * (1.0 - r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL_SCENARIOS: [Scenario; 7] = [
        Scenario::UmaLos,
        Scenario::UmaNlos,
        Scenario::UmiLos,
        Scenario::UmiNlos,
        Scenario::UmaBlended,
        Scenario::UmiBlended,
        Scenario::FreeSpace,
    ];

    proptest! {
        /// The hoisted profile is bit-identical to the recursive model
        /// for every scenario across the frequency/distance space,
        /// including the near-field clamp and breakpoint neighbourhoods.
        #[test]
        fn pathloss_profile_props(
            fc in 0.5f64..100.0,
            d in 0.1f64..5_000.0,
            bp_wiggle in -0.01f64..0.01,
        ) {
            for scen in ALL_SCENARIOS {
                let model = PathLossModel::new(scen, fc);
                let profile = model.profile();
                let bp = breakpoint_m(fc, 25.0, 1.5) * (1.0 + bp_wiggle);
                for dist in [d, 1.0, 10.0, 18.0, 18.5, bp] {
                    prop_assert_eq!(
                        profile.loss_db(dist).to_bits(),
                        model.loss_db(dist).to_bits(),
                        "{:?} fc={} d={}", scen, fc, dist
                    );
                }
            }
        }
    }

    #[test]
    fn loss_increases_with_distance_and_frequency() {
        for scen in [
            Scenario::UmaLos,
            Scenario::UmaNlos,
            Scenario::UmiLos,
            Scenario::UmiNlos,
            Scenario::UmaBlended,
            Scenario::UmiBlended,
        ] {
            let m = PathLossModel::new(scen, 3.5);
            let mut prev = 0.0;
            for d in [10.0, 30.0, 100.0, 300.0, 1000.0] {
                let l = m.loss_db(d);
                assert!(l > prev, "{scen:?} d={d}");
                prev = l;
            }
            let hi = PathLossModel::new(scen, 28.0);
            assert!(hi.loss_db(100.0) > m.loss_db(100.0), "{scen:?} mmWave loss higher");
        }
    }

    #[test]
    fn nlos_never_below_los() {
        let fc = 3.5;
        for d in [10.0, 50.0, 150.0, 500.0, 2000.0] {
            let los = PathLossModel::new(Scenario::UmaLos, fc).loss_db(d);
            let nlos = PathLossModel::new(Scenario::UmaNlos, fc).loss_db(d);
            assert!(nlos >= los, "d={d}: NLOS {nlos} < LOS {los}");
        }
    }

    #[test]
    fn uma_los_reference_value() {
        // At 3.5 GHz, 100 m (below breakpoint): 28 + 22·2 + 20·log10(3.5)
        // = 28 + 44 + 10.881 ≈ 82.88 dB.
        let m = PathLossModel::new(Scenario::UmaLos, 3.5);
        assert!((m.loss_db(100.0) - 82.881).abs() < 0.01);
    }

    #[test]
    fn free_space_reference_value() {
        // FSPL at 1 GHz, 1 km: ≈ 92.45 dB.
        let m = PathLossModel::new(Scenario::FreeSpace, 1.0);
        assert!((m.loss_db(1000.0) - 92.45).abs() < 0.01);
    }

    #[test]
    fn near_field_clamp() {
        let m = PathLossModel::new(Scenario::UmaLos, 3.5);
        assert_eq!(m.loss_db(1.0), m.loss_db(10.0));
    }

    #[test]
    fn breakpoint_continuity() {
        // The two-slope UMa-LOS model is continuous at the breakpoint.
        let fc = 3.5;
        let m = PathLossModel::new(Scenario::UmaLos, fc);
        let d_bp = breakpoint_m(fc, 25.0, 1.5);
        let below = m.loss_db(d_bp * 0.999);
        let above = m.loss_db(d_bp * 1.001);
        assert!((below - above).abs() < 0.5, "discontinuity {below} vs {above} at {d_bp}");
    }

    #[test]
    fn shadow_sigma_matches_table() {
        assert_eq!(PathLossModel::new(Scenario::UmaNlos, 3.5).shadow_sigma_db(), 6.0);
        assert_eq!(PathLossModel::new(Scenario::UmaLos, 3.5).shadow_sigma_db(), 4.0);
    }

    #[test]
    fn los_probability_decays_with_distance() {
        assert_eq!(uma_los_probability(10.0), 1.0);
        let mut prev = 1.0;
        for d in [20.0, 50.0, 100.0, 200.0, 400.0, 800.0] {
            let p = uma_los_probability(d);
            assert!(p < prev, "d={d}");
            assert!(p > 0.0 && p <= 1.0);
            prev = p;
        }
        // UMi loses LOS faster than UMa.
        assert!(umi_los_probability(100.0) < uma_los_probability(100.0));
    }

    #[test]
    fn blended_sits_between_los_and_nlos() {
        let fc = 3.5;
        for d in [30.0, 80.0, 150.0, 400.0] {
            let los = PathLossModel::new(Scenario::UmaLos, fc).loss_db(d);
            let nlos = PathLossModel::new(Scenario::UmaNlos, fc).loss_db(d);
            let blend = PathLossModel::new(Scenario::UmaBlended, fc).loss_db(d);
            assert!(blend >= los && blend <= nlos, "d={d}: {los} {blend} {nlos}");
        }
        // Close in it tracks LOS, far out it tracks NLOS.
        let close = PathLossModel::new(Scenario::UmaBlended, fc).loss_db(20.0);
        let close_los = PathLossModel::new(Scenario::UmaLos, fc).loss_db(20.0);
        assert!((close - close_los).abs() < 3.0);
        let far = PathLossModel::new(Scenario::UmaBlended, fc).loss_db(1000.0);
        let far_nlos = PathLossModel::new(Scenario::UmaNlos, fc).loss_db(1000.0);
        assert!((far - far_nlos).abs() < 3.0);
    }
}
