//! Small-scale (fast) fading.
//!
//! We model the per-slot fluctuation of the effective post-equalisation
//! SINR as a first-order autoregressive (Gauss-Markov) process in dB whose
//! time constant follows the channel's Doppler spread, plus a Rician
//! LOS-dominance parameter that shrinks the fluctuation amplitude. This is
//! the standard "fading margin" abstraction for system-level simulation:
//! it does not track per-tap impulse responses, but it reproduces the
//! *statistics* the paper's §5 analysis needs — fluctuation magnitude and
//! decorrelation time as a function of mobility.
//!
//! Calibration anchors:
//! * stationary UE: Doppler from residual environment motion (≈ 2 Hz);
//! * walking (1.4 m/s at 3.5 GHz): f_d ≈ 16 Hz → decorrelation ≈ 26 ms;
//! * driving (11 m/s at 3.5 GHz): f_d ≈ 128 Hz → decorrelation ≈ 3 ms;
//! * mmWave multiplies Doppler by the frequency ratio (≈ 8× at 28 GHz).

use crate::rng::SeedTree;
use crate::shadowing::GaussianTile;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Speed of light, m/s.
const C: f64 = 299_792_458.0;

/// Parameters of the fast-fading process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FadingConfig {
    /// Carrier frequency, GHz (sets Doppler for a given speed).
    pub frequency_ghz: f64,
    /// UE speed, m/s. Zero selects the residual-motion floor.
    pub speed_mps: f64,
    /// Rician K-factor in dB. Large K (strong LOS) → small fluctuations;
    /// K → −∞ (Rayleigh) → σ ≈ 5.6 dB fluctuations.
    pub rician_k_db: f64,
    /// Slot duration in seconds (0.5 ms at µ=1).
    pub slot_s: f64,
}

impl FadingConfig {
    /// Mid-band defaults for a given mobility speed.
    pub fn midband(speed_mps: f64, rician_k_db: f64) -> Self {
        FadingConfig { frequency_ghz: 3.5, speed_mps, rician_k_db, slot_s: 0.5e-3 }
    }

    /// Doppler spread in Hz; floored at 2 Hz of environmental motion so a
    /// stationary channel still breathes (as real measurements do).
    pub fn doppler_hz(&self) -> f64 {
        (self.speed_mps * self.frequency_ghz * 1e9 / C).max(2.0)
    }

    /// Fading fluctuation standard deviation in dB, derived from the
    /// Rician K-factor. For Rayleigh fading the post-detection SNR in dB
    /// has σ ≈ 5.57 dB; a K-factor of k (linear) scales this by
    /// `1/sqrt(1+k)` (the diffuse fraction of power).
    pub fn sigma_db(&self) -> f64 {
        let k = vmath::pow10(self.rician_k_db / 10.0);
        5.57 / (1.0 + k).sqrt()
    }

    /// Per-slot AR(1) coefficient chosen so the autocorrelation falls to
    /// 0.5 after one coherence time `T_c ≈ 0.423/f_d`:
    /// `ρ = exp(−ln2 · f_d · T_slot / 0.423)`.
    pub fn slot_rho(&self) -> f64 {
        vmath::exp(-(self.doppler_hz() * self.slot_s) / 0.423 * std::f64::consts::LN_2)
    }
}

/// The evolving fading state of one link.
#[derive(Debug, Clone)]
pub struct FadingProcess {
    config: FadingConfig,
    rng: ChaCha12Rng,
    tile: GaussianTile,
    current_db: f64,
    /// Hoisted AR(1) coefficient (`config.slot_rho()`); pure function of
    /// the config, computed once at construction.
    rho: f64,
    /// Hoisted innovation gain `sqrt(1 − ρ²) · σ`, same association as the
    /// inline expression so the update stays bit-identical.
    gain: f64,
}

impl FadingProcess {
    /// Initialise from the stationary distribution N(0, σ²).
    pub fn new(config: FadingConfig, seeds: &SeedTree, link_label: &str) -> Self {
        let mut rng = seeds.stream(&format!("fading/{link_label}"));
        let current_db = crate::shadowing::gaussian(&mut rng) * config.sigma_db();
        let rho = config.slot_rho();
        let gain = (1.0 - rho * rho).sqrt() * config.sigma_db();
        FadingProcess { config, rng, tile: GaussianTile::new(), current_db, rho, gain }
    }

    /// Current fading value in dB (zero-mean).
    pub fn value_db(&self) -> f64 {
        self.current_db
    }

    /// Advance by one slot and return the new value in dB.
    pub fn advance_slot(&mut self) -> f64 {
        let w = self.tile.next_batched(&mut self.rng);
        self.current_db = self.rho * self.current_db + self.gain * w;
        self.current_db
    }

    /// How many slots a lookahead run may advance without crossing a tile
    /// refill boundary (refilling first if the tile is drained).
    pub(crate) fn lookahead_capacity(&mut self) -> usize {
        self.tile.ensure_prefetched(&mut self.rng)
    }

    /// Advance `out.len()` slots of [`advance_slot`] at once, recording
    /// the value after each. Caller must bound `out.len()` by
    /// [`lookahead_capacity`]. Bit-identical to sequential calls.
    ///
    /// [`advance_slot`]: FadingProcess::advance_slot
    /// [`lookahead_capacity`]: FadingProcess::lookahead_capacity
    pub(crate) fn advance_lookahead(&mut self, out: &mut [f64]) {
        for o in out.iter_mut() {
            let w = self.tile.take();
            self.current_db = self.rho * self.current_db + self.gain * w;
            *o = self.current_db;
        }
    }

    /// Roll back the last `n` slots of a lookahead run: restore
    /// `state_db` and return the `n` unused innovations to the tile.
    pub(crate) fn rewind_lookahead(&mut self, n: usize, state_db: f64) {
        self.tile.rewind(n);
        self.current_db = state_db;
    }

    /// The pre-optimisation [`advance_slot`]: recomputes ρ (`exp`) and σ
    /// (`powf`, `sqrt`) every slot instead of using the hoisted
    /// coefficients. Bit-identical to [`advance_slot`]; kept as the
    /// reference the `perf_baseline` uncached lane measures.
    ///
    /// [`advance_slot`]: FadingProcess::advance_slot
    pub fn advance_slot_uncached(&mut self) -> f64 {
        let rho = self.config.slot_rho();
        let sigma = self.config.sigma_db();
        let w = self.tile.next_unbatched(&mut self.rng);
        self.current_db = rho * self.current_db + (1.0 - rho * rho).sqrt() * sigma * w;
        self.current_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(speed: f64, k_db: f64) -> FadingConfig {
        FadingConfig::midband(speed, k_db)
    }

    #[test]
    fn doppler_scales_with_speed_and_frequency() {
        assert!((cfg(1.4, 6.0).doppler_hz() - 16.3).abs() < 0.5);
        assert!(cfg(11.0, 6.0).doppler_hz() > 100.0);
        let mmwave = FadingConfig { frequency_ghz: 28.0, ..cfg(1.4, 6.0) };
        assert!((mmwave.doppler_hz() / cfg(1.4, 6.0).doppler_hz() - 8.0).abs() < 0.1);
        // Stationary floor.
        assert_eq!(cfg(0.0, 6.0).doppler_hz(), 2.0);
    }

    #[test]
    fn stronger_los_means_smaller_fluctuations() {
        assert!(cfg(1.4, 12.0).sigma_db() < cfg(1.4, 6.0).sigma_db());
        assert!(cfg(1.4, 6.0).sigma_db() < cfg(1.4, -100.0).sigma_db());
        // Rayleigh limit.
        assert!((cfg(1.4, -100.0).sigma_db() - 5.57).abs() < 0.01);
    }

    #[test]
    fn faster_ue_decorrelates_faster() {
        assert!(cfg(11.0, 6.0).slot_rho() < cfg(1.4, 6.0).slot_rho());
        assert!(cfg(1.4, 6.0).slot_rho() < cfg(0.0, 6.0).slot_rho());
        // All coefficients are valid AR(1) coefficients.
        for speed in [0.0, 1.4, 11.0, 30.0] {
            let rho = cfg(speed, 6.0).slot_rho();
            assert!((0.0..1.0).contains(&rho), "speed {speed}: rho {rho}");
        }
    }

    #[test]
    fn long_run_sigma_matches_config() {
        let mut p = FadingProcess::new(cfg(11.0, 6.0), &SeedTree::new(9), "link");
        let mut vals = Vec::new();
        for _ in 0..50_000 {
            vals.push(p.advance_slot());
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64;
        let sigma = cfg(11.0, 6.0).sigma_db();
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.25, "std {} vs {}", var.sqrt(), sigma);
    }

    #[test]
    fn slot_to_slot_variability_increases_with_speed() {
        // The §7 finding in miniature: driving-speed fading moves more per
        // slot than walking-speed fading.
        let deltas = |speed: f64| {
            let mut p = FadingProcess::new(cfg(speed, 6.0), &SeedTree::new(5), "l");
            let mut sum = 0.0;
            let mut prev = p.value_db();
            for _ in 0..20_000 {
                let v = p.advance_slot();
                sum += (v - prev).abs();
                prev = v;
            }
            sum / 20_000.0
        };
        let walk = deltas(1.4);
        let drive = deltas(11.0);
        assert!(drive > walk * 1.5, "drive {drive} vs walk {walk}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FadingProcess::new(cfg(1.4, 6.0), &SeedTree::new(3), "x");
        let mut b = FadingProcess::new(cfg(1.4, 6.0), &SeedTree::new(3), "x");
        for _ in 0..100 {
            assert_eq!(a.advance_slot(), b.advance_slot());
        }
    }

    #[test]
    fn batched_advance_matches_uncached_reference() {
        // Tile-prefetched production path vs the per-slot scalar
        // reference: same RNG stream, byte-identical values.
        let mut batched = FadingProcess::new(cfg(11.0, 6.0), &SeedTree::new(21), "eq");
        let mut reference = FadingProcess::new(cfg(11.0, 6.0), &SeedTree::new(21), "eq");
        for i in 0..150 {
            assert_eq!(
                batched.advance_slot().to_bits(),
                reference.advance_slot_uncached().to_bits(),
                "slot {i}"
            );
        }
    }
}
