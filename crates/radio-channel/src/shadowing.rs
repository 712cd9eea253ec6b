//! Spatially-correlated log-normal shadowing (Gudmundson model).
//!
//! Shadow fading decorrelates with distance travelled:
//! `ρ(Δd) = exp(−Δd / d_corr)` with a correlation distance of tens of
//! metres in urban macro. We evolve the shadowing value as a Gauss-Markov
//! process indexed by distance, so a stationary UE keeps a constant
//! shadowing draw while a driving UE sees it swing — one of the reasons
//! channel variability worsens with speed (paper §7).

use crate::rng::{keystream_avx2, SeedTree};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the shadowing process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowingConfig {
    /// Standard deviation σ_SF in dB (scenario-dependent, see
    /// [`crate::pathloss::PathLossModel::shadow_sigma_db`]).
    pub sigma_db: f64,
    /// Decorrelation distance in metres (UMa ≈ 37–50 m; we default 37 m,
    /// the TR 38.901 UMa value).
    pub decorrelation_m: f64,
    /// Environment-churn speed, m/s: even a stationary UE sees its
    /// shadowing drift as people, vehicles and foliage move through the
    /// propagation paths. Acts as a floor on the effective distance
    /// travelled per step. The paper's Fig. 13 (a *stationary* UE whose
    /// MCS swings by tens of indices over tens of seconds) is direct
    /// evidence of this churn; 1.5 m/s gives a ~25 s decorrelation time.
    pub env_speed_mps: f64,
}

impl Default for ShadowingConfig {
    fn default() -> Self {
        ShadowingConfig { sigma_db: 6.0, decorrelation_m: 37.0, env_speed_mps: 1.5 }
    }
}

/// How many standard-normal draws one [`GaussianTile`] refill computes at
/// once: 64 uniforms feed one `vmath::gaussian_slice` call, so the SIMD
/// arms get full lanes and the `ln`/`cos` cost amortises across the tile.
pub(crate) const GAUSS_TILE: usize = 32;

/// A precomputed tile of standard-normal innovations.
///
/// The AR(1) shadowing/fading updates each consume one N(0,1) draw per
/// slot; computing them one at a time keeps the Box–Muller `ln`/`cos`
/// scalar. A refill takes the tile's `2 × GAUSS_TILE` keystream words in
/// one [`ChaCha12Rng::fill_u64`] call (the same words, in the same order,
/// as the scalar code's `u1`, `u2`, `u1`, … draws — the RNG stream is
/// untouched), converts them with `gen_range`'s exact formula
/// ([`rand::f64_in_range`]), and turns the whole tile into Gaussians
/// through [`vmath::gaussian_slice`], whose lanes are bit-identical to
/// [`vmath::gaussian_pair`]. Result: the value stream is byte-equal to
/// point-of-use scalar draws, only cheaper and in bursts.
#[derive(Debug, Clone)]
pub(crate) struct GaussianTile {
    buf: [f64; GAUSS_TILE],
    /// Next unread index; `== len` means empty.
    pos: usize,
    len: usize,
}

impl GaussianTile {
    pub(crate) fn new() -> Self {
        GaussianTile { buf: [0.0; GAUSS_TILE], pos: 0, len: 0 }
    }

    /// Next innovation, refilling the tile from `rng` when drained.
    pub(crate) fn next_batched(&mut self, rng: &mut ChaCha12Rng) -> f64 {
        if self.pos == self.len {
            let mut words = [0u64; 2 * GAUSS_TILE];
            rng.fill_u64(keystream_avx2(), &mut words);
            let mut u1 = [0.0; GAUSS_TILE];
            let mut u2 = [0.0; GAUSS_TILE];
            for (i, pair) in words.chunks_exact(2).enumerate() {
                u1[i] = rand::f64_in_range(f64::EPSILON, 1.0, pair[0]);
                u2[i] = rand::f64_in_range(0.0, 1.0, pair[1]);
            }
            vmath::gaussian_slice(&u1, &u2, &mut self.buf);
            self.pos = 0;
            self.len = GAUSS_TILE;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Point-of-use scalar draw — the pre-optimisation reference path.
    /// Drains any tile the batched path prefetched first, so mixing the
    /// two on one process cannot skip or reorder RNG draws.
    pub(crate) fn next_unbatched(&mut self, rng: &mut ChaCha12Rng) -> f64 {
        if self.pos < self.len {
            let v = self.buf[self.pos];
            self.pos += 1;
            return v;
        }
        gaussian(rng)
    }

    /// Refill if drained and return how many prefetched draws remain.
    /// Lookahead runs size themselves off this so a whole run always
    /// comes from one contiguous tile stretch — which is what makes
    /// [`GaussianTile::rewind`] possible at all.
    pub(crate) fn ensure_prefetched(&mut self, rng: &mut ChaCha12Rng) -> usize {
        if self.pos == self.len {
            let _ = self.next_batched(rng);
            self.pos -= 1;
        }
        self.len - self.pos
    }

    /// Take the next prefetched draw. Caller must have checked capacity
    /// via [`GaussianTile::ensure_prefetched`].
    pub(crate) fn take(&mut self) -> f64 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Un-consume the last `n` draws of a speculative run: they stay in
    /// the buffer, so the next consumer (batched or unbatched) sees the
    /// exact same values in the exact same order.
    pub(crate) fn rewind(&mut self, n: usize) {
        debug_assert!(n <= self.pos, "rewinding draws that were never taken");
        self.pos -= n;
    }
}

/// The evolving shadowing state of one UE–site link.
#[derive(Debug, Clone)]
pub struct ShadowingProcess {
    config: ShadowingConfig,
    rng: ChaCha12Rng,
    tile: GaussianTile,
    current_db: f64,
    /// Memoised step distance of the last advance. Slot loops advance by a
    /// constant distance (speed × slot), so `exp`/`sqrt` below hit this
    /// memo nearly every slot. NaN compares unequal → first call misses.
    memo_delta_m: f64,
    /// `exp(−Δd/d_corr)` for `memo_delta_m`.
    memo_rho: f64,
    /// `sqrt(1 − ρ²)` for `memo_delta_m` (the σ factor stays in the
    /// innovation term so the float association is unchanged).
    memo_decay: f64,
}

impl ShadowingProcess {
    /// Initialise with a fresh draw from N(0, σ²).
    pub fn new(config: ShadowingConfig, seeds: &SeedTree, link_label: &str) -> Self {
        let mut rng = seeds.stream(&format!("shadowing/{link_label}"));
        let current_db = gaussian(&mut rng) * config.sigma_db;
        ShadowingProcess {
            config,
            rng,
            tile: GaussianTile::new(),
            current_db,
            memo_delta_m: f64::NAN,
            memo_rho: f64::NAN,
            memo_decay: f64::NAN,
        }
    }

    /// Current shadowing value in dB (zero-mean).
    pub fn value_db(&self) -> f64 {
        self.current_db
    }

    /// Advance the process after the UE moved `delta_m` metres (no
    /// environment churn — pure spatial Gudmundson).
    ///
    /// `S' = ρ·S + sqrt(1−ρ²)·σ·w`, `ρ = exp(−Δd/d_corr)` — the standard
    /// discrete update. A zero move keeps the value unchanged.
    pub fn advance(&mut self, delta_m: f64) -> f64 {
        if delta_m > 0.0 {
            if delta_m != self.memo_delta_m {
                let rho = vmath::exp(-delta_m / self.config.decorrelation_m);
                self.memo_delta_m = delta_m;
                self.memo_rho = rho;
                self.memo_decay = (1.0 - rho * rho).sqrt();
            }
            let innovation = self.tile.next_batched(&mut self.rng) * self.config.sigma_db;
            self.current_db = self.memo_rho * self.current_db + self.memo_decay * innovation;
        }
        self.current_db
    }

    /// Advance after the UE moved `delta_m` metres during `dt_s` seconds,
    /// including environment churn: the effective decorrelating distance
    /// is `max(delta_m, env_speed · dt)`, so a stationary UE still drifts.
    pub fn advance_with_time(&mut self, delta_m: f64, dt_s: f64) -> f64 {
        let effective = delta_m.max(self.config.env_speed_mps * dt_s);
        self.advance(effective)
    }

    /// How many slots a lookahead run may advance without crossing a tile
    /// refill boundary (refilling first if the tile is drained).
    pub(crate) fn lookahead_capacity(&mut self) -> usize {
        self.tile.ensure_prefetched(&mut self.rng)
    }

    /// Advance `out.len()` slots of [`advance_with_time`] at once,
    /// recording the state after each slot. Caller must bound `out.len()`
    /// by [`lookahead_capacity`]. Bit-identical to `out.len()` sequential
    /// calls: same memo update, same draw order, same float expressions.
    ///
    /// [`advance_with_time`]: ShadowingProcess::advance_with_time
    /// [`lookahead_capacity`]: ShadowingProcess::lookahead_capacity
    pub(crate) fn advance_lookahead(&mut self, delta_m: f64, dt_s: f64, out: &mut [f64]) {
        let effective = delta_m.max(self.config.env_speed_mps * dt_s);
        if effective > 0.0 {
            if effective != self.memo_delta_m {
                let rho = vmath::exp(-effective / self.config.decorrelation_m);
                self.memo_delta_m = effective;
                self.memo_rho = rho;
                self.memo_decay = (1.0 - rho * rho).sqrt();
            }
            for o in out.iter_mut() {
                let innovation = self.tile.take() * self.config.sigma_db;
                self.current_db = self.memo_rho * self.current_db + self.memo_decay * innovation;
                *o = self.current_db;
            }
        } else {
            out.fill(self.current_db);
        }
    }

    /// The per-slot-delta variant of [`advance_lookahead`] for moving
    /// lookahead runs: slot `b` advances by `moved[b]` metres. Caller
    /// must ensure every slot consumes a draw (each `moved[b]` positive,
    /// or environment churn enabled) so a rewind can account draws as
    /// one-per-slot, and must bound the length by [`lookahead_capacity`].
    ///
    /// [`advance_lookahead`]: ShadowingProcess::advance_lookahead
    /// [`lookahead_capacity`]: ShadowingProcess::lookahead_capacity
    pub(crate) fn advance_lookahead_path(&mut self, moved: &[f64], dt_s: f64, out: &mut [f64]) {
        let env_m = self.config.env_speed_mps * dt_s;
        for (o, &delta_m) in out.iter_mut().zip(moved.iter()) {
            let effective = delta_m.max(env_m);
            debug_assert!(effective > 0.0, "moving lookahead slot consumes no draw");
            if effective != self.memo_delta_m {
                let rho = vmath::exp(-effective / self.config.decorrelation_m);
                self.memo_delta_m = effective;
                self.memo_rho = rho;
                self.memo_decay = (1.0 - rho * rho).sqrt();
            }
            let innovation = self.tile.take() * self.config.sigma_db;
            self.current_db = self.memo_rho * self.current_db + self.memo_decay * innovation;
            *o = self.current_db;
        }
    }

    /// Roll back the last `n` slots of a lookahead run: restore
    /// `state_db` (the state after the last slot actually consumed) and
    /// return the `n` unused innovations to the tile. Only valid when the
    /// run consumed draws (`effective > 0`); a zero-movement lookahead
    /// has nothing to rewind.
    pub(crate) fn rewind_lookahead(&mut self, n: usize, state_db: f64) {
        self.tile.rewind(n);
        self.current_db = state_db;
    }

    /// The pre-optimisation [`advance`]: recomputes `exp`/`sqrt` every
    /// call instead of memoising them. Bit-identical to [`advance`] (same
    /// expressions, same RNG draws); kept as the reference the
    /// `perf_baseline` uncached lane measures.
    ///
    /// [`advance`]: ShadowingProcess::advance
    pub fn advance_uncached(&mut self, delta_m: f64) -> f64 {
        if delta_m > 0.0 {
            let rho = vmath::exp(-delta_m / self.config.decorrelation_m);
            let innovation = self.tile.next_unbatched(&mut self.rng) * self.config.sigma_db;
            self.current_db = rho * self.current_db + (1.0 - rho * rho).sqrt() * innovation;
        }
        self.current_db
    }

    /// The pre-optimisation [`advance_with_time`] (see
    /// [`ShadowingProcess::advance_uncached`]).
    ///
    /// [`advance_with_time`]: ShadowingProcess::advance_with_time
    pub fn advance_with_time_uncached(&mut self, delta_m: f64, dt_s: f64) -> f64 {
        let effective = delta_m.max(self.config.env_speed_mps * dt_s);
        self.advance_uncached(effective)
    }
}

/// A standard normal draw via Box-Muller (two uniforms; the second value
/// is discarded). The slot loop draws its innovations through
/// [`GaussianTile`]; this scalar draw serves the one-off initial states
/// and the unbatched reference path. Evaluated through the `vmath`
/// kernels so a single draw is bit-identical to the corresponding lane
/// of a tile refill.
pub(crate) fn gaussian(rng: &mut ChaCha12Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    vmath::gaussian_pair(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(sigma: f64, dcorr: f64) -> ShadowingProcess {
        ShadowingProcess::new(
            ShadowingConfig { sigma_db: sigma, decorrelation_m: dcorr, env_speed_mps: 0.0 },
            &SeedTree::new(1234),
            "test",
        )
    }

    #[test]
    fn stationary_ue_keeps_value() {
        let mut p = process(6.0, 37.0);
        let v0 = p.value_db();
        for _ in 0..100 {
            p.advance(0.0);
        }
        assert_eq!(p.value_db(), v0);
    }

    #[test]
    fn long_run_statistics_match_sigma() {
        let mut p = process(6.0, 37.0);
        let mut values = Vec::new();
        for _ in 0..20_000 {
            values.push(p.advance(10.0));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn small_steps_stay_correlated() {
        // Over 1 m the value should barely move relative to σ.
        let mut p = process(6.0, 37.0);
        let before = p.value_db();
        let after = p.advance(1.0);
        assert!((after - before).abs() < 6.0, "jump too large: {} -> {}", before, after);
        // Over many decorrelation distances the memory of the start fades:
        // correlate start/end over repeated trials.
        let mut same_sign = 0;
        for trial in 0..200 {
            let mut p = ShadowingProcess::new(
                ShadowingConfig { sigma_db: 6.0, decorrelation_m: 37.0, env_speed_mps: 0.0 },
                &SeedTree::new(trial),
                "x",
            );
            let s0 = p.value_db();
            let s1 = p.advance(370.0); // 10 decorrelation distances
            if s0.signum() == s1.signum() {
                same_sign += 1;
            }
        }
        // Independent values agree in sign ~50% of the time.
        assert!((60..140).contains(&same_sign), "same_sign={same_sign}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = process(6.0, 37.0);
        let mut b = process(6.0, 37.0);
        for _ in 0..50 {
            assert_eq!(a.advance(5.0), b.advance(5.0));
        }
    }

    #[test]
    fn tile_stream_matches_scalar_draws() {
        use rand::SeedableRng;
        // `lead` scalar Gaussians go first. With none, every refill is
        // block-aligned. With one (four keystream words), every refill
        // starts mid-block, as in production: `ShadowingProcess::new` and
        // `FadingProcess::new` draw their initial state that way.
        for lead in [0, 1] {
            let mut rng_batched = ChaCha12Rng::seed_from_u64(77 + lead);
            let mut rng_scalar = ChaCha12Rng::seed_from_u64(77 + lead);
            for _ in 0..lead {
                assert_eq!(
                    gaussian(&mut rng_batched).to_bits(),
                    gaussian(&mut rng_scalar).to_bits()
                );
            }
            let mut tile = GaussianTile::new();
            let draws = GAUSS_TILE * 9 + 5;
            for i in 0..draws {
                assert_eq!(
                    tile.next_batched(&mut rng_batched).to_bits(),
                    gaussian(&mut rng_scalar).to_bits(),
                    "lead {lead}: draw {i} diverged from the point-of-use scalar draw"
                );
            }
            // Once the tile has handed out its prefetched draws, both
            // generators stand at the same point of the stream.
            for _ in draws % GAUSS_TILE..GAUSS_TILE {
                let _ = tile.next_batched(&mut rng_batched);
                let _ = gaussian(&mut rng_scalar);
            }
            assert!(rng_batched == rng_scalar, "lead {lead}: generators diverged");
        }
    }

    #[test]
    fn batched_process_matches_unbatched_reference() {
        // The production (tile-prefetching) path and the uncached
        // reference path realise the same process byte-for-byte.
        let mut batched = process(6.0, 37.0);
        let mut reference = process(6.0, 37.0);
        for i in 0..150 {
            assert_eq!(
                batched.advance(5.0).to_bits(),
                reference.advance_uncached(5.0).to_bits(),
                "step {i}"
            );
        }
        // Mixing the two paths on ONE process must not skip or reorder
        // RNG draws: the unbatched path drains the prefetched tile first.
        let mut mixed = process(6.0, 37.0);
        let mut pure = process(6.0, 37.0);
        for i in 0..150 {
            let v = if i % 3 == 0 { mixed.advance_uncached(5.0) } else { mixed.advance(5.0) };
            assert_eq!(v.to_bits(), pure.advance(5.0).to_bits(), "mixed step {i}");
        }
    }
}
