//! The composed per-slot channel simulator.
//!
//! [`ChannelSimulator`] wires the deployment geometry, path loss,
//! correlated shadowing, Doppler-matched fading, and (for mmWave) the
//! blockage process into a single per-slot stream of [`ChannelState`] —
//! the radio truth the RAN simulator schedules against and the XCAL-like
//! collector logs.

use crate::blockage::{BlockageConfig, BlockageProcess};
use crate::fading::{FadingConfig, FadingProcess};
use crate::geometry::{DeploymentLayout, Position};
use crate::mobility::{MobilityModel, MobilityState};
use crate::pathloss::{PathLossModel, PathLossProfile};
use crate::rng::SeedTree;
use crate::shadowing::{ShadowingConfig, ShadowingProcess};
use crate::signal::{NoiseTerms, RadioMeasurement, SignalConfig};
use serde::{Deserialize, Serialize};

/// Static description of a radio environment for one carrier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Path-loss model (scenario + carrier frequency).
    pub pathloss: PathLossModel,
    /// Shadowing parameters (σ usually from the path-loss scenario).
    pub shadowing: ShadowingConfig,
    /// Rician K-factor in dB for the fading process.
    pub rician_k_db: f64,
    /// Blockage process parameters ([`BlockageConfig::NONE`] for FR1).
    pub blockage: BlockageConfig,
    /// Signal/noise arithmetic parameters.
    pub signal: SignalConfig,
    /// Calibration offset added to the serving SINR in dB. Operator
    /// profiles use this to express systematic differences (antenna gains,
    /// downtilt quality, interference coordination) that the geometric
    /// model does not capture individually.
    pub sinr_offset_db: f64,
    /// Handover hysteresis (A3-style): a neighbour must exceed the serving
    /// cell's large-scale power by this margin before the UE switches.
    /// Prevents serving-cell ping-pong under shadowing churn.
    pub handover_hysteresis_db: f64,
    /// Slot duration in seconds (0.5 ms at µ=1, 0.125 ms at µ=3).
    pub slot_s: f64,
}

impl ChannelConfig {
    /// A mid-band urban-macro environment for a carrier with `n_rb` RBs.
    /// Uses the LOS-probability-blended UMa path loss, which is what makes
    /// deployment density matter (the Fig. 7/22 mechanism).
    pub fn midband_urban(n_rb: u16) -> Self {
        let pathloss = PathLossModel::new(crate::pathloss::Scenario::UmaBlended, 3.5);
        ChannelConfig {
            pathloss,
            shadowing: ShadowingConfig {
                sigma_db: pathloss.shadow_sigma_db(),
                decorrelation_m: 37.0,
                env_speed_mps: 1.5,
            },
            rician_k_db: 6.0,
            blockage: BlockageConfig::NONE,
            signal: SignalConfig::midband(n_rb),
            // Serving-beam gain: the serving cell's codebook beamforming
            // and downtilt coordination benefit the scheduled UE but not
            // the interference it receives.
            sinr_offset_db: 3.0,
            handover_hysteresis_db: 3.0,
            slot_s: 0.5e-3,
        }
    }

    /// A 28 GHz urban mmWave environment (blockage active, µ=3 slots).
    pub fn mmwave_urban(n_rb: u16) -> Self {
        let pathloss = PathLossModel::new(crate::pathloss::Scenario::UmiLos, 28.0);
        ChannelConfig {
            pathloss,
            shadowing: ShadowingConfig {
                sigma_db: pathloss.shadow_sigma_db(),
                decorrelation_m: 10.0,
                env_speed_mps: 1.0,
            },
            rician_k_db: 9.0,
            blockage: BlockageConfig::mmwave_urban(),
            signal: SignalConfig {
                n_rb,
                scs_khz: 120,
                noise_figure_db: 7.0,
                neighbor_load: 0.2,
                serving_load: 1.0,
                background_interference_dbm: -115.0,
            },
            sinr_offset_db: 18.0, // beamforming gain of large FR2 arrays
            handover_hysteresis_db: 3.0,
            slot_s: 0.125e-3,
        }
    }
}

/// The channel truth for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelState {
    /// Slot index since simulator start.
    pub slot: u64,
    /// UE position this slot.
    pub position: Position,
    /// Serving site id.
    pub serving_site: u32,
    /// 2D distance to the serving site, metres.
    pub serving_distance_m: f64,
    /// Large-scale measurement (RSRP/RSSI/RSRQ and mean SINR — no fast
    /// fading, as a measurement report would average it out).
    pub measurement: RadioMeasurement,
    /// Instantaneous post-equalisation SINR including fading and blockage,
    /// the quantity link adaptation reacts to.
    pub sinr_db: f64,
    /// Whether an mmWave blockage is in force.
    pub blocked: bool,
}

/// Slots one lookahead batch covers. Equal to
/// [`crate::shadowing::GAUSS_TILE`], so in steady state each batch
/// consumes exactly one innovation tile per process (a run never crosses
/// a refill boundary) and the per-batch bookkeeping amortises over 32
/// slots of full SIMD lanes.
const LA_SLOTS: usize = 32;
/// Stride of the per-site state history: the pre-batch state plus one
/// entry per lookahead slot.
const LA_STRIDE: usize = LA_SLOTS + 1;

/// Buffers of the stationary-UE slot lookahead (see
/// [`ChannelSimulator::step_at`]).
///
/// A UE that stays put with a warm large-scale cache has no per-slot
/// inputs: shadowing and fading evolve from their own RNG streams, and
/// every dB↔mW conversion is a pure function of those states. The
/// lookahead therefore advances all processes [`LA_SLOTS`] slots at once
/// (their innovations are already tile-prefetched, and each process owns
/// its stream, so per-process draw order is untouched) and evaluates the
/// whole batch's `pow10`/`log10` conversions in wide SIMD slices —
/// bit-identical to the slot-by-slot path because `vmath` lanes equal
/// its scalar calls for every input.
///
/// If the caller diverges mid-batch, the unread tail is *rewound*:
/// process states are restored from the recorded history and the unused
/// innovations are returned to their tiles, so the scalar path resumes
/// exactly where a never-lookahead simulator would be.
#[derive(Debug, Clone)]
struct Lookahead {
    /// Precomputed states for the batch's slots.
    states: Vec<ChannelState>,
    /// Shadowing state history, site-major with stride [`LA_STRIDE`]:
    /// entry `site·LA_STRIDE + k` is that site's state after `k`
    /// consumed batch slots (`k = 0`: the pre-batch state).
    shadow: Vec<f64>,
    /// Fading state history, same indexing (single process).
    fading: Vec<f64>,
    /// Serving index after `k` consumed slots; `usize::MAX` encodes None.
    serving: Vec<usize>,
    /// Whether the batch consumed one shadowing draw per slot (false only
    /// when environment churn is disabled).
    shadow_consumed: bool,
    /// Next unread batch entry.
    pos: usize,
    /// Batch length (`0` = no batch pending).
    len: usize,
    /// Position the batch was computed for.
    position: Position,
    /// Scratch: slot-major per-(slot, site) dBm/10 lanes for the `pow10`
    /// batch.
    pow_args: Vec<f64>,
    /// Scratch: the corresponding linear powers.
    mw: Vec<f64>,
    /// Scratch: per-slot `log10` arguments (3 lanes per slot).
    log_args: Vec<f64>,
    /// Scratch: the corresponding logarithms.
    logs: Vec<f64>,
}

impl Lookahead {
    fn new(n_sites: usize) -> Self {
        let dummy = ChannelState {
            slot: 0,
            position: Position::ORIGIN,
            serving_site: 0,
            serving_distance_m: 0.0,
            measurement: RadioMeasurement {
                rsrp_dbm: 0.0,
                rssi_dbm: 0.0,
                rsrq_db: 0.0,
                sinr_db: 0.0,
            },
            sinr_db: 0.0,
            blocked: false,
        };
        Lookahead {
            states: vec![dummy; LA_SLOTS],
            shadow: vec![0.0; n_sites * LA_STRIDE],
            fading: vec![0.0; LA_STRIDE],
            serving: vec![usize::MAX; LA_STRIDE],
            shadow_consumed: false,
            pos: 0,
            len: 0,
            position: Position::ORIGIN,
            pow_args: vec![0.0; n_sites * LA_SLOTS],
            mw: vec![0.0; n_sites * LA_SLOTS],
            log_args: vec![0.0; 3 * LA_SLOTS],
            logs: vec![0.0; 3 * LA_SLOTS],
        }
    }
}

/// Per-slot channel simulator for one UE on one carrier.
#[derive(Debug, Clone)]
pub struct ChannelSimulator {
    config: ChannelConfig,
    layout: DeploymentLayout,
    mobility: MobilityState,
    fading: FadingProcess,
    shadow: Vec<ShadowingProcess>,
    blockage: BlockageProcess,
    slot: u64,
    serving_idx: Option<usize>,
    /// Position the `large_scale` entries were computed for. `None` until
    /// the first slot.
    cache_position: Option<Position>,
    /// Per-site cached large-scale terms for `cache_position`:
    /// `(site id, ((tx_per_re − path loss) − sector) dBm, 2D distance m)`.
    /// Pure functions of position and configuration — never of RNG state —
    /// so reuse while the UE is stationary cannot perturb any stream.
    large_scale: Vec<(u32, f64, f64)>,
    /// Scratch: per-site `(site id, received per-RE power, 2D distance)`
    /// for the current slot (cache + shadowing). Reused across slots.
    rx: Vec<(u32, f64, f64)>,
    /// Scratch: non-serving per-RE powers for the current slot.
    interferers: Vec<f64>,
    /// Config-constant linear-domain noise/background terms, hoisted out
    /// of the per-slot measurement arithmetic (bit-exact: deterministic
    /// functions of the configuration).
    noise_terms: NoiseTerms,
    /// The path-loss model with its distance-independent terms hoisted —
    /// one `log10` per site per recompute instead of the model's
    /// recursive ~4–7. Bit-identical to `config.pathloss.loss_db`
    /// (see [`PathLossProfile`]); the driving fast path.
    pl_profile: PathLossProfile,
    /// Per-site `tx_per_re_dbm(site.tx_power_dbm)` — pure function of
    /// config + layout, hoisted out of the movement recompute (one
    /// `log10` per site per slot while driving).
    tx_per_re: Vec<f64>,
    /// Lookahead batch state and scratch (see [`Lookahead`]).
    la: Lookahead,
}

impl ChannelSimulator {
    /// Build a simulator. `seeds` should already be scoped to the session
    /// and carrier so repeated sessions differ.
    pub fn new(
        config: ChannelConfig,
        layout: DeploymentLayout,
        mobility: MobilityModel,
        seeds: &SeedTree,
    ) -> Self {
        let speed = mobility.speed_mps();
        let fading_cfg = FadingConfig {
            frequency_ghz: config.pathloss.frequency_ghz,
            speed_mps: speed,
            rician_k_db: config.rician_k_db,
            slot_s: config.slot_s,
        };
        let shadow = layout
            .sites
            .iter()
            .map(|s| ShadowingProcess::new(config.shadowing, seeds, &format!("site{}", s.id)))
            .collect();
        let n_sites = layout.sites.len();
        let pl_profile = config.pathloss.profile();
        let tx_per_re =
            layout.sites.iter().map(|s| config.signal.tx_per_re_dbm(s.tx_power_dbm)).collect();
        ChannelSimulator {
            fading: FadingProcess::new(fading_cfg, seeds, "serving"),
            blockage: BlockageProcess::new(config.blockage, seeds, "serving"),
            mobility: mobility.into_state(seeds),
            config,
            layout,
            shadow,
            slot: 0,
            serving_idx: None,
            cache_position: None,
            large_scale: Vec::with_capacity(n_sites),
            rx: Vec::with_capacity(n_sites),
            interferers: Vec::with_capacity(n_sites.saturating_sub(1)),
            noise_terms: config.signal.noise_terms(),
            pl_profile,
            tx_per_re,
            la: Lookahead::new(n_sites),
        }
    }

    /// Adopt another simulator's cached large-scale terms, so co-located
    /// UEs of a loaded cell pay the per-site path-loss/sector computation
    /// once instead of once per UE. Copies only when the configurations
    /// and layouts are equal **and** `other` has a populated cache;
    /// returns whether the copy happened. Safe by construction: the
    /// cached terms are pure functions of `(position, config, layout)` —
    /// never of RNG state — and [`ChannelSimulator::step_at`] recomputes
    /// on any position mismatch, so priming can never change a result,
    /// only skip redundant arithmetic.
    pub fn prime_cache_from(&mut self, other: &ChannelSimulator) -> bool {
        if other.cache_position.is_none()
            || self.config != other.config
            || self.layout != other.layout
        {
            return false;
        }
        // A pending lookahead batch was computed against the *old* cache;
        // roll it back so the next step re-derives from the adopted one.
        self.rewind_lookahead();
        self.cache_position = other.cache_position;
        self.large_scale.clone_from(&other.large_scale);
        true
    }

    /// The static configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The deployment layout.
    pub fn layout(&self) -> &DeploymentLayout {
        &self.layout
    }

    /// Advance one slot using the internal mobility model: move the
    /// walker one slot, then [`step_at`] its new position — the path a
    /// walking or driving session takes for each of its carriers.
    ///
    /// [`step_at`]: ChannelSimulator::step_at
    pub fn step(&mut self) -> ChannelState {
        let moved = self.mobility.advance(self.config.slot_s);
        let position = self.mobility.position();
        self.step_at(position, moved)
    }

    /// Advance one slot with an externally-supplied position (used when
    /// several component carriers share one UE: the CA driver advances
    /// mobility once and steps every carrier's channel at that position).
    ///
    /// Allocation-free in steady state: per-site path loss and sector
    /// attenuation are cached until the position changes (stationary UEs —
    /// most campaign sessions — pay only the shadowing/fading advance),
    /// and the per-site receive vector lives in reusable scratch buffers.
    /// Bit-identical to [`ChannelSimulator::step_at_uncached`]: the cached
    /// terms are pure functions of position/config, the RNG-consuming
    /// processes advance every slot in unchanged order, and the float
    /// expression tree `((tx − pl) − sector) + sh` is preserved exactly.
    pub fn step_at(&mut self, position: Position, moved_m: f64) -> ChannelState {
        // Lookahead: pop a precomputed slot if one is pending, or roll the
        // batch back when the caller diverged from the batched position
        // (the rewind restores every process bit-exactly, so the scalar
        // path below resumes as if the batch never ran).
        if self.la.pos < self.la.len {
            if moved_m == 0.0 && position == self.la.position {
                let state = self.la.states[self.la.pos];
                debug_assert_eq!(state.slot, self.slot, "lookahead out of step");
                self.la.pos += 1;
                self.slot += 1;
                return state;
            }
            self.rewind_lookahead();
        }
        // A stationary UE whose large-scale cache is already warm (and
        // whose carrier has no blockage process drawing per-slot RNG) has
        // no per-slot inputs at all — precompute a whole batch of slots
        // with the shadowing/fading innovations evaluated tile-wise and
        // the dB↔mW conversions in wide SIMD slices.
        if moved_m == 0.0
            && self.cache_position == Some(position)
            && !self.config.blockage.is_active()
        {
            return self.build_lookahead(position);
        }

        let slot = self.slot;
        self.slot += 1;
        let moved = moved_m;

        // Large-scale deterministic terms, recomputed only on movement —
        // and then through the hoisted profile/tx constants, so a driving
        // UE pays one log10 (+ one exp when blended) per site instead of
        // the model's recursive chain. Each substitution reproduces the
        // reference expression bit-for-bit: the profile is proven
        // bit-identical to `loss_db`, `tx_per_re` holds the exact value
        // `tx_per_re_dbm` returns, and `distances` reuses the 2D distance
        // `distance_3d` computes internally.
        if self.cache_position != Some(position) {
            self.large_scale.clear();
            for (site, &tx_re) in self.layout.sites.iter().zip(self.tx_per_re.iter()) {
                let (d2, d3) = site.distances(&position);
                let pl = self.pl_profile.loss_db(d3);
                let sector = site.sector_attenuation_db(&position);
                let base = tx_re - pl - sector;
                self.large_scale.push((site.id, base, d2));
            }
            self.cache_position = Some(position);
        }
        // Stochastic shadowing on top: advances (and draws) every slot for
        // every site, cached or not — caching must never skip an RNG draw.
        let rx = &mut self.rx;
        rx.clear();
        for (&(id, base, dist), shadow) in
            self.large_scale.iter().zip(self.shadow.iter_mut())
        {
            let sh = shadow.advance_with_time(moved, self.config.slot_s);
            rx.push((id, base + sh, dist));
        }
        // Serving-cell selection with A3-style hysteresis: stick with the
        // current cell until a neighbour beats it by the configured margin
        // (RRC signalling costs are modelled separately in the RAN layer).
        let (best_idx, _) = rx
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("powers are finite"))
            .expect("layout is non-empty");
        let serving_idx = match self.serving_idx {
            Some(cur) if cur < rx.len() => {
                if rx[best_idx].1 > rx[cur].1 + self.config.handover_hysteresis_db {
                    best_idx
                } else {
                    cur
                }
            }
            _ => best_idx,
        };
        self.serving_idx = Some(serving_idx);
        let (serving_site, serving_re_dbm, serving_distance_m) = rx[serving_idx];
        self.interferers.clear();
        for (i, &(_, p, _)) in rx.iter().enumerate() {
            if i != serving_idx {
                self.interferers.push(p);
            }
        }

        let measurement = RadioMeasurement::compute_with_terms(
            &self.config.signal,
            &self.noise_terms,
            serving_re_dbm,
            &self.interferers,
        );

        // Small-scale on top of the mean SINR.
        let fading_db = self.fading.advance_slot();
        let blockage_db = self.blockage.advance(self.config.slot_s, moved);
        let sinr_db =
            measurement.sinr_db + self.config.sinr_offset_db + fading_db - blockage_db;

        ChannelState {
            slot,
            position,
            serving_site,
            serving_distance_m,
            measurement: RadioMeasurement {
                sinr_db: measurement.sinr_db + self.config.sinr_offset_db,
                ..measurement
            },
            sinr_db,
            blocked: blockage_db > 0.0,
        }
    }

    /// Precompute up to [`LA_SLOTS`] stationary slots at `position` from
    /// the warm large-scale cache and return the first, leaving the rest
    /// for [`step_at`] to pop.
    ///
    /// Bit-identity argument, piece by piece:
    /// * each shadowing/fading process advances through the same AR(1)
    ///   recurrence, drawing the same innovations in the same per-stream
    ///   order as `LA` sequential slots would (batches never cross a tile
    ///   refill, so the prefetch grouping is unchanged);
    /// * serving selection replays the scalar `max_by` + hysteresis per
    ///   slot, sequentially, on the same `base + sh` powers;
    /// * the `pow10`/`log10` conversions use the same argument expression
    ///   trees, and `vmath` slice lanes equal its scalar calls for every
    ///   input regardless of how lanes are grouped;
    /// * blockage is gated inactive, which the scalar path evaluates as a
    ///   `0.0` contribution and zero RNG draws — and `x − 0.0 == x`
    ///   bitwise for every float the SINR sum can produce.
    ///
    /// [`step_at`]: ChannelSimulator::step_at
    fn build_lookahead(&mut self, position: Position) -> ChannelState {
        let slot_s = self.config.slot_s;
        let n_sites = self.large_scale.len();
        // Batch length: every process's run must stay inside its current
        // innovation tile so an abandoned tail can be rewound. Shadowing
        // only consumes draws when environment churn is enabled.
        let mut len = LA_SLOTS;
        let shadow_consumed = self.config.shadowing.env_speed_mps * slot_s > 0.0;
        if shadow_consumed {
            for sh in self.shadow.iter_mut() {
                len = len.min(sh.lookahead_capacity());
            }
        }
        len = len.min(self.fading.lookahead_capacity());

        // Record pre-batch states, then advance every process `len` slots.
        let la = &mut self.la;
        for (p, sh) in self.shadow.iter_mut().enumerate() {
            let base = p * LA_STRIDE;
            la.shadow[base] = sh.value_db();
            sh.advance_lookahead(slot_s, &mut la.shadow[base + 1..base + 1 + len]);
        }
        la.fading[0] = self.fading.value_db();
        self.fading.advance_lookahead(&mut la.fading[1..=len]);
        la.serving[0] = self.serving_idx.unwrap_or(usize::MAX);

        // Per-site per-slot received powers (`base + sh`, slot-major) and
        // the per-slot serving selection, replayed sequentially so the
        // hysteresis chain matches the scalar path.
        for b in 0..len {
            let row = b * n_sites;
            for (p, &(_, base, _)) in self.large_scale.iter().enumerate() {
                la.pow_args[row + p] = base + la.shadow[p * LA_STRIDE + 1 + b];
            }
        }
        let mut serving = self.serving_idx;
        for b in 0..len {
            let row = &la.pow_args[b * n_sites..(b + 1) * n_sites];
            let (best_idx, _) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("powers are finite"))
                .expect("layout is non-empty");
            let serving_idx = match serving {
                Some(cur) if cur < n_sites => {
                    if row[best_idx] > row[cur] + self.config.handover_hysteresis_db {
                        best_idx
                    } else {
                        cur
                    }
                }
                _ => best_idx,
            };
            serving = Some(serving_idx);
            la.serving[b + 1] = serving_idx;
        }
        self.serving_idx = serving;

        // All dBm→mW conversions of the batch in one SIMD pass …
        for v in la.pow_args[..len * n_sites].iter_mut() {
            *v /= 10.0;
        }
        vmath::pow10_slice(&la.pow_args[..len * n_sites], &mut la.mw[..len * n_sites]);

        // … then the three per-slot dB outputs in one `log10` pass.
        let nrb = self.config.signal.n_rb as f64;
        for b in 0..len {
            let serving_idx = la.serving[b + 1];
            let row = &la.mw[b * n_sites..(b + 1) * n_sites];
            let s = row[serving_idx];
            let mut interference = 0.0;
            for (p, &mw) in row.iter().enumerate() {
                if p != serving_idx {
                    interference += mw;
                }
            }
            let i = interference * self.config.signal.neighbor_load
                + self.noise_terms.background_mw;
            let n = self.noise_terms.noise_mw;
            let rssi_per_re = self.config.signal.serving_load * s + i + n;
            la.log_args[b * 3] = (rssi_per_re * 12.0 * nrb).max(1e-30);
            la.log_args[b * 3 + 1] = nrb * s / (rssi_per_re * 12.0 * nrb);
            la.log_args[b * 3 + 2] = s / (i + n);
        }
        vmath::log10_slice(&la.log_args[..3 * len], &mut la.logs[..3 * len]);

        let first_slot = self.slot;
        for b in 0..len {
            let serving_idx = la.serving[b + 1];
            let (serving_site, base, serving_distance_m) = self.large_scale[serving_idx];
            let serving_re_dbm = base + la.shadow[serving_idx * LA_STRIDE + 1 + b];
            let mean_sinr_db = 10.0 * la.logs[b * 3 + 2] + self.config.sinr_offset_db;
            la.states[b] = ChannelState {
                slot: first_slot + b as u64,
                position,
                serving_site,
                serving_distance_m,
                measurement: RadioMeasurement {
                    rsrp_dbm: serving_re_dbm,
                    rssi_dbm: 10.0 * la.logs[b * 3],
                    rsrq_db: 10.0 * la.logs[b * 3 + 1],
                    sinr_db: mean_sinr_db,
                },
                // Blockage is inactive (`step_at` gates on it): the
                // scalar path adds `fading − 0.0`, bitwise `+ fading`.
                sinr_db: mean_sinr_db + la.fading[1 + b],
                blocked: false,
            };
        }
        la.len = len;
        la.pos = 1;
        la.position = position;
        la.shadow_consumed = shadow_consumed;
        self.slot += 1;
        la.states[0]
    }

    /// Roll back the unread tail of a pending lookahead batch: restore the
    /// shadowing/fading states and serving index recorded at the last
    /// *consumed* slot and return the unused innovations to their tiles.
    /// After this the simulator is bit-identical to one that only ever
    /// stepped slot by slot up to `self.slot`.
    fn rewind_lookahead(&mut self) {
        let unread = self.la.len - self.la.pos;
        if unread > 0 {
            let k = self.la.pos;
            let shadow_unread = if self.la.shadow_consumed { unread } else { 0 };
            for (p, sh) in self.shadow.iter_mut().enumerate() {
                sh.rewind_lookahead(shadow_unread, self.la.shadow[p * LA_STRIDE + k]);
            }
            self.fading.rewind_lookahead(unread, self.la.fading[k]);
            self.serving_idx = match self.la.serving[k] {
                usize::MAX => None,
                i => Some(i),
            };
        }
        self.la.pos = 0;
        self.la.len = 0;
    }

    /// The pre-optimisation reference implementation of [`step_at`]:
    /// recomputes every large-scale term, every process coefficient
    /// (shadowing ρ, fading ρ/σ, noise terms) and heap-allocates the
    /// per-site vectors each slot. Kept verbatim so property tests can
    /// assert the cached path is bit-identical and so `perf_baseline` can
    /// record the uncached slots/sec alongside the cached number.
    ///
    /// [`step_at`]: ChannelSimulator::step_at
    pub fn step_at_uncached(&mut self, position: Position, moved_m: f64) -> ChannelState {
        // Callers may interleave cached and uncached stepping on one
        // simulator; a pending lookahead batch must be rolled back first.
        self.rewind_lookahead();
        let slot = self.slot;
        self.slot += 1;
        let moved = moved_m;

        // Large-scale: per-site received per-RE power.
        let mut rx: Vec<(u32, f64, f64)> = Vec::with_capacity(self.layout.sites.len());
        for (site, shadow) in self.layout.sites.iter().zip(self.shadow.iter_mut()) {
            let sh = shadow.advance_with_time_uncached(moved, self.config.slot_s);
            let pl = self.config.pathloss.loss_db(site.distance_3d(&position));
            let sector = site.sector_attenuation_db(&position);
            let p = self.config.signal.tx_per_re_dbm(site.tx_power_dbm) - pl - sector + sh;
            rx.push((site.id, p, site.position.distance_to(&position)));
        }
        let (best_idx, _) = rx
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("powers are finite"))
            .expect("layout is non-empty");
        let serving_idx = match self.serving_idx {
            Some(cur) if cur < rx.len() => {
                if rx[best_idx].1 > rx[cur].1 + self.config.handover_hysteresis_db {
                    best_idx
                } else {
                    cur
                }
            }
            _ => best_idx,
        };
        self.serving_idx = Some(serving_idx);
        let (serving_site, serving_re_dbm, serving_distance_m) = rx[serving_idx];
        let interferers: Vec<f64> = rx
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != serving_idx)
            .map(|(_, &(_, p, _))| p)
            .collect();

        let measurement =
            RadioMeasurement::compute(&self.config.signal, serving_re_dbm, &interferers);

        let fading_db = self.fading.advance_slot_uncached();
        let blockage_db = self.blockage.advance(self.config.slot_s, moved);
        let sinr_db =
            measurement.sinr_db + self.config.sinr_offset_db + fading_db - blockage_db;

        ChannelState {
            slot,
            position,
            serving_site,
            serving_distance_m,
            measurement: RadioMeasurement {
                sinr_db: measurement.sinr_db + self.config.sinr_offset_db,
                ..measurement
            },
            sinr_db,
            blocked: blockage_db > 0.0,
        }
    }

    /// Advance one slot through the uncached reference path using the
    /// internal mobility model (the uncached counterpart of [`step`]).
    ///
    /// [`step`]: ChannelSimulator::step
    pub fn step_uncached(&mut self) -> ChannelState {
        let moved = self.mobility.advance(self.config.slot_s);
        let position = self.mobility.position();
        self.step_at_uncached(position, moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::GnbSite;

    fn sim(layout: DeploymentLayout, mobility: MobilityModel, seed: u64) -> ChannelSimulator {
        ChannelSimulator::new(
            ChannelConfig::midband_urban(245),
            layout,
            mobility,
            &SeedTree::new(seed),
        )
    }

    #[test]
    fn stationary_ue_drifts_only_slowly() {
        // A stationary UE's large-scale signal evolves through environment
        // churn, but over half a second the drift stays well within one
        // shadowing sigma (the churn decorrelation time is ~75 s).
        let mut s = sim(
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: Position::new(80.0, 0.0) },
            1,
        );
        let first = s.step();
        let mut max_drift: f64 = 0.0;
        for _ in 0..1000 {
            let st = s.step();
            max_drift = max_drift.max((st.measurement.rsrp_dbm - first.measurement.rsrp_dbm).abs());
            assert_eq!(st.serving_site, first.serving_site);
        }
        assert!(max_drift > 0.0, "churn must move the large scale a little");
        assert!(max_drift < 4.0, "drift {max_drift} dB too fast for 0.5 s");
    }

    #[test]
    fn fading_moves_the_instantaneous_sinr() {
        let mut s = sim(
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: Position::new(80.0, 0.0) },
            2,
        );
        let states: Vec<ChannelState> = (0..2000).map(|_| s.step()).collect();
        let mean_sinr =
            states.iter().map(|st| st.sinr_db).sum::<f64>() / states.len() as f64;
        let large_scale = states[0].measurement.sinr_db;
        assert!((mean_sinr - large_scale).abs() < 1.0, "{mean_sinr} vs {large_scale}");
        let any_motion = states.windows(2).any(|w| w[0].sinr_db != w[1].sinr_db);
        assert!(any_motion);
    }

    #[test]
    fn closer_ue_sees_better_sinr() {
        let run = |x: f64| {
            let mut s = sim(
                DeploymentLayout::single_site(),
                MobilityModel::Stationary { position: Position::new(x, 0.0) },
                3,
            );
            (0..500).map(|_| s.step().sinr_db).sum::<f64>() / 500.0
        };
        assert!(run(40.0) > run(400.0) + 10.0);
    }

    #[test]
    fn dense_layout_improves_rsrq() {
        // The Fig. 7 contrast: average RSRQ along the same walk is better
        // under the 3-site layout than the 2-site layout.
        let walk = || MobilityModel::Route {
            waypoints: vec![
                Position::new(-200.0, -60.0),
                Position::new(200.0, -60.0),
                Position::new(200.0, 60.0),
                Position::new(-200.0, 60.0),
            ],
            speed_mps: 1.4,
        };
        let averages = |layout: DeploymentLayout| {
            let mut s = sim(layout, walk(), 4);
            let n = 40_000;
            let mut rsrp = 0.0;
            let mut rsrq = 0.0;
            let mut sinr = 0.0;
            for _ in 0..n {
                let st = s.step();
                rsrp += st.measurement.rsrp_dbm;
                rsrq += st.measurement.rsrq_db;
                sinr += st.measurement.sinr_db;
            }
            (rsrp / n as f64, rsrq / n as f64, sinr / n as f64)
        };
        let (rsrp_s, rsrq_s, sinr_s) = averages(DeploymentLayout::two_site_sparse());
        let (rsrp_d, rsrq_d, sinr_d) = averages(DeploymentLayout::three_site_dense());
        assert!(rsrp_d > rsrp_s + 3.0, "RSRP dense {rsrp_d} vs sparse {rsrp_s}");
        assert!(sinr_d > sinr_s, "SINR dense {sinr_d} vs sparse {sinr_s}");
        assert!(rsrq_d > rsrq_s - 0.2, "RSRQ dense {rsrq_d} vs sparse {rsrq_s}");
    }

    #[test]
    fn handover_to_nearest_site_while_driving() {
        let layout = DeploymentLayout::new(vec![
            GnbSite::macro_site(1, Position::new(-300.0, 0.0)),
            GnbSite::macro_site(2, Position::new(300.0, 0.0)),
        ]);
        let route = MobilityModel::Route {
            waypoints: vec![Position::new(-300.0, 20.0), Position::new(300.0, 20.0)],
            speed_mps: 11.0,
        };
        let mut s = sim(layout, route, 5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..120_000 {
            seen.insert(s.step().serving_site);
        }
        assert_eq!(seen.len(), 2, "both sites should serve along the route");
    }

    #[test]
    fn mmwave_blockage_causes_deep_dips() {
        let cfg = ChannelConfig::mmwave_urban(264);
        let mut s = ChannelSimulator::new(
            cfg,
            DeploymentLayout::single_site(),
            MobilityModel::walking(Position::new(60.0, 0.0), 40.0),
            &SeedTree::new(6),
        );
        let states: Vec<ChannelState> = (0..400_000).map(|_| s.step()).collect();
        let blocked: Vec<&ChannelState> = states.iter().filter(|st| st.blocked).collect();
        assert!(!blocked.is_empty(), "expected some blockage while walking");
        let mean_blocked =
            blocked.iter().map(|st| st.sinr_db).sum::<f64>() / blocked.len() as f64;
        let unblocked: Vec<&ChannelState> = states.iter().filter(|st| !st.blocked).collect();
        let mean_clear =
            unblocked.iter().map(|st| st.sinr_db).sum::<f64>() / unblocked.len() as f64;
        assert!(mean_clear - mean_blocked > 15.0, "{mean_clear} vs {mean_blocked}");
    }

    #[test]
    fn sectored_site_shapes_coverage() {
        use crate::antenna::SectorPattern;
        use crate::geometry::GnbSite;
        // One site pointing east: a UE to the east sees ~30 dB more signal
        // than a UE to the west at the same distance.
        let east_facing = DeploymentLayout::new(vec![
            GnbSite::macro_site(1, Position::ORIGIN).with_sector(SectorPattern::standard(0.0)),
        ]);
        let mean_rsrp = |x: f64, seed: u64| {
            let mut s = ChannelSimulator::new(
                ChannelConfig::midband_urban(245),
                east_facing.clone(),
                MobilityModel::Stationary { position: Position::new(x, 0.0) },
                &SeedTree::new(seed),
            );
            (0..500).map(|_| s.step().measurement.rsrp_dbm).sum::<f64>() / 500.0
        };
        let front = mean_rsrp(120.0, 7);
        let back = mean_rsrp(-120.0, 7);
        assert!(
            front - back > 20.0,
            "front {front} vs back {back} (expected ~30 dB front-to-back)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            sim(
                DeploymentLayout::three_site_dense(),
                MobilityModel::walking(Position::ORIGIN, 100.0),
                42,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..500 {
            let sa = a.step();
            let sb = b.step();
            assert_eq!(sa.sinr_db, sb.sinr_db);
            assert_eq!(sa.serving_site, sb.serving_site);
        }
    }

    #[test]
    fn cached_step_bit_identical_to_uncached() {
        // Driving route: the cache recomputes every slot; stationary tail:
        // the cache hits every slot. Both must match the reference exactly.
        let mk = || {
            sim(
                DeploymentLayout::three_site_dense(),
                MobilityModel::walking(Position::ORIGIN, 100.0),
                9,
            )
        };
        let mut cached = mk();
        let mut reference = mk();
        for _ in 0..2000 {
            assert_eq!(cached.step(), reference.step_uncached());
        }
        let pos = Position::new(55.0, -20.0);
        for _ in 0..2000 {
            assert_eq!(cached.step_at(pos, 0.0), reference.step_at_uncached(pos, 0.0));
        }
    }

    #[test]
    fn primed_cache_is_bit_identical_and_skips_recompute() {
        // Two UEs at the same spot with different seeds: after UE 0 steps
        // once, UE 1 adopts its large-scale cache. Every subsequent state
        // must equal an unprimed replica's, bit for bit — priming only
        // skips arithmetic that would have produced the same floats.
        let pos = Position::new(85.0, -10.0);
        let layout = DeploymentLayout::three_site_dense;
        let mk = |seed: u64| {
            ChannelSimulator::new(
                ChannelConfig::midband_urban(245),
                layout(),
                MobilityModel::Stationary { position: pos },
                &SeedTree::new(seed),
            )
        };
        let mut leader = mk(31);
        leader.step_at(pos, 0.0);
        let mut primed = mk(32);
        let mut replica = mk(32);
        assert!(primed.prime_cache_from(&leader), "same config+layout must prime");
        for _ in 0..500 {
            assert_eq!(primed.step_at(pos, 0.0), replica.step_at(pos, 0.0));
        }
        // Mismatched layouts refuse to prime; an unstepped leader has no
        // cache to offer.
        let mut other_layout = ChannelSimulator::new(
            ChannelConfig::midband_urban(245),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &SeedTree::new(33),
        );
        assert!(!other_layout.prime_cache_from(&leader));
        assert!(!mk(34).prime_cache_from(&mk(35)));
    }

    #[test]
    fn driving_step_matches_uncached_on_route() {
        // Driving a waypoint route through `step()` (walker advanced one
        // slot, then the per-slot cached `step_at`, corner turns included)
        // must equal the uncached reference.
        let mk = || {
            sim(
                DeploymentLayout::three_site_dense(),
                MobilityModel::driving_loop(Position::ORIGIN, 150.0),
                13,
            )
        };
        let mut cached = mk();
        let mut reference = mk();
        for i in 0..60_000 {
            assert_eq!(cached.step(), reference.step_uncached(), "slot {i}");
        }
    }

    #[test]
    fn step_rewinds_still_batches_for_interleaved_calls() {
        // Interleaving mobility-driven step() with caller-positioned
        // stationary step_at() must match a reference that mixes the same
        // sequence through the uncached lanes: the second stationary slot
        // builds a still batch, and the next step() (or, every third
        // round, step_uncached()) abandons it mid-batch and rewinds it.
        let mk = || {
            sim(
                DeploymentLayout::three_site_dense(),
                MobilityModel::walking(Position::ORIGIN, 80.0),
                29,
            )
        };
        let mut mixed = mk();
        let mut reference = mk();
        let spot = Position::new(30.0, 12.0);
        for round in 0..30 {
            for _ in 0..(3 + round % 7) {
                assert_eq!(mixed.step(), reference.step_uncached(), "round {round}");
            }
            for _ in 0..2 {
                assert_eq!(
                    mixed.step_at(spot, 0.0),
                    reference.step_at_uncached(spot, 0.0),
                    "round {round}"
                );
            }
            if round % 3 == 0 {
                assert_eq!(mixed.step_uncached(), reference.step_uncached(), "round {round}");
            }
        }
    }

    #[test]
    fn lookahead_rewind_on_movement_is_bit_exact() {
        // Stationary stretches build lookahead batches; popping 5 then
        // moving abandons each batch mid-flight. The rewind must
        // restore every process exactly, so the whole interleaved run
        // matches a reference that only ever steps the scalar path.
        let mk = || {
            sim(
                DeploymentLayout::three_site_dense(),
                MobilityModel::Stationary { position: Position::ORIGIN },
                17,
            )
        };
        let mut cached = mk();
        let mut reference = mk();
        let spot = Position::new(42.0, -7.0);
        let step_m = 11.0 * 0.5e-3;
        for round in 0..40 {
            for _ in 0..5 {
                assert_eq!(cached.step_at(spot, 0.0), reference.step_at_uncached(spot, 0.0));
            }
            // Invalidate the three unread slots: the UE moves.
            let pos = Position::new(42.0 + round as f64, -7.0);
            assert_eq!(cached.step_at(pos, step_m), reference.step_at_uncached(pos, step_m));
            // And once more at the old spot but with motion (same position,
            // nonzero delta must also invalidate).
            assert_eq!(cached.step_at(spot, step_m), reference.step_at_uncached(spot, step_m));
        }
    }

    #[test]
    fn mixed_cached_uncached_stepping_rewinds_lookahead() {
        // Interleaving step_at and step_at_uncached on one simulator must
        // match a pure-uncached reference: the uncached entry point rolls
        // back any pending lookahead batch first.
        let spot = Position::new(60.0, 10.0);
        let mk = || {
            sim(
                DeploymentLayout::single_site(),
                MobilityModel::Stationary { position: spot },
                23,
            )
        };
        let mut mixed = mk();
        let mut reference = mk();
        for i in 0..200u32 {
            let a = if i % 7 == 3 {
                mixed.step_at_uncached(spot, 0.0)
            } else {
                mixed.step_at(spot, 0.0)
            };
            assert_eq!(a, reference.step_at_uncached(spot, 0.0), "slot {i}");
        }
    }

    #[test]
    fn priming_mid_batch_rewinds_pending_lookahead() {
        // Adopting another simulator's cache mid-batch discards the batch
        // (it was computed against the old cache) without losing state.
        let pos = Position::new(85.0, -10.0);
        let mk = |seed: u64| {
            ChannelSimulator::new(
                ChannelConfig::midband_urban(245),
                DeploymentLayout::three_site_dense(),
                MobilityModel::Stationary { position: pos },
                &SeedTree::new(seed),
            )
        };
        let mut leader = mk(41);
        leader.step_at(pos, 0.0);
        let mut primed = mk(42);
        let mut replica = mk(42);
        for _ in 0..3 {
            assert_eq!(primed.step_at(pos, 0.0), replica.step_at_uncached(pos, 0.0));
        }
        assert!(primed.prime_cache_from(&leader));
        for _ in 0..20 {
            assert_eq!(primed.step_at(pos, 0.0), replica.step_at_uncached(pos, 0.0));
        }
    }
}
