//! The 4G LTE anchor of an NSA (EN-DC) deployment.
//!
//! In NSA, the UE keeps an LTE leg alive; §4.2 of the paper finds that
//! operators route much of the uplink there ("T-Mobile prefers to utilize
//! the LTE connection rather than the 5G NR connection for UL") because
//! low-band/mid-band LTE has larger coverage and, with FDD, no TDD uplink
//! starvation. The model is a 1 ms-subframe rate process driven by the
//! anchor's own (lower-frequency, better-coverage) channel. Every studied
//! deployment anchors on the same 20 MHz LTE carrier, so its parameters
//! are constants of this module.

use crate::kpi::{Direction, SlotKpi};
use nr_phy::mcs::Modulation;
use radio_channel::channel::{ChannelConfig, ChannelSimulator};
use radio_channel::geometry::Position;

/// Marker value for the `carrier` field of LTE KPI records.
pub const LTE_CARRIER_INDEX: u8 = 200;

/// Carrier bandwidth in PRBs (20 MHz → 100).
const N_PRB: u16 = 100;
/// Spectral-efficiency cap, bits/symbol (UL 64QAM, power-limited: ≈ 5.0
/// is what commercial 20 MHz LTE UL peaks near 70 Mbps implies).
const MAX_SE: f64 = 5.0;
/// Fraction of REs lost to reference signals and control.
const OVERHEAD: f64 = 0.2;

/// The LTE anchor leg: its own channel simulator (lower carrier frequency,
/// hence better propagation) plus the subframe rate model.
#[derive(Debug, Clone)]
pub struct LteAnchor {
    channel: ChannelSimulator,
    subframe: u64,
}

impl LteAnchor {
    /// Build the anchor from an already-configured channel simulator
    /// (operator profiles pick the anchor band's frequency and layout).
    pub fn new(channel: ChannelSimulator) -> Self {
        LteAnchor { channel, subframe: 0 }
    }

    /// A default anchor channel config at 1.9 GHz on a layout.
    pub fn default_channel_config() -> ChannelConfig {
        let mut cfg = ChannelConfig::midband_urban(100);
        cfg.pathloss =
            radio_channel::pathloss::PathLossModel::new(radio_channel::Scenario::UmaBlended, 1.9);
        // LTE anchor slots are 1 ms subframes.
        cfg.slot_s = 1e-3;
        cfg.signal.scs_khz = 15;
        cfg.signal.n_rb = 100;
        cfg
    }

    /// Advance one 1 ms subframe and return the UL KPI record.
    pub fn step_ul(&mut self, position: Position, moved_m: f64) -> SlotKpi {
        let subframe = self.subframe;
        self.subframe += 1;
        let time_s = subframe as f64 * 1e-3;
        let ch = self.channel.step_at(position, moved_m);

        // UL power budget penalty, as in the NR UL model.
        let sinr = ch.sinr_db - 6.0;
        let se = (0.75 * (1.0 + 10f64.powf(sinr / 10.0)).log2()).min(MAX_SE);
        let re = N_PRB as f64 * 12.0 * 14.0 * (1.0 - OVERHEAD);
        let bits = (re * se) as u32;

        SlotKpi {
            slot: subframe,
            time_s,
            carrier: LTE_CARRIER_INDEX,
            direction: Direction::Ul,
            scheduled: true,
            n_prb: N_PRB,
            n_re: re as u32,
            mcs: 0,
            modulation: Modulation::Qam64,
            layers: 1,
            tbs_bits: bits,
            delivered_bits: bits,
            is_retx: false,
            block_error: false,
            cqi: radio_channel::link::sinr_to_cqi(sinr, nr_phy::cqi::CqiTable::Table1).value(),
            sinr_db: sinr,
            rsrp_dbm: ch.measurement.rsrp_dbm,
            rsrq_db: ch.measurement.rsrq_db,
            serving_site: ch.serving_site,
            queue_bits: 0,
            queue_delay_ms: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_channel::geometry::DeploymentLayout;
    use radio_channel::mobility::MobilityModel;
    use radio_channel::rng::SeedTree;

    fn anchor(distance: f64, seed: u64) -> (LteAnchor, Position) {
        let pos = Position::new(distance, 0.0);
        let channel = ChannelSimulator::new(
            LteAnchor::default_channel_config(),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &SeedTree::new(seed),
        );
        (LteAnchor::new(channel), pos)
    }

    #[test]
    fn good_coverage_ul_near_70mbps() {
        // The paper's Fig. 10 LTE_US panel: 72.6 Mbps at CQI ≥ 12.
        let (mut a, pos) = anchor(80.0, 1);
        let mut bits = 0u64;
        for _ in 0..5000 {
            bits += a.step_ul(pos, 0.0).delivered_bits as u64;
        }
        let mbps = bits as f64 / 5.0 / 1e6;
        assert!(mbps > 45.0 && mbps < 85.0, "LTE UL {mbps} Mbps");
    }

    #[test]
    fn weak_coverage_degrades_but_survives() {
        let good = {
            let (mut a, pos) = anchor(80.0, 2);
            (0..2000).map(|_| a.step_ul(pos, 0.0).delivered_bits as u64).sum::<u64>()
        };
        let weak = {
            let (mut a, pos) = anchor(700.0, 2);
            (0..2000).map(|_| a.step_ul(pos, 0.0).delivered_bits as u64).sum::<u64>()
        };
        assert!(weak < good);
        assert!(weak > 0, "LTE keeps working at range (the paper's coverage point)");
    }

    #[test]
    fn lte_records_are_marked() {
        let (mut a, pos) = anchor(100.0, 3);
        let kpi = a.step_ul(pos, 0.0);
        assert_eq!(kpi.carrier, LTE_CARRIER_INDEX);
        assert_eq!(kpi.direction, Direction::Ul);
    }
}
