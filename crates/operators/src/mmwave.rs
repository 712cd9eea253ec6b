//! Verizon's FR2 (mmWave) deployment — the §7 comparison point.
//!
//! n261 at 28 GHz, modelled as a single 400 MHz carrier at µ=3 (the paper
//! compares against aggregate mmWave service; Verizon aggregates 100 MHz
//! FR2 CCs to this order of bandwidth). Beamformed links give a large SINR
//! gain when clear, but the blockage process makes the channel erratic —
//! §7's walking/driving variability findings.

use crate::profile::{CarrierProfile, CoverageProfile, OperatorProfile};
use nr_phy::band::Band;
use nr_phy::bandwidth::{max_transmission_bandwidth, ChannelBandwidth};
use nr_phy::cqi::{CqiTable, CqiToMcsPolicy};
use nr_phy::numerology::Numerology;
use nr_phy::tdd::{SpecialSlotConfig, TddPattern};
use radio_channel::geometry::{DeploymentLayout, GnbSite, Position};
use radio_channel::link::RankProfile;
use ran::config::{CellConfig, UplinkRouting};

/// Verizon 28 GHz mmWave profile.
pub fn verizon_mmwave() -> OperatorProfile {
    let bandwidth = ChannelBandwidth::from_mhz(400);
    let numerology = Numerology::Mu3;
    let n_rb = max_transmission_bandwidth(bandwidth, numerology)
        .expect("400 MHz at 120 kHz is defined");
    let cell = CellConfig {
        band: Band::N261,
        bandwidth,
        numerology,
        n_rb,
        tdd: Some(
            TddPattern::parse("DDDSU", SpecialSlotConfig::DL_HEAVY).expect("static pattern"),
        ),
        mcs_policy: CqiToMcsPolicy::neutral(CqiTable::Table2),
        // Commercial FR2 runs 2×2 MIMO on the data channel.
        max_dl_layers: 2,
        max_ul_layers: 1,
        ul_rb_fraction: 0.5,
        ul_max_mcs: 20,
    };

    // Small-cell style sites: dense, low power handled by the FR2 channel
    // config's beamforming offset.
    let layout = DeploymentLayout::new(vec![
        GnbSite { id: 1, position: Position::new(-90.0, 0.0), height_m: 10.0, tx_power_dbm: 40.0, sector: None },
        GnbSite { id: 2, position: Position::new(90.0, 30.0), height_m: 10.0, tx_power_dbm: 40.0, sector: None },
        GnbSite { id: 3, position: Position::new(0.0, -80.0), height_m: 10.0, tx_power_dbm: 40.0, sector: None },
    ]);

    OperatorProfile {
        display_name: "Verizon US (mmWave n261)",
        country: "USA",
        city: "Chicago",
        carriers: vec![CarrierProfile { cell, sinr_offset_db: 0.0, rician_k_db: 9.0 }],
        routing: UplinkRouting::NrAboveCqi { threshold: 5 },
        coverage: CoverageProfile {
            layout,
            rank_profile: RankProfile {
                rank2_db: 8.0,
                rank3_db: 99.0, // rank caps at 2 on FR2 data channels
                rank4_db: 99.0,
                hysteresis_db: 1.0,
            },
            neighbor_load: 0.2,
        },
        ca_description: "FR2 (8×100 MHz class)",
        table_bandwidth_label: Some("400"),
        table_nrb_label: Some("264"),
    }
}
