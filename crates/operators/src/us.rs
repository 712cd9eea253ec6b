//! U.S. operator profiles (paper Table 3).
//!
//! The U.S. mid-band spectrum is fragmented, so all three operators run
//! carrier aggregation (§3.1): T-Mobile combines n41 TDD channels with n25
//! FDD channels (up to 180 MHz aggregate), Verizon and AT&T pair their
//! C-band blocks with low-band anchors. T-Mobile's NSA deployment routes
//! the uplink to LTE (§4.2, Fig. 10).

use crate::profile::{CarrierProfile, CoverageProfile, OperatorProfile};
use nr_phy::band::Band;
use nr_phy::numerology::Numerology;
use radio_channel::geometry::DeploymentLayout;
use radio_channel::link::RankProfile;
use ran::config::{CellConfig, UplinkRouting};

fn us_coverage(dense: bool) -> CoverageProfile {
    CoverageProfile {
        layout: if dense {
            DeploymentLayout::three_site_dense()
        } else {
            DeploymentLayout::two_site_sparse()
        },
        rank_profile: RankProfile::default(),
        neighbor_load: 0.5,
    }
}

/// T-Mobile US (Chicago): n41 100+40 MHz TDD + n25 20+5 MHz FDD, all
/// aggregated (the paper observed up to four CCs / 180 MHz aggregates,
/// Appendix 10.5 / Fig. 23).
///
/// Paper targets: DL mean ≈ 1.2 Gbps with CA; NR UL 23.8 Mbps (CQI ≥ 12)
/// because the UL rides LTE ("T-Mobile prefers to utilize the LTE
/// connection", Fig. 10's LTE_US panel: 72.6 Mbps).
pub fn tmobile() -> OperatorProfile {
    let mut n41_primary = CellConfig::midband(100, "DDDSU");
    n41_primary.band = Band::N41;
    n41_primary.ul_rb_fraction = 0.35;
    n41_primary.ul_max_mcs = 22;
    let mut n41_secondary = CellConfig::midband(40, "DDDSU");
    n41_secondary.band = Band::N41;
    let n25_20 = CellConfig::fdd(Band::N25, 20, Numerology::Mu0);
    let n25_5 = CellConfig::fdd(Band::N25, 5, Numerology::Mu0);

    OperatorProfile {
        display_name: "T-Mobile US",
        country: "USA",
        city: "Chicago",
        carriers: vec![
            CarrierProfile { cell: n41_primary, sinr_offset_db: 3.0, rician_k_db: 7.0 },
            CarrierProfile { cell: n41_secondary, sinr_offset_db: 3.0, rician_k_db: 7.0 },
            CarrierProfile { cell: n25_20, sinr_offset_db: 3.0, rician_k_db: 8.0 },
            CarrierProfile { cell: n25_5, sinr_offset_db: 3.0, rician_k_db: 8.0 },
        ],
        routing: UplinkRouting::LteOnly,
        coverage: us_coverage(true),
        ca_description: "Mid + Mid-Band",
        table_bandwidth_label: Some("20+5, 100+40"),
        table_nrb_label: Some("51 + 11, 273 + 106"),
    }
}

/// Verizon US (Chicago): 60 MHz C-band (upper n78 range, deployed as n77)
/// aggregated with a low-band FDD anchor.
///
/// Paper targets: DL mean ≈ 1.3 Gbps with CA (the best U.S. box in
/// Fig. 1); NR UL 46.4 Mbps at CQI ≥ 12, 13.0 below CQI 10.
pub fn verizon() -> OperatorProfile {
    let mut cband = CellConfig::midband(60, "DDDSU");
    cband.band = Band::N77;
    cband.ul_rb_fraction = 0.8;
    cband.ul_max_mcs = 24;
    let lowband = CellConfig::fdd(Band::N71, 20, Numerology::Mu0);

    OperatorProfile {
        display_name: "Verizon US",
        country: "USA",
        city: "Chicago",
        carriers: vec![
            CarrierProfile { cell: cband, sinr_offset_db: 9.0, rician_k_db: 10.0 },
            CarrierProfile { cell: lowband, sinr_offset_db: 9.0, rician_k_db: 10.0 },
        ],
        routing: UplinkRouting::NrAboveCqi { threshold: 5 },
        coverage: us_coverage(true),
        ca_description: "Mid + Low-Band",
        table_bandwidth_label: Some("60"),
        table_nrb_label: Some("162"),
    }
}

/// AT&T US (Chicago): 40 MHz C-band.
///
/// Paper targets: DL mean ≈ 0.4 Gbps (the trailing U.S. box of Fig. 1 —
/// the narrow 40 MHz block dominates); NR UL 20.5 Mbps at CQI ≥ 12 and
/// 0.3 Mbps below CQI 10 (the most coverage-sensitive UL).
pub fn att() -> OperatorProfile {
    let mut cband = CellConfig::midband(40, "DDDSU");
    cband.band = Band::N77;
    cband.ul_rb_fraction = 0.9;
    cband.ul_max_mcs = 20;

    OperatorProfile {
        display_name: "AT&T US",
        country: "USA",
        city: "Chicago",
        carriers: vec![CarrierProfile { cell: cband, sinr_offset_db: 3.0, rician_k_db: 6.0 }],
        routing: UplinkRouting::NrAboveCqi { threshold: 7 },
        coverage: us_coverage(false),
        ca_description: "Mid + Mid-Band",
        table_bandwidth_label: Some("40"),
        table_nrb_label: Some("106"),
    }
}
