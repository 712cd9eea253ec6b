#![warn(missing_docs)]

//! # operators — the deployment landscape of the paper's Tables 2 and 3
//!
//! One [`Operator`] per studied carrier-deployment, each carrying:
//!
//! * the *published* configuration the paper extracted over the air —
//!   band, channel bandwidth, N_RB, SCS, duplexing, CA combination
//!   (Tables 2–3, Appendix 10.1);
//! * the *behavioural* configuration its analysis inferred — maximum
//!   modulation (O_Sp's 100 MHz channel caps at 64QAM), vendor CQI→MCS
//!   mapping, TDD frame structure (§4.3), NSA uplink routing (§4.2),
//!   UL resource policy;
//! * a *coverage profile* — deployment density and link-quality offsets —
//!   calibrated so the simulated KPI distributions reproduce the paper's
//!   reported orderings (Figs. 1–12). Calibration targets are quoted in
//!   the doc comment of each profile constructor.
//!
//! Orange Spain appears twice (its 90 and 100 MHz channels) exactly as the
//! paper treats them; Verizon's FR2 deployment is included for the §7
//! mmWave comparison.

pub mod profile;

mod eu;
mod mmwave;
mod us;

pub use profile::{CarrierProfile, CoverageProfile, OperatorProfile};

use serde::{Deserialize, Serialize};

/// Every deployment the study measures (plus Verizon's mmWave for §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operator {
    /// Orange Spain, 100 MHz n78 channel (Madrid).
    OrangeSpain100,
    /// Orange Spain, 90 MHz n78 channel (Madrid).
    OrangeSpain90,
    /// Vodafone Spain, 90 MHz n78 (Madrid).
    VodafoneSpain,
    /// Orange France, 90 MHz n78 (Paris).
    OrangeFrance,
    /// SFR France, 80 MHz n78 (Paris).
    SfrFrance,
    /// Vodafone Italy, 80 MHz n78 (Rome).
    VodafoneItaly,
    /// Deutsche Telekom, 90 MHz n78 (Munich).
    TelekomGermany,
    /// Vodafone Germany, 80 MHz n78 (Munich).
    VodafoneGermany,
    /// T-Mobile US, n41 100+40 MHz + n25 FDD CA (Chicago).
    TMobileUs,
    /// Verizon US, 60 MHz C-band + low-band CA (Chicago).
    VerizonUs,
    /// AT&T US, 40 MHz C-band (Chicago).
    AttUs,
    /// Verizon US mmWave (n261) — the §7 comparison deployment.
    VerizonMmwaveUs,
}

impl Operator {
    /// All mid-band deployments of Tables 2–3, in the tables' order.
    pub const ALL_MIDBAND: [Operator; 11] = [
        Operator::OrangeSpain100,
        Operator::OrangeSpain90,
        Operator::VodafoneSpain,
        Operator::OrangeFrance,
        Operator::SfrFrance,
        Operator::VodafoneItaly,
        Operator::TelekomGermany,
        Operator::VodafoneGermany,
        Operator::TMobileUs,
        Operator::VerizonUs,
        Operator::AttUs,
    ];

    /// The European subset (Table 2).
    pub const EU: [Operator; 8] = [
        Operator::OrangeSpain100,
        Operator::OrangeSpain90,
        Operator::VodafoneSpain,
        Operator::OrangeFrance,
        Operator::SfrFrance,
        Operator::VodafoneItaly,
        Operator::TelekomGermany,
        Operator::VodafoneGermany,
    ];

    /// The U.S. subset (Table 3).
    pub const US: [Operator; 3] = [Operator::TMobileUs, Operator::VerizonUs, Operator::AttUs];

    /// The paper's short acronym, e.g. `O_Sp [100]`.
    pub fn acronym(self) -> &'static str {
        match self {
            Operator::OrangeSpain100 => "O_Sp[100]",
            Operator::OrangeSpain90 => "O_Sp[90]",
            Operator::VodafoneSpain => "V_Sp",
            Operator::OrangeFrance => "O_Fr",
            Operator::SfrFrance => "S_Fr",
            Operator::VodafoneItaly => "V_It",
            Operator::TelekomGermany => "T_Ge",
            Operator::VodafoneGermany => "V_Ge",
            Operator::TMobileUs => "Tmb_US",
            Operator::VerizonUs => "Vzw_US",
            Operator::AttUs => "Att_US",
            Operator::VerizonMmwaveUs => "Vzw_mmW",
        }
    }

    /// Build the full profile.
    pub fn profile(self) -> OperatorProfile {
        match self {
            Operator::OrangeSpain100 => eu::orange_spain_100(),
            Operator::OrangeSpain90 => eu::orange_spain_90(),
            Operator::VodafoneSpain => eu::vodafone_spain(),
            Operator::OrangeFrance => eu::orange_france(),
            Operator::SfrFrance => eu::sfr_france(),
            Operator::VodafoneItaly => eu::vodafone_italy(),
            Operator::TelekomGermany => eu::telekom_germany(),
            Operator::VodafoneGermany => eu::vodafone_germany(),
            Operator::TMobileUs => us::tmobile(),
            Operator::VerizonUs => us::verizon(),
            Operator::AttUs => us::att(),
            Operator::VerizonMmwaveUs => mmwave::verizon_mmwave(),
        }
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.acronym())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_phy::band::{Band, DuplexMode};

    #[test]
    fn table2_configs_match_paper() {
        // All EU operators: n78, TDD, 30 kHz SCS, no CA.
        for op in Operator::EU {
            let p = op.profile();
            assert_eq!(p.carriers.len(), 1, "{op}: EU operators have not deployed CA");
            let c = &p.carriers[0];
            assert_eq!(c.cell.band, Band::N78, "{op}");
            assert_eq!(c.cell.duplex_mode(), DuplexMode::Tdd, "{op}");
            assert_eq!(c.cell.numerology.scs_khz(), 30, "{op}");
        }
        // Bandwidths and N_RB per Table 2.
        let expect = [
            (Operator::OrangeSpain100, 100, 273),
            (Operator::OrangeSpain90, 90, 245),
            (Operator::VodafoneSpain, 90, 245),
            (Operator::OrangeFrance, 90, 245),
            (Operator::SfrFrance, 80, 217),
            (Operator::VodafoneItaly, 80, 217),
            (Operator::TelekomGermany, 90, 245),
            (Operator::VodafoneGermany, 80, 217),
        ];
        for (op, mhz, n_rb) in expect {
            let c = &op.profile().carriers[0];
            assert_eq!(c.cell.bandwidth.mhz(), mhz, "{op}");
            assert_eq!(c.cell.n_rb, n_rb, "{op}");
        }
    }

    #[test]
    fn table3_configs_match_paper() {
        // T-Mobile: n41 TDD 100+40, plus n25 FDD 20+5 at 15 kHz.
        let tmb = Operator::TMobileUs.profile();
        assert!(tmb.carriers.len() >= 2, "T-Mobile aggregates carriers");
        let n41: Vec<_> =
            tmb.carriers.iter().filter(|c| c.cell.band == Band::N41).collect();
        assert_eq!(n41.len(), 2);
        assert_eq!(n41[0].cell.bandwidth.mhz() + n41[1].cell.bandwidth.mhz(), 140);
        let n25: Vec<_> =
            tmb.carriers.iter().filter(|c| c.cell.band == Band::N25).collect();
        assert!(!n25.is_empty());
        for c in n25 {
            assert_eq!(c.cell.duplex_mode(), DuplexMode::Fdd);
            assert_eq!(c.cell.numerology.scs_khz(), 15);
        }
        // Verizon: 60 MHz C-band PCell.
        let vzw = Operator::VerizonUs.profile();
        assert_eq!(vzw.carriers[0].cell.band, Band::N77);
        assert_eq!(vzw.carriers[0].cell.bandwidth.mhz(), 60);
        assert_eq!(vzw.carriers[0].cell.n_rb, 162);
        // AT&T: 40 MHz C-band.
        let att = Operator::AttUs.profile();
        assert_eq!(att.carriers[0].cell.band, Band::N77);
        assert_eq!(att.carriers[0].cell.bandwidth.mhz(), 40);
        assert_eq!(att.carriers[0].cell.n_rb, 106);
    }

    #[test]
    fn orange_spain_100_caps_at_64qam() {
        // The §4.1 finding: O_Sp's 100 MHz channel uses 64QAM max.
        use nr_phy::mcs::McsTable;
        assert_eq!(
            Operator::OrangeSpain100.profile().carriers[0].cell.mcs_table(),
            McsTable::Qam64
        );
        assert_eq!(
            Operator::OrangeSpain90.profile().carriers[0].cell.mcs_table(),
            McsTable::Qam256
        );
        assert_eq!(
            Operator::VodafoneSpain.profile().carriers[0].cell.mcs_table(),
            McsTable::Qam256
        );
    }

    #[test]
    fn spain_coverage_density_contrast() {
        // Appendix 10.3: V_Sp three sites, O_Sp two sites.
        assert_eq!(Operator::VodafoneSpain.profile().coverage.layout.sites.len(), 3);
        assert_eq!(Operator::OrangeSpain100.profile().coverage.layout.sites.len(), 2);
    }

    #[test]
    fn tdd_patterns_match_section_4_3() {
        let vit = Operator::VodafoneItaly.profile();
        assert_eq!(
            vit.carriers[0].cell.tdd.as_ref().unwrap().pattern_string(),
            "DDDDDDDSUU"
        );
        let vge = Operator::VodafoneGermany.profile();
        assert_eq!(vge.carriers[0].cell.tdd.as_ref().unwrap().pattern_string(), "DDDSU");
    }

    #[test]
    fn all_profiles_build_and_describe() {
        for op in Operator::ALL_MIDBAND {
            let p = op.profile();
            assert!(!p.display_name.is_empty());
            assert!(!p.country.is_empty());
            assert!(!p.carriers.is_empty());
            assert!(!p.coverage.layout.sites.is_empty());
        }
        let mmw = Operator::VerizonMmwaveUs.profile();
        assert_eq!(mmw.carriers[0].cell.band, Band::N261);
    }

    #[test]
    fn nsa_everywhere_tmobile_prefers_lte_ul() {
        use ran::config::UplinkRouting;
        // NSA is structural: every profile's UE gets the LTE anchor
        // (`OperatorProfile::build_ue_sim_with_routing`).
        assert_eq!(Operator::TMobileUs.profile().routing, UplinkRouting::LteOnly);
    }
}
