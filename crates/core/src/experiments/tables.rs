//! Tables 1–3: the campaign statistics and the operator configuration
//! tables, generated from the same profiles the simulator runs.

use measure::campaign::{Campaign, CampaignTotals};
use measure::executor::Executor;
use operators::Operator;
use serde::{Deserialize, Serialize};

/// One column of Table 2/3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigColumn {
    /// Country.
    pub country: String,
    /// Operator display name.
    pub operator: String,
    /// Acronym.
    pub acronym: String,
    /// SCS, kHz (PCell).
    pub scs_khz: u32,
    /// Duplexing mode (PCell).
    pub duplexing: String,
    /// 5G NR band label (PCell).
    pub band: String,
    /// Channel bandwidth as the paper prints it.
    pub bandwidth_mhz: String,
    /// Max bandwidth in N_RBs as the paper prints it.
    pub n_rbs: String,
    /// Carrier aggregation description.
    pub carrier_aggregation: String,
}

/// Build a configuration column for one operator.
pub fn config_column(op: Operator) -> ConfigColumn {
    let p = op.profile();
    let pcell = &p.carriers[0].cell;
    ConfigColumn {
        country: p.country.to_string(),
        operator: p.display_name.to_string(),
        acronym: op.acronym().to_string(),
        scs_khz: pcell.numerology.scs_khz(),
        duplexing: pcell.duplex_mode().to_string(),
        band: pcell.band.label().to_string(),
        bandwidth_mhz: p
            .table_bandwidth_label
            .map(str::to_string)
            .unwrap_or_else(|| p.bandwidth_label()),
        n_rbs: p.table_nrb_label.map(str::to_string).unwrap_or_else(|| p.n_rb_label()),
        carrier_aggregation: p.ca_description.to_string(),
    }
}

/// Table 2: the EU columns.
pub fn table2() -> Vec<ConfigColumn> {
    Operator::EU.iter().map(|&op| config_column(op)).collect()
}

/// Table 3: the US columns.
pub fn table3() -> Vec<ConfigColumn> {
    Operator::US.iter().map(|&op| config_column(op)).collect()
}

/// Table 1: campaign statistics from actually running (a scaled-down
/// version of) the measurement campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Countries covered.
    pub countries: Vec<String>,
    /// Cities covered.
    pub cities: Vec<String>,
    /// Operators measured (acronyms).
    pub operators: Vec<String>,
    /// Total 5G test minutes.
    pub minutes: f64,
    /// Data consumed on 5G, terabytes.
    pub terabytes: f64,
    /// Sessions executed.
    pub sessions: u64,
}

/// Run a scaled-down campaign over every operator and report Table 1.
pub fn table1(sessions_per_operator: u64, session_s: f64, seed: u64) -> Table1 {
    let mut totals = CampaignTotals::default();
    let mut countries = Vec::new();
    let mut cities = Vec::new();
    for (i, &op) in Operator::ALL_MIDBAND.iter().enumerate() {
        let campaign = Campaign {
            operator: op,
            sessions: sessions_per_operator,
            session_duration_s: session_s,
            base_seed: seed + i as u64 * 1000,
        };
        for r in campaign.run_parallel(Executor::from_env().threads()) {
            totals.add(&r);
        }
        let p = op.profile();
        if !countries.contains(&p.country.to_string()) {
            countries.push(p.country.to_string());
        }
        if !cities.contains(&p.city.to_string()) {
            cities.push(p.city.to_string());
        }
    }
    Table1 {
        countries,
        cities,
        operators: totals.operators.clone(),
        minutes: totals.minutes,
        terabytes: totals.terabytes(),
        sessions: totals.sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_values() {
        let cols = table2();
        assert_eq!(cols.len(), 8);
        for c in &cols {
            assert_eq!(c.scs_khz, 30);
            assert_eq!(c.duplexing, "TDD");
            assert_eq!(c.band, "n78");
            assert_eq!(c.carrier_aggregation, "No");
        }
        let vsp = cols.iter().find(|c| c.acronym == "V_Sp").unwrap();
        assert_eq!(vsp.bandwidth_mhz, "90");
        assert_eq!(vsp.n_rbs, "245");
    }

    #[test]
    fn table3_matches_paper_values() {
        let cols = table3();
        assert_eq!(cols.len(), 3);
        let tmb = cols.iter().find(|c| c.acronym == "Tmb_US").unwrap();
        assert_eq!(tmb.bandwidth_mhz, "20+5, 100+40");
        assert_eq!(tmb.n_rbs, "51 + 11, 273 + 106");
        assert_eq!(tmb.carrier_aggregation, "Mid + Mid-Band");
        let vzw = cols.iter().find(|c| c.acronym == "Vzw_US").unwrap();
        assert_eq!(vzw.n_rbs, "162");
        assert_eq!(vzw.carrier_aggregation, "Mid + Low-Band");
    }

    #[test]
    fn table1_accumulates() {
        let t = table1(1, 1.0, 91);
        assert_eq!(t.countries.len(), 5);
        assert_eq!(t.cities.len(), 5);
        assert_eq!(t.operators.len(), 11);
        assert_eq!(t.sessions, 11);
        assert!(t.minutes > 0.0);
        assert!(t.terabytes > 0.0);
    }
}
