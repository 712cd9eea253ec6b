//! Calibration tests: the simulated operators must reproduce the paper's
//! *orderings and contrasts* (absolute field numbers are not a target —
//! see EXPERIMENTS.md).
//!
//! `cargo test -p operators --test calibration -- --ignored --nocapture`
//! prints the full calibration report used to tune the profiles.

use operators::Operator;
use radio_channel::geometry::Position;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::carrier::TrafficPattern;
use ran::kpi::{Direction, KpiTrace};

/// The operator's measurement position for session `i`: the campaign
/// rotates over the city's shared study spots this operator serves.
fn session_position(op: Operator, session: u64) -> Position {
    let spots = op.profile().measurement_spots();
    spots[(session as usize) % spots.len()]
}

/// Run one stationary full-buffer session and return the trace.
fn run_session(op: Operator, seed: u64, duration_s: f64) -> KpiTrace {
    let profile = op.profile();
    let pos = session_position(op, seed);
    // Environment seeds are shared per city: two operators measured at
    // the same spot see the same shadowing field, as in reality.
    let seeds = SeedTree::new(seed).child(profile.city);
    let mut sim = profile.build_ue_sim(
        MobilityModel::Stationary { position: pos },
        TrafficPattern::BOTH,
        &seeds,
    );
    sim.run(duration_s)
}

/// Average DL/UL Mbps over seeded sessions rotating across study spots.
fn mean_tput(op: Operator, n_sessions: u64, duration_s: f64) -> (f64, f64) {
    let mut dl = 0.0;
    let mut ul = 0.0;
    for s in 0..n_sessions {
        let t = run_session(op, 1000 + s, duration_s);
        dl += t.mean_throughput_mbps(Direction::Dl);
        // UL includes the LTE leg when routed there — but for Fig. 9/10 we
        // want the NR UL only; filter by carrier.
        let nr_ul: KpiTrace =
            t.iter().filter(|r| r.carrier != ran::lte::LTE_CARRIER_INDEX).collect();
        ul += nr_ul.mean_throughput_mbps(Direction::Ul);
    }
    (dl / n_sessions as f64, ul / n_sessions as f64)
}

#[test]
fn spain_inversion_reproduced() {
    // §4.1: O_Sp's 100 MHz channel loses to both 90 MHz channels.
    let (osp100, _) = mean_tput(Operator::OrangeSpain100, 3, 8.0);
    let (osp90, _) = mean_tput(Operator::OrangeSpain90, 3, 8.0);
    let (vsp, _) = mean_tput(Operator::VodafoneSpain, 3, 8.0);
    assert!(vsp > osp100, "V_Sp {vsp} must beat O_Sp100 {osp100}");
    assert!(osp90 > osp100, "O_Sp90 {osp90} must beat O_Sp100 {osp100}");
}

#[test]
fn vodafone_italy_leads_europe() {
    // Fig. 1: V_It's 80 MHz tops the EU DL ranking.
    let (vit, _) = mean_tput(Operator::VodafoneItaly, 3, 8.0);
    let (tge, _) = mean_tput(Operator::TelekomGermany, 3, 8.0);
    let (ofr, _) = mean_tput(Operator::OrangeFrance, 3, 8.0);
    assert!(vit > tge, "V_It {vit} vs T_Ge {tge}");
    assert!(vit > ofr, "V_It {vit} vs O_Fr {ofr}");
}

#[test]
fn eu_dl_throughput_in_plausible_band() {
    // All EU operators land in the few-hundred-Mbps to ~1 Gbps band of
    // Fig. 1 at good coverage.
    for op in [Operator::VodafoneSpain, Operator::OrangeSpain100, Operator::VodafoneItaly] {
        let (dl, ul) = mean_tput(op, 2, 8.0);
        assert!(dl > 250.0 && dl < 1300.0, "{op}: DL {dl}");
        assert!(ul < 130.0, "{op}: UL {ul} must stay below 120 Mbps (§4.2)");
    }
}

#[test]
fn us_ca_boosts_beyond_1gbps() {
    // Fig. 1 right panel: T-Mobile and Verizon land around/above 1 Gbps
    // via CA, AT&T trails far behind. Averaged over the spot rotation.
    let (tmb, _) = mean_tput(Operator::TMobileUs, 8, 6.0);
    let (vzw, _) = mean_tput(Operator::VerizonUs, 8, 6.0);
    let (att, _) = mean_tput(Operator::AttUs, 8, 6.0);
    assert!(tmb > 800.0, "Tmb {tmb}");
    assert!(vzw > att * 1.8, "Vzw {vzw} vs Att {att}");
    assert!(tmb > att * 1.8, "Tmb {tmb} vs Att {att}");
    assert!(att < 650.0, "Att {att}");
}

#[test]
fn ul_ordering_contrasts() {
    // Fig. 9 extremes: O_Sp90 strongest EU UL, V_Ge weakest.
    let (_, osp90) = mean_tput(Operator::OrangeSpain90, 3, 8.0);
    let (_, vge) = mean_tput(Operator::VodafoneGermany, 3, 8.0);
    let (_, vit) = mean_tput(Operator::VodafoneItaly, 3, 8.0);
    assert!(osp90 > vge * 2.0, "O_Sp90 {osp90} vs V_Ge {vge}");
    assert!(vit > vge, "V_It {vit} vs V_Ge {vge}");
}

#[test]
fn tmobile_nr_ul_is_idle_under_lte_routing() {
    let t = run_session(Operator::TMobileUs, 7, 4.0);
    let nr_ul_bits: u64 = t
        .iter()
        .filter(|r| r.direction == Direction::Ul && r.carrier != ran::lte::LTE_CARRIER_INDEX)
        .map(|r| r.delivered_bits as u64)
        .sum();
    assert_eq!(nr_ul_bits, 0, "T-Mobile routes UL to LTE");
    let lte_bits: u64 = t
        .iter()
        .filter(|r| r.carrier == ran::lte::LTE_CARRIER_INDEX)
        .map(|r| r.delivered_bits as u64)
        .sum();
    assert!(lte_bits > 0);
}

/// Pool layer/modulation statistics over the spot rotation.
fn pooled_trace(op: Operator, n_sessions: u64, duration_s: f64) -> KpiTrace {
    let mut t = KpiTrace::new();
    for s in 0..n_sessions {
        t.extend(run_session(op, 2000 + s, duration_s).iter());
    }
    t
}

#[test]
fn rank_distributions_follow_coverage() {
    // Fig. 6: V_Sp uses 4 layers most of the time (87.1% in the paper);
    // O_Sp100's sparse grid keeps it mostly at rank 3 (74.1%).
    let vsp = pooled_trace(Operator::VodafoneSpain, 8, 6.0).layer_shares();
    let osp100 = pooled_trace(Operator::OrangeSpain100, 8, 6.0).layer_shares();
    assert!(vsp[4] > 0.6, "V_Sp rank-4 share {}", vsp[4]);
    assert!(osp100[4] < 0.45, "O_Sp100 rank-4 share {}", osp100[4]);
    assert!(osp100[3] > 0.3, "O_Sp100 rank-3 share {}", osp100[3]);
    assert!(vsp[4] > osp100[4] + 0.25, "contrast: {} vs {}", vsp[4], osp100[4]);
}

#[test]
fn modulation_shares_follow_mcs_cap() {
    use nr_phy::mcs::Modulation;
    // Fig. 5: O_Sp100 never uses 256QAM; the 90 MHz channels use it for a
    // minority of grants (paper: ~8%).
    let osp100 = pooled_trace(Operator::OrangeSpain100, 12, 6.0);
    for (m, share) in osp100.modulation_shares() {
        assert!(
            m != Modulation::Qam256 || share == 0.0,
            "O_Sp100 256QAM share {share}"
        );
    }
    let vsp = pooled_trace(Operator::VodafoneSpain, 12, 6.0);
    let q256 = vsp
        .modulation_shares()
        .iter()
        .find(|(m, _)| *m == Modulation::Qam256)
        .map(|(_, s)| *s)
        .unwrap_or(0.0);
    assert!(q256 < 0.5, "256QAM stays a minority share, got {q256}");
    let q16_down: f64 = vsp
        .modulation_shares()
        .iter()
        .filter(|(m, _)| *m < Modulation::Qam64)
        .map(|(_, s)| *s)
        .sum();
    let _ = q16_down;
    let q64 = vsp
        .modulation_shares()
        .iter()
        .find(|(m, _)| *m == Modulation::Qam64)
        .map(|(_, s)| *s)
        .unwrap_or(0.0);
    assert!(q64 > q256 * 0.8, "64QAM region competitive with 256QAM: {q64} vs {q256}");
}

/// Full calibration report (not asserted; for tuning).
#[test]
#[ignore = "manual calibration report"]
fn calibration_report() {
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>6} | rank shares 1-4 | modulation",
        "operator", "DL Mbps", "UL Mbps", "ULg Mbps", "CQI"
    );
    for op in Operator::ALL_MIDBAND {
        let (dl, ul) = mean_tput(op, 12, 5.0);
        // Shares/CQI pooled over the same sessions (ratios are unaffected
        // by pooling); the CQI-conditioned UL is computed per session and
        // averaged over the sessions that have qualifying bins.
        let mut t = KpiTrace::new();
        let mut ul_good_sum = 0.0;
        let mut ul_good_n = 0u32;
        for s in 0..12u64 {
            let session = run_session(op, 1000 + s, 5.0);
            let nr_only: KpiTrace = session
                .iter()
                .filter(|r| r.carrier != ran::lte::LTE_CARRIER_INDEX)
                .collect();
            if let Some(v) = nr_only.mean_throughput_mbps_where_cqi(Direction::Ul, 0.1, 12) {
                ul_good_sum += v;
                ul_good_n += 1;
            }
            t.extend(session.iter());
        }
        let shares = t.layer_shares();
        let ul_good = if ul_good_n > 0 { ul_good_sum / f64::from(ul_good_n) } else { 0.0 };
        let mods: Vec<String> = t
            .modulation_shares()
            .iter()
            .map(|(m, s)| format!("{m}:{:.0}%", s * 100.0))
            .collect();
        println!(
            "{:<12} {:>9.1} {:>9.1} {:>9.1} {:>6.1} | {:.2} {:.2} {:.2} {:.2} | {}",
            op.acronym(),
            dl,
            ul,
            ul_good,
            t.mean_cqi(),
            shares[1],
            shares[2],
            shares[3],
            shares[4],
            mods.join(" ")
        );
    }
}
