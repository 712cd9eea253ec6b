//! iPerf-style saturating transfer tests (paper §2 "bulk data transfer
//! using iPerf3").

use crate::session::{MobilityKind, SessionResult, SessionSpec};
use operators::Operator;
use ran::kpi::{FilteredTrace, KpiTrace};
use ran::lte::LTE_CARRIER_INDEX;

// (`transfer_completion_s` below drives the simulator tick-by-tick, so it
// needs the UeSim API rather than the one-shot SessionResult.)

/// Run one saturating transfer. `dl`/`ul` select the directions (iPerf
/// forward, reverse, or bidirectional).
pub fn run_iperf(
    operator: Operator,
    mobility: MobilityKind,
    dl: bool,
    ul: bool,
    duration_s: f64,
    seed: u64,
) -> SessionResult {
    SessionResult::run(SessionSpec { operator, mobility, dl, ul, duration_s, seed })
}

/// Strip the LTE UL leg from a trace, leaving NR-only records — what the
/// paper's per-channel UL analysis (Figs. 9/10) isolates. Returns a
/// borrowed view ([`FilteredTrace`]); nothing is copied. Its duration
/// and throughput analytics are `KpiTrace`'s own scans restricted to the
/// NR carriers, so they equal the same call on `.to_trace()`, the owned
/// copy.
pub fn nr_only(trace: &KpiTrace) -> FilteredTrace<'_> {
    trace.filter_carrier_not(LTE_CARRIER_INDEX)
}

/// Completion time of a finite DL transfer of `megabits` over an
/// operator's channel (the "file download" workload of the paper's §2),
/// excluding RRC promotion (apply [`ran::rrc`] costs separately when
/// modelling cold starts). Runs the channel until the bits are delivered
/// and returns seconds; `None` if `max_duration_s` elapses first.
pub fn transfer_completion_s(
    operator: Operator,
    mobility: MobilityKind,
    megabits: f64,
    max_duration_s: f64,
    seed: u64,
) -> Option<f64> {
    let spec = SessionSpec { operator, mobility, dl: true, ul: false, duration_s: max_duration_s, seed };
    let profile = operator.profile();
    let mut sim = profile.build_ue_sim(
        spec.mobility_model(),
        ran::sim::UeSimConfig {
            traffic: ran::carrier::TrafficPattern::DL,
            routing: profile.routing,
        },
        &spec.seeds(),
    );
    let target_bits = megabits * 1e6;
    let mut delivered = 0.0f64;
    let mut trace = KpiTrace::new();
    let ticks = (max_duration_s / sim.base_slot_s()).round() as u64;
    for _ in 0..ticks {
        let before = trace.len();
        sim.step_into(&mut trace);
        for r in trace.iter_from(before) {
            delivered += f64::from(r.delivered_bits);
            if delivered >= target_bits {
                // Return the time of the record that crossed the target:
                // a carrier-aggregated tick emits several records, and
                // the crossing one need not be the tick's last.
                return Some(r.time_s);
            }
        }
        // Keep memory bounded: each record carries its own absolute
        // timestamp, so earlier records can be dropped freely.
        if trace.len() > 50_000 {
            trace.clear();
        }
    }
    None
}

/// Only the LTE UL leg (Fig. 10's `LTE_US` box), as a borrowed view.
pub fn lte_only(trace: &KpiTrace) -> FilteredTrace<'_> {
    trace.filter_carrier_is(LTE_CARRIER_INDEX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ran::kpi::Direction;

    #[test]
    fn dl_only_test_has_no_ul_bits() {
        let r = run_iperf(Operator::VodafoneGermany, MobilityKind::Stationary { spot: 0 }, true, false, 1.0, 3);
        assert!(r.trace.mean_throughput_mbps(Direction::Dl) > 0.0);
        let ul_bits: u64 = r
            .trace
            .iter()
            .filter(|x| x.direction == Direction::Ul)
            .map(|x| u64::from(x.delivered_bits))
            .sum();
        assert_eq!(ul_bits, 0);
    }

    #[test]
    fn finite_transfer_completion_scales_with_size() {
        let done_small = transfer_completion_s(
            Operator::VodafoneSpain,
            MobilityKind::Stationary { spot: 0 },
            50.0,
            20.0,
            5,
        )
        .expect("50 Mb completes quickly");
        let done_large = transfer_completion_s(
            Operator::VodafoneSpain,
            MobilityKind::Stationary { spot: 0 },
            2000.0,
            60.0,
            5,
        )
        .expect("2 Gb completes within a minute");
        assert!(done_small < done_large, "{done_small} vs {done_large}");
        // 2 Gb at a few hundred Mbps: single-digit seconds.
        assert!(done_large > 1.0 && done_large < 40.0, "{done_large}");
        // An impossible deadline returns None.
        assert!(transfer_completion_s(
            Operator::VodafoneSpain,
            MobilityKind::Stationary { spot: 0 },
            1e7,
            1.0,
            5,
        )
        .is_none());
    }

    #[test]
    fn completion_time_is_the_crossing_records_time() {
        // T-Mobile aggregates n41 (0.5 ms slots) with n25 (1 ms slots),
        // so one carrier-aggregated tick emits several records; the
        // completion time must come from the record that crossed the
        // target, not from whatever the tick emitted last. (Records in
        // one tick share their slot-START timestamp, so the check is on
        // record identity, not on the times diverging.)
        let operator = Operator::TMobileUs;
        let mobility = MobilityKind::Stationary { spot: 0 };
        let megabits = 80.0;
        let max_duration_s = 30.0;

        // Scan seeds for a run where the crossing record is *not* the
        // tick's last record — the case where an early-exit scan and a
        // whole-tick scan actually see different records.
        let mut checked_non_degenerate = false;
        for seed in 0..32u64 {
            // Replay the identical simulation and locate the record
            // whose delivered bits actually crossed the target.
            let spec = SessionSpec {
                operator,
                mobility,
                dl: true,
                ul: false,
                duration_s: max_duration_s,
                seed,
            };
            let profile = operator.profile();
            let mut sim = profile.build_ue_sim(
                spec.mobility_model(),
                ran::sim::UeSimConfig {
                    traffic: ran::carrier::TrafficPattern::DL,
                    routing: profile.routing,
                },
                &spec.seeds(),
            );
            let target_bits = megabits * 1e6;
            let mut delivered = 0.0f64;
            let mut trace = KpiTrace::new();
            let ticks = (max_duration_s / sim.base_slot_s()).round() as u64;
            let mut crossing = None;
            'ticks: for _ in 0..ticks {
                let before = trace.len();
                sim.step_into(&mut trace);
                for i in before..trace.len() {
                    delivered += f64::from(trace.get(i).unwrap().delivered_bits);
                    if delivered >= target_bits {
                        crossing = Some((trace.get(i).unwrap(), trace.last().unwrap()));
                        break 'ticks;
                    }
                }
            }
            let (crossing, tick_last) = crossing.expect("replay crosses the target");
            let got = transfer_completion_s(operator, mobility, megabits, max_duration_s, seed)
                .expect("80 Mb completes well within 30 s");
            assert_eq!(got, crossing.time_s, "seed {seed}");
            if crossing != tick_last {
                checked_non_degenerate = true;
                break;
            }
        }
        assert!(
            checked_non_degenerate,
            "no seed in 0..32 crossed mid-tick; the regression check never engaged"
        );
    }

    #[test]
    fn lte_and_nr_partition_the_trace() {
        let r = run_iperf(Operator::TMobileUs, MobilityKind::Stationary { spot: 0 }, true, true, 1.0, 4);
        let nr = nr_only(&r.trace);
        let lte = lte_only(&r.trace);
        assert_eq!(nr.len() + lte.len(), r.trace.len());
        assert!(!lte.is_empty(), "T-Mobile routes UL to LTE");
        // The borrowed views compute exactly what the formerly-copied
        // sub-traces did: duration inference and throughput aggregations
        // are bit-identical to a materialised subset.
        for view in [&nr, &lte] {
            let owned = view.to_trace();
            assert_eq!(view.len(), owned.len());
            assert_eq!(view.duration_s(), owned.duration_s());
            assert_eq!(
                view.mean_throughput_mbps(Direction::Ul),
                owned.mean_throughput_mbps(Direction::Ul)
            );
            assert_eq!(
                view.throughput_series_mbps(Direction::Ul, 0.1),
                owned.throughput_series_mbps(Direction::Ul, 0.1)
            );
            assert_eq!(
                view.mean_throughput_mbps_where_cqi(Direction::Ul, 0.1, 12),
                owned.mean_throughput_mbps_where_cqi(Direction::Ul, 0.1, 12)
            );
            assert_eq!(
                view.mean_throughput_mbps_where_cqi_below(Direction::Ul, 0.1, 10),
                owned.mean_throughput_mbps_where_cqi_below(Direction::Ul, 0.1, 10)
            );
        }
    }
}
