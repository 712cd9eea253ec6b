//! The NR and LTE legs of an iPerf-style saturating transfer (paper §2
//! "bulk data transfer using iPerf3"). The transfer itself is a
//! [`SessionResult::run`](crate::session::SessionResult::run); these
//! views split its NSA trace for the per-channel analyses.

use ran::kpi::{FilteredTrace, KpiTrace};
use ran::lte::LTE_CARRIER_INDEX;

/// Strip the LTE UL leg from a trace, leaving NR-only records — what the
/// paper's per-channel UL analysis (Figs. 9/10) isolates. Returns a
/// borrowed view ([`FilteredTrace`]); nothing is copied. Its duration
/// and throughput analytics are `KpiTrace`'s own scans restricted to the
/// NR carriers, so they equal the same call on `.to_trace()`, the owned
/// copy.
pub fn nr_only(trace: &KpiTrace) -> FilteredTrace<'_> {
    trace.filter_carrier_not(LTE_CARRIER_INDEX)
}

/// Only the LTE UL leg (Fig. 10's `LTE_US` box), as a borrowed view.
pub fn lte_only(trace: &KpiTrace) -> FilteredTrace<'_> {
    trace.filter_carrier_is(LTE_CARRIER_INDEX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{MobilityKind, SessionResult, SessionSpec};
    use operators::Operator;
    use ran::kpi::Direction;

    #[test]
    fn lte_and_nr_partition_the_trace() {
        let r = SessionResult::run(SessionSpec {
            operator: Operator::TMobileUs,
            mobility: MobilityKind::Stationary { spot: 0 },
            dl: true,
            ul: true,
            duration_s: 1.0,
            seed: 4,
        });
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
