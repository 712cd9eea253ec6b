//! One preset per paper experiment.
//!
//! Each submodule reproduces one table or figure of the paper's evaluation
//! and returns plain serialisable result structs; the `midband5g-bench`
//! binaries print them in the paper's layout. The per-experiment index in
//! `DESIGN.md` maps figures to modules.

pub mod ca;
pub mod coverage_map;
pub mod extensions;
pub mod dl_throughput;
pub mod latency;
pub mod maxrate;
pub mod mmwave;
pub mod multiuser;
pub mod resources;
pub mod shares;
pub mod tables;
pub mod ul_throughput;
pub mod variability;
pub mod video_qoe;

use measure::campaign::Campaign;
use measure::executor::Executor;
use measure::session::SessionResult;
use operators::Operator;
use ran::kpi::{Direction, KpiTrace};

/// Run a standard stationary campaign for an operator and return the
/// session results.
///
/// Sessions fan out across the `MIDBAND5G_THREADS` worker pool (default:
/// all cores) via [`measure::executor::Executor`]; results are in spec
/// order and bit-identical to a sequential run, so every figure built on
/// this helper is reproducible regardless of parallelism.
pub fn run_campaign(
    operator: Operator,
    sessions: u64,
    duration_s: f64,
    base_seed: u64,
) -> Vec<SessionResult> {
    let _span = obs::span("experiments.run_campaign");
    obs::registry().counter("experiments.campaigns").inc();
    let threads = Executor::from_env().threads();
    Campaign { operator, sessions, session_duration_s: duration_s, base_seed }.run_parallel(threads)
}

/// Pool per-second DL throughput samples across sessions — what each box
/// of Fig. 1 summarises.
pub fn dl_second_samples(results: &[SessionResult]) -> Vec<f64> {
    results
        .iter()
        .flat_map(|r| r.trace.throughput_series_mbps(Direction::Dl, 1.0))
        .collect()
}

/// Pool per-second *NR-only* UL throughput samples across sessions.
pub fn ul_second_samples(results: &[SessionResult]) -> Vec<f64> {
    results
        .iter()
        .flat_map(|r| {
            measure::iperf::nr_only(&r.trace).throughput_series_mbps(Direction::Ul, 1.0)
        })
        .collect()
}

/// Build a DL bandwidth trace (Mbps at `bin_s`) from a saturating session
/// — the link-capacity input to the video player (§6 methodology: the
/// stream shares the channel the iPerf measurements characterised).
pub fn bandwidth_trace(trace: &KpiTrace, bin_s: f64) -> video::BandwidthTrace {
    video::BandwidthTrace { bin_s, mbps: trace.throughput_series_mbps(Direction::Dl, bin_s) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_produces_sessions_and_samples() {
        let results = run_campaign(Operator::VodafoneGermany, 2, 2.0, 77);
        assert_eq!(results.len(), 2);
        let dl = dl_second_samples(&results);
        assert_eq!(dl.len(), 4); // 2 sessions × 2 one-second bins
        assert!(dl.iter().all(|&x| x >= 0.0));
        let ul = ul_second_samples(&results);
        assert_eq!(ul.len(), 4);
    }

    #[test]
    fn bandwidth_trace_matches_session_duration() {
        let r = &run_campaign(Operator::AttUs, 1, 2.0, 5)[0];
        let bw = bandwidth_trace(&r.trace, 0.05);
        assert!((bw.duration_s() - 2.0).abs() < 0.1);
        assert!(bw.mbps.iter().any(|&x| x > 0.0));
    }
}
