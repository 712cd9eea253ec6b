//! Figure 14: variability between users in the same cell — two locations
//! (45 m / 117 m from the gNB), measured sequentially and simultaneously.
//!
//! Driven by the loaded-cell engine ([`ran::cell::CellSim`]).

use analysis::variability::variability;
use operators::Operator;
use radio_channel::geometry::DeploymentLayout;
use radio_channel::rng::SeedTree;
use ran::cell::{CellParams, CellSim, UeSpec};
use ran::carrier::TrafficPattern;
use ran::kpi::{Direction, KpiTrace};
use ran::scheduler::SchedulerPolicy;
use serde::{Deserialize, Serialize};

/// One location's outcome in one mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocationOutcome {
    /// Distance from the gNB, metres.
    pub distance_m: f64,
    /// Mean DL throughput, Mbps.
    pub dl_mbps: f64,
    /// Mean RBs per scheduled slot.
    pub mean_rbs: f64,
    /// V(60 ms) of the MCS series (channel variability proxy).
    pub mcs_variability: f64,
    /// V(60 ms) of the MIMO-layer series.
    pub mimo_variability: f64,
}

/// The full Fig. 14 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiUserExperiment {
    /// Each location measured alone (sequential runs).
    pub sequential: Vec<LocationOutcome>,
    /// Both locations active at once.
    pub simultaneous: Vec<LocationOutcome>,
}

/// Cell parameters of the operator's primary carrier on a single site —
/// the same assembly the legacy per-participant path performed.
fn cell_params(op: Operator) -> CellParams {
    let profile = op.profile();
    let carrier = &profile.carriers[0];
    CellParams {
        cell: carrier.cell.clone(),
        channel: profile.channel_config(carrier),
        layout: DeploymentLayout::single_site(),
        link: profile.link_model(carrier),
        policy: SchedulerPolicy::EqualShare,
        traffic: TrafficPattern::DL,
    }
}

fn outcome(trace: &KpiTrace, distance_m: f64) -> LocationOutcome {
    let scheduled: Vec<ran::kpi::SlotKpi> =
        trace.direction(Direction::Dl).filter(|r| r.scheduled).collect();
    let mean_rbs = scheduled.iter().map(|r| f64::from(r.n_prb)).sum::<f64>()
        / scheduled.len().max(1) as f64;
    let mcs: Vec<f64> = scheduled.iter().map(|r| f64::from(r.mcs)).collect();
    let layers: Vec<f64> = scheduled.iter().map(|r| f64::from(r.layers)).collect();
    // 60 ms blocks at ~0.5 ms per scheduled slot ≈ 120 samples.
    let block = 120;
    LocationOutcome {
        distance_m,
        dl_mbps: trace.mean_throughput_mbps(Direction::Dl),
        mean_rbs,
        mcs_variability: variability(&mcs, block).unwrap_or(0.0),
        mimo_variability: variability(&layers, block).unwrap_or(0.0),
    }
}

/// Figure 14: the two-location, sequential-vs-simultaneous experiment
/// (run on a single-site cell of the given US operator, as in the paper).
pub fn figure14(op: Operator, slots: u64, seed: u64) -> MultiUserExperiment {
    let distances = [45.0, 117.0];
    let seeds = SeedTree::new(seed).child("fig14");
    let ues: Vec<UeSpec> = distances.iter().map(|&d| UeSpec::at(d, 0.0)).collect();

    // Sequential: both UEs exist (seed derivation unchanged) but only one
    // is active — it gets the whole carrier.
    let sequential = distances
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut sim = CellSim::new(cell_params(op), &ues, &seeds);
            sim.set_active(1 - i, false);
            let traces = sim.run(slots);
            outcome(&traces[i], d)
        })
        .collect();

    let simultaneous = {
        let mut sim = CellSim::new(cell_params(op), &ues, &seeds);
        let traces = sim.run(slots);
        distances.iter().enumerate().map(|(i, &d)| outcome(&traces[i], d)).collect()
    };

    MultiUserExperiment { sequential, simultaneous }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_findings() {
        let exp = figure14(Operator::VerizonUs, 30_000, 3);
        let seq_a = &exp.sequential[0];
        let seq_b = &exp.sequential[1];
        let sim_a = &exp.simultaneous[0];
        let sim_b = &exp.simultaneous[1];

        // Sequential runs see (nearly) the whole carrier; simultaneous RBs
        // drop to about half (paper: 172/162 → 110/103).
        assert!(sim_a.mean_rbs < seq_a.mean_rbs * 0.62, "{} vs {}", sim_a.mean_rbs, seq_a.mean_rbs);
        assert!(sim_b.mean_rbs < seq_b.mean_rbs * 0.62);

        // Throughput roughly halves.
        assert!(sim_a.dl_mbps < seq_a.dl_mbps * 0.7);
        assert!(sim_b.dl_mbps < seq_b.dl_mbps * 0.7);

        // Channel variability is a property of the location, not of the
        // number of users: MCS variability barely moves between modes.
        let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-9);
        assert!(
            rel(sim_b.mcs_variability, seq_b.mcs_variability) < 0.8,
            "{} vs {}",
            sim_b.mcs_variability,
            seq_b.mcs_variability
        );
    }
}
