//! Measurement sessions: one experiment run of one operator.

use operators::Operator;
use radio_channel::geometry::Position;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;
use ran::carrier::TrafficPattern;
use ran::kpi::{Direction, KpiTrace};
use ran::sink::SlotSink;
use ran::workload::{WorkloadSpec, WorkloadStats};
use serde::{Deserialize, Serialize};

/// The mobility scenarios of the study (§2, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MobilityKind {
    /// Phone on a flat surface at one of the city's study spots
    /// (`spot` indexes the operator's qualifying spot list).
    Stationary {
        /// Index into [`operators::OperatorProfile::measurement_spots`].
        spot: usize,
    },
    /// Walking around the study area at ~1.4 m/s.
    Walking,
    /// Driving a loop around the study area at ~11 m/s.
    Driving,
}

/// Specification of one session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The operator deployment under test.
    pub operator: Operator,
    /// Movement pattern.
    pub mobility: MobilityKind,
    /// Traffic directions saturated during the session.
    pub dl: bool,
    /// Uplink saturation.
    pub ul: bool,
    /// Session duration, seconds.
    pub duration_s: f64,
    /// Campaign seed; the session derives all randomness from it.
    pub seed: u64,
}

impl SessionSpec {
    /// A stationary full-buffer DL+UL session — the workhorse of §4.
    pub fn stationary(operator: Operator, spot: usize, duration_s: f64, seed: u64) -> Self {
        SessionSpec {
            operator,
            mobility: MobilityKind::Stationary { spot },
            dl: true,
            ul: true,
            duration_s,
            seed,
        }
    }

    /// The concrete mobility model for this spec.
    pub fn mobility_model(&self) -> MobilityModel {
        let profile = self.operator.profile();
        match self.mobility {
            MobilityKind::Stationary { spot } => {
                let spots = profile.measurement_spots();
                MobilityModel::Stationary { position: spots[spot % spots.len()] }
            }
            MobilityKind::Walking => MobilityModel::walking(Position::ORIGIN, 180.0),
            MobilityKind::Driving => MobilityModel::driving_loop(Position::ORIGIN, 180.0),
        }
    }

    /// Seed tree of this session. Environment randomness is keyed by the
    /// *city*, not the operator, so carriers measured at the same spot in
    /// the same session slot experience the same radio environment.
    pub fn seeds(&self) -> SeedTree {
        SeedTree::new(self.seed).child(self.operator.profile().city)
    }

    /// A stable content hash of the spec — FNV-1a over its canonical JSON
    /// encoding, so it is identical across runs, platforms and Rust
    /// versions (unlike `DefaultHasher`). `Plan::run_checkpointed`
    /// stores it per checkpoint entry: a resumed campaign only trusts an
    /// on-disk session whose recorded seed *and* spec hash match the spec
    /// it is about to skip.
    pub fn stable_hash(&self) -> u64 {
        let json = serde_json::to_string(self).expect("spec serialisation is infallible");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in json.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// A completed session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// The spec that produced it.
    pub spec: SessionSpec,
    /// The slot-level KPI trace (NR carriers + LTE UL leg).
    pub trace: KpiTrace,
}

/// Outcome of a workload-driven session that streamed into a sink: the
/// record count plus the application-level counters the KPI trace alone
/// cannot carry (workload totals and drained per-unit delay samples).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// Records pushed into the sink.
    pub records: u64,
    /// Workload counters summed over the NR carriers (the congestion
    /// window reports the maximum across carriers, not the sum).
    pub stats: WorkloadStats,
    /// Per-unit delay samples in milliseconds (RTC frame delays),
    /// concatenated across carriers in carrier order.
    pub delay_samples_ms: Vec<f64>,
}

/// A completed workload-driven session: the trace plus the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// The session trace and spec.
    pub result: SessionResult,
    /// Application-level outcome (stats + delay samples).
    pub outcome: WorkloadOutcome,
}

impl SessionResult {
    /// Execute a spec.
    pub fn run(spec: SessionSpec) -> SessionResult {
        let mut trace = KpiTrace::new();
        Self::run_with_sink(spec, &mut trace);
        SessionResult { spec, trace }
    }

    /// Execute a spec, streaming every record into `sink` instead of
    /// materialising a trace; returns the record count. This is the
    /// bounded-memory path: with an aggregating sink, memory stays
    /// independent of session duration.
    pub fn run_with_sink<S: SlotSink>(spec: SessionSpec, sink: &mut S) -> u64 {
        Self::run_workload_with_sink(spec, &WorkloadSpec::FullBuffer, sink).records
    }

    /// Execute a spec with a [`WorkloadSpec`] installed on the DL leg of
    /// every NR carrier (the paper's §7 QoE workloads are DL-dominant;
    /// the UL leg keeps the spec's saturating behaviour). With
    /// [`WorkloadSpec::FullBuffer`] no pipeline is installed at all, so
    /// the run is byte-identical to [`SessionResult::run`].
    pub fn run_workload(spec: SessionSpec, workload: &WorkloadSpec) -> WorkloadResult {
        let mut trace = KpiTrace::new();
        let outcome = Self::run_workload_with_sink(spec, workload, &mut trace);
        WorkloadResult { result: SessionResult { spec, trace }, outcome }
    }

    /// Streaming form of [`SessionResult::run_workload`]; also the engine
    /// behind [`SessionResult::run_with_sink`].
    pub fn run_workload_with_sink<S: SlotSink>(
        spec: SessionSpec,
        workload: &WorkloadSpec,
        sink: &mut S,
    ) -> WorkloadOutcome {
        let _span = obs::span("session.run");
        let violations_before = obs::audit::total_violations();
        let profile = spec.operator.profile();
        let mut sim = profile.build_ue_sim(
            spec.mobility_model(),
            ran::sim::UeSimConfig {
                traffic: TrafficPattern { dl: spec.dl, ul: spec.ul },
                routing: profile.routing,
            },
            &spec.seeds(),
        );
        if !workload.is_full_buffer() {
            for carrier in sim.carriers_mut() {
                let (w, q) = workload.build();
                carrier.set_dl_workload(w, q);
            }
        }
        let records = sim.run_into(spec.duration_s, sink);
        let mut stats = WorkloadStats::default();
        let mut delay_samples_ms = Vec::new();
        for carrier in sim.carriers_mut() {
            let s = carrier.dl_traffic().workload_stats();
            stats.offered_bits += s.offered_bits;
            stats.delivered_bits += s.delivered_bits;
            stats.lost_bits += s.lost_bits;
            stats.completed_units += s.completed_units;
            stats.cwnd_bits = stats.cwnd_bits.max(s.cwnd_bits);
            carrier.dl_traffic_mut().take_delay_samples(&mut delay_samples_ms);
        }
        let reg = obs::registry();
        reg.counter("session.runs").inc();
        reg.counter("session.records").add(records);
        // Attribution is approximate under parallel campaigns (another
        // worker's violation can land between the two reads), but the
        // zero-violation gate only cares whether *any* session tripped.
        // Registered outside the branch so clean runs report an explicit 0.
        let tripped = reg.counter("audit.sessions_with_violations");
        if obs::audit::total_violations() > violations_before {
            tripped.inc();
        }
        WorkloadOutcome { records, stats, delay_samples_ms }
    }

    /// Bytes delivered over the session (both directions, all legs) — the
    /// "Data consumed on 5G" Table 1 aggregate. Bits are summed before
    /// the byte conversion, so odd-sized blocks don't each shed up to
    /// seven bits to truncation.
    pub fn bytes_delivered(&self) -> u64 {
        self.trace.delivered_bits_total() / 8
    }

    /// Session minutes.
    pub fn minutes(&self) -> f64 {
        self.spec.duration_s / 60.0
    }

    /// DL goodput, Mbps.
    pub fn dl_mbps(&self) -> f64 {
        self.trace.mean_throughput_mbps(Direction::Dl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_runs_and_accounts() {
        let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 2.0, 42);
        let r = SessionResult::run(spec);
        assert!(r.dl_mbps() > 50.0, "dl {}", r.dl_mbps());
        assert!(r.bytes_delivered() > 10_000_000);
        assert!((r.minutes() - 2.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn sessions_are_reproducible() {
        let spec = SessionSpec::stationary(Operator::TelekomGermany, 1, 1.0, 7);
        let a = SessionResult::run(spec);
        let b = SessionResult::run(spec);
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.bytes_delivered(), b.bytes_delivered());
    }

    #[test]
    fn same_city_same_environment() {
        // V_Sp and O_Sp90 share the Madrid environment: at the same seed
        // and spot, their serving-site shadowing draws coincide, so their
        // RSRP traces differ only through deployment (not RNG label) —
        // identical layouts + config ⇒ near-identical RSRP.
        let a = SessionResult::run(SessionSpec::stationary(Operator::VodafoneSpain, 0, 0.5, 9));
        let b = SessionResult::run(SessionSpec::stationary(Operator::OrangeSpain90, 0, 0.5, 9));
        let rsrp_a = a.trace.get(0).unwrap().rsrp_dbm;
        let rsrp_b = b.trace.get(0).unwrap().rsrp_dbm;
        assert!((rsrp_a - rsrp_b).abs() < 1e-9, "{rsrp_a} vs {rsrp_b}");
    }

    #[test]
    fn mobility_kinds_build() {
        for kind in [MobilityKind::Stationary { spot: 2 }, MobilityKind::Walking, MobilityKind::Driving]
        {
            let spec = SessionSpec {
                operator: Operator::VodafoneItaly,
                mobility: kind,
                dl: true,
                ul: false,
                duration_s: 0.2,
                seed: 1,
            };
            let r = SessionResult::run(spec);
            assert!(!r.trace.is_empty());
        }
    }

    #[test]
    fn bytes_delivered_sums_bits_before_dividing() {
        // Two odd-sized blocks of 7 and 9 bits: per-record truncation
        // would report 0 + 1 = 1 byte; summing bits first gives 16 / 8 = 2.
        let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 0.001, 1);
        let mut trace = KpiTrace::new();
        for (slot, bits) in [(0u64, 7u32), (1, 9)] {
            let mut r = ran::kpi::SlotKpi::idle(
                slot,
                slot as f64 * 0.0005,
                0,
                Direction::Dl,
                10,
                15.0,
                -85.0,
                -11.0,
                0,
            );
            r.scheduled = true;
            r.tbs_bits = bits;
            r.delivered_bits = bits;
            trace.push(r);
        }
        let result = SessionResult { spec, trace };
        assert_eq!(result.bytes_delivered(), 2);
    }

    #[test]
    fn full_buffer_workload_is_the_plain_run() {
        let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 0.5, 21);
        let plain = SessionResult::run(spec);
        let wl = SessionResult::run_workload(spec, &WorkloadSpec::FullBuffer);
        assert_eq!(wl.result, plain);
        assert!(wl.outcome.delay_samples_ms.is_empty());
    }

    #[test]
    fn cwnd_workload_delivers_and_reports_stats() {
        let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 1.0, 22);
        let wl = SessionResult::run_workload(
            spec,
            &WorkloadSpec::Cwnd { aqm: ran::workload::AqmSpec::CoDel { limit_kbit: 2_000 } },
        );
        assert!(wl.outcome.stats.delivered_bits > 0);
        assert!(wl.outcome.stats.cwnd_bits > 0.0);
        // The transport is self-limited: it cannot deliver more than the
        // saturating run it rides inside of.
        assert!(wl.result.dl_mbps() > 0.0);
    }

    #[test]
    fn rtc_workload_measures_frame_delays() {
        let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 1.0, 23);
        let wl = SessionResult::run_workload(
            spec,
            &WorkloadSpec::Rtc {
                rate_mbps: 8.0,
                fps: 60.0,
                aqm: ran::workload::AqmSpec::TailDrop { limit_kbit: 2_000 },
            },
        );
        assert!(wl.outcome.stats.completed_units > 0, "{:?}", wl.outcome.stats);
        assert!(!wl.outcome.delay_samples_ms.is_empty());
        assert!(wl.outcome.delay_samples_ms.iter().all(|&d| (0.0..10_000.0).contains(&d)));
    }

    #[test]
    fn run_with_sink_matches_run() {
        let spec = SessionSpec::stationary(Operator::VodafoneItaly, 0, 0.5, 11);
        let baseline = SessionResult::run(spec);
        let mut streamed = KpiTrace::new();
        let n = SessionResult::run_with_sink(spec, &mut streamed);
        assert_eq!(n as usize, baseline.trace.len());
        assert_eq!(streamed, baseline.trace);
    }
}
