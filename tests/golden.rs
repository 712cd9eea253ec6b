//! Golden digests: the output bits, pinned across commits.
//!
//! The other byte-identity harnesses compare two paths of one build
//! (thread counts, `Carrier` vs `CellSim`, faults off vs on). A change
//! that shifts every RNG draw the same way on every path passes all of
//! them. These digests do not: each is an FNV-1a hash over the `to_bits`
//! of a whole KPI stream (or innovation stream), and the expected values
//! are a table committed here. They also stand in for reference twins:
//! contending `CellSim` cells are pinned here, not against a second
//! multi-UE engine.
//!
//! A change that means to move output bits updates the table and says
//! why in CHANGES.md. Any other change must leave it as it is.

use midband5g::analysis::OnlineAggregates;
use midband5g::experiments::extensions;
use midband5g::measure::campaign::{
    Aggregates, Campaign, CampaignOutcome, Plan, SessionCoverage, SessionFailure, Traces,
};
use midband5g::measure::dist::{run_distributed, DistConfig, DistJob};
use midband5g::measure::executor::Executor;
use midband5g::measure::fault::FaultConfig;
use midband5g::measure::iperf;
use midband5g::measure::loadsweep::CellLoadSweep;
use midband5g::measure::session::{MobilityKind, SessionResult, SessionSpec};
use midband5g::measure::{Dataset, DEFAULT_RETRY_BUDGET};
use midband5g::operators::Operator;
use midband5g::radio_channel::channel::{ChannelConfig, ChannelSimulator};
use midband5g::radio_channel::fading::{FadingConfig, FadingProcess};
use midband5g::radio_channel::geometry::{DeploymentLayout, Position};
use midband5g::radio_channel::link::LinkModel;
use midband5g::radio_channel::mobility::MobilityModel;
use midband5g::radio_channel::rng::SeedTree;
use midband5g::radio_channel::shadowing::{ShadowingConfig, ShadowingProcess};
use midband5g::ran::carrier::{Carrier, TrafficPattern};
use midband5g::ran::cell::{CellParams, CellSim, CellSink, UeSpec};
use midband5g::ran::config::CellConfig;
use midband5g::ran::kpi::{Direction, KpiTrace, SlotKpi};
use midband5g::ran::scheduler::SchedulerPolicy::{
    self, EqualShare, MaxCqi, ProportionalFair, RoundRobinSlots,
};
use midband5g::ran::workload::{AqmSpec, WorkloadStats};
use midband5g::ran::WorkloadSpec;
use std::path::{Path, PathBuf};

/// Session length, seconds: long enough to cross many tile refills,
/// HARQ rounds and CQI reports, short enough for debug-mode Tier-1.
const SESSION_S: f64 = 2.0;

/// FNV-1a over 64-bit words, little-endian byte order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn hash_record(h: &mut Fnv, k: &SlotKpi) {
    h.word(k.slot);
    h.f64(k.time_s);
    h.word(k.carrier as u64);
    h.word(matches!(k.direction, Direction::Ul) as u64);
    h.word(k.scheduled as u64);
    h.word(k.n_prb as u64);
    h.word(k.n_re as u64);
    h.word(k.mcs as u64);
    h.word(k.modulation.bits_per_symbol() as u64);
    h.word(k.layers as u64);
    h.word(k.tbs_bits as u64);
    h.word(k.delivered_bits as u64);
    h.word(k.is_retx as u64);
    h.word(k.block_error as u64);
    h.word(k.cqi as u64);
    h.f64(k.sinr_db);
    h.f64(k.rsrp_dbm);
    h.f64(k.rsrq_db);
    h.word(k.serving_site as u64);
    h.word(k.queue_bits as u64);
    h.f64(k.queue_delay_ms);
}

fn session_digest(spec: SessionSpec) -> (usize, u64) {
    let result = SessionResult::run(spec);
    let mut h = Fnv::new();
    for k in result.trace.iter() {
        hash_record(&mut h, &k);
    }
    (result.trace.len(), h.0)
}

/// `(label, spec, records, digest)`: the three deployments of the
/// benchmark's `session` round, T_Ge, one driving and two walking
/// sessions.
fn session_table() -> Vec<(&'static str, SessionSpec, usize, u64)> {
    vec![
        (
            "V_Sp stationary",
            SessionSpec::stationary(Operator::VodafoneSpain, 0, SESSION_S, 11),
            5600,
            0x86e5_f20d_8fbf_8fdd,
        ),
        (
            "T-Mobile stationary",
            SessionSpec::stationary(Operator::TMobileUs, 1, SESSION_S, 12),
            21200,
            0xa9ff_b81c_f988_cbcf,
        ),
        (
            "V_It stationary",
            SessionSpec::stationary(Operator::VodafoneItaly, 2, SESSION_S, 13),
            4800,
            0xedca_6fad_39b9_4ad6,
        ),
        (
            "T_Ge stationary",
            SessionSpec::stationary(Operator::TelekomGermany, 0, SESSION_S, 14),
            5600,
            0x7776_642a_f730_0a57,
        ),
        (
            "V_Sp driving",
            SessionSpec {
                mobility: MobilityKind::Driving,
                ..SessionSpec::stationary(Operator::VodafoneSpain, 0, SESSION_S, 15)
            },
            6080,
            0x86ee_3301_f556_621f,
        ),
        (
            "V_Sp walking",
            SessionSpec {
                mobility: MobilityKind::Walking,
                ..SessionSpec::stationary(Operator::VodafoneSpain, 0, SESSION_S, 18)
            },
            5600,
            0xfbee_fc0b_92ee_6043,
        ),
        (
            "T-Mobile walking",
            SessionSpec {
                mobility: MobilityKind::Walking,
                ..SessionSpec::stationary(Operator::TMobileUs, 0, SESSION_S, 19)
            },
            21200,
            0x0ab0_1f3e_117f_ae34,
        ),
    ]
}

#[test]
fn session_digests_are_unchanged() {
    let mut failures = Vec::new();
    for (label, spec, records, digest) in session_table() {
        let (n, got) = session_digest(spec);
        if (n, got) != (records, digest) {
            failures.push(format!("{label}: {n} records, digest {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "golden session digests moved:\n{}", failures.join("\n"));
}

fn hash_opt(h: &mut Fnv, x: Option<f64>) {
    match x {
        Some(v) => {
            h.word(1);
            h.f64(v);
        }
        None => h.word(0),
    }
}

/// The trace scans a [`KpiTrace`] and its carrier views share:
/// duration, mean goodput, the binned series and the CQI-conditioned
/// goodput of Figs. 2, 9 and 10, both directions.
macro_rules! hash_scans {
    ($h:expr, $t:expr) => {{
        $h.f64($t.duration_s());
        for dir in [Direction::Dl, Direction::Ul] {
            $h.f64($t.mean_throughput_mbps(dir));
            for bin_s in [1.0, 0.1] {
                let series = $t.throughput_series_mbps(dir, bin_s);
                $h.word(series.len() as u64);
                for v in series {
                    $h.f64(v);
                }
            }
            hash_opt($h, $t.mean_throughput_mbps_where_cqi(dir, 0.1, 12));
            hash_opt($h, $t.mean_throughput_mbps_where_cqi_below(dir, 0.1, 10));
        }
    }};
}

/// Every analytic a whole trace answers.
fn hash_analytics(h: &mut Fnv, t: &KpiTrace) {
    hash_scans!(h, t);
    let shares = t.modulation_shares();
    h.word(shares.len() as u64);
    for (m, share) in shares {
        h.word(m.bits_per_symbol() as u64);
        h.f64(share);
    }
    for share in t.layer_shares() {
        h.f64(share);
    }
    h.f64(t.dl_bler());
    h.f64(t.mean_cqi());
    let res = t.dl_re_allocations();
    h.word(res.len() as u64);
    for re in res {
        h.word(re as u64);
    }
}

/// The analytics behind the paper's figures, over the seven sessions of
/// [`session_table`]: each whole trace, then its NR-only and LTE-only
/// views (the two T-Mobile sessions carry the LTE UL leg). A view is
/// hashed through its own scans and, for the analytics only a whole
/// trace has, through its materialised `to_trace()`.
#[test]
fn trace_analytics_digest_is_unchanged() {
    let mut h = Fnv::new();
    let mut lte_records = 0;
    for (_, spec, _, _) in session_table() {
        let trace = SessionResult::run(spec).trace;
        hash_analytics(&mut h, &trace);
        lte_records += iperf::lte_only(&trace).len();
        for view in [iperf::nr_only(&trace), iperf::lte_only(&trace)] {
            h.word(view.len() as u64);
            hash_scans!(&mut h, view);
            hash_analytics(&mut h, &view.to_trace());
        }
    }
    assert!(lte_records > 0, "no session carries an LTE leg");
    assert_eq!(h.0, 0xe29f_f8dd_fefc_13f6, "golden trace-analytics digest moved: {:#018x}", h.0);
}

/// The Gaussian innovation streams behind shadowing and fading. Both
/// processes draw one scalar Gaussian at construction, so every tile
/// refill after it starts mid-block in the keystream: the offset the
/// production slot loop runs at.
#[test]
fn innovation_stream_digest_is_unchanged() {
    let seeds = SeedTree::new(2024);
    let mut h = Fnv::new();
    for label in ["a", "b", "c"] {
        let mut shadow = ShadowingProcess::new(ShadowingConfig::default(), &seeds, label);
        h.f64(shadow.value_db());
        for _ in 0..1000 {
            h.f64(shadow.advance_with_time(0.0, 0.5e-3));
        }
        let mut fading = FadingProcess::new(FadingConfig::midband(11.0, 3.0), &seeds, label);
        h.f64(fading.value_db());
        for _ in 0..1000 {
            h.f64(fading.advance_slot());
        }
    }
    assert_eq!(h.0, 0x9d8d_b2b7_03d9_0afe, "golden innovation digest moved: {:#018x}", h.0);
}

/// Hashes a cell's record stream as it leaves the engine: per slot, UEs
/// in index order, each record prefixed by its UE index.
struct CellDigest {
    h: Fnv,
    records: usize,
}

impl CellSink for CellDigest {
    fn push(&mut self, ue: u32, kpi: &SlotKpi) {
        self.h.word(ue as u64);
        hash_record(&mut self.h, kpi);
        self.records += 1;
    }
}

fn cell_digest(params: CellParams, distances: &[f64], seed: u64, slots: u64) -> (usize, u64) {
    let ues: Vec<UeSpec> = distances.iter().map(|&d| UeSpec::at(d, 0.0)).collect();
    let mut sim = CellSim::new(params, &ues, &SeedTree::new(seed));
    let mut digest = CellDigest { h: Fnv::new(), records: 0 };
    sim.run_into(slots, &mut digest);
    (digest.records, digest.h.0)
}

/// Contending cells at 60 MHz (162 RBs), DL full buffer, 6,000 slots:
/// integral equal splits, every whole-slot policy, and a four-way split
/// whose remainder rotates (seed 65). `(policy, distances, seed,
/// records, digest)`.
const CONTENTION_TABLE: [(SchedulerPolicy, &[f64], u64, usize, u64); 9] = [
    (EqualShare, &[45.0, 117.0], 64, 16800, 0x9587_d8ac_bd61_2dd9),
    (EqualShare, &[45.0, 95.0, 135.0], 64, 25200, 0x1f70_ef75_0cab_bb5b),
    (ProportionalFair, &[45.0, 117.0], 64, 16800, 0xb296_1e3f_35a4_46aa),
    (ProportionalFair, &[45.0, 95.0, 135.0], 64, 25200, 0x6cf3_0960_0f8b_5fcd),
    (ProportionalFair, &[45.0, 70.0, 95.0, 117.0], 64, 33600, 0x88fa_3068_bfd2_3e24),
    (RoundRobinSlots, &[45.0, 117.0], 64, 16800, 0xb0c6_e2da_4879_7916),
    (RoundRobinSlots, &[45.0, 70.0, 95.0, 117.0], 64, 33600, 0x6d80_9f71_c6dd_6aaf),
    (MaxCqi, &[45.0, 95.0, 135.0], 64, 25200, 0xae90_fce0_8da0_f2ba),
    (EqualShare, &[45.0, 70.0, 95.0, 117.0], 65, 33600, 0x35c6_5209_f153_219c),
];

#[test]
fn contention_cell_digests_are_unchanged() {
    let mut failures = Vec::new();
    for (policy, distances, seed, records, digest) in CONTENTION_TABLE {
        let got = cell_digest(CellParams::midband(60, policy), distances, seed, 6_000);
        if got != (records, digest) {
            failures.push(format!(
                "{policy:?} N={} seed {seed}: {} records, digest {:#018x}",
                distances.len(),
                got.0,
                got.1
            ));
        }
    }
    assert!(failures.is_empty(), "golden contention digests moved:\n{}", failures.join("\n"));
}

/// Every policy at N ∈ {1, 2, 4, 100}, both directions saturated, at
/// 90 MHz. The 100-UE cells repeat eight spots, so co-located UEs share
/// a large-scale cache and equal splits leave a rotating remainder.
/// `(policy, n_ues, records, digest)`.
const POLICY_MATRIX: [(SchedulerPolicy, usize, usize, u64); 16] = [
    (EqualShare, 1, 2800, 0x36cf_045a_41a1_edbb),
    (EqualShare, 2, 5600, 0x5617_7a2d_8fe7_285f),
    (EqualShare, 4, 11200, 0x53af_7c83_5ab8_6967),
    (EqualShare, 100, 140000, 0xf4fc_d0bf_f400_2986),
    (RoundRobinSlots, 1, 2800, 0x36cf_045a_41a1_edbb),
    (RoundRobinSlots, 2, 5600, 0xe256_9378_afbd_f214),
    (RoundRobinSlots, 4, 11200, 0xfea3_6d49_c177_8e81),
    (RoundRobinSlots, 100, 140000, 0xc283_d89d_cf5e_8f2d),
    (MaxCqi, 1, 2800, 0x36cf_045a_41a1_edbb),
    (MaxCqi, 2, 5600, 0x4828_24b3_0f86_688b),
    (MaxCqi, 4, 11200, 0xb4d7_106c_93ac_7932),
    (MaxCqi, 100, 140000, 0xc566_6cf5_3eec_9f0a),
    (ProportionalFair, 1, 2800, 0x36cf_045a_41a1_edbb),
    (ProportionalFair, 2, 5600, 0x9bff_e86d_6b26_8c94),
    (ProportionalFair, 4, 11200, 0x9826_d21b_a9a4_3e02),
    (ProportionalFair, 100, 140000, 0x8ef6_c0f1_6667_7b46),
];

#[test]
fn policy_matrix_cell_digests_are_unchanged() {
    const SPOTS: [f64; 8] = [45.0, 70.0, 95.0, 117.0, 60.0, 85.0, 110.0, 135.0];
    let mut failures = Vec::new();
    for (policy, n, records, digest) in POLICY_MATRIX {
        let distances: Vec<f64> = (0..n).map(|i| SPOTS[i % SPOTS.len()]).collect();
        let mut params = CellParams::midband(90, policy);
        params.traffic = TrafficPattern::BOTH;
        let slots = if n > 4 { 1_000 } else { 2_000 };
        let got = cell_digest(params, &distances, 66, slots);
        if got != (records, digest) {
            failures.push(format!("{policy:?} N={n}: {} records, digest {:#018x}", got.0, got.1));
        }
    }
    assert!(failures.is_empty(), "golden policy-matrix digests moved:\n{}", failures.join("\n"));
}

fn hash_workload(h: &mut Fnv, stats: &WorkloadStats, delays_ms: &[f64]) {
    h.word(stats.offered_bits);
    h.word(stats.delivered_bits);
    h.word(stats.lost_bits);
    h.word(stats.completed_units);
    h.f64(stats.cwnd_bits);
    h.word(delays_ms.len() as u64);
    for &d in delays_ms {
        h.f64(d);
    }
}

/// Closed-loop and real-time workloads behind a deep FIFO and CoDel on
/// V_Sp: the trace, the workload counters and the per-frame delays. An
/// 8 Mbps RTC stream never builds a queue CoDel would act on, so its two
/// rows agree. `(label, workload, records, digest)`.
const WORKLOAD_TABLE: [(&str, WorkloadSpec, usize, u64); 4] = [
    ("cwnd, deep FIFO", WorkloadSpec::Cwnd { aqm: AqmSpec::DeepFifo }, 5600, 0x16bb_1481_6410_e7a6),
    ("cwnd, CoDel", WorkloadSpec::Cwnd { aqm: AqmSpec::CoDel { limit_kbit: 4_000 } }, 5600, 0x6554_1503_a00d_5887),
    (
        "RTC, deep FIFO",
        WorkloadSpec::Rtc { rate_mbps: 8.0, fps: 60.0, aqm: AqmSpec::DeepFifo },
        5600,
        0xffdd_72c7_f4a0_13f8,
    ),
    (
        "RTC, CoDel",
        WorkloadSpec::Rtc { rate_mbps: 8.0, fps: 60.0, aqm: AqmSpec::CoDel { limit_kbit: 2_000 } },
        5600,
        0xffdd_72c7_f4a0_13f8,
    ),
];

#[test]
fn workload_session_digests_are_unchanged() {
    let mut failures = Vec::new();
    for (label, workload, records, digest) in WORKLOAD_TABLE {
        let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, SESSION_S, 16);
        let wl = SessionResult::run_workload(spec, &workload);
        let mut h = Fnv::new();
        for k in wl.result.trace.iter() {
            hash_record(&mut h, &k);
        }
        hash_workload(&mut h, &wl.outcome.stats, &wl.outcome.delay_samples_ms);
        let n = wl.result.trace.len();
        if (n, h.0) != (records, digest) {
            failures.push(format!("{label}: {n} records, digest {:#018x}", h.0));
        }
    }
    assert!(failures.is_empty(), "golden workload digests moved:\n{}", failures.join("\n"));
}

/// One carrier granted half of a V_Sp-class cell behind a cwnd transport
/// and a deep FIFO (the bufferbloat experiment's shape): the DL share
/// misses the carrier's full-share allocation table, so every grant
/// takes the off-table path.
#[test]
fn half_share_carrier_digest_is_unchanged() {
    let profile = Operator::VodafoneSpain.profile();
    let pos = Position::new(100.0, 0.0);
    let seeds = SeedTree::new(17).child("aqm");
    let channel = ChannelSimulator::new(
        profile.channel_config(&profile.carriers[0]),
        DeploymentLayout::single_site(),
        MobilityModel::Stationary { position: pos },
        &seeds,
    );
    let cfg = CellConfig::midband(90, "DDDSU");
    let mut carrier =
        Carrier::new(cfg, 0, channel, profile.link_model(&profile.carriers[0]), &seeds);
    let (workload, queue) = WorkloadSpec::Cwnd { aqm: AqmSpec::DeepFifo }.build();
    carrier.set_dl_workload(workload, queue);
    let mut h = Fnv::new();
    let mut records = 0usize;
    for _ in 0..4_000 {
        let out = carrier.step(pos, 0.0, TrafficPattern::DL, false, 0.5, 1.0);
        hash_record(&mut h, &out.dl);
        records += 1;
        if let Some(ul) = out.ul {
            hash_record(&mut h, &ul);
            records += 1;
        }
    }
    let mut delays_ms = Vec::new();
    carrier.dl_traffic_mut().take_delay_samples(&mut delays_ms);
    hash_workload(&mut h, &carrier.dl_traffic().workload_stats(), &delays_ms);
    assert_eq!((records, h.0), (5600, 0xd27e_86a0_cc8f_6615), "golden half-share digest moved: {:#018x}", h.0);
}

/// One point of the cell-load sweep, every field of it: 16 full-buffer
/// UEs under proportional fair at 90 MHz, 2,000 slots, seeded as the
/// sweep's fourth point.
#[test]
fn cell_load_point_digest_is_unchanged() {
    let sweep = CellLoadSweep { slots: 2_000, ..CellLoadSweep::paper_default(20) };
    let p = sweep.run_point(3, 16);
    let mut h = Fnv::new();
    h.word(p.ues as u64);
    h.f64(p.cell_dl_mbps);
    h.f64(p.mean_ue_dl_mbps);
    h.f64(p.min_ue_dl_mbps);
    h.f64(p.max_ue_dl_mbps);
    h.f64(p.jain_fairness);
    h.word(p.served_ues as u64);
    h.f64(p.mean_prb_per_dl_slot);
    assert_eq!(h.0, 0xabc8_9414_fd59_ad8c, "golden load-point digest moved: {:#018x} ({p:?})", h.0);
}

/// A bare carrier on its default full-buffer legs, both directions
/// saturated: 90 MHz DDDSU, urban channel, 256QAM link, 95 m, seed 90,
/// 8,000 slots.
#[test]
fn full_buffer_carrier_digest_is_unchanged() {
    let pos = Position::new(95.0, 0.0);
    let seeds = SeedTree::new(90);
    let cfg = CellConfig::midband(90, "DDDSU");
    let channel = ChannelSimulator::new(
        ChannelConfig::midband_urban(cfg.n_rb),
        DeploymentLayout::single_site(),
        MobilityModel::Stationary { position: pos },
        &seeds,
    );
    let mut carrier = Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds);
    let mut h = Fnv::new();
    let mut records = 0usize;
    for _ in 0..8_000 {
        let out = carrier.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
        hash_record(&mut h, &out.dl);
        records += 1;
        if let Some(ul) = out.ul {
            hash_record(&mut h, &ul);
            records += 1;
        }
    }
    assert_eq!((records, h.0), (11200, 0x4aac_b009_22fc_cba9), "golden full-buffer carrier digest moved: {:#018x}", h.0);
}

/// Five full-buffer UEs under proportional fair at 60 MHz, seed 91,
/// 6,000 slots, on the default DL legs.
#[test]
fn full_buffer_cell_digest_is_unchanged() {
    let distances = [45.0, 65.0, 85.0, 105.0, 125.0];
    let got = cell_digest(CellParams::midband(60, ProportionalFair), &distances, 91, 6_000);
    assert_eq!(got, (42000, 0x2051_67de_5004_f34b), "golden full-buffer cell digest moved: {:#018x}", got.1);
}

/// The CBR offered-load sweep below, at and far past the knee: every
/// field of every row.
#[test]
fn cbr_load_sweep_digest_is_unchanged() {
    let rows = extensions::load_sweep(&[100.0, 400.0, 2000.0], 2.0, 11);
    let mut h = Fnv::new();
    h.word(rows.len() as u64);
    for r in &rows {
        h.f64(r.offered_mbps);
        h.f64(r.delivered_mbps);
        h.f64(r.queue_delay_ms);
        h.f64(r.utilisation);
    }
    assert_eq!(h.0, 0x9b31_a708_ebec_471a, "golden load-sweep digest moved: {:#018x} ({rows:?})", h.0);
}

// ------------------------------------------------------- campaign layer

/// The chaos rates of `tests/chaos.rs`: around half the sessions lose a
/// span, a third abort early, 2% of records decode as garbage, a third
/// panic at least once.
const CHAOS: FaultConfig =
    FaultConfig { gap_rate: 0.5, abort_rate: 0.3, corrupt_rate: 0.02, panic_rate: 0.3 };

/// Four half-second V_It sessions. Under [`CHAOS`] this base seed plans
/// three gaps, one abort, one panic that heals on retry and one that
/// outlasts the default retry budget.
fn chaos_campaign() -> Campaign {
    Campaign {
        operator: Operator::VodafoneItaly,
        sessions: 4,
        session_duration_s: 0.5,
        base_seed: 14,
    }
}

fn golden_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midband5g-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir` as `(relative path, bytes)`, sorted: the walk
/// `perfbench` uses to compare merged directories.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("walk stays under root");
                out.push((rel.to_string_lossy().into_owned(), std::fs::read(&path).expect("read")));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// `(files, digest)` over every relative path and its contents.
fn tree_digest(dir: &Path) -> (usize, u64) {
    let files = tree(dir);
    let mut h = Fnv::new();
    for (path, bytes) in &files {
        h.bytes(path.as_bytes());
        h.bytes(bytes);
    }
    (files.len(), h.0)
}

fn json_digest(parts: &[String]) -> u64 {
    let mut h = Fnv::new();
    for part in parts {
        h.bytes(part.as_bytes());
    }
    h.0
}

/// A `Dataset::export` of two fault-free sessions: the manifest and both
/// `.kpi` files, byte for byte.
#[test]
fn dataset_export_tree_digest_is_unchanged() {
    let campaign = Campaign {
        operator: Operator::VodafoneItaly,
        sessions: 2,
        session_duration_s: 0.5,
        base_seed: 21,
    };
    let dir = golden_dir("export");
    Dataset::at(&dir).export("golden export", &campaign.run()).expect("export");
    let got = tree_digest(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, (3, 0x11fb_9eba_d866_f031), "golden export tree moved: {:#018x}", got.1);
}

/// The finished directory of a single-worker distributed run under
/// chaos: the checkpointed layout (`sessions/`, `checkpoint.json`,
/// `manifest.json`) that every worker count must merge to.
#[test]
fn single_worker_distributed_tree_digest_is_unchanged() {
    let job = DistJob { faults: CHAOS, ..DistJob::new(vec![chaos_campaign()]) };
    let dir = golden_dir("dist");
    let config = DistConfig { workers: 1, ..DistConfig::default() };
    let mut no_spawn = |_: &Path, _: &str| -> std::io::Result<std::process::Child> {
        unreachable!("a single-worker run spawns no process")
    };
    let out = run_distributed(&dir, &job, &config, &mut no_spawn).expect("distributed run");
    assert_eq!((out.outcome.results.len(), out.outcome.failures.len()), (3, 1));
    let got = tree_digest(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(got, (5, 0x1947_a44c_e4c7_38cc), "golden distributed tree moved: {:#018x}", got.1);
}

fn resilient_outcome(campaign: &Campaign) -> CampaignOutcome {
    let plan =
        Plan { executor: Executor::new(2), faults: CHAOS, retry_budget: DEFAULT_RETRY_BUDGET };
    plan.run(&campaign.specs(), &Traces)
}

/// A self-healing campaign's whole outcome under chaos, as JSON: the
/// surviving traces, the abandoned session and per-survivor coverage.
#[test]
fn resilient_outcome_digest_is_unchanged() {
    let outcome = resilient_outcome(&chaos_campaign());
    assert_eq!((outcome.results.len(), outcome.failures.len()), (3, 1));
    assert!(outcome.min_coverage() < 1.0, "the chaos plan gaps a survivor");
    let got = json_digest(&[serde_json::to_string(&outcome).expect("outcome serialises")]);
    assert_eq!(got, 0xb56a_5ace_6783_1525, "golden resilient outcome moved: {got:#018x}");
}

fn streaming_outcome(
    campaign: &Campaign,
    bin_s: f64,
) -> (OnlineAggregates, Vec<SessionFailure>, Vec<SessionCoverage>) {
    let plan =
        Plan { executor: Executor::new(2), faults: CHAOS, retry_budget: DEFAULT_RETRY_BUDGET };
    let reducer = Aggregates { bin_s };
    let out = plan.run(&campaign.specs(), &reducer);
    (reducer.merge(&out.results), out.failures, out.coverage)
}

/// The bounded-memory campaign under chaos: aggregates merged over the
/// survivors in spec order, failures and coverage.
#[test]
fn streaming_outcome_digest_is_unchanged() {
    let (aggregates, failures, coverage) = streaming_outcome(&chaos_campaign(), 0.25);
    assert_eq!((failures.len(), coverage.len()), (1, 3));
    let got = json_digest(&[
        serde_json::to_string(&aggregates).expect("aggregates serialise"),
        serde_json::to_string(&failures).expect("failures serialise"),
        serde_json::to_string(&coverage).expect("coverage serialises"),
    ]);
    assert_eq!(got, 0x49aa_eb42_ef5f_3bc2, "golden streaming outcome moved: {got:#018x}");
}

// --------------------------------------------------------- daemon layer

/// Every tier of every metric a one-thread, one-wave daemon serves over
/// its bus: two 1 s sessions (V_Sp, T_Ge), raw ring smaller than the
/// wave so it wraps.
#[test]
fn daemon_served_tiers_digest_is_unchanged() {
    use daemon::proto::{Request, Response, Tier};
    use daemon::store::{RetentionConfig, METRICS};

    let config = daemon::DaemonConfig {
        socket_path: std::env::temp_dir()
            .join(format!("midband5g-golden-daemon-{}.sock", std::process::id())),
        operators: vec![Operator::VodafoneSpain, Operator::TelekomGermany],
        sessions_per_operator: 1,
        session_duration_s: 1.0,
        base_seed: 31,
        threads: 1,
        waves: Some(1),
        retention: RetentionConfig { raw_capacity: 8192, sec_capacity: 600, min_capacity: 60 },
        tick_ms: 50,
        session_log: 64,
    };
    let socket = config.socket_path.clone();
    let handle = daemon::start(config).expect("daemon starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while handle.waves_done() < 1 {
        assert!(std::time::Instant::now() < deadline, "daemon never finished its wave");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut h = Fnv::new();
    let mut raw = 0;
    for metric in METRICS {
        for tier in [Tier::Raw, Tier::Seconds, Tier::Minutes] {
            let request = Request::GetSeries { metric: metric.name.to_string(), tier, last: 0 };
            let series = match daemon::request_once(&socket, &request).expect("series") {
                Response::Series { series } => series,
                other => panic!("expected Series, got {other:?}"),
            };
            if tier == Tier::Raw {
                raw += series.values.len();
            }
            h.bytes(series.metric.as_bytes());
            h.f64(series.bin_s);
            h.word(series.start_bin);
            h.word(series.times.len() as u64);
            series.times.iter().for_each(|&t| h.f64(t));
            h.word(series.values.len() as u64);
            series.values.iter().for_each(|&v| h.f64(v));
            h.word(series.counts.len() as u64);
            series.counts.iter().for_each(|&n| h.word(n));
        }
    }
    handle.shutdown();
    handle.join();
    assert_eq!((raw, h.0), (8192, 0x487f_eefa_dbfb_f24b), "golden daemon tiers moved: {:#018x}", h.0);
}
