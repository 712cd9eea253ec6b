//! Ablation studies of the design choices DESIGN.md calls out: what each
//! mechanism contributes to the reproduced behaviours.
//!
//! * OLLA on/off — link-adaptation robustness vs BLER;
//! * vendor CQI→MCS offset sweep — the §3.1 "vendor mapping" spread;
//! * HARQ max attempts — residual loss vs capacity;
//! * TDD pattern sweep — the §4.3 latency mechanism in isolation;
//! * BOLA buffer target & chunk-length sweep — the §6.2 knob;
//! * scheduler policy — EqualShare vs RoundRobin vs ProportionalFair.

use midband5g::analysis::stats::mean;
use midband5g::nr_phy::cqi::{CqiTable, CqiToMcsPolicy};
use midband5g::nr_phy::tdd::{SpecialSlotConfig, TddPattern};
use midband5g::operators::Operator;
use midband5g::radio_channel::channel::{ChannelConfig, ChannelSimulator};
use midband5g::radio_channel::geometry::{DeploymentLayout, Position};
use midband5g::radio_channel::link::LinkModel;
use midband5g::radio_channel::mobility::MobilityModel;
use midband5g::radio_channel::rng::SeedTree;
use midband5g::ran::amc::OllaConfig;
use midband5g::ran::carrier::{Carrier, TrafficPattern};
use midband5g::ran::cell::{CellParams, CellSim, UeSpec};
use midband5g::ran::config::CellConfig;
use midband5g::ran::harq::HarqConfig;
use midband5g::ran::kpi::{Direction, KpiTrace};
use midband5g::ran::latency::{mean_total_ms, run_probes, LatencyProbeConfig};
use midband5g::ran::scheduler::SchedulerPolicy;
use midband5g::video::{AbrKind, PlayerConfig, PlayerSim, QoeMetrics, QualityLadder};
use midband5g_bench::RunArgs;

fn carrier_at(distance: f64, seed: u64, tweak: impl FnOnce(&mut Carrier)) -> (Carrier, Position) {
    let cfg = CellConfig::midband(90, "DDDSU");
    let pos = Position::new(distance, 0.0);
    let seeds = SeedTree::new(seed);
    let channel = ChannelSimulator::new(
        ChannelConfig::midband_urban(cfg.n_rb),
        DeploymentLayout::single_site(),
        MobilityModel::Stationary { position: pos },
        &seeds,
    );
    let mut c = Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds);
    tweak(&mut c);
    (c, pos)
}

fn run_carrier(mut c: Carrier, pos: Position, slots: u64) -> KpiTrace {
    let mut t = KpiTrace::new();
    for _ in 0..slots {
        let out = c.step(pos, 0.0, TrafficPattern::DL, false, 1.0, 1.0);
        t.push(out.dl);
    }
    t
}

fn ablate_olla(seed: u64) {
    println!("## OLLA ablation (290 m cell edge, 20 s)");
    for enabled in [true, false] {
        let (c, pos) = carrier_at(290.0, seed, |c| {
            c.set_olla(OllaConfig { enabled, ..OllaConfig::default() })
        });
        let t = run_carrier(c, pos, 40_000);
        println!(
            "  OLLA {:<5} → DL {:>7.1} Mbps, BLER {:>5.1}%",
            enabled,
            t.mean_throughput_mbps(Direction::Dl),
            100.0 * t.dl_bler()
        );
    }
    println!("  (the outer loop trades a little throughput for a BLER near target)");
}

fn ablate_vendor_offset(seed: u64) {
    println!("\n## Vendor CQI→MCS offset sweep (good coverage, 15 s)");
    for offset in [-4i8, -2, 0, 2, 4] {
        let (c, pos) = carrier_at(120.0, seed, |c| {
            c.cfg.mcs_policy =
                CqiToMcsPolicy { index_offset: offset, ..CqiToMcsPolicy::neutral(CqiTable::Table2) };
        });
        let t = run_carrier(c, pos, 30_000);
        println!(
            "  offset {:>3} → DL {:>7.1} Mbps, BLER {:>5.1}%",
            offset,
            t.mean_throughput_mbps(Direction::Dl),
            100.0 * t.dl_bler()
        );
    }
    println!("  (aggressive vendors gain little and pay in BLER — the paper's");
    println!("   vendor-mapping diversity is a real operating-point choice)");
}

fn ablate_harq(seed: u64) {
    println!("\n## HARQ max-attempts ablation (330 m, 20 s)");
    for max_attempts in [1u8, 2, 4] {
        let (c, pos) = carrier_at(330.0, seed, |c| {
            c.set_harq(HarqConfig { max_attempts, ..HarqConfig::default() })
        });
        let t = run_carrier(c, pos, 40_000);
        println!(
            "  attempts {:>2} → DL {:>7.1} Mbps",
            max_attempts,
            t.mean_throughput_mbps(Direction::Dl),
        );
    }
    println!("  (retransmissions recover edge-of-cell goodput)");
}

fn ablate_tdd(seed: u64) {
    println!("\n## TDD pattern latency sweep (BLER = 0)");
    let patterns: [(&str, SpecialSlotConfig); 4] = [
        ("DDDSU", SpecialSlotConfig::BALANCED),
        ("DDDSU", SpecialSlotConfig::DL_HEAVY),
        ("DDDSUUDDDD", SpecialSlotConfig::DL_HEAVY),
        ("DDDDDDDSUU", SpecialSlotConfig { dl_symbols: 12, guard_symbols: 2, ul_symbols: 0 }),
    ];
    for (p, s) in patterns {
        let pattern = TddPattern::parse(p, s).unwrap();
        let samples = run_probes(
            &pattern,
            &LatencyProbeConfig::default(),
            20_000,
            Some(false),
            &SeedTree::new(seed),
        );
        println!(
            "  {:<12} (S={}D:{}G:{}U) → {:>5.2} ms | DL duty {:>5.1}%",
            p,
            s.dl_symbols,
            s.guard_symbols,
            s.ul_symbols,
            mean_total_ms(&samples),
            100.0 * pattern.dl_duty_cycle()
        );
    }
    println!("  (the §4.3 trade: DL-heavy frames buy throughput with latency)");
}

fn ablate_scheduler(seed: u64) {
    println!("\n## Scheduler policy (two UEs at 45/117 m, 20 s)");
    for policy in
        [SchedulerPolicy::EqualShare, SchedulerPolicy::RoundRobinSlots, SchedulerPolicy::ProportionalFair]
    {
        let profile = Operator::VerizonUs.profile();
        let params = CellParams {
            cell: profile.carriers[0].cell.clone(),
            channel: profile.channel_config(&profile.carriers[0]),
            layout: DeploymentLayout::single_site(),
            link: profile.link_model(&profile.carriers[0]),
            policy,
            traffic: TrafficPattern::DL,
        };
        let ues = [UeSpec::at(45.0, 0.0), UeSpec::at(117.0, 0.0)];
        let mut sim = CellSim::new(params, &ues, &SeedTree::new(seed));
        let traces = sim.run(40_000);
        let a = traces[0].mean_throughput_mbps(Direction::Dl);
        let b = traces[1].mean_throughput_mbps(Direction::Dl);
        println!("  {policy:?}: near {a:>7.1} Mbps | far {b:>7.1} Mbps | sum {:>7.1}", a + b);
    }
}

fn ablate_video(seed: u64) {
    println!("\n## BOLA buffer target & chunk length (V_Sp channel, 60 s)");
    use midband5g::experiments::bandwidth_trace;
    use midband5g::measure::session::{MobilityKind, SessionResult, SessionSpec};
    let session = SessionResult::run(SessionSpec {
        operator: Operator::VodafoneSpain,
        mobility: MobilityKind::Stationary { spot: 0 },
        dl: true,
        ul: false,
        duration_s: 60.0,
        seed,
    });
    let bw = bandwidth_trace(&session.trace, 0.05);
    for chunk_s in [8.0, 4.0, 2.0, 1.0] {
        let ladder = QualityLadder::paper_midband().with_chunk_s(chunk_s);
        let mut nb = Vec::new();
        let mut sp = Vec::new();
        let mut abr = AbrKind::Bola.build();
        let log = PlayerSim::new(ladder.clone(), PlayerConfig::default(), &bw).play(abr.as_mut());
        let q = QoeMetrics::from_log(&log, &ladder);
        nb.push(q.normalized_bitrate);
        sp.push(q.stall_pct);
        println!(
            "  chunk {:>3.0} s → bitrate {:>4.2} | stalls {:>5.2}%",
            chunk_s,
            mean(&nb),
            mean(&sp)
        );
    }
    println!("  (§6.2: shorter chunks adapt faster than the channel varies)");
}

fn main() {
    let args = RunArgs::parse(1, 0.0);
    println!("midband5g ablation studies (seed {})\n", args.seed);
    ablate_olla(args.seed);
    ablate_vendor_offset(args.seed);
    ablate_harq(args.seed);
    ablate_tdd(args.seed);
    ablate_scheduler(args.seed);
    ablate_video(args.seed);
}
