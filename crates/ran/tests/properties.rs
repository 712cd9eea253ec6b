//! Property-based tests of the RAN simulator's invariants.

use proptest::prelude::*;
use ran::carrier::{Carrier, TrafficPattern};
use ran::config::CellConfig;
use ran::harq::{HarqConfig, HarqEntity};
use ran::kpi::Direction;
use ran::latency::{run_probes, LatencyProbeConfig};
use radio_channel::channel::{ChannelConfig, ChannelSimulator};
use radio_channel::geometry::{DeploymentLayout, Position};
use radio_channel::link::LinkModel;
use radio_channel::mobility::MobilityModel;
use radio_channel::rng::SeedTree;

proptest! {
    /// HARQ conservation: every recorded failure is eventually either
    /// retransmittable or counted as dropped — nothing vanishes.
    #[test]
    fn harq_conserves_blocks(
        failures in prop::collection::vec((1u32..1_000_000, 1u8..=3, 0u64..1000), 0..50),
        max_attempts in 2u8..=4,
    ) {
        let mut h = HarqEntity::new(HarqConfig { max_attempts, ..HarqConfig::default() });
        let mut queued = 0u64;
        let mut dropped_expect = 0u64;
        for (bits, attempts, slot) in failures {
            if attempts >= max_attempts {
                dropped_expect += 1;
            } else {
                queued += 1;
            }
            h.record_failure(bits, attempts, slot);
        }
        prop_assert_eq!(h.dropped(), dropped_expect);
        let mut popped = 0u64;
        while h.pop_ready(u64::MAX).is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, queued);
        prop_assert_eq!(h.backlog(), 0);
    }

    /// Per-slot carrier invariants hold under arbitrary (valid) geometry:
    /// delivered ≤ TBS, PRBs ≤ N_RB, layers ≤ cell max, and the carrier
    /// views partition the trace (all of it on the carrier's own index).
    #[test]
    fn carrier_slot_invariants(
        distance in 40.0f64..500.0,
        seed in 0u64..500,
        bw in prop::sample::select(vec![40u32, 60, 80, 90, 100]),
    ) {
        let cfg = CellConfig::midband(bw, "DDDSU");
        let n_rb = cfg.n_rb;
        let max_layers = cfg.max_dl_layers;
        let pos = Position::new(distance, 0.0);
        let seeds = SeedTree::new(seed);
        let channel = ChannelSimulator::new(
            ChannelConfig::midband_urban(n_rb),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &seeds,
        );
        let mut carrier = Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds);
        let mut trace = ran::kpi::KpiTrace::new();
        for _ in 0..400 {
            let out = carrier.step(pos, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
            trace.push(out.dl);
            if let Some(ul) = out.ul {
                trace.push(ul);
            }
        }
        for r in trace.iter() {
            prop_assert!(r.delivered_bits <= r.tbs_bits);
            prop_assert!(r.n_prb <= n_rb);
            prop_assert!(r.layers <= max_layers);
            prop_assert!(r.cqi <= 15);
            if !r.scheduled {
                prop_assert_eq!(r.tbs_bits, 0);
            }
            if r.block_error {
                prop_assert_eq!(r.delivered_bits, 0);
            }
        }
        let pcell = trace.filter_carrier_is(0).len();
        let others = trace.filter_carrier_not(0).len();
        prop_assert_eq!(pcell + others, trace.len());
        prop_assert_eq!(pcell, trace.len());
    }

    /// Latency probes are positive, finite and bounded by a few pattern
    /// periods, for every operator-realistic pattern and retx mode.
    #[test]
    fn latency_probe_bounds(
        seed in 0u64..200,
        pattern in prop::sample::select(vec!["DDDSU", "DDSU", "DDDDDDDSUU", "DDDSUUDDDD"]),
        force in prop::sample::select(vec![Some(false), Some(true), None]),
    ) {
        let p = nr_phy::tdd::TddPattern::parse(pattern, nr_phy::tdd::SpecialSlotConfig::BALANCED).unwrap();
        let cfg = LatencyProbeConfig::default();
        let samples = run_probes(&p, &cfg, 200, force, &SeedTree::new(seed));
        let period_ms = p.len() as f64 * cfg.slot_ms;
        for s in &samples {
            prop_assert!(s.dl_ms > 0.0 && s.ul_ms > 0.0);
            prop_assert!(s.total_ms().is_finite());
            // One leg never exceeds ~3 pattern periods even with a retx.
            prop_assert!(s.dl_ms < 3.0 * period_ms + 2.0, "dl {} period {}", s.dl_ms, period_ms);
            prop_assert!(s.ul_ms < 3.0 * period_ms + 2.0);
            if force == Some(false) {
                prop_assert!(!s.had_retx);
            }
        }
    }

    /// The precomputed per-TDD-cycle allocation table is bit-identical to
    /// the direct scheduler computation across random TDD patterns,
    /// bandwidths, UL RB fractions, slots and shares — on the table's own
    /// share (the precomputed lane) and on arbitrary shares (fallthrough).
    #[test]
    fn allocation_table_bit_identical_across_patterns(
        pattern in prop::sample::select(vec![
            "DDDSU", "DDDDDDDSUU", "DDSU", "DSUUU",
        ]),
        bw in prop::sample::select(vec![40u32, 60, 80, 90, 100]),
        ul_frac in 0.05f64..1.0,
        table_share in 0.01f64..1.0,
        probes in prop::collection::vec((0u64..200, 0.01f64..1.0), 1..50),
    ) {
        use ran::scheduler::{dl_allocation, ul_allocation, AllocationTable};
        let mut cfg = CellConfig::midband(bw, pattern);
        cfg.ul_rb_fraction = ul_frac;
        let table = AllocationTable::new(&cfg, table_share, table_share);
        for (slot, share) in probes {
            // The precomputed lane.
            prop_assert_eq!(
                table.dl(&cfg, slot, table_share),
                dl_allocation(&cfg, slot, table_share)
            );
            prop_assert_eq!(
                table.ul(&cfg, slot, table_share),
                ul_allocation(&cfg, slot, table_share)
            );
            prop_assert_eq!(table.has_ul(slot), cfg.ul_symbols(slot) > 0);
            // Arbitrary shares fall through to the direct computation.
            prop_assert_eq!(table.dl(&cfg, slot, share), dl_allocation(&cfg, slot, share));
            prop_assert_eq!(table.ul(&cfg, slot, share), ul_allocation(&cfg, slot, share));
        }
    }

    /// Throughput accounting: binned series integrate to the same bits as
    /// the scalar mean, for any carrier run.
    #[test]
    fn throughput_series_consistency(seed in 0u64..300, distance in 50.0f64..300.0) {
        let cfg = CellConfig::midband(80, "DDDSU");
        let pos = Position::new(distance, 0.0);
        let seeds = SeedTree::new(seed);
        let channel = ChannelSimulator::new(
            ChannelConfig::midband_urban(cfg.n_rb),
            DeploymentLayout::single_site(),
            MobilityModel::Stationary { position: pos },
            &seeds,
        );
        let mut carrier = Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds);
        let mut trace = ran::kpi::KpiTrace::new();
        for _ in 0..2000 {
            trace.push(carrier.step(pos, 0.0, TrafficPattern::DL, false, 1.0, 1.0).dl);
        }
        let mean = trace.mean_throughput_mbps(Direction::Dl);
        let series = trace.throughput_series_mbps(Direction::Dl, 0.1);
        let from_series = series.iter().sum::<f64>() * 0.1 / trace.duration_s();
        prop_assert!((mean - from_series).abs() < 1e-6 * (1.0 + mean));
    }
}
