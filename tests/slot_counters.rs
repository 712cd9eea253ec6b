//! The batched slot counters are exact.
//!
//! `ran.*` and `sim.ticks` count per simulator instance and publish in
//! batches (every few thousand slots, and on drop). Once a campaign
//! returns, every simulator has dropped, so each counter must have moved
//! by exactly the total its returned traces imply: a lost tail flush
//! shows as a shortfall, a clone that re-publishes its parent's pending
//! count as an excess.
//!
//! Everything lives in a single `#[test]`: the registry is
//! process-global, so a second test in this binary would move the same
//! counters concurrently.

use midband5g::measure::campaign::Campaign;
use midband5g::obs;
use midband5g::operators::Operator;
use midband5g::radio_channel::channel::{ChannelConfig, ChannelSimulator};
use midband5g::radio_channel::geometry::{DeploymentLayout, Position};
use midband5g::radio_channel::link::LinkModel;
use midband5g::radio_channel::mobility::MobilityModel;
use midband5g::radio_channel::rng::SeedTree;
use midband5g::ran::carrier::{Carrier, TrafficPattern};
use midband5g::ran::config::CellConfig;
use midband5g::ran::kpi::Direction;
use midband5g::ran::lte::LTE_CARRIER_INDEX;
use std::collections::BTreeMap;

const COUNTERS: [&str; 5] =
    ["ran.slots", "ran.delivered_bits", "ran.retx", "ran.block_errors", "sim.ticks"];

fn read_counters() -> [u64; 5] {
    let snap = obs::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn deltas(before: [u64; 5], after: [u64; 5]) -> BTreeMap<&'static str, u64> {
    COUNTERS.into_iter().zip(after.into_iter().zip(before)).map(|(n, (a, b))| (n, a - b)).collect()
}

#[test]
fn batched_slot_counters_match_the_traces_exactly() {
    // --- A parallel campaign: counters equal the totals in its traces.
    // 3 s sessions step 6000 slots on their 30 kHz carriers, so every
    // carrier publishes mid-run and again when it drops.
    let before = read_counters();
    let mut want: BTreeMap<&'static str, u64> = COUNTERS.into_iter().map(|n| (n, 0)).collect();
    for operator in [Operator::VodafoneSpain, Operator::TMobileUs] {
        let campaign =
            Campaign { operator, sessions: 2, session_duration_s: 3.0, base_seed: 4100 };
        for result in campaign.run_parallel(2) {
            // Every NR carrier step emits exactly one DL record; the LTE
            // leg counts nothing. The finest-numerology carrier steps on
            // every tick, so its DL records are the session's ticks.
            let mut dl_per_carrier: BTreeMap<u8, u64> = BTreeMap::new();
            for r in result.trace.iter().filter(|r| r.carrier != LTE_CARRIER_INDEX) {
                if r.direction == Direction::Dl {
                    *dl_per_carrier.entry(r.carrier).or_default() += 1;
                }
                *want.get_mut("ran.delivered_bits").unwrap() += u64::from(r.delivered_bits);
                *want.get_mut("ran.retx").unwrap() += u64::from(r.is_retx);
                *want.get_mut("ran.block_errors").unwrap() += u64::from(r.block_error);
            }
            *want.get_mut("ran.slots").unwrap() += dl_per_carrier.values().sum::<u64>();
            *want.get_mut("sim.ticks").unwrap() += dl_per_carrier.values().max().unwrap();
        }
    }
    assert!(want["ran.retx"] > 0 && want["ran.block_errors"] > 0, "HARQ never fired: {want:?}");
    assert_eq!(deltas(before, read_counters()), want);

    // --- A clone of a stepped carrier publishes nothing of its parent's.
    let cfg = CellConfig::midband(90, "DDDSU");
    let position = Position::new(120.0, 0.0);
    let seeds = SeedTree::new(4200);
    let channel = ChannelSimulator::new(
        ChannelConfig::midband_urban(cfg.n_rb),
        DeploymentLayout::single_site(),
        MobilityModel::Stationary { position },
        &seeds,
    );
    let mut carrier = Carrier::new(cfg, 0, channel, LinkModel::midband_qam256(), &seeds);
    let before = read_counters();
    for _ in 0..300 {
        carrier.step(position, 0.0, TrafficPattern::BOTH, true, 1.0, 1.0);
    }
    assert_eq!(read_counters(), before, "300 slots publish nothing before a flush");
    drop(carrier.clone());
    assert_eq!(read_counters(), before, "dropping a clone moved a counter");
    drop(carrier);
    assert_eq!(deltas(before, read_counters())["ran.slots"], 300);
}
