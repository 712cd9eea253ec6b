//! The bounded time-bin grid behind every dense series.
//!
//! Each probe below used to abort the process on an allocation of
//! `⌈duration / bin⌉` words that no `catch_unwind` can contain; now an
//! over-cap grid gives an empty series and is counted. The proptest keeps
//! the two count formulas and the index formula the grid replaced as its
//! oracle.

use analysis::timeseries::bin_sum;
use analysis::OnlineAggregates;
use proptest::prelude::*;
use ran::kpi::{BinGrid, Direction, KpiTrace, SlotKpi, MAX_BINS};
use ran::sink::SlotSink;

fn record(slot: u64, time_s: f64, delivered_bits: u32) -> SlotKpi {
    SlotKpi {
        scheduled: true,
        delivered_bits,
        ..SlotKpi::idle(slot, time_s, 0, Direction::Dl, 12, 20.0, -80.0, -10.0, 0)
    }
}

fn degenerate_grids() -> u64 {
    obs::registry().counter("timeseries.degenerate_grids").get()
}

#[test]
fn far_future_record_gives_an_empty_trace_series() {
    let trace: KpiTrace = [record(1, 1e15, 1000)].into_iter().collect();
    assert!(trace.throughput_series_mbps(Direction::Dl, 1.0).is_empty());
    assert_eq!(trace.mean_throughput_mbps_where_cqi(Direction::Dl, 1.0, 0), None);
}

#[test]
fn vanishing_bin_width_gives_an_empty_trace_series() {
    let trace: KpiTrace = [record(1, 0.0005, 1000)].into_iter().collect();
    assert_eq!(trace.duration_s(), 0.001);
    assert!(trace.throughput_series_mbps(Direction::Dl, 1e-300).is_empty());
}

#[test]
fn far_future_record_counts_in_every_total_but_no_bin() {
    let before = degenerate_grids();
    let mut agg = OnlineAggregates::new(1.0);
    agg.push(&record(1, 0.5, 700));
    agg.push(&record(1, 1e15, 1000));
    agg.finish();
    assert_eq!(agg.records(), 2);
    assert_eq!(agg.delivered_bits(Direction::Dl), 1700);
    assert_eq!(agg.mean_cqi(), 12.0);
    assert!(agg.throughput_series_mbps(Direction::Dl).is_empty());
    assert_eq!(agg.bin_records(), &[1]);
    assert!(agg.heap_bytes() < 1 << 10);
    assert!(degenerate_grids() > before);
}

#[test]
fn far_future_duration_gives_an_empty_resampled_series() {
    let before = degenerate_grids();
    assert!(bin_sum(&[(0.5, 1.0)], 1.0, 1e15).values.is_empty());
    assert!(degenerate_grids() > before);
}

#[test]
fn the_cap_is_inclusive() {
    assert_eq!(BinGrid::new(1.0, MAX_BINS as f64).map(|g| g.n()), Some(MAX_BINS));
    assert_eq!(BinGrid::new(1.0, MAX_BINS as f64 + 0.5), None);
    assert_eq!(BinGrid::open_index(1.0, MAX_BINS as f64 - 0.5), Some(MAX_BINS - 1));
    assert_eq!(BinGrid::open_index(1.0, MAX_BINS as f64), None);
}

proptest! {
    /// On finite in-cap inputs the grid counts and indexes exactly as the
    /// formulas it replaced: `ran::kpi`'s and `analysis::timeseries`'
    /// counts, and the clamped `floor(t / bin)` of every scan.
    #[test]
    fn grid_matches_the_formulas_it_replaced(
        bin_s in 1e-3f64..10.0,
        duration_s in -10.0f64..1e3,
        t in -1.0f64..2e3,
    ) {
        let grid = BinGrid::new(bin_s, duration_s).expect("finite in-cap grid");
        let kpi_count = if duration_s <= 0.0 {
            0
        } else {
            ((duration_s / bin_s).ceil() as usize).max(1)
        };
        let resampler_count = (duration_s / bin_s).ceil().max(0.0) as usize;
        prop_assert_eq!(grid.n(), kpi_count);
        prop_assert_eq!(grid.n(), resampler_count);
        if grid.n() > 0 {
            prop_assert_eq!(grid.index(t), ((t / bin_s) as usize).min(grid.n() - 1));
        }
        prop_assert_eq!(BinGrid::open_index(bin_s, t), Some((t / bin_s) as usize));
    }
}
