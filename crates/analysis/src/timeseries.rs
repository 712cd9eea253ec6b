//! Time-series resampling: slot-level KPIs onto coarser, regular grids.
//!
//! The paper presents the same underlying slot data at several
//! granularities: 60 ms for the Fig. 13/16 time-series panels, 150 ms for
//! the Fig. 15 variability scatter, seconds for throughput plots. These
//! helpers bin irregular `(time, value)` samples onto a regular grid by
//! averaging (rates, MCS, layers) or summing (bits).

use obs::audit::{self, Invariant};
use ran::kpi::BinGrid;
use serde::{Deserialize, Serialize};

/// A regularly-resampled series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resampled {
    /// Bin width, seconds.
    pub bin_s: f64,
    /// One value per bin, starting at t = 0.
    pub values: Vec<f64>,
}

impl Resampled {
    /// Bin-centre timestamps.
    pub fn timestamps(&self) -> Vec<f64> {
        (0..self.values.len()).map(|i| (i as f64 + 0.5) * self.bin_s).collect()
    }
}

/// Average of samples per bin; empty bins repeat the previous bin's value
/// (sample-and-hold, as a plotted KPI line would). Bins *before* the
/// first sample are backfilled with the first real bin's value — seeding
/// the hold with 0.0 would fabricate a zero-KPI ramp at the start of
/// every trace whose first sample lands after bin 0. All-empty input
/// still yields zeros. Samples with non-finite timestamps *or values*
/// are dropped (dropped values are counted under
/// `timeseries.nonfinite_values`): one NaN-corrupted sample — exactly
/// what `measure::fault` injects — would otherwise poison its bin's sum
/// and then every later bin through the hold. A degenerate grid (see
/// [`BinGrid::new`]) yields an empty series.
pub fn bin_average(samples: &[(f64, f64)], bin_s: f64, duration_s: f64) -> Resampled {
    let Some(grid) = BinGrid::new(bin_s, duration_s) else {
        return Resampled { bin_s, values: Vec::new() };
    };
    let n_bins = grid.n();
    let mut sums = vec![0.0; n_bins];
    let mut counts = vec![0u32; n_bins];
    let mut nonfinite = 0u64;
    for &(t, v) in samples {
        if !t.is_finite() || t < 0.0 || n_bins == 0 {
            continue;
        }
        if !v.is_finite() {
            nonfinite += 1;
            continue;
        }
        let b = grid.index(t);
        sums[b] += v;
        counts[b] += 1;
    }
    count_nonfinite(nonfinite);
    let first_value = (0..n_bins)
        .find(|&b| counts[b] > 0)
        .map_or(0.0, |b| sums[b] / f64::from(counts[b]));
    let mut values = Vec::with_capacity(n_bins);
    let mut last = first_value;
    for b in 0..n_bins {
        if counts[b] > 0 {
            last = sums[b] / f64::from(counts[b]);
        }
        values.push(last);
    }
    audit_resample_len(&values, n_bins);
    Resampled { bin_s, values }
}

/// Sum of samples per bin divided by the bin width — turning per-slot bit
/// counts into a rate series (bits/s when the samples are bits). Applies
/// the same sample-dropping rules as [`bin_average`] (non-finite
/// timestamps and values skipped, degenerate grids empty).
pub fn bin_sum(samples: &[(f64, f64)], bin_s: f64, duration_s: f64) -> Resampled {
    let Some(grid) = BinGrid::new(bin_s, duration_s) else {
        return Resampled { bin_s, values: Vec::new() };
    };
    let n_bins = grid.n();
    let mut sums = vec![0.0; n_bins];
    let mut nonfinite = 0u64;
    for &(t, v) in samples {
        if !t.is_finite() || t < 0.0 || n_bins == 0 {
            continue;
        }
        if !v.is_finite() {
            nonfinite += 1;
            continue;
        }
        sums[grid.index(t)] += v;
    }
    count_nonfinite(nonfinite);
    let values: Vec<f64> = sums.into_iter().map(|s| s / bin_s).collect();
    audit_resample_len(&values, n_bins);
    Resampled { bin_s, values }
}

/// Bump `timeseries.nonfinite_values` by the number of value-dropped
/// samples (one registry lookup per call, none when nothing was dropped).
fn count_nonfinite(n: u64) {
    if n > 0 {
        obs::registry().counter("timeseries.nonfinite_values").add(n);
    }
}

/// Samples landing in each bin of the grid that [`bin_average`] /
/// [`bin_sum`] would produce — the sample-coverage companion of a
/// resampled series. A sample-and-hold average over a gapped trace looks
/// continuous; the counts reveal which bins actually contained data and
/// which merely held the previous value. Uses the same clamping/dropping
/// rules as the resamplers, so indices line up one-to-one.
pub fn bin_counts(samples: &[(f64, f64)], bin_s: f64, duration_s: f64) -> Vec<u64> {
    let Some(grid) = BinGrid::new(bin_s, duration_s) else {
        return Vec::new();
    };
    let n_bins = grid.n();
    let mut counts = vec![0u64; n_bins];
    for &(t, v) in samples {
        if !t.is_finite() || t < 0.0 || !v.is_finite() || n_bins == 0 {
            continue;
        }
        counts[grid.index(t)] += 1;
    }
    counts
}

/// Per-bin sample coverage on the [`bin_average`] grid: each bin's
/// sample count relative to the most-populated bin, in `[0, 1]`. An
/// all-empty input yields all-zero coverage.
pub fn bin_coverage(samples: &[(f64, f64)], bin_s: f64, duration_s: f64) -> Resampled {
    let counts = bin_counts(samples, bin_s, duration_s);
    let densest = counts.iter().copied().max().unwrap_or(0);
    let values = if densest == 0 {
        vec![0.0; counts.len()]
    } else {
        counts.iter().map(|&n| n as f64 / densest as f64).collect()
    };
    Resampled { bin_s, values }
}

/// Count every resample and, under `MIDBAND5G_AUDIT`, verify the output
/// grid has exactly the bins its [`BinGrid`] has.
fn audit_resample_len(values: &[f64], expected: usize) {
    obs::registry().counter("timeseries.resamples").inc();
    if audit::enabled() {
        audit::check(Invariant::ResampleLength, values.len() == expected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_bins_and_holds() {
        let samples = vec![(0.1, 10.0), (0.2, 20.0), (0.9, 50.0)];
        let r = bin_average(&samples, 0.5, 1.5);
        assert_eq!(r.values.len(), 3);
        assert_eq!(r.values[0], 15.0); // mean of the first two
        assert_eq!(r.values[1], 50.0);
        assert_eq!(r.values[2], 50.0); // held
    }

    #[test]
    fn sum_bins_form_rates() {
        // 1000 bits at t=0.1 and 0.3 in a 0.5 s bin → 4000 bits/s.
        let samples = vec![(0.1, 1000.0), (0.3, 1000.0)];
        let r = bin_sum(&samples, 0.5, 1.0);
        assert_eq!(r.values[0], 4000.0);
        assert_eq!(r.values[1], 0.0);
    }

    #[test]
    fn out_of_range_samples_clamped_or_dropped() {
        let samples = vec![(-1.0, 99.0), (10.0, 7.0)];
        let r = bin_average(&samples, 1.0, 2.0);
        // Negative time dropped; far-future sample clamps to the last
        // bin; the leading empty bin backfills from it.
        assert_eq!(r.values[0], 7.0);
        assert_eq!(r.values[1], 7.0);
    }

    #[test]
    fn leading_empty_bins_backfill_from_first_real_bin() {
        // First sample lands in bin 2: bins 0..2 must report the first
        // real value, not a fabricated zero ramp.
        let samples = vec![(1.1, 40.0), (1.3, 60.0), (2.4, 80.0)];
        let r = bin_average(&samples, 0.5, 3.0);
        assert_eq!(r.values.len(), 6);
        assert_eq!(r.values[0], 50.0); // backfilled
        assert_eq!(r.values[1], 50.0); // backfilled
        assert_eq!(r.values[2], 50.0); // mean of the first two samples
        assert_eq!(r.values[3], 50.0); // held
        assert_eq!(r.values[4], 80.0);
        assert_eq!(r.values[5], 80.0); // held
    }

    #[test]
    fn all_empty_input_stays_zero() {
        let r = bin_average(&[], 0.5, 2.0);
        assert_eq!(r.values, vec![0.0; 4]);
    }

    #[test]
    fn non_finite_timestamps_are_dropped() {
        let samples =
            vec![(f64::NAN, 99.0), (f64::INFINITY, 99.0), (f64::NEG_INFINITY, 99.0), (0.1, 5.0)];
        let avg = bin_average(&samples, 1.0, 2.0);
        assert_eq!(avg.values, vec![5.0, 5.0]);
        let sum = bin_sum(&samples, 1.0, 2.0);
        assert_eq!(sum.values, vec![5.0, 0.0]);
    }

    #[test]
    fn timestamps_are_bin_centres() {
        let r = Resampled { bin_s: 0.06, values: vec![0.0; 3] };
        let ts = r.timestamps();
        assert!((ts[0] - 0.03).abs() < 1e-12);
        assert!((ts[2] - 0.15).abs() < 1e-12);
    }

    #[test]
    fn coverage_exposes_held_bins() {
        // bin_average holds through the empty middle bin; coverage tells
        // the two apart.
        let samples = vec![(0.1, 10.0), (0.2, 20.0), (1.1, 30.0)];
        let avg = bin_average(&samples, 0.5, 1.5);
        assert_eq!(avg.values, vec![15.0, 15.0, 30.0]);
        assert_eq!(bin_counts(&samples, 0.5, 1.5), vec![2, 0, 1]);
        let cov = bin_coverage(&samples, 0.5, 1.5);
        assert_eq!(cov.values, vec![1.0, 0.0, 0.5]);
        // Same grid as the resampler, including the clamp/drop rules.
        let weird = vec![(-1.0, 9.0), (f64::NAN, 9.0), (9.0, 9.0)];
        assert_eq!(bin_counts(&weird, 1.0, 2.0), vec![0, 1]);
        assert_eq!(bin_coverage(&[], 0.5, 1.0).values, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_duration_is_empty() {
        assert!(bin_average(&[], 0.5, 0.0).values.is_empty());
        assert!(bin_sum(&[], 0.5, 0.0).values.is_empty());
    }

    #[test]
    fn degenerate_grids_return_empty_instead_of_aborting() {
        // Regression: each of these previously computed
        // `(duration/bin).ceil() as usize == usize::MAX` and aborted the
        // process inside `vec![0.0; n_bins]`.
        let samples = vec![(0.1, 5.0)];
        let before = obs::registry().counter("timeseries.degenerate_grids").get();
        let degenerate: &[(f64, f64)] = &[
            (0.0, 1.0),                 // bin_s == 0
            (-0.5, 1.0),                // bin_s < 0
            (f64::NAN, 1.0),            // NaN bin
            (f64::INFINITY, 1.0),       // infinite bin
            (1.0, f64::NAN),            // NaN duration
            (1.0, f64::INFINITY),       // infinite duration
            (1e-300, 1e300),            // finite inputs, ratio overflows
        ];
        for &(bin_s, duration_s) in degenerate {
            assert!(bin_average(&samples, bin_s, duration_s).values.is_empty());
            assert!(bin_sum(&samples, bin_s, duration_s).values.is_empty());
            assert!(bin_counts(&samples, bin_s, duration_s).is_empty());
            assert!(bin_coverage(&samples, bin_s, duration_s).values.is_empty());
        }
        let counted = obs::registry().counter("timeseries.degenerate_grids").get() - before;
        // 4 entry points x 7 degenerate grids (bin_coverage routes
        // through bin_counts, so it counts once per call).
        assert_eq!(counted, 4 * 7);
    }

    #[test]
    fn degenerate_grid_counts_an_audit_violation() {
        use obs::audit::{self, Invariant};
        let was_enabled = audit::enabled();
        audit::set_enabled(true);
        let before = audit::count(Invariant::ResampleGridDegenerate);
        bin_average(&[], f64::NAN, 1.0);
        assert_eq!(audit::count(Invariant::ResampleGridDegenerate), before + 1);
        audit::set_enabled(was_enabled);
    }

    #[test]
    fn non_finite_values_are_skipped_not_propagated() {
        // Regression: a single NaN value used to turn its bin's sum into
        // NaN, and the sample-and-hold then poisoned every later bin.
        let before = obs::registry().counter("timeseries.nonfinite_values").get();
        let samples = vec![
            (0.1, 10.0),
            (0.2, f64::NAN),      // corrupted sample in bin 0
            (0.6, f64::INFINITY), // bin 1 has only non-finite values
            (1.1, 30.0),
            (1.2, f64::NEG_INFINITY),
        ];
        let avg = bin_average(&samples, 0.5, 1.5);
        // Bin 0 averages the surviving sample; bin 1 is effectively
        // empty and holds; bin 2 averages its surviving sample.
        assert_eq!(avg.values, vec![10.0, 10.0, 30.0]);
        assert!(avg.values.iter().all(|v| v.is_finite()));
        let sum = bin_sum(&samples, 0.5, 1.5);
        assert_eq!(sum.values, vec![20.0, 0.0, 60.0]);
        // The skipped samples are visible in the counter and invisible
        // in the coverage grid (same dropping rules).
        let dropped = obs::registry().counter("timeseries.nonfinite_values").get() - before;
        assert_eq!(dropped, 6); // 3 per resampler call
        assert_eq!(bin_counts(&samples, 0.5, 1.5), vec![1, 0, 1]);
    }
}
