//! Chaos-flavored resampler regression: a fault-injected trace (the
//! `measure::fault` NaN-corruption path) fed straight through
//! `analysis::timeseries` must produce finite series.
//!
//! Before the non-finite-value fix, one corrupted `sinr_db` sample made
//! its bin's sum NaN and the sample-and-hold then poisoned every
//! subsequent bin — exactly the trace shape a long-running telemetry
//! daemon ingests for hours. ISSUE 8 satellite regression.

use midband5g::analysis::timeseries::{bin_average, bin_counts, bin_sum};
use midband5g::measure::fault::{run_attempt, FaultConfig};
use midband5g::measure::session::SessionSpec;
use midband5g::obs;
use midband5g::prelude::Operator;
use midband5g::ran::kpi::KpiTrace;

#[test]
fn fault_corrupted_trace_resamples_to_finite_series() {
    // Aggressive per-record corruption so every bin of the session is
    // statistically guaranteed to contain at least one NaN sample.
    let faults = FaultConfig { corrupt_rate: 0.3, ..FaultConfig::default() };
    let spec = SessionSpec::stationary(Operator::VodafoneSpain, 0, 2.0, 4242);
    let mut trace = KpiTrace::new();
    let stats = run_attempt(spec, &faults, 0, &mut trace);
    assert!(stats.corrupted > 0, "corruption should have fired at this rate");

    let samples: Vec<(f64, f64)> = trace.iter().map(|r| (r.time_s, r.sinr_db)).collect();
    let n_nan = samples.iter().filter(|(_, v)| !v.is_finite()).count() as u64;
    assert!(n_nan > 0, "corrupted records must carry NaN sinr_db");

    let before = obs::registry().counter("timeseries.nonfinite_values").get();
    let duration_s = spec.duration_s;
    let avg = bin_average(&samples, 0.06, duration_s); // Fig. 13 granularity
    assert_eq!(avg.values.len(), (duration_s / 0.06).ceil() as usize);
    assert!(
        avg.values.iter().all(|v| v.is_finite()),
        "one NaN sample poisoned the held series"
    );
    let sum = bin_sum(&samples, 0.06, duration_s);
    assert!(sum.values.iter().all(|v| v.is_finite()));
    // Every dropped sample is accounted for, twice (once per resampler).
    let dropped = obs::registry().counter("timeseries.nonfinite_values").get() - before;
    assert_eq!(dropped, 2 * n_nan);

    // The coverage companion applies the same dropping rules, so the
    // corrupted records are visible as missing coverage, not as data.
    let counted: u64 = bin_counts(&samples, 0.06, duration_s).iter().sum();
    assert_eq!(counted, samples.len() as u64 - n_nan);
}
