//! Tracked slots/sec baseline for the zero-allocation slot loop.
//!
//! Measures the channel hot path over the {stationary, driving} ×
//! {1 site, 3 sites} matrix, in both the production (cached) and the
//! reference (uncached) variants, plus one full-session figure, and
//! writes the result to `BENCH_slotloop.json` at the repository root so
//! regressions are visible in review diffs.
//!
//! ```text
//! cargo run --release -p midband5g-bench --bin perf_baseline
//! cargo run --release -p midband5g-bench --bin perf_baseline -- --quick
//! cargo run --release -p midband5g-bench --bin perf_baseline -- --streaming
//! cargo run --release -p midband5g-bench --bin perf_baseline -- --out /tmp/b.json
//! ```
//!
//! `--streaming` additionally runs the bounded-memory campaign path
//! (an `Aggregates` campaign run) and records its merged aggregates' heap
//! bytes and the per-record byte footprint of a columnar trace.
//!
//! `--cell-load` additionally measures the loaded-cell engine
//! (`ran::cell::CellSim`) at 1 / 100 / 1000 / 10 000 contending UEs and
//! records UE-slot steps per second — the scaling figure behind the
//! EXPERIMENTS.md load sweep.
//!
//! Unless `--no-gate` is given, the run asserts the driving scenarios
//! keep a ≥2× cached-over-uncached speedup (the SIMD batching + moving
//! lookahead headline) and exits non-zero when one slips — wire it into
//! CI with `--no-gate` if the runner is too noisy for a hard floor.

use std::hint::black_box;
use std::time::Instant;

use midband5g::measure::campaign::{Aggregates, Campaign, Plan};
use midband5g::measure::executor::Executor;
use midband5g::measure::session::{SessionResult, SessionSpec};
use midband5g::operators::Operator;
use midband5g::radio_channel::channel::{ChannelConfig, ChannelSimulator};
use midband5g::radio_channel::geometry::{DeploymentLayout, Position};
use midband5g::radio_channel::mobility::MobilityModel;
use midband5g::radio_channel::rng::SeedTree;
use serde::Serialize;

/// Default output path: the repository root, resolved relative to this
/// crate so the binary works from any working directory.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_slotloop.json");

/// One cell of the scenario matrix.
#[derive(Debug, Serialize)]
struct Scenario {
    /// `{mobility}_{layout}`, e.g. `stationary_3site`.
    name: String,
    /// Number of gNB sites in the deployment layout.
    sites: usize,
    /// Measured slots per wall-clock second, production (cached) path.
    cached_slots_per_sec: f64,
    /// Measured slots per wall-clock second, uncached reference path.
    uncached_slots_per_sec: f64,
    /// `cached / uncached`.
    speedup: f64,
}

/// Wall-clock figure for one full `SessionResult::run`.
#[derive(Debug, Serialize)]
struct SessionFigure {
    /// Operator whose configuration the session used.
    operator: String,
    /// Simulated session length, seconds.
    duration_s: f64,
    /// Wall-clock milliseconds for the whole session.
    wall_ms: f64,
}

/// Memory profile of the bounded-memory streaming campaign (`--streaming`).
#[derive(Debug, Serialize)]
struct StreamingFigure {
    /// Sessions in the streamed campaign.
    sessions: u64,
    /// Slot records emitted across the whole campaign.
    total_records: u64,
    /// Heap bytes of the merged aggregates (`OnlineAggregates::heap_bytes`).
    aggregates_heap_bytes: usize,
    /// Columnar heap bytes per retained record (one materialised session).
    bytes_per_record: f64,
    /// `size_of::<SlotKpi>()`: what the AoS row form costs per record.
    aos_bytes_per_record: u64,
    /// Wall-clock milliseconds for the streamed campaign.
    wall_ms: f64,
}

/// Throughput of the loaded-cell engine at one UE count (`--cell-load`).
#[derive(Debug, Serialize)]
struct CellLoadFigure {
    /// Contending UEs in the cell.
    ues: usize,
    /// Slots measured (after warm-up).
    slots: u64,
    /// UE-slot steps per wall-clock second (`ues × slots / wall`).
    ue_steps_per_sec: f64,
    /// Wall-clock milliseconds for the measured window.
    wall_ms: f64,
}

/// The file written to `BENCH_slotloop.json`.
#[derive(Debug, Serialize)]
struct Baseline {
    /// What produced this file.
    generated_by: String,
    /// Slots measured per variant (after warm-up).
    slots_per_variant: u64,
    /// The {stationary, driving} × {1, 3 sites} matrix.
    scenarios: Vec<Scenario>,
    /// Full-session wall-clock figures.
    sessions: Vec<SessionFigure>,
    /// Streaming-campaign memory profile; absent without `--streaming`.
    streaming: Option<StreamingFigure>,
    /// Loaded-cell engine scaling; absent without `--cell-load`.
    cell_load: Option<Vec<CellLoadFigure>>,
}

/// Measure `CellSim` stepping `n_ues` UEs through a discarding sink.
fn measure_cell_load(n_ues: usize, slots: u64) -> CellLoadFigure {
    use midband5g::measure::loadsweep::SPOT_DISTANCES_M;
    use midband5g::ran::cell::{CellParams, CellSim, CellSink, UeSpec};
    use midband5g::ran::scheduler::SchedulerPolicy;

    /// Keeps just enough to stop the optimiser discarding the run.
    struct Checksum(u64);
    impl CellSink for Checksum {
        fn push(&mut self, _ue: u32, kpi: &midband5g::ran::kpi::SlotKpi) {
            self.0 = self.0.wrapping_add(u64::from(kpi.delivered_bits));
        }
    }

    let ues: Vec<UeSpec> = (0..n_ues)
        .map(|i| UeSpec::at(SPOT_DISTANCES_M[i % SPOT_DISTANCES_M.len()], 0.0))
        .collect();
    let mut sim = CellSim::new(
        CellParams::midband(90, SchedulerPolicy::ProportionalFair),
        &ues,
        &SeedTree::new(7),
    );
    let mut sink = Checksum(0);
    sim.run_into(slots / 4, &mut sink);
    let start = Instant::now();
    sim.run_into(slots, &mut sink);
    let wall = start.elapsed().as_secs_f64();
    black_box(sink.0);
    CellLoadFigure {
        ues: n_ues,
        slots,
        ue_steps_per_sec: n_ues as f64 * slots as f64 / wall,
        wall_ms: wall * 1e3,
    }
}

/// Measure two step functions in alternating rounds. Returns the best
/// round of each (slots/sec) plus the *median of the per-round ratios*.
/// Interleaving means slow background noise hits adjacent measurements
/// alike, so each round's a/b ratio is far more stable than the ratio of
/// two independently-taken maxima; the median then discards the rounds a
/// noisy neighbour disturbed anyway.
fn measure_pair(
    slots_per_round: u64,
    rounds: u32,
    mut step_a: impl FnMut(),
    mut step_b: impl FnMut(),
) -> (f64, f64, f64) {
    // Warm-up fills scratch buffers, the large-scale cache and branch
    // predictors so the measured rounds are steady state.
    for _ in 0..slots_per_round / 4 {
        step_a();
        step_b();
    }
    let mut best_a = 0.0f64;
    let mut best_b = 0.0f64;
    let mut ratios = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..slots_per_round {
            step_a();
        }
        let rate_a = slots_per_round as f64 / start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..slots_per_round {
            step_b();
        }
        let rate_b = slots_per_round as f64 / start.elapsed().as_secs_f64();
        best_a = best_a.max(rate_a);
        best_b = best_b.max(rate_b);
        ratios.push(rate_a / rate_b);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let n = ratios.len();
    let median = if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    };
    (best_a, best_b, median)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let streaming = argv.iter().any(|a| a == "--streaming");
    let cell_load = argv.iter().any(|a| a == "--cell-load");
    let no_gate = argv.iter().any(|a| a == "--no-gate");
    let out = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1).cloned())
        .unwrap_or_else(|| DEFAULT_OUT.to_string());
    let (slots_per_round, rounds): (u64, u32) = if quick { (50_000, 4) } else { (200_000, 8) };
    let slots = u64::from(rounds) * slots_per_round;

    type LayoutFn = fn() -> DeploymentLayout;
    let layouts: [(&str, LayoutFn); 2] = [
        ("1site", DeploymentLayout::single_site),
        ("3site", DeploymentLayout::three_site_dense),
    ];
    let spot = Position::new(60.0, 10.0);
    let make = |layout: fn() -> DeploymentLayout, mobility: MobilityModel| {
        ChannelSimulator::new(ChannelConfig::midband_urban(245), layout(), mobility, &SeedTree::new(1))
    };

    let mut scenarios = Vec::new();
    for (layout_name, layout) in layouts {
        let sites = layout().sites.len();
        // Stationary: the CA drivers call step_at with a fixed position,
        // which is exactly the large-scale cache's hit path.
        let mut sim_c = make(layout, MobilityModel::Stationary { position: spot });
        let mut sim_u = make(layout, MobilityModel::Stationary { position: spot });
        let (cached, uncached, speedup) = measure_pair(
            slots_per_round,
            rounds,
            // black_box stops the optimiser treating the position as a
            // loop invariant: without it, the pure large-scale math of the
            // *uncached* lane can be hoisted out of the measurement loop,
            // silently turning the reference into a cached variant too.
            || {
                sim_c.step_at(black_box(spot), black_box(0.0));
            },
            || {
                sim_u.step_at_uncached(black_box(spot), black_box(0.0));
            },
        );
        scenarios.push(Scenario {
            name: format!("stationary_{layout_name}"),
            sites,
            cached_slots_per_sec: cached,
            uncached_slots_per_sec: uncached,
            speedup,
        });
        // Driving: every slot moves, so the cache rebuilds each time —
        // this bounds the overhead of the cached path.
        let mut sim_c = make(layout, MobilityModel::driving_loop(Position::ORIGIN, 400.0));
        let mut sim_u = make(layout, MobilityModel::driving_loop(Position::ORIGIN, 400.0));
        let (cached, uncached, speedup) = measure_pair(
            slots_per_round,
            rounds,
            || {
                sim_c.step();
            },
            || {
                sim_u.step_uncached();
            },
        );
        scenarios.push(Scenario {
            name: format!("driving_{layout_name}"),
            sites,
            cached_slots_per_sec: cached,
            uncached_slots_per_sec: uncached,
            speedup,
        });
    }

    let duration_s = if quick { 1.0 } else { 4.0 };
    let mut sessions = Vec::new();
    for operator in [Operator::VodafoneSpain, Operator::TMobileUs] {
        let spec = SessionSpec::stationary(operator, 0, duration_s, 99);
        let start = Instant::now();
        let _ = SessionResult::run(spec);
        sessions.push(SessionFigure {
            operator: format!("{operator:?}"),
            duration_s,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }

    let streaming_fig = streaming.then(|| {
        let campaign = Campaign {
            session_duration_s: if quick { 1.0 } else { 10.0 },
            ..Campaign::standard(Operator::VodafoneItaly, 31)
        };
        let start = Instant::now();
        let reducer = Aggregates { bin_s: 0.5 };
        let plan = Plan::clean(Executor::from_env());
        let aggregates = reducer.merge(&plan.run(&campaign.specs(), &reducer).results);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        // One materialised session gives the columnar footprint per record.
        let trace = SessionResult::run(campaign.specs()[0]).trace;
        StreamingFigure {
            sessions: campaign.sessions,
            total_records: aggregates.records(),
            aggregates_heap_bytes: aggregates.heap_bytes(),
            bytes_per_record: trace.heap_bytes() as f64 / trace.len().max(1) as f64,
            aos_bytes_per_record: std::mem::size_of::<midband5g::ran::kpi::SlotKpi>() as u64,
            wall_ms,
        }
    });

    let cell_load_fig = cell_load.then(|| {
        let ue_counts: &[usize] = if quick { &[1, 100, 1000] } else { &[1, 100, 1000, 10_000] };
        ue_counts
            .iter()
            .map(|&n| {
                // Keep the measured UE-steps comparable across points.
                let slots = (400_000 / n as u64).clamp(200, 40_000);
                measure_cell_load(n, slots)
            })
            .collect::<Vec<_>>()
    });

    let mut flags = String::new();
    for (on, flag) in [(quick, " --quick"), (streaming, " --streaming"), (cell_load, " --cell-load")]
    {
        if on {
            flags.push_str(flag);
        }
    }
    let baseline = Baseline {
        generated_by: format!(
            "cargo run --release -p midband5g-bench --bin perf_baseline{}{flags}",
            if flags.is_empty() { "" } else { " --" },
        ),
        slots_per_variant: slots,
        scenarios,
        sessions,
        streaming: streaming_fig,
        cell_load: cell_load_fig,
    };

    println!("slot-loop baseline ({slots} slots per variant)");
    for s in &baseline.scenarios {
        println!(
            "  {:<18} cached {:>12.0} slots/s   uncached {:>12.0} slots/s   speedup {:.2}x",
            s.name, s.cached_slots_per_sec, s.uncached_slots_per_sec, s.speedup
        );
    }
    for s in &baseline.sessions {
        println!("  session {:<14} {:.1} s simulated in {:.0} ms", s.operator, s.duration_s, s.wall_ms);
    }
    if let Some(f) = &baseline.streaming {
        println!(
            "  streaming {} sessions: {} records into {} B of aggregates, \
             {:.1} B/record columnar vs {} B/record AoS, {:.0} ms",
            f.sessions,
            f.total_records,
            f.aggregates_heap_bytes,
            f.bytes_per_record,
            f.aos_bytes_per_record,
            f.wall_ms
        );
    }
    if let Some(points) = &baseline.cell_load {
        for p in points {
            println!(
                "  cell-load {:>6} UEs: {:>12.0} UE-steps/s over {} slots ({:.0} ms)",
                p.ues, p.ue_steps_per_sec, p.slots, p.wall_ms
            );
        }
    }

    match serde_json::to_string_pretty(&baseline) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out, json) {
                eprintln!("error: could not write {out}: {e}");
                std::process::exit(1);
            }
            println!("wrote {out}");
        }
        Err(e) => {
            eprintln!("error: could not serialise baseline: {e}");
            std::process::exit(1);
        }
    }

    // The driving scenarios are where the cached path earns its keep: the
    // whole large-scale cache rebuilds every slot, so any speedup there is
    // pure batching + incremental-mobility win. Gate on the median-ratio
    // figure (noise-robust by construction, see `measure_pair`) after the
    // JSON is on disk so a failing run still leaves its evidence behind.
    const DRIVING_SPEEDUP_FLOOR: f64 = 2.0;
    if !no_gate {
        let mut failed = false;
        for s in &baseline.scenarios {
            if s.name.starts_with("driving") && s.speedup < DRIVING_SPEEDUP_FLOOR {
                eprintln!(
                    "gate: {} speedup {:.2}x below the {DRIVING_SPEEDUP_FLOOR:.1}x floor \
                     (cached {:.0} vs uncached {:.0} slots/s)",
                    s.name, s.speedup, s.cached_slots_per_sec, s.uncached_slots_per_sec
                );
                failed = true;
            }
        }
        if failed {
            eprintln!("gate: performance regression — rerun on a quiet machine or pass --no-gate");
            std::process::exit(1);
        }
    }
}
