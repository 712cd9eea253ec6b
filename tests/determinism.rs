//! The parallel-execution determinism contract (DESIGN.md §5).
//!
//! `Campaign::run_parallel(n)` must be **byte-identical** to the
//! sequential `Campaign::run()` for every thread count: same sessions,
//! same slot traces, same serialised JSON down to the last float digit.
//! This is what lets the figure binaries fan out across cores without
//! ever changing a published number.

use midband5g::analysis::OnlineAggregates;
use midband5g::measure::campaign::{Aggregates, Campaign, Plan};
use midband5g::measure::executor::{Executor, THREADS_ENV};
use midband5g::measure::session::{SessionResult, SessionSpec};
use midband5g::operators::Operator;
use midband5g::radio_channel::rng::SeedTree;
use proptest::prelude::*;
use rand::RngCore;

/// Operators spanning three countries and both routing architectures.
const OPERATORS: [Operator; 3] =
    [Operator::VodafoneItaly, Operator::TelekomGermany, Operator::VerizonUs];

fn small_campaign(operator: Operator) -> Campaign {
    Campaign { operator, sessions: 5, session_duration_s: 1.0, base_seed: 2024 }
}

/// Canonical byte encoding of a campaign's results.
fn encode(results: &[SessionResult]) -> String {
    serde_json::to_string(&results.to_vec()).expect("session results serialise")
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    for operator in OPERATORS {
        let campaign = small_campaign(operator);
        let reference = encode(&campaign.run());
        for threads in [1, 2, 8] {
            let parallel = encode(&campaign.run_parallel(threads));
            assert_eq!(
                reference, parallel,
                "{operator}: run_parallel({threads}) diverged from sequential run()"
            );
        }
    }
}

#[test]
fn parallel_results_preserve_spec_order() {
    for operator in OPERATORS {
        let campaign = small_campaign(operator);
        let specs = campaign.specs();
        for threads in [2, 8] {
            let results = campaign.run_parallel(threads);
            assert_eq!(results.len(), specs.len());
            for (result, spec) in results.iter().zip(&specs) {
                assert_eq!(result.spec, *spec, "{operator}: results out of spec order");
            }
        }
    }
}

#[test]
fn executor_map_is_deterministic_across_thread_counts() {
    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec::stationary(Operator::OrangeFrance, i, 0.5, 900 + i as u64))
        .collect();
    let reference = Executor::sequential().map(&specs, |spec| SessionResult::run(*spec));
    for threads in [2, 3, 8] {
        let parallel = Executor::new(threads).map(&specs, |spec| SessionResult::run(*spec));
        assert_eq!(reference, parallel, "{threads}-thread run diverged");
    }
}

#[test]
fn env_thread_count_does_not_change_results() {
    // `Executor::from_env` reads MIDBAND5G_THREADS; whatever the
    // environment says, the output must match the sequential reference.
    let campaign = small_campaign(Operator::TMobileUs);
    let reference = encode(&campaign.run());
    for value in ["1", "4"] {
        std::env::set_var(THREADS_ENV, value);
        let auto = encode(&campaign.run_parallel(Executor::from_env().threads()));
        assert_eq!(reference, auto, "{THREADS_ENV}={value} changed the output");
    }
    std::env::remove_var(THREADS_ENV);
}

/// The bounded-memory streaming path obeys the same contract as the
/// trace-materialising one: an [`Aggregates`] run is byte-identical across
/// thread counts AND to folding the stored `run()` traces through
/// [`OnlineAggregates`] per session, merged in spec order.
#[test]
fn streaming_campaign_is_byte_identical_across_thread_counts() {
    use midband5g::ran::sink::SlotSink;

    let bin_s = 0.25;
    for operator in OPERATORS {
        let campaign = small_campaign(operator);

        // Sequential reference: post-hoc fold of the stored traces.
        let mut reference = OnlineAggregates::new(bin_s);
        for result in campaign.run() {
            let mut session = OnlineAggregates::new(bin_s);
            for record in result.trace.iter() {
                session.push(&record);
            }
            session.finish();
            reference.merge(&session);
        }
        let reference = serde_json::to_string(&reference).expect("aggregates serialise");

        for threads in [1, 2, 8] {
            let reducer = Aggregates { bin_s };
            let plan = Plan::clean(Executor::new(threads));
            let streamed = reducer.merge(&plan.run(&campaign.specs(), &reducer).results);
            let streamed = serde_json::to_string(&streamed).expect("aggregates serialise");
            assert_eq!(
                reference, streamed,
                "{operator}: Aggregates run on {threads} threads diverged from post-hoc fold"
            );
        }
    }
}

/// Cell-load sweeps (N UEs contending in one cell) obey the same
/// contract as campaigns: every point derives its seeds from the
/// `("load", index)` subtree and shares no state with its neighbours, so
/// the serialised sweep is byte-identical for every thread count.
#[test]
fn cell_load_sweep_is_byte_identical_across_thread_counts() {
    use midband5g::measure::loadsweep::CellLoadSweep;
    use midband5g::ran::scheduler::SchedulerPolicy;

    for policy in [SchedulerPolicy::ProportionalFair, SchedulerPolicy::EqualShare] {
        let sweep = CellLoadSweep {
            ue_counts: vec![1, 3, 8, 24],
            slots: 2_000,
            policy,
            bandwidth_mhz: 60,
            base_seed: 2024,
        };
        let reference =
            serde_json::to_string(&sweep.run(&Executor::sequential())).expect("points serialise");
        for threads in [1, 2, 8] {
            let parallel =
                serde_json::to_string(&sweep.run(&Executor::new(threads))).expect("points serialise");
            assert_eq!(
                reference, parallel,
                "{policy:?}: {threads}-thread load sweep diverged from sequential"
            );
        }
    }
}

proptest! {
    /// Session seed streams never overlap: each session derives its RNG
    /// from `base_seed + i` through the labelled [`SeedTree`], and the
    /// first draws of every stream in a campaign are pairwise distinct —
    /// sessions share no randomness, which is what makes them safe to run
    /// on any thread in any order.
    #[test]
    fn session_seed_streams_do_not_overlap(
        base_seed in 0u64..u64::MAX - 64,
        sessions in 2u64..24,
    ) {
        let campaign = Campaign {
            operator: Operator::VodafoneItaly,
            sessions,
            session_duration_s: 1.0,
            base_seed,
        };
        let mut prefixes = Vec::new();
        for spec in campaign.specs() {
            let mut stream = spec.seeds().stream("shadowing");
            let prefix = [stream.next_u64(), stream.next_u64(), stream.next_u64()];
            prop_assert!(
                !prefixes.contains(&prefix),
                "seed {} repeats another session's stream", spec.seed
            );
            prefixes.push(prefix);
        }
        prop_assert_eq!(prefixes.len() as u64, sessions);
    }

    /// Seed derivation is overflow-safe: near `u64::MAX` the per-session
    /// seeds wrap instead of panicking and stay pairwise distinct.
    #[test]
    fn seeds_wrap_without_collision_near_max(offset in 0u64..16, sessions in 2u64..32) {
        let campaign = Campaign {
            operator: Operator::TelekomGermany,
            sessions,
            session_duration_s: 1.0,
            base_seed: u64::MAX - offset,
        };
        let seeds: Vec<u64> = campaign.specs().iter().map(|s| s.seed).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len() as u64, sessions, "wrapped seeds collided");
        // The independent streams they open stay distinct too.
        let first_draws: Vec<u64> = seeds
            .iter()
            .map(|&s| SeedTree::new(s).child("Berlin").stream("fading").next_u64())
            .collect();
        let mut unique = first_draws.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), first_draws.len());
    }
}
