//! The deterministic chaos contract (DESIGN.md §5.5).
//!
//! Fault injection must not cost determinism: a campaign run under a
//! nonzero [`FaultConfig`] — collector gaps, session aborts, corrupted
//! records, worker panics — still produces a byte-identical
//! [`CampaignOutcome`] for every thread count, a quiet config reproduces
//! the healthy campaign exactly, and a checkpointed campaign that is
//! killed and resumed matches an uninterrupted one byte for byte.

use midband5g::measure::campaign::{Aggregates, Campaign, CampaignOutcome, Plan, Traces};
use midband5g::measure::executor::Executor;
use midband5g::measure::fault::{FaultConfig, FaultInjector, FaultPlan, FaultStats};
use midband5g::measure::session::{SessionResult, SessionSpec};
use midband5g::measure::{Dataset, DEFAULT_RETRY_BUDGET};
use midband5g::operators::Operator;
use midband5g::ran::kpi::{KpiTrace, SlotKpi, BLOCK_RECORDS};
use midband5g::ran::sink::SlotSink;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Operators spanning three countries and both routing architectures —
/// the same panel as `tests/determinism.rs`.
const OPERATORS: [Operator; 3] =
    [Operator::VodafoneItaly, Operator::TelekomGermany, Operator::VerizonUs];

/// Aggressive-but-plausible rates: around half the sessions lose a span,
/// a third abort early, 2% of records decode as garbage, a third of
/// sessions panic at least once.
const CHAOS: FaultConfig =
    FaultConfig { gap_rate: 0.5, abort_rate: 0.3, corrupt_rate: 0.02, panic_rate: 0.3 };

fn small_campaign(operator: Operator) -> Campaign {
    Campaign { operator, sessions: 5, session_duration_s: 1.0, base_seed: 2024 }
}

/// A plan with the default retry budget.
fn plan(executor: Executor, faults: FaultConfig) -> Plan {
    Plan { executor, faults, retry_budget: DEFAULT_RETRY_BUDGET }
}

/// A checkpointed run of `campaign` into `dir`.
fn run_checkpointed(
    campaign: &Campaign,
    dir: &std::path::Path,
    executor: Executor,
    faults: FaultConfig,
) -> std::io::Result<CampaignOutcome> {
    let description = campaign.checkpoint_description();
    plan(executor, faults).run_checkpointed(dir, &campaign.specs(), &description)
}

fn encode(outcome: &CampaignOutcome) -> String {
    serde_json::to_string(outcome).expect("campaign outcomes serialise")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midband5g-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn chaotic_campaign_is_byte_identical_across_thread_counts() {
    let mut any_fault_fired = false;
    for operator in OPERATORS {
        let campaign = small_campaign(operator);
        let reference = plan(Executor::sequential(), CHAOS).run(&campaign.specs(), &Traces);
        // The accounting always partitions the campaign.
        assert_eq!(
            reference.results.len() + reference.failures.len(),
            campaign.sessions as usize,
            "{operator}: results + failures must cover every session"
        );
        assert_eq!(reference.results.len(), reference.coverage.len());
        if reference.min_coverage() < 1.0 || !reference.is_complete() {
            any_fault_fired = true;
        }
        let reference = encode(&reference);
        for threads in [2, 8] {
            let parallel = plan(Executor::new(threads), CHAOS).run(&campaign.specs(), &Traces);
            assert_eq!(
                reference,
                encode(&parallel),
                "{operator}: resilient run on {threads} threads diverged from sequential"
            );
        }
    }
    // Guard against the chaos config silently going quiet: across three
    // operators at these rates, something must have been injected.
    assert!(any_fault_fired, "CHAOS config injected nothing across the whole panel");
}

#[test]
fn quiet_faults_reproduce_the_healthy_campaign_exactly() {
    for operator in OPERATORS {
        let campaign = small_campaign(operator);
        let healthy = campaign.run();
        for threads in [1, 4] {
            let quiet = plan(Executor::new(threads), FaultConfig::default());
            let outcome = quiet.run(&campaign.specs(), &Traces);
            assert!(outcome.is_complete());
            assert_eq!(outcome.survival_rate(), 1.0);
            assert_eq!(outcome.min_coverage(), 1.0);
            assert_eq!(outcome.results, healthy, "{operator}: quiet faults changed the traces");
        }
    }
}

#[test]
fn streaming_resilient_is_byte_identical_across_thread_counts() {
    let bin_s = 0.25;
    for operator in OPERATORS {
        let campaign = small_campaign(operator);
        let describe = |threads: usize| {
            let reducer = Aggregates { bin_s };
            let out = plan(Executor::new(threads), CHAOS).run(&campaign.specs(), &reducer);
            let agg = serde_json::to_string(&reducer.merge(&out.results))
                .expect("aggregates serialise");
            let failures = serde_json::to_string(&out.failures).expect("failures serialise");
            let coverage = serde_json::to_string(&out.coverage).expect("coverage serialises");
            format!("{agg}|{failures}|{coverage}")
        };
        let reference = describe(1);
        for threads in [2, 8] {
            assert_eq!(
                reference,
                describe(threads),
                "{operator}: streaming resilient run on {threads} threads diverged"
            );
        }
    }
}

/// A gapped or aborted campaign shows its losses in the streaming
/// coverage accounting instead of silently reading as complete.
#[test]
fn streaming_coverage_reflects_injected_gaps() {
    let campaign = small_campaign(Operator::TelekomGermany);
    let gaps = FaultConfig { gap_rate: 1.0, ..FaultConfig::default() };
    let reducer = Aggregates { bin_s: 0.25 };
    let out = plan(Executor::new(2), gaps).run(&campaign.specs(), &reducer);
    assert!(out.failures.is_empty(), "gaps alone never abandon a session");
    assert!(
        out.coverage.iter().any(|c| c.fraction() < 1.0),
        "gap_rate=1 must cost some session coverage"
    );
    assert!(
        reducer.merge(&out.results).min_bin_coverage() < 1.0,
        "the merged aggregates must expose under-populated bins"
    );
}

#[test]
fn checkpoint_resume_is_byte_identical_to_uninterrupted() {
    let operator = Operator::VodafoneItaly;
    let full = Campaign { operator, sessions: 6, session_duration_s: 1.0, base_seed: 77 };
    let executor = Executor::new(2);

    // Uninterrupted reference.
    let clean_dir = tmpdir("clean");
    let uninterrupted = run_checkpointed(&full, &clean_dir, executor, CHAOS)
        .expect("uninterrupted checkpointed run");

    // Simulated kill after 3 sessions: campaign specs are prefix-stable
    // (spec `i` depends only on operator/duration/base seed/`i`), so a
    // half-size campaign checkpointed into the same directory leaves
    // exactly the state a killed full campaign would have.
    let resume_dir = tmpdir("resume");
    let half = Campaign { sessions: 3, ..full };
    run_checkpointed(&half, &resume_dir, executor, CHAOS).expect("interrupted prefix run");
    let resumed = run_checkpointed(&full, &resume_dir, executor, CHAOS).expect("resumed run");
    assert_eq!(
        encode(&uninterrupted),
        encode(&resumed),
        "resumed campaign diverged from the uninterrupted one"
    );

    // A second resume over the finished directory is all cache hits and
    // still byte-identical.
    let replayed = run_checkpointed(&full, &resume_dir, executor, CHAOS).expect("replayed run");
    assert_eq!(encode(&uninterrupted), encode(&replayed));

    // The finished checkpoint directory doubles as a loadable dataset
    // over the survivors.
    let ds = Dataset::at(&resume_dir);
    let loaded = ds.load_all().expect("checkpoint dir is a loadable dataset");
    assert_eq!(loaded.len(), uninterrupted.results.len());
    for (record, result) in loaded.iter().zip(&uninterrupted.results) {
        assert_eq!(record.spec, result.spec);
        // Compare serialised: corrupted records carry NaN fields, and
        // NaN != NaN under PartialEq even for identical traces.
        assert_eq!(
            serde_json::to_string(&record.trace).expect("traces serialise"),
            serde_json::to_string(&result.trace).expect("traces serialise")
        );
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resume_dir);
}

#[test]
fn resumed_campaign_reports_an_abandoned_session_like_the_uninterrupted_one() {
    // Session 1 of this campaign out-panics its retry budget. Killed after
    // two sessions, the resumed run reattempts it first in its wave; the
    // failure it reports must still name spec index 1.
    let operator = Operator::VodafoneItaly;
    let full = Campaign { operator, sessions: 4, session_duration_s: 0.5, base_seed: 14 };
    let executor = Executor::new(2);

    let clean_dir = tmpdir("abandon-clean");
    let uninterrupted = run_checkpointed(&full, &clean_dir, executor, CHAOS)
        .expect("uninterrupted checkpointed run");
    assert!(!uninterrupted.failures.is_empty(), "the campaign must abandon a session");

    let resume_dir = tmpdir("abandon-resume");
    let killed = Campaign { sessions: 2, ..full };
    run_checkpointed(&killed, &resume_dir, executor, CHAOS).expect("interrupted prefix run");
    let resumed = run_checkpointed(&full, &resume_dir, executor, CHAOS).expect("resumed run");
    assert_eq!(
        encode(&uninterrupted),
        encode(&resumed),
        "resumed campaign reported its abandoned session differently"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&resume_dir);
}

/// Collects records in arrival order.
struct Collect(Vec<SlotKpi>);

impl SlotSink for Collect {
    fn push_block(&mut self, rows: &[SlotKpi]) {
        self.0.extend_from_slice(rows);
    }
}

/// What one fault-injected attempt leaves: the surviving trace
/// (serialised, since corrupted records carry NaN), the injector's stats
/// and the injected panic's message, if one fired.
type Fed = (String, FaultStats, Option<String>);

/// Feed `records` through a [`FaultInjector`] for `attempt`, one record
/// at a time or, with `blocks`, in blocks of random size up to
/// [`BLOCK_RECORDS`].
fn feed(records: &[SlotKpi], plan: &FaultPlan, attempt: u32, blocks: Option<u64>) -> Fed {
    let mut trace = KpiTrace::new();
    let mut injector = FaultInjector::new(&mut trace, plan, attempt);
    let fed = catch_unwind(AssertUnwindSafe(|| match blocks {
        None => records.iter().for_each(|r| injector.push(r)),
        Some(mut state) => {
            let mut rest = records;
            while !rest.is_empty() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let len = (1 + (state >> 33) as usize % BLOCK_RECORDS).min(rest.len());
                let (block, tail) = rest.split_at(len);
                injector.push_block(block);
                rest = tail;
            }
        }
    }));
    let stats = injector.stats();
    let panic = fed.err().map(|p| p.downcast_ref::<String>().cloned().unwrap_or_default());
    (serde_json::to_string(&trace).expect("traces serialise"), stats, panic)
}

#[test]
fn fault_injector_blocks_match_per_record_feeding() {
    let mut fired = FaultStats::default();
    let mut panics = 0;
    for seed in 0..24u64 {
        let spec = SessionSpec::stationary(Operator::VodafoneItaly, 0, 0.5, 3000 + seed);
        let mut records = Collect(Vec::new());
        SessionResult::run_with_sink(spec, &mut records);
        let plan = FaultPlan::for_spec(&spec, &CHAOS);
        for attempt in 0..=plan.panic.map_or(0, |p| p.attempts) {
            let one_by_one = feed(&records.0, &plan, attempt, None);
            let blocked = feed(&records.0, &plan, attempt, Some(seed));
            assert_eq!(one_by_one, blocked, "seed {seed}, attempt {attempt}");
            let stats = one_by_one.1;
            fired.dropped_gap += stats.dropped_gap;
            fired.dropped_abort += stats.dropped_abort;
            fired.corrupted += stats.corrupted;
            panics += usize::from(one_by_one.2.is_some());
        }
    }
    assert!(
        fired.dropped_gap > 0 && fired.dropped_abort > 0 && fired.corrupted > 0 && panics > 0,
        "every fault kind must fire somewhere: {fired:?}, {panics} panics"
    );
}

#[test]
fn checkpoint_rejects_entries_from_a_different_campaign() {
    // A checkpoint directory seeded by a different base seed must not be
    // trusted: every entry fails the seed/spec-hash check and the whole
    // campaign reruns.
    let operator = Operator::TelekomGermany;
    let executor = Executor::new(2);
    let dir = tmpdir("reject");
    let other = Campaign { operator, sessions: 4, session_duration_s: 1.0, base_seed: 1 };
    run_checkpointed(&other, &dir, executor, FaultConfig::default()).expect("other campaign");
    let campaign = Campaign { operator, sessions: 4, session_duration_s: 1.0, base_seed: 999 };
    let outcome = run_checkpointed(&campaign, &dir, executor, FaultConfig::default())
        .expect("rerun over stale checkpoint");
    let reference = campaign.run();
    assert_eq!(outcome.results, reference, "stale checkpoint entries leaked into the outcome");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// A fault plan is a pure function of `(seed, duration, config)`:
    /// re-deriving it gives the identical schedule, and specs differing
    /// only in operator or mobility share it.
    #[test]
    fn fault_plans_are_pure_functions_of_seed_and_config(
        seed in 0u64..u64::MAX,
        duration_s in 0.1f64..30.0,
    ) {
        let spec = |operator: Operator, spot: usize| SessionSpec::stationary(
            operator, spot, duration_s, seed,
        );
        let a = FaultPlan::for_spec(&spec(Operator::VodafoneItaly, 0), &CHAOS);
        let b = FaultPlan::for_spec(&spec(Operator::VodafoneItaly, 0), &CHAOS);
        prop_assert_eq!(&a, &b, "replay diverged");
        let c = FaultPlan::for_spec(&spec(Operator::VerizonUs, 3), &CHAOS);
        prop_assert_eq!(&a, &c, "operator/spot leaked into the fault schedule");
    }

    /// Planned fault times stay inside the session and panic persistence
    /// stays within its documented 1..=3 attempts.
    #[test]
    fn fault_plans_stay_within_session_bounds(
        seed in 0u64..u64::MAX,
        duration_s in 0.1f64..30.0,
    ) {
        let everything = FaultConfig {
            gap_rate: 1.0, abort_rate: 1.0, corrupt_rate: 0.1, panic_rate: 1.0,
        };
        let spec = SessionSpec::stationary(Operator::TelekomGermany, 0, duration_s, seed);
        let plan = FaultPlan::for_spec(&spec, &everything);
        let (start, end) = plan.gap_s.expect("gap_rate=1 always plans a gap");
        prop_assert!(start >= 0.0 && start <= end && end <= duration_s);
        let abort_s = plan.abort_s.expect("abort_rate=1 always plans an abort");
        prop_assert!(abort_s >= 0.0 && abort_s <= duration_s);
        let p = plan.panic.expect("panic_rate=1 always plans a panic");
        prop_assert!(p.at_s >= 0.0 && p.at_s < duration_s);
        prop_assert!((1..=3).contains(&p.attempts));
    }
}
